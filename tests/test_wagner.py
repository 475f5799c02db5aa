import hashlib
import json
import math
from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import gaussian_combine, make_systematic, parity_rows_ok, stage_rows_ok
from wagnersis import chain, dgauss, wagner, zqlin
from wagnersis.chain import _lift_batch, build_chain
from wagnersis.errors import (
    BlockSumMismatch,
    BudgetExceeded,
    InfeasibleSchedule,
    NotInLattice,
    PreconditionViolated,
    WagnerSisError,
    WidthTooSmall,
)
from wagnersis.rngutil import derive_np_rng
from wagnersis.solvers import solve_sis_inf
from wagnersis.wagner import (
    MODE_HEURISTIC,
    MODE_NAIVE,
    MODE_PROVABLE,
    Schedule,
    _buckets,
    _check_final_membership,
    _combine_stage,
    _curate,
    _gaussian_offsets,
    _gaussian_stage,
    _initial_list,
    _occupancy_histogram,
    _pack_labels,
    _round_scaled,
    _rounding_dtype,
    _rounding_stage,
    _uniform_ternary,
    certify_smoothing,
    choose_heuristic_params,
    choose_naive_params,
    choose_provable_params,
    eq1_norm_bound,
    gaussian_wagner,
    naive_wagner,
    pair_indices_disjoint,
    pair_indices_reuse,
)
from wagnersis.zqlin import (
    SisInstance,
    _max_abs,
    centered,
    int_array,
    is_probable_prime,
    matvec_mod,
    random_instance,
    systematic_form,
)


def disjoint_walk(labels, cap):
    """Reference disjoint pairing: walk the list in insertion order; whenever
    the current element's bucket holds two or more unused elements, pair off
    its first two."""
    buckets = {}
    for idx, lab in enumerate(labels):
        buckets.setdefault(lab, deque()).append(idx)
    out = []
    for lab in labels:
        if cap is not None and len(out) >= cap:
            break
        b = buckets[lab]
        if len(b) >= 2:
            out.append((b.popleft(), b.popleft()))
    return out


def reuse_walk(labels, cap):
    """Reference reuse pairing: all within-bucket pairs, buckets in
    first-occurrence order, at most ``cap`` of them (the cap is checked
    before each pair is added, so cap 0 gives none)."""
    members = {}
    for idx, lab in enumerate(labels):
        members.setdefault(lab, []).append(idx)
    out = []
    for mem in members.values():
        for a in range(len(mem)):
            for b in range(a + 1, len(mem)):
                if len(out) >= cap:
                    return out
                out.append((mem[a], mem[b]))
    return out


def histogram_count(labels):
    """Reference occupancy histogram: (bucket size, number of buckets)."""
    return sorted(Counter(Counter(labels).values()).items())


@st.composite
def label_lists(draw):
    """Short lists over a small alphabet, as small ints or as ints >= 2^63
    below their offset plus the alphabet size, or counted down from bound - 1
    for a bound on either side of 2^16 (uint16 keys) and of 2^(63 - s), s =
    bits(len), the last bound whose packed keys (label << s) | position fit
    63 bits.  Returns the labels and the bound."""
    alphabet = draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(0, alphabet - 1), max_size=40))
    edge = draw(st.sampled_from([None, 1 << 16, 1 << (63 - len(labels).bit_length())]))
    if edge is None:
        offset = draw(st.sampled_from([0, 1 << 63, 1 << 80]))
        return [offset + v for v in labels], offset + alphabet
    bound = max(edge, alphabet) + draw(st.integers(0, 1))
    return [bound - 1 - v for v in labels], bound


def _prime_near(start, step):
    while not is_probable_prime(start):
        start += step
    return start


# primes just below and just above 2^31, 2^62 and 2^63, and 2^64 + 13
NAIVE_LADDER = [_prime_near(2**k + d, d) for k in (31, 62, 63) for d in (-1, 1)] + [2**64 + 13]


class TestPairing:
    def test_hand_trace_even_odd(self):
        # Values 0..5 bucketed mod 2: pairs (0,2) and (1,3), both differencing
        # to -2, and exactly floor(6/3) = 2 outputs.
        labels = [v % 2 for v in range(6)]
        pairs = pair_indices_disjoint(_buckets(labels, 2), 2)
        assert pairs.tolist() == [[0, 2], [1, 3]]
        values = list(range(6))
        diffs = [values[i] - values[j] for i, j in pairs]
        assert diffs == [-2, -2]

    def test_disjoint_never_reuses(self):
        rng = derive_np_rng(0, "pairs")
        for _ in range(50):
            labels = [int(v) for v in rng.integers(0, 4, size=30)]
            pairs = pair_indices_disjoint(_buckets(labels, 4), len(labels) // 3)
            used = [i for pr in pairs for i in pr]
            assert len(used) == len(set(used))
            for i, j in pairs:
                assert labels[i] == labels[j] and i < j

    def test_reuse_first_occurrence_order(self):
        labels = [7, 1, 7, 7, 1]
        pairs = pair_indices_reuse(_buckets(labels, 8), 10)
        assert pairs.tolist() == [[0, 2], [0, 3], [2, 3], [1, 4]]

    def test_reuse_cap(self):
        labels = [0] * 10
        assert len(pair_indices_reuse(_buckets(labels, 1), 7)) == 7

    def test_reuse_cap_zero_gives_no_pairs(self):
        assert pair_indices_reuse(_buckets([7, 7], 8), 0).shape == (0, 2)
        assert pair_indices_disjoint(_buckets([7, 7], 8), 0).shape == (0, 2)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(labels_bound=label_lists(), data=st.data())
    def test_matches_reference_walks(self, labels_bound, data):
        labels, bound = labels_bound
        cap = data.draw(st.integers(0, len(labels) + 1))
        # as a list, or as the int64 or object array that _pack_labels returns
        as_given = int_array(labels) if data.draw(st.booleans()) else labels
        grouping = _buckets(as_given, bound)
        for pairs, expect in ((pair_indices_disjoint(grouping, cap), disjoint_walk(labels, cap)),
                              (pair_indices_disjoint(grouping, None), disjoint_walk(labels, None)),
                              (pair_indices_reuse(grouping, cap), reuse_walk(labels, cap))):
            assert pairs.dtype == np.int64 and pairs.shape == (len(expect), 2)
            assert [tuple(p) for p in pairs.tolist()] == expect
        assert _occupancy_histogram(grouping) == histogram_count(labels)

    @staticmethod
    def _group_edge(labels, bound, monkeypatch):
        """``_buckets`` of ``labels`` under ``bound``, and the (function, key
        dtype) of every sort it called."""
        sorts = []

        def spy(name, fn):
            def sorted_by(a, *args, **kwargs):
                sorts.append((name, np.asarray(a).dtype))
                return fn(a, *args, **kwargs)
            return sorted_by

        monkeypatch.setattr(np, "argsort", spy("argsort", np.argsort))
        monkeypatch.setattr(np, "sort", spy("sort", np.sort))
        grouping = _buckets(int_array(labels), bound)
        monkeypatch.undo()
        # against the stable argsort, which a bound past 63-bit keys takes
        for got, want in zip(grouping, _buckets(labels, 1 << 64)):
            assert got.tolist() == want.tolist()
        assert [tuple(p) for p in pair_indices_disjoint(grouping, None).tolist()] == \
            disjoint_walk(labels, None)
        assert _occupancy_histogram(grouping) == histogram_count(labels)
        return sorts

    @pytest.mark.parametrize("bound, top, narrow", [(2**16, 2**16 - 1, True),
                                                    (2**16 + 1, 2**16, False)])
    def test_key_width_edge(self, bound, top, narrow, monkeypatch):
        # labels below p^b <= 2^16 sort as uint16 keys; one more and 2^16
        # would wrap onto 0, so the labels sort as packed int64 keys
        sorts = self._group_edge([top, 0, 5, top, 0, top, 5, 0], bound, monkeypatch)
        assert sorts == [("argsort", np.uint16) if narrow else ("sort", np.int64)]

    @pytest.mark.parametrize("bound, packed", [(2**59, True), (2**59 + 1, False)],
                             ids=["2^59", "2^59+1"])
    def test_packed_key_budget_edge(self, bound, packed, monkeypatch):
        # 8 positions take s = 4 bits, so (label << 4) | position fits 63
        # bits up to p^b = 2^59; past it the labels take a stable argsort
        top = bound - 1
        sorts = self._group_edge([top, 0, 5, top, 0, top, 5, 0], bound, monkeypatch)
        assert sorts == [("sort" if packed else "argsort", np.int64)]


@st.composite
def offset_matrices(draw):
    """(p, K): 1 to 5 rows of b = 1..7 offsets, as int64 (within +-2^40) or as
    an object array (within +-2^80), for small and wide stage moduli p.  The
    first row's top digit is p - 1, so from p^b > 2^63 on the labels' bound
    passes 2^62."""
    b = draw(st.integers(1, 7))
    p = draw(st.one_of(st.integers(2, 300), st.sampled_from([2**10, 2**31 - 1])))
    wide = draw(st.booleans())
    lim = 1 << (80 if wide else 40)
    K = draw(st.lists(st.lists(st.integers(-lim, lim), min_size=b, max_size=b),
                      min_size=1, max_size=5))
    K[0][-1] = -1
    return p, np.array(K, dtype=object if wide else np.int64)


class TestPackLabels:
    @settings(max_examples=300, deadline=None)
    @given(case=offset_matrices())
    @example(case=(2**10, np.array([[5, 0, 7, 1, 2, 3, -1]], dtype=np.int64)))
    def test_matches_base_p_digits(self, case):
        p, K = case
        got = _pack_labels(K, p)
        assert got.tolist() == [sum(k % p * p**j for j, k in enumerate(row))
                                for row in K.tolist()]
        if K.dtype == object or p ** K.shape[1] > 1 << 63:
            assert got.dtype == object
        elif p ** K.shape[1] <= 1 << 62:
            assert got.dtype == np.int64


    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pb=st.sampled_from([(2**31, 2), (2**31 + 1, 2), (2**62, 1), (2**62 + 1, 1),
                               (1290, 6), (1291, 6), (2**21, 3)]),
           data=st.data())
    def test_int64_up_to_2_62_and_objects_past_it(self, pb, data):
        # p^b on either side of 2^62 (1290^6 < 2^62 < 1291^6): labels are
        # summed in int64 up to it, and past it int_lincomb's object path
        # engages, since a row of digits p - 1 puts its bound at p^b - 1
        p, b = pb
        K = data.draw(st.lists(st.lists(st.integers(-(1 << 62), 1 << 62),
                                        min_size=b, max_size=b), max_size=4))
        K = np.array([[-1] * b] + K, dtype=np.int64)
        got = _pack_labels(K, p)
        assert got.dtype == (np.int64 if p ** b <= 1 << 62 else object)
        assert got.tolist() == [sum(k % p * p**j for j, k in enumerate(row))
                                for row in K.tolist()]


class TestBucketAndCombine:
    def _stage(self):
        inst = make_systematic(2, 6, 5, seed=0)
        return build_chain(inst, [2], [2])[0]

    def test_hand_trace_with_staged_vectors(self):
        # The integer line bucketed mod 2, driven through a real stage with a
        # two-class quotient: k = 0..5, x = 0, so tails are (q/p) k and the
        # six inputs pair as (0,2) and (1,3), both differencing to dk = -2.
        inst = make_systematic(1, 5, 5, seed=0)
        st = build_chain(inst, [1], [2])[0]
        X = np.zeros((6, 4), dtype=np.int64)
        K = np.arange(6).reshape(6, 1)
        out, _ = gaussian_combine(st, X, _lift_batch(st, X, 0), K, 2, reuse=False)
        assert len(out) == 2
        assert out[:, 4].tolist() == [-5, -5]  # (q/p) dk = (5/2) * (-2)

    def test_reuse_cap_zero_gives_no_outputs(self):
        st = self._stage()
        X = np.zeros((2, 4), dtype=np.int64)
        Y, K = _lift_batch(st, X, 0), np.ones((2, 2), dtype=np.int64)
        assert len(gaussian_combine(st, X, Y, K, 0, reuse=True)[0]) == 0
        assert len(gaussian_combine(st, X, Y, K, 1, reuse=True)[0]) == 1

    def test_pigeonhole_exact_output_count(self):
        # With N >= 3 p^b inputs the output is always exactly floor(N/3).
        st = self._stage()
        rng = derive_np_rng(1, "pigeon")
        for trial in range(1000):
            n_in = int(rng.integers(12, 60))
            K = rng.integers(-8, 9, size=(n_in, 2))
            X = np.zeros((n_in, 4), dtype=np.int64)
            out, _ = gaussian_combine(st, X, _lift_batch(st, X, 0), K, n_in // 3, reuse=False)
            assert len(out) == n_in // 3

    def test_outputs_in_stage_lattice(self):
        # the same stage list at q = 5 in int64, and as an object array at
        # q = 2^64 + 13, where the tails q dk / p leave int64
        st = self._stage()
        rng = derive_np_rng(2)
        rows = [(rng.integers(-2, 3, 4), rng.integers(-4, 5, 2)) for _ in range(30)]
        X = np.array([x for x, _ in rows])
        K = np.array([k for _, k in rows])
        big = build_chain(SisInstance.create(make_systematic(2, 6, 5, seed=0).A, 2**64 + 13),
                          [2], [2])[0]
        for stage, X, K in ((st, X, K), (big, X.astype(object), K.astype(object))):
            Y = _lift_batch(stage, X, 2)
            assert stage_rows_ok(stage, X, Y, K)
            out, _ = gaussian_combine(stage, X, Y, K, 10, reuse=False)
            assert len(out) == 10 and parity_rows_ok(stage.a_new, stage.q, out)
        assert out.dtype == object and np.abs(out[:, 4:]).max() > 2**63

    @staticmethod
    def _python_rows(X, T, pairs):
        """The kernel's rows (x1 - x2 ; t1 - t2) over Python integers."""
        return [[int(a) - int(b) for a, b in zip([*X[i], *T[i]], [*X[j], *T[j]])]
                for i, j in pairs]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_tails_match_python_integers(self, data):
        # int64 and object lists, with offsets past int64 at q = 2^64 + 13:
        # every output's tail is (y1 - y2) + q (k1 - k2) / p over Python integers
        q = data.draw(st.sampled_from([5, 2**31 - 1, 2**64 + 13]))
        p = data.draw(st.sampled_from([2, 3]))
        stage = build_chain(SisInstance.create(make_systematic(2, 6, 5, seed=0).A, q),
                            [2], [p])[0]
        n = data.draw(st.integers(0, 24))
        top = data.draw(st.sampled_from([3, 2**40, 2**62, 2**70]))
        as_object = data.draw(st.booleans())  # else int64 where every entry fits

        def block(width, bound):
            rows = [[data.draw(st.integers(-bound, bound)) for _ in range(width)]
                    for _ in range(n)]
            arr = np.array(rows, dtype=object) if as_object else int_array(rows)
            return arr.reshape(n, width)

        X, Y, K = block(4, 3), block(2, top), block(2, top)
        reuse = data.draw(st.booleans())
        cap = data.draw(st.integers(0, 3 * n) if reuse
                        else st.one_of(st.none(), st.integers(0, n)))
        out, buckets = gaussian_combine(stage, X, Y, K, cap, reuse)
        pairs = (pair_indices_reuse if reuse else pair_indices_disjoint)(buckets, cap).tolist()
        dk = [[int(a) - int(b) for a, b in zip(K[i], K[j])] for i, j in pairs]
        assert all(d % p == 0 for ds in dk for d in ds)  # paired rows share k mod p
        expect = [row[:4] + [t + q * (d // p) for t, d in zip(row[4:], ds)]
                  for row, ds in zip(self._python_rows(X, Y, pairs), dk)]
        assert out.shape == (len(pairs), 6) and out.tolist() == expect

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_heads_on_both_sides_of_2_62(self, data):
        # int64 heads reaching 2^62 subtract as Python integers; at
        # +-(2^62 + 2^61) their int64 difference would wrap
        edge = data.draw(st.sampled_from([2**62 - 1, 2**62, 2**62 + 2**61, 2**63 - 1]))
        entry = st.one_of(st.sampled_from([edge, -edge, 0]), st.integers(-edge, edge))
        n = data.draw(st.integers(2, 12))
        X = np.array([[data.draw(entry) for _ in range(4)] for _ in range(n)],
                     dtype=data.draw(st.sampled_from([np.int64, object])))
        T = np.zeros((n, 2), dtype=np.int64)
        labels = int_array([data.draw(st.integers(0, 3)) for _ in range(n)])
        out, buckets = _combine_stage(self._stage(), X, T, labels, None, False, _max_abs(X))
        pairs = pair_indices_disjoint(buckets, None).tolist()
        assert out.tolist() == self._python_rows(X, T, pairs)
        wide = X.dtype == object or max(abs(int(v)) for v in X.flat) >= 2**62
        assert out.dtype == (object if wide else np.int64)

    def test_gaussian_stage_heads_past_2_62_stay_in_the_stage_lattice(self):
        # heads +-(2^62 + 2^61), whose int64 differences wrap, through a
        # whole stage: every output must lie on the stage's parity rows
        st = self._stage()
        E = 2**62 + 2**61
        X = derive_np_rng(5, "big-heads").choice(np.array([-E, 0, E]), size=(30, 4))
        sched = Schedule(mode=MODE_HEURISTIC, r=1, N=10, p=(2,), b=(2,),
                         s0_sq=Fraction(64))
        out, _, _ = _gaussian_stage(st, X, sched, 7)
        assert len(out) > 0 and out.dtype == object
        assert parity_rows_ok(st.a_new, st.q, out)


class TestGaussianWagnerProvable:
    def test_tiny_end_to_end(self):
        inst = make_systematic(2, 6, 5, seed=3)
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=12, p=(2,), b=(2,),
                         s0_sq=Fraction(64))
        out, stats = gaussian_wagner(inst, sched, 42)
        assert stats.list_sizes == [36, 12]
        assert len(out) == 12
        A = np.asarray(inst.A)
        assert not np.any(np.mod(out @ A.T, 5))

    def test_size_law_two_stages(self):
        inst = make_systematic(2, 8, 5, seed=4)
        sched = Schedule(mode=MODE_PROVABLE, r=2, N=15, p=(2, 2), b=(1, 1),
                         s0_sq=Fraction(144))
        out, stats = gaussian_wagner(inst, sched, 5)
        assert stats.list_sizes == [9 * 15, 3 * 15, 15]

    def test_width_law(self):
        sched = Schedule(mode=MODE_PROVABLE, r=3, N=8, p=(2, 2, 2), b=(1, 1, 1),
                         s0_sq=Fraction(16))
        final_width = math.sqrt(2.0 * float(sched.width_sq(sched.r)))
        assert final_width == pytest.approx(8 * math.sqrt(2), rel=1e-12)

    def test_width_precondition(self):
        inst = make_systematic(2, 6, 5, seed=3)
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=12, p=(2,), b=(2,),
                         s0_sq=Fraction(4))  # s0 = 2 < 2.5 sqrt(ln8/pi)
        with pytest.raises(WidthTooSmall):
            gaussian_wagner(inst, sched, 0)

    def test_n_must_cover_buckets(self):
        inst = make_systematic(2, 6, 5, seed=3)
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=3, p=(2,), b=(2,),
                         s0_sq=Fraction(64))
        with pytest.raises(InfeasibleSchedule):
            gaussian_wagner(inst, sched, 0)

    def test_memory_guard(self):
        inst = make_systematic(2, 6, 5, seed=3)
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=10**9, p=(2,), b=(2,),
                         s0_sq=Fraction(64))
        with pytest.raises(BudgetExceeded):
            gaussian_wagner(inst, sched, 0)  # 3 N (m - n) int64s pass 8 GiB

    def test_deterministic_per_seed(self):
        inst = make_systematic(2, 6, 5, seed=3)
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=12, p=(2,), b=(2,),
                         s0_sq=Fraction(64))
        out1, _ = gaussian_wagner(inst, sched, 42)
        out2, _ = gaussian_wagner(inst, sched, 42)
        assert np.array_equal(out1, out2)
        out3, _ = gaussian_wagner(inst, sched, 43)
        assert not np.array_equal(out1, out3)

    def test_output_stream_pinned(self):
        # sha256 of the output rows, computed at the stream epoch (sampler
        # streams on SFC64, acceptance-sized rounds, tail steps only where
        # they count)
        inst, _ = systematic_form(random_instance(2, 8, 5, seed=4))
        sched = Schedule(mode=MODE_PROVABLE, r=2, N=15, p=(2, 2), b=(1, 1),
                         s0_sq=Fraction(144))
        out, stats = gaussian_wagner(inst, sched, 5)
        assert stats.list_sizes == [135, 45, 15]
        assert hashlib.sha256(json.dumps(out.tolist()).encode()).hexdigest() == \
            "24d61c72c644e45a9e9f95e2c03d9579886b18f2aa341927d42fcbb3aaaf1e55"

    def test_stage_tail_beyond_int64_products(self):
        # q (dk / p) with q = 2^61 - 1 overflows int64; the tail must be
        # formed over Python integers and every output must be in the lattice.
        q = 2**61 - 1
        inst, _ = systematic_form(random_instance(2, 6, q, seed=1))
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=12, p=(2,), b=(2,),
                         s0_sq=Fraction(q // 2) ** 2)
        out, stats = gaussian_wagner(inst, sched, 5)
        assert len(out) == 12 and stats.list_sizes == [36, 12]
        _check_final_membership(inst, out, stats.max_linf)

    def test_array_sampler_window_bound_is_typed(self):
        # s0 = 4q puts the window 2 max(2, ceil(0.75 s0)) + 1 above 2^63, beyond the
        # array sampler's int64 offsets: a precondition, not a ValueError.
        q = 2**61 - 1
        inst, _ = systematic_form(random_instance(2, 6, q, seed=1))
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=12, p=(2,), b=(2,),
                         s0_sq=Fraction(4 * q) ** 2)
        with pytest.raises(PreconditionViolated, match="2\\^63"):
            gaussian_wagner(inst, sched, 5)

    def test_modulus_ladder(self):
        # s0 = q / sqrt(2): lattice rows, or a typed error (the window bound
        # from the primes near 2^63 up); rows at one modulus or more
        returned = 0
        for q in NAIVE_LADDER:
            inst, _ = systematic_form(random_instance(2, 6, q, seed=1))
            sched = Schedule(mode=MODE_PROVABLE, r=2, N=16, p=(4, 2), b=(1, 1),
                             s0_sq=Fraction(q) ** 2 / 2)
            try:
                out, stats = gaussian_wagner(inst, sched, 3)
            except WagnerSisError:
                continue
            rows = [[int(v) for v in row] for row in out]
            assert len(rows) == stats.list_sizes[-1] == 16
            assert not any(int(v) for row in rows for v in matvec_mod(inst.A, row, q))
            returned += 1
        assert returned >= 1

    def test_sampler_counts_in_stats(self):
        inst, _ = systematic_form(random_instance(2, 8, 5, seed=4))
        sched = Schedule(mode=MODE_PROVABLE, r=2, N=15, p=(2, 2), b=(1, 1),
                         s0_sq=Fraction(144))
        _, stats = gaussian_wagner(inst, sched, 5)
        doc = stats.as_dict()
        assert list(doc) == ["mode", "list_sizes", "stage_seconds", "bucket_histograms",
                             "sampler", "nonzero_fraction", "max_linf", "max_l2"]
        # one entry per list: 135 x 6 initial draws, then b = 1 offset per row
        counts = doc["sampler"]
        assert list(counts) == ["draws", "proposals", "fallbacks"]
        assert counts["draws"] == [810, 135, 45]
        assert all(p >= d for p, d in zip(counts["proposals"], counts["draws"]))
        assert counts["fallbacks"] == [0, 0, 0]

    def test_offset_centers_beyond_int64_products(self):
        # p |y| = 2^64 overflows int64, so the centers -(p/q) y need Python
        # integers; every offset stays within a few widths of the exact center.
        q, p = 257, 8
        inst, _ = systematic_form(random_instance(2, 6, q, seed=1))
        stage = build_chain(inst, [2], [p])[0]
        Y = np.array([[(1 << 61) - 5, -(1 << 61) + 3], [(1 << 61) - 1, 1 << 60]],
                     dtype=np.int64)
        K, counts, k_bound = _gaussian_offsets(stage, Y, Fraction(4 * q * q, p * p),
                                               ("stage", 1), 3, (1 << 61) - 1)
        assert K.dtype == np.int64 and counts.draws == 4 and _max_abs(K) <= k_bound
        for k, y in zip(K.ravel().tolist(), Y.ravel().tolist()):
            assert abs(k - Fraction(-p * y, q)) <= 10 * 2  # width (p/q) s = 2

    def test_offsets_beyond_int64_stay_exact(self):
        # p y / q near 2^65: the offsets leave int64 and must come back as
        # Python integers, each within a few widths of its exact center
        q = 2**64 + 13
        p = q // 2
        inst, _ = systematic_form(random_instance(2, 6, q, seed=1))
        stage = build_chain(inst, [1], [p], allow_partial=True)[0]
        Y = int_array([[3 * q + 5], [-(2 * q) - 7], [11]])
        K, counts, k_bound = _gaussian_offsets(stage, Y, Fraction(4 * q * q, p * p),
                                               ("stage", 1), 3, 3 * q + 5)
        assert K.dtype == object and counts.draws == 3 and _max_abs(K) <= k_bound
        for k, y in zip(K.ravel().tolist(), Y.ravel().tolist()):
            assert abs(k - Fraction(-p * y, q)) <= 10 * 2  # width (p/q) s = 2

    def test_heuristic_run_with_offsets_beyond_int64(self):
        # stage offsets near -y/2 with y up to about m q: lattice rows or a
        # typed error, never an OverflowError
        q = 2**64 + 13
        inst, _ = systematic_form(random_instance(2, 16, q, seed=1))
        sched = Schedule(mode=MODE_HEURISTIC, r=1, N=16, p=(q // 2,), b=(1,),
                         s0_sq=Fraction(64))
        try:
            out, stats = gaussian_wagner(inst, sched, 5)
        except WagnerSisError:
            return
        assert stats.list_sizes[0] == 48
        _check_final_membership(inst, out, stats.max_linf)

    @pytest.mark.parametrize("mode, b", [(MODE_PROVABLE, (2,)), (MODE_HEURISTIC, (1,))])
    def test_width_past_float_range_is_a_typed_error(self, mode, b):
        # every width-floor check compares exactly: s0^2 = 2^1100 overflows
        # a float, and the sampler's window bound rejects it instead
        inst = make_systematic(2, 16, 5, seed=1)
        sched = Schedule(mode=mode, r=1, N=16, p=(2,), b=b, s0_sq=Fraction(2) ** 1100)
        with pytest.raises(PreconditionViolated, match="window"):
            gaussian_wagner(inst, sched, 0)

    def test_threads_other_than_one_rejected(self):
        inst = make_systematic(2, 8, 5, seed=6)
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=12, p=(2,), b=(2,),
                         s0_sq=Fraction(64))
        for threads in (0, 2):
            with pytest.raises(PreconditionViolated):
                gaussian_wagner(inst, sched, 9, threads=threads)

    def test_requires_systematic(self):
        inst = SisInstance.create([[0, 1], [1, 0]], 7)
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=12, p=(2,), b=(2,),
                         s0_sq=Fraction(64))
        with pytest.raises(BlockSumMismatch):
            gaussian_wagner(inst, sched, 0)

    def test_final_membership_check_raises_typed_error(self):
        inst = make_systematic(2, 6, 5, seed=3)
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=12, p=(2,), b=(2,),
                         s0_sq=Fraction(64))
        out, stats = gaussian_wagner(inst, sched, 42)
        _check_final_membership(inst, out, stats.max_linf)
        bad = out.copy()
        bad[3, 0] += 1
        for rows in (bad, bad.astype(object)):
            with pytest.raises(NotInLattice):
                _check_final_membership(inst, rows, stats.max_linf + 1)


class TestGaussianWorkloads:
    def test_workload_shape_pinned(self):
        # The twin of TestNaiveWagner's: sha256 of 10 heuristic solves at the
        # benchmark's desk shape (8 x 20 mod 257, f = 4 sqrt(ln m)) and 2
        # provable runs at its schedule (2 x 8 mod 5, r = 2, p = (2, 2),
        # b = (1, 1), s0^2 = 144), each with its output rows and
        # seed-determined stats, computed at commit 6670902
        records = []
        for s in range(10):
            inst, _ = systematic_form(random_instance(8, 20, 257, seed=s))
            report = solve_sis_inf(inst, 4.0 * math.sqrt(math.log(20)), 2.0 ** -10,
                                   MODE_HEURISTIC, s)
            doc = dict(report.stats)
            del doc["stage_seconds"]
            records.append([[list(sol.x) for sol in report.solutions], report.attempts, doc])
        sched = Schedule(mode=MODE_PROVABLE, r=2, N=2000, p=(2, 2), b=(1, 1),
                         s0_sq=Fraction(144))
        for s in range(2):
            inst, _ = systematic_form(random_instance(2, 8, 5, seed=s))
            out, stats = gaussian_wagner(inst, sched, s)
            doc = stats.as_dict()
            del doc["stage_seconds"]
            assert doc["list_sizes"] == [18000, 6000, 2000]
            records.append([out.tolist(), doc])
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == \
            "0d559de034af255c90bff35a2c5cac40055f83f019fed8b48682870f58e51da5"


    def test_draws_decide_windows_from_tables(self, monkeypatch):
        # Every draw of a desk heuristic solve (stage offsets, c_den = 257)
        # and of a provable run (the initial list, c_den = 1, and stage
        # offsets, c_den = 5) decides its window and tail proposals from a
        # threshold table: the formula runs only to build those tables.
        calls, table_keys = {"formula": 0, "tail rounds": 0}, []
        cls, table = dgauss._ZSampler, dgauss._threshold_table

        def spy(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        def spy_table(*key):
            table_keys.append(key)
            return table(*key)

        monkeypatch.setattr(cls, "_offset_p", spy("formula", cls._offset_p))
        monkeypatch.setattr(cls, "_tail_offsets", spy("tail rounds", cls._tail_offsets))
        monkeypatch.setattr(dgauss, "_threshold_table", spy_table)
        table.cache_clear()
        inst, _ = systematic_form(random_instance(8, 20, 257, seed=0))
        solve_sis_inf(inst, 4.0 * math.sqrt(math.log(20)), 2.0 ** -10, MODE_HEURISTIC, 0)
        inst, _ = systematic_form(random_instance(2, 8, 5, seed=0))
        gaussian_wagner(inst, Schedule(mode=MODE_PROVABLE, r=2, N=2000, p=(2, 2), b=(1, 1),
                                       s0_sq=Fraction(144)), 0)
        assert {key[1] for key in table_keys} == {1, 5, 257}
        assert calls["tail rounds"] > 0
        assert calls["formula"] == table.cache_info().misses


def naive_stage_oracle(inst, sched, seed):
    """The rounding variant in plain Python integers, stage by stage as its
    kernel once ran on whole rows: each row and its completions y = -a x_top
    mod q of the stage's parity rows, labelled by round((p/q) y) mod p as
    base-p digits and walked into disjoint pairs, subtract to centered
    differences.  Returns the rows, the list sizes and the bucket
    histograms."""
    q, d = inst.q, inst.m - inst.n
    draw_type = np.int8 if q <= 127 else np.int16
    rows = derive_np_rng(seed, "init-ternary-uniform").integers(
        -1, 2, size=(3 ** sched.r * sched.N, d), dtype=draw_type).tolist()
    a_prime = [[int(v) for v in row] for row in np.asarray(inst.a_prime)]

    def center(v):
        v %= q
        return v - q if v > q // 2 else v

    sizes, histograms, kappa = [len(rows)], [], 0
    for p, b in zip(sched.p, sched.b):
        ys = [[-sum(a * x for a, x in zip(a_row, row[:d])) % q
               for a_row in a_prime[kappa:kappa + b]] for row in rows]
        labels = [sum((2 * p * y + q) // (2 * q) % p * p ** j for j, y in enumerate(yr))
                  for yr in ys]
        rows = [[center(u - v) for u, v in zip(rows[i] + ys[i], rows[j] + ys[j])]
                for i, j in disjoint_walk(labels, None)]
        sizes.append(len(rows))
        histograms.append([list(h) for h in histogram_count(labels)])
        kappa += b
    return rows, sizes, histograms


# moduli on both sides of every edge of _rounding_dtype(q), composite ones
# among them, and small ones, where 2^r >= q/2 and the top coordinates wrap
NAIVE_ORACLE_MODULI = [2, 3, 4, 5, 6, 8, 9, 12, 16, 127, 128, 129, 255, 32767, 32768, 32769,
                       2**31 - 1, 2**31, 2**31 + 1, 2**62 - 1, 2**63 - 1, 2**63, 2**63 + 1,
                       2**64 + 13]


@st.composite
def naive_cases(draw):
    """A systematic instance [A' | I_n] and a naive schedule over all n rows,
    3^r N at most 2187 vectors."""
    q = draw(st.one_of(st.sampled_from(NAIVE_ORACLE_MODULI), st.integers(2, 2**70)))
    r = draw(st.integers(1, 7))
    N = draw(st.integers(1, max(1, 2187 // 3 ** r)))
    b = draw(st.lists(st.integers(1, 2), min_size=r, max_size=r))
    d = draw(st.integers(1, 4))
    p = draw(st.lists(st.one_of(st.integers(1, min(q, 8)), st.integers(1, q)),
                      min_size=r, max_size=r))
    n = sum(b)
    a_prime = [[draw(st.integers(0, q - 1)) for _ in range(d)] for _ in range(n)]
    inst = SisInstance.create([row + [int(i == j) for j in range(n)]
                               for i, row in enumerate(a_prime)], q)
    sched = Schedule(mode=MODE_NAIVE, r=r, N=N, p=tuple(p), b=tuple(b))
    return inst, sched, draw(st.integers(0, 2**32))


class TestNaiveWagner:
    def _run(self, seed):
        inst = make_systematic(4, 12, 16, seed=seed)
        sched = Schedule(mode=MODE_NAIVE, r=2, N=16, p=(8, 4), b=(2, 2))
        return inst, sched, *naive_wagner(inst, sched, seed)

    def test_membership(self):
        inst, sched, out, stats = self._run(0)
        A = np.asarray(inst.A)
        assert not np.any(np.mod(out @ A.T, 16))

    def test_eq1_bound_value(self):
        sched = Schedule(mode=MODE_NAIVE, r=2, N=16, p=(8, 4), b=(2, 2))
        assert eq1_norm_bound(sched, 16) == 4  # max(4, 2*2, 1*4)

    def test_eq1_bound_holds(self):
        for seed in range(5):
            inst, sched, out, _ = self._run(seed)
            if len(out):
                assert int(np.abs(out).max()) <= 4

    def test_zero_outputs_are_counted(self):
        inst, sched, out, stats = self._run(1)
        # zero rows may appear; they stay in the list and in the stats
        assert stats.list_sizes[-1] == len(out)
        assert 0.0 <= stats.nonzero_fraction <= 1.0

    def test_output_stream_pinned(self):
        # sha256 of the output rows and the seed-determined stats, computed
        # at the stream epoch (the ternary list drawn in its list type, on
        # SFC64)
        inst, sched, out, stats = self._run(3)
        doc = stats.as_dict()
        del doc["stage_seconds"]
        assert doc["list_sizes"] == [144, 55, 24]
        assert hashlib.sha256(json.dumps([out.tolist(), doc]).encode()).hexdigest() == \
            "a260e385c446cfbba2a0df34d5439f5cd13727be78a1fd4b17d003a6abab572e"

    def test_workload_shape_pinned(self):
        # sha256 of a run at the benchmark's naive shape (12 x 30 mod 257,
        # choose_naive_params(12, 257, 4.0)), computed at the stream epoch
        # (the ternary list drawn in int16, its list type, on SFC64)
        inst, _ = systematic_form(random_instance(12, 30, 257, seed=1))
        out, stats = naive_wagner(inst, choose_naive_params(12, 257, 4.0), 7)
        doc = stats.as_dict()
        del doc["stage_seconds"]
        assert doc["list_sizes"] == [97929, 48931, 24451, 12218, 6048, 14]
        assert hashlib.sha256(json.dumps([out.tolist(), doc]).encode()).hexdigest() == \
            "658e8d7d93f38eeb0219290875fdf7ea8ebe7a06bf50a4d3ab7dbaad13ef2392"

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=naive_cases())
    # 2^r >= q/2 at the int8 | int16 edge of the list type, r = 7
    @example(case=(SisInstance.create([[5, 3, 1, 0, 0, 0, 0, 0, 0, 0],
                                       [7, 2, 0, 1, 0, 0, 0, 0, 0, 0],
                                       [1, 9, 0, 0, 1, 0, 0, 0, 0, 0],
                                       [4, 4, 0, 0, 0, 1, 0, 0, 0, 0],
                                       [8, 6, 0, 0, 0, 0, 1, 0, 0, 0],
                                       [3, 5, 0, 0, 0, 0, 0, 1, 0, 0],
                                       [2, 7, 0, 0, 0, 0, 0, 0, 1, 0],
                                       [6, 1, 0, 0, 0, 0, 0, 0, 0, 1]], 11),
                   Schedule(mode=MODE_NAIVE, r=7, N=1, p=(2,) * 7, b=(2,) + (1,) * 6), 5))
    def test_matches_the_per_stage_oracle(self, case):
        # the same rows, dtype, list sizes and histograms as the kernel that
        # centered whole rows at every stage
        inst, sched, seed = case
        out, stats = naive_wagner(inst, sched, seed)
        rows, sizes, histograms = naive_stage_oracle(inst, sched, seed)
        assert out.dtype == (np.int64 if inst.q < 2**63 else object)
        assert out.tolist() == rows
        assert stats.list_sizes == sizes and stats.as_dict()["bucket_histograms"] == histograms
        assert stats.max_linf == max((abs(v) for row in rows for v in row), default=0)

    def test_rounding_label_beyond_int64(self):
        # 2 p y + q = 2^79 / 3 + 2^40 for q = 2^40, p = 2^39, y = q // 3
        q, p = 2**40, 2**39
        Y = np.array([[q // 3]], dtype=np.int64)
        assert _round_scaled(Y, p, q)[0, 0] % p == 183251937963

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dq=st.integers(-3, 3), dp=st.integers(-3, 3), data=st.data())
    def test_rounding_labels_on_either_side_of_2_62(self, dq, dp, data):
        # q (2p + 1) and 2 p (q - 1) + q on either side of 2^62: 2 p y + q
        # is formed in int64 below int_lincomb's bound and as Python
        # integers from it on, as before the int64 shortcut
        q, p = 2**31 + dq, 2**30 + dp
        ys = data.draw(st.lists(st.integers(0, q - 1), max_size=5))
        Y = np.array([[q - 1]] + [[y] for y in ys], dtype=np.int64)
        got = _round_scaled(Y, p, q)
        assert got.dtype == (np.int64 if 2 * p * (q - 1) + q < 1 << 62 else object)
        assert got.ravel().tolist() == [(2 * p * y + q) // (2 * q) for y in Y.ravel().tolist()]

    def test_int64_instance_buckets_by_exact_labels(self):
        # An int64 matrix at q = 2^40: the completions y = a and q - a of
        # x = -1 and x = 1 have distinct labels 2^22 and 2^39 - 2^22, and
        # must not be paired (their difference has norm 2^24).
        q = 2**40
        inst = SisInstance(n=1, m=2, q=q, A=np.array([[2**23, 1]], dtype=np.int64))
        sched = Schedule(mode=MODE_NAIVE, r=1, N=8, p=(2**39,), b=(1,))
        out, stats = naive_wagner(inst, sched, 0)
        _check_final_membership(inst, out, stats.max_linf)
        assert stats.list_sizes[0] == 24
        assert all(abs(int(v)) <= eq1_norm_bound(sched, q) for v in out.ravel())

    @pytest.mark.parametrize("q", NAIVE_LADDER)
    def test_modulus_ladder(self, q):
        # lattice rows within the Eq. (1) bound, or a typed error
        inst, _ = systematic_form(random_instance(2, 6, q, seed=1))
        sched = Schedule(mode=MODE_NAIVE, r=2, N=16, p=(4, 2), b=(1, 1))
        try:
            out, stats = naive_wagner(inst, sched, 3)
        except WagnerSisError:
            return
        rows = [[int(v) for v in row] for row in out]
        assert len(rows) == stats.list_sizes[-1] and any(any(row) for row in rows)
        assert not any(int(v) for row in rows for v in matvec_mod(inst.A, row, q))
        bound = eq1_norm_bound(sched, q)
        assert all(abs(v) <= bound for row in rows for v in row)

    def test_int64_matrix_beyond_int64_modulus(self):
        # the constructor stores an int64 matrix given with q >= 2^63 as
        # Python integers, so the completions y mod q are exact
        inst = SisInstance(n=1, m=2, q=2**64 + 13, A=np.array([[5, 1]]))
        sched = Schedule(mode=MODE_NAIVE, r=1, N=8, p=(4,), b=(1,))
        out, stats = naive_wagner(inst, sched, 0)
        assert stats.list_sizes == [24, 12]
        _check_final_membership(inst, out, stats.max_linf)

    def test_mode_check(self):
        inst = make_systematic(4, 12, 16, seed=0)
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=12, p=(2,), b=(4,),
                         s0_sq=Fraction(64))
        with pytest.raises(InfeasibleSchedule):
            naive_wagner(inst, sched, 0)


# primes on both sides of each edge of _rounding_dtype(q), the type that
# holds [-q, q] (int8 | int16, int16 | int32, int32 | int64), and the powers of
# two at the edges, where the type must hold q itself: it fixes the ternary
# draw's type and, with int64, the output type
LIST_TYPE_EDGES = [
    (127, np.int8), (128, np.int16), (131, np.int16),
    (32749, np.int16), (32768, np.int32), (32771, np.int32),
    (2**31 - 1, np.int32), (2**31, np.int64), (2147483659, np.int64),
    (2**63, object)]


class TestRoundingListType:
    """Rounding stages carry the top coordinates alone, in the narrowest
    signed type that holds +-2^r (int8 for SCHED); runs return int64 rows
    below q = 2^63."""

    SCHED = Schedule(mode=MODE_NAIVE, r=2, N=64, p=(4, 2), b=(1, 1))

    @pytest.mark.parametrize("q, list_type", LIST_TYPE_EDGES)
    def test_stage_on_narrow_list_matches_int64(self, q, list_type):
        assert _rounding_dtype(q) == list_type
        inst = make_systematic(2, 8, q, seed=5)
        st1 = build_chain(inst, self.SCHED.b, self.SCHED.p)[0]
        # a last stage's input, |x| <= 2^(r-1), with both ends in every column
        half = 2 ** (self.SCHED.r - 1)
        X = derive_np_rng(5, "edge-list").integers(-half, half, size=(192, 6),
                                                   dtype=np.int64, endpoint=True)
        X[0], X[1] = half, -half
        narrow = X.astype(_rounding_dtype(2 ** self.SCHED.r))
        assert narrow.dtype == np.int8
        assert _lift_batch(st1, narrow, half).tolist() == _lift_batch(st1, X, half).tolist()
        out, buckets, _ = _rounding_stage(st1, narrow, self.SCHED, 0)
        out64, buckets64, _ = _rounding_stage(st1, X, self.SCHED, 0)
        assert (out.dtype, out64.dtype) == (np.int8, np.int64)
        assert out.tolist() == out64.tolist()
        assert all(np.array_equal(a, b) for a, b in zip(buckets, buckets64))
        # oracle, in plain integers: rows labelled by round((p/q) y) mod p for
        # their completions y = -a x_top mod q, walked into disjoint pairs,
        # subtract to plain top differences
        rows, p = X.tolist(), st1.p
        a_new = [int(v) for v in np.asarray(st1.a_new)[0]]
        y = [-sum(a * x for a, x in zip(a_new, row)) % q for row in rows]
        labels = [(2 * p * v + q) // (2 * q) % p for v in y]
        want = [[u - v for u, v in zip(rows[i], rows[j])]
                for i, j in disjoint_walk(labels, None)]
        assert len(want) > 0 and out.tolist() == want
        # completed once, every difference lies on the stage's parity row
        done = [row + [centered(-sum(a * x for a, x in zip(a_new, row)), q)] for row in want]
        assert parity_rows_ok(st1.a_new, q, done)

    @pytest.mark.parametrize("q, list_type", LIST_TYPE_EDGES)
    def test_runs_return_int64_within_the_eq1_bound(self, q, list_type):
        inst = make_systematic(2, 8, q, seed=5)
        out, stats = naive_wagner(inst, self.SCHED, 3)
        assert out.dtype == np.result_type(list_type, np.int64)
        assert len(out) == stats.list_sizes[-1] > 0
        _check_final_membership(inst, out, stats.max_linf)
        assert max(abs(int(v)) for v in out.ravel()) <= eq1_norm_bound(self.SCHED, q)

    @pytest.mark.parametrize("q, list_type", LIST_TYPE_EDGES)
    def test_ternary_list_is_drawn_in_the_list_type(self, q, list_type):
        # drawn in _rounding_dtype(q) if that is int8 or int16, and in int16
        # for a wider one, so those share the int16 stream; then cast to the
        # list type of +-2^r
        X, _ = _initial_list(self.SCHED, 300, 7, q, 4)
        draw_type = list_type if list_type in (np.int8, np.int16) else np.int16
        want = derive_np_rng(4, "init-ternary-uniform").integers(
            -1, 2, size=(300, 7), dtype=draw_type)
        assert X.dtype == np.int8 and X.tolist() == want.tolist()

    @pytest.mark.parametrize("r, list_type", [(6, np.int8), (7, np.int16), (14, np.int16),
                                              (15, np.int32), (62, np.int64), (63, object)])
    def test_list_type_holds_two_to_the_r(self, r, list_type):
        # after stage i a row is a difference of 2^i ternary rows
        sched = Schedule(mode=MODE_NAIVE, r=r, N=1, p=(2,) * r, b=(1,) * r)
        X, _ = _initial_list(sched, 30, 3, 257, 0)
        assert _rounding_dtype(2 ** r) == X.dtype == list_type

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("shape", [(3, 5), (1000, 18), (97929, 18)])
    def test_ternary_list_is_the_bounded_integers_stream(self, seed, shape):
        # the list read from raw generator words is NumPy's bounded draw, in
        # int8 where q <= 127 and int16 otherwise; 97929 x 18 is the
        # benchmark's list, where about 27 zero chunks are dropped
        for q, draw_type in ((127, np.int8), (257, np.int16)):
            X, _ = _initial_list(self.SCHED, *shape, q, seed)
            want = derive_np_rng(seed, "init-ternary-uniform").integers(
                -1, 2, size=shape, dtype=draw_type)
            assert X.dtype == np.int8 and np.array_equal(X, want), (
                "Generator.integers(-1, 2) no longer reads w-bit chunks of "
                "the raw words as _uniform_ternary does")

    @pytest.mark.parametrize("width, count, zero_words", [(8, 60, 40), (16, 60, 40),
                                                          (16, 24000, 5)])
    def test_ternary_top_up_follows_the_chunk_map(self, width, count, zero_words):
        # zero words first, so the first batch falls short: by all of it
        # (dropped by a mask), or by a few chunks in a long batch (dropped
        # between runs); then both sides of each threshold t = floor(2^w / 3)
        spare = derive_np_rng(3, "words").integers(0, 2**64, count // 2 + 200, dtype=np.uint64)
        words = [0] * zero_words + [0x0000_1234_0000_FFFF, 0x5555_5556_AAAA_AAAB] + spare.tolist()

        class ScriptedWords:
            sizes = []

            def random_raw(self, size):
                at = sum(self.sizes)
                self.sizes.append(size)
                return np.array(words[at:at + size], dtype=np.uint64)

        bitgen, t = ScriptedWords(), (1 << width) // 3
        chunks = [w >> k & ((1 << width) - 1) for w in words for k in range(0, 64, width)]
        want = [(v > t) + (v > 2 * t) - 1 for v in chunks if v][:count]
        got = _uniform_ternary(bitgen, count, width)
        assert len(bitgen.sizes) >= 2 and sum(bitgen.sizes) <= len(words)
        assert got.dtype == np.int8 and got.tolist() == want


def _data_max(a) -> int:
    """max |a| over Python integers: 0 for an empty array."""
    return max(map(abs, np.ravel(a).tolist()), default=0)


class TestRunLoop:
    """The one run loop of every mode."""

    def _run(self, mode):
        if mode == MODE_NAIVE:
            inst = make_systematic(4, 12, 16, seed=3)
            sched = Schedule(mode=MODE_NAIVE, r=2, N=16, p=(8, 4), b=(2, 2))
            return naive_wagner(inst, sched, 3)
        # "early-abort": a heuristic run whose blocks leave a parity row over
        inst = make_systematic(3 if mode == "early-abort" else 2, 16, 5, seed=4)
        sched = Schedule(mode=MODE_HEURISTIC if mode == "early-abort" else mode, r=2, N=15,
                         p=(2, 2), b=(1, 1), s0_sq=Fraction(144))
        return gaussian_wagner(inst, sched, 5)

    @pytest.mark.parametrize("mode, reads", [
        (MODE_PROVABLE, 2), (MODE_HEURISTIC, 2), ("early-abort", 3), (MODE_NAIVE, 0)])
    def test_every_bound_passed_dominates_its_data(self, mode, reads, monkeypatch):
        # Every int_matmul and int_lincomb call of a run passes a bound proven
        # from how its operands were made, at least the bound the overflow
        # rule reads from the data (here over Python integers).  The data is
        # read once per Gaussian stage list and once for an early abort's
        # completion, and never by a rounding run.  Every sampler call, the
        # initial list's with center bound 0 among them, is passed a bound on
        # its centers and returns one on its draws, each at least the data's.
        matmul, lincomb, max_abs = zqlin.int_matmul, zqlin.int_lincomb, zqlin._max_abs
        draw = dgauss._draw_z_array
        calls, read, draws = [], [], []

        def spy_matmul(X, A, bound=None):
            calls.append(("matmul", bound, np.shape(X)[1] * _data_max(A) * _data_max(X)))
            return matmul(X, A, bound)

        def spy_lincomb(terms, bound=None):
            terms = list(terms)
            own = sum(abs(int(c)) * max(1, _data_max(a)) for c, a in terms)
            calls.append(("lincomb", bound, own))
            return lincomb(terms, bound)

        def spy_max_abs(X):
            read.append(X.shape)
            return max_abs(X)

        def spy_draw(s_sq, c_num, c_den, rng, exact_rng, c_bound):
            out, counts, bound = draw(s_sq, c_num, c_den, rng, exact_rng, c_bound)
            draws.append((c_bound, _data_max(c_num), bound, _data_max(out)))
            return out, counts, bound

        for module in (chain, wagner):
            monkeypatch.setattr(module, "int_matmul", spy_matmul)
        for module in (chain, wagner, dgauss):
            monkeypatch.setattr(module, "int_lincomb", spy_lincomb)
        for module in (zqlin, wagner):
            monkeypatch.setattr(module, "_max_abs", spy_max_abs)
        for module in (chain, wagner):
            monkeypatch.setattr(module, "_draw_z_array", spy_draw)
        self._run(mode)
        assert {name for name, _, _ in calls} == (
            {"matmul"} if mode == MODE_NAIVE else {"matmul", "lincomb"})
        assert all(bound is not None and bound >= own for _, bound, own in calls), calls
        assert len(read) == reads
        assert len(draws) == {MODE_PROVABLE: 3, MODE_NAIVE: 0}.get(mode, 2)
        assert all(c_bound >= c_own and bound >= own for c_bound, c_own, bound, own in draws)
        assert mode != MODE_PROVABLE or draws[0][:2] == (0, 0), draws

    @pytest.mark.parametrize("mode", [MODE_PROVABLE, MODE_HEURISTIC, MODE_NAIVE])
    def test_one_wall_time_per_list(self, mode):
        _, stats = self._run(mode)
        assert len(stats.list_sizes) == 3
        assert len(stats.stage_seconds) == len(stats.list_sizes) == len(stats.sampler)
        assert len(stats.bucket_histograms) == len(stats.list_sizes) - 1


class TestScheduleValidation:
    @pytest.mark.parametrize("mode, s0_sq", [
        (MODE_PROVABLE, None), (MODE_HEURISTIC, None), (MODE_PROVABLE, Fraction(0)),
        (MODE_HEURISTIC, Fraction(-9))])
    def test_gaussian_mode_needs_a_positive_width(self, mode, s0_sq):
        with pytest.raises(InfeasibleSchedule):
            Schedule(mode=mode, r=1, N=30, p=(2,), b=(2,), s0_sq=s0_sq)

    @pytest.mark.parametrize("field, value", [
        ("N", 2.5), ("N", True), ("r", 1.0), ("p", (2.0,)), ("b", ("2",))])
    def test_sizes_must_be_integers(self, field, value):
        args = {"mode": MODE_NAIVE, "r": 1, "N": 30, "p": (2,), "b": (2,), field: value}
        with pytest.raises(InfeasibleSchedule):
            Schedule(**args)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, 1.0, 2.0, math.inf, math.nan])
    def test_epsilon_must_lie_strictly_between_0_and_1(self, epsilon):
        with pytest.raises(InfeasibleSchedule):
            Schedule(mode=MODE_NAIVE, r=1, N=30, p=(2,), b=(2,), epsilon=epsilon)

    def test_valid_schedules(self):
        Schedule(mode=MODE_NAIVE, r=1, N=30, p=(2,), b=(2,))
        Schedule(mode=MODE_HEURISTIC, r=1, N=np.int64(30), p=(np.int64(2),), b=(2,),
                 s0_sq=Fraction(1, 9))


class TestChooseProvableParams:
    # ln(3/eps') = 14.96 <=> eps = 15 exp(-14.96)
    EPS = 15 * math.exp(-14.96)

    def test_iteration_count_and_moduli(self):
        sched = choose_provable_params(12, 24, 257, 4.0, self.EPS)
        assert sched.r == 2
        assert sched.p == (181, 128)

    def test_final_width_is_q_over_f(self):
        sched = choose_provable_params(12, 24, 257, 4.0, self.EPS)
        # s_r = sqrt(2^r) s0 = q/f exactly, as rationals
        assert sched.s0_sq * 2 ** sched.r == Fraction(257, 4) ** 2

    def test_block_sizes_and_bucket_bound(self):
        sched = choose_provable_params(12, 24, 257, 4.0, self.EPS)
        log2_n = math.log2(sched.N)
        assert sum(sched.b) == 12
        for pi, bi in zip(sched.p, sched.b):
            assert bi * math.log2(pi) <= log2_n + 1e-9

    def test_infeasible_when_n_too_small(self):
        with pytest.raises(InfeasibleSchedule):
            choose_provable_params(8, 16, 257, 4.0, self.EPS)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            choose_provable_params(12, 24, 256, 4.0, self.EPS)  # composite
        with pytest.raises(PreconditionViolated):
            choose_provable_params(12, 24, 257, 4.0, 1 / 12)  # eps > 1/m
        with pytest.raises(PreconditionViolated):
            choose_provable_params(12, 24, 257, 200.0, self.EPS)  # q/f too small
        with pytest.raises(PreconditionViolated):
            choose_provable_params(12, 12, 13, 2.0, 1e-9)  # q^(1-n/m) = 1

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_epsilon_must_be_positive(self, eps):
        with pytest.raises(PreconditionViolated, match="epsilon > 0"):
            choose_provable_params(12, 24, 257, 4.0, eps)

    def test_r_below_one_regime_fails_cleanly(self):
        # Parameters driving r below 1 also force the list-size denominator
        # negative ((q/f)^2 < c while the denominator needs (q/f)^2 > e c),
        # so the r+10 bump never reaches a runnable schedule: expect a clean
        # infeasibility, not a crash.
        eps = 1e-12
        with pytest.raises((InfeasibleSchedule, PreconditionViolated)):
            choose_provable_params(40, 80, 10007, 10007 / 6.0, eps)


class TestChooseNaiveParams:
    def test_iteration_count(self):
        sched = choose_naive_params(512, 2**20, 2**5)
        assert sched.r == 14

    def test_list_size(self):
        sched = choose_naive_params(512, 2**20, 2**5)
        expect = 512 / (math.log(math.log(2**20)) - math.log(math.log(2**5)))
        assert math.log2(sched.N) == pytest.approx(expect, abs=0.1)

    def test_moduli_halving(self):
        sched = choose_naive_params(512, 2**20, 2**5)
        assert sched.p[0] == 2**19 and sched.p[1] == 2**18

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            choose_naive_params(16, 64, 64.0)
        with pytest.raises(PreconditionViolated):
            choose_naive_params(16, 64, 0.5)


@pytest.mark.parametrize("f", [math.nan, math.inf, 0.0, -1.0, 1e-300])
def test_unusable_norm_factor_is_a_typed_error(f):
    # a non-finite or non-positive f is named before any arithmetic; a tiny
    # one leaves the provable chooser's log-log term undefined
    usable = math.isfinite(f) and f > 0
    with pytest.raises(PreconditionViolated, match="f > 1" if usable else "finite and > 0"):
        choose_naive_params(12, 257, f)
    with pytest.raises(InfeasibleSchedule if usable else PreconditionViolated,
                       match="log-log denominator" if usable else "finite and > 0"):
        choose_provable_params(16, 64, 12289, f, 1e-3)


class TestHeuristicSchedule:
    def test_covers_rows_and_runs(self):
        sched = choose_heuristic_params(8, 20, 257, 64.25)
        assert sched.mode == MODE_HEURISTIC
        assert sum(sched.b) <= 8
        inst = make_systematic(8, 20, 257, seed=1)
        out, stats = gaussian_wagner(inst, sched, 3)
        A = np.asarray(inst.A)
        assert out.shape[1] == 20
        assert not np.any(np.mod(out @ A.T, 257))

    @pytest.mark.parametrize("q", [2147483647, 2147483659])
    def test_curation_on_int64_and_object_lists(self, q):
        # q = 2^31 - 1 keeps int64 lists; the prime just above 2^31 makes the
        # lists object arrays, which must be curated all the same.
        inst, _ = systematic_form(random_instance(2, 12, q, seed=1))
        sched = Schedule(mode=MODE_HEURISTIC, r=1, N=64, p=(4,), b=(1,),
                         s0_sq=Fraction(4))
        out, stats = gaussian_wagner(inst, sched, 3)
        rows = [tuple(int(v) for v in row) for row in out]
        assert rows and len(rows) == stats.list_sizes[-1]
        assert all(any(row) for row in rows)
        assert len(set(rows)) == len(rows)

    def test_infeasible_when_no_margin(self):
        with pytest.raises(InfeasibleSchedule):
            choose_heuristic_params(8, 9, 7, 3.0)  # m - n = 1: no rung is feasible


_INT64_EDGES = [0, 1, -1, 2, -2, (1 << 63) - 1, -(1 << 63) + 1, -(1 << 63)]


class TestCurate:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(cols=st.integers(1, 5), wide=st.booleans(), data=st.data())
    def test_matches_sorted_unique_nonzero_rows(self, cols, wide, data):
        # int64 rows at the ends of the range, or object rows past 2^63;
        # rows drawn from a small pool, so duplicates and zero rows are common
        entry = st.one_of(st.sampled_from(_INT64_EDGES),
                          st.integers(-(1 << 63), (1 << 63) - 1))
        if wide:
            entry = st.one_of(entry, st.sampled_from([1 << 63, -(1 << 64), 1 << 70]))
        row = st.lists(entry, min_size=cols, max_size=cols)
        pool = data.draw(st.lists(row, min_size=1, max_size=6))
        rows = data.draw(st.lists(st.sampled_from(pool + [[0] * cols]), max_size=40))
        out = np.array(rows, dtype=object if wide else np.int64).reshape(len(rows), cols)
        got = _curate(out)
        assert got.dtype == out.dtype
        assert [tuple(r) for r in got.tolist()] == sorted({tuple(r) for r in rows if any(r)})


class TestCertifySmoothing:
    def test_width_past_the_float_range(self):
        # s^2 = 2^1100 does not fit in a float; its root does
        inst = make_systematic(1, 3, 3, seed=2)
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=10, p=(3,), b=(1,),
                         s0_sq=Fraction(2) ** 1100)
        try:
            report = certify_smoothing(inst, sched)
        except WagnerSisError:
            return
        assert report[1]["width"] == 2.0 ** 550

    def test_exact_at_the_requirement(self):
        # s^2 = 2 max(eta)^2 passes; one part in 10^12 below it fails.  At
        # this epsilon, sqrt(float(s^2)) < sqrt(2) max(eta) in floats.
        inst = make_systematic(1, 3, 3, seed=2)

        def schedule(s0_sq):
            return Schedule(mode=MODE_PROVABLE, r=1, N=10, p=(3,), b=(1,),
                            s0_sq=s0_sq, epsilon=2.0**-12)

        first = certify_smoothing(inst, schedule(Fraction(25)))[1]
        need_sq = 2 * Fraction(max(first["eta_block"], first["eta_prev"])) ** 2
        assert set(certify_smoothing(inst, schedule(need_sq))) == {1}
        with pytest.raises(PreconditionViolated):
            certify_smoothing(inst, schedule(need_sq * (1 - Fraction(1, 10**12))))

    def test_second_stage_certifies_the_qary_lattice(self, monkeypatch):
        # Stage 2 smooths over the q-ary lattice of stage 1's parity row
        # [a_prev | 1], brute-forced: s0^2 = 9 certifies both stages, where
        # stage 2 requires sqrt(2) eta_prev = 4.082 from the q-ary eta_prev
        # = 2.886; s0^2 = 7 passes stage 1 and fails stage 2.
        inst = SisInstance.create([[1, 2, 1, 0], [2, 1, 0, 1]], 3)
        eps, calls, qary = 2.0**-10, [], wagner.eta_qary_bruteforce

        def spy(A, q, epsilon):
            calls.append((np.asarray(A).tolist(), q, epsilon))
            return qary(A, q, epsilon)

        def schedule(s0_sq):
            return Schedule(mode=MODE_PROVABLE, r=2, N=10, p=(3, 3), b=(1, 1),
                            s0_sq=Fraction(s0_sq), epsilon=eps)

        monkeypatch.setattr(wagner, "eta_qary_bruteforce", spy)
        report = certify_smoothing(inst, schedule(9))
        assert set(report) == {1, 2} and calls == [([[1, 2, 1]], 3, eps / 3)]
        assert report[2]["eta_prev"] == qary(np.array([[1, 2, 1]]), 3, eps / 3)
        assert report[2]["eta_prev"] > report[2]["eta_block"]
        assert report[2]["required"] == pytest.approx(4.0818, abs=1e-4)
        with pytest.raises(PreconditionViolated,
                           match=r"stage 2: width 3\.742 < sqrt\(2\) max\(eta\) = 4\.082"):
            certify_smoothing(inst, schedule(7))

    def test_passes_on_wide_run(self):
        inst = make_systematic(1, 3, 3, seed=2)
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=10, p=(3,), b=(1,),
                         s0_sq=Fraction(25), epsilon=2.0**-10)
        report = certify_smoothing(inst, sched)
        assert set(report) == {1}
        assert report[1]["width"] >= report[1]["required"]

    def test_fails_on_narrow_run(self):
        inst = make_systematic(1, 3, 3, seed=2)
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=10, p=(3,), b=(1,),
                         s0_sq=Fraction(2), epsilon=2.0**-10)
        with pytest.raises(PreconditionViolated):
            certify_smoothing(inst, sched)

    def test_refuses_a_naive_schedule(self):
        inst = make_systematic(1, 3, 3, seed=2)
        with pytest.raises(InfeasibleSchedule):
            certify_smoothing(inst, Schedule(mode=MODE_NAIVE, r=1, N=10, p=(3,), b=(1,)))
