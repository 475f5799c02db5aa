import hashlib
import json
import math
from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_systematic, staged
from wagnersis.chain import build_chain
from wagnersis.errors import (
    BlockSumMismatch,
    BudgetExceeded,
    InfeasibleSchedule,
    InsufficientInputs,
    NotInLattice,
    PreconditionViolated,
    WagnerSisError,
    WidthTooSmall,
)
from wagnersis.rngutil import derive_np_rng
from wagnersis.wagner import (
    MODE_HEURISTIC,
    MODE_NAIVE,
    MODE_PROVABLE,
    Schedule,
    _buckets,
    _center_in_place,
    _check_final_membership,
    _gaussian_offsets,
    _occupancy_histogram,
    _round_scaled,
    bucket_and_combine,
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
    """Short lists over a small alphabet, as small ints or as ints >= 2^63."""
    alphabet = draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(0, alphabet - 1), max_size=40))
    offset = draw(st.sampled_from([0, 1 << 63, 1 << 80]))
    return [offset + v for v in labels]


def _prime_near(start, step):
    while not is_probable_prime(start):
        start += step
    return start


# primes just below and just above 2^31, 2^62 and 2^63, and 2^64 + 13
NAIVE_LADDER = [_prime_near(2**k + d, d) for k in (31, 62, 63) for d in (-1, 1)] + [2**64 + 13]


def reachable_differences(draw, q):
    """Two entries of one kind and their difference: centered residues,
    residues in [0, q), or ternary entries."""
    kind = draw(st.sampled_from(["centered", "residue", "ternary"]))
    lo, hi = {"centered": (-((q - 1) // 2), q // 2), "residue": (0, q - 1),
              "ternary": (-1, 1)}[kind]
    return draw(st.integers(lo, hi)) - draw(st.integers(lo, hi))


class TestCenterInPlace:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_centered(self, data):
        q = data.draw(st.one_of(
            st.sampled_from([2, 3]), st.integers(4, 10**6),
            st.integers(2**62 - 1000, 2**62 + 1000), st.integers(2**63 - 1000, 2**63 - 1),
            st.integers(2**63, 2**80)))
        half = q // 2
        # the step's edges, each a difference of two residues in [0, q)
        edges = [d for d in (half, half + 1, half - q, half - q + 1) if abs(d) < q]
        diffs = edges + [reachable_differences(data.draw, q)
                         for _ in range(data.draw(st.integers(1, 8)))]
        as_object = q >= 2**63 or data.draw(st.booleans())
        D = np.array(diffs, dtype=object if as_object else np.int64).reshape(-1, 1)
        _center_in_place(D, q)
        assert D.dtype == (object if as_object else np.int64)
        assert D.ravel().tolist() == [centered(d, q) for d in diffs]


class TestPairing:
    def test_hand_trace_even_odd(self):
        # Values 0..5 bucketed mod 2: pairs (0,2) and (1,3), both differencing
        # to -2, and exactly floor(6/3) = 2 outputs.
        labels = [v % 2 for v in range(6)]
        pairs = pair_indices_disjoint(_buckets(labels), 2)
        assert pairs.tolist() == [[0, 2], [1, 3]]
        values = list(range(6))
        diffs = [values[i] - values[j] for i, j in pairs]
        assert diffs == [-2, -2]

    def test_disjoint_never_reuses(self):
        rng = derive_np_rng(0, "pairs")
        for _ in range(50):
            labels = [int(v) for v in rng.integers(0, 4, size=30)]
            pairs = pair_indices_disjoint(_buckets(labels), len(labels) // 3)
            used = [i for pr in pairs for i in pr]
            assert len(used) == len(set(used))
            for i, j in pairs:
                assert labels[i] == labels[j] and i < j

    def test_reuse_first_occurrence_order(self):
        labels = [7, 1, 7, 7, 1]
        pairs = pair_indices_reuse(_buckets(labels), 10)
        assert pairs.tolist() == [[0, 2], [0, 3], [2, 3], [1, 4]]

    def test_reuse_cap(self):
        labels = [0] * 10
        assert len(pair_indices_reuse(_buckets(labels), 7)) == 7

    def test_reuse_cap_zero_gives_no_pairs(self):
        assert pair_indices_reuse(_buckets([7, 7]), 0).shape == (0, 2)
        assert pair_indices_disjoint(_buckets([7, 7]), 0).shape == (0, 2)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(labels=label_lists(), data=st.data())
    def test_matches_reference_walks(self, labels, data):
        cap = data.draw(st.integers(0, len(labels) + 1))
        # as a list, or as the int64 or object array that _pack_labels returns
        as_given = int_array(labels) if data.draw(st.booleans()) else labels
        for pairs, expect in ((pair_indices_disjoint(_buckets(as_given), cap), disjoint_walk(labels, cap)),
                              (pair_indices_disjoint(_buckets(as_given), None), disjoint_walk(labels, None)),
                              (pair_indices_reuse(_buckets(as_given), cap), reuse_walk(labels, cap))):
            assert pairs.dtype == np.int64 and pairs.shape == (len(expect), 2)
            assert [tuple(p) for p in pairs.tolist()] == expect
        assert _occupancy_histogram(_buckets(as_given)) == histogram_count(labels)

    @pytest.mark.parametrize("bound, top, narrow", [(2**16, 2**16 - 1, True),
                                                    (2**16 + 1, 2**16, False)])
    def test_key_width_edge(self, bound, top, narrow, monkeypatch):
        # labels below p^b <= 2^16 sort as uint16 keys; one more and 2^16
        # would wrap onto 0, so the sort must stay wide
        labels = [top, 0, 5, top, 0, top, 5, 0]
        sorted_dtypes = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            sorted_dtypes.append(np.asarray(a).dtype)
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        grouping = _buckets(int_array(labels), bound)
        monkeypatch.undo()
        assert (sorted_dtypes[0] == np.uint16) == narrow
        for got, want in zip(grouping, _buckets(labels)):
            assert got.tolist() == want.tolist()
        assert [tuple(p) for p in pair_indices_disjoint(grouping, None).tolist()] == \
            disjoint_walk(labels, None)
        assert _occupancy_histogram(grouping) == [(2, 1), (3, 2)]


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
        svs = [staged(st, (0, 0, 0, 0), (v,)) for v in range(6)]
        out = bucket_and_combine(st, svs, out_cap=2)
        assert len(out) == 2
        tails = [v[4] for v in out]
        assert tails == [-5, -5]  # (q/p) dk = (5/2) * (-2)

    def test_reuse_cap_zero_gives_no_outputs(self):
        st = self._stage()
        svs = [staged(st, (0, 0, 0, 0), (1, 1)) for _ in range(2)]
        assert bucket_and_combine(st, svs, out_cap=0, reuse=True) == []
        assert len(bucket_and_combine(st, svs, out_cap=1, reuse=True)) == 1

    def test_insufficient_inputs(self):
        st = self._stage()
        svs = [staged(st, (0, 0, 0, 0), (v, v)) for v in range(3 * 4 - 1)]
        with pytest.raises(InsufficientInputs):
            bucket_and_combine(st, svs, out_cap=3)

    def test_pigeonhole_exact_output_count(self):
        # With N >= 3 p^b inputs the output is always exactly floor(N/3).
        st = self._stage()
        rng = derive_np_rng(1, "pigeon")
        for trial in range(1000):
            n_in = int(rng.integers(12, 60))
            ks = rng.integers(-8, 9, size=(n_in, 2))
            svs = [staged(st, (0, 0, 0, 0), tuple(int(v) for v in row))
                   for row in ks]
            out = bucket_and_combine(st, svs, out_cap=n_in // 3)
            assert len(out) == n_in // 3

    def test_outputs_in_stage_lattice(self):
        st = self._stage()
        rng = derive_np_rng(2)
        svs = [staged(st, tuple(int(v) for v in rng.integers(-2, 3, 4)),
                             tuple(int(v) for v in rng.integers(-4, 5, 2)))
               for _ in range(30)]
        a_stage = np.hstack([np.asarray(st.a_new), np.eye(2, dtype=np.int64)])
        for v in bucket_and_combine(st, svs, out_cap=10):
            assert not any(int(t) for t in matvec_mod(a_stage, list(v), st.q))


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
            gaussian_wagner(inst, sched, 0, mem_budget_bytes=1 << 20)

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
        # sha256 of the output rows, computed when the sampler's window
        # became K = max(2, ceil(0.75 s)) and its tail steps exact inversions
        inst, _ = systematic_form(random_instance(2, 8, 5, seed=4))
        sched = Schedule(mode=MODE_PROVABLE, r=2, N=15, p=(2, 2), b=(1, 1),
                         s0_sq=Fraction(144))
        out, stats = gaussian_wagner(inst, sched, 5)
        assert stats.list_sizes == [135, 45, 15]
        assert hashlib.sha256(json.dumps(out.tolist()).encode()).hexdigest() == \
            "5233206cbf419b21599195e2bb44521c465a7643ff8bc752f055338bc4b576d9"

    def test_stage_tail_beyond_int64_products(self):
        # q (dk / p) with q = 2^61 - 1 overflows int64; the tail must be
        # formed over Python integers and every output must be in the lattice.
        q = 2**61 - 1
        inst, _ = systematic_form(random_instance(2, 6, q, seed=1))
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=12, p=(2,), b=(2,),
                         s0_sq=Fraction(q // 2) ** 2)
        out, stats = gaussian_wagner(inst, sched, 5)
        assert len(out) == 12 and stats.list_sizes == [36, 12]
        _check_final_membership(inst, out)

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
        K, counts = _gaussian_offsets(stage, Y, Fraction(4 * q * q, p * p), ("stage", 1), 3)
        assert K.dtype == np.int64 and counts.draws == 4
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
        K, counts = _gaussian_offsets(stage, Y, Fraction(4 * q * q, p * p), ("stage", 1), 3)
        assert K.dtype == object and counts.draws == 3
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
        _check_final_membership(inst, out)

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
        out, _ = gaussian_wagner(inst, sched, 42)
        _check_final_membership(inst, out)
        bad = out.copy()
        bad[3, 0] += 1
        for rows in (bad, bad.astype(object)):
            with pytest.raises(NotInLattice):
                _check_final_membership(inst, rows)


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
        # before pairing moved from dict walks to one stable sort per stage
        inst, sched, out, stats = self._run(3)
        doc = stats.as_dict()
        del doc["stage_seconds"]
        assert doc["list_sizes"] == [144, 55, 24]
        assert hashlib.sha256(json.dumps([out.tolist(), doc]).encode()).hexdigest() == \
            "7aa9f47a044c23c73a39b9d6fb8e6088cf0134c147879348cea9cad676394e52"

    def test_workload_shape_pinned(self):
        # sha256 of a run at the benchmark's naive shape (12 x 30 mod 257,
        # choose_naive_params(12, 257, 4.0)), computed before the stage kernel
        # moved to narrow sort keys, one grouping and in-place centering
        inst, _ = systematic_form(random_instance(12, 30, 257, seed=1))
        out, stats = naive_wagner(inst, choose_naive_params(12, 257, 4.0), 7)
        doc = stats.as_dict()
        del doc["stage_seconds"]
        assert doc["list_sizes"] == [97929, 48930, 24452, 12218, 6039, 9]
        assert hashlib.sha256(json.dumps([out.tolist(), doc]).encode()).hexdigest() == \
            "93b7653e71caf686855ec211014ffa28ebac8be08cc7a22da28393f602750492"

    def test_rounding_label_beyond_int64(self):
        # 2 p y + q = 2^79 / 3 + 2^40 for q = 2^40, p = 2^39, y = q // 3
        q, p = 2**40, 2**39
        Y = np.array([[q // 3]], dtype=np.int64)
        assert _round_scaled(Y, p, q)[0, 0] % p == 183251937963

    def test_int64_instance_buckets_by_exact_labels(self):
        # An int64 matrix at q = 2^40: the completions y = a and q - a of
        # x = -1 and x = 1 have distinct labels 2^22 and 2^39 - 2^22, and
        # must not be paired (their difference has norm 2^24).
        q = 2**40
        inst = SisInstance(n=1, m=2, q=q, A=np.array([[2**23, 1]], dtype=np.int64))
        sched = Schedule(mode=MODE_NAIVE, r=1, N=8, p=(2**39,), b=(1,))
        out, stats = naive_wagner(inst, sched, 0)
        _check_final_membership(inst, out)
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
        _check_final_membership(inst, out)

    def test_mode_check(self):
        inst = make_systematic(4, 12, 16, seed=0)
        sched = Schedule(mode=MODE_PROVABLE, r=1, N=12, p=(2,), b=(4,),
                         s0_sq=Fraction(64))
        with pytest.raises(InfeasibleSchedule):
            naive_wagner(inst, sched, 0)


class TestRunLoop:
    """The one run loop of every mode."""

    def _run(self, mode):
        if mode == MODE_NAIVE:
            inst = make_systematic(4, 12, 16, seed=3)
            sched = Schedule(mode=MODE_NAIVE, r=2, N=16, p=(8, 4), b=(2, 2))
            return naive_wagner(inst, sched, 3)
        inst = make_systematic(2, 16, 5, seed=4)
        sched = Schedule(mode=mode, r=2, N=15, p=(2, 2), b=(1, 1),
                         s0_sq=Fraction(144))
        return gaussian_wagner(inst, sched, 5)

    @pytest.mark.parametrize("mode", [MODE_PROVABLE, MODE_HEURISTIC, MODE_NAIVE])
    def test_one_wall_time_per_list(self, mode):
        _, stats = self._run(mode)
        assert len(stats.list_sizes) == 3
        assert len(stats.stage_seconds) == len(stats.list_sizes) == len(stats.sampler)
        assert len(stats.bucket_histograms) == len(stats.list_sizes) - 1


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
            choose_heuristic_params(8, 9, 7, 3.0, max_log2_n=8)


class TestCertifySmoothing:
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
