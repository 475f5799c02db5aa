import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import gaussian_combine, make_systematic, parity_rows_ok, stage_rows_ok
from wagnersis.chain import _gaussian_offsets, _lift_batch, build_chain
from wagnersis.dgauss import GaussParam, sample_zn_rows
from wagnersis.errors import BlockSumMismatch, WidthTooSmall
from wagnersis.estimator import CostQuery, heuristic_schedule
from wagnersis.oracles import empirical_similarity, pmf_bruteforce
from wagnersis.rngutil import derive_np_rng, derive_rng
from wagnersis.wagner import _pack_labels
from wagnersis.zqlin import SisInstance, _max_abs, matvec_mod


class TestBuildChain:
    def test_two_stages(self):
        inst = make_systematic(4, 10, 7, seed=0)
        stages = build_chain(inst, [2, 2], [3, 2])
        assert [s.kappa for s in stages] == [2, 4]
        assert stages[0].kappa_prev == 0 and stages[1].kappa_prev == 2
        assert stages[1].a_prev.shape == (2, 6)

    def test_block_sum_mismatch(self):
        inst = make_systematic(4, 10, 7, seed=0)
        with pytest.raises(BlockSumMismatch):
            build_chain(inst, [3, 2], [3, 2])

    def test_requires_systematic(self):
        inst = SisInstance.create([[0, 1], [1, 0]], 7)
        with pytest.raises(BlockSumMismatch):
            build_chain(inst, [2], [2])

    def test_dilithium_level2_heuristic_chain(self):
        # Integerize the fractional table-driven schedule by largest remainder
        # and realize it as an actual chain: 40 stages covering n - 29 rows.
        q = CostQuery(n=1024, m=2304, q=8380417, beta=350209)
        table = heuristic_schedule(q, 269.9)
        rp = 40
        fracs = table.b[:rp]
        target = round(sum(fracs))
        base = [int(x) for x in fracs]
        rem = sorted(range(rp), key=lambda i: fracs[i] - base[i], reverse=True)
        for i in rem[: target - sum(base)]:
            base[i] += 1
        base = [max(1, v) for v in base]
        moduli = [min(8380417, max(2, int(p))) for p in table.p[:rp]]
        inst = make_systematic(1024, 2304, 8380417, seed=1)
        stages = build_chain(inst, base, moduli, allow_partial=True)
        assert len(stages) == rp
        assert stages[-1].kappa == target == 1024 - 29


class TestLiftInteger:
    def test_zero_maps_to_zero(self):
        inst = make_systematic(2, 5, 11, seed=2)
        st = build_chain(inst, [1, 1], [3, 2])[0]
        assert _lift_batch(st, np.zeros((1, 3), dtype=np.int64), 0).tolist() == [[0]]

    def test_hand_example(self):
        # New parity row (1, 1) mod 5 and x_top = (1, 2): y = -3 exactly,
        # and A (1, 2, -3) = 1 + 2 - 3 = 0.
        inst = SisInstance.create([[1, 1, 1]], 5)
        st = build_chain(inst, [1], [2])[0]
        X = np.array([[1, 2]])
        Y = _lift_batch(st, X, 2)
        assert Y.tolist() == [[-3]]
        assert stage_rows_ok(st, X, Y, np.zeros((1, 1), dtype=np.int64))
        assert not any(matvec_mod(inst.A, [1, 2, -3], 5))

    def test_oracle_flags_broken_rows(self):
        # a head off the first parity row, and a lift off -A'_new x_top
        inst = make_systematic(2, 5, 11, seed=3)
        st2 = build_chain(inst, [1, 1], [3, 2])[1]
        top_syn = int(matvec_mod(st2.a_prev, [1, 0, 0], 11)[0])
        good = np.array([[1, 0, 0, -top_syn]])
        K = np.zeros((1, 1), dtype=np.int64)
        assert stage_rows_ok(st2, good, _lift_batch(st2, good, 11), K)
        bad = good + [[0, 0, 0, 1]]
        assert not stage_rows_ok(st2, bad, _lift_batch(st2, bad, 11), K)
        assert not stage_rows_ok(st2, good, _lift_batch(st2, good, 11) + 1, K)

    def test_unreduced_integers(self):
        inst = SisInstance.create([[4, 4, 1]], 5)
        st = build_chain(inst, [1], [2])[0]
        assert _lift_batch(st, np.array([[10**6, 10**6]]), 10**6).tolist() == [[-8 * 10**6]]


def _offsets(st, X, s_sq, seed):
    """The lifts of the rows of X and their Gaussian offsets at width^2
    ``s_sq``, on the run loop's stream path for the stage, under the bounds
    a stage passes: max|X|, read once, and the lift's bound from it."""
    x_bound = _max_abs(X)
    Y = _lift_batch(st, X, x_bound)
    K, _, k_bound = _gaussian_offsets(st, Y, Fraction(s_sq), ("stage", st.index), seed,
                                      st.lift_bound(x_bound))
    assert _max_abs(K) <= k_bound
    return Y, K


class TestDGLift:
    def test_width_too_small(self):
        inst = make_systematic(2, 6, 5, seed=4)
        st = build_chain(inst, [2], [2])[0]  # needs s >= 2.5 sqrt(ln 8 / pi)
        with pytest.raises(WidthTooSmall):
            _offsets(st, np.zeros((1, 4), dtype=np.int64), 1, derive_rng(1).getrandbits(63))

    def test_scaled_coset_structure_and_label_pmf(self):
        # b=1, q=4, p=2: with y_last = 1 the tail numerator is 2 + 4k, and
        # label frequencies must match the exact pmf of k mod 2.
        inst = SisInstance.create(
            np.hstack([np.array([[1, 1], [3, 1]]), np.eye(2, dtype=np.int64)]), 4)
        st = build_chain(inst, [1, 1], [2, 2])[0]
        x = (-1, 0)  # first parity row (1, 1): y_last = 1
        rng = derive_rng(9, "label")
        s = 8
        Y, K = _offsets(st, np.array([x]), s * s, rng.getrandbits(63))
        assert Y.tolist() == [[1]] and stage_rows_ok(st, np.array([x]), Y, K)
        # 20k lifts of x in one call
        X = np.tile(x, (20_000, 1))
        Y, K = _offsets(st, X, s * s, rng.getrandbits(63))
        assert stage_rows_ok(st, X, Y, K)
        tail = st.p * Y + st.q * K
        assert np.all(tail % 2 == 0) and np.all((tail // 2) % 2 == 1)
        labels = _pack_labels(K, st.p).tolist()
        ks, p_k = pmf_bruteforce(
            lambda R, c: [(float(k),) for k in range(-60, 61)],
            GaussParam.make(s_sq=Fraction(s) ** 2 * Fraction(1, 4), c=Fraction(-1, 2)),
            radius=60)
        p_even = float(p_k[ks[:, 0] % 2 == 0].sum())
        frac_even = labels.count(0) / len(labels)
        se = math.sqrt(p_even * (1 - p_even) / len(labels))
        assert abs(frac_even - p_even) < 4 * se

    def test_same_label_difference_in_lattice(self):
        inst = make_systematic(2, 6, 5, seed=6)
        st = build_chain(inst, [2], [2])[0]
        X = derive_np_rng(10, "x").integers(-2, 3, size=(200, 4))
        Y, K = _offsets(st, X, 64, derive_rng(10, "difflat").getrandbits(63))
        assert stage_rows_ok(st, X, Y, K)
        out, _ = gaussian_combine(st, X, Y, K, None, reuse=False)
        assert parity_rows_ok(st.a_new, st.q, out)
        assert len(out) > 20

    def test_staged_vector_invariants(self):
        inst = make_systematic(2, 6, 7, seed=14)
        st = build_chain(inst, [2], [3])[0]
        X = np.tile((1, -1, 0, 2), (30, 1))
        Y, K = _offsets(st, X, 64, derive_rng(15).getrandbits(63))
        assert stage_rows_ok(st, X, Y, K)
        tail = st.p * Y + st.q * K
        assert np.all(tail % st.q == (st.p * Y) % st.q)

    def test_label_reduction(self):
        inst = make_systematic(1, 4, 7, seed=17)
        st = build_chain(inst, [1], [3])[0]
        X = np.zeros((2, 3), dtype=np.int64)
        Y = _lift_batch(st, X, 0)
        for K in (np.array([[0], [-4]]), np.array([[0], [-4]], dtype=object)):
            assert stage_rows_ok(st, X, Y, K)
            assert _pack_labels(K, st.p).tolist() == [0, 2]  # -4 mod 3

    def test_all_labels_realized(self):
        inst = make_systematic(2, 6, 5, seed=16)
        st = build_chain(inst, [2], [2])[0]
        X = np.tile((1, 0, 0, 0), (16, 1))
        Y = _lift_batch(st, X, 1)
        K = np.array([(k0, k1) for k0 in range(-2, 2) for k1 in range(-2, 2)])
        # the offsets read back from the scaled tails p y + q k
        tail = st.p * Y + st.q * K
        assert not np.any((tail - st.p * Y) % st.q)
        labels = _pack_labels((tail - st.p * Y) // st.q, st.p).tolist()
        assert len(set(labels)) == st.p ** st.b  # every coset class is hit


@pytest.mark.slow
class TestDGLiftDistribution:
    def test_output_matches_superlattice_gaussian(self):
        # Tiny instance n=2, m=4, q=5, p=2; inputs from D_{Z^2, s}; outputs
        # must match the brute-force Gaussian over the stage superlattice.
        q, p, s = 5, 2, 6.0
        inst = make_systematic(2, 4, q, seed=20)
        st = build_chain(inst, [2], [p])[0]
        a_new = np.asarray(st.a_new)
        rng = derive_rng(21, "dist")
        param0 = GaussParam.make(s=s, c=0)
        n_draws = 1_000_000
        # heads x ~ D_{Z^2, s}, then the Gaussian lift of all of them in one call;
        # a point is keyed by the exact integers (x1, x2, p y1 + q k1, p y2 + q k2)
        X = sample_zn_rows(param0, 2, n_draws, rng)
        Y, K = _offsets(st, X, Fraction(s) ** 2, rng.getrandbits(63))
        samples = np.hstack([X, p * Y + q * K])

        # Enumerate the superlattice box of half-width 6s: points
        # (z, -A'z + (q/p) k), scaled tails p (-A'z) + q k.
        R = 6 * s
        zr = np.arange(-math.ceil(R), math.ceil(R) + 1)
        Z = np.stack(np.meshgrid(zr, zr, indexing="ij"), axis=-1).reshape(-1, 2)
        base = -(Z @ a_new.T)
        ratio = q / p
        lo = np.ceil((-R - base) / ratio).astype(np.int64)
        hi = np.floor((R - base) / ratio).astype(np.int64)
        kmax = int((hi - lo).max()) + 1
        k1, k2 = np.meshgrid(np.arange(kmax), np.arange(kmax), indexing="ij")
        k1, k2 = k1.ravel(), k2.ravel()
        rows = np.repeat(np.arange(len(Z)), len(k1))
        k = np.stack([np.tile(k1, len(Z)), np.tile(k2, len(Z))], axis=1) + lo[rows]
        inside = np.all(k <= hi[rows], axis=1)
        rows, k = rows[inside], k[inside]
        pts = np.hstack([Z[rows], p * base[rows] + q * k])
        w = np.exp(-math.pi * ((pts[:, :2] ** 2).sum(axis=1)
                               + ((pts[:, 2:] / p) ** 2).sum(axis=1)) / (s * s))
        res = empirical_similarity(samples, (pts, w / w.sum()))
        # DGLift adds at most 3 eps with eps the exact dual mass of the scaled
        # block lattice at this width: eps = theta(s p / q)^b - 1.
        theta = 1.0 + 2.0 * sum(math.exp(-math.pi * (s * p / q) ** 2 * k * k)
                                for k in range(1, 30))
        eps = theta ** 2 - 1.0
        assert eps < 1e-6
        assert res.excess(4.5) <= 3 * eps + 1e-9
        assert res.chi2_p > 1e-4
