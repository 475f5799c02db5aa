import math
from fractions import Fraction

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wagnersis import dgauss
from wagnersis.dgauss import (
    GaussParam,
    _decide_exact,
    _draw_z_array,
    _exp_neg_pi_interval,
    _LazyUniform,
    _split_centers,
    _width_floor_sq,
    _ZSampler,
    empirical_similarity,
    enum_coset_z,
    enum_scaled_zn,
    enum_z,
    eta_qary_bound,
    eta_scaled_zn_bruteforce,
    eta_zn_bound,
    eta_zn_bruteforce,
    lambda1_inf_lower_bound,
    min_entropy_bound,
    pmf_bruteforce,
    rho_bruteforce,
    sample_z,
    sample_zn,
    sample_zn_rows,
    tail_bound_linf,
)
from wagnersis.errors import InsufficientSamples, PreconditionViolated, WidthTooSmall
from wagnersis.rngutil import derive_np_rng, derive_rng
from wagnersis.zqlin import int_array


class TestExactMachinery:
    @pytest.mark.parametrize("a", [Fraction(1, 7), Fraction(3, 2), Fraction(25, 4),
                                   Fraction(0), Fraction(41)])
    def test_exp_interval_encloses_float(self, a):
        lo, hi = _exp_neg_pi_interval(a, 96)
        ref = math.exp(-math.pi * float(a))
        assert float(lo) <= ref * (1 + 1e-12) and ref * (1 - 1e-12) <= float(hi)
        assert hi - lo < Fraction(1, 1 << 60)

    def test_decide_exact_matches_float_far_from_boundary(self):
        rng = derive_rng(0, "decide")
        for num, den in ((1, 4), (2, 3), (7, 8)):
            a = Fraction(num, den)
            p = math.exp(-math.pi * float(a))
            for u in (p / 2, p * 0.9, min(0.999, p * 1.1), min(0.999, p * 2)):
                lu = _LazyUniform(int(u * (1 << 53)), 53)
                got = _decide_exact(Fraction(1), a, lu, rng)
                assert got == (u < p)


class TestSampleZ:
    def test_width_too_small(self):
        with pytest.raises(WidthTooSmall):
            sample_z(GaussParam.make(s=0.1), derive_rng(0))

    def test_weight_ratio_zero_one(self):
        # Pr[0]/Pr[1] for D_{Z,2} equals e^{pi/4} by definition of the weights.
        pmf = pmf_bruteforce(enum_z(), GaussParam.make(s=2, c=0), radius=60)
        assert pmf[0] / pmf[1] == pytest.approx(math.exp(math.pi / 4), rel=1e-12)

    def test_pmf_agreement(self):
        param = GaussParam.make(s=2, c=0.3)
        rng = derive_rng(42, "pmf")
        n = 150_000
        draws = sample_zn_rows(param, 1, n, rng)[:, 0].tolist()
        pmf = pmf_bruteforce(enum_z(), param, radius=40)
        res = empirical_similarity(draws, pmf)
        assert res.chi2_p >= 1e-3
        assert res.excess(4.5) <= 0.0

    def test_symmetry_at_zero_center(self):
        param = GaussParam.make(s=3, c=0)
        rng = derive_rng(7, "sym")
        n = 100_000
        values, freq = np.unique(sample_zn_rows(param, 1, n, rng), return_counts=True)
        counts = dict(zip(values.tolist(), freq.tolist()))
        for k in range(1, 5):
            a, b = counts.get(k, 0), counts.get(-k, 0)
            se = math.sqrt(a + b)
            assert abs(a - b) <= 4.5 * se + 1

    def test_fraction_center(self):
        param = GaussParam.make(s=3, c=Fraction(1, 3))
        rng = derive_rng(3)
        vals = {sample_z(param, rng) for _ in range(200)}
        assert all(isinstance(v, int) for v in vals)


class TestCenterSplit:
    def test_one_sampler_per_width(self):
        dgauss._SAMPLER_CACHE.clear()
        rng = derive_rng(6, "cache")
        for c_num in range(-50, 50):
            sample_z(GaussParam(s_sq=Fraction(25, 4), c=(Fraction(c_num, 7),)), rng)
        assert list(dgauss._SAMPLER_CACHE) == [Fraction(25, 4)]


_FLOOR_SQ = Fraction(_width_floor_sq(1))
_WIDTHS_SQ = st.one_of(
    st.sampled_from([_FLOOR_SQ, _FLOOR_SQ * (1 + Fraction(1, 1 << 40)), Fraction(16, 9),
                     Fraction(9), Fraction(1 << 40), Fraction((1 << 40) - 1, 3)]),
    st.builds(lambda e, num: _FLOOR_SQ + Fraction(num, 1 << 10) * 2 ** e,
              st.integers(0, 40), st.integers(0, (1 << 10) - 1)))
# |c| >= 2^40 with a fractional part whose reduced denominator is odd (> 1)
_CENTERS = st.builds(lambda sign, k, d, n: (sign * k * d + n % (d - 1) + 1, d),
                     st.sampled_from([1, -1]), st.integers((1 << 40) + 1, 1 << 100),
                     st.integers(1, 10 ** 6).map(lambda v: 2 * v + 1),
                     st.integers(1, 10 ** 6))
# The 53-bit uniform: anywhere, or at the acceptance threshold times
# (1 + rel), with rel down to well inside the float margin.
_UNIFORMS = st.one_of(
    st.tuples(st.just("at"), st.one_of(
        st.just(0.0), st.builds(lambda sign, e: sign * 10.0 ** -e,
                                st.sampled_from([1, -1]), st.integers(3, 12)))),
    st.tuples(st.just("any"), st.integers(0, (1 << 53) - 1)))


class TestFloatFastPath:
    """Every accept/reject the sampler decides in double precision agrees
    with the exact decision on the same 53-bit uniform."""

    @staticmethod
    def _u53(u, log_thr: float) -> int:
        kind, v = u
        if kind == "any":
            return v
        if log_thr >= 0:
            return (1 << 53) - 1
        return min((1 << 53) - 1, int(math.exp(log_thr) * (1 + v) * (1 << 53)))

    @staticmethod
    def _offset_a(samp, t, c_num, c_den):
        x0 = round(Fraction(c_num, c_den))
        return (Fraction(t) + x0 - Fraction(c_num, c_den)) ** 2 / samp.s_sq

    @staticmethod
    def _run_batch(samp, c_num, c_den, t, j, u53):
        """The array sampler's float decision on one proposal, with f from
        its own center split: True, False, or None (left to exact)."""
        _, _, f = _split_centers(int_array([c_num]), c_den)
        accept, reject = samp._float_decisions(
            np.array([t]), np.array([j]), f, np.array([u53 / (1 << 53)]))
        return True if accept[0] else False if reject[0] else None

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(s_sq=_WIDTHS_SQ, c=_CENTERS, t_pos=st.integers(0, 1 << 22), u=_UNIFORMS)
    def test_batch_window_decisions_match_exact(self, s_sq, c, t_pos, u):
        samp = _ZSampler(s_sq)
        t = t_pos % samp.W - samp.K
        a = self._offset_a(samp, t, *c)
        u53 = self._u53(u, -math.pi * float(a))
        got = self._run_batch(samp, *c, t, 0, u53)
        if got is not None:
            lu = _LazyUniform(u53, 53)
            assert got == _decide_exact(Fraction(1), a, lu, random.Random(0))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(s_sq=_WIDTHS_SQ, c=_CENTERS, j=st.integers(20, 24),
           side=st.sampled_from([1, -1]), u=_UNIFORMS)
    # u = 0 while p is far below premul 2^-53: the uniform's unread bits
    # decide, so a float accept would be wrong
    @example(s_sq=Fraction(9), c=(3 * 2 ** 40 + 1, 3), j=20, side=1, u=("any", 0))
    def test_batch_tail_decisions_match_exact(self, s_sq, c, j, side, u):
        samp = _ZSampler(s_sq)
        t = side * (samp.K + j)
        a = self._offset_a(samp, t, *c)
        premul = Fraction(samp.t_hat) * Fraction(samp.g_scaled, 1 << 40) ** j
        log_premul = math.log(samp.t_hat) + j * math.log(samp.g_scaled / (1 << 40))
        u53 = self._u53(u, -math.pi * float(a) - log_premul)
        got = self._run_batch(samp, *c, t, j, u53)
        if got is not None:
            lu = _LazyUniform(u53, 53)
            assert got == _decide_exact(premul, a, lu, random.Random(0))


class TestArraySampler:
    @pytest.mark.parametrize("calls", [1, 1200])
    @pytest.mark.parametrize("s_sq", [_FLOOR_SQ, Fraction(16, 9), Fraction(144)])
    def test_distribution_with_mixed_centers(self, s_sq, calls):
        # 240k draws at centers k + f: k spread over +-2^40 and f cycling
        # through 1/3, -2/5 and 1/2 (a rounding tie).  Drawn in one call
        # (blocks, mostly one proposal per row and round) or in calls of 200
        # (several proposals per row and round); x - k against D_{Z,s,f}.
        # s^2 = 16/9 has the largest tail share of these widths (9e-5).
        n = 240_000
        ks = np.random.default_rng(1).integers(-(1 << 40), 1 << 40, n)
        c_num = 30 * ks + np.array([10, -12, 15])[np.arange(n) % 3]
        rng, exact_rng = derive_np_rng(8, "mixed", calls), derive_rng(8, "mixed", calls)
        draws = np.concatenate([_draw_z_array(s_sq, part, 30, rng, exact_rng)[0]
                                for part in np.array_split(c_num, calls)])
        radius = 12 * math.sqrt(float(s_sq)) + 2
        for g, f in enumerate((Fraction(1, 3), Fraction(-2, 5), Fraction(1, 2))):
            pmf = pmf_bruteforce(enum_z(), GaussParam(s_sq=s_sq, c=(f,)), radius)
            res = empirical_similarity((draws - ks)[g::3].tolist(), pmf)
            assert res.chi2_p >= 1e-3
            assert res.excess(4.5) <= 0.0

    @pytest.mark.parametrize("k", [2 ** 40, 2 ** 60, 2 ** 100])
    def test_large_centers_shift_the_small_center_draws(self, k, monkeypatch):
        # D_{Z,s,k+1/3} = k + D_{Z,s,1/3}: the same streams give the same
        # draws shifted by k (int64 centers for 2^40 and 2^60, Python ints
        # for 2^100),
        # and no decision leaves double precision.
        calls = []

        def counting(*args):
            calls.append(1)
            return _decide_exact(*args)

        monkeypatch.setattr(dgauss, "_decide_exact", counting)

        def draws(c_num):
            out, counts = _draw_z_array(Fraction(9), int_array([c_num] * 5000), 3,
                                        derive_np_rng(5, "split"), derive_rng(5, "split"))
            assert counts.fallbacks == 0 and counts.proposals >= counts.draws == 5000
            return [int(v) for v in out]

        assert draws(3 * k + 1) == [k + v for v in draws(1)]
        assert len(calls) == 0

    def test_exact_fallback_keeps_the_law(self, monkeypatch):
        # A margin of 30% sends a large share of the comparisons to exact
        # arithmetic; rows that meet an undecided proposal before their first
        # float accept settle in proposal order, and the law is unchanged.
        monkeypatch.setattr(dgauss, "_REL_ERR", 0.3)
        s_sq, c = Fraction(9), Fraction(1, 3)
        out, counts = _draw_z_array(s_sq, np.ones(20_000, dtype=np.int64), 3,
                                    derive_np_rng(4, "wide"), derive_rng(4, "wide"))
        assert counts.fallbacks > 2_000
        pmf = pmf_bruteforce(enum_z(), GaussParam(s_sq=s_sq, c=(c,)), radius=40)
        res = empirical_similarity(out.tolist(), pmf)
        assert res.chi2_p >= 1e-3
        assert res.excess(4.5) <= 0.0

    def test_tail_steps_are_geometric(self):
        # Pr[j] = (1-g) g^(j-1) with g = g_scaled / 2^40, read in chunks
        samp = _ZSampler(Fraction(144))
        g = samp.g_scaled / (1 << 40)
        steps = samp._tail_steps(200_000, derive_np_rng(3, "tail"))
        pmf = {j: (1 - g) * g ** (j - 1) for j in range(1, 100)}
        res = empirical_similarity(steps.tolist(), pmf)
        assert res.chi2_p >= 1e-3
        assert res.excess(4.5) <= 0.0


class TestSampleZn:
    @pytest.mark.parametrize("n, rows", [(0, 1), (-3, 1), (2, -1)])
    def test_shape_preconditions(self, n, rows):
        with pytest.raises(PreconditionViolated):
            sample_zn_rows(GaussParam.make(s=3), n, rows, derive_rng(0))

    def test_negative_width_rejected(self):
        with pytest.raises(PreconditionViolated, match="s > 0"):
            GaussParam.make(s=-2)

    def test_width_precondition_scales_with_n(self):
        s_edge = math.sqrt(math.log(2 * 64 + 4) / math.pi)
        with pytest.raises(WidthTooSmall):
            sample_zn(GaussParam.make(s=s_edge * 0.9), 64, derive_rng(0))

    def test_dimension_one_matches_sample_z(self):
        param = GaussParam.make(s=2, c=0.3)
        r1, r2 = derive_rng(5, "a"), derive_rng(5, "a")
        xs = [sample_z(param, r1) for _ in range(2000)]
        ys = [sample_zn(param, 1, r2)[0] for _ in range(2000)]
        assert xs == ys  # identical stream, identical decisions

    def test_single_values_are_one_row_views(self):
        # the same rng gives the same draws through sample_zn and through a
        # 1-row sample_zn_rows call, so the batch tests cover the scalar API
        param = GaussParam.make(s=2, c=(0.3, Fraction(-29, 4)))
        r1, r2 = derive_rng(6, "view"), derive_rng(6, "view")
        for _ in range(50):
            assert sample_zn(param, 2, r1) == tuple(sample_zn_rows(param, 2, 1, r2)[0].tolist())

    def test_moments_against_pmf_oracle(self):
        param = GaussParam.make(s=3, c=0)
        pmf = pmf_bruteforce(enum_z(), param, radius=45)
        mean = sum(k * p for k, p in pmf.items())
        var = sum((k - mean) ** 2 * p for k, p in pmf.items())
        m4 = sum((k - mean) ** 4 * p for k, p in pmf.items())
        rng = derive_rng(11, "mom")
        n = 60_000
        draws = sample_zn_rows(param, 2, n, rng)
        emp_var = draws.var(axis=0)
        se_var = math.sqrt((m4 - var**2) / n)
        assert np.all(np.abs(emp_var - var) < 4 * se_var)
        cross = float(np.mean(draws[:, 0] * draws[:, 1]))
        se_cross = var / math.sqrt(n)
        assert abs(cross) < 4 * se_cross

    def test_off_grid_centers(self):
        param = GaussParam.make(s=4, c=(5.5, -2.25))
        pmf_a = pmf_bruteforce(enum_z(), GaussParam.make(s=4, c=5.5), radius=60)
        pmf_b = pmf_bruteforce(enum_z(), GaussParam.make(s=4, c=-2.25), radius=60)
        means = (sum(k * p for k, p in pmf_a.items()),
                 sum(k * p for k, p in pmf_b.items()))
        sds = []
        for pmf, mu in zip((pmf_a, pmf_b), means):
            sds.append(math.sqrt(sum((k - mu) ** 2 * p for k, p in pmf.items())))
        rng = derive_rng(13)
        n = 50_000
        draws = sample_zn_rows(param, 2, n, rng)
        for j in range(2):
            se = sds[j] / math.sqrt(n)
            assert abs(float(draws[:, j].mean()) - means[j]) < 4 * se


class TestRhoBruteforce:
    def test_theta_value(self):
        val, err = rho_bruteforce(enum_z(), GaussParam.make(s=1, c=0), 40)
        expected = 1 + 2 * sum(math.exp(-math.pi * k * k) for k in range(1, 10))
        assert val == pytest.approx(expected, rel=1e-14)
        assert val == pytest.approx(1.0864348112, rel=1e-9)
        assert err < 1e-300 or err == 0.0

    def test_shifted_center_no_larger(self):
        v0, _ = rho_bruteforce(enum_z(), GaussParam.make(s=1, c=0), 40)
        v5, _ = rho_bruteforce(enum_z(), GaussParam.make(s=1, c=0.5), 40)
        assert v5 <= v0

    def test_scaling_identity(self):
        # rho_{2}(2 Z^2) = rho_{1}(Z^2)
        v_scaled, _ = rho_bruteforce(enum_scaled_zn(2, 2), GaussParam.make(s=2, c=(0, 0)), 40)
        v_plain, _ = rho_bruteforce(enum_scaled_zn(1, 2), GaussParam.make(s=1, c=(0, 0)), 20)
        assert v_scaled == pytest.approx(v_plain, rel=1e-12)

    def test_smoothing_inequality_over_centers(self):
        eps = 0.1
        s = eta_zn_bound(1, eps)
        denom, _ = rho_bruteforce(enum_z(), GaussParam.make(s=s, c=0), 12 * s)
        rng = derive_rng(0, "centers")
        for _ in range(100):
            c = rng.random()
            num, _ = rho_bruteforce(enum_z(), GaussParam.make(s=s, c=c), 12 * s)
            assert (1 - eps) / (1 + eps) - 1e-12 <= num / denom <= 1 + 1e-12


class TestFormulas:
    def test_eta_zn_values(self):
        assert eta_zn_bound(1, 1.0) == pytest.approx(math.sqrt(math.log(4) / math.pi), rel=1e-12)
        assert eta_zn_bound(1, 1.0) == pytest.approx(0.66428, abs=1e-4)
        assert eta_zn_bound(512, 2.0**-20) == pytest.approx(2.5728, abs=1e-3)

    def test_eta_zn_monotone(self):
        assert eta_zn_bound(1, 0.5) > eta_zn_bound(1, 1.0) > eta_zn_bound(1, 2.0)
        assert eta_zn_bound(8, 0.01) > eta_zn_bound(4, 0.01)

    def test_eta_qary_value_and_preconditions(self):
        v = eta_qary_bound(4, 8, 257, 2.0**-10)
        expect = math.sqrt(72 * math.log(2**10) / math.pi) * math.sqrt(257)
        assert v == pytest.approx(expect, rel=1e-12)
        assert v == pytest.approx(202.055, abs=0.01)
        with pytest.raises(PreconditionViolated):
            eta_qary_bound(4, 8, 257, 1 / (4 * 8) + 1e-9)
        with pytest.raises(PreconditionViolated):
            eta_qary_bound(7, 7, 7, 2.0**-10)  # q^(1-n/m) = 1 < 6
        with pytest.raises(PreconditionViolated):
            eta_qary_bound(4, 8, 256, 2.0**-10)  # composite q

    def test_lambda1_lower_bound(self):
        v = lambda1_inf_lower_bound(4, 8, 257)
        assert v == pytest.approx(math.sqrt(257) / (3 * math.sqrt(2)), rel=1e-12)
        assert v == pytest.approx(3.78, abs=0.01)
        assert v >= 257 ** (1 - 4 / 8) / 6  # m >= n strengthens the bound
        with pytest.raises(PreconditionViolated):
            lambda1_inf_lower_bound(5, 5, 7)

    def test_lambda1_lower_bound_rejects_m_below_n(self):
        # m = 0 used to reach q^(1-n/m) and raise a bare ZeroDivisionError
        with pytest.raises(PreconditionViolated, match="m >= n"):
            lambda1_inf_lower_bound(1, 0, 7)

    def test_tail_bound(self):
        assert tail_bound_linf(1, 1) == pytest.approx(2 * math.exp(-math.pi), rel=1e-12)
        assert tail_bound_linf(1, 0.01) >= 1.0  # vacuous but unclamped
        assert tail_bound_linf(4, 2) < tail_bound_linf(4, 1)

    def test_tail_bound_empirical(self):
        # D_{Z^2, 5}: fraction with ||X||_inf > 1.5 * 5 versus 4 e^{-pi 1.5^2}.
        param = GaussParam.make(s=5, c=0)
        rng = derive_rng(17)
        n = 100_000
        R = 1.5
        exceed = int((np.abs(sample_zn_rows(param, 2, n, rng)).max(axis=1) > R * 5).sum())
        bound = tail_bound_linf(2, R)
        sigma = math.sqrt(bound * (1 - bound) / n)
        assert exceed / n <= bound + 3 * sigma

    def test_min_entropy(self):
        assert min_entropy_bound(8, 0) == 2.0**-8
        assert min_entropy_bound(2, 1 / 3) == pytest.approx(0.5, rel=1e-12)
        with pytest.raises(PreconditionViolated):
            min_entropy_bound(2, 1.0)

    def test_min_entropy_brute_check(self):
        eps = 0.05
        s = 2 * eta_zn_bound(2, eps)
        pmf = pmf_bruteforce(enum_scaled_zn(1, 2), GaussParam.make(s=s, c=(0.3, 0.7)),
                             radius=12 * s)
        assert max(pmf.values()) <= min_entropy_bound(2, eps)


class TestEmpiricalSimilarity:
    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            empirical_similarity([0] * 100, {0: 1.0})

    def test_coverage_precondition(self):
        with pytest.raises(PreconditionViolated):
            empirical_similarity([0] * 20_000, {0: 0.5})

    def test_null_hypothesis_sane(self):
        param = GaussParam.make(s=3, c=0)
        pmf = pmf_bruteforce(enum_z(), param, radius=45)
        rng = derive_rng(23, "null")
        draws = sample_zn_rows(param, 1, 50_000, rng)[:, 0].tolist()
        res = empirical_similarity(draws, pmf)
        assert res.chi2_p >= 1e-3
        assert res.n_bins >= 5

    def test_detects_wrong_width(self):
        wide = GaussParam.make(s=3 * math.sqrt(2), c=0)
        narrow_pmf = pmf_bruteforce(enum_z(), GaussParam.make(s=3, c=0), radius=60)
        rng = derive_rng(29, "power")
        draws = sample_zn_rows(wide, 1, 100_000, rng)[:, 0].tolist()
        draws = [d for d in draws if d in narrow_pmf]
        res = empirical_similarity(draws, narrow_pmf)
        assert res.chi2_p < 1e-6

    def test_convolution_of_cosets(self):
        # X ~ D_{Z+1/2, s}, Y ~ D_{Z, s}; X - Y against D_{Z+1/2, sqrt(2) s}.
        s = 3.0
        rng = derive_rng(31, "conv")
        half = Fraction(1, 2)
        param_x = GaussParam.make(s=s, c=-half)
        param_y = GaussParam.make(s=s, c=0)
        n = 200_000
        x = sample_zn_rows(param_x, 1, n, rng)[:, 0] + float(half)
        y = sample_zn_rows(param_y, 1, n, rng)[:, 0]
        diffs = (x - y).tolist()
        pmf = pmf_bruteforce(enum_coset_z(half),
                             GaussParam.make(s_sq=Fraction(2) * Fraction(s) ** 2, c=0),
                             radius=60)
        res = empirical_similarity(diffs, pmf)
        # eps from inverting the Z smoothing bound at s/sqrt(2)
        eps = 2.0 / (math.exp(math.pi * (s / math.sqrt(2)) ** 2) / 1 - 2)
        assert res.excess(4.5) <= 3 * eps + 1e-9
        assert res.chi2_p >= 1e-3


class TestEtaBruteforce:
    def test_zn_close_to_formula_bound(self):
        eps = 2.0**-10
        brute = eta_zn_bruteforce(3, eps)
        assert brute <= eta_zn_bound(3, eps) + 1e-9
        assert brute >= 0.5 * eta_zn_bound(3, eps)

    def test_scaled_lattice_scales(self):
        eps = 2.0**-8
        base = eta_zn_bruteforce(2, eps)
        scaled = eta_scaled_zn_bruteforce(Fraction(5, 2), 2, eps)
        assert scaled == pytest.approx(2.5 * base, rel=1e-6)

    def test_qary_enumeration(self):
        A = np.array([[1, 2, 1]])
        eta = __import__("wagnersis.dgauss", fromlist=["eta_qary_bruteforce"]) \
            .eta_qary_bruteforce(A, 3, 2.0**-12)
        assert 1.0 < eta < 6.0
