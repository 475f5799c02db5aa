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
    SamplerCounts,
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
from wagnersis.wagner import choose_provable_params
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

# Widths for the tail step: from the floor up to 2^120, where j - 1 = M q + r
# has M = 2^37
_TAIL_WIDTHS_SQ = st.one_of(
    st.sampled_from([_FLOOR_SQ, Fraction(144), Fraction(1 << 46), Fraction(1 << 60),
                     Fraction(1 << 120), Fraction((1 << 120) - 1, 3)]),
    st.builds(lambda e, num: _FLOOR_SQ + Fraction(num, 1 << 10) * 2 ** e,
              st.integers(0, 120), st.integers(0, (1 << 10) - 1)))


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
        # acceptance exp(-pi b): a over the envelope exp(-pi (tau + gamma j))
        b = a - samp.tau - samp.gamma * j
        u53 = self._u53(u, -math.pi * float(b))
        got = self._run_batch(samp, *c, t, j, u53)
        if got is not None:
            lu = _LazyUniform(u53, 53)
            assert got == _decide_exact(Fraction(1), b, lu, random.Random(0))

    @staticmethod
    def _below(x: Fraction, a: Fraction) -> bool:
        """x <= exp(-pi a) exactly, for x != exp(-pi a)."""
        prec = 96
        while True:
            lo, hi = _exp_neg_pi_interval(a, prec)
            if x <= lo:
                return True
            if x >= hi:
                return False
            prec *= 2

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(s_sq=_TAIL_WIDTHS_SQ)
    def test_window_share_within_its_margin(self, s_sq):
        # p_window = W / (W + 2 exp(-pi tau) g / (1 - g)) is transcendental:
        # its float is within _SELECT_MARGIN of an exact enclosure, and the
        # exact selection decides uniforms just outside that margin alike
        samp = _ZSampler(s_sq)
        e_lo, e_hi = _exp_neg_pi_interval(samp.tau, 256)
        g_lo, g_hi = _exp_neg_pi_interval(samp.gamma, 256)
        p_lo = samp.W / (samp.W + 2 * e_hi * g_hi / (1 - g_hi))
        p_hi = samp.W / (samp.W + 2 * e_lo * g_lo / (1 - g_lo))
        p = Fraction(samp.p_window)
        assert p_lo - dgauss._SELECT_MARGIN < p < p_hi + dgauss._SELECT_MARGIN
        for u in (samp.p_window - 2 * dgauss._SELECT_MARGIN,
                  samp.p_window + 2 * dgauss._SELECT_MARGIN):
            if 0 <= u < 1:
                u = math.floor(u * (1 << 53)) / (1 << 53)
                assert samp._select_window_exact(u, random.Random(0)) == (u < samp.p_window)
        # the 53-bit cell holding p_window is settled by fresh bits
        cell = math.floor(samp.p_window * (1 << 53)) / (1 << 53)
        assert samp._select_window_exact(cell, random.Random(0)) in (True, False)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(s_sq=_TAIL_WIDTHS_SQ, k=st.integers(0, 1 << 40), u=_UNIFORMS)
    def test_tail_step_inversion_matches_exact(self, s_sq, k, u):
        # q = floor(-ln U / (M rate)): a float q holds for the whole 53-bit
        # cell [u, u + 2^-53), and the exact bisection finds the same q;
        # uniforms sit at a boundary g^(M k) that a 53-bit uniform can reach
        samp = _ZSampler(s_sq)
        a_unit = samp.gamma * samp.M
        k %= math.floor(36.0 / (samp.rate * samp.M)) + 1
        u53 = self._u53(u, -samp.rate * samp.M * k)
        counts = SamplerCounts()
        (q,) = samp._geometric(np.array([u53 / (1 << 53)]), random.Random(0), counts)
        if counts.fallbacks == 0:
            assert 0 <= q <= 1 << 40
            assert self._below(Fraction(u53 + 1, 1 << 53), a_unit * int(q))
            assert not self._below(Fraction(u53, 1 << 53), a_unit * (int(q) + 1))
            assert samp._geometric_exact(u53 / (1 << 53), random.Random(0)) == q

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(s_sq=_TAIL_WIDTHS_SQ, r=st.integers(0, 1 << 62), u=_UNIFORMS)
    def test_tail_step_remainder_decisions_match_exact(self, s_sq, r, u):
        # the rejection step of r in [0, M): U < g^r = exp(-pi gamma r)
        samp = _ZSampler(s_sq)
        r %= samp.M
        u53 = self._u53(u, -samp.rate * r)
        accept, reject = dgauss._float_bernoulli(np.exp(-samp.rate * np.array([r])),
                                                 np.array([u53 / (1 << 53)]))
        if accept[0] or reject[0]:
            lu = _LazyUniform(u53, 53)
            assert accept[0] == _decide_exact(Fraction(1), samp.gamma * r, lu,
                                              random.Random(0))


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
        # Pr[j] = (1-g) g^(j-1) with g = exp(-pi gamma)
        samp = _ZSampler(Fraction(144))
        g = math.exp(-samp.rate)
        steps = samp._tail_steps(200_000, derive_np_rng(3, "tail"), derive_rng(3, "tail"),
                                 SamplerCounts())
        pmf = {j: (1 - g) * g ** (j - 1) for j in range(1, 100)}
        res = empirical_similarity(steps.tolist(), pmf)
        assert res.chi2_p >= 1e-3
        assert res.excess(4.5) <= 0.0

    @pytest.mark.parametrize("e", [46, 60])
    def test_tail_steps_at_a_mean_step_beyond_2_20(self, e):
        # 200k tail steps at s^2 = 2^46 (M = 1) and 2^60 (M = 2^7), whose
        # mean step is about 2^21 and 2^28: j - 1 binned by (j - 1) rate in
        # steps of 0.1, against the exact geometric bin masses
        samp = _ZSampler(Fraction(1 << e))
        assert 1 / samp.rate > 1 << 20
        steps = samp._tail_steps(200_000, derive_np_rng(e, "big"), derive_rng(e, "big"),
                                 SamplerCounts())
        edges = np.ceil(np.arange(121) * 0.1 / samp.rate).astype(np.int64)
        bins = np.searchsorted(edges, steps.astype(np.int64) - 1, side="right") - 1
        mass = np.exp(-samp.rate * edges.astype(float))
        pmf = dict(enumerate((mass[:-1] - mass[1:]).tolist() + [float(mass[-1])]))
        res = empirical_similarity(bins.tolist(), pmf)
        assert res.chi2_p >= 1e-3
        assert res.excess(4.5) <= 0.0

    @pytest.mark.parametrize("e", [46, 60])
    def test_distribution_at_a_mean_step_beyond_2_20(self, e):
        # 200k draws at s = 2^23 and 2^30, c = 1/3, binned in widths of s/8
        # (the window edge K = 6 s/8 is a bin edge), against the Gaussian bin
        # masses; at these widths they match the discrete ones to ~1/s^2
        s_sq = Fraction(1 << e)
        assert 1 / _ZSampler(s_sq).rate > 1 << 20
        out, _ = _draw_z_array(s_sq, np.ones(200_000, dtype=np.int64), 3,
                               derive_np_rng(e, "wide"), derive_rng(e, "wide"))
        s, width = float(1 << e // 2), 1 << (e // 2 - 3)
        edges = np.arange(-12 * 8, 12 * 8 + 1)
        cdf = [0.5 * math.erf(math.sqrt(math.pi) * (b * width - 0.5 - 1 / 3) / s)
               for b in edges.tolist()]
        pmf = {int(b): hi - lo for b, lo, hi in zip(edges[:-1], cdf[:-1], cdf[1:])}
        res = empirical_similarity((out // width).tolist(), pmf)
        assert res.chi2_p >= 1e-3
        assert res.excess(4.5) <= 0.0

    def test_tail_offset_beyond_int64_is_exact(self):
        # s^2 = 1.7 * 2^124 keeps the window below 2^63; every proposal of
        # the first round goes to the tail (u_sel just below 1) with the
        # inversion uniform u_q for its step (the uniforms in between are
        # the acceptance ones), so K + j is past 2^63 and the draw must be
        # that Python integer, never a wrapped int64
        s_sq = Fraction(17, 10) * (1 << 124)
        samp = _ZSampler(s_sq)
        j_min = (1 << 63) - samp.K + (1 << 59)
        u_q = math.floor(math.exp(-samp.rate * j_min) * (1 << 53)) / (1 << 53)
        rng = _ScriptedUniforms(derive_np_rng(2, "past"), [1 - 2.0 ** -53, None, u_q])
        out, _ = _draw_z_array(s_sq, np.zeros(1, dtype=np.int64), 1, rng,
                               derive_rng(2, "past"))
        (x,) = out.tolist()
        # the step of u_q's cell: j - 1 = M q + r with q within one of its
        # float inverse and 0 <= r < M
        rate = samp.rate * samp.M
        q_lo = math.floor(-math.log(u_q + 2.0 ** -53) / rate) - 1
        q_hi = math.floor(-math.log(u_q) / rate) + 1
        assert type(x) is int
        assert samp.K + samp.M * q_lo + 1 <= abs(x) <= samp.K + samp.M * q_hi + samp.M
        assert abs(x) > 1 << 63

    def test_draws_past_int64_are_exact(self):
        # x0 + t with x0 = 2^63 - 5 and s = 100 passes 2^63 for about half
        # the draws: Python integers, never wrapped
        center = 2**63 - 5
        out, _ = _draw_z_array(Fraction(10000), np.full(2000, center), 1,
                               derive_np_rng(1, "wrap"), derive_rng(1, "wrap"))
        vals = out.tolist()
        assert all(type(v) is int and abs(v - center) < 2000 for v in vals)
        assert sum(v >= 1 << 63 for v in vals) > 500


class _ScriptedUniforms:
    """A NumPy generator whose first ``random`` calls return the scripted
    values (one per call, None defers) and that defers to ``rng`` after."""

    def __init__(self, rng, script):
        self._rng, self._script = rng, list(script)

    def random(self, n):
        v = self._script.pop(0) if self._script else None
        return self._rng.random(n) if v is None else np.full(n, v)

    def integers(self, *args):
        return self._rng.integers(*args)


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

    @pytest.mark.parametrize("call", [
        lambda: lambda1_inf_lower_bound(0, 0, 7),
        lambda: eta_qary_bound(0, 0, 7, 2.0 ** -10),
        lambda: choose_provable_params(0, 0, 7, 2.0, 0.01),
    ])
    def test_qary_bounds_reject_n_zero(self, call):
        # n = 0 used to reach q^(1-n/m) = q^(0/0): a bare ZeroDivisionError
        with pytest.raises(PreconditionViolated, match="n >= 1"):
            call()

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
