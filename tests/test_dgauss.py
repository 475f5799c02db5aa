import itertools
import math
from fractions import Fraction
from functools import partial

import random
import re
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from helpers import ScriptedUniforms, run_fresh
from wagnersis import dgauss, oracles
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
    sample_zn_rows,
)
from wagnersis.errors import (BudgetExceeded, InsufficientSamples, PreconditionViolated,
                              WidthTooSmall)
from wagnersis.oracles import (
    empirical_similarity,
    enum_coset_z,
    enum_qary,
    enum_scaled_zn,
    enum_z,
    eta_qary_bound,
    eta_qary_bruteforce,
    eta_scaled_zn_bruteforce,
    eta_zn_bound,
    lambda1_inf_bruteforce,
    lambda1_inf_lower_bound,
    min_entropy_bound,
    pmf_bruteforce,
    rho_bruteforce,
    tail_bound_linf,
)
from wagnersis.rngutil import LazyRandom, derive_np_rng, derive_rng
from wagnersis.wagner import choose_provable_params
from wagnersis.zqlin import _INT64_SAFE, int_array


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
                got = _decide_exact(a, lu, rng)
                assert got == (u < p)


class TestSampleZ:
    def test_width_too_small(self):
        with pytest.raises(WidthTooSmall):
            sample_zn_rows(GaussParam.make(s=0.1), 1, 1, derive_rng(0))

    def test_weight_ratio_zero_one(self):
        # Pr[0]/Pr[1] for D_{Z,2} equals e^{pi/4} by definition of the weights.
        points, probs = pmf_bruteforce(enum_z(), GaussParam.make(s=2, c=0), radius=60)
        p0, p1 = (probs[points[:, 0] == k][0] for k in (0, 1))
        assert p0 / p1 == pytest.approx(math.exp(math.pi / 4), rel=1e-12)

    def test_pmf_agreement(self):
        param = GaussParam.make(s=2, c=0.3)
        rng = derive_rng(42, "pmf")
        n = 150_000
        draws = sample_zn_rows(param, 1, n, rng)
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
        vals = sample_zn_rows(param, 1, 200, rng)[:, 0].tolist()
        assert all(isinstance(v, int) for v in vals)


class TestCenterSplit:
    def test_one_sampler_per_width(self):
        dgauss._sampler.cache_clear()
        rng = derive_rng(6, "cache")
        for c_num in range(-50, 50):
            param = GaussParam(s_sq=Fraction(25, 4), c=(Fraction(c_num, 7),))
            sample_zn_rows(param, 1, 1, rng)
        assert dgauss._sampler.cache_info().currsize == 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(),
           c_den=st.sampled_from([1, 2, 3, 5, 257, (1 << 61) - 1, 1 << 61, (1 << 61) + 1,
                                  1 << 62]),
           wide=st.booleans(), at=st.sampled_from([None, -1, 0]))
    def test_split_is_exact_round_half_even(self, data, c_den, wide, at):
        # c = x0 + f_num / c_den against Fraction's round-half-even, for
        # int64 numerators up to +-(2^63 - 1) and object ones past int64;
        # c_den = 1 skips the split, an odd c_den has no tie to break, and
        # c_den >= 2^62 switches to objects.  The numerators lie within the
        # center bound passed, the range's own (at = None) or one whose sum
        # with floor(c_den/2) is 2^62 + at (at = -1, 0): an odd c_den rounds
        # int64 numerators with one floor division (no np.where) just below
        # 2^62 and with the general split from it on, and object numerators
        # with one division at every bound.
        bound = (1 << 100) if wide else (1 << 63) - 1
        if at is not None:
            bound = min(bound, max(1, _INT64_SAFE + at - c_den // 2))
        k_max = bound // c_den - 1
        tie = (st.integers(-k_max, k_max).map(lambda k: k * c_den + c_den // 2)
               if k_max >= 0 else st.nothing())
        nums = data.draw(st.lists(
            st.one_of(st.integers(-bound, bound), st.sampled_from([bound, -bound]), tie),
            min_size=1, max_size=6))
        objects = wide or c_den >= 1 << 62
        one_division = c_den == 1 or c_den % 2 == 1 and (
            objects or bound + c_den // 2 < _INT64_SAFE)
        wheres, where = [], np.where

        def spy(*args):
            wheres.append(args)
            return where(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "where", spy)
            x0, f_num = _split_centers(np.array(nums, dtype=object if wide else np.int64),
                                       c_den, bound)
        assert (not wheres) == one_division
        dtype = np.dtype(object if objects else np.int64)
        assert x0.dtype == f_num.dtype == dtype
        if dtype == object:
            assert all(type(v) is int for v in [*x0, *f_num])
        for c_num, x, fn in zip(nums, x0.tolist(), f_num.tolist()):
            c = Fraction(c_num, c_den)
            assert x + Fraction(fn, c_den) == c and 2 * abs(fn) <= c_den
            assert x == round(c)  # ties to even
            if 2 * abs(fn) == c_den:
                assert x % 2 == 0


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


class _RecordingSampler(_ZSampler):
    """A sampler whose exact tail-step inversion records its uniform and
    returns -1."""

    __slots__ = ("calls",)

    def _geometric_exact(self, u, rng):
        self.calls.append(u)
        return -1


class _InversionRecordingSampler(_ZSampler):
    """A sampler that records the uniforms its exact inversion takes."""

    __slots__ = ("inverted",)

    def _invert_exact(self, f_num, c_den, t, u, rng):
        self.inverted.append(u)
        return super()._invert_exact(f_num, c_den, t, u, rng)


class _ZeroBits:
    """An exact stream whose first ``n`` 53-bit words are ``word`` and whose
    later ones come from ``random.Random(0)``."""

    def __init__(self, word, n):
        self._word, self._n, self._rng = word, n, random.Random(0)

    def getrandbits(self, bits):
        self._n -= 1
        return self._word if self._n >= 0 else self._rng.getrandbits(bits)


def _tail_indices(samp, t):
    return (np.abs(t) > samp.K).nonzero()[0]


def _window_p_ref(samp, t, f):
    """The window formula as the sampler had it apart: exp(-pi (t - f)^2 /
    s^2) for window offsets t."""
    dx = np.subtract(t, f, dtype=float)
    return np.exp(-math.pi * dx * dx / samp.s_sq_f)


def _tail_p_ref(samp, e, steps):
    """The tail formula as the sampler had it apart: exp(-pi b) at steps j
    with b = ((j + e)^2 + 2 kappa e) / s^2, e = 3/5 - side f."""
    b = ((np.asarray(steps, dtype=float) + e) ** 2 + 2.0 * (samp.K - 0.6) * e) / samp.s_sq_f
    return np.exp(-math.pi * b)


def _two_formulas_p(samp, t, f):
    """exp(-pi b) at the offsets t (a 1-D array) for the center fractions f
    (an array like t, or the scalar 0.0 of integer centers), from the two
    formulas as a round called them: the window one on the window offsets,
    the tail one at the steps j = |t| - K of the others with e = 3/5 -
    side f (3/5 at the scalar 0.0)."""
    steps = np.abs(t) - samp.K
    win, tail = (steps <= 0).nonzero()[0], (steps > 0).nonzero()[0]
    p = np.empty(t.shape)
    p[win] = _window_p_ref(samp, t[win].astype(np.int64), f if np.ndim(f) == 0 else f[win])
    e = 0.6
    if np.ndim(f):
        f_tail = f[tail]
        e -= np.negative(f_tail, out=f_tail, where=t[tail] < 0)
    p[tail] = _tail_p_ref(samp, e, steps[tail])
    return p


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
    def _run_batch(samp, c_num, c_den, t, u53):
        """The rejection rounds' float decision on one proposal, with f_num
        from its own center split: True, False, or None (left to exact).
        The proposal (a window one for |t| <= K) is decided as its round
        decides it, from ``_offset_p``."""
        _, f_num = _split_centers(int_array([c_num]), c_den, abs(c_num))
        t = np.array([t])
        f = np.asarray(f_num / c_den, dtype=float)
        lo, hi = dgauss._thresholds(samp._offset_p(t, f, _tail_indices(samp, t)))
        u = u53 / (1 << 53)
        return True if u < lo[0] else None if u <= hi[0] else False

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(s_sq=_WIDTHS_SQ, c=_CENTERS, t_pos=st.integers(0, 1 << 22), u=_UNIFORMS)
    def test_batch_window_decisions_match_exact(self, s_sq, c, t_pos, u):
        samp = _ZSampler(s_sq)
        t = t_pos % samp.W - samp.K
        a = self._offset_a(samp, t, *c)
        u53 = self._u53(u, -math.pi * float(a))
        got = self._run_batch(samp, *c, t, u53)
        if got is not None:
            lu = _LazyUniform(u53, 53)
            assert got == _decide_exact(a, lu, random.Random(0))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(s_sq=_WIDTHS_SQ, c=_CENTERS, j=st.integers(20, 24),
           side=st.sampled_from([1, -1]), u=_UNIFORMS)
    # u = 0 while p is far below 2^-53: the uniform's unread bits
    # decide, so a float accept would be wrong
    @example(s_sq=Fraction(9), c=(3 * 2 ** 40 + 1, 3), j=20, side=1, u=("any", 0))
    def test_batch_tail_decisions_match_exact(self, s_sq, c, j, side, u):
        samp = _ZSampler(s_sq)
        t = side * (samp.K + j)
        a = self._offset_a(samp, t, *c)
        # acceptance exp(-pi b): a over the envelope exp(-pi (tau + gamma j))
        b = a - samp.tau - samp.gamma * j
        u53 = self._u53(u, -math.pi * float(b))
        got = self._run_batch(samp, *c, t, u53)
        if got is not None:
            lu = _LazyUniform(u53, 53)
            assert got == _decide_exact(b, lu, random.Random(0))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(s_sq=st.sampled_from([_FLOOR_SQ, Fraction(16, 9), Fraction(144), Fraction(1 << 40),
                                 Fraction(17, 10) * (1 << 124)]),
           integer_centers=st.booleans(), wide=st.booleans(), data=st.data())
    def test_offset_p_is_the_two_formulas_bit_for_bit(self, s_sq, integer_centers, wide,
                                                      data):
        # One exp(-pi b) at every offset gives the very bytes of the window
        # and tail formulas it replaced, so no threshold moves by an ulp (a
        # move the seeded pins almost never see): window offsets, tail steps
        # up to J + 1 with g^J about 2^-30 and past 2^53, offsets past int64
        # (objects), int64 or object arrays, fractions f in [-1/2, 1/2] or
        # the scalar 0.0 of integer centers.
        samp = _ZSampler(s_sq)
        K, J = samp.K, math.ceil(30 * math.log(2) / samp.rate)
        steps = st.one_of(st.integers(1, J + 1), st.integers((1 << 53) - 8, (1 << 53) + 8),
                          st.integers(_INT64_SAFE - K - 2, 1 << 70))
        ts = data.draw(st.lists(st.one_of(
            st.integers(-K, K), st.builds(lambda side, j: side * (K + j),
                                          st.sampled_from([1, -1]), steps)),
            min_size=1, max_size=8))
        objects = wide or max(map(abs, ts)) >= _INT64_SAFE
        t = np.array(ts, dtype=object if objects else np.int64)
        f = 0.0 if integer_centers else np.array(data.draw(st.lists(
            st.floats(-0.5, 0.5), min_size=len(ts), max_size=len(ts))))
        assert samp._offset_p(t, f, _tail_indices(samp, t)).tobytes() == \
            _two_formulas_p(samp, t, f).tobytes()

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
    @example(s_sq=Fraction(1 << 400))  # the first 96-bit enclosure of g has g_hi >= 1
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
    @given(s_sq=_TAIL_WIDTHS_SQ,
           cells=st.lists(st.tuples(st.integers(0, 1 << 40), _UNIFORMS), max_size=8))
    def test_tail_step_inversion_matches_its_expression(self, s_sq, cells):
        # q and the fallback set of the in-place ``_geometric`` against the
        # expression floor(-ln(u) / rate (1 + err)) != floor(-ln(u + 2^-53) /
        # rate (1 - err)), on the uniforms 0 and 1 - 2^-53 and on uniforms
        # anywhere or at a step boundary g^(M k)
        samp = _RecordingSampler(s_sq)
        samp.calls = []
        rate = samp.rate * samp.M
        k_max = math.floor(36.0 / rate) + 1
        u53 = [0, (1 << 53) - 1] + [self._u53(u, -rate * (k % k_max)) for k, u in cells]
        u = np.array(u53) / (1 << 53)
        with np.errstate(divide="ignore"):
            hi = np.floor(-np.log(u) / rate * (1.0 + dgauss._STEP_ERR))
        lo = np.floor(-np.log(u + dgauss._U_ULP) / rate * (1.0 - dgauss._STEP_ERR))
        exact = lo != hi
        counts = SamplerCounts()
        q = samp._geometric(u, random.Random(0), counts)
        assert q.dtype == np.int64 and exact[0]
        assert counts.fallbacks == exact.sum() and samp.calls == u[exact].tolist()
        assert q.tolist() == np.where(exact, -1, lo).astype(np.int64).tolist()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(s_sq=_TAIL_WIDTHS_SQ, r=st.integers(0, 1 << 62), u=_UNIFORMS)
    def test_tail_step_remainder_decisions_match_exact(self, s_sq, r, u):
        # the rejection step of r in [0, M): U < g^r = exp(-pi gamma r)
        samp = _ZSampler(s_sq)
        r %= samp.M
        u53 = self._u53(u, -samp.rate * r)
        (lo,), (hi,) = dgauss._thresholds(np.exp(-samp.rate * np.array([r])))
        u = u53 / (1 << 53)
        if u < lo or u > hi:
            lu = _LazyUniform(u53, 53)
            assert (u < lo) == _decide_exact(samp.gamma * r, lu, random.Random(0))


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
        draws = np.concatenate([_draw_z_array(s_sq, part, 30, rng, exact_rng, 30 << 40)[0]
                                for part in np.array_split(c_num, calls)])
        radius = 12 * math.sqrt(float(s_sq)) + 2
        for g, f in enumerate((Fraction(1, 3), Fraction(-2, 5), Fraction(1, 2))):
            pmf = pmf_bruteforce(enum_z(), GaussParam(s_sq=s_sq, c=(f,)), radius)
            res = empirical_similarity((draws - ks)[g::3], pmf)
            assert res.chi2_p >= 1e-3
            assert res.excess(4.5) <= 0.0

    @pytest.mark.parametrize("k", [2 ** 40, 2 ** 60, 2 ** 100])
    def test_large_centers_shift_the_small_center_draws(self, k, monkeypatch):
        # D_{Z,s,k+1/3} = k + D_{Z,s,1/3}: the same streams give the same
        # draws shifted by k (int64 centers for 2^40 and 2^60, Python ints
        # for 2^100), all inverted (one uniform a draw, object numerators
        # too), and no decision leaves double precision.
        calls = []

        def counting(*args):
            calls.append(1)
            return _decide_exact(*args)

        monkeypatch.setattr(dgauss, "_decide_exact", counting)
        monkeypatch.setattr(dgauss, "_decide", counting)
        monkeypatch.setattr(_ZSampler, "_draw_block", counting)

        def draws(c_num):
            out, counts, _ = _draw_z_array(Fraction(9), int_array([c_num] * 5000), 3,
                                           derive_np_rng(5, "split"), derive_rng(5, "split"),
                                           c_num)
            assert counts.fallbacks == 0 and counts.proposals == counts.draws == 5000
            return [int(v) for v in out]

        assert draws(3 * k + 1) == [k + v for v in draws(1)]
        assert len(calls) == 0

    def test_exact_fallback_keeps_the_law(self, monkeypatch):
        # A margin of 30% of F_f sends most inverted draws to exact
        # inversion, and the law is unchanged.
        monkeypatch.setattr(dgauss, "_REL_ERR", 0.3)
        s_sq, c = Fraction(9), Fraction(1, 3)
        out, counts, _ = _draw_z_array(s_sq, np.ones(20_000, dtype=np.int64), 3,
                                       derive_np_rng(4, "wide"), derive_rng(4, "wide"), 1)
        assert counts.fallbacks > 2_000
        pmf = pmf_bruteforce(enum_z(), GaussParam(s_sq=s_sq, c=(c,)), radius=40)
        res = empirical_similarity(out, pmf)
        assert res.chi2_p >= 1e-3
        assert res.excess(4.5) <= 0.0

    def test_tail_steps_are_geometric(self):
        # Pr[j] = (1-g) g^(j-1) with g = exp(-pi gamma)
        samp = _ZSampler(Fraction(144))
        g = math.exp(-samp.rate)
        steps = samp._tail_steps(200_000, derive_np_rng(3, "tail"), derive_rng(3, "tail"),
                                 SamplerCounts())
        j = np.arange(1, 100)
        res = empirical_similarity(steps, (j, (1 - g) * g ** (j - 1)))
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
        pmf = (np.arange(121), np.append(mass[:-1] - mass[1:], mass[-1]))
        res = empirical_similarity(bins, pmf)
        assert res.chi2_p >= 1e-3
        assert res.excess(4.5) <= 0.0

    @pytest.mark.parametrize("e", [46, 60])
    def test_distribution_at_a_mean_step_beyond_2_20(self, e):
        # 200k draws at s = 2^23 and 2^30, c = 1/3, binned in widths of s/8
        # (the window edge K = 6 s/8 is a bin edge), against the Gaussian bin
        # masses; at these widths they match the discrete ones to ~1/s^2
        s_sq = Fraction(1 << e)
        assert 1 / _ZSampler(s_sq).rate > 1 << 20
        out, _, _ = _draw_z_array(s_sq, np.ones(200_000, dtype=np.int64), 3,
                                  derive_np_rng(e, "wide"), derive_rng(e, "wide"), 1)
        s, width = float(1 << e // 2), 1 << (e // 2 - 3)
        edges = np.arange(-12 * 8, 12 * 8 + 1)
        cdf = [0.5 * math.erf(math.sqrt(math.pi) * (b * width - 0.5 - 1 / 3) / s)
               for b in edges.tolist()]
        pmf = (edges[:-1], np.diff(cdf))
        res = empirical_similarity(out // width, pmf)
        assert res.chi2_p >= 1e-3
        assert res.excess(4.5) <= 0.0

    def test_tail_offset_beyond_int64_is_exact(self):
        # s^2 = 1.7 * 2^124 keeps the window below 2^63; every proposal of
        # the first round goes to the tail (u_sel just below 1), accepts
        # (acceptance uniforms 0, since a round of k_s = 5 proposals may
        # otherwise reject them all) and, after the uniforms of its side,
        # takes the inversion uniform u_q for its step, so K + j is past 2^63
        # and the draw must be that Python integer, never a wrapped int64
        s_sq = Fraction(17, 10) * (1 << 124)
        samp = _ZSampler(s_sq)
        j_min = (1 << 63) - samp.K + (1 << 59)
        u_q = math.floor(math.exp(-samp.rate * j_min) * (1 << 53)) / (1 << 53)
        rng = ScriptedUniforms(derive_np_rng(2, "past"), [1 - 2.0 ** -53, 0.0, None, u_q])
        out, _, bound = _draw_z_array(s_sq, np.zeros(1, dtype=np.int64), 1, rng,
                                      derive_rng(2, "past"), 0)
        (x,) = out.tolist()
        assert abs(x) <= bound
        # the step of u_q's cell: j - 1 = M q + r with q within one of its
        # float inverse and 0 <= r < M
        rate = samp.rate * samp.M
        q_lo = math.floor(-math.log(u_q + 2.0 ** -53) / rate) - 1
        q_hi = math.floor(-math.log(u_q) / rate) + 1
        assert type(x) is int
        assert samp.K + samp.M * q_lo + 1 <= abs(x) <= samp.K + samp.M * q_hi + samp.M
        assert abs(x) > 1 << 63

    @pytest.mark.parametrize("s_sq", [Fraction(144), Fraction(17, 10) * (1 << 124)])
    def test_tail_offsets_at_the_int64_guard(self, s_sq):
        # +-(K + j) is int64 while K + j < 2^62 (int_lincomb's bound), Python
        # ints from there on and for object steps, and exact on both sides
        samp = _ZSampler(s_sq)
        neg = np.array([False, True])
        for j in (_INT64_SAFE - samp.K - 1, _INT64_SAFE - samp.K):
            for steps in (np.array([j, j]), np.array([j, j], dtype=object)):
                got = samp._tail_offsets(neg, steps, steps.max())
                fits = steps.dtype == np.int64 and samp.K + j < _INT64_SAFE
                assert got.dtype == (np.int64 if fits else object)
                assert got.tolist() == [samp.K + j, -(samp.K + j)]
                assert fits or all(type(v) is int for v in got)

    def test_blocks_return_their_largest_tail_step(self, monkeypatch):
        # _draw_block returns the largest tail step of all its rounds, so
        # K + top bounds its offsets; _invert_block returns max(R, max |t|) -
        # K, from R and the exact draws (a margin of 30% sends most of them
        # to exact inversion); _draw_z_array, told its centers' bound,
        # returns a bound on its draws from it
        drawn, tail_steps = [], _ZSampler._tail_steps

        def spy(self, *args):
            steps = tail_steps(self, *args)
            drawn.append(steps.tolist())
            return steps

        monkeypatch.setattr(_ZSampler, "_tail_steps", spy)
        samp, c_num = _ZSampler(Fraction(9)), np.arange(-3000, 3000) * 7 % 40001 - 20000
        _, f_num = _split_centers(c_num, 3, 20000)
        t, top = samp._draw_block(f_num, 3, derive_np_rng(4, "top"), derive_rng(4, "top"),
                                  SamplerCounts())
        assert len(drawn) > 1 and top == max(map(max, drawn))
        assert int(np.abs(t).max()) <= samp.K + top
        cdt = dgauss._cdt(samp, 3)
        for rel_err in (dgauss._REL_ERR, 0.3):
            monkeypatch.setattr(dgauss, "_REL_ERR", rel_err)
            counts = SamplerCounts()
            t, top = samp._invert_block(f_num, 3, cdt, derive_np_rng(4, "top"),
                                        derive_rng(4, "top"), counts)
            assert top == max(cdt[-1], int(np.abs(t).max())) - samp.K
            assert counts.fallbacks > 1000 or rel_err < 0.3
        x, _, bound = _draw_z_array(Fraction(9), np.tile(c_num, 4), 3, derive_np_rng(4, "x"),
                                    derive_rng(4, "x"), 20000)
        assert int(np.abs(x).max()) <= bound

    @pytest.mark.parametrize("c_den", [1, 3, 257])
    @pytest.mark.parametrize("s_sq", [Fraction(16, 9), Fraction(144)])
    def test_zero_centers_skip_the_split_with_the_same_draws(self, s_sq, c_den, monkeypatch):
        # A center bound of 0 draws x = t with no split and no sum; on zero
        # centers (not broadcast) the split path under bound 1 gives the
        # same values, dtype, counts and generator states, across a block edge
        splits, split = [], dgauss._split_centers

        def spy(*args):
            splits.append(1)
            return split(*args)

        monkeypatch.setattr(dgauss, "_split_centers", spy)
        got = []
        for c_bound in (0, 1):
            del splits[:]
            rng, exact_rng = derive_np_rng(6, "zero"), derive_rng(6, "zero")
            out, counts, bound = _draw_z_array(s_sq, np.zeros(20_000, dtype=np.int64), c_den,
                                               rng, exact_rng, c_bound)
            assert len(splits) == (0 if c_bound == 0 else 2)
            assert int(np.abs(out).max()) <= bound
            got.append((out.dtype, out.tolist(), counts, repr(rng.bit_generator.state),
                        exact_rng.getstate()))
        assert got[0] == got[1]

    def test_draws_past_int64_are_exact(self):
        # x0 + t with x0 = 2^63 - 5 and s = 100 passes 2^63 for about half
        # the draws: Python integers, never wrapped
        center = 2**63 - 5
        out, _, _ = _draw_z_array(Fraction(10000), np.full(2000, center), 1,
                                  derive_np_rng(1, "wrap"), derive_rng(1, "wrap"), center)
        vals = out.tolist()
        assert all(type(v) is int and abs(v - center) < 2000 for v in vals)
        assert sum(v >= 1 << 63 for v in vals) > 500


_INVERTED_SQ = [_FLOOR_SQ, Fraction(57, 100), Fraction(16, 9), Fraction(9), Fraction(6400, 257),
                Fraction(144)]


class TestInversion:
    """Tabled draws: one uniform per entry, a float bin from the CDT, and
    exact inversion wherever the float margin cannot place the uniform's
    whole 53-bit cell in that bin."""

    @staticmethod
    def _row(samp, c_den, f_num):
        """The stored float CDF F_f(k), k in [-R, R - 1], of f = f_num / c_den
        (the row's entries less its index r), and R."""
        table, _, _, R = dgauss._cdt(samp, c_den)
        r = f_num + c_den // 2
        return table[r * (2 * R + 2) + 1:(r + 1) * (2 * R + 2) - 1] - r, R

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(s_sq=st.sampled_from(_INVERTED_SQ), c_den=st.sampled_from([1, 3, 5, 257]),
           f_pos=st.integers(0, 1 << 20), scale=st.sampled_from([0.5, 1.0, 1.5, 4.0, 1e3]))
    def test_float_inversion_matches_exact_at_each_boundary(self, s_sq, c_den, f_pos, scale):
        # At every boundary F_f(k) of one row: the 53-bit cells at, and one
        # ulp either side of, the float boundary go exact, and so does every
        # cell of the end bins; cells at a multiple of the margin from it
        # may stand, and each one that stands lies wholly in its bin, by the
        # exact enclosures of F_f.  The float row is within the margin's
        # premise of the exact CDF: _REL_ERR F + (r + 1) 2^-53.
        samp = _InversionRecordingSampler(s_sq)
        samp.inverted = []
        f_num = f_pos % (2 * (c_den // 2) + 1) - c_den // 2
        ends, R = self._row(samp, c_den, f_num)
        r = f_num + c_den // 2
        exact = [dgauss._cdf_interval(samp, f_num, c_den, 128, k) for k in range(-R, R)]
        for end, (lo, hi) in zip(ends.tolist(), exact):
            slack = dgauss._REL_ERR * end + (r + 1) * 2.0 ** -53
            assert lo - Fraction(slack) <= Fraction(end) <= hi + Fraction(slack)
        margin = dgauss._REL_ERR * ends + dgauss._ABS_ERR + (r + 1) * 2.0 ** -53
        cell = np.floor(ends * 2.0 ** 53)
        u53 = np.concatenate([cell - 1, cell, cell + 1, np.floor((ends - scale * margin) * 2.0 ** 53),
                              np.floor((ends + scale * margin) * 2.0 ** 53)])
        u53 = np.clip(u53, 0, 2.0 ** 53 - 1)
        counts = SamplerCounts()
        t, top = samp._invert_block(np.full(u53.size, f_num), c_den, dgauss._cdt(samp, c_den),
                                    ScriptedUniforms(None, [u53 / 2.0 ** 53]),
                                    random.Random(0), counts)
        assert counts.proposals == u53.size and counts.fallbacks == len(samp.inverted)
        assert int(np.abs(t).max()) <= samp.K + top
        inverted = set(samp.inverted)
        assert {float(u) for u in u53[:3 * 2 * R] / 2.0 ** 53} <= inverted
        for v, k in zip(u53.tolist(), t.tolist()):
            if v / 2.0 ** 53 in inverted:
                continue
            assert abs(k) < R
            assert dgauss._cdf_interval(samp, f_num, c_den, 128, k - 1)[1] <= \
                Fraction(int(v), 1 << 53)
            assert Fraction(int(v) + 1, 1 << 53) <= \
                dgauss._cdf_interval(samp, f_num, c_den, 128, k)[0]

    @pytest.mark.parametrize("s_sq", [Fraction(57, 100), Fraction(16, 9), Fraction(9)])
    def test_radius_leaves_outer_masses_below_2_to_the_64(self, s_sq):
        # at f = -1/2, 0 and 1/2 the exact enclosures put Pr[X <= -R] and
        # Pr[X >= R] below 2^-64, and R >= K
        samp = _ZSampler(s_sq)
        R = dgauss._cdt(samp, 2)[-1]
        assert R >= samp.K
        for f_num in (-1, 0, 1):
            assert dgauss._cdf_interval(samp, f_num, 2, 160, -R)[1] < Fraction(1, 1 << 64)
            assert 1 - dgauss._cdf_interval(samp, f_num, 2, 160, R - 1)[0] < Fraction(1, 1 << 64)

    @pytest.mark.parametrize("c_den", [1, 3, 5, 257])
    @pytest.mark.parametrize("s_sq", [_FLOOR_SQ, Fraction(16, 9)])
    def test_inverted_law_matches_the_pmf(self, s_sq, c_den):
        # 60k draws per center fraction at centers k + f, k spread over
        # +-2^40 and f among up to three fractions f_num / c_den; x - k
        # against D_{Z,s,f}
        fracs = sorted({0, c_den // 2, -(c_den // 3)})
        n = 60_000 * len(fracs)
        ks = np.random.default_rng(2).integers(-(1 << 40), 1 << 40, n)
        c_num = c_den * ks + np.array(fracs)[np.arange(n) % len(fracs)]
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_ZSampler, "_draw_block", lambda *args: calls.append(1))
            draws, counts, _ = _draw_z_array(s_sq, c_num, c_den, derive_np_rng(9, "cdt", c_den),
                                             derive_rng(9, "cdt", c_den), c_den << 40)
        assert not calls and counts.proposals == counts.draws == n
        radius = 12 * math.sqrt(float(s_sq)) + 2
        for g, f_num in enumerate(fracs):
            pmf = pmf_bruteforce(enum_z(), GaussParam(s_sq=s_sq, c=(Fraction(f_num, c_den),)),
                                 radius)
            res = empirical_similarity((draws - ks)[g::len(fracs)], pmf)
            assert res.chi2_p >= 1e-3
            assert res.excess(4.5) <= 0.0

    @pytest.mark.parametrize("u, word, side", [(0.0, 0, -1), (1 - 2.0 ** -53, (1 << 53) - 1, 1)],
                             ids=["zero", "top"])
    def test_extreme_uniforms_go_exact_and_leave_the_table(self, u, word, side):
        # U = 0 and U = 1 - 2^-53 lie in no bin the float margin can place
        # them in, so both go exact; with the next 2 exact words all zeros
        # (all ones), U is within 2^-159 of 0 (of 1), and the draw lands past
        # the table's radius R on that side, within the returned bound
        s_sq = Fraction(9)
        samp = dgauss._sampler(s_sq)
        R = dgauss._cdt(samp, 3)[-1]
        for exact_rng, past in ((random.Random(0), False), (_ZeroBits(word, 2), True)):
            rng = ScriptedUniforms(derive_np_rng(1, "ends"), [u])
            out, counts, bound = _draw_z_array(s_sq, int_array([3 * 7 + 1]), 3, rng, exact_rng, 22)
            (x,) = out.tolist()
            assert counts.fallbacks == 1 and counts.proposals == 1
            assert abs(x - 7) <= bound - 8 and samp.K <= bound - 8
            assert (side * (x - 7) > R) == past

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_blocks_are_inverted_within_the_cap(self, dtype):
        # a block is inverted iff (c_den + 1) (2 R + 2) <= _TABLE_CAP,
        # whatever its numerators' dtype; past the cap (and at c_den = 2^62)
        # it runs the rejection rounds
        samp = dgauss._sampler(Fraction(16, 9))
        R = dgauss._cdt(samp, 1)[-1]
        edge = dgauss._TABLE_CAP // (2 * R + 2) - 1
        for c_den, inverted in ((edge, True), (edge + 1, False), (1 << 62, False)):
            paths = []
            with pytest.MonkeyPatch.context() as mp:
                for name in ("_draw_block", "_invert_block"):
                    def spy(self, *args, _name=name, _fn=getattr(_ZSampler, name)):
                        paths.append(_name)
                        return _fn(self, *args)
                    mp.setattr(_ZSampler, name, spy)
                c_num = np.array([c_den + 1, -c_den - 1], dtype=dtype)
                _draw_z_array(Fraction(16, 9), c_num, c_den, derive_np_rng(0, "cap"),
                              derive_rng(0, "cap"), c_den + 1)
            assert paths == ["_invert_block" if inverted else "_draw_block"]


def _bisected_tail_step(samp, u, rng):
    """The tail step's exact inversion as it was before ``_least``: bisection
    between float bounds on q that exact comparisons verify first."""
    lu = _LazyUniform(int(u * (1 << 53)), 53)
    while lu.num == 0:
        lu.extend(rng)
    rate = samp.rate * samp.M
    ln_lo = math.log(lu.num) - lu.bits * math.log(2.0)
    ln_hi = math.log(lu.num + 1) - lu.bits * math.log(2.0)
    lo = max(0, math.floor(-ln_hi / rate * (1 - 1e-9)) - 1)
    hi = math.floor(-ln_lo / rate * (1 + 1e-9)) + 2

    def below(k):
        return _decide_exact(samp.gamma * samp.M * k, lu, rng)

    if not below(lo):
        lo = 0
    while below(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _walked_inversion(samp, f_num, c_den, t, u, rng):
    """The table's exact inversion as it was before ``_least``: one-step walks
    from the float answer t, down while U < F_f(k - 1), up while U >= F_f(k)."""
    lu = _LazyUniform(int(u * (1 << 53)), 53)

    def below(k):
        return dgauss._decide(lu, rng, lambda prec: dgauss._cdf_interval(samp, f_num, c_den,
                                                                          prec, k))

    if below(t):
        while below(t - 1):
            t -= 1
        return t
    t += 1
    while not below(t):
        t += 1
    return t


# A 53-bit uniform at a boundary's cell, or one cell to either side of it;
# among the first four (of U near 0); or among the last four (next to 1).
_SEARCH_UNIFORMS = st.one_of(st.tuples(st.just("at"), st.integers(-1, 1)),
                             st.tuples(st.just("low"), st.integers(0, 3)),
                             st.tuples(st.just("top"), st.integers(0, 3)))
# The exact stream's first n words: 0-3 (U's later bits near the bottom of
# its cell) or all ones (near the top)
_FIRST_WORDS = st.tuples(st.sampled_from([0, 1, 2, 3, (1 << 53) - 1]), st.integers(0, 2))


class TestExactSearch:
    """``_least``, and the three exact searches built on it: the tail step,
    the table's inversion and the table's radius."""

    @staticmethod
    def _u53(u, boundary: int) -> int:
        kind, v = u
        u53 = boundary + v if kind == "at" else v if kind == "low" else (1 << 53) - 1 - v
        return min(max(u53, 0), (1 << 53) - 1)

    @staticmethod
    def _state(stream):
        return stream._n, stream._rng.getstate()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(-(1 << 70), 1 << 70), t=st.integers(-(1 << 70), 1 << 70))
    @example(n=0, t=0)
    @example(n=5, t=4)
    def test_least_finds_the_boundary_from_any_guess(self, n, t):
        calls = []

        def holds(k):
            calls.append(k)
            return k >= n

        assert dgauss._least(holds, t) == n
        assert len(calls) <= 2 * (abs(n - t) + 1).bit_length()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(s_sq=_TAIL_WIDTHS_SQ, k=st.integers(0, 1 << 40), u=_SEARCH_UNIFORMS,
           words=_FIRST_WORDS)
    def test_tail_step_matches_the_bisection(self, s_sq, k, u, words):
        # the same q and the same exact-stream state as the float-bracketed
        # bisection, at and beside a boundary g^(M k), near 0 and next to 1;
        # no comparison is made at an exponent gamma M k <= 0
        samp = _ZSampler(s_sq)
        rate = samp.rate * samp.M
        k %= math.floor(36.0 / rate) + 1
        u53 = self._u53(u, int(math.exp(-rate * k) * (1 << 53)))
        ours, theirs = _ZeroBits(*words), _ZeroBits(*words)
        exponents = []

        def decide_exact(a, lu, rng, _fn=dgauss._decide_exact):
            exponents.append(a)
            return _fn(a, lu, rng)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dgauss, "_decide_exact", decide_exact)
            q = samp._geometric_exact(u53 / (1 << 53), ours)
        assert q == _bisected_tail_step(samp, u53 / (1 << 53), theirs)
        assert self._state(ours) == self._state(theirs)
        assert exponents and min(exponents) > 0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(s_sq=st.sampled_from(_INVERTED_SQ), c_den=st.sampled_from([1, 3, 5, 257]),
           f_pos=st.integers(0, 1 << 20), k_pos=st.integers(0, 1 << 20), u=_SEARCH_UNIFORMS,
           guess=st.one_of(st.integers(-40, 40), st.sampled_from(["-R", "R"])),
           words=_FIRST_WORDS)
    def test_table_inversion_matches_the_walks(self, s_sq, c_den, f_pos, k_pos, u, guess,
                                                words):
        # the same k and the same exact-stream state as the one-step walks,
        # at and beside a boundary F_f(k) of the row, near 0 and next to 1,
        # from guesses near k and at the ends of the table
        samp = dgauss._sampler(s_sq)
        R = dgauss._cdt(samp, c_den)[-1]
        f_num = f_pos % (2 * (c_den // 2) + 1) - c_den // 2
        k = k_pos % (2 * R) - R
        lo, _ = dgauss._cdf_interval(samp, f_num, c_den, 128, k)
        u53 = self._u53(u, math.floor(lo * (1 << 53)))
        t = -R if guess == "-R" else R if guess == "R" else k + guess
        ours, theirs = _ZeroBits(*words), _ZeroBits(*words)
        assert samp._invert_exact(f_num, c_den, t, u53 / (1 << 53), ours) == \
            _walked_inversion(samp, f_num, c_den, t, u53 / (1 << 53), theirs)
        assert self._state(ours) == self._state(theirs)

    @pytest.mark.parametrize("s, R", [(100, 383), (1000, 3913), (4000, 15870), (10000, 40034),
                                      (20000, 80610)])
    def test_radius_at_wide_widths(self, s, R):
        # the radius the one-step search found, above its proven floor
        samp = _ZSampler(Fraction(s * s))
        assert dgauss._cdt_radius(samp) == R
        assert samp.K <= dgauss._radius_floor(samp) < R

    def test_a_floor_past_the_cap_makes_no_table_and_no_search(self, monkeypatch):
        # s = 5000: 2 (2 floor + 2) passes _TABLE_CAP, though 4 K + 4 does not
        samp = _ZSampler(Fraction(5000 ** 2))
        assert 4 * samp.K + 4 <= dgauss._TABLE_CAP
        monkeypatch.setattr(dgauss, "_cdt_radius", lambda samp: pytest.fail("searched"))
        assert dgauss._cdt(samp, 1) is None


def _window_first_draw_block(samp, f_num, c_den, rng, exact_rng, counts):
    """``_ZSampler._draw_block`` with its decisions split by kind: every round
    decides its window proposals first, then draws a side and a step for
    every tail proposal and decides those with an ``_offset_p`` call of
    their own."""
    t_out, top = np.empty(0, dtype=np.int64), 0
    pending = np.arange(len(f_num))
    none = np.empty(0, dtype=np.int64)
    while pending.size:
        k = min(-(-dgauss._ROUND_MIN // pending.size), samp.k_s)
        n = pending.size * k
        counts.proposals += n
        u_sel = rng.random(n)
        t = rng.integers(-samp.K, samp.K + 1, n)
        u = rng.random(n)
        rows = pending.repeat(k)
        f = 0.0 if c_den == 1 else np.asarray(f_num[rows] / c_den, dtype=float)
        lo, hi = dgauss._thresholds(samp._offset_p(t, f, none))
        accept, maybe = u < lo, u <= hi
        tail = (u_sel >= samp.p_window - dgauss._SELECT_MARGIN).nonzero()[0]
        if tail.size:
            u_sel = u_sel[tail]
            if u_sel.min() <= samp.p_window + dgauss._SELECT_MARGIN:
                near = u_sel <= samp.p_window + dgauss._SELECT_MARGIN
                for i in near.nonzero()[0]:
                    counts.fallbacks += 1
                    near[i] = samp._select_window_exact(float(u_sel[i]), exact_rng)
                tail = tail[~near]
        if tail.size:
            neg = rng.random(tail.size) < 0.5
            steps = samp._tail_steps(tail.size, rng, exact_rng, counts)
            top_round = int(steps.max())
            top = max(top, top_round)
            t_tail = samp._tail_offsets(neg, steps, top_round)
            t = t.astype(t_tail.dtype, copy=False)
            t[tail] = t_tail
            f_tail = f if c_den == 1 else f[tail]
            lo, hi = dgauss._thresholds(samp._offset_p(t_tail, f_tail, np.arange(tail.size)))
            u_tail = u[tail]
            accept[tail], maybe[tail] = u_tail < lo, u_tail <= hi
        first, done = dgauss._first_accepts(accept, k)
        for i in (maybe != accept).nonzero()[0]:
            r = i // k
            if done[r] and first[r] < i:
                continue
            counts.fallbacks += 1
            if samp._accept_exact(int(t[i]), int(f_num[pending[r]]), c_den,
                                  float(u[i]), exact_rng):
                done[r] = True
                if k > 1:
                    first[r] = i
        pick = t if k == 1 else t[first]
        if not t_out.size:
            t_out = pick
        else:
            if pick.dtype == object:
                t_out = t_out.astype(object, copy=False)
            t_out[pending] = pick
        pending = pending[(~done).nonzero()[0]]
    return t_out, top


class TestRoundOrder:
    """The rejection rounds draw every tail proposal's side and step before
    deciding anything, and decide window and tail proposals in one
    ``_offset_p`` call: the same offsets, tail steps, counts and generator
    states as deciding window proposals first and tail proposals apart."""

    @staticmethod
    def _compare(samp, f_num, c_den, seed):
        got = []
        for block in (samp._draw_block, partial(_window_first_draw_block, samp)):
            rng, exact_rng = derive_np_rng(seed, "order"), derive_rng(seed, "order", "exact")
            counts = SamplerCounts()
            t, top = block(f_num, c_den, rng, exact_rng, counts)
            got.append((t.dtype, t.tolist(), top, counts, repr(rng.bit_generator.state),
                        exact_rng.getstate()))
        assert got[0] == got[1]
        return got[0]

    @staticmethod
    def _numerators(c_den, wide, size, seed):
        half = c_den // 2
        f_num = np.random.default_rng(seed).integers(-half, half + 1, size)
        return f_num.astype(object) if wide else f_num

    # The rounds serve the draws that no inversion table holds (c_den =
    # 2713 at s^2 = 144 and 2^17 pass the cap, as every c_den does at s^2 =
    # 2^40); called directly, they take any block, object numerators too
    @pytest.mark.parametrize("size", [1, 1023, 1024, 16384])
    @pytest.mark.parametrize("c_den, wide", [(1, False), (5, False), (257, False),
                                             (2713, False), (1 << 17, False), (5, True)])
    @pytest.mark.parametrize("s_sq", [_FLOOR_SQ, Fraction(16, 9), Fraction(144),
                                      Fraction(6400, 257), Fraction(1 << 40)])
    def test_matches_window_first_rounds(self, s_sq, c_den, wide, size):
        samp = _ZSampler(s_sq)
        t_dtype, _, top, counts, _, _ = self._compare(
            samp, self._numerators(c_den, wide, size, size), c_den, size)
        assert counts.proposals >= size and t_dtype == np.int64

    @pytest.mark.parametrize("size", [1, 1024, 3000])
    @pytest.mark.parametrize("s_sq, c_den", [(Fraction(9), 3), (Fraction(144), 2713),
                                             (Fraction(1 << 60), 3)])
    def test_matches_with_forced_fallbacks(self, s_sq, c_den, size, monkeypatch):
        # wide float margins send window selections, accept/reject tests
        # and (at s^2 = 2^60) tail remainders to exact arithmetic
        monkeypatch.setattr(dgauss, "_REL_ERR", 0.3)
        monkeypatch.setattr(dgauss, "_SELECT_MARGIN", 0.02)
        _, _, _, counts, _, _ = self._compare(
            _ZSampler(s_sq), self._numerators(c_den, False, size, size), c_den, size)
        assert counts.fallbacks > 0

    def test_tail_offsets_past_int64_match(self):
        # every proposal of a one-proposal round is a tail proposal past
        # int64 ("past" in the sampler pins), in both orders
        s_sq = Fraction(17, 10) * (1 << 124)
        samp = _ZSampler(s_sq)
        j_min = (1 << 63) - samp.K + (1 << 59)
        u_q = math.floor(math.exp(-samp.rate * j_min) * (1 << 53)) / (1 << 53)
        got = []
        for block in (samp._draw_block, partial(_window_first_draw_block, samp)):
            rng = ScriptedUniforms(derive_np_rng(2, "past"), [1 - 2.0 ** -53, 0.0, None, u_q])
            counts = SamplerCounts()
            t, top = block(np.zeros(1024, dtype=np.int64), 1, rng, derive_rng(2, "past"),
                           counts)
            got.append((t.dtype, t.tolist(), top, counts, repr(rng._rng.bit_generator.state)))
        assert got[0] == got[1] and got[0][0] == object and got[0][2] >= j_min


def test_lazy_exact_stream_is_the_derived_stream():
    # seeded at its first read, never before, with derive_rng's stream
    lazy = LazyRandom(5, "z", "exact")
    assert lazy._rng is None
    ref = derive_rng(5, "z", "exact")
    assert [lazy.getrandbits(53) for _ in range(4)] == [ref.getrandbits(53) for _ in range(4)]


class TestSampleZn:
    @pytest.mark.parametrize("n, rows", [(0, 1), (-3, 1), (2, -1)])
    def test_shape_preconditions(self, n, rows):
        with pytest.raises(PreconditionViolated):
            sample_zn_rows(GaussParam.make(s=3), n, rows, derive_rng(0))

    def test_negative_width_rejected(self):
        with pytest.raises(PreconditionViolated, match="s > 0"):
            GaussParam.make(s=-2)

    @pytest.mark.parametrize("call, fragment", [
        pytest.param(lambda: GaussParam.make(s=3, s_sq=9), "give exactly one of s, s_sq",
                     id="both-widths"),
        pytest.param(lambda: GaussParam.make(), "give exactly one of s, s_sq", id="no-width"),
        pytest.param(lambda: GaussParam.make(s_sq=0), "width must satisfy s > 0", id="s-sq-zero"),
        pytest.param(lambda: GaussParam(s_sq=Fraction(-1), c=(Fraction(0),)),
                     "width must satisfy s > 0", id="s-sq-negative"),
        pytest.param(lambda: sample_zn_rows(GaussParam.make(s=3, c=(0, 1)), 3, 1, derive_rng(0)),
                     "center has length 2, expected 3", id="center-length"),
    ])
    def test_typed_refusals(self, call, fragment):
        with pytest.raises(PreconditionViolated, match=re.escape(fragment)):
            call()

    def test_width_precondition_scales_with_n(self):
        s_edge = math.sqrt(math.log(2 * 64 + 4) / math.pi)
        with pytest.raises(WidthTooSmall):
            sample_zn_rows(GaussParam.make(s=s_edge * 0.9), 64, 1, derive_rng(0))

    @pytest.mark.parametrize("n, rows", [(1, 10 ** 12), (10 ** 12, 0)])
    def test_memory_budget(self, n, rows):
        # refused before the per-coordinate centers or any draw are built
        with pytest.raises(BudgetExceeded, match="memory budget"):
            sample_zn_rows(GaussParam.make(s=3), n, rows, derive_rng(0))

    @pytest.mark.parametrize("s_sq", [_FLOOR_SQ, Fraction(144)])
    def test_one_entry_calls_keep_the_law(self, s_sq):
        # 10k single-draw calls, each one round of at most k_s proposals: at
        # the floor (K = 2, the lowest acceptance and the largest k_s) and at
        # s^2 = 144, both at c = 0.3
        param = GaussParam(s_sq=s_sq, c=(Fraction(3, 10),))
        rng = derive_rng(43, "one-entry")
        draws = [int(sample_zn_rows(param, 1, 1, rng)[0, 0]) for _ in range(10_000)]
        pmf = pmf_bruteforce(enum_z(), param, 12 * math.sqrt(float(s_sq)) + 2)
        res = empirical_similarity(draws, pmf)
        assert res.chi2_p >= 1e-3
        assert res.excess(4.5) <= 0.0

    def test_moments_against_pmf_oracle(self):
        param = GaussParam.make(s=3, c=0)
        k, p = pmf_bruteforce(enum_z(), param, radius=45)
        mean = k[:, 0] @ p
        var = (k[:, 0] - mean) ** 2 @ p
        m4 = (k[:, 0] - mean) ** 4 @ p
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
        means = [k[:, 0] @ p for k, p in (pmf_a, pmf_b)]
        sds = [math.sqrt((k[:, 0] - mu) ** 2 @ p) for (k, p), mu in zip((pmf_a, pmf_b), means)]
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


class TestEnumerators:
    """Each enumerator returns exactly the points of its box that an
    itertools.product oracle over Python integers finds, in the same
    row-major order."""

    @staticmethod
    def _product(lo, hi):
        return list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))

    @staticmethod
    def _rows(pts):
        return list(map(tuple, pts.tolist()))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), m=st.integers(1, 3), R=st.floats(0, 4),
           offset=st.sampled_from([0, 0.5, 0.25, Fraction(1, 3)]),
           alpha=st.sampled_from([1, 0.5, 1.5, Fraction(5, 2)]),
           q=st.sampled_from([2, 3, 5, 7, 257]))
    def test_points_match_a_python_oracle(self, data, m, R, offset, alpha, q):
        c = data.draw(st.lists(st.floats(-5, 5), min_size=m, max_size=m))
        A = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=m, max_size=m),
                               min_size=1, max_size=m))
        # the box bounds in exact rational arithmetic
        cf, r = [Fraction(ci) for ci in c], Fraction(R)
        lo = [math.floor(ci - r) for ci in cf]
        hi = [math.ceil(ci + r) for ci in cf]
        assert self._rows(enum_z()(R, c)) == self._product(lo[:1], hi[:1])
        off = float(offset)
        assert self._rows(enum_coset_z(offset)(R, c)) == [
            (k + off,) for (k,) in self._product([math.floor(cf[0] - r - Fraction(offset))],
                                                [math.ceil(cf[0] + r - Fraction(offset))])]
        a = float(alpha)
        assert self._rows(enum_scaled_zn(alpha, m)(R, c)) == [
            tuple(k * a for k in p) for p in self._product(
                [math.floor((ci - r) / Fraction(alpha)) for ci in cf],
                [math.ceil((ci + r) / Fraction(alpha)) for ci in cf])]
        pts = enum_qary(np.array(A), q)(R, c)
        assert pts.dtype == np.int64
        assert self._rows(pts) == [
            x for x in self._product(lo, hi)
            if all(sum(ai * xi for ai, xi in zip(row, x)) % q == 0 for row in A)]

    def test_slices_walk_the_same_rows(self, monkeypatch):
        # a box walked five rows at a time keeps the rows, in the same order,
        # that one slice keeps
        A, c = np.array([[1, 2, 1], [0, 1, 3]]), [0.3, -1.2, 2.0]
        whole = enum_qary(A, 5)(3.5, c)
        monkeypatch.setattr(oracles, "_SLICE_ROWS", 5)
        assert np.array_equal(enum_qary(A, 5)(3.5, c), whole)
        assert np.array_equal(enum_z()(3.5, c), np.arange(-4.0, 5.0)[:, None])

    def test_centers_past_2_53_are_not_rounded(self):
        # the center 2^53 + 1 has no float; split exactly, its pmf's mode
        # is the center itself, with its exact mass 1 / sum exp(-pi k^2 / 4)
        points, probs = pmf_bruteforce(enum_z(), GaussParam(s_sq=4, c=(2 ** 53 + 1,)), 6)
        assert points[probs.argmax(), 0] == 2 ** 53 + 1
        mass = 1 / sum(math.exp(-math.pi * k * k / 4) for k in range(-7, 8))
        assert probs.max() == pytest.approx(mass, rel=1e-12)

    def test_z_points_are_int64(self):
        # Z's points are the box's own integers, with no float offset added
        assert enum_z()(3.5, [0.3]).dtype == np.int64

    def test_kept_points_budget_stops_the_walk_at_its_slice(self, monkeypatch):
        # 243 of the box's 729 rows lie in the kernel; with a budget of 40
        # kept points the walk stops at the slice that passes it
        A = np.array([[1, 2, 1, 0, 0, 0]])
        assert len(enum_qary(A, 3)(1, [0.0] * 6)) == 243
        monkeypatch.setattr(oracles, "_SLICE_ROWS", 100)
        monkeypatch.setattr(oracles, "_POINTS_BUDGET", 40)
        kept, walk = [], oracles._walk

        def spy(*args):
            for rows in walk(*args):
                kept.append(len(rows))
                yield rows

        monkeypatch.setattr(oracles, "_walk", spy)
        with pytest.raises(BudgetExceeded, match="kept points"):
            enum_qary(A, 3)(1, [0.0] * 6)
        assert sum(kept[:-1]) <= 40 < sum(kept) and len(kept) < 8

    @pytest.mark.parametrize("call", [
        lambda: enum_qary(np.array([[1, 2, 1, 0], [2, 1, 0, 1]]), 3)(80, [0.0] * 4),
        lambda: lambda1_inf_bruteforce(np.ones((4, 6), dtype=np.int64), 257),
        lambda: enum_z()(1e7, [0.0]),
        lambda: enum_scaled_zn(1, 3)(100, [0.0] * 3),
        lambda: eta_qary_bruteforce(np.ones((3, 6), dtype=np.int64), 257, 0.01),
        lambda: eta_qary_bruteforce(np.ones((1, 9), dtype=np.int64), 139, 0.01),
    ], ids=["qary-rows", "lambda1-rows", "z-points", "scaled-points", "eta-syndromes",
            "eta-codes"])
    def test_boxes_past_a_budget_are_refused_at_once(self, call):
        # each budget is checked before the rows it limits are made: boxes
        # of 161^4 and 257^4 rows pass the rows budget, and unfiltered boxes
        # of 2e7 + 1, 201^3 and 257^3 rows (each under it) the points budget.
        # The dual box's residue codes need q^m <= 2^63 (139^9 is past it).
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.slow
    def test_two_row_kernel_box_at_radius_36(self):
        # [[1,2,1,0],[2,1,0,1]] mod 3 at radius 36: 73^4 = 28.4M box rows,
        # walked in slices, of which 3,156,577 lie in the kernel.  The peak
        # is the kept slices and their concatenation (2 x 101 MB) plus one
        # slice's transients: within 2 x the result + 16 MiB.
        tracemalloc.start()
        try:
            pts = enum_qary(np.array([[1, 2, 1, 0], [2, 1, 0, 1]]), 3)(36, [0.0] * 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pts.shape == (3_156_577, 4)
        assert not np.any((pts[:, 0] + 2 * pts[:, 1] + pts[:, 2]) % 3)
        assert peak < 2 * pts.nbytes + (16 << 20)


class TestFormulas:
    def test_eta_zn_values(self):
        assert eta_zn_bound(1, 1.0) == pytest.approx(math.sqrt(math.log(4) / math.pi), rel=1e-12)
        assert eta_zn_bound(1, 1.0) == pytest.approx(0.66428, abs=1e-4)
        assert eta_zn_bound(512, 2.0**-20) == pytest.approx(2.5728, abs=1e-3)

    def test_eta_zn_monotone(self):
        assert eta_zn_bound(1, 0.5) > eta_zn_bound(1, 1.0) > eta_zn_bound(1, 2.0)
        assert eta_zn_bound(8, 0.01) > eta_zn_bound(4, 0.01)

    @pytest.mark.parametrize("eps", [0.0, -0.5, math.nan])
    def test_bounds_need_a_positive_epsilon(self, eps):
        with pytest.raises(PreconditionViolated, match="epsilon > 0"):
            eta_zn_bound(4, eps)
        with pytest.raises(PreconditionViolated, match="epsilon > 0"):
            eta_qary_bound(2, 8, 257, eps)

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
        _, probs = pmf_bruteforce(enum_scaled_zn(1, 2), GaussParam.make(s=s, c=(0.3, 0.7)),
                                  radius=12 * s)
        assert probs.max() <= min_entropy_bound(2, eps)


class TestEmpiricalSimilarity:
    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            empirical_similarity([0] * 100, ([0], [1.0]))

    def test_coverage_precondition(self):
        with pytest.raises(PreconditionViolated):
            empirical_similarity([0] * 20_000, ([0], [0.5]))

    def test_null_hypothesis_sane(self):
        param = GaussParam.make(s=3, c=0)
        pmf = pmf_bruteforce(enum_z(), param, radius=45)
        rng = derive_rng(23, "null")
        draws = sample_zn_rows(param, 1, 50_000, rng)
        res = empirical_similarity(draws, pmf)
        assert res.chi2_p >= 1e-3
        assert res.n_bins >= 5

    def test_detects_wrong_width(self):
        wide = GaussParam.make(s=3 * math.sqrt(2), c=0)
        narrow_pmf = pmf_bruteforce(enum_z(), GaussParam.make(s=3, c=0), radius=60)
        rng = derive_rng(29, "power")
        draws = sample_zn_rows(wide, 1, 100_000, rng)[:, 0]
        draws = draws[np.isin(draws, narrow_pmf[0])]
        res = empirical_similarity(draws, narrow_pmf)
        assert res.chi2_p < 1e-6

    @pytest.mark.parametrize("points, outside", [
        ([[0], [1], [2], [4]], [[3], [9]]),
        ([[0, 0, 0], [1, -1, 2], [-2, 3, 1], [4, 0, -1]], [[0, 0, 1], [0, -1, 4]]),
    ], ids=["one-coordinate", "three-coordinates"])
    def test_tail_cell_pools_unbinned_points_and_outside_samples(self, points, outside,
                                                                  monkeypatch):
        # 10,000 samples against probs (0.5, 0.3, 0.198, 0.002): the last point
        # (expected count 20 < 25) and 30 samples off the points (15 inside
        # their bounding box, 15 outside it) share the tail cell, observed
        # 10 + 30 = 40 against 20 expected.  chi2 = 60^2/5000 + 20^2/3000 +
        # 20^2/1980 + 20^2/20 on 3 + 1 - 1 = 3 dof.  Packed over the points'
        # bounding box, (0, -1, 4) would take the key of (0, 0, 0).
        calls, chdtrc = [], scipy.special.chdtrc

        def spy(dof, stat):
            calls.append((dof, stat))
            return chdtrc(dof, stat)

        monkeypatch.setattr(scipy.special, "chdtrc", spy)
        counts = [4940, 3020, 2000, 10, 15, 15]
        rows = np.repeat(np.array(points + outside), counts, axis=0)
        rows = np.random.default_rng(0).permutation(rows)
        res = empirical_similarity(rows, (np.array(points), [0.5, 0.3, 0.198, 0.002]))
        [(dof, stat)] = calls
        assert dof == 3
        assert stat == pytest.approx(0.72 + 400 / 3000 + 400 / 1980 + 20, rel=1e-12)
        assert res.chi2_p == float(chi2.sf(stat, 3)) and res.n_bins == 3
        assert res.bins[0].tolist() == points[:3] and res.bins[1].tolist() == [4940, 3020, 2000]
        assert res.bins[3] == pytest.approx(np.log([0.988, 3020 / 3000, 2000 / 1980]), rel=1e-12)

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
        diffs = x - y
        pmf = pmf_bruteforce(enum_coset_z(half),
                             GaussParam.make(s_sq=Fraction(2) * Fraction(s) ** 2, c=0),
                             radius=60)
        res = empirical_similarity(diffs, pmf)
        # eps from inverting the Z smoothing bound at s/sqrt(2)
        eps = 2.0 / (math.exp(math.pi * (s / math.sqrt(2)) ** 2) / 1 - 2)
        assert res.excess(4.5) <= 3 * eps + 1e-9
        assert res.chi2_p >= 1e-3


class TestChiSquarePValue:
    """``empirical_similarity`` takes its p-value from ``scipy.special.chdtrc``,
    the kernel of ``scipy.stats.chi2.sf``, which it loads on first use."""

    # dof 1-59, 100, 499, 1000, 2900 and 5000, at x = dof + z sqrt(2 dof)
    # for z from -3 to 7 in steps of 1/4: 2624 points.  A statistic is never
    # negative (chdtrc gives nan there, chi2.sf 1), so x is clipped at 0.
    DOFS = np.array(list(range(1, 60)) + [100, 499, 1000, 2900, 5000], dtype=float)
    Z = np.arange(-12, 29) / 4

    def test_kernel_is_chi2_sf_bit_for_bit(self):
        dof, z = np.meshgrid(self.DOFS, self.Z)
        x = np.maximum(dof + z * np.sqrt(2 * dof), 0.0)
        assert x.size == 2624
        assert np.array_equal(scipy.special.chdtrc(dof, x), chi2.sf(x, dof))

    def test_seeded_sample_matches_chi2_sf(self, monkeypatch):
        calls, chdtrc = [], scipy.special.chdtrc

        def spy(dof, stat):
            calls.append((dof, stat))
            return chdtrc(dof, stat)

        monkeypatch.setattr(scipy.special, "chdtrc", spy)
        param = GaussParam.make(s=3, c=0.25)
        pmf = pmf_bruteforce(enum_z(), param, radius=45)
        draws = sample_zn_rows(param, 1, 20_000, derive_rng(37, "pvalue"))
        res = empirical_similarity(draws, pmf)
        [(dof, stat)] = calls
        assert dof >= 5 and stat > 0
        assert res.chi2_p == float(chi2.sf(stat, dof))

    def test_two_dof_closed_form(self):
        # expected counts 5000, 2500, 2500; chi2 = 2 + 1 + 1 on 2 dof
        pmf = ([0, 1, 2], [0.5, 0.25, 0.25])
        res = empirical_similarity([0] * 5100 + [1] * 2450 + [2] * 2450, pmf)
        assert abs(res.chi2_p / math.exp(-2.0) - 1) <= 1e-13
        x = np.linspace(0, 200, 801)
        assert np.all(np.abs(scipy.special.chdtrc(2, x) / np.exp(-x / 2) - 1) <= 1e-13)

    def test_zero_statistic_gives_one(self):
        res = empirical_similarity([0, 1, 2, 3] * 2500, (range(4), [0.25] * 4))
        assert res.chi2_p == 1.0

    def test_import_defers_scipy_special(self):
        out = run_fresh(
            "import sys\n"
            "import wagnersis, wagnersis.cli\n"
            "print(*(m in sys.modules for m in ('scipy', 'scipy.stats', 'scipy.special')))\n"
            "from wagnersis.oracles import empirical_similarity\n"
            "res = empirical_similarity([0, 1] * 5000, ([0, 1], [0.5, 0.5]))\n"
            "print(res.chi2_p, 'scipy.special' in sys.modules)\n")
        assert out.split("\n") == ["True False False", "1.0 True", ""]


class TestEtaBruteforce:
    def test_zn_close_to_formula_bound(self):
        eps = 2.0**-10
        brute = eta_scaled_zn_bruteforce(1.0, 3, eps)
        assert brute <= eta_zn_bound(3, eps) + 1e-9
        assert brute >= 0.5 * eta_zn_bound(3, eps)

    def test_scaled_lattice_scales(self):
        eps = 2.0**-8
        base = eta_scaled_zn_bruteforce(1.0, 2, eps)
        scaled = eta_scaled_zn_bruteforce(Fraction(5, 2), 2, eps)
        assert scaled == pytest.approx(2.5 * base, rel=1e-6)

    def test_qary_enumeration(self):
        A = np.array([[1, 2, 1]])
        eta = eta_qary_bruteforce(A, 3, 2.0**-12)
        assert 1.0 < eta < 6.0
