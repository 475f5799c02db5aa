"""Exact discrete Gaussian sampling over Z and Z^n, and its width checks;
the brute-force and statistical oracles that test it live in ``oracles``.

Sampler design.  The base sampler draws from D_{Z,s,c} (density
proportional to exp(-pi (x-c)^2 / s^2)) as round(c) + D_{Z,s,f}, where the
center is split exactly, in integer arithmetic, as c = round(c) + f with
|f| <= 1/2 (integer centers skip the split: f = 0).  A call has one width
and one center denominator c_den, so its offsets follow at most c_den + 1
laws D_{Z,s,f}, f = f_num / c_den.  Where their CDFs F_f fit one table
(``_cdt``, at most _TABLE_CAP entries: every draw of the initial lists and
stage offsets at desk scale), an offset is drawn by inversion, the CDT
design of Peikert ("An Efficient and Parallel Gaussian Sampler for
Lattices", CRYPTO 2010): the least k with U < F_f(k), for one uniform U.
Floats decide k when the uniform's 53-bit cell lies more than a margin
inside its float bin; otherwise ``_least`` finds k by exact comparisons of
U with rational enclosures of F_f, whose normalizer is a finite sum plus a
proven geometric tail bound, so the law covers all of Z.

Other draws (widths whose table passes the cap, and a c_den past it, such
as a binary center's) are drawn by rejection from a proposal that covers
all of Z: a uniform window of half-width K = max(2, ceil(0.75 s)) glued to
two geometric tails of ratio g = exp(-pi gamma), whose envelope exp(-pi
(tau + gamma j)) at |t| = K + j, with exact rationals tau and gamma,
dominates the Gaussian for every |f| <= 1/2.  These constants depend on
s^2 alone, so one ``_ZSampler`` per width serves every center; a draw takes
about 1.6 proposals at large widths.  A tail step j - 1 = M q + r is drawn
in bounded work at any width: q by inversion, floor(-ln U / (pi gamma M)),
decided exactly by ``_least`` when the float inversion cannot separate the
uniform's cell from a boundary, and r in [0, M) by rejection once the mean
step passes 2^21.  Every accept/reject comparison is a Bernoulli test "U <
exp(-pi b)" with rational b >= 0 (b = (t-f)^2 / s^2 in the window, less the
envelope's exponent in the tails), evaluated in double precision with a
constant relative margin and escalated to exact rational interval
arithmetic whenever the margin cannot separate U from the probability.
Only f, the offset and the step enter the float arithmetic, so neither the
margin nor the cost grows with |c|, and the sampled law carries no
floating-point statistical gap.  Window offsets are int64 (the window 2K +
1 must stay below 2^63); tail offsets and draws not proven to fit in int64
come back as Python integers.

One entry point runs this sampler: ``_draw_z_array`` draws one value per
entry of an array of centers, in blocks that ``_invert_block`` inverts or
``_draw_block`` draws in rounds of proposals; the initial lists, the stage
offsets and ``sample_zn_rows`` call it.  A proposal's float thresholds p -+
(_REL_ERR p + _ABS_ERR), p the acceptance exp(-pi (t - f)^2 / s^2) in the
window and exp(-pi b) at a tail step, come from ``_offset_p``.  Undecided
comparisons go to ``_invert_exact``, ``_select_window_exact``,
``_geometric_exact`` and ``_decide_exact``, which share one interval
refinement loop, ``_decide``.  Stream contract: an inverted block takes one
uniform per entry from the NumPy generator, in entry order, and its exact
inversions take their fresh bits from the exact stream in entry order; a
round is fixed by the order of its generator calls, the order of its exact
decisions and ``_offset_p``'s floats.  Which draws go exact (the float
margins) fixes the exact stream's use; the arithmetic may change freely
otherwise.  Widths are exact rationals s^2 (``s_sq``), so sqrt(2)^i * s0 is
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Tuple

import numpy as np

from .errors import BudgetExceeded, PreconditionViolated, WidthTooSmall
from .rngutil import LazyRandom, derive_np_rng
from .zqlin import _INT64_SAFE, _MEM_BUDGET_BYTES, int_array, int_lincomb

# Rational enclosure of pi (60 digits), used by the exact Bernoulli fallback.
_PI_LO = Fraction(
    314159265358979323846264338327950288419716939937510582097494,
    10 ** 59,
)
_PI_HI = _PI_LO + Fraction(1, 10 ** 59)
_LN2 = math.log(2.0)

# Float margins of the accept/reject tests.
# The float window probability p_window is within this of the exact one.
_SELECT_MARGIN = 1e-11
# Relative error allowed for a double-precision exp(-pi b) with b = (t-f)^2 /
# s^2, or b of a tail proposal or a tail step: libm plus the rounding of f, of
# b's terms and of s^2, none of which grows with |c|.
_REL_ERR = 1e-9
# Absolute floor of that margin, for probabilities near underflow; it also
# exceeds the 2^-53 that a 53-bit uniform leaves unread.
_ABS_ERR = 1e-15
# Relative error allowed for the float inversion -ln(u) / rate of a tail step:
# libm's log plus the rounding of the rate, a few ulp each.
_STEP_ERR = 1e-12
# A 53-bit uniform u stands for the real uniform in [u, u + 2^-53).
_U_ULP = 2.0 ** -53
# Both ends of the cell [u, u + 2^-53), and the factors 1 +- _STEP_ERR that
# round a tail step's inversion at either end away from the cell.
_CELL_ENDS = np.array([[0.0], [_U_ULP]])
_STEP_SCALES = np.array([[1.0 + _STEP_ERR], [1.0 - _STEP_ERR]])
# Tail steps are drawn as j - 1 = M q + r.  M is the power of two that brings
# the rate of q's law into [2^-21, 2^-20) when it is below that, so q's float
# inversion -ln(u) / rate stays below 2^27, and r's rejection step accepts
# with probability above exp(-2^-20).
_STEP_RATE_EXP = -20


@dataclass(frozen=True)
class GaussParam:
    """Width and center of a discrete Gaussian; width stored as exact s^2."""

    s_sq: Fraction
    c: tuple  # tuple of Fractions; length-1 tuple for scalar use

    def __post_init__(self):
        if self.s_sq <= 0:
            raise PreconditionViolated("width must satisfy s > 0")

    @classmethod
    def make(cls, s=None, c=0, s_sq=None) -> "GaussParam":
        if (s is None) == (s_sq is None):
            raise PreconditionViolated("give exactly one of s, s_sq")
        c = c if isinstance(c, (tuple, list)) else (c,)
        for name, values in (("width", (s, s_sq)), ("center", c)):
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise PreconditionViolated(f"{name} must be finite")
        if s is not None and s <= 0:  # squaring would hide the sign
            raise PreconditionViolated("width must satisfy s > 0")
        ssq = Fraction(s) ** 2 if s is not None else Fraction(s_sq)
        return cls(s_sq=ssq, c=tuple(Fraction(v) for v in c))


# ---------------------------------------------------------------------------
# Exact Bernoulli(exp(-pi a)) via interval refinement
# ---------------------------------------------------------------------------

def _exp_pos_scaled(x_scaled: int, P: int, upper: bool) -> int:
    """Directed-rounding fixed-point bound on exp(x) for x = x_scaled / 2^P >= 0.

    All-positive Taylor series over integers; floor rounding gives a lower
    bound, ceiling rounding plus a geometric tail majorant an upper bound.
    """
    one = 1 << P
    total = one
    term = one
    k = 0
    if upper:
        while True:
            k += 1
            num = term * x_scaled
            den = one * k
            term = -((-num) // den)
            total += term
            # once the next ratio x/(k+1) <= 1/2, the tail is below `term`
            if 2 * x_scaled <= (k + 1) * one and term <= 2:
                total += term + 1
                break
        return total
    while term:
        k += 1
        term = (term * x_scaled) // (one * k)
        total += term
    return total


def _exp_neg_pi_fixed(a: Fraction, P: int) -> Tuple[int, int]:
    """Integers (lo, hi) with lo / 2^P <= exp(-pi a) <= hi / 2^P for rational
    a >= 0, via integer fixed-point bounds on exp(pi a) and directed-rounded
    reciprocals."""
    if a == 0:
        return 1 << P, 1 << P
    num, den = a.numerator, a.denominator
    x_lo = (_PI_LO.numerator * num << P) // (_PI_LO.denominator * den)
    x_hi = -((-_PI_HI.numerator * num << P) // (_PI_HI.denominator * den))
    e_hi = _exp_pos_scaled(x_hi, P, upper=True)    # >= exp(pi a) * 2^P
    e_lo = _exp_pos_scaled(x_lo, P, upper=False)   # <= exp(pi a) * 2^P
    scale_sq = 1 << (2 * P)
    return scale_sq // e_hi, -((-scale_sq) // e_lo) + 1


def _exp_neg_pi_interval(a: Fraction, prec_bits: int) -> Tuple[Fraction, Fraction]:
    """Rational enclosure of exp(-pi a) for rational a >= 0 (``_exp_neg_pi_fixed``)."""
    lo, hi = _exp_neg_pi_fixed(a, prec_bits)
    return Fraction(lo, 1 << prec_bits), Fraction(hi, 1 << prec_bits)


class _LazyUniform:
    """Uniform U in [0,1) revealed 53 bits at a time."""

    __slots__ = ("num", "bits")

    def __init__(self, num: int, bits: int):
        self.num = num
        self.bits = bits

    def extend(self, rng):
        self.num = (self.num << 53) | rng.getrandbits(53)
        self.bits += 53

    def bounds(self) -> Tuple[Fraction, Fraction]:
        d = 1 << self.bits
        return Fraction(self.num, d), Fraction(self.num + 1, d)


def _decide(u: _LazyUniform, rng, enclose: Callable) -> bool:
    """Decide U < p exactly, from rational enclosures (lo, hi) = enclose(prec)
    of p: the enclosure is refined (prec doubled) while it is wider than U's
    cell, and U gains 53 fresh bits from rng otherwise (terminates with
    prob. 1)."""
    prec = 96
    while True:
        lo, hi = enclose(prec)
        u_lo, u_hi = u.bounds()
        if u_hi <= lo:
            return True
        if u_lo >= hi:
            return False
        if hi - lo > u_hi - u_lo:
            prec *= 2
        else:
            u.extend(rng)


def _decide_exact(a: Fraction, u: _LazyUniform, rng) -> bool:
    """Decide U < exp(-pi a) exactly."""
    return _decide(u, rng, lambda prec: _exp_neg_pi_interval(a, prec))


def _least(holds: Callable[[int], bool], t: int) -> int:
    """The least integer n with holds(n), for a predicate that fails below n
    and holds from n on, found from a guess t: steps of 1, 2, 4, ... from t
    toward n bracket it and bisection closes the bracket, so the answer is
    exact whatever the guess, after O(log |n - t|) calls of holds."""
    d = -1 if holds(t) else 1  # the way to n
    a, step = t, 1
    while holds(a + d * step) == (d < 0):
        a, step = a + d * step, 2 * step
    lo, hi = sorted((a, a + d * step))  # holds(hi), not holds(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


# ---------------------------------------------------------------------------
# The sampler
# ---------------------------------------------------------------------------

@dataclass
class SamplerCounts:
    """Work of one array-sampler call: entries drawn, proposals made (an
    inverted draw counts one, its uniform), and decisions taken in exact
    arithmetic (an exact inversion counts one, as do a window selection, an
    accept/reject test and a tail step of the rejection rounds)."""

    draws: int = 0
    proposals: int = 0
    fallbacks: int = 0


# Entries per block of the array sampler (bounds its transient memory), and
# the proposals one of its rounds aims at (shares a round's fixed NumPy cost
# when few entries are pending; ``_ZSampler.k_s`` caps the proposals per entry).
_BLOCK = 1 << 14
_ROUND_MIN = 1 << 10
# Largest inversion table, in entries (c_den + 1) (2 R + 2), and the cells
# of its guide (``_cdt``).
_TABLE_CAP = 1 << 16
_GUIDE_CELLS = 1 << 14


def _thresholds(p):
    """(lo, hi) = p -+ (_REL_ERR p + _ABS_ERR) for probabilities p within
    relative ``_REL_ERR`` of the exact ones: a 53-bit uniform u accepts U < p
    if u < lo, rejects it if u > hi, and leaves it to exact arithmetic
    otherwise.  Overwrites p."""
    margin = _REL_ERR * p
    margin += _ABS_ERR
    return p - margin, np.add(p, margin, out=p)


def _first_accepts(accept, k: int):
    """Each row's first accepted proposal (its first, if none; None for k = 1)
    in a mask of rows of k proposals, and whether it has one."""
    if k == 1:
        return None, accept
    first = accept.reshape(-1, k).argmax(axis=1) + np.arange(0, accept.size, k)
    return first, accept[first]


def _lazy(u: float) -> _LazyUniform:
    """The lazy uniform whose first 53 bits are the 53-bit uniform u."""
    return _LazyUniform(int(u * (1 << 53)), 53)


class _ZSampler:
    """Proposal constants for one width s^2, shared by every center, plus the
    rejection loop and the inversion on arrays, which run on the offsets t =
    x - round(c).

    The envelope has weight 1 on the window |t| <= K and exp(-pi (tau +
    gamma j)) at |t| = K + j, j >= 1.  The center is split as round(c) + f
    with |f| <= 1/2, so |t - f| >= kappa + j for kappa = K - 3/5, hence
    (t-f)^2 >= kappa^2 + 2 kappa j and the envelope dominates the Gaussian
    weight for tau = kappa^2 / s^2 and gamma = 2 kappa / s^2, both exact
    rationals.  A tail proposal's acceptance is therefore exp(-pi b) with
    b = a - tau - gamma j >= 0, and its step j - 1 is geometric with ratio
    g = exp(-pi gamma).  A row of a round makes at most k_s proposals, about
    3 / (acceptance rate), where the acceptance rate is the Gaussian mass
    (about s) over the envelope mass: a row is left pending with probability
    about e^-3.
    """

    __slots__ = ("s_sq", "s_sq_f", "K", "W", "tau", "gamma", "rate", "M", "p_window",
                 "k_s")

    def __init__(self, s_sq: Fraction):
        self.s_sq = s_sq
        self.s_sq_f = float(s_sq)
        self.K = max(2, math.ceil(0.75 * math.sqrt(self.s_sq_f)))
        self.W = 2 * self.K + 1
        kappa = self.K - Fraction(3, 5)
        self.tau = kappa * kappa / s_sq
        self.gamma = 2 * kappa / s_sq
        # -ln g, and M of the tail step j - 1 = M q + r
        self.rate = math.pi * float(self.gamma)
        self.M = 1 << max(0, _STEP_RATE_EXP - math.frexp(self.rate)[1])
        # window share of the envelope mass W + 2 exp(-pi tau) g / (1 - g)
        tail_total = (math.exp(-math.pi * float(self.tau) - self.rate)
                      / -math.expm1(-self.rate))
        self.p_window = self.W / (self.W + 2.0 * tail_total)
        self.k_s = math.ceil(3.0 * (self.W + 2.0 * tail_total) / math.sqrt(self.s_sq_f))

    def _select_window_exact(self, u_sel: float, rng) -> bool:
        """Decide U < p_window exactly for the uniform U whose first 53 bits
        are u_sel, from enclosures of exp(-pi tau) and g refined on demand."""
        def enclose(prec):
            e_lo, e_hi = _exp_neg_pi_interval(self.tau, prec)
            g_lo, g_hi = _exp_neg_pi_interval(self.gamma, prec)
            if g_hi >= 1:
                return 0, 1  # too coarse to bound the tail mass: refine
            # the tail mass exp(-pi tau) g / (1 - g) grows with both
            return (self.W / (self.W + 2 * e_hi * g_hi / (1 - g_hi)),
                    self.W / (self.W + 2 * e_lo * g_lo / (1 - g_lo)))
        return _decide(_lazy(u_sel), rng, enclose)

    def _accept_exact(self, t: int, f_num: int, c_den: int, u: float, rng) -> bool:
        """Exact decision on offset t (at tail step j = |t| - K if that is
        positive) for the 53-bit uniform u; fresh bits come from rng."""
        a = Fraction(t * c_den - f_num, c_den) ** 2 / self.s_sq
        j = abs(t) - self.K
        if j > 0:
            a -= self.tau + self.gamma * j
        return _decide_exact(a, _lazy(u), rng)

    def _offset_p(self, t, f, tail):
        """exp(-pi b) in double precision at offsets t (an int64 or object
        array) and center fractions f (an array of t's shape, or one float
        for all), where ``tail`` indexes the tail offsets |t| > K: b = (t -
        f)^2 / s^2 in the window, and at tail step j = |t| - K, b = a - tau -
        gamma j = ((j + e)^2 + 2 kappa e) / s^2 with e = 3/5 - sign(t) f in
        [1/10, 11/10], positive terms that keep b's relative precision."""
        dx = np.array(t, dtype=float)
        dx -= f
        p = -math.pi * dx  # -pi dx dx / s^2 in place: temporaries cost more than arithmetic
        p *= dx
        p /= self.s_sq_f
        np.exp(p, out=p)
        if tail.size:  # the tail terms, on the tail offsets only
            # (past the window, dx has t's sign)
            e = 0.6 - np.sign(dx[tail]) * (f if np.ndim(f) == 0 else f[tail])
            num = ((np.abs(t[tail]) - self.K).astype(float) + e) ** 2 + 2.0 * (self.K - 0.6) * e
            p[tail] = np.exp(-math.pi * (num / self.s_sq_f))
        return p

    def _tail_offsets(self, neg, steps, top):
        """Offsets +-(K + j) at steps j of largest value top, negative where
        neg is set: int64 when K + top < 2^62 (``int_lincomb``'s bound),
        Python ints otherwise."""
        if steps.dtype != np.int64 or top >= _INT64_SAFE - self.K:
            steps = steps.astype(object)
        t = steps + self.K
        return np.negative(t, out=t, where=neg)

    def _tail_steps(self, n: int, rng, exact_rng, counts: SamplerCounts) -> np.ndarray:
        """n i.i.d. tail steps j >= 1 with Pr[j] = (1-g) g^(j-1), in bounded
        work whatever the width: j - 1 = M q + r with q ~ Geom(g^M) by
        inversion (``_geometric``) and r in [0, M) of weight g^r by rejection
        from a uniform, which accepts with probability above exp(-2^-20).
        Returns int64 when M max(1, max q) + M, ``int_lincomb``'s bound with
        r + 1 <= M, proves M q + r + 1 fits, Python ints otherwise."""
        q = self._geometric(rng.random(n), exact_rng, counts)
        if self.M == 1:
            return q + 1
        r = np.empty(n, dtype=np.int64)
        todo = np.arange(n)
        while todo.size:
            cand = rng.integers(0, self.M, todo.size)
            u = rng.random(todo.size)
            lo, hi = _thresholds(np.exp(-self.rate * cand))
            accept = u < lo
            for i in np.flatnonzero(accept != (u <= hi)):
                counts.fallbacks += 1
                accept[i] = _decide_exact(self.gamma * int(cand[i]),
                                          _lazy(float(u[i])), exact_rng)
            r[todo[accept]] = cand[accept]
            todo = todo[~accept]
        return int_lincomb([(self.M, q), (1, r + 1)], self.M * (max(1, int(q.max())) + 1))

    def _geometric(self, u, exact_rng, counts: SamplerCounts) -> np.ndarray:
        """q = floor(-ln U / (M rate)) for the uniforms U whose first 53 bits
        are the array u, so that Pr[q >= k] = g^(M k).  Decided in floats
        when the whole 53-bit cell [u, u + 2^-53) has one q, exactly
        otherwise (``_geometric_exact``)."""
        # rows floor(-ln(u) / rate (1 + err)) and floor(-ln(u + 2^-53) / rate
        # (1 - err)), in one pass
        x = np.add(u, _CELL_ENDS)
        with np.errstate(divide="ignore"):
            np.log(x, out=x)
        np.negative(x, out=x)
        x /= self.rate * self.M
        x *= _STEP_SCALES
        hi, lo = np.floor(x, out=x)
        q = lo.astype(np.int64)
        for i in (lo != hi).nonzero()[0]:
            counts.fallbacks += 1
            q[i] = self._geometric_exact(float(u[i]), exact_rng)
        return q

    def _geometric_exact(self, u: float, rng) -> int:
        """The q of ``_geometric`` for one uniform, exactly: the largest k
        with U < exp(-pi gamma M k), one less than the least k where that
        fails (``_least`` from the float guess, on exact comparisons of one
        lazy uniform; fresh bits from rng).  Every exponent is the rational
        gamma M k, so no power of g is formed.  A k <= 0 never fails (U < g^0
        = 1) and is answered without a comparison: a negative exponent is
        outside ``_exp_neg_pi_fixed``'s domain."""
        lu, unit = _lazy(u), self.gamma * self.M
        guess = math.floor(-math.log(u + _U_ULP / 2) / (self.rate * self.M)) + 1
        return _least(lambda k: k > 0 and not _decide_exact(unit * k, lu, rng), guess) - 1

    def _draw_block(self, f_num, c_den: int, rng, exact_rng, counts: SamplerCounts):
        """Offsets t ~ D_{Z,s,f}, one per entry of f = f_num / c_den, in rounds
        of proposals, and the largest tail step drawn (0 if none), so |t| <=
        K + top; int64, or Python ints once a tail offset may not fit.

        A round gives each pending entry k = min(ceil(_ROUND_MIN / pending),
        k_s) i.i.d. proposals, and the entry keeps its first accepted one in
        proposal order: the law of a sequential rejection loop.  The round's
        generator calls come in this order: the selection uniforms, the
        window offsets, the acceptance uniforms, then a side (one uniform
        below 1/2 means -1) and a step for every tail proposal.  One
        ``_offset_p`` call then gives the thresholds of the whole round, and
        its undecided proposals go to exact arithmetic in proposal order.  A
        tail round takes one max of its steps for the int64 bound of its
        offsets.  Each round writes every pending entry's pick with one
        scatter: an entry not done yet is overwritten by the round that
        finishes it, and the first round's picks become the output."""
        t_out, top = np.empty(0, dtype=np.int64), 0
        pending = np.arange(len(f_num))
        while pending.size:
            # row r: proposals r k to r k + k - 1, for entry pending[r]
            k = min(-(-_ROUND_MIN // pending.size), self.k_s)
            n = pending.size * k
            counts.proposals += n
            u_sel = rng.random(n)
            t = rng.integers(-self.K, self.K + 1, n)
            u = rng.random(n)
            # (ndarray methods here: a NumPy function adds a few us a call)
            tail = (u_sel >= self.p_window - _SELECT_MARGIN).nonzero()[0]
            if tail.size:
                u_sel = u_sel[tail]
                if u_sel.min() <= self.p_window + _SELECT_MARGIN:
                    near = u_sel <= self.p_window + _SELECT_MARGIN
                    for i in near.nonzero()[0]:
                        counts.fallbacks += 1
                        near[i] = self._select_window_exact(float(u_sel[i]), exact_rng)
                    tail = tail[~near]
            if tail.size:
                neg = rng.random(tail.size) < 0.5  # side -1: a fair bit, exactly
                steps = self._tail_steps(tail.size, rng, exact_rng, counts)
                top_round = int(steps.max())
                top = max(top, top_round)
                t_tail = self._tail_offsets(neg, steps, top_round)
                t = t.astype(t_tail.dtype, copy=False)
                t[tail] = t_tail
            # proposal i is for entry pending[i // k]; integer centers read no entry
            f = 0.0 if c_den == 1 else np.asarray(
                f_num[pending if k == 1 else pending.repeat(k)] / c_den, dtype=float)
            lo, hi = _thresholds(self._offset_p(t, f, tail))
            accept, maybe = u < lo, u <= hi
            first, done = _first_accepts(accept, k)
            # Undecided proposals, in proposal order: one before its row's
            # first accept is decided exactly and, if accepted, comes first.
            # (accept is within maybe, so equal counts leave none undecided)
            if np.count_nonzero(maybe) != np.count_nonzero(accept):
                for i in (maybe != accept).nonzero()[0]:
                    r = i // k
                    if done[r] and first[r] < i:
                        continue
                    counts.fallbacks += 1
                    if self._accept_exact(int(t[i]), int(f_num[pending[r]]), c_den,
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
            # a gather by index: several times faster than by a boolean mask
            pending = pending[(~done).nonzero()[0]]
        return t_out, top

    def _invert_block(self, f_num, c_den: int, cdt, rng, exact_rng, counts: SamplerCounts):
        """Offsets t ~ D_{Z,s,f}, one per entry of f = f_num / c_den (int64),
        by inversion from the table ``cdt`` = ``_cdt(self, c_den)``, and top =
        max(R, max |t|) - K, so |t| <= K + top; int64.

        One uniform u per entry, in entry order, and the key r + u, looked up
        in the guide or, past a guide cell's first bin end, searched in the
        table, give each entry the least k with u below its row's float
        F_f(k).  That k stands when u lies more than the margin _REL_ERR F +
        _ABS_ERR + (c_den + 1) 2^-53 from both float ends F of its bin, which
        covers the 53-bit cell of u, the float CDF's rounding (its sums and
        normalizer, far within _REL_ERR) and the rounding of the row-shifted
        entries (the keys' rounding only misplaces a bin, which the margin
        test on u itself then refuses); the end bins |k| = R never stand.
        Every other entry is inverted exactly (``_invert_exact``), in entry
        order."""
        table, guide, cells, R = cdt
        n = f_num.size
        counts.proposals += n
        u = rng.random(n)
        row = 0 if c_den == 1 else f_num + c_den // 2  # f = 0 for c_den = 1: row 0
        key = u + row
        # at: the table index of the bin's lower end, the last entry <= key
        at = guide.take((key * cells).astype(np.intp))
        far = (key >= table.take(at + 1)).nonzero()[0]
        if far.size:  # a guide cell holding several bin ends
            at[far] = table.searchsorted(key[far], side="right") - 1
        base = row * (2 * R + 2)
        np.minimum(at, base + 2 * R, out=at)  # a key rounded up to r + 1: the last bin
        lo, hi = table.take(at), table.take(at + 1)
        lo -= row  # exact: the entries of row r lie in [r, r + 1]
        hi -= row
        slack = (c_den + 1) * _U_ULP + _ABS_ERR
        ok = u - lo > _REL_ERR * lo + slack
        ok &= hi - u > _REL_ERR * hi + slack
        t = at - base
        t -= R
        ok &= np.abs(t) < R
        top = R
        for i in (~ok).nonzero()[0]:
            counts.fallbacks += 1
            t[i] = x = self._invert_exact(int(f_num[i]), c_den, int(t[i]), float(u[i]),
                                          exact_rng)
            top = max(top, abs(x))
        return t, top - self.K

    def _invert_exact(self, f_num: int, c_den: int, t: int, u: float, rng) -> int:
        """The least k with U < F_f(k), f = f_num / c_den, for the uniform U
        whose first 53 bits are u (fresh bits from rng): ``_least`` from the
        float answer t, on exact comparisons (``_cdf_interval``)."""
        lu = _lazy(u)
        return _least(lambda k: _decide(
            lu, rng, lambda prec: _cdf_interval(self, f_num, c_den, prec, k)), t)


@lru_cache(maxsize=4096)
def _sampler(s_sq: Fraction) -> _ZSampler:
    """The cached sampler of width s^2."""
    return _ZSampler(s_sq)


def _outer_sum_hi(samp: _ZSampler, h: Fraction, Q: int):
    """An integer upper bound, scaled by 2^Q, on each outer sum of rho_f(j) =
    exp(-pi (j - f)^2 / s^2) over the j with |j - f| >= h, for h > 0: it
    is at most exp(-pi h^2 / s^2) / (1 - exp(-2 pi h / s^2)), a geometric
    majorant.  None while Q bits cannot bound the denominator away from 0."""
    _, a_hi = _exp_neg_pi_fixed(h * h / samp.s_sq, Q)
    _, g_hi = _exp_neg_pi_fixed(2 * h / samp.s_sq, Q)
    one = 1 << Q
    return -((-a_hi * one) // (one - g_hi)) if g_hi < one else None


def _radius_floor(samp: _ZSampler) -> int:
    """max(K, floor(sqrt(64 ln 2 s^2 / pi))): no smaller R meets the bound of
    ``_cdt_radius``, whose outer sum at h = R - 1/2 is at least exp(-pi h^2 /
    s^2), and the table needs R >= K."""
    return max(samp.K, math.floor(math.sqrt(64 * _LN2 * samp.s_sq_f / math.pi)))


def _cdt_radius(samp: _ZSampler) -> int:
    """The least R >= ``_radius_floor`` at which a proven bound puts each
    outer mass, Pr[X <= -R] and Pr[X >= R] of X ~ D_{Z,s,f} at any |f| <=
    1/2, below 2^-64: ``_outer_sum_hi`` at h = R - 1/2 <= |j - f| for |j| >=
    R, over rho_f(Z) >= rho_f(round f) >= exp(-pi / (4 s^2)).  96-bit
    enclosures decide the bound exactly, and ``_least`` finds R."""
    d_lo, _ = _exp_neg_pi_fixed(1 / (4 * samp.s_sq), 96)
    floor = _radius_floor(samp)

    def fits(R: int) -> bool:  # tail / d_lo < 2^-64, searched from the floor up
        tail = _outer_sum_hi(samp, R - Fraction(1, 2), 96) if R >= floor else None
        return tail is not None and tail << 64 < d_lo

    return _least(fits, floor)


@lru_cache(maxsize=64)
def _cdt(samp: _ZSampler, c_den: int):
    """(table, guide, cells, R): the float CDFs F_f of D_{Z,s,f} for f =
    f_num / c_den, |f_num| <= c_den / 2, each row r = f_num + c_den // 2
    holding r + F_f(k) for k in [-R, R - 1] between the sentinels r and r +
    1, flat in one sorted table, R = ``_cdt_radius``; None when (c_den + 1)
    (2 R + 2) passes _TABLE_CAP (every c_den >= 2^62 does).  F_f is the
    running sum of the rho_f terms over [-R, R] divided by their total: the
    outer masses left out are below 2^-64.  The guide cuts [0, c_den + 1]
    into cells of width 1 / cells, and holds at cell j the index of the last
    entry <= j / cells (at most the table's second last).  The sampler (by
    identity: no Fraction hash) keys the cache."""
    if (c_den + 1) * (2 * _radius_floor(samp) + 2) > _TABLE_CAP:  # before any search
        return None
    R = _cdt_radius(samp)
    if (c_den + 1) * (2 * R + 2) > _TABLE_CAP:
        return None
    rows = np.arange(c_den + 1)
    dx = np.arange(-R, R + 1) - ((rows - c_den // 2) / c_den)[:, None]
    cdf = np.cumsum(np.exp(-math.pi * dx * dx / samp.s_sq_f), axis=1)
    table = np.zeros((c_den + 1, 2 * R + 2))
    table[:, 1:-1] = cdf[:, :-1] / cdf[:, -1:]
    table[:, -1] = 1.0
    table += rows[:, None]
    table = table.ravel()
    cells = _GUIDE_CELLS // (c_den + 1)
    guide = table.searchsorted(np.arange((c_den + 1) * cells + 1) / cells, side="right") - 1
    return table, np.minimum(guide, table.size - 2), cells, R


@lru_cache(maxsize=256)
def _cdf_row(samp: _ZSampler, f_num: int, c_den: int, prec: int):
    """Enclosures, scaled by 2^Q, of D_{Z,s,f}'s CDF for f = f_num / c_den:
    (radius, lo_sums, hi_sums, tail, z_lo, z_hi), where lo_sums[i] and
    hi_sums[i] enclose the sum of rho_f(j) over j in [-radius, i - radius],
    tail bounds each outer sum (|j| > radius) from above (``_outer_sum_hi``
    at h = radius + 1/2), and [z_lo, z_hi] encloses rho_f(Z); tail is None
    while the precision cannot bound it.  The radius grows with prec, so
    that the tail shrinks with the terms' rounding.

    The terms walk outward from j = 0 on each side by the exact recurrence
    rho_g(j + 1) = rho_g(j) r_j, r_j = exp(-pi (2 (j - g) + 1) / s^2) = r_0
    E^j with E = exp(-2 pi / s^2), for g = f (j >= 0) and g = -f (rho_f(-j)
    = rho_{-f}(j)): two directed-rounded products a term, whose rounding Q -
    prec = 3 bitlen(radius) extra bits absorb."""
    f = Fraction(f_num, c_den)
    radius = max(samp.K, math.ceil(0.5 + math.sqrt(prec * _LN2 * samp.s_sq_f / math.pi)))
    Q = prec + 3 * radius.bit_length()
    e_lo, e_hi = _exp_neg_pi_fixed(2 / samp.s_sq, Q)

    def walk(g):
        (rho_lo, rho_hi), (r_lo, r_hi) = (_exp_neg_pi_fixed(g * g / samp.s_sq, Q),
                                          _exp_neg_pi_fixed((1 - 2 * g) / samp.s_sq, Q))
        terms = [(rho_lo, rho_hi)]
        for _ in range(radius):
            rho_lo, rho_hi = rho_lo * r_lo >> Q, (rho_hi * r_hi >> Q) + 1
            r_lo, r_hi = r_lo * e_lo >> Q, (r_hi * e_hi >> Q) + 1
            terms.append((rho_lo, rho_hi))
        return terms

    terms = walk(-f)[:0:-1] + walk(f)  # j = -radius, ..., radius
    lo_sums = list(accumulate(lo for lo, _ in terms))
    hi_sums = list(accumulate(hi for _, hi in terms))
    tail = _outer_sum_hi(samp, radius + Fraction(1, 2), Q)
    return radius, lo_sums, hi_sums, tail, lo_sums[-1], hi_sums[-1] + 2 * (tail or 0)


def _cdf_interval(samp: _ZSampler, f_num: int, c_den: int, prec: int, k: int):
    """Rational enclosure of F_f(k) = Pr[X <= k], X ~ D_{Z,s,f}, f = f_num /
    c_den, from ``_cdf_row`` at prec bits: the sums through k over the
    normalizer's ends, with the left outer sum added to the upper end; a k
    past the radius gets the enclosure of the radius's edge."""
    radius, lo_sums, hi_sums, tail, z_lo, z_hi = _cdf_row(samp, f_num, c_den, prec)
    if tail is None:
        return Fraction(0), Fraction(1)
    if k < -radius:
        return Fraction(0), Fraction(tail, z_lo)
    i = min(k, radius) + radius
    return (Fraction(lo_sums[i], z_hi),
            Fraction(1) if k >= radius else Fraction(hi_sums[i] + tail, z_lo))


def _draw_z_array(s_sq: Fraction, c_num: np.ndarray, c_den: int, rng,
                  exact_rng, c_bound: int):
    """One exact draw from D_{Z,s,c} per entry of c = c_num / c_den, the
    sampler's counts and a proven bound on |x|.

    ``c_num`` is an int64 or object array of integers and ``c_bound`` the
    caller's bound on |c_num|; the draws come back in its shape, x = round(c)
    + t formed by ``int_lincomb`` (x = t, as drawn, for c_bound = 0: every
    center is 0), int64 when its bound proves every sum fits, Python ints
    otherwise.  That bound is proven, not read: |round(c)| <= c_bound //
    c_den + 1 and |t| <= K + top, top from R and the exact draws of an
    inverted block (``_invert_block``) or the largest tail step of a block
    of rounds (``_draw_block``); the call returns it, maximized over the
    blocks.  A block is inverted when ``_cdt`` has a table for the width
    and c_den.  Uniforms and proposals come from the NumPy generator
    ``rng``, and exact decisions take their fresh bits from the
    ``random.Random`` stream ``exact_rng``."""
    # Window offsets are drawn as int64.  Every s >= 2^63 fails the bound; it
    # is rejected before the sampler takes float(s^2), which can overflow.
    samp = _sampler(s_sq) if s_sq < 1 << 126 else None
    if samp is None or samp.W >= 1 << 63:
        raise PreconditionViolated(
            "array sampler needs a window 2 max(2, ceil(0.75 s)) + 1 < 2^63")
    c_num = np.asarray(c_num)
    centers = c_num.reshape(-1)  # a view where the layout allows; .flat slices copy
    counts = SamplerCounts(draws=c_num.size)
    x0_bound = c_bound // c_den + 1
    cdt = _cdt(samp, 1 if c_bound == 0 else c_den)
    parts, top = [], 0
    for start in range(0, c_num.size, _BLOCK):
        block = centers[start:start + _BLOCK]
        if c_bound == 0:  # x0 = f_num = 0: no split and no sum
            x0, f_num, den = None, block, 1
        else:
            (x0, f_num), den = _split_centers(block, c_den, c_bound), c_den
        if cdt is None:
            t, block_top = samp._draw_block(f_num, den, rng, exact_rng, counts)
        else:  # |f_num| <= c_den / 2 < 2^61
            t, block_top = samp._invert_block(f_num.astype(np.int64, copy=False), den, cdt,
                                              rng, exact_rng, counts)
        parts.append(t if x0 is None else
                     int_lincomb([(1, x0), (1, t)], x0_bound + samp.K + block_top))
        top = max(top, block_top)
    out = parts[0] if len(parts) == 1 else np.concatenate(parts or [centers[:0]])
    return out.reshape(c_num.shape), counts, x0_bound + samp.K + top


def _split_centers(c_num: np.ndarray, c_den: int, c_bound: int):
    """c = x0 + f_num / c_den with x0 the nearest integer (ties to even), in
    exact integer arithmetic, for a 1-D array of numerators of bound
    ``c_bound``; returns x0 and f_num.  Integer centers (c_den = 1) skip the
    split: x0 = c, f_num = 0.  An odd c_den (every prime q) has no tie, so
    x0 = floor((c_num + h) / c_den), h = floor(c_den / 2), one floor
    division, wherever the sum fits: on Python integers, and on int64
    numerators while c_bound + h < 2^62."""
    if c_den == 1:
        return c_num, np.zeros(c_num.shape, dtype=c_num.dtype)
    if c_num.dtype == np.int64 and c_den >= 1 << 62:  # 2 f_num + 1 must fit
        c_num = c_num.astype(object)
    half = c_den // 2
    if c_den & 1 and (c_num.dtype == object or c_bound + half < _INT64_SAFE):
        x0 = (c_num + half) // c_den
        return x0, c_num - x0 * c_den
    x0 = c_num // c_den
    f_num = c_num - x0 * c_den
    # round up when 2 f_num > c_den, or 2 f_num = c_den and x0 is odd
    up = f_num > half if c_den & 1 else 2 * f_num + (x0 & 1) > c_den
    x0 += up
    return x0, np.where(up, f_num - c_den, f_num)


def _width_floor_sq(n: int) -> float:
    return math.log(2 * n + 4) / math.pi


# Margins on ``_width_floor_sq``: ``check_width`` passes down to _WIDTH_TOL
# times the floor, and heuristic schedules floor their widths _WIDTH_SLACK
# times above it.  The slack must exceed the tolerance, so that a floored
# heuristic width always clears ``chain._offset_width_sq``.
_WIDTH_TOL = 1 - 1e-12
_WIDTH_SLACK = 1 + 1e-9


def check_width(s_sq: Fraction, n: int, name: str) -> None:
    """Raise ``WidthTooSmall`` unless s^2 >= ln(2n+4)/pi, down to _WIDTH_TOL.
    It compares ``Fraction``s, exactly and at any width."""
    if s_sq < Fraction(_width_floor_sq(n) * _WIDTH_TOL):
        raise WidthTooSmall(f"{name}: s = {math.sqrt(s_sq):.4f} < sqrt(ln({2 * n + 4})/pi)")


def sample_zn_rows(param: GaussParam, n: int, rows: int, rng) -> np.ndarray:
    """``rows`` independent exact draws from D_{Z^n, s, c}, as a (rows, n)
    array (int64, or Python integers when the centers need them); requires
    s >= sqrt(ln(2n+4)/pi).  A scalar center applies to every coordinate.

    One array-sampler call, on the SFC64 stream ``("z",)`` and its exact
    sibling ``("z", "exact")`` under the seed ``rng.getrandbits(63)``.
    """
    if n < 1 or rows < 0:
        raise PreconditionViolated(f"need n >= 1 and rows >= 0, got n={n} rows={rows}")
    if max(1, rows) * n * 8 > _MEM_BUDGET_BYTES:
        raise BudgetExceeded(f"{rows} x {n} draws exceed the memory budget")
    check_width(param.s_sq, n, "width")
    cs = param.c if len(param.c) == n else param.c * n
    if len(cs) != n:
        raise PreconditionViolated(f"center has length {len(param.c)}, expected {n}")
    den = math.lcm(*(c.denominator for c in cs))
    nums = [c.numerator * (den // c.denominator) for c in cs]
    seed = rng.getrandbits(63)
    out, _, _ = _draw_z_array(param.s_sq, np.broadcast_to(int_array(nums), (rows, n)), den,
                              derive_np_rng(seed, "z"), LazyRandom(seed, "z", "exact"),
                              max(map(abs, nums)))
    return out


def check_epsilon(epsilon: float) -> None:
    """PreconditionViolated unless epsilon > 0 (NaN fails), before any ln(1/eps)."""
    if not epsilon > 0:
        raise PreconditionViolated("epsilon > 0")
