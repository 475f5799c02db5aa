"""Exact discrete Gaussian sampling over Z and Z^n, and its width checks;
the brute-force and statistical oracles that test it live in ``oracles``.

Sampler design.  The base sampler draws from D_{Z,s,c} (density
proportional to exp(-pi (x-c)^2 / s^2)) as round(c) + D_{Z,s,f}, where the
center is split exactly, in integer arithmetic, as c = round(c) + f with
|f| <= 1/2 (integer centers skip the split: f = 0).  The offset is drawn by
rejection from a proposal that covers all of Z: a uniform window of
half-width K = max(2, ceil(0.75 s)) glued to two geometric tails of ratio
g = exp(-pi gamma), whose envelope exp(-pi (tau + gamma j)) at |t| = K + j,
with exact rationals tau and gamma, dominates the Gaussian for every
|f| <= 1/2.  These constants depend on s^2 alone, so one ``_ZSampler`` per
width serves every center; a draw takes about 1.6 proposals at large
widths.  A tail step j - 1 = M q + r is drawn in bounded work at any width:
q by inversion, floor(-ln U / (pi gamma M)), decided exactly by bisection
when the float inversion cannot separate the uniform's cell from a boundary,
and r in [0, M) by rejection once the mean step passes 2^21.  Every
accept/reject comparison is a Bernoulli test "U < exp(-pi b)" with rational
b >= 0 (b = (t-f)^2 / s^2 in the window, less the envelope's exponent in the
tails), evaluated in double precision with a constant relative margin and
escalated to exact rational interval arithmetic whenever the margin cannot
separate U from the probability.  Only f, the offset and the step enter the
float arithmetic, so neither the margin nor the cost grows with |c|, and the
sampled law carries no floating-point statistical gap.  Window offsets are
int64 (the window 2K + 1 must stay below 2^63); tail offsets and draws not
proven to fit in int64 come back as Python integers.

One entry point runs this sampler: ``_draw_z_array`` draws one value per
entry of an array of centers, in blocks of NumPy rounds whose order
``_draw_block`` gives; the initial lists, the stage offsets and
``sample_zn_rows`` call it.  A proposal's float thresholds p -+ (_REL_ERR p
+ _ABS_ERR), p the acceptance exp(-pi (t - f)^2 / s^2) in the window and
exp(-pi b) at a tail step, come from one ``_threshold_table`` per sampler
and c_den or from ``_offset_p``, which gives the same floats
(``_proposal_thresholds``).  Undecided comparisons go to
``_select_window_exact``, ``_geometric_exact`` and ``_decide_exact``, which
share one interval refinement loop, ``_decide``.  Stream contract: a seeded
draw is fixed by the order of the generator calls in each round, the order
of the exact decisions and ``_offset_p``'s floats; a round's arithmetic may
change freely otherwise.  Widths are exact rationals s^2 (``s_sq``), so
sqrt(2)^i * s0 is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Tuple

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
            raise ValueError("give exactly one of s, s_sq")
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


def _exp_neg_pi_interval(a: Fraction, prec_bits: int) -> Tuple[Fraction, Fraction]:
    """Rational enclosure of exp(-pi a) for rational a >= 0, via integer
    fixed-point bounds on exp(pi a) and directed-rounded reciprocals."""
    if a == 0:
        return Fraction(1), Fraction(1)
    P = prec_bits
    num, den = a.numerator, a.denominator
    x_lo = (_PI_LO.numerator * num << P) // (_PI_LO.denominator * den)
    x_hi = -((-_PI_HI.numerator * num << P) // (_PI_HI.denominator * den))
    e_hi = _exp_pos_scaled(x_hi, P, upper=True)    # >= exp(pi a) * 2^P
    e_lo = _exp_pos_scaled(x_lo, P, upper=False)   # <= exp(pi a) * 2^P
    scale_sq = 1 << (2 * P)
    p_lo = scale_sq // e_hi                        # floor(2^P / exp_hi) scaled
    p_hi = -((-scale_sq) // e_lo) + 1
    return Fraction(p_lo, 1 << P), Fraction(p_hi, 1 << P)


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


# ---------------------------------------------------------------------------
# The sampler
# ---------------------------------------------------------------------------

@dataclass
class SamplerCounts:
    """Work of one array-sampler call: entries drawn, proposals made, and
    decisions taken in exact arithmetic (window selections, accept/reject
    tests and tail steps)."""

    draws: int = 0
    proposals: int = 0
    fallbacks: int = 0


# Entries per block of the array sampler (bounds its transient memory), and
# the proposals one of its rounds aims at (shares a round's fixed NumPy cost
# when few entries are pending; ``_ZSampler.k_s`` caps the proposals per entry).
_BLOCK = 1 << 14
_ROUND_MIN = 1 << 10
# Largest threshold table, in entries (c_den + 1) (W + 2 J) (``_threshold_table``).
_TABLE_CAP = 1 << 16


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
    rejection loop on arrays, which runs on the offsets t = x - round(c).

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

    def _offset_p(self, t, f):
        """exp(-pi b) in double precision at offsets t (an int64 or object
        array) and center fractions f (an array of t's shape, or one float
        for all): b = (t - f)^2 / s^2 in the window |t| <= K, and at tail
        step j = |t| - K, b = a - tau - gamma j = ((j + e)^2 + 2 kappa e) / s^2
        with e = 3/5 - sign(t) f in [1/10, 11/10], positive terms that keep
        b's relative precision."""
        dx = np.array(t, dtype=float)
        dx -= f
        p = -math.pi * dx  # -pi dx dx / s^2 in place: temporaries cost more than arithmetic
        p *= dx
        p /= self.s_sq_f
        np.exp(p, out=p)
        tail = (np.abs(t) > self.K).nonzero()
        if tail[0].size:  # the tail terms, on the tail offsets only
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

    def _table(self, f_num, c_den: int):
        """``_threshold_table`` of the entries f = f_num / c_den, or None for
        object numerators and a c_den whose window passes _TABLE_CAP, whose
        thresholds ``_offset_p`` gives."""
        if f_num.dtype == object or (c_den + 1) * self.W > _TABLE_CAP:
            return None
        return _threshold_table(self, c_den, _REL_ERR, _ABS_ERR)

    def _proposal_thresholds(self, f_num, c_den: int):
        """``_thresholds`` of the proposals of the entries f = f_num / c_den,
        as thresholds(rows, t, top) for offsets t of the entries rows, of
        tail steps up to top (0 for window offsets).  For int64 f_num within
        _TABLE_CAP it reads ``_threshold_table`` while t is int64 and top <=
        its J; otherwise ``_offset_p`` gives the same floats.  Integer
        centers (c_den = 1, f = 0) read no entry: rows may be None and the
        table index is t + K + J."""
        table = self._table(f_num, c_den)
        if table is not None:
            lo, hi, J = table
            # the index of t = 0: K + J at every integer center (f = 0)
            mid, width = self.K + J, self.W + 2 * J
            base = None if c_den == 1 else f_num * width + (c_den // 2 * width + mid)

        def thresholds(rows, t, top):
            if table is not None and t.dtype == np.int64 and top <= J:
                at = t + mid if base is None else base[rows] + t
                return lo.take(at), hi.take(at)
            f = 0.0 if c_den == 1 else np.asarray(f_num[rows] / c_den, dtype=float)
            return _thresholds(self._offset_p(t, f))
        return thresholds

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
        with U < exp(-pi gamma M k), by bisection on exact comparisons of
        one lazy uniform (fresh bits from rng), between float bounds that
        the comparisons verify.  Every exponent is the rational gamma M k,
        so no power of g is formed."""
        lu = _lazy(u)
        while lu.num == 0:
            lu.extend(rng)
        rate = self.rate * self.M
        ln_lo = math.log(lu.num) - lu.bits * _LN2
        ln_hi = math.log(lu.num + 1) - lu.bits * _LN2
        lo = max(0, math.floor(-ln_hi / rate * (1 - 1e-9)) - 1)
        hi = math.floor(-ln_lo / rate * (1 + 1e-9)) + 2

        def below(k: int) -> bool:
            return _decide_exact(self.gamma * self.M * k, lu, rng)

        if not below(lo):
            lo = 0  # U < g^0 = 1 always
        while below(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if below(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def _draw_block(self, f_num, c_den: int, rng, exact_rng, counts: SamplerCounts):
        """Offsets t ~ D_{Z,s,f}, one per entry of f = f_num / c_den, in rounds
        of proposals, and the largest tail step drawn (0 if none), so |t| <=
        K + top; int64, or Python ints once a tail offset may not fit.

        A round gives each pending entry k = min(ceil(_ROUND_MIN / pending),
        k_s) i.i.d. proposals, and the entry keeps its first accepted one in
        proposal order: the law of a sequential rejection loop.  The round's
        generator calls come in this order: the selection uniforms, the
        window offsets, the acceptance uniforms, then a side (one uniform
        below 1/2 means -1) and a step for each tail proposal it draws.  It
        settles which proposals are tail proposals first.  With one proposal
        a row it then draws every tail proposal's side and step, and one
        thresholds call (``_proposal_thresholds``) decides the whole round.
        With several, one call decides the window proposals first, only the
        tail proposals ahead of their row's first window accept draw a side
        and a step (no other can be kept), and one more call decides those.
        The generator calls and the exact decisions, in proposal order, keep
        one order either way.  A tail round takes one max of its steps, for
        both the int64 bound of its offsets and the table check.  Each round
        writes every pending entry's pick with one scatter: an entry not done
        yet is overwritten by the round that finishes it, and the first
        round's picks become the output."""
        thresholds = self._proposal_thresholds(f_num, c_den)
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
            # proposal i is for entry pending[i // k]; integer centers read no
            # entry, so their rounds build no row indices
            rows = None if c_den == 1 else pending if k == 1 else pending.repeat(k)
            tail = (u_sel >= self.p_window - _SELECT_MARGIN).nonzero()[0]
            if tail.size:
                u_sel = u_sel[tail]
                if u_sel.min() <= self.p_window + _SELECT_MARGIN:
                    near = u_sel <= self.p_window + _SELECT_MARGIN
                    for i in near.nonzero()[0]:
                        counts.fallbacks += 1
                        near[i] = self._select_window_exact(float(u_sel[i]), exact_rng)
                    tail = tail[~near]
            if k > 1:
                lo, hi = thresholds(rows, t, 0)
                accept, maybe = u < lo, u <= hi
                if tail.size:
                    accept[tail] = maybe[tail] = False
                    first, has = _first_accepts(accept, k)
                    tail = tail[~has[tail // k] | (first[tail // k] > tail)]
            top_round = 0
            if tail.size:
                neg = rng.random(tail.size) < 0.5  # side -1: a fair bit, exactly
                steps = self._tail_steps(tail.size, rng, exact_rng, counts)
                top_round = int(steps.max())
                top = max(top, top_round)
                t_tail = self._tail_offsets(neg, steps, top_round)
                t = t.astype(t_tail.dtype, copy=False)
                t[tail] = t_tail
            if k == 1:
                lo, hi = thresholds(rows, t, top_round)
                accept, maybe = u < lo, u <= hi
            elif tail.size:
                lo, hi = thresholds(None if rows is None else rows[tail], t_tail, top_round)
                u_tail = u[tail]
                accept[tail], maybe[tail] = u_tail < lo, u_tail <= hi
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


_SAMPLER_CACHE: Dict = {}


def _sampler(s_sq: Fraction) -> _ZSampler:
    """The cached sampler of width s^2."""
    samp = _SAMPLER_CACHE.get(s_sq)
    if samp is None:
        if len(_SAMPLER_CACHE) > 4096:
            _SAMPLER_CACHE.clear()
        samp = _SAMPLER_CACHE[s_sq] = _ZSampler(s_sq)
    return samp


@lru_cache(maxsize=64)
def _threshold_table(samp: _ZSampler, c_den: int, rel_err: float, abs_err: float):
    """(lo, hi, J): ``_thresholds`` of the sampler's s^2 for every offset t in
    [-(K + J), K + J] and f = f_num / c_den, |f_num| <= c_den / 2, flat at
    (f_num + c_den // 2) (W + 2 J) + t + K + J: ``_offset_p(t, f)`` on the
    whole grid, so its floats bit for bit.  J is the least step count with
    g^J <= 2^-30, cut to keep (c_den + 1) (W + 2 J) <= _TABLE_CAP, which the
    caller checks at J = 0.  The sampler (by identity: no Fraction hash) and
    the margins (_REL_ERR, _ABS_ERR) key the cache."""
    J = min(math.ceil(30 * _LN2 / samp.rate), (_TABLE_CAP // (c_den + 1) - samp.W) // 2)
    t, f = np.broadcast_arrays(np.arange(-(samp.K + J), samp.K + J + 1),
                               (np.arange(c_den + 1) - c_den // 2)[:, None] / c_den)
    lo, hi = _thresholds(samp._offset_p(t, f))
    return lo.ravel(), hi.ravel(), J


def _draw_z_array(s_sq: Fraction, c_num: np.ndarray, c_den: int, rng,
                  exact_rng, c_bound: int):
    """One exact draw from D_{Z,s,c} per entry of c = c_num / c_den, the
    sampler's counts and a proven bound on |x|.

    ``c_num`` is an int64 or object array of integers and ``c_bound`` the
    caller's bound on |c_num|; the draws come back in its shape, x = round(c)
    + t formed by ``int_lincomb`` (x = t, as drawn, for c_bound = 0: every
    center is 0), int64 when its bound proves every sum fits, Python ints
    otherwise.  That bound is proven, not read: |round(c)| <= c_bound //
    c_den + 1 and |t| <= K + top, top the block's largest tail step
    (``_draw_block``); the call returns it, maximized over the blocks.
    Proposals and uniforms come from the NumPy generator ``rng``, and exact
    decisions take their fresh bits from the ``random.Random`` stream
    ``exact_rng``."""
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
    parts, top = [], 0
    for start in range(0, c_num.size, _BLOCK):
        block = centers[start:start + _BLOCK]
        if c_bound == 0:  # x0 = f_num = 0: no split and no sum
            t, block_top = samp._draw_block(block, 1, rng, exact_rng, counts)
            parts.append(t)
        else:
            x0, f_num = _split_centers(block, c_den, c_bound)
            t, block_top = samp._draw_block(f_num, c_den, rng, exact_rng, counts)
            parts.append(int_lincomb([(1, x0), (1, t)], x0_bound + samp.K + block_top))
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
