"""Exact discrete Gaussian sampling over Z and Z^n, smoothing and tail-bound
formula evaluators, and the brute-force / statistical oracles used by tests
and parameter selection.

Sampler design.  The base sampler draws from D_{Z,s,c} (density
proportional to exp(-pi (x-c)^2 / s^2)).  The center is split exactly, in
integer arithmetic, as c = round(c) + f with |f| <= 1/2, and
D_{Z,s,c} = round(c) + D_{Z,s,f}.
The offset is drawn by rejection from a proposal that covers all of Z: a
uniform window of half-width K = max(2, ceil(0.75 s)) glued to two
geometric tails of ratio g = exp(-pi gamma) whose envelope exp(-pi (tau +
gamma j)) at |t| = K + j, with exact rationals tau and gamma, dominates the
Gaussian for every |f| <= 1/2.  These constants depend on s^2 alone, so one
``_ZSampler`` per width serves every center.  The envelope's mass is about
1.57 s against the Gaussian's s, so a draw takes about 1.6 proposals at
large widths.  A tail step j - 1 is drawn in bounded work at any width: by
inversion, floor(-ln U / (pi gamma)), split as M q + r with r in [0, M)
drawn by rejection once the mean step passes 2^21, and decided exactly by
bisection on exact comparisons U < exp(-pi gamma k) when the float
inversion cannot separate the uniform's cell from a boundary.  Every
accept/reject comparison is a Bernoulli test "U < exp(-pi b)" with
rational b >= 0 (b = (t-f)^2 / s^2 in the window, the same less the
envelope's exponent in the tails); it is evaluated in double precision with
a constant relative margin, and escalated to exact rational interval
arithmetic whenever the margin cannot separate U from the probability.  Only
f, the offset and the step enter the float arithmetic, so neither the margin
nor the per-draw cost grows with |c|, and the sampled distribution carries
no floating-point statistical gap.  Window offsets are drawn as int64, so
the window 2 max(2, ceil(0.75 s)) + 1 must stay below 2^63; tail offsets
and draws x = round(c) + t that are not proven to fit in int64 come back as
Python integers.

One entry point runs this sampler: ``_draw_z_array`` draws one value per
entry of a whole array of centers in NumPy rounds.  The samplers' initial
lists and stage offsets call it, and so does the public batch form
``sample_zn_rows``, of which ``sample_z``, ``sample_zn`` and ``dglift`` are
1-row views.  A round gives every pending entry k i.i.d. proposals, with
k >= 2 once few entries are pending so that a round's fixed cost is shared,
and the entry keeps its first accepted proposal in proposal order.
Proposals are i.i.d. and each is decided by its own randomness, so the
first accepted one of a row has the law of a sequential rejection loop.
Entries are processed in blocks of fixed size, so transient memory does not
grow with the list.  Every comparison the float margin cannot decide goes to
the exact routines (``_select_window_exact``, ``_geometric_exact``,
``_decide_exact``).

Widths are carried as exact rationals s^2 (``s_sq``), which keeps widths like
sqrt(2)^i * s0 representable exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np
from scipy.stats import chi2 as _chi2_dist

from .errors import (
    BudgetExceeded,
    InsufficientSamples,
    PreconditionViolated,
    WidthTooSmall,
)
from .rngutil import derive_np_rng, derive_rng
from .zqlin import _syndromes, check_qary_preconditions, int_add, int_array, int_matmul

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

    @property
    def s(self) -> float:
        return math.sqrt(float(self.s_sq))


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


def _decide_exact(premul: Fraction, a: Fraction, u: _LazyUniform, rng) -> bool:
    """Decide premul * U < exp(-pi a) exactly (terminates with prob. 1)."""
    prec = 96
    while True:
        lo, hi = _exp_neg_pi_interval(a, prec)
        u_lo, u_hi = u.bounds()
        if premul * u_hi <= lo:
            return True
        if premul * u_lo >= hi:
            return False
        if (hi - lo) > premul * (u_hi - u_lo):
            prec *= 2
        else:
            u.extend(rng)


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
# the fewest proposals one of its rounds makes (shares a round's fixed NumPy
# cost when few entries are pending).
_BLOCK = 1 << 14
_ROUND_MIN = 1 << 10


def _float_bernoulli(p, u):
    """Double-precision decisions of U < p for arrays of 53-bit uniforms u
    and probabilities p within relative ``_REL_ERR`` of the exact ones.
    Returns (accept, reject); a comparison with neither is left to exact
    arithmetic."""
    margin = _REL_ERR * p + _ABS_ERR
    return u < p - margin, u > p + margin


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
    g = exp(-pi gamma).
    """

    __slots__ = ("s_sq", "s_sq_f", "K", "W", "tau", "gamma", "rate", "M", "p_window")

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

    def _select_window_exact(self, u_sel: float, rng) -> bool:
        """Decide U < p_window exactly for the uniform U whose first 53 bits
        are u_sel, from enclosures of exp(-pi tau) and g refined on demand."""
        lu = _lazy(u_sel)
        prec = 96
        while True:
            e_lo, e_hi = _exp_neg_pi_interval(self.tau, prec)
            g_lo, g_hi = _exp_neg_pi_interval(self.gamma, prec)
            if g_hi < 1:
                # the tail mass exp(-pi tau) g / (1 - g) grows with both
                p_lo = self.W / (self.W + 2 * e_hi * g_hi / (1 - g_hi))
                p_hi = self.W / (self.W + 2 * e_lo * g_lo / (1 - g_lo))
                u_lo, u_hi = lu.bounds()
                if u_hi <= p_lo:
                    return True
                if u_lo >= p_hi:
                    return False
                if p_hi - p_lo <= u_hi - u_lo:
                    lu.extend(rng)
                    continue
            prec *= 2

    def _accept_exact(self, t: int, j: int, f_num: int, c_den: int, u: float,
                      rng) -> bool:
        """Exact decision on offset t, proposed in the window (j = 0) or at
        tail step j, for the 53-bit uniform u; fresh bits come from rng."""
        a = Fraction(t * c_den - f_num, c_den) ** 2 / self.s_sq
        if j:
            a -= self.tau + self.gamma * j
        return _decide_exact(Fraction(1), a, _lazy(u), rng)

    def _float_decisions(self, t, j, f, u):
        """Double-precision decisions on proposals: offsets t, tail steps j
        (0 for window proposals), center fractions f and 53-bit uniforms u,
        all arrays.  Returns (accept, reject); a proposal with neither is
        left to exact arithmetic."""
        dx = np.asarray(t, dtype=float) - f
        p = np.exp(-math.pi * dx * dx / self.s_sq_f)
        tail = np.flatnonzero(j)
        if tail.size:
            # b = a - tau - gamma j = ((j + e)^2 + 2 kappa e) / s^2 with
            # e = 3/5 - sign(t) f in [1/10, 11/10]: positive terms only, so
            # b keeps its relative precision however large j is
            e = 0.6 - np.sign(dx[tail]) * f[tail]
            jt = np.asarray(j[tail], dtype=float)
            b = ((jt + e) ** 2 + 2.0 * (self.K - 0.6) * e) / self.s_sq_f
            p[tail] = np.exp(-math.pi * b)
        return _float_bernoulli(p, u)

    def _tail_steps(self, n: int, rng, exact_rng, counts: SamplerCounts) -> np.ndarray:
        """n i.i.d. tail steps j >= 1 with Pr[j] = (1-g) g^(j-1), in bounded
        work whatever the width: j - 1 = M q + r with q ~ Geom(g^M) by
        inversion (``_geometric``) and r in [0, M) of weight g^r by rejection
        from a uniform, which accepts with probability above exp(-2^-20).
        Returns int64 when ``int_matmul``'s bound proves M q + r + 1 fits,
        Python ints otherwise."""
        q = self._geometric(rng.random(n), exact_rng, counts)
        if self.M == 1:
            return q + 1
        r = np.empty(n, dtype=np.int64)
        todo = np.arange(n)
        while todo.size:
            cand = rng.integers(0, self.M, todo.size)
            u = rng.random(todo.size)
            accept, reject = _float_bernoulli(np.exp(-self.rate * cand), u)
            for i in np.flatnonzero(~(accept | reject)):
                counts.fallbacks += 1
                accept[i] = _decide_exact(Fraction(1), self.gamma * int(cand[i]),
                                          _lazy(float(u[i])), exact_rng)
            r[todo[accept]] = cand[accept]
            todo = todo[~accept]
        return int_matmul(np.stack([q, r + 1], axis=1), int_array([[self.M, 1]]))[:, 0]

    def _geometric(self, u, exact_rng, counts: SamplerCounts) -> np.ndarray:
        """q = floor(-ln U / (M rate)) for the uniforms U whose first 53 bits
        are the array u, so that Pr[q >= k] = g^(M k).  Decided in floats
        when the whole 53-bit cell [u, u + 2^-53) has one q, exactly
        otherwise (``_geometric_exact``)."""
        rate = self.rate * self.M
        with np.errstate(divide="ignore"):
            hi = np.floor(-np.log(u) / rate * (1.0 + _STEP_ERR))
        lo = np.floor(-np.log(u + _U_ULP) / rate * (1.0 - _STEP_ERR))
        q = lo.astype(np.int64)
        for i in np.flatnonzero(lo != hi):
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
            return _decide_exact(Fraction(1), self.gamma * self.M * k, lu, rng)

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

    def _draw_block(self, f, f_num, c_den: int, rng, exact_rng,
                    counts: SamplerCounts) -> np.ndarray:
        """Offsets t ~ D_{Z,s,f}, one per entry of the float array f (whose
        exact values are f_num / c_den), in rounds of proposals; int64, or
        Python ints once a tail offset is not proven to fit."""
        t_out = np.empty(len(f), dtype=np.int64)
        pending = np.arange(len(f))
        while pending.size:
            k = -(-_ROUND_MIN // pending.size)
            rows = np.repeat(pending, k)
            n = rows.size
            counts.proposals += n
            u_sel = rng.random(n)
            in_window = u_sel < self.p_window - _SELECT_MARGIN
            for i in np.flatnonzero(~in_window & (u_sel <= self.p_window + _SELECT_MARGIN)):
                counts.fallbacks += 1
                in_window[i] = self._select_window_exact(float(u_sel[i]), exact_rng)
            t = rng.integers(0, self.W, n) - self.K
            u = rng.random(n)
            j = np.zeros(n, dtype=np.int64)
            tail = np.flatnonzero(~in_window)
            if tail.size:
                side = 2 * rng.integers(0, 2, tail.size) - 1
                steps = self._tail_steps(tail.size, rng, exact_rng, counts)
                t_tail = int_add(side * self.K, side * steps)
                if t_tail.dtype == object:
                    t, j = t.astype(object), j.astype(object)
                t[tail], j[tail] = t_tail, steps
            accept, reject = self._float_decisions(t, j, f[rows], u)
            # chosen[r]: index of row r's first accepted proposal, -1 if none
            chosen = np.full(pending.size, -1)
            hits = np.flatnonzero(accept)
            hit_rows = hits // k
            first = np.ones(hits.size, dtype=bool)
            first[1:] = hit_rows[1:] != hit_rows[:-1]
            chosen[hit_rows[first]] = hits[first]
            # Undecided proposals, in proposal order: one before its row's
            # first accept is decided exactly and, if accepted, comes first.
            for i in np.flatnonzero(~(accept | reject)):
                r = i // k
                if 0 <= chosen[r] < i:
                    continue
                counts.fallbacks += 1
                if self._accept_exact(int(t[i]), int(j[i]), int(f_num[rows[i]]),
                                      c_den, float(u[i]), exact_rng):
                    chosen[r] = i
            done = chosen >= 0
            if t.dtype == object:
                t_out = t_out.astype(object, copy=False)
            t_out[pending[done]] = t[chosen[done]]
            pending = pending[~done]
        return t_out


_SAMPLER_CACHE: Dict = {}


def _sampler(s_sq: Fraction) -> _ZSampler:
    """The cached sampler of width s^2."""
    samp = _SAMPLER_CACHE.get(s_sq)
    if samp is None:
        if len(_SAMPLER_CACHE) > 4096:
            _SAMPLER_CACHE.clear()
        samp = _SAMPLER_CACHE[s_sq] = _ZSampler(s_sq)
    return samp


def _draw_z_array(s_sq: Fraction, c_num: np.ndarray, c_den: int, rng,
                  exact_rng) -> Tuple[np.ndarray, SamplerCounts]:
    """One exact draw from D_{Z,s,c} per entry of c = c_num / c_den.

    ``c_num`` is an int64 or object array of integers; the draws come back in
    its shape, x = round(c) + t formed by ``int_add``: int64 when its bound
    proves every sum fits, Python ints otherwise.
    Proposals and uniforms come from the NumPy generator ``rng``; exact
    decisions take their fresh bits from the ``random.Random`` stream
    ``exact_rng``.
    """
    # Window offsets are drawn as int64.  Every s >= 2^63 fails the bound; it
    # is rejected before the sampler takes float(s^2), which can overflow.
    samp = _sampler(s_sq) if s_sq < 1 << 126 else None
    if samp is None or samp.W >= 1 << 63:
        raise PreconditionViolated(
            "array sampler needs a window 2 max(2, ceil(0.75 s)) + 1 < 2^63")
    c_num = np.asarray(c_num)
    counts = SamplerCounts(draws=c_num.size)
    parts = []
    for start in range(0, c_num.size, _BLOCK):
        x0, f_num, f = _split_centers(c_num.flat[start:start + _BLOCK], c_den)
        t = samp._draw_block(f, f_num, c_den, rng, exact_rng, counts)
        parts.append(int_add(x0, t))
    flat = np.concatenate(parts or [np.empty(0, dtype=c_num.dtype)])
    return flat.reshape(c_num.shape), counts


def _split_centers(c_num: np.ndarray, c_den: int):
    """c = x0 + f_num / c_den with x0 the nearest integer (ties to even), in
    exact integer arithmetic, for a 1-D array of numerators; returns x0,
    f_num and the float f = f_num / c_den."""
    if c_num.dtype == np.int64 and c_den >= 1 << 62:  # 2 f_num must fit
        c_num = c_num.astype(object)
    x0 = c_num // c_den
    f_num = c_num - x0 * c_den
    up = (2 * f_num > c_den) | ((2 * f_num == c_den) & (x0 % 2 == 1))
    x0 = np.where(up, x0 + 1, x0)
    f_num = np.where(up, f_num - c_den, f_num)
    return x0, f_num, np.asarray(f_num / c_den, dtype=float)


def _width_floor_sq(n: int) -> float:
    return math.log(2 * n + 4) / math.pi


def sample_zn_rows(param: GaussParam, n: int, rows: int, rng) -> np.ndarray:
    """``rows`` independent exact draws from D_{Z^n, s, c}, as a (rows, n)
    array (int64, or Python integers when the centers need them); requires
    s >= sqrt(ln(2n+4)/pi).  A scalar center applies to every coordinate.

    One array-sampler call, on the Philox stream ``("z",)`` and its exact
    sibling ``("z", "exact")`` under the seed ``rng.getrandbits(63)``.
    """
    if n < 1 or rows < 0:
        raise PreconditionViolated(f"need n >= 1 and rows >= 0, got n={n} rows={rows}")
    if param.s_sq < _width_floor_sq(n) * (1 - 1e-12):
        raise WidthTooSmall(f"s = {param.s:.4f} < sqrt(ln({2 * n + 4})/pi)")
    cs = param.c if len(param.c) == n else param.c * n
    if len(cs) != n:
        raise PreconditionViolated(f"center has length {len(param.c)}, expected {n}")
    den = math.lcm(*(c.denominator for c in cs))
    c_num = int_array([c.numerator * (den // c.denominator) for c in cs])
    seed = rng.getrandbits(63)
    out, _ = _draw_z_array(param.s_sq, np.broadcast_to(c_num, (rows, n)), den,
                           derive_np_rng(seed, "z"), derive_rng(seed, "z", "exact"))
    return out


def sample_z(param: GaussParam, rng) -> int:
    """Exact draw from D_{Z, s, c}; requires s >= sqrt(ln(6)/pi).  Each call
    is one ``sample_zn_rows`` call: draw many values with one of those."""
    if len(param.c) != 1:
        raise PreconditionViolated("sample_z needs a scalar center")
    return int(sample_zn_rows(param, 1, 1, rng)[0, 0])


def sample_zn(param: GaussParam, n: int, rng) -> tuple:
    """Exact draw from D_{Z^n, s, c}; coordinates independent.  Each call is
    one ``sample_zn_rows`` call: draw many vectors with one of those."""
    return tuple(int(v) for v in sample_zn_rows(param, n, 1, rng)[0])


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

def enum_z() -> Callable:
    """Enumerator for Z: points x with |x - c| <= R."""
    return enum_coset_z(0)


def enum_coset_z(offset) -> Callable:
    """Enumerator for Z + offset."""
    off = float(offset)

    def points(R: float, c: Sequence[float]):
        c0 = float(c[0])
        lo = math.floor(c0 - R - off)
        hi = math.ceil(c0 + R - off)
        return [(k + off,) for k in range(lo, hi + 1)]
    return points


def enum_scaled_zn(alpha, n: int) -> Callable:
    """Enumerator for alpha * Z^n."""
    a = float(alpha)

    def points(R: float, c: Sequence[float]):
        ranges = []
        for ci in c[:n] if len(c) >= n else [c[0]] * n:
            lo = math.floor((float(ci) - R) / a)
            hi = math.ceil((float(ci) + R) / a)
            ranges.append(np.arange(lo, hi + 1) * a)
        grids = np.meshgrid(*ranges, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        return [tuple(row) for row in pts]
    return points


def enum_qary(A, q: int) -> Callable:
    """Enumerator for the kernel lattice {x in Z^m : A x = 0 mod q}."""
    A = np.asarray(A, dtype=np.int64)
    n, m = A.shape

    def points(R: float, c: Sequence[float]):
        cs = [float(ci) for ci in (c if len(c) == m else [c[0]] * m)]
        axes = [np.arange(math.floor(ci - R), math.ceil(ci + R) + 1, dtype=np.int64)
                for ci in cs]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        ok = np.all(np.mod(pts @ A.T, q) == 0, axis=1)
        return [tuple(int(v) for v in row) for row in pts[ok]]
    return points


def _gauss_weights(enumerator, param: GaussParam, radius: float):
    """The enumerated points within radius, as a list and as a float array
    (one point per row), and their weights exp(-pi ||x-c||^2 / s^2)."""
    c = [float(v) for v in param.c]
    pts = enumerator(radius, c)
    if len(pts) > 5_000_000:
        raise BudgetExceeded(f"{len(pts)} points exceeds the oracle budget")
    arr = np.asarray(pts, dtype=float)
    cs = np.asarray(c if arr.shape[1] == len(c) else c * arr.shape[1], dtype=float)
    d2 = ((arr - cs) ** 2).sum(axis=1)
    return pts, arr, np.exp(-math.pi * d2 / float(param.s_sq))


def rho_bruteforce(enumerator, param: GaussParam, radius: float = None):
    """Sum of exp(-pi ||x-c||^2 / s^2) over enumerated points within radius
    (default 12 s, far beyond double precision).

    Returns (value, rel_tail_bound): the mass outside the radius is at most
    value * rel_tail_bound / (1 - rel_tail_bound), with rel_tail_bound =
    2 * dim * exp(-pi (radius/s)^2).
    """
    s_sq = float(param.s_sq)
    if radius is None:
        radius = 12.0 * math.sqrt(s_sq)
    _, arr, w = _gauss_weights(enumerator, param, radius)
    rel = 2.0 * arr.shape[1] * math.exp(-math.pi * radius * radius / s_sq)
    return float(w.sum()), rel


def pmf_bruteforce(enumerator, param: GaussParam, radius: float) -> Dict:
    """Normalized pmf of D over the enumerated points (keys are point tuples,
    scalars for one-dimensional enumerators).  Coverage of the true mass is
    at least 1 - rel_tail_bound from ``rho_bruteforce``."""
    pts, arr, w = _gauss_weights(enumerator, param, radius)
    w /= w.sum()
    if arr.shape[1] == 1:
        keys = [p[0] if isinstance(p[0], float) and not p[0].is_integer() else int(p[0])
                for p in pts]
    else:
        keys = [tuple(int(v) if float(v).is_integer() else float(v) for v in p)
               for p in pts]
    return dict(zip(keys, w.tolist()))


# ---------------------------------------------------------------------------
# Formula evaluators
# ---------------------------------------------------------------------------

def eta_zn_bound(n: int, epsilon: float) -> float:
    """Upper bound sqrt(ln(2n(1+1/eps))/pi) on the smoothing parameter of Z^n."""
    if epsilon <= 0:
        raise PreconditionViolated("epsilon must satisfy epsilon > 0")
    return math.sqrt(math.log(2 * n * (1 + 1 / epsilon)) / math.pi)


def eta_qary_bound(n: int, m: int, q: int, epsilon: float) -> float:
    """High-probability bound sqrt(72 ln(1/eps)/pi) * q^(n/m) on the smoothing
    parameter of the kernel lattice of a random A in Z_q^{n x m}."""
    check_qary_preconditions(n, m, q)
    if epsilon > 1 / (4 * m):
        raise PreconditionViolated("epsilon <= 1/(4m)")
    return math.sqrt(72.0 * math.log(1 / epsilon) / math.pi) * q ** (n / m)


def lambda1_inf_lower_bound(n: int, m: int, q: int, *, check: bool = True) -> float:
    """High-probability lower bound q^(1-n/m) 2^(-n/m) / 3 on lambda_1^infty
    of Lambda_q(A) for random A.

    ``check=False`` skips the validity preconditions and returns the bare
    formula value (useful for spot checks in regimes where the bound is
    below 1 and therefore vacuous)."""
    if check:
        check_qary_preconditions(n, m, q)
    return q ** (1 - n / m) * 2 ** (-n / m) / 3


def tail_bound_linf(n: int, R: float) -> float:
    """Bound 2n exp(-pi R^2) on the Gaussian mass outside the R-infinity-ball
    (relative to the full Gaussian mass, width 1; scale R by 1/s otherwise)."""
    if R <= 0:
        raise PreconditionViolated("R > 0")
    return 2.0 * n * math.exp(-math.pi * R * R)


def min_entropy_bound(n: int, epsilon: float) -> float:
    """Bound (1+eps)/(1-eps) 2^-n on the most likely outcome of D_{L,s,c}
    in dimension n, valid for s >= 2 eta_eps(L)."""
    if not (0 <= epsilon < 1):
        raise PreconditionViolated("0 <= epsilon < 1")
    return (1 + epsilon) / (1 - epsilon) * 2.0 ** (-n)


# ---------------------------------------------------------------------------
# Empirical similarity estimation
# ---------------------------------------------------------------------------

@dataclass
class SimilarityResult:
    max_ratio_log: float
    chi2_p: float
    n_bins: int
    bins: List[tuple]  # (key, observed, expected_prob, log_ratio, std_err)

    def excess(self, z: float = 4.0) -> float:
        """max over bins of |log ratio| - z * (per-bin standard error)."""
        return max((abs(lr) - z * se for _, _, _, lr, se in self.bins), default=0.0)


def empirical_similarity(samples: Sequence, pmf: Dict, *, min_expected: float = 25.0,
                         min_samples: int = 10_000) -> SimilarityResult:
    """Estimate the pointwise log-ratio between an empirical sample and an
    exact pmf, plus a chi-square goodness-of-fit p-value.

    Bins are pmf outcomes whose expected count is at least ``min_expected``;
    everything else (including samples outside the pmf support) is pooled
    into one tail cell for the chi-square statistic.
    """
    n = len(samples)
    if n < min_samples:
        raise InsufficientSamples(f"{n} samples < {min_samples}")
    coverage = sum(pmf.values())
    if coverage < 0.9999:
        raise PreconditionViolated("oracle covers >= 99.99% of mass")
    counts: Dict = {}
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
    bins = []
    chi_terms = []
    tail_expected = (1.0 - coverage) * n
    tail_observed = 0
    covered_keys = set()
    for key, p in pmf.items():
        exp_count = p * n
        obs = counts.get(key, 0)
        if exp_count >= min_expected:
            covered_keys.add(key)
            log_ratio = math.log(obs / exp_count) if obs > 0 else -math.inf
            se = math.sqrt(max(1e-300, (1.0 - p)) / (n * p))
            bins.append((key, obs, p, log_ratio, se))
            chi_terms.append((obs, exp_count))
        else:
            tail_expected += exp_count
            tail_observed += obs
    for key, obs in counts.items():
        if key not in pmf:
            tail_observed += obs
    dof = len(chi_terms) - 1
    stat = sum((o - e) ** 2 / e for o, e in chi_terms)
    if tail_expected >= 5.0:
        stat += (tail_observed - tail_expected) ** 2 / tail_expected
        dof += 1
    p_value = float(_chi2_dist.sf(stat, dof)) if dof >= 1 else 1.0
    max_ratio = max((abs(lr) for _, _, _, lr, _ in bins), default=0.0)
    return SimilarityResult(max_ratio_log=max_ratio, chi2_p=p_value,
                            n_bins=len(bins), bins=bins)


# ---------------------------------------------------------------------------
# Brute-force smoothing certification (tiny lattices only)
# ---------------------------------------------------------------------------

def _theta(t: float) -> float:
    """sum over k in Z of exp(-pi t^2 k^2)."""
    if t <= 0:
        raise PreconditionViolated("t > 0")
    acc = 1.0
    k = 1
    while True:
        term = 2.0 * math.exp(-math.pi * t * t * k * k)
        acc += term
        if term < 1e-18:
            return acc
        k += 1


def _bisect_eta(dual_rho_minus_one: Callable, epsilon: float, lo: float,
                hi: float, steps: int) -> float:
    """The upper end of a ``steps``-step bisection on [lo, hi] for the
    smallest s with dual_rho_minus_one(s) <= epsilon (decreasing in s)."""
    if dual_rho_minus_one(hi) > epsilon:
        raise BudgetExceeded("eta above search bound")
    for _ in range(steps):
        mid = (lo + hi) / 2
        if dual_rho_minus_one(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def eta_scaled_zn_bruteforce(alpha, n: int, epsilon: float) -> float:
    """Certified upper bound on eta_eps(alpha Z^n) by bisection on the exact
    dual series (dual lattice is (1/alpha) Z^n)."""
    a = float(alpha)
    return _bisect_eta(lambda s: _theta(s / a) ** n - 1.0, epsilon, 1e-9, 1e9, 200)


def eta_zn_bruteforce(n: int, epsilon: float) -> float:
    return eta_scaled_zn_bruteforce(1.0, n, epsilon)


def eta_qary_bruteforce(A, q: int, epsilon: float) -> float:
    """Certified upper bound on eta_eps of the kernel lattice of A mod q.

    The dual is (1/q) Lambda_q(A); its vectors are enumerated inside a box
    whose residual tail is bounded by the infinity-norm tail lemma and folded
    into the certificate."""
    A = np.asarray(A, dtype=np.int64)
    n, m = A.shape
    if q ** n > 1 << 20:
        raise BudgetExceeded("syndrome space too large for certification")
    syn = _syndromes(q, n, 0, q ** n)
    powers = q ** np.arange(m, dtype=np.int64)
    residue_codes = np.unique(np.mod(syn @ A, q) @ powers)

    def dual_rho_minus_one(s: float) -> float:
        # rho_{1/s}((1/q) Lambda_q(A) \ 0) = sum exp(-pi s^2 ||v/q||^2)
        R = max(2.0, math.sqrt(math.log(1e20) / math.pi) / (s / q))
        R = min(R, 60.0 * q)
        axes = [np.arange(-math.ceil(R), math.ceil(R) + 1, dtype=np.int64)] * m
        if (2 * math.ceil(R) + 1) ** m > 5_000_000:
            raise BudgetExceeded("dual enumeration too large")
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        ok = np.isin(np.mod(pts, q) @ powers, residue_codes)
        pts = pts[ok]
        d2 = (pts.astype(float) ** 2).sum(axis=1) / (q * q)
        total = float(np.exp(-math.pi * s * s * d2).sum())
        tail_rel = 2.0 * m * math.exp(-math.pi * (R / q * s) ** 2)
        if tail_rel >= 0.5:
            return math.inf
        return total * (1 + 2 * tail_rel) - 1.0

    return _bisect_eta(dual_rho_minus_one, epsilon, 1e-6, 1e6, 80)
