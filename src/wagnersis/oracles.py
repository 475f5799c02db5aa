"""Brute-force and reference evaluators for tiny lattices (pmfs, smoothing
parameters, lambda_1^infty, the formula bounds) and the similarity estimator
that compares a sample with a pmf; the library calls them only from
``wagner.certify_smoothing`` and ``wagnersis selftest``.  Every enumeration
runs on one box walker, ``_walk``; a pmf is a pair of arrays (points, probs).

Importing this module loads NumPy and the top-level ``scipy`` package only;
SciPy's special functions (``scipy.special.chdtrc``, the kernel of
``scipy.stats.chi2.sf``) load on the first ``empirical_similarity`` call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Tuple

import numpy as np
import scipy  # a declared dependency: fail here, not at the first statistical check

from .dgauss import GaussParam, check_epsilon
from .errors import BudgetExceeded, InsufficientSamples, PreconditionViolated
from .zqlin import centered, check_qary_preconditions, residue

_SLICE_ROWS = 1 << 16  # most rows the box walker makes at a time
_ROWS_BUDGET = 1 << 25  # most rows one walk makes
_POINTS_BUDGET = 5_000_000  # most points one box keeps


def _walk(lo, hi, keep: Callable = None):
    """Every integer point x with lo <= x <= hi (integer vectors), in
    row-major order (the last coordinate varies fastest), as int64 slices of
    at most _SLICE_ROWS rows, each cut to its rows where ``keep`` is true
    before any is kept.  A box past _ROWS_BUDGET rows is refused at once."""
    sizes = [b - a + 1 for a, b in zip(lo, hi)]
    total = math.prod(sizes)
    if total > _ROWS_BUDGET:
        raise BudgetExceeded(f"a box of {total} rows exceeds the budget of {_ROWS_BUDGET}")
    for start in range(0, total, _SLICE_ROWS):
        rem = np.arange(start, min(total, start + _SLICE_ROWS), dtype=np.int64)
        rows = np.empty((len(rem), len(sizes)), dtype=np.int64)
        for j in range(len(sizes) - 1, -1, -1):
            rem, rows[:, j] = np.divmod(rem, sizes[j])
        rows += lo
        yield rows if keep is None else rows[keep(rows)]


def _box(lo, hi, keep: Callable = None) -> np.ndarray:
    """The points of ``_walk(lo, hi, keep)`` as one int64 array, one per
    row.  More than _POINTS_BUDGET points are refused: an unfiltered box
    before its first slice, a filtered one at the slice that passes it."""
    if keep is None and math.prod(b - a + 1 for a, b in zip(lo, hi)) > _POINTS_BUDGET:
        raise BudgetExceeded(f"a box of more than {_POINTS_BUDGET} points exceeds the budget")
    parts, kept = [np.empty((0, len(lo)), dtype=np.int64)], 0
    for rows in _walk(lo, hi, keep):
        kept += len(rows)
        if kept > _POINTS_BUDGET:
            raise BudgetExceeded(f"more than {_POINTS_BUDGET} kept points exceed the budget")
        parts.append(rows)
    return np.concatenate(parts)


def _split(v) -> Tuple[int, float]:
    """(x0, f): v = x0 + f split exactly, x0 = round(v) (ties to even), and
    f as a float, for a float, integer or Fraction v."""
    v = Fraction(v)
    x0 = round(v)
    return x0, float(v - x0)


def _bounds(cs: Sequence, R: float, alpha=1, offset=0):
    """The integer box [floor((c - offset - R) / alpha), ceil((c - offset +
    R) / alpha)] per center coordinate c of ``cs``, in exact rational
    arithmetic, so that a center past 2^53 keeps its place."""
    a, off, r = Fraction(alpha), Fraction(offset), Fraction(R)
    return ([math.floor((Fraction(c) - off - r) / a) for c in cs],
            [math.ceil((Fraction(c) - off + r) / a) for c in cs])


def enum_z() -> Callable:
    """Enumerator for Z: the integers x with |x - c| <= R, as int64."""
    def points(R: float, c: Sequence):
        return _box(*_bounds(c[:1], R))
    return points


def enum_coset_z(offset) -> Callable:
    """Enumerator for Z + offset."""
    def points(R: float, c: Sequence):
        return _box(*_bounds(c[:1], R, offset=offset)) + float(offset)
    return points


def enum_scaled_zn(alpha, n: int) -> Callable:
    """Enumerator for alpha * Z^n."""
    def points(R: float, c: Sequence):
        cs = c[:n] if len(c) >= n else [c[0]] * n
        return _box(*_bounds(cs, R, alpha=alpha)) * float(alpha)
    return points


def enum_qary(A, q: int) -> Callable:
    """Enumerator for the kernel lattice {x in Z^m : A x = 0 mod q}."""
    A = np.asarray(A, dtype=np.int64)
    n, m = A.shape

    def points(R: float, c: Sequence):
        cs = c if len(c) == m else [c[0]] * m
        return _box(*_bounds(cs, R), lambda pts: np.all(residue(pts @ A.T, q) == 0, axis=1))
    return points


def _gauss_weights(enumerator, param: GaussParam, radius: float):
    """The enumerated points within radius, one per row (an enumerator may
    return a sequence of tuples), and their weights exp(-pi ||x-c||^2 / s^2).
    Each center coordinate is split exactly as c = x0 + f (``_split``) and
    each offset x - c is taken as (x - x0) - f, so only f and x - x0 enter
    float arithmetic: a center past 2^53 is not rounded."""
    pts = np.asarray(enumerator(radius, param.c))
    splits = [_split(v) for v in param.c]
    if pts.shape[1] != len(splits):
        splits *= pts.shape[1]
    x0, f = np.array([x for x, _ in splits]), np.array([g for _, g in splits])
    d2 = ((np.asarray(pts - x0, dtype=float) - f) ** 2).sum(axis=1)
    return pts, np.exp(-math.pi * d2 / float(param.s_sq))


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
    pts, w = _gauss_weights(enumerator, param, radius)
    rel = 2.0 * pts.shape[1] * math.exp(-math.pi * radius * radius / s_sq)
    return float(w.sum()), rel


def pmf_bruteforce(enumerator, param: GaussParam, radius: float):
    """Normalized pmf of D over the enumerated points, as a pair (points,
    probs) of arrays: the points one per row, as the enumerator gives them.
    Coverage of the true mass is at least 1 - rel_tail_bound from
    ``rho_bruteforce``."""
    pts, w = _gauss_weights(enumerator, param, radius)
    return pts, w / w.sum()


def eta_zn_bound(n: int, epsilon: float) -> float:
    """Upper bound sqrt(ln(2n(1+1/eps))/pi) on the smoothing parameter of Z^n."""
    check_epsilon(epsilon)
    return math.sqrt(math.log(2 * n * (1 + 1 / epsilon)) / math.pi)


def eta_qary_bound(n: int, m: int, q: int, epsilon: float) -> float:
    """High-probability bound sqrt(72 ln(1/eps)/pi) * q^(n/m) on the smoothing
    parameter of the kernel lattice of a random A in Z_q^{n x m}."""
    check_qary_preconditions(n, m, q)
    check_epsilon(epsilon)
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


@dataclass
class SimilarityResult:
    chi2_p: float
    n_bins: int
    # per bin, in pmf order: (points, observed, expected_prob, log_ratio, std_err)
    bins: Tuple[np.ndarray, ...]

    def excess(self, z: float = 4.0) -> float:
        """max over bins of |log ratio| - z * (per-bin standard error)."""
        log_ratio, std_err = self.bins[3:]
        return float(np.max(np.abs(log_ratio) - z * std_err)) if self.n_bins else 0.0


_MIN_SAMPLES = 10_000  # fewest samples ``empirical_similarity`` judges


def _rows(a) -> np.ndarray:
    """``a`` as an array of rows; a one-dimensional array is one column."""
    return np.asarray(a).reshape(len(a), -1)


def _counts(samples: np.ndarray, points: np.ndarray) -> np.ndarray:
    """How many sample rows equal each (distinct) point row, by one sort of
    keys.  A row of one coordinate is its own key; rows of several integer
    coordinates are packed into int64 keys over the points' bounding box,
    outside which no sample is counted."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    samples = samples[np.all((samples >= lo) & (samples <= hi), axis=1)]
    if points.shape[1] == 1:
        keys, sample_keys = points[:, 0], samples[:, 0]
    else:
        if points.dtype.kind not in "iu" or samples.dtype.kind not in "iu":
            raise PreconditionViolated("rows of several coordinates must be integers")
        spans = (hi - lo + 1).tolist()
        if math.prod(spans) > 1 << 63:
            raise BudgetExceeded("the points' bounding box exceeds int64 keys")
        strides = np.array([math.prod(spans[j + 1:]) for j in range(len(spans))])
        keys, sample_keys = (points - lo) @ strides, (samples - lo) @ strides
    uniq, freq = np.unique(sample_keys, return_counts=True)
    counts, found = np.zeros(len(keys), dtype=np.int64), np.isin(keys, uniq)
    counts[found] = freq[np.searchsorted(uniq, keys[found])]
    return counts


def empirical_similarity(samples, pmf, *, min_expected: float = 25.0) -> SimilarityResult:
    """Estimate the pointwise log-ratio between an empirical sample and an
    exact pmf, plus a chi-square goodness-of-fit p-value.

    ``samples`` holds one sample per row and ``pmf`` is a pair (points,
    probs) as ``pmf_bruteforce`` returns it; a one-dimensional array is read
    as rows of one coordinate.  Bins are pmf points whose expected count is
    at least ``min_expected``; everything else (including samples outside
    the pmf's points) is pooled into one tail cell for the chi-square
    statistic.
    """
    samples, points, probs = _rows(samples), _rows(pmf[0]), np.asarray(pmf[1], dtype=float)
    n = len(samples)
    if n < _MIN_SAMPLES:
        raise InsufficientSamples(f"{n} samples < {_MIN_SAMPLES}")
    coverage = float(probs.sum())
    if coverage < 0.9999:
        raise PreconditionViolated("oracle covers >= 99.99% of mass")
    observed, expected = _counts(samples, points), probs * n
    binned = expected >= min_expected
    obs, exp_count, p = observed[binned], expected[binned], probs[binned]
    with np.errstate(divide="ignore"):
        log_ratio = np.log(obs / exp_count)
    std_err = np.sqrt(np.maximum(1e-300, 1.0 - p) / (n * p))
    dof = len(obs) - 1
    stat = float(((obs - exp_count) ** 2 / exp_count).sum())
    tail_expected = (1.0 - coverage) * n + float(expected[~binned].sum())
    if tail_expected >= 5.0:
        stat += (n - int(obs.sum()) - tail_expected) ** 2 / tail_expected
        dof += 1
    from scipy.special import chdtrc  # the chi2.sf kernel, without scipy.stats
    p_value = float(chdtrc(dof, stat)) if dof >= 1 else 1.0
    return SimilarityResult(chi2_p=p_value, n_bins=len(obs),
                            bins=(points[binned], obs, p, log_ratio, std_err))


def _theta(t: float) -> float:
    """sum over k in Z of exp(-pi t^2 k^2), in double precision, up to the
    first term below 1e-18."""
    if t <= 0:
        raise PreconditionViolated("t > 0")
    acc = 1.0
    for k in itertools.count(1):
        term = 2.0 * math.exp(-math.pi * t * t * k * k)
        acc += term
        if term < 1e-18:
            return acc


def _bisect_eta(dual_rho_minus_one: Callable, epsilon: float, lo: float,
                hi: float, steps: int) -> float:
    """The upper end of a ``steps``-step bisection on [lo, hi] for the
    smallest s with dual_rho_minus_one(s) <= epsilon (decreasing in s)."""
    if dual_rho_minus_one(hi) > epsilon:
        raise BudgetExceeded("eta above search bound")
    for _ in range(steps):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if dual_rho_minus_one(mid) <= epsilon else (mid, hi)
    return hi


def eta_scaled_zn_bruteforce(alpha, n: int, epsilon: float) -> float:
    """Estimate of eta_eps(alpha Z^n): the upper end of a bisection for the
    smallest s with theta(s / alpha)^n - 1 <= eps (the dual is (1/alpha)
    Z^n).  theta is a float sum that stops at its first term below 1e-18,
    with no rounding budget, so this is an upper bound only up to that
    float error, not a certified one."""
    a = float(alpha)
    return _bisect_eta(lambda s: _theta(s / a) ** n - 1.0, epsilon, 1e-9, 1e9, 200)


def eta_qary_bruteforce(A, q: int, epsilon: float) -> float:
    """Estimate of eta_eps of the kernel lattice of A mod q: the upper end of
    a bisection for the smallest s at which the dual series is at most eps.
    The dual (1/q) Lambda_q(A) is enumerated in a box (the points whose
    residues mod q are codewords A^T s) whose tail, below about 1e-20 of the
    sum, is folded in by the infinity-norm tail lemma.  The sum is a float
    sum with no rounding budget, so this is an upper bound only up to that
    float error, not a certified one."""
    A = np.asarray(A, dtype=np.int64)
    n, m = A.shape
    if q ** m > 1 << 63:
        raise BudgetExceeded("residue codes of the dual box exceed int64")
    powers = q ** np.arange(m, dtype=np.int64)
    residue_codes = np.unique(residue(_box([0] * n, [q - 1] * n) @ A, q) @ powers)

    def dual_rho_minus_one(s: float) -> float:
        # rho_{1/s}((1/q) Lambda_q(A) \ 0) = sum exp(-pi s^2 ||v/q||^2)
        R = min(max(2.0, math.sqrt(math.log(1e20) / math.pi) / (s / q)), 60.0 * q)
        r = math.ceil(R)
        pts = _box([-r] * m, [r] * m,
                   lambda pts: np.isin(residue(pts, q) @ powers, residue_codes))
        d2 = (pts.astype(float) ** 2).sum(axis=1) / (q * q)
        total = float(np.exp(-math.pi * s * s * d2).sum())
        tail_rel = 2.0 * m * math.exp(-math.pi * (R / q * s) ** 2)
        if tail_rel >= 0.5:
            return math.inf
        return total * (1 + 2 * tail_rel) - 1.0

    return _bisect_eta(dual_rho_minus_one, epsilon, 1e-6, 1e6, 80)


def lambda1_inf_bruteforce(A, q: int) -> int:
    """Exact lambda_1^infty of Lambda_q(A) = A^T Z^n + q Z^m by walking all
    q^n syndromes.  The zero and the degenerate syndromes (A^T s = 0 mod q)
    contribute only multiples of q, hence the value q for them."""
    A = np.asarray(A, dtype=np.int64)
    best = q  # q * e_1 is always in the lattice
    for S in _walk([0] * len(A), [q - 1] * len(A)):
        norms = np.abs(centered(S @ A, q)).max(axis=1)  # row i: (A^T s_i)^T, centered
        best = int(norms.min(initial=best, where=norms > 0))
    return best
