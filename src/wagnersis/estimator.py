"""Heuristic attack-cost model for Wagner-style solving of infinity-norm SIS.

The model scores a candidate list size N as follows.  Initial vectors are the
sparsest ternary vectors numerous enough to fill the list: weight w is the
smallest integer with 2^w C(m-n, w) >= N, giving per-coordinate deviation
sigma_0 = sqrt(w/(m-n)).  Stage i buckets on p_i residues per coordinate with
p_i = q / (kappa_v sigma_{i-1}), where kappa_v is sqrt(12) for plain rounding
and sqrt(2 pi e) for quantization; that injects per-vector deviation
sigma_{i-1} into the new coordinates, so after subtraction old and new
coordinates alike sit at sigma_i = 2^(i/2) sigma_0.  Blocks are fractional:
b_i = log2(N) / log2(p_i), and stages accrue while p_i >= 2.  Aborting after
r' stages leaves ell = n - sum b_i rows whose coordinates are uniform mod q.
A single sample then passes the norm bound with probability

    p = erf(beta / (sigma_r' sqrt(2)))^(m - ell) * min(1, 2 beta / q)^ell

and the attack is scored successful when N p > 1/2.  ``estimate`` returns the
smallest N on a 0.1-bit grid for which some abort point succeeds.

All arithmetic is double precision with log-space binomials; this is a cost
model, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import Infeasible, PreconditionViolated

VARIANT_ROUNDING = "rounding"
VARIANT_QUANTIZATION = "quantization"

_KAPPA = {
    VARIANT_ROUNDING: math.sqrt(12.0),
    VARIANT_QUANTIZATION: math.sqrt(2.0 * math.pi * math.e),
}
_MAX_LOG2N = 4000.0  # largest log2 N the estimate searches
_GRID_BITS = 0.1  # the log2 N grid the estimate returns a point of


@dataclass(frozen=True)
class CostQuery:
    """SIS parameters to estimate against."""

    n: int
    m: int
    q: int
    beta: int
    variant: str = VARIANT_QUANTIZATION

    def __post_init__(self):
        if self.variant not in _KAPPA:
            raise PreconditionViolated(f"unknown variant {self.variant!r}")
        if not (0 < self.beta and 2 * self.beta < self.q):  # exact at any q
            raise PreconditionViolated(f"need 0 < beta < q/2, got beta={self.beta}")
        try:
            float(self.q)  # the cost model's arithmetic is in doubles
        except OverflowError:
            raise PreconditionViolated("q must be below the float range (2^1024)") from None
        if not (1 <= self.n < self.m):
            raise PreconditionViolated("1 <= n < m")


@dataclass
class CostReport:
    """Estimator output: the cheapest successful parametrization found."""

    log2N: float
    w: int
    sigma0: float
    r_prime: int
    sigma_rprime: float
    ell: float
    p_success_single: float
    variant: str
    feasible: bool

    MODEL_NOTES = (
        "sparse ternary start; balanced deviation recurrence with fractional "
        "moduli and block sizes; central-Gaussian scoring of covered "
        "coordinates; leftover coordinates uniform mod q; success when the "
        "expected hit count N p exceeds 1/2; costs are list sizes, not gates"
    )

    def as_dict(self) -> dict:
        return {
            "log2N": round(self.log2N, 4),
            "w": self.w,
            "sigma0": round(self.sigma0, 6),
            "r_prime": self.r_prime,
            "sigma_rprime": round(self.sigma_rprime, 3),
            "ell": round(self.ell, 3),
            "p_success_single": self.p_success_single,
            "variant": self.variant,
            "feasible": self.feasible,
            "model": self.MODEL_NOTES,
        }

    CSV_HEADER = "log2N,w,sigma0,r_prime,sigma_rprime,ell,variant"

    def as_csv_row(self) -> str:
        return (f"{self.log2N:.1f},{self.w},{self.sigma0:.4f},{self.r_prime},"
                f"{self.sigma_rprime:.1f},{self.ell:.1f},{self.variant}")


def _log2_comb(d: int, w: int) -> float:
    if w < 0 or w > d:
        return -math.inf
    return (math.lgamma(d + 1) - math.lgamma(w + 1) - math.lgamma(d - w + 1)) \
        / math.log(2.0)


def _min_weight_log2(m_minus_n: int, log2_target: float) -> Tuple[int, float]:
    if m_minus_n < 1:
        raise PreconditionViolated("m - n >= 1")
    for w in range(m_minus_n + 1):
        if w + _log2_comb(m_minus_n, w) >= log2_target - 1e-9:
            return w, math.sqrt(w / m_minus_n)
    raise Infeasible(
        f"even weight {m_minus_n} yields fewer than 2^{log2_target:.1f} vectors")


def min_weight(m_minus_n: int, n_samples) -> Tuple[int, float]:
    """Smallest weight w with 2^w C(m-n, w) >= n_samples distinct ternary
    vectors, plus the induced deviation sigma_0 = sqrt(w/(m-n))."""
    if n_samples < 1:
        raise PreconditionViolated("need at least one sample")
    return _min_weight_log2(m_minus_n, math.log2(float(n_samples)))


@dataclass
class StageTable:
    """Fractional per-stage schedule under the balanced deviation recurrence."""

    sigma0: float
    w: int
    log2N: float
    p: List[float]        # stage moduli (fractional)
    b: List[float]        # fractional block sizes log2N / log2 p_i
    cum_b: List[float]    # prefix sums of b

    def sigma(self, i: int) -> float:
        """Deviation after stage i (post-abort convention): 2^(i/2) sigma_0."""
        return 2.0 ** (i / 2) * self.sigma0

    def ell(self, r_prime: int, n: int) -> float:
        return n - self.cum_b[r_prime - 1]

    @property
    def max_stages(self) -> int:
        return len(self.p)


def heuristic_schedule(query: CostQuery, log2N: float) -> StageTable:
    """Fractional stage moduli, block sizes, and deviations for a list size.

    Stages accrue while the balanced modulus stays >= 2; block sizes increase
    with the stage index since the moduli shrink."""
    d = query.m - query.n
    w, sigma0 = _min_weight_log2(d, log2N)
    if w == 0:
        raise Infeasible("list size 1 carries no entropy")
    kappa = _KAPPA[query.variant]
    p: List[float] = []
    b: List[float] = []
    cum: List[float] = []
    total = 0.0
    i = 1
    while True:
        pi = query.q / (kappa * sigma0 * 2.0 ** ((i - 1) / 2))
        if pi < 2.0:
            break
        bi = log2N / math.log2(pi)
        total += bi
        p.append(pi)
        b.append(bi)
        cum.append(total)
        if total >= query.n:
            break
        i += 1
    if not p:
        raise Infeasible("first-stage modulus below 2: initial deviation too large")
    return StageTable(sigma0=sigma0, w=w, log2N=log2N, p=p, b=b, cum_b=cum)


def success_probability(query: CostQuery, table: StageTable, r_prime: int) -> float:
    """Central-Gaussian success probability of a single final sample when
    aborting after r_prime stages."""
    ell = table.ell(r_prime, query.n)
    if ell < 0:
        raise PreconditionViolated("abort point covers more than n rows")
    sigma = table.sigma(r_prime)
    per_gauss = math.erf(query.beta / (sigma * math.sqrt(2.0)))
    if per_gauss <= 0.0:
        return 0.0
    per_unif = min(1.0, 2.0 * query.beta / query.q)
    return per_gauss ** (query.m - ell) * per_unif ** ell


def log2_expected_hits(log2N: float, beta, groups, ell, per_unif: float) -> float:
    """log2(N p) under the central-Gaussian success model: each (count,
    deviation) group of coordinates passes the bound beta with probability
    erf(beta / (deviation sqrt(2))) per coordinate, and each of the ell
    leftover coordinates with probability ``per_unif``.  Terms are summed in
    that order; -inf when a Gaussian factor is 0."""
    val = log2N
    for count, dev in groups:
        per = math.erf(beta / (dev * math.sqrt(2.0)))
        if per <= 0.0:
            return -math.inf
        val += count * math.log2(per)
    return val + ell * math.log2(per_unif)


def _log2_np(query: CostQuery, log2N: float) -> Tuple[float, Optional[int]]:
    """log2(N p) at the best abort point, and that abort point."""
    try:
        table = heuristic_schedule(query, log2N)
    except Infeasible:
        return -math.inf, None
    best = -math.inf
    best_rp = None
    for rp in range(1, table.max_stages + 1):
        ell = table.ell(rp, query.n)
        if ell < 0:
            break
        val = log2_expected_hits(log2N, query.beta, [(query.m - ell, table.sigma(rp))],
                                 ell, min(1.0, 2.0 * query.beta / query.q))
        if val > best:
            best = val
            best_rp = rp
    return best, best_rp


def estimate(query: CostQuery) -> CostReport:
    """Smallest log2 N on the grid for which the attack model succeeds."""
    grid = _GRID_BITS
    # Exponential bracket, then a binary search down to the grid, then an
    # exact walk so the returned point is the grid minimum.
    lo, hi = 1.0, None
    x = 16.0
    while x <= _MAX_LOG2N:
        val, _ = _log2_np(query, x)
        if val > -1.0:
            hi = x
            break
        lo = x
        x *= 2.0
    if hi is None:
        raise Infeasible(f"no success up to log2 N = {_MAX_LOG2N}")
    while hi - lo > grid:
        mid = (lo + hi) / 2
        val, _ = _log2_np(query, mid)
        if val > -1.0:
            hi = mid
        else:
            lo = mid
    x = round(hi / grid) * grid
    while _log2_np(query, x)[0] <= -1.0:
        x = round((x + grid) / grid) * grid
    while x - grid >= 1.0 and _log2_np(query, x - grid)[0] > -1.0:
        x = round((x - grid) / grid) * grid
    val, rp = _log2_np(query, x)
    table = heuristic_schedule(query, x)
    return CostReport(
        log2N=x,
        w=table.w,
        sigma0=table.sigma0,
        r_prime=rp,
        sigma_rprime=table.sigma(rp),
        ell=table.ell(rp, query.n),
        p_success_single=success_probability(query, table, rp),
        variant=query.variant,
        feasible=True,
    )


PRESETS = {
    "dilithium2": (256 * 4, 256 * 9, 8380417, 350209),
    "dilithium3": (256 * 6, 256 * 12, 8380417, 724481),
    "dilithium5": (256 * 8, 256 * 16, 8380417, 769537),
    "shine": (500, 600, 1000, 250),
}


def dilithium_presets() -> List[CostQuery]:
    """The three infinity-norm SIS parameter sets underlying Dilithium."""
    return [CostQuery(*PRESETS[name])
            for name in ("dilithium2", "dilithium3", "dilithium5")]
