"""Heuristic attack-cost model for Wagner-style solving of infinity-norm SIS.

The model scores a candidate list size N as follows.  Initial vectors are the
sparsest ternary vectors numerous enough to fill the list: weight w is the
smallest integer with 2^w C(m-n, w) >= N, giving per-coordinate deviation
sigma_0 = sqrt(w/(m-n)).  One stage builder, ``stage_model``, runs the
balanced deviation recurrence: stage i buckets on p_i residues per
coordinate with p_i = q / (kappa_v sigma_{i-1}), where kappa_v is sqrt(12)
for plain rounding and sqrt(2 pi e) for quantization; that injects
per-vector deviation sigma_{i-1} into the new coordinates, so after
subtraction old and new coordinates alike sit at sigma_i = 2^(i/2) sigma_0.
Blocks are b_i = log2(N) / log2(p_i).  The builder has two rounding rules:
the relaxed rule of this cost model (fractional p_i and b_i, stages accrue
while p_i >= 2), and the integer rule of the schedules
``wagner.choose_heuristic_params`` runs, which alone floors deviations at
the stage width rule.  Aborting after r' stages leaves
ell = n - sum b_i rows whose coordinates are uniform mod q.  One abort
scorer, ``best_abort``, scores every abort point with
``log2_expected_hits``; under the relaxed rule a single sample passes the
norm bound with probability

    p = erf(beta / (sigma_r' sqrt(2)))^(m - ell) * min(1, 2 beta / q)^ell

and the attack is scored successful when N p > 1/2.  ``estimate`` returns
the least N on a 0.1-bit grid, from 1 bit up to min(4000 bits, the largest
same-weight pool), for which some abort point succeeds.

All arithmetic is double precision with log-space binomials; this is a cost
model, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .dgauss import _WIDTH_SLACK, _least, _width_floor_sq
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


_MAX_STAGES = 64  # the integer rule's stage cap
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def stage_model(q: int, n: int, log2N: float, sigma0: float, kappa: float, *,
                integer: bool = False) -> List[Tuple[float, float, float]]:
    """Stages (p_i, b_i, dev_i) of the balanced deviation recurrence.

    Stage i buckets on p_i = q / (kappa sigma_{i-1}) residues, blocks
    b_i = log2 N / log2 p_i rows and injects per-vector deviation dev_i;
    sigma_{i-1} = M 2^((i-1)/2), where M = max(sigma_0, dev_j / 2^((j-1)/2))
    over the earlier stages j.  Stages accrue until they cover n rows, under
    one of two rounding rules:

    * relaxed (the cost model): fractional p and b, stopping before p < 2,
      and dev = sigma, so the last stage may cover more than n rows;
    * integer (runnable schedules): p rounded into [2, min(q, N)], whole b
      in [1, rows left], at most _MAX_STAGES stages, and the width
      sqrt(2 pi) dev floored at the stage width rule, _WIDTH_SLACK times
      (q/p) sqrt(ln(2b+4)/pi)."""
    stages: List[Tuple[float, float, float]] = []
    M, covered = sigma0, 0
    while covered < n and not (integer and len(stages) == _MAX_STAGES):
        half = 2.0 ** (len(stages) / 2)  # 2^((i-1)/2)
        sigma = M * half
        p = q / (kappa * M * half)  # not kappa * sigma: the relaxed p keeps its ulps
        if integer:
            p = max(2, min(int(round(p)), q, int(2 ** log2N)))
            b = min(max(1, int(log2N / math.log2(p))), n - covered)
            dev = max(sigma * _SQRT_2PI,
                      (q / p) * math.sqrt(_width_floor_sq(b)) * _WIDTH_SLACK) / _SQRT_2PI
        elif p < 2.0:
            break
        else:
            b, dev = log2N / math.log2(p), sigma
        stages.append((p, b, dev))
        covered += b
        if dev > sigma:
            M = dev / half
    return stages


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


def best_abort(log2N: float, beta, stages, sigma0: float, d: int, n: int,
               per_unif: float) -> Tuple[float, Optional[int]]:
    """The best abort point r of ``stage_model`` stages, and its log2(N p).

    Aborting after r stages, stage i's b_i coordinates sit at deviation
    dev_i sqrt(2) 2^((r-i)/2), the d = m - n initial ones at sigma_0
    2^(r/2), and the ell = n - sum b_i uncovered ones are uniform; abort
    points past n rows are not scored.  (-inf, None) when none is."""
    best, best_r, covered = -math.inf, None, 0
    for r, (_, b, _) in enumerate(stages, start=1):
        covered += b
        if covered > n:
            break
        groups = [(bi, dev * math.sqrt(2.0) * 2.0 ** ((r - i) / 2))
                  for i, (_, bi, dev) in enumerate(stages[:r], start=1)]
        groups.append((d, sigma0 * 2.0 ** (r / 2)))
        score = log2_expected_hits(log2N, beta, groups, n - covered, per_unif)
        if score > best:
            best, best_r = score, r
    return best, best_r


def estimate(query: CostQuery) -> CostReport:
    """The least log2 N on the 0.1-bit grid at which some abort point of the
    relaxed stage model succeeds (N p > 1/2).

    The search runs over grid points from 1 bit up to min(4000, the log2 of
    the largest same-weight pool m - n coordinates hold); ``dgauss._least``
    gallops up from 1 bit and bisects, so it returns a point that succeeds
    while the one below it fails (the least one unless the success region
    has holes).  Raises ``Infeasible`` when the search ends at the cap and
    the cap fails."""
    d, n, kappa = query.m - query.n, query.n, _KAPPA[query.variant]
    per_unif = min(1.0, 2.0 * query.beta / query.q)
    top = math.floor(min(_MAX_LOG2N, max(w + _log2_comb(d, w) for w in range(d + 1)))
                     / _GRID_BITS)
    bottom = round(1.0 / _GRID_BITS)

    def model(k: int):
        log2N = k * _GRID_BITS
        w, sigma0 = _min_weight_log2(d, log2N)
        stages = stage_model(query.q, n, log2N, sigma0, kappa)
        return (w, sigma0, stages,
                *best_abort(log2N, query.beta, stages, sigma0, d, n, per_unif))

    k = _least(lambda k: k >= bottom and (k >= top or model(k)[3] > -1.0), bottom)
    w, sigma0, stages, score, rp = model(k)
    if not score > -1.0:
        raise Infeasible(f"no success up to log2 N = {top * _GRID_BITS:.1f}")
    ell = n - sum(b for _, b, _ in stages[:rp])
    sigma = 2.0 ** (rp / 2) * sigma0
    per_gauss = math.erf(query.beta / (sigma * math.sqrt(2.0)))
    return CostReport(
        log2N=k * _GRID_BITS,
        w=w,
        sigma0=sigma0,
        r_prime=rp,
        sigma_rprime=sigma,
        ell=ell,
        p_success_single=per_gauss ** (query.m - ell) * per_unif ** ell
        if per_gauss > 0.0 else 0.0,
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
