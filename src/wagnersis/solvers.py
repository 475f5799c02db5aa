"""Top-level SIS solvers wrapping the Gaussian sampler, plus verification.

The infinity-norm solver filters sampler outputs by 0 < ||x||_inf <= beta
with beta = (q/f) sqrt(ln m); the Euclidean variant uses beta = (q/f) sqrt(m)
and additionally insists the solution is nonzero mod q (multiples of q such
as (q, 0, ..., 0) are rejected).  Norm comparisons against the real-valued
beta are exact: the float beta is read as the dyadic rational it is, and for
integer vectors ||x||_inf <= beta iff max |x_i| <= floor(beta), and
||x||_2 <= beta iff sum x_i^2 <= floor(beta^2).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np

from .dgauss import check_epsilon
from .errors import PreconditionViolated
from .wagner import (
    MODE_HEURISTIC,
    MODE_PROVABLE,
    Schedule,
    check_norm_factor,
    choose_heuristic_params,
    choose_provable_params,
    gaussian_wagner,
)
from .zqlin import (
    _INT64_SAFE,
    SisInstance,
    Solution,
    _is_integer,
    _max_abs,
    check_qary_preconditions,
    matvec_mod,
    norm_stat,
    residue,
)

VERDICT_VALID = "Valid"
VERDICT_ZERO = "ZeroVector"
VERDICT_NORM = "NormExceeded"
VERDICT_NOT_IN_LATTICE = "NotInLattice"
_MAX_SOLUTIONS = 16  # solutions a solve report keeps


@dataclass
class SolveReport:
    solutions: List[Solution]
    attempts: int
    success: bool
    norm_bound_used: float
    mode: str
    trivial_regime: bool = False
    stats: Optional[dict] = None

    def to_json(self) -> str:
        stats = None
        if self.stats is not None:
            # wall times stay in --stats-out files; stdout must be
            # byte-identical for a fixed (command, flags, seed)
            stats = {k: v for k, v in self.stats.items() if k != "stage_seconds"}
        return json.dumps({
            "solutions": [{"x": list(s.x), "norm": s.norm_value}
                          for s in self.solutions],
            "attempts": self.attempts,
            "success": self.success,
            "norm_bound_used": self.norm_bound_used,
            "mode": self.mode,
            "trivial_regime": self.trivial_regime,
            "stats": stats,
        })


def _norm_limit(beta, norm_kind: str) -> int:
    """The integer bound equivalent to beta >= 0 for integer vectors:
    floor(beta) on max |x_i|, floor(beta^2) on sum x_i^2."""
    b = Fraction(beta)
    return math.floor(b if norm_kind == "linf" else b * b)


def _row_norm_stats(X: np.ndarray, norm_kind: str) -> np.ndarray:
    """``norm_stat`` of every row of the int64 or object matrix X, exactly:
    max |x_i| as uint64 for int64 rows (|-2^63| fits), and sum x_i^2 in
    int64 while m max|x|^2 < 2^62, which bounds every partial sum, over
    Python integers otherwise."""
    if norm_kind == "linf":
        A = np.abs(X)
        return (A.view(np.uint64) if A.dtype == np.int64 else A).max(axis=1)
    if X.dtype != np.int64 or X.shape[1] * _max_abs(X) ** 2 >= _INT64_SAFE:
        X = X.astype(object)
    return (X * X).sum(axis=1)


def verify(inst: SisInstance, x) -> str:
    """Exact verdict: lattice membership first, then zero, then the norm.
    An entry that is not an integer (a float, a bool, a string) is not in the
    lattice: it is never truncated."""
    xs = list(x)
    if len(xs) != inst.m or not all(map(_is_integer, xs)):
        return VERDICT_NOT_IN_LATTICE
    xs = [int(v) for v in xs]
    if any(int(v) for v in matvec_mod(inst.A, xs, inst.q)):
        return VERDICT_NOT_IN_LATTICE
    if all(v == 0 for v in xs):
        return VERDICT_ZERO
    # the instance's own beta under its norm kind, when it carries one
    if inst.beta is not None and \
            norm_stat(xs, inst.norm_kind) > _norm_limit(inst.beta, inst.norm_kind):
        return VERDICT_NORM
    return VERDICT_VALID


def _norm_bound(inst: SisInstance, f: float, norm_kind: str) -> float:
    """beta = (q/f) sqrt(ln m) for the infinity norm, (q/f) sqrt(m) for l2,
    which must be a finite double."""
    check_norm_factor(f)
    try:
        beta = (inst.q / f) * math.sqrt(math.log(inst.m) if norm_kind == "linf" else inst.m)
    except OverflowError:  # q past the float range
        beta = math.inf
    if beta == math.inf:
        raise PreconditionViolated(f"beta = (q/f) sqrt(...) must be a finite double, got f = {f}")
    return beta


def _check_mode(inst: SisInstance, f: float, epsilon: float, mode: str):
    check_epsilon(epsilon)
    if mode == MODE_HEURISTIC:
        return
    if mode != MODE_PROVABLE:
        raise PreconditionViolated(f"unknown solve mode {mode!r}")
    check_qary_preconditions(inst.n, inst.m, inst.q)
    if epsilon > 1.0 / (inst.m * inst.q ** 4):
        raise PreconditionViolated("epsilon <= 1/(m q^4)")
    if inst.q / f < math.sqrt(math.log(1 / epsilon)):
        raise PreconditionViolated("q/f >= sqrt(ln(1/eps))")
    warnings.warn(
        "provable-mode guarantees are asymptotic; desk-scale runs are experiments",
        stacklevel=3)


def choose_schedule(inst: SisInstance, f: float, epsilon: float, mode: str,
                    norm_kind: str = "linf") -> Schedule:
    """The schedule the ``norm_kind`` solver runs when it is given none."""
    beta = _norm_bound(inst, f, norm_kind)  # also rejects an unusable f in either mode
    check_epsilon(epsilon)  # name a bad epsilon before any ladder is walked
    if mode == MODE_PROVABLE:
        return choose_provable_params(inst.n, inst.m, inst.q, f, epsilon)
    if mode == MODE_HEURISTIC:
        return choose_heuristic_params(inst.n, inst.m, inst.q, beta, epsilon=epsilon)
    raise PreconditionViolated(f"unknown solve mode {mode!r}")


def _solve(inst: SisInstance, f: float, epsilon: float, mode: str, rng,
           norm_kind: str, schedule: Optional[Schedule], threads: int) -> SolveReport:
    """Run the sampler and keep its first _MAX_SOLUTIONS outputs that are
    nonzero (mod q for l2, which excludes trivia like (q, 0, ..., 0)),
    within beta under ``norm_kind`` and within the instance's own beta."""
    beta = _norm_bound(inst, f, norm_kind)
    trivial = norm_kind == "l2" and beta >= inst.q * math.sqrt(inst.n / 12.0)
    _check_mode(inst, f, epsilon, mode)
    if schedule is None:
        schedule = choose_schedule(inst, f, epsilon, mode, norm_kind)
    elif schedule.mode != mode:
        raise PreconditionViolated(f"schedule mode {schedule.mode} is not solve mode {mode}")
    outputs, stats = gaussian_wagner(inst, schedule, rng, threads=threads)
    norms = _row_norm_stats(outputs, norm_kind)
    if norm_kind == "linf":
        keep = norms > 0
    else:  # residue's int64 path takes q < 2^63
        keep = (residue(outputs if inst.q < 1 << 63 else outputs.astype(object),
                        inst.q) != 0).any(axis=1)
    keep &= norms <= _norm_limit(beta, norm_kind)
    if inst.beta is not None:
        own = _row_norm_stats(outputs, inst.norm_kind)
        keep &= own <= _norm_limit(inst.beta, inst.norm_kind)
    rows = np.flatnonzero(keep)[:_MAX_SOLUTIONS]
    sols = [Solution.from_vector(x, norm_kind) for x in outputs[rows].tolist()]
    if inst.beta is not None and inst.norm_kind == norm_kind and inst.beta < beta:
        beta = float(inst.beta)  # the bound actually enforced (an exact comparison)
    return SolveReport(solutions=sols, attempts=len(outputs), success=bool(sols),
                       norm_bound_used=beta, mode=schedule.mode,
                       trivial_regime=trivial, stats=stats.as_dict())


def solve_sis_inf(inst: SisInstance, f: float, epsilon: float, mode: str, rng, *,
                  schedule: Optional[Schedule] = None, threads: int = 1) -> SolveReport:
    """Infinity-norm solver at beta = (q/f) sqrt(ln m)."""
    return _solve(inst, f, epsilon, mode, rng, "linf", schedule, threads)


def solve_sis_l2(inst: SisInstance, f: float, epsilon: float, mode: str, rng, *,
                 schedule: Optional[Schedule] = None, threads: int = 1) -> SolveReport:
    """Euclidean solver at beta = (q/f) sqrt(m); solutions must be nonzero
    mod q, which excludes trivia like (q, 0, ..., 0)."""
    return _solve(inst, f, epsilon, mode, rng, "l2", schedule, threads)
