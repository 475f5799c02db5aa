"""The benchmark's three workloads.

Each workload builds its inputs from the run seed when it is constructed
(that is part of set-up, not of an op), then exposes:

* ``run(k)``: op number k, the timed user-level call;
* ``check(k, result)``: exact output checks, run outside the timed region;
* ``record(result)``: the seed-deterministic part of the output, for the
  determinism digest (vectors plus ``RunStats.as_dict()`` without wall times);
* ``stats(result)``: the run's ``RunStats`` dictionary;
* ``corrupt(result)``: the same result with one output coordinate changed,
  which the self-test uses to prove that ``check`` catches it.

Library calls go through module attributes (``wagnersis.systematic_form``
and so on) so that the traced run can wrap them where they are resolved.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

import wagnersis
from wagnersis import wagner as _wagner

_INT64_SAFE = 1 << 62


def derive_seed(*path) -> int:
    """63-bit seed for one input or op, fixed by the run seed and the path.

    Kept apart from ``wagnersis.rngutil`` so that a change to the library's
    own stream derivation cannot change the benchmark's inputs."""
    tag = "perfbench|" + "|".join(str(p) for p in path)
    digest = hashlib.blake2b(tag.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def rows_in_lattice(A, X, q: int) -> bool:
    """Every row x of X satisfies A x = 0 mod q, computed exactly, here
    rather than by the library's own membership check."""
    X = np.asarray(X)
    if X.size == 0:
        return True
    A = np.asarray(A)
    max_x = int(np.abs(X).max())
    if X.dtype == np.int64 and A.dtype == np.int64 and \
            A.shape[1] * (q - 1) * max(1, max_x) < _INT64_SAFE:
        return not np.any(np.mod(X @ A.T, q))
    prod = np.asarray(X, dtype=object) @ np.asarray(A, dtype=object).T
    return not any(int(v) % q for v in prod.flat)


def without_wall_times(stats: dict) -> dict:
    """RunStats dictionary minus ``stage_seconds``, the only field that is
    not fixed by the seed."""
    return {k: v for k, v in stats.items() if k != "stage_seconds"}


def unpermute_rows(perm, Y: np.ndarray) -> np.ndarray:
    """Row-wise ``permute_solution_back``: X[:, perm[t]] = Y[:, t]."""
    X = np.empty_like(Y)
    X[:, list(perm)] = Y
    return X


class HeuristicSolve:
    """Desk-scale heuristic solve: fresh 8x20 mod 257 instance per op,
    ``systematic_form`` then ``solve_sis_inf`` at f = 4 sqrt(ln m), so
    beta = q/4."""

    name = "heuristic-solve"
    n, m, q = 8, 20, 257
    pool = 256
    epsilon = 2.0 ** -10

    def __init__(self, seed: int):
        self.seed = seed
        self.f = 4.0 * math.sqrt(math.log(self.m))
        self.beta = Fraction(self.q, 4)
        self.instances = [
            wagnersis.random_instance(self.n, self.m, self.q,
                                      derive_seed(seed, self.name, "instance", i))
            for i in range(self.pool)]

    def run(self, k: int):
        inst = self.instances[k % self.pool]
        sys_inst, perm = wagnersis.systematic_form(inst)
        report = wagnersis.solve_sis_inf(
            sys_inst, self.f, self.epsilon, wagnersis.MODE_HEURISTIC,
            derive_seed(self.seed, self.name, "op", k), threads=1)
        return perm, report

    def check(self, k: int, result) -> bool:
        perm, report = result
        if not report.solutions:
            return False
        inst = self.instances[k % self.pool]
        for sol in report.solutions:
            x = wagnersis.permute_solution_back(perm, sol.x)
            if wagnersis.verify(inst, x) != "Valid":
                return False
            if max(abs(v) for v in x) > self.beta:
                return False
        return True

    def record(self, result):
        perm, report = result
        sols = np.array([s.x for s in report.solutions], dtype=np.int64)
        return sols, [list(perm), without_wall_times(report.stats)]

    def stats(self, result) -> dict:
        return result[1].stats

    def corrupt(self, result):
        perm, report = result
        sols = list(report.solutions)
        x = list(sols[0].x)
        x[0] += 1
        sols[0] = wagnersis.Solution.from_vector(x, "linf")
        return perm, replace(report, solutions=sols)


class ProvableSample:
    """Provable-mode ``gaussian_wagner`` on systematic 2x8 mod 5 instances:
    r=2, p=(2,2), b=(1,1), s0^2=144, N=2000, so 9N x 6 exact initial draws.

    Op cost depends on the instance by up to 20% (the stage centers differ),
    so ops cycle through a pool of instances rather than one, which keeps the
    run's median from hanging on a single draw of the instance."""

    name = "provable-sample"
    N = 2000
    pool = 16

    def __init__(self, seed: int):
        self.seed = seed
        self.instances = [
            wagnersis.systematic_form(wagnersis.random_instance(
                2, 8, 5, derive_seed(seed, self.name, "instance", i)))[0]
            for i in range(self.pool)]
        self.schedule = wagnersis.Schedule(
            mode=wagnersis.MODE_PROVABLE, r=2, N=self.N, p=(2, 2), b=(1, 1),
            s0_sq=Fraction(144))

    def run(self, k: int):
        return wagnersis.gaussian_wagner(
            self.instances[k % self.pool], self.schedule, derive_seed(self.seed, self.name, "op", k),
            threads=1)

    def check(self, k: int, result) -> bool:
        X, stats = result
        N = self.N
        inst = self.instances[k % self.pool]
        return (stats.list_sizes == [9 * N, 3 * N, N] and len(X) == N
                and rows_in_lattice(inst.A, X, inst.q))

    def record(self, result):
        return result[0], without_wall_times(self.stats(result))

    def stats(self, result) -> dict:
        return result[1].as_dict()

    def corrupt(self, result):
        X, stats = result
        X = np.array(X, copy=True)
        X[0, 0] += 1
        return X, stats


class NaiveRounding:
    """Rounding warm-up variant: fresh 12x30 mod 257 instance per op,
    ``systematic_form`` then ``naive_wagner`` with
    ``choose_naive_params(12, 257, 4.0)``; no Gaussian draws at all."""

    name = "naive-rounding"
    n, m, q = 12, 30, 257
    f = 4.0
    pool = 64

    def __init__(self, seed: int):
        self.seed = seed
        self.instances = [
            wagnersis.random_instance(self.n, self.m, self.q,
                                      derive_seed(seed, self.name, "instance", i))
            for i in range(self.pool)]

    def run(self, k: int):
        inst = self.instances[k % self.pool]
        sys_inst, perm = wagnersis.systematic_form(inst)
        schedule = wagnersis.choose_naive_params(self.n, self.q, self.f)
        X, stats = wagnersis.naive_wagner(
            sys_inst, schedule, derive_seed(self.seed, self.name, "op", k))
        return perm, schedule, X, stats

    def check(self, k: int, result) -> bool:
        perm, schedule, X, stats = result
        inst = self.instances[k % self.pool]
        if stats.list_sizes[0] != 3 ** schedule.r * schedule.N:
            return False
        if len(X) == 0:
            return True
        bound = _wagner.eq1_norm_bound(schedule, self.q)
        return (int(np.abs(X).max()) <= bound
                and rows_in_lattice(inst.A, unpermute_rows(perm, X), self.q))

    def record(self, result):
        perm, _schedule, X, _stats = result
        return X, [list(perm), without_wall_times(self.stats(result))]

    def stats(self, result) -> dict:
        return result[3].as_dict()

    def corrupt(self, result):
        perm, schedule, X, stats = result
        X = np.array(X, copy=True)
        X[0, 0] += 1
        return perm, schedule, X, stats


WORKLOADS = {w.name: w for w in (HeuristicSolve, ProvableSample, NaiveRounding)}
