"""Instance builders, a stage-list oracle, the Gaussian call of the combine
kernel and a fresh-interpreter runner shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from wagnersis.rngutil import derive_np_rng
from wagnersis.wagner import _combine_stage, _pack_labels
from wagnersis.zqlin import SisInstance, _max_abs, int_lincomb


def make_systematic(n, m, q, seed, beta=None, stream="mk"):
    """A systematic instance [A' | I_n] with A' uniform, drawn on the NumPy
    stream ``stream`` under ``seed``."""
    rng = derive_np_rng(seed, stream)
    a_prime = rng.integers(0, q, size=(n, m - n), dtype=np.int64)
    A = np.hstack([a_prime, np.eye(n, dtype=np.int64)])
    return SisInstance.create(A, q, beta=beta)


def parity_rows_ok(a_rows, q, X):
    """Every row x of X satisfies the parity rows a_j . x_top + x[d + j] = 0
    mod q of [A' | I], for a_j the rows of ``a_rows`` and d their length; in
    plain Python integers."""
    a_rows = [[int(v) for v in row] for row in np.asarray(a_rows).tolist()]
    for x in np.asarray(X).tolist():
        for j, a in enumerate(a_rows):
            if (sum(ai * int(xi) for ai, xi in zip(a, x)) + int(x[len(a) + j])) % q:
                return False
    return True


def stage_rows_ok(stage, X, Y, K):
    """Oracle for a stage list (X, Y, K), one vector per row, in plain Python
    integers: each head satisfies the first kappa_{i-1} parity rows, each lift
    is y = -A'_new x_top, and each residue of ``np.mod(K, p)`` (the stage's
    coset label) is k mod p, in [0, p)."""
    p, d = stage.p, stage.m_minus_n
    rows = np.asarray(X).tolist()
    if not (len(rows) == len(Y) == len(K)) or \
            any(len(x) != stage.m_minus_n + stage.kappa_prev for x in rows):
        return False
    if not parity_rows_ok(stage.a_prev, stage.q, X):
        return False
    a_new = [[int(v) for v in row] for row in np.asarray(stage.a_new).tolist()]
    for x, y in zip(rows, np.asarray(Y).tolist()):
        if [int(v) for v in y] != [-sum(a * int(xi) for a, xi in zip(row, x[:d]))
                                   for row in a_new]:
            return False
    for k, lab in zip(np.asarray(K).tolist(), np.mod(K, p).tolist()):
        if len(k) != stage.b or \
                any(not 0 <= int(r) < p or int(r) != int(kj) % p for kj, r in zip(k, lab)):
            return False
    return True


def gaussian_combine(stage, X, Y, K, cap, reuse):
    """``_combine_stage`` as a Gaussian stage calls it on the stage list
    (X, Y, K): integer tails y + q floor(k/p), labels k mod p, and the
    heads' bound max|X|, the stage's one read of its list."""
    T = int_lincomb([(1, Y), (stage.q, K // stage.p)])
    return _combine_stage(stage, X, T, _pack_labels(K, stage.p), cap, reuse, _max_abs(X))


class ScriptedUniforms:
    """A NumPy generator whose first ``random`` calls return the scripted
    values (one per call, None defers) and that defers to ``rng`` after."""

    def __init__(self, rng, script):
        self._rng, self._script = rng, list(script)

    def random(self, n):
        v = self._script.pop(0) if self._script else None
        return self._rng.random(n) if v is None else np.full(n, v)

    def integers(self, *args):
        return self._rng.integers(*args)


_SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(snippet):
    """Run ``snippet`` in a fresh interpreter with PYTHONPATH=src and return
    its stdout; a non-zero exit fails with the child's stderr."""
    proc = subprocess.run([sys.executable, "-c", snippet], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(_SRC)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
