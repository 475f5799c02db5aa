"""Instance and staged-vector builders shared by the test modules."""

import numpy as np

from wagnersis.chain import StagedVector, lift_integer
from wagnersis.rngutil import derive_np_rng
from wagnersis.zqlin import SisInstance


def make_systematic(n, m, q, seed, beta=None, stream="mk"):
    """A systematic instance [A' | I_n] with A' uniform, drawn on the NumPy
    stream ``stream`` under ``seed``."""
    rng = derive_np_rng(seed, stream)
    a_prime = rng.integers(0, q, size=(n, m - n), dtype=np.int64)
    A = np.hstack([a_prime, np.eye(n, dtype=np.int64)])
    return SisInstance.create(A, q, beta=beta)


def staged(stage, x, ks, y=None):
    """The staged vector of head x and offsets ks over the lift y (the
    canonical integer lift of x unless given)."""
    y = lift_integer(stage, x) if y is None else y
    return StagedVector.from_offsets(stage, x, y, ks)
