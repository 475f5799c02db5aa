"""The projected-lattice chain behind the iterative sampler.

Stage i covers ``b_i`` fresh parity rows.  A stage list is three integer
arrays with one vector per row: the heads X, each already satisfying the
first kappa_{i-1} rows; their canonical lifts Y = -(A'_new @ X_top)
(``_lift_batch``), exact integers with no mod-q reduction; and the offset
coefficients K (``_gaussian_offsets``), which place the row (x ; y + (q/p_i) k)
in the stage superlattice.  The residue K mod p_i is precisely the coset of
the row in the stage's superlattice quotient, which has p_i^{b_i} classes,
so rows with the same residue subtract to vectors satisfying the first
kappa_i rows (``wagner._combine_stage``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .dgauss import _draw_z_array, check_width
from .errors import BlockSumMismatch
from .rngutil import LazyRandom, derive_np_rng
from .zqlin import SisInstance, int_array, int_lincomb, int_matmul


@dataclass(frozen=True)
class StageDescriptor:
    """Immutable description of one chain stage."""

    index: int            # 1-based stage number
    b: int                # new rows handled this stage
    kappa_prev: int       # rows already handled before the stage
    p: int                # stage modulus, 1 <= p <= q
    q: int
    m_minus_n: int
    a_new: np.ndarray     # b x (m-n) slice of new parity rows
    a_prev: np.ndarray    # kappa_prev x (m-n) earlier rows

    @property
    def kappa(self) -> int:
        return self.kappa_prev + self.b

    def lift_bound(self, x_bound: int) -> int:
        """A bound on |y| for y = -(A'_new @ x_top), and on each partial sum
        of it, for heads with |x| <= x_bound: the m - n entries of a row of
        A'_new lie in [0, q), as ``SisInstance`` checks."""
        return self.m_minus_n * (self.q - 1) * x_bound


def build_chain(inst: SisInstance, block_sizes: Sequence[int],
                stage_moduli: Sequence[int], *, allow_partial: bool = False):
    """Stage descriptors for a systematic instance.

    ``allow_partial`` admits block sums below n (early-abort schedules);
    otherwise the blocks must cover all n rows.
    """
    if not inst.systematic:
        raise BlockSumMismatch("instance must be in systematic form")
    if len(block_sizes) != len(stage_moduli):
        raise BlockSumMismatch("need one modulus per block")
    total = sum(block_sizes)
    if total > inst.n or (total != inst.n and not allow_partial):
        raise BlockSumMismatch(f"block sizes sum to {total}, expected {inst.n}")
    if any(b < 1 for b in block_sizes):
        raise BlockSumMismatch("block sizes must be >= 1")
    if any(not (1 <= p <= inst.q) for p in stage_moduli):
        raise BlockSumMismatch("stage moduli must lie in [1, q]")
    a_prime = inst.a_prime
    stages = []
    kappa = 0
    for i, (b, p) in enumerate(zip(block_sizes, stage_moduli), start=1):
        a_new = np.array(a_prime[kappa:kappa + b, :])
        a_prev = np.array(a_prime[:kappa, :])
        a_new.setflags(write=False)
        a_prev.setflags(write=False)
        stages.append(StageDescriptor(index=i, b=b, kappa_prev=kappa, p=int(p),
                                      q=inst.q, m_minus_n=inst.m - inst.n,
                                      a_new=a_new, a_prev=a_prev))
        kappa += b
    return stages


def _lift_batch(stage: StageDescriptor, X: np.ndarray, x_bound: int) -> np.ndarray:
    """y_last = -(A'_new @ x_top) for every row of X, exact integers, under
    ``stage.lift_bound(x_bound)`` for a caller's bound on |x|."""
    return int_matmul(X[:, : stage.m_minus_n], -stage.a_new, stage.lift_bound(x_bound))


@lru_cache(maxsize=256)
def _offset_width_sq(index: int, p: int, q: int, b: int, s_sq: Fraction) -> Fraction:
    """The stage width rule: (p/q)^2 s^2, the squared width of the offset
    coefficients k, once (p/q) s clears sqrt(ln(2b+4)/pi)."""
    scaled = s_sq * p * p / (q * q)
    check_width(scaled, b, f"stage {index}: (p/q) s")
    return scaled


def _gaussian_offsets(stage: StageDescriptor, Y: np.ndarray, width_sq: Fraction,
                      seed_path: tuple, seed, y_bound: int):
    """Sample k ~ D_{Z^b, (p/q) s, -(p/q) y} rowwise via the array sampler,
    for a caller's bound ``y_bound`` on |y|; returns the offsets, int64 when
    every one fits and Python integers otherwise, the sampler's counts and
    a proven bound on |k| (``_draw_z_array``'s, for center numerators -p y
    bounded by p max(1, y_bound))."""
    p, q = stage.p, stage.q
    scaled = _offset_width_sq(stage.index, p, q, stage.b, width_sq)
    c_bound = p * max(1, y_bound)
    c_num = int_lincomb([(-p, Y)], c_bound)  # center numerators -p y
    K, counts, k_bound = _draw_z_array(scaled, c_num, q, derive_np_rng(seed, *seed_path),
                                       LazyRandom(seed, *seed_path, "exact"), c_bound)
    return (K if K.dtype == np.int64 else int_array(K)), counts, k_bound
