"""The projected-lattice chain behind the iterative sampler.

Stage i covers ``b_i`` fresh parity rows.  A vector x already satisfying the
first kappa_{i-1} rows lifts canonically to y_last = -(A'_new @ x_top), an
exact integer vector (no mod-q reduction), and then gets a Gaussian offset
(q/p_i) k on the new coordinates.  Tail coordinates y_last + (q/p_i) k are
kept as exact p_i-scaled integers ``tail_num = p_i y_last + q k`` because
q/p_i is usually not an integer.  The residue k mod p_i is precisely the
coset of the vector in the stage's superlattice quotient, which has p_i^{b_i}
classes, so same-label vectors subtract to vectors satisfying the first
kappa_i rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from .dgauss import GaussParam, SamplerCounts, _draw_z_array, _width_floor_sq
from .errors import BlockSumMismatch, NotInLattice, WidthTooSmall
from .rngutil import derive_np_rng, derive_rng
from .zqlin import SisInstance, int_array, int_matmul, matvec_mod


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
    a_prev: np.ndarray    # kappa_prev x (m-n) earlier rows (membership checks)

    @property
    def kappa(self) -> int:
        return self.kappa_prev + self.b

    @property
    def dim_in(self) -> int:
        return self.m_minus_n + self.kappa_prev


@dataclass(frozen=True)
class StagedVector:
    """A vector of the stage superlattice in exact scaled-integer form."""

    head: tuple           # length m-n+kappa_prev, plain integers
    tail_num: tuple       # length b: p*y_last + q*k (numerators over p)
    k: tuple              # length b: the scaled-offset coefficients
    label: tuple          # k mod p, componentwise
    stage: StageDescriptor

    @classmethod
    def from_offsets(cls, stage: StageDescriptor, head, y, k) -> "StagedVector":
        """The vector (head ; y + (q/p) k) for the canonical lift y of head."""
        ks = tuple(int(v) for v in k)
        tail = tuple(stage.p * int(yj) + stage.q * kj for yj, kj in zip(y, ks))
        return cls(head=tuple(int(v) for v in head), tail_num=tail, k=ks,
                   label=tuple(kj % stage.p for kj in ks), stage=stage)

    def check(self):
        """Validate the scaled form and return y_last."""
        st = self.stage
        y = self.y_last()
        if any(st.p * yj + st.q * kk != t
               for yj, kk, t in zip(y, self.k, self.tail_num)):
            raise NotInLattice("tail numerator is not p*y + q*k")
        if coset_label(self) != self.label:
            raise NotInLattice("label does not match k mod p")
        return y

    def y_last(self) -> tuple:
        return tuple((t - self.stage.q * kk) // self.stage.p
                     for t, kk in zip(self.tail_num, self.k))


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


def _check_membership(stage: StageDescriptor, x: Sequence[int]):
    if len(x) != stage.dim_in:
        raise NotInLattice(f"vector length {len(x)}, expected {stage.dim_in}")
    if stage.kappa_prev:
        syn = matvec_mod(stage.a_prev, x[: stage.m_minus_n], stage.q)
        if any((int(sv) + int(bv)) % stage.q
               for sv, bv in zip(syn, x[stage.m_minus_n:])):
            raise NotInLattice("earlier parity rows are not satisfied")


def _lift_batch(stage: StageDescriptor, X: np.ndarray) -> np.ndarray:
    """y_last = -(A'_new @ x_top) for every row of X, exact integers."""
    return -int_matmul(X[:, : stage.m_minus_n], stage.a_new)


def _difference(stage: StageDescriptor, X: np.ndarray, Y: np.ndarray,
                K: np.ndarray, i1, i2) -> np.ndarray:
    """Rows X[i1] - X[i2], extended by the exact tail difference
    (Y[i1] - Y[i2]) + q (K[i1] - K[i2]) / p.  Paired rows must share their
    coset label K mod p; the results then satisfy the first kappa_i rows.
    The tail is one ``int_matmul``, exact under its overflow rule."""
    dk = K[i1] - K[i2]
    if np.any(np.mod(dk, stage.p)):
        raise NotInLattice("paired vectors disagree on coset label")
    terms = np.stack([Y[i1], Y[i2], dk // stage.p], axis=-1).reshape(-1, 3)
    tail = int_matmul(terms, int_array([[1, -1, stage.q]])).reshape(dk.shape)
    return np.hstack([X[i1] - X[i2], tail])


def _stack(stage: StageDescriptor, staged: Sequence[StagedVector]):
    """The X, Y, K arrays of the stage kernels for a list of staged vectors:
    heads, y_last and offset coefficients, one vector per row."""
    rows = len(staged)
    X = int_array([sv.head for sv in staged]).reshape(rows, stage.dim_in)
    Y = int_array([sv.check() for sv in staged]).reshape(rows, stage.b)
    K = int_array([sv.k for sv in staged]).reshape(rows, stage.b)
    return X, Y, K


def lift_integer(stage: StageDescriptor, x: Sequence[int]) -> tuple:
    """Exact integer lift: y_last = -(A'_new @ x_top), not reduced mod q.

    The assembled vector (x ; y_last) satisfies all kappa_i parity rows, and
    is the unique lift of x inside the complement spanned by the
    [I | -A'_i] columns together with q e_j on the earlier bottom rows.
    """
    _check_membership(stage, x)
    return tuple(int(v) for v in _lift_batch(stage, int_array([x]))[0])


@lru_cache(maxsize=256)
def _offset_width_sq(index: int, p: int, q: int, b: int, s_sq: Fraction) -> Fraction:
    """The stage width rule: (p/q)^2 s^2, the squared width of the offset
    coefficients k, once s clears the stage floor (q/p) sqrt(ln(2b+4)/pi)."""
    floor_sq = (Fraction(q, p) ** 2) * Fraction(_width_floor_sq(b))
    if float(s_sq) < float(floor_sq) * (1 - 1e-12):
        raise WidthTooSmall(
            f"stage {index}: s = {math.sqrt(float(s_sq)):.4f} below "
            f"(q/p) sqrt(ln(2b+4)/pi) = {math.sqrt(float(floor_sq)):.4f}")
    return s_sq * p * p / (q * q)


def _gaussian_offsets(stage: StageDescriptor, Y: np.ndarray, width_sq: Fraction,
                      seed_path: tuple, seed) -> Tuple[np.ndarray, SamplerCounts]:
    """Sample k ~ D_{Z^b, (p/q) s, -(p/q) y} rowwise via the array sampler;
    returns the offsets, int64 when every one fits and Python integers
    otherwise, and the sampler's counts."""
    p, q = stage.p, stage.q
    scaled = _offset_width_sq(stage.index, p, q, stage.b, width_sq)
    # center numerators -p y, under int_matmul's overflow rule
    c_num = int_matmul(Y.reshape(-1, 1), int_array([[-p]])).reshape(Y.shape)
    K, counts = _draw_z_array(scaled, c_num, q, derive_np_rng(seed, *seed_path),
                              derive_rng(seed, *seed_path, "exact"))
    return int_array(K), counts


def dglift(stage: StageDescriptor, x: Sequence[int], s, rng) -> StagedVector:
    """Randomized lift into the stage superlattice.

    Computes the canonical integer lift and adds a discrete Gaussian offset
    of width s over (q/p) Z^b; the offset coefficients come from the exact
    integer sampler at width (p/q) s, center -(p/q) y_last.  Projecting the
    output orthogonally to the new coordinates recovers x bit-exactly.  The
    offsets are the samplers' own ``_gaussian_offsets`` on a 1-row list, at
    stream path ``("dglift",)`` under the seed ``rng.getrandbits(63)``.
    """
    s_sq = s.s_sq if isinstance(s, GaussParam) else Fraction(s) ** 2
    y = lift_integer(stage, x)
    K, _ = _gaussian_offsets(stage, int_array([y]), s_sq, ("dglift",),
                             rng.getrandbits(63))
    return StagedVector.from_offsets(stage, x, y, K[0])


def coset_label(sv: StagedVector) -> tuple:
    """The class of the vector in the stage quotient: k mod p componentwise."""
    return tuple(kk % sv.stage.p for kk in sv.k)


def label_of_point(stage: StageDescriptor, head: Sequence[int],
                   tail_num: Sequence[int]) -> tuple:
    """Coset label of an arbitrary superlattice point given in scaled form."""
    y = lift_integer(stage, head)
    ks = []
    for t, yj in zip(tail_num, y):
        num = int(t) - stage.p * yj
        if num % stage.q:
            raise NotInLattice("point is not in the stage superlattice")
        ks.append(num // stage.q)
    return tuple(kk % stage.p for kk in ks)


def combine_pair(sv1: StagedVector, sv2: StagedVector) -> tuple:
    """Difference of two same-label staged vectors, as an exact integer
    vector satisfying the first kappa_i parity rows."""
    if sv1.label != sv2.label:
        raise NotInLattice("labels differ; difference leaves the sublattice")
    X, Y, K = _stack(sv1.stage, (sv1, sv2))
    return tuple(int(v) for v in _difference(sv1.stage, X, Y, K, [0], [1])[0])


def in_superlattice(stage: StageDescriptor, sv: StagedVector) -> bool:
    """Verify the represented rational vector lies in the stage superlattice
    by checking integrality of its basis coordinates."""
    y = sv.check()
    try:
        return y == lift_integer(stage, sv.head)
    except NotInLattice:
        return False
