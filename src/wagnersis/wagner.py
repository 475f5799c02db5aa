"""Bucket-and-combine list processing and the full iterative samplers.

Every run mode takes one backward walk through the chain of projected
lattices (``_run``): an initial list, then one stage per chain lattice, and
one ``RunStats`` entry per list.  The mode fixes the initial list and the
stage kernel, and with it the pairing:

* ``provable-gaussian``: 3^r N exact Gaussian draws; Gaussian stages pair
  disjointly (each input at most once) and output exactly a third of their
  input; strict width preconditions.
* ``heuristic-gaussian``: 3N sparse ternary vectors; Gaussian stages pair
  within buckets with reuse, capped at 3N, and drop zero and duplicate rows;
  an early abort leaves some rows lifted to plain centered residues.
* ``naive-rounding``: the warm-up variant, 3^r N uniform ternary vectors,
  read from the generator's raw words as the exact stream of NumPy's
  bounded ``integers(-1, 2)`` draw (``_uniform_ternary``); rounding stages
  bucket by rounded completions instead of Gaussian randomized lifting and
  pair disjointly, with no cap.

Lists are integer matrices, one vector per row: Gaussian lists int64 where
the ``zqlin`` overflow rule allows and Python integers otherwise.  Rounding
lists hold the top coordinates x_top alone, since a row's completions and
labels depend on x_top mod q only; after stage i a row is a difference of
2^i ternary rows, in the narrowest signed type that holds [-2^r, 2^r]
(``_rounding_dtype``).  Every run returns int64 or object rows.  Lifts and
membership checks multiply in the first type of ``zqlin._EXACT_TIERS`` that
holds every partial sum exactly (float32, int64): no tier rounds.  Every
array reduction mod q or mod p (the rounding lift, the coset labels, the
membership check and the leftover syndrome) is ``zqlin.residue``: on int64,
a floor-divide by the scalar modulus, then a multiply and a subtract in
uint64, several times faster than NumPy's remainder; Python ``%`` on objects.

Every stage ends in one combine kernel (``_combine_stage``): one sort
groups the rows by a packed label (``_buckets``: a stable argsort of uint16
keys below 2^16, else a plain sort of distinct (label, position) keys where
they fit 63 bits, else a stable argsort), and same-label
pairs subtract in their heads X and an integer tail T.  A Gaussian stage
labels a row by its offsets' coset k mod p (see ``chain``) and takes
T = y + q floor(k/p); same-label rows share (q/p)(k mod p), so T1 - T2 is
the exact tail difference (y1 - y2) + q (k1 - k2)/p.  A rounding stage
labels by round((p/q) y) mod p, y = -A'_new x_top mod q, and has no tail.
Disjoint pairing (``pair_indices_disjoint``) puts each pair's first slot in
list order with one scatter and reads both members from the grouping's
``order`` as two 1-D gathers.

A heuristic stage curates its output (``_curate``): it drops zero and
duplicate rows and sorts the rest lexicographically.  Int64 rows are sorted
as byte strings, each entry x written big-endian as the unsigned x + 2^63;
that map keeps the order of signed values, and bytewise comparison of such
strings is comparison entry by entry.  Object rows go through ``lexsort``.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from . import estimator as _estimator
from .chain import (
    StageDescriptor,
    _gaussian_offsets,
    _lift_batch,
    _offset_width_sq,
    build_chain,
)
from .dgauss import (
    _WIDTH_SLACK,
    SamplerCounts,
    _draw_z_array,
    _width_floor_sq,
    check_epsilon,
    check_width,
)
from .errors import (
    BudgetExceeded,
    Infeasible,
    InfeasibleSchedule,
    InsufficientInputs,
    NotInLattice,
    PreconditionViolated,
)
from .oracles import eta_qary_bruteforce, eta_scaled_zn_bruteforce
from .rngutil import LazyRandom, derive_np_rng
from .zqlin import (
    _INT64_SAFE,
    _MEM_BUDGET_BYTES,
    SisInstance,
    _is_integer,
    _max_abs,
    centered,
    check_qary_preconditions,
    int_array,
    int_lincomb,
    int_matmul,
    residue,
)

MODE_PROVABLE = "provable-gaussian"
MODE_HEURISTIC = "heuristic-gaussian"
MODE_NAIVE = "naive-rounding"


@dataclass(frozen=True)
class Schedule:
    """All run parameters for one sampler invocation."""

    mode: str
    r: int
    N: int
    p: tuple
    b: tuple
    s0_sq: Optional[Fraction] = None   # exact s0^2; None for naive mode
    epsilon: float = 2.0 ** -10

    def __post_init__(self):
        if self.mode not in (MODE_PROVABLE, MODE_HEURISTIC, MODE_NAIVE):
            raise InfeasibleSchedule(f"unknown mode {self.mode!r}")
        if not all(map(_is_integer, (self.r, self.N, *self.p, *self.b))):
            raise InfeasibleSchedule("r, N and every p_i and b_i must be integers")
        if self.mode != MODE_NAIVE and (self.s0_sq is None or self.s0_sq <= 0):
            raise InfeasibleSchedule(f"{self.mode} mode needs a width s0_sq > 0")
        if len(self.p) != self.r or len(self.b) != self.r:
            raise InfeasibleSchedule("need r moduli and r block sizes")
        if self.N < 1 or self.r < 1:
            raise InfeasibleSchedule("need N >= 1 and r >= 1")
        if not 0 < self.epsilon < 1:  # NaN fails too
            raise InfeasibleSchedule("need 0 < epsilon < 1")

    def width_sq(self, i: int) -> Fraction:
        """Exact squared width at the start of stage i (1-based): 2^(i-1) s0^2."""
        return self.s0_sq * (2 ** (i - 1))


@dataclass
class RunStats:
    """Observability record for one sampler run."""

    mode: str
    list_sizes: List[int] = field(default_factory=list)
    stage_seconds: List[float] = field(default_factory=list)
    bucket_histograms: List[List[Tuple[int, int]]] = field(default_factory=list)
    # one entry per list in list_sizes; lists built without Gaussian draws
    # read zeros.  as_dict() gives one column per counter, which keeps each
    # run's record small.
    sampler: List[SamplerCounts] = field(default_factory=list)
    nonzero_fraction: float = 0.0
    max_linf: int = 0
    max_l2: float = 0.0

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "list_sizes": list(self.list_sizes),
            "stage_seconds": [round(t, 6) for t in self.stage_seconds],
            "bucket_histograms": [[list(x) for x in h] for h in self.bucket_histograms],
            "sampler": {f.name: [getattr(c, f.name) for c in self.sampler]
                        for f in fields(SamplerCounts)},
            "nonzero_fraction": self.nonzero_fraction,
            "max_linf": self.max_linf,
            "max_l2": self.max_l2,
        }


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------

Buckets = Tuple[np.ndarray, np.ndarray, np.ndarray]  # order, rank, sizes

# Labels below this bound are sorted as uint16 keys: NumPy's stable argsort
# on integers of at most 16 bits is a radix sort.
_NARROW_KEYS = 1 << 16


def _buckets(labels, bound: int) -> Buckets:
    """Group positions by label in one sort.

    Returns ``order``, the positions in label order (a bucket's members in
    insertion order), ``rank``, each ``order[i]``'s rank in its bucket, and
    ``sizes``, the bucket sizes, buckets in label order.  ``bound`` is an
    exclusive upper bound on nonnegative labels, known from how they were
    made (p^b for a stage).  Up to 2^16 the labels take a stable argsort as
    uint16 keys (a radix sort).  Past it, int64 labels whose packed keys
    (label << s) | position, s = bits(len(labels)), fit 63 bits are grouped
    by sorting those distinct keys: the position bits break ties in list
    order, so masking them off gives the stable order, and shifting them off
    the labels in that order.  Other labels take a stable argsort.  A stable
    order is unique, so the grouping does not depend on the path.
    """
    if not (isinstance(labels, np.ndarray) and labels.dtype == np.int64):
        labels = int_array(labels)
    shift = len(labels).bit_length()
    if bound <= _NARROW_KEYS:
        labels = labels.astype(np.uint16)
    if labels.dtype == np.int64 and (bound - 1).bit_length() + shift <= 63:
        keys = np.sort((labels << shift) | np.arange(len(labels)))
        order, ranked = keys & ((1 << shift) - 1), keys >> shift
    else:
        order = np.argsort(labels, kind="stable")
        ranked = labels[order]
    edge = np.ones(len(order) + 1, dtype=bool)
    edge[1:-1] = ranked[1:] != ranked[:-1]
    bounds = np.flatnonzero(edge)  # bucket starts, then len(labels)
    sizes = np.diff(bounds)
    return order, np.arange(len(order)) - np.repeat(bounds[:-1], sizes), sizes


def pair_indices_disjoint(buckets: Buckets, cap: Optional[int]) -> np.ndarray:
    """Disjoint pairing of a ``_buckets`` grouping, as an (npairs, 2) int64
    array: pair k of a bucket is its members 2k and 2k+1, emitted at its k-th
    member, the order of a list walk that pairs off the first two unused
    members of each element's bucket.  Stops at ``cap`` pairs if given.

    The emitting members are distinct list positions, so one scatter of each
    pair's first slot into a position-indexed array puts the pairs in list
    order; both members are then read from ``order`` as two 1-D gathers."""
    order, rank, sizes = buckets
    emit = np.flatnonzero(rank < np.repeat(sizes // 2, sizes))
    at = np.full(len(order), -1)
    at[order[emit]] = emit + rank[emit]
    first = at[at >= 0][:cap]
    return np.stack([order[first], order[first + 1]], axis=1)


def pair_indices_reuse(buckets: Buckets, cap: int) -> np.ndarray:
    """All within-bucket pairs of a ``_buckets`` grouping, as an (npairs, 2)
    int64 array: buckets in first-occurrence order, pairs in lexicographic
    member order, at most ``cap`` of them."""
    order, rank, sizes = buckets
    # the slots in label order regrouped by their bucket's first member; the
    # member of rank a heads the s-1-a pairs (a, b), b > a, of its bucket
    heads = np.argsort(order[np.arange(len(order)) - rank], kind="stable")
    count = (np.repeat(sizes, sizes) - 1 - rank)[heads]
    end = np.cumsum(count)
    keep = np.searchsorted(end, cap) + 1  # the heads that reach the cap
    heads, count, end = heads[:keep], count[:keep], end[:keep]
    first = np.repeat(heads, count)
    second = first + 1 + np.arange(len(first)) - np.repeat(end - count, count)
    return order[np.stack([first, second], axis=1)][:cap]


def _occupancy_histogram(buckets: Buckets) -> List[Tuple[int, int]]:
    """(bucket size, number of buckets of that size) of a ``_buckets``
    grouping, sizes ascending."""
    occupancy = np.bincount(buckets[2])
    sizes = np.flatnonzero(occupancy)
    return list(zip(sizes.tolist(), occupancy[sizes].tolist()))


# ---------------------------------------------------------------------------
# Array-level stage processing (hot path)
# ---------------------------------------------------------------------------

def _pack_labels(K: np.ndarray, p: int) -> np.ndarray:
    """Per-row coset labels: the residues K mod p read as base-p digits, one
    term p^j R[:, j] per digit column.  Every label and partial sum is below
    p^b, so int64 residues sum in int64 while p^b <= 2^62, with no bound
    read from the data; ``int_lincomb`` forms them otherwise."""
    R = residue(K, p)
    terms = [(p ** j, R[:, j]) for j in range(K.shape[1])]
    if R.dtype == np.int64 and p ** K.shape[1] <= _INT64_SAFE:
        return sum(c * a for c, a in terms)
    return int_lincomb(terms)


def _combine_stage(stage: StageDescriptor, X: np.ndarray, T: np.ndarray,
                   labels: np.ndarray, cap: Optional[int], reuse: bool, x_bound: int):
    """Group rows by label (below p^b), pair within groups (with reuse or
    disjointly, at most ``cap`` pairs) and write X[i1] - X[i2] and T[i1] - T[i2]
    into one ``np.result_type(X, T)`` array; returns it and the grouping.
    Int64 heads whose bound on |x| (``x_bound``, the caller's) reaches 2^62,
    ``int_lincomb``'s bound for a - b, subtract as Python integers; the
    caller vouches that T's differences fit T's type."""
    if X.dtype == np.int64 and x_bound >= _INT64_SAFE:
        X = X.astype(object)
    buckets = _buckets(labels, stage.p ** stage.b)
    i1, i2 = (pair_indices_reuse(buckets, cap) if reuse
              else pair_indices_disjoint(buckets, cap)).T
    dim = X.shape[1]
    out = np.empty((len(i1), dim + T.shape[1]), dtype=np.result_type(X, T))
    np.subtract(np.take(X, i1, axis=0), np.take(X, i2, axis=0), out=out[:, :dim])
    if T.shape[1]:  # a rounding stage's tail is empty; its gathers would still walk i1, i2
        np.subtract(np.take(T, i1, axis=0), np.take(T, i2, axis=0), out=out[:, dim:])
    return out, buckets


def _round_scaled(Y: np.ndarray, p: int, q: int) -> np.ndarray:
    """round((p/q) y), halves up, for entries y in [0, q): floor((2 p y + q) /
    2q).  2 p y + q < q (2p + 1), so an int64 Y forms it in int64 while that
    is at most 2^62, and ``int_lincomb`` forms it otherwise."""
    if Y.dtype == np.int64 and q * (2 * p + 1) <= _INT64_SAFE:
        return (2 * p * Y + q) // (2 * q)
    return int_lincomb([(2 * p, Y), (q, 1)]) // (2 * q)


def _rounding_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer type that holds [-bound, bound], object
    from 2^63: ``min_scalar_type(-bound-1)``, as ``min_scalar_type(-bound)``
    is int8 at bound = 128, which cannot hold 128."""
    return np.min_scalar_type(-bound - 1)


_SIGN_BIT = np.uint64(1 << 63)


def _curate(out: np.ndarray) -> np.ndarray:
    """Drop zero rows and duplicate rows; survivors in lexicographic order,
    int64 rows sorted as the byte keys of the module docstring."""
    out = out[np.any(out != 0, axis=1)]
    if len(out) < 2:
        return out
    if out.dtype == np.int64:
        keys = (out.view(np.uint64) ^ _SIGN_BIT).astype(">u8")
        keys = keys.view(np.dtype((np.void, keys.itemsize * out.shape[1]))).ravel()
        return out[np.unique(keys, return_index=True)[1]]
    out = out[np.lexsort(out.T[::-1])]
    return out[np.concatenate(([True], np.any(out[1:] != out[:-1], axis=1)))]


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _as_seed(rng) -> int:
    if isinstance(rng, int):
        return rng
    if isinstance(rng, random.Random):
        return rng.getrandbits(63)
    raise TypeError("rng must be an int seed or random.Random")


def _initial_gaussian(count: int, dim: int, s0_sq: Fraction,
                      seed: int) -> Tuple[np.ndarray, SamplerCounts]:
    """count x dim exact draws from D_{Z,s0}, and the sampler's counts."""
    return _draw_z_array(s0_sq, np.broadcast_to(np.int64(0), (count, dim)), 1,
                         derive_np_rng(seed, "init"), LazyRandom(seed, "init", "exact"), 0)[:2]


def _initial_ternary_sparse(count: int, dim: int, weight: int, seed: int) -> np.ndarray:
    rng = derive_np_rng(seed, "init-ternary")
    X = np.zeros((count, dim), dtype=np.int64)
    u = rng.random((count, dim))
    idx = np.argpartition(u, weight - 1, axis=1)[:, :weight]
    signs = rng.integers(0, 2, size=(count, weight), dtype=np.int64) * 2 - 1
    np.put_along_axis(X, idx, signs, axis=1)
    return X


def _check_final_membership(inst: SisInstance, out: np.ndarray, linf: int):
    """NotInLattice unless A x = 0 mod q for every row; ``linf``, a bound on
    |x|, bounds the product by m (q - 1) linf, as A's entries lie in [0, q)."""
    if np.any(residue(int_matmul(out, inst.A, inst.m * (inst.q - 1) * linf), inst.q)):
        raise NotInLattice("output failed the exact membership check")


def _finish_stats(stats: RunStats, out: np.ndarray):
    if out.size:
        stats.nonzero_fraction = float(np.mean(np.any(out != 0, axis=1)))
        stats.max_linf = int(np.abs(out).max())
        stats.max_l2 = float(np.sqrt((out.astype(float) ** 2).sum(axis=1).max()))


# Raw words per batch of _uniform_ternary: 256 KB, so that a batch's
# temporaries stay in cache and the draw's peak memory stays near its output.
_TERNARY_BATCH_WORDS = 1 << 15


def _uniform_ternary(bitgen: np.random.BitGenerator, count: int, width: int) -> np.ndarray:
    """``count`` uniform draws from {-1, 0, 1} as int8, read from the bit
    generator's raw 64-bit words as little-endian ``width``-bit chunks
    (8 or 16): the zero chunk is dropped and a chunk v maps to
    [v > t] + [v > 2t] - 1, t = floor(2^w / 3).  The law is exactly uniform:
    the 2^w - 1 nonzero chunks split evenly, 85 per value at w = 8 and
    21845 at w = 16.

    This is the stream of ``Generator(bitgen).integers(-1, 2, count, dtype)``
    for the w-bit ``dtype``, bit for bit: NumPy fills that draw from w-bit
    chunks of successive 32-bit outputs, low chunk first; SFC64's 32-bit
    outputs are the low and then the high half of each word; and Lemire's
    rule for a range of 3 rejects exactly the zero chunk (its threshold is
    (2^w - 3) mod 3 = 1) and maps v to floor(3v / 2^w), which is the map
    above.  Words come in batches of at most ``_TERNARY_BATCH_WORDS``, with a
    margin for the zero chunks expected among the draws still needed.  Only
    the batch that completes the list leaves chunks unread, so the chunks
    are read in stream order, and a short batch is simply followed by
    another."""
    per_word, third = 64 // width, (1 << width) // 3
    out, filled = np.empty(count, dtype=np.int8), 0
    while filled < count:
        need = count - filled
        rejects = need >> width  # zero chunks expected; drawn extra, with 4 deviations + 16
        chunks = need + rejects + 4 * math.isqrt(rejects) + 16
        words = bitgen.random_raw(min(-(-chunks // per_word), _TERNARY_BATCH_WORDS))
        v = words.astype("<u8", copy=False).view(f"<u{width // 8}")
        x = (v > third).view(np.int8)
        x += v > 2 * third
        x -= 1
        zeros = np.flatnonzero(v == 0).tolist()
        if len(zeros) << 10 > len(v):  # many (w = 8): one mask costs less than the runs
            x = x[v != 0]
        elif zeros:  # a few (w = 16): the runs between them, joined
            x = np.concatenate([x[a:b] for a, b in zip([0] + [z + 1 for z in zeros],
                                                       zeros + [len(x)])])
        x = x[:need]
        out[filled:filled + len(x)] = x
        filled += len(x)
    return out


def _initial_list(schedule: Schedule, count: int, dim: int, q: int,
                  seed: int) -> Tuple[np.ndarray, SamplerCounts]:
    """The mode's initial list of ``count`` vectors of length ``dim``, and
    its sampler counts: exact width-s0 draws (provable), sparse ternary
    vectors (heuristic) or uniform ternary vectors in the rounding list type
    (naive)."""
    if schedule.mode == MODE_PROVABLE:
        return _initial_gaussian(count, dim, schedule.s0_sq, seed)
    if schedule.mode == MODE_HEURISTIC:
        # Entropy margin over the estimator's minimal weight: 3N draws from a
        # pool of barely N vectors would be riddled with duplicates, and
        # duplicate inputs cancel to zero under reuse pairing.
        w, _sigma0 = _estimator.min_weight(dim, _HEURISTIC_ENTROPY_FACTOR * schedule.N)
        return _initial_ternary_sparse(count, dim, w, seed), SamplerCounts()
    # uniform on {-1, 0, 1}: the chunks of raw words below, 8 bits where
    # _rounding_dtype(q) is int8 and 16 otherwise, are exactly the stream of
    # integers(-1, 2) in that type (_uniform_ternary says why); built as
    # int8 and widened only for a list type past int8 (r >= 7)
    bitgen = derive_np_rng(seed, "init-ternary-uniform").bit_generator
    X = _uniform_ternary(bitgen, count * dim, 8 if _rounding_dtype(q) == np.int8 else 16)
    return (X.reshape(count, dim).astype(_rounding_dtype(2 ** schedule.r), copy=False),
            SamplerCounts())


def _gaussian_stage(st: StageDescriptor, X: np.ndarray, schedule: Schedule, seed: int):
    """Lift, Gaussian offsets and pairing.  Provable mode pairs disjointly up
    to a third of the list and must reach it; heuristic mode floors the
    stage width at its exact-sampler minimum, pairs with reuse up to 3N and
    curates."""
    provable = schedule.mode == MODE_PROVABLE
    width_sq = schedule.width_sq(st.index)
    if not provable:
        floor = Fraction(st.q * st.q, st.p * st.p) * \
            Fraction(_width_floor_sq(st.b) * _WIDTH_SLACK)
        width_sq = max(width_sq, floor)
    # The stage's one read of its list: every other int64 guard of the stage
    # takes its bound from this one and from how the operands were made.
    x_bound = _max_abs(X)
    y_bound = st.lift_bound(x_bound)
    Y = _lift_batch(st, X, x_bound)
    K, counts, k_bound = _gaussian_offsets(st, Y, width_sq, ("stage", st.index), seed,
                                           y_bound)
    cap = len(X) // 3 if provable else 3 * schedule.N
    # T = y + q floor(k/p), with |floor(k/p)| <= floor(|k|/p) + 1
    T = int_lincomb([(1, Y), (st.q, K // st.p)],
                    max(1, y_bound) + st.q * (k_bound // st.p + 1))
    out, buckets = _combine_stage(st, X, T, _pack_labels(K, st.p), cap,
                                  reuse=not provable, x_bound=x_bound)
    if provable:
        if len(out) != cap:
            raise InsufficientInputs(
                f"stage {st.index} produced {len(out)} < floor(N/3) outputs")
        return out, buckets, counts
    # Reuse pairing breeds exact duplicates and zero rows; both are dead
    # weight for later stages, so curate them out between stages.
    return _curate(out), buckets, counts


def _rounding_stage(st: StageDescriptor, X: np.ndarray, schedule: Schedule, seed: int):
    """One stage of the rounding variant on the top coordinates alone: the
    mod-q completion y = -A'_new x_top mod q of each row is bucketed by
    round((p/q) y) mod p, and same-bucket rows are subtracted (disjoint
    pairs, no cap), with no reduction.  Labels are exact for every q
    (``_round_scaled``, ``_pack_labels``).  A row entering stage i is a
    difference of 2^(i-1) ternary rows, so |x| <= 2^(i-1) bounds the lift
    and the heads' subtraction, with nothing read from the data."""
    q, p = st.q, st.p
    x_bound = 2 ** (st.index - 1)
    Y = residue(_lift_batch(st, X, x_bound), q)
    out, buckets = _combine_stage(st, X, X[:, :0], _pack_labels(_round_scaled(Y, p, q), p),
                                  None, reuse=False, x_bound=x_bound)
    return out, buckets, SamplerCounts()


def _run(inst: SisInstance, schedule: Schedule, rng):
    """The run of every mode: the initial list, one stage per chain lattice,
    then the parity coordinates the stages left uncovered (all of them in
    naive mode, an early abort's rest otherwise), as centered residues."""
    seed = _as_seed(rng)
    stages = build_chain(inst, schedule.b, schedule.p,
                         allow_partial=schedule.mode == MODE_HEURISTIC)
    dim0 = inst.m - inst.n
    if schedule.mode == MODE_PROVABLE:
        if schedule.N < max(st.p ** st.b for st in stages):
            raise InfeasibleSchedule("provable mode needs N >= max p_i^b_i")
        check_width(schedule.s0_sq, dim0, "s0")
        for st in stages:  # every stage width must clear its floor before any draw
            _offset_width_sq(st.index, st.p, st.q, st.b, schedule.width_sq(st.index))
    init_count = (3 if schedule.mode == MODE_HEURISTIC else 3 ** schedule.r) * schedule.N
    if init_count * max(1, dim0) * 8 > _MEM_BUDGET_BYTES:
        raise BudgetExceeded(
            f"initial list of {init_count} vectors exceeds the memory budget")
    stage = _rounding_stage if schedule.mode == MODE_NAIVE else _gaussian_stage
    stats = RunStats(mode=schedule.mode)
    for st in (None, *stages):  # None stands for the initial list
        t0 = time.perf_counter()
        if st is None:
            X, counts = _initial_list(schedule, init_count, dim0, inst.q, seed)
        else:
            X, buckets, counts = stage(st, X, schedule, seed)
            stats.bucket_histograms.append(_occupancy_histogram(buckets))
        stats.list_sizes.append(len(X))
        stats.sampler.append(counts)
        stats.stage_seconds.append(time.perf_counter() - t0)
    kappa = sum(schedule.b)
    if schedule.mode == MODE_NAIVE:  # the stages carried x_top alone
        X = X.astype(np.result_type(_rounding_dtype(inst.q), np.int64))
        X, kappa = centered(X, inst.q), 0
    if kappa < inst.n:
        rest = np.asarray(inst.a_prime)[kappa:, :]
        # |x_top| <= q/2 once centered; rest's entries lie in [0, q)
        x_top = inst.q // 2 if schedule.mode == MODE_NAIVE else _max_abs(X[:, :dim0])
        completion = int_matmul(X[:, :dim0], -rest, dim0 * (inst.q - 1) * x_top)
        X = np.hstack([X, int_array(centered(completion, inst.q))])
    _finish_stats(stats, X)
    _check_final_membership(inst, X, stats.max_linf)
    return X, stats


def gaussian_wagner(inst: SisInstance, schedule: Schedule, rng, *, threads: int = 1):
    """Run the provable or heuristic Gaussian sampler over the instance's
    lattice chain.  The stage width grows by sqrt(2) per stage; provable mode
    requires every width to clear its floor, heuristic mode floors it there.

    Returns (outputs, RunStats); every output satisfies A x = 0 mod q.  The
    sampler runs single-threaded: ``threads`` must be 1.
    """
    if threads != 1:
        raise PreconditionViolated(f"threads = 1 (single-threaded sampler), got {threads}")
    if schedule.mode == MODE_NAIVE:
        raise InfeasibleSchedule("use naive_wagner for the rounding mode")
    return _run(inst, schedule, rng)


def naive_wagner(inst: SisInstance, schedule: Schedule, rng):
    """The warm-up rounding variant.

    Uniform ternary initial list of 3^r N vectors, then one rounding stage
    (``_rounding_stage``) per chain lattice on the top coordinates alone;
    the run then centers them and completes the parity coordinates, all as
    centered residues, so every output obeys ||x||_inf <= max_i 2^(r-i)
    q/p_i with p_0 = q.  Zero vectors are counted, not errors.
    """
    if schedule.mode != MODE_NAIVE:
        raise InfeasibleSchedule("schedule mode must be naive-rounding")
    return _run(inst, schedule, rng)


def eq1_norm_bound(schedule: Schedule, q: int) -> Fraction:
    """max over 0 <= i <= r of 2^(r-i) q/p_i with p_0 = q (rounding variant)."""
    best = Fraction(2 ** schedule.r)
    for i, p in enumerate(schedule.p, start=1):
        best = max(best, Fraction(2 ** (schedule.r - i) * q, p))
    return best


# ---------------------------------------------------------------------------
# Parameter selection
# ---------------------------------------------------------------------------

def _ceil_pow2_float(frac_log2: float) -> int:
    """Smallest integer >= 2^frac_log2 at double precision."""
    if frac_log2 <= 62:
        return max(1, math.ceil(2.0 ** frac_log2))
    ip = int(math.floor(frac_log2)) - 52
    mant = 2.0 ** (frac_log2 - ip)  # in [2^52, 2^53)
    return math.ceil(mant) << ip


def check_norm_factor(f: float):
    """The norm factor f of beta = q/f (times a norm's sqrt term) must be
    finite and positive, checked before any arithmetic reads it."""
    if not (math.isfinite(f) and f > 0):
        raise PreconditionViolated(f"norm factor f must be finite and > 0, got {f}")


def choose_provable_params(n: int, m: int, q: int, f: float,
                           epsilon: float) -> Schedule:
    """Schedule matching the provable subexponential-sampler parameter choice.

    eps' = eps/5; r = floor(2 log2(q/f) - log2(144 ln(3/eps')/pi)), bumped by
    10 when below 1; p_i = floor(q / sqrt(2^i)); N the smallest integer with
    log2(N/q) >= (n/2) / (ln ln q - ln[ln f + (1/2) ln(144 ln(3/eps')/pi)
    + 1/2]); b_i = ceil(log2 N / (log2 q - i/2) - 1) for i < r and the
    remainder at i = r; s0 = (q/f) / sqrt(2^r).
    """
    check_qary_preconditions(n, m, q)
    check_epsilon(epsilon)
    check_norm_factor(f)
    if epsilon > 1 / m:
        raise PreconditionViolated("epsilon <= 1/m")
    if q / f < math.sqrt(math.log(1 / epsilon)):
        raise PreconditionViolated("q/f >= sqrt(ln(1/eps))")
    eps_p = epsilon / 5
    c_term = 144.0 * math.log(3.0 / eps_p) / math.pi
    inner = math.log(f) + 0.5 * math.log(c_term) + 0.5
    # read as not positive where ln(inner) is undefined (tiny f)
    denom = math.log(math.log(q)) - math.log(inner) if inner > 0 else 0.0
    if denom <= 0:
        raise InfeasibleSchedule("log-log denominator is not positive")
    r = math.floor(2 * math.log2(q / f) - math.log2(c_term))
    if r < 1:
        r += 10
    log2_n_over_q = (n / 2) / denom
    log2_n = log2_n_over_q + math.log2(q)
    N = _ceil_pow2_float(log2_n)
    log2_n = math.log2(N) if N.bit_length() <= 62 else log2_n
    p = tuple(math.floor(q / math.sqrt(2.0 ** i)) for i in range(1, r + 1))
    if p[-1] < 1:
        raise InfeasibleSchedule("p_r < 1")
    b = [math.ceil(log2_n / (math.log2(q) - i / 2) - 1) for i in range(1, r)]
    b_r = n - sum(b)
    if b_r <= 0 or b_r > log2_n / math.log2(p[-1]):
        raise InfeasibleSchedule(f"last block b_r = {b_r} infeasible")
    b.append(b_r)
    for i, (pi, bi) in enumerate(zip(p, b), start=1):
        if bi * math.log2(pi) > log2_n + 1e-9:
            raise InfeasibleSchedule(f"N < p_{i}^b_{i}")
    s0_sq = Fraction(q) ** 2 / (Fraction(f) ** 2 * 2 ** r)
    return Schedule(mode=MODE_PROVABLE, r=r, N=N, p=p, b=tuple(b),
                    s0_sq=s0_sq, epsilon=epsilon)


def choose_naive_params(n: int, q: int, f: float) -> Schedule:
    """Warm-up parameter selection: p_i = q/2^i, r = floor(log2(q/f)) - 1,
    log2 N = n / (ln ln q - ln ln f), blocks by the same rounding discipline
    as the provable selection."""
    check_norm_factor(f)
    if f <= 1:
        raise PreconditionViolated("f > 1")
    if q <= f:
        raise PreconditionViolated("q > f")
    r = math.floor(math.log2(q / f)) - 1
    if r < 1:
        raise InfeasibleSchedule("r < 1: norm target too close to q")
    log2_n = n / (math.log(math.log(q)) - math.log(math.log(f)))
    N = _ceil_pow2_float(log2_n)
    p = tuple(max(1, round(q / 2 ** i)) for i in range(1, r + 1))
    b = [max(1, math.ceil(log2_n / (math.log2(q) - i) - 1)) for i in range(1, r)]
    b_r = n - sum(b)
    if b_r <= 0:
        raise InfeasibleSchedule(f"last block b_r = {b_r} infeasible")
    b.append(b_r)
    return Schedule(mode=MODE_NAIVE, r=r, N=N, p=p, b=tuple(b),
                    s0_sq=None, epsilon=1.0 / 2)


_TWO_PI = 2.0 * math.pi
_HEURISTIC_ENTROPY_FACTOR = 48  # initial pool size multiple of the list size
_MIN_LOG2_N = 6  # the heuristic ladder's smallest list size, as log2 N
_MAX_LOG2_N = 22  # and its largest
_MIN_EXPECTED_HITS = 4.0  # expected hits N p a heuristic schedule must predict


@functools.lru_cache(maxsize=256, typed=True)
def choose_heuristic_params(n: int, m: int, q: int, beta: float, *,
                            epsilon: float = 2.0 ** -10) -> Schedule:
    """Integer schedule for desk-scale heuristic runs.

    Walks a ladder of list sizes; for each, derives integer stage moduli from
    the quantization-style deviation balance, scores every abort point with
    the central-Gaussian success model (using the deviations the Gaussian
    lifts will actually inject, width floors included), and returns the first
    schedule whose expected number of hits N p clears ``_MIN_EXPECTED_HITS``.
    A pure function of its arguments that returns a frozen ``Schedule``, so
    repeat calls share one result (``typed``: 64 and 64.0 are cached apart).
    """
    d, kappa = m - n, _estimator._KAPPA[_estimator.VARIANT_QUANTIZATION]
    for log2_n in range(_MIN_LOG2_N, _MAX_LOG2_N + 1):
        N = 1 << log2_n
        try:
            w, sigma0 = _estimator.min_weight(d, _HEURISTIC_ENTROPY_FACTOR * N)
        except Infeasible:
            continue
        sigma = sigma0
        stages = []   # (p, b, injected_dev)
        rows_left = n
        while rows_left > 0 and len(stages) < 64:
            p = int(round(q / (kappa * sigma)))
            p = max(2, min(p, q, N))
            b = max(1, int(math.log2(N) / math.log2(p)))
            b = min(b, rows_left)
            width = max(sigma * math.sqrt(_TWO_PI),
                        (q / p) * math.sqrt(_width_floor_sq(b)) * _WIDTH_SLACK)
            inj = width / math.sqrt(_TWO_PI)
            stages.append((p, b, inj))
            rows_left -= b
            sigma = math.sqrt(2.0) * max(sigma, inj)
        best, rp = -math.inf, None
        for r in range(1, len(stages) + 1):
            groups = [(b, inj * math.sqrt(2.0) * 2.0 ** ((r - i) / 2))
                      for i, (_, b, inj) in enumerate(stages[:r], start=1)]
            groups.append((d, sigma0 * 2.0 ** (r / 2)))
            score = _estimator.log2_expected_hits(
                log2_n, beta, groups, n - sum(b for _, b, _ in stages[:r]),
                min(1.0, (2 * beta + 1) / q))
            if score > best:
                best, rp = score, r
        if best >= math.log2(_MIN_EXPECTED_HITS):
            chosen = stages[:rp]
            width1_sq = Fraction(max(
                sigma0 * sigma0 * _TWO_PI,
                (q / chosen[0][0]) ** 2 * _width_floor_sq(chosen[0][1]) * _WIDTH_SLACK))
            return Schedule(mode=MODE_HEURISTIC, r=rp, N=N,
                            p=tuple(p for p, _, _ in chosen),
                            b=tuple(b for _, b, _ in chosen),
                            s0_sq=width1_sq, epsilon=epsilon)
    raise InfeasibleSchedule(
        f"no heuristic schedule up to N = 2^{_MAX_LOG2_N} predicts "
        f"{_MIN_EXPECTED_HITS} expected hits")


# ---------------------------------------------------------------------------
# Smoothing certification (tiny instances)
# ---------------------------------------------------------------------------

def _float_sqrt(x: Fraction) -> float:
    """sqrt(x) as a float for a ``Fraction`` x >= 0, which may pass the
    float range itself; inf where the root passes it too."""
    k = max(0, (x.numerator.bit_length() - x.denominator.bit_length()) // 2 - 500)
    try:
        return math.ldexp(math.sqrt(x / 4 ** k), k)
    except OverflowError:
        return math.inf


def certify_smoothing(inst: SisInstance, schedule: Schedule) -> dict:
    """Brute-force the smoothing conditions of every stage on a tiny instance.

    Checks sqrt(2)^(i-1) s0 >= sqrt(2) max(eta_{eps/3} of the scaled block
    lattice, eta_{eps/3} of the previous chain lattice) for every stage, which
    suffices for the stage superlattice conditions.  Raises on failure.

    The check compares s^2 with 2 max(eta)^2 as ``Fraction``s, exactly and
    at any width; the report's float ``width`` reads inf past the float
    range."""
    if schedule.mode == MODE_NAIVE:
        raise InfeasibleSchedule("smoothing conditions need a Gaussian schedule")
    eps = schedule.epsilon / 3.0
    stages = build_chain(inst, schedule.b, schedule.p,
                         allow_partial=schedule.mode == MODE_HEURISTIC)
    report = {}
    for st in stages:
        width_sq = schedule.width_sq(st.index)
        eta_s = eta_scaled_zn_bruteforce(Fraction(st.q, st.p), st.b, eps)
        if st.kappa_prev == 0:
            eta_prev = eta_scaled_zn_bruteforce(1.0, st.m_minus_n, eps)
        else:
            a_prev_full = np.hstack([
                np.asarray(st.a_prev, dtype=np.int64),
                np.eye(st.kappa_prev, dtype=np.int64),
            ])
            eta_prev = eta_qary_bruteforce(a_prev_full, st.q, eps)
        eta = max(eta_s, eta_prev)
        width, need = _float_sqrt(width_sq), math.sqrt(2.0) * eta
        report[st.index] = {"width": width, "eta_block": eta_s,
                            "eta_prev": eta_prev, "required": need}
        if width_sq < 2 * Fraction(eta) ** 2:
            raise PreconditionViolated(
                f"stage {st.index}: width {width:.3f} < sqrt(2) max(eta) = {need:.3f}")
    return report
