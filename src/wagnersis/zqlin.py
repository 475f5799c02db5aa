"""Exact linear algebra over Z_q and SIS instance modeling.

All arithmetic on matrix entries is exact: a product with a matrix runs in
the first type of ``_EXACT_TIERS`` (float32, int64) that holds a proven
bound on every partial sum exactly, and over Python big integers past it,
so lattice membership (A x = 0 mod q) never rounds or wraps.  The bound is
the caller's, proven from how the operands were made, or else read from
the operands.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadDimensions,
    DimensionMismatch,
    NonInvertiblePivot,
    PreconditionViolated,
    RankDeficient,
)
from .rngutil import derive_instance_rng

_INT64_SAFE = 1 << 62
_EXACT_TIERS = ((1 << 24, np.float32), (_INT64_SAFE, np.int64))

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# largest int64 list a run or a sampler call allocates at the caller's request, in bytes
_MEM_BUDGET_BYTES = 8 << 30


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n < 3.3e24 with the fixed witness set."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_qary_preconditions(n: int, m: int, q: int) -> None:
    """PreconditionViolated unless q is prime, m >= n, n >= 1 and q^(1-n/m)
    >= 6, in that order: the validity conditions of the random q-ary lattice
    bounds and of the provable parameter choice."""
    if not is_probable_prime(q):
        raise PreconditionViolated("q prime")
    if m < n:
        raise PreconditionViolated("m >= n")
    if n < 1:
        raise PreconditionViolated("n >= 1")
    if q ** (1 - n / m) < 6:
        raise PreconditionViolated("q^(1-n/m) >= 6")


def norm_stat(xs, norm_kind: str) -> int:
    """The exact integer norm statistic of a sequence of Python ints:
    max |x_i| for ``linf``, sum x_i^2 for ``l2``."""
    if norm_kind == "linf":
        return max(map(abs, xs), default=0)
    return sum(v * v for v in xs)


def residue(v, q: int):
    """v mod q in [0, q) for an integer q >= 1, elementwise for arrays, in v's
    own type: the array reduction mod q of the sampler paths and the oracles.

    An int64 array is reduced as v - q floor(v/q), for every q < 2^63 (NumPy
    pairs no larger scalar with int64): NumPy's floor-divide by a scalar is
    several times faster than its remainder.  The floor quotient is exact,
    and the product and difference are taken in uint64, where they wrap mod
    2^64 by definition; the true result lies in [0, q), below 2^63, so the
    wrapped one equals it for every int64 v.  Python integers and object
    arrays use Python ``%``.
    """
    if not (isinstance(v, np.ndarray) and v.dtype == np.int64):
        return v % q
    f = (v // q).view(np.uint64)
    f *= int(q)
    np.subtract(v.view(np.uint64), f, out=f)
    return f.view(np.int64)


def centered(v, q: int):
    """Representative of v mod q in (-q/2, q/2], elementwise for arrays."""
    r = residue(v, q)
    if isinstance(v, np.ndarray):
        return np.where(r > q // 2, r - q, r)
    return r - q if r > q // 2 else r


def _is_integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_integer_matrix(arr: np.ndarray):
    """BadDimensions unless ``arr`` is a matrix of integers: a float, a
    string or a boolean entry is not coerced."""
    if arr.ndim != 2:
        raise BadDimensions("A must be a matrix of equal-length rows")
    if arr.dtype.kind not in "iu" and not all(map(_is_integer, arr.flat)):
        raise BadDimensions("matrix entries must be integers")


def as_matrix(rows, q: int) -> np.ndarray:
    """Immutable matrix of the integer ``rows``, entries reduced into [0, q)."""
    arr = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    _check_integer_matrix(arr)
    if q < (1 << 31):
        arr = (arr % q).astype(np.int64, copy=False)
    else:
        arr = np.array([[int(x) % q for x in row] for row in arr], dtype=object)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SisInstance:
    """An SIS instance: find nonzero x with A x = 0 mod q and small norm."""

    n: int
    m: int
    q: int
    A: np.ndarray
    beta: Optional[Fraction] = None
    norm_kind: str = "linf"
    q_prime: bool = field(default=False, compare=False)
    systematic: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not (1 <= self.n <= self.m):
            raise BadDimensions(f"need 1 <= n <= m, got n={self.n} m={self.m}")
        if self.q < 2:
            raise BadDimensions(f"modulus must be >= 2, got {self.q}")
        if self.A.shape != (self.n, self.m):
            raise DimensionMismatch(f"A has shape {self.A.shape}, expected {(self.n, self.m)}")
        _check_integer_matrix(self.A)
        if int(self.A.min()) < 0 or int(self.A.max()) >= self.q:
            raise BadDimensions("matrix entries must lie in [0, q)")
        # store A as create does (as_matrix): int64 only for q < 2^31
        if self.A.dtype != (np.int64 if self.q < (1 << 31) else object):
            object.__setattr__(self, "A", as_matrix(self.A, self.q))
        if self.norm_kind not in ("linf", "l2"):
            raise BadDimensions(f"unknown norm kind {self.norm_kind!r}")
        if self.beta is not None and self.beta <= 0:
            raise BadDimensions("beta must be positive")
        object.__setattr__(self, "q_prime", is_probable_prime(self.q))
        object.__setattr__(self, "systematic", self._detect_systematic())

    def _detect_systematic(self) -> bool:
        tail = np.asarray(self.A)[:, self.m - self.n:]
        return bool(np.array_equal(tail, np.eye(self.n, dtype=np.int64)))

    @classmethod
    def create(cls, rows, q: int, beta=None, norm_kind: str = "linf") -> "SisInstance":
        A = as_matrix(rows, q)
        n, m = A.shape
        b = None if beta is None else Fraction(beta)
        return cls(n=n, m=m, q=q, A=A, beta=b, norm_kind=norm_kind)

    @property
    def a_prime(self) -> np.ndarray:
        """The A' block of a systematic instance (first m-n columns)."""
        if not self.systematic:
            raise BadDimensions("instance is not in systematic form")
        return np.asarray(self.A)[:, : self.m - self.n]

    def to_json(self) -> str:
        doc = {
            "n": self.n,
            "m": self.m,
            "q": self.q,
            "beta": None if self.beta is None else (
                int(self.beta) if self.beta.denominator == 1 else float(self.beta)
            ),
            "norm": self.norm_kind,
            "A": [[int(x) for x in row] for row in self.A],
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "SisInstance":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("an instance document must be a JSON object")
        if not all(_is_integer(doc[key]) for key in ("n", "m", "q")):
            raise BadDimensions("n, m and q must be integers")
        beta = doc.get("beta")
        if not (beta is None or _is_integer(beta)
                or isinstance(beta, float) and math.isfinite(beta)):
            raise BadDimensions(f"beta must be a finite number, got {beta!r}")
        inst = cls.create(doc["A"], doc["q"], beta=beta,
                          norm_kind=doc.get("norm", "linf"))
        if inst.n != doc["n"] or inst.m != doc["m"]:
            raise DimensionMismatch("declared dimensions disagree with the matrix")
        return inst


@dataclass(frozen=True)
class Solution:
    """Candidate SIS solution with its precomputed norm."""

    x: tuple
    norm_value: float

    @classmethod
    def from_vector(cls, x: Sequence[int], norm_kind: str = "linf") -> "Solution":
        xs = tuple(int(v) for v in x)
        stat = float(norm_stat(xs, norm_kind))
        return cls(x=xs, norm_value=stat if norm_kind == "linf" else stat ** 0.5)


_to_python_int = np.frompyfunc(int, 1, 1)


def int_array(rows) -> np.ndarray:
    """Integers as an int64 array, or as an object array of Python ints when
    some entry does not fit in int64."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def int_matmul(X, A, bound: Optional[int] = None) -> np.ndarray:
    """Exact ``X @ A.T`` for integer matrices, under the toolkit's one
    overflow rule: for signed integer operands, ``bound = X.shape[1] * max|A|
    * max|X|`` bounds every partial sum in any order, and the product runs in
    the first ``_EXACT_TIERS`` type that holds every integer below the bound
    exactly, so it rounds nothing: float32 (sgemm) below 2^24, int64 below
    2^62, returned as int64; Python integers beyond.  A caller that knows a
    ``bound`` at least that one from how the operands were made passes it,
    and nothing is read from the data; otherwise both maxima are read, each
    in its operand's own type."""
    X, A = np.asarray(X), np.asarray(A)
    if X.dtype.kind == "i" and A.dtype.kind == "i":
        if bound is None:
            bound = X.shape[1] * _max_abs(A) * _max_abs(X)
        for limit, tier in _EXACT_TIERS:
            if bound < limit:
                return np.matmul(X.astype(tier, copy=False), A.T.astype(tier)).astype(np.int64)
    return _to_python_int(X) @ _to_python_int(A).T


def int_lincomb(terms, bound: Optional[int] = None) -> np.ndarray:
    """Exact elementwise sum of c a over the (integer c, integer array a)
    ``terms``, broadcast together: ``int_matmul``'s rule term by term.  int64
    when every a has a signed integer dtype and ``bound = sum |c| max(1,
    max|a|)`` < 2^62, a bound on every partial sum and on every c, each term
    formed in int64; Python integers in an object array otherwise.  A caller
    that knows a ``bound`` at least that one passes it, and nothing is read
    from the data.  The result is a new array, never a term."""
    terms = [(int(c), np.asarray(a)) for c, a in terms]
    ints = all(a.dtype.kind == "i" for _, a in terms)
    if ints and bound is None:
        bound = sum(abs(c) * max(1, _max_abs(a)) for c, a in terms)
    if ints and bound < _INT64_SAFE:
        terms = [(c, a.astype(np.int64, copy=False)) for c, a in terms]
        if len(terms) == 1:
            return terms[0][0] * terms[0][1]  # a new array, also for c = 1
        # each product is made as it is added and dropped after, and the sum
        # of the first two is a new array (on a product's buffer where NumPy
        # reuses a temporary), into which the rest add in place
        parts = (a if c == 1 else c * a for c, a in terms)
        out = next(parts) + next(parts)
        for part in parts:
            if part.shape == out.shape:
                out += part
            else:
                out = out + part
        return out
    return np.asarray(sum(c * _to_python_int(a) for c, a in terms), dtype=object)


def _max_abs(X: np.ndarray) -> int:
    return max(-int(X.min()), int(X.max())) if X.size else 0


def matvec_mod(A, x, q: int) -> np.ndarray:
    """Exact A @ x mod q with entries in [0, q); no intermediate overflow."""
    A = np.asarray(A)
    if A.ndim != 2:
        raise DimensionMismatch("A must be a matrix")
    xs = [int(v) for v in x]
    if len(xs) != A.shape[1]:
        raise DimensionMismatch(f"x has length {len(xs)}, expected {A.shape[1]}")
    out = int_matmul(int_array([xs]), A)[0] % q
    return out.astype(np.int64) if q < (1 << 31) else out


def random_instance(n: int, m: int, q: int, seed: int, *, beta=None,
                    norm_kind: str = "linf") -> SisInstance:
    """Uniform SIS instance; identical output for identical (n, m, q, seed).
    Drawn on ``rngutil.derive_instance_rng``'s Philox stream, which stays
    fixed when the samplers' generator changes."""
    if m < n or n < 1:
        raise BadDimensions(f"need m >= n >= 1, got n={n} m={m}")
    if q < 2:
        raise BadDimensions(f"modulus must be >= 2, got {q}")
    rng = derive_instance_rng(seed, n, m, q)
    if q < (1 << 63):
        A = rng.integers(0, q, size=(n, m), dtype=np.int64)
    else:
        A = np.array([[_uniform_below(rng, q) for _ in range(m)] for _ in range(n)],
                     dtype=object)
    return SisInstance.create(A, q, beta=beta, norm_kind=norm_kind)


def _uniform_below(rng: np.random.Generator, q: int) -> int:
    """Uniform integer on [0, q) for q beyond NumPy's int64 draw: rejection
    on (q-1).bit_length() bits of the generator's byte stream."""
    bits = (q - 1).bit_length()
    while True:
        v = int.from_bytes(rng.bytes((bits + 7) // 8), "little") >> (-bits % 8)
        if v < q:
            return v


def systematic_form(inst: SisInstance):
    """Row reduce to A = [A' | I_n], swapping columns as needed.

    Returns (systematic instance, perm) where perm[t] is the input column now
    at output position t: y solves the output instance iff x with
    x[perm[t]] = y[t] solves the input.

    The elimination runs on a copy of the instance's own matrix: int64 for
    q < 2^31, where every product f a of two residues is below 2^62, and
    Python integers otherwise.  Every entry stays reduced into [0, q).
    """
    n, m, q = inst.n, inst.m, inst.q
    M = inst.A.copy()
    cols = list(range(m))
    off = m - n  # identity block target: columns off .. m-1
    for i in range(n):
        target = off + i
        used = range(off, off + i)  # earlier pivot columns are fixed
        row = M[i].tolist()
        others = (j for j in range(m) if j not in used and j != target)
        for pivot_col in chain((target,), others):
            try:
                inv = pow(row[pivot_col], -1, q)
            except ValueError:  # not a unit mod q
                continue
            break
        else:
            if any(row[j] for j in range(m) if j not in used) and not inst.q_prime:
                raise NonInvertiblePivot(
                    f"row {i}: nonzero entries but no unit pivot mod composite q={q}"
                )
            raise RankDeficient(f"row {i} lies in the span of earlier rows mod {q}")
        if pivot_col != target:
            M[:, [pivot_col, target]] = M[:, [target, pivot_col]]
            cols[pivot_col], cols[target] = cols[target], cols[pivot_col]
        M[i] = M[i] * inv % q
        f = M[:, target].copy()
        f[i] = 0
        M = (M - f[:, None] * M[i]) % q
    M.setflags(write=False)
    out = SisInstance(n=n, m=m, q=q, A=M, beta=inst.beta, norm_kind=inst.norm_kind)
    assert out.systematic
    return out, tuple(cols)


def permute_solution_back(perm, y):
    """Map a solution of the systematic instance back to the original columns."""
    x = [0] * len(perm)
    for t, orig in enumerate(perm):
        x[orig] = int(y[t])
    return tuple(x)
