"""Exact linear algebra over Z_q, SIS instance modeling, and q-ary lattice
brute-force oracles.

All arithmetic on matrix entries is exact: int64 NumPy kernels are used only
when a proven bound rules out overflow, otherwise computation falls back to
Python big integers.  Lattice membership (A x = 0 mod q) is therefore never
subject to rounding.
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
    BudgetExceeded,
    DimensionMismatch,
    NonInvertiblePivot,
    PreconditionViolated,
    RankDeficient,
)
from .rngutil import derive_np_rng

_INT64_SAFE = 1 << 62

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def centered(v, q: int):
    """Representative of v mod q in (-q/2, q/2], elementwise for arrays."""
    if isinstance(v, np.ndarray):
        r = np.mod(v, q)
        return np.where(2 * r > q, r - q, r)
    r = v % q
    return r - q if 2 * r > q else r


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
        if self.m < self.n:
            return False
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

    def to_json(self) -> str:
        return json.dumps({"x": list(self.x), "norm": self.norm_value})

    @classmethod
    def from_json(cls, text: str) -> "Solution":
        doc = json.loads(text)
        return cls(x=tuple(int(v) for v in doc["x"]), norm_value=float(doc.get("norm", 0.0)))


_to_python_int = np.frompyfunc(int, 1, 1)


def int_array(rows) -> np.ndarray:
    """Integers as an int64 array, or as an object array of Python ints when
    some entry does not fit in int64."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def int_matmul(X, A) -> np.ndarray:
    """Exact ``X @ A.T`` for integer matrices.

    The toolkit's one overflow rule: the int64 product is used when both
    operands are int64 and ``X.shape[1] * max|A| * max|X| < 2^62``, a bound on
    every partial sum; otherwise the product is taken over Python integers in
    an object array.
    """
    X, A = np.asarray(X), np.asarray(A)
    if X.dtype == np.int64 and A.dtype == np.int64:
        if X.shape[1] * _max_abs(A) * _max_abs(X) < _INT64_SAFE:
            return X @ A.T
    return _to_python_int(X) @ _to_python_int(A).T


def int_add(a, b) -> np.ndarray:
    """Exact elementwise a + b: ``int_matmul``'s rule for the columns (a, b)
    times (1, 1), without forming them.  int64 when both are int64 and
    2 max(|a|, |b|) < 2^62, Python integers in an object array otherwise."""
    a, b = np.asarray(a), np.asarray(b)
    if (a.dtype == np.int64 and b.dtype == np.int64
            and 2 * max(_max_abs(a), _max_abs(b)) < _INT64_SAFE):
        return a + b
    return _to_python_int(a) + _to_python_int(b)


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
    """Uniform SIS instance; identical output for identical (n, m, q, seed)."""
    if m < n or n < 1:
        raise BadDimensions(f"need m >= n >= 1, got n={n} m={m}")
    if q < 2:
        raise BadDimensions(f"modulus must be >= 2, got {q}")
    rng = derive_np_rng(seed, "instance", n, m, q)
    if q < (1 << 62):
        A = rng.integers(0, q, size=(n, m), dtype=np.int64)
    else:
        A = np.array([[_uniform_below(rng, q) for _ in range(m)] for _ in range(n)],
                     dtype=object)
    return SisInstance.create(A, q, beta=beta, norm_kind=norm_kind)


def _uniform_below(rng: np.random.Generator, q: int) -> int:
    """Uniform integer on [0, q): NumPy's own draw while q fits its int64
    bounds, beyond that rejection on (q-1).bit_length() bits of the
    generator's byte stream."""
    if q < (1 << 63):
        return int(rng.integers(0, q))
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
    """
    n, m, q = inst.n, inst.m, inst.q
    M = [[int(v) for v in row] for row in inst.A]
    cols = list(range(m))
    off = m - n  # identity block target: columns off .. m-1
    for i in range(n):
        target = off + i
        used = range(off, off + i)  # earlier pivot columns are fixed
        others = (j for j in range(m) if j not in used and j != target)
        for pivot_col in chain((target,), others):
            try:
                inv = pow(M[i][pivot_col], -1, q)
            except ValueError:  # not a unit mod q
                continue
            break
        else:
            row_nonzero = any(M[i][j] % q != 0 for j in range(m) if j not in used)
            if row_nonzero and not inst.q_prime:
                raise NonInvertiblePivot(
                    f"row {i}: nonzero entries but no unit pivot mod composite q={q}"
                )
            raise RankDeficient(f"row {i} lies in the span of earlier rows mod {q}")
        if pivot_col != target:
            for row in M:
                row[pivot_col], row[target] = row[target], row[pivot_col]
            cols[pivot_col], cols[target] = cols[target], cols[pivot_col]
        M[i] = [(v * inv) % q for v in M[i]]
        for r in range(n):
            if r != i and M[r][target] % q:
                f = M[r][target] % q
                M[r] = [(M[r][j] - f * M[i][j]) % q for j in range(m)]
    out = SisInstance.create(M, q, beta=inst.beta, norm_kind=inst.norm_kind)
    assert out.systematic
    return out, tuple(cols)


def permute_solution_back(perm, y):
    """Map a solution of the systematic instance back to the original columns."""
    x = [0] * len(perm)
    for t, orig in enumerate(perm):
        x[orig] = int(y[t])
    return tuple(x)


def lambda1_inf_bruteforce(A, q: int, budget: int = 1 << 22) -> int:
    """Exact lambda_1^infty of Lambda_q(A) = A^T Z^n + q Z^m by enumerating
    all q^n - 1 nonzero syndromes.  Degenerate syndromes (A^T s = 0 mod q)
    contribute only multiples of q, hence the value q for them."""
    A = np.asarray(A)
    n = A.shape[0]
    if q ** n > budget:
        raise BudgetExceeded(f"q^n = {q ** n} exceeds enumeration budget {budget}")
    best = q  # q * e_1 is always in the lattice
    Amat = A.astype(np.int64, copy=False)
    total, chunk = q ** n, 1 << 14
    for idx in range(1, total, chunk):  # skip s = 0
        V = centered(_syndromes(q, n, idx, min(total, idx + chunk)) @ Amat, q)
        norms = np.abs(V).max(axis=1)  # rows of V are A^T s transposed
        best = int(norms.min(initial=best, where=norms > 0))
    return best


def _syndromes(q: int, n: int, start: int, stop: int) -> np.ndarray:
    """The syndromes of Z_q^n numbered start .. stop-1, one per row, as int64
    base-q digits, most significant first."""
    S = np.empty((stop - start, n), dtype=np.int64)
    rem = np.arange(start, stop, dtype=np.int64)
    for j in range(n - 1, -1, -1):
        S[:, j] = rem % q
        rem //= q
    return S
