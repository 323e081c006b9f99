"""Exact arithmetic and linear algebra over the prime field F_p, p odd.

Matrices act on column vectors (v -> M @ v).  Subspaces are stored as
reduced row-echelon bases, so equality of subspaces is bytewise equality
of their canonical bases.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, PrimeMismatch

_SMALL_PRIMES = {3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97}


class Prime:
    """An odd prime 3 <= p <= 97, validated at construction."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        p = int(p)
        if p not in _SMALL_PRIMES:
            raise ValueError(f"p must be an odd prime in [3, 97], got {p}")
        self.p = p

    def __int__(self) -> int:
        return self.p

    def __index__(self) -> int:
        return self.p

    def __eq__(self, other) -> bool:
        return isinstance(other, Prime) and other.p == self.p or other == self.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"Prime({self.p})"


def as_prime(p) -> Prime:
    return p if isinstance(p, Prime) else Prime(p)


@functools.lru_cache(maxsize=None)
def inv_table(p: int) -> np.ndarray:
    """inv_table(p)[a] = a^-1 mod p for 1 <= a < p (index 0 unused)."""
    t = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        t[a] = pow(a, p - 2, p)
    return t


def _rref_array(a: np.ndarray, p: int):
    """In-place-free RREF.  Returns (reduced array, rank, pivot columns)."""
    a = np.array(a, dtype=np.int64) % p
    m, n = a.shape
    inv = inv_table(p)
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        nz = a[r:, c].nonzero()[0]
        if not len(nz):
            continue
        i = r + nz[0]
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * inv[a[r, c]] % p
        col = a[:, c].copy()
        col[r] = 0
        a -= col[:, None] * a[r]
        a %= p
        pivots.append(c)
        r += 1
    return a, r, pivots


class FpMatrix:
    """Immutable matrix over F_p with entries reduced into [0, p)."""

    __slots__ = ("p", "a", "_key", "_inv")

    def __init__(self, p, arr, inv=None):
        self.p = as_prime(p)
        a = np.array(arr, dtype=np.int64) % self.p.p
        if a.ndim != 2:
            raise DimensionMismatch("FpMatrix requires a 2-d array")
        a.setflags(write=False)
        self.a = a
        self._key = None
        self._inv = None if inv is None else FpMatrix(p, inv)

    # -- construction helpers -------------------------------------------
    @staticmethod
    def identity(p, n: int) -> "FpMatrix":
        return FpMatrix(p, np.eye(n, dtype=np.int64))

    @staticmethod
    def scalar(p, n: int, c: int) -> "FpMatrix":
        return FpMatrix(p, np.eye(n, dtype=np.int64) * int(c))

    # -- basic properties ------------------------------------------------
    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def key(self) -> bytes:
        if self._key is None:
            self._key = self.a.astype(np.int8).tobytes()
        return self._key

    def __eq__(self, other) -> bool:
        return (isinstance(other, FpMatrix) and other.p.p == self.p.p
                and other.a.shape == self.a.shape and other.key() == self.key())

    def __hash__(self):
        return hash((self.p.p, self.a.shape, self.key()))

    def __repr__(self):
        return f"FpMatrix(p={self.p.p}, {self.a.tolist()})"

    # -- arithmetic -------------------------------------------------------
    def _check(self, other: "FpMatrix"):
        if self.p.p != other.p.p:
            raise PrimeMismatch(f"{self.p.p} vs {other.p.p}")

    def __matmul__(self, other):
        if not isinstance(other, FpMatrix):
            return NotImplemented
        self._check(other)
        if self.cols != other.rows:
            raise DimensionMismatch("matmul shapes")
        return FpMatrix(self.p, self.a @ other.a)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix times column vector."""
        return (self.a @ (np.asarray(v, dtype=np.int64) % self.p.p)) % self.p.p

    def __add__(self, other):
        if not isinstance(other, FpMatrix):
            return NotImplemented
        self._check(other)
        if self.a.shape != other.a.shape:
            raise DimensionMismatch("add shapes")
        return FpMatrix(self.p, self.a + other.a)

    def __sub__(self, other):
        if not isinstance(other, FpMatrix):
            return NotImplemented
        self._check(other)
        if self.a.shape != other.a.shape:
            raise DimensionMismatch("sub shapes")
        return FpMatrix(self.p, self.a - other.a)

    def __mul__(self, c: int):
        return FpMatrix(self.p, self.a * int(c))

    __rmul__ = __mul__

    def transpose(self) -> "FpMatrix":
        return FpMatrix(self.p, self.a.T)

    def pow(self, k: int) -> "FpMatrix":
        n = self.rows
        if k < 0:
            return self.inverse().pow(-k)
        result = np.eye(n, dtype=np.int64)
        base = self.a.copy()
        p = self.p.p
        while k:
            if k & 1:
                result = result @ base % p
            base = base @ base % p
            k >>= 1
        return FpMatrix(self.p, result)

    def is_invertible(self) -> bool:
        """True iff square and invertible; the inverse found is kept."""
        if self.rows != self.cols:
            return False
        try:
            self.inverse()
        except ZeroDivisionError:
            return False
        return True

    def inverse(self) -> "FpMatrix":
        if self._inv is not None:
            return self._inv
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of non-square matrix")
        p = self.p.p
        n = self.rows
        aug = np.concatenate([self.a, np.eye(n, dtype=np.int64)], axis=1)
        red, r, _ = _rref_array(aug, p)
        if r < n or not np.array_equal(red[:, :n], np.eye(n, dtype=np.int64)):
            raise ZeroDivisionError("matrix is singular")
        inv = FpMatrix(self.p, red[:, n:])
        self._inv = inv
        return inv

    def order(self) -> int:
        """Multiplicative order of an invertible matrix (at most 10^7)."""
        n = self.rows
        ident = np.eye(n, dtype=np.int64)
        cur = self.a.copy()
        p = self.p.p
        k = 1
        while not np.array_equal(cur, ident):
            cur = cur @ self.a % p
            k += 1
            if k > 10 ** 7:
                raise InvariantViolation(
                    "order exceeds 10^7; element not in a small group?")
        return k


class Subspace:
    """Subspace of F_p^n stored as an RREF row basis (no zero rows)."""

    __slots__ = ("p", "ambient", "basis", "_pivots")

    def __init__(self, p, ambient: int, vectors):
        self.p = as_prime(p)
        self.ambient = int(ambient)
        arr = np.array(vectors, dtype=np.int64).reshape(-1, self.ambient)
        red, r, piv = _rref_array(arr, self.p.p)
        b = red[:r]
        b.setflags(write=False)
        self.basis = b
        self._pivots = tuple(piv)

    @staticmethod
    def zero(p, ambient: int) -> "Subspace":
        return Subspace(p, ambient, np.zeros((0, ambient), dtype=np.int64))

    @staticmethod
    def full(p, ambient: int) -> "Subspace":
        return Subspace(p, ambient, np.eye(ambient, dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def is_zero(self) -> bool:
        return self.dim == 0

    def key(self) -> bytes:
        return self.basis.astype(np.int8).tobytes()

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.p.p == self.p.p
                and other.ambient == self.ambient and other.key() == self.key())

    def __hash__(self):
        return hash((self.p.p, self.ambient, self.key()))

    def __repr__(self):
        return f"Subspace(p={self.p.p}, dim={self.dim}/{self.ambient})"

    def reduce(self, v) -> np.ndarray:
        """v mod p, reduced by the echelon basis to zero at every pivot
        column; zero exactly when v lies in the subspace."""
        p = self.p.p
        r = np.asarray(v, dtype=np.int64) % p
        for i, c in enumerate(self._pivots):
            if r[c]:
                r = (r - r[c] * self.basis[i]) % p
        return r

    def contains_vector(self, v) -> bool:
        return not self.reduce(v).any()

    def coordinates(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside."""
        p = self.p.p
        v = np.asarray(v, dtype=np.int64) % p
        coords = np.zeros(self.dim, dtype=np.int64)
        r = v.copy()
        for i, c in enumerate(self._pivots):
            coords[i] = r[c]
            r = (r - coords[i] * self.basis[i]) % p
        if r.any():
            return None
        return coords


# -- module-level operations (spec surface) ------------------------------

def rref(m: FpMatrix):
    """Unique reduced row-echelon form and rank."""
    red, r, _ = _rref_array(m.a, m.p.p)
    return FpMatrix(m.p, red), r


def rank(m: FpMatrix) -> int:
    return _rref_array(m.a, m.p.p)[1]


def kernel_basis(m: FpMatrix) -> Subspace:
    """Right kernel {v : m @ v = 0} as a canonical subspace."""
    p = m.p.p
    red, r, pivots = _rref_array(m.a, p)
    n = m.cols
    free = [c for c in range(n) if c not in pivots]
    vecs = np.zeros((len(free), n), dtype=np.int64)
    for k, c in enumerate(free):
        vecs[k, c] = 1
        for i, pc in enumerate(pivots):
            vecs[k, pc] = (-red[i, c]) % p
    return Subspace(m.p, n, vecs)


def image_basis(m: FpMatrix) -> Subspace:
    """Column space of m."""
    return Subspace(m.p, m.rows, m.a.T)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    if a.p.p != b.p.p:
        raise PrimeMismatch("subspace primes differ")
    if a.ambient != b.ambient:
        raise DimensionMismatch("ambient dims differ")
    if a.is_zero() or b.is_zero():
        return Subspace.zero(a.p, a.ambient)
    # x @ A = y @ B  <=>  (x, y) in kernel of [A^T | -B^T]
    stacked = np.concatenate([a.basis.T, (-b.basis.T) % a.p.p], axis=1)
    ker = kernel_basis(FpMatrix(a.p, stacked))
    vecs = ker.basis[:, :a.dim] @ a.basis
    return Subspace(a.p, a.ambient, vecs)


def add(a: Subspace, b: Subspace) -> Subspace:
    if a.p.p != b.p.p:
        raise PrimeMismatch("subspace primes differ")
    if a.ambient != b.ambient:
        raise DimensionMismatch("ambient dims differ")
    return Subspace(a.p, a.ambient, np.concatenate([a.basis, b.basis], axis=0))


def contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is a subspace of a."""
    if a.p.p != b.p.p:
        raise PrimeMismatch("subspace primes differ")
    if a.ambient != b.ambient:
        raise DimensionMismatch("ambient dims differ")
    return all(a.contains_vector(v) for v in b.basis)


def annihilator(s: Subspace) -> np.ndarray:
    """Rows q with q w = 0 exactly for the w in s."""
    if s.is_zero():
        return np.eye(s.ambient, dtype=np.int64)
    return kernel_basis(FpMatrix(s.p, s.basis)).basis


def invariant(mats, s: Subspace) -> bool:
    """True iff each matrix g of the (m, n, n) stack mats maps s into
    itself, that is ann(s) g basis(s)^T = 0: one stacked product for all
    g instead of one RREF each.  For invertible g it means g s = s."""
    p = s.p.p
    return not ((annihilator(s) @ np.asarray(mats, dtype=np.int64) % p)
                @ s.basis.T % p).any()


def solve(m: FpMatrix, rhs):
    """One solution x of m @ x = rhs, or None."""
    p = m.p.p
    rhs = np.asarray(rhs, dtype=np.int64).reshape(-1) % p
    if rhs.shape[0] != m.rows:
        raise DimensionMismatch("rhs length")
    aug = np.concatenate([m.a, rhs.reshape(-1, 1)], axis=1)
    red, r, pivots = _rref_array(aug, p)
    if m.cols in pivots:
        return None
    x = np.zeros(m.cols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = red[i, m.cols]
    return x


def solve_many(m: FpMatrix, rhs):
    """`solve` for each row b of the (r, m.rows) array rhs: (x, ok), x of
    shape (r, m.cols) and ok[i] whether m @ x[i] = b_i has a solution.

    One RREF of [m | I] gives E with E m = R, the RREF of m.  Where E b
    vanishes below rank(m), [R | E b] is in reduced echelon form and row
    equivalent to [m | b], so it is the RREF that `solve` reads: x has
    E b's leading entries at the pivot columns, and the x of `solve`.
    Rows with no solution get x = 0.
    """
    p = m.p.p
    rhs = np.asarray(rhs, dtype=np.int64) % p
    if rhs.ndim != 2 or rhs.shape[1] != m.rows:
        raise DimensionMismatch("rhs shape")
    aug = np.concatenate([m.a, np.eye(m.rows, dtype=np.int64)], axis=1)
    red, _, pivots = _rref_array(aug, p)
    piv = [c for c in pivots if c < m.cols]
    y = rhs @ red[:, m.cols:].T % p
    ok = ~y[:, len(piv):].any(axis=1)
    x = np.zeros((len(rhs), m.cols), dtype=np.int64)
    x[:, piv] = y[:, :len(piv)] * ok[:, None]
    return x, ok


def image_of_subspace(m: FpMatrix, s: Subspace) -> Subspace:
    """{m @ v : v in s} as a canonical subspace."""
    if s.is_zero():
        return Subspace.zero(m.p, m.rows)
    return Subspace(m.p, m.rows, (s.basis @ m.a.T) % m.p.p)


def preimage_of_subspace(m: FpMatrix, s: Subspace) -> Subspace:
    """{v : m @ v in s} for invertible m (computed as image under m^-1)."""
    return image_of_subspace(m.inverse(), s)
