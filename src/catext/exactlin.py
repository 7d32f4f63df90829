"""Exact dense linear algebra over the rationals and prime fields.

Everything downstream (algebra validation, resolutions, cochain complexes)
reduces to rref / rank / kernel over an exact field: Q (Fraction entries in
object arrays) or F_p with p prime < 2**31 (int64 residues).  There are no
tolerances anywhere, and Ext by linear algebra needs a field.  `rref`,
`rank`, `kernel_basis` and `solve_matrix` take a `Matrix` (a field and a 2-D
ndarray) and return plain ndarrays.

`FieldSpec.matmul` is the one place where field products are summed, and
`FieldSpec.sparse_matmul` the one for a sparse left factor.  With inner
dimension n the first has three branches, after the delayed-reduction bounds
of Dumas, Giorgi and Pernet ("Dense linear algebra over word-size prime
fields", ACM TOMS 2008):

* while n (p - 1)^2 < 2^53, a matrix-matrix product whose left factor has at
  least 16 rows and which makes at least 2^16 multiply-adds is one float64
  (BLAS) product, converted to int64 and reduced there (a mod on int64 is
  several times cheaper than on float64).  Every partial sum is an integer
  below 2^53, so the product and its conversion are exact; the bound
  decides correctness and the size gate only speed.  p = 2^31 - 1 never
  takes it (already (p - 1)^2 > 2^53), and vector-matrix products stay on
  int64, so nothing small is copied to float;
* while n (p - 1)^2 < 2^63, one int64 product and one mod;
* above that, the left factor is split into 16-bit limbs and the inner
  dimension into chunks of 2^16, so that each limb product stays below 2^63.

`_eliminate` reduces a matrix of at most 64 rows with the pivot loop and a
taller one row-blocked: block by block through `Echelon.extend`, which
reduces a block against the basis in one product, runs the pivot loop on
what is left and clears the old rows at the new pivots in one more product
(blocked elimination with one product per trailing update, as in
Jeannerod, Pernet and Storjohann, J. Symbolic Comput. 2013).  The rref is
unique, so both give the same matrix.  `Echelon.extend` is the only way a
basis grows, and `contains` reduces through the same product.  `add`
inserts one vector through it: the package extends by blocks, and `add` is
the one-vector entry whose acceptances the benchmark's tracer counts.  Over
F_p the pivot loop delays its reductions as `matmul` does: a row update's
term is at most (p - 1)^2 and an entry takes one per pivot, so the matrix
is reduced after every room = floor((2^63 - p) / (p - 1)^2) pivots (at
least 2^31 for p <= 65521, 2 at p = 2^31 - 1) and once at the end.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

import numpy as np

_LIMB = 16  # bits of the low limb and log2 of the inner chunk of the split product
# A product goes through float64 BLAS only if its left factor has this many
# rows and it makes this many multiply-adds; smaller ones are faster in int64.
_BLAS_ROWS = 16
_BLAS_WORK = 1 << 16
_BLOCK = 64  # rows per block of the row-blocked elimination
VECTOR_LIMIT = 1 << 20  # vectors of one `FieldSpec.vectors` enumeration


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Exact base field: the rationals or F_p for a prime p < 2**31."""

    kind: str  # "rationals" | "prime-field"
    characteristic: int = 0

    def __post_init__(self):
        if self.kind == "rationals":
            if self.characteristic != 0:
                raise ValueError("rationals have characteristic 0")
        elif self.kind == "prime-field":
            p = self.characteristic
            if not (2 <= p < 2**31 and _is_prime(p)):
                raise ValueError(f"characteristic must be a prime < 2**31, got {p}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("prime-field", p)

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("rationals")

    @property
    def is_prime_field(self) -> bool:
        return self.kind == "prime-field"

    @property
    def p(self) -> int:
        return self.characteristic

    # -- scalars ---------------------------------------------------------
    @property
    def zero(self):
        return 0 if self.is_prime_field else Fraction(0)

    @property
    def one(self):
        return 1 if self.is_prime_field else Fraction(1)

    def inv(self, x):
        if self.is_prime_field:
            x = int(x) % self.characteristic
            if x == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(x, self.characteristic - 2, self.characteristic)
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1) / x

    # -- arrays ----------------------------------------------------------
    @property
    def dtype(self):
        return np.int64 if self.is_prime_field else object

    def array(self, data) -> np.ndarray:
        """Coerce nested-list / array data into a field-valued ndarray."""
        if self.is_prime_field:
            a = np.array(data, dtype=np.int64)
            return np.mod(a, self.characteristic)
        a = np.array(data, dtype=object)
        flat = a.reshape(-1)
        for i, v in enumerate(flat):
            flat[i] = v if isinstance(v, Fraction) else Fraction(v)
        return flat.reshape(a.shape)

    def zeros(self, *shape) -> np.ndarray:
        if self.is_prime_field:
            return np.zeros(shape, dtype=np.int64)
        a = np.empty(shape, dtype=object)
        a[...] = Fraction(0)
        return a

    def eye(self, n: int) -> np.ndarray:
        a = self.zeros(n, n)
        for i in range(n):
            a[i, i] = self.one
        return a

    def reduce(self, a: np.ndarray) -> np.ndarray:
        return np.mod(a, self.characteristic) if self.is_prime_field else a

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Reduced product a @ b of vectors, matrices or stacks of matrices.
        Over F_p the entries must lie in (-p, p)."""
        if not self.is_prime_field:
            return a @ b
        p = self.characteristic
        inner = a.shape[-1]
        if a.ndim >= 2 and b.ndim >= 2 and a.shape[-2] >= _BLAS_ROWS \
                and a.size * b.shape[-1] >= _BLAS_WORK and inner * (p - 1) ** 2 < 1 << 53:
            return np.mod((a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64), p)
        if inner * (p - 1) ** 2 < 1 << 63:
            return np.mod(a @ b, p)
        # |hi| < 2^15 and 0 <= lo < 2^16 against |b| < 2^31, at most 2^16 terms
        hi, lo = a >> _LIMB, a & ((1 << _LIMB) - 1)
        out = 0
        for s in range(0, inner, 1 << _LIMB):
            chunk = slice(s, s + (1 << _LIMB))
            bc = b[..., chunk, :] if b.ndim >= 2 else b[chunk]  # b's inner axis
            top = np.mod(hi[..., chunk] @ bc, p)
            out = np.mod(out + (top << _LIMB) + np.mod(lo[..., chunk] @ bc, p), p)
        return out

    def sparse_matmul(self, rows, cols, vals, n: int, x: np.ndarray) -> np.ndarray:
        """Reduced product s @ x, where row r of s @ x sums vals[e] x[cols[e]]
        over the entries e with rows[e] = r.  Each term is reduced before they
        are summed, so over F_p a row of t terms stays below t p < 2^63."""
        w = x.shape[1]
        terms = self.reduce(vals[:, None] * x[cols])
        out = self.zeros(n * w)
        np.add.at(out, (rows[:, None] * w + np.arange(w)).reshape(-1), terms.reshape(-1))
        return self.reduce(out.reshape(n, w))

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        return a.shape == b.shape and bool(np.array_equal(a, b))

    def is_zero(self, a: np.ndarray) -> bool:
        return not np.any(a)

    def vectors(self, dim: int):
        """All vectors of F_p**dim as int tuples, in lexicographic order."""
        if not self.is_prime_field:
            raise ValueError("element enumeration needs a finite field")
        count = self.characteristic**dim
        if count > VECTOR_LIMIT:
            raise ValueError(f"enumeration of {count} vectors exceeds desk-scale limit "
                             f"{VECTOR_LIMIT}")
        return [t for t in iproduct(range(self.characteristic), repeat=dim)]


@dataclass(eq=False)
class Matrix:
    """The argument of the elimination routines: a field and the 2-D ndarray
    of its entries."""

    field: FieldSpec
    a: np.ndarray

    def __post_init__(self):
        if self.a.ndim != 2:
            raise ValueError("matrix data must be 2-D")

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]


def _pivot_loop(field: FieldSpec, m: np.ndarray):
    """In-place row reduction to rref, one pivot at a time; returns pivot
    column list.

    Over F_p the entries must lie in (-p, p).  A hit row takes its update
    col[hit] * pivot_row unreduced: each term lies in [0, (p - 1)^2], and
    an entry takes at most one per pivot, so it can take the updates of
    `room` pivots and stay in int64.  The searched column is reduced when it
    is read, the pivot row before it is scaled, the whole matrix after every
    `room` pivots (every second one at p = 2^31 - 1) and once at the end."""
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    if not field.is_prime_field:
        for c in range(cols):
            if r == rows:
                break
            nz = np.nonzero(m[r:, c])[0]
            if len(nz) == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                m[[r, pr]] = m[[pr, r]]
            m[r] = m[r] * field.inv(m[r, c])
            col = np.array(m[:, c], copy=True)
            col[r] = field.zero
            hit = np.nonzero(col)[0]
            if len(hit):
                m[hit] = m[hit] - np.outer(col[hit], m[r])
            pivots.append(c)
            r += 1
        return pivots
    p = field.characteristic
    room = ((1 << 63) - p) // (p - 1) ** 2
    since = 0  # pivots since the matrix was last reduced
    for c in range(cols):
        if r == rows:
            break
        col = m[:, c] % p
        nz = col[r:].nonzero()[0]
        if len(nz) == 0:
            continue
        pr = r + int(nz[0])
        row = m[pr] % p
        piv = int(col[pr])
        if piv != 1:
            row = row * pow(piv, -1, p) % p
        if pr != r:
            m[pr], col[pr] = m[r], col[r]
        m[r], col[r] = row, 0
        hit = col.nonzero()[0]
        if len(hit):
            m[hit] -= col[hit][:, None] * row
        since += 1
        if since == room:
            m %= p
            since = 0
        pivots.append(c)
        r += 1
    m %= p
    return pivots


def _eliminate(field: FieldSpec, m: np.ndarray):
    """In-place row reduction to rref; returns pivot column list.

    A matrix of more than one block of rows is fed through `Echelon.extend`
    block by block; the rref is unique, so the result is the pivot loop's."""
    rows, cols = m.shape
    if rows <= _BLOCK:
        return _pivot_loop(field, m)
    ech = Echelon(field, cols)
    for s in range(0, rows, _BLOCK):
        if ech.rank == cols:
            break
        ech.extend(m[s:s + _BLOCK])
    m[:ech.rank] = ech.basis_matrix()
    m[ech.rank:] = field.zero
    return sorted(ech._pivots)


def rref(m: Matrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form and pivot columns; rank = len(pivots)."""
    work = np.array(m.a, copy=True)
    pivots = _eliminate(m.field, work)
    return work, pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> np.ndarray:
    """Rows spanning the right null space {v : m v = 0}.

    Row count is cols(m) - rank(m).
    """
    field = m.field
    r, pivots = rref(m)
    taken = set(pivots)
    free = [c for c in range(m.cols) if c not in taken]
    out = field.zeros(len(free), m.cols)
    out[np.arange(len(free)), free] = field.one
    out[:, pivots] = field.reduce(-r[:len(pivots), free].T)
    return out


def solve_matrix(a: Matrix, b: Matrix) -> np.ndarray | None:
    """Exact solution X of a X = b (matrix rhs), or None if inconsistent."""
    field = a.field
    if b.rows != a.rows:
        raise ValueError("rhs row count mismatch")
    aug = np.concatenate([np.array(a.a, copy=True), np.array(b.a, copy=True)], axis=1)
    pivots = _eliminate(field, aug)
    if any(p >= a.cols for p in pivots):
        return None
    x = field.zeros(a.cols, b.cols)
    for i, pc in enumerate(pivots):
        x[pc] = aug[i, a.cols:]
    return x


class Echelon:
    """Incremental fully-reduced row basis for span membership and extension.

    Rows are kept mutually reduced (each row vanishes at every other row's
    pivot), so reducing a vector is a single matrix operation.
    """

    def __init__(self, field: FieldSpec, dim: int):
        self.field = field
        self.dim = dim
        self._mat = field.zeros(0, dim)
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _reduce(self, block) -> np.ndarray:
        """The rows of block (a vector or a 2-D block) reduced against the
        basis in one product.  Anything but an ndarray of the field's dtype
        is coerced into the field first."""
        field = self.field
        if not (isinstance(block, np.ndarray) and block.dtype == self._mat.dtype):
            block = field.array(block)
        block = block.reshape(-1, self.dim)
        if not self._pivots:
            return block
        return field.reduce(block - field.matmul(block[:, self._pivots], self._mat))

    def contains(self, v) -> bool:
        return self.field.is_zero(self._reduce(v))

    def add(self, v) -> bool:
        """Insert v; True iff it enlarged the span."""
        return self.extend(v) > 0

    def extend(self, block) -> int:
        """Insert the rows of a block (a vector is one row); returns by how
        much the rank grew.

        The block is reduced against the basis in one product, what is left
        goes through the pivot loop, and the old rows are cleared at the new
        pivots in one more product."""
        field = self.field
        rest = self._reduce(block)
        rest = rest[np.any(rest != 0, axis=1)]  # a copy: the pivot loop works in place
        new = _pivot_loop(field, rest)
        if not new:
            return 0
        rest = rest[:len(new)]
        if self._pivots:
            self._mat = field.reduce(self._mat - field.matmul(self._mat[:, new], rest))
        self._mat = np.concatenate([self._mat, rest], axis=0)
        self._pivots.extend(new)
        return len(new)

    def basis_matrix(self) -> np.ndarray:
        """The basis rows in pivot order."""
        return self._mat[np.argsort(self._pivots)]
