"""Exact dense matrix and subspace arithmetic over a FieldCtx.

Everything downstream (spinning, hom spaces, radicals, idempotents) reduces
to the kernels here.  Matrices hold raw element encodings in numpy arrays.
Products go through one exact float64 BLAS call for every field, in the
polynomial basis that the encodings' base-p digits already are
(_matmul_arr).  Elimination works on whole rows: XOR in characteristic 2
(AND for the GF(2) scalings), table lookups otherwise.  Canonical RREF
everywhere makes subspace equality plain array equality.  A Subspace keeps
the pivot columns of its basis and grows by reduced rows (extend): only the
new rows are eliminated, never the basis it already has.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import AmbientMismatch, ShapeMismatch
from .fieldcore import FieldCtx, FieldElem


def _as_val(ctx: FieldCtx, x) -> int:
    if isinstance(x, FieldElem):
        return x.val
    return int(x) % ctx.order if int(x) >= 0 else ctx.neg(-int(x) % ctx.order)


# ---------------------------------------------------------------- kernels --
# All private kernels mutate/consume raw numpy arrays of encodings.


def _mul_outer(ctx: FieldCtx, col: np.ndarray, row: np.ndarray) -> np.ndarray:
    if ctx.order == 2:
        return col[:, None] & row[None, :]  # GF(2) multiplication is AND
    return ctx.MUL[col[:, None], row[None, :]]


def _add_arr(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if ctx.char == 2:
        return np.bitwise_xor(a, b)
    return ctx.ADD[a, b]


def _sub_arr(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if ctx.char == 2:
        return np.bitwise_xor(a, b)
    return ctx.SUB[a, b]


def _matmul_arr(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b over GF(p^k) as one exact float64 BLAS product.

    An encoding's base-p digits are its coordinates in the polynomial basis
    1, x, .., x^(k-1) (see fieldcore).  With a = sum_t a_t x^t and
    b = sum_s b_s x^s, the k^2 slice products a_t b_s come from one BLAS
    call: a's digit slices stacked by rows, b's interleaved by columns.
    Folding by FOLD[t, s] = x^(t+s) mod the modulus gives the k digit
    planes of a b, which are reduced mod p and re-encoded.  Over GF(p)
    this is fmod(a @ b, p).

    Exactness: a slice product entry is at most n (p-1)^2 for inner
    dimension n, and the fold sums k^2 of them times digits <= p-1, so every
    float64 intermediate is an integer of at most k^2 (p-1)^3 n (and
    (p-1)^2 n for k = 1).  For every field FieldCtx admits (order <= 4096)
    that stays below 2^53 for any n under 5 * 10^8.
    """
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul {a.shape} x {b.shape}")
    m, n = a.shape[0], b.shape[1]
    if m == 0 or n == 0 or a.shape[1] == 0:
        return np.zeros((m, n), dtype=ctx.dtype)
    p, k = ctx.char, ctx.degree
    if k == 1:
        c = a.astype(np.float64) @ b.astype(np.float64)
        return np.fmod(c, p, out=c).astype(ctx.dtype)
    da = np.take(ctx.DIGITS, a, axis=1).reshape(k * m, -1)  # row block t is a_t
    db = np.take(ctx.DIGITS.T, b, axis=0).reshape(b.shape[0], n * k)  # column (l, s): b_s[:, l]
    prod = (da @ db).reshape(k, m * n, k)  # [t, (i, l), s] = (a_t b_s)[i, l]
    c = np.matmul(prod, ctx.FOLD).sum(axis=0)  # [(i, l), r]: digit r of (a b)[i, l]
    np.fmod(c, p, out=c)
    return (c @ ctx.PLACE).reshape(m, n).astype(ctx.dtype)


def _rref_arr(ctx: FieldCtx, m: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """Unique reduced row echelon form; returns (rref, rank, pivot columns)."""
    m = m.astype(ctx.dtype, copy=True)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        pv = int(m[r, c])
        if pv != 1:
            m[r] = ctx.MUL[ctx.INV[pv]][m[r]]
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            m[other] = _sub_arr(ctx, m[other], _mul_outer(ctx, m[other, c], m[r]))
        pivots.append(c)
        r += 1
    return m, r, pivots


def _nullspace_arr(ctx: FieldCtx, m: np.ndarray) -> np.ndarray:
    """Canonical basis (as rows) of {v : m v = 0}."""
    r, rank, pivots = _rref_arr(ctx, m)
    is_free = np.ones(m.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, m.shape[1]), dtype=ctx.dtype)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = ctx.NEG[r[:rank][:, free]].T
    return basis


def _kron_arr(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ra, ca = a.shape
    rb, cb = b.shape
    return ctx.MUL[a[:, None, :, None], b[None, :, None, :]].reshape(ra * rb, ca * cb)


# ------------------------------------------------------------------- Mat --


class Mat:
    """Immutable dense matrix over a FieldCtx (row-major encodings, a read-only array)."""

    __slots__ = ("ctx", "a")

    def __init__(self, ctx: FieldCtx, arr: np.ndarray):
        self.ctx = ctx
        a = np.asarray(arr, dtype=ctx.dtype)
        if a.ndim != 2:
            raise ShapeMismatch(f"matrix must be 2-d, got shape {a.shape}")
        a = a.view()
        a.flags.writeable = False
        self.a = a

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows: Sequence[Sequence]) -> "Mat":
        vals = [[_as_val(ctx, x) for x in row] for row in rows]
        ncols = len(vals[0]) if vals else 0
        return cls(ctx, np.array(vals, dtype=ctx.dtype).reshape(len(vals), ncols))

    @classmethod
    def zeros(cls, ctx: FieldCtx, rows: int, cols: int) -> "Mat":
        return cls(ctx, np.zeros((rows, cols), dtype=ctx.dtype))

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Mat":
        return cls(ctx, np.eye(n, dtype=ctx.dtype))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def entry(self, i: int, j: int) -> FieldElem:
        return FieldElem(self.ctx, int(self.a[i, j]))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ctx != other.ctx:
            raise ShapeMismatch("matrices over different fields")
        return Mat(self.ctx, _matmul_arr(self.ctx, self.a, other.a))

    def __add__(self, other: "Mat") -> "Mat":
        if self.a.shape != other.a.shape:
            raise ShapeMismatch(f"add {self.a.shape} + {other.a.shape}")
        return Mat(self.ctx, _add_arr(self.ctx, self.a, other.a))

    def __sub__(self, other: "Mat") -> "Mat":
        if self.a.shape != other.a.shape:
            raise ShapeMismatch(f"sub {self.a.shape} - {other.a.shape}")
        return Mat(self.ctx, _sub_arr(self.ctx, self.a, other.a))

    def scale(self, s) -> "Mat":
        return Mat(self.ctx, self.ctx.MUL[_as_val(self.ctx, s)][self.a])

    @property
    def T(self) -> "Mat":
        return Mat(self.ctx, self.a.T.copy())

    def is_zero(self) -> bool:
        return not self.a.any()

    def rank(self) -> int:
        return _rref_arr(self.ctx, self.a)[1]

    def inverse(self) -> "Mat":
        n = self.rows
        if n != self.cols:
            raise ShapeMismatch("inverse of a non-square matrix")
        aug = np.hstack([self.a, np.eye(n, dtype=self.ctx.dtype)])
        r, rank, pivots = _rref_arr(self.ctx, aug)
        if rank != n or pivots != list(range(n)):
            raise ShapeMismatch("matrix is singular")
        return Mat(self.ctx, r[:, n:].copy())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.ctx == other.ctx
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.a.shape, self.a.tobytes()))

    def tolist(self) -> list[list[int]]:
        return self.a.astype(int).tolist()

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols} over {self.ctx})"


def rref(m: Mat) -> tuple[Mat, int, list[int]]:
    """Canonical reduced row echelon form with rank and pivot columns."""
    r, rank, pivots = _rref_arr(m.ctx, m.a)
    return Mat(m.ctx, r), rank, pivots


def nullspace(a: Mat) -> Mat:
    """Basis of the right nullspace of a, one vector per row, canonical order."""
    return Mat(a.ctx, _nullspace_arr(a.ctx, a.a))


def solve(a: Mat, b: Mat) -> Optional[Mat]:
    """One solution x of a x = b, or None when the system is inconsistent.

    The full solution set is x + nullspace(a); call nullspace separately.
    """
    if a.rows != b.rows:
        raise ShapeMismatch(f"solve: {a.rows} equations vs {b.rows} right-hand rows")
    ctx = a.ctx
    aug = np.hstack([a.a, b.a])
    r, rank, pivots = _rref_arr(ctx, aug)
    if rank and pivots[-1] >= a.cols:
        return None  # pivot in the augmented block: inconsistent
    x = np.zeros((a.cols, b.cols), dtype=ctx.dtype)
    x[pivots] = r[:rank, a.cols :]
    return Mat(ctx, x)


# -------------------------------------------------------------- Subspace --


class Subspace:
    """A subspace of k^n held as a canonical RREF basis (full row rank) with
    the pivot column of each basis row.

    Canonical form means equality of subspaces is equality of arrays.
    """

    __slots__ = ("ctx", "ambient", "basis", "_pivots")

    def __init__(self, ctx: FieldCtx, ambient: int, basis: Mat):
        if basis.cols != ambient:
            raise AmbientMismatch(f"basis width {basis.cols} != ambient {ambient}")
        r, rank, pivots = _rref_arr(ctx, basis.a)
        self._set(ctx, ambient, Mat(ctx, r[:rank].copy()), pivots)

    def _set(self, ctx: FieldCtx, ambient: int, basis: Mat, pivots) -> None:
        self.ctx = ctx
        self.ambient = ambient
        self.basis = basis
        self._pivots = np.array(pivots, dtype=np.intp)
        self._pivots.flags.writeable = False

    @staticmethod
    def _echelon(ctx: FieldCtx, ambient: int, basis: np.ndarray, pivots) -> "Subspace":
        """Wrap rows already in RREF with their pivots, without eliminating."""
        space = object.__new__(Subspace)
        space._set(ctx, ambient, Mat(ctx, basis), pivots)
        return space

    @classmethod
    def from_vectors(cls, ctx: FieldCtx, ambient: int, vectors: Iterable) -> "Subspace":
        rows = [[_as_val(ctx, x) for x in v] for v in vectors]
        if not rows:
            return cls.zero(ctx, ambient)
        return cls(ctx, ambient, Mat.from_rows(ctx, rows))

    @classmethod
    def zero(cls, ctx: FieldCtx, ambient: int) -> "Subspace":
        return cls._echelon(ctx, ambient, np.zeros((0, ambient), dtype=ctx.dtype), [])

    @classmethod
    def full(cls, ctx: FieldCtx, ambient: int) -> "Subspace":
        return cls._echelon(ctx, ambient, np.eye(ambient, dtype=ctx.dtype), range(ambient))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def pivots(self) -> np.ndarray:
        """Pivot column of each basis row (read-only): its first nonzero entry."""
        return self._pivots

    def reduce_rows(self, mat: np.ndarray) -> np.ndarray:
        """Residuals of several vectors (rows of mat) at once.

        Every basis row is zero on the other rows' pivots (RREF), so
        subtracting basis rows never changes a row's coefficient on a pivot:
        the residual is mat - mat[:, pivots] B, one product.
        """
        ctx = self.ctx
        m = np.asarray(mat, dtype=ctx.dtype)
        return _sub_arr(ctx, m, _matmul_arr(ctx, m[:, self._pivots], self.basis.a))

    def extend(self, rows: np.ndarray) -> tuple["Subspace", np.ndarray]:
        """The sum of self and the span of rows, and the new directions F.

        F is the RREF of the residuals of rows, so F is zero on the old
        pivots and the identity on its own.  Clearing the old basis B on F's
        pivots, B - B[:, P] F, keeps B the identity on the old pivots, and
        merging the rows by pivot gives the RREF of the sum: B is never
        eliminated again.  The sum has dimension dim + F.shape[0].
        """
        ctx = self.ctx
        f, rank, fresh_pivots = _rref_arr(ctx, self.reduce_rows(rows))
        f = f[:rank]
        b = self.basis.a
        cleared = _sub_arr(ctx, b, _matmul_arr(ctx, b[:, fresh_pivots], f))
        pivots = np.concatenate([self._pivots, fresh_pivots])
        order = np.argsort(pivots)
        space = Subspace._echelon(ctx, self.ambient, np.vstack([cleared, f])[order], pivots[order])
        return space, f

    def contains(self, vec) -> bool:
        v = np.array([_as_val(self.ctx, x) for x in vec], dtype=self.ctx.dtype)
        return not self.reduce_rows(v[None, :]).any()

    def contains_space(self, other: "Subspace") -> bool:
        return not self.reduce_rows(other.basis.a).any()

    def coords(self, vec: np.ndarray) -> np.ndarray:
        """Coordinates w.r.t. the RREF basis (valid only for members)."""
        v = np.asarray(vec, dtype=self.ctx.dtype)
        return v[self._pivots]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ctx == other.ctx
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of k^{self.ambient})"


def subspace_ops(u: Subspace, v: Subspace) -> tuple[Subspace, Subspace]:
    """Sum and intersection, both canonical.

    The sum extends u by v's basis.  A combination c B_u of u's basis lies
    in v exactly when its residual c R, R = B_u mod v, vanishes, so the
    meet is N B_u for N a basis of the left nullspace of R.
    """
    if u.ctx != v.ctx or u.ambient != v.ambient:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    ctx = u.ctx
    total, _ = u.extend(v.basis.a)
    coeffs = _nullspace_arr(ctx, v.reduce_rows(u.basis.a).T)
    return total, Subspace(ctx, u.ambient, Mat(ctx, _matmul_arr(ctx, coeffs, u.basis.a)))
