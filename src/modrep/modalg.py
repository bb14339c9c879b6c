"""The group algebra kG and its modules.

A Module carries one invertible matrix per group generator; matrices for all
other elements are products along the group's BFS words, cached on the
module.  Three kinds of module act through kG's multiplication table
instead and store no element matrix: the regular module, which reads an
element matrix off the table when asked and acts by an algebra element with
one gather, so a fresh one costs its |G| x |G| generator matrices; a
quotient kG/W by a left ideal W (each piece the chop of kG pushes), one
gather and one product on W's non-pivot coordinates; and a left ideal of
kG (a PIM), the same on its RREF basis.  The constructor certifies that the
generator matrices actually extend to an action of the whole
multiplication table (full check at desk scale, sampled beyond it), except
where the construction already proves it (the regular module and its
quotients, read off the table; left ideals, whose generator images are
checked to stay inside; sub_quotient, duals, direct sums, restrictions and
induced modules).

Everything here is pure: modules are immutable once built, and the
randomized steps (the Norton test and the chop built on it) take an
explicit seed or stream so parallel runs stay reproducible.  An int seed
starts modrep's own stream, Pcg64Ints: PCG64 seeded through SeedSequence,
the same draws as numpy's default_rng(seed).integers, owned here so that a
change to numpy's Generator methods cannot move a report.  Simples are
told apart by Schur's lemma, with no random draws.  Composition
multiplicities have one route, factor_multiset, which reads them off Brauer
characters and draws nothing; the chop serves only to find the simples.
modules_isomorphic draws combinations of homs, but a draw can only prove
True: False needs a certificate, and without one the test raises.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable, Optional, Protocol, Sequence, Union

import numpy as np

from .errors import (
    AlgebraMismatch,
    ChopInstability,
    DimensionMismatch,
    IncompleteSimpleSet,
    NoConvergence,
    NoQuotientRecorded,
    NotInvariant,
    NotSubgroup,
    ZeroModule,
)
from .fieldcore import (
    FieldCtx,
    FieldElem,
    Poly,
    factors_roots_first,
    field_from_json,
    field_to_json,
    poly_factor,
)
from .linalg import (
    Mat,
    Subspace,
    _add_arr,
    _as_val,
    _kron_arr,
    _matmul_arr,
    _nullspace_arr,
    _rref_arr,
    _sub_arr,
)
from .permgroup import GroupTable, QuotientMap, Subgroup, conjugacy_data, cosets_and_quotient

FULL_CHECK_LIMIT = 4000  # dim * |G| at or below this gets the full action check

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(4, uint64): the seed's
    uint32 words hashed into a pool of 4, the pool hashed out again."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _M32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _M32)
    words += [0] * (4 - len(words))
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hash_b = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _M32
        value = value * hash_b & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64Ints:
    """Bounded integers from PCG64 seeded through SeedSequence: draw for
    draw what numpy.random.default_rng(seed).integers(lo, hi) gives, for a
    non-negative int seed and 1 <= hi - lo <= 2^32 - 1.

    PCG64 is the 128-bit LCG with the XSL-RR output (O'Neill 2014); a
    32-bit draw is the low half of a fresh 64-bit output, the next one its
    saved high half; integers() is Lemire's bounded draw on those (ACM
    TOMACS 29(1), 2019), and a range of one value draws nothing.
    """

    __slots__ = ("_state", "_inc", "_high")

    def __init__(self, seed: int):
        w = _seed_words(seed)
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
        self._state = ((self._inc + (w[0] << 64 | w[1])) * _PCG_MULT + self._inc) & _M128
        self._high: Optional[int] = None

    def _next32(self) -> int:
        if self._high is not None:
            out, self._high = self._high, None
            return out
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, r = (s >> 64 ^ s) & _M64, s >> 122
        out = (x >> r | x << (64 - r)) & _M64
        self._high = out >> 32
        return out & _M32

    def integers(self, lo: int, hi: int) -> int:
        """One draw, uniform on [lo, hi)."""
        n = hi - lo
        if not 1 <= n <= _M32:
            raise ValueError(f"range [{lo}, {hi}) must hold 1 to 2^32 - 1 values")
        if n == 1:
            return lo
        threshold = ((1 << 32) - n) % n  # 2^32 mod n: the low words to reject
        m = self._next32() * n
        while m & _M32 < threshold:
            m = self._next32() * n
        return lo + (m >> 32)


class _Draws(Protocol):
    def integers(self, lo: int, hi: int) -> int: ...


# an int seed, which starts a Pcg64Ints (PCG64 via SeedSequence, the draws
# of numpy's default_rng for that seed), or a stream with integers(lo, hi)
# such as a numpy Generator; modrep owns the stream so that a change to
# numpy's Generator methods cannot move a report
SeedLike = Union[int, _Draws]


def _rng(seed: SeedLike) -> _Draws:
    return seed if hasattr(seed, "integers") else Pcg64Ints(int(seed))


class GroupAlgebra:
    """kG: the group as a basis, with multiplication by convolution through the group table."""

    def __init__(self, group: GroupTable, field: FieldCtx):
        self.group = group
        self.field = field
        self.dim = group.order
        # _right_index[h, x] is the index of x h^-1; a[_right_index] is the
        # matrix by which b -> a b acts on rows (see conv)
        self._right_index = np.ascontiguousarray(group.mult[:, group.inv].T)

    def zero(self) -> "AlgebraElem":
        return AlgebraElem(self, np.zeros(self.dim, dtype=self.field.dtype))

    def one(self) -> "AlgebraElem":
        v = np.zeros(self.dim, dtype=self.field.dtype)
        v[0] = 1
        return AlgebraElem(self, v)

    def basis_elem(self, i: int) -> "AlgebraElem":
        v = np.zeros(self.dim, dtype=self.field.dtype)
        v[i] = 1
        return AlgebraElem(self, v)

    def from_coeffs(self, pairs: Iterable[tuple[int, int]]) -> "AlgebraElem":
        """Element from (group-element-index, coefficient-encoding) pairs."""
        v = np.zeros(self.dim, dtype=self.field.dtype)
        k = self.field
        for idx, c in pairs:
            v[idx] = k.add(int(v[idx]), int(c) % k.order)
        return AlgebraElem(self, v)

    def conv(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficients of the product a b: out[..., gh] += a[g] b[..., h].

        b is one coefficient vector or a stack of them (one product per row).
        Since out[..., x] = sum_h a[x h^-1] b[..., h], the product is
        b R_a with R_a[h, x] = a[x h^-1]: one gather through the index table,
        then one matmul.
        """
        rows = b.reshape(-1, self.dim)
        return _matmul_arr(self.field, rows, np.take(a, self._right_index)).reshape(b.shape)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupAlgebra)
            and self.group is other.group
            and self.field == other.field
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.field))

    def __repr__(self) -> str:
        return f"GroupAlgebra(|G|={self.group.order} over {self.field})"


class AlgebraElem:
    """Coefficient vector (a read-only array) over the group-element basis of kG."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: GroupAlgebra, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=algebra.field.dtype)
        if coeffs.shape != (algebra.dim,):
            raise DimensionMismatch(f"coefficient vector of length {coeffs.shape}")
        coeffs = coeffs.view()
        coeffs.flags.writeable = False
        self.algebra = algebra
        self.coeffs = coeffs

    def _check(self, other: "AlgebraElem") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatch("elements of different group algebras")

    def __add__(self, other: "AlgebraElem") -> "AlgebraElem":
        self._check(other)
        return AlgebraElem(self.algebra, _add_arr(self.algebra.field, self.coeffs, other.coeffs))

    def __sub__(self, other: "AlgebraElem") -> "AlgebraElem":
        self._check(other)
        return AlgebraElem(self.algebra, _sub_arr(self.algebra.field, self.coeffs, other.coeffs))

    def __mul__(self, other: "AlgebraElem") -> "AlgebraElem":
        self._check(other)
        return AlgebraElem(self.algebra, self.algebra.conv(self.coeffs, other.coeffs))

    def scale(self, s) -> "AlgebraElem":
        k = self.algebra.field
        val = s.val if isinstance(s, FieldElem) else int(s) % k.order
        return AlgebraElem(self.algebra, k.MUL[val][self.coeffs])

    def coeff(self, i: int) -> FieldElem:
        return FieldElem(self.algebra.field, int(self.coeffs[i]))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def is_idempotent(self) -> bool:
        return np.array_equal((self * self).coeffs, self.coeffs)

    def is_central(self) -> bool:
        """Commutes with every group generator, hence with all of kG."""
        a = self.algebra
        for gi in a.group.generators:
            b = a.basis_elem(gi)
            if not np.array_equal((self * b).coeffs, (b * self).coeffs):
                return False
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElem)
            and self.algebra == other.algebra
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __hash__(self) -> int:
        return hash((self.algebra, self.coeffs.tobytes()))

    def __repr__(self) -> str:
        k = self.algebra.field
        terms = []
        for i in np.nonzero(self.coeffs)[0]:
            c = FieldElem(k, int(self.coeffs[i]))
            gs = self.algebra.group.elements[int(i)].cycle_str()
            cs = repr(c)
            terms.append(gs if cs == "1" else (f"({cs})*{gs}" if "+" in cs else f"{cs}*{gs}"))
        return " + ".join(terms) if terms else "0"


class Module:
    """A kG-module: dimension plus one invertible matrix per group generator.

    Invariance (the generator matrices extend to an action of the whole
    group) is checked where matrices enter from outside: a user-built
    Module(...), module_from_json and inflate_module (whose QuotientMap may
    be user-built).  sub_quotient results skip the check, because its exact
    residual test already proves them, and so do the dual, direct sum and
    restriction of a module, whose actions are homomorphic images of valid
    ones, and the induced module, built from a transversal computed here;
    the regular module is read off the group's multiplication table, which
    is not outside input, and a left ideal checks its generator images by
    residuals.  Those constructions pass check="off"; the default "auto"
    runs _verify.
    """

    def __init__(
        self,
        algebra: GroupAlgebra,
        gen_action: Sequence[Mat],
        dim: Optional[int] = None,
        label: Optional[str] = None,
        check: str = "auto",
    ):
        self.algebra = algebra
        self.gen_action = tuple(gen_action)
        if dim is None:
            if not self.gen_action:
                raise DimensionMismatch("dim is required for generator-free groups")
            dim = self.gen_action[0].rows
        self.dim = dim
        self.label = label
        for m in self.gen_action:
            if m.rows != dim or m.cols != dim:
                raise DimensionMismatch(f"generator action is {m.rows}x{m.cols}, dim {dim}")
            if m.ctx != algebra.field:
                raise AlgebraMismatch("generator matrix over the wrong field")
        if check not in ("auto", "off"):
            raise ValueError(f"check must be 'auto' or 'off', not {check!r}")
        self._mats: dict[int, np.ndarray] = {}
        if check == "auto":
            self._verify()

    # --- action matrices ---

    def _mat_arr(self, i: int) -> np.ndarray:
        """Matrix of group element i, built along its BFS word, memoized."""
        cached = self._mats.get(i)
        if cached is not None:
            return cached
        k = self.algebra.field
        g = self.algebra.group
        chain = []
        while i not in self._mats:
            if i == 0:
                self._mats[0] = np.eye(self.dim, dtype=k.dtype)
                break
            chain.append(i)
            i = g.parents[i][0]
        for j in reversed(chain):
            parent, gi = g.parents[j]
            self._mats[j] = _matmul_arr(k, self._mats[parent], self.gen_action[gi].a)
        return self._mats[chain[0] if chain else i]

    def element_mat(self, i: int) -> Mat:
        """Action matrix of the i-th group element."""
        return Mat(self.algebra.field, self._mat_arr(i))

    def action_of(self, elem: AlgebraElem) -> Mat:
        """Action matrix of an arbitrary algebra element."""
        if elem.algebra != self.algebra:
            raise AlgebraMismatch("element of a different algebra")
        k = self.algebra.field
        out = np.zeros((self.dim, self.dim), dtype=k.dtype)
        for i in np.nonzero(elem.coeffs)[0]:
            out = _add_arr(k, out, k.MUL[int(elem.coeffs[i])][self._mat_arr(int(i))])
        return Mat(k, out)

    def _verify(self) -> None:
        """The full action check at desk scale (dim * |G| <= FULL_CHECK_LIMIT),
        20 sampled products beyond it."""
        g = self.algebra.group
        k = self.algebra.field
        if self.dim == 0 or g.order == 1:
            return
        if self.dim * g.order <= FULL_CHECK_LIMIT:
            mats = [self._mat_arr(i) for i in range(g.order)]
            stacked = np.hstack(mats)  # d x (n*d), h-th block is rho(h)
            for gi in g.generators:
                prod = _matmul_arr(k, mats[gi], stacked)
                expect = np.hstack([mats[int(g.mult[gi, h])] for h in range(g.order)])
                if not np.array_equal(prod, expect):
                    raise NotInvariant("generator matrices do not extend to the group")
        else:
            for m in self.gen_action:
                if m.rank() != self.dim:
                    raise NotInvariant("generator action is singular")
            rng = Pcg64Ints(self.dim * 1009 + g.order)
            for _ in range(20):
                a, b = rng.integers(0, g.order), rng.integers(0, g.order)
                lhs = _matmul_arr(k, self._mat_arr(a), self._mat_arr(b))
                if not np.array_equal(lhs, self._mat_arr(g.mul(a, b))):
                    raise NotInvariant("sampled product check failed")

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"Module(dim {self.dim}{tag} over {self.algebra!r})"


# ------------------------------------------------------------ constructors --


def _regular_mat(a: GroupAlgebra, h: int) -> np.ndarray:
    """rho(h) on kG: column x is the basis vector of h x (eye[:, mult[h]])."""
    m = np.zeros((a.dim, a.dim), dtype=a.field.dtype)
    m[a.group.mult[h], np.arange(a.dim)] = 1
    return m


class _IdealQuotientModule(Module):
    """kG/W for a left ideal W, in the non-pivot coordinates C of W's RREF.

    The coset of e_j (j in C) maps to x e_j + W, whose residual mod W is
    zero on W's pivots: column j of rho(x) is that residual on C.  x e_j is
    row j of R_x = x[_right_index] (see GroupAlgebra.conv), so rho(x) =
    (R_x[C] mod W)[:, C]^T, one gather of |C| x |G| entries and one product,
    the matrix sub_quotient builds on the regular module.  Like the regular
    module it stores no element matrix.  Quotienting by a submodule S grows
    W by S lifted to kG (sub_quotient), never building the generic quotient.
    """

    def __init__(
        self,
        a: GroupAlgebra,
        ideal: Subspace,
        label: Optional[str] = None,
        gens: Optional[Sequence[Mat]] = None,
    ):
        self.ideal = ideal
        keep = np.ones(a.dim, dtype=bool)
        keep[ideal.pivots()] = False
        self._cols = np.flatnonzero(keep)
        if gens is None:
            gens = [Mat(a.field, self._act(a, a.basis_elem(g).coeffs)) for g in a.group.generators]
        super().__init__(a, gens, dim=self._cols.size, label=label, check="off")

    def _act(self, a: GroupAlgebra, x: np.ndarray) -> np.ndarray:
        red = self.ideal.reduce_rows(np.take(x, a._right_index[self._cols]))
        return np.ascontiguousarray(red[:, self._cols].T)

    def _mat_arr(self, i: int) -> np.ndarray:
        return self._act(self.algebra, self.algebra.basis_elem(i).coeffs)

    def action_of(self, elem: AlgebraElem) -> Mat:
        if elem.algebra != self.algebra:
            raise AlgebraMismatch("element of a different algebra")
        return Mat(self.algebra.field, self._act(self.algebra, elem.coeffs))

    def _quotient(self, s: Subspace) -> Module:
        """kG/(W + S lifted): S sits on the coordinates C, and is zero on W's pivots."""
        lift = np.zeros((s.dim, self.algebra.dim), dtype=self.algebra.field.dtype)
        lift[:, self._cols] = s.basis.a
        return _IdealQuotientModule(self.algebra, self.ideal.extend(lift)[0])


class _RegularModule(_IdealQuotientModule):
    """kG on itself (kG/0); an element matrix is read off the table, never stored."""

    def _mat_arr(self, i: int) -> np.ndarray:
        return _regular_mat(self.algebra, i)

    def action_of(self, elem: AlgebraElem) -> Mat:
        """rho(e) = conv(e, 1)^T, column x being e x: one gather, no element matrix."""
        if elem.algebra != self.algebra:
            raise AlgebraMismatch("element of a different algebra")
        return Mat(self.algebra.field, np.take(elem.coeffs, self.algebra._right_index.T))


def regular_module(a: GroupAlgebra) -> Module:
    """kG acting on itself by left multiplication (permutation matrices).

    Every element matrix comes straight from the multiplication table, so
    none is multiplied out and none needs checking: the table is computed
    from the group's permutations, not taken from outside.  Each call builds
    a fresh module from the generator matrices; it stores nothing after
    that, so there is nothing to share between callers or threads.
    """
    gens = [Mat(a.field, _regular_mat(a, gi)) for gi in a.group.generators]
    return _RegularModule(a, Subspace.zero(a.field, a.dim), label="regular", gens=gens)


class _LeftIdealModule(Module):
    """A left ideal L of kG on itself, in the RREF basis B of L (pivots piv).

    B is the identity on its pivot columns, so the coordinate of x b_i on
    b_j is (x b_i)[piv_j]: rho_L(x) = (B R_x[:, piv])^T, R_x = x[_right_index]
    (see GroupAlgebra.conv), one gather of |G| x dim L entries and one
    product, and rho_L(g) = B[:, mult[g^-1, piv]]^T, since (g b)[y] =
    b[g^-1 y].  Like the regular module it stores no element matrix.  The
    generator images g B are checked to lie in L (their residuals vanish),
    so a subspace that is not a left ideal raises NotInvariant.
    """

    def __init__(self, a: GroupAlgebra, space: Subspace, label: Optional[str] = None):
        g = a.group
        gens = []
        for gi in g.generators:
            img = space.basis.a[:, g.mult[g.inv[gi]]]  # row i: g b_i in kG coordinates
            if space.reduce_rows(img).any():
                raise NotInvariant("subspace is not a left ideal of kG")
            gens.append(Mat(a.field, img[:, space.pivots()].T))
        super().__init__(a, gens, dim=space.dim, label=label, check="off")
        self.space = space

    def _mat_arr(self, i: int) -> np.ndarray:
        g = self.algebra.group
        return self.space.basis.a[:, g.mult[g.inv[i], self.space.pivots()]].T

    def action_of(self, elem: AlgebraElem) -> Mat:
        if elem.algebra != self.algebra:
            raise AlgebraMismatch("element of a different algebra")
        a = self.algebra
        piv = self.space.pivots()
        r_x = np.take(elem.coeffs, a._right_index[:, piv])  # pivot columns of R_x only
        return Mat(a.field, _matmul_arr(a.field, self.space.basis.a, r_x).T)


def permutation_module(a: GroupAlgebra) -> Module:
    """The natural permutation module on the group's points."""
    g = a.group
    n = g.degree
    mats = []
    for p in g.generator_perms:
        m = np.zeros((n, n), dtype=a.field.dtype)
        for x in range(n):
            m[p(x), x] = 1
        mats.append(Mat(a.field, m))
    return Module(a, mats, dim=n, label="perm")


def trivial_module(a: GroupAlgebra) -> Module:
    return Module(
        a, [Mat.identity(a.field, 1) for _ in a.group.generators], dim=1, label="trivial"
    )


def module_to_json(m: Module) -> dict:
    obj = {
        "dim": m.dim,
        "field": field_to_json(m.algebra.field),
        "generators": [g.tolist() for g in m.gen_action],
    }
    if m.label:
        obj["label"] = m.label
    return obj


def module_from_json(a: GroupAlgebra, text_or_obj) -> Module:
    obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
    field = field_from_json(obj["field"])
    if field != a.field:
        raise AlgebraMismatch("module field does not match the algebra's field")
    gens = [Mat.from_rows(a.field, rows) for rows in obj["generators"]]
    if len(gens) != len(a.group.generators):
        raise AlgebraMismatch(
            f"{len(gens)} matrices for {len(a.group.generators)} group generators"
        )
    return Module(a, gens, dim=int(obj["dim"]), label=obj.get("label"))


# ------------------------------------------------------------------- spin --


def _spin_arrays(k: FieldCtx, gens: Sequence[np.ndarray], seeds: np.ndarray, dim: int) -> Subspace:
    space = Subspace(k, dim, Mat(k, seeds))
    frontier = space.basis.a
    wide = np.hstack([g.T for g in gens]) if gens else None  # block j is g_j^T
    while gens and frontier.size and space.dim < dim:
        # row (i, j) is frontier_i g_j^T; only the fresh directions are spun on
        space, frontier = space.extend(_matmul_arr(k, frontier, wide).reshape(-1, dim))
    return space


def spin(m: Module, seeds: Iterable) -> Subspace:
    """Smallest invariant subspace containing the seed vectors (array seeds
    are taken as element encodings)."""
    k = m.algebra.field
    rows = []
    for v in seeds:
        if isinstance(v, np.ndarray):
            row = np.asarray(v, dtype=k.dtype)
        else:
            row = np.array([_as_val(k, x) for x in v], k.dtype)
        if row.shape != (m.dim,):
            raise DimensionMismatch(f"seed of length {row.shape} in dim {m.dim}")
        rows.append(row)
    if not rows:
        return Subspace.zero(k, m.dim)
    return _spin_arrays(k, [g.a for g in m.gen_action], np.array(rows), m.dim)


# ----------------------------------------------------------- sub/quotient --


def sub_quotient(m: Module, s: Subspace) -> tuple[Module, Module]:
    """Submodule on s and quotient on the non-pivot coordinate complement.

    The exact residual check proves s invariant, and the restriction and
    quotient of a valid action are valid actions, so neither result is
    re-verified.  A quotient of kG by a left ideal stays one (see
    _IdealQuotientModule).
    """
    k = m.algebra.field
    if s.ambient != m.dim:
        raise DimensionMismatch(f"subspace of k^{s.ambient} in a dim-{m.dim} module")
    piv = s.pivots()
    B = s.basis.a
    sub_gens = []
    for g in m.gen_action:
        img = _matmul_arr(k, B, g.a.T.copy())  # rows: rho(g) b_i
        resid = s.reduce_rows(img)
        if resid.any():
            raise NotInvariant("subspace is not invariant under the module action")
        sub_gens.append(Mat(k, img[:, piv].T.copy()))
    sub = Module(m.algebra, sub_gens, dim=s.dim, check="off")
    if isinstance(m, _IdealQuotientModule):
        return sub, m._quotient(s)
    nonpiv = np.ones(m.dim, dtype=bool)
    nonpiv[piv] = False
    quot_gens = []
    for g in m.gen_action:
        cols = g.a[:, nonpiv].T.copy()  # rows: rho(g) e_j for complement coords j
        red = s.reduce_rows(cols)
        quot_gens.append(Mat(k, red[:, nonpiv].T.copy()))
    quot = Module(m.algebra, quot_gens, dim=m.dim - s.dim, check="off")
    return sub, quot


# -------------------------------------------------------------- hom space --


@dataclass(frozen=True)
class ModuleHom:
    """A kG-homomorphism source -> target given by its matrix."""

    source: Module
    target: Module
    mat: Mat

    def is_valid(self) -> bool:
        for gs, gt in zip(self.source.gen_action, self.target.gen_action):
            if (self.mat @ gs) != (gt @ self.mat):
                return False
        return True


def hom_space(v: Module, w: Module) -> list[ModuleHom]:
    """Canonical basis of Hom_kG(v, w) via the stacked intertwining system."""
    if v.algebra != w.algebra:
        raise AlgebraMismatch("hom between modules of different algebras")
    k = v.algebra.field
    if v.dim == 0 or w.dim == 0:
        return []
    blocks = []
    eye_w = np.eye(w.dim, dtype=k.dtype)
    eye_v = np.eye(v.dim, dtype=k.dtype)
    for gv, gw in zip(v.gen_action, w.gen_action):
        lhs = _kron_arr(k, eye_w, gv.a.T.copy())  # vec(X A) for row-major vec
        rhs = _kron_arr(k, gw.a, eye_v)  # vec(B X)
        blocks.append(_sub_arr(k, lhs, rhs))
    if not blocks:
        basis = np.eye(w.dim * v.dim, dtype=k.dtype)
    else:
        basis = _nullspace_arr(k, np.vstack(blocks))
    return [ModuleHom(v, w, Mat(k, row.reshape(w.dim, v.dim).copy())) for row in basis]


def hom_dim(v: Module, w: Module) -> int:
    return len(hom_space(v, w))


# ------------------------------------------------------- irreducibility ----


@dataclass(frozen=True)
class IrreducibilityVerdict:
    irreducible: bool
    witness: Optional[Subspace]  # proper nonzero invariant subspace when reducible
    certificate: Optional[str]  # description of the successful Norton test


_THETA_ATTEMPTS = 120


def _krylov_minpoly(
    k: FieldCtx, start: np.ndarray, step: Callable[[np.ndarray], np.ndarray], maxdeg: int
) -> Poly:
    """Order polynomial of the vector start under the linear map step.

    Rows [step^i(start) | e_i] are reduced incrementally; the first dependent
    power exposes its combination coefficients in the augmented tail.
    """
    width = start.size
    reduced: list[np.ndarray] = []
    pivots: list[int] = []
    vec = start
    for deg in range(maxdeg + 1):
        row = np.zeros(width + maxdeg + 1, dtype=k.dtype)
        row[:width] = vec
        row[width + deg] = 1
        for r, p in zip(reduced, pivots):
            c = int(row[p])
            if c:
                row = _sub_arr(k, row, k.MUL[c][r])
        lead = np.nonzero(row[:width])[0]
        if lead.size == 0:
            # step^deg(start) = combination of lower powers; tail holds the relation
            tail = row[width : width + deg + 1]
            return Poly(k, [int(c) for c in tail])
        p = int(lead[0])
        inv = k.INV[int(row[p])]
        row = k.MUL[inv][row]
        reduced.append(row)
        pivots.append(p)
        vec = step(vec)
    raise ChopInstability("minimal polynomial search exceeded its degree bound")


def _matrix_minpoly(k: FieldCtx, theta: np.ndarray) -> Poly:
    """Minimal polynomial of a square matrix: the order polynomial of the
    identity under right multiplication by theta, a Krylov run of width d^2."""
    d = theta.shape[0]
    return _krylov_minpoly(
        k,
        np.eye(d, dtype=k.dtype).reshape(-1),
        lambda v: _matmul_arr(k, v.reshape(d, d), theta).reshape(-1),
        d + 1,
    )


def _element_minpoly(a: GroupAlgebra, x: np.ndarray) -> Poly:
    """Minimal polynomial of x in kG: the order polynomial of 1 under b -> x b,
    a Krylov run of width |G|.

    x b = sum_g c_g (g b) with (g b)[y] = b[g^-1 y], so a step is one gather
    of b per term of x, read off the table; x = 0 gives X.
    """
    k = a.field
    g = a.group
    support = np.flatnonzero(x)
    moves = g.mult[g.inv[support]]  # row t: y -> g_t^-1 y
    scales = [k.MUL[int(c)] for c in x[support]]

    def step(b: np.ndarray) -> np.ndarray:
        out = np.zeros_like(b)
        for scale, move in zip(scales, moves):
            out = _add_arr(k, out, scale[b[move]])
        return out

    return _krylov_minpoly(k, a.one().coeffs, step, a.dim)


def _poly_at_matrix(k: FieldCtx, coeffs, theta: np.ndarray) -> np.ndarray:
    """f(theta) for deg f >= 1 by Horner's rule from c_n theta: deg f - 1 products."""
    eye = np.eye(theta.shape[0], dtype=k.dtype)
    acc = k.MUL[int(coeffs[-1])][theta]
    for c in reversed(coeffs[1:-1]):
        acc = _matmul_arr(k, _add_arr(k, acc, k.MUL[int(c)][eye]), theta)
    return _add_arr(k, acc, k.MUL[int(coeffs[0])][eye])


def is_irreducible(m: Module, seed: SeedLike = 0) -> IrreducibilityVerdict:
    """Norton/MeatAxe irreducibility test with the Holt-Rees extension.

    theta is the matrix of a random element x of kG (through action_of, one
    gather on kG and its quotients).  Each irreducible factor f of the
    minimal polynomial of x in kG (when |G| < dim^2) or of theta, the
    linear ones first and found as roots (see factors_roots_first), gives
    a kernel ker f(theta).  mu_theta divides mu_x, and poly_factor's order
    is a fixed order on factors, so the factors with ker f(theta) != 0
    come in the same order either way and the verdict is the same.  Any
    proper spin of a kernel vector is a reducibility witness.  When
    dim ker f(theta) equals deg f, all kernel vectors share one spin, so a
    single full spin plus a full spin of one dual kernel vector under the
    transposed action certifies irreducibility (Norton's criterion).
    """
    if m.dim == 0:
        raise ZeroModule("zero module has no irreducibility verdict")
    if m.dim == 1:
        return IrreducibilityVerdict(True, None, "dim 1")
    rng = _rng(seed)
    k = m.algebra.field
    g = m.algebra.group
    gens = [x.a for x in m.gen_action]
    gens_t = [x.a.T.copy() for x in m.gen_action]
    for attempt in range(_THETA_ATTEMPTS):
        support = 2 + int(rng.integers(0, 3)) + attempt // 20
        terms = [  # (element, coefficient), drawn in that order
            (int(rng.integers(0, g.order)), int(rng.integers(1, k.order))) for _ in range(support)
        ]
        x = m.algebra.from_coeffs(terms)
        theta = m.action_of(x).a
        # mu_M(theta) divides mu_A(x), and a factor of mu_A alone has ker f(theta) = 0
        # and is skipped below: take whichever Krylov run is narrower, |G| or d^2
        if g.order < m.dim * m.dim:
            minpoly = _element_minpoly(m.algebra, x.coeffs)
        else:
            minpoly = _matrix_minpoly(k, theta)
        if minpoly.degree < 1:
            continue
        for f in factors_roots_first(minpoly):
            ftheta = _poly_at_matrix(k, f.coeffs, theta)
            ker = _nullspace_arr(k, ftheta)
            nu = ker.shape[0]
            if nu == 0:
                continue
            # nu == deg f makes ker an irreducible k[theta]-module: one spin
            # speaks for every kernel vector (covers nu == dim for a module
            # that is 1-dimensional over the field k[theta])
            decisive = nu == f.degree
            probes = [ker[0]] if decisive else list(ker[: min(3, nu)])
            for v in probes:
                space = _spin_arrays(k, gens, v[None, :], m.dim)
                if space.dim < m.dim:
                    return IrreducibilityVerdict(False, space, None)
            if not decisive:
                continue
            ker_t = _nullspace_arr(k, ftheta.T.copy())
            dual_space = _spin_arrays(k, gens_t, ker_t[0][None, :], m.dim)
            if dual_space.dim == m.dim:
                desc = " + ".join(
                    f"{FieldElem(k, c)!r}*{g.elements[e].cycle_str()}" for e, c in terms
                )
                return IrreducibilityVerdict(
                    True, None, f"norton theta = {desc}, factor degree {f.degree}"
                )
            # the annihilator of a proper dual submodule is a proper submodule
            perp = Subspace(k, m.dim, Mat(k, _nullspace_arr(k, dual_space.basis.a)))
            return IrreducibilityVerdict(False, perp, None)
    raise ChopInstability(f"no conclusive Norton element after {_THETA_ATTEMPTS} attempts")


# ------------------------------------------------------------------- chop --


class _Factors(list):
    """chop's factors; a chop with until_classes also keeps in `reps` the
    first factor of each iso class, in discovery order (see _class_of)."""


def chop(m: Module, seed: SeedLike = 0, until_classes: Optional[int] = None) -> list[Module]:
    """All composition factors of m as modules (recursive MeatAxe chop).

    With until_classes = n the chop ends as soon as its factors hold n
    pairwise non-isomorphic modules, each factor classified once by
    Schur's lemma; the comparisons draw nothing, so the factors are a
    prefix of the full chop with the same seed.  A chop that never reaches
    n classes runs to the end.
    """
    rng = _rng(seed)
    out = _Factors()
    out.reps = []
    stack = [m]
    while stack and len(out.reps) != until_classes:  # never equal to None
        cur = stack.pop()
        if cur.dim == 0:
            continue
        verdict = is_irreducible(cur, rng)
        if verdict.irreducible:
            out.append(cur)
            if until_classes is not None:
                _class_of(cur, out.reps)
            continue
        sub, quot = sub_quotient(cur, verdict.witness)
        stack.append(quot)
        stack.append(sub)
    return out


def modules_isomorphic(v: Module, w: Module, seed: SeedLike = 0) -> bool:
    """Iso test: True only with an invertible hom, False only with a certificate.

    Tries each hom basis element first (one is invertible when v ~ w is
    indecomposable: its End is local, so the non-invertible maps form a
    proper subspace), then 8 random combinations; an invertible one proves
    True, so the draws never decide False.  False is certified by unequal
    dims, by dim Hom <= 1 (every hom is a multiple of one map; nothing is
    drawn) or, once the draws fail, by dim End(v) or dim End(w) differing
    from dim Hom(v, w), as isomorphic modules give equality.  Otherwise
    NoConvergence: isomorphism undecided.
    """
    if v.algebra != w.algebra:
        raise AlgebraMismatch("modules over different algebras")
    if v.dim != w.dim:
        return False
    if v.dim == 0:
        return True
    homs = hom_space(v, w)
    d = v.dim
    for h in homs:
        if h.mat.rank() == d:
            return True
    if len(homs) <= 1:
        return False
    rng = _rng(seed)
    k = v.algebra.field
    for _ in range(8):
        combo = np.zeros((d, d), dtype=k.dtype)
        for h in homs:
            c = int(rng.integers(0, k.order))
            if c:
                combo = _add_arr(k, combo, k.MUL[c][h.mat.a])
        if Mat(k, combo).rank() == d:
            return True
    if hom_dim(v, v) != len(homs) or hom_dim(w, w) != len(homs):
        return False
    raise NoConvergence(
        f"isomorphism undecided: dim End = dim Hom = {len(homs)}, no invertible hom drawn"
    )


def _simples_isomorphic(s: Module, t: Module) -> bool:
    """Schur's lemma: a nonzero hom between simples is an isomorphism."""
    return s.dim == t.dim and hom_dim(s, t) > 0


def _class_of(f: Module, reps: list[Module]) -> int:
    """Index of the simple f's iso class among reps, appending f if new."""
    i = next((i for i, r in enumerate(reps) if _simples_isomorphic(f, r)), len(reps))
    if i == len(reps):
        reps.append(f)
    return i


def _iso_classes(factors: Sequence[Module]) -> list[tuple[Module, int]]:
    """Simple modules grouped by isomorphism.

    One (first-found representative, count) per class, in (dim, discovery)
    order.
    """
    reps: list[Module] = []
    counts = [0] * len(factors)
    for f in factors:
        counts[_class_of(f, reps)] += 1
    return sorted(zip(reps, counts), key=lambda c: c[0].dim)


# ------------------------------------------------- composition factors --


def _brauer_multiplicities(a: GroupAlgebra, modules: Sequence[Module]) -> list[list[int]]:
    """m_f(M, g) = dim ker f(rho_M(g)) / deg f: one row per pair (g, f), one column per M.

    g runs over the p-regular class representatives and f over the monic
    irreducible factors of x^o(g) - 1, factored once per element order.
    p does not divide o(g), so rho_M(g) is semisimple and m_f(M, g) is the
    multiplicity of f in its characteristic polynomial; a nullity that
    deg f does not divide proves rho_M is no action (NotInvariant).  A last
    column holds m_f(kG, g) = |G|/o(g): rho_kG(g) has |G|/o(g) o(g)-cycles.
    """
    k = a.field
    classes, _ = conjugacy_data(a.group, k.char)
    factors: dict[int, list[Poly]] = {}
    rows = []
    for c in classes:
        if not c.p_regular:
            continue
        o = a.group.element_order(c.rep)
        if o not in factors:
            factors[o] = [f for f, _ in poly_factor(Poly(k, [k.neg(1)] + [0] * (o - 1) + [1]))]
        mats = [m.element_mat(c.rep).a for m in modules]
        for f in factors[o]:
            row = []
            for m, theta in zip(modules, mats):
                nullity = m.dim - _rref_arr(k, _poly_at_matrix(k, f.coeffs, theta))[1]
                if nullity % f.degree:
                    raise NotInvariant(
                        f"{m!r}: an element of order {o} prime to p is not semisimple"
                    )
                row.append(nullity // f.degree)
            rows.append(row + [a.dim // o])
    return rows


def _nonnegative_integer_solution(v: list[list[int]], e: list[list[int]]) -> list[list[int]]:
    """The unique C with V C = E over Q, certified to be a non-negative integer matrix.

    Gauss-Jordan on [V | E] over the integers: a row update r <- p r - r_c
    pivot_row keeps every entry integral, and dividing the row by the gcd of
    its entries keeps them small.  C[i][j] is then E-entry / pivot of row i.
    A dependent column of V (a simple listed twice), an inconsistent system
    (a simple missing) or a C that is not a non-negative integer matrix (a
    simple missing, or a module listed as simple that is not) raise
    IncompleteSimpleSet.
    """
    n = len(v[0])
    rows = [vr + er for vr, er in zip(v, e)]
    for c in range(n):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if p is None:
            raise IncompleteSimpleSet(
                "the simples' Brauer characters are linearly dependent; a simple is listed twice"
            )
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        for r, row in enumerate(rows):
            if r != c and row[c]:
                row = [pivot[c] * x - row[c] * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                rows[r] = [x // g for x in row] if g else row
    if any(x for row in rows[n:] for x in row[n:]):
        raise IncompleteSimpleSet(
            "a module's Brauer character is no combination of the simples'; a simple is missing"
        )
    out = [[divmod(x, row[c]) for x in row[n:]] for c, row in enumerate(rows[:n])]
    if any(rem or quo < 0 for qs in out for quo, rem in qs):
        raise IncompleteSimpleSet(
            "Brauer multiplicities are not non-negative integers;"
            " a simple is missing or not simple"
        )
    return [[quo for quo, _ in qs] for qs in out]


def factor_multiset(m: Module, simples: Sequence[Module]) -> list[int]:
    """[m : S] for each given simple S, read off Brauer characters; nothing is drawn.

    Characteristic polynomials multiply along a composition series, so
    m(M) = sum_S [M : S] m(S) for the vectors m of _brauer_multiplicities,
    and pairwise non-isomorphic simples have linearly independent ones over
    any field, so the multiplicities are the unique solution, certified
    non-negative integers.  simples must hold every composition factor of m
    (else IncompleteSimpleSet).
    """
    if any(s.algebra != m.algebra for s in simples):
        raise AlgebraMismatch("simples over a different algebra")
    n = len(simples)
    rows = _brauer_multiplicities(m.algebra, [*simples, m])
    solution = _nonnegative_integer_solution([r[:n] for r in rows], [[r[n]] for r in rows])
    return [c for c, in solution]


# ---------------------------------------------------------- Loewy series --


class RightIdeal(Subspace):
    """A right ideal J = sum_i y_i A of kG carried with its generators y_i
    (rows); a plain Subspace is generated by its own basis rows."""

    __slots__ = ("_generators",)

    def __init__(self, space: Subspace, generators: np.ndarray):
        self._set(space.ctx, space.ambient, space.basis, space.pivots())
        self._generators = generators

    @property
    def generators(self) -> np.ndarray:
        return self._generators


@dataclass(frozen=True)
class LoewyLayer:
    dim: int  # dimension of the semisimple layer
    mults: tuple[int, ...]  # multiplicity of each reference simple


@dataclass(frozen=True)
class LoewyData:
    radical_layers: tuple[LoewyLayer, ...]  # descending: head first
    socle_layers: tuple[LoewyLayer, ...]  # ascending: socle first

    @property
    def loewy_length(self) -> int:
        return len(self.radical_layers)

    def layer_dims(self) -> list[int]:
        return [layer.dim for layer in self.radical_layers]


def section_module(m: Module, outer: Subspace, inner: Subspace) -> Module:
    """The subquotient outer/inner of m as a module (inner <= outer <= m)."""
    sub, _ = sub_quotient(m, outer)
    if inner.dim == 0:
        return sub
    # inner in the coordinates of outer's RREF basis
    k = m.algebra.field
    coords = Subspace(k, outer.dim, Mat(k, inner.basis.a[:, outer.pivots()].copy()))
    _, layer = sub_quotient(sub, coords)
    return layer


def _rad_generators(a: GroupAlgebra, rad_a: Subspace) -> np.ndarray:
    """Rows y_i with rad_a = sum_i y_i A (see RightIdeal)."""
    if rad_a.ambient != a.dim:
        raise DimensionMismatch(f"radical in k^{rad_a.ambient}, algebra of dimension {a.dim}")
    return rad_a.generators if isinstance(rad_a, RightIdeal) else rad_a.basis.a


def _descending_chain(k: FieldCtx, start: Subspace, rho: Sequence[np.ndarray]) -> list[Subspace]:
    """[V, VJ, VJ^2, ..., 0] for the rows V = start and J = span(rho) acting on the right,
    one product per rho_j (one with hstack(rho) holds len(rho) times the temporaries)."""
    out = [start]
    while out[-1].dim > 0:
        cur = out[-1]
        rows = [_matmul_arr(k, cur.basis.a, r) for r in rho] or [cur.basis.a[:0]]  # J = 0
        nxt = Subspace(k, start.ambient, Mat(k, np.vstack(rows)))
        out.append(nxt)
        if nxt.dim >= cur.dim:
            raise NoConvergence("chain failed to descend; the ideal is not nilpotent")
    return out


def radical_chain(m: Module, rad_a: Subspace) -> list[Subspace]:
    """Descending chain [U, rad U, rad^2 U, ..., 0], rad U = sum_i y_i U for
    the right-ideal generators y_i of rad A (rad A = sum_i y_i A, AU = U)."""
    k = m.algebra.field
    rho = [m.action_of(AlgebraElem(m.algebra, y)).a.T for y in _rad_generators(m.algebra, rad_a)]
    return _descending_chain(k, Subspace.full(k, m.dim), rho)


def socle_chain(m: Module, rad_a: Subspace) -> list[Subspace]:
    """Ascending chain [0, soc U, soc^2 U, ..., U] as soc^i U = (rad^i U*)^perp.

    The pairing of U* with U is G-invariant, so u is killed by (rad A)^i
    exactly when it is orthogonal to (rad A)^i U*.  The y_i generate rad A
    as a right ideal, so rad U* = sum_i y_i U*, and y acts on U* (rows) by
    rho_U(y^)^T, y^ the image of y under the antipode g -> g^-1: U* itself
    is never built.
    """
    k = m.algebra.field
    ys = _rad_generators(m.algebra, rad_a)[:, m.algebra.group.inv]  # y^[g] = y[g^-1]
    rho = [m.action_of(AlgebraElem(m.algebra, y)).a for y in ys]
    return [
        Subspace(k, m.dim, Mat(k, _nullspace_arr(k, r.basis.a)))
        for r in _descending_chain(k, Subspace.full(k, m.dim), rho)
    ]


def radical_and_socle_series(
    m: Module, rad_a: Subspace, heads: Sequence[AlgebraElem]
) -> LoewyData:
    """Loewy layers of the radical and socle chains, multiplicities by rank.

    heads holds one primitive idempotent f_i per simple S_i (A f_i its
    projective cover) over a splitting field, so Hom_A(A f_i, V) = f_i V
    gives [V : S_i] = dim f_i V.  V -> f_i V is exact, so a layer
    outer/inner holds S_i dim f_i outer - dim f_i inner times.
    """
    k = m.algebra.field
    rads, socs = radical_chain(m, rad_a), socle_chain(m, rad_a)
    wide = np.hstack([m.action_of(f).a.T for f in heads])  # block i is rho_U(f_i)^T

    def layers(chain: list[Subspace]) -> tuple[LoewyLayer, ...]:
        """chain[j] / chain[j + 1] for a descending chain; dim f_i V is the rank of V f_i."""
        blocks = [np.hsplit(_matmul_arr(k, v.basis.a, wide), len(heads)) for v in chain]
        fdims = [np.array([_rref_arr(k, b)[1] for b in bs]) for bs in blocks]
        return tuple(
            LoewyLayer(chain[j].dim - chain[j + 1].dim, tuple((fdims[j] - fdims[j + 1]).tolist()))
            for j in range(len(chain) - 1)
        )

    return LoewyData(layers(rads), layers(socs[::-1])[::-1])


# -------------------------------------------------------- change of group --


def restrict_module(m: Module, h: GroupTable) -> Module:
    """Restriction along H <= G, H sharing the permutation degree."""
    g = m.algebra.group
    if h.degree != g.degree:
        raise NotSubgroup("subgroup must share the permutation degree")
    halg = GroupAlgebra(h, m.algebra.field)
    gens = [m.element_mat(g.index_of(p)) for p in h.generator_perms]
    label = f"({m.label})|H" if m.label else None
    return Module(halg, gens, dim=m.dim, label=label, check="off")


def induce_module(m: Module, g_alg: GroupAlgebra) -> Module:
    """Induction along H <= G: block matrices over the left transversal.

    The transversal x_1..x_n is computed here from H's own generators, and
    g x_i = x_j h with h in H (the guard below rejects any other h) puts
    rho(h) in block (j, i).  That block-monomial formula is multiplicative in
    g whenever rho is an action of H, so for a valid H-module the generator
    matrices extend to G and the result skips the constructor's check.
    """
    h_table = m.algebra.group
    g = g_alg.group
    if m.algebra.field != g_alg.field:
        raise AlgebraMismatch("induction must stay over the same field")
    sub = Subgroup.from_perms(g, list(h_table.generator_perms))
    transversal, _ = cosets_and_quotient(g, sub)
    n = len(transversal)
    d = m.dim
    k = g_alg.field
    member_set = set(sub.members)
    coset_of = {}
    for ci, t in enumerate(transversal):
        for s in sub.members:
            coset_of[int(g.mult[t, s])] = ci
    gens = []
    for gi in g.generators:
        big = np.zeros((n * d, n * d), dtype=k.dtype)
        for i, xi in enumerate(transversal):
            y = int(g.mult[gi, xi])
            j = coset_of[y]
            hidx = int(g.mult[g.inv[transversal[j]], y])
            if hidx not in member_set:
                raise NotSubgroup("transversal bookkeeping escaped the subgroup")
            hmat = m.element_mat(h_table.index_of(g.elements[hidx]))
            big[j * d : (j + 1) * d, i * d : (i + 1) * d] = hmat.a
        gens.append(Mat(k, big))
    label = f"({m.label})^G" if m.label else None
    return Module(g_alg, gens, dim=n * d, label=label, check="off")


def inflate_module(m: Module, g_alg: GroupAlgebra, qmap: Optional[QuotientMap]) -> Module:
    """Inflation along a recorded projection G -> G/N.

    QuotientMap is a public dataclass, so its projection may come from
    outside cosets_and_quotient and need not be a homomorphism; the result
    keeps the constructor's check.
    """
    if qmap is None:
        raise NoQuotientRecorded("inflation needs the quotient's projection map")
    if qmap.quotient is not m.algebra.group:
        raise AlgebraMismatch("module is not over the recorded quotient group")
    if qmap.source is not g_alg.group:
        raise AlgebraMismatch("target algebra is not over the projection's source")
    gens = [m.element_mat(qmap.projection[gi]) for gi in g_alg.group.generators]
    label = f"Inf({m.label})" if m.label else None
    return Module(g_alg, gens, dim=m.dim, label=label)


def dual_module(m: Module) -> Module:
    """Contragredient: g acts by the inverse-transpose."""
    gens = [g.inverse().T for g in m.gen_action]
    label = f"({m.label})*" if m.label else None
    return Module(m.algebra, gens, dim=m.dim, label=label, check="off")


def direct_sum(ms: Sequence[Module]) -> Module:
    if not ms:
        raise DimensionMismatch("direct sum of no modules")
    a = ms[0].algebra
    for m in ms:
        if m.algebra != a:
            raise AlgebraMismatch("summands over different algebras")
    k = a.field
    total = sum(m.dim for m in ms)
    gens = []
    for gi in range(len(a.group.generators)):
        big = np.zeros((total, total), dtype=k.dtype)
        off = 0
        for m in ms:
            big[off : off + m.dim, off : off + m.dim] = m.gen_action[gi].a
            off += m.dim
        gens.append(Mat(k, big))
    return Module(a, gens, dim=total, check="off")
