"""Block decomposition of kG.

Blocks are the connected components of the graph on simples whose edges are
the nonzero Cartan entries; each block idempotent is the sum of the
primitive idempotents whose PIMs live in the block.  Centrality is checked
directly.  Primitivity in the center is certified by central characters:
over a splitting field each class sum K acts on a simple S as a scalar
omega_S(K), z -> (omega_S(z))_S embeds Z/J(Z) in k^n (J(Z) = Z ∩ J(kG)),
and idempotents lift uniquely modulo J(Z), so a block idempotent is
primitive in Z(kG) iff the simples of its part share one omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    IncompleteSimpleSet,
    NonCentralSum,
    NoSuitableRoot,
    NotCyclic,
    OrderDivisibleByP,
    SplittingFieldRequired,
)
from .fieldcore import FieldCtx
from .linalg import Mat, Subspace
from .modalg import AlgebraElem, GroupAlgebra, Module, sub_quotient
from .permgroup import ConjClass, Subgroup, conjugacy_data
from .structure import CartanMatrix, PimSet, _orthogonal_idempotents


@dataclass
class BlockPartition:
    parts: list[list[int]]  # sorted simple-index sets
    block_idempotents: list[AlgebraElem]
    principal_index: int
    primitivity_verified: list[bool]  # part is exactly one central-character class

    @property
    def count(self) -> int:
        return len(self.parts)

    def block_of_simple(self, i: int) -> int:
        return next(b for b, part in enumerate(self.parts) if i in part)


def _central_character(s: Module, classes: Sequence[ConjClass]) -> tuple[int, ...]:
    """omega_S(K) for each class sum K, which must act on S as a scalar."""
    a = s.algebra
    one = Mat.identity(a.field, s.dim)
    out = []
    for c in classes:
        act = s.action_of(a.from_coeffs((g, 1) for g in c.members))
        lam = int(act.a[0, 0])
        if act != one.scale(lam):
            raise SplittingFieldRequired(
                f"class sum of {c.rep} is not scalar on {s.label or 'a simple'}; "
                "central characters need an absolutely simple module"
            )
        out.append(lam)
    return tuple(out)


def _central_idempotent_strictly_under(
    omegas: Sequence[tuple[int, ...]], part: Sequence[int]
) -> Optional[list[int]]:
    """Simples of a central idempotent z with z e = z, z != 0, z != e, or None.

    e is the block idempotent acting as 1 exactly on the simples of part;
    the simples of part sharing the first one's omega carry such a z iff
    they are not all of part.
    """
    under = [i for i in part if omegas[i] == omegas[part[0]]]
    return under if len(under) < len(part) else None


def block_partition(
    c: CartanMatrix, pims: PimSet, simples: Sequence[Module], trivial_index: int
) -> BlockPartition:
    """Linkage components, block idempotents, and the principal block.

    simples are the simple modules in index order; their central characters
    certify that each block idempotent is primitive in the center.
    """
    n = len(c.entries)
    if not c.is_symmetric():
        raise NonCentralSum("Cartan matrix must be verified symmetric first")
    if len(simples) != n:
        raise IncompleteSimpleSet(f"{len(simples)} simples for a {n}x{n} Cartan matrix")
    # connected components via union-find
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(n):
            if c.entries[i][j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    parts = sorted((sorted(g) for g in groups.values()), key=lambda p: p[0])

    a = pims.idempotents[0].algebra
    idems = []
    for part in parts:
        e = a.zero()
        for j, si in enumerate(pims.assignment):
            if si in part:
                e = e + pims.idempotents[j]
        idems.append(e)
    for e in idems:
        if not e.is_central():
            raise NonCentralSum("linkage sum fails to commute with a generator")
    if not _orthogonal_idempotents(a, idems):
        raise NonCentralSum("block idempotents are not orthogonal idempotents summing to 1")

    classes, _ = conjugacy_data(a.group, a.field.char)
    omegas = [_central_character(m, classes) for m in simples]
    verified = []
    for part in parts:
        own = omegas[part[0]]
        outside = any(omegas[i] == own for i in range(n) if i not in part)
        verified.append(_central_idempotent_strictly_under(omegas, part) is None and not outside)

    principal = next(b for b, part in enumerate(parts) if trivial_index in part)
    return BlockPartition(parts, idems, principal, verified)


@dataclass
class CyclicCharTable:
    """Characters of a cyclic p'-group valued in the field via a chosen root.

    Row i is chi_i on (1, g, g^2, ...), with chi_i(g) = root^(1-i); this
    enumeration makes the derived idempotent e_i carry coefficient
    root^((i-1)j) on g^j.
    """

    order: int
    root: int  # field encoding, multiplicative order = group order
    values: list[list[int]]

    def is_orthogonal(self, k: FieldCtx) -> bool:
        m = self.order
        mm = k.scalar_from_int(m)
        for a_ in range(m):
            for b in range(m):
                acc = 0
                for j in range(m):
                    acc = k.add(
                        acc, k.mul(self.values[a_][j], self.values[b][(-j) % m])
                    )
                want = mm if a_ == b else 0
                if acc != want:
                    return False
        return True


def _least_root_of_order(k: FieldCtx, m: int) -> int:
    if m == 1:
        return 1
    for v in range(2, k.order):
        if k.element_order(v) == m:
            return v
    raise NoSuitableRoot(f"no field element of multiplicative order {m} in {k!r}")


def cyclic_char_table(k: FieldCtx, m: int) -> CyclicCharTable:
    if m % k.char == 0:
        raise OrderDivisibleByP(f"order {m} divisible by the characteristic {k.char}")
    root = _least_root_of_order(k, m)
    values = [[k.pow(root, (-(i) * j) % m if m > 1 else 0) for j in range(m)] for i in range(m)]
    table = CyclicCharTable(order=m, root=root, values=values)
    if not table.is_orthogonal(k):
        raise NoSuitableRoot("character rows fail the orthogonality pairing")
    return table


def cyclic_idempotents(a: GroupAlgebra, k_sub: Subgroup) -> list[AlgebraElem]:
    """The character-formula idempotents of a cyclic p'-subgroup.

    e_i = (1/m) sum_j chi_i(g^-j) g^j, with the complex root of unity
    replaced by the least-indexed field element of exact order m.  The
    returned elements are orthogonal idempotents summing to the identity of
    the span of the subgroup.
    """
    if k_sub.parent is not a.group:
        raise NotCyclic("subgroup belongs to a different group table")
    m = k_sub.order
    g = a.group
    gen = next(
        (i for i in k_sub.members if g.element_order(i) == m),
        None,
    )
    if gen is None:
        raise NotCyclic(f"subgroup of order {m} has no element of that order")
    k = a.field
    table = cyclic_char_table(k, m)
    inv_m = k.inv(k.scalar_from_int(m))
    out = []
    for i in range(m):
        coeff_pairs = []
        idx = 0  # g^0
        for j in range(m):
            # coefficient of g^j: (1/m) chi_i(g^-j) = (1/m) root^((i)j)
            coeff_pairs.append((idx, k.mul(inv_m, k.pow(table.root, (i * j) % m))))
            idx = g.mul(idx, gen)
        out.append(a.from_coeffs(coeff_pairs))
    return out


@dataclass
class BlockAssignment:
    """Either the unique block index, or the split across blocks."""

    block_index: Optional[int]
    pieces: list[tuple[int, Module]]  # (block index, e_B.M) for nonzero pieces

    @property
    def decomposable(self) -> bool:
        return self.block_index is None


def module_block_assignment(m: Module, bp: BlockPartition) -> BlockAssignment:
    """Compute e_B.M per block; indecomposables land in exactly one block."""
    k = m.algebra.field
    pieces = []
    full_blocks = []
    for b, e in enumerate(bp.block_idempotents):
        act = m.action_of(e)
        image = Subspace(k, m.dim, Mat(k, act.a.T.copy()))
        if image.dim == 0:
            continue
        if image.dim == m.dim:
            full_blocks.append(b)
        sub, _ = sub_quotient(m, image)
        pieces.append((b, sub))
    if len(pieces) == 1 and full_blocks:
        return BlockAssignment(block_index=pieces[0][0], pieces=pieces)
    return BlockAssignment(block_index=None, pieces=pieces)
