"""Finite permutation groups: generation, classes, cosets, quotients, p-core.

Points are 0-based internally and 1-based in all I/O (cycle notation).
Element order inside a GroupTable is deterministic BFS so that every
downstream basis, idempotent and report is byte-stable across runs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DegreeMismatch,
    GroupTooLarge,
    InvalidGroupSpec,
    NotSubgroup,
    UnknownGroup,
)

GROUP_ORDER_GUARD = 10000


class Perm:
    """A permutation of {0..n-1} stored as its image array."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(len(images))):
            raise DegreeMismatch(f"not a bijection: {images}")
        self.images = images

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Perm":
        """A Perm from an image tuple known to be a bijection, unchecked."""
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition: (a*b)(x) = a(b(x)), i.e. b acts first."""
        if self.degree != other.degree:
            raise DegreeMismatch("composing permutations of different degree")
        return Perm(tuple(self.images[other.images[x]] for x in range(self.degree)))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(inv)

    def order(self) -> int:
        n = 1
        for c in self.cycles(all_points=True):
            n = n * len(c) // gcd(n, len(c))
        return n

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self, all_points: bool = False) -> list[tuple[int, ...]]:
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            if len(cyc) > 1 or all_points:
                out.append(tuple(cyc))
        return out

    def cycle_str(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cyc)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm{self.cycle_str()}"


_CYCLE_RE = re.compile(r"\(\s*([0-9,\s]*)\)")


def parse_cycles(text: str, degree: Optional[int] = None) -> Perm:
    """Parse one-line cycle notation, e.g. "(1,2,3)(4,5)".

    Cycles need not be disjoint and are applied left-to-right.  Whitespace is
    ignored; "()" is the identity.  Points are 1-based.
    """
    if not re.fullmatch(r"(\s*\(\s*[0-9,\s]*\s*\))+\s*", text):
        raise DegreeMismatch(f"cannot parse cycle notation: {text!r}")
    cycles = []
    maxpoint = 0
    for m in _CYCLE_RE.finditer(text):
        body = m.group(1).strip()
        if not body:
            continue
        pts = [int(t) for t in body.split(",") if t.strip()]
        if len(set(pts)) != len(pts) or any(p < 1 for p in pts):
            raise DegreeMismatch(f"bad cycle {m.group(0)}")
        cycles.append([p - 1 for p in pts])
        maxpoint = max(maxpoint, max(pts))
    n = degree if degree is not None else maxpoint
    if n < maxpoint:
        raise DegreeMismatch(f"cycle uses point beyond degree {degree}")
    images = list(range(n))
    for cyc in cycles:  # applied left-to-right
        nxt = list(images)
        for i, p in enumerate(cyc):
            q = cyc[(i + 1) % len(cyc)]
            for x in range(n):
                if images[x] == p:
                    nxt[x] = q
        images = nxt
    return Perm(images)


class GroupTable:
    """A finite permutation group with full multiplication table.

    elements[0] is the identity; the rest follow deterministic BFS order by
    generator application, ties broken by image-array lexicographic order.
    Immutable after generation; all queries are pure.

    The table is built from the generators, not from |G|^2 products.  For
    each generator g, the products x * g and g * x over all elements x are
    one fancy-index of the stacked image arrays plus an index lookup per
    element.  The BFS parents come from the columns x * g: element a is
    parent(a) * g, so row a of the table is a * j = parent(a) * (g * j), one
    gather of row parent(a), filled in BFS order.  inv[a] is where row a
    hits the identity.  Since any caller may build a table, the element list
    is checked to be the group the generators generate: elements[0] must be
    the identity, no element may repeat, every x * g must lie in the list
    and the generators must reach every element, else InvalidGroupSpec is
    raised.
    """

    def __init__(self, elements: list[Perm], generators: list[Perm]):
        self.elements = tuple(elements)
        self.degree = elements[0].degree
        self.index = {p.images: i for i, p in enumerate(elements)}
        n = len(elements)
        if any(p.degree != self.degree for p in (*elements, *generators)):
            raise DegreeMismatch("group elements and generators act on different degrees")
        if not elements[0].is_identity() or len(self.index) != n:
            raise InvalidGroupSpec("elements[0] must be the identity and no element may repeat")
        images = np.array([p.images for p in elements], dtype=np.intp).reshape(n, self.degree)

        def indices(products: np.ndarray) -> list[Optional[int]]:
            return [self.index.get(row) for row in map(tuple, products.tolist())]

        gcols = []  # gcols[gi][x] = index of x * generators[gi]
        for g in generators:
            gcols.append(indices(images[:, g.images]))
            if None in gcols[-1]:
                raise InvalidGroupSpec(f"a product x * {g} leaves the element set")
        self.generators = tuple(col[0] for col in gcols)
        self.generator_perms = tuple(generators)
        # BFS parents: element i = parent * generator (identity is its own root)
        self.parents: list[tuple[int, int]] = [(-1, -1)] * n
        seen = [True] + [False] * (n - 1)
        order = [0]
        for x in order:
            for gi, col in enumerate(gcols):
                y = col[x]
                if not seen[y]:
                    seen[y] = True
                    self.parents[y] = (x, gi)
                    order.append(y)
        if len(order) != n:
            raise InvalidGroupSpec(f"the generators reach {len(order)} of the {n} elements")
        # the list is now the group, so every g * x is found: grows[gi][j] = g * j
        grows = [np.array(indices(np.array(g.images)[images]), dtype=np.int32) for g in generators]
        mult = np.empty((n, n), dtype=np.int32)
        mult[0] = np.arange(n, dtype=np.int32)
        for a in order[1:]:
            x, gi = self.parents[a]
            np.take(mult[x], grows[gi], out=mult[a])
        self.mult = mult
        self.inv = mult.argmin(axis=1).astype(np.int32)
        self._orders: Optional[tuple[int, ...]] = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_order(self, i: int) -> int:
        if self._orders is None:
            self._orders = tuple(p.order() for p in self.elements)
        return self._orders[i]

    def mul(self, i: int, j: int) -> int:
        return int(self.mult[i, j])

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return int(self.mult[self.mult[g, x], self.inv[g]])

    def index_of(self, perm: Perm) -> int:
        try:
            return self.index[perm.images]
        except KeyError:
            raise NotSubgroup(f"{perm} is not an element of this group") from None

    def __contains__(self, perm: Perm) -> bool:
        return isinstance(perm, Perm) and perm.images in self.index

    def __repr__(self) -> str:
        return f"GroupTable(order {self.order}, degree {self.degree})"


def group_generate(gens: Sequence[Perm], degree: Optional[int] = None) -> GroupTable:
    """Close a generator list into a full GroupTable (BFS, deterministic)."""
    if not gens:
        if degree is None:
            degree = 1
        return GroupTable([Perm.identity(degree)], [])
    degrees = {g.degree for g in gens}
    if degree is not None:
        degrees.add(degree)
    if len(degrees) != 1:
        raise DegreeMismatch(f"generators act on different degrees: {sorted(degrees)}")
    deg = degrees.pop()
    moves = np.array([g.images for g in gens], dtype=np.intp)
    elements = [Perm.identity(deg)]
    seen = {elements[0].images}
    frontier = np.arange(deg, dtype=np.intp)[None, :]
    while frontier.size:
        # x * g maps i to x(g(i)): one gather of the frontier's image arrays by
        # every generator's, rows sorted so that each level is in image order
        level = frontier[:, moves].reshape(-1, deg)
        new = []
        for row in map(tuple, level[np.lexsort(level.T[::-1])].tolist()):
            if row not in seen:
                seen.add(row)
                new.append(row)
        elements.extend(map(Perm._trusted, new))  # products of bijections
        if len(elements) > GROUP_ORDER_GUARD:
            raise GroupTooLarge(f"group order exceeds guard {GROUP_ORDER_GUARD}")
        frontier = np.array(new, dtype=np.intp).reshape(-1, deg)
    return GroupTable(elements, list(gens))


@dataclass(frozen=True)
class ConjClass:
    rep: int
    members: tuple[int, ...]
    p_regular: bool


def conjugacy_data(g: GroupTable, p: int) -> tuple[list[ConjClass], int]:
    """Conjugacy classes and the p-regular class count.

    The class of x is {g x g^-1 : g in G}, one gather from the table; the
    first unassigned index is the least member of its class.
    """
    assigned = np.zeros(g.order, dtype=bool)
    classes = []
    for i in range(g.order):
        if assigned[i]:
            continue
        orbit = np.zeros(g.order, dtype=bool)
        orbit[g.mult[g.mult[:, i], g.inv]] = True
        assigned |= orbit
        classes.append(
            ConjClass(
                rep=i,
                members=tuple(int(x) for x in np.flatnonzero(orbit)),
                p_regular=g.element_order(i) % p != 0,
            )
        )
    return classes, sum(1 for c in classes if c.p_regular)


class Subgroup:
    """A subgroup of a GroupTable given by its sorted member index set."""

    def __init__(self, parent: GroupTable, members: Iterable[int]):
        members = tuple(sorted(set(int(m) for m in members)))
        if 0 not in members:
            raise NotSubgroup("subgroup must contain the identity")
        self.parent = parent
        self.members = members
        self._is_member = np.zeros(parent.order, dtype=bool)
        self._is_member[list(members)] = True
        if not self._is_member[parent.mult[np.ix_(members, members)]].all():
            raise NotSubgroup("member set is not closed under multiplication")

    @classmethod
    def from_perms(cls, parent: GroupTable, perms: Sequence[Perm]) -> "Subgroup":
        return cls(parent, _closure(parent, [parent.index_of(p) for p in perms]))

    @classmethod
    def whole(cls, parent: GroupTable) -> "Subgroup":
        return cls(parent, range(parent.order))

    @classmethod
    def trivial(cls, parent: GroupTable) -> "Subgroup":
        return cls(parent, [0])

    @property
    def order(self) -> int:
        return len(self.members)

    def is_normal(self) -> bool:
        """Whether g m g^-1 is a member for every g in G and m in H."""
        mult, inv = self.parent.mult, self.parent.inv
        return bool(self._is_member[mult[mult[:, list(self.members)], inv[:, None]]].all())

    def __repr__(self) -> str:
        return f"Subgroup(order {self.order} of {self.parent!r})"


def _closure(parent: GroupTable, seed: Iterable[int]) -> set[int]:
    idxs = {0} | set(seed)
    frontier = list(idxs)
    while frontier:
        new = []
        for a in list(idxs):
            for b in frontier:
                c = int(parent.mult[a, b])
                if c not in idxs:
                    idxs.add(c)
                    new.append(c)
        frontier = new
    return idxs


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def sylow_subgroup(g: GroupTable, p: int) -> Subgroup:
    """One Sylow p-subgroup by greedy closure over p-elements."""
    p_elems = [i for i in range(1, g.order) if _is_p_power(g.element_order(i), p)]
    current: set[int] = {0}
    changed = True
    while changed:
        changed = False
        for x in p_elems:
            if x in current:
                continue
            cand = _closure(g, current | {x})
            if _is_p_power(len(cand), p):
                current = cand
                changed = True
    return Subgroup(g, current)


def normal_p_core(g: GroupTable, p: int) -> Subgroup:
    """O_p(G): intersection of all conjugates of one Sylow p-subgroup."""
    syl = sylow_subgroup(g, p)
    core = set(syl.members)
    for h in range(g.order):
        conj = {g.conjugate(h, x) for x in syl.members}
        core &= conj
        if len(core) == 1:
            break
    return Subgroup(g, core)


@dataclass(frozen=True)
class QuotientMap:
    """A quotient G/N realized as a permutation group on the cosets."""

    source: GroupTable
    quotient: GroupTable
    projection: tuple[int, ...]  # source element index -> quotient element index


def cosets_and_quotient(
    g: GroupTable, n: Subgroup
) -> tuple[list[int], Optional[QuotientMap]]:
    """Left-coset transversal (least element index per coset) and, when n is
    normal, the quotient acting on the cosets with its projection recorded."""
    if n.parent is not g:
        raise NotSubgroup("subgroup belongs to a different group table")
    order = g.order
    coset_of = [-1] * order
    transversal = []
    for i in range(order):
        if coset_of[i] != -1:
            continue
        transversal.append(i)
        ci = len(transversal) - 1
        for m in n.members:
            coset_of[int(g.mult[i, m])] = ci
    if not n.is_normal():
        return transversal, None
    ncosets = len(transversal)
    # left multiplication action of g on cosets
    def coset_perm(gi: int) -> Perm:
        return Perm(tuple(coset_of[int(g.mult[gi, t])] for t in transversal))

    gen_perms = [coset_perm(gi) for gi in g.generators]
    quotient = group_generate([p for p in gen_perms if not p.is_identity()] or [], ncosets)
    projection = tuple(quotient.index_of(coset_perm(i)) for i in range(order))
    return transversal, QuotientMap(source=g, quotient=quotient, projection=projection)


_BUILTIN_GENS = {
    "C2": ["(1,2)"],
    "C3": ["(1,2,3)"],
    "C4": ["(1,2,3,4)"],
    "C5": ["(1,2,3,4,5)"],
    "V4": ["(1,2)(3,4)", "(1,3)(2,4)"],
    "S3": ["(1,2,3)", "(1,2)"],
    "S4": ["(1,2,3,4)", "(1,2)"],
    # A4 embedded in degree 5 as the stabilizer of point 5, so A4 <= A5
    "A4": ["(1,2,3)", "(1,2)(3,4)"],
    "A5": ["(1,2,3,4,5)", "(1,2,3)"],
}
_BUILTIN_DEGREE = {"A4": 5}


def builtin(name: str) -> GroupTable:
    """Named groups with fixed conventional generators."""
    if name not in _BUILTIN_GENS:
        raise UnknownGroup(f"unknown builtin group {name!r} (have {sorted(_BUILTIN_GENS)})")
    degree = _BUILTIN_DEGREE.get(name)
    if degree is None:
        degree = max(parse_cycles(s).degree for s in _BUILTIN_GENS[name])
    gens = [parse_cycles(s, degree) for s in _BUILTIN_GENS[name]]
    return group_generate(gens, degree)


def group_from_json(text_or_obj) -> GroupTable:
    """Group spec JSON: {"degree": 5, "generators": ["(1,2,3,4,5)", "(1,2,3)"]}."""
    obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
    if not isinstance(obj, dict):
        raise InvalidGroupSpec(f"group spec must be a JSON object, got {type(obj).__name__}")
    degree = obj.get("degree")
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
        raise InvalidGroupSpec(f'"degree" must be a positive integer, got {degree!r}')
    texts = obj.get("generators", [])
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise InvalidGroupSpec(f'"generators" must be a list of cycle strings, got {texts!r}')
    gens = [parse_cycles(t, degree) for t in texts]
    return group_generate(gens, degree)


def group_to_json(g: GroupTable) -> dict:
    return {
        "degree": g.degree,
        "generators": [p.cycle_str() for p in g.generator_perms],
    }
