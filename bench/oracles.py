"""Correctness oracles that do not trust the program's own certificates.

The group is rebuilt from its generator strings here, without
``modrep.permgroup``: elements, conjugacy classes, element orders and
centralizer orders all come from plain permutation tuples.  From them:

* the number of simples equals the number of p-regular classes;
* det C equals the product of |C_G(x)|_p over p-regular class
  representatives x (Brauer);
* the block partition equals the partition of the simples by central
  character lambda_S(K), the scalar by which the class sum K acts on S;
* sum dim S * dim P = |G| and C is symmetric;
* the sorted simple dimensions equal the published Brauer degrees.

Only the stdlib and numpy are used.  Field elements are modrep's encodings
(base-p digits of the coefficient vector, low digit first); the only field
operation needed is addition, which is digitwise mod p.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

Perm = tuple[int, ...]  # images of 0..n-1


def parse_cycles(text: str, degree: int) -> Perm:
    """Cycle notation with 1-based points, e.g. "(1,2,3)(4,5)"."""
    images = list(range(degree))
    for body in re.findall(r"\(([^()]*)\)", text):
        pts = [int(t) - 1 for t in body.split(",") if t.strip()]
        current = list(images)
        for i, p in enumerate(pts):
            # cycles apply left to right: a point already sent to p goes on to q
            q = pts[(i + 1) % len(pts)]
            for x in range(degree):
                if images[x] == p:
                    current[x] = q
        images = current
    return tuple(images)


def _compose(a: Perm, b: Perm) -> Perm:
    return tuple(a[b[x]] for x in range(len(a)))


def _inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def _order(a: Perm) -> int:
    ident = tuple(range(len(a)))
    n, cur = 1, a
    while cur != ident:
        cur = _compose(cur, a)
        n += 1
    return n


@dataclass(frozen=True)
class GroupFacts:
    elements: list[Perm]
    classes: list[list[Perm]]  # each class sorted, first member is the rep

    @property
    def order(self) -> int:
        return len(self.elements)

    def p_regular_classes(self, p: int) -> list[list[Perm]]:
        return [c for c in self.classes if _order(c[0]) % p]

    def centralizer_order(self, cls: Sequence[Perm]) -> int:
        return self.order // len(cls)


def group_facts(generators: Sequence[str], degree: int) -> GroupFacts:
    gens = [parse_cycles(g, degree) for g in generators]
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = _compose(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    classes = []
    assigned: set[Perm] = set()
    for x in sorted(seen):
        if x in assigned:
            continue
        orbit = {x}
        todo = [x]
        while todo:
            y = todo.pop()
            for g in gens:
                z = _compose(_compose(g, y), _inverse(g))
                if z not in orbit:
                    orbit.add(z)
                    todo.append(z)
        assigned |= orbit
        classes.append(sorted(orbit))
    return GroupFacts(sorted(seen), classes)


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def brauer_det(facts: GroupFacts, p: int) -> int:
    """prod |C_G(x)|_p over p-regular class representatives x."""
    out = 1
    for cls in facts.p_regular_classes(p):
        out *= p_part(facts.centralizer_order(cls), p)
    return out


def int_det(m: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    a = [list(map(int, row)) for row in m]
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def field_sum(mats: Sequence[np.ndarray], p: int, k: int) -> np.ndarray:
    """Sum of GF(p^k) matrices given in modrep's digit encoding."""
    stack = np.stack([np.asarray(m, dtype=np.int64) for m in mats])
    out = np.zeros(stack.shape[1:], dtype=np.int64)
    for j in range(k):
        digit = (stack // p**j) % p
        out += (digit.sum(axis=0) % p) * p**j
    return out


@dataclass
class AnalysisFacts:
    """What the oracles read from one analysis; tests corrupt copies of it."""

    report: dict  # StructureReport.to_obj()
    simple_mats: list[dict[Perm, np.ndarray]]  # per simple: element -> matrix
    char: int
    field_degree: int
    same_group: bool  # the program's group has exactly the oracle's elements


def analysis_facts(analysis, facts: GroupFacts) -> AnalysisFacts:
    group = analysis.algebra.group
    index = {tuple(p.images): i for i, p in enumerate(group.elements)}
    same = set(index) == set(facts.elements)
    mats = []
    for m in analysis.simples.simples:
        mats.append({g: np.asarray(m.element_mat(index[g]).a) for g in facts.elements} if same else {})
    field = analysis.algebra.field
    return AnalysisFacts(analysis.report.to_obj(), mats, field.char, field.degree, same)


def central_character(mats: dict[Perm, np.ndarray], facts: GroupFacts, p: int, k: int):
    """lambda_S(K) per class K, or None when some class sum is not scalar."""
    out = []
    for cls in facts.classes:
        if any(g not in mats for g in cls):
            return None
        total = field_sum([mats[g] for g in cls], p, k)
        lam = int(total[0, 0])
        if not np.array_equal(total, lam * np.eye(total.shape[0], dtype=np.int64)):
            return None
        out.append(lam)
    return tuple(out)


def check_analysis(
    af: AnalysisFacts, facts: GroupFacts, brauer_degrees: Sequence[int]
) -> list[str]:
    """Every mismatch between the analysis and the oracles; [] when all agree."""
    rep = af.report
    p = af.char
    problems: list[str] = []
    if not af.same_group:
        problems.append("the program's group has other elements than the generators give")
    failed = [c["name"] for c in rep["certificates"] if c["status"] != "pass"]
    if failed:
        problems.append(f"program certificates failed: {failed}")

    simples = rep["simples"]
    n = len(simples)
    n_reg = len(facts.p_regular_classes(p))
    if n != n_reg:
        problems.append(f"simple count: {n} simples, {n_reg} p-regular classes")

    dims = sorted(s["dim"] for s in simples)
    if dims != sorted(brauer_degrees):
        problems.append(f"simple dims {dims} != Brauer degrees {sorted(brauer_degrees)}")

    cartan = rep["cartan"]
    if cartan is None or len(cartan) != n or any(len(r) != n for r in cartan):
        problems.append(f"cartan matrix missing or not {n}x{n}")
        return problems
    if any(cartan[i][j] != cartan[j][i] for i in range(n) for j in range(n)):
        problems.append("cartan matrix not symmetric")
    det, want = int_det(cartan), brauer_det(facts, p)
    if det != want:
        problems.append(f"det C = {det}, Brauer product of |C_G(x)|_p = {want}")

    pims = rep["pims"]
    total = sum(s["dim"] * pims[i]["dim"] for i, s in enumerate(simples)) if len(pims) == n else None
    if total != facts.order:
        problems.append(f"sum dim S * dim P = {total}, |G| = {facts.order}")

    labels = [s["label"] for s in simples]
    chars = [central_character(m, facts, p, af.field_degree) for m in af.simple_mats]
    if len(chars) != n or any(c is None for c in chars):
        problems.append("a class sum does not act on a simple as a scalar")
        return problems
    by_char: dict[tuple, set] = {}
    for label, c in zip(labels, chars):
        by_char.setdefault(c, set()).add(label)
    want_parts = sorted(sorted(s) for s in by_char.values())
    blocks = rep["blocks"]
    got_parts = sorted(sorted(part) for part in blocks["parts"]) if blocks else None
    if got_parts != want_parts:
        problems.append(f"blocks {got_parts} != central-character partition {want_parts}")
    return problems


def check_suite_result(result) -> list[str]:
    """A CheckResult from run_paper_suite / run_property_suite must pass."""
    return [] if result.passed else [f"{result.name}: {result.detail}"]
