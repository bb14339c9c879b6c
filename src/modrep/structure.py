"""The algebra-level structure pipeline.

Stages, each consuming the certified output of the one before:
simples (a chop of the regular module that stops once every class has
appeared, classes told apart by Schur's lemma, count certified against the
k-class count), Jacobson radical
(kernel of the Wedderburn map phi: x -> (rho_S(x))_S, i.e. the annihilator
of the simples), primitive orthogonal idempotents (split the identity in
A/rad by one solve of phi(x) = E_jj, lift, re-orthogonalize), PIMs (one
spun left ideal per simple, acting through kG's multiplication table),
Cartan matrix (computed twice, by the ranks of the idempotents on the PIMs
and by solving for the PIMs' Brauer characters in the simples' with
modalg's composition-factor solve, and compared entrywise; its Brauer
route also proves no simple is missing).
Only find_simples draws random numbers: its chop is the only one left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ChopInstability,
    IncompleteSimpleSet,
    MethodDisagreement,
    NoConvergence,
    NotIdempotentModRad,
    SplittingFieldRequired,
)
from .linalg import Mat, Subspace, _matmul_arr, _nullspace_arr, solve
from .modalg import (
    AlgebraElem,
    GroupAlgebra,
    LoewyData,
    Module,
    RightIdeal,
    SeedLike,
    _brauer_multiplicities,
    _descending_chain,
    _LeftIdealModule,
    _nonnegative_integer_solution,
    _rad_generators,
    _simples_isomorphic,
    chop,
    dual_module,
    hom_dim,
    radical_and_socle_series,
    regular_module,
    spin,
)
from .permgroup import conjugacy_data


@dataclass
class SimpleSet:
    """All simple modules up to isomorphism, in (dim, discovery) order."""

    simples: list[Module]
    endo_dims: list[int]
    p_regular_classes: int
    splitting_field_required: bool

    @property
    def splits(self) -> bool:
        return not self.splitting_field_required

    def trivial_index(self) -> int:
        for i, s in enumerate(self.simples):
            if s.dim == 1 and all(g.a[0, 0] == 1 for g in s.gen_action):
                return i
        raise IncompleteSimpleSet("no trivial module among the simples")


def _k_class_count(a: GroupAlgebra) -> int:
    """#simple kG-modules: orbits of g -> g^q, q = |k|, on the p-regular classes (Reiner)."""
    g = a.group
    classes, _ = conjugacy_data(g, a.field.char)
    class_of = np.empty(g.order, dtype=np.intp)
    for i, c in enumerate(classes):
        class_of[list(c.members)] = i
    elems = np.arange(g.order)
    power = elems
    for _ in range(a.field.order - 1):
        power = g.mult[power, elems]  # power[x] = x^q at the end
    seen: set[int] = set()
    count = 0
    for i, c in enumerate(classes):
        if c.p_regular and i not in seen:
            count += 1
            while i not in seen:  # the orbit of c, a cycle of the power map
                seen.add(i)
                i = int(class_of[power[classes[i].rep]])
    return count


def find_simples(a: GroupAlgebra, seed: SeedLike = 0) -> SimpleSet:
    """Chop the regular module and keep one representative per iso class.

    Every simple module is a composition factor of kG (Jordan-Hoelder), and
    there are as many as k-classes, so the chop stops once that many classes
    have appeared; the representatives are the first-found copies, as in the
    full chop.  Any other count raises ChopInstability.
    """
    _, p_reg = conjugacy_data(a.group, a.field.char)
    n = _k_class_count(a)
    found = chop(regular_module(a), seed, until_classes=n).reps
    if len(found) != n:
        raise ChopInstability(f"found {len(found)} simples but {n} k-classes")
    reps = [
        Module(a, r.gen_action, dim=r.dim, label=f"S{i + 1}", check="off")
        for i, r in enumerate(sorted(found, key=lambda r: r.dim))
    ]
    endo = [hom_dim(r, r) for r in reps]
    return SimpleSet(
        simples=reps,
        endo_dims=endo,
        p_regular_classes=p_reg,
        splitting_field_required=any(e != 1 for e in endo),
    )


def _wedderburn_map(a: GroupAlgebra, s: SimpleSet) -> np.ndarray:
    """phi: x -> (rho_S(x))_S as a (sum (dim S)^2) x |G| matrix.

    Column g stacks the row-major flattened action matrices of g on each
    simple, in the order of s.simples.  Its kernel is rad A, and over a
    splitting field it maps A onto the product of the M_{dim S}(k).
    """
    return np.vstack([
        np.stack([m.element_mat(g).a.reshape(-1) for g in range(a.dim)], axis=1)
        for m in s.simples
    ])


def jacobson_radical(a: GroupAlgebra, s: SimpleSet) -> RightIdeal:
    """rad A as the joint annihilator {x : x.S = 0 for every simple S}.

    Certified complete two ways: #simples = the k-class count of a (catches
    a missing class) and dim rad = |G| - sum (dim S)^2 / dim End(S) (the
    Wedderburn count; catches duplicated or bogus entries).  rad carries
    right-ideal generators y_i, rad = sum_i y_i A, for every radical and
    socle chain: rad's RREF rows in order, each kept unless in the y_j A.
    """
    k = a.field
    n = a.dim
    count = _k_class_count(a)
    if len(s.simples) != count:
        raise IncompleteSimpleSet(f"{len(s.simples)} simples but {count} k-classes")
    space = Subspace(k, n, Mat(k, _nullspace_arr(k, _wedderburn_map(a, s))))
    expected = n - sum(
        (m.dim * m.dim) // e for m, e in zip(s.simples, s.endo_dims)
    )
    if any((m.dim * m.dim) % e for m, e in zip(s.simples, s.endo_dims)):
        raise IncompleteSimpleSet("endomorphism dimension does not divide (dim S)^2")
    if space.dim != expected:
        raise IncompleteSimpleSet(
            f"dim rad = {space.dim} but the dimension identity gives {expected}"
        )
    gens, span = [], Subspace.zero(k, n)
    for y in space.basis.a:
        if span.dim == space.dim:
            break
        if span.reduce_rows(y[None, :]).any():
            gens.append(y)
            span, _ = span.extend(np.take(y, a._right_index))
    return RightIdeal(space, np.array(gens, dtype=k.dtype).reshape(-1, n))


def _ideal_nilpotency_index(a: GroupAlgebra, rad: Subspace) -> int:
    """Least m with rad^m = 0 for a two-sided ideal rad = sum_i y_i A.

    Since A rad^(m-1) = rad^(m-1), rad^m = sum_i y_i rad^(m-1), and y x is
    x R_y (see GroupAlgebra.conv), so m is the length of the descending
    chain [rad, rad^2, ..., 0], one product per power.  A power that fails
    to shrink while nonzero proves rad is not nilpotent (NoConvergence).
    """
    rho = [np.take(y, a._right_index) for y in _rad_generators(a, rad)]
    return len(_descending_chain(a.field, rad, rho))


def lift_idempotent(a: GroupAlgebra, e_bar: AlgebraElem, rad: Subspace) -> AlgebraElem:
    """Exact idempotent congruent to e_bar mod rad, by f <- 3f^2 - 2f^3.

    Each step squares the defect f^2 - f inside the nilpotent ideal, and
    rad^(dim rad + 1) = 0, so ceil(log2(dim rad + 1)) + 1 iterations suffice;
    over GF(2) the update degenerates to f <- f^2.
    """
    defect = e_bar * e_bar - e_bar
    if not rad.contains(defect.coeffs):
        raise NotIdempotentModRad("e^2 - e does not lie in the given radical")
    iters = max(1, int(np.ceil(np.log2(rad.dim + 1))) + 1)
    three = a.field.scalar_from_int(3)
    two = a.field.scalar_from_int(2)
    f = e_bar
    f2 = f * f
    for _ in range(iters):
        if f2 == f:
            break
        f = f2.scale(three) - (f2 * f).scale(two)
        f2 = f * f
    if f2 != f:
        raise NoConvergence("lifting iteration did not reach an exact idempotent")
    if not rad.contains((f - e_bar).coeffs):
        raise NoConvergence("lift drifted away from e_bar modulo rad")
    return f


@dataclass
class PimSet:
    """Primitive orthogonal idempotents and one projective cover per simple.

    Every idempotent f assigned to S_i spans a copy A f of the same PIM P_i,
    so only the head idempotent of each simple (its first) is spun.
    """

    idempotents: list[AlgebraElem]
    assignment: list[int]  # idempotent index -> simple index
    pims: list[Module]  # simple index -> P_i = A f_i for its head idempotent f_i

    def pim_for_simple(self, i: int) -> Module:
        return self.pims[i]

    @property
    def heads(self) -> list[AlgebraElem]:
        """One idempotent per simple S_i: f_i with A f_i = P_i, the cover of S_i."""
        return [self.idempotents[self.assignment.index(i)] for i in range(len(self.pims))]

    def multiplicities(self, nsimples: int) -> list[int]:
        out = [0] * nsimples
        for s in self.assignment:
            out[s] += 1
        return out


def _orthogonal_idempotents(a: GroupAlgebra, elems: Sequence[AlgebraElem]) -> bool:
    """Whether elems are pairwise orthogonal idempotents summing to 1.

    One product per f_i: row j of f_i F, F the stack of all elems, is
    f_i f_j, which must be f_i for j = i and zero otherwise.
    """
    k = a.field
    stack = np.array([f.coeffs for f in elems], dtype=k.dtype).reshape(-1, a.dim)
    for i, f in enumerate(elems):
        want = np.zeros_like(stack)
        want[i] = f.coeffs
        if not np.array_equal(a.conv(f.coeffs, stack), want):
            return False
    total = a.zero()
    for f in elems:
        total = total + f
    return total == a.one()


def primitive_decomposition(a: GroupAlgebra, s: SimpleSet, rad: Subspace) -> PimSet:
    """Orthogonal primitive idempotents f_1..f_N with Sum f_i = 1, and the PIMs.

    Splits 1 in A/rad by one solve of phi(x_i) = E_jj, one target per simple
    S and j < dim S (see _wedderburn_map): since phi maps A/rad isomorphically
    onto the product of the M_{dim S}(k), the x_i are primitive orthogonal
    idempotents mod rad summing to 1, and x_i belongs to the simple whose
    block holds its target.  Each x_i is lifted inside the corner
    (1 - sum f_j) A (1 - sum f_j) of the idempotents lifted before it; the
    last idempotent is the exact complement, so the sum is exactly 1.  The
    f_i are certified orthogonal idempotents summing to 1 by
    _orthogonal_idempotents, and one left ideal A f is spun per simple, from
    its head idempotent.  Each PIM is a _LeftIdealModule on the spun RREF
    basis, so every later action matrix is a gather through kG's table.
    """
    if not s.splits:
        raise SplittingFieldRequired(
            "primitive decomposition needs all End(S) = k; extend the field"
        )
    k = a.field
    phi = _wedderburn_map(a, s)
    assignment = [i for i, m in enumerate(s.simples) for _ in range(m.dim)]
    targets = np.zeros((phi.shape[0], len(assignment)), dtype=k.dtype)
    row = col = 0
    for m in s.simples:
        for j in range(m.dim):
            targets[row + j * m.dim + j, col + j] = 1
        row += m.dim * m.dim
        col += m.dim
    sol = solve(Mat(k, phi), Mat(k, targets))
    if sol is None:
        raise IncompleteSimpleSet(
            "phi(x) = E_jj has no solution; the simples are not pairwise non-isomorphic"
        )
    if not np.array_equal(_matmul_arr(k, phi, sol.a), targets):
        raise NoConvergence("split solution does not satisfy phi(x) = E_jj")
    bars = [AlgebraElem(a, x) for x in sol.a.T]

    lifted: list[AlgebraElem] = []
    u = a.one()  # 1 - sum of the idempotents lifted so far
    for i, bar in enumerate(bars):
        f = u if i == len(bars) - 1 else lift_idempotent(a, u * bar * u, rad)
        if not rad.contains((f - bar).coeffs):
            raise NoConvergence("lift does not reduce to its piece modulo rad")
        lifted.append(f)
        u = u - f
    if not _orthogonal_idempotents(a, lifted):
        raise NoConvergence("lifted idempotents are not orthogonal idempotents summing to 1")

    reg = regular_module(a)
    pims = [
        _LeftIdealModule(a, spin(reg, [lifted[assignment.index(i)].coeffs]), label=f"P{i + 1}")
        for i in range(len(s.simples))
    ]
    return PimSet(lifted, assignment, pims)


@dataclass
class CartanMatrix:
    entries: list[list[int]]  # C[i][j] = multiplicity of S_i in P_j

    def is_symmetric(self) -> bool:
        n = len(self.entries)
        return all(
            self.entries[i][j] == self.entries[j][i] for i in range(n) for j in range(n)
        )


def cartan_both(
    a: GroupAlgebra, s: SimpleSet, pims: PimSet
) -> tuple[list[list[int]], list[list[int]]]:
    """The Cartan matrix twice: via Hom out of projectives and via Brauer characters.

    The Hom route reads C[i][j] = dim Hom(P_i, P_j) = dim f_i P_j as the rank
    of f_i on P_j (Hom_A(Af, M) = fM).  The Brauer route uses that
    characteristic polynomials multiply along a composition series, so
    m(P_j) = sum_i C[i][j] m(S_i) for the vectors m of _brauer_multiplicities;
    over a splitting field the simples' Brauer characters are linearly
    independent, so C is the unique solution, certified a non-negative
    integer matrix.  Neither route uses the other's result, an idempotent
    of the other or a random draw; the PIMs act through kG's table.  It
    also checks sum_S dim S * m(P_S) = m(kG): the PIMs' Brauer characters
    are independent and rho_kG = sum_U dim U * Phi_U over all simples U
    (Serre, GTM 42, sec. 18): no simple is missing and no PIM is wrong.
    """
    if not s.splits:
        raise SplittingFieldRequired("Cartan invariants computed over splitting fields")
    n = len(s.simples)
    reps = [pims.pim_for_simple(i) for i in range(n)]
    via_hom = [[reps[j].action_of(f).rank() for j in range(n)] for f in pims.heads]
    m = _brauer_multiplicities(a, [*s.simples, *reps])
    via_brauer = _nonnegative_integer_solution([r[:n] for r in m], [r[n:-1] for r in m])
    if any(sum(x.dim * r[n + i] for i, x in enumerate(s.simples)) != r[-1] for r in m):
        raise IncompleteSimpleSet(
            "the PIMs do not decompose kG: sum dim S * m(P_S) != m(kG)"
        )
    return via_hom, via_brauer


def cartan_matrix(a: GroupAlgebra, s: SimpleSet, pims: PimSet) -> CartanMatrix:
    """C[i][j] = multiplicity of S_i in P_j; both computation routes must agree."""
    via_hom, via_brauer = cartan_both(a, s, pims)
    if via_hom != via_brauer:
        raise MethodDisagreement(
            f"Cartan via Hom {via_hom} disagrees with Cartan via Brauer characters {via_brauer}"
        )
    return CartanMatrix(via_hom)


@dataclass
class PimReport:
    """Per-PIM structure: layers plus head/socle/divisibility/dual certificates."""

    simple_index: int
    dim: int
    loewy: LoewyData
    head_index: Optional[int]
    socle_index: Optional[int]
    head_iso_socle: bool
    dim_divisible_by_group_p_part: bool
    dual_partner: Optional[int]  # simple index S* with (P_S)* iso P_{S*}
    dual_pairing_ok: bool

    def layer_mults(self) -> list[tuple[int, ...]]:
        return [layer.mults for layer in self.loewy.radical_layers]


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def _unique_simple_of_layer(layer_mults: Sequence[int]) -> Optional[int]:
    hits = [i for i, m in enumerate(layer_mults) if m]
    if len(hits) == 1 and layer_mults[hits[0]] == 1:
        return hits[0]
    return None


def pim_structure_report(
    a: GroupAlgebra,
    s: SimpleSet,
    pims: PimSet,
    rad: Subspace,
) -> list[PimReport]:
    """Loewy layers and certificates for one PIM per simple.

    (P_i)* is projective indecomposable (a summand of (kG)*, which is
    isomorphic to kG) and a PIM is fixed by its head, so (P_i)* is
    isomorphic to P_j exactly when the dimensions agree and Hom((P_i)*, S_j)
    is nonzero: a Hom into a simple, not between PIMs.  The field splits
    here (PIMs exist only over splitting fields), so a layer's multiplicity
    of S_j is the rank difference of the head idempotent f_j on the two
    chain terms around it (see radical_and_socle_series).  Dual simples are
    matched by Schur's lemma.  Certificate failures are reported in the dataclass,
    never raised.
    """
    n = len(s.simples)
    gp = _p_part(a.group.order, a.field.char)
    heads = pims.heads
    reports = []
    for i in range(n):
        pim = pims.pim_for_simple(i)
        data = radical_and_socle_series(pim, rad, heads)
        head = _unique_simple_of_layer(data.radical_layers[0].mults)
        socle = _unique_simple_of_layer(data.socle_layers[0].mults)
        head_iso_socle = head is not None and head == socle
        d = dual_module(pim)
        partner = None
        for j in range(n):
            if pims.pim_for_simple(j).dim == d.dim and hom_dim(d, s.simples[j]) > 0:
                partner = j
                break
        reports.append(
            PimReport(
                simple_index=i,
                dim=pim.dim,
                loewy=data,
                head_index=head,
                socle_index=socle,
                head_iso_socle=head_iso_socle,
                dim_divisible_by_group_p_part=pim.dim % gp == 0,
                dual_partner=partner,
                dual_pairing_ok=False,
            )
        )
    # dual simples: S* is the simple isomorphic to the dual of S
    dual_simple: list[Optional[int]] = []
    for i in range(n):
        ds = dual_module(s.simples[i])
        dual_simple.append(
            next((j for j in range(n) if _simples_isomorphic(ds, s.simples[j])), None)
        )
    for i, rep in enumerate(reports):
        rep.dual_pairing_ok = (
            rep.dual_partner is not None and rep.dual_partner == dual_simple[i]
        )
    return reports
