"""Cross-checks that tie the worked examples together across modules."""

import numpy as np
import pytest

from modrep.errors import DimensionMismatch, NotInvariant
from modrep.fieldcore import field_make
from modrep.goldens import Workbench, run_paper_suite
from modrep.linalg import Mat, Subspace, _nullspace_arr
from modrep.modalg import (
    AlgebraElem,
    GroupAlgebra,
    direct_sum,
    induce_module,
    is_irreducible,
    modules_isomorphic,
    permutation_module,
    radical_and_socle_series,
    regular_module,
    restrict_module,
    socle_chain,
    sub_quotient,
    trivial_module,
)
from modrep.permgroup import builtin, group_generate
from modrep.report import analyze_algebra

GF4 = field_make(2, 2)


@pytest.fixture(scope="module")
def wb():
    return Workbench(seed=0)


def test_permutation_module_splits_as_trivial_plus_s4(wb):
    an = wb.a5()
    smap = wb.s_map()
    w = permutation_module(an.algebra)
    s1 = an.simples.simples[smap["S1"]]
    s4 = an.simples.simples[smap["S4"]]
    assert modules_isomorphic(w, direct_sum([s1, s4]), 0)


def test_induced_t2_reducible_with_s2_socle(wb):
    an = wb.a5()
    a4 = wb.a4()
    tmap = wb.t_map()
    smap = wb.s_map()
    ind = induce_module(a4.simples.simples[tmap["T2"]], an.algebra)
    verdict = is_irreducible(ind, 11)
    assert not verdict.irreducible
    # uniserial S3/S1/S2: any proper witness has dimension 2 or 3
    assert verdict.witness.dim in (2, 3)
    socle = socle_chain(ind, an.radical)[1]
    assert socle.dim == 2
    soc_mod, _ = sub_quotient(ind, socle)
    assert modules_isomorphic(soc_mod, an.simples.simples[smap["S2"]], 0)


def test_induction_from_trivial_subgroup_is_regular(wb):
    an = wb.a4()
    triv_table = group_generate([], an.algebra.group.degree)
    triv_alg = GroupAlgebra(triv_table, GF4)
    ind = induce_module(trivial_module(triv_alg), an.algebra)
    assert ind.dim == 12
    assert modules_isomorphic(ind, regular_module(an.algebra), 0)


def test_loewy_rejects_foreign_radical(wb):
    an = wb.a4()
    with pytest.raises(DimensionMismatch):
        radical_and_socle_series(
            trivial_module(an.algebra), Subspace.zero(GF4, 5), an.simples.simples
        )


def test_paper_suite_stable_across_seeds():
    names0 = [r.name for r in run_paper_suite(0)]
    results5 = run_paper_suite(5)
    assert [r.name for r in results5] == names0
    assert all(r.passed for r in results5)


def _socle_chain_by_kernels(m, rad_a):
    """Reference: soc^(i+1) U / soc^i U = ker(rad A) on U / soc^i U, one
    residual nullspace per step (the elimination socle_chain replaced)."""
    k = m.algebra.field
    rho = [m.action_of(AlgebraElem(m.algebra, row)).a for row in rad_a.basis.a]
    out = [Subspace.zero(k, m.dim)]
    while out[-1].dim < m.dim:
        cur = out[-1]
        if not rho:
            out.append(Subspace.full(k, m.dim))
            break
        piv = cur.pivots()
        nonpiv = [c for c in range(m.dim) if c not in piv]
        blocks = []
        for r in rho:
            red = cur.reduce_rows(r.T.copy()).T  # residuals of columns rho(r) e_j
            blocks.append(red[nonpiv, :])
        nxt = Subspace(k, m.dim, Mat(k, _nullspace_arr(k, np.vstack(blocks))))
        out.append(nxt)
        if nxt.dim == cur.dim:
            raise NotInvariant("socle chain failed to ascend")
    return out


def _socle_cases(wb):
    a4, a5 = wb.a4(), wb.a5()
    tmap, smap = wb.t_map(), wb.s_map()
    yield regular_module(a4.algebra), a4.radical
    yield induce_module(a4.simples.simples[tmap["T2"]], a5.algebra), a5.radical
    yield restrict_module(a5.simples.simples[smap["S2"]], a4.algebra.group), a4.radical
    s4 = analyze_algebra(builtin("S4"), field_make(3, 1), 0)
    for i in range(len(s4.simples.simples)):
        yield s4.pims.pim_for_simple(i), s4.radical


def test_socle_chain_by_duality_matches_kernel_reference(wb):
    # soc^i U = (rad^i U*)^perp; both sides are canonical RREF subspaces
    cases = list(_socle_cases(wb))
    assert len(cases) == 3 + 4
    for m, rad in cases:
        assert socle_chain(m, rad) == _socle_chain_by_kernels(m, rad)
