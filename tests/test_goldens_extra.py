"""Cross-checks that tie the worked examples together across modules."""

import numpy as np
import pytest

from modrep.errors import DimensionMismatch, NotInvariant
from modrep.fieldcore import field_make
from modrep.goldens import Workbench, run_paper_suite
from modrep.linalg import Mat, Subspace, _matmul_arr, _nullspace_arr
from modrep.modalg import (
    AlgebraElem,
    GroupAlgebra,
    RightIdeal,
    direct_sum,
    hom_dim,
    induce_module,
    is_irreducible,
    modules_isomorphic,
    permutation_module,
    radical_and_socle_series,
    radical_chain,
    regular_module,
    restrict_module,
    section_module,
    socle_chain,
    sub_quotient,
    trivial_module,
)
from modrep.permgroup import builtin, group_from_json, group_generate
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
        radical_and_socle_series(trivial_module(an.algebra), Subspace.zero(GF4, 5), an.pims.heads)


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


def _loewy_cases(wb):
    """(module, analysis of its algebra): every PIM of five algebras, plus
    T2 and T3 induced to A5 and S2 and S4 restricted to A4."""
    a4, a5 = wb.a4(), wb.a5()
    s5 = group_from_json({"degree": 5, "generators": ["(1,2,3,4,5)", "(1,2)"]})
    for an in [a4, a5, wb.analysis("A5", 3, 2), wb.analysis("S4", 3, 1),
               analyze_algebra(s5, field_make(2, 1), 0)]:
        for i in range(len(an.simples.simples)):
            yield an.pims.pim_for_simple(i), an
    tmap, smap = wb.t_map(), wb.s_map()
    for t in ["T2", "T3"]:
        yield induce_module(a4.simples.simples[tmap[t]], a5.algebra), a5
    for name in ["S2", "S4"]:
        yield restrict_module(a5.simples.simples[smap[name]], a4.algebra.group), a4


def _layer_mults_by_hom(m, rad_a, simples):
    """Reference: one module per layer and dim Hom(S_i, layer) per simple
    (the route the rank differences replaced)."""
    rads, socs = radical_chain(m, rad_a), socle_chain(m, rad_a)
    rad_layers = [section_module(m, rads[j], rads[j + 1]) for j in range(len(rads) - 1)]
    soc_layers = [section_module(m, socs[j + 1], socs[j]) for j in range(len(socs) - 1)]
    return [
        [(layer.dim, tuple(hom_dim(s, layer) for s in simples)) for layer in layers]
        for layers in (rad_layers, soc_layers)
    ]


def _layer_mults_by_rank(m, rad_a, heads):
    data = radical_and_socle_series(m, rad_a, heads)
    return [
        [(layer.dim, layer.mults) for layer in layers]
        for layers in (data.radical_layers, data.socle_layers)
    ]


def test_layer_mults_by_rank_match_hom_route(wb):
    cases = list(_loewy_cases(wb))
    assert len(cases) == (3 + 4 + 4 + 4 + 3) + 4
    for m, an in cases:
        assert _layer_mults_by_rank(m, an.radical, an.pims.heads) == _layer_mults_by_hom(
            m, an.radical, an.simples.simples
        )


def test_layer_mults_by_rank_see_swapped_heads(wb):
    # mutant: swapping the heads of two simples of equal dimension must
    # break the agreement above on some PIM
    swapped = 0
    by_analysis = {}
    for m, an in _loewy_cases(wb):
        by_analysis.setdefault(id(an), (an, []))[1].append(m)
    for an, modules in by_analysis.values():
        dims = [s.dim for s in an.simples.simples]
        pair = next(((i, j) for i in range(len(dims)) for j in range(i) if dims[i] == dims[j]), None)
        if pair is None:
            continue
        heads = list(an.pims.heads)
        i, j = pair
        heads[i], heads[j] = heads[j], heads[i]
        assert any(
            _layer_mults_by_rank(m, an.radical, heads)
            != _layer_mults_by_hom(m, an.radical, an.simples.simples)
            for m in modules
        )
        swapped += 1
    assert swapped == 5


def _chains_by_full_basis(m, rad_a):
    """Reference: the radical and socle chains through rho_U(y) for every
    basis row y of rad A.  rad A is closed under the antipode, so the
    socle chain takes the same matrices, untransposed."""
    k = m.algebra.field
    rho = [m.action_of(AlgebraElem(m.algebra, row)).a for row in rad_a.basis.a]

    def chain(mats):
        out = [Subspace.full(k, m.dim)]
        while out[-1].dim > 0:
            rows = [_matmul_arr(k, out[-1].basis.a, r) for r in mats]
            nxt = Subspace(k, m.dim, Mat(k, np.vstack(rows))) if rows else Subspace.zero(k, m.dim)
            assert nxt.dim < out[-1].dim
            out.append(nxt)
        return out

    rads = chain([r.T.copy() for r in rho])
    socs = [Subspace(k, m.dim, Mat(k, _nullspace_arr(k, v.basis.a))) for v in chain(rho)]
    return rads, socs


def test_generator_chains_match_full_basis(wb):
    for m, an in _loewy_cases(wb):
        rad = an.radical
        assert isinstance(rad, RightIdeal)
        assert 0 < len(rad.generators) < rad.dim
        assert (radical_chain(m, rad), socle_chain(m, rad)) == _chains_by_full_basis(m, rad)
