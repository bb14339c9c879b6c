import itertools

import numpy as np
import pytest

from modrep.errors import (
    AlgebraMismatch,
    DimensionMismatch,
    NoConvergence,
    NotInvariant,
    NoQuotientRecorded,
    ZeroModule,
)
from modrep.fieldcore import FieldElem, Poly, field_make
from modrep.linalg import Mat, Subspace, _add_arr
from modrep.modalg import (
    FULL_CHECK_LIMIT,
    GroupAlgebra,
    Module,
    _iso_classes,
    chop,
    direct_sum,
    dual_module,
    factor_multiset,
    hom_dim,
    hom_space,
    induce_module,
    inflate_module,
    is_irreducible,
    module_from_json,
    module_to_json,
    modules_isomorphic,
    permutation_module,
    radical_and_socle_series,
    regular_module,
    restrict_module,
    spin,
    sub_quotient,
    trivial_module,
)
from modrep.permgroup import (
    builtin,
    conjugacy_data,
    cosets_and_quotient,
    normal_p_core,
    parse_cycles,
)
from modrep.report import analyze_algebra

GF2 = field_make(2, 1)
GF4 = field_make(2, 2)
W = GF4.omega.val
W2 = GF4.mul(W, W)

A4 = builtin("A4")
A5 = builtin("A5")
KA4 = GroupAlgebra(A4, GF4)
KA5 = GroupAlgebra(A5, GF4)
C2 = builtin("C2")
KC2 = GroupAlgebra(C2, GF2)


def a4_m_module(i: int) -> Module:
    """The six 2-dimensional kA4-modules given by explicit generator images.

    A4 is generated by (1,2,3) and (1,2)(3,4); the three-cycle acts
    diagonally and the double transposition by the fixed unipotent matrix.
    """
    diag = {
        1: (W, W2),
        2: (W2, W),
        3: (1, W),
        4: (W, 1),
        5: (W2, 1),
        6: (1, W2),
    }[i]
    rot = Mat.from_rows(GF4, [[diag[0], 0], [0, diag[1]]])
    flip = Mat.from_rows(GF4, [[1, W], [0, 1]])
    return Module(KA4, [rot, flip], dim=2, label=f"M{i}")


# the A5 <-> SL2(F4) dictionary: points are the 1-dim subspaces of F4^2,
# 1 <-> (1,1), 2 <-> (1,w), 3 <-> (1,w^2), 4 <-> (0,1), 5 <-> (1,0)
_LINES = {0: (1, 1), 1: (1, W), 2: (1, W2), 3: (0, 1), 4: (1, 0)}


def _line_of(v):
    a, b = v
    if a:
        v = (1, GF4.mul(GF4.inv(a), b))
    else:
        v = (0, 1)
    return next(p for p, w in _LINES.items() if w == v)


def _induced_perm(rows):
    def act(v):
        a, b = v
        return (
            GF4.add(GF4.mul(rows[0][0], a), GF4.mul(rows[0][1], b)),
            GF4.add(GF4.mul(rows[1][0], a), GF4.mul(rows[1][1], b)),
        )

    return tuple(_line_of(act(_LINES[p])) for p in range(5))


def sl2_matrix_for(perm) -> Mat:
    """The unique SL2(F4) matrix inducing the given A5 permutation on lines."""
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    det = GF4.sub(GF4.mul(a, d), GF4.mul(b, c))
                    if det != 1:
                        continue
                    if _induced_perm([[a, b], [c, d]]) == perm.images:
                        return Mat.from_rows(GF4, [[a, b], [c, d]])
    raise AssertionError(f"no SL2(F4) matrix induces {perm}")


def a5_s2_module() -> Module:
    """The 2-dim simple of A5 over GF(4) from the line-action identification."""
    mats = [sl2_matrix_for(p) for p in A5.generator_perms]
    return Module(KA5, mats, dim=2, label="S2")


def test_inconsistent_sl2_triple_rejected():
    # these widely-quoted generator images assign an order-3 matrix to an
    # involution; the action check must refuse every assignment of them
    import itertools as it
    from modrep.permgroup import group_generate

    gens = [parse_cycles(s, 5) for s in ["(1,2)(3,4)", "(1,2,3)", "(1,3,5)"]]
    table = group_generate(gens, 5)
    alg = GroupAlgebra(table, GF4)
    printed = [
        Mat.from_rows(GF4, [[0, 1], [1, 1]]),
        Mat.from_rows(GF4, [[W, 0], [0, W2]]),
        Mat.from_rows(GF4, [[1, 0], [W, 1]]),
    ]
    for order in it.permutations(printed):
        with pytest.raises(NotInvariant):
            Module(alg, list(order), dim=2)


def test_line_action_matrices_known_values():
    # diag(w, w^2) <-> (1,2,3) and [[1,w],[0,1]] <-> (1,2)(3,4)
    assert sl2_matrix_for(parse_cycles("(1,2,3)", 5)).tolist() == [[W, 0], [0, W2]]
    assert sl2_matrix_for(parse_cycles("(1,2)(3,4)", 5)).tolist() == [[1, W], [0, 1]]


def test_all_paper_m_modules_extend_to_a4():
    # resolves the open question: the stated matrices do define kA4-modules
    for i in range(1, 7):
        m = a4_m_module(i)
        assert m.dim == 2


def test_regular_module_kc2():
    reg = regular_module(KC2)
    assert reg.dim == 2
    assert reg.gen_action[0].tolist() == [[0, 1], [1, 0]]


def test_regular_module_trivial_group():
    from modrep.permgroup import group_generate

    triv = GroupAlgebra(group_generate([], 1), GF2)
    reg = regular_module(triv)
    assert reg.dim == 1 and reg.gen_action == ()


def test_regular_module_ka5_dim():
    reg = regular_module(KA5)
    assert reg.dim == 60
    for g in reg.gen_action:
        assert g.rank() == 60


def test_regular_module_caches_nothing():
    # every call builds a fresh module, and reading an element matrix stores none
    reg = regular_module(KA4)
    again = regular_module(KA4)
    assert again is not reg and again.gen_action == reg.gen_action
    mat = reg._mat_arr(5)
    assert reg._mat_arr(5) is not mat and np.array_equal(reg._mat_arr(5), mat)
    assert not reg._mats and not hasattr(KA4, "_regular")


@pytest.mark.parametrize("name", ["A4", "S4"])
def test_regular_module_table_matches_bfs(name):
    # the table-built element matrices agree with the BFS products of the
    # generator matrices, and those pass the full action check
    a = GroupAlgebra(builtin(name), GF2)
    reg = regular_module(a)
    assert reg.dim * a.dim <= FULL_CHECK_LIMIT  # the constructor runs the full check
    bfs = Module(a, reg.gen_action, dim=reg.dim)
    for h in range(a.dim):
        assert np.array_equal(reg.element_mat(h).a, bfs.element_mat(h).a)


def test_permutation_module_c2_equals_regular():
    perm = permutation_module(KC2)
    reg = regular_module(KC2)
    assert perm.dim == 2
    assert modules_isomorphic(perm, reg, 0)


def test_module_validation_rejects_bad_action():
    # (1,2,3) must have multiplicative order 3; the swap matrix has order 2
    bad = Mat.from_rows(GF4, [[0, 1], [1, 0]])
    flip = Mat.from_rows(GF4, [[1, 0], [0, 1]])
    with pytest.raises(NotInvariant):
        Module(KA4, [bad, flip], dim=2)


def test_module_from_json_verifies_action():
    bad = {
        "dim": 2,
        "field": {"char": 2, "degree": 2, "modulus": [1, 1, 1]},
        "generators": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]],
    }
    with pytest.raises(NotInvariant):
        module_from_json(KA4, bad)


def test_spin_whole_space_and_zero():
    m = a4_m_module(1)
    assert spin(m, [[1, 0], [0, 1]]).dim == 2
    assert spin(m, [[0, 0]]).dim == 0
    with pytest.raises(DimensionMismatch):
        spin(m, [[1, 0, 0]])


def test_spin_m1_seed_is_t2_line():
    # the coordinate line in M1 is invariant: (1,2,3) acts there by omega
    m = a4_m_module(1)
    sub = spin(m, [[1, 0]])
    assert sub.dim == 1
    submod, quot = sub_quotient(m, sub)
    assert submod.gen_action[0].tolist() == [[W]]  # T2
    assert quot.gen_action[0].tolist() == [[W2]]  # T3


def test_sub_quotient_zero_subspace():
    m = a4_m_module(2)
    sub, quot = sub_quotient(m, Subspace.zero(GF4, 2))
    assert sub.dim == 0
    assert modules_isomorphic(quot, m, 0)


def test_sub_quotient_regular_kc2():
    reg = regular_module(KC2)
    # span(1+g) over GF(2)
    sub_space = spin(reg, [[1, 1]])
    assert sub_space.dim == 1
    sub, quot = sub_quotient(reg, sub_space)
    assert sub.gen_action[0].tolist() == [[1]]  # trivial
    assert quot.gen_action[0].tolist() == [[1]]  # trivial
    with pytest.raises(NotInvariant):
        sub_quotient(reg, Subspace.from_vectors(GF2, 2, [[1, 0]]))


@pytest.mark.parametrize("mode", ["full", "sample", "on"])
def test_module_check_is_auto_or_off(mode):
    with pytest.raises(ValueError):
        Module(KA4, regular_module(KA4).gen_action, check=mode)


def test_algebra_elements_are_read_only():
    x = KA4.basis_elem(3)
    with pytest.raises(ValueError):
        x.coeffs[1] = 1
    assert x == KA4.basis_elem(3)


def _theta_reference(m, terms):
    """The Norton theta as the sum of c * rho(e) over its drawn terms (e, c)."""
    k = m.algebra.field
    theta = np.zeros((m.dim, m.dim), dtype=k.dtype)
    for e, c in terms:
        theta = _add_arr(k, theta, k.MUL[c][m._mat_arr(e)])
    return theta


@pytest.mark.parametrize(
    "p, deg", [(2, 1), (2, 2), (5, 1), (3, 2)], ids=["GF(2)", "GF(4)", "GF(5)", "GF(9)"]
)
def test_norton_theta_through_action_of_matches_term_sum(p, deg):
    # the regular module acts by one gather, a chop piece by its support loop
    a = GroupAlgebra(A5, field_make(p, deg))
    k = a.field
    reg = regular_module(a)
    _, piece = sub_quotient(reg, is_irreducible(reg, 0).witness)
    rng = np.random.default_rng(3)
    for m in (reg, piece):
        for support in (2, 5, 9):
            terms = [
                (int(rng.integers(0, a.dim)), int(rng.integers(1, k.order))) for _ in range(support)
            ]
            terms.append(terms[0])  # a repeated element adds its coefficients
            theta = m.action_of(a.from_coeffs(terms)).a
            assert np.array_equal(theta, _theta_reference(m, terms))


def test_chop_factors_of_regular_ka4_pass_full_check():
    factors = chop(regular_module(KA4), 0)
    assert sum(f.dim for f in factors) == 12
    for f in factors:
        assert f.dim * KA4.dim <= FULL_CHECK_LIMIT
        f._verify()


def test_hom_schur_between_inflated_lines():
    t1 = trivial_module(KA4)
    t2 = Module(KA4, [Mat.from_rows(GF4, [[W]]), Mat.from_rows(GF4, [[1]])], dim=1)
    assert hom_dim(t1, t2) == 0
    assert hom_dim(t2, t2) == 1


def test_hom_regular_kc2_brute_force():
    reg = regular_module(KC2)
    # oracle: enumerate all 16 GF(2) 2x2 matrices commuting with the swap
    swap = reg.gen_action[0].a
    count = 0
    for bits in itertools.product([0, 1], repeat=4):
        x = np.array(bits, dtype=GF2.dtype).reshape(2, 2)
        if np.array_equal((x @ swap) % 2, (swap @ x) % 2):
            count += 1
    assert count == 4  # dim 2 over GF(2): 2^2 matrices
    homs = hom_space(reg, reg)
    assert len(homs) == 2
    for h in homs:
        assert h.is_valid()


def test_hom_mismatched_algebras():
    with pytest.raises(AlgebraMismatch):
        hom_space(trivial_module(KA4), trivial_module(KA5))


def test_is_irreducible_s2_of_a5():
    verdict = is_irreducible(a5_s2_module(), 3)
    assert verdict.irreducible
    assert verdict.certificate is not None


def test_is_irreducible_regular_kc2():
    verdict = is_irreducible(regular_module(KC2), 0)
    assert not verdict.irreducible
    assert verdict.witness == Subspace.from_vectors(GF2, 2, [[1, 1]])


def test_is_irreducible_zero_module():
    z = Module(KA4, [Mat.zeros(GF4, 0, 0), Mat.zeros(GF4, 0, 0)], dim=0)
    with pytest.raises(ZeroModule):
        is_irreducible(z, 0)


def test_chop_regular_klein():
    v4 = builtin("V4")
    alg = GroupAlgebra(v4, GF2)
    facs = _iso_classes(chop(regular_module(alg), 1))
    assert len(facs) == 1
    rep, mult = facs[0]
    assert rep.dim == 1 and mult == 4
    assert modules_isomorphic(rep, trivial_module(alg), 0)


def test_composition_factors_of_simple():
    s2 = a5_s2_module()
    facs = _iso_classes(chop(s2, 5))
    assert len(facs) == 1 and facs[0][1] == 1
    assert modules_isomorphic(facs[0][0], s2, 0)


def test_composition_factors_seed_invariant():
    m = a4_m_module(1)
    reg = regular_module(KA4)
    base = None
    for seed in range(5):
        counts = sorted(c for _, c in _iso_classes(chop(reg, seed)))
        if base is None:
            base = counts
        assert counts == base
    assert sum(base) == 12
    facs = _iso_classes(chop(m, 0))
    assert sorted(c for _, c in facs) == [1, 1]


def test_direct_sum():
    t2 = Module(KA4, [Mat.from_rows(GF4, [[W]]), Mat.from_rows(GF4, [[1]])], dim=1, label="T2")
    t3 = Module(KA4, [Mat.from_rows(GF4, [[W2]]), Mat.from_rows(GF4, [[1]])], dim=1, label="T3")
    s = direct_sum([t2, t3])
    assert s.dim == 2
    counts = factor_multiset(s, [t2, t3])
    assert counts == [1, 1]
    v = direct_sum([t2])
    assert modules_isomorphic(v, t2, 0)
    with pytest.raises(AlgebraMismatch):
        direct_sum([t2, trivial_module(KA5)])
    with pytest.raises(AlgebraMismatch):
        factor_multiset(s, [t2, trivial_module(KA5)])


def test_modules_isomorphic_returns_no_uncertified_false():
    # T + T over S3/GF(2): Hom = End = M_2(GF(2)), no basis map is invertible,
    # and at seed 27 all 8 drawn combinations are singular
    alg = GroupAlgebra(builtin("S3"), GF2)
    tt = direct_sum([trivial_module(alg)] * 2)
    with pytest.raises(NoConvergence, match="undecided"):
        modules_isomorphic(tt, tt, 27)
    for seed in range(200):
        try:
            assert modules_isomorphic(tt, tt, seed)
        except NoConvergence:
            pass


def test_modules_isomorphic_certifies_false_by_end_and_hom_dims():
    t1 = trivial_module(KA4)
    t2 = Module(KA4, [Mat.from_rows(GF4, [[W]]), Mat.from_rows(GF4, [[1]])], dim=1, label="T2")
    v, w = direct_sum([t1, t1, t2]), direct_sum([t1, t2, t2])
    assert hom_dim(v, v) == 5 and hom_dim(v, w) == 4
    for seed in range(10):
        assert modules_isomorphic(v, w, seed) is False


def test_restrict_twodim_simple_to_a4_is_uniserial():
    s = a5_s2_module()
    a4_sub = restrict_module(s, A4)
    assert a4_sub.dim == 2
    # (1,2,3) acts by diag(w, w2) in this basis
    assert a4_sub.gen_action[0].tolist() == [[W, 0], [0, W2]]
    # uniserial: unique proper submodule, head and socle the two nontrivial
    # characters (this line labeling gives socle w, head w^2; its Frobenius
    # twist gives the other order)
    verdict = is_irreducible(a4_sub, 2)
    assert not verdict.irreducible
    sub, quot = sub_quotient(a4_sub, verdict.witness)
    assert sub.gen_action[0].tolist() == [[W]]
    assert quot.gen_action[0].tolist() == [[W2]]


def test_induce_dimension_formula():
    a4_alg = GroupAlgebra(A4, GF4)
    for mod in [trivial_module(a4_alg), a4_m_module(3)]:
        ind = induce_module(mod, KA5)
        assert ind.dim == 5 * mod.dim


def test_frobenius_reciprocity_dimensions():
    a4_alg = GroupAlgebra(A4, GF4)
    t2 = Module(a4_alg, [Mat.from_rows(GF4, [[W]]), Mat.from_rows(GF4, [[1]])], dim=1)
    s2 = None
    # restrict the A5 permutation module as a test partner
    w_mod = permutation_module(KA5)
    ind = induce_module(t2, KA5)
    res = restrict_module(w_mod, A4)
    assert hom_dim(ind, w_mod) == hom_dim(t2, res)
    assert hom_dim(w_mod, ind) == hom_dim(res, t2)


def test_inflate_t2_from_c3():
    v4 = normal_p_core(A4, 2)
    _, qmap = cosets_and_quotient(A4, v4)
    assert qmap is not None and qmap.quotient.order == 3
    c3_alg = GroupAlgebra(qmap.quotient, GF4)
    t2_prime = Module(c3_alg, [Mat.from_rows(GF4, [[W]])], dim=1)
    t2 = inflate_module(t2_prime, KA4, qmap)
    assert t2.dim == 1
    # (1,2,3) maps to (w); the projection sends it to a generator of C3
    three_cycle = A4.index_of(parse_cycles("(1,2,3)", 5))
    assert t2.element_mat(three_cycle).tolist() == [[W]]
    with pytest.raises(NoQuotientRecorded):
        inflate_module(t2_prime, KA4, None)


def test_unchecked_derived_modules_pass_the_full_check():
    # dual, direct sum, restriction and induction skip the constructor's check
    m = a4_m_module(1)
    s = a5_s2_module()
    for derived in [
        dual_module(m),
        direct_sum([m, dual_module(m)]),
        restrict_module(s, A4),
        induce_module(m, KA5),
    ]:
        assert derived.dim * derived.algebra.dim <= FULL_CHECK_LIMIT
        derived._verify()


def test_conv_of_a_stack_is_rowwise():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 4, KA4.dim).astype(GF4.dtype)
    rows = rng.integers(0, 4, (3, KA4.dim)).astype(GF4.dtype)
    stacked = KA4.conv(x, rows)
    assert stacked.shape == rows.shape
    for r, out in zip(rows, stacked):
        assert np.array_equal(out, KA4.conv(x, r))


def test_is_central_tests_the_generators():
    ks3 = GroupAlgebra(builtin("S3"), GF2)
    g = ks3.group
    transposition = ks3.basis_elem(g.index_of(parse_cycles("(1,2)", 3)))
    assert not transposition.is_central()
    classes, _ = conjugacy_data(g, 2)
    for cls in classes:
        class_sum = ks3.from_coeffs((i, 1) for i in cls.members)
        assert class_sum.is_central()


def test_dual_of_trivial_and_involution():
    t = trivial_module(KA4)
    assert modules_isomorphic(dual_module(t), t, 0)
    m = a4_m_module(1)
    dd = dual_module(dual_module(m))
    assert modules_isomorphic(dd, m, 0)


def test_dual_swaps_t2_t3():
    t2 = Module(KA4, [Mat.from_rows(GF4, [[W]]), Mat.from_rows(GF4, [[1]])], dim=1)
    t3 = Module(KA4, [Mat.from_rows(GF4, [[W2]]), Mat.from_rows(GF4, [[1]])], dim=1)
    assert modules_isomorphic(dual_module(t2), t3, 0)


def test_radical_series_regular_klein():
    v4alg = GroupAlgebra(builtin("V4"), GF2)
    reg = regular_module(v4alg)
    # radical of kV4 = augmentation ideal, dim 3 (independent hand basis)
    rad = Subspace.from_vectors(GF2, 4, [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
    # kV4 is local: 1 is the one primitive idempotent, the head of the trivial
    data = radical_and_socle_series(reg, rad, [v4alg.one()])
    assert data.layer_dims() == [1, 2, 1]
    assert [l.mults for l in data.radical_layers] == [(1,), (2,), (1,)]
    assert [l.dim for l in data.socle_layers] == [1, 2, 1]


def test_radical_series_semisimple_single_layer():
    m = a5_s2_module()
    an = analyze_algebra(A5, GF4, 0)
    j = next(j for j, s in enumerate(an.simples.simples) if modules_isomorphic(m, s, 0))
    rad = Subspace.zero(GF4, 60)
    data = radical_and_socle_series(m, rad, [an.pims.heads[j]])
    assert data.loewy_length == 1
    assert data.radical_layers[0].mults == (1,)
    assert data.socle_layers[0].dim == 2


def test_layer_dimension_identity():
    v4alg = GroupAlgebra(builtin("V4"), GF2)
    reg = regular_module(v4alg)
    triv = trivial_module(v4alg)
    rad = Subspace.from_vectors(GF2, 4, [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
    data = radical_and_socle_series(reg, rad, [v4alg.one()])
    for layer in data.radical_layers + data.socle_layers:
        assert layer.dim == sum(m * s.dim for m, s in zip(layer.mults, [triv]))


def test_maschke_small():
    # p does not divide |G|: radical of the regular module must vanish
    c3 = builtin("C3")
    alg = GroupAlgebra(c3, GF4)
    reg = regular_module(alg)
    # all of kC3 over GF(4) chops into 3 one-dim simples
    facs = _iso_classes(chop(reg, 0))
    assert [f.dim for f, _ in facs] == [1, 1, 1]
    assert all(mult == 1 for _, mult in facs)


def test_module_json_roundtrip():
    m = a4_m_module(4)
    obj = module_to_json(m)
    assert obj["dim"] == 2 and obj["label"] == "M4"
    m2 = module_from_json(KA4, obj)
    assert m2.gen_action == m.gen_action
    wrong_field = dict(obj, field={"char": 2, "degree": 1, "modulus": [0, 1]})
    with pytest.raises(AlgebraMismatch):
        module_from_json(KA4, wrong_field)


def test_equal_values_over_equal_fields_hash_equal():
    # two separately built contexts for GF(4) compare equal
    k1, k2 = field_make(2, 2), field_make(2, 2)
    assert k1 is not k2 and k1 == k2
    rows = [[1, k1.omega.val], [0, 1]]
    pairs = [
        (FieldElem(k1, 1), FieldElem(k2, 1)),
        (Poly(k1, [1, 0, 1]), Poly(k2, [1, 0, 1])),
        (Mat.from_rows(k1, rows), Mat.from_rows(k2, rows)),
        (Subspace.from_vectors(k1, 2, rows[:1]), Subspace.from_vectors(k2, 2, rows[:1])),
        (GroupAlgebra(A4, k1).one(), GroupAlgebra(A4, k2).one()),
    ]
    for x, y in pairs:
        assert x == y
        assert len({x, y}) == 1


def test_algebra_elem_repr_and_ops():
    e = KA4.one()
    g = KA4.basis_elem(A4.index_of(parse_cycles("(1,2,3)", 5)))
    x = e + g.scale(W)
    assert "(1,2,3)" in repr(x)
    assert (x * KA4.one()) == x
    assert x.coeff(0) == GF4.one()
