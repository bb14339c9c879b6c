import numpy as np
import pytest

from modrep import modalg, structure
from modrep.errors import (
    ChopInstability,
    IncompleteSimpleSet,
    NoConvergence,
    NotIdempotentModRad,
    NotInvariant,
    SplittingFieldRequired,
)
from modrep.fieldcore import field_make
from modrep.linalg import Mat, Subspace
from modrep.modalg import (
    AlgebraElem,
    GroupAlgebra,
    Module,
    _iso_classes,
    _LeftIdealModule,
    _rad_generators,
    _simples_isomorphic,
    chop,
    direct_sum,
    dual_module,
    factor_multiset,
    hom_dim,
    hom_space,
    modules_isomorphic,
    regular_module,
    spin,
    sub_quotient,
    trivial_module,
)
from modrep.permgroup import builtin, conjugacy_data, group_from_json, group_generate, parse_cycles
from modrep.report import analyze_algebra
from modrep.structure import (
    PimSet,
    SimpleSet,
    _ideal_nilpotency_index,
    _k_class_count,
    _orthogonal_idempotents,
    cartan_both,
    cartan_matrix,
    find_simples,
    jacobson_radical,
    lift_idempotent,
    pim_structure_report,
    primitive_decomposition,
)

GF2 = field_make(2, 1)
GF3 = field_make(3, 1)
GF4 = field_make(2, 2)
GF5 = field_make(5, 1)
GF7 = field_make(7, 1)
GF9 = field_make(3, 2)
W = GF4.omega.val
W2 = GF4.mul(W, W)


_CACHE = {}


def analyze(group_name, field, seed=0):
    key = (group_name, field.order, seed)
    if key not in _CACHE:
        a = GroupAlgebra(_group(group_name), field)
        s = find_simples(a, seed)
        rad = jacobson_radical(a, s)
        pims = primitive_decomposition(a, s, rad)
        _CACHE[key] = (a, s, rad, pims)
    return _CACHE[key]


# ---------------------------------------------------------- find_simples --


def test_simples_klein_gf2():
    a = GroupAlgebra(builtin("V4"), GF2)
    s = find_simples(a, 0)
    assert [m.dim for m in s.simples] == [1]
    assert s.splits
    assert modules_isomorphic(s.simples[0], trivial_module(a), 0)


def test_simples_ka4_gf4():
    a = GroupAlgebra(builtin("A4"), GF4)
    s = find_simples(a, 0)
    assert [m.dim for m in s.simples] == [1, 1, 1]
    assert s.p_regular_classes == 3
    assert s.endo_dims == [1, 1, 1]


def test_simples_ka5_gf4():
    a = GroupAlgebra(builtin("A5"), GF4)
    s = find_simples(a, 0)
    assert [m.dim for m in s.simples] == [1, 2, 2, 4]
    assert s.p_regular_classes == 4
    assert s.splits


def test_simples_ka5_gf4_independent_of_the_chop_seed():
    # one chop of kG meets every simple (Jordan-Hoelder), whatever the seed
    a = GroupAlgebra(builtin("A5"), GF4)
    for seed in range(5):
        s = find_simples(a, seed)
        assert [m.dim for m in s.simples] == [1, 2, 2, 4]
        assert s.endo_dims == [1, 1, 1, 1]
        assert [m.label for m in s.simples] == ["S1", "S2", "S3", "S4"]


def test_simples_nonsplit_sets_flag():
    # kC3 over GF(2): the 2-dim simple has End = GF(4)
    a = GroupAlgebra(builtin("C3"), GF2)
    s = find_simples(a, 0)
    assert s.splitting_field_required
    assert sorted(m.dim for m in s.simples) == [1, 2]
    assert sorted(s.endo_dims) == [1, 2]


def test_simples_of_trivial_group_keep_regular_module_label():
    # kG for |G| = 1 is simple, so chop returns the shared regular module itself
    a = GroupAlgebra(group_generate([], 1), GF2)
    reg = regular_module(a)
    s = find_simples(a, 0)
    assert [m.label for m in s.simples] == ["S1"]
    assert reg.label == "regular"


def _group(name):
    if name == "S5":
        return group_from_json({"degree": 5, "generators": ["(1,2,3,4,5)", "(1,2)"]})
    if name == "PSL27":
        return group_from_json({"degree": 7, "generators": ["(1,2,3,4,5,6,7)", "(1,2)(3,6)"]})
    return builtin(name)


def _same_modules(xs, ys):
    return len(xs) == len(ys) and all(
        x.dim == y.dim
        and all(np.array_equal(g.a, h.a) for g, h in zip(x.gen_action, y.gen_action))
        for x, y in zip(xs, ys)
    )


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "name, field",
    [("A4", GF4), ("A5", GF4), ("A5", GF5), ("A5", GF9), ("S4", GF3), ("S5", GF2), ("A5", GF2)],
    ids=["A4-GF4", "A5-GF4", "A5-GF5", "A5-GF9", "S4-GF3", "S5-GF2", "A5-GF2"],
)
def test_early_stop_is_a_prefix_of_the_full_chop_with_its_simples(name, field, seed):
    a = GroupAlgebra(_group(name), field)
    _, p_reg = conjugacy_data(a.group, field.char)
    full = chop(regular_module(a), seed)
    short = chop(regular_module(a), seed, until_classes=p_reg)
    assert _same_modules(short, full[: len(short)])
    # A5 over GF(2) does not split: it never reaches p_reg classes
    assert (len(short) == len(full)) == ((name, field) == ("A5", GF2))
    # reference: every factor of the full chop, grouped by Schur's lemma
    reference = [r for r, _ in _iso_classes(full)]
    assert _same_modules(find_simples(a, seed).simples, reference)


_NONSPLIT = [("A4", GF2, 2), ("C3", GF2, 2), ("C5", GF2, 2), ("C4", GF3, 3), ("A5", GF2, 3),
             ("A5", GF3, 3)]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize(
    "name, field, count", _NONSPLIT, ids=[f"{n}-GF{k.order}" for n, k, _ in _NONSPLIT]
)
def test_k_class_count_is_the_number_of_simples(name, field, count, seed):
    a = GroupAlgebra(_group(name), field)
    # reference: the iso classes of a full chop of kG
    assert _k_class_count(a) == len(_iso_classes(chop(regular_module(a), seed))) == count


@pytest.mark.parametrize(
    "name, field", [("A5", GF4), ("S5", GF2), ("PSL27", GF7)], ids=["A5-GF4", "S5-GF2", "PSL27-GF7"]
)
def test_k_class_count_over_a_splitting_field_is_the_p_regular_count(name, field):
    a = GroupAlgebra(_group(name), field)
    assert _k_class_count(a) == conjugacy_data(a.group, field.char)[1]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("field", [GF2, GF3], ids=["GF2", "GF3"])
def test_find_simples_stops_early_on_a_non_splitting_field(monkeypatch, field, seed):
    a = GroupAlgebra(builtin("A5"), field)
    lengths = []

    def counting_chop(m, seed=0, until_classes=None):
        out = chop(m, seed, until_classes)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(structure, "chop", counting_chop)
    s = find_simples(a, seed)
    full = chop(regular_module(a), seed)
    assert lengths[0] < len(full)
    assert _same_modules(s.simples, [r for r, _ in _iso_classes(full)])
    assert s.splitting_field_required


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "name, field", [("A5", GF4), ("A5", GF5), ("S5", GF2)], ids=["A5-GF4", "A5-GF5", "S5-GF2"]
)
def test_schur_test_that_never_matches_yields_no_report(monkeypatch, name, field, seed):
    # every factor then opens a class, so the early stop keeps the first
    # p_reg factors as the simples.  Where they hold duplicates and miss
    # classes, the Wedderburn identity, the k-class count or the Brauer
    # Cartan route must refuse the result.  For A5/GF(5) and S5/GF(2) at
    # seed 2 those factors are pairwise non-isomorphic, so the simple set is
    # right: the report must then be the unpatched one, byte for byte
    right = (name, field.order, seed) in {("A5", 5, 2), ("S5", 2, 2)}
    want = analyze_algebra(_group(name), field, seed).report.to_json() if right else None
    monkeypatch.setattr(modalg, "_simples_isomorphic", lambda s, t: False)
    if right:
        assert analyze_algebra(_group(name), field, seed).report.to_json() == want
        return
    with pytest.raises((IncompleteSimpleSet, ChopInstability)):
        analyze_algebra(_group(name), field, seed)


# ------------------------------------------------------ jacobson_radical --


def test_radical_klein_explicit():
    a = GroupAlgebra(builtin("V4"), GF2)
    s = find_simples(a, 0)
    rad = jacobson_radical(a, s)
    assert rad.dim == 3
    # span{X, Y, XY} with X = 1+x, Y = 1+y in the group-element basis
    g = a.group
    x = g.index_of(parse_cycles("(1,2)(3,4)", 4))
    y = g.index_of(parse_cycles("(1,3)(2,4)", 4))
    xy = g.mul(x, y)
    vecs = []
    for i in (x, y, xy):
        v = [0, 0, 0, 0]
        v[0] = 1
        v[i] ^= 1
        vecs.append(v)
    assert rad == Subspace.from_vectors(GF2, 4, vecs)


def test_radical_semisimple_cases():
    for name, field in [("C3", GF4), ("C5", GF2)]:
        a = GroupAlgebra(builtin(name), field)
        s = find_simples(a, 0)
        assert jacobson_radical(a, s).dim == 0


def test_radical_ka5_dim_35():
    a = GroupAlgebra(builtin("A5"), GF4)
    s = find_simples(a, 0)
    assert jacobson_radical(a, s).dim == 60 - (1 + 4 + 4 + 16)


def test_radical_incomplete_simples_rejected():
    a = GroupAlgebra(builtin("A4"), GF4)
    s = find_simples(a, 0)
    crippled = SimpleSet(
        simples=s.simples[:1],
        endo_dims=s.endo_dims[:1],
        p_regular_classes=s.p_regular_classes,
        splitting_field_required=False,
    )
    with pytest.raises(IncompleteSimpleSet):
        jacobson_radical(a, crippled)


@pytest.mark.parametrize(
    "name, field", [("A4", GF2), ("A5", GF2), ("C5", GF2)], ids=["A4-GF2", "A5-GF2", "C5-GF2"]
)
def test_radical_incomplete_non_splitting_simples_rejected(name, field):
    # the annihilator of the rest passes the Wedderburn identity; the
    # k-class count, taken from the algebra and not the set, refuses it
    a = GroupAlgebra(builtin(name), field)
    s = find_simples(a, 0)
    assert s.splitting_field_required
    crippled = SimpleSet(
        simples=s.simples[:-1],
        endo_dims=s.endo_dims[:-1],
        p_regular_classes=s.p_regular_classes,
        splitting_field_required=True,
    )
    with pytest.raises(IncompleteSimpleSet, match="k-classes"):
        jacobson_radical(a, crippled)


@pytest.mark.parametrize("name, field", [("A5", GF4), ("A4", GF2)], ids=["A5-GF4", "A4-GF2"])
def test_pipeline_runs_no_nilpotency_chain(monkeypatch, name, field):
    want = analyze_algebra(builtin(name), field, 0).report.to_json()

    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline reached the nilpotency chain")

    monkeypatch.setattr(structure, "_ideal_nilpotency_index", refuse)
    assert analyze_algebra(builtin(name), field, 0).report.to_json() == want


def _brute_nilpotency_index(a, ideal):
    """Least m with ideal^m = 0, multiplying every basis pair of J^(m-1) x J."""
    k = a.field
    current, m = ideal, 1
    while current.dim > 0:
        assert m <= a.dim
        products = [a.conv(x, y) for x in current.basis.a for y in ideal.basis.a]
        current = Subspace(k, a.dim, Mat(k, np.array(products, dtype=k.dtype)))
        m += 1
    return m


@pytest.mark.parametrize(
    "name, field, loewy",
    [
        ("V4", GF2, 3),
        ("A4", GF4, 3),
        ("S3", GF3, 3),
        ("C5", GF5, 5),
        ("S4", GF2, 4),  # rad needs several right-ideal generators here
        ("C3", GF4, 1),
    ],
)
def test_nilpotency_index_matches_brute_force(name, field, loewy):
    a = GroupAlgebra(builtin(name), field)
    rad = jacobson_radical(a, find_simples(a, 0))
    assert _ideal_nilpotency_index(a, rad) == _brute_nilpotency_index(a, rad) == loewy


def test_nilpotency_index_rejects_non_nilpotent_ideal():
    for name, field in [("A4", GF4), ("C3", GF4)]:
        a = GroupAlgebra(builtin(name), field)
        with pytest.raises(NoConvergence):
            _ideal_nilpotency_index(a, Subspace.full(field, a.dim))


# ------------------------------------------------------- lift_idempotent --


def test_lift_trivial_idempotents():
    a = GroupAlgebra(builtin("V4"), GF2)
    s = find_simples(a, 0)
    rad = jacobson_radical(a, s)
    assert lift_idempotent(a, a.zero(), rad) == a.zero()
    assert lift_idempotent(a, a.one(), rad) == a.one()


def test_lift_already_idempotent_e2_in_ka4():
    a = GroupAlgebra(builtin("A4"), GF4)
    s = find_simples(a, 0)
    rad = jacobson_radical(a, s)
    g = a.group
    r = g.index_of(parse_cycles("(1,2,3)", 5))
    r2 = g.index_of(parse_cycles("(1,3,2)", 5))
    e2 = a.from_coeffs([(0, 1), (r, W), (r2, W2)])
    assert e2.is_idempotent()
    assert lift_idempotent(a, e2, rad) == e2


def test_lift_random_klein_element():
    # any element with augmentation 1 is idempotent mod rad in kC2xC2;
    # the only exact idempotents are 0 and 1, so the lift must be 1
    a = GroupAlgebra(builtin("V4"), GF2)
    s = find_simples(a, 0)
    rad = jacobson_radical(a, s)
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.integers(0, 2, size=4).astype(GF2.dtype)
        if int(v.sum()) % 2 == 0:
            v[0] ^= 1
        e_bar = a.from_coeffs(list(enumerate(int(x) for x in v)))
        f = lift_idempotent(a, e_bar, rad)
        # oracle: direct structure-constant multiplication
        prod = np.zeros(4, dtype=int)
        for i in range(4):
            for j in range(4):
                prod[a.group.mul(i, j)] ^= int(f.coeffs[i]) * int(f.coeffs[j])
        assert np.array_equal(prod % 2, f.coeffs.astype(int))
        assert f == a.one()
    bad = a.basis_elem(1) + a.basis_elem(2)  # augmentation 0 but not in rad? it is...
    with pytest.raises(NotIdempotentModRad):
        # augmentation w of GF(4) impossible here; use a vector with aug != 0,1
        a5 = GroupAlgebra(builtin("C3"), GF4)
        s5 = find_simples(a5, 0)
        rad5 = jacobson_radical(a5, s5)
        lift_idempotent(a5, a5.basis_elem(1).scale(W), rad5)


# ----------------------------------------------- primitive_decomposition --


def test_decomposition_klein_single_idempotent():
    a, s, rad, pims = analyze("V4", GF2)
    assert len(pims.idempotents) == 1
    assert pims.idempotents[0] == a.one()
    assert [p.dim for p in pims.pims] == [4]
    # oracle: exhaustive search of all 16 elements for idempotents
    import itertools

    found = []
    for bits in itertools.product([0, 1], repeat=4):
        e = a.from_coeffs(list(enumerate(bits)))
        if e.is_idempotent():
            found.append(bits)
    assert sorted(found) == [(0, 0, 0, 0), (1, 0, 0, 0)]


def test_decomposition_ka4():
    a, s, rad, pims = analyze("A4", GF4)
    assert len(pims.idempotents) == 3
    assert sorted(p.dim for p in pims.pims) == [4, 4, 4]
    assert pims.multiplicities(3) == [1, 1, 1]
    total = a.zero()
    for f in pims.idempotents:
        assert f.is_idempotent()
        total = total + f
    assert total == a.one()


def test_decomposition_ka5():
    a, s, rad, pims = analyze("A5", GF4)
    assert len(pims.idempotents) == 1 + 2 + 2 + 4
    dims = [pims.pim_for_simple(i).dim for i in range(4)]
    assert dims == [12, 8, 8, 4]
    assert pims.multiplicities(4) == [1, 2, 2, 4]
    assert len(pims.pims) == len(s.simples)
    # all idempotents for one simple give isomorphic PIMs: A f_j for each f_j
    reg = regular_module(a)
    for i in range(4):
        copies = [
            sub_quotient(reg, spin(reg, [f.coeffs]))[0]
            for f, si in zip(pims.idempotents, pims.assignment)
            if si == i
        ]
        assert len(copies) == s.simples[i].dim
        for c in copies:
            assert modules_isomorphic(pims.pim_for_simple(i), c, 0)


def test_decomposition_requires_splitting_field():
    a = GroupAlgebra(builtin("C3"), GF2)
    s = find_simples(a, 0)
    rad = jacobson_radical(a, s)
    with pytest.raises(SplittingFieldRequired):
        primitive_decomposition(a, s, rad)


def test_decomposition_duplicated_simple_rejected():
    # with S2 listed twice, phi(x) = E_00 in the first copy's block forces
    # E_00 in the second copy too, so the split system is inconsistent
    a, s, rad, _ = analyze("A4", GF4)
    doubled = SimpleSet(
        simples=s.simples + s.simples[1:2],
        endo_dims=s.endo_dims + s.endo_dims[1:2],
        p_regular_classes=s.p_regular_classes,
        splitting_field_required=False,
    )
    with pytest.raises(IncompleteSimpleSet):
        primitive_decomposition(a, doubled, rad)


@pytest.mark.parametrize(
    "gens, degree, field",
    [
        (["(1,2,3)", "(3,4,5)"], 5, GF4),  # A5
        (["(1,2,3,4,5)", "(1,2)"], 5, GF3),  # S5
    ],
)
def test_decomposition_idempotents_primitive(gens, degree, field):
    # f_i acts as a rank-1 idempotent on its own simple and as 0 on the rest
    a = GroupAlgebra(group_generate([parse_cycles(c, degree) for c in gens], degree), field)
    s = find_simples(a, 0)
    rad = jacobson_radical(a, s)
    pims = primitive_decomposition(a, s, rad)
    assert len(pims.idempotents) == sum(m.dim for m in s.simples)
    for f, si in zip(pims.idempotents, pims.assignment):
        for i, m in enumerate(s.simples):
            act = m.action_of(f)
            if i == si:
                assert act @ act == act
                assert act.rank() == 1
            else:
                assert act.is_zero()


def _orthogonal_idempotents_pairwise(a, elems):
    """Reference: one AlgebraElem product per ordered pair, then the sum."""
    total = a.zero()
    for f in elems:
        total = total + f
    return total == a.one() and all(
        f * g == f if i == j else (f * g).is_zero()
        for i, f in enumerate(elems)
        for j, g in enumerate(elems)
    )


@pytest.mark.parametrize("name, field", [("A4", GF4), ("A5", GF4), ("S5", GF2)])
def test_orthogonal_idempotents_matches_pairwise_products(name, field):
    a = GroupAlgebra(_group(name), field)
    s = find_simples(a, 0)
    fs = primitive_decomposition(a, s, jacobson_radical(a, s)).idempotents
    x = a.basis_elem(1)
    cases = [
        (fs, True),
        (fs[:1] + fs, False),  # f_1 repeated
        ([x, a.one() - x], False),  # sums to 1, but x^2 != x
        (fs[1:], False),  # f_1 dropped: no longer sums to 1
    ]
    for elems, want in cases:
        assert _orthogonal_idempotents(a, elems) == _orthogonal_idempotents_pairwise(a, elems) == want


# ---------------------------------------------------------- cartan matrix --


def test_cartan_klein():
    a, s, rad, pims = analyze("V4", GF2)
    assert cartan_matrix(a, s, pims).entries == [[4]]


def test_cartan_ka4():
    a, s, rad, pims = analyze("A4", GF4)
    assert cartan_matrix(a, s, pims).entries == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]


def test_cartan_ka5():
    a, s, rad, pims = analyze("A5", GF4)
    c = cartan_matrix(a, s, pims)
    assert c.entries == [[4, 2, 2, 0], [2, 2, 1, 0], [2, 1, 2, 0], [0, 0, 0, 1]]
    assert c.is_symmetric()


@pytest.mark.parametrize(
    "name, field",
    [("A5", GF4), ("A5", GF9), ("S4", GF3)],
    ids=["A5/GF(4)", "A5/GF(9)", "S4/GF(3)"],
)
def test_cartan_rank_route_equals_hom_dims(name, field):
    a, s, rad, pims = analyze(name, field)
    reps = [pims.pim_for_simple(i) for i in range(len(s.simples))]
    via_hom, via_brauer = cartan_both(a, s, pims)
    assert via_hom == [[hom_dim(p, q) for q in reps] for p in reps]
    assert via_hom == via_brauer


_BRAUER_ALGEBRAS = [
    ("A4", GF4), ("A5", GF4), ("A5", GF5), ("A5", GF9), ("S3", GF2), ("S3", GF3), ("S4", GF3),
    ("V4", GF2), ("C5", GF5), ("S5", GF2), ("S5", GF3), ("PSL27", GF2), ("PSL27", GF7),
]


def _chop_counts(m, simples, seed):
    """[m : S] for each simple S by a MeatAxe chop, each factor matched by Schur's lemma."""
    counts = [0] * len(simples)
    for f in chop(m, seed):
        hits = [i for i, t in enumerate(simples) if _simples_isomorphic(f, t)]
        assert len(hits) == 1
        counts[hits[0]] += 1
    return counts


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "name, field", _BRAUER_ALGEBRAS, ids=[f"{n}-GF{k.order}" for n, k in _BRAUER_ALGEBRAS]
)
def test_brauer_route_equals_the_chop_of_each_pim(name, field, seed):
    a, s, rad, pims = analyze(name, field, seed)
    n = len(s.simples)
    # reference: the composition factors of each PIM, by a MeatAxe chop
    via_chop = [[0] * n for _ in range(n)]
    for j in range(n):
        for i, c in enumerate(_chop_counts(pims.pim_for_simple(j), s.simples, seed)):
            via_chop[i][j] = c
    via_hom, via_brauer = cartan_both(a, s, pims)
    assert via_brauer == via_chop == via_hom


_NON_SPLITTING = [("A4", GF2), ("A5", GF2), ("A5", GF3), ("C5", GF2)]


@pytest.mark.parametrize(
    "name, field", _NON_SPLITTING, ids=[f"{n}-GF{k.order}" for n, k in _NON_SPLITTING]
)
def test_factor_multiset_equals_the_chop_over_non_splitting_fields(name, field):
    a = GroupAlgebra(_group(name), field)
    s = find_simples(a, 0)
    assert not s.splits
    for m in [regular_module(a), *s.simples]:
        assert factor_multiset(m, s.simples) == _chop_counts(m, s.simples, 1)


def test_factor_multiset_draws_nothing(monkeypatch):
    a = GroupAlgebra(_group("A5"), GF2)
    s = find_simples(a, 0)
    reg = regular_module(a)
    reference = _chop_counts(reg, s.simples, 0)

    def refuse(*args, **kwargs):
        raise AssertionError("factor_multiset reached a randomized step")

    for name in ["is_irreducible", "chop", "_rng"]:
        monkeypatch.setattr(modalg, name, refuse)
    assert factor_multiset(reg, s.simples) == reference
    assert sum(c * t.dim for c, t in zip(reference, s.simples)) == a.dim


def test_factor_multiset_refuses_a_wrong_simple_set():
    a, s, rad, pims = analyze("A5", GF4)
    reg = regular_module(a)
    with pytest.raises(IncompleteSimpleSet, match="missing"):
        factor_multiset(reg, s.simples[1:])
    with pytest.raises(IncompleteSimpleSet, match="listed twice"):
        factor_multiset(reg, [s.simples[0], *s.simples])


def _with_simples(s, simples):
    return SimpleSet(simples, [1] * len(simples), s.p_regular_classes, False)


@pytest.mark.parametrize("name, field", [("A4", GF4), ("A5", GF4), ("S5", GF2), ("A5", GF9)])
def test_brauer_route_refuses_a_wrong_simple_set(name, field):
    a, s, rad, pims = analyze(name, field)
    twice = _with_simples(s, [s.simples[0], s.simples[0], *s.simples[2:]])  # S2 -> S1
    with pytest.raises(IncompleteSimpleSet, match="listed twice"):
        cartan_both(a, twice, pims)
    # without S1, P1 (which holds S1) has no Brauer decomposition over the rest
    with pytest.raises(IncompleteSimpleSet, match="missing"):
        cartan_both(a, _with_simples(s, s.simples[1:]), pims)
    # S1 + S2 in place of S1: the columns stay independent and the system
    # consistent, but P1 = C11 (S1 + S2) + (C21 - C11) S2 + ..., and
    # C21 < C11 on each of these algebras
    bogus = _with_simples(s, [direct_sum(s.simples[:2]), *s.simples[1:]])
    with pytest.raises(IncompleteSimpleSet, match="not non-negative integers"):
        cartan_both(a, bogus, pims)
    # 3 S1 in place of S1: C11 (2, 4 or 8 here) / 3 is no integer
    bogus = _with_simples(s, [direct_sum([s.simples[0]] * 3), *s.simples[1:]])
    with pytest.raises(IncompleteSimpleSet, match="not non-negative integers"):
        cartan_both(a, bogus, pims)


def test_cartan_both_draws_nothing(monkeypatch):
    a, s, rad, pims = analyze("A5", GF4)

    def refuse(*args, **kwargs):
        raise AssertionError("cartan_both reached a randomized step")

    for mod, name in [(modalg, "is_irreducible"), (modalg, "chop"), (structure, "chop"),
                      (modalg, "factor_multiset"), (modalg, "_rng")]:
        monkeypatch.setattr(mod, name, refuse)
    via_hom, via_brauer = cartan_both(a, s, pims)
    assert via_hom == via_brauer == [[4, 2, 2, 0], [2, 2, 1, 0], [2, 1, 2, 0], [0, 0, 0, 1]]


@pytest.mark.parametrize(
    "name, field", [("A5", GF4), ("A4", GF4), ("S4", GF3)], ids=["A5-GF4", "A4-GF4", "S4-GF3"]
)
def test_regular_identity_refuses_pims_that_do_not_decompose_kg(name, field):
    # with P1 in place of P2 both routes read the same wrong column 2, so
    # they agree; only sum dim S * m(P_S) = m(kG) tells the PIMs are wrong
    a, s, rad, pims = analyze(name, field)
    p1 = pims.pims[0]
    wrong = PimSet(pims.idempotents, pims.assignment, [p1, p1, *pims.pims[2:]])
    with pytest.raises(IncompleteSimpleSet, match="do not decompose kG"):
        cartan_both(a, s, wrong)


@pytest.mark.parametrize("name, field", [("A5", GF4), ("S5", GF2), ("A5", GF9)])
def test_ideal_module_acts_as_the_generic_submodule(name, field):
    a, s, rad, pims = analyze(name, field)
    rng = np.random.default_rng(7)
    elems = list(pims.heads) + [AlgebraElem(a, y) for y in _rad_generators(a, rad)]
    elems += [AlgebraElem(a, rng.integers(0, field.order, a.dim)) for _ in range(3)]
    for pim in pims.pims:
        assert isinstance(pim, _LeftIdealModule)
        sub, _ = sub_quotient(regular_module(a), pim.space)
        assert [g.a.tolist() for g in pim.gen_action] == [g.a.tolist() for g in sub.gen_action]
        # reference: the generic module on the same generators, matrices along BFS words
        ref = Module(a, sub.gen_action, dim=sub.dim, check="off")
        for x in elems:
            assert pim.action_of(x) == ref.action_of(x)
        for g in range(a.dim):
            assert pim.element_mat(g) == ref.element_mat(g)
        assert pim._mats == {}


def test_ideal_module_refuses_a_subspace_that_is_no_left_ideal():
    a, s, rad, pims = analyze("A4", GF4)
    line = Subspace(GF4, a.dim, Mat(GF4, a.basis_elem(1).coeffs[None, :]))
    with pytest.raises(NotInvariant):
        _LeftIdealModule(a, line)


def test_modules_isomorphic_draws_nothing_for_a_one_dim_hom():
    # P1, P2 of kA4/GF(4): dim 4 each, Hom(P1, P2) of dim 1 and not invertible
    a, s, rad, pims = analyze("A4", GF4)
    p1, p2 = pims.pim_for_simple(0), pims.pim_for_simple(1)
    assert p1.dim == p2.dim == 4 and hom_dim(p1, p2) == 1
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert not modules_isomorphic(p1, p2, rng)
    assert rng.bit_generator.state == state


# ------------------------------------------------------------ pim report --


def test_pim_report_klein_loewy():
    a, s, rad, pims = analyze("V4", GF2)
    reports = pim_structure_report(a, s, pims, rad)
    assert len(reports) == 1
    r = reports[0]
    assert r.loewy.layer_dims() == [1, 2, 1]
    assert r.head_index == 0 and r.socle_index == 0 and r.head_iso_socle
    assert r.dim_divisible_by_group_p_part
    assert r.dual_partner == 0 and r.dual_pairing_ok


def test_pim_report_ka4_layers():
    a, s, rad, pims = analyze("A4", GF4)
    reports = pim_structure_report(a, s, pims, rad)
    for i, r in enumerate(reports):
        mults = r.layer_mults()
        assert len(mults) == 3
        top = [0, 0, 0]
        top[i] = 1
        mid = [1, 1, 1]
        mid[i] = 0
        assert list(mults[0]) == top
        assert list(mults[1]) == mid
        assert list(mults[2]) == top
        assert r.head_iso_socle and r.dim_divisible_by_group_p_part


def test_pim_report_ka5():
    a, s, rad, pims = analyze("A5", GF4)
    reports = pim_structure_report(a, s, pims, rad)
    dims = [r.dim for r in reports]
    assert dims == [12, 8, 8, 4]
    # P4 = S4 is simple projective: single layer
    assert reports[3].loewy.loewy_length == 1
    # P2, P3 uniserial of length 5; P1 has layer dims [1,4,2,4,1]
    assert reports[1].loewy.layer_dims() == [2, 1, 2, 1, 2]
    assert reports[2].loewy.layer_dims() == [2, 1, 2, 1, 2]
    assert reports[0].loewy.layer_dims() == [1, 4, 2, 4, 1]
    for r in reports:
        assert r.head_index == r.simple_index
        assert r.head_iso_socle
        assert r.dim_divisible_by_group_p_part
        assert r.dual_pairing_ok
    # every simple of kA5 over GF(4) is self-dual, so each PIM is too
    assert [r.dual_partner for r in reports] == [0, 1, 2, 3]


def _invertible_hom_partner(s, pims, i):
    """The pairing by an invertible basis element of Hom((P_i)*, P_j)."""
    d = dual_module(pims.pim_for_simple(i))
    for j in range(len(s.simples)):
        q = pims.pim_for_simple(j)
        if q.dim == d.dim and any(h.mat.rank() == d.dim for h in hom_space(d, q)):
            return j
    return None


@pytest.mark.parametrize(
    "gens, degree, field",
    [
        (["(1,2,3)", "(1,2)(3,4)"], 4, GF4),  # A4: T2* = T3, so P2* = P3
        (["(1,2,3)", "(3,4,5)"], 5, GF4),  # A5
        (["(1,2,3)", "(3,4,5)"], 5, GF9),  # A5
        (["(1,2,3,4)", "(1,2)"], 4, GF3),  # S4
        (["(1,2,3,4,5)", "(1,2)"], 5, GF2),  # S5
    ],
    ids=["A4/GF(4)", "A5/GF(4)", "A5/GF(9)", "S4/GF(3)", "S5/GF(2)"],
)
def test_dual_partner_head_test_equals_invertible_hom(gens, degree, field):
    a = GroupAlgebra(group_generate([parse_cycles(c, degree) for c in gens], degree), field)
    s = find_simples(a, 0)
    rad = jacobson_radical(a, s)
    pims = primitive_decomposition(a, s, rad)
    reports = pim_structure_report(a, s, pims, rad)
    expected = [_invertible_hom_partner(s, pims, i) for i in range(len(s.simples))]
    assert None not in expected
    assert [r.dual_partner for r in reports] == expected


def test_dim_identity_all_algebras():
    for name, field in [("V4", GF2), ("A4", GF4), ("A5", GF4)]:
        a, s, rad, pims = analyze(name, field)
        assert (
            sum(m.dim * pims.pim_for_simple(i).dim for i, m in enumerate(s.simples))
            == a.group.order
        )


def test_cartan_column_identity():
    for name, field in [("A4", GF4), ("A5", GF4)]:
        a, s, rad, pims = analyze(name, field)
        c = cartan_matrix(a, s, pims).entries
        for j in range(len(s.simples)):
            col = sum(c[i][j] * s.simples[i].dim for i in range(len(s.simples)))
            assert col == pims.pim_for_simple(j).dim


def _int_det(rows):
    """Exact determinant by Gaussian elimination over the rationals."""
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return int(det)


def test_a6_over_gf4_golden():
    # A6 = <(1,2,3), (2,3,4,5,6)>; Brauer degrees mod 2 are 1, 4, 4, 8, 8 (Jansen,
    # Lux, Parker, Wilson, An Atlas of Brauer Characters); det C is the product of
    # the 2-parts of |C_G(x)| over the 2-regular classes 1, 3A, 3B, 5A, 5B:
    # 8 * 1 * 1 * 1 * 1 = 8
    g = group_from_json({"degree": 6, "generators": ["(1,2,3)", "(2,3,4,5,6)"]})
    an = analyze_algebra(g, GF4, seed=0)
    assert an.report.all_passed
    simples = [m.dim for m in an.simples.simples]
    pims = [an.pims.pim_for_simple(i).dim for i in range(len(simples))]
    assert simples == [1, 4, 4, 8, 8]
    assert pims == [40, 24, 24, 8, 8]
    assert sum(s * p for s, p in zip(simples, pims)) == 360
    c = an.cartan.entries
    assert _int_det(c) == 8
    assert c == [list(row) for row in zip(*c)]


def test_s6_over_gf2_golden():
    # S6 = <(1,2,3,4,5,6), (1,2)>; Brauer degrees mod 2 are 1, 4, 4, 16 (Jansen,
    # Lux, Parker, Wilson, An Atlas of Brauer Characters); det C is the product of
    # the 2-parts of |C_G(x)| over the 2-regular classes 1, (123), (123)(456),
    # (12345): 16 * 2 * 2 * 1 = 64
    g = group_from_json({"degree": 6, "generators": ["(1,2,3,4,5,6)", "(1,2)"]})
    an = analyze_algebra(g, GF2, seed=0)
    assert an.report.all_passed
    simples = [m.dim for m in an.simples.simples]
    pims = [an.pims.pim_for_simple(i).dim for i in range(len(simples))]
    assert simples == [1, 4, 4, 16]
    assert sum(s * p for s, p in zip(simples, pims)) == 720
    c = an.cartan.entries
    assert _int_det(c) == 64
    assert c == [list(row) for row in zip(*c)]
