import numpy as np
import pytest

from modrep.errors import (
    DegreeMismatch,
    GroupTooLarge,
    InvalidGroupSpec,
    NotSubgroup,
    UnknownGroup,
)
from modrep.permgroup import (
    GROUP_ORDER_GUARD,
    GroupTable,
    Perm,
    Subgroup,
    builtin,
    conjugacy_data,
    cosets_and_quotient,
    group_from_json,
    group_generate,
    group_to_json,
    normal_p_core,
    parse_cycles,
    sylow_subgroup,
)


def test_parse_cycles_basic():
    p = parse_cycles("(1,2,3)(4,5)")
    assert p.images == (1, 2, 0, 4, 3)
    assert parse_cycles("()", 3) == Perm.identity(3)
    assert parse_cycles(" ( 1 , 2 ) ", 4).images == (1, 0, 2, 3)
    assert parse_cycles("(1,2) (3,4)") == parse_cycles("(1,2)(3,4)")


def test_parse_cycles_left_to_right():
    # non-disjoint cycles applied left-to-right: (1,2) then (1,3)
    p = parse_cycles("(1,2)(1,3)")
    assert p == parse_cycles("(1,2,3)")


def test_parse_cycles_rejects_garbage():
    with pytest.raises(DegreeMismatch):
        parse_cycles("(1,2,2)")
    with pytest.raises(DegreeMismatch):
        parse_cycles("1,2")
    with pytest.raises(DegreeMismatch):
        parse_cycles("(1,5)", degree=3)


def test_perm_composition_convention():
    a = parse_cycles("(1,2)", 3)
    b = parse_cycles("(2,3)", 3)
    # (a*b)(x) = a(b(x)): 1->1->2, 2->3->3, 3->2->1
    assert (a * b).images == (1, 2, 0)
    assert a * a.inverse() == Perm.identity(3)


def test_generate_klein_four():
    g = builtin("V4")
    assert g.order == 4
    assert all(g.element_order(i) == 2 for i in range(1, 4))


def test_generate_trivial():
    g = group_generate([], 1)
    assert g.order == 1 and g.degree == 1


def test_generate_a4_a5_orders():
    assert builtin("A4").order == 12
    assert builtin("A5").order == 60


def test_builtin_table():
    for name, order in [("C2", 2), ("C3", 3), ("C4", 4), ("C5", 5), ("S3", 6), ("S4", 24)]:
        assert builtin(name).order == order
    with pytest.raises(UnknownGroup):
        builtin("E8")


def test_a4_is_point5_stabilizer_inside_a5():
    a4, a5 = builtin("A4"), builtin("A5")
    assert a4.degree == a5.degree == 5
    for p in a4.elements:
        assert p(4) == 4
        assert p in a5


def test_mult_table_identity_row():
    g = builtin("A4")
    assert all(g.mul(0, j) == j for j in range(g.order))
    # element order is deterministic across regenerations
    g2 = builtin("A4")
    assert [p.images for p in g.elements] == [p.images for p in g2.elements]


def _reference_table(g):
    """The |G|^2 Perm-product table, the Perm.inverse list and the BFS
    parents read off that table (the construction GroupTable replaced)."""
    n = g.order
    mult = np.zeros((n, n), dtype=np.int32)
    for i, a in enumerate(g.elements):
        for j, b in enumerate(g.elements):
            mult[i, j] = g.index[(a * b).images]
    inv = np.zeros(n, dtype=np.int32)
    for i, a in enumerate(g.elements):
        inv[i] = g.index[a.inverse().images]
    gens = [g.index[p.images] for p in g.generator_perms]
    parents = [(-1, -1)] * n
    seen, frontier = {0}, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, gen in enumerate(gens):
                y = int(mult[x, gen])
                if y not in seen:
                    seen.add(y)
                    parents[y] = (x, gi)
                    nxt.append(y)
        frontier = nxt
    return mult, inv, parents


@pytest.mark.parametrize(
    "spec",
    [
        "C2", "C5", "V4", "S3", "A4", "S4", "A5",
        {"degree": 5, "generators": ["(1,2,3,4,5)", "(1,2)"]},
        {"degree": 7, "generators": ["(1,2,3,4,5,6,7)", "(1,2)(3,6)"]},
        {"degree": 3, "generators": []},
        {"degree": 4, "generators": ["()", "(1,2,3,4)", "(1,2)"]},
        {"degree": 4, "generators": ["(1,2,3)", "(1,2,3)", "(2,3,4)"]},
    ],
    ids=["C2", "C5", "V4", "S3", "A4", "S4", "A5", "S5", "PSL27", "trivial",
         "identity-generator", "repeated-generator"],
)
def test_table_matches_perm_product_reference(spec):
    g = builtin(spec) if isinstance(spec, str) else group_from_json(spec)
    mult, inv, parents = _reference_table(g)
    assert g.mult.dtype == mult.dtype and np.array_equal(g.mult, mult)
    assert g.inv.dtype == inv.dtype and np.array_equal(g.inv, inv)
    assert g.parents == parents


def _perm_bfs(gens):
    """The level-sorted BFS closure by Perm products (what group_generate gathers)."""
    ident = Perm.identity(gens[0].degree)
    elements, seen, frontier = [ident], {ident.images}, [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y.images not in seen:
                    seen.add(y.images)
                    new.append(y)
        new.sort(key=lambda p: p.images)
        elements.extend(new)
        frontier = new
    return elements


@pytest.mark.parametrize(
    "degree, gens",
    [
        (5, ["(1,2,3,4,5)", "(1,2)"]),
        (6, ["(1,2,3)", "(2,3,4,5,6)"]),
        (6, ["(1,2,3,4,5,6)", "(1,2)"]),
        (7, ["(1,2,3,4,5,6,7)", "(1,2)(3,6)"]),
        (7, ["(1,2,3)", "(3,4,5,6,7)"]),
    ],
    ids=["S5", "A6", "S6", "PSL27", "A7"],
)
def test_generate_by_gathers_matches_perm_bfs(degree, gens):
    perms = [parse_cycles(t, degree) for t in gens]
    g = group_generate(perms)
    assert [p.images for p in g.elements] == [p.images for p in _perm_bfs(perms)]
    assert all(type(i) is int for i in g.elements[-1].images)


def test_table_rejects_element_lists_that_are_not_the_group():
    s3 = builtin("S3")
    transposition = parse_cycles("(1,2)", 3)
    with pytest.raises(InvalidGroupSpec, match="reach 2 of the 6"):
        GroupTable(list(s3.elements), [transposition])
    three_cycle = parse_cycles("(1,2,3)", 3)
    with pytest.raises(InvalidGroupSpec, match="leaves the element set"):
        GroupTable([Perm.identity(3), three_cycle], [three_cycle])
    with pytest.raises(InvalidGroupSpec, match="identity"):
        GroupTable([transposition, Perm.identity(3)], [transposition])
    with pytest.raises(InvalidGroupSpec, match="repeat"):
        GroupTable([Perm.identity(3), transposition, transposition], [transposition])


def test_group_order_guard_s8():
    s8 = {"degree": 8, "generators": ["(1,2,3,4,5,6,7,8)", "(1,2)"]}
    with pytest.raises(GroupTooLarge, match=str(GROUP_ORDER_GUARD)):
        group_from_json(s8)


def test_conjugacy_a4():
    g = builtin("A4")
    classes, nreg = conjugacy_data(g, 2)
    sizes = sorted(len(c.members) for c in classes)
    assert sizes == [1, 3, 4, 4]
    assert nreg == 3
    # oracle: brute-force pairwise conjugacy over all 12 elements
    def conj_related(x, y):
        return any(g.conjugate(h, x) == y for h in range(g.order))

    for c in classes:
        for m in c.members:
            assert conj_related(c.rep, m)


def test_conjugacy_a5():
    classes, nreg = conjugacy_data(builtin("A5"), 2)
    assert len(classes) == 5
    assert nreg == 4
    assert sorted(len(c.members) for c in classes) == [1, 12, 12, 15, 20]


def test_conjugacy_trivial():
    g = group_generate([], 1)
    classes, nreg = conjugacy_data(g, 7)
    assert len(classes) == 1 and nreg == 1


def _classes_by_bfs(g):
    """Reference: each class as the closure of x under x -> h x h^-1, one
    conjugate call per (h, x) (the search conjugacy_data replaced)."""
    assigned = [False] * g.order
    out = []
    for i in range(g.order):
        if assigned[i]:
            continue
        orbit, frontier = {i}, [i]
        while frontier:
            x = frontier.pop()
            for h in range(g.order):
                y = g.conjugate(h, x)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for x in orbit:
            assigned[x] = True
        out.append((min(orbit), tuple(sorted(orbit))))
    return sorted(out)


@pytest.mark.parametrize(
    "spec",
    [
        "A4",
        "S4",
        "A5",
        {"degree": 5, "generators": ["(1,2,3,4,5)", "(1,2)"]},
        {"degree": 7, "generators": ["(1,2,3,4,5,6,7)", "(1,2)(3,6)"]},
    ],
    ids=["A4", "S4", "A5", "S5", "PSL27"],
)
def test_conjugacy_classes_match_bfs_reference(spec):
    g = builtin(spec) if isinstance(spec, str) else group_from_json(spec)
    classes, _ = conjugacy_data(g, 2)
    assert [(c.rep, c.members) for c in classes] == _classes_by_bfs(g)


def test_class_sizes_satisfy_orbit_stabilizer():
    for name in ["A4", "A5", "S4"]:
        g = builtin(name)
        classes, _ = conjugacy_data(g, 2)
        assert sum(len(c.members) for c in classes) == g.order
        for c in classes:
            centralizer = sum(1 for h in range(g.order) if g.conjugate(h, c.rep) == c.rep)
            assert len(c.members) == g.order // centralizer
            assert g.order % len(c.members) == 0


def test_p_core_a4_is_v4():
    g = builtin("A4")
    core = normal_p_core(g, 2)
    assert core.order == 4
    assert core.is_normal()
    v4_members = {0} | {
        g.index_of(parse_cycles(s, 5))
        for s in ["(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"]
    }
    assert set(core.members) == v4_members


def test_p_core_a5_trivial():
    g = builtin("A5")
    # oracle: conjugates of one explicit Sylow 2-subgroup intersect trivially
    v4 = {0} | {
        g.index_of(parse_cycles(s, 5))
        for s in ["(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"]
    }
    meet = set(v4)
    for h in range(g.order):
        meet &= {g.conjugate(h, x) for x in v4}
    assert meet == {0}
    assert normal_p_core(g, 2).members == (0,)


def test_p_core_of_p_group_is_whole():
    g = builtin("C4")
    assert normal_p_core(g, 2).order == 4
    assert sylow_subgroup(g, 2).order == 4


def test_sylow_orders():
    assert sylow_subgroup(builtin("A4"), 2).order == 4
    assert sylow_subgroup(builtin("A4"), 3).order == 3
    assert sylow_subgroup(builtin("A5"), 2).order == 4
    assert sylow_subgroup(builtin("A5"), 5).order == 5


def test_cosets_quotient_a4_mod_v4():
    g = builtin("A4")
    v4 = normal_p_core(g, 2)
    transversal, quot = cosets_and_quotient(g, v4)
    assert len(transversal) == 3
    assert quot is not None
    assert quot.quotient.order == 3
    assert quot.quotient.element_order(1) == 3  # cyclic of order 3
    # projection is a homomorphism
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b = rng.integers(0, g.order, size=2)
        ab = g.mul(int(a), int(b))
        assert quot.projection[ab] == quot.quotient.mul(
            quot.projection[int(a)], quot.projection[int(b)]
        )


def test_cosets_g_mod_g():
    g = builtin("C4")
    transversal, quot = cosets_and_quotient(g, Subgroup.whole(g))
    assert transversal == [0]
    assert quot is not None and quot.quotient.order == 1


def test_cosets_a5_mod_a4_not_normal():
    a5 = builtin("A5")
    a4 = builtin("A4")
    sub = Subgroup.from_perms(a5, list(a4.generator_perms))
    assert sub.order == 12
    transversal, quot = cosets_and_quotient(a5, sub)
    assert len(transversal) == 5
    assert quot is None


def test_subgroup_rejects_non_closed():
    g = builtin("A4")
    three_cycle = g.index_of(parse_cycles("(1,2,3)", 5))
    with pytest.raises(NotSubgroup):
        Subgroup(g, [0, three_cycle])  # closure needs (1,3,2) too
    with pytest.raises(NotSubgroup):
        Subgroup(g, [1, 2])  # missing identity


def test_quotient_order_formula():
    g = builtin("S4")
    for p in [2, 3]:
        core = normal_p_core(g, p)
        transversal, quot = cosets_and_quotient(g, core)
        assert len(transversal) == g.order // core.order
        if quot is not None:
            assert quot.quotient.order == g.order // core.order


def test_group_json_roundtrip():
    g = builtin("A5")
    spec = group_to_json(g)
    assert spec == {"degree": 5, "generators": ["(1,2,3,4,5)", "(1,2,3)"]}
    g2 = group_from_json('{"degree": 5, "generators": ["(1,2,3,4,5)", "(1,2,3)"]}')
    assert g2.order == 60
    assert [p.images for p in g2.elements] == [p.images for p in g.elements]
