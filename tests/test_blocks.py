import numpy as np
import pytest

from modrep.blocks import (
    _central_character,
    _central_idempotent_strictly_under,
    block_partition,
    cyclic_char_table,
    cyclic_idempotents,
    module_block_assignment,
)
from modrep.errors import (
    IncompleteSimpleSet,
    NonCentralSum,
    NotCyclic,
    NoSuitableRoot,
    OrderDivisibleByP,
    SplittingFieldRequired,
)
from modrep.fieldcore import field_make
from modrep.modalg import (
    GroupAlgebra,
    modules_isomorphic,
    regular_module,
    spin,
    sub_quotient,
    trivial_module,
)
from modrep.permgroup import Subgroup, builtin, conjugacy_data, group_from_json, parse_cycles
from modrep.report import analyze_algebra
from modrep.structure import (
    CartanMatrix,
    cartan_matrix,
    find_simples,
    jacobson_radical,
    primitive_decomposition,
)

GF2 = field_make(2, 1)
GF4 = field_make(2, 2)
GF5 = field_make(5, 1)
W = GF4.omega.val
W2 = GF4.mul(W, W)

_CACHE = {}


def analyzed(name, field, seed=0):
    key = (name, field.order, seed)
    if key not in _CACHE:
        a = GroupAlgebra(builtin(name), field)
        s = find_simples(a, seed)
        rad = jacobson_radical(a, s)
        pims = primitive_decomposition(a, s, rad)
        c = cartan_matrix(a, s, pims)
        bp = block_partition(c, pims, s.simples, s.trivial_index())
        _CACHE[key] = (a, s, rad, pims, c, bp)
    return _CACHE[key]


def test_blocks_ka4_single():
    a, s, rad, pims, c, bp = analyzed("A4", GF4)
    assert bp.parts == [[0, 1, 2]]
    assert bp.principal_index == 0
    assert bp.block_idempotents[0] == a.one()
    assert bp.primitivity_verified == [True]


def test_blocks_ka5_two():
    a, s, rad, pims, c, bp = analyzed("A5", GF4)
    assert bp.count == 2
    # dims-sorted simples: S1 (1), two 2-dims, S4 (4): principal {0,1,2}
    assert bp.parts == [[0, 1, 2], [3]]
    assert bp.principal_index == 0
    assert bp.primitivity_verified == [True, True]
    for e in bp.block_idempotents:
        assert e.is_idempotent()
        assert e.is_central()


def test_blocks_semisimple_kc3():
    a, s, rad, pims, c, bp = analyzed("C3", GF4)
    assert bp.count == 3
    assert all(len(p) == 1 for p in bp.parts)
    total = a.zero()
    for e in bp.block_idempotents:
        total = total + e
    assert total == a.one()


@pytest.mark.parametrize(
    "degree, p, d", [(7, 2, 3), (5, 2, 4)], ids=["C7/GF(8)", "C5/GF(16)"]
)
def test_primitivity_certified_beyond_brute_force(degree, p, d):
    # q^#classes = 8^7 and 16^5 center elements: out of reach of a search
    cycle = "(" + ",".join(str(i) for i in range(1, degree + 1)) + ")"
    group = group_from_json({"degree": degree, "generators": [cycle]})
    an = analyze_algebra(group, field_make(p, d), seed=0)
    assert an.block_partition.count == degree
    assert an.block_partition.primitivity_verified == [True] * degree
    status = {c.name: c.passed for c in an.report.certificates}
    assert status["block_idempotents_primitive"]


def test_central_idempotent_strictly_under_witness():
    a, s, rad, pims, c, bp = analyzed("A5", GF4)
    classes, _ = conjugacy_data(a.group, 2)
    omegas = [_central_character(m, classes) for m in s.simples]
    # the two blocks merged: the principal block's simples lie strictly under
    assert _central_idempotent_strictly_under(omegas, [0, 1, 2, 3]) == [0, 1, 2]
    assert _central_idempotent_strictly_under(omegas, [0, 1, 2]) is None
    assert _central_idempotent_strictly_under(omegas, [3]) is None


def test_central_character_needs_absolutely_simple():
    a = GroupAlgebra(builtin("C3"), GF2)
    s = find_simples(a, 0)
    assert [m.dim for m in s.simples] == [1, 2]  # GF(2) lacks cube roots of 1
    classes, _ = conjugacy_data(a.group, 2)
    assert _central_character(s.simples[0], classes) == (1, 1, 1)
    with pytest.raises(SplittingFieldRequired):
        _central_character(s.simples[1], classes)


def test_block_partition_needs_every_simple():
    a, s, rad, pims, c, bp = analyzed("A5", GF4)
    with pytest.raises(IncompleteSimpleSet):
        block_partition(c, pims, s.simples[:-1], s.trivial_index())


def test_block_partition_rejects_a_non_central_linkage_sum():
    # kA4/GF(4) is one block; a diagonal Cartan matrix would make each
    # single primitive idempotent a block idempotent, and none is central
    a, s, rad, pims, c, bp = analyzed("A4", GF4)
    diagonal = CartanMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    with pytest.raises(NonCentralSum):
        block_partition(diagonal, pims, s.simples, s.trivial_index())


def test_block_invariants_sum_orthogonal_central():
    for name, field in [("A4", GF4), ("A5", GF4), ("V4", GF2)]:
        a, s, rad, pims, c, bp = analyzed(name, field)
        total = a.zero()
        for e in bp.block_idempotents:
            total = total + e
            for f in bp.block_idempotents:
                if e is not f:
                    assert (e * f).is_zero()
        assert total == a.one()
        for e in bp.block_idempotents:
            assert e.is_central()


def test_every_pim_in_exactly_one_block():
    a, s, rad, pims, c, bp = analyzed("A5", GF4)
    assert len(pims.pims) == len(s.simples)
    reg = regular_module(a)
    for j, f in enumerate(pims.idempotents):
        pim, _ = sub_quotient(reg, spin(reg, [f.coeffs]))  # A f_j
        hits = []
        for b, e in enumerate(bp.block_idempotents):
            act = pim.action_of(e)
            if act == act @ act and act.rank() == pim.dim:
                hits.append(b)
        assert hits == [bp.block_of_simple(pims.assignment[j])]


# ------------------------------------------------------ cyclic idempotents --


def test_char_table_c3_over_gf4():
    t = cyclic_char_table(GF4, 3)
    assert t.root == W  # least-indexed element of order 3
    assert t.values[0] == [1, 1, 1]
    assert t.is_orthogonal(GF4)


def test_char_table_rejects_bad_order():
    with pytest.raises(OrderDivisibleByP):
        cyclic_char_table(GF4, 2)
    with pytest.raises(NoSuitableRoot):
        cyclic_char_table(GF4, 5)


def test_cyclic_idempotents_golden_values():
    a, s, rad, pims, c, bp = analyzed("A4", GF4)
    g = a.group
    r = g.index_of(parse_cycles("(1,2,3)", 5))
    r2 = g.index_of(parse_cycles("(1,3,2)", 5))
    sub = Subgroup(g, [0, r, r2])
    es = cyclic_idempotents(a, sub)
    assert len(es) == 3
    # coefficient-exact golden values
    def coeffs_of(e):
        return {int(i): int(e.coeffs[i]) for i in np.nonzero(e.coeffs)[0]}

    assert coeffs_of(es[0]) == {0: 1, r: 1, r2: 1}
    assert coeffs_of(es[1]) == {0: 1, r: W, r2: W2}
    assert coeffs_of(es[2]) == {0: 1, r: W2, r2: W}
    total = a.zero()
    for e in es:
        assert e.is_idempotent()
        total = total + e
    assert total == a.one()
    for i in range(3):
        for j in range(3):
            if i != j:
                assert (es[i] * es[j]).is_zero()


def test_cyclic_idempotents_trivial_subgroup():
    a = GroupAlgebra(builtin("A4"), GF4)
    es = cyclic_idempotents(a, Subgroup(a.group, [0]))
    assert len(es) == 1 and es[0] == a.one()


def test_cyclic_idempotents_not_cyclic():
    a = GroupAlgebra(builtin("A4"), GF4)
    v4 = Subgroup.from_perms(a.group, [parse_cycles("(1,2)(3,4)", 5), parse_cycles("(1,3)(2,4)", 5)])
    with pytest.raises(NotCyclic):
        cyclic_idempotents(a, v4)


def test_spinning_cyclic_idempotents_gives_the_pims():
    a, s, rad, pims, c, bp = analyzed("A4", GF4)
    g = a.group
    r = g.index_of(parse_cycles("(1,2,3)", 5))
    sub = Subgroup(g, sorted({0, r, g.mul(r, r)}))
    es = cyclic_idempotents(a, sub)
    reg = regular_module(a)
    spun = []
    for e in es:
        space = spin(reg, [e.coeffs])
        piece, _ = sub_quotient(reg, space)
        assert piece.dim == 4
        spun.append(piece)
    qs = [pims.pim_for_simple(i) for i in range(3)]
    # each spun ideal is one of the Q's, and all three appear
    matches = []
    for piece in spun:
        hit = [i for i, q in enumerate(qs) if modules_isomorphic(piece, q, 0)]
        assert len(hit) == 1
        matches.append(hit[0])
    assert sorted(matches) == [0, 1, 2]


# ------------------------------------------------------- block assignment --


def test_assignment_trivial_module_principal():
    a, s, rad, pims, c, bp = analyzed("A5", GF4)
    t = trivial_module(a)
    res = module_block_assignment(t, bp)
    assert res.block_index == bp.principal_index


def test_assignment_s4_nonprincipal():
    a, s, rad, pims, c, bp = analyzed("A5", GF4)
    s4 = s.simples[3]
    res = module_block_assignment(s4, bp)
    assert res.block_index is not None
    assert res.block_index != bp.principal_index


def test_assignment_regular_ka5_splits_44_16():
    a, s, rad, pims, c, bp = analyzed("A5", GF4)
    reg = regular_module(a)
    res = module_block_assignment(reg, bp)
    assert res.decomposable
    dims = {b: piece.dim for b, piece in res.pieces}
    assert dims == {0: 44, 1: 16}
