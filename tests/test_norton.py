"""Norton's chop of kG inside kG: the minimal polynomial of the drawn element
in kG against the matrix-space Krylov reference, and the chop's quotients of
kG against the generic sub_quotient path."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from modrep import modalg
from modrep.fieldcore import factors_roots_first, field_make
from modrep.linalg import _nullspace_arr
from modrep.modalg import (
    AlgebraElem,
    GroupAlgebra,
    Module,
    _element_minpoly,
    _IdealQuotientModule,
    _matrix_minpoly,
    _poly_at_matrix,
    is_irreducible,
    regular_module,
    sub_quotient,
)
from modrep.permgroup import builtin, group_from_json
from modrep.structure import find_simples

S5 = {"degree": 5, "generators": ["(1,2,3,4,5)", "(1,2)"]}
CASES = [  # (group, p, field degree)
    ("A4", 2, 2), ("A5", 2, 2), ("A5", 5, 1), ("A5", 3, 2),
    ("S4", 3, 1), ("S5", 2, 1), ("C5", 5, 1),
]
_ALGEBRAS = {}


def _algebra(name, p, k):
    key = (name, p, k)
    if key not in _ALGEBRAS:
        group = group_from_json(S5) if name == "S5" else builtin(name)
        _ALGEBRAS[key] = GroupAlgebra(group, field_make(p, k))
    return _ALGEBRAS[key]


@seed(20)
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_element_minpoly_is_the_regular_matrix_minpoly(data):
    a = _algebra(*data.draw(st.sampled_from(CASES)))
    k = a.field
    term = st.tuples(st.integers(0, a.dim - 1), st.integers(1, k.order - 1))
    terms = data.draw(st.lists(term, min_size=1, max_size=8))
    if data.draw(st.booleans()):  # cancel some terms: x may be 0 or have a smaller support
        terms += [(e, int(k.NEG[c])) for e, c in terms[: data.draw(st.integers(1, len(terms)))]]
    x = a.from_coeffs(terms)
    mu = _element_minpoly(a, x.coeffs)
    assert mu == _matrix_minpoly(k, regular_module(a).action_of(x).a)


def test_element_minpoly_of_zero_and_one():
    a = _algebra("A5", 2, 2)
    assert _element_minpoly(a, a.zero().coeffs).coeffs == (0, 1)  # X
    assert _element_minpoly(a, a.one().coeffs).coeffs == (1, 1)  # X + 1 = X - 1


def _live_factors(k, mu, theta):
    """The factors f of mu with ker f(theta) != 0, in factors_roots_first order."""
    fs = list(factors_roots_first(mu))
    return [f for f in fs if _nullspace_arr(k, _poly_at_matrix(k, f.coeffs, theta)).size]


@pytest.mark.parametrize("name, p, k", [("A5", 2, 2), ("S4", 3, 1), ("A5", 3, 2)])
def test_live_factors_agree_on_every_piece_of_a_chop(name, p, k):
    a = _algebra(name, p, k)
    rng = np.random.default_rng(5)
    stack, pieces = [regular_module(a)], 0
    while stack:
        m = stack.pop()
        pieces += 1
        x = a.from_coeffs(
            (int(rng.integers(0, a.dim)), int(rng.integers(1, a.field.order))) for _ in range(3)
        )
        theta = m.action_of(x).a
        mu_a, mu_m = _element_minpoly(a, x.coeffs), _matrix_minpoly(a.field, theta)
        assert _live_factors(a.field, mu_a, theta) == _live_factors(a.field, mu_m, theta)
        verdict = is_irreducible(m, rng)
        if not verdict.irreducible:
            stack.extend(sub_quotient(m, verdict.witness)[::-1])
    assert pieces > 3


@pytest.mark.parametrize("name, p, k", [("A5", 2, 2), ("S5", 2, 1), ("A5", 3, 2)])
def test_quotients_of_kg_act_as_the_generic_quotients(name, p, k):
    # one chop of kG, run twice: on the table-backed quotients and on plain
    # modules with the same generators, split along the same witnesses
    a = _algebra(name, p, k)
    reg = regular_module(a)
    rng = np.random.default_rng(3)
    elems = [AlgebraElem(a, rng.integers(0, a.field.order, a.dim)) for _ in range(2)]
    stack = [(reg, Module(a, reg.gen_action, dim=a.dim, check="off"))]
    quotients = 0
    while stack:
        fast, plain = stack.pop()
        assert fast.gen_action == plain.gen_action
        if isinstance(fast, _IdealQuotientModule):
            quotients += 1
            assert [fast.action_of(x) for x in elems] == [plain.action_of(x) for x in elems]
            assert all(fast.element_mat(g) == plain.element_mat(g) for g in range(a.dim))
            assert fast._mats == {}
        verdict = is_irreducible(fast, rng)
        if verdict.irreducible:
            continue
        (fsub, fquot), (psub, pquot) = (sub_quotient(m, verdict.witness) for m in (fast, plain))
        assert type(pquot) is Module and type(fsub) is Module
        stack += [(fquot, pquot), (fsub, psub)]
    assert quotients > 2


@pytest.mark.parametrize("name, p, k", [("A5", 2, 2), ("S5", 2, 1), ("A5", 3, 2), ("A5", 5, 1)])
def test_matrix_krylov_runs_only_where_it_is_the_narrower(name, p, k, monkeypatch):
    a = _algebra(name, p, k)
    widths = []
    matrix_minpoly = modalg._matrix_minpoly

    def counted(ctx, theta):
        widths.append(theta.shape[0] ** 2)
        return matrix_minpoly(ctx, theta)

    monkeypatch.setattr(modalg, "_matrix_minpoly", counted)
    find_simples(a, 0)
    assert widths and max(widths) <= a.dim

