"""The BLAS matmul kernel, the elimination read-outs, the group-algebra
convolution built on the matmul, and the regular module's action, each against
a plain reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modrep import modalg
from modrep.blocks import module_block_assignment
from modrep.fieldcore import field_make
from modrep.goldens import run_paper_suite, run_property_suite
from modrep.linalg import Mat, Subspace, _matmul_arr, _mul_outer, _nullspace_arr, _rref_arr, solve
from modrep.modalg import AlgebraElem, GroupAlgebra, Module, regular_module
from modrep.permgroup import builtin, group_from_json
from modrep.report import analyze_algebra

KERNEL_FIELDS = [
    field_make(p, k) for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2)]
]
S5 = {"degree": 5, "generators": ["(1,2,3,4,5)", "(1,2)"]}


def _group(name):
    return group_from_json(S5) if name == "S5" else builtin(name)


def _matmul_reference(ctx, a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=ctx.dtype)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for t in range(a.shape[1]):
                acc = ctx.add(acc, ctx.mul(int(a[i, t]), int(b[t, j])))
            out[i, j] = acc
    return out


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_matmul_matches_scalar_reference(data):
    ctx = data.draw(st.sampled_from(KERNEL_FIELDS))
    m, n, l = (data.draw(st.integers(0, 9)) for _ in range(3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, ctx.order, (m, n)).astype(ctx.dtype)
    b = rng.integers(0, ctx.order, (n, l)).astype(ctx.dtype)
    if data.draw(st.booleans()):  # a non-contiguous view, as _spin_arrays passes g.T
        a = np.ascontiguousarray(a.T).T
    if data.draw(st.booleans()):
        b = np.ascontiguousarray(b.T).T
    out = _matmul_arr(ctx, a, b)
    assert out.dtype == ctx.dtype and out.shape == (m, l)
    assert np.array_equal(out, _matmul_reference(ctx, a, b))


@pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=repr)
@pytest.mark.parametrize("shape", [(0, 5, 3), (3, 5, 0), (3, 0, 4), (1, 6, 6), (6, 6, 1)])
def test_matmul_degenerate_shapes(ctx, shape):
    m, n, l = shape
    rng = np.random.default_rng(m * 100 + n * 10 + l)
    a = rng.integers(0, ctx.order, (m, n)).astype(ctx.dtype)
    b = rng.integers(0, ctx.order, (n, l)).astype(ctx.dtype)
    assert np.array_equal(_matmul_arr(ctx, a, b), _matmul_reference(ctx, a, b))


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (7, 1), (3, 2)], ids=["GF2", "GF4", "GF7", "GF9"])
@pytest.mark.parametrize("n", [359, 360])
def test_matmul_exact_at_the_largest_entries(p, k, n):
    # every float64 intermediate is as large as it gets: all entries q - 1
    ctx = field_make(p, k)
    top = ctx.order - 1
    a = np.full((n, n), top, dtype=ctx.dtype)
    expect = ctx.mul(ctx.scalar_from_int(n), ctx.mul(top, top))
    assert np.array_equal(_matmul_arr(ctx, a, a), np.full((n, n), expect, dtype=ctx.dtype))


def test_gf2_outer_product_is_and():
    gf2 = KERNEL_FIELDS[0]
    rng = np.random.default_rng(3)
    col = rng.integers(0, 2, 40).astype(gf2.dtype)
    row = rng.integers(0, 2, 120).astype(gf2.dtype)
    assert np.array_equal(_mul_outer(gf2, col, row), gf2.MUL[col[:, None], row[None, :]])
    m = rng.integers(0, 2, (40, 120)).astype(gf2.dtype)
    r, rank, pivots = _rref_arr(gf2, m)
    assert rank == len(pivots) and np.array_equal(r[:rank, pivots], np.eye(rank, dtype=gf2.dtype))
    assert not r[rank:].any()


def _nullspace_reference(ctx, m):
    """The (free x pivot) loop that _nullspace_arr's one scatter replaced."""
    r, rank, pivots = _rref_arr(ctx, m)
    free = [c for c in range(m.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), m.shape[1]), dtype=ctx.dtype)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for row_idx, pc in enumerate(pivots):
            basis[i, pc] = ctx.NEG[r[row_idx, fc]]
    return basis


def _solve_reference(ctx, a, b):
    r, rank, pivots = _rref_arr(ctx, np.hstack([a, b]))
    if any(pc >= a.shape[1] for pc in pivots):
        return None
    x = np.zeros((a.shape[1], b.shape[1]), dtype=ctx.dtype)
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx, a.shape[1] :]
    return x


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_elimination_readouts_match_the_row_loops(data):
    ctx = data.draw(st.sampled_from([field_make(p, k) for p, k in [(2, 1), (3, 1), (2, 2), (7, 1), (3, 2)]]))
    m, n, l = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8)), data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    density = data.draw(st.sampled_from([0.2, 1.0]))  # sparse ones leave free columns between pivots
    a = (rng.integers(0, ctx.order, (m, n)) * (rng.random((m, n)) < density)).astype(ctx.dtype)
    b = rng.integers(0, ctx.order, (m, l)).astype(ctx.dtype)
    assert np.array_equal(_nullspace_arr(ctx, a), _nullspace_reference(ctx, a))
    x = solve(Mat(ctx, a), Mat(ctx, b))
    want = _solve_reference(ctx, a, b)
    assert (x is None) == (want is None) and (want is None or np.array_equal(x.a, want))
    space = Subspace(ctx, n, Mat(ctx, a))
    assert list(space.pivots()) == [int(np.nonzero(row)[0][0]) for row in space.basis.a]


def _conv_reference(a: GroupAlgebra, x, b):
    """The per-nonzero loop: out[..., gh] += x[g] b[..., h]."""
    k = a.field
    out = np.zeros(b.shape, dtype=k.dtype)
    for g in np.nonzero(x)[0]:
        row = a.group.mult[int(g)]
        out[..., row] = k.ADD[out[..., row], k.MUL[int(x[g])][b]]
    return out


CONV_CASES = [("A4", (2, 2)), ("A5", (3, 2)), ("S5", (2, 1))]
CONV_IDS = ["A4/GF(4)", "A5/GF(9)", "S5/GF(2)"]


@pytest.mark.parametrize("name, field", CONV_CASES, ids=CONV_IDS)
def test_conv_matches_the_per_nonzero_loop(name, field):
    a = GroupAlgebra(_group(name), field_make(*field))
    k = a.field
    rng = np.random.default_rng(5)
    for density in (0.05, 0.5, 1.0):
        x = (rng.integers(0, k.order, a.dim) * (rng.random(a.dim) < density)).astype(k.dtype)
        row = rng.integers(0, k.order, a.dim).astype(k.dtype)
        stack = rng.integers(0, k.order, (7, a.dim)).astype(k.dtype)
        assert np.array_equal(a.conv(x, row), _conv_reference(a, x, row))
        assert np.array_equal(a.conv(x, stack), _conv_reference(a, x, stack))
    eye = np.eye(a.dim, dtype=k.dtype)
    assert np.array_equal(a.conv(x, eye), _conv_reference(a, x, eye))


@pytest.mark.parametrize(
    "name, field", [("A5", (2, 2)), ("S5", (2, 1)), ("A5", (3, 2))],
    ids=["A5/GF(4)", "S5/GF(2)", "A5/GF(9)"],
)
def test_regular_action_is_one_gather(name, field, monkeypatch):
    a = GroupAlgebra(_group(name), field_make(*field))
    k = a.field
    reg = regular_module(a)
    # the same module without the override: sum of c_g rho(g) over the support
    plain = Module(a, reg.gen_action, dim=a.dim, check="off")
    rng = np.random.default_rng(11)
    elems = [
        AlgebraElem(a, (rng.integers(0, k.order, a.dim) * (rng.random(a.dim) < d)).astype(k.dtype))
        for d in (0.1, 1.0)
    ]
    expect = [plain.action_of(e) for e in elems]
    calls = _count_regular_mats(monkeypatch)
    assert [reg.action_of(e) for e in elems] == expect
    assert not calls


@pytest.mark.parametrize("name, field", CONV_CASES, ids=CONV_IDS)
def test_block_assignment_builds_no_element_matrix(name, field, monkeypatch):
    an = analyze_algebra(_group(name), field_make(*field))
    reg = regular_module(an.algebra)
    calls = _count_regular_mats(monkeypatch)
    out = module_block_assignment(reg, an.block_partition)
    assert sum(sub.dim for _, sub in out.pieces) == reg.dim
    assert not calls


def _count_regular_mats(monkeypatch) -> list:
    """Record (group, element) for every element matrix of kG read off the table."""
    calls = []
    table_mat = modalg._regular_mat

    def counted(a, h):
        calls.append((a.group, h))
        return table_mat(a, h)

    monkeypatch.setattr(modalg, "_regular_mat", counted)
    return calls


@pytest.mark.parametrize("name, field", [("A5", (2, 2)), ("S5", (2, 1))], ids=["A5/GF(4)", "S5/GF(2)"])
def test_analysis_builds_only_generator_matrices_of_kg(name, field, monkeypatch):
    calls = _count_regular_mats(monkeypatch)
    assert analyze_algebra(_group(name), field_make(*field)).report.all_passed
    assert calls and all(h in g.generators for g, h in calls)


def test_suites_build_only_generator_matrices_of_kg(monkeypatch):
    calls = _count_regular_mats(monkeypatch)
    run_paper_suite(0)
    run_property_suite(0)
    assert calls and all(h in g.generators for g, h in calls)
