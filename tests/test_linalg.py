import itertools

import numpy as np
import pytest

from modrep.errors import AmbientMismatch, ShapeMismatch
from modrep.fieldcore import field_make
from modrep.linalg import (
    Mat, Subspace, _kron_arr, _matmul_arr, nullspace, rref, solve, subspace_ops,
)

GF2 = field_make(2, 1)
GF4 = field_make(2, 2)
GF5 = field_make(5, 1)
FIELDS = [GF2, GF4, GF5, field_make(3, 1)]

W = GF4.omega.val  # encoding 2
W2 = GF4.mul(W, W)  # encoding 3


def random_mat(ctx, rows, cols, rng):
    return Mat(ctx, rng.integers(0, ctx.order, size=(rows, cols)).astype(ctx.dtype))


def test_rref_identity_and_zero():
    i3 = Mat.identity(GF4, 3)
    r, rank, piv = rref(i3)
    assert r == i3 and rank == 3 and piv == [0, 1, 2]
    z = Mat.zeros(GF2, 2, 4)
    r, rank, piv = rref(z)
    assert r == z and rank == 0 and piv == []


def test_rref_hand_example_gf2():
    # hand row-reduction: r2 <- r2 + r1
    m = Mat.from_rows(GF2, [[1, 1], [1, 1]])
    r, rank, piv = rref(m)
    assert r.tolist() == [[1, 1], [0, 0]]
    assert rank == 1 and piv == [0]


def test_rref_idempotent_and_canonical():
    rng = np.random.default_rng(7)
    for ctx in FIELDS:
        for _ in range(20):
            m = random_mat(ctx, 5, 7, rng)
            r1, _, _ = rref(m)
            r2, _, _ = rref(r1)
            assert r1 == r2
            # row-equivalent matrix: random invertible row mix
            while True:
                t = random_mat(ctx, 5, 5, rng)
                if t.rank() == 5:
                    break
            assert rref(t @ m)[0] == r1


def test_solve_identity_and_inconsistent():
    b = Mat.from_rows(GF5, [[1], [2], [3]])
    x = solve(Mat.identity(GF5, 3), b)
    assert x == b
    assert solve(Mat.zeros(GF2, 2, 2), Mat.from_rows(GF2, [[1], [0]])) is None


def test_solve_gf4_scalar():
    # w * x = 1  =>  x = w^2 since w^3 = 1
    a = Mat.from_rows(GF4, [[W]])
    b = Mat.from_rows(GF4, [[1]])
    assert solve(a, b).tolist() == [[W2]]


def test_solve_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        solve(Mat.zeros(GF2, 2, 2), Mat.zeros(GF2, 3, 1))


def test_solve_general_solution_via_nullspace():
    rng = np.random.default_rng(3)
    for ctx in FIELDS:
        a = random_mat(ctx, 4, 6, rng)
        xtrue = random_mat(ctx, 6, 2, rng)
        b = a @ xtrue
        x = solve(a, b)
        assert x is not None and (a @ x) == b
        ns = nullspace(a)
        assert a @ ns.T == Mat.zeros(ctx, 4, ns.rows)


def test_rank_nullity_on_random_matrices():
    rng = np.random.default_rng(11)
    for ctx in FIELDS:
        for _ in range(200):
            rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            m = random_mat(ctx, rows, cols, rng)
            assert m.rank() + nullspace(m).rows == cols


def test_matmul_against_schoolbook():
    rng = np.random.default_rng(5)
    for ctx in FIELDS:
        a = random_mat(ctx, 3, 4, rng)
        b = random_mat(ctx, 4, 2, rng)
        c = (a @ b).a
        for i in range(3):
            for j in range(2):
                acc = 0
                for k in range(4):
                    acc = ctx.add(acc, ctx.mul(int(a.a[i, k]), int(b.a[k, j])))
                assert acc == int(c[i, j])


def test_inverse():
    m = Mat.from_rows(GF4, [[W, 1], [0, W2]])
    inv = m.inverse()
    assert m @ inv == Mat.identity(GF4, 2)
    with pytest.raises(ShapeMismatch):
        Mat.zeros(GF2, 2, 2).inverse()


def test_field_kron_small():
    a = Mat.from_rows(GF4, [[W]])
    b = Mat.from_rows(GF4, [[W, 1]])
    assert _kron_arr(GF4, a.a, b.a).tolist() == [[W2, W]]


def test_subspace_idempotence():
    u = Subspace.from_vectors(GF2, 3, [[1, 0, 1], [0, 1, 1]])
    total, meet = subspace_ops(u, u)
    assert total == u and meet == u


def test_subspace_complementary_lines():
    u = Subspace.from_vectors(GF2, 2, [[1, 0]])
    v = Subspace.from_vectors(GF2, 2, [[0, 1]])
    total, meet = subspace_ops(u, v)
    assert total == Subspace.full(GF2, 2)
    assert meet.dim == 0


def test_subspace_klein_ideal_example():
    # k[X,Y]/<X^2,Y^2> over GF(2) with basis (1, X, Y, XY):
    # <X> = span{X, XY}, <Y> = span{Y, XY}
    ix = Subspace.from_vectors(GF2, 4, [[0, 1, 0, 0], [0, 0, 0, 1]])
    iy = Subspace.from_vectors(GF2, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    total, meet = subspace_ops(ix, iy)
    assert meet == Subspace.from_vectors(GF2, 4, [[0, 0, 0, 1]])  # span{XY}
    rad = Subspace.from_vectors(GF2, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert total == rad


def test_subspace_dimension_formula_random():
    rng = np.random.default_rng(17)
    for ctx in FIELDS:
        for _ in range(50):
            n = int(rng.integers(1, 8))
            u = Subspace.from_vectors(ctx, n, rng.integers(0, ctx.order, size=(3, n)))
            v = Subspace.from_vectors(ctx, n, rng.integers(0, ctx.order, size=(3, n)))
            total, meet = subspace_ops(u, v)
            assert total.dim + meet.dim == u.dim + v.dim
            assert total.contains_space(u) and total.contains_space(v)
            assert u.contains_space(meet) and v.contains_space(meet)


def test_subspace_ambient_mismatch():
    u = Subspace.full(GF2, 2)
    v = Subspace.full(GF2, 3)
    with pytest.raises(AmbientMismatch):
        subspace_ops(u, v)


def test_subspace_reduce_and_coords():
    u = Subspace.from_vectors(GF4, 3, [[1, W, 0], [0, 0, 1]])
    vec = np.array([1, W, W2], dtype=GF4.dtype)
    assert u.contains(vec)
    c = u.coords(vec)
    # recombine c against basis rows
    back = np.zeros(3, dtype=GF4.dtype)
    for ci, row in zip(c, u.basis.a):
        back ^= GF4.MUL[int(ci)][row]
    assert np.array_equal(back, vec)


def test_subspace_pivots_of_k0():
    assert Subspace.zero(GF2, 0).pivots().size == 0


@pytest.mark.parametrize("ctx", [GF2, field_make(3, 1), GF4, field_make(3, 2)], ids=str)
def test_extend_equals_reelimination(ctx):
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = int(rng.integers(0, 9))
        u = Subspace(ctx, n, random_mat(ctx, int(rng.integers(0, n + 2)), n, rng))
        kind = trial % 4
        if kind == 0:  # random rows
            rows = random_mat(ctx, int(rng.integers(1, 5)), n, rng).a
        elif kind == 1:  # rows already in u
            rows = _matmul_arr(ctx, random_mat(ctx, 3, u.dim, rng).a, u.basis.a)
        elif kind == 2:  # zero rows among random ones
            rows = np.vstack([np.zeros((2, n), dtype=ctx.dtype), random_mat(ctx, 1, n, rng).a])
        else:  # no rows
            rows = np.zeros((0, n), dtype=ctx.dtype)
        grown, fresh = u.extend(rows)
        reference = Subspace(ctx, n, Mat(ctx, np.vstack([u.basis.a, rows])))
        assert grown == reference
        assert list(grown.pivots()) == [int(np.flatnonzero(r)[0]) for r in grown.basis.a]
        assert grown.dim == u.dim + fresh.shape[0]
        assert Subspace(ctx, n, Mat(ctx, np.vstack([u.basis.a, fresh]))) == grown
        assert Subspace(ctx, n, Mat(ctx, fresh)).basis.a.tolist() == fresh.tolist()  # fresh is RREF
        assert not fresh[:, u.pivots()].any()
        if kind in (1, 3):
            assert fresh.shape[0] == 0 and grown == u


def test_pivots_are_read_only():
    u = Subspace.from_vectors(GF4, 3, [[1, W, 0], [0, 0, 1]])
    grown, _ = u.extend(np.array([[0, 1, 0]], dtype=GF4.dtype))
    for space in (u, grown, Subspace.zero(GF2, 3), Subspace.full(GF2, 3)):
        with pytest.raises(ValueError):
            space.pivots()[:1] = 2
    assert list(u.pivots()) == [0, 2] and list(grown.pivots()) == [0, 1, 2]


def test_matrices_are_read_only():
    s = Subspace.full(GF2, 3)
    with pytest.raises(ValueError):
        s.basis.a[0, 1] = 1
    assert s.contains([1, 0, 0]) and not s.basis.a[0, 1]
    m = Mat.from_rows(GF4, [[1, W], [0, 1]])
    h = hash(m)
    with pytest.raises(ValueError):
        m.a[0, 1] = 0
    assert hash(m) == h and m.tolist() == [[1, W], [0, 1]]


def span_set(space, p):
    """Every vector of a subspace of GF(p)^n, by integer arithmetic mod p."""
    coeffs = itertools.product(range(p), repeat=space.dim)
    return {tuple(np.array(c, dtype=int) @ space.basis.a.astype(int) % p) for c in coeffs}


@pytest.mark.parametrize("p", [2, 3])
def test_subspace_ops_brute_force(p):
    ctx = field_make(p, 1)
    rng = np.random.default_rng(p)
    for n in range(5):
        for _ in range(20):
            u = Subspace(ctx, n, random_mat(ctx, int(rng.integers(0, n + 1)), n, rng))
            v = Subspace(ctx, n, random_mat(ctx, int(rng.integers(0, n + 1)), n, rng))
            total, meet = subspace_ops(u, v)
            su, sv = span_set(u, p), span_set(v, p)
            assert span_set(meet, p) == su & sv
            assert span_set(total, p) == {tuple((np.array(a) + b) % p) for a in su for b in sv}
