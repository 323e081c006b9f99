import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionseed import gfp
from fusionseed.errors import DimensionMismatch, PrimeMismatch
from fusionseed.gfp import FpMatrix, Prime, Subspace


def five_cycle():
    a = np.zeros((5, 5), dtype=np.int64)
    for i in range(5):
        a[(i + 1) % 5, i] = 1
    return FpMatrix(5, a)


def test_prime_validation():
    assert int(Prime(5)) == 5
    for bad in (2, 4, 9, 1, 101):
        with pytest.raises(ValueError):
            Prime(bad)


def test_rref_identity_and_zero():
    ident = FpMatrix.identity(5, 3)
    r, rank = gfp.rref(ident)
    assert r == ident and rank == 3
    z = FpMatrix(3, np.zeros((2, 4), dtype=np.int64))
    r, rank = gfp.rref(z)
    assert rank == 0 and not r.a.any()


def test_rref_hand_example():
    r, rank = gfp.rref(FpMatrix(5, [[1, 1], [2, 2]]))
    assert r.a.tolist() == [[1, 1], [0, 0]]
    assert rank == 1


def test_rref_idempotent_and_canonical():
    m = FpMatrix(7, [[2, 3, 1], [4, 6, 2], [1, 0, 5]])
    r1, k1 = gfp.rref(m)
    r2, k2 = gfp.rref(r1)
    assert r1 == r2 and k1 == k2
    # row-equivalent matrix gives the identical canonical form
    swapped = FpMatrix(7, m.a[[1, 0, 2]] * 3 % 7)
    r3, k3 = gfp.rref(swapped)
    assert r3 == r1


def test_kernel_identity_zero_and_cycle():
    assert gfp.kernel_basis(FpMatrix.identity(5, 4)).dim == 0
    zero = FpMatrix(5, np.zeros((3, 3), dtype=np.int64))
    assert gfp.kernel_basis(zero).dim == 3
    x = five_cycle()
    k = gfp.kernel_basis(x - FpMatrix.identity(5, 5))
    assert k.dim == 1
    assert k.contains_vector([1, 1, 1, 1, 1])


def test_image_and_intersect_permutation():
    x = five_cycle()
    im = gfp.image_basis(x - FpMatrix.identity(5, 5))
    assert im.dim == 4
    # zero-sum hyperplane
    assert all(int(v.sum()) % 5 == 0 for v in im.basis)
    ones = Subspace(5, 5, np.ones((1, 5), dtype=np.int64))
    meet = gfp.intersect(ones, im)
    assert meet == ones  # 5 * 1 = 0 mod 5


def test_contains_and_sum():
    full = Subspace.full(5, 5)
    ones = Subspace(5, 5, np.ones((1, 5), dtype=np.int64))
    assert gfp.contains(full, ones)
    assert not gfp.contains(ones, full)
    assert gfp.add(ones, full) == full


def test_solve():
    m = FpMatrix(5, [[1, 2], [3, 4]])
    x = gfp.solve(m, [1, 0])
    assert ((m.a @ x) % 5 == [1, 0]).all()
    singular = FpMatrix(5, [[1, 1], [2, 2]])
    assert gfp.solve(singular, [0, 1]) is None


def test_mismatch_errors():
    with pytest.raises(PrimeMismatch):
        gfp.intersect(Subspace.full(5, 2), Subspace.full(7, 2))
    with pytest.raises(DimensionMismatch):
        gfp.add(Subspace.full(5, 2), Subspace.full(5, 3))


def test_operators_reject_non_matrices():
    m = FpMatrix(5, [[1, 1], [0, 1]])
    with pytest.raises(TypeError):
        m @ 3
    with pytest.raises(TypeError):
        m + 3
    with pytest.raises(TypeError):
        m - 3


def test_inverse_and_order():
    m = FpMatrix(7, [[1, 1], [0, 1]])
    assert m.order() == 7
    assert (m @ m.inverse()) == FpMatrix.identity(7, 2)
    with pytest.raises(ZeroDivisionError):
        FpMatrix(5, [[1, 1], [2, 2]]).inverse()


@st.composite
def fp_matrix(draw, p=5, max_n=5):
    rows = draw(st.integers(1, max_n))
    cols = draw(st.integers(1, max_n))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                            max_size=rows * cols))
    return FpMatrix(p, np.array(entries).reshape(rows, cols))


@settings(max_examples=60, deadline=None)
@given(fp_matrix())
def test_rank_nullity(m):
    assert gfp.kernel_basis(m).dim + gfp.rank(m) == m.cols


@settings(max_examples=40, deadline=None)
@given(fp_matrix(max_n=4), fp_matrix(max_n=4))
def test_modular_dimension_law(a, b):
    # dim(A + B) + dim(A meet B) = dim A + dim B for row spaces
    n = max(a.cols, b.cols)
    pa = np.zeros((a.rows, n), dtype=np.int64)
    pa[:, :a.cols] = a.a
    pb = np.zeros((b.rows, n), dtype=np.int64)
    pb[:, :b.cols] = b.a
    sa = Subspace(5, n, pa)
    sb = Subspace(5, n, pb)
    lhs = gfp.add(sa, sb).dim + gfp.intersect(sa, sb).dim
    assert lhs == sa.dim + sb.dim


@st.composite
def solve_systems(draw):
    """(m, rhs) over p in {3, 5, 7}: m = L R with inner dimension r, so
    rank-deficient systems are frequent, and rhs mixes rows m x, which
    are consistent, with free rows, which are often not."""
    p = draw(st.sampled_from([3, 5, 7]))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    r = draw(st.integers(0, min(rows, cols)))

    def block(h, w):
        return np.array(draw(st.lists(st.integers(0, p - 1), min_size=h * w,
                                      max_size=h * w)),
                        dtype=np.int64).reshape(h, w)
    m = block(rows, r) @ block(r, cols) % p
    k = draw(st.integers(1, 6))
    rhs = np.concatenate([block(k, cols) @ m.T % p, block(k, rows)])
    return FpMatrix(p, m), rhs


@settings(max_examples=80, deadline=None, derandomize=True)
@given(solve_systems())
def test_solve_many_equals_solve_row_by_row(system):
    m, rhs = system
    xs, ok = gfp.solve_many(m, rhs)
    assert xs.shape == (len(rhs), m.cols) and ok[:len(rhs) // 2].all()
    for b, x, good in zip(rhs, xs, ok):
        want = gfp.solve(m, b)
        assert good == (want is not None)
        if good:
            assert (x == want).all()


def test_solve_many_inconsistent_and_rank_deficient():
    singular = FpMatrix(5, [[1, 1], [2, 2]])
    xs, ok = gfp.solve_many(singular, [[0, 1], [1, 2], [0, 0]])
    assert ok.tolist() == [False, True, True]
    assert xs.tolist() == [[0, 0], [1, 0], [0, 0]]
    with pytest.raises(DimensionMismatch):
        gfp.solve_many(singular, [1, 2])
