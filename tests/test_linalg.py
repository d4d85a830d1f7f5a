"""Tests for the exact linear algebra layer."""

import math
import random
from fractions import Fraction

import pytest

from liecontact.linalg import (DualRat, Mat, commutator, det, exp_float,
                               exp_nilpotent, invert, jacobi_failures,
                               max_abs, rank_kernel, rat, rat_sqrt,
                               solve_linear, structure_table)


def test_rat_accepts_exact_inputs():
    assert rat(3) == Fraction(3)
    assert rat("2/5") == Fraction(2, 5)
    assert rat(Fraction(-7, 3)) == Fraction(-7, 3)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_rat_sqrt_perfect_squares():
    assert rat_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rat_sqrt(Fraction(0)) == 0
    with pytest.raises(ValueError):
        rat_sqrt(Fraction(2))
    with pytest.raises(ValueError):
        rat_sqrt(Fraction(-1))


def test_dual_arithmetic_is_first_order():
    x = DualRat(3, 1)
    y = x * x
    assert (y.re, y.du) == (9, 6)
    z = DualRat(1) / x
    assert (z.re, z.du) == (Fraction(1, 3), Fraction(-1, 9))
    s = DualRat(4, 5).sqrt()
    assert (s.re, s.du) == (2, Fraction(5, 4))
    a = abs(DualRat(-2, 3))
    assert (a.re, a.du) == (2, -3)


def test_dual_mixes_with_fractions():
    x = Fraction(2) + DualRat(1, 1) * Fraction(3)
    assert (x.re, x.du) == (5, 3)
    y = Fraction(1, 2) * DualRat(4, 2)
    assert (y.re, y.du) == (2, 1)


def test_mat_basic_operations():
    a = Mat([[1, 2], [3, 4]]).map(Fraction)
    b = Mat.identity(2)
    assert a * b == a
    assert (a - a).is_zero()
    assert a.T == Mat([[1, 3], [2, 4]]).map(Fraction)
    assert a.trace() == 5
    assert det(a) == -2
    assert invert(a) * a == b


def test_mat_block_assembly():
    a = Mat.identity(2)
    z = Mat.zeros(2, 2)
    m = Mat.block([[a, z], [z, a]])
    assert m == Mat.identity(4)


def test_rank_kernel_identity():
    rank, kernel = rank_kernel(Mat.identity(3))
    assert rank == 3
    assert kernel == []


def test_rank_kernel_zero_matrix():
    rank, kernel = rank_kernel(Mat.zeros(2, 3))
    assert rank == 0
    assert len(kernel) == 3


def test_rank_kernel_rank_one():
    rank, kernel = rank_kernel(Mat([[1, 2], [2, 4]]).map(Fraction))
    assert rank == 1
    assert len(kernel) == 1
    v = kernel[0]
    # the kernel is the line through (-2, 1)
    assert v[0, 0] * 1 == v[1, 0] * (-2)
    assert not v.is_zero()


def test_rank_plus_kernel_dimension_on_random_matrices():
    rng = random.Random(1)
    for _ in range(60):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = Mat([[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                  for _ in range(cols)] for _ in range(rows)])
        rank, kernel = rank_kernel(m)
        assert rank + len(kernel) == cols
        for v in kernel:
            assert (m * v).is_zero()


def test_solve_linear_identity():
    b = Mat.col([Fraction(5), Fraction(-3)])
    assert solve_linear(Mat.identity(2), b) == b


def test_solve_linear_diagonal():
    a = Mat([[2, 0], [0, 3]]).map(Fraction)
    x = solve_linear(a, Mat.col([Fraction(1), Fraction(1)]))
    assert x == Mat.col([Fraction(1, 2), Fraction(1, 3)])


def test_solve_linear_inconsistent():
    a = Mat([[1, 1], [1, 1]]).map(Fraction)
    assert solve_linear(a, Mat.col([Fraction(1), Fraction(2)])) is None


def test_solve_linear_contract_violations():
    a = Mat.identity(2)
    with pytest.raises(ValueError):
        solve_linear(a, Mat.col([Fraction(1)]))
    with pytest.raises(ValueError):
        solve_linear(a, Mat.identity(2))


def test_solve_linear_reproduces_rhs_on_consistent_systems():
    rng = random.Random(2)
    for _ in range(200):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        a = Mat([[Fraction(rng.randrange(-3, 4)) for _ in range(cols)]
                 for _ in range(rows)])
        hidden = Mat.col([Fraction(rng.randrange(-3, 4))
                          for _ in range(cols)])
        b = a * hidden
        x = solve_linear(a, b)
        assert x is not None
        assert a * x == b


def test_invert_rejects_singular():
    with pytest.raises(ValueError):
        invert(Mat([[1, 2], [2, 4]]).map(Fraction))


def test_exp_nilpotent_zero_and_strictly_upper():
    assert exp_nilpotent(Mat.zeros(3, 3), 1) == Mat.identity(3)
    m = Mat([[0, 5], [0, 0]]).map(Fraction)
    assert exp_nilpotent(m, 2) == Mat.identity(2) + m


def test_exp_nilpotent_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        exp_nilpotent(Mat.identity(2), 3)


def test_exp_nilpotent_inverse_property():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(2, 5)
        m = Mat([[Fraction(rng.randrange(-3, 4)) if j > i else Fraction(0)
                  for j in range(n)] for i in range(n)])
        prod = exp_nilpotent(m, n) * exp_nilpotent(-1 * m, n)
        assert prod == Mat.identity(n)


def test_exp_nilpotent_matches_the_explicit_sum():
    # dense nilpotent matrices P N P^-1 with N strictly upper triangular,
    # against sum_{j<k} m^j / j! with each power built by its own products
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randrange(1, 6)
        upper = Mat([[Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
                      if j > i else Fraction(0) for j in range(n)]
                     for i in range(n)])
        while True:
            p = Mat([[Fraction(rng.randrange(-3, 4)) for _ in range(n)]
                     for _ in range(n)])
            if det(p) != 0:
                break
        m = p * upper * invert(p)
        k = next(j for j in range(1, n + 1)
                 if _mat_power(m, j) == Mat.zeros(n, n))
        expected = Mat.identity(n)
        for j in range(1, k):
            expected = expected + Fraction(1, math.factorial(j)) * _mat_power(m, j)
        for bound in range(k, n + 2):
            assert exp_nilpotent(m, bound) == expected
        if k > 1:
            with pytest.raises(ValueError, match=r"m\^%d != 0, not nilpotent"
                               % (k - 1)):
                exp_nilpotent(m, k - 1)


def test_exp_nilpotent_bound_zero_always_raises():
    with pytest.raises(ValueError, match=r"m\^0 != 0"):
        exp_nilpotent(Mat.zeros(2, 2), 0)


def _mat_power(m, j):
    out = m
    for _ in range(j - 1):
        out = Mat(_ref_product(out, m))
    return out


def test_exp_float_matches_scalar_exponential():
    assert exp_float(Mat.zeros(2, 2, zero=0.0)) == Mat.identity(2, one=1.0)
    m = Mat([[math.log(2.0), 0.0], [0.0, 0.0]])
    out = exp_float(m)
    assert abs(out[0, 0] - 2.0) < 1e-12
    assert abs(out[1, 1] - 1.0) < 1e-12
    assert abs(out[0, 1]) < 1e-12


def test_exp_float_agrees_with_exp_nilpotent():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randrange(2, 5)
        m = Mat([[Fraction(rng.randrange(-2, 3)) if j > i else Fraction(0)
                  for j in range(n)] for i in range(n)])
        exact = exp_nilpotent(m, n).map(float)
        approx = exp_float(m.map(float))
        assert max_abs(exact - approx) < 1e-12


def test_commutator_antisymmetry():
    a = Mat([[1, 2], [0, 1]]).map(Fraction)
    b = Mat([[0, 1], [1, 0]]).map(Fraction)
    assert commutator(a, b) == -1 * commutator(b, a)


# ---------------------------------------------------------------------------
# the exact product kernel against a triple-loop Fraction reference


def _ref_product(a, b):
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = Fraction(0)
            for k in range(a.cols):
                acc += a[i, k] * b[k, j]
            row.append(acc)
        out.append(row)
    return out


def _rand_entry(rng, density):
    if rng.random() >= density:
        return Fraction(0)
    if rng.random() < 0.2:
        # entries of 100 bits and more, either sign
        num = rng.randrange(-(1 << 130), 1 << 130)
        return Fraction(num, rng.randrange(1, 1 << 110))
    return Fraction(rng.randrange(-9, 10), rng.randrange(1, 13))


def _rand_fraction_mat(rng, rows, cols, density):
    return Mat([[_rand_entry(rng, density) for _ in range(cols)]
                for _ in range(rows)])


def _assert_fraction_entries(m):
    assert all(type(e) is Fraction for r in m.data for e in r)


@pytest.mark.parametrize("density", [0, 0.05, 0.3, 1])
def test_kernel_product_matches_triple_loop(density):
    rng = random.Random(int(density * 100) + 7)
    shapes = [(1, 5, 4), (4, 5, 1), (1, 1, 1), (3, 4, 2), (2, 6, 5),
              (6, 6, 6), (5, 1, 3)]
    for _ in range(6):
        for r, k, c in shapes:
            a = _rand_fraction_mat(rng, r, k, density)
            b = _rand_fraction_mat(rng, k, c, density)
            prod = a * b
            assert (prod.rows, prod.cols) == (r, c)
            assert [list(row) for row in prod.data] == _ref_product(a, b)
            _assert_fraction_entries(prod)


@pytest.mark.parametrize("density", [0, 0.05, 0.3, 1])
def test_kernel_commutator_matches_reference(density):
    rng = random.Random(int(density * 100) + 11)
    for n in (1, 2, 5, 8):
        for _ in range(4):
            a = _rand_fraction_mat(rng, n, n, density)
            b = _rand_fraction_mat(rng, n, n, density)
            ab = _ref_product(a, b)
            ba = _ref_product(b, a)
            ref = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]
            comm = commutator(a, b)
            assert [list(row) for row in comm.data] == ref
            _assert_fraction_entries(comm)


def test_kernel_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        Mat.identity(2) * Mat.identity(3)
    with pytest.raises(ValueError, match="shape mismatch"):
        commutator(Mat.zeros(2, 3), Mat.zeros(3, 2))


def _signed(m):
    return [[(x, math.copysign(1.0, x)) for x in r] for r in m.data]


def test_float_products_keep_signed_zeros():
    out = Mat([[-1.0]]) * Mat([[0.0]])
    assert math.copysign(1.0, out[0, 0]) == -1.0
    a = Mat([[-1.0, 0.0], [2.5, -0.0]])
    b = Mat([[0.0, -3.0], [-0.0, 0.5]])
    expect = [[a[i, 0] * b[0, j] + a[i, 1] * b[1, j] for j in range(2)]
              for i in range(2)]
    assert _signed(a * b) == [[(x, math.copysign(1.0, x)) for x in r]
                              for r in expect]
    assert all(type(e) is float for r in (a * b).data for e in r)
    comm = commutator(a, b)
    assert _signed(comm) == _signed(a * b - b * a)


def test_dual_and_mixed_products_are_unchanged():
    a = Mat([[DualRat(1, 2), DualRat(0, 1)], [DualRat(3), DualRat(-1, 1)]])
    b = Mat([[Fraction(1, 2), Fraction(0)], [Fraction(2), Fraction(-3)]])
    prod = a * b
    for i in range(2):
        for j in range(2):
            ref = a[i, 0] * b[0, j] + a[i, 1] * b[1, j]
            assert isinstance(prod[i, j], DualRat)
            assert (prod[i, j].re, prod[i, j].du) == (ref.re, ref.du)
    mixed = Mat([[1, Fraction(1, 2)], [0, 3]])
    out = mixed * b
    assert [list(r) for r in out.data] == _ref_product(mixed, b)
    # the entrywise path keeps the int-times-Fraction types it produced
    ints = Mat([[1, 2], [3, 4]])
    assert all(type(e) is int for r in (ints * ints).data for e in r)


def test_jacobi_failures_on_sl2_tables():
    # basis (e, f, h): [e, f] = h, [h, e] = 2e, [h, f] = -2f
    def table(he):
        brackets = {(0, 1): {2: 1}, (2, 0): {0: he}, (2, 1): {1: -2}}
        out = dict(brackets)
        for (a, b), v in brackets.items():
            out[(b, a)] = {c: -x for c, x in v.items()}
        return out

    assert jacobi_failures(table(2), 3) == 0
    assert jacobi_failures(table(3), 3) > 0


def test_structure_table_on_sl2():
    # basis (e, f, h) of sl(2); the coordinates read e, f and h off a
    # trace-free integer matrix
    e, f, h = (Mat(r).map(Fraction) for r in ([[0, 1], [0, 0]],
                                              [[0, 0], [1, 0]],
                                              [[1, 0], [0, -1]]))

    def coordinates(rows):
        assert rows[0][0] == -rows[1][1]
        return [rows[0][1], rows[1][0], rows[0][0]]

    table = structure_table([e, f, h], coordinates)
    assert dict(table) == {(0, 1): {2: 1}, (1, 0): {2: -1},
                           (0, 2): {0: -2}, (2, 0): {0: 2},
                           (1, 2): {1: 2}, (2, 1): {1: -2}}
    assert jacobi_failures(table, 3) == 0
    with pytest.raises(TypeError):
        table[(0, 1)][2] = 5
    with pytest.raises(TypeError):
        table[(0, 0)] = {}


def test_structure_table_needs_integer_square_matrices_of_one_size():
    e = Mat([[0, 1], [0, 0]]).map(Fraction)
    with pytest.raises(ValueError):
        structure_table([e, Fraction(1, 2) * e], lambda rows: [])
    with pytest.raises(ValueError):
        structure_table([e, Mat.identity(3)], lambda rows: [])
    with pytest.raises(ValueError):
        structure_table([e, Mat([[0, 1, 0], [0, 0, 0]]).map(Fraction)],
                        lambda rows: [])
    with pytest.raises(ValueError):
        structure_table([e, Mat([[0, 1], [0, 0]])], lambda rows: [])
