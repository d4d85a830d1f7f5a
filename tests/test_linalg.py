"""Tests for the exact linear algebra layer."""

import ast
import math
import random
import types
from fractions import Fraction
from pathlib import Path

import pytest

import liecontact
from liecontact import samplers
from liecontact.linalg import (IntMat, Mat, SignedPerm, det,
                               exp_float, exp_nilpotent, invert,
                               jacobi_failures, max_abs, plain_sum,
                               rank_kernel, rat, rat_sqrt, solve_linear,
                               structure_table)
from liecontact.so_contact import Signature
from oracles import form_s, ipq, product


class DualRat:
    """First-order jet re + eps*du with eps^2 = 0, exact over Fraction: the
    reference for the integer jets of the embedding's derivative, and an
    entry type that `Mat` takes entry by entry. Both parts are coerced with
    `rat`, so floats are refused."""

    __slots__ = ("re", "du")

    def __init__(self, re, du=0):
        self.re = rat(re)
        self.du = rat(du)

    def __add__(self, other):
        other = _dual(other)
        return DualRat(self.re + other.re, self.du + other.du)

    __radd__ = __add__

    def __neg__(self):
        return DualRat(-self.re, -self.du)

    def __sub__(self, other):
        return self + (-_dual(other))

    def __rsub__(self, other):
        return _dual(other) + (-self)

    def __mul__(self, other):
        # (a + eps da)(b + eps db) = ab + eps (a db + da b)
        other = _dual(other)
        return DualRat(self.re * other.re,
                       self.re * other.du + self.du * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _dual(other)
        if other.re == 0:
            raise ZeroDivisionError("dual number with zero base point")
        b = other.re
        return DualRat(self.re / b,
                       (self.du * b - self.re * other.du) / (b * b))

    def __rtruediv__(self, other):
        return _dual(other) / self

    def __abs__(self):
        if self.re == 0:
            raise ValueError("abs of a dual number with zero base point is "
                             "not smooth")
        return self if self.re > 0 else -self

    def sqrt(self):
        s = rat_sqrt(self.re)
        if s == 0:
            raise ValueError("sqrt of a dual number at base point 0 is not "
                             "smooth")
        return DualRat(s, self.du / (2 * s))

    def __eq__(self, other):
        other = _dual(other)
        return self.re == other.re and self.du == other.du

    def __hash__(self):
        return hash((self.re, self.du))

    def __repr__(self):
        return "DualRat(%s, %s)" % (self.re, self.du)


def _dual(x):
    return x if isinstance(x, DualRat) else DualRat(x)


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


JET_PARTS = (Fraction(0), Fraction(0), Fraction(2, 3), Fraction(-5),
             Fraction(7, 4))


def _jets(rng, count):
    return [DualRat(rng.choice(JET_PARTS), rng.choice(JET_PARTS))
            for _ in range(count)]


def test_dual_arithmetic_skips_zero_parts_and_matches_the_jet_formulas():
    # every part is a Fraction, and zero parts give the plain formulas too
    rng = random.Random(59)
    for x, y in zip(_jets(rng, 200), _jets(rng, 200)):
        a, da, b, db = x.re, x.du, y.re, y.du
        cases = [(x + y, (a + b, da + db)), (x - y, (a - b, da - db)),
                 (-x, (-a, -da)), (x * y, (a * b, a * db + da * b)),
                 (3 * x, (3 * a, 3 * da)), (x + 2, (a + 2, da))]
        if b:
            cases.append((x / y, (a / b, (da * b - a * db) / (b * b))))
        for got, want in cases:
            assert (got.re, got.du) == want, (x, y)
            assert type(got.re) is Fraction and type(got.du) is Fraction
    for root in (Fraction(1), Fraction(3, 2)):
        for du in JET_PARTS:
            s = DualRat(root * root, du).sqrt()
            assert (s.re, s.du) == (root, du / (2 * root))
            assert type(s.du) is Fraction
    with pytest.raises(TypeError, match="float"):
        DualRat(0.5)
    with pytest.raises(TypeError, match="float"):
        DualRat(1, 0.5)


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
            # the same sum on integer rows, kept as an IntMat
            got = exp_nilpotent(IntMat.of(m), bound)
            assert type(got) is IntMat and got.to_mat() == expected
        if k > 1:
            with pytest.raises(ValueError, match=r"m\^%d != 0, not nilpotent"
                               % (k - 1)):
                exp_nilpotent(m, k - 1)


def test_exp_nilpotent_bound_zero_always_raises():
    with pytest.raises(ValueError, match=r"m\^0 != 0"):
        exp_nilpotent(Mat.zeros(2, 2), 0)


def test_exp_nilpotent_reads_integer_entries_and_refuses_floats():
    ints = Mat([[0, 2, -1], [0, 0, 3], [0, 0, 0]])
    frac = ints.map(Fraction)
    out = exp_nilpotent(ints, 3)
    assert out == exp_nilpotent(frac, 3)
    assert out == Mat.identity(3) + frac + Fraction(1, 2) * (frac * frac)
    assert all(type(e) is Fraction for r in out.data for e in r)
    with pytest.raises(TypeError, match="float"):
        exp_nilpotent(frac.map(float), 3)


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
    a = IntMat.of(Mat([[1, 2], [0, 1]]))
    b = IntMat.of(Mat([[0, 1], [1, 0]]))
    assert a.commutator(b).to_mat() == -1 * b.commutator(a).to_mat()


# ---------------------------------------------------------------------------
# the exact product kernel, IntMat, against a triple-loop Fraction reference


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
            prod = (IntMat.of(a) * IntMat.of(b)).to_mat()
            assert (prod.rows, prod.cols) == (r, c)
            assert [list(row) for row in prod.data] == _ref_product(a, b)
            _assert_fraction_entries(prod)
            assert a * b == prod  # the entrywise Mat product


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
            comm = IntMat.of(a).commutator(IntMat.of(b)).to_mat()
            assert [list(row) for row in comm.data] == ref
            _assert_fraction_entries(comm)


def test_common_rows_put_every_matrix_over_one_denominator():
    rng = random.Random(13)
    mats = [_rand_fraction_mat(rng, 3, 4, density) for density in
            (0, 0.3, 1, 0.5)] + [Mat.identity(3)]
    tables = IntMat.aligned([IntMat.of(m) for m in mats])
    d = math.lcm(*[e.denominator for m in mats for r in m.data for e in r])
    for m, t in zip(mats, tables):
        assert t.d == d
        dense = [[Fraction(0)] * m.cols for _ in range(m.rows)]
        for i, r in enumerate(t.sparse):
            assert all(type(x) is int and x for _, x in r)
            for j, x in r:
                dense[i][j] = Fraction(x, d)
        assert Mat(dense) == m
    assert IntMat.aligned([]) == []


# ---------------------------------------------------------------------------
# IntMat against Fraction arithmetic


def _rand_rational_mat(rng, rows, cols, integer):
    """A random Fraction matrix with one zero row: integer entries (d = 1)
    or mixed denominators, some of them wide."""
    if integer:
        data = [[Fraction(rng.randrange(-9, 10)) for _ in range(cols)]
                for _ in range(rows)]
    else:
        density = rng.choice((0.3, 1))
        data = [list(r) for r in
                _rand_fraction_mat(rng, rows, cols, density).data]
    data[rng.randrange(rows)] = [Fraction(0)] * cols
    return Mat(data)


def _dense_only(im):
    """im as the product im·I, which keeps dense rows only."""
    return im * IntMat.of(Mat.identity(im.cols))


INT_MAT_SHAPES = ((1, 1), (3, 4), (5, 5), (6, 2))


def test_int_mat_round_trips_to_and_from_mat():
    rng = random.Random(61)
    for rows, cols in INT_MAT_SHAPES:
        for integer in (True, False):
            m = _rand_rational_mat(rng, rows, cols, integer)
            im = IntMat.of(m)
            assert im.d == math.lcm(*[e.denominator for r in m.data
                                      for e in r])
            assert (im.rows, im.cols) == (rows, cols)
            assert im.dense == [[e * im.d for e in r] for r in m.data]
            assert im.sparse == [[(j, e * im.d) for j, e in enumerate(r)
                                  if e] for r in m.data]
            for back in (im.to_mat(), _dense_only(im).to_mat(),
                         IntMat(im.d, cols, dense=im.dense).to_mat(),
                         IntMat(-im.d, cols, dense=[[-x for x in r]
                                                    for r in im.dense]
                                ).to_mat(),
                         IntMat(im.d, cols, sparse=im.sparse).to_mat()):
                assert back == m
                _assert_fraction_entries(back)
    ints = Mat([[0, 2], [-3, 0]])
    assert IntMat.of(ints).d == 1
    assert IntMat.of(ints).to_mat() == ints.map(Fraction)
    with pytest.raises(TypeError, match="float"):
        IntMat.of(Mat([[Fraction(1), 0.5]]))
    with pytest.raises(ValueError, match="denominator"):
        IntMat(0, 1, dense=[[1]])


def test_int_mat_product_and_commutator_match_fraction_arithmetic():
    rng = random.Random(67)
    for rows, k, cols in ((1, 1, 1), (3, 4, 2), (5, 5, 5), (2, 6, 3)):
        for integer in (True, False):
            a = _rand_rational_mat(rng, rows, k, integer)
            b = _rand_rational_mat(rng, k, cols, not integer)
            ia, ib = IntMat.of(a), IntMat.of(b)
            for left in (ia, _dense_only(ia)):
                prod = left * ib
                assert prod.d == ia.d * ib.d
                assert ([list(r) for r in prod.to_mat().data]
                        == _ref_product(a, b))
    for n in (1, 2, 5):
        for integer in (True, False):
            a = _rand_rational_mat(rng, n, n, integer)
            b = _rand_rational_mat(rng, n, n, not integer)
            ref = [[x - y for x, y in zip(r1, r2)] for r1, r2
                   in zip(_ref_product(a, b), _ref_product(b, a))]
            ia, ib = IntMat.of(a), IntMat.of(b)
            for left in (ia, _dense_only(ia)):
                comm = left.commutator(ib)
                assert comm.d == ia.d * ib.d
                assert [list(r) for r in comm.to_mat().data] == ref
    with pytest.raises(ValueError, match="shape mismatch"):
        IntMat.of(Mat.identity(2)) * IntMat.of(Mat.identity(3))
    with pytest.raises(ValueError, match="square"):
        IntMat.of(Mat.zeros(2, 3)).commutator(IntMat.of(Mat.zeros(2, 3)))


def test_int_mat_combination_matches_fraction_arithmetic():
    rng = random.Random(71)
    coefficients = (0, 1, -3, Fraction(2, 5), Fraction(-7, 6))
    step = 0
    for rows, cols in INT_MAT_SHAPES:
        for size in (1, 2, 4):
            mats, terms = [], []
            for _ in range(size):
                m = _rand_rational_mat(rng, rows, cols, rng.random() < 0.4)
                im = IntMat.of(m)
                mats.append(m)
                terms.append((coefficients[step % len(coefficients)],
                              _dense_only(im) if step % 3 else im))
                step += 1
            got = IntMat.combination(terms)
            assert got.d == math.lcm(*[c.denominator * im.d
                                       for c, im in terms if c])
            want = [[sum((c * m[i, j] for (c, _), m in zip(terms, mats)),
                         Fraction(0)) for j in range(cols)]
                    for i in range(rows)]
            assert [list(r) for r in got.to_mat().data] == want
    third = IntMat.of(Mat.identity(2, Fraction(1, 3)))
    zero = IntMat.combination([(0, third)])
    assert zero.is_zero() and zero.d == 1
    assert zero.to_mat() == Mat.zeros(2, 2)
    with pytest.raises(ValueError, match="one shape"):
        IntMat.combination([(1, IntMat.of(Mat.identity(2))),
                            (1, IntMat.of(Mat.identity(3)))])


def _int_mat_over(im, k):
    """im with its integers and its denominator multiplied by k."""
    return IntMat(k * im.d, im.cols, [[k * x for x in r] for r in im.dense])


def test_int_mat_equality_matches_fraction_comparisons():
    rng = random.Random(73)
    for rows, cols in INT_MAT_SHAPES:
        for integer in (True, False):
            a = _rand_rational_mat(rng, rows, cols, integer)
            moved = [list(r) for r in a.data]
            moved[rng.randrange(rows)][rng.randrange(cols)] += Fraction(1, 3)
            zero = Mat.zeros(rows, cols)
            for b in (a, -a, Mat(moved), -Mat(moved), zero, 2 * a):
                for x, y in ((a, b), (b, a), (zero, b)):
                    ix = IntMat.of(x)
                    iy = _int_mat_over(IntMat.of(y), rng.choice((1, 2, 15)))
                    assert ix.equals(iy) == (x == y)
                    assert ix.equals(iy, up_to_sign=True) == (x == y
                                                              or x == -y)
    with pytest.raises(ValueError, match="shape mismatch"):
        IntMat.of(Mat.zeros(2, 3)).equals(IntMat.of(Mat.zeros(3, 2)))


def test_no_module_imports_a_private_name_of_another():
    """A module reaches another only through its public names."""
    found = []
    for path in sorted(Path(liecontact.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level == 1 or node.module == "liecontact"
                         or (node.module or "").startswith("liecontact."))):
                found += ["%s imports %s from %s" % (path.name, alias.name,
                                                     node.module)
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


# the exports with no use in the package that name an object of the paper
PAPER_OBJECTS = {"i_map": "the embedding i of the stabilizer group Q"}


def _annotations(node):
    """The annotations a node holds: of an argument, of a def's return, or
    of an annotated assignment."""
    if isinstance(node, ast.arg):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


def _reads(node, around=frozenset()):
    """The names the syntax tree reads, as a name or an attribute, outside
    the body of a def or class of that name and outside every annotation:
    a name read only to annotate is not used. `around` holds the names of
    the defs and classes that enclose node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        around = around | {node.name}
    found = set()
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = node.id if isinstance(node, ast.Name) else node.attr
        if isinstance(node.ctx, ast.Load) and name not in around:
            found.add(name)
    skipped = _annotations(node)
    for child in ast.iter_child_nodes(node):
        if not any(child is a for a in skipped):
            found |= _reads(child, around)
    return found


def _unused(exports, trees):
    """The exports that no tree reads, other than the paper's objects."""
    read = set().union(*(_reads(tree) for tree in trees))
    return [name for name in exports
            if name not in PAPER_OBJECTS and name not in read]


def test_every_export_is_used_in_the_package():
    """Each public name of the package namespace, other than a module, is
    read by some module of the package outside its own def or class, or
    names an object of the paper: no export serves the tests alone."""
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(liecontact.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"]
    exports = sorted(name for name, value in vars(liecontact).items()
                     if not name.startswith("_")
                     and not isinstance(value, types.ModuleType))
    assert set(PAPER_OBJECTS) <= set(exports)
    unused = _unused(exports, trees)
    assert unused == [], ("exported by liecontact but read nowhere in its "
                          "modules: " + ", ".join(unused))


def test_a_name_read_only_in_annotations_is_unused():
    # an argument, a return and an annotated assignment; a default, a
    # decorator and a body still read their names
    tree = ast.parse("def f(x: Arg, *a: Star, k: Kw = Default, **kw: Kws)"
                     " -> Ret:\n"
                     "    y: Ann = Value\n"
                     "    return Body\n"
                     "@Deco\n"
                     "def g(x: liecontact.Attr): pass\n")
    names = ("Arg", "Star", "Kw", "Kws", "Ret", "Ann", "Attr")
    assert _unused(names, [tree]) == list(names)
    assert _unused(("Default", "Value", "Body", "Deco"), [tree]) == []


# ---------------------------------------------------------------------------
# the Gram check a^T·s·a on integer rows against the product form

FORM_SIGS = (Signature(2, 1), Signature(3, 0), Signature(1, 1),
             Signature(2, 2), Signature(3, 3))


def _corrupted(m, rng):
    """m with one entry moved by a nonzero rational."""
    rows = [list(r) for r in m.data]
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    rows[i][j] += Fraction(rng.choice((-1, 1)) * rng.randrange(1, 5),
                           rng.randrange(1, 4))
    return Mat(rows)


def _sign_swap(sig):
    """For p = q, the g with g^T S g = -S and the c with c^T Ipq c = -Ipq:
    c swaps the positive and negative coordinates, and g is c between I2
    and -I2."""
    p, n = sig.p, sig.n
    c = Mat([[Fraction(int(j == (i + p) % n)) for j in range(n)]
             for i in range(n)])
    zero = Mat.zeros
    g = Mat.block([[Mat.identity(2), zero(2, n), zero(2, 2)],
                   [zero(n, 2), c, zero(n, 2)],
                   [zero(2, 2), zero(2, n), -Mat.identity(2)]])
    return g, c


def _gram_cases(sig, rng):
    """(a, s, table, expected) with s a form as a Mat, table the same form
    as the signed permutation the check reads, and expected whether
    a^T·s·a = s: elements of O(S) and O(p, q), copies with one entry
    corrupted, and near misses."""
    forms = {"s": (form_s(sig), sig.form_s_perm()),
             "ipq": (ipq(sig), sig.ipq_perm())}
    cases = []
    for _ in range(3):
        g = samplers.rand_oform(sig, rng)
        c = samplers.rand_opq(sig, rng)
        cases += [(g, "s", True), (c, "ipq", True),
                  (_corrupted(g, rng), "s", False),
                  (_corrupted(c, rng), "ipq", False)]
    if sig.p == sig.q:
        g, c = _sign_swap(sig)
        cases += [(g, "s", False), (c, "ipq", False),
                  (product(samplers.rand_oform(sig, rng), g), "s", False),
                  (product(samplers.rand_opq(sig, rng), c), "ipq", False)]
    for form in forms:
        one = Mat.identity(forms[form][0].rows)
        cases += [(k * one, form, k in (1, -1))
                  for k in (2, Fraction(-1, 3), -1)]
    return [(a, *forms[form], expected) for a, form, expected in cases]


@pytest.mark.parametrize("sig", FORM_SIGS, ids=repr)
def test_gram_check_matches_the_product_form(sig):
    rng = random.Random(31 + 7 * sig.p + sig.q)
    planes = []
    for a, s, table, expected in _gram_cases(sig, rng):
        assert (product(a.T, s, a) == s) is expected
        assert IntMat.of(a).gram_equals(table, table) is expected
        if s.rows == sig.n + 4:
            # the first two columns of an element of O(S) span an isotropic
            # plane, the other columns need not
            planes += [a.submat(0, a.rows, 0, 2), a.submat(0, a.rows, 1, 3),
                       _corrupted(a.submat(0, a.rows, 0, 2), rng)]
    isotropic = [product(p.T, form_s(sig), p).is_zero() for p in planes]
    assert ([IntMat.of(p).gram_equals(sig.form_s_perm()) for p in planes]
            == isotropic)
    assert True in isotropic and False in isotropic


@pytest.mark.parametrize("sig", FORM_SIGS, ids=repr)
def test_gram_check_reads_signed_permutation_forms(sig):
    """Targets other than the form, each against the product a^T·s·a with
    the target written out as a Mat: the form, its negation (reached by
    the sign swaps when p = q) and the identity."""
    rng = random.Random(41 + 7 * sig.p + sig.q)
    for a, s, table, _ in _gram_cases(sig, rng):
        size = table.rows
        gram = product(a.T, s, a)
        for target in (table, SignedPerm(table.perm, [-x for x in
                                                      table.signs]),
                       SignedPerm(range(size), [1] * size)):
            assert (IntMat.of(a).gram_equals(table, target)
                    is (gram == target.left(Mat.identity(size))))
        plane = a.submat(0, a.rows, 0, 2)
        assert (IntMat.of(plane).gram_equals(table)
                is product(plane.T, s, plane).is_zero())
    for table in (sig.form_s_perm(), sig.ipq_perm()):
        size = table.rows
        with pytest.raises(TypeError, match="float"):
            IntMat.of(Mat.identity(size, one=1.0)).gram_equals(table, table)
        with pytest.raises(ValueError, match="shape mismatch"):
            IntMat.of(Mat.identity(size + 1)).gram_equals(table)
        with pytest.raises(ValueError, match="shape mismatch"):
            IntMat.of(Mat.identity(size)).gram_equals(
                table, SignedPerm(range(size + 1), [1] * (size + 1)))


@pytest.mark.parametrize("sig", FORM_SIGS[:3], ids=repr)
def test_int_mat_gram_check_matches_the_fraction_loops(sig):
    """The Gram check against a^T·s·a in Fraction loops, on elements of
    O(S) and O(p, q), their first two columns, and random matrices with a
    zero row."""
    rng = random.Random(73 + 7 * sig.p + sig.q)
    for a, s, table, _ in _gram_cases(sig, rng):
        size = table.rows
        for x in (a, a.submat(0, size, 0, 2),
                  _rand_rational_mat(rng, size, 2, True),
                  _rand_rational_mat(rng, size, size, False)):
            gram = _ref_product(Mat(_ref_product(x.T, s)), x)
            ix = IntMat.of(x)
            assert ix.gram_equals(table) is all(v == 0 for r in gram
                                                for v in r)
            if x.cols == size:
                assert (ix.gram_equals(table, table)
                        is (gram == [list(r) for r in s.data]))


def test_rat_returns_a_fraction_as_it_is():
    x = Fraction(-7, 3)
    assert rat(x) is x

    class Half(Fraction):
        pass

    for arg, want in ((5, Fraction(5)), ("-7/3", x), (Half(1, 2),
                                                      Fraction(1, 2))):
        got = rat(arg)
        assert got == want and type(got) is Fraction
    with pytest.raises(TypeError, match="float"):
        rat(0.5)


def test_gram_check_reads_integer_entries_and_refuses_floats():
    ipq = Signature(2, 1).ipq_perm()
    ints = Mat([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    assert IntMat.of(ints).gram_equals(ipq, ipq)
    assert IntMat.of(ints.map(Fraction)).gram_equals(ipq, ipq)
    assert not IntMat.of(2 * ints).gram_equals(ipq, ipq)
    plane = Mat([[1, 0], [1, 0], [0, 1]])
    assert not IntMat.of(plane).gram_equals(ipq)
    assert IntMat.of(Mat([[1, 0], [0, 0], [1, 0]])).gram_equals(ipq)
    with pytest.raises(TypeError, match="float"):
        IntMat.of(ints.map(float)).gram_equals(ipq, ipq)


def test_kernel_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        Mat.identity(2) * Mat.identity(3)
    with pytest.raises(ValueError, match="shape mismatch"):
        IntMat.of(Mat.zeros(2, 3)) * IntMat.of(Mat.zeros(2, 3))
    with pytest.raises(ValueError, match="shape mismatch"):
        Mat.zeros(2, 2) + Mat.zeros(2, 3)
    with pytest.raises(ValueError, match="shape mismatch"):
        Mat.zeros(2, 2) - Mat.zeros(3, 2)


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


# ---------------------------------------------------------------------------
# the linear operations against the entrywise reference


def _key(x):
    # type and repr tell apart 0 from Fraction(0), 0.0 from -0.0, and nan
    return type(x), repr(x)


def _entrywise(m, fn):
    return [[_key(fn(a)) for a in r] for r in m.data]


def _pairwise(a, b, fn):
    return [[_key(fn(x, y)) for x, y in zip(ra, rb)]
            for ra, rb in zip(a.data, b.data)]


def _keys(m):
    return [[_key(x) for x in r] for r in m.data]


_SPECIAL_FLOATS = (0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan)


def _rand_linear_operand(rng, kind, rows, cols):
    def entry():
        if kind == "fraction":
            return _rand_entry(rng, 0.4)
        if kind == "int":
            return rng.choice((0, 0, 1, -3))
        if kind == "float":
            return rng.choice(_SPECIAL_FLOATS)
        if kind == "dual":
            return DualRat(rng.choice((0, 0, 2)), rng.choice((0, 1)))
        return rng.choice((Fraction(0), Fraction(0), Fraction(-5, 3), 0, 2,
                           0.0, -0.0, math.nan))
    return Mat([[entry() for _ in range(cols)] for _ in range(rows)])


_LINEAR_KINDS = ("fraction", "int", "float", "dual", "mixed")
# a DualRat cannot meet a float, so those pairs are left out
_LINEAR_PAIRS = [(ka, kb) for ka in _LINEAR_KINDS for kb in _LINEAR_KINDS
                 if "dual" not in (ka, kb)
                 or {ka, kb} <= {"fraction", "int", "dual"}]


@pytest.mark.parametrize("kind_a,kind_b", _LINEAR_PAIRS)
def test_linear_operations_match_the_entrywise_reference(kind_a, kind_b):
    rng = random.Random(_LINEAR_KINDS.index(kind_a) * 5
                        + _LINEAR_KINDS.index(kind_b))
    for _ in range(10):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        a = _rand_linear_operand(rng, kind_a, rows, cols)
        b = _rand_linear_operand(rng, kind_b, rows, cols)
        assert _keys(a + b) == _pairwise(a, b, lambda x, y: x + y)
        assert _keys(a - b) == _pairwise(a, b, lambda x, y: x - y)
        assert _keys(-a) == _entrywise(a, lambda x: -x)


_SCALARS = (Fraction(0), Fraction(-7, 2), 0, 3, -1, True, 0.0, -0.0, 2.5,
            -1.0, math.inf, math.nan)


@pytest.mark.parametrize("kind", _LINEAR_KINDS)
def test_scalar_products_match_the_entrywise_reference(kind):
    rng = random.Random(_LINEAR_KINDS.index(kind) + 40)
    for _ in range(6):
        m = _rand_linear_operand(rng, kind, rng.randrange(1, 5),
                                 rng.randrange(1, 5))
        for s in _SCALARS:
            if kind == "dual" and type(s) is float:
                continue
            assert _keys(m * s) == _entrywise(m, lambda x: x * s)
            assert _keys(s * m) == _entrywise(m, lambda x: s * x)
        dual = DualRat(Fraction(1, 2), 3)
        if kind in ("fraction", "int", "dual"):
            assert _keys(m * dual) == _entrywise(m, lambda x: x * dual)


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


def _ordered_jacobi_failures(table, dim):
    # the ordered triple loop that jacobi_failures replaced, kept as its
    # oracle: every (a, b, c) in dim^3, each evaluated on its own
    failures = 0
    for a in range(dim):
        for b in range(dim):
            tab_ab = table.get((a, b), {})
            for c in range(dim):
                acc = {}
                for e, v in tab_ab.items():
                    for f, u in table.get((e, c), {}).items():
                        acc[f] = acc.get(f, 0) + v * u
                for e, v in table.get((b, c), {}).items():
                    for f, u in table.get((e, a), {}).items():
                        acc[f] = acc.get(f, 0) + v * u
                for e, v in table.get((c, a), {}).items():
                    for f, u in table.get((e, b), {}).items():
                        acc[f] = acc.get(f, 0) + v * u
                if any(val != 0 for val in acc.values()):
                    failures += 1
    return failures


def _rand_antisymmetric_table(rng, dim):
    table = {}
    for a in range(dim):
        if rng.random() < 0.2:
            table[(a, a)] = {}  # an explicit empty diagonal is allowed
        for b in range(a + 1, dim):
            if rng.random() < 0.3:
                continue
            coeffs = {c: rng.choice((-2, -1, 1, 3, Fraction(1, 2)))
                      for c in rng.sample(range(dim), rng.randrange(0, 3))}
            if coeffs and rng.random() < 0.2:
                coeffs[next(iter(coeffs))] = 0  # a stored zero coefficient
            table[(a, b)] = coeffs
            table[(b, a)] = {c: -v for c, v in coeffs.items()}
    return table


def test_jacobi_failures_match_the_ordered_triple_loop():
    rng = random.Random(12)
    failing = 0
    for _ in range(300):
        dim = rng.randrange(1, 7)
        table = _rand_antisymmetric_table(rng, dim)
        expected = _ordered_jacobi_failures(table, dim)
        assert jacobi_failures(table, dim) == expected
        failing += expected > 0
    assert failing > 150


def test_jacobi_failures_refuse_a_table_that_is_not_antisymmetric():
    with pytest.raises(ValueError, match=r"at the pair \(0, 1\)"):
        jacobi_failures({(0, 1): {2: 1}}, 3)
    with pytest.raises(ValueError, match=r"at the pair \(2, 0\)"):
        jacobi_failures({(2, 0): {0: 2}, (0, 2): {0: 2}}, 3)
    with pytest.raises(ValueError, match=r"at the pair \(1, 1\)"):
        jacobi_failures({(1, 1): {0: 1}}, 3)
    # zero coefficients do not count, stored or missing
    assert jacobi_failures({(0, 1): {2: 0}, (1, 0): {}}, 3) == 0


def test_structure_table_on_sl2():
    # basis (e, f, h) of sl(2); the coordinates read e, f and h off a
    # trace-free integer matrix
    e, f, h = (IntMat(1, 2, r) for r in ([[0, 1], [0, 0]], [[0, 0], [1, 0]],
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
    e = IntMat(1, 2, [[0, 1], [0, 0]])
    for bad in (IntMat(2, 2, [[0, 1], [0, 0]]), IntMat.of(Mat.identity(3)),
                IntMat(1, 3, [[0, 1, 0], [0, 0, 0]])):
        with pytest.raises(ValueError):
            structure_table([e, bad], lambda rows: [])


# ---------------------------------------------------------------------------
# the fraction-free elimination against the Fraction loops it replaced


def _ref_rref(rows):
    """Gauss-Jordan over Fraction, pivoting on the smallest numerator:
    (reduced rows, pivot columns)."""
    rows = [list(r) for r in rows]
    nr, nc = len(rows), len(rows[0])
    pivots = []
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        cands = [((abs(rows[i][c].numerator), rows[i][c].denominator), i)
                 for i in range(r, nr) if rows[i][c] != 0]
        if not cands:
            continue
        i = min(cands)[1]
        rows[r], rows[i] = rows[i], rows[r]
        piv = rows[r][c]
        rows[r] = [e / piv for e in rows[r]]
        for i2 in range(nr):
            if i2 != r and rows[i2][c] != 0:
                f = rows[i2][c]
                rows[i2] = [a - f * b for a, b in zip(rows[i2], rows[r])]
        pivots.append(c)
    return rows, pivots


def _ref_det(m):
    """Forward elimination over Fraction on the first nonzero pivot."""
    rows = [list(r) for r in m.data]
    n = m.rows
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            d = -d
        d *= rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[c][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return d


def _ref_kernel(rows, pivots, cols):
    """Kernel basis read off a reduced row echelon form: one vector per
    free column, 1 there and minus the reduced column at the pivots."""
    basis = []
    for fc in range(cols):
        if fc not in pivots:
            v = [Fraction(0)] * cols
            v[fc] = Fraction(1)
            for pr, pc in enumerate(pivots):
                v[pc] = -rows[pr][fc]
            basis.append(v)
    return basis


def _elimination_cases(rng):
    """Seeded matrices for the elimination tests: zero, 1 x 1, square,
    wide, tall, rank-deficient and 100-bit ones, plus hand-picked ones
    that need row swaps or whose smallest pivot in the first column is not
    in row 0."""
    cases = [Mat.zeros(1, 1), Mat.zeros(3, 3), Mat.zeros(2, 4),
             Mat([[Fraction(5, 3)]]), Mat.identity(4),
             Mat([[5, 1], [1, 2]]).map(Fraction),
             Mat([[7, 2, 1], [-3, 0, 4], [1, 5, 6]]).map(Fraction),
             Mat([[0, 0, 1], [0, 2, 0], [3, 0, 0]]).map(Fraction),
             Mat([[Fraction(1, 2), Fraction(1, 3)],
                  [Fraction(1, 4), Fraction(1, 5)]])]
    for n in (1, 2, 5):  # every entry of 100 bits and more
        cases.append(Mat([[Fraction(rng.randrange(1 << 100, 1 << 130)
                                    * rng.choice((-1, 1)),
                                    rng.randrange(1 << 100, 1 << 110))
                           for _ in range(n)] for _ in range(n)]))
    for _ in range(40):
        for density in (0.3, 0.7, 1):
            r, c = rng.randrange(1, 7), rng.randrange(1, 7)
            if rng.random() < 0.4:
                c = r
            m = _rand_fraction_mat(rng, r, c, density)
            cases.append(m)
            if min(r, c) > 1:  # rank at most k < min(r, c)
                k = rng.randrange(1, min(r, c))
                cases.append(_rand_fraction_mat(rng, r, k, density)
                             * _rand_fraction_mat(rng, k, c, density))
    return cases


def _check_against_reference(m, rhs):
    rows, pivots = _ref_rref(m.data)
    rank, kernel = rank_kernel(m)
    assert rank == len(pivots)
    assert [list(v.column(0)) for v in kernel] == _ref_kernel(rows, pivots,
                                                              m.cols)
    for v in kernel:
        _assert_fraction_entries(v)
    aug_rows, aug_pivots = _ref_rref([r + (e,) for r, e in zip(m.data, rhs)])
    x = solve_linear(m, Mat.col(rhs))
    if m.cols in aug_pivots:
        assert x is None
        return "inconsistent"
    expected = [Fraction(0)] * m.cols
    for pr, pc in enumerate(aug_pivots):
        expected[pc] = aug_rows[pr][m.cols]
    assert list(x.column(0)) == expected
    _assert_fraction_entries(x)
    if m.rows == m.cols:
        d = det(m)
        assert type(d) is Fraction and d == _ref_det(m)
        n = m.rows
        inv_rows, inv_pivots = _ref_rref(
            [r + e for r, e in zip(m.data, Mat.identity(n).data)])
        if inv_pivots != list(range(n)):
            assert d == 0
            with pytest.raises(ValueError, match="singular"):
                invert(m)
        else:
            inv = invert(m)
            assert [list(r) for r in inv.data] == [r[n:] for r in inv_rows]
            _assert_fraction_entries(inv)
    return "solved"


def test_elimination_matches_the_fraction_loops():
    rng = random.Random(21)
    outcomes = []
    for m in _elimination_cases(rng):
        rhs = [_rand_entry(rng, 0.8) for _ in range(m.rows)]
        outcomes.append(_check_against_reference(m, rhs))
        # a right hand side in the column space is always solvable
        hidden = _rand_fraction_mat(rng, m.cols, 1, 0.8)
        outcomes.append(_check_against_reference(m, (m * hidden).column(0)))
    assert "inconsistent" in outcomes and "solved" in outcomes


@pytest.mark.parametrize("bad", [1, 0.5, DualRat(1)])
def test_elimination_refuses_non_fraction_entries(bad):
    m = Mat([[Fraction(1), bad], [Fraction(0), Fraction(1)]])
    for fn in (det, invert, rank_kernel):
        with pytest.raises(TypeError, match="Fraction entries"):
            fn(m)
    with pytest.raises(TypeError, match="Fraction entries"):
        solve_linear(m, Mat.col([Fraction(1), Fraction(1)]))
    with pytest.raises(TypeError, match="Fraction entries"):
        solve_linear(Mat.identity(2), Mat.col([Fraction(1), bad]))


def test_elimination_matches_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(m):
        return sympy.Matrix([[sympy.Rational(e.numerator, e.denominator)
                              for e in r] for r in m.data])

    def from_sympy(v):
        return [Fraction(int(e.p), int(e.q)) for e in v]

    rng = random.Random(23)
    for m in _elimination_cases(rng)[:150]:
        s = to_sympy(m)
        rank, kernel = rank_kernel(m)
        assert rank == s.rank()
        assert [list(v.column(0)) for v in kernel] == [
            from_sympy(v) for v in s.nullspace()]
        rhs = Mat.col([_rand_entry(rng, 0.8) for _ in range(m.rows)])
        red, pivots = s.row_join(to_sympy(rhs)).rref()
        x = solve_linear(m, rhs)
        if m.cols in pivots:
            assert x is None
        else:
            expected = [Fraction(0)] * m.cols
            for pr, pc in enumerate(pivots):
                expected[pc] = from_sympy([red[pr, m.cols]])[0]
            assert list(x.column(0)) == expected
        if m.rows == m.cols:
            assert det(m) == from_sympy([s.det()])[0]
            if rank == m.rows:
                assert [list(r) for r in invert(m).data] == [
                    from_sympy(s.inv().row(i)) for i in range(m.rows)]
