"""Tests for the contact-graded orthogonal algebra layer."""

import random
from fractions import Fraction

import pytest

from liecontact import samplers
from liecontact.linalg import IntMat, Mat, SignedPerm, det, invert
from liecontact.so_contact import (QGroupElement, Signature, SoElement,
                                   basis_positions, bracket, bracket_gm1,
                                   from_coordinates, grading_check,
                                   inner, int_coordinates, jacobi_check,
                                   orthogonal_residual, rank_one_bracket,
                                   scaling_residual, segre_rank, so_basis,
                                   so_basis_degrees, structure_constants)
from oracles import (ad_so, block, diag, form_s, identity, ints, ipq, is_zero,
                     product, rand_so_element, scaled, submat, transpose,
                     zeros)
from test_linalg import _corrupted, _sign_swap

SIGS = (Signature(2, 1), Signature(3, 0), Signature(2, 2))


def q_identity(sig):
    """The identity of the stabilizer group Q."""
    return QGroupElement(sig, identity(2), identity(sig.n), 0)


def grade(x, d):
    """The projection of x onto the degree-d component."""
    blocks = {-2: ("z",), -1: ("X",), 0: ("A", "D"), 1: ("U",), 2: ("w",)}
    return SoElement(x.sig, **{k: getattr(x, k) for k in blocks[d]})

# every signature with 2 <= n <= 6
DOMAIN_SIGS = tuple(Signature(p, n - p) for n in range(2, 7)
                    for p in range(n, -1, -1))


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(0, 0)
    with pytest.raises(ValueError):
        Signature(-1, 2)
    sig = Signature(2, 1)
    assert sig.n == 3
    assert sig.signs() == (1, 1, -1)


def test_form_is_symmetric_with_expected_blocks():
    sig = Signature(2, 1)
    s = form_s(sig)
    assert s == transpose(s)
    assert s.data[0][5] == -1 and s.data[1][6] == -1
    assert s.data[2][2] == 1 and s.data[4][4] == -1
    assert s.data[0][0] == 0


def test_so_element_rejects_bad_middle_block():
    sig = Signature(2, 1)
    bad = Mat.identity(3)
    with pytest.raises(ValueError):
        SoElement(sig, D=IntMat.of(bad))
    # a block is an IntMat: a Mat is refused, in so(p,q) or not
    for d in (bad, zeros(3, 3)):
        with pytest.raises(TypeError, match="D must be an IntMat"):
            SoElement(sig, D=d)


def _is_so_pq_by_products(sig, d):
    form = ipq(sig)
    return is_zero(transpose(d) * form + form * d)


def _accepts_d(sig, d):
    # whether the block constructor takes d as its middle block; a refusal
    # names D
    try:
        SoElement(sig, D=IntMat.of(d))
    except ValueError as exc:
        assert str(exc) == "D is not in so(p,q) for the given signature"
        return False
    return True


def test_entrywise_so_pq_test_matches_the_product_form():
    rng = random.Random(5)
    for sig in (Signature(1, 0), Signature(2, 1), Signature(3, 0),
                Signature(2, 2), Signature(3, 3)):
        n = sig.n
        for _ in range(10):
            d = samplers.rand_so_pq(sig, rng).to_mat()
            assert _accepts_d(sig, d) and _is_so_pq_by_products(sig, d)
            i, j = rng.randrange(n), rng.randrange(n)
            rows = [list(r) for r in d.data]
            rows[i][j] += samplers.rand_nonzero_fraction(rng)
            bad = Mat(rows)
            assert not _accepts_d(sig, bad)
            assert not _is_so_pq_by_products(sig, bad)
            generic = samplers.rand_mat(rng, n, n).to_mat()
            assert (_accepts_d(sig, generic)
                    == _is_so_pq_by_products(sig, generic))


def test_signature_constants_are_built_once():
    for p, q in ((1, 0), (2, 1), (2, 2)):
        sig = Signature(p, q)
        assert sig.ipq_perm() is Signature(p, q).ipq_perm()
        assert sig.form_s_perm() is Signature(p, q).form_s_perm()
    assert Signature(2, 1).ipq_perm() is not Signature(1, 2).ipq_perm()
    assert Signature(2, 1).form_s_perm() is not Signature(1, 2).form_s_perm()


# n = 1 to 6
TABLE_SIGS = (Signature(1, 0), Signature(0, 1), Signature(1, 1),
              Signature(2, 1), Signature(0, 3), Signature(2, 2),
              Signature(3, 2), Signature(3, 3))


@pytest.mark.parametrize("sig", TABLE_SIGS, ids=repr)
def test_signed_permutation_tables_multiply_as_the_forms(sig):
    rng = random.Random(23 + 7 * sig.p + sig.q)
    for table, form in ((sig.form_s_perm(), form_s(sig)),
                        (sig.ipq_perm(), ipq(sig))):
        size = form.rows
        assert (table.rows, table.cols) == (size, size)
        assert table.left(identity(size)).to_mat() == form
        exact = (samplers.rand_mat(rng, size, size).to_mat(),
                 samplers.rand_mat(rng, size, 2).to_mat() * zeros(2, size))
        for m in exact:
            assert table.left(IntMat.of(m)).to_mat() == product(form, m)
            assert (table.conjugate_transpose(IntMat.of(m)).to_mat()
                    == product(form, transpose(m), form))
        tall = samplers.rand_mat(rng, size, size + 1)
        assert table.left(tall).to_mat() == product(form, tall.to_mat())
        for m in (tall.to_mat(), Mat.identity(size)):
            for make in (lambda: table.left(m),
                         lambda: table.conjugate_transpose(m)):
                with pytest.raises(TypeError, match="IntMat"):
                    make()
        for make in (lambda: table.left(IntMat.of(transpose(tall.to_mat()))),
                     lambda: table.conjugate_transpose(tall),
                     lambda: table.left(identity(size + 1))):
            with pytest.raises(ValueError, match="shape mismatch"):
                make()


def test_signed_permutations_must_be_symmetric():
    for perm, signs in (((1, 0), (1, -1)), ((1, 2, 0), (1, 1, 1)),
                        ((0, 0), (1, 1)), ((0, 1), (1, 2)),
                        ((0, 1), (1,))):
        with pytest.raises(ValueError, match="symmetric signed"):
            SignedPerm(perm, signs)
    p = SignedPerm((2, 1, 0), (-1, 1, -1))
    assert (p.perm, p.signs) == ((2, 1, 0), (-1, 1, -1))
    with pytest.raises(AttributeError):
        p.perm = (0, 1, 2)


def test_assembled_matrices_lie_in_the_algebra():
    rng = random.Random(10)
    for sig in SIGS:
        s = form_s(sig)
        for _ in range(20):
            m = rand_so_element(sig, rng).assemble()
            assert is_zero(product(transpose(m), s) + product(s, m))


def test_assemble_from_matrix_round_trip():
    rng = random.Random(11)
    for sig in SIGS:
        for _ in range(20):
            x = rand_so_element(sig, rng)
            assert SoElement.from_matrix(sig, IntMat.of(x.assemble())) == x
            # the matrix is an IntMat: its Mat view is refused
            with pytest.raises(TypeError, match="IntMat"):
                SoElement.from_matrix(sig, x.assemble())


def _block_assembly(x):
    # the assembled matrix of the module docstring, built here on its own
    form = ipq(x.sig)
    j2 = Mat([[0, 1], [-1, 0]]).map(Fraction)
    a, u, xx, d = (m.to_mat() for m in (x.A, x.U, x.X, x.D))
    return block([[a, u, scaled(x.w, j2)],
                  [xx, d, product(form, transpose(u))],
                  [scaled(x.z, j2), product(transpose(xx), form),
                   -transpose(a)]])


def test_assemble_is_the_matrix_of_the_integer_rows():
    rng = random.Random(12)
    for sig in SIGS:
        xs = [rand_so_element(sig, rng) for _ in range(6)]
        xs += [SoElement.generator_e(sig), SoElement(sig)]
        for x in xs:
            assert x.assemble() == _block_assembly(x)
        twin = SoElement(sig, z=xs[0].z, X=xs[0].X, A=xs[0].A, D=xs[0].D,
                         U=xs[0].U, w=xs[0].w)
        assert twin == xs[0] and twin.assemble() == xs[0].assemble()
        # an element built from integer rows keeps the rows it was checked
        # against as its own, and builds its matrix from them
        for x in reversed(xs):
            m = x.assemble()
            y = SoElement.from_matrix(sig, x.ints)
            assert y.ints is x.ints
            assert y.assemble() == _block_assembly(y) == m


ORACLE_SIGS = (Signature(2, 1), Signature(3, 0), Signature(1, 2),
               Signature(2, 2), Signature(3, 3))


def _from_matrix_by_reassembly(sig, m):
    # the reference: read the blocks, reassemble them and compare
    n = sig.n
    m = m.to_mat()
    elt = SoElement(sig, z=m.data[n + 2][1],
                    X=IntMat.of(submat(m, 2, n + 2, 0, 2)),
                    A=IntMat.of(submat(m, 0, 2, 0, 2)),
                    D=IntMat.of(submat(m, 2, n + 2, 2, n + 2)),
                    U=IntMat.of(submat(m, 0, 2, 2, n + 2)), w=m.data[0][n + 3])
    if m != _block_assembly(elt):
        raise ValueError("matrix is not in the orthogonal algebra "
                         "of the standard form")
    return elt


def _outcome(decompose, sig, m):
    try:
        return decompose(sig, m)
    except ValueError as exc:
        return str(exc)


def test_assemble_matches_the_block_products():
    rng = random.Random(23)
    for sig in ORACLE_SIGS:
        xs = [*so_basis(sig), *(rand_so_element(sig, rng)
                                for _ in range(10))]
        # a drawn element keeps the matrix it was read from; the same blocks
        # in a new element are assembled afresh
        xs += [SoElement(sig, z=x.z, X=x.X, A=x.A, D=x.D, U=x.U, w=x.w)
               for x in xs]
        for x in xs:
            got, expected = x.assemble(), _block_assembly(x)
            assert [(type(e), repr(e)) for r in got.data for e in r] == \
                [(type(e), repr(e)) for r in expected.data for e in r]


def test_from_matrix_refuses_what_reassembly_refuses():
    # every entry of an assembled matrix corrupted in turn: the entrywise
    # block check accepts and refuses exactly what reassembly does, with
    # the same message
    rng = random.Random(24)
    for sig in ORACLE_SIGS:
        size = sig.n + 4
        for x in (rand_so_element(sig, rng),
                  SoElement.generator_e(sig), SoElement(sig)):
            m = x.assemble()
            assert SoElement.from_matrix(sig, x.ints) == x
            refused = 0
            for r in range(size):
                for c in range(size):
                    rows = [list(row) for row in m.data]
                    rows[r][c] += samplers.rand_nonzero_fraction(rng)
                    bad = IntMat.of(Mat(rows))
                    got = _outcome(SoElement.from_matrix, sig, bad)
                    expected = _outcome(_from_matrix_by_reassembly, sig, bad)
                    assert got == expected, (sig, r, c)
                    refused += isinstance(got, str)
            # each entry repeats another one up to sign or must vanish
            assert refused == size * size


def _assert_rows(x, want):
    # x holds the integer rows of the Fraction matrix want, and its views
    # read back the blocks of want
    assert x.ints.equals(IntMat.of(want))
    assert x.assemble() == want and _block_assembly(x) == want


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=repr)
def test_elements_hold_the_integer_rows_of_their_matrix(sig):
    # every way of building an element, against the Fraction matrix of the
    # module docstring (`_block_assembly`)
    rng = random.Random(27 + 7 * sig.p + sig.q)
    n = sig.n
    basis = [_block_assembly(b) for b in _so_basis_by_blocks(sig)]
    for _ in range(3):
        blocks = (samplers.rand_fraction(rng), samplers.rand_mat(rng, n, 2),
                  samplers.rand_mat(rng, 2, 2), samplers.rand_so_pq(sig, rng),
                  samplers.rand_mat(rng, 2, n), samplers.rand_fraction(rng))
        x = SoElement(sig, *blocks)
        views = (x.z, x.X, x.A, x.D, x.U, x.w)
        assert (views[0], views[-1]) == (blocks[0], blocks[-1])
        for view, b in zip(views[1:-1], blocks[1:-1]):
            assert type(view) is IntMat and view.equals(b)
        want = _block_assembly(x)
        _assert_rows(x, want)
        _assert_rows(SoElement.from_matrix(sig, IntMat.of(want)), want)
        g = x.ints
        assert SoElement.from_matrix(sig, g).ints is g
        # equality reads values: the rows doubled over twice the
        # denominator are x, the rows over twice the denominator are not
        assert SoElement.from_matrix(sig, IntMat(
            2 * g.d, n + 4, [[2 * e for e in r] for r in g.dense])) == x
        assert SoElement.from_matrix(sig, IntMat(2 * g.d, n + 4, g.dense)) != x
        y = rand_so_element(sig, rng)
        other = _block_assembly(y)
        c = samplers.rand_nonzero_fraction(rng)
        for got, expected in ((x + y, want + other), (x - y, want - other),
                              (-x, -want), (c * x, scaled(c, want)),
                              (0 * x, zeros(n + 4, n + 4)),
                              (bracket(x, y), product(want, other)
                               - product(other, want))):
            _assert_rows(got, expected)
        # integer coordinates over one denominator
        d = rng.randint(2, 6)
        ks = [rng.randint(-4, 4) for _ in basis]
        expected = zeros(n + 4, n + 4)
        for k, b in zip(ks, basis):
            expected = expected + scaled(Fraction(k, d), b)
        _assert_rows(from_coordinates(sig, zip(basis_positions(sig), ks), d),
                     expected)


def test_elements_refuse_float_entries_when_built():
    sig = Signature(2, 1)
    m = SoElement.generator_e(sig).assemble()
    for make in (lambda: SoElement(sig, z=0.5), lambda: SoElement(sig, w=0.5),
                 lambda: SoElement(sig, X=IntMat.of(zeros(3, 2, 0.0))),
                 lambda: SoElement.from_matrix(sig, IntMat.of(m.map(float)))):
        with pytest.raises(TypeError, match="float"):
            make()
    # a block or a matrix given as a Mat is refused before its entries
    for make in (lambda: SoElement(sig, X=zeros(3, 2, 0.0)),
                 lambda: SoElement(sig, D=zeros(3, 3, 0.0)),
                 lambda: SoElement.from_matrix(sig, m.map(float))):
        with pytest.raises(TypeError, match="IntMat"):
            make()


def _unit(r, c, i, j) -> IntMat:
    m = [[0] * c for _ in range(r)]
    m[i][j] = 1
    return IntMat(1, c, m)


def _so_basis_by_blocks(sig):
    # the documented order spelled out block by block: the reference for
    # the table-driven basis
    n = sig.n
    signs = sig.signs()
    out = [SoElement.generator_e(sig)]
    for j in range(2):
        for i in range(n):
            out.append(SoElement(sig, X=_unit(n, 2, i, j)))
    for i in range(2):
        for j in range(2):
            out.append(SoElement(sig, A=_unit(2, 2, i, j)))
    for i in range(n):
        for j in range(i + 1, n):
            d = [[Fraction(0)] * n for _ in range(n)]
            d[i][j] = Fraction(signs[i])
            d[j][i] = Fraction(-signs[j])
            out.append(SoElement(sig, D=ints(d)))
    for i in range(2):
        for j in range(n):
            out.append(SoElement(sig, U=_unit(2, n, i, j)))
    out.append(SoElement(sig, w=1))
    return out


def _so_coordinates_by_blocks(x):
    # coordinates in the documented order, read block by block
    n = x.sig.n
    signs = x.sig.signs()
    xm, am, dm, um = (m.to_mat().data for m in (x.X, x.A, x.D, x.U))
    coords = [x.z]
    for j in range(2):
        for i in range(n):
            coords.append(xm[i][j])
    for i in range(2):
        for j in range(2):
            coords.append(am[i][j])
    for i in range(n):
        for j in range(i + 1, n):
            coords.append(dm[i][j] / signs[i])
    for i in range(2):
        for j in range(n):
            coords.append(um[i][j])
    coords.append(x.w)
    return coords


def _typed_blocks(x):
    return [(type(e), repr(e)) for e in (x.z, x.w)] + [
        (type(e), repr(e)) for m in (x.X, x.A, x.D, x.U)
        for r in m.to_mat().data for e in r]


def test_table_basis_matches_the_block_by_block_oracle():
    rng = random.Random(25)
    for sig in ORACLE_SIGS:
        n = sig.n
        basis, expected = so_basis(sig), _so_basis_by_blocks(sig)
        assert len(basis) == len(expected) == (n + 3) * (n + 4) // 2
        for got, want in zip(basis, expected):
            assert _typed_blocks(got) == _typed_blocks(want)
        assert so_basis_degrees(sig) == (
            [-2] + [-1] * (2 * n) + [0] * (4 + n * (n - 1) // 2)
            + [1] * (2 * n) + [2])
        for x in [*basis, *(rand_so_element(sig, rng)
                            for _ in range(10))]:
            assert (int_coordinates(sig, x.assemble().data)
                    == _so_coordinates_by_blocks(x))


def test_table_coordinates_refuse_every_corrupted_entry():
    # the structure-table side of the same block check, on integer rows
    for sig in ORACLE_SIGS:
        size = sig.n + 4
        for x in (so_basis(sig)[1], 2 * so_basis(sig)[-2] - so_basis(sig)[0]):
            m = x.assemble()
            rows = [[int(e) for e in r] for r in m.data]
            assert int_coordinates(sig, rows) == _so_coordinates_by_blocks(x)
            for r in range(size):
                for c in range(size):
                    bad = [list(row) for row in rows]
                    bad[r][c] += 3
                    with pytest.raises(ValueError):
                        int_coordinates(sig, bad)


def commutator(a, b):
    # the reference: the commutator of two Mats in Fraction arithmetic
    return a * b - b * a


def test_bracket_matches_the_fraction_commutator():
    rng = random.Random(14)
    for sig in SIGS:
        xs = [rand_so_element(sig, rng) for _ in range(3)]
        xs.append(SoElement.generator_e(sig))
        for x in xs:
            for y in xs:
                assert bracket(x, y).assemble() == commutator(x.assemble(),
                                                              y.assemble())


def test_bracket_antisymmetry_and_signature_guard():
    sig = Signature(2, 1)
    rng = random.Random(12)
    x = rand_so_element(sig, rng)
    y = rand_so_element(sig, rng)
    assert bracket(x, y) == -(bracket(y, x))
    assert bracket(x, x).is_zero()
    with pytest.raises(ValueError):
        bracket(x, rand_so_element(Signature(3, 0), rng))


def test_levi_bracket_oracles():
    sig = Signature(2, 1)
    e1 = ints([[1, 0], [0, 0], [0, 0]])
    e1_right = ints([[0, 1], [0, 0], [0, 0]])
    assert bracket_gm1(sig, e1, e1_right) == 1
    e3 = ints([[0, 0], [0, 0], [1, 0]])
    e3_right = ints([[0, 0], [0, 0], [0, 1]])
    assert bracket_gm1(sig, e3, e3_right) == -1
    assert bracket_gm1(sig, e1, e1) == 0


def test_levi_bracket_matches_matrix_commutator():
    rng = random.Random(13)
    for sig in SIGS:
        for _ in range(60):
            x = samplers.rand_gm1(sig, rng)
            y = samplers.rand_gm1(sig, rng)
            full = bracket(SoElement(sig, X=x), SoElement(sig, X=y))
            expected = bracket_gm1(sig, x, y) * SoElement.generator_e(sig)
            assert full == expected


def _bracket_by_inner(sig, x, y):
    """bracket_gm1 by its formula on Fractions: <X1, Y2> - <X2, Y1>, for
    the Fraction views of the IntMats x and y."""
    x, y = x.to_mat(), y.to_mat()
    return (inner(sig, x.column(0), y.column(1))
            - inner(sig, x.column(1), y.column(0)))


@pytest.mark.parametrize("sig", DOMAIN_SIGS,
                         ids=lambda sig: "%d-%d" % (sig.p, sig.q))
def test_bracket_gm1_matches_the_inner_formula(sig):
    rng = random.Random(14 + 7 * sig.p + sig.q)
    zero = IntMat(1, 2, sparse=[[]] * sig.n)
    for _ in range(12):
        x = samplers.rand_gm1(sig, rng)
        y = samplers.rand_mixed_gm1(sig, rng)
        for a, b in ((x, y), (y, x), (x, x), (x, zero)):
            got = bracket_gm1(sig, a, b)
            assert type(got) is Fraction
            assert got == _bracket_by_inner(sig, a, b)
    # integer rows over 1 are read as rationals, and a Mat is refused,
    # of Fractions or of floats
    m = Mat([[i - 2 * j for j in range(2)] for i in range(sig.n)])
    assert (bracket_gm1(sig, IntMat.of(m), x)
            == _bracket_by_inner(sig, IntMat.of(m), x))
    for bad in (m.map(Fraction), m.map(float)):
        with pytest.raises(TypeError, match="IntMat"):
            bracket_gm1(sig, bad, x)
        with pytest.raises(TypeError, match="IntMat"):
            bracket_gm1(sig, x, bad)


def test_generator_bracket_with_top_grade_lands_in_middle():
    sig = Signature(2, 1)
    e = SoElement.generator_e(sig)
    w = SoElement(sig, w=1)
    out = bracket(e, w)
    assert grade(out, 0) == out and not out.is_zero()


def test_equivariance_residuals_vanish():
    rng = random.Random(14)
    for sig in SIGS:
        for _ in range(40):
            c = samplers.rand_opq(sig, rng)
            a = samplers.rand_mat(rng, 2, 2)
            x = samplers.rand_gm1(sig, rng)
            y = samplers.rand_gm1(sig, rng)
            assert orthogonal_residual(sig, c, x, y) == 0
            assert scaling_residual(sig, a, x, y) == 0
            # the same residuals through Fraction products
            cm, xm, ym, am = (m.to_mat() for m in (c, x, y, a))
            assert (bracket_gm1(sig, IntMat.of(cm * xm), IntMat.of(cm * ym))
                    == bracket_gm1(sig, x, y))
            assert (bracket_gm1(sig, IntMat.of(xm * am), IntMat.of(ym * am))
                    == det(a) * bracket_gm1(sig, x, y))
    # every matrix is an IntMat: a Mat view is refused
    for args in ((c.to_mat(), x, y), (c, x.to_mat(), y), (c, x, y.to_mat())):
        with pytest.raises(TypeError, match="IntMat"):
            orthogonal_residual(sig, *args)
    for args in ((a.to_mat(), x, y), (a, x.to_mat(), y), (a, x, y.to_mat())):
        for factor in (None, 1):
            with pytest.raises(TypeError, match="IntMat"):
                scaling_residual(sig, *args, factor)


def test_equivariance_rejects_non_orthogonal_c():
    sig = Signature(2, 1)
    rng = random.Random(15)
    x = samplers.rand_gm1(sig, rng)
    with pytest.raises(ValueError):
        orthogonal_residual(sig, IntMat.of(scaled(2, Mat.identity(3))), x, x)


def test_orthogonality_check_refuses_near_misses():
    # a corrupted element of O(p, q), one with C^T Ipq C = -Ipq and
    # multiples c·C are refused by every caller, with the check's message
    rng = random.Random(17)
    for sig in (Signature(2, 1), Signature(2, 2), Signature(3, 3)):
        c = samplers.rand_opq(sig, rng).to_mat()
        bad = [_corrupted(c, rng), scaled(2, Mat.identity(sig.n)),
               scaled(Fraction(-1, 3), c)]
        if sig.p == sig.q:
            bad.append(c * _sign_swap(sig)[1])
        x = samplers.rand_gm1(sig, rng)
        one = identity(2)
        for b in bad:
            assert transpose(b) * ipq(sig) * b != ipq(sig)
            for make in (lambda: QGroupElement(sig, one, IntMat.of(b)),
                         lambda: orthogonal_residual(sig, IntMat.of(b), x,
                                                     x)):
                with pytest.raises(ValueError, match=r"C is not orthogonal "
                                   r"for the \(p,q\) form"):
                    make()
        assert QGroupElement(sig, one, IntMat.of(c)).C == c


def test_group_elements_reject_singular_b_and_non_orthogonal_c():
    sig = Signature(2, 1)
    singular = ints([[1, 2], [2, 4]])
    flip = diag([Fraction(1), Fraction(-1), Fraction(1)])
    for w in (0, Fraction(3, 2)):
        with pytest.raises(ValueError, match="B must be invertible"):
            QGroupElement(sig, singular, identity(3), w)
        with pytest.raises(ValueError, match="C is not orthogonal"):
            QGroupElement(sig, identity(2), ints([[2, 0, 0], [0, 2, 0],
                                                  [0, 0, 2]]), w)
        assert QGroupElement(sig, identity(2), IntMat.of(flip), w).C == flip


def test_rank_one_bracket_closed_form():
    rng = random.Random(16)
    for sig in SIGS:
        n = sig.n
        for _ in range(40):
            f1 = (samplers.rand_fraction(rng), samplers.rand_fraction(rng))
            f2 = (samplers.rand_fraction(rng), samplers.rand_fraction(rng))
            u1 = [samplers.rand_fraction(rng) for _ in range(n)]
            u2 = [samplers.rand_fraction(rng) for _ in range(n)]
            x = ints([[u1[i] * f1[0], u1[i] * f1[1]] for i in range(n)])
            y = ints([[u2[i] * f2[0], u2[i] * f2[1]] for i in range(n)])
            assert bracket_gm1(sig, x, y) == rank_one_bracket(
                sig, f1, f2, u1, u2)


def test_g0_adjoint_oracle_and_scaling_law():
    # the elements of Q with w = 0 make up G0
    sig = Signature(2, 1)
    h = QGroupElement(sig, ints([[2, 0], [0, 2]]), identity(3))
    x = ints([[1, 2], [3, 4], [5, 6]])
    out = ad_so(h, SoElement(sig, z=1, X=x))
    assert out.z == Fraction(1, 4)
    assert out.X.to_mat() == scaled(Fraction(1, 2), x.to_mat())
    rng = random.Random(17)
    for _ in range(30):
        h = QGroupElement(sig, samplers.rand_gl2(rng),
                          samplers.rand_opq(sig, rng))
        x = samplers.rand_gm1(sig, rng)
        y = samplers.rand_gm1(sig, rng)
        gx = ad_so(h, SoElement(sig, X=x)).X
        gy = ad_so(h, SoElement(sig, X=y)).X
        assert (bracket_gm1(sig, gx, gy)
                == bracket_gm1(sig, x, y) / det(h.int_b))


@pytest.mark.parametrize("w", [0, 3])
def test_q_group_element_equality_is_up_to_sign(w):
    sig = Signature(2, 1)
    b = ints([[1, 2], [0, 1]])
    c = identity(3)
    neg_b, neg_c = (IntMat.combination([(-1, m)]) for m in (b, c))
    h = QGroupElement(sig, b, c, w)
    assert h == QGroupElement(sig, neg_b, neg_c, w)
    assert h != QGroupElement(sig, neg_b, c, w)
    assert h != QGroupElement(sig, b, neg_c, w)
    assert h != QGroupElement(sig, b, c, w + 1)


def test_elements_over_two_denominators_are_equal_and_hash_equal():
    rng = random.Random(12)
    for sig in SIGS:
        x = rand_so_element(sig, rng)
        g = x.ints
        y = SoElement.from_matrix(sig, IntMat(
            2 * g.d, g.cols, [[2 * e for e in r] for r in g.dense]))
        assert y.ints.d != g.d
        assert x == y and hash(x) == hash(y)
        assert x.ints.lowest_terms() == y.ints.lowest_terms()


def test_segre_rank():
    assert segre_rank(ints([[1, 0], [0, 1], [0, 0]])) == 2
    assert segre_rank(ints([[1, 2], [2, 4], [3, 6]])) == 1
    assert segre_rank(IntMat(1, 2, sparse=[[]] * 3)) == 0
    with pytest.raises(TypeError, match="IntMat"):
        segre_rank(zeros(3, 2))


def test_q_group_membership_and_line_stabilization():
    rng = random.Random(18)
    for sig in SIGS:
        s = form_s(sig)
        e = SoElement.generator_e(sig)
        for _ in range(20):
            h = samplers.rand_q_element(sig, rng)
            m = h.assemble()
            assert product(transpose(m), s, m) == s
            out = ad_so(h, e)
            beta = h.det_b()
            assert out.X.is_zero() and out.D.is_zero() and out.U.is_zero()
            assert out.z == 1 / beta
            assert out.A.to_mat() == scaled(-h.w, Mat.identity(2))
            assert out.w == h.w * h.w * beta


def test_q_group_composition_against_assembled_product():
    rng = random.Random(19)
    for sig in SIGS:
        for _ in range(25):
            h1 = samplers.rand_q_element(sig, rng)
            h2 = samplers.rand_q_element(sig, rng)
            combined = h1.compose(h2)
            assert combined.assemble() == product(h1.assemble(),
                                                  h2.assemble())
            inv = h1.inverse()
            assert h1.compose(inv) == q_identity(sig)
            assert inv.assemble() == invert(IntMat.of(h1.assemble())).to_mat()
            # the data of the inverse as products, with the form Ipq
            form = ipq(sig)
            assert (inv.B, inv.C, inv.w) == (
                invert(h1.int_b).to_mat(),
                product(form, transpose(h1.C), form),
                -h1.w * det(h1.int_b))


@pytest.mark.parametrize("sampler", [samplers.rand_q_element,
                                     samplers.rand_q_square])
def test_q_closed_form_block_matches_elimination(sampler):
    # det_b and the blocks B^-1 and (B^-1)^T against linalg's elimination
    rng = random.Random(23)
    for sig in SIGS + (Signature(3, 3),):
        for _ in range(30):
            h = sampler(sig, rng)
            n = sig.n
            assert h.det_b() == det(h.int_b)
            assert submat(h.assemble(), n + 2, n + 4, n + 2, n + 4) == (
                transpose(invert(h.int_b).to_mat()))
            assert h.inverse().B == invert(h.int_b).to_mat()


@pytest.mark.parametrize("sampler", [samplers.rand_q_element,
                                     samplers.rand_q_square])
def test_integer_q_matches_the_fraction_block_formulas(sampler):
    # the element on integer rows against its block formulas on Fractions:
    # the assembled matrix, det B, the group law, the inverse, the integer
    # pair and equality up to sign
    rng = random.Random(26)
    for sig in DOMAIN_SIGS:
        form = ipq(sig)
        hs = [sampler(sig, rng) for _ in range(3)]
        for h, g in zip(hs, hs[1:] + hs[:1]):
            b, c, w = h.B, h.C, h.w
            m = h.assemble()
            assert m == _q_block_assembly(h)
            assert h.det_b() == det(IntMat.of(b))
            assert [x.to_mat() for x in h.int_pair()] == [
                m, invert(IntMat.of(m)).to_mat()]
            hg = h.compose(g)
            assert (hg.B, hg.C, hg.w) == (b * g.B, product(c, g.C),
                                          g.w + w / det(IntMat.of(g.B)))
            inv = h.inverse()
            assert (inv.B, inv.C, inv.w) == (invert(IntMat.of(b)).to_mat(),
                                             product(form, transpose(c), form),
                                             -w * det(IntMat.of(b)))
            ib, ic, nb, nc = (IntMat.of(x) for x in (b, c, -b, -c))
            for other, equal in ((QGroupElement(sig, nb, nc, w), True),
                                 (QGroupElement(sig, nb, ic, w), False),
                                 (QGroupElement(sig, ib, nc, w), False),
                                 (QGroupElement(sig, ib, ic, w + 1), False),
                                 (hg.compose(g.inverse()), True), (g, False)):
                assert (h == other) == equal


def test_group_elements_reject_a_b_that_is_not_2x2():
    sig = Signature(2, 1)
    with pytest.raises(ValueError, match="B must be 2x2"):
        QGroupElement(sig, identity(3), identity(3))
    # B and C are IntMats: a Mat is refused, of ints or of Fractions
    for b in (Mat([[1, 0], [0, 1]]), Mat.identity(2)):
        with pytest.raises(TypeError, match="B must be an IntMat"):
            QGroupElement(sig, b, identity(3))
    with pytest.raises(TypeError, match="C must be an IntMat"):
        QGroupElement(sig, identity(2), Mat.identity(3))


def _q_block_assembly(h):
    # the assembled matrix of the QGroupElement docstring, built here
    n = h.sig.n
    j2 = Mat([[0, 1], [-1, 0]]).map(Fraction)
    return block([[h.B, zeros(2, n), scaled(h.w, h.B * j2)],
                  [zeros(n, 2), h.C, zeros(n, 2)],
                  [zeros(2, 2), zeros(2, n),
                   transpose(invert(h.int_b).to_mat())]])


def test_q_assemble_is_the_matrix_of_the_integer_pair():
    rng = random.Random(22)
    for sig in SIGS:
        hs = [samplers.rand_q_element(sig, rng) for _ in range(4)]
        hs.append(q_identity(sig))
        for h in hs:
            assert h.assemble() == _q_block_assembly(h)
        twin = QGroupElement(sig, IntMat.of(hs[0].B), IntMat.of(hs[0].C),
                             hs[0].w)
        assert twin == hs[0] and twin.assemble() == hs[0].assemble()


def test_q_adjoint_matches_matrix_conjugation():
    rng = random.Random(20)
    for sig in SIGS:
        for _ in range(15):
            h = samplers.rand_q_element(sig, rng)
            x = rand_so_element(sig, rng)
            lhs = ad_so(h, x).assemble()
            m = h.assemble()
            assert lhs == product(m, x.assemble(),
                                  invert(IntMat.of(m)).to_mat())


def test_q_integer_pair_is_the_matrix_and_its_inverse():
    rng = random.Random(23)
    for sig in SIGS:
        for _ in range(5):
            h = samplers.rand_q_element(sig, rng)
            pair = h.int_pair()
            assert h.int_pair() is pair
            m = h.assemble()
            assert [x.to_mat() for x in pair] == [
                m, invert(IntMat.of(m)).to_mat()]


def test_q_adjoint_on_negative_part_matches_g0_formula():
    rng = random.Random(21)
    for sig in SIGS:
        for _ in range(25):
            h = QGroupElement(sig, samplers.rand_gl2(rng),
                              samplers.rand_opq(sig, rng))
            x = samplers.rand_gm1(sig, rng)
            z = samplers.rand_fraction(rng)
            out = ad_so(h, SoElement(sig, z=z, X=x))
            # the action of G0 on g_-2 + g_-1: (z, X) -> (z / det B, C X B^-1)
            assert out.z == z / det(h.int_b)
            assert out.X.to_mat() == product(h.C, x.to_mat(),
                                             invert(h.int_b).to_mat())


def test_basis_coordinates_round_trip():
    rng = random.Random(22)
    for sig in SIGS:
        basis = so_basis(sig)
        degrees = so_basis_degrees(sig)
        assert len(basis) == len(degrees)
        for b, d in zip(basis, degrees):
            assert grade(b, d) == b
        for _ in range(10):
            x = rand_so_element(sig, rng)
            acc = SoElement(sig)
            for c, b in zip(int_coordinates(sig, x.assemble().data), basis):
                acc = acc + c * b
            assert acc == x


def test_structure_constants_match_brackets():
    for pq in ((1, 1), (2, 1), (3, 0), (0, 3), (2, 2), (3, 3)):
        sig = Signature(*pq)
        basis = so_basis(sig)
        table = structure_constants(sig)
        dim = len(basis)
        assert set(table) == {(a, b) for a in range(dim) for b in range(dim)
                              if a != b}
        assert all(type(v) is int and v
                   for sparse in table.values() for v in sparse.values())
        for a in range(dim):
            for b in range(a + 1, dim):
                # bracket(x_b, x_a) is exactly -bracket(x_a, x_b)
                expected = _so_coordinates_by_blocks(
                    bracket(basis[a], basis[b]))
                for pair, sign in (((a, b), 1), ((b, a), -1)):
                    sparse = table[pair]
                    got = [sign * sparse.get(c, 0) for c in range(dim)]
                    assert got == expected, (pq, pair)


def test_structure_constants_are_cached_and_read_only():
    sig = Signature(3, 0)
    table = structure_constants(sig)
    assert structure_constants(Signature(3, 0)) is table
    with pytest.raises(TypeError):
        table[(0, 1)] = {}
    with pytest.raises(TypeError):
        table[(1, 2)][0] = 5
    assert structure_constants(Signature(2, 1)) is not table


def test_jacobi_identity_exact():
    total, failures = jacobi_check(Signature(2, 1))
    assert failures == 0
    assert total == len(so_basis_degrees(Signature(2, 1))) ** 3


def test_grading_respected():
    assert grading_check(Signature(2, 1)) == 0


def test_inner_uses_the_signature():
    sig = Signature(2, 1)
    assert inner(sig, (1, 0, 0), (1, 0, 0)) == 1
    assert inner(sig, (0, 0, 1), (0, 0, 1)) == -1
    assert inner(sig, (1, 2, 3), (3, 2, 1)) == 3 + 4 - 3


def test_inner_refuses_floats():
    # each entry is read through rat, so a float never reaches the sum
    sig = Signature(2, 1)
    for u, v in (([0.5, 1, 1], [1, 1, 1]), ([1, 1, 1], [1, 1.0, 1]),
                 ([Fraction(1, 2), 1, 1], [1, 1, -0.0])):
        with pytest.raises(TypeError, match="float"):
            inner(sig, u, v)
    got = inner(sig, [Fraction(1, 2), 1, 1], [1, 1, 1])
    assert got == Fraction(1, 2) and type(got) is Fraction
