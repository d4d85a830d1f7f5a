"""Tests for the block-graded sl(2n+2) layer."""

import random
from fractions import Fraction

import pytest

from liecontact import samplers
from liecontact.linalg import IntMat, Mat, jacobi_failures, structure_table
from liecontact.path_sl import (_SLOT_DEGREE, SlElement, _slot_of, entry_degrees, neg_positions,
                                sl_bracket, sl_neg_coordinates,
                                sl_neg_degrees, sl_neg_slots, w0)
from oracles import col, identity, ints, product, scaled, zeros
from test_linalg import DualRat


def _unit(m, i, j):
    rows = [[Fraction(0)] * m for _ in range(m)]
    rows[i][j] = Fraction(1)
    return Mat(rows)


def sl_neg_basis(n):
    # the units at the negative-basis positions, in their order
    m = 2 * n + 2
    return [SlElement(n, IntMat.of(_unit(m, r, c)))
            for r, c in neg_positions(n)]


def sl_neg_duals(n):
    # the trace-form duals of sl_neg_basis, in the positive part: the
    # transposed units
    m = 2 * n + 2
    return [SlElement(n, IntMat.of(_unit(m, c, r)))
            for r, c in neg_positions(n)]


def sl_full_basis(n):
    # a basis of sl(2n+2): the off-diagonal units E_(a,b) in row-major
    # order, then H_i = E_(i,i) - E_(i+1,i+1)
    m = 2 * n + 2
    basis = [_unit(m, a, b) for a in range(m) for b in range(m) if a != b]
    for i in range(m - 1):
        basis.append(_unit(m, i, i) - _unit(m, i + 1, i + 1))
    return [SlElement(n, IntMat.of(b)) for b in basis]


def _sl_coordinates(rows):
    # the coordinates of a trace-free integer matrix, given as rows, in the
    # sl_full_basis order; the diagonal is expanded over the H_i by prefix
    # sums
    m = len(rows)
    coords = [rows[a][b] for a in range(m) for b in range(m) if a != b]
    diag = [rows[i][i] for i in range(m)]
    if sum(diag) != 0:
        raise ValueError("diagonal part has nonzero trace")
    prefix = 0
    for d in diag[:-1]:
        prefix += d
        coords.append(prefix)
    return coords


def sl_structure_constants(n):
    # the structure-constant table of sl(2n+2) over sl_full_basis
    return structure_table([b.ints for b in sl_full_basis(n)],
                           _sl_coordinates)


def test_trace_free_enforced():
    with pytest.raises(ValueError):
        SlElement(2, IntMat.of(Mat.identity(6)))
    x = SlElement.zero(2)
    assert x.is_zero()
    # the matrix is an IntMat: a Mat is refused, trace free or not
    for m in (zeros(6, 6), Mat.identity(6)):
        with pytest.raises(TypeError, match="IntMat"):
            SlElement(2, m)
    with pytest.raises(TypeError, match="IntMat"):
        SlElement.from_m2(2, zeros(4, 1))


@pytest.mark.parametrize("entries", ["Fraction", "int"])
def test_trace_free_check_matches_the_trace(entries):
    # the trace check on the integer rows accepts exactly the matrices whose
    # trace is zero
    convert = {"Fraction": lambda e: e, "int": lambda e: int(12 * e)}[entries]
    rng = random.Random(43)
    diagonals = [
        # trace free, but the numerators alone do not sum to zero
        [Fraction(1, 2), Fraction(-1, 3), Fraction(-1, 6)],
        # numerators summing to zero over a nonzero trace
        [Fraction(1, 2), Fraction(-1, 3), Fraction(0)],
        [Fraction(0)] * 3,
        [Fraction(3, 4), Fraction(-3, 4), Fraction(0)],
    ]
    for n in (1, 2, 3):
        size = 2 * n + 2
        cases = []
        for diag in diagonals:
            rows = [[Fraction(0)] * size for _ in range(size)]
            for i, e in enumerate(diag):
                rows[i][i] = e
            rows[0][size - 1] = samplers.rand_fraction(rng)
            cases.append(Mat(rows))
        for _ in range(20):
            m = samplers.rand_mat(rng, size, size).to_mat()
            if rng.random() < 0.5:
                m = m - scaled(Fraction(m.trace(), size), Mat.identity(size))
            cases.append(m)
        for m in cases:
            m = m.map(convert)
            # the reference: Mat.trace(), in the entries' own arithmetic
            if m.trace() != 0:
                with pytest.raises(ValueError, match="trace free"):
                    SlElement(n, IntMat.of(m))
            else:
                x = SlElement(n, IntMat.of(m))
                assert x.mat == m and x.ints.equals(IntMat.of(m))


@pytest.mark.parametrize("entries", ["float", "DualRat"])
def test_elements_refuse_entries_that_are_not_rational(entries):
    # refused when the element is built, trace free or not
    convert = {"float": float, "DualRat": lambda e: DualRat(e, 3 * e)}[
        entries]
    for n in (1, 2):
        size = 2 * n + 2
        for diag in ((1, -1), (1, 2)):
            rows = [[Fraction(0)] * size for _ in range(size)]
            rows[0][0], rows[1][1] = map(Fraction, diag)
            rows[0][size - 1] = Fraction(1, 3)
            with pytest.raises(TypeError):
                SlElement(n, IntMat.of(Mat(rows).map(convert)))


def _grade_project_by_slot_of(x, d):
    # the reference: the slot of every entry derived afresh
    return Mat([[e if _SLOT_DEGREE[_slot_of(i, j)] == d else Fraction(0)
                 for j, e in enumerate(r)] for i, r in enumerate(x.mat.data)])


def test_slot_table_reads_match_slot_of():
    rng = random.Random(44)
    for n in (1, 2, 3):
        size = 2 * n + 2
        assert entry_degrees(n) == tuple(
            tuple(_SLOT_DEGREE[_slot_of(i, j)] for j in range(size))
            for i in range(size))
        for _ in range(15):
            rows = [[samplers.rand_fraction(rng) if rng.random() < 0.3
                     else Fraction(0) for _ in range(size)]
                    for _ in range(size)]
            for i in range(size):
                rows[i][i] = Fraction(0)
            x = SlElement(n, IntMat.of(Mat(rows)))
            used = {_slot_of(i, j) for i in range(size)
                    for j in range(size) if rows[i][j] != 0}
            assert ({entry_degrees(n)[i][j] for i in range(size)
                     for j in range(size) if rows[i][j] != 0}
                    == {_SLOT_DEGREE[s] for s in used})
            for d in (-2, -1, 0, 1, 2):
                expected = _grade_project_by_slot_of(x, d)
                assert x.grade_project(d).mat == expected
            for slot in _SLOT_DEGREE:
                assert x.in_slots(tuple(used - {slot})) == (slot not in used)
            assert x.in_slots(tuple(used))


def test_slot_constructors_and_extractors():
    n = 3
    v = ints([[k + 1] for k in range(2 * n)])
    x = SlElement.from_m2(n, v)
    got = x.m2_vector()
    assert type(got) is IntMat and got.equals(v)
    assert x.in_slots(("m2",))
    y = sl_bracket(SlElement.from_m2(n, v), w0(n))
    assert col([y.mat.data[2 + i][1] for i in range(2 * n)]) == v.to_mat()
    assert y.in_slots(("m1V",))
    z = Fraction(5) * sl_neg_basis(n)[2 * n]
    assert z.mat.data[1][0] == 5
    assert z.in_slots(("m1E",))
    assert w0(n).mat.data[0][1] == 1
    assert w0(n).in_slots(("p1E",))


def _trace_free(m: IntMat) -> IntMat:
    """m minus tr(m)/size times the identity."""
    size = m.rows
    trace = Fraction(sum(r[i] for i, r in enumerate(m.dense)), m.d)
    return IntMat.combination([(1, m), (-trace / size, identity(size))])


def test_grade_projections_partition_the_element():
    rng = random.Random(40)
    n = 3
    for _ in range(20):
        m = _trace_free(samplers.rand_mat(rng, 2 * n + 2, 2 * n + 2))
        x = SlElement(n, m)
        total = SlElement.zero(n)
        for d in (-2, -1, 0, 1, 2):
            total = total + x.grade_project(d)
        assert total == x


def test_elements_over_two_denominators_are_equal_and_hash_equal():
    rng = random.Random(43)
    for n in (1, 2, 3):
        m = 2 * n + 2
        x = SlElement(n, _trace_free(samplers.rand_mat(rng, m, m)))
        g = x.ints
        y = SlElement(n, IntMat(2 * g.d, m, [[2 * e for e in r]
                                             for r in g.dense]))
        assert x == y and hash(x) == hash(y)
        assert g.lowest_terms() == y.ints.lowest_terms()


def test_sl_bracket_matches_the_fraction_commutator():
    rng = random.Random(42)
    for n in (1, 2, 3):
        m = 2 * n + 2
        xs = []
        for _ in range(3):
            xs.append(SlElement(n, _trace_free(samplers.rand_mat(rng, m, m))))
        for x in xs:
            for y in xs:
                assert sl_bracket(x, y).mat == x.mat * y.mat - y.mat * x.mat


def test_bracket_respects_grading():
    rng = random.Random(41)
    n = 3
    for _ in range(30):
        da = rng.choice((-2, -1, 0, 1, 2))
        db = rng.choice((-2, -1, 0, 1, 2))
        m = _trace_free(samplers.rand_mat(rng, 2 * n + 2, 2 * n + 2))
        a = SlElement(n, m).grade_project(da)
        m2 = _trace_free(samplers.rand_mat(rng, 2 * n + 2, 2 * n + 2))
        b = SlElement(n, m2).grade_project(db)
        out = sl_bracket(a, b)
        target = da + db
        if abs(target) > 2:
            assert out.is_zero()
        else:
            assert out.grade_project(target) == out


def test_negative_basis_shape():
    n = 3
    basis = sl_neg_basis(n)
    slots = sl_neg_slots(n)
    degrees = sl_neg_degrees(n)
    assert len(basis) == 4 * n + 1
    assert slots == ["m2"] * (2 * n) + ["m1E"] + ["m1V"] * (2 * n)
    assert degrees == [-2] * (2 * n) + [-1] * (2 * n + 1)
    for b, s in zip(basis, slots):
        assert b.in_slots((s,))


def test_duals_pair_by_trace():
    n = 3
    basis = sl_neg_basis(n)
    duals = sl_neg_duals(n)
    for a, da in enumerate(duals):
        for b, xb in enumerate(basis):
            expected = Fraction(1) if a == b else Fraction(0)
            assert product(da.mat, xb.mat).trace() == expected


# the documented order of the negative-part basis, written out by hand
NEG_POSITIONS = {
    1: [(2, 0), (3, 0), (1, 0), (2, 1), (3, 1)],
    2: [(2, 0), (3, 0), (4, 0), (5, 0), (1, 0),
        (2, 1), (3, 1), (4, 1), (5, 1)],
}


def _unit_position(x):
    nonzero = [(i, j, e) for i, r in enumerate(x.mat.data)
               for j, e in enumerate(r) if e != 0]
    assert len(nonzero) == 1 and nonzero[0][2] == 1
    return nonzero[0][:2]


@pytest.mark.parametrize("n", sorted(NEG_POSITIONS))
def test_negative_basis_sits_at_the_documented_positions(n):
    positions = NEG_POSITIONS[n]
    assert [_unit_position(b) for b in sl_neg_basis(n)] == positions
    assert ([_unit_position(d) for d in sl_neg_duals(n)]
            == [(j, i) for i, j in positions])
    m = 2 * n + 2
    # every entry distinct, so a coordinate read from a wrong position shows
    x = SlElement(n, ints([[i * m + j if i != j else 0 for j in range(m)]
                           for i in range(m)]))
    coords = sl_neg_coordinates(x)
    assert coords.d == x.ints.d and coords.rows == 1
    assert list(coords.to_mat().data[0]) == [x.mat.data[i][j]
                                             for i, j in positions]


def test_negative_coordinates_round_trip():
    rng = random.Random(42)
    n = 3
    basis = sl_neg_basis(n)
    for _ in range(20):
        coords = [samplers.rand_fraction(rng) for _ in range(4 * n + 1)]
        x = SlElement.zero(n)
        for c, b in zip(coords, basis):
            x = x + c * b
        assert list(sl_neg_coordinates(x).to_mat().data[0]) == coords


@pytest.mark.parametrize("n", [1, 2])
def test_structure_constants_match_brackets(n):
    basis = sl_full_basis(n)
    dim = (2 * n + 2) ** 2 - 1
    assert len(basis) == dim
    table = sl_structure_constants(n)
    assert set(table) == {(a, b) for a in range(dim) for b in range(dim)
                          if a != b}
    for (a, b), sparse in table.items():
        expanded = SlElement.zero(n)
        for c, coeff in sparse.items():
            expanded = expanded + coeff * basis[c]
        assert expanded == sl_bracket(basis[a], basis[b]), (a, b)


def test_jacobi_identity_exact():
    # every ordered basis triple of sl(6), through the structure constants
    dim = (2 * 2 + 2) ** 2 - 1
    assert jacobi_failures(sl_structure_constants(2), dim) == 0


def test_w0_bracket_turns_bottom_into_vertical():
    n = 3
    v = ints([[k + 2] for k in range(2 * n)])
    x = SlElement.from_m2(n, v)
    out = sl_bracket(x, w0(n))
    assert out.in_slots(("m1V",))
    assert col([out.mat.data[2 + i][1] for i in range(2 * n)]) == v.to_mat()
