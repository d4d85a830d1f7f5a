"""Tests for the block-graded sl(2n+2) layer."""

import random
from fractions import Fraction

import pytest

from liecontact import samplers
from liecontact.linalg import Mat
from liecontact.path_sl import (SlElement, sl_bracket, sl_full_basis,
                                sl_jacobi_check, sl_neg_basis,
                                sl_neg_coordinates, sl_neg_degrees,
                                sl_neg_duals, sl_neg_slots,
                                sl_structure_constants, w0)


def test_trace_free_enforced():
    with pytest.raises(ValueError):
        SlElement(2, Mat.identity(6))
    x = SlElement.zero(2)
    assert x.is_zero()


def test_slot_constructors_and_extractors():
    n = 3
    col = Mat.col([Fraction(k + 1) for k in range(2 * n)])
    x = SlElement.from_m2(n, col)
    assert x.m2_vector() == col
    assert x.in_slots(("m2",))
    y = sl_bracket(SlElement.from_m2(n, col), w0(n))
    assert Mat.col([y.mat[2 + i, 1] for i in range(2 * n)]) == col
    assert y.in_slots(("m1V",))
    z = Fraction(5) * sl_neg_basis(n)[2 * n]
    assert z.mat[1, 0] == 5
    assert z.in_slots(("m1E",))
    assert w0(n).mat[0, 1] == 1
    assert w0(n).in_slots(("p1E",))


def test_grade_projections_partition_the_element():
    rng = random.Random(40)
    n = 3
    for _ in range(20):
        m = samplers.rand_mat(rng, 2 * n + 2, 2 * n + 2)
        m = m - Fraction(m.trace(), 2 * n + 2) * Mat.identity(2 * n + 2)
        x = SlElement(n, m)
        total = SlElement.zero(n)
        for d in (-2, -1, 0, 1, 2):
            total = total + x.grade_project(d)
        assert total == x


def test_bracket_respects_grading():
    rng = random.Random(41)
    n = 3
    for _ in range(30):
        da = rng.choice((-2, -1, 0, 1, 2))
        db = rng.choice((-2, -1, 0, 1, 2))
        m = samplers.rand_mat(rng, 2 * n + 2, 2 * n + 2)
        m = m - Fraction(m.trace(), 2 * n + 2) * Mat.identity(2 * n + 2)
        a = SlElement(n, m).grade_project(da)
        m2 = samplers.rand_mat(rng, 2 * n + 2, 2 * n + 2)
        m2 = m2 - Fraction(m2.trace(), 2 * n + 2) * Mat.identity(2 * n + 2)
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
            assert (da.mat * xb.mat).trace() == expected


def test_negative_coordinates_round_trip():
    rng = random.Random(42)
    n = 3
    basis = sl_neg_basis(n)
    for _ in range(20):
        coords = [samplers.rand_fraction(rng) for _ in range(4 * n + 1)]
        x = SlElement.zero(n)
        for c, b in zip(coords, basis):
            x = x + c * b
        assert sl_neg_coordinates(x) == coords


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
    total, failures = sl_jacobi_check(2)
    assert failures == 0
    dim = (2 * 2 + 2) ** 2 - 1
    assert total == dim ** 3


def test_w0_bracket_turns_bottom_into_vertical():
    n = 3
    col = Mat.col([Fraction(k + 2) for k in range(2 * n)])
    x = SlElement.from_m2(n, col)
    out = sl_bracket(x, w0(n))
    assert out.in_slots(("m1V",))
    assert Mat.col([out.mat[2 + i, 1] for i in range(2 * n)]) == col
