"""Tests for the contact-graded orthogonal algebra layer."""

import random
from fractions import Fraction

import pytest

from liecontact import samplers
from liecontact.linalg import Mat, commutator, det, invert
from liecontact.so_contact import (G0Element, QGroupElement, Signature,
                                   SoElement, _is_so_pq, ad_g0, bracket, bracket_gm1,
                                   equivariance_checks, grading_check,
                                   inner, jacobi_check, rank_one_bracket,
                                   segre_rank, so_basis, so_basis_degrees,
                                   so_coordinates, structure_constants)

SIGS = (Signature(2, 1), Signature(3, 0), Signature(2, 2))


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
    s = sig.form_s()
    assert s == s.T
    assert s[0, 5] == -1 and s[1, 6] == -1
    assert s[2, 2] == 1 and s[4, 4] == -1
    assert s[0, 0] == 0


def test_so_element_rejects_bad_middle_block():
    sig = Signature(2, 1)
    bad = Mat.identity(3)
    with pytest.raises(ValueError):
        SoElement(sig, D=bad)


def _is_so_pq_by_products(sig, d):
    ipq = sig.ipq()
    return (d.T * ipq + ipq * d).is_zero()


def test_entrywise_so_pq_test_matches_the_product_form():
    rng = random.Random(5)
    for sig in (Signature(1, 0), Signature(2, 1), Signature(3, 0),
                Signature(2, 2), Signature(3, 3)):
        n = sig.n
        for _ in range(10):
            d = samplers.rand_so_pq(sig, rng)
            assert _is_so_pq(sig, d) and _is_so_pq_by_products(sig, d)
            i, j = rng.randrange(n), rng.randrange(n)
            rows = [list(r) for r in d.data]
            rows[i][j] += samplers.rand_nonzero_fraction(rng)
            bad = Mat(rows)
            assert not _is_so_pq(sig, bad)
            assert not _is_so_pq_by_products(sig, bad)
            generic = samplers.rand_mat(rng, n, n)
            assert _is_so_pq(sig, generic) == _is_so_pq_by_products(sig, generic)


def test_signature_constants_are_built_once():
    for p, q in ((1, 0), (2, 1), (2, 2)):
        sig = Signature(p, q)
        assert sig.ipq() is Signature(p, q).ipq()
        assert sig.form_s() is Signature(p, q).form_s()
    assert Signature(2, 1).ipq() is not Signature(1, 2).ipq()


def test_assembled_matrices_lie_in_the_algebra():
    rng = random.Random(10)
    for sig in SIGS:
        s = sig.form_s()
        for _ in range(20):
            m = samplers.rand_so_element(sig, rng).assemble()
            assert (m.T * s + s * m).is_zero()


def test_assemble_from_matrix_round_trip():
    rng = random.Random(11)
    for sig in SIGS:
        for _ in range(20):
            x = samplers.rand_so_element(sig, rng)
            assert SoElement.from_matrix(sig, x.assemble()) == x


def test_bracket_antisymmetry_and_signature_guard():
    sig = Signature(2, 1)
    rng = random.Random(12)
    x = samplers.rand_so_element(sig, rng)
    y = samplers.rand_so_element(sig, rng)
    assert bracket(x, y) == -(bracket(y, x))
    assert bracket(x, x).is_zero()
    with pytest.raises(ValueError):
        bracket(x, samplers.rand_so_element(Signature(3, 0), rng))


def test_levi_bracket_oracles():
    sig = Signature(2, 1)
    e1 = Mat([[1, 0], [0, 0], [0, 0]]).map(Fraction)
    e1_right = Mat([[0, 1], [0, 0], [0, 0]]).map(Fraction)
    assert bracket_gm1(sig, e1, e1_right) == 1
    e3 = Mat([[0, 0], [0, 0], [1, 0]]).map(Fraction)
    e3_right = Mat([[0, 0], [0, 0], [0, 1]]).map(Fraction)
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


def test_generator_bracket_with_top_grade_lands_in_middle():
    sig = Signature(2, 1)
    e = SoElement.generator_e(sig)
    w = SoElement(sig, w=1)
    out = bracket(e, w)
    assert out.grade(0) == out and not out.is_zero()


def test_equivariance_residuals_vanish():
    rng = random.Random(14)
    for sig in SIGS:
        for _ in range(40):
            c = samplers.rand_opq(sig, rng)
            a = samplers.rand_mat(rng, 2, 2)
            x = samplers.rand_gm1(sig, rng)
            y = samplers.rand_gm1(sig, rng)
            r1, r2 = equivariance_checks(sig, c, a, x, y)
            assert r1 == 0 and r2 == 0


def test_equivariance_rejects_non_orthogonal_c():
    sig = Signature(2, 1)
    rng = random.Random(15)
    x = samplers.rand_gm1(sig, rng)
    with pytest.raises(ValueError):
        equivariance_checks(sig, 2 * Mat.identity(3), Mat.identity(2), x, x)


def test_rank_one_bracket_closed_form():
    rng = random.Random(16)
    for sig in SIGS:
        n = sig.n
        for _ in range(40):
            f1 = (samplers.rand_fraction(rng), samplers.rand_fraction(rng))
            f2 = (samplers.rand_fraction(rng), samplers.rand_fraction(rng))
            u1 = [samplers.rand_fraction(rng) for _ in range(n)]
            u2 = [samplers.rand_fraction(rng) for _ in range(n)]
            x = Mat([[u1[i] * f1[0], u1[i] * f1[1]] for i in range(n)])
            y = Mat([[u2[i] * f2[0], u2[i] * f2[1]] for i in range(n)])
            assert bracket_gm1(sig, x, y) == rank_one_bracket(
                sig, f1, f2, u1, u2)


def test_g0_adjoint_oracle_and_scaling_law():
    sig = Signature(2, 1)
    g = G0Element(sig, 2 * Mat.identity(2), Mat.identity(3))
    x = Mat([[1, 2], [3, 4], [5, 6]]).map(Fraction)
    z_out, x_out = ad_g0(g, Fraction(1), x)
    assert z_out == Fraction(1, 4)
    assert x_out == Fraction(1, 2) * x
    rng = random.Random(17)
    for _ in range(30):
        g = G0Element(sig, samplers.rand_gl2(rng),
                       samplers.rand_opq(sig, rng))
        x = samplers.rand_gm1(sig, rng)
        y = samplers.rand_gm1(sig, rng)
        _, gx = ad_g0(g, 0, x)
        _, gy = ad_g0(g, 0, y)
        assert bracket_gm1(sig, gx, gy) == bracket_gm1(sig, x, y) / det(g.B)


def test_g0_element_sign_classes():
    sig = Signature(2, 1)
    b = Mat([[1, 2], [0, 1]]).map(Fraction)
    c = Mat.identity(3)
    assert G0Element(sig, b, c) == G0Element(sig, -1 * b, -1 * c)
    assert not (G0Element(sig, b, c) == G0Element(sig, -1 * b, c))


def test_segre_rank():
    assert segre_rank(Mat([[1, 0], [0, 1], [0, 0]]).map(Fraction)) == 2
    assert segre_rank(Mat([[1, 2], [2, 4], [3, 6]]).map(Fraction)) == 1
    assert segre_rank(Mat.zeros(3, 2)) == 0


def test_q_group_membership_and_line_stabilization():
    rng = random.Random(18)
    for sig in SIGS:
        s = sig.form_s()
        e = SoElement.generator_e(sig)
        for _ in range(20):
            h = samplers.rand_q_element(sig, rng)
            m = h.assemble()
            assert m.T * s * m == s
            out = h.ad_so(e)
            beta = h.det_b()
            assert out.X.is_zero() and out.D.is_zero() and out.U.is_zero()
            assert out.z == 1 / beta
            assert out.A == -h.w * Mat.identity(2)
            assert out.w == h.w * h.w * beta


def test_q_group_composition_against_assembled_product():
    rng = random.Random(19)
    for sig in SIGS:
        for _ in range(25):
            h1 = samplers.rand_q_element(sig, rng)
            h2 = samplers.rand_q_element(sig, rng)
            combined = h1.compose(h2)
            assert combined.assemble() == h1.assemble() * h2.assemble()
            inv = h1.inverse()
            assert h1.compose(inv) == QGroupElement.identity(sig)
            assert inv.assemble() == invert(h1.assemble())


def test_q_adjoint_matches_matrix_conjugation():
    rng = random.Random(20)
    for sig in SIGS:
        for _ in range(15):
            h = samplers.rand_q_element(sig, rng)
            x = samplers.rand_so_element(sig, rng)
            lhs = h.ad_so(x).assemble()
            m = h.assemble()
            assert lhs == m * x.assemble() * invert(m)


def test_q_adjoint_on_negative_part_matches_g0_formula():
    rng = random.Random(21)
    sig = Signature(2, 1)
    for _ in range(25):
        g = G0Element(sig, samplers.rand_gl2(rng),
                       samplers.rand_opq(sig, rng))
        h = QGroupElement(sig, g.B, g.C)
        x = samplers.rand_gm1(sig, rng)
        z = samplers.rand_fraction(rng)
        out = h.ad_so(SoElement(sig, z=z, X=x))
        z2, x2 = ad_g0(g, z, x)
        assert out.z == z2 and out.X == x2


def test_basis_coordinates_round_trip():
    rng = random.Random(22)
    for sig in SIGS:
        basis = so_basis(sig)
        degrees = so_basis_degrees(sig)
        assert len(basis) == len(degrees)
        for b, d in zip(basis, degrees):
            assert b.grade(d) == b
        for _ in range(10):
            x = samplers.rand_so_element(sig, rng)
            acc = SoElement.zero(sig)
            for c, b in zip(so_coordinates(x), basis):
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
                expected = so_coordinates(bracket(basis[a], basis[b]))
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
