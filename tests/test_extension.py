"""Tests for the embedding of the stabilizer group and the obstruction map."""

import random
from fractions import Fraction

import pytest

from liecontact import extension, samplers
from liecontact.extension import (Cochain2, alpha, alpha_restriction_matrix,
                                  build_psi_cochain, check_pair_conditions,
                                  codifferential, curvature_report,
                                  fit_trilinear_constant, hat_lift, i_map,
                                  i_map_float, i_homomorphism_exact,
                                  i_homomorphism_float, i_prime,
                                  i_prime_float, is_normal, psi_alpha,
                                  psi_equivariance_check, psi_gq,
                                  psi_support_report, psi_trilinear,
                                  q_tangent_basis, r_block_path,
                                  symmetrized_reference)
from liecontact.linalg import Mat, max_abs, solve_linear
from liecontact.path_sl import (SlElement, sl_bracket, sl_neg_basis,
                                sl_neg_coordinates, sl_neg_slots, w0)
from liecontact.so_contact import QGroupElement, Signature, SoElement, bracket

SIGS = (Signature(2, 1), Signature(3, 0), Signature(2, 2))


def _diag2(a, d):
    return Mat([[Fraction(a), Fraction(0)], [Fraction(0), Fraction(d)]])


# ---------------------------------------------------------------------------
# alpha


def test_alpha_sends_bottom_generator_to_unit():
    for sig in SIGS:
        img = alpha(SoElement.generator_e(sig))
        assert img.in_slots(("m1E",))
        assert img.mat[1, 0] == 1


def test_alpha_on_top_direction():
    sig = Signature(2, 1)
    img = alpha(SoElement(sig, w=Fraction(5)))
    assert img.in_slots(("p1E",))
    assert img.mat[0, 1] == -5


def test_alpha_slot_content_by_piece():
    rng = random.Random(50)
    for sig in SIGS:
        n = sig.n
        x = samplers.rand_so_element(sig, rng)
        cases = (
            (SoElement(sig, z=x.z), ("m1E",)),
            (SoElement(sig, X=x.X), ("m2", "p1V")),
            (SoElement(sig, A=x.A, D=x.D), ("g0",)),
            (SoElement(sig, U=x.U), ("m1V", "p2")),
            (SoElement(sig, w=x.w), ("p1E",)),
        )
        for piece, slots in cases:
            assert alpha(piece).in_slots(slots)
            assert not alpha(piece).is_zero()


def test_alpha_is_equivariant_for_stabilizer_directions():
    rng = random.Random(51)
    for sig in SIGS:
        for a, d, w in q_tangent_basis(sig):
            q = SoElement(sig, A=a, D=d, w=w)
            for _ in range(5):
                x = samplers.rand_so_element(sig, rng)
                lhs = alpha(bracket(q, x))
                rhs = sl_bracket(alpha(q), alpha(x))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# the group-level embedding


def test_i_map_identity():
    for sig in SIGS:
        h = QGroupElement.identity(sig)
        assert i_map(h) == Mat.identity(2 * sig.n + 2)


def test_i_map_scaling_block():
    sig = Signature(2, 1)
    h = QGroupElement(sig, _diag2(2, 2), Mat.identity(3), 0)
    img = i_map(h)
    expected = Mat.block([
        [_diag2(2, Fraction(1, 2)), Mat.zeros(2, 6)],
        [Mat.zeros(6, 2), Mat.identity(6)],
    ])
    assert img == expected


def test_i_map_top_shear():
    sig = Signature(2, 1)
    w = Fraction(3, 7)
    h = QGroupElement(sig, Mat.identity(2), Mat.identity(3), w)
    img = i_map(h)
    expected = Mat.identity(8) - w * w0(3).mat
    assert img == expected


def test_i_map_orientation_reversal_is_involutive():
    sig = Signature(2, 1)
    h = QGroupElement(sig, _diag2(1, -1), Mat.identity(3), 0)
    img = i_map(h)
    diag = [img[k, k] for k in range(8)]
    assert diag == [-1, 1, -1, -1, -1, 1, 1, 1]
    assert img * img == Mat.identity(8)


def test_i_map_constant_on_sign_classes():
    rng = random.Random(52)
    for sig in SIGS:
        for _ in range(10):
            h = samplers.rand_q_square(sig, rng)
            flipped = QGroupElement(sig, -h.B, -h.C, h.w)
            assert i_map(flipped) == i_map(h)


def test_i_map_rejects_non_square_determinant():
    sig = Signature(2, 1)
    h = QGroupElement(sig, _diag2(2, 1), Mat.identity(3), 0)
    with pytest.raises(ValueError, match="perfect rational square"):
        i_map(h)


def test_i_map_product_rule_exact():
    for sig in SIGS:
        failures, witness = i_homomorphism_exact(sig, trials=60, seed=3)
        assert failures == 0
        assert witness is None


def test_i_map_product_rule_float():
    for sig in SIGS:
        assert i_homomorphism_float(sig, trials=40, seed=4) < 1e-10


def test_i_map_float_matches_exact_on_square_determinants():
    rng = random.Random(53)
    for sig in SIGS:
        for _ in range(10):
            h = samplers.rand_q_square(sig, rng)
            exact = i_map(h).map(float)
            approx = i_map_float(h.B.map(float), h.C.map(float), float(h.w))
            assert max_abs(exact - approx) < 1e-9


def test_i_prime_agrees_with_alpha_on_stabilizer():
    for sig in SIGS:
        for a, d, w in q_tangent_basis(sig):
            assert i_prime(sig, a, d, w) == alpha(
                SoElement(sig, A=a, D=d, w=w)).mat


def test_i_prime_float_agrees_with_jets():
    rng = random.Random(54)
    sig = Signature(2, 1)
    for _ in range(5):
        a, d, w = samplers.rand_q_tangent(sig, rng)
        exact = i_prime(sig, a, d, w).map(float)
        approx = i_prime_float(sig, a, d, w)
        assert max_abs(exact - approx) < 1e-6


def test_pair_conditions_summary():
    for sig in SIGS:
        out = check_pair_conditions(sig, trials=15, seed=0)
        assert out["equivariance_failures"] == 0
        assert out["derivative_failures"] == 0
        assert out["derivative_float_error"] < 1e-6
        assert out["restriction_rank"] == out["restriction_rank_expected"]
        assert out["witness"] is None


# ---------------------------------------------------------------------------
# hat lifts


def test_hat_lift_inverts_alpha_on_negative_slots():
    rng = random.Random(55)
    for sig in SIGS:
        n = sig.n
        for _ in range(15):
            x = SoElement(sig, z=samplers.rand_fraction(rng),
                          X=samplers.rand_mat(rng, n, 2),
                          U=samplers.rand_mat(rng, 2, n))
            img = alpha(x)
            neg = img.grade_project(-2) + img.grade_project(-1)
            assert hat_lift(sig, neg) == x


def test_hat_lift_unit_oracle():
    for sig in SIGS:
        lift = hat_lift(sig, sl_neg_basis(sig.n)[2 * sig.n])
        assert lift == SoElement.generator_e(sig)


def test_hat_lift_matches_direct_solve():
    rng = random.Random(56)
    sig = Signature(2, 2)
    mat = alpha_restriction_matrix(sig)
    for _ in range(10):
        z = samplers.rand_sl_neg(sig.n, rng)
        coords = solve_linear(mat, Mat.col(sl_neg_coordinates(z)))
        assert coords is not None
        lift = hat_lift(sig, z)
        n = sig.n
        expect_x = Mat([[coords[1 + j * n + i, 0] for j in range(2)]
                        for i in range(n)])
        assert lift.z == coords[0, 0]
        assert lift.X == expect_x


def test_hat_lift_rejects_bad_input():
    sig = Signature(2, 1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        hat_lift(sig, SlElement.zero(5))
    with pytest.raises(ValueError, match="negative slots"):
        hat_lift(sig, w0(sig.n))


# ---------------------------------------------------------------------------
# the obstruction map


def test_psi_ignores_stabilizer_shifts():
    rng = random.Random(57)
    for sig in SIGS:
        x = samplers.rand_so_element(sig, rng)
        y = samplers.rand_so_element(sig, rng)
        base = psi_gq(x, y)
        for a, d, w in q_tangent_basis(sig):
            shift = SoElement(sig, A=a, D=d, w=w)
            assert psi_gq(x + shift, y) == base
            assert psi_gq(x, y + shift) == base


def test_psi_support():
    for sig in SIGS:
        out = psi_support_report(sig)
        assert out["support_exact"]
        assert out["values_in_ss"]
        assert out["nonzero_pairs"] > 0
        assert out["pairs_checked"] == (4 * sig.n + 1) ** 2
        assert out["witness"] is None


def test_psi_is_antisymmetric_on_lifted_basis():
    # The support report reads only the pairs a < b of the cochain and
    # infers the reversed and diagonal pairs from this property.
    for sig in SIGS:
        lifts = [hat_lift(sig, zb) for zb in sl_neg_basis(sig.n)]
        nonzero = 0
        for la in lifts:
            assert psi_gq(la, la).is_zero()
            for lb in lifts:
                v = psi_gq(la, lb)
                assert psi_gq(lb, la) == -v
                nonzero += not v.is_zero()
        assert psi_support_report(sig)["nonzero_pairs"] == nonzero


def _patched_cochain(monkeypatch, sig, edit):
    table = dict(build_psi_cochain(sig).table)
    edit(table)
    phi = Cochain2(sig.n, table)
    monkeypatch.setattr(extension, "build_psi_cochain", lambda s: phi)


def test_psi_support_flags_an_off_support_value(monkeypatch):
    sig = Signature(2, 1)
    n = sig.n
    slots = sl_neg_slots(n)
    assert (slots[0], slots[1]) == ("m2", "m2")

    def edit(table):
        assert (0, 1) not in table
        table[(0, 1)] = w0(n)

    valid_pairs = psi_support_report(sig)["nonzero_pairs"]
    _patched_cochain(monkeypatch, sig, edit)
    out = psi_support_report(sig)
    assert not out["support_exact"]
    assert out["values_in_ss"]
    assert out["witness"] == ("m2", "m2")
    assert out["nonzero_pairs"] == valid_pairs


def test_psi_support_flags_a_value_outside_the_block(monkeypatch):
    sig = Signature(2, 1)
    n = sig.n
    slots = sl_neg_slots(n)
    m = 2 * n + 2
    rows = [[Fraction(0)] * m for _ in range(m)]
    rows[0][0] = Fraction(1)
    rows[2][2] = Fraction(-1)
    bad = SlElement(n, Mat(rows))
    assert bad.ss_block().trace() != 0

    def edit(table):
        key = next(iter(table))
        assert (slots[key[0]], slots[key[1]]) == ("m2", "m1V")
        table[key] = bad

    _patched_cochain(monkeypatch, sig, edit)
    out = psi_support_report(sig)
    assert out["support_exact"]
    assert not out["values_in_ss"]
    assert out["witness"] == ("m2", "m1V")


def test_psi_equivariance():
    for sig in SIGS:
        assert psi_equivariance_check(sig, trials=8, seed=1) == 0


def test_trilinear_constant_value():
    assert fit_trilinear_constant(Signature(2, 1)) == Fraction(-1, 2)


def test_trilinear_matches_scaled_reference():
    rng = random.Random(58)
    for sig in SIGS:
        cst = fit_trilinear_constant(sig)
        n = sig.n
        for _ in range(10):
            x = samplers.rand_col(rng, 2 * n)
            y = samplers.rand_col(rng, 2 * n)
            z = samplers.rand_col(rng, 2 * n)
            val = psi_trilinear(sig, x, y, z)
            assert val.in_slots(("m2",))
            assert val.m2_vector() == cst * symmetrized_reference(
                sig, x, y, z)


def test_trilinear_is_totally_symmetric():
    rng = random.Random(59)
    sig = Signature(2, 2)
    n = sig.n
    for _ in range(5):
        x = samplers.rand_col(rng, 2 * n)
        y = samplers.rand_col(rng, 2 * n)
        z = samplers.rand_col(rng, 2 * n)
        base = psi_trilinear(sig, x, y, z)
        assert psi_trilinear(sig, y, x, z) == base
        assert psi_trilinear(sig, z, y, x) == base
        assert psi_trilinear(sig, x, z, y) == base


def test_r_block_closed_form():
    rng = random.Random(60)
    for sig in SIGS:
        n = sig.n
        for _ in range(10):
            x = samplers.rand_col(rng, 2 * n)
            y = samplers.rand_col(rng, 2 * n)
            xe = SlElement.from_m2(n, x)
            yv = sl_bracket(SlElement.from_m2(n, y), w0(n))
            val = psi_alpha(sig, xe, yv)
            block = r_block_path(sig, x, y)
            assert val.ss_block() == block
            z = samplers.rand_col(rng, 2 * n)
            assert psi_trilinear(sig, x, y, z).m2_vector() == block * z


# ---------------------------------------------------------------------------
# cochains and normality


def test_cochain_key_validation():
    n = 2
    with pytest.raises(ValueError, match="ordered pairs"):
        Cochain2(n, {(3, 1): SlElement.zero(n)})
    with pytest.raises(ValueError, match="dimension"):
        Cochain2(n, {(1, 3): SlElement.zero(n + 1)})


def test_cochain_antisymmetric_lookup():
    n = 2
    v = w0(n)
    phi = Cochain2(n, {(1, 3): v})
    assert phi.value(1, 3) == v
    assert phi.value(3, 1) == -v
    assert phi.value(2, 2).is_zero()
    assert phi.value(0, 5).is_zero()


def test_codifferential_of_empty_cochain():
    assert codifferential(Cochain2(2, {})).is_zero()


def test_obstruction_cochain_is_cached_and_read_only():
    phi = build_psi_cochain(Signature(2, 1))
    assert build_psi_cochain(Signature(2, 1)) is phi
    with pytest.raises(TypeError):
        phi.table[(0, 1)] = w0(phi.n)
    assert list(phi.table) == sorted(phi.table)


def test_obstruction_cochain_is_normal():
    for sig in SIGS:
        phi = build_psi_cochain(sig)
        assert is_normal(phi)


def test_tampered_cochain_is_not_normal():
    sig = Signature(2, 1)
    n = sig.n
    phi = build_psi_cochain(sig)
    table = dict(phi.table)
    key = (0, 2 * n)
    assert key not in table
    table[key] = sl_neg_basis(n)[0]
    assert not is_normal(Cochain2(n, table))


def test_curvature_profile():
    for sig in SIGS:
        out = curvature_report(build_psi_cochain(sig))
        assert out == {"homogeneities": [3], "torsion_free": True,
                       "regular": True, "nonzero": True}
