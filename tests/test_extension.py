"""Tests for the embedding of the stabilizer group and the obstruction map."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from liecontact import extension, report, samplers
from liecontact.extension import (Cochain2, alpha, alpha_restriction_matrix,
                                  build_psi_cochain, check_pair_conditions,
                                  codifferential, curvature_report,
                                  fit_trilinear_constant, hat_lift, i_map,
                                  i_map_float, i_prime, i_prime_float,
                                  i_product_defect, i_product_rule,
                                  is_normal, psi_alpha,
                                  psi_equivariance_check,
                                  psi_from_coordinates, psi_gq,
                                  psi_support_report, psi_trilinear,
                                  r_block_path, symmetrized_reference,
                                  trilinear_ints)
from liecontact.linalg import (IntMat, Mat, det, exp_float, max_abs,
                               rat_sqrt, solve_linear)
from liecontact.path_sl import (_SLOT_DEGREE, SlElement, _slot_of,
                                neg_positions, sl_bracket,
                                sl_neg_coordinates, sl_neg_slots, w0)
from liecontact.so_contact import (QGroupElement, Signature, SoElement,
                                   basis_positions, bracket, from_coordinates,
                                   inner, int_coordinates, so_basis,
                                   so_basis_degrees)
from oracles import ad_so, ipq, product, rand_so_element, ss_block
from test_linalg import DualRat
from test_path_sl import (_grade_project_by_slot_of, sl_neg_basis,
                          sl_neg_duals)
from test_so_contact import (_block_assembly, _so_basis_by_blocks, grade,
                             q_identity)


def q_tangent_basis(sig):
    # basis directions (A, D, w) of the stabilizer subalgebra: the degree 0
    # and degree 2 elements of the so_basis
    return [(b.A, b.D, b.w)
            for b, deg in zip(so_basis(sig), so_basis_degrees(sig))
            if deg in (0, 2)]


def psi_from_cochain(sig, z1, z2):
    # psi_alpha(sig, z1, z2) read off the obstruction cochain: the integer
    # core on the negative coordinates of z1, z2, checked as hat_lift
    # checks its argument
    for z in (z1, z2):
        extension._check_negative(sig, z)
    c1, c2 = (sl_neg_coordinates(z) for z in (z1, z2))
    return SlElement(sig.n, psi_from_coordinates(sig, c1, c2))


SIGS = (Signature(2, 1), Signature(3, 0), Signature(2, 2))
# the oracle comparisons below run where the form has negative signs too
ORACLE_SIGS = (Signature(2, 1), Signature(3, 0), Signature(1, 2),
               Signature(2, 2), Signature(3, 3))
# every signature with 2 <= n <= 6
DOMAIN_SIGS = tuple(Signature(p, n - p) for n in range(2, 7)
                    for p in range(n, -1, -1))


def _diag2(a, d):
    return Mat([[Fraction(a), Fraction(0)], [Fraction(0), Fraction(d)]])


def _record(sig, name, trials, seed=0):
    """(status, witness) of the registry record `name`, run alone."""
    check, = [c for c in report.CHECKS if c.name == name]
    record, = report.run_checks(sig, random.Random(seed), trials, [check])
    return record["status"], record["witness"]


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
        x = rand_so_element(sig, rng)
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
                x = rand_so_element(sig, rng)
                lhs = alpha(bracket(q, x))
                rhs = sl_bracket(alpha(q), alpha(x))
                assert lhs == rhs


def _alpha_by_products(x):
    # the entrywise reference: two Fraction products per entry, zeros too
    sig = x.sig
    n = sig.n
    signs = sig.signs()
    a, b = x.A[0, 0], x.A[0, 1]
    c, d = x.A[1, 0], x.A[1, 1]
    half = Fraction(1, 2)
    m = 2 * n + 2
    rows = [[Fraction(0)] * m for _ in range(m)]
    rows[0][0] = half * (a + d)
    rows[0][1] = -x.w
    rows[1][0] = x.z
    rows[1][1] = -half * (a + d)
    for j in range(n):
        rows[0][2 + j] = half * x.U[0, j]
        rows[0][2 + n + j] = half * x.U[1, j]
        rows[1][2 + j] = -half * signs[j] * x.X[j, 1]
        rows[1][2 + n + j] = half * signs[j] * x.X[j, 0]
    for i in range(n):
        rows[2 + i][0] = x.X[i, 0]
        rows[2 + n + i][0] = x.X[i, 1]
        rows[2 + i][1] = -signs[i] * x.U[1, i]
        rows[2 + n + i][1] = signs[i] * x.U[0, i]
        rows[2 + i][2 + n + i] = -c
        rows[2 + n + i][2 + i] = -b
        for j in range(n):
            rows[2 + i][2 + j] = x.D[i, j]
            rows[2 + n + i][2 + n + j] = x.D[i, j]
        rows[2 + i][2 + i] += half * (d - a)
        rows[2 + n + i][2 + n + i] += half * (a - d)
    return Mat(rows)


def _typed_entries(m):
    return [(type(e), repr(e)) for r in m.data for e in r]


def _oracle_elements(sig, rng):
    # basis elements, graded pieces and dense elements: zero and nonzero
    # entries of X and U on both sign branches
    out = list(so_basis(sig))
    for _ in range(4):
        x = rand_so_element(sig, rng)
        out += [x] + [grade(x, d) for d in (-2, -1, 0, 1, 2)]
    return out


@pytest.mark.parametrize("entries", ["Fraction", "int"])
def test_alpha_matches_the_two_product_reference(entries):
    # integer entries are read as rationals, so every entry is a Fraction
    convert = {"Fraction": lambda e: e, "int": lambda e: int(12 * e)}[entries]
    rng = random.Random(58)
    for sig in ORACLE_SIGS:
        for x in _oracle_elements(sig, rng):
            x = SoElement(sig, z=x.z, X=x.X.map(convert), A=x.A.map(convert),
                          D=x.D.map(convert), U=x.U.map(convert), w=x.w)
            got = alpha(x).mat
            assert got == _alpha_by_products(x), (sig, x)
            assert all(type(e) is Fraction for r in got.data for e in r)


@pytest.mark.parametrize("entry", [0.5, DualRat(Fraction(1), Fraction(2))],
                         ids=["float", "DualRat"])
def test_alpha_refuses_entries_that_are_not_rational(entry):
    # such an entry is refused when the element is built, so no element
    # hands one to alpha
    sig = Signature(2, 1)
    zero = Fraction(0)
    with pytest.raises(TypeError):
        alpha(SoElement(sig, X=Mat([[entry, zero], [zero, zero],
                                    [zero, zero]])))


def _alpha_fractions(x):
    # the Fraction formula alpha had before it ran on integer rows: at most
    # one product per entry, the form signs as negations or as +-s/2
    sig = x.sig
    n = sig.n
    a, b = x.A[0, 0], x.A[0, 1]
    c, d = x.A[1, 0], x.A[1, 1]
    half = Fraction(1, 2)
    m = 2 * n + 2
    rows = [[Fraction(0)] * m for _ in range(m)]
    rows[0][0] = half * (a + d)
    rows[0][1] = -x.w
    rows[1][0] = x.z
    rows[1][1] = -half * (a + d)
    top, mid = rows[0], rows[1]
    for i, (s, u0, u1, (x0, x1)) in enumerate(zip(sig.signs(), *x.U.data,
                                                   x.X.data)):
        sh, msh = (half, -half) if s > 0 else (-half, half)
        r0, r1 = rows[2 + i], rows[2 + n + i]
        top[2 + i] = half * u0
        r1[1] = u0 if s > 0 else -u0
        top[2 + n + i] = half * u1
        r0[1] = -u1 if s > 0 else u1
        mid[2 + i] = msh * x1
        mid[2 + n + i] = sh * x0
        r0[0] = x0
        r1[0] = x1
        r0[2 + n + i] = -c
        r1[2 + i] = -b
        for j, e in enumerate(x.D.data[i]):
            r0[2 + j] = e
            r1[2 + n + j] = e
        r0[2 + i] += half * (d - a)
        r1[2 + n + i] += half * (a - d)
    return Mat(rows)


@pytest.mark.parametrize("pq", [(2, 1), (2, 2), (3, 3), (1, 0)])
def test_integer_alpha_matches_the_fraction_formula(pq):
    sig = Signature(*pq)
    rng = random.Random(59)
    xs = list(so_basis(sig))
    while len(xs) < 200:
        x = rand_so_element(sig, rng)
        xs += [x] + [grade(x, d) for d in (-2, -1, 0, 1, 2)]
    for x in xs:
        got = extension._alpha_assembled(sig, x.ints)
        assert got.to_mat() == _alpha_fractions(x), x
        assert got.d == 2 * x.ints.d


def _assert_sl_rows(x, want):
    # x holds the integer rows of the Fraction matrix want, its view
    assert x.ints.equals(IntMat.of(want))
    assert x.mat == want


def _commutator(a, b):
    return product(a, b) - product(b, a)


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=repr)
def test_sl_elements_of_every_route_hold_their_integer_rows(sig):
    # each route that builds an SlElement or a lift, against its Fraction
    # formula: alpha, the brackets, Psi, the hat lift, the m2 element, the
    # grade projections, the linear operations and the cochain's values
    rng = random.Random(31 + 7 * sig.p + sig.q)
    n = sig.n
    x, y = rand_so_element(sig, rng), rand_so_element(sig, rng)
    ax, ay = _alpha_fractions(x), _alpha_fractions(y)
    bxy = SoElement.from_matrix(sig, _commutator(x.assemble(), y.assemble()))
    _assert_sl_rows(alpha(x), ax)
    _assert_sl_rows(sl_bracket(alpha(x), alpha(y)), _commutator(ax, ay))
    _assert_sl_rows(psi_gq(x, y), _commutator(ax, ay) - _alpha_fractions(bxy))
    z = _rand_sl_neg(n, rng)
    lift = hat_lift(sig, z)
    assert lift.ints.equals(IntMat.of(_block_assembly(lift)))
    image = alpha(lift)
    assert image.grade_project(-2) + image.grade_project(-1) == z
    v = samplers.rand_col(rng, 2 * n)
    m2 = Mat([[Fraction(0)] * (2 * n + 2)] * 2 + [
        [v[i, 0]] + [Fraction(0)] * (2 * n + 1) for i in range(2 * n)])
    for col in (v, IntMat.of(v)):
        _assert_sl_rows(SlElement.from_m2(n, col), m2)
    for d in (-2, -1, 0, 1, 2):
        _assert_sl_rows(alpha(x).grade_project(d),
                        _grade_project_by_slot_of(alpha(x), d))
    c = samplers.rand_nonzero_fraction(rng)
    for got, want in ((alpha(x) + alpha(y), ax + ay),
                      (alpha(x) - alpha(y), ax - ay), (-alpha(x), -1 * ax),
                      (c * alpha(x), c * ax)):
        _assert_sl_rows(got, want)
    # equality reads values: the rows doubled over twice the denominator
    # are alpha(x), the rows over twice the denominator are not
    g = alpha(x).ints
    size = 2 * n + 2
    assert SlElement(n, IntMat(2 * g.d, size, [[2 * e for e in r]
                                               for r in g.dense])) == alpha(x)
    assert SlElement(n, IntMat(2 * g.d, size, g.dense)) != alpha(x)
    phi = build_psi_cochain(sig)
    lifts = _hat_lifts(sig)
    for a, b in list(phi.int_rows[1])[:3]:
        _assert_sl_rows(phi.value(a, b), psi_gq(lifts[a], lifts[b]).mat)
        _assert_sl_rows(phi.value(b, a), -1 * psi_gq(lifts[a], lifts[b]).mat)


# ---------------------------------------------------------------------------
# the group-level embedding


def test_i_map_identity():
    for sig in SIGS:
        h = q_identity(sig)
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
    rng = random.Random(3)
    for sig in SIGS:
        orientations = set()
        for _ in range(60):
            h1 = samplers.rand_q_square(sig, rng)
            h2 = samplers.rand_q_square(sig, rng)
            assert i_product_rule(h1, h2), (h1, h2)
            orientations.add(h1.det_b() > 0)
        # both orientations of det B are drawn
        assert orientations == {True, False}


def test_i_map_product_rule_float():
    rng = random.Random(4)
    for sig in SIGS:
        for _ in range(40):
            h1 = samplers.rand_q_element(sig, rng)
            h2 = samplers.rand_q_element(sig, rng)
            assert i_product_defect(h1, h2) < 1e-10, (h1, h2)


def test_i_map_float_matches_exact_on_square_determinants():
    rng = random.Random(53)
    for sig in SIGS:
        for _ in range(10):
            h = samplers.rand_q_square(sig, rng)
            exact = i_map(h).map(float)
            approx = i_map_float(h.B.map(float), h.C.map(float), float(h.w))
            assert max_abs(exact - approx) < 1e-9


def test_exact_embedding_matches_the_fraction_assembly():
    # the integer route of i(h) against the shared assembly run on
    # Fractions, at every signature with 2 <= n <= 6 and both orientations
    # of det B
    rng = random.Random(63)
    for sig in DOMAIN_SIGS:
        orientations = set()
        while len(orientations) < 2:
            h = samplers.rand_q_square(sig, rng)
            beta = h.det_b()
            orientations.add(beta > 0)
            ref = Mat(extension._i_assemble(
                h.B.data, h.C.data, h.w, lambda b: rat_sqrt(abs(b)),
                Fraction(0)))
            exact = extension._i_exact(h)
            assert exact.to_mat() == ref, h
            assert i_map(h) == ref
            assert exact.equals(IntMat.of(ref))


def test_i_prime_agrees_with_alpha_on_stabilizer():
    for sig in SIGS:
        for a, d, w in q_tangent_basis(sig):
            assert i_prime(a, d, w) == alpha(SoElement(sig, A=a, D=d, w=w))


def test_i_prime_float_agrees_with_jets():
    rng = random.Random(54)
    sig = Signature(2, 1)
    for _ in range(5):
        a, d, w = samplers.rand_q_tangent(sig, rng)
        exact = i_prime(a, d, w).mat.map(float)
        approx = i_prime_float(a, d, w)
        assert max_abs(exact - approx) < 1e-6


def _i_prime_by_dual_rats(a, d, w):
    # the route i_prime had before it ran on integers: the assembly of i on
    # DualRat jets of the Fractions of I + eps·A, I + eps·D and eps·w
    def jets(m):
        return [[DualRat(int(i == j), e) for j, e in enumerate(r)]
                for i, r in enumerate(m.data)]

    rows = extension._i_assemble(jets(a), jets(d), DualRat(0, w),
                                 lambda beta: abs(beta).sqrt(), DualRat(0))
    return Mat([[e.du for e in r] for r in rows])


@pytest.mark.parametrize("sig", DOMAIN_SIGS,
                         ids=lambda sig: "%d-%d" % (sig.p, sig.q))
def test_integer_jets_match_the_dual_rat_route(sig):
    rng = random.Random(71 + 7 * sig.p + sig.q)
    tangents = q_tangent_basis(sig) + [samplers.rand_q_tangent(sig, rng)
                                       for _ in range(4)]
    for a, d, w in tangents:
        got = i_prime(a, d, w).mat
        assert got == _i_prime_by_dual_rats(a, d, w), (a, d, w)
        assert {type(e) for r in got.data for e in r} == {Fraction}


def _i_map_float_by_mats(b, c, w):
    # i_map_float as it ran on Mats, with the same operations in the same
    # order as the row form
    beta = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    sbar = math.sqrt(abs(beta))
    top = (beta / sbar, -w * beta / sbar, (beta / beta) / sbar)
    return Mat(extension._i_layout(c.rows, top, b.data, [
        [e / sbar for e in r] for r in c.data], 0.0))


def _i_prime_float_by_mats(a, d, w, step=1e-5):
    af, df, wf = a.map(float), d.map(float), float(w)

    def at(t):
        return _i_map_float_by_mats(exp_float(af * t), exp_float(df * t),
                                    wf * t)

    return (at(step) - at(-step)) * (1.0 / (2.0 * step))


def _i_product_defect_by_mats(h1, h2):
    def image(h):
        return _i_map_float_by_mats(h.B.map(float), h.C.map(float),
                                    float(h.w))

    lhs, rhs = image(h1.compose(h2)), image(h1) * image(h2)
    return min(max_abs(lhs - rhs), max_abs(lhs + rhs))


def _bits(m):
    # repr tells apart 0.0 from -0.0 and keeps every digit
    return [[repr(x) for x in r] for r in m.data]


@pytest.mark.parametrize("sig", DOMAIN_SIGS,
                         ids=lambda sig: "%d-%d" % (sig.p, sig.q))
def test_float_rows_match_the_mat_forms_bit_for_bit(sig):
    rng = random.Random(73 + 7 * sig.p + sig.q)
    for _ in range(3):
        a, d, w = samplers.rand_q_tangent(sig, rng)
        assert (_bits(i_prime_float(a, d, w))
                == _bits(_i_prime_float_by_mats(a, d, w)))
        h1, h2 = (samplers.rand_q_element(sig, rng) for _ in range(2))
        assert (_bits(i_map_float(h1.B.map(float), h1.C.map(float), 0.5))
                == _bits(_i_map_float_by_mats(h1.B.map(float),
                                              h1.C.map(float), 0.5)))
        assert (repr(i_product_defect(h1, h2))
                == repr(_i_product_defect_by_mats(h1, h2)))


def test_pair_conditions_summary():
    for sig in SIGS:
        out = check_pair_conditions(sig, trials=15, seed=0)
        assert out["equivariance_failures"] == 0
        assert out["derivative_failures"] == 0
        assert out["derivative_float_error"] < 1e-6
        assert out["restriction_rank"] == out["restriction_rank_expected"]
        assert out["witness"] is None


def test_i_map_determinant_is_a_sign():
    # the equivariance claims check products with i(h) in place of its
    # conjugation, which needs i(h) invertible: det i(h) =
    # sgn(beta)^(n+1) det(C)^2 = +-1
    rng = random.Random(62)
    for sig in (Signature(2, 1), Signature(2, 2), Signature(3, 0),
                Signature(3, 3)):
        signs = set()
        for _ in range(8):
            h = samplers.rand_q_square(sig, rng)
            beta = h.det_b()
            value = det(i_map(h))
            assert value == (1 if beta > 0 else -1) ** (sig.n + 1), h
            assert det(h.C) ** 2 == 1
            signs.add(value)
        # both orientations of det B are drawn where n + 1 is odd
        assert signs == ({1} if sig.n % 2 else {1, -1})


def _identity_rows(m):
    return IntMat(1, m, sparse=[[(i, 1)] for i in range(m)])


def test_i_of_the_group_inverse_inverts_i():
    # the invertibility check of the equivariance claims, at every
    # signature with 2 <= n <= 6
    rng = random.Random(64)
    for sig in DOMAIN_SIGS:
        for _ in range(3):
            h = samplers.rand_q_square(sig, rng)
            assert extension._i_invertible(h, extension._i_exact(h)), h


@pytest.mark.parametrize("wrong", ["identity", "transpose", "zero"])
def test_product_form_loops_fail_on_a_wrong_embedding(monkeypatch, wrong):
    # the claims read i(h) from the exact route, so the wrong one goes
    # there; the zero matrix passes every product and fails only the
    # invertibility check
    exact = extension._i_exact
    monkeypatch.setattr(extension, "_i_exact", {
        "identity": lambda h: _identity_rows(2 * h.sig.n + 2),
        "transpose": lambda h: IntMat(exact(h).d, 2 * h.sig.n + 2,
                                      [list(c) for c in zip(*exact(h).dense)]),
        "zero": lambda h: IntMat(1, 2 * h.sig.n + 2,
                                 sparse=[[]] * (2 * h.sig.n + 2))}[wrong])
    for sig in SIGS:
        out = check_pair_conditions(sig, trials=10, seed=0)
        assert out["equivariance_failures"] > 0
        assert out["witness"] is not None
        status, witness = _record(sig, "obstruction-equivariance", 10, 1)
        assert status == "fail"
        assert witness.startswith("i(h)·i(h^-1) is not +-I: h=" if
                                  wrong == "zero" else "h=")


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


def _rand_sl_neg(n, rng):
    # an element of the negative slots with random entries in basis order
    m = 2 * n + 2
    rows = [[Fraction(0)] * m for _ in range(m)]
    for r, c in neg_positions(n):
        rows[r][c] = samplers.rand_fraction(rng)
    return SlElement(n, Mat(rows))


def test_rand_sl_neg_lands_in_negative_slots():
    rng = random.Random(97)
    for n in (2, 3, 4):
        for _ in range(10):
            z = _rand_sl_neg(n, rng)
            assert z.in_slots(("m2", "m1E", "m1V"))
            assert not z.is_zero()


def test_restriction_matrix_is_built_once_per_signature():
    for sig in SIGS:
        assert alpha_restriction_matrix(sig) is alpha_restriction_matrix(sig)


def test_hat_lift_matches_direct_solve():
    rng = random.Random(56)
    sig = Signature(2, 2)
    mat = alpha_restriction_matrix(sig)
    for _ in range(10):
        z = _rand_sl_neg(sig.n, rng)
        coords = solve_linear(mat, sl_neg_coordinates(z).to_mat().T)
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


@pytest.mark.parametrize("sig", DOMAIN_SIGS,
                         ids=lambda sig: "%d-%d" % (sig.p, sig.q))
def test_psi_from_cochain_matches_psi_of_the_hat_lifts(sig):
    # the oracle is psi_alpha: psi_gq of the two hat lifts
    rng = random.Random(63 + 7 * sig.p + sig.q)
    basis = sl_neg_basis(sig.n)
    lifts = [hat_lift(sig, z) for z in basis]
    picks = range(len(basis)) if sig.n <= 3 else rng.sample(
        range(len(basis)), 8)
    for a in picks:
        for b in picks:
            assert psi_from_cochain(sig, basis[a], basis[b]) == psi_gq(
                lifts[a], lifts[b]), (a, b)
    for _ in range(3):
        z1, z2 = _rand_sl_neg(sig.n, rng), _rand_sl_neg(sig.n, rng)
        got = psi_from_cochain(sig, z1, z2)
        assert got == psi_gq(hat_lift(sig, z1), hat_lift(sig, z2))
        assert not got.is_zero()


def test_psi_from_cochain_rejects_what_the_hat_lift_rejects():
    sig = Signature(2, 1)
    z = sl_neg_basis(sig.n)[0]
    for args in ((SlElement.zero(5), z), (z, SlElement.zero(5))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            psi_from_cochain(sig, *args)
    for args in ((w0(sig.n), z), (z, z + w0(sig.n))):
        with pytest.raises(ValueError, match="negative slots"):
            psi_from_cochain(sig, *args)


# ---------------------------------------------------------------------------
# the obstruction map


def _psi_by_fractions(x, y):
    """psi_gq by its formula on Fraction matrices."""
    return sl_bracket(alpha(x), alpha(y)) - alpha(bracket(x, y))


@pytest.mark.parametrize("sig", DOMAIN_SIGS,
                         ids=lambda sig: "%d-%d" % (sig.p, sig.q))
def test_psi_gq_matches_the_fraction_formula(sig):
    # on random elements of the algebra, on the hat lifts of random
    # negative elements, and on lifts of basis units, (m1V, m2) among them
    rng = random.Random(65 + 7 * sig.p + sig.q)
    n = sig.n
    basis = sl_neg_basis(n)
    pairs = [(rand_so_element(sig, rng),
              rand_so_element(sig, rng)) for _ in range(3)]
    pairs += [(hat_lift(sig, _rand_sl_neg(n, rng)),
               hat_lift(sig, _rand_sl_neg(n, rng))) for _ in range(2)]
    pairs += [(hat_lift(sig, basis[a]), hat_lift(sig, basis[b]))
              for a, b in ((2 * n + 1, 0), (0, 2 * n + 1), (2 * n, 1))]
    for x, y in pairs:
        got = psi_gq(x, y)
        assert got == _psi_by_fractions(x, y)
        assert {type(e) for r in got.mat.data for e in r} == {Fraction}
    assert not psi_gq(*pairs[-3]).is_zero()


def test_psi_ignores_stabilizer_shifts():
    rng = random.Random(57)
    for sig in SIGS:
        x = rand_so_element(sig, rng)
        y = rand_so_element(sig, rng)
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
    assert ss_block(bad).trace() != 0

    def edit(table):
        key = next(iter(table))
        assert (slots[key[0]], slots[key[1]]) == ("m2", "m1V")
        table[key] = bad

    _patched_cochain(monkeypatch, sig, edit)
    out = psi_support_report(sig)
    assert out["support_exact"]
    assert not out["values_in_ss"]
    assert out["witness"] == ("m2", "m1V")


def _vertical_bottom_pairs(sig):
    slots = sl_neg_slots(sig.n)
    return [(a, b) for a, sa in enumerate(slots) if sa == "m1V"
            for b, sb in enumerate(slots) if sb == "m2"]


def test_psi_equivariance():
    rng = random.Random(1)
    for sig in SIGS:
        for _ in range(2):
            h = samplers.rand_q_square(sig, rng)
            for a, b in _vertical_bottom_pairs(sig):
                assert psi_equivariance_check(sig, h, a, b) is True, (h, a, b)


def test_psi_equivariance_is_strict_about_the_sign(monkeypatch):
    # -Psi meets the product form up to sign only, so the claim fails it
    cochain = extension.build_psi_cochain
    monkeypatch.setattr(extension, "build_psi_cochain", lambda sig: Cochain2(
        sig.n, {k: -v for k, v in cochain(sig).table.items()}))
    rng = random.Random(1)
    for sig in SIGS:
        pairs = _vertical_bottom_pairs(sig)
        for _ in range(4):
            a, b = rng.choice(pairs)
            h = samplers.rand_q_square(sig, rng)
            assert psi_equivariance_check(sig, h, a, b) is False, (h, a, b)


def _hat_lifts(sig):
    return [hat_lift(sig, zb) for zb in sl_neg_basis(sig.n)]


@pytest.mark.parametrize("sig", DOMAIN_SIGS, ids=repr)
def test_integer_psi_of_moved_lifts_matches_psi_gq(monkeypatch, sig):
    # the right side of the Psi equivariance claim runs on integer rows; it
    # equals psi_gq of the Ad(h)-moved hat lifts on every pair of slots
    build_psi_cochain(sig)  # built before the route is recorded
    seen, psi_int = [], extension._psi_int
    monkeypatch.setattr(extension, "_psi_int",
                        lambda *args: seen.append(psi_int(*args)) or seen[-1])
    lifts = _hat_lifts(sig)
    slots = sl_neg_slots(sig.n)
    rng = random.Random(sig.n)
    for _ in range(2):
        h = samplers.rand_q_square(sig, rng)
        for sa in ("m2", "m1E", "m1V"):
            for sb in ("m2", "m1E", "m1V"):
                a, b = (rng.choice([k for k, s in enumerate(slots) if s == t])
                        for t in (sa, sb))
                assert psi_equivariance_check(sig, h, a, b) is True
                want = psi_gq(ad_so(h, lifts[a]), ad_so(h, lifts[b])).mat
                assert seen.pop().to_mat() == want, (h, a, b)


def _h_outside_the_group(monkeypatch, sig):
    """Every QGroupElement's h becomes diag(2, 1, ..., 1), which does not
    preserve S, so its Ad moves the z and X entries off their companions."""
    m = sig.n + 4
    h = IntMat(1, m, [[2 if i == j == 0 else int(i == j) for j in range(m)]
                      for i in range(m)])
    h_inv = IntMat(2, m, [[2 * int(i == j) - int(i == j == 0)
                           for j in range(m)] for i in range(m)])
    monkeypatch.setattr(QGroupElement, "int_pair", lambda self: (h, h_inv))


def test_an_adjoint_action_that_leaves_the_algebra_is_refused(monkeypatch):
    sig = Signature(2, 1)
    rng = random.Random(3)
    hs = [samplers.rand_q_square(sig, rng) for _ in range(2)]
    pairs = _vertical_bottom_pairs(sig)
    _h_outside_the_group(monkeypatch, sig)
    for h in hs:
        for a, b in pairs[:3]:
            with pytest.raises(ValueError, match="orthogonal algebra"):
                psi_equivariance_check(sig, h, a, b)
        with pytest.raises(ValueError, match="orthogonal algebra"):
            ad_so(h, _hat_lifts(sig)[0])
    # through the registry, both equivariance claims become failing records
    records = {r["name"]: r for r in report.run(report.SuiteConfig(
        2, 1, trials=2, suites=("extension",)))["records"]}
    for name in ("obstruction-equivariance", "pair-conditions"):
        assert records[name]["status"] == "fail", name
        assert records[name]["witness"].startswith("ValueError: matrix is "
                                                   "not in the orthogonal")


# the repr of a QGroupElement
_Q = r"QGroupElement\(Signature\(\d, \d\), B=Mat\(.*\), C=Mat\(.*\), w=\S+\)"


def test_embedding_witnesses_name_the_pair(monkeypatch):
    # i(h)^T reverses the order of every product, on either route
    sig = Signature(2, 2)
    exact, float_route = extension._i_exact, extension.i_map_float
    monkeypatch.setattr(extension, "_i_exact", lambda h: IntMat(
        exact(h).d, 2 * h.sig.n + 2, [list(c) for c in zip(*exact(h).dense)]))
    monkeypatch.setattr(extension, "i_map_float",
                        lambda b, c, w: float_route(b, c, w).T)
    status, witness = _record(sig, "embedding-product-exact", 5)
    assert status == "fail"
    assert re.fullmatch("h1=%s h2=%s" % (_Q, _Q), witness), witness
    status, witness = _record(sig, "embedding-product-float", 5)
    assert status == "fail"
    assert re.fullmatch(r"defect \S+: h1=%s h2=%s" % (_Q, _Q),
                        witness), witness
    assert float(witness.split()[1][:-1]) > 1e-10


def test_psi_equivariance_witness_names_the_element_and_the_pair(
        monkeypatch):
    sig = Signature(2, 2)
    cochain = extension.build_psi_cochain
    monkeypatch.setattr(extension, "build_psi_cochain", lambda sig: Cochain2(
        sig.n, {k: -v for k, v in cochain(sig).table.items()}))
    status, witness = _record(sig, "obstruction-equivariance", 5)
    assert status == "fail"
    match = re.fullmatch(r"h=%s a=(\d+) b=(\d+)" % _Q, witness)
    assert match, witness
    assert tuple(map(int, match.groups())) in _vertical_bottom_pairs(sig)


def test_obstruction_equivariance_sees_a_wrong_group_inverse(monkeypatch):
    # the record passes with the group inverse, and fails when the inverse
    # takes C^T in place of Ipq C^T Ipq: i(h)·i(h^-1) is then not +-I
    sig = Signature(2, 2)
    assert _record(sig, "obstruction-equivariance", 3) == ("pass", None)

    group_inverse = QGroupElement.inverse

    def inverse(h):
        inv = group_inverse(h)
        return QGroupElement(h.sig, inv.B, h.C.T, inv.w)

    monkeypatch.setattr(QGroupElement, "inverse", inverse)
    status, witness = _record(sig, "obstruction-equivariance", 3)
    assert status == "fail"
    assert witness.startswith("i(h)·i(h^-1) is not +-I: h=")


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


def _symmetrized_by_fractions(sig, x, y, z):
    # symmetrized_reference as scalar Fraction loops over the Ipq pairing
    n = sig.n
    acc = [Fraction(0)] * (2 * n)
    cols = [[v[i, 0] for i in range(2 * n)] for v in (x, y, z)]
    for xc, yc, zc in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0),
                       (2, 0, 1), (2, 1, 0)):
        x1, x2 = cols[xc][:n], cols[xc][n:]
        y1, y2 = cols[yc][:n], cols[yc][n:]
        z1, z2 = cols[zc][:n], cols[zc][n:]
        c12 = inner(sig, x1, y2)
        c11 = inner(sig, x1, y1)
        c22 = inner(sig, x2, y2)
        for i in range(n):
            acc[i] += c12 * z1[i] - c11 * z2[i]
            acc[n + i] += c22 * z1[i] - c12 * z2[i]
    return Mat.col(acc)


def test_symmetrized_reference_matches_the_fraction_loops():
    rng = random.Random(64)
    for sig in ORACLE_SIGS + (Signature(1, 1), Signature(0, 3)):
        n = sig.n
        zero = Mat.col([Fraction(0)] * (2 * n))
        for _ in range(8):
            # denominators up to 4, some columns with integer entries only
            x, y, z = (samplers.rand_col(rng, 2 * n, den=rng.choice((1, 4)))
                       for _ in range(3))
            for args in ((x, y, z), (x, x, z), (x, y, zero)):
                assert (symmetrized_reference(sig, *args).data
                        == _symmetrized_by_fractions(sig, *args).data)


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


def _r_block_product_form(sig, x, y):
    # r_block_path with each R_ab formed by a product with the matrix Ipq
    n = sig.n
    half = Fraction(1, 2)
    c = [Mat.col([x[i, 0] for i in range(k * n, (k + 1) * n)])
         for k in range(2)]
    d = [Mat.col([y[i, 0] for i in range(k * n, (k + 1) * n)])
         for k in range(2)]

    def rr(i, j):
        return (c[i] * d[j].T + d[i] * c[j].T) * ipq(sig)

    r11, r22, r12, r21 = rr(0, 0), rr(1, 1), rr(0, 1), rr(1, 0)
    tr12 = r12.trace()
    eye = Mat.identity(n)
    return Mat.block([
        [-half * r12 + r21 - half * tr12 * eye,
         -half * (r11 - r11.trace() * eye)],
        [half * (r22 - r22.trace() * eye),
         half * r21 - r12 + half * tr12 * eye]])


def test_r_block_matches_the_product_form():
    # the Fraction version of r_block_path, on columns with and without
    # denominators
    rng = random.Random(61)
    for sig in SIGS + (Signature(1, 1), Signature(0, 3), Signature(3, 3)):
        for _ in range(6):
            x = samplers.rand_col(rng, 2 * sig.n, den=rng.choice((1, 4)))
            y = samplers.rand_col(rng, 2 * sig.n)
            assert (r_block_path(sig, IntMat.of(x), IntMat.of(y)).to_mat().data
                    == _r_block_product_form(sig, x, y).data)


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
            block = r_block_path(sig, IntMat.of(x), IntMat.of(y)).to_mat()
            assert ss_block(val) == block
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
    assert phi.int_value(3, 1).equals(IntMat.of(-v.mat))
    assert phi.int_value(0, 5).is_zero()


def test_codifferential_of_empty_cochain():
    assert codifferential(Cochain2(2, {})).is_zero()


def test_obstruction_cochain_is_cached_and_read_only():
    phi = build_psi_cochain(Signature(2, 1))
    assert build_psi_cochain(Signature(2, 1)) is phi
    with pytest.raises(TypeError):
        phi.table[(0, 1)] = w0(phi.n)
    assert list(phi.table) == sorted(phi.table)


# every signature with 2 <= n <= 4, both sign orders, and n = 6
@pytest.mark.parametrize("p,q", [(p, n - p) for n in (2, 3, 4)
                                 for p in range(n, -1, -1)] + [(3, 3)])
def test_obstruction_cochain_matches_psi_on_every_pair(p, q):
    sig = Signature(p, q)
    phi = build_psi_cochain(sig)
    lifts = [hat_lift(sig, zb) for zb in sl_neg_basis(sig.n)]
    # the build reads the lifts and their alpha images off the columns of
    # the inverse, as does the equivariance check
    ints = extension._lift_ints(sig)
    assert len(ints) == len(lifts)
    for (m, image), lift in zip(ints, lifts):
        assert m.to_mat() == lift.assemble()
        assert image.to_mat() == alpha(lift).mat
    for a in range(len(lifts)):
        for b in range(a + 1, len(lifts)):
            assert phi.value(a, b) == psi_gq(lifts[a], lifts[b]), (a, b)


@pytest.mark.parametrize("sig", DOMAIN_SIGS,
                         ids=lambda sig: "%d-%d" % (sig.p, sig.q))
def test_lift_basis_rows_match_the_so_basis(sig):
    # the rows of one coordinate, which the restriction matrix, the lifts
    # and the cochain read, against the basis spelled out block by block
    for k, (pos, want) in enumerate(zip(basis_positions(sig),
                                        _so_basis_by_blocks(sig))):
        rows = from_coordinates(sig, ((pos, 1),)).ints
        assert rows.d == 1
        assert rows.equals(IntMat.of(_block_assembly(want))), k


def _psi_int_in_full(sig, x, y):
    # the formula of psi_gq on the integer pairs, with no shortcut for a
    # zero so bracket
    (ma, ia), (mb, ib) = x, y
    comm = ma.commutator(mb)
    return IntMat.combination(
        [(1, ia.commutator(ib))]
        + [(Fraction(-c, comm.d), extension._so_image(sig, k))
           for k, c in enumerate(int_coordinates(sig, comm.dense)) if c])


@pytest.mark.parametrize("sig", DOMAIN_SIGS,
                         ids=lambda sig: "%d-%d" % (sig.p, sig.q))
def test_zero_bracket_shortcut_gives_the_full_cochain(sig):
    phi = build_psi_cochain(sig)
    lifts = extension._lift_ints(sig)
    shortcut_nonzero = 0
    for a in range(len(lifts)):
        for b in range(a + 1, len(lifts)):
            full = _psi_int_in_full(sig, lifts[a], lifts[b])
            assert phi.int_value(a, b).equals(full), (a, b)
            zero_bracket = lifts[a][0].commutator(lifts[b][0]).is_zero()
            shortcut_nonzero += zero_bracket and not full.is_zero()
    # the shortcut meets pairs whose Psi is not zero
    assert shortcut_nonzero > 0


def _rand_in_slot(n, slot, rng):
    # a random element of one negative slot: a random multiple of each unit
    # of the negative basis in that slot
    m = 2 * n + 2
    rows = [[Fraction(0)] * m for _ in range(m)]
    for (r, c), s in zip(neg_positions(n), sl_neg_slots(n)):
        if s == slot:
            rows[r][c] = samplers.rand_fraction(rng)
    return SlElement(n, Mat(rows))


@pytest.mark.parametrize("sig", DOMAIN_SIGS,
                         ids=lambda sig: "%d-%d" % (sig.p, sig.q))
def test_cochain_readout_matches_psi_gq_in_every_slot_order(sig):
    # the integer core that the trilinear record reads, on arguments of
    # every pair of slots, not only (m2, m1V)
    rng = random.Random(79 + 7 * sig.p + sig.q)
    slots = ("m2", "m1E", "m1V")
    for s1, s2 in itertools.product(slots, slots):
        z1, z2 = _rand_in_slot(sig.n, s1, rng), _rand_in_slot(sig.n, s2, rng)
        c1, c2 = (sl_neg_coordinates(z) for z in (z1, z2))
        want = psi_gq(hat_lift(sig, z1), hat_lift(sig, z2))
        got = psi_from_coordinates(sig, c1, c2)
        assert got.equals(want.ints), (s1, s2)
        assert got.is_zero() == ({s1, s2} != {"m2", "m1V"}), (s1, s2)


@pytest.mark.parametrize("sig", DOMAIN_SIGS,
                         ids=lambda sig: "%d-%d" % (sig.p, sig.q))
def test_trilinear_ints_match_psi_trilinear(sig):
    rng = random.Random(83 + 7 * sig.p + sig.q)
    n = sig.n
    x, y, z = (samplers.rand_col(rng, 2 * n) for _ in range(3))
    psi, val = trilinear_ints(sig, *(IntMat.of(v) for v in (x, y, z)))
    yv = sl_bracket(SlElement.from_m2(n, y), w0(n))
    assert psi.to_mat() == psi_alpha(sig, SlElement.from_m2(n, x), yv).mat
    assert val.to_mat() == psi_trilinear(sig, x, y, z).mat
    assert not val.is_zero()


def test_obstruction_cochain_refuses_a_bracket_outside_the_algebra(
        monkeypatch):
    # the matrix of the first lift gets an X companion entry that no longer
    # repeats its X entry, so the lift's brackets leave so(p+2, q+2): the
    # block check of the integer route must refuse them
    sig = Signature(2, 1)
    n = sig.n
    (g, image), *rest = extension._lift_ints(sig)
    rows = [list(r) for r in g.dense]
    assert rows[2][0] != 0
    rows[n + 2][2] += g.d
    build_psi_cochain.cache_clear()
    monkeypatch.setattr(extension, "_lift_ints", lambda s: (
        (IntMat(g.d, n + 4, rows), image), *rest))
    with pytest.raises(ValueError, match="block"):
        build_psi_cochain(sig)


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


def _trace_pairing(p, x):
    # tr(p·x) for matrices given as rows, summed entry by entry over the
    # nonzero entries of p
    return sum(e * x[j][i] for i, r in enumerate(p) for j, e in enumerate(r)
               if e)


def _codifferential_by_trace_pairing(phi):
    # the reference: [Z_a, Z_b] expanded over the duals Z_c by pairing it
    # with each basis element under the trace form
    n = phi.n
    basis, duals = sl_neg_basis(n), sl_neg_duals(n)
    vals = {}
    for (a, b), wv in phi.table.items():
        terms = [(b, sl_bracket(duals[a], wv)),
                 (a, -sl_bracket(duals[b], wv))]
        pm = sl_bracket(duals[a], duals[b]).mat.data
        for c, xc in enumerate(basis):
            k = _trace_pairing(pm, xc.mat.data)
            if k:
                terms.append((c, -k * wv))
        for c, v in terms:
            vals[c] = vals.get(c, SlElement.zero(n)) + v
    return {c: v for c, v in vals.items() if not v.is_zero()}


def test_codifferential_matches_the_trace_pairing_reference():
    rng = random.Random(58)
    for sig in SIGS:
        phi = build_psi_cochain(sig)
        assert (codifferential(phi).values
                == _codifferential_by_trace_pairing(phi) == {})
    for n, count in ((2, 3), (3, 3), (4, 1)):
        dim = 4 * n + 1
        for _ in range(count):
            table = {(a, b): _rand_sparse_sl(n, rng)
                     for a in range(dim) for b in range(a + 1, dim)
                     if rng.random() < 0.5}
            phi = Cochain2(n, table)
            # nonzero entries with several denominators, so the codifferential
            # works over a common denominator that is not every entry's own
            assert len({e.denominator for v in table.values()
                        for r in v.mat.data for e in r if e}) > 1
            assert (codifferential(phi).values
                    == _codifferential_by_trace_pairing(phi))


def _curvature_by_projections(phi):
    # the reference: five grade projections of every value
    degrees = [-2] * (2 * phi.n) + [-1] * (2 * phi.n + 1)
    homog = set()
    torsion_free = True
    nonzero = False
    for (a, b), wv in phi.table.items():
        if wv.is_zero():
            continue
        nonzero = True
        for d in (-2, -1, 0, 1, 2):
            if not wv.grade_project(d).is_zero():
                homog.add(d - degrees[a] - degrees[b])
                if d < 0:
                    torsion_free = False
    return {"homogeneities": sorted(homog), "torsion_free": torsion_free,
            "regular": all(h > 0 for h in homog), "nonzero": nonzero}


def _curvature_by_slot_degrees(phi):
    # the reference: the slot degrees of the nonzero entries of every value
    # read as a Fraction matrix, slot by slot
    degrees = [-2] * (2 * phi.n) + [-1] * (2 * phi.n + 1)
    homog, used = set(), set()
    for (a, b), wv in phi.table.items():
        found = {_SLOT_DEGREE[_slot_of(i, j, phi.n)]
                 for i, r in enumerate(wv.mat.data)
                 for j, e in enumerate(r) if e != 0}
        used |= found
        homog |= {d - degrees[a] - degrees[b] for d in found}
    return {"homogeneities": sorted(homog),
            "torsion_free": all(d >= 0 for d in used),
            "regular": all(h > 0 for h in homog), "nonzero": bool(used)}


def _rand_sparse_sl(n, rng):
    # a few off-diagonal units, sometimes a trace-free diagonal pair, and
    # sometimes nothing at all
    m = 2 * n + 2
    rows = [[Fraction(0)] * m for _ in range(m)]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(m), 2)
        rows[i][j] = samplers.rand_nonzero_fraction(rng)
    if rng.random() < 0.3:
        i, j = rng.sample(range(m), 2)
        rows[i][i] = samplers.rand_nonzero_fraction(rng)
        rows[j][j] = -rows[i][i]
    return SlElement(n, Mat(rows))


def test_curvature_report_matches_the_projection_reference():
    rng = random.Random(59)
    for sig in ORACLE_SIGS:
        n = sig.n
        phi = build_psi_cochain(sig)
        assert (curvature_report(phi) == _curvature_by_projections(phi)
                == _curvature_by_slot_degrees(phi))
        for _ in range(20):
            keys = [tuple(sorted(rng.sample(range(4 * n + 1), 2)))
                    for _ in range(rng.randint(0, 4))]
            phi = Cochain2(n, {k: _rand_sparse_sl(n, rng) for k in keys})
            assert (curvature_report(phi) == _curvature_by_projections(phi)
                    == _curvature_by_slot_degrees(phi))


def test_curvature_profile():
    for sig in SIGS:
        out = curvature_report(build_psi_cochain(sig))
        assert out == {"homogeneities": [3], "torsion_free": True,
                       "regular": True, "nonzero": True}
