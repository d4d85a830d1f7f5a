"""Tests for model points, chain curves, the cubic tensor and cone logic."""

import functools
import math
import operator
import random
from fractions import Fraction

import pytest

from liecontact import samplers
from liecontact import chains
from liecontact.chains import (ChainCurve, ModelPoint, STensorEval, act,
                               chain_eval, chain_matrix,
                               chain_transversality, emit_trajectory,
                               fit_pipeline_constant, flow_transversality,
                               gm1_units, origin, pipeline_s, rank_one_by_S,
                               reconstruct_cone, s_tensor)
from liecontact.linalg import (IntMat, Mat, exp_nilpotent, invert,
                               rank_kernel, rat, solve_linear)
from liecontact.so_contact import (Signature, SoElement, ambient_inverse,
                                   bracket_gm1, segre_rank)
from liecontact.split_quat import stack_columns
from test_linalg import _corrupted, _sign_swap
from test_so_contact import _bracket_by_inner

SIGS = (Signature(2, 1), Signature(3, 0), Signature(2, 2))
ORACLE_SIGS = (Signature(1, 0), Signature(2, 1), Signature(3, 0),
               Signature(2, 2), Signature(3, 3))
# every signature with 2 <= n <= 6
DOMAIN_SIGS = tuple(Signature(p, n - p) for n in range(2, 7)
                    for p in range(n, -1, -1))


def _sig_id(sig):
    return "%d-%d" % (sig.p, sig.q)


def _mat(rows):
    return Mat([[Fraction(e) for e in r] for r in rows])


# ---------------------------------------------------------------------------
# model points


def test_model_point_validation():
    sig = Signature(2, 1)
    with pytest.raises(ValueError, match="matrix"):
        ModelPoint(sig, Mat.zeros(5, 2))
    first = Mat.col(origin(sig).span.column(0))
    thin = Mat.block([[first, first]])
    with pytest.raises(ValueError, match="rank 2"):
        ModelPoint(sig, thin)
    rows = [[Fraction(0)] * 2 for _ in range(7)]
    rows[0][0] = Fraction(1)
    rows[2][1] = Fraction(1)
    with pytest.raises(ValueError, match="isotropic"):
        ModelPoint(sig, Mat(rows))


def test_model_point_equality_ignores_basis_of_the_plane():
    sig = Signature(2, 1)
    pt = origin(sig)
    mix = _mat([[2, 3], [1, 2]])
    assert ModelPoint(sig, pt.span * mix) == pt
    other = chain_eval(sig, Fraction(1, 2))
    assert not (other == pt)


def test_act_requires_form_preservation():
    sig = Signature(2, 1)
    with pytest.raises(ValueError, match="preserve the ambient form"):
        act(sig, 2 * Mat.identity(7), origin(sig))


def test_form_checks_refuse_near_misses():
    # a corrupted element of O(S), one with g^T S g = -S and multiples c·g
    # are refused wherever g acts, and a corrupted isotropic plane where a
    # point is made, each with its check's message
    rng = random.Random(88)
    for sig in (Signature(2, 1), Signature(2, 2), Signature(3, 3)):
        s = sig.form_s()
        g = samplers.rand_oform(sig, rng)
        bad = [_corrupted(g, rng), 2 * Mat.identity(sig.n + 4),
               Fraction(1, 3) * g]
        if sig.p == sig.q:
            bad.append(g * _sign_swap(sig)[0])
        for b in bad:
            assert b.T * s * b != s
            for make in (lambda: act(sig, b, origin(sig)),
                         lambda: ChainCurve(sig, b)):
                with pytest.raises(ValueError, match="the acting matrix must "
                                   "preserve the ambient form"):
                    make()
        span = g.submat(0, sig.n + 4, 0, 2)
        assert ModelPoint(sig, span).span == span
        skew = _corrupted(span, rng)
        assert not (skew.T * s * skew).is_zero()
        with pytest.raises(ValueError, match="span must be isotropic for the "
                           "ambient form"):
            ModelPoint(sig, skew)


@pytest.mark.parametrize("sig", DOMAIN_SIGS, ids=_sig_id)
def test_model_point_rank_matches_rank_kernel(sig):
    # isotropic planes of rank two are points; a rank-one or zero span and
    # a non-isotropic plane are refused with their messages, and equality
    # is the rank of the joined spans
    rng = random.Random(91 + 7 * sig.p + sig.q)
    size = sig.n + 4
    for _ in range(3):
        span = samplers.rand_oform(sig, rng).submat(0, size, 0, 2)
        col = Mat.col(span.column(rng.randrange(2)))
        thin = Mat.block([[col, samplers.rand_fraction(rng) * col]])
        for m, rank in ((span, 2), (thin, 1), (Mat.zeros(size, 2), 0)):
            assert rank_kernel(m)[0] == rank
            if rank == 2:
                assert ModelPoint(sig, m).span is m
                continue
            with pytest.raises(ValueError, match="span must have rank 2"):
                ModelPoint(sig, m)
        skew = _corrupted(span, rng)
        assert rank_kernel(skew)[0] == 2
        with pytest.raises(ValueError, match="span must be isotropic"):
            ModelPoint(sig, skew)
        pt = ModelPoint(sig, span)
        other = samplers.rand_oform(sig, rng).submat(0, size, 0, 2)
        for m in (span * samplers.rand_gl2(rng), other):
            joint = rank_kernel(Mat.block([[span, m]]))[0]
            assert (pt == ModelPoint(sig, m)) == (joint == 2)
        assert pt == ModelPoint(sig, IntMat.of(span))
        assert ModelPoint(sig, IntMat.of(span)).span == span


def test_act_moves_points_and_keeps_them_valid():
    rng = random.Random(70)
    for sig in SIGS:
        for _ in range(10):
            g = samplers.rand_oform(sig, rng)
            pt = act(sig, g, origin(sig))
            assert pt.span == g * origin(sig).span


# ---------------------------------------------------------------------------
# chain curves


def test_chain_matrix_squares_to_zero():
    for sig in SIGS:
        e = chain_matrix(sig)
        assert (e * e).is_zero()


def test_chain_matrix_is_built_once_per_signature():
    for sig in SIGS:
        assert chain_matrix(sig) is chain_matrix(Signature(sig.p, sig.q))
        assert chain_matrix(sig) == SoElement.generator_e(sig).assemble()


def test_chain_matrix_rejects_a_generator_that_does_not_square_to_zero(
        monkeypatch):
    sig = Signature(2, 1)
    monkeypatch.setattr(SoElement, "generator_e",
                        classmethod(lambda cls, sig: cls(sig, z=1, w=1)))
    chain_matrix.cache_clear()
    try:
        with pytest.raises(ValueError, match="square to zero"):
            chain_matrix(sig)
    finally:
        chain_matrix.cache_clear()


def test_ambient_inverse_matches_elimination():
    rng = random.Random(82)
    # n = 1 to 6
    for sig in ORACLE_SIGS + (Signature(0, 1), Signature(1, 1),
                              Signature(3, 1), Signature(3, 2)):
        s = sig.form_s()
        # frames of the model and the assembled elements of Q, whose
        # adjoint action inverts them the same way
        gs = [samplers.rand_oform(sig, rng) for _ in range(6)]
        gs += [samplers.rand_q_element(sig, rng).assemble() for _ in range(6)]
        for g in gs:
            inv = ambient_inverse(sig, g)
            assert inv == s * g.T * s
            assert inv == invert(g)
        # S·m^T·S on a matrix outside the group is still the product
        m = samplers.rand_mat(rng, sig.n + 4, sig.n + 4)
        assert ambient_inverse(sig, m) == s * m.T * s


def test_affine_frame_matches_the_exponential():
    # the point at t is read off the frame g·exp(tE), and its step from
    # t = 0 to t = 1 off the velocity gE, whose columns the curve moves
    rng = random.Random(83)
    for sig in ORACLE_SIGS:
        e = chain_matrix(sig)
        size = sig.n + 4
        for g in [Mat.identity(size)] + [samplers.rand_oform(sig, rng)
                                         for _ in range(6)]:
            t = samplers.rand_fraction(rng)
            curve = ChainCurve(sig, g)
            frame = g * exp_nilpotent(t * e, 2)
            assert curve.at(t).span == frame.submat(0, size, 0, 2)
            step = curve.at(1).span - curve.at(0).span
            assert step.data == (g * e).submat(0, size, 0, 2).data


def test_pullbacks_match_the_eliminated_inverse():
    rng = random.Random(84)
    for sig in ORACLE_SIGS:
        e = chain_matrix(sig)
        for _ in range(4):
            g = samplers.rand_oform(sig, rng)
            t = samplers.rand_fraction(rng)
            frame = g * exp_nilpotent(t * e, 2)
            expected = SoElement.from_matrix(sig, invert(frame) * (g * e))
            assert ChainCurve(sig, g).velocity_class(t) == expected
            for x in (SoElement(sig, X=samplers.rand_gm1(sig, rng)),
                      SoElement(sig, z=samplers.rand_nonzero_fraction(rng),
                                X=samplers.rand_gm1(sig, rng))):
                m = x.assemble()
                flow = exp_nilpotent(t * m, 4)
                pullback = invert(flow) * (m * flow)
                assert (flow_transversality(sig, x, t)
                        == (SoElement.from_matrix(sig, pullback).z != 0))


def test_chain_through_origin_has_linear_span():
    sig = Signature(2, 1)
    t = Fraction(3, 5)
    pt = chain_eval(sig, t)
    expected = _mat([
        [1, 0], [0, 1], [0, 0], [0, 0], [0, 0], [0, t], [-t, 0]])
    assert pt == ModelPoint(sig, expected)
    assert chain_eval(sig, 0) == origin(sig)


def test_chain_point_is_the_frame_first_two_columns():
    rng = random.Random(73)
    for sig in ORACLE_SIGS:
        size = sig.n + 4
        for curve in (ChainCurve(sig),
                      ChainCurve(sig, samplers.rand_oform(sig, rng)),
                      ChainCurve(sig, samplers.rand_oform(sig, rng))):
            for t in (0, 1, Fraction(-7, 3), samplers.rand_fraction(rng),
                      "5/4"):
                span = curve.at(t).span
                frame = curve.g * exp_nilpotent(
                    rat(t) * chain_matrix(sig), 2)
                want = frame.submat(0, size, 0, 2)
                assert span.data == want.data
                assert {type(e) for r in span.data for e in r} == {Fraction}


def test_chain_equivariance():
    rng = random.Random(71)
    for sig in SIGS:
        for _ in range(8):
            g = samplers.rand_oform(sig, rng)
            t = samplers.rand_fraction(rng)
            assert chain_eval(sig, t, g) == act(sig, g, chain_eval(sig, t))


def test_chain_velocity_is_the_generator():
    rng = random.Random(72)
    for sig in SIGS:
        e = SoElement.generator_e(sig)
        curve = ChainCurve(sig)
        assert curve.velocity_class(Fraction(2, 7)) == e
        g = samplers.rand_oform(sig, rng)
        moved = ChainCurve(sig, g)
        assert moved.velocity_class(Fraction(-3)) == e


def test_chain_transversality_and_flow_comparison():
    rng = random.Random(73)
    for sig in SIGS:
        assert chain_transversality(sig, Fraction(1, 3))
        assert chain_transversality(sig, 0, samplers.rand_oform(sig, rng))
        x = SoElement(sig, X=samplers.rand_mat(rng, sig.n, 2))
        assert not flow_transversality(sig, x, Fraction(1, 2))
        assert flow_transversality(sig, SoElement.generator_e(sig), 1)


# ---------------------------------------------------------------------------
# the cubic tensor


def test_eval_validation():
    sig = Signature(2, 1)
    ev = STensorEval.standard(sig)
    with pytest.raises(ValueError, match="signature mismatch"):
        STensorEval(Signature(3, 0), ev.structure)
    with pytest.raises(ValueError, match="scale must be nonzero"):
        STensorEval(sig, scale=0)
    with pytest.raises(ValueError, match="scale must be nonzero"):
        ev.rescaled(0)


def _s_tensor_by_matrices(ev, xi, eta, zeta):
    """The tensor as a sum of Mat terms, one bottom bracket and one
    structure application per term."""
    sig = ev.sig
    st = ev.structure
    acc = Mat.zeros(sig.n, 2)

    def term(a, b, c):
        out = Mat.zeros(sig.n, 2)
        for apply_m, sgn in ((st.apply_i, 1), (st.apply_j, 1),
                             (st.apply_k, -1)):
            # the Fraction formula, apart from the pairing the tensor shares
            coeff = _bracket_by_inner(sig, a, apply_m(b))
            if coeff != 0:
                out = out + (sgn * coeff) * apply_m(c)
        return out

    acc = acc + term(xi, eta, zeta) + term(eta, zeta, xi) + term(zeta, xi, eta)
    return ev.scale * acc


def test_tensor_matches_the_matrix_formula():
    rng = random.Random(85)
    for sig in ORACLE_SIGS:
        std = STensorEval.standard(sig)
        evs = (std, std.rescaled(Fraction(-7, 3)),
               std.basis_changed(samplers.rand_gl2(rng)),
               std.basis_changed(samplers.rand_gl2(rng)).rescaled(5))
        zero = Mat.zeros(sig.n, 2)
        for ev in evs:
            for _ in range(4):
                a = samplers.rand_gm1(sig, rng)
                b = samplers.rand_gm1(sig, rng)
                c = samplers.rand_mixed_gm1(sig, rng)
                for args in ((a, b, c), (a, a, a), (a, zero, c),
                             (zero, zero, zero)):
                    got = s_tensor(ev, *args)
                    assert got == _s_tensor_by_matrices(ev, *args)
                    assert all(type(x) is Fraction for r in got.data
                               for x in r)
        a = samplers.rand_gm1(sig, rng)
        assert s_tensor(_zero_eval(sig), a, a, a).is_zero()


def test_tensor_reads_the_structure_once_per_evaluator(monkeypatch):
    rng = random.Random(86)
    sig = Signature(2, 2)
    ev = STensorEval.standard(sig).basis_changed(samplers.rand_gl2(rng))
    st = ev.structure
    read = []
    of = IntMat.of.__func__
    monkeypatch.setattr(IntMat, "of", classmethod(
        lambda cls, m: read.append(m) or of(cls, m)))
    args = [samplers.rand_gm1(sig, rng) for _ in range(3)]
    for _ in range(4):
        s_tensor(ev, *args)
    assert len(read) == 12
    assert not any(m is x for m in read for x in (st.mi, st.mj, st.mk))


def test_tensor_reads_integer_entries_and_refuses_floats():
    sig = Signature(2, 1)
    ev = STensorEval.standard(sig)
    ints = Mat([[1, 2], [0, -3], [4, 1]])
    frac = ints.map(Fraction)
    assert s_tensor(ev, ints, frac, ints) == s_tensor(ev, frac, frac, frac)
    with pytest.raises(TypeError, match="float"):
        s_tensor(ev, ints.map(float), frac, frac)


def test_tensor_is_totally_symmetric():
    rng = random.Random(74)
    for sig in SIGS:
        ev = STensorEval.standard(sig)
        for _ in range(8):
            a = samplers.rand_gm1(sig, rng)
            b = samplers.rand_gm1(sig, rng)
            c = samplers.rand_gm1(sig, rng)
            base = s_tensor(ev, a, b, c)
            assert s_tensor(ev, b, a, c) == base
            assert s_tensor(ev, c, b, a) == base
            assert s_tensor(ev, a, c, b) == base


def test_tensor_matches_pipeline_up_to_one_constant():
    rng = random.Random(75)
    for sig in SIGS:
        ev = STensorEval.standard(sig)
        cst = fit_pipeline_constant(ev)
        assert cst == 2
        for _ in range(8):
            a = samplers.rand_gm1(sig, rng)
            b = samplers.rand_gm1(sig, rng)
            c = samplers.rand_gm1(sig, rng)
            assert s_tensor(ev, a, b, c) == cst * pipeline_s(sig, a, b, c)


def test_cubic_vanishes_on_rank_one_directions():
    rng = random.Random(76)
    for sig in SIGS:
        ev = STensorEval.standard(sig)
        for _ in range(15):
            xi = samplers.rand_rank_one(sig, rng)
            assert s_tensor(ev, xi, xi, xi).is_zero()
            assert rank_one_by_S(ev, xi)


def test_rank_one_test_rejects_generic_planes():
    rng = random.Random(77)
    for sig in SIGS:
        ev = STensorEval.standard(sig)
        seen = 0
        while seen < 10:
            xi = samplers.rand_gm1(sig, rng)
            if segre_rank(xi) != 2:
                continue
            seen += 1
            assert not rank_one_by_S(ev, xi)


def test_isotropic_rank_one_directions_are_kept():
    rng = random.Random(78)
    for sig in (Signature(2, 1), Signature(2, 2)):
        ev = STensorEval.standard(sig)
        for _ in range(10):
            xi = samplers.rand_isotropic_rank_one(sig, rng)
            assert segre_rank(xi) == 1
            assert rank_one_by_S(ev, xi)


def test_fully_isotropic_rank_two_plane_is_rejected():
    sig = Signature(2, 2)
    ev = STensorEval.standard(sig)
    xi = _mat([[1, 0], [0, 1], [1, 0], [0, 1]])
    assert segre_rank(xi) == 2
    st = ev.structure
    pairings = (bracket_gm1(sig, xi, st.apply_i(xi)),
                bracket_gm1(sig, xi, st.apply_j(xi)),
                bracket_gm1(sig, xi, st.apply_k(xi)))
    assert pairings == (0, 0, 0)
    assert s_tensor(ev, xi, xi, xi).is_zero()
    assert not rank_one_by_S(ev, xi)


def _rank_one_by_matrices(ev, xi):
    """rank_one_by_S by its Mat formula: the pairings through bracket_gm1
    and the structure's apply_i, apply_j and apply_k, the cubic through
    s_tensor, and reachability through solve_linear."""
    sig, st = ev.sig, ev.structure
    if any(bracket_gm1(sig, xi, apply_m(xi)) != 0
           for apply_m in (st.apply_i, st.apply_j, st.apply_k)):
        return s_tensor(ev, xi, xi, xi).is_zero()
    cols = [stack_columns(s_tensor(ev, xi, xi, eta)).column(0)
            for eta in gm1_units(sig.n)]
    return solve_linear(Mat(cols).T, stack_columns(xi)) is not None


@pytest.mark.parametrize("sig", DOMAIN_SIGS, ids=_sig_id)
def test_rank_one_by_s_matches_the_matrix_formula(sig):
    # mixed samples, and the isotropic shapes that make every pairing
    # vanish, under the standard, a rescaled and a basis-changed structure
    rng = random.Random(95 + 7 * sig.p + sig.q)
    std = STensorEval.standard(sig)
    evs = (std, std.rescaled(Fraction(-5, 2)),
           std.basis_changed(samplers.rand_gl2(rng)))
    samples = [samplers.rand_mixed_gm1(sig, rng) for _ in range(6)]
    if sig.p and sig.q:
        samples.append(samplers.rand_isotropic_rank_one(sig, rng))
    if sig.p >= 2 and sig.q >= 2:
        samples.append(samplers.rand_isotropic_plane(sig, rng))
    for ev in evs:
        for xi in samples:
            got = rank_one_by_S(ev, xi)
            assert got == _rank_one_by_matrices(ev, xi)
            assert got == (segre_rank(xi) == 1)


def test_rank_one_test_rejects_zero():
    sig = Signature(2, 1)
    ev = STensorEval.standard(sig)
    with pytest.raises(ValueError, match="nonzero"):
        rank_one_by_S(ev, Mat.zeros(3, 2))


class _ZeroStructure:
    """The zero operator in place of I, J and K, both as the maps and as
    their right-multiplication matrices."""

    mi = mj = mk = Mat.zeros(2, 2)

    def __init__(self, sig):
        self.sig = sig

    def _zero(self, xi):
        return Mat.zeros(self.sig.n, 2)

    apply_i = apply_j = apply_k = _zero


def _zero_eval(sig):
    # STensorEval checks only the structure's signature, so it takes the
    # zero structure as it is
    return STensorEval(sig, _ZeroStructure(sig))


def test_reconstruct_cone_rejects_degenerate_tensor():
    sig = Signature(2, 1)
    with pytest.raises(ValueError, match="degenerate"):
        reconstruct_cone(_zero_eval(sig), [])


def test_reconstruct_cone_on_mixed_samples():
    rng = random.Random(79)
    for sig in SIGS:
        ev = STensorEval.standard(sig)
        samples = [samplers.rand_mixed_gm1(sig, rng) for _ in range(30)]
        rep = reconstruct_cone(ev, samples)
        assert rep["samples"] == 30
        assert rep["matches_ground_truth"]
        assert rep["mismatches"] == 0
        assert rep["witness"] is None
        assert rep["rank_one"] + rep["rank_two"] == 30
        assert rep["rank_one"] > 0 and rep["rank_two"] > 0


def test_classification_is_invariant_under_admissible_changes():
    rng = random.Random(80)
    sig = Signature(2, 2)
    ev = STensorEval.standard(sig)
    samples = [samplers.rand_mixed_gm1(sig, rng) for _ in range(20)]
    base = reconstruct_cone(ev, samples)["flags"]
    scaled = reconstruct_cone(ev.rescaled(Fraction(7, 3)), samples)
    swap = _mat([[0, 1], [1, 0]])
    shear = _mat([[1, 1], [0, 1]])
    for g in (swap, shear):
        changed = reconstruct_cone(ev.basis_changed(g), samples)
        assert changed["flags"] == base
    assert scaled["flags"] == base


# ---------------------------------------------------------------------------
# trajectory export


def _gram_schmidt(span, total):
    # the steps of _normalized_span, with the float sum given
    d = span.d
    c0 = [r[0] / d for r in span.dense]
    c1 = [r[1] / d for r in span.dense]
    norm0 = math.sqrt(total(e * e for e in c0))
    u0 = [e / norm0 for e in c0]
    if next((e for e in u0 if abs(e) > 1e-9), 1.0) < 0:
        u0 = [-e for e in u0]
    proj = total(a * b for a, b in zip(c1, u0))
    v = [a - proj * b for a, b in zip(c1, u0)]
    norm1 = math.sqrt(total(e * e for e in v))
    return [x for pair in zip(u0, [e / norm1 for e in v]) for x in pair]


def _left_fold(values):
    return functools.reduce(operator.add, values, 0.0)


def test_normalized_span_sums_left_to_right():
    # a span on which a compensated sum, as sum() of floats is since
    # Python 3.12, and a left-to-right sum give different digits: the
    # exported spans must not depend on the Python version
    span = IntMat(3, 2, [[10 ** 6, 9], [-7, 10 ** 9], [-6, 6], [5, 6],
                         [3, -3], [-6, 6]])
    left = _gram_schmidt(span, _left_fold)
    assert left != _gram_schmidt(span, math.fsum)
    assert chains._normalized_span(span) == left


def test_emit_trajectory_shape_and_validation():
    sig = Signature(2, 1)
    with pytest.raises(ValueError, match="at least 2"):
        emit_trajectory(sig, None, 0, 1, 1)
    rows = emit_trajectory(sig, None, -1, 1, 5)
    assert len(rows) == 5
    assert [r[0] for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert all(len(r) == 1 + 2 * 7 for r in rows)


def test_emit_trajectory_needs_an_increasing_range():
    sig = Signature(2, 1)
    for t_min, t_max in ((1, 1), (2, 1), (Fraction(1, 2), Fraction(-3, 2))):
        with pytest.raises(ValueError, match="t_min must be less than t_max"):
            emit_trajectory(sig, None, t_min, t_max, 5)


def test_emit_trajectory_identity_row():
    sig = Signature(2, 1)
    rows = emit_trajectory(sig, None, 0, 1, 2)
    row = rows[1]
    assert row[0] == 1.0
    s = 1.0 / math.sqrt(2.0)
    entries = row[1:]
    expected = [0.0] * 14
    expected[0] = s
    expected[12] = -s
    expected[3] = s
    expected[11] = s
    assert entries == pytest.approx(expected, abs=1e-12)


def test_emit_trajectory_isotropy_residual():
    rng = random.Random(81)
    sig = Signature(2, 2)
    g = samplers.rand_oform(sig, rng)
    rows = emit_trajectory(sig, g, Fraction(-2), Fraction(2), 9)
    sform = sig.form_s().map(float)
    for row in rows:
        span = Mat([[row[1 + 2 * i + j] for j in range(2)]
                    for i in range(sig.n + 4)])
        residual = span.T * sform * span
        assert max(abs(residual[a, b]) for a in range(2)
                   for b in range(2)) < 1e-10
