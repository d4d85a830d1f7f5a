"""Tests that the random generators deliver the structures they promise."""

import random
from fractions import Fraction

import pytest

from liecontact import samplers
from liecontact.linalg import Mat, det, exp_nilpotent, invert, rat_sqrt
from liecontact.so_contact import Signature, SoElement, segre_rank

SIGS = (Signature(2, 1), Signature(3, 0), Signature(2, 2))
# the signatures of the golden outputs; I - D is singular for some draws
# at (1, 1), so the Cayley transform's redraw runs there
DRAW_SIGS = (Signature(1, 0), Signature(0, 1), Signature(1, 1),
             Signature(2, 1), Signature(3, 0), Signature(2, 2),
             Signature(3, 3))


# The samplers as products of Fraction matrices, the reference for the
# integer-row samplers: the same draws in the same order, multiplied out.

def _product_antisym(rng, n, span=3, den=3):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = samplers.rand_fraction(rng, span, den)
            rows[i][j] = x
            rows[j][i] = -x
    return Mat(rows)


def _product_so_pq(sig, rng):
    return sig.ipq() * _product_antisym(rng, sig.n)


def _product_opq(sig, rng, redraws=None):
    n = sig.n
    eye = Mat.identity(n)
    while True:
        d = _product_so_pq(sig, rng)
        try:
            c = invert(eye - d) * (eye + d)
            break
        except ValueError:
            if redraws is not None:
                redraws.append(d)
    signs = Mat.diag([Fraction(rng.choice((1, -1))) for _ in range(n)])
    return c * signs


def _product_oform(sig, rng):
    n = sig.n
    neg = SoElement(sig, z=samplers.rand_fraction(rng),
                    X=samplers.rand_mat(rng, n, 2))
    pos = SoElement(sig, U=samplers.rand_mat(rng, 2, n),
                    w=samplers.rand_fraction(rng))
    b, c = samplers.rand_gl2(rng), _product_opq(sig, rng)
    mid = Mat.block([[b, Mat.zeros(2, n), Mat.zeros(2, 2)],
                     [Mat.zeros(n, 2), c, Mat.zeros(n, 2)],
                     [Mat.zeros(2, 2), Mat.zeros(2, n), invert(b).T]])
    return (exp_nilpotent(neg.assemble(), 3) * mid
            * exp_nilpotent(pos.assemble(), 3))


def _product_q_element(sig, rng):
    return (samplers.rand_gl2(rng), _product_opq(sig, rng),
            samplers.rand_fraction(rng))


def _product_q_square(sig, rng):
    m = samplers.rand_gl2(rng)
    b = m * m
    if rng.choice((True, False)):
        b = b * Mat.diag([Fraction(1), Fraction(-1)])
    return b, _product_opq(sig, rng), samplers.rand_fraction(rng)


def _same_draw(sampler, reference, sig, seed):
    """Both samplers from one seed: every entry equal, with its type, and
    the generator left in the same state."""
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        got, want = sampler(sig, rng), reference(sig, ref_rng)
        assert got.data == want.data, (sig, seed)
        assert [list(map(type, r)) for r in got.data] == \
            [list(map(type, r)) for r in want.data]
        assert rng.getstate() == ref_rng.getstate(), (sig, seed)


@pytest.mark.parametrize("sig", DRAW_SIGS, ids=repr)
def test_rand_oform_matches_the_three_factor_product(sig):
    for seed in range(4):
        _same_draw(samplers.rand_oform, _product_oform, sig, seed)


@pytest.mark.parametrize("sig", DRAW_SIGS, ids=repr)
def test_rand_so_pq_and_rand_opq_match_their_diagonal_products(sig):
    for seed in range(6):
        _same_draw(samplers.rand_so_pq, _product_so_pq, sig, seed)
        _same_draw(samplers.rand_opq, _product_opq, sig, seed)
        _same_draw(lambda s, rng: samplers.rand_antisym(rng, s.n),
                   lambda s, rng: _product_antisym(rng, s.n), sig, seed)


# every signature with 2 <= n <= 6
Q_SIGS = tuple(Signature(p, n - p) for n in range(2, 7)
               for p in range(n, -1, -1))


@pytest.mark.parametrize("sampler,reference", [
    (samplers.rand_q_element, _product_q_element),
    (samplers.rand_q_square, _product_q_square)], ids=["element", "square"])
def test_q_samplers_match_their_fraction_draws(sampler, reference):
    # the integer rows handed to the group element hold the data that the
    # Fraction products give, drawn in the same order, and the witness
    # text of an element is that of the Fraction data
    for sig in Q_SIGS:
        rng, ref_rng = random.Random(sig.n), random.Random(sig.n)
        for _ in range(3):
            h, (b, c, w) = sampler(sig, rng), reference(sig, ref_rng)
            assert (h.B, h.C, h.w) == (b, c, w)
            assert repr(h) == ("QGroupElement(%r, B=%r, C=%r, w=%s)"
                               % (sig, b, c, w))
            assert rng.getstate() == ref_rng.getstate()


def test_rand_opq_redraws_while_i_minus_d_is_singular():
    sig = Signature(1, 1)
    redraws = []
    for seed in range(6):
        rng = random.Random(seed)
        for _ in range(3):
            _product_opq(sig, rng, redraws)
    assert redraws  # so the comparison above covers the redraw


def test_rand_opq_is_orthogonal():
    rng = random.Random(90)
    for sig in SIGS:
        ipq = sig.ipq()
        for _ in range(10):
            c = samplers.rand_opq(sig, rng)
            assert c.T * ipq * c == ipq


def test_rand_oform_preserves_the_ambient_form():
    rng = random.Random(91)
    for sig in SIGS:
        s = sig.form_s()
        for _ in range(5):
            g = samplers.rand_oform(sig, rng)
            assert g.T * s * g == s


def test_rand_q_square_has_square_determinant_both_signs():
    rng = random.Random(92)
    sig = Signature(2, 1)
    signs = set()
    for _ in range(40):
        h = samplers.rand_q_square(sig, rng)
        beta = h.det_b()
        rat_sqrt(abs(beta))
        signs.add(beta > 0)
    assert signs == {True, False}


def test_rand_gl2_is_invertible():
    rng = random.Random(93)
    for _ in range(20):
        assert det(samplers.rand_gl2(rng)) != 0


def test_rand_rank_one_and_mixed():
    rng = random.Random(94)
    for sig in SIGS:
        for _ in range(10):
            assert segre_rank(samplers.rand_rank_one(sig, rng)) == 1
            assert not samplers.rand_mixed_gm1(sig, rng).is_zero()


def test_rand_isotropic_rank_one():
    rng = random.Random(95)
    for sig in (Signature(2, 1), Signature(2, 2)):
        signs = sig.signs()
        for _ in range(10):
            x = samplers.rand_isotropic_rank_one(sig, rng)
            assert segre_rank(x) == 1
            for a in range(2):
                for b in range(2):
                    assert sum(signs[i] * x[i, a] * x[i, b]
                               for i in range(sig.n)) == 0
    with pytest.raises(ValueError):
        samplers.rand_isotropic_rank_one(Signature(3, 0), rng)


def test_rand_isotropic_plane():
    rng = random.Random(96)
    sig = Signature(2, 2)
    signs = sig.signs()
    for _ in range(10):
        x = samplers.rand_isotropic_plane(sig, rng)
        assert segre_rank(x) == 2
        for a in range(2):
            for b in range(2):
                assert sum(signs[i] * x[i, a] * x[i, b]
                           for i in range(sig.n)) == 0
    with pytest.raises(ValueError):
        samplers.rand_isotropic_plane(Signature(2, 1), rng)

