"""Tests that the random generators deliver the structures they promise."""

import random
from fractions import Fraction

import pytest

from liecontact import samplers
from liecontact.linalg import (IntMat, Mat, det, exp_nilpotent, invert,
                               rat_sqrt)
from liecontact.so_contact import Signature, SoElement, segre_rank
from oracles import (block, col, diag, form_s, ipq, product, rand_so_element,
                     transpose, zeros)

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
            x = Fraction(*samplers._rand_ratio(rng, span, den))
            rows[i][j] = x
            rows[j][i] = -x
    return Mat(rows)


def _product_so_pq(sig, rng):
    return product(ipq(sig), _product_antisym(rng, sig.n))


def _product_opq(sig, rng, redraws=None):
    n = sig.n
    eye = Mat.identity(n)
    while True:
        d = _product_so_pq(sig, rng)
        try:
            c = product(invert(IntMat.of(eye - d)).to_mat(), eye + d)
            break
        except ValueError:
            if redraws is not None:
                redraws.append(d)
    signs = diag([Fraction(rng.choice((1, -1))) for _ in range(n)])
    return product(c, signs)


def _product_oform(sig, rng):
    n = sig.n
    neg = SoElement(sig, z=samplers.rand_fraction(rng),
                    X=IntMat.of(_fraction_mat(rng, n, 2)))
    pos = SoElement(sig, U=IntMat.of(_fraction_mat(rng, 2, n)),
                    w=samplers.rand_fraction(rng))
    b, c = _fraction_gl2(rng), _product_opq(sig, rng)
    binv_t = transpose(invert(IntMat.of(b)).to_mat())
    mid = block([[b, zeros(2, n), zeros(2, 2)],
                 [zeros(n, 2), c, zeros(n, 2)],
                 [zeros(2, 2), zeros(2, n), binv_t]])
    return product(exp_nilpotent(neg.ints, 3).to_mat(), mid,
                   exp_nilpotent(pos.ints, 3).to_mat())


def _fraction_mat(rng, rows, cols, span=6, den=4):
    """A Mat of `_rand_ratio` draws as Fractions, row by row: the
    reference for `rand_mat`."""
    return Mat([[Fraction(*samplers._rand_ratio(rng, span, den))
                 for _ in range(cols)] for _ in range(rows)])


def _fraction_nonzero_col(rng, n):
    while True:
        v = _fraction_mat(rng, n, 1)
        if any(e for (e,) in v.data):
            return v


def _fraction_gl2(rng):
    while True:
        b = _fraction_mat(rng, 2, 2, 4, 3)
        (p, r), (s_, q) = b.data
        if p * q - r * s_:
            return b


def _fraction_gm1(sig, rng):
    while True:
        x = _fraction_mat(rng, sig.n, 2)
        if any(e for r in x.data for e in r):
            return x


def _fraction_rank_one(sig, rng):
    u = _fraction_nonzero_col(rng, sig.n)
    return product(u, transpose(_fraction_nonzero_col(rng, 2)))


def _fraction_mixed_gm1(sig, rng):
    roll = rng.random()
    if roll < 0.35:
        return _fraction_rank_one(sig, rng)
    if roll < 0.55 and sig.p >= 1 and sig.q >= 1:
        return _product_isotropic_rank_one(sig, rng)
    if roll < 0.70 and sig.p >= 2 and sig.q >= 2:
        return _product_isotropic_plane(sig, rng)
    return _fraction_gm1(sig, rng)


def _product_q_element(sig, rng):
    return (_fraction_gl2(rng), _product_opq(sig, rng),
            samplers.rand_fraction(rng))


def _product_q_square(sig, rng):
    m = _fraction_gl2(rng)
    b = m * m
    if rng.choice((True, False)):
        b = b * diag([Fraction(1), Fraction(-1)])
    return b, _product_opq(sig, rng), samplers.rand_fraction(rng)


def _product_isotropic_rank_one(sig, rng):
    u0 = [Fraction(0)] * sig.n
    u0[0] = u0[sig.p] = Fraction(1)
    u = product(_product_opq(sig, rng), col(u0))
    return product(u, transpose(_fraction_nonzero_col(rng, 2)))


def _product_isotropic_plane(sig, rng):
    n, p = sig.n, sig.p
    rows = [[Fraction(0)] * 2 for _ in range(n)]
    rows[0][0] = rows[p][0] = rows[1][1] = rows[p + 1][1] = Fraction(1)
    return product(_product_opq(sig, rng), Mat(rows), _fraction_gl2(rng))


def _mat_view(sampler):
    """The sampler of integer rows, its draws read as their Mat views."""
    def draw(sig, rng):
        got = sampler(sig, rng)
        assert isinstance(got, IntMat)
        return got.to_mat()
    return draw


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
        _same_draw(_mat_view(samplers.rand_oform), _product_oform, sig, seed)


@pytest.mark.parametrize("sig", DRAW_SIGS, ids=repr)
def test_rand_so_pq_and_rand_opq_match_their_diagonal_products(sig):
    for seed in range(6):
        _same_draw(_mat_view(samplers.rand_so_pq), _product_so_pq, sig, seed)
        _same_draw(_mat_view(samplers.rand_opq), _product_opq, sig, seed)
        _same_draw(_mat_view(lambda s, rng: samplers.rand_antisym(rng, s.n)),
                   lambda s, rng: _product_antisym(rng, s.n), sig, seed)


@pytest.mark.parametrize("sig", (Signature(1, 1), Signature(2, 1),
                                 Signature(2, 2), Signature(3, 3)), ids=repr)
def test_isotropic_samplers_match_their_products(sig):
    for seed in range(4):
        _same_draw(_mat_view(samplers.rand_isotropic_rank_one),
                   _product_isotropic_rank_one, sig, seed)
        if sig.p >= 2 and sig.q >= 2:
            _same_draw(_mat_view(samplers.rand_isotropic_plane),
                       _product_isotropic_plane, sig, seed)


# every exact sampler of a g_{-1} direction, a g~_{-2} column or a small
# block, with its Fraction reference: the same numbers in the same order
SMALL_SAMPLERS = [
    ("rand_mat", lambda s, rng: samplers.rand_mat(rng, s.n, 3),
     lambda s, rng: _fraction_mat(rng, s.n, 3)),
    ("rand_col", lambda s, rng: samplers.rand_col(rng, 2 * s.n),
     lambda s, rng: _fraction_mat(rng, 2 * s.n, 1)),
    ("rand_nonzero_col", lambda s, rng: samplers.rand_nonzero_col(rng, 2),
     lambda s, rng: _fraction_nonzero_col(rng, 2)),
    ("rand_gl2", lambda s, rng: samplers.rand_gl2(rng),
     lambda s, rng: _fraction_gl2(rng)),
    ("rand_gm1", samplers.rand_gm1, _fraction_gm1),
    ("rand_rank_one", samplers.rand_rank_one, _fraction_rank_one),
    ("rand_mixed_gm1", samplers.rand_mixed_gm1, _fraction_mixed_gm1),
    ("rand_q_tangent A", lambda s, rng: samplers.rand_q_tangent(s, rng)[0],
     lambda s, rng: _fraction_q_tangent(s, rng)[0]),
    ("rand_q_tangent D", lambda s, rng: samplers.rand_q_tangent(s, rng)[1],
     lambda s, rng: _fraction_q_tangent(s, rng)[1]),
]


def _fraction_q_tangent(sig, rng):
    return (_fraction_mat(rng, 2, 2), _product_so_pq(sig, rng),
            samplers.rand_fraction(rng))


@pytest.mark.parametrize("name,sampler,reference", SMALL_SAMPLERS,
                         ids=[c[0] for c in SMALL_SAMPLERS])
def test_small_samplers_match_their_fraction_draws(name, sampler, reference):
    # each returns an IntMat built from its ratio rows, drawn in the order
    # of the Fraction draw, with the same values and the same stream state
    for sig in DRAW_SIGS:
        for seed in range(4):
            _same_draw(_mat_view(sampler), reference, sig, seed)
    # the third part of the tangent data is the Fraction drawn last
    rng, ref_rng = random.Random(5), random.Random(5)
    for sig in DRAW_SIGS:
        assert (samplers.rand_q_tangent(sig, rng)[2]
                == _fraction_q_tangent(sig, ref_rng)[2])


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


def _fraction_so_element(sig, rng):
    n = sig.n
    return SoElement(sig, z=samplers.rand_fraction(rng),
                     X=IntMat.of(_fraction_mat(rng, n, 2)),
                     A=IntMat.of(_fraction_mat(rng, 2, 2)),
                     D=IntMat.of(_product_so_pq(sig, rng)),
                     U=IntMat.of(_fraction_mat(rng, 2, n)),
                     w=samplers.rand_fraction(rng))


@pytest.mark.parametrize("sig", Q_SIGS, ids=repr)
def test_so_draw_core_matches_the_fraction_draw(sig):
    # the integer rows that check_pair_conditions draws are the assembled
    # matrix of the Fraction blocks, drawn in the same order, and
    # rand_so_element is their element; every stream ends in one state
    for seed in range(3):
        rng, ref_rng, elt_rng = (random.Random(seed) for _ in range(3))
        for _ in range(2):
            got, want = (samplers.rand_so_int(sig, rng),
                         _fraction_so_element(sig, ref_rng))
            assert got.to_mat() == want.assemble(), (sig, seed)
            assert rand_so_element(sig, elt_rng) == want
            assert rng.getstate() == ref_rng.getstate() == elt_rng.getstate()


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
        form = ipq(sig)
        for _ in range(10):
            c = samplers.rand_opq(sig, rng).to_mat()
            assert product(transpose(c), form, c) == form


def test_rand_oform_preserves_the_ambient_form():
    rng = random.Random(91)
    for sig in SIGS:
        s = form_s(sig)
        for _ in range(5):
            g = samplers.rand_oform(sig, rng).to_mat()
            assert product(transpose(g), s, g) == s


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
                    assert sum(signs[i] * x.dense[i][a] * x.dense[i][b]
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
                assert sum(signs[i] * x.dense[i][a] * x.dense[i][b]
                           for i in range(sig.n)) == 0
    with pytest.raises(ValueError):
        samplers.rand_isotropic_plane(Signature(2, 1), rng)

