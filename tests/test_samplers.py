"""Tests that the random generators deliver the structures they promise."""

import random

import pytest

from liecontact import samplers
from liecontact.linalg import Mat, det, rat_sqrt
from liecontact.so_contact import Signature, segre_rank

SIGS = (Signature(2, 1), Signature(3, 0), Signature(2, 2))


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

