"""Tests for the split-quaternionic structure on the contact directions."""

import random
from fractions import Fraction

import pytest

from liecontact import samplers, split_quat
from liecontact.linalg import Mat, rank_kernel
from liecontact.so_contact import Signature, bracket_gm1, segre_rank
from liecontact.split_quat import (M_I, M_J, M_K, QuatStructureOnH,
                                   SplitQuaternion, eigenspace_decompose,
                                   levi_compat_residual,
                                   max_subspace_for_line, norm_sq, quat_mul,
                                   rank_one_witness, stack_columns,
                                   unstack_columns)

SIGS = (Signature(2, 1), Signature(3, 0), Signature(2, 2))


# the matrix model of the module docstring, as references for the tests


def to_matrix(q: SplitQuaternion) -> Mat:
    return Mat([[q.a0 + q.a, q.b + q.c], [q.b - q.c, q.a0 - q.a]])


def from_matrix(m: Mat) -> SplitQuaternion:
    """Inverse of to_matrix; defined on all 2x2 matrices."""
    half = Fraction(1, 2)
    return SplitQuaternion(half * (m[0, 0] + m[1, 1]),
                           half * (m[0, 0] - m[1, 1]),
                           half * (m[0, 1] + m[1, 0]),
                           half * (m[0, 1] - m[1, 0]))


def imag(q: SplitQuaternion) -> SplitQuaternion:
    return SplitQuaternion(0, q.a, q.b, q.c)


def test_basis_relations():
    one = SplitQuaternion(1)
    i = SplitQuaternion(0, 1)
    j = SplitQuaternion(0, 0, 1)
    k = SplitQuaternion(0, 0, 0, 1)
    assert quat_mul(i, i) == one
    assert quat_mul(j, j) == one
    assert quat_mul(k, k) == -one
    assert quat_mul(i, j) == k
    assert quat_mul(j, i) == -k


def test_zero_divisors_exist():
    p = SplitQuaternion(1, 1)
    q = SplitQuaternion(1, -1)
    assert quat_mul(p, q) == SplitQuaternion(0)


def test_norms_of_basis_elements():
    assert norm_sq(SplitQuaternion(0, 1)) == -1
    assert norm_sq(SplitQuaternion(0, 0, 1)) == -1
    assert norm_sq(SplitQuaternion(0, 0, 0, 1)) == 1
    assert norm_sq(SplitQuaternion(1)) == 1


def test_norm_is_multiplicative():
    rng = random.Random(30)
    for _ in range(80):
        p = SplitQuaternion(*(samplers.rand_fraction(rng) for _ in range(4)))
        q = SplitQuaternion(*(samplers.rand_fraction(rng) for _ in range(4)))
        assert norm_sq(quat_mul(p, q)) == norm_sq(p) * norm_sq(q)


def test_matrix_model_is_an_isomorphism():
    rng = random.Random(31)
    for _ in range(40):
        p = SplitQuaternion(*(samplers.rand_fraction(rng) for _ in range(4)))
        q = SplitQuaternion(*(samplers.rand_fraction(rng) for _ in range(4)))
        assert to_matrix(quat_mul(p, q)) == to_matrix(p) * to_matrix(q)
        assert from_matrix(to_matrix(p)) == p


def test_right_action_is_an_antihomomorphism():
    sig = Signature(2, 1)
    st = QuatStructureOnH.standard(sig)
    rng = random.Random(32)
    for _ in range(30):
        x = samplers.rand_gm1(sig, rng)
        assert st.apply_j(st.apply_i(x)) == st.apply_k(x)
        assert st.apply_i(st.apply_j(x)) == -1 * st.apply_k(x)


def test_action_through_quaternion_values():
    sig = Signature(2, 1)
    rng = random.Random(33)
    for _ in range(30):
        x = samplers.rand_gm1(sig, rng)
        q = SplitQuaternion(0, *(samplers.rand_fraction(rng)
                                 for _ in range(3)))
        direct = x * to_matrix(imag(q))
        st = QuatStructureOnH.standard(sig)
        composed = x * (q.a * st.mi + q.b * st.mj + q.c * st.mk)
        assert direct == composed


def test_structure_validation():
    sig = Signature(2, 1)
    with pytest.raises(ValueError):
        QuatStructureOnH(sig, M_J, M_I, M_K)
    st = QuatStructureOnH.standard(sig)
    g = Mat([[1, 1], [0, 1]]).map(Fraction)
    conj = st.conjugated(g)
    x = samplers.rand_gm1(sig, random.Random(34))
    assert conj.apply_j(conj.apply_i(x)) == conj.apply_k(x)


def test_pairing_compatibility_residual_vanishes():
    rng = random.Random(35)
    for sig in SIGS:
        for _ in range(40):
            coeffs = tuple(samplers.rand_fraction(rng) for _ in range(3))
            x = samplers.rand_gm1(sig, rng)
            y = samplers.rand_gm1(sig, rng)
            assert levi_compat_residual(sig, coeffs, x, y) == 0


def test_stack_unstack_round_trip():
    rng = random.Random(36)
    x = samplers.rand_gm1(Signature(2, 2), rng)
    assert unstack_columns(stack_columns(x), 4) == x
    with pytest.raises(ValueError):
        unstack_columns(Mat.identity(4), 2)


def test_eigenspace_split_and_swap():
    for sig in SIGS:
        st = QuatStructureOnH.standard(sig)
        plus, minus = eigenspace_decompose(st)
        assert len(plus) == sig.n and len(minus) == sig.n
        for v in plus:
            assert st.apply_i(v) == v
            img = st.apply_j(v)
            cols = [stack_columns(m).column(0) for m in minus]
            cols.append(stack_columns(img).column(0))
            rank, _ = rank_kernel(Mat(cols).T)
            assert rank == sig.n


def test_max_subspace_for_line_oracles():
    basis = max_subspace_for_line((0, 1), 3)
    assert basis[0] == Mat([[1, 0], [0, 0], [0, 0]]).map(Fraction)
    basis = max_subspace_for_line((1, 1), 3)
    assert basis[0] == Mat([[1, -1], [0, 0], [0, 0]]).map(Fraction)
    with pytest.raises(ValueError):
        max_subspace_for_line((0, 0), 3)


def test_max_subspace_members_are_rank_one_and_bracket_null():
    rng = random.Random(37)
    for sig in SIGS:
        for _ in range(20):
            l = (samplers.rand_fraction(rng), samplers.rand_fraction(rng))
            if l == (0, 0):
                l = (Fraction(1), Fraction(2))
            basis = max_subspace_for_line(l, sig.n)
            combo = Mat.zeros(sig.n, 2)
            for m in basis:
                combo = combo + samplers.rand_fraction(rng) * m
                for m2 in basis:
                    assert bracket_gm1(sig, m, m2) == 0
            assert segre_rank(combo) <= 1


def test_rank_one_witness_oracles():
    u = [Fraction(2), Fraction(1), Fraction(3)]
    left = Mat([[u[0], 0], [u[1], 0], [u[2], 0]]).map(Fraction)
    assert rank_one_witness(left) == (1, 0, 0)
    both = Mat([[u[0], u[0]], [u[1], u[1]], [u[2], u[2]]]).map(Fraction)
    assert rank_one_witness(both) == (0, 1, 0)
    assert rank_one_witness(Mat([[1, 0], [0, 1], [0, 0]]).map(Fraction)) is None
    with pytest.raises(ValueError):
        rank_one_witness(Mat.zeros(3, 2))


@pytest.mark.parametrize("solution,message", [
    (None, "reflection system has no solution"),
    ((0, 0, 0), "does not fix x")], ids=["inconsistent", "not-fixed"])
def test_rank_one_witness_raises_when_a_check_fails(monkeypatch, solution,
                                                     message):
    # the checks raise instead of asserting, so they hold under python -O
    x = Mat([[2, 0], [1, 0], [3, 0]]).map(Fraction)
    fake = None if solution is None else Mat.col(
        [Fraction(t) for t in solution])
    monkeypatch.setattr(split_quat, "solve_linear", lambda a, b: fake)
    with pytest.raises(ValueError, match=message):
        rank_one_witness(x)


def test_rank_one_witness_matches_rank_on_mixed_samples():
    rng = random.Random(38)
    for sig in SIGS:
        for _ in range(80):
            x = samplers.rand_mixed_gm1(sig, rng)
            w = rank_one_witness(x)
            assert (w is None) == (segre_rank(x) == 2)
            if w is not None:
                a, b, c = w
                assert -a * a - b * b + c * c == -1
