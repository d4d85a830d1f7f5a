"""Tests for the split-quaternionic structure on the contact directions."""

import random
from fractions import Fraction

import pytest

from liecontact import samplers, split_quat
from liecontact.linalg import IntMat, Mat, rank_kernel
from liecontact.so_contact import Signature, bracket_gm1, segre_rank
from liecontact.split_quat import (M_I, M_J, M_K, QuatStructureOnH,
                                   SplitQuaternion, eigenspace_decompose,
                                   levi_compat_residual,
                                   max_subspace_for_line, norm_sq, quat_mul,
                                   rank_one_witness, stack_columns,
                                   unstack_columns)
from oracles import col, ints, scaled, transpose, zeros

SIGS = (Signature(2, 1), Signature(3, 0), Signature(2, 2))


# the matrix model of the module docstring, as references for the tests


def to_matrix(q: SplitQuaternion) -> Mat:
    return Mat([[q.a0 + q.a, q.b + q.c], [q.b - q.c, q.a0 - q.a]])


def from_matrix(m: Mat) -> SplitQuaternion:
    """Inverse of to_matrix; defined on all 2x2 matrices."""
    half = Fraction(1, 2)
    (m00, m01), (m10, m11) = m.data
    return SplitQuaternion(half * (m00 + m11), half * (m00 - m11),
                           half * (m01 + m10), half * (m01 - m10))


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
        assert st.apply_j(st.apply_i(x)).equals(st.apply_k(x))
        assert st.apply_i(st.apply_j(x)).equals(
            IntMat.combination([(-1, st.apply_k(x))]))
        # the operators act on IntMats: a Mat is refused
        for apply in (st.apply_i, st.apply_j, st.apply_k):
            with pytest.raises(TypeError, match="IntMat"):
                apply(x.to_mat())


def test_action_through_quaternion_values():
    sig = Signature(2, 1)
    rng = random.Random(33)
    for _ in range(30):
        x = samplers.rand_gm1(sig, rng)
        q = SplitQuaternion(0, *(samplers.rand_fraction(rng)
                                 for _ in range(3)))
        direct = x.to_mat() * to_matrix(imag(q))
        st = QuatStructureOnH.standard(sig)
        composed = x.to_mat() * (scaled(q.a, st.mi) + scaled(q.b, st.mj)
                                 + scaled(q.c, st.mk))
        assert direct == composed
        # the integer rows of the units combine to the same operator
        units = IntMat.combination(list(zip((q.a, q.b, q.c), st.int_units)))
        assert (x * units).to_mat() == direct


def test_structure_validation():
    sig = Signature(2, 1)
    with pytest.raises(ValueError):
        QuatStructureOnH(sig, M_J, M_I, M_K)
    st = QuatStructureOnH.standard(sig)
    assert [u.to_mat() for u in st.int_units] == [M_I, M_J, M_K]
    g = ints([[1, 1], [0, 1]])
    conj = st.conjugated(g)
    gm, ginv = g.to_mat(), Mat([[1, -1], [0, 1]]).map(Fraction)
    assert (conj.mi, conj.mj, conj.mk) == (gm * M_I * ginv, gm * M_J * ginv,
                                           gm * M_K * ginv)
    assert [u.to_mat() for u in conj.int_units] == [conj.mi, conj.mj, conj.mk]
    x = samplers.rand_gm1(sig, random.Random(34))
    assert conj.apply_j(conj.apply_i(x)).equals(conj.apply_k(x))
    with pytest.raises(TypeError, match="IntMat"):
        st.conjugated(gm)


def test_standard_structure_is_built_once_per_signature():
    # one checked standard structure per signature is shared; a structure
    # built from bad units still raises
    for sig in SIGS:
        st = QuatStructureOnH.standard(sig)
        assert st is QuatStructureOnH.standard(Signature(sig.p, sig.q))
        assert st.sig == sig
        for bad in ((M_J, M_I, M_K), (M_I, M_J, -M_K), (M_I, M_I, M_K)):
            with pytest.raises(ValueError):
                QuatStructureOnH(sig, *bad)
    assert (QuatStructureOnH.standard(SIGS[0])
            is not QuatStructureOnH.standard(SIGS[1]))


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
    v = stack_columns(x)
    assert v.to_mat() == col(list(x.to_mat().column(0))
                             + list(x.to_mat().column(1)))
    assert unstack_columns(v, 4).equals(x)
    with pytest.raises(ValueError):
        unstack_columns(IntMat.of(Mat.identity(4)), 2)
    with pytest.raises(TypeError, match="IntMat"):
        stack_columns(x.to_mat())
    with pytest.raises(TypeError, match="IntMat"):
        unstack_columns(v.to_mat(), 4)


def _right_mult_by_products(m, n):
    # the reference: column k of the operator is x_k * m, stacked, for the
    # k-th unit x_k in the stacked-column coordinates
    cols = []
    for k in range(2 * n):
        unit = [[0] for _ in range(2 * n)]
        unit[k] = [1]
        x = unstack_columns(IntMat(1, 1, unit), n)
        cols.append(stack_columns(x * m).to_mat().column(0))
    return transpose(Mat(cols))


def test_right_mult_operator_matches_the_products():
    rng = random.Random(37)
    for n in (1, 2, 4):
        for m in (*(IntMat.of(u) for u in (M_I, M_J, M_K)),
                  samplers.rand_mat(rng, 2, 2), samplers.rand_mat(rng, 2, 2)):
            op = split_quat._right_mult_operator(m, n)
            assert op.to_mat() == _right_mult_by_products(m, n)
            x = samplers.rand_mat(rng, n, 2)
            assert (op * stack_columns(x)).equals(stack_columns(x * m))


def test_eigenspace_split_and_swap():
    for sig in SIGS:
        st = QuatStructureOnH.standard(sig)
        plus, minus = eigenspace_decompose(st)
        assert len(plus) == sig.n and len(minus) == sig.n
        for v, w in zip(plus, minus):
            assert type(v) is IntMat and st.apply_i(v).equals(v)
            assert st.apply_i(w).equals(IntMat.combination([(-1, w)]))
        for v in plus:
            img = st.apply_j(v)
            cols = [stack_columns(m).to_mat().column(0) for m in minus]
            cols.append(stack_columns(img).to_mat().column(0))
            rank, _ = rank_kernel(IntMat.of(transpose(Mat(cols))))
            assert rank == sig.n


def test_max_subspace_for_line_oracles():
    basis = max_subspace_for_line((0, 1), 3)
    assert basis[0].to_mat() == Mat([[1, 0], [0, 0], [0, 0]]).map(Fraction)
    basis = max_subspace_for_line((1, 1), 3)
    assert basis[0].to_mat() == Mat([[1, -1], [0, 0], [0, 0]]).map(Fraction)
    assert basis[2].to_mat() == Mat([[0, 0], [0, 0], [1, -1]]).map(Fraction)
    # over the lcm of the denominators of the line
    basis = max_subspace_for_line((Fraction(1, 2), Fraction(-2, 3)), 2)
    assert basis[1].d == 6
    assert basis[1].to_mat() == Mat([[0, 0], [Fraction(-2, 3),
                                              Fraction(-1, 2)]])
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
            combo = zeros(sig.n, 2)
            for m in basis:
                combo = combo + scaled(samplers.rand_fraction(rng),
                                       m.to_mat())
                for m2 in basis:
                    assert bracket_gm1(sig, m, m2) == 0
            assert segre_rank(IntMat.of(combo)) <= 1


def test_rank_one_witness_oracles():
    u = [Fraction(2), Fraction(1), Fraction(3)]
    left = ints([[u[0], 0], [u[1], 0], [u[2], 0]])
    assert rank_one_witness(left) == (1, 0, 0)
    both = ints([[u[0], u[0]], [u[1], u[1]], [u[2], u[2]]])
    assert rank_one_witness(both) == (0, 1, 0)
    assert rank_one_witness(ints([[1, 0], [0, 1], [0, 0]])) is None
    # the witness is read off the kernel column over its denominator
    half = ints([[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(2, 3)],
                 [0, 0]])
    a, b, c = rank_one_witness(half)
    assert -a * a - b * b + c * c == -1
    assert all(type(t) is Fraction for t in (a, b, c))
    with pytest.raises(ValueError):
        rank_one_witness(IntMat(1, 2, sparse=[[]] * 3))
    with pytest.raises(TypeError, match="IntMat"):
        rank_one_witness(left.to_mat())


@pytest.mark.parametrize("solution,message", [
    (None, "reflection system has no solution"),
    ((0, 0, 0), "does not fix x")], ids=["inconsistent", "not-fixed"])
def test_rank_one_witness_raises_when_a_check_fails(monkeypatch, solution,
                                                     message):
    # the checks raise instead of asserting, so they hold under python -O
    x = ints([[2, 0], [1, 0], [3, 0]])
    fake = None if solution is None else ints([[t] for t in solution])
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
