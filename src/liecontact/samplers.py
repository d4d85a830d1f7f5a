"""Seeded rational samplers shared by the property tests and the CLI suites.

Every sampler takes an explicit random.Random and returns exact rational
data, so a fixed seed reproduces the same samples everywhere. Orthogonal
matrices come from Cayley transforms of so(p,q) elements times sign flips,
which reaches all components of O(p,q); orthogonal-form group elements are
products exp(nilpotent) * block-diagonal * exp(nilpotent), each factor
exactly in the group.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Mat, det, exp_nilpotent, invert
from .path_sl import SlElement
from .so_contact import QGroupElement, Signature, SoElement


def rand_fraction(rng, span=6, den=4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_nonzero_fraction(rng, span=6, den=4) -> Fraction:
    while True:
        x = rand_fraction(rng, span, den)
        if x != 0:
            return x


def rand_mat(rng, rows, cols, span=6, den=4) -> Mat:
    return Mat([[rand_fraction(rng, span, den) for _ in range(cols)]
                for _ in range(rows)])


def rand_col(rng, n, span=6, den=4) -> Mat:
    return Mat.col([rand_fraction(rng, span, den) for _ in range(n)])


def rand_nonzero_col(rng, n, span=6, den=4) -> Mat:
    while True:
        v = rand_col(rng, n, span, den)
        if not v.is_zero():
            return v


def rand_antisym(rng, n, span=3, den=3) -> Mat:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rand_fraction(rng, span, den)
            rows[i][j] = x
            rows[j][i] = -x
    return Mat(rows)


def rand_so_pq(sig: Signature, rng) -> Mat:
    """Random element of so(p,q): Ipq times an antisymmetric matrix."""
    return sig.ipq() * rand_antisym(rng, sig.n)


def rand_so_element(sig: Signature, rng) -> SoElement:
    n = sig.n
    return SoElement(sig, z=rand_fraction(rng), X=rand_mat(rng, n, 2),
                     A=rand_mat(rng, 2, 2), D=rand_so_pq(sig, rng),
                     U=rand_mat(rng, 2, n), w=rand_fraction(rng))


def rand_opq(sig: Signature, rng) -> Mat:
    """Random element of O(p,q), in any of its components."""
    n = sig.n
    eye = Mat.identity(n)
    while True:
        d = rand_so_pq(sig, rng)
        try:
            c = invert(eye - d) * (eye + d)
            break
        except ValueError:
            continue
    signs = Mat.diag([Fraction(rng.choice((1, -1))) for _ in range(n)])
    return c * signs


def rand_gl2(rng, span=4, den=3) -> Mat:
    while True:
        b = rand_mat(rng, 2, 2, span, den)
        if det(b) != 0:
            return b


def rand_q_element(sig: Signature, rng) -> QGroupElement:
    """Generic stabilizer-group element; det B can be anything nonzero."""
    return QGroupElement(sig, rand_gl2(rng), rand_opq(sig, rng),
                         rand_fraction(rng))


def rand_q_square(sig: Signature, rng) -> QGroupElement:
    """Stabilizer-group element with |det B| a perfect rational square,
    mixing both signs of det B."""
    m = rand_gl2(rng)
    b = m * m
    if rng.choice((True, False)):
        b = b * Mat([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]])
    return QGroupElement(sig, b, rand_opq(sig, rng), rand_fraction(rng))


def rand_q_tangent(sig: Signature, rng):
    """Tangent data (A, D, w) of a curve through the group identity."""
    return rand_mat(rng, 2, 2), rand_so_pq(sig, rng), rand_fraction(rng)


def rand_oform(sig: Signature, rng) -> Mat:
    """Random rational element of the orthogonal group of the big form."""
    n = sig.n
    neg = SoElement(sig, z=rand_fraction(rng), X=rand_mat(rng, n, 2))
    pos = SoElement(sig, U=rand_mat(rng, 2, n), w=rand_fraction(rng))
    mid = QGroupElement(sig, rand_gl2(rng), rand_opq(sig, rng)).assemble()
    return (exp_nilpotent(neg.assemble(), 3) * mid
            * exp_nilpotent(pos.assemble(), 3))


def rand_rank_one(sig: Signature, rng) -> Mat:
    u = rand_nonzero_col(rng, sig.n)
    f = rand_nonzero_col(rng, 2)
    return u * f.T


def rand_gm1(sig: Signature, rng) -> Mat:
    while True:
        x = rand_mat(rng, sig.n, 2)
        if not x.is_zero():
            return x


def rand_isotropic_rank_one(sig: Signature, rng) -> Mat:
    """Rank-one element u f^t with <u,u> = 0; needs mixed signature."""
    if sig.p < 1 or sig.q < 1:
        raise ValueError("isotropic vectors need p >= 1 and q >= 1")
    u0 = [Fraction(0)] * sig.n
    u0[0] = Fraction(1)
    u0[sig.p] = Fraction(1)
    u = rand_opq(sig, rng) * Mat.col(u0)
    f = rand_nonzero_col(rng, 2)
    return u * f.T


def rand_isotropic_plane(sig: Signature, rng) -> Mat:
    """Rank-two element whose two columns span a totally null plane, so the
    Levi form vanishes on everything it generates; needs p, q >= 2."""
    if sig.p < 2 or sig.q < 2:
        raise ValueError("a totally null plane needs p >= 2 and q >= 2")
    n, p = sig.n, sig.p
    rows = [[Fraction(0)] * 2 for _ in range(n)]
    rows[0][0] = rows[p][0] = Fraction(1)
    rows[1][1] = rows[p + 1][1] = Fraction(1)
    return rand_opq(sig, rng) * Mat(rows) * rand_gl2(rng)


def rand_mixed_gm1(sig: Signature, rng) -> Mat:
    """Mixture for classification tests: rank-one, generic, and the
    adversarial fully isotropic shapes the signature admits."""
    roll = rng.random()
    if roll < 0.35:
        return rand_rank_one(sig, rng)
    if roll < 0.55 and sig.p >= 1 and sig.q >= 1:
        return rand_isotropic_rank_one(sig, rng)
    if roll < 0.70 and sig.p >= 2 and sig.q >= 2:
        return rand_isotropic_plane(sig, rng)
    return rand_gm1(sig, rng)


def rand_sl_neg(n: int, rng) -> SlElement:
    m = 2 * n + 2
    rows = [[Fraction(0)] * m for _ in range(m)]
    for k in range(2 * n):
        rows[2 + k][0] = rand_fraction(rng)
        rows[2 + k][1] = rand_fraction(rng)
    rows[1][0] = rand_fraction(rng)
    return SlElement(n, Mat(rows))
