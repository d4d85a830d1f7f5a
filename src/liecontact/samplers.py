"""Seeded rational samplers shared by the property tests and the CLI suites.

Every sampler takes an explicit random.Random and returns exact rational
data, so a fixed seed reproduces the same samples everywhere. Orthogonal
matrices come from Cayley transforms of so(p,q) elements times sign flips,
which reaches all components of O(p,q); `rand_opq` solves the transform
by one integer elimination, flips the signs on its integer rows and
returns them as an `IntMat`, and the product with Ipq in `rand_so_pq` is
a signed permutation (`linalg.SignedPerm`), so neither multiplies
Fraction matrices. The isotropic samplers take their null directions as
sums of two columns of a `rand_opq` draw.

Elements of the orthogonal group of the big form S come from its big cell,
g = exp(N-)·diag(B, C, B^-T)·exp(N+), with N- the assembled (z, X) and N+
the assembled (U, w) of `so_contact`. Each factor is exactly in the group.
`rand_oform` builds the three factors from their blocks as
`linalg.IntMat`s: N-² and N+² are zero outside the corner block, so
exp(N-) has the corner zJ + ½XᵀIpqX and exp(N+) the corner
wJ + ½UIpqUᵀ, and diag(B, C, B^-T) is the stabilizer-group element
(B, C, 0) (`QGroupElement.int_pair`). g is their product, returned as
the `IntMat` it is. So every group sample reaches its claim as the integer
rows it was built on: C, g, and the B and C of a group element. Every
other exact matrix drawn here, the g_{-1} directions and g~_{-2} columns
included, is an `IntMat` too, built from the ratios it draws
(`_ratio_rows`) in the order of the Fraction draw.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import IntMat, bareiss, det
from .so_contact import QGroupElement, Signature, assembled_rows


def _rand_ratio(rng, span=6, den=4):
    """A numerator in [-span, span] and a denominator in [1, den], as ints:
    the one draw behind every rational sampled here."""
    return rng.randint(-span, span), rng.randint(1, den)


def _ratio_rows(ratios):
    """(rows, d): dense integer rows over one denominator d, the lcm of the
    denominators, for rows of (numerator, denominator) pairs."""
    d = math.lcm(*(q for r in ratios for _, q in r))
    return [[x * (d // q) for x, q in r] for r in ratios], d


def rand_fraction(rng) -> Fraction:
    return Fraction(*_rand_ratio(rng))


def rand_nonzero_fraction(rng) -> Fraction:
    while True:
        x = rand_fraction(rng)
        if x != 0:
            return x


def rand_mat(rng, rows, cols, *width) -> IntMat:
    """A rows x cols matrix of `_rand_ratio(rng, *width)` draws, row by row."""
    ints, d = _ratio_rows([[_rand_ratio(rng, *width) for _ in range(cols)]
                           for _ in range(rows)])
    return IntMat(d, cols, ints)


def rand_col(rng, n) -> IntMat:
    return rand_mat(rng, n, 1)


def rand_nonzero_col(rng, n) -> IntMat:
    while True:
        v = rand_col(rng, n)
        if not v.is_zero():
            return v


def _antisym_ratio_rows(rng, n):
    """(rows, d): the antisymmetric matrix `rand_antisym` draws, with the
    same draws, as dense integer rows over one denominator d."""
    rows = [[(0, 1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x, q = _rand_ratio(rng, 3, 3)
            rows[i][j], rows[j][i] = (x, q), (-x, q)
    return _ratio_rows(rows)


def rand_antisym(rng, n) -> IntMat:
    rows, d = _antisym_ratio_rows(rng, n)
    return IntMat(d, n, dense=rows)


def rand_so_pq(sig: Signature, rng) -> IntMat:
    """Random element of so(p,q): Ipq times an antisymmetric matrix."""
    return sig.ipq_perm().left(rand_antisym(rng, sig.n))


def rand_so_int(sig: Signature, rng) -> IntMat:
    """The assembled matrix of a random so(p+2, q+2) element as an IntMat:
    z, X, A, D (`rand_so_pq`), U and w drawn in this order, as ratios over
    their lcm in the one layout (`so_contact.assembled_rows`)."""
    n = sig.n
    z = [[_rand_ratio(rng)]]
    x = [[_rand_ratio(rng) for _ in range(2)] for _ in range(n)]
    a = [[_rand_ratio(rng) for _ in range(2)] for _ in range(2)]
    ad, dd = _antisym_ratio_rows(rng, n)
    d = [[(s * e, dd) for e in r] for s, r in zip(sig.signs(), ad)]
    u = [[_rand_ratio(rng) for _ in range(n)] for _ in range(2)]
    w = [[_rand_ratio(rng)]]
    big = math.lcm(*(q for m in (z, x, a, d, u, w) for r in m for _, q in r))
    ((z,),), x, a, d, u, ((w,),) = ([[p * (big // q) for p, q in r]
                                     for r in m] for m in (z, x, a, d, u, w))
    return IntMat(big, n + 4, assembled_rows(sig, z, x, a, d, u, w))


def rand_opq(sig: Signature, rng) -> IntMat:
    """Random element of O(p,q), in any of its components, as an IntMat:
    the Cayley transform C = (I - D)^-1 (I + D) of a `rand_so_pq` draw D,
    drawn again while I - D is singular, times a diagonal of random signs.
    With D = Di / d, C solves (d·I - Di)·C = d·I + Di, and one integer
    elimination of [d·I - Di | d·I + Di] gives it; D is never built as a
    Fraction matrix."""
    n = sig.n
    while True:
        a, d = _antisym_ratio_rows(rng, n)
        rows = []
        for i, (s, r) in enumerate(zip(sig.signs(), a)):
            di = [s * x for x in r]  # row i of Di = Ipq·A
            rows.append([-x for x in di] + di)
            rows[i][i] += d
            rows[i][n + i] += d
        rows, pivots, den, _ = bareiss(rows)
        if pivots[:n] == list(range(n)):
            break
    signs = [rng.choice((1, -1)) for _ in range(n)]  # C times diag(signs)
    rows = [[x if s > 0 else -x for x, s in zip(r[n:], signs)] for r in rows]
    return IntMat(den, n, dense=rows)


def rand_gl2(rng) -> IntMat:
    while True:
        b = rand_mat(rng, 2, 2, 4, 3)
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
    if rng.choice((True, False)):  # B times diag(1, -1)
        b = IntMat(b.d, 2, [[x, -y] for x, y in b.dense])
    return QGroupElement(sig, b, rand_opq(sig, rng), rand_fraction(rng))


def rand_q_tangent(sig: Signature, rng):
    """Tangent data (A, D, w) of a curve through the group identity."""
    return rand_mat(rng, 2, 2), rand_so_pq(sig, rng), rand_fraction(rng)


def _corner(signs, v, dv, z):
    """(k, d): the corner block zJ + ½·(v_a^T Ipq v_b)_ab of exp(N-) or
    exp(N+) as 2x2 integers over d = lcm(zd, 2·dv²), for the two vectors
    v / dv (the columns of X, or the rows of U) and z = (zn, zd), zn / zd."""
    zn, zd = z
    d = math.lcm(zd, 2 * dv * dv)
    half, fz = d // (2 * dv * dv), zn * (d // zd)
    k = [[half * sum(s * x * y for s, x, y in zip(signs, va, vb)) for vb in v]
         for va in v]
    k[0][1] += fz
    k[1][0] -= fz
    return k, d


def rand_oform(sig: Signature, rng) -> IntMat:
    """Random rational element of the orthogonal group of the big form,
    g = exp(N-)·diag(B, C, B^-T)·exp(N+), built on integer rows (module
    docstring). B and C are checked as for a `QGroupElement`."""
    n = sig.n
    lo = n + 2  # first row and column of the last block band
    signs = sig.signs()
    z = _rand_ratio(rng)
    x, dx = _ratio_rows([[_rand_ratio(rng) for _ in range(2)]
                         for _ in range(n)])
    u, du = _ratio_rows([[_rand_ratio(rng) for _ in range(n)]
                         for _ in range(2)])
    w = _rand_ratio(rng)
    # diag(B, C, B^-T) is the stabilizer-group element (B, C, 0), which
    # checks B invertible and C in O(p, q), or raises ValueError
    middle = QGroupElement(sig, rand_gl2(rng), rand_opq(sig, rng))

    # exp(N-) = [[I, 0, 0], [X, I, 0], [zJ + ½XᵀIpqX, XᵀIpq, I]] over d1
    xt = list(zip(*x))  # the two columns of X
    corner, d1 = _corner(signs, xt, dx, z)
    f = d1 // dx
    lower = [[(0, d1)], [(1, d1)]]
    lower += [[(0, f * r[0]), (1, f * r[1]), (2 + i, d1)]
              for i, r in enumerate(x)]
    lower += [[(0, k[0]), (1, k[1]),
               *((2 + i, f * s * e) for i, s, e in zip(range(n), signs, col)),
               (lo + a, d1)] for a, (k, col) in enumerate(zip(corner, xt))]

    # exp(N+) = [[I, U, wJ + ½UIpqUᵀ], [0, I, IpqUᵀ], [0, 0, I]] over d3
    corner, d3 = _corner(signs, u, du, w)
    f = d3 // du
    upper = [[(a, d3), *((2 + j, f * e) for j, e in enumerate(r)),
              (lo, k[0]), (lo + 1, k[1])]
             for a, (r, k) in enumerate(zip(u, corner))]
    upper += [[(2 + i, d3), (lo, f * s * u[0][i]), (lo + 1, f * s * u[1][i])]
              for i, s in enumerate(signs)]
    upper += [[(lo, d3)], [(lo + 1, d3)]]

    return (IntMat(d1, n + 4, sparse=lower) * middle.int_pair()[0]
            * IntMat(d3, n + 4, sparse=upper))


def _outer(u: IntMat, f: IntMat) -> IntMat:
    """u·f^t for two integer columns, over the product of their
    denominators."""
    return IntMat(u.d * f.d, f.rows, [[x * y for (y,) in f.dense]
                                      for (x,) in u.dense])


def rand_rank_one(sig: Signature, rng) -> IntMat:
    u = rand_nonzero_col(rng, sig.n)
    f = rand_nonzero_col(rng, 2)
    return _outer(u, f)


def rand_gm1(sig: Signature, rng) -> IntMat:
    while True:
        x = rand_mat(rng, sig.n, 2)
        if not x.is_zero():
            return x


def rand_isotropic_rank_one(sig: Signature, rng) -> IntMat:
    """Rank-one element u f^t with <u,u> = 0; needs mixed signature."""
    if sig.p < 1 or sig.q < 1:
        raise ValueError("isotropic vectors need p >= 1 and q >= 1")
    p, c = sig.p, rand_opq(sig, rng)
    # C·(e_0 + e_p), the sum of two columns of C
    u = IntMat(c.d, 1, [[r[0] + r[p]] for r in c.dense])
    return _outer(u, rand_nonzero_col(rng, 2))


def rand_isotropic_plane(sig: Signature, rng) -> IntMat:
    """Rank-two element whose two columns span a totally null plane, so the
    Levi form vanishes on everything it generates; needs p, q >= 2."""
    if sig.p < 2 or sig.q < 2:
        raise ValueError("a totally null plane needs p >= 2 and q >= 2")
    p, c = sig.p, rand_opq(sig, rng)
    # C·[e_0 + e_p, e_1 + e_(p+1)], two sums of two columns of C
    plane = IntMat(c.d, 2, [[r[0] + r[p], r[1] + r[p + 1]] for r in c.dense])
    return plane * rand_gl2(rng)


def rand_mixed_gm1(sig: Signature, rng) -> IntMat:
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

