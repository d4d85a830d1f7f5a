"""The extension data tying the contact-graded orthogonal algebra to
sl(2n+2): the group embedding i, the linear extension map alpha, their
compatibility checks, the obstruction cochain Psi, and the codifferential
normality test.

alpha sends block data (z, X, A, D, U, w) to the (1,1,n,n)-blocked
trace-free matrix

    [ (a+d)/2   -w    U_1/2 ...          U_2/2 ...        ]
    [  z      -(a+d)/2  -(X_2^t Ipq)/2   (X_1^t Ipq)/2    ]
    [ X_1   -Ipq U_2^t   D + (d-a)/2 I   -c I             ]
    [ X_2    Ipq U_1^t   -b I            D + (a-d)/2 I    ]

and i sends a stabilizer-group element (B, C, w) to the block-diagonal
matrix with top 2x2 block (1/sqrt|beta|) * [[beta, -w*beta], [0, 1]] and
lower 2n block (1/sqrt|beta|) * [[q C, -s C], [-r C, p C]], where
B = [[p, r], [s, q]] and beta = det B. For det B > 0 the top block reduces
to diag-style [[sqrt(beta), -w sqrt(beta)], [0, 1/sqrt(beta)]]; writing it
with beta instead of |beta| is what keeps i exactly multiplicative across
orientation-reversing B (the naive square-root form fails the product rule
in the (0,1) entry whenever det B < 0 and w != 0).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import random
from fractions import Fraction
from types import MappingProxyType

from .linalg import (IntMat, Mat, exp_float, invert, max_abs, rank_kernel,
                     rat, rat_sqrt)
from .path_sl import (SlElement, entry_degrees, neg_positions, sl_bracket,
                      sl_neg_coordinates, sl_neg_degrees, sl_neg_slots, w0)
from .so_contact import (QGroupElement, Signature, SoElement,
                         basis_positions, bracket, from_coordinates,
                         int_coordinates, so_basis_degrees)
from . import samplers


def alpha(x: SoElement) -> SlElement:
    """The matrix of the module docstring, read off the integer rows of x
    (`_alpha_assembled`)."""
    return SlElement(x.sig.n, _alpha_assembled(x.sig, x.ints))


def _alpha_assembled(sig: Signature, g: IntMat) -> IntMat:
    """alpha of the algebra element with the assembled matrix g = G / L, as
    integers over 2L: an entry e of a block (z, X, A, D, U, w) is k = e·L
    over L, so e is 2k over 2L and e/2 is k. The form signs s = +-1 enter
    as negations; the redundant blocks of g are not read."""
    n = sig.n
    big, (top_g, mid_g, *rest) = g.d, g.dense
    (a, b, *u0), (c, d, *u1) = top_g[:n + 2], mid_g[:n + 2]
    z, w = rest[n][1], top_g[n + 3]
    m = 2 * n + 2
    rows = [[0] * m for _ in range(m)]
    top, mid = rows[0], rows[1]
    top[0], top[1] = a + d, -2 * w
    mid[0], mid[1] = 2 * z, -(a + d)
    for i, (s, r) in enumerate(zip(sig.signs(), rest)):
        (x0, x1), r0, r1 = r[:2], rows[2 + i], rows[2 + n + i]
        top[2 + i], top[2 + n + i] = u0[i], u1[i]
        mid[2 + i], mid[2 + n + i] = (-x1, x0) if s > 0 else (x1, -x0)
        r0[0], r1[0] = 2 * x0, 2 * x1
        r0[1], r1[1] = ((-2 * u1[i], 2 * u0[i]) if s > 0
                        else (2 * u1[i], -2 * u0[i]))
        r0[2 + n + i], r1[2 + i] = -2 * c, -2 * b
        for j, e in enumerate(r[2:n + 2]):
            r0[2 + j] = r1[2 + n + j] = 2 * e
        r0[2 + i] += d - a
        r1[2 + n + i] += a - d
    return IntMat(2 * big, m, rows)


def i_map(h: QGroupElement) -> Mat:
    """Exact image of a stabilizer-group element, defined up to sign.

    Needs |det B| to be a perfect rational square; use i_map_float for
    generic determinants.
    """
    return _i_exact(h).to_mat()


def _i_exact(h: QGroupElement) -> IntMat:
    """i(h) as integers over one denominator, the exact route behind
    `i_map`. The entries of beta, -w·beta, 1 and of B and C (the integer
    rows of h) are scaled to integers over L, the lcm of the denominators
    of beta and w·beta and of den(B)·den(C), and put in `_i_layout`; the
    factor 1/sbar = sd/sn multiplies the rows by sd and the denominator, L,
    by sn."""
    beta = h.det_b()
    try:
        sbar = rat_sqrt(abs(beta))
    except ValueError:
        raise ValueError("i_map needs |det B| to be a perfect rational "
                         "square, got %s" % beta) from None
    b, c = h.int_b, h.int_c
    top = (beta, -h.w * beta, Fraction(1))
    den = math.lcm(b.d * c.d, *(e.denominator for e in top))
    sd = sbar.denominator
    f = sd * (den // (b.d * c.d))
    rows = _i_layout(h.sig.n,
                     [e.numerator * (den // e.denominator) * sd for e in top],
                     [[f * x for x in r] for r in b.dense], c.dense, 0)
    return IntMat(den * sbar.numerator, len(rows), rows)


def i_map_float(b: Mat, c: Mat, w: float) -> Mat:
    """Float image for generic det B; no group membership is checked."""
    return Mat(_i_assemble(b.data, c.data, w, _float_root, 0.0))


def _float_root(beta):
    return math.sqrt(abs(beta))


def _i_assemble(b, c, w, root, zero):
    """The rows of i(h), on the rows of B and C and on w as they are:
    floats, jets (`_Jet`), or Fractions for an exact reference; sbar =
    root(beta) is the square root of |beta|. The entries of the top block
    and of C are divided by sbar before they enter `_i_layout`."""
    (p, r), (s, q) = b
    beta = p * q - r * s
    sbar = root(beta)
    top = (beta / sbar, -w * beta / sbar, (beta / beta) / sbar)
    return _i_layout(len(c), top, b, [[e / sbar for e in r] for r in c], zero)


def _i_layout(n, top, b, c, zero):
    """The rows of the block-diagonal matrix of the module docstring, the
    one place its layout is written: top = (t0, t1, t2) gives the top block
    [[t0, t1], [0, t2]], and B = [[p, r], [s, q]] and C, both given by
    their rows, give the lower block [[q C, -s C], [-r C, p C]]. An entry
    of C equal to zero leaves zero in place. i(h) has top = (beta,
    -w·beta, 1) / sbar and C / sbar in place of C."""
    m = 2 * n + 2
    rows = [[zero] * m for _ in range(m)]
    rows[0][0], rows[0][1], rows[1][1] = top
    (p_, r_), (s_, q_) = b
    neg_s, neg_r = -s_, -r_
    for i, ci in enumerate(c):
        for j, cij in enumerate(ci):
            if cij == zero:
                continue
            rows[2 + i][2 + j] = q_ * cij
            rows[2 + i][2 + n + j] = neg_s * cij
            rows[2 + n + i][2 + j] = neg_r * cij
            rows[2 + n + i][2 + n + j] = p_ * cij
    return rows


class _Jet:
    """The first-order jet r + eps·u (eps² = 0) of an entry of i along a
    curve through the identity, r and u integers over the one denominator
    of `_i_prime_int`. There every base point is an integer and every
    divisor and radicand has base 1, so products, quotients and the square
    root stay on integers over that denominator."""

    __slots__ = ("r", "u")

    def __init__(self, r, u):
        self.r, self.u = r, u

    def __mul__(self, other):
        return _Jet(self.r * other.r, self.r * other.u + self.u * other.r)

    def __sub__(self, other):
        return _Jet(self.r - other.r, self.u - other.u)

    def __neg__(self):
        return _Jet(-self.r, -self.u)

    def __truediv__(self, other):
        # (r + eps·u) / (1 + eps·v) = r + eps·(u - r·v)
        return _Jet(self.r, self.u - self.r * other.u)

    def __eq__(self, other):
        return self.r == other.r and self.u == other.u

    def sqrt(self):
        # sqrt(1 + eps·u) = 1 + eps·u/2; u is even, as 2L·tr A is
        return _Jet(1, self.u // 2)


def i_prime(a: Mat, d: Mat, w) -> SlElement:
    """Exact derivative at the identity of i along the curve
    (I + t*A, I + t*D, t*w), on integer jets (`_i_prime_int`). Any curve
    with these velocities gives the same result. i maps into matrices of
    determinant +-1, so its derivative at the identity is trace free."""
    return SlElement(d.rows, _i_prime_int(a, d, w))


def _i_prime_int(a: Mat, d: Mat, w) -> IntMat:
    """i_prime as integers over 2L, L the lcm of the denominators of A, D
    and w: `_i_assemble` run on the jets (`_Jet`) of B = I + eps·A,
    C = I + eps·D and eps·w, each entry's velocity scaled to an integer
    over 2L. Then beta = 1 + eps·tr A and sbar = 1 + eps·tr A/2, and the
    velocities of the result are the integers of i'."""
    ia, id_, w = IntMat.of(a), IntMat.of(d), rat(w)
    big = 2 * math.lcm(ia.d, id_.d, w.denominator)

    def jets(m):
        f = big // m.d
        return [[_Jet(int(i == j), f * x) for j, x in enumerate(r)]
                for i, r in enumerate(m.dense)]

    wj = _Jet(0, w.numerator * (big // w.denominator))
    rows = _i_assemble(jets(ia), jets(id_), wj, _Jet.sqrt, _Jet(0, 0))
    return IntMat(big, len(rows), [[e.u for e in r] for r in rows])


def i_prime_float(a: Mat, d: Mat, w, step=1e-5) -> Mat:
    """Central-difference derivative of i at the identity along one-parameter
    subgroups, the second computation path for the derivative condition.
    Runs on rows of floats (`exp_float`, `_i_assemble`)."""
    af, df = ([[float(e) for e in r] for r in m.data] for m in (a, d))
    wf = float(w)

    def at(t):
        return _i_assemble(exp_float([[e * t for e in r] for r in af]),
                           exp_float([[e * t for e in r] for r in df]),
                           wf * t, _float_root, 0.0)

    k = 1.0 / (2.0 * step)
    return Mat([[(x - y) * k for x, y in zip(hi, lo)]
                for hi, lo in zip(at(step), at(-step))])


# ---------------------------------------------------------------------------
# hat lifts


@functools.cache
def _lift_indices(sig: Signature):
    """The so_basis indices of g_- + g_1: the z, X and U coordinates."""
    return tuple(k for k, deg in enumerate(so_basis_degrees(sig))
                 if deg in (-2, -1, 1))


@functools.cache
def _so_image(sig: Signature, k: int) -> IntMat:
    """alpha of so_basis element k, built once, read off the integer rows of
    that one element (`from_coordinates`)."""
    return _alpha_assembled(sig, from_coordinates(
        sig, ((basis_positions(sig)[k], 1),)).ints)


@functools.cache
def alpha_restriction_matrix(sig: Signature) -> Mat:
    """Matrix of alpha restricted to g_- + g_1, read in the negative-slot
    coordinates of sl(2n+2). Square of size 4n+1; full rank by the pair
    condition on the induced quotient map. Built once per signature (a Mat
    is immutable) for the hat lift and the rank check, from the alpha
    images of `_so_image`."""
    im = [_so_image(sig, k) for k in _lift_indices(sig)]
    return Mat([[Fraction(e.dense[r][c], e.d) for e in im]
                for r, c in neg_positions(sig.n)])


@functools.cache
def _lift_rows(sig: Signature) -> IntMat:
    """The transposed inverse of the restriction matrix, once per signature:
    row j holds the coordinates, on the `_lift_positions`, of the hat lift
    of negative basis element j."""
    return IntMat.of(invert(alpha_restriction_matrix(sig)).T)


def _lift_positions(sig: Signature):
    """The `basis_positions` entries of g_- + g_1 (`_lift_indices`)."""
    return [basis_positions(sig)[k] for k in _lift_indices(sig)]


def _check_negative(sig: Signature, z: SlElement):
    """ValueError unless z is an element of the negative slots for sig, the
    domain of the hat lift."""
    if z.n != sig.n:
        raise ValueError("dimension mismatch between signature and element")
    if not z.in_slots(("m2", "m1E", "m1V")):
        raise ValueError("hat lift needs an element of the negative slots")


def hat_lift(sig: Signature, z: SlElement) -> SoElement:
    """The unique element of g_- + g_1 that alpha sends to z modulo the
    nonnegative slots; solves the restriction system exactly, as the one
    integer row of z's coordinates times the inverse factored once per
    signature (`_lift_rows`)."""
    _check_negative(sig, z)
    coords = sl_neg_coordinates(z) * _lift_rows(sig)
    return from_coordinates(sig, zip(_lift_positions(sig), coords.dense[0]),
                            coords.d)


# ---------------------------------------------------------------------------
# the obstruction map


def psi_gq(x: SoElement, y: SoElement) -> SlElement:
    """[alpha(x), alpha(y)] - alpha([x, y]); insensitive to shifts of either
    argument by A-, D- or w-directions, which is what makes the factorized
    map below well defined. The obstruction cochain evaluates the same
    formula in coordinates and is tested against this one. Here it is one
    integer combination of the alpha images (`_alpha_assembled`)."""
    sig = x.sig
    ax, ay = _alpha_assembled(sig, x.ints), _alpha_assembled(sig, y.ints)
    return SlElement(sig.n, IntMat.combination([
        (1, ax.commutator(ay)),
        (-1, _alpha_assembled(sig, bracket(x, y).ints))]))


def psi_alpha(sig: Signature, z1: SlElement, z2: SlElement) -> SlElement:
    return psi_gq(hat_lift(sig, z1), hat_lift(sig, z2))


def psi_from_coordinates(sig: Signature, c1: IntMat, c2: IntMat) -> IntMat:
    """psi_alpha of the two negative elements with the coordinates c1, c2,
    one row each in the negative basis, read off the obstruction cochain
    by bilinearity: the sum over its keys a < b of
    (x1_a x2_b - x1_b x2_a) Psi(e_a, e_b), for the integers x1, x2 of c1,
    c2, summed against the table's integer rows (`Cochain2.int_rows`)."""
    (x1,), (x2,) = c1.dense, c2.dense
    phi = build_psi_cochain(sig)
    d, values = phi.int_rows
    m = 2 * sig.n + 2
    acc = [[0] * m for _ in range(m)]
    for (a, b), rows in values.items():
        _add_rows(acc, rows, x1[a] * x2[b] - x1[b] * x2[a])
    return IntMat(d * c1.d * c2.d, m, acc)


def trilinear_ints(sig: Signature, x: IntMat, y: IntMat, z: IntMat):
    """psi_trilinear on the integer 2n-columns x, y, z, with the Psi value it
    brackets: (Psi(x, [y, W0]), [Psi(x, [y, W0]), z]) as IntMats. [y, W0]
    is an integer commutator, read in the negative coordinates, and Psi is
    read off the cochain (`psi_from_coordinates`)."""
    n = sig.n
    xe, ye, ze = (SlElement.from_m2(n, v) for v in (x, y, z))
    psi = psi_from_coordinates(sig, sl_neg_coordinates(xe),
                               sl_neg_coordinates(sl_bracket(ye, w0(n))))
    return psi, psi.commutator(ze.ints)


def psi_trilinear(sig: Signature, x: Mat, y: Mat, z: Mat) -> SlElement:
    """[Psi(x, [y, W0]), z] for 2n-columns x, y, z read as bottom-left
    column slots; the value lands back in that slot."""
    n = sig.n
    xe = SlElement.from_m2(n, x)
    yv = sl_bracket(SlElement.from_m2(n, y), w0(n))
    return sl_bracket(psi_alpha(sig, xe, yv), SlElement.from_m2(n, z))


def _int_column(v: IntMat):
    """The integers of a column, and their one denominator."""
    return [r[0] for r in v.dense], v.d


def symmetrized_reference(sig: Signature, x: Mat, y: Mat, z: Mat) -> Mat:
    """The Mat view of `symmetrized_ints`, on the columns read as
    IntMats."""
    return symmetrized_ints(sig, *(IntMat.of(v) for v in (x, y, z))).to_mat()


def symmetrized_ints(sig: Signature, x: IntMat, y: IntMat,
                     z: IntMat) -> IntMat:
    """Sum over all six argument orders of
    (<X1,Y2>Z1 - <X1,Y1>Z2 ; <X2,Y2>Z1 - <X1,Y2>Z2), with <,> the Ipq
    pairing, for integer 2n-columns. The sum, trilinear in their integers,
    is taken over the product of their denominators."""
    n = sig.n
    signs = sig.signs()
    (xs, dx), (ys, dy), (zs, dz) = (_int_column(v) for v in (x, y, z))
    acc = [0] * (2 * n)

    def inner(u, v):
        return sum(s * a * b for s, a, b in zip(signs, u, v))

    for xc, yc, zc in itertools.permutations((xs, ys, zs)):
        x1, x2, y1, y2 = xc[:n], xc[n:], yc[:n], yc[n:]
        c12, c11, c22 = inner(x1, y2), inner(x1, y1), inner(x2, y2)
        for i in range(n):
            acc[i] += c12 * zc[i] - c11 * zc[n + i]
            acc[n + i] += c22 * zc[i] - c12 * zc[n + i]
    return IntMat(dx * dy * dz, 1, [[e] for e in acc])


def fit_trilinear_constant(sig: Signature) -> Fraction:
    """The one global constant relating psi_trilinear to the symmetrized
    reference, fitted on the first unit triple where both are nonzero and
    checked for proportionality there."""
    n = sig.n
    units = [Mat.col([Fraction(1 if r == i else 0) for r in range(2 * n)])
             for i in range(2 * n)]
    for i in range(2 * n):
        for j in range(2 * n):
            for k in range(2 * n):
                ref = symmetrized_reference(sig, units[i], units[j], units[k])
                if ref.is_zero():
                    continue
                val = psi_trilinear(sig, units[i], units[j], units[k])
                vec = val.m2_vector()
                if vec.is_zero():
                    continue
                idx = next(r for r in range(2 * n) if ref[r, 0] != 0)
                cst = vec[idx, 0] / ref[idx, 0]
                if vec == cst * ref:
                    return cst
    raise ValueError("no nondegenerate unit triple found; the obstruction "
                     "map appears to vanish")


def r_block_path(sig: Signature, x: IntMat, y: IntMat) -> IntMat:
    """Closed-form 2n x 2n block of Psi(x, [y, W0]) built from the four
    rank-two matrices R_ab = (X_a Y_b^t + Y_a X_b^t) Ipq; the second
    computation path for the trilinear map. The block is

        [[ -R12/2 + R21 - tr(R12)/2 I,  -(R11 - tr(R11) I)/2         ],
         [ (R22 - tr(R22) I)/2,          R21/2 - R12 + tr(R12)/2 I ]],

    formed twice over on the integers of the 2n-columns x and y, over twice
    the product of their denominators."""
    n = sig.n
    signs = sig.signs()
    (xs, dx), (ys, dy) = _int_column(x), _int_column(y)
    c = (xs[:n], xs[n:])
    d = (ys[:n], ys[n:])

    def rr(a, b):
        return [[(c[a][i] * d[b][j] + d[a][i] * c[b][j]) * s
                 for j, s in enumerate(signs)] for i in range(n)]

    r11, r22, r12, r21 = rr(0, 0), rr(1, 1), rr(0, 1), rr(1, 0)
    t11, t22, t12 = (sum(r[i][i] for i in range(n)) for r in (r11, r22, r12))
    rows = []
    for i in range(n):
        row = ([2 * a - b for a, b in zip(r21[i], r12[i])]
               + [-a for a in r11[i]])
        row[i] -= t12
        row[n + i] += t11
        rows.append(row)
    for i in range(n):
        row = r22[i] + [a - 2 * b for a, b in zip(r21[i], r12[i])]
        row[i] -= t22
        row[n + i] += t12
        rows.append(row)
    return IntMat(2 * dx * dy, 2 * n, rows)


# ---------------------------------------------------------------------------
# cochains and the codifferential


class Cochain2:
    """Antisymmetric 2-cochain on the negative slots, given by its values on
    ordered basis pairs (a < b) of the negative basis. It keeps them as
    `int_rows` (d, rows): integer matrices over one denominator d, rows
    mapping each key, in sorted order, to the sparse rows of its value (as
    `IntMat.sparse`); `table` reads them as a mapping of SlElements."""

    __slots__ = ("n", "int_rows")

    def __init__(self, n: int, table: dict | None = None, ints=None):
        """From a table of SlElements, or from ints, the values as IntMats by
        sorted key."""
        table = table or {}
        for (a, b), v in table.items():
            if not a < b:
                raise ValueError("table keys must be ordered pairs a < b")
            if v.n != n:
                raise ValueError("value dimension mismatch")
        if ints is None:
            ints = {k: table[k].ints for k in sorted(table)}
        common = IntMat.aligned(list(ints.values()))
        rows = MappingProxyType({k: v.sparse for k, v in zip(ints, common)})
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "int_rows", (common[0].d if common else 1,
                                              rows))

    def __setattr__(self, name, value):
        raise AttributeError("Cochain2 is immutable")

    @property
    def table(self):
        d, rows = self.int_rows
        m = 2 * self.n + 2
        return MappingProxyType({k: SlElement(self.n, IntMat(
            d, m, sparse=r)) for k, r in rows.items()})

    def value(self, a: int, b: int) -> SlElement:
        return SlElement(self.n, self.int_value(a, b))

    def int_value(self, a: int, b: int) -> IntMat:
        """value(a, b) as an IntMat over the denominator of `int_rows`."""
        d, values = self.int_rows
        m = 2 * self.n + 2
        sign = 1 if a < b else -1
        rows = values.get((a, b) if a < b else (b, a)) or [()] * m
        return IntMat(d, m, sparse=[[(j, sign * x) for j, x in r]
                                    for r in rows])


class Cochain1:
    __slots__ = ("n", "values")

    def __init__(self, n: int, values: dict):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", dict(values))

    def __setattr__(self, name, value):
        raise AttributeError("Cochain1 is immutable")

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values.values())


@functools.cache
def _lift_ints(sig: Signature):
    """The hat lift of each negative basis element as IntMats (matrix, alpha
    image): the element with the coordinates of its row of `_lift_rows`,
    and alpha of its integer rows."""
    rows = _lift_rows(sig)
    lifts = (from_coordinates(sig, zip(_lift_positions(sig), r), rows.d).ints
             for r in rows.dense)
    return tuple((g, _alpha_assembled(sig, g)) for g in lifts)


def _psi_int(sig: Signature, x, y) -> IntMat:
    """The formula of `psi_gq` on `IntMat` pairs x, y = (matrix, alpha
    image): two integer commutators, or one when the so bracket is zero.
    The so bracket is read in coordinates by `so_contact.int_coordinates`,
    which raises when it leaves so(p+2, q+2), and its alpha is that
    combination of basis images."""
    (ma, ia), (mb, ib) = x, y
    comm = ma.commutator(mb)
    if comm.is_zero():
        return ia.commutator(ib)
    coords = int_coordinates(sig, comm.dense)
    return IntMat.combination(
        [(1, ia.commutator(ib))]
        + [(Fraction(-c, comm.d), _so_image(sig, k))
           for k, c in enumerate(coords) if c])


@functools.cache
def build_psi_cochain(sig: Signature) -> Cochain2:
    """The obstruction cochain: Psi (`_psi_int`) on every pair a < b of the
    hat lifts (`_lift_ints`), once per signature. The support, equivariance
    and normality checks all read this one table and its integer rows."""
    lifts = _lift_ints(sig)
    values = {}
    for a, la in enumerate(lifts):
        for b in range(a + 1, len(lifts)):
            value = _psi_int(sig, la, lifts[b])
            if not value.is_zero():
                values[(a, b)] = value
    return Cochain2(sig.n, ints=values)


def codifferential(phi: Cochain2) -> Cochain1:
    """Image of the 2-cochain under
    Z1 ^ Z2 (x) W  |->  Z2 (x) [Z1,W] - Z1 (x) [Z2,W] - [Z1,Z2] (x) W,
    where the Z's are the trace-form duals of the negative basis.

    Each output is one sum of integer rows over the common denominator of
    phi's values (`Cochain2.int_rows`). A dual is the unit at the
    transposed position of its basis unit, so a bracket [Z, W] is one row
    of W moved in and one column moved out (`_add_dual_bracket`), and
    [Z1, Z2] is a dual, minus a dual, or zero."""
    n = phi.n
    m = 2 * n + 2
    positions = neg_positions(n)
    index = {pos: c for c, pos in enumerate(positions)}
    outputs = collections.defaultdict(lambda: [[0] * m for _ in range(m)])
    d, values = phi.int_rows
    for (a, b), w in values.items():
        _add_dual_bracket(outputs[b], positions[a], w, 1)
        _add_dual_bracket(outputs[a], positions[b], w, -1)
        # the term -[Z_a, Z_b] (x) W: [Z_a, Z_b] is the unit at (s_a, r_b)
        # when r_a = s_b, minus the unit at (s_b, r_a) when s_a = r_b, and
        # the unit at (s, r) is the dual of the basis unit at (r, s), when
        # that is one
        (ra, sa), (rb, sb) = positions[a], positions[b]
        for hit, pos, k in ((ra == sb, (rb, sa), -1), (sa == rb, (ra, sb), 1)):
            if hit and pos in index:
                _add_rows(outputs[index[pos]], w, k)
    return Cochain1(n, {c: SlElement(n, IntMat(d, m, rows))
                        for c, rows in outputs.items() if any(map(any, rows))})


def _add_rows(acc, rows, k: int):
    """acc += k·W, for the integer matrix W given by its sparse rows."""
    if k:
        for out, row in zip(acc, rows):
            for j, x in row:
                out[j] += k * x


def _add_dual_bracket(acc, pos, rows, k: int):
    """acc += k·[Z, W], for the integer matrix W given by its sparse rows
    and Z the dual of the basis unit at pos = (r, s): Z is the unit at
    (s, r), so Z·W is row r of W moved to row s, and W·Z is column s of W
    moved to column r."""
    r, s = pos
    for i, row in enumerate(rows):
        for j, x in row:
            if i == r:
                acc[s][j] += k * x
            if j == s:
                acc[i][r] -= k * x


def is_normal(phi: Cochain2) -> bool:
    return codifferential(phi).is_zero()


def curvature_report(phi: Cochain2) -> dict:
    """Homogeneity multiset of the nonzero components plus the torsion and
    regularity flags, all exact; the degrees of a component are read off
    the positions of its nonzero integers (`Cochain2.int_rows`)."""
    n = phi.n
    degrees = sl_neg_degrees(n)
    slot_degrees = entry_degrees(n)
    homog = set()
    torsion_free = True
    nonzero = False
    for (a, b), rows in phi.int_rows[1].items():
        found = {slot_degrees[i][j] for i, r in enumerate(rows)
                 for j, x in r if x}
        nonzero = nonzero or bool(found)
        for d in found:
            homog.add(d - degrees[a] - degrees[b])
            if d < 0:
                torsion_free = False
    return {
        "homogeneities": sorted(homog),
        "torsion_free": torsion_free,
        "regular": all(h > 0 for h in homog),
        "nonzero": nonzero,
    }


# ---------------------------------------------------------------------------
# the claims of the extension records: the support report, the pair
# conditions (the one driver with its own trial loop), and the claims on
# one sample that `report._trials` runs


def psi_support_report(sig: Signature) -> dict:
    """Checks the support of Psi on every ordered basis pair: nonzero values
    may appear only on (vertical, bottom) slot pairs and must be trace-free
    lower-block matrices. Reads the obstruction cochain; by antisymmetry a
    pair and its reverse pass or fail together and the diagonal vanishes,
    so the first failing ordered pair is the first failing table key."""
    slots = sl_neg_slots(sig.n)
    nonzero_pairs = 0
    support_exact = True
    values_in_ss = True
    witness = None
    phi = build_psi_cochain(sig)
    for (a, b), rows in phi.int_rows[1].items():
        entries = [(i, j, x) for i, row in enumerate(rows)
                   for j, x in row if x]
        if not entries:
            continue
        if {slots[a], slots[b]} != {"m1V", "m2"}:
            support_exact = False
            witness = witness or (slots[a], slots[b])
            continue
        nonzero_pairs += 2
        # inside the 2n block, which lies in g0, with a zero trace there
        ok = (all(i >= 2 and j >= 2 for i, j, _ in entries)
              and sum(x for i, j, x in entries if i == j) == 0)
        if not ok:
            values_in_ss = False
            witness = witness or (slots[a], slots[b])
    return {
        "pairs_checked": len(slots) ** 2,
        "nonzero_pairs": nonzero_pairs,
        "support_exact": support_exact,
        "values_in_ss": values_in_ss,
        "witness": witness,
    }


def _i_invertible(h: QGroupElement, ih: IntMat) -> bool:
    """Whether ih = i(h) has i(h^-1) for its inverse up to sign:
    i(h)·i(h^-1) = +-I, h^-1 the group inverse. It holds since i is
    multiplicative up to sign, and it makes the product forms below the
    conjugations they stand for (det i(h) = sgn(beta)^(n+1)·det(C)^2 =
    +-1, C being in O(p, q): the top block has determinant beta/|beta|,
    the lower one beta^n det(C)^2/|beta|^n)."""
    m = ih.rows
    return (ih * _i_exact(h.inverse())).equals(
        IntMat(1, m, sparse=[[(i, 1)] for i in range(m)]), up_to_sign=True)


def check_pair_conditions(sig: Signature, trials=50, seed=0) -> dict:
    """Verifies the three compatibility conditions of the pair (i, alpha):
    conjugation equivariance on random group elements, agreement of the
    derivative of i with alpha on the stabilizer subalgebra (exact jets and
    central differences), and full rank of the restricted alpha.

    Equivariance, alpha(Ad_h x) = +-i(h) alpha(x) i(h)^-1, is checked as
    the product alpha(Ad_h x)·i(h) = +-i(h)·alpha(x), on integer rows; the
    first trial's h checks that i(h) is invertible (`_i_invertible`) and
    fails the trial when it is not."""
    rng = random.Random(seed)
    equivariance_failures = 0
    witness = None
    for trial in range(trials):
        h = samplers.rand_q_square(sig, rng)
        x = samplers.rand_so_int(sig, rng)
        ih = _i_exact(h)
        lhs = _alpha_assembled(sig, h.ad_int(x)) * ih
        rhs = ih * _alpha_assembled(sig, x)
        ok = lhs.equals(rhs, up_to_sign=True)
        if not (ok and (trial or _i_invertible(h, ih))):
            equivariance_failures += 1
            witness = witness or repr(h)
    derivative_failures = 0
    derivative_float_error = 0.0
    for pos, deg in zip(basis_positions(sig), so_basis_degrees(sig)):
        if deg in (0, 2):  # the stabilizer subalgebra's basis
            x = from_coordinates(sig, ((pos, 1),))
            if i_prime(x.A, x.D, x.w) != alpha(x):
                derivative_failures += 1
    rng_f = random.Random(seed + 1)
    for _ in range(min(trials, 20)):
        a, d, w = samplers.rand_q_tangent(sig, rng_f)
        exact = _i_prime_int(a, d, w)
        approx = i_prime_float(a, d, w)
        derivative_float_error = max(derivative_float_error, max(
            abs(x / exact.d - y) for rx, ry in zip(exact.dense, approx.data)
            for x, y in zip(rx, ry)))
    rank, _ = rank_kernel(alpha_restriction_matrix(sig))
    return {
        "trials": trials,
        "equivariance_failures": equivariance_failures,
        "derivative_failures": derivative_failures,
        "derivative_float_error": derivative_float_error,
        "restriction_rank": rank,
        "restriction_rank_expected": 4 * sig.n + 1,
        "witness": witness,
    }


def i_product_rule(h1: QGroupElement, h2: QGroupElement) -> bool:
    """Whether i(h1 h2) = +- i(h1) i(h2), for two elements with square
    |det B|, either orientation; compared on integer rows."""
    return _i_exact(h1.compose(h2)).equals(_i_exact(h1) * _i_exact(h2),
                                           up_to_sign=True)


def i_product_defect(h1: QGroupElement, h2: QGroupElement) -> float:
    """The entrywise defect of the product rule through the float path,
    for two elements with generic det B; the smaller of the two signs."""
    def image(h):  # x / d is correctly rounded, as float(Fraction) is
        b, c = (Mat([[x / m.d for x in r] for r in m.dense])
                for m in (h.int_b, h.int_c))
        return i_map_float(b, c, float(h.w))

    lhs, rhs = image(h1.compose(h2)), image(h1) * image(h2)
    return min(max_abs(lhs - rhs), max_abs(lhs + rhs))


def psi_equivariance_check(sig: Signature, h: QGroupElement, a: int,
                           b: int):
    """Whether Ad(i(h)) Psi(e_a, e_b) = Psi(Ad(h) lift_a, Ad(h) lift_b)
    for the negative basis indices a, b: True, False, or the reason when i(h)
    is not invertible. The left side is read from the obstruction cochain,
    the right side is evaluated afresh (`QGroupElement.ad_int`, `_psi_int`).
    Checked strictly, with no sign to spare, as the product
    i(h)·Psi(e_a, e_b) = Psi(Ad(h) lift_a, Ad(h) lift_b)·i(h) on integer
    rows: the same claim, as i(h) is invertible (`_i_invertible`)."""
    ih = _i_exact(h)
    if not _i_invertible(h, ih):
        return "i(h)·i(h^-1) is not +-I"
    value = build_psi_cochain(sig).int_value(a, b)
    moved = [(g, _alpha_assembled(sig, g)) for g in
             (h.ad_int(_lift_ints(sig)[k][0]) for k in (a, b))]
    lhs = ih * value
    rhs = _psi_int(sig, *moved) * ih
    return lhs.equals(rhs)
