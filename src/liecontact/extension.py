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
import math
import random
from fractions import Fraction
from types import MappingProxyType

from .linalg import (DualRat, IntMat, Mat, exp_float, invert, max_abs,
                     rank_kernel, rat_sqrt)
from .path_sl import (SlElement, _neg_positions, sl_bracket, sl_neg_basis,
                      sl_neg_coordinates, sl_neg_degrees, sl_neg_duals,
                      sl_neg_slots, w0)
from .so_contact import (QGroupElement, Signature, SoElement,
                         _basis_positions, _from_coordinates, _int_coordinates,
                         bracket, inner, so_basis, so_basis_degrees)
from . import samplers

HALF = Fraction(1, 2)


def alpha(x: SoElement) -> SlElement:
    """The matrix of the module docstring. Each entry costs at most one
    product: the form signs s = +-1 enter as negations or as the constants
    +-s/2, and an exact zero Fraction entry of X or U leaves the shared zero
    in place."""
    sig = x.sig
    n = sig.n
    a, b = x.A[0, 0], x.A[0, 1]
    c, d = x.A[1, 0], x.A[1, 1]
    m = 2 * n + 2
    zero = Fraction(0)
    rows = [[zero] * m for _ in range(m)]
    rows[0][0] = HALF * (a + d)
    rows[0][1] = -x.w
    rows[1][0] = x.z
    rows[1][1] = -HALF * (a + d)
    top, mid = rows[0], rows[1]
    minus_half, neg_b, neg_c = -HALF, -b, -c
    shift0, shift1 = HALF * (d - a), HALF * (a - d)
    for i, (s, u0, u1, (x0, x1)) in enumerate(zip(sig.signs(), *x.U.data,
                                                   x.X.data)):
        # the constants s/2 and -s/2
        sh, msh = (HALF, minus_half) if s > 0 else (minus_half, HALF)
        r0, r1 = rows[2 + i], rows[2 + n + i]
        if not _exact_zero(u0):
            top[2 + i] = HALF * u0
            r1[1] = u0 if s > 0 else -u0
        if not _exact_zero(u1):
            top[2 + n + i] = HALF * u1
            r0[1] = -u1 if s > 0 else u1
        if not _exact_zero(x1):
            mid[2 + i] = msh * x1
        if not _exact_zero(x0):
            mid[2 + n + i] = sh * x0
        r0[0] = x0
        r1[0] = x1
        r0[2 + n + i] = neg_c
        r1[2 + i] = neg_b
        for j, e in enumerate(x.D.data[i]):
            r0[2 + j] = e
            r1[2 + n + j] = e
        r0[2 + i] += shift0
        r1[2 + n + i] += shift1
    return SlElement(n, Mat(rows))


def _exact_zero(e) -> bool:
    return type(e) is Fraction and not e


def i_map(h: QGroupElement) -> Mat:
    """Exact image of a stabilizer-group element, defined up to sign.

    Needs |det B| to be a perfect rational square; use i_map_float for
    generic determinants.
    """
    beta = h.det_b()
    try:
        sbar = rat_sqrt(abs(beta))
    except ValueError:
        raise ValueError("i_map needs |det B| to be a perfect rational "
                         "square, got %s" % beta) from None
    return _i_assemble(h.sig.n, h.B, h.C, h.w, beta, sbar, Fraction(0))


def i_map_float(b: Mat, c: Mat, w: float) -> Mat:
    """Float image for generic det B; no group membership is checked."""
    beta = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    sbar = math.sqrt(abs(beta))
    n = c.rows
    return _i_assemble(n, b, c, w, beta, sbar, 0.0)


def _i_assemble(n, b, c, w, beta, sbar, zero):
    m = 2 * n + 2
    rows = [[zero] * m for _ in range(m)]
    rows[0][0] = beta / sbar
    rows[0][1] = -w * beta / sbar
    rows[1][1] = (beta / beta) / sbar
    p_, r_ = b[0, 0], b[0, 1]
    s_, q_ = b[1, 0], b[1, 1]
    for i in range(n):
        for j in range(n):
            cij = c[i, j] / sbar
            if cij == zero:
                continue
            rows[2 + i][2 + j] = q_ * cij
            rows[2 + i][2 + n + j] = -s_ * cij
            rows[2 + n + i][2 + j] = -r_ * cij
            rows[2 + n + i][2 + n + j] = p_ * cij
    return Mat(rows)


def i_prime(sig: Signature, a: Mat, d: Mat, w) -> Mat:
    """Exact derivative at the identity of i along the curve
    (I + t*A, I + t*D, t*w), computed by running the assembly of i_map on
    first-order jets. Any curve with these velocities gives the same
    result."""

    def jet(m):
        return (Mat.identity(m.rows, DualRat(1))
                + m.map(lambda e: DualRat(0, e)))

    b = jet(a)
    beta = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    jets = _i_assemble(sig.n, b, jet(d), DualRat(0, w), beta,
                       abs(beta).sqrt(), DualRat(0))
    return jets.map(lambda e: e.du)


def i_prime_float(sig: Signature, a: Mat, d: Mat, w, step=1e-5) -> Mat:
    """Central-difference derivative of i at the identity along one-parameter
    subgroups, the second computation path for the derivative condition."""
    af = a.map(float)
    df = d.map(float)
    wf = float(w)

    def at(t):
        return i_map_float(exp_float(af * t), exp_float(df * t), wf * t)

    hi = at(step)
    lo = at(-step)
    return (hi - lo) * (1.0 / (2.0 * step))


# ---------------------------------------------------------------------------
# hat lifts


def _lift_positions(sig: Signature):
    """The `so_contact._basis_positions` entries of g_- + g_1 (the z, X and
    U coordinates), in the global basis order."""
    return [pos for pos, deg in zip(_basis_positions(sig),
                                    so_basis_degrees(sig))
            if deg in (-2, -1, 1)]


def negative_part_basis(sig: Signature):
    """Basis of g_- + g_1 (z, X, U slots) in the global basis order."""
    one = Fraction(1)
    return [_from_coordinates(sig, ((pos, one),))
            for pos in _lift_positions(sig)]


def alpha_restriction_matrix(sig: Signature) -> Mat:
    """Matrix of alpha restricted to g_- + g_1, read in the negative-slot
    coordinates of sl(2n+2). Square of size 4n+1; full rank by the pair
    condition on the induced quotient map."""
    cols = [sl_neg_coordinates(alpha(b)) for b in negative_part_basis(sig)]
    return Mat(cols).T


@functools.cache
def _lift_inverse(sig: Signature) -> Mat:
    return invert(alpha_restriction_matrix(sig))


def hat_lift(sig: Signature, z: SlElement) -> SoElement:
    """The unique element of g_- + g_1 that alpha sends to z modulo the
    nonnegative slots; solves the restriction system exactly (the inverse is
    factored once per signature and reused)."""
    if z.n != sig.n:
        raise ValueError("dimension mismatch between signature and element")
    if not z.in_slots(("m2", "m1E", "m1V")):
        raise ValueError("hat lift needs an element of the negative slots")
    coords = _lift_inverse(sig) * Mat.col(sl_neg_coordinates(z))
    return _from_coordinates(sig, zip(_lift_positions(sig), coords.column(0)))


# ---------------------------------------------------------------------------
# the obstruction map


def psi_gq(x: SoElement, y: SoElement) -> SlElement:
    """[alpha(x), alpha(y)] - alpha([x, y]); insensitive to shifts of either
    argument by A-, D- or w-directions, which is what makes the factorized
    map below well defined. The obstruction cochain evaluates the same
    formula on integer rows and is tested against this one."""
    return sl_bracket(alpha(x), alpha(y)) - alpha(bracket(x, y))


def psi_alpha(sig: Signature, z1: SlElement, z2: SlElement) -> SlElement:
    return psi_gq(hat_lift(sig, z1), hat_lift(sig, z2))


def psi_trilinear(sig: Signature, x: Mat, y: Mat, z: Mat) -> SlElement:
    """[Psi(x, [y, W0]), z] for 2n-columns x, y, z read as bottom-left
    column slots; the value lands back in that slot."""
    n = sig.n
    xe = SlElement.from_m2(n, x)
    yv = sl_bracket(SlElement.from_m2(n, y), w0(n))
    return sl_bracket(psi_alpha(sig, xe, yv), SlElement.from_m2(n, z))


def _halves(v: Mat):
    n = v.rows // 2
    return ([v[i, 0] for i in range(n)], [v[n + i, 0] for i in range(n)])


def symmetrized_reference(sig: Signature, x: Mat, y: Mat, z: Mat) -> Mat:
    """Sum over all six argument orders of
    (<X1,Y2>Z1 - <X1,Y1>Z2 ; <X2,Y2>Z1 - <X1,Y2>Z2)."""
    n = sig.n
    acc = [Fraction(0)] * (2 * n)

    def add(xc, yc, zc):
        x1, x2 = _halves(xc)
        y1, y2 = _halves(yc)
        z1, z2 = _halves(zc)
        c12 = inner(sig, x1, y2)
        c11 = inner(sig, x1, y1)
        c22 = inner(sig, x2, y2)
        for i in range(n):
            acc[i] += c12 * z1[i] - c11 * z2[i]
            acc[n + i] += c22 * z1[i] - c12 * z2[i]

    add(x, y, z)
    add(x, z, y)
    add(y, x, z)
    add(y, z, x)
    add(z, x, y)
    add(z, y, x)
    return Mat.col(acc)


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


def r_block_path(sig: Signature, x: Mat, y: Mat) -> Mat:
    """Closed-form 2n x 2n block of Psi(x, [y, W0]) built from the four
    rank-two matrices R_ab = (X_a Y_b^t + Y_a X_b^t) Ipq; the second
    computation path for the trilinear map."""
    n = sig.n
    ipq = sig.ipq_perm()
    x1, x2 = _halves(x)
    y1, y2 = _halves(y)
    c = [Mat.col(x1), Mat.col(x2)]
    d = [Mat.col(y1), Mat.col(y2)]

    def rr(i, j):
        return ipq.right(c[i] * d[j].T + d[i] * c[j].T)

    r11 = rr(0, 0)
    r22 = rr(1, 1)
    r12 = rr(0, 1)
    r21 = rr(1, 0)
    tr12 = r12.trace()
    eye = Mat.identity(n)
    b11 = -HALF * r12 + r21 - HALF * tr12 * eye
    b12 = -HALF * (r11 - r11.trace() * eye)
    b21 = HALF * (r22 - r22.trace() * eye)
    b22 = HALF * r21 - r12 + HALF * tr12 * eye
    return Mat.block([[b11, b12], [b21, b22]])


# ---------------------------------------------------------------------------
# cochains and the codifferential


class Cochain2:
    """Antisymmetric 2-cochain on the negative slots, stored as a read-only
    table of values on ordered basis pairs (a < b) in the sl_neg_basis
    order, keys sorted lexicographically."""

    __slots__ = ("n", "table")

    def __init__(self, n: int, table: dict):
        for (a, b), v in table.items():
            if not a < b:
                raise ValueError("table keys must be ordered pairs a < b")
            if v.n != n:
                raise ValueError("value dimension mismatch")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", MappingProxyType(
            {k: table[k] for k in sorted(table)}))

    def __setattr__(self, name, value):
        raise AttributeError("Cochain2 is immutable")

    def value(self, a: int, b: int) -> SlElement:
        if a == b:
            return SlElement.zero(self.n)
        if a < b:
            return self.table.get((a, b), SlElement.zero(self.n))
        return -self.table.get((b, a), SlElement.zero(self.n))


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
def _basis_lifts(sig: Signature):
    """The hat lifts of the sl_neg_basis, in its order, built once per
    signature for the cochain and the equivariance check."""
    return tuple(hat_lift(sig, zb) for zb in sl_neg_basis(sig.n))


@functools.cache
def build_psi_cochain(sig: Signature) -> Cochain2:
    """The obstruction cochain: Psi on every basis pair a < b, evaluated
    once per signature. The support, equivariance and normality checks all
    read this one cached table.

    The formula of `psi_gq` runs here on `IntMat`s, each table over one
    denominator. Both brackets of a pair are integer commutators; the so
    bracket is read in coordinates by `so_contact._int_coordinates`, which
    raises when it leaves so(p+2, q+2), and alpha of it is the same
    combination of the alpha images of the so_basis, alpha being linear."""
    lifts = _basis_lifts(sig)
    images = IntMat.common([alpha(x).mat for x in lifts])
    mats = IntMat.common([x.assemble() for x in lifts])
    basis_images = IntMat.common([alpha(e).mat for e in so_basis(sig)])
    table = {}
    for a in range(len(lifts)):
        for b in range(a + 1, len(lifts)):
            comm = mats[a].commutator(mats[b])
            coords = _int_coordinates(sig, comm.dense)
            value = IntMat.combination(
                [(1, images[a].commutator(images[b]))]
                + [(Fraction(-c, comm.d), basis_images[k])
                   for k, c in enumerate(coords) if c])
            if not value.is_zero():
                table[(a, b)] = SlElement(sig.n, value.to_mat())
    return Cochain2(sig.n, table)


def codifferential(phi: Cochain2) -> Cochain1:
    """Image of the 2-cochain under
    Z1 ^ Z2 (x) W  |->  Z2 (x) [Z1,W] - Z1 (x) [Z2,W] - [Z1,Z2] (x) W,
    where the Z's are the trace-form duals of the negative basis.

    Each output is one combination of `IntMat`s, the values of phi and
    their brackets with the duals, which are formed only when it is
    summed. TypeError when a value has an entry that is not rational."""
    n = phi.n
    duals = IntMat.common([z.mat for z in sl_neg_duals(n)])
    values = IntMat.common([v.mat for v in phi.table.values()])
    terms = collections.defaultdict(list)  # (k, x, y): k·[x, y], or k·x
    for (a, b), w in zip(phi.table, values):
        # -[Z_b, W] = [W, Z_b]
        terms[b].append((1, duals[a], w))
        terms[a].append((1, w, duals[b]))
        pm = duals[a].commutator(duals[b]).dense
        for c, (r, s) in enumerate(_neg_positions(n)):
            coeff = pm[s][r]
            if coeff:
                terms[c].append((-coeff, w, None))
    outputs = {c: IntMat.combination([(k, x if y is None else
                                        x.commutator(y)) for k, x, y in t])
               for c, t in terms.items()}
    return Cochain1(n, {c: SlElement(n, v.to_mat())
                        for c, v in outputs.items() if not v.is_zero()})


def is_normal(phi: Cochain2) -> bool:
    return codifferential(phi).is_zero()


def curvature_report(phi: Cochain2) -> dict:
    """Homogeneity multiset of the nonzero components plus the torsion and
    regularity flags, all exact."""
    n = phi.n
    degrees = sl_neg_degrees(n)
    homog = set()
    torsion_free = True
    nonzero = False
    for (a, b), wv in phi.table.items():
        if wv.is_zero():
            continue
        nonzero = True
        for d in wv.degrees():
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
# randomized verification drivers (consumed by the CLI suites and tests)


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
    for (a, b), v in build_psi_cochain(sig).table.items():
        if v.is_zero():
            continue
        if {slots[a], slots[b]} != {"m1V", "m2"}:
            support_exact = False
            witness = witness or (slots[a], slots[b])
            continue
        nonzero_pairs += 2
        ok = (v.in_slots(("g0",)) and v.mat[0, 0] == 0
              and v.mat[1, 1] == 0 and v.ss_block().trace() == 0)
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


def q_tangent_basis(sig: Signature):
    """Basis directions (A, D, w) of the stabilizer subalgebra: the degree
    0 and degree 2 elements of the so_basis."""
    return [(b.A, b.D, b.w)
            for b, deg in zip(so_basis(sig), so_basis_degrees(sig))
            if deg in (0, 2)]


def check_pair_conditions(sig: Signature, trials=50, seed=0) -> dict:
    """Verifies the three compatibility conditions of the pair (i, alpha):
    conjugation equivariance on random group elements, agreement of the
    derivative of i with alpha on the stabilizer subalgebra (exact jets and
    central differences), and full rank of the restricted alpha."""
    rng = random.Random(seed)
    equivariance_failures = 0
    witness = None
    for _ in range(trials):
        h = samplers.rand_q_square(sig, rng)
        x = samplers.rand_so_element(sig, rng)
        ih = i_map(h)
        lhs = alpha(h.ad_so(x)).mat
        rhs = ih * alpha(x).mat * invert(ih)
        if lhs != rhs and lhs != -rhs:
            equivariance_failures += 1
            witness = witness or repr(h)
    derivative_failures = 0
    derivative_float_error = 0.0
    for a, d, w in q_tangent_basis(sig):
        exact = i_prime(sig, a, d, w)
        target = alpha(SoElement(sig, A=a, D=d, w=w)).mat
        if exact != target:
            derivative_failures += 1
    rng_f = random.Random(seed + 1)
    for _ in range(min(trials, 20)):
        a, d, w = samplers.rand_q_tangent(sig, rng_f)
        exact = i_prime(sig, a, d, w).map(float)
        approx = i_prime_float(sig, a, d, w)
        derivative_float_error = max(derivative_float_error,
                                     max_abs(exact - approx))
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


def i_homomorphism_exact(sig: Signature, trials=100, seed=0):
    """Failures of i(h1 h2) = +- i(h1) i(h2) on exact square-determinant
    pairs, both orientations of det B included."""
    rng = random.Random(seed)
    failures = 0
    witness = None
    for _ in range(trials):
        h1 = samplers.rand_q_square(sig, rng)
        h2 = samplers.rand_q_square(sig, rng)
        lhs = i_map(h1.compose(h2))
        rhs = i_map(h1) * i_map(h2)
        if lhs != rhs and lhs != -rhs:
            failures += 1
            witness = witness or (repr(h1), repr(h2))
    return failures, witness


def i_homomorphism_float(sig: Signature, trials=100, seed=0) -> float:
    """Max entrywise defect of the product rule on generic pairs through
    the float path."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        h1 = samplers.rand_q_element(sig, rng)
        h2 = samplers.rand_q_element(sig, rng)
        hc = h1.compose(h2)
        lhs = i_map_float(hc.B.map(float), hc.C.map(float), float(hc.w))
        rhs = (i_map_float(h1.B.map(float), h1.C.map(float), float(h1.w))
               * i_map_float(h2.B.map(float), h2.C.map(float), float(h2.w)))
        worst = max(worst, min(max_abs(lhs - rhs), max_abs(lhs + rhs)))
    return worst


def psi_equivariance_check(sig: Signature, trials=25, seed=0) -> int:
    """Failures of Ad(i(h)) Psi(z1, z2) = Psi(Ad(h) lift1, Ad(h) lift2) on
    random group elements and basis slot pairs; the left side is read from
    the obstruction cochain, the right side is evaluated afresh."""
    rng = random.Random(seed)
    phi = build_psi_cochain(sig)
    lifts = _basis_lifts(sig)
    slots = sl_neg_slots(sig.n)
    vert = [k for k, s in enumerate(slots) if s == "m1V"]
    bottom = [k for k, s in enumerate(slots) if s == "m2"]
    failures = 0
    for _ in range(trials):
        h = samplers.rand_q_square(sig, rng)
        a = rng.choice(vert)
        b = rng.choice(bottom)
        ih = i_map(h)
        lhs = ih * phi.value(a, b).mat * invert(ih)
        rhs = psi_gq(h.ad_so(lifts[a]), h.ad_so(lifts[b])).mat
        if lhs != rhs:
            failures += 1
    return failures
