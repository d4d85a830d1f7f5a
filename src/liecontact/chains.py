"""The homogeneous model: points as isotropic 2-planes, the exact degree-one
chain curves through them, transversality of their velocity classes, the
symmetric cubic tensor on the contact directions, the rank-one test it
induces, and cone reconstruction plus trajectory export."""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .extension import psi_trilinear
from .linalg import IntMat, Mat, exp_nilpotent, rank_kernel, rat, solve_linear
from .so_contact import (Signature, SoElement, _ambient_inverse, bracket_gm1,
                         segre_rank)
from .split_quat import QuatStructureOnH, stack_columns, unstack_columns


class ModelPoint:
    """An isotropic 2-plane in R^(n+4), stored as an (n+4) x 2 span matrix.

    Two points are equal exactly when their column spans agree."""

    __slots__ = ("sig", "span")

    def __init__(self, sig: Signature, span: Mat):
        if span.rows != sig.n + 4 or span.cols != 2:
            raise ValueError("span must be an (n+4) x 2 matrix")
        rank, _ = rank_kernel(span)
        if rank != 2:
            raise ValueError("span must have rank 2")
        if not IntMat.of(span).gram_equals(sig.form_s_perm()):
            raise ValueError("span must be isotropic for the ambient form")
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "span", span)

    def __setattr__(self, name, value):
        raise AttributeError("ModelPoint is immutable")

    def __eq__(self, other):
        if not isinstance(other, ModelPoint) or self.sig != other.sig:
            return NotImplemented
        joint = Mat.block([[self.span, other.span]])
        rank, _ = rank_kernel(joint)
        return rank == 2

    def __repr__(self):
        return "ModelPoint(%r, %r)" % (self.sig, self.span)


def origin(sig: Signature) -> ModelPoint:
    """The plane spanned by the first two standard basis vectors."""
    rows = [[Fraction(0)] * 2 for _ in range(sig.n + 4)]
    rows[0][0] = Fraction(1)
    rows[1][1] = Fraction(1)
    return ModelPoint(sig, Mat(rows))


def _check_ambient(sig: Signature, g: Mat):
    s = sig.form_s_perm()
    if not IntMat.of(g).gram_equals(s, s):
        raise ValueError("the acting matrix must preserve the ambient form")


def act(sig: Signature, g: Mat, pt: ModelPoint) -> ModelPoint:
    _check_ambient(sig, g)
    return ModelPoint(sig, g * pt.span)


@functools.cache
def chain_matrix(sig: Signature) -> Mat:
    """Assembled matrix E of the distinguished nilpotent generator; E^2 = 0,
    so its exponential is exactly I + tE. Built and checked once per
    signature."""
    e = SoElement.generator_e(sig).assemble()
    if not (e * e).is_zero():
        raise ValueError("the chain generator must square to zero")
    return e


class ChainCurve:
    """The exact chain t -> g (I + tE) . origin.

    The frame g (I + tE) = g + t gE is affine in t, so every value is an
    exact rational point of the model; gE is formed once per curve."""

    __slots__ = ("sig", "g", "vel")

    def __init__(self, sig: Signature, g: Mat | None = None):
        if g is None:
            g = Mat.identity(sig.n + 4)
        _check_ambient(sig, g)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "vel", g * chain_matrix(sig))

    def __setattr__(self, name, value):
        raise AttributeError("ChainCurve is immutable")

    def frame(self, t) -> Mat:
        return self.g + rat(t) * self.vel

    def at(self, t) -> ModelPoint:
        """The frame applied to the origin [e1 e2]: its first two columns,
        g[:, :2] + t·vel[:, :2]. The other columns are not formed."""
        rows = self.g.rows
        return ModelPoint(self.sig, self.g.submat(0, rows, 0, 2)
                          + rat(t) * self.vel.submat(0, rows, 0, 2))

    def velocity_class(self, t) -> SoElement:
        """Velocity of the curve of frames pulled back to the identity; its
        grade -2 part is what transversality reads. The frame preserves the
        ambient form, so it is inverted in closed form."""
        pullback = _ambient_inverse(self.sig, self.frame(t)) * self.vel
        return SoElement.from_matrix(self.sig, pullback)


def chain_eval(sig: Signature, t, g: Mat | None = None) -> ModelPoint:
    return ChainCurve(sig, g).at(t)


def chain_transversality(sig: Signature, t, g: Mat | None = None) -> bool:
    """Whether the chain's velocity class at parameter t is exactly the
    generator e, which leaves the contact distribution (nonzero bottom
    grade); computed, not assumed."""
    return ChainCurve(sig, g).velocity_class(t) == SoElement.generator_e(sig)


def flow_transversality(sig: Signature, x: SoElement, t) -> bool:
    """Same test for the flow curve exp(tX) . origin; X must assemble to a
    nilpotent matrix (every negative-slot element does). Contact directions
    X in the middle slot come out non-transverse."""
    m = x.assemble()
    frame = exp_nilpotent(rat(t) * m, 4)  # exp of an element of so(S)
    pullback = _ambient_inverse(sig, frame) * (m * frame)
    return SoElement.from_matrix(sig, pullback).z != 0


# ---------------------------------------------------------------------------
# the cubic tensor on the contact directions


class STensorEval:
    """Evaluation data for the cubic tensor at the model origin: a
    split-quaternionic structure on the contact directions plus a nonzero
    overall scale. Robustness tests swap in conjugated structures and
    rescaled copies; classifications must not move."""

    __slots__ = ("sig", "structure", "scale")

    def __init__(self, sig: Signature, structure: QuatStructureOnH | None = None,
                 scale=1):
        if structure is None:
            structure = QuatStructureOnH.standard(sig)
        if structure.sig != sig:
            raise ValueError("structure signature mismatch")
        scale = rat(scale)
        if scale == 0:
            raise ValueError("scale must be nonzero")
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "scale", scale)

    def __setattr__(self, name, value):
        raise AttributeError("STensorEval is immutable")

    @classmethod
    def standard(cls, sig: Signature):
        return cls(sig)

    def rescaled(self, c) -> "STensorEval":
        return STensorEval(self.sig, self.structure, self.scale * rat(c))

    def basis_changed(self, g: Mat) -> "STensorEval":
        return STensorEval(self.sig, self.structure.conjugated(g), self.scale)


def _pairing(signs, a, b) -> int:
    """bracket_gm1 of two n x 2 matrices given as sparse integer rows,
    without their denominators: sum_i s_i (a_i0 b_i1 - a_i1 b_i0)."""
    acc = 0
    for s, ra, rb in zip(signs, a, b):
        for j, x in ra:
            for k, y in rb:
                if j != k:
                    acc += s * x * y if j == 0 else -s * x * y
    return acc


def s_tensor(ev: STensorEval, xi: Mat, eta: Mat, zeta: Mat) -> Mat:
    """Cyclic sum of (a, b, c) -> L(a, Ib) Ic + L(a, Jb) Jc - L(a, Kb) Kc,
    times the stored scale, where L is the bottom-grade bracket. Totally
    symmetric, with values back among the contact directions.

    The arguments and the structure's 2x2 matrices M = mi, mj, mk are each
    read as an `IntMat` once, and the images a·M are integer products. With
    scale = num/den, a term ±scale·L(a, b)·c is the integer ±num·L(A, B)
    times the rows of c over den·a.d·b.d·c.d: one integer combination."""
    st, signs = ev.structure, ev.sig.signs()
    num, den = ev.scale.numerator, ev.scale.denominator
    plain = [IntMat.of(a) for a in (xi, eta, zeta)]
    terms = []
    for m, sgn in ((st.mi, num), (st.mj, num), (st.mk, -num)):
        im = IntMat.of(m)
        images = [a * im for a in plain]
        for r in range(3):  # the cyclic terms (a, b, c) of (xi, eta, zeta)
            a, b, c = plain[r], images[(r + 1) % 3], images[(r + 2) % 3]
            over = IntMat(den * a.d * b.d * c.d, 2, None, c.sparse)
            terms.append((sgn * _pairing(signs, a.sparse, b.sparse), over))
    return IntMat.combination(terms).to_mat()


def pipeline_s(sig: Signature, xi: Mat, eta: Mat, zeta: Mat) -> Mat:
    """The same trilinear map obtained from the obstruction cochain: stack
    the columns, push through the trilinear bracket expression, unstack."""
    v = psi_trilinear(sig, stack_columns(xi), stack_columns(eta),
                      stack_columns(zeta))
    return unstack_columns(v.m2_vector(), sig.n)


def gm1_units(n: int):
    """Unit contact directions ordered compatibly with column stacking."""
    out = []
    for a in range(2):
        for i in range(n):
            rows = [[Fraction(0)] * 2 for _ in range(n)]
            rows[i][a] = Fraction(1)
            out.append(Mat(rows))
    return out


def fit_pipeline_constant(ev: STensorEval) -> Fraction:
    """The one constant relating the closed-form tensor to the pipeline
    value, fitted on the first unit triple where both are nonzero and
    checked for exact proportionality there."""
    sig = ev.sig
    units = gm1_units(sig.n)
    for u1 in units:
        for u2 in units:
            for u3 in units:
                pipe = pipeline_s(sig, u1, u2, u3)
                if pipe.is_zero():
                    continue
                closed = s_tensor(ev, u1, u2, u3)
                if closed.is_zero():
                    continue
                idx = next((i, j) for i in range(sig.n) for j in range(2)
                           if pipe[i, j] != 0)
                cst = closed[idx] / pipe[idx]
                if closed == cst * pipe:
                    return cst
    raise ValueError("no unit triple relates the two paths; the pipeline "
                     "appears degenerate")


def rank_one_by_S(ev: STensorEval, xi: Mat) -> bool:
    """Whether xi lies on the cone of rank-one directions, decided through
    the cubic tensor alone.

    When some pairing L(xi, A xi) with A in {I, J, K} is nonzero, rank one
    is equivalent to S(xi, xi, xi) = 0. When all three pairings vanish the
    cubic vanishes for free, so the test asks instead whether xi is
    reachable as S(xi, xi, eta); blurring the two cases misclassifies fully
    isotropic rank-two directions, which exist in balanced signatures."""
    if xi.is_zero():
        raise ValueError("the tested element must be nonzero")
    sig = ev.sig
    st = ev.structure
    pairings = (bracket_gm1(sig, xi, st.apply_i(xi)),
                bracket_gm1(sig, xi, st.apply_j(xi)),
                bracket_gm1(sig, xi, st.apply_k(xi)))
    if any(c != 0 for c in pairings):
        return s_tensor(ev, xi, xi, xi).is_zero()
    n = sig.n
    rows = []
    for eta in gm1_units(n):
        img = stack_columns(s_tensor(ev, xi, xi, eta))
        rows.append([img[r, 0] for r in range(2 * n)])
    system = Mat(rows).T
    return solve_linear(system, stack_columns(xi)) is not None


def reconstruct_cone(ev: STensorEval, samples) -> dict:
    """Classifies each sample by rank_one_by_S and compares against the
    exact factorization rank; an identically vanishing tensor is rejected
    since it certifies a broken pipeline rather than a classification."""
    units = gm1_units(ev.sig.n)
    degenerate = all(
        s_tensor(ev, u1, u2, u3).is_zero()
        for u1 in units for u2 in units for u3 in units)
    if degenerate:
        raise ValueError("degenerate evaluation: the cubic tensor vanishes "
                         "identically")
    flags = []
    mismatches = 0
    witness = None
    for xi in samples:
        flag = rank_one_by_S(ev, xi)
        truth = segre_rank(xi) == 1
        flags.append(flag)
        if flag != truth:
            mismatches += 1
            if witness is None:
                witness = xi
    return {
        "samples": len(flags),
        "rank_one": sum(1 for f in flags if f),
        "rank_two": sum(1 for f in flags if not f),
        "flags": tuple(flags),
        "mismatches": mismatches,
        "matches_ground_truth": mismatches == 0,
        "witness": witness,
    }


# ---------------------------------------------------------------------------
# trajectory export


def _normalized_span(span: Mat):
    """Euclidean Gram-Schmidt on the float columns, first column's leading
    entry made positive; returns the entries row-major."""
    m = span.rows
    c0 = [float(span[i, 0]) for i in range(m)]
    c1 = [float(span[i, 1]) for i in range(m)]
    norm0 = math.sqrt(sum(e * e for e in c0))
    u0 = [e / norm0 for e in c0]
    lead = next((e for e in u0 if abs(e) > 1e-9), 1.0)
    if lead < 0:
        u0 = [-e for e in u0]
    proj = sum(a * b for a, b in zip(c1, u0))
    v = [a - proj * b for a, b in zip(c1, u0)]
    norm1 = math.sqrt(sum(e * e for e in v))
    u1 = [e / norm1 for e in v]
    out = []
    for i in range(m):
        out.append(u0[i])
        out.append(u1[i])
    return out


def emit_trajectory(sig: Signature, g: Mat | None, t_min, t_max,
                    steps: int):
    """Samples the chain on an even rational grid from t_min up to t_max
    (ValueError unless t_min < t_max) and returns float rows (t, then the
    normalized span entries row-major). The span is exact until the final
    cast, so isotropy residuals are float noise only."""
    if steps < 2:
        raise ValueError("steps must be at least 2")
    t0 = rat(t_min)
    t1 = rat(t_max)
    if t0 >= t1:
        raise ValueError("t_min must be less than t_max, got %s and %s"
                         % (t0, t1))
    curve = ChainCurve(sig, g)
    rows = []
    for k in range(steps):
        t = t0 + (t1 - t0) * Fraction(k, steps - 1)
        span = curve.at(t).span
        rows.append([float(t)] + _normalized_span(span))
    return rows
