"""The homogeneous model: points as isotropic 2-planes, the exact degree-one
chain curves through them, transversality of their velocity classes, the
symmetric cubic tensor on the contact directions, the rank-one test it
induces, and cone reconstruction plus trajectory export."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .extension import psi_trilinear
from .linalg import IntMat, Mat, bareiss, exp_nilpotent, plain_sum, rat
from .so_contact import (Signature, SoElement, ambient_inverse, gm1_pairing,
                         segre_rank)
from .split_quat import QuatStructureOnH, stack_columns, unstack_columns


class ModelPoint:
    """An isotropic 2-plane in R^(n+4), stored as an (n+4) x 2 span matrix.

    The span, a Mat or an IntMat, is read once as an `IntMat`, whose rows
    give its rank (`bareiss`) and its isotropy (`gram_equals`); a Mat
    `span` is built from them on first use. Two points are equal exactly
    when their column spans agree."""

    __slots__ = ("sig", "_ints", "_span")

    def __init__(self, sig: Signature, span):
        if span.rows != sig.n + 4 or span.cols != 2:
            raise ValueError("span must be an (n+4) x 2 matrix")
        ints = span if isinstance(span, IntMat) else IntMat.of(span)
        if _rank(ints.dense) != 2:
            raise ValueError("span must have rank 2")
        if not ints.gram_equals(sig.form_s_perm()):
            raise ValueError("span must be isotropic for the ambient form")
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_span", None if span is ints else span)

    def __setattr__(self, name, value):
        raise AttributeError("ModelPoint is immutable")

    @property
    def span(self) -> Mat:
        if self._span is None:
            object.__setattr__(self, "_span", self._ints.to_mat())
        return self._span

    def __eq__(self, other):
        if not isinstance(other, ModelPoint) or self.sig != other.sig:
            return NotImplemented
        # scaling a column keeps the rank: no common denominator is needed
        return _rank([ra + rb for ra, rb in zip(self._ints.dense,
                                                other._ints.dense)]) == 2

    def __repr__(self):
        return "ModelPoint(%r, %r)" % (self.sig, self.span)


def origin(sig: Signature) -> ModelPoint:
    """The plane spanned by the first two standard basis vectors."""
    rows = [[Fraction(0)] * 2 for _ in range(sig.n + 4)]
    rows[0][0] = Fraction(1)
    rows[1][1] = Fraction(1)
    return ModelPoint(sig, Mat(rows))


def _rank(rows) -> int:
    """The rank of the integer rows, which stay as they are."""
    return len(bareiss([list(r) for r in rows])[1])


def _check_ambient(sig: Signature, g: Mat) -> IntMat:
    """g as an `IntMat`; ValueError unless it preserves the ambient form."""
    ints = IntMat.of(g)
    s = sig.form_s_perm()
    if not ints.gram_equals(s, s):
        raise ValueError("the acting matrix must preserve the ambient form")
    return ints


def act(sig: Signature, g: Mat, pt: ModelPoint) -> ModelPoint:
    return ModelPoint(sig, _check_ambient(sig, g) * pt._ints)


@functools.cache
def chain_matrix(sig: Signature) -> Mat:
    """Assembled matrix E of the distinguished nilpotent generator; E^2 = 0,
    so its exponential is exactly I + tE. Built and checked once per
    signature."""
    e = SoElement.generator_e(sig)
    ei = e.ints
    if not (ei * ei).is_zero():
        raise ValueError("the chain generator must square to zero")
    return e.assemble()


def _chain_moves(sig: Signature):
    """The nonzero entries (row, column, sign) of chain_matrix(sig), which
    must be one +-1 per column: g·E is then the column `row` of g moved to
    `column`, times `sign`, for each entry."""
    moves = tuple((k, j, e) for k, r in enumerate(chain_matrix(sig).data)
                  for j, e in enumerate(r) if e)
    if (any(e not in (1, -1) for _, _, e in moves)
            or len({j for _, j, _ in moves}) != len(moves)):
        raise ValueError("the chain generator must have one +-1 per column")
    return moves


class ChainCurve:
    """The exact chain t -> g (I + tE) . origin.

    The frame g (I + tE) = g + t gE is affine in t, so every value is an
    exact rational point of the model. g is read once as an `IntMat`, by
    `_check_ambient`, and gE is formed once per curve on its integers, as
    columns moved and signed (`_chain_moves`)."""

    __slots__ = ("sig", "g", "_g", "_vel")

    def __init__(self, sig: Signature, g: Mat | None = None):
        if g is None:
            g = Mat.identity(sig.n + 4)
        ints = _check_ambient(sig, g)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "_g", ints)
        vel = [[0] * g.cols for _ in range(g.rows)]
        for k, j, sign in _chain_moves(sig):
            for out, r in zip(vel, ints.dense):
                out[j] = r[k] if sign > 0 else -r[k]
        object.__setattr__(self, "_vel", IntMat(ints.d, g.cols, vel))

    def __setattr__(self, name, value):
        raise AttributeError("ChainCurve is immutable")

    def _frame(self, t, start, stop) -> IntMat:
        """Columns start to stop of the frame g + t·gE, on the integers:
        with t = u/v and g = G/d, v·G + u·GE over v·d."""
        t = rat(t)
        u, v = t.numerator, t.denominator
        return IntMat(v * self._g.d, stop - start, [
            [v * x + u * y for x, y in zip(r[start:stop], e[start:stop])]
            for r, e in zip(self._g.dense, self._vel.dense)])

    def at(self, t) -> ModelPoint:
        """The frame applied to the origin [e1 e2]: its first two columns.
        The other columns are not formed."""
        return ModelPoint(self.sig, self._frame(t, 0, 2))

    def velocity_class(self, t) -> SoElement:
        """Velocity of the curve of frames pulled back to the identity; its
        grade -2 part is what transversality reads. The frame preserves the
        ambient form, so it is inverted in closed form."""
        frame = self._frame(t, 0, self.g.cols)
        pullback = ambient_inverse(self.sig, frame) * self._vel
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
    X in the middle slot come out non-transverse. The pullback is formed on
    the integer rows of the frame."""
    # exp of an element of so(S)
    frame = exp_nilpotent((t * x).ints, 4)
    pullback = ambient_inverse(sig, frame) * (x.ints * frame)
    return SoElement.from_matrix(sig, pullback).z != 0


# ---------------------------------------------------------------------------
# the cubic tensor on the contact directions


class STensorEval:
    """Evaluation data for the cubic tensor at the model origin: a
    split-quaternionic structure on the contact directions plus a nonzero
    overall scale. Robustness tests swap in conjugated structures and
    rescaled copies; classifications must not move."""

    __slots__ = ("sig", "structure", "scale", "_units")

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
        # the structure's matrices as s_tensor reads them, once per instance
        object.__setattr__(self, "_units", tuple(
            IntMat.of(m) for m in (structure.mi, structure.mj, structure.mk)))

    def __setattr__(self, name, value):
        raise AttributeError("STensorEval is immutable")

    @classmethod
    def standard(cls, sig: Signature):
        return cls(sig)

    def rescaled(self, c) -> "STensorEval":
        return STensorEval(self.sig, self.structure, self.scale * rat(c))

    def basis_changed(self, g: Mat) -> "STensorEval":
        return STensorEval(self.sig, self.structure.conjugated(g), self.scale)


def s_tensor(ev: STensorEval, xi: Mat, eta: Mat, zeta: Mat) -> Mat:
    """Cyclic sum of (a, b, c) -> L(a, Ib) Ic + L(a, Jb) Jc - L(a, Kb) Kc,
    times the stored scale, where L is the bottom-grade bracket. Totally
    symmetric, with values back among the contact directions."""
    return s_tensor_int(ev, *(IntMat.of(a) for a in (xi, eta, zeta))).to_mat()


def s_tensor_int(ev: STensorEval, xi: IntMat, eta: IntMat,
                 zeta: IntMat) -> IntMat:
    """`s_tensor` on integer rows. The images a·M are integer products with
    M = mi, mj, mk, read once per `STensorEval` (`_units`)."""
    plain = (xi, eta, zeta)
    return _cyclic_sum(ev, plain, [[a * m for a in plain] for m in ev._units])


def _cyclic_sum(ev: STensorEval, plain, images) -> IntMat:
    """The tensor on plain = (xi, eta, zeta), given the images a·M per M of
    `_units`. With scale = num/den, a term ±scale·L(a, b)·c is ±num·L(A, B)
    (`gm1_pairing`) times the rows of c over den·a.d·b.d·c.d."""
    num, den = ev.scale.numerator, ev.scale.denominator
    terms = []
    for imgs, sgn in zip(images, (num, num, -num)):
        for r in range(3):  # the cyclic terms (a, b, c) of (xi, eta, zeta)
            a, b, c = plain[r], imgs[(r + 1) % 3], imgs[(r + 2) % 3]
            over = IntMat(den * a.d * b.d * c.d, 2, None, c.sparse)
            terms.append((sgn * gm1_pairing(ev.sig, a, b), over))
    return IntMat.combination(terms)


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
    checked for exact proportionality there; the pipeline runs only where
    the closed form is nonzero."""
    sig = ev.sig
    units = gm1_units(sig.n)
    for u1 in units:
        for u2 in units:
            for u3 in units:
                closed = s_tensor(ev, u1, u2, u3)
                if closed.is_zero():
                    continue
                pipe = pipeline_s(sig, u1, u2, u3)
                if pipe.is_zero():
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
    isotropic rank-two directions, which exist in balanced signatures.
    The pairings are read off the images xi·M the tensor forms, and xi is
    reachable when it keeps the rank of the columns S(xi, xi, e) over the
    unit directions e, each over its own denominator."""
    x = IntMat.of(xi)
    if x.is_zero():
        raise ValueError("the tested element must be nonzero")
    images = [x * m for m in ev._units]
    if any(gm1_pairing(ev.sig, x, img) for img in images):
        return _cyclic_sum(ev, (x, x, x), [[img] * 3 for img in images]
                           ).is_zero()
    cols = [_stacked(_cyclic_sum(ev, (x, x, e), [
        [img, img, e * m] for img, m in zip(images, ev._units)]))
        for e in map(IntMat.of, gm1_units(ev.sig.n))]
    return _rank(zip(*cols)) == _rank(zip(*cols, _stacked(x)))


def _stacked(m: IntMat):
    """The integers of an n x 2 matrix, first column over the second."""
    return [r[j] for j in range(2) for r in m.dense]


def reconstruct_cone(ev: STensorEval, samples) -> dict:
    """Classifies each sample by rank_one_by_S and compares against the
    exact factorization rank; an identically vanishing tensor is rejected
    since it certifies a broken pipeline rather than a classification."""
    units = [IntMat.of(u) for u in gm1_units(ev.sig.n)]
    if all(s_tensor_int(ev, *t).is_zero()
           for t in itertools.product(units, repeat=3)):
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


def _normalized_span(span: IntMat):
    """Euclidean Gram-Schmidt on the float columns, first column's leading
    entry made positive; returns the entries row-major. x / d rounds
    correctly, as float(Fraction(x, d)) does, and every sum runs left to
    right (`plain_sum`), so the digits do not depend on the Python
    version."""
    m, d = span.rows, span.d
    c0 = [r[0] / d for r in span.dense]
    c1 = [r[1] / d for r in span.dense]
    norm0 = math.sqrt(plain_sum(e * e for e in c0))
    u0 = [e / norm0 for e in c0]
    lead = next((e for e in u0 if abs(e) > 1e-9), 1.0)
    if lead < 0:
        u0 = [-e for e in u0]
    proj = plain_sum(a * b for a, b in zip(c1, u0))
    v = [a - proj * b for a, b in zip(c1, u0)]
    norm1 = math.sqrt(plain_sum(e * e for e in v))
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
        rows.append([float(t)] + _normalized_span(curve.at(t)._ints))
    return rows
