"""The homogeneous model: points as isotropic 2-planes, the exact degree-one
chain curves through them, transversality of their velocity classes, the
symmetric cubic tensor on the contact directions, the rank-one test it
induces, and cone reconstruction plus trajectory export.

The frames and spans of the model are `IntMat`s, as the samplers draw
them: a point's span, a chain's frame and the matrix that acts. So are the
contact directions the cubic tensor reads and returns, and the columns of
the pipeline that it is compared with. A `Mat` in their place is refused
with TypeError (`linalg.need_ints`), not converted."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .extension import fit_on_unit_triples, psi_trilinear
from .linalg import (Frozen, IntMat, exp_nilpotent, need_ints, plain_sum,
                     rank, rat)
from .so_contact import (Signature, SoElement, ambient_inverse, gm1_pairing,
                         segre_rank)
from .split_quat import QuatStructureOnH, stack_columns, unstack_columns


class ModelPoint(Frozen):
    """An isotropic 2-plane in R^(n+4), stored as its (n+4) x 2 span, an
    `IntMat` (a Mat is refused with TypeError), whose rows give its rank
    (`linalg.rank`) and its isotropy (`gram_equals`). Two points are equal
    exactly when their column spans agree."""

    __slots__ = ("sig", "span")

    def __init__(self, sig: Signature, span: IntMat):
        if need_ints(span, "span").rows != sig.n + 4 or span.cols != 2:
            raise ValueError("span must be an (n+4) x 2 matrix")
        if rank(span) != 2:
            raise ValueError("span must have rank 2")
        if not span.gram_equals(sig.form_s_perm()):
            raise ValueError("span must be isotropic for the ambient form")
        self._set(sig=sig, span=span)

    def __eq__(self, other):
        if not isinstance(other, ModelPoint) or self.sig != other.sig:
            return NotImplemented
        # scaling a column keeps the rank: no common denominator is needed
        return rank(IntMat(1, 4, [ra + rb for ra, rb in zip(
            self.span.dense, other.span.dense)])) == 2

    def __repr__(self):
        return "ModelPoint(%r, %r)" % (self.sig, self.span)


def origin(sig: Signature) -> ModelPoint:
    """The plane spanned by the first two standard basis vectors."""
    return ModelPoint(sig, IntMat(1, 2, sparse=[[(0, 1)], [(1, 1)],
                                                *[[]] * (sig.n + 2)]))


def _check_ambient(sig: Signature, g: IntMat) -> None:
    """TypeError unless g is an `IntMat`, ValueError unless it preserves the
    ambient form."""
    need_ints(g, "frame")
    s = sig.form_s_perm()
    if not g.gram_equals(s, s):
        raise ValueError("the acting matrix must preserve the ambient form")


def act(sig: Signature, g: IntMat, pt: ModelPoint) -> ModelPoint:
    _check_ambient(sig, g)
    return ModelPoint(sig, g * pt.span)


@functools.cache
def chain_matrix(sig: Signature) -> IntMat:
    """Integer rows of the assembled matrix E of the distinguished nilpotent
    generator; E^2 = 0, so its exponential is exactly I + tE. Built and
    checked once per signature."""
    ei = SoElement.generator_e(sig).ints
    if not (ei * ei).is_zero():
        raise ValueError("the chain generator must square to zero")
    return ei


class ChainCurve(Frozen):
    """The exact chain t -> g (I + tE) . origin, for a frame g of O(S), an
    `IntMat` (the identity when none is given).

    The frame g (I + tE) = g + t gE is affine in t, so every value is an
    exact rational point of the model. The velocity gE is the kernel's
    product with `chain_matrix`, formed once per curve."""

    __slots__ = ("sig", "g", "_vel")

    def __init__(self, sig: Signature, g: IntMat | None = None):
        if g is None:
            g = IntMat.identity(sig.n + 4)
        _check_ambient(sig, g)
        self._set(sig=sig, g=g, _vel=g * chain_matrix(sig))

    def _frame(self, t, start, stop) -> IntMat:
        """Columns start to stop of the frame g + t·gE, on the integers:
        with t = u/v, g = G/d and gE = V/(d·e), v·e·G + u·V over v·d·e."""
        t = rat(t)
        u, v = t.numerator, t.denominator
        ve = v * (self._vel.d // self.g.d)
        return IntMat(v * self._vel.d, stop - start, [
            [ve * x + u * y for x, y in zip(r[start:stop], e[start:stop])]
            for r, e in zip(self.g.dense, self._vel.dense)])

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


def chain_eval(sig: Signature, t, g: IntMat | None = None) -> ModelPoint:
    return ChainCurve(sig, g).at(t)


def chain_transversality(sig: Signature, t, g: IntMat | None = None) -> bool:
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


class STensorEval(Frozen):
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
        self._set(sig=sig, structure=structure, scale=scale)

    @classmethod
    def standard(cls, sig: Signature):
        return cls(sig)

    def rescaled(self, c) -> "STensorEval":
        return STensorEval(self.sig, self.structure, self.scale * rat(c))

    def basis_changed(self, g: IntMat) -> "STensorEval":
        return STensorEval(self.sig, self.structure.conjugated(g), self.scale)


def s_tensor(ev: STensorEval, xi: IntMat, eta: IntMat,
             zeta: IntMat) -> IntMat:
    """Cyclic sum of (a, b, c) -> L(a, Ib) Ic + L(a, Jb) Jc - L(a, Kb) Kc,
    times the stored scale, where L is the bottom-grade bracket. Totally
    symmetric, with values back among the contact directions. The images
    a·M are integer products with the integer rows of the structure's units
    (`QuatStructureOnH.int_units`)."""
    plain = tuple(need_ints(a) for a in (xi, eta, zeta))
    return _cyclic_sum(ev, plain, [[a * m for a in plain]
                                   for m in ev.structure.int_units])


def _cyclic_sum(ev: STensorEval, plain, images) -> IntMat:
    """The tensor on plain = (xi, eta, zeta), given the images a·M per unit
    M of the structure. With scale = num/den, a term ±scale·L(a, b)·c is
    ±num·L(A, B) (`gm1_pairing`) times the rows of c over den·a.d·b.d·c.d."""
    num, den = ev.scale.numerator, ev.scale.denominator
    terms = []
    for imgs, sgn in zip(images, (num, num, -num)):
        for r in range(3):  # the cyclic terms (a, b, c) of (xi, eta, zeta)
            a, b, c = plain[r], imgs[(r + 1) % 3], imgs[(r + 2) % 3]
            over = IntMat(den * a.d * b.d * c.d, 2, None, c.sparse)
            terms.append((sgn * gm1_pairing(ev.sig, a, b), over))
    return IntMat.combination(terms)


def pipeline_s(sig: Signature, xi: IntMat, eta: IntMat,
               zeta: IntMat) -> IntMat:
    """The same trilinear map obtained from the obstruction cochain: stack
    the columns, push through the trilinear bracket expression, unstack."""
    v = psi_trilinear(sig, stack_columns(xi), stack_columns(eta),
                      stack_columns(zeta))
    return unstack_columns(v.m2_vector(), sig.n)


def _unit_ints(n: int):
    """The unit contact directions as integer rows, ordered compatibly with
    column stacking: column by column."""
    return [IntMat(1, 2, sparse=[[(a, 1)] if k == i else [] for k in range(n)])
            for a in range(2) for i in range(n)]


def fit_pipeline_constant(ev: STensorEval) -> Fraction:
    """The one constant relating the closed-form tensor to the pipeline
    value (`fit_on_unit_triples`); the pipeline runs only where the closed
    form is nonzero."""
    sig = ev.sig
    return 1 / fit_on_unit_triples(
        _unit_ints(sig.n), lambda *u: s_tensor(ev, *u),
        lambda *u: pipeline_s(sig, *u),
        "no unit triple relates the two paths; the pipeline appears "
        "degenerate")


def rank_one_by_S(ev: STensorEval, xi: IntMat) -> bool:
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
    x = need_ints(xi)
    if x.is_zero():
        raise ValueError("the tested element must be nonzero")
    units = ev.structure.int_units
    images = [x * m for m in units]
    if any(gm1_pairing(ev.sig, x, img) for img in images):
        return _cyclic_sum(ev, (x, x, x), [[img] * 3 for img in images]
                           ).is_zero()
    cols = [_stacked(_cyclic_sum(ev, (x, x, e), [
        [img, img, e * m] for img, m in zip(images, units)]))
        for e in _unit_ints(ev.sig.n)]
    return (rank(IntMat(1, len(cols), [list(r) for r in zip(*cols)]))
            == rank(IntMat(1, len(cols) + 1,
                           [list(r) for r in zip(*cols, _stacked(x))])))


def _stacked(m: IntMat):
    """The integers of an n x 2 matrix, first column over the second."""
    return [r[j] for j in range(2) for r in m.dense]


def reconstruct_cone(ev: STensorEval, samples) -> dict:
    """Classifies each sample by rank_one_by_S and compares against the
    exact factorization rank; an identically vanishing tensor is rejected
    since it certifies a broken pipeline rather than a classification."""
    units = _unit_ints(ev.sig.n)
    if all(s_tensor(ev, *t).is_zero()
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


def _float_column(span: IntMat, j: int):
    """Column j of the span as floats, x / d correctly rounded, as
    float(Fraction(x, d)) is. A column past 2^500 is scaled by a power of
    two first, so no cast or square overflows; each column is normalized,
    and a power of two commutes with correct rounding: no digit moves."""
    d = span.d
    col = [r[j] for r in span.dense]
    shift = max(map(abs, col)).bit_length() - d.bit_length()
    if shift > 500:
        d <<= shift
    return [x / d for x in col]


def _normalized_span(span: IntMat):
    """Euclidean Gram-Schmidt on the float columns (`_float_column`), first
    column's leading entry made positive; returns the entries row-major.
    Every sum runs left to right (`plain_sum`), so the digits do not depend
    on the Python version."""
    c0, c1 = _float_column(span, 0), _float_column(span, 1)
    norm0 = math.sqrt(plain_sum(e * e for e in c0))
    u0 = [e / norm0 for e in c0]
    lead = next((e for e in u0 if abs(e) > 1e-9), 1.0)
    if lead < 0:
        u0 = [-e for e in u0]
    proj = plain_sum(a * b for a, b in zip(c1, u0))
    v = [a - proj * b for a, b in zip(c1, u0)]
    norm1 = math.sqrt(plain_sum(e * e for e in v))
    return [x for pair in zip(u0, [e / norm1 for e in v]) for x in pair]


def emit_trajectory(sig: Signature, g: IntMat | None, t_min, t_max,
                    steps: int):
    """Samples the chain of the frame g (`ChainCurve`) on an even rational
    grid from t_min up to t_max (ValueError unless t_min < t_max) and
    returns float rows (t, then the normalized span entries row-major).
    The span is exact until the final cast, so isotropy residuals are
    float noise only."""
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
        rows.append([float(t)] + _normalized_span(curve.at(t).span))
    return rows
