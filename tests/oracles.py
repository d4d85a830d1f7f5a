"""Oracles that only the tests read, written in the form the paper gives.

The package keeps the forms S and Ipq as signed permutations and reads
algebra elements on integer rows; these are the dense Fraction forms, the
adjoint action read back by blocks, a random algebra element and the 2n
block of an sl(2n+2) element, for tests to compare the package against.
`product` multiplies Fraction matrices for the oracles: `Mat` multiplies
entry by entry, every zero term included, and most entries of the forms,
frames and algebra elements the tests multiply are zero.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from liecontact import samplers
from liecontact.linalg import Mat
from liecontact.so_contact import SoElement


def product(*mats: Mat) -> Mat:
    """The product of the Fraction matrices mats, left to right, with each
    entry summed over its nonzero terms only."""
    out = mats[0]
    for m in mats[1:]:
        if out.cols != m.rows:
            raise ValueError("shape mismatch %sx%s * %sx%s"
                             % (out.rows, out.cols, m.rows, m.cols))
        cols = [[(k, e) for k, e in enumerate(m.column(j)) if e]
                for j in range(m.cols)]
        out = Mat([[sum((r[k] * e for k, e in c if r[k]), Fraction(0))
                    for c in cols] for r in out.data])
    return out


@functools.cache
def ipq(sig) -> Mat:
    """Ipq = diag(1, ..., 1, -1, ..., -1) of the signature, built once."""
    return Mat.diag([Fraction(s) for s in sig.signs()])


@functools.cache
def form_s(sig) -> Mat:
    """The ambient form S = [[0, 0, -I2], [0, Ipq, 0], [-I2, 0, 0]] of
    `so_contact`, as a dense matrix, built once per signature."""
    n = sig.n
    z2n, zn2, z22 = Mat.zeros(2, n), Mat.zeros(n, 2), Mat.zeros(2, 2)
    mi2 = -Mat.identity(2)
    return Mat.block([[z22, z2n, mi2], [zn2, ipq(sig), zn2],
                      [mi2, z2n, z22]])


def ad_so(h, x: SoElement) -> SoElement:
    """The adjoint action h x h^-1 of a stabilizer-group element h on an
    algebra element x: `QGroupElement.ad_int`, read back by blocks."""
    return SoElement.from_matrix(h.sig, h.ad_int(x.ints))


def rand_so_element(sig, rng) -> SoElement:
    """Random element of so(p+2, q+2): the element of `rand_so_int`."""
    return SoElement.from_matrix(sig, samplers.rand_so_int(sig, rng))


def ss_block(x) -> Mat:
    """The lower-right 2n x 2n block of an `SlElement`."""
    m = 2 * x.n + 2
    return x.mat.submat(2, m, 2, m)
