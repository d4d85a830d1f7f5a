"""Oracles that only the tests read, written in the form the paper gives.

The package keeps the forms S and Ipq as signed permutations and reads
algebra elements on integer rows; these are the dense Fraction forms, the
adjoint action read back by blocks, a random algebra element and the 2n
block of an sl(2n+2) element, for tests to compare the package against.
`product` multiplies Fraction matrices for the oracles: `Mat` multiplies
entry by entry, every zero term included, and most entries of the forms,
frames and algebra elements the tests multiply are zero.

The package writes exact work on `IntMat` and keeps `Mat` for float
routes, printed views and the 2x2 split-quaternion units, so the `Mat`
constructors and accessors that only tests read live here as functions:
`col`, `zeros`, `diag`, `block`, `submat`, `transpose`, `is_zero` and
`scaled`. `ints` and `identity` build `IntMat`s of rows of exact entries
and of the identity. A `Cochain2` is read as a table of `SlElement`s here
too: `cochain` builds one from such a table, and `cochain_table` and
`cochain_value` read it back.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from types import MappingProxyType

from liecontact import samplers
from liecontact.extension import Cochain2
from liecontact.linalg import IntMat, Mat
from liecontact.path_sl import SlElement
from liecontact.so_contact import SoElement


def col(entries) -> Mat:
    """The column with the given entries."""
    return Mat([[e] for e in entries])


def zeros(rows, cols, zero=Fraction(0)) -> Mat:
    return Mat([[zero] * cols for _ in range(rows)])


def diag(entries) -> Mat:
    """The square matrix with the given diagonal, zero (a Fraction)
    elsewhere."""
    entries = list(entries)
    n = len(entries)
    return Mat([[entries[i] if i == j else Fraction(0) for j in range(n)]
                for i in range(n)])


def block(grid) -> Mat:
    """Assemble from a 2d grid of Mat blocks with consistent sizes."""
    rows = []
    for band in grid:
        height = band[0].rows
        if any(b.rows != height for b in band):
            raise ValueError("inconsistent block heights")
        for i in range(height):
            row = []
            for b in band:
                row.extend(b.data[i])
            rows.append(row)
    return Mat(rows)


def submat(m: Mat, r0, r1, c0, c1) -> Mat:
    """Block m[r0:r1, c0:c1]."""
    return Mat([r[c0:c1] for r in m.data[r0:r1]])


def transpose(m: Mat) -> Mat:
    return Mat(list(zip(*m.data)))


def is_zero(m: Mat) -> bool:
    return all(a == 0 for r in m.data for a in r)


def scaled(c, m: Mat) -> Mat:
    """c·m, entry by entry."""
    return Mat([[c * a for a in r] for r in m.data])


def ints(rows) -> IntMat:
    """The IntMat of the rows of exact entries (ints or Fractions)."""
    return IntMat.of(Mat(rows))


def identity(n) -> IntMat:
    """The n x n identity as integer rows."""
    return IntMat.identity(n)


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
    return diag([Fraction(s) for s in sig.signs()])


@functools.cache
def form_s(sig) -> Mat:
    """The ambient form S = [[0, 0, -I2], [0, Ipq, 0], [-I2, 0, 0]] of
    `so_contact`, as a dense matrix, built once per signature."""
    n = sig.n
    z2n, zn2, z22 = zeros(2, n), zeros(n, 2), zeros(2, 2)
    mi2 = -Mat.identity(2)
    return block([[z22, z2n, mi2], [zn2, ipq(sig), zn2], [mi2, z2n, z22]])


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
    return submat(x.mat, 2, m, 2, m)


def cochain(n: int, table: dict) -> Cochain2:
    """The cochain with the values of a table of SlElements, keyed by
    ordered pairs a < b; ValueError on a key out of order or a value of
    another n."""
    for (a, b), v in table.items():
        if not a < b:
            raise ValueError("table keys must be ordered pairs a < b")
        if v.n != n:
            raise ValueError("value dimension mismatch")
    return Cochain2(n, {k: table[k].ints for k in sorted(table)})


def cochain_table(phi: Cochain2):
    """The values of phi as a read-only mapping of SlElements by key."""
    d, rows = phi.int_rows
    m = 2 * phi.n + 2
    return MappingProxyType({k: SlElement(phi.n, IntMat(d, m, sparse=r))
                             for k, r in rows.items()})


def cochain_value(phi: Cochain2, a: int, b: int) -> SlElement:
    """The value of phi on the pair (a, b), either order."""
    return SlElement(phi.n, phi.int_value(a, b))
