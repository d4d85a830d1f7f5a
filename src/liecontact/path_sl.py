"""sl(2n+2, R) with the contact-path grading of block sizes (1, 1, 2n).

Rows and columns split into four groups 1, 1, n, n (the 2n block is kept
as two stacked n-blocks so that its quadrants line up with the R-matrix
computations elsewhere). With f = (0, 1, 2, 2) on the groups, the entry at
block position (r, c) has degree f(c) - f(r):

    [[ 0 : g0,  (0,1): +1 E,  (0, k): +2          ],
     [ (1,0): -1 E,  g0,      (1, k): +1 V        ],
     [ (k,0): -2,    (k,1): -1 V,   2n block : g0 ]]

The ordered basis of the negative part g~_-, used for every cochain table
and for the codifferential, is: the -2 column (rows 2 .. 2n+1), then the
single -1 E entry, then the -1 V column (rows 2 .. 2n+1). Dual elements
with respect to the trace form are the transposed units and sit in the
positive part. This order is written once, in `neg_positions`; the
basis, its duals, slots, degrees and coordinates and the codifferential of
`extension` all read it from there.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .linalg import IntMat, Mat, rat

_SLOT_DEGREE = {"m2": -2, "m1E": -1, "m1V": -1, "g0": 0,
                "p1E": 1, "p1V": 1, "p2": 2}


def _slot_of(i: int, j: int, n: int) -> str:
    gi = 0 if i == 0 else (1 if i == 1 else 2)
    gj = 0 if j == 0 else (1 if j == 1 else 2)
    d = (0, 1, 2)[gj] - (0, 1, 2)[gi]
    if d == 0:
        return "g0"
    if d == -2:
        return "m2"
    if d == 2:
        return "p2"
    if d == -1:
        return "m1E" if (i, j) == (1, 0) else "m1V"
    return "p1E" if (i, j) == (0, 1) else "p1V"


@functools.cache
def _slot_table(n: int):
    """The `_slot_of` name of every entry position, as rows, built once per
    n; the degree of a position is `_SLOT_DEGREE` of its name."""
    m = 2 * n + 2
    return tuple(tuple(_slot_of(i, j, n) for j in range(m)) for i in range(m))


@functools.cache
def entry_degrees(n: int):
    """The degree of every entry position, as rows, built once per n."""
    return tuple(tuple(_SLOT_DEGREE[s] for s in r) for r in _slot_table(n))


def _is_trace_free(mat: Mat) -> bool:
    """mat.trace() == 0. A diagonal of Fractions is summed as integers over
    the lcm of the denominators of its nonzero entries; any other entry
    type takes Mat.trace()."""
    diag = [r[i] for i, r in enumerate(mat.data)]
    if any(type(e) is not Fraction for e in diag):
        return mat.trace() == 0
    diag = [e for e in diag if e]
    d = math.lcm(*[e.denominator for e in diag])
    return sum(e.numerator * (d // e.denominator) for e in diag) == 0


class SlElement:
    """Trace-free (2n+2) x (2n+2) matrix with slot accessors."""

    __slots__ = ("n", "mat")

    def __init__(self, n: int, mat: Mat):
        m = 2 * n + 2
        if mat.rows != m or mat.cols != m:
            raise ValueError("expected a %dx%d matrix" % (m, m))
        if not _is_trace_free(mat):
            raise ValueError("matrix must be trace free")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, name, value):
        raise AttributeError("SlElement is immutable")

    @classmethod
    def zero(cls, n: int):
        return cls(n, Mat.zeros(2 * n + 2, 2 * n + 2))

    @classmethod
    def from_m2(cls, n: int, v: Mat):
        """g~_{-2} element with column vector v in R^2n."""
        if v.cols != 1 or v.rows != 2 * n:
            raise ValueError("expected a 2n x 1 column")
        m = 2 * n + 2
        rows = [[Fraction(0)] * m for _ in range(m)]
        for i in range(2 * n):
            rows[2 + i][0] = rat(v[i, 0])
        return cls(n, Mat(rows))

    def grade_project(self, d: int) -> "SlElement":
        if d not in (-2, -1, 0, 1, 2):
            raise ValueError("degree must be in -2..2")
        zero = Fraction(0)
        rows = [[e if s == d else zero for s, e in zip(sr, r)]
                for sr, r in zip(entry_degrees(self.n), self.mat.data)]
        return SlElement(self.n, Mat(rows))

    # vector views

    def m2_vector(self) -> Mat:
        return Mat.col([self.mat[2 + i, 0] for i in range(2 * self.n)])

    def in_slots(self, slots) -> bool:
        """True when every nonzero entry lies in one of the given slots."""
        return all(s in slots
                   for sr, r in zip(_slot_table(self.n), self.mat.data)
                   for s, e in zip(sr, r) if e != 0)

    def __add__(self, other):
        _check_n(self, other)
        return SlElement(self.n, self.mat + other.mat)

    def __sub__(self, other):
        _check_n(self, other)
        return SlElement(self.n, self.mat - other.mat)

    def __neg__(self):
        return SlElement(self.n, -self.mat)

    def __rmul__(self, scalar):
        return SlElement(self.n, rat(scalar) * self.mat)

    def is_zero(self):
        return self.mat.is_zero()

    def __eq__(self, other):
        if not isinstance(other, SlElement):
            return NotImplemented
        return self.n == other.n and self.mat == other.mat

    def __hash__(self):
        return hash((self.n, self.mat))

    def __repr__(self):
        return "SlElement(%d, %r)" % (self.n, self.mat)


def _check_n(x, y):
    if x.n != y.n:
        raise ValueError("dimension mismatch: n=%d vs n=%d" % (x.n, y.n))


def sl_bracket(x: SlElement, y: SlElement) -> SlElement:
    _check_n(x, y)
    comm = IntMat.of(x.mat).commutator(IntMat.of(y.mat))
    return SlElement(x.n, comm.to_mat())


def w0(n: int) -> SlElement:
    """The fixed generator of g~_1^E: the unit at position (0, 1)."""
    m = 2 * n + 2
    rows = [[Fraction(0)] * m for _ in range(m)]
    rows[0][1] = Fraction(1)
    return SlElement(n, Mat(rows))


# ---------------------------------------------------------------------------
# negative-part basis, duals, coordinates


@functools.cache
def neg_positions(n: int):
    """The ordered basis of g~_- of the module docstring, the one place it
    is written: the (row, column) of each basis unit. Built once per n."""
    return (*((2 + k, 0) for k in range(2 * n)), (1, 0),
            *((2 + k, 1) for k in range(2 * n)))


def sl_neg_slots(n: int):
    slots = _slot_table(n)
    return [slots[r][c] for r, c in neg_positions(n)]


def sl_neg_degrees(n: int):
    return [_SLOT_DEGREE[s] for s in sl_neg_slots(n)]


def sl_neg_coordinates(x: SlElement):
    """Coordinates of the negative part of x in the `neg_positions` order."""
    rows = x.mat.data
    return [rows[r][c] for r, c in neg_positions(x.n)]
