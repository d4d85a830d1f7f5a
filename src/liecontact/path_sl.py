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

from .linalg import Frozen, IntMat, Mat, need_ints, rat

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


class SlElement(Frozen):
    """Trace-free (2n+2) x (2n+2) matrix with slot accessors, held as its
    integer rows over one denominator (`ints`, an IntMat); `mat` is its
    Fraction view for the repr, made when read. Immutable."""

    __slots__ = ("n", "ints")

    def __init__(self, n: int, m: IntMat):
        """The element with the matrix m, an IntMat, kept as it is;
        TypeError on a Mat, ValueError unless m is trace free."""
        size = 2 * n + 2
        if need_ints(m).rows != size or m.cols != size:
            raise ValueError("expected a %dx%d matrix" % (size, size))
        if sum(r[i] for i, r in enumerate(m.dense)):
            raise ValueError("matrix must be trace free")
        self._set(n=n, ints=m)

    @property
    def mat(self) -> Mat:
        return self.ints.to_mat()

    @classmethod
    def zero(cls, n: int):
        return cls(n, IntMat(1, 2 * n + 2, sparse=[[]] * (2 * n + 2)))

    @classmethod
    def from_m2(cls, n: int, v: IntMat):
        """g~_{-2} element with the column v in R^2n, an IntMat."""
        if need_ints(v).cols != 1 or v.rows != 2 * n:
            raise ValueError("expected a 2n x 1 column")
        return cls(n, IntMat(v.d, 2 * n + 2, sparse=[[], []] + [
            [(0, e)] if e else [] for (e,) in v.dense]))

    def grade_project(self, d: int) -> "SlElement":
        if d not in (-2, -1, 0, 1, 2):
            raise ValueError("degree must be in -2..2")
        g = self.ints
        rows = [[e if s == d else 0 for s, e in zip(sr, r)]
                for sr, r in zip(entry_degrees(self.n), g.dense)]
        return SlElement(self.n, IntMat(g.d, g.cols, rows))

    # vector views

    def m2_vector(self) -> IntMat:
        """The g~_{-2} column: rows 2 to 2n+1 of column 0."""
        g = self.ints
        return IntMat(g.d, 1, [r[:1] for r in g.dense[2:]])

    def in_slots(self, slots) -> bool:
        """True when every nonzero entry lies in one of the given slots."""
        return all(s in slots
                   for sr, r in zip(_slot_table(self.n), self.ints.dense)
                   for s, e in zip(sr, r) if e)

    def __add__(self, other):
        _check_n(self, other)
        return SlElement(self.n, IntMat.combination([(1, self.ints),
                                                     (1, other.ints)]))

    def __sub__(self, other):
        _check_n(self, other)
        return SlElement(self.n, IntMat.combination([(1, self.ints),
                                                     (-1, other.ints)]))

    def __neg__(self):
        return SlElement(self.n, IntMat.combination([(-1, self.ints)]))

    def __rmul__(self, scalar):
        return SlElement(self.n, IntMat.combination([(rat(scalar),
                                                      self.ints)]))

    def is_zero(self):
        return self.ints.is_zero()

    def __eq__(self, other):
        if not isinstance(other, SlElement):
            return NotImplemented
        return self.n == other.n and self.ints.equals(other.ints)

    def __hash__(self):
        return hash((self.n, self.ints.lowest_terms()))

    def __repr__(self):
        return "SlElement(%d, %r)" % (self.n, self.mat)


def _check_n(x, y):
    if x.n != y.n:
        raise ValueError("dimension mismatch: n=%d vs n=%d" % (x.n, y.n))


def sl_bracket(x: SlElement, y: SlElement) -> SlElement:
    _check_n(x, y)
    return SlElement(x.n, x.ints.commutator(y.ints))


def w0(n: int) -> SlElement:
    """The fixed generator of g~_1^E: the unit at position (0, 1)."""
    m = 2 * n + 2
    return SlElement(n, IntMat(1, m, sparse=[[(1, 1)]] + [[]] * (m - 1)))


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


def sl_neg_coordinates(x: SlElement) -> IntMat:
    """Coordinates of the negative part of x in the `neg_positions` order,
    as one integer row over the denominator of `x.ints`."""
    rows = x.ints.dense
    return IntMat(x.ints.d, 4 * x.n + 1,
                  [[rows[r][c] for r, c in neg_positions(x.n)]])
