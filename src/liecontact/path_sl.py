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
positive part.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Mat, commutator, jacobi_failures, rat, structure_table

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


class SlElement:
    """Trace-free (2n+2) x (2n+2) matrix with slot accessors."""

    __slots__ = ("n", "mat")

    def __init__(self, n: int, mat: Mat):
        m = 2 * n + 2
        if mat.rows != m or mat.cols != m:
            raise ValueError("expected a %dx%d matrix" % (m, m))
        if mat.trace() != 0:
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
        n = self.n
        rows = [[e if _SLOT_DEGREE[_slot_of(i, j, n)] == d else Fraction(0)
                 for j, e in enumerate(r)] for i, r in enumerate(self.mat.data)]
        return SlElement(n, Mat(rows))

    # vector views

    def m2_vector(self) -> Mat:
        return Mat.col([self.mat[2 + i, 0] for i in range(2 * self.n)])

    def ss_block(self) -> Mat:
        m = 2 * self.n + 2
        return self.mat.submat(2, m, 2, m)

    def in_slots(self, slots) -> bool:
        """True when every nonzero entry lies in one of the given slots."""
        n = self.n
        for i, r in enumerate(self.mat.data):
            for j, e in enumerate(r):
                if e != 0 and _slot_of(i, j, n) not in slots:
                    return False
        return True

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
    return SlElement(x.n, commutator(x.mat, y.mat))


def w0(n: int) -> SlElement:
    """The fixed generator of g~_1^E: the unit at position (0, 1)."""
    m = 2 * n + 2
    rows = [[Fraction(0)] * m for _ in range(m)]
    rows[0][1] = Fraction(1)
    return SlElement(n, Mat(rows))


# ---------------------------------------------------------------------------
# negative-part basis, duals, coordinates


def sl_neg_basis(n: int):
    m = 2 * n + 2
    out = []
    for k in range(2 * n):
        out.append(SlElement(n, _unit(m, 2 + k, 0)))
    out.append(SlElement(n, _unit(m, 1, 0)))
    for k in range(2 * n):
        out.append(SlElement(n, _unit(m, 2 + k, 1)))
    return out


def sl_neg_duals(n: int):
    """Trace-form duals of sl_neg_basis, inside the positive part."""
    m = 2 * n + 2
    out = []
    for k in range(2 * n):
        out.append(SlElement(n, _unit(m, 0, 2 + k)))
    out.append(SlElement(n, _unit(m, 0, 1)))
    for k in range(2 * n):
        out.append(SlElement(n, _unit(m, 1, 2 + k)))
    return out


def sl_neg_slots(n: int):
    return ["m2"] * (2 * n) + ["m1E"] + ["m1V"] * (2 * n)


def sl_neg_degrees(n: int):
    return [-2] * (2 * n) + [-1] + [-1] * (2 * n)


def sl_neg_coordinates(x: SlElement):
    """Coordinates of the negative part of x in the sl_neg_basis order."""
    n = x.n
    coords = [x.mat[2 + i, 0] for i in range(2 * n)]
    coords.append(x.mat[1, 0])
    coords.extend(x.mat[2 + i, 1] for i in range(2 * n))
    return coords


def _unit(m, i, j):
    rows = [[Fraction(0)] * m for _ in range(m)]
    rows[i][j] = Fraction(1)
    return Mat(rows)


# ---------------------------------------------------------------------------
# structure constants and Jacobi, over the elementary basis


def sl_full_basis(n: int):
    """Basis of sl(2n+2): off-diagonal units E_(a,b) in row-major order,
    then H_i = E_(i,i) - E_(i+1,i+1)."""
    m = 2 * n + 2
    basis = [_unit(m, a, b) for a in range(m) for b in range(m) if a != b]
    for i in range(m - 1):
        basis.append(_unit(m, i, i) - _unit(m, i + 1, i + 1))
    return [SlElement(n, b) for b in basis]


def _sl_coordinates(rows):
    """Coordinates of a trace-free integer matrix, given as rows, in the
    sl_full_basis order; the diagonal part is expanded over the H_i by
    prefix sums."""
    m = len(rows)
    coords = [rows[a][b] for a in range(m) for b in range(m) if a != b]
    diag = [rows[i][i] for i in range(m)]
    if sum(diag) != 0:
        raise ValueError("diagonal part has nonzero trace")
    prefix = 0
    for d in diag[:-1]:
        prefix += d
        coords.append(prefix)
    return coords


def sl_structure_constants(n: int):
    """Structure-constant table of sl(2n+2) over sl_full_basis, a read-only
    mapping (a, b) -> {c: coeff} (see `linalg.structure_table`)."""
    return structure_table([b.mat for b in sl_full_basis(n)], _sl_coordinates)


def sl_jacobi_check(n: int):
    """Jacobi identity on the full sl(2n+2) basis via its structure-constant
    table. Returns (triples_checked, failures)."""
    dim = (2 * n + 2) ** 2 - 1
    return dim ** 3, jacobi_failures(sl_structure_constants(n), dim)
