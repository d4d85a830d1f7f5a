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

from .linalg import Mat, commutator, jacobi_failures, rat

SLOTS = ("m2", "m1E", "m1V", "g0", "p1E", "p1V", "p2")

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

    def slot_project(self, slot: str) -> "SlElement":
        if slot not in SLOTS:
            raise ValueError("unknown slot %r" % slot)
        n = self.n
        rows = [[e if _slot_of(i, j, n) == slot else Fraction(0)
                 for j, e in enumerate(r)] for i, r in enumerate(self.mat.data)]
        return SlElement(n, Mat(rows))

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
# structure constants and Jacobi, over the sparse elementary basis


def sl_full_basis_sparse(m: int):
    """Basis of sl(m) as sparse {(i,j): coeff} dicts: off-diagonal units
    E_(a,b) in row-major order, then H_i = E_(i,i) - E_(i+1,i+1)."""
    basis = []
    for a in range(m):
        for b in range(m):
            if a != b:
                basis.append({(a, b): 1})
    for i in range(m - 1):
        basis.append({(i, i): 1, (i + 1, i + 1): -1})
    return basis


def _sparse_comm(x, y):
    acc = {}
    for (r, c), v in x.items():
        for (r2, c2), u in y.items():
            if c == r2:
                acc[(r, c2)] = acc.get((r, c2), 0) + v * u
            if c2 == r:
                acc[(r2, c)] = acc.get((r2, c), 0) - u * v
    return {k: v for k, v in acc.items() if v}


def _sparse_coordinates(m: int, x):
    """Coordinates in the sl_full_basis_sparse order; the diagonal part is
    expanded over the H_i by prefix sums (the trace must vanish)."""
    coords = []
    for a in range(m):
        for b in range(m):
            if a != b:
                coords.append(x.get((a, b), 0))
    diag = [x.get((i, i), 0) for i in range(m)]
    if sum(diag) != 0:
        raise ValueError("diagonal part has nonzero trace")
    prefix = 0
    for i in range(m - 1):
        prefix += diag[i]
        coords.append(prefix)
    return coords


def sl_jacobi_check(n: int):
    """Jacobi identity on the full sl(2n+2) basis via the sparse
    structure-constant table. Returns (triples_checked, failures)."""
    m = 2 * n + 2
    basis = sl_full_basis_sparse(m)
    dim = len(basis)
    table = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            coords = _sparse_coordinates(m, _sparse_comm(basis[a], basis[b]))
            sparse = {c: v for c, v in enumerate(coords) if v}
            table[(a, b)] = sparse
            table[(b, a)] = {c: -v for c, v in sparse.items()}
    return dim ** 3, jacobi_failures(table, dim)
