"""Exact dense linear algebra over Fraction, plus the few float helpers
needed for sampling and derivative checks.

Every identity asserted anywhere in this package runs over
`fractions.Fraction`. Floats appear only in `exp_float` and in trajectory
export. Matrices are immutable, dense and row-major; the largest are the
(2n+2) x (2n+2) matrices of sl(2n+2), 14 x 14 at n = 6 (signature (3, 3),
the largest the CI smoke run covers), so elimination (`_rref`, `det`) is
plain cubic Gauss-Jordan over Fraction with exact pivoting.

Products and commutators of all-Fraction matrices go through one exact
integer kernel: each factor is scaled to integers over the lcm of its entry
denominators and read as sparse rows, the sums run over Python ints, and
one Fraction is built per nonzero output entry. Matrices of floats,
`DualRat` or mixed types are multiplied entry by entry (`_dot`).

Commutators have one integer loop, `_commutator_rows`. `commutator` runs it
on the scaled rows of two matrices, and `structure_table` runs it on every
pair of an integer basis to build the structure-constant table of either
algebra (so(p+2, q+2) and sl(2n+2)) that `jacobi_failures` checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

Rat = Fraction


def rat(x) -> Fraction:
    """Coerce to Fraction. Floats are rejected on purpose: silent
    binary-to-rational conversion is how exactness dies."""
    if isinstance(x, float):
        raise TypeError("refusing to coerce float %r to a rational" % x)
    return Fraction(x)


def rat_sqrt(x: Fraction) -> Fraction:
    """Exact square root of a perfect-square rational, else ValueError."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand %s" % x)
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise ValueError("%s is not a perfect rational square" % x)
    return Fraction(rn, rd)


class DualRat:
    """First-order jet re + eps*du with eps^2 = 0, exact over Fraction.

    Just enough calculus to differentiate matrix expressions built from
    rational operations and square roots at rational base points; used for
    the exact derivative path of the group embedding.
    """

    __slots__ = ("re", "du")

    def __init__(self, re, du=0):
        self.re = rat(re)
        self.du = rat(du)

    def __add__(self, other):
        other = _dual(other)
        return DualRat(self.re + other.re, self.du + other.du)

    __radd__ = __add__

    def __neg__(self):
        return DualRat(-self.re, -self.du)

    def __sub__(self, other):
        return self + (-_dual(other))

    def __rsub__(self, other):
        return _dual(other) + (-self)

    def __mul__(self, other):
        other = _dual(other)
        return DualRat(self.re * other.re, self.re * other.du + self.du * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _dual(other)
        if other.re == 0:
            raise ZeroDivisionError("dual number with zero base point")
        re = self.re / other.re
        return DualRat(re, (self.du - re * other.du) / other.re)

    def __rtruediv__(self, other):
        return _dual(other) / self

    def __abs__(self):
        if self.re > 0:
            return self
        if self.re < 0:
            return -self
        raise ValueError("abs of a dual number with zero base point is not smooth")

    def sqrt(self):
        s = rat_sqrt(self.re)
        if s == 0:
            raise ValueError("sqrt of a dual number at base point 0 is not smooth")
        return DualRat(s, self.du / (2 * s))

    def __eq__(self, other):
        other = _dual(other)
        return self.re == other.re and self.du == other.du

    def __hash__(self):
        return hash((self.re, self.du))

    def __repr__(self):
        return "DualRat(%s, %s)" % (self.re, self.du)


def _dual(x):
    if isinstance(x, DualRat):
        return x
    return DualRat(x)


class Mat:
    """Immutable dense matrix over whatever field elements it is fed
    (Fraction, float, DualRat). Arithmetic never mutates."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_data):
        data = tuple(tuple(r) for r in rows_data)
        if not data or not data[0]:
            raise ValueError("empty matrix")
        if any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]))

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # constructors

    @classmethod
    def zeros(cls, rows, cols, zero=Fraction(0)):
        return cls([[zero] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n, one=Fraction(1)):
        z = one - one
        return cls([[one if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else Fraction(0) for j in range(n)]
                    for i in range(n)])

    @classmethod
    def col(cls, entries):
        return cls([[e] for e in entries])

    @classmethod
    def block(cls, grid):
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
        return cls(rows)

    # access

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(r[j] for r in self.data)

    def submat(self, r0, r1, c0, c1):
        """Block self[r0:r1, c0:c1]."""
        return Mat([r[c0:c1] for r in self.data[r0:r1]])

    # arithmetic

    def __add__(self, other):
        _same_shape(self, other)
        return Mat([[a + b for a, b in zip(ra, rb)]
                    for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other):
        _same_shape(self, other)
        return Mat([[a - b for a, b in zip(ra, rb)]
                    for ra, rb in zip(self.data, other.data)])

    def __neg__(self):
        return Mat([[-a for a in r] for r in self.data])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ValueError("shape mismatch %sx%s * %sx%s"
                                 % (self.rows, self.cols, other.rows, other.cols))
            sa = _scaled_rows(self)
            sb = sa and _scaled_rows(other)
            if sb:
                (rows_a, da), (rows_b, db) = sa, sb
                out = []
                for ra in rows_a:
                    acc = [0] * other.cols
                    _addmul(acc, ra, rows_b, 1)
                    out.append(acc)
                return _from_ints(out, da * db)
            cols = [other.column(j) for j in range(other.cols)]
            return Mat([[_dot(r, c) for c in cols] for r in self.data])
        return Mat([[a * other for a in r] for r in self.data])

    def __rmul__(self, scalar):
        return Mat([[scalar * a for a in r] for r in self.data])

    @property
    def T(self):
        return Mat([self.column(j) for j in range(self.cols)])

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        t = self.data[0][0]
        for i in range(1, self.rows):
            t = t + self.data[i][i]
        return t

    def is_zero(self):
        return all(a == 0 for r in self.data for a in r)

    def map(self, fn):
        return Mat([[fn(a) for a in r] for r in self.data])

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and all(a == b for ra, rb in zip(self.data, other.data)
                        for a, b in zip(ra, rb)))

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return "Mat(%s)" % [list(r) for r in self.data]


def _same_shape(a, b):
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("shape mismatch %sx%s vs %sx%s"
                         % (a.rows, a.cols, b.rows, b.cols))


def _dot(r, c):
    acc = r[0] * c[0]
    for a, b in zip(r[1:], c[1:]):
        acc = acc + a * b
    return acc


# The exact product kernel. A matrix whose entries are all Fractions is
# scaled to integers over one common denominator d (the lcm of its entry
# denominators) and kept as sparse rows of (column, int) pairs, so a
# product costs one Python int multiply-add per pair of nonzero entries
# that meet and one Fraction per nonzero output entry. Any other element
# type (float, DualRat, int, a mix) takes the entrywise `_dot` path.

_ZERO = Fraction(0)


def _scaled_rows(m: Mat):
    """(rows, d) with row i of m equal to rows[i] / d, rows[i] the
    (column, int) pairs of its nonzero entries; None unless every entry
    of m is a Fraction."""
    d = 1
    rows = []
    for r in m.data:
        row = []
        for j, e in enumerate(r):
            if type(e) is not Fraction:
                return None
            x = e.numerator
            if x:
                q = e.denominator
                if q != 1:
                    d = math.lcm(d, q)
                row.append((j, x, q))
        rows.append(row)
    return [[(j, x * (d // q)) for j, x, q in r] for r in rows], d


def _addmul(acc, row, rows, sign):
    """acc += sign * (row times the matrix whose sparse rows are rows)."""
    for k, x in row:
        x *= sign
        for j, y in rows[k]:
            acc[j] += x * y


def _from_ints(rows, d):
    """Mat of the Fractions x / d for the integer rows, sharing one zero."""
    if d == 1:  # Fraction(x) skips the gcd that Fraction(x, 1) pays for
        return Mat([[Fraction(x) if x else _ZERO for x in r] for r in rows])
    return Mat([[Fraction(x, d) if x else _ZERO for x in r] for r in rows])


def _commutator_rows(rows_a, rows_b, n):
    """Dense integer rows of A·B − B·A for the sparse integer rows of two
    n x n matrices A and B: the one commutator loop of the package."""
    out = []
    for ra, rb in zip(rows_a, rows_b):
        acc = [0] * n
        _addmul(acc, ra, rows_b, 1)
        _addmul(acc, rb, rows_a, -1)
        out.append(acc)
    return out


def commutator(a: Mat, b: Mat) -> Mat:
    n = a.rows
    sa = n == a.cols == b.rows == b.cols and _scaled_rows(a)
    sb = sa and _scaled_rows(b)
    if not sb:
        return a * b - b * a
    # a*b and b*a share the denominator da*db: one integer array holds both
    (rows_a, da), (rows_b, db) = sa, sb
    return _from_ints(_commutator_rows(rows_a, rows_b, n), da * db)


def structure_table(basis, coordinates):
    """Structure constants of the Lie algebra spanned by the integer square
    matrices `basis`: a read-only mapping (a, b) -> {c: coeff} over all
    pairs a != b, with [x_a, x_b] = sum coeff * x_c. `coordinates` maps
    the dense integer rows of a commutator to its integer coordinates in
    the basis order (and raises when the commutator leaves the algebra).
    Each unordered pair is bracketed once; its reverse is the negation.
    Neither level of the mapping is writable."""
    n = basis[0].rows
    rows = []
    for m in basis:
        scaled = m.rows == m.cols == n and _scaled_rows(m)
        if not scaled or scaled[1] != 1:
            raise ValueError("structure constants need square integer basis "
                             "matrices of one size")
        rows.append(scaled[0])
    table = {}
    for a, ra in enumerate(rows):
        for b in range(a + 1, len(rows)):
            comm = _commutator_rows(ra, rows[b], n)
            sparse = {c: v for c, v in enumerate(coordinates(comm)) if v}
            table[(a, b)] = MappingProxyType(sparse)
            table[(b, a)] = MappingProxyType(
                {c: -v for c, v in sparse.items()})
    return MappingProxyType(table)


def _pivot_key(e):
    # partial pivot by smallest numerator magnitude, ties by denominator;
    # keeps coefficient growth tame without full fraction-free bookkeeping
    if isinstance(e, Fraction):
        return (abs(e.numerator), e.denominator)
    return (abs(e), 1)


def _rref(rows, nr, nc):
    """In-place reduced row echelon form. Returns list of pivot columns."""
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        best = None
        for i in range(r, nr):
            e = rows[i][c]
            if e != 0:
                key = _pivot_key(e)
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            continue
        i = best[1]
        rows[r], rows[i] = rows[i], rows[r]
        piv = rows[r][c]
        rows[r] = [e / piv for e in rows[r]]
        for i2 in range(nr):
            if i2 != r and rows[i2][c] != 0:
                f = rows[i2][c]
                rows[i2] = [a - f * b for a, b in zip(rows[i2], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def rank_kernel(m: Mat):
    """Exact rank and a basis of the right kernel, as column matrices."""
    rows = [list(r) for r in m.data]
    pivots = _rref(rows, m.rows, m.cols)
    rank = len(pivots)
    pivset = set(pivots)
    basis = []
    for fc in range(m.cols):
        if fc in pivset:
            continue
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -rows[pr][fc]
        basis.append(Mat.col(v))
    return rank, basis


def solve_linear(a: Mat, b: Mat):
    """Some exact solution x of a*x = b, or None when inconsistent.
    Free variables are set to zero."""
    if b.cols != 1:
        raise ValueError("right hand side must be a column")
    if a.rows != b.rows:
        raise ValueError("a has %d rows but b has %d" % (a.rows, b.rows))
    rows = [list(ra) + [rb[0]] for ra, rb in zip(a.data, b.data)]
    pivots = _rref(rows, a.rows, a.cols + 1)
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for pr, pc in enumerate(pivots):
        x[pc] = rows[pr][a.cols]
    return Mat.col(x)


def invert(m: Mat) -> Mat:
    """Exact inverse, ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    rows = [list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i, r in enumerate(m.data)]
    pivots = _rref(rows, n, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return Mat([r[n:] for r in rows])


def det(m: Mat) -> Fraction:
    """Exact determinant by elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    rows = [list(r) for r in m.data]
    n = m.rows
    d = Fraction(1)
    for c in range(n):
        piv = None
        for i in range(c, n):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            d = -d
        d *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return d


def exp_nilpotent(m: Mat, nilpotency_bound: int) -> Mat:
    """Exact exp of a nilpotent matrix: sum_{j<k} m^j / j! where m^k = 0.

    Raises ValueError naming the power that failed to vanish when m is not
    nilpotent within the stated bound.
    """
    if m.rows != m.cols:
        raise ValueError("exp of a non-square matrix")
    powers = []  # m, m^2, ... up to the last nonzero power
    p = m
    for _ in range(nilpotency_bound):
        if p.is_zero():
            break
        powers.append(p)
        p = p * m
    else:
        raise ValueError("m^%d != 0, not nilpotent within the stated bound"
                         % nilpotency_bound)
    result = Mat.identity(m.rows)
    for j, p in enumerate(powers, 1):
        result = result + p * Fraction(1, math.factorial(j))
    return result


def exp_float(m: Mat) -> Mat:
    """Matrix exponential of a float matrix by scaling and squaring with a
    Taylor tail summed to machine precision."""
    if m.rows != m.cols:
        raise ValueError("exp of a non-square matrix")
    fm = m.map(float)
    if not all(math.isfinite(e) for r in fm.data for e in r):
        raise OverflowError("non-finite entries in exp_float input")
    norm = max(sum(abs(e) for e in r) for r in fm.data)
    s = 0
    if norm > 0.5:
        s = max(0, math.ceil(math.log2(norm / 0.5)))
    a = fm.map(lambda e: e / float(2 ** s))
    n = m.rows
    result = Mat.identity(n, one=1.0)
    term = Mat.identity(n, one=1.0)
    for j in range(1, 40):
        term = (term * a).map(lambda e: e / j)
        result = result + term
        if max(abs(e) for r in term.data for e in r) < 1e-20:
            break
    for _ in range(s):
        result = result * result
    if not all(math.isfinite(e) for r in result.data for e in r):
        raise OverflowError("overflow in exp_float")
    return result


def max_abs(m: Mat) -> float:
    return max(abs(float(e)) for r in m.data for e in r)


def jacobi_failures(table, dim: int) -> int:
    """Number of ordered basis triples (a, b, c) on which the Jacobi
    identity fails for the structure-constant table, a mapping
    (a, b) -> {c: coeff} (as `structure_table` builds it) with
    [x_a, x_b] = sum coeff * x_c over a basis of size dim (missing pairs
    bracket to zero)."""
    failures = 0
    for a in range(dim):
        for b in range(dim):
            tab_ab = table.get((a, b), {})
            for c in range(dim):
                acc = {}
                for e, v in tab_ab.items():
                    for f, u in table.get((e, c), {}).items():
                        acc[f] = acc.get(f, 0) + v * u
                for e, v in table.get((b, c), {}).items():
                    for f, u in table.get((e, a), {}).items():
                        acc[f] = acc.get(f, 0) + v * u
                for e, v in table.get((c, a), {}).items():
                    for f, u in table.get((e, b), {}).items():
                        acc[f] = acc.get(f, 0) + v * u
                if any(val != 0 for val in acc.values()):
                    failures += 1
    return failures
