"""Exact dense linear algebra over Fraction, plus the few float helpers
needed for sampling and derivative checks.

Every identity asserted anywhere in this package runs over
`fractions.Fraction`. Floats appear only in `exp_float` and in trajectory
export. Matrices are immutable, dense and row-major; the largest are the
(2n+2) x (2n+2) matrices of sl(2n+2), 14 x 14 at n = 6 (signature (3, 3),
the largest the CI smoke run covers).

`Mat` is a plain entrywise matrix: each of its operations has one code
path, which applies the entry type's own arithmetic, so a product of
Fractions runs Fraction arithmetic and a product of floats sums its terms
in column order (`_dot`). Exact work of any size is written on the one
integer type, `IntMat`: a rational matrix held as integers over one
positive denominator. Every exact product, commutator, sum and Gram check
of the package's routes runs on it, and it builds one Fraction per nonzero
entry only when it goes back to a `Mat`. Floats are summed left to right
(`plain_sum`), so no Python version's `sum()` enters a float result.

`structure_table` brackets every pair of an integer basis to build the
structure-constant table of either algebra (so(p+2, q+2) and sl(2n+2))
that `jacobi_failures` checks. Rank, kernel, solve, inverse and
determinant share one fraction-free Gauss-Jordan elimination on rows of
Fractions scaled to integers, `_eliminate`; its integer core, `bareiss`,
also solves the Cayley transform of `samplers.rand_opq`.

The forms S and Ipq are symmetric signed permutations, kept per signature
as `SignedPerm` tables. A product with one (`left`,
`conjugate_transpose`) moves entries and flips signs, and the Gram check
reads a table as the one +-1 per row it is, so no form check scans a
form.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import MappingProxyType


def rat(x) -> Fraction:
    """Coerce to Fraction. Floats are rejected on purpose: silent
    binary-to-rational conversion is how exactness dies. A Fraction comes
    back as it is (Fractions are immutable)."""
    if type(x) is Fraction:
        return x
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


class Mat:
    """Immutable dense matrix over whatever field elements it is fed
    (Fraction, float, or any number type with the field operations).
    Arithmetic never mutates."""

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


# the shared zero of the Fractions that IntMat.to_mat builds
_ZERO = Fraction(0)


def _dot(r, c):
    pairs = zip(r, c)
    a, b = next(pairs)
    acc = a * b
    for a, b in pairs:
        acc = acc + a * b
    return acc


class IntMat:
    """A rational matrix held as integers over one positive denominator d:
    entry (i, j) is the integer at (i, j) divided by d.

    The integers keep the form that made them: `sparse` rows of (column,
    int) pairs of the nonzero entries when read from a `Mat`, `dense` rows
    from a product, a commutator or a combination; the other form is
    derived once, on first use. Immutable by contract: nothing sets its
    fields after it is made or writes the rows it hands out. Assignment is
    not blocked: a guarded constructor costs three times as much, and a
    product makes three."""

    __slots__ = ("d", "rows", "cols", "_dense", "_sparse")

    def __init__(self, d, cols, dense=None, sparse=None):
        """The rows of one form, taken as they are, over d: dense rows over a
        nonzero d (its sign moves into them), or sparse rows over d > 0,
        whose (column, int) pairs cover every nonzero entry."""
        if d < 0:
            dense, d = [[-x for x in r] for r in dense], -d
        if not d:
            raise ValueError("the denominator must be nonzero")
        self.d = d
        self.rows = len(dense if sparse is None else sparse)
        self.cols = cols
        self._dense = dense
        self._sparse = sparse

    @classmethod
    def of(cls, m: Mat) -> IntMat:
        """m over the lcm of its entry denominators. Integer entries are
        read as rationals, and floats are refused (TypeError)."""
        return _scaled_rows(m) or _scaled_rows(m.map(rat))

    @classmethod
    def aligned(cls, ints):
        """The IntMats ints over one common denominator: the lcm of their
        own."""
        d = math.lcm(*[s.d for s in ints])
        return [s if s.d == d else
                cls(d, s.cols, sparse=[[(j, x * (d // s.d)) for j, x in r]
                                       for r in s.sparse])
                for s in ints]

    @property
    def dense(self):
        """The integers, row by row."""
        if self._dense is None:
            self._dense = [[0] * self.cols for _ in self._sparse]
            for row, r in zip(self._dense, self._sparse):
                for j, x in r:
                    row[j] = x
        return self._dense

    @property
    def sparse(self):
        """Each row as (column, int) pairs that cover its nonzero integers."""
        if self._sparse is None:
            self._sparse = [[(j, x) for j, x in enumerate(r) if x]
                            for r in self._dense]
        return self._sparse

    def is_zero(self) -> bool:
        return not any(map(any, self.dense))

    def to_mat(self) -> Mat:
        """The Mat of the Fractions, one built per nonzero entry; the zero
        entries share one zero."""
        d = self.d
        if d == 1:  # Fraction(x) skips the gcd that Fraction(x, 1) pays for
            return Mat([[Fraction(x) if x else _ZERO for x in r]
                        for r in self.dense])
        return Mat([[Fraction(x, d) if x else _ZERO for x in r]
                    for r in self.dense])

    def __mul__(self, other: IntMat) -> IntMat:
        """The product, over the product of the two denominators."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch %sx%s * %sx%s"
                             % (self.rows, self.cols, other.rows, other.cols))
        rows_b = other.sparse
        out = []
        for ra in self.sparse:
            acc = [0] * other.cols
            _addmul(acc, ra, rows_b, 1)
            out.append(acc)
        return IntMat(self.d * other.d, other.cols, out)

    def commutator(self, other: IntMat) -> IntMat:
        """self·other − other·self of two square matrices of one size, over
        the product of the two denominators."""
        n = self.cols
        if not n == self.rows == other.rows == other.cols:
            raise ValueError("a commutator needs square matrices of one size")
        rows_a, rows_b = self.sparse, other.sparse
        out = []
        for ra, rb in zip(rows_a, rows_b):
            acc = [0] * n
            _addmul(acc, ra, rows_b, 1)
            _addmul(acc, rb, rows_a, -1)
            out.append(acc)
        return IntMat(self.d * other.d, n, out)

    @staticmethod
    def combination(terms) -> IntMat:
        """The sum of c·m over a nonempty list of terms (c, m), each c an int
        or a Fraction and every m of one shape, taken over the lcm of
        c.denominator·m.d for the terms with c != 0. After the first term,
        a term adds its sparse rows when it has them, else its dense rows."""
        rows, cols = terms[0][1].rows, terms[0][1].cols
        if any(m.rows != rows or m.cols != cols for _, m in terms):
            raise ValueError("a combination needs matrices of one shape")
        live = [(c, m) for c, m in terms if c]
        d = math.lcm(*[c.denominator * m.d for c, m in live])
        acc = [[0] * cols for _ in range(rows)] if not live else None
        for c, m in live:
            f = c.numerator * (d // (c.denominator * m.d))
            if acc is None:  # the first term starts the sum
                acc = [r[:] if f == 1 else [f * x for x in r] for r in m.dense]
            elif m._sparse is not None:
                for out, row in zip(acc, m._sparse):
                    for j, x in row:
                        out[j] += f * x
            elif f == 1:
                acc = [[x + y for x, y in zip(a, r)]
                       for a, r in zip(acc, m._dense)]
            else:
                acc = [[x + f * y for x, y in zip(a, r)]
                       for a, r in zip(acc, m._dense)]
        return IntMat(d, cols, acc)

    def equals(self, other: IntMat, up_to_sign: bool = False) -> bool:
        """Whether this matrix equals other, or with up_to_sign, equals
        other or -other. For self = A/a and other = B/b it compares b·A
        with a·B row by row and builds no Fraction. ValueError on shapes
        that differ."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch %sx%s vs %sx%s"
                             % (self.rows, self.cols, other.rows, other.cols))
        a, b = self.d, other.d
        plus, minus = True, up_to_sign
        for ra, rb in zip(self.dense, other.dense):
            left = [b * x for x in ra]
            right = [a * y for y in rb]
            plus = plus and left == right
            minus = minus and left == [-y for y in right]
            if not (plus or minus):
                return False
        return True

    def gram_equals(self, s: SignedPerm,
                    target: SignedPerm | None = None) -> bool:
        """Whether a^T·s·a, for this matrix a and the form s, equals target,
        or is zero when target is None: with a = A / d it compares A^T·S·A
        with d²·T entry by entry. s and target are `SignedPerm`s, read as
        the one +-1 per row they are; ValueError on shapes that misfit."""
        n = self.cols
        if self.rows != s.rows or target is not None and target.rows != n:
            raise ValueError("shape mismatch: a^T·s·a needs an s with as "
                             "many rows as a and an %dx%d target" % (n, n))
        rows = self.sparse
        gram = [[0] * n for _ in range(n)]
        # A^T·(S·A) by outer products; row i of S·A is signs[i]·A[perm[i]]
        for ra, k, t in zip(rows, s.perm, s.signs):
            rk = rows[k]
            for i, x in ra:
                gi = gram[i]
                x *= t
                for j, y in rk:
                    gi[j] += x * y
        if target is None:
            return not any(map(any, gram))
        scale = self.d * self.d
        for g, k, t in zip(gram, target.perm, target.signs):
            want = [0] * n
            want[k] = t * scale
            if g != want:
                return False
        return True


def _scaled_rows(m: Mat):
    """m as an IntMat over the lcm of its entry denominators; None unless
    every entry of m is a Fraction."""
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
    return IntMat(d, m.cols, None,
                  [[(j, x * (d // q)) for j, x, q in r] for r in rows])


def _addmul(acc, row, rows, sign):
    """acc += sign * (row times the matrix whose sparse rows are rows)."""
    for k, x in row:
        x *= sign
        for j, y in rows[k]:
            acc[j] += x * y


class SignedPerm:
    """A symmetric signed permutation matrix P, given by its rows: P has
    signs[i] = +-1 at (i, perm[i]) and zeros elsewhere, and P = P^T (perm
    is an involution and signs[perm[i]] = signs[i]), so P^2 = I. Products
    with P move entries and flip signs and do no other arithmetic. The
    forms S and Ipq of `so_contact` are of this kind. Immutable; `rows`
    and `cols` give its shape as a Mat's do."""

    __slots__ = ("perm", "signs")

    def __init__(self, perm, signs):
        perm, signs = tuple(perm), tuple(signs)
        if (sorted(perm) != list(range(len(perm))) or len(signs) != len(perm)
                or any(s not in (1, -1) for s in signs)
                or any(perm[k] != i or signs[k] != signs[i]
                       for i, k in enumerate(perm))):
            raise ValueError("not a symmetric signed permutation: %r, %r"
                             % (perm, signs))
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs)

    def __setattr__(self, name, value):
        raise AttributeError("SignedPerm is immutable")

    @property
    def rows(self):
        return len(self.perm)

    cols = rows

    def _fits(self, side):
        k = len(self.perm)
        if side != k:
            raise ValueError("shape mismatch: a %dx%d signed permutation "
                             "against a side of %d" % (k, k, side))

    def left(self, m: Mat) -> Mat:
        """P·m: row i is signs[i] times row perm[i] of m."""
        self._fits(m.rows)
        data = m.data
        return Mat([data[k] if s > 0 else [-e for e in data[k]]
                    for k, s in zip(self.perm, self.signs)])

    def conjugate_transpose(self, m):
        """P·m^T·P, for a Mat m or an IntMat m (then over m's denominator):
        entry (i, j) is signs[i]·signs[j]·m[perm j][perm i]."""
        self._fits(m.rows)
        self._fits(m.cols)
        exact = isinstance(m, IntMat)
        data = m.dense if exact else m.data
        cols = tuple(zip(self.perm, self.signs))
        rows = [[data[k][l] if s * t > 0 else -data[k][l]
                 for k, s in cols] for l, t in cols]
        return IntMat(m.d, m.cols, rows) if exact else Mat(rows)


def structure_table(basis, coordinates):
    """Structure constants of the Lie algebra spanned by the integer square
    matrices `basis`, IntMats over the denominator 1: a mapping
    (a, b) -> {c: coeff}, read-only at both levels, over all pairs a != b,
    with [x_a, x_b] = sum coeff * x_c; each unordered pair is bracketed
    once and its reverse negated. `coordinates` maps the dense integer rows
    of a commutator to its integer coordinates in the basis order (and
    raises when the commutator leaves the algebra). ValueError unless the
    basis matrices have the denominator 1 and are square of one size."""
    if any(m.d != 1 for m in basis):
        raise ValueError("structure constants need integer basis matrices")
    table = {}
    for a, ia in enumerate(basis):
        for b in range(a + 1, len(basis)):
            comm = ia.commutator(basis[b]).dense
            sparse = {c: v for c, v in enumerate(coordinates(comm)) if v}
            table[(a, b)] = MappingProxyType(sparse)
            table[(b, a)] = MappingProxyType(
                {c: -v for c, v in sparse.items()})
    return MappingProxyType(table)


def _eliminate(rows):
    """Fraction-free Gauss-Jordan elimination (`bareiss`) of the rows of
    Fractions `rows`, each first scaled to integers by its lcm. Returns
    (rows, pivots, d, sign, scale): the integer rows are d times the
    reduced row echelon form, d the last pivot (1 if none), sign the parity
    of the row swaps and scale the product of the row lcms, so a square
    full-rank input has determinant sign * d / scale. TypeError on any
    entry that is not a Fraction."""
    out = []
    scale = 1
    for r in rows:
        if any(type(e) is not Fraction for e in r):
            raise TypeError("elimination needs Fraction entries: %r" % (r,))
        lcm = math.lcm(*[e.denominator for e in r])
        out.append([e.numerator * (lcm // e.denominator) for e in r])
        scale *= lcm
    return (*bareiss(out), scale)


def bareiss(out):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of the integer
    rows `out`, which it overwrites. A pivot p sets every other row to
    (p * row - row[c] * pivot row) / p_prev, exact by Sylvester's identity.
    Returns (rows, pivots, d, sign): the rows are d times the reduced row
    echelon form of the input, d the last pivot (1 if none) and sign the
    parity of the row swaps."""
    pivots = []
    sign = prev = 1
    for c in range(len(out[0])):
        r = len(pivots)
        i = next((i for i in range(r, len(out)) if out[i][c]), None)
        if i is None:
            continue
        if i != r:
            out[r], out[i] = out[i], out[r]
            sign = -sign
        prow = out[r]
        piv = prow[c]
        for k, row in enumerate(out):
            f = row[c]
            if k != r and f:
                out[k] = [(piv * x - f * y) // prev for x, y in zip(row, prow)]
            elif k != r and piv != prev:
                out[k] = [piv * x // prev for x in row]
        pivots.append(c)
        prev = piv
    return out, pivots, prev, sign


def rank_kernel(m: Mat):
    """Exact rank and a basis of the right kernel, as column matrices."""
    rows, pivots, d, _, _ = _eliminate(m.data)
    pivset = set(pivots)
    basis = []
    for fc in range(m.cols):
        if fc in pivset:
            continue
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            v[pc] = Fraction(-rows[pr][fc], d)
        basis.append(Mat.col(v))
    return len(pivots), basis


def solve_linear(a: Mat, b: Mat):
    """Some exact solution x of a*x = b, or None when inconsistent.
    Free variables are set to zero."""
    if b.cols != 1:
        raise ValueError("right hand side must be a column")
    if a.rows != b.rows:
        raise ValueError("a has %d rows but b has %d" % (a.rows, b.rows))
    rows, pivots, d, _, _ = _eliminate(
        [ra + rb for ra, rb in zip(a.data, b.data)])
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for pr, pc in enumerate(pivots):
        x[pc] = Fraction(rows[pr][a.cols], d)
    return Mat.col(x)


def invert(m: Mat) -> Mat:
    """Exact inverse, ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    rows, pivots, d, _, _ = _eliminate(
        [r + e for r, e in zip(m.data, Mat.identity(n).data)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return IntMat(d, n, dense=[r[n:] for r in rows]).to_mat()


def det(m: Mat) -> Fraction:
    """Exact determinant by elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    _, pivots, d, sign, scale = _eliminate(m.data)
    if len(pivots) < m.rows:
        return Fraction(0)
    return Fraction(sign * d, scale)


def exp_nilpotent(m, nilpotency_bound: int):
    """Exact exp of a nilpotent matrix: sum_{j<k} m^j / j! where m^k = 0,
    for m a Mat or an IntMat; the result is of the kind given.

    Raises ValueError naming the power that failed to vanish when m is not
    nilpotent within the stated bound. Integer entries of a Mat are read as
    rationals, and floats are refused (TypeError)."""
    if m.rows != m.cols:
        raise ValueError("exp of a non-square matrix")
    n = m.rows
    p = mi = m if isinstance(m, IntMat) else IntMat.of(m)
    terms = [(1, IntMat(1, n, sparse=[[(i, 1)] for i in range(n)]))]
    for j in range(1, nilpotency_bound + 1):
        if p.is_zero():
            break
        terms.append((Fraction(1, math.factorial(j)), p))
        p = p * mi
    else:
        raise ValueError("m^%d != 0, not nilpotent within the stated bound"
                         % nilpotency_bound)
    out = IntMat.combination(terms)
    return out if mi is m else out.to_mat()


def exp_float(m):
    """Matrix exponential of a square float matrix, given as a Mat or as its
    rows, by scaling and squaring with a Taylor tail summed to machine
    precision; the result is of the kind given. Runs on rows of floats; each
    product sums its terms in column order, as `Mat.__mul__` does on
    floats, and each row norm left to right (`plain_sum`)."""
    rows = m.data if isinstance(m, Mat) else m
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("exp of a non-square matrix")
    fm = [[float(e) for e in r] for r in rows]
    if not all(map(math.isfinite, itertools.chain.from_iterable(fm))):
        raise OverflowError("non-finite entries in exp_float input")
    norm = max(plain_sum(map(abs, r)) for r in fm)
    s = 0
    if norm > 0.5:
        s = max(0, math.ceil(math.log2(norm / 0.5)))
    scale = float(2 ** s)
    a = [[e / scale for e in r] for r in fm]
    result = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    term, cols = result, list(zip(*a))
    for j in range(1, 40):
        term = [[_dot(r, c) / j for c in cols] for r in term]  # term·a / j
        result = [[x + y for x, y in zip(r, t)] for r, t in zip(result, term)]
        if max(map(abs, itertools.chain.from_iterable(term))) < 1e-20:
            break
    for _ in range(s):
        result = _float_product(result, result)
    if not all(map(math.isfinite, itertools.chain.from_iterable(result))):
        raise OverflowError("overflow in exp_float")
    return Mat(result) if isinstance(m, Mat) else result


def plain_sum(values) -> float:
    """The float sum of values, added left to right from 0.0, as `sum()` did
    before Python 3.12; `sum()` of floats is compensated since, so its last
    digits depend on the version."""
    acc = 0.0
    for x in values:
        acc += x
    return acc


def _float_product(a, b):
    """The product of two square matrices given as rows of floats."""
    cols = list(zip(*b))
    return [[_dot(r, c) for c in cols] for r in a]


def max_abs(m: Mat) -> float:
    return max(abs(float(e)) for r in m.data for e in r)


def jacobi_failures(table, dim: int) -> int:
    """Number of ordered basis triples (a, b, c) on which the Jacobi
    identity fails for the structure-constant table, a mapping
    (a, b) -> {c: coeff} (as `structure_table` builds it) with
    [x_a, x_b] = sum coeff * x_c over a basis of size dim (missing pairs
    bracket to zero).

    The table must be antisymmetric, (b, a) = -(a, b) for every key, else
    ValueError names the first key that breaks it. The Jacobiator of an
    antisymmetric bracket is then totally antisymmetric, term by term: it
    vanishes on a triple with a repeated index, and the six orders of
    a < b < c give it up to sign. So each such triple is evaluated once
    and a failure counts 6."""
    empty = {}
    for (a, b), coeffs in table.items():
        reverse = table.get((b, a), empty)
        if ({c: -v for c, v in coeffs.items() if v}
                != {c: v for c, v in reverse.items() if v}):
            raise ValueError("structure-constant table is not antisymmetric "
                             "at the pair %r" % ((a, b),))

    def nested(i, j, k, acc):
        # acc += the coordinates of [[x_i, x_j], x_k]
        for e, v in table.get((i, j), empty).items():
            for f, u in table.get((e, k), empty).items():
                acc[f] = acc.get(f, 0) + v * u

    failures = 0
    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(b + 1, dim):
                acc = {}
                nested(a, b, c, acc)
                nested(b, c, a, acc)
                nested(c, a, b, acc)
                if any(acc.values()):
                    failures += 6
    return failures
