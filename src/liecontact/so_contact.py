"""The contact-graded orthogonal algebra so(p+2, q+2) in its block model.

Conventions, fixed once for the whole package:

* the quadratic form on R^(n+4), n = p+q, is

      S = [[ 0,    0,  -I2 ],
           [ 0,  Ipq,    0 ],
           [-I2,   0,    0 ]]

  with Ipq = diag(1,...,1,-1,...,-1) of signature (p, q). Both S and Ipq
  are symmetric signed permutations (`linalg.SignedPerm`): S swaps the
  first and last pairs of coordinates with a sign -1 and keeps the middle
  ones with the signs of Ipq. Each signature keeps one such table for
  each form (`Signature.form_s_perm`, `Signature.ipq_perm`), and every
  product with S or Ipq, the form checks included, moves entries and
  flips signs instead of multiplying;

* an algebra element with the blocks (z, X, A, D, U, w) is held as the
  integer rows, over one denominator, of its matrix

      [[ A,    U,    w*J ],
       [ X,    D,  Ipq*U^t],
       [z*J, X^t*Ipq, -A^t]]

  where J = [[0,1],[-1,0]], A is 2x2, D in so(p,q), X is nx2, U is 2xn;
  the grading reads z -> g_{-2}, X -> g_{-1}, (A,D) -> g_0, U -> g_1,
  w -> g_2, and e denotes the generator with z = 1;

* the ordered basis of the algebra is: e, then X entries column by column
  (first column top to bottom, then second column), then A entries row by
  row, then D_(i,j) = s_i E_(i,j) - s_j E_(j,i) for i < j row by row
  (s_i the form signs), then U entries row by row, then w. This order is
  written once, in `basis_positions`; the basis, its degrees, the
  coordinates of the structure-constant table and the hat lift of
  `extension` all read it from there.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .linalg import (IntMat, Mat, SignedPerm, jacobi_failures, rank_kernel,
                     rat, structure_table)

_NOT_IN_SO = "matrix is not in the orthogonal algebra of the standard form"
_D_NOT_IN_SO = "D is not in so(p,q) for the given signature"


class Signature:
    """Signature (p, q) of the bundle metric; n = p + q >= 1."""

    __slots__ = ("p", "q", "n")

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0 or p + q < 1:
            raise ValueError("signature needs p, q >= 0 and p + q >= 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", p + q)

    def __setattr__(self, name, value):
        raise AttributeError("Signature is immutable")

    def signs(self):
        return (1,) * self.p + (-1,) * self.q

    # each signature builds its form tables once and every caller shares them
    @functools.cache
    def ipq_perm(self) -> SignedPerm:
        """Ipq as a signed permutation: every coordinate in place, with its
        form sign."""
        return SignedPerm(range(self.n), self.signs())

    @functools.cache
    def form_s_perm(self) -> SignedPerm:
        """S as a signed permutation: coordinates 0, 1 and n+2, n+3 swapped
        with the sign -1, the middle n in place with the signs of Ipq."""
        n = self.n
        return SignedPerm((n + 2, n + 3, *range(2, n + 2), 0, 1),
                          (-1, -1, *self.signs(), -1, -1))

    def __eq__(self, other):
        return isinstance(other, Signature) and (self.p, self.q) == (other.p, other.q)

    def __hash__(self):
        return hash((self.p, self.q))

    def __repr__(self):
        return "Signature(%d, %d)" % (self.p, self.q)


def ambient_inverse(sig: Signature, g):
    """g^-1 = S g^T S for g preserving the ambient form S, since S^2 = I;
    S is a signed permutation, so this moves entries and flips signs. g is
    a Mat or an IntMat, and the inverse is of the same type."""
    return sig.form_s_perm().conjugate_transpose(g)


def inner(sig: Signature, u, v) -> Fraction:
    """<u, v> with respect to Ipq; u, v are length-n sequences."""
    signs = sig.signs()
    acc = Fraction(0)
    for s, a, b in zip(signs, u, v):
        acc += s * a * b
    return acc


class SoElement:
    """Element of so(p+2, q+2), held as the integer rows of its assembled
    matrix over one denominator (`ints`, an IntMat), as `QGroupElement`
    holds B and C. The blocks z, X, A, D, U, w are Fraction views made when
    read, and the matrix (`assemble`) the one built on its first call.
    Immutable."""

    __slots__ = ("sig", "ints", "_matrix")

    def __init__(self, sig: Signature, z=0, X: Mat | None = None,
                 A: Mat | None = None, D: Mat | None = None,
                 U: Mat | None = None, w=0):
        """The element with the given blocks, Mats of exact entries (a
        missing one is zero); TypeError on a float entry, ValueError unless
        D lies in so(p,q)."""
        n = sig.n
        blocks = []
        for name, m, rows, cols in (("X", X, n, 2), ("A", A, 2, 2),
                                    ("D", D, n, n), ("U", U, 2, n)):
            if m is None:
                blocks.append(IntMat(1, cols, sparse=[[]] * rows))
            elif m.rows != rows or m.cols != cols:
                raise ValueError("%s must be %dx%d" % (name, rows, cols))
            else:
                blocks.append(IntMat.of(m))
        z, w = (IntMat(e.denominator, 1, [[e.numerator]])
                for e in (rat(z), rat(w)))
        x, a, d, u, z, w = IntMat.aligned([*blocks, z, w])
        g = assembled_rows(sig, z.dense[0][0], x.dense, a.dense, d.dense,
                           u.dense, w.dense[0][0])
        if _block_mismatch(sig, g):
            raise ValueError(_D_NOT_IN_SO)
        _element(sig, IntMat(x.d, n + 4, g), self)

    def __setattr__(self, name, value):
        raise AttributeError("SoElement is immutable")

    @classmethod
    def generator_e(cls, sig: Signature):
        return cls(sig, z=1)

    def assemble(self) -> Mat:
        """The matrix of the module docstring, the Mat view of `ints`. The
        element is immutable, so it is built on the first call and kept in a
        slot of this element."""
        if self._matrix is None:
            object.__setattr__(self, "_matrix", self.ints.to_mat())
        return self._matrix

    def _block(self, r0, r1, c0, c1) -> Mat:
        """The Mat view of rows r0:r1 and columns c0:c1 of the matrix."""
        g = self.ints
        rows = [r[c0:c1] for r in g.dense[r0:r1]]
        return IntMat(g.d, len(rows[0]), rows).to_mat()

    def _entry(self, r, c) -> Fraction:
        return Fraction(self.ints.dense[r][c], self.ints.d)

    # the views, by the rows and columns of the module docstring's layout,
    # counted from either end
    z = property(lambda self: self._entry(-2, 1))
    X = property(lambda self: self._block(2, -2, 0, 2))
    A = property(lambda self: self._block(0, 2, 0, 2))
    D = property(lambda self: self._block(2, -2, 2, -2))
    U = property(lambda self: self._block(0, 2, 2, -2))
    w = property(lambda self: self._entry(0, -1))

    @classmethod
    def from_matrix(cls, sig: Signature, m) -> "SoElement":
        """The element with the (n+4)x(n+4) matrix m: an IntMat, which
        becomes its `ints` as it is, or a Mat, read by `IntMat.of`. Every
        redundant entry is compared with the one it repeats
        (`_block_mismatch`): ValueError naming D when the middle block is
        not in so(p,q), and the orthogonal algebra for any other mismatch."""
        ints = m if isinstance(m, IntMat) else IntMat.of(m)
        n = sig.n
        if ints.rows != n + 4 or ints.cols != n + 4:
            raise ValueError("expected a %dx%d matrix" % (n + 4, n + 4))
        bad = _block_mismatch(sig, ints.dense)
        if bad:
            raise ValueError(bad if bad is _D_NOT_IN_SO else _NOT_IN_SO)
        return _element(sig, ints)

    def __add__(self, other):
        _check_sig(self, other)
        return _element(self.sig, IntMat.combination([(1, self.ints),
                                                      (1, other.ints)]))

    def __sub__(self, other):
        _check_sig(self, other)
        return _element(self.sig, IntMat.combination([(1, self.ints),
                                                      (-1, other.ints)]))

    def __neg__(self):
        return _element(self.sig, IntMat.combination([(-1, self.ints)]))

    def __rmul__(self, scalar):
        return _element(self.sig, IntMat.combination([(rat(scalar),
                                                       self.ints)]))

    def is_zero(self):
        return self.ints.is_zero()

    def __eq__(self, other):
        if not isinstance(other, SoElement):
            return NotImplemented
        return self.sig == other.sig and self.ints.equals(other.ints)

    def __hash__(self):
        return hash((self.sig, self.assemble()))

    def __repr__(self):
        return ("SoElement(%r, z=%s, X=%r, A=%r, D=%r, U=%r, w=%s)"
                % (self.sig, self.z, self.X, self.A, self.D, self.U, self.w))


def _element(sig: Signature, ints: IntMat, x=None) -> SoElement:
    """The element x, or a new one, with the signature sig and the integer
    rows ints, taken as they are, and no view built yet."""
    x = object.__new__(SoElement) if x is None else x
    for name, value in (("sig", sig), ("ints", ints), ("_matrix", None)):
        object.__setattr__(x, name, value)
    return x


def assembled_rows(sig: Signature, z, x, a, d, u, w):
    """The rows of the matrix of the module docstring, the one place its
    layout is written, from the blocks z, X, A, D, U, w, integers over one
    denominator. Ipq*U^t and X^t*Ipq are U^t and X^t with the rows, resp.
    columns, of sign -1 negated."""
    signs = sig.signs()
    (a00, a01), (a10, a11) = a
    xt = [[e if s > 0 else -e for e, s in zip(col, signs)] for col in zip(*x)]
    return [[a00, a01, *u[0], 0, w], [a10, a11, *u[1], -w, 0],
            *([*xi, *di, *((u0, u1) if s > 0 else (-u0, -u1))]
              for s, xi, di, u0, u1 in zip(signs, x, d, *u)),
            [0, z, *xt[0], -a00, -a10], [-z, 0, *xt[1], -a01, -a11]]


def _check_sig(x, y):
    if x.sig != y.sig:
        raise ValueError("signature mismatch: %r vs %r" % (x.sig, y.sig))


def bracket(x: SoElement, y: SoElement) -> SoElement:
    """Lie bracket: the commutator of the integer rows of x and y, checked
    by `SoElement.from_matrix`. The closed forms below (bracket_gm1,
    rank_one_bracket) are the second computation path and are tested
    against this one."""
    _check_sig(x, y)
    return SoElement.from_matrix(x.sig, x.ints.commutator(y.ints))


def bracket_gm1(sig: Signature, x, y) -> Fraction:
    """g_{-1} x g_{-1} -> g_{-2} in closed form: the coefficient of e is
    <X1, Y2> - <X2, Y1>, the `gm1_pairing` of x and y, Mats read as
    `IntMat`s or IntMats."""
    a, b = (IntMat.of(m) if isinstance(m, Mat) else m for m in (x, y))
    return Fraction(gm1_pairing(sig, a, b), a.d * b.d)


def gm1_pairing(sig: Signature, a: IntMat, b: IntMat) -> int:
    """sum_i s_i (A_i0 B_i1 - A_i1 B_i0) for a = A/a.d and b = B/b.d, n x 2:
    their bottom bracket times a.d·b.d, for `bracket_gm1` and the tensor."""
    acc = 0
    for s, (a0, a1), (b0, b1) in zip(sig.signs(), a.dense, b.dense):
        t = a0 * b1 - a1 * b0
        acc += t if s > 0 else -t
    return acc


def _check_orthogonal(sig: Signature, c: IntMat) -> None:
    """ValueError unless C^t Ipq C = Ipq, i.e. C lies in O(p, q)."""
    ipq = sig.ipq_perm()
    if not c.gram_equals(ipq, ipq):
        raise ValueError("C is not orthogonal for the (p,q) form")


def _det2(rows):
    """ad - bc of the 2x2 matrix with rows [[a, b], [c, d]]."""
    (a, b), (c, d) = rows
    return a * d - b * c


def _inv2(b: IntMat) -> IntMat:
    """The inverse of the invertible 2x2 matrix b: its adjugate over its
    determinant, adj(B)·d / det(B) for b = B / d."""
    (p, r), (s, q) = b.dense
    d = b.d
    return IntMat(_det2(b.dense), 2, [[q * d, -r * d], [-s * d, p * d]])


def _check_g0(sig: Signature, b, c):
    """B and C, Mats or IntMats, as IntMats; ValueError unless B is an
    invertible 2x2 matrix and C lies in O(p, q), TypeError unless a B given
    as a Mat has Fraction entries."""
    if b.rows != 2 or b.cols != 2:
        raise ValueError("B must be 2x2")
    if isinstance(b, Mat):
        if any(type(e) is not Fraction for r in b.data for e in r):
            raise TypeError("B needs Fraction entries: %r" % (b,))
        b = IntMat.of(b)
    if _det2(b.dense) == 0:
        raise ValueError("B must be invertible")
    c = IntMat.of(c) if isinstance(c, Mat) else c
    _check_orthogonal(sig, c)
    return b, c


def orthogonal_residual(sig: Signature, c: Mat, x: Mat, y: Mat) -> Fraction:
    """[Cx, Cy] - [x, y], exactly zero for C in O(p, q), on integer rows
    (`gm1_pairing`); ValueError unless C is orthogonal."""
    ci, xi, yi = IntMat.of(c), IntMat.of(x), IntMat.of(y)
    _check_orthogonal(sig, ci)
    return bracket_gm1(sig, ci * xi, ci * yi) - bracket_gm1(sig, xi, yi)


def scaling_residual(sig: Signature, m: Mat, x: Mat, y: Mat,
                     factor=None) -> Fraction:
    """[xM, yM] - factor·[x, y] for a 2x2 M, on integer rows; exactly zero
    for the default factor det M, by which the g_{-1} bracket scales."""
    mi, xi, yi = IntMat.of(m), IntMat.of(x), IntMat.of(y)
    f = _det2(m.data) if factor is None else rat(factor)
    return bracket_gm1(sig, xi * mi, yi * mi) - f * bracket_gm1(sig, xi, yi)


def segre_rank(x: Mat) -> int:
    rank, _ = rank_kernel(x)
    return rank


def rank_one_bracket(sig: Signature, f1, f2, u1, u2) -> Fraction:
    """Closed form of the bracket on rank-one elements u*f^t:
    det(f1, f2) <u1, u2>."""
    wedge = f1[0] * f2[1] - f1[1] * f2[0]
    return wedge * inner(sig, u1, u2)


class QGroupElement:
    """Element of the subgroup Q: data (B, C, w), assembling to

        [[B, 0, w*B*J], [0, C, 0], [0, 0, (B^-1)^t]].

    The upper-right block has to be w*B*J (it is the only 2x2 block linear
    in w for which the assembled matrix preserves the form S; a w*C*J block
    would not even be 2x2 for n != 2). Equality is up to an overall sign,
    realized as (B, C, w) ~ (-B, -C, w). B and C, given as Mats or IntMats,
    are kept as the IntMats `int_b` and `int_c`, which every method reads."""

    __slots__ = ("sig", "int_b", "int_c", "w", "_matrix", "_ints")

    def __init__(self, sig: Signature, b, c, w=0):
        b, c = _check_g0(sig, b, c)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "int_b", b)
        object.__setattr__(self, "int_c", c)
        object.__setattr__(self, "w", rat(w))
        object.__setattr__(self, "_matrix", None)
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, value):
        raise AttributeError("QGroupElement is immutable")

    B = property(lambda self: self.int_b.to_mat())  # Mat views, for repr
    C = property(lambda self: self.int_c.to_mat())

    def det_b(self) -> Fraction:
        return Fraction(_det2(self.int_b.dense), self.int_b.d ** 2)

    def assemble(self) -> Mat:
        """The matrix of the class docstring, the Mat view of `int_pair`,
        built on the first call and kept in a slot of this element, as
        `SoElement.assemble` does."""
        h = self._matrix
        if h is None:
            h = self.int_pair()[0].to_mat()
            object.__setattr__(self, "_matrix", h)
        return h

    def compose(self, other: "QGroupElement") -> "QGroupElement":
        """Group law in block data; matches the assembled matrix product."""
        _check_sig(self, other)
        w = other.w + self.w / other.det_b()
        return QGroupElement(self.sig, self.int_b * other.int_b,
                             self.int_c * other.int_c, w)

    def inverse(self) -> "QGroupElement":
        cinv = self.sig.ipq_perm().conjugate_transpose(self.int_c)  # IpqCᵀIpq
        return QGroupElement(self.sig, _inv2(self.int_b), cinv,
                             -self.w * self.det_b())

    def int_pair(self):
        """(h, h^-1) as IntMats over one denominator: the matrix of the class
        docstring, filled in place from the integer rows of B, C, w·B·J and
        (B^-1)^t, and its inverse S h^T S (h preserves S). Built on the
        first call and kept in a slot of this element, as `assemble` does."""
        pair = self._ints
        if pair is None:
            n, lo = self.sig.n, self.sig.n + 2  # lo: the last block band
            b, c, bi, w = self.int_b, self.int_c, _inv2(self.int_b), self.w
            d = math.lcm(b.d * w.denominator, c.d, bi.d)
            fb, fc, fi = d // b.d, d // c.d, d // bi.d
            fw = w.numerator * (d // (b.d * w.denominator))
            rows = [[0] * (n + 4) for _ in range(n + 4)]
            for i, (x0, x1) in enumerate(b.dense):
                rows[i][:2] = fb * x0, fb * x1
                rows[i][lo:] = -fw * x1, fw * x0  # row i of w·B·J
                rows[lo + i][lo:] = (fi * bi.dense[0][i], fi * bi.dense[1][i])
            for i, r in enumerate(c.dense):
                rows[2 + i][2:lo] = [fc * x for x in r]
            h = IntMat(d, n + 4, rows)
            pair = (h, ambient_inverse(self.sig, h))
            object.__setattr__(self, "_ints", pair)
        return pair

    def ad_int(self, m: IntMat) -> IntMat:
        """Adjoint action h m h^-1 on an assembled algebra element's integer
        rows; ValueError if a redundant block disagrees (`_block_mismatch`)."""
        h, h_inv = self.int_pair()
        g = h * m * h_inv
        if _block_mismatch(self.sig, g.dense):
            raise ValueError(_NOT_IN_SO)
        return g

    def __eq__(self, other):
        if not isinstance(other, QGroupElement):
            return NotImplemented
        if self.sig != other.sig or self.w != other.w:
            return False
        b, c = other.int_b, other.int_c  # compared as they are, or negated
        return any(self.int_b.equals(IntMat(s * b.d, 2, b.dense))
                   and self.int_c.equals(IntMat(s * c.d, c.cols, c.dense))
                   for s in (1, -1))

    def __repr__(self):
        return ("QGroupElement(%r, B=%r, C=%r, w=%s)"
                % (self.sig, self.B, self.C, self.w))


# ---------------------------------------------------------------------------
# basis enumeration and structure constants


@functools.cache
def basis_positions(sig: Signature):
    """The ordered basis of the module docstring, the one place it is
    written: entry k is the (row, column, sign) of the k-th coordinate in
    the assembled matrix, the coordinate being sign * entry. Built once
    per signature."""
    n = sig.n
    return ((n + 2, 1, 1),
            *((2 + i, j, 1) for j in range(2) for i in range(n)),
            *((i, j, 1) for i in range(2) for j in range(2)),
            *((2 + i, 2 + j, s) for i, s in enumerate(sig.signs())
              for j in range(i + 1, n)),
            *((i, 2 + j, 1) for i in range(2) for j in range(n)),
            (0, n + 3, 1))


def from_coordinates(sig: Signature, entries, d=1) -> SoElement:
    """The element with the given coordinates, pairs ((row, column, sign),
    k) of a `basis_positions` entry and an integer, the coordinate being
    k/d. The blocks z, X, A, D, U, w are filled from them, a D coordinate
    with its mirror entry D_ji = -s_i s_j D_ij too, and assembled
    (`assembled_rows`)."""
    n, lo = sig.n, sig.n + 2  # lo: the last block band
    signs = sig.signs()
    g = [[0] * (n + 4) for _ in range(n + 4)]
    for (r, c, s), v in entries:
        e = g[r][c] = v if s > 0 else -v
        if 2 <= r < c < lo:
            g[c][r] = -e if signs[r - 2] == signs[c - 2] else e
    top, mid = g[:2], g[2:lo]
    return _element(sig, IntMat(d, n + 4, assembled_rows(
        sig, g[lo][1], [r[:2] for r in mid], [r[:2] for r in top],
        [r[2:lo] for r in mid], [r[2:lo] for r in top], g[0][lo + 1])))


@functools.cache
def so_basis(sig: Signature):
    """Ordered basis, see the module docstring, as a tuple of length
    (n+3)(n+4)/2. Built once per signature and shared by every caller."""
    return tuple(from_coordinates(sig, ((pos, 1),))
                 for pos in basis_positions(sig))


def so_basis_degrees(sig: Signature):
    """The degree of each basis element: with the row and column groups
    (2, n, 2) numbered 0, 1, 2, the entry at (row, column) has degree
    group(column) - group(row), the rule of `path_sl._slot_of`."""
    n = sig.n

    def group(k):
        return 0 if k < 2 else (1 if k < n + 2 else 2)

    return [group(c) - group(r) for r, c, _ in basis_positions(sig)]


@functools.cache
def structure_constants(sig: Signature):
    """Sparse integer structure-constant table over the so_basis, a
    read-only mapping (a, b) -> {c: coeff} with [x_a, x_b] =
    sum coeff * x_c (see `linalg.structure_table`). All basis brackets have
    integer coordinates in this basis. Built once per signature and shared
    by every caller."""
    return structure_table([b.ints for b in so_basis(sig)],
                           functools.partial(int_coordinates, sig))


def _block_mismatch(sig: Signature, m):
    """Which redundant block of the (n+4)x(n+4) matrix with rows m (exact
    entries: ints or Fractions) disagrees with the block it repeats in the
    assembled form of the module docstring, or None when every one agrees.
    D must lie in so(p,q), which is tested first, and the blocks w*J, z*J,
    -A^t, Ipq*U^t and X^t*Ipq must repeat theirs. The signs are +-1, so
    each test compares an entry with another entry or its negation. The one
    check behind both constructors of `SoElement` and the structure-constant
    table."""
    n = sig.n
    signs = sig.signs()
    lo = n + 2  # first row and column of the last block band
    for i in range(n):
        for j in range(i, n):
            mirror = m[2 + i][2 + j]
            if m[2 + j][2 + i] != (-mirror if signs[i] == signs[j]
                                   else mirror):
                return _D_NOT_IN_SO
    z = m[lo][1]
    w = m[0][lo + 1]
    if (m[lo][0], m[lo + 1][0], m[lo + 1][1]) != (0, -z, 0):
        return "z block is not a multiple of J"
    if (m[0][lo], m[1][lo], m[1][lo + 1]) != (0, -w, 0):
        return "w block is not a multiple of J"
    for i in range(2):
        for j in range(2):
            if m[lo + j][lo + i] != -m[i][j]:
                return "lower-right block is not -A^t"
    for i in range(2):
        for j, s in enumerate(signs):
            u = m[i][2 + j]
            if m[2 + j][lo + i] != (u if s > 0 else -u):
                return "U companion block mismatch"
            x = m[2 + j][i]
            if m[lo + i][2 + j] != (x if s > 0 else -x):
                return "X companion block mismatch"
    return None


def int_coordinates(sig: Signature, m):
    """Coordinates in the so_basis order of an assembled matrix given as
    rows of exact entries (the integer rows of `linalg.structure_table`);
    ValueError naming the first redundant block that `_block_mismatch`
    finds inconsistent."""
    bad = _block_mismatch(sig, m)
    if bad:
        raise ValueError(bad)
    return [m[r][c] if s > 0 else -m[r][c]
            for r, c, s in basis_positions(sig)]


def jacobi_check(sig: Signature):
    """Check the Jacobi identity on every ordered basis triple through the
    structure-constant table. Returns (triples_checked, failures)."""
    dim = len(so_basis_degrees(sig))
    return dim ** 3, jacobi_failures(structure_constants(sig), dim)


def grading_check(sig: Signature):
    """Verify on all basis pairs that brackets respect the grading.
    Returns the number of failing pairs."""
    table = structure_constants(sig)
    degrees = so_basis_degrees(sig)
    failures = 0
    dim = len(degrees)
    for a in range(dim):
        for b in range(dim):
            if a == b:
                continue
            target = degrees[a] + degrees[b]
            sparse = table[(a, b)]
            if abs(target) > 2:
                if sparse:
                    failures += 1
            elif any(degrees[c] != target for c in sparse):
                failures += 1
    return failures
