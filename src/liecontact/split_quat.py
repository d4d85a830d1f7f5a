"""Split quaternions and the induced endomorphisms of g_{-1}.

The algebra has basis (1, i, j, k) with i^2 = j^2 = 1, k = ij = -ji,
hence k^2 = -1. It is isomorphic to the 2x2 real matrices by

    i -> [[1, 0], [0, -1]],  j -> [[0, 1], [1, 0]],  k -> [[0, 1], [-1, 0]],

and the quaternion norm |q|^2 = a0^2 - a^2 - b^2 + c^2 is the determinant
of the matrix image. The imaginary units act on g_{-1} (n x 2 matrices)
by right multiplication with their matrix images; we write I, J, K for
these operators. Note I(X1|X2) = (X1|-X2), J(X1|X2) = (X2|X1),
K(X1|X2) = (-X2|X1), so I and J square to +id and K to -id, and since
right multiplication reverses products, J(I(x)) = K(x).

The units are 2x2 Fraction matrices (`Mat`), on which `QuatStructureOnH`
checks the relations and `conjugated` changes basis; everything that acts
on g_{-1} reads their integer rows (`int_units`). These 2x2 conversions
are the only ones on the package's exact routes. Elements of g_{-1} and
their stacked columns are `IntMat`s, and a `Mat` is refused with
TypeError.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import (Frozen, IntMat, Mat, ints_over_lcm, invert, need_ints,
                     rank_kernel, rat, solve_linear)
from .so_contact import Signature, scaling_residual

M_I = Mat([[1, 0], [0, -1]]).map(Fraction)
M_J = Mat([[0, 1], [1, 0]]).map(Fraction)
M_K = Mat([[0, 1], [-1, 0]]).map(Fraction)
# their integer rows, which the closed forms below combine
_UNITS = tuple(IntMat.of(m) for m in (M_I, M_J, M_K))


class SplitQuaternion(Frozen):
    """Coefficients (a0, a, b, c) over the basis (1, i, j, k)."""

    __slots__ = ("a0", "a", "b", "c")

    def __init__(self, a0=0, a=0, b=0, c=0):
        self._set(a0=rat(a0), a=rat(a), b=rat(b), c=rat(c))

    def __add__(self, other):
        return SplitQuaternion(self.a0 + other.a0, self.a + other.a,
                               self.b + other.b, self.c + other.c)

    def __neg__(self):
        return SplitQuaternion(-self.a0, -self.a, -self.b, -self.c)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, SplitQuaternion):
            return NotImplemented
        return ((self.a0, self.a, self.b, self.c)
                == (other.a0, other.a, other.b, other.c))

    def __hash__(self):
        return hash((self.a0, self.a, self.b, self.c))

    def __repr__(self):
        return ("SplitQuaternion(%s, %s, %s, %s)"
                % (self.a0, self.a, self.b, self.c))


def quat_mul(p: SplitQuaternion, q: SplitQuaternion) -> SplitQuaternion:
    """Product from the multiplication table (ij = k, ji = -k, jk = -i,
    kj = i, ik = j, ki = -j)."""
    a0, a, b, c = p.a0, p.a, p.b, p.c
    b0, d, e, f = q.a0, q.a, q.b, q.c
    return SplitQuaternion(
        a0 * b0 + a * d + b * e - c * f,
        a0 * d + a * b0 - b * f + c * e,
        a0 * e + b * b0 + a * f - c * d,
        a0 * f + c * b0 + a * e - b * d,
    )


def norm_sq(q: SplitQuaternion) -> Fraction:
    return q.a0 ** 2 - q.a ** 2 - q.b ** 2 + q.c ** 2


class QuatStructureOnH(Frozen):
    """The triple of operators (I, J, K) on g_{-1}, stored through their
    right-multiplication matrices and their integer rows (`int_units`).
    Admissible bases other than the standard one arise by conjugating all
    three matrices by a fixed GL(2) element; the defining relations are
    checked on construction."""

    __slots__ = ("sig", "mi", "mj", "mk", "int_units")

    def __init__(self, sig: Signature, mi: Mat, mj: Mat, mk: Mat):
        ident = Mat.identity(2)
        if mi * mi != ident or mj * mj != ident or mk * mk != -ident:
            raise ValueError("I, J, K must square to +1, +1, -1")
        if mi * mj != mk or mj * mi != -mk:
            raise ValueError("ij = k = -ji must hold")
        if mi.trace() != 0 or mj.trace() != 0 or mk.trace() != 0:
            raise ValueError("imaginary units must be trace free")
        self._set(sig=sig, mi=mi, mj=mj, mk=mk,
                  int_units=tuple(IntMat.of(m) for m in (mi, mj, mk)))

    @classmethod
    def standard(cls, sig: Signature):
        return cls(sig, M_I, M_J, M_K)

    def conjugated(self, g: IntMat) -> "QuatStructureOnH":
        """The units g·M·g^-1, on the Mat views of g and its inverse."""
        gm, ginv = need_ints(g).to_mat(), invert(g).to_mat()
        return QuatStructureOnH(self.sig, gm * self.mi * ginv,
                                gm * self.mj * ginv, gm * self.mk * ginv)

    def apply_i(self, x: IntMat) -> IntMat:
        return need_ints(x) * self.int_units[0]

    def apply_j(self, x: IntMat) -> IntMat:
        return need_ints(x) * self.int_units[1]

    def apply_k(self, x: IntMat) -> IntMat:
        return need_ints(x) * self.int_units[2]


def stack_columns(x: IntMat) -> IntMat:
    """n x 2 -> 2n x 1, first column on top of the second."""
    rows = need_ints(x).dense
    return IntMat(x.d, 1, [r[j:j + 1] for j in range(2) for r in rows])


def unstack_columns(v: IntMat, n: int) -> IntMat:
    if need_ints(v).cols != 1 or v.rows != 2 * n:
        raise ValueError("expected a 2n x 1 column")
    col = v.dense
    return IntMat(v.d, 2, [[col[i][0], col[n + i][0]] for i in range(n)])


def _right_mult_operator(m: IntMat, n: int) -> IntMat:
    """Matrix of x -> x*m on g_{-1} in the stacked-column coordinates:
    column j of x*m is the sum over k of m[k, j] times column k of x, so
    block (j, k) of the operator is m[k, j] times the n x n identity."""
    rows = m.dense
    return IntMat(m.d, 2 * n, [[rows[c // n][r // n] if r % n == c % n else 0
                                for c in range(2 * n)] for r in range(2 * n)])


def eigenspace_decompose(structure: QuatStructureOnH):
    """Bases of the +1 and -1 eigenspaces of I, as n x 2 IntMats: the
    kernels of right multiplication by I - 1 and I + 1. Each has dimension
    n, and J swaps the two subspaces."""
    n = structure.sig.n
    mi, one = structure.int_units[0], IntMat.identity(2)
    plus, minus = (rank_kernel(_right_mult_operator(
        IntMat.combination([(1, mi), (s, one)]), n))[1] for s in (-1, 1))
    return ([unstack_columns(v, n) for v in plus],
            [unstack_columns(v, n) for v in minus])


def max_subspace_for_line(l, n: int):
    """Basis of the n-dimensional space of elements whose kernel contains
    the line through l = (l1, l2): the rank-at-most-one matrices e_r * f^t
    with f the covector annihilating l, as IntMats over the lcm of the
    denominators of l."""
    l1, l2 = rat(l[0]), rat(l[1])
    if l1 == 0 and l2 == 0:
        raise ValueError("l must span a line")
    f, d = ints_over_lcm((l2, -l1))
    return [IntMat(d, 2, [f if k == r else [0, 0] for k in range(n)])
            for r in range(n)]


def rank_one_witness(x: IntMat):
    """For nonzero x, the coefficients (a, b, c) of a skew reflection
    A = aI + bJ + cK with A(x) = x and |A|^2 = -1, when x has rank one;
    None when x has rank two.

    The witness comes from the kernel: if x v = 0 with v != 0, the trace
    free 2x2 matrix m with m v = -v exists, is unique up to the remaining
    +1 eigendirection, and x(m - id) = 0 since the image of m - id is the
    kernel line; det m = -1 makes |A|^2 = -1 automatic. Both facts are
    checked on every call: ValueError when the linear system for (a, b, c)
    is inconsistent or when A(x) != x. The system is linear in v on both
    sides, so it is set up on the integers of the kernel column."""
    if need_ints(x).is_zero():
        raise ValueError("rank-one test needs a nonzero element")
    rank, kernel = rank_kernel(x)
    if rank == 2:
        return None
    (v1,), (v2,) = kernel[0].dense
    system = IntMat(1, 3, [[v1, v2, v2], [-v2, v1, -v1]])
    sol = solve_linear(system, IntMat(1, 1, [[-v1], [-v2]]))
    if sol is None:
        d = kernel[0].d
        raise ValueError("the reflection system has no solution for the "
                         "kernel vector (%s, %s)"
                         % (Fraction(v1, d), Fraction(v2, d)))
    a, b, c = (Fraction(e, sol.d) for (e,) in sol.dense)
    if not (x * IntMat.combination(list(zip((a, b, c), _UNITS)))).equals(x):
        raise ValueError("the reflection does not fix x: A(x) != x")
    return (a, b, c)


def levi_compat_residual(sig: Signature, coeffs, x: IntMat,
                         y: IntMat) -> Fraction:
    """[Ax, Ay] - |A|^2 [x, y] for A = aI + bJ + cK; must be zero."""
    a, b, c = coeffs = [rat(t) for t in coeffs]
    return scaling_residual(sig, IntMat.combination(list(zip(coeffs, _UNITS))),
                            x, y, -a * a - b * b + c * c)
