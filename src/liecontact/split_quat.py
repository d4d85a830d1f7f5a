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
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Mat, invert, rank_kernel, rat, solve_linear
from .so_contact import Signature, scaling_residual

M_I = Mat([[1, 0], [0, -1]]).map(Fraction)
M_J = Mat([[0, 1], [1, 0]]).map(Fraction)
M_K = Mat([[0, 1], [-1, 0]]).map(Fraction)


class SplitQuaternion:
    """Coefficients (a0, a, b, c) over the basis (1, i, j, k)."""

    __slots__ = ("a0", "a", "b", "c")

    def __init__(self, a0=0, a=0, b=0, c=0):
        object.__setattr__(self, "a0", rat(a0))
        object.__setattr__(self, "a", rat(a))
        object.__setattr__(self, "b", rat(b))
        object.__setattr__(self, "c", rat(c))

    def __setattr__(self, name, value):
        raise AttributeError("SplitQuaternion is immutable")

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


class QuatStructureOnH:
    """The triple of operators (I, J, K) on g_{-1}, stored through their
    right-multiplication matrices. Admissible bases other than the standard
    one arise by conjugating all three matrices by a fixed GL(2) element;
    the defining relations are checked on construction."""

    __slots__ = ("sig", "mi", "mj", "mk")

    def __init__(self, sig: Signature, mi: Mat, mj: Mat, mk: Mat):
        ident = Mat.identity(2)
        if mi * mi != ident or mj * mj != ident or mk * mk != -ident:
            raise ValueError("I, J, K must square to +1, +1, -1")
        if mi * mj != mk or mj * mi != -mk:
            raise ValueError("ij = k = -ji must hold")
        if mi.trace() != 0 or mj.trace() != 0 or mk.trace() != 0:
            raise ValueError("imaginary units must be trace free")
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "mi", mi)
        object.__setattr__(self, "mj", mj)
        object.__setattr__(self, "mk", mk)

    def __setattr__(self, name, value):
        raise AttributeError("QuatStructureOnH is immutable")

    @classmethod
    def standard(cls, sig: Signature):
        return cls(sig, M_I, M_J, M_K)

    def conjugated(self, g: Mat) -> "QuatStructureOnH":
        ginv = invert(g)
        return QuatStructureOnH(self.sig, g * self.mi * ginv,
                                g * self.mj * ginv, g * self.mk * ginv)

    def apply_i(self, x: Mat) -> Mat:
        return x * self.mi

    def apply_j(self, x: Mat) -> Mat:
        return x * self.mj

    def apply_k(self, x: Mat) -> Mat:
        return x * self.mk


def stack_columns(x: Mat) -> Mat:
    """n x 2 -> 2n x 1, first column on top of the second."""
    return Mat.col(list(x.column(0)) + list(x.column(1)))


def unstack_columns(v: Mat, n: int) -> Mat:
    if v.cols != 1 or v.rows != 2 * n:
        raise ValueError("expected a 2n x 1 column")
    col = v.column(0)
    return Mat([[col[i], col[n + i]] for i in range(n)])


def _right_mult_operator(m: Mat, n: int) -> Mat:
    """Matrix of x -> x*m on g_{-1} in the stacked-column coordinates."""
    cols = []
    for k in range(2 * n):
        basis_vec = [Fraction(0)] * (2 * n)
        basis_vec[k] = Fraction(1)
        x = unstack_columns(Mat.col(basis_vec), n)
        cols.append(stack_columns(x * m).column(0))
    return Mat(cols).T


def eigenspace_decompose(structure: QuatStructureOnH):
    """Bases of the +1 and -1 eigenspaces of I, as n x 2 matrices.
    Each has dimension n, and J swaps the two subspaces."""
    n = structure.sig.n
    op = _right_mult_operator(structure.mi, n)
    ident = Mat.identity(2 * n)
    _, plus = rank_kernel(op - ident)
    _, minus = rank_kernel(op + ident)
    return ([unstack_columns(v, n) for v in plus],
            [unstack_columns(v, n) for v in minus])


def max_subspace_for_line(l, n: int):
    """Basis of the n-dimensional space of elements whose kernel contains
    the line through l = (l1, l2): the rank-at-most-one matrices u * f^t
    with f the covector annihilating l."""
    l1, l2 = rat(l[0]), rat(l[1])
    if l1 == 0 and l2 == 0:
        raise ValueError("l must span a line")
    f = (l2, -l1)
    out = []
    for r in range(n):
        rows = [[Fraction(0), Fraction(0)] for _ in range(n)]
        rows[r] = [f[0], f[1]]
        out.append(Mat(rows))
    return out


def rank_one_witness(x: Mat):
    """For nonzero x, the coefficients (a, b, c) of a skew reflection
    A = aI + bJ + cK with A(x) = x and |A|^2 = -1, when x has rank one;
    None when x has rank two.

    The witness comes from the kernel: if x v = 0 with v != 0, the trace
    free 2x2 matrix m with m v = -v exists, is unique up to the remaining
    +1 eigendirection, and x(m - id) = 0 since the image of m - id is the
    kernel line; det m = -1 makes |A|^2 = -1 automatic. Both facts are
    checked on every call: ValueError when the linear system for (a, b, c)
    is inconsistent or when A(x) != x."""
    if x.is_zero():
        raise ValueError("rank-one test needs a nonzero element")
    rank, kernel = rank_kernel(x)
    if rank == 2:
        return None
    v = kernel[0].column(0)
    v1, v2 = v[0], v[1]
    system = Mat([[v1, v2, v2], [-v2, v1, -v1]])
    rhs = Mat.col([-v1, -v2])
    sol = solve_linear(system, rhs)
    if sol is None:
        raise ValueError("the reflection system has no solution for the "
                         "kernel vector (%s, %s)" % (v1, v2))
    a, b, c = sol.column(0)
    m = a * M_I + b * M_J + c * M_K
    if x * m != x:
        raise ValueError("the reflection does not fix x: A(x) != x")
    return (a, b, c)


def levi_compat_residual(sig: Signature, coeffs, x: Mat, y: Mat) -> Fraction:
    """[Ax, Ay] - |A|^2 [x, y] for A = aI + bJ + cK; must be zero."""
    a, b, c = (rat(t) for t in coeffs)
    m = a * M_I + b * M_J + c * M_K
    return scaling_residual(sig, m, x, y, -a * a - b * b + c * c)
