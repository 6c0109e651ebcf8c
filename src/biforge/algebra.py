"""Scalar tower: exact rationals, degree-2 Taylor jets, packed Laplacian jets.

Three scalar families are used throughout the package:

* exact rationals (:class:`fractions.Fraction`): mu and the entries a
  :mod:`biforge.construct` table reads out;
* degree-2 truncated Taylor jets (:class:`Jet2`), the generic
  differentiation primitive: one direction at a time, over any
  coefficient ring, nestable; a point moved along one direction
  (:func:`translate`) is a Jet2 whose coefficients are matrices;
* packed Laplacian jets (:class:`PackedJet`), what the operators of
  :mod:`biforge.operators` evaluate: every sampled point and every
  basis direction in one array per tree node.

A ``Jet2`` stores ``(a0, a1, a2)`` with the convention

    h(s) = a0 + a1*s + a2*s**2 + O(s**3),

so ``a2`` carries *half* of the second derivative; extraction sites that
need h''(0) must read ``2*a2``.  This convention keeps multiplication a
plain coefficient convolution.  Coefficients are generic: complex
numbers, ``Fraction``, matrices, or further jets.  Nesting a
jet-over-jets (outer parameter t, inner parameter s) represents the
two-parameter expansion

    h(s, t) = sum_{i,j<=2} c_ij s**i t**j + ...,

whose top coefficient is the mixed fourth-order derivative of the
bitension field.

Packed layout
-------------
A ``PackedJet`` holds one ndarray ``c`` of shape (P, K, |B| + 2) for a
function h moved along every basis direction Z_b of the Lie algebra:

* axis 0 runs over the P points;
* axis 1 over the outer algebra [1, t_1, ..., t_D, T] of D outer
  parameters, t_i t_j = 0 for i != j and t_i**2 = T (K = D + 2, or
  K = 1 without an outer direction; D = 1 is the 3-term t-series);
* the last axis holds the value, the |B| first coefficients a1_b of the
  jets of s -> h(p exp(sZ_b)), and the sum over b of their second
  coefficients a2_b.

The sum of the a2_b is all the Laplacian needs, and the layout is closed
under the ring operations ("Forward Laplacian", Li et al. 2023):

    sum_b (fg)_2b = f0 sum_b g2b + g0 sum_b f2b + sum_b f1b g1b,

and a quotient q = f/g solves that rule for q column by column:

    q0 = f0 / g0,   q1b = (f1b - q0 g1b) / g0,
    sum_b q2b = (sum_b f2b - q0 sum_b g2b - sum_b q1b g1b) / g0,

where every product is one in the outer algebra, the same collapse of
the outer parameters: sum_i (fg)_ii = f0 sum_i g_ii + g0 sum_i f_ii +
sum_i f_i g_i.  Its products are batched matmuls by the multiplication
matrix of one factor, dividing by g0 is one by the matrix of 1/g0, and
the sum over b of f1b g1b is one Gram product.  No ``np.linalg`` is
used, so object arrays of ``Fraction`` work too.

A :class:`PackedPoint` is the matrix jet a walk starts from: the points,
the stack O = [I, W_1, ..., W_D, sum_i W_i**2/2] that moves them along
the outer directions W_i (its layers X = p O_k), and the extended
stack E = [I, Z_1, ..., Z_|B|, H] with H = sum_b Z_b**2 / 2.  Every E_e
has at most one nonzero per row and per column, so E is kept as two
(|B| + 2, N) arrays, E_e[k, cols[e, k]] = vals[e, k].  So is every
O_k, by its columns: O_k[index[k, c], c] = weights[k, c].  A linear
form f gives the packed jet f(X E_e) at each layer X, because
p exp(sZ_b) = p + s p Z_b + s**2 p Z_b**2 / 2 + O(s**3); for
f(X) = u^T X[:n] v that is (u^T X[:n]) (E_e v), with E_e v the gather
vals[e] * v[cols[e]] and u^T X[:n] = (u^T p[:n]) O_k the gather
r[index[k]] * weights[k] of r = u^T p[:n], so neither the layers of the
points nor a dense O or E is ever built.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateJetDivision, ShapeError

__all__ = [
    "Jet2",
    "PackedJet",
    "PackedPoint",
    "jet_reciprocal",
    "leading_value",
    "translate",
]


class Jet2:
    """Degree-2 truncated Taylor scalar ``a0 + a1*s + a2*s**2 + O(s**3)``."""

    __slots__ = ("a0", "a1", "a2")

    def __init__(self, a0, a1=0, a2=0):
        self.a0 = a0
        self.a1 = a1
        self.a2 = a2

    @staticmethod
    def constant(value) -> "Jet2":
        return Jet2(value, 0, 0)

    def as_tuple(self):
        return (self.a0, self.a1, self.a2)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.a0 + other.a0, self.a1 + other.a1, self.a2 + other.a2)
        return Jet2(self.a0 + other, self.a1, self.a2)

    def __radd__(self, other):
        return Jet2(other + self.a0, self.a1, self.a2)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.a0 - other.a0, self.a1 - other.a1, self.a2 - other.a2)
        return Jet2(self.a0 - other, self.a1, self.a2)

    def __rsub__(self, other):
        return Jet2(other - self.a0, -self.a1, -self.a2)

    def __neg__(self):
        return Jet2(-self.a0, -self.a1, -self.a2)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.a0 * other.a0,
                self.a0 * other.a1 + self.a1 * other.a0,
                self.a0 * other.a2 + self.a1 * other.a1 + self.a2 * other.a0,
            )
        return Jet2(self.a0 * other, self.a1 * other, self.a2 * other)

    def __rmul__(self, other):
        return Jet2(other * self.a0, other * self.a1, other * self.a2)

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * jet_reciprocal(other)
        return Jet2(self.a0 / other, self.a1 / other, self.a2 / other)

    def __rtruediv__(self, other):
        return jet_reciprocal(self) * other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("jet exponents must be integers")
        if exponent < 0:
            return jet_reciprocal(self) ** (-exponent)
        result = Jet2(1, 0, 0)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, Jet2):
            return self.as_tuple() == other.as_tuple()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Jet2({self.a0!r}, {self.a1!r}, {self.a2!r})"


def leading_value(x):
    """Value part: innermost ``a0`` of a (nested) Jet2, the (P,) point values
    of a PackedJet, and the identity on scalars and arrays."""
    if isinstance(x, PackedJet):
        return x.c[..., 0, 0]
    while isinstance(x, Jet2):
        x = x.a0
    return x


def jet_reciprocal(y):
    """Multiplicative inverse modulo s**3 (in the outer algebra too for a
    PackedJet, the quotient of the unit jet).

    Requires a nonzero value part, at every point of a PackedJet.
    """
    if isinstance(y, PackedJet):
        one = np.zeros_like(y.c)
        one[..., 0, 0] = 1
        return PackedJet(_packed_quotient(one, y.c))
    r0 = _reciprocal_scalar(y.a0)
    return Jet2(r0, -(y.a1 * r0) * r0, ((y.a1 * y.a1) * r0 - y.a2) * (r0 * r0))


def _reciprocal_scalar(x):
    if isinstance(x, Jet2):
        return jet_reciprocal(x)
    if x == 0:
        raise DegenerateJetDivision("jet division by a jet with zero value part")
    return 1 / x


def _times(x, m: np.ndarray):
    """``x @ m`` layer by layer."""
    if isinstance(x, Jet2):
        return Jet2(_times(x.a0, m), _times(x.a1, m), _times(x.a2, m))
    return x @ m


def translate(base, direction: np.ndarray, half_square: np.ndarray | None = None) -> Jet2:
    """2-jet of ``base * exp(s*Z)``: ``Jet2(base, base Z, base Z**2/2)``.

    ``base`` is a matrix or a Jet2 of matrices; for a jet the new
    parameter s becomes the outermost jet layer, giving a nested
    two-parameter jet.  ``direction`` is one (N, N) matrix Z.  This is
    the one-direction reference path; the operators evaluate
    :class:`PackedPoint` instead.
    """
    shape = leading_value(base).shape
    if direction.ndim != 2 or shape[1] != direction.shape[0]:
        raise ShapeError(f"cannot translate a {shape} base along a {direction.shape} direction")
    if half_square is None:
        half_square = 0.5 * (direction @ direction)
    return Jet2(base, _times(base, direction), _times(base, half_square))


# ---------------------------------------------------------------------------
# packed Laplacian jets


class PackedJet:
    """Point-batched Laplacian jet ``c`` of shape (P, K, |B| + 2).

    See the module docstring for the layout.  A scalar summand adds to
    the value at t**0 and a scalar factor scales every coefficient;
    products of two packed jets follow the collapsed product rule, and
    quotients that rule solved for the quotient; a reciprocal is the
    quotient of the unit jet.
    """

    __slots__ = ("c",)

    def __init__(self, c: np.ndarray):
        self.c = c

    def __add__(self, other):
        if isinstance(other, PackedJet):
            return PackedJet(self.c + other.c)
        c = self.c.copy()
        c[:, 0, 0] += other
        return PackedJet(c)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, PackedJet):
            return PackedJet(self.c * other)
        f, g = self.c, other.c
        out = _outer_product_matrix(f[..., 0]) @ g
        # g0 times f's derivative columns, as the product over every column
        # with column 0 zeroed: an in-place add into a column slice would
        # copy both operands first
        cross = _outer_product_matrix(g[..., 0]) @ f
        cross[..., 0] = 0
        out += cross
        out[..., -1] += _outer_sums(f[..., 1:-1] @ g[..., 1:-1].swapaxes(-1, -2))
        return PackedJet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PackedJet):
            return PackedJet(_packed_quotient(self.c, other.c))
        return PackedJet(self.c / other)

    def __rtruediv__(self, other):
        return jet_reciprocal(self) * other


class PackedPoint:
    """The matrix jet a packed walk starts from.

    ``points`` (P, N, N) are the sampled points.  ``outer`` is None for a
    walk at the points themselves (K = 1), or the stack
    O = [I, W_1, ..., W_D, sum_i W_i**2/2] that moves a point p along D
    outer directions to its layers p O_k, K = D + 2, in compact form: a
    pair ``(index, weights)`` of (K, N) arrays with one nonzero per
    column, O_k[index[k, c], c] = weights[k, c], so r O_k is the gather
    r[index[k]] * weights[k], as E_e v is below.  ``cols`` and ``vals``,
    both (|B| + 2, N), are the extended stack E = [I, Z_1, ..., Z_|B|, H]
    in compact form, E_e[k, cols[e, k]] = vals[e, k].
    """

    __slots__ = ("points", "cols", "vals", "outer")

    def __init__(self, points: np.ndarray, cols: np.ndarray, vals: np.ndarray, outer: np.ndarray | None = None):
        self.points = points
        self.cols = cols
        self.vals = vals
        self.outer = outer

    @property
    def shape(self) -> tuple[int, int, int]:
        """(P, K, |B| + 2), the shape of a packed jet at this point."""
        return len(self.points), 1 if self.outer is None else len(self.outer[0]), len(self.cols)

    def row_weights(self, u: np.ndarray) -> np.ndarray:
        """u^T X[:n] at every layer X of every point, shape (P, K, 1, N),
        for a row factor ``u`` (n,): r = u^T p[:n] gathered by each outer
        layer.  A layer's one nonzero per column is purely real or purely
        imaginary, so the gather rounds as the product r O_k would.  The
        axis of length 1 keeps the leaf's matmul operands 2-D, as the BLAS
        call shapes fix the rounding."""
        r = (u[None] @ self.points[:, : u.size])[:, None]
        if self.outer is None:
            return r
        index, weights = self.outer
        return (r[:, 0, 0, index] * weights)[:, :, None]

    def images(self, v: np.ndarray) -> np.ndarray:
        """E_e v for every e, shape (|B| + 2, N), for a column factor ``v``
        (N,): one gather, vals[e] * v[cols[e]]."""
        moved = v[self.cols]
        moved *= self.vals
        return moved


def _outer_product_matrix(s: np.ndarray) -> np.ndarray:
    """(..., K) outer-algebra elements -> (..., K, K) matrices M with
    M @ g = s * g: s0 on the diagonal, s in column 0 and s_1 .. s_D in
    the last row.  K = 1 is s itself, K = 3 the Toeplitz matrix of a
    3-term t-series."""
    k = s.shape[-1]
    if k == 1:
        return s[..., None]
    # entry (i, j) at i*k + j of a flat zero array, so each part is one
    # basic slice: the diagonal every k + 1, column 0 every k from row 1,
    # and the last row's middle in one run
    m = np.zeros(s.shape[:-1] + (k * k,), dtype=s.dtype)
    m[..., :: k + 1] = s[..., :1]
    m[..., k::k] = s[..., 1:]
    m[..., k * k - k + 1 : k * k - 1] = s[..., 1:-1]
    return m.reshape(s.shape + (k,))


def _outer_sums(g: np.ndarray) -> np.ndarray:
    """(..., K, K) -> (..., K): the outer-algebra sum of the products
    x_i y_j that g[..., i, j] holds, by t_i t_j = t_i**2 = the last row
    for i = j and 0 otherwise."""
    k = g.shape[-1]
    if k == 1:
        return g[..., 0]
    out = g[..., 0, :] + g[..., :, 0]
    out[..., 0] = g[..., 0, 0]
    # the diagonal's middle, (i, i) for 0 < i < k - 1, every k + 1 entries
    out[..., -1] += g.reshape(g.shape[:-2] + (k * k,))[..., k + 1 : k * k - 1 : k + 1].sum(axis=-1)
    return out


def _outer_reciprocal(s: np.ndarray) -> np.ndarray:
    """Inverse of the outer-algebra element s:
    r0 = 1/s0, r_i = -s_i r0**2, r_last = (r0 sum_i s_i**2 - s_last) r0**2."""
    r = np.empty_like(s)
    r0 = r[..., 0] = 1 / s[..., 0]
    if s.shape[-1] > 1:
        firsts = s[..., 1:-1]
        r[..., 1:-1] = -firsts * (r0 * r0)[..., None]
        r[..., -1] = (r0 * (firsts * firsts).sum(axis=-1) - s[..., -1]) * (r0 * r0)
    return r


def _packed_quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """q = a / b for (P, K, |B| + 2) packed coefficients, by the quotient
    rule of the module docstring (Griewank and Walther 2008, 13.2):
    dividing by b0 is one product by R, the multiplication matrix of 1/b0."""
    if not b[..., 0, 0].all():
        raise DegenerateJetDivision("jet division by a jet with zero value part")
    r = _outer_product_matrix(_outer_reciprocal(b[..., 0]))
    q0 = (r @ a[..., :1])[..., 0]
    q = r @ (a - _outer_product_matrix(q0) @ b)
    q[..., 0] = q0
    q[..., -1] -= (r @ _outer_sums(q[..., 1:-1] @ b[..., 1:-1].swapaxes(-1, -2))[..., None])[..., 0]
    return q
