"""Scalar tower: exact rationals and degree-2 truncated Taylor jets.

Two scalar families are used throughout the package:

* exact rationals (:class:`fractions.Fraction`), the coefficient type of
  every linear-system solve in :mod:`biforge.construct`;
* degree-2 truncated Taylor jets (:class:`Jet2`), the differentiation
  primitive behind the Laplace-Beltrami and conformality operators.

A ``Jet2`` stores ``(a0, a1, a2)`` with the convention

    h(s) = a0 + a1*s + a2*s**2 + O(s**3),

so ``a2`` carries *half* of the second derivative; extraction sites that
need h''(0) must read ``2*a2``.  This convention keeps multiplication a
plain coefficient convolution.

Coefficients are generic: complex numbers, ``Fraction``, or further jets
all work through the same arithmetic.  Nesting a jet-over-jets (outer
parameter t, inner parameter s) represents a two-parameter expansion

    h(s, t) = sum_{i,j<=2} c_ij s**i t**j + ...,

whose top coefficient delivers the mixed fourth-order derivative needed
for the bitension field.  There is deliberately no bespoke fourth-order
jet type.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateJetDivision, ShapeError

__all__ = [
    "Jet2",
    "JetMatrix",
    "Stacked",
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
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Jet2(self.a0 + other, self.a1, self.a2)

    def __radd__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Jet2(other + self.a0, self.a1, self.a2)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.a0 - other.a0, self.a1 - other.a1, self.a2 - other.a2)
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Jet2(self.a0 - other, self.a1, self.a2)

    def __rsub__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Jet2(other - self.a0, -self.a1, -self.a2)

    def __neg__(self):
        return Jet2(-self.a0, -self.a1, -self.a2)

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.a0 * other.a0,
                self.a0 * other.a1 + self.a1 * other.a0,
                self.a0 * other.a2 + self.a1 * other.a1 + self.a2 * other.a0,
            )
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Jet2(self.a0 * other, self.a1 * other, self.a2 * other)

    def __rmul__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Jet2(other * self.a0, other * self.a1, other * self.a2)

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * jet_reciprocal(other)
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Jet2(self.a0 / other, self.a1 / other, self.a2 / other)

    def __rtruediv__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
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
    """Innermost ``a0`` of a (possibly nested) jet; identity on scalars."""
    while isinstance(x, Jet2):
        x = x.a0
    return x


def jet_reciprocal(y: Jet2) -> Jet2:
    """Multiplicative inverse modulo s**3; requires a nonzero leading value."""
    r0 = _reciprocal_scalar(y.a0)
    return Jet2(r0, -(y.a1 * r0) * r0, ((y.a1 * y.a1) * r0 - y.a2) * (r0 * r0))


def _reciprocal_scalar(x):
    if isinstance(x, Jet2):
        return jet_reciprocal(x)
    if x == 0:
        raise DegenerateJetDivision("jet division by a jet with zero value part")
    return 1 / x


class JetMatrix:
    """Matrix-valued 2-jet: three coefficient layers sharing one shape.

    ``a0``, ``a1``, ``a2`` are complex ndarrays, :class:`Stacked` products
    (for a jet along a stack of directions) or further JetMatrix layers
    (for nested jets).  Entry extraction of an unstacked jet produces the
    corresponding scalar :class:`Jet2`; linear algebra stays vectorized
    on the coefficient matrices, which is what makes jet evaluation of
    linear forms cheap.
    """

    __slots__ = ("a0", "a1", "a2")

    def __init__(self, a0, a1, a2):
        self.a0 = a0
        self.a1 = a1
        self.a2 = a2

    @property
    def shape(self):
        layer = self.a0
        while isinstance(layer, JetMatrix):
            layer = layer.a0
        return layer.shape

    def entry(self, i: int, j: int) -> Jet2:
        if isinstance(self.a0, JetMatrix):
            return Jet2(self.a0.entry(i, j), self.a1.entry(i, j), self.a2.entry(i, j))
        return Jet2(self.a0[i, j], self.a1[i, j], self.a2[i, j])


class Stacked:
    """The stack of products ``left @ stack[b]``, kept unmultiplied.

    ``left`` is an (N, N) matrix and ``stack`` has shape (|B|, N, N).  A
    linear form f satisfies f(X Z_b) = <X^T C, Z_b> for its coefficients
    C, so it contracts this pair directly (see ``LinearForm.evaluate``)
    and the (|B|, N, N) products are never formed.
    """

    __slots__ = ("left", "stack")

    def __init__(self, left: np.ndarray, stack: np.ndarray):
        self.left = left
        self.stack = stack


def _times(x, m: np.ndarray):
    """``x @ m`` layer by layer; a stacked ``m`` stays a :class:`Stacked` pair."""
    if isinstance(x, JetMatrix):
        return JetMatrix(_times(x.a0, m), _times(x.a1, m), _times(x.a2, m))
    return Stacked(x, m) if m.ndim == 3 else x @ m


def translate(base, direction: np.ndarray, half_square: np.ndarray | None = None) -> JetMatrix:
    """2-jet of ``base * exp(s*Z)``: ``base + s*(base Z) + s**2*(base Z**2/2)``.

    ``base`` is a matrix or a JetMatrix; for a JetMatrix the new parameter
    s becomes the outermost jet layer, giving a nested two-parameter jet.
    ``direction`` (and ``half_square``) may be a stack of shape
    (|B|, N, N): the s-layers are then :class:`Stacked` products, and a
    form evaluated on the jet has (|B|,) arrays as its s-coefficients, one
    entry per direction.
    """
    if half_square is None:
        half_square = 0.5 * (direction @ direction)
    if base.shape[1] != direction.shape[-2]:
        raise ShapeError(f"cannot translate a {base.shape} base along a {direction.shape} direction")
    return JetMatrix(base, _times(base, direction), _times(base, half_square))
