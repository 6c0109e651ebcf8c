"""Numerical Laplace-Beltrami (tension) and conformality operators.

On a compact matrix group with the left-invariant Re-trace metric,

    tau(h)(p)      = sum_Z  d^2/ds^2 h(p exp(sZ)) |_0,
    kappa(h, g)(p) = sum_Z  [d/ds h(p exp(sZ))] [d/ds g(p exp(sZ))] |_0,

the sums running over an orthonormal Lie-algebra basis.  The tension
formula has no first-order term because every basis element Z is a
normal matrix, [Z, Z*] = 0; this is asserted (to 1e-12) when a context
is built rather than assumed, and a basis that violates it is refused.

Every operator evaluates h on jets along the whole basis at once: the
basis is held as one (|B|, N, N) stack, jet coefficients along it are
(|B|,) arrays, and the basis sum is a vector sum.  ``tension`` and
``conformality`` walk the expression tree once per point.  ``tension2``
computes tau(tau(h)) by moving the base point along W with an outer jet
and evaluating h on inner jets along the stacked Z, i.e. one walk over
nested basis-batched 2-jets per outer direction W, |B| walks in all.
Derivatives are read off with the half-second-derivative convention: a
jet's ``a2`` is h''/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Jet2, translate
from .errors import ShapeError
from .forms import RationalExpr
from .groups import GroupPoint, GroupSpec, basis

__all__ = [
    "OperatorContext",
    "tension",
    "conformality",
    "tension2",
    "relative_residual",
]

_BRACKET_TOL = 1e-12


@dataclass(eq=False)
class OperatorContext:
    """A group plus its stacked basis, shared across evaluations.

    ``stack[b]`` is the basis element Z_b and ``half_stack[b]`` is
    Z_b**2/2, both of shape (|B|, N, N).
    """

    spec: GroupSpec
    stack: np.ndarray
    half_stack: np.ndarray

    @classmethod
    def for_spec(cls, spec: GroupSpec) -> "OperatorContext":
        elements = basis(spec)
        for e in elements:
            z = e.matrix
            if np.max(np.abs(z @ z.conj().T - z.conj().T @ z)) > _BRACKET_TOL:
                raise ShapeError(f"basis element {e.label} is not normal: [Z, Z*] != 0")
        stack = np.array([e.matrix for e in elements])
        del elements
        half_stack = np.matmul(stack, stack)
        half_stack *= 0.5
        return cls(spec, stack, half_stack)


def _as_matrix(point) -> np.ndarray:
    return point.matrix if isinstance(point, GroupPoint) else point


def _a1(value):
    """First jet coefficient; constant expressions evaluate to bare scalars."""
    return value.a1 if isinstance(value, Jet2) else 0j


def _a2(value):
    return value.a2 if isinstance(value, Jet2) else 0j


def tension(h: RationalExpr, point, ctx: OperatorContext) -> complex:
    """tau(h) at the point: basis sum of second jet coefficients (times 2)."""
    jet = h.evaluate(translate(_as_matrix(point), ctx.stack, ctx.half_stack))
    return complex(2 * np.sum(_a2(jet)))


def conformality(h1: RationalExpr, h2: RationalExpr, point, ctx: OperatorContext) -> complex:
    """kappa(h1, h2) at the point: basis sum of first-derivative products.

    Exactly symmetric in (h1, h2): each summand is the symmetrized
    product (d1 d2 + d2 d1) / 2, because numpy's vectorized complex
    multiply is not bit-symmetric in its operands.
    """
    jm = translate(_as_matrix(point), ctx.stack, ctx.half_stack)
    cache: dict = {}
    d1 = _a1(h1.evaluate(jm, cache))
    d2 = _a1(h2.evaluate(jm, cache))
    return complex(np.sum((d1 * d2 + d2 * d1) / 2))


def tension2(h: RationalExpr, point, ctx: OperatorContext) -> complex:
    """tau(tau(h)) via nested jets: outer direction W, inner Z stacked.

    The outer jet moves the point along W, the inner along every Z at
    once; the combined coefficient 4 * a2.a2 is the mixed fourth-order
    term, so the result equals sum_W d^2/dt^2 [tau(h)(p exp(tW))] |_0.
    """
    base = _as_matrix(point)
    total = 0j
    for w, wh in zip(ctx.stack, ctx.half_stack):
        jet = h.evaluate(translate(translate(base, w, wh), ctx.stack, ctx.half_stack))
        total += 4 * np.sum(_a2(_a2(jet)))
    return complex(total)


def relative_residual(actual: complex, expected: complex) -> float:
    """|actual - expected| / max(1, |expected|)."""
    return abs(actual - expected) / max(1.0, abs(expected))
