"""Numerical Laplace-Beltrami (tension) and conformality operators.

On a compact matrix group with the left-invariant Re-trace metric,

    tau(h)(p)      = sum_Z  d^2/ds^2 h(p exp(sZ)) |_0,
    kappa(h, g)(p) = sum_Z  [d/ds h(p exp(sZ))] [d/ds g(p exp(sZ))] |_0,

the sums running over an orthonormal Lie-algebra basis.  The tension
formula has no first-order term because every basis element Z is a
normal matrix, [Z, Z*] = 0; this is asserted (to 1e-12) when a context
is built rather than assumed, and a basis that violates it is refused.

``tension2`` computes tau(tau(h)) by moving the base point along W with
an outer jet and evaluating h on inner jets along every Z, i.e. it
evaluates h over nested 2-jets for all ordered basis pairs (W, Z) at
O(|B|^2) expression evaluations.  Derivatives are read off with the
half-second-derivative convention: a jet's ``a2`` is h''/2.
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
    """A group plus its cached basis data, shared across evaluations."""

    spec: GroupSpec
    mats: list[np.ndarray]
    half_squares: list[np.ndarray]

    @classmethod
    def for_spec(cls, spec: GroupSpec) -> "OperatorContext":
        elements = basis(spec)
        for e in elements:
            z = e.matrix
            if np.max(np.abs(z @ z.conj().T - z.conj().T @ z)) > _BRACKET_TOL:
                raise ShapeError(f"basis element {e.label} is not normal: [Z, Z*] != 0")
        return cls(spec, [e.matrix for e in elements], [e.half_square() for e in elements])


def _as_matrix(point) -> np.ndarray:
    return point.matrix if isinstance(point, GroupPoint) else point


def _a1(value):
    """First jet coefficient; constant expressions evaluate to bare scalars."""
    return value.a1 if isinstance(value, Jet2) else 0j


def _a2(value):
    return value.a2 if isinstance(value, Jet2) else 0j


def tension(h: RationalExpr, point, ctx: OperatorContext) -> complex:
    """tau(h) at the point: basis sum of second jet coefficients (times 2)."""
    base = _as_matrix(point)
    total = 0j
    for z, zh in zip(ctx.mats, ctx.half_squares):
        total += 2 * _a2(h.evaluate(translate(base, z, zh)))
    return total


def conformality(h1: RationalExpr, h2: RationalExpr, point, ctx: OperatorContext) -> complex:
    """kappa(h1, h2) at the point: basis sum of first-derivative products.

    Symmetric in (h1, h2) to machine precision because each summand is a
    plain commutative product evaluated in a fixed basis order.
    """
    base = _as_matrix(point)
    total = 0j
    for z, zh in zip(ctx.mats, ctx.half_squares):
        jm = translate(base, z, zh)
        cache: dict = {}
        total += _a1(h1.evaluate(jm, cache)) * _a1(h2.evaluate(jm, cache))
    return total


def tension2(h: RationalExpr, point, ctx: OperatorContext) -> complex:
    """tau(tau(h)) via nested jets over all ordered basis pairs (W, Z).

    The outer jet moves the point along W, the inner along Z; the
    combined coefficient 4 * a2.a2 is the mixed fourth-order term, so the
    result equals sum_W d^2/dt^2 [tau(h)(p exp(tW))] |_0.
    """
    base = _as_matrix(point)
    total = 0j
    for w, wh in zip(ctx.mats, ctx.half_squares):
        outer = translate(base, w, wh)
        for z, zh in zip(ctx.mats, ctx.half_squares):
            jet = h.evaluate(translate(outer, z, zh))
            total += 4 * _a2(_a2(jet))
    return total


def relative_residual(actual: complex, expected: complex) -> float:
    """|actual - expected| / max(1, |expected|)."""
    return abs(actual - expected) / max(1.0, abs(expected))
