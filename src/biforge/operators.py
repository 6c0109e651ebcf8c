"""Numerical Laplace-Beltrami (tension) and conformality operators.

On a compact matrix group with the left-invariant Re-trace metric,

    tau(h)(p)      = sum_Z  d^2/ds^2 h(p exp(sZ)) |_0,
    kappa(h, g)(p) = sum_Z  [d/ds h(p exp(sZ))] [d/ds g(p exp(sZ))] |_0,

the sums running over an orthonormal Lie-algebra basis.  The tension
formula has no first-order term because every basis element Z is a
normal matrix, [Z, Z*] = 0; this is asserted (to 1e-12) when a context
is built rather than assumed, and a basis that violates it is refused.

Every operator evaluates h on packed Laplacian jets (see
:mod:`biforge.algebra`): all points and all basis directions in one
array per tree node, holding each point's value, its first derivatives
along every Z_b and the basis sum of its second derivatives.
``laplacian_jets`` walks a list of expressions once, as one forest
(``forms.evaluate_all``), and returns all of that for every
expression: the value is column 0, tau is twice the last column, and
``kappa_matrix`` gives kappa of every pair as one Gram product of the
first-order columns.
``tension`` and ``conformality`` read one or two expressions off it.
``tension2`` computes tau(tau(h)) by moving the points along each outer
direction W with a t-series of three orders and reading the t**2
coefficient of the basis sum: |B| walks in all.  Derivatives are read
off with the half-second-derivative convention.

Points come as a (P, N, N) stack, as sampled, and give a (P,) array; a
single (N, N) matrix is a batch of one and gives a complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import PackedJet, PackedPoint
from .errors import ShapeError
from .forms import RationalExpr, evaluate_all
from .groups import GroupSpec, iter_basis

__all__ = [
    "OperatorContext",
    "laplacian_jets",
    "kappa_matrix",
    "tension",
    "conformality",
    "tension2",
    "relative_residual",
]

_BRACKET_TOL = 1e-12


@dataclass(eq=False)
class OperatorContext:
    """A group's extended basis stack, shared across evaluations.

    ``extended`` has shape (|B| + 2, N, N): the identity, the basis
    elements Z_1 ... Z_|B|, and H = sum_b Z_b**2 / 2, computed from the
    basis itself.
    """

    extended: np.ndarray

    @classmethod
    def for_spec(cls, spec: GroupSpec) -> "OperatorContext":
        n = spec.ambient_dim
        extended = np.zeros((spec.dimension + 2, n, n), dtype=complex)
        extended[0] = np.eye(n)
        half_sum = extended[-1]
        for b, e in enumerate(iter_basis(spec), 1):
            z = e.matrix
            if np.max(np.abs(z @ z.conj().T - z.conj().T @ z)) > _BRACKET_TOL:
                raise ShapeError(f"basis element {e.label} is not normal: [Z, Z*] != 0")
            extended[b] = z
            half_sum += z @ z
        half_sum *= 0.5
        return cls(extended)


def _batch(point) -> tuple[np.ndarray, bool]:
    """The points as a (P, N, N) stack, and whether one matrix was given."""
    stack = np.asarray(point)
    return (stack[None], True) if stack.ndim == 2 else (stack, False)


def _coefficients(value, walk: PackedPoint) -> np.ndarray:
    """The packed coefficients of a walk's result; a constant has only a value."""
    if isinstance(value, PackedJet):
        return value.c
    c = np.zeros(walk.layers.shape[:2] + (len(walk.extended),), dtype=complex)
    c[:, 0, 0] = value
    return c


def _result(values):
    """A single point's 0-d result as a complex, a batch's (P,) array as it is."""
    return complex(values) if np.ndim(values) == 0 else values


def laplacian_jets(exprs, point, ctx: OperatorContext) -> np.ndarray:
    """Packed coefficients of every expression at the points, from one walk.

    Returns shape (len(exprs), P, |B| + 2): per point the value, the |B|
    first derivatives along the basis and the basis sum of the second
    coefficients.  The expressions are one forest to ``evaluate_all``, so
    a node they share is evaluated once.  A single (N, N) matrix gives
    shape (len(exprs), |B| + 2).
    """
    stack, single = _batch(point)
    walk = PackedPoint(stack[:, None], ctx.extended)
    jets = np.stack([_coefficients(value, walk)[:, 0] for value in evaluate_all(exprs, walk)])
    return jets[:, 0] if single else jets


def kappa_matrix(jets: np.ndarray) -> np.ndarray:
    """kappa of every pair of the expressions behind ``jets``, shape (E, E, ...).

    One Gram product of the first-order columns, sum_b d_ib d_jb over the
    basis, made exactly symmetric as (G + G^T) / 2.  The transposed
    operand is a copy: for ``d @ d.T`` of one buffer numpy runs a
    symmetric rank-k update, whose fixed operand roles would make
    kappa(h1, h2) and kappa(h2, h1) differ in the last bit (a complex
    multiply is not bit-symmetric); a general product computes every
    entry the same way.
    """
    d = np.moveaxis(jets[..., 1:-1], 0, -2)
    gram = d @ np.ascontiguousarray(d.swapaxes(-1, -2))
    return np.moveaxis((gram + gram.swapaxes(-1, -2)) / 2, (-2, -1), (0, 1))


def tension(h: RationalExpr, point, ctx: OperatorContext):
    """tau(h) at the points: twice the basis sum of second jet coefficients."""
    return _result(2 * laplacian_jets([h], point, ctx)[0, ..., -1])


def conformality(h1: RationalExpr, h2: RationalExpr, point, ctx: OperatorContext):
    """kappa(h1, h2) at the points: basis sum of first-derivative products.

    Exactly symmetric in (h1, h2), as every entry of ``kappa_matrix``.
    """
    return _result(kappa_matrix(laplacian_jets([h1, h2], point, ctx))[0, 1])


def tension2(h: RationalExpr, point, ctx: OperatorContext):
    """tau(tau(h)) via an outer t-series along each W over the packed Z jets.

    The layers [p, pW, pW**2/2] move the points along W; the t**2
    coefficient of the basis sum of second coefficients, times 4, is
    d^2/dt^2 [tau(h)(p exp(tW))] |_0, and the sum over W is tau(tau(h)).
    """
    stack, single = _batch(point)
    total = np.zeros(len(stack), dtype=complex)
    for w in ctx.extended[1:-1]:
        moved = stack @ w
        walk = PackedPoint(np.stack([stack, moved, 0.5 * (moved @ w)], axis=1), ctx.extended)
        total += 4 * _coefficients(h.evaluate(walk), walk)[:, 2, -1]
    return _result(total[0] if single else total)


def relative_residual(actual, expected):
    """|actual - expected| / max(1, |expected|), entrywise for arrays."""
    return np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))
