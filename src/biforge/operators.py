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
(``forms.evaluate_all``), and reads off every expression's value, its
tension and kappa of every pair; the packed column order and the
half-second-derivative factor stay inside this module.
``tension`` and ``conformality`` read one entry of that read-out.
``bitension_jets`` computes tau(tau(h)) by moving the points along
outer directions W_i in the collapsed outer algebra (see
:mod:`biforge.algebra`) and reading the basis sum of second
coefficients at its last row, the sum over i of the t_i**2
coefficients.  Each walk carries as many directions as fit a fixed
width of jet entries per point, and never fewer than four: one walk on
su(3), two on su(4), and |B|/4 walks (rounded up) on algebras of
dimension 31 or more.  The value and tau(h) come with it, read at the
first row of the first walk; ``tension2`` reads the bitension alone.
Derivatives are read off with the half-second-derivative convention.

The context keeps the extended basis in compact form: every element is
a scaled partial permutation, so a form's packed jet needs one gather
per leaf (``E_e v``) rather than a product with a dense (|B| + 2, N, N)
stack, and [Z, Z*] = 0 is a comparison of row and column moduli.

Points come as a (P, N, N) stack, as sampled, and give a (P,) array; a
single (N, N) matrix is a batch of one and gives a complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .algebra import PackedJet, PackedPoint
from .errors import ShapeError
from .forms import RationalExpr, evaluate_all
from .groups import GroupSpec, basis_entries

__all__ = [
    "OperatorContext",
    "context",
    "laplacian_jets",
    "bitension_jets",
    "tension",
    "conformality",
    "tension2",
    "relative_residual",
]

_BRACKET_TOL = 1e-12
# complex entries per point of a bitension walk's jets, (D + 2)(|B| + 2)
# for D outer directions: four on a 36-dimensional algebra.  Narrower
# algebras pack more directions into it, wider ones keep four (K = 6
# outer rows); every jet a walk keeps live is that wide
_WALK_WIDTH = 228
_DIRECTIONS_PER_WALK = 4


@dataclass(frozen=True, eq=False)
class OperatorContext:
    """A group's extended basis E = [I, Z_1, ..., Z_|B|, H], shared across
    evaluations, with H = sum_b Z_b**2 / 2 computed from the basis itself.

    A context is immutable, its arrays read-only, so ``context(spec)``
    shares one per group with every caller in the process;
    ``for_spec`` builds a fresh one.

    Every E_e is a scaled partial permutation, at most one nonzero per row
    and per column, and is kept as two (|B| + 2, N) arrays:
    E_e[k, cols[e, k]] = vals[e, k], with cols[e, k] = k on a zero row.
    So E_e v is the gather ``vals[e] * v[cols[e]]``.
    """

    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def for_spec(cls, spec: GroupSpec) -> "OperatorContext":
        n = spec.ambient_dim
        cols = np.empty((spec.dimension + 2, n), dtype=np.intp)
        cols[:] = np.arange(n)
        vals = np.zeros((spec.dimension + 2, n), dtype=complex)
        vals[0] = 1
        square = {}  # row -> (column, value) of sum_b Z_b**2
        for b, (label, rows, columns, values) in enumerate(basis_entries(spec), 1):
            _set_row(cols[b], vals[b], rows, columns, values, label)
            _check_normal_and_square(square, rows, columns, values, label)
        rows = tuple(square)
        columns = tuple(square[r][0] for r in rows)
        _set_row(cols[-1], vals[-1], rows, columns, tuple(square[r][1] / 2 for r in rows), "H")
        cols.flags.writeable = vals.flags.writeable = False
        return cls(cols, vals)


@cache
def context(spec: GroupSpec) -> OperatorContext:
    """The context of ``spec``, built by ``OperatorContext.for_spec`` on the
    first call and shared by every later one."""
    return OperatorContext.for_spec(spec)


def _set_row(cols, vals, rows, columns, values, label: str) -> None:
    """Write the element holding values[i] at (rows[i], columns[i]) into
    one row of the compact basis; refuse two nonzeros in one row or
    column."""
    if any(rows.count(r) > 1 for r in rows) or any(columns.count(c) > 1 for c in columns):
        raise ShapeError(f"basis element {label} has two nonzeros in one row or column")
    for r, c, x in zip(rows, columns, values):
        cols[r], vals[r] = c, x


def _check_normal_and_square(square: dict, rows, columns, values, label: str) -> None:
    """Refuse an element with [Z, Z*] != 0, and add Z**2 into ``square``."""
    for c, x in zip(columns, values):
        # [Z, Z*] is diagonal with |row k|**2 - |column k|**2 at (k, k).
        # Column c holds only x and row c only x2; once every column in
        # use passes, those columns are the nonzero rows, so every k does
        x2 = values[rows.index(c)] if c in rows else 0
        if abs(abs(x2) ** 2 - abs(x) ** 2) > _BRACKET_TOL:
            raise ShapeError(f"basis element {label} is not normal: [Z, Z*] != 0")
    for r, c, x in zip(rows, columns, values):
        if c in rows:  # Z**2 holds x * Z[c, c2] at (r, c2)
            i = rows.index(c)
            column, total = square.get(r, (columns[i], 0))
            if column != columns[i]:
                raise ShapeError(f"H = sum Z**2 / 2 has two nonzeros in one row at {label}")
            square[r] = (column, total + x * values[i])


def _batch(point) -> tuple[np.ndarray, bool]:
    """The points as a (P, N, N) stack, and whether one matrix was given."""
    stack = np.asarray(point)
    return (stack[None], True) if stack.ndim == 2 else (stack, False)


def _coefficients(value, walk: PackedPoint) -> np.ndarray:
    """The packed coefficients of a walk's result; a constant has only a value."""
    if isinstance(value, PackedJet):
        return value.c
    c = np.zeros(walk.shape, dtype=complex)
    c[:, 0, 0] = value
    return c


def _result(values):
    """A single point's 0-d result as a complex, a batch's (P,) array as it is."""
    return complex(values) if np.ndim(values) == 0 else values


def laplacian_jets(exprs, point, ctx: OperatorContext):
    """Values, tensions and kappa of every pair of the expressions, from one walk.

    Returns ``(values, tau, kappa)`` of shapes (E, P), (E, P) and
    (E, E, P) for E expressions; a single (N, N) matrix drops the point
    axis.  The expressions are one forest to ``evaluate_all``, so a node
    they share is evaluated once.  tau is twice the basis sum of second
    coefficients; kappa is sum_b d_ib d_jb over the first-order columns,
    one einsum contraction outside BLAS.  It sums every entry over b in
    one fixed order, so an entry's rounding depends on neither the other
    expressions nor the thread count, and kappa is exactly symmetric.
    """
    stack, single = _batch(point)
    walk = PackedPoint(stack, ctx.cols, ctx.vals)
    jets = np.stack([_coefficients(value, walk)[:, 0] for value in evaluate_all(exprs, walk)])
    d = jets[..., 1:-1]
    out = jets[..., 0], 2 * jets[..., -1], np.einsum("ipb,jpb->ijp", d, d)
    return tuple(x[..., 0] for x in out) if single else out


def tension(h: RationalExpr, point, ctx: OperatorContext):
    """tau(h) at the points: twice the basis sum of second jet coefficients."""
    return _result(laplacian_jets([h], point, ctx)[1][0])


def conformality(h1: RationalExpr, h2: RationalExpr, point, ctx: OperatorContext):
    """kappa(h1, h2) at the points: basis sum of first-derivative products.

    Exactly symmetric in (h1, h2), as every kappa of ``laplacian_jets``.
    """
    return _result(laplacian_jets([h1, h2], point, ctx)[2][0, 1])


def bitension_jets(h: RationalExpr, point, ctx: OperatorContext):
    """Values, tensions and bitensions tau(tau(h)) of one expression.

    Returns ``(values, tau, tau2)``, each of shape (P,); a single (N, N)
    matrix drops the point axis.  Each walk moves the points along D
    outer directions W_i at once, as many as keep (D + 2)(|B| + 2) within
    ``_WALK_WIDTH`` but at least ``_DIRECTIONS_PER_WALK``, a count read
    from the group alone, so no point's result depends on its batch; the
    last row of the basis sum of second coefficients, times 4, is
    sum_i d^2/dt^2 [tau(h)(p exp(tW_i))] |_0, and the walks, added in
    basis order, give tau(tau(h)).  The value and tau are read at the
    first row of the first walk, where the layer is the point itself.
    """
    stack, single = _batch(point)
    total = np.zeros(len(stack), dtype=complex)
    stop = len(ctx.cols) - 1
    step = max(_DIRECTIONS_PER_WALK, _WALK_WIDTH // len(ctx.cols) - 2)
    for first in range(1, stop, step):
        outer = _outer_stack(ctx, first, min(first + step, stop))
        walk = PackedPoint(stack, ctx.cols, ctx.vals, outer)
        # the value and Laplacian columns, copied so no walk's jet outlives it
        ends = _coefficients(h.evaluate(walk), walk)[..., [0, -1]]
        if first == 1:
            values, tau = ends[:, 0, 0].copy(), 2 * ends[:, 0, 1]
        total += 4 * ends[:, -1, 1]
    out = values, tau, total
    return tuple(x[0] for x in out) if single else out


def tension2(h: RationalExpr, point, ctx: OperatorContext):
    """tau(tau(h)) at the points: the last entry of ``bitension_jets``."""
    return _result(bitension_jets(h, point, ctx)[2])


def _outer_stack(ctx: OperatorContext, first: int, stop: int) -> np.ndarray:
    """[I, W_1, ..., W_D, sum_i W_i**2/2] for W_i = E_first .. E_stop-1.
    W**2 of a scaled partial permutation is again one: row k holds
    vals[k] * vals[cols[k]] at column cols[cols[k]]."""
    cols, vals = ctx.cols[first:stop], ctx.vals[first:stop]
    d, n = cols.shape
    rows = np.arange(n)
    outer = np.zeros((d + 2, n, n), dtype=complex)
    outer[0, rows, rows] = 1
    outer[np.arange(1, d + 1)[:, None], rows, cols] = vals
    squares = 0.5 * (vals * np.take_along_axis(vals, cols, axis=1))
    np.add.at(outer[-1], (np.broadcast_to(rows, cols.shape), np.take_along_axis(cols, cols, axis=1)), squares)
    return outer


def relative_residual(actual, expected):
    """|actual - expected| / max(1, |expected|), entrywise for arrays."""
    return np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))
