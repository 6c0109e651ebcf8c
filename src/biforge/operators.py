"""Numerical Laplace-Beltrami (tension) and conformality operators.

On a compact matrix group with the left-invariant Re-trace metric,

    tau(h)(p)      = sum_Z  d^2/ds^2 h(p exp(sZ)) |_0,
    kappa(h, g)(p) = sum_Z  [d/ds h(p exp(sZ))] [d/ds g(p exp(sZ))] |_0,

the sums running over an orthonormal Lie-algebra basis.  The tension
formula has no first-order term because every basis element Z is a
normal matrix, [Z, Z*] = 0; this is checked exactly when a context is
built rather than assumed, and a basis that violates it is refused.

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
width of jet entries per point, 240, and never fewer than four: one
walk on su(3), two on su(4), six directions a walk on so(8), and |B|/4
walks (rounded up) on algebras of dimension 33 or more.  The value and
tau(h) come with it, read at the first row of the first walk;
``tension2`` reads the bitension alone.
Derivatives are read off with the half-second-derivative convention.

The context keeps the extended basis in compact form: every element is
a scaled partial permutation, Z[k, cols[k]] = vals[k], so a form's packed
jet needs one gather per leaf (``E_e v``) rather than a product with a
dense (|B| + 2, N, N) stack.  Every element's pattern is also an
involution, cols[cols[k]] = k, which the context checks.  Then one gather,
the partners vals[cols], gives everything else: column c holds
partners[c] in row cols[c]; Z Z* and Z* Z are diagonal with |vals[k]|**2
and |partners[k]|**2 at (k, k), so [Z, Z*] = 0 is the exact comparison
|vals| == |partners|; and Z**2 is diagonal with vals[k] * partners[k] at
(k, k).  The context adds those squares over the whole basis for H, and
a walk over its outer directions W_i (``_outer_stack``), both in basis
order; a walk's outer layers are gathers like ``E_e v`` too.

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

# complex entries per point of a bitension walk's jets, (D + 2)(|B| + 2)
# for D outer directions: six on so(8), 28-dimensional, and four still fit
# a 36-dimensional algebra.  Narrower algebras pack more directions into
# it, wider ones keep four (K = 6 outer rows), so every jet a walk keeps
# live holds at most max(240, 6(|B| + 2)) entries per point
_WALK_WIDTH = 240
_DIRECTIONS_PER_WALK = 4


@dataclass(frozen=True, eq=False)
class OperatorContext:
    """A group's extended basis E = [I, Z_1, ..., Z_|B|, H], shared across
    evaluations, with H = sum_b Z_b**2 / 2 computed from the basis itself,
    never from the group's eigenvalue, and diagonal.

    ``for_spec`` reads ``groups.basis_entries`` once, in basis order, and
    refuses the first element that is not a scaled partial permutation,
    whose pattern is not an involution, or that is not normal, by name.

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
        for b, (label, rows, columns, values) in enumerate(basis_entries(spec), 1):
            if len(set(rows)) < len(rows) or len(set(columns)) < len(columns):
                raise ShapeError(f"basis element {label} has two nonzeros in one row or column")
            for r, c, x in zip(rows, columns, values):
                cols[b, r], vals[b, r] = c, x
            if (cols[b][cols[b]] != cols[0]).any():
                raise ShapeError(f"basis element {label} is not an involutive pattern")
            partners = vals[b][cols[b]]
            if (np.abs(vals[b]) != np.abs(partners)).any():
                raise ShapeError(f"basis element {label} is not normal: [Z, Z*] != 0")
            vals[-1] += vals[b] * partners
        vals[-1] /= 2
        cols.flags.writeable = vals.flags.writeable = False
        return cls(cols, vals)


@cache
def context(spec: GroupSpec) -> OperatorContext:
    """The context of ``spec``, built by ``OperatorContext.for_spec`` on the
    first call and shared by every later one."""
    return OperatorContext.for_spec(spec)


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


def _outer_stack(ctx: OperatorContext, first: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """[I, W_1, ..., W_D, sum_i W_i**2/2] for W_i = E_first .. E_stop-1, as
    (index, weights), both (D + 2, N): column c of layer k holds its one
    nonzero weights[k, c] in row index[k, c]: the partners of W_i, and the
    diagonal of the squares (module docstring)."""
    cols, vals = ctx.cols[first:stop], ctx.vals[first:stop]
    partners = vals[np.arange(len(cols))[:, None], cols]
    # I and the diagonal take the pattern of E_0 = I; the squares are
    # added over i in basis order, and halving the sum is exact
    index = np.concatenate([ctx.cols[:1], cols, ctx.cols[:1]])
    weights = np.concatenate([ctx.vals[:1], partners, 0.5 * (vals * partners).sum(axis=0, keepdims=True)])
    return index, weights


def relative_residual(actual, expected):
    """|actual - expected| / max(1, |expected|), entrywise for arrays."""
    return np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))
