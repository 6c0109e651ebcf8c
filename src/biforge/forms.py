"""Building-block functions on the groups and the expressions made of them.

A :class:`LinearForm` is a rank-one first-order polynomial in the matrix
coefficients of the standard representation, f(X) = u^T X[:n] v, as the
paper builds every function (P_j = sum_k p_k a_j z_kj, Q = q (x) b).  Its
coefficient array u v^T has shape (n, ambient_dim): on U(n)/SO(n) that is
the whole n-by-n matrix; on Sp(n) the first n columns weight the z-block
coefficients and the last n columns the w-block, matching the ambient
2n-by-2n layout where the z-block is the top-left n-by-n corner and the
w-block the top-right.

:class:`RationalExpr` trees combine forms and complex constants through
sums, products and quotients; an integer power is a chain of shared
products (:func:`powers`).  A form is itself a leaf of such a tree, so
forms compose directly (``p * q - r * s``).  One tree evaluates with
identical traversal over any scalar tower: a matrix gives a complex, a
(P, N, N) stack of matrices a (P,) array, a (nested) Jet2 of matrices,
as ``algebra.translate`` builds, (nested) Jet2 scalars, and a
:class:`~biforge.algebra.PackedPoint` one packed Laplacian jet per node
for all P points at once.  Quotient nodes guard their denominator and
raise DomainError when it comes near zero at any of the points.

:func:`walk_order` lists a forest's nodes children first with their read
counts; :func:`evaluate_all` walks the forest once on them, computing a
node shared by several roots once.  ``RationalExpr.evaluate`` is its
single-root case.

A :class:`QuadrupleFamily` packages the eigenfunction quadruples
(numerators P_i, common denominator Q, and the exchange forms R, S_i)
whose conformality products close up with a constant mu:

    kappa(P_i, Q) = mu * R * S_i,   kappa(Q, Q) = mu * Q**2,  ...

Those product rules are what make the rational quotients f_i = P_i / Q
proper biharmonic and drive every construction downstream.
"""

from __future__ import annotations

import enum
import functools
import json
import operator
from dataclasses import dataclass

import numpy as np

from .algebra import Jet2, PackedJet, PackedPoint, leading_value
from .errors import (
    BiforgeError,
    DimensionMismatch,
    DomainError,
    IsotropyViolation,
    ZeroVector,
)
from .groups import GroupKind, GroupSpec

__all__ = [
    "LinearForm",
    "RationalExpr",
    "walk_order",
    "evaluate_all",
    "Const",
    "Sum",
    "Product",
    "powers",
    "Quotient",
    "QuadrupleFamily",
    "make_quadruple",
    "quotient",
    "dependent_rows",
    "isotropic",
    "Classification",
    "classify",
]


# ---------------------------------------------------------------------------
# expression trees

_MISSING = object()
_TOO_DEEP = "the expression tree is too deep to walk within the recursion limit"


def walk_order(roots) -> tuple[list, dict]:
    """Every node under ``roots`` once, children first, and the reads of
    each by id: one per parent that lists it plus one per place in
    ``roots``, how often a walk over the forest reads its value.
    """
    reads: dict = {}
    order = []
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        reads[id(node)] = reads.get(id(node), 0) + 1
        if reads[id(node)] == 1:
            stack.append((node, True))
            stack.extend((child, False) for child in node._children())
    return order, reads


def evaluate_all(roots, point) -> list:
    """The value of every root at ``point``, from one walk over the forest.

    A value is kept only while its reads say it will be read again, so
    a node shared inside or across roots is computed once.  The walk
    recurses once per level, and a forest deeper than the recursion
    limit allows is refused with a ``BiforgeError``.
    """
    return _walk(roots, point, _repeated_reads(roots))


def _repeated_reads(roots) -> dict:
    return {key: count for key, count in walk_order(roots)[1].items() if count > 1}


def _walk(roots, point, repeated: dict) -> list:
    walk = ({}, dict(repeated))
    try:
        return [root._eval(point, walk) for root in roots]
    except RecursionError:
        raise BiforgeError(_TOO_DEEP) from None


class RationalExpr:
    """Evaluable expression tree over linear forms and complex constants."""

    __slots__ = ("_reads",)

    def evaluate(self, point):
        """The tree's value at a matrix, a (P, N, N) stack of matrices, a
        (nested) Jet2 of matrices or a PackedPoint.

        The single-root case of :func:`evaluate_all`; the tree's reads
        are counted on its first evaluation and kept for the next.
        """
        if not hasattr(self, "_reads"):
            self._reads = _repeated_reads([self])
        return _walk([self], point, self._reads)[0]

    def _eval(self, point, walk):
        cache, reads = walk
        key = id(self)
        if key not in reads:
            return self._compute(point, walk)
        value = cache.get(key, _MISSING)
        if value is _MISSING:
            value = cache[key] = self._compute(point, walk)
        reads[key] -= 1
        if not reads[key]:
            del reads[key], cache[key]
        return value

    def _compute(self, point, walk):
        raise NotImplementedError

    def coeff_scale(self) -> float:
        raise NotImplementedError

    def _children(self):
        return ()

    # operator sugar, normalizing numbers to Const
    def __add__(self, other):
        return Sum((self, _as_expr(other)))

    def __sub__(self, other):
        return Sum((self, Product((Const(-1.0), _as_expr(other)))))

    def __mul__(self, other):
        return Product((self, _as_expr(other)))

    def __rmul__(self, other):
        return Product((_as_expr(other), self))

    def __truediv__(self, other):
        return Quotient(self, _as_expr(other))

    def __pow__(self, k: int):
        """The top of ``powers(self, k)``; ``Const(1.0)`` at k = 0."""
        k = operator.index(k)  # TypeError for a non-integer exponent
        if k < 0:
            raise ValueError("negative exponents are expressed through Quotient")
        return powers(self, k)[-1] if k else Const(1.0)


def _as_expr(x) -> RationalExpr:
    return x if isinstance(x, RationalExpr) else Const(x)


class Const(RationalExpr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = complex(value)

    def _compute(self, point, walk):
        return self.value

    def coeff_scale(self):
        return abs(self.value)

    def __repr__(self):
        return f"Const({self.value})"


def _unit(size: int, index: int) -> np.ndarray:
    e = np.zeros(size, dtype=complex)
    e[index] = 1
    return e


class LinearForm(RationalExpr):
    """Rank-one linear combination of matrix-coefficient functions: a tree
    leaf f(X) = u^T X[:n] v, with ``u`` of shape (n,) and ``v`` of shape
    (ambient_dim,), so its coefficient array is C = u v^T.

    ``coeffs`` rebuilds C on demand; the scale ``coeff_scale`` is
    ||u|| ||v||, the norm of C up to rounding, computed on its first call
    and kept.  A Quotient reads its denominator's scale when it is built,
    so a family build that makes no quotient computes none.  Walks key
    nodes by id, so forms compare by identity.
    """

    __slots__ = ("spec", "u", "v", "_scale")

    def __init__(self, spec: GroupSpec, u, v):
        u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
        if u.shape != (spec.n,) or v.shape != (spec.ambient_dim,):
            raise DimensionMismatch(
                f"factors must have shapes ({spec.n},) and ({spec.ambient_dim},), got {u.shape} and {v.shape}"
            )
        self.spec, self.u, self.v = spec, u, v

    @property
    def coeffs(self) -> np.ndarray:
        """The (n, ambient_dim) array C = u v^T."""
        return np.multiply.outer(self.u, self.v)

    @classmethod
    def coordinate(cls, spec: GroupSpec, row: int, col: int) -> "LinearForm":
        """The single matrix-coefficient function at (row, col), 0-based.

        On Sp(n), columns 0..n-1 address the z-block and n..2n-1 the
        w-block.
        """
        return cls(spec, _unit(spec.n, row), _unit(spec.ambient_dim, col))

    @classmethod
    def column(cls, spec: GroupSpec, rows: np.ndarray, col: int, weight: complex = 1.0) -> "LinearForm":
        """sum_k weight * rows[k] * m_k,col over column ``col``."""
        return cls(spec, np.asarray(rows, dtype=complex) * weight, _unit(spec.ambient_dim, col))

    def coeff_scale(self) -> float:
        if not hasattr(self, "_scale"):
            self._scale = float(np.linalg.norm(self.u) * np.linalg.norm(self.v))
        return self._scale

    def is_zero(self) -> bool:
        return not (self.u.any() and self.v.any())

    def evaluate(self, point):
        """u^T X[:n] v; a leaf needs no walk.

        A matrix gives a complex and a (P, N, N) stack a (P,) array; a
        Jet2 of matrices recurses layerwise into a Jet2.  A PackedPoint
        gives the PackedJet of f(X E_e) = (u^T X[:n]) (E_e v) over its
        layers X and its compact extended stack E: the point's row
        weights u^T X[:n] times the gathered E_e v, one product.
        """
        if isinstance(point, Jet2):
            return Jet2(
                self.evaluate(point.a0),
                self.evaluate(point.a1),
                self.evaluate(point.a2),
            )
        if isinstance(point, PackedPoint):
            weights = point.row_weights(self.u)
            return PackedJet((weights.reshape(-1, self.v.size) @ point.images(self.v).T).reshape(point.shape))
        point = np.asarray(point)
        values = (self.u[None] @ point[..., : self.spec.n, :]).reshape(-1, self.v.size) @ self.v[:, None]
        return complex(values[0, 0]) if point.ndim == 2 else values[:, 0]

    def _compute(self, point, walk):
        return self.evaluate(point)

    def __repr__(self):
        return f"LinearForm({self.spec.code}({self.spec.n}), nnz={int(np.count_nonzero(self.coeffs))})"


class Sum(RationalExpr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = tuple(_as_expr(t) for t in terms)

    def _compute(self, point, walk):
        total = self.terms[0]._eval(point, walk)
        for term in self.terms[1:]:
            total = total + term._eval(point, walk)
        return total

    def coeff_scale(self):
        return max((t.coeff_scale() for t in self.terms), default=0.0)

    def _children(self):
        return self.terms


class Product(RationalExpr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple(_as_expr(f) for f in factors)

    def _compute(self, point, walk):
        total = self.factors[0]._eval(point, walk)
        for factor in self.factors[1:]:
            total = total * factor._eval(point, walk)
        return total

    def coeff_scale(self):
        out = 1.0
        for f in self.factors:
            out *= f.coeff_scale()
        return out

    def _children(self):
        return self.factors


def powers(base, d: int) -> list:
    """The chain [f, f*f, (f*f)*f, ...] of f**1 .. f**d: each power is the
    one below times f, so the chain shares its d - 1 products."""
    chain = [_as_expr(base)]
    while len(chain) < d:
        chain.append(Product((chain[-1], chain[0])))
    return chain[:d]


# a denominator below this fraction of its coefficient scale is a pole
_POLE_REL_TOL = 1e-12
# float cancellations (2x2 minors, bilinear pairings) below this fraction
# of their scale are structural zeros (``dependent_rows``, ``_bilinear_zero``):
# rounding leaves a few ulps, while a generic nonzero value sits many
# orders above it
_ZERO_REL_TOL = 1e-12
# a column weight |a_j| at most this fraction of max |a_j| is a zero up to
# rounding, so its column gives no family member
_WEIGHT_REL_TOL = 1e-14


class Quotient(RationalExpr):
    """Quotient node; records its denominator and guards its zero set."""

    __slots__ = ("numerator", "denominator", "den_scale")

    def __init__(self, numerator, denominator):
        self.numerator = _as_expr(numerator)
        self.denominator = _as_expr(denominator)
        try:
            self.den_scale = max(self.denominator.coeff_scale(), 1e-300)
        except RecursionError:
            raise BiforgeError(_TOO_DEEP) from None

    def _compute(self, point, walk):
        den = self.denominator._eval(point, walk)
        if (np.abs(leading_value(den)) < _POLE_REL_TOL * self.den_scale).any():
            raise DomainError("evaluation point lies on (or too near) a denominator zero")
        num = self.numerator._eval(point, walk)
        return num / den

    def coeff_scale(self):
        return self.numerator.coeff_scale() / self.den_scale

    def _children(self):
        return (self.numerator, self.denominator)


def quotient(num: LinearForm, den: LinearForm) -> Quotient:
    """The rational function num/den on the open set where den != 0."""
    if den.is_zero():
        raise ZeroVector("denominator form is identically zero")
    return Quotient(num, den)


# ---------------------------------------------------------------------------
# structural predicates

def dependent_rows(u, v) -> np.ndarray:
    """Pair by pair, whether u[k] and v[k] are linearly dependent: every
    2x2 minor u_i v_j - u_j v_i vanishes.

    ``u`` and ``v`` broadcast over their leading axes, and their last axis
    holds the entries.  Float input is tested relative to the square of the
    larger entry magnitude of each pair; exact (object dtype) input is
    tested exactly.  A pair of zero vectors raises ZeroVector.
    """
    u, v = np.asarray(u), np.asarray(v)
    scale = np.maximum(abs(u), abs(v)).max(axis=-1)
    if not scale.all():
        raise ZeroVector("a zero pair has no dependence structure")
    minors = u[..., :, None] * v[..., None, :]
    largest = abs(minors - minors.swapaxes(-1, -2)).max(axis=(-2, -1))
    return largest <= (0 if minors.dtype == object else _ZERO_REL_TOL * scale * scale)


def _bilinear_zero(x, y) -> bool:
    """True iff every complex-bilinear pairing (no conjugation) of ``x`` and
    ``y`` along their broadcast last axis, sum(x * y, -1), is a structural
    zero: exactly 0 for exact (object dtype) input, at most
    ``_ZERO_REL_TOL * norm(x) * norm(y)`` (Frobenius norms) otherwise."""
    x, y = np.asarray(x), np.asarray(y)
    pairing = abs((x * y).sum(axis=-1))
    if object in (x.dtype, y.dtype):
        return bool(np.all(pairing == 0))
    return bool((pairing <= _ZERO_REL_TOL * np.sqrt((abs(x) ** 2).sum() * (abs(y) ** 2).sum())).all())


def isotropic(v) -> bool:
    """True iff (v, v) = sum(v_k**2) = 0 under the complex-bilinear pairing."""
    return _bilinear_zero(v, v)


# ---------------------------------------------------------------------------
# quadruple families


class SpChoice(enum.IntEnum):
    """Which coefficient blocks feed the Sp(n) quadruple."""

    Z_OVER_Z = 9
    W_OVER_Z = 10
    W_OVER_W = 11


@dataclass(frozen=True, eq=False)
class QuadrupleFamily:
    """Eigenfunction quadruples (P_i, Q, R, S_i) with constant-mu products.

    The family holds its generating vectors and what ``make_quadruple``
    decided from them: ``columns``, the ambient column of each member, and
    ``den_column``, that of Q and R (None under isotropic columns, where
    the one member's forms are p (x) a, q (x) a, q (x) b and p (x) b).
    ``proper[i]`` records whether member i is structurally proper
    biharmonic (nonzero tension), by :func:`classify`'s rule.

    ``numerators[i] / denominator`` are the rational family members;
    ``exchange_denominator`` (R) and ``exchange_numerators[i]`` (S_i) are
    the swapped-row forms.  Every pair of the forms obeys one exchange
    rule, kappa(u (x) v, u' (x) v') = mu (u (x) v') (u' (x) v), which for
    P_i and Q reads kappa(P_i, Q) = mu * R * S_i.
    Each family object builds these forms and its member nodes once, on
    first use, so writing a family builds no form and
    ``dataclasses.replace`` gives fresh ones.
    """

    spec: GroupSpec
    mu: float
    proper: tuple[bool, ...]
    row_p: np.ndarray
    row_q: np.ndarray
    col_a: np.ndarray
    col_b: np.ndarray
    beta: int
    columns: tuple[int, ...] | None
    den_column: int | None
    sp_choice: SpChoice | None = None
    so_mode: str | None = None

    def _forms(self, row: np.ndarray, weights: np.ndarray, columns) -> tuple[LinearForm, ...]:
        """The form of ``row`` over each of ``columns``, column j or n + j
        weighted by ``weights[j]``; over a None column, row (x) weights."""
        return tuple(LinearForm(self.spec, row, weights) if col is None
                     else LinearForm.column(self.spec, row, col, weights[col % self.spec.n]) for col in columns)

    @functools.cached_property
    def numerators(self) -> tuple[LinearForm, ...]:
        return self._forms(self.row_p, self.col_a, self.columns)

    @functools.cached_property
    def exchange_numerators(self) -> tuple[LinearForm, ...]:
        return self._forms(self.row_q, self.col_a, self.columns)

    @functools.cached_property
    def denominator(self) -> LinearForm:
        return self._forms(self.row_q, self.col_b, (self.den_column,))[0]

    @functools.cached_property
    def exchange_denominator(self) -> LinearForm:
        return self._forms(self.row_p, self.col_b, (self.den_column,))[0]

    @property
    def n_members(self) -> int:
        return len(self.proper)

    @property
    def n_proper(self) -> int:
        return sum(self.proper)

    @property
    def proper_indices(self) -> tuple[int, ...]:
        return tuple(i for i, flag in enumerate(self.proper) if flag)

    @functools.cached_property
    def _quotients(self) -> tuple[RationalExpr, ...]:
        return tuple(Quotient(p, self.denominator) for p in self.numerators)

    @functools.cached_property
    def _tensions(self) -> tuple[RationalExpr, ...]:
        q, r = self.denominator, self.exchange_denominator
        q2 = q**2
        pairs = zip(self.numerators, self.exchange_numerators)
        return tuple(2 * self.mu * (p * q - r * s) / q2 for p, s in pairs)

    def member_quotient(self, i: int) -> RationalExpr:
        """The rational member f_i = P_i / Q."""
        return self._quotients[i]

    def member_tension(self, i: int) -> RationalExpr:
        """Closed-form tension 2*mu*(P_i*Q - R*S_i)/Q**2 of member i."""
        return self._tensions[i]

    def all_forms(self) -> list[LinearForm]:
        """P_0 .. P_{m-1}, Q, R, S_0 .. S_{m-1}: ``verify`` labels the forms'
        rows and columns by this order."""
        return [*self.numerators, self.denominator, self.exchange_denominator, *self.exchange_numerators]

    def to_json(self) -> str:
        """The family as ``json.dumps(doc, indent=2, sort_keys=True)`` lays
        out its document, written from a fixed template: with an indent,
        ``json.dumps`` runs its pure-Python encoder.  Vector entries are
        finite (``make_quadruple`` refuses others), and ``repr`` writes a
        finite float as the encoder does."""

        def vec(v):
            v = np.asarray(v, dtype=complex)
            pairs = ",\n".join(
                f"    [\n      {re!r},\n      {im!r}\n    ]" for re, im in zip(v.real.tolist(), v.imag.tolist())
            )
            return f"[\n{pairs}\n  ]"

        choice = "null" if self.sp_choice is None else int(self.sp_choice)
        return (
            f'{{\n  "a": {vec(self.col_a)},\n  "b": {vec(self.col_b)},\n  "beta": {json.dumps(self.beta)},\n'
            f'  "group": {json.dumps(self.spec.code)},\n  "n": {self.spec.n},\n  "p": {vec(self.row_p)},\n'
            f'  "q": {vec(self.row_q)},\n  "so_mode": {json.dumps(self.so_mode)},\n  "sp_choice": {choice}\n}}'
        )

    @classmethod
    def from_json(cls, text: str) -> "QuadrupleFamily":
        doc = _json_object(text, "a quadruple")

        def vec(pairs):
            return np.array([complex(re, im) for re, im in pairs])

        spec = GroupSpec.from_code(doc["group"], _json_int(doc["n"], "n"))
        choice = doc["sp_choice"]
        return make_quadruple(
            spec,
            vec(doc["p"]),
            vec(doc["q"]),
            vec(doc["a"]),
            vec(doc["b"]),
            beta=_json_int(doc["beta"], "beta"),
            sp_choice=None if choice is None else _json_int(choice, "sp_choice"),
        )


def _json_object(text: str, what: str) -> dict:
    """``text`` parsed as a JSON document whose top level is an object;
    another top level raises ValueError saying ``what`` must be one."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    return doc


def _json_int(value, where: str, digits: bool = False) -> int:
    """An integer field read from a JSON file: a JSON integer or, with
    ``digits``, a decimal string: an optional "-" and ASCII digits.  A float,
    a bool or another string raises ValueError naming ``where`` rather than
    being cut down to an int."""
    if digits and isinstance(value, str):
        # int() would also take "-3_0", " -3" and non-ASCII digits
        body = value[1:] if value.startswith("-") else value
        if body.isascii() and body.isdigit():
            return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: {value!r} is not an integer")
    return value


def _check_vector(name: str, v, n: int) -> np.ndarray:
    arr = np.asarray(v, dtype=complex).reshape(-1)
    if arr.shape[0] != n:
        raise DimensionMismatch(f"vector {name} must have length {n}, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise ValueError(f"vector {name} has a non-finite entry")
    if np.linalg.norm(arr) == 0:
        raise ZeroVector(f"vector {name} must be nonzero")
    return arr


def _check_beta(beta: int, n: int) -> None:
    if not 0 <= beta < n:
        raise DimensionMismatch(f"beta must be in [0, {n}), got {beta}")


def make_quadruple(
    spec: GroupSpec,
    p,
    q,
    a,
    b,
    *,
    beta: int = 0,
    sp_choice: int | None = None,
) -> QuadrupleFamily:
    """Build the quadruple family from generating vectors.

    * U(n) and Sp(n) (and SO(n) with isotropic rows): column family.
      Member j has numerator P_j = sum_k p_k * a_j * m_kj over column j
      and exchange form S_j = sum_k q_k * a_j * m_kj; the denominator is
      Q = sum_k q_k * b_beta * m_k,beta with exchange R using p.  Columns
      with zero weight a_j are skipped.  For Sp(n), ``sp_choice`` selects
      the blocks: 9 reads members and denominator from the z-block, 10
      members from the w-block over a z-block denominator (every column
      is then proper), 11 everything from the w-block.
    * SO(n) with isotropic columns ((a,a)=(b,b)=(a,b)=0, rows generic):
      the single full rank-one pair P = p (x) a over Q = q (x) b.

    On SO(n) the conformality product rules acquire delta corrections;
    one of the two isotropy alternatives must hold exactly so the
    corrections cancel, otherwise IsotropyViolation is raised.

    Every input check and the proper flags are computed here: member i is
    harmonic when p and q are dependent (classify's Case I) or when its
    column is the denominator's, a and b under isotropic columns (Case II);
    the family builds the forms themselves only when they are first read.
    """
    n = spec.n
    p = _check_vector("p", p, n)
    q = _check_vector("q", q, n)
    a = _check_vector("a", a, n)
    b = _check_vector("b", b, n)
    _check_beta(beta, n)

    def isotropic_pair(u, v) -> bool:
        return isotropic(u) and isotropic(v) and _bilinear_zero(u, v)

    so_mode = None
    if spec.kind is GroupKind.SPECIAL_ORTHOGONAL:
        if isotropic_pair(p, q):
            so_mode = "isotropic_rows"
        elif isotropic_pair(a, b):
            so_mode = "isotropic_columns"
        else:
            raise IsotropyViolation(
                "SO(n) families need either (p,p)=(p,q)=(q,q)=0 or (a,a)=(b,b)=(a,b)=0"
            )

    choice = None
    if spec.kind is GroupKind.QUATERNIONIC_UNITARY:
        choice = SpChoice(9 if sp_choice is None else int(sp_choice))
    elif sp_choice is not None:
        raise DimensionMismatch("sp_choice only applies to the quaternionic group")

    if so_mode == "isotropic_columns":
        columns, den_column = (None,), None
        cols_dependent = [dependent_rows(a, b)]
    else:
        # column family (U, Sp, SO with isotropic rows)
        member_offset = n if choice in (SpChoice.W_OVER_Z, SpChoice.W_OVER_W) else 0
        den_offset = n if choice is SpChoice.W_OVER_W else 0
        if abs(b[beta]) == 0:
            raise ZeroVector("denominator weight b[beta] must be nonzero")
        scale_a = float(np.max(np.abs(a)))
        columns = tuple(member_offset + j for j in range(n) if abs(a[j]) > _WEIGHT_REL_TOL * scale_a)
        den_column = den_offset + beta
        cols_dependent = [col == den_column for col in columns]

    rows_dependent = dependent_rows(p, q)
    proper = [not (rows_dependent or flag) for flag in cols_dependent]

    return QuadrupleFamily(
        spec=spec, mu=spec.mu, proper=tuple(proper), row_p=p, row_q=q, col_a=a, col_b=b, beta=beta,
        columns=columns, den_column=den_column, sp_choice=choice, so_mode=so_mode,
    )


# ---------------------------------------------------------------------------
# classification


class Classification(enum.Enum):
    """Structural verdict for f = P/Q with rank-one Q = q (x) a."""

    HarmonicCaseI = "harmonic: q spans every numerator column"
    HarmonicCaseII = "harmonic: a spans every numerator row"
    ProperBiharmonic = "proper biharmonic"


def classify(m_p: np.ndarray, q, a, spec: GroupSpec) -> Classification:
    """Classify the quotient of P (coefficients ``m_p``) by Q = q (x) a.

    Case I: every column of m_p is a multiple of q.
    Case II: every row of m_p is a multiple of a (Case I transposed).
    In either case the quotient is harmonic; otherwise it is proper
    biharmonic.

    On SO(n) the dichotomy rests on the delta-term cancellations, which
    hold under either of two alternatives in the complex-bilinear pairing:
    (q,q) = 0 and m_p^T q = 0, or (a,a) = 0 and m_p a = 0.  When neither
    holds, IsotropyViolation is raised.
    """
    m_p = np.asarray(m_p, dtype=complex)
    q = _check_vector("q", q, spec.n)
    a = _check_vector("a", a, spec.ambient_dim)
    if m_p.shape != (spec.n, spec.ambient_dim):
        raise DimensionMismatch(
            f"m_p must have shape ({spec.n}, {spec.ambient_dim}), got {m_p.shape}"
        )
    if np.max(np.abs(m_p)) == 0:
        raise ZeroVector("m_p must be nonzero")
    if spec.kind is GroupKind.SPECIAL_ORTHOGONAL and not (
        isotropic(q) and _bilinear_zero(m_p.T, q) or isotropic(a) and _bilinear_zero(m_p, a)
    ):
        raise IsotropyViolation(
            "SO(n) classification needs (q,q) = 0 and m_p^T q = 0, or (a,a) = 0 and m_p a = 0"
        )

    if dependent_rows(m_p.T, q).all():
        return Classification.HarmonicCaseI
    if dependent_rows(m_p, a).all():
        return Classification.HarmonicCaseII
    return Classification.ProperBiharmonic
