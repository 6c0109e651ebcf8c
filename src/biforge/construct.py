"""Exact-rational construction of harmonic and biharmonic coefficient tables.

A multi-homogeneous candidate of degrees (d_1, ..., d_m) is

    F = sum_k c_k * prod_i f_i**(d_i - k_i) * t_i**k_i,

where t_i is the (closed form) tension of f_i, k ranges over the box
0 <= k_i <= d_i, and the f_i come from one quadruple family with
conformality constant mu.  Applying the tension field to a single box
monomial stays inside the box, with coefficients given by the product
rules; collecting terms turns "F is harmonic" into the homogeneous
linear system

    2*mu*c_k*(sigma^2 - sigma)
        + sum_j c_{k - e_j} * (d_j + 1 - k_j) * (sum_i (d_i + k_i) - 1) = 0,

with sigma = sum_i k_i: the coefficient of tau(F) at k.  Its solution
space has dimension m, freely parametrized by the coefficients at the
unit multi-indices.

Biharmonicity is handled by rewriting tau(F) in the same monomial basis
(the ``tension_table`` map below): F is biharmonic iff its tension table
solves the harmonic system.  The solution space gains one dimension,
freely parametrized by c at the zero index (the proper direction) plus
the unit indices (the harmonic directions).  Solution spaces are plain
tuples of tables: ``harmonic_family`` returns the m harmonic basis
tables, ``proper_biharmonic_table`` the one proper table, and
``biharmonic_family`` the proper table followed by the harmonic basis.

Every such table is c_k = beta_sigma * w_k * prod_j C(d_j, k_j), with
w_k = k_i for harmonic basis table i and w = 1 for the proper table.
Since (d_j + 1 - k_j) * C(d_j, k_j - 1) = k_j * C(d_j, k_j), the sum over
j above becomes prod_j C(d_j, k_j) * beta_{sigma-1} times (sigma - 1)*k_i
or sigma, so each system is one recurrence in sigma (D = sum(d)):

    harmonic table i:  2*mu*sigma*beta_sigma = -(D + sigma - 1)*beta_{sigma-1},  beta_1 = 1/d_i;
    proper table:      beta_0 = 1, beta_1 = 0, and its tension gamma_sigma * prod_j C(d_j, k_j),
                       gamma_sigma = 2*mu*sigma*(sigma - 1)*beta_sigma
                                     + sigma*(D + sigma - 1)*beta_{sigma-1},
                       solves 2*mu*(sigma - 1)*gamma_sigma = -(D + sigma - 1)*gamma_{sigma-1}.

``harmonic_family`` and ``proper_biharmonic_table`` give the solutions in
closed form: the beta numerators over their common denominator, indexed
by sigma, times the per-axis binomials and the weight, as one array
expression.  No table is trusted to that algebra: writing mu = a/b in
lowest terms, every equation is kept multiplied by b, so its
coefficients are Python ints.  One map applies these integer rows on
the box, to an object array of Python ints shaped like it (``_box_map``:
the diagonal term plus one shifted slice per axis): ``tension_table``
takes it as the tension of a table, and the row check takes it to accept
a solution.  Each returned table must hold its pinned values and satisfy
every equation on the box in integer sums over its common denominator
(the proper table: its tension table is nonzero and satisfies the
harmonic equations).  A table is that integer array itself: Python-int
numerators shaped like the box over one positive common denominator, in
lowest terms, so the closed forms, the row check, ``tension_table`` and
``to_json`` make no Fraction per entry.  The numerical operators only
enter when a table is assembled into an evaluable expression.

What depends only on the box and mu is built once per process and
shared, read-only: one plan per degree box (``_box_plan``: the
multi-indices, sigma and the binomial product), which the closed forms
and the map read; one map per (degrees, mu); and the box's
multi-indices as ``to_json`` lays them out.  So the m + 1 tables of one
``biharmonic_family`` call share one map.  Nothing keyed by a table's
values is kept.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from fractions import Fraction

import numpy as np

from .errors import BiforgeError, DegenerateQuotient, DimensionMismatch, InconsistentSystem, ZeroVector
from .forms import (
    Const,
    LinearForm,
    Product,
    QuadrupleFamily,
    Quotient,
    RationalExpr,
    Sum,
    _check_beta,
    _check_vector,
    _json_int,
    _json_object,
    dependent_rows,
    powers,
)
from .groups import GroupKind, GroupSpec

__all__ = [
    "CoeffTable",
    "box_indices",
    "combine",
    "harmonic_family",
    "proper_biharmonic_table",
    "biharmonic_family",
    "tension_table",
    "build_expression",
    "tension_power_family",
    "eigenfamily_constants",
    "column_ratio_family",
    "rational_morphism",
]


# Layout version of coeffs.json files that record group, n and mu.  Files
# without a "schema" key hold only degrees and coeffs and still load.
TABLE_SCHEMA = 1


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def box_indices(degrees: tuple[int, ...]):
    """Lexicographic multi-indices 0 <= k_i <= d_i."""
    return itertools.product(*(range(d + 1) for d in degrees))


def _json_ints(values, indent: int) -> str:
    """A nonempty list as ``json.dumps(..., indent=2)`` lays out ints at ``indent``."""
    pad = " " * indent
    return "[\n" + ",\n".join(f"{pad}  {v}" for v in values) + f"\n{pad}]"


@functools.cache
def _index_keys(degrees: tuple[int, ...]) -> tuple[str, ...]:
    """Each multi-index of the box in box order, laid out as the "k" of a
    ``to_json`` entry; built once per box in the process."""
    return tuple(_json_ints(idx, 6) for idx in box_indices(degrees))


def _box_array(degrees: tuple[int, ...], entries) -> tuple[np.ndarray, int]:
    """(nums, den) of (index, num, den) entries: one object array shaped like
    the box, 0 where no entry is, over one positive common denominator."""
    nums, den = np.zeros([d + 1 for d in degrees], dtype=object), 1
    for idx, num, d in entries:
        if len(idx) != len(degrees) or not all(0 <= k <= top for k, top in zip(idx, degrees)):
            raise DimensionMismatch(f"index {idx} lies outside the degree box {degrees}")
        if den % d:
            scale = abs(d) // math.gcd(den, d)
            nums *= scale
            den *= scale
        nums[idx] = num * (den // d)
    return nums, den


class CoeffTable:
    """Exact multi-index coefficients of one multi-homogeneous candidate.

    c_k = nums[k] / den on the box 0 <= k_i <= d_i: ``nums`` is an object
    array of Python ints shaped like the box over one positive common
    denominator, in lowest terms (gcd(den, *nums) == 1: the zero table has
    den == 1, and equal tables have equal arrays).  The constructor takes
    positive degrees and a dict from in-box index to rational value.
    """

    __slots__ = ("degrees", "nums", "den")

    def __init__(self, degrees, coeffs: dict):
        degrees = _validate_degrees(degrees)
        entries = ((tuple(map(int, idx)), *_frac(v).as_integer_ratio()) for idx, v in coeffs.items())
        self._set(degrees, *_box_array(degrees, entries))

    def _set(self, degrees: tuple[int, ...], nums: np.ndarray, den: int) -> "CoeffTable":
        """Hold nums / den in lowest terms over a positive denominator."""
        g = math.gcd(den, *nums.flat) * (1 if den > 0 else -1)  # |den| for the zero table
        self.degrees, self.nums, self.den = degrees, nums if g == 1 else nums // g, den // g
        return self

    @classmethod
    def _of(cls, degrees: tuple[int, ...], nums: np.ndarray, den: int) -> "CoeffTable":
        """The table nums / den on a validated box."""
        return cls.__new__(cls)._set(degrees, nums, den)

    def get(self, idx) -> Fraction:
        """c at ``idx``; 0 outside the box."""
        idx = tuple(idx)
        if len(idx) == len(self.degrees) and all(0 <= k <= d for k, d in zip(idx, self.degrees)):
            return Fraction(self.nums[idx], self.den)
        return Fraction(0)

    def items(self):
        """(index, Fraction) of the nonzero entries, in box order."""
        return [(idx, Fraction(v, self.den)) for idx, v in zip(box_indices(self.degrees), self.nums.flat) if v]

    def is_zero(self) -> bool:
        return not self.nums.any()

    def __eq__(self, other):
        if not isinstance(other, CoeffTable):
            return NotImplemented
        return self.degrees == other.degrees and self.den == other.den and np.array_equal(self.nums, other.nums)

    __hash__ = None

    def proportional_to(self, other: "CoeffTable") -> bool:
        """True iff the tables agree up to one nonzero rational scale, or are
        both zero: cross-multiplied at the first nonzero entry of ``self``."""
        if self.degrees != other.degrees or self.is_zero() or other.is_zero():
            return self.degrees == other.degrees and self.is_zero() and other.is_zero()
        i = np.flatnonzero(self.nums)[0]
        return bool((self.nums * other.nums.flat[i] == other.nums * self.nums.flat[i]).all())

    def single_degree(self) -> tuple[Fraction, ...]:
        """The (c_0, ..., c_d) tuple for one-variable tables."""
        if len(self.degrees) != 1:
            raise DimensionMismatch("single_degree applies to one-variable tables")
        return tuple(Fraction(v, self.den) for v in self.nums)

    def to_json(self, spec: GroupSpec | None = None, mu=None) -> str:
        """Serialize the table; given the group and mu it was solved for,
        also record them and the schema version.

        The text is ``json.dumps(doc, indent=2, sort_keys=True)`` of the
        document, each nonzero entry in lowest terms, written from one
        entry template and the box's index keys: with an indent,
        ``json.dumps`` runs its pure-Python encoder.
        """
        den = self.den
        entry = '    {\n      "den": "%s",\n      "k": %s,\n      "num": "%s"\n    }'
        entries = ",\n".join(entry % (den // (g := math.gcd(v, den)), k, v // g)
                             for k, v in zip(_index_keys(self.degrees), self.nums.flat) if v)
        lines = [f'  "coeffs": [\n{entries}\n  ]' if entries else '  "coeffs": []',
                 f'  "degrees": {_json_ints(self.degrees, 2)}']
        if spec is not None:
            lines += [f'  "group": {json.dumps(spec.code)}', f'  "mu": "{_frac(mu)}"',
                      f'  "n": {spec.n}', f'  "schema": {TABLE_SCHEMA}']
        return "{\n" + ",\n".join(lines) + "\n}"

    @classmethod
    def from_json(cls, text: str, spec: GroupSpec | None = None) -> "CoeffTable":
        """Parse a table; given the group it is read for, also refuse one
        recorded for another group, n or mu (BiforgeError).  A table
        without that record (an older file, a hand-written one) is taken
        as it is.

        Degrees and indices must be JSON integers, and num and den too or
        the digit strings ``to_json`` writes.  Degrees must be positive and
        each index must lie in the box once, over a nonzero denominator;
        otherwise ValueError (DimensionMismatch for the box) names the entry.
        """
        doc = _json_object(text, "a coefficient table")
        if doc.get("schema", TABLE_SCHEMA) != TABLE_SCHEMA:
            raise ValueError(f"unsupported coefficient table schema {doc['schema']!r}")
        degrees = _validate_degrees([_json_int(d, "degrees") for d in doc["degrees"]])
        seen = set()

        def fields(entry):
            # the entry is named only in a refusal: _json_int's message
            # follows an empty ``where`` here, and the name goes in front
            try:
                idx = tuple(_json_int(k, "") for k in entry["k"])
                num, den = (_json_int(entry[key], "", digits=True) for key in ("num", "den"))
            except ValueError as error:
                raise ValueError(f"coefficient entry {entry}{error}") from None
            if idx in seen or den == 0:
                raise ValueError(f"coefficient entry {entry} {'repeats index' if idx in seen else 'has denominator 0'}")
            seen.add(idx)
            return idx, num, den

        table = cls._of(degrees, *_box_array(degrees, map(fields, doc["coeffs"])))
        if spec is not None:
            expected = {"group": spec.code, "n": spec.n, "mu": _frac(spec.mu)}
            recorded = {key: doc[key] for key in expected if key in doc}
            if "mu" in recorded:
                recorded["mu"] = Fraction(recorded["mu"])
            wrong = [f"{key}={recorded[key]} (quadruple: {expected[key]})"
                     for key in recorded if recorded[key] != expected[key]]
            if wrong:
                raise BiforgeError(f"coefficient table does not match the quadruple: {', '.join(wrong)}")
        return table

    def __repr__(self):
        return f"CoeffTable(degrees={self.degrees}, nnz={np.count_nonzero(self.nums)}, den={self.den})"


def combine(tables, weights) -> CoeffTable:
    """sum_i weights[i] * tables[i], for tables on one degree box."""
    weights = [_frac(w) for w in weights]
    if len(weights) != len(tables):
        raise DimensionMismatch("one weight per basis table")
    boxes = {t.degrees for t in tables}
    if len(boxes) != 1:
        raise DimensionMismatch(f"tables must share one degree box, got {sorted(boxes)}")
    dens = [w.denominator * t.den for w, t in zip(weights, tables)]
    den = math.lcm(*dens)
    nums = sum(t.nums * (w.numerator * (den // d)) for w, t, d in zip(weights, tables, dens))
    return CoeffTable._of(boxes.pop(), nums, den)


# ---------------------------------------------------------------------------
# the defining linear systems


@functools.cache
def _box_plan(degrees: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ks, sigma, binomials) of the box: the multi-indices as ``np.indices``
    lays them out, sigma = sum(k) and prod_j C(d_j, k_j) as Python ints.

    Built once per box in the process and shared, so every array is
    read-only; tables only read them into new arrays.
    """
    ks = np.indices([d + 1 for d in degrees])
    sigma = ks.sum(axis=0)
    binomials = functools.reduce(
        np.multiply.outer, (np.array([math.comb(d, k) for k in range(d + 1)], dtype=object) for d in degrees)
    )
    for array in (ks, sigma, binomials):
        array.flags.writeable = False
    return ks, sigma, binomials


@functools.cache
def _box_map(degrees: tuple[int, ...], mu: Fraction):
    """The b-scaled tension rows of the box, with mu = a/b, as one map on
    object arrays of Python ints shaped like the box:

        (T c)_k = 2*a*(sigma^2 - sigma)*c_k
                  + b*(D + sigma - 1) * sum_j (d_j + 1 - k_j) * c_{k - e_j},

    sigma = sum(k), D = sum(d) and c_{k - e_j} = 0 where k_j = 0: one
    slice per axis shifts c by e_j.  Built once per (degrees, mu) in the
    process; the map writes only the array it returns.
    """
    ks, sigma, _ = _box_plan(degrees)
    diagonal = (sigma * sigma - sigma).astype(object) * (2 * mu.numerator)
    total = (sum(degrees) + sigma - 1).astype(object) * mu.denominator
    full = (slice(None),) * len(degrees)
    lower = []
    for j, (d, k) in enumerate(zip(degrees, ks)):
        upper, below = full[:j] + (slice(1, None),), full[:j] + (slice(None, -1),)
        lower.append((upper, (total * (d + 1 - k))[upper], below))

    def apply(c: np.ndarray) -> np.ndarray:
        out = diagonal * c
        for upper, weight, below in lower:
            out[upper] += weight * c[below]
        return out

    return apply


def tension_table(table: CoeffTable, mu) -> CoeffTable:
    """Coefficients of tau(F) in the same monomial basis as F: the b-scaled
    map on the numerators, over den * b.

    tau maps the box into itself: the row at an index with k_j = d_j + 1
    reads only c at indices with that k_j, outside the box, or c_{k - e_j}
    with the factor d_j + 1 - k_j = 0.  So the rows of the box give every
    coefficient.
    """
    mu = _frac(mu)
    return CoeffTable._of(table.degrees, _box_map(table.degrees, mu)(table.nums), table.den * mu.denominator)


# ---------------------------------------------------------------------------
# exact solving


def _checked_table(table: CoeffTable, mu: Fraction, pins: dict, proper: bool) -> CoeffTable:
    """``table`` once the integer rows accept it.

    Every pinned index must hold its value.  With T the b-scaled map
    ``_box_map`` on the numerator array, a harmonic table needs T c = 0 and
    the proper table a nonzero g = T c with T g = 0; otherwise
    InconsistentSystem, naming the first index in box order where the
    image is nonzero.
    """
    for idx, value in pins.items():
        if table.nums[idx] != value * table.den:
            raise InconsistentSystem(f"index {idx} holds {table.get(idx)}, pinned to {value}")
    tension = _box_map(table.degrees, mu)
    image = tension(table.nums)
    if proper:
        if not image.any():
            raise InconsistentSystem("proper direction came out harmonic")
        image = tension(image)
    if image.any():
        raise InconsistentSystem(f"table leaves a residual at index {tuple(np.argwhere(image)[0].tolist())}")
    return table


def _closed_form(degrees, numerators, den: int, axis: int | None) -> CoeffTable:
    """c_k = numerators[sigma] / den * w_k * prod_j C(d_j, k_j) on the box,
    sigma = sum(k), with w_k = k_axis, or 1 when axis is None: the table's
    numerator array is one array expression of integers."""
    ks, sigma, binomials = _box_plan(degrees)
    values = np.array(numerators, dtype=object)[sigma] * binomials * (1 if axis is None else ks[axis])
    return CoeffTable._of(degrees, values, den)


def _unit_indices(m: int) -> list[tuple[int, ...]]:
    return [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]


def _validate_degrees(degrees) -> tuple[int, ...]:
    degrees = tuple(int(d) for d in degrees)
    if not degrees or any(d < 1 for d in degrees):
        raise DimensionMismatch(f"degrees must be positive integers, got {list(degrees)}")
    return degrees


def _validate_problem(degrees, mu) -> tuple[tuple[int, ...], Fraction]:
    """Positive integer degrees and a nonzero rational mu, or an error."""
    degrees = _validate_degrees(degrees)
    mu = _frac(mu)
    if mu == 0:
        raise ZeroVector("mu must be nonzero")
    return degrees, mu


def harmonic_family(degrees, mu) -> tuple[CoeffTable, ...]:
    """The harmonic solution space on the degree box, as m basis tables.

    Basis table i has coefficient 1 at e_i and 0 at the other unit
    indices (the sigma = 1 rows read d_j * D * c_0 = 0, so c_0 = 0):

        c_k = (k_i / d_i) * C(D + sigma - 1, sigma) / D * x**(sigma - 1) * prod_j C(d_j, k_j),

    with D = sum(d), sigma = sum(k) and x = -1/(2*mu) = -b/(2*a) for
    mu = a/b: numerators over (2*a)**(D - 1) * D * d_i.  Each table passes
    the exact row and pin check.
    """
    degrees, mu = _validate_problem(degrees, mu)
    m, total, x_num, x_den = len(degrees), sum(degrees), -mu.denominator, 2 * mu.numerator
    zero, units = (0,) * m, _unit_indices(m)
    # sigma = 0 has weight k_i = 0
    numerators = [0] + [math.comb(total + s - 1, s) * x_num ** (s - 1) * x_den ** (total - s)
                        for s in range(1, total + 1)]
    tables = []
    for i, (d_i, e_i) in enumerate(zip(degrees, units)):
        pins = {zero: 0, **{u: int(u == e_i) for u in units}}
        table = _closed_form(degrees, numerators, x_den ** (total - 1) * total * d_i, i)
        tables.append(_checked_table(table, mu, pins, proper=False))
    return tuple(tables)


def proper_biharmonic_table(degrees, mu) -> CoeffTable:
    """The proper biharmonic table: coefficient 1 at the zero index, 0 at
    the unit indices:

        c_k = (1 - sigma) * C(D + sigma - 1, sigma) * x**sigma * prod_j C(d_j, k_j),

    with D, sigma and x as in ``harmonic_family``: numerators over
    (2*a)**D.  Its tension table is the harmonic basis weighted by
    d_j * D.  The table passes the exact row and pin check; a zero tension
    would mean a harmonic table.
    """
    degrees, mu = _validate_problem(degrees, mu)
    m, total, x_num, x_den = len(degrees), sum(degrees), -mu.denominator, 2 * mu.numerator
    numerators = [(1 - s) * math.comb(total + s - 1, s) * x_num**s * x_den ** (total - s) for s in range(total + 1)]
    pins = {(0,) * m: 1, **{u: 0 for u in _unit_indices(m)}}
    return _checked_table(_closed_form(degrees, numerators, x_den**total, None), mu, pins, proper=True)


def biharmonic_family(degrees, mu) -> tuple[CoeffTable, ...]:
    """The biharmonic solution space: the proper table, then the harmonic
    basis, whose tables have zero tension and are pinned at the same indices.

    In one variable, ``combine(biharmonic_family((d,), mu), [c0, c1])`` is
    the table with leading pair (c0, c1), proper biharmonic iff c0 != 0;
    for mu = -1 its coefficients solve the second-order difference equation

        4(k-1)^2 k^2 c_k = 4(k-1)^2 (d^2-(k-1)^2) c_{k-1}
                           - (d^2-(k-2)^2)(d^2-(k-1)^2) c_{k-2}.
    """
    return (proper_biharmonic_table(degrees, mu), *harmonic_family(degrees, mu))


# ---------------------------------------------------------------------------
# assembling expressions


def _polynomial(pows, terms) -> RationalExpr:
    """sum of coeff * prod_i pows[i][e_i - 1] over the (exponents, coeff)
    terms, in the order given; a zero exponent skips its power chain."""
    out = []
    for exps, coeff in terms:
        factors = [Const(coeff), *(chain[e - 1] for chain, e in zip(pows, exps) if e)]
        out.append(Product(factors) if len(factors) > 1 else factors[0])
    return Sum(out) if len(out) > 1 else out[0]


def build_expression(table: CoeffTable, pairs) -> RationalExpr:
    """Evaluable expression sum_k c_k prod_i f_i**(d_i-k_i) * t_i**k_i.

    ``pairs`` is one (f_i, tension_of_f_i) expression pair per variable.
    The powers of each f_i and t_i form one shared chain (``powers``), so
    a walk computes f_i**e once for every term that reads it.
    """
    pairs = list(pairs)
    if len(pairs) != len(table.degrees):
        raise DimensionMismatch(
            f"need {len(table.degrees)} (f, tau f) pairs, got {len(pairs)}"
        )
    if table.is_zero():
        return Const(0.0)
    degrees = table.degrees
    pows = [chain for (f, tf), d in zip(pairs, degrees) for chain in (powers(f, d), powers(tf, d))]
    try:
        terms = [(tuple(e for k, d in zip(idx, degrees) for e in (d - k, k)), v / table.den)
                 for idx, v in zip(box_indices(degrees), table.nums.flat) if v]
    except OverflowError:
        raise BiforgeError(f"a coefficient of the degrees {degrees} table exceeds float64's range") from None
    return _polynomial(pows, terms)


def tension_power_family(fam: QuadrupleFamily, k: int) -> list[RationalExpr]:
    """Eigenfamily of k-th powers of the member tensions (proper members).

    Members satisfy tau(phi) = 2*mu*k*(k-1)*phi and
    kappa(phi, psi) = 2*mu*k**2 * phi * psi.
    """
    if k < 1:
        raise DimensionMismatch("power must be a positive integer")
    if fam.n_proper < 1:
        raise ZeroVector("family has no proper members")
    return [fam.member_tension(i) ** k for i in fam.proper_indices]


def eigenfamily_constants(mu: float, k: int) -> tuple[float, float]:
    """(eigenvalue, conformality constant) of the k-th tension-power family."""
    return 2.0 * mu * k * (k - 1), 2.0 * mu * k * k


def column_ratio_family(q, spec: GroupSpec, beta: int = 0) -> list[RationalExpr]:
    """Orthogonal harmonic family of column-form ratios on U(n).

    With Q_col(z) = sum_j q_j z_{j,col}, returns the n-1 quotients
    Q_col / Q_beta for col != beta; each is harmonic and all pairwise
    conformality products vanish, so every member is a harmonic morphism.
    """
    if spec.kind is not GroupKind.UNITARY:
        raise DimensionMismatch("column-ratio families are built on the unitary group")
    q = _check_vector("q", q, spec.n)
    _check_beta(beta, spec.n)
    den = LinearForm.column(spec, q, beta)
    return [Quotient(LinearForm.column(spec, q, col), den) for col in range(spec.n) if col != beta]


def _poly_degree(poly: dict) -> int:
    degrees = {sum(exp) for exp in poly}
    if len(degrees) != 1:
        raise DimensionMismatch("polynomial must be homogeneous")
    (degree,) = degrees
    return degree


def rational_morphism(family: list[RationalExpr], num_poly: dict, den_poly: dict) -> RationalExpr:
    """Quotient of two homogeneous polynomials evaluated on an eigenfamily.

    Polynomials are maps {exponent tuple: coefficient} with nonnegative
    integer exponents; both must be homogeneous of the same positive
    degree and linearly independent, otherwise the quotient is constant
    (DegenerateQuotient).
    """
    n = len(family)
    if n == 0:
        raise ZeroVector("empty eigenfamily")
    for poly in (num_poly, den_poly):
        if not poly:
            raise ZeroVector("empty polynomial")
        for exp in poly:
            if any(isinstance(e, bool) or not isinstance(e, numbers.Integral) for e in exp):
                raise DimensionMismatch(f"exponent tuple {exp} holds a non-integer exponent")
            if len(exp) != n or any(e < 0 for e in exp):
                raise DimensionMismatch(f"exponent tuple {exp} does not fit {n} variables")
    deg_num = _poly_degree(num_poly)
    if deg_num != _poly_degree(den_poly) or deg_num < 1:
        raise DimensionMismatch("polynomials must share one positive degree")

    monomials = sorted(set(num_poly) | set(den_poly))
    u = np.array([complex(num_poly.get(mono, 0)) for mono in monomials])
    v = np.array([complex(den_poly.get(mono, 0)) for mono in monomials])
    if dependent_rows(u, v):
        raise DegenerateQuotient("numerator and denominator polynomials are dependent")

    pows = [powers(member, max(exp[i] for exp in monomials)) for i, member in enumerate(family)]
    num, den = (_polynomial(pows, [(mono, c) for mono, c in zip(monomials, w) if c != 0]) for w in (u, v))
    return Quotient(num, den)
