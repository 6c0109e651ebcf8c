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
closed form.  No table is trusted to that algebra: writing mu = a/b in
lowest terms, every equation is kept multiplied by b, so its
coefficients are Python ints.  One map applies these integer rows on
the box: ``tension_table`` takes them as the tension of a table, and the
row check takes them to accept a solution.  Each returned table must hold
its pinned values and satisfy every equation on the box in integer sums
over its common denominator (the proper table: its tension table is
nonzero and satisfies the harmonic equations).  Tables are exact
Fractions; the numerical operators only enter when a table is assembled
into an evaluable expression.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from fractions import Fraction
from operator import itemgetter

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
    """A list of ints as ``json.dumps(..., indent=2)`` lays it out at ``indent``."""
    if not values:
        return "[]"
    pad = " " * indent
    return "[\n" + ",\n".join(f"{pad}  {v}" for v in values) + f"\n{pad}]"


class CoeffTable:
    """Exact multi-index coefficients of one multi-homogeneous candidate.

    Every given index must lie in the box 0 <= k_i <= d_i; indices not
    given are zero, and zero entries are not stored.
    """

    __slots__ = ("degrees", "coeffs")

    def __init__(self, degrees, coeffs: dict):
        self.degrees = tuple(int(d) for d in degrees)
        clean = {}
        for idx, value in coeffs.items():
            idx = tuple(int(k) for k in idx)
            if len(idx) != len(self.degrees) or not all(0 <= k <= d for k, d in zip(idx, self.degrees)):
                raise DimensionMismatch(f"index {idx} lies outside the degree box {self.degrees}")
            value = _frac(value)
            if value != 0:
                clean[idx] = value
        self.coeffs = clean

    @classmethod
    def _trusted(cls, degrees: tuple[int, ...], coeffs: dict) -> "CoeffTable":
        """A solver's in-box Fraction table, kept as given but for its zeros."""
        table = cls.__new__(cls)
        table.degrees = degrees
        table.coeffs = {k: v for k, v in coeffs.items() if v}
        return table

    def get(self, idx) -> Fraction:
        return self.coeffs.get(tuple(idx), Fraction(0))

    def items(self):
        return sorted(self.coeffs.items())

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, CoeffTable):
            return NotImplemented
        return self.degrees == other.degrees and self.coeffs == other.coeffs

    __hash__ = None

    def proportional_to(self, other: "CoeffTable") -> bool:
        """True iff the tables agree up to one overall rational scale."""
        if self.degrees != other.degrees:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if set(self.coeffs) != set(other.coeffs):
            return False
        idx = next(iter(sorted(self.coeffs)))
        ratio = other.coeffs[idx] / self.coeffs[idx]
        return all(other.coeffs[k] == v * ratio for k, v in self.coeffs.items())

    def single_degree(self) -> tuple[Fraction, ...]:
        """The (c_0, ..., c_d) tuple for one-variable tables."""
        if len(self.degrees) != 1:
            raise DimensionMismatch("single_degree applies to one-variable tables")
        d = self.degrees[0]
        return tuple(self.get((k,)) for k in range(d + 1))

    def to_json(self, spec: GroupSpec | None = None, mu=None) -> str:
        """Serialize the table; given the group and mu it was solved for,
        also record them and the schema version.

        The text is ``json.dumps(doc, indent=2, sort_keys=True)`` of the
        document, written from one template per entry: with an indent,
        ``json.dumps`` runs its pure-Python encoder.
        """
        entries = ",\n".join(
            f'    {{\n      "den": "{v.denominator}",\n      "k": {_json_ints(k, 6)},\n'
            f'      "num": "{v.numerator}"\n    }}'
            for k, v in self.items()
        )
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
        doc = json.loads(text)
        if doc.get("schema", TABLE_SCHEMA) != TABLE_SCHEMA:
            raise ValueError(f"unsupported coefficient table schema {doc['schema']!r}")
        degrees = _validate_degrees([_json_int(d, "degrees") for d in doc["degrees"]])
        coeffs = {}
        for entry in doc["coeffs"]:
            where = f"coefficient entry {entry}"
            idx = tuple(_json_int(k, where) for k in entry["k"])
            num, den = (_json_int(entry[key], where, digits=True) for key in ("num", "den"))
            if idx in coeffs or den == 0:
                problem = "repeats index" if idx in coeffs else "has denominator 0"
                raise ValueError(f"coefficient entry {entry} {problem}")
            coeffs[idx] = Fraction(num, den)
        table = cls(degrees, coeffs)
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
        return f"CoeffTable(degrees={self.degrees}, nnz={len(self.coeffs)})"


def combine(tables, weights) -> CoeffTable:
    """sum_i weights[i] * tables[i], for tables on one degree box."""
    weights = [_frac(w) for w in weights]
    if len(weights) != len(tables):
        raise DimensionMismatch("one weight per basis table")
    boxes = {t.degrees for t in tables}
    if len(boxes) != 1:
        raise DimensionMismatch(f"tables must share one degree box, got {sorted(boxes)}")
    out: dict = {}
    for w, t in zip(weights, tables):
        for k, v in t.coeffs.items():
            out[k] = out.get(k, 0) + w * v
    return CoeffTable(boxes.pop(), out)


# ---------------------------------------------------------------------------
# the defining linear systems


def _tension_row(degrees, mu: Fraction, idx) -> dict:
    """The tension coefficient at idx as an integer linear map of the table,
    scaled by the denominator b of mu = a/b:

        2*a*(sigma^2 - sigma)*c_k
            + b * sum_j (d_j + 1 - k_j) * (sum_i (d_i + k_i) - 1) * c_{k - e_j}.
    """
    sigma = sum(idx)
    row = {idx: 2 * mu.numerator * (sigma * sigma - sigma)} if sigma > 1 else {}
    total = mu.denominator * (sum(degrees) + sigma - 1)
    for j, k in enumerate(idx):
        if k >= 1:
            row[idx[:j] + (k - 1,) + idx[j + 1 :]] = (degrees[j] + 1 - k) * total
    return row


def _box_rows(degrees, mu: Fraction) -> list:
    """(idx, ``_tension_row`` at idx) for every index of the box, in box order."""
    return [(idx, _tension_row(degrees, mu, idx)) for idx in box_indices(degrees)]


def _row_sums(rows, values: dict) -> dict:
    """{idx: sum_k row[k] * values[k]} for the rows whose sum is nonzero, in
    row order, with indices missing from values read as 0."""
    sums = {}
    for idx, row in rows:
        value = sum(c * values.get(k, 0) for k, c in row.items())
        if value:
            sums[idx] = value
    return sums


def _over_common_denominator(values: dict) -> tuple[dict, int]:
    """Integer numerators of rational values over their least common denominator."""
    # reduce, not lcm(*...): a star call would build one argument tuple per unknown
    den = functools.reduce(math.lcm, (v.denominator for v in values.values()), 1)
    return {k: v.numerator * (den // v.denominator) for k, v in values.items()}, den


def tension_table(table: CoeffTable, mu) -> CoeffTable:
    """Coefficients of tau(F) in the same monomial basis as F.

    tau maps the box into itself: the row at an index with k_j = d_j + 1
    reads only c at indices with that k_j, outside the box, or c_{k - e_j}
    with the factor d_j + 1 - k_j = 0.  So the rows of the box give every
    coefficient.
    """
    mu = _frac(mu)
    values, den = _over_common_denominator(table.coeffs)
    den *= mu.denominator
    sums = _row_sums(_box_rows(table.degrees, mu), values)
    return CoeffTable._trusted(table.degrees, {idx: Fraction(v, den) for idx, v in sums.items()})


# ---------------------------------------------------------------------------
# exact solving


def _checked_table(degrees, mu: Fraction, coeffs: dict, pins: dict, proper: bool) -> CoeffTable:
    """The table of ``coeffs`` once the integer rows accept it.

    Every pinned index must hold its value.  With T the b-scaled rows of
    ``_tension_row`` on the box, a harmonic table needs T c = 0 and the
    proper table a nonzero g = T c with T g = 0, each sum taken in
    integers over the table's common denominator; otherwise
    InconsistentSystem.
    """
    for idx, value in pins.items():
        if coeffs.get(idx, 0) != value:
            raise InconsistentSystem(f"index {idx} holds {coeffs.get(idx, 0)}, pinned to {value}")
    rows = _box_rows(degrees, mu)
    values, _ = _over_common_denominator(coeffs)
    image = _row_sums(rows, values)
    if proper:
        if not image:
            raise InconsistentSystem("proper direction came out harmonic")
        image = _row_sums(rows, image)
    if image:
        raise InconsistentSystem(f"table leaves a residual at index {next(iter(image))}")
    return CoeffTable._trusted(degrees, coeffs)


def _closed_form(degrees, betas, weight) -> dict:
    """c_k = betas[sigma] * weight(k) * prod_j C(d_j, k_j) on the box, sigma = sum(k)."""
    binomials = itertools.product(*([math.comb(d, k) for k in range(d + 1)] for d in degrees))
    return {
        idx: betas[sum(idx)] * (weight(idx) * math.prod(c)) for idx, c in zip(box_indices(degrees), binomials)
    }


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

    with D = sum(d), sigma = sum(k) and x = -1/(2*mu).  Each table passes
    the exact row and pin check.
    """
    degrees, mu = _validate_problem(degrees, mu)
    m, total, x = len(degrees), sum(degrees), -1 / (2 * mu)
    zero, units = (0,) * m, _unit_indices(m)
    tables = []
    for i, (d_i, e_i) in enumerate(zip(degrees, units)):
        betas = [math.comb(total + s - 1, s) * x ** (s - 1) / (total * d_i) for s in range(total + 1)]
        pins = {zero: 0, **{u: int(u == e_i) for u in units}}
        coeffs = _closed_form(degrees, betas, itemgetter(i))
        tables.append(_checked_table(degrees, mu, coeffs, pins, proper=False))
    return tuple(tables)


def proper_biharmonic_table(degrees, mu) -> CoeffTable:
    """The proper biharmonic table: coefficient 1 at the zero index, 0 at
    the unit indices:

        c_k = (1 - sigma) * C(D + sigma - 1, sigma) * x**sigma * prod_j C(d_j, k_j),

    with D, sigma and x as in ``harmonic_family``.  Its tension table is
    the harmonic basis weighted by d_j * D.  The table passes the exact
    row and pin check; a zero tension would mean a harmonic table.
    """
    degrees, mu = _validate_problem(degrees, mu)
    m, total, x = len(degrees), sum(degrees), -1 / (2 * mu)
    betas = [(1 - s) * math.comb(total + s - 1, s) * x**s for s in range(total + 1)]
    pins = {(0,) * m: 1, **{u: 0 for u in _unit_indices(m)}}
    return _checked_table(degrees, mu, _closed_form(degrees, betas, lambda idx: 1), pins, proper=True)


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
        factors = [Const(complex(coeff)), *(chain[e - 1] for chain, e in zip(pows, exps) if e)]
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
    terms = [
        (tuple(e for k, d in zip(idx, degrees) for e in (d - k, k)), coeff) for idx, coeff in table.items()
    ]
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
