"""Correctness checks that do not come from biforge's own verdicts.

Each check returns a list of Result(name, ok, detail).  Negative
controls feed a deliberately wrong input to the same check and are
``ok`` only when the check rejects it, which shows each check can fail.

Only data is taken from biforge: the exact coefficient tables it wrote,
and the coefficient arrays of the linear forms of its quadruple family.
Values, tensions, conformality and bitensions are recomputed here by
finite differences (see fd.py); biforge's jet operators are called only
as the thing being compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import fd

# Five-point stencil for tension and conformality.
STEP = 2e-3
# Domain margin for check points: every denominator form at least this
# share of its largest value on the group.  For |Q| >= 0.3 |Q|_max no
# pole lies within |s| < log(1.3) = 0.26 of the point along any unit Z.
MARGIN = 0.3
# Bitension ring (radius, nodes) by total degree.  Terms of high-degree
# candidates cancel to many digits, so roundoff (~ eps (R/r)^4) needs a
# larger radius, and a larger radius needs more nodes to keep the
# aliasing error (~ (r/R)^N) down; low degrees are cheaper on the small ring.
RING_LOW_DEGREE = (0.02, 16)
RING_HIGH_DEGREE = (0.08, 32)
# Program tension vs finite differences, relative to the sum of |summands|.
TOL_TENSION = 1e-5
# "bitension << tension": |tau(tau phi)| / |tau phi| must stay below this.
TOL_BITENSION = 1e-3
# Harmonic morphism: |tau| and |kappa| relative to the sum of |summands|.
TOL_MORPHISM = 1e-6


@dataclass
class Result:
    name: str
    ok: bool
    detail: str


def load_table(path: Path):
    """(degrees, {multi-index: Fraction}) from a coeffs.json file."""
    doc = json.loads(path.read_text())
    coeffs = {
        tuple(entry["k"]): Fraction(int(entry["num"]), int(entry["den"]))
        for entry in doc["coeffs"]
    }
    return tuple(doc["degrees"]), coeffs


class Forms:
    """Coefficient arrays of a quadruple family's forms, read from quadruple.json."""

    def __init__(self, path: Path):
        from biforge.forms import QuadrupleFamily

        fam = QuadrupleFamily.from_json(path.read_text())
        self.family = fam
        self.kind, self.n, self.mu = fam.spec.code, fam.spec.n, fam.mu
        self.proper = [i for i, flag in enumerate(fam.proper) if flag]
        self.P = [f.coeffs for f in fam.numerators]
        self.S = [f.coeffs for f in fam.exchange_numerators]
        self.Q = fam.denominator.coeffs
        self.R = fam.exchange_denominator.coeffs

    def member(self, i, x):
        """(f_i, tau f_i) = (P_i/Q, 2 mu (P_i Q - R S_i) / Q^2) on a stack x."""
        p, s = fd.form_values(self.P[i], x), fd.form_values(self.S[i], x)
        q, r = fd.form_values(self.Q, x), fd.form_values(self.R, x)
        return p / q, 2 * self.mu * (p * q - r * s) / q**2

    def candidate(self, degrees, coeffs):
        """phi = sum_k c_k prod_i f_i^(d_i - k_i) (tau f_i)^k_i as a numpy callable."""
        members = self.proper[: len(degrees)]
        terms = [(complex(c), k) for k, c in coeffs.items()]

        def phi(x):
            pairs = [self.member(i, x) for i in members]
            out = 0j
            for c, k in terms:
                term = c
                for (f, t), d, ki in zip(pairs, degrees, k):
                    term = term * f ** (d - ki) * t**ki
                out = out + term
            return out

        return phi

    def points(self, rng, count, extra_denominators=()):
        """Check points with |Q| >= MARGIN * |Q|_max and |den| >= bound for each extra pair."""
        scale = np.linalg.norm(self.Q)

        def inside(p):
            if abs(fd.form_values(self.Q, p)) < MARGIN * scale:
                return False
            return all(abs(den(p)) >= bound for den, bound in extra_denominators)

        return fd.sample_points(self.kind, self.n, rng, count, inside)


def _perturbed(coeffs, key):
    out = dict(coeffs)
    out[key] = out[key] * Fraction(101, 100)
    return out


def _largest(coeffs):
    return max(sorted(coeffs), key=lambda k: abs(coeffs[k]))


def write_perturbed_table(src: Path, dst: Path) -> None:
    """Copy a coeffs.json with its largest coefficient scaled by 1.01."""
    degrees, coeffs = load_table(src)
    bad = _perturbed(coeffs, _largest(coeffs))
    entries = [{"k": list(k), "num": str(v.numerator), "den": str(v.denominator)} for k, v in sorted(bad.items())]
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_text(json.dumps({"degrees": list(degrees), "coeffs": entries}))


def tension_agrees(phi_expr, fn, points, dirs, ctx) -> float:
    """Worst |tension(program) - tension(FD)| / sum |FD summands|."""
    from biforge.operators import tension

    worst = 0.0
    for p in points:
        tau_fd, scale = fd.tension(fn, p, dirs)
        worst = max(worst, abs(tension(phi_expr, p, ctx) - tau_fd) / scale)
    return worst


def bitension_ratio(fn, points, dirs, ring) -> float:
    """Worst |tau(tau phi)| / |tau phi| over the points, both by differences."""
    worst = 0.0
    for p in points:
        tau, _ = fd.tension(fn, p, dirs)
        bi, _ = fd.bitension(fn, p, ring)
        worst = max(worst, abs(bi) / abs(tau))
    return worst


def candidate_checks(label, coeffs_path, quad_path, rng, compare_tension) -> list[Result]:
    """FD bitension property of the assembled candidate, plus its negative control.

    With ``compare_tension`` the program's jet tension is also compared
    with differences, and the comparison is shown to fail against the
    perturbed candidate.
    """
    from biforge.construct import CoeffTable, build_expression
    from biforge.operators import OperatorContext

    degrees, coeffs = load_table(coeffs_path)
    forms = Forms(quad_path)
    points = forms.points(rng, 2 if compare_tension else 1)
    dirs = fd.Directions(forms.kind, forms.n, STEP)
    ring = fd.Ring(forms.kind, forms.n, *(RING_HIGH_DEGREE if sum(degrees) > 3 else RING_LOW_DEGREE))
    phi = forms.candidate(degrees, coeffs)
    bad = forms.candidate(degrees, _perturbed(coeffs, _largest(coeffs)))

    ratio = bitension_ratio(phi, points, dirs, ring)
    bad_ratio = bitension_ratio(bad, points, dirs, ring)
    out = [
        Result(f"{label}: FD bitension << tension", ratio <= TOL_BITENSION, f"{ratio:.2e}"),
        Result(f"{label}: control, 1% perturbed table rejected", bad_ratio > TOL_BITENSION, f"{bad_ratio:.2e}"),
    ]
    if compare_tension:
        fam = forms.family
        pairs = [(fam.member_quotient(i), fam.member_tension(i)) for i in forms.proper[: len(degrees)]]
        expr = build_expression(CoeffTable(degrees, coeffs), pairs)
        ctx = OperatorContext.for_spec(fam.spec)
        err = tension_agrees(expr, phi, points, dirs, ctx)
        bad_err = tension_agrees(expr, bad, points, dirs, ctx)
        out += [
            Result(f"{label}: tension matches FD", err <= TOL_TENSION, f"{err:.2e}"),
            Result(f"{label}: control, FD of perturbed table mismatches", bad_err > TOL_TENSION, f"{bad_err:.2e}"),
        ]
    return out


def normalisation_checks(label, coeffs_path) -> list[Result]:
    """Exactly 1 at the zero index and 0 at the unit indices."""
    degrees, coeffs = load_table(coeffs_path)
    m = len(degrees)
    zero = (0,) * m
    units = [tuple(int(j == i) for j in range(m)) for i in range(m)]

    def normalised(table):
        return table.get(zero) == 1 and all(table.get(u, 0) == 0 for u in units)

    return [
        Result(f"{label}: exactly normalised", normalised(coeffs), ""),
        Result(f"{label}: control, perturbed zero index rejected", not normalised(_perturbed(coeffs, zero)), ""),
    ]


def closed_form_d2_checks(coeffs_path) -> list[Result]:
    """The degree-2 table at mu = -1 is proportional to 4 : 0 : -3."""
    _, coeffs = load_table(coeffs_path)
    expected = (Fraction(4), Fraction(0), Fraction(-3))

    def proportional(table):
        got = [table.get((k,), Fraction(0)) for k in range(3)]
        return got[0] != 0 and all(g * expected[0] == e * got[0] for g, e in zip(got, expected))

    return [
        Result("su degree 2: table is 4 : 0 : -3", proportional(coeffs), ""),
        Result("su degree 2: control, perturbed table rejected", not proportional(_perturbed(coeffs, (2,))), ""),
    ]


def morphism_residuals(fn, points, dirs) -> float:
    """Worst of |tau| and |kappa(f, f)|, each over its sum of |summands|."""
    worst = 0.0
    for p in points:
        tau, tau_scale = fd.tension(fn, p, dirs)
        kap, kap_scale = fd.conformality(fn, p, dirs)
        worst = max(worst, abs(tau) / tau_scale, abs(kap) / kap_scale)
    return worst


def operators_agree(expr, fn, points, dirs, ctx) -> float:
    """Worst disagreement of the program's tension and conformality with FD."""
    from biforge.operators import conformality

    worst = tension_agrees(expr, fn, points, dirs, ctx)
    for p in points:
        kap, scale = fd.conformality(fn, p, dirs)
        worst = max(worst, abs(conformality(expr, expr, p, ctx) - kap) / scale)
    return worst


def rational_morphism_checks(label, quad_path, rng, k=2) -> list[Result]:
    """(tau f_i / tau f_j)^k is a harmonic morphism; (f_i / tau f_j)^k is not.

    The control swaps the eigenfamily member (tau f_i)^k for the k-th
    power of the quotient f_i = P_i/Q, which is not harmonic.
    """
    from biforge.construct import rational_morphism, tension_power_family
    from biforge.operators import OperatorContext

    forms = Forms(quad_path)
    i, j = forms.proper[:2]
    bound = np.linalg.norm(forms.P[j]) * np.linalg.norm(forms.Q) + np.linalg.norm(forms.R) * np.linalg.norm(forms.S[j])

    def tension_numerator(x):
        return fd.form_values(forms.P[j], x) * fd.form_values(forms.Q, x) - fd.form_values(
            forms.R, x
        ) * fd.form_values(forms.S[j], x)

    # |P_j Q - R S_j| sits near 0.1 of this bound at typical points.
    points = forms.points(rng, 2, [(tension_numerator, 0.05 * bound)])
    dirs = fd.Directions(forms.kind, forms.n, STEP)

    def morphism(x):
        return (forms.member(i, x)[1] / forms.member(j, x)[1]) ** k

    def from_quotient(x):
        return (forms.member(i, x)[0] / forms.member(j, x)[1]) ** k

    fam = forms.family
    expr = rational_morphism(tension_power_family(fam, k)[:2], {(1, 0): 1.0}, {(0, 1): 1.0})
    ctx = OperatorContext.for_spec(fam.spec)
    return _morphism_results(label, "(P_i/Q)^k", expr, morphism, from_quotient, points, dirs, ctx)


def _morphism_results(label, control, expr, fn, bad_fn, points, dirs, ctx) -> list[Result]:
    res = morphism_residuals(fn, points, dirs)
    bad = morphism_residuals(bad_fn, points, dirs)
    err = operators_agree(expr, fn, points, dirs, ctx)
    bad_err = operators_agree(expr, bad_fn, points, dirs, ctx)
    return [
        Result(f"{label}: FD harmonic morphism", res <= TOL_MORPHISM, f"{res:.2e}"),
        Result(f"{label}: control, morphism from {control} rejected", bad > TOL_MORPHISM, f"{bad:.2e}"),
        Result(f"{label}: tension and kappa match FD", err <= TOL_TENSION, f"{err:.2e}"),
        Result(f"{label}: control, FD of {control} mismatches", bad_err > TOL_TENSION, f"{bad_err:.2e}"),
    ]


def column_ratio_checks(n, rng) -> list[Result]:
    """Q_1/Q_0 with Q_c(x) = sum_j q_j x_jc is a harmonic morphism on U(n)."""
    from biforge.construct import column_ratio_family
    from biforge.groups import GroupSpec
    from biforge.operators import OperatorContext

    q = rng.normal(size=n) + 1j * rng.normal(size=n)
    cols = [np.zeros((n, n), dtype=complex) for _ in range(2)]
    for c, arr in enumerate(cols):
        arr[:, c] = q
    points = fd.sample_points(
        "su", n, rng, 2, lambda p: abs(fd.form_values(cols[0], p)) >= MARGIN * np.linalg.norm(q)
    )
    dirs = fd.Directions("su", n, STEP)

    def ratio(x):
        return fd.form_values(cols[1], x) / fd.form_values(cols[0], x)

    def not_harmonic(x):
        return ratio(x) * fd.form_values(cols[1], x)

    spec = GroupSpec.from_code("su", n)
    expr = column_ratio_family(q, spec)[0]
    ctx = OperatorContext.for_spec(spec)
    return _morphism_results(f"su({n}) column ratio", "Q_1^2/Q_0", expr, ratio, not_harmonic, points, dirs, ctx)
