"""Verification campaigns shared by the CLI and the test suite.

Every check is a max-residual over deterministically sampled points.
Points are drawn by incrementing the seed and kept when every denominator
in the expressions under test is bounded away from zero (relative to its
coefficient scale), so residuals are measured inside the domain and away
from poles.  The sampler returns the kept points as one (P, N, N) stack
in seed order; every check takes that stack, evaluates all its points as
one batch and reduces per-point residual arrays to their maximum, so
reports are deterministic.
"""

from __future__ import annotations

import numpy as np

from .construct import CoeffTable, build_expression, tension_table
from .errors import SamplingExhausted
from .forms import QuadrupleFamily, RationalExpr
from .groups import GroupSpec, sample_point
from .operators import OperatorContext, conformality, relative_residual, tension, tension2
from .report import CheckResult, VerificationReport

__all__ = [
    "sample_domain_points",
    "quadruple_checks",
    "closed_form_tension_checks",
    "candidate_checks",
    "oracle_equivalence_check",
    "eigenfamily_checks",
    "morphism_checks",
    "assemble_report",
]

DEFAULT_DOMAIN_MARGIN = 0.02


def sample_domain_points(
    exprs,
    spec: GroupSpec,
    count: int,
    seed: int,
    margin: float = DEFAULT_DOMAIN_MARGIN,
) -> np.ndarray:
    """A (count, N, N) stack of deterministic points where every denominator
    stays away from zero.

    Seeds seed, seed + 1, ... are drawn in rounds of as many draws as
    points are still missing, and a draw is kept when every denominator
    reaches ``margin`` times its coefficient scale, so the kept seeds are
    those of a one-at-a-time loop.  Each denominator is evaluated once
    per round on the draws still kept, children first: a denominator is
    only evaluated where every quotient inside it has cleared the margin,
    far above the Quotient guard's ``rel_tol``.
    """
    guards = {}
    for expr in exprs:
        for node in expr.quotient_nodes():
            guards.setdefault(id(node.denominator), (node.denominator, margin * node.den_scale))
    n = spec.ambient_dim
    points = np.empty((0, n, n), dtype=complex)
    offset = 0
    limit = 200 * count + 500
    while len(points) < count:
        if offset >= limit:
            raise SamplingExhausted(
                f"could not sample {count} points inside the domain: "
                f"{len(points)} accepted after {offset} draws"
            )
        draws = min(count - len(points), limit - offset)
        kept = np.array([sample_point(spec, seed + offset + i) for i in range(draws)])
        offset += draws
        for den, bound in guards.values():
            kept = kept[np.broadcast_to(np.abs(den.evaluate(kept)) >= bound, len(kept))]
        points = np.concatenate([points, kept])
    return points


def _worst(residuals) -> float:
    """Largest entry over an iterable of per-point residual arrays."""
    return max(np.max(r) for r in residuals)


def quadruple_checks(
    fam: QuadrupleFamily,
    ctx: OperatorContext,
    points,
    tol_eigen: float = 1e-9,
    tol_kappa: float = 1e-9,
) -> list[CheckResult]:
    """Eigenfunction residuals and the ten conformality product rules."""
    mu_const = fam.mu
    spec = fam.spec
    forms = fam.all_forms()
    exprs = {id(f): fam._expr(f) for f in forms}
    values = {id(f): f.evaluate(points) for f in forms}

    eigen = _worst(
        relative_residual(tension(exprs[id(f)], points, ctx), spec.eigenvalue * values[id(f)])
        for f in forms
    )
    checks = [CheckResult.upper("eigenfunctions", eigen, tol_eigen)]

    p_list = list(fam.numerators)
    s_list = list(fam.exchange_numerators)
    q = fam.denominator
    r = fam.exchange_denominator
    members = range(fam.n_members)

    # (left, right, expected product in evaluated values)
    relations = {
        "kappa(P,P)": [(p_list[i], p_list[j], (p_list[i], p_list[j])) for i in members for j in members if i <= j],
        "kappa(S,S)": [(s_list[i], s_list[j], (s_list[i], s_list[j])) for i in members for j in members if i <= j],
        "kappa(Q,Q)": [(q, q, (q, q))],
        "kappa(R,R)": [(r, r, (r, r))],
        "kappa(Q,R)": [(q, r, (q, r))],
        "kappa(Q,S)": [(q, s_list[j], (q, s_list[j])) for j in members],
        "kappa(P,R)": [(p_list[j], r, (p_list[j], r)) for j in members],
        "kappa(P_i,S_j)=mu*P_j*S_i": [
            (p_list[i], s_list[j], (p_list[j], s_list[i])) for i in members for j in members
        ],
        "kappa(P,Q)=mu*R*S": [(p_list[j], q, (r, s_list[j])) for j in members],
        "kappa(R,S)=mu*P*Q": [(r, s_list[j], (p_list[j], q)) for j in members],
    }

    for name, triples in relations.items():
        worst = _worst(
            relative_residual(
                conformality(exprs[id(left)], exprs[id(right)], points, ctx),
                mu_const * values[id(fa)] * values[id(fb)],
            )
            for left, right, (fa, fb) in triples
        )
        checks.append(CheckResult.upper(name, worst, tol_kappa))
    return checks


def closed_form_tension_checks(
    fam: QuadrupleFamily,
    ctx: OperatorContext,
    points,
    tol: float = 1e-9,
) -> list[CheckResult]:
    """Closed-form member tension against the jet-computed operator."""
    worst = _worst(
        relative_residual(
            tension(fam.member_quotient(i), points, ctx), fam.member_tension(i).evaluate(points)
        )
        for i in range(fam.n_members)
    )
    return [CheckResult.upper("closed-form tension", worst, tol)]


def candidate_checks(
    phi: RationalExpr,
    ctx: OperatorContext,
    points,
    proper: bool,
    tol_tau: float = 1e-8,
    tol_tau2: float = 1e-7,
    min_tau: float = 1e-3,
) -> list[CheckResult]:
    """Harmonicity or proper biharmonicity of an assembled candidate.

    Residuals are normalized by max(1, |phi|, |tau phi|) at each point;
    the properness witness is max over points of |tau phi| / max(1, |phi|)
    and must reach ``min_tau``.
    """
    value = np.abs(phi.evaluate(points))
    tau = np.abs(tension(phi, points, ctx))
    tau_ratio = tau / np.maximum(1.0, value)
    if not proper:
        return [CheckResult.upper("tension", np.max(tau_ratio), tol_tau)]
    tau_two = np.abs(tension2(phi, points, ctx))
    scale = np.maximum(np.maximum(1.0, value), tau)
    return [
        CheckResult.upper("bitension", np.max(tau_two / scale), tol_tau2),
        CheckResult.lower("tension nonvanishing", np.max(tau_ratio), min_tau),
    ]


def oracle_equivalence_check(
    table: CoeffTable,
    mu,
    pairs,
    phi: RationalExpr,
    ctx: OperatorContext,
    points,
    tol: float = 1e-8,
) -> CheckResult:
    """Jet bitension (``tension2``) against the symbolic route.

    The symbolic route expands tau(phi) coefficientwise through the
    product rules (an exact rational computation) and applies the jet
    tension once; both routes must agree pointwise.  Both values are near
    zero for biharmonic candidates, so the difference is measured against
    the local magnitude of the function and its tension (the quantities
    actually being differentiated), as in the other residual checks.
    """
    tau_sym = build_expression(tension_table(table, mu), pairs)
    direct = tension2(phi, points, ctx)
    via_expansion = tension(tau_sym, points, ctx)
    scale = np.maximum.reduce([
        np.ones(len(points)),
        np.abs(phi.evaluate(points)),
        np.abs(tau_sym.evaluate(points)),
        np.abs(via_expansion),
    ])
    return CheckResult.upper(
        "bitension route equivalence", np.max(np.abs(direct - via_expansion) / scale), tol
    )


def eigenfamily_checks(
    members,
    eigenvalue: float,
    kappa_constant: float,
    ctx: OperatorContext,
    points,
    tol: float = 1e-9,
) -> list[CheckResult]:
    """Definition of an eigenfamily: common eigenvalue and kappa constant."""
    cache: dict = {}
    values = [phi.evaluate(points, cache) for phi in members]
    tau = _worst(
        relative_residual(tension(phi, points, ctx), eigenvalue * value)
        for phi, value in zip(members, values)
    )
    kappa = _worst(
        relative_residual(
            conformality(members[i], members[j], points, ctx), kappa_constant * values[i] * values[j]
        )
        for i in range(len(members))
        for j in range(i, len(members))
    )
    return [
        CheckResult.upper("eigenfamily tension", tau, tol),
        CheckResult.upper("eigenfamily kappa", kappa, tol),
    ]


def morphism_checks(
    expr: RationalExpr,
    ctx: OperatorContext,
    points,
    tol: float = 1e-8,
) -> list[CheckResult]:
    """Harmonic morphism conditions: tension and kappa(f, f) both vanish."""
    value = np.abs(expr.evaluate(points))
    tau = np.abs(tension(expr, points, ctx)) / np.maximum(1.0, value)
    kap = np.abs(conformality(expr, expr, points, ctx)) / np.maximum(1.0, value**2)
    return [
        CheckResult.upper("tension", np.max(tau), tol),
        CheckResult.upper("horizontal conformality", np.max(kap), tol),
    ]


def assemble_report(
    subject: str,
    spec: GroupSpec,
    points,
    seed: int,
    checks,
) -> VerificationReport:
    return VerificationReport(
        subject=subject,
        group=spec.describe(),
        points=len(points),
        seed=seed,
        checks=tuple(checks),
    )
