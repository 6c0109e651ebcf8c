"""Verification campaigns shared by the CLI and the test suite.

Every check is a max-residual over deterministically sampled points.
Points are drawn by incrementing the seed until every denominator in the
expressions under test is bounded away from zero (relative to its
coefficient scale), so residuals are measured inside the domain and away
from poles.  Points are evaluated serially in sampling order, so reports
are deterministic.
"""

from __future__ import annotations

from .algebra import leading_value
from .construct import CoeffTable, build_expression, tension_table
from .errors import DomainError, SamplingExhausted
from .forms import QuadrupleFamily, RationalExpr
from .groups import GroupPoint, GroupSpec, sample_point
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
) -> list[GroupPoint]:
    """Deterministic points where every denominator stays away from zero."""
    nodes = []
    seen = set()
    for expr in exprs:
        for node in expr.quotient_nodes():
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
    points: list[GroupPoint] = []
    offset = 0
    limit = 200 * count + 500
    while len(points) < count:
        if offset >= limit:
            raise SamplingExhausted(
                f"could not sample {count} points inside the domain: "
                f"{len(points)} accepted after {offset} draws"
            )
        p = sample_point(spec, seed + offset)
        offset += 1
        cache: dict = {}
        try:
            ok = all(
                abs(leading_value(node.denominator.evaluate(p.matrix, cache)))
                >= margin * node.den_scale
                for node in nodes
            )
        except DomainError:
            continue
        if ok:
            points.append(p)
    return points


def _merge(results):
    return max(results, default=0.0)


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

    def eigen_residual(point):
        worst = 0.0
        base = point.matrix
        for f in forms:
            value = f.evaluate(base)
            worst = max(
                worst,
                relative_residual(tension(exprs[id(f)], point, ctx), spec.eigenvalue * value),
            )
        return worst

    checks = [
        CheckResult.upper(
            "eigenfunctions", _merge(map(eigen_residual, points)), tol_eigen
        )
    ]

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
        def kappa_residual(point, triples=triples):
            worst = 0.0
            base = point.matrix
            for left, right, (fa, fb) in triples:
                actual = conformality(exprs[id(left)], exprs[id(right)], point, ctx)
                expected = mu_const * fa.evaluate(base) * fb.evaluate(base)
                worst = max(worst, relative_residual(actual, expected))
            return worst

        checks.append(
            CheckResult.upper(name, _merge(map(kappa_residual, points)), tol_kappa)
        )
    return checks


def closed_form_tension_checks(
    fam: QuadrupleFamily,
    ctx: OperatorContext,
    points,
    tol: float = 1e-9,
) -> list[CheckResult]:
    """Closed-form member tension against the jet-computed operator."""

    def residual(point):
        worst = 0.0
        for i in range(fam.n_members):
            expected = fam.member_tension(i).evaluate(point.matrix)
            actual = tension(fam.member_quotient(i), point, ctx)
            worst = max(worst, relative_residual(actual, expected))
        return worst

    return [
        CheckResult.upper(
            "closed-form tension", _merge(map(residual, points)), tol
        )
    ]


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
    if not proper:
        def tau_residual(point):
            value = phi.evaluate(point.matrix)
            return abs(tension(phi, point, ctx)) / max(1.0, abs(value))

        return [
            CheckResult.upper("tension", _merge(map(tau_residual, points)), tol_tau)
        ]

    def both(point):
        value = phi.evaluate(point.matrix)
        tau = tension(phi, point, ctx)
        tau_two = tension2(phi, point, ctx)
        scale = max(1.0, abs(value), abs(tau))
        return abs(tau_two) / scale, abs(tau) / max(1.0, abs(value))

    results = [both(p) for p in points]
    return [
        CheckResult.upper("bitension", _merge([r[0] for r in results]), tol_tau2),
        CheckResult.lower("tension nonvanishing", _merge([r[1] for r in results]), min_tau),
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
    """Nested-jet bitension against the symbolic route.

    The symbolic route expands tau(phi) coefficientwise through the
    product rules (an exact rational computation) and applies the jet
    tension once; both routes must agree pointwise.  Both values are near
    zero for biharmonic candidates, so the difference is measured against
    the local magnitude of the function and its tension (the quantities
    actually being differentiated), as in the other residual checks.
    """
    tau_sym = build_expression(tension_table(table, mu), pairs)

    def residual(point):
        m = point.matrix
        direct = tension2(phi, point, ctx)
        via_expansion = tension(tau_sym, point, ctx)
        scale = max(
            1.0, abs(phi.evaluate(m)), abs(tau_sym.evaluate(m)), abs(via_expansion)
        )
        return abs(direct - via_expansion) / scale

    return CheckResult.upper(
        "bitension route equivalence", _merge(map(residual, points)), tol
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

    def tau_residual(point):
        worst = 0.0
        for phi in members:
            value = phi.evaluate(point.matrix)
            worst = max(
                worst, relative_residual(tension(phi, point, ctx), eigenvalue * value)
            )
        return worst

    def kappa_residual(point):
        worst = 0.0
        cache: dict = {}
        values = [phi.evaluate(point.matrix, cache) for phi in members]
        for i, phi in enumerate(members):
            for j in range(i, len(members)):
                actual = conformality(phi, members[j], point, ctx)
                expected = kappa_constant * values[i] * values[j]
                worst = max(worst, relative_residual(actual, expected))
        return worst

    return [
        CheckResult.upper("eigenfamily tension", _merge(map(tau_residual, points)), tol),
        CheckResult.upper("eigenfamily kappa", _merge(map(kappa_residual, points)), tol),
    ]


def morphism_checks(
    expr: RationalExpr,
    ctx: OperatorContext,
    points,
    tol: float = 1e-8,
) -> list[CheckResult]:
    """Harmonic morphism conditions: tension and kappa(f, f) both vanish."""

    def residuals(point):
        value = expr.evaluate(point.matrix)
        tau = abs(tension(expr, point, ctx)) / max(1.0, abs(value))
        kap = abs(conformality(expr, expr, point, ctx)) / max(1.0, abs(value) ** 2)
        return tau, kap

    results = [residuals(p) for p in points]
    return [
        CheckResult.upper("tension", _merge([r[0] for r in results]), tol),
        CheckResult.upper("horizontal conformality", _merge([r[1] for r in results]), tol),
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
