"""Verification campaigns shared by the CLI and the test suite.

Every check is a max-residual over deterministically sampled points.
Points are drawn by incrementing the seed and kept when every denominator
in the expressions under test is bounded away from zero (relative to its
coefficient scale), so residuals are measured inside the domain and away
from poles.  The sampler returns the kept points as one (P, N, N) stack
in seed order; every check takes that stack and reduces per-point
residual arrays to their maximum, so reports are deterministic.

Each check walks every function it reads once, through
``operators.laplacian_jets``, and unpacks the values, tensions and kappa
pairs that walk returns; a proper candidate's check reads its value,
tension and bitension from ``operators.bitension_jets`` instead.  How
jets are packed is left to ``operators``.  The morphism campaign
(``morphism_campaign_checks``) walks one forest, the eigenfamily and the
morphism, and reads the eigenfamily rows and the morphism rows from that
one walk.
The closed-form member tension is evaluated on the plain stack, so the
jet side never reads the formula it checks.

Every bound is a module constant with its reason below; the CLI's
``--tol`` defaults read them.  All residuals are relative.

* ``IDENTITY_TOL`` = 1e-9: eigenfunction relations, product rules,
  closed-form tensions and eigenfamily constants are exact identities;
  rounding leaves at most about 1e-13, a wrong coefficient order one.
* ``DEFAULT_CANDIDATE_TOL`` = 1e-7 (``verify --tol``): the bitension is
  fourth order through nested quotients, up to about 1e-10; a harmonic
  candidate's tension, second order, gets a tenth of it.
* ``TENSION_WITNESS_MIN`` = 1e-3: a proper candidate's tension reaches
  order one somewhere; a harmonic one stays at rounding.
* ``DEFAULT_MORPHISM_TOL`` = 1e-8 (``morphism --tol``): second-order
  residuals of powers of quotients, about 1e-13 in practice.
* ``DEFAULT_DOMAIN_MARGIN`` = 0.02: points keep every denominator at this
  fraction of its coefficient scale, so no nearby pole inflates a residual.
"""

from __future__ import annotations

import numpy as np

from .errors import SamplingExhausted
from .forms import QuadrupleFamily, Quotient, RationalExpr, evaluate_all, walk_order
from .groups import GroupSpec, sample_points
from .operators import OperatorContext, bitension_jets, laplacian_jets, relative_residual
from .report import CheckResult

__all__ = [
    "sample_domain_points",
    "quadruple_checks",
    "closed_form_tension_checks",
    "candidate_checks",
    "eigenfamily_checks",
    "morphism_checks",
    "morphism_campaign_checks",
]

IDENTITY_TOL = 1e-9
DEFAULT_CANDIDATE_TOL = 1e-7
TENSION_WITNESS_MIN = 1e-3
DEFAULT_MORPHISM_TOL = 1e-8
DEFAULT_DOMAIN_MARGIN = 0.02


def sample_domain_points(exprs, spec: GroupSpec, count: int, seed: int) -> np.ndarray:
    """A (count, N, N) stack of deterministic points where every denominator
    stays away from zero.

    Seeds seed, seed + 1, ... are drawn in rounds of as many draws as
    points are still missing.  A round is one ``groups.sample_points``
    stack: one batched QR on U(n) and SO(n), and Sp(n) seed by seed,
    since its Gram-Schmidt batched over seeds would not round as the
    per-seed one does.  A draw is kept when every denominator reaches
    ``DEFAULT_DOMAIN_MARGIN`` (read at call time) times its coefficient
    scale, so the kept seeds and points are those of a one-at-a-time
    loop.  Each denominator is evaluated once per round on the draws
    still kept, children first: a denominator is only evaluated where
    every quotient inside it has cleared the margin, far above the
    Quotient guard's ``forms._POLE_REL_TOL``.
    """
    guards = {}
    for node in walk_order(exprs)[0]:
        if isinstance(node, Quotient):
            bound = DEFAULT_DOMAIN_MARGIN * node.den_scale
            guards.setdefault(id(node.denominator), (node.denominator, bound))
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
        kept = sample_points(spec, range(seed + offset, seed + offset + draws))
        offset += draws
        for den, bound in guards.values():
            kept = kept[np.broadcast_to(np.abs(den.evaluate(kept)) >= bound, len(kept))]
        points = np.concatenate([points, kept])
    return points


def quadruple_checks(fam: QuadrupleFamily, ctx: OperatorContext, points) -> list[CheckResult]:
    """Eigenfunction residuals and the ten conformality product rules.

    All forms are walked once; the rules are one set of index arrays into
    their kappa matrix and their values, checked in one pass, and each
    rule's worst residual is a max over its run of entries.
    """
    values, tau, kappa = laplacian_jets(fam.all_forms(), points, ctx)
    eigen = np.max(relative_residual(tau, fam.spec.eigenvalue * values))
    checks = [CheckResult.upper("eigenfunctions", eigen, IDENTITY_TOL)]

    # indices in all_forms() order: P_0 .. P_{m-1}, Q, R, S_0 .. S_{m-1}
    m = fam.n_members
    q, r, s = m, m + 1, m + 2
    k = np.arange(m)
    qs, rs = np.full(m, q), np.full(m, r)
    i, j = np.divmod(np.arange(m * m), m)  # every (i, j)
    upper = i <= j
    iu, ju = i[upper], j[upper]
    # (left, right, fa, fb), four index arrays of one length:
    # kappa(left, right) = mu * fa * fb
    relations = {
        "kappa(P,P)": (iu, ju, iu, ju),
        "kappa(S,S)": (s + iu, s + ju, s + iu, s + ju),
        "kappa(Q,Q)": ([q], [q], [q], [q]),
        "kappa(R,R)": ([r], [r], [r], [r]),
        "kappa(Q,R)": ([q], [r], [q], [r]),
        "kappa(Q,S)": (qs, s + k, qs, s + k),
        "kappa(P,R)": (k, rs, k, rs),
        "kappa(P_i,S_j)=mu*P_j*S_i": (i, s + j, j, s + i),
        "kappa(P,Q)=mu*R*S": (k, qs, rs, s + k),
        "kappa(R,S)=mu*P*Q": (rs, s + k, k, qs),
    }
    rules = [np.array(rule) for rule in relations.values()]
    left, right, fa, fb = np.concatenate(rules, axis=1)
    starts = np.cumsum([0] + [rule.shape[1] for rule in rules[:-1]])
    worst = relative_residual(kappa[left, right], fam.mu * values[fa] * values[fb]).max(-1)
    worst = np.maximum.reduceat(worst, starts)
    return checks + [CheckResult.upper(name, x, IDENTITY_TOL) for name, x in zip(relations, worst)]


def closed_form_tension_checks(fam: QuadrupleFamily, ctx: OperatorContext, points) -> list[CheckResult]:
    """Closed-form member tension against the jet-computed operator; the
    quotients are one jet walk and their closed forms one plain walk."""
    members = range(fam.n_members)
    _, tau, _ = laplacian_jets([fam.member_quotient(i) for i in members], points, ctx)
    closed = np.array(evaluate_all([fam.member_tension(i) for i in members], points))
    worst = np.max(relative_residual(tau, closed))
    return [CheckResult.upper("closed-form tension", worst, IDENTITY_TOL)]


def candidate_checks(
    phi: RationalExpr,
    ctx: OperatorContext,
    points,
    proper: bool,
    tol: float = DEFAULT_CANDIDATE_TOL,
) -> list[CheckResult]:
    """Harmonicity or proper biharmonicity of an assembled candidate.

    Residuals are normalized by max(1, |phi|, |tau phi|) at each point;
    the bitension is bounded by ``tol`` and the tension of a harmonic
    candidate by ``tol / 10``.  The properness witness is max over points
    of |tau phi| / max(1, |phi|) and must reach ``TENSION_WITNESS_MIN``.
    """
    if proper:
        value, tau, tau_two = bitension_jets(phi, points, ctx)
    else:
        (value,), (tau,), _ = laplacian_jets([phi], points, ctx)
    value, tau = np.abs(value), np.abs(tau)
    tau_ratio = tau / np.maximum(1.0, value)
    if not proper:
        return [CheckResult.upper("tension", np.max(tau_ratio), tol / 10)]
    scale = np.maximum(np.maximum(1.0, value), tau)
    return [
        CheckResult.upper("bitension", np.max(np.abs(tau_two) / scale), tol),
        CheckResult.lower("tension nonvanishing", np.max(tau_ratio), TENSION_WITNESS_MIN),
    ]


def eigenfamily_checks(
    jets, eigenvalue: float, kappa_constant: float, tol: float = IDENTITY_TOL
) -> list[CheckResult]:
    """Definition of an eigenfamily: common eigenvalue and kappa constant,
    read from the members' ``laplacian_jets`` values, tensions and kappa."""
    values, tau, kappa = jets
    tau = np.max(relative_residual(tau, eigenvalue * values))
    left, right = np.triu_indices(len(values))
    kappa = np.max(relative_residual(kappa[left, right], kappa_constant * values[left] * values[right]))
    return [
        CheckResult.upper("eigenfamily tension", tau, tol),
        CheckResult.upper("eigenfamily kappa", kappa, tol),
    ]


def morphism_checks(value, tau, kap, tol: float = DEFAULT_MORPHISM_TOL) -> list[CheckResult]:
    """Harmonic morphism conditions, read from one function's values,
    tension and kappa(f, f): tension and kappa(f, f) both vanish."""
    value = np.abs(value)
    tau = np.abs(tau) / np.maximum(1.0, value)
    kap = np.abs(kap) / np.maximum(1.0, value**2)
    return [
        CheckResult.upper("tension", np.max(tau), tol),
        CheckResult.upper("horizontal conformality", np.max(kap), tol),
    ]


def morphism_campaign_checks(
    family,
    morphism: RationalExpr,
    eigenvalue: float,
    kappa_constant: float,
    ctx: OperatorContext,
    points,
    family_tol: float,
    tol: float,
) -> list[CheckResult]:
    """The eigenfamily checks of ``family`` (bound ``family_tol``), then the
    morphism checks of ``morphism`` (bound ``tol``), from one
    ``laplacian_jets`` walk of the forest [*family, morphism]; a morphism
    that is also a family member is evaluated once."""
    values, tau, kappa = laplacian_jets([*family, morphism], points, ctx)
    m = len(family)
    checks = eigenfamily_checks((values[:m], tau[:m], kappa[:m, :m]), eigenvalue, kappa_constant, family_tol)
    return checks + morphism_checks(values[m], tau[m], kappa[m, m], tol)
