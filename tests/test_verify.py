"""The domain sampler: one (P, N, N) stack, the seeds a per-draw loop keeps;
and the relation bookkeeping of the checks that read one packed walk."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

import biforge.verify
import biforge.operators
from biforge.construct import (
    biharmonic_family,
    build_expression,
    proper_biharmonic_table,
    rational_morphism,
    tension_power_family,
)
from biforge.errors import DomainError
from biforge.forms import Const, LinearForm, Quotient, Sum, make_quadruple, walk_order
from biforge.groups import GroupSpec, sample_point, sample_points
from biforge.operators import OperatorContext, conformality, laplacian_jets, relative_residual, tension, tension2
from biforge.report import CheckResult, VerificationReport
from biforge.verify import (
    DEFAULT_DOMAIN_MARGIN,
    IDENTITY_TOL,
    candidate_checks,
    closed_form_tension_checks,
    eigenfamily_checks,
    quadruple_checks,
    sample_domain_points,
)

U3 = GroupSpec.unitary(3)


def _family(spec, seed, sp_choice=None):
    # seeded generating vectors, isotropic rows on SO(n)
    rng = np.random.default_rng(seed)
    n = spec.n
    if spec.code == "so":
        u1, v1, u2, v2 = np.linalg.qr(rng.normal(size=(n, 4)))[0].T
        p, q = u1 + 1j * v1, u2 + 1j * v2
    else:
        p, q = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    a, b = (rng.uniform(0.5, 1.5, size=n) * np.exp(2j * np.pi * rng.uniform(size=n)) for _ in range(2))
    return make_quadruple(spec, p, q, a, b, sp_choice=sp_choice)


def _so8_rational_morphism():
    spec = GroupSpec.special_orthogonal(8)
    family = tension_power_family(_family(spec, 41), 2)[:2]
    morphism = rational_morphism(family, {(1, 0): 1.0}, {(0, 1): 1.0})
    return [morphism, *family], spec


def _su4_candidate_21():
    spec = GroupSpec.unitary(4)
    fam = _family(spec, 43)
    pairs = [(fam.member_quotient(i), fam.member_tension(i)) for i in fam.proper_indices[:2]]
    phi = build_expression(biharmonic_family((2, 1), Fraction(-1))[0], pairs)
    return [phi, *(tf for _, tf in pairs)], spec


def _quotients(exprs):
    """The forest's Quotient nodes in walk order."""
    return [node for node in walk_order(exprs)[0] if isinstance(node, Quotient)]


def _per_draw_reference(exprs, spec, count, seed):
    """Each seed drawn alone and kept when every denominator clears the margin."""
    nodes = _quotients(exprs)
    kept, draws = [], 0
    while len(kept) < count:
        m = sample_point(spec, seed + draws)
        draws += 1
        try:
            ok = all(
                abs(node.denominator.evaluate(m)) >= DEFAULT_DOMAIN_MARGIN * node.den_scale
                for node in nodes
            )
        except DomainError:
            ok = False
        if ok:
            kept.append(m)
    return np.array(kept), draws


@pytest.mark.parametrize(
    "build, seed",
    [(_so8_rational_morphism, 260), (_su4_candidate_21, 140)],
    ids=["so8-rational-k2", "su4-candidate-21"],
)
def test_stack_matches_per_draw_reference(build, seed):
    exprs, spec = build()
    count = 8
    expected, draws = _per_draw_reference(exprs, spec, count, seed)
    assert draws > count  # some draws are rejected
    points = sample_domain_points(exprs, spec, count, seed)
    assert points.shape == (count, spec.ambient_dim, spec.ambient_dim)
    assert np.array_equal(points, expected)


def test_quotient_nodes_come_children_first():
    exprs, _ = _so8_rational_morphism()
    nodes = _quotients(exprs[:1])
    order = {id(node): k for k, node in enumerate(nodes)}
    nested = [node for node in nodes if _quotients([node.denominator])]
    assert nested  # the morphism divides by a quotient
    for node in nested:
        for inner in _quotients([node.denominator]):
            assert order[id(inner)] < order[id(node)]


def test_draw_on_an_inner_denominator_zero_is_rejected_alone(monkeypatch):
    # the outer denominator 3 + z11/z00 reads the inner quotient, so a batch
    # containing a point with z00 = 0 would raise there; the inner margin
    # check must drop that one draw first and keep the rest of its round
    inner = Quotient(LinearForm.coordinate(U3, 1, 1), LinearForm.coordinate(U3, 0, 0))
    outer = Quotient(Const(1.0), Sum((Const(3.0), inner)))
    on_zero = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    with pytest.raises(DomainError):
        outer.evaluate(on_zero)
    seed = 3300
    drawn = []

    def fake_sample_points(spec, seeds):
        drawn.extend(seeds)
        stack = sample_points(spec, seeds)
        stack[np.equal(seeds, seed + 2)] = on_zero
        return stack

    monkeypatch.setattr(biforge.verify, "sample_points", fake_sample_points)
    points = sample_domain_points([outer], U3, 4, seed)
    assert drawn == [seed + k for k in range(5)]
    assert np.array_equal(points, np.array([sample_point(U3, seed + k) for k in (0, 1, 3, 4)]))


def test_constant_denominator_keeps_every_draw():
    # x / 2 guards a denominator without matrix entries: its one value
    # stands for every draw of the round
    half = LinearForm.coordinate(U3, 0, 1) / 2
    points = sample_domain_points([half], U3, 3, 3400)
    assert np.array_equal(points, np.array([sample_point(U3, 3400 + k) for k in range(3)]))


def _reference_quadruple_residuals(fam, ctx, points):
    """The ten product rules spelled out by name, one conformality call per pair."""
    p, s = fam.numerators, fam.exchange_numerators
    q, r = fam.denominator, fam.exchange_denominator
    members = range(fam.n_members)
    values = {id(f): f.evaluate(points) for f in fam.all_forms()}

    def kappa(left, right, fa, fb):
        actual = conformality(left, right, points, ctx)
        return np.max(relative_residual(actual, fam.mu * values[id(fa)] * values[id(fb)]))

    eigen = max(
        np.max(relative_residual(tension(f, points, ctx), fam.spec.eigenvalue * values[id(f)]))
        for f in fam.all_forms()
    )
    relations = {
        "kappa(P,P)": [(p[i], p[j], p[i], p[j]) for i in members for j in members if i <= j],
        "kappa(S,S)": [(s[i], s[j], s[i], s[j]) for i in members for j in members if i <= j],
        "kappa(Q,Q)": [(q, q, q, q)],
        "kappa(R,R)": [(r, r, r, r)],
        "kappa(Q,R)": [(q, r, q, r)],
        "kappa(Q,S)": [(q, s[j], q, s[j]) for j in members],
        "kappa(P,R)": [(p[j], r, p[j], r) for j in members],
        "kappa(P_i,S_j)=mu*P_j*S_i": [(p[i], s[j], p[j], s[i]) for i in members for j in members],
        "kappa(P,Q)=mu*R*S": [(p[j], q, r, s[j]) for j in members],
        "kappa(R,S)=mu*P*Q": [(r, s[j], p[j], q) for j in members],
    }
    return {"eigenfunctions": eigen} | {
        name: max(kappa(*row) for row in rows) for name, rows in relations.items()
    }


def _reference_eigenfamily_residuals(members, eigenvalue, kappa_constant, ctx, points):
    values = [h.evaluate(points) for h in members]
    tau = max(
        np.max(relative_residual(tension(h, points, ctx), eigenvalue * v)) for h, v in zip(members, values)
    )
    kappa = max(
        np.max(relative_residual(
            conformality(members[i], members[j], points, ctx), kappa_constant * values[i] * values[j]
        ))
        for i in range(len(members))
        for j in range(i, len(members))
    )
    return {"eigenfamily tension": tau, "eigenfamily kappa": kappa}


@pytest.mark.parametrize(
    "spec, sp_choice",
    [(U3, None), (GroupSpec.special_orthogonal(6), None), (GroupSpec.quaternionic_unitary(2), 10)],
    ids=["su3", "so6", "sp2-choice10"],
)
@pytest.mark.parametrize("mu_factor", [1, 2], ids=["mu", "2mu"])
def test_checks_match_per_pair_reference(spec, sp_choice, mu_factor):
    # every residual read from the one-walk kappa matrix equals the named
    # per-pair reference; with mu doubled every kappa relation fails, so a
    # wrong row or column label cannot pass unnoticed
    fam = _family(spec, 47, sp_choice)
    fam = dataclasses.replace(fam, mu=mu_factor * fam.mu)
    ctx = OperatorContext.for_spec(spec)
    points = sample_domain_points([fam.member_quotient(i) for i in range(fam.n_members)], spec, 3, 3600)
    members = list(fam.numerators)
    checks = quadruple_checks(fam, ctx, points)
    checks += eigenfamily_checks(laplacian_jets(members, points, ctx), spec.eigenvalue, fam.mu)
    expected = _reference_quadruple_residuals(fam, ctx, points)
    expected |= _reference_eigenfamily_residuals(members, spec.eigenvalue, fam.mu, ctx, points)
    assert [c.name for c in checks] == list(expected)
    for check in checks:
        assert abs(check.max_residual - expected[check.name]) <= 1e-12 * max(1.0, expected[check.name])
        is_kappa = "kappa" in check.name
        assert check.passed == (mu_factor == 1 or not is_kappa), check.name


def _so4_isotropic_columns_family(seed):
    # a, b span a totally isotropic plane: (a,a) = (b,b) = (a,b) = 0
    spec = GroupSpec.special_orthogonal(4)
    rng = np.random.default_rng(seed)
    u1, v1, u2, v2 = np.linalg.qr(rng.normal(size=(4, 4)))[0].T
    p, q = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(2))
    return make_quadruple(spec, p, q, u1 + 1j * v1, u2 + 1j * v2)


RULE_FAMILIES = {
    "su4": lambda: _family(GroupSpec.unitary(4), 61),
    "so8-isotropic-rows": lambda: _family(GroupSpec.special_orthogonal(8), 62),
    "so4-isotropic-columns": lambda: _so4_isotropic_columns_family(63),
    **{f"sp4-choice{c}": lambda c=c: _family(GroupSpec.quaternionic_unitary(4), 64, c) for c in (9, 10, 11)},
}
PQ, RS, PS = "kappa(P,Q)=mu*R*S", "kappa(R,S)=mu*P*Q", "kappa(P_i,S_j)=mu*P_j*S_i"


def _scaled(form):
    return LinearForm(form.spec, 1.001 * form.u, form.v)


@pytest.mark.parametrize("scaled", ["S", "P_0"])
@pytest.mark.parametrize("name", list(RULE_FAMILIES))
def test_a_scaled_form_fails_exactly_the_rules_not_homogeneous_in_it(name, scaled):
    # scaling a form scales both sides of kappa(x, y) = mu (row x, column y)
    # (row y, column x) alike unless it stands on one side only: S_i in
    # kappa(P_i, Q) = mu R S_i and kappa(R, S_i) = mu P_i Q, and P_0 there
    # and in kappa(P_0, S_j) = mu P_j S_0 for j != 0
    fam = RULE_FAMILIES[name]()
    ctx = OperatorContext.for_spec(fam.spec)
    points = sample_domain_points([fam.member_quotient(i) for i in range(fam.n_members)], fam.spec, 4, 4000)
    assert all(check.passed for check in quadruple_checks(fam, ctx, points))
    if scaled == "S":
        vars(fam)["exchange_numerators"] = tuple(map(_scaled, fam.exchange_numerators))
        broken = {PQ, RS}
    else:
        vars(fam)["numerators"] = (_scaled(fam.numerators[0]), *fam.numerators[1:])
        broken = {PQ, RS, PS} if fam.n_members >= 2 else {PQ, RS}
    checks = quadruple_checks(fam, ctx, points)
    assert len(checks) == 11
    assert {check.name for check in checks if not check.passed} == broken
    assert all(check.max_residual >= 100 * IDENTITY_TOL for check in checks if check.name in broken)


def test_closed_form_tension_checks_evaluate_each_form_once_per_side(monkeypatch):
    # sp(4) --choice 10 has 4 members over 10 distinct forms: the jet walk
    # reads P_0..P_3 and Q, the plain walk of the closed forms P, Q, R and S
    spec = GroupSpec.quaternionic_unitary(4)
    fam = _family(spec, 53, sp_choice=10)
    assert fam.n_members == 4
    ctx = OperatorContext.for_spec(spec)
    points = sample_domain_points([fam.member_quotient(i) for i in range(4)], spec, 2, 3700)
    calls = []
    evaluate = LinearForm.evaluate

    def counting(self, point):
        calls.append(self)
        return evaluate(self, point)

    monkeypatch.setattr(LinearForm, "evaluate", counting)
    [check] = closed_form_tension_checks(fam, ctx, points)
    assert check.passed
    assert len(calls) == 15
    assert len({id(form) for form in calls}) == 10


def test_check_result_passed_follows_its_numbers():
    assert CheckResult("x", 1.0, 0.5).passed is False
    assert CheckResult("x", 0.5, 0.5).passed is True
    assert CheckResult("x", 1.0, 0.5, lower_bound=True).passed is True
    assert CheckResult("x", float("nan"), 0.5).passed is False


def _report_document(report):
    # the report's JSON document, field by field
    checks = [
        {"name": c.name, "max_residual": c.max_residual, "tolerance": c.tolerance,
         "lower_bound": c.lower_bound, "pass": c.passed}
        for c in report.checks
    ]
    return {"subject": report.subject, "group": report.group, "points": report.points, "seed": report.seed,
            "checks": checks, "verdict": report.verdict}


def test_report_json_matches_the_indented_encoder():
    # the template writer against json.dumps(indent=2, sort_keys=True), on
    # non-finite, signed-zero, subnormal-scale and None fields, an empty
    # group and no checks
    checks = (
        CheckResult.upper("bitension", float("nan"), 1e-7),
        CheckResult.upper("tension \"quoted\" \u00b5", float("inf"), -0.0),
        CheckResult.lower("tension nonvanishing", float("-inf"), 1e-300),
        CheckResult("kappa(P,Q)", 2.4974934826208626e-13, 1e-9, lower_bound=None),
        CheckResult.upper("eigenfunctions", 0.0, 1e300),
    )
    reports = [
        VerificationReport("biharmonic candidate, degrees (2, 1)", {"group": "su", "n": 4}, 20, 3, checks),
        VerificationReport("harmonic morphism", {}, 0, -1, ()),
        VerificationReport("x", {"n": 2, "group": "sp", "choice": None}, 5, 0, checks[3:]),
    ]
    for report in reports:
        assert report.to_json() == json.dumps(_report_document(report), indent=2, sort_keys=True)


def test_proper_candidate_checks_walk_only_the_bitension(monkeypatch):
    # su(4) has |B| = 16 directions, 18 jet columns: a walk of eleven
    # (K = 13) and one of the last five (K = 7), and phi and tau(phi) are
    # read from the first of them, with no K = 1 walk of their own
    spec = GroupSpec.unitary(4)
    fam = _family(spec, 59)
    pairs = [(fam.member_quotient(i), fam.member_tension(i)) for i in fam.proper_indices[:2]]
    phi = build_expression(proper_biharmonic_table((2, 1), Fraction(spec.mu)), pairs)
    ctx = OperatorContext.for_spec(spec)
    points = sample_domain_points([phi, *(tf for _, tf in pairs)], spec, 3, 3900)
    walks = []
    packed_point = biforge.operators.PackedPoint
    monkeypatch.setattr(biforge.operators, "PackedPoint", lambda *a: walks.append(packed_point(*a)) or walks[-1])
    bitension, witness = candidate_checks(phi, ctx, points, proper=True)
    assert [walk.shape[:2] for walk in walks] == [(3, 13), (3, 7)]
    monkeypatch.undo()
    (value,), (tau,), _ = laplacian_jets([phi], points, ctx)
    scale = np.maximum.reduce([np.ones(len(points)), np.abs(value), np.abs(tau)])
    assert bitension.passed and witness.passed
    assert abs(bitension.max_residual - np.max(np.abs(tension2(phi, points, ctx)) / scale)) <= 1e-12
    assert witness.max_residual == pytest.approx(np.max(np.abs(tau) / np.maximum(1.0, np.abs(value))), rel=1e-12)
