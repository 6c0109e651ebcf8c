"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Exact criteria use rational arithmetic with zero tolerance;
numeric criteria state their tolerance inline.
"""

import time
from fractions import Fraction

import numpy as np

from biforge.construct import (
    CoeffTable,
    biharmonic_family,
    box_indices,
    build_expression,
    column_ratio_family,
    combine,
    eigenfamily_constants,
    rational_morphism,
    tension_power_family,
    tension_table,
)
from biforge.forms import (
    Classification,
    LinearForm,
    Quotient,
    classify,
    make_quadruple,
)
from biforge.groups import GroupKind, GroupSpec, sample_point
from biforge.operators import (
    conformality,
    context,
    laplacian_jets,
    relative_residual,
    tension,
    tension2,
)
from biforge.report import CheckResult
from biforge.verify import (
    candidate_checks,
    sample_domain_points,
)
from form_helpers import dense_form
from reference import harmonic_coefficients

HARMONIC_TABLES = {2: (0, 4, 3), 3: (0, 6, 12, 5), 4: (0, 32, 120, 120, 35)}
BIHARMONIC_TABLES = {
    2: (4, 0, -3),
    3: (6, 0, -27, -15),
    4: (32, 0, -480, -640, -210),
}

def verdict(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: one-variable coefficient fixtures, exact


def test_criterion_1_coefficient_fixtures():
    start = time.time()
    ok = True
    for d, expected in HARMONIC_TABLES.items():
        reference = CoeffTable((d,), {(k,): c for k, c in enumerate(expected)})
        ok &= harmonic_coefficients(d, -1).proportional_to(reference)
    for d, expected in BIHARMONIC_TABLES.items():
        reference = CoeffTable((d,), {(k,): c for k, c in enumerate(expected)})
        ok &= combine(biharmonic_family((d,), -1), [1, 0]).proportional_to(reference)
    verdict(
        "criterion 1",
        ok,
        f"six one-variable tables reproduced up to scale, exact ({time.time() - start:.2f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: two-variable fixtures, exact


def test_criterion_2_multivariable_fixtures():
    start = time.time()
    idxs = list(box_indices((1, 1)))
    cols = [
        [tension_table(CoeffTable((1, 1), {idx: 1}), -1).get(r) for r in idxs]
        for idx in idxs
    ]
    matrix = np.array(cols, dtype=object).T
    expected = np.array(
        [[0, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0, 0], [0, 3, 3, -4]], dtype=object
    )
    expected_sq = np.array(
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [12, -12, -12, 16]], dtype=object
    )
    ok = bool(np.array_equal(matrix, expected) and np.array_equal(matrix @ matrix, expected_sq))

    family = biharmonic_family((2, 1), -1)
    for weights in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [2, -1, 5]):
        t = combine(family, weights)
        c1, c2, c3 = t.get((0, 0)), t.get((0, 1)), t.get((1, 0))
        c4, c5, c6 = t.get((1, 1)), t.get((2, 0)), t.get((2, 1))
        ok &= c4 == 2 * c2 + c3 - 3 * c1
        ok &= 2 * c5 == 2 * c3 - 3 * c1
        ok &= 6 * c6 == 5 * c2 + 5 * c3 - 15 * c1
    verdict(
        "criterion 2",
        ok,
        f"tension-restriction matrix, its square, and the (2,1) coefficient "
        f"conditions match exactly ({time.time() - start:.2f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: coordinate operator relations at 100 points


def _coordinate_relation_residual(spec: GroupSpec, points, index_rng) -> float:
    ctx = context(spec)
    n, cols = spec.n, spec.ambient_dim
    worst = 0.0
    for m in points:
        j, k = index_rng.integers(0, n, size=2)
        a, b = index_rng.integers(0, cols, size=2)
        fj = LinearForm.coordinate(spec, j, a)
        fk = LinearForm.coordinate(spec, k, b)
        worst = max(
            worst,
            relative_residual(tension(fj, m, ctx), spec.eigenvalue * m[j, a]),
        )
        # unitary: kappa(z_ja, z_kb) = -z_ka z_jb; quaternionic: -1/2 of the
        # same row swap; orthogonal: the same with an affine delta term
        expected = spec.mu * m[k, a] * m[j, b]
        if spec.kind is GroupKind.SPECIAL_ORTHOGONAL and j == k and a == b:
            expected = spec.mu * (m[k, a] * m[j, b] - 1.0)
        worst = max(
            worst,
            relative_residual(conformality(fj, fk, m, ctx), expected),
        )
    return worst


def test_criterion_3_operator_relations():
    start = time.time()
    specs = [
        GroupSpec.unitary(2),
        GroupSpec.unitary(3),
        GroupSpec.unitary(4),
        GroupSpec.special_orthogonal(4),
        GroupSpec.special_orthogonal(5),
        GroupSpec.quaternionic_unitary(1),
        GroupSpec.quaternionic_unitary(2),
    ]
    worst = 0.0
    for i, spec in enumerate(specs):
        points = [sample_point(spec, 4000 + 100 * i + s) for s in range(100)]
        worst = max(
            worst,
            _coordinate_relation_residual(spec, points, np.random.default_rng(9 + i)),
        )
    ok = worst <= 1e-9
    verdict(
        "criterion 3",
        ok,
        f"coordinate tension/conformality relations and eigenvalues on "
        f"U(2..4), SO(4,5), Sp(1,2) at 100 points each, max residual "
        f"{worst:.2e} <= 1e-9 ({time.time() - start:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criteria 4 and 5 share the constructed candidates


def _group_configs():
    iso_p = np.array([1.0, 1.0j, 0.0, 0.0])
    iso_q = np.array([0.0, 0.0, 1.0, 1.0j])
    return [
        # (spec, family, degrees list)
        (
            GroupSpec.unitary(2),
            lambda spec: make_quadruple(spec, [1, 2], [3, 1j], [1, 1], [1, 1], beta=0),
            [(1,), (2,), (3,), (4,)],
        ),
        (
            GroupSpec.unitary(3),
            lambda spec: make_quadruple(
                spec, [1, 2, -1], [3, 1j, 0.5], [1, 1, 1], [1, 1, 1], beta=0
            ),
            [(1, 1), (2, 1)],
        ),
        (
            GroupSpec.special_orthogonal(4),
            lambda spec: make_quadruple(spec, iso_p, iso_q, [1, 1, 1, 1], [1, 1, 1, 1], beta=0),
            [(1,), (2,), (3,), (4,), (1, 1), (2, 1)],
        ),
        (
            GroupSpec.quaternionic_unitary(2),
            lambda spec: make_quadruple(
                spec, [1, 2], [1j, 1], [1, 1], [1, 0.5], beta=0, sp_choice=10
            ),
            [(1,), (2,), (3,), (4,), (1, 1), (2, 1)],
        ),
    ]


_CANDIDATES: list | None = None


def _constructed_candidates():
    global _CANDIDATES
    if _CANDIDATES is not None:
        return _CANDIDATES
    out = []
    seed = 5000
    for spec, builder, degree_lists in _group_configs():
        fam = builder(spec)
        mu = Fraction(spec.mu)
        for degrees in degree_lists:
            m = len(degrees)
            indices = fam.proper_indices[:m]
            pairs = [(fam.member_quotient(i), fam.member_tension(i)) for i in indices]
            proper, *harmonic = biharmonic_family(degrees, mu)
            phi = build_expression(proper, pairs)
            harmonics = [build_expression(t, pairs) for t in harmonic]
            guard = [phi, *harmonics, *(tf for _, tf in pairs)]
            points = sample_domain_points(guard, spec, 20, seed)
            seed += 100
            out.append(
                {
                    "spec": spec,
                    "degrees": degrees,
                    "mu": mu,
                    "table": proper,
                    "pairs": pairs,
                    "phi": phi,
                    "harmonics": harmonics,
                    "points": points,
                }
            )
    _CANDIDATES = out
    return out


def test_criterion_4_biharmonicity_end_to_end():
    start = time.time()
    worst_tau2 = 0.0
    worst_harmonic = 0.0
    weakest_witness = float("inf")
    for cand in _constructed_candidates():
        ctx = context(cand["spec"])
        checks = candidate_checks(cand["phi"], ctx, cand["points"], proper=True)
        by_name = {c.name: c for c in checks}
        worst_tau2 = max(worst_tau2, by_name["bitension"].max_residual)
        weakest_witness = min(weakest_witness, by_name["tension nonvanishing"].max_residual)
        assert all(c.passed for c in checks), (cand["spec"].code, cand["degrees"])
        for harmonic in cand["harmonics"]:
            hchecks = candidate_checks(harmonic, ctx, cand["points"], proper=False)
            worst_harmonic = max(worst_harmonic, hchecks[0].max_residual)
            assert hchecks[0].passed, (cand["spec"].code, cand["degrees"])
    verdict(
        "criterion 4",
        True,
        f"18 proper members across U(2)/U(3)/SO(4)/Sp(2), degrees 1..4 and "
        f"(1,1),(2,1): max |bitension| residual {worst_tau2:.2e} <= 1e-7, "
        f"tension witness >= {weakest_witness:.2e} (>= 1e-3), harmonic members "
        f"max |tension| {worst_harmonic:.2e} <= 1e-8 ({time.time() - start:.1f}s)",
    )


# Two fourth-order routes to the bitension differ by rounding, up to about
# 1e-10; a wrong expansion or jet differs at order one.
ROUTE_TOL = 1e-8


def oracle_equivalence_check(table, mu, pairs, phi, ctx, points) -> CheckResult:
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
    values, (_, via_expansion), _ = laplacian_jets([phi, tau_sym], points, ctx)
    scale = np.maximum.reduce([np.ones(len(points)), *np.abs(values), np.abs(via_expansion)])
    return CheckResult.upper(
        "bitension route equivalence", np.max(np.abs(direct - via_expansion) / scale), ROUTE_TOL
    )


def test_criterion_5_oracle_equivalence():
    start = time.time()
    worst = 0.0
    for cand in _constructed_candidates():
        ctx = context(cand["spec"])
        check = oracle_equivalence_check(
            cand["table"],
            cand["mu"],
            cand["pairs"],
            cand["phi"],
            ctx,
            cand["points"][:10],
        )
        worst = max(worst, check.max_residual)
        assert check.passed, (cand["spec"].code, cand["degrees"], check.max_residual)
    verdict(
        "criterion 5",
        True,
        f"nested-jet bitension matches the symbolic expansion route on all "
        f"constructed members, max residual {worst:.2e} <= 1e-8 "
        f"({time.time() - start:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 6: harmonic morphisms


def test_criterion_6_harmonic_morphisms():
    start = time.time()
    worst = 0.0
    # orthogonal column-ratio families on U(3) and U(4)
    for n, seed in ((3, 6000), (4, 6100)):
        spec = GroupSpec.unitary(n)
        ctx = context(spec)
        rng = np.random.default_rng(seed)
        q = rng.normal(size=n) + 1j * rng.normal(size=n)
        family = column_ratio_family(q, spec, beta=0)
        points = sample_domain_points(family, spec, 20, seed)
        for point in points:
            for i, phi in enumerate(family):
                value = phi.evaluate(point)
                worst = max(worst, abs(tension(phi, point, ctx)) / max(1.0, abs(value)))
                for j in range(i, len(family)):
                    worst = max(
                        worst, abs(conformality(phi, family[j], point, ctx))
                    )
    # eigenfamily constants for k in {1,2,3} and rational combinations
    spec = GroupSpec.unitary(3)
    ctx = context(spec)
    fam = make_quadruple(spec, [1, 2, -1], [3, 1j, 0.5], [1, 1, 1], [1, 1, 1], beta=0)
    const_worst = 0.0
    for k in (1, 2, 3):
        members = tension_power_family(fam, k)
        lam, kap = eigenfamily_constants(spec.mu, k)
        assert (lam, kap) == (2 * spec.mu * k * (k - 1), 2 * spec.mu * k * k)
        points = sample_domain_points(members, spec, 20, 6200 + k)
        for m in points:
            values = [e.evaluate(m) for e in members]
            for i, e in enumerate(members):
                const_worst = max(
                    const_worst,
                    relative_residual(tension(e, m, ctx), lam * values[i]),
                )
                for j in range(i, len(members)):
                    const_worst = max(
                        const_worst,
                        relative_residual(
                            conformality(e, members[j], m, ctx),
                            kap * values[i] * values[j],
                        ),
                    )
    members = tension_power_family(fam, 1)[:2]
    for num, den in (({(1, 0): 1.0}, {(0, 1): 1.0}), ({(2, 0): 1.0}, {(1, 1): 1.0})):
        morphism = rational_morphism(members, num, den)
        points = sample_domain_points([morphism], spec, 20, 6300)
        for point in points:
            value = morphism.evaluate(point)
            worst = max(worst, abs(tension(morphism, point, ctx)) / max(1.0, abs(value)))
            worst = max(
                worst,
                abs(conformality(morphism, morphism, point, ctx))
                / max(1.0, abs(value) ** 2),
            )
    ok = worst <= 1e-8 and const_worst <= 1e-9
    verdict(
        "criterion 6",
        ok,
        f"orthogonal families on U(3)/U(4) and rational eigenfamily quotients: "
        f"morphism residuals {worst:.2e} <= 1e-8; eigenfamily constants for "
        f"k=1,2,3 confirmed to {const_worst:.2e} <= 1e-9 ({time.time() - start:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 7: classification consistency


def _isotropic_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    u = rng.normal(size=n)
    v = rng.normal(size=n)
    v -= u * (u @ v) / (u @ u)
    return u / np.linalg.norm(u) + 1j * v / np.linalg.norm(v)


def _cvec(rng: np.random.Generator, size) -> np.ndarray:
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _orthogonal_to(v: np.ndarray):
    """The projection x -> x - conj(v) (v,x) / (v,conj(v)) onto the vectors
    bilinearly orthogonal to v."""
    pivot = np.conj(v)
    return lambda x: x - pivot * (np.sum(v * x) / np.sum(v * pivot))


def _generic_weights(spec: GroupSpec, rng: np.random.Generator) -> np.ndarray:
    """Column weights a, on SO(n) with (a,a) kept away from 0."""
    while True:
        a = _cvec(rng, spec.ambient_dim)
        if spec.kind is not GroupKind.SPECIAL_ORTHOGONAL or abs(np.sum(a * a)) > 0.1:
            return a


def _triple(spec: GroupSpec, case: int, rng: np.random.Generator):
    """One seeded (M_P, q, a) triple of the requested classification case.

    On SO(n) the delta-term cancellations require q isotropic and every
    column of M_P bilinearly orthogonal to q (the rows alternative); a
    keeps (a,a) != 0.
    """
    n, cols = spec.n, spec.ambient_dim
    if spec.kind is GroupKind.SPECIAL_ORTHOGONAL:
        q = _isotropic_vector(rng, n)
        admissible = _orthogonal_to(q)
    else:
        q = _cvec(rng, n)

        def admissible(col):
            return col

    a = _generic_weights(spec, rng)
    if case == 0:  # columns of M_P proportional to q
        m_p = np.outer(q, _cvec(rng, cols))
    elif case == 1:  # single shared column
        support = int(rng.integers(0, cols))
        a = np.zeros(cols, dtype=complex)
        a[support] = 1.0 + rng.normal()
        m_p = np.zeros((n, cols), dtype=complex)
        m_p[:, support] = admissible(_cvec(rng, n))
    else:
        m_p = np.column_stack([admissible(_cvec(rng, n)) for _ in range(cols)])
    return m_p, q, a


def _spread_case_ii_triple(spec: GroupSpec, rng: np.random.Generator):
    """Case II with a nonzero in every column: M_P = c (x) a.  On SO(n), q
    is isotropic and c bilinearly orthogonal to q, so M_P^T q = 0."""
    if spec.kind is GroupKind.SPECIAL_ORTHOGONAL:
        q = _isotropic_vector(rng, spec.n)
        c = _orthogonal_to(q)(_cvec(rng, spec.n))
    else:
        q, c = _cvec(rng, spec.n), _cvec(rng, spec.n)
    a = _generic_weights(spec, rng)
    return np.outer(c, a), q, a


def _so_columns_triple(spec: GroupSpec, case: int, rng: np.random.Generator):
    """An SO(n) triple under the columns alternative: a isotropic, every
    row of M_P bilinearly orthogonal to a (M_P a = 0), and q generic."""
    n = spec.n
    a = _isotropic_vector(rng, n)
    admissible = _orthogonal_to(a)
    q = _cvec(rng, n)
    if case == 0:  # columns of M_P proportional to q
        m_p = np.outer(q, admissible(_cvec(rng, n)))
    elif case == 1:  # rows of M_P proportional to a
        m_p = np.outer(_cvec(rng, n), a)
    else:
        m_p = np.array([admissible(_cvec(rng, n)) for _ in range(n)])
    return m_p, q, a


def test_criterion_7_classification_consistency():
    start = time.time()
    specs = [
        GroupSpec.unitary(3),
        GroupSpec.special_orthogonal(4),
        GroupSpec.quaternionic_unitary(2),
    ]
    cases = [
        Classification.HarmonicCaseI,
        Classification.HarmonicCaseII,
        Classification.ProperBiharmonic,
    ]
    # (spec, triple, expected verdict, sampling seed)
    draws = []
    for spec_i, spec in enumerate(specs):
        rng = np.random.default_rng(7000 + spec_i)
        for trial in range(50):
            case = trial % 3
            draws.append((spec, _triple(spec, case, rng), cases[case], 7100 + 50 * spec_i + trial))
    # Case II spread over every column, on each group
    for spec_i, spec in enumerate(specs):
        rng = np.random.default_rng(7300 + spec_i)
        for trial in range(10):
            draws.append((spec, _spread_case_ii_triple(spec, rng), cases[1], 7300 + 10 * spec_i + trial))
    # all three cases on SO(4) under the columns alternative
    rng = np.random.default_rng(7400)
    for trial in range(30):
        case = trial % 3
        draws.append((specs[1], _so_columns_triple(specs[1], case, rng), cases[case], 7400 + trial))
    checked = 0
    for spec, (m_p, q, a), expected, seed in draws:
        ctx = context(spec)
        got = classify(m_p, q, a, spec)
        assert got is expected, (spec.code, seed, got)
        f = Quotient(
            dense_form(spec, m_p),
            LinearForm(spec, q, a),
        )
        points = sample_domain_points([f], spec, 4, seed)
        taus = []
        for point in points:
            value = f.evaluate(point)
            taus.append(abs(tension(f, point, ctx)) / max(1.0, abs(value)))
        if got is Classification.ProperBiharmonic:
            assert max(taus) > 1e-9, (spec.code, seed)
            for point in points[:2]:
                value = f.evaluate(point)
                tau = tension(f, point, ctx)
                scale = max(1.0, abs(value), abs(tau))
                assert abs(tension2(f, point, ctx)) <= 1e-7 * scale, (spec.code, seed)
        else:
            assert max(taus) <= 1e-9, (spec.code, seed, max(taus))
        checked += 1
    verdict(
        "criterion 7",
        checked == 210,
        f"structural classification matches tension/bitension behaviour on "
        f"{checked} seeded triples across U(3), SO(4), Sp(2) "
        f"({time.time() - start:.1f}s)",
    )
