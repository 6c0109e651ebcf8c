"""Operator identities that hold for arbitrary expressions.

The product rule, the conformality expansion, and the two quotient
formulas are universal consequences of the chain rule, so they are
exercised on random expressions over general (not rank-one) linear
forms, on all three groups.
"""

import hashlib
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from biforge.algebra import PackedJet, PackedPoint, translate
from biforge.construct import biharmonic_family, build_expression, column_ratio_family, combine, tension_power_family
from biforge.errors import DomainError, ShapeError
from biforge.forms import Const, LinearForm, Product, Quotient, RationalExpr, Sum
from biforge.groups import GroupSpec, sample_point
from biforge import operators
from biforge.operators import (
    OperatorContext,
    bitension_jets,
    conformality,
    context,
    _coefficients,
    _outer_stack,
    laplacian_jets,
    relative_residual,
    tension,
    tension2,
)
from biforge.verify import eigenfamily_checks, quadruple_checks, sample_domain_points
from biforge.forms import make_quadruple
from form_helpers import dense_form
from reference import basis

U2 = GroupSpec.unitary(2)
U3 = GroupSpec.unitary(3)
SO4 = GroupSpec.special_orthogonal(4)
SP2 = GroupSpec.quaternionic_unitary(2)
# every supported algebra of each family up to rank 8, 10 and 5
WALK_SPECS = [
    *(GroupSpec.unitary(n) for n in range(2, 9)),
    *(GroupSpec.special_orthogonal(n) for n in range(4, 11)),
    *(GroupSpec.quaternionic_unitary(n) for n in range(1, 6)),
]


def random_form(spec, rng):
    shape = (spec.n, spec.ambient_dim)
    return dense_form(spec, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def random_exprs(spec, rng):
    a, b, c = (random_form(spec, rng) for _ in range(3))
    return [
        Sum((a, Product((Const(0.7 - 0.2j), b)))),
        Product((a, b)),
        Sum((a, Const(2.0))) ** 2,
        Quotient(b, Sum((c**2, Const(5.0)))),
        Sum((Product((a, c)), Const(1.5), b**3)),
    ]


@pytest.mark.parametrize("spec", [U3, SO4, SP2], ids=lambda s: f"{s.code}{s.n}")
def test_product_rule(ctx_for, spec):
    # tau(f h) = tau(f) h + 2 kappa(f, h) + f tau(h)
    rng = np.random.default_rng(17)
    ctx = ctx_for(spec)
    exprs = random_exprs(spec, rng)
    points = sample_domain_points(exprs, spec, 5, 2000)
    for f in exprs[:3]:
        for h in exprs[2:]:
            fh = Product((f, h))
            for m in points:
                lhs = tension(fh, m, ctx)
                rhs = (
                    tension(f, m, ctx) * h.evaluate(m)
                    + 2 * conformality(f, h, m, ctx)
                    + f.evaluate(m) * tension(h, m, ctx)
                )
                assert relative_residual(lhs, rhs) <= 1e-9


@pytest.mark.parametrize("spec", [U3, SO4, SP2], ids=lambda s: f"{s.code}{s.n}")
def test_conformality_four_term_expansion(ctx_for, spec):
    # kappa(f f~, h h~) expands into four weighted conformality terms
    rng = np.random.default_rng(19)
    ctx = ctx_for(spec)
    f, ft, h, ht = (random_form(spec, rng) for _ in range(4))
    points = [sample_point(spec, 2100 + i) for i in range(5)]
    for m in points:
        fv, ftv, hv, htv = (e.evaluate(m) for e in (f, ft, h, ht))
        lhs = conformality(Product((f, ft)), Product((h, ht)), m, ctx)
        rhs = (
            ftv * htv * conformality(f, h, m, ctx)
            + ftv * hv * conformality(f, ht, m, ctx)
            + fv * htv * conformality(ft, h, m, ctx)
            + fv * hv * conformality(ft, ht, m, ctx)
        )
        assert relative_residual(lhs, rhs) <= 1e-9


def test_conformality_symmetric_exactly(ctx_for):
    rng = np.random.default_rng(23)
    ctx = ctx_for(U3)
    f, h = (random_form(U3, rng) for _ in range(2))
    for i in range(5):
        point = sample_point(U3, 2200 + i)
        assert conformality(f, h, point, ctx) == conformality(h, f, point, ctx)


@pytest.mark.parametrize("spec", [U3, SO4, SP2], ids=lambda s: f"{s.code}{s.n}")
def test_quotient_formulas(ctx_for, spec):
    # Q^4 kappa(f,f) = Q^2 kappa(P,P) - 2PQ kappa(P,Q) + P^2 kappa(Q,Q)
    # Q^3 tau(f) = Q^2 tau(P) - 2Q kappa(P,Q) + 2P kappa(Q,Q) - PQ tau(Q)
    rng = np.random.default_rng(29)
    ctx = ctx_for(spec)
    p_form = random_form(spec, rng)
    q_form = random_form(spec, rng)
    f = Quotient(p_form, q_form)
    points = sample_domain_points([f], spec, 6, 2300)
    for m in points:
        pv, qv = p_form.evaluate(m), q_form.evaluate(m)
        kpp = conformality(p_form, p_form, m, ctx)
        kpq = conformality(p_form, q_form, m, ctx)
        kqq = conformality(q_form, q_form, m, ctx)
        lhs_kappa = qv**4 * conformality(f, f, m, ctx)
        rhs_kappa = qv**2 * kpp - 2 * pv * qv * kpq + pv**2 * kqq
        assert relative_residual(lhs_kappa, rhs_kappa) <= 1e-9
        lhs_tau = qv**3 * tension(f, m, ctx)
        rhs_tau = (
            qv**2 * tension(p_form, m, ctx)
            - 2 * qv * kpq
            + 2 * pv * kqq
            - pv * qv * tension(q_form, m, ctx)
        )
        assert relative_residual(lhs_tau, rhs_tau) <= 1e-9


def test_tension_of_constant_and_kappa_with_constant(ctx_for):
    ctx = ctx_for(U3)
    point = sample_point(U3, 2400)
    c = Const(3.0 - 2.0j)
    h = LinearForm.coordinate(U3, 0, 0)
    assert abs(tension(c, point, ctx)) == 0
    assert abs(conformality(h, c, point, ctx)) == 0


def test_eigen_check_pass_and_fail(ctx_for, points_for):
    def eigen_tension(h, eigenvalue, points, ctx):
        checks = eigenfamily_checks(laplacian_jets([h], points, ctx), eigenvalue, 0.0)
        return next(c for c in checks if c.name == "eigenfamily tension")

    z11 = LinearForm.coordinate(U3, 0, 0)
    ctx = ctx_for(U3)
    points = points_for(U3, 10, 2500)
    assert eigen_tension(z11, -3.0, points, ctx).passed
    assert not eigen_tension(z11, -2.0, points, ctx).passed
    w12 = LinearForm.coordinate(SP2, 0, 3)
    ctx_sp = ctx_for(SP2)
    assert eigen_tension(w12, -2.5, points_for(SP2, 10, 2600), ctx_sp).passed


def test_tension2_squares_the_eigenvalue(ctx_for, points_for):
    z = LinearForm.coordinate(U3, 1, 2)
    ctx = ctx_for(U3)
    for point in points_for(U3, 5, 2700):
        expected = 9 * z.evaluate(point)
        assert relative_residual(tension2(z, point, ctx), expected) <= 1e-12


def test_tension2_of_harmonic_member_vanishes(ctx_for):
    family = column_ratio_family([1.0, 0.5j, 2.0], U3, beta=0)
    ctx = ctx_for(U3)
    points = sample_domain_points(family, U3, 5, 2800)
    for member in family:
        for point in points:
            value = member.evaluate(point)
            assert abs(tension2(member, point, ctx)) <= 1e-8 * max(1.0, abs(value))


def test_tension2_proper_biharmonic_member(ctx_for):
    # degree-2 proper combination on a generic quadruple: zero bitension,
    # visibly nonzero tension
    fam = make_quadruple(U3, [1, 2, -1], [3, 1j, 0.5], [1, 1, 1], [1, 1, 1], beta=0)
    i = fam.proper_indices[0]
    pairs = [(fam.member_quotient(i), fam.member_tension(i))]
    table = combine(biharmonic_family((2,), -1), [4, 0])
    phi = build_expression(table, pairs)
    ctx = ctx_for(U3)
    points = sample_domain_points([phi, pairs[0][1]], U3, 5, 2900)
    saw_tension = 0.0
    for point in points:
        value = phi.evaluate(point)
        tau = tension(phi, point, ctx)
        saw_tension = max(saw_tension, abs(tau) / max(1.0, abs(value)))
        assert abs(tension2(phi, point, ctx)) <= 1e-7 * max(1.0, abs(value), abs(tau))
    assert saw_tension >= 1e-3


def test_bracket_correction_path(monkeypatch):
    # non-normal elements of sl(2): their [Z, Z*] would add a first-order
    # correction to the tension, so the context refuses them
    elements = [
        ("n+", (0,), (1,), (1.0,)),
        ("n-", (1,), (0,), (1.0,)),
        ("h", (0, 1), (0, 1), (1 / np.sqrt(2), -1 / np.sqrt(2))),
    ]
    monkeypatch.setattr("biforge.operators.basis_entries", lambda spec: iter(elements))
    with pytest.raises(ShapeError, match="n\\+"):
        OperatorContext.for_spec(U2)


@pytest.mark.parametrize("rows, cols", [((0, 0), (0, 1)), ((0, 1), (1, 1))], ids=["row", "column"])
def test_two_nonzeros_in_one_row_are_refused(monkeypatch, rows, cols):
    # the context keeps each element as one column and one value per row,
    # so an element with two nonzeros in a row or a column has no compact form
    element = ("two", rows, cols, (1j, 1j))
    monkeypatch.setattr("biforge.operators.basis_entries", lambda spec: iter([element]))
    with pytest.raises(ShapeError, match="two has two nonzeros"):
        OperatorContext.for_spec(U2)


def test_element_without_involutive_pattern_is_refused(monkeypatch):
    # a 3-cycle is normal and its square, the other 3-cycle, has one
    # nonzero per row, but its column c holds its nonzero in row c - 1, not
    # in row cols[c] = c + 1, so an outer layer of it has no gather form
    elements = [("cycle", (0, 1, 2), (1, 2, 0), (1, 1, 1))]
    monkeypatch.setattr("biforge.operators.basis_entries", lambda spec: iter(elements))
    with pytest.raises(ShapeError, match="basis element cycle is not an involutive pattern"):
        OperatorContext.for_spec(U3)


def test_involutive_element_with_unequal_moduli_is_refused(monkeypatch):
    # the pattern is an involution, but row 0 holds 1 and column 0 holds 2,
    # so [Z, Z*] = diag(1 - 4, 4 - 1) != 0 and the tension would need a
    # first-order term; a normal element before it does not hide it
    elements = [("iD1", (0,), (0,), (1j,)), ("skew", (0, 1), (1, 0), (1.0, 2.0))]
    monkeypatch.setattr("biforge.operators.basis_entries", lambda spec: iter(elements))
    with pytest.raises(ShapeError, match=r"basis element skew is not normal: \[Z, Z\*\] != 0"):
        OperatorContext.for_spec(U2)


def test_refusals_name_the_first_failing_element(monkeypatch):
    # each refusal fires at the first element, in basis order, that breaks
    # its rule, so a later element that breaks an earlier rule is not named
    cycle = ("cycle", (0, 1, 2), (1, 2, 0), (1, 1, 1))
    skew = ("skew", (0, 1), (1, 0), (1.0, 2.0))
    two = ("two", (0, 0), (0, 1), (1j, 1j))
    cases = [([skew, cycle], "skew"), ([cycle, skew], "cycle"), ([skew, two], "skew"), ([two, cycle], "two")]
    for elements, name in cases:
        monkeypatch.setattr("biforge.operators.basis_entries", lambda spec: iter(elements))
        with pytest.raises(ShapeError, match=f"basis element {name} "):
            OperatorContext.for_spec(U3)


@pytest.mark.parametrize("spec", WALK_SPECS, ids=lambda s: f"{s.code}{s.n}")
def test_standard_bases_have_involutive_patterns(spec):
    # the context refuses any other basis, so every supported one passes:
    # each element's pattern, and H's, is its own inverse
    cols = OperatorContext.for_spec(spec).cols
    assert np.array_equal(np.take_along_axis(cols, cols, axis=1), np.broadcast_to(np.arange(spec.ambient_dim), cols.shape))


def test_context_bytes_are_pinned():
    # the compact basis and H, byte for byte, on every algebra up to su(16),
    # so(14) and sp(8): a change in how the context is built may not move
    # a single bit of what the walks read
    specs = [
        *(GroupSpec.unitary(n) for n in range(2, 17)),
        *(GroupSpec.special_orthogonal(n) for n in range(4, 15)),
        *(GroupSpec.quaternionic_unitary(n) for n in range(1, 9)),
    ]
    digest = hashlib.sha256()
    for spec in specs:
        ctx = OperatorContext.for_spec(spec)
        digest.update(ctx.cols.tobytes())
        digest.update(ctx.vals.tobytes())
    assert digest.hexdigest() == "627ef1d4d8ea5094739939df086825f42a686ad221ed1694561adc2efae52309"


def test_shared_context_is_read_only():
    # context(spec) hands one context to every caller in the process, so
    # none of them may write into it
    ctx = context(U3)
    with pytest.raises(ValueError, match="read-only"):
        ctx.vals[0, 0] = 2
    with pytest.raises(ValueError, match="read-only"):
        ctx.cols[0, 0] = 1
    assert ctx.vals[0, 0] == 1 and ctx.cols[0, 0] == 0


def dense_extended(ctx):
    """The (|B| + 2, N, N) stack E that the compact (cols, vals) stands for."""
    count, n = ctx.cols.shape
    dense = np.zeros((count, n, n), dtype=complex)
    dense[np.arange(count)[:, None], np.arange(n), ctx.cols] = ctx.vals
    return dense


def dense_layers(outer):
    """The (K, N, N) stack that a walk's compact layers (index, weights)
    stand for: layer k holds weights[k, c] at (index[k, c], c)."""
    index, weights = outer
    count, n = index.shape
    dense = np.zeros((count, n, n), dtype=complex)
    dense[np.arange(count)[:, None], index, np.arange(n)] = weights
    return dense


def test_standard_bases_have_no_corrections():
    # every standard basis passes the context's [Z, Z*] = 0 check; the
    # context keeps E = [I, Z_1 .. Z_|B|, H] with H = sum_b Z_b^2 / 2, each
    # E_e as a permutation of columns and one value per row
    for spec in (U3, SO4, SP2):
        ctx = OperatorContext.for_spec(spec)
        elements = basis(spec)
        n = spec.ambient_dim
        assert spec.dimension == len(elements)
        assert ctx.cols.shape == ctx.vals.shape == (len(elements) + 2, n)
        assert np.array_equal(np.sort(ctx.cols, axis=1), np.broadcast_to(np.arange(n), ctx.cols.shape))
        extended = dense_extended(ctx)
        assert np.array_equal(extended[0], np.eye(n))
        for z, e in zip(extended[1:-1], elements):
            assert np.array_equal(z, e.matrix)
        half_sum = sum(0.5 * (e.matrix @ e.matrix) for e in elements)
        assert np.allclose(extended[-1], half_sum, rtol=0, atol=1e-15)


def _quadruple(spec, sp_choice=None):
    # a quadruple family from seeded vectors (isotropic rows on SO(n))
    rng = np.random.default_rng(31)
    n = spec.n
    if spec.code == "so":
        u1, v1, u2, v2 = np.linalg.qr(rng.normal(size=(n, 4)))[0].T
        p, q = u1 + 1j * v1, u2 + 1j * v2
    else:
        p, q = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    a, b = (rng.uniform(0.5, 1.5, size=n) * np.exp(2j * np.pi * rng.uniform(size=n)) for _ in range(2))
    return make_quadruple(spec, p, q, a, b, sp_choice=sp_choice)


def _member_and_candidate(spec, sp_choice=None):
    # the first proper member f = P/Q of the quadruple family and the
    # degree-2 proper biharmonic candidate built from it
    fam = _quadruple(spec, sp_choice)
    i = fam.proper_indices[0]
    pairs = [(fam.member_quotient(i), fam.member_tension(i))]
    table = combine(biharmonic_family((2,), Fraction(spec.mu)), [4, 0])
    return pairs[0][0], pairs[0][1], build_expression(table, pairs)


def _assert_sum_matches(batched, summands):
    # relative to the sum of |summands|: a biharmonic tension2 is a sum of
    # large terms that cancel
    assert abs(batched - sum(summands)) <= 1e-12 * max(1.0, sum(abs(t) for t in summands))


@pytest.mark.parametrize(
    "spec, sp_choice",
    [(U3, None), (GroupSpec.unitary(6), None), (GroupSpec.special_orthogonal(8), None),
     (GroupSpec.quaternionic_unitary(4), 10)],
    ids=["su3", "su6", "so8", "sp4-choice10"],
)
def test_batched_operators_match_per_element_reference(ctx_for, spec, sp_choice):
    # the operators take every point and every basis direction at once; the
    # reference translates one point along one element at a time with Jet2
    # and sums in a Python loop
    ctx = ctx_for(spec)
    f, tau_f, phi = _member_and_candidate(spec, sp_choice)
    directions = [(e.matrix, 0.5 * (e.matrix @ e.matrix)) for e in basis(spec)]
    stack = sample_domain_points([phi, tau_f], spec, 3, 3100)
    taus = {id(h): tension(h, stack, ctx) for h in (f, phi)}
    kappas = conformality(f, tau_f, stack, ctx)
    bitensions = tension2(phi, stack, ctx)
    for h in (f, phi):
        assert taus[id(h)].shape == (3,)
    assert kappas.shape == bitensions.shape == (3,)
    for k, base in enumerate(stack):
        for h in (f, phi):
            _assert_sum_matches(
                taus[id(h)][k], [2 * h.evaluate(translate(base, z, zh)).a2 for z, zh in directions]
            )
        kappa = []
        for z, zh in directions:
            jm = translate(base, z, zh)
            kappa.append(f.evaluate(jm).a1 * tau_f.evaluate(jm).a1)
        _assert_sum_matches(kappas[k], kappa)
    base = stack[0]
    _assert_sum_matches(
        bitensions[0],
        [4 * phi.evaluate(translate(translate(base, w, wh), z, zh)).a2.a2
         for w, wh in directions for z, zh in directions],
    )


class DensePoint:
    """A packed walk's start with the dense stack E = [I, Z_1 .. Z_|B|, H]
    built from ``basis(spec)``: the reference the compact basis replaces."""

    def __init__(self, layers, extended):
        self.layers, self.extended = layers, extended


def dense_extended_from_basis(spec):
    elements = [e.matrix for e in basis(spec)]
    half_sum = sum(0.5 * (z @ z) for z in elements)
    return np.stack([np.eye(spec.ambient_dim, dtype=complex), *elements, half_sum])


def dense_leaf(form, point):
    # <X[:n]^T C, E_e> for every layer X and every e
    weights = point.layers[..., : form.spec.n, :].swapaxes(-1, -2) @ form.coeffs
    return PackedJet(np.einsum("pkij,eij->pke", weights, point.extended))


def dense_tension2(h, stack, extended):
    # one outer direction W per walk, layers [p, pW, pW^2/2] by dense products
    total = np.zeros(len(stack), dtype=complex)
    for w in extended[1:-1]:
        moved = stack @ w
        total += 4 * h.evaluate(DensePoint(np.stack([stack, moved, 0.5 * (moved @ w)], axis=1), extended)).c[:, 2, -1]
    return total


@pytest.fixture
def dense_leaves(monkeypatch):
    # forms evaluate a DensePoint by the dense reference, anything else as usual
    evaluate = LinearForm.evaluate
    monkeypatch.setattr(
        LinearForm, "evaluate",
        lambda self, point: dense_leaf(self, point) if isinstance(point, DensePoint) else evaluate(self, point),
    )


# float64 sums of a few dozen terms, each rounded once or twice
REFERENCE_TOL = 1e-13
REFERENCE_FAMILIES = [(GroupSpec.unitary(4), None), (GroupSpec.special_orthogonal(6), None), (SP2, 10)]
REFERENCE_IDS = ["su4", "so6", "sp2-choice10"]


def _assert_matches_reference(value, reference):
    assert np.all(np.abs(value - reference) <= REFERENCE_TOL * np.maximum(1.0, np.abs(reference)))


@pytest.mark.parametrize("spec, sp_choice", REFERENCE_FAMILIES, ids=REFERENCE_IDS)
def test_packed_leaves_match_dense_reference(ctx_for, dense_leaves, spec, sp_choice, rng):
    # every form of a quadruple family, each rank one, and a general form
    # (a sum of per-row forms) on points moved along outer directions
    ctx = ctx_for(spec)
    extended = dense_extended_from_basis(spec)
    fam = _quadruple(spec, sp_choice)
    stack = np.array([sample_point(spec, 3600 + i) for i in range(3)])
    # one outer direction, and two in the collapsed outer algebra, whose
    # last layer is the sum of the halved squares, as the walks build them;
    # the reference moves the points by the dense products
    middle = len(extended) // 2
    w, w2 = extended[middle], extended[1:3]
    half_squares = 0.5 * (w @ w), sum(0.5 * (x @ x) for x in w2)
    walks = [
        (PackedPoint(stack, ctx.cols, ctx.vals), stack[:, None]),
        (PackedPoint(stack, ctx.cols, ctx.vals, _outer_stack(ctx, middle, middle + 1)),
         np.stack([stack, stack @ w, stack @ half_squares[0]], axis=1)),
        (PackedPoint(stack, ctx.cols, ctx.vals, _outer_stack(ctx, 1, 3)),
         np.stack([stack, stack @ w2[0], stack @ w2[1], stack @ half_squares[1]], axis=1)),
    ]
    for walk, layers in walks:
        for form in [*fam.all_forms(), random_form(spec, rng)]:
            _assert_matches_reference(form.evaluate(walk).c, form.evaluate(DensePoint(layers, extended)).c)


@pytest.mark.parametrize("spec, sp_choice", REFERENCE_FAMILIES, ids=REFERENCE_IDS)
def test_tension2_matches_dense_reference(ctx_for, dense_leaves, rng, spec, sp_choice):
    # walks packed with outer directions on the compact basis, against one
    # per walk on the dense stack; a member quotient is biharmonic, so its
    # square (rank-one forms) and a quotient of general forms are used
    ctx = ctx_for(spec)
    extended = dense_extended_from_basis(spec)
    fam = _quadruple(spec, sp_choice)
    exprs = [fam.member_quotient(fam.proper_indices[0]) ** 2, random_exprs(spec, rng)[3]]
    stack = sample_domain_points(exprs, spec, 3, 3700)
    for h in exprs:
        _assert_matches_reference(tension2(h, stack, ctx), dense_tension2(h, stack, extended))


@pytest.mark.parametrize(
    "spec, sp_choice, shapes",
    [(U3, None, [(3, 11)]), (GroupSpec.quaternionic_unitary(4), 10, [(3, 6)] * 9)],
    ids=["su3", "sp4"],
)
def test_tension2_walks_fit_the_algebra(ctx_for, dense_leaves, monkeypatch, spec, sp_choice, shapes):
    # su(3) has |B| = 9 directions, 11 jet columns: all nine fit one walk
    # (K = 11); sp(4) has |B| = 36, and four directions (K = 6, 228
    # entries per point) fit the width of 240 where five would not, the
    # floor of four
    fam = _quadruple(spec, sp_choice)
    h = fam.member_quotient(fam.proper_indices[0]) ** 2
    stack = sample_domain_points([h], spec, 3, 3800)
    reference = dense_tension2(h, stack, dense_extended_from_basis(spec))
    walks = []
    evaluate = RationalExpr.evaluate
    monkeypatch.setattr(RationalExpr, "evaluate", lambda self, point: walks.append(point) or evaluate(self, point))
    value = tension2(h, stack, ctx_for(spec))
    assert [walk.shape[:2] for walk in walks] == shapes
    _assert_matches_reference(value, reference)


@pytest.mark.parametrize("spec", WALK_SPECS, ids=lambda s: f"{s.code}{s.n}")
def test_bitension_walks_cover_the_basis_within_the_walk_width(monkeypatch, spec):
    # a walk's jets hold K (|B| + 2) complex entries per point: at most
    # the width of four directions or 240, whichever is more.  Every walk
    # but the last carries at least four directions and as many as that
    # bound allows, and the walks take every direction once, in order
    ctx = OperatorContext.for_spec(spec)
    columns = len(ctx.cols)
    walks = []
    packed_point = operators.PackedPoint
    monkeypatch.setattr(operators, "PackedPoint", lambda *a: walks.append(packed_point(*a)) or walks[-1])
    bitension_jets(Const(1.0), np.eye(spec.ambient_dim, dtype=complex)[None], ctx)
    bound = max(6 * columns, 240)
    directions = [len(walk.outer[0]) - 2 for walk in walks]
    assert [walk.shape for walk in walks] == [(1, d + 2, columns) for d in directions]
    assert all((d + 2) * columns <= bound for d in directions)
    assert all(d >= 4 and (d + 3) * columns > bound for d in directions[:-1])
    assert 0 < directions[-1] <= directions[0]
    layers = np.concatenate([dense_layers(walk.outer)[1:-1] for walk in walks])
    assert np.array_equal(layers, dense_extended(ctx)[1:-1])


@pytest.mark.parametrize(
    "spec", [U3, GroupSpec.special_orthogonal(5), SP2], ids=["su3", "so5", "sp2"]
)
def test_outer_stack_squares_match_dense_products(spec):
    # the compact layers (index, weights) of each basis element stand for
    # the dense [I, W, W**2 / 2], W**2 the dense product
    ctx = OperatorContext.for_spec(spec)
    extended = dense_extended(ctx)
    for e in range(1, len(extended) - 1):
        w = extended[e]
        assert np.array_equal(dense_layers(_outer_stack(ctx, e, e + 1)), np.stack([np.eye(len(w)), w, 0.5 * (w @ w)]))
    # a stack of several directions, four at a time here, sums their
    # halved squares last
    for first in range(1, len(extended) - 1, 4):
        directions = extended[first : min(first + 4, len(extended) - 1)]
        stack = dense_layers(_outer_stack(ctx, first, first + len(directions)))
        assert np.array_equal(stack[1:-1], directions)
        assert np.array_equal(stack[-1], sum(0.5 * (w @ w) for w in directions))


@pytest.mark.parametrize(
    "spec", [U3, GroupSpec.special_orthogonal(5), SP2], ids=["su3", "so5", "sp2"]
)
def test_row_weights_gather_equals_product_with_dense_layers(spec, rng):
    # u^T p[:n] times each layer, gathered from the compact layers, is bit
    # for bit its product with the dense layer: each column has one
    # nonzero, purely real or purely imaginary, so both round it once
    ctx = OperatorContext.for_spec(spec)
    stack = np.array([sample_point(spec, 3650 + i) for i in range(3)])
    u = rng.normal(size=spec.n) + 1j * rng.normal(size=spec.n)
    r = (u[None] @ stack[:, : spec.n])[:, None]
    for first in range(1, len(ctx.cols) - 1, 3):
        outer = _outer_stack(ctx, first, min(first + 3, len(ctx.cols) - 1))
        weights = PackedPoint(stack, ctx.cols, ctx.vals, outer).row_weights(u)
        assert weights.shape == (len(stack), len(outer[0]), 1, spec.ambient_dim)
        assert np.array_equal(weights, r @ dense_layers(outer))


def test_single_point_and_stack_contract(ctx_for):
    # a matrix gives a complex; a stack gives one entry per point, equal to
    # the single calls
    spec = GroupSpec.special_orthogonal(8)
    ctx = ctx_for(spec)
    f, tau_f, phi = _member_and_candidate(spec)
    stack = sample_domain_points([phi, tau_f], spec, 3, 3200)
    operators = [
        lambda x: tension(phi, x, ctx),
        lambda x: conformality(f, tau_f, x, ctx),
        lambda x: tension2(phi, x, ctx),
    ]
    for op in operators:
        batched = op(stack)
        assert batched.shape == (3,)
        for k, point in enumerate(stack):
            single = op(point)
            assert type(single) is complex
            assert abs(single - batched[k]) <= 1e-14 * max(1.0, abs(single))


def test_batch_with_one_point_on_the_denominator_zero_raises(ctx_for):
    # one matrix of the batch lies on Q = 0: the whole walk is refused
    ctx = ctx_for(U3)
    q_form = LinearForm.coordinate(U3, 0, 0)
    f = Quotient(LinearForm.coordinate(U3, 1, 1), q_form)
    good = [sample_point(U3, 3300 + i) for i in range(2)]
    on_zero = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    assert q_form.evaluate(on_zero) == 0
    stack = np.array([good[0], on_zero, good[1]])
    for op in (
        lambda x: f.evaluate(x),
        lambda x: tension(f, x, ctx),
        lambda x: conformality(f, f, x, ctx),
        lambda x: tension2(f, x, ctx),
    ):
        op(np.array(good))
        with pytest.raises(DomainError):
            op(stack)


@pytest.mark.parametrize(
    "spec", [GroupSpec.quaternionic_unitary(4), GroupSpec.unitary(8)], ids=["sp4", "su8"]
)
def test_context_build_peak_stays_near_what_it_keeps(spec):
    # the context keeps two (|B| + 2, N) arrays; building them reads one
    # dense basis element at a time and never builds the dense stack
    OperatorContext.for_spec(spec)  # one-time allocations outside the measurement
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ctx = OperatorContext.for_spec(spec)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    element = np.zeros((spec.ambient_dim, spec.ambient_dim), dtype=complex).nbytes
    assert peak <= 1.25 * (ctx.cols.nbytes + ctx.vals.nbytes + element)


FAMILIES = [(U3, None), (GroupSpec.special_orthogonal(6), None), (SP2, 10)]
FAMILY_IDS = ["su3", "so6", "sp2-choice10"]


def _family_exprs(spec, sp_choice):
    # every form of a quadruple family, its member quotients and 3 points
    fam = _quadruple(spec, sp_choice)
    quotients = [fam.member_quotient(i) for i in range(fam.n_members)]
    exprs = fam.all_forms() + quotients
    return fam, exprs, sample_domain_points(quotients, spec, 3, 3500)


@pytest.mark.parametrize("spec, sp_choice", FAMILIES, ids=FAMILY_IDS)
def test_laplacian_jets_match_per_expression_operators(ctx_for, spec, sp_choice):
    # one walk over every expression gives each one's value, tension and
    # pairwise kappa; the references walk one expression, or one pair, at
    # a time, and the Jet2 reference moves one point along one element
    ctx = ctx_for(spec)
    _, exprs, points = _family_exprs(spec, sp_choice)
    values, tau, kappa = laplacian_jets(exprs, points, ctx)
    assert values.shape == tau.shape == (len(exprs), 3)
    assert kappa.shape == (len(exprs), len(exprs), 3)
    assert np.array_equal(kappa, kappa.swapaxes(0, 1))
    for a, h in enumerate(exprs):
        assert np.all(relative_residual(values[a], h.evaluate(points)) <= 1e-12)
        assert np.all(relative_residual(tau[a], tension(h, points, ctx)) <= 1e-12)
        for b, g in enumerate(exprs[a:], a):
            assert np.all(relative_residual(kappa[a, b], conformality(h, g, points, ctx)) <= 1e-12)
    directions = [(e.matrix, 0.5 * (e.matrix @ e.matrix)) for e in basis(spec)]
    for k, base in enumerate(points):
        moved = [[h.evaluate(translate(base, z, zh)) for z, zh in directions] for h in exprs]
        for a, along in enumerate(moved):
            _assert_sum_matches(tau[a, k], [2 * jet.a2 for jet in along])
            for b in range(a, len(exprs)):
                _assert_sum_matches(kappa[a, b, k], [x.a1 * y.a1 for x, y in zip(along, moved[b])])


def _su4_orthogonal_family():
    # the column-ratio family of `morphism --group su --n 4 --seed 1`
    spec = GroupSpec.unitary(4)
    rng = np.random.default_rng(1)
    return spec, column_ratio_family(rng.normal(size=4) + 1j * rng.normal(size=4), spec, beta=0)


def _so8_tension_power_family():
    spec = GroupSpec.special_orthogonal(8)
    return spec, tension_power_family(_quadruple(spec), 1)


@pytest.mark.parametrize("family_of", [_su4_orthogonal_family, _so8_tension_power_family], ids=["su4", "so8"])
def test_family_kappa_does_not_depend_on_the_rest_of_the_forest(ctx_for, family_of):
    # another expression in the walk, or a member listed twice, leaves every
    # kappa entry of the family bit for bit, and kappa is exactly symmetric
    spec, family = family_of()
    ctx = ctx_for(spec)
    m = len(family)
    points = sample_domain_points(family, spec, 5, 1)
    kappa = laplacian_jets(family, points, ctx)[2]
    assert np.array_equal(kappa, kappa.swapaxes(0, 1))
    for forest in ([*family, Product((family[0], family[1]))], [*family, family[0]]):
        wider = laplacian_jets(forest, points, ctx)[2]
        assert np.array_equal(wider, wider.swapaxes(0, 1))
        assert np.array_equal(wider[:m, :m], kappa)


def test_constant_root_has_zero_derivative_columns(ctx_for):
    ctx = ctx_for(U3)
    _, exprs, points = _family_exprs(U3, None)
    walk = PackedPoint(points, ctx.cols, ctx.vals)
    raw = _coefficients(Const(3.0 - 2.0j).evaluate(walk), walk)
    assert raw.shape == walk.shape
    assert np.all(raw[:, 0, 0] == 3.0 - 2.0j)
    assert not np.any(raw[:, 0, 1:])
    values, tau, kappa = laplacian_jets([Const(3.0 - 2.0j), exprs[0]], points, ctx)
    assert np.all(values[0] == 3.0 - 2.0j)
    assert not np.any(tau[0])
    assert not np.any(kappa[0])


def test_quotient_by_a_constant_scales_every_jet(ctx_for):
    # x / 2 is a Quotient with a Const denominator: the packed walks divide
    # each coefficient by the number and agree with 0.5 * x
    ctx = ctx_for(U3)
    x = LinearForm.coordinate(U3, 0, 1)
    points = np.array([sample_point(U3, 3400 + k) for k in range(3)])
    halved, scaled = x / 2, Const(0.5) * x
    for got, want in zip(laplacian_jets([halved], points, ctx), laplacian_jets([scaled], points, ctx)):
        assert np.all(relative_residual(got, want) <= 1e-15)
    assert np.all(relative_residual(tension2(halved, points, ctx), tension2(scaled, points, ctx)) <= 1e-15)
    assert np.all(relative_residual(tension(halved, points, ctx), U3.eigenvalue / 2 * x.evaluate(points)) <= 1e-12)


def test_laplacian_jets_of_one_matrix_drop_the_point_axis(ctx_for):
    spec = GroupSpec.special_orthogonal(6)
    ctx = ctx_for(spec)
    _, exprs, points = _family_exprs(spec, None)
    batched = laplacian_jets(exprs, points, ctx)
    walk = PackedPoint(points, ctx.cols, ctx.vals)
    raw = np.stack([_coefficients(h.evaluate(walk), walk)[:, 0] for h in exprs])
    for k, point in enumerate(points):
        one = PackedPoint(point[None], ctx.cols, ctx.vals)
        one_raw = np.stack([_coefficients(h.evaluate(one), one)[0, 0] for h in exprs])
        assert one_raw.shape == (len(exprs), spec.dimension + 2)
        assert np.all(np.abs(one_raw - raw[:, k]) <= 1e-14 * np.maximum(1.0, np.abs(one_raw)))
        single = laplacian_jets(exprs, point, ctx)
        assert [x.shape for x in single] == [(len(exprs),), (len(exprs),), (len(exprs), len(exprs))]
        for one, many in zip(single, batched):
            assert np.all(np.abs(one - many[..., k]) <= 1e-14 * np.maximum(1.0, np.abs(one)))


@pytest.mark.parametrize("spec, sp_choice", FAMILIES, ids=FAMILY_IDS)
def test_quadruple_checks_evaluate_each_form_once(ctx_for, monkeypatch, spec, sp_choice):
    fam, _, points = _family_exprs(spec, sp_choice)
    calls = Counter()
    evaluate = LinearForm.evaluate

    def counted(self, point):
        calls[id(self)] += 1
        return evaluate(self, point)

    monkeypatch.setattr(LinearForm, "evaluate", counted)
    quadruple_checks(fam, ctx_for(spec), points)
    assert calls == Counter(id(f) for f in fam.all_forms())
