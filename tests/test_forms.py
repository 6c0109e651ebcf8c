"""Linear forms, quadruple families, their product rules, and predicates."""

import dataclasses
import hashlib
import json
import sys

import numpy as np
import pytest

from biforge import cli
from biforge.algebra import PackedPoint
from biforge.cli import _build_family
from biforge.errors import (
    BiforgeError,
    DimensionMismatch,
    DomainError,
    IsotropyViolation,
    ZeroVector,
)
from biforge.forms import (
    _WEIGHT_REL_TOL,
    Classification,
    Const,
    LinearForm,
    Quotient,
    QuadrupleFamily,
    RationalExpr,
    classify,
    dependent_rows,
    evaluate_all,
    isotropic,
    make_quadruple,
    powers,
    quotient,
    walk_order,
)
from biforge.groups import GroupSpec, sample_point
from biforge.operators import conformality, relative_residual, tension
from biforge.verify import quadruple_checks, sample_domain_points
from form_helpers import dense_form

U2 = GroupSpec.unitary(2)
U3 = GroupSpec.unitary(3)
SO4 = GroupSpec.special_orthogonal(4)
SO5 = GroupSpec.special_orthogonal(5)
SP2 = GroupSpec.quaternionic_unitary(2)

ISO_P = np.array([1.0, 1.0j, 0.0, 0.0])
ISO_Q = np.array([0.0, 0.0, 1.0, 1.0j])


coord = LinearForm.coordinate


# ---------------------------------------------------------------------------
# coordinate product rules per group


def test_unitary_coordinate_relations(ctx_for, points_for):
    ctx = ctx_for(U3)
    rng = np.random.default_rng(1)
    for m in points_for(U3, 6, 100):
        for _ in range(4):
            j, a, k, b = rng.integers(0, 3, size=4)
            tau = tension(coord(U3, j, a), m, ctx)
            assert abs(tau + 3 * m[j, a]) <= 1e-10
            kap = conformality(coord(U3, j, a), coord(U3, k, b), m, ctx)
            assert abs(kap + m[k, a] * m[j, b]) <= 1e-10


def test_quaternionic_coordinate_relations(ctx_for, points_for):
    # all five displayed relations: two eigen equations and three products
    ctx = ctx_for(SP2)
    lam = SP2.eigenvalue
    for m in points_for(SP2, 6, 200):
        z = lambda j, a: coord(SP2, j, a)
        w = lambda j, a: coord(SP2, j, 2 + a)
        zv = lambda j, a: m[j, a]
        wv = lambda j, a: m[j, 2 + a]
        assert abs(tension(z(0, 1), m, ctx) - lam * zv(0, 1)) <= 1e-10
        assert abs(tension(w(1, 0), m, ctx) - lam * wv(1, 0)) <= 1e-10
        assert abs(conformality(z(0, 1), z(1, 0), m, ctx) + 0.5 * zv(1, 1) * zv(0, 0)) <= 1e-10
        assert abs(conformality(w(0, 1), w(1, 0), m, ctx) + 0.5 * wv(1, 1) * wv(0, 0)) <= 1e-10
        assert abs(conformality(z(0, 1), w(1, 0), m, ctx) + 0.5 * zv(1, 1) * wv(0, 0)) <= 1e-10


def test_orthogonal_coordinate_relations(ctx_for, points_for):
    # the delta term makes kappa affine in the coordinate products
    ctx = ctx_for(SO5)
    for m in points_for(SO5, 6, 300):
        assert abs(tension(coord(SO5, 1, 2), m, ctx) + 2 * m[1, 2]) <= 1e-10
        off = conformality(coord(SO5, 0, 1), coord(SO5, 2, 3), m, ctx)
        assert abs(off + 0.5 * m[2, 1] * m[0, 3]) <= 1e-10
        diag = conformality(coord(SO5, 0, 1), coord(SO5, 0, 1), m, ctx)
        assert abs(diag + 0.5 * (m[0, 1] ** 2 - 1)) <= 1e-10


# ---------------------------------------------------------------------------
# quadruple families and the ten product rules


def fam_u3():
    return make_quadruple(U3, [1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 1], beta=0)


def test_quadruple_u3_product_rules(ctx_for):
    fam = fam_u3()
    assert fam.mu == -1
    assert fam.n_members == 3 and fam.n_proper == 2
    ctx = ctx_for(U3)
    points = np.array([sample_point(U3, 40 + i) for i in range(20)])
    for check in quadruple_checks(fam, ctx, points):
        assert check.passed, f"{check.name}: {check.max_residual}"


@pytest.mark.parametrize("choice", [9, 10, 11])
def test_quadruple_sp2_product_rules(ctx_for, choice):
    fam = make_quadruple(SP2, [1, 2], [1j, 1], [1, 1], [1, 0.5], beta=0, sp_choice=choice)
    assert fam.mu == -0.5
    assert fam.n_proper == (2 if choice == 10 else 1)
    ctx = ctx_for(SP2)
    points = np.array([sample_point(SP2, 50 + i) for i in range(12)])
    for check in quadruple_checks(fam, ctx, points):
        assert check.passed, f"choice {choice}, {check.name}: {check.max_residual}"


def test_quadruple_so4_isotropic_rows(ctx_for):
    fam = make_quadruple(SO4, ISO_P, ISO_Q, [1, 1, 1, 1], [1, 1, 1, 1], beta=0)
    assert fam.so_mode == "isotropic_rows"
    assert fam.n_proper == 3
    ctx = ctx_for(SO4)
    points = np.array([sample_point(SO4, 60 + i) for i in range(12)])
    for check in quadruple_checks(fam, ctx, points):
        assert check.passed, f"{check.name}: {check.max_residual}"


def test_quadruple_so4_isotropic_columns(ctx_for, rng):
    # generic rows, isotropic equal columns: accepted, but R = P and
    # S = Q so the single member is harmonic (no proper quotients)
    p = rng.normal(size=4) + 1j * rng.normal(size=4)
    q = rng.normal(size=4) + 1j * rng.normal(size=4)
    a = np.array([1, 1j, 0, 0])
    fam = make_quadruple(SO4, p, q, a, a)
    assert fam.so_mode == "isotropic_columns"
    assert fam.n_proper == 0
    ctx = ctx_for(SO4)
    points = np.array([sample_point(SO4, 70 + i) for i in range(10)])
    for check in quadruple_checks(fam, ctx, points):
        assert check.passed, f"{check.name}: {check.max_residual}"
    # with distinct isotropic columns the member is proper
    fam2 = make_quadruple(SO4, p, q, [1, 1j, 0, 0], [0, 0, 1, 1j])
    assert fam2.n_proper == 1
    for check in quadruple_checks(fam2, ctx, points):
        assert check.passed, f"{check.name}: {check.max_residual}"


def test_quadruple_so4_isotropy_violation(rng):
    p = rng.normal(size=4) + 1j * rng.normal(size=4)
    q = rng.normal(size=4) + 1j * rng.normal(size=4)
    with pytest.raises(IsotropyViolation):
        make_quadruple(SO4, p, q, [1, 0, 0, 0], [1, 1, 1, 1])


def test_quadruple_input_validation():
    with pytest.raises(ZeroVector):
        make_quadruple(U3, [0, 0, 0], [1, 0, 0], [1, 1, 1], [1, 1, 1])
    with pytest.raises(DimensionMismatch):
        make_quadruple(U3, [1, 0], [1, 0, 0], [1, 1, 1], [1, 1, 1])
    with pytest.raises(ZeroVector):
        make_quadruple(U3, [1, 0, 0], [0, 1, 0], [1, 1, 1], [0, 1, 1], beta=0)
    with pytest.raises(DimensionMismatch):
        make_quadruple(U3, [1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 1], sp_choice=9)


def test_quadruple_json_round_trip():
    fam = make_quadruple(SP2, [1, 2], [1j, 1], [1, 1], [1, 0.5], beta=1, sp_choice=10)
    clone = QuadrupleFamily.from_json(fam.to_json())
    assert clone.spec.code == "sp" and clone.spec.n == 2
    assert clone.beta == 1 and int(clone.sp_choice) == 10
    for f1, f2 in zip(fam.all_forms(), clone.all_forms()):
        assert np.array_equal(f1.coeffs, f2.coeffs)


ROWS_P, ROWS_Q = [1, 2j, 3, 0.5], [0.5, 1, 2j, 1]  # generic, not isotropic
SP2_VECTORS = ([1, 2], [1j, 1], [1, 1], [1, 0.5])


# SHA-256 of to_json() and the proper flags, recorded when make_quadruple
# built the isotropic-column family on a path of its own
@pytest.mark.parametrize(
    "args, sp_choice, digest, proper",
    [
        pytest.param((U3, [1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 1]), None,
                     "e6a6fdaf76ca96d27125e82a88292b0c42ce5d243140eda6a64b4b8cbf53960e",
                     (False, True, True), id="su3"),
        pytest.param((SO4, ISO_P, ISO_Q, [1, 1, 1, 1], [1, 1, 1, 1]), None,
                     "2cb84e359e334afe6661916e4c78a81c8daaf81250c6e1f97293502f3e765ac7",
                     (False, True, True, True), id="so4-iso-rows"),
        pytest.param((SO4, ROWS_P, ROWS_Q, [1, 1j, 0, 0], [1, 1j, 0, 0]), None,
                     "7b8461792fc9f229f8097cb0febab09a9646d34e3eb10611e14c5c15e2ba795c",
                     (False,), id="so4-iso-cols-equal"),
        pytest.param((SO4, ROWS_P, ROWS_Q, [1, 1j, 0, 0], [0, 0, 1, 1j]), None,
                     "790b7c928a504dbb1af49c2b733e648b8519f68cfcc04ff3a2b11b8f9865cc9f",
                     (True,), id="so4-iso-cols-distinct"),
        pytest.param((SP2, *SP2_VECTORS), 9,
                     "7c229a88fccce88a7f6e86a8cd7bc894276c7affc6eaa06eb8236cf7b3459670",
                     (False, True), id="sp2-choice9"),
        pytest.param((SP2, *SP2_VECTORS), 10,
                     "1888c3083c9db40f0db80806d2f3720d1d746f0ced77854160f21ead3211b737",
                     (True, True), id="sp2-choice10"),
        pytest.param((SP2, *SP2_VECTORS), 11,
                     "407ced2544413381f0c29fee301c05f2e38f7470c5d35f82ce106ea15cf51c52",
                     (False, True), id="sp2-choice11"),
    ],
)
def test_quadruple_json_matches_recorded_digest(args, sp_choice, digest, proper):
    fam = make_quadruple(*args, sp_choice=sp_choice)
    assert hashlib.sha256(fam.to_json().encode()).hexdigest() == digest
    assert fam.proper == proper


def test_column_with_rounding_weight_gives_no_member():
    # a column weight at most _WEIGHT_REL_TOL times the largest |a_j| is a
    # zero up to rounding: column 2 is skipped, column 0 shares the
    # denominator's column and is harmonic
    fam = make_quadruple(GroupSpec.unitary(4), ROWS_P, ROWS_Q, [1, 2, 2e-15, 3], [1, 1, 1, 1], beta=0)
    assert fam.n_members == 3 and fam.proper == (False, True, True)
    assert [int(np.flatnonzero(form.v)[0]) for form in fam.numerators] == [0, 1, 3]


def _reference_quadruple_json(fam):
    """The document through the library encoder, as the template must lay it out."""
    def vec(v):
        return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex)]

    doc = {
        "group": fam.spec.code, "n": fam.spec.n, "p": vec(fam.row_p), "q": vec(fam.row_q),
        "a": vec(fam.col_a), "b": vec(fam.col_b), "beta": fam.beta,
        "sp_choice": None if fam.sp_choice is None else int(fam.sp_choice), "so_mode": fam.so_mode,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "build",
    [
        # sp_choice and so_mode null; -0.0 real and imaginary parts
        lambda: make_quadruple(U3, [1, -0.0, 0], [0, 1, complex(2, -0.0)], [1, 1, 1], [-1e-300, 1, 1], beta=1),
        lambda: make_quadruple(SO4, ISO_P, ISO_Q, [1, 1, 1, 1], [1, 1, 1, 1]),  # so_mode set
        lambda: make_quadruple(SO4, ROWS_P, ROWS_Q, [1, 1j, 0, 0], [0, 0, 1, 1j]),
        lambda: make_quadruple(SP2, *SP2_VECTORS, sp_choice=10),  # sp_choice set
        # seeded draws: full-precision entries on each group
        lambda: _build_family(GroupSpec.unitary(5), 3, 2, None),
        lambda: _build_family(GroupSpec.special_orthogonal(8), 3, 0, None),
        lambda: _build_family(GroupSpec.quaternionic_unitary(3), 3, 1, 11),
    ],
    ids=["su3-negative-zero", "so4-iso-rows", "so4-iso-cols", "sp2-choice10", "su5-seeded", "so8-seeded",
         "sp3-seeded"],
)
def test_quadruple_json_matches_reference_encoder(build):
    fam = build()
    text = fam.to_json()
    assert text == _reference_quadruple_json(fam)
    assert QuadrupleFamily.from_json(text).to_json() == text


def test_member_nodes_are_built_once_per_family(points_for):
    fam = fam_u3()
    for i in range(fam.n_members):
        assert fam.member_quotient(i) is fam.member_quotient(i)
        assert fam.member_tension(i) is fam.member_tension(i)
    # every member tension divides by one Q**2 node
    assert len({id(fam.member_tension(i).denominator) for i in range(fam.n_members)}) == 1
    # a family with another mu builds its own nodes, even after the
    # original's were built
    doubled = dataclasses.replace(fam, mu=2 * fam.mu)
    (point,) = points_for(U3, 1, 950)
    for i in fam.proper_indices:
        assert doubled.member_tension(i) is not fam.member_tension(i)
        expected = 2 * fam.member_tension(i).evaluate(point)
        assert abs(doubled.member_tension(i).evaluate(point) - expected) <= 1e-12 * abs(expected)
    # with forms of its own, and its tensions share its own Q**2 node
    assert not {id(form) for form in doubled.all_forms()} & {id(form) for form in fam.all_forms()}
    assert len({id(doubled.member_tension(i).denominator) for i in range(fam.n_members)}) == 1


@pytest.fixture
def built_forms(monkeypatch):
    """Every LinearForm built while the test runs, in order."""
    built, init = [], LinearForm.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(LinearForm, "__init__", counting_init)
    return built


@pytest.mark.parametrize("group, n, degrees", [("su", 4, "3,3,3"), ("so", 8, "2,2"), ("sp", 3, "2,2")])
def test_construct_builds_no_form(tmp_path, built_forms, group, n, degrees):
    # construct writes vectors and a table; verify builds the 2n + 2 forms
    argv = ["construct", "--group", group, "--n", str(n), "--degrees", degrees, "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert built_forms == []
    fam = QuadrupleFamily.from_json((tmp_path / "quadruple.json").read_text())
    assert (fam.n_members, fam.n_proper) == (n, n - 1) and built_forms == []
    argv = ["verify", "--coeffs", str(tmp_path / "coeffs.json"), "--quadruple", str(tmp_path / "quadruple.json"),
            "--points", "1"]
    assert cli.main(argv) == 0
    assert len(built_forms) == 2 * n + 2


def _eager_forms(fam):
    """(P, S, Q, R, proper) by the rule make_quadruple once ran eagerly on
    the family's vectors: ``LinearForm.column`` over each kept column, or
    the four rank-one forms under isotropic columns, and the proper flags
    from the forms' own v rows."""
    spec, p, q, a, b, beta = fam.spec, fam.row_p, fam.row_q, fam.col_a, fam.col_b, fam.beta
    if fam.so_mode == "isotropic_columns":
        nums, exchange = [LinearForm(spec, p, a)], [LinearForm(spec, q, a)]
        den, exch_den = LinearForm(spec, q, b), LinearForm(spec, p, b)
    else:
        member_offset = spec.n if fam.sp_choice in (10, 11) else 0
        den_offset = spec.n if fam.sp_choice == 11 else 0
        den = LinearForm.column(spec, q, den_offset + beta, b[beta])
        exch_den = LinearForm.column(spec, p, den_offset + beta, b[beta])
        kept = [j for j in range(spec.n) if abs(a[j]) > _WEIGHT_REL_TOL * np.max(np.abs(a))]
        nums = [LinearForm.column(spec, p, member_offset + j, a[j]) for j in kept]
        exchange = [LinearForm.column(spec, q, member_offset + j, a[j]) for j in kept]
    pairs = np.zeros((2, 1 + len(nums), spec.ambient_dim), dtype=complex)
    pairs[:, 0, : spec.n] = p, q
    pairs[0, 1:] = [form.v for form in nums]
    pairs[1, 1:] = den.v
    rows_dependent, *cols_dependent = dependent_rows(*pairs).tolist()
    return nums, exchange, den, exch_den, tuple(not (rows_dependent or flag) for flag in cols_dependent)


def _families_of_every_kind():
    so6 = GroupSpec.special_orthogonal(6)
    sp3 = GroupSpec.quaternionic_unitary(3)
    return [
        _build_family(GroupSpec.unitary(4), 17, 2, None),
        _build_family(GroupSpec.special_orthogonal(8), 17, 1, None),
        *_so_isotropic_columns_family(so6, np.random.default_rng(17), 0),
        *(_build_family(sp3, 17, 1, choice) for choice in (9, 10, 11)),
        # zero column weights: a rounding zero, and an exact zero on the w-block
        make_quadruple(GroupSpec.unitary(4), ROWS_P, ROWS_Q, [1, 2, 2e-15, 3], [1, 1, 1, 1], beta=2),
        make_quadruple(SP2, *SP2_VECTORS[:2], [0, 1j], [1, 0.5], beta=1, sp_choice=10),
        # q a multiple of p: every member is harmonic in Case I
        make_quadruple(GroupSpec.unitary(4), ROWS_P, np.multiply(ROWS_P, 2 - 1j), [1, 2, 3, 4], [1, 1, 1, 1]),
    ]


def test_derived_forms_match_the_eager_rule(built_forms):
    families = _families_of_every_kind()
    assert {fam.so_mode for fam in families} == {None, "isotropic_rows", "isotropic_columns"}
    assert {fam.sp_choice for fam in families} == {None, 9, 10, 11}
    assert any(fam.n_members < fam.spec.n for fam in families if fam.so_mode != "isotropic_columns")
    assert built_forms == []
    for fam in families:
        nums, exchange, den, exch_den, proper = _eager_forms(fam)
        assert fam.proper == proper
        for f, g in zip(fam.all_forms(), [*nums, den, exch_den, *exchange], strict=True):
            assert np.array_equal(f.u, g.u) and np.array_equal(f.v, g.v)


def test_member_counts_read_no_form(built_forms):
    for fam in _families_of_every_kind():
        assert (fam.n_members, fam.n_proper, fam.proper_indices) == (
            len(fam.proper), sum(fam.proper), tuple(i for i, flag in enumerate(fam.proper) if flag))
        assert fam.to_json()
        assert built_forms == []
        assert len(fam.numerators) == fam.n_members
        assert fam.all_forms() == fam.all_forms()
        assert len(built_forms) == 2 * fam.n_members + 2
        built_forms.clear()


# ---------------------------------------------------------------------------
# quotients and the closed-form tension


def test_quotient_of_equal_forms_is_one(points_for):
    form = LinearForm.column(U3, [1, 2, 3], 1)
    expr = quotient(form, form)
    for point in points_for(U3, 5, 500):
        assert abs(expr.evaluate(point) - 1) <= 1e-14


def test_quotient_domain_error():
    # the antidiagonal permutation matrix is unitary with zero (0,0) entry
    m = np.fliplr(np.eye(3)).astype(complex)
    f = quotient(LinearForm.coordinate(U3, 0, 1), LinearForm.coordinate(U3, 0, 0))
    with pytest.raises(DomainError):
        f.evaluate(m)


def test_quotient_rejects_only_an_all_zero_denominator():
    # a tiny but nonzero denominator form is a valid rational function
    tiny = LinearForm(U3, [0, 1e-15, 0], [1, 0, 0])
    f = quotient(coord(U3, 0, 0), tiny)
    m = sample_point(U3, 1)
    assert f.evaluate(m) == pytest.approx(m[0, 0] / (1e-15 * m[1, 0]), rel=1e-12)
    with pytest.raises(ZeroVector):
        quotient(coord(U3, 0, 0), LinearForm(U3, np.zeros(3), np.zeros(3)))


def test_quotient_matches_direct_entry_division(points_for):
    f = quotient(LinearForm.coordinate(U2, 0, 0), LinearForm.coordinate(U2, 1, 0))
    for m in points_for(U2, 5, 600):
        assert abs(f.evaluate(m) - m[0, 0] / m[1, 0]) <= 1e-12


def test_member_tension_harmonic_column(ctx_for, points_for):
    # the member sharing the denominator column has identically zero tension
    fam = fam_u3()
    harmonic_index = fam.proper.index(False)
    tau = fam.member_tension(harmonic_index)
    ctx = ctx_for(U3)
    for point in points_for(U3, 8, 700):
        assert abs(tau.evaluate(point)) <= 1e-12
        assert abs(tension(fam.member_quotient(harmonic_index), point, ctx)) <= 1e-10


@pytest.mark.parametrize(
    "fam_builder",
    [
        fam_u3,
        lambda: make_quadruple(SP2, [1, 2], [1j, 1], [1, 1], [1, 0.5], sp_choice=10),
        lambda: make_quadruple(SO4, ISO_P, ISO_Q, [1, 1, 1, 1], [1, 1, 1, 1]),
    ],
    ids=["u3", "sp2", "so4"],
)
def test_member_tension_matches_operator(ctx_for, fam_builder):
    fam = fam_builder()
    ctx = ctx_for(fam.spec)
    exprs = [fam.member_quotient(i) for i in range(fam.n_members)]
    points = sample_domain_points(exprs, fam.spec, 8, 800)
    for i in range(fam.n_members):
        tau_sym = fam.member_tension(i)
        for point in points:
            expected = tau_sym.evaluate(point)
            actual = tension(fam.member_quotient(i), point, ctx)
            assert relative_residual(actual, expected) <= 1e-9


def test_sp_mu_halves_unitary_prefactor():
    # same generating vectors: the closed-form prefactor is 2*mu
    fam_u = make_quadruple(U2, [1, 2], [3, 1j], [1, 1], [1, 1])
    fam_sp = make_quadruple(SP2, [1, 2], [3, 1j], [1, 1], [1, 1], sp_choice=9)
    assert fam_u.mu == -1.0 and fam_sp.mu == -0.5


# ---------------------------------------------------------------------------
# identities of the rational members


def test_member_identities_unitary(ctx_for):
    # kappa(f,f) = f tau(f), kappa(f, tau f) = (tau f)^2,
    # kappa(tau f, tau f) = -2 (tau f)^2
    fam = fam_u3()
    ctx = ctx_for(U3)
    i = fam.proper_indices[0]
    f = fam.member_quotient(i)
    tf = fam.member_tension(i)
    points = sample_domain_points([f, tf], U3, 8, 900)
    for m in points:
        fv, tv = f.evaluate(m), tf.evaluate(m)
        assert relative_residual(conformality(f, f, m, ctx), fv * tv) <= 1e-9
        assert relative_residual(conformality(f, tf, m, ctx), tv * tv) <= 1e-9
        assert relative_residual(conformality(tf, tf, m, ctx), -2 * tv * tv) <= 1e-9


def test_forms_keep_only_their_factors():
    # a form stores its factors (u, v), not the dense (n, N) array, and
    # ``coeffs`` rebuilds C exactly; a general C is a sum of per-row forms
    u, v = np.array([1, 2j, -1]), np.array([0.5, 0, 3])
    form = LinearForm(U3, u, v)
    assert not hasattr(form, "__dict__")
    assert [a.shape for a in (form.u, form.v)] == [(3,), (3,)]
    assert np.array_equal(form.coeffs, np.multiply.outer(u, v))
    assert form.coeff_scale() == np.linalg.norm(u) * np.linalg.norm(v)
    c = np.array([[1, 0, 2j], [0, 0, 0], [3, -1, 0]])
    dense = dense_form(U3, c)
    assert [(t.u.shape, t.v.shape) for t in dense.terms] == [((3,), (3,))] * 2
    assert np.array_equal(sum(t.coeffs for t in dense.terms), c)
    assert dense.coeff_scale() == max(np.linalg.norm(row) for row in c)
    for bad in (lambda: LinearForm(U3, u[:2], v), lambda: LinearForm(U3, u, v[:2])):
        with pytest.raises(DimensionMismatch, match=r"must have shapes \(3,\) and \(3,\)"):
            bad()


def test_forms_compose_directly(monkeypatch):
    # a form is a tree leaf: arithmetic on forms needs no wrapper, and a
    # form read twice by one root is one node, evaluated once per walk
    p, q = coord(U3, 0, 1), coord(U3, 2, 2)
    assert isinstance(p, RationalExpr)
    stack = np.array([sample_point(U3, seed) for seed in (31, 32, 33)])
    pv, qv = p.evaluate(stack), q.evaluate(stack)
    square, mixed = q * q, p / q + q
    calls = []
    evaluate = LinearForm.evaluate
    monkeypatch.setattr(LinearForm, "evaluate", lambda self, point: calls.append(self) or evaluate(self, point))
    got = evaluate_all([square, mixed], stack)
    assert np.array_equal(got[0], qv * qv)
    assert np.array_equal(got[1], pv / qv + qv)
    assert sorted(map(id, calls)) == sorted([id(p), id(q)])
    calls.clear()
    assert np.array_equal(square.evaluate(stack), qv * qv)
    assert calls == [q]


def test_powers_take_integer_exponents_only():
    # f**k is the top of one product chain, f**0 the constant 1; a negative
    # or non-integer exponent is refused, never truncated to an integer
    p = coord(U3, 0, 1)
    point = sample_point(U3, 41)
    pv = p.evaluate(point)
    assert (p**3).evaluate(point) == pv * pv * pv
    assert p**1 is p
    one = p**0
    assert isinstance(one, Const) and one.evaluate(point) == 1
    with pytest.raises(TypeError):
        p**2.5
    with pytest.raises(ValueError):
        p**-1


def test_forest_walk_matches_separate_walks(ctx_for, monkeypatch):
    # a repeated root and a root that contains another: the forest reads
    # tau f four times (twice in tf**2 = tf * tf) and computes it, and each
    # of its forms, once
    fam = fam_u3()
    tf = fam.member_tension(fam.proper_indices[0])
    roots = [tf, tf**2, tf]
    order, reads = walk_order(roots)
    assert len(order) == len(reads) == len({id(node) for node in order})
    assert reads[id(tf)] == 4 and reads[id(roots[1])] == 1
    stack = sample_domain_points([tf], U3, 3, 950)
    ctx = ctx_for(U3)
    packed = PackedPoint(stack, ctx.cols, ctx.vals)
    separate = [[root.evaluate(point) for root in roots] for point in (stack, packed)]
    calls = []
    evaluate = LinearForm.evaluate
    monkeypatch.setattr(LinearForm, "evaluate", lambda self, point: calls.append(self) or evaluate(self, point))
    for point, expected in zip((stack, packed), separate):
        got = evaluate_all(roots, point)
        for value, reference in zip(got, expected):
            value, reference = getattr(value, "c", value), getattr(reference, "c", reference)
            assert value.shape == reference.shape and np.array_equal(value, reference)
    assert len(calls) == 2 * 4  # P, Q, R and S once per point type


def test_walk_deeper_than_the_recursion_limit_is_refused(monkeypatch):
    # a walk recurses once per level of the tree and the interpreter's limit
    # is left as it is, so a chain deeper than the limit is refused with a
    # BiforgeError rather than a RecursionError, whichever node overflows
    message = "the expression tree is too deep to walk within the recursion limit"

    def overflow(self, point, walk):
        raise RecursionError("maximum recursion depth exceeded")

    with monkeypatch.context() as patch:
        patch.setattr(Const, "_compute", overflow)
        with pytest.raises(BiforgeError, match=message):
            Const(1.0).evaluate(np.eye(2))
    limit = sys.getrecursionlimit()
    with pytest.raises(BiforgeError, match=message):
        evaluate_all([Const(2.0), powers(Const(1.0), limit)[-1]], np.eye(2))
    assert sys.getrecursionlimit() == limit
    assert evaluate_all([powers(Const(1.0), 50)[-1]], np.eye(2)) == [1]


def test_quotient_over_a_denominator_deeper_than_the_recursion_limit_is_refused(monkeypatch):
    # a quotient reads its denominator's scale when it is built, recursing
    # once per level as a walk does, and refuses a chain too deep for it
    message = "the expression tree is too deep to walk within the recursion limit"

    def overflow(self):
        raise RecursionError("maximum recursion depth exceeded")

    with monkeypatch.context() as patch:
        patch.setattr(Const, "coeff_scale", overflow)
        with pytest.raises(BiforgeError, match=message):
            Quotient(Const(1.0), Const(2.0))
    with pytest.raises(BiforgeError, match=message):
        Quotient(Const(1.0), powers(Const(2.0), sys.getrecursionlimit())[-1])
    assert Quotient(Const(1.0), powers(Const(2.0), 50)[-1]).den_scale == 2.0**50


@pytest.mark.parametrize(
    "fam_builder",
    [
        lambda: make_quadruple(SP2, [1, 2], [1j, 1], [1, 1], [1, 0.5], sp_choice=10),
        lambda: make_quadruple(SO4, ISO_P, ISO_Q, [1, 1, 1, 1], [1, 1, 1, 1]),
    ],
    ids=["sp2", "so4"],
)
def test_power_identities_general_mu(ctx_for, fam_builder):
    # for mu = -1/2 families: kappa(tau(f_i)^m, tau(f_j)^l) = 2 mu m l ...,
    # kappa(f_i^m, tau(f_j)^l) = m l f_i^(m-1) tau(f_i) tau(f_j)^l,
    # 2 kappa(f_i^m, f_j^l) = m l f^(m-1) f^(l-1) (f_i tau f_j + tau f_i f_j),
    # all without extra mu factors
    fam = fam_builder()
    mu = fam.mu
    ctx = ctx_for(fam.spec)
    i, j = fam.proper_indices[:2]
    fi, fj = fam.member_quotient(i), fam.member_quotient(j)
    ti, tj = fam.member_tension(i), fam.member_tension(j)
    points = sample_domain_points([fi, fj, ti, tj], fam.spec, 6, 1000)
    m_exp, l_exp = 2, 3
    pow_ti, pow_tj = ti**m_exp, tj**l_exp
    pow_fi, pow_fj = fi**m_exp, fj**l_exp
    for mat in points:
        fiv, fjv = fi.evaluate(mat), fj.evaluate(mat)
        tiv, tjv = ti.evaluate(mat), tj.evaluate(mat)
        actual = conformality(pow_ti, pow_tj, mat, ctx)
        expected = 2 * mu * m_exp * l_exp * tiv**m_exp * tjv**l_exp
        assert relative_residual(actual, expected) <= 1e-9
        actual = conformality(pow_fi, pow_tj, mat, ctx)
        expected = m_exp * l_exp * fiv ** (m_exp - 1) * tiv * tjv**l_exp
        assert relative_residual(actual, expected) <= 1e-9
        actual = 2 * conformality(pow_fi, pow_fj, mat, ctx)
        expected = (
            m_exp
            * l_exp
            * fiv ** (m_exp - 1)
            * fjv ** (l_exp - 1)
            * (fiv * tjv + tiv * fjv)
        )
        assert relative_residual(actual, expected) <= 1e-9
        actual = tension(pow_ti, mat, ctx)
        expected = 2 * mu * m_exp * (m_exp - 1) * tiv**m_exp
        assert relative_residual(actual, expected) <= 1e-9


def test_inverse_square_denominator_tension(ctx_for):
    # proof-step identity on U(n): tau(Q^-2) = 2(n-3) Q^-2
    for spec, seed in ((U2, 1100), (U3, 1200)):
        fam = make_quadruple(spec, [1] * spec.n, [1j] + [1] * (spec.n - 1), [1] * spec.n, [1] * spec.n)
        q = fam.denominator
        inv_sq = Quotient(Const(1.0), q**2)
        ctx = ctx_for(spec)
        points = sample_domain_points([inv_sq], spec, 6, seed)
        for point in points:
            value = inv_sq.evaluate(point)
            expected = 2 * (spec.n - 3) * value
            assert relative_residual(tension(inv_sq, point, ctx), expected) <= 1e-9


# ---------------------------------------------------------------------------
# predicates and classification


def _rank_at_most_one(m) -> bool:
    """Every pair of columns of ``m`` is dependent, tested in one call."""
    m = np.asarray(m)
    return bool(dependent_rows(m.T[:, None], m.T).all())


def test_dependent_rows():
    q = np.array([1.0, 2.0, -1.0])
    assert _rank_at_most_one(np.outer(q, [3, 1j, 2]))
    assert not _rank_at_most_one(np.eye(2))
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 1)) @ rng.normal(size=(1, 3)) + rng.normal(
        size=(3, 1)
    ) @ rng.normal(size=(1, 3))
    # rank oracle via singular values
    rank = int(np.sum(np.linalg.svd(m, compute_uv=False) > 1e-10))
    assert rank == 2 and not _rank_at_most_one(m)
    # one verdict per pair; a zero vector is dependent on any other
    u = [[1, 2, 0], [1, 0, 0], [0, 0, 0], [1e-3, 0, 0]]
    v = [[2, 4, 0], [0, 1, 0], [5, 1, 2], [0, 1e6, 0]]
    assert dependent_rows(u, v).tolist() == [True, False, True, False]
    # the scale is per pair: a pair of tiny vectors is judged on its own size
    assert not dependent_rows(np.array(u) * 1e-100, np.array(v) * 1e-100)[1]
    with pytest.raises(ZeroVector):
        dependent_rows([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])


def _minor_loop_reference(u, v) -> bool:
    """One pair's minors, one at a time, against the square of the larger
    entry magnitude of the pair: the loop that dependent_rows batches."""
    scale = max(np.max(np.abs(u)), np.max(np.abs(v)))
    return all(
        abs(u[i] * v[j] - u[j] * v[i]) <= 1e-12 * scale * scale
        for i in range(len(u))
        for j in range(len(u))
    )


def test_dependent_rows_matches_the_minor_loop():
    # dependent pairs perturbed from far below to far above the tolerance,
    # at several sizes; the batched verdicts equal the loop's pair by pair
    rng = np.random.default_rng(29)
    for size in (2, 3, 8):
        v = rng.normal(size=(120, size)) + 1j * rng.normal(size=(120, size))
        noise = rng.normal(size=(120, size)) + 1j * rng.normal(size=(120, size))
        eps = 10.0 ** rng.uniform(-17, -4, size=(120, 1))
        u = (rng.normal(size=(120, 1)) + 1j) * v + eps * noise
        got = dependent_rows(u, v).tolist()
        assert got == [_minor_loop_reference(x, y) for x, y in zip(u, v)]
        assert any(got) and not all(got)


def test_isotropic_examples():
    assert isotropic([1, 1j, 0, 0])
    assert not isotropic([1, 0, 0, 0])
    assert isotropic([1, 2, 2j, 1j])


def test_predicates_exact_mode_bypasses_tolerances():
    # object-dtype input is decided exactly, with no floating threshold
    from fractions import Fraction

    tiny = Fraction(1, 10**40)
    m = np.array(
        [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4) + tiny]], dtype=object
    )
    assert not _rank_at_most_one(m)
    m[1, 1] = Fraction(4)
    assert _rank_at_most_one(m)
    v = np.array([Fraction(3), Fraction(4), 5j], dtype=object)
    assert isotropic(v)
    v[2] = 5j + tiny
    assert not isotropic(v)
    with pytest.raises(ZeroVector):
        _rank_at_most_one(np.array([[Fraction(0)] * 2] * 2, dtype=object))


def test_classify_structural():
    rng = np.random.default_rng(7)
    q = rng.normal(size=3) + 1j * rng.normal(size=3)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert classify(np.outer(q, c), q, a, U3) is Classification.HarmonicCaseI
    m_col = np.zeros((3, 3), dtype=complex)
    m_col[:, 1] = c
    a_single = np.array([0, 2.0 + 1j, 0])
    assert classify(m_col, q, a_single, U3) is Classification.HarmonicCaseII
    m_gen = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert classify(m_gen, q, a, U3) is Classification.ProperBiharmonic
    with pytest.raises(ZeroVector):
        classify(np.zeros((3, 3)), q, a, U3)
    with pytest.raises(DimensionMismatch, match=r"m_p must have shape \(3, 3\)"):
        classify(np.ones((3, 2)), q, a, U3)
    with pytest.raises(IsotropyViolation):
        # (a,a) = 0 but M_P a != 0, and (q,q) != 0: neither SO alternative holds
        classify(np.ones((4, 4)), np.ones(4), [1, 1j, 0, 0], SO4)
    # Case II is Case I transposed: every row a multiple of a spread-out a
    assert classify(np.outer(c, a), q, a, U3) is Classification.HarmonicCaseII

    # SO(5) inputs outside both alternatives of the SO gate
    rng = np.random.default_rng(11)

    def cvec(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    q, a, c = cvec(5), cvec(5), cvec(5)
    assert not isotropic(q) and not isotropic(a)
    # non-isotropic q and M_P^T q != 0, in the Case I, Case II and generic shapes
    for m_p in (np.outer(q, c), np.outer(c, a), cvec(5, 5)):
        with pytest.raises(IsotropyViolation):
            classify(m_p, q, a, SO5)
    # q isotropic and q^T M_P a = 0, but M_P^T q != 0
    q_iso = np.array([1.0, 1j, 0.0, 0.0, 0.0])
    m_p, fix = cvec(5, 5), np.outer(np.conj(q_iso), np.conj(a))
    m_p -= fix * (q_iso @ m_p @ a) / (q_iso @ fix @ a)
    assert abs(q_iso @ m_p @ a) < 1e-12 and np.linalg.norm(q_iso @ m_p) > 0.1
    with pytest.raises(IsotropyViolation):
        classify(m_p, q_iso, a, SO5)


def _so_isotropic_columns_family(spec, rng, beta):
    # a, b span a totally isotropic plane: (a,a) = (b,b) = (a,b) = 0
    u1, v1, u2, v2 = np.linalg.qr(rng.normal(size=(spec.n, 4)))[0].T
    a, b = u1 + 1j * v1, u2 + 1j * v2
    p = rng.normal(size=spec.n) + 1j * rng.normal(size=spec.n)
    q = rng.normal(size=spec.n) + 1j * rng.normal(size=spec.n)
    return [
        make_quadruple(spec, p, q, a, b, beta=beta),
        make_quadruple(spec, p, q, a, (2 - 1j) * a, beta=beta),  # a, b dependent
        make_quadruple(spec, (1 + 2j) * q, q, a, b, beta=beta),  # p, q dependent
    ]


def test_quadruple_flags_follow_classify():
    # proper[i] is classify's verdict on P_i over Q's rank-one factors
    rng = np.random.default_rng(25)
    families = []
    for beta in (0, 1):
        for n in (3, 4, 5):
            families.append(_build_family(GroupSpec.unitary(n), 40 + n, beta, None))
        for n in (6, 8):
            spec = GroupSpec.special_orthogonal(n)
            rows = _build_family(spec, 50 + n, beta, None)
            assert rows.so_mode == "isotropic_rows"
            families += [rows, make_quadruple(spec, 3j * rows.row_q, rows.row_q, rows.col_a, rows.col_b, beta=beta)]
            families += _so_isotropic_columns_family(spec, rng, beta)
        for n in (2, 3):
            for choice in (9, 10, 11):
                families.append(_build_family(GroupSpec.quaternionic_unitary(n), 60 + n, beta, choice))
    flags = []
    for fam in families:
        q, w = fam.denominator.u, fam.denominator.v
        for i, numerator in enumerate(fam.numerators):
            verdict = classify(numerator.coeffs, q, w, fam.spec)
            assert fam.proper[i] == (verdict is Classification.ProperBiharmonic), (fam.spec, fam.so_mode, i)
            flags.append(fam.proper[i])
    assert {fam.so_mode for fam in families} == {None, "isotropic_rows", "isotropic_columns"}
    assert any(flags) and not all(flags)


def test_classify_sp_shapes(rng):
    m = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    q = rng.normal(size=2) + 1j * rng.normal(size=2)
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert classify(m, q, a, SP2) is Classification.ProperBiharmonic
    with pytest.raises(DimensionMismatch):
        classify(m[:, :2], q, a[:2], SP2)
