"""Coefficient solvers against the fixed one- and two-variable tables.

Expected tuples were derived by hand from the first- and second-order
difference equations and double-checked against the displayed examples;
they are frozen here and everything is compared in exact arithmetic.
"""

import hashlib
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from biforge import cli, construct
from biforge.construct import (
    TABLE_SCHEMA,
    CoeffTable,
    biharmonic_family,
    box_indices,
    build_expression,
    column_ratio_family,
    combine,
    eigenfamily_constants,
    harmonic_family,
    rational_morphism,
    tension_power_family,
    proper_biharmonic_table,
    tension_table,
    _checked_table,
)
from biforge.errors import BiforgeError, DegenerateQuotient, DimensionMismatch, InconsistentSystem, ZeroVector
from biforge.forms import Const, Product, make_quadruple, walk_order
from biforge.groups import GroupSpec
from biforge.operators import conformality, relative_residual, tension
from biforge.verify import sample_domain_points
from reference import harmonic_coefficients, tension_row

U2 = GroupSpec.unitary(2)
U3 = GroupSpec.unitary(3)
SP2 = GroupSpec.quaternionic_unitary(2)

HARMONIC_TABLES = {2: (0, 4, 3), 3: (0, 6, 12, 5), 4: (0, 32, 120, 120, 35)}
BIHARMONIC_TABLES = {
    2: (4, 0, -3),
    3: (6, 0, -27, -15),
    4: (32, 0, -480, -640, -210),
}


def table_from_tuple(values):
    return CoeffTable((len(values) - 1,), {(k,): v for k, v in enumerate(values)})


@pytest.mark.parametrize("d", [2, 3, 4])
def test_harmonic_tables_match_up_to_scale(d):
    got = harmonic_coefficients(d, -1)
    assert got.proportional_to(table_from_tuple(HARMONIC_TABLES[d]))
    assert tension_table(got, -1).is_zero()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_biharmonic_tables_exact(d):
    expected = BIHARMONIC_TABLES[d]
    got = combine(biharmonic_family((d,), -1), [expected[0], 0])
    assert got.single_degree() == tuple(Fraction(c) for c in expected)
    assert tension_table(tension_table(got, -1), -1).is_zero()
    assert not tension_table(got, -1).is_zero()


def test_degree_one_harmonic_is_tension_alone():
    for mu in (-1, Fraction(-1, 2)):
        assert harmonic_coefficients(1, mu).single_degree() == (0, 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_second_order_difference_equation(d):
    # for mu = -1 the proper member solves
    # 4(k-1)^2 k^2 c_k = 4(k-1)^2 (d^2-(k-1)^2) c_{k-1}
    #                    - (d^2-(k-2)^2)(d^2-(k-1)^2) c_{k-2}
    table = biharmonic_family((d,), -1)[0]
    c = table.single_degree()
    for k in range(2, d + 1):
        lhs = 4 * (k - 1) ** 2 * k**2 * c[k]
        rhs = 4 * (k - 1) ** 2 * (d * d - (k - 1) ** 2) * c[k - 1] - (
            d * d - (k - 2) ** 2
        ) * (d * d - (k - 1) ** 2) * c[k - 2]
        assert lhs == rhs


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 20])
def test_multi_variable_solver_reduces_to_recurrence(d):
    for mu in (-1, Fraction(-1, 2), Fraction(3, 5)):
        family = harmonic_family((d,), mu)
        assert len(family) == 1
        assert family[0] == harmonic_coefficients(d, mu)


def test_one_variable_general_mu_recurrence():
    mu = Fraction(-1, 2)
    for d in (2, 3, 4):
        c = harmonic_coefficients(d, mu).single_degree()
        assert c[0] == 0 and c[1] == 1
        for k in range(1, d):
            assert -2 * mu * k * (k + 1) * c[k + 1] == (d * d - k * k) * c[k]
        assert tension_table(harmonic_coefficients(d, mu), mu).is_zero()
        proper = biharmonic_family((d,), mu)[0]
        assert tension_table(tension_table(proper, mu), mu).is_zero()
        assert not tension_table(proper, mu).is_zero()


def test_tension_matrix_two_variables():
    idxs = list(box_indices((1, 1)))
    cols = []
    for idx in idxs:
        image = tension_table(CoeffTable((1, 1), {idx: 1}), -1)
        cols.append([image.get(r) for r in idxs])
    matrix = np.array(cols, dtype=object).T
    expected = np.array(
        [[0, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0, 0], [0, 3, 3, -4]], dtype=object
    )
    assert np.array_equal(matrix, expected)
    squared = matrix @ matrix
    expected_sq = np.array(
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [12, -12, -12, 16]], dtype=object
    )
    assert np.array_equal(squared, expected_sq)


def test_two_variable_harmonic_family_degree_11():
    family = harmonic_family((1, 1), -1)
    assert len(family) == 2
    for weights in ([1, 0], [0, 1], [2, -5]):
        t = combine(family, weights)
        assert t.get((0, 0)) == 0
        assert 4 * t.get((1, 1)) == 3 * (t.get((0, 1)) + t.get((1, 0)))


def test_two_variable_biharmonic_family_degree_11():
    family = biharmonic_family((1, 1), -1)
    assert len(family) == 3
    proper = family[0]
    assert proper.get((0, 0)) == 1
    for weights in ([1, 0, 0], [1, 2, -1], [3, 0, 5]):
        t = combine(family, weights)
        assert 4 * t.get((1, 1)) == 3 * (
            t.get((0, 1)) + t.get((1, 0)) - t.get((0, 0))
        )
        assert tension_table(tension_table(t, -1), -1).is_zero()


def test_two_variable_biharmonic_family_degree_21():
    family = biharmonic_family((2, 1), -1)
    assert len(family) == 3
    for weights in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -2, 3]):
        t = combine(family, weights)
        c1, c2, c3 = t.get((0, 0)), t.get((0, 1)), t.get((1, 0))
        c4, c5, c6 = t.get((1, 1)), t.get((2, 0)), t.get((2, 1))
        assert c4 == 2 * c2 + c3 - 3 * c1
        assert 2 * c5 == 2 * c3 - 3 * c1
        assert 6 * c6 == 5 * c2 + 5 * c3 - 15 * c1


def test_two_variable_harmonic_family_degree_21():
    family = harmonic_family((2, 1), -1)
    assert len(family) == 2
    for weights in ([1, 0], [0, 1], [7, -2]):
        t = combine(family, weights)
        assert t.get((0, 0)) == 0
        assert t.get((1, 1)) == 2 * t.get((0, 1)) + t.get((1, 0))
        assert t.get((2, 0)) == t.get((1, 0))
        assert 6 * t.get((2, 1)) == 5 * (t.get((0, 1)) + t.get((1, 0)))


# "graded solver": the closed forms in sigma = sum(k) behind harmonic_family
# and proper_biharmonic_table, with the exact row and pin check
# (_checked_table) every table they return passes
@pytest.mark.parametrize("mu", [-1, Fraction(-1, 2)], ids=str)
@pytest.mark.parametrize("degrees", [(4, 4), (6, 6), (3, 3, 3), (2, 2, 2, 2), (3, 1, 2)], ids=str)
def test_graded_solver_families_exact_and_normalised(degrees, mu):
    m = len(degrees)
    zero = (0,) * m
    units = [tuple(int(j == i) for j in range(m)) for i in range(m)]
    harm = harmonic_family(degrees, mu)
    assert len(harm) == m
    for i, table in enumerate(harm):
        assert tension_table(table, mu).is_zero()
        assert [table.get(k) for k in (zero, *units)] == [0, *(int(j == i) for j in range(m))]
    bih = biharmonic_family(degrees, mu)
    assert len(bih) == m + 1
    for i, table in enumerate(bih):
        assert tension_table(tension_table(table, mu), mu).is_zero()
        assert [table.get(k) for k in (zero, *units)] == [int(j == i) for j in range(m + 1)]
    # same pinned values, so uniqueness makes them the harmonic basis
    assert bih[1:] == harm
    # tau(F) of the proper table is harmonic with unit coefficients d_j*sum(d)
    assert tension_table(bih[0], mu) == combine(harm, [d_j * sum(degrees) for d_j in degrees])
    assert not tension_table(bih[0], mu).is_zero()


def unit_pins(m, value_at_zero, unit=None):
    """Pins of a table on m variables: c_0 and c_{e_j} = 1 at the given unit, else 0."""
    units = [tuple(int(j == i) for j in range(m)) for i in range(m)]
    return {(0,) * m: value_at_zero, **{u: int(i == unit) for i, u in enumerate(units)}}


def test_graded_solver_rejects_inconsistent_systems():
    # the tables the closed forms return pass only with their own pins and
    # kind: a zero tension table is no proper table
    degrees, mu = (2, 1), Fraction(-1, 2)
    proper, *harm = biharmonic_family(degrees, mu)
    assert _checked_table(proper, mu, unit_pins(2, 1), proper=True) == proper
    assert _checked_table(harm[1], mu, unit_pins(2, 0, 1), proper=False) == harm[1]
    for table in (harm[0], CoeffTable(degrees, {})):
        with pytest.raises(InconsistentSystem, match="came out harmonic"):
            _checked_table(table, mu, {}, proper=True)
    with pytest.raises(InconsistentSystem, match="pinned"):
        _checked_table(proper, mu, unit_pins(2, 2), proper=True)
    with pytest.raises(InconsistentSystem, match="pinned"):
        _checked_table(harm[0], mu, unit_pins(2, 0, 1), proper=False)
    # and the proper table is no harmonic one
    with pytest.raises(InconsistentSystem, match="residual"):
        _checked_table(proper, mu, {}, proper=False)


# SHA-256 of the to_json() texts of every biharmonic then harmonic basis
# table, joined by newlines, recorded from the solver that ran on rows of
# Fractions; the integer-row solver must reproduce these tables exactly
TABLE_DIGESTS = {
    ((1,), "-1"): "22d99049dc7132a62ee57fda59498e31f30b944cf7ceff1cc87e9c144becf480",
    ((1,), "-1/2"): "22d99049dc7132a62ee57fda59498e31f30b944cf7ceff1cc87e9c144becf480",
    ((1,), "3/5"): "22d99049dc7132a62ee57fda59498e31f30b944cf7ceff1cc87e9c144becf480",
    ((3,), "-1"): "9674305bd15b5cfa2aa933c2b5fa41a7b751eafbc68d69b4c6b808dd56b437ec",
    ((3,), "-1/2"): "702d5586a2fe927292a3945d89b458a5558ac9263aab0d7541619ed88c3450a7",
    ((3,), "3/5"): "75ec0da4458885685d69cece864269733b234b942f2b0764faff281bf9a41b98",
    ((2, 1), "-1"): "6cb1dad129333393913888b782834bdeed8b86f8afaf6c0f054ee07a525fd873",
    ((2, 1), "-1/2"): "b4c57527ba86d37b6e6a73c83dc631ec897fb058715fc8ce87ba7e4677ec7a1e",
    ((2, 1), "3/5"): "154fd122c41a7432497d43a2a1d1a1230ddcfbb7f55ab1d41d94007deee0035f",
    ((2, 2), "-1"): "df65b24c38c3e29ad9a4c095210445c0c66af0ecbf511ac053552234e8ca58ee",
    ((2, 2), "-1/2"): "4288c1b378c1aff3eb4706cde1086d0b095822e3cbd6ad5897405d82095a9a90",
    ((2, 2), "3/5"): "2d71dc72a85584d3eb783c85310f27fd6b42539c6e56fcb98e8172a1638b602d",
    ((6, 6), "-1"): "0567aae8b971b5b6e16ae421d0fb794f5a98e3eb9f06e702010dbedece3eb74b",
    ((6, 6), "-1/2"): "27c2fbeaf08e78536900cc5211e364675f1da6d1cd7868c230d216029b098e1a",
    ((6, 6), "3/5"): "cd704826f70d322127b2ec08dc8aaad302807dc550acb59a69d3863778e59019",
    ((3, 3, 3), "-1"): "8921948b650b0736b3180657872ca5701693e37dfb8481395bb689c243be4594",
    ((3, 3, 3), "-1/2"): "8cbc9433ea4ebd95922bde2a198aecc88a1d8f46f5b62673381068d2826fcf96",
    ((3, 3, 3), "3/5"): "ee8b225ad4c49ce55924dc05a5daf0bb8bd792783b99ecbebba31346f6571781",
    ((2, 2, 2, 2), "-1"): "2c9eff178de079febe970c163f229922a3e776cb62a64de180c5559a8c841b26",
    ((2, 2, 2, 2), "-1/2"): "4fa7e87609bf6e7bcd299f96fbcfb1fcb6679ce4879d60efed85e4106b175f53",
    ((2, 2, 2, 2), "3/5"): "6eb49acf178a676c3181c3c2e83ab3a78a1a8f0c93f9c686141ceafdb6d25558",
    ((1, 2, 3), "-1"): "b084cb623d3ef962b1d912f722597765c2e044470f9502666518737cf03a29d7",
    ((1, 2, 3), "-1/2"): "f104b6e03a3d03d0aec9f8ccb3b5af5059baf47b8ab8f2f248cda2bb2ed3c3ae",
    ((1, 2, 3), "3/5"): "d37b45639dc6f53c3cbb0879a396bdb300724679d29ff8c3bf7427cc5aec8119",
}


@pytest.mark.parametrize("degrees, mu", list(TABLE_DIGESTS), ids=str)
def test_family_tables_match_recorded_digests(degrees, mu):
    tables = biharmonic_family(degrees, Fraction(mu)) + harmonic_family(degrees, Fraction(mu))
    text = "\n".join(t.to_json() for t in tables)
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[degrees, mu]


def reference_refusal(degrees, mu, coeffs, proper):
    """The row check's message on a table, from the per-index reference rows
    applied to its Fractions; None if the rows accept it."""

    def image(values):
        sums = {idx: sum(c * values.get(k, 0) for k, c in tension_row(degrees, mu, idx).items())
                for idx in box_indices(degrees)}
        return {idx: v for idx, v in sums.items() if v}

    residual = image(coeffs)
    if proper:
        if not residual:
            return "proper direction came out harmonic"
        residual = image(residual)
    return f"table leaves a residual at index {next(iter(residual))}" if residual else None


# (2, 1) at mu = -1/2 at every index, and su(n)'s exact-solve boxes at its
# mu = -1 at a few: the zero index, the last unit index, the middle and
# the top corner
ROW_CHECK_CASES = [((2, 1), Fraction(-1, 2), off) for off in box_indices((2, 1))] + [
    (degrees, Fraction(-1), off)
    for degrees in [(6, 6), (3, 3, 3), (2, 2, 2, 2)]
    for off in [(0,) * len(degrees), (0,) * (len(degrees) - 1) + (1,), tuple(d // 2 for d in degrees), degrees]
]


@pytest.mark.parametrize(
    "degrees, mu, off", ROW_CHECK_CASES,
    ids=[str(off) if degrees == (2, 1) else f"{degrees}-{off}" for degrees, _, off in ROW_CHECK_CASES],
)
def test_graded_solver_checks_integer_rows_exactly(degrees, mu, off):
    # mu = -1/2 scales the integer rows by 2 while the (2, 1) tables have
    # thirds and ninths; one entry off by one must fail the check with its
    # pins and, pins dropped, on the rows alone, with the message the
    # reference rows give: the first index in box order left nonzero
    m = len(degrees)
    proper, *harm = biharmonic_family(degrees, mu)
    cases = [(proper, unit_pins(m, 1), True), *((t, unit_pins(m, 0, i), False) for i, t in enumerate(harm))]
    assert any(v.denominator > 1 for table, _, _ in cases for _, v in table.items())
    for table, pins, proper_kind in cases:
        coeffs = {idx: table.get(idx) for idx in box_indices(degrees)}
        assert _checked_table(CoeffTable(degrees, coeffs), mu, pins, proper_kind) == table
        coeffs[off] += 1
        bad = CoeffTable(degrees, coeffs)
        expected = reference_refusal(degrees, mu, coeffs, proper_kind)
        assert expected is not None
        with pytest.raises(InconsistentSystem, match="pinned" if off in pins else re.escape(expected)):
            _checked_table(bad, mu, pins, proper_kind)
        with pytest.raises(InconsistentSystem) as info:
            _checked_table(bad, mu, {}, proper_kind)
        assert str(info.value) == expected


@pytest.mark.parametrize("degrees", [(12, 12), (2, 2, 2, 2, 2)], ids=str)
def test_large_boxes_pass_the_row_check(degrees):
    # su(3) takes (12,12) and su(6) (2,2,2,2,2); mu = -1 for both
    mu = Fraction(GroupSpec.unitary(3).mu)
    m = len(degrees)
    proper = proper_biharmonic_table(degrees, mu)
    assert np.count_nonzero(proper.nums) > 100
    assert _checked_table(proper, mu, unit_pins(m, 1), proper=True) == proper
    for i, table in enumerate(harmonic_family(degrees, mu)):
        assert _checked_table(table, mu, unit_pins(m, 0, i), proper=False) == table


def test_tension_table_of_harmonic_is_zero():
    for degrees in ((3,), (1, 1), (2, 1)):
        for t in harmonic_family(degrees, -1):
            assert tension_table(t, -1).is_zero()


def test_tension_table_of_biharmonic_is_harmonic_direction():
    b2 = table_from_tuple(BIHARMONIC_TABLES[2])
    image = tension_table(b2, -1)
    assert image.proportional_to(table_from_tuple(HARMONIC_TABLES[2]))
    # applying the map twice annihilates any biharmonic table
    assert tension_table(image, -1).is_zero()


@pytest.mark.parametrize(
    "left, right, expected",
    [
        (CoeffTable((2,), {(1,): 2, (2,): 3}), CoeffTable((2,), {(1,): -4, (2,): -6}), True),
        (CoeffTable((2,), {(1,): 1}), CoeffTable((1, 1), {(1, 0): 1}), False),
        (CoeffTable((2,), {}), CoeffTable((2,), {}), True),
        (CoeffTable((2,), {}), CoeffTable((2,), {(1,): 1}), False),
        (CoeffTable((2,), {(1,): 1}), CoeffTable((2,), {(2,): 1}), False),
    ],
    ids=["scaled", "other-box", "both-zero", "one-zero", "other-support"],
)
def test_proportional_to(left, right, expected):
    assert left.proportional_to(right) is expected
    assert right.proportional_to(left) is expected


def test_coeff_table_against_non_tables_and_two_variables():
    table = CoeffTable((1, 1), {(1, 0): 1})
    assert table != (1, 0)
    with pytest.raises(DimensionMismatch, match="one-variable"):
        table.single_degree()


def test_tension_table_unit_column():
    image = tension_table(CoeffTable((1, 1), {(0, 0): 1}), -1)
    assert image.get((0, 1)) == 2 and image.get((1, 0)) == 2
    assert image.get((0, 0)) == 0 and image.get((1, 1)) == 0


TENSION_ROW_CASES = [
    *itertools.product([(1,), (2, 1), (3, 3, 3), (2, 2, 2, 2)], [-1, Fraction(-1, 2), Fraction(3, 5)]),
    # su(3)'s box at a mu whose proper table has numerators past 2**63
    ((12, 12), Fraction(3, 5)),
]


@pytest.mark.parametrize("degrees, mu", TENSION_ROW_CASES, ids=[f"{d}-{mu}" for d, mu in TENSION_ROW_CASES])
def test_tension_rows_vanish_outside_the_box(degrees, mu):
    # tension_table sums only the rows of the box: on any in-box table the
    # row at an index with some k_j = d_j + 1 must sum to 0, and the rows of
    # the box, over mu's denominator, are the tension table
    mu = Fraction(mu)
    rng = np.random.default_rng(len(degrees))
    tables = [
        CoeffTable(degrees, {
            idx: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))) for idx in box_indices(degrees)
        })
        for _ in range(5)
    ]
    if degrees == (12, 12):
        proper = proper_biharmonic_table(degrees, mu)
        den = math.lcm(*(v.denominator for _, v in proper.items()))
        assert max(abs(v.numerator) * (den // v.denominator) for _, v in proper.items()) > 2**63
        tables.append(proper)
    for table in tables:
        image = tension_table(table, mu)
        for idx in itertools.product(*(range(d + 2) for d in degrees)):
            value = sum(c * table.get(k) for k, c in tension_row(degrees, mu, idx).items())
            if all(k <= d for k, d in zip(idx, degrees)):
                assert value == image.get(idx) * mu.denominator
            else:
                assert value == 0, idx


def test_coeff_table_json_round_trip():
    table = biharmonic_family((2, 1), Fraction(-1, 2))[0]
    clone = CoeffTable.from_json(table.to_json())
    assert clone == table
    text = table.to_json(GroupSpec.quaternionic_unitary(3), Fraction(-1, 2))
    doc = json.loads(text)
    assert (doc["schema"], doc["group"], doc["n"], doc["mu"]) == (TABLE_SCHEMA, "sp", 3, "-1/2")
    assert CoeffTable.from_json(text) == table
    doc["schema"] = TABLE_SCHEMA + 1
    with pytest.raises(ValueError, match="schema"):
        CoeffTable.from_json(json.dumps(doc))


def reference_json(table, spec=None, mu=None):
    """The table document through json.dumps, which CoeffTable.to_json must match byte for byte."""
    entries = [{"k": list(k), "num": str(v.numerator), "den": str(v.denominator)} for k, v in table.items()]
    doc = {"degrees": list(table.degrees), "coeffs": entries}
    if spec is not None:
        doc.update(schema=TABLE_SCHEMA, group=spec.code, n=spec.n, mu=str(Fraction(mu)))
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "table",
    [
        CoeffTable((2, 1), {}),
        CoeffTable((3,), {(2,): Fraction(-1234567, 89), (0,): 7}),
        proper_biharmonic_table((12, 12), Fraction(-1, 2)),
        harmonic_family((2, 1), Fraction(3, 5))[1],
    ],
    ids=["empty", "one-variable", "(12,12)", "(2,1)"],
)
def test_coeff_table_json_matches_reference_encoder(table):
    if table.degrees == (12, 12):  # two-digit indices, negative multi-digit numerators
        assert any(max(k) >= 10 for k, _ in table.items())
        assert min(v.numerator for _, v in table.items()) < -9
    for spec, mu in [(None, None), (GroupSpec.unitary(3), -1), (SP2, Fraction(-1, 2))]:
        assert table.to_json(spec, mu) == reference_json(table, spec, mu)


def test_coeff_table_json_refuses_another_group():
    table = biharmonic_family((2,), -1)[0]
    su4, so8 = GroupSpec.unitary(4), GroupSpec.special_orthogonal(8)
    text = table.to_json(su4, -1)
    assert CoeffTable.from_json(text, su4) == table
    assert CoeffTable.from_json(text) == table
    with pytest.raises(BiforgeError) as info:
        CoeffTable.from_json(text, so8)
    assert str(info.value) == (
        "coefficient table does not match the quadruple: "
        "group=su (quadruple: so), n=4 (quadruple: 8), mu=-1 (quadruple: -1/2)"
    )


@pytest.mark.parametrize("idx", [(3,), (-1,), (1, 1)])
def test_coeff_table_rejects_index_outside_box(idx):
    # a stored out-of-box entry would read as zero to tension_table
    with pytest.raises(DimensionMismatch, match="outside the degree box"):
        CoeffTable((2,), {idx: 1})


def test_coeff_table_is_kept_in_lowest_terms_over_a_positive_denominator():
    # one form per rational table, however it was reached: equality, the
    # json text and proportionality read the numerator array and its den
    degrees, mu = (2, 1), Fraction(-1)
    family = biharmonic_family(degrees, mu)
    solved = family[0]
    # mu < 0 makes the closed form's denominator (2*a)**D negative
    assert solved.den > 0 and math.gcd(solved.den, *solved.nums.flat) == 1
    assert repr(solved) == "CoeffTable(degrees=(2, 1), nnz=4, den=2)"
    doc = json.loads(solved.to_json())
    assert all(int(entry["den"]) > 0 for entry in doc["coeffs"])
    # unreduced entries over negative denominators, as a hand-written file may hold them
    for i, entry in enumerate(doc["coeffs"]):
        entry.update(num=str(-(i + 2) * int(entry["num"])), den=str(-(i + 2) * int(entry["den"])))
    assert CoeffTable.from_json(json.dumps(doc)) == solved
    assert CoeffTable(degrees, dict(solved.items())) == solved
    # scaled up then down: the sum is put back in lowest terms
    assert combine([CoeffTable(degrees, {k: 6 * v for k, v in solved.items()})], [Fraction(1, 6)]) == solved

    for zero in (CoeffTable(degrees, {}), CoeffTable(degrees, {(1, 0): 0}), tension_table(family[1], mu)):
        assert zero.den == 1 and zero.is_zero()
    with pytest.raises(DimensionMismatch, match="positive integers"):
        CoeffTable((), {})

    scaled = combine([solved], [Fraction(7, 3)])
    assert scaled.den != solved.den
    assert scaled.proportional_to(solved) and solved.proportional_to(scaled)
    assert not solved.proportional_to(family[1])

    weights = [Fraction(1, 2), Fraction(-2, 3), 5]
    expected = {idx: sum(w * t.get(idx) for w, t in zip(weights, family)) for idx in box_indices(degrees)}
    assert combine(family, weights) == CoeffTable(degrees, expected)


def test_build_expression_validation_and_zero():
    table = harmonic_coefficients(2, -1)
    with pytest.raises(DimensionMismatch):
        build_expression(table, [])
    zero = CoeffTable((2,), {})
    expr = build_expression(zero, [(Const(1.0), Const(0.0))])
    assert expr.evaluate(np.eye(2, dtype=complex)) == 0


def test_build_expression_harmonic_member(ctx_for):
    fam = make_quadruple(U3, [1, 2, -1], [3, 1j, 0.5], [1, 1, 1], [1, 1, 1], beta=0)
    i = fam.proper_indices[0]
    pairs = [(fam.member_quotient(i), fam.member_tension(i))]
    h3 = build_expression(harmonic_coefficients(3, -1), pairs)
    ctx = ctx_for(U3)
    points = sample_domain_points([h3, pairs[0][1]], U3, 5, 3100)
    for point in points:
        value = h3.evaluate(point)
        assert abs(tension(h3, point, ctx)) <= 1e-8 * max(1.0, abs(value))


def test_build_expression_shares_one_power_chain_per_factor():
    # f**e is the node f**(e - 1) * f: the powers of f, and of tau f, that a
    # degree-d table reads make one chain of d - 1 products, where separate
    # powers would multiply sum(e - 1) times
    fam = make_quadruple(U3, [1, 2, -1], [3, 1j, 0.5], [1, 1, 1], [1, 1, 1], beta=0)
    i = fam.proper_indices[0]
    f, tf = fam.member_quotient(i), fam.member_tension(i)
    d = 4
    expr = build_expression(biharmonic_family((d,), fam.mu)[0], [(f, tf)])
    order, _ = walk_order([expr])
    for base in (f, tf):
        chain = [
            node for node in order
            if isinstance(node, Product) and node.factors[-1] is base and not isinstance(node.factors[0], Const)
        ]
        assert len(chain) == d - 1
        assert [node.factors[0] for node in chain] == [base, *chain[:-1]]


def test_eigenfamily_constants_and_members(ctx_for):
    fam = make_quadruple(U3, [1, 2, -1], [3, 1j, 0.5], [1, 1, 1], [1, 1, 1], beta=0)
    ctx = ctx_for(U3)
    for k, lam, kap in ((1, 0.0, -2.0), (2, -4.0, -8.0)):
        members = tension_power_family(fam, k)
        assert len(members) == fam.n_proper
        assert eigenfamily_constants(U3.mu, k) == (lam, kap)
        points = sample_domain_points(members, U3, 5, 3200 + k)
        for m in points:
            values = [e.evaluate(m) for e in members]
            for i, e in enumerate(members):
                assert relative_residual(tension(e, m, ctx), lam * values[i]) <= 1e-9
                for j in range(i, len(members)):
                    actual = conformality(e, members[j], m, ctx)
                    assert relative_residual(actual, kap * values[i] * values[j]) <= 1e-9


def test_tension_power_family_validation():
    fam = make_quadruple(U3, [1, 2, -1], [3, 1j, 0.5], [1, 1, 1], [1, 1, 1], beta=0)
    with pytest.raises(DimensionMismatch, match="positive integer"):
        tension_power_family(fam, 0)
    # sp(1) rows are 1-vectors, always dependent, so no member is proper
    harmonic = make_quadruple(GroupSpec.quaternionic_unitary(1), [1], [2j], [1], [1], sp_choice=9)
    assert harmonic.n_members == 1 and harmonic.n_proper == 0
    with pytest.raises(ZeroVector, match="no proper members"):
        tension_power_family(harmonic, 1)


def test_eigenfamily_sp_constant(ctx_for):
    fam = make_quadruple(SP2, [1, 2], [1j, 1], [1, 1], [1, 0.5], sp_choice=10)
    members = tension_power_family(fam, 1)
    ctx = ctx_for(SP2)
    points = sample_domain_points(members, SP2, 5, 3300)
    # mu = -1/2 gives kappa(phi, psi) = -phi psi
    for m in points:
        values = [e.evaluate(m) for e in members]
        actual = conformality(members[0], members[1], m, ctx)
        assert relative_residual(actual, -values[0] * values[1]) <= 1e-9


def test_orthogonal_column_family(ctx_for):
    ctx = ctx_for(U3)
    family = column_ratio_family([1.0, 0.5j, 2.0], U3, beta=0)
    assert len(family) == 2
    points = sample_domain_points(family, U3, 6, 3400)
    for point in points:
        for i, phi in enumerate(family):
            assert abs(tension(phi, point, ctx)) <= 1e-9
            for j in range(i, len(family)):
                assert abs(conformality(phi, family[j], point, ctx)) <= 1e-9


def test_column_ratio_family_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        column_ratio_family([1.0, 2.0], SP2)
    with pytest.raises(DimensionMismatch):
        column_ratio_family([1.0, 2.0], U3)
    with pytest.raises(ZeroVector):
        column_ratio_family([0.0, 0.0, 0.0], U3)
    with pytest.raises(DimensionMismatch):
        column_ratio_family([1.0, 2.0, 3.0], U3, beta=3)


def test_orthogonal_family_single_member_and_composition(ctx_for):
    family = column_ratio_family([1.0, -2.0], U2, beta=1)
    assert len(family) == 1
    phi = family[0]
    ctx = ctx_for(U2)
    points = sample_domain_points(family, U2, 6, 3500)
    composed = phi**2  # holomorphic composition stays harmonic and conformal
    for point in points:
        assert abs(conformality(phi, phi, point, ctx)) <= 1e-9
        value = composed.evaluate(point)
        assert abs(tension(composed, point, ctx)) <= 1e-8 * max(1.0, abs(value))
        assert abs(conformality(composed, composed, point, ctx)) <= 1e-8 * max(
            1.0, abs(value) ** 2
        )


def test_rational_morphism_from_eigenfamily(ctx_for):
    fam = make_quadruple(U3, [1, 2, -1], [3, 1j, 0.5], [1, 1, 1], [1, 1, 1], beta=0)
    members = tension_power_family(fam, 1)[:2]
    ctx = ctx_for(U3)
    for num, den in (
        ({(1, 0): 1.0}, {(0, 1): 1.0}),
        ({(2, 0): 1.0}, {(1, 1): 1.0}),
    ):
        morphism = rational_morphism(members, num, den)
        points = sample_domain_points([morphism], U3, 5, 3600)
        for point in points:
            value = morphism.evaluate(point)
            assert abs(tension(morphism, point, ctx)) <= 1e-8 * max(1.0, abs(value))
            assert abs(conformality(morphism, morphism, point, ctx)) <= 1e-8 * max(
                1.0, abs(value) ** 2
            )


def test_rational_morphism_validation():
    fam = make_quadruple(U3, [1, 2, -1], [3, 1j, 0.5], [1, 1, 1], [1, 1, 1], beta=0)
    members = tension_power_family(fam, 1)[:2]
    with pytest.raises(DegenerateQuotient):
        rational_morphism(members, {(1, 0): 2.0}, {(1, 0): 1.0})
    with pytest.raises(DimensionMismatch):
        rational_morphism(members, {(1, 0): 1.0}, {(0, 2): 1.0})
    with pytest.raises(DimensionMismatch):
        rational_morphism(members, {(1, 0, 0): 1.0}, {(0, 1): 1.0})
    for exp in [(1.5, 0.5), (True, False)]:
        with pytest.raises(DimensionMismatch, match=rf"exponent tuple \({exp[0]}, {exp[1]}\)"):
            rational_morphism(members, {exp: 1.0}, {exp[::-1]: 1.0})
    with pytest.raises(DimensionMismatch, match="homogeneous"):
        rational_morphism(members, {(1, 0): 1.0, (2, 0): 1.0}, {(0, 1): 1.0})
    with pytest.raises(ZeroVector, match="empty polynomial"):
        rational_morphism(members, {}, {(0, 1): 1.0})
    with pytest.raises(ZeroVector):
        rational_morphism([], {}, {})
    with pytest.raises(ZeroVector):
        rational_morphism(members, {(1, 0): 0.0}, {(0, 1): 0.0})


def test_family_kinds_and_combo_validation():
    harm = harmonic_family((1, 1), -1)
    with pytest.raises(DimensionMismatch):
        combine(harm, [1])
    with pytest.raises(DimensionMismatch):
        combine([harm[0], harmonic_family((2, 1), -1)[0]], [1, 1])
    bih = biharmonic_family((1, 1), -1)
    assert len(bih[1:]) == 2
    for t in bih[1:]:
        assert tension_table(t, -1).is_zero()
    with pytest.raises(ZeroVector, match="mu must be nonzero"):
        harmonic_family((1, 1), 0)


def test_construct_solves_only_the_table_it_writes(tmp_path, monkeypatch):
    # construct writes the proper table alone; the harmonic basis is only
    # built on request, so construct must succeed with it unavailable
    degrees, mu = (2, 2, 2, 2), Fraction(-1)
    expected = biharmonic_family(degrees, mu)[0]

    def no_basis(*args):
        raise AssertionError("construct built the harmonic basis")

    monkeypatch.setattr(construct, "harmonic_family", no_basis)
    monkeypatch.setattr(cli, "harmonic_family", no_basis)
    argv = ["construct", "--group", "su", "--n", "5", "--degrees", "2,2,2,2", "--seed", "1",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    text = (tmp_path / "coeffs.json").read_text()
    assert text == expected.to_json(GroupSpec.unitary(5), mu) + "\n"
    assert CoeffTable.from_json(text) == expected


def test_construct_family_computes_no_form_scale(tmp_path, monkeypatch):
    # construct writes the family's vectors and reads no coefficient scale,
    # so its 2n + 2 forms compute none; a Quotient computes its denominator's
    built = []

    def build_family(*args):
        built.append(build(*args))
        return built[-1]

    build = cli._build_family
    monkeypatch.setattr(cli, "_build_family", build_family)
    argv = ["construct", "--group", "su", "--n", "5", "--degrees", "2,2,2,2", "--seed", "1",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    (fam,) = built
    forms, den = fam.all_forms(), fam.denominator
    assert len(forms) == 2 * 5 + 2
    assert not any(hasattr(form, "_scale") for form in forms)
    assert fam.member_quotient(0).den_scale == np.linalg.norm(den.u) * np.linalg.norm(den.v)
    assert [hasattr(form, "_scale") for form in forms] == [form is den for form in forms]
