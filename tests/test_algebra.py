"""Jet arithmetic against independent oracles.

Ring laws are exact over Fraction coefficients; over complex floats the
same identities hold to rounding.  Derivatives are checked against
central finite differences, and the nested-jet mixed coefficient against
an exact bivariate polynomial expansion written out independently here.
Packed Laplacian jets are checked exactly against nested Jet2 over
Fraction, one outer and one basis direction at a time.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biforge.algebra import Jet2, PackedJet, _outer_product_matrix, _outer_sums, jet_reciprocal, leading_value
from biforge.errors import DegenerateJetDivision

fractions_st = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
jets_st = st.builds(Jet2, fractions_st, fractions_st, fractions_st)
nonzero_jets_st = st.builds(
    Jet2, fractions_st.filter(lambda f: f != 0), fractions_st, fractions_st
)


def test_identity_and_coordinate_products():
    one = Jet2(1, 0, 0)
    x = Jet2(2.5 + 1j, -0.5, 3.0)
    assert (one * x).as_tuple() == x.as_tuple()
    s = Jet2(0, 1, 0)
    assert (s * s).as_tuple() == (0, 0, 1)
    assert (s**3).as_tuple() == (0, 0, 0)


def test_division_long_division_oracle():
    # (2+s)/(1+s) = 2 - s + s^2 + O(s^3), by expanding (2+s)(1 - s + s^2)
    x = Jet2(Fraction(2), Fraction(1), Fraction(0))
    y = Jet2(Fraction(1), Fraction(1), Fraction(0))
    assert (x / y).as_tuple() == (2, -1, 1)


def test_pow_examples():
    assert (Jet2(1, 1, 0) ** 2).as_tuple() == (1, 2, 1)
    assert (Jet2(3.5, -2.0, 1.0) ** 0).as_tuple() == (1, 0, 0)
    # 1/(2+s) = 1/2 - s/4 + s^2/8
    assert (Jet2(2, 1, 0) ** -1).as_tuple() == (0.5, -0.25, 0.125)
    with pytest.raises(TypeError, match="integers"):
        Jet2(1, 1, 0) ** 1.5


def test_division_by_zero_leading_value():
    with pytest.raises(DegenerateJetDivision):
        Jet2(1, 0, 0) / Jet2(0, 1, 0)
    # nested: the divisor's innermost value part is zero
    nested = Jet2(Jet2(0, 1, 0), Jet2(1, 0, 0), Jet2(0, 0, 0))
    with pytest.raises(DegenerateJetDivision):
        Jet2(Jet2(1, 0, 0), 0, 0) / nested


@settings(max_examples=150, deadline=None)
@given(jets_st, jets_st, jets_st)
def test_ring_laws_exact_over_fractions(x, y, z):
    assert ((x + y) + z) == (x + (y + z))
    assert (x * y) == (y * x)
    assert (x * (y + z)) == (x * y + x * z)
    assert ((x * y) * z) == (x * (y * z))


@settings(max_examples=100, deadline=None)
@given(jets_st, nonzero_jets_st)
def test_division_inverts_multiplication_exactly(x, y):
    assert (x / y) * y == x


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=-(2**63), max_value=2**63),
    st.integers(min_value=1, max_value=2**63),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.integers(min_value=1, max_value=2**63),
)
def test_rational_arithmetic_exact(a, b, c, d):
    assert (Fraction(a, b) + Fraction(c, d)) * b * d == a * d + c * b


def _smooth_map(u):
    # rational map built from the supported ring operations; the
    # denominator is bounded away from zero for |u| <= 1.5
    return (u * u * u - 2 * u + 1) / (u * u + 3)


def test_jet_matches_central_differences():
    rng = np.random.default_rng(5)
    h = 1e-4
    for _ in range(10):
        a0, a1, a2 = (rng.normal(3) * 0.4 + 1j * rng.normal(3) * 0.4 for _ in range(3))
        a0, a1, a2 = complex(a0), complex(a1), complex(a2)

        def path(s):
            return _smooth_map(a0 + a1 * s + a2 * s * s)

        jet = _smooth_map(Jet2(a0, a1, a2))
        d1 = (path(h) - path(-h)) / (2 * h)
        d2 = (path(h) - 2 * path(0.0) + path(-h)) / (h * h)
        assert abs(jet.a1 - d1) <= 1e-6 * max(1.0, abs(d1))
        assert abs(2 * jet.a2 - d2) <= 1e-6 * max(1.0, abs(d2))


def _poly4(u):
    return ((u + 2) * u - 1) * u * u + 3 * u + 5


def _eval_series(coeffs, s, t):
    # coeffs[i][j] multiplies s**i t**j
    return sum(coeffs[i][j] * s**i * t**j for i in range(3) for j in range(3))


def test_nested_jets_match_finite_differences():
    # mixed d^2/ds^2 d^2/dt^2 of a degree-4 polynomial composed with a
    # two-parameter quadratic path, against Richardson-extrapolated
    # double central second differences
    rng = np.random.default_rng(11)
    for _ in range(6):
        coeffs = (0.4 * rng.normal(size=(3, 3)) + 0.4j * rng.normal(size=(3, 3)))
        nested = Jet2(
            Jet2(coeffs[0][0], coeffs[0][1], coeffs[0][2]),
            Jet2(coeffs[1][0], coeffs[1][1], coeffs[1][2]),
            Jet2(coeffs[2][0], coeffs[2][1], coeffs[2][2]),
        )
        result = _poly4(nested)
        mixed_from_jet = 4.0 * complex(result.a2.a2)

        def f(s, t):
            return _poly4(_eval_series(coeffs, s, t))

        def double_second(hs, ht):
            total = 0.0
            for ws, i in ((1, 1), (-2, 0), (1, -1)):
                for wt, j in ((1, 1), (-2, 0), (1, -1)):
                    total += ws * wt * f(i * hs, j * ht)
            return total / (hs * hs * ht * ht)

        h = 0.05
        fd = (
            16 * double_second(h / 2, h / 2)
            - 4 * double_second(h / 2, h)
            - 4 * double_second(h, h / 2)
            + double_second(h, h)
        ) / 9
        assert abs(mixed_from_jet - fd) <= 1e-5 * max(1.0, abs(fd))


def test_nested_jets_match_exact_polynomial_expansion():
    # independent exact oracle: multiply bivariate polynomials over
    # Fraction without any truncation, then read the s^2 t^2 coefficient
    def poly_mul(p, q):
        out = {}
        for (i, j), c in p.items():
            for (k, l), d in q.items():
                key = (i + k, j + l)
                out[key] = out.get(key, Fraction(0)) + c * d
        return out

    rng = np.random.default_rng(23)
    for _ in range(5):
        vals = [Fraction(int(v), 7) for v in rng.integers(-20, 20, size=9)]
        series = {
            (i, j): vals[3 * i + j] for i in range(3) for j in range(3)
        }
        nested = Jet2(
            Jet2(series[(0, 0)], series[(0, 1)], series[(0, 2)]),
            Jet2(series[(1, 0)], series[(1, 1)], series[(1, 2)]),
            Jet2(series[(2, 0)], series[(2, 1)], series[(2, 2)]),
        )
        # P(u) = u^3 - 2u^2 + 5
        jet_value = nested**3 - 2 * (nested**2) + 5
        u = dict(series)
        u2 = poly_mul(u, u)
        u3 = poly_mul(u2, u)
        exact = {}
        for key, c in u3.items():
            exact[key] = exact.get(key, Fraction(0)) + c
        for key, c in u2.items():
            exact[key] = exact.get(key, Fraction(0)) - 2 * c
        exact[(0, 0)] = exact.get((0, 0), Fraction(0)) + 5
        assert jet_value.a2.a2 == exact.get((2, 2), Fraction(0))


def test_constant_lift_and_leading_value():
    c = Jet2.constant(4 - 2j)
    assert c.as_tuple() == (4 - 2j, 0, 0)
    nested = Jet2(Jet2(7.0, 1.0, 0.0), Jet2(0.0, 0.0, 0.0), Jet2(0.0, 0.0, 0.0))
    assert leading_value(nested) == 7.0


def test_scalar_mixing():
    x = Jet2(2.0 + 0j, 1.0, 0.5)
    assert (3 * x).as_tuple() == (6, 3, 1.5)
    assert (x + 1).a0 == 3.0
    assert (1 - x).as_tuple() == (-1, -1, -0.5)
    assert (1 / x).a0 == 0.5
    assert (x / 2).as_tuple() == (1, 0.5, 0.25)
    assert x != 1


def test_mul_jet_by_nested_scalar_zero():
    inner = Jet2(1.0 + 0j, 2.0, 3.0)
    outer = Jet2(inner, 0, 0)
    prod = outer * outer
    assert prod.a0 == inner * inner
    assert leading_value(prod.a1) == 0 and leading_value(prod.a2) == 0


def _random_packed(rng, points, orders, directions, nonzero_value=False):
    """A packed jet over Fraction with K = ``orders`` outer rows, and the
    nested Jet2 it stands for at every point, outer direction i and basis
    direction b: t_i outer, s inner.  The second coefficients in s and the
    t_i**2 layers are summed in the packed jet; their split over the
    directions is arbitrary."""
    def fractions(shape):
        nums = rng.integers(-9, 10, size=shape)
        dens = rng.integers(1, 6, size=shape)
        return np.vectorize(Fraction, otypes=[object])(nums, dens)

    outer = max(orders - 2, 1)
    rows = orders if orders == 1 else orders - 1
    # a (value, first, second) triple for every row but the t**2 row, and
    # one for every outer direction's share of it
    value, firsts, seconds = fractions((points, rows)), fractions((points, rows, directions)), fractions((points, rows, directions))
    if nonzero_value:
        value[:, 0] = np.where(value[:, 0] == 0, Fraction(1, 3), value[:, 0])
    shares = [fractions((points, outer)), fractions((points, outer, directions)), fractions((points, outer, directions))]
    c = np.empty((points, orders, directions + 2), dtype=object)
    c[:, :rows, 0], c[:, :rows, 1:-1], c[:, :rows, -1] = value, firsts, seconds.sum(axis=-1)
    if orders > 1:
        c[:, -1, 0], c[:, -1, 1:-1], c[:, -1, -1] = shares[0].sum(axis=1), shares[1].sum(axis=1), shares[2].sum(axis=(1, 2))

    def layer(p, row, b):
        return Jet2(value[p, row], firsts[p, row, b], seconds[p, row, b])

    def nested(p, i, b):
        if orders == 1:
            return layer(p, 0, b)
        return Jet2(layer(p, 0, b), layer(p, 1 + i, b), Jet2(shares[0][p, i], shares[1][p, i, b], shares[2][p, i, b]))

    return PackedJet(c), [[[nested(p, i, b) for b in range(directions)] for i in range(outer)] for p in range(points)]


def _map(fn, *trees):
    # fn applied to the nested jets of every point, outer and basis direction
    return [[[fn(*jets) for jets in zip(*bs)] for bs in zip(*per_outer)] for per_outer in zip(*trees)]


def _assert_row(row, layers):
    # layers[i][b], the inner Jet2 of outer direction i and basis direction b,
    # summed over i into one packed row
    for b in range(len(layers[0])):
        assert sum(per_b[b].a0 for per_b in layers) == row[0]
        assert sum(per_b[b].a1 for per_b in layers) == row[1 + b]
    assert sum(jet.a2 for per_b in layers for jet in per_b) == row[-1]


def _assert_packs(packed, nested):
    # nested[p][i][b], as _random_packed returns; the t**2 row sums the
    # outer directions, every other row is one outer direction's
    c = packed.c
    for point, per_outer in enumerate(nested):
        if c.shape[1] == 1:
            _assert_row(c[point, 0], per_outer)
            continue
        for i, per_b in enumerate(per_outer):
            _assert_row(c[point, 0], [[jet.a0 for jet in per_b]])
            _assert_row(c[point, 1 + i], [[jet.a1 for jet in per_b]])
        _assert_row(c[point, -1], [[jet.a2 for jet in per_b] for per_b in per_outer])


@pytest.mark.parametrize("orders", [1, 3, 4, 6])
def test_packed_product_and_reciprocal_exact_over_fractions(orders):
    # K = 1 (no outer direction), the 3-term t-series of one outer
    # direction, and D = 2 and 4 outer directions in the collapsed algebra
    rng = np.random.default_rng(41 + orders)
    f, fs = _random_packed(rng, 2, orders, 3)
    g, gs = _random_packed(rng, 2, orders, 3, nonzero_value=True)
    assert f.c.dtype == object
    _assert_packs(f * g, _map(lambda x, y: x * y, fs, gs))
    _assert_packs(jet_reciprocal(g), _map(lambda y: 1 / y, gs))
    _assert_packs(f / g, _map(lambda x, y: x / y, fs, gs))
    _assert_packs(Fraction(-5, 7) / g, _map(lambda y: Fraction(-5, 7) / y, gs))
    _assert_packs(3 + f * Fraction(1, 2), _map(lambda x: 3 + x * Fraction(1, 2), fs))
    assert list(leading_value(g)) == [leading_value(per_outer[0][0]) for per_outer in gs]


def test_packed_reciprocal_of_zero_value_raises():
    c = np.zeros((2, 3, 4), dtype=complex)
    c[:, 0, 0] = [1.0, 0.0]
    with pytest.raises(DegenerateJetDivision):
        jet_reciprocal(PackedJet(c))
    # a quotient checks the same value, whatever the other columns hold
    c[..., 1:] = 1.0
    with pytest.raises(DegenerateJetDivision):
        PackedJet(np.ones((2, 3, 4), dtype=complex)) / PackedJet(c)
    with pytest.raises(DegenerateJetDivision):
        2.0 / PackedJet(c)


@pytest.mark.parametrize("shape", [(4, 3, 38), (5, 1, 66)])
def test_packed_quotient_times_divisor_round_trips(shape):
    # complex f / g times g gives f back, every column of every order
    rng = np.random.default_rng(sum(shape))

    def normal():
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    f, g = PackedJet(normal()), PackedJet(normal())
    g.c[:, 0, 0] += 4
    back = (f / g) * g
    assert np.max(np.abs(back.c - f.c)) <= 1e-14 * np.max(np.abs(f.c))


def _scattered_toeplitz(s):
    # a zero array with s[i - j] scattered into every entry i >= j
    k = s.shape[-1]
    rows, cols = np.tril_indices(k)
    out = np.zeros(s.shape + (k,), dtype=s.dtype)
    out[..., rows, cols] = s[..., rows - cols]
    return out


def _written_out_product_matrix(s):
    # column j is s times the j-th unit of [1, t_1 .. t_D, T], by the
    # product written out: t_i t_j = 0 for i != j and t_i**2 = T
    k = s.shape[-1]
    out = np.zeros(s.shape + (k,), dtype=s.dtype)
    for index in np.ndindex(s.shape[:-1]):
        x = s[index]
        for j in range(k):
            y = [int(i == j) for i in range(k)]
            column = [x[0] * y[0]] + [x[0] * y[i] + x[i] * y[0] for i in range(1, k)]
            column[-1] += sum(x[i] * y[i] for i in range(1, k - 1))
            out[index + (slice(None), j)] = column
    return out


def _written_out_outer_sums(g):
    # the sum of the products g[i, j] of the units i and j of
    # [1, t_1 .. t_D, T]: 1 times a unit is that unit, t_i t_i = T, and
    # every other product of two units is 0
    k = g.shape[-1]
    out = np.zeros(g.shape[:-1], dtype=g.dtype)
    for index in np.ndindex(g.shape[:-2]):
        for i, j in np.ndindex(k, k):
            unit = j if i == 0 else i if j == 0 else k - 1 if i == j < k - 1 else None
            if unit is not None:
                out[index + (unit,)] += g[index + (i, j)]
    return out


@pytest.mark.parametrize("orders", [1, 2, 3, 5, 6, 12])
def test_outer_product_matrix_matches_scatter(orders):
    # the outer algebra's multiplication matrices: up to K = 3 the
    # lower-triangular Toeplitz matrices of t-series, and for every K the
    # written-out products; equal on complex input, exact on Fraction input
    rng = np.random.default_rng(43 + orders)
    s = rng.normal(size=(4, 2, orders)) + 1j * rng.normal(size=(4, 2, orders))
    m = _outer_product_matrix(s)
    if orders <= 3:
        assert m.tobytes() == _scattered_toeplitz(s).tobytes()
    assert np.array_equal(m, _written_out_product_matrix(s))
    exact = np.array([[Fraction(k + 1, 3 + j) for k in range(orders)] for j in range(2)], dtype=object)
    product = _outer_product_matrix(exact)
    if orders <= 3:
        assert np.array_equal(product, _scattered_toeplitz(exact))
    assert np.array_equal(product, _written_out_product_matrix(exact))
    # and the product it stands for, exactly: m(x) @ y = m(y) @ x
    other = exact[::-1] + Fraction(1, 7)
    assert np.array_equal((product @ other[..., None])[..., 0], (_outer_product_matrix(other) @ exact[..., None])[..., 0])


@pytest.mark.parametrize("orders", [1, 3, 6, 12])
def test_outer_sums_match_written_out_definition(orders):
    # on complex128 and on Fraction inputs; the complex entries are
    # Gaussian integers, whose sums are exact in any order, so the two
    # agree bit for bit, and a transposed view is read as its values
    rng = np.random.default_rng(71 + orders)
    g = rng.integers(-50, 50, size=(2, 3, orders, orders)) + 1j * rng.integers(-50, 50, size=(2, 3, orders, orders))
    for pairs in (g, g.swapaxes(-1, -2)):
        assert np.array_equal(_outer_sums(pairs), _written_out_outer_sums(pairs))
    exact = np.array(
        [[[Fraction(i - j + b, 1 + i + 2 * j + b) for j in range(orders)] for i in range(orders)] for b in range(2)],
        dtype=object,
    )
    sums = _outer_sums(exact)
    assert sums.dtype == object
    assert np.array_equal(sums, _written_out_outer_sums(exact))
