"""Group realizations: bases, sampled points, jet translation."""

import numpy as np
import pytest

import biforge.groups
from biforge.algebra import Jet2, translate
from biforge.errors import ShapeError
from biforge.forms import LinearForm
from biforge.groups import GroupSpec, sample_point, sample_points
from reference import basis

ALL_SPECS = [
    GroupSpec.unitary(2),
    GroupSpec.unitary(3),
    GroupSpec.unitary(4),
    GroupSpec.special_orthogonal(4),
    GroupSpec.special_orthogonal(5),
    GroupSpec.special_orthogonal(6),
    GroupSpec.quaternionic_unitary(1),
    GroupSpec.quaternionic_unitary(2),
    GroupSpec.quaternionic_unitary(3),
]


def test_basis_cardinalities():
    assert len(basis(GroupSpec.unitary(2))) == 4
    assert len(basis(GroupSpec.special_orthogonal(4))) == 6
    assert len(basis(GroupSpec.quaternionic_unitary(2))) == 10


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.code}{s.n}")
def test_basis_cardinality_formula(spec):
    expected = {
        "su": spec.n**2,
        "so": spec.n * (spec.n - 1) // 2,
        "sp": spec.n * (2 * spec.n + 1),
    }[spec.code]
    assert len(basis(spec)) == expected


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.code}{s.n}")
def test_basis_orthonormal_gram(spec):
    elems = basis(spec)
    gram = np.array(
        [
            [np.real(np.trace(a.matrix @ b.matrix.conj().T)) for b in elems]
            for a in elems
        ]
    )
    assert np.max(np.abs(gram - np.eye(len(elems)))) <= 1e-13


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.code}{s.n}")
def test_basis_brackets_vanish(spec):
    for elem in basis(spec):
        z = elem.matrix
        bracket = z @ z.conj().T - z.conj().T @ z
        assert np.max(np.abs(bracket)) <= 1e-14


def test_group_constants():
    assert GroupSpec.unitary(3).eigenvalue == -3
    assert GroupSpec.special_orthogonal(5).eigenvalue == -2
    assert GroupSpec.quaternionic_unitary(2).eigenvalue == -2.5
    assert GroupSpec.unitary(3).mu == -1
    assert GroupSpec.special_orthogonal(4).mu == -0.5
    assert GroupSpec.quaternionic_unitary(2).mu == -0.5
    assert GroupSpec.quaternionic_unitary(2).ambient_dim == 4


def test_size_constraints():
    with pytest.raises(ShapeError):
        GroupSpec.unitary(1)
    with pytest.raises(ShapeError, match="n must be >= 4"):
        GroupSpec.special_orthogonal(3)
    GroupSpec.quaternionic_unitary(1)


def test_sampling_deterministic():
    a = sample_point(GroupSpec.unitary(3), 42)
    b = sample_point(GroupSpec.unitary(3), 42)
    assert np.array_equal(a, b)
    c = sample_point(GroupSpec.unitary(3), 43)
    assert not np.allclose(a, c)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.code}{s.n}")
def test_sampled_points_are_group_elements(spec):
    for seed in range(5):
        m = sample_point(spec, seed)
        dim = spec.ambient_dim
        assert np.max(np.abs(m @ m.conj().T - np.eye(dim))) <= 1e-12
        if spec.code == "so":
            assert np.max(np.abs(m.imag)) <= 1e-12
            assert abs(np.linalg.det(m.real) - 1) <= 1e-12
        if spec.code == "sp":
            n = spec.n
            z, w = m[:n, :n], m[:n, n:]
            lower = np.block([[-np.conj(w), np.conj(z)]])
            assert np.max(np.abs(m[n:, :] - lower)) <= 1e-12


def _per_seed_haar(spec, seed, first_draw_singular=False):
    """One seed's U(n) or SO(n) point by a QR-with-phases loop on its draws
    alone; with ``first_draw_singular`` the stream's first draw is dropped
    as the sampler drops a singular one."""
    rng = np.random.default_rng(seed)
    n = spec.n
    while True:
        g = rng.normal(size=(n, n))
        if spec.code == "su":
            g = g + 1j * rng.normal(size=(n, n))
        if first_draw_singular:
            first_draw_singular = False
            continue
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        if np.min(np.abs(d)) >= 1e-8:
            break
    q = q * (d / np.abs(d))
    if spec.code == "so" and np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q.astype(complex)


BATCHED_SPECS = [GroupSpec.unitary(n) for n in (3, 4, 5, 8, 12)] + [
    GroupSpec.special_orthogonal(n) for n in (4, 5, 8, 12)  # SO(n) needs n >= 4
]


@pytest.mark.parametrize("spec", BATCHED_SPECS, ids=lambda s: f"{s.code}{s.n}")
def test_batched_points_equal_per_seed_points(spec):
    # one QR of the stack gives each seed the bits of its own QR
    seeds = range(300)
    stack = sample_points(spec, seeds)
    assert stack.shape == (300, spec.n, spec.n) and stack.dtype == complex
    assert np.array_equal(stack, np.array([sample_point(spec, seed) for seed in seeds]))
    assert np.array_equal(stack, np.array([_per_seed_haar(spec, seed) for seed in seeds]))


@pytest.mark.parametrize("n", [1, 2, 3], ids=lambda n: f"sp{n}")
def test_quaternionic_points_are_drawn_per_seed(n):
    spec = GroupSpec.quaternionic_unitary(n)
    seeds = range(40)
    stack = sample_points(spec, seeds)
    assert stack.shape == (40, 2 * n, 2 * n)
    assert np.array_equal(stack, np.array([sample_point(spec, seed) for seed in seeds]))


@pytest.mark.parametrize("partner", [None, biforge.groups._quaternionic_partner], ids=["plain", "partner"])
def test_orthonormalize_refuses_a_dependent_set(partner):
    z = np.array([1.0, 2j, -0.5, 1 + 1j])
    assert len(biforge.groups._orthonormalize([z], partner)) == (1 if partner is None else 2)
    assert biforge.groups._orthonormalize([z, 3j * z], partner) is None


@pytest.mark.parametrize(
    "spec, draw",
    [(GroupSpec.unitary(4), "_complex_normal"), (GroupSpec.special_orthogonal(5), "_real_normal")],
    ids=["su4", "so5"],
)
def test_singular_draw_is_redrawn_from_its_own_stream(monkeypatch, spec, draw):
    seeds = range(60, 66)
    before = sample_points(spec, seeds)
    original = getattr(biforge.groups, draw)
    streams = []

    def third_draw_singular(rng, n):
        streams.append(rng)
        g = original(rng, n)
        return np.zeros_like(g) if len(streams) == 3 else g

    monkeypatch.setattr(biforge.groups, draw, third_draw_singular)
    stack = sample_points(spec, seeds)
    # one draw per seed, then one redraw, from the third seed's stream
    assert len(streams) == len(seeds) + 1 and streams[-1] is streams[2]
    assert np.array_equal(stack[2], _per_seed_haar(spec, seeds[2], first_draw_singular=True))
    assert not np.array_equal(stack[2], before[2])
    others = [0, 1, 3, 4, 5]
    assert np.array_equal(stack[others], before[others])


def test_translate_diagonal_rotation():
    # at the identity along i*D_1, entry (0,0) follows exp(i s)
    spec = GroupSpec.unitary(3)
    elem = next(e for e in basis(spec) if e.label == "iD1")
    jm = translate(np.eye(3, dtype=complex), elem.matrix)
    jet = LinearForm.coordinate(spec, 0, 0).evaluate(jm)
    assert jet.a0 == 1
    assert abs(jet.a1 - 1j) <= 1e-15
    assert abs(jet.a2 - (-0.5)) <= 1e-15


def test_translate_first_order_is_pz():
    spec = GroupSpec.quaternionic_unitary(2)
    p = sample_point(spec, 9)
    for elem in basis(spec):
        half_square = 0.5 * (elem.matrix @ elem.matrix)
        jm = translate(p, elem.matrix, half_square)
        assert isinstance(jm, Jet2)
        assert np.array_equal(jm.a1, p @ elem.matrix)
        assert np.array_equal(jm.a0, p)
        assert np.array_equal(jm.a2, p @ half_square)
        # a jet base gains a new outermost layer, each coefficient moved along Z
        nested = translate(jm, elem.matrix)
        assert nested.a0 is jm and isinstance(nested.a1, Jet2)
        assert np.array_equal(nested.a1.a1, jm.a1 @ elem.matrix)
        assert np.array_equal(nested.a2.a0, p @ half_square)


def test_translate_orthogonal_generator():
    spec = GroupSpec.special_orthogonal(4)
    elem = next(e for e in basis(spec) if e.label == "Y12")
    jm = translate(np.eye(4, dtype=complex), elem.matrix)
    jet = LinearForm.coordinate(spec, 0, 1).evaluate(jm)
    assert jet.a0 == 0
    assert abs(jet.a1 - 1 / np.sqrt(2)) <= 1e-15
    assert abs(jet.a2) <= 1e-15


def test_translate_shape_mismatch():
    spec = GroupSpec.unitary(3)
    elem = basis(spec)[0]
    with pytest.raises(ShapeError):
        translate(np.eye(4, dtype=complex), elem.matrix)
    jm = translate(np.eye(4, dtype=complex), np.eye(4, dtype=complex))
    with pytest.raises(ShapeError):
        translate(jm, elem.matrix)
    with pytest.raises(ShapeError):
        translate(np.eye(4, dtype=complex), np.stack([elem.matrix, elem.matrix]))
