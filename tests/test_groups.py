"""Group realizations: bases, sampled points, jet translation."""

import numpy as np
import pytest

from biforge.algebra import Jet2, translate
from biforge.errors import ShapeError
from biforge.forms import LinearForm
from biforge.groups import GroupSpec, basis, sample_point

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
