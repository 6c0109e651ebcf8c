"""Concrete realizations of the compact matrix groups U(n), SO(n), Sp(n).

Each group is described by a :class:`GroupSpec` carrying the size
parameter n, the ambient complex matrix dimension (n for U and SO, 2n
for Sp in its complex representation), the Laplace eigenvalue of the
matrix-coefficient functions, and the conformality constant mu of the
quadruple product rules.

The module provides the orthonormal Lie-algebra bases (in a fixed,
documented order) and deterministic point sampling.

Basis ordering
--------------
* u(n): all Y_rs (r<s, lexicographic), then all iX_rs, then all iD_r,
  where X_rs = (E_rs + E_sr)/sqrt(2), Y_rs = (E_rs - E_sr)/sqrt(2),
  D_r = E_rr.
* so(n): all Y_rs (r<s, lexicographic).
* sp(n) (2n-by-2n blocks): first the diagonal family
  [Y_rs, 0; 0, Y_rs]/sqrt(2) then [iX_rs, 0; 0, -iX_rs]/sqrt(2) per
  (r,s); then the off-diagonal symmetric family [0, X_rs; -X_rs, 0]/sqrt(2)
  then [0, iX_rs; iX_rs, 0]/sqrt(2) per (r,s); finally per r the three
  elements [0, D_r; -D_r, 0]/sqrt(2), [0, iD_r; iD_r, 0]/sqrt(2),
  [iD_r, 0; 0, -iD_r]/sqrt(2).

Every basis element Z satisfies [Z, Z*] = 0, so the Levi-Civita
correction term of the tension field vanishes; this is asserted, not
assumed, when an operator context is built, and a basis violating it is
refused.

Sampling is deterministic in the seed and satisfies the group-membership
invariants, but makes no Haar-exactness claim: verification is pointwise
and only needs points in the domain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = [
    "GroupKind",
    "GroupSpec",
    "LieBasisElement",
    "basis",
    "iter_basis",
    "sample_point",
]

_SQRT2 = float(np.sqrt(2.0))


class GroupKind(enum.Enum):
    UNITARY = "su"
    SPECIAL_ORTHOGONAL = "so"
    QUATERNIONIC_UNITARY = "sp"


@dataclass(frozen=True)
class GroupSpec:
    """Which group, its size, and the constants attached to it."""

    kind: GroupKind
    n: int

    def __post_init__(self):
        minimum = {
            GroupKind.UNITARY: 2,
            GroupKind.SPECIAL_ORTHOGONAL: 4,
            GroupKind.QUATERNIONIC_UNITARY: 1,
        }[self.kind]
        if self.n < minimum:
            raise ShapeError(
                f"n must be >= {minimum} for {self.kind.value}, got {self.n}"
            )

    @classmethod
    def unitary(cls, n: int) -> "GroupSpec":
        return cls(GroupKind.UNITARY, n)

    @classmethod
    def special_orthogonal(cls, n: int) -> "GroupSpec":
        return cls(GroupKind.SPECIAL_ORTHOGONAL, n)

    @classmethod
    def quaternionic_unitary(cls, n: int) -> "GroupSpec":
        return cls(GroupKind.QUATERNIONIC_UNITARY, n)

    @classmethod
    def from_code(cls, code: str, n: int) -> "GroupSpec":
        return cls(GroupKind(code), n)

    @property
    def code(self) -> str:
        return self.kind.value

    @property
    def ambient_dim(self) -> int:
        """Size of the complex matrices realizing the group."""
        if self.kind is GroupKind.QUATERNIONIC_UNITARY:
            return 2 * self.n
        return self.n

    @property
    def dimension(self) -> int:
        """Dimension of the Lie algebra, the size of its basis."""
        n = self.n
        if self.kind is GroupKind.UNITARY:
            return n * n
        if self.kind is GroupKind.SPECIAL_ORTHOGONAL:
            return n * (n - 1) // 2
        return n * (2 * n + 1)

    @property
    def eigenvalue(self) -> float:
        """Laplace eigenvalue of the matrix-coefficient functions."""
        if self.kind is GroupKind.UNITARY:
            return -float(self.n)
        if self.kind is GroupKind.SPECIAL_ORTHOGONAL:
            return -(self.n - 1) / 2.0
        return -(2 * self.n + 1) / 2.0

    @property
    def mu(self) -> float:
        """Conformality constant of the quadruple product rules."""
        return -1.0 if self.kind is GroupKind.UNITARY else -0.5


@dataclass(frozen=True)
class LieBasisElement:
    """One orthonormal basis element of the Lie algebra, as an ambient matrix."""

    matrix: np.ndarray
    label: str


def _symmetric(n: int, r: int, s: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[r, s] += 1 / _SQRT2
    m[s, r] += 1 / _SQRT2
    return m


def _skew(n: int, r: int, s: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[r, s] = 1 / _SQRT2
    m[s, r] = -1 / _SQRT2
    return m


def _diag_unit(n: int, r: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[r, r] = 1.0
    return m


def _unitary_basis(n: int):
    for r in range(n):
        for s in range(r + 1, n):
            yield LieBasisElement(_skew(n, r, s), f"Y{r + 1}{s + 1}")
    for r in range(n):
        for s in range(r + 1, n):
            yield LieBasisElement(1j * _symmetric(n, r, s), f"iX{r + 1}{s + 1}")
    for r in range(n):
        yield LieBasisElement(1j * _diag_unit(n, r), f"iD{r + 1}")


def _orthogonal_basis(n: int):
    for r in range(n):
        for s in range(r + 1, n):
            yield LieBasisElement(_skew(n, r, s), f"Y{r + 1}{s + 1}")


def _sp_block(top_left, top_right, bottom_left, bottom_right) -> np.ndarray:
    return np.block([[top_left, top_right], [bottom_left, bottom_right]]) / _SQRT2


def _quaternionic_basis(n: int):
    zero = np.zeros((n, n), dtype=complex)
    for r in range(n):
        for s in range(r + 1, n):
            y = _skew(n, r, s)
            x = _symmetric(n, r, s)
            yield LieBasisElement(_sp_block(y, zero, zero, y), f"dY{r + 1}{s + 1}")
            yield LieBasisElement(_sp_block(1j * x, zero, zero, -1j * x), f"dX{r + 1}{s + 1}")
    for r in range(n):
        for s in range(r + 1, n):
            x = _symmetric(n, r, s)
            yield LieBasisElement(_sp_block(zero, x, -x, zero), f"oX{r + 1}{s + 1}")
            yield LieBasisElement(_sp_block(zero, 1j * x, 1j * x, zero), f"oiX{r + 1}{s + 1}")
    for r in range(n):
        d = _diag_unit(n, r)
        yield LieBasisElement(_sp_block(zero, d, -d, zero), f"oD{r + 1}")
        yield LieBasisElement(_sp_block(zero, 1j * d, 1j * d, zero), f"oiD{r + 1}")
        yield LieBasisElement(_sp_block(1j * d, zero, zero, -1j * d), f"dD{r + 1}")


def iter_basis(spec: GroupSpec):
    """The elements of :func:`basis` in the same order, built one at a time."""
    if spec.kind is GroupKind.UNITARY:
        return _unitary_basis(spec.n)
    if spec.kind is GroupKind.SPECIAL_ORTHOGONAL:
        return _orthogonal_basis(spec.n)
    return _quaternionic_basis(spec.n)


def basis(spec: GroupSpec) -> list[LieBasisElement]:
    """Orthonormal Lie-algebra basis in the documented deterministic order.

    Cardinality: ``spec.dimension``, i.e. n**2 for u(n), n(n-1)/2 for
    so(n), n(2n+1) for sp(n).
    """
    return list(iter_basis(spec))


def _sample_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        if np.min(np.abs(d)) < 1e-8:
            continue
        return q * (d / np.abs(d))


def _sample_special_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        g = rng.normal(size=(n, n))
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        if np.min(np.abs(d)) < 1e-8:
            continue
        q = q * np.sign(d)
        if np.linalg.det(q) < 0:
            q = q.copy()
            q[:, -1] = -q[:, -1]
        return q.astype(complex)


def _quaternionic_partner(v: np.ndarray) -> np.ndarray:
    # The antiunitary structure map v -> J conj(v) with J = [0, I; -I, 0];
    # the partner column is its negative, preserving the [z, w; -conj w, conj z]
    # block pattern.
    n = v.shape[0] // 2
    c = np.conj(v)
    return np.concatenate([-c[n:], c[:n]])


def _sample_quaternionic(n: int, rng: np.random.Generator) -> np.ndarray:
    dim = 2 * n
    while True:
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        raw = np.block([[z, w], [-np.conj(w), np.conj(z)]])
        left = []
        right = []
        ok = True
        for col in range(n):
            v = raw[:, col].copy()
            for u in left + right:
                v -= u * np.vdot(u, v)
            norm = np.linalg.norm(v)
            if norm < 1e-8:
                ok = False
                break
            v /= norm
            left.append(v)
            right.append(_quaternionic_partner(v))
        if not ok:
            continue
        out = np.empty((dim, dim), dtype=complex)
        for col in range(n):
            out[:, col] = left[col]
            out[:, n + col] = right[col]
        return out


def sample_point(spec: GroupSpec, seed: int) -> np.ndarray:
    """Deterministic pseudo-random group element, an (N, N) complex matrix.

    Built by orthonormalizing a seeded Gaussian matrix (quaternionic
    Gram-Schmidt for Sp so the block pattern is exact); numerically
    singular draws are redrawn from the same stream.
    """
    rng = np.random.default_rng(seed)
    if spec.kind is GroupKind.UNITARY:
        return _sample_unitary(spec.n, rng)
    if spec.kind is GroupKind.SPECIAL_ORTHOGONAL:
        return _sample_special_orthogonal(spec.n, rng)
    return _sample_quaternionic(spec.n, rng)
