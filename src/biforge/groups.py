"""Concrete realizations of the compact matrix groups U(n), SO(n), Sp(n).

Each group is described by a :class:`GroupSpec` carrying the size
parameter n, the ambient complex matrix dimension (n for U and SO, 2n
for Sp in its complex representation), the Laplace eigenvalue of the
matrix-coefficient functions, and the conformality constant mu of the
quadruple product rules.

The module provides the orthonormal Lie-algebra bases (in a fixed,
documented order), each element given by its nonzero entries, and
deterministic point sampling.

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
correction term of the tension field vanishes.  Each element is a scaled
partial permutation whose pattern is an involution (an entry at (r, s)
comes with one at (s, r); a diagonal entry is its own pair), and the two
entries of each pair have equal moduli, exactly in floating point.  The
operator context checks all of it, not assuming it, when it is built,
and refuses a basis that breaks it.

Sampling is deterministic in the seed and satisfies the group-membership
invariants, but makes no Haar-exactness claim: verification is pointwise
and only needs points in the domain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ShapeError

__all__ = [
    "GroupKind",
    "GroupSpec",
    "basis_entries",
    "sample_point",
    "sample_points",
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


def _orthogonal_entries(n: int):
    h = 1 / _SQRT2
    for r, s in combinations(range(n), 2):
        yield f"Y{r + 1}{s + 1}", (r, s), (s, r), (h, -h)


def _unitary_entries(n: int):
    yield from _orthogonal_entries(n)
    h = 1 / _SQRT2
    for r, s in combinations(range(n), 2):
        yield f"iX{r + 1}{s + 1}", (r, s), (s, r), (1j * h, 1j * h)
    for r in range(n):
        yield f"iD{r + 1}", (r,), (r,), (1j,)


def _quaternionic_entries(n: int):
    # the blocks over sqrt(2) have entries 1/2 (from X_rs and Y_rs) and
    # 1/sqrt(2) (from D_r); rows and columns n.. are the second block
    h, q = 1 / _SQRT2, 0.5
    for r, s in combinations(range(n), 2):
        rows, cols = (r, s, n + r, n + s), (s, r, n + s, n + r)
        yield f"dY{r + 1}{s + 1}", rows, cols, (q, -q, q, -q)
        yield f"dX{r + 1}{s + 1}", rows, cols, (1j * q, 1j * q, -1j * q, -1j * q)
    for r, s in combinations(range(n), 2):
        rows, cols = (r, s, n + r, n + s), (n + s, n + r, s, r)
        yield f"oX{r + 1}{s + 1}", rows, cols, (q, q, -q, -q)
        yield f"oiX{r + 1}{s + 1}", rows, cols, (1j * q, 1j * q, 1j * q, 1j * q)
    for r in range(n):
        yield f"oD{r + 1}", (r, n + r), (n + r, r), (h, -h)
        yield f"oiD{r + 1}", (r, n + r), (n + r, r), (1j * h, 1j * h)
        yield f"dD{r + 1}", (r, n + r), (r, n + r), (1j * h, -1j * h)


def basis_entries(spec: GroupSpec):
    """The orthonormal Lie-algebra basis in the documented order, one
    element at a time, by its nonzero entries: (label, rows, cols,
    values), the ambient matrix holding values[i] at (rows[i], cols[i]);
    ``spec.dimension`` elements in all."""
    if spec.kind is GroupKind.UNITARY:
        return _unitary_entries(spec.n)
    if spec.kind is GroupKind.SPECIAL_ORTHOGONAL:
        return _orthogonal_entries(spec.n)
    return _quaternionic_entries(spec.n)


def _complex_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _real_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=(n, n))


def _haar_qr(rngs, draw, n: int) -> np.ndarray:
    """Q of g = QR for one Gaussian draw g = draw(rng, n) per stream, by
    one QR of the stack, each Q's columns scaled by the phases d/|d| of
    its R's diagonal so that Q is Haar (Mezzadri, Notices AMS 54(5),
    2007).  A draw with some |r_ii| < 1e-8 is drawn again from its own
    stream.  A stacked QR runs the LAPACK routine of a single QR on each
    matrix, so every Q is bit for bit that of its draw alone."""
    g = np.array([draw(rng, n) for rng in rngs])
    while True:
        q, r = np.linalg.qr(g)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        singular = np.flatnonzero(np.min(np.abs(d), axis=-1) < 1e-8)
        if not len(singular):
            return q * (d / np.abs(d))[:, None, :]
        for i in singular:
            g[i] = draw(rngs[i], n)


def _quaternionic_partner(v: np.ndarray) -> np.ndarray:
    # The antiunitary structure map v -> J conj(v) with J = [0, I; -I, 0];
    # the partner column is its negative, preserving the [z, w; -conj w, conj z]
    # block pattern.
    n = v.shape[0] // 2
    c = np.conj(v)
    return np.concatenate([-c[n:], c[:n]])


def _orthonormalize(vectors, partner=None) -> list[np.ndarray] | None:
    """Modified Gram-Schmidt over ``vectors`` in order; None when one of
    them keeps a norm below 1e-8 against the frame before it.

    With ``partner``, each new vector's partner(v) joins the frame too.
    The frame lists the new vectors, then their partners.
    """
    left, right = [], []
    for vector in vectors:
        v = vector.copy()
        for u in left + right:
            v -= u * np.vdot(u, v)
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            return None
        v /= norm
        left.append(v)
        if partner is not None:
            right.append(partner(v))
    return left + right


def _sample_quaternionic(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        z, w = _complex_normal(rng, n), _complex_normal(rng, n)
        # the first n columns of [z, w; -conj w, conj z]; partners give the rest
        frame = _orthonormalize(np.concatenate([z, -np.conj(w)]).T, _quaternionic_partner)
        if frame is not None:
            return np.column_stack(frame)


def sample_points(spec: GroupSpec, seeds) -> np.ndarray:
    """Deterministic pseudo-random group elements, a (P, N, N) complex
    stack for P >= 1 seeds; entry i depends on seeds[i] alone.

    Each seed's Gaussian matrix comes from its own ``default_rng(seed)``
    stream, and U(n) and SO(n) orthonormalize the whole stack with one
    QR (SO(n) then flips the last column where one batched det is
    negative); numerically singular draws are redrawn from their own
    stream.  Sp(n) runs its quaternionic Gram-Schmidt, which keeps the
    block pattern exact, one seed at a time: a Gram-Schmidt batched over
    the seeds sums its inner products in another order, and its points
    differed from these by up to 2.2e-15 (200 seeds, n = 2..4).
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    n = spec.n
    if spec.kind is GroupKind.UNITARY:
        return _haar_qr(rngs, _complex_normal, n)
    if spec.kind is GroupKind.SPECIAL_ORTHOGONAL:
        q = _haar_qr(rngs, _real_normal, n)
        for i in np.flatnonzero(np.linalg.det(q) < 0):
            q[i, :, -1] = -q[i, :, -1]
        return q.astype(complex)
    return np.array([_sample_quaternionic(n, rng) for rng in rngs])


def sample_point(spec: GroupSpec, seed: int) -> np.ndarray:
    """The (N, N) point of ``seed``: the one entry of
    ``sample_points(spec, [seed])``."""
    return sample_points(spec, [seed])[0]
