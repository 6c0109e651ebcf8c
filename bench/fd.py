"""Finite-difference oracle for the benchmark's correctness checks.

Nothing here calls biforge's jets, bases, samplers or expression trees.
The group is rebuilt from its Lie algebra: an orthonormal basis for the
Re-trace metric <X, Y> = Re tr(X Y*) comes from Gram-Schmidt over a
spanning set, and exp(sZ) of a skew-Hermitian Z comes from numpy's
eigendecomposition of the Hermitian matrix -iZ.  Functions are plain
numpy callables on stacks of matrices, so

    tau(phi)(p)         = sum_Z  d^2/ds^2 phi(p exp(sZ))
    kappa(phi, phi)(p)  = sum_Z (d/ds phi(p exp(sZ)))^2
    tau(tau(phi))(p)    = sum_W  d^2/dt^2 tau(phi)(p exp(tW))

The first two are read off central five-point stencils (error O(h^4)).
The bitension needs mixed fourth derivatives, where real stencils lose
most of their digits on high-degree candidates; since phi(p exp(tW)
exp(sZ)) is holomorphic in (t, s), its Taylor coefficients are instead
read off a ring of N complex steps r*exp(2*pi*i*j/N) in each variable
(the trapezoid rule for Cauchy's integral, error O((r/R)^N) for a pole
at distance R).
"""

from __future__ import annotations

import numpy as np

# Five-point central stencils on offsets -2..2 (times h): first and second derivative.
OFFSETS = np.arange(-2, 3)
D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _skew_hermitian_span(n: int) -> list[np.ndarray]:
    out = []
    for r in range(n):
        for s in range(r + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[r, s], m[s, r] = 1.0, -1.0
            out.append(m)
            out.append(1j * np.abs(m))
        d = np.zeros((n, n), dtype=complex)
        d[r, r] = 1j
        out.append(d)
    return out


def _span(kind: str, n: int) -> list[np.ndarray]:
    if kind == "su":
        return _skew_hermitian_span(n)
    if kind == "so":
        return [m for m in _skew_hermitian_span(n) if not np.any(m.imag)]
    # sp(n) in the complex 2n-dimensional realization [A, B; -conj(B), conj(A)]
    # with A skew-Hermitian and B complex symmetric.
    zero = np.zeros((n, n), dtype=complex)
    out = [np.block([[a, zero], [zero, a.conj()]]) for a in _skew_hermitian_span(n)]
    for r in range(n):
        for s in range(r, n):
            for unit in (1.0, 1j):
                b = np.zeros((n, n), dtype=complex)
                b[r, s] = b[s, r] = unit
                out.append(np.block([[zero, b], [-b.conj(), zero]]))
    return out


def lie_basis(kind: str, n: int) -> np.ndarray:
    """Orthonormal basis (stacked, shape (dim, N, N)) of u(n), so(n) or sp(n)."""
    basis: list[np.ndarray] = []
    for m in _span(kind, n):
        v = m.copy()
        for u in basis:
            v = v - np.real(np.vdot(u, v)) * u
        norm = np.sqrt(np.real(np.vdot(v, v)))
        if norm > 1e-9:
            basis.append(v / norm)
    expected = {"su": n * n, "so": n * (n - 1) // 2, "sp": n * (2 * n + 1)}[kind]
    if len(basis) != expected:
        raise AssertionError(f"{kind}({n}) basis has {len(basis)} elements, expected {expected}")
    return np.array(basis)


def expm_skew(z: np.ndarray, steps) -> np.ndarray:
    """exp(s Z) for each s in ``steps`` (shape (len(steps), N, N)), Z skew-Hermitian."""
    w, v = np.linalg.eigh(-1j * z)
    phases = np.exp(1j * np.multiply.outer(np.asarray(steps, dtype=complex), w))
    return np.einsum("ij,sj,kj->sik", v, phases, v.conj())


def sample_points(kind: str, n: int, rng: np.random.Generator, count: int, accept) -> list[np.ndarray]:
    """Group elements exp(X) for Gaussian X in the algebra, kept where ``accept`` holds."""
    basis = lie_basis(kind, n)
    out = []
    for _ in range(1000 * count):
        if len(out) == count:
            return out
        x = np.tensordot(rng.normal(size=len(basis)) * 2.0, basis, axes=1)
        p = expm_skew(x, [1.0])[0]
        if accept(p):
            out.append(p)
    raise RuntimeError(f"found {len(out)} of {count} points inside the domain")


def form_values(coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Linear matrix-coefficient form sum_ij c_ij x_ij on a stack of matrices."""
    rows, cols = coeffs.shape
    return np.einsum("ij,...ij->...", coeffs, mats[..., :rows, :cols])


class Directions:
    """exp(jhZ) for every basis element Z and stencil offset j."""

    def __init__(self, kind: str, n: int, h: float):
        self.basis = lie_basis(kind, n)
        self.h = h
        self.steps = np.array([expm_skew(z, OFFSETS * h) for z in self.basis])  # (B, 5, N, N)

    def walk(self, points: np.ndarray) -> np.ndarray:
        """points (..., N, N) -> points @ exp(jhZ), shape (..., B, 5, N, N)."""
        return np.matmul(points[..., None, None, :, :], self.steps)

    def derivatives(self, fn, points: np.ndarray):
        """Per-direction first and second derivatives, shapes (..., B)."""
        values = fn(self.walk(points))
        first = values @ D1 / self.h
        second = values @ D2 / self.h**2
        return first, second


def tension(fn, points: np.ndarray, dirs: Directions):
    """(tau, sum of |summands|) at each point: the sum and its cancellation scale."""
    _, second = dirs.derivatives(fn, points)
    return second.sum(axis=-1), np.abs(second).sum(axis=-1)


def conformality(fn, points: np.ndarray, dirs: Directions):
    """(kappa(fn, fn), sum |summands|) at each point."""
    first, _ = dirs.derivatives(fn, points)
    return (first**2).sum(axis=-1), (np.abs(first) ** 2).sum(axis=-1)


class Ring:
    """exp(sZ) for every basis element Z and s on a ring of complex steps."""

    def __init__(self, kind: str, n: int, radius: float, nodes: int):
        self.basis = lie_basis(kind, n)
        self.radius = radius
        roots = np.exp(2j * np.pi * np.arange(nodes) / nodes)
        self.steps = np.array([expm_skew(z, radius * roots) for z in self.basis])  # (B, N, d, d)
        self.second = 2.0 * roots**-2 / (nodes * radius**2)  # weights of h''(0)


def bitension(fn, point: np.ndarray, ring: Ring):
    """(tau(tau(fn)), sum over (W, Z) of |mixed summand|) at one point."""
    total = 0j
    scale = 0.0
    for outer in ring.steps:
        moved = point @ outer  # (N, d, d) along W
        values = fn(np.matmul(moved[:, None, None, :, :], ring.steps))  # (N_t, B, N_s)
        mixed = (values @ ring.second).T @ ring.second  # (B,)
        total += mixed.sum()
        scale += np.abs(mixed).sum()
    return total, scale
