"""Independent references that only tests read: the Lie-algebra basis as
dense matrices, and the one-variable harmonic table from its first-order
recurrence rather than from the closed form ``construct`` solves with."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from biforge.construct import CoeffTable
from biforge.groups import GroupSpec, basis_entries


@dataclass(frozen=True)
class LieBasisElement:
    """One orthonormal basis element of the Lie algebra, as an ambient matrix."""

    matrix: np.ndarray
    label: str


def basis(spec: GroupSpec) -> list[LieBasisElement]:
    """The elements of ``groups.basis_entries`` in the same order, each as
    a dense (N, N) complex matrix."""
    elements = []
    for label, rows, cols, values in basis_entries(spec):
        m = np.zeros((spec.ambient_dim, spec.ambient_dim), dtype=complex)
        m[rows, cols] = values
        elements.append(LieBasisElement(m, label))
    return elements


def harmonic_coefficients(d: int, mu) -> CoeffTable:
    """One-variable harmonic table: c_0 = 0, c_1 = 1 and

        -2*mu*k*(k+1)*c_{k+1} = (d**2 - k**2) * c_k,   k = 1..d-1.
    """
    mu = Fraction(mu)
    coeffs = {(1,): Fraction(1)}
    value = Fraction(1)
    for k in range(1, d):
        value = value * Fraction(d * d - k * k) / (-2 * mu * Fraction(k * (k + 1)))
        coeffs[(k + 1,)] = value
    return CoeffTable((d,), coeffs)
