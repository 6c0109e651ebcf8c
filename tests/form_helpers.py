"""General linear forms for tests: a form of the package is one rank-one
term u (x) v, so a general coefficient array is a sum of such forms."""

import numpy as np

from biforge.forms import LinearForm, Sum


def dense_form(spec, coeffs) -> Sum:
    """The function with (n, ambient_dim) coefficient array C, as the sum
    of the per-row rank-one forms e_i (x) C[i] over the nonzero rows."""
    coeffs = np.asarray(coeffs, dtype=complex)
    rows = np.eye(spec.n)
    return Sum([LinearForm(spec, rows[i], row) for i, row in enumerate(coeffs) if row.any()])
