"""From a rational quotient to proper biharmonic functions of any degree.

A quadruple family on U(3) provides quotients f = P/Q whose tension has
the closed form 2*mu*(PQ - RS)/Q^2.  Polynomials sum c_k f^(d-k) tau(f)^k
are then harmonic or proper biharmonic exactly when the coefficients
solve a difference equation; the solver works in exact rationals and the
jet operators confirm the result numerically, including the fourth-order
bitension.
"""

from biforge import GroupSpec, make_quadruple
from biforge.construct import (
    biharmonic_family,
    build_expression,
    combine,
    harmonic_coefficients,
    proper_biharmonic_table,
)
from biforge.operators import OperatorContext, tension, tension2
from biforge.verify import sample_domain_points

spec = GroupSpec.unitary(3)
ctx = OperatorContext.for_spec(spec)
fam = make_quadruple(spec, p=[1, 2, -1], q=[3, 1j, 0.5], a=[1, 1, 1], b=[1, 1, 1], beta=0)
print(f"family members: {fam.n_members}, proper: {fam.n_proper} (column {fam.beta} is harmonic)")

for d in (2, 3, 4):
    h = harmonic_coefficients(d, -1)
    b = proper_biharmonic_table((d,), -1)
    print(f"d={d}:  harmonic {h.single_degree()}   proper biharmonic {b.single_degree()}")

print("\nscaled degree-2 member:", combine(biharmonic_family((2,), -1), [4, 0]).single_degree())

i = fam.proper_indices[0]
pairs = [(fam.member_quotient(i), fam.member_tension(i))]
for d in (1, 2, 3, 4):
    table = proper_biharmonic_table((d,), -1)
    phi = build_expression(table, pairs)
    points = sample_domain_points([phi, pairs[0][1]], spec, 5, seed=100 + d)
    worst_t2, witness = 0.0, 0.0
    for point in points:
        value = abs(phi.evaluate(point))
        tau = tension(phi, point, ctx)
        witness = max(witness, abs(tau) / max(1.0, value))
        worst_t2 = max(
            worst_t2, abs(tension2(phi, point, ctx)) / max(1.0, value, abs(tau))
        )
    print(f"d={d}: |tension| witness {witness:.3e} (nonzero), "
          f"|bitension| residual {worst_t2:.3e} (should be ~0)")
