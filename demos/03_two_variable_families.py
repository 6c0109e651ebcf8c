"""Multi-homogeneous families, and the groups beyond U(n).

The tension field restricted to the span of the degree-(1,1) monomials
{f1 f2, f1 t2, t1 f2, t1 t2} is a 4x4 integer matrix; its kernel is the
harmonic family, the kernel of its square the biharmonic one.  The same
linear systems solve every degree box, and the constants mu = -1/2 put
Sp(n) and SO(n) into the identical machinery: Sp(2) through the
cross-block quadruple choice (every column proper), SO(4) through
isotropic row vectors.
"""

import numpy as np

from biforge import GroupSpec, make_quadruple
from biforge.construct import (
    CoeffTable,
    biharmonic_family,
    box_indices,
    build_expression,
    proper_biharmonic_table,
    tension_table,
)
from biforge.operators import OperatorContext, tension, tension2
from biforge.verify import sample_domain_points

idxs = list(box_indices((1, 1)))
matrix = np.array(
    [[int(tension_table(CoeffTable((1, 1), {c: 1}), -1).get(r)) for c in idxs] for r in idxs]
)
print("tension restricted to the (1,1) monomial basis:")
print(matrix)
print("its square (kernel = biharmonic family):")
print(matrix @ matrix)

fam21 = biharmonic_family((2, 1), -1)
print(f"\ndegree-(2,1) biharmonic family dimension: {len(fam21)}")
print("proper member:", dict(fam21[0].items()))

configs = [
    ("Sp(2), cross-block choice", GroupSpec.quaternionic_unitary(2),
     lambda s: make_quadruple(s, [1, 2], [1j, 1], [1, 1], [1, 0.5], sp_choice=10)),
    ("SO(4), isotropic rows", GroupSpec.special_orthogonal(4),
     lambda s: make_quadruple(s, [1, 1j, 0, 0], [0, 0, 1, 1j], [1, 1, 1, 1], [1, 1, 1, 1])),
]
for name, spec, build in configs:
    ctx = OperatorContext.for_spec(spec)
    fam = build(spec)
    pairs = [(fam.member_quotient(i), fam.member_tension(i)) for i in fam.proper_indices[:2]]
    table = proper_biharmonic_table((2, 1), spec.mu)
    phi = build_expression(table, pairs)
    points = sample_domain_points([phi] + [tf for _, tf in pairs], spec, 5, seed=7)
    worst = 0.0
    witness = 0.0
    for point in points:
        value = abs(phi.evaluate(point))
        tau = tension(phi, point, ctx)
        witness = max(witness, abs(tau) / max(1.0, value))
        worst = max(worst, abs(tension2(phi, point, ctx)) / max(1.0, value, abs(tau)))
    print(f"{name}: degree-(2,1) proper member, tension witness {witness:.2e}, "
          f"bitension residual {worst:.2e}")
