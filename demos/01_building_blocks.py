"""Tour of the building blocks: groups, jets, and the two operators.

Everything downstream rests on three ingredients shown here:

1. orthonormal Lie-algebra bases for U(n), SO(n), Sp(n);
2. degree-2 jets of the curve p * exp(s Z), which turn differentiation
   along one-parameter subgroups into truncated Taylor arithmetic: the
   moved point is a Jet2 of matrices, and a linear form evaluated on it
   gives the jet of that matrix coefficient;
3. the tension field (Laplace-Beltrami) and conformality operator as
   plain basis sums of jet coefficients.

The matrix-coefficient functions come out as eigenfunctions with the
advertised eigenvalues, and the conformality products close up into
coordinate products, which is what every later construction exploits.
"""

import numpy as np

from biforge import GroupSpec, basis, sample_point, translate
from biforge.forms import LinearForm
from biforge.operators import OperatorContext, conformality, tension

for spec in (GroupSpec.unitary(3), GroupSpec.special_orthogonal(4), GroupSpec.quaternionic_unitary(2)):
    elems = basis(spec)
    print(f"{spec.code}({spec.n}): dim = {len(elems)}, ambient = {spec.ambient_dim}x{spec.ambient_dim}, "
          f"eigenvalue = {spec.eigenvalue}, mu = {spec.mu}")

spec = GroupSpec.unitary(3)
ctx = OperatorContext.for_spec(spec)
m = sample_point(spec, seed=42)

print("\nsampled U(3) point, unitarity residual:", np.max(np.abs(m @ m.conj().T - np.eye(3))))

z11 = LinearForm.coordinate(spec, 0, 0)
z22 = LinearForm.coordinate(spec, 1, 1)
elem = next(e for e in basis(spec) if e.label == "iD1")
jet = z11.evaluate(translate(m, elem.matrix))
print(f"2-jet of entry (0,0) along {elem.label}: "
      f"value={jet.a0:.4f}, d/ds={jet.a1:.4f}, d2/ds2={2 * jet.a2:.4f}")

print("\ntension(z11) =", tension(z11, m, ctx))
print("-n * z11     =", spec.eigenvalue * m[0, 0])
print("kappa(z11, z22) =", conformality(z11, z22, m, ctx))
print("-z21 * z12      =", -m[1, 0] * m[0, 1])
