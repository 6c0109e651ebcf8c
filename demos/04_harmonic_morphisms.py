"""Harmonic morphisms: orthogonal families and eigenfamily quotients.

Ratios of column forms with a shared direction vector are harmonic with
all pairwise conformality products zero, so each ratio (and any
holomorphic function of them) is a harmonic morphism.  Powers of the
member tensions of a quadruple family form eigenfamilies with constants
(2 mu k (k-1), 2 mu k^2), and quotients of equal-degree homogeneous
polynomials in them are harmonic morphisms as well.
"""

from biforge import GroupSpec, make_quadruple
from biforge.construct import (
    column_ratio_family,
    eigenfamily_constants,
    rational_morphism,
    tension_power_family,
)
from biforge.operators import OperatorContext, conformality, tension
from biforge.verify import sample_domain_points

spec = GroupSpec.unitary(3)
ctx = OperatorContext.for_spec(spec)

family = column_ratio_family(q=[1.0, 0.5j, 2.0], spec=spec, beta=0)
points = sample_domain_points(family, spec, 6, seed=1)
worst = 0.0
for point in points:
    for i, phi in enumerate(family):
        worst = max(worst, abs(tension(phi, point, ctx)))
        for j in range(i, len(family)):
            worst = max(worst, abs(conformality(phi, family[j], point, ctx)))
print(f"column-ratio family on U(3): {len(family)} members, "
      f"max |tension| and |kappa| residual {worst:.2e}")

composed = family[0] ** 3  # holomorphic composition stays in the family
print(f"cube of a member: tension {abs(tension(composed, points[0], ctx)):.2e}, "
      f"kappa {abs(conformality(composed, composed, points[0], ctx)):.2e}")

fam = make_quadruple(spec, [1, 2, -1], [3, 1j, 0.5], [1, 1, 1], [1, 1, 1], beta=0)
for k in (1, 2, 3):
    lam, kap = eigenfamily_constants(spec.mu, k)
    members = tension_power_family(fam, k)
    point = sample_domain_points(members, spec, 1, seed=50 + k)[0]
    v = [m.evaluate(point) for m in members]
    res = abs(conformality(members[0], members[1], point, ctx) - kap * v[0] * v[1])
    print(f"tension-power family k={k}: eigenvalue {lam}, kappa constant {kap}, "
          f"pair residual {res:.2e}")

members = tension_power_family(fam, 1)[:2]
morphism = rational_morphism(members, {(2, 0): 1.0}, {(1, 1): 1.0})
point = sample_domain_points([morphism], spec, 1, seed=99)[0]
print(f"rational quotient phi1^2 / (phi1 phi2): "
      f"tension {abs(tension(morphism, point, ctx)):.2e}, "
      f"kappa(f,f) {abs(conformality(morphism, morphism, point, ctx)):.2e}")
