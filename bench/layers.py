"""Per-layer counters and self times for the traced run.

Spans are recorded from the benchmark's side: each public function is
replaced, in every module that looks it up, by a wrapper that counts
the call and times it.  A span's self time is its duration minus the
durations of the spans it encloses.  Hot inner functions (jet products,
form and tree evaluations) are only counted, since timing every call
would swamp what they do.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter

# (metric base, defining module, attribute, modules whose global the callers read)
SPANS = [
    ("operators.tension2", "operators", "tension2", ("verify", "operators")),
    ("operators.tension", "operators", "tension", ("verify", "operators")),
    ("operators.conformality", "operators", "conformality", ("verify", "operators")),
    ("operators.context", "operators", "OperatorContext.for_spec", ()),
    ("verify.quadruple_checks", "verify", "quadruple_checks", ("cli", "verify")),
    ("verify.closed_form_tension_checks", "verify", "closed_form_tension_checks", ("cli", "verify")),
    ("verify.candidate_checks", "verify", "candidate_checks", ("cli", "verify")),
    ("verify.eigenfamily_checks", "verify", "eigenfamily_checks", ("cli", "verify")),
    ("verify.morphism_checks", "verify", "morphism_checks", ("cli", "verify")),
    ("verify.sample_domain_points", "verify", "sample_domain_points", ("cli", "verify")),
    ("groups.sample_point", "groups", "sample_point", ("verify", "groups")),
    ("construct.biharmonic_family", "construct", "biharmonic_family", ("cli", "construct")),
    ("construct.tension_table", "construct", "tension_table", ("cli", "verify", "construct")),
    ("construct.build_expression", "construct", "build_expression", ("cli", "verify", "construct")),
    ("report.to_json", "report", "VerificationReport.to_json", ()),
]

COUNTS = [
    ("algebra.jet2_mul", "algebra", "Jet2.__mul__", ()),
    ("algebra.jet_reciprocal", "algebra", "jet_reciprocal", ("algebra",)),
    ("forms.linear_form_evaluate", "forms", "LinearForm.evaluate", ()),
    ("forms.expr_evaluate", "forms", "RationalExpr.evaluate", ()),
]

EXTRA = [
    "verify.sample_domain_points.draws",
    "verify.sample_domain_points.accepted",
    "construct.biharmonic_family.unknowns",
]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for base, *_ in SPANS:
        names += [(f"{base}.calls", "count"), (f"{base}.s", "s")]
    names += [(f"{base}.calls", "count") for base, *_ in COUNTS]
    names += [(name, "count") for name in EXTRA]
    return names


class Tracer:
    """Call counts, extra counts and self times, keyed by metric base."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.extra: Counter = Counter()
        self.self_s: Counter = Counter()
        self._child = [0.0]

    def snapshot(self) -> tuple[Counter, Counter, Counter]:
        return Counter(self.calls), Counter(self.extra), Counter(self.self_s)

    def _span(self, base, fn):
        def wrapper(*args, **kwargs):
            self.calls[base] += 1
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.self_s[base] += elapsed - self._child.pop()
                self._child[-1] += elapsed

        return wrapper

    def _count(self, base, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[base] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sampling(self, fn):
        def wrapper(*args, **kwargs):
            before = self.calls["groups.sample_point"]
            points = fn(*args, **kwargs)
            self.extra["verify.sample_domain_points.draws"] += self.calls["groups.sample_point"] - before
            self.extra["verify.sample_domain_points.accepted"] += len(points)
            return points

        return wrapper

    def _family(self, fn):
        def wrapper(degrees, *args, **kwargs):
            self.extra["construct.biharmonic_family.unknowns"] += math.prod(int(d) + 1 for d in degrees)
            return fn(degrees, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch the currently imported biforge modules."""
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for base, home, attr, callers in table:
                module = sys.modules[f"biforge.{home}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    if isinstance(original, classmethod):
                        setattr(cls, method, classmethod(make(base, original.__func__)))
                    else:
                        setattr(cls, method, make(base, original))
                    continue
                wrapped = make(base, getattr(module, attr))
                if base == "verify.sample_domain_points":
                    wrapped = self._sampling(wrapped)
                elif base == "construct.biharmonic_family":
                    wrapped = self._family(wrapped)
                for caller in callers:
                    setattr(sys.modules[f"biforge.{caller}"], attr, wrapped)
