"""End-to-end and per-layer benchmark of biforge's campaigns.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process drives the public CLI entry
``biforge.cli.main([...])`` in-process.  Each timed operation is one
whole campaign (several CLI calls of fixed make-up), repeated until
``--seconds`` have passed.  Every time is reported in reference-speed
seconds: wall time times NOMINAL_S over the reference kernel's time
measured around it (see kernel.py).

--trace 0 prints the end-to-end metrics (setup_s, op_p50_s, ops_per_s,
op_peak_mib); --trace 1 patches the layers (see layers.py) and prints
per-layer counts and self times per set-up plus one campaign.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import checks
import kernel
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def fresh_cli():
    """Import biforge from scratch and return its CLI module."""
    for name in [m for m in sys.modules if m == "biforge" or m.startswith("biforge.")]:
        del sys.modules[name]
    return importlib.import_module("biforge.cli")


def call(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# workloads: set-up builds the argument lists, a campaign runs them all


VERIFY_TABLES = [  # (label, group, n, degrees, extra construct flags)
    ("su(4) degrees 2,1", "su", 4, "2,1", []),
    ("so(8) degree 2", "so", 8, "2", []),
    ("sp(4) choice 10 degree 2", "sp", 4, "2", ["--choice", "10"]),
]
VERIFY_POINTS = 2

# Rational morphisms on su(n) and sp(n) are left out: their domain sampler
# finds no point on some seeds (su(5): 2 of 400, sp(3) --choice 10: 3 of
# 100), and the CLI then ends in an uncaught RuntimeError.  The so(n)
# families, built from orthonormal rows, did not come near that.
MORPHISMS = [  # (label, group, n, flags)
    ("su(8) orthogonal", "su", 8, ["--kind", "orthogonal"]),
    ("so(8) rational k=2", "so", 8, ["--kind", "rational", "--k", "2"]),
]
MORPHISM_POINTS = 5

BOXES = [("su", 3, "6,6"), ("su", 4, "3,3,3"), ("su", 5, "2,2,2,2")]


def construct_argv(group, n, degrees, seed, out, extra=()):
    return ["construct", "--group", group, "--n", str(n), "--degrees", degrees,
            "--seed", str(seed), "--out", str(out), *extra]


def setup_bitension_verify(cli, seed, scratch):
    argvs = []
    for i, (_, group, n, degrees, extra) in enumerate(VERIFY_TABLES):
        out = scratch / f"table{i}"
        code, _ = call(cli, construct_argv(group, n, degrees, seed, out, extra))
        if code != 0:
            raise RuntimeError(f"set-up construct {group}({n}) exited {code}")
        argvs.append(["verify", "--coeffs", str(out / "coeffs.json"), "--quadruple",
                      str(out / "quadruple.json"), "--points", str(VERIFY_POINTS),
                      "--seed", str(seed), "--json"])
    return argvs


def setup_harmonic_morphism(cli, seed, scratch):
    return [["morphism", "--group", group, "--n", str(n), *flags,
             "--points", str(MORPHISM_POINTS), "--seed", str(seed), "--json"]
            for _, group, n, flags in MORPHISMS]


def setup_exact_solve(cli, seed, scratch):
    return [construct_argv(group, n, degrees, seed, scratch / f"box{i}")
            for i, (group, n, degrees) in enumerate(BOXES)]


def check_bitension_verify(cli, seed, scratch, rng):
    out = []
    for i, (label, *_) in enumerate(VERIFY_TABLES):
        table = scratch / f"table{i}"
        out += checks.candidate_checks(label, table / "coeffs.json", table / "quadruple.json", rng, True)
    # Control for the verdict check: biforge itself must fail a perturbed table.
    bad = scratch / "perturbed" / "coeffs.json"
    checks.write_perturbed_table(scratch / "table0" / "coeffs.json", bad)
    code, _ = call(cli, ["verify", "--coeffs", str(bad), "--quadruple", str(scratch / "table0" / "quadruple.json"),
                         "--points", str(VERIFY_POINTS), "--seed", str(seed), "--json"])
    out.append(checks.Result(f"{VERIFY_TABLES[0][0]}: control, verify of the perturbed table exits 1", code == 1, str(code)))
    d2 = scratch / "degree2"
    code, _ = call(cli, construct_argv("su", 4, "2", seed, d2))
    out.append(checks.Result("su(4) degree 2 construct exits 0", code == 0, str(code)))
    out += checks.closed_form_d2_checks(d2 / "coeffs.json")
    return out


def check_harmonic_morphism(cli, seed, scratch, rng):
    out = checks.column_ratio_checks(8, rng)
    for i, (label, group, n, _) in enumerate(MORPHISMS[1:]):
        quad = scratch / f"quad{i}"
        code, _ = call(cli, construct_argv(group, n, "1", seed, quad))
        out.append(checks.Result(f"{label}: construct exits 0", code == 0, str(code)))
        out += checks.rational_morphism_checks(label, quad / "quadruple.json", rng)
    return out


def check_exact_solve(cli, seed, scratch, rng):
    out = []
    for i, (group, n, degrees) in enumerate(BOXES):
        label = f"{group}({n}) box ({degrees})"
        box = scratch / f"box{i}"
        out += checks.normalisation_checks(label, box / "coeffs.json")
        out += checks.candidate_checks(label, box / "coeffs.json", box / "quadruple.json", rng, False)
    return out


WORKLOADS = {
    "bitension-verify": (setup_bitension_verify, check_bitension_verify),
    "harmonic-morphism": (setup_harmonic_morphism, check_harmonic_morphism),
    "exact-solve": (setup_exact_solve, check_exact_solve),
}


def campaign(cli, argvs, clock=None):
    """Run every CLI call of one campaign.

    Returns (ok, wall, ref): ok iff every call exits 0 and every report
    passes; with a clock, the summed wall and reference-speed times of
    the calls, each corrected by the kernel run right after it.
    """
    ok, wall, ref = True, 0.0, 0.0
    for argv in argvs:
        if clock is None:
            code, text = call(cli, argv)
        else:
            (code, text), call_wall, call_ref = clock.time(lambda: call(cli, argv))
            wall, ref = wall + call_wall, ref + call_ref
        ok &= code == 0
        if "--json" in argv:
            ok &= json.loads(text)["verdict"] is True
    return ok, wall, ref


# ---------------------------------------------------------------------------
# timing


class Clock:
    """Wall times corrected by the reference kernel run around each one.

    The kernel is repeated until it covers about KERNEL_SHARE of the
    operation it brackets (at least three runs, median taken), so a
    long operation is not corrected by a single noisy 10 ms sample.  A
    campaign is timed call by call, so the correction follows speed
    changes between its calls.
    """

    KERNEL_SHARE = 0.05

    def __init__(self):
        self.before = kernel.measure(3)

    def time(self, fn):
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        repeats = max(1, min(25, round(self.KERNEL_SHARE * wall / kernel.NOMINAL_S)))
        after = kernel.measure(repeats)
        factor = kernel.NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return result, wall, wall * factor


def timed_campaigns(cli, argvs, seconds, clock):
    """Repeat the campaign until ``seconds`` have passed; (ok flags, raw, normalised)."""
    oks, raw, norm = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        ok, wall, ref = campaign(cli, argvs, clock)
        oks.append(ok)
        raw.append(wall)
        norm.append(ref)
        if time.perf_counter() >= deadline:
            return oks, raw, norm


def peak_mib(cli, argvs) -> tuple[bool, float]:
    tracemalloc.start()
    try:
        ok = campaign(cli, argvs)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return ok, peak / 2**20


def run(workload: str, seed: int, seconds: float, trace: bool, scratch: Path):
    """(correct, attempted, failed, metrics, diagnostics) of one benchmark run."""
    setup, check = WORKLOADS[workload]
    tracer = layers.Tracer() if trace else None
    clock = Clock()
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        def build():
            cli = fresh_cli()
            if tracer is not None:
                tracer.install()
            return cli, setup(cli, seed, scratch)

        (cli, argvs), wall, ref = clock.time(build)
        setups.append((wall, ref))

    if trace:
        at_setup = tracer.snapshot()
        warm_ok = campaign(cli, argvs)[0]
        at_warm = tracer.snapshot()
    else:
        warm_ok, peak = peak_mib(cli, argvs)
    oks, raw, norm = timed_campaigns(cli, argvs, seconds, clock)

    if trace:
        metrics = per_layer(at_setup, at_warm, tracer.snapshot(), len(norm),
                            setups[0][1] / setups[0][0], sum(norm) / sum(raw))
        metrics["traced.op_p50_s"] = (statistics.median(norm), "s")
    else:
        metrics = {
            "setup_s": (statistics.median(r for _, r in setups), "s"),
            "op_p50_s": (statistics.median(norm), "s"),
            "ops_per_s": (len(norm) / sum(norm), "1/s"),
            "op_peak_mib": (peak, "MiB"),
        }
    diagnostics = {
        "setup_raw_p50_s": statistics.median(w for w, _ in setups),
        "op_raw_p50_s": statistics.median(raw),
    }
    results = check(cli, seed, scratch, np.random.default_rng(seed))
    for r in results:
        print(f"  [{'ok' if r.ok else 'FAIL'}] {r.name} {r.detail}", file=sys.stderr)
    correct = warm_ok and all(r.ok for r in results)
    return correct, len(oks), oks.count(False), metrics, diagnostics


def per_layer(at_setup, at_warm, at_end, n_ops, setup_factor, op_factor):
    """Per-layer values for one set-up plus one average campaign.

    Snapshots are (calls, extra, self_s) counters; self times are scaled
    to reference-speed seconds with the factor of their phase.
    """
    metrics = {}
    for name, unit in layers.metric_names():
        base, kind = name.rsplit(".", 1)
        index, key = {"calls": (0, base), "s": (2, base)}.get(kind, (1, name))
        setup_part, op_part = at_setup[index][key], (at_end[index][key] - at_warm[index][key]) / n_ops
        if kind == "s":
            setup_part, op_part = setup_part * setup_factor, op_part * op_factor
        metrics[name] = (setup_part + op_part, unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "biforge" / "cli.py").is_file():
        print(f"error: no biforge sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # The load stays single-threaded: FORGE_THREADS would turn on biforge's thread pool.
    os.environ.pop("FORGE_THREADS", None)
    sys.path.insert(0, str(SRC))

    scratch = ROOT / ".bench_scratch" / f"{args.workload}-{os.getpid()}"
    try:
        correct, attempted, failed, metrics, diagnostics = run(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()

    print(f"workload {args.workload}  seed {args.seed}  attempted {attempted}  failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, value in diagnostics.items():
        print(f"  ({name} = {value:.6g} s)")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
