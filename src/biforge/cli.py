"""Command-line front end.

Subcommands
-----------
construct   Build a quadruple family and the proper-biharmonic coefficient
            table for the requested degrees; write both as JSON.
verify      Re-run the numeric verification campaign for files written by
            ``construct`` (eigen checks, conformality product rules,
            tension/bitension residuals); write a report JSON.
reproduce   Regenerate the built-in exact fixtures (one-variable tables,
            the two-variable restriction matrix and coefficient
            conditions) and compare exactly.
morphism    Build and verify harmonic-morphism families (column ratios or
            rational combinations of a tension-power eigenfamily).

Exit codes: 0 success / verification pass, 1 verification or fixture
failure (reports are still written), 2 invalid configuration or input.

Random vectors are drawn from a seeded complex Gaussian; for SO(n) the
row vectors are built as u + i*v with |u| = |v|, u orthogonal to v (and
the two rows mutually orthogonal), so the isotropy conditions hold
exactly up to rounding.  Same configuration and seed give byte-identical
output files, whatever ran before in the process.  ``construct`` and every
``--out`` overwrite an existing file in place: the same file, symlinks
followed, mode and hard links kept; not atomic.

The parser and each group's operator context are built once per process
and shared by every later ``main`` call; only the inputs change between
calls.  That saves time only where one process calls ``main`` more than
once, as the benchmark's campaigns and the test suite do; a one-shot
``biforge`` command builds each of them once either way.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np

from .construct import (
    CoeffTable,
    biharmonic_family,
    box_indices,
    build_expression,
    column_ratio_family,
    combine,
    eigenfamily_constants,
    harmonic_family,
    proper_biharmonic_table,
    rational_morphism,
    tension_power_family,
    tension_table,
)
from .errors import BiforgeError
from .forms import QuadrupleFamily, make_quadruple
from .groups import GroupKind, GroupSpec, _orthonormalize
from .operators import context
from .report import VerificationReport
from .verify import (
    DEFAULT_CANDIDATE_TOL,
    DEFAULT_MORPHISM_TOL,
    IDENTITY_TOL,
    candidate_checks,
    closed_form_tension_checks,
    morphism_campaign_checks,
    quadruple_checks,
    sample_domain_points,
)

__all__ = ["main", "REFERENCE_FIXTURES"]


# The option parsers are argparse type= callables.  A value out of range
# raises BiforgeError, which argparse lets through to main (exit 2,
# "error: ..."): it turns only ValueError and TypeError into usage errors.


def _number(convert, text: str):
    """convert(text), failing on a non-number with argparse's own message."""
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None


def _parse_degrees(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    # int() would also take "1_0", "+2", " 2" and non-ASCII digits
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise BiforgeError(f"cannot parse --degrees {text!r}")
    degrees = tuple(int(part) for part in parts)
    if any(d < 1 for d in degrees):
        raise BiforgeError("degrees must be positive integers, e.g. --degrees 2,1")
    return degrees


def _parse_points(text: str) -> int:
    count = _number(int, text)
    if count < 1:
        raise BiforgeError(f"--points must be at least 1, got {count}")
    return count


def _parse_tol(text: str) -> float:
    tol = _number(float, text)
    if not (math.isfinite(tol) and tol > 0):
        raise BiforgeError(f"--tol must be a finite number above 0, got {tol}")
    return tol


def _parse_seed(text: str) -> int:
    seed = _number(int, text)
    if seed < 0:
        raise BiforgeError(f"--seed must be non-negative, got {seed}")
    return seed


def _parse_mu(text: str) -> Fraction:
    try:
        mu = Fraction(text)
    except (ValueError, ZeroDivisionError):
        mu = 0
    if mu == 0:
        raise BiforgeError(f"--mu must be a nonzero fraction, got {text!r}")
    return mu


def _orthonormal_rows(rng: np.random.Generator, n: int, count: int) -> list[np.ndarray]:
    while True:
        rows = _orthonormalize(rng.normal(size=(count, n)))
        if rows is not None:
            return rows


def _seeded_vectors(spec: GroupSpec, rng: np.random.Generator):
    n = spec.n
    if spec.kind is GroupKind.SPECIAL_ORTHOGONAL:
        u1, v1, u2, v2 = _orthonormal_rows(rng, n, 4)
        p = u1 + 1j * v1
        q = u2 + 1j * v2
    else:
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        q = rng.normal(size=n) + 1j * rng.normal(size=n)
    while True:
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        if np.min(np.abs(a)) > 0.1 and np.min(np.abs(b)) > 0.1:
            return p, q, a, b


def _build_family(spec: GroupSpec, seed: int, beta: int, choice: int | None) -> QuadrupleFamily:
    p, q, a, b = _seeded_vectors(spec, np.random.default_rng(seed))
    return make_quadruple(spec, p, q, a, b, beta=beta, sp_choice=choice)


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` as ``open(path, "w")`` would, but cut a regular file only to the
    length written, never to zero first: ext4 flushes such a file when it is closed."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as file:
        size = file.write(text.encode())
        if stat.S_ISREG(os.fstat(file.fileno()).st_mode):  # a device or pipe has no length
            file.truncate(size)


def cmd_construct(
    *, group: str, n: int, seed: int, degrees: tuple[int, ...], choice: int | None,
    beta: int, mu: Fraction | None, out: Path,
) -> int:
    spec = GroupSpec.from_code(group, n)
    fam = _build_family(spec, seed, beta, choice)
    m = len(degrees)
    if m > fam.n_proper:
        other_choice = spec.kind is GroupKind.QUATERNIONIC_UNITARY and choice != 10
        raise BiforgeError(
            f"need {m} proper members but the family has {fam.n_proper}; "
            f"use a larger n{' or --choice 10' if other_choice else ''}"
        )
    mu = Fraction(spec.mu) if mu is None else mu
    table = proper_biharmonic_table(degrees, mu)
    out.mkdir(parents=True, exist_ok=True)
    coeffs_path = out / "coeffs.json"
    quad_path = out / "quadruple.json"
    _write_text(coeffs_path, table.to_json(fam.spec, mu) + "\n")
    _write_text(quad_path, fam.to_json() + "\n")
    print(f"wrote {coeffs_path} and {quad_path}")
    print(f"group={group} n={n} degrees={degrees} proper members available: {fam.n_proper}")
    return 0


def _read_inputs(coeffs_file: Path, quadruple_file: Path) -> tuple[CoeffTable, QuadrupleFamily]:
    """Parse verify's inputs; reject a table recorded for another group, n or mu."""
    try:
        fam = QuadrupleFamily.from_json(quadruple_file.read_text())
        table = CoeffTable.from_json(coeffs_file.read_text(), fam.spec)
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise BiforgeError(f"cannot parse inputs: {exc}") from exc
    return table, fam


def cmd_verify(
    *, coeffs: Path, quadruple: Path, out: Path | None, points: int, tol: float, seed: int,
    as_json: bool,
) -> int:
    table, fam = _read_inputs(coeffs, quadruple)
    spec = fam.spec
    m = len(table.degrees)
    if m > fam.n_proper:
        raise BiforgeError(
            f"table has {m} variables but the family has {fam.n_proper} proper members"
        )
    ctx = context(spec)
    pairs = [(fam.member_quotient(i), fam.member_tension(i)) for i in fam.proper_indices[:m]]
    phi = build_expression(table, pairs)
    proper = table.get((0,) * m) != 0

    points = sample_domain_points([phi, *(tf for _, tf in pairs)], spec, points, seed)
    checks = quadruple_checks(fam, ctx, points)
    checks += closed_form_tension_checks(fam, ctx, points)
    checks += candidate_checks(phi, ctx, points, proper=proper, tol=tol)
    subject = f"{'biharmonic' if proper else 'harmonic'} candidate, degrees {table.degrees}"
    return _emit(subject, spec, points, seed, checks, out, as_json)


def _emit(subject: str, spec: GroupSpec, points, seed: int, checks: list, out: Path | None,
          as_json: bool) -> int:
    """Write the report of ``checks`` to ``out``, print it, and return the exit code."""
    group = {"group": spec.code, "n": spec.n}
    report = VerificationReport(subject, group, len(points), seed, tuple(checks))
    text = report.to_json() if out is not None or as_json else None
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_text(out, text + "\n")
    print(text if as_json else "\n".join(report.summary_lines()))
    return 0 if report.verdict else 1


# ---------------------------------------------------------------------------
# exact fixture reproduction

# One-variable tables are (c_0..c_d) up to overall scale; matrix fixtures are
# the restriction of the tension field to the degree-(1,1) monomial basis
# [f1 f2, f1 t2, t1 f2, t1 t2]; relation fixtures are integer rows that must
# annihilate every coefficient vector of the named family, with coordinates
# ordered lexicographically over the degree box.
REFERENCE_FIXTURES: dict = {
    "harmonic_d2": (0, 4, 3),
    "harmonic_d3": (0, 6, 12, 5),
    "harmonic_d4": (0, 32, 120, 120, 35),
    "biharmonic_d2": (4, 0, -3),
    "biharmonic_d3": (6, 0, -27, -15),
    "biharmonic_d4": (32, 0, -480, -640, -210),
    "tension_matrix_11": ((0, 0, 0, 0), (2, 0, 0, 0), (2, 0, 0, 0), (0, 3, 3, -4)),
    "tension_matrix_11_squared": (
        (0, 0, 0, 0),
        (0, 0, 0, 0),
        (0, 0, 0, 0),
        (12, -12, -12, 16),
    ),
    "harmonic_relations_11": ((1, 0, 0, 0), (0, 3, 3, -4)),
    "biharmonic_relations_11": ((-3, 3, 3, -4),),
    "harmonic_relations_21": (
        (1, 0, 0, 0, 0, 0),
        (0, 2, 1, -1, 0, 0),
        (0, 0, 1, 0, -1, 0),
        (0, 5, 5, 0, 0, -6),
    ),
    "biharmonic_relations_21": (
        (-3, 2, 1, -1, 0, 0),
        (-3, 0, 2, 0, -2, 0),
        (-15, 5, 5, 0, 0, -6),
    ),
}


def _table_vector(table: CoeffTable) -> list[Fraction]:
    return [table.get(idx) for idx in box_indices(table.degrees)]


def _check_fixture(name: str) -> bool:
    expected = REFERENCE_FIXTURES[name]
    if name.startswith(("harmonic_d", "biharmonic_d")):
        d = int(name[-1])
        reference = CoeffTable((d,), {(k,): v for k, v in enumerate(expected)})
        if name.startswith("harmonic"):
            return harmonic_family((d,), -1)[0].proportional_to(reference)
        return proper_biharmonic_table((d,), -1).proportional_to(reference)
    if name == "tension_matrix_11":
        return _tension_matrix_11() == expected
    if name == "tension_matrix_11_squared":
        m = np.array(_tension_matrix_11(), dtype=object)
        return tuple(map(tuple, m @ m)) == expected
    if name.endswith("relations_11") or name.endswith("relations_21"):
        degrees = (1, 1) if name.endswith("_11") else (2, 1)
        if name.startswith("harmonic"):
            family, weights = harmonic_family(degrees, -1), [2, -3]
        else:
            family, weights = biharmonic_family(degrees, -1), [1, 2, -3]
        for table in (*family, combine(family, weights)):
            vec = _table_vector(table)
            for row in expected:
                if sum(Fraction(c) * v for c, v in zip(row, vec)) != 0:
                    return False
        return True
    raise BiforgeError(f"unknown fixture {name}")


def _tension_matrix_11() -> tuple:
    """Row r, column c: coefficient at index r of the tension of unit monomial c."""
    indices = list(box_indices((1, 1)))
    images = [tension_table(CoeffTable((1, 1), {idx: 1}), -1) for idx in indices]
    return tuple(tuple(int(image.get(row)) for image in images) for row in indices)


def cmd_reproduce(*, as_json: bool) -> int:
    results = {name: bool(_check_fixture(name)) for name in REFERENCE_FIXTURES}
    ok = all(results.values())
    if as_json:
        print(json.dumps({"fixtures": results, "pass": ok}, indent=2, sort_keys=True))
    else:
        width = max(len(name) for name in results)
        for name, good in results.items():
            print(f"{name:<{width}}  {'pass' if good else 'FAIL'}")
        print(f"overall: {'pass' if ok else 'FAIL'}")
    if not ok:
        failing = [name for name, good in results.items() if not good]
        print(f"mismatched fixtures: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def cmd_morphism(
    *, group: str, n: int, points: int, tol: float, seed: int, as_json: bool, kind: str,
    k: int | None, choice: int | None, out: Path | None,
) -> int:
    if kind == "orthogonal":
        for flag, value in (("--choice", choice), ("--k", k)):
            if value is not None:
                raise BiforgeError(f"{flag} applies only to --kind rational")
    elif k is None:
        k = 1
    spec = GroupSpec.from_code(group, n)
    if kind == "orthogonal":
        if spec.kind is not GroupKind.UNITARY:
            raise BiforgeError("orthogonal column-ratio families live on the unitary group")
        rng = np.random.default_rng(seed)
        q = rng.normal(size=spec.n) + 1j * rng.normal(size=spec.n)
        family = column_ratio_family(q, spec, beta=0)
        morphism = family[0]
        points = sample_domain_points(family, spec, points, seed)
        # eigenvalue 0 and kappa constant 0 are exactly the morphism conditions
        lam, kap, family_tol = 0.0, 0.0, tol
        subject = f"orthogonal column-ratio family, {len(family)} members"
    else:
        fam = _build_family(spec, seed, 0, choice)
        if fam.n_proper < 2:
            raise BiforgeError("need at least two proper members for a rational morphism")
        family = tension_power_family(fam, k)[:2]
        lam, kap = eigenfamily_constants(spec.mu, k)
        morphism = rational_morphism(family, {(1, 0): 1.0}, {(0, 1): 1.0})
        points = sample_domain_points([morphism, *family], spec, points, seed)
        family_tol = IDENTITY_TOL
        subject = f"rational morphism from the k={k} tension-power family"
    checks = morphism_campaign_checks(family, morphism, lam, kap, context(spec), points, family_tol, tol)
    return _emit(subject, spec, points, seed, checks, out, as_json)


# ---------------------------------------------------------------------------
# argument parsing


def _add_group(parser: argparse.ArgumentParser):
    parser.add_argument("--group", choices=["su", "so", "sp"], required=True)
    parser.add_argument("--n", type=int, required=True)


def _add_checks(parser: argparse.ArgumentParser, tol: float, tol_help: str):
    parser.add_argument("--points", type=_parse_points, default=20, help="sample points, at least 1")
    parser.add_argument("--tol", type=_parse_tol, default=tol, help=tol_help)
    parser.add_argument("--seed", type=_parse_seed, default=1)
    parser.add_argument("--json", action="store_true", dest="as_json")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The biforge parser; each subcommand's ``run`` default is its cmd_* function.

    Built once and shared by every call in the process, so it must not be
    mutated: ``parse_args`` keeps no state on it, and help pages are
    formatted when printed, so they still follow ``COLUMNS``.
    """
    parser = argparse.ArgumentParser(prog="biforge", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(required=True)

    p_con = sub.add_parser("construct", help="build and write a biharmonic family")
    p_con.set_defaults(run=cmd_construct)
    _add_group(p_con)
    p_con.add_argument("--seed", type=_parse_seed, default=1)
    p_con.add_argument("--degrees", type=_parse_degrees, default="1")
    p_con.add_argument("--choice", type=int, choices=[9, 10, 11], default=None)
    p_con.add_argument("--beta", type=int, default=0)
    p_con.add_argument("--mu", type=_parse_mu, default=None, help="override, e.g. --mu=-1/2")
    p_con.add_argument("--out", type=Path, default=Path("out"))

    p_ver = sub.add_parser("verify", help="verify construct outputs numerically")
    p_ver.set_defaults(run=cmd_verify)
    p_ver.add_argument("--coeffs", type=Path, required=True)
    p_ver.add_argument("--quadruple", type=Path, required=True)
    p_ver.add_argument("--out", type=Path, default=None)
    _add_checks(p_ver, DEFAULT_CANDIDATE_TOL, "bitension tolerance; the tension check uses tol/10")

    p_rep = sub.add_parser("reproduce", help="regenerate and compare exact fixtures")
    p_rep.set_defaults(run=cmd_reproduce)
    p_rep.add_argument("--json", action="store_true", dest="as_json")

    p_mor = sub.add_parser("morphism", help="build and verify harmonic morphisms")
    p_mor.set_defaults(run=cmd_morphism)
    _add_group(p_mor)
    _add_checks(p_mor, DEFAULT_MORPHISM_TOL, "tolerance on the tension and conformality residuals")
    p_mor.add_argument("--kind", choices=["orthogonal", "rational"], default="orthogonal")
    p_mor.add_argument("--k", type=int, default=None, help="tension power, --kind rational only (default 1)")
    p_mor.add_argument(
        "--choice", type=int, choices=[9, 10, 11], default=None, help="sp blocks, --kind rational only"
    )
    p_mor.add_argument("--out", type=Path, default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
        return args.pop("run")(**args)
    except (BiforgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
