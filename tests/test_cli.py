"""End-to-end command-line behaviour, one test per exit-code path."""

import argparse
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import biforge.verify
from biforge.cli import REFERENCE_FIXTURES, build_parser, main
from biforge.construct import CoeffTable
from biforge.groups import GroupSpec
from biforge.operators import OperatorContext, context, laplacian_jets


def run(argv):
    return main(argv)


def test_construct_writes_files_and_expected_ratios(tmp_path):
    out = tmp_path / "run"
    code = run(
        ["construct", "--group", "su", "--n", "3", "--degrees", "2", "--seed", "7",
         "--out", str(out)]
    )
    assert code == 0
    table = CoeffTable.from_json((out / "coeffs.json").read_text())
    assert table.single_degree() == (1, 0, Fraction(-3, 4))
    quad = json.loads((out / "quadruple.json").read_text())
    assert quad["group"] == "su" and quad["n"] == 3


def test_construct_rejects_small_orthogonal_group(tmp_path, capsys):
    code = run(["construct", "--group", "so", "--n", "3", "--out", str(tmp_path)])
    assert code == 2
    assert "n must be >= 4" in capsys.readouterr().err


def test_construct_rejects_too_many_degrees(tmp_path, capsys):
    # sp choice 9 on n=2 has a single proper member
    code = run(
        ["construct", "--group", "sp", "--n", "2", "--degrees", "1,1", "--choice", "9",
         "--out", str(tmp_path)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "proper members" in err and err.rstrip().endswith("use a larger n or --choice 10")


@pytest.mark.parametrize(
    "argv",
    [["--group", "sp", "--n", "1", "--choice", "10", "--degrees", "2"],
     ["--group", "su", "--n", "2", "--degrees", "1,1"]],
    ids=["sp1-choice10", "su2"],
)
def test_construct_too_few_members_hint_follows_the_inputs(tmp_path, capsys, argv):
    # sp(1) rows are 1-vectors, always dependent, so no member is proper;
    # --choice 10 was given, so the hint does not suggest it again
    assert run(["construct", *argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "proper members" in err and err.rstrip().endswith("use a larger n")


def test_construct_sp_choice_10_multi_degree_verifies_downstream(tmp_path):
    out = tmp_path / "sp"
    code = run(
        ["construct", "--group", "sp", "--n", "2", "--degrees", "1,1", "--choice", "10",
         "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    report = out / "report.json"
    code = run(
        ["verify", "--coeffs", str(out / "coeffs.json"), "--quadruple",
         str(out / "quadruple.json"), "--points", "6", "--seed", "2",
         "--out", str(report)]
    )
    assert code == 0
    assert json.loads(report.read_text())["verdict"] is True


def test_verify_harmonic_table_passes(tmp_path):
    out = _construct(tmp_path)
    table = CoeffTable((2,), {(1,): 4, (2,): 3})
    coeffs = tmp_path / "harmonic.json"
    coeffs.write_text(table.to_json())
    code = run(
        ["verify", "--coeffs", str(coeffs), "--quadruple", str(out / "quadruple.json"),
         "--points", "6", "--seed", "5"]
    )
    assert code == 0


def test_construct_bad_degrees(tmp_path, capsys):
    code = run(["construct", "--group", "su", "--n", "3", "--degrees", "0", "--out", str(tmp_path)])
    assert code == 2
    assert "degrees" in capsys.readouterr().err
    # int() would take the last four: "1_0" as 10, "+2" and " 2" as 2, an Arabic-Indic two as 2
    for degrees in ("2,,1", "2,1,", "1_0", "+2", " 2", "\u0662"):
        code = run(["construct", "--group", "su", "--n", "3", "--degrees", degrees, "--out", str(tmp_path)])
        assert code == 2
        assert "--degrees" in capsys.readouterr().err
    assert not (tmp_path / "coeffs.json").exists()


def test_construct_rejects_mu_with_zero_denominator(tmp_path, capsys):
    for mu in ("1/0", "0", "x"):
        code = run(["construct", "--group", "su", "--n", "3", f"--mu={mu}", "--out", str(tmp_path)])
        assert code == 2
        assert "--mu must be a nonzero fraction" in capsys.readouterr().err
    assert not (tmp_path / "coeffs.json").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["coeffs"][0].update(den="0"), "denominator 0"),
        (lambda doc: doc["coeffs"][0].update(k=[7]), "outside the degree box"),
        (lambda doc: doc["coeffs"][0].update(k=[-1]), "outside the degree box"),
        (lambda doc: doc.update(degrees=[0]), "positive integers"),
        (lambda doc: doc["coeffs"].append(dict(doc["coeffs"][0], num="5")), "repeats index"),
        (lambda doc: doc.update(degrees=2), "cannot parse inputs"),
        (lambda doc: doc.update(mu="1/0"), "cannot parse inputs"),
        # json writes these as Infinity, which it reads back as a float
        (lambda doc: doc["coeffs"][0].update(num=1e400), "inf is not an integer"),
        (lambda doc: doc.update(degrees=[1e400]), "inf is not an integer"),
        (lambda doc: doc.update(degrees=[2.5]), "2.5 is not an integer"),
        (lambda doc: doc["coeffs"][0].update(k=[0.5]), "0.5 is not an integer"),
        # int() would read these as -30 and 4
        (lambda doc: doc["coeffs"][0].update(num="-3_0"), "'-3_0' is not an integer"),
        (lambda doc: doc["coeffs"][0].update(den=" 4"), "' 4' is not an integer"),
    ],
    ids=["zero-den", "index-7", "index-minus-1", "degree-0", "duplicate-index", "degrees-not-list",
         "mu-zero-den", "num-1e400", "degree-1e400", "degree-2.5", "index-0.5", "num-underscore",
         "den-space"],
)
def test_verify_rejects_malformed_table(tmp_path, capsys, edit, message):
    out = tmp_path / "su4"
    assert run(["construct", "--group", "su", "--n", "4", "--out", str(out)]) == 0
    doc = json.loads((out / "coeffs.json").read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run(["verify", "--coeffs", str(bad), "--quadruple", str(out / "quadruple.json"),
                "--points", "2"])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(beta=0.5), "beta: 0.5 is not an integer"),
        # json writes these as NaN and Infinity, which it reads back as floats
        (lambda doc: doc["p"][0].__setitem__(0, float("nan")), "vector p has a non-finite entry"),
        (lambda doc: doc["a"][1].__setitem__(0, float("inf")), "vector a has a non-finite entry"),
    ],
    ids=["beta-0.5", "p-nan", "a-inf"],
)
def test_verify_rejects_fractional_beta(tmp_path, capsys, edit, message):
    out = _construct(tmp_path)
    doc = json.loads((out / "quadruple.json").read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run(["verify", "--coeffs", str(out / "coeffs.json"), "--quadruple", str(bad), "--points", "2"])
    assert code == 2
    assert f"cannot parse inputs: {message}" in capsys.readouterr().err


def _construct(tmp_path, extra=()):
    out = tmp_path / "artifacts"
    assert (
        run(
            ["construct", "--group", "su", "--n", "3", "--degrees", "2", "--seed", "11",
             "--out", str(out), *extra]
        )
        == 0
    )
    return out


def test_verify_passes_and_is_deterministic(tmp_path, capsys):
    out = _construct(tmp_path)
    report1 = tmp_path / "report1.json"
    report2 = tmp_path / "report2.json"
    argv = ["verify", "--coeffs", str(out / "coeffs.json"), "--quadruple",
            str(out / "quadruple.json"), "--points", "8", "--seed", "5"]
    assert run(argv + ["--out", str(report1)]) == 0
    capsys.readouterr()
    assert run(argv + ["--out", str(report2)]) == 0
    assert report1.read_bytes() == report2.read_bytes()
    doc = json.loads(report1.read_text())
    assert doc["verdict"] is True
    assert any(c["name"] == "bitension" for c in doc["checks"])
    # with --out and --json, the file holds the printed report: the JSON
    # text plus "\n", which print adds to stdout as well
    report3 = tmp_path / "report3.json"
    capsys.readouterr()
    assert run(argv + ["--out", str(report3), "--json"]) == 0
    printed = capsys.readouterr().out
    assert printed.endswith("}\n") and json.loads(printed) == doc
    assert report3.read_text() == printed


def test_outputs_are_overwritten_in_place(tmp_path, capsys):
    argv = ["construct", "--group", "su", "--n", "3", "--degrees", "2", "--seed", "11"]
    fresh, out = _construct(tmp_path), tmp_path / "out"
    out.mkdir()
    coeffs, quad = out / "coeffs.json", out / "quadruple.json"
    coeffs.write_text("x" * 3 * len((fresh / "coeffs.json").read_text()))
    coeffs.chmod(0o640)
    inode = coeffs.stat().st_ino
    target = tmp_path / "elsewhere.json"
    target.write_text("x" * 3 * len((fresh / "quadruple.json").read_text()))
    quad.symlink_to(target)
    assert run(argv + ["--out", str(out)]) == 0
    for name in ("coeffs.json", "quadruple.json"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes()
    assert coeffs.stat().st_ino == inode and stat.S_IMODE(coeffs.stat().st_mode) == 0o640
    assert quad.is_symlink() and target.read_bytes() == (fresh / "quadruple.json").read_bytes()

    report = tmp_path / "report.json"
    report.write_text("x" * 100_000)
    capsys.readouterr()
    assert run(["verify", "--coeffs", str(coeffs), "--quadruple", str(quad), "--points", "4",
                "--seed", "5", "--json", "--out", str(report)]) == 0
    printed = capsys.readouterr().out
    assert printed.endswith("}\n") and report.read_bytes() == printed.encode()

    # a device or a pipe has no length to cut, and is written as open(path, "w") writes it
    read_end, write_end = os.pipe()
    for device in (os.devnull, f"/dev/fd/{write_end}"):
        assert run(["verify", "--coeffs", str(coeffs), "--quadruple", str(quad), "--points", "4",
                    "--seed", "5", "--json", "--out", device]) == 0
        assert capsys.readouterr() == (printed, "")
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        assert pipe.read() == printed.encode()


def test_output_that_is_a_directory_is_refused_as_open_refuses_it(tmp_path, capsys):
    inputs = _construct(tmp_path)
    out = tmp_path / "out"
    (out / "coeffs.json").mkdir(parents=True)
    report = tmp_path / "report"
    report.mkdir()
    capsys.readouterr()
    for argv, path in (
        (["construct", "--group", "su", "--n", "3", "--out", str(out)], out / "coeffs.json"),
        (["verify", "--coeffs", str(inputs / "coeffs.json"), "--quadruple",
          str(inputs / "quadruple.json"), "--points", "2", "--out", str(report)], report),
    ):
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(path)!r}\n"


def test_verify_detects_perturbed_harmonic_table(tmp_path):
    out = _construct(tmp_path)
    # write a harmonic table with one coefficient off by about 1e-3
    table = CoeffTable((2,), {(1,): 4, (2,): Fraction(3001, 1000)})
    coeffs = tmp_path / "perturbed.json"
    coeffs.write_text(table.to_json())
    report = tmp_path / "report.json"
    code = run(
        ["verify", "--coeffs", str(coeffs), "--quadruple", str(out / "quadruple.json"),
         "--points", "6", "--seed", "5", "--out", str(report)]
    )
    assert code == 1
    doc = json.loads(report.read_text())
    assert doc["verdict"] is False
    tension_checks = [c for c in doc["checks"] if c["name"] == "tension"]
    assert tension_checks and 1e-5 < tension_checks[0]["max_residual"] < 1e-1


def test_verify_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["verify", "--coeffs", str(bad), "--quadruple", str(bad)])
    assert code == 2
    assert "cannot parse" in capsys.readouterr().err


def test_reproduce_all_fixtures(capsys):
    assert run(["reproduce"]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out


def test_reproduce_json(capsys):
    assert run(["reproduce", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["fixtures"]["biharmonic_d4"] is True


@pytest.mark.parametrize(
    "name, corrupted",
    [
        ("harmonic_d2", (0, 4, 5)),
        ("biharmonic_d3", (6, 0, -27, -16)),
        # the last row with -7 for -6
        ("harmonic_relations_21", (*REFERENCE_FIXTURES["harmonic_relations_21"][:3], (0, 5, 5, 0, 0, -7))),
    ],
    ids=["harmonic", "biharmonic", "relations"],
)
def test_reproduce_corrupted_fixture(monkeypatch, capsys, name, corrupted):
    monkeypatch.setitem(REFERENCE_FIXTURES, name, corrupted)
    assert run(["reproduce"]) == 1
    assert f"mismatched fixtures: {name}\n" in capsys.readouterr().err


def test_reproduce_unknown_fixture_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setitem(REFERENCE_FIXTURES, "no_such_fixture", ())
    assert run(["reproduce"]) == 2
    assert "error: unknown fixture no_such_fixture" in capsys.readouterr().err


def test_morphism_orthogonal(tmp_path):
    report = tmp_path / "morphism.json"
    code = run(
        ["morphism", "--group", "su", "--n", "3", "--kind", "orthogonal",
         "--points", "6", "--seed", "2", "--out", str(report)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["verdict"] is True


def test_morphism_rational(tmp_path):
    report = tmp_path / "rational.json"
    code = run(
        ["morphism", "--group", "su", "--n", "3", "--kind", "rational", "--k", "2",
         "--points", "6", "--seed", "2", "--out", str(report)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["verdict"] is True


def test_morphism_rational_defaults_to_k1(tmp_path):
    # without --k the rational morphism is built from the member tensions
    # themselves, k = 1
    report = tmp_path / "rational.json"
    code = run(["morphism", "--group", "su", "--n", "3", "--kind", "rational", "--points", "4", "--out", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert "k=1" in doc["subject"] and doc["verdict"] is True


def test_morphism_rational_needs_two_proper_members(capsys):
    # su(2) has one column besides the denominator's, so one proper member
    code = run(["morphism", "--group", "su", "--n", "2", "--kind", "rational", "--points", "2"])
    assert code == 2
    assert "need at least two proper members" in capsys.readouterr().err


def test_morphism_orthogonal_wrong_group(capsys):
    code = run(["morphism", "--group", "so", "--n", "4", "--kind", "orthogonal"])
    assert code == 2
    assert "unitary" in capsys.readouterr().err


def test_construct_rejects_check_flags(tmp_path, capsys):
    # construct runs no numerical check, so it has no --points, --tol or --json
    with pytest.raises(SystemExit) as exc:
        run(["construct", "--group", "su", "--n", "3", "--tol", "1e-300", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not (tmp_path / "coeffs.json").exists()


def test_morphism_reads_tol(capsys):
    argv = ["morphism", "--group", "su", "--n", "4", "--kind", "orthogonal", "--points", "5"]
    assert run(argv) == 0
    assert run(argv + ["--tol", "1e-300"]) == 1


def test_morphism_rejects_zero_points(capsys):
    code = run(["morphism", "--group", "su", "--n", "4", "--points", "0"])
    assert code == 2
    assert "--points must be at least 1" in capsys.readouterr().err


def test_verify_rejects_zero_points(tmp_path, capsys):
    out = _construct(tmp_path)
    code = run(["verify", "--coeffs", str(out / "coeffs.json"), "--quadruple",
                str(out / "quadruple.json"), "--points", "0"])
    assert code == 2
    assert "--points must be at least 1" in capsys.readouterr().err


def test_morphism_exhausted_sampler_exits_2(monkeypatch, capsys):
    # a domain margin that no finite denominator meets rejects every draw
    monkeypatch.setattr("biforge.verify.DEFAULT_DOMAIN_MARGIN", math.inf)
    code = run(["morphism", "--group", "su", "--n", "5", "--kind", "rational", "--k", "2",
                "--points", "5", "--seed", "214"])
    assert code == 2
    assert "0 accepted after 1500 draws" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--group", "su", "--n", "5", "--seed", "214"],
     ["--group", "sp", "--n", "3", "--choice", "10", "--seed", "108"]],
    ids=["su5-seed214", "sp3-choice10-seed108"],
)
def test_morphism_rational_nested_denominator_samples(tmp_path, argv):
    # the morphism's denominator (tau f)^k is itself a quotient; its
    # den_scale must follow the quotient's values for the sampler to
    # find points
    report = tmp_path / "rational.json"
    code = run(["morphism", *argv, "--kind", "rational", "--k", "2", "--points", "5",
                "--out", str(report)])
    assert code == 0
    assert json.loads(report.read_text())["verdict"] is True


def test_construct_records_family_in_table(tmp_path):
    out = _construct(tmp_path, ["--mu=-1/2"])
    doc = json.loads((out / "coeffs.json").read_text())
    assert (doc["schema"], doc["group"], doc["n"], doc["mu"]) == (1, "su", 3, "-1/2")
    assert CoeffTable.from_json((out / "coeffs.json").read_text()).single_degree() == (1, 0, -3)


def test_construct_mu_help_example_parses(tmp_path, capsys):
    # the help's example is a form argparse reads for a negative fraction;
    # a bare "-1/2" after "--mu" would be taken for an option
    with pytest.raises(SystemExit) as done:
        run(["construct", "--help"])
    assert done.value.code == 0
    example = capsys.readouterr().out.split("override, e.g. ")[1].split()[0]
    out = _construct(tmp_path, [example])
    assert json.loads((out / "coeffs.json").read_text())["mu"] == "-1/2"


def test_verify_rejects_table_of_another_mu(tmp_path, capsys):
    out = _construct(tmp_path, ["--mu=-1/2"])
    code = run(["verify", "--coeffs", str(out / "coeffs.json"), "--quadruple",
                str(out / "quadruple.json"), "--points", "4"])
    assert code == 2
    assert "mu=-1/2 (quadruple: -1)" in capsys.readouterr().err
    other = tmp_path / "su4"
    assert run(["construct", "--group", "su", "--n", "4", "--out", str(other)]) == 0
    code = run(["verify", "--coeffs", str(out / "coeffs.json"), "--quadruple",
                str(other / "quadruple.json"), "--points", "4"])
    assert code == 2
    assert "n=3 (quadruple: 4)" in capsys.readouterr().err


def test_verify_legacy_table_without_metadata(tmp_path, capsys):
    out = _construct(tmp_path)
    doc = json.loads((out / "coeffs.json").read_text())
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({"degrees": doc["degrees"], "coeffs": doc["coeffs"]}))
    argv = ["--quadruple", str(out / "quadruple.json"), "--points", "4", "--seed", "5"]
    current, old = tmp_path / "current.json", tmp_path / "old.json"
    assert run(["verify", "--coeffs", str(out / "coeffs.json"), "--out", str(current), *argv]) == 0
    assert run(["verify", "--coeffs", str(legacy), "--out", str(old), *argv]) == 0
    assert current.read_bytes() == old.read_bytes()


def test_verify_legacy_table_with_too_many_variables(tmp_path, capsys):
    # a legacy table names no group, so only its variable count can be
    # checked against the family: su(3) has two proper members
    out = _construct(tmp_path)
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({"degrees": [1, 1, 1], "coeffs": [{"k": [0, 0, 0], "num": "1", "den": "1"}]}))
    code = run(["verify", "--coeffs", str(legacy), "--quadruple", str(out / "quadruple.json"), "--points", "2"])
    assert code == 2
    assert "table has 3 variables but the family has 2 proper members" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [(["--n", "4", "--choice", "10"], "--choice"), (["--n", "3", "--k", "0"], "--k")],
    ids=["choice", "k"],
)
def test_morphism_orthogonal_rejects_rational_flags(capsys, argv, flag):
    # the orthogonal column-ratio family has no sp blocks and no tension power
    code = run(["morphism", "--group", "su", *argv, "--kind", "orthogonal", "--points", "2"])
    assert code == 2
    assert f"{flag} applies only to --kind rational" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["construct", "verify", "morphism"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    out = _construct(tmp_path)
    argv = {
        "construct": ["construct", "--group", "su", "--n", "3", "--out", str(tmp_path / "c")],
        "verify": ["verify", "--coeffs", str(out / "coeffs.json"), "--quadruple",
                   str(out / "quadruple.json"), "--points", "2"],
        "morphism": ["morphism", "--group", "su", "--n", "3", "--points", "2"],
    }[command]
    capsys.readouterr()
    assert run(argv + ["--seed", "-1"]) == 2
    assert "--seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["verify", "morphism"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, command, tol):
    # 0, -1 and nan would fail every check numerically, inf would pass them all
    out = _construct(tmp_path)
    argv = {
        "verify": ["verify", "--coeffs", str(out / "coeffs.json"), "--quadruple",
                   str(out / "quadruple.json"), "--points", "2"],
        "morphism": ["morphism", "--group", "su", "--n", "3", "--points", "2"],
    }[command]
    capsys.readouterr()
    assert run(argv + ["--tol", tol]) == 2
    assert "--tol must be a finite number above 0" in capsys.readouterr().err


# max_residual and pass flag of every check of `verify --points 4 --seed 1`,
# recorded from the per-point, nested-jet evaluation these reports were
# first computed with (tables from `construct --seed 1`)
RECORDED_VERIFY = {
    ("su", "4", "2,1", ()): [
        ("eigenfunctions", 5.978733960281817e-16, True),
        ("kappa(P,P)", 5.372878868666446e-16, True),
        ("kappa(S,S)", 4.361617379168838e-16, True),
        ("kappa(Q,Q)", 1.2412670766236366e-16, True),
        ("kappa(R,R)", 2.8449993880212295e-16, True),
        ("kappa(Q,R)", 1.2412670766236366e-16, True),
        ("kappa(Q,S)", 2.2887833992611187e-16, True),
        ("kappa(P,R)", 5.509099128080788e-16, True),
        ("kappa(P_i,S_j)=mu*P_j*S_i", 3.7342469857289437e-16, True),
        ("kappa(P,Q)=mu*R*S", 3.608224830031759e-16, True),
        ("kappa(R,S)=mu*P*Q", 2.3714374201337736e-16, True),
        ("closed-form tension", 2.3777041896360456e-15, True),
        ("bitension", 8.46215743800909e-13, True),
        ("tension nonvanishing", 2.665105609186977, True),
    ],
    ("so", "8", "2", ()): [
        ("eigenfunctions", 3.888397739473523e-16, True),
        ("kappa(P,P)", 8.491131902401724e-16, True),
        ("kappa(S,S)", 1.894711961311747e-15, True),
        ("kappa(Q,Q)", 5.869828507297948e-16, True),
        ("kappa(R,R)", 2.423651445728339e-16, True),
        ("kappa(Q,R)", 4.0980616289968964e-16, True),
        ("kappa(Q,S)", 4.736779903279368e-16, True),
        ("kappa(P,R)", 4.4169752474564197e-16, True),
        ("kappa(P_i,S_j)=mu*P_j*S_i", 1.1500994243130258e-15, True),
        ("kappa(P,Q)=mu*R*S", 4.775249788392736e-16, True),
        ("kappa(R,S)=mu*P*Q", 5.005631686059007e-16, True),
        ("closed-form tension", 6.021199221552133e-14, True),
        ("bitension", 2.757703964651369e-12, True),
        ("tension nonvanishing", 2.0768922649597563, True),
    ],
    ("sp", "4", "2", ("--choice", "10")): [
        ("eigenfunctions", 5.185305529748344e-16, True),
        ("kappa(P,P)", 3.3422138886441676e-16, True),
        ("kappa(S,S)", 1.7554167342883506e-16, True),
        ("kappa(Q,Q)", 3.469446951953614e-17, True),
        ("kappa(R,R)", 1.2412670766236366e-16, True),
        ("kappa(Q,R)", 5.0515910130503314e-17, True),
        ("kappa(Q,S)", 1.0007415106216802e-16, True),
        ("kappa(P,R)", 2.220446049250313e-16, True),
        ("kappa(P_i,S_j)=mu*P_j*S_i", 2.387624894196368e-16, True),
        ("kappa(P,Q)=mu*R*S", 1.944128986425528e-16, True),
        ("kappa(R,S)=mu*P*Q", 1.9540102647498285e-16, True),
        ("closed-form tension", 2.819753390353182e-15, True),
        ("bitension", 8.993981802974026e-13, True),
        ("tension nonvanishing", 1.128335048238095, True),
    ],
}


@pytest.mark.parametrize("table", list(RECORDED_VERIFY), ids=["su4-2,1", "so8-2", "sp4-choice10-2"])
def test_verify_answers_match_recorded(tmp_path, capsys, table):
    group, n, degrees, extra = table
    out = tmp_path / "table"
    assert run(["construct", "--group", group, "--n", n, "--degrees", degrees, "--seed", "1",
                "--out", str(out), *extra]) == 0
    capsys.readouterr()
    assert run(["verify", "--coeffs", str(out / "coeffs.json"), "--quadruple",
                str(out / "quadruple.json"), "--points", "4", "--seed", "1", "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == [name for name, _, _ in RECORDED_VERIFY[table]]
    for check, (name, residual, passed) in zip(checks, RECORDED_VERIFY[table]):
        assert check["pass"] is passed, name
        assert abs(check["max_residual"] - residual) <= 1e-3 * check["tolerance"], name


# SHA-256 of the `--json` report of each run at --points 4 and the default
# seed (tables from `construct` at the default seed).  Each report runs in
# its own process with OPENBLAS_NUM_THREADS=1, the thread count they were
# recorded at; the test after this one compares reports at one and two
# threads.  Every kappa check, and a morphism report's "horizontal
# conformality", reads the rounding of the einsum contraction behind kappa
# in operators.laplacian_jets.
REPORT_DIGESTS = {
    "verify-su4-2,1": (
        ["--group", "su", "--n", "4", "--degrees", "2,1"],
        "522a628220e79ee32ec0b976f802c17fe61a5f38c41a37aa17a3b49821a14e0e",
    ),
    "verify-sp2-choice10-2": (
        ["--group", "sp", "--n", "2", "--degrees", "2", "--choice", "10"],
        "066974068c7f21a9cb4636f87daf1b9a123f5deb02494b81dd00164801e4e50a",
    ),
    "morphism-su3-orthogonal": (
        ["--group", "su", "--n", "3"],
        "8db8a579a058ad13aa42c52f5d93c1eb9bca2b957b860be4ccf7464c4c2becd7",
    ),
    "morphism-su4-rational": (
        ["--group", "su", "--n", "4", "--kind", "rational"],
        "09b4efdccb02c7a9e86c0217b4806400432e14a15710d22cf5b7d9cfc001e22b",
    ),
    # powers up to the cube: f**3 and (tau f)**3 in each variable, and
    # cubes of the member tensions in the morphism's eigenfamily
    "verify-su4-3,3,3": (
        ["--group", "su", "--n", "4", "--degrees", "3,3,3"],
        "9d8cbd4fc29476fc151f871b622b6eaa5706dae7cd482745b3d5072e4e7d9d14",
    ),
    "morphism-su5-rational-k3": (
        ["--group", "su", "--n", "5", "--kind", "rational", "--k", "3"],
        "63fadb1cf7c50d68d66229693b184e910d4cdc61e68b2cc0720402f59ea67b58",
    ),
    # so runs draw the isotropic rows u + iv of the quadruple and of the
    # rational morphism's eigenfamily from seeded orthonormal frames
    "verify-so8-2": (
        ["--group", "so", "--n", "8", "--degrees", "2"],
        "181571de001e753235d058bfdea6aa66601320c4113a4ebee4a52218a48dfd87",
    ),
    "morphism-so8-rational-k2": (
        ["--group", "so", "--n", "8", "--kind", "rational", "--k", "2"],
        "0d91f73634d7226b46b7b4a9abf91a1fd2c314ea1cfeddc8f95d75ae4f6050f9",
    ),
}


@pytest.mark.parametrize("name", list(REPORT_DIGESTS))
def test_report_bytes_match_recorded_digests(tmp_path, capsys, name):
    args, digest = REPORT_DIGESTS[name]
    if name.startswith("verify"):
        assert run(["construct", *args, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        argv = ["verify", "--coeffs", str(tmp_path / "coeffs.json"),
                "--quadruple", str(tmp_path / "quadruple.json")]
    else:
        argv = ["morphism", *args]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "biforge.cli", *argv, "--points", "4", "--json"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest, proc.stdout


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path, capsys):
    # the benchmark's two morphism campaigns, su(8) with 64 basis
    # directions and so(8) with 28, a verify of su(4) 2,1, whose
    # bitension walks eleven outer directions and then five, and one of su(14)
    # degree 2, whose kappa sums 196 basis terms, at one and at two BLAS
    # threads
    assert run(["construct", "--group", "su", "--n", "4", "--degrees", "2,1", "--out", str(tmp_path)]) == 0
    assert run(["construct", "--group", "su", "--n", "14", "--degrees", "2", "--seed", "7",
                "--out", str(tmp_path / "su14")]) == 0
    capsys.readouterr()
    src = Path(__file__).resolve().parents[1] / "src"
    for argv in (
        ["morphism", "--group", "su", "--n", "8"],
        ["morphism", "--group", "so", "--n", "8", "--kind", "rational", "--k", "2"],
        ["verify", "--coeffs", "coeffs.json", "--quadruple", "quadruple.json"],
        ["verify", "--coeffs", "su14/coeffs.json", "--quadruple", "su14/quadruple.json"],
    ):
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(src)}
            proc = subprocess.run(
                [sys.executable, "-m", "biforge.cli", *argv, "--points", "5", "--json"],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            digests.add(hashlib.sha256(proc.stdout.encode()).hexdigest())
        assert len(digests) == 1, argv


@pytest.mark.parametrize(
    "args, m, i",
    [(["--group", "su", "--n", "4"], 3, 3), (["--group", "so", "--n", "8", "--kind", "rational", "--k", "2"], 2, 2)],
    ids=["su4-orthogonal", "so8-rational-k2"],
)
def test_morphism_command_walks_one_forest(monkeypatch, capsys, args, m, i):
    walks = []

    def recording(exprs, points, ctx):
        walks.append((list(exprs), points, ctx))
        return laplacian_jets(exprs, points, ctx)

    monkeypatch.setattr(biforge.verify, "laplacian_jets", recording)
    assert run(["morphism", *args, "--points", "4", "--json"]) == 0
    capsys.readouterr()
    assert len(walks) == 1
    forest, points, ctx = walks[0]
    # m family members, then the morphism at i = m: the orthogonal morphism
    # is the family's first member, listed twice and evaluated once; the
    # rational one is walked after its two members
    assert len(forest) == max(m, i + 1)
    values, tau, kappa = laplacian_jets(forest, points, ctx)
    family_values, family_tau, family_kappa = laplacian_jets(forest[:m], points, ctx)
    (value,), (tension,), _ = laplacian_jets([forest[i]], points, ctx)
    assert np.array_equal(values[:m], family_values) and np.array_equal(tau[:m], family_tau)
    assert np.array_equal(kappa[:m, :m], family_kappa)
    assert np.array_equal(values[i], value) and np.array_equal(tau[i], tension)


# SHA-256 of stdout plus stderr of the parser's help pages and of two of
# its type errors, on an 80-column terminal
CLI_SURFACE_DIGESTS = {
    "help": (["--help"], "47c6904aaa54aed7e34679303c44e3abda2f07ec80d220ce9067dea09d11d457"),
    "help-construct": (["construct", "--help"],
                       "403ccb113d08225f693e1a02077dcd762df4ff3d3bd1e28d8520db869c22cf3d"),
    "help-verify": (["verify", "--help"],
                    "3868e2d0c07751bb52650e44cc1be1af338cf3e9244f8eb0911e8971458caba8"),
    "help-reproduce": (["reproduce", "--help"],
                       "cf601840ef4a17d06c9d0499dac50b6384e46aecfefd4b6b4512e3a2a91568fe"),
    "help-morphism": (["morphism", "--help"],
                      "8fc06da4ed59d0a66c2abd8abf8b79df41048132b856c2b4a2d35f874fa60d38"),
    "verify-points-x": (["verify", "--coeffs", "c.json", "--quadruple", "q.json", "--points", "x"],
                        "4de7afa56a91cbf6ffecb5b1a24a42b7a662d5d4f26d82c41d0226d4f1bffcab"),
    "morphism-tol-x": (["morphism", "--group", "su", "--n", "3", "--tol", "x"],
                       "2fefb0933bfa3ab70c29e6d187bbcbca6542e2d21493fad42ed5ac9b177d46a9"),
}


@pytest.mark.parametrize("name", list(CLI_SURFACE_DIGESTS))
def test_cli_surface_matches_recorded_digests(tmp_path, name):
    argv, digest = CLI_SURFACE_DIGESTS[name]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "biforge.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == (0 if "--help" in argv else 2)
    text = proc.stdout + proc.stderr
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


# The parser and the operator contexts are built once per process; the
# REPORT_DIGESTS runs each start a fresh one, so these cover repeated calls
# in one process.  Each test starts from empty caches.


@pytest.fixture
def fresh_caches():
    build_parser.cache_clear()
    context.cache_clear()


def test_in_process_calls_do_not_depend_on_call_order(fresh_caches, tmp_path, capsys):
    argv = ["morphism", "--group", "su", "--n", "3", "--points", "4", "--json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    # a refused value and a type error leave the shared parser as it was
    assert run(["morphism", "--group", "su", "--n", "3", "--points", "0"]) == 2
    with pytest.raises(SystemExit) as exc:
        run(["morphism", "--group", "su", "--n", "3", "--tol", "x"])
    assert exc.value.code == 2
    assert run(["construct", "--group", "so", "--n", "8", "--degrees", "2", "--out", str(tmp_path)]) == 0
    assert run(["verify", "--coeffs", str(tmp_path / "coeffs.json"), "--quadruple",
                str(tmp_path / "quadruple.json"), "--points", "4", "--json"]) == 0
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_help_is_formatted_at_print_time(fresh_caches, monkeypatch, capsys):
    def help_text(columns):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        return captured.out + captured.err

    text = help_text("80")
    assert help_text("40") != text
    assert help_text("80") == text
    assert hashlib.sha256(text.encode()).hexdigest() == CLI_SURFACE_DIGESTS["help"][1]


def test_parser_and_contexts_are_built_once_per_process(fresh_caches, monkeypatch, tmp_path, capsys):
    builds = Counter()
    for_spec = OperatorContext.for_spec.__func__
    init = argparse.ArgumentParser.__init__

    def counted_for_spec(cls, spec):
        builds[spec] += 1
        return for_spec(cls, spec)

    def counted_init(self, *args, **kwargs):
        builds["parser"] += kwargs.get("prog") == "biforge"
        init(self, *args, **kwargs)

    monkeypatch.setattr(OperatorContext, "for_spec", classmethod(counted_for_spec))
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    assert run(["construct", "--group", "so", "--n", "6", "--out", str(tmp_path)]) == 0
    verify = ["verify", "--coeffs", str(tmp_path / "coeffs.json"), "--quadruple",
              str(tmp_path / "quadruple.json"), "--points", "2"]
    morphism = ["morphism", "--group", "su", "--n", "3", "--points", "2"]
    for argv in (verify, morphism, verify, morphism):
        assert run(argv) == 0
    # a refused configuration exits before any numerical set-up
    assert run(["morphism", "--group", "so", "--n", "4", "--kind", "orthogonal"]) == 2
    assert builds == {"parser": 1, GroupSpec.special_orthogonal(6): 1, GroupSpec.unitary(3): 1}
