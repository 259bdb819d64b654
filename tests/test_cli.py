import argparse
import json
import os
import pathlib
import resource
import subprocess
import sys

from conftest import schema_table

import algroup
from algroup import (QQ, CheckResult, DecisionReport, VarRing, decide,
                     is_group, is_group_alt, load_problem)
from algroup import cli
from algroup.cli import main

SRC = pathlib.Path(algroup.__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv, address_space=None):
    """Run a fresh interpreter that imports algroup from this source tree;
    `address_space`, in bytes, limits that interpreter's memory."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          preexec_fn=None if address_space is None else limit)


def test_decide_sl2_text(problems_dir, capsys):
    code, out, err = run_cli(capsys, "decide", str(problems_dir / "sl2.alg"))
    assert code == 0
    assert "group: true" in out
    assert "algebraic closure of Q" in out


def test_decide_no_identity_json(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "decide",
                           str(problems_dir / "linear-forms-3x3-noid.alg"),
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["identity"]["verdict"] is False
    assert data["group"] is False
    report = DecisionReport.from_dict(data)
    assert report.to_dict() == data  # field-for-field round trip


def test_field_equations_with_oracle(problems_dir, capsys):
    code, out, err = run_cli(capsys, "decide",
                             str(problems_dir / "cubic-roots-f5.alg"),
                             "--field-equations", "5", "--oracle")
    assert code == 0
    assert "group: true" in out
    assert "oracle agrees" in out

    code, out, _ = run_cli(capsys, "decide",
                           str(problems_dir / "cubic-roots-f5.alg"),
                           "--field-equations", "25")
    assert code == 0
    assert "group: false" in out

    # The oracle only sees F_p points, so a proper extension restriction
    # cannot be cross-checked.
    code, _, err = run_cli(capsys, "decide",
                           str(problems_dir / "cubic-roots-f5.alg"),
                           "--field-equations", "25", "--oracle")
    assert code == 1 and "extension" in err


def test_single_checks(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "decide",
                           str(problems_dir / "linear-forms-3x3-noninv.alg"),
                           "--check", "inversion")
    assert code == 0
    assert "inversion: false" in out
    assert "witness: generator" in out
    assert "group:" not in out

    code, out, _ = run_cli(capsys, "decide", str(problems_dir / "sl2.alg"),
                           "--check", "vstar-eq", "--check", "identity")
    assert code == 0
    assert "variety_equals_vstar: true" in out
    assert "identity: true" in out


def test_alt_mode(problems_dir, capsys):
    # The division form is asked for by --check group-alt; the old --alt
    # spelling is a usage error (see test_usage_errors).
    code, out, _ = run_cli(capsys, "decide", str(problems_dir / "sl2.alg"),
                           "--check", "group-alt")
    assert code == 0
    assert "division" in out
    assert "group (division form): true" in out


def test_undecided_exit_code(problems_dir, capsys):
    # The hat route: I is positive-dimensional.  (fourth-roots.alg is
    # decided modulo I within one pair.)
    code, out, _ = run_cli(capsys, "decide",
                           str(problems_dir / "diag-antidiag.alg"),
                           "--pair-cap", "1")
    assert code == 2
    assert "undecided" in out


def test_usage_errors(problems_dir, capsys, tmp_path):
    code, _, err = run_cli(capsys, "decide", str(problems_dir / "missing.alg"))
    assert code == 1

    bad = tmp_path / "bad.alg"
    bad.write_text("n 2\nfield F 6\nx1\n")
    code, _, err = run_cli(capsys, "decide", str(bad))
    assert code == 1 and "not prime" in err

    code, _, err = run_cli(capsys, "decide", str(problems_dir / "sl2.alg"),
                           "--oracle")
    assert code == 1 and "prime" in err

    code, _, err = run_cli(capsys, "decide",
                           str(problems_dir / "cubic-roots-f5.alg"),
                           "--field-equations", "6")
    assert code == 1

    code, _, err = run_cli(capsys, "decide", str(problems_dir / "sl2.alg"),
                           "--jobs", "0")
    assert code == 1

    for flag, value in (("--pair-cap", "-5"), ("--degree-cap", "-1"),
                        ("--degree-cap", "20000")):
        code, out, err = run_cli(capsys, "decide",
                                 str(problems_dir / "sl2.alg"), flag, value)
        assert code == 1 and flag in err and out == "", (flag, value)

    # argparse's own errors: exit 1 as well, not its 2, which here means
    # undecided.
    for args, message in ((("--check", "nope"), "invalid choice"),
                          (("--pair-cap", "abc"), "invalid int value"),
                          (("--no-such-flag",), "unrecognized arguments"),
                          (("--fast-path",), "unrecognized arguments"),
                          (("--alt",), "unrecognized arguments")):
        code, out, err = run_cli(capsys, "decide",
                                 str(problems_dir / "sl2.alg"), *args)
        assert code == 1 and message in err and out == "", args


def test_help_exits_zero(capsys):
    code, out, err = run_cli(capsys, "decide", "--help")
    assert code == 0 and out.startswith("usage: algroup decide") and err == ""


def test_oversized_exponent_is_an_input_error(tmp_path):
    prob = tmp_path / "big.alg"
    prob.write_text("n 1\nfield Q\nx1^99999999999 - 1\n")
    run = run_python("-m", "algroup.cli", "decide", str(prob))
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith(f"algroup: error: {prob}: line 3, column 4:")


def test_oversized_coefficient_is_an_input_error(tmp_path):
    prob = tmp_path / "long.alg"
    prob.write_text("n 1\nfield Q\n" + "9" * 5000 + "*x1 - 1\n")
    run = run_python("-m", "algroup.cli", "decide", str(prob))
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith(f"algroup: error: {prob}: line 3, column 1:")


def test_x2_division_at_n8_ends_with_a_report_in_1_gb(tmp_path):
    # division is decided through the product image: the image of x2 is
    # entry (1, 2) of X*Y, six terms modulo the doubled hat basis, with
    # no cofactor of Y.
    prob = tmp_path / "x2n8.alg"
    prob.write_text("n 8\nfield Q\nx2\n")
    run = run_python("-m", "algroup.cli", "decide", str(prob), "--check",
                     "group-alt", "--format", "json",
                     address_space=1 << 30)
    assert run.returncode == 0, run.stderr[-2000:]
    report = json.loads(run.stdout)
    assert report["group_alt"] is False
    assert report["checks"]["division"]["verdict"] is False
    assert report["checks"]["division"]["witness_index"] == 1


def test_x2_group_at_n8_ends_with_a_report_in_1_gb(tmp_path):
    # The inversion image of x2 is the numerator of entry (1, 2) of the
    # formal inverse, one cofactor of X, reduced modulo the hat basis;
    # padded by det, as det*h against I, it has millions of terms.
    prob = tmp_path / "x2n8.alg"
    prob.write_text("n 8\nfield Q\nx2\n")
    run = run_python("-m", "algroup.cli", "decide", str(prob), "--check",
                     "group", "--format", "json", address_space=1 << 30)
    assert run.returncode == 0, run.stderr[-2000:]
    report = json.loads(run.stdout)
    assert report["group"] is False
    assert report["checks"]["inversion"]["verdict"] is False
    assert report["checks"]["inversion"]["witness_index"] == 1


def test_the_parser_is_built_once_per_process(problems_dir, capsys,
                                              monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(2):
        code, out, _ = run_cli(capsys, "decide",
                               str(problems_dir / "sl2.alg"))
        assert code == 0 and "group: true" in out
    assert built.count("algroup") == 1, built


def test_oracle_mismatch_aborts(tmp_path, capsys):
    # Over the closure of F_2 the variety of x1^2+x1+1 is the two cube
    # roots of unity, whose product escapes; the F_2 point set is empty,
    # so enumeration sees multiplication as vacuously closed.
    prob = tmp_path / "gap.alg"
    prob.write_text("n 1\nfield F 2\nx1^2 + x1 + 1\n")
    code, out, err = run_cli(capsys, "decide", str(prob),
                             "--check", "multiplication", "--oracle")
    assert code == 3
    assert "oracle mismatch" in err
    assert "multiplication" in err


def test_oracle_over_its_enumeration_limit_decides_nothing(tmp_path, capsys,
                                                          monkeypatch):
    # O(4) over F_11 has 11^16 candidate matrices: the oracle refuses it
    # before any check runs.
    def fail(*args, **kwargs):
        raise AssertionError("run_checks called")

    monkeypatch.setattr(decide, "run_checks", fail)
    e = [[f"x{4 * i + j + 1}" for j in range(4)] for i in range(4)]
    eqs = [" + ".join(f"{e[k][i]}*{e[k][j]}" for k in range(4))
           + (" - 1" if i == j else "") for i in range(4) for j in range(i, 4)]
    prob = tmp_path / "o4f11.alg"
    prob.write_text("n 4\nfield F 11\n" + "\n".join(eqs) + "\n")
    code, out, err = run_cli(capsys, "decide", str(prob), "--check", "group",
                             "--oracle")
    assert code == 1 and not out
    assert err == ("algroup: error: enumeration needs 45949729863572161 "
                   "evaluations, over the limit 1000000\n")


def test_oracle_over_f37_at_n2_decides_nothing(tmp_path, capsys,
                                               monkeypatch):
    # 37^4 = 1,874,161 candidate matrices, about 19 s of enumeration: over
    # the limit, so the oracle refuses before any check runs.
    def fail(*args, **kwargs):
        raise AssertionError("run_checks called")

    monkeypatch.setattr(decide, "run_checks", fail)
    prob = tmp_path / "x2f37.alg"
    prob.write_text("n 2\nfield F 37\nx2\n")
    code, out, err = run_cli(capsys, "decide", str(prob), "--oracle")
    assert code == 1 and not out
    assert err == ("algroup: error: enumeration needs 1874161 "
                   "evaluations, over the limit 1000000\n")


def test_json_report_includes_mode_flags(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "decide", str(problems_dir / "torus2.alg"),
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "standard"
    assert data["field_equations_q"] is None
    assert data["group"] is True


def test_report_schema_lists_every_report_field():
    for heading, obj in (("Top-level fields:",
                          DecisionReport(2, "Q", "the algebraic closure of Q",
                                         1)),
                         ("Each check object:", CheckResult(True))):
        assert schema_table(heading) == list(obj.to_dict()), heading


def test_jobs_flag(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "decide",
                           str(problems_dir / "diag-antidiag.alg"),
                           "--jobs", "2")
    assert code == 0
    assert "group: true" in out


def test_group_checks_share_the_run_cache(problems_dir, capsys, monkeypatch):
    rings = []
    real = decide.buchberger

    def counting(gens, *args, **kwargs):
        rings.append(kwargs["ring"])
        return real(gens, *args, **kwargs)

    monkeypatch.setattr(decide, "buchberger", counting)
    plain = VarRing.matrix_ring(2, QQ)
    hat = VarRing.matrix_ring(2, QQ, x0=True)
    code, out, _ = run_cli(capsys, "decide", str(problems_dir / "sl2.alg"),
                           "--check", "group", "--check", "group-alt",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["group"] is True and data["group_alt"] is True
    assert set(data["checks"]) == {"identity", "inversion", "multiplication",
                                   "division"}
    # division reuses multiplication's result, and the hat ideal's basis
    # serves both checks.
    assert rings == [plain, hat]

    rings.clear()
    code, out, _ = run_cli(capsys, "decide", str(problems_dir / "sl2.alg"),
                           "--check", "inversion", "--check", "group")
    assert code == 0 and "group: true" in out
    assert rings == [plain, hat]


def _without_seconds(data):
    if isinstance(data, dict):
        return {k: _without_seconds(v) for k, v in data.items()
                if k != "seconds"}
    return data


def test_cli_group_reports_match_the_library(problems_dir, capsys):
    fields = ("checks", "group", "group_alt", "mode", "notes")
    for path in sorted(problems_dir.glob("*.alg")):
        spec = load_problem(path)
        for check, library in (("group", is_group),
                               ("group-alt", is_group_alt)):
            code, out, _ = run_cli(capsys, "decide", str(path), "--check",
                                   check, "--format", "json")
            assert code == 0, (path.name, check)
            cli_report = _without_seconds(json.loads(out))
            lib_report = _without_seconds(library(spec).to_dict())
            # Key order counts: it is the order the checks ran in.
            assert list(cli_report["checks"]) == list(lib_report["checks"])
            for name in fields:
                assert cli_report[name] == lib_report[name], \
                    (path.name, check, name)


def test_cli_import_loads_no_process_pool():
    run = run_python("-c", "import sys, algroup.cli; print(sorted("
                     "{'concurrent.futures', 'multiprocessing'} & "
                     "set(sys.modules)))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_cli_import_loads_only_what_a_decision_uses():
    # The oracle and `fractions` load on first use; `dataclasses` not at
    # all.  Both modules still serve the deferred names, and only those.
    run = run_python("-c", """if True:
        import sys, algroup.cli
        print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal',
                      'algroup.oracle'} & set(sys.modules)))
        import algroup, algroup.fields, algroup.oracle, fractions
        assert algroup.fields.rational is fractions.Fraction
        assert algroup.enumerate_variety is algroup.oracle.enumerate_variety
        from algroup import enumerate_variety
        for module in (algroup, algroup.fields):
            try:
                module.no_such_name
            except AttributeError as exc:
                assert 'no_such_name' in str(exc), exc
            else:
                raise AssertionError(module)
        """)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_cli_import_loads_only_the_standard_library():
    # The core has no runtime dependencies: importing the CLI loads only
    # modules of the standard library and of algroup itself.
    run = run_python("-c", "import sys; before = set(sys.modules); "
                     "import algroup.cli; print(sorted("
                     "m for m in set(sys.modules) - before if m.split('.')[0] "
                     "not in sys.stdlib_module_names | {'algroup'}))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
