import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from algroup import (QQ, DecisionReport, VarRing, decide, is_group,
                     is_group_alt, load_problem)
from algroup.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, out, _ = run_cli(capsys, "decide", str(problems_dir / "sl2.alg"),
                           "--alt")
    assert code == 0
    assert "division" in out
    assert "group (division form): true" in out


def test_fast_path_flag(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "decide",
                           str(problems_dir / "fourth-roots.alg"),
                           "--fast-path")
    assert code == 0
    assert "group: false" in out
    assert "fast path" in out


def test_undecided_exit_code(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "decide",
                           str(problems_dir / "fourth-roots.alg"),
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


def test_json_report_includes_mode_flags(problems_dir, capsys):
    code, out, _ = run_cli(capsys, "decide", str(problems_dir / "torus2.alg"),
                           "--format", "json", "--fast-path")
    assert code == 0
    data = json.loads(out)
    assert data["fast_path"] is True
    assert data["field_equations_q"] is None
    assert data["group"] is True


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
    # The hat ideal's basis serves multiplication and division alike.
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


def _raise_in_worker(*args, **kwargs):
    raise RuntimeError("boom")


def _exit_in_worker(*args, **kwargs):
    os._exit(1)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched module only when forked")
@pytest.mark.parametrize("crash, reason", [
    (_raise_in_worker, "RuntimeError: boom"),
    (_exit_in_worker, "BrokenProcessPool"),
])
def test_crashed_worker_is_undecided(problems_dir, capsys, monkeypatch,
                                     crash, reason):
    # The patched test runs only in the worker processes: three
    # generators make three parallel membership tests.
    monkeypatch.setattr(decide, "radical_membership", crash)
    code, out, _ = run_cli(capsys, "decide",
                           str(problems_dir / "diag-antidiag.alg"),
                           "--jobs", "2", "--format", "json")
    assert code == 2
    data = json.loads(out)
    assert data["group"] is None
    inversion = data["checks"]["inversion"]
    assert inversion["verdict"] is None
    assert reason in inversion["undecided_reason"]
    assert inversion["witness_index"] in (1, 2, 3)
