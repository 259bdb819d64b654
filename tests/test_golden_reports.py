"""JSON reports of the fixture problems against stored copies.

Every `problems/*.alg` runs through `algroup decide --format json` under
each argument set of `VARIANTS`, and the F_p fixtures also under their
field equations.  The reports, with the `seconds` of every check
stripped, must equal the stored ones in `golden/reports.json` as text,
key order included, and so must the exit codes.

After a deliberate change to the reports, regenerate the file with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest
from conftest import schema_table

from algroup import DecisionReport, cli, decide

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"
GOLDEN = pathlib.Path(__file__).with_name("golden") / "reports.json"

VARIANTS = (("--check", "group"), ("--check", "group-alt"),
            ("--check", "vstar-eq"), ("--pair-cap", "3"),
            ("--degree-cap", "3"))
FIELD_EQUATIONS = {"cubic-roots-f5.alg": "5", "diag-antidiag-f3.alg": "3"}


def cases() -> list[tuple[str, tuple[str, ...]]]:
    out = []
    for path in sorted(PROBLEMS.glob("*.alg")):
        out.extend((path.name, extra) for extra in VARIANTS)
        if path.name in FIELD_EQUATIONS:
            out.append((path.name,
                        ("--field-equations", FIELD_EQUATIONS[path.name])))
    return out


def case_id(name: str, extra: tuple[str, ...]) -> str:
    return " ".join((name,) + extra)


def run_case(name: str, extra: tuple[str, ...]) -> dict:
    """Exit code and report of one decision, `seconds` stripped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["decide", str(PROBLEMS / name), *extra,
                         "--format", "json"])
    report = json.loads(out.getvalue())
    for check in report["checks"].values():
        del check["seconds"]
    return {"exit": code, "report": report}


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_case_has_a_stored_report():
    assert sorted(_golden()) == sorted(case_id(*c) for c in cases())


@pytest.mark.parametrize("name, extra", cases(),
                         ids=[case_id(*c) for c in cases()])
def test_report_matches_the_stored_one(name, extra):
    want = _golden()[case_id(name, extra)]
    got = run_case(name, extra)
    assert json.dumps(got, indent=2) == json.dumps(want, indent=2)


def test_to_dict_follows_the_schema_and_round_trips(monkeypatch):
    # to_dict builds the report's dict field by field: every key of the
    # schema, in its order, at the top level and in each check; plain
    # JSON data; and from_dict gives the report back.
    reports = []
    real = decide.run_checks

    def keeping(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(decide, "run_checks", keeping)
    for name, extra in cases():
        run_case(name, extra)
    assert len(reports) == len(cases())
    top, check = (schema_table("Top-level fields:"),
                  schema_table("Each check object:"))
    for report in reports:
        data = report.to_dict()
        assert list(data) == top
        assert data["checks"] and all(list(res) == check
                                      for res in data["checks"].values())
        assert json.loads(json.dumps(data)) == data
        assert DecisionReport.from_dict(data) == report


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    stored = {case_id(*c): run_case(*c) for c in cases()}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(stored, handle, indent=2)
        handle.write("\n")
