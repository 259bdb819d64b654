"""The program names the benchmark in `perfbench/` wraps and reads.

`perfbench/tracing.py` wraps the public functions of every layer by
name, with no guard, and `perfbench/run.py` reads the parser, the
oracle, the rational type and the statistics of every Groebner basis.
A name that goes missing makes a benchmark run exit nonzero and leaves
nothing measured.  These tests install the benchmark's tracer on the
program and decide one generated job per workload through `cli.main`,
as a traced benchmark run does.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

import pytest

import algroup.cli
import algroup.decide
import algroup.fields
import algroup.groebner
import algroup.matrices
import algroup.oracle
import algroup.parsing
import algroup.poly

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# The modules dict of `perfbench/run.py`'s load_program.
MODULES = {"cli": algroup.cli, "decide": algroup.decide,
           "groebner": algroup.groebner, "matrices": algroup.matrices,
           "oracle": algroup.oracle, "parsing": algroup.parsing,
           "poly": algroup.poly, "fields": algroup.fields}


@pytest.fixture(scope="module")
def bench():
    """The benchmark's tracing and workloads modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


def test_the_tracer_installs_on_every_name(bench):
    tracing, _ = bench
    before = {name: getattr(algroup.decide, name) for name in tracing.DECIDE}
    render = algroup.poly.Polynomial.__dict__["__str__"]
    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        assert algroup.decide.is_group is not before["is_group"]
    finally:
        tracer.uninstall()
    assert {name: getattr(algroup.decide, name)
            for name in tracing.DECIDE} == before
    assert algroup.poly.Polynomial.__dict__["__str__"] is render
    assert algroup.fields.rational is not None


def _reference(job, spec) -> dict:
    """The verdicts `perfbench/run.py` checks a job against."""
    if job.expect is not None:
        return dict(job.expect)
    oracle = MODULES["oracle"]
    vs = oracle.enumerate_variety(spec)
    brute = oracle.is_group_bruteforce(vs)
    return {"identity": brute.identity, "inversion": brute.inversion,
            "multiplication": brute.multiplication,
            "variety_equals_vstar": len(vs.points) == len(vs.invertible)}


@pytest.mark.parametrize("workload", ["fp-fieldeq", "q-conjugates", "large-n"])
def test_a_traced_decision_of_each_workload(bench, workload, tmp_path):
    tracing, workloads = bench
    # The shortest input of the first batch: a quick decision.
    job = min(workloads.WORKLOADS[workload].batches(1)[0],
              key=lambda job: len(job.text))
    spec = MODULES["parsing"].parse_problem(job.text)
    path = tmp_path / "problem.alg"
    path.write_text(job.text, encoding="utf-8")
    tracer = tracing.Tracer(MODULES)
    tracer.decision = 0
    out = io.StringIO()
    tracer.install()
    try:
        with contextlib.redirect_stdout(out):
            code = algroup.cli.main(["decide", str(path), *job.args,
                                     "--jobs", "1", "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0
    report = json.loads(out.getvalue())  # the whole output is the report
    verdicts = workloads.observed(job, report)
    reference = _reference(job, spec)
    assert {k: v for k, v in verdicts.items() if v is not None} \
        == {k: reference[k] for k, v in verdicts.items() if v is not None}
    metrics = tracing.layer_metrics(tracer.spans, 1, {0})
    assert metrics["groebner.buchberger_calls"][0] >= 1
