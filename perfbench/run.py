"""Seeded benchmark for `algroup decide`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fp-fieldeq --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One process, one client in a closed loop: each decision calls
`algroup.cli.main(["decide", <file>, ..., "--jobs", "1", "--format",
"json"])` in-process and the next starts when it returns.  The inputs are
generated from the seed (see workloads.py) and written as `.alg` files;
the program receives nothing else.  Decisions run in whole batches until
`--seconds` have elapsed, so every run measures the same mix.  Every
verdict is then checked against a reference that does not come from the
Groebner engine; on a mismatch the run names the problem and exits 3
without printing metrics.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run (tracing.py), which runs every batch once with
and once without spans.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it gives the run's context: machine, tail percentile, input
shares and failed fraction.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# A traced decision's spans must cover its wall time within this share
# plus this many seconds (the clock reads around the root span).
TRACE_REL_TOL = 0.02
TRACE_ABS_TOL = 0.001
WORK = HERE / "_work"


class GateFailure(Exception):
    pass


def load_program():
    """Import algroup from this checkout's src/, and only from there."""
    init = SRC / "algroup" / "__init__.py"
    if not init.is_file():
        raise GateFailure(f"no program to benchmark: {init} is missing")
    sys.path.insert(0, str(SRC))
    import algroup
    import algroup.cli
    import algroup.decide
    import algroup.fields
    import algroup.groebner
    import algroup.matrices
    import algroup.oracle
    import algroup.parsing
    import algroup.poly
    if Path(algroup.__file__).resolve() != init.resolve():
        raise GateFailure(f"imported algroup from {algroup.__file__}, "
                          f"not from {init}")
    return {"cli": algroup.cli, "decide": algroup.decide,
            "groebner": algroup.groebner, "matrices": algroup.matrices,
            "oracle": algroup.oracle, "parsing": algroup.parsing,
            "poly": algroup.poly,
            "fields": algroup.fields}


def machine_context(modules) -> dict:
    rational = modules["fields"].rational
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "rational": f"{rational.__module__}.{rational.__name__}"}


class SetupProbes:
    """The program's set-up as a CLI user pays it, in fresh interpreters:
    importing algroup and parsing every input of the run.  The samples
    are spread evenly over the timed loop, outside its decisions, so
    they see the same drift of machine speed as the decisions do."""

    def __init__(self, texts: list[str], workdir: Path, seconds: float):
        self.inputs = workdir / "inputs.json"
        self.inputs.write_text(json.dumps(texts), encoding="utf-8")
        self.due = [seconds * i / SETUP_REPEATS for i in range(SETUP_REPEATS)]
        self.samples: list = []
        self.used = 0.0  # seconds spent probing inside the loop

    def run_due(self, elapsed: float) -> None:
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "probe_setup.py"), str(SRC),
                 str(self.inputs)],
                capture_output=True, text=True, timeout=120, check=True)
            self.samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            self.used += time.perf_counter() - start


class Runner:
    """Runs decisions and keeps what the gate and the metrics need."""

    def __init__(self, modules, batches, path: Path, probes=None):
        self.cli = modules["cli"]
        self.batches = batches
        self.path = path
        self.probes = probes
        self.start = time.perf_counter()
        self.decisions: list = []  # (batch, index in batch, seconds, traced)
        self.outcomes: dict = {}   # (batch, index) -> verdicts of each run
        self.failures: list = []

    def elapsed(self) -> float:
        """Seconds since the loop started, without set-up probes."""
        used = self.probes.used if self.probes is not None else 0.0
        return time.perf_counter() - self.start - used

    def run_batch(self, b: int, tracer=None) -> float:
        rows = self.batches[b % len(self.batches)]
        total = 0.0
        for k, (job, _) in enumerate(rows):
            if self.probes is not None:
                self.probes.run_due(self.elapsed())
            # The input file is written outside the timed region: a CLI
            # user already has it.
            self.path.write_text(job.text, encoding="utf-8")
            argv = ["decide", str(self.path), *job.args, "--jobs", "1",
                    "--format", "json"]
            out = io.StringIO()
            if tracer is not None:
                tracer.decision = len(self.decisions)
            error = None
            with contextlib.redirect_stdout(out):
                start = time.perf_counter()
                try:
                    rc = self.cli.main(argv)
                except Exception as exc:  # a raising decision counts as failed
                    rc, error = None, f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - start
            total += seconds
            self.decisions.append((b, k, seconds, tracer is not None))
            key = (b % len(self.batches), k)
            if rc == 0:
                verdicts = workloads.observed(job, json.loads(out.getvalue()))
                self.outcomes.setdefault(key, []).append(verdicts)
            else:
                self.failures.append(
                    (job.label, error or f"exit code {rc}"))
        return total


def references(modules, runner: Runner) -> tuple[dict, float]:
    """Reference verdicts of every decided job, and the seconds spent."""
    oracle = modules["oracle"]
    refs = {}
    start = time.perf_counter()
    for key in runner.outcomes:
        job, spec = runner.batches[key[0]][key[1]]
        if job.expect is not None:
            refs[key] = dict(job.expect)
            continue
        vs = oracle.enumerate_variety(spec)
        brute = oracle.is_group_bruteforce(vs)
        refs[key] = {"identity": brute.identity, "inversion": brute.inversion,
                     "multiplication": brute.multiplication,
                     "variety_equals_vstar": len(vs.points) == len(vs.invertible)}
    return refs, time.perf_counter() - start


def verdict_gate(runner: Runner, refs: dict) -> None:
    for key, seen in runner.outcomes.items():
        job = runner.batches[key[0]][key[1]][0]
        for verdicts in seen:
            wrong = {k: v for k, v in verdicts.items()
                     if v is not None and v != refs[key][k]}
            if wrong:
                raise GateFailure(
                    f"wrong verdict on {job.label} ({' '.join(job.args)}): "
                    f"engine {verdicts}, reference {refs[key]}\n{job.text}")


def input_shares(runner: Runner, refs: dict) -> dict:
    """Share of the run's decisions with each input property."""
    counts: dict = {}
    for b, k, _, _ in runner.decisions:
        key = (b % len(runner.batches), k)
        job = runner.batches[key[0]][key[1]][0]
        tags = set(job.tags)
        if job.expect is None and refs.get(key, {}).get("multiplication") is False:
            tags.add("multiplication-false")
        for tag in tags:
            counts[tag] = counts.get(tag, 0) + 1
    total = len(runner.decisions)
    return {tag: round(c / total, 4) for tag, c in sorted(counts.items())}


def run_loop(runner: Runner, seconds: float, min_batches: int,
             tracer=None) -> tuple[float, float]:
    """Whole batches until `seconds` have elapsed.  With a tracer, every
    batch runs untraced and traced, in alternating order.  Returns the
    seconds spent in untraced and in traced decisions."""
    runner.start = time.perf_counter()
    plain = traced = 0.0
    b = 0
    while b < min_batches or runner.elapsed() < seconds:
        if tracer is None:
            plain += runner.run_batch(b)
        else:
            for with_spans in ((False, True) if b % 2 == 0 else (True, False)):
                if with_spans:
                    tracer.install()
                    try:
                        traced += runner.run_batch(b, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    plain += runner.run_batch(b)
        b += 1
    if runner.probes is not None:
        runner.probes.run_due(math.inf)
    return plain, traced


def end_to_end(runner: Runner, busy: float, rss_kb: int,
               setup: list[dict], tail_percentile: float) -> tuple:
    times = sorted(d[2] for d in runner.decisions)
    n = len(times)
    rank = max(1, math.ceil(tail_percentile / 100 * n))  # nearest rank
    metrics = {
        # Per second of the loop's time in decisions: the benchmark's own
        # work between decisions (writing the input file, reading the
        # report, set-up probes) does not count.
        "decisions_per_s": (n / busy, "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1000, "ms"),
        "latency_tail_ms": (times[rank - 1] * 1000, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (statistics.median(p["import_s"] + p["parse_s"]
                                      for p in setup), "s"),
    }
    tail = {"percentile": tail_percentile, "samples_beyond": n - rank,
            "samples": n}
    return metrics, tail


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    modules = load_program()
    start = time.perf_counter()
    jobs = wl.batches(seed)
    generate_s = time.perf_counter() - start
    parse = modules["parsing"].parse_problem
    batches = [[(job, parse(job.text)) for job in batch] for batch in jobs]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        probes = None if trace else SetupProbes(
            [job.text for batch in jobs for job in batch], workdir, seconds)
        runner = Runner(modules, batches, workdir / "problem.alg", probes)
        tracer = tracing.Tracer(modules) if trace else None
        # A CLI process holds one problem, not the whole run's inputs:
        # keep the collector from scanning them during decisions.
        gc.collect()
        gc.freeze()
        plain, traced = run_loop(
            runner, seconds, wl.exact_batches if trace else 1, tracer)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup = probes.samples if probes is not None else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    refs, verify_s = references(modules, runner)
    verdict_gate(runner, refs)
    info = {"workload": name, "seed": seed,
            "context": machine_context(modules), "params": wl.params,
            "generate_s": round(generate_s, 4),
            "batches": 1 + max(d[0] for d in runner.decisions),
            "decisions": len(runner.decisions),
            "failed_frac": len(runner.failures) / len(runner.decisions),
            "failures": runner.failures[:5],
            "input_shares": input_shares(runner, refs)}
    if trace:
        walls = {i: d[2] for i, d in enumerate(runner.decisions) if d[3]}
        spans = tracer.spans
        problems = tracing.check_decisions(spans, walls, TRACE_REL_TOL,
                                           TRACE_ABS_TOL)
        if problems:
            raise GateFailure("trace does not cover the decisions: "
                              + "; ".join(problems[:5]))
        exact = {i for i, d in enumerate(runner.decisions)
                 if d[3] and d[0] < wl.exact_batches}
        metrics = tracing.layer_metrics(spans, len(walls), exact)
        metrics["oracle.verify_s"] = (verify_s / len(runner.decisions), "s")
        metrics["trace.overhead_frac"] = (traced / plain - 1, "ratio")
        info["trace_spans"] = len(spans)
    else:
        metrics, info["tail"] = end_to_end(runner, plain, rss, setup,
                                           wl.tail_percentile)
        info["setup_samples"] = [{k: round(v, 4) for k, v in p.items()}
                                 for p in setup]
    return {"info": info, "attempted": len(runner.decisions),
            "failed": len(runner.failures), "metrics": metrics}


def result_line(attempted: int, failed: int, metrics: dict) -> str:
    """The result, printed only after the verdict gate has passed."""
    return json.dumps({"correct": True, "attempted": attempted,
                       "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name."""
    attempted = failed = 0
    metrics = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, body in result["metrics"].items():
            print(f"{name:13s} {metric:28s} {body['value']:.6g} {body['unit']}")
            metrics[f"{name}/{metric}"] = (body["value"], body["unit"])
    print(result_line(attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except GateFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    print(json.dumps(result["info"]))
    print(result_line(result["attempted"], result["failed"],
                      result["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
