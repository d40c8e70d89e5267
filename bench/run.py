"""Benchmark for the gafs package: end-to-end and per-layer timings.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fixed_sweep --seed 1 --seconds 50 --trace 0

Workloads are ``fixed_sweep`` and ``ga_flood`` (see ``workloads.py``). The
benchmark writes seeded NSL-KDD-format files (not timed), then:

* with ``--trace 0`` it repeats steps for ``--seconds`` seconds, each a
  set-up (files -> relabeled binary datasets) followed by the workload's
  user-level call, and reports the medians of ``run_s``, ``setup_s``,
  ``evals_per_s`` and ``peak_rss_mb`` over the steps. Set-ups and calls take
  turns, so both medians come from the same stretch of time;
* with ``--trace 1`` it alternates plain and traced calls for ``--seconds``
  seconds and reports the per-layer metrics of the traced calls plus
  ``trace.overhead_frac``. Spans go to ``.bench_out/`` when the run ends.

Every step runs in a fresh interpreter, as a user's command would, so each
pays the same cold start, has its own peak resident memory and inherits no
other step's heap. Every output is
checked: against the values recorded in ``expected.json`` for the workload
and seed when there are some, and always against invariants that hold on any
seed (row and label counts, fitness arithmetic, history shape) and against
the run's other calls. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the metrics with their units, ``error_rate``, and the provenance.

``--size tiny`` runs every workload in seconds (the benchmark's own tests use
it); ``--record`` stores the outputs of one call as the expected values.
Only the files under ``src/`` of the checkout are measured: without them the
benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import synth
import tracing
from workloads import (
    WORKLOADS,
    Workload,
    call_problems,
    compare_record,
    record_of,
    run_call,
    run_setup,
    setup_problems,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
STARTED = time.monotonic()
# every run must end within 180 s; a child that would overrun is stopped
DEADLINE = STARTED + 170.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "evals_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------------ child


def _import_package() -> None:
    sys.path.insert(0, str(SRC))
    import gafs

    if Path(gafs.__file__).resolve().parent != SRC / "gafs":
        raise BenchError(f"imported gafs from {gafs.__file__}, not from {SRC}")


def child_main(request: dict) -> dict:
    """One step in this fresh interpreter: a set-up then a call, or a call alone."""
    import resource

    _import_package()
    workload = WORKLOADS[request["size"]][request["workload"]]
    reply: dict = {"error": None}
    try:
        if request["setup"]:
            reply["setup_seconds"], reply["setup_output"] = run_setup(
                workload, request["train"], request["test"])
        if request["trace"]:
            tracer = tracing.Tracer(request["run_id"])
            with tracer.installed():
                reply["seconds"], reply["output"] = run_call(
                    workload, request["train"], request["test"], Path(request["out_dir"]), tracer)
            reply["spans"] = tracer.spans
        else:
            reply["seconds"], reply["output"] = run_call(
                workload, request["train"], request["test"], Path(request["out_dir"]))
    except Exception:  # reported to the parent, which counts the failure
        reply["error"] = traceback.format_exc()
    # ru_maxrss is in KiB on Linux
    reply["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return reply


def spawn(request: dict) -> dict:
    """Run ``child_main`` in a fresh interpreter and return its reply."""
    timeout = max(1.0, DEADLINE - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(request)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child stopped after {timeout:.0f} s: the run would overrun 180 s"}
    if proc.returncode != 0:
        return {"error": f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------- parent


class Run:
    """Calls of one benchmark run, their checks and their timings."""

    def __init__(self, args, workload: Workload, facts: dict, expected: dict | None) -> None:
        self.args = args
        self.workload = workload
        self.facts = facts
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.first_output: dict = {}
        self.run_id = f"{workload.name}-{args.size}-{args.seed}-{os.getpid()}"

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        print(f"FAILED {what}:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)

    def request(self, call: int, setup: bool, trace: bool = False) -> dict:
        return {
            "setup": setup, "workload": self.workload.name, "size": self.args.size,
            "train": self.facts["train"]["path"], "test": self.facts["test"]["path"],
            "trace": trace, "run_id": f"{self.run_id}-{call}",
            "out_dir": str(self.facts["work"] / f"out-{call}"),
        }

    def checked(self, call: int, setup: bool = False, trace: bool = False) -> dict | None:
        """Spawn one step and check its outputs; None when it failed to run.

        The set-up and the call count as one attempt each.
        """
        reply = spawn(self.request(call, setup, trace))
        if setup:
            self.attempted += 1
            if "setup_output" not in reply:  # the step failed before its call
                self._fail(f"setup {call}", [reply["error"]])
                return None
            self._check("setup", f"setup {call}", reply["setup_output"])
        self.attempted += 1
        what = f"call {call}" + (" (traced)" if trace else "")
        if reply.get("error"):
            self._fail(what, [reply["error"]])
            return None
        self._check("call", what, reply["output"])
        return reply

    def _check(self, phase: str, what: str, output) -> None:
        if phase == "setup":
            problems = setup_problems(self.workload, self.facts, output)
            got = {"digest": output["digest"]}
        else:
            problems = call_problems(self.workload, self.facts, output)
            got = record_of(self.workload, output)
        # every call of a run computes the same thing
        first = self.first_output.setdefault(phase, got)
        if got != first:
            problems += ["differs from the run's first output: " + p
                         for p in compare_record(first, got)]
        if self.expected is not None:
            problems += compare_record(self.expected[phase], got)
        if problems:
            self._fail(what, problems)

    def timed_steps(self, trace_pairs: bool) -> list[tuple[dict | None, dict | None]]:
        """The whole number of steps that best fills ``--seconds``; at least one.

        Another step starts while it would end less than half a step past
        ``--seconds``, so a 22 s step gets two tries in 50 s, not three.

        Without ``trace_pairs`` a step is a set-up and a plain call in one
        child. With it, a step is a plain and a traced call, in alternating
        order, so both see the same machine conditions.
        """
        steps = []
        started = time.perf_counter()
        while True:
            step_started = time.perf_counter()
            call = len(steps)
            if not trace_pairs:
                plain, traced = self.checked(call, setup=True), None
            elif call % 2:
                traced = self.checked(call, trace=True)
                plain = self.checked(call)
            else:
                plain = self.checked(call)
                traced = self.checked(call, trace=True)
            steps.append((plain, traced))
            step_s = time.perf_counter() - step_started
            if time.perf_counter() - started + step_s / 2 > self.args.seconds:
                return steps

    def record(self) -> dict:
        reply = spawn(self.request(0, setup=True))
        if reply.get("error"):
            raise BenchError(reply["error"])
        problems = (setup_problems(self.workload, self.facts, reply["setup_output"])
                    + call_problems(self.workload, self.facts, reply["output"]))
        if problems:
            raise BenchError("not recording outputs that fail their checks: " + "; ".join(problems))
        return {"setup": {"digest": reply["setup_output"]["digest"]},
                "call": record_of(self.workload, reply["output"])}


def _values(replies: list[dict | None], key: str) -> list[float]:
    values = [r[key] for r in replies if r is not None]
    if not values:
        raise BenchError(f"no step of the run completed, so {key} has no value")
    return values


def _samples(name: str, values: list[float]) -> str:
    """Sample count, quartiles and maximum of one timing."""
    if len(values) < 2:
        return f"{name}: n={len(values)} value {values[0]:.4g} s"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"{name}: n={len(values)} median {q2:.4g} s, quartiles {q1:.4g}..{q3:.4g} s, "
            f"max {max(values):.4g} s")


def end_to_end(run: Run) -> tuple[dict[str, float], list[str]]:
    replies = [plain for plain, _ in run.timed_steps(trace_pairs=False)]
    calls = _values(replies, "seconds")
    setups = _values(replies, "setup_seconds")
    run_s = statistics.median(calls)
    setup_s = statistics.median(setups)
    metrics = {
        "run_s": run_s,
        "setup_s": setup_s,
        "evals_per_s": run.workload.evals_requested() / (run_s - setup_s),
        "peak_rss_mb": statistics.median(_values(replies, "peak_rss_mb")),
    }
    return metrics, [_samples("run_s", calls), _samples("setup_s", setups)]


def per_layer(run: Run) -> tuple[dict[str, float], list[str]]:
    steps = run.timed_steps(trace_pairs=True)
    plain = [p for p, _ in steps]
    traced = [t for _, t in steps if t is not None]
    if not traced:
        raise BenchError("no traced call completed")
    requested = run.workload.evals_requested()
    metrics = tracing.median_metrics([tracing.layer_metrics(t["spans"], requested) for t in traced])
    plain_s = _values(plain, "seconds")
    traced_s = _values(traced, "seconds")
    metrics["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{run.run_id}.jsonl"
    with open(spans_path, "w") as handle:
        for reply in traced:
            for span in reply["spans"]:
                handle.write(json.dumps(span) + "\n")
    return metrics, [_samples("run_s plain", plain_s), _samples("run_s traced", traced_s),
                     f"spans written to {spans_path.relative_to(ROOT)}"]


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def provenance(size: str) -> dict:
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # the set-up check confirms the encoded matrices have exactly these bytes
        "workloads": {name: {"train_rows": w.train_rows, "test_rows": w.test_rows,
                             "encoded_feature_bytes": w.encoded_feature_bytes()}
                      for name, w in WORKLOADS[size].items()},
    }


def write_expected(path: Path, table: dict) -> None:
    """Records keyed ``size/workload/seed``, one per line so diffs stay readable."""
    def order(key: str):
        size, name, seed = key.split("/")
        return size, name, int(seed)

    lines = [f"{json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}"
             for key in sorted(table, key=order)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(WORKLOADS), default="full")
    parser.add_argument("--expected", type=Path, default=EXPECTED,
                        help="recorded outputs to compare against")
    parser.add_argument("--record", action="store_true",
                        help="store one call's outputs as the expected values for this seed")
    args = parser.parse_args(argv)

    if not (SRC / "gafs" / "__init__.py").is_file():
        raise BenchError(f"no package to measure: {SRC / 'gafs'} is missing")
    if args.workload not in WORKLOADS[args.size]:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS[args.size])}")
    workload = WORKLOADS[args.size][args.workload]
    work = WORK / f"{workload.name}-{args.size}-{args.seed}-{os.getpid()}"
    try:
        facts = synth.write_pair(work, args.seed, workload.train_rows, workload.test_rows)
        facts["work"] = work
        table = json.loads(args.expected.read_text()) if args.expected.exists() else {}
        key = f"{args.size}/{workload.name}/{args.seed}"
        recorded = table.get(key)
        run = Run(args, workload, facts, recorded)
        if args.record:
            table[key] = run.record()
            write_expected(args.expected, table)
            print(f"recorded {key} in {args.expected}")
            return 0
        if recorded is None:
            print(f"note: no recorded outputs for {key}; "
                  "checking invariants and repeatability only", file=sys.stderr)

        if args.trace:
            metrics, notes = per_layer(run)
            units = tracing.PER_LAYER_UNITS
        else:
            metrics, notes = end_to_end(run)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    error_rate = run.failed / run.attempted
    for name, unit in units.items():
        note = ""
        if not workload.is_ga and name in tracing.GA_SEARCH_METRICS:
            note = "  (n/a: no GA search; counts the sweep's compute_fitness calls)"
        print(f"{name:<28} {metrics[name]:>16.6g} {unit}{note}")
    print(f"{'error_rate':<28} {error_rate:>16.6g} ratio  ({run.failed} of {run.attempted} failed)")
    for note in notes:
        print(note)
    print("provenance " + json.dumps(provenance(args.size), sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        print(json.dumps(child_main(json.loads(sys.argv[2]))))
        sys.exit(0)
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
