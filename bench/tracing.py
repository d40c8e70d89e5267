"""Span tracing around the package's layer boundaries, and per-layer metrics.

The tracer replaces public functions at the module attribute where their
caller looks them up (``gafs.ga.fit`` is what ``compute_fitness`` calls,
``gafs.experiment.parse_file`` is what ``run_experiment`` calls), so the
package itself is unchanged. Each call records one span: name, start, end,
parent span, run id, plus counts read from its arguments and result. Spans
stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

import numpy as np


def _boundaries():
    """(module, attribute, span name, counts from (args, result)) to wrap."""
    import gafs.experiment
    import gafs.ga

    return (
        (gafs.experiment, "parse_file", "nslkdd.parse", lambda a, r: {"rows": len(r)}),
        (gafs.experiment, "build_codebook", "nslkdd.codebook", None),
        (gafs.experiment, "encode", "nslkdd.encode", lambda a, r: {"rows": len(r)}),
        (gafs.experiment, "relabel", "nslkdd.relabel", lambda a, r: {"rows": len(r)}),
        (gafs.experiment, "compute_fitness", "ga.compute_fitness",
         lambda a, r: {"mask": a[0].bits()}),
        (gafs.experiment, "run", "ga.run", None),
        (gafs.ga, "compute_fitness", "ga.compute_fitness", lambda a, r: {"mask": a[0].bits()}),
        (gafs.ga, "init_population", "ga.init_population",
         lambda a, r: {"masks": [ind.mask.bits() for ind in r.individuals]}),
        (gafs.ga, "evolve", "ga.evolve", lambda a, r: {"population": a[1].population_size}),
        (gafs.ga, "mutate", "ga.mutate", lambda a, r: {"mask": r.bits()}),
        (gafs.ga, "project", "nslkdd.project",
         lambda a, r: {"rows": len(r), "bytes": int(r.features.nbytes)}),
        (gafs.ga, "fit", "tree.fit", lambda a, r: {
            "rows": len(a[0]), "nodes": r.node_count, "depth": r.depth}),
        (gafs.ga, "predict_batch", "tree.predict", lambda a, r: {"rows": len(r)}),
        (gafs.ga, "confusion", "metrics.confusion", None),
        (gafs.ga, "metrics", "metrics.report", None),
    )


class Tracer:
    """Records spans of one run; ``installed()`` wraps the layer boundaries."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, original, name, counts):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if counts is not None:
                record["counts"] = counts(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        boundaries = _boundaries()
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in boundaries]
        try:
            for (module, attr, name, counts), (_, _, original) in zip(boundaries, originals):
                setattr(module, attr, self._wrap(original, name, counts))
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)


# per-layer metric name -> unit; the order is the order of the report
PER_LAYER_UNITS = {
    "nslkdd.parse_s": "s",
    "nslkdd.parse_us_per_row": "us/row",
    "nslkdd.codebook_s": "s",
    "nslkdd.encode_s": "s",
    "nslkdd.relabel_s": "s",
    "nslkdd.project_s": "s",
    "nslkdd.project_calls": "count",
    "nslkdd.project_mb": "MB",
    "tree.fit_s": "s",
    "tree.fit_calls": "count",
    "tree.fit_ms_p50": "ms",
    "tree.fit_ms_p90": "ms",
    "tree.nodes_total": "count",
    "tree.nodes_max": "count",
    "tree.depth_max": "count",
    "tree.fit_us_per_node": "us/node",
    "tree.predict_s": "s",
    "tree.predict_ns_per_row": "ns/row",
    "metrics.confusion_s": "s",
    "metrics.report_s": "s",
    "ga.evals_requested": "count",
    "ga.evals_fitted": "count",
    "ga.cache_hits": "count",
    "ga.fitted_ratio": "ratio",
    "ga.unique_masks": "count",
    "ga.fitness_s": "s",
    "ga.self_s": "s",
    "experiment.self_s": "s",
    "experiment.report_s": "s",
    "trace.overhead_frac": "ratio",
}

# metrics that describe the GA search; the fixed-mask sweep has no search, so
# on it they only count the sweep's compute_fitness calls
GA_SEARCH_METRICS = (
    "ga.evals_requested", "ga.evals_fitted", "ga.cache_hits",
    "ga.fitted_ratio", "ga.unique_masks",
)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], evals_requested: int) -> dict[str, float]:
    """Per-layer metrics of one traced call, computed from its spans.

    A span's self time is its duration minus the durations of its direct
    children. ``ga.self_s`` is the self time of every ``ga.*`` span: the
    search outside ``compute_fitness`` (selection, crossover, mutation,
    sorting, cache lookups) plus ``compute_fitness``'s own glue.
    ``experiment.self_s`` is the same for ``experiment.*`` spans other than
    the report step, which ``experiment.report_s`` times on its own.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + _duration(span)

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def total(name: str) -> float:
        return sum(_duration(s) for s in named(name))

    def self_time(prefix: str, exclude: str = "") -> float:
        return sum(_duration(s) - child_time.get(s["id"], 0.0)
                   for s in spans if s["name"].startswith(prefix) and s["name"] != exclude)

    parse_rows = sum(s["counts"]["rows"] for s in named("nslkdd.parse"))
    fits = named("tree.fit")
    fit_ms = [1e3 * _duration(s) for s in fits] or [0.0]
    nodes = [s["counts"]["nodes"] for s in fits] or [0]
    predict_rows = sum(s["counts"]["rows"] for s in named("tree.predict"))

    # masks the search asked for: generation zero, then the first
    # population_size children of each generation (the rest are discarded)
    requested = [m for s in named("ga.init_population") for m in s["counts"]["masks"]]
    for evolve in named("ga.evolve"):
        children = [s["counts"]["mask"] for s in spans
                    if s["parent"] == evolve["id"] and s["name"] == "ga.mutate"]
        requested += children[: evolve["counts"]["population"]]
    evaluations = named("ga.compute_fitness")
    if not named("ga.run"):
        # the fixed-mask sweep asks for every case's mask directly
        requested = [s["counts"]["mask"] for s in evaluations]
    evaluated = len(evaluations)

    fit_s = total("tree.fit")
    predict_s = total("tree.predict")
    return {
        "nslkdd.parse_s": total("nslkdd.parse"),
        "nslkdd.parse_us_per_row": 1e6 * total("nslkdd.parse") / max(parse_rows, 1),
        "nslkdd.codebook_s": total("nslkdd.codebook"),
        "nslkdd.encode_s": total("nslkdd.encode"),
        "nslkdd.relabel_s": total("nslkdd.relabel"),
        "nslkdd.project_s": total("nslkdd.project"),
        "nslkdd.project_calls": len(named("nslkdd.project")),
        "nslkdd.project_mb": sum(s["counts"]["bytes"] for s in named("nslkdd.project")) / 1e6,
        "tree.fit_s": fit_s,
        "tree.fit_calls": len(fits),
        "tree.fit_ms_p50": float(np.percentile(fit_ms, 50)),
        "tree.fit_ms_p90": float(np.percentile(fit_ms, 90)),
        "tree.nodes_total": sum(nodes),
        "tree.nodes_max": max(nodes),
        "tree.depth_max": max([s["counts"]["depth"] for s in fits] or [0]),
        "tree.fit_us_per_node": 1e6 * fit_s / max(sum(nodes), 1),
        "tree.predict_s": predict_s,
        "tree.predict_ns_per_row": 1e9 * predict_s / max(predict_rows, 1),
        "metrics.confusion_s": total("metrics.confusion"),
        "metrics.report_s": total("metrics.report"),
        "ga.evals_requested": evals_requested,
        "ga.evals_fitted": evaluated,
        "ga.cache_hits": evals_requested - evaluated,
        "ga.fitted_ratio": evaluated / max(evals_requested, 1),
        "ga.unique_masks": len(set(requested)),
        "ga.fitness_s": total("ga.compute_fitness"),
        "ga.self_s": self_time("ga."),
        "experiment.self_s": self_time("experiment.", exclude="experiment.report"),
        "experiment.report_s": total("experiment.report"),
    }


def median_metrics(per_call: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced calls of one run.

    A count that every call repeats exactly is reported as that count.
    """
    merged = {}
    for name in per_call[0]:
        values = [call[name] for call in per_call]
        merged[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return merged
