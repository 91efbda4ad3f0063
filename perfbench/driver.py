"""Benchmark driver: set-up, timed passes, checks and the result line.

Set-up (building the seeded inputs) runs five times and its median is
``setup_s``.  Passes over the workload then run until ``--seconds`` have
elapsed.  ``pass_s`` is the median pass, ``surface_ms.p50`` the median
per-surface pipeline latency over all passes, and ``peak_rss_mb`` the peak
resident memory after the first pass.  Every output is checked: the golden
digests and input descriptors of ``golden.json``, a naive zigzag walk, the
shredding bounds and the certificate replay.  Failed checks and raised
errors count in ``failed``.  With ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics of the median traced pass are reported
instead.

The last line of standard output is the JSON result.  The two lines before
it describe the inputs (sizes, topology, zigzag count, type histogram,
Python version and nproc) and give the workload's own stage medians
(``analyze_s``, ``shred_s``, ``verify_s``, ``corpus_s``), the 95th
percentile surface latency and ``fail_frac``.
"""

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback

import instrument
import spans
import workloads
from naive import naive_orbit_count
from trizig import document, zigzag

HERE = pathlib.Path(__file__).resolve().parent
WORKDIR = HERE.parent / ".bench_work"
SETUPS = 5


def metric_units(kind):
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class Ledger:
    """Operations and checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def first_pass_checks(ledger, workload, result):
    """The expensive checks, made once per run on the first pass."""
    for surface in result.surfaces:
        name = surface.name
        ledger.check(f"{name}: naive walk finds {surface.zigzags} orbits",
                     naive_orbit_count(surface.tri) == surface.zigzags)
        if name.startswith("torus_grid"):
            ledger.check(f"{name}: every face classifies M5",
                         all(t.tag == "M5" for t in surface.types.values()))
        if surface.output is None:
            continue
        bad = sum(t.tag in workloads.BAD_TAGS for t in surface.types.values())
        ledger.check(f"{name}: {surface.steps} steps <= {bad} bad faces",
                     surface.steps <= bad)
        shredded = document.parse(surface.output)
        ledger.check(f"{name}: shredded output has exactly 2 zigzags",
                     naive_orbit_count(shredded) == 2
                     and zigzag.all_zigzags(shredded).count == 2)
    with open(HERE / "golden.json", encoding="utf-8") as handle:
        expected = json.load(handle)[workload.name]
    ledger.check("input descriptors match golden.json",
                 workloads.descriptors(result.surfaces) == expected["inputs"])
    ledger.check("output digests match golden.json",
                 workloads.digests(result.surfaces) == expected["digests"])


def run_passes(ledger, workload, inputs, workdir, seconds, recorder):
    """Passes until ``seconds`` elapse; with a recorder, untraced and traced
    passes alternate.

    Returns the untraced passes, the traced passes with their root spans,
    the descriptors of the inputs, and the peak resident memory in MB after
    the first pass (later passes only add allocator fragmentation, and
    their number depends on the machine's speed).
    """
    untraced, traced = [], []
    reference = summary = peak_rss_mb = None
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or not untraced
           or (recorder is not None and not traced)):
        trace_this = recorder is not None and len(traced) < len(untraced)
        gc.collect()
        ledger.attempted += len(inputs)
        try:
            if trace_this:
                with instrument.traced(recorder):
                    root = recorder.begin(instrument.ROOT, len(traced))
                    try:
                        result = workload.run_pass(inputs, workdir)
                    finally:
                        recorder.end(root)
            else:
                result = workload.run_pass(inputs, workdir)
        except Exception:
            ledger.failed += len(inputs)
            traceback.print_exc()
            continue
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        digests = workloads.digests(result.surfaces)
        if reference is None:
            reference = digests
            first_pass_checks(ledger, workload, result)
            summary = workloads.descriptors(result.surfaces)
        else:
            ledger.check("outputs repeat across passes", digests == reference)
        for surface in result.surfaces:
            if surface.output is not None:
                ledger.check(f"{surface.name}: certificate replays",
                             surface.verified)
        result.surfaces = None  # the next pass must not hold this one's memory
        if trace_this:
            traced.append((result, root))
        else:
            untraced.append(result)
    return untraced, traced, summary, peak_rss_mb


def median_of(passes, key):
    return statistics.median(map(key, passes)) if passes else 0.0


def traced_metrics(ledger, untraced, traced, recorder):
    """Per-layer metrics of the traced pass with the median duration."""
    if not traced:
        return dict.fromkeys(metric_units("per_layer"), 0.0)
    ordered = sorted(traced, key=lambda item: item[0].seconds)
    _result, root = ordered[(len(ordered) - 1) // 2]
    metrics = instrument.layer_metrics(spans.subtree(recorder.spans, root.id))
    attributed = sum(metrics[name] for name in instrument.SELF_METRICS)
    ledger.check("layer self times add up to the traced pass",
                 abs(attributed - root.duration) <= 1e-6 * root.duration)
    metrics["trace.pass_s"] = root.duration
    metrics["trace.overhead_frac"] = (
        median_of(traced, lambda item: item[0].seconds)
        / median_of(untraced, lambda p: p.seconds) - 1)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="trizig benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    workdir = WORKDIR / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()

    setup_s = []
    for _ in range(SETUPS):
        begin = time.perf_counter()
        inputs = workload.setup(args.seed, workdir)
        setup_s.append(time.perf_counter() - begin)

    recorder = spans.Recorder() if args.trace else None
    untraced, traced, summary, peak_rss_mb = run_passes(
        ledger, workload, inputs, workdir, args.seconds, recorder)

    surface_ms = [s * 1e3 for p in untraced for s in p.surface_s]
    if recorder is None:
        units = metric_units("end_to_end")
        metrics = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb or 0.0,
            "pass_s": median_of(untraced, lambda p: p.seconds),
            "surface_ms.p50": statistics.median(surface_ms) if surface_ms else 0.0,
        }
    else:
        recorder.write(workdir / f"spans-seed{args.seed}.json")
        units = metric_units("per_layer")
        metrics = traced_metrics(ledger, untraced, traced, recorder)

    print(json.dumps({"inputs": {
        "workload": workload.name, "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **(summary or {})}}, sort_keys=True))
    details = {stage: median_of(untraced, lambda p: p.stages[stage])
               for stage in (untraced[0].stages if untraced else ())}
    details.update({
        "passes": len(untraced),
        "surfaces_timed": len(surface_ms),
        "surface_ms.p95": instrument.percentile(surface_ms, 0.95),
        "fail_frac": ledger.failed / max(ledger.attempted, 1),
    })
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0
