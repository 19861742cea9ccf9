"""Benchmark driver: one workload, one seed, one process.

    python3 perfbench/run.py --workload smm-uniform --seed 1 --trace 0

The workload's calls repeat on the same seeded inputs for about
``--seconds``: a new iteration starts only if, at the last one's pace, it
ends in time (at least two untraced iterations; with ``--trace 1``
untraced and traced ones alternate, at least one of each).  Every output
is then checked against an independent reference.

``wall_s`` is the median untraced iteration.  The last line of standard
output is a JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics that BENCHMARK.json lists, end-to-end ones with ``--trace 0`` and
per-layer ones with ``--trace 1``.  The line before it is a note with the
machine, the seeds and each call's ledger fingerprint.

The process is single-threaded: it starts no worker, so the figures are
those of one core.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".perfbench"      # traced spans, one JSONL file per workload and seed

# Claims are made at DEFAULT_SEED and must also hold at HELD_OUT_SEED,
# which is not used while a change is being written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009

# Set-up repeats at least this often and for at least this long; its
# median is setup_s.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_note(seed: int) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def measure_setup(workload, seed: int):
    """Median time to generate the inputs, and the inputs."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        t0 = perf_counter()
        inputs = workload.make_inputs(seed)
        times.append(perf_counter() - t0)
    return median(times), inputs


def run_calls(calls) -> tuple[float, list]:
    """Run every call in order; a call that raises yields None."""
    results = []
    t0 = perf_counter()
    for call in calls:
        try:
            results.append(call.run())
        except Exception:
            traceback.print_exc()
            results.append(None)
    return perf_counter() - t0, results


def benchmark(workload, seed: int, seconds: float, traced: bool,
              spans_path: Path | None = None) -> tuple[dict, int, int, dict]:
    """Returns (metrics, attempted, failed, note); traced spans go to ``spans_path``."""
    import workloads

    setup_s, inputs = measure_setup(workload, seed)
    from_entries_s = 0.0
    if traced:
        setup_tracer = spans.Tracer()
        with spans.instrumented(setup_tracer), setup_tracer.workload_call(0):
            workload.make_inputs(seed)
        from_entries_s = sum(s.end - s.start for s in setup_tracer.spans
                             if s.name == "from_entries")

    tracer = spans.Tracer()
    walls, traced_walls = [], []
    # Per iteration and call: (output digest, ledger fingerprint, rounds), or
    # None when the call raised.  Only the last iteration's outputs are kept,
    # so no earlier output is alive while the pipeline runs.
    seen: list[list[tuple | None]] = []
    deadline = perf_counter() + seconds
    while True:
        use_trace = traced and len(walls) > len(traced_walls)
        calls = workload.calls(inputs)
        gc.collect()
        if use_trace:
            with spans.instrumented(tracer), tracer.workload_call(len(traced_walls)):
                wall, results = run_calls(calls)
            traced_walls.append(wall)
        else:
            wall, results = run_calls(calls)
            walls.append(wall)
        views = [None if r is None else call.view(r) for call, r in zip(calls, results)]
        seen.append([None if r is None else
                     (workloads.digest(v), workloads.fingerprint(r.records),
                      sum(x.rounds for x in r.records))
                     for r, v in zip(results, views)])
        del results
        # Stop before an iteration that would, at the last one's pace, end
        # past the deadline.
        done = len(walls) >= (1 if traced else 2) and len(traced_walls) >= int(traced)
        if done and perf_counter() + wall > deadline:
            break
        del views
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    t0 = perf_counter()
    refs = workload.references(inputs)
    last_ok = [v is not None and v == ref for v, ref in zip(views, refs)]
    check_s = perf_counter() - t0
    # A call fails when it raised, or when its output or ledger differs from
    # the last iteration's, or when that one disagrees with the reference.
    last = seen[-1]
    failed = sum(not (ok and s is not None and s == want)
                 for row in seen for ok, s, want in zip(last_ok, row, last))
    attempted = sum(len(row) for row in seen)

    note = machine_note(seed)
    note["fingerprints"] = [s[1] if s else None for s in last]
    note["fail_ratio"] = failed / attempted
    note["wall_s_samples"] = {"untraced": walls, "traced": traced_walls}
    if traced:
        metrics = spans.layer_metrics(tracer.spans)
        metrics["trace.overhead_ratio"] = median(traced_walls) / median(walls)
        metrics["sparse.from_entries.s"] = from_entries_s
        metrics["oracle.check_s"] = check_s
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans.write_jsonl(tracer.spans, spans_path)
            note["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "wall_s": median(walls),
            "rounds_total": sum(s[2] for s in last if s is not None),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
    return metrics, attempted, failed, note


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot load the package under test: {exc}", file=sys.stderr)
        return 2
    spans_path = ROOT / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    metrics, attempted, failed, note = benchmark(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spans_path)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({"note": note}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
