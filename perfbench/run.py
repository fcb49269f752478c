"""Benchmark of flowcast: online warm-start throughput, offline training time,
and a traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload online-box --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn in one process (its
``peak_rss_mb`` then includes the workloads before it). The program is
imported from ``src/`` of the checkout with one BLAS thread. Each workload is
set up three times (``setup_s`` is the median), warmed up, and then runs
whole passes of its work until ``--seconds`` have elapsed (at least one).
With ``--trace 1`` untraced and traced passes alternate; the tracer's
wrappers exist only during traced passes, and the per-layer metrics are per
traced pass.

End-to-end seconds are reference seconds: wall seconds scaled by the
machine's speed on a fixed probe that runs every 0.2 s during untraced work
(see ``workloads.Clock``); the run record keeps the wall seconds too.
Per-layer seconds are wall seconds of traced passes, during which the probe
pauses.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``). A run record with the environment, per-case records and
gate results is written under ``perfbench/out/``. The exit code is 1 when a
correctness gate fails, and 2 when the program cannot be imported from the
checkout or the emitted metrics differ from ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere in the process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import dataclasses
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import flowcast from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import flowcast
    except ImportError as exc:
        fail(f"cannot import flowcast from {src}: {exc}")
    if Path(flowcast.__file__).resolve().parent.parent != src:
        fail(f"flowcast was imported from {flowcast.__file__}, not {src}")


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict,
                 env: dict) -> tuple[dict, bool]:
    """Set up, measure and check one workload; returns its result line and gate verdict."""
    import workloads as wl
    from tracing import Tracer, layer_metrics

    workload = wl.WORKLOADS[name]
    out_dir = BENCH_DIR / "out" / f"{name}-seed{seed}-trace{trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    gates = wl.Gates()
    clock = wl.Clock()

    tracer = Tracer() if trace else None
    setups, states = [], []
    timeline = []  # (traced, pass, its timing) in run order
    with clock.sampling():
        for _ in range(SETUP_REPEATS):
            state, timed = clock.time(workload.setup, seed, gates, clock)
            states.append(state)
            setups.append(timed)
        workload.warm_up(state, clock)

        start = time.perf_counter()
        while True:
            args = (state, len(timeline), gates, clock, out_dir)
            timeline.append((False, *clock.time(workload.run_pass, *args)))
            if tracer is not None:
                with clock.paused(), tracer.installed():
                    args = (state, len(timeline), gates, clock, out_dir)
                    timeline.append((True, *clock.time(workload.run_pass, *args)))
            if time.perf_counter() - start >= seconds:
                break
    passes = [p for t, p, _ in timeline if not t]
    traced = [p for t, p, _ in timeline if t]
    wl.check_repeatable(gates, passes + traced)

    metrics = wl.end_to_end(setups, states, passes)
    layers = {}
    if tracer is not None:
        layers = layer_metrics(tracer, len(traced))
        layers["kernels.init_residual_ratio"] = (wl.init_residual_ratio(passes + traced), "ratio")
        pass_s = {t: statistics.median(w.wall_s for tt, _, w in timeline if tt == t)
                  for t in (False, True)}
        layers["trace.overhead_frac"] = (pass_s[True] / pass_s[False] - 1.0, "ratio")
        tracer.write_spans(out_dir / "spans.csv")
    emitted = layers if trace else metrics

    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: u for k, (_, u) in emitted.items()}
    if got != expected:
        fail(
            f"emitted metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}, "
            f"units {sorted(k for k in got if k in expected and got[k] != expected[k])}"
        )
    for key, (value, _) in emitted.items():
        gates.check(math.isfinite(value), f"metric {key} is not finite")

    attempted, failed = wl.counts(passes + traced)
    result = {
        "correct": not gates.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": u}
            for k, (v, u) in emitted.items()
        },
    }
    records = [r.record(i) for i, (_, p, _) in enumerate(timeline) for r in p.integrations]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "setups": [dataclasses.asdict(t) for t in setups],
        "probes": {"count": len(clock.durations), "median_s": statistics.median(clock.durations)},
        "passes": [
            {"traced": t, "timed": dataclasses.asdict(w),
             "offline": p.offline and dataclasses.asdict(p.offline)}
            for t, p, w in timeline
        ],
        "cases": records,
        "gate_failures": gates.failures,
        "end_to_end": {k: v for k, (v, _) in metrics.items()},
        "end_to_end_wall_clock": wl.wall_clock(setups, states, passes),
        "per_layer": {k: v for k, (v, _) in layers.items()},
        "untraced_boundaries": tracer.missing if tracer is not None else [],
        "result": result,
    }
    (out_dir / "record.json").write_text(json.dumps(record, indent=1, default=float) + "\n")

    print(f"== {name} seed={seed} passes={len(passes)} traced={len(traced)} "
          f"setups={SETUP_REPEATS}")
    print(wl.paper_table(passes + traced))
    for key, (value, unit) in emitted.items():
        print(f"{key:40s} {value:>14.6g} {unit}")
    print("in wall seconds: " + json.dumps(record["end_to_end_wall_clock"]))
    for failure in gates.failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    print(f"record: {out_dir / 'record.json'}")
    return result, not gates.failures


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    env = environment()
    print("environment: " + json.dumps(env))
    selected = names if args.workload == "all" else [args.workload]
    results, ok = {}, True
    for name in selected:
        results[name], passed = run_workload(name, args.seed, args.seconds, args.trace, spec, env)
        ok = ok and passed
        if len(selected) > 1:
            print(f"{name} {json.dumps(results[name])}")
    if len(selected) == 1:
        final = results[selected[0]]
    else:
        final = {
            "correct": ok,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
