"""The repo benchmark: wall-clock and simulated metrics per workload.

Run from the repository root::

    python3 perfbench/run.py                         # every workload, committed seed
    python3 perfbench/run.py --workload figure8b --seed 1 --seconds 10 --trace 0

Each workload runs in two fresh processes, one after the other, each
given half of ``--seconds`` and always at least one whole pass:

* process A (``PYTHONHASHSEED=1``, tracing as ``--trace`` asks) sets
  up twice;
* process B (``PYTHONHASHSEED=2``, never traced) sets up once and, for
  ``serve-live-chem``, also checks served answers against solo runs.

``setup_s`` is the median of the three set-ups; the untraced processes'
passes are pooled for the wall-clock metrics.  The gated wall-clock
metrics (``queries_per_ref_s``, ``setup_s``) are scaled to reference host
speed by the calibration kernel of :mod:`calibrate`; the unscaled
figures are printed next to them.  Every answer is checked
against the reference engine in both.  The simulated figures (cluster
seconds, volumes, recovery counters, serve latencies on the simulated
clock) must be bit-identical across passes and across the two
processes, i.e. across hash seeds and, with ``--trace 1``, between the
traced and the untraced run; any difference fails the run, since it
means the two runs measured different programs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A per-layer metric whose hook target no longer exists
is reported with ``"value": null, "missing": true``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The names in ``workloads.WORKLOADS``, repeated because this driver
#: must not import the program (it has to fail cleanly without it).
WORKLOADS = ("figure8b", "serve-live-chem", "shard-recovery")
#: The seed the committed figures (and ``python3 perfbench/run.py``
#: without ``--seed``) use.
COMMITTED_SEED = 1
#: Hard ceiling for one workload's two processes together.
WORKLOAD_TIMEOUT_S = 170.0
#: p90 is printed only when at least this many samples lie above it.
TAIL_SAMPLES = 10


def _child(workload: str, seed: int, seconds: float, trace: int, hash_seed: int,
           setups: int, solo_check: bool, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path("src").resolve()), str(HERE), env.get("PYTHONPATH")])
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--setups", str(setups),
    ] + (["--solo-check"] if solo_check else [])
    # subprocess.run kills and reaps the child if the timeout expires.
    done = subprocess.run(
        command, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} process (PYTHONHASHSEED={hash_seed}) "
                           f"exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _sim_differences(a: dict, b: dict) -> list[str]:
    return [
        f"{name}: {a[name]!r} != {b[name]!r}"
        for name in sorted(set(a) & set(b))
        if a[name] != b[name]
    ]


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    a = _child(workload, seed, seconds / 2, trace, 1, 2, False, deadline)
    b = _child(workload, seed, seconds / 2, 0, 2, 1, workload == "serve-live-chem", deadline)
    untraced = [b] if trace else [a, b]

    problems = a["failures"] + b["failures"] + a["unstable"] + b["unstable"]
    problems += [
        f"simulated figure differs between PYTHONHASHSEED 1 (trace {trace}) "
        f"and PYTHONHASHSEED 2 (trace 0): {diff}"
        for diff in _sim_differences(a["sim"], b["sim"])
    ]
    if trace:
        layers = a["layers"]
        if layers["trace.escaped_spans"] or layers["trace.max_residual_s"] > 1e-6:
            problems.append(
                f"span tree inconsistent: {layers['trace.escaped_spans']} escaped spans, "
                f"residual {layers['trace.max_residual_s']:.3g}s"
            )

    completed = sum(run["completed"] for run in untraced)
    wall = sum(run["wall_s"] for run in untraced)
    wall_ref = sum(run["wall_ref_s"] for run in untraced)
    walls_ms = [w * 1000.0 for run in untraced for w in run["call_walls_s"]]
    setups = len(a["setup_s"]) + len(b["setup_s"])
    end_to_end = {
        "queries_per_ref_s": (completed / wall_ref, "1/s", completed),
        "queries_per_s": (completed / wall, "1/s", completed),
        "exec_p50_ms": (statistics.median(walls_ms), "ms", len(walls_ms)),
        "peak_rss_mb": (statistics.median(run["peak_rss_mb"] for run in (a, b)), "MB", 2),
        "setup_s": (statistics.median(a["setup_ref_s"] + b["setup_ref_s"]), "s", setups),
        "setup_wall_s": (statistics.median(a["setup_s"] + b["setup_s"]), "s", setups),
    }
    per_layer = {}
    if trace:
        # A layer the workload never enters reads 0; None means its
        # hook target is gone from the program.
        per_layer = {entry["name"]: 0 for entry in spec["per_layer"]}
        per_layer.update(a["layers"])
        # Simulated volumes from the reports where the workload sees
        # them, otherwise from the stats the hooks captured.
        per_layer.update(a["hooked"])
        per_layer.update(a["sim"])
        traced_qps = a["completed"] / a["wall_s"]
        per_layer["trace.queries_per_s"] = traced_qps
        per_layer["trace.overhead_ratio"] = 1.0 - traced_qps / (b["completed"] / b["wall_s"])
    return {
        "workload": workload,
        "runs": (a, b),
        "problems": problems,
        "attempted": a["attempted"] + b["attempted"],
        "failed": a["failed"] + b["failed"],
        "walls_ms": walls_ms,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def _print_report(result: dict, spec: dict, trace: int, seed: int) -> None:
    a, b = result["runs"]
    passes = a["passes"] + b["passes"]
    print(f"== {result['workload']}  seed {seed}  --trace {trace}  ({passes} passes, "
          f"{a['completed'] + b['completed']} {a['unit']}s in {a['wall_s'] + b['wall_s']:.2f}s)")
    for name, (value, unit, samples) in result["end_to_end"].items():
        print(f"  {name:<34} {value:>14.4f} {unit:<8} n={samples}")
    walls = result["walls_ms"]
    above = len(walls) - math.ceil(0.9 * len(walls))
    if above >= TAIL_SAMPLES:
        print(f"  {'exec_p90_ms':<34} {_percentile(walls, 0.9):>14.4f} {'ms':<8} n={len(walls)}")
    else:
        print(f"  {'exec_p90_ms':<34} {'n/a':>14} {'ms':<8} "
              f"n={len(walls)} (only {above} samples above p90)")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<34} {rate:>14.4f} {'ratio':<8} n={result['attempted']}")
    sim = a["sim"]
    print(f"  {'sim_cost_s':<34} {sim['sim_cost_s']:>14.4f} {'sim_s':<8} "
          f"n={a['attempted'] // a['passes']} (deterministic, per pass)")
    for name in ("serve_sim_p50_s", "serve_sim_p95_s"):
        if name in sim:
            print(f"  {name:<34} {sim[name]:>14.4f} {'sim_s':<8} "
                  f"n={sim['serve_sim_samples']} (deterministic)")
    if trace:
        print("  per layer (per pass):")
        for entry in spec["per_layer"]:
            value = result["per_layer"][entry["name"]]
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"    {entry['name']:<42} {shown:>14} {entry['unit']}")
    for problem in result["problems"][:20]:
        print(f"  FAIL {problem}")


def _metrics(result: dict, spec: dict, trace: int) -> dict:
    metrics = {}
    if not trace:
        for entry in spec["end_to_end"]:
            value = result["end_to_end"][entry["name"]][0]
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        return metrics
    for entry in spec["per_layer"]:
        value = result["per_layer"][entry["name"]]
        metrics[entry["name"]] = (
            {"value": None, "unit": entry["unit"], "missing": True}
            if value is None
            else {"value": value, "unit": entry["unit"]}
        )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the repo benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all of them")
    parser.add_argument("--seed", type=int, default=COMMITTED_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path("src") / "repro" / "__init__.py").is_file():
        sys.stderr.write("perfbench: run from the repository root (src/repro not found)\n")
        return 2
    spec = _spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    selected = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    try:
        for workload in selected:
            result = run_workload(workload, args.seed, seconds, args.trace, spec)
            _print_report(result, spec, args.trace, args.seed)
            results.append(result)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as error:
        sys.stderr.write(f"perfbench: {error}\n")
        return 1

    correct = not any(result["problems"] for result in results)
    if len(results) == 1:
        metrics = _metrics(results[0], spec, args.trace)
    else:
        metrics = {
            f"{result['workload']}/{name}": value
            for result in results
            for name, value in _metrics(result, spec, args.trace).items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
