"""One workload in its own process (launched by ``run.py``).

Sets the workload up ``--setups`` times, then runs whole passes, stopping
before a pass that would overrun ``--seconds`` (at least one pass).
With ``--trace 1`` the passes run under the hook table of
:mod:`tracing`.  ``--solo-check`` adds the serve workload's check of
served answers against solo executions, after the timed passes.

Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import resource
import sys
import time

import calibrate
import tracing
import workloads

#: Layers timed by spans, and layers whose calls are only counted.
_SPANNED = dict.fromkeys(hook.layer for hook in tracing.HOOKS if not hook.count)
_COUNTED = dict.fromkeys(hook.layer for hook in tracing.HOOKS if hook.count)


def layer_metrics(tracer: tracing.Tracer, missing: set[str], passes: int) -> dict:
    """Per-pass layer figures; ``None`` where the layer's hook is gone."""
    found = tracing.attribute(tracer.spans)
    counts = tracer.call_counts()
    layers: dict[str, float | None] = {}
    for layer in _SPANNED:
        gone = layer in missing
        layers[f"{layer}.self_s"] = None if gone else found.self_s.get(layer, 0.0) / passes
        layers[f"{layer}.calls"] = None if gone else found.calls.get(layer, 0) / passes
    for layer in _COUNTED:
        layers[f"{layer}.calls"] = None if layer in missing else counts.get(layer, 0) / passes
    run_job = "mapreduce.runner.run_job"
    calls = found.calls.get(run_job, 0)
    if run_job in missing:
        layers["recovery.failed_job_s"] = layers["recovery.job_success_ratio"] = None
    else:
        layers["recovery.failed_job_s"] = found.failed_s.get(run_job, 0.0) / passes
        failed = found.failed_calls.get(run_job, 0)
        layers["recovery.job_success_ratio"] = (calls - failed) / calls if calls else 1.0
    layers["trace.unattributed_s"] = found.self_s.get(tracing.OP, 0.0) / passes
    layers["trace.max_residual_s"] = found.max_residual_s
    layers["trace.escaped_spans"] = found.escaped
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setups", type=int, required=True)
    parser.add_argument("--solo-check", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    # Every set-up and pass is bracketed by calibration kernels; each
    # interval's wall time is also reported scaled to reference speed.
    kernel = calibrate.kernel_seconds()
    setup_s, setup_ref_s = [], []
    for _ in range(args.setups):
        start = time.perf_counter()
        state = workload.setup(args.seed)
        setup_s.append(time.perf_counter() - start)
        after = calibrate.kernel_seconds()
        setup_ref_s.append(setup_s[-1] / calibrate.speed(kernel, after))
        kernel = after

    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        def run_op(fn, *fn_args):
            return fn(*fn_args)
    else:
        op_ids = itertools.count(1)

        def run_op(fn, *fn_args):
            return tracer.operation(next(op_ids), fn, *fn_args)

    passes: list[workloads.PassResult] = []
    measured = measured_ref = 0.0
    hooks = tracing.Hooks(tracer) if tracer is not None else contextlib.nullcontext()
    with hooks:
        # Whole passes only, so every run measures the same operations;
        # stop before a pass that would overrun --seconds.
        while True:
            passes.append(workload.run_pass(state, run_op))
            measured += passes[-1].wall_s
            after = calibrate.kernel_seconds()
            measured_ref += passes[-1].wall_s / calibrate.speed(kernel, after)
            kernel = after
            if measured * (len(passes) + 1) / len(passes) > args.seconds:
                break
    missing = hooks.missing if tracer is not None else set()

    first = passes[0]
    failures = [message for result in passes for message in result.failures]
    unstable = [
        f"pass {index + 1}: simulated figures differ from pass 1"
        for index, result in enumerate(passes[1:], start=1)
        if result.sim != first.sim
    ]
    attempted = sum(result.attempted for result in passes)
    failed = sum(result.attempted - result.completed for result in passes)
    if args.solo_check:
        solo = workloads.solo_digest_check(state, first.served)
        failures += solo
        attempted += len(first.served)
        failed += len(solo)

    out = {
        "workload": args.workload,
        "trace": args.trace,
        "unit": workload.unit,
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "passes": len(passes),
        "wall_s": measured,
        "wall_ref_s": measured_ref,
        "completed": sum(result.completed for result in passes),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "unstable": unstable,
        "call_walls_s": [wall for result in passes for wall in result.call_walls],
        "sim": first.sim,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing": sorted(missing),
        "layers": layer_metrics(tracer, missing, len(passes)) if tracer is not None else {},
        # Volumes as the hooks saw them (the only view serve-live-chem has).
        "hooked": (
            {name: value / len(passes) for name, value in workloads.volumes(tracer.stats).items()}
            if tracer is not None
            else {}
        ),
    }
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
