"""Span recording around calls into the program's layers.

The traced run wraps the attributes in :data:`HOOKS` — each the name a
caller looks up at call time — records one span per call (name, start,
end, parent, operation id) in memory, and restores the originals when
it ends.  Nothing here touches ``src/``: the wrappers are installed on
the live modules and classes from the benchmark's own process.

A layer's self time is its spans' durations minus the part of each
interval that its direct child spans cover.  The operation's own root
span keeps whatever no layer claimed ("unattributed").
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    """One wrapped attribute: ``target`` is ``module:Attr.path`` as the
    caller resolves it; ``layer`` names the span (or counter); ``count``
    hooks only count calls (hot functions where a span per call would
    swamp the run); ``stats`` hooks also keep the returned report's
    ``WorkflowStats`` for the simulated-volume metrics."""

    target: str
    layer: str
    count: bool = False
    stats: bool = False


#: The hook table.  Where a function is imported by name into its
#: caller's module, the caller's module is the target.
HOOKS = (
    Hook("repro.mapreduce.runner:MapReduceRunner.run_job", "mapreduce.runner.run_job"),
    Hook("repro.mapreduce.cost:estimate_size", "mapreduce.cost.estimate_size", count=True),
    Hook("repro.mapreduce.runner:estimate_size", "mapreduce.cost.estimate_size", count=True),
    Hook("repro.shard.execution:estimate_size", "mapreduce.cost.estimate_size", count=True),
    Hook("repro.hive.executor:estimate_size", "mapreduce.cost.estimate_size", count=True),
    Hook(
        "repro.mapreduce.cost:estimate_total_size",
        "mapreduce.cost.estimate_total_size",
        count=True,
    ),
    Hook(
        "repro.mapreduce.runner:estimate_total_size",
        "mapreduce.cost.estimate_total_size",
        count=True,
    ),
    Hook(
        "repro.mapreduce.hdfs:estimate_total_size",
        "mapreduce.cost.estimate_total_size",
        count=True,
    ),
    Hook("repro.ntga.engine:NTGAEngine.execute", "engine", stats=True),
    Hook("repro.hive.engine:HiveEngine.execute", "engine", stats=True),
    Hook("repro.hive.executor:HiveExecutor.execute", "hive.executor"),
    Hook("repro.hive.engine:load_vertical_partitions", "hive.tables.load"),
    Hook("repro.ntga.engine:load_triplegroups", "ntga.load"),
    Hook("repro.ntga.engine:plan_rapid_plus", "ntga.planner"),
    Hook("repro.ntga.engine:plan_rapid_analytics", "ntga.planner"),
    Hook("repro.ntga.engine:plan_batch", "ntga.planner"),
    Hook("repro.plan:plan_adaptive", "plan.enumerator"),
    Hook("repro.serve.service:execute_batch", "ntga.execute_batch", stats=True),
    Hook("repro.serve.service:QueryService.serve", "serve"),
    Hook("repro.rdf.graph:Graph.add", "rdf.graph.add"),
    Hook("repro.shard.execution:build_partition", "shard.partition"),
    Hook("repro.shard.execution:ShardedExecutor.run", "shard.execution"),
)

#: The root span of each measured operation.
OP = "op"


class Tracer:
    """In-memory span store shared by the coordinator and pool threads."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._coordinator: list[int] = []
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, ok)
        self.counts: dict[str, itertools.count] = defaultdict(itertools.count)
        self.stats: list[object] = []
        self.op = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        if not self.op:
            # Outside any measured operation (per-pass preparation).
            return fn(*args, **kwargs)
        stack = self._stack()
        # A pool thread starts with an empty stack: its caller is the
        # coordinator's innermost open span (the coordinator is blocked
        # on the pool inside it).
        parent = stack[-1] if stack else (self._coordinator[-1] if self._coordinator else 0)
        span_id = next(self._ids)
        stack.append(span_id)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op, ok))

    def operation(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as operation *op_id* under a root span."""
        self.op = op_id
        self._coordinator = self._stack()
        try:
            return self.call(OP, fn, args, {})
        finally:
            self.op = 0

    def call_counts(self) -> dict[str, int]:
        """Calls made to each counted hook (read once, at the end)."""
        return {name: next(counter) for name, counter in self.counts.items()}


def _resolve(target: str):
    """Return (owner, attribute, current value) or None when any part of
    the dotted path no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attribute, None)
    if value is None:
        return None
    return owner, attribute, value


def _wrapper(tracer: Tracer, hook: Hook, fn):
    if hook.count:
        counter = tracer.counts[hook.layer]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return counted

    name = hook.layer

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if hook.stats:
            tracer.stats.append(result.stats)
        return result

    return spanned


class Hooks:
    """Context manager: wrap every resolvable hook, restore on exit.

    ``missing`` lists the layers none of whose targets resolved, so
    their metrics are reported as missing instead of failing the run.
    """

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.tracer = tracer
        self.hooks = hooks
        self._saved: list[tuple[object, str, object, bool]] = []
        self.missing: set[str] = set()

    def __enter__(self) -> "Hooks":
        found: set[str] = set()
        for hook in self.hooks:
            resolved = _resolve(hook.target)
            if resolved is None:
                self.missing.add(hook.layer)
                continue
            owner, attribute, value = resolved
            own = attribute in vars(owner)
            self._saved.append((owner, attribute, vars(owner).get(attribute), own))
            setattr(owner, attribute, _wrapper(self.tracer, hook, value))
            found.add(hook.layer)
        self.missing -= found
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, original, own in reversed(self._saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._saved.clear()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of *intervals*."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


@dataclass
class Attribution:
    """Self time per layer over a set of operations."""

    self_s: dict[str, float]
    calls: dict[str, int]
    failed_s: dict[str, float]
    failed_calls: dict[str, int]
    #: Largest per-operation violation of
    #: ``sum(self) - overlap == wall`` (0 up to float rounding).
    max_residual_s: float
    #: Spans that do not lie inside their parent.
    escaped: int


def attribute(spans: list[tuple]) -> Attribution:
    """Self time per layer.  Per operation, the self times add up to the
    operation's wall time plus the time counted twice while the serve
    pool's threads ran sibling spans at once; ``max_residual_s`` is the
    largest departure from that identity."""
    by_id = {span[0]: span for span in spans}
    children: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        children[span[4]].append(span)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    failed_s: dict[str, float] = defaultdict(float)
    failed_calls: dict[str, int] = defaultdict(int)
    op_self: dict[int, float] = defaultdict(float)
    op_overlap: dict[int, float] = defaultdict(float)
    op_wall: dict[int, float] = {}
    escaped = 0
    for span_id, name, start, end, parent, op, ok in spans:
        duration = end - start
        kids = [(kid[2], kid[3]) for kid in children.get(span_id, ())]
        covered = _covered(kids)
        own = duration - covered
        self_s[name] += own
        calls[name] += 1
        if not ok:
            failed_s[name] += duration
            failed_calls[name] += 1
        op_self[op] += own
        op_overlap[op] += sum(b - a for a, b in kids) - covered
        if name == OP:
            op_wall[op] = duration
        else:
            holder = by_id.get(parent)
            if holder is None or start < holder[2] or end > holder[3]:
                escaped += 1
    residual = max(
        (abs(op_self[op] - op_overlap[op] - wall) for op, wall in op_wall.items()),
        default=0.0,
    )
    return Attribution(
        self_s=dict(self_s),
        calls=dict(calls),
        failed_s=dict(failed_s),
        failed_calls=dict(failed_calls),
        max_residual_s=residual,
        escaped=escaped,
    )
