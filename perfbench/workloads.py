"""The benchmark's three workloads, built only on the public surface.

Each workload has a ``setup(seed)`` (dataset generation, oracle
answers, partition memo, warm-up) and a ``run_pass(state, run_op)``
that performs one fixed, seed-determined set of operations and returns
a :class:`PassResult`.  Answers are checked after the timed pass
against :class:`repro.core.reference.ReferenceEngine`, row multiset by
row multiset.

* ``figure8b`` — closed loop, one client: MG1-MG4 x the four paper
  engines on BSBM ``2m``, read-only graph.
* ``shard-recovery`` — closed loop, one client: MG1-MG4 x the NTGA
  engines at 4 ``min-edge-cut`` shards under a seeded task-crash plan
  with checkpointed recovery.
* ``serve-live-chem`` — open loop on the simulated clock: seeded
  dashboard sessions (bursts of 4 distinct chem queries) into one
  ``QueryService``, with seeded assay-record writes between epochs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro import IRI, EngineConfig, Literal, Triple, make_engine
from repro.bench.catalog import get_query
from repro.core.engines import PAPER_ENGINES, to_analytical
from repro.core.reference import ReferenceEngine
from repro.datasets import bsbm, chem2bio2rdf
from repro.mapreduce.checkpoint import RecoveryPolicy
from repro.mapreduce.cost import ClusterConfig
from repro.mapreduce.faults import FaultPlan
from repro.perf import rows_digest
from repro.serve.service import OK, QueryService, ServeRequest, ServiceConfig

RunOp = Callable[..., object]

MG_BSBM = ("MG1", "MG2", "MG3", "MG4")
SHARD_ENGINES = ("rapid-plus", "rapid-analytics")
CHEM_QUERIES = ("MG6", "MG7", "MG8", "G8", "MG9", "MG10")

#: serve-live-chem shape: epochs x sessions, 4 distinct queries per
#: session, mean simulated gap between sessions, assay records written
#: after every epoch but the last.
EPOCHS = 5
SESSIONS_PER_EPOCH = 12
QUERIES_PER_SESSION = 4
MEAN_GAP_S = 60.0
WRITES_PER_EPOCH = 6

#: shard-recovery fault plan: per-attempt task crash rate, attempts per
#: task, workflow resubmission budget.
CRASH_RATE = 0.05
CRASH_ATTEMPTS = 2
RESUBMISSION_BUDGET = 16

_CHEM = "http://chem2bio2rdf.example.org/vocabulary/"
_CHEM_INST = "http://chem2bio2rdf.example.org/instances/"



def volumes(all_stats) -> dict[str, float]:
    """Simulated volumes and recovery counters summed over
    ``WorkflowStats`` objects."""
    all_stats = list(all_stats)
    recovered = [stats.recovery for stats in all_stats if stats.recovery is not None]
    return {
        "mapreduce.cycles": sum(stats.cycles for stats in all_stats),
        "mapreduce.shuffle_bytes": sum(stats.total_shuffle_bytes for stats in all_stats),
        "mapreduce.materialized_bytes": sum(
            stats.total_materialized_bytes for stats in all_stats
        ),
        "shard.exchange_bytes": sum(stats.total_exchange_bytes for stats in all_stats),
        "recovery.resubmissions": sum(r.resubmissions for r in recovered),
        "recovery.jobs_skipped": sum(r.jobs_skipped for r in recovered),
        "recovery.wasted_sim_s": math.fsum(r.wasted_seconds for r in recovered),
    }


def bsbm_engine_config(**overrides) -> EngineConfig:
    """The paper's BSBM environment (the values of
    ``repro.bench.harness.bsbm_config()``): a 10-node cluster whose VP
    tables are too big to map-join."""
    return EngineConfig(
        cluster=ClusterConfig(nodes=10, block_size=64 * 1024),
        mapjoin_threshold=512,
        **overrides,
    )


def chem_engine_config(**overrides) -> EngineConfig:
    """The Chem2Bio2RDF environment (``chem_config()``): small VP tables,
    so Hive map-joins fire."""
    return EngineConfig(
        cluster=ClusterConfig(nodes=10, block_size=64 * 1024),
        mapjoin_threshold=64 * 1024,
        **overrides,
    )


def rng_for(workload: str, seed: int) -> random.Random:
    # A str seed is hashed with SHA-512, not hash(): PYTHONHASHSEED-proof.
    return random.Random(f"{workload}:{seed}")


def multiset(rows) -> Counter:
    return Counter(frozenset(row.items()) for row in rows)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _exact(x: float) -> str:
    """Bit-exact rendering of a simulated float for comparisons."""
    return float.hex(float(x))


@dataclass
class PassResult:
    """One pass's measurements and checks."""

    wall_s: float = 0.0
    #: Operations completed (engine executions or served requests).
    completed: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Wall time of each timed call, in seconds (exec_p50_ms samples).
    call_walls: list[float] = field(default_factory=list)
    #: Deterministic simulated figures; bit-identical on every pass.
    sim: dict[str, object] = field(default_factory=dict)
    #: Served rows per (query, epoch) for the solo-digest check.
    served: dict[tuple[str, int], list] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Closed loop: figure8b and shard-recovery
# ---------------------------------------------------------------------------


@dataclass
class ClosedState:
    graph: object
    queries: dict[str, object]
    oracle: dict[str, Counter]
    order: list[tuple[str, str]]
    config: EngineConfig


def _bsbm_setup(workload: str, seed: int, engines, config: EngineConfig, warm) -> ClosedState:
    graph = bsbm.generate(bsbm.preset("2m"))
    queries = {qid: to_analytical(get_query(qid).sparql) for qid in MG_BSBM}
    oracle = {
        qid: multiset(ReferenceEngine().execute(query, graph).rows)
        for qid, query in queries.items()
    }
    order = [(qid, engine) for qid in MG_BSBM for engine in engines]
    rng_for(workload, seed).shuffle(order)
    # Warm-up: one execution per engine family fills the graph-version
    # keyed layout caches (VP tables, triplegroup stores, partitions).
    for engine in warm:
        make_engine(engine).execute(queries["MG2"], graph, config)
    return ClosedState(graph, queries, oracle, order, config)


def figure8b_setup(seed: int) -> ClosedState:
    return _bsbm_setup(
        "figure8b", seed, PAPER_ENGINES, bsbm_engine_config(), ("hive-mqo", "rapid-analytics")
    )


def shard_recovery_setup(seed: int) -> ClosedState:
    fault_seed = rng_for("shard-recovery", seed).randrange(2**31)
    config = bsbm_engine_config(
        shards=4,
        partitioner="min-edge-cut",
        fault_plan=FaultPlan(
            seed=fault_seed, task_failure_rate=CRASH_RATE, max_attempts=CRASH_ATTEMPTS
        ),
        recovery=RecoveryPolicy(max_resubmissions=RESUBMISSION_BUDGET),
    )
    state = _bsbm_setup("shard-recovery", seed, SHARD_ENGINES, config, ())
    # Warm-up fault-free so the partition memo and the triplegroup store
    # are built without drawing from the fault plan.
    make_engine("rapid-analytics").execute(
        state.queries["MG2"],
        state.graph,
        bsbm_engine_config(shards=4, partitioner="min-edge-cut"),
    )
    return state


def closed_pass(state: ClosedState, run_op: RunOp) -> PassResult:
    result = PassResult()
    reports: dict[tuple[str, str], object] = {}
    errors: dict[tuple[str, str], str] = {}
    start = time.perf_counter()
    for qid, engine in state.order:
        call_start = time.perf_counter()
        try:
            reports[qid, engine] = run_op(
                make_engine(engine).execute, state.queries[qid], state.graph, state.config
            )
        except Exception as error:  # noqa: BLE001 - counted, reported, run goes on
            errors[qid, engine] = f"{type(error).__name__}: {error}"
        result.call_walls.append(time.perf_counter() - call_start)
    result.wall_s = time.perf_counter() - start

    result.attempted = len(state.order)
    sim_ops: dict[str, object] = {}
    completed = []
    for key in sorted(state.order):
        qid, engine = key
        label = f"{qid}/{engine}"
        if key in errors:
            result.failures.append(f"{label}: {errors[key]}")
            sim_ops[label] = errors[key]
            continue
        report = reports[key]
        completed.append(report)
        if multiset(report.rows) != state.oracle[qid]:
            result.failures.append(f"{label}: rows differ from the oracle")
        else:
            result.completed += 1
        recovery = report.stats.recovery
        sim_ops[label] = [
            _exact(report.cost_seconds),
            rows_digest(report.rows),
            report.stats.counters.as_dict(),
            recovery.as_dict() if recovery is not None else None,
        ]
    result.sim = {
        "sim_cost_s": math.fsum(report.cost_seconds for report in completed),
        **volumes(report.stats for report in completed),
        "ops_digest": _digest(sim_ops),
    }
    return result


# ---------------------------------------------------------------------------
# Open loop on the simulated clock: serve-live-chem
# ---------------------------------------------------------------------------


@dataclass
class Session:
    arrival: float
    qids: tuple[str, ...]


@dataclass
class ServeState:
    texts: dict[str, str]
    epochs: list[list[Session]]
    writes: list[list[Triple]]
    oracle: dict[tuple[str, int], Counter]
    versions: list[int]
    config: ServiceConfig
    queries: dict[str, object]


def _assay_batch(rng: random.Random, epoch: int, config) -> list[Triple]:
    """New ``chem:CID/outcome/Score/gi`` assay records."""
    triples = []
    for index in range(WRITES_PER_EPOCH):
        assay = IRI(f"{_CHEM_INST}bench-assay-{epoch}-{index}")
        triples += [
            Triple(assay, IRI(f"{_CHEM}CID"), IRI(f"{_CHEM_INST}cid{rng.randrange(config.compounds)}")),
            Triple(assay, IRI(f"{_CHEM}outcome"), Literal(rng.choice(("active", "inactive")))),
            Triple(assay, IRI(f"{_CHEM}Score"), Literal.from_python(rng.randint(1, 100))),
            Triple(assay, IRI(f"{_CHEM}gi"), IRI(f"{_CHEM_INST}gi{rng.randrange(config.proteins)}")),
        ]
    return triples


def serve_graph():
    return chem2bio2rdf.generate(chem2bio2rdf.preset("paper"))


def serve_setup(seed: int) -> ServeState:
    graph = serve_graph()
    rng = rng_for("serve-live-chem", seed)
    clock = 0.0
    epochs: list[list[Session]] = []
    for _ in range(EPOCHS):
        sessions = []
        for _ in range(SESSIONS_PER_EPOCH):
            clock += rng.expovariate(1.0 / MEAN_GAP_S)
            sessions.append(Session(clock, tuple(rng.sample(CHEM_QUERIES, QUERIES_PER_SESSION))))
        epochs.append(sessions)
    preset = chem2bio2rdf.preset("paper")
    writes = [_assay_batch(rng, epoch, preset) for epoch in range(EPOCHS - 1)]
    texts = {qid: get_query(qid).sparql for qid in CHEM_QUERIES}
    queries = {qid: to_analytical(text) for qid, text in texts.items()}
    config = ServiceConfig(
        engine="rapid-analytics",
        engine_config=chem_engine_config(planner="cost"),
        workers=2,
    )
    # Warm-up: serve the first session once on a throwaway service.
    QueryService(graph, config).serve(
        [ServeRequest(text=texts[qid]) for qid in epochs[0][0].qids]
    )
    oracle: dict[tuple[str, int], Counter] = {}
    versions = []
    for epoch in range(EPOCHS):
        versions.append(graph.version)
        for qid, query in queries.items():
            oracle[qid, epoch] = multiset(ReferenceEngine().execute(query, graph).rows)
        if epoch < len(writes):
            for triple in writes[epoch]:
                graph.add(triple)
    return ServeState(texts, epochs, writes, oracle, versions, config, queries)


def _write(graph, triples: list[Triple]) -> None:
    for triple in triples:
        graph.add(triple)


def serve_pass(state: ServeState, run_op: RunOp) -> PassResult:
    result = PassResult()
    graph = serve_graph()  # fresh graph per pass, outside the timed window
    service = QueryService(graph, state.config)
    outcomes: list[tuple[int, int, list]] = []
    start = time.perf_counter()
    for epoch, sessions in enumerate(state.epochs):
        version = graph.version
        for session in sessions:
            requests = [
                ServeRequest(text=state.texts[qid], arrival=session.arrival, label=qid)
                for qid in session.qids
            ]
            call_start = time.perf_counter()
            responses = run_op(service.serve, requests)
            result.call_walls.append(time.perf_counter() - call_start)
            outcomes.append((epoch, version, responses))
        if epoch < len(state.writes):
            run_op(_write, graph, state.writes[epoch])
    result.wall_s = time.perf_counter() - start

    latencies: list[float] = []
    waits: list[float] = []
    rendered = []
    for epoch, version, responses in outcomes:
        if version != state.versions[epoch]:
            result.failures.append(
                f"epoch {epoch}: graph version {version} != set-up {state.versions[epoch]}"
            )
        for response in responses:
            result.attempted += 1
            label = f"{response.label}@epoch{epoch}/v{version}"
            rendered.append(
                [
                    response.status,
                    response.source,
                    _exact(response.latency or 0.0),
                    _exact(response.started or 0.0),
                ]
            )
            if response.started is not None:
                waits.append(response.started - response.arrival)
            if response.status != OK:
                result.failures.append(f"{label}: {response.status} {response.error}")
                continue
            latencies.append(response.latency)
            if multiset(response.rows) != state.oracle[response.label, epoch]:
                result.failures.append(f"{label}: rows differ from the oracle")
                continue
            result.completed += 1
            result.served.setdefault((response.label, epoch), response.rows)
    counters = service.counter_snapshot()
    result.sim = {
        "sim_cost_s": service.executed_cost_seconds,
        "serve_sim_p50_s": percentile(latencies, 0.50) if latencies else 0.0,
        "serve_sim_p95_s": percentile(latencies, 0.95) if latencies else 0.0,
        "serve_sim_samples": len(latencies),
        "serve.queue_wait_sim_p95_s": percentile(waits, 0.95) if waits else 0.0,
        "serve.units_solo": counters["units_solo"],
        "serve.units_batch": counters["units_batch"],
        "serve.batch_merges": counters["batch_merges"],
        "serve.rejected": counters["rejected"],
        "serve.result_cache_hit_ratio": counters["result_cache_hit_ratio"],
        "serve.plan_cache_hit_ratio": counters["plan_cache_hit_ratio"],
        "responses_digest": _digest(rendered),
        "counters_digest": _digest(counters),
    }
    return result


def solo_digest_check(state: ServeState, served: dict[tuple[str, int], list]) -> list[str]:
    """Replay the writes and compare every served answer's
    ``rows_digest`` to a solo execution at the same graph version."""
    failures = []
    graph = serve_graph()
    engine_config = state.config.engine_config
    for epoch in range(EPOCHS):
        for qid in CHEM_QUERIES:
            rows = served.get((qid, epoch))
            if rows is None:
                continue
            solo = make_engine(state.config.engine).execute(
                state.queries[qid], graph, engine_config
            )
            if rows_digest(rows) != rows_digest(solo.rows):
                failures.append(
                    f"{qid}@epoch{epoch}/v{graph.version}: served rows differ from a solo run"
                )
        if epoch < len(state.writes):
            _write(graph, state.writes[epoch])
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], object]
    run_pass: Callable[[object, RunOp], PassResult]
    #: What one completed operation is, for the report.
    unit: str


WORKLOADS = {
    "figure8b": Workload("figure8b", figure8b_setup, closed_pass, "execution"),
    "serve-live-chem": Workload("serve-live-chem", serve_setup, serve_pass, "request"),
    "shard-recovery": Workload("shard-recovery", shard_recovery_setup, closed_pass, "execution"),
}
