"""Answers and simulated figures do not depend on where terms live.

Terms are hash-consed, so they hash by identity: set and hash-table
orders follow allocation addresses.  This suite runs MG1-MG4 on BSBM
``tiny`` through the four paper engines and one 4-shard
``min-edge-cut`` run in two fresh interpreters under the same hash
seed.  One of them first interns every dataset term in reverse order,
so its terms sit at different addresses and iterate in different set
orders.  Row digests, counters, per-job figures and the exact cost
floats must still match byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

_CHILD = r"""
import gc
import json
import sys
from dataclasses import replace

from repro.bench.catalog import get_query
from repro.bench.harness import bsbm_config
from repro.core.engines import PAPER_ENGINES, make_engine, to_analytical
from repro.datasets import bsbm
from repro.perf.goldens import report_signature

keep = []
if sys.argv[1] == "reversed":
    graph = bsbm.generate(bsbm.preset("tiny"))
    terms = dict.fromkeys(term for triple in graph for term in triple)
    specs = [term.__reduce__() for term in terms]
    del graph, terms
    gc.collect()
    for index, (cls, args) in enumerate(reversed(specs)):
        keep.append(cls(*args))
        keep.append(bytearray(16 * (index % 5)))  # vary the spacing too

graph = bsbm.generate(bsbm.preset("tiny"))
config = bsbm_config()
runs = []
for qid in ("MG1", "MG2", "MG3", "MG4"):
    query = to_analytical(get_query(qid).sparql)
    arms = [(engine, config) for engine in PAPER_ENGINES]
    arms.append(("rapid-analytics", replace(config, shards=4, partitioner="min-edge-cut")))
    for engine, arm_config in arms:
        report = make_engine(engine).execute(query, graph, arm_config)
        signature = report_signature(report)
        signature["cost_hex"] = float.hex(report.cost_seconds)
        runs.append({"qid": qid, "engine": engine, "shards": arm_config.shards, **signature})
subjects = list(dict.fromkeys(triple.subject for triple in graph))
json.dump({"runs": runs, "set_order": [str(s) for s in set(subjects)]}, sys.stdout, sort_keys=True)
"""


def _run(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, mode],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return json.loads(done.stdout)


def test_figures_independent_of_term_allocation_order():
    plain = _run("plain")
    reversed_ = _run("reversed")
    # The premise: the two interpreters really do iterate term sets in
    # different orders.
    assert plain["set_order"] != reversed_["set_order"]
    assert len(plain["runs"]) == 4 * 5
    for left, right in zip(plain["runs"], reversed_["runs"]):
        label = f"{left['qid']}/{left['engine']}/shards={left['shards']}"
        assert left["rows"] > 0, label
        assert left == right, label
