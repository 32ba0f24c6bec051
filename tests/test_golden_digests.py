"""Replay of the benchmark's golden pools: every query of each workload's
pool at the golden seed, run in order on one state, must print the bytes
whose sha256 digest the benchmark recorded and pass its invariant check."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run, workloads  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_pool_outputs_match_recorded_digests(name, tmp_path):
    recorded = json.loads((run.BENCH / "golden" / f"{name}.json").read_text(encoding="utf-8"))
    assert recorded["seed"] == run.GOLDEN_SEED
    wl = workloads.build(name, run.GOLDEN_SEED, tmp_path, counts=recorded["feasible_counts"])
    queries = [q for r in wl.rounds for q in r]
    assert sorted(q.qid for q in queries) == sorted(recorded["digests"])
    state = wl.new_state()
    for q in queries:
        text = q.render(q.call(state))
        assert hashlib.sha256(text.encode()).hexdigest() == recorded["digests"][q.qid], q.qid
        assert q.check(text) is None, q.qid
