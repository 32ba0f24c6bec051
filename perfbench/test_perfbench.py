"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import json
import time

import pytest

from perfbench import checks, run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generators_are_deterministic_per_seed(name, tmp_path):
    workloads, _ = run._import_fresh()

    def inputs(seed, sub):
        workdir = tmp_path / sub
        wl = workloads.build(name, seed, workdir, rounds=2)
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        return [q.qid for r in wl.rounds for q in r], files

    ids_a, files_a = inputs(7, "a")
    ids_b, files_b = inputs(7, "b")
    assert ids_a == ids_b
    assert files_a == files_b
    if files_a:  # the library workload writes no input files
        assert inputs(8, "c")[1] != files_a


def test_restore_leaves_every_patched_attribute_identical():
    _, tracing = run._import_fresh()
    before = tracing.patched_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = tracing.patched_attributes()
    finally:
        tracer.restore()
    after = tracing.patched_attributes()
    patched = {key for key in before if during[key] is not before[key]}
    assert ("twuality.cli", "main") in patched
    assert ("twuality.orbit_engine", "twist1") in patched  # an imported name
    assert ("twuality", "orbit") in patched  # the package namespace
    assert ("SetSystem", "to_json") in patched
    assert all(after[key] is before[key] for key in before)


def _run(*argv) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    info, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    return info, result


@pytest.fixture(autouse=True)
def _small_runs(monkeypatch):
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)  # one round per pass


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_seed_finishes_in_seconds_with_every_metric(name):
    start = time.perf_counter()
    info, result = _run("--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", "0")
    assert time.perf_counter() - start < 60
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert info["error_rate"] == 0.0


def test_traced_run_prints_every_layer_metric():
    info, result = _run("--workload", "medial-lift-batch", "--seed", "3", "--seconds", "0.2", "--trace", "1")
    assert result["correct"], result
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["ribbon.split_components.calls"]["value"] > 0
    assert info["module_self_share"]


def test_golden_seed_checks_digests(tmp_path):
    _, result = _run("--workload", "vf-check-cli", "--seed", str(run.GOLDEN_SEED), "--seconds", "0.2")
    assert result["correct"] and result["failed"] == 0
    workloads, _ = run._import_fresh()
    wl = workloads.build("vf-check-cli", run.GOLDEN_SEED, tmp_path, rounds=1)
    wrong = {q.qid: "0" * 64 for q in wl.rounds[0]}
    p = run.run_pass(wl, wrong, deadline=0.0, min_rounds=1)
    assert len(p.failures) == len(wl.rounds[0])


def test_ribbon_dm_check_catches_a_wrong_family(tmp_path):
    workloads, _ = run._import_fresh()
    counts = run.load_golden("vf-check-cli")["feasible_counts"]
    wl = workloads.build("vf-check-cli", 5, tmp_path, rounds=1, counts=counts)
    q = next(q for q in wl.rounds[0] if q.kind == "dm-6")
    data = json.loads(q.render(q.call(wl.new_state())))
    assert q.check(json.dumps(data)) is None
    fewer = dict(data, feasible=data["feasible"][1:])
    assert "recorded" in q.check(json.dumps(fewer))
    unrecorded = workloads.build("vf-check-cli", 5, tmp_path, rounds=1, counts={})
    assert "recorded" in next(u for u in unrecorded.rounds[0] if u.qid == q.qid).check(json.dumps(data))


def test_plain_exchange_check():
    assert checks.exchange_failure(frozenset({0b000, 0b111})) is not None
    assert checks.exchange_failure(frozenset({0b00, 0b01, 0b11})) is None
