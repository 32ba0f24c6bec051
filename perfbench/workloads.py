"""The benchmark's three workloads, built from a seed.

A workload is a pool of ``POOL_ROUNDS[name]`` rounds.  Every round holds
the same query mix (a fixed count of each query kind), filled with fresh
instances, so that every run measures the same mix whatever its seed.  The
timed loop is one client running the rounds in order, in whole rounds,
each query sent only when the previous one returned.  A pool holds at
least 100 queries and takes about 20 s on the reference host, so a
30-second run ends with the pool: every run then times the same
instances, and its 90th percentile does not depend on how many rounds
the host's speed let it finish.

The work is held steady in two ways.  Each graph's flip-orbit bound
(``gen.orbit_bound``) lies in a window per query kind: the orbit and
vf-safety engines are linear in the orbit size, and an unbounded random 6-
or 7-edge graph costs anything from 0.05 s to a minute.  And the graphs
themselves are drawn from a fixed shapes seed, while ``--seed`` moves every
input by a random group element or relabeling, which changes the bytes of
every input and output but not the work: a translate has the same orbit,
and a relabeled graph is the same surface.  Random graphs of one size
differ up to tenfold in cost, so drawing them from ``--seed`` would make
each seed measure different work.  The failing inputs and the order of
the ≤3-edge catalog do come from ``--seed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import twuality
import twuality.cli
from twuality import SetSystem

from . import checks, gen

POOL_ROUNDS = {"orbit-cli": 5, "vf-check-cli": 8, "medial-lift-batch": 5}
CATALOG_CHUNK = 32


class QueryError(Exception):
    """A query ended in a non-zero exit code or an exception."""


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass
class Query:
    """One query.  Library calls go through the ``twuality`` namespace at
    call time, so that the tracer's wrappers see them."""

    qid: str
    kind: str
    call: Callable[[dict], object]  # timed; takes the run state
    render: Callable[[object], str]  # untimed; canonical JSON text
    check: Callable[[str], str | None]  # untimed; output text -> failure or None


def _cli_call(argv):
    def call(state):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = twuality.cli.main(argv)
        if code != 0:
            raise QueryError(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return call


def _cli_query(qid, kind, argv, check):
    return Query(qid, kind, _cli_call(argv), lambda text: text, check)


def _lib_query(qid, kind, call, check):
    return Query(qid, kind, call, lambda payload: canonical(payload) + "\n", check)


class _Pool:
    """Writes input files and makes queries for one workload."""

    def __init__(self, rng: random.Random, shapes: random.Random, workdir: Path, catalog=(), counts=None):
        self.rng = rng  # from --seed: group elements, relabelings, failing inputs
        self.shapes = shapes  # fixed: which graphs, so every seed does the same work
        self.workdir = workdir
        self.counts = counts  # recorded feasible-set count of each ribbon dm query
        self.catalog = list(catalog)  # graphs handed out in chunks, in order
        self.catalog_next = 0

    def write(self, qid: str, payload: dict) -> str:
        path = self.workdir / f"{qid}.json"
        path.write_text(canonical(payload), encoding="utf-8")
        return str(path)

    def graph(self, edges: int, bounds: tuple[int, int]):
        return gen.relabel(self.rng, gen.sample_graph(self.shapes, edges, bounds))

    def system(self, edges: int, bounds: tuple[int, int], move=gen.translate) -> SetSystem:
        return move(self.rng, gen.quasi_tree_system(gen.sample_graph(self.shapes, edges, bounds)))


def _flag_check(delta: bool, vf: bool, fam):
    def check(text):
        data = json.loads(text)
        if data["delta_matroid"] is not delta or data["vf_safe"] is not vf:
            return f"check reported delta={data['delta_matroid']} vf={data['vf_safe']}"
        if not delta:
            return checks.exchange_witness(fam, data["witness"])
        return None if data["witness"] is None else "valid system has a witness"

    return check


# ---------------------------------------------------------------------------
# orbit-cli


def _orbit_query(b: _Pool, qid, kind, D: SetSystem, iota: bool):
    seed = D.to_json()
    argv = ["orbit", b.write(qid, seed)] + (["--iota"] if iota else [])
    return _cli_query(qid, kind, argv, lambda text: checks.orbit_report(seed, json.loads(text)))


def _selftwual_query(b: _Pool, qid, kind, D: SetSystem, uniform: bool):
    seed = D.to_json()
    argv = ["selftwual", b.write(qid, seed)] + (["--uniform-only"] if uniform else [])
    return _cli_query(qid, kind, argv, lambda text: checks.stabilizer_hits(seed, json.loads(text)))


def _symmetric(b: _Pool, shape, n: int) -> SetSystem:
    return gen.translate(b.rng, gen.quasi_tree_system(shape(gen.random_signs(b.shapes, n))))


def _stab_system(b: _Pool, edges: int, bounds) -> SetSystem:
    # a relabeling only: the stabilizer search acts by every group element,
    # so a relabeled system costs the same, while a twisted one does not
    return b.system(edges, bounds, move=gen.relabel_system)


# Each mix is (kind, queries per round, maker); bounds are windows on
# gen.orbit_bound.  Query costs fall in clusters, and a percentile at the
# edge between two clusters swings with the extreme instance of each; so in
# orbit-cli and medial-lift-batch the heaviest cluster makes up about 15% of
# a round, which puts the 90th percentile inside it.
#
# orbit-cli: the flip-orbit BFS (orbit_engine and the single flips of
# set_system), canonical JSON emission, and act under selftwual.  Larger
# sizes are left out: orbit full on a random 6-element system prints 140 MB,
# and selftwual --uniform-only at n=7 takes 1.7-3.7 s a query.
ORBIT_CLI = (
    ("orbit-iota-5", 6, lambda b, q, k: _orbit_query(b, q, k, b.system(5, (1944, 3888)), True)),
    ("orbit-iota-6", 2, lambda b, q, k: _orbit_query(b, q, k, b.system(6, (2916, 5832)), True)),
    ("orbit-full-4", 3, lambda b, q, k: _orbit_query(b, q, k, b.system(4, (648, 1296)), False)),
    ("orbit-full-5", 1, lambda b, q, k: _orbit_query(b, q, k, b.system(5, (1944, 1944)), False)),
    ("orbit-full-theta6", 1, lambda b, q, k: _orbit_query(b, q, k, _symmetric(b, gen.theta, 6), False)),
    ("orbit-full-path7", 1, lambda b, q, k: _orbit_query(b, q, k, _symmetric(b, gen.path_graph, 7), False)),
    ("orbit-full-bouquet7", 1, lambda b, q, k: _orbit_query(b, q, k, _symmetric(b, gen.bouquet, 7), False)),
    ("selftwual-3", 2, lambda b, q, k: _selftwual_query(b, q, k, _stab_system(b, 3, (108, 216)), False)),
    ("selftwual-4", 2, lambda b, q, k: _selftwual_query(b, q, k, _stab_system(b, 4, (648, 1296)), False)),
    (
        "selftwual-uniform-5",
        1,
        lambda b, q, k: _selftwual_query(b, q, k, _stab_system(b, 5, (3888, 7776)), True),
    ),
    (
        "selftwual-uniform-6",
        1,
        lambda b, q, k: _selftwual_query(b, q, k, _stab_system(b, 6, (11664, 46656)), True),
    ),
)


# ---------------------------------------------------------------------------
# vf-check-cli


def _check_query(b: _Pool, qid, kind, D: SetSystem, delta: bool, vf: bool):
    argv = ["check", b.write(qid, D.to_json())]
    return _cli_query(qid, kind, argv, _flag_check(delta, vf, D.mask_set()))


def _dm_query(b: _Pool, qid, kind, G):
    """``ribbon dm``, checked without the package: the family must satisfy
    symmetric exchange and have as many feasible sets as recorded for this
    query id.  The graphs come from the fixed shapes seed, so the count
    does not depend on ``--seed``; ``b.counts`` is None while recording."""
    argv = ["ribbon", "dm", b.write(qid, G.to_json())]

    def check(text):
        n, fam = checks.family(json.loads(text))
        if n != G.n:
            return f"ribbon dm has {n} elements, the graph {G.n} edges"
        if b.counts is not None and b.counts.get(qid) != len(fam):
            return f"ribbon dm has {len(fam)} feasible sets, recorded {b.counts.get(qid)}"
        return checks.exchange_failure(fam)

    return _cli_query(qid, kind, argv, check)


def _lift_query(b: _Pool, qid, kind, D: SetSystem):
    argv = ["lift", b.write(qid, D.to_json())]
    fam = D.mask_set()
    return _cli_query(qid, kind, argv, lambda text: checks.lift_extracts_to(fam, json.loads(text)))


def _interleaved(b: _Pool, n: int):
    return gen.relabel(b.rng, gen.bouquet(gen.random_signs(b.shapes, n), interleaved=True))


def _pendant7(b: _Pool) -> SetSystem:
    """A random 4-edge rotation system beside a 3-edge path of bridges."""
    G = gen.disjoint_union(
        gen.sample_graph(b.shapes, 4, (324, 324)), gen.path_graph(gen.random_signs(b.shapes, 3))
    )
    return gen.translate(b.rng, gen.quasi_tree_system(G))


# vf-check-cli: the vf-safety closure and its exchange check, with no
# cache, as a CLI user runs them; 4 of 19 inputs fail early (no exchange,
# or not vf-safe).  A random 7-edge graph takes 3-55 s in the closure, so
# the 7-edge input is a bounded 4-edge graph beside a 3-edge path.
VF_CHECK_CLI = (
    ("check-qt-5", 3, lambda b, q, k: _check_query(b, q, k, b.system(5, (1944, 3888)), True, True)),
    ("check-qt-6", 1, lambda b, q, k: _check_query(b, q, k, b.system(6, (2916, 5832)), True, True)),
    ("check-qt-7", 1, lambda b, q, k: _check_query(b, q, k, _pendant7(b), True, True)),
    (
        "check-bouquet-5",
        1,
        lambda b, q, k: _check_query(
            b, q, k, gen.translate(b.rng, gen.quasi_tree_system(_interleaved(b, 5))), True, True
        ),
    ),
    ("check-not-delta", 2, lambda b, q, k: _check_query(b, q, k, gen.not_delta(b.rng, 6), False, False)),
    ("check-not-vf", 2, lambda b, q, k: _check_query(b, q, k, gen.not_vf_safe(b.rng, 6), True, False)),
    ("dm-5", 3, lambda b, q, k: _dm_query(b, q, k, b.graph(5, (1944, 3888)))),
    ("dm-6", 1, lambda b, q, k: _dm_query(b, q, k, b.graph(6, (2916, 5832)))),
    ("dm-bouquet-5", 1, lambda b, q, k: _dm_query(b, q, k, _interleaved(b, 5))),
    ("dm-bouquet-6", 1, lambda b, q, k: _dm_query(b, q, k, _interleaved(b, 6))),
    ("lift-5", 2, lambda b, q, k: _lift_query(b, q, k, b.system(5, (1944, 3888)))),
    ("lift-6", 1, lambda b, q, k: _lift_query(b, q, k, b.system(6, (2916, 5832)))),
)


# ---------------------------------------------------------------------------
# medial-lift-batch


def _vml_query(qid, kind, graphs):
    def call(state):
        return [twuality.verify_medial_lift(G, vf_cache=state["vf_cache"]).to_json() for G in graphs]

    def check(text):
        bad = sum(1 for report in json.loads(text) if not report["equal"])
        return f"{bad} medial/lift mismatches" if bad else None

    return _lib_query(qid, kind, call, check)


def _ovl_query(qid, kind, D: SetSystem, mode: str):
    def call(state):
        elements = twuality.orbit_via_lift(D, mode=mode, vf_cache=state["vf_cache"])
        return [d.to_json() for d in elements]

    def check(text):
        expected = canonical([d.to_json() for d in twuality.orbit(D, mode).elements]) + "\n"
        return None if text == expected else f"orbit_via_lift({mode}) != orbit({mode})"

    return _lib_query(qid, kind, call, check)


def _mm_query(qid, kind, D: SetSystem):
    def call(state):
        Z = twuality.lift(D, vf_cache=state["vf_cache"])
        return [list(twuality.is_multimatroid(Z)), list(twuality.is_tight(Z))]

    def check(text):
        return None if json.loads(text) == [[True, None], [True, None]] else "lift is not a tight multimatroid"

    return _lib_query(qid, kind, call, check)


def _catalog_chunk(b: _Pool, q, k):
    start = b.catalog_next
    b.catalog_next += CATALOG_CHUNK
    graphs = [b.catalog[i % len(b.catalog)] for i in range(start, start + CATALOG_CHUNK)]
    return _vml_query(q, k, graphs)


# medial-lift-batch: library calls sharing one vf cache, as the acceptance
# suite makes them; the transition matroids of medials (ribbon) and lift
# extraction (multimatroid).  A catalog query verifies 32 catalog graphs.
MEDIAL_LIFT_BATCH = (
    ("vml-catalog", 10, _catalog_chunk),
    ("vml-random-4", 2, lambda b, q, k: _vml_query(q, k, [b.graph(4, (648, 1296))])),
    ("vml-random-5", 2, lambda b, q, k: _vml_query(q, k, [b.graph(5, (1944, 3888))])),
    ("ovl-iota-4", 1, lambda b, q, k: _ovl_query(q, k, b.system(4, (648, 1296)), "iota")),
    ("ovl-iota-5", 2, lambda b, q, k: _ovl_query(q, k, b.system(5, (1944, 3888)), "iota")),
    ("ovl-full-3", 2, lambda b, q, k: _ovl_query(q, k, b.system(3, (108, 216)), "full")),
    ("ovl-full-4", 1, lambda b, q, k: _ovl_query(q, k, b.system(4, (648, 1296)), "full")),
    ("mm-4", 2, lambda b, q, k: _mm_query(q, k, b.system(4, (648, 1296)))),
    ("mm-5", 1, lambda b, q, k: _mm_query(q, k, b.system(5, (1944, 3888)))),
)

SLOTS = {
    "orbit-cli": ORBIT_CLI,
    "vf-check-cli": VF_CHECK_CLI,
    "medial-lift-batch": MEDIAL_LIFT_BATCH,
}


@dataclass
class Workload:
    name: str
    rounds: list[list[Query]]

    @staticmethod
    def new_state() -> dict:
        """Per-pass state: the shared vf-safety verdict cache."""
        return {"vf_cache": {}}


def build(name: str, seed: int, workdir: Path, rounds: int | None = None, counts=None) -> Workload:
    """Generate the pool (or its first ``rounds`` rounds) and write its input files.
    ``counts`` maps each ``ribbon dm`` query id to its recorded number of
    feasible sets; None skips that check, for recording."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}/{seed}")
    catalog = []
    if name == "medial-lift-batch":
        catalog = list(gen.catalog())
        rng.shuffle(catalog)
    b = _Pool(rng, random.Random(f"{name}/shapes"), workdir, catalog, counts)
    pool = []
    for r in range(POOL_ROUNDS[name] if rounds is None else rounds):
        queries = []
        for kind, count, make in SLOTS[name]:
            for j in range(count):
                queries.append(make(b, f"r{r}.{kind}.{j}", kind))
        pool.append(queries)
    return Workload(name, pool)


def warmup(name: str, workdir: Path) -> list[Query]:
    """One small query per command the workload uses, for the warm-up."""
    b = _Pool(None, None, workdir)  # the warm-up draws nothing at random
    D = gen.quasi_tree_system(gen.bouquet([1, -1], interleaved=True))
    if name == "orbit-cli":
        return [
            _orbit_query(b, "w.orbit-iota", "warmup", D, True),
            _orbit_query(b, "w.orbit-full", "warmup", D, False),
            _selftwual_query(b, "w.selftwual", "warmup", D, False),
            _selftwual_query(b, "w.selftwual-uniform", "warmup", D, True),
        ]
    if name == "vf-check-cli":
        return [
            _check_query(b, "w.check", "warmup", D, True, True),
            _dm_query(b, "w.dm", "warmup", gen.bouquet([1, -1], interleaved=True)),
            _lift_query(b, "w.lift", "warmup", D),
        ]
    return [
        _vml_query("w.vml", "warmup", [gen.bouquet([1, -1], interleaved=True)]),
        _ovl_query("w.ovl", "warmup", D, "full"),
        _mm_query("w.mm", "warmup", D),
    ]
