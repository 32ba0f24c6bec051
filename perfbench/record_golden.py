"""Record each query's output digest at the golden seed, and the number of
feasible sets each ``ribbon dm`` query prints.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Run it from the root of a source checkout, only when the outputs are meant
to change; the benchmark then holds later versions to these bytes.  Each
query must pass its invariant check before its digest is recorded.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402


def record(name: str) -> None:
    _, _, wl, _ = run.setup(name, run.GOLDEN_SEED, None)
    state, digests, counts = wl.new_state(), {}, {}
    for q in (q for r in wl.rounds for q in r):
        text = q.render(q.call(state))
        failure = q.check(text)
        if failure:
            raise SystemExit(f"{name}: not recording, {q.qid} failed: {failure}")
        digests[q.qid] = hashlib.sha256(text.encode()).hexdigest()
        if q.kind.startswith("dm-"):
            counts[q.qid] = len(json.loads(text)["feasible"])
    path = run.BENCH / "golden" / f"{name}.json"
    data = {"seed": run.GOLDEN_SEED, "digests": digests, "feasible_counts": counts}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{name}: {len(digests)} digests, {len(counts)} feasible-set counts")


if __name__ == "__main__":
    for workload in sys.argv[1:] or run.WORKLOADS:
        record(workload)
