"""Time the canonical-order and report layers of orbits and stabilizers,
and the lift route, on seeded systems.

For each ground size n = 3..8 and each orbit mode (``iota``, ``full``)
it draws seeded systems, runs ``orbit`` on them and keeps the tables each
orbit hands to ``set_system._canonical_order``, in the BFS order the walk
found them, and the report.  It then prints, per n and mode, the best of
``--repeat`` timings of ``_canonical_order`` over those tables, of
``_systems_text`` over the forms it returns and of the reports'
``OrbitReport.canonical_json``.  At n = 9 and 10, above
``BITMAP_GROUND``, it also times the first two with ``BITMAP_GROUND``
raised to 10, so that the bitmap route runs there, against the rank-list
route that serves them.  Then it times ``stabilizer_search`` over the same
systems, in ``all`` mode up to its cap (n = 5) and in ``uniform`` mode up
to 8.  Last come the lift route's layers: ``_orbit_via_lift_tables`` and
``SetSystem.to_json`` over the sorted elements on the quasi-tree systems
of seeded ribbon graphs, moved by a random group element (full mode at
n = 3 and 4, iota mode at n = 3..5), and ``verify_medial_lift`` over the
benchmark's catalog of ribbon graphs with at most 3 edges::

    python tests/time_canonical_order.py [--src DIR] [--seed S] [--repeat R]

``--src`` is the ``src`` directory to import ``twuality`` from (default:
this checkout's), so the same pools can be timed on another checkout.  It
needs only the standard library, and takes one to two minutes, so the suite
does not run it (no ``test_`` prefix).  Times are process CPU seconds
scaled to the benchmark's reference host speed, as ``perfbench/run.py``
scales its queries: ``calibrate``, its fixed pure-Python loop, runs before
the first timing and after each, and a timing is multiplied by
``REF_CAL_S`` over the mean of the loops on either side of it.  So runs on
a host whose speed drifts can be compared.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: per n, how many orbits of each mode to keep, and the largest orbit kept
POOLS = {3: (40, 10**9), 4: (10, 1296), 5: (6, 3888), 6: (3, 5832), 7: (2, 10**9), 8: (2, 10**9), 9: (2, 10**9), 10: (1, 10**9)}
#: seeded systems per mode and n in the lift route's rows
LIFT_SYSTEMS = 8


def orbit_tables(twuality, D, mode: str) -> tuple[list[int], object]:
    """The tables ``orbit(D, mode)`` sorts, in the order it passes them,
    and the report."""
    engine, seen = twuality.orbit_engine, []
    order = engine._canonical_order

    def record(tables, n):
        seen.append(list(tables))
        return order(seen[-1], n)

    engine._canonical_order = record
    try:
        report = twuality.orbit(D, mode, max_n=10)
    finally:
        engine._canonical_order = order
    return seen[0], report


def pool(twuality, n: int, mode: str, seed: int) -> list[tuple[list[int], object]]:
    """Seeded orbits over [n], each as its tables and its report.  Up to 6
    elements, of random systems of one to three sets whose orbit has at
    most the pool's size; above, of a random single set or pair ``{X, X ^
    {i}}`` (orbits of ``3**n`` elements)."""
    count, largest = POOLS[n]
    rng = random.Random(f"{seed}/{n}/{mode}")
    out = []
    while len(out) < count:
        if n <= 6:
            masks = rng.sample(range(1 << n), rng.randint(1, 3))
        else:
            x = rng.randrange(1 << n)
            masks = [x, x ^ 1 << rng.randrange(n)][:rng.randint(1, 2)]
        tables, report = orbit_tables(twuality, twuality.SetSystem(n, masks), mode)
        if len(tables) <= largest:
            out.append((tables, report))
    return out


def best(run, repeat: int) -> float:
    """The least host-normalized CPU time of ``repeat`` calls of ``run``:
    each call's time scaled by ``REF_CAL_S`` over the mean of the
    calibration loops before and after it."""
    from perfbench.run import REF_CAL_S, calibrate

    times = []
    cal = calibrate()
    for _ in range(repeat):
        start = time.process_time()
        run()
        spent = time.process_time() - start
        before, cal = cal, calibrate()
        times.append(spent * 2 * REF_CAL_S / (before + cal))
    return min(times)


def layer_times(set_system, orbits: list[list[int]], n: int, repeat: int) -> tuple[float, float]:
    """Best times of ``_canonical_order`` and ``_systems_text`` over ``orbits``."""
    forms = [set_system._canonical_order(tables, n)[1] for tables in orbits]
    order = best(lambda: [set_system._canonical_order(tables, n) for tables in orbits], repeat)
    text = best(lambda: [set_system._systems_text(f, n) for f in forms], repeat)
    return order, text


def lift_route_times(twuality, seed: int, repeat: int) -> None:
    """Print the lift route's rows: per mode and n, ``_orbit_via_lift_tables``
    and ``to_json`` over the sorted elements, on ``LIFT_SYSTEMS`` seeded
    systems; then ``verify_medial_lift`` over the benchmark's catalog."""
    from perfbench import gen

    multimatroid, cache = twuality.multimatroid, {}
    tables = multimatroid._orbit_via_lift_tables
    for mode, sizes in (("full", (3, 4)), ("iota", (3, 4, 5))):
        for n in sizes:
            rng = random.Random(f"{seed}/lift/{n}/{mode}")
            systems = [gen.translate(rng, gen.quasi_tree_system(gen.random_ribbon(rng, n))) for _ in range(LIFT_SYSTEMS)]
            elements = [multimatroid.orbit_via_lift(D, mode=mode, vf_cache=cache) for D in systems]
            walk = best(lambda: [tables(D, None, None, mode, None, cache) for D in systems], repeat)
            written = best(lambda: [[d.to_json() for d in orbit] for orbit in elements], repeat)
            label = f"n={n:<2} {mode:<4} systems={len(systems):<2} elements={sum(map(len, elements)):>6,}"
            print(f"{label}  _orbit_via_lift_tables {walk * 1e3:8.2f}  to_json {written * 1e3:8.2f}")
    catalog = list(gen.catalog())
    verify = twuality.verify_medial_lift
    took = best(lambda: [verify(G, vf_cache=cache) for G in catalog], repeat)
    print(f"catalog graphs={len(catalog):,}  verify_medial_lift {took * 1e3:8.2f}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import twuality
    from twuality import set_system

    # imported after twuality: the perfbench package puts this checkout's
    # src first on sys.path, which must not shadow --src
    sys.path.insert(1, str(ROOT))
    print(f"twuality from {args.src}, seed {args.seed}, best of {args.repeat}, "
          "ms of CPU time at the benchmark's reference host speed")
    systems = {}
    for n in range(3, 11):
        for mode in ("iota", "full"):
            entries = pool(twuality, n, mode, args.seed)
            orbits = [tables for tables, _ in entries]
            reports = [report for _, report in entries]
            systems.setdefault(n, []).extend(report.seed for report in reports)
            label = f"n={n:<2} {mode:<4} orbits={len(orbits):<2} elements={sum(map(len, orbits)):>6,}"
            written = best(lambda: [report.canonical_json() for report in reports], args.repeat)
            if n <= set_system.BITMAP_GROUND:
                order, text = layer_times(set_system, orbits, n, args.repeat)
                print(f"{label}  order {order * 1e3:8.2f}  text {text * 1e3:8.2f}  canonical_json {written * 1e3:8.2f}")
                continue
            ranks = layer_times(set_system, orbits, n, args.repeat)
            ground, set_system.BITMAP_GROUND = set_system.BITMAP_GROUND, 10
            try:
                bitmaps = layer_times(set_system, orbits, n, args.repeat)
            finally:
                set_system.BITMAP_GROUND = ground
            print(f"{label}  order {ranks[0] * 1e3:8.2f}  text {ranks[1] * 1e3:8.2f}  canonical_json {written * 1e3:8.2f}"
                  f"  (rank lists)  bitmap route: order {bitmaps[0] * 1e3:8.2f}  text {bitmaps[1] * 1e3:8.2f}")
    search = twuality.orbit_engine.stabilizer_search
    for n, seeds in sorted(systems.items()):
        for mode in ("all", "uniform"):
            if n <= twuality.orbit_engine.STABILIZER_CAPS[mode]:
                took = best(lambda: [search(D, mode) for D in seeds], args.repeat)
                print(f"n={n:<2} stabilizer_search {mode:<7} systems={len(seeds):<2}  {took * 1e3:8.2f}")
    lift_route_times(twuality, args.seed, args.repeat)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
