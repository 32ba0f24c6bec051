import collections
import dataclasses
import functools
import itertools
import json
import random
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from twuality import (
    BAR,
    BudgetError,
    FLIPS,
    ONE,
    PLUS,
    STAR,
    STAR_PLUS,
    Perm,
    SetSystem,
    StabilizerHit,
    TwualityElement,
    ValidationError,
    act,
    apply_flip,
    cycle_condition,
    loop_complement,
    normalize_rep,
    orbit,
    orbit_via_lift,
    parse_flip,
    parse_perm,
    sd_identity,
    delta_matroid_of,
    is_delta_matroid,
    is_vf_safe,
    stabilizer_search,
    transport,
    twist,
    uniformize,
)
from twuality.errors import quoted
from twuality.orbit_engine import _inverse_flip_level, _orbit_tries, _plain_change_list, _relabel_buckets
from twuality.set_system import (
    BITMAP_GROUND,
    _is_binary,
    _plain_changes,
    _swap_adjacent,
    fold_flip,
    loop_complement1,
    relabel,
    twist1,
)
from twuality.twuality_group import _INV, _flip_table

import ribbon_catalog as cat
from conftest import assert_frozen, assert_quoted_up_to_the_bound, set_systems
from oracles import (
    binary_table_oracle,
    burnside_class_count,
    burnside_orbit_count,
    normalize_rep_oracle,
    orbit_oracle,
    orbit_walk_oracle,
    stabilizer_oracle,
    transport_oracle,
)

ss = SetSystem.from_sets

D_CONE = ss(3, [(3,), (1, 3), (2, 3)])       # self-(*, +, +) via identity
D_FLAT = ss(3, [(), (1,), (2,)])             # self-(~, ~, ~) via identity
IOTA3 = Perm.identity(3)


def replay(D, path):
    """Apply an orbit witness path (generator tokens) to the seed."""
    for token in path:
        if token.startswith("("):
            D = act(TwualityElement((ONE,) * D.n, parse_perm(token, D.n)), D)
        else:
            flip = STAR if token[0] == "*" else PLUS
            D = apply_flip(D, flip, int(token[1:]))
    return D


class TestOrbit:
    def test_singleton_ground_iota(self):
        rep = orbit(ss(1, [()]), mode="iota")
        assert set(rep.elements) == {ss(1, [()]), ss(1, [(1,)]), ss(1, [(), (1,)])}
        assert rep.size == 3

    def test_empty_ground(self):
        D = ss(0, [()])
        assert orbit(D, mode="full").elements == (D,)

    @given(set_systems(max_n=3))
    @settings(max_examples=25)
    def test_full_contains_iota_and_relabel_closed(self, D):
        full = set(orbit(D, mode="full").elements)
        assert set(orbit(D, mode="iota").elements) <= full
        for E in full:
            for images in itertools.permutations(range(1, D.n + 1)):
                relabeled = act(TwualityElement((ONE,) * D.n, Perm(images)), E)
                assert relabeled in full

    @given(set_systems(max_n=3), st.sampled_from(["iota", "full"]))
    @settings(max_examples=25)
    def test_closure_seed_and_paths(self, D, mode):
        rep = orbit(D, mode=mode)
        members = set(rep.elements)
        assert D in members
        for E in rep.elements:
            assert replay(D, rep.paths[E]) == E
            for i in range(1, D.n + 1):
                assert apply_flip(E, STAR, i) in members
                assert apply_flip(E, PLUS, i) in members
            if mode == "full":
                for i in range(1, D.n):
                    swap = Perm(tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, D.n + 1)))
                    assert act(TwualityElement((ONE,) * D.n, swap), E) in members

    @given(set_systems(max_n=3), st.sampled_from(["iota", "full"]))
    @example(ss(4, [(), (1, 2), (1, 3), (2, 4), (1, 2, 3, 4)]), "iota")
    @example(ss(4, [(), (1, 2), (1, 3), (2, 4), (1, 2, 3, 4)]), "full")
    @example(ss(4, [(1,), (2, 3), (1, 2, 4)]), "full")
    def test_matches_oracle(self, D, mode):
        ours = json.dumps(orbit(D, mode=mode).to_json(), sort_keys=True)
        assert ours == json.dumps(orbit_oracle(D, mode), sort_keys=True)

    @given(set_systems(max_n=4), st.sampled_from(["iota", "full"]))
    @example(ss(0, [()]), "full")
    @example(SetSystem(2, []), "iota")
    @example(ss(3, [(1, 3)]), "full")
    @settings(max_examples=30, deadline=None)
    def test_canonical_json_is_dumps_of_to_json(self, D, mode):
        rep = orbit(D, mode=mode)
        expected = json.dumps(rep.to_json(), sort_keys=True, separators=(",", ":"))
        assert rep.canonical_json() == expected

    @pytest.mark.parametrize("mode", ["iota", "full"])
    @pytest.mark.parametrize("n", range(6))
    def test_canonical_json_is_dumps_on_seeded_orbits(self, n, mode, rng):
        """The one-join writer on seeded orbits of up to 5 elements, of one
        to four sets or none, whose iota orbit has at most 1,000 elements."""
        kept = 0
        while kept < 4:
            D = SetSystem(n, rng.sample(range(1 << n), rng.randint(0, min(1 << n, 4))))
            if orbit(D, mode="iota").size <= 1000:
                rep = orbit(D, mode=mode)
                assert rep.canonical_json() == json.dumps(rep.to_json(), sort_keys=True, separators=(",", ":"))
                kept += 1

    @pytest.mark.parametrize("mode", ["iota", "full"])
    @pytest.mark.parametrize("D", [D_CONE, ss(4, [(), (1, 2), (1, 3), (2, 4), (1, 2, 3, 4)])], ids=["3", "4"])
    def test_to_json_reads_no_order_form(self, D, mode):
        """``to_json`` decodes the families from the truth tables, so the
        order forms that ``canonical_json`` writes from can be scrambled
        without changing it."""
        rep = orbit(D, mode=mode)
        scrambled = dataclasses.replace(rep, forms=tuple(reversed(rep.forms)))
        assert scrambled.forms != rep.forms
        assert scrambled.to_json() == rep.to_json()
        assert scrambled.families == tuple(E.feasible_sets() for E in rep.elements)

    @pytest.mark.parametrize(
        "D, mode",
        [(SetSystem.from_table(n, t), mode) for n in (0, 1, 2) for t in range(1 << (1 << n))
         for mode in ("iota", "full")]
        + [(SetSystem(n), mode) for n in (3, 8, 9) for mode in ("iota", "full")]
        + [(ss(8, [(), (1,)]), "iota")],
        ids=lambda v: v if isinstance(v, str) else f"{v.n}-{v.table:x}",
    )
    def test_whole_orbit_text_is_dumps_of_to_json(self, D, mode):
        """The whole-orbit writer on tables narrower than a byte, on the
        empty family, and at 8 and 9 elements."""
        rep = orbit(D, mode=mode, max_n=D.n)
        expected = json.dumps(rep.to_json(), sort_keys=True, separators=(",", ":"))
        assert rep.canonical_json() == expected

    @pytest.mark.parametrize(
        "D, mode, size, bitmap",
        [
            (delta_matroid_of(cat.bouquet([1, -1, 1, 1, -1, 1, -1, 1], interleaved=True)),
             "full", 13_122, True),
            (ss(9, [()]), "iota", 19_683, False),
        ],
        ids=["bouquet8i-full", "empty9-iota"],
    )
    def test_canonical_json_on_both_sides_of_the_bitmap_ground(self, D, mode, size, bitmap):
        """Ground sizes up to ``BITMAP_GROUND`` write families from rank
        bitmaps, larger ones from rank lists."""
        assert (D.n <= BITMAP_GROUND) is bitmap
        rep = orbit(D, mode=mode)
        assert rep.size == size
        expected = json.dumps(rep.to_json(), sort_keys=True, separators=(",", ":"))
        assert rep.canonical_json() == expected
        assert dict(zip(rep.tables, rep.words)) == orbit_walk_oracle(D.table, D.n, mode)

    def test_deterministic(self):
        a = orbit(D_CONE, mode="full")
        b = orbit(D_CONE, mode="full")
        assert a.elements == b.elements
        assert [a.paths[e] for e in a.elements] == [b.paths[e] for e in b.elements]

    def test_budget(self):
        with pytest.raises(BudgetError, match=r"\(up to 6\^9·9! = 3,656,994,324,480 elements\)$"):
            orbit(SetSystem(9, [0]), mode="full")
        with pytest.raises(BudgetError, match=r"n <= 2, got 3 \(up to 6\^3 = 216 elements\)$"):
            orbit(ss(3, [()]), mode="iota", max_n=2)
        assert orbit(ss(3, [()]), mode="iota", max_n=3).size > 0

    def test_mode_validation(self):
        with pytest.raises(ValidationError):
            orbit(ss(1, [()]), mode="both")
        message = "orbit mode must be 'full' or 'iota', got {}"
        assert_quoted_up_to_the_bound(lambda mode: orbit(ss(1, [()]), mode=mode), "x" * 5000, message)


@pytest.mark.parametrize("value", [[], {}], ids=["list", "dict"])
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda mode: orbit(D_FLAT, mode=mode), "orbit mode must be 'full' or 'iota', got {}"),
        (lambda mode: stabilizer_search(D_FLAT, mode=mode), "stabilizer mode must be 'all' or 'uniform', got {}"),
        (lambda mode: orbit_via_lift(D_FLAT, mode=mode), "mode must be 'full' or 'iota', got {}"),
        (parse_flip, "unknown flip token {}"),
    ],
    ids=["orbit", "stabilizer_search", "orbit_via_lift", "parse_flip"],
)
def test_unhashable_selector_is_one_validation_error(call, message, value):
    """A mode or a flip token that is not a string, an unhashable one
    among them, is refused as a wrong string is, with the same message."""
    with pytest.raises(ValidationError) as refused:
        call(value)
    assert str(refused.value) == message.format(quoted(value))


class TestOrbitCensus:
    """``orbit`` as a partition of every family over [n]."""

    @pytest.mark.parametrize(
        "mode, counts", [("full", [2, 2, 3, 6, 30]), ("iota", [2, 2, 3, 8, 112])]
    )
    def test_orbit_counts(self, mode, counts):
        """The orbits of all ``2**(2**n)`` families for ``n <= 4``, each
        family in exactly one, against Burnside's count where it runs
        (full mode ``n <= 3``, iota mode ``n <= 4``)."""
        for n, expected in enumerate(counts):
            seen, found = set(), 0
            for table in range(1 << (1 << n)):
                if table not in seen:
                    tables = orbit(SetSystem.from_table(n, table), mode).tables
                    assert seen.isdisjoint(tables), (n, table)
                    seen.update(tables)
                    found += 1
            assert len(seen) == 1 << (1 << n)
            assert found == expected, (mode, n)
            if mode == "iota" or n <= 3:
                assert burnside_orbit_count(n, mode) == expected, (mode, n)

    @pytest.mark.parametrize(
        "mode, counts",
        [("full", [2, 2, 3, 6, 30, 6_936, 549_956_377_189]), ("iota", [2, 2, 3, 8, 112, 561_432])],
    )
    def test_burnside_class_counts(self, mode, counts):
        """Burnside's count over one element per conjugacy class, pinned
        past the sizes a partition can reach, and equal to the sum over
        every group element where that runs."""
        for n, expected in enumerate(counts):
            assert burnside_class_count(n, mode) == expected, (mode, n)
            if n <= (3 if mode == "full" else 4):
                assert burnside_orbit_count(n, mode) == expected, (mode, n)

    def test_vf_safe_census(self):
        """``is_vf_safe`` on every family over [n], n <= 4, so every
        non-binary delta-matroid there walks the closure.  The vf-safe
        families, and the binary ones, are unions of full-mode orbits.  In
        each orbit as many elements have a uniform stabilizer ``(u^n, p)``
        for ``u = *`` as for ``+`` and for ``~`` (the three involutions are
        conjugate in S3); the rows are ``(size, binary, count)``."""
        safe_counts, binary_counts = [], []
        for n in range(5):
            safe = {t for t in range(1, 1 << (1 << n)) if is_vf_safe(SetSystem.from_table(n, t))}
            safe_counts.append(len(safe))
            binary_counts.append(sum(_is_binary(t, n) for t in safe))
            rows = []
            while safe:
                tables = orbit(SetSystem.from_table(n, min(safe)), "full").tables
                assert safe.issuperset(tables), n
                safe.difference_update(tables)
                binary = {_is_binary(t, n) for t in tables}
                assert len(binary) == 1, n
                uniform = collections.Counter()
                for t in tables:
                    hits = stabilizer_search(SetSystem.from_table(n, t), "uniform")
                    uniform.update({hit.uniform for hit in hits})
                assert uniform[STAR] == uniform[PLUS] == uniform[BAR], (n, len(tables))
                rows.append((len(tables), *binary, uniform[STAR]))
            if n == 3:
                assert sorted(rows) == [(12, False, 4), (27, True, 7), (54, True, 0), (54, True, 12)]
            if n == 4:
                assert sorted(rows) == [
                    (24, False, 14), (81, True, 19), (108, True, 54), (144, False, 16), (162, True, 38),
                    (324, True, 72), (648, False, 104), (648, False, 108), (648, True, 0), (972, True, 168),
                ]
        assert safe_counts == [1, 3, 15, 147, 3_759]
        assert binary_counts == [1, 3, 15, 135, 2_295]

    def test_binary_orbits_at_four_are_ribbon_graphic(self):
        """The binary delta-matroids on 4 elements, the twists of ``D(A)``
        over every symmetric 4x4 GF(2) matrix, fall into six full orbits,
        and each holds the ``D(G)`` of a pinned 4-edge ribbon graph: the
        bouquet and the interleaved bouquet with all signs ``+``, and four
        of the first 27 draws of ``random_ribbon(Random(0), 4)``."""
        cells = list(itertools.combinations_with_replacement(range(4), 2))
        binary = set()
        for bits in range(1 << len(cells)):
            A = [[0] * 4 for _ in range(4)]
            for k, (i, j) in enumerate(cells):
                A[i][j] = A[j][i] = bits >> k & 1
            table = binary_table_oracle(A)
            binary.update(fold_flip(twist1, table, 4, X) for X in range(16))
        assert len(binary) == 2_295
        rng = random.Random(0)
        draws = [cat.random_ribbon(rng, 4) for _ in range(27)]
        fixtures = {
            81: cat.bouquet([1] * 4),
            108: draws[26],
            162: cat.bouquet([1] * 4, interleaved=True),
            324: draws[1],
            648: draws[4],
            972: draws[0],
        }
        seen = set()
        for size, G in fixtures.items():
            assert G.n == 4
            tables = orbit(delta_matroid_of(G), "full").tables
            assert len(tables) == size
            assert seen.isdisjoint(tables)
            seen.update(tables)
        assert seen == binary


def _generator_tokens(n, mode):
    """The tokens of the orbit generators in the walk's order."""
    flips = [f"{kind}{k}" for k in range(1, n + 1) for kind in "*+"]
    return flips + ([f"({k} {k + 1})" for k in range(1, n)] if mode == "full" else [])


def _sampled_table(rng, n, free):
    """A random family on ``free`` of the ``n`` elements, times one of
    ``{∅}``, ``{{e}}`` and ``{∅, {e}}`` at each other element ``e``,
    relabeled at random: the other elements add at most a factor ``3``
    each to the orbit of a ``free``-element family."""
    density = rng.random()
    table = sum(1 << X for X in range(1 << free) if rng.random() < density)
    for k in range(free, n):
        lo, hi = [(table, 0), (0, table), (table, table)][rng.randrange(3)]
        table = lo | hi << (1 << k)
    return relabel(table, n, rng.sample(range(1, n + 1), n))


def _walk_cases():
    """``(mode, n, table)``: per ground size the empty family, ``{∅}``, the
    full family and four sampled ones, with orbits under 10,000 elements."""
    rng = random.Random(16)
    cases = []
    for mode, top, free in (("full", 5, 4), ("iota", 6, 5)):
        for n in range(top + 1):
            tables = [0, 1, (1 << (1 << n)) - 1]
            tables += [_sampled_table(rng, n, n if n <= free else 3) for _ in range(4)]
            cases += [(mode, n, t) for t in dict.fromkeys(tables)]
    return cases


_WALK_CASES = _walk_cases()


class TestOrbitWalk:
    """The walk that tries only the generators left open after the last
    one of each word, against the walk that tries them all."""

    @pytest.mark.parametrize("mode, n, table", _WALK_CASES, ids=lambda v: str(v))
    def test_matches_unpruned_walk(self, mode, n, table):
        rep = orbit(SetSystem.from_table(n, table), mode=mode)
        assert dict(zip(rep.tables, rep.words)) == orbit_walk_oracle(table, n, mode)

    def test_cases_include_non_delta_matroids(self):
        systems = [SetSystem.from_table(n, t) for _, n, t in _WALK_CASES]
        assert sum(not is_delta_matroid(D).valid for D in systems) >= 20

    @pytest.mark.parametrize(
        "D",
        [
            delta_matroid_of(cat.path_graph([1, -1, 1, 1, -1, 1, -1])),
            delta_matroid_of(cat.bouquet([1, -1, 1, 1, -1, 1, -1])),
            delta_matroid_of(cat.theta([1, -1, 1, 1, -1, 1])),
            ss(8, [()]),
        ],
        ids=["path7", "bouquet7", "theta6", "empty8"],
    )
    def test_matches_unpruned_walk_on_larger_ground(self, D):
        rep = orbit(D, mode="full")
        assert dict(zip(rep.tables, rep.words)) == orbit_walk_oracle(D.table, D.n, "full")

    @given(set_systems(max_n=3), st.sampled_from(["iota", "full"]))
    @example(ss(4, [(1,), (2, 3), (1, 2, 4)]), "full")
    @example(ss(4, [(), (1, 2), (1, 3), (2, 4), (1, 2, 3, 4)]), "iota")
    def test_no_neighbour_has_a_greater_word(self, D, mode):
        """The invariant the skipped tries rest on: ``word(g.E)`` is no
        greater than ``word(E) + (g,)``, by length and then generator
        order."""
        order = {token: i for i, token in enumerate(_generator_tokens(D.n, mode))}

        def key(word):
            return len(word), [order[token] for token in word]

        paths = orbit(D, mode=mode).paths
        for E, word in paths.items():
            for token in order:
                assert key(paths[replay(E, (token,))]) <= key(word + (token,))

    @pytest.mark.parametrize("mode", ["iota", "full"])
    @pytest.mark.parametrize("n", range(9))
    def test_each_try_steps_by_its_generator(self, n, mode, rng):
        """Each ``_orbit_tries`` entry, stepped as ``orbit`` steps it, is
        the twist, loop complementation or adjacent relabeling its token
        names, and its index is its place in the seed's list."""
        tries = _orbit_tries(n, mode)
        assert [entry[4] for entry in tries[-1]] == list(range(len(tries[-1])))
        assert {entry for entries in tries for entry in entries} == set(tries[-1])
        full = (1 << (1 << n)) - 1
        tables = [0, full] + [rng.getrandbits(1 << n) for _ in range(20)]
        for swap, mask, shift, token, _ in tries[-1]:
            name = token[2:-1]
            if name[0] == "(":
                expected = functools.partial(_swap_adjacent, n=n, k=int(name[1:].split()[0]) - 1)
            else:
                flip = twist1 if name[0] == "*" else loop_complement1
                expected = functools.partial(flip, n=n, k=int(name[1:]) - 1)
            for s in tables:
                if swap:
                    d = ((s >> shift) ^ s) & mask
                    t = s ^ d ^ (d << shift)
                else:
                    t = s ^ ((s & mask) << shift)
                assert t == expected(s), (token, s)

    def test_try_lists_at_three_elements(self):
        tries = [[entry[3][2:-1] for entry in entries] for entries in _orbit_tries(3, "full")]
        assert tries[-1] == _generator_tokens(3, "full")  # the seed tries all 8
        assert tries[6] == ["(2 3)"] and tries[7] == ["(1 2)"]
        assert tries[0] == ["+1", "*2", "+2", "*3", "+3", "(1 2)", "(2 3)"]
        assert tries[3] == ["*2", "*3", "+3", "(1 2)", "(2 3)"]
        assert [[e[3][2:-1] for e in entries] for entries in _orbit_tries(2, "iota")] == [
            ["+1", "*2", "+2"], ["*1", "*2", "+2"], ["+2"], ["*2"], ["*1", "+1", "*2", "+2"]
        ]


class TestStabilizerSearch:
    def test_worked_example_hit(self):
        hits = stabilizer_search(D_CONE, mode="all")
        wanted = TwualityElement((STAR, PLUS, PLUS), IOTA3)
        assert any(h.element == wanted for h in hits)

    def test_uniform_hit_after_conjugation(self):
        hits = stabilizer_search(D_FLAT, mode="uniform")
        wanted = TwualityElement((BAR, BAR, BAR), IOTA3)
        assert any(h.element == wanted and h.uniform is BAR for h in hits)

    def test_twist_symmetric_pair(self):
        hits = stabilizer_search(ss(2, [(1,), (2,)]), mode="uniform")
        wanted = TwualityElement((STAR, STAR), Perm.identity(2))
        assert any(h.element == wanted for h in hits)

    @given(set_systems(max_n=3))
    @settings(max_examples=20)
    def test_hits_verified_and_identity_excluded(self, D):
        for h in stabilizer_search(D, mode="all"):
            assert act(h.element, D) == D
            assert any(f is not ONE for f in h.element.gvec)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValidationError, match="^stabilizer mode must be 'all' or 'uniform', got 'iota'$"):
            stabilizer_search(D_FLAT, mode="iota")
        message = "stabilizer mode must be 'all' or 'uniform', got {}"
        assert_quoted_up_to_the_bound(lambda mode: stabilizer_search(D_FLAT, mode=mode), "x" * 5000, message)

    def test_hit_is_a_frozen_flat_value(self):
        hits = stabilizer_search(D_FLAT, mode="all")
        for h in (hits[0], next(h for h in hits if h.uniform is not None)):
            assert_frozen(h, "gvec", "perm", "uniform")
            twin = StabilizerHit(tuple(h.gvec), Perm(h.perm.images), h.uniform)
            assert twin == h and hash(twin) == hash(h)
            assert h.element == TwualityElement(h.gvec, h.perm)
            assert h != StabilizerHit(h.gvec, h.perm, None if h.uniform else STAR)
        assert len(set(hits)) == len(hits)

    @pytest.mark.parametrize(
        "D", [ss(6, [()]), delta_matroid_of(cat.bouquet([1, -1] * 3, interleaved=True))]
    )
    def test_sampled_hits_at_six_elements_fix_the_system(self, D, rng):
        hits = stabilizer_search(D, mode="all", max_n=6)
        assert hits
        for h in rng.sample(hits, min(len(hits), 300)):
            assert act(h.element, D) == D

    def test_budget(self):
        with pytest.raises(BudgetError, match=r"\(6\^6·6! = 33,592,320 group elements\)$"):
            stabilizer_search(SetSystem(6, [0]), mode="all")
        with pytest.raises(BudgetError, match=r"\(5·9! = 1,814,400 group elements\)$"):
            stabilizer_search(SetSystem(9, [0]), mode="uniform")

    @given(set_systems(max_n=3), st.sampled_from(["all", "uniform"]))
    @settings(max_examples=40)
    def test_matches_oracle(self, D, mode):
        hits = [h.to_json() for h in stabilizer_search(D, mode=mode)]
        assert hits == [h.to_json() for h in stabilizer_oracle(D, mode)]

    @pytest.mark.parametrize("key", ["bouquet4-pmpm", "bouquet4i-pmpm"])
    @pytest.mark.parametrize("mode", ["all", "uniform"])
    def test_matches_oracle_on_quasi_tree_systems(self, key, mode):
        D = delta_matroid_of(cat.named_fixtures()[key])
        hits = [h.to_json() for h in stabilizer_search(D, mode=mode)]
        assert hits == [h.to_json() for h in stabilizer_oracle(D, mode)]

    @pytest.mark.parametrize(
        "D",
        [SetSystem(0, []), ss(0, [()]), SetSystem(1, []), ss(1, [()]), ss(1, [(1,)]), ss(1, [(), (1,)])],
    )
    @pytest.mark.parametrize("mode", ["all", "uniform"])
    def test_matches_oracle_on_ground_sizes_0_and_1(self, D, mode):
        hits = [h.to_json() for h in stabilizer_search(D, mode=mode)]
        assert hits == [h.to_json() for h in stabilizer_oracle(D, mode)]

    def test_matches_oracle_at_the_all_cap(self):
        D = ss(5, [()])  # 3,720 hits
        hits = [h.to_json() for h in stabilizer_search(D, mode="all")]
        assert len(hits) == 3720
        assert hits == [h.to_json() for h in stabilizer_oracle(D, "all")]

    @pytest.mark.parametrize(
        "D",
        [
            ss(6, [()]),
            ss(7, [()]),
            delta_matroid_of(cat.bouquet([1] * 6)),
            delta_matroid_of(cat.bouquet([1, -1] * 3, interleaved=True)),
            delta_matroid_of(cat.bouquet([1] * 7)),
        ],
        ids=["empty6", "empty7", "bouquet6", "bouquet6i-pm", "bouquet7"],
    )
    def test_matches_oracle_uniform_on_6_and_7_elements(self, D):
        hits = [h.to_json() for h in stabilizer_search(D, mode="uniform")]
        assert hits
        assert hits == [h.to_json() for h in stabilizer_oracle(D, "uniform")]

    def test_inverse_flip_slots_follow_the_inverses(self):
        """The slot pairs ``_inverse_flip_level`` writes per flip, in
        ``FLIPS`` order, are those that ``_flip_table`` reads off ``_INV``
        for the flip's inverse."""
        slots = ["abc"[i - 1] + "abc"[j - 1] for i, j, _ in (_INV[g.inverse().index].perm for g in FLIPS)]
        assert slots == ["ab", "ba", "ac", "bc", "ca", "cb"]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_inverse_flip_level_matches_flip_table(self, n, rng):
        full = (1 << (1 << n)) - 1
        tables = [0, full, 1, full ^ 1] + [rng.getrandbits(1 << n) for _ in range(12)]
        for k in range(n):
            expected = [_flip_table(t, n, k, g.inverse()) for t in tables for g in FLIPS]
            assert _inverse_flip_level(tables, n, k) == expected

    @pytest.mark.parametrize("n", range(9))
    def test_plain_change_list_is_cached_plain_changes(self, n):
        assert list(_plain_change_list(n)) == list(_plain_changes(n))
        assert _plain_change_list(n) is _plain_change_list(n)

    @pytest.mark.parametrize("n", range(8))
    def test_relabel_buckets_match_permutations(self, n, rng):
        for table in (1, (1 << (1 << n)) - 1, rng.getrandbits(1 << n), rng.getrandbits(1 << n)):
            expected = {}
            for images in itertools.permutations(range(1, n + 1)):
                expected.setdefault(relabel(table, n, images), []).append(images)
            assert {t: sorted(b) for t, b in _relabel_buckets(table, n).items()} == expected


class TestTransport:
    def test_worked_example(self):
        stab = TwualityElement((STAR, PLUS, PLUS), IOTA3)
        move = TwualityElement((PLUS, STAR, STAR), IOTA3)
        moved, stab_p = transport(D_CONE, stab, move)
        assert moved == D_FLAT
        assert stab_p == TwualityElement((BAR, BAR, BAR), IOTA3)

    def test_identity_move(self):
        stab = TwualityElement((STAR, PLUS, PLUS), IOTA3)
        moved, stab_p = transport(D_CONE, stab, sd_identity(3))
        assert moved == D_CONE and stab_p == stab

    def test_rejects_non_stabilizer(self):
        with pytest.raises(ValidationError):
            transport(D_CONE, TwualityElement((STAR, STAR, STAR), IOTA3), sd_identity(3))

    def test_random_instances_and_commuting_square(self, rng):
        pairs = [
            (D, h.element)
            for D in (D_CONE, D_FLAT, ss(2, [(1,), (2,)]), ss(1, [()]), ss(1, [(), (1,)]))
            for h in stabilizer_search(D, mode="all")
        ]
        assert pairs
        for _ in range(60):
            D, stab = pairs[rng.randrange(len(pairs))]
            n = D.n
            move = TwualityElement(
                tuple(rng.choice(FLIPS) for _ in range(n)), Perm(rng.sample(range(1, n + 1), n))
            )
            moved, stab_p = transport(D, stab, move)
            assert act(stab_p, moved) == moved
            assert act(stab_p, act(move, D)) == act(move, act(stab, D))

    def test_equals_entry_by_entry_oracle(self):
        """The conjugate ``move * stab * move.inverse()`` against the flip
        vector written entry by entry, for seeded stabilizers of seeded
        systems on 2-4 elements and seeded random moves."""
        rng = random.Random(28)
        pairs = []
        while len(pairs) < 40:
            n = rng.randint(2, 4)
            D = SetSystem(n, rng.sample(range(1 << n), rng.randint(1, 1 << n)))
            hits = stabilizer_search(D, mode="all")
            pairs += [(D, h.element) for h in rng.sample(hits, min(len(hits), 3))]
        for D, stab in pairs:
            for _ in range(3):
                move = TwualityElement(
                    tuple(rng.choice(FLIPS) for _ in range(D.n)), Perm(rng.sample(range(1, D.n + 1), D.n))
                )
                assert transport(D, stab, move) == transport_oracle(D, stab, move)

    def test_rejects_mis_sized_move(self):
        stab = TwualityElement((STAR, PLUS, PLUS), IOTA3)
        with pytest.raises(ValidationError, match=r"element acts on \[2\] but system has ground \[3\]"):
            transport(D_CONE, stab, sd_identity(2))


class TestCycleCondition:
    def test_fixed_point_cycles(self):
        assert cycle_condition((STAR, PLUS, PLUS), IOTA3, BAR)

    def test_uniform_always_passes(self, rng):
        for _ in range(40):
            n = rng.randint(1, 5)
            g = rng.choice(FLIPS[1:])
            mu = Perm(rng.sample(range(1, n + 1), n))
            assert cycle_condition((g,) * n, mu, g)

    def test_order_mismatch(self):
        # product over the 2-cycle is (*+) then *, i.e. the involution ~,
        # while the target square is the identity
        assert not cycle_condition((STAR, STAR_PLUS), Perm((2, 1)), STAR)

    def test_rejects_identity_target(self):
        with pytest.raises(ValidationError):
            cycle_condition((STAR,), Perm.identity(1), ONE)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="^flip vector and permutation must have equal length$"):
            cycle_condition((STAR, PLUS), Perm.identity(3), BAR)


class TestUniformize:
    def test_worked_example(self):
        res = uniformize(D_CONE, (STAR, PLUS, PLUS), IOTA3, BAR)
        assert res.target == D_FLAT
        assert res.hvec == (PLUS, STAR, STAR)
        assert act(TwualityElement(res.hvec, IOTA3), D_CONE) == res.target
        assert act(TwualityElement((BAR,) * 3, IOTA3), res.target) == res.target

    def test_uniform_input_is_fixed_point(self, rng):
        D = D_FLAT
        for _ in range(10):
            mu_hits = [
                h.element.perm
                for h in stabilizer_search(D, mode="uniform")
                if h.uniform is BAR
            ]
            mu = mu_hits[rng.randrange(len(mu_hits))]
            res = uniformize(D, (BAR, BAR, BAR), mu, BAR)
            assert res.hvec == (ONE, ONE, ONE)
            assert res.target == D

    def test_refuses_order_violation(self):
        with pytest.raises(ValidationError):
            uniformize(D_CONE, (STAR, PLUS, PLUS), IOTA3, STAR_PLUS)

    def test_refuses_non_stabilizer(self):
        with pytest.raises(ValidationError):
            uniformize(D_CONE, (PLUS, PLUS, PLUS), IOTA3, BAR)

    def test_random_round_trip(self, rng):
        seeds = []
        for D in (D_FLAT, ss(2, [(1,), (2,)]), ss(1, [(), (1,)])):
            for h in stabilizer_search(D, mode="uniform"):
                seeds.append((D, h.element, h.uniform))
        assert seeds
        for _ in range(50):
            D, stab, g = seeds[rng.randrange(len(seeds))]
            n = D.n
            move = TwualityElement(
                tuple(rng.choice(FLIPS) for _ in range(n)), Perm(rng.sample(range(1, n + 1), n))
            )
            moved, stab_p = transport(D, stab, move)
            assert cycle_condition(stab_p.gvec, stab_p.perm, g)
            res = uniformize(moved, stab_p.gvec, stab_p.perm, g)
            uniform = TwualityElement((g,) * n, stab_p.perm)
            assert act(uniform, res.target) == res.target


class TestOrderEquivalenceSmallScale:
    def test_uniform_existence_matches_cycle_condition(self, rng):
        """Over a pseudo-random sample of two-element systems, a uniform
        stabilizer for (g, mu) exists in the orbit iff some orbit member
        has a stabilizer with permutation part mu passing the cycle order
        condition."""
        samples = []
        while len(samples) < 12:
            masks = rng.sample(range(4), rng.randint(1, 4))
            D = SetSystem(2, masks)
            if D not in samples:
                samples.append(D)
        all_perms = [Perm((1, 2)), Perm((2, 1))]
        for S in samples:
            members = orbit(S, mode="full").elements
            for g in FLIPS[1:]:
                for mu in all_perms:
                    uniform_exists = any(
                        act(TwualityElement((g, g), mu), E) == E for E in members
                    )
                    conditioned_exists = any(
                        act(TwualityElement(gv, mu), E) == E
                        and cycle_condition(gv, mu, g)
                        for E in members
                        for gv in itertools.product(FLIPS, repeat=2)
                    )
                    assert uniform_exists == conditioned_exists, (S, g.token, mu)


class TestNormalizeRep:
    def test_worked_recipe(self):
        rep = normalize_rep(D_CONE)
        assert rep == ss(3, [(), (1, 2)])
        assert rep.is_normal
        assert not any(rep.has_mask(1 << i) for i in range(3))

    def test_already_normal_fixed_point(self):
        D = ss(2, [(), (1, 2)])
        assert normalize_rep(D) == D

    def test_rejects_unsafe(self):
        bad = ss(3, [s for r in range(3) for s in itertools.combinations((1, 2, 3), r)])
        with pytest.raises(ValidationError):
            normalize_rep(bad)

    def test_orientable_over_catalog(self, vf_cache):
        from twuality import is_vf_safe

        catalog = [
            D_CONE,
            D_FLAT,
            ss(2, [(1,), (2,)]),
            ss(1, [()]),
            ss(1, [(), (1,)]),
            ss(2, [(), (1,), (2,), (1, 2)]),
        ]
        for D in catalog:
            assert is_vf_safe(D, cache=vf_cache)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = normalize_rep(D)
            assert rep in set(orbit(D, mode="full").elements)

    def test_matches_oracle_on_every_vf_safe_family(self):
        """Every vf-safe family over [n], n <= 4 (the unsafe ones are
        refused): the twist by the least set gives the oracle's
        representative, and the oracle, which classifies every element of
        it, warns on none: each is an orientable ribbon loop, as
        ``normalize_rep``'s docstring proves."""
        safe = 0
        for n in range(5):
            for table in range(1 << (1 << n)):
                D = SetSystem.from_table(n, table)
                try:
                    rep = normalize_rep(D)
                except ValidationError:
                    continue
                safe += 1
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert normalize_rep_oracle(D) == rep, D
        assert safe == 3_925
