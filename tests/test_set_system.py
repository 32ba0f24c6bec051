import itertools
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from twuality import (
    BAR,
    FLIPS,
    ONE,
    PLUS,
    STAR,
    SetSystem,
    ValidationError,
    BudgetError,
    apply_flip,
    dual_twist,
    is_delta_matroid,
    is_vf_safe,
    loop_complement,
    members_of,
    reduce_word,
    spanning_quasi_trees,
    twist,
)
from twuality import set_system
from twuality.errors import quoted
import ribbon_catalog as cat
from conftest import assert_frozen, set_systems, subset_of, vf_walk_families
import oracles
from oracles import (
    RibbonLoopClass,
    canonical_key_oracle,
    classify_element,
    first_exchange_failure,
    min_max_matroids,
    shortlex_key,
    vf_safe_oracle,
)

ss = SetSystem.from_sets


def all_subsets_but_full(n):
    return [s for r in range(n) for s in itertools.combinations(range(1, n + 1), r)]


def quasi_tree_systems(max_edges=5):
    named = [G for G in cat.named_fixtures().values() if G.n <= max_edges]
    graphs = st.one_of(
        st.sampled_from(named),
        st.randoms(use_true_random=False).map(lambda r: cat.random_ribbon(r, max_edges=max_edges)),
    )
    return graphs.map(lambda G: SetSystem.from_sets(G.n, spanning_quasi_trees(G)))


def toggled(systems):
    """The drawn systems with one set added or removed."""
    return systems.flatmap(
        lambda D: subset_of(D.n).map(lambda m: SetSystem(D.n, D.mask_set() ^ {m}))
    )


def vf_inputs():
    """Quasi-tree systems (vf-safe), their single loop complements (members
    of the same closure), the same systems with one set added or removed
    (often not vf-safe), and random families, empty and improper ones
    included; all with n <= 5."""
    qt = quasi_tree_systems()
    nonempty = qt.filter(lambda D: D.n >= 1)
    return st.one_of(
        qt,
        nonempty.flatmap(lambda D: st.integers(1, D.n).map(lambda i: loop_complement(D, (i,)))),
        toggled(qt),
        set_systems(max_n=5),
    )


def exchange_refuted(D, X, Y, u):
    """Direct re-check that (X, Y, u) refutes symmetric exchange."""
    fam = set(D.feasible_sets())
    if X not in fam or Y not in fam:
        return False
    diff = set(X) ^ set(Y)
    if u not in diff:
        return False
    for v in diff:
        cand = tuple(sorted(set(X) ^ {u, v}))
        if cand in fam:
            return False
    return True


class TestSetSystemType:
    def test_canonical_form(self):
        D = ss(3, [(1, 3), (3,), (2, 3), (3,)])
        assert D.feasible_sets() == ((3,), (1, 3), (2, 3))
        assert D == ss(3, [(2, 3), (1, 3), (3,)])
        assert hash(D) == hash(ss(3, [(2, 3), (1, 3), (3,)]))
        assert D != ss(4, [(3,), (1, 3), (2, 3)])

    def test_validation(self):
        with pytest.raises(ValidationError):
            ss(2, [(3,)])
        with pytest.raises(ValidationError):
            ss(2, [(0,)])
        with pytest.raises(ValidationError):
            ss(2, [(1, 1)])
        with pytest.raises(ValidationError):
            SetSystem(17, [])
        with pytest.raises(ValidationError):
            SetSystem(2, [4])
        with pytest.raises(ValidationError):
            SetSystem(1, [True])  # a bool is not a mask
        with pytest.raises(ValidationError):
            SetSystem(2, 5)  # not an iterable of masks
        with pytest.raises(ValidationError):
            ss(2, 5)
        with pytest.raises(ValidationError):
            ss(2, [5])

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda big: SetSystem(big, []), "ground size must be an integer in 0..16, got {}"),
            (lambda big: SetSystem(2, [big]), "mask {} does not encode a subset of [2]"),
            (lambda big: SetSystem(2, big), "the masks must be iterable, got {}"),
            (lambda big: ss(2, big), "the sets must be iterable, got {}"),
            (lambda big: ss(2, [big]), "a subset must be iterable, got {}"),
        ],
        ids=["ground-size", "mask", "masks", "sets", "subset"],
    )
    def test_long_value_is_quoted_up_to_the_bound(self, make, message):
        """A value with a 201-character ``repr`` is quoted to its first 80
        characters, then ``…``."""
        big = 10**200
        with pytest.raises(ValidationError) as refused:
            make(big)
        assert str(refused.value) == message.format(repr(big)[:80] + "…")

    def test_json_round_trip(self):
        D = ss(3, [(3,), (1, 3), (2, 3)])
        data = D.to_json()
        assert data == {"n": 3, "feasible": [[3], [1, 3], [2, 3]]}
        assert SetSystem.from_json(data) == D

    def test_json_rejects_duplicates_and_range(self):
        with pytest.raises(ValidationError):
            SetSystem.from_json({"n": 2, "feasible": [[1], [1]]})
        with pytest.raises(ValidationError):
            SetSystem.from_json({"n": 2, "feasible": [[3]]})
        with pytest.raises(ValidationError):
            SetSystem.from_json({"n": 2, "feasible": [[1, 1]]})
        # ascending order within a set is canonical on output, not required on input
        assert SetSystem.from_json({"n": 2, "feasible": [[2, 1]]}).feasible_sets() == ((1, 2),)

    @pytest.mark.parametrize(
        "feasible, message",
        [
            ([[1], [2], [1]], "duplicate feasible sets"),
            ([[1], [1], [3]], "element 3 out of range 1..2"),
            ([[1], [1], 5], "each feasible set must be a list"),
            ([[], [1, 1], []], "duplicate element 1"),
        ],
        ids=["duplicate", "duplicate-then-range", "duplicate-then-not-a-list", "bad-set-then-duplicate"],
    )
    def test_json_checks_every_set_before_duplicates(self, feasible, message):
        """Each set is checked in file order, and a duplicate is reported
        only once every set has passed."""
        with pytest.raises(ValidationError) as refused:
            SetSystem.from_json({"n": 2, "feasible": feasible})
        assert str(refused.value) == message

    def test_frozen(self):
        D = ss(3, [(3,), (1, 3), (2, 3)])
        assert_frozen(D, "n", "table")
        assert_frozen(SetSystem.from_table(2, 0b1001), "n", "table")

    def test_zero_ground(self):
        D = ss(0, [()])
        assert D.is_proper and D.is_normal
        assert D.to_json() == {"n": 0, "feasible": [[]]}


def tuple_key_feasible_sets(masks):
    """The family in canonical order, sorted by the tuple key."""
    return tuple(oracles.members_of_oracle(m) for m in sorted(set(masks), key=shortlex_key))


class TestShortlexOrder:
    def test_matches_tuple_key_oracle(self, rng):
        systems = []
        for n in range(9):
            full = 1 << n
            systems += [SetSystem(n), SetSystem(n, range(full))]
            for _ in range(30):
                masks = set(rng.sample(range(full), rng.randint(0, min(full, 40))))
                toggled = masks ^ {rng.randrange(full)}  # shares all but one set
                systems += [SetSystem(n, masks), SetSystem(n, toggled)]
        rng.shuffle(systems)
        assert sorted(systems, key=SetSystem.canonical_key) == sorted(
            systems, key=canonical_key_oracle
        )
        for D in systems:
            assert D.feasible_sets() == tuple_key_feasible_sets(D.masks)
            assert D.to_json() == {"n": D.n, "feasible": [list(s) for s in D.feasible_sets()]}

    @pytest.mark.parametrize("masks", [(0xFFFF, 1, 0x8001), range(1 << 16)], ids=["three", "all"])
    def test_feasible_sets_at_n16(self, masks):
        D = SetSystem(16, masks)
        assert D.feasible_sets() == tuple_key_feasible_sets(masks)
        E = SetSystem(16, masks[1:])
        assert (E.canonical_key() < D.canonical_key()) == (
            canonical_key_oracle(E) < canonical_key_oracle(D)
        )


def oracle_order(tables, n):
    """The tables sorted by the tuple key of their systems."""
    return sorted(tables, key=lambda t: canonical_key_oracle(SetSystem.from_table(n, t)))


def oracle_text(table, n):
    """The family's sets in canonical order as comma-separated JSON arrays."""
    sets = tuple_key_feasible_sets(set_system._masks_of_table(table))
    return ",".join("[" + ",".join(map(str, s)) + "]" for s in sets)


def assert_canonical_order(tables, n):
    """``_canonical_order`` against the tuple key, and the families' text
    read off its forms, joined by an orbit report's separator
    (``_families_text``)."""
    ordered, forms = set_system._canonical_order(tables, n)
    assert ordered == oracle_order(tables, n)
    sep = '],"n":%d},{"feasible":[' % n
    assert set_system._families_text(forms, n, sep) == sep.join(oracle_text(t, n) for t in ordered)


@st.composite
def related_tables(draw, max_n):
    """A ground size and families over it, each drawn with its canonical
    prefixes and with one set toggled, so that prefixes and near ties are
    common."""
    n = draw(st.integers(0, max_n))
    full = 1 << n
    tables = set()
    for masks in draw(st.lists(st.frozensets(st.integers(0, full - 1)), max_size=6)):
        table = sum(1 << m for m in masks)
        tables.add(table)
        tables.add(table ^ 1 << draw(st.integers(0, full - 1)))
        ordered = tuple_key_feasible_sets(masks)
        for k in draw(st.lists(st.integers(0, len(ordered)), max_size=3)):
            tables.add(sum(1 << set_system.mask_of(s, n) for s in ordered[:k]))
    return n, sorted(tables)


class TestCanonicalOrder:
    """The rank-bitmap route of ``_canonical_order`` and ``_families_text``
    (``n <= BITMAP_GROUND``) and the rank-list route above it, against the
    tuple key."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_family_up_to_three_elements(self, n):
        tables = list(range(1 << (1 << n)))
        random.Random(n).shuffle(tables)
        assert_canonical_order(tables, n)
        assert set_system._canonical_order(tables, n)[0][:2] == [0, 1]  # empty, then {∅}

    @given(related_tables(set_system.BITMAP_GROUND))
    @example((8, [0, 1, 1 << 255, (1 << 256) - 1, (1 << 256) - 2]))
    @example((2, [0, 0b1000, 0b1001]))
    @example((3, []))
    @settings(max_examples=150)
    def test_bitmap_route_matches_tuple_key(self, case):
        n, tables = case
        assert_canonical_order(tables, n)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_both_sides_of_the_bitmap_ground(self, n, rng):
        full = 1 << n
        tables = [0, 1, (1 << full) - 1]
        for _ in range(40):
            masks = rng.sample(range(full), rng.randint(1, 60))
            tables += [sum(1 << m for m in masks), sum(1 << m for m in masks[:-1])]
        tables = list(dict.fromkeys(tables))
        assert_canonical_order(tables, n)

    @pytest.mark.parametrize("n", range(set_system.BITMAP_GROUND + 1))
    def test_families_text_at_the_tail_boundary(self, n, rng):
        """``_families_text`` replaces only in the tail of families with no
        set of rank below 8; batches with no tail, all tail, the empty
        family alone, before a tail family or repeated, and a head and a
        tail each longer than one 4,096-family piece."""
        m = 1 << n
        rank = set_system._shortlex_table(n)[1]
        low = [x for x in range(m) if rank[x] < 8]
        high = [x for x in range(m) if rank[x] >= 8]

        def family(masks, most):
            return sum(1 << x for x in rng.sample(masks, rng.randint(1, min(most, len(masks)))))

        batches = [[0], [family(low, 3) for _ in range(30)] + [family(low, 1) | family(high or low, m)]]
        if high:  # from four elements on
            tail = [family(high, 4) for _ in range(30)]
            batches += [tail, [0] + tail[:1], [0, 0] + tail, tail + batches[1]]
        if len(high) >= 24:  # from five elements on: over 4,096 distinct tail families
            big = {family(high, 6) for _ in range(9000)} | {family(low, 8) | family(high, 2) for _ in range(6000)}
            batches.append([0, *big])
        for tables in batches:
            assert_canonical_order(tables, n)
        if len(high) >= 24:
            heads = set_system._lane_bytes(set_system._canonical_order(batches[-1], n)[1], max(m >> 3, 1), "big")
            boundary = heads[0::max(m >> 3, 1)].find(0, 1)
            assert boundary > 4096 and len(batches[-1]) - boundary > 4096

    @pytest.mark.parametrize("n", range(11))
    def test_sorted_systems_match_tuple_key(self, n, rng):
        full = 1 << n
        systems = {SetSystem(n), SetSystem(n, range(full))}
        for _ in range(30):
            systems.add(SetSystem(n, rng.sample(range(full), rng.randint(1, min(full, 30)))))
        expected = tuple(sorted(systems, key=canonical_key_oracle))
        assert set_system.sorted_systems({D.table for D in systems}, n) == expected


def bitmap_oracle(table, n):
    """The rank bitmap of a family: bit ``2**n - 1 - r`` for each shortlex
    rank ``r`` of its sets."""
    m = 1 << n
    ranks = {x: r for r, x in enumerate(sorted(range(m), key=shortlex_key))}
    return sum(1 << (m - 1 - ranks[x]) for x in set_system._masks_of_table(table))


def run_network(word, stages):
    """``word`` through the delta swaps ``(shift, mask)``."""
    for shift, mask in stages:
        d = ((word >> shift) ^ word) & mask
        word ^= d ^ (d << shift)
    return word


class TestRankKernel:
    """The bit-permutation kernel of ``_canonical_order`` on its own:
    the Beneš network, the lanes, and the generic lane route."""

    @pytest.mark.parametrize("size", [2, 4, 8, 16, 64])
    def test_benes_routes_any_permutation(self, size, rng):
        for _ in range(20):
            perm = list(range(size))
            rng.shuffle(perm)
            stages = set_system._benes(perm)
            assert len(stages) == 2 * size.bit_length() - 3
            for x in range(size):
                assert run_network(1 << x, stages) == 1 << perm[x]

    @pytest.mark.parametrize("n", range(set_system.BITMAP_GROUND + 1))
    def test_stages_send_each_bit_to_its_rank(self, n):
        m = 1 << n
        rank = set_system._shortlex_table(n)[1]
        stages = set_system._rank_network(n)
        assert len(stages) <= 2 * max(n, 3) - 1
        for x in range(m):
            assert run_network(1 << x, stages) == 1 << (m - 1 - rank[x])
        for x in range(m, 8):  # the padding bits of a one-byte lane
            assert run_network(1 << x, stages) == 1 << x

    @pytest.mark.parametrize("n", range(set_system.BITMAP_GROUND + 1))
    def test_lanes_do_not_interact(self, n, rng):
        m = 1 << n
        full = (1 << m) - 1
        edges = [0, full, 1, 1 << (m - 1), full ^ 1, full >> 1]
        for _ in range(10):
            batch = [rng.choice(edges) if rng.random() < 0.6 else 1 << rng.randrange(m) for _ in range(40)]
            batch += [rng.getrandbits(m) for _ in range(5)]
            rng.shuffle(batch)
            ordered, forms = set_system._canonical_order(batch, n)
            assert ordered == oracle_order(batch, n)
            assert forms == [bitmap_oracle(t, n) for t in ordered]

    @pytest.mark.parametrize("order", ["little", "big"])
    @pytest.mark.parametrize("n", range(set_system.BITMAP_GROUND + 1))
    def test_generic_lanes_match_typed_lanes(self, n, order, rng, monkeypatch):
        m = 1 << n
        batch = [0, (1 << m) - 1, 1] + [rng.getrandbits(m) & rng.getrandbits(m) for _ in range(60)]
        rng.shuffle(batch)
        typed = set_system._canonical_order(batch, n)
        sep = '],"n":%d},{"feasible":[' % n
        text = set_system._families_text(typed[1], n, sep)
        monkeypatch.setattr(set_system, "_LANE_CODES", {})
        monkeypatch.setattr(set_system.sys, "byteorder", order)
        assert set_system._canonical_order(batch, n) == typed
        assert set_system._families_text(typed[1], n, sep) == text


class TestTruthTable:
    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(st.just(n), st.frozensets(subset_of(n)))))
    def test_table_round_trip(self, case):
        n, masks = case
        D = SetSystem(n, masks)
        assert D.table == sum(1 << m for m in masks)
        assert D.masks == tuple(sorted(masks))
        assert D.mask_set() == masks
        assert D.is_proper == bool(masks) and D.is_normal == (0 in masks)
        assert all(D.has_mask(m) == (m in masks) for m in range(-1, 1 << (n + 1)))
        E = SetSystem.from_table(n, D.table)
        assert E == D and hash(E) == hash(D) and E.masks == D.masks
        assert E.to_json() == D.to_json()

    def test_masks_of_table_matches_bit_loop(self, rng):
        """The set bits read off the binary digits in one ``compress``
        equal those of the loop that clears the lowest bit each step."""
        tables = [0, 1]  # n = 0: the empty table and the table of {{}}
        for n in range(1, 17):
            full = 1 << n
            for _ in range(10):
                masks = rng.sample(range(full), rng.randint(0, min(full, 40)))
                tables.append(sum(1 << m for m in masks))
        tables += [1 << (4**10 - 1), (1 << (1 << 16)) - 1]  # a sparse 4^10-bit, the dense n = 16 table
        for table in tables:
            assert set_system._masks_of_table(table) == oracles.masks_of_table_oracle(table)

    def test_members_of_matches_bit_loop(self):
        """Every mask on up to 16 elements decodes as the bit loop does."""
        assert [members_of(m) for m in range(1 << 16)] == [
            oracles.members_of_oracle(m) for m in range(1 << 16)
        ]

    @pytest.mark.parametrize("mask", [-1, -6, True, False, 5.0, "5", None, -(10**200)])
    def test_members_of_refuses_what_is_not_a_mask(self, mask):
        """A negative ``int`` or any other type is refused with one quoted
        message, not decoded: ``-1`` once read as ``(1,)``, ``-6`` as ``(2, 3)``."""
        with pytest.raises(ValidationError) as refused:
            members_of(mask)
        assert str(refused.value) == f"a mask must be a non-negative int, got {quoted(mask)}"

    @given(set_systems(max_n=5))
    def test_flips_match_frozenset_reference(self, D):
        for k in range(D.n):
            for table_flip, set_flip in (
                (set_system.twist1, oracles.twist1),
                (set_system.loop_complement1, oracles.loop_complement1),
                (set_system.dual_twist1, oracles.dual_twist1),
            ):
                expected = SetSystem(D.n, set_flip(D.mask_set(), 1 << k))
                assert SetSystem.from_table(D.n, table_flip(D.table, D.n, k)) == expected


class TestRelabel:
    @staticmethod
    def reference(D, images):
        return SetSystem(D.n, (oracles.relabel_mask(images, m) for m in D.masks))

    @pytest.mark.parametrize("n", range(5))
    def test_every_permutation_matches_mask_reference(self, n):
        r = random.Random(n)
        families = [SetSystem(n, (m for m in range(1 << n) if r.random() < 0.5)) for _ in range(8)]
        for images in itertools.permutations(range(1, n + 1)):
            for D in families:
                out = SetSystem.from_table(n, set_system.relabel(D.table, n, images))
                assert out == self.reference(D, images), (D, images)

    @given(set_systems(max_n=6), st.randoms(use_true_random=False))
    def test_matches_mask_reference(self, D, r):
        images = r.sample(range(1, D.n + 1), D.n)
        out = SetSystem.from_table(D.n, set_system.relabel(D.table, D.n, images))
        assert out == self.reference(D, images)


class TestTwist:
    def test_fixed_point_example(self):
        D = ss(2, [(1,), (2,)])
        assert twist(D, (1, 2)) == D

    def test_empty_set_identity(self):
        D = ss(3, [(1,), (2, 3)])
        assert twist(D, ()) == D

    def test_worked_example(self):
        D = ss(2, [(), (1,), (1, 2)])
        assert twist(D, (1, 2)) == ss(2, [(), (2,), (1, 2)])

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            twist(ss(2, [()]), (3,))

    @given(set_systems(), st.data())
    def test_involution_and_size(self, D, data):
        I = members_of(data.draw(subset_of(D.n)))
        T = twist(D, I)
        assert len(T.masks) == len(D.masks)
        assert twist(T, I) == D


def single_loop_complement_oracle(D, i):
    """The one-element defining rule, computed on raw sets."""
    fam = {frozenset(s) for s in D.feasible_sets()}
    toggles = {frozenset(s | {i}) for s in fam if i not in s}
    return SetSystem.from_sets(D.n, (tuple(s) for s in fam ^ toggles))


class TestLoopComplement:
    def test_single_element_example(self):
        D = ss(3, all_subsets_but_full(3))
        got = loop_complement(D, (1,))
        assert got == single_loop_complement_oracle(D, 1)
        assert got == ss(3, [(), (2,), (3,), (2, 3), (1, 2, 3)])

    def test_tiny_example(self):
        assert loop_complement(ss(1, [()]), (1,)) == ss(1, [(), (1,)])

    @given(set_systems(), st.data())
    def test_involution(self, D, data):
        I = members_of(data.draw(subset_of(D.n)))
        assert loop_complement(loop_complement(D, I), I) == D

    @given(set_systems(max_n=4), st.integers(1, 4))
    def test_agrees_with_single_element_rule(self, D, i):
        assume(i <= D.n)
        assert loop_complement(D, (i,)) == single_loop_complement_oracle(D, i)


class TestDualTwist:
    def test_fixed_point_example(self):
        D = ss(3, [(), (1,), (2,)])
        assert dual_twist(D, (1, 2, 3)) == D

    def test_empty_set_identity(self):
        D = ss(2, [(1,), (1, 2)])
        assert dual_twist(D, ()) == D

    def test_tiny_example(self):
        assert dual_twist(ss(1, [()]), (1,)) == ss(1, [()])

    @given(set_systems(), st.data())
    def test_involution(self, D, data):
        I = members_of(data.draw(subset_of(D.n)))
        assert dual_twist(dual_twist(D, I), I) == D

    @given(set_systems(max_n=4), st.integers(1, 4))
    def test_equals_both_three_letter_words(self, D, i):
        assume(i <= D.n)
        direct = dual_twist(D, (i,))
        assert direct == apply_flip(D, reduce_word("+*+"), i)
        assert direct == apply_flip(D, reduce_word("*+*"), i)
        # letterwise as well
        step = loop_complement(twist(loop_complement(D, (i,)), (i,)), (i,))
        assert direct == step


class TestApplyFlip:
    @given(set_systems(max_n=4), st.integers(1, 4))
    def test_bar_is_dual_twist(self, D, i):
        assume(i <= D.n)
        assert apply_flip(D, BAR, i) == dual_twist(D, (i,))

    @given(set_systems(max_n=4), st.integers(1, 4))
    def test_identity(self, D, i):
        assume(i <= D.n)
        assert apply_flip(D, ONE, i) == D

    def test_twist_step_of_worked_transport(self):
        D = ss(3, [(3,), (1, 3), (2, 3)])
        assert apply_flip(D, STAR, 1) == ss(3, [(3,), (1, 3), (1, 2, 3)])

    def test_out_of_range(self):
        for i in (3, 0, True, 1.0):  # a bool or a float is no element either
            with pytest.raises(ValidationError):
                apply_flip(ss(2, [()]), STAR, i)


class TestDeltaMatroid:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_near_power_set_family(self, n):
        D = ss(n, all_subsets_but_full(n))
        assert is_delta_matroid(D).valid

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_complemented_family_fails_with_witness(self, n):
        D = loop_complement(ss(n, all_subsets_but_full(n)), (1,))
        w = is_delta_matroid(D)
        assert not w.valid
        assert (w.X, w.Y, w.u) == ((), tuple(range(1, n + 1)), 1)
        assert exchange_refuted(D, w.X, w.Y, w.u)

    def test_improper(self):
        w = is_delta_matroid(SetSystem(2, []))
        assert not w.valid and w.reason == "not proper"

    @pytest.mark.parametrize("sets, valid", [([(), (1, 2, 3)], False), ([(), (1,), (2,)], True)])
    def test_one_exchange_walk_per_family(self, monkeypatch, sets, valid):
        """The witness scan reuses the failure table of the one walk."""
        real, walked = set_system._exchange_failures, []
        monkeypatch.setattr(
            set_system, "_exchange_failures", lambda t, n: walked.append(t) or real(t, n)
        )
        D = ss(3, sets)
        assert is_delta_matroid(D).valid is valid
        assert walked == [D.table]

    @given(set_systems(max_n=4, proper=True))
    def test_witness_always_refutes(self, D):
        w = is_delta_matroid(D)
        if not w.valid:
            assert exchange_refuted(D, w.X, w.Y, w.u)

    @given(set_systems(max_n=5, proper=True))
    def test_witness_is_first_in_canonical_order(self, D):
        w = is_delta_matroid(D)
        first = first_exchange_failure(sorted(D.masks, key=shortlex_key), D.mask_set())
        if first is None:
            assert w.valid
        else:
            x, y, ub = first
            assert (w.X, w.Y, w.u) == (members_of(x), members_of(y), ub.bit_length())

    @given(set_systems(max_n=4, proper=True), st.data())
    def test_closed_under_twist(self, D, data):
        assume(is_delta_matroid(D).valid)
        I = members_of(data.draw(subset_of(D.n)))
        assert is_delta_matroid(twist(D, I)).valid


class TestExchangeWalk:
    """The whole-table walk of ``_exchange_failures`` against the triple
    loop, and the witness it leads to against the per-set scan."""

    @given(
        st.one_of(
            quasi_tree_systems(max_edges=6),
            toggled(quasi_tree_systems(max_edges=6)),
            set_systems(max_n=6),
        )
    )
    @example(SetSystem(0, []))
    @example(SetSystem(0, [0]))
    @example(SetSystem(6, []))
    def test_failing_sets_match_triple_loop(self, D):
        expected = oracles.exchange_failures_oracle(D.mask_set())
        assert set_system._exchange_failures(D.table, D.n) == expected

    @pytest.mark.parametrize("n", [7, 8])
    def test_vf_class_keys_match_scan(self, n):
        """Every class key the vf-safety class walk of the interleaved
        bouquet reaches (all delta-matroids), and each with one set
        toggled."""
        D = SetSystem.from_sets(n, spanning_quasi_trees(cat.bouquet([1] * n, interleaved=True)))
        safe, keys, _ = oracles.vf_class_walk_oracle(D.table, n)
        assert safe
        rng = random.Random(n)
        failing = 0
        for key in keys:
            for table in (key, key ^ 1 << rng.randrange(1 << n)):
                ordered = sorted(SetSystem.from_table(n, table).masks, key=shortlex_key)
                expected = oracles.exchange_scan(ordered, table, n)
                bad = set_system._exchange_failures(table, n)
                assert bool(bad) == (expected is not None)
                if bad:
                    assert set_system._exchange_failure(ordered, bad, table, n) == expected
                    failing += 1
        assert failing  # the toggled tables reach the witness path


class TestMinMax:
    def test_example(self):
        dmin, dmax = min_max_matroids(ss(3, [(3,), (1, 3), (2, 3)]))
        assert dmin == ss(3, [(3,)])
        assert dmax == ss(3, [(1, 3), (2, 3)])

    def test_uniform_family(self):
        D = ss(3, [(1,), (2,)])
        assert min_max_matroids(D) == (D, D)

    def test_tiny(self):
        assert min_max_matroids(ss(1, [(), (1,)])) == (ss(1, [()]), ss(1, [(1,)]))

    def test_improper(self):
        with pytest.raises(ValidationError):
            min_max_matroids(SetSystem(2, []))


class TestClassifyElement:
    def test_orientable(self):
        assert classify_element(ss(1, [()]), 1) is RibbonLoopClass.ORIENTABLE_LOOP

    def test_non_orientable(self):
        assert classify_element(ss(1, [(), (1,)]), 1) is RibbonLoopClass.NON_ORIENTABLE_LOOP

    def test_not_ribbon_loop(self):
        assert classify_element(ss(1, [(1,)]), 1) is RibbonLoopClass.NOT_RIBBON_LOOP

    def test_rejects_non_delta_matroid(self):
        bad = loop_complement(ss(3, all_subsets_but_full(3)), (1,))
        with pytest.raises(ValidationError):
            classify_element(bad, 1)

    @pytest.mark.parametrize("i", [0, 2, True, 1.0])
    def test_rejects_non_elements(self, i):
        for D in (ss(1, [()]), ss(1, [(1,)])):
            with pytest.raises(ValidationError):
                classify_element(D, i)


class TestVfSafe:
    def test_counterexample_family(self):
        assert not is_vf_safe(ss(3, all_subsets_but_full(3)))

    def test_safe_example(self):
        assert is_vf_safe(ss(3, [(3,), (1, 3), (2, 3)]))

    def test_trivial(self):
        assert is_vf_safe(ss(0, [()]))

    def test_budget(self):
        with pytest.raises(BudgetError, match=r"n <= 4, got 5 \(3\^5 = 243 twist classes\)$"):
            is_vf_safe(SetSystem(5, [0]), max_n=4)

    def test_binary_input_skips_the_closure(self, monkeypatch):
        """A binary family is answered by the certificate: no exchange walk
        runs and the closure is not walked, and the cache gains the family's
        own entry alone.  A twist of it gets an entry of its own."""

        def no_search(table, n):
            raise AssertionError("closure walked")

        monkeypatch.setattr(set_system, "_exchange_failures", no_search)
        monkeypatch.setattr(set_system, "_closure_safe", no_search)
        D = SetSystem.from_sets(5, spanning_quasi_trees(cat.bouquet([1, -1, 1, 1, -1], interleaved=True)))
        assert is_vf_safe(D)
        cache = {}
        assert is_vf_safe(D, cache=cache)
        assert cache == {(5, D.table): True}
        E = twist(D, (2, 4))
        assert is_vf_safe(E, cache=cache)
        assert cache == {(5, D.table): True, (5, E.table): True}

    def test_cache_consistency(self, monkeypatch):
        """The cache holds one entry per family asked about; the certificate
        is switched off, since the safe inputs here are binary.  A repeated
        family reads its verdict without walking the closure, and a refused
        one walks exchange once, on itself, for its failure table.  Twists
        of the input and of a member of its closure get entries of their
        own, with the same verdict."""
        monkeypatch.setattr(set_system, "_is_binary", lambda table, n: False)
        real = set_system._exchange_failures

        def no_closure(table, n):
            raise AssertionError("closure walked")

        for D in (
            ss(3, [(3,), (1, 3), (2, 3)]),
            ss(3, all_subsets_but_full(3)),
            SetSystem(4, [m for m in range(16) if m & 7 != 7]),
            SetSystem.from_sets(4, spanning_quasi_trees(cat.bouquet([1, -1, 1, 1], interleaved=True))),
            SetSystem.from_sets(5, spanning_quasi_trees(cat.bouquet([1, -1, 1, 1, -1], interleaved=True))),
        ):
            cache = {}
            verdict, bad = set_system._vf_safety(D, 10, cache)
            assert cache == {(D.n, D.table): verdict}
            walked = []
            with monkeypatch.context() as m:
                m.setattr(set_system, "_closure_safe", no_closure)
                m.setattr(set_system, "_exchange_failures", lambda t, n: walked.append(t) or real(t, n))
                assert set_system._vf_safety(D, 10, cache) == (verdict, bad)
            assert walked == ([] if verdict else [D.table])
            members = [D]
            if verdict:
                members.append(apply_flip(twist(D, (1,)), PLUS, 2))
            moved = []
            for M in members:
                moved += [twist(M, (2, D.n)), twist(M, range(1, D.n + 1))]
            for E in moved:
                assert is_vf_safe(E, cache=cache) is verdict
                assert cache[E.n, E.table] is verdict
            assert set(cache) == {(E.n, E.table) for E in [D, *moved]}

    @given(vf_inputs())
    @example(SetSystem(0, []))
    @example(SetSystem(0, [0]))
    @example(SetSystem(5, []))
    def test_matches_oracle(self, D):
        expected = vf_safe_oracle(D)
        assert is_vf_safe(D) is expected
        cache = {}
        assert is_vf_safe(D, cache=cache) is expected
        assert is_vf_safe(D, cache=cache) is expected


class TestVfClassWalk:
    """``_vf_safety`` against the class walk it replaced, which listed the
    twists of every class reached and checked exchange at pop time."""

    @pytest.mark.parametrize("certificate", [True, False], ids=["certificate", "no-certificate"])
    def test_verdicts_match_the_class_walk(self, monkeypatch, certificate):
        """The verdict and the failure table, with and without a cache.  On a
        safe verdict by the closure, every class key the oracle reaches is
        the least twist of ``D`` or of a table the walk checked, and every
        checked table lies in a class the oracle reaches.  The cache holds
        the family's own entry alone, and a second call reads the verdict
        from it with the same failure table.  Without the certificate,
        binary families walk the closure too."""
        if not certificate:
            monkeypatch.setattr(set_system, "_is_binary", lambda table, n: False)
        real, walked = set_system._exchange_failures, []
        monkeypatch.setattr(set_system, "_exchange_failures", lambda t, n: walked.append(t) or real(t, n))
        routes = set()
        for D in vf_walk_families():
            expected, keys, _ = oracles.vf_class_walk_oracle(D.table, D.n)
            bad = 0 if expected else oracles.exchange_failures_oracle(D.mask_set())
            walked.clear()
            assert set_system._vf_safety(D, 10, None) == (expected, bad), D
            if expected and not set_system._is_binary(D.table, D.n):
                checked = {min(oracles.twist_class(t, D.n)) for t in walked}
                assert walked[0] == D.table, D
                assert set(keys) <= checked, D
                assert checked <= set(keys), D
            cache = {}
            assert set_system._vf_safety(D, 10, cache) == (expected, bad), D
            assert cache == {(D.n, D.table): expected}, D
            assert set_system._vf_safety(D, 10, cache) == (expected, bad), D
            routes.add((expected, bool(bad), D.is_proper))
        # (verdict, failure table nonzero, proper)
        assert routes == {(True, False, True), (False, False, True), (False, True, True), (False, False, False)}

    def test_no_more_exchange_walks_than_the_class_walk(self, monkeypatch):
        """On the pinned family that is a delta-matroid and not vf-safe,
        the closure walks exchange on no more tables than the class walk."""
        D = SetSystem(4, [m for m in range(16) if m & 7 != 7])
        expected, _, walks = oracles.vf_class_walk_oracle(D.table, D.n)
        assert not expected and is_delta_matroid(D).valid
        real, walked = set_system._exchange_failures, []
        monkeypatch.setattr(set_system, "_exchange_failures", lambda t, n: walked.append(t) or real(t, n))
        assert not is_vf_safe(D)
        assert len(walked) <= len(walks)


def random_symmetric(rng, n):
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = rng.randint(0, 1)
    return A


def rows_of(A):
    return [sum(a << j for j, a in enumerate(row)) for row in A]


class TestBinaryCertificate:
    """``_binary_table`` against one elimination per subset, and the
    certificate against the closure, whose verdict it must imply."""

    def test_table_matches_elimination(self, rng):
        for _ in range(150):
            n = rng.randint(2, 7)
            A = random_symmetric(rng, n)
            table = set_system._binary_table(rows_of(A), n)
            assert table == oracles.binary_table_oracle(A), A
            assert set_system._is_binary(table, n)
            X = rng.randrange(1 << n)
            assert set_system._is_binary(set_system.fold_flip(set_system.twist1, table, n, X), n)

    def test_leaves_match_the_plain_recursion(self):
        """The three-element lookup on all 512 row triples."""
        for v in range(512):
            rows = [v & 7, v >> 3 & 7, v >> 6]
            assert set_system._binary_table(rows, 3) == oracles.binary_recursion_oracle(rows, 3), rows

    def test_table_matches_the_plain_recursion(self):
        rng = random.Random(12)
        for n in range(2, 13):
            for _ in range(12 if n < 10 else 3):
                rows = rows_of(random_symmetric(rng, n))
                assert set_system._binary_table(rows, n) == oracles.binary_recursion_oracle(rows, n), rows

    def test_loop_complement_toggles_the_diagonal(self, rng):
        for _ in range(60):
            n = rng.randint(2, 7)
            A = random_symmetric(rng, n)
            table = set_system._binary_table(rows_of(A), n)
            for i in range(n):
                A[i][i] ^= 1
                toggled = set_system._binary_table(rows_of(A), n)
                A[i][i] ^= 1
                assert set_system.loop_complement1(table, n, i) == toggled, (A, i)

    def test_small_ground_sets(self):
        assert set_system._is_binary(1, 0) and not set_system._is_binary(0, 0)
        assert all(set_system._is_binary(t, 1) for t in (1, 2, 3))
        assert not any(set_system._is_binary(0, n) for n in range(4))

    def test_uniform_matroid_is_not_binary(self):
        """The bases of ``U(2, 4)``, the classical excluded minor."""
        D = ss(4, itertools.combinations(range(1, 5), 2))
        assert is_delta_matroid(D).valid
        assert not set_system._is_binary(D.table, D.n)

    def test_certificate_implies_the_closure_verdict(self, monkeypatch):
        """3,000 random families with n <= 5: twists of ``D(A)``, the same
        with one set toggled, and random tables.  A certified family is a
        delta-matroid that the closure finds vf-safe; both verdicts occur,
        and vf-safe families that are not binary reach the closure."""
        rng = random.Random(5)
        seen = set()
        for trial in range(3000):
            n = rng.randint(0, 5)
            if n < 2:
                table = rng.randrange(1 << (1 << n))
            elif trial % 3 == 2:
                table = rng.getrandbits(1 << n)
            else:
                rows = rows_of(random_symmetric(rng, n))
                table = set_system.fold_flip(
                    set_system.twist1, set_system._binary_table(rows, n), n, rng.randrange(1 << n)
                )
                if trial % 3 == 1:
                    table ^= 1 << rng.randrange(1 << n)
            D = SetSystem.from_table(n, table)
            binary = set_system._is_binary(table, n)
            verdict = is_vf_safe(D)
            with monkeypatch.context() as m:
                m.setattr(set_system, "_is_binary", lambda table, n: False)
                assert is_vf_safe(D) is verdict, D
            if binary:
                assert is_delta_matroid(D).valid and verdict, D
            seen.add((binary, verdict))
        assert seen == {(True, True), (False, True), (False, False)}


class TestWordProperties:
    @given(set_systems(max_n=4), st.data())
    def test_flips_commute_on_distinct_elements(self, D, data):
        assume(D.n >= 2)
        i = data.draw(st.integers(1, D.n))
        j = data.draw(st.integers(1, D.n))
        assume(i != j)
        g1 = data.draw(st.sampled_from(FLIPS))
        g2 = data.draw(st.sampled_from(FLIPS))
        one_way = apply_flip(apply_flip(D, g1, i), g2, j)
        other = apply_flip(apply_flip(D, g2, j), g1, i)
        assert one_way == other

    @given(set_systems(max_n=4), st.integers(1, 4))
    def test_star_plus_has_order_three(self, D, i):
        assume(i <= D.n)
        word = reduce_word("*+")
        out = D
        for _ in range(3):
            out = apply_flip(out, word, i)
        assert out == D

    def test_single_element_noncommutativity_exists(self):
        # twist-then-complement differs from complement-then-twist somewhere
        found = False
        n = 1
        for masks in itertools.chain.from_iterable(
            itertools.combinations(range(1 << n), k) for k in range(1, (1 << n) + 1)
        ):
            D = SetSystem(n, masks)
            a = loop_complement(twist(D, (1,)), (1,))
            b = twist(loop_complement(D, (1,)), (1,))
            if a != b:
                found = True
                break
        assert found

    @given(set_systems(max_n=5, proper=True), st.data())
    def test_bulk_matches_every_sequential_order(self, D, data):
        size = data.draw(st.integers(0, min(3, D.n)))
        I = data.draw(
            st.lists(st.integers(1, max(D.n, 1)), min_size=size, max_size=size, unique=True)
        ) if D.n else []
        for bulk_op, flip, direct in (
            (twist, STAR, oracles.twist),
            (loop_complement, PLUS, oracles.loop_complement),
            (dual_twist, BAR, oracles.dual_twist),
        ):
            expected = bulk_op(D, I)
            assert expected == direct(D, I)
            for order in itertools.permutations(I):
                out = D
                for i in order:
                    out = apply_flip(out, flip, i)
                assert out == expected
