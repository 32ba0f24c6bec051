import collections
import itertools
import json
import pickle
import random

import pytest

from twuality import (
    BudgetError,
    ConsistencyError,
    MedialLiftReport,
    Multimatroid,
    Projection,
    RibbonEdge,
    RibbonGraph,
    SetSystem,
    TransversalTriple,
    ValidationError,
    all_black,
    all_white,
    boundary_components,
    delta_matroid_of,
    extract,
    is_delta_matroid,
    is_multimatroid,
    is_tight,
    is_vf_safe,
    medial,
    spanning_quasi_trees,
    split_components,
    transition_matroid,
    verify_medial_lift,
)
from twuality import multimatroid, ribbon, set_system

import ribbon_catalog as cat
from conftest import assert_frozen, assert_quoted_up_to_the_bound
from oracles import (
    binary_quasi_tree_system,
    boundary_oracle,
    component_count,
    is_reference_lift_oracle,
    kept_splits_oracle,
    lift_rebuild_oracle,
    medial_components_oracle,
    medial_lift_oracle,
    medial_oracle,
    quasi_trees_oracle,
    split_components_oracle,
    sub_boundary,
    transition_matroid_oracle,
)

ss = SetSystem.from_sets


@pytest.fixture(scope="module")
def named():
    return cat.named_fixtures()


class TestValidation:
    def test_half_edge_reuse(self):
        with pytest.raises(ValidationError):
            RibbonGraph([[1, 1]], [((1, 2), 1, 1)])
        with pytest.raises(ValidationError):
            RibbonGraph([[1, 2], [2]], [((1, 2), 1, 1)])

    def test_rotation_edge_mismatch(self):
        with pytest.raises(ValidationError):
            RibbonGraph([[1, 2]], [((1, 3), 1, 1)])

    def test_labels_must_cover_range(self):
        with pytest.raises(ValidationError):
            RibbonGraph([[1, 2]], [((1, 2), 1, 2)])

    def test_sign_values(self):
        with pytest.raises(ValidationError):
            RibbonGraph([[1, 2]], [((1, 2), 0, 1)])

    def test_json_round_trip(self, named):
        for G in named.values():
            assert RibbonGraph.from_json(G.to_json()).to_json() == G.to_json()


class TestBoundary:
    def test_isolated_vertex_disc(self):
        assert boundary_components(RibbonGraph([[]], [])) == 1

    def test_untwisted_loop_annulus(self):
        assert boundary_components(cat.untwisted_loop()) == 2

    def test_twisted_loop_moebius(self):
        assert boundary_components(cat.twisted_loop()) == 1

    def test_single_edge_disc(self):
        assert boundary_components(cat.path_graph([1])) == 1

    def test_rotation_start_invariance(self, named, rng):
        for G in named.values():
            b = boundary_oracle(G)
            rotated = [
                rot[k % len(rot) :] + rot[: k % len(rot)] if rot else rot
                for rot, k in ((r, rng.randrange(4)) for r in G.vertices)
            ]
            assert boundary_components(RibbonGraph(rotated, G.edges)) == b

    def test_half_edge_relabel_invariance(self, named, rng):
        for G in named.values():
            ids = sorted({h for e in G.edges for h in e.ends})
            if not ids:
                continue
            new_ids = ids[:]
            rng.shuffle(new_ids)
            ren = dict(zip(ids, new_ids))
            G2 = RibbonGraph(
                [[ren[h] for h in rot] for rot in G.vertices],
                [((ren[e.ends[0]], ren[e.ends[1]]), e.sign, e.label) for e in G.edges],
            )
            assert boundary_components(G2) == boundary_oracle(G)

    def test_euler_parity_orientable(self):
        for G in cat.enumerate_all(max_edges=2, max_vertices=2):
            if any(e.sign == -1 for e in G.edges) or not G.vertices:
                continue
            if component_count(G) != 1:
                continue
            v, e, b = len(G.vertices), G.n, boundary_components(G)
            assert (v - e + b) % 2 == 0


class TestQuasiTrees:
    def test_single_edge(self):
        assert spanning_quasi_trees(cat.path_graph([1])) == ((1,),)

    def test_twisted_loop(self):
        assert spanning_quasi_trees(cat.twisted_loop()) == ((), (1,))

    def test_untwisted_loop(self):
        assert spanning_quasi_trees(cat.untwisted_loop()) == ((),)

    def test_budget(self):
        with pytest.raises(BudgetError, match=r"at 0 edges, got 1 \(2\^1 = 2 edge subsets\)$"):
            spanning_quasi_trees(cat.path_graph([1]), max_e=0)

    def test_matches_two_condition_oracle(self):
        r = random.Random(6)
        graphs = itertools.chain(
            cat.enumerate_all(), (cat.random_ribbon(r, max_edges=6) for _ in range(300))
        )
        for G in graphs:
            assert spanning_quasi_trees(G) == quasi_trees_oracle(G), G


class TestQuasiTreeSystems:
    def test_loop_examples(self):
        assert delta_matroid_of(cat.twisted_loop()) == ss(1, [(), (1,)])
        assert delta_matroid_of(cat.untwisted_loop()) == ss(1, [()])

    def test_edgeless(self):
        assert delta_matroid_of(RibbonGraph([], [])) == ss(0, [()])

    def test_always_delta_matroid_and_safe(self, named, vf_cache):
        for G in named.values():
            D = delta_matroid_of(G, vf_cache=vf_cache)
            assert is_delta_matroid(D).valid
            assert is_vf_safe(D, cache=vf_cache)

    def test_quasi_tree_systems_are_binary(self):
        """The whole <=3-edge catalog, 300 random graphs with up to 9 edges
        and the 16-edge interleaved bouquet, where ``delta_matroid_of``
        checks vf-safety by the certificate alone."""
        r = random.Random(13)
        graphs = itertools.chain(
            cat.enumerate_all(), (cat.random_ribbon(r, max_edges=9, max_vertices=4) for _ in range(300))
        )
        for G in graphs:
            D = ribbon._quasi_tree_system(G, G.n)
            assert set_system._is_binary(D.table, D.n), G
        for signs in ([1] * 16, [1, -1] * 8):
            D = delta_matroid_of(cat.bouquet(signs, interleaved=True))
            assert set_system._is_binary(D.table, D.n)

    def test_gf2_route_matches_the_split_walk(self):
        """``D(G)`` as the twist of a ``D(A)`` by a spanning forest equals
        the split walk's on seeded random graphs with 8-14 edges and on
        interleaved bouquets with 2-16 edges, past the vf-safe cap, where
        ``delta_matroid_of`` checks the family by the certificate alone."""
        r = random.Random(24)
        graphs = [cat.random_ribbon(r, max_edges=14, max_vertices=5, min_edges=8) for _ in range(25)]
        graphs += [
            cat.bouquet(signs[:m], interleaved=True) for m in range(2, 17) for signs in ([1] * 16, [1, -1] * 8)
        ]
        assert sum(G.n > 10 for G in graphs) >= 20
        for G in graphs:
            assert binary_quasi_tree_system(G) == delta_matroid_of(G), G

    def test_no_exchange_walk_on_binary_systems(self, named, monkeypatch):
        """A vf-safe or binary verdict proves exchange, so ``delta_matroid_of``
        walks no exchange check on the named catalog or on interleaved
        bouquets of 12 and 16 edges, checked by the certificate alone."""
        calls = []
        for module in (ribbon, set_system):
            monkeypatch.setattr(module, "_exchange_failures", lambda t, n: calls.append(t))
        bouquets = [cat.bouquet(signs, interleaved=True) for signs in ([1] * 12, [1, -1] * 8)]
        for G in [*named.values(), *bouquets]:
            delta_matroid_of(G)
        assert calls == []

    @pytest.mark.parametrize(
        "D, fault",
        [
            (SetSystem(6, [0, 7]), "fails symmetric exchange"),
            (SetSystem(6, [m for m in range(64) if m & 7 != 7]), "is not vf-safe"),
            (SetSystem(6, []), "fails symmetric exchange"),
        ],
        ids=["not-delta", "not-vf-safe", "improper"],
    )
    def test_memoized_refusal_names_the_same_fault(self, monkeypatch, D, fault):
        """A refusal read from the cache names the same fault as a fresh
        one, from one exchange walk on the family itself."""
        G, cache, walked = cat.bouquet([1] * D.n), {}, []
        real = set_system._exchange_failures
        monkeypatch.setattr(set_system, "_exchange_failures", lambda t, n: walked.append(t) or real(t, n))
        errors = []
        for _ in range(2):
            walked.clear()
            with pytest.raises(ConsistencyError) as info:
                ribbon._checked_delta_matroid(G, D, cache)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == f"quasi-tree family of {G!r} {fault}"
        assert cache == {(D.n, D.table): False}
        assert walked == [D.table]


class TestMedial:
    def test_frozen(self):
        G = cat.with_isolated(cat.theta([1, -1, 1]))
        assert_frozen(G, "vertices", "edges")
        assert_frozen(G.edges[0], "ends", "sign", "label")
        assert not hasattr(G.edges[0], "__dict__")  # slotted, as the catalog holds many
        assert_frozen(medial(G), "edges", "corner", "pairs", "free_loops", "components")

    def test_edges_compare_hash_and_pickle_as_values(self):
        G = cat.theta([1, -1, 1])
        copy = RibbonGraph.from_json(json.loads(json.dumps(G.to_json())))
        assert copy.edges == G.edges and copy.edges is not G.edges
        assert len({*G.edges, *copy.edges}) == G.n
        assert {e: e.label for e in G.edges}[copy.edges[1]] == 2
        assert RibbonEdge((1, 2), 1, 1) != RibbonEdge((1, 2), -1, 1) != RibbonEdge((2, 1), -1, 1)
        for e in G.edges:
            back = pickle.loads(pickle.dumps(e))
            assert back == e and hash(back) == hash(e) and type(back) is RibbonEdge
        assert repr(G.edges[1]) == "RibbonEdge(ends=(3, 4), sign=-1, label=2)"

    def test_twisted_loop_structure(self):
        Fm = medial(cat.twisted_loop())
        assert Fm.n == 1
        data = Fm.to_json()
        assert len(data["corner_edges"]) == 2
        v = data["medial_vertices"][0]
        # each medial vertex has two corner loops here, and its three
        # transitions are distinct pairings of the four slots
        pairings = [json.dumps(p) for p in v["transitions"].values()]
        assert len(pairings) == len(set(pairings)) == 3
        union = {tuple(t) for p in v["transitions"].values() for pair in p for t in pair}
        assert union == {(h, slot) for h in v["ends"] for slot in ("before", "after")}

    def test_corner_count(self, named):
        for G in named.values():
            assert len(medial(G).to_json()["corner_edges"]) == 2 * G.n

    def test_free_loops(self):
        Fm = medial(RibbonGraph([[], []], []))
        assert Fm.free_loops == 2
        assert split_components(Fm, ()) == 2

    def test_all_black_counts_vertices(self, named):
        for G in named.values():
            Fm = medial(G)
            assert split_components(Fm, all_black(Fm)) == len(G.vertices)

    def test_all_white_counts_boundary(self, named):
        for G in named.values():
            Fm = medial(G)
            assert split_components(Fm, all_white(Fm)) == boundary_oracle(G)

    def test_split_validation(self):
        Fm = medial(cat.twisted_loop())
        with pytest.raises(ValidationError):
            split_components(Fm, ())
        with pytest.raises(ValidationError):
            split_components(Fm, ("purple",))
        assert_quoted_up_to_the_bound(lambda name: split_components(Fm, (name,)), "x" * 5000, "unknown transition {}")


class TestMedialComponents:
    """``medial`` counts the medial's components in its pass over the
    rotations; ``medial_components_oracle`` searches the corner edges of
    the medial it built, and ``component_count`` joins the vertices of
    ``G`` along its edges."""

    @staticmethod
    def check(G):
        Fm = medial(G)
        assert Fm.components == medial_components_oracle(Fm) == component_count(G), G

    def test_catalog(self):
        for G in cat.enumerate_all():
            self.check(G)

    def test_catalog_padded_with_isolated_vertices(self):
        for G in cat.enumerate_all():
            for k in (1, 2, 3):
                self.check(cat.with_isolated(G, k))

    def test_disjoint_unions_with_six_to_eight_edges(self):
        """Two to six summands of one to three edges each, some with
        isolated vertices, their rotations then shuffled."""
        rng = random.Random(47)
        for _ in range(150):
            left, G = rng.randint(6, 8), RibbonGraph([], [])
            while left:
                m = rng.randint(1, min(3, left))
                G, left = cat.disjoint_union(G, cat.random_ribbon(rng, max_edges=m, min_edges=m)), left - m
            if rng.getrandbits(1):
                G = cat.with_isolated(G, rng.randint(1, 2))
            assert 6 <= G.n <= 8
            self.check(G)
            self.check(RibbonGraph(rng.sample(G.vertices, len(G.vertices)), G.edges))


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestMedialAgainstOracle:
    """``medial(G).to_json()`` has the canonical bytes of the tag-tuple
    oracle, and ``split_components`` its counts on random systems."""

    @staticmethod
    def check(G, rng):
        Fm, M = medial(G), medial_oracle(G)
        assert _canonical(Fm.to_json()) == _canonical(M.to_json()), G
        for _ in range(3):
            T = tuple(rng.choice(ribbon.TRANSITION_NAMES) for _ in range(Fm.n))
            assert split_components(Fm, T) == split_components_oracle(M, T), (G, T)

    def test_catalog(self):
        rng = random.Random(12)
        for G in cat.enumerate_all():
            self.check(G, rng)

    def test_random_graphs_with_isolated_vertices(self):
        rng = random.Random(13)
        for _ in range(300):
            G = cat.random_ribbon(rng, max_edges=6, max_vertices=4)
            self.check(cat.with_isolated(G, rng.randint(1, 2)), rng)

    def test_sparse_half_edge_ids(self):
        """Half-edge ids far from the tag range, in shuffled order."""
        rng = random.Random(14)
        for G in cat.enumerate_all():
            ids = sorted({h for e in G.edges for h in e.ends})
            ren = dict(zip(ids, rng.sample(range(10**12 - 10**6, 10**12 + 10**6), len(ids))))
            G2 = RibbonGraph(
                [[ren[h] for h in rot] for rot in G.vertices],
                [((ren[e.ends[0]], ren[e.ends[1]]), e.sign, e.label) for e in G.edges],
            )
            self.check(G2, rng)


class TestTransitionMatroid:
    def test_twisted_loop(self):
        Z = transition_matroid(medial(cat.twisted_loop()))
        assert Z.bases == {(1,), (2,)}

    def test_no_medial_vertices(self):
        Z = transition_matroid(medial(RibbonGraph([[]], [])))
        assert Z == Multimatroid(0, [()])

    def test_connected_graphs_have_bases(self, named):
        for G in named.values():
            if not G.vertices or G.n == 0:
                continue
            if component_count(G) != 1:
                continue
            assert transition_matroid(medial(G)).bases

    def test_tight_over_catalog(self, named):
        for G in named.values():
            if G.n > 4:
                continue
            Z = transition_matroid(medial(G))
            ok, witness = is_multimatroid(Z)
            assert ok, (G, witness)
            tight, witness = is_tight(Z)
            assert tight, (G, witness)

    def test_matches_per_choice_oracle_on_catalog(self):
        for G in cat.enumerate_all(max_edges=3, max_vertices=3):
            assert transition_matroid(medial(G)) == transition_matroid_oracle(medial_oracle(G)), G

    def test_matches_per_choice_oracle_on_random_graphs(self):
        rng = random.Random(4321)
        names = ("black", "white", "crossing")
        for _ in range(30):
            G = cat.random_ribbon(rng, max_edges=6, max_vertices=4)
            while G.n < 4:
                G = cat.random_ribbon(rng, max_edges=6, max_vertices=4)
            G = cat.with_isolated(G, rng.randint(0, 2))
            Fm, M = medial(G), medial_oracle(G)
            assert transition_matroid(Fm) == transition_matroid_oracle(M), G
            for _ in range(8):
                T = tuple(rng.choice(names) for _ in range(Fm.n))
                assert split_components(Fm, T) == split_components_oracle(M, T), (G, T)

    def test_budget(self):
        with pytest.raises(BudgetError, match=r"at 0 medial vertices, got 1 \(3\^1 = 3 transition systems\)$"):
            transition_matroid(medial(cat.twisted_loop()), max_v=0)


def _quasi_tree_options(n):
    return [((0, 0), (1, 1 << k)) for k in range(n)]


class TestKeptSplits:
    """``_kept_splits`` against one split per choice from scratch
    (``kept_splits_oracle``), for both option sets: the transition
    matroid's three roles and the quasi-trees' black/white pairs.  The walk
    reads its last vertex inline, keeps a direct rule for one vertex and
    stops a prefix once it has closed as many cycles as the medial has
    components, so the sizes cover none, one and two vertices, free loops,
    seeded graphs past the 6 edges of the other random tests, and
    disconnected graphs, whose prefixes close cycles before the last
    vertex."""

    @staticmethod
    def check(G, transition=True):
        Fm, M = medial(G), medial_oracle(G)
        table = ribbon._kept_splits(Fm, _quasi_tree_options(G.n))
        assert table == kept_splits_oracle(M, _quasi_tree_options(G.n)), G
        assert SetSystem.from_table(G.n, table).feasible_sets() == quasi_trees_oracle(G), G
        if transition:
            options = ribbon._transition_options(G.n)
            table = ribbon._kept_splits(Fm, options)
            assert table == kept_splits_oracle(M, options), G
            assert Multimatroid.from_table(G.n, table) == transition_matroid_oracle(M), G

    def test_up_to_two_edges_with_free_loops(self):
        graphs = list(cat.enumerate_all(max_edges=2, max_vertices=4))
        assert {G.n for G in graphs} == {0, 1, 2}
        assert any(not rot for G in graphs for rot in G.vertices)
        for G in graphs:
            self.check(G)

    def test_free_loops_do_not_count_toward_the_target(self):
        rng = random.Random(31)
        for _ in range(40):
            G = cat.random_ribbon(rng, max_edges=5, max_vertices=3, min_edges=0)
            for k in (1, 3):
                self.check(cat.with_isolated(G, k))

    def test_seeded_graphs_with_seven_and_eight_edges(self):
        rng = random.Random(32)
        for i in range(8):
            G = cat.random_ribbon(rng, max_edges=8, max_vertices=4, min_edges=7)
            self.check(cat.with_isolated(G, i % 2), transition=i < 2)
        for G in (cat.bouquet([1, -1] * 4, interleaved=True), cat.bouquet([-1] * 7, interleaved=True)):
            self.check(G, transition=False)

    def test_last_vertex_alone_in_its_component(self):
        """A loop summed after a graph of 5-7 edges is the last medial
        vertex and its own component: every other component is closed at
        vertex ``n - 2``.  Summed first, the graph's vertices are the last
        and one component, open until the last vertex."""
        rng = random.Random(33)
        for i in range(6):
            m = 5 + i % 3
            G = cat.random_ribbon(rng, max_edges=m, max_vertices=3, min_edges=m)
            for loop in (cat.untwisted_loop(), cat.twisted_loop()):
                for U in (cat.disjoint_union(G, loop), cat.disjoint_union(loop, G)):
                    assert medial(U).components >= 2
                    self.check(U, transition=m < 7 or i == 2)

    def test_disconnected_graphs_with_isolated_vertices(self):
        """Two or three summands, 6-8 edges in all, padded with 1-2
        isolated vertices, which are free loops of the medial."""
        rng = random.Random(34)
        for i in range(9):
            left, G = 6 + i % 3, RibbonGraph([], [])
            while left:
                m = min(left, rng.randint(2, 4))
                H = cat.random_ribbon(rng, max_edges=m, max_vertices=2, min_edges=m)
                G, left = cat.disjoint_union(G, H), left - m
            self.check(cat.with_isolated(G, 1 + i % 2), transition=G.n < 8 or i == 2)


class TestBridgeIdentity:
    def test_black_white_splits_match_quasi_trees(self, named):
        """Choosing only black/white transitions preserves the component
        count exactly when the white-chosen labels span a quasi-tree."""
        for key, G in named.items():
            if G.n > 3:
                continue
            Fm = medial(G)
            k_full = component_count(G)
            trees = set(spanning_quasi_trees(G))
            for pattern in itertools.product(("black", "white"), repeat=G.n):
                white_labels = tuple(
                    i for i, name in enumerate(pattern, start=1) if name == "white"
                )
                preserved = split_components(Fm, pattern) == k_full
                assert preserved == (white_labels in trees), (key, pattern)


    def test_black_white_splits_count_sub_boundaries(self):
        """The split white at the edges of ``A`` and black elsewhere has
        as many components as ``(V, A)`` has traced boundary walks, for
        every ``A`` of 60% of the <=3-edge catalog and of 300 random graphs
        with up to 6 edges."""
        rng = random.Random(11)
        graphs = itertools.chain(
            (G for G in cat.enumerate_all() if rng.random() < 0.6),
            (cat.random_ribbon(rng, max_edges=6) for _ in range(300)),
        )
        for G in graphs:
            Fm = medial(G)
            for pattern in itertools.product(("black", "white"), repeat=G.n):
                A = frozenset(i for i, name in enumerate(pattern, start=1) if name == "white")
                assert split_components(Fm, pattern) == sub_boundary(G, A), (G, pattern)


class TestMedialLiftAgreement:
    def test_report_is_frozen(self):
        for report in (verify_medial_lift(cat.twisted_loop()), MedialLiftReport(False, ((1, 3),), ())):
            assert_frozen(report, "equal", "only_medial", "only_lift")
            assert not hasattr(report, "__dict__")

    def test_loops(self, vf_cache):
        for G in (cat.twisted_loop(), cat.untwisted_loop()):
            report = verify_medial_lift(G, vf_cache=vf_cache)
            assert report.equal, report

    def test_single_edge(self, vf_cache):
        report = verify_medial_lift(cat.path_graph([1]), vf_cache=vf_cache)
        assert report.equal, report

    def test_named_catalog(self, named, vf_cache):
        for key, G in named.items():
            if G.n > 4:
                continue
            report = verify_medial_lift(G, vf_cache=vf_cache)
            assert report.equal, (key, report.only_medial, report.only_lift)

    def test_mismatch_lists_sorted_differences(self, monkeypatch, vf_cache):
        """With two bases of the medial side swapped for two non-bases,
        the report names exactly those, each side sorted as tuples.  The
        pairs differ in class 1 and in opposite order in class 2, so the
        base-table order would list them the other way round."""
        G = cat.path_graph([1, -1])
        Zm = transition_matroid(medial(G))
        removed, added = [(2, 3), (3, 2)], [(1, 3), (3, 1)]
        assert set(removed) <= Zm.bases and not set(added) & Zm.bases
        fake = Multimatroid(2, (Zm.bases - set(removed)) | set(added))
        monkeypatch.setattr(ribbon, "transition_matroid", lambda Fm, **kw: fake)
        report = verify_medial_lift(G, vf_cache=vf_cache)
        assert not report.equal
        assert (report.only_medial, report.only_lift) == (tuple(added), tuple(removed))
        assert report.to_json()["only_lift"] == [[[1, 2], [2, 3]], [[1, 3], [2, 2]]]

    def test_one_closure_without_a_cache(self, monkeypatch):
        """Without ``vf_cache`` the one vf-safety check of the quasi-tree
        system runs the exchange walk as often as with an empty dict: it
        walks the vf-safety closure once.  The graph is binary, so the
        certificate is switched off to walk the closure."""
        monkeypatch.setattr(set_system, "_is_binary", lambda table, n: False)
        calls = []
        walk = set_system._exchange_failures

        def counted(table, n):
            calls.append(table)
            return walk(table, n)

        monkeypatch.setattr(set_system, "_exchange_failures", counted)
        G = cat.bouquet([1, -1, 1, 1], interleaved=True)
        counts = []
        for cache in (None, {}):
            calls.clear()
            assert verify_medial_lift(G, vf_cache=cache).equal
            counts.append(len(calls))
        assert counts[0] == counts[1] > 1

    def test_budget(self):
        with pytest.raises(BudgetError, match=r"at 0 edges, got 1 \(3\^1 = 3 transition systems\)$"):
            verify_medial_lift(cat.twisted_loop(), max_e=0)


def _interleaved_bouquets():
    for n in (4, 5, 6):
        for signs in ([1] * n, [-1] * n, [1, -1] * (n // 2) + [1] * (n % 2)):
            yield cat.bouquet(signs, interleaved=True)


def _random_graphs(seed, count, min_edges, max_edges):
    rng = random.Random(seed)
    while count:
        G = cat.random_ribbon(rng, max_edges=max_edges, max_vertices=4)
        if G.n >= min_edges:
            count -= 1
            yield G


class TestOneSplitWalk:
    """``verify_medial_lift`` walks the medial's splits once and reads
    ``D(G)`` off the transition table; these tests give that black/white
    half its own checks, next to the boundary tracer of
    ``TestBridgeIdentity``."""

    def test_read_off_system_matches_walk_and_oracle(self, monkeypatch):
        """The system ``verify_medial_lift`` checks and lifts equals the
        quasi-tree walk, the extraction at the reference triple, and the
        two-condition oracle, on the whole <=3-edge catalog, on seeded
        random graphs with 4-6 edges and on interleaved bouquets."""
        seen = []
        checked = ribbon._checked_delta_matroid

        def spy(G, D, vf_cache):
            seen.append(D)
            return checked(G, D, vf_cache)

        monkeypatch.setattr(ribbon, "_checked_delta_matroid", spy)
        graphs = itertools.chain(
            cat.enumerate_all(), _random_graphs(23, 150, 4, 6), _interleaved_bouquets()
        )
        cache = {}
        for G in graphs:
            seen.clear()
            assert verify_medial_lift(G, vf_cache=cache).equal, G
            (D,) = seen
            assert D == ribbon._quasi_tree_system(G, G.n), G
            assert D.feasible_sets() == quasi_trees_oracle(G), G
            if G.n <= 3:
                Zm = transition_matroid(medial(G))
                ref = TransversalTriple.reference(G.n), Projection.identity(G.n)
                assert D == extract(Zm, *ref), G

    def test_one_split_walk_and_one_vf_check_per_call(self, monkeypatch):
        """One call runs ``_kept_splits`` once and the vf-safety check
        once, with or without a cache: calling ``lift`` instead would
        repeat the vf-safety check and spread ``D`` (``_spread``).  A
        vf-safe system needs no exchange walk of its own.  An equal graph
        runs no ``_role_steps`` and gets the shared report; a mismatch,
        forced by flipping one bit of the walk's table, runs it once."""
        counts = collections.Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in (
            (ribbon, "_kept_splits"),
            (ribbon, "_vf_safety"),
            (ribbon, "_exchange_failures"),
            (ribbon, "_role_steps"),
            (multimatroid, "_spread"),
            (multimatroid, "is_vf_safe"),
        ):
            count(module, name)
        graphs = [G for G in cat.named_fixtures().values() if G.n <= 6]
        graphs += list(_random_graphs(29, 20, 1, 6))
        for G in graphs:
            for cache in (None, {}):
                counts.clear()
                report = verify_medial_lift(G, vf_cache=cache)
                assert report is ribbon._EQUAL_REPORT, G
                assert counts == {"_kept_splits": 1, "_vf_safety": 1}, (G, counts)
        walk = ribbon._kept_splits
        # the all-crossing system, bit 4**n - 1, holds no black/white entry of D(G)
        monkeypatch.setattr(ribbon, "_kept_splits", lambda Fm, options: walk(Fm, options) ^ 1 << (4**Fm.n - 1))
        for G in graphs:
            if G.n:
                counts.clear()
                assert not verify_medial_lift(G, vf_cache={}).equal, G
                assert counts == {"_kept_splits": 1, "_vf_safety": 1, "_role_steps": 1}, (G, counts)


class TestClassStepOnTheTransitionTable:
    """``verify_medial_lift`` runs the lift's class step on the transition
    table; ``medial_lift_oracle`` extracts ``D(G)`` and places it set by
    set, as the check did before."""

    def test_reports_match_the_oracle(self, vf_cache):
        """The whole <=3-edge catalog, seeded random graphs with 4-6 edges
        and interleaved bouquets, against both oracles: the lift built
        from ``D(G)`` and the lift rebuilt from the transition table."""
        graphs = itertools.chain(
            cat.enumerate_all(), _random_graphs(31, 100, 4, 6), _interleaved_bouquets()
        )
        for G in graphs:
            report = verify_medial_lift(G, vf_cache=vf_cache)
            assert report.equal and report == medial_lift_oracle(G), G
            assert report == lift_rebuild_oracle(transition_matroid(medial(G)).table, G.n), G

    def test_forced_mismatch_matches_the_oracle(self, monkeypatch, vf_cache):
        """With one bit of a transition system that has a crossing flipped
        in the walk's table, the report lists that system on one side, and
        both sides equal the oracle's."""
        rng = random.Random(37)
        walk, flip = ribbon._kept_splits, [0]
        monkeypatch.setattr(ribbon, "_kept_splits", lambda Fm, options: walk(Fm, options) ^ flip[0])
        graphs = [G for G in cat.named_fixtures().values() if 1 <= G.n <= 6]
        graphs += list(_random_graphs(41, 40, 1, 6))
        for G in graphs:
            choice = [rng.randint(1, 3) for _ in range(G.n)]
            choice[rng.randrange(G.n)] = 3
            flip[0] = 1 << sum(r << 2 * k for k, r in enumerate(choice))
            report = verify_medial_lift(G, vf_cache=vf_cache)
            assert not report.equal and report == medial_lift_oracle(G), (G, choice)
            assert report == lift_rebuild_oracle(transition_matroid(medial(G)).table, G.n), (G, choice)
            assert report.only_medial + report.only_lift == (tuple(choice),), (G, choice)

    def test_one_medial_and_one_transition_matroid_per_call(self, monkeypatch, vf_cache):
        """One call goes through the module attributes ``medial`` and
        ``transition_matroid`` once each, which the perfbench tracer wraps
        for its ``ribbon.transition_matroid.*`` metrics."""
        counts = collections.Counter()

        def count(name):
            original = getattr(ribbon, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(ribbon, name, counted)

        count("medial")
        count("transition_matroid")
        graphs = [G for G in cat.named_fixtures().values() if G.n <= 6]
        for G in graphs + list(_random_graphs(43, 10, 1, 6)):
            counts.clear()
            assert verify_medial_lift(G, vf_cache=vf_cache).equal, G
            assert counts == {"medial": 1, "transition_matroid": 1}, (G, counts)


def _no_digit_zero(n):
    """The ``4**n``-bit mask of the indices with no base-4 digit 0."""
    return sum(1 << i for i in range(4**n) if all(i >> 2 * k & 3 for k in range(n)))


class TestPerClassLiftTest:
    """``is_reference_lift_oracle``, the class-by-class test that
    ``verify_medial_lift`` makes, against ``lift_rebuild_oracle``, which
    rebuilds the whole lift and compares."""

    def test_seeded_tables(self):
        """Per ``n <= 5``: random tables, random tables with no digit 0,
        true lifts of random truth tables, and those lifts with 1-3 bits
        flipped.  Both verdicts occur at every ``n >= 1``."""
        rng = random.Random(47)
        for n in range(6):
            size, no_zero, ref = 4**n, _no_digit_zero(n), ((1, 2, 3),) * n
            verdicts = collections.Counter()
            for _ in range(60):
                lifted = multimatroid._role_steps(multimatroid._spread(rng.getrandbits(1 << n), n), ref)
                flipped = lifted
                for i in rng.sample(range(size), rng.randint(1, min(3, size))):
                    flipped ^= 1 << i
                raw = rng.getrandbits(size)
                for table in (raw, raw & no_zero, lifted, flipped):
                    verdict = is_reference_lift_oracle(table, n)
                    assert verdict == lift_rebuild_oracle(table, n).equal, (n, table)
                    verdicts[verdict] += 1
            assert verdicts[True] and (verdicts[False] or n == 0), (n, verdicts)

    def test_fused_pass_matches_role_steps_and_extract(self):
        """``multimatroid._reference_extract`` against ``_role_steps`` at
        the reference roles and against ``extract`` at the reference triple,
        per ``n <= 5``: random tables, random tables with no digit 0, true
        lifts, and lifts with 1-4 bits flipped, anywhere or only at entries
        with a digit 0 or 3 below a random class ``k``.  Extraction drops
        those entries before class ``k``, so the fixed-point test must read
        the untouched table.  Both verdicts occur at every ``n >= 1``."""
        rng = random.Random(53)
        for n in range(6):
            size, no_zero, ref = 4**n, _no_digit_zero(n), ((1, 2, 3),) * n
            reference, identity = TransversalTriple.reference(n), Projection.identity(n)
            verdicts = collections.Counter()
            for _ in range(40):
                lifted = multimatroid._role_steps(multimatroid._spread(rng.getrandbits(1 << n), n), ref)
                k = rng.randrange(1, n) if n > 1 else 1
                below = [i for i in range(size) if any((i >> 2 * j & 3) in (0, 3) for j in range(k))]
                tables = [rng.getrandbits(size), rng.getrandbits(size) & no_zero, lifted]
                for sites in (range(size), below):
                    broken = lifted
                    for i in rng.sample(sites, min(rng.randint(1, 4), len(sites))):
                        broken ^= 1 << i
                    tables.append(broken)
                for table in tables:
                    extracted, is_lift = multimatroid._reference_extract(table, n)
                    assert is_lift == (multimatroid._role_steps(table, ref) == table), (n, table)
                    assert extracted == extract(Multimatroid.from_table(n, table), reference, identity).table
                    verdicts[is_lift] += 1
            assert verdicts[True] and (verdicts[False] or n == 0), (n, verdicts)

    def test_catalog_transition_tables(self):
        """Every transition table of the <=3-edge catalog is a lift."""
        for G in cat.enumerate_all():
            table = transition_matroid(medial(G)).table
            assert is_reference_lift_oracle(table, G.n), G
            assert lift_rebuild_oracle(table, G.n).equal, G
