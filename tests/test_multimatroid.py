import itertools
import json
import random
import re

import pytest

from twuality import (
    BAR,
    BudgetError,
    FLIPS,
    Multimatroid,
    ONE,
    PLUS,
    Perm,
    Projection,
    STAR,
    SetSystem,
    TransversalTriple,
    TwualityElement,
    ValidationError,
    act,
    all_triples,
    apply_flip,
    extract,
    flip_mul,
    is_multimatroid,
    is_tight,
    is_vf_safe,
    lift,
    loop_complement,
    orbit,
    orbit_via_lift,
    restrict,
    triple_flip,
    triple_word,
    twist,
    vec_inv,
)

import ribbon_catalog
from conftest import assert_frozen, assert_quoted_up_to_the_bound
from oracles import (
    _compatible,
    choices_oracle,
    down_closure,
    extract_oracle,
    is_multimatroid_oracle,
    is_tight_oracle,
    lift_oracle,
    orbit_via_lift_oracle,
    restrict_oracle,
    spread_oracle,
    tightness_oracle,
)
from twuality import delta_matroid_of, multimatroid
from twuality.set_system import relabel, sorted_systems

ss = SetSystem.from_sets

P3 = sorted(itertools.permutations((1, 2, 3)))


@pytest.fixture(scope="module")
def pool(rng, vf_cache):
    """Pool of small vf-safe delta-matroids: quasi-tree systems of random
    ribbon graphs plus random group translates of them."""
    out, seen = [], set()
    while len(out) < 40:
        G = ribbon_catalog.random_ribbon(rng, max_edges=4)
        D = delta_matroid_of(G, vf_cache=vf_cache)
        gv = tuple(rng.choice(FLIPS) for _ in range(D.n))
        p = Perm(rng.sample(range(1, D.n + 1), D.n))
        for X in (D, act(TwualityElement(gv, p), D)):
            if X not in seen:
                seen.add(X)
                out.append(X)
    return out


def rand_triple(rng, n):
    return TransversalTriple(tuple(rng.choice(P3) for _ in range(n)))


def rand_projection(rng, n):
    return Projection(Perm(rng.sample(range(1, n + 1), n)))


def rand_system(rng, n, vf_cache):
    """The quasi-tree system of a random ribbon graph with ``n`` edges."""
    while True:
        G = ribbon_catalog.random_ribbon(rng, max_edges=n)
        if G.n == n:
            return delta_matroid_of(G, vf_cache=vf_cache)


def rand_multimatroid(rng, max_n=4):
    """A random base set on at most ``max_n`` classes, possibly empty."""
    n = rng.randint(0, max_n)
    choices = list(itertools.product((1, 2, 3), repeat=n))
    return Multimatroid(n, rng.sample(choices, rng.randint(0, min(len(choices), 12))))


class TestTypes:
    def test_choices_match_digit_loop(self, rng, pool, vf_cache):
        """Random sparse tables, digit 0 included, per class count up to the
        cap; the dense table of every subtransversal; and lift tables, whose
        ``to_json`` lists the oracle's tuples sorted."""
        tables = [(n, 0) for n in range(11)] + [(3, (1 << 64) - 1), (10, 1 << 4**10 - 1)]
        for n in range(11):
            for _ in range(10):
                tables.append((n, sum(1 << rng.randrange(4**n) for _ in range(rng.randint(1, 200)))))
        for D in pool:
            Z = lift(D, rand_triple(rng, D.n), rand_projection(rng, D.n), vf_cache=vf_cache)
            tables.append((Z.n, Z.table))
            bases = [[[i, r] for i, r in enumerate(b, start=1)] for b in sorted(choices_oracle(Z.n, Z.table))]
            assert Z.to_json() == {"n": Z.n, "bases": bases}
        for n, table in tables:
            assert multimatroid._choices(n, table) == choices_oracle(n, table), (n, table)

    def test_frozen(self):
        assert_frozen(Multimatroid(2, [(1, 2), (2, 1)]), "n", "table")
        assert_frozen(Multimatroid.from_table(1, 0b10), "n", "table")
        assert_frozen(TransversalTriple(((1, 2, 3), (2, 1, 3))), "roles")
        assert_frozen(Projection(Perm((2, 1))), "relabel")

    def test_repr_and_json(self):
        assert repr(TransversalTriple(((1, 2, 3), (2, 1, 3)))) == "TransversalTriple([[1, 2, 3], [2, 1, 3]])"
        assert repr(Projection(Perm((2, 1)))) == "Projection([2, 1])"
        assert Projection(Perm((2, 3, 1))).to_json() == [2, 3, 1]
        assert repr(Multimatroid(2, [(2, 1), (1, 2)])) == "Multimatroid(2, [(1, 2), (2, 1)])"

    def test_triple_validation_and_json(self):
        tau = TransversalTriple(((1, 2, 3), (2, 1, 3)))
        assert tau.slot_of(2, 1) == 2
        assert tau.member_in_slot(2, 1) == 2
        assert TransversalTriple.from_json(tau.to_json()) == tau
        for roles in (((1, 2, 2),), [[True, 2, 3]], [[1.0, 2, 3]], 5, [5], ["123"]):
            with pytest.raises(ValidationError):
                TransversalTriple(roles)
        with pytest.raises(ValidationError):
            TransversalTriple.from_json({"roles": 5})

    def test_reference_triple(self):
        tau = TransversalTriple.reference(2)
        assert tau.transversal(1) == ((1, 1), (2, 1))
        assert tau.transversal(3) == ((1, 3), (2, 3))

    def test_projection(self):
        sigma = Projection(Perm((2, 3, 1)))
        assert sigma.label_of(1) == 2
        assert sigma.class_of(2) == 1
        assert Projection.identity(3).label_of(2) == 2

    def test_multimatroid_json_round_trip(self):
        Z = Multimatroid(2, [(1, 2), (3, 3)])
        data = Z.to_json()
        assert data == {"n": 2, "bases": [[[1, 1], [2, 2]], [[1, 3], [2, 3]]]}
        assert Multimatroid.from_json(data) == Z

    def test_canonical_json_matches_dumps(self, vf_cache):
        """Seeded lifts with n = 0..6 at random triples and projections,
        random bases on 7..10 classes, whose indices take two and three
        bytes, and base tables with no bases or one basis of no classes."""
        rng = random.Random(71)
        Zs = [Multimatroid(0, [()]), Multimatroid(0, []), Multimatroid(2, [])]
        for n in range(7):
            for _ in range(5):
                D = rand_system(rng, n, vf_cache) if n else SetSystem(0, [0])
                Zs.append(lift(D, rand_triple(rng, n), rand_projection(rng, n), vf_cache=vf_cache))
        for n in range(7, 11):
            bases = {tuple(rng.choices((1, 2, 3), k=n)) for _ in range(60)}
            Zs.append(Multimatroid(n, bases))
        for Z in Zs:
            assert Z.canonical_json() == json.dumps(Z.to_json(), sort_keys=True, separators=(",", ":")), Z

    def test_multimatroid_json_rejects(self):
        with pytest.raises(ValidationError):
            Multimatroid.from_json({"n": 1, "bases": [[[1, 1], [1, 2]]]})
        with pytest.raises(ValidationError):
            Multimatroid.from_json({"n": 1, "bases": [[[1, 4]]]})
        with pytest.raises(ValidationError):
            Multimatroid.from_json({"n": 1, "bases": [[[1, 1]], [[1, 1]]]})
        for bases in (5, [[[True, 1]]], [[[1, True]]], [[[1, 1.0]]]):
            with pytest.raises(ValidationError):
                Multimatroid.from_json({"n": 1, "bases": bases})
        with pytest.raises(ValidationError):
            Multimatroid(1, [(1, 2)])
        with pytest.raises(ValidationError):
            Multimatroid.from_json({"n": 11, "bases": []})

    @pytest.mark.parametrize(
        "n, bases",
        [
            (True, []),  # bool class count
            (1.0, []),  # non-int class count
            (-1, []),  # negative class count
            (1, [(True,)]),  # bool role
            (1, [(1.0,)]),  # non-int role
            (11, []),  # more classes than a base table holds
            (1, [5]),  # a basis that is not iterable
            (1, 5),  # bases that are not iterable
        ],
    )
    def test_multimatroid_rejects_library_input(self, n, bases):
        with pytest.raises(ValidationError):
            Multimatroid(n, bases)

    def test_from_table_round_trip(self, rng):
        for _ in range(50):
            Z = rand_multimatroid(rng)
            assert Multimatroid.from_table(Z.n, Z.table) == Z
            assert hash(Multimatroid.from_table(Z.n, Z.table)) == hash(Z)
            assert Multimatroid(Z.n, Z.bases) == Z

    def test_carrier(self):
        Z = Multimatroid(2, [(1, 1)])
        assert Z.carrier.skew_class(1) == ((1, 1), (1, 2), (1, 3))
        assert len(Z.carrier.elements()) == 6
        with pytest.raises(ValidationError):
            Z.carrier.skew_class(True)


REF = [TransversalTriple.reference(n) for n in range(4)]
ID = [Projection.identity(n) for n in range(4)]


class TestLiftExtract:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: lift(ss(2, [()]), REF[3]), "triple/projection size must match the ground size"),
            (lambda: lift(ss(2, [()]), None, ID[1]), "triple/projection size must match the ground size"),
            (lambda: extract(Multimatroid(1, [(1,)]), REF[2], ID[1]), "triple/projection size must match the carrier"),
            (lambda: extract(Multimatroid(1, [(1,)]), REF[1], ID[2]), "triple/projection size must match the carrier"),
            (lambda: triple_word(REF[2], (STAR,), ID[2]), "size mismatch"),
            (lambda: triple_word(REF[2], (STAR, PLUS), ID[3]), "size mismatch"),
            (lambda: orbit_via_lift(ss(1, [()]), mode="all"), "mode must be 'full' or 'iota', got 'all'"),
        ],
        ids=["lift-tau", "lift-sigma", "extract-tau", "extract-sigma", "word-gvec", "word-sigma", "ovl-mode"],
    )
    def test_size_or_mode_mismatch_is_a_validation_error(self, call, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()

    def test_singleton_lift_example(self):
        Z = lift(ss(1, [()]))
        assert Z.bases == {(1,), (3,)}

    def test_extract_inverts_lift_on_example(self):
        D = ss(1, [()])
        Z = lift(D)
        assert extract(Z, TransversalTriple.reference(1), Projection.identity(1)) == D

    def test_extract_can_be_improper(self):
        Z = Multimatroid(1, [(3,)])
        out = extract(Z, TransversalTriple.reference(1), Projection.identity(1))
        assert not out.is_proper

    def test_lift_rejects_unsafe(self):
        bad = ss(3, [s for r in range(3) for s in itertools.combinations((1, 2, 3), r)])
        with pytest.raises(ValidationError):
            lift(bad)

    def test_lift_budget(self):
        with pytest.raises(BudgetError, match=r"^lift capped at n <= 8, got 9 \(3\^9 = 19,683 transversals\)$"):
            lift(SetSystem(9, [0]))

    def test_lift_matches_per_choice_oracle(self, pool, rng, vf_cache):
        for D in pool:
            tau, sigma = rand_triple(rng, D.n), rand_projection(rng, D.n)
            Z = lift(D, tau, sigma, vf_cache=vf_cache)
            assert Z == lift_oracle(D, tau, sigma), (D, tau, sigma)

    def test_lift_builds_through_the_shared_builder(self, monkeypatch, rng, vf_cache):
        """``lift`` keeps its checks and builds the table with one
        ``_spread`` and one ``_role_steps``, the class step that
        ``verify_medial_lift`` runs directly on the transition table:
        random triples and projections on random systems with n <= 5, and
        their random group translates, against the per-choice oracle."""
        built = []

        def spy(name):
            original = getattr(multimatroid, name)

            def counted(*args):
                built.append(name)
                return original(*args)

            monkeypatch.setattr(multimatroid, name, counted)

        spy("_spread")
        spy("_role_steps")
        for _ in range(60):
            D = rand_system(rng, rng.randint(1, 5), vf_cache)
            gv = tuple(rng.choice(FLIPS) for _ in range(D.n))
            D = rng.choice((D, act(TwualityElement(gv, Perm(rng.sample(range(1, D.n + 1), D.n))), D)))
            tau, sigma = rand_triple(rng, D.n), rand_projection(rng, D.n)
            built.clear()
            assert lift(D, tau, sigma, vf_cache=vf_cache) == lift_oracle(D, tau, sigma), (D, tau, sigma)
            assert built == ["_spread", "_role_steps"]

    def test_spread_matches_per_set_placement(self, rng):
        """``_spread`` places every family with n <= 4, and random ones
        with n <= 8, dense and sparse, as the per-set oracle does."""
        for n in range(5):
            for table in range(1 << (1 << n)):
                assert multimatroid._spread(table, n) == spread_oracle(table, n), (n, table)
        for n in range(5, 9):
            for _ in range(20):
                table = rng.getrandbits(1 << n) & rng.choice((-1, rng.getrandbits(1 << n)))
                assert multimatroid._spread(table, n) == spread_oracle(table, n), (n, table)

    def test_extract_matches_per_basis_oracle(self, rng):
        for _ in range(200):
            Z = rand_multimatroid(rng)
            tau, sigma = rand_triple(rng, Z.n), rand_projection(rng, Z.n)
            assert extract(Z, tau, sigma) == extract_oracle(Z, tau, sigma), (Z, tau, sigma)

    def test_round_trip_random(self, pool, rng, vf_cache):
        for _ in range(40):
            D = rng.choice(pool)
            tau = rand_triple(rng, D.n)
            sigma = rand_projection(rng, D.n)
            assert extract(lift(D, tau, sigma, vf_cache=vf_cache), tau, sigma) == D


class TestAxioms:
    def test_lift_is_multimatroid_and_tight(self, pool, rng, vf_cache):
        for _ in range(12):
            D = rng.choice(pool)
            if D.n > 4:
                continue
            Z = lift(D, rand_triple(rng, D.n), rand_projection(rng, D.n), vf_cache=vf_cache)
            ok, witness = is_multimatroid(Z)
            assert ok, witness
            tight, witness = is_tight(Z)
            assert tight, witness

    def test_empty_bases_fail(self):
        ok, witness = is_multimatroid(Multimatroid(1, []))
        assert not ok and witness["axiom"] == 1

    def test_two_of_three_single_class(self):
        Z = Multimatroid(1, [(1,), (3,)])
        ok, _ = is_multimatroid(Z)
        assert ok
        tight, _ = is_tight(Z)
        assert tight

    def test_single_basis_not_tight(self):
        tight, witness = is_tight(Multimatroid(1, [(1,)]))
        assert not tight
        assert witness == {"basis": [1], "class": 1, "non_bases": [2, 3]}

    def test_axiom2_failure_detected(self):
        # two bases differing in both classes: the skew-pair axiom fails
        # at the empty set's extensions in class 1
        Z = Multimatroid(2, [(1, 1), (2, 2)])
        ok, witness = is_multimatroid(Z)
        assert not ok, witness

    def test_random_base_sets_match_oracle(self, rng):
        """Flag and witness agree with the per-transversal pair scan on
        random base sets, the empty one and failures of both axioms among
        them."""
        axioms = set()
        for _ in range(300):
            Z = rand_multimatroid(rng)
            result = is_multimatroid(Z)
            assert result == is_multimatroid_oracle(Z), Z
            if not result[0]:
                axioms.add(result[1]["axiom"])
        assert axioms == {1, 2}

    def test_tightness_matches_oracle(self, pool, rng, vf_cache):
        """Flag and witness agree with the set-membership scan on random
        base sets and on lifts, so both outcomes occur."""
        lifts = [
            lift(D, rand_triple(rng, D.n), rand_projection(rng, D.n), vf_cache=vf_cache) for D in pool
        ]
        flags = set()
        for Z in [rand_multimatroid(rng) for _ in range(300)] + lifts:
            result = is_tight(Z)
            assert result == is_tight_oracle(Z), Z
            flags.add(result[0])
        assert flags == {True, False}

    def test_tightness_matches_basis_loop_on_lifts(self, vf_cache):
        """Flag and witness agree with the basis-by-basis probe of the base
        table on lifts of quasi-tree systems with 3 to 6 elements, and on
        each lift with one basis removed or one other transversal added."""
        rng = random.Random(3)
        flags, cases = set(), 0
        for n in range(3, 7):
            for _ in range(5):
                G = ribbon_catalog.random_ribbon(rng, max_edges=n, min_edges=n)
                D = delta_matroid_of(G, vf_cache=vf_cache)
                Z = lift(D, rand_triple(rng, n), rand_projection(rng, n), vf_cache=vf_cache)
                bases = [1 << multimatroid._index(b) for b in Z.sorted_bases()]
                others = [1 << multimatroid._index(c) for c in itertools.product((1, 2, 3), repeat=n)]
                others = [bit for bit in others if not Z.table & bit]
                toggles = [0] + rng.sample(bases, 5) + rng.sample(others, 5)
                for bit in toggles:
                    Y = Multimatroid.from_table(n, Z.table ^ bit)
                    result = is_tight(Y)
                    assert result == tightness_oracle(Y), (D, bit)
                    flags.add(result[0])
                    cases += 1
        assert cases == 220 and flags == {True, False}

    def test_lifts_match_oracle(self, pool, rng, vf_cache):
        systems = [D for D in pool if D.n <= 4][:6]
        while len(systems) < 8:
            G = ribbon_catalog.random_ribbon(rng, max_edges=5)
            if G.n == 5:
                systems.append(delta_matroid_of(G, vf_cache=vf_cache))
        for D in systems:
            Z = lift(D, rand_triple(rng, D.n), rand_projection(rng, D.n), vf_cache=vf_cache)
            assert is_multimatroid(Z) == is_multimatroid_oracle(Z) == (True, None)

    @pytest.mark.parametrize(
        "bases, witness",
        [
            # transversal (1, 1, 2) keeps {1, 2} of the first basis and {3}
            # of the second: maximal sets of two sizes; (1, 1, 1) passes
            ([(1, 1, 1), (2, 2, 2)], {"transversal": [1, 1, 2], "I": [0, 0, 2], "J": [1, 1, 0]}),
            # transversal (1, 1, 1, 1) keeps {1, 2} and {3, 4}: maximal sets
            # of one size that fail exchange
            (
                [(1, 1, 2, 2), (2, 2, 1, 1)],
                {"transversal": [1, 1, 1, 1], "I": [0, 0, 0, 1], "J": [1, 1, 0, 0]},
            ),
        ],
    )
    def test_axiom1_failure_modes(self, bases, witness):
        Z = Multimatroid(len(bases[0]), bases)
        expected = (False, {"axiom": 1, **witness})
        assert is_multimatroid(Z) == is_multimatroid_oracle(Z) == expected

    def test_perturbed_lifts_at_five_match_oracle(self, rng, vf_cache):
        """Lifts at n = 5 under random triples and projections, as built,
        with one basis dropped and with one transversal added: flag and
        witness agree with the per-transversal pair scan."""
        witnesses = set()
        for _ in range(3):
            D = rand_system(rng, 5, vf_cache)
            Z = lift(D, rand_triple(rng, 5), rand_projection(rng, 5), vf_cache=vf_cache)
            bases = list(Z.sorted_bases())
            others = [c for c in itertools.product((1, 2, 3), repeat=5) if c not in Z.bases]
            for variant in (bases, bases[:-1], bases + [rng.choice(others)]):
                W = Multimatroid(5, variant)
                result = is_multimatroid(W)
                assert result == is_multimatroid_oracle(W), W
                witnesses.add(result[1] and result[1]["axiom"])
        assert {None, 1} <= witnesses

    def test_each_transversal_table_walked_once(self, pool, rng, vf_cache, monkeypatch):
        """The exchange walk runs once per distinct transversal table,
        which many transversals share."""
        real, walked = multimatroid._exchange_failures, []
        monkeypatch.setattr(
            multimatroid, "_exchange_failures", lambda t, n: walked.append(t) or real(t, n)
        )
        shared = False
        for D in [D for D in pool if D.n >= 2][:8]:
            Z = lift(D, rand_triple(rng, D.n), rand_projection(rng, D.n), vf_cache=vf_cache)
            walked.clear()
            assert is_multimatroid(Z) == (True, None)
            independents = down_closure(Z)
            distinct = set()  # per transversal, the class sets of its independents
            for T in itertools.product((1, 2, 3), repeat=Z.n):
                members = (I for I in independents if _compatible(I, T))
                distinct.add(frozenset(sum(1 << k for k, r in enumerate(I) if r) for I in members))
            assert len(walked) == len(set(walked)) == len(distinct)
            shared |= len(distinct) < 3**Z.n
        assert shared

    def test_budget(self):
        with pytest.raises(BudgetError, match=r"^is_multimatroid .* got 7 \(3\^7 = 2,187 transversals\)$"):
            is_multimatroid(Multimatroid(7, [(1,) * 7]))
        with pytest.raises(BudgetError, match=r"^is_tight .* got 7 \(3\^7 = 2,187 transversals\)$"):
            is_tight(Multimatroid(7, [(1,) * 7]))


class TestRestrict:
    def test_whole_carrier(self):
        Z = Multimatroid(1, [(1,), (3,)])
        res = restrict(Z, Z.carrier.elements())
        assert set(res.bases) == Z.bases

    def test_singleton_example(self):
        Z = Multimatroid(1, [(1,), (3,)])
        res = restrict(Z, [(1, 1), (1, 2)])
        assert res.bases == ((1,),)
        assert res.independents == {(0,), (1,)}

    def test_malformed(self):
        Z = Multimatroid(1, [(1,)])
        with pytest.raises(ValidationError):
            restrict(Z, [(1, 4)])
        with pytest.raises(ValidationError):
            restrict(Z, [7])
        with pytest.raises(ValidationError):
            restrict(Z, 5)

    @pytest.mark.parametrize(
        "pair, message",
        [((1,) * 100, "carrier element {} must be an (index, role) pair"), ((1, 10**200), "carrier element {} out of range")],
        ids=["pair", "range"],
    )
    def test_long_pair_is_quoted_up_to_the_bound(self, pair, message):
        with pytest.raises(ValidationError) as refused:
            restrict(Multimatroid(1, [(1,)]), [pair])
        assert str(refused.value) == message.format(repr(pair)[:80] + "…")

    @pytest.mark.parametrize("pair", [(1, True), (1, 1.0), (True, 1)])
    def test_rejects_bool_and_non_int_members(self, pair):
        with pytest.raises(ValidationError):
            restrict(Multimatroid(1, [(1,)]), [pair])

    def test_matches_oracle(self, rng):
        """Independents and bases agree with the tuple scan on random base
        sets restricted to random carrier subsets."""
        for _ in range(300):
            Z = rand_multimatroid(rng)
            X = [x for x in Z.carrier.elements() if rng.random() < 0.7]
            assert restrict(Z, X) == restrict_oracle(Z, X), (Z, X)

    def test_identity_on_lifts(self, pool, rng, vf_cache):
        """Bases of the restriction to the first two transversals equal
        the bases of Z avoiding the third, computed independently."""
        for _ in range(10):
            D = rng.choice(pool)
            tau = rand_triple(rng, D.n)
            sigma = rand_projection(rng, D.n)
            Z = lift(D, tau, sigma, vf_cache=vf_cache)
            res = restrict(Z, tau.transversal(1) + tau.transversal(2))
            direct = {
                b
                for b in Z.bases
                if all(tau.slot_of(i, r) != 3 for i, r in enumerate(b, start=1))
            }
            assert set(res.bases) == direct


class TestTripleOperations:
    def test_reference_twist(self):
        tau = triple_flip(TransversalTriple.reference(2), STAR, 1)
        assert tau.roles == ((2, 1, 3), (1, 2, 3))

    def test_involutions(self, rng):
        for _ in range(20):
            n = rng.randint(1, 4)
            tau = rand_triple(rng, n)
            i = rng.randint(1, n)
            for g in (STAR, PLUS, BAR):
                assert triple_flip(triple_flip(tau, g, i), g, i) == tau

    def test_bar_word_identity(self, rng):
        for _ in range(20):
            n = rng.randint(1, 4)
            tau = rand_triple(rng, n)
            i = rng.randint(1, n)
            word = triple_flip(triple_flip(triple_flip(tau, PLUS, i), STAR, i), PLUS, i)
            assert word == triple_flip(tau, BAR, i)

    def test_right_action(self, rng):
        for _ in range(40):
            n = rng.randint(1, 4)
            tau = rand_triple(rng, n)
            i = rng.randint(1, n)
            g, h = rng.choice(FLIPS), rng.choice(FLIPS)
            assert triple_flip(triple_flip(tau, h, i), g, i) == triple_flip(
                tau, flip_mul(g, h), i
            )

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            triple_flip(TransversalTriple.reference(2), STAR, 3)
        with pytest.raises(ValidationError):
            triple_flip(TransversalTriple.reference(2), STAR, True)


@pytest.mark.parametrize(
    "call, value, message",
    [
        (lambda b: Multimatroid(2, [b]), (1,) * 5000, "basis {} is not a transversal choice on 2 classes"),
        (multimatroid.Carrier(3).skew_class, "x" * 5000, "class index {} out of range 1..3"),
        (lambda i: triple_flip(TransversalTriple.reference(2), STAR, i), "x" * 5000, "class index {} out of range 1..2"),
        (lambda mode: orbit_via_lift(SetSystem(1, [0]), mode=mode), "x" * 5000, "mode must be 'full' or 'iota', got {}"),
    ],
    ids=["basis", "skew-class", "triple-flip", "mode"],
)
def test_long_argument_is_quoted_up_to_the_bound(call, value, message):
    assert_quoted_up_to_the_bound(call, value, message)


class TestLiftInvariance:
    def test_same_flip_on_system_and_triple_preserves_lift(self, pool, rng, vf_cache):
        """Applying any one flip at element i of the system and at the
        class projecting to i of the triple leaves the lift unchanged."""
        for _ in range(30):
            D = rng.choice(pool)
            n = D.n
            tau = rand_triple(rng, n)
            sigma = rand_projection(rng, n)
            Z = lift(D, tau, sigma, vf_cache=vf_cache)
            i = rng.randint(1, n)
            c = sigma.class_of(i)
            for g in FLIPS:
                assert (
                    lift(apply_flip(D, g, i), triple_flip(tau, g, c), sigma, vf_cache=vf_cache)
                    == Z
                )

    def test_twist_and_complement_invariance(self, pool, rng, vf_cache):
        for _ in range(25):
            D = rng.choice(pool)
            n = D.n
            tau = rand_triple(rng, n)
            sigma = rand_projection(rng, n)
            Z = lift(D, tau, sigma, vf_cache=vf_cache)
            for i in range(1, n + 1):
                c = sigma.class_of(i)
                assert Z == lift(
                    loop_complement(D, (i,)), triple_flip(tau, PLUS, c), sigma, vf_cache=vf_cache
                )
                assert Z == lift(
                    twist(D, (i,)), triple_flip(tau, STAR, c), sigma, vf_cache=vf_cache
                )

    def test_group_action_invariance(self, pool, rng, vf_cache):
        """Acting by (gvec, pi) on the system matches acting on the triple
        and the projection instead; with the rightmost-first word action
        on triples the verbatim form takes the entrywise inverse vector."""
        for _ in range(25):
            D = rng.choice(pool)
            n = D.n
            tau = rand_triple(rng, n)
            sigma = rand_projection(rng, n)
            gv = tuple(rng.choice(FLIPS) for _ in range(n))
            pi = Perm(rng.sample(range(1, n + 1), n))
            moved = act(TwualityElement(gv, pi), D)
            sig_l = Projection(pi.inverse() * sigma.relabel)
            assert lift(moved, triple_word(tau, gv, sigma), sigma, vf_cache=vf_cache) == lift(
                D, tau, sig_l, vf_cache=vf_cache
            )
            assert lift(moved, tau, sigma, vf_cache=vf_cache) == lift(
                D, triple_word(tau, vec_inv(gv), sigma), sig_l, vf_cache=vf_cache
            )


class TestOrbitCharacterizations:
    def test_trivial_ground(self, vf_cache):
        D = ss(0, [()])
        assert orbit_via_lift(D, mode="full", vf_cache=vf_cache) == (D,)

    def test_matches_orbit_both_modes(self, pool, rng, vf_cache):
        small = [D for D in pool if D.n <= 3][:6] + [ss(1, [()]), ss(2, [(), (1,), (1, 2)])]
        for D in small:
            assert orbit_via_lift(D, mode="full", vf_cache=vf_cache) == orbit(D, "full").elements
            assert orbit_via_lift(D, mode="iota", vf_cache=vf_cache) == orbit(D, "iota").elements

    def test_matches_per_triple_oracle(self, pool, rng, vf_cache):
        for D in pool[:12]:
            tau, sigma = rand_triple(rng, D.n), rand_projection(rng, D.n)
            for mode in ("full", "iota"):
                assert orbit_via_lift(D, tau, sigma, mode=mode, vf_cache=vf_cache) == (
                    orbit_via_lift_oracle(D, tau, sigma, mode=mode, vf_cache=vf_cache)
                ), (D, tau, sigma, mode)

    def test_extracted_tables_match_per_triple_extracts(self, pool, rng, vf_cache):
        systems = [ss(0, [()]), rand_system(rng, 4, vf_cache)] + pool[:4]
        multimatroids = [lift(D, rand_triple(rng, D.n), vf_cache=vf_cache) for D in systems]
        multimatroids += [Multimatroid(0, []), Multimatroid(4, [(1, 2, 3, 1), (3, 3, 1, 2)])]
        multimatroids += [rand_multimatroid(rng) for _ in range(6)]
        for Z in multimatroids:
            ident = Projection.identity(Z.n)
            expected = {extract(Z, tau, ident).table for tau in all_triples(Z.n)}
            assert multimatroid._extracted_tables(Z) == expected, Z

    @pytest.mark.parametrize("n", range(6))
    def test_full_mode_walk_matches_permutations(self, n, rng, vf_cache, monkeypatch):
        """Full mode closes the set under adjacent transpositions; it equals
        every extracted table relabeled by every permutation, both for the
        real extracted tables and for random ones in their place, which
        unlike an orbit are unlikely to hide a missed relabeling behind a
        symmetry."""
        D = rand_system(rng, n, vf_cache) if n else ss(0, [()])
        tau, sigma = rand_triple(rng, n), rand_projection(rng, n)
        real = multimatroid._extracted_tables(lift(D, tau, sigma, vf_cache=vf_cache))
        for tables in (real, {rng.getrandbits(1 << n) for _ in range(3)}):
            monkeypatch.setattr(multimatroid, "_extracted_tables", lambda Z: set(tables))
            perms = itertools.permutations(range(1, n + 1))
            expected = sorted_systems({relabel(t, n, p) for p in perms for t in tables}, n)
            assert orbit_via_lift(D, tau, sigma, mode="full", max_n=5, vf_cache=vf_cache) == expected

    def test_budget(self):
        with pytest.raises(BudgetError, match=r"^orbit_via_lift\(full\) .* got 5 \(6\^5 = 7,776 triples\)$"):
            orbit_via_lift(SetSystem(5, [0]), mode="full")

    def test_same_lift_characterizes_orbit_exhaustively(self, vf_cache):
        """At n = 2: the systems liftable onto Z(D) by some triple and
        projection are exactly the full orbit of D, both sides enumerated
        exhaustively."""
        n = 2
        D0 = ss(2, [(), (1,)])
        Z0 = lift(D0, vf_cache=vf_cache)
        triples = list(all_triples(n))
        projections = [Projection(Perm(p)) for p in itertools.permutations((1, 2))]
        lhs = set()
        for bits in range(1, 1 << (1 << n)):
            cand = SetSystem(n, [m for m in range(1 << n) if bits >> m & 1])
            if not is_vf_safe(cand, cache=vf_cache):
                continue
            if any(
                lift(cand, tp, sp, vf_cache=vf_cache) == Z0
                for tp in triples
                for sp in projections
            ):
                lhs.add(cand)
        assert lhs == set(orbit(D0, "full").elements)

    def test_same_lift_characterizes_orbit_exhaustively_n3(self, vf_cache):
        """Same equality at n = 3, over every proper system on [3], with
        the lift comparison recomputed from the public bulk operation."""
        from twuality import dual_twist, members_of

        n = 3
        D0 = ss(3, [(3,), (1, 3), (2, 3)])
        target = lift(D0, vf_cache=vf_cache).bases
        triples = list(all_triples(n))
        projections = [Projection(Perm(p)) for p in itertools.permutations((1, 2, 3))]
        choices = list(itertools.product((1, 2, 3), repeat=n))

        def matches(cand, tau, sigma, memo):
            for choice in choices:
                f_mask = s_mask = 0
                for i, r in enumerate(choice, start=1):
                    slot = tau.slot_of(i, r)
                    if slot == 2:
                        f_mask |= 1 << (sigma.label_of(i) - 1)
                    elif slot == 3:
                        s_mask |= 1 << (sigma.label_of(i) - 1)
                fam = memo.get(s_mask)
                if fam is None:
                    fam = memo[s_mask] = dual_twist(cand, members_of(s_mask)).mask_set()
                if (f_mask in fam) != (choice in target):
                    return False
            return True

        lhs = set()
        for bits in range(1, 1 << (1 << n)):
            cand = SetSystem(n, [m for m in range(1 << n) if bits >> m & 1])
            if not is_vf_safe(cand, cache=vf_cache):
                continue
            memo: dict[int, frozenset] = {}
            if any(matches(cand, tp, sp, memo) for tp in triples for sp in projections):
                lhs.add(cand)
        assert lhs == set(orbit(D0, "full").elements)
