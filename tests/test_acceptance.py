"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its measured runtime (visible under ``pytest -s``)."""

import contextlib
import itertools
import random
import time

import pytest

from twuality import (
    BAR,
    FLIPS,
    ONE,
    PLUS,
    STAR,
    Perm,
    Projection,
    SetSystem,
    TransversalTriple,
    TwualityElement,
    ValidationError,
    act,
    all_black,
    all_white,
    apply_flip,
    cycle_condition,
    delta_matroid_of,
    dual_twist,
    extract,
    flip_mul,
    flip_pow,
    is_delta_matroid,
    is_multimatroid,
    is_tight,
    is_vf_safe,
    lift,
    loop_complement,
    medial,
    orbit,
    orbit_via_lift,
    sd_identity,
    sd_inv,
    sd_mul,
    split_components,
    stabilizer_search,
    transport,
    triple_flip,
    triple_word,
    twist,
    uniformize,
    verify_medial_lift,
)

import ribbon_catalog as cat
from oracles import boundary_oracle

ss = SetSystem.from_sets

D_CONE = ss(3, [(3,), (1, 3), (2, 3)])
D_FLAT = ss(3, [(), (1,), (2,)])


@contextlib.contextmanager
def criterion(k, budget, desc):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {k:2d} FAIL: {desc}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {k} exceeded {budget}s budget: {elapsed:.2f}s"
    print(f"ACCEPTANCE {k:2d} PASS ({elapsed:.2f}s < {budget}s): {desc}")


@pytest.fixture(scope="module")
def acc_rng():
    return random.Random(0xACCE97)


@pytest.fixture(scope="module")
def vf_sample(acc_rng, vf_cache):
    """At least 100 distinct vf-safe delta-matroids with n <= 4: quasi-tree
    systems of random ribbon graphs and group translates of them."""
    out, seen = [], set()
    while len(out) < 110:
        G = cat.random_ribbon(acc_rng, max_edges=4)
        D = delta_matroid_of(G, vf_cache=vf_cache)
        gv = tuple(acc_rng.choice(FLIPS) for _ in range(D.n))
        p = Perm(acc_rng.sample(range(1, D.n + 1), D.n))
        for X in (D, act(TwualityElement(gv, p), D)):
            if X not in seen:
                seen.add(X)
                out.append(X)
    return out


@pytest.fixture(scope="module")
def stab_pairs():
    """(system, stabilizer) instances harvested by exhaustive search."""
    catalog = [
        D_CONE,
        D_FLAT,
        ss(2, [(1,), (2,)]),
        ss(2, [(), (1,), (2,), (1, 2)]),
        ss(1, [()]),
        ss(1, [(), (1,)]),
        ss(3, [(), (1, 2)]),
    ]
    pairs = []
    for D in catalog:
        pairs.extend((D, h.element) for h in stabilizer_search(D, mode="all"))
    assert len(pairs) >= 50
    return pairs


@pytest.fixture(scope="module")
def uniform_pairs(vf_sample):
    """(system, stabilizer, flip) triples with uniform vector part."""
    catalog = [D_FLAT, ss(2, [(1,), (2,)]), ss(1, [()]), ss(1, [(), (1,)])]
    catalog += [D for D in vf_sample if D.n <= 3][:12]
    out = []
    for D in catalog:
        for h in stabilizer_search(D, mode="uniform"):
            out.append((D, h.element, h.uniform))
    assert out
    return out


@pytest.fixture(scope="module")
def graph_catalog():
    """Every rotation system with at most 3 edges on at most 3 vertices in
    every sign pattern, plus the named fixtures (up to 4 edges)."""
    graphs = list(cat.enumerate_all(max_edges=3, max_vertices=3))
    graphs.extend(cat.named_fixtures().values())
    return graphs


def test_criterion_01_exchange_axiom_reproduction():
    with criterion(1, 1.0, "near-power-set family and its complemented failure"):
        for n in (3, 4, 5):
            fam = [s for r in range(n) for s in itertools.combinations(range(1, n + 1), r)]
            D = ss(n, fam)
            assert is_delta_matroid(D).valid
            w = is_delta_matroid(loop_complement(D, (1,)))
            assert not w.valid
            assert (w.X, w.Y, w.u) == ((), tuple(range(1, n + 1)), 1)


def test_criterion_02_group_laws(acc_rng):
    with criterion(2, 5.0, "six flips, defining relations, 10^4 semidirect checks"):
        assert len(set(FLIPS)) == 6
        assert flip_mul(STAR, STAR) is ONE
        assert flip_mul(PLUS, PLUS) is ONE
        assert flip_pow(flip_mul(STAR, PLUS), 3) is ONE
        for _ in range(10_000):
            n = acc_rng.randint(0, 6)

            def element():
                return TwualityElement(
                    tuple(acc_rng.choice(FLIPS) for _ in range(n)),
                    Perm(acc_rng.sample(range(1, n + 1), n)),
                )

            a, b, c = element(), element(), element()
            assert sd_mul(sd_mul(a, b), c) == sd_mul(a, sd_mul(b, c))
            assert sd_mul(a, sd_inv(a)) == sd_identity(n)
            assert sd_mul(sd_inv(b), b) == sd_identity(n)


def test_criterion_03_action_laws(acc_rng):
    with criterion(3, 10.0, "10^3 compatibility and identity action checks"):
        for _ in range(1000):
            n = acc_rng.randint(0, 5)
            full = 1 << n
            D = SetSystem(n, acc_rng.sample(range(full), acc_rng.randint(0, full)))

            def element():
                return TwualityElement(
                    tuple(acc_rng.choice(FLIPS) for _ in range(n)),
                    Perm(acc_rng.sample(range(1, n + 1), n)),
                )

            a, b = element(), element()
            assert act(sd_mul(a, b), D) == act(a, act(b, D))
            assert act(sd_identity(n), D) == D


def test_criterion_04_worked_examples_end_to_end():
    with criterion(4, 1.0, "stabilizer, transport, and uniformization of the worked pair"):
        iota = Perm.identity(3)
        wanted = TwualityElement((STAR, PLUS, PLUS), iota)
        assert any(h.element == wanted for h in stabilizer_search(D_CONE, mode="all"))
        moved, stab_p = transport(
            D_CONE, wanted, TwualityElement((PLUS, STAR, STAR), iota)
        )
        assert moved == D_FLAT
        assert stab_p == TwualityElement((BAR, BAR, BAR), iota)
        res = uniformize(D_CONE, (STAR, PLUS, PLUS), iota, BAR)
        assert res.target == D_FLAT
        assert act(TwualityElement((BAR, BAR, BAR), iota), res.target) == res.target


def test_criterion_05_stabilizer_transport(acc_rng, stab_pairs):
    with criterion(5, 30.0, "200 transported stabilizers re-verified"):
        for _ in range(200):
            D, stab = stab_pairs[acc_rng.randrange(len(stab_pairs))]
            n = D.n
            move = TwualityElement(
                tuple(acc_rng.choice(FLIPS) for _ in range(n)),
                Perm(acc_rng.sample(range(1, n + 1), n)),
            )
            moved, stab_p = transport(D, stab, move)
            assert act(stab_p, moved) == moved
            assert act(stab_p, act(move, D)) == act(move, act(stab, D))


def test_criterion_06_uniformization(acc_rng, uniform_pairs, stab_pairs):
    with criterion(6, 60.0, "100 conjugated uniform stabilizers + 100 refusals"):
        done = 0
        while done < 100:
            D, stab, g = uniform_pairs[acc_rng.randrange(len(uniform_pairs))]
            n = D.n
            move = TwualityElement(
                tuple(acc_rng.choice(FLIPS) for _ in range(n)),
                Perm(acc_rng.sample(range(1, n + 1), n)),
            )
            moved, stab_p = transport(D, stab, move)
            assert cycle_condition(stab_p.gvec, stab_p.perm, g)
            res = uniformize(moved, stab_p.gvec, stab_p.perm, g)
            uniform = TwualityElement((g,) * n, stab_p.perm)
            assert act(uniform, res.target) == res.target
            done += 1
        refused = 0
        while refused < 100:
            D, stab = stab_pairs[acc_rng.randrange(len(stab_pairs))]
            bad = [
                g
                for g in FLIPS[1:]
                if not cycle_condition(stab.gvec, stab.perm, g)
            ]
            if not bad:
                continue
            g = bad[acc_rng.randrange(len(bad))]
            with pytest.raises(ValidationError) as err:
                uniformize(D, stab.gvec, stab.perm, g)
            assert "cycle order condition" in str(err.value)
            refused += 1


def test_criterion_07_lift_identities(acc_rng, vf_sample, vf_cache):
    P3 = sorted(itertools.permutations((1, 2, 3)))
    with criterion(7, 60.0, "lift invariance and inversion over 100+ sampled systems"):
        sample = vf_sample[:100]
        assert len(sample) >= 100
        for D in sample:
            n = D.n
            tau = TransversalTriple(tuple(acc_rng.choice(P3) for _ in range(n)))
            sigma = Projection(Perm(acc_rng.sample(range(1, n + 1), n)))
            Z = lift(D, tau, sigma, vf_cache=vf_cache)
            # extraction inverts the lift
            assert extract(Z, tau, sigma) == D
            # single-element invariance at every element
            for i in range(1, n + 1):
                c = sigma.class_of(i)
                assert Z == lift(
                    loop_complement(D, (i,)),
                    triple_flip(tau, PLUS, c),
                    sigma,
                    vf_cache=vf_cache,
                )
                assert Z == lift(
                    twist(D, (i,)), triple_flip(tau, STAR, c), sigma, vf_cache=vf_cache
                )
        for D in sample:
            n = D.n
            tau = TransversalTriple(tuple(acc_rng.choice(P3) for _ in range(n)))
            sigma = Projection(Perm(acc_rng.sample(range(1, n + 1), n)))
            base = lift(D, tau, sigma, vf_cache=vf_cache)
            for _ in range(50):
                gv = tuple(acc_rng.choice(FLIPS) for _ in range(n))
                pi = Perm(acc_rng.sample(range(1, n + 1), n))
                moved = act(TwualityElement(gv, pi), D)
                moved_sigma = Projection(pi * sigma.relabel)
                moved_tau = triple_word(tau, gv, moved_sigma)
                assert lift(moved, moved_tau, moved_sigma, vf_cache=vf_cache) == base


def test_criterion_08_orbit_characterization(vf_sample, vf_cache):
    with criterion(8, 60.0, "orbit equals the extraction family, both modes, 20 systems"):
        sample = [D for D in vf_sample if D.n <= 3][:20]
        assert len(sample) == 20
        for D in sample:
            assert orbit_via_lift(D, mode="full", vf_cache=vf_cache) == orbit(D, "full").elements
            assert orbit_via_lift(D, mode="iota", vf_cache=vf_cache) == orbit(D, "iota").elements


def test_criterion_09_lifts_are_tight_multimatroids(acc_rng, vf_sample, vf_cache):
    P3 = sorted(itertools.permutations((1, 2, 3)))
    with criterion(9, 30.0, "every suite lift passes both axioms and tightness"):
        for D in vf_sample[:40]:
            n = D.n
            tau = TransversalTriple(tuple(acc_rng.choice(P3) for _ in range(n)))
            sigma = Projection(Perm(acc_rng.sample(range(1, n + 1), n)))
            Z = lift(D, tau, sigma, vf_cache=vf_cache)
            ok, witness = is_multimatroid(Z)
            assert ok, (D, witness)
            tight, witness = is_tight(Z)
            assert tight, (D, witness)


def test_criterion_10_medial_equals_lift(graph_catalog, vf_cache):
    with criterion(10, 60.0, f"medial/lift base equality on {len(graph_catalog)} graphs"):
        for G in graph_catalog:
            report = verify_medial_lift(G, max_e=6, vf_cache=vf_cache)
            assert report.equal, (G, report.only_medial, report.only_lift)


def test_criterion_11_medial_split_sanity(graph_catalog):
    with criterion(11, 5.0, "all-black and all-white split counts across the catalog"):
        for G in graph_catalog:
            Fm = medial(G)
            assert split_components(Fm, all_black(Fm)) == len(G.vertices)
            assert split_components(Fm, all_white(Fm)) == boundary_oracle(G)


def test_criterion_12_involution_property_suite(acc_rng):
    with criterion(12, 10.0, "involutions, commutation, order three, bulk parity"):
        for _ in range(1000):
            n = acc_rng.randint(1, 6)
            full = 1 << n
            D = SetSystem(n, acc_rng.sample(range(full), acc_rng.randint(1, min(full, 10))))
            I = [i for i in range(1, n + 1) if acc_rng.random() < 0.4]
            assert twist(twist(D, I), I) == D
            assert loop_complement(loop_complement(D, I), I) == D
            assert dual_twist(dual_twist(D, I), I) == D
            i = acc_rng.randint(1, n)
            g1, g2 = acc_rng.choice(FLIPS), acc_rng.choice(FLIPS)
            if n >= 2:
                j = acc_rng.randint(1, n - 1)
                j = j + 1 if j >= i else j
                assert apply_flip(apply_flip(D, g1, i), g2, j) == apply_flip(
                    apply_flip(D, g2, j), g1, i
                )
            out = D
            for _ in range(3):
                out = apply_flip(out, flip_mul(STAR, PLUS), i)
            assert out == D
            J = I[:3]
            for bulk_op, flip in ((loop_complement, PLUS), (dual_twist, BAR)):
                expected = bulk_op(D, J)
                for order in itertools.permutations(J):
                    seq = D
                    for k in order:
                        seq = apply_flip(seq, flip, k)
                    assert seq == expected
