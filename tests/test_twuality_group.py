import itertools
import pickle
import random
import re

import pytest
from hypothesis import assume, given, strategies as st

from twuality import (
    BAR,
    FLIPS,
    ONE,
    PLUS,
    PLUS_STAR,
    STAR,
    STAR_PLUS,
    Perm,
    SetSystem,
    TwualityElement,
    ValidationError,
    act,
    apply_flip,
    flip_mul,
    flip_pow,
    parse_flip,
    parse_perm,
    reduce_word,
    sd_identity,
    sd_inv,
    sd_mul,
    uniform_flip,
    vec_mul,
    vec_reindex,
)

from conftest import assert_frozen, assert_quoted_up_to_the_bound, set_systems
from oracles import FLIP_WORDS, act_oracle, flip_oracle

ss = SetSystem.from_sets

flips = st.sampled_from(FLIPS)


def perms(n):
    return st.permutations(range(1, n + 1)).map(Perm)


def elements(n):
    return st.tuples(st.tuples(*([flips] * n)), perms(n)).map(lambda t: TwualityElement(*t))


class TestFlipGroup:
    def test_six_distinct_values_and_orders(self):
        assert len(set(FLIPS)) == 6
        assert ONE.order == 1
        assert {f.order for f in (STAR, PLUS, BAR)} == {2}
        assert {f.order for f in (STAR_PLUS, PLUS_STAR)} == {3}

    def test_presentation_relations(self):
        assert flip_mul(STAR, STAR) is ONE
        assert flip_mul(PLUS, PLUS) is ONE
        assert flip_pow(flip_mul(STAR, PLUS), 3) is ONE

    def test_named_products(self):
        assert flip_mul(STAR, PLUS) is STAR_PLUS
        assert flip_mul(STAR, PLUS).order == 3
        assert flip_mul(STAR, ONE) is STAR
        assert flip_mul(STAR, flip_mul(PLUS, STAR)) is BAR

    def test_isomorphic_to_symmetric_group_on_three_symbols(self):
        perms3 = {f.perm for f in FLIPS}
        assert perms3 == set(itertools.permutations((1, 2, 3)))
        # multiplication matches composition of the stored permutations
        for g in FLIPS:
            for h in FLIPS:
                composed = tuple(g.perm[h.perm[x - 1] - 1] for x in (1, 2, 3))
                assert flip_mul(g, h).perm == composed
        # the two generators map to distinct transpositions
        assert STAR.perm != PLUS.perm
        assert STAR.order == PLUS.order == 2

    def test_tokens(self):
        for f in FLIPS:
            assert parse_flip(f.token) is f
        with pytest.raises(ValidationError):
            parse_flip("**")


class TestFlipValues:
    def test_flips_are_frozen(self):
        for g in FLIPS:
            assert_frozen(g, "index", "token", "perm")
        with pytest.raises(AttributeError):
            STAR.perm = (1, 2, 3)
        assert STAR.perm == (2, 1, 3)

    def test_pickle_returns_the_interned_flip(self):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            for g in FLIPS:
                assert pickle.loads(pickle.dumps(g, protocol)) is g
            gvec = pickle.loads(pickle.dumps((STAR, BAR, STAR), protocol))
            assert gvec[0] is gvec[2] is STAR and gvec[1] is BAR

    def test_perm_is_frozen(self):
        assert_frozen(Perm((2, 3, 1)), "images")


class TestFlipKernel:
    """``apply_flip`` and ``act`` permute three slot tables per element;
    the oracle applies each flip as its word of twists, loop
    complementations and dual twists on frozensets of masks."""

    @staticmethod
    def random_systems(rng, n, count=40):
        for _ in range(count):
            density = rng.random()
            yield SetSystem(n, (m for m in range(1 << n) if rng.random() < density))

    def test_words_spell_their_flips(self):
        """Each word, written rightmost step first and with ``~`` as
        ``+*+``, reduces to its flip."""
        assert sorted(FLIP_WORDS) == sorted(g.token for g in FLIPS)
        for g in FLIPS:
            written = "".join(reversed(FLIP_WORDS[g.token])).replace("~", "+*+")
            assert reduce_word(written) is g

    def test_apply_flip_matches_words(self):
        rng = random.Random(41)
        for n in range(7):
            for D in self.random_systems(rng, n):
                for i in range(1, n + 1):
                    for g in FLIPS:
                        expected = flip_oracle(D.masks, g, 1 << (i - 1))
                        assert apply_flip(D, g, i).mask_set() == expected, (D, g, i)

    def test_act_matches_words(self):
        rng = random.Random(42)
        for n in range(7):
            for D in self.random_systems(rng, n):
                gvec = tuple(rng.choice(FLIPS) for _ in range(n))
                a = TwualityElement(gvec, Perm(rng.sample(range(1, n + 1), n)))
                assert act(a, D) == act_oracle(a, D), (a, D)


class TestReduceWord:
    def test_examples(self):
        assert reduce_word("") is ONE
        assert reduce_word("**") is ONE
        assert reduce_word("+*+") is BAR
        assert reduce_word("*+*+*+") is ONE
        assert reduce_word(" +\t* + ") is BAR

    def test_rejects_other_letters(self):
        with pytest.raises(ValidationError):
            reduce_word("*~")

    def test_long_letter_is_quoted_up_to_the_bound(self):
        assert_quoted_up_to_the_bound(lambda ch: reduce_word(["*", ch]), "x" * 5000, "word letter must be '*' or '+', got {}")

    @given(st.lists(st.sampled_from("*+"), max_size=6), set_systems(max_n=3), st.integers(1, 3))
    def test_letterwise_application_matches(self, word, D, i):
        assume(i <= D.n)
        out = D
        for ch in reversed(word):  # rightmost letter acts first
            out = apply_flip(out, STAR if ch == "*" else PLUS, i)
        assert out == apply_flip(D, reduce_word(word), i)


class TestPerm:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Perm((1, 1))
        with pytest.raises(ValidationError):
            Perm((0, 1))

    @pytest.mark.parametrize("images", [[True], [1.0, 2], [2, True], [1, "x"], "12", None, 3])
    def test_rejects_non_int_images_and_non_iterables(self, images):
        with pytest.raises(ValidationError):
            Perm(images)

    @pytest.mark.parametrize(
        "images, message",
        [([1] * 5000, "{} is not a permutation of 1..5000"), (10**200, "permutation images {} must be iterable")],
        ids=["images", "not-iterable"],
    )
    def test_long_images_are_quoted_up_to_the_bound(self, images, message):
        assert_quoted_up_to_the_bound(Perm, images, message)

    def test_compose_and_inverse(self):
        p = Perm((2, 3, 1))
        q = Perm((2, 1, 3))
        assert (p * q).images == tuple(p(q(i)) for i in (1, 2, 3))
        assert (p * p.inverse()).is_identity()

    def test_cycles_canonical(self):
        assert Perm((2, 1, 3)).cycles() == ((1, 2), (3,))
        assert Perm((2, 3, 1)).cycles() == ((1, 2, 3),)
        assert Perm.identity(3).cycles() == ((1,), (2,), (3,))

    def test_parse_one_line_and_cycles(self):
        assert parse_perm("[2,1,3]", 3) == Perm((2, 1, 3))
        assert parse_perm("(1 2)(3)", 3) == Perm((2, 1, 3))
        assert parse_perm("(1 2 3)", 3) == Perm((2, 3, 1))
        assert parse_perm("", 3) == Perm.identity(3)
        with pytest.raises(ValidationError):
            parse_perm("[2,1]", 3)
        with pytest.raises(ValidationError):
            parse_perm("(1 2)(2 3)", 3)
        with pytest.raises(ValidationError):
            parse_perm("nonsense", 3)


class TestVecReindex:
    def test_identity(self):
        g = (STAR, PLUS, BAR)
        assert vec_reindex(g, Perm.identity(3)) == g

    def test_three_cycle(self):
        g = (STAR, PLUS, BAR)
        p = Perm((2, 3, 1))  # 1 -> 2 -> 3 -> 1
        assert vec_reindex(g, p) == (BAR, STAR, PLUS)

    def test_round_trip(self):
        g = (STAR, PLUS, BAR)
        p = Perm((3, 1, 2))
        assert vec_reindex(vec_reindex(g, p), p.inverse()) == g

    @given(st.integers(1, 5), st.data())
    def test_respects_composition(self, n, data):
        g = tuple(data.draw(flips) for _ in range(n))
        p1 = data.draw(perms(n))
        p2 = data.draw(perms(n))
        assert vec_reindex(vec_reindex(g, p2), p1) == vec_reindex(g, p1 * p2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Perm((2, 1)) * Perm((1, 2, 3)), "permutation size mismatch"),
        (lambda: vec_mul((STAR, PLUS), (STAR,)), "flip-vector length mismatch"),
        (lambda: vec_reindex((STAR, PLUS), Perm.identity(3)), "flip-vector / permutation length mismatch"),
        (lambda: TwualityElement((STAR,), Perm.identity(2)), "flip vector and permutation must have equal length"),
    ],
    ids=["perm-mul", "vec-mul", "vec-reindex", "element"],
)
def test_length_mismatch_is_a_validation_error(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


class TestSemidirectProduct:
    def test_operators_and_json(self):
        assert STAR * PLUS is flip_mul(STAR, PLUS) is STAR_PLUS
        a = TwualityElement((STAR, PLUS_STAR, ONE), Perm((3, 1, 2)))
        assert a.to_json() == {"gvec": ["*", "+*", "1"], "perm": [3, 1, 2]}

    @given(st.integers(0, 6), st.data())
    def test_inverse_law(self, n, data):
        x = data.draw(elements(n))
        assert sd_mul(x, sd_inv(x)) == sd_identity(n)
        assert sd_mul(sd_inv(x), x) == sd_identity(n)

    @given(st.integers(1, 4), st.data())
    def test_iota_parts_multiply_entrywise(self, n, data):
        g = tuple(data.draw(flips) for _ in range(n))
        h = tuple(data.draw(flips) for _ in range(n))
        a = TwualityElement(g, Perm.identity(n))
        b = TwualityElement(h, Perm.identity(n))
        prod = sd_mul(a, b)
        assert prod.perm.is_identity()
        assert prod.gvec == tuple(flip_mul(x, y) for x, y in zip(g, h))

    @given(st.integers(0, 5), st.data())
    def test_associativity(self, n, data):
        a, b, c = (data.draw(elements(n)) for _ in range(3))
        assert sd_mul(sd_mul(a, b), c) == sd_mul(a, sd_mul(b, c))

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            sd_mul(sd_identity(2), sd_identity(3))

    def test_uniform_detection(self):
        assert uniform_flip((BAR, BAR)) is BAR
        assert uniform_flip((BAR, STAR)) is None
        assert uniform_flip((ONE, ONE)) is None
        assert uniform_flip(()) is None


class TestAction:
    def test_stabilizing_vector_example(self):
        D = ss(3, [(3,), (1, 3), (2, 3)])
        assert act(TwualityElement((STAR, PLUS, PLUS), Perm.identity(3)), D) == D

    def test_pure_relabeling_example(self):
        D = ss(2, [(), (1,), (1, 2)])
        swapped = act(TwualityElement((ONE, ONE), Perm((2, 1))), D)
        assert swapped == ss(2, [(), (2,), (1, 2)])

    @given(set_systems(max_n=5))
    def test_identity_action(self, D):
        assert act(sd_identity(D.n), D) == D

    @given(set_systems(max_n=5), st.data())
    def test_action_compatible_with_product(self, D, data):
        a = data.draw(elements(D.n))
        b = data.draw(elements(D.n))
        assert act(sd_mul(a, b), D) == act(a, act(b, D))

    @given(set_systems(max_n=4), st.data())
    def test_iota_restricted_product_law(self, D, data):
        g = tuple(data.draw(flips) for _ in range(D.n))
        h = tuple(data.draw(flips) for _ in range(D.n))
        gh = tuple(flip_mul(x, y) for x, y in zip(g, h))
        iota = Perm.identity(D.n)
        lhs = act(TwualityElement(gh, iota), D)
        rhs = act(TwualityElement(g, iota), act(TwualityElement(h, iota), D))
        assert lhs == rhs

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            act(sd_identity(2), ss(3, [()]))
