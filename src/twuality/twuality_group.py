"""The six invertible single-element flips, flip vectors, permutations,
and the semidirect-product action on set systems.

The flip group is generated by the twist ``*`` and the loop complementation
``+`` acting at one element; it is isomorphic to the symmetric group on
three symbols via ``* -> (1 2)`` and ``+ -> (2 3)``, and each flip is
stored only as that permutation, so multiplication and order queries are
table lookups.  The three symbols are slots: at element ``e`` a truth
table splits into the sets without ``e`` (slot 1), the sets with ``e``
moved down to their partners without it (slot 2), and the XOR of the two
(slot 3), the same three slots as a class of the lift in
``multimatroid``.  A flip permutes the slots and recombines slots 1 and 2
(``_flip_table``): the twist swaps 1 and 2, loop complementation swaps 2
and 3, and the dual twist ``~`` swaps 1 and 3.

Word convention (fixed once, used everywhere in the library): in a word of
flips the RIGHTMOST letter is applied first, so the product ``g*h`` means
"h first, then g" and matches ``(g.perm o h.perm)``.  The command-line
layer accepts left-to-right operation lists and converts.
"""

from __future__ import annotations

import re
from typing import Iterable

from .errors import ValidationError, quoted
from .set_system import _HALVES, SetSystem, _value_type, mask_of, relabel


@_value_type(eq=False, repr=False)
class Flip:
    """One of the six single-element operations, as the permutation
    ``perm`` of the three slots at an element: slot ``s`` goes to slot
    ``perm[s - 1]``.  The six flips are interned, so they compare by
    identity."""

    index: int
    token: str
    perm: tuple[int, int, int]

    @property
    def order(self) -> int:
        return _ORDER[self.index]

    def inverse(self) -> "Flip":
        return _INV[self.index]

    def __mul__(self, other: "Flip") -> "Flip":
        return _MUL[self.index][other.index]

    def __repr__(self) -> str:
        return f"Flip({self.token!r})"

    def __reduce__(self):  # keep interning under pickling
        return (parse_flip, (self.token,))


ONE = Flip(0, "1", (1, 2, 3))
STAR = Flip(1, "*", (2, 1, 3))
PLUS = Flip(2, "+", (1, 3, 2))
STAR_PLUS = Flip(3, "*+", (2, 3, 1))
PLUS_STAR = Flip(4, "+*", (3, 1, 2))
BAR = Flip(5, "~", (3, 2, 1))

FLIPS: tuple[Flip, ...] = (ONE, STAR, PLUS, STAR_PLUS, PLUS_STAR, BAR)

_BY_PERM = {f.perm: f for f in FLIPS}
_BY_TOKEN = {f.token: f for f in FLIPS}


def _compose(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    # (a o b)(x) = a(b(x)): b acts first
    return (a[b[0] - 1], a[b[1] - 1], a[b[2] - 1])


_MUL = tuple(tuple(_BY_PERM[_compose(g.perm, h.perm)] for h in FLIPS) for g in FLIPS)
_INV = tuple(
    next(h for h in FLIPS if _compose(g.perm, h.perm) == (1, 2, 3)) for g in FLIPS
)


def _order_of(g: Flip) -> int:
    p, k = g.perm, 1
    while p != (1, 2, 3):
        p = _compose(g.perm, p)
        k += 1
    return k


_ORDER = tuple(_order_of(g) for g in FLIPS)


def flip_mul(g: Flip, h: Flip) -> Flip:
    """Group product ``gh``: apply ``h`` first, then ``g``."""
    return _MUL[g.index][h.index]


def flip_pow(g: Flip, m: int) -> Flip:
    out = ONE
    for _ in range(m % _ORDER[g.index]):
        out = flip_mul(out, g)
    return out


def parse_flip(token: str) -> Flip:
    f = _BY_TOKEN.get(token) if isinstance(token, str) else None
    if f is None:
        raise ValidationError(f"unknown flip token {quoted(token)}")
    return f


def reduce_word(word: str | Iterable[str]) -> Flip:
    """Reduce a word over the letters ``*`` and ``+`` to its flip.

    Letters are written leftmost-first but applied rightmost-first, so the
    reduction is the left-to-right fold of the group product.
    """
    out = ONE
    for ch in word:
        if ch in " \t":
            continue
        if ch == "*":
            out = flip_mul(out, STAR)
        elif ch == "+":
            out = flip_mul(out, PLUS)
        else:
            raise ValidationError(f"word letter must be '*' or '+', got {quoted(ch)}")
    return out


@_value_type(init=False, repr=False)
class Perm:
    """A permutation of ``{1, .., n}`` in one-line notation."""

    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        try:
            images = tuple(images)
        except TypeError:
            raise ValidationError(f"permutation images {quoted(images)} must be iterable") from None
        n = len(images)
        if not {*map(type, images)} <= {int} or sorted(images) != list(range(1, n + 1)):
            raise ValidationError(f"{quoted(list(images))} is not a permutation of 1..{n}")
        object.__setattr__(self, "images", images)

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        # composition: (self * other)(i) = self(other(i)), other acts first
        if self.n != other.n:
            raise ValidationError("permutation size mismatch")
        return Perm(self.images[j - 1] for j in other.images)

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Perm(inv)

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.n + 1))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition; each cycle starts at its least element,
        cycles sorted by least element, fixed points included."""
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            out.append(tuple(cyc))
        return tuple(out)

    def one_line(self) -> list[int]:
        return list(self.images)

    def __repr__(self) -> str:
        return f"Perm({list(self.images)})"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_ints(text: str, message: str) -> list[int]:
    """The comma- or space-separated integers of ``text``; ``message`` on a part
    ``int`` refuses, as one of more than ``sys.get_int_max_str_digits()`` digits."""
    try:
        return [int(p) for p in re.split(r"[,\s]+", text.strip()) if p]
    except ValueError:
        raise ValidationError(message) from None


def parse_perm(text: str, n: int) -> Perm:
    """Parse either one-line ``[2,1,3]`` or cycle ``(1 2)(3)`` notation."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValidationError(f"unterminated one-line permutation {quoted(text)}")
        images = _parse_ints(text[1:-1], f"bad one-line permutation {quoted(text)}")
        if len(images) != n:
            raise ValidationError(f"permutation has length {len(images)}, expected {n}")
        return Perm(images)
    if text == "" or text.startswith("("):
        if re.sub(_CYCLE_RE, "", text).strip():
            raise ValidationError(f"bad cycle notation {quoted(text)}")
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for group in _CYCLE_RE.findall(text):
            cyc = _parse_ints(group, f"bad cycle {quoted(group)}")
            for i in cyc:
                if not 1 <= i <= n:
                    raise ValidationError(f"cycle entry {quoted(i)} out of range 1..{n}")
                if i in seen:
                    raise ValidationError(f"element {i} repeated across cycles")
                seen.add(i)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return Perm(images)
    raise ValidationError(f"unrecognized permutation syntax {quoted(text)}")


# ---------------------------------------------------------------------------
# flip vectors (plain tuples of Flip values)

def vec_mul(a: tuple[Flip, ...], b: tuple[Flip, ...]) -> tuple[Flip, ...]:
    """Entrywise product ``(a_i b_i)``: the right vector acts first."""
    if len(a) != len(b):
        raise ValidationError("flip-vector length mismatch")
    return tuple(flip_mul(x, y) for x, y in zip(a, b))


def vec_inv(a: tuple[Flip, ...]) -> tuple[Flip, ...]:
    return tuple(x.inverse() for x in a)


def vec_reindex(g: tuple[Flip, ...], p: Perm) -> tuple[Flip, ...]:
    """Reindex so that entry ``i`` of the result is ``g`` at ``p^-1(i)``."""
    if len(g) != p.n:
        raise ValidationError("flip-vector / permutation length mismatch")
    inv = p.inverse()
    return tuple(g[inv(i) - 1] for i in range(1, p.n + 1))


def uniform_flip(g: tuple[Flip, ...]) -> Flip | None:
    """The common entry when ``g`` is uniform (all equal, non-identity)."""
    if g and all(x is g[0] for x in g) and g[0] is not ONE:
        return g[0]
    return None


@_value_type()
class TwualityElement:
    """A pair (flip vector, permutation) of the semidirect product."""

    gvec: tuple[Flip, ...]
    perm: Perm

    def __post_init__(self):
        if len(self.gvec) != self.perm.n:
            raise ValidationError("flip vector and permutation must have equal length")

    @property
    def n(self) -> int:
        return self.perm.n

    def __mul__(self, other: "TwualityElement") -> "TwualityElement":
        return sd_mul(self, other)

    def inverse(self) -> "TwualityElement":
        return sd_inv(self)

    def to_json(self) -> dict:
        return {"gvec": [f.token for f in self.gvec], "perm": self.perm.one_line()}


def sd_identity(n: int) -> TwualityElement:
    return TwualityElement((ONE,) * n, Perm.identity(n))


def sd_mul(a: TwualityElement, b: TwualityElement) -> TwualityElement:
    """Semidirect product ``(g, p1)(h, p2) = (g o (h reindexed by p1), p1 p2)``."""
    if a.n != b.n:
        raise ValidationError("semidirect-product size mismatch")
    return TwualityElement(vec_mul(a.gvec, vec_reindex(b.gvec, a.perm)), a.perm * b.perm)


def sd_inv(a: TwualityElement) -> TwualityElement:
    pinv = a.perm.inverse()
    return TwualityElement(vec_reindex(vec_inv(a.gvec), pinv), pinv)


# ---------------------------------------------------------------------------
# the action on set systems

def _flip_table(table: int, n: int, k: int, g: Flip) -> int:
    """Apply ``g`` at element ``e = k + 1`` of a truth table over [n].

    The three slots, each indexed by the sets without ``e``, are the sets
    without ``e``, those with it, and their XOR.  The slots that ``g.perm``
    sends to 1 and 2, the images of 1 and 2 under its inverse, become the
    sets without and with ``e``.
    """
    half, shift = _HALVES[n][k], 1 << k
    a = table & half
    b = (table >> shift) & half
    slots = (a, b, a ^ b)
    s1, s2, _ = _INV[g.index].perm
    return slots[s1 - 1] | slots[s2 - 1] << shift


def apply_flip(D: SetSystem, g: Flip, i: int) -> SetSystem:
    """Apply the flip ``g`` at element ``i``."""
    k = mask_of((i,), D.n).bit_length() - 1
    return SetSystem.from_table(D.n, _flip_table(D.table, D.n, k, g))


def act(a: TwualityElement, D: SetSystem) -> SetSystem:
    """Relabel ``D`` by the permutation, then apply each entry's flip.

    Satisfies ``act(a * b, D) == act(a, act(b, D))`` and fixes ``D`` for
    the identity element.
    """
    if a.n != D.n:
        raise ValidationError(f"element acts on [{a.n}] but system has ground [{D.n}]")
    table = relabel(D.table, D.n, a.perm.images)
    for k, g in enumerate(a.gvec):
        if g is not ONE:
            table = _flip_table(table, D.n, k, g)
    return SetSystem.from_table(D.n, table)
