"""Set systems over a ground set [n] and their twist/complementation calculus.

A set system is a ground size ``n`` together with a family of feasible
subsets of ``{1, .., n}``.  Subsets are encoded as bit masks (element ``i``
is bit ``i - 1``) and a family as its truth table, the ``2**n``-bit int
whose bit ``X`` is set iff ``X`` is feasible, so each single-element flip
and each adjacent transposition of the ground set is a few whole-table
integer ops.  Ground sizes are capped at 16; the exhaustive routines
elsewhere in the package are exponential in ``n`` and 16 already exceeds
every scale they are meant for.

Canonical order lists sets by cardinality, then lexicographically
(shortlex), and families by the sorted list of their sets.  One table per
ground size, built on first use, holds the subsets in shortlex order and
the rank of every mask.  ``shortlex_ranks`` reads a family's sorted ranks
off its truth table, and ``SetSystem.feasible_sets`` turns them into the
table's shared member tuples.  Orbits and ``sorted_systems`` sort many
tables at once through ``_canonical_order``, and orbit reports and the
``orbit-via-lift`` command write their JSON text off the forms it hands
back (``_systems_pieces`` through ``_family_pieces``, their one reader).
Up to ``BITMAP_GROUND`` elements all the tables are packed into one int,
a lane each, and one Beneš network of delta swaps, routed once per
ground size, turns every lane into the family's rank bitmap; a few
whole-int ops more give every lane its int sort key, read back in one
pass over typed lanes.  The JSON text is one lookup per byte of each
bitmap, in one C-level pass over the bytes of all the bitmaps, and only
the families with no set of rank below 8, one run at the end of the
order, need an edit after it.  Above it they sort and join rank lists.

Operations:

* ``twist(D, I)`` replaces every feasible ``X`` by ``X symdiff I``.
* ``loop_complement(D, I)`` keeps ``X`` feasible iff the number of feasible
  ``Y`` with ``X \\ I <= Y <= X`` is odd.
* ``dual_twist(D, I)`` keeps ``X`` feasible iff the number of feasible
  ``Y`` with ``X <= Y <= X | I`` is odd.
* ``relabel(table, n, images)`` moves every feasible ``X`` to its image
  under a permutation of the ground set.

Flips at distinct elements commute, so each bulk operation is the fold of
its single-element flip over the elements of ``I``; for the parity rules
this is the GF(2) subset-sum (zeta) transform restricted to ``I``.  Their
agreement with the direct parity rules is a tested property.
"""

from __future__ import annotations

import functools
import itertools
import re
import struct
import sys
from dataclasses import FrozenInstanceError, dataclass
from operator import getitem, itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import BudgetError, ConsistencyError, ValidationError, quoted

MAX_GROUND = 16

#: default cap on the ground size of the vf-safe closure search
VF_SAFE_DEFAULT_CAP = 10


def _iter_checked(items, what: str) -> Iterator:
    """``iter(items)``, raising ``ValidationError`` when ``items`` is not iterable."""
    try:
        return iter(items)
    except TypeError:
        raise ValidationError(f"{what} must be iterable, got {quoted(items)}") from None


def mask_of(members: Iterable[int], n: int) -> int:
    """Encode a subset of [n] as a bit mask, rejecting junk and duplicates."""
    mask = 0
    for i in _iter_checked(members, "a subset"):
        if not isinstance(i, int) or isinstance(i, bool):
            raise ValidationError(f"element {quoted(i)} is not an integer")
        if not 1 <= i <= n:
            raise ValidationError(f"element {quoted(i)} out of range 1..{n}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValidationError(f"duplicate element {i}")
        mask |= bit
    return mask


def members_of(mask: int) -> tuple[int, ...]:
    """Decode a bit mask, a non-negative ``int``, into its elements in order."""
    if type(mask) is not int or mask < 0:
        raise ValidationError(f"a mask must be a non-negative int, got {quoted(mask)}")
    return tuple(k + 1 for k in _masks_of_table(mask))


@functools.cache
def _shortlex_table(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The subsets of [n] in shortlex order (by cardinality, then
    lexicographically): their member tuples, and per mask its rank."""

    def shortlex(items):
        sizes = range(n + 1)
        return itertools.chain.from_iterable(itertools.combinations(items, k) for k in sizes)

    members = tuple(shortlex(range(1, n + 1)))
    rank = [0] * (1 << n)
    for r, bits in enumerate(shortlex([1 << k for k in range(n)])):
        rank[sum(bits)] = r
    return members, tuple(rank)


#: maps the digits of ``bin`` to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _table_bytes(table: int) -> bytes:
    """Byte ``X`` is bit ``X`` of ``table`` (0 or 1), up to its top set
    bit, so one ``itertools.compress`` selects by the table in C, however
    dense it is."""
    return bin(table)[:1:-1].encode().translate(_BIT_BYTES)


def shortlex_ranks(table: int, n: int) -> list[int]:
    """The ascending shortlex ranks of the feasible sets of a truth table
    over [n]; lists of ranks compare as the families do in canonical order."""
    return sorted(itertools.compress(_shortlex_table(n)[1], _table_bytes(table)))


@functools.cache
def _member_texts(n: int) -> tuple[str, ...]:
    """Each subset of [n] as its JSON array, ``"[1,3]"``, indexed by
    shortlex rank."""
    return tuple("[" + ",".join(map(str, m)) + "]" for m in _shortlex_table(n)[0])


#: the largest ground size whose families are ordered by ``_canonical_order``'s
#: bit-permutation kernel and written through ``_bitmap_texts``; larger
#: ones use rank lists
BITMAP_GROUND = 8

#: per lane width in bytes, the format code of an unsigned int of that
#: size, for ``struct`` (standard sizes) and ``memoryview.cast`` (native)
_LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _lane_bytes(values: Sequence[int], width: int, order: str) -> bytes:
    """The ints ``values``, each below ``2**(8 * width)``, as consecutive
    ``width``-byte lanes in byte order ``order``: one ``struct.pack`` for
    the widths of ``_LANE_CODES``, and ``int.to_bytes`` per value
    otherwise."""
    code = _LANE_CODES.get(width)
    if code is None:
        return b"".join(map(int.to_bytes, values, itertools.repeat(width), itertools.repeat(order)))
    return struct.pack("%s%d%s" % ("<" if order == "little" else ">", len(values), code), *values)


def _lanes(data: bytes, width: int) -> list[int]:
    """The ``width``-byte lanes of ``data``, in ``sys.byteorder``, as ints:
    one ``memoryview`` cast for the widths of ``_LANE_CODES``, and
    ``int.from_bytes`` per lane otherwise, split off by one regex pass."""
    code = _LANE_CODES.get(width)
    if code is None:
        lanes = re.findall(b".{%d}" % width, data, re.DOTALL)
        return list(map(int.from_bytes, lanes, itertools.repeat(sys.byteorder)))
    return memoryview(data).cast(code).tolist()


def _pair_lanes(low: bytes, high: bytes, width: int) -> bytearray:
    """The ``2 * width``-byte lanes, in ``sys.byteorder``, whose low and
    high halves are the ``width``-byte lanes of ``low`` and ``high``,
    copied one strided slice per byte of a lane."""
    pairs = bytearray(2 * len(low))
    halves = (low, high) if sys.byteorder == "little" else (high, low)
    for start, data in zip((0, width), halves):
        for j in range(width):
            pairs[start + j::2 * width] = data[j::width]
    return pairs


def _benes(perm: list[int]) -> list[tuple[int, int]]:
    """A Beneš network for the permutation ``x -> perm[x]`` of the bits of
    a ``len(perm) = 2**k``-bit word, ``k >= 1``, as ``2k - 1`` delta swaps
    ``(shift, mask)``, each ``d = ((w >> shift) ^ w) & mask; w ^= d ^ (d <<
    shift)`` (Beneš 1964; Knuth, TAOCP 4A, 7.1.3).

    The outer swaps, at half the width ``h``, send one bit of each pair
    ``x, x + h`` to each half and bring one bit of each target pair from
    each half; the looping algorithm picks the half of every bit of a cycle
    that alternates between the two kinds of pairs.  Each half is then
    routed on its own, and their stages share one mask."""
    size = len(perm)
    if size == 2:
        return [(1, perm[0])]
    h = size >> 1
    source = [0] * size
    for x, y in enumerate(perm):
        source[y] = x
    side = [None] * size
    for x in range(h):
        while side[x] is None:
            side[x], side[x ^ h] = 0, 1
            x = source[perm[x ^ h] ^ h]  # the other bit of its target pair goes low
    halves = [[0] * h, [0] * h]
    for x, y in enumerate(perm):
        halves[side[x]][x & (h - 1)] = y & (h - 1)
    first = sum(side[x] << x for x in range(h))
    last = sum(side[x] << perm[x] for x in range(size) if perm[x] < h)
    inner = [(shift, low | high << h) for (shift, low), (_, high) in zip(_benes(halves[0]), _benes(halves[1]))]
    return [(h, first), *inner, (h, last)]


@functools.cache
def _rank_network(n: int) -> tuple[tuple[int, int], ...]:
    """The delta swaps of ``_benes`` that move bit ``X`` of a truth table
    over [n], ``n <= BITMAP_GROUND``, to bit ``m - 1 - rank[X]`` of the
    family's rank bitmap (``m = 2**n``, ``rank`` the shortlex rank), in a
    lane of ``max(m, 8)`` bits whose padding bits stay put; swaps with an
    empty mask are dropped."""
    m = 1 << n
    rank = _shortlex_table(n)[1]
    perm = [m - 1 - rank[x] for x in range(m)] + list(range(m, 8))
    return tuple((shift, mask) for shift, mask in _benes(perm) if mask)


@functools.cache
def _bitmap_texts(n: int, sep: str) -> tuple[tuple[str, ...], ...]:
    """Per-byte lookup tables of the JSON text of families over [n], ``n
    <= BITMAP_GROUND``, read off their rank bitmaps, for the separator
    ``sep`` of ``_families_text``.

    The rank bitmap ``R`` of a family is the ``m = 2**n``-bit int with bit
    ``m - 1 - r`` set for each shortlex rank ``r`` of its sets: rank 0 is
    the top bit, so ``R.to_bytes(.., "big")`` lists the ranks in ascending
    order.  ``texts[j][v]`` is the JSON text of the sets at the bits of
    ``v`` as byte ``j`` of big-endian ``R``, each with a leading comma,
    which is ``sep`` for byte 0.  A bitmap of ``m < 8`` bits is one byte,
    with ``2**m`` values.  Each entry is one concatenation onto the entry
    at ``v`` without its top bit."""
    m = 1 << n
    width = min(m, 8)
    size = 1 << width
    members = _member_texts(n)
    texts = []
    for j in range(max(m >> 3, 1)):
        pieces = ["," + members[8 * j + width - 1 - b] for b in range(width)]
        text = [""] * size
        for v in range(1, size):
            top = v.bit_length() - 1
            text[v] = pieces[top] + text[v ^ 1 << top]
        texts.append(tuple(text))
    texts[0] = tuple(sep + text[1:] for text in texts[0])
    return tuple(texts)


def _canonical_order(tables: Iterable[int], n: int) -> tuple[list[int], list]:
    """The truth tables over [n] in canonical order, and per table its
    order form: the rank bitmap ``R`` for ``n <= BITMAP_GROUND`` (see
    ``_bitmap_texts``), the ascending rank list above, off which
    ``_family_pieces``, the forms' one reader, writes the family.

    Families compare as their ascending rank lists.  Let ``r`` be the least
    rank in which families ``A != B`` differ, say ``r`` in ``A``.  If ``B``
    has a rank above ``r``, the lists first differ where ``A`` has ``r``
    and ``B`` a larger rank, so ``A < B``; otherwise ``B`` is a prefix of
    ``A``, so ``B < A``.  The bitmap key is ``H << m | R``, where
    ``H = full ^ (low - 1) ^ R``, for ``low = R & -R`` the bit of the
    family's largest rank, has a bit for each absent rank up to that one.
    In the first case both families reach past ``r`` and agree below it,
    so their ``H`` agree at every rank below ``r``, and at ``r`` only
    ``H_B`` has its bit: ``H_A < H_B``.  In the second every bit of
    ``H_B`` is a bit of ``H_A``, and if the two are equal, ``R_B < R_A``.
    So keys compare as the families do.  The empty family, a prefix of
    every family, would get the negative key ``-2**(2m)``.

    The kernel works on all the tables at once.  They are packed into one
    int, a lane of ``max(m, 8)`` bits each (``_lane_bytes``), and the
    delta swaps of ``_rank_network`` turn every lane into its ``R``.  Then
    ``FULL ^ ((R & ~(R - ONES)) - ONES) ^ R``, for ``FULL`` and ``ONES``
    each lane's ``full`` and ``1``, is every lane's ``H``: ``R & ~(R - 1)``
    is the ``low`` of a nonzero ``R``, and neither subtraction borrows out
    of a nonzero lane.  A zero lane would, so empty families are taken out
    first and put first, as their key orders them.  The lanes of ``R`` and
    ``H`` are paired into lanes of twice the width (``_pair_lanes``) and
    read back in one pass (``_lanes``) as the keys ``H << 8 * width | R``,
    which order as ``H << m | R`` does, since ``R < 2**m``; each sorted
    key's low ``m`` bits are its bitmap.
    """
    if n > BITMAP_GROUND:
        entries = sorted(((shortlex_ranks(t, n), t) for t in tables), key=itemgetter(0))
        return [t for _, t in entries], [r for r, _ in entries]
    m = 1 << n
    width, order, full = max(m >> 3, 1), sys.byteorder, (1 << m) - 1
    tables = list(tables)
    empty = tables.count(0)
    if empty:
        tables = [t for t in tables if t]

    def each_lane(value: int) -> int:
        return int.from_bytes(value.to_bytes(width, order) * len(tables), order)

    R = int.from_bytes(_lane_bytes(tables, width, order), order)
    for shift, mask in _rank_network(n):
        d = ((R >> shift) ^ R) & each_lane(mask)
        R ^= d ^ (d << shift)
    ones = each_lane(1)
    H = each_lane(full) ^ ((R & ~(R - ones)) - ones) ^ R
    size = width * len(tables)
    keys = _lanes(_pair_lanes(R.to_bytes(size, order), H.to_bytes(size, order), width), 2 * width)
    ranked = sorted(range(len(keys)), key=keys.__getitem__)
    return [0] * empty + [tables[i] for i in ranked], [0] * empty + [keys[i] & full for i in ranked]


def _family_pieces(forms: Sequence, n: int, sep: str) -> list[str]:
    """The families at the order forms of ``_canonical_order``, each its
    sets' JSON text comma-separated, joined by ``sep``, which holds a
    character no set text holds (a quote), as a few pieces of text for a
    caller to join once: one join of the members at the ranks, or, up to
    ``BITMAP_GROUND`` elements, one join of ``_bitmap_texts`` over the
    bitmaps packed big-endian (``_lane_bytes``) per 4,096 families.

    The byte-0 texts carry ``sep`` for their leading comma, so a family
    with a set in byte 0 (a rank below 8) needs no edit, and one with none
    keeps its first set's comma, which a ``replace`` drops.  In canonical
    order the families with none form one tail: families compare as their
    ascending rank lists, so they sort by least rank first, and every
    family with a rank below 8 comes before every family without one,
    except the empty family, a prefix of every family, which comes first.
    The first family's ``sep``, and its comma if it has one, are cut from
    its own text, and one ``find`` over the bytes 0 of the other bitmaps
    finds where the tail starts; only the tail is searched.  A second
    empty family, from a repeated table, starts the tail, where its text,
    ``sep`` alone, needs no edit.  The texts are cached per separator;
    every caller passes one of few."""
    if n > BITMAP_GROUND:
        members = _member_texts(n)
        # an itemgetter of one index returns the item alone
        return [sep.join(",".join(itemgetter(*r)(members)) if len(r) > 1 else members[r[0]] if r else ""
                         for r in forms)]
    nbytes = max(1 << n >> 3, 1)
    texts = _bitmap_texts(n, sep)
    packed = _lane_bytes(forms, nbytes, "big")
    tail = packed[0::nbytes].find(0, 1)
    head = nbytes * tail if tail >= 0 else len(packed)

    def text(start: int, stop: int) -> str:
        return "".join(map(getitem, itertools.cycle(texts), packed[start:stop]))

    step = nbytes << 12  # 4,096 families a piece, so that peak memory stays that of the text
    pieces = [text(0, nbytes)[len(sep):].lstrip(",")]
    pieces += [text(i, min(i + step, head)) for i in range(nbytes, head, step)]
    pieces += [text(i, i + step).replace(sep + ",", sep) for i in range(head, len(packed), step)]
    return pieces


def _families_text(forms: Sequence, n: int, sep: str) -> str:
    """The text of ``_family_pieces``, joined."""
    return "".join(_family_pieces(forms, n, sep))


def _systems_pieces(forms: Sequence, n: int) -> list[str]:
    """The pieces of ``_systems_text``, ``_family_pieces`` between the
    brackets, for a caller that joins them into a larger text once."""
    return ['[{"feasible":[', *_family_pieces(forms, n, '],"n":%d},{"feasible":[' % n), '],"n":%d}]' % n]


def _systems_text(forms: Sequence, n: int) -> str:
    """The canonical JSON text of ``[D.to_json() for D in systems]`` for
    one or more systems over [n], at their order forms from
    ``_canonical_order``: one join of ``_systems_pieces``."""
    return "".join(_systems_pieces(forms, n))


def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _value_type(**options):
    """``dataclass(frozen=True, slots=True, **options)`` whose instances
    refuse to assign or delete any name with ``FrozenInstanceError``, an
    ``AttributeError``.  The ``__setattr__`` that ``frozen`` writes checks
    the class from before ``slots`` rebuilt it, so on CPython 3.11 a name
    that is not a field fell through to ``super()`` and raised
    ``TypeError``."""

    def wrap(cls):
        cls = dataclass(frozen=True, slots=True, **options)(cls)
        cls.__setattr__ = _refuse_set
        cls.__delattr__ = _refuse_delete
        return cls

    return wrap


@_value_type(init=False, repr=False)
class SetSystem:
    """An immutable family of feasible subsets of ``{1, .., n}``.

    Two systems are equal iff they have the same ground size and the same
    family, which is stored only as its truth table ``table``.
    Serialization lists each set in ascending order and the family in
    canonical (cardinality, then lexicographic) order.
    """

    n: int
    table: int

    def __init__(self, n: int, masks: Iterable[int] = ()):
        if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= MAX_GROUND:
            raise ValidationError(f"ground size must be an integer in 0..{MAX_GROUND}, got {quoted(n)}")
        table = 0
        for m in _iter_checked(masks, "the masks"):
            if type(m) is not int or m < 0 or m >> n:
                raise ValidationError(f"mask {quoted(m)} does not encode a subset of [{n}]")
            table |= 1 << m
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", table)

    @classmethod
    def from_table(cls, n: int, table: int) -> "SetSystem":
        """Trusted constructor: ``table`` must be a truth table over [n].
        The slots are written through their member descriptors
        (``_set_n``, ``_set_table``), past the refusing ``__setattr__``."""
        D = object.__new__(cls)
        _set_n(D, n)
        _set_table(D, table)
        return D

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetSystem":
        return cls(n, (mask_of(s, n) for s in _iter_checked(sets, "the sets")))

    @property
    def masks(self) -> tuple[int, ...]:
        """The feasible masks in ascending order."""
        return tuple(_masks_of_table(self.table))

    @property
    def is_proper(self) -> bool:
        return self.table != 0

    @property
    def is_normal(self) -> bool:
        return bool(self.table & 1)

    def has_mask(self, mask: int) -> bool:
        return mask >= 0 and bool(self.table >> mask & 1)

    def mask_set(self) -> frozenset[int]:
        return frozenset(self.masks)

    def feasible_sets(self) -> tuple[tuple[int, ...], ...]:
        """The family in canonical order, each set as an ascending tuple,
        one of the shortlex table's, which every family over [n] shares."""
        members, ranks = _shortlex_table(self.n)[0], shortlex_ranks(self.table, self.n)
        # an itemgetter of one index returns the item alone
        return itemgetter(*ranks)(members) if len(ranks) > 1 else tuple(members[r] for r in ranks)

    def canonical_key(self):
        """Total-order key for sorting collections of systems."""
        return (self.n, tuple(shortlex_ranks(self.table, self.n)))

    def __repr__(self) -> str:
        fam = ", ".join("{" + ",".join(map(str, s)) + "}" for s in self.feasible_sets())
        return f"SetSystem({self.n}, [{fam}])"

    def to_json(self) -> dict:
        """The canonical file format: the sets in shortlex order, read off
        one lookup of the shortlex table, sorting the ranks of the set bits
        as ``shortlex_ranks`` does."""
        members, rank = _shortlex_table(self.n)
        ranks = sorted(itertools.compress(rank, _table_bytes(self.table)))
        return {"n": self.n, "feasible": [list(members[r]) for r in ranks]}

    @classmethod
    def from_json(cls, data: dict) -> "SetSystem":
        """Parse the canonical file format, rejecting duplicate sets."""
        if not isinstance(data, dict) or "n" not in data or "feasible" not in data:
            raise ValidationError("set-system object needs 'n' and 'feasible'")
        n = data["n"]
        if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= MAX_GROUND:
            raise ValidationError(f"'n' must be an integer in 0..{MAX_GROUND}, got {quoted(n)}")
        fam = data["feasible"]
        if not isinstance(fam, list):
            raise ValidationError("'feasible' must be a list of lists")
        table = 0
        for s in fam:
            if not isinstance(s, list):
                raise ValidationError("each feasible set must be a list")
            table |= 1 << mask_of(s, n)
        if table.bit_count() != len(fam):
            raise ValidationError("duplicate feasible sets")
        return cls.from_table(n, table)


#: the slot writers of ``SetSystem``, for its trusted constructors
_set_n, _set_table = SetSystem.n.__set__, SetSystem.table.__set__


def sorted_systems(tables: Iterable[int], n: int) -> tuple[SetSystem, ...]:
    """The systems with the given truth tables over [n], in canonical
    order: the objects made in one comprehension, their slots written as
    ``SetSystem.from_table`` writes them."""
    order = _canonical_order(tables, n)[0]
    systems = [object.__new__(SetSystem) for _ in order]
    for D, t in zip(systems, order):
        _set_n(D, n)
        _set_table(D, t)
    return tuple(systems)


@_value_type()
class DeltaMatroidWitness:
    """Outcome of the symmetric-exchange check.

    When ``valid`` is false and ``reason`` is ``"exchange"``, the triple
    ``(X, Y, u)`` refutes the axiom directly: ``X`` and ``Y`` are feasible,
    ``u`` lies in their symmetric difference, and no ``v`` there (including
    ``v = u``) makes ``X symdiff {u, v}`` feasible.
    """

    valid: bool
    reason: str | None = None
    X: tuple[int, ...] | None = None
    Y: tuple[int, ...] | None = None
    u: int | None = None

    def to_json(self):
        if self.valid:
            return None
        if self.reason == "not proper":
            return {"reason": "not proper"}
        return {"reason": self.reason, "X": list(self.X), "Y": list(self.Y), "u": self.u}


# ---------------------------------------------------------------------------
# truth tables and the single-element flips on them, shared by every engine


def _zero_masks(n: int, width: int) -> tuple[int, ...]:
    """Per digit index ``k``, the bits of a ``2**(width * n)``-bit table
    whose index has base-``2**width`` digit ``k`` equal to 0."""
    out = []
    for k in range(n):
        mask, block = (1 << (1 << width * k)) - 1, 1 << width * (k + 1)
        while block < 1 << width * n:
            mask |= mask << block
            block <<= 1
        out.append(mask)
    return tuple(out)


#: per ground size, its ``_zero_masks(n, 1)``; a flip reads them on every call
_HALVES = tuple(_zero_masks(n, 1) for n in range(MAX_GROUND + 1))


def _masks_of_table(table: int) -> list[int]:
    """The indices of the set bits of ``table``, ascending."""
    return list(itertools.compress(range(table.bit_length()), _table_bytes(table)))


def twist1(table: int, n: int, k: int) -> int:
    """``*`` at element ``e = k + 1``: each ``X`` trades places with ``X ^ {e}``."""
    half, shift = _HALVES[n][k], 1 << k
    return ((table & half) << shift) | ((table >> shift) & half)


def loop_complement1(table: int, n: int, k: int) -> int:
    """``+`` at element ``e = k + 1``: each feasible ``X`` without ``e`` toggles ``X | {e}``."""
    half, shift = _HALVES[n][k], 1 << k
    return table ^ ((table & half) << shift)


def dual_twist1(table: int, n: int, k: int) -> int:
    """``~`` at element ``e = k + 1``: each feasible ``X`` with ``e`` toggles ``X - {e}``."""
    half, shift = _HALVES[n][k], 1 << k
    return table ^ ((table >> shift) & half)


def _swap_adjacent(table: int, n: int, k: int) -> int:
    """Relabel by the transposition ``(k+1 k+2)``, a delta swap of the table."""
    t = ((table >> (1 << k)) ^ table) & ~_HALVES[n][k] & _HALVES[n][k + 1]
    return table ^ t ^ (t << (1 << k))


def _plain_changes(n: int) -> Iterator[int]:
    """Steinhaus–Johnson–Trotter: the ``n! - 1`` swaps of positions ``k``
    and ``k + 1`` that walk ``n`` items through every order.  The last
    item sweeps end to end; between sweeps the others take one step.  As
    ``_swap_adjacent`` steps they walk a table through its ``n!``
    relabelings, one delta swap each instead of a bubble sort."""
    if n < 2:
        return
    inner = _plain_changes(n - 1)
    leftward = True
    while True:
        yield from range(n - 2, -1, -1) if leftward else range(n - 1)
        k = next(inner, None)
        if k is None:
            return
        yield k + 1 if leftward else k  # the last item sits at the left end
        leftward = not leftward


def relabel(table: int, n: int, images: Iterable[int]) -> int:
    """The truth table of ``{p(X)}`` for ``p: i -> images[i-1]``.

    Bubble-sorts the one-line ``images``.  Exchanging entries ``k`` and
    ``k + 1`` composes ``p`` on the right with the transposition
    ``(k+1 k+2)``, so ``p`` is the product of the exchanges in reverse
    order of discovery, and the table takes them in the order found.
    """
    line = list(images)
    for end in range(n - 1, 0, -1):
        for k in range(end):
            if line[k] > line[k + 1]:
                line[k], line[k + 1] = line[k + 1], line[k]
                table = _swap_adjacent(table, n, k)
    return table


def fold_flip(flip, table: int, n: int, mask: int) -> int:
    """Apply the single-element ``flip`` at every element of ``mask``.

    Flips at distinct elements commute, so the order is immaterial.
    """
    for k in range(n):
        if mask >> k & 1:
            table = flip(table, n, k)
    return table


# ---------------------------------------------------------------------------
# bulk operations: one single-element flip per element of ``I``

def twist(D: SetSystem, I: Iterable[int]) -> SetSystem:
    """Symmetric difference of every feasible set with ``I``."""
    return SetSystem.from_table(D.n, fold_flip(twist1, D.table, D.n, mask_of(I, D.n)))


def loop_complement(D: SetSystem, I: Iterable[int]) -> SetSystem:
    """Parity rule over the interval between ``X \\ I`` and ``X``.

    ``X`` is feasible in the result iff an odd number of feasible ``Y``
    satisfy ``X \\ I <= Y <= X``; equivalently the result is the symmetric
    difference, over feasible ``Y``, of the intervals ``[Y, Y | I]``.
    """
    return SetSystem.from_table(D.n, fold_flip(loop_complement1, D.table, D.n, mask_of(I, D.n)))


def dual_twist(D: SetSystem, I: Iterable[int]) -> SetSystem:
    """Parity rule over the interval between ``X`` and ``X | I``.

    ``X`` is feasible in the result iff an odd number of feasible ``Y``
    satisfy ``X <= Y <= X | I``.
    """
    return SetSystem.from_table(D.n, fold_flip(dual_twist1, D.table, D.n, mask_of(I, D.n)))


# ---------------------------------------------------------------------------
# structure checks

@functools.cache
def _other_flips(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per element index ``k`` of [n], the ``(half, shift)`` pair of the
    twist at every other element, in ascending order."""
    flips = [(half, 1 << j) for j, half in enumerate(_HALVES[n])]
    return tuple(tuple(flips[:k] + flips[k + 1:]) for k in range(n))


def _exchange_failures(table: int, n: int) -> int:
    """The truth table of the feasible ``X`` that refute symmetric exchange
    with some feasible ``Y`` and some ``u``.

    Fix ``u``.  A feasible ``X`` with ``X symdiff {u}`` infeasible (a bit
    of ``F & ~*u F``) fails iff some feasible ``Y`` differs from ``X`` at
    ``u`` and agrees with it on ``R``, the ``v != u`` with ``X symdiff {u,
    v}`` feasible (bit ``X`` of ``*v *u F``).  A depth-first walk decides
    for each ``v`` in turn whether it lies in ``R``: ``S`` keeps the
    candidates that match every decision so far, and ``E`` the family with
    each ``v`` decided out of ``R`` forgotten (``E | *v E``).  At a leaf,
    ``S & *u E`` are the candidates that fail with ``u``.  A branch whose
    ``S`` is empty is pruned, so the walk has at most one leaf per
    candidate.
    """
    bad = 0
    for k, (half, others) in enumerate(zip(_HALVES[n], _other_flips(n))):
        shift = 1 << k
        flipped = ((table & half) << shift) | ((table >> shift) & half)
        candidates = table & ~flipped
        if candidates:
            steps = None
            for h, sh in reversed(others):
                steps = (((flipped & h) << sh) | ((flipped >> sh) & h), h, sh, steps)
            bad |= _refuted(candidates, table, steps, half, shift)
    return bad


def _refuted(s: int, e: int, steps: tuple | None, half: int, shift: int) -> int:
    """One node of the walk of ``_exchange_failures``.  ``steps`` holds the
    undecided ``v`` as nested ``(reach, half, shift, rest)`` tuples, where
    bit ``X`` of ``reach`` says whether ``X symdiff {u, v}`` is feasible;
    ``half`` and ``shift`` twist at ``u``."""
    if steps is None:
        return s & (((e & half) << shift) | ((e >> shift) & half))
    reach, h, sh, rest = steps
    out = 0
    inside = s & reach
    if inside:
        out = _refuted(inside, e, rest, half, shift)
    if inside != s:
        forgot = e | ((e & h) << sh) | ((e >> sh) & h)
        out |= _refuted(s ^ inside, forgot, rest, half, shift)
    return out


def _exchange_failure(ordered: list[int], bad: int, table: int, n: int) -> tuple[int, int, int]:
    """First ``(X, Y, u)`` refuting symmetric exchange.

    ``X`` and then ``Y`` run over ``ordered``, the family over [n] with
    truth table ``table``, and ``u`` over the bits of ``X symdiff Y`` in
    ascending order.  ``bad`` is ``_exchange_failures(table, n)``, not 0:
    every ``X`` that fails; only the first one in ``ordered`` is scanned
    against every ``Y``.  For each bit ``u`` with ``X symdiff {u}`` infeasible,
    let ``R`` be the bits ``v != u`` with ``X symdiff {u, v}`` feasible:
    ``Y`` fails with ``u`` iff it differs from ``X`` at ``u`` and agrees
    with it on ``R``.
    """
    x = next(x for x in ordered if bad >> x & 1)
    stuck = []
    for k in range(n):
        ub = 1 << k
        if table >> (x ^ ub) & 1:
            continue
        reach = 0
        for j in range(n):
            if j != k and table >> (x ^ ub ^ 1 << j) & 1:
                reach |= 1 << j
        stuck.append((ub, reach))
    for y in ordered:
        diff = x ^ y
        for ub, reach in stuck:
            if diff & ub and not diff & reach:
                return x, y, ub
    raise ConsistencyError(f"no exchange partner for the failing set {members_of(x)}")


def is_delta_matroid(D: SetSystem) -> DeltaMatroidWitness:
    """Check properness plus the symmetric exchange axiom.

    On failure the witness is the first refuting triple in canonical
    ``(X, Y, u)`` order (family order, then ascending ``u``).
    """
    return _exchange_witness(D, _exchange_failures(D.table, D.n) if D.is_proper else 0)


def _exchange_witness(D: SetSystem, bad: int) -> DeltaMatroidWitness:
    """``is_delta_matroid(D)`` from ``bad``, the exchange failure table of
    ``D`` (``_exchange_failures``; any value when ``D`` is improper)."""
    if not D.is_proper:
        return DeltaMatroidWitness(False, "not proper")
    if not bad:
        return DeltaMatroidWitness(True)
    ordered = sorted(D.masks, key=_shortlex_table(D.n)[1].__getitem__)
    x, y, ub = _exchange_failure(ordered, bad, D.table, D.n)
    return DeltaMatroidWitness(False, "exchange", members_of(x), members_of(y), ub.bit_length())


# ---------------------------------------------------------------------------
# vf-safety closure over twist classes

def _binary_table(rows: list[int], n: int) -> int:
    """The truth table of ``D(A) = {Y : A[Y] nonsingular over GF(2)}`` for
    ``n >= 2``, row ``i`` of the symmetric ``A`` the mask ``rows[i]``.  The
    sets without the top element ``v`` are ``D(A - v)``, and those with it
    ``D(B)`` for ``B[i][j] = A[i][j] + A[i][v] A[v][j]``, the Schur complement
    at ``v`` with ``A[v][v]`` set to 1, XOR ``D(A - v)`` if it was 0.  The
    recursion ends at three elements, in a lookup of ``_BINARY_LEAVES``."""
    if n == 3:
        return _BINARY_LEAVES[rows[0] | rows[1] << 3 | rows[2] << 6]
    return _schur_split(rows, n)


def _schur_split(rows: list[int], n: int) -> int:
    """``_binary_table`` by one step of its recursion, or at two elements
    directly."""
    if n == 2:
        a, b = rows
        return 1 | (a & 1) << 1 | (b & 2) << 1 | ((a & b >> 1 ^ a >> 1) & 1) << 3
    v = n - 1
    keep, top = (1 << v) - 1, rows[v]
    low = _binary_table([r & keep for r in rows[:v]], v)
    high = _binary_table([(r ^ top if r >> v & 1 else r) & keep for r in rows[:v]], v)
    return low | (high if top >> v & 1 else high ^ low) << (1 << v)


#: ``_binary_table`` at three elements for each of the 512 row triples,
#: indexed by ``rows[0] | rows[1] << 3 | rows[2] << 6``
_BINARY_LEAVES = tuple(_schur_split([v & 7, v >> 3 & 7, v >> 6], 3) for v in range(512))


def _is_binary(table: int, n: int) -> bool:
    """Whether the family is a twist of ``D(A)`` for a symmetric GF(2)
    matrix ``A`` (Bouchet 1988).  Twisted by its least feasible set, it can
    only be the ``D(A)`` with ``A[i][i]`` read from ``{i}`` and ``A[i][j]``
    from ``{i, j}``, XORed with ``A[i][i] A[j][j]``."""
    if n < 2 or not table:  # every proper family on at most one element is binary
        return table != 0
    table = fold_flip(twist1, table, n, (table & -table).bit_length() - 1)
    diag = [table >> (1 << i) & 1 for i in range(n)]
    rows = [d << i for i, d in enumerate(diag)]
    for i, j in itertools.combinations(range(n), 2):
        if table >> (1 << i | 1 << j) & 1 ^ diag[i] & diag[j]:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return _binary_table(rows, n) == table


def is_vf_safe(
    D: SetSystem,
    max_n: int | None = None,
    cache: dict | None = None,
) -> bool:
    """Whether every system reachable from ``D`` by single-element twists
    and loop complementations is a delta-matroid.

    A binary delta-matroid is vf-safe, since loop complementation at ``i``
    toggles ``A[i][i]`` in ``D(A)`` (Brijder and Hoogeboom 2013).  So
    ``_is_binary`` answers first, and only other families walk the closure.

    Twisting preserves properness and the symmetric exchange axiom (Bouchet
    1987), so one whole-table walk of ``_exchange_failures`` decides a whole
    twist class, and no mask is decoded.  The first walk is on ``D`` itself:
    a family that fails it is refused at once.  Otherwise the closure is
    walked one element at a time (``_closure_safe``).  At one element the
    six flips fall into the three cosets ``{1, *} r`` of the twists, for
    ``r`` in ``1``, ``+`` and ``+*``, and flips at distinct elements
    commute, so every system of the closure is a twist of ``r D`` for some
    ``r`` in ``{1, +, +*}^n``: at most ``3**n`` exchange checks, and the
    first failure ends the walk.

    A ``True`` verdict certifies that ``D`` itself is a delta-matroid: the
    walk checks exchange on ``D`` first, and a binary family is a twist of
    some ``D(A)``, which satisfies exchange (Bouchet 1988).  So a caller
    needs ``is_delta_matroid`` only on a ``False``.

    An optional ``cache`` dict memoizes verdicts across calls, one entry per
    family asked about, keyed by ``(n, truth table)``.  ``max_n`` caps
    ``D.n``; ``None`` means ``VF_SAFE_DEFAULT_CAP``.
    """
    return _vf_safety(D, max_n, cache)[0]


def _vf_safety(D: SetSystem, max_n: int | None, cache: dict | None) -> tuple[bool, int]:
    """``is_vf_safe(D, max_n, cache)`` and the exchange failure table of
    ``D`` (``_exchange_failures``), which ``_exchange_witness`` turns into
    ``is_delta_matroid(D)``: 0 with a ``True`` verdict or an improper ``D``.
    A ``False`` read from the cache walks exchange on ``D`` once for it."""
    n, table = D.n, D.table
    BudgetError.check("vf-safe closure", n, max_n, VF_SAFE_DEFAULT_CAP, 3, "twist classes")
    safe = cache.get((n, table)) if cache is not None else None
    if safe is not None:
        return safe, 0 if safe else _exchange_failures(table, n)
    safe, bad = _is_binary(table, n), 0
    if not safe and table:
        bad = _exchange_failures(table, n)
        safe = not bad and _closure_safe(table, n)
    if cache is not None:
        cache[n, table] = safe
    return safe, bad


def _closure_safe(table: int, n: int) -> bool:
    """Whether the closure of the delta-matroid ``table`` passes the
    exchange check, walked on at most one twist of ``r D`` for each ``r``
    in ``{1, +, +*}^n``.  The six flips at one element are ``r`` and ``* r``
    (``+*`` applies ``*`` first), the cosets of the twists ``{1, *}``.
    Element ``k`` maps each table kept so far to itself, ``+k`` and
    ``+k *k`` of it, each reduced by ``t = min(t, *j t)`` for ``j <= k`` in
    turn, and keeps the distinct results.  A new one made by ``+k`` or
    ``+k *k`` is checked at once, and the first failure ends the walk; one
    made by ``1`` is a twist of a table checked before."""
    flips = list(zip(_HALVES[n], (1 << k for k in range(n))))
    level = [table]
    for k, (half, shift) in enumerate(flips):
        below = flips[:k + 1]
        kept = {}
        for s in level:
            up = (s & half) << shift
            twisted = up | ((s >> shift) & half)
            for made, t in enumerate((s, s ^ up, twisted ^ ((twisted & half) << shift))):
                for h, sh in below:
                    t = min(t, ((t & h) << sh) | ((t >> sh) & h))
                if t not in kept:
                    if made and _exchange_failures(t, n):
                        return False
                    kept[t] = None
        level = kept
    return True
