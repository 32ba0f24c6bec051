"""Carriers with three-element skew classes, transversal triples,
projections, multimatroid axioms, tightness, restriction, and the lift /
extraction constructions connecting vf-safe set systems to 3-matroids.

Carrier elements are always pairs ``(i, r)`` with ``i`` a class index in
``1..n`` and ``r`` a role in ``{1, 2, 3}``; arbitrary carriers are
normalized to this shape at the boundary, which makes transversal triples
and projections finite and serializable.  A transversal is a choice tuple
``(r_1, .., r_n)``, a subtransversal also has ``0`` for classes it misses,
and a multimatroid keeps each as one bit of a ``4**n``-bit table.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator

from .errors import BudgetError, ConsistencyError, ValidationError, quoted
from .set_system import (
    SetSystem,
    _adjacent_swaps,
    _exchange_failures,
    _iter_checked,
    _value_type,
    _zero_masks,
    is_vf_safe,
    relabel,
    sorted_systems,
)
from .twuality_group import Flip, Perm

MULTIMATROID_CAP = 6
LIFT_CAP = 8
ORBIT_VIA_LIFT_CAPS = {"full": 4, "iota": 7}

#: a multimatroid is a ``4**n``-bit table, so its size grows fourfold per
#: class; 10 classes is a 128 KiB int, above every cap in this module
MAX_CLASSES = 10


@_value_type()
class Carrier:
    """An (n, 3)-carrier: classes ``1..n``, each with members ``(i, 1..3)``."""

    n: int

    def skew_class(self, i: int) -> tuple[tuple[int, int], ...]:
        if type(i) is not int or not 1 <= i <= self.n:
            raise ValidationError(f"class index {quoted(i)} out of range 1..{self.n}")
        return ((i, 1), (i, 2), (i, 3))

    def elements(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, r) for i in range(1, self.n + 1) for r in (1, 2, 3))


@_value_type(init=False, repr=False)
class TransversalTriple:
    """An ordered partition of the carrier into three disjoint transversals.

    ``roles[i-1][r-1]`` is the slot (1, 2 or 3) holding member ``(i, r)``,
    so each class contributes a bijection between members and slots.
    """

    roles: tuple[tuple[int, int, int], ...]

    def __init__(self, roles: Iterable[Iterable[int]]):
        try:
            roles = tuple(tuple(r) for r in roles)
        except TypeError:
            raise ValidationError(f"roles {quoted(roles)} must be a list of slot lists") from None
        for r in roles:
            if any(type(s) is not int for s in r) or sorted(r) != [1, 2, 3]:
                raise ValidationError(f"class roles {quoted(list(r))} must be a permutation of (1, 2, 3)")
        object.__setattr__(self, "roles", roles)

    @staticmethod
    def reference(n: int) -> "TransversalTriple":
        return TransversalTriple(((1, 2, 3),) * n)

    @property
    def n(self) -> int:
        return len(self.roles)

    def slot_of(self, i: int, r: int) -> int:
        return self.roles[i - 1][r - 1]

    def member_in_slot(self, i: int, slot: int) -> int:
        return self.roles[i - 1].index(slot) + 1

    def transversal(self, slot: int) -> tuple[tuple[int, int], ...]:
        return tuple((i, self.member_in_slot(i, slot)) for i in range(1, self.n + 1))

    def to_json(self) -> dict:
        return {"roles": [list(r) for r in self.roles]}

    @classmethod
    def from_json(cls, data: dict) -> "TransversalTriple":
        if not isinstance(data, dict) or "roles" not in data:
            raise ValidationError("transversal triple object needs 'roles'")
        return cls(data["roles"])

    def __repr__(self):
        return f"TransversalTriple({[list(r) for r in self.roles]})"


@_value_type(repr=False)
class Projection:
    """A relabeling of classes: element ``(i, r)`` projects to ``rho(i)``."""

    relabel: Perm

    @staticmethod
    def identity(n: int) -> "Projection":
        return Projection(Perm.identity(n))

    @property
    def n(self) -> int:
        return self.relabel.n

    def label_of(self, i: int) -> int:
        return self.relabel(i)

    def class_of(self, label: int) -> int:
        return self.relabel.inverse()(label)

    def to_json(self) -> list[int]:
        return self.relabel.one_line()

    def __repr__(self):
        return f"Projection({self.relabel.one_line()})"


def _check_class_count(n) -> None:
    if type(n) is not int or not 0 <= n <= MAX_CLASSES:
        raise ValidationError(f"class count must be an integer in 0..{MAX_CLASSES}, got {quoted(n)}")


def _index(choice: Iterable[int]) -> int:
    """The table bit of a (sub)transversal choice: ``sum(r_k * 4**k)``."""
    return sum(r << 2 * k for k, r in enumerate(choice))


#: per byte value, the offsets of its set bits, and its four base-4 digits
_BITS = tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256))
_DIGITS = tuple(tuple(v >> s & 3 for s in (0, 2, 4, 6)) for v in range(256))


def _indices(table: int) -> Iterator[int]:
    """The set bits of a table, ascending; ``compress`` skips zero bytes."""
    data = table.to_bytes((table.bit_length() + 7) >> 3, "little")
    return (j << 3 | b for j in itertools.compress(range(len(data)), data) for b in _BITS[data[j]])


def _choices(n: int, table: int) -> list[tuple[int, ...]]:
    """The choice tuples of the set bits of a table, in ascending bit order;
    an index has at most three bytes of digits."""
    d = _DIGITS
    return [(d[i & 255] + d[i >> 8 & 255] + d[i >> 16])[:n] for i in _indices(table)]


@functools.cache
def _basis_texts(n: int) -> tuple[tuple[str, ...], ...]:
    """Per byte ``j`` of an index (three bytes cover ``MAX_CLASSES``) and
    its value, the JSON text of the members ``[k,r]`` that its four digits
    choose in the classes ``k = 4j+1, ..`` up to ``n``, comma-separated and
    after a comma unless ``j`` is 0; empty for a byte past the classes."""
    texts = []
    for j in range(3):
        classes = range(4 * j + 1, min(4 * j + 4, n) + 1)
        sep = "," if j and classes else ""
        texts.append(tuple(sep + ",".join("[%d,%d]" % kr for kr in zip(classes, _DIGITS[v])) for v in range(256)))
    return tuple(texts)


#: per class count, the ``_zero_masks`` of its ``4**n``-bit tables
_zeros = functools.cache(functools.partial(_zero_masks, width=2))


def _split(table: int, k: int, zero: int) -> tuple[int, int, int, int]:
    """The entries of ``table`` by their digit ``k``: item ``r`` holds the
    entries whose digit ``k`` is ``r``, moved to digit 0.  A right shift
    by ``r * 4**k`` takes digit ``r`` to 0 and any other digit to a
    nonzero one, so the AND with ``zero`` keeps exactly those."""
    d = 1 << 2 * k
    return table & zero, (table >> d) & zero, (table >> 2 * d) & zero, (table >> 3 * d) & zero


@_value_type(init=False, repr=False)
class Multimatroid:
    """A 3-matroid on the reference carrier, stored as its base table:
    basis ``b`` sets bit ``sum(b[k] * 4**k)`` of the ``4**n``-bit int
    ``table``.  Digit 0 marks a missed class, so the independent sets share
    the index space with the bases.  Classes are capped at ``MAX_CLASSES``.
    """

    n: int
    table: int

    def __init__(self, n: int, bases: Iterable[tuple[int, ...]]):
        _check_class_count(n)
        table = 0
        for b in _iter_checked(bases, "the bases"):
            b = tuple(_iter_checked(b, "a basis"))
            if len(b) != n or any(type(r) is not int or not 1 <= r <= 3 for r in b):
                raise ValidationError(f"basis {quoted(b)} is not a transversal choice on {n} classes")
            table |= 1 << _index(b)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", table)

    @classmethod
    def from_table(cls, n: int, table: int) -> "Multimatroid":
        """Trusted constructor: ``table`` must be a base table on
        ``n <= MAX_CLASSES`` classes.  The slots are written through their
        member descriptors, past the refusing ``__setattr__``."""
        Z = object.__new__(cls)
        _set_n(Z, n)
        _set_table(Z, table)
        return Z

    @property
    def carrier(self) -> Carrier:
        return Carrier(self.n)

    @property
    def bases(self) -> frozenset[tuple[int, ...]]:
        """The bases as choice tuples ``(r_1, .., r_n)``, decoded from the table."""
        return frozenset(_choices(self.n, self.table))

    def sorted_bases(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(_choices(self.n, self.table)))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "bases": [[[i, r] for i, r in enumerate(b, start=1)] for b in self.sorted_bases()],
        }

    def canonical_json(self) -> str:
        """``json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))``,
        each basis written as the texts of its index bytes (``_basis_texts``).
        The bases' texts share one layout and differ only in the role digits,
        which come in class order, so they sort as the choice tuples do."""
        t0, t1, t2 = _basis_texts(self.n)
        bases = sorted([t0[i & 255] + t1[i >> 8 & 255] + t2[i >> 16] for i in _indices(self.table)])
        return '{"bases":[%s],"n":%d}' % ("[%s]" % "],[".join(bases) if bases else "", self.n)

    @classmethod
    def from_json(cls, data: dict) -> "Multimatroid":
        if not isinstance(data, dict) or "n" not in data or "bases" not in data:
            raise ValidationError("multimatroid object needs 'n' and 'bases'")
        n = data["n"]
        _check_class_count(n)
        if not isinstance(data["bases"], list):
            raise ValidationError("'bases' must be a list of bases")
        table = 0
        for raw in data["bases"]:
            if not isinstance(raw, list) or len(raw) != n:
                raise ValidationError(f"basis {quoted(raw)} must list one member per class")
            index = seen = 0
            for pair in raw:
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise ValidationError(f"carrier element {quoted(pair)} must be an [index, role] pair")
                i, r = pair
                if not (type(i) is int and 1 <= i <= n and type(r) is int and r in (1, 2, 3)):
                    raise ValidationError(f"carrier element {quoted(pair)} out of range")
                if seen >> i & 1:
                    raise ValidationError(f"basis {quoted(raw)} visits class {i} twice")
                seen |= 1 << i
                index |= r << 2 * (i - 1)
            if table >> index & 1:
                raise ValidationError("duplicate bases")
            table |= 1 << index
        return cls.from_table(n, table)

    def __repr__(self):
        return f"Multimatroid({self.n}, {list(self.sorted_bases())})"


#: the slot writers of ``Multimatroid``, for ``from_table``
_set_n, _set_table = Multimatroid.n.__set__, Multimatroid.table.__set__


def _independents(Z: Multimatroid) -> int:
    """The table of all subtransversals of bases: per class, the entries
    with a nonzero digit there are copied to digit 0."""
    table = Z.table
    for k, zero in enumerate(_zeros(Z.n)):
        _, r1, r2, r3 = _split(table, k, zero)
        table |= r1 | r2 | r3
    return table


def _augmentation_failure(table: int, T: tuple[int, ...]) -> dict:
    """The axiom-1 witness of a transversal ``T`` whose independents, the
    truth table ``table`` over its classes, are no matroid: the first
    member ``I`` and larger member ``J`` that misses every class extending
    ``I``, both in the order of the subtransversals sorted as tuples."""
    n = len(T)
    order = sorted(range(1 << n), key=lambda m: [m >> k & 1 for k in range(n)])
    members = [m for m in order if table >> m & 1]
    for m in members:
        ext = sum(1 << k for k in range(n) if not m >> k & 1 and table >> (m | 1 << k) & 1)
        for mj in members:
            if mj.bit_count() > m.bit_count() and not mj & ext:
                I, J = ([r if mm >> k & 1 else 0 for k, r in enumerate(T)] for mm in (m, mj))
                return {"axiom": 1, "transversal": list(T), "I": I, "J": J}
    raise ConsistencyError(f"transversal {list(T)} induces a matroid after all")


def is_multimatroid(Z: Multimatroid, max_n: int | None = None):
    """Check both multimatroid axioms on the independents spanned by the
    bases; returns ``(flag, witness)`` with the first failure found.

    Axiom 1 requires every transversal to induce a matroid (nonempty,
    hereditary by construction, augmentation).  Axiom 2 requires every
    skew pair of a class missed by an independent set to extend it.

    Axiom 1 packs each transversal's independents into a ``2**n``-bit
    truth table: class by class, each table keeps digit 0 and digit ``r``
    for each role ``r`` (``_keep_slots``).  Many transversals share a
    table, so each level keeps one entry per distinct table, mapped to the
    least transversal prefix (``itertools.product`` order) reaching it, in
    the order of those prefixes; the next level steps each entry by roles
    1, 2, 3 and keeps each child's first prefix.  That is exact: a child
    depends only on its parent's table, so if ``P + (r,)`` is the least
    prefix reaching it, the least prefix with ``P``'s table is ``P``
    itself, and as the parents come in prefix order the child is first
    inserted at its least prefix, the children in that order.  So the
    first failing final table carries the first failing transversal.  Such
    a table is down-closed and holds the empty set, so it is a matroid's
    independents iff it passes ``_exchange_failures``, the walk
    ``is_delta_matroid`` uses.  Matroid independents satisfy symmetric
    exchange (Bouchet 1987).  Conversely, take ``|X| < |Y|`` failing
    augmentation with ``|X - Y|`` least: exchange at ``u`` in ``Y - X``
    gives ``X + u - v`` with ``v`` in ``X - Y``, which augments by some
    ``y``, and exchange of ``X + u - v + y`` with ``X`` at ``v`` then
    needs ``X + u``, ``X + y`` or ``X + u + y``.  Only the first failing
    transversal is scanned pair by pair, for its witness.  Axiom 2 is
    three masked table ops per class; its witness is the least failing
    independent set as a tuple.  ``max_n`` caps ``Z.n``; ``None`` means
    ``MULTIMATROID_CAP``.
    """
    BudgetError.check("is_multimatroid", Z.n, max_n, MULTIMATROID_CAP, 3, "transversals")
    n = Z.n
    independents = _independents(Z)
    if not independents:
        return False, {"axiom": 1, "reason": "no independent sets"}
    level = {independents: ()}  # distinct table -> its first transversal prefix
    for k, zero in enumerate(_zeros(n)):
        step: dict[int, tuple[int, ...]] = {}
        for t, prefix in level.items():
            for r, c in enumerate(_keep_slots(t, k, zero, ((0, 1), (0, 2), (0, 3))), 1):
                step.setdefault(c, prefix + (r,))
        level = step
    for H, T in level.items():
        if _exchange_failures(H, n):
            return False, _augmentation_failure(H, T)
    # per class and skew pair, the independents missing the class that neither extends
    failures, bad = [], 0
    for k, zero in enumerate(_zeros(n)):
        parts = _split(independents, k, zero)
        for x, y in ((1, 2), (1, 3), (2, 3)):
            f = parts[0] & ~(parts[x] | parts[y])
            failures.append((k + 1, [x, y], f))
            bad |= f
    if bad:
        I = min(_choices(n, bad))
        for k, pair, f in failures:
            if f >> _index(I) & 1:
                return False, {"axiom": 2, "independent": list(I), "class": k, "pair": pair}
    return True, None


def is_tight(Z: Multimatroid, max_n: int | None = None):
    """Exactly one of the three one-class replacements of every basis must
    fail to be a basis; returns ``(flag, witness)``.  Per class ``k``,
    ``_split`` gathers each line of replacements at its digit-0 entry, in
    ``p_r`` for role ``r``; a line fails when it holds a basis but not
    exactly two.  The witness is the least failing basis as a tuple.
    ``max_n`` caps ``Z.n``; ``None`` means ``MULTIMATROID_CAP``."""
    BudgetError.check("is_tight", Z.n, max_n, MULTIMATROID_CAP, 3, "transversals")
    n, table = Z.n, Z.table
    failing, bad = [], 0
    for k, zero in enumerate(_zeros(n)):
        _, p1, p2, p3 = _split(table, k, zero)
        fails = (p1 | p2 | p3) & ~((p1 & p2 | p1 & p3 | p2 & p3) & ~(p1 & p2 & p3))
        failing.append(fails)
        for r, p in enumerate((p1, p2, p3), 1):
            bad |= (fails & p) << (r << 2 * k)
    if not bad:
        return True, None
    b = min(_choices(n, bad))
    lines = [_index(b) - (r << 2 * k) for k, r in enumerate(b)]
    k = next(k for k, line in enumerate(lines) if failing[k] >> line & 1)
    non_bases = [r for r in (1, 2, 3) if not table >> (lines[k] + (r << 2 * k)) & 1]
    return False, {"basis": list(b), "class": k + 1, "non_bases": non_bases}


@_value_type()
class Restriction:
    """Independence structure induced on a subset of the carrier."""

    n: int
    allowed: tuple[frozenset[int], ...]
    independents: frozenset[tuple[int, ...]]
    bases: tuple[tuple[int, ...], ...]


def restrict(Z: Multimatroid, X: Iterable[tuple[int, int]]) -> Restriction:
    """Restrict to the carrier elements in ``X``: independents within
    ``X`` on the induced class partition, bases the maximal ones.  An
    extension by an allowed role stays within ``X``, so it is looked up
    among all independents."""
    allowed: list[set[int]] = [set() for _ in range(Z.n)]
    for pair in _iter_checked(X, "the carrier elements"):
        try:
            i, r = pair
        except (TypeError, ValueError):
            raise ValidationError(f"carrier element {quoted(pair)} must be an (index, role) pair") from None
        if not (type(i) is int and 1 <= i <= Z.n and type(r) is int and r in (1, 2, 3)):
            raise ValidationError(f"carrier element {quoted(pair)} out of range")
        allowed[i - 1].add(r)
    independents = _independents(Z)
    inside, extendable = independents, 0
    for k, zero in enumerate(_zeros(Z.n)):
        parts = _split(independents, k, zero)
        for r in (1, 2, 3):
            if r in allowed[k]:
                extendable |= parts[r]
            else:
                inside &= ~(zero << (r << 2 * k))
    return Restriction(
        Z.n,
        tuple(frozenset(a) for a in allowed),
        frozenset(_choices(Z.n, inside)),
        tuple(sorted(_choices(Z.n, inside & ~extendable))),
    )


def lift(
    D: SetSystem,
    tau: TransversalTriple | None = None,
    sigma: Projection | None = None,
    max_n: int | None = None,
    vf_cache: dict | None = None,
) -> Multimatroid:
    """The 3-matroid whose bases are the transversals ``B`` with the slot-2
    labels of ``B`` feasible in ``D`` dual-twisted at the slot-3 labels.

    ``D`` must be vf-safe (checked).  Class ``k`` stands for the element
    ``sigma(k)``, so a projection other than the identity first relabels
    ``D`` by its inverse.  ``_spread`` then sets the table bit
    with digit 2 at the classes of each feasible set and 1 elsewhere, and
    ``_role_steps`` gains each class's third slot and moves the slots to
    their roles under ``tau``.  ``max_n`` caps ``D.n``; ``None`` means
    ``LIFT_CAP``.
    """
    n = D.n
    BudgetError.check("lift", n, max_n, LIFT_CAP, 3, "transversals")
    _check_class_count(n)
    tau = TransversalTriple.reference(n) if tau is None else tau
    sigma = Projection.identity(n) if sigma is None else sigma
    if tau.n != n or sigma.n != n:
        raise ValidationError("triple/projection size must match the ground size")
    if not is_vf_safe(D, max_n=n, cache=vf_cache):
        raise ValidationError("lift requires a vf-safe delta-matroid")
    table = D.table
    if not sigma.relabel.is_identity():
        table = relabel(table, n, sigma.relabel.inverse().images)
    return Multimatroid.from_table(n, _role_steps(_spread(table, n), tau.roles))


#: per class count ``n`` and element ``k < n``, the bits of a ``4**n``-bit
#: table whose index has bit ``k`` clear, built once per ``n``
_spread_masks = functools.cache(lambda n: _zero_masks(2 * n, 1)[:n])


def _spread(table: int, n: int) -> int:
    """The ``4**n``-bit table that sets bit ``sum((1 + x_k) * 4**k)`` for
    each set bit ``X = sum(x_k * 2**k)`` of the truth table ``table``.

    One mask-and-shift step per element, from the top one down.  Before
    the step at ``k`` an entry sits at ``sum(x_j * 2**j)`` over ``j <= k``
    plus ``sum(x_j * 4**j)`` over ``j > k``; the low part is below
    ``2**k`` and the high part a multiple of ``2**(k+1)``, so index bit
    ``k`` is ``x_k``, and the entries with it set move up by
    ``4**k - 2**k``.  A last shift adds 1 to every digit."""
    masks = _spread_masks(n)
    for k in reversed(range(n)):
        low = table & masks[k]
        table = low | (table ^ low) << ((1 << 2 * k) - (1 << k))
    return table << _index((1,) * n)


def _role_steps(table: int, roles) -> int:
    """Per class ``k``: the entries with digit 1 or 2 there are kept, the
    digit-3 entries become the XOR of those two, and the digit-0 entries
    are dropped; then the class's digits, so far its slots, move to their
    roles ``roles[k]``.
    On a table of digits 1 and 2 that is ``lift``'s class step: the dual
    twist at ``e`` keeps ``X`` without ``e`` iff exactly one of ``X``,
    ``X | {e}`` is feasible, and dual twists at distinct elements commute.
    Each step reads only the entries whose digits up to ``k`` are 1 or 2,
    so the result depends only on the entries with no digit 0 or 3."""
    for k, zero in enumerate(_zeros(len(roles))):
        _, s1, s2, _ = _split(table, k, zero)
        slots, d = (s1, s2, s1 ^ s2), 1 << 2 * k
        a, b, c = roles[k]
        table = slots[a - 1] << d | slots[b - 1] << 2 * d | slots[c - 1] << 3 * d
    return table


def _reference_extract(table: int, n: int) -> tuple[int, bool]:
    """The truth table ``extract`` reads off ``table`` at the reference
    triple and the identity projection, and whether ``table`` is fixed by
    ``_role_steps`` at the reference roles, in one pass over the classes.

    The extraction steps a running table: per class ``k`` one shift and
    mask moves the digit-1 entries to digit 0 and the digit-2 ones there
    and up by ``2**k``, and drops the others; the digits below ``k`` are
    by then packed into index bits below ``k``.  The fixed-point test
    reads the untouched ``table``, which still holds the entries with a
    digit 0 or 3 below ``k`` that the running table has dropped: no entry
    has digit ``k`` 0, and the digit-3 entries are the XOR of the digit-1
    and digit-2 ones.  That is the class-``k`` step's fixed point, so a
    table passing every class is fixed by all steps; and each step, linear
    in its own digit, keeps the relation at every other class, so the
    steps' result passes every class."""
    extracted, fixed = table, True
    for k, zero in enumerate(_zeros(n)):
        d = 1 << 2 * k
        extracted = (extracted >> d & zero) | (extracted >> 2 * d & zero) << (1 << k)
        if fixed:
            s1, s2, s3 = table >> d & zero, table >> 2 * d & zero, table >> 3 * d & zero
            fixed = not table & zero and s3 == s1 ^ s2
    return extracted, fixed


def _keep_slots(table: int, k: int, zero: int, role_pairs) -> list[int]:
    """The class-``k`` step of extraction for each ``(r1, r2)`` in
    ``role_pairs``, the roles in slots 1 and 2: keep the entries whose
    digit ``k`` is ``r1`` or ``r2``, at index bit ``k`` clear or set.
    Taken for ``k = 0, 1, ..``, the digits below ``k`` are already packed
    into index bits below ``k``, so the last step leaves a truth table."""
    parts = _split(table, k, zero)
    return [parts[r1] | parts[r2] << (1 << k) for r1, r2 in role_pairs]


def extract(Z: Multimatroid, tau: TransversalTriple, sigma: Projection) -> SetSystem:
    """The set system of slot-2 labels of bases avoiding slot 3 entirely:
    one ``_keep_slots`` step per class, then one relabeling by ``sigma``.
    An empty selection yields an improper (empty-family) system, which the
    caller can detect via ``is_proper``."""
    if tau.n != Z.n or sigma.n != Z.n:
        raise ValidationError("triple/projection size must match the carrier")
    table = Z.table
    for k, zero in enumerate(_zeros(Z.n)):
        roles = tau.roles[k]
        (table,) = _keep_slots(table, k, zero, [(roles.index(1) + 1, roles.index(2) + 1)])
    return SetSystem.from_table(Z.n, relabel(table, Z.n, sigma.relabel.images))


def triple_flip(tau: TransversalTriple, g: Flip, i: int) -> TransversalTriple:
    """Act with ``g`` on the roles of class ``i``: the twist swaps slots 1
    and 2, loop complementation swaps 2 and 3, the dual twist swaps 1 and
    3, and composites act as the corresponding slot permutations."""
    if type(i) is not int or not 1 <= i <= tau.n:
        raise ValidationError(f"class index {quoted(i)} out of range 1..{tau.n}")
    new_roles = tuple(g.perm[slot - 1] for slot in tau.roles[i - 1])
    return TransversalTriple(tau.roles[: i - 1] + (new_roles,) + tau.roles[i:])


def triple_word(
    tau: TransversalTriple, gvec: tuple[Flip, ...], sigma: Projection
) -> TransversalTriple:
    """Apply ``gvec[i-1]`` at the class labeled ``i`` by ``sigma``, for
    every label ``i``.  Classes are distinct, so order is immaterial."""
    if len(gvec) != tau.n or sigma.n != tau.n:
        raise ValidationError("size mismatch")
    for label in range(1, tau.n + 1):
        tau = triple_flip(tau, gvec[label - 1], sigma.class_of(label))
    return tau


def _extracted_tables(Z: Multimatroid) -> set[int]:
    """The truth tables of ``extract(Z, tau, identity)`` over all ``6**n``
    triples ``tau``, one class at a time: each distinct table of a level
    is split once into its digit-``k`` slots ``s1, s2, s3`` (``_split``),
    and its six children, the ``_keep_slots`` steps of the six role pairs,
    are written inline: slot ``r1`` at index bit ``k`` clear, ``r2`` set.
    Each later step depends only on the table, so keeping the distinct
    tables is exact, and each is stepped once instead of once per triple
    prefix reaching it."""
    level = {Z.table}
    for k, zero in enumerate(_zeros(Z.n)):
        d, shift = 1 << 2 * k, 1 << k
        step: set[int] = set()
        push = step.update
        for t in level:
            s1 = t >> d & zero
            s2 = t >> 2 * d & zero
            s3 = t >> 3 * d & zero
            h1, h2, h3 = s1 << shift, s2 << shift, s3 << shift
            push((s1 | h2, s1 | h3, s2 | h1, s3 | h1, s2 | h3, s3 | h2))
        level = step
    return level


def orbit_via_lift(
    D: SetSystem,
    tau: TransversalTriple | None = None,
    sigma: Projection | None = None,
    mode: str = "full",
    max_n: int | None = None,
    vf_cache: dict | None = None,
) -> tuple[SetSystem, ...]:
    """Orbit of ``D`` computed through its lift: the distinct truth tables
    of ``_orbit_via_lift_tables``, canonically sorted."""
    return sorted_systems(_orbit_via_lift_tables(D, tau, sigma, mode, max_n, vf_cache), D.n)


def _orbit_via_lift_tables(
    D: SetSystem,
    tau: TransversalTriple | None,
    sigma: Projection | None,
    mode: str,
    max_n: int | None,
    vf_cache: dict | None = None,
) -> set[int]:
    """The truth tables of ``orbit_via_lift``, unordered: one lift, the
    extractions at the identity projection over all transversal triples
    with each distinct extracted table visited once (``_extracted_tables``),
    then every table relabeled by ``sigma`` (iota mode; skipped when it is
    ``None`` or the identity) or, in full mode, the set closed under the
    ``n - 1`` adjacent transpositions, which generate all ``n!``
    projections.  The closure walks its own growing list: each table is
    swapped once per position and a new one kept and appended, the delta
    swaps of ``_adjacent_swaps`` written inline.  It closes any set of
    tables, not only a union of flip-orbits."""
    if not isinstance(mode, str) or mode not in ORBIT_VIA_LIFT_CAPS:
        raise ValidationError(f"mode must be 'full' or 'iota', got {quoted(mode)}")
    n = D.n
    BudgetError.check(f"orbit_via_lift({mode})", n, max_n, ORBIT_VIA_LIFT_CAPS[mode], 6, "triples")
    Z = lift(D, tau, sigma, max_n=n, vf_cache=vf_cache)
    seen = _extracted_tables(Z)
    if mode == "full":
        swaps = _adjacent_swaps(n)
        todo = list(seen)
        keep, push = seen.add, todo.append
        for t in todo:
            for shift, mask in swaps:
                d = ((t >> shift) ^ t) & mask
                s = t ^ d ^ (d << shift)
                if s not in seen:
                    keep(s)
                    push(s)
    elif sigma is not None and not sigma.relabel.is_identity():
        seen = {relabel(t, n, sigma.relabel.images) for t in seen}
    return seen
