"""Carriers with three-element skew classes, transversal triples,
projections, multimatroid axioms, tightness, restriction, and the lift /
extraction constructions connecting vf-safe set systems to 3-matroids.

Carrier elements are always pairs ``(i, r)`` with ``i`` a class index in
``1..n`` and ``r`` a role in ``{1, 2, 3}``; arbitrary carriers are
normalized to this shape at the boundary, which makes transversal triples
and projections finite and serializable.  A transversal is a choice tuple
``(r_1, .., r_n)``; a subtransversal additionally allows ``0`` entries for
classes it misses.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import BudgetError, ValidationError
from .set_system import SetSystem, dual_twist1, fold_flip, is_vf_safe, relabel
from .twuality_group import Flip, Perm

#: the six role permutations in lexicographic order
PERM3: tuple[tuple[int, int, int], ...] = tuple(
    sorted(itertools.permutations((1, 2, 3)))
)

MULTIMATROID_CAP = 6
LIFT_CAP = 8
ORBIT_VIA_LIFT_CAPS = {"full": 4, "iota": 7}


@dataclass(frozen=True)
class Carrier:
    """An (n, 3)-carrier: classes ``1..n``, each with members ``(i, 1..3)``."""

    n: int

    def skew_class(self, i: int) -> tuple[tuple[int, int], ...]:
        if type(i) is not int or not 1 <= i <= self.n:
            raise ValidationError(f"class index {i!r} out of range 1..{self.n}")
        return ((i, 1), (i, 2), (i, 3))

    def elements(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, r) for i in range(1, self.n + 1) for r in (1, 2, 3))


class TransversalTriple:
    """An ordered partition of the carrier into three disjoint transversals.

    ``roles[i-1][r-1]`` is the slot (1, 2 or 3) holding member ``(i, r)``,
    so each class contributes a bijection between members and slots.
    """

    __slots__ = ("roles",)

    def __init__(self, roles: Iterable[Iterable[int]]):
        try:
            roles = tuple(tuple(r) for r in roles)
        except TypeError:
            raise ValidationError(f"roles {roles!r} must be a list of slot lists") from None
        for r in roles:
            if any(type(s) is not int for s in r) or sorted(r) != [1, 2, 3]:
                raise ValidationError(f"class roles {list(r)} must be a permutation of (1, 2, 3)")
        object.__setattr__(self, "roles", roles)

    def __setattr__(self, name, value):
        raise AttributeError("TransversalTriple is immutable")

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

    def __eq__(self, other):
        if not isinstance(other, TransversalTriple):
            return NotImplemented
        return self.roles == other.roles

    def __hash__(self):
        return hash(self.roles)

    def __repr__(self):
        return f"TransversalTriple({[list(r) for r in self.roles]})"


class Projection:
    """A relabeling of classes: element ``(i, r)`` projects to ``rho(i)``."""

    __slots__ = ("relabel",)

    def __init__(self, relabel: Perm):
        object.__setattr__(self, "relabel", relabel)

    def __setattr__(self, name, value):
        raise AttributeError("Projection is immutable")

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

    def __eq__(self, other):
        if not isinstance(other, Projection):
            return NotImplemented
        return self.relabel == other.relabel

    def __hash__(self):
        return hash(self.relabel)

    def __repr__(self):
        return f"Projection({self.relabel.one_line()})"


class Multimatroid:
    """A 3-matroid given by its transversal bases on the reference carrier."""

    __slots__ = ("n", "bases")

    def __init__(self, n: int, bases: Iterable[tuple[int, ...]]):
        if type(n) is not int or n < 0:
            raise ValidationError(f"class count must be a non-negative integer, got {n!r}")
        bases = frozenset(tuple(b) for b in bases)
        for b in bases:
            if len(b) != n or any(type(r) is not int or not 1 <= r <= 3 for r in b):
                raise ValidationError(f"basis {b} is not a transversal choice on {n} classes")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bases", bases)

    def __setattr__(self, name, value):
        raise AttributeError("Multimatroid is immutable")

    @property
    def carrier(self) -> Carrier:
        return Carrier(self.n)

    def sorted_bases(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.bases))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "bases": [[[i, r] for i, r in enumerate(b, start=1)] for b in self.sorted_bases()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Multimatroid":
        if not isinstance(data, dict) or "n" not in data or "bases" not in data:
            raise ValidationError("multimatroid object needs 'n' and 'bases'")
        n = data["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValidationError("'n' must be a non-negative integer")
        if not isinstance(data["bases"], list):
            raise ValidationError("'bases' must be a list of bases")
        bases = []
        for raw in data["bases"]:
            choice = [0] * n
            if not isinstance(raw, list) or len(raw) != n:
                raise ValidationError(f"basis {raw!r} must list one member per class")
            for pair in raw:
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise ValidationError(f"carrier element {pair!r} must be an [index, role] pair")
                i, r = pair
                if not (type(i) is int and 1 <= i <= n and type(r) is int and r in (1, 2, 3)):
                    raise ValidationError(f"carrier element {pair!r} out of range")
                if choice[i - 1]:
                    raise ValidationError(f"basis {raw!r} visits class {i} twice")
                choice[i - 1] = r
            bases.append(tuple(choice))
        if len(set(bases)) != len(bases):
            raise ValidationError("duplicate bases")
        return cls(n, bases)

    def __eq__(self, other):
        if not isinstance(other, Multimatroid):
            return NotImplemented
        return self.n == other.n and self.bases == other.bases

    def __hash__(self):
        return hash((self.n, self.bases))

    def __repr__(self):
        return f"Multimatroid({self.n}, {sorted(self.bases)})"


def _down_closure(Z: Multimatroid) -> frozenset[tuple[int, ...]]:
    """All subtransversals of bases; entries 0 mark missed classes."""
    out: set[tuple[int, ...]] = set()
    for b in Z.bases:
        for pattern in itertools.product((False, True), repeat=Z.n):
            out.add(tuple(r if keep else 0 for r, keep in zip(b, pattern)))
    return frozenset(out)


def is_multimatroid(Z: Multimatroid, max_n: int = MULTIMATROID_CAP):
    """Check both multimatroid axioms on the independents spanned by the
    bases; returns ``(flag, witness)`` with the first failure found.

    Axiom 1 requires every transversal to induce a matroid (nonempty,
    hereditary by construction, augmentation).  Axiom 2 requires every
    skew pair of a class missed by an independent set to extend it.

    For each transversal ``T`` only its ``2**n`` subtransversals are looked
    up among the independents, generated in sorted order, so the members
    of ``T`` are scanned in the order of the sorted independents.  A member
    ``I`` fails augmentation against a larger member ``J`` iff ``J`` misses
    every class that extends ``I``, a test on class masks.
    """
    if Z.n > max_n:
        raise BudgetError(f"is_multimatroid capped at n <= {max_n}, got {Z.n}")
    n = Z.n
    independents = _down_closure(Z)
    if not independents:
        return False, {"axiom": 1, "reason": "no independent sets"}
    for T in itertools.product((1, 2, 3), repeat=n):
        members = []  # (subtransversal, its class mask), in sorted order
        for I in itertools.product(*((0, r) for r in T)):
            if I in independents:
                members.append((I, sum(1 << k for k in range(n) if I[k])))
        masks = {m for _, m in members}
        for I, m in members:
            size_i = m.bit_count()
            ext = sum(1 << k for k in range(n) if not m >> k & 1 and m | 1 << k in masks)
            for J, mj in members:
                if mj.bit_count() > size_i and not mj & ext:
                    return False, {"axiom": 1, "transversal": list(T), "I": list(I), "J": list(J)}
    for I in sorted(independents):
        for k in range(n):
            if I[k] != 0:
                continue
            for x, y in ((1, 2), (1, 3), (2, 3)):
                if (
                    I[:k] + (x,) + I[k + 1 :] not in independents
                    and I[:k] + (y,) + I[k + 1 :] not in independents
                ):
                    return False, {"axiom": 2, "independent": list(I), "class": k + 1, "pair": [x, y]}
    return True, None


def is_tight(Z: Multimatroid, max_n: int = MULTIMATROID_CAP):
    """Exactly one of the three one-class replacements of every basis must
    fail to be a basis; returns ``(flag, witness)``."""
    if Z.n > max_n:
        raise BudgetError(f"is_tight capped at n <= {max_n}, got {Z.n}")
    for b in sorted(Z.bases):
        for k in range(Z.n):
            non_bases = [r for r in (1, 2, 3) if b[:k] + (r,) + b[k + 1 :] not in Z.bases]
            if len(non_bases) != 1:
                return False, {"basis": list(b), "class": k + 1, "non_bases": non_bases}
    return True, None


@dataclass(frozen=True)
class Restriction:
    """Independence structure induced on a subset of the carrier."""

    n: int
    allowed: tuple[frozenset[int], ...]
    independents: frozenset[tuple[int, ...]]
    bases: tuple[tuple[int, ...], ...]


def restrict(Z: Multimatroid, X: Iterable[tuple[int, int]]) -> Restriction:
    """Restrict to the carrier elements in ``X``: independents within
    ``X`` on the induced class partition, bases the maximal ones."""
    allowed: list[set[int]] = [set() for _ in range(Z.n)]
    for pair in X:
        try:
            i, r = pair
        except (TypeError, ValueError):
            raise ValidationError(f"carrier element {pair!r} must be an (index, role) pair") from None
        if not (type(i) is int and 1 <= i <= Z.n and type(r) is int and r in (1, 2, 3)):
            raise ValidationError(f"carrier element {pair!r} out of range")
        allowed[i - 1].add(r)
    inside = frozenset(
        I
        for I in _down_closure(Z)
        if all(r == 0 or r in allowed[k] for k, r in enumerate(I))
    )
    bases = []
    for I in sorted(inside):
        maximal = True
        for k in range(Z.n):
            if I[k] != 0:
                continue
            if any(I[:k] + (r,) + I[k + 1 :] in inside for r in allowed[k]):
                maximal = False
                break
        if maximal:
            bases.append(I)
    return Restriction(Z.n, tuple(frozenset(a) for a in allowed), inside, tuple(bases))


def lift(
    D: SetSystem,
    tau: TransversalTriple | None = None,
    sigma: Projection | None = None,
    max_n: int = LIFT_CAP,
    vf_cache: dict | None = None,
) -> Multimatroid:
    """The 3-matroid whose bases are the transversals ``B`` with the slot-2
    labels of ``B`` feasible in ``D`` dual-twisted at the slot-3 labels.

    ``D`` must be vf-safe (checked); the dual twist is memoized per label
    subset.
    """
    n = D.n
    if n > max_n:
        raise BudgetError(f"lift capped at n <= {max_n}, got {n}")
    tau = TransversalTriple.reference(n) if tau is None else tau
    sigma = Projection.identity(n) if sigma is None else sigma
    if tau.n != n or sigma.n != n:
        raise ValidationError("triple/projection size must match the ground size")
    if not is_vf_safe(D, max_n=max(n, 1), cache=vf_cache):
        raise ValidationError("lift requires a vf-safe delta-matroid")
    label_bit = [1 << (sigma.label_of(i) - 1) for i in range(1, n + 1)]

    @functools.cache
    def table_after(s_mask: int) -> int:
        return fold_flip(dual_twist1, D.table, n, s_mask)

    bases = []
    for choice in itertools.product((1, 2, 3), repeat=n):
        f_mask = 0
        s_mask = 0
        for idx, r in enumerate(choice):
            slot = tau.roles[idx][r - 1]
            if slot == 2:
                f_mask |= label_bit[idx]
            elif slot == 3:
                s_mask |= label_bit[idx]
        if table_after(s_mask) >> f_mask & 1:
            bases.append(choice)
    return Multimatroid(n, bases)


def extract(Z: Multimatroid, tau: TransversalTriple, sigma: Projection) -> SetSystem:
    """The set system of slot-2 labels of bases avoiding slot 3 entirely.

    Each basis avoiding slot 3 sets the bit of its slot-2 classes in a
    truth table over class indices, which is relabeled once by ``sigma``
    at the end.  An empty selection yields an improper (empty-family)
    system, which the caller can detect via ``is_proper``.
    """
    if tau.n != Z.n or sigma.n != Z.n:
        raise ValidationError("triple/projection size must match the carrier")
    table = 0
    for b in Z.bases:
        f_mask = 0
        for idx, r in enumerate(b):
            slot = tau.roles[idx][r - 1]
            if slot == 3:
                break
            if slot == 2:
                f_mask |= 1 << idx
        else:
            table |= 1 << f_mask
    return SetSystem.from_table(Z.n, relabel(table, Z.n, sigma.relabel.images))


def triple_flip(tau: TransversalTriple, g: Flip, i: int) -> TransversalTriple:
    """Act with ``g`` on the roles of class ``i``: the twist swaps slots 1
    and 2, loop complementation swaps 2 and 3, the dual twist swaps 1 and
    3, and composites act as the corresponding slot permutations."""
    if type(i) is not int or not 1 <= i <= tau.n:
        raise ValidationError(f"class index {i!r} out of range 1..{tau.n}")
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


def all_triples(n: int) -> Iterator[TransversalTriple]:
    """All ``6**n`` transversal triples, lexicographic in the role tables."""
    for combo in itertools.product(PERM3, repeat=n):
        yield TransversalTriple(combo)


@functools.cache
def _digit_zero_masks(n: int) -> tuple[int, ...]:
    """Per class index ``k``, the bits of a ``4**n``-bit table whose index
    has base-4 digit ``k`` equal to 0."""
    out = []
    for k in range(n):
        mask, width = (1 << (1 << 2 * k)) - 1, 4 << 2 * k
        while width < 1 << 2 * n:
            mask |= mask << width
            width <<= 1
        out.append(mask)
    return tuple(out)


#: the (slot-1 role, slot-2 role) pair of each role table in ``PERM3``
_SLOT_ROLES = tuple((p.index(1) + 1, p.index(2) + 1) for p in PERM3)


def _extracted_tables(Z: Multimatroid) -> set[int]:
    """The truth tables of ``extract(Z, tau, identity)`` over all ``6**n``
    triples ``tau``, in one depth-first walk of the classes.

    The bases are one ``4**n``-bit table: basis ``b`` sets bit
    ``sum(b[k] * 4**k)``.  Each class ``k`` in turn keeps the entries
    whose digit ``k`` is the role in slot 1 or in slot 2, moving them to
    index bit ``k`` clear or set: a right shift by the role's digit value
    and an AND with the "digit ``k`` is 0" mask select them, and the slot-2
    ones shift up by ``2**k``.  Digits below ``k`` are then already packed
    into index bits below ``k``, so a leaf is the ``2**n``-bit table itself.
    """
    n = Z.n
    table = 0
    for b in Z.bases:
        table |= 1 << sum(r << 2 * k for k, r in enumerate(b))
    if n == 0:
        return {table}
    zero = _digit_zero_masks(n)
    out: set[int] = set()

    def walk(t: int, k: int) -> None:
        digit, bit, mask = 1 << 2 * k, 1 << k, zero[k]
        for r1, r2 in _SLOT_ROLES:
            child = ((t >> r1 * digit) & mask) | (((t >> r2 * digit) & mask) << bit)
            if k == n - 1:
                out.add(child)
            else:
                walk(child, k + 1)

    walk(table, 0)
    return out


def orbit_via_lift(
    D: SetSystem,
    tau: TransversalTriple | None = None,
    sigma: Projection | None = None,
    mode: str = "full",
    max_n: int | None = None,
    vf_cache: dict | None = None,
) -> tuple[SetSystem, ...]:
    """Orbit of ``D`` computed through its lift: one lift, the extractions
    at the identity projection over all transversal triples in one table
    walk (``_extracted_tables``), then every distinct extracted table
    relabeled by ``sigma`` (iota mode) or by each of the ``n!`` projections
    (full mode), deduplicated and canonically sorted."""
    if mode not in ORBIT_VIA_LIFT_CAPS:
        raise ValidationError(f"mode must be 'full' or 'iota', got {mode!r}")
    cap = ORBIT_VIA_LIFT_CAPS[mode] if max_n is None else max_n
    if D.n > cap:
        raise BudgetError(f"orbit_via_lift({mode}) capped at n <= {cap}, got {D.n}")
    n = D.n
    tau = TransversalTriple.reference(n) if tau is None else tau
    sigma = Projection.identity(n) if sigma is None else sigma
    Z = lift(D, tau, sigma, max_n=max(n, 1), vf_cache=vf_cache)
    tables = _extracted_tables(Z)
    if mode == "iota":
        relabelings = [sigma.relabel.images]
    else:
        relabelings = itertools.permutations(range(1, n + 1))
    seen = {SetSystem.from_table(n, relabel(t, n, p)) for p in relabelings for t in tables}
    return tuple(sorted(seen, key=SetSystem.canonical_key))
