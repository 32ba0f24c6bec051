"""Orbit enumeration, stabilizer search, transport of stabilizers along
orbit moves, and the uniformization construction.

Orbits are computed by breadth-first closure under a fixed generator
ordering, deduplicated by truth table, and reported in canonical order,
so repeated runs are byte-identical.  The walk uses the group's
relations: every generator is an involution, flips at distinct elements
and disjoint swaps commute, and a swap carries a flip at ``k`` to the
same flip at the swapped image of ``k``.  So a state tries only the
generators that a per-``(n, mode)`` list leaves open after the last
generator of its witness word; each one it skips would find a state
already reached by a smaller word, so the states and words are those of
the walk that tries every generator, each stepping the truth table by
its kind.  Each state's witness word is kept as its JSON text, one string
concatenation per new state.  The states are sorted by
``set_system._canonical_order``, which also hands back each element's
order form (its rank bitmap up to 8 elements); the report writes its
canonical JSON text in one join of the word texts and the pieces of the
whole orbit's family text, which ``_systems_pieces`` writes off those
forms, and builds words, systems, families and the ``to_json`` tree only
when they are read.  The stabilizer search walks the relabelings of a
system one adjacent transposition at a time, over a plain-change list
kept per ground size, and the flip vectors one element at a time, each
table split once into the six tables of the next level.
Budgets are hard caps: a partial orbit is semantically wrong, so
exceeding a cap raises, naming the work refused, instead of truncating.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

from .errors import BudgetError, ConsistencyError, ValidationError, quoted
from .set_system import (
    SetSystem,
    _HALVES,
    _canonical_order,
    _plain_changes,
    _systems_pieces,
    _value_type,
    is_vf_safe,
    loop_complement,
    twist,
    twist1,  # noqa: F401  (unused; perfbench's self-test checks that its tracer patches this import)
)
from .twuality_group import (
    FLIPS,
    Flip,
    ONE,
    Perm,
    TwualityElement,
    _flip_table,
    act,
    flip_mul,
    flip_pow,
    uniform_flip,
)

ORBIT_CAPS = {"full": 8, "iota": 10}
STABILIZER_CAPS = {"all": 5, "uniform": 8}


@dataclass(frozen=True)
class OrbitReport:
    """A generator-closed orbit with one witness word per element.

    Per element in canonical order it holds the truth table, the witness
    word as JSON text, its tokens' texts comma-separated with no brackets
    (``'"*1","+2"'``, and ``''`` for the seed), and the order form it was
    sorted by (``set_system._canonical_order``).
    ``words``, ``elements``, the ``SetSystem``-keyed ``paths`` and
    ``families`` (each element's ``feasible_sets()``, decoded from its
    truth table) are built when first read.  ``canonical_json`` needs only
    the forms and word texts; ``to_json`` reads no form, so the two decode
    each family independently.  It is a frozen dataclass, not a slotted
    ``_value_type``: each ``functools.cached_property`` view is stored in
    the instance ``__dict__``.
    """

    seed: SetSystem
    mode: str
    tables: tuple[int, ...]
    word_texts: tuple[str, ...]
    forms: tuple = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.tables)

    @functools.cached_property
    def words(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(w[1:-1].split('","')) if w else () for w in self.word_texts)

    @functools.cached_property
    def elements(self) -> tuple[SetSystem, ...]:
        return tuple(SetSystem.from_table(self.seed.n, t) for t in self.tables)

    @functools.cached_property
    def paths(self) -> dict[SetSystem, tuple[str, ...]]:
        return dict(zip(self.elements, self.words))

    @functools.cached_property
    def families(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return tuple(e.feasible_sets() for e in self.elements)

    def to_json(self) -> dict:
        n = self.seed.n
        return {
            "mode": self.mode,
            "size": self.size,
            "elements": [{"n": n, "feasible": fam} for fam in self.families],
            "paths": list(self.words),
        }

    def canonical_json(self) -> str:
        """``json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))``,
        one join of the pieces of the whole orbit's family text
        (``_systems_pieces``) and of the paths, the word texts joined
        between brackets."""
        return "".join([
            '{"elements":', *_systems_pieces(self.forms, self.seed.n),
            ',"mode":"', self.mode, '","paths":[[', "],[".join(self.word_texts), ']],"size":', str(self.size), "}",
        ])


@_value_type()
class StabilizerHit:
    """A group element ``(gvec, perm)`` fixing the queried system, stored
    flat (``element`` builds it when read); ``uniform`` is the common flip
    when the vector part is uniform."""

    gvec: tuple[Flip, ...]
    perm: Perm
    uniform: Flip | None

    @property
    def element(self) -> TwualityElement:
        return TwualityElement(self.gvec, self.perm)

    def to_json(self) -> dict:
        data = {"gvec": [f.token for f in self.gvec], "perm": self.perm.one_line()}
        if self.uniform is not None:
            data["uniform"] = self.uniform.token
        return data


@_value_type()
class UniformizationResult:
    """Conjugating vector ``hvec`` and the system it produces, which is
    fixed by the uniform vector of ``g`` together with ``mu``."""

    hvec: tuple[Flip, ...]
    target: SetSystem
    g: Flip
    mu: Perm

    def to_json(self) -> dict:
        return {
            "hvec": [f.token for f in self.hvec],
            "target": self.target.to_json(),
            "g": self.g.token,
            "mu": self.mu.one_line(),
        }


def _group_size(n: int, mode: str) -> str:
    """The group ``orbit`` or ``stabilizer_search`` walks over [n] in
    ``mode``, as its order written out: each element's flips form a group
    of order 6 (five uniform vectors differ from the identity), and the
    relabelings add a factor ``n!`` except in iota mode."""
    flips, name = (5, "5") if mode == "uniform" else (6**n, f"6^{n}")
    if mode == "iota":
        return f"{name} = {flips:,}"
    return f"{name}·{n}! = {flips * math.factorial(n):,}"


@functools.cache
def _orbit_tries(n: int, mode: str) -> tuple[tuple[tuple, ...], ...]:
    """Per generator ``g`` of ``orbit`` over [n] in ``mode``, the
    generators tried from a state whose witness word ends in ``g``; the
    last list, for the seed, holds every generator.

    The generators are numbered in the walk's order ``*1, +1, *2, +2, ..``
    and then ``(1 2), (2 3), ..``.  After ``g`` the list leaves out ``g``
    itself, every earlier generator that commutes with ``g`` (flips at
    other elements, disjoint swaps) and, when ``g`` is a swap, every flip.
    An entry is ``(swap, mask, shift, text, index)``, one step of the walk
    (see ``orbit``): ``swap`` is true for a delta swap (twist, relabeling),
    ``text`` the generator's token as it ends a word text of ``OrbitReport``
    after another token, with a leading comma, which the seed's children
    drop.
    """
    halves = _HALVES[n]
    steps = []  # (swap, mask, shift, token text, elements moved)
    for k, half in enumerate(halves):
        steps.append((True, half, 1 << k, f',"*{k + 1}"', {k}))
        steps.append((False, half, 1 << k, f',"+{k + 1}"', {k}))
    flips = len(steps)
    if mode == "full":  # the delta swap of ``set_system._swap_adjacent``
        for k in range(n - 1):
            swap = f',"({k + 1} {k + 2})"'
            steps.append((True, ~halves[k] & halves[k + 1], 1 << k, swap, {k, k + 1}))
    moved = [step[4] for step in steps]
    entries = [(*step[:4], h) for h, step in enumerate(steps)]

    def skipped(g: int, h: int) -> bool:
        return h == g or h < g and (moved[h].isdisjoint(moved[g]) or h < flips <= g)

    tries = [tuple(e for h, e in enumerate(entries) if not skipped(g, h)) for g in range(len(entries))]
    return (*tries, tuple(entries))


def orbit(D: SetSystem, mode: str = "iota", max_n: int | None = None) -> OrbitReport:
    """Breadth-first closure of ``D`` under single-element flips (and, in
    full mode, adjacent relabeling transpositions), in the generator order
    ``*1, +1, *2, +2, ..`` and then the swaps ``(1 2), (2 3), ..``; each
    new table's witness word is its parent's plus the generator, one
    concatenation of their texts (the seed's children drop the comma).

    Every step is a few whole-table int ops on the truth table ``s``: a
    twist or a relabeling is the delta swap ``d = ((s >> shift) ^ s) &
    mask``, ``s ^ d ^ (d << shift)``, and a loop complementation XORs the
    lower half into the upper, ``d = (s & mask) << shift``, ``s ^ d``.  A
    try whose ``d`` is 0 yields ``s`` itself, a known state, so the walk
    skips it.

    A state tries only the generators that ``_orbit_tries`` lists for the
    last generator of its word.  The words are those of the walk that
    tries every generator: a FIFO walk over ordered generators gives each
    state the least word reaching it, by length and then generator order
    (first letter first).  If ``s`` has the word ``w + (g,)`` and ``h`` is
    left out after ``g``, then ``h.s`` has a word smaller than
    ``w + (g, h)``: ``w`` itself when ``h = g`` (every generator is an
    involution), ``w + (h, g)`` when ``h`` comes before ``g`` and commutes
    with it, and ``w + (f', g)`` when ``g`` is a swap and ``h`` a flip
    ``f``: applying ``g`` and then ``f`` is applying ``f'``, the same flip
    at the image of ``f``'s element under ``g``, and then ``g``, and flips
    come before swaps.  So ``(s, h)`` is never the try that first reaches
    ``h.s``, and skipping it drops only a lookup that would find a known
    state: the states, their words and so the JSON are unchanged.
    """
    if not isinstance(mode, str) or mode not in ORBIT_CAPS:
        raise ValidationError(f"orbit mode must be 'full' or 'iota', got {quoted(mode)}")
    n = D.n
    size = lambda k: f"up to {_group_size(k, mode)}"
    BudgetError.check(f"orbit({mode})", n, max_n, ORBIT_CAPS[mode], size, "elements")
    tries = _orbit_tries(n, mode)
    paths: dict[int, str] = {D.table: ""}  # per state, its word text
    queue = [D.table]
    lasts = bytearray([len(tries) - 1])  # per state, the index of its last generator
    push, mark = queue.append, lasts.append
    for s, last in zip(queue, lasts):  # breadth first: the loop visits the states it appends
        base = paths[s]
        for swap, mask, shift, token, g in tries[last]:
            if swap:
                d = ((s >> shift) ^ s) & mask
                if not d:
                    continue
                t = s ^ d ^ (d << shift)
            else:
                d = (s & mask) << shift
                if not d:
                    continue
                t = s ^ d
            if t not in paths:
                paths[t] = base + token if base else token[1:]
                push(t)
                mark(g)
    tables, forms = _canonical_order(paths, n)
    return OrbitReport(D, mode, tuple(tables), tuple(map(paths.__getitem__, tables)), tuple(forms))


def stabilizer_search(
    D: SetSystem, mode: str = "all", max_n: int | None = None
) -> list[StabilizerHit]:
    """Enumerate group elements fixing ``D``.

    The vector part must not be the identity vector.  ``all`` mode ranges
    over the whole semidirect product; ``uniform`` mode over the five
    uniform vectors only.  ``(g, p)`` fixes ``D`` iff ``p.D == g^-1.D``:
    the ``n!`` relabelings of ``D`` are bucketed by image once
    (``_relabel_buckets``), and each vector ``g`` (in the fixed flip order)
    emits the permutations in the bucket of ``g^-1.D``, made ``Perm``s in
    lexicographic one-line order when the bucket is first hit.  In ``all``
    mode the tables ``g^-1.D`` are built one element at a time: each table
    flipped at element ``k + 1`` by the inverse of every flip gives the
    next level, in ``itertools.product`` order of the vectors, so each
    level costs one split per table, into the six tables of its
    children (``_inverse_flip_level``).
    """
    if not isinstance(mode, str) or mode not in STABILIZER_CAPS:
        raise ValidationError(f"stabilizer mode must be 'all' or 'uniform', got {quoted(mode)}")
    n = D.n
    size = lambda k: _group_size(k, mode)
    BudgetError.check(f"stabilizer_search({mode})", n, max_n, STABILIZER_CAPS[mode], size, "group elements")
    if mode == "uniform":
        gvecs = [(g,) * n for g in FLIPS[1:]] if n else []
        targets = [D.table] * 5
        for k in range(n):
            targets = [_flip_table(t, n, k, g.inverse()) for t, g in zip(targets, FLIPS[1:])]
    else:  # level k holds g^-1.D for the vectors on the first k elements
        targets = [D.table]
        for k in range(n):
            targets = _inverse_flip_level(targets, n, k)
        gvecs = itertools.islice(itertools.product(FLIPS, repeat=n), 1, None)
        del targets[0]  # the first vector is the identity
    by_image = _relabel_buckets(D.table, n)
    perms_of = functools.cache(lambda t: [Perm(p) for p in sorted(by_image[t])])
    hits = []
    for gvec, target in zip(gvecs, targets):
        if target in by_image:
            uniform = uniform_flip(gvec)
            hits.extend(StabilizerHit(gvec, p, uniform) for p in perms_of(target))
    return hits


def _inverse_flip_level(targets: list[int], n: int, k: int) -> list[int]:
    """Per table ``t`` of ``targets``, in order, the six tables
    ``_flip_table(t, n, k, g.inverse())`` for ``g`` in ``FLIPS`` order.

    The table is split once into the three slots of ``_flip_table``,
    ``a`` (the sets without ``e = k + 1``), ``b`` (those with it) and
    ``c = a ^ b``; the inverse of ``g`` sends the slots ``g.perm[0]`` and
    ``g.perm[1]`` to the sets without and with ``e``, which for ``1, *,
    +, *+, +*, ~`` are ``(a, b), (b, a), (a, c), (b, c), (c, a), (c,
    b)``."""
    half, shift = _HALVES[n][k], 1 << k
    level = []
    push = level.extend
    for t in targets:
        a = t & half
        b = (t >> shift) & half
        c = a ^ b
        a_hi, b_hi, c_hi = a << shift, b << shift, c << shift
        push((a | b_hi, b | a_hi, a | c_hi, b | c_hi, c | a_hi, c | b_hi))
    return level


@functools.cache
def _plain_change_list(n: int) -> tuple[int, ...]:
    """``_plain_changes(n)``, kept per ``n``."""
    return tuple(_plain_changes(n))


def _relabel_buckets(table: int, n: int) -> dict[int, list[tuple[int, ...]]]:
    """The one-line images of the permutations ``p`` of [n], keyed by
    ``relabel(table, n, p.images)``.  ``images`` is the inverse of ``pos``,
    which takes the plain changes (``_plain_change_list``), so each swap
    in ``pos`` composes ``images`` with ``(k+1 k+2)`` on the left: the
    delta swap of ``_swap_adjacent`` on the image table, written inline
    with the shift and mask of each ``k`` made once per call."""
    halves = _HALVES[n]
    swaps = [(1 << k, ~halves[k] & halves[k + 1]) for k in range(n - 1)]
    pos = list(range(n))
    images = list(range(1, n + 1))
    by_image = {table: [tuple(images)]}
    for k in _plain_change_list(n):
        i, j = pos[k], pos[k + 1]
        pos[k], pos[k + 1] = j, i
        images[i], images[j] = images[j], images[i]
        shift, mask = swaps[k]
        d = ((table >> shift) ^ table) & mask
        table ^= d ^ (d << shift)
        by_image.setdefault(table, []).append(tuple(images))
    return by_image


def transport(
    D: SetSystem, stab: TwualityElement, move: TwualityElement
) -> tuple[SetSystem, TwualityElement]:
    """Push a stabilizer of ``D`` along ``move`` by conjugation: ``move *
    stab * move.inverse()`` fixes ``act(move, D)``, the paper's propagation
    of self-twuality along an orbit.  ``tests/oracles.py::transport_oracle``
    writes the same element entry by entry."""
    if act(stab, D) != D:
        raise ValidationError("transport requires act(stab, D) == D")
    moved = act(move, D)
    stab_p = move * stab * move.inverse()
    if act(stab_p, moved) != moved:
        raise ConsistencyError("transported element fails to stabilize the moved system")
    return moved, stab_p


def _cycle_product(gvec: tuple[Flip, ...], cycle: tuple[int, ...]) -> Flip:
    # product g_{c_m} g_{c_m-1} .. g_{c_1}: rightmost factor applied first
    return reduce(flip_mul, (gvec[c - 1] for c in reversed(cycle)), ONE)


def cycle_condition(gvec: tuple[Flip, ...], mu: Perm, g: Flip) -> bool:
    """Whether every cycle ``(c_1, .., c_m)`` of ``mu`` has
    ``|g_{c_m} .. g_{c_1}| == |g^m|``."""
    if g is ONE:
        raise ValidationError("cycle_condition needs a non-identity target flip")
    if len(gvec) != mu.n:
        raise ValidationError("flip vector and permutation must have equal length")
    for cycle in mu.cycles():
        if _cycle_product(gvec, cycle).order != flip_pow(g, len(cycle)).order:
            return False
    return True


def uniformize(
    Dp: SetSystem, gvec: tuple[Flip, ...], mu: Perm, g: Flip
) -> UniformizationResult:
    """Conjugate a stabilizer ``(gvec, mu)`` of ``Dp`` into the uniform
    vector of ``g``, moving ``Dp`` to the system the uniform pair fixes.

    Per cycle ``(c_1, .., c_m)`` of ``mu`` the last entry ``h_{c_m}`` is
    the first flip (in the fixed order 1, *, +, *+, +*, ~) conjugating the
    cycle product onto ``g^m``; the rest follow the descending recursion
    ``h_{c_i} = g^-1 h_{c_i+1} g_{c_i+1}``.  Refuses inputs that are not
    stabilizers or fail the cycle order condition.
    """
    if act(TwualityElement(gvec, mu), Dp) != Dp:
        raise ValidationError("uniformize requires act((gvec, mu), Dp) == Dp")
    if not cycle_condition(gvec, mu, g):
        raise ValidationError("cycle order condition fails for the target flip")
    n = Dp.n
    hvec_list: list[Flip | None] = [None] * n
    for cycle in mu.cycles():
        m = len(cycle)
        prod = _cycle_product(gvec, cycle)
        target = flip_pow(g, m)
        for cand in FLIPS:
            if flip_mul(flip_mul(cand, prod), cand.inverse()) is target:
                h_last = cand
                break
        else:
            raise ConsistencyError("no conjugator despite matching orders")
        hvec_list[cycle[-1] - 1] = h_last
        for idx in range(m - 2, -1, -1):
            nxt = cycle[idx + 1]
            hvec_list[cycle[idx] - 1] = flip_mul(
                flip_mul(g.inverse(), hvec_list[nxt - 1]), gvec[nxt - 1]
            )
    hvec = tuple(hvec_list)
    target_system = act(TwualityElement(hvec, Perm.identity(n)), Dp)
    if act(TwualityElement((g,) * n, mu), target_system) != target_system:
        raise ConsistencyError("uniformized system is not fixed by the uniform pair")
    return UniformizationResult(hvec, target_system, g, mu)


def normalize_rep(D: SetSystem, max_n: int | None = None) -> SetSystem:
    """Orbit representative that is normal with no feasible singletons.

    Twists by the least feasible set, which shortlex order makes a set of
    least cardinality, then applies loop complementation at every element
    whose singleton is feasible.  Every element of the result is then an
    orientable ribbon loop: with ``∅`` feasible and no singleton feasible,
    ``∅`` is the only minimum-cardinality set, so no element meets one; the
    twist at ``i`` makes ``{i}`` feasible and ``∅`` infeasible, so ``{i}``
    is a minimum-cardinality set that holds ``i``.  The result lies in the
    orbit of a vf-safe ``D``, so it is a delta-matroid, as that
    classification asks.  ``max_n`` is ``is_vf_safe``'s cap; ``None``
    means ``VF_SAFE_DEFAULT_CAP``.
    """
    if not is_vf_safe(D, max_n=max_n):
        raise ValidationError("normalize_rep requires a vf-safe delta-matroid")
    normal = twist(D, D.feasible_sets()[0])
    singles = [i for i in range(1, D.n + 1) if normal.has_mask(1 << (i - 1))]
    rep = loop_complement(normal, singles)
    if not rep.is_normal or any(rep.has_mask(1 << (i - 1)) for i in range(1, D.n + 1)):
        raise ConsistencyError("normalized representative is not normal/singleton-free")
    return rep
