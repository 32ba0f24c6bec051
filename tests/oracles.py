"""Plain reference implementations that the library's fast engines are
compared against.

* ``first_exchange_failure``: the symmetric-exchange triple loop, pair by
  pair.  The library prunes it with truth-table masks.
* ``vf_safe_oracle``: the breadth-first closure over single systems, one
  exchange check per reachable system.  The library walks twist classes of
  truth tables instead.
"""

from collections import deque

from twuality.set_system import loop_complement1, twist1


def first_exchange_failure(ordered, fam):
    """First ``(X, Y, u)`` refuting symmetric exchange, ``X`` and then ``Y``
    in the order of ``ordered`` (the members of ``fam``) and ``u``
    ascending; ``None`` when the axiom holds."""
    for x in ordered:
        for y in ordered:
            diff = x ^ y
            d = diff
            while d:
                ub = d & -d
                d ^= ub
                if (x ^ ub) in fam:
                    continue
                e = diff
                while e:
                    vb = e & -e
                    e ^= vb
                    if vb != ub and (x ^ ub ^ vb) in fam:
                        break
                else:
                    return x, y, ub
    return None


def vf_safe_oracle(D):
    """Whether every system reachable from ``D`` by single-element twists
    and loop complementations is a delta-matroid."""
    bits = [1 << k for k in range(D.n)]
    seed = D.mask_set()
    seen = {seed}
    queue = deque([seed])
    while queue:
        state = queue.popleft()
        if not state or first_exchange_failure(state, state) is not None:
            return False
        for bit in bits:
            for op in (twist1, loop_complement1):
                nxt = op(state, bit)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return True
