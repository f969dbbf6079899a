"""Special matchings of Bruhat intervals.

A matching of an interval pairs every element with a Hasse neighbor; it is
*special* if for every cover a < b with M(a) != b we have M(a) <= M(b).
Multiplication by a descent of the top element on either side is the basic
example.  A matching is H-special if it sends minimal coset representatives
that it moves down to minimal coset representatives.

`enumerate_special_matchings` lists the special matchings of an interval by
constraint propagation: every element keeps the bitmask of Hasse neighbours
it may still be matched with, each accepted pair narrows the masks of the
upper covers of both its elements by the special condition, and the search
branches only where no element is forced.  Outside dihedral
intervals a special matching is pinned down by its restriction to the
lowest ranks, so the search stays small even on the 1152-element interval
[e, w0] of F4.

A matching is held as its pairing, the tuple whose entry i is the id of
the partner of id i.  Interval ids are sorted by (length, word), so along
a Hasse edge the smaller id is the lower element: the search orders each
pair by id, and a matching moves i down exactly when it sends i to a
smaller id.  `matching_to_json` writes a pairing for records and for the
``matchings`` command, and `matching_from_json` reads it back.
"""

from __future__ import annotations

from typing import Sequence

from .coxeter import _excerpt
from .poset import Interval, MarkedInterval

__all__ = [
    "is_special",
    "enumerate_special_matchings",
    "is_H_special",
    "matching_to_json",
    "matching_from_json",
]

# `enumerate_special_matchings` raises past this many matchings, since a
# dihedral [e, w] has 2^(l(w)-1); I2(16)'s [e, w0] has 2^15, the most the
# test suite lists
MAX_LISTED = 1 << 16


def matching_to_json(pairing: Sequence[int]) -> dict:
    """The JSON of a matching: its pairs (i, j), i < j, in order."""
    return {"source": "enumerated",
            "pairs": [[i, j] for i, j in enumerate(pairing) if i < j]}


def matching_from_json(interval: Interval, data: dict) -> tuple[int, ...]:
    """The pairing a `matching_to_json` record describes.  Raises
    ValueError unless it is an object with a list of pairs, and every pair
    is two interval ids (ints, not bools) that together form a
    special-matching candidate: a fixed-point-free involution along Hasse
    edges."""
    pairs = data.get("pairs") if isinstance(data, dict) else None
    if not isinstance(pairs, list):
        raise ValueError("bad matching: want an object with a list of pairs")
    n = len(interval.elements)
    pairing = [-1] * n
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(
                type(i) is int and 0 <= i < n for i in pair)):
            raise ValueError("bad pair %r: want two ids below %d" % (pair, n))
        pairing[pair[0]], pairing[pair[1]] = pair[1], pair[0]
    _check_matching(interval, pairing)
    return tuple(pairing)


def _check_matching(interval: Interval, pairing: Sequence[int]) -> None:
    n = len(interval.elements)
    if len(pairing) != n:
        raise ValueError("pairing has wrong size")
    for i, j in enumerate(pairing):
        if not 0 <= j < n or j == i or pairing[j] != i:
            raise ValueError("not an involution without fixed points")
        if i not in interval.hasse_up[j] and i not in interval.hasse_down[j]:
            raise ValueError(
                "pair (%d, %d) is not a Hasse edge" % (min(i, j), max(i, j)))


def is_special(interval: Interval, pairing: Sequence[int]) -> bool:
    """Check the special condition.  Raises if the input is not a total
    matching along Hasse edges."""
    _check_matching(interval, pairing)
    for b in range(len(interval.elements)):
        for a in interval.hasse_down[b]:
            if pairing[a] != b and not interval.leq(pairing[a], pairing[b]):
                return False
    return True


def enumerate_special_matchings(interval: Interval
                                ) -> list[tuple[int, ...]]:
    """All special matchings of the interval as pairings (the partner id
    of every id), sorted.  Raises ValueError past ``MAX_LISTED`` of them.

    A constraint search.  The domain of an element is the bitmask of the
    Hasse neighbours it may still be matched with.  Matching lo with its
    upper cover hi (lo < hi as ids) narrows the domains of the upper covers
    of both, by the special condition, in this order:

        neighbours   matched within        except
        up[lo]       above[hi]             hi
        up[hi]       above[lo] minus hi

    The special condition on a cover a < b, M(a) = b or M(a) <= M(b), is
    checked from a's side only: once a is matched, the row for a narrows
    b's domain to the elements above M(a).  If b is free, its partner will
    come from that domain; if b is already matched, its domain is one bit,
    so a violation empties it.  Either way every constraint has been
    checked by the time the matching is complete, and narrowing the lower
    covers as well would only check them earlier.

    A pair is accepted only if each endpoint is in the other's domain, so
    an element that is already taken is never accepted as a partner.  An
    element left with one candidate is matched at once, and an empty
    domain ends the branch.  Otherwise the search branches, on an explicit
    stack, over the free element with the fewest candidates.  A finished
    matching has one bit left in every domain, its partner's id.
    """
    n = len(interval.elements)
    if n < 2:
        return []
    up = interval.hasse_up
    above = interval.above

    def settle(dom: list[int], free: int, todo: list[int]) -> int:
        """Match each free element of `todo` with the one candidate left in
        its domain, and everything that forces.  Returns the new mask of
        free elements, or -1 on a contradiction."""
        while todo:
            x = todo.pop()
            if not (free >> x) & 1:
                continue
            y = dom[x].bit_length() - 1
            if not (dom[y] >> x) & 1:
                return -1
            dom[y] = 1 << x
            free ^= (1 << x) | (1 << y)
            # ids are sorted by rank, so the smaller id is the lower one
            lo, hi = (x, y) if x < y else (y, x)
            for nbrs, mask, partner in ((up[lo], above[hi], hi),
                                        (up[hi], above[lo] ^ (1 << hi), -1)):
                for z in nbrs:
                    d = dom[z]
                    if d & mask != d and z != partner:
                        d &= mask
                        if not d:
                            return -1
                        dom[z] = d
                        if not d & (d - 1):
                            todo.append(z)
        return free

    dom = [0] * n
    for i in range(n):
        for j in up[i]:
            dom[i] |= 1 << j
            dom[j] |= 1 << i
    free = settle(dom, (1 << n) - 1,
                  [i for i in range(n) if not dom[i] & (dom[i] - 1)])
    stack = [(dom, free)] if free != -1 else []
    found: list[tuple[int, ...]] = []
    while stack:
        dom, free = stack.pop()
        if not free:
            found.append(tuple([d.bit_length() - 1 for d in dom]))
            if len(found) > MAX_LISTED:
                raise ValueError(
                    "[e, w] has more than %d special matchings, for w = %s"
                    % (MAX_LISTED, _excerpt(interval.top.label_str())))
            continue
        # every free domain has at least two candidates after settle
        best, size = -1, n
        rest = free
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            c = dom[i].bit_count()
            if c < size:
                best, size = i, c
                if c == 2:
                    break
        cands = dom[best]
        while cands:
            low = cands & -cands
            cands ^= low
            child = dom[:] if cands else dom
            child[best] = low
            child_free = settle(child, free, [best])
            if child_free != -1:
                stack.append((child, child_free))
    found.sort()
    return found


def is_H_special(marked: MarkedInterval, M: Sequence[int]) -> bool:
    """True iff the pairing M maps every marked element that it moves down
    to a marked element.  M pairs ids along Hasse edges and ids are sorted
    by rank, so M moves i down exactly when M(i) < i."""
    marks = marked.marks
    if len(M) != len(marks):
        raise ValueError("pairing has wrong size")
    for i, j in enumerate(M):
        if j < i and marks[i] and not marks[j]:
            return False
    return True
