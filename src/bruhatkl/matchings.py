"""Special matchings of Bruhat intervals.

A matching of an interval pairs every element with a Hasse neighbor; it is
*special* if for every cover a < b with M(a) != b we have M(a) <= M(b).
Multiplication by a descent of the top element on either side is the basic
example.  A matching is H-special if it sends minimal coset representatives
that it moves down to minimal coset representatives.

`enumerate_special_matchings` lists the special matchings of an interval in
one pass up the ids.  When the pass reaches an element, every lower cover
already has its partner, and an element not yet matched takes an upper
cover that lies above all of them.  The search branches only where several
upper covers qualify.  Outside dihedral intervals a special matching is
pinned down by its restriction to the lowest ranks, so the search branches
little even on the 1152-element interval [e, w0] of F4.

A matching is held as its pairing, the tuple whose entry i is the id of
the partner of id i.  Interval ids are sorted by (length, word), so along
a Hasse edge the smaller id is the lower element, and a matching moves i
down exactly when it sends i to a smaller id.  `matching_to_json` writes a
pairing for records and for the ``matchings`` command, and
`matching_from_json` reads it back.
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
    down = interval.hasse_down
    for i, j in enumerate(pairing):
        if not 0 <= j < n or j == i or pairing[j] != i:
            raise ValueError("not an involution without fixed points")
        if i not in down[j] and j not in down[i]:
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
    """All special matchings of the interval as pairings (the partner id of
    every id), sorted.  Raises ValueError past ``MAX_LISTED`` of them.

    One pass up the ids, branching on an explicit stack.  Ids are sorted by
    rank, so at id i every lower cover a has its partner M(a) already.  A
    matched id is passed over; any other takes as M(i) an upper cover that
    passes the filter at i, lying above M(a) for every lower cover a.  None
    ends the branch; with several, the pass goes on with the lowest and
    stacks a copy of the pairing for each other, the highest first, so the
    pairings come out sorted.

    The filter is the special condition on the covers below an id the pass
    matches up, so every special matching is reached.  A branch that gets
    past the last id is one, since (A) no candidate is already taken and
    (B) an id x matched down to p has M(a) < p for every other lower cover
    a.  Both hold on every interval [u, v], by thinness (a length-2
    interval has two middle elements) and since the coatoms of [u, x] are
    connected through shared lower covers, its proper part being a regular
    CW sphere (Björner, Europ. J. Combin. 5 (1984)).

    Lemma: if every id of rank below p's is settled, p is unmatched and x
    passes the filter at p, then every coatom a != p of x has M(a) < p.  By
    induction on rank(p), the special condition holds on the covers below ids
    of lower rank and below each coatom q of x with M(q) < q.  (1) If a coatom
    q of x shares a lower cover c with p, [c, x] = {c, p, q, x}.  If M(c) > c,
    the filter at p puts it in (c, x) and p is unmatched, so M(c) = q.  If
    M(c) = d < c, let c' be the other middle element of [d, p]: the special
    condition on d < c' gives M(c') >= c, the filter at p M(c') <= x, so
    M(c') = q.  Either way M(q) < p.  (2) If M(q) = z < p and a coatom
    a != p, q shares a lower cover c with q (c != z, by thinness of [z, x]),
    the special condition on c < q gives M(c) = d < z.  Let c3 be the middle
    element of [d, p] other than z; c3 != c, or else p = a.  The special
    condition on d < c3 gives M(c3) >= c, the filter at p M(c3) <= x, so M(c3)
    is in (c, x) = {q, a}, and not q: M(a) = c3 < p.  By connectivity, (1) and
    (2) reach every coatom.  The lemma at p = M(x) is (B), and it gives (A):
    every other coatom of a cover that p took is matched down already.
    """
    n = len(interval.elements)
    if n < 2:
        return []
    down = interval.hasse_down
    above = interval.above
    up = [0] * n
    for b in range(n):
        bit = 1 << b
        for a in down[b]:
            up[a] |= bit
    found: list[tuple[int, ...]] = []
    stack = [(0, [-1] * n)]
    while stack:
        i, M = stack.pop()
        while i < n:
            if M[i] < 0:
                cands = up[i]
                for a in down[i]:
                    cands &= above[M[a]]
                if not cands:
                    break
                low = cands & -cands
                while cands != low:
                    j = cands.bit_length() - 1
                    cands ^= 1 << j
                    child = M[:]
                    child[i], child[j] = j, i
                    stack.append((i + 1, child))
                j = low.bit_length() - 1
                M[i], M[j] = j, i
            i += 1
        else:
            found.append(tuple(M))
            if len(found) > MAX_LISTED:
                raise ValueError(
                    "[%s, w] has more than %d special matchings, for w = %s"
                    % (interval.bottom.label_str(), MAX_LISTED,
                       _excerpt(interval.top.label_str())))
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
