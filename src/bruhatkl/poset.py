"""Bruhat intervals as graded posets.

An interval is a plain value that a caller builds, uses and drops: its
elements get dense integer ids sorted by (length, word), covers are stored
as adjacency lists, and the full order relation is kept as per-element
up-set bitmasks so comparisons inside an interval are O(1).  Two intervals are
equal when they have the same bottom and the same top.  A caller gives
only the members: a lower interval [e, w] takes them from the down-set of
w, kept by the `CoxeterSystem`, and a subinterval from its parent.  The
covers are read from the group too: an interval is convex, so the lower
covers of a member are its coatoms that are members.

Marked intervals attach the parabolic-quotient membership flag
(no right descent inside H) to each element.

Isomorphism search colors each poset once, on its own, under a palette of
color ids shared by every poset being compared, so a caller comparing one
poset with many colors it once (`marked_colors`) and passes the colors in.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .coxeter import CoxeterSystem, Element, genset_indices

__all__ = [
    "Interval",
    "MarkedInterval",
    "build_lower_interval",
    "build_interval",
    "mark_interval",
    "marked_colors",
    "find_marked_isomorphism",
    "find_isomorphism",
    "find_order_isomorphism",
    "interval_to_json",
]


class Interval:
    """A Bruhat interval [bottom, top], graded by l(z) - l(bottom).

    Element ids are positions in `elements`, the members of a Bruhat
    interval sorted by (length, word), whose coatoms the system has filled
    (`CoxeterSystem.down_set`); id 0 is the bottom and the last id is the
    top.  Coatoms are sorted by (length, word) too, so the lower covers of
    each id come out in increasing id order, and the upper covers are
    listed in that order too.
    """

    def __init__(self, system: CoxeterSystem, elements: Sequence[Element]):
        self.system = system
        self.elements = tuple(elements)
        self.bottom, self.top = self.elements[0], self.elements[-1]
        self.index = index = {el: i for i, el in enumerate(self.elements)}
        base = self.bottom.length
        self.rank_of = tuple(el.length - base for el in self.elements)
        self.hasse_down = tuple(
            tuple([index[c] for c in el._coatoms if c in index])
            for el in self.elements)
        n = len(self.elements)
        up: list[list[int]] = [[] for _ in range(n)]
        for b in range(n):
            for a in self.hasse_down[b]:
                up[a].append(b)
        self.hasse_up = tuple(tuple(u) for u in up)
        # order bitmasks: above[i] = ids j with element i <= element j,
        # computed by closing the covers
        above = [0] * n
        for i in range(n - 1, -1, -1):
            m = 1 << i
            for j in self.hasse_up[i]:
                m |= above[j]
            above[i] = m
        self.above = tuple(above)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return "Interval[%s, %s](%d elements)" % (
            self.bottom.label_str(), self.top.label_str(), len(self.elements))

    def id_of(self, el: Element) -> int:
        try:
            return self.index[el]
        except KeyError:
            raise ValueError("%r is not in %r" % (el, self))

    def leq(self, i: int, j: int) -> bool:
        """Bruhat comparison by interval ids."""
        return bool((self.above[i] >> j) & 1)

    def subinterval(self, lo: int, hi: int):
        """The interval [lo, hi] as its own Interval plus the id map
        (sub id -> parent id)."""
        above = self.above
        ids = tuple(j for j in genset_indices(above[lo]) if above[j] >> hi & 1)
        els = self.elements
        return Interval(self.system, [els[p] for p in ids]), ids


class MarkedInterval(NamedTuple):
    """An interval with each element flagged by membership in the
    parabolic quotient W^H (no right descent inside H)."""

    interval: Interval
    H: int
    marks: tuple[bool, ...]


def build_lower_interval(sys: CoxeterSystem, w: Element) -> Interval:
    """The interval [e, w], built afresh."""
    if w.system is not sys:
        raise ValueError("element belongs to a different system")
    by_id = sys._by_id
    return Interval(sys, sorted(by_id[i]
                                for i in genset_indices(sys.down_set(w))))


def build_interval(sys: CoxeterSystem, u: Element, v: Element) -> Interval:
    """The general interval [u, v] (u must be <= v), built afresh."""
    if not sys.bruhat_leq(u, v):
        raise ValueError("%r is not below %r" % (u, v))
    lower = build_lower_interval(sys, v)
    sub, _ = lower.subinterval(lower.id_of(u), lower.id_of(v))
    return sub


def mark_interval(interval: Interval, H: int) -> MarkedInterval:
    marks = tuple((el.rdesc & H) == 0 for el in interval.elements)
    return MarkedInterval(interval, H, marks)


# ---------------------------------------------------------------------------
# isomorphism search


def _stable_colors(labels: Sequence, down: Sequence[Sequence[int]],
                   palette: dict) -> list[int]:
    """The stable coloring of one poset (a label and the lower covers per
    id) by neighborhood refinement, ids interned in the shared `palette`.
    Keys are (label, up-degree, down-degree), then (color, *sorted up
    colors, -1, *sorted down colors), flat to keep the palette small, until
    the partition stops splitting.  No color or degree is -1, so ids of
    different rounds never collide and every isomorphism preserves colors."""
    up: list[list[int]] = [[] for _ in labels]
    for v, covers in enumerate(down):
        for d in covers:
            up[d].append(v)
    intern = palette.setdefault
    color = [intern((lab, len(up[v]), len(down[v])), len(palette))
             for v, lab in enumerate(labels)]
    while True:
        # fixed iteration order keeps colors deterministic
        new = [intern((color[v], *sorted(color[x] for x in up[v]), -1,
                       *sorted(color[x] for x in down[v])), len(palette))
               for v in range(len(color))]
        if len(set(new)) == len(set(color)):
            return new
        color = new


def _isomorphism(color_a: Sequence[int], down_a: Sequence[Sequence[int]],
                 color_b: Sequence[int], down_b: Sequence[Sequence[int]]
                 ) -> Optional[tuple[int, ...]]:
    """The lexicographically first color- and cover-preserving bijection
    between two finite posets, as a tuple mapping a-ids to b-ids, or None.

    Each poset is given on ids 0..n-1 by its `_stable_colors` under one
    shared palette (each poset refined once, on its own) and the lower
    covers of each id, listed after them.  Backtracking maps a-ids in
    increasing order, trying b-candidates of the same color in id order,
    with its state in flat lists, so the recursion limit does not bound n.
    """
    if sorted(color_a) != sorted(color_b):
        return None
    n = len(color_a)
    candidates: dict[int, list[int]] = {}
    for y in range(n):
        candidates.setdefault(color_b[y], []).append(y)
    options = [candidates[color_a[i]] for i in range(n)]
    covers_b = [frozenset(d) for d in down_b]
    mapping = [-1] * n
    used = [False] * n
    tried = [0] * n  # tried[i]: how many of options[i] have been tried
    i = 0
    while 0 <= i < n:
        if mapping[i] >= 0:  # back from a dead end: release i's image
            used[mapping[i]] = False
            mapping[i] = -1
        want = {mapping[d] for d in down_a[i]}
        opts = options[i]
        k = tried[i]
        while k < len(opts) and (used[opts[k]] or covers_b[opts[k]] != want):
            k += 1
        if k == len(opts):
            tried[i] = 0
            i -= 1
        else:
            tried[i] = k + 1
            mapping[i] = opts[k]
            used[opts[k]] = True
            i += 1
    return tuple(mapping) if i == n else None


def marked_colors(m: MarkedInterval, palette: dict) -> list[int]:
    """`_stable_colors` of a marked interval, labelled (rank, mark)."""
    iv = m.interval
    return _stable_colors(tuple(zip(iv.rank_of, m.marks)), iv.hasse_down,
                          palette)


def find_marked_isomorphism(a: MarkedInterval, b: MarkedInterval,
                            colors: Optional[tuple] = None
                            ) -> Optional[tuple[int, ...]]:
    """A rank- and mark-preserving poset isomorphism from a to b, as a
    tuple mapping a-ids to b-ids, or None.  Deterministic: the backtracking
    explores candidates in id order.  `colors` is the `marked_colors` of a
    and b under one palette; by default both are colored afresh."""
    if colors is None:
        palette: dict = {}
        colors = marked_colors(a, palette), marked_colors(b, palette)
    # ids are sorted by rank, so every id comes after its lower covers
    return _isomorphism(colors[0], a.interval.hasse_down,
                        colors[1], b.interval.hasse_down)


def find_isomorphism(a: Interval, b: Interval) -> Optional[tuple[int, ...]]:
    """Plain (unmarked) graded poset isomorphism."""
    return find_marked_isomorphism(mark_interval(a, 0), mark_interval(b, 0))


def _cover_form(rel: Sequence[int]):
    """An order relation (rel[i] = bitmask of j with i <= j) in the form
    `_stable_colors` and `_isomorphism` take: the ids ordered by down-set
    size, which lists each id after everything below it, then per position
    its height (longest chain below it) and its lower covers (the
    transitive reduction), both by position."""
    n = len(rel)
    below = [{i for i in range(n) if i != j and rel[i] >> j & 1}
             for j in range(n)]
    order = sorted(range(n), key=lambda j: len(below[j]))
    pos = {j: k for k, j in enumerate(order)}
    heights: list[int] = []
    covers: list[list[int]] = []
    for j in order:
        inner = set().union(*(below[i] for i in below[j]))
        lower = sorted(pos[i] for i in below[j] - inner)
        heights.append(max((heights[c] + 1 for c in lower), default=0))
        covers.append(lower)
    return order, heights, covers


def find_order_isomorphism(rel_a: Sequence[int],
                           rel_b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Isomorphism between two arbitrary finite posets given as order
    relations (rel[i] is a bitmask of j with i <= j), or None.  Intended
    for the small sub-posets cut out of intervals by quotient membership;
    the posets need not be graded."""
    if len(rel_a) != len(rel_b):
        return None
    order_a, heights_a, covers_a = _cover_form(rel_a)
    order_b, heights_b, covers_b = _cover_form(rel_b)
    palette: dict = {}
    found = _isomorphism(_stable_colors(heights_a, covers_a, palette),
                         covers_a,
                         _stable_colors(heights_b, covers_b, palette),
                         covers_b)
    if found is None:
        return None
    mapping = [0] * len(rel_a)
    for k, y in enumerate(found):
        mapping[order_a[k]] = order_b[y]
    return tuple(mapping)


def interval_to_json(interval: Interval,
                     marked: Optional[MarkedInterval] = None) -> dict:
    """JSON-friendly dict: canonical words, ranks, Hasse edges, marks."""
    edges = sorted(
        (a, b)
        for b in range(len(interval.elements))
        for a in interval.hasse_down[b]
    )
    out = {
        "group": interval.system.spec,
        "bottom": interval.bottom.label_str(),
        "top": interval.top.label_str(),
        "elements": [
            {"id": i, "word": el.label_str(), "rank": interval.rank_of[i]}
            for i, el in enumerate(interval.elements)
        ],
        "hasse": [list(e) for e in edges],
    }
    if marked is not None:
        names = interval.system.generator_names
        out["H"] = [names[i] for i in genset_indices(marked.H)]
        for rec, mk in zip(out["elements"], marked.marks):
            rec["marked"] = bool(mk)
    return out
