"""Bruhat intervals as graded posets.

An interval is a plain value that a caller builds, uses and drops: its
elements get dense integer ids sorted by (length, word), each id's lower
covers are stored as a list, and the full order relation is kept as
per-element up-set bitmasks so comparisons inside an interval are O(1).
A caller gives only the members: a lower interval [e, w] takes them from
the down-set of w, kept by the `CoxeterSystem`, and a subinterval from its
parent.  The covers are read from the group too: the lower covers of a
member are its coatoms that are members.  An interval is a Bruhat
interval [u, v], which is convex, or a quotient interval [u, v]^H, the
marked members of a marked [u, v], both graded by length since W^H is
(Deodhar, Invent. Math. 39 (1977)).

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
    """A Bruhat or quotient interval, graded by l(z) - l(bottom).

    Element ids are positions in `elements`, the members sorted by
    (length, word), whose coatoms the system has filled
    (`CoxeterSystem.down_set`); id 0 is the bottom and the last id is the
    top.  The lower covers of an id are its coatoms among the members,
    sorted by (length, word) too, so they come out in increasing id order.
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
        # order bitmasks: above[i] = ids j with element i <= element j,
        # closed over the lower covers from the top id down
        above = [1 << i for i in range(len(self.elements))]
        for b in range(len(above) - 1, 0, -1):
            for a in self.hasse_down[b]:
                above[a] |= above[b]
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
        (sub id -> parent id).  Raises ValueError unless lo <= hi."""
        above, els = self.above, self.elements
        if not above[lo] >> hi & 1:
            raise ValueError("%r is not below %r" % (els[lo], els[hi]))
        ids = tuple(j for j in genset_indices(above[lo]) if above[j] >> hi & 1)
        return Interval(self.system, [els[p] for p in ids]), ids


class MarkedInterval(NamedTuple):
    """An interval with each element flagged by membership in the
    parabolic quotient W^H (no right descent inside H)."""

    interval: Interval
    H: int
    marks: tuple[bool, ...]


def build_lower_interval(sys: CoxeterSystem, w: Element) -> Interval:
    """The interval [e, w], built afresh."""
    sys._check_owned(w)
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
    if not 0 <= H < (1 << interval.system.rank):
        raise ValueError("H is not a subset of the generators")
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


def find_order_isomorphism(a: MarkedInterval, b: MarkedInterval
                           ) -> Optional[tuple[int, ...]]:
    """`find_isomorphism` of the quotient intervals [u, v]^H of two marked
    intervals [u, v].  Raises ValueError unless u and v are marked."""
    return find_isomorphism(_quotient_interval(a), _quotient_interval(b))


def _quotient_interval(m: MarkedInterval) -> Interval:
    """[u, v]^H: the `Interval` on the marked members of a marked [u, v]."""
    iv, marks = m.interval, m.marks
    if not (marks[0] and marks[-1]):
        raise ValueError("%r is not in W^H"
                         % (iv.top if marks[0] else iv.bottom))
    return Interval(iv.system,
                    [el for el, mk in zip(iv.elements, marks) if mk])


def interval_to_json(interval: Interval,
                     marked: Optional[MarkedInterval] = None) -> dict:
    """JSON-friendly dict: canonical words, ranks, Hasse edges, marks."""
    edges = sorted((a, b) for b, down in enumerate(interval.hasse_down)
                   for a in down)
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
