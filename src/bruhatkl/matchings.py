"""Special matchings of Bruhat intervals.

A matching of an interval pairs every element with a Hasse neighbor; it is
*special* if for every cover a < b with M(a) != b we have M(a) <= M(b).
Multiplication by a descent of the top element on either side is the basic
example.  A matching is H-special if it sends minimal coset representatives
that it moves down to minimal coset representatives.

`enumerate_special_matchings` lists the special matchings of an interval by
constraint propagation: every element keeps the bitmask of Hasse neighbours
it may still be matched with, each accepted pair narrows the masks of its
neighbours through the special condition, and the search branches only
where no element is forced.  Outside dihedral intervals a special matching
is pinned down by its restriction to the lowest ranks, so the search stays
small even on the 1152-element interval [e, w0] of F4.

General special matchings are produced from *dihedral systems*: the data
(side, J, s, t, M_st) of a parabolic subset J containing s, a generator t
outside J, and a special matching M_st of the largest {s,t}-dihedral
element below the top.  The associated matching conjugates M_st through
coset decompositions; `verify_system` checks the five defining axioms and
`matching_from_system` builds the matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .coxeter import CoxeterSystem, Element, genset, genset_indices
from .poset import Interval, MarkedInterval, build_lower_interval

__all__ = [
    "Matching",
    "multiplication_matching",
    "is_special",
    "enumerate_special_matchings",
    "is_H_special",
    "orbit",
    "commutes",
    "DihedralSystem",
    "verify_system",
    "matching_from_system",
    "enumerate_verified_systems",
    "matching_from_json",
]


class Matching:
    """An involution on interval ids moving every element along a Hasse
    edge.  `source` records how it was produced."""

    __slots__ = ("interval", "pairing", "source")

    def __init__(self, interval: Interval, pairing: Sequence[int],
                 source: str = "enumerated"):
        self.interval = interval
        self.pairing = tuple(pairing)
        self.source = source

    def image(self, el: Element) -> Element:
        iv = self.interval
        return iv.elements[self.pairing[iv.id_of(el)]]

    def moves_down(self, i: int) -> bool:
        return self.interval.rank_of[self.pairing[i]] < self.interval.rank_of[i]

    def pairs(self) -> list[tuple[int, int]]:
        return sorted((i, j) for i, j in enumerate(self.pairing) if i < j)

    def to_json(self) -> dict:
        return {"source": self.source, "pairs": [list(p) for p in self.pairs()]}

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matching)
                and self.interval == other.interval
                and self.pairing == other.pairing)

    def __hash__(self) -> int:
        return hash((self.interval, self.pairing))

    def __repr__(self) -> str:
        return "Matching(%s on %r)" % (self.source, self.interval)


def matching_from_json(interval: Interval, data: dict) -> Matching:
    pairing = [-1] * len(interval.elements)
    for a, b in data["pairs"]:
        pairing[a] = b
        pairing[b] = a
    _check_matching(interval, pairing)
    return Matching(interval, pairing, data.get("source", "enumerated"))


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


def multiplication_matching(interval: Interval, s: int,
                            side: str = "right") -> Matching:
    """The matching u -> us (or su).  Requires s to be a descent of the
    interval's top element on that side, which makes [e, w] stable."""
    sys = interval.system
    w = interval.top
    desc = w.rdesc if side == "right" else w.ldesc
    if not (desc >> s) & 1:
        raise ValueError(
            "%s is not a %s descent of %s"
            % (sys.generator_names[s], side, w.label_str()))
    pairing = [
        interval.id_of(sys.multiply_by_generator(el, s, side))
        for el in interval.elements
    ]
    tag = "%s-mult(%s)" % (side, sys.generator_names[s])
    return Matching(interval, pairing, tag)


def is_special(interval: Interval, matching) -> bool:
    """Check the special condition.  Raises if the input is not a total
    matching along Hasse edges."""
    pairing = matching.pairing if isinstance(matching, Matching) else matching
    _check_matching(interval, pairing)
    for b in range(len(interval.elements)):
        for a in interval.hasse_down[b]:
            if pairing[a] != b and not interval.leq(pairing[a], pairing[b]):
                return False
    return True


def enumerate_special_matchings(interval: Interval) -> list[Matching]:
    """All special matchings of the interval, sorted by pairing.

    A constraint search.  The domain of an element is the bitmask of the
    Hasse neighbours it may still be matched with.  Matching lo with its
    upper cover hi takes both out of every other domain and, by the
    special condition, narrows the neighbours: other upper covers of lo
    must be matched above hi, lower covers of lo below hi, upper covers of
    hi above lo, and other lower covers of hi below lo.  A pair is accepted
    only if each endpoint is in the other's domain.  An element left with
    one candidate is matched at once, and an empty domain ends the branch.
    Otherwise the search branches, on an explicit stack, over the free
    element with the fewest candidates.
    """
    n = len(interval.elements)
    if n < 2:
        return []
    up = interval.hasse_up
    down = interval.hasse_down
    above = interval.above
    below = interval.below

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
            mask = above[hi]
            for z in up[lo]:
                d = dom[z]
                if d & mask != d and z != hi:
                    d &= mask
                    if not d:
                        return -1
                    dom[z] = d
                    if not d & (d - 1):
                        todo.append(z)
            mask = below[hi] ^ (1 << lo)
            for z in down[lo]:
                d = dom[z]
                if d & mask != d:
                    d &= mask
                    if not d:
                        return -1
                    dom[z] = d
                    if not d & (d - 1):
                        todo.append(z)
            mask = above[lo] ^ (1 << hi)
            for z in up[hi]:
                d = dom[z]
                if d & mask != d:
                    d &= mask
                    if not d:
                        return -1
                    dom[z] = d
                    if not d & (d - 1):
                        todo.append(z)
            mask = below[lo]
            for z in down[hi]:
                d = dom[z]
                if d & mask != d and z != lo:
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
    position = {1 << i: i for i in range(n)}
    found: list[tuple[int, ...]] = []
    while stack:
        dom, free = stack.pop()
        if not free:
            found.append(tuple(map(position.__getitem__, dom)))
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
    return [Matching(interval, p) for p in sorted(found)]


def is_H_special(marked: MarkedInterval, M: Matching) -> bool:
    """True iff M maps every marked element that it moves down to a marked
    element."""
    # identity first: a sweep makes this check once per (matching, H)
    if M.interval is not marked.interval and M.interval != marked.interval:
        raise ValueError("matching belongs to a different interval")
    marks = marked.marks
    for i, m in enumerate(marks):
        if m and M.moves_down(i) and not marks[M.pairing[i]]:
            return False
    return True


def orbit(M: Matching, N: Matching, u: Element) -> tuple[Element, ...]:
    """The orbit of u under the group generated by two matchings, as the
    cycle (u, M(u), N(M(u)), ...)."""
    if M.interval != N.interval:
        raise ValueError("matchings live on different intervals")
    iv = M.interval
    i = iv.id_of(u)
    seq = [i]
    cur = i
    use_m = True
    while True:
        cur = (M if use_m else N).pairing[cur]
        if cur == i:
            break
        seq.append(cur)
        use_m = not use_m
    return tuple(iv.elements[j] for j in seq)


def commutes(M: Matching, N: Matching) -> bool:
    """Pointwise commutation MN == NM on the whole interval."""
    if M.interval != N.interval:
        raise ValueError("matchings live on different intervals")
    mp, np_ = M.pairing, N.pairing
    return all(mp[np_[i]] == np_[mp[i]] for i in range(len(mp)))


# ---------------------------------------------------------------------------
# dihedral systems


@dataclass(frozen=True)
class DihedralSystem:
    """The data (side, J, s, t, M_st) inducing a special matching of [e, w].

    `M_st` is a special matching of [e, m], where m is the maximum of
    W_{s,t} inside [e, w].  On the right side M_st must send e to s and t
    to ts; on the left side e to s and t to st.
    """

    side: str  # "right" or "left"
    J: int
    s: int
    t: int
    M_st: Matching

    def describe(self, sys: CoxeterSystem) -> str:
        names = sys.generator_names
        return "%s-system(J={%s}, s=%s, t=%s)" % (
            self.side,
            ",".join(names[i] for i in genset_indices(self.J)),
            names[self.s], names[self.t])


def _associated_image(sys: CoxeterSystem, system: DihedralSystem,
                      u: Element) -> Optional[Element]:
    """Image of u under the matching associated with the system, or None
    when the dihedral part falls outside the domain of M_st."""
    J, s, t = system.J, system.s, system.t
    st_mask = genset([s, t])
    s_mask = 1 << s
    dom = system.M_st.interval
    if system.side == "right":
        uJ_top, uJ = sys.coset_decompose_right(u, J)
        outer, mid = sys.coset_decompose_right(uJ_top, st_mask)
        head, tail = sys.coset_decompose_left(uJ, s_mask)
        arg = sys.multiply(mid, head)
        if arg not in dom.index:
            return None
        img = system.M_st.image(arg)
        return sys.multiply(sys.multiply(outer, img), tail)
    else:
        uJ, uJ_bot = sys.coset_decompose_left(u, J)
        outer, mid = sys.coset_decompose_right(uJ, s_mask)
        head, tail = sys.coset_decompose_left(uJ_bot, st_mask)
        arg = sys.multiply(mid, head)
        if arg not in dom.index:
            return None
        img = system.M_st.image(arg)
        return sys.multiply(sys.multiply(outer, img), tail)


def _commutes_with_mult_on(dom: Interval, M_st: Matching, g: int,
                           side: str) -> bool:
    """M_st commutes with multiplication by g on its whole domain; the
    multiplication map must itself be a matching of the domain."""
    top = dom.top
    desc = top.rdesc if side == "right" else top.ldesc
    if not (desc >> g) & 1:
        return False
    return commutes(M_st, multiplication_matching(dom, g, side))


def _commutes_with_mult_below(dom: Interval, M_st: Matching, g: int,
                              side: str, v0: Element) -> bool:
    """M_st commutes with multiplication by g on [e, v0] inside dom; any
    application that escapes the domain counts as failure."""
    sys = dom.system
    mask = dom.below[dom.id_of(v0)]
    while mask:
        low = mask & -mask
        i = low.bit_length() - 1
        mask ^= low
        z = dom.elements[i]
        zg = sys.multiply_by_generator(z, g, side)
        if zg not in dom.index:
            return False
        lhs = M_st.image(zg)
        rhs = sys.multiply_by_generator(M_st.image(z), g, side)
        if lhs is not rhs:
            return False
    return True


def verify_system(sys: CoxeterSystem, w: Element,
                  system: DihedralSystem) -> tuple[bool, list[str]]:
    """Check the five axioms of a dihedral system over [e, w]; returns
    (ok, violated axiom ids)."""
    side, J, s, t, M_st = (system.side, system.J, system.s, system.t,
                           system.M_st)
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    tag = "R" if side == "right" else "L"
    bad: list[str] = []
    interval = build_lower_interval(sys, w)
    st_mask = genset([s, t])
    dom = M_st.interval

    # axiom 1: shape of M_st
    ax1 = ((J >> s) & 1 and not (J >> t) & 1 and s != t
           and dom.bottom is sys.identity
           and dom.top is sys.max_parabolic_below(w, st_mask))
    if ax1:
        try:
            ax1 = is_special(dom, M_st)
        except ValueError:
            ax1 = False
    if ax1:
        s_el = sys.generator(s)
        t_el = sys.generator(t)
        if M_st.image(sys.identity) is not s_el:
            ax1 = False
        elif t_el in dom.index:
            want = (sys.multiply(t_el, s_el) if side == "right"
                    else sys.multiply(s_el, t_el))
            ax1 = M_st.image(t_el) is want
    if not ax1:
        return False, [tag + "1"]

    # axiom 2: the associated map is defined on [e,w] and lands in [e,w]
    for u in interval.elements:
        img = _associated_image(sys, system, u)
        if img is None or img not in interval.index:
            bad.append(tag + "2")
            break

    # axiom 3: generators of J occurring in the outer part commute with s
    if side == "right":
        outer_part = sys.coset_decompose_right(w, J)[0]
    else:
        outer_part = sys.coset_decompose_left(w, J)[1]
    for r in genset_indices(J):
        if (outer_part.support >> r) & 1 and r != s \
                and sys.matrix[r][s] != 2:
            bad.append(tag + "3")
            break

    # axiom 4: conditions forced by the {s,t}-free part of the top
    if side == "right":
        free = sys.coset_decompose_right(
            sys.coset_decompose_right(w, J)[0], st_mask)[0]
    else:
        free = sys.coset_decompose_left(
            sys.coset_decompose_left(w, J)[1], st_mask)[1]
    has_s = bool((free.support >> s) & 1)
    has_t = bool((free.support >> t) & 1)
    mult_side = "right" if side == "right" else "left"
    other_side = "left" if side == "right" else "right"
    if has_s and has_t:
        ok4 = False
        desc = dom.top.rdesc if mult_side == "right" else dom.top.ldesc
        if (desc >> s) & 1:
            ok4 = M_st == multiplication_matching(dom, s, mult_side)
        if not ok4:
            bad.append(tag + "4")
    elif has_s:
        if not _commutes_with_mult_on(dom, M_st, s, other_side):
            bad.append(tag + "4")
    elif has_t:
        if not _commutes_with_mult_on(dom, M_st, t, other_side):
            bad.append(tag + "4")

    # axiom 5: commutation below smaller tops forced by the J-parts
    for v in interval.elements:
        if side == "right":
            vJ = sys.coset_decompose_right(v, J)[1]
            part = sys.coset_decompose_left(vJ, 1 << s)[1]
        else:
            vJ = sys.coset_decompose_left(v, J)[0]
            part = sys.coset_decompose_right(vJ, 1 << s)[0]
        if not (part.support >> s) & 1:
            continue
        v0 = sys.max_parabolic_below(v, st_mask)
        if not _commutes_with_mult_below(dom, M_st, s, mult_side, v0):
            bad.append(tag + "5")
            break

    return not bad, bad


def matching_from_system(sys: CoxeterSystem, w: Element,
                         system: DihedralSystem) -> Matching:
    """The special matching of [e, w] associated with a verified system."""
    interval = build_lower_interval(sys, w)
    pairing = []
    for u in interval.elements:
        img = _associated_image(sys, system, u)
        if img is None or img not in interval.index:
            raise ValueError("system does not induce a matching of [e, %s]"
                             % w.label_str())
        pairing.append(interval.id_of(img))
    out = Matching(interval, pairing, "from-%s-system" % system.side)
    if not is_special(interval, out):
        raise AssertionError("associated matching is not special")
    return out


def enumerate_verified_systems(sys: CoxeterSystem, w: Element
                               ) -> list[tuple[DihedralSystem, Matching]]:
    """All verified dihedral systems over [e, w] and their matchings.

    J ranges over subsets of the support of w (enlarging J by generators
    not below w never changes the associated matching), s over J, t over
    the remaining generators.
    """
    out = []
    sup = w.support
    sup_indices = genset_indices(sup)
    subsets = []
    for bits in range(1, 1 << len(sup_indices)):
        mask = 0
        for k, i in enumerate(sup_indices):
            if (bits >> k) & 1:
                mask |= 1 << i
        subsets.append(mask)
    subsets.sort()
    for side in ("right", "left"):
        for J in subsets:
            for s in genset_indices(J):
                for t in range(sys.rank):
                    if (J >> t) & 1 or t == s:
                        continue
                    top0 = sys.max_parabolic_below(w, genset([s, t]))
                    dom = build_lower_interval(sys, top0)
                    s_el = sys.generator(s)
                    t_el = sys.generator(t)
                    for M_st in enumerate_special_matchings(dom):
                        if M_st.image(sys.identity) is not s_el:
                            continue
                        if t_el in dom.index:
                            want = (sys.multiply(t_el, s_el)
                                    if side == "right"
                                    else sys.multiply(s_el, t_el))
                            if M_st.image(t_el) is not want:
                                continue
                        cand = DihedralSystem(side, J, s, t, M_st)
                        ok, _ = verify_system(sys, w, cand)
                        if ok:
                            out.append(
                                (cand, matching_from_system(sys, w, cand)))
    return out
