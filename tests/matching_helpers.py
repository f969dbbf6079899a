"""Helpers that only the test suite uses: dihedral-interval detection,
restriction of a matching to a subinterval, commutation tested on lower
dihedral intervals only, the search for a commuting multiplication
matching, parabolic subgroups, coset decompositions, and the dihedral
systems (side, J, s, t, M_st) of Brenti-Caselli-Marietti (Adv. Math. 202
(2006)), whose associated matchings of [e, w] conjugate a special matching
M_st of a dihedral interval through coset decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from bruhatkl.coxeter import CoxeterSystem, Element, genset, genset_indices
from bruhatkl.matchings import (
    Matching,
    commutes,
    enumerate_special_matchings,
    is_special,
    multiplication_matching,
)
from bruhatkl.poset import Interval, build_lower_interval


def is_dihedral_interval(interval: Interval) -> bool:
    """True iff the interval looks like a lower interval of a rank-2
    system: one element at the extreme ranks, exactly two at every rank in
    between, and all covers present between consecutive ranks."""
    top_rank = interval.rank_of[-1]
    by_rank: list[list[int]] = [[] for _ in range(top_rank + 1)]
    for i, r in enumerate(interval.rank_of):
        by_rank[r].append(i)
    for r, level in enumerate(by_rank):
        want = 1 if r in (0, top_rank) else 2
        if len(level) != want:
            return False
    for r in range(top_rank):
        uppers = by_rank[r + 1]
        for a in by_rank[r]:
            if not all(b in interval.hasse_up[a] for b in uppers):
                return False
    return True


def restrict_matching(interval: Interval, M: Matching, u: Element,
                      v: Element) -> Matching:
    """Restriction of M to [u, v] where M moves v down and u up; the
    restriction of a special matching is again a total special matching."""
    iu, iv_ = interval.id_of(u), interval.id_of(v)
    if M.pairing[iv_] > iv_:
        raise ValueError("M must move the requested top down")
    if M.pairing[iu] < iu:
        raise ValueError("M must move the requested bottom up")
    sub, ids = interval.subinterval(iu, iv_)
    back = {p: i for i, p in enumerate(ids)}
    pairing = []
    for p in ids:
        q = M.pairing[p]
        if q not in back:
            raise ValueError("matching does not stabilize [%s, %s]"
                             % (u.label_str(), v.label_str()))
        pairing.append(back[q])
    out = Matching(sub, pairing, M.source)
    if not is_special(sub, out):
        raise AssertionError("restriction failed to be special")
    return out


def commutes_on_lower_dihedral(M: Matching, N: Matching) -> bool:
    """Commutation tested only on lower dihedral intervals containing the
    atoms M(e) and N(e); equivalent to full commutation for special
    matchings (checked empirically in the test suite)."""
    if M.interval != N.interval:
        raise ValueError("matchings live on different intervals")
    iv = M.interval
    sys = iv.system
    s = iv.elements[M.pairing[0]].word[0]
    t = iv.elements[N.pairing[0]].word[0]
    pairs = [(s, t)] if s != t else [
        (s, r) for r in range(sys.rank) if r != s]
    mp, np_ = M.pairing, N.pairing
    for a, b in pairs:
        top = iv.id_of(max_parabolic_below(sys, iv.top, genset([a, b])))
        # ids are sorted by length, so everything below top has a smaller id
        for i in range(top + 1):
            if iv.leq(i, top) and mp[np_[i]] != np_[mp[i]]:
                return False
    return True


def find_commuting_multiplication_matching(
        interval: Interval, M: Matching, side: str,
        require_differs_on_top: bool = False
) -> Optional[tuple[Matching, bool]]:
    """A multiplication matching on the given side commuting with M,
    preferring one that differs from M at the top element.  Returns
    (matching, differs_on_top) or None."""
    sys = interval.system
    w = interval.top
    desc = w.rdesc if side == "right" else w.ldesc
    top_id = len(interval.elements) - 1
    fallback = None
    for s in genset_indices(desc):
        N = multiplication_matching(interval, s, side)
        if not commutes(M, N):
            continue
        differs = N.pairing[top_id] != M.pairing[top_id]
        if differs:
            return N, True
        if fallback is None:
            fallback = (N, False)
    if require_differs_on_top:
        return None
    return fallback


# ---------------------------------------------------------------------------
# parabolic subgroups and coset decompositions


def _walk_parabolic(sys: CoxeterSystem, J: int, keep) -> list[Element]:
    """The elements of W_J reached from e by right multiplications by
    generators of J through elements accepted by `keep`, sorted by
    (length, word)."""
    seen = {sys.identity}
    stack = [sys.identity]
    while stack:
        z = stack.pop()
        for s in genset_indices(J & ~z.rdesc):
            zs = sys.multiply_by_generator(z, s)
            if zs not in seen and keep(zs):
                seen.add(zs)
                stack.append(zs)
    return sorted(seen)


def parabolic_group(sys: CoxeterSystem, H: int) -> list[Element]:
    """All elements of the standard parabolic subgroup W_H, sorted by
    (length, word); W_H must be finite."""
    return _walk_parabolic(sys, H, lambda z: True)


def longest_element_of_parabolic(sys: CoxeterSystem, H: int) -> Element:
    """The longest element of W_H (W_H must be finite)."""
    return parabolic_group(sys, H)[-1]


def max_parabolic_below(sys: CoxeterSystem, w: Element, J: int) -> Element:
    """The maximum of W_J intersected with [e, w].  The intersection is a
    lower set of W_J, so the walk through elements below w reaches all of
    it; raises if it has no unique maximum."""
    members = _walk_parabolic(sys, J, lambda z: sys.bruhat_leq(z, w))
    best = members[-1]
    if not all(sys.bruhat_leq(z, best) for z in members):
        raise AssertionError("W_J cap [e,w] has no unique maximum below %r"
                             % best)
    return best


def coset_decompose_right(sys: CoxeterSystem, u: Element, J: int):
    """Unique decomposition u = a * b with b in W_J, a with no right
    descent in J, and l(u) = l(a) + l(b).  Returns (a, b)."""
    parts = []
    while u.rdesc & J:
        s = (u.rdesc & J).bit_length() - 1
        u = sys.multiply_by_generator(u, s, "right")
        parts.append(s)
    return u, sys.element_from_word(reversed(parts))


def coset_decompose_left(sys: CoxeterSystem, u: Element, J: int):
    """Unique decomposition u = b * a with b in W_J, a with no left
    descent in J, and l(u) = l(b) + l(a).  Returns (b, a): the inverse
    of the right decomposition of u^-1."""
    a, b = coset_decompose_right(sys, sys.inverse(u), J)
    return sys.inverse(b), sys.inverse(a)


def _outer_inner(sys: CoxeterSystem, side: str, u: Element, J: int):
    """(outer, inner) with inner in W_J and u = outer * inner on the right
    side, u = inner * outer on the left."""
    if side == "right":
        return coset_decompose_right(sys, u, J)
    inner, outer = coset_decompose_left(sys, u, J)
    return outer, inner


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


def _associated_image(sys: CoxeterSystem, system: DihedralSystem,
                      u: Element) -> Optional[Element]:
    """Image of u under the matching associated with the system, or None
    when the dihedral part falls outside the domain of M_st.  With u = L*R
    split along J on the system's side, L = outer * mid with mid in
    W_{s,t} (W_{s} on the left side) and R = head * tail with head in W_{s}
    (W_{s,t} on the left side); the image is outer * M_st(mid*head) * tail.
    """
    st_mask, s_mask = genset([system.s, system.t]), 1 << system.s
    if system.side == "right":
        L, R = coset_decompose_right(sys, u, system.J)
        L_mask, R_mask = st_mask, s_mask
    else:
        L, R = coset_decompose_left(sys, u, system.J)
        L_mask, R_mask = s_mask, st_mask
    outer, mid = coset_decompose_right(sys, L, L_mask)
    head, tail = coset_decompose_left(sys, R, R_mask)
    arg = sys.multiply(mid, head)
    if arg not in system.M_st.interval.index:
        return None
    return sys.multiply(sys.multiply(outer, system.M_st.image(arg)), tail)


def _associated_pairing(interval: Interval, system: DihedralSystem
                        ) -> Optional[list[int]]:
    """The ids of the images of [e, w] under the associated map, or None
    when an image is undefined or falls outside [e, w]."""
    pairing = []
    for u in interval.elements:
        img = _associated_image(interval.system, system, u)
        if img not in interval.index:
            return None
        pairing.append(interval.index[img])
    return pairing


def _commutes_with_mult_below(dom: Interval, M_st: Matching, s: int,
                              side: str, v: Element) -> bool:
    """M_st commutes with multiplication by s on the elements of dom below
    v, that is on W_{s,t} cap [e, v]; a product that escapes the domain
    counts as failure."""
    sys = dom.system
    for z in dom.elements:
        if not sys.bruhat_leq(z, v):
            continue
        zs = sys.multiply_by_generator(z, s, side)
        if zs not in dom.index or M_st.image(zs) is not \
                sys.multiply_by_generator(M_st.image(z), s, side):
            return False
    return True


def verify_system(interval: Interval, system: DihedralSystem
                  ) -> tuple[bool, list[str]]:
    """Check the five axioms of a dihedral system over the interval
    [e, w]; returns (ok, violated axiom ids)."""
    sys, w = interval.system, interval.top
    side, J, s, t, M_st = (system.side, system.J, system.s, system.t,
                           system.M_st)
    other = "left" if side == "right" else "right"
    tag = "R" if side == "right" else "L"
    st_mask = genset([s, t])
    dom = M_st.interval

    # axiom 1: shape of M_st
    s_el, t_el = sys.generator(s), sys.generator(t)
    ax1 = ((J >> s) & 1 and not (J >> t) & 1
           and dom.bottom is sys.identity
           and dom.top is max_parabolic_below(sys, w, st_mask))
    if ax1:
        try:
            ax1 = is_special(dom, M_st)
        except ValueError:  # not a matching along Hasse edges
            ax1 = False
    ax1 = ax1 and M_st.image(sys.identity) is s_el
    if ax1 and t_el in dom.index:
        want = (sys.multiply(t_el, s_el) if side == "right"
                else sys.multiply(s_el, t_el))
        ax1 = M_st.image(t_el) is want
    if not ax1:
        return False, [tag + "1"]

    bad: list[str] = []
    # axiom 2: the associated map is defined on [e,w] and lands in [e,w]
    if _associated_pairing(interval, system) is None:
        bad.append(tag + "2")

    # axiom 3: generators of J occurring in the outer part commute with s
    outer = _outer_inner(sys, side, w, J)[0]
    if any((outer.support >> r) & 1 and r != s and sys.matrix[r][s] != 2
           for r in genset_indices(J)):
        bad.append(tag + "3")

    # axiom 4: conditions forced by the {s,t}-free part of the top;
    # multiplication_matching raises ValueError unless its generator is a
    # descent of the domain's top on that side
    free = _outer_inner(sys, side, outer, st_mask)[0].support
    has_s, has_t = (free >> s) & 1, (free >> t) & 1
    try:
        if has_s and has_t:
            ok4 = M_st == multiplication_matching(dom, s, side)
        elif has_s or has_t:
            ok4 = commutes(M_st, multiplication_matching(
                dom, s if has_s else t, other))
        else:
            ok4 = True
    except ValueError:
        ok4 = False
    if not ok4:
        bad.append(tag + "4")

    # axiom 5: commutation below smaller tops forced by the J-parts
    for v in interval.elements:
        inner = _outer_inner(sys, side, v, J)[1]
        part = _outer_inner(sys, other, inner, 1 << s)[0]
        if (part.support >> s) & 1 and not _commutes_with_mult_below(
                dom, M_st, s, side, v):
            bad.append(tag + "5")
            break

    return not bad, bad


def matching_from_system(interval: Interval, system: DihedralSystem
                         ) -> Matching:
    """The special matching of the interval [e, w] associated with a
    verified system."""
    pairing = _associated_pairing(interval, system)
    if pairing is None:
        raise ValueError("system does not induce a matching of [e, %s]"
                         % interval.top.label_str())
    out = Matching(interval, pairing, "from-%s-system" % system.side)
    if not is_special(interval, out):
        raise AssertionError("associated matching is not special")
    return out


def enumerate_verified_systems(sys: CoxeterSystem, w: Element
                               ) -> list[tuple[DihedralSystem, Matching]]:
    """All verified dihedral systems over [e, w] and their matchings.

    J ranges over the nonempty subsets of the support of w (enlarging J by
    generators not below w never changes the associated matching), s over
    J, t over the remaining generators.  [e, w] is built once, and so are
    the domain of M_st and its special matchings for each {s, t}.
    """
    interval = build_lower_interval(sys, w)
    candidates: dict[int, list[Matching]] = {}
    out = []
    for side in ("right", "left"):
        for J in range(1, w.support + 1):
            if J & ~w.support:
                continue
            for s in genset_indices(J):
                for t in range(sys.rank):
                    if (J >> t) & 1:
                        continue
                    st_mask = genset([s, t])
                    if st_mask not in candidates:
                        candidates[st_mask] = enumerate_special_matchings(
                            build_lower_interval(sys, max_parabolic_below(
                                sys, w, st_mask)))
                    for M_st in candidates[st_mask]:
                        cand = DihedralSystem(side, J, s, t, M_st)
                        if verify_system(interval, cand)[0]:
                            out.append(
                                (cand, matching_from_system(interval, cand)))
    return out
