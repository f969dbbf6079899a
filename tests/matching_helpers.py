"""Helpers that only the test suite uses: dihedral-interval detection,
restriction of a matching to a subinterval, commutation tested on lower
dihedral intervals only, and the search for a commuting multiplication
matching."""

from __future__ import annotations

from typing import Optional

from bruhatkl.coxeter import Element, genset, genset_indices
from bruhatkl.matchings import (
    Matching,
    commutes,
    is_special,
    multiplication_matching,
)
from bruhatkl.poset import Interval


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
    if not M.moves_down(iv_):
        raise ValueError("M must move the requested top down")
    if M.moves_down(iu):
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
        top = sys.max_parabolic_below(iv.top, genset([a, b]))
        mask = iv.below[iv.id_of(top)]
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            mask ^= low
            if mp[np_[i]] != np_[mp[i]]:
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
