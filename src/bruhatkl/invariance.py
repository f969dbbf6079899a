"""Exhaustive verification campaigns.

Three kinds of campaign, all exact:

- ``sweep_calculating``: for every quotient element w up to a length
  bound and every generator subset H in a given family, list (or, for
  a dihedral [e, w], count) the special matchings of [e, w], keep the
  H-special ones, and check that each reproduces the reference
  R-polynomials through the three-branch matching recurrence.  Failures
  are collected as self-contained counterexample records, never raised.
- ``invariance_scan``: for pairs of marked lower intervals, search for a
  rank- and mark-preserving poset isomorphism and, when one exists,
  check that corresponding quotient elements carry identical parabolic
  R- and P-polynomials for both x variants.
- ``mongelli_reproduction``: the known rank-4 counterexample showing
  that two *quotient* intervals can be isomorphic as posets while their
  parabolic P-polynomials differ (so no analogue of combinatorial
  invariance holds for quotients in general).

Each campaign returns its JSON as plain dicts and lists, the very data
the CLI prints with ``--format json``; nothing in it depends on timing,
so identical campaigns serialize identically.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .coxeter import (
    CoxeterSystem,
    Element,
    format_genset,
    genset,
    parse_genset,
)
from .klpoly import (
    KLContext,
    _calculates,
    _check_x,
    _matching_calculates,
    _unpack,
    get_context,
    verify_calculating,
)
from .matchings import enumerate_special_matchings, is_H_special, \
    is_special, matching_from_json
from .poset import (
    build_interval,
    build_lower_interval,
    find_isomorphism,
    find_marked_isomorphism,
    find_order_isomorphism,
    mark_interval,
    marked_colors,
)


# ---------------------------------------------------------------------------
# main-theorem sweeps


# groups with at most this many elements are swept whole by default
_WHOLE_GROUP_CAP = 400
# above this rank the default H family, every generator subset, is refused
_MAX_DEFAULT_H_RANK = 16


def default_max_length(sys: CoxeterSystem) -> int:
    """The default sweep bound: the full group when it has at most
    ``_WHOLE_GROUP_CAP`` elements, length 9 otherwise (large or infinite
    groups)."""
    try:
        return sys.group_elements(cap=_WHOLE_GROUP_CAP)[-1].length
    except ValueError:
        return 9


def _ladder(up, allowed) -> dict:
    """{M(w) id: count} over the special matchings of a lower interval
    [e, w] with at most two atoms and upper covers `up` whose pairs
    (a, b), a < b, pass allowed(a, b).  There w lies in a rank-2
    parabolic subgroup: x < y exactly when x has the lower rank, and each
    middle rank holds two elements.  So every matching that pairs the
    element going up at each rank with one of the next rank, whose other
    element goes up next, is special, and the count runs over ranks."""
    ways, ends = {0: 1}, {}
    while ways:
        nxt = {}
        for a, n in ways.items():
            for b in up[a]:
                if not allowed(a, b):
                    continue
                if not up[b]:  # b is w
                    ends[a] = n
                else:  # ids run e, then two per middle rank: 1 2, 3 4, ...
                    other = b + 1 if b & 1 else b - 1
                    nxt[other] = nxt.get(other, 0) + n
        ways = nxt
    return ends


def _ladder_counts(marked, x) -> tuple[dict, dict, dict]:
    """`_ladder` over all the pairs, over the pairs that keep a matching
    H-special (not b marked with a unmarked), and, for each M(w) = t,
    over those of them whose steps (a, b) and (b, a) pass `_calculates`:
    the special, H-special and calculating matchings by M(w)."""
    up, marks = marked.interval.hasse_up, marked.marks

    def h_ok(a, b):
        return marks[a] or not marks[b]

    special = _ladder(up, h_ok)
    if special:
        table = get_context(marked.interval.system, marked.H, x)
    calc = {t: _ladder(up, lambda a, b: h_ok(a, b) and _calculates(
        marked, table, t, ((a, b), (b, a))) is None).get(t, 0)
        for t in special}
    return _ladder(up, lambda a, b: True), special, calc


def sweep_calculating(sys: CoxeterSystem, max_length: Optional[int] = None,
                      H_set: Optional[Sequence[int]] = None,
                      x: str = "-1") -> dict:
    """Check that every H-special matching of every lower interval
    [e, w] with w in W^H and len(w) <= max_length reproduces the
    reference R-polynomials.  Counterexamples are reported, not raised.

    H_set defaults to all subsets of the generators, and must be given
    above rank ``_MAX_DEFAULT_H_RANK``; max_length defaults to
    ``default_max_length``.  Totals are per (w, H) unit, so an interval
    scanned under several H contributes its matchings once per H.
    Returns the campaign's JSON: its inputs, ``totals``, the
    ``counterexamples`` (records as ``reverify_counterexample`` reads
    them) and ``ok``, true iff there are none.
    """
    _check_x(x)
    if H_set is None:
        if sys.rank > _MAX_DEFAULT_H_RANK:
            raise ValueError(
                "rank %d has 2^%d generator subsets; pass --H to choose H "
                "above rank %d" % (sys.rank, sys.rank, _MAX_DEFAULT_H_RANK))
        H_set = range(1 << sys.rank)
    if max_length is None:
        max_length = default_max_length(sys)
    H_set = sorted(set(H_set))
    for H in H_set:
        if not 0 <= H < (1 << sys.rank):
            raise ValueError("H is not a subset of the generators")

    scanned = matchings = h_special = calculating = 0
    counterexamples = []
    for w in sys.elements_up_to_length(max_length):
        Hs = [H for H in H_set if (w.rdesc & H) == 0]
        if not Hs:
            continue
        interval = build_lower_interval(sys, w)
        # at most two atoms: w lies in a rank-2 parabolic subgroup, and the
        # 2^(l(w)-1) special matchings of [e, w] are counted, not listed
        all_special = (None if len(interval.hasse_up[0]) <= 2
                       else enumerate_special_matchings(interval))
        for H in Hs:
            marked = mark_interval(interval, H)
            scanned += 1
            found = all_special
            if found is None:
                every, special, calc = _ladder_counts(marked, x)
                if calc == special:
                    matchings += sum(every.values())
                    h_special += sum(special.values())
                    calculating += sum(calc.values())
                    continue
                # a failing unit is listed, to write the records below
                found = enumerate_special_matchings(interval)
            matchings += len(found)
            chosen = [M for M in found if is_H_special(marked, M)]
            h_special += len(chosen)
            table = get_context(sys, H, x)
            # one matching at a time, as verify_calculating would check
            # them after its H-special test
            for M in chosen:
                ok, rec = _matching_calculates(marked, M, table)
                if ok:
                    calculating += 1
                else:
                    counterexamples.append(rec)
    ok = not counterexamples
    assert (calculating == h_special) == ok
    group_id = sys.name or ("rank%d" % sys.rank)
    return {
        "campaign": "calculating:%s:x=%s:len<=%d" % (group_id, x,
                                                     max_length),
        "group": sys.spec,
        "x": x,
        "max_length": max_length,
        "H_set": [format_genset(sys, H) for H in H_set],
        "totals": {
            "intervals_scanned": scanned,
            "matchings_enumerated": matchings,
            "h_special": h_special,
            "calculating": calculating,
        },
        "counterexamples": counterexamples,
        "ok": ok,
    }


def reverify_counterexample(sys: CoxeterSystem, record: dict) -> bool:
    """True iff writing the record again from scratch gives the identical
    record: (interval, H, x, matching) are rebuilt from it and run through
    `verify_calculating` on a fresh table, so a re-check never reads the
    sweep's shared memo.  Raises ValueError on a record that cannot be
    read, and unless it meets both hypotheses of the theorem: its matching
    is special and H-special.  The record is written again with source
    "enumerated", the only source the program writes, so a record with
    any other source does not re-verify."""
    try:
        w = sys.element_from_labels(record["w"])
        H = parse_genset(sys, record["H"])
        x = record["x"]
        matching = record["matching"]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError("malformed record: %r" % exc) from None
    interval = build_lower_interval(sys, w)
    M = matching_from_json(interval, matching)
    if not is_special(interval, M):
        raise ValueError("matching is not special")
    _, again = verify_calculating(mark_interval(interval, H), x, M,
                                  KLContext(sys, H, x))
    return again == record


# ---------------------------------------------------------------------------
# combinatorial-invariance scans


def _scan_entry(sys: CoxeterSystem, H: int, w: Element, intervals: dict,
                palette: dict):
    sys.check_min_coset_rep(w, H)
    if w not in intervals:
        intervals[w] = build_lower_interval(sys, w)
    marked = mark_interval(intervals[w], H)
    descriptor = {
        "group": sys.spec,
        "H": format_genset(sys, H),
        "w": w.label_str(),
    }
    return sys, H, w, marked, marked_colors(marked, palette), descriptor


def _scan_pair(a, b) -> dict:
    sys_a, H_a, w_a, marked_a, colors_a, desc_a = a
    sys_b, H_b, w_b, marked_b, colors_b, desc_b = b
    psi = find_marked_isomorphism(marked_a, marked_b, (colors_a, colors_b))
    if psi is None:
        return {"first": desc_a, "second": desc_b, "isomorphic": False,
                "polynomials_equal": None, "pairs_checked": 0}
    els_a, els_b = marked_a.interval.elements, marked_b.interval.elements
    equal = True
    checked = 0
    for x in ("-1", "q"):
        # packed values, equal iff their polynomials are; P values passed
        # the decoder's guard when their column was filled, R values below
        ctx_a, ctx_b = get_context(sys_a, H_a, x), get_context(sys_b, H_b, x)
        R_a, P_a = ctx_a._R_row(w_a), ctx_a._P_column(w_a)
        R_b, P_b = ctx_b._R_row(w_b), ctx_b._P_column(w_b)
        r_values = set()
        for ua_id in [i for i, m in enumerate(marked_a.marks) if m]:
            ua, ub = els_a[ua_id], els_b[psi[ua_id]]
            ra, rb = R_a.get(ua, 0), R_b.get(ub, 0)
            r_values.update((ra, rb))
            checked += 1
            if ra != rb or P_a.get(ua, 0) != P_b.get(ub, 0):
                equal = False
        for r in r_values:
            _unpack(r)
    return {"first": desc_a, "second": desc_b, "isomorphic": True,
            "polynomials_equal": equal, "pairs_checked": checked}


def invariance_scan(pairs: Sequence[tuple[CoxeterSystem, int, Element]]
                    ) -> list[dict]:
    """For every unordered pair from ``pairs`` (each entry also paired
    with itself), look for a marked isomorphism of the lower intervals
    [e, w] and, when found, compare the parabolic R- and P-polynomials
    at corresponding quotient elements for both x variants.  Returns one
    JSON record per pair: the ``first`` and ``second`` entries, whether
    they are ``isomorphic``, whether ``polynomials_equal`` (None when
    not isomorphic) and the number of ``pairs_checked``."""
    intervals: dict = {}  # entries with the same w share one interval
    palette: dict = {}    # each entry is colored once, all under one palette
    entries = [_scan_entry(sys, H, w, intervals, palette)
               for sys, H, w in pairs]
    del palette  # before the tables fill: five F4 entries leave 0.3 MB of keys
    out = []
    for i in range(len(entries)):
        for j in range(i, len(entries)):
            out.append(_scan_pair(entries[i], entries[j]))
    return out


# ---------------------------------------------------------------------------
# the rank-4 quotient counterexample


def _quotient_relation(sys: CoxeterSystem, H: int, u: Element,
                       v: Element) -> list[int]:
    """The subposet of [u, v] cut out by quotient membership, as an
    order relation (rel[i] = bitmask of j with i <= j)."""
    interval = build_interval(sys, u, v)
    ids = [i for i, el in enumerate(interval.elements)
           if (el.rdesc & H) == 0]
    rel = []
    for i in ids:
        mask = 0
        for jj, j in enumerate(ids):
            if interval.leq(i, j):
                mask |= 1 << jj
        rel.append(mask)
    return rel


def mongelli_reproduction(sys: Optional[CoxeterSystem] = None) -> dict:
    """Reproduce the rank-4 counterexample: in the group with bonds
    3-4-3 and H = {s1,s2,s3}, the quotient intervals [u,v]^H and
    [x,y]^H below are isomorphic posets, the full Bruhat intervals
    [u,v] and [x,y] are not, and the parabolic P-polynomials differ
    for both x variants (q vs 0, and q+1 vs 1).  Returns the JSON of
    these findings, with ``reproduced`` true iff all of them hold."""
    if sys is None:
        sys = CoxeterSystem.F4()
    H = genset((0, 1, 2))
    u1 = sys.element_from_labels("s3s1s2s3s4")
    v1 = sys.element_from_labels("s3s4s2s3s1s2s3s4")
    u2 = sys.element_from_labels("s2s3s4")
    v2 = sys.element_from_labels("s4s3s1s2s3s4")

    in_quotient = all(sys.is_min_coset_rep(z, H) for z in (u1, v1, u2, v2))
    quotient_iso = find_order_isomorphism(
        _quotient_relation(sys, H, u1, v1),
        _quotient_relation(sys, H, u2, v2)) is not None
    full_iso = find_isomorphism(build_interval(sys, u1, v1),
                                build_interval(sys, u2, v2)) is not None
    p_values = {
        x: [get_context(sys, H, x).P(u1, v1).to_json(),
            get_context(sys, H, x).P(u2, v2).to_json()]
        for x in ("q", "-1")
    }
    return {
        "group": sys.spec,
        "H": format_genset(sys, H),
        "first": [u1.label_str(), v1.label_str()],
        "second": [u2.label_str(), v2.label_str()],
        "in_quotient": in_quotient,
        "quotient_isomorphic": quotient_iso,
        "full_intervals_isomorphic": full_iso,
        "p_values": p_values,
        "reproduced": (in_quotient and quotient_iso and not full_iso
                       and p_values == {
                           "q": [{"coeffs": [0, 1]}, {"coeffs": []}],
                           "-1": [{"coeffs": [1, 1]}, {"coeffs": [1]}],
                       }),
    }
