"""Exhaustive verification campaigns.

Three kinds of campaign, all exact:

- ``sweep_calculating``: for every quotient element w up to a length
  bound and every generator subset H in a given family, check the unit
  (w, H) in one call: list (or, for a dihedral [e, w], count) the
  special matchings of [e, w], keep the H-special ones, and check that
  each reproduces the reference R-polynomials through the three-branch
  matching recurrence.  Failures are collected as self-contained
  counterexample records, never raised.
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


def _ladder(n, allowed) -> dict:
    """{M(w) id: count} over the special matchings of a lower interval
    [e, w] of n elements with at most two atoms whose pairs (a, b), a < b,
    pass allowed(a, b).  There w lies in a rank-2 parabolic subgroup: x < y
    exactly when x has the lower rank, and the ids run e, then two per
    middle rank, 1 2, 3 4, ..., then w = n - 1.  So the upper covers of a
    are c = (a + 1) | 1 and c + 1, or w alone from the last middle rank.
    Every matching that pairs the element going up at each rank with one
    of the next rank, whose other element goes up next, is special, and
    the count runs over ranks; one element has no matching."""
    w = n - 1
    ways, ends = ({0: 1} if n > 1 else {}), {}
    while ways:
        nxt = {}
        for a, k in ways.items():
            c = (a + 1) | 1
            for b in ((w,) if c >= w else (c, c + 1)):
                if not allowed(a, b):
                    continue
                if b == w:
                    ends[a] = k
                else:
                    other = b + 1 if b & 1 else b - 1
                    nxt[other] = nxt.get(other, 0) + k
        ways = nxt
    return ends


def _ladder_counts(marked, table) -> tuple[dict, dict, dict]:
    """`_ladder` over all the pairs, over the pairs that keep a matching
    H-special (not b marked with a unmarked), and, for each M(w) = t,
    over those of them whose steps (a, b) and (b, a) pass `_calculates`:
    the special, H-special and calculating matchings by M(w)."""
    n, marks = len(marked.interval), marked.marks

    def h_ok(a, b):
        return marks[a] or not marks[b]

    special = _ladder(n, h_ok)
    calc = {t: _ladder(n, lambda a, b: h_ok(a, b) and _calculates(
        marked, table, t, ((a, b), (b, a))) is None).get(t, 0)
        for t in special}
    return _ladder(n, lambda a, b: True), special, calc


def _check_unit(marked, table, listed) -> tuple[int, int, int, list]:
    """One (w, H) unit of a sweep against its (system, H, x) table: the
    numbers of special, H-special and calculating matchings of [e, w] and
    the records of the H-special ones that do not calculate.  `listed` is
    [e, w]'s special matchings, or None for an [e, w] with at most two
    atoms, counted by `_ladder_counts` and listed only if the count finds
    a failing matching, so the records are the same either way."""
    if listed is None:
        every, special, calc = _ladder_counts(marked, table)
        if calc == special:
            return (sum(every.values()), sum(special.values()),
                    sum(calc.values()), [])
        listed = enumerate_special_matchings(marked.interval)
    chosen = [M for M in listed if is_H_special(marked, M)]
    records = []
    for M in chosen:  # as verify_calculating checks them, past its H test
        ok, rec = _matching_calculates(marked, M, table)
        if not ok:
            records.append(rec)
    return len(listed), len(chosen), len(chosen) - len(records), records


def sweep_calculating(sys: CoxeterSystem, max_length: Optional[int] = None,
                      H_set: Optional[Sequence[int]] = None,
                      x: str = "-1") -> dict:
    """Check that every H-special matching of every lower interval
    [e, w] with w in W^H and len(w) <= max_length reproduces the
    reference R-polynomials.  Counterexamples are reported, not raised.

    H_set defaults to all subsets of the generators, and must be given
    above rank ``_MAX_DEFAULT_H_RANK``; max_length defaults to
    ``default_max_length``.  Each (w, H) unit is one `_check_unit` call,
    and totals are per unit, so an interval scanned under several H
    contributes its matchings once per H.
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

    totals = dict.fromkeys(("intervals_scanned", "matchings_enumerated",
                            "h_special", "calculating"), 0)
    counterexamples = []
    for w in sys.elements_up_to_length(max_length):
        Hs = [H for H in H_set if (w.rdesc & H) == 0]
        if not Hs:
            continue
        interval = build_lower_interval(w)
        # at most two atoms (the letters of w): w lies in a rank-2 parabolic
        # subgroup, and the 2^(l(w)-1) special matchings are counted
        listed = (None if len(set(w.word)) <= 2
                  else enumerate_special_matchings(interval))
        for H in Hs:
            *counts, records = _check_unit(
                mark_interval(interval, H), get_context(sys, H, x), listed)
            # the unit itself, then its counts, in the order of the totals
            for key, n in zip(totals, (1, *counts)):
                totals[key] += n
            counterexamples += records
    ok = not counterexamples
    assert (totals["calculating"] == totals["h_special"]) == ok
    group_id = sys.name or ("rank%d" % sys.rank)
    return {
        "campaign": "calculating:%s:x=%s:len<=%d" % (group_id, x,
                                                     max_length),
        "group": sys.spec,
        "x": x,
        "max_length": max_length,
        "H_set": [format_genset(sys, H) for H in H_set],
        "totals": totals,
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
    interval = build_lower_interval(w)
    M = matching_from_json(interval, matching)
    if not is_special(interval, M):
        raise ValueError("matching is not special")
    _, again = verify_calculating(mark_interval(interval, H), M,
                                  KLContext(sys, H, x))
    return again == record


# ---------------------------------------------------------------------------
# combinatorial-invariance scans


def _scan_entry(H: int, w: Element, intervals: dict, palette: dict):
    w.system.check_min_coset_rep(w, H)
    if w not in intervals:
        intervals[w] = build_lower_interval(w)
    marked = mark_interval(intervals[w], H)
    descriptor = {
        "group": w.system.spec,
        "H": format_genset(w.system, H),
        "w": w.label_str(),
    }
    return marked, marked_colors(marked, palette), descriptor


def _scan_pair(a, b) -> dict:
    marked_a, colors_a, desc_a = a
    marked_b, colors_b, desc_b = b
    psi = find_marked_isomorphism(marked_a, marked_b, (colors_a, colors_b))
    if psi is None:
        return {"first": desc_a, "second": desc_b, "isomorphic": False,
                "polynomials_equal": None, "pairs_checked": 0}
    iv_a, iv_b = marked_a.interval, marked_b.interval
    # psi on [e, w]^H, which keys every R row and P column of both tops
    image = {iv_a.elements[i]: iv_b.elements[j]
             for i, j in enumerate(psi) if marked_a.marks[i]}
    equal = True
    for x in ("-1", "q"):
        # packed values, equal iff their polynomials are; P values passed
        # the decoder's guard when their column was filled, R values below
        ctx_a = get_context(iv_a.system, marked_a.H, x)
        ctx_b = get_context(iv_b.system, marked_b.H, x)
        R_a, P_a = ctx_a._R_row(iv_a.top), ctx_a._P_column(iv_a.top)
        R_b, P_b = ctx_b._R_row(iv_b.top), ctx_b._P_column(iv_b.top)
        for got, want in ((R_a, R_b), (P_a, P_b)):
            if {image[u]: v for u, v in got.items()} != want:
                equal = False
        for r in {*R_a.values(), *R_b.values()}:
            _unpack(r)
    return {"first": desc_a, "second": desc_b, "isomorphic": True,
            "polynomials_equal": equal, "pairs_checked": 2 * len(image)}


def invariance_scan(pairs: Sequence[tuple[int, Element]]) -> list[dict]:
    """For every unordered pair from ``pairs`` (each entry also paired
    with itself), look for a marked isomorphism of the lower intervals
    [e, w] and, when found, compare the parabolic R- and P-polynomials
    at corresponding quotient elements for both x variants.  Returns one
    JSON record per pair: the ``first`` and ``second`` entries, whether
    they are ``isomorphic``, whether ``polynomials_equal`` (None when
    not isomorphic) and the number of ``pairs_checked``."""
    intervals: dict = {}  # entries with the same w share one interval
    palette: dict = {}    # each entry is colored once, all under one palette
    entries = [_scan_entry(H, w, intervals, palette) for H, w in pairs]
    del palette  # before the tables fill: five F4 entries leave 0.3 MB of keys
    out = []
    for i in range(len(entries)):
        for j in range(i, len(entries)):
            out.append(_scan_pair(entries[i], entries[j]))
    return out


# ---------------------------------------------------------------------------
# the rank-4 quotient counterexample


def mongelli_reproduction() -> dict:
    """Reproduce the rank-4 counterexample: in the group with bonds
    3-4-3 and H = {s1,s2,s3}, the quotient intervals [u,v]^H and
    [x,y]^H below are isomorphic posets, the full Bruhat intervals
    [u,v] and [x,y] are not, and the parabolic P-polynomials differ
    for both x variants (q vs 0, and q+1 vs 1).  Returns the JSON of
    these findings, with ``reproduced`` true iff all of them hold."""
    sys = CoxeterSystem.F4()
    H = genset((0, 1, 2))
    u1 = sys.element_from_labels("s3s1s2s3s4")
    v1 = sys.element_from_labels("s3s4s2s3s1s2s3s4")
    u2 = sys.element_from_labels("s2s3s4")
    v2 = sys.element_from_labels("s4s3s1s2s3s4")

    in_quotient = all(sys.is_min_coset_rep(z, H) for z in (u1, v1, u2, v2))
    first, second = build_interval(u1, v1), build_interval(u2, v2)
    quotient_iso = in_quotient and find_order_isomorphism(
        mark_interval(first, H), mark_interval(second, H)) is not None
    full_iso = find_isomorphism(first, second) is not None
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
