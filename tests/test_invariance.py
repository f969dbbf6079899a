"""Verification campaigns: sweeps, invariance scans, and the rank-4
quotient counterexample."""

import gc
import json
from collections import Counter

import pytest

from bruhatkl.coxeter import (
    CoxeterSystem,
    QuotientMembershipError,
    format_genset,
    genset,
    parse_genset,
)
from bruhatkl.invariance import (
    _ladder,
    _ladder_counts,
    default_max_length,
    invariance_scan,
    mongelli_reproduction,
    reverify_counterexample,
    sweep_calculating,
)
import bruhatkl.invariance
import bruhatkl.matchings
import bruhatkl.poset
from bruhatkl.klpoly import (
    KLContext,
    QPolynomial,
    get_context,
    verify_calculating,
)
from bruhatkl.matchings import (
    enumerate_special_matchings,
    is_H_special,
    is_special,
    matching_from_json,
    matching_to_json,
)
from bruhatkl.poset import Interval, build_lower_interval, mark_interval

from oracles import brute_special_matchings


def el(sys, text):
    return sys.element_from_labels(text)


def report_bytes(report):
    return json.dumps(report, sort_keys=True)


# ---------------------------------------------------------------------------
# default length bound


def test_default_max_length_small_groups(a2, b3):
    assert default_max_length(a2) == 3          # |A2| = 6, longest length 3
    assert default_max_length(b3) == 9          # |B3| = 48, longest length 9
    assert default_max_length(CoxeterSystem.I2(10)) == 10
    assert default_max_length(CoxeterSystem.from_name("B4")) == 16  # 384
    assert default_max_length(CoxeterSystem.I2(200)) == 200  # 400: the cap


def test_default_max_length_large_or_infinite(f4, triangle443):
    assert default_max_length(f4) == 9          # 1152 elements: capped
    assert default_max_length(triangle443) == 9  # infinite: capped
    assert default_max_length(CoxeterSystem.I2(201)) == 9  # 402: capped


# ---------------------------------------------------------------------------
# calculating sweeps


def sweep_units(sys, max_length, H_set):
    return [(w, H)
            for w in sys.elements_up_to_length(max_length)
            for H in H_set
            if (w.rdesc & H) == 0]


def brute_h_special_count(sys, w, H):
    """Independent recount: brute-force special matchings, then the
    downward-stays-marked condition straight from the definition."""
    interval = build_lower_interval(sys, w)
    count = 0
    for pairing in brute_special_matchings(interval):
        ok = True
        for i, u in enumerate(interval.elements):
            if (u.rdesc & H) != 0:
                continue
            j = pairing[i]
            v = interval.elements[j]
            if v.length < u.length and (v.rdesc & H) != 0:
                ok = False
                break
        if ok:
            count += 1
    return count


@pytest.mark.parametrize("x", ["-1", "q"])
def test_sweep_a2_full_group_matches_brute_totals(a2, x):
    H_set = list(range(4))
    report = sweep_calculating(a2, H_set=H_set, x=x)
    assert report["ok"]
    assert report["counterexamples"] == []
    units = sweep_units(a2, 3, H_set)
    assert report["totals"]["intervals_scanned"] == len(units)
    want_matchings = 0
    want_h_special = 0
    for w, H in units:
        interval = build_lower_interval(a2, w)
        want_matchings += len(brute_special_matchings(interval))
        want_h_special += brute_h_special_count(a2, w, H)
    assert report["totals"]["matchings_enumerated"] == want_matchings
    assert report["totals"]["h_special"] == want_h_special
    assert report["totals"]["calculating"] == report["totals"]["h_special"]


@pytest.mark.parametrize("x", ["-1", "q"])
def test_sweep_i25_all_H(x):
    i25 = CoxeterSystem.I2(5)
    report = sweep_calculating(i25, x=x)
    assert report["ok"]
    assert report["max_length"] == 5
    assert report["totals"]["h_special"] > 0
    assert report["totals"]["calculating"] == report["totals"]["h_special"]


# every interval of a rank-2 group has at most two atoms, so the sweep
# counts its matchings rank by rank; brute force lists them
@pytest.mark.parametrize("x", ["q", "-1"])
@pytest.mark.parametrize("group", ["B2", "I2(7)"])
def test_sweep_b2_totals_against_brute(group, x):
    sys = CoxeterSystem.from_name(group)
    H_set = list(range(4))
    report = sweep_calculating(sys, H_set=H_set, x=x)
    assert report["ok"]
    units = sweep_units(sys, report["max_length"], H_set)
    assert report["totals"]["intervals_scanned"] == len(units)
    want_h_special = sum(brute_h_special_count(sys, w, H) for w, H in units)
    assert report["totals"]["h_special"] == want_h_special
    assert report["totals"]["calculating"] == want_h_special


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("x", ["-1", "q"])
@pytest.mark.parametrize("m", [3, 7, 20, 64])
def test_whole_dihedral_sweep_totals_in_closed_form(m, x):
    """Whole I2(m) against closed forms, F(1) = F(2) = 1 the Fibonacci
    numbers.  A unit is a w with an H such that w is in W^H: four for e,
    two for each of the 2(m - 1) elements with one right descent, one for
    w0, so 4m + 1 units.  [e, w] with l(w) = k has 2^(k-1) special
    matchings, so the matchings total sum_{0<k<m} 4 2^(k-1) + 2^(m-1) =
    5 2^(m-1) - 4.

    Every matching is H-special for H empty.  For w ending in s and
    H = {t}, the other generator, each rank strictly between e and w
    holds one marked element, the one ending in s.  A matching is then
    H-special exactly when every unmarked element that goes up is paired
    with an unmarked one, so that the element going up one rank higher
    is marked.  The elements going up run from e to the coatom that w
    goes down to; both are marked (w is), and no two unmarked ones are
    adjacent, which leaves F(k) words of marks.  So h_special =
    sum_{0<k<m} 2 (2^(k-1) + F(k)) + 2^(m-1) = 3 2^(m-1) + 2 F(m+1) - 4,
    and the theorem says that every one of them calculates.  For m = 14
    this gives the 57, 40,956 and 25,792 pinned for the I2(14) sweep of
    perfbench."""
    report = sweep_calculating(CoxeterSystem.I2(m), x=x)
    h_special = 3 * 2 ** (m - 1) + 2 * fibonacci(m + 1) - 4
    assert report["max_length"] == m and report["ok"] is True
    assert report["totals"] == {
        "intervals_scanned": 4 * m + 1,
        "matchings_enumerated": 5 * 2 ** (m - 1) - 4,
        "h_special": h_special,
        "calculating": h_special,
    }


def enumerated_counts(marked, x, special, table):
    """`_ladder_counts` recounted from the listed special matchings, each
    checked on its own."""
    every, h_special, calculating = Counter(), Counter(), Counter()
    for M in special:
        top = M[-1]
        every[top] += 1
        if is_H_special(marked, M):
            h_special[top] += 1
            calculating[top] += verify_calculating(marked, x, M, table)[0]
    return every, h_special, calculating


@pytest.mark.parametrize("group, max_length",
                         [("I2(%d)" % m, m) for m in range(2, 17)]
                         + [("B4", 4), ("F4", 4)])
def test_ladder_counts_match_the_enumeration(group, max_length):
    # every interval with at most two atoms lies in a rank-2 parabolic
    # subgroup, whose bonds are at most 4 in B4 and F4; each of its units,
    # for both x, counts the same matchings by M(w) as the enumeration
    sys = CoxeterSystem.from_name(group)
    for w in sys.elements_up_to_length(max_length):
        interval = build_lower_interval(sys, w)
        if len(interval.hasse_up[0]) > 2:
            continue
        special = enumerate_special_matchings(interval)
        for H in range(1 << sys.rank):
            if w.rdesc & H:
                continue
            marked = mark_interval(interval, H)
            for x in ("-1", "q"):
                want = enumerated_counts(marked, x, special,
                                         get_context(sys, H, x))
                got = _ladder_counts(marked, x)
                assert [Counter(c) for c in got] == list(want), (w, H, x)


def test_sweep_deterministic_across_runs():
    b2 = CoxeterSystem.B(2)
    first = sweep_calculating(b2, x="q")
    second = sweep_calculating(CoxeterSystem.B(2), x="q")
    # a third sweep reads the memo the first one filled
    third = sweep_calculating(b2, x="q")
    assert report_bytes(first) == report_bytes(second) == report_bytes(third)


def test_sweep_report_shape(a2):
    data = sweep_calculating(a2, max_length=2, H_set=[0], x="-1")
    # no timing: wall time is measured and shown by the CLI's human output
    assert sorted(data) == ["H_set", "campaign", "counterexamples", "group",
                            "max_length", "ok", "totals", "x"]
    assert data["campaign"] == "calculating:A2:x=-1:len<=2"
    assert data["group"] == {"type": "named", "name": "A2"}
    assert data["H_set"] == ["{}"]
    assert data["ok"] is True
    assert json.loads(json.dumps(data)) == data


def test_sweep_rejects_bad_H(a2):
    with pytest.raises(ValueError):
        sweep_calculating(a2, H_set=[1 << 5])


def test_default_H_family_is_refused_at_large_rank(monkeypatch):
    # every subset of 17 generators would be 2^17 H; an explicit family
    # is still swept
    a17 = CoxeterSystem.A(17)
    with pytest.raises(ValueError, match="pass --H"):
        sweep_calculating(a17, max_length=1)
    report = sweep_calculating(a17, max_length=1, H_set=[0])
    assert report["ok"] and report["totals"]["intervals_scanned"] == 18
    # the bound is inclusive
    monkeypatch.setattr(bruhatkl.invariance, "_MAX_DEFAULT_H_RANK", 2)
    assert sweep_calculating(CoxeterSystem.A(2))["ok"]
    with pytest.raises(ValueError, match="pass --H"):
        sweep_calculating(CoxeterSystem.A(3))


def test_sweep_restricted_length(b2):
    report = sweep_calculating(b2, max_length=2, H_set=[0], x="-1")
    # intervals: e, s1, s2, s1s2, s2s1
    assert report["totals"]["intervals_scanned"] == 5
    assert report["ok"]


def test_sweep_keeps_no_interval_alive():
    b3 = CoxeterSystem.B(3)
    assert sweep_calculating(b3, x="-1")["ok"]
    gc.collect()
    alive = [o for o in gc.get_objects()
             if isinstance(o, Interval) and o.system is b3]
    assert alive == []


# ---------------------------------------------------------------------------
# counterexample records are self-contained and self-verifying


def fabricated_record(b2):
    """A record written out by hand, so the format is checked apart from
    its writer; its matching calculates, so its two sides are equal."""
    w = el(b2, "s2s1s2")
    interval = build_lower_interval(b2, w)
    H = genset([0])
    marked = mark_interval(interval, H)
    M = next(m for m in enumerate_special_matchings(interval)
             if is_H_special(marked, m))
    table = KLContext(b2, H, "q")
    assert verify_calculating(marked, "q", M, table) == (True, None)
    u = next(e for i, e in enumerate(interval.elements)
             if marked.marks[i] and e.length == 1)
    reference = table.R(u, w)
    return {
        "w": "s2s1s2", "u": u.label_str(), "H": "{s1}", "x": "q",
        "matching": {"source": "enumerated",
                     "pairs": [[i, j] for i, j in enumerate(M) if i < j]},
        "via_matching": {"coeffs": list(reference.coeffs)},
        "reference": {"coeffs": list(reference.coeffs)},
    }


def plant_discrepancy(monkeypatch, v, u=None):
    """Make every table read R(u, v), by default R(e, v), as one more than
    it is, without touching the stored row.  Planted at e, a matching M of
    [e, w] with M(w) = v stops calculating, and so does every matching of
    [e, v] itself."""
    real = KLContext._R_row

    def planted(self, top):
        row = real(self, top)
        if top is v:
            row = dict(row)
            # adds 1 to the constant term
            row[self.system.identity if u is None else u] += 1
        return row

    monkeypatch.setattr(KLContext, "_R_row", planted)


def planted_sweep_record(a3, monkeypatch):
    """The record a sweep writes for [e, s1s2] once R(e, s2) is planted
    wrong: the matching e<->s1, s2<->s1s2 reads the row of s2, and the
    other special matching of [e, s1s2] reads the row of s1."""
    plant_discrepancy(monkeypatch, el(a3, "s2"))
    report = sweep_calculating(a3, max_length=2, H_set=[0])
    (record,) = [r for r in report["counterexamples"] if r["w"] == "s1s2"]
    assert record["u"] == "e" and record["matching"]["pairs"] == [[0, 1],
                                                                  [2, 3]]
    return record


def test_record_recompute_roundtrip(a3, monkeypatch):
    # the record a sweep writes re-verifies, also after a trip through JSON
    record = planted_sweep_record(a3, monkeypatch)
    assert reverify_counterexample(a3, record) is True
    again = json.loads(json.dumps(record))
    assert again == record
    assert reverify_counterexample(a3, again) is True


def test_reverify_requires_a_real_discrepancy(b2):
    # a record re-verifies only if writing it again gives the same record;
    # this one's matching calculates, so nothing is written again
    record = fabricated_record(b2)
    assert record["via_matching"] == record["reference"]
    assert reverify_counterexample(b2, record) is False


# [e, s1s2s3s2] in A3 with H empty: a matching along Hasse edges, trivially
# H-special, that is not special (s2 < s3s2, yet M(s2) = s1s2 is not below
# M(s3s2) = s2s3s2); its recurrence gives q^3 - 3q^2 + 3q - 1 at u = s1,
# against the reference q^3 - 2q^2 + 2q - 1
NON_SPECIAL_A3 = {
    "w": "s1s2s3s2", "u": "s1", "H": "{}", "x": "-1",
    "matching": {"source": "enumerated",
                 "pairs": [[0, 1], [2, 4], [3, 5], [6, 8], [7, 10], [9, 11]]},
    "via_matching": {"coeffs": [-1, 3, -3, 1]},
    "reference": {"coeffs": [-1, 2, -2, 1]},
}


def test_reverify_rejects_a_matching_that_is_not_special(a3):
    record = json.loads(json.dumps(NON_SPECIAL_A3))
    with pytest.raises(ValueError, match="not special"):
        reverify_counterexample(a3, record)


def test_verify_calculating_writes_the_sweep_record(a3, monkeypatch):
    w = el(a3, "s1s2s3s2")
    interval = build_lower_interval(a3, w)
    marked = mark_interval(interval, 0)
    M = matching_from_json(interval, NON_SPECIAL_A3["matching"])
    assert is_H_special(marked, M) and not is_special(interval, M)
    ok, record = verify_calculating(marked, "-1", M)
    assert ok is False
    assert json.loads(json.dumps(record)) == record == NON_SPECIAL_A3
    with pytest.raises(ValueError, match="not special"):
        reverify_counterexample(a3, record)
    # a sweep with a planted discrepancy stores a record with the same keys
    plant_discrepancy(monkeypatch, el(a3, "s2"))
    report = sweep_calculating(a3, max_length=1, H_set=[0])
    assert report["counterexamples"]
    for stored in report["counterexamples"]:
        assert json.loads(json.dumps(stored)) == stored
        assert stored.keys() == record.keys()


def per_matching_records(sys, max_length, x):
    """The records of a sweep over all H that lists and checks every
    H-special matching one at a time, in the sweep's order."""
    records = []
    for w, H in sweep_units(sys, max_length, range(1 << sys.rank)):
        interval = build_lower_interval(sys, w)
        marked = mark_interval(interval, H)
        for M in enumerate_special_matchings(interval):
            if is_H_special(marked, M):
                ok, record = verify_calculating(marked, x, M,
                                                KLContext(sys, H, x))
                if not ok:
                    records.append(record)
    return records


@pytest.mark.parametrize("x", ["-1", "q"])
def test_failing_column_unit_writes_the_per_matching_records(monkeypatch, x):
    # [e, w] in I2(7) with l(w) = 5 has two atoms, so the sweep counts its
    # 16 special matchings rank by rank; with R(e, v) planted wrong for a
    # coatom v, the matchings with M(w) = v fail and the others calculate,
    # so the unit is listed and checked one matching at a time
    i27 = CoxeterSystem.I2(7)
    w, v = el(i27, "s1s2s1s2s1"), el(i27, "s2s1s2s1")
    interval = build_lower_interval(i27, w)
    special = enumerate_special_matchings(interval)
    assert len(special) == 16 and len(interval.hasse_up[0]) == 2
    plant_discrepancy(monkeypatch, v)
    report = sweep_calculating(i27, max_length=5, x=x)
    assert report["ok"] is False
    totals = report["totals"]
    assert totals["calculating"] + len(report["counterexamples"]) \
        == totals["h_special"] > totals["calculating"]
    for H in (0, genset([1])):  # the H with w in W^H
        marked = mark_interval(interval, H)
        _, h_special, calculating = _ladder_counts(marked, x)
        assert calculating == dict.fromkeys(h_special, 0) | {
            t: n for t, n in h_special.items() if t != interval.id_of(v)}
        want = []
        for M in special:
            if is_H_special(marked, M):
                ok, record = verify_calculating(marked, x, M,
                                                KLContext(i27, H, x))
                assert ok is (M[-1] != interval.id_of(v))
                if not ok:
                    want.append(record)
        assert want
        got = [r for r in report["counterexamples"]
               if r["w"] == "s1s2s1s2s1" and r["H"] == format_genset(i27, H)]
        assert got == want


def test_failing_unit_past_the_listing_cap_raises(monkeypatch):
    # a failing dihedral unit is listed to write its records; past the cap
    # the sweep ends in one ValueError instead of a list that outgrows
    # memory.  [e, v] has 8 special matchings and fails too, within the cap
    i27 = CoxeterSystem.I2(7)
    v = el(i27, "s2s1s2s1")
    monkeypatch.setattr(bruhatkl.matchings, "MAX_LISTED", 8)
    plant_discrepancy(monkeypatch, v)
    assert not sweep_calculating(i27, max_length=4, H_set=[0])["ok"]
    with pytest.raises(ValueError, match="more than 8 special matchings"):
        sweep_calculating(i27, max_length=5, H_set=[0])


def test_ladder_refuses_any_one_pair():
    # with one pair refused, the ladder counts exactly the special
    # matchings without that pair, wherever it sits, by their M(w)
    i27 = CoxeterSystem.I2(7)
    interval = build_lower_interval(i27, el(i27, "s1s2s1s2s1"))
    special = enumerate_special_matchings(interval)
    up = interval.hasse_up
    assert _ladder(up, lambda a, b: True) == Counter(p[-1] for p in special)
    for a, b in {(a, b) for a in range(len(up)) for b in up[a]}:
        got = _ladder(up, lambda p, q: (p, q) != (a, b))
        assert Counter(got) == Counter(p[-1] for p in special if p[a] != b)


@pytest.mark.parametrize("x", ["-1", "q"])
def test_one_wrong_step_fails_the_ladder_and_keeps_the_records(monkeypatch,
                                                               x):
    # with the reference R(u, w) planted wrong for u of rank 2, every
    # H-special matching of [e, w] fails at u, whether it moves u up or
    # down: the ladder counts them as the listed matchings count, none of
    # them calculating, and the sweep writes the per-matching records
    i27 = CoxeterSystem.I2(7)
    w, u = el(i27, "s1s2s1s2s1"), el(i27, "s2s1")
    interval = build_lower_interval(i27, w)
    special = enumerate_special_matchings(interval)
    plant_discrepancy(monkeypatch, w, u)
    for H in (0, genset([1])):  # the H with w in W^H
        marked = mark_interval(interval, H)
        want = enumerated_counts(marked, x, special, get_context(i27, H, x))
        assert [Counter(c) for c in _ladder_counts(marked, x)] == list(want)
        assert sum(want[2].values()) == 0 < sum(want[1].values())
    report = sweep_calculating(i27, max_length=5, x=x)
    assert report["ok"] is False
    assert report["counterexamples"] == per_matching_records(i27, 5, x)


def test_reverify_rejects_tampered_records(a3, monkeypatch):
    record = planted_sweep_record(a3, monkeypatch)
    other = [matching_to_json(M)["pairs"] for M in enumerate_special_matchings(
        build_lower_interval(a3, el(a3, "s1s2")))]
    other.remove(record["matching"]["pairs"])
    tampered = [
        dict(record, u="s1"),
        dict(record, via_matching={"coeffs": [7]}),
        dict(record, reference={"coeffs": [0, 7]}),
        dict(record, matching=dict(record["matching"], pairs=other[0])),
    ]
    for bad in tampered:
        assert reverify_counterexample(a3, bad) is False
    assert reverify_counterexample(a3, record) is True


def test_reverify_rejects_a_source_the_program_does_not_write(
        a3, monkeypatch):
    # a record is written again with source "enumerated", the only source
    # the program writes, so a hand-written other source, or none, differs
    record = planted_sweep_record(a3, monkeypatch)
    assert record["matching"]["source"] == "enumerated"
    assert reverify_counterexample(a3, record) is True
    relabelled = dict(record, matching=dict(record["matching"],
                                            source="left-mult(s1)"))
    unlabelled = dict(record, matching={"pairs": record["matching"]["pairs"]})
    assert reverify_counterexample(a3, relabelled) is False
    assert reverify_counterexample(a3, unlabelled) is False


def with_pairs(pairs):
    return lambda r: dict(r, matching=dict(r["matching"], pairs=pairs))


MALFORMED_RECORDS = {
    "past-end": (with_pairs([[0, 1], [2, 99]]), "bad pair"),
    "str": (with_pairs([[0, "1"]]), "bad pair"),
    "triple": (with_pairs([[0, 1, 2]]), "bad pair"),
    "no-pairs": (lambda r: dict(r, matching={"source": "enumerated"}),
                 "bad matching"),
    "matching-str": (lambda r: dict(r, matching="x"), "bad matching"),
    "no-w": (lambda r: {k: v for k, v in r.items() if k != "w"},
             "malformed record"),
    "H-int": (lambda r: dict(r, H=5), "malformed record"),
    "w-int": (lambda r: dict(r, w=3), "malformed record"),
    "list": (lambda r: list(r.items()), "malformed record"),
}


@pytest.mark.parametrize("malform, message", MALFORMED_RECORDS.values(),
                         ids=MALFORMED_RECORDS.keys())
def test_reverify_rejects_malformed_matching_with_value_error(b2, malform,
                                                              message):
    # every malformed record raises ValueError, never another error
    with pytest.raises(ValueError, match=message):
        reverify_counterexample(b2, malform(fabricated_record(b2)))


# ---------------------------------------------------------------------------
# invariance scans


def test_scan_self_pair_identity(a2):
    w0 = el(a2, "s1s2s1")
    (record,) = invariance_scan([(a2, 0, w0)])
    assert record["isomorphic"] is True
    assert record["polynomials_equal"] is True
    # 6 quotient elements, checked for both x variants
    assert record["pairs_checked"] == 12
    assert record["first"] == record["second"]


def test_scan_braid_spellings_are_one_interval(a2):
    # in A2 the two length-3 spellings name the same element
    u = el(a2, "s1s2s1")
    v = el(a2, "s2s1s2")
    assert u is v
    records = invariance_scan([(a2, 0, u), (a2, 0, v)])
    assert len(records) == 3
    assert all(r["isomorphic"] and r["polynomials_equal"] for r in records)


def test_scan_b2_with_generator_roles_swapped(b2):
    # distinct intervals in B2, marked-isomorphic under s1 <-> s2
    records = invariance_scan([
        (b2, genset([0]), el(b2, "s2s1s2")),
        (b2, genset([1]), el(b2, "s1s2s1")),
    ])
    cross = [r for r in records if r["first"] != r["second"]]
    assert len(cross) == 1
    assert cross[0]["isomorphic"] is True
    assert cross[0]["polynomials_equal"] is True
    assert cross[0]["pairs_checked"] == 8     # 4 marked elements, 2 x variants


def test_scan_detects_mark_mismatch():
    i24 = CoxeterSystem.I2(4)
    w = el(i24, "s1s2s1")
    records = invariance_scan([(i24, genset([1]), w), (i24, 0, w)])
    cross = [r for r in records if r["first"] != r["second"]]
    assert len(cross) == 1
    assert cross[0]["isomorphic"] is False
    assert cross[0]["polynomials_equal"] is None
    assert cross[0]["pairs_checked"] == 0


def test_scan_detects_size_mismatch(a2):
    records = invariance_scan([(a2, 0, el(a2, "s1s2")),
                               (a2, 0, el(a2, "s1s2s1"))])
    cross = [r for r in records if r["first"] != r["second"]]
    assert cross[0]["isomorphic"] is False


def test_scan_requires_quotient_top(b2):
    with pytest.raises(QuotientMembershipError):
        invariance_scan([(b2, genset([1]), el(b2, "s1s2"))])


def test_scan_record_json(a2):
    (data,) = invariance_scan([(a2, 0, el(a2, "s1s2"))])
    assert sorted(data) == ["first", "isomorphic", "pairs_checked",
                            "polynomials_equal", "second"]
    assert json.loads(json.dumps(data)) == data
    assert data["isomorphic"] is True
    assert data["polynomials_equal"] is True
    assert data["first"]["w"] == "s1s2"


def test_scan_refines_each_entry_once(monkeypatch):
    b3 = CoxeterSystem.B(3)
    entries = [(b3, 0, el(b3, "s1s2s3")), (b3, 0, el(b3, "s3s2s1")),
               (b3, genset([0]), el(b3, "s1s2s3")),
               (b3, genset([2]), el(b3, "s3s2s1")), (b3, 0, el(b3, "s2s3"))]
    calls = {"refine": 0, "isomorphism": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bruhatkl.poset, "_stable_colors", counting(
        "refine", bruhatkl.poset._stable_colors))
    monkeypatch.setattr(bruhatkl.invariance, "find_marked_isomorphism",
                        counting("isomorphism",
                                 bruhatkl.invariance.find_marked_isomorphism))
    records = invariance_scan(entries)
    k = len(entries)
    assert len(records) == k * (k + 1) // 2
    assert calls == {"refine": k, "isomorphism": k * (k + 1) // 2}
    assert any(r["isomorphic"] for r in records if r["first"] != r["second"])


# [e, s2s1s2]^{s1} and [e, s1s2s1]^{s2} in B2: distinct entries, isomorphic
# under s1 <-> s2, whose values come from different contexts
SWAPPED_B2 = (("s1", "s2s1s2"), ("s2", "s1s2s1"))


def planted_b2(table: str, value):
    """A fresh B2 whose second swapped entry has its R row (table "R")
    or P column (table "P") entry at u = s1, x = q, replaced by
    value(old).  Returns the system and the scan entries."""
    b2 = CoxeterSystem.B(2)
    entries = [(b2, parse_genset(b2, H), el(b2, w)) for H, w in SWAPPED_B2]
    _, H, w = entries[1]
    ctx = get_context(b2, H, "q")
    values = ctx._R_row(w) if table == "R" else ctx._P_column(w)
    u = el(b2, "s1")
    values[u] = value(values[u])
    return b2, entries


def test_scan_refuses_an_undecodable_R_value():
    # a constant term of 2^62 is past the packed decoder's guard
    _, entries = planted_b2("R", lambda r: 1 << 62)
    with pytest.raises(ArithmeticError):
        invariance_scan(entries)


@pytest.mark.parametrize("table", ["R", "P"])
def test_scan_reports_a_planted_disagreement(table):
    _, entries = planted_b2(table, lambda p: p + 1)
    first, cross, second = invariance_scan(entries)
    assert first["polynomials_equal"] is True
    assert second["polynomials_equal"] is True
    assert cross["isomorphic"] is True
    assert cross["polynomials_equal"] is False
    assert cross["pairs_checked"] == 8


# ---------------------------------------------------------------------------
# the rank-4 quotient counterexample


def test_mongelli_reproduction(f4):
    report = mongelli_reproduction(f4)
    assert json.loads(json.dumps(report)) == report
    assert report["in_quotient"] is True
    assert report["quotient_isomorphic"] is True
    assert report["full_intervals_isomorphic"] is False
    p_values = {x: [QPolynomial.from_json(p) for p in ps]
                for x, ps in report["p_values"].items()}
    assert p_values["q"] == [QPolynomial((0, 1)), QPolynomial()]
    assert p_values["-1"] == [QPolynomial((1, 1)), QPolynomial((1,))]
    assert report["reproduced"] is True
    assert report["H"] == "{s1,s2,s3}"


def test_mongelli_default_group_and_json():
    data = mongelli_reproduction()
    assert data["group"] == {"type": "named", "name": "F4"}
    assert "wall_time_s" not in data
    assert data["reproduced"] is True
    assert data["p_values"]["q"] == [{"coeffs": [0, 1]}, {"coeffs": []}]
    assert data["p_values"]["-1"] == [{"coeffs": [1, 1]}, {"coeffs": [1]}]
    assert json.loads(json.dumps(data)) == data
