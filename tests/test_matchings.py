"""Special matchings: enumeration against brute force and the other
oracles, the enumerator's search budget and the premises of its proof,
multiplication matchings, orbits, restriction, dihedral systems and their
associated matchings."""

import inspect
import itertools
import random
import sys
from fractions import Fraction

import pytest

import bruhatkl.matchings
from bruhatkl.coxeter import CoxeterSystem, genset
from bruhatkl.poset import build_interval, build_lower_interval, mark_interval
from bruhatkl.matchings import (
    is_special,
    enumerate_special_matchings,
    is_H_special,
    matching_from_json,
    matching_to_json,
)

import matching_helpers
import oracles
from matching_helpers import (
    DihedralSystem,
    commutes,
    commutes_on_lower_dihedral,
    enumerate_verified_systems,
    find_commuting_multiplication_matching,
    image,
    matching_from_system,
    max_parabolic_below,
    multiplication_matching,
    multiply,
    orbit,
    restrict_matching,
    support,
    verify_system,
)


def el(sys, labels):
    return sys.element_from_labels(labels)


def matching_from_element_pairs(interval, pairs):
    pairing = [-1] * len(interval.elements)
    for a, b in pairs:
        ia, ib = interval.id_of(a), interval.id_of(b)
        pairing[ia] = ib
        pairing[ib] = ia
    return tuple(pairing)


# ---------------------------------------------------------------------------
# multiplication matchings


def test_multiplication_matching_pairs(b2):
    w = el(b2, "s1 s2 s1 s2")
    iv = build_lower_interval(b2, w)
    rho = multiplication_matching(iv, 0, "right")
    for u in iv.elements:
        assert image(iv, rho, u) is multiply(b2, u, b2.generator(0))
    lam = multiplication_matching(iv, 1, "left")
    for u in iv.elements:
        assert image(iv, lam, u) is multiply(b2, b2.generator(1), u)
    assert is_special(iv, rho) and is_special(iv, lam)


def test_multiplication_matching_needs_descent(a2):
    iv = build_lower_interval(a2, el(a2, "s1 s2"))
    with pytest.raises(ValueError):
        multiplication_matching(iv, 0, "right")  # right descent is s2
    multiplication_matching(iv, 1, "right")
    multiplication_matching(iv, 0, "left")
    with pytest.raises(ValueError):
        multiplication_matching(iv, 1, "left")


def test_is_special_rejects_non_matchings(a2):
    iv = build_lower_interval(a2, el(a2, "s1 s2 s1"))
    with pytest.raises(ValueError):
        is_special(iv, [0] * len(iv.elements))
    with pytest.raises(ValueError):
        # pairing bottom with top is not a Hasse edge
        n = len(iv.elements)
        pairing = list(range(n))
        pairing[0], pairing[n - 1] = n - 1, 0
        pairing[1], pairing[2] = 2, 1
        pairing[3], pairing[4] = 4, 3
        is_special(iv, pairing)


def test_is_special_negative_example(a3):
    # on the rank-3 cube, match e with s1 but s3 with s1s3: the cover
    # s3 < s2s3 then forces s1s3 <= s2 and fails
    iv = build_lower_interval(a3, el(a3, "s1 s2 s3"))
    pairs = [
        (el(a3, "e"), el(a3, "s1")),
        (el(a3, "s2"), el(a3, "s2 s3")),
        (el(a3, "s3"), el(a3, "s1 s3")),
        (el(a3, "s1 s2"), el(a3, "s1 s2 s3")),
    ]
    M = matching_from_element_pairs(iv, pairs)
    assert not is_special(iv, M)
    assert M not in enumerate_special_matchings(iv)


# ---------------------------------------------------------------------------
# enumeration vs brute force


def interval_corpus():
    a2 = CoxeterSystem.A(2)
    b2 = CoxeterSystem.B(2)
    a3 = CoxeterSystem.A(3)
    i26 = CoxeterSystem.I2(6)
    tops = []
    tops += [(a2, w) for w in a2.group_elements()]
    tops += [(b2, w) for w in b2.group_elements()]
    tops += [(a3, w) for w in a3.group_elements() if w.length >= 2]
    tops += [(i26, w) for w in i26.group_elements() if w.length >= 4]
    return tops


@pytest.mark.parametrize("case", range(len(interval_corpus())))
def test_enumeration_matches_bruteforce(case):
    sys_, w = interval_corpus()[case]
    iv = build_lower_interval(sys_, w)
    got = enumerate_special_matchings(iv)
    assert got == oracles.brute_special_matchings(iv)
    assert len(set(got)) == len(got)
    for s in range(sys_.rank):
        for side in ("right", "left"):
            desc = w.rdesc if side == "right" else w.ldesc
            if w.length and (desc >> s) & 1:
                assert multiplication_matching(iv, s, side) in got


# name -> factory of (system, max length of w or None for the whole group)
BACKTRACKER_CORPORA = {
    "A3": lambda: [(CoxeterSystem.A(3), None)],
    "B3": lambda: [(CoxeterSystem.B(3), None)],
    "A4": lambda: [(CoxeterSystem.A(4), None)],
    "I2(2..14)": lambda: [(CoxeterSystem.I2(m), None) for m in range(2, 15)],
    "F4": lambda: [(CoxeterSystem.F4(), 7)],
    "triangle443": lambda: [
        (CoxeterSystem([[1, 4, 3], [4, 1, 3], [3, 3, 1]]), 7)],
    # where narrowing upper covers only changes the search tree most
    "triangle444": lambda: [
        (CoxeterSystem([[1, 4, 4], [4, 1, 4], [4, 4, 1]]), 7)],
}


@pytest.mark.parametrize("name", sorted(BACKTRACKER_CORPORA))
def test_enumeration_matches_recursive_backtracker(name):
    # same pairings in the same order as the enumerator that the
    # constraint search replaced, on every [e, w] of the corpus
    for sys_, max_length in BACKTRACKER_CORPORA[name]():
        tops = (sys_.group_elements() if max_length is None
                else sys_.elements_up_to_length(max_length))
        for w in tops:
            iv = build_lower_interval(sys_, w)
            got = enumerate_special_matchings(iv)
            assert got == oracles.backtrack_special_matchings(iv), (
                sys_.name, w.label_str())


def lower_intervals(sys_, max_length=None):
    """Every [e, w] of the group, or with l(w) up to `max_length`."""
    tops = (sys_.group_elements() if max_length is None
            else sys_.elements_up_to_length(max_length))
    for w in tops:
        yield build_lower_interval(sys_, w)


def general_intervals(sys_, max_length=None):
    """Every [u, v] of the group, or with l(v) up to `max_length`, as a
    subinterval of [e, v]."""
    for iv in lower_intervals(sys_, max_length):
        top = len(iv) - 1
        for lo in range(top + 1):
            yield iv.subinterval(lo, top)[0]


def test_enumeration_matches_propagation_search(triangle444):
    # same pairings as the constraint search that the one-pass enumerator
    # replaced, on every [e, w] of B4 and D4, F4 up to length 9, every
    # [u, v] of A4, and every [u, v] of the (4,4,4) triangle group with
    # l(v) <= 7: general intervals are what a [u, v] census feeds it, and
    # the enumerator's docstring proves it correct on them
    for iv in itertools.chain(lower_intervals(CoxeterSystem.B(4)),
                              lower_intervals(CoxeterSystem.D(4)),
                              lower_intervals(CoxeterSystem.F4(), 9),
                              general_intervals(CoxeterSystem.A(4)),
                              general_intervals(triangle444, 7)):
        assert enumerate_special_matchings(iv) == \
            oracles.propagation_special_matchings(iv), iv


@pytest.mark.parametrize("sys_", [CoxeterSystem.A(3), CoxeterSystem.B(3)],
                         ids=["A3", "B3"])
def test_enumeration_matches_bruteforce_on_general_intervals(sys_):
    checked = 0
    for iv in general_intervals(sys_):
        if len(iv) <= 12:
            assert enumerate_special_matchings(iv) == \
                oracles.brute_special_matchings(iv), iv
            checked += 1
    assert checked > 100


# name -> the intervals of a whole-group comparison
WHOLE_GROUP_CORPORA = {
    "F4": lambda: lower_intervals(CoxeterSystem.F4()),
    "A5": lambda: lower_intervals(CoxeterSystem.A(5)),
    "D5": lambda: lower_intervals(CoxeterSystem.D(5)),
    # every [u, v] of B4: 40,249 intervals
    "B4-general": lambda: general_intervals(CoxeterSystem.B(4)),
}


@pytest.mark.f4sweep
@pytest.mark.parametrize("name", list(WHOLE_GROUP_CORPORA))
def test_enumeration_matches_propagation_search_whole_group(name):
    for iv in WHOLE_GROUP_CORPORA[name]():
        assert enumerate_special_matchings(iv) == \
            oracles.propagation_special_matchings(iv), iv


# ---------------------------------------------------------------------------
# the enumerator's search budget


# the counts on the budget test's corpus when the bounds were set, plus 10%:
# 14,574 stack pops and 5,601,755 line events, the same on CPython 3.10-3.13
MAX_POPS = 16_031
MAX_LINE_EVENTS = 6_161_930


def test_enumeration_search_budget(triangle444):
    # stack pops and line events traced in the enumerator's frame over a
    # fixed corpus.  The tracer raises as soon as a bound is passed, so a
    # search that loses its pruning fails in seconds instead of running on
    lines, first = inspect.getsourcelines(enumerate_special_matchings)
    pops_at = [first + k for k, text in enumerate(lines)
               if "stack.pop()" in text]
    assert len(pops_at) == 1
    code = enumerate_special_matchings.__code__
    counts = {"pops": 0, "lines": 0}

    def local(frame, event, arg):
        if event == "line":
            counts["lines"] += 1
            counts["pops"] += frame.f_lineno == pops_at[0]
            if counts["pops"] > MAX_POPS or counts["lines"] > MAX_LINE_EVENTS:
                raise AssertionError("search budget passed: %r" % counts)
        return local

    # every [e, w] of B4, of F4 with l(w) <= 9 and of the (4,4,4) triangle
    # group with l(w) <= 7
    intervals = list(itertools.chain(lower_intervals(CoxeterSystem.B(4)),
                                     lower_intervals(CoxeterSystem.F4(), 9),
                                     lower_intervals(triangle444, 7)))
    assert len(intervals) == 984
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code is code else None)
    try:
        found = sum(len(enumerate_special_matchings(iv)) for iv in intervals)
    finally:
        sys.settrace(previous)
    assert found == 4207
    assert counts["pops"] <= MAX_POPS
    assert counts["lines"] <= MAX_LINE_EVENTS


# ---------------------------------------------------------------------------
# the premises of the enumerator's proof: every [u, x] of length >= 2 is
# thin at its top, and its coatoms are connected through shared lower covers


def check_top_premises(sys_, max_length=None):
    """Check both premises on every [u, x] of the group with l(u, x) >= 2,
    or with l(x) up to `max_length`, read inside [e, x]; returns how many
    intervals it checked."""
    checked = 0
    for iv in lower_intervals(sys_, max_length):
        down, above, rank = iv.hasse_down, iv.above, iv.rank_of
        top = len(iv) - 1
        for u in range(top + 1):
            if rank[top] - rank[u] < 2:
                break  # ids are sorted by rank
            inside = above[u]
            coatoms = [q for q in down[top] if inside >> q & 1]
            # the coatoms above each element of corank 2
            under: dict[int, list[int]] = {}
            for q in coatoms:
                for c in down[q]:
                    if inside >> c & 1:
                        under.setdefault(c, []).append(q)
            assert all(len(qs) == 2 for qs in under.values()), (iv, u)
            reached, todo = {coatoms[0]}, [coatoms[0]]
            while todo:
                q = todo.pop()
                for c in down[q]:
                    for r in under.get(c, ()):
                        if r not in reached:
                            reached.add(r)
                            todo.append(r)
            assert len(reached) == len(coatoms), (iv, u)
            checked += 1
    return checked


def test_enumerator_proof_premises(triangle444):
    assert check_top_premises(triangle444, 7) == 7056
    assert check_top_premises(CoxeterSystem.A(4)) == 3217


@pytest.mark.f4sweep
def test_enumerator_proof_premises_b4():
    assert check_top_premises(CoxeterSystem.B(4)) == 38125


def random_coxeter_matrix(rng, rank):
    m = [[1] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            m[i][j] = m[j][i] = rng.choice((2, 3, 4))
    return m


def test_enumeration_matches_bruteforce_random_groups():
    # seeded draws of rank-3 and rank-4 groups with bonds in {2, 3, 4},
    # infinite ones included; tops are reached by random upward walks
    rng = random.Random(20150623)
    checked = infinite = 0
    for _ in range(24):
        matrix = random_coxeter_matrix(rng, rng.choice((3, 4)))
        # a rank-3 group is infinite iff the reciprocal bonds sum to <= 1
        if len(matrix) == 3 and sum(
                Fraction(1, matrix[i][j]) for i, j in ((0, 1), (0, 2), (1, 2))
        ) <= 1:
            infinite += 1
        sys_ = CoxeterSystem(matrix)
        for _ in range(3):
            w = sys_.identity
            for _ in range(7):
                ascents = [s for s in range(sys_.rank)
                           if not (w.rdesc >> s) & 1]
                if not ascents:
                    break  # w is the top of a finite group
                w = sys_.multiply_by_generator(w, rng.choice(ascents))
                iv = build_lower_interval(sys_, w)
                if len(iv) > 24:
                    break
                got = enumerate_special_matchings(iv)
                assert got == oracles.brute_special_matchings(iv), (
                    sys_.matrix, w.label_str())
                checked += 1
    assert checked > 200 and infinite > 0


def test_listing_cap_names_the_bottom(monkeypatch):
    # [s1, s1s2s1s2s1] of I2(6) is a length-4 dihedral interval, with 8
    # special matchings
    i26 = CoxeterSystem.I2(6)
    iv = build_interval(i26, el(i26, "s1"), el(i26, "s1 s2 s1 s2 s1"))
    assert len(enumerate_special_matchings(iv)) == 8
    monkeypatch.setattr(bruhatkl.matchings, "MAX_LISTED", 4)
    with pytest.raises(ValueError) as err:
        enumerate_special_matchings(iv)
    assert str(err.value) == ("[s1, w] has more than 4 special matchings, "
                              "for w = 's1s2s1s2s1'")


def test_enumeration_cached(b2):
    iv = build_lower_interval(b2, el(b2, "s1 s2 s1"))
    assert enumerate_special_matchings(iv) == \
        enumerate_special_matchings(iv)


# ---------------------------------------------------------------------------
# the non-multiplication matching of the 8-element dihedral interval


def case2_matching(i24):
    top = el(i24, "s1 s2 s1 s2")
    iv = build_lower_interval(i24, top)
    s, t = i24.generator(0), i24.generator(1)
    pairs = [
        (i24.identity, s),
        (t, el(i24, "s2 s1")),
        (el(i24, "s1 s2"), el(i24, "s2 s1 s2")),
        (el(i24, "s1 s2 s1"), top),
    ]
    return iv, matching_from_element_pairs(iv, pairs)


def test_dihedral_case2_matching_is_special_not_multiplication():
    i24 = CoxeterSystem.I2(4)
    iv, M = case2_matching(i24)
    assert is_special(iv, M)
    assert M in enumerate_special_matchings(iv)
    mults = set()
    for s in (0, 1):
        for side in ("right", "left"):
            mults.add(multiplication_matching(iv, s, side))
    assert len(mults) == 4
    assert M not in mults


def test_orbit_example():
    i24 = CoxeterSystem.I2(4)
    iv, M = case2_matching(i24)
    lam_t = multiplication_matching(iv, 1, "left")
    orb = orbit(iv, M, lam_t, i24.identity)
    assert [u.label_str() for u in orb] == ["e", "s1", "s2s1", "s2"]
    orb2 = orbit(iv, M, lam_t, el(i24, "s1 s2"))
    assert [u.label_str() for u in orb2] == ["s1s2", "s2s1s2"]
    # orbits of an involution pair partition the interval
    seen = set()
    for u in iv.elements:
        seen.update(orbit(iv, M, lam_t, u))
    assert len(seen) == len(iv.elements)


def test_orbit_sizes_have_dihedral_witness(b3):
    # any orbit size of <M, N> also occurs inside the lower dihedral
    # interval generated by M(e) and N(e)
    w = el(b3, "s2 s3 s2 s1")
    iv = build_lower_interval(b3, w)
    sms = enumerate_special_matchings(iv)
    for M in sms:
        for N in sms:
            s = image(iv, M, b3.identity)
            t = image(iv, N, b3.identity)
            if s is t:
                continue
            top0 = max_parabolic_below(b3, w, support(s) | support(t))
            dihedral_sizes = set()
            for u in build_lower_interval(b3, top0).elements:
                dihedral_sizes.add(len(orbit(iv, M, N, u)))
            for u in iv.elements:
                assert len(orbit(iv, M, N, u)) in dihedral_sizes


# ---------------------------------------------------------------------------
# commutation


def test_commutes_matches_dihedral_criterion():
    corpus = []
    b2 = CoxeterSystem.B(2)
    a3 = CoxeterSystem.A(3)
    corpus.append(build_lower_interval(b2, b2.element_from_word((0, 1, 0, 1))))
    corpus.append(build_lower_interval(a3, a3.element_from_word((0, 1, 2, 0))))
    corpus.append(build_lower_interval(a3, a3.element_from_word((1, 0, 2, 1))))
    for iv in corpus:
        sms = enumerate_special_matchings(iv)
        for M in sms:
            for N in sms:
                assert commutes(M, N) == commutes_on_lower_dihedral(
                    iv, M, N)


def test_find_commuting_multiplication_matching(b2):
    w = el(b2, "s1 s2 s1 s2")
    iv = build_lower_interval(b2, w)
    rho_s = multiplication_matching(iv, 0, "right")
    got = find_commuting_multiplication_matching(iv, rho_s, "left")
    assert got is not None
    N, differs = got
    assert commutes(rho_s, N)


# ---------------------------------------------------------------------------
# H-special matchings


def test_is_H_special_example(b2):
    w = el(b2, "s1 s2 s1 s2")
    iv = build_lower_interval(b2, w)
    marked = mark_interval(iv, genset([1]))
    lam_s = multiplication_matching(iv, 0, "left")
    rho_s = multiplication_matching(iv, 0, "right")
    # rho_s sends the minimal representative s2s1 down to s2
    assert is_H_special(marked, lam_s)
    assert not is_H_special(marked, rho_s)
    unmarked = mark_interval(iv, 0)
    for M in enumerate_special_matchings(iv):
        assert is_H_special(unmarked, M)


@pytest.mark.parametrize("sys_", [
    CoxeterSystem.B(3), CoxeterSystem.A(4), CoxeterSystem.I2(6),
], ids=["B3", "A4", "I2(6)"])
def test_is_H_special_matches_length_definition(sys_):
    # the definition, read from lengths and right descents rather than
    # from ids or marks: M sends no u in W^H with l(M(u)) < l(u) out of W^H
    outcomes = set()
    for w in sys_.group_elements():
        iv = build_lower_interval(sys_, w)
        els = iv.elements
        matchings = enumerate_special_matchings(iv)
        for H in range(1 << sys_.rank):
            if w.rdesc & H:
                continue
            marked = mark_interval(iv, H)
            for M in matchings:
                want = all(
                    not els[M[i]].rdesc & H
                    for i, u in enumerate(els)
                    if not u.rdesc & H and els[M[i]].length < u.length)
                assert is_H_special(marked, M) == want, (
                    sys_.name, w.label_str(), H, M)
                outcomes.add(want)
    assert outcomes == {True, False}


def test_is_H_special_rejects_wrong_length(b2):
    # a pairing is only ids, so its length is all that ties it to an
    # interval: one of the 6-element [e, s1s2s1] is refused on [e, s1s2]
    iv = build_lower_interval(b2, el(b2, "s1 s2"))
    other = build_lower_interval(b2, el(b2, "s1 s2 s1"))
    marked = mark_interval(iv, genset([0]))
    with pytest.raises(ValueError, match="wrong size"):
        is_H_special(marked, multiplication_matching(other, 0, "right"))


# ---------------------------------------------------------------------------
# restriction


def test_restrict_matching(b2):
    top = el(b2, "s1 s2 s1 s2")
    iv = build_lower_interval(b2, top)
    rho_s = multiplication_matching(iv, 0, "right")
    sub, R = restrict_matching(iv, rho_s, el(b2, "s2"), top)
    assert len(sub.elements) == 6
    assert image(sub, R, el(b2, "s2")) is el(b2, "s2 s1")
    assert image(sub, R, top) is el(b2, "s2 s1 s2")
    with pytest.raises(ValueError):
        # rho_s moves s2s1s2 up, not down
        restrict_matching(iv, rho_s, el(b2, "s2"), el(b2, "s2 s1 s2"))
    with pytest.raises(ValueError):
        # rho_s moves s1 down, not up
        restrict_matching(iv, rho_s, el(b2, "s1"), top)


# ---------------------------------------------------------------------------
# dihedral systems


def test_trivial_right_system_is_right_multiplication(a3):
    w = el(a3, "s2 s1 s3 s2")
    assert w.rdesc == genset([1])
    dom = build_lower_interval(
        a3, max_parabolic_below(a3, w, genset([1, 0])))
    M_st = multiplication_matching(dom, 1, "right")
    system = DihedralSystem("right", genset([1]), 1, 0, dom, M_st)
    iv = build_lower_interval(a3, w)
    ok, bad = verify_system(iv, system)
    assert ok, bad
    M = matching_from_system(iv, system)
    assert M == multiplication_matching(iv, 1, "right")


def test_trivial_left_system_is_left_multiplication(b3):
    w = el(b3, "s2 s3 s2 s1")
    assert w.ldesc == genset([1])
    dom = build_lower_interval(
        b3, max_parabolic_below(b3, w, genset([1, 2])))
    M_st = multiplication_matching(dom, 1, "left")
    system = DihedralSystem("left", genset([1]), 1, 2, dom, M_st)
    iv = build_lower_interval(b3, w)
    ok, bad = verify_system(iv, system)
    assert ok, bad
    M = matching_from_system(iv, system)
    assert M == multiplication_matching(iv, 1, "left")


def test_verify_system_rejects_bad_shape(b2):
    w = el(b2, "s1 s2 s1 s2")
    dom = build_lower_interval(b2, w)
    M_st = multiplication_matching(dom, 1, "right")  # sends e to t, not s
    system = DihedralSystem("right", genset([0]), 0, 1, dom, M_st)
    ok, bad = verify_system(dom, system)
    assert not ok and bad == ["R1"]


def test_systems_cover_all_special_matchings_small():
    a2 = CoxeterSystem.A(2)
    for w in a2.group_elements():
        if w.length == 0:
            continue
        iv = build_lower_interval(a2, w)
        want = set(enumerate_special_matchings(iv))
        got = {M for _, M in enumerate_verified_systems(a2, w)}
        assert got == want
    b2 = CoxeterSystem.B(2)
    w = b2.element_from_word((0, 1, 0))
    want = set(enumerate_special_matchings(build_lower_interval(b2, w)))
    got = {M for _, M in enumerate_verified_systems(b2, w)}
    assert got == want


def test_triangle_group_system_without_distinguishing_left_matching(
        triangle443):
    # rank-3 group with bond orders 4, 3, 3: over w = s2s1s2s3s1 the
    # non-multiplication dihedral matching extends to a verified right
    # system whose matching commutes only with the left multiplication
    # by s2, and agrees with it at the top
    W = triangle443
    w = W.element_from_word((1, 0, 1, 2, 0))
    assert w.length == 5
    top0 = max_parabolic_below(W, w, genset([0, 1]))
    assert top0 is W.element_from_word((0, 1, 0, 1))
    dom = build_lower_interval(W, top0)
    s, t = W.generator(0), W.generator(1)
    M_st = matching_from_element_pairs(dom, [
        (W.identity, s),
        (t, multiply(W, t, s)),
        (multiply(W, s, t), W.element_from_word((1, 0, 1))),
        (W.element_from_word((0, 1, 0)), top0),
    ])
    assert is_special(dom, M_st)
    system = DihedralSystem("right", genset([0, 2]), 0, 1, dom, M_st)
    iv = build_lower_interval(W, w)
    ok, bad = verify_system(iv, system)
    assert ok, bad
    M = matching_from_system(iv, system)

    assert w.ldesc == genset([1])  # the only left multiplication matching
    lam_t = multiplication_matching(iv, 1, "left")
    assert M != lam_t
    assert commutes(M, lam_t)
    assert image(iv, M, w) is image(iv, lam_t, w)
    got = find_commuting_multiplication_matching(iv, M, "left")
    assert got is not None and got[1] is False
    assert find_commuting_multiplication_matching(
        iv, M, "left", require_differs_on_top=True) is None


def test_system_matchings_are_special_everywhere(b2):
    for w in b2.group_elements():
        if w.length < 2:
            continue
        iv = build_lower_interval(b2, w)
        for system, M in enumerate_verified_systems(b2, w):
            assert is_special(iv, M)
            assert image(iv, M, iv.bottom) is b2.generator(system.s)


def test_verified_systems_build_each_interval_once(b3, monkeypatch):
    # [e, w] is built once per top, and the domain of M_st once per
    # {s, t}; the special matchings of B3 are those of verified systems
    builds = []
    build = matching_helpers.build_lower_interval

    def counting(sys_, w):
        builds.append(w)
        return build(sys_, w)

    monkeypatch.setattr(matching_helpers, "build_lower_interval", counting)
    tops = [w for w in b3.group_elements() if w.length]
    for w in tops:
        induced = {M for _, M in enumerate_verified_systems(b3, w)}
        assert set(enumerate_special_matchings(
            build_lower_interval(b3, w))) == induced
    assert len(tops) == 47
    assert len(builds) <= len(tops) * (1 + b3.rank * (b3.rank - 1))


# ---------------------------------------------------------------------------
# serialization


def test_matching_json_roundtrip(b2):
    iv = build_lower_interval(b2, el(b2, "s1 s2 s1 s2"))
    for M in enumerate_special_matchings(iv):
        data = matching_to_json(M)
        assert data["source"] == "enumerated"
        assert matching_from_json(iv, data) == M
    with pytest.raises(ValueError):
        matching_from_json(iv, {"pairs": [[0, len(iv.elements) - 1]]})


@pytest.mark.parametrize("pairs", [
    [[0, 1], [2, 9]],           # an id past the interval
    [[0, 1], [2, -1]],          # a negative id
    [[0, "1"]],                 # not an int
    [[0, 1.0]],
    [[True, 1]],                # a bool is not an id
    [[0, 1, 2]],                # not a pair
    [[0]],
    [0, 1],
], ids=["past-end", "negative", "str", "float", "bool", "triple", "single",
        "flat"])
def test_matching_from_json_rejects_malformed_pairs(b2, pairs):
    # counterexample records are read back from outside the program, so a
    # malformed one ends in ValueError, not an IndexError or a TypeError
    iv = build_lower_interval(b2, el(b2, "s1 s2"))
    assert len(iv) == 4
    with pytest.raises(ValueError, match="bad pair"):
        matching_from_json(iv, {"pairs": pairs})
