"""Special matchings: enumeration against brute force, multiplication
matchings, orbits, restriction, dihedral systems and their associated
matchings."""

import random
import sys
from fractions import Fraction

import pytest

from bruhatkl.coxeter import CoxeterSystem, genset
from bruhatkl.poset import build_lower_interval, mark_interval
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


def settled_domains(iv):
    """(domains, free mask) after every propagation step of the
    enumerator on iv that ends without a contradiction, read from the
    frames of its inner `settle` as they return."""
    snapshots = []

    def hook(frame, event, arg):
        if (event == "return" and frame.f_code.co_name == "settle"
                and isinstance(arg, int) and arg != -1):
            snapshots.append((list(frame.f_locals["dom"]), arg))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        enumerate_special_matchings(iv)
    finally:
        sys.setprofile(previous)
    return snapshots


@pytest.mark.parametrize("sys_, max_length", [
    (CoxeterSystem.B(3), None), (CoxeterSystem.A(4), None),
    (CoxeterSystem.I2(8), None), (CoxeterSystem.F4(), 5),
], ids=["B3", "A4", "I2(8)", "F4"])
def test_settle_reaches_special_condition_fixed_point(sys_, max_length):
    # after each propagation step every free domain holds at least two
    # candidates, all Hasse neighbours, those below it free, and each one
    # keeping the special condition with every matched lower cover.  The
    # search narrows upper covers only, so a taken candidate above is
    # refused only when it is tried, and the condition with a matched upper
    # cover is checked only when the free element is matched.  With either
    # narrowing rule deleted the output oracles still pass (the search just
    # grows), so this test is what sees a rule go missing
    tops = (sys_.group_elements() if max_length is None
            else sys_.elements_up_to_length(max_length))
    steps = 0
    for w in tops[1:]:
        iv = build_lower_interval(sys_, w)
        for dom, free in settled_domains(iv):
            steps += 1
            partner = {x: d.bit_length() - 1 for x, d in enumerate(dom)
                       if not (free >> x) & 1}
            assert all(partner[y] == x for x, y in partner.items())
            for z in range(len(dom)):
                if z in partner:
                    continue
                cands = [c for c in range(len(dom)) if (dom[z] >> c) & 1]
                assert len(cands) >= 2
                for c in cands:
                    assert c in iv.hasse_up[z] or c in iv.hasse_down[z]
                    if c in iv.hasse_down[z]:
                        assert c not in partner
                    for a in iv.hasse_down[z]:
                        if a in partner:
                            assert iv.leq(partner[a], c), (w, z, c, a)
    assert steps


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
