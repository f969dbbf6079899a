"""Interval construction, grading, dihedral detection and isomorphism."""

import itertools
import random

import pytest

from bruhatkl.coxeter import CoxeterSystem, genset, parse_genset
from bruhatkl.poset import (
    Interval,
    _isomorphism,
    _quotient_interval,
    _stable_colors,
    build_interval,
    build_lower_interval,
    find_isomorphism,
    find_marked_isomorphism,
    find_order_isomorphism,
    interval_to_json,
    mark_interval,
    marked_colors,
)

from matching_helpers import is_dihedral_interval, upper_covers
from oracles import (
    order_isomorphism_oracle,
    subword_reachable,
    union_refinement_isomorphism,
)


@pytest.mark.parametrize("sys", [
    CoxeterSystem.A(3), CoxeterSystem.B(3), CoxeterSystem.I2(6),
])
def test_interval_membership_matches_subword_oracle(sys):
    for w in sys.group_elements():
        iv = build_lower_interval(w)
        assert set(iv.elements) == subword_reachable(sys, w)
        # ids sorted by (length, word); extremes in place; covers listed in
        # increasing id order, which the constructors keep without a sort.
        # The enumerator, is_H_special and the matching recurrence read
        # "lower" off this order, so every way of building an interval must
        # keep it.
        top = len(iv) - 1
        built = [iv]
        for lo, u in enumerate(iv.elements):
            sub, ids = iv.subinterval(lo, top)
            assert list(ids) == sorted(ids)
            built += [sub, build_interval(u, w)]
        for b in built:
            assert list(b.elements) == sorted(b.elements)
            assert b.elements[0] is b.bottom
            assert b.elements[-1] is b.top
            for covers in b.hasse_down + upper_covers(b):
                assert list(covers) == sorted(set(covers))
        assert iv.elements[0] is sys.identity
        assert iv.elements[-1] is w


@pytest.mark.parametrize("name", ["A2", "B3"])
def test_interval_fills_the_coatoms_it_reads(name):
    # on a fresh system no coatom is filled yet, and Interval fills them
    sys = CoxeterSystem.from_name(name)
    els = sys.group_elements()
    assert all(w._coatoms is None for w in els[1:])
    assert (Interval(els).hasse_down
            == build_lower_interval(els[-1]).hasse_down)


def test_interval_sizes(a2, b2):
    assert len(build_lower_interval(b2.element_from_labels("s1s2s1s2"))) == 8
    assert len(build_lower_interval(a2.element_from_labels("s1s2s1"))) == 6
    assert len(build_lower_interval(a2.identity)) == 1


@pytest.mark.parametrize("sys", [
    CoxeterSystem.A(3), CoxeterSystem.B(3),
])
def test_hasse_edges_are_covers(sys):
    for w in sys.group_elements():
        iv = build_lower_interval(w)
        n = len(iv.elements)
        for b in range(n):
            for a in iv.hasse_down[b]:
                assert iv.rank_of[b] == iv.rank_of[a] + 1
                assert sys.bruhat_leq(iv.elements[a], iv.elements[b])
            # no skipped covers: every u < b at rank(b)-1 with u <= b is listed
            for a in range(n):
                if (iv.rank_of[a] == iv.rank_of[b] - 1
                        and sys.bruhat_leq(iv.elements[a], iv.elements[b])):
                    assert a in iv.hasse_down[b]


def test_graded(b3):
    for w in b3.group_elements():
        iv = build_lower_interval(w)
        n = len(iv.elements)
        up = upper_covers(iv)
        for i in range(n):
            if i != n - 1:
                assert up[i], "non-top element missing an up cover"
            if i != 0:
                assert iv.hasse_down[i], "non-bottom element missing a cover"


def _lower_intervals(sys):
    """[e, w] for every w of the group."""
    return [build_lower_interval(w) for w in sys.group_elements()]


def _subintervals(sys):
    """[u, v] for every u <= v of the group, each cut out of [e, w0] by
    `subinterval`."""
    top = build_lower_interval(sys.group_elements()[-1])
    n = len(top)
    return [top.subinterval(lo, hi)[0]
            for lo in range(n) for hi in range(n) if top.leq(lo, hi)]


def test_leq_bitmasks():
    # the up-sets, closed over the lower covers, are the Bruhat order on
    # every [e, w] of B3 and A4 and every [u, v] of A3
    for group, intervals in (("B3", _lower_intervals),
                             ("A4", _lower_intervals),
                             ("A3", _subintervals)):
        sys = CoxeterSystem.from_name(group)
        for iv in intervals(sys):
            assert set(iv.elements) == {
                z for z in sys.group_elements()
                if sys.bruhat_leq(iv.bottom, z) and sys.bruhat_leq(z, iv.top)}
            for i, u in enumerate(iv.elements):
                for j, v in enumerate(iv.elements):
                    assert iv.leq(i, j) == sys.bruhat_leq(u, v), (group, iv)


def test_subinterval_refuses_a_pair_that_is_not_ordered(f4):
    iv = build_lower_interval(f4.element_from_labels("s1s2"))
    with pytest.raises(ValueError, match="<s1> is not below <s2>"):
        iv.subinterval(1, 2)
    with pytest.raises(ValueError, match="<s1s2> is not below <s1>"):
        iv.subinterval(3, 1)


def test_id_of_refuses_an_element_outside_the_interval(b2):
    iv = build_lower_interval(b2.element_from_labels("s1s2"))
    with pytest.raises(ValueError, match="<s2s1> is not in"):
        iv.id_of(b2.element_from_labels("s2s1"))


def test_atoms_coatoms(a2):
    sts = a2.element_from_labels("s1s2s1")
    iv = build_lower_interval(sts)
    coatoms = tuple(iv.elements[j] for j in iv.hasse_down[iv.id_of(sts)])
    atoms = tuple(iv.elements[j]
                  for j in upper_covers(iv)[iv.id_of(a2.identity)])
    assert coatoms == (
        a2.element_from_labels("s1s2"), a2.element_from_labels("s2s1"))
    assert atoms == (a2.generator(0), a2.generator(1))


def test_marking(f4):
    H = genset([0, 1, 2])
    v = f4.element_from_labels("s3s4s2s3s1s2s3s4")
    mi = mark_interval(build_lower_interval(v), H)
    u = f4.element_from_labels("s3s1s2s3s4")
    assert mi.marks[mi.interval.id_of(u)]
    assert mi.marks[0]  # identity is always a minimal representative
    for i, el in enumerate(mi.interval.elements):
        assert mi.marks[i] == f4.is_min_coset_rep(el, H)


@pytest.mark.parametrize("H", [-1, 1 << 4, 1 << 7])
def test_marking_refuses_H_outside_the_generators(f4, H):
    iv = build_lower_interval(f4.element_from_labels("s1s2"))
    with pytest.raises(ValueError, match="not a subset of the generators"):
        mark_interval(iv, H)


def test_subinterval(b3):
    w = b3.element_from_labels("s1s2s3s2s1")
    iv = build_lower_interval(w)
    lo = iv.id_of(b3.generator(0))
    sub, ids = iv.subinterval(lo, len(iv.elements) - 1)
    assert sub.bottom is b3.generator(0)
    assert sub.top is w
    members = {z for z in iv.elements
               if b3.bruhat_leq(b3.generator(0), z)}
    assert set(sub.elements) == members
    assert sub.rank_of[0] == 0


def test_general_interval(b2):
    s = b2.generator(0)
    top = b2.element_from_labels("s1s2s1")
    iv = build_interval(s, top)
    assert len(iv.elements) == 4
    with pytest.raises(ValueError):
        build_interval(b2.element_from_labels("s2"),
                       b2.element_from_labels("s1"))


def test_dihedral_detection(a3, b2):
    assert is_dihedral_interval(
        build_lower_interval(b2.element_from_labels("s1")))
    assert is_dihedral_interval(
        build_lower_interval(b2.element_from_labels("s1s2s1s2")))
    assert is_dihedral_interval(
        build_lower_interval(a3.element_from_labels("s1s3")))
    assert not is_dihedral_interval(
        build_lower_interval(a3.element_from_labels("s1s2s3")))
    assert is_dihedral_interval(build_lower_interval(a3.identity))


def test_dihedral_matches_rank2_shape(b3):
    # every [e,w] flagged dihedral must be isomorphic to a rank-2 interval
    for w in b3.group_elements():
        iv = build_lower_interval(w)
        if not is_dihedral_interval(iv):
            continue
        k = w.length
        if k == 0:
            continue
        m = max(k, 2)
        ref_sys = CoxeterSystem.I2(m)
        ref_top = ref_sys.element_from_word(
            tuple(i % 2 for i in range(k)))
        ref = build_lower_interval(ref_top)
        assert find_isomorphism(iv, ref) is not None


def test_isomorphism_basic(b2, a2):
    iv1 = build_lower_interval(b2.element_from_labels("s1s2s1"))
    iv2 = build_lower_interval(b2.element_from_labels("s2s1s2"))
    # identity on an interval paired with itself
    assert find_isomorphism(iv1, iv1) == tuple(range(len(iv1.elements)))
    phi = find_isomorphism(iv1, iv2)
    assert phi is not None
    # covers transported correctly
    for b in range(len(iv1.elements)):
        for a in iv1.hasse_down[b]:
            assert phi[a] in iv2.hasse_down[phi[b]]
    sts = build_lower_interval(a2.element_from_labels("s1s2s1"))
    # [e, sts] in A2 and [e, s1s2s1] in B2 share the 1-2-2-1 bipartite shape
    assert find_isomorphism(sts, iv1) is not None
    full_b2 = build_lower_interval(b2.element_from_labels("s1s2s1s2"))
    assert find_isomorphism(sts, full_b2) is None  # 6 vs 8 elements


def test_isomorphism_respects_marks(b2):
    iv = build_lower_interval(b2.element_from_labels("s1s2s1s2"))
    plain = mark_interval(iv, 0)
    h1 = mark_interval(iv, genset([0]))
    h2 = mark_interval(iv, genset([1]))
    assert find_marked_isomorphism(plain, plain) is not None
    assert find_marked_isomorphism(h1, plain) is None
    phi = find_marked_isomorphism(h1, h2)
    # swapping the two generators of I2(4) is a marked isomorphism
    assert phi is not None
    for i, m in enumerate(h1.marks):
        assert h2.marks[phi[i]] == m


def test_isomorphism_nontrivial_negative(a3, b3):
    # same size (8 elements), different structure: the rank-3 cube versus
    # the rank-4 dihedral interval
    iv_a = build_lower_interval(a3.element_from_labels("s1s2s3"))
    iv_b = build_lower_interval(b3.element_from_labels("s2s3s2s3"))
    assert len(iv_a.elements) == len(iv_b.elements)
    assert find_isomorphism(iv_a, iv_b) is None


# ---------------------------------------------------------------------------
# quotient intervals [u, v]^H


def _quotient(sys, H, u, v):
    """The interval [u, v], given by labels, marked by H."""
    return mark_interval(build_interval(sys.element_from_labels(u),
                                        sys.element_from_labels(v)), H)


def _marked_quotients(sys):
    """[u, v] marked by H for every H and every u <= v in W^H, each cut
    out of [e, v] by `subinterval`."""
    for v in sys.group_elements():
        lower = build_lower_interval(v)
        top = len(lower) - 1
        for H in range(1 << sys.rank):
            if v.rdesc & H:
                continue
            for lo, u in enumerate(lower.elements):
                if not u.rdesc & H:
                    yield mark_interval(lower.subinterval(lo, top)[0], H)


@pytest.mark.parametrize("name, count", [
    ("A3", 448), ("B3", 1708), ("A4", 9862),
    pytest.param("D4", 25166, marks=pytest.mark.f4sweep),
])
def test_quotient_interval_order_is_bruhat_order(name, count):
    # W^H is graded by length, so the coatoms among the members of
    # [u, v]^H are its covers, and the up-sets closed over them are the
    # Bruhat order restricted to W^H and [u, v]
    sys = CoxeterSystem.from_name(name)
    seen = 0
    for m in _marked_quotients(sys):
        q = _quotient_interval(m)
        assert q.elements == tuple(
            el for el, mk in zip(m.interval.elements, m.marks) if mk)
        for i, a in enumerate(q.elements):
            assert q.above[i] == sum(1 << j for j, b in enumerate(q.elements)
                                     if sys.bruhat_leq(a, b)), (m.H, q)
        seen += 1
    assert seen == count


def test_order_isomorphism(a2, b2):
    # quotient intervals shaped as a chain of 3 in A2 and in B2, a chain
    # of 4 and a diamond
    chain_a2 = _quotient(a2, genset([0]), "e", "s1s2")
    chain_b2 = _quotient(b2, genset([1]), "e", "s2s1")
    chain4 = _quotient(b2, genset([1]), "e", "s1s2s1")
    diamond = _quotient(a2, 0, "e", "s1s2")
    for m in (chain_a2, chain_b2):
        assert _quotient_interval(m).hasse_down == ((), (0,), (1,))
    assert _quotient_interval(chain4).hasse_down == ((), (0,), (1,), (2,))
    assert _quotient_interval(diamond).hasse_down == ((), (0,), (0,), (1, 2))
    assert find_order_isomorphism(chain_a2, chain_b2) == (0, 1, 2)
    assert find_order_isomorphism(chain_a2, diamond) is None
    assert find_order_isomorphism(chain4, diamond) is None
    assert find_order_isomorphism(diamond, diamond) == (0, 1, 2, 3)


def test_order_isomorphism_refuses_an_unmarked_end(b2):
    H = genset([1])
    good = _quotient(b2, H, "e", "s2s1")
    for bad, end in ((_quotient(b2, H, "s2", "s1s2s1"), "s2"),
                     (_quotient(b2, H, "e", "s1s2"), "s1s2")):
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match=r"<%s> is not in W\^H" % end):
                find_order_isomorphism(*pair)


@pytest.mark.parametrize("sys", [CoxeterSystem.A(3), CoxeterSystem.B(3)])
def test_order_isomorphism_matches_oracle_on_quotient_subposets(sys):
    # every distinct [u, v]^H with itself and against the next distinct
    # one of its size: the oracle agrees on whether an isomorphism exists,
    # and the union-refinement engine returns the very same map
    distinct = {}
    for m in _marked_quotients(sys):
        distinct.setdefault(_quotient_interval(m).above, m)
    rels = sorted(distinct, key=lambda rel: (len(rel), rel))
    outcomes = set()
    for k, rel in enumerate(rels):
        a = distinct[rel]
        assert find_order_isomorphism(a, a) == tuple(range(len(rel)))
        if k + 1 == len(rels) or len(rels[k + 1]) != len(rel):
            continue
        b = distinct[rels[k + 1]]
        got = find_order_isomorphism(a, b)
        want = order_isomorphism_oracle(rel, rels[k + 1])
        assert (got is None) == (want is None), (a, b)
        qa, qb = _quotient_interval(a), _quotient_interval(b)
        assert got == union_refinement_isomorphism(
            qa.rank_of, qa.hasse_down, qb.rank_of, qb.hasse_down)
        if got is not None:
            for i in range(len(rel)):
                for j in range(len(rel)):
                    assert qa.leq(i, j) == qb.leq(got[i], got[j])
        outcomes.add(got is not None)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the isomorphism engine on posets that are not graded


def _relabel(rel, perm):
    """The order relation carried over to new ids: i becomes perm[i]."""
    out = [0] * len(rel)
    for i, r in enumerate(rel):
        for j in range(len(rel)):
            if r >> j & 1:
                out[perm[i]] |= 1 << perm[j]
    return out


def _shuffled(rng, rel):
    perm = list(range(len(rel)))
    rng.shuffle(perm)
    return _relabel(rel, perm)


def _random_poset(rng, n):
    """A random order relation on n ids: random relations along a shuffled
    linear extension, closed transitively from the top down."""
    ext = list(range(n))
    rng.shuffle(ext)
    rel = [1 << i for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                rel[ext[a]] |= 1 << ext[b]
    for i in reversed(ext):
        for j in range(n):
            if rel[i] >> j & 1:
                rel[i] |= rel[j]
    return rel


def _is_graded(rel):
    """Every cover a < b raises the longest chain below by exactly one."""
    n = len(rel)
    less = [[a for a in range(n) if a != b and rel[a] >> b & 1]
            for b in range(n)]
    height = {}

    def h(b):
        if b not in height:
            height[b] = max((h(a) + 1 for a in less[b]), default=0)
        return height[b]

    return all(h(b) == h(a) + 1
               for b in range(n) for a in less[b]
               if not any(a in less[c] for c in less[b]))


def _cover_form(rel):
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


def _order_isomorphism(rel_a, rel_b, engine):
    """An isomorphism between two posets given as order relations, as a
    tuple mapping a-ids to b-ids, or None, from `engine(heights_a,
    covers_a, heights_b, covers_b)` on their `_cover_form`."""
    if len(rel_a) != len(rel_b):
        return None
    order_a, heights_a, covers_a = _cover_form(rel_a)
    order_b, heights_b, covers_b = _cover_form(rel_b)
    found = engine(heights_a, covers_a, heights_b, covers_b)
    if found is None:
        return None
    mapping = [0] * len(rel_a)
    for k, y in enumerate(found):
        mapping[order_a[k]] = order_b[y]
    return tuple(mapping)


def _stable_color_isomorphism(heights_a, covers_a, heights_b, covers_b):
    """`_isomorphism` on the `_stable_colors` of both posets."""
    palette: dict = {}
    return _isomorphism(_stable_colors(heights_a, covers_a, palette),
                        covers_a,
                        _stable_colors(heights_b, covers_b, palette),
                        covers_b)


def _agrees_with_oracle(rel_a, rel_b) -> bool:
    """The engine and the oracle agree on whether an isomorphism exists,
    a returned map preserves the order both ways, and the union-refinement
    engine returns the very same map.  Returns whether one was found."""
    got = _order_isomorphism(rel_a, rel_b, _stable_color_isomorphism)
    want = order_isomorphism_oracle(rel_a, rel_b)
    assert (got is None) == (want is None), (rel_a, rel_b)
    assert got == _order_isomorphism(rel_a, rel_b,
                                     union_refinement_isomorphism)
    if got is None:
        return False
    n = len(rel_a)
    assert sorted(got) == list(range(n))
    for i in range(n):
        for j in range(n):
            assert (rel_a[i] >> j & 1) == (rel_b[got[i]] >> got[j] & 1)
    return True


def test_order_isomorphism_matches_oracle_on_random_posets():
    rng = random.Random(1502)
    ungraded = 0
    outcomes = set()
    for _ in range(1000):
        n = rng.randint(0, 7)
        rel = _random_poset(rng, n)
        ungraded += not _is_graded(rel)
        assert _agrees_with_oracle(rel, _shuffled(rng, rel))
        outcomes.add(_agrees_with_oracle(rel, _random_poset(rng, n)))
    assert ungraded > 0
    assert outcomes == {True, False}


def _union_marked_isomorphism(a, b):
    """find_marked_isomorphism on the union-refinement engine."""
    ia, ib = a.interval, b.interval
    return union_refinement_isomorphism(
        tuple(zip(ia.rank_of, a.marks)), ia.hasse_down,
        tuple(zip(ib.rank_of, b.marks)), ib.hasse_down)


def test_marked_isomorphism_matches_union_refinement_on_small_groups():
    # every ordered same-size pair of marked lower intervals [e, w]^H,
    # w in W^H, of A3, B2 and B3
    pairs = isomorphic = 0
    for sys in (CoxeterSystem.A(3), CoxeterSystem.B(2), CoxeterSystem.B(3)):
        marked = [mark_interval(build_lower_interval(w), H)
                  for w in sys.group_elements()
                  for H in range(1 << sys.rank) if not w.rdesc & H]
        for a, b in itertools.product(marked, repeat=2):
            if len(a.marks) != len(b.marks):
                continue
            got = find_marked_isomorphism(a, b)
            assert got == _union_marked_isomorphism(a, b), (a, b)
            pairs += 1
            isomorphic += got is not None
    assert (pairs, isomorphic) == (2595, 1165)


# the entries of an F4 invariance scan shaped like the benchmark's: w of
# length 12, w^-1, phi(w) under the diagram automorphism s1<->s4,
# s2<->s3, then H:w and phi(H):phi(w)
F4_SCAN_ENTRIES = (
    ("", "s2s3s2s1s3s2s4s3s2s1s3s4"),
    ("", "s1s2s3s4s3s2s1s3s2s4s3s2"),
    ("", "s2s3s2s1s3s2s4s3s2s1s3s4"),
    ("s2", "s2s3s2s1s3s2s4s3s2s1s3s4"),
    ("s3", "s2s3s2s1s3s2s4s3s2s1s3s4"),
)


def test_marked_isomorphism_matches_union_refinement_on_f4_scan(f4):
    marked = [mark_interval(build_lower_interval(f4.element_from_labels(w)),
                            parse_genset(f4, H))
              for H, w in F4_SCAN_ENTRIES]
    palette: dict = {}
    colors = [marked_colors(m, palette) for m in marked]
    found = 0
    for i, j in itertools.product(range(len(marked)), repeat=2):
        want = _union_marked_isomorphism(marked[i], marked[j])
        assert find_marked_isomorphism(marked[i], marked[j]) == want
        assert find_marked_isomorphism(marked[i], marked[j],
                                       (colors[i], colors[j])) == want
        found += want is not None
    # the three unmarked entries pairwise, and the two marked ones
    assert found == 13


def test_isomorphism_of_f4_top_interval(f4):
    # 1152 elements: deeper than the default recursion limit
    w0 = f4.element_from_labels(
        "s1s2s1s3s2s1s3s2s3s4s3s2s1s3s2s3s4s3s2s1s3s2s3s4")
    iv = build_lower_interval(w0)
    assert len(iv) == 1152
    assert find_isomorphism(iv, iv) == tuple(range(1152))


def test_interval_json(b2):
    iv = build_lower_interval(b2.element_from_labels("s1s2"))
    assert iv.system is b2  # read from the members
    data = interval_to_json(iv, genset([1]))
    assert data["top"] == "s1s2"
    assert data["H"] == ["s2"]
    assert [e["word"] for e in data["elements"]] == ["e", "s1", "s2", "s1s2"]
    assert data["hasse"] == [[0, 1], [0, 2], [1, 3], [2, 3]]
    assert [e["marked"] for e in data["elements"]] == [
        True, True, False, False]
