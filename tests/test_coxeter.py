"""Group arithmetic tests, checked against exhaustive rewriting and
subword-enumeration oracles."""

import itertools
import random
from sys import getrecursionlimit, setrecursionlimit

import pytest

from bruhatkl.coxeter import (
    CoxeterSystem,
    QuotientMembershipError,
    genset,
    genset_indices,
)
from bruhatkl.poset import build_lower_interval

from matching_helpers import (
    coset_decompose_left,
    coset_decompose_right,
    inverse,
    longest_element_of_parabolic,
    max_parabolic_below,
    multiply,
    parabolic_group,
)
from test_matchings import random_coxeter_matrix
from oracles import (
    MatrixPairSystem,
    bruhat_pairs_oracle,
    coset_decompose_left_oracle,
    coset_decompose_right_oracle,
    deletion_coatoms,
    subword_reachable,
    tits_canonical,
)


def all_words(rank, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(range(rank), repeat=n)


# -- canonical words ----------------------------------------------------------


@pytest.mark.parametrize("factory,max_len", [
    (CoxeterSystem.A(2), 5),
    (CoxeterSystem.I2(4), 6),
    (CoxeterSystem.I2(2), 4),
    (CoxeterSystem.I2(5), 6),
    (CoxeterSystem.A(3), 4),
    (CoxeterSystem.B(3), 4),
])
def test_canonical_word_matches_rewriting_oracle(factory, max_len):
    sys = factory
    for word in all_words(sys.rank, max_len):
        expect = tits_canonical(sys.matrix, word)
        got = sys.element_from_word(word)
        assert got.word == expect
        assert got.length == len(expect)


def test_canonical_word_triangle_infinite(triangle443):
    # infinite rank-3 systems: one with a 4-bond and a cycle of 3-bonds,
    # and affine A2; bounded-length arithmetic must still be exact
    affine_a2 = CoxeterSystem([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    for system in (triangle443, affine_a2):
        for word in all_words(3, 5):
            expect = tits_canonical(system.matrix, word)
            got = system.element_from_word(word)
            assert got.word == expect


def test_long_word_interns_only_its_prefixes():
    # naming a new element walks down its smallest left descents without
    # interning the elements walked past
    rng = random.Random(444)
    walk = CoxeterSystem([[1, 4, 4], [4, 1, 4], [4, 4, 1]])
    w, word = walk.identity, []
    for _ in range(200):
        s = rng.choice([s for s in range(3) if not (w.rdesc >> s) & 1])
        w = walk.multiply_by_generator(w, s)
        word.append(s)
    fresh = CoxeterSystem(walk.matrix)
    top = fresh.element_from_word(word)
    assert top.length == 200
    # the identity is below everything, so comparing it builds no down-set
    assert fresh.bruhat_leq(fresh.identity, top)
    assert len(fresh._intern_table) == 201


def test_interning_w0_state_at_default_recursion_limit():
    w0 = CoxeterSystem.F4().group_elements()[-1]
    fresh = CoxeterSystem.F4()
    limit = getrecursionlimit()
    setrecursionlimit(1000)
    try:
        got = fresh._intern(w0._state)
    finally:
        setrecursionlimit(limit)
    assert got.word == w0.word
    assert len(fresh._intern_table) == 2


def test_generator_products_match_dense_matrix_products():
    # a root-backend state is (cols, lam): cols the columns of the matrix
    # of w on the root lattice, lam the image of (1, ..., 1) under the
    # contragredient matrices, whose reflection for s is
    # delta_ij - delta_js cartan[i][s]; the products by a generator on
    # either side are updated in O(n) and O(n^2) and must equal the dense
    # products along the word, reduced or not
    def dense(a, b):
        return tuple(tuple(sum(x * y for x, y in zip(row, col))
                           for col in zip(*b)) for row in a)

    rng = random.Random(1998)
    for _ in range(10):
        sys = CoxeterSystem(random_coxeter_matrix(rng, rng.choice((3, 4))))
        n, cartan = sys.rank, sys._cartan
        ident = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
        gens = [tuple(tuple((r == c) - (r == s) * cartan[s][c]
                            for c in range(n)) for r in range(n))
                for s in range(n)]
        duals = [tuple(tuple((i == j) - (j == s) * cartan[i][s]
                             for j in range(n)) for i in range(n))
                 for s in range(n)]

        def state_of(word):
            mat, lam = ident, ((1,),) * n
            for s in word:
                mat = dense(mat, gens[s])
            for s in reversed(word):
                lam = dense(duals[s], lam)
            return tuple(zip(*mat)), tuple(row[0] for row in lam)

        assert sys.identity._state == state_of(())
        w = sys.identity
        for _ in range(12):
            assert w._state == state_of(w.word)
            for s in range(n):
                for side, word in (("right", w.word + (s,)),
                                   ("left", (s,) + w.word)):
                    el = sys.multiply_by_generator(w, s, side)
                    assert el._state == state_of(word) == state_of(el.word)
            w = sys.multiply_by_generator(w, rng.randrange(n))


def _same_interning(system, oracle):
    assert len(system._by_id) == len(oracle._by_id)
    for el, ref in zip(system._by_id, oracle._by_id):
        assert (el.id, el.word, el.ldesc, el.rdesc) == \
            (ref.id, ref.word, ref.ldesc, ref.rdesc)


def _levels(system, max_length):
    """Interns every element up to max_length, by right ascents taken
    level by level in id order, and returns the last level; the same
    calls on two systems intern the same elements in the same order if
    the two agree."""
    level = [system.identity]
    for _ in range(max_length):
        nxt = {}
        for w in level:
            for s in range(system.rank):
                if not (w.rdesc >> s) & 1:
                    v = system.multiply_by_generator(w, s)
                    nxt.setdefault(v.id, v)
        level = [nxt[i] for i in sorted(nxt)]
    return level


@pytest.mark.parametrize("name", ["A4", "B4", "D4", "F4"])
def test_interning_matches_matrix_pair_oracle_whole_group(name):
    system = CoxeterSystem.from_name(name)
    oracle = MatrixPairSystem(system.matrix)
    assert not _levels(system, 25) and not _levels(oracle, 25)
    _same_interning(system, oracle)
    assert len(system._by_id) == {"A4": 120, "B4": 384, "D4": 192,
                                  "F4": 1152}[name]


@pytest.mark.parametrize("matrix", [[[1, 4, 4], [4, 1, 4], [4, 4, 1]],
                                    [[1, 4, 3], [4, 1, 3], [3, 3, 1]]])
def test_interning_matches_matrix_pair_oracle_triangle_groups(matrix):
    system, oracle = CoxeterSystem(matrix), MatrixPairSystem(matrix)
    _levels(system, 10)
    _levels(oracle, 10)
    _same_interning(system, oracle)
    assert system.elements_up_to_length(10) == sorted(system._by_id)


@pytest.mark.parametrize("matrix", [CoxeterSystem.F4().matrix,
                                    [[1, 4, 4], [4, 1, 4], [4, 4, 1]],
                                    [[1, 4, 3], [4, 1, 3], [3, 3, 1]]])
def test_interning_matches_matrix_pair_oracle_on_a_walk(matrix):
    # a seeded walk of left and right products, which names elements out
    # of length order and so strips more than one descent at a time
    rng = random.Random(1152)
    system, oracle = CoxeterSystem(matrix), MatrixPairSystem(matrix)
    w, ref = system.identity, oracle.identity
    for _ in range(600):
        s, side = rng.randrange(system.rank), rng.choice(("right", "left"))
        w = system.multiply_by_generator(w, s, side)
        ref = oracle.multiply_by_generator(ref, s, side)
        assert (w.id, w.word) == (ref.id, ref.word)
    _same_interning(system, oracle)


@pytest.mark.parametrize("matrix", [CoxeterSystem.F4().matrix,
                                    [[1, 4, 4], [4, 1, 4], [4, 4, 1]]])
def test_generator_products_cache_their_inverse(matrix):
    # once el = w*s (or s*w) is known, el*s (or s*el) is w without a
    # product being computed or looked up in the intern table; ids and
    # words stay those of a system that never takes the inverse product
    rng = random.Random(2024)
    walk = CoxeterSystem(matrix)
    computed = []
    product = walk._product
    walk._product = lambda w, s, right: (computed.append((w, s, right))
                                         or product(w, s, right))
    steps = [(rng.randrange(walk.rank), rng.choice(("right", "left")))
             for _ in range(300)]
    w, path = walk.identity, []
    for s, side in steps:
        el = walk.multiply_by_generator(w, s, side)
        del computed[:]
        assert walk.multiply_by_generator(el, s, side) is w
        assert not computed
        w = el
        path.append(w)
    fresh = CoxeterSystem(matrix)
    w = fresh.identity
    for (s, side), el in zip(steps, path):
        w = fresh.multiply_by_generator(w, s, side)
        assert (w.word, w.id) == (el.word, el.id)


def test_canonical_idempotent(b3):
    for w in b3.group_elements():
        assert b3.element_from_word(w.word) is w


def test_same_element_different_words(b2):
    assert (b2.element_from_labels("s1s2s1s2")
            is b2.element_from_labels("s2s1s2s1"))
    assert b2.element_from_labels("s1s1") is b2.identity


def test_word_parsing(f4):
    w = f4.element_from_labels("s3 s1, s2s3s4")
    assert w is f4.element_from_word((2, 0, 1, 2, 3))
    assert f4.element_from_labels("e") is f4.identity
    with pytest.raises(ValueError):
        f4.element_from_labels("s9")


def test_label_sets_must_decode_uniquely():
    # from rank 11 on, s1 is a prefix of s11, but every word still splits
    # into the default labels one way only
    a12 = CoxeterSystem.A(12)
    names = ["s%d" % (i + 1) for i in range(12)]
    named = CoxeterSystem(a12.matrix, generator_names=names)
    assert named.generator_names == a12.generator_names
    w = a12.element_from_labels("s11s1s12")
    assert w.word == (0, 10, 11) and w.label_str() == "s1s11s12"
    assert a12.element_from_labels(w.label_str()) is w
    a3 = CoxeterSystem.A(3).matrix
    a4 = CoxeterSystem.A(4).matrix
    # not prefix-free, but uniquely decodable: words still read back
    abc = CoxeterSystem(a3, generator_names=["a", "ab", "bc"])
    for text in ("abc", "aab", "abbca", "ab,a bc"):
        w = abc.element_from_labels(text)
        assert abc.element_from_labels(w.label_str()) is w
    assert abc.element_from_labels("abc").word == (0, 2)
    assert abc.element_from_labels("aab").word == (0, 1)
    with pytest.raises(ValueError, match="cannot parse"):
        abc.element_from_labels("abx")
    for matrix, labels in ((a3, ["a", "b", "ab"]),
                           (a3, ["x", "y", "yxy"]),
                           (a4, ["ab", "c", "a", "bc"])):
        with pytest.raises(ValueError, match="ambiguous"):
            CoxeterSystem(matrix, generator_names=labels)


# -- lengths and descents ------------------------------------------------------


@pytest.mark.parametrize("sys", [
    CoxeterSystem.A(3), CoxeterSystem.B(3), CoxeterSystem.I2(7),
    CoxeterSystem.F4(),
])
def test_generator_product_changes_length_by_one(sys):
    for w in sys.group_elements():
        for s in range(sys.rank):
            ws = sys.multiply_by_generator(w, s)
            assert abs(ws.length - w.length) == 1
            assert (ws.length < w.length) == bool((w.rdesc >> s) & 1)
            sw = sys.multiply_by_generator(w, s, "left")
            assert abs(sw.length - w.length) == 1
            assert (sw.length < w.length) == bool((w.ldesc >> s) & 1)


def test_descents_of_longest_dihedral():
    b2 = CoxeterSystem.I2(4)
    top = b2.element_from_labels("s1s2s1s2")
    assert set(genset_indices(top.ldesc)) == {0, 1}
    assert set(genset_indices(top.rdesc)) == {0, 1}


def test_genset_indices_refuses_a_negative_mask():
    assert genset_indices(0b1011) == (0, 1, 3)
    for mask in (-1, -6):
        with pytest.raises(ValueError, match="negative mask"):
            genset_indices(mask)


def test_inverse_and_multiply(b3):
    els = b3.group_elements()
    for w in els[:20] + els[-5:]:
        winv = inverse(b3, w)
        assert multiply(b3, w, winv) is b3.identity
        assert winv.length == w.length


# -- Bruhat order ---------------------------------------------------------------


@pytest.mark.parametrize("sys", [
    CoxeterSystem.A(3), CoxeterSystem.B(3), CoxeterSystem.I2(8),
    CoxeterSystem.D(4),
])
def test_bruhat_leq_matches_subword_oracle(sys):
    # |W| <= 200 in all four groups
    table = bruhat_pairs_oracle(sys)
    els = sys.group_elements()
    for v in els:
        below = table[v]
        for u in els:
            assert sys.bruhat_leq(u, v) == (u in below)
        # the covers below the top of [e, v] are the lifting-property
        # coatoms, and the letter deletions that stay reduced
        iv = build_lower_interval(sys, v)
        coatoms = tuple(iv.elements[j] for j in iv.hasse_down[-1])
        assert coatoms == deletion_coatoms(sys, v)


def test_bruhat_leq_long_dihedral_at_default_recursion_limit():
    # the down-set of w0 in I2(1500) is filled down a chain of length 1500
    i2 = CoxeterSystem.I2(1500)
    w0 = i2.element_from_word([0, 1] * 750)
    limit = getrecursionlimit()
    setrecursionlimit(1000)
    try:
        assert i2.bruhat_leq(i2.element_from_word([1, 0]), w0)
    finally:
        setrecursionlimit(limit)


def test_bruhat_examples(b2):
    st = b2.element_from_labels("s1s2")
    tst = b2.element_from_labels("s2s1s2")
    assert b2.bruhat_leq(st, tst)
    assert not b2.bruhat_leq(tst, st)


def test_bruhat_cross_system_error(a2, b2):
    with pytest.raises(ValueError):
        a2.bruhat_leq(a2.identity, b2.identity)


# -- coset decompositions ----------------------------------------------------------


@pytest.mark.parametrize("sys,Js", [
    (CoxeterSystem.A(3), None),
    (CoxeterSystem.B(3), None),
    (CoxeterSystem.I2(6), None),
    (CoxeterSystem.I2(8), None),
])
def test_coset_decompositions_match_oracle(sys, Js):
    els = sys.group_elements()
    masks = range(1 << sys.rank) if Js is None else Js
    for J in masks:
        for u in els:
            a, b = coset_decompose_right(sys, u, J)
            oa, ob = coset_decompose_right_oracle(sys, u, J)
            assert (a, b) == (oa, ob)
            assert a.length + b.length == u.length
            assert (a.rdesc & J) == 0
            c, d = coset_decompose_left(sys, u, J)
            oc, od = coset_decompose_left_oracle(sys, u, J)
            assert (c, d) == (oc, od)
            assert c.length + d.length == u.length
            assert (d.ldesc & J) == 0


def test_coset_decomposition_frozen_examples(a2, b2):
    sts = a2.element_from_labels("s1s2s1")
    s, t = a2.generator(0), a2.generator(1)
    st = a2.element_from_labels("s1s2")
    # right split along J={s}: sts = (st) * s
    assert coset_decompose_right(a2, sts, genset([0])) == (st, s)
    # left split along J={t}: sts = t * (st)  (t is a left descent of sts)
    assert coset_decompose_left(a2, sts, genset([1])) == (t, st)
    tst = b2.element_from_labels("s2s1s2")
    assert coset_decompose_left(b2, tst, genset([0])) == (b2.identity, tst)


def test_min_coset_rep(f4):
    H = genset([0, 1, 2])
    u = f4.element_from_labels("s3s1s2s3s4")
    assert f4.is_min_coset_rep(u, H)
    bad = f4.element_from_labels("s3s1s2s3")
    assert not f4.is_min_coset_rep(bad, H)
    with pytest.raises(QuotientMembershipError) as ei:
        f4.check_min_coset_rep(bad, H)
    assert "s3" in str(ei.value)


def test_quotient_characterization(b3):
    # W^J is exactly the set of elements with no right descent in J
    for J in range(1 << 3):
        reps = {coset_decompose_right(b3, u, J)[0]
                for u in b3.group_elements()}
        chars = {u for u in b3.group_elements() if (u.rdesc & J) == 0}
        assert reps == chars


# -- parabolic maxima ------------------------------------------------------------


def test_max_parabolic_below_oracle(b3, f4):
    for w in b3.group_elements():
        for J in range(1 << 3):
            got = max_parabolic_below(b3, w, J)
            members = [z for z in parabolic_group(b3, J)
                       if b3.bruhat_leq(z, w)]
            assert got in members
            assert all(b3.bruhat_leq(z, got) for z in members)
    v = f4.element_from_labels("s3s4s2s3s1s2s3s4")
    got = max_parabolic_below(f4, v, genset([1, 2]))
    assert got is f4.element_from_labels("s2s3s2s3")


def test_longest_element_of_parabolic(b3, b2):
    w = longest_element_of_parabolic(b3, genset([0, 1]))
    assert w is b3.element_from_labels("s1s2s1")
    assert longest_element_of_parabolic(b2, genset([0, 1])) is \
        b2.element_from_labels("s1s2s1s2")
    assert longest_element_of_parabolic(b3, 0) is b3.identity


# -- constructors ------------------------------------------------------------------


def test_named_matrices():
    assert CoxeterSystem.A(3).matrix == ((1, 3, 2), (3, 1, 3), (2, 3, 1))
    assert CoxeterSystem.B(3).matrix == ((1, 3, 2), (3, 1, 4), (2, 4, 1))
    assert CoxeterSystem.F4().matrix == (
        (1, 3, 2, 2), (3, 1, 4, 2), (2, 4, 1, 3), (2, 2, 3, 1))
    assert CoxeterSystem.D(4).matrix == (
        (1, 3, 2, 2), (3, 1, 3, 3), (2, 3, 1, 2), (2, 3, 2, 1))
    assert CoxeterSystem.I2(7).matrix == ((1, 7), (7, 1))
    assert CoxeterSystem.from_name("B2").matrix == ((1, 4), (4, 1))
    assert CoxeterSystem.from_name("I2(5)").matrix == ((1, 5), (5, 1))


def test_named_groups_of_huge_rank_are_refused():
    # a name of a few bytes would otherwise ask for an n-by-n matrix
    for name in ("A257", "B30000", "D%d" % 10 ** 9):
        with pytest.raises(ValueError, match="rank at most 256"):
            CoxeterSystem.from_name(name)
    with pytest.raises(ValueError, match="rank at most 256"):
        CoxeterSystem.from_spec({"type": "named", "name": "A30000"})
    assert CoxeterSystem.from_name("D256").rank == 256


def test_group_sizes():
    assert len(CoxeterSystem.A(2).group_elements()) == 6
    assert len(CoxeterSystem.B(2).group_elements()) == 8
    assert len(CoxeterSystem.A(3).group_elements()) == 24
    assert len(CoxeterSystem.B(3).group_elements()) == 48
    assert len(CoxeterSystem.I2(9).group_elements()) == 18


def test_group_elements_raises_on_infinite_and_oversized_groups():
    tri = CoxeterSystem([[1, 4, 4], [4, 1, 4], [4, 4, 1]])
    with pytest.raises(ValueError):
        tri.group_elements(cap=5000)
    assert len(tri._levels) < 14  # level 14 alone has 4857 elements
    # a finite group past the cap stops at the first level that crosses it
    a5 = CoxeterSystem.A(5)
    with pytest.raises(ValueError):
        a5.group_elements(cap=100)
    assert sum(len(lvl) for lvl in a5._levels[:-1]) <= 100
    assert len(a5.group_elements()) == 720
    assert len(CoxeterSystem.F4().group_elements()) == 1152


def test_length_enumeration_is_capped():
    # one cap for group_elements and elements_up_to_length: the largest
    # finite named group of rank <= 6 and E6 fit whole; test_cli stops the
    # (4,4,4) triangle group at length 18 with it
    assert len(CoxeterSystem.B(6).elements_up_to_length(36)) == 46080
    e6 = CoxeterSystem([[1, 3, 2, 2, 2, 2], [3, 1, 3, 2, 2, 2],
                        [2, 3, 1, 3, 2, 3], [2, 2, 3, 1, 3, 2],
                        [2, 2, 2, 3, 1, 2], [2, 2, 3, 2, 2, 1]])
    assert len(e6.group_elements()) == 51840


def test_group_elements_finite_iff_ascending_walks_end():
    # a finite group's ascending walks all end at w0, of length <= 24 at
    # rank <= 4; an infinite group has no element without right ascents
    rng = random.Random(1152)
    matrices = [[[1, a, b], [a, 1, c], [b, c, 1]]
                for a, b, c in itertools.product((2, 3, 4), repeat=3)]
    for _ in range(40):
        bonds = [rng.choice((2, 3, 4)) for _ in range(6)]
        m = [[1] * 4 for _ in range(4)]
        for (i, j), bond in zip(itertools.combinations(range(4), 2), bonds):
            m[i][j] = m[j][i] = bond
        matrices.append(m)
    finite = 0
    for m in matrices:
        sys = CoxeterSystem(m)
        w = sys.identity
        for _ in range(25):
            ascents = [s for s in range(sys.rank) if not (w.rdesc >> s) & 1]
            if not ascents:
                break
            w = sys.multiply_by_generator(w, rng.choice(ascents))
        if ascents:
            with pytest.raises(ValueError):
                sys.group_elements()
        else:
            finite += 1
            assert sys.group_elements()[-1] is w
    assert 0 < finite < len(matrices)


def test_rejects_unsupported_matrices():
    with pytest.raises(ValueError):
        CoxeterSystem([[1, 5, 2], [5, 1, 3], [2, 3, 1]])  # m=5 at rank 3
    with pytest.raises(ValueError):
        CoxeterSystem([[1, None], [None, 1]])  # "infinite" bond
    with pytest.raises(ValueError):
        CoxeterSystem([[1, 3], [4, 1]])  # asymmetric
    with pytest.raises(ValueError):
        CoxeterSystem([[2, 3], [3, 1]])  # bad diagonal
    CoxeterSystem.I2(12)  # rank 2 may exceed 4


def test_from_spec_roundtrip():
    f4 = CoxeterSystem.from_spec({"type": "named", "name": "F4"})
    assert f4.name == "F4"
    sys = CoxeterSystem.from_spec(
        {"type": "matrix", "m": [[1, 4], [4, 1]], "labels": ["u", "v"]})
    assert sys.element_from_labels("uvu").length == 3
    assert sys.spec["m"] == [[1, 4], [4, 1]]


def test_enumeration_sorted(b3):
    els = b3.elements_up_to_length(4)
    assert els == sorted(els)
    assert all(w.length <= 4 for w in els)
    assert len({w for w in els}) == len(els)


def test_subword_reachability_matches_enumeration(a3):
    # cross-check the two enumeration mechanisms against each other
    top = a3.element_from_labels("s1s2s3s1s2s1")
    assert len(subword_reachable(a3, top)) == 24
