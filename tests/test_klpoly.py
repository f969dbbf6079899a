"""R- and P-polynomials: exact arithmetic, recursion against independent
oracles, closed forms, the matching-step recurrence, and cross-identities."""

import ast
import inspect
import random
from fractions import Fraction
from functools import partial
from pathlib import Path
from sys import getrecursionlimit, setrecursionlimit

import pytest

from bruhatkl.coxeter import CoxeterSystem, QuotientMembershipError, genset
from bruhatkl.invariance import sweep_calculating
from bruhatkl.poset import build_lower_interval, mark_interval
from bruhatkl.matchings import enumerate_special_matchings, is_H_special
from bruhatkl.klpoly import (
    QPolynomial,
    ZERO,
    ONE,
    Q,
    Q_MINUS_ONE,
    KLContext,
    get_context,
    verify_calculating,
    _K,
    _unpack,
)

import oracles
from matching_helpers import multiplication_matching, multiply, support
from test_matchings import random_coxeter_matrix


def el(sys, labels):
    return sys.element_from_labels(labels)


def ordinary_R(sys, u, w):
    return get_context(sys, 0, "-1").R(u, w)


def ordinary_P(sys, u, w):
    return get_context(sys, 0, "-1").P(u, w)


def all_H(sys):
    return range(1 << sys.rank)


def quotient(sys, H):
    return [u for u in sys.group_elements() if not (u.rdesc & H)]


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_qpolynomial_basics():
    p = QPolynomial((1, -1, 1))
    assert str(p) == "q^2 - q + 1"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Q) == "q"
    assert str(QPolynomial((0, 2))) == "2q"
    assert str(QPolynomial((-1,))) == "-1"
    assert str(QPolynomial((1, 0, 3))) == "3q^2 + 1"
    assert Q_MINUS_ONE * Q_MINUS_ONE == QPolynomial((1, -2, 1))
    assert (p - p) == ZERO and not (p - p)
    assert p.degree == 2 and ZERO.degree == -1
    assert p.coeff(1) == -1 and p.coeff(99) == 0
    assert QPolynomial((0, 0)) == ZERO
    assert p * 0 == ZERO and p * -1 == -p and 2 * ONE == QPolynomial((2,))
    assert p == QPolynomial((1, -1, 1)) and ONE == 1 and ZERO == 0
    with pytest.raises(TypeError):
        QPolynomial((1.5,))
    assert QPolynomial.from_json(p.to_json()) == p


def random_coeffs(rng):
    """A signed coefficient list of degree 0..24, zero entries included,
    with a nonzero leading term of either sign."""
    coeffs = [rng.choice((0, rng.randint(-10**6, 10**6)))
              for _ in range(rng.randint(0, 24))]
    return coeffs + [rng.choice((-1, 1)) * rng.randint(1, 10**6)]


def pack(coeffs):
    """p(2^K), the packed form of the coefficient list of p."""
    return sum(c << (_K * i) for i, c in enumerate(coeffs))


def as_dict(coeffs):
    return {i: c for i, c in enumerate(coeffs) if c}


def test_packed_arithmetic_against_oracle():
    rng = random.Random(1987)
    for _ in range(500):
        a, b = random_coeffs(rng), random_coeffs(rng)
        pa, pb = pack(a), pack(b)
        assert _unpack(pa) == a and _unpack(pb) == b
        assert as_dict(_unpack(pa + pb)) == oracles.poly_add(as_dict(a),
                                                             as_dict(b))
        assert as_dict(_unpack(pa - pb)) == oracles.poly_add(
            as_dict(a), {i: -c for i, c in as_dict(b).items()})
        assert as_dict(_unpack(pa * pb)) == oracles.poly_mul(as_dict(a),
                                                             as_dict(b))
    assert pack([]) == 0 and _unpack(0) == []


def test_packed_decoder_refuses_large_digits():
    # the guard is 2^62: digits just below it decode, digits at it raise
    # rather than decode as some other polynomial
    big = (1 << 62) - 1
    assert _unpack(pack([big, -big, 1])) == [big, -big, 1]
    for coeffs in ([1 << 62], [0, -(1 << 62)]):
        with pytest.raises(ArithmeticError):
            _unpack(pack(coeffs))
    # (2^31 q + 2^31)^2 has middle coefficient 2^63
    p = pack([1 << 31, 1 << 31])
    with pytest.raises(ArithmeticError):
        _unpack(p * p)


def test_oracles_keep_their_own_arithmetic():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update("%s.%s" % (node.module, alias.name)
                            for alias in node.names)
    assert imported and "bruhatkl.klpoly" not in imported


def test_xparam_substitution_identity(b2):
    for x in ("-1", "q"):
        xp = QPolynomial((-1,)) if x == "-1" else Q
        assert xp * xp == Q + Q_MINUS_ONE * xp
        # the factor (q-1-x) is q for x = -1 and -1 for x = q
        assert Q_MINUS_ONE - xp == (Q if x == "-1" else -1)
        assert KLContext(b2, 0, x).x == x
    with pytest.raises(ValueError):
        KLContext(b2, 0, "2")


@pytest.mark.parametrize("x", ["2", -1, "Q", " q"])
def test_bad_x_is_refused_everywhere(x):
    # x is the string "-1" or "q"; anything else, the int -1 included,
    # is refused before a table or a campaign name is made
    b2 = CoxeterSystem.B(2)
    marked = mark_interval(build_lower_interval(b2, el(b2, "s1s2")), 0)
    M = multiplication_matching(marked.interval, 1)
    with pytest.raises(ValueError, match="x must be"):
        KLContext(b2, 0, x)
    with pytest.raises(ValueError, match="x must be"):
        get_context(b2, 0, x)
    with pytest.raises(ValueError, match="x must be"):
        verify_calculating(marked, x, M)
    # [e, e] is the one unit, and it never builds a table
    with pytest.raises(ValueError, match="x must be"):
        sweep_calculating(b2, max_length=0, x=x)
    assert not b2._kl_contexts


# ---------------------------------------------------------------------------
# R-polynomials


def test_R_base_cases(a2):
    e = a2.identity
    s = a2.generator(0)
    assert ordinary_R(a2, e, e) == ONE
    assert ordinary_R(a2, s, e) == ZERO
    assert ordinary_R(a2, e, s) == Q_MINUS_ONE
    assert get_context(a2, genset([1]), "q").R(e, s) == Q_MINUS_ONE


def test_R_membership_errors(b2):
    H = genset([0])
    s, t = b2.generator(0), b2.generator(1)
    with pytest.raises(QuotientMembershipError):
        get_context(b2, H, "q").R(s, el(b2, "s2 s1"))
    with pytest.raises(QuotientMembershipError):
        get_context(b2, H, "q").R(t, s)
    a2 = CoxeterSystem.A(2)
    with pytest.raises(ValueError):
        get_context(b2, 0, "q").R(a2.identity, a2.generator(0))


def test_ordinary_R_dihedral_closed_form():
    # (q-1)^(lv-lu) holds exactly for length differences up to 2; from
    # difference 3 on, wide dihedral intervals pick up cross terms (e.g.
    # R(e, s1s2s1) below), so the power formula is asserted only there
    for m in (2, 3, 4, 5, 8):
        sysm = CoxeterSystem.I2(m)
        for v in sysm.group_elements():
            for u in sysm.group_elements():
                if sysm.bruhat_leq(u, v) and v.length - u.length <= 2:
                    want = ONE
                    for _ in range(v.length - u.length):
                        want = want * Q_MINUS_ONE
                    assert ordinary_R(sysm, u, v) == want
    a2 = CoxeterSystem.A(2)
    assert ordinary_R(a2, a2.identity, el(a2, "s1 s2 s1")) == \
        QPolynomial((-1, 2, -2, 1))  # (q-1)^3 + q(q-1), by hand and oracle


def corpus_for_oracle():
    out = []
    for sysm in (CoxeterSystem.A(2), CoxeterSystem.B(2),
                 CoxeterSystem.I2(5), CoxeterSystem.A(3),
                 CoxeterSystem.I2(2), CoxeterSystem.I2(4),
                 CoxeterSystem.I2(8)):
        out.append(sysm)
    return out


@pytest.mark.parametrize("idx", range(7))
@pytest.mark.parametrize("x", ["-1", "q"])
def test_parabolic_R_against_oracle(idx, x):
    sysm = corpus_for_oracle()[idx]
    for H in all_H(sysm):
        reps = quotient(sysm, H)
        memo = {}
        ctx = get_context(sysm, H, x)
        for w in reps:
            for u in reps:
                got = ctx.R(u, w)
                want = oracles.parabolic_R_oracle(sysm, H, x, u, w, memo)
                assert {i: c for i, c in enumerate(got.coeffs) if c} == want


def random_finite_groups_with_pools(rng, ranks):
    """One seeded group per entry of ``ranks``, with bonds in {2, 3, 4} and
    at most 400 elements, each with the union of two random [e, w] for
    l(w) <= 6."""
    out = []
    for rank in ranks:
        while True:
            sysm = CoxeterSystem(random_coxeter_matrix(rng, rank))
            try:
                els = sysm.group_elements(cap=400)
                break
            except ValueError:
                pass
        tops = []
        for _ in range(2):
            w = sysm.identity
            for _ in range(6):
                ascents = [s for s in range(sysm.rank)
                           if not (w.rdesc >> s) & 1]
                if not ascents:
                    break
                w = sysm.multiply_by_generator(w, rng.choice(ascents))
            tops.append(w)
        pool = [u for u in els if any(sysm.bruhat_leq(u, w) for w in tops)]
        out.append((sysm, pool))
    return out


@pytest.mark.parametrize("x", ["-1", "q"])
def test_parabolic_P_against_oracle(x):
    # the oracle scans the whole group, so the random groups are finite
    cases = [(sysm, sysm.group_elements()) for sysm in (
        CoxeterSystem.A(2), CoxeterSystem.B(2), CoxeterSystem.I2(6))]
    cases += random_finite_groups_with_pools(random.Random(2003),
                                             (3, 4, 3, 4))
    for sysm, pool in cases:
        for H in all_H(sysm):
            reps = [u for u in pool if not u.rdesc & H]
            rmemo, pmemo = {}, {}
            ctx = get_context(sysm, H, x)
            for w in reps:
                for u in reps:
                    got = ctx.P(u, w)
                    want = oracles.parabolic_P_oracle(
                        sysm, H, x, u, w, rmemo, pmemo)
                    assert {i: c for i, c in enumerate(got.coeffs)
                            if c} == want, (sysm.matrix, H, x, u, w)


def test_ordinary_dihedral_P_is_one():
    for m in (2, 3, 4, 5, 6):
        sysm = CoxeterSystem.I2(m)
        for v in sysm.group_elements():
            for u in sysm.group_elements():
                if sysm.bruhat_leq(u, v):
                    assert ordinary_P(sysm, u, v) == ONE


def test_chain_quotient_closed_form():
    # rank-2 groups, H a single generator: the quotient is a chain and
    # R equals (q-1)(q-1-x)^(lw-lu-1)
    for m in range(2, 11):
        sysm = CoxeterSystem.I2(m)
        for h in (0, 1):
            H = genset([h])
            reps = quotient(sysm, H)
            assert sorted(u.length for u in reps) == list(range(len(reps)))
            for x in ("-1", "q"):
                factor = Q if x == "-1" else QPolynomial((-1,))
                for w in reps:
                    for u in reps:
                        if u is w or not sysm.bruhat_leq(u, w):
                            continue
                        want = Q_MINUS_ONE
                        for _ in range(w.length - u.length - 1):
                            want = want * factor
                        assert get_context(sysm, H, x).R(u, w) == want


def test_descent_rule_independence():
    # the table recurses on the smallest left descent, the oracle on the
    # largest
    for sysm in (CoxeterSystem.B(2), CoxeterSystem.B(3)):
        for H in all_H(sysm):
            reps = quotient(sysm, H)
            for x in ("-1", "q"):
                ctx = get_context(sysm, H, x)
                memo = {}
                for w in reps:
                    for u in reps:
                        got = ctx.R(u, w)
                        want = oracles.parabolic_R_oracle(
                            sysm, H, x, u, w, memo)
                        assert {i: c for i, c in enumerate(got.coeffs)
                                if c} == want


def random_groups_with_tops(seed, count=12):
    """``count`` seeded draws of rank-3 and rank-4 groups with bonds in
    {2, 3, 4}, infinite ones included, each with three tops reached by
    random upward walks of length <= 6."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        sysm = CoxeterSystem(random_coxeter_matrix(rng, rng.choice((3, 4))))
        tops = []
        for _ in range(3):
            w = sysm.identity
            for _ in range(6):
                ascents = [s for s in range(sysm.rank)
                           if not (w.rdesc >> s) & 1]
                if not ascents:
                    break
                w = sysm.multiply_by_generator(w, rng.choice(ascents))
            tops.append(w)
        out.append((sysm, tops))
    return out


def is_infinite_rank3(sysm):
    # a rank-3 group is infinite iff the reciprocal bonds sum to <= 1
    return sysm.rank == 3 and sum(Fraction(1, sysm.matrix[i][j]) for i, j
                                  in ((0, 1), (0, 2), (1, 2))) <= 1


def test_bruhat_and_R_against_oracles_random_groups():
    # one shared context per (H, x) serves every interval of a group, and
    # pairs u, v not comparable read 0
    checked = infinite = 0
    for sysm, tops in random_groups_with_tops(20061202):
        below = {}
        for w in tops:
            for v in oracles.subword_reachable(sysm, w):
                below[v] = oracles.subword_reachable(sysm, v)
        pool = sorted(below)
        for v in pool:
            for u in pool:
                want = u in below[v]
                assert sysm.bruhat_leq(u, v) == want
                assert oracles.bruhat_leq_oracle(sysm, u, v) == want
            # the down-set holds exactly the ids of [e, v], and the
            # lifting coatoms are the letter deletions that stay reduced
            assert sysm.down_set(v) == sum(1 << z.id for z in below[v])
            iv = build_lower_interval(sysm, v)
            assert (tuple(iv.elements[j] for j in iv.hasse_down[-1])
                    == oracles.deletion_coatoms(sysm, v))
        if is_infinite_rank3(sysm):
            infinite += 1
        for H in all_H(sysm):
            reps = [v for v in pool if not v.rdesc & H]
            for x in ("-1", "q"):
                ctx = get_context(sysm, H, x)
                memo = {}
                for v in reps:
                    for u in reps:
                        got = ctx.R(u, v)
                        want = oracles.parabolic_R_oracle(
                            sysm, H, x, u, v, memo)
                        assert {i: c for i, c in enumerate(got.coeffs)
                                if c} == want, (sysm.matrix, H, x, u, v)
                        checked += 1
    assert checked > 100000 and infinite > 0


def table_cases(corpus):
    """(system, pool of tops) for one corpus, on fresh systems so that
    every table fills cold."""
    if corpus == "random":
        out = []
        for sysm, tops in random_groups_with_tops(20061202):
            pool = set()
            for w in tops:
                pool |= oracles.subword_reachable(sysm, w)
            out.append((sysm, sorted(pool)))
        return out
    if corpus == "F4":
        sysm = CoxeterSystem.F4()
        return [(sysm, sysm.elements_up_to_length(7))]
    sysm = CoxeterSystem.from_name(corpus)
    return [(sysm, sysm.group_elements())]


@pytest.mark.parametrize("corpus", ["A3", "B3", "A4", "I2(14)", "F4",
                                    "random"])
def test_rows_and_columns_against_oracles(corpus):
    # every R row and P column holds exactly [e, w]^H; R agrees with the
    # oracle recursion and P with the pull-form convolution that the
    # column fill replaced.  F4 stops at l(w) = 7, and the random groups
    # include infinite ones.
    infinite = 0
    for sysm, pool in table_cases(corpus):
        infinite += is_infinite_rank3(sysm)
        lower = {w: oracles.subword_reachable(sysm, w) for w in pool}
        for H in all_H(sysm):
            for x in ("-1", "q"):
                ctx = get_context(sysm, H, x)
                rmemo, pmemo = {}, {}
                for w in pool:
                    if w.rdesc & H:
                        continue
                    want = {u for u in lower[w] if not u.rdesc & H}
                    row, col = ctx._R_row(w), ctx._P_column(w)
                    assert set(row) == want and set(col) == want
                    for u in want:
                        assert as_dict(_unpack(row[u])) == \
                            oracles.parabolic_R_oracle(sysm, H, x, u, w,
                                                       rmemo)
                        assert as_dict(_unpack(col[u])) == \
                            oracles.convolution_P_oracle(
                                sysm, H, x, u, w, rmemo, pmemo), \
                            (sysm.matrix, H, x, u, w)
    assert (infinite > 0) == (corpus == "random")


def test_R_and_P_fill_without_recursion():
    # the row and column fills are loops, so a stack 60 frames deep
    # suffices for (e, w0) in I2(120), whose w0 has length 120; a fill
    # that went one frame deeper per letter of w0 ends in RecursionError
    i2 = CoxeterSystem.I2(120)
    w0 = i2.element_from_word([0, 1] * 60)
    e = i2.identity
    ctx = get_context(i2, 0, "-1")
    limit = getrecursionlimit()
    setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        r, p = ctx.R(e, w0), ctx.P(e, w0)
    finally:
        setrecursionlimit(limit)
    assert p == ONE
    assert {i: c for i, c in enumerate(r.coeffs) if c} == \
        oracles.parabolic_R_oracle(i2, 0, "-1", e, w0, {})


def test_P_reads_no_R_rows():
    # the mu-recursion fills the columns along the chain of w0 and those
    # of the z with mu != 0 only; the R-convolution needed the R row of
    # every one of the 1152 elements of [e, w0]
    f4 = CoxeterSystem.F4()
    w0 = f4.group_elements()[-1]
    ctx = get_context(f4, 0, "-1")
    assert ctx.P(f4.identity, w0) == ONE
    assert not ctx._R
    assert len(ctx._P) < 1152


def test_P_column_guard_refuses_a_corrupt_column():
    # a stored P(e, s2) = 5q^2 breaks the degree bound of P(e, s1s2),
    # which is read from it
    f4 = CoxeterSystem.F4()
    ctx = get_context(f4, 0, "-1")
    s2 = el(f4, "s2")
    assert ctx.P(f4.identity, s2) == ONE
    ctx._P[s2][f4.identity] = pack([0, 0, 5])
    with pytest.raises(ArithmeticError):
        ctx.P(f4.identity, el(f4, "s1s2"))


def test_P_guard_refuses_a_value_each_time_it_is_met():
    # a refused value is not memoised: P(e, s3) = 2^62, planted in the
    # column of s3, reaches P(e, s1s3) and P(e, s2s3) unchanged (s1 and
    # s2 are their smallest left descents), and both columns refuse it
    f4 = CoxeterSystem.F4()
    ctx = get_context(f4, 0, "-1")
    e, s3 = f4.identity, el(f4, "s3")
    assert ctx.P(e, s3) == ONE
    ctx._P[s3][e] = pack([1 << 62])
    for w in ("s1s3", "s2s3"):
        with pytest.raises(ArithmeticError, match="too large"):
            ctx.P(e, el(f4, w))
    assert pack([1 << 62]) not in ctx._digits


def test_P_value_memo_keeps_the_degree_bound_per_entry():
    # q is legal at l(w) - l(y) = 3, where it gives mu = 1, and is then
    # memoised; at l(w) - l(y) = 1 the same value breaks the bound
    f4 = CoxeterSystem.F4()
    ctx = KLContext(f4, 0, "-1")
    e, w3, w1 = f4.identity, el(f4, "s1s2s3"), el(f4, "s1")
    q = pack([0, 1])
    assert ctx._checked({e: q, w3: 1}, w3) == {e: q, w3: 1}
    assert ctx._mu[w3] == [(e, 1)] and q in ctx._digits
    with pytest.raises(ArithmeticError, match="degree bound"):
        ctx._checked({e: q, w1: 1}, w1)


@pytest.mark.parametrize("x", ["-1", "q"])
def test_P_mu_lists_match_decoding_every_value(x):
    # the columns that F4's P(e, w0) fills hold few distinct values; the
    # mu lists read from the memo equal those of a pass that decodes
    # every entry
    f4 = CoxeterSystem.F4()
    w0 = f4.group_elements()[-1]
    ctx = get_context(f4, 0, x)
    assert ctx.P(f4.identity, w0) == ONE
    entries = 0
    for w, col in ctx._P.items():
        want = []
        for y, p in col.items():
            digits, d = _unpack(p), w.length - y.length
            if d and 2 * len(digits) == d + 1:
                want.append((y, digits[-1]))
        assert list(ctx._mu[w]) == want
        entries += len(col)
    assert 10 * len(ctx._digits) < entries


def test_x_consistency_without_branch_three(a3):
    # with H empty the third branch never fires, so both x variants agree
    ctx_q = get_context(a3, 0, "q")
    ctx_m = get_context(a3, 0, "-1")
    for w in a3.group_elements():
        for u in a3.group_elements():
            assert ctx_q.R(u, w) == ctx_m.R(u, w)
            assert ctx_q.P(u, w) == ctx_m.P(u, w)


def test_P_degree_bound(b3):
    for H in all_H(b3):
        reps = quotient(b3, H)
        for x in ("-1", "q"):
            ctx = get_context(b3, H, x)
            for w in reps:
                for u in reps:
                    if u is not w and b3.bruhat_leq(u, w):
                        p = ctx.P(u, w)
                        assert 2 * p.degree <= w.length - u.length - 1


def test_golden_kl_values():
    # frozen outputs, cross-checked against the dict-arithmetic oracle and
    # the defining conditions when first computed
    a3 = CoxeterSystem.A(3)
    assert ordinary_P(a3, el(a3, "s2"), el(a3, "s2 s1 s3 s2")) == \
        QPolynomial((1, 1))
    assert ordinary_P(a3, a3.identity, el(a3, "s2 s1 s3 s2")) == \
        QPolynomial((1, 1))
    nontrivial = sorted(
        (u.label_str(), v.label_str())
        for v in a3.group_elements() for u in a3.group_elements()
        if a3.bruhat_leq(u, v) and ordinary_P(a3, u, v) != ONE)
    assert nontrivial == [
        ("e", "s1s2s3s2s1"), ("e", "s2s1s3s2"),
        ("s1", "s1s2s3s2s1"), ("s1s3", "s1s2s3s2s1"),
        ("s2", "s2s1s3s2"), ("s3", "s1s2s3s2s1"),
    ]
    b3 = CoxeterSystem.B(3)
    assert ordinary_P(b3, b3.identity, el(b3, "s2 s1 s3 s2 s1 s3 s2")) == \
        QPolynomial((1, 1, 1))
    assert ordinary_P(b3, b3.identity, el(b3, "s3 s2 s1 s3 s2 s3")) == \
        QPolynomial((1, 0, 1))
    histogram = {}
    for v in b3.group_elements():
        for u in b3.group_elements():
            if b3.bruhat_leq(u, v):
                key = str(ordinary_P(b3, u, v))
                histogram[key] = histogram.get(key, 0) + 1
    assert histogram == {"1": 741, "q + 1": 96, "q^2 + 1": 8,
                         "q^2 + q + 1": 2}


def test_lemma_configuration_R_equality(b3):
    # whenever m(s,t) >= 4, t not below w, stw in the quotient, and v has
    # no left descent s with v, sv, tv, stv all in the quotient, the
    # R-polynomials at (sv, stw) and (tv, stw) coincide
    s, t = 1, 2
    assert b3.matrix[s][t] == 4
    s_el, t_el = b3.generator(s), b3.generator(t)
    found = 0
    for H in all_H(b3):
        for x in ("-1", "q"):
            ctx = get_context(b3, H, x)
            for w in b3.group_elements():
                if (support(w) >> t) & 1:
                    continue
                stw = multiply(b3, multiply(b3, s_el, t_el), w)
                if stw.length != w.length + 2 or (stw.rdesc & H):
                    continue
                for v in b3.group_elements():
                    if (v.ldesc >> s) & 1 or not b3.bruhat_leq(v, w):
                        continue
                    sv = multiply(b3, s_el, v)
                    tv = multiply(b3, t_el, v)
                    stv = multiply(b3, s_el, tv)
                    if any(z.rdesc & H for z in (v, sv, tv, stv)):
                        continue
                    assert ctx.R(sv, stw) == ctx.R(tv, stw)
                    found += 1
    assert found > 0


# ---------------------------------------------------------------------------
# the matching-driven recurrence


def test_left_multiplication_step_reproduces_recursion(b3):
    # every left descent s gives a calculating matching, not only the
    # smallest one, which the descent recursion itself uses
    for H in all_H(b3):
        for w in quotient(b3, H):
            if w.length == 0:
                continue
            iv = build_lower_interval(b3, w)
            marked = mark_interval(iv, H)
            for x in ("-1", "q"):
                ctx = get_context(b3, H, x)
                for s in range(b3.rank):
                    if not (w.ldesc >> s) & 1:
                        continue
                    lam = multiplication_matching(iv, s, "left")
                    assert verify_calculating(marked, x, lam, ctx) \
                        == (True, None)


def test_step_top_element_is_one(b2):
    # with the reference R(w, w) overwritten by 7 on a private table, the
    # first difference is at the top, where the recurrence gives 1
    w = el(b2, "s2 s1 s2")
    iv = build_lower_interval(b2, w)
    marked = mark_interval(iv, 0)
    ctx = KLContext(b2, 0, "q")
    ctx._R_row(w)[w] = 7  # the packed constant polynomial 7
    lam = multiplication_matching(iv, 1, "left")
    ok, record = verify_calculating(marked, "q", lam, ctx)
    assert ok is False
    assert record["u"] == record["w"] == w.label_str()
    assert record["via_matching"] == ONE.to_json()
    assert record["reference"] == {"coeffs": [7]}


def test_step_rejects_non_H_special(b2):
    # the top is marked, so the refusal comes from the H-special test
    w = el(b2, "s2 s1 s2")
    iv = build_lower_interval(b2, w)
    H = genset([0])
    marked = mark_interval(iv, H)
    assert marked.marks[-1]
    rho_s = multiplication_matching(iv, 1, "right")
    ctx = get_context(b2, H, "q")
    with pytest.raises(ValueError, match="not H-special"):
        verify_calculating(marked, "q", rho_s, ctx)


def test_step_rejects_mismatched_table(b2):
    w = el(b2, "s1 s2 s1 s2")
    iv = build_lower_interval(b2, w)
    marked = mark_interval(iv, 0)
    lam = multiplication_matching(iv, 1, "left")
    with pytest.raises(ValueError, match="does not match"):
        verify_calculating(marked, "q", lam, get_context(b2, 0, "-1"))
    with pytest.raises(ValueError, match="does not match"):
        verify_calculating(
            marked, "q", lam, get_context(b2, genset([0]), "q"))


def test_step_rejects_unmarked_top(b2):
    H = genset([0])
    w = el(b2, "s2 s1")  # right descent s1 lies in H
    iv = build_lower_interval(b2, w)
    marked = mark_interval(iv, H)
    lam = multiplication_matching(iv, 1, "left")
    with pytest.raises(QuotientMembershipError):
        verify_calculating(marked, "q", lam, get_context(b2, H, "q"))


def test_verify_calculating_left_multiplications(b3):
    for H in all_H(b3):
        for w in quotient(b3, H):
            if not w.length:
                continue
            iv = build_lower_interval(b3, w)
            marked = mark_interval(iv, H)
            s = min(i for i in range(b3.rank) if (w.ldesc >> i) & 1)
            lam = multiplication_matching(iv, s, "left")
            for x in ("-1", "q"):
                ok, cex = verify_calculating(marked, x, lam)
                assert ok and cex is None


def test_verify_calculating_all_matchings_sample(b2):
    # every H-special matching of every interval in the rank-2 group of
    # order 8 reproduces the recursion
    for H in all_H(b2):
        for w in quotient(b2, H):
            if not w.length:
                continue
            iv = build_lower_interval(b2, w)
            marked = mark_interval(iv, H)
            for M in enumerate_special_matchings(iv):
                if not is_H_special(marked, M):
                    continue
                for x in ("-1", "q"):
                    ok, cex = verify_calculating(marked, x, M)
                    assert ok, cex


def test_matching_and_marks_from_separate_builds(b3):
    # a matching enumerated on one build of [e, w] is checked against a
    # marked interval taken from another build of it
    H = genset([0])
    w = max(quotient(b3, H))
    built = build_lower_interval(b3, w)
    marked = mark_interval(build_lower_interval(b3, w), H)
    assert built is not marked.interval
    matchings = enumerate_special_matchings(built)
    assert matchings == enumerate_special_matchings(
        build_lower_interval(b3, w))
    special = [M for M in matchings if is_H_special(marked, M)]
    assert special
    for M in special:
        for x in ("-1", "q"):
            assert verify_calculating(marked, x, M) == (True, None)


# ---------------------------------------------------------------------------
# cross-identities


def test_deodhar_identity_trivial_H(a3):
    for v in a3.group_elements():
        for u in a3.group_elements():
            assert oracles.deodhar_identity_check(
                partial(get_context, a3), 0, u, v)


def test_deodhar_identities_b2_all_H(b2):
    for H in all_H(b2):
        reps = quotient(b2, H)
        for v in reps:
            for u in reps:
                assert oracles.deodhar_identity_check(
                    partial(get_context, b2), H, u, v)


def test_deodhar_identity_requires_membership(b2):
    with pytest.raises(QuotientMembershipError):
        oracles.deodhar_identity_check(
            partial(get_context, b2), genset([0]), b2.generator(0),
            el(b2, "s1 s2"))


# ---------------------------------------------------------------------------
# context plumbing


def test_get_context_is_shared(b2):
    assert get_context(b2, 0, "q") is get_context(b2, 0, "q")
    assert get_context(b2, 0, "-1") is get_context(b2, 0, "-1")
    assert get_context(b2, 0, "q") is not get_context(b2, 0, "-1")
    fresh = CoxeterSystem.B(2)
    for x in ("q", "-1", "q", "-1"):
        get_context(fresh, 0, x)
    assert len(fresh._kl_contexts) == 2
    with pytest.raises(ValueError):
        KLContext(b2, 1 << 5, "q")
