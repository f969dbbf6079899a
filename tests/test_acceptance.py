"""Acceptance gate: one test, and one printed PASS/FAIL line, per
criterion.  All comparisons are exact integer polynomial equalities."""

import hashlib
import json
import os
import subprocess
import sys
import time
from functools import partial

import pytest

import bruhatkl
from bruhatkl.cli import main
from bruhatkl.coxeter import CoxeterSystem, genset
from bruhatkl.invariance import mongelli_reproduction, sweep_calculating
from bruhatkl.klpoly import (
    KLContext,
    QPolynomial,
    _unpack,
    get_context,
)
from bruhatkl.matchings import enumerate_special_matchings, is_special
from bruhatkl.poset import build_interval, build_lower_interval

from matching_helpers import (
    commutes,
    enumerate_verified_systems,
    image,
    is_dihedral_interval,
    orbit,
    support,
)
from oracles import deodhar_identity_check, parabolic_R_oracle

X_VARIANTS = ("-1", "q")
I2_RANGE = range(2, 11)


def announce(number: int, name: str, ok: bool, detail: str) -> None:
    line = "ACCEPTANCE %d %-24s %s  [%s]" % (
        number, name, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def dihedrals():
    return {m: CoxeterSystem.I2(m) for m in I2_RANGE}


def quotient_elements(sys_, H):
    return [w for w in sys_.group_elements() if (w.rdesc & H) == 0]


# ---------------------------------------------------------------------------
# 1. the rank-4 quotient counterexample, exactly, in under a minute


def test_criterion_1_mongelli_reproduction():
    started = time.perf_counter()
    report = mongelli_reproduction()    # cold start: builds its own group
    elapsed = time.perf_counter() - started

    def p_values(x):
        return [QPolynomial.from_json(p) for p in report["p_values"][x]]

    checks = {
        "quotient-members": report["in_quotient"],
        "quotient-isomorphic": report["quotient_isomorphic"],
        "full-not-isomorphic": not report["full_intervals_isomorphic"],
        "P(q)=q,0": p_values("q") == [QPolynomial((0, 1)), QPolynomial()],
        "P(-1)=q+1,1": p_values("-1") == [QPolynomial((1, 1)),
                                          QPolynomial((1,))],
        "under-60s": elapsed < 60,
    }
    bad = [k for k, v in checks.items() if not v]
    announce(1, "mongelli-reproduction", not bad,
             "failed: %s" % ",".join(bad) if bad else "%.2fs" % elapsed)


# ---------------------------------------------------------------------------
# 2. every H-special matching calculates: full A2, A3, B2, B3, both x


def test_criterion_2_main_theorem_sweep(a2, a3, b2, b3):
    bad = []
    h_special = 0
    for sys_ in (a2, a3, b2, b3):
        for x in X_VARIANTS:
            report = sweep_calculating(sys_, x=x)
            h_special += report["totals"]["h_special"]
            if not (report["ok"]
                    and report["max_length"]
                    == sys_.group_elements()[-1].length
                    and report["totals"]["h_special"] > 0
                    and sweep_bytes_pinned(sys_, x, report)):
                bad.append("%s:x=%s:%d counterexamples"
                           % (sys_.name, x, len(report["counterexamples"])))
    announce(2, "main-theorem-sweep", not bad,
             ",".join(bad) if bad else "%d H-special matchings" % h_special)


@pytest.mark.f4sweep
def test_criterion_2f_main_theorem_sweep_f4(f4):
    bad = []
    h_special = 0
    for x in X_VARIANTS:
        report = sweep_calculating(f4, max_length=9, x=x)
        h_special += report["totals"]["h_special"]
        if not report["ok"]:
            bad.append("x=%s:%d counterexamples"
                       % (x, len(report["counterexamples"])))
    announce(2, "main-theorem-sweep-f4", not bad,
             ",".join(bad) if bad else "%d H-special matchings" % h_special)


# whole-group totals (intervals, matchings, H-special, calculating), the
# same for both x
WHOLE_GROUP_TOTALS = {
    "A4": (541, 2076, 1572, 1572),
    "D4": (865, 3386, 2512, 2512),
    "B4": (1697, 7496, 5476, 5476),
    "F4": (5089, 19984, 14814, 14814),
    "A5": (4683, 23708, 17446, 17446),
    "D5": (12483, 60908, 44870, 44870),
}


# sha256 of the stdout of `verify --group G --x X --format json` over the
# whole group: --max-length 24 for F4 and 20 for D5, the default for B3.
# Recorded while the sweep wrote its two verdict paths inline
SWEEP_SHA256 = {
    ("B3", "-1"):
        "9fd6fd8235c7534dba64a9ec86698560bf0be312ed2fa32b18b6b068dc3a30ba",
    ("F4", "-1"):
        "2bc09cfe9a55bb14cde77a23422801d1de1e43c72f85d5eae15271efccf53a68",
    ("D5", "-1"):
        "d684c630aaa4458642095b215797d2af8d23a44af857a10b0c652d503d4443d0",
    ("D5", "q"):
        "5bd16e32334632855441b84324fb43a6fa8e2ea7654f525f9a636cd4347cc341",
}


def sweep_bytes_pinned(sys_, x, report):
    """Whether the report serializes as the CLI prints it to the pinned
    sha256, where one is pinned."""
    digest = SWEEP_SHA256.get((sys_.name, x))
    out = json.dumps(report, sort_keys=True) + "\n"
    return digest in (None, hashlib.sha256(out.encode()).hexdigest())


def whole_group_sweep_failures(sys_):
    bad = []
    for x in X_VARIANTS:
        report = sweep_calculating(
            sys_, max_length=sys_.group_elements()[-1].length, x=x)
        totals = tuple(report["totals"][k] for k in (
            "intervals_scanned", "matchings_enumerated", "h_special",
            "calculating"))
        if not report["ok"] or totals != WHOLE_GROUP_TOTALS[sys_.name] \
                or not sweep_bytes_pinned(sys_, x, report):
            bad.append("%s:x=%s:%s" % (sys_.name, x,
                                       "/".join(map(str, totals))))
    return bad


def test_criterion_2w_whole_group_sweeps():
    groups = (CoxeterSystem.A(4), CoxeterSystem.D(4), CoxeterSystem.B(4))
    bad = [b for sys_ in groups for b in whole_group_sweep_failures(sys_)]
    announce(2, "whole-group-sweeps", not bad,
             ",".join(bad) if bad else "A4, D4, B4 pinned, both x")


@pytest.mark.f4sweep
def test_criterion_2fw_whole_group_sweep_f4(f4):
    bad = whole_group_sweep_failures(f4)
    announce(2, "whole-group-sweep-f4", not bad,
             ",".join(bad) if bad else "F4 pinned, both x")


@pytest.mark.f4sweep
@pytest.mark.parametrize("name", ["A5", "D5"])
def test_criterion_2rw_whole_group_sweep_rank5(name):
    # whole D5 takes about 8 s per x (CPython 3.11.7, 2-vCPU x86-64)
    bad = whole_group_sweep_failures(CoxeterSystem.from_name(name))
    announce(2, "whole-group-sweep-%s" % name.lower(), not bad,
             ",".join(bad) if bad else "%s pinned, both x" % name)


# the whole-F4 sweep for x = -1 in a fresh process; prints its totals and
# its peak RSS in KiB.  A process started by exec keeps the ru_maxrss of
# the process that started it (here pytest's), so the child reads VmHWM,
# the peak RSS of its own memory.
WHOLE_F4_SWEEP_SCRIPT = """
from bruhatkl.coxeter import CoxeterSystem
from bruhatkl.invariance import sweep_calculating
f4 = CoxeterSystem.F4()
r = sweep_calculating(f4, max_length=f4.group_elements()[-1].length, x="-1")
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status
                if line.startswith("VmHWM:"))
t = r["totals"]
print(r["ok"], t["intervals_scanned"], t["matchings_enumerated"],
      t["h_special"], t["calculating"], peak)
"""


@pytest.mark.f4sweep
@pytest.mark.skipif(sys.platform != "linux",
                    reason="reads the peak RSS from /proc/self/status")
def test_criterion_2fm_whole_group_sweep_f4_memory():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bruhatkl.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", WHOLE_F4_SWEEP_SCRIPT],
                         env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    ok = out[0] == "True"
    totals = tuple(map(int, out[1:5]))
    peak_mb = int(out[5]) / 1024
    announce(2, "whole-f4-sweep-memory",
             ok and totals == WHOLE_GROUP_TOTALS["F4"] and peak_mb <= 100,
             "x=-1 %s, peak RSS %.1f MB (at most 100)"
             % ("/".join(map(str, totals)), peak_mb))


# ---------------------------------------------------------------------------
# 3. dihedral groups: sweeps plus the chain-quotient closed form


def chain_closed_form(x: str, diff: int) -> QPolynomial:
    # (q-1)(q-1-x)^(diff-1) with x substituted: q-1-x is q at x=-1, -1 at x=q
    factor = QPolynomial((0, 1)) if x == "-1" else QPolynomial((-1,))
    out = QPolynomial((-1, 1))
    for _ in range(diff - 1):
        out = out * factor
    return out


def test_criterion_3_dihedral_theorem(dihedrals):
    bad = []
    closed_form_checks = 0
    for m, sys_ in sorted(dihedrals.items()):
        for x in X_VARIANTS:
            report = sweep_calculating(sys_, x=x)
            if not report["ok"]:
                bad.append("I2(%d):x=%s:sweep" % (m, x))
        for H in (genset([0]), genset([1])):
            quotient = quotient_elements(sys_, H)
            if sorted(w.length for w in quotient) != list(range(m)):
                bad.append("I2(%d):H=%d:not a chain" % (m, H))
                continue
            for x in X_VARIANTS:
                ctx = get_context(sys_, H, x)
                for w in quotient:
                    for u in quotient:
                        if u.length >= w.length:
                            continue
                        closed_form_checks += 1
                        want = chain_closed_form(x, w.length - u.length)
                        if ctx.R(u, w) != want:
                            bad.append("I2(%d):R(%s,%s)" % (m, u, w))
    announce(3, "dihedral-theorem", not bad,
             ",".join(bad) if bad else
             "%d closed-form values" % closed_form_checks)


# ---------------------------------------------------------------------------
# 4. both quotient/ordinary P translation identities


def test_criterion_4_deodhar_identities(a3, b2, b3):
    bad = 0
    total = 0
    for sys_ in (b2, b3, a3):
        contexts = partial(get_context, sys_)
        for H in range(1 << sys_.rank):
            quotient = quotient_elements(sys_, H)
            for u in quotient:
                for v in quotient:
                    total += 1
                    if not deodhar_identity_check(contexts, H, u, v):
                        bad += 1
    announce(4, "deodhar-identities", bad == 0,
             "%d pairs, %d failures" % (total, bad))


# sha256 of every whole-F4 P column, all 16 H and both x, as recorded from
# the R-convolution column fill that the mu-recursion replaced
WHOLE_F4_P_DIGEST = \
    "e2a561b65b26ed90ea009c0812dabdd33ba369a2b3fbea49606e76a920314cb6"


def whole_group_P_digest(sys_):
    """sha256 over the lines "H x w u coeffs" of every column P(., w),
    w in W^H, zero entries included, sorted by H, x ("-1" first), w and u,
    elements in (length, word) order; coeffs are comma-separated,
    constant term first."""
    elements = sorted(sys_.group_elements())
    order = {w: i for i, w in enumerate(elements)}
    label = {w: w.label_str() for w in elements}
    coeffs = {}
    digest = hashlib.sha256()
    for H in range(1 << sys_.rank):
        for x in X_VARIANTS:
            ctx = KLContext(sys_, H, x)
            for w in elements:
                if w.rdesc & H:
                    continue
                col = ctx._P_column(w)
                head = "%d %s %s " % (H, x, label[w])
                for p in col.values():
                    if p not in coeffs:
                        coeffs[p] = ",".join(map(str, _unpack(p)))
                digest.update("".join(
                    "%s%s %s\n" % (head, label[u], coeffs[col[u]])
                    for u in sorted(col, key=order.__getitem__)).encode())
    return digest.hexdigest()


@pytest.mark.f4sweep
def test_criterion_4fw_whole_group_P_columns_f4():
    got = whole_group_P_digest(CoxeterSystem.F4())
    announce(4, "whole-f4-P-columns", got == WHOLE_F4_P_DIGEST,
             "sha256 %s" % got[:16])


# ---------------------------------------------------------------------------
# 5. structural properties across the sweep corpora


def check_matchings_are_special(sys_, counts):
    for w in sys_.group_elements():
        interval = build_lower_interval(sys_, w)
        for M in enumerate_special_matchings(interval):
            counts["matchings"] += 1
            if not is_special(interval, M):
                return "matching on [e,%s] fails re-verification" % w
    return None


def check_orbits(sys_, counts):
    """Orbits of a pair of special matchings are dihedral intervals.  For a
    non-commuting pair every orbit size already occurs among the orbits
    lying inside the relevant dihedral subgroup; for a commuting pair the
    group generated is Klein four, so orbit sizes can only be 2 or 4 and
    need not all appear low down — there we check the size bound instead.
    (The unrestricted transfer statement fails for commuting pairs, e.g.
    left-by-s1 and right-by-s3 on [e, s1s2s1s3s2] in A3: the four elements
    below s1s3 form one orbit of size 4 while s2s1s3s2 sits in an orbit of
    size 2.)"""
    # (elements, verdict) per (bottom, top): orbits repeat few intervals
    dihedral = {}
    for w in sys_.group_elements():
        interval = build_lower_interval(sys_, w)
        matchings = enumerate_special_matchings(interval)
        for a in range(len(matchings)):
            for b in range(a, len(matchings)):
                M, N = matchings[a], matchings[b]
                orbits = {}
                for u in interval.elements:
                    if u in orbits:
                        continue
                    elements = orbit(interval, M, N, u)
                    for v in elements:
                        orbits[v] = len(elements)
                    bottom = min(elements)
                    top = max(elements)
                    key = (bottom, top)
                    if key not in dihedral:
                        sub = build_interval(sys_, bottom, top)
                        dihedral[key] = (set(sub.elements),
                                         is_dihedral_interval(sub))
                    members, is_dihedral = dihedral[key]
                    counts["orbits"] += 1
                    if members != set(elements) or not is_dihedral:
                        return "orbit of %s under a pair on [e,%s]" % (u, w)
                s_el = image(interval, M, sys_.identity)
                t_el = image(interval, N, sys_.identity)
                if s_el is t_el:
                    continue
                J = support(s_el) | support(t_el)
                witness = {orbits[v] for v in interval.elements
                           if support(v) & ~J == 0}
                sizes = {orbits[u] for u in interval.elements}
                if commutes(M, N):
                    counts["klein_pairs"] += 1
                    if not sizes <= {2, 4} or max(sizes) > max(witness):
                        return "commuting-pair orbit bound on [e,%s]" % w
                else:
                    counts["transfers"] += 1
                    if not sizes <= witness:
                        return "orbit size unwitnessed on [e,%s]" % w
    return None


def check_coatoms(sys_, counts):
    """An element outside W^H covers at most one element of W^H."""
    for v in sys_.group_elements():
        if v.length == 0:
            continue
        interval = build_lower_interval(sys_, v)
        top = len(interval.elements) - 1
        coatoms = [interval.elements[i] for i in interval.hasse_down[top]]
        for H in range(1 << sys_.rank):
            if (v.rdesc & H) == 0:
                continue
            counts["coatoms"] += 1
            if sum(1 for c in coatoms if (c.rdesc & H) == 0) > 1:
                return "two quotient coatoms under %s, H=%d" % (v, H)
    return None


def check_P_degree_and_resubstitution(sys_, counts):
    for H in range(1 << sys_.rank):
        quotient = quotient_elements(sys_, H)
        for x in X_VARIANTS:
            ctx = get_context(sys_, H, x)
            for w in quotient:
                below = [u for u in quotient
                         if u.length < w.length and sys_.bruhat_leq(u, w)]
                for u in below:
                    p = ctx.P(u, w)
                    n = w.length - u.length
                    counts["P"] += 1
                    if 2 * p.degree > n - 1:
                        return "deg P(%s,%s) too big" % (u, w)
                    acc = QPolynomial()
                    for z in below + [w]:
                        if z is not u and sys_.bruhat_leq(u, z):
                            acc = acc + ctx.R(u, z) * ctx.P(z, w)
                    # q^n p(1/q), defined as deg p <= (n-1)/2 < n
                    rev = QPolynomial([0] * (n - p.degree)
                                      + list(reversed(p.coeffs)))
                    if rev - p != acc:
                        return "defining identity fails at (%s,%s)" % (u, w)
    return None


def check_descent_independence(sys_, counts):
    for H in range(1 << sys_.rank):
        quotient = quotient_elements(sys_, H)
        for x in X_VARIANTS:
            # the table recurses on the smallest left descent, the oracle
            # on the largest
            ctx = get_context(sys_, H, x)
            memo = {}
            for w in quotient:
                for u in quotient:
                    counts["R"] += 1
                    got = ctx.R(u, w)
                    want = parabolic_R_oracle(sys_, H, x, u, w, memo)
                    if {i: c for i, c in enumerate(got.coeffs) if c} != want:
                        return "R(%s,%s) depends on descent choice" % (u, w)
    return None


def test_criterion_5_structural_properties(a2, a3, b2, b3, dihedrals):
    corpus = [a2, a3, b2, b3] + [dihedrals[m] for m in I2_RANGE]
    counts = {"matchings": 0, "orbits": 0, "transfers": 0, "klein_pairs": 0,
              "coatoms": 0, "P": 0, "R": 0}
    failure = None
    for sys_ in corpus:
        for check in (check_matchings_are_special, check_orbits,
                      check_coatoms, check_P_degree_and_resubstitution,
                      check_descent_independence):
            failure = check(sys_, counts)
            if failure:
                failure = "%s: %s" % (sys_.name, failure)
                break
        if failure:
            break
    announce(5, "structural-properties", failure is None,
             failure if failure else
             "%(matchings)d matchings, %(orbits)d orbits, "
             "%(transfers)d transfers, %(klein_pairs)d Klein pairs, "
             "%(coatoms)d coatom checks, %(P)d P, %(R)d R" % counts)


# ---------------------------------------------------------------------------
# 6. every special matching of A2 and B2 comes from a verified system


def test_criterion_6_systems_cover_matchings(a2, b2):
    total = 0
    missing = 0
    for sys_ in (a2, b2):
        for w in sys_.group_elements():
            if w.length == 0:
                continue
            interval = build_lower_interval(sys_, w)
            induced = {M for _, M in enumerate_verified_systems(sys_, w)}
            for M in enumerate_special_matchings(interval):
                total += 1
                if M not in induced:
                    missing += 1
    announce(6, "systems-cover-matchings", total > 0 and missing == 0,
             "%d matchings, %d unexplained" % (total, missing))


# ---------------------------------------------------------------------------
# 7. byte-identical JSON output across runs


def test_criterion_7_cli_determinism(capsys):
    def capture(argv):
        code = main(argv)
        out = capsys.readouterr().out
        json.loads(out)            # must be valid JSON
        return code, out

    verify = ["verify", "--group", "B2", "--x", "q", "--format", "json"]
    code1, v1 = capture(verify)
    code2, v2 = capture(verify)
    poly = ["poly", "--group", "B3", "--H", "s2", "--x", "-1",
            "--u", "s1", "--w", "s2s3s2s1", "--format", "json"]
    pc1, p1 = capture(poly)
    pc2, p2 = capture(poly)
    ok = (code1 == code2 == 0 and v1 == v2
          and pc1 == pc2 == 0 and p1 == p2)
    announce(7, "cli-determinism", ok,
             "verify %d bytes, poly %d bytes" % (len(v1), len(p1)))
