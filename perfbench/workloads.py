"""The benchmark's workloads: the CLI argv of every op, and its output check.

Every op is one ``bruhatkl.cli.main(argv)`` call with ``--format json``.
``verify-f4`` and ``verify-i2`` have fixed inputs; the seed chooses the
inputs of ``query-f4``.  Checks return an error string, or None when the
output is right.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("verify-f4", "verify-i2", "query-f4")

# totals of cold runs at the commit that defined the benchmark; the same
# numbers are pinned by the acceptance suite for the sweeps it covers
PINNED_TOTALS = {
    "verify-f4": {"intervals_scanned": 1432, "matchings_enumerated": 5952,
                  "h_special": 4164, "calculating": 4164},
    "verify-i2": {"intervals_scanned": 57, "matchings_enumerated": 40956,
                  "h_special": 25792, "calculating": 25792},
}

VERIFY_ARGV = {
    "verify-f4": ["verify", "--group", "F4", "--max-length", "8",
                  "--x", "-1", "--format", "json"],
    "verify-i2": ["verify", "--group", "I2(14)", "--x", "q",
                  "--format", "json"],
}

# query-f4 poly slots as (length of w, size of H, u is e).  Each slot fixes
# the properties that set a query's cost (ordinary or parabolic, e or a
# short u), so the cost of a pass varies little across seeds; w, u, H and
# x are drawn within each slot.
POLY_SLOTS = ((14, 0, True), (15, 0, False), (14, 1, False), (15, 1, True),
              (16, 1, False), (17, 1, True), (15, 1, False), (16, 1, True),
              (17, 1, False))
SCAN_LENGTH = 12
# The cost of a query grows with the size of [e, w], which varies about
# twofold among elements of one length.  w is redrawn until [e, w] has
# within SIZE_BAND of the median size that the walk below gives at that
# length, so every seed queries intervals of about the same size.
INTERVAL_SIZE = {12: 288, 14: 432, 15: 512, 16: 612, 17: 720}
SIZE_BAND = 0.05
# the F4 diagram automorphism s1<->s4, s2<->s3, on generator indices
F4_PHI = (3, 2, 1, 0)
# invariance entries: [e,w], [e,w^-1], [e,phi(w)], H:w, phi(H):phi(w).
# These pairs (by entry index) are isomorphic by construction, through
# the identity, inversion, the automorphism phi, or their composites.
SCAN_ISOMORPHIC = {(0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
                   (0, 1), (0, 2), (1, 2), (3, 4)}


@dataclass
class Op:
    argv: list
    expect: dict = field(default_factory=dict)


def _genset(indices) -> str:
    return ",".join("s%d" % (i + 1) for i in sorted(indices))


def _ascents(w) -> list:
    return [i for i in range(w.system.rank) if not (w.rdesc >> i) & 1]


def _random_walk(F4, rng: random.Random, length: int):
    """A walk up the weak order, each step by a uniformly drawn right
    ascent: returns (w, word) with ``word`` a reduced word of w."""
    w, word = F4.identity, []
    for _ in range(length):
        s = rng.choice(_ascents(w))
        word.append(s)
        w = F4.multiply_by_generator(w, s, "right")
    return w, word


def _interval_size(F4, word) -> int:
    """|[e, w]| for a reduced word of w: by the subword property, [e, w]
    is the set of products of subwords of the word."""
    below = {F4.identity}
    for s in word:
        below |= {F4.multiply_by_generator(x, s, "right") for x in below}
    return len(below)


def _draw_w(F4, rng: random.Random, length: int):
    target = INTERVAL_SIZE[length]
    for _ in range(10000):
        w, word = _random_walk(F4, rng, length)
        if abs(_interval_size(F4, word) - target) <= SIZE_BAND * target:
            return w, word
    raise RuntimeError("no w of length %d with about %d elements below"
                       % (length, target))


def _random_H(rng: random.Random, w, size: int) -> list:
    """A random subset of the right ascents of w, of the given size."""
    return rng.sample(_ascents(w), size)


def _short_u(F4, rng: random.Random, word, Hmask: int):
    """A short element below w (a subword of w's reduced word, so u <= w
    by the subword property) lying in W^H, or e if none is found."""
    for _ in range(20):
        pos = sorted(rng.sample(range(len(word)), 2))
        u = F4.element_from_word([word[p] for p in pos])
        if (u.rdesc & Hmask) == 0:
            return u
    return F4.identity


def _query_f4(seed: int, CoxeterSystem) -> list:
    F4 = CoxeterSystem.F4()
    rng = random.Random(seed)
    ops = []
    for length, h_size, u_is_e in POLY_SLOTS:
        w, word = _draw_w(F4, rng, length)
        H = _random_H(rng, w, h_size)
        u = F4.identity if u_is_e else \
            _short_u(F4, rng, word, sum(1 << i for i in H))
        x = rng.choice(("-1", "q"))
        argv = ["poly", "--group", "F4"]
        if H:
            argv += ["--H", _genset(H)]
        argv += ["--u", u.label_str(), "--w", w.label_str(), "--x", x,
                 "--format", "json"]
        ops.append(Op(argv, {"u": u.label_str(), "w": w.label_str(),
                             "lu": u.length, "lw": w.length,
                             "ordinary": not H}))

    w, word = _draw_w(F4, rng, SCAN_LENGTH)
    H = _random_H(rng, w, 1)
    phi_word = [F4_PHI[i] for i in word]

    def canon(wd):
        return F4.element_from_word(wd).label_str()

    entries = [
        ":" + canon(word),
        ":" + canon(word[::-1]),
        ":" + canon(phi_word),
        _genset(H) + ":" + canon(word),
        _genset(F4_PHI[i] for i in H) + ":" + canon(phi_word),
    ]
    argv = ["invariance", "--group", "F4", "--format", "json"]
    for e in entries:
        argv += ["--interval", e]
    ops.append(Op(argv, {"entries": len(entries)}))
    ops.append(Op(["mongelli", "--format", "json"]))
    return ops


def make_ops(workload: str, seed: int, CoxeterSystem) -> list:
    """The op list of one pass; identical for identical (workload, seed)."""
    if workload in VERIFY_ARGV:
        return [Op(list(VERIFY_ARGV[workload]),
                   {"totals": PINNED_TOTALS[workload]})]
    if workload == "query-f4":
        return _query_f4(seed, CoxeterSystem)
    raise ValueError("unknown workload %r" % workload)


# ---------------------------------------------------------------------------
# output checks


def _check_verify(op: Op, data: dict):
    if data.get("totals") != op.expect["totals"]:
        return "totals %r, pinned %r" % (data.get("totals"),
                                         op.expect["totals"])
    if data.get("ok") is not True or data.get("counterexamples"):
        return "sweep reported counterexamples"
    return None


def _check_poly(op: Op, data: dict):
    e = op.expect
    if data.get("u") != e["u"] or data.get("w") != e["w"]:
        return "echoed pair (%r, %r) differs from input" % (
            data.get("u"), data.get("w"))
    coeffs = data["P"]["coeffs"]
    if 2 * (len(coeffs) - 1) > e["lw"] - e["lu"] - 1:
        return "deg P = %d exceeds (l(w)-l(u)-1)/2" % (len(coeffs) - 1)
    if e["ordinary"] and (not coeffs or coeffs[0] != 1):
        return "ordinary P has constant term other than 1: %r" % (coeffs,)
    return None


def _check_invariance(op: Op, data: dict):
    n = op.expect["entries"]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    records = data.get("records", [])
    if len(records) != len(pairs):
        return "%d records for %d pairs" % (len(records), len(pairs))
    for (i, j), rec in zip(pairs, records):
        if (i, j) in SCAN_ISOMORPHIC and not (
                rec["isomorphic"] and rec["polynomials_equal"] is True):
            return "entries %d and %d are isomorphic by construction, " \
                   "got %r" % (i, j, rec)
    return None


def _check_mongelli(op: Op, data: dict):
    return None if data.get("reproduced") is True else "not reproduced"


_CHECKS = {"verify": _check_verify, "poly": _check_poly,
           "invariance": _check_invariance, "mongelli": _check_mongelli}


def check_output(op: Op, exit_code, stdout: str):
    """None if the op's output is right, else what is wrong with it."""
    if exit_code != 0:
        return "exit code %r" % (exit_code,)
    try:
        data = json.loads(stdout)
    except ValueError as exc:
        return "stdout is not JSON: %s" % exc
    try:
        return _CHECKS[op.argv[0]](op, data)
    except (KeyError, TypeError) as exc:
        return "malformed output: %r" % (exc,)
