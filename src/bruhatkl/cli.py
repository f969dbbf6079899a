"""Command-line front end.

Subcommands:

- ``poly``: parabolic R- and P-polynomials for one pair (u, w).
- ``matchings``: special matchings of a lower interval, tagged H-special.
- ``verify``: a calculating-matchings sweep; exit 1 iff counterexamples.
- ``invariance``: pairwise scan of marked lower intervals; exit 1 iff an
  isomorphic pair carries different polynomials.
- ``mongelli``: the rank-4 quotient counterexample reproduction.
- ``export-interval``: a Bruhat interval as JSON (elements, ranks,
  Hasse edges, optional quotient marks).

Each subcommand prints one JSON-ready dict (for a campaign, the dict its
function in ``bruhatkl.invariance`` returns) with ``--format json``, or
renders it as human lines.  JSON output is deterministic: keys sorted, no
timing, so identical invocations are byte-identical.  Only the human
``verify`` output shows a wall time, which is measured here.
``matchings`` writes its listing one matching at a time, in either
format, so a listing at the cap of 2^16 matchings never holds every
record at once; its bytes are those of the whole dict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from .coxeter import CoxeterSystem, _excerpt, format_genset, parse_genset
from .invariance import (
    invariance_scan,
    mongelli_reproduction,
    sweep_calculating,
)
from .klpoly import QPolynomial, get_context
from .matchings import enumerate_special_matchings, is_H_special, \
    matching_to_json
from .poset import build_interval, build_lower_interval, interval_to_json, \
    mark_interval


# ---------------------------------------------------------------------------
# argument helpers


def load_group(text: str) -> CoxeterSystem:
    """A named system ("A2", "F4", "I2(7)"), a path to a JSON
    descriptor, or an inline JSON matrix / descriptor."""
    text = text.strip()
    if text.startswith(("[", "{")):
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("group descriptor is nested too deeply") from None
        if text.startswith("["):
            return CoxeterSystem(data)
        return CoxeterSystem.from_spec(data)
    try:
        return CoxeterSystem.from_name(text)
    except ValueError:
        if os.path.exists(text):
            return CoxeterSystem.load(text)
        raise


def _emit(args, data: dict, human_lines) -> None:
    if args.format == "json":
        print(json.dumps(data, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--group", required=True,
                        help="named system (A2, B3, F4, I2(7)), JSON file, "
                             "or inline JSON matrix")
    parser.add_argument("--H", default="",
                        help="generator labels spanning H, e.g. "
                             "'s1,s3' (default: empty)")
    parser.add_argument("--format", choices=("human", "json"),
                        default="human")


# ---------------------------------------------------------------------------
# subcommands


def cmd_poly(args) -> int:
    sys_ = load_group(args.group)
    H = parse_genset(sys_, args.H)
    u = sys_.element_from_labels(args.u)
    w = sys_.element_from_labels(args.w)
    ctx = get_context(sys_, H, args.x)
    r = ctx.R(u, w)
    p = ctx.P(u, w)
    _emit(args, {
        "group": sys_.spec,
        "H": format_genset(sys_, H),
        "x": args.x,
        "u": u.label_str(),
        "w": w.label_str(),
        "R": r.to_json(),
        "P": p.to_json(),
    }, [
        "u = %s" % u.label_str(),
        "w = %s" % w.label_str(),
        "R = %s" % r,
        "P = %s" % p,
    ])
    return 0


def cmd_matchings(args) -> int:
    sys_ = load_group(args.group)
    H = parse_genset(sys_, args.H)
    w = sys_.element_from_labels(args.w)
    interval = build_lower_interval(sys_, w)
    marked = mark_interval(interval, H)
    matchings = enumerate_special_matchings(interval)
    words = [el.label_str() for el in interval.elements]
    # one record at a time: a listing at the cap holds 2^16 of them
    tagged = (dict(matching_to_json(M), h_special=is_H_special(marked, M))
              for M in matchings)
    if args.format == "json":
        # the record's JSON with the matchings written in at their key
        head, key, tail = json.dumps({
            "group": sys_.spec,
            "H": format_genset(sys_, H),
            "w": w.label_str(),
            "elements": words,
            "count": len(matchings),
            "matchings": [],
        }, sort_keys=True).partition('"matchings": [')
        write = sys.stdout.write
        write(head + key)
        for k, M in enumerate(tagged):
            write((", " if k else "") + json.dumps(M, sort_keys=True))
        write(tail + "\n")
        return 0
    print("[e, %s]: %d special matchings" % (w.label_str(), len(matchings)))
    for M in tagged:
        pair_text = "  ".join("%s<->%s" % (words[a], words[b])
                              for a, b in M["pairs"])
        tag = "  [H-special]" if M["h_special"] else ""
        print("%-12s %s%s" % (M["source"], pair_text, tag))
    return 0


def _parse_H_list(sys_, texts) -> Optional[list[int]]:
    if not texts:
        return None
    return [parse_genset(sys_, t) for t in texts]


def cmd_verify(args) -> int:
    sys_ = load_group(args.group)
    H_set = _parse_H_list(sys_, args.H)
    started = time.perf_counter()
    report = sweep_calculating(sys_, max_length=args.max_length,
                               H_set=H_set, x=args.x)
    wall_time = time.perf_counter() - started
    totals = report["totals"]
    lines = [
        report["campaign"],
        "H family: %s" % " ".join(report["H_set"]),
        "intervals scanned:    %d" % totals["intervals_scanned"],
        "special matchings:    %d" % totals["matchings_enumerated"],
        "H-special:            %d" % totals["h_special"],
        "calculating:          %d" % totals["calculating"],
        "counterexamples:      %d" % len(report["counterexamples"]),
        "wall time:            %.2fs" % wall_time,
    ]
    for rec in report["counterexamples"]:
        lines.append("  FAIL u=%s w=%s H=%s x=%s: %s != %s"
                     % (rec["u"], rec["w"], rec["H"], rec["x"],
                        QPolynomial.from_json(rec["via_matching"]),
                        QPolynomial.from_json(rec["reference"])))
    _emit(args, report, lines)
    return 0 if report["ok"] else 1


def cmd_invariance(args) -> int:
    sys_ = load_group(args.group)
    pairs = []
    for text in args.interval:
        H_text, _, w_text = text.partition(":")
        if not w_text:
            raise ValueError(
                "interval %s must look like 'H:w' (H may be empty)"
                % _excerpt(text))
        pairs.append((sys_, parse_genset(sys_, H_text),
                      sys_.element_from_labels(w_text)))
    records = invariance_scan(pairs)
    lines = []
    for r in records:
        first, second = r["first"], r["second"]
        where = "[e,%s]^%s vs [e,%s]^%s" % (first["w"], first["H"],
                                            second["w"], second["H"])
        if not r["isomorphic"]:
            lines.append("%s: not isomorphic" % where)
        else:
            verdict = "equal" if r["polynomials_equal"] else "DIFFER"
            lines.append("%s: isomorphic, polynomials %s (%d pairs)"
                         % (where, verdict, r["pairs_checked"]))
    _emit(args, {"group": sys_.spec, "records": records}, lines)
    return 1 if any(r["polynomials_equal"] is False for r in records) else 0


def cmd_mongelli(args) -> int:
    report = mongelli_reproduction()
    p = {x: [QPolynomial.from_json(v) for v in values]
         for x, values in report["p_values"].items()}
    lines = [
        "group %s, H = %s" % (report["group"]["name"], report["H"]),
        "first pair:  u = %s, w = %s" % tuple(report["first"]),
        "second pair: u = %s, w = %s" % tuple(report["second"]),
        "quotient intervals isomorphic:  %s" % report["quotient_isomorphic"],
        "full intervals isomorphic:      %s"
        % report["full_intervals_isomorphic"],
        "P(x=q):  %s vs %s" % tuple(p["q"]),
        "P(x=-1): %s vs %s" % tuple(p["-1"]),
        "reproduced: %s" % report["reproduced"],
    ]
    _emit(args, report, lines)
    return 0 if report["reproduced"] else 1


def cmd_export_interval(args) -> int:
    sys_ = load_group(args.group)
    w = sys_.element_from_labels(args.w)
    u = sys_.element_from_labels(args.u)
    interval = build_interval(sys_, u, w)
    marked = mark_interval(interval, parse_genset(sys_, args.H)) \
        if args.H else None
    data = interval_to_json(interval, marked)
    if args.format == "json":
        print(json.dumps(data, sort_keys=True))
    else:
        print(json.dumps(data, sort_keys=True, indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bruhatkl",
        description="Exact Kazhdan-Lusztig R- and P-polynomials, special "
                    "matchings, and verification sweeps for doubly laced "
                    "and dihedral Coxeter groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="R- and P-polynomials for one pair")
    _add_common(p)
    p.add_argument("--x", choices=("q", "-1"), default="-1")
    p.add_argument("--u", required=True, help="lower element, e.g. s1s2 or e")
    p.add_argument("--w", required=True, help="upper element")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("matchings",
                       help="special matchings of a lower interval")
    _add_common(p)
    p.add_argument("--w", required=True, help="top element")
    p.set_defaults(func=cmd_matchings)

    p = sub.add_parser("verify", help="calculating-matchings sweep")
    p.add_argument("--group", required=True)
    p.add_argument("--H", action="append", default=None,
                   help="one H per flag, e.g. --H '' --H s1,s2 "
                        "(default: every subset)")
    p.add_argument("--x", choices=("q", "-1"), default="-1")
    p.add_argument("--max-length", type=int, default=None,
                   help="length bound (default: full small group, else 9)")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("invariance",
                       help="pairwise marked-interval polynomial scan")
    p.add_argument("--group", required=True)
    p.add_argument("--interval", action="append", required=True,
                   help="one marked interval per flag as 'H:w', "
                        "e.g. --interval s1:s2s1s2 --interval :s1s2")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("mongelli",
                       help="reproduce the rank-4 quotient counterexample")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=cmd_mongelli)

    p = sub.add_parser("export-interval", help="dump an interval as JSON")
    _add_common(p)
    p.add_argument("--u", default="e", help="bottom element (default e)")
    p.add_argument("--w", required=True, help="top element")
    p.set_defaults(func=cmd_export_interval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except (ValueError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away (`| head`): point stdout at devnull so the
        # flush at exit cannot raise again, as the Python docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
