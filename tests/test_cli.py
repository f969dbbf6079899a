"""Command-line interface: parsing, output formats, exit codes,
determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import bruhatkl.cli
import bruhatkl.matchings
from bruhatkl.cli import load_group, main
from bruhatkl.coxeter import CoxeterSystem, format_genset, genset, \
    parse_genset
from bruhatkl.klpoly import get_context
from bruhatkl.matchings import enumerate_special_matchings, is_H_special, \
    is_special, matching_from_json, matching_to_json
from bruhatkl.poset import build_lower_interval, mark_interval

from oracles import brute_special_matchings


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# group loading


def test_load_group_named():
    assert load_group("B3").name == "B3"
    assert load_group(" I2(7) ").name == "I2(7)"


def test_load_group_inline_matrix():
    sys_ = load_group("[[1,5],[5,1]]")
    assert sys_.rank == 2
    assert sys_.matrix[0][1] == 5


def test_load_group_inline_spec():
    sys_ = load_group('{"type": "named", "name": "A3"}')
    assert sys_.name == "A3"


def test_load_group_file(tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(
        {"type": "matrix", "m": [[1, 4], [4, 1]], "labels": ["a", "b"]}))
    sys_ = load_group(str(path))
    assert sys_.generator_names == ("a", "b")


def test_load_group_unknown():
    with pytest.raises(ValueError):
        load_group("nosuch")


@pytest.mark.parametrize("group", [
    "[1,2]",
    '{"type":"matrix"}',
    '{"type":"named"}',
    '{"type":"named","name":4}',
    os.path.dirname(__file__),
    '{"type":"matrix","m":[[1,3],[3,1]],"labels":["e","f"]}',
    '{"type":"matrix","m":[[1,3],[3,1]],"labels":["s","s"]}',
    '{"type":"matrix","m":[[1,3],[3,1]],"labels":[1,2]}',
    '{"type":"matrix","m":[[1,3],[3,1]],"labels":["s,t","u"]}',
    # JSON true is not the integer 1
    '[[true,3],[3,true]]',
    # "ab" reads as a,b or as ab
    '{"type":"matrix","m":[[1,3,2],[3,1,3],[2,3,1]],'
    '"labels":["a","b","ab"]}',
    # no label is a concatenation of others, yet "abc" reads as ab,c
    # or as a,bc
    '{"type":"matrix","m":[[1,3,2,2],[3,1,3,2],[2,3,1,3],[2,2,3,1]],'
    '"labels":["ab","c","a","bc"]}',
])
def test_bad_group_descriptor_is_one_error_line(capsys, group):
    code, out, err = run(capsys, [
        "poly", "--group", group, "--u", "e", "--w", "e"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


DEEP_JSON = "[" * 100_000


def test_deeply_nested_inline_group_is_one_error_line(capsys):
    code, out, err = run(capsys, [
        "poly", "--group", DEEP_JSON, "--u", "e", "--w", "e"])
    assert (code, out) == (1, "")
    assert err == "error: group descriptor is nested too deeply\n"


def test_deeply_nested_group_file_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    code, out, err = run(capsys, [
        "poly", "--group", str(path), "--u", "e", "--w", "e"])
    assert (code, out) == (1, "")
    assert err == "error: group file %r is nested too deeply\n" % str(path)


# a descriptor nested just under the recursion limit: an error names the
# bad entry by its position and type, never by its value
NESTED_900 = "[" * 900 + "]" * 900


@pytest.mark.parametrize("group", [
    NESTED_900,
    '{"type":"matrix","m":%s}' % NESTED_900,
    '{"type":"matrix","m":[[1,3],[3,1]],"labels":["s",%s]}' % NESTED_900,
], ids=["inline-matrix", "matrix-spec", "labels"])
def test_error_line_names_the_bad_entry_not_its_value(capsys, group):
    code, out, err = run(capsys, [
        "poly", "--group", group, "--u", "e", "--w", "e"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 100
    assert err.endswith("; got list\n")


# a long rejected string is echoed as a short excerpt and its length
@pytest.mark.parametrize("argv", [
    ["poly", "--group", "x" * 5000, "--u", "e", "--w", "e"],
    ["poly", "--group", "A2", "--u", "s9" * 2000, "--w", "e"],
    ["poly", "--group", '{"type":"matrix","m":[[1,3],[3,1]],'
     '"labels":["s","%s"]}' % ("t u" * 700), "--u", "e", "--w", "e"],
    ["poly", "--group", "A2", "--H", "s9" * 2000, "--u", "e", "--w", "e"],
    ["invariance", "--group", "A2", "--interval", "s1" * 2000],
], ids=["group-name", "element", "labels", "generator", "interval"])
def test_long_rejected_string_is_one_short_error_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200
    assert "characters)" in err


# a few bytes of argument that would ask for a huge matrix, H family or
# sweep of an infinite group
@pytest.mark.parametrize("argv, message", [
    (["poly", "--group", "A30000", "--u", "e", "--w", "s1s2"],
     "named groups have rank at most 256; got 'A30000'"),
    (["verify", "--group", "A26", "--max-length", "1"],
     "rank 26 has 2^26 generator subsets; pass --H to choose H above "
     "rank 16"),
    (["verify", "--group", "[[1,4,4],[4,1,4],[4,4,1]]", "--max-length", "40"],
     "the group has more than 65536 elements of length at most 18"),
], ids=["named-rank", "default-H", "infinite-group-length"])
def test_oversized_input_is_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (1, "", "error: %s\n" % message)


# the label list of an unknown-label error is cut as a rejected string is
@pytest.mark.parametrize("group, have", [
    ("D256", "s1, s2, s3, s4, s5, s6, s7, s8, s9, s10,... (256 labels)"),
    ("A2", "s1, s2"),
])
def test_unknown_label_error_lists_the_first_labels(capsys, group, have):
    code, out, err = run(capsys, [
        "verify", "--group", group, "--H", "e", "--max-length", "1"])
    assert (code, out) == (1, "")
    assert err == "error: unknown generator label 'e' (have %s)\n" % have
    assert len(err.encode()) < 200


# ---------------------------------------------------------------------------
# poly


def test_poly_trivial_pair(capsys):
    code, data = run_json(capsys, [
        "poly", "--group", "A2", "--u", "s1s2", "--w", "s1s2"])
    assert code == 0
    assert data["R"] == {"coeffs": [1]}
    assert data["P"] == {"coeffs": [1]}


def test_poly_one_step(capsys):
    code, out, err = run(capsys, [
        "poly", "--group", "A2", "--H", "", "--u", "e", "--w", "s1"])
    assert code == 0
    assert "R = q - 1" in out
    assert "P = 1" in out


def test_poly_accepts_spaced_and_comma_words(capsys):
    code1, data1 = run_json(capsys, [
        "poly", "--group", "B2", "--u", "s1 s2", "--w", "s1,s2,s1"])
    code2, data2 = run_json(capsys, [
        "poly", "--group", "B2", "--u", "s1s2", "--w", "s1s2s1"])
    assert code1 == code2 == 0
    assert data1 == data2


def test_poly_mongelli_headline_value(capsys):
    code, data = run_json(capsys, [
        "poly", "--group", "F4", "--H", "s1,s2,s3", "--x", "q",
        "--u", "s3s1s2s3s4", "--w", "s3s4s2s3s1s2s3s4"])
    assert code == 0
    assert data["P"] == {"coeffs": [0, 1]}


def test_poly_quotient_error_names_descent(capsys):
    code, out, err = run(capsys, [
        "poly", "--group", "B2", "--H", "s2", "--u", "e", "--w", "s1s2"])
    assert code == 1
    assert "s2" in err
    assert "H={s2}" in err


def test_poly_deterministic_output(capsys):
    argv = ["poly", "--group", "B3", "--H", "s1,s3", "--x", "q",
            "--u", "e", "--w", "s2s3s2", "--format", "json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# matchings


def test_matchings_single_edge(capsys):
    code, data = run_json(capsys, [
        "matchings", "--group", "A2", "--w", "s1"])
    assert code == 0
    assert data["count"] == 1
    assert data["matchings"][0]["pairs"] == [[0, 1]]


def test_matchings_count_matches_brute_force(capsys):
    i24 = CoxeterSystem.I2(4)
    top = i24.element_from_labels("s1s2s1s2")
    want = len(brute_special_matchings(build_lower_interval(i24, top)))
    code, data = run_json(capsys, [
        "matchings", "--group", "I2(4)", "--w", "s1s2s1s2"])
    assert code == 0
    assert data["count"] == want == len(data["matchings"])


def test_matchings_all_listed_are_special(capsys):
    code, data = run_json(capsys, [
        "matchings", "--group", "B2", "--H", "s1", "--w", "s2s1s2"])
    assert code == 0
    sys_ = CoxeterSystem.B(2)
    interval = build_lower_interval(sys_, sys_.element_from_labels("s2s1s2"))
    h_tags = []
    for entry in data["matchings"]:
        M = matching_from_json(interval, entry)
        assert is_special(interval, M)
        h_tags.append(entry["h_special"])
    assert any(h_tags)


def test_matchings_f4_w0_at_default_recursion_limit(capsys):
    # the search depth used to equal the interval size (1152 here)
    w0 = "s1s2s1s3s2s1s3s2s3s4s3s2s1s3s2s3s4s3s2s1s3s2s3s4"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, data = run_json(capsys, [
            "matchings", "--group", "F4", "--w", w0])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert data["count"] == 8 == len(data["matchings"])
    f4 = CoxeterSystem.F4()
    interval = build_lower_interval(f4, f4.element_from_labels(w0))
    assert len(interval) == 1152
    for entry in data["matchings"]:
        assert is_special(interval, matching_from_json(interval, entry))


# sha256 of the JSON stdout of `matchings` on [e, w0], recorded before the
# search narrowed upper covers only
@pytest.mark.parametrize("group, w, H, digest", [
    ("F4", "s1s2s1s3s2s1s3s2s3s4s3s2s1s3s2s3s4s3s2s1s3s2s3s4", "",
     "d1934032ae0bd876ef2152f7c820397ae68f7c93e1bc3eec3f0a0edaf7dd05ec"),
    ("F4", "s1s2s1s3s2s1s3s2s3s4s3s2s1s3s2s3s4s3s2s1s3s2s3s4", "s1",
     "f758c52c298e3de9e014e42786e117802db7c0fa2ac0e340f65a5cad5ce0836d"),
    ("B4", "s1s2s1s3s2s1s4s3s2s1s4s3s2s4s3s4", "s2",
     "dcee29230da93fb5ebb893b9a1fda441526df23238085fead916aa4017dcee88"),
], ids=["F4", "F4-s1", "B4-s2"])
def test_matchings_w0_stdout_pinned(capsys, group, w, H, digest):
    code, out, err = run(capsys, [
        "matchings", "--group", group, "--w", w, "--H", H, "--format", "json"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_matchings_human_stdout_pinned(capsys):
    # the human lines are rendered from the same JSON records
    code, out, err = run(capsys, [
        "matchings", "--group", "F4", "--w", "s1s2s3s2s1s4", "--H", "s1"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "7fc61b8464abf2ad728b30d6382f2ca19b214bd49d57f4ff734ce53a093a4cdf"


def rendered_matchings(group, w, H):
    """The `matchings` output built whole: the record through one
    json.dumps, and the human lines rendered from its matchings."""
    sys_ = load_group(group)
    top = sys_.element_from_labels(w)
    interval = build_lower_interval(sys_, top)
    marked = mark_interval(interval, parse_genset(sys_, H))
    found = enumerate_special_matchings(interval)
    tagged = [dict(matching_to_json(M), h_special=is_H_special(marked, M))
              for M in found]
    words = [el.label_str() for el in interval.elements]
    data = {"group": sys_.spec, "H": format_genset(sys_, marked.H),
            "w": top.label_str(), "elements": words, "count": len(found),
            "matchings": tagged}
    lines = ["[e, %s]: %d special matchings" % (top.label_str(), len(found))]
    for M in tagged:
        pair_text = "  ".join("%s<->%s" % (words[a], words[b])
                              for a, b in M["pairs"])
        tag = "  [H-special]" if M["h_special"] else ""
        lines.append("%-12s %s%s" % (M["source"], pair_text, tag))
    return (json.dumps(data, sort_keys=True) + "\n",
            "".join(line + "\n" for line in lines))


@pytest.mark.parametrize("group, w, H", [
    ("A2", "e", ""),
    ("I2(7)", "s1s2s1s2s1", "s1"),
    ("F4", "s1s2s3s2s1s4s3", "s2"),
], ids=["e", "I2(7)", "F4"])
def test_matchings_streamed_output_equals_whole_rendering(capsys, group, w,
                                                         H):
    # the command writes one matching at a time; the bytes are those of
    # the whole record and of all its lines
    want_json, want_human = rendered_matchings(group, w, H)
    argv = ["matchings", "--group", group, "--w", w, "--H", H]
    assert run(capsys, argv + ["--format", "json"]) == (0, want_json, "")
    assert run(capsys, argv) == (0, want_human, "")


def test_matchings_past_the_listing_cap_is_one_error_line(capsys,
                                                          monkeypatch):
    # [e, s1s2s1s2] in I2(6) has 8 special matchings, [e, s1s2s1] 4
    monkeypatch.setattr(bruhatkl.matchings, "MAX_LISTED", 4)
    code, data = run_json(capsys, [
        "matchings", "--group", "I2(6)", "--w", "s1s2s1"])
    assert (code, data["count"]) == (0, 4)
    code, out, err = run(capsys, [
        "matchings", "--group", "I2(6)", "--w", "s1s2s1s2"])
    assert (code, out) == (1, "")
    assert err == ("error: [e, w] has more than 4 special matchings, "
                   "for w = 's1s2s1s2'\n")


def test_closed_stdout_pipe_ends_quietly():
    # a reader that stops early, as `| head -c 10` does.  The 88 KB of
    # output overflow the pipe, so the write meets the closed end.  Run in
    # a subprocess, since main points the stdout fd at devnull.
    src = os.path.dirname(os.path.dirname(bruhatkl.cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bruhatkl", "matchings", "--group", "F4",
         "--w", "s1s2s1s3s2s1s3s2s3s4s3s2s1s3s2s3s4s3s2s1s3s2s3s4",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.read(10) == b'{"H": "{}"'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")


# ---------------------------------------------------------------------------
# verify


def test_verify_a2_exit_zero(capsys):
    code, data = run_json(capsys, ["verify", "--group", "A2"])
    assert code == 0
    assert data["ok"] is True
    assert data["counterexamples"] == []


def test_verify_i27_full(capsys):
    code, data = run_json(capsys, ["verify", "--group", "I2(7)"])
    assert code == 0
    assert data["max_length"] == 7
    assert data["totals"]["calculating"] == data["totals"]["h_special"] > 0


def test_verify_b2_explicit_H_and_x(capsys):
    code, data = run_json(capsys, [
        "verify", "--group", "B2", "--H", "", "--H", "s1", "--x", "q"])
    assert code == 0
    assert data["H_set"] == ["{}", "{s1}"]
    assert data["x"] == "q"


def test_verify_negative_max_length_is_one_error_line(capsys):
    code, out, err = run(capsys, [
        "verify", "--group", "F4", "--max-length", "-2"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_byte_identical_across_runs(capsys):
    argv = ["verify", "--group", "B2", "--x", "q", "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    assert "wall_time" not in out1


# sha256 of the JSON stdout of whole-I2(14) sweeps, recorded while every
# special matching was listed and checked one at a time; the sweep now
# counts the matchings of all 28 intervals rank by rank
@pytest.mark.parametrize("x, digest", [
    ("q", "89f05bcc0abb4c7b96becbef39cea9916c87d627effd9f4193031cd59ec2f5c4"),
    ("-1",
     "5062571da27305019223fccb808ab1af7699d98d4b915523ba05c53e1a38f004"),
])
def test_verify_i2_14_stdout_pinned(capsys, x, digest):
    code, out, err = run(capsys, [
        "verify", "--group", "I2(14)", "--x", x, "--format", "json"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_human_reports_wall_time(capsys):
    code, out, _ = run(capsys, ["verify", "--group", "A2"])
    assert code == 0
    assert "wall time" in out
    assert "counterexamples:      0" in out


def test_verify_human_fail_lines_show_polynomials(capsys, monkeypatch):
    # R(e, s2) for H = {}, x = -1, raised by 1 in the group's table
    a2 = CoxeterSystem.A(2)
    row = get_context(a2, 0, "-1")._R_row(a2.generator(1))
    row[a2.identity] += 1
    monkeypatch.setattr(bruhatkl.cli, "load_group", lambda text: a2)
    code, out, _ = run(capsys, [
        "verify", "--group", "A2", "--H", "", "--max-length", "2"])
    assert code == 1
    assert "counterexamples:      3" in out
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "  FAIL u=e w=s2 H={} x=-1: q - 1 != q",
        "  FAIL u=e w=s1s2 H={} x=-1: q^2 - 2q + 1 != q^2 - q",
        "  FAIL u=e w=s2s1 H={} x=-1: q^2 - q != q^2 - 2q + 1",
    ]


# ---------------------------------------------------------------------------
# invariance


def test_invariance_swapped_roles(capsys):
    code, data = run_json(capsys, [
        "invariance", "--group", "B2",
        "--interval", "s1:s2s1s2", "--interval", "s2:s1s2s1"])
    assert code == 0
    records = data["records"]
    assert len(records) == 3
    cross = [r for r in records if r["first"] != r["second"]]
    assert cross[0]["isomorphic"] is True
    assert cross[0]["polynomials_equal"] is True


def test_invariance_planted_disagreement_exits_one(capsys, monkeypatch):
    # P(s1, s1s2s1) for H = {s2}, x = q, raised by 1 in the group's table
    b2 = CoxeterSystem.B(2)
    column = get_context(b2, genset([1]), "q")._P_column(
        b2.element_from_labels("s1s2s1"))
    column[b2.generator(0)] += 1
    monkeypatch.setattr(bruhatkl.cli, "load_group", lambda text: b2)
    code, data = run_json(capsys, [
        "invariance", "--group", "B2",
        "--interval", "s1:s2s1s2", "--interval", "s2:s1s2s1"])
    assert code == 1
    cross = [r for r in data["records"] if r["first"] != r["second"]]
    assert cross[0]["isomorphic"] is True
    assert cross[0]["polynomials_equal"] is False
    assert cross[0]["pairs_checked"] == 8


# sha256 of the JSON stdout of an F4 invariance scan shaped like the
# benchmark's (w of length 12, w^-1, phi(w), H:w, phi(H):phi(w)), recorded
# before the scan compared packed values and refined each entry once
F4_SCAN_ARGV = [
    "invariance", "--group", "F4", "--format", "json",
    "--interval", ":s2s3s2s1s3s2s4s3s2s1s3s4",
    "--interval", ":s1s2s3s4s3s2s1s3s2s4s3s2",
    "--interval", ":s2s3s2s1s3s2s4s3s2s1s3s4",
    "--interval", "s2:s2s3s2s1s3s2s4s3s2s1s3s4",
    "--interval", "s3:s2s3s2s1s3s2s4s3s2s1s3s4",
]
F4_SCAN_SHA256 = \
    "4d8bfd484a7f93087f7bb42a56a044470176ac90f2c9c41f42e6a7af9fb05701"


def test_invariance_f4_scan_stdout_pinned(capsys):
    code, out, err = run(capsys, F4_SCAN_ARGV)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == F4_SCAN_SHA256


# sha256 of the JSON stdout of F4 poly queries, ordinary and parabolic and
# for both x, recorded before the root backend keyed elements by w rho
F4_W0 = "s1s2s1s3s2s1s3s2s3s4s3s2s1s3s2s3s4s3s2s1s3s2s3s4"


@pytest.mark.parametrize("H, x, u, w, digest", [
    ("", "q", "e", F4_W0,
     "0f33815a17085f3c025a57c2a3260f164e4d87433e9e1da22ba4825c0588c671"),
    ("", "-1", "s1s2s1", "s3s2s1s4s3s2s1s3s2s3s4s3s2s1s3",
     "e32d2e94215a33a21734866ae42201160d42ac7b18554f84e0e8a62bd6b6b469"),
    ("s1", "q", "s1s2s3", "s3s2s4s3s2s1s3s2s3s4s3s2s1s3s2",
     "b22849a2af2da7c25e90ce270b13613cba41419109aa1f3cd9102a1c040c2c59"),
    ("s2,s4", "-1", "s1s2s3", "s3s2s1s4s3s2s1s3s2s3s4s3s2s1s3",
     "028cff5efb19c038a12601a011255b8e9ea6800683bf6f3ab62eaae25abd0bf2"),
])
def test_poly_f4_stdout_pinned(capsys, H, x, u, w, digest):
    code, out, err = run(capsys, [
        "poly", "--group", "F4", "--H", H, "--x", x, "--u", u, "--w", w,
        "--format", "json"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_invariance_shape_error(capsys):
    code, out, err = run(capsys, [
        "invariance", "--group", "A2", "--interval", "nocolon"])
    assert code == 1
    assert "H:w" in err


# ---------------------------------------------------------------------------
# mongelli


def test_mongelli_cmd(capsys):
    code, data = run_json(capsys, ["mongelli"])
    assert code == 0
    assert data["reproduced"] is True
    assert data["p_values"]["q"] == [{"coeffs": [0, 1]}, {"coeffs": []}]


def test_mongelli_human(capsys):
    code, out, _ = run(capsys, ["mongelli"])
    assert code == 0
    assert "P(x=q):  q vs 0" in out
    assert "P(x=-1): q + 1 vs 1" in out
    assert "full intervals isomorphic:      False" in out


@pytest.mark.parametrize("fmt, digest", [
    ("json",
     "1afe21c1844d89b541f7d1f26ccbe3e38c4fcd553a8c1d5fafaff3569fbd9644"),
    ("human",
     "63bb3a9e5fbefc22b30d7850d16090ec61bd8a2181414f3f78a5edd60b7aac55"),
])
def test_mongelli_stdout_pinned(capsys, fmt, digest):
    code, out, _ = run(capsys, ["mongelli", "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# export-interval


def test_export_interval(capsys):
    code, data = run_json(capsys, [
        "export-interval", "--group", "A2", "--w", "s1s2s1", "--H", "s1"])
    assert code == 0
    assert len(data["elements"]) == 6
    assert data["top"] == "s1s2s1"
    assert data["H"] == ["s1"]
    marked = [e["word"] for e in data["elements"] if e["marked"]]
    # the top s1s2s1 = s2s1s2 has both generators as right descents
    assert marked == ["e", "s2", "s1s2"]


def test_export_interval_not_lower(capsys):
    code, data = run_json(capsys, [
        "export-interval", "--group", "B2", "--u", "s1", "--w", "s1s2s1"])
    assert code == 0
    assert data["bottom"] == "s1"
    assert len(data["elements"]) == 4
