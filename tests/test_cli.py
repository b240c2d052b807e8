import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cosetchar import cli
from cosetchar.cli import MAX_LEVEL, MAX_PQ, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kac_table_csv(capsys):
    code, out, _ = run(capsys, "kac-table", "10", "7", "--format", "csv")
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 6
    assert rows[0] == "0/1,1/40,2/5,9/8,11/5,29/8,27/5,301/40,10/1"
    assert rows[5].endswith(",0/1")


def test_kac_table_ising(capsys):
    code, out, _ = run(capsys, "kac-table", "4", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["central_charge"] == "1/2"
    assert data["rows"] == [["0/1", "1/16", "1/2"], ["1/2", "1/16", "0/1"]]


def test_kac_table_rejects_non_coprime(capsys):
    code, _, err = run(capsys, "kac-table", "10", "5")
    assert code == 2
    assert "coprime" in err


def test_char_osp_squares_to_reference(capsys):
    code, out, _ = run(capsys, "char", "osp", "--level", "1", "--r", "1",
                       "--order", "5", "--format", "json")
    assert code == 0
    from cosetchar.series import FracSeries

    series = FracSeries.loads(out)
    sq = series * series
    from fractions import Fraction as F

    assert [sq.coeff(F(-1, 30) + k) for k in range(6)] == [1, 10, 43, 132, 375, 946]


def test_char_vir_order_zero_leading_term(capsys):
    code, out, _ = run(capsys, "char", "vir", "--p", "10", "--q", "7",
                       "--r", "6", "--s", "1", "--order", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "exponent,coefficient"
    assert lines[1] == "1049/105,1/1"  # 10 - 1/105
    assert len(lines) == 2


def test_char_sl2_leading_coefficient(capsys):
    code, out, _ = run(capsys, "char", "sl2", "--level", "2", "--i", "1",
                       "--order", "0", "--format", "csv")
    assert code == 0
    assert out.strip().split("\n")[1].endswith(",2/1")


def test_char_missing_params(capsys):
    code, _, err = run(capsys, "char", "vir", "--p", "10")
    assert code == 2
    assert "needs" in err


def test_verify_decomposition_passes(capsys):
    code, out, _ = run(capsys, "verify", "decomposition", "--order", "19")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert len(report["rows"][0]["coeffs"]) == 20


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--order", "10", "--format", "text")
    assert code == 0
    assert out.count("PASS") == 4


def test_verify_even_refinement_clamps_order(capsys):
    code, out, _ = run(capsys, "verify", "even-refinement", "--order", "50")
    assert code == 0
    assert json.loads(out)["order"] == 10


def test_verify_singular_ladder_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "singular-ladder", "--order", "20")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_fusion_vir_table(capsys):
    code, out, _ = run(capsys, "fusion", "vir", "10", "7", "--table")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 27 * 27
    assert data[0]["a"] == [1, 1]


def test_verify_perturbation_fails_with_diagnostics(capsys):
    code, out, err = run(capsys, "verify", "decomposition", "--order", "10",
                         "--perturb", "3:5:-1")
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert "first mismatch" in err
    assert "119/30" not in err  # mismatch is at column 5, exponent 149/30
    assert "149/30" in err


def test_fusion_vir_single(capsys):
    code, out, _ = run(capsys, "fusion", "vir", "10", "7", "--a", "2,1", "--b", "6,1")
    assert code == 0
    data = json.loads(out)
    assert data == [{"a": [2, 1], "b": [6, 1],
                     "result": [{"r": 2, "s": 9, "mult": 1}]}]


def test_fusion_ext_unit(capsys):
    code, out, _ = run(capsys, "fusion", "ext", "--a", "1,1", "--b", "3,4")
    assert code == 0
    data = json.loads(out)
    assert data[0]["result"] == [{"r": 3, "s": 4, "mult": 1}]


def test_fusion_ext_table_shape(capsys):
    code, out, _ = run(capsys, "fusion", "ext", "--table")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 27 * 27


@pytest.mark.parametrize("positional", [("4", "6"), ("10", "7"), ("3",)])
def test_fusion_ext_refuses_positionals(capsys, positional):
    code, out, err = run(capsys, "fusion", "ext", *positional, "--a", "1,1", "--b", "1,2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_fusion_invalid_label(capsys):
    code, _, err = run(capsys, "fusion", "vir", "10", "7", "--a", "9,1", "--b", "1,1")
    assert code == 2
    assert "outside" in err


def test_classify_counts(capsys):
    code, out, _ = run(capsys, "classify")
    assert code == 0
    data = json.loads(out)
    assert data["counts"] == {"orbits": 12, "fixed": 3, "total_labels": 27}
    assert [1, 5] in data["fixed_points"]


def test_weights_level_two(capsys):
    code, out, _ = run(capsys, "weights", "--level", "2", "--r", "3")
    assert code == 0
    data = json.loads(out)
    assert data[0]["lowest_weight"] == "1/7"
    assert data[0]["lowest_dimension"] == 3


def test_singular_direct_value(capsys):
    code, out, _ = run(capsys, "singular", "--alpha", "6", "--beta", "-1",
                       "--t", "10/7", "--format", "text")
    assert code == 0
    assert out.strip() == "16/1"


def test_singular_ladder_report(capsys):
    code, out, _ = run(capsys, "singular")
    assert code == 0
    data = json.loads(out)
    assert data["check"] == "singular-ladder"
    assert data["pass"] is True


def test_order_cap(capsys):
    assert cli.MAX_ORDER == 200
    code, out, err = run(capsys, "char", "osp", "--level", "1", "--r", "1", "--order", "200")
    assert code == 0 and out and err == ""
    for order in ("201", "300", "-1"):
        code, out, err = run(capsys, "char", "osp", "--level", "1", "--r", "1",
                             "--order", order)
        assert code == 2 and out == ""
        assert err == "error: order must lie in 0..200\n"


# the cap is fixed: no subcommand has a flag that lifts it
@pytest.mark.parametrize("argv", [
    ("char", "vir", "--p", "10", "--q", "7", "--r", "1", "--s", "1", "--order", "50"),
    ("char", "osp", "--level", "1", "--r", "1"),
    ("char", "sl2", "--level", "2", "--i", "1", "--order", "3"),
    ("verify", "decomposition", "--order", "3"),
    ("verify", "central-charge"),
    ("singular", "--order", "4"),
    ("singular", "--alpha", "1", "--beta", "1", "--t", "1/2"),
])
def test_max_order_flag_is_refused(argv):
    for extra in (("--max-order", "40"), ("--max-order=400",)):
        code, out, err = _run_caught((*argv, *extra))
        assert code == 2 and out == ""
        assert "--max-order" in err.splitlines()[-1], argv


def test_byte_identical_reruns(capsys):
    _, first, _ = run(capsys, "verify", "decomposition", "--order", "8")
    _, second, _ = run(capsys, "verify", "decomposition", "--order", "8")
    assert first == second
    _, t1, _ = run(capsys, "fusion", "ext", "--table")
    _, t2, _ = run(capsys, "fusion", "ext", "--table")
    assert t1 == t2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, "kac-table", "10", "7", "--format", "csv",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    content = target.read_text()
    assert content.startswith("0/1,1/40")


@pytest.mark.parametrize("spec", ["9:0:1", "0:99:1", "-1:0:1"])
def test_perturb_outside_table_is_usage_error(capsys, spec):
    code, out, err = run(capsys, "verify", "decomposition", "--order", "5",
                         f"--perturb={spec}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: perturb position") and err.count("\n") == 1
    assert "6 x 6 summand table" in err


def test_unwritable_output_is_usage_error(capsys):
    code, out, err = run(capsys, "kac-table", "10", "7", "--output", "/nonexistent/x.json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write /nonexistent/x.json") and err.count("\n") == 1


def test_empty_output_path_is_usage_error(capsys):
    code, out, err = run(capsys, "classify", "--output", "")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write ''") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [("--order", "37"), ("--order", "200"),
                                   ("--order", "0"), ("--order=20",)])
def test_verify_central_charge_refuses_order_flags(capsys, flags):
    code, out, err = run(capsys, "verify", "central-charge", *flags)
    assert code == 2 and out == ""
    assert err == "error: verify central-charge does not read --order\n"


def _run_caught(argv):
    """(exit code, stdout, stderr) of main(argv); argparse's SystemExit(2) counts as exit 2.

    Any other exception escapes, as a traceback would.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            assert exc.code == 2 and err.getvalue().startswith("usage: "), argv
            code = 2
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("kac-table", "10", "7", "--order", "5"), "--order"),
        (("fusion", "ext", "--table", "--max-order", "3"), "--max-order"),
        (("classify", "--order", "5"), "--order"),
        (("weights", "--level", "2", "--order", "1"), "--order"),
        (("char", "vir", "--p", "10", "--q", "7", "--r", "1", "--s", "1", "--level", "2"),
         "--level"),
        (("char", "osp", "--level", "1", "--r", "1", "--i", "0"), "--i"),
        (("char", "sl2", "--level", "2", "--i", "1", "--p", "5"), "--p"),
        # abbreviations are refused too: --t would otherwise be read as --table
        (("verify", "all", "--ord", "3"), "--ord"),
        (("fusion", "ext", "--a", "1,1", "--b", "1,2", "--t"), "--t"),
    ],
)
def test_unread_flag_is_refused(argv, flag):
    code, out, err = _run_caught(argv)
    assert code == 2 and out == ""
    assert flag in err.splitlines()[-1]


@pytest.mark.parametrize("flags", [("--order", "7"), ("--order", "30"), ("--order", "0")])
def test_singular_direct_evaluation_refuses_order_flags(capsys, flags):
    code, out, err = run(capsys, "singular", "--alpha", "1", "--beta", "1", "--t", "1/2", *flags)
    assert code == 2 and out == ""
    assert err == "error: direct evaluation does not read --order\n"
    # the ladder form reads it
    code, out, err = run(capsys, "singular", *flags, "--format", "text")
    assert code == 0 and out.startswith("PASS singular-ladder") and err == ""


# the largest accepted value of each capped quantity, in a cheap input
@pytest.mark.parametrize("argv", [
    ("kac-table", MAX_PQ, MAX_PQ - 1),
    ("kac-table", 3, MAX_PQ),
    ("char", "vir", "--p", MAX_PQ, "--q", MAX_PQ - 1, "--r", 1, "--s", 1, "--order", 0),
    ("char", "osp", "--level", MAX_LEVEL, "--r", 1, "--order", 0),
    ("char", "sl2", "--level", MAX_LEVEL, "--i", 0, "--order", 0),
    ("fusion", "vir", MAX_PQ, MAX_PQ - 1, "--a", "1,1", "--b", "2,2"),
    ("weights", "--level", MAX_LEVEL, "--r", 1),
])
def test_size_caps_accept_the_cap(capsys, argv):
    assert MAX_PQ >= 12 and MAX_LEVEL >= 5  # the grammar fuzz draws up to these
    code, out, err = run(capsys, *map(str, argv))
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("argv, name", [
    (("kac-table", MAX_PQ + 1, 3), "p"),
    (("kac-table", 3, MAX_PQ + 1), "q"),
    (("char", "vir", "--p", MAX_PQ + 1, "--q", 3, "--r", 1, "--s", 1, "--order", 0), "p"),
    (("char", "vir", "--p", 200, "--q", 199, "--r", 1, "--s", 1, "--order", 200), "p"),
    (("char", "vir", "--p", 3, "--q", MAX_PQ + 1, "--r", 1, "--s", 1), "q"),
    (("char", "osp", "--level", MAX_LEVEL + 1, "--r", 1, "--order", 0), "level"),
    (("char", "sl2", "--level", MAX_LEVEL + 1, "--i", 0), "level"),
    (("fusion", "vir", MAX_PQ + 1, MAX_PQ, "--table"), "p"),
    (("fusion", "vir", 3, MAX_PQ + 1, "--a", "1,1", "--b", "1,1"), "q"),
    (("weights", "--level", MAX_LEVEL + 1), "level"),
    (("weights", "--level", 10 ** 30, "--r", 1), "level"),
])
def test_size_caps_refuse_larger_inputs(capsys, argv, name):
    code, out, err = run(capsys, *map(str, argv))
    assert code == 2 and out == ""
    assert err == f"error: {name} must not exceed {MAX_LEVEL if name == 'level' else MAX_PQ}\n"


def test_singular_direct_evaluation_refuses_csv(capsys):
    code, out, err = run(capsys, "singular", "--alpha", "1", "--beta", "1", "--t", "1/2",
                         "--format", "csv")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# The flags each subcommand reads (char: per kind), written out independently
# of the parser; any other flag must be refused.
_COMMON = ("--format", "--output")
READS = {
    "kac-table": _COMMON,
    "char vir": _COMMON + ("--order", "--p", "--q", "--r", "--s"),
    "char osp": _COMMON + ("--order", "--level", "--r"),
    "char sl2": _COMMON + ("--order", "--level", "--i"),
    "verify": _COMMON + ("--order", "--perturb"),
    "fusion": _COMMON + ("--a", "--b", "--table"),
    "classify": _COMMON,
    "weights": _COMMON + ("--level", "--r"),
    "singular": _COMMON + ("--order", "--alpha", "--beta", "--t"),
}
# one accepted argv per READS key, and a well-formed value for each flag that
# some command does not read (None: a switch)
_BASE = {
    "kac-table": ("kac-table", "4", "3"),
    "char vir": ("char", "vir", "--p", "4", "--q", "3", "--r", "1", "--s", "1", "--order", "0"),
    "char osp": ("char", "osp", "--level", "1", "--r", "1", "--order", "0"),
    "char sl2": ("char", "sl2", "--level", "1", "--i", "0", "--order", "0"),
    "verify": ("verify", "central-charge"),
    "fusion": ("fusion", "ext", "--a", "1,1", "--b", "1,1"),
    "classify": ("classify",),
    "weights": ("weights", "--level", "1"),
    "singular": ("singular", "--alpha", "1", "--beta", "1", "--t", "1/2"),
}
_SAMPLE = {"--order": "0", "--p": "4", "--q": "3", "--r": "1", "--s": "1", "--level": "1",
           "--i": "0", "--perturb": "0:0:1", "--a": "1,1", "--b": "1,1", "--table": None,
           "--alpha": "1", "--beta": "1", "--t": "1/2"}


def test_every_unread_flag_is_refused():
    for command, base in _BASE.items():
        assert _run_caught(base)[0] == 0, base
        for flag in sorted(set(_SAMPLE) - set(READS[command])):
            value = _SAMPLE[flag]
            argv = [*base, flag] if value is None else [*base, flag, value]
            code, out, err = _run_caught(argv)
            assert code == 2 and out == "" and flag in err.splitlines()[-1], argv


# half of them in range for every model; then any integer pair, or malformed text
_LABEL_TEXT = st.one_of(
    st.builds("{},{}".format, st.integers(1, 2), st.integers(1, 2)),
    st.one_of(
        st.builds("{},{}".format, st.integers(-1, 11), st.integers(-1, 11)),
        st.text(alphabet="0123456789,-x ", max_size=6),
    ),
)


def _mostly(valid, wide):
    """Draws from valid three times in four, else from wide."""
    return st.integers(0, 3).flatmap(lambda k: wide if k == 0 else valid)


# small sizes only: p, q <= 12, level <= 5, order <= 40.  OUT and MISSING
# stand for a writable and an unwritable path.
_VALUES = {
    "--format": _mostly(st.sampled_from(("json", "csv", "text")), st.just("xml")),
    "--output": st.sampled_from(("OUT", "MISSING")),
    "--order": _mostly(st.integers(0, 40), st.integers(-1, 40)),
    "--p": _mostly(st.sampled_from((5, 10, 11)), st.integers(2, 12)),
    "--q": _mostly(st.sampled_from((3, 4, 7)), st.integers(2, 12)),
    "--r": _mostly(st.integers(1, 2), st.integers(0, 12)),
    "--s": _mostly(st.integers(1, 2), st.integers(0, 12)),
    "--level": _mostly(st.integers(1, 5), st.integers(-1, 5)),
    "--i": _mostly(st.integers(0, 1), st.integers(-1, 6)),
    "--perturb": _mostly(
        st.builds("{}:{}:{}".format, st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2)),
        st.one_of(
            st.builds("{}:{}:{}".format, st.integers(-1, 6), st.integers(-1, 41),
                      st.integers(-2, 2)),
            st.text(alphabet="0123456789:-x", max_size=6),
        ),
    ),
    "--a": _LABEL_TEXT,
    "--b": _LABEL_TEXT,
    "--table": None,
    "--alpha": st.integers(-4, 4),
    "--beta": st.integers(-4, 4),
    "--t": _mostly(st.sampled_from(("10/7", "5/4", "-3/2")), st.sampled_from(("0", "1/0", "x"))),
}
# positionals after the command words of each READS key
_POSITIONALS = {
    "kac-table": _mostly(st.tuples(st.integers(3, 12), st.integers(3, 12)),
                         st.lists(st.integers(2, 12), max_size=3)),
    "char vir": st.just(()),
    "char osp": st.just(()),
    "char sl2": st.just(()),
    "verify": st.tuples(st.sampled_from(("decomposition", "all", "central-charge",
                                         "even-refinement", "singular-ladder", "x"))),
    "fusion": _mostly(
        st.one_of(st.just(("ext",)),
                  st.sampled_from(((4, 3), (5, 4), (7, 5), (12, 11))).map(lambda m: ("vir", *m))),
        st.tuples(st.sampled_from(("vir", "ext")),
                  *[st.integers(2, 12)] * 2).map(lambda t: t[:1] + t[1:][:t[1] % 3]),
    ),
    "classify": st.just(()),
    "weights": st.just(()),
    "singular": st.just(()),
}


@st.composite
def _cli_argv(draw, command):
    argv = [*command.split(), *map(str, draw(_POSITIONALS[command]))]
    own = READS[command]
    # each flag of the command never, half or nine tenths of the time, --output
    # rarely (it empties stdout); a fifth of the argvs add one flag of another
    keep = draw(st.sampled_from((0, 1, 9)))
    flags = [f for f in own if f != "--output" and draw(st.integers(0, keep))]
    if draw(st.integers(0, 7)) == 0:
        flags.append("--output")
    if draw(st.integers(0, 4)) == 0:
        flags.append(draw(st.sampled_from(sorted(set(_VALUES) - set(own)))))
    for flag in draw(st.permutations(flags)):
        if _VALUES[flag] is None:
            argv.append(flag)
            continue
        value = str(draw(_VALUES[flag]))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@pytest.mark.parametrize("command", sorted(READS))
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cli_grammar_fuzz(tmp_path_factory, command, data):
    # exit 0, 1 or 2 only, and no traceback; argparse's SystemExit(2) is the one
    # exception that may escape main; exit 1 only for a failing (perturbed)
    # report; stdout empty on exit 2; a flag the subcommand does not read refused
    argv = data.draw(_cli_argv(command))
    base = tmp_path_factory.getbasetemp()
    argv = [a.replace("MISSING", str(base / "missing" / "out.txt"))
            .replace("OUT", str(base / "out.txt")) for a in argv]
    code, out, err = _run_caught(argv)
    given_flags = {a.split("=")[0] for a in argv if a.startswith("--")}
    assert code in (0, 1, 2), argv
    if given_flags - set(READS[command]):
        assert code == 2, argv
    if code == 2:
        assert out == "", argv
        # argparse's usage message, or one line from main
        assert err.startswith("usage: ") or (
            err.startswith("error: ") and err.count("\n") == 1), argv
    elif code == 1:
        assert "--perturb" in given_flags and "first mismatch" in err, argv
    else:
        assert err == "", argv


# -- one parser per process ------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent

# every subcommand and format; usage errors that main refuses; argparse's own
# exit 2 (unknown flag, bad int, bad choice, missing subcommand) and --help.
# Neighbours that could see each other's state: the three char kinds, verify
# with and without --perturb and the order flags, singular ladder and direct.
_ISOLATION_ARGVS = [
    *[(*base, "--format", f) for base in _BASE.values() for f in ("json", "csv", "text")],
    ("verify", "decomposition", "--order", "3", "--perturb", "1:2:1"),
    ("verify", "decomposition", "--order", "3", "--max-order", "3"),
    ("verify", "all", "--order", "2", "--format", "text"),
    ("verify", "central-charge", "--order", "3"),
    ("singular", "--order", "4", "--format", "text"),
    ("singular", "--alpha", "1", "--beta", "1", "--t", "1/2", "--order", "7"),
    ("fusion", "vir", "10", "7", "--a", "2,1", "--b", "6,1", "--format", "text"),
    ("fusion", "vir", "5", "4", "--table", "--format", "csv"),
    ("fusion", "vir", "10", "7", "--a", "9,1", "--b", "1,1"),
    ("fusion", "ext", "4", "6", "--a", "1,1", "--b", "1,2"),
    ("char", "vir", "--p", "10"),
    ("char", "osp", "--level", "1", "--r", "1", "--order", "300"),
    ("kac-table", "10", "5"),
    ("kac-table", str(MAX_PQ + 1), "3"),
    ("weights", "--level", "2", "--r", "4"),
    ("weights", "--level", str(MAX_LEVEL + 1)),
    ("classify", "--output", "/nonexistent/x.json"),
    ("classify", "--bogus"),
    ("kac-table", "x", "7"),
    ("verify", "everything"),
    ("verify", "all", "--ord", "3"),
    (),
    ("--help",),
    ("char", "--help"),
    ("verify", "-h"),
]


def _run_any(argv):
    """(exit code, stdout, stderr) of main(argv); argparse's SystemExit counts as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_shared_parser_matches_a_fresh_parser_per_call(monkeypatch):
    # the old route built the grammar on every call; it is the reference
    expected = {}
    for argv in _ISOLATION_ARGVS:
        with monkeypatch.context() as m:
            m.setattr(cli, "_PARSER", cli.build_parser())
            expected[argv] = _run_any(argv)
    assert {code for code, _, _ in expected.values()} == {0, 1, 2}
    shuffled = random.Random(20261018).sample(_ISOLATION_ARGVS, len(_ISOLATION_ARGVS))
    for argv in _ISOLATION_ARGVS + shuffled:
        assert _run_any(argv) == expected[argv], argv


def test_main_never_builds_the_parser(monkeypatch):
    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for argv in (("classify",), ("char", "vir", "--p", "10"), ("--help",), ("classify", "--x")):
        assert _run_any(argv)[0] in (0, 2), argv


def test_help_reads_the_width_when_formatted(monkeypatch):
    # the shared parser was built at import; its help must still follow COLUMNS
    helps = {}
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        proc = subprocess.run(
            [sys.executable, "-m", "cosetchar.cli", "--help"],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            timeout=60,
            check=False,
        )
        assert proc.returncode == 0 and proc.stderr == b""
        helps[columns] = proc.stdout.decode()
        assert _run_any(["--help"]) == (0, helps[columns], "")
        assert cli.build_parser().format_help() == helps[columns]
    assert helps["60"] != helps["120"]
