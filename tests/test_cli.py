import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from cosetchar.cli import main


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
    code, _, err = run(capsys, "char", "osp", "--level", "1", "--r", "1",
                       "--order", "300")
    assert code == 2
    assert "order" in err
    code, _, _ = run(capsys, "char", "osp", "--level", "1", "--r", "1",
                     "--order", "300", "--max-order", "400")
    assert code == 0


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


# half of them in range for every model; then any integer pair, or malformed text
_LABEL_TEXT = st.one_of(
    st.builds("{},{}".format, st.integers(1, 2), st.integers(1, 2)),
    st.one_of(
        st.builds("{},{}".format, st.integers(-1, 11), st.integers(-1, 11)),
        st.text(alphabet="0123456789,-x ", max_size=6),
    ),
)
# half of them valid models; then any pair, coprime or not
_MODEL = st.one_of(
    st.sampled_from(((4, 3), (5, 3), (5, 4), (7, 4), (9, 5), (8, 7))),
    st.tuples(st.integers(3, 9), st.integers(3, 9)),
)


@st.composite
def _fusion_or_classify_argv(draw):
    tail = []
    if draw(st.booleans()):
        tail = ["--format", draw(st.sampled_from(("json", "csv", "text", "xml")))]
    if draw(st.integers(0, 4)) == 0:
        return ["classify", *tail]
    argv = ["fusion", draw(st.sampled_from(("vir", "ext")))]
    argv += [str(x) for x in draw(_MODEL)[:draw(st.sampled_from((0, 1, 2, 2)))]]
    if draw(st.integers(0, 3)) == 0:
        argv.append("--table")
    for flag in ("--a", "--b"):
        if draw(st.integers(0, 4)):
            text = draw(_LABEL_TEXT)
            argv += [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]
    return argv + tail


@given(argv=_fusion_or_classify_argv())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fusion_and_classify_grammar_fuzz(argv):
    # exit 0 or 2 only; argparse's SystemExit(2) is the one exception that may
    # escape main, and a usage error leaves stdout empty
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            assert out.getvalue() == "", argv
            return
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
    else:
        assert code == 0 and err.getvalue() == "", argv
