"""End-to-end CLI tests driving main() in process."""

import json
import math
import re
import time
import warnings

import pytest

from hhkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_elapsed_json(text: str) -> str:
    return re.sub(r'"elapsed_ms": [^}]*', '"elapsed_ms": 0', text)


def strip_elapsed_csv(text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


# ---------------------------------------------------------------------------
# the three dispatch examples


def test_verify_t1_square_text_report(capsys):
    code, out, err = run(
        capsys, "verify", "--theorem", "T1", "--function", "x^2", "--interval", "0:1"
    )
    assert code == 0
    assert err == ""
    assert "T1 holds, lhs=0.166667 rhs=0.250000 margin=0.083333" in out


def test_integrate_exp_json_report(capsys):
    code, out, err = run(
        capsys,
        "integrate", "--function", "exp(x)", "--interval", "0:1",
        "--tol", "1e-3", "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 1
    rec = records[0]
    assert rec["kind"] == "integrate"
    assert rec["verdict"] == "within_tol"
    assert math.isclose(rec["lhs"], math.e - 1.0, abs_tol=1e-3)
    assert rec["rhs"] <= 1e-3
    assert rec["inputs"]["n"] == 608
    assert rec["inputs"]["bound_p4"] <= 1e-3


def test_certify_concave_square_reports_counterexample(capsys):
    code, out, err = run(
        capsys,
        "certify", "--function", "-(x^2)", "--interval", "0:1",
        "--s", "1", "--alpha", "1", "--m", "1",
    )
    assert code == 1
    assert "falsified" in out
    assert "counterexample" in out
    assert "mu=" in out


# ---------------------------------------------------------------------------
# other subcommands


def test_bound_lists_all_theorems(capsys):
    code, out, _ = run(
        capsys, "bound", "--function", "exp(x)", "--interval", "0:1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,lhs,rhs,margin,verdict,inputs,elapsed_ms"
    assert len(lines) == 7  # header + one row per theorem
    assert all(line.startswith("bound,") for line in lines[1:])


def test_bound_single_theorem_value(capsys):
    code, out, _ = run(
        capsys,
        "bound", "--theorem", "T2", "--function", "exp(x)", "--interval", "0:1",
        "--p", "2", "--format", "json",
    )
    assert code == 0
    rec = json.loads(out)[0]
    assert math.isclose(rec["rhs"], 0.5912224658469183, rel_tol=1e-13)


def test_means_subcommand_reports_chain_and_propositions(capsys):
    code, out, _ = run(capsys, "means", "--interval", "2:8", "--format", "json")
    assert code == 0
    records = json.loads(out)
    kinds = [r["kind"] for r in records]
    assert kinds.count("mean") == 6
    assert "mean_chain" in kinds
    assert sum(1 for r in records if r["kind"] == "proposition") == 3
    by_mean = {r["inputs"]["kind"]: r["lhs"] for r in records if r["kind"] == "mean"}
    assert by_mean["arithmetic"] == 5.0
    assert by_mean["geometric"] == 4.0
    assert math.isclose(by_mean["identric"], 4.671777695304167, rel_tol=1e-13)


def test_means_text_lines(capsys):
    code, out, _ = run(capsys, "means", "--interval", "2:8")
    assert code == 0
    assert "arithmetic(2, 8) = 5" in out
    assert "logarithmic(2, 8) = 4.32808512267" in out


def test_means_text_lines_stay_short_at_huge_values(capsys):
    # fixed point would spell out every integer digit of P3's rhs ~ 6.7e299
    code, out, _ = run(capsys, "means", "--interval", "1:1e100")
    assert code == 0
    assert max(len(line) for line in out.splitlines()) <= 120
    assert "P3 holds, lhs=1.666667e+199 rhs=6.666667e+299" in out


def test_verify_json_rows_use_the_suite_layout(capsys):
    code, out, _ = run(
        capsys, "verify", "--function", "exp(x)", "--interval", "0:1", "--format", "json"
    )
    assert code == 0
    keys = ["theorem", "function", "a", "b", "s", "alpha", "m", "sense", "hypothesis_certified"]
    for rec in json.loads(out):
        plain = rec["inputs"]["theorem"] in ("T1", "T4")
        assert list(rec["inputs"]) == keys + ([] if plain else ["p"])


def test_verify_all_theorems_when_none_given(capsys):
    code, out, _ = run(
        capsys, "verify", "--function", "exp(x)", "--interval", "0:1", "--format", "csv"
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 6
    assert all(",holds," in row for row in rows)


# ---------------------------------------------------------------------------
# determinism and serialization


def test_json_output_is_deterministic_modulo_elapsed(capsys):
    argv = ("verify", "--function", "x^2", "--interval", "0:1", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert strip_elapsed_json(first) == strip_elapsed_json(second)


def test_csv_output_is_deterministic_modulo_elapsed(capsys):
    argv = ("means", "--interval", "2:8", "--format", "csv")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert strip_elapsed_csv(first) == strip_elapsed_csv(second)


def test_floats_serialize_with_17_significant_digits(capsys):
    _, out, _ = run(
        capsys, "means", "--interval", "2:8", "--format", "csv"
    )
    rendered = "4.3280851226668906"  # f"{L(2, 8):.17g}"
    assert rendered in out
    assert float(rendered) == 4.328085122666891  # 17 digits round-trip


# ---------------------------------------------------------------------------
# configuration sources


def test_config_file_supplies_tol(tmp_path, capsys):
    cfg = tmp_path / "hhkit.json"
    cfg.write_text(json.dumps({"tol": 1e-2}))
    code, out, _ = run(
        capsys,
        "integrate", "--function", "exp(x)", "--interval", "0:1",
        "--config", str(cfg), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)[0]["inputs"]["tol"] == 1e-2


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "hhkit.json"
    cfg.write_text(json.dumps({"tol": 1e-2}))
    code, out, _ = run(
        capsys,
        "integrate", "--function", "exp(x)", "--interval", "0:1",
        "--config", str(cfg), "--tol", "5e-3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)[0]["inputs"]["tol"] == 5e-3


def test_env_var_supplies_tol(monkeypatch, capsys):
    monkeypatch.setenv("HHKIT_TOL", "0.5")
    code, out, _ = run(
        capsys, "integrate", "--function", "x^2", "--interval", "0:1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)[0]["inputs"]["tol"] == 0.5


def test_config_beats_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HHKIT_TOL", "0.5")
    cfg = tmp_path / "hhkit.json"
    cfg.write_text(json.dumps({"tol": 1e-2}))
    code, out, _ = run(
        capsys,
        "integrate", "--function", "x^2", "--interval", "0:1",
        "--config", str(cfg), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)[0]["inputs"]["tol"] == 1e-2


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "hhkit.json"
    cfg.write_text(json.dumps({"tolerance": 1e-2}))
    code, out, err = run(
        capsys,
        "certify", "--function", "x^2", "--interval", "0:1", "--config", str(cfg),
    )
    assert code == 2
    assert "unknown config keys" in err


@pytest.mark.parametrize(
    "key, value, typ", [("grid", 2.7, "int"), ("n", 2.5, "int"), ("tol", True, "float")]
)
def test_config_value_of_the_wrong_type_is_usage_error(tmp_path, capsys, key, value, typ):
    # converted from text as a flag is: int("2.7") and float("True") both fail
    cfg = tmp_path / "hhkit.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run(
        capsys, "certify", "--function", "x^2", "--interval", "0:1", "--config", str(cfg)
    )
    assert (code, out) == (2, "")
    assert err == f"error: invalid {typ} value for {key}: {value!r}\n"


@pytest.mark.parametrize("subcommand", ["verify", "bound"])
@pytest.mark.parametrize("from_config", [False, True])
def test_second_sense_on_bound_or_verify_is_usage_error(tmp_path, capsys, subcommand, from_config):
    # the bounds are stated for the first sense only, so the second must not be
    # run, and recorded, as the first
    cfg = tmp_path / "hhkit.json"
    cfg.write_text(json.dumps({"sense": "second"}))
    source = ["--config", str(cfg)] if from_config else ["--sense", "second"]
    code, out, err = run(capsys, subcommand, "--function", "x^2", "--interval", "0:1", *source)
    assert (code, out) == (2, "")
    assert err == f"error: {subcommand} takes only --sense first, got 'second'\n"
    code, out, err = run(capsys, "certify", "--function", "x^2", "--interval", "0:1", *source)
    assert (code, err) == (0, "")  # certify tests either sense


@pytest.mark.parametrize("flag, value", [("p", 3), ("theorem", "T3"), ("n", 5), ("seed", 9)])
@pytest.mark.parametrize("from_config", [False, True])
def test_certify_refuses_the_flags_it_never_reads(tmp_path, capsys, flag, value, from_config):
    # certify once ran with these ignored and exited 0
    cfg = tmp_path / "hhkit.json"
    cfg.write_text(json.dumps({flag: value}))
    source = ["--config", str(cfg)] if from_config else [f"--{flag}", str(value)]
    code, out, err = run(capsys, "certify", "--function", "x^2", "--interval", "0:1", *source)
    assert (code, out) == (2, "")
    assert err == f"error: certify does not take --{flag}\n"
    if flag in ("p", "theorem"):  # bound reads both, and still takes them
        code, out, err = run(capsys, "bound", "--function", "x^2", "--interval", "0:1", *source)
        assert (code, err) == (0, "")


def test_certify_at_m_zero_keeps_a_negative_zero_rhs(capsys):
    # fc*fx at mu = 0 is 0 * f(x) = -0.0 where f(x) < 0; the record prints it as -0
    code, out, err = run(
        capsys, "certify", "--m", "0", "--function", "1-2*x", "--interval", "0.6:1", "--format", "json"
    )
    assert (code, err) == (1, "")
    record = json.loads(out)[0]  # json reads -0 as the integer 0, so the text is checked
    assert '"rhs": -0,' in out
    assert (record["inputs"]["x"], record["inputs"]["mu"], record["lhs"]) == (0.6, 0, 1)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tol_flag_is_usage_error(capsys, value):
    code, out, err = run(
        capsys, "certify", "--function", "-(x^2)", "--interval", "0:1", "--tol", value
    )
    assert code == 2
    assert out == ""
    assert "tol must be finite" in err


def test_nan_tol_flag_on_verify_is_usage_error(capsys):
    code, out, err = run(
        capsys, "verify", "--theorem", "T1", "--function", "x^2", "--interval", "0:1",
        "--tol", "nan",
    )
    assert code == 2
    assert out == ""
    assert "tol must be finite" in err


def test_negative_tol_on_verify_is_usage_error(capsys):
    # a negative margin tolerance would report "violated" at a positive margin
    code, out, err = run(
        capsys, "verify", "--theorem", "T1", "--function", "x^2", "--interval", "0:1",
        "--tol", "-1",
    )
    assert code == 2
    assert out == ""
    assert "non-negative" in err


def test_nan_tol_from_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "hhkit.json"
    cfg.write_text(json.dumps({"tol": math.nan}))  # written as the token NaN
    code, out, err = run(
        capsys, "certify", "--function", "-(x^2)", "--interval", "0:1", "--config", str(cfg)
    )
    assert code == 2
    assert "tol must be finite" in err


def test_nan_tol_from_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("HHKIT_TOL", "nan")
    code, out, err = run(capsys, "certify", "--function", "-(x^2)", "--interval", "0:1")
    assert code == 2
    assert "tol must be finite" in err


# ---------------------------------------------------------------------------
# usage errors and argv handling


def test_bad_interval_is_usage_error(capsys):
    code, _, err = run(capsys, "certify", "--function", "x^2", "--interval", "0:0")
    assert code == 2
    assert "error:" in err


def test_missing_function_is_usage_error(capsys):
    code, _, err = run(capsys, "certify", "--interval", "0:1")
    assert code == 2
    assert "requires --function" in err


def test_unparseable_function_is_usage_error(capsys):
    code, _, err = run(capsys, "certify", "--function", "x +", "--interval", "0:1")
    assert code == 2
    assert "position" in err


def test_overflowing_literal_is_usage_error(capsys):
    code, out, err = run(capsys, "bound", "--function", "1e400", "--interval", "0:1")
    assert code == 2
    assert out == ""
    assert err == "error: numeric literal '1e400' overflows float64 (position 0)\n"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("bound", "--function", "10^400"), "'10^400' overflows float64"),
        (("bound", "--function", "x + 1/1e-200"), "'x + 1/1e-200' divides by zero in float64"),
        (
            ("verify", "--theorem", "T2", "--p", "1.01", "--function", "exp(3*x)"),
            "|f'|^q overflows float64 at the endpoints (q = 101)",
        ),
    ],
    ids=["power-of-constants", "tiny-divisor", "holder-power"],
)
def test_python_float_overflow_is_usage_error(capsys, argv, reason):
    interval = "1:3" if argv[0] == "verify" else "0:1"
    code, out, err = run(capsys, *argv, "--interval", interval)
    assert code == 2
    assert out == ""
    assert err == f"error: {reason}\n"


@pytest.mark.parametrize("theorem", [("--theorem", "T2"), ()], ids=["T2", "all"])
def test_non_finite_hypothesis_lattice_is_usage_error(capsys, theorem):
    # |f'|^101 is finite at the endpoints, which the bound uses, but overflows
    # inside; without --theorem the whole run fails too, T1 and T4 rows included
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning precedes the one-line error
        code, out, err = run(
            capsys, "verify", *theorem, "--p", "1.01",
            "--function", "2000*exp(-((x-2)^2))", "--interval", "0:4",
        )  # fmt: skip
    assert code == 2
    assert out == ""
    assert err == "error: the hypothesis function is not finite on the certify lattice\n"


def test_unknown_theorem_is_usage_error(capsys):
    code, _, err = run(
        capsys, "verify", "--theorem", "T9", "--function", "x^2", "--interval", "0:1"
    )
    assert code == 2


@pytest.mark.parametrize("subcommand", ["bound", "verify"])
@pytest.mark.parametrize("theorem", ["T1", "T4"])
def test_invalid_p_with_plain_theorem_is_usage_error(capsys, subcommand, theorem):
    # T1 and T4 take no exponent, but an invalid --p is still rejected, as it
    # is when no theorem is named
    code, out, err = run(
        capsys, subcommand, "--theorem", theorem, "--function", "x^2",
        "--interval", "0:1", "--p", "0.5",
    )
    assert code == 2
    assert out == ""
    assert "p must exceed 1" in err


@pytest.mark.parametrize("subcommand", ["bound", "verify", "integrate"])
def test_infinite_p_is_usage_error(capsys, subcommand):
    # p = inf gives q = nan: bound printed rhs=nan and exited 0, verify blamed
    # the lattice and integrate failed converting nan to a panel count
    code, out, err = run(
        capsys, subcommand, "--theorem", "T2", "--function", "x^2",
        "--interval", "1:2", "--p", "inf",
    )
    assert (code, out) == (2, "")
    assert err == "error: p must exceed 1 and be finite, got inf\n"


@pytest.mark.parametrize(
    "interval, a, b",
    [
        ("1:1e154", "1.0", "1e+154"),  # the p-logarithmic mean overflows
        ("1e-300:1e-299", "1e-300", "1e-299"),  # the geometric mean underflows to 0
    ],
)
def test_means_out_of_float64_range_is_input_error(capsys, interval, a, b):
    code, out, err = run(capsys, "means", "--interval", interval)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: means at a={a}, b={b} leave the float64 range")
    assert err.count("\n") == 1


def test_integrate_reports_a_falsified_hypothesis_without_warning(capsys):
    # |f'| = 2x - x^2/2 is concave on [0, 1], so the bounds are not guaranteed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "integrate", "--function", "x^2 - x*x*x/6", "--interval", "0:1",
            "--tol", "1e-4", "--format", "json",
        )  # fmt: skip
    assert (code, err) == (0, "")
    assert [rec["verdict"] for rec in json.loads(out)] == ["hypothesis_falsified"]


def test_means_json_proposition_rows_list_their_inputs(capsys):
    code, out, _ = run(capsys, "means", "--interval", "1:2", "--n", "-3", "--format", "json")
    assert code == 0
    rows = [r["inputs"] for r in json.loads(out) if r["kind"] == "proposition"]
    assert [list(ins) for ins in rows] == [
        ["proposition", "a", "b", "p", "q"],
        ["proposition", "a", "b", "p", "q"],
        ["proposition", "a", "b", "p", "q", "n"],
    ]
    assert [ins["proposition"] for ins in rows] == ["P1", "P2", "P3"]
    assert rows[2]["n"] == -3


def test_integrate_past_panel_cap_is_refused_with_predicted_n(capsys):
    # the default tol 1e-6 needs about 5.7e7 panels for x^4 on [1, 3]
    code, out, err = run(capsys, "integrate", "--function", "x^4", "--interval", "1:3")
    assert code == 2
    assert out == ""
    assert "predicted n = 56568542" in err
    assert "n_cap = 16777216" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_negative_interval_with_equals_syntax(capsys):
    code, out, _ = run(
        capsys, "certify", "--function", "x^2", "--interval=-1:1"
    )
    assert code == 0
    assert "not_falsified" in out


def test_leading_dash_function_value_is_normalized(capsys):
    # "--function -(x^2)" must not be eaten by argparse as an option
    code, out, _ = run(capsys, "certify", "--function", "-(x^2)", "--interval=-1:1")
    assert code == 1
    assert "falsified" in out


def test_certify_past_the_lattice_cap_fails_fast(capsys):
    # grid 2000 is 8e9 lattice points, minutes of work; refused before any
    start = time.perf_counter()
    code, out, err = run(
        capsys, "certify", "--function", "exp(x)", "--interval", "0:1", "--grid", "2000"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "grid_n=2000" in err
    assert "8000000000 points" in err
    assert "cap of 1073741824" in err


@pytest.mark.parametrize("interval", ["1:2", "-2:-1"])
def test_certify_at_m_zero_evaluates_down_to_zero(capsys, interval):
    # the m = 0 lattice evaluates f(mu*x) for mu in [0, 1], so 0 is in the domain
    code, out, err = run(
        capsys, "certify", "--m", "0", "--function", "x^2", f"--interval={interval}"
    )
    assert (code, err) == (0, "")
    assert "not_falsified" in out


def test_certify_at_m_zero_finds_a_true_counterexample(capsys):
    code, out, _ = run(
        capsys, "certify", "--m", "0", "--function", "-(x^2)", "--interval", "1:2"
    )
    assert code == 1
    # f(mu*x) > mu*f(x) at x = 2, mu = 0.489796: -0.9596 > -1.95918
    assert "falsified, worst_margin=-0.999584" in out
    assert "counterexample x=2 y=0 mu=0.489796" in out


def test_certify_at_m_zero_keeps_the_function_domain(capsys):
    code, out, err = run(
        capsys, "certify", "--m", "0", "--function", "log(x)", "--interval", "1:2"
    )
    assert code == 2
    assert out == ""
    assert "log argument must be positive" in err
