"""Command-line contract: flags, formats, exit codes, reproducibility."""

import csv
import io
import json
import math

import pytest
from jsonschema import validate

from cesaronorm import DomainError, cli, verify_theorem
from cesaronorm.cli import UsageError, main, parse_grid
from cesaronorm.empirical import GRID_K_MAX
from cesaronorm.theorems import profile_sup

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "parameters", "verdicts", "artifacts", "wall_time"],
    "properties": {
        "command": {"type": "string"},
        "parameters": {"type": "object"},
        "verdicts": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "theorem_id",
                    "alpha",
                    "theoretical",
                    "computed",
                    "tolerance",
                    "passed",
                    "notes",
                ],
                "properties": {
                    "theorem_id": {"type": "string"},
                    "alpha": {"type": "number"},
                    "theoretical": {
                        "anyOf": [
                            {"type": "number"},
                            {"type": "null"},
                            {
                                "type": "array",
                                "minItems": 2,
                                "maxItems": 2,
                                "items": {"anyOf": [{"type": "number"}, {"type": "null"}]},
                            },
                        ]
                    },
                    "computed": {"anyOf": [{"type": "number"}, {"type": "null"}]},
                    "tolerance": {"type": "number"},
                    "passed": {"type": "boolean"},
                    "notes": {"type": "string"},
                },
            },
        },
        "artifacts": {"type": "array", "items": {"type": "string"}},
        "wall_time": {"anyOf": [{"type": "number"}, {"type": "null"}]},
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_grid():
    assert parse_grid("0.1:0.5:0.1") == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])
    assert parse_grid("2:4:1") == pytest.approx([2.0, 3.0, 4.0])
    for bad in ("1:2", "a:b:c", "0.5:0.4:-0.1", "0.9:0.5:0.1"):
        with pytest.raises(UsageError):
            parse_grid(bad)


def test_verify_json_report(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "T3.1", "--alpha", "0.25,0.5", "--no-timestamp"
    )
    assert code == 0
    report = json.loads(out)
    validate(report, REPORT_SCHEMA)
    assert report["command"] == "verify"
    assert report["wall_time"] is None
    assert [v["alpha"] for v in report["verdicts"]] == [0.25, 0.5]
    assert all(v["passed"] for v in report["verdicts"])
    assert report["verdicts"][0]["theoretical"] == 4.0


def test_verify_reports_wall_time_by_default(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "T6.3", "--alpha", "1.5")
    assert code == 0
    report = json.loads(out)
    assert report["wall_time"] > 0.0


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--theorem",
        "T3.1",
        "--alpha",
        "0.25",
        "--format",
        "csv",
        "--no-timestamp",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "theorem_id",
        "alpha",
        "theoretical_low",
        "theoretical_high",
        "computed",
        "tolerance",
        "passed",
        "notes",
    ]
    assert rows[1][0] == "T3.1"
    assert rows[1][6] == "true"
    assert float(rows[1][2]) == 4.0


def test_verify_out_of_range_alpha_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--theorem", "T3.1", "--alpha", "1.5")
    assert code == 2
    assert "T3.1" in err


def test_verify_t31_above_half_is_a_lower_bound(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "T3.1", "--alpha", "0.6", "--no-timestamp"
    )
    assert code == 0
    (verdict,) = json.loads(out)["verdicts"]
    assert verdict["passed"]
    assert verdict["notes"].startswith("lower bound only")
    assert verdict == verify_theorem("T3.1", 0.6).to_dict()


# alpha just outside each result's domain, which the CLI and the library share
@pytest.mark.parametrize(
    "theorem, library_outside, cli_outside",
    [
        ("T3.1", ("0", "1"), ("0", "1", "1.5")),
        ("T4.1", ("0", "1"), ("0", "1")),
        ("T5.1", ("0", "1"), ("0", "1")),
        ("T6.2", ("1",), ("1",)),
        ("T6.3", ("1",), ("1",)),
        ("T7.1", ("0", "-1"), ("0", "-1")),
    ],
)
def test_verify_alpha_domain_edges(capsys, theorem, library_outside, cli_outside):
    for alpha in library_outside:
        with pytest.raises(DomainError):
            verify_theorem(theorem, float(alpha))
    for alpha in cli_outside:
        code, out, err = run_cli(capsys, "verify", "--theorem", theorem, "--alpha", alpha)
        assert code == 2
        assert out == ""
        assert theorem in err


def test_verify_checks_every_alpha_before_computing(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "T3.1", "--alpha", "0.25,1.5")
    assert code == 2
    assert out == ""


def test_verify_rejects_unknown_theorem_and_bad_lists(capsys):
    assert run_cli(capsys, "verify", "--theorem", "T8.1", "--alpha", "0.3")[0] == 2
    assert run_cli(capsys, "verify", "--theorem", "T3.1", "--alpha", "zebra")[0] == 2
    assert run_cli(capsys, "verify", "--theorem", "T3.1", "--alpha", "")[0] == 2
    assert (
        run_cli(capsys, "verify", "--theorem", "T3.1", "--alpha", "0.3", "--tol", "-1")[0]
        == 2
    )


def test_verify_unbounded_clause_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "T7.1", "--alpha", "0.5", "--no-timestamp"
    )
    assert code == 0
    report = json.loads(out)
    assert "unbounded, divergence confirmed" in report["verdicts"][0]["notes"]
    assert report["verdicts"][0]["notes"].endswith(" at 1 - r = e^-700")


def test_verify_failed_verdict_exits_one(capsys):
    # the fitted limit is within about 1e-14 of 1/alpha, not within 1e-16
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "T3.1", "--alpha", "0.25", "--tol", "1e-16", "--no-timestamp"
    )
    assert code == 1
    report = json.loads(out)
    assert not report["verdicts"][0]["passed"]


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_verify_non_finite_tol_is_a_domain_error(capsys, tol):
    code, out, err = run_cli(
        capsys, "verify", "--theorem", "T3.1", "--alpha", "0.25", "--tol", tol, "--no-timestamp"
    )
    assert (code, out) == (2, "")
    assert "tolerance must be positive and finite" in err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--theorem", "T3.1", "--alpha", "0.25,0.5"),
        ("verify", "--theorem", "T6.2", "--alpha", "1.5,150"),
        ("table", "--alpha-grid", "0.1:0.9:0.4"),
        ("table", "--alpha-grid", "1:200:50"),
        ("empirical", "--source", "korenblum", "--target", "korenblum", "--alpha", "0.25",
         "--samples", "2"),
        ("empirical", "--source", "bloch", "--target", "bloch", "--alpha", "150", "--samples", "1"),
        ("dump-integrand", "--theorem", "T5.1", "--alpha", "0.3"),
    ],
    ids=" ".join,
)
def test_reports_are_strict_json(capsys, argv):
    """No NaN, Infinity or -Infinity token, which json.dumps writes and strict parsers reject."""
    code, out, err = run_cli(capsys, *argv, "--no-timestamp")
    assert code == 0, err
    json.loads(out, parse_constant=_reject_constant)


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_byte_identical_reruns(capsys):
    args = ("verify", "--theorem", "T3.1", "--alpha", "0.25", "--no-timestamp")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_output_file_lists_itself(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--theorem",
        "T3.1",
        "--alpha",
        "0.25",
        "--no-timestamp",
        "--output",
        str(path),
    )
    assert code == 0
    assert out == ""
    report = json.loads(path.read_text())
    validate(report, REPORT_SCHEMA)
    assert report["artifacts"] == [str(path)]


def test_table_json(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--alpha-grid", "0.1:0.5:0.1", "--no-timestamp"
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["table"]) == 5
    t31 = [row["t31_exact"] for row in report["table"]]
    assert t31 == pytest.approx([10.0, 5.0, 10.0 / 3.0, 2.5, 2.0])
    first = report["table"][0]
    assert first["t41_sup"] >= first["t41_lower_bound"] - 1e-6
    assert first["t62_upper"] is None
    assert first["t71_low"] is None


def test_table_covers_bloch_columns(capsys):
    code, out, _ = run_cli(capsys, "table", "--alpha-grid", "2:4:1", "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    uppers = [row["t62_upper"] for row in report["table"]]
    assert uppers[0] == 4.0
    assert uppers[1] == pytest.approx(8.0)
    assert all(row["t63_lower"] == 1.5 for row in report["table"])
    assert all(row["t31_exact"] is None for row in report["table"])
    assert [row["t71_low"] for row in report["table"]] == [1.5, 1.5, 1.5]


def test_table_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        "table",
        "--alpha-grid",
        "0.2:0.4:0.1",
        "--format",
        "csv",
        "--no-timestamp",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "alpha",
        "t31_exact",
        "t41_sup",
        "t41_lower_bound",
        "t51_sup",
        "t51_reciprocal_alpha",
        "t62_upper",
        "t63_lower",
        "t71_low",
        "t71_high",
    ]
    assert len(rows) == 4
    assert rows[1][6] == ""  # no Bloch bound below alpha = 1


def test_table_bad_grids(capsys):
    assert run_cli(capsys, "table", "--alpha-grid", "oops")[0] == 2
    assert run_cli(capsys, "table", "--alpha-grid", "0.9:0.5:0.1")[0] == 2
    assert run_cli(capsys, "table", "--alpha-grid", "-0.3:0.2:0.1")[0] == 2


def test_parse_grid_bounds_the_point_count():
    assert len(parse_grid("1:10000:1")) == 10_000
    # a step below the float spacing near start never moves start + k * step
    for big in ("1:10001:1", "0:1e9:1", "0.1:0.9:1e-300", "-1e308:1e308:1"):
        with pytest.raises(UsageError, match="more than 10000 points"):
            parse_grid(big)


@pytest.mark.parametrize("grid", ["0.1:0.9:1e-300", "0:1e9:1"])
def test_table_rejects_oversized_grids(capsys, grid):
    code, out, err = run_cli(capsys, "table", "--alpha-grid", grid)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "more than 10000 points" in err


@pytest.mark.parametrize("t_points", ["1000001", "1000000000000"])
def test_dump_integrand_rejects_too_many_t_points_before_allocating(capsys, monkeypatch, t_points):
    def no_linspace(*args, **kwargs):
        raise AssertionError("linspace called")

    monkeypatch.setattr(cli.np, "linspace", no_linspace)
    code, out, err = run_cli(
        capsys, "dump-integrand", "--theorem", "T3.1", "--alpha", "0.5", "--t-points", t_points
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--t-points" in err


def test_empirical_plain_pair(capsys):
    code, out, _ = run_cli(
        capsys,
        "empirical",
        "--source",
        "korenblum",
        "--target",
        "korenblum",
        "--alpha",
        "0.25",
        "--samples",
        "2",
        "--seed",
        "1",
        "--no-timestamp",
    )
    assert code == 0
    report = json.loads(out)
    validate(report, REPORT_SCHEMA)
    v = report["verdicts"][0]
    assert v["theorem_id"] == "T3.1"
    assert v["theoretical"] == [0.0, 4.0]
    assert v["computed"] >= 3.8
    assert "soundness ok" in v["notes"]


@pytest.mark.parametrize(
    "source, target, alpha, samples, seed",
    [
        ("korenblum", "korenblum", "0.25", "2", "1549590652"),
        ("korenblum-log", "korenblum-log", "0.5", "1", "343373188"),
    ],
)
def test_empirical_seeds_with_narrow_peaks(capsys, source, target, alpha, samples, seed):
    """Seeds whose sampled images peak close to z = 1, where the angular grid is coarse."""
    code, out, err = run_cli(
        capsys,
        "empirical",
        "--source",
        source,
        "--target",
        target,
        "--alpha",
        alpha,
        "--samples",
        samples,
        "--seed",
        seed,
        "--no-timestamp",
    )
    assert code == 0, err
    assert json.loads(out)["verdicts"][0]["passed"]


@pytest.mark.parametrize(
    "source, alpha, samples, seed",
    [
        ("hardy", "1", "3", "144810252"),
        ("bloch", "1.2", "4", "9"),
        # the C(1) witness wins: its image and derivative are PolyImage's, on the shared polar tables
        ("hardy", "2", "8", "0"),
        ("bloch", "50", "8", "0"),
    ],
)
def test_empirical_flat_argmax_reports_theta_zero(capsys, source, alpha, samples, seed):
    """Maxima on the positive real axis print theta = 0, not a few ulps off it or 2 pi."""
    code, out, err = run_cli(
        capsys,
        "empirical",
        "--source",
        source,
        "--target",
        "bloch",
        "--alpha",
        alpha,
        "--samples",
        samples,
        "--seed",
        seed,
        "--no-timestamp",
    )
    assert code == 0, err
    assert ", theta = 0; " in json.loads(out)["verdicts"][0]["notes"]


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_empirical_negative_seed_is_a_domain_error(capsys, seed):
    code, out, err = run_cli(
        capsys,
        "empirical",
        "--source",
        "hardy",
        "--target",
        "bloch",
        "--alpha",
        "1",
        "--samples",
        "1",
        "--seed",
        seed,
        "--no-timestamp",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "seed" in err


def test_empirical_unbounded_pair(capsys):
    code, out, _ = run_cli(
        capsys,
        "empirical",
        "--source",
        "hardy",
        "--target",
        "bloch",
        "--alpha",
        "0.5",
        "--samples",
        "1",
        "--no-timestamp",
    )
    assert code == 0
    report = json.loads(out)
    v = report["verdicts"][0]
    assert v["theoretical"] is None
    assert v["passed"]
    assert "divergence confirmed" in v["notes"]
    # the fit's deepest depth, where r rounds to 1
    assert v["notes"].endswith(" at 1 - r = e^-700")


@pytest.mark.parametrize(
    "source, target, alpha, theorem",
    [
        ("korenblum", "korenblum", "0.5", "T3.1"),
        ("korenblum-log", "korenblum", "0.5", "T4.1"),
        ("korenblum-log", "korenblum-log", "0.5", "T5.1"),
        ("bloch", "bloch", "1.5", "T6.2"),
        ("hardy", "bloch", "1", "T7.1"),
        ("hardy", "bloch", "0.5", "T7.1"),
        ("hardy", "bloch", "0.9", "T7.1"),
    ],
)
def test_empirical_reports_the_pair_result(capsys, source, target, alpha, theorem):
    code, out, err = run_cli(
        capsys,
        "empirical",
        "--source",
        source,
        "--target",
        target,
        "--alpha",
        alpha,
        "--samples",
        "1",
        "--no-timestamp",
    )
    assert code == 0, err
    assert json.loads(out)["verdicts"][0]["theorem_id"] == theorem


def test_empirical_rejects_unsupported_pairs(capsys):
    base = ["empirical", "--source", "hardy", "--target", "korenblum", "--alpha", "0.3"]
    assert run_cli(capsys, *base)[0] == 2
    assert (
        run_cli(
            capsys,
            "empirical",
            "--source",
            "korenblum",
            "--target",
            "korenblum",
            "--alpha",
            "0.6",
        )[0]
        == 2
    )
    assert (
        run_cli(
            capsys,
            "empirical",
            "--source",
            "korenblum",
            "--target",
            "korenblum",
            "--alpha",
            "1.5",
        )[0]
        == 2
    )
    assert (
        run_cli(
            capsys,
            "empirical",
            "--source",
            "bloch",
            "--target",
            "bloch",
            "--alpha",
            "1.5",
            "--samples",
            "0",
        )[0]
        == 2
    )


def test_dump_integrand_values(capsys):
    code, out, _ = run_cli(
        capsys,
        "dump-integrand",
        "--theorem",
        "T3.1",
        "--alpha",
        "0.5",
        "--radii",
        "0,0.5",
        "--t-points",
        "5",
        "--t-max",
        "2",
        "--no-timestamp",
    )
    assert code == 0
    report = json.loads(out)
    assert report["columns"] == ["r", "t", "value"]
    assert len(report["rows"]) == 10
    for r, t, value in report["rows"]:
        if r == 0.0:
            assert value == pytest.approx(math.exp(-t), abs=1e-12)
        if t == 0.0:
            assert value == pytest.approx(1.0, abs=1e-12)


def test_dump_integrand_log_ratio_column(capsys):
    code, out, _ = run_cli(
        capsys,
        "dump-integrand",
        "--theorem",
        "T5.1",
        "--alpha",
        "0.5",
        "--radii",
        "0",
        "--t-points",
        "4",
        "--t-max",
        "3",
        "--no-timestamp",
    )
    assert code == 0
    report = json.loads(out)
    assert report["columns"] == ["r", "t", "value", "log_ratio"]
    assert all(row[3] == 1.0 for row in report["rows"])


def test_dump_integrand_log_denominator_column(capsys):
    code, out, _ = run_cli(
        capsys,
        "dump-integrand",
        "--theorem",
        "T4.1",
        "--alpha",
        "0.5",
        "--radii",
        "0",
        "--t-points",
        "3",
        "--t-max",
        "1",
        "--format",
        "csv",
        "--no-timestamp",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["r", "t", "value", "log_denominator"]
    want = 2.0 + math.log(2.0)
    for row in rows[1:]:
        assert float(row[3]) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("t_max", ["nan", "inf"])
def test_dump_integrand_rejects_non_finite_t_max(capsys, t_max):
    code, out, err = run_cli(
        capsys, "dump-integrand", "--theorem", "T3.1", "--alpha", "0.5", f"--t-max={t_max}"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--t-max" in err


def test_dump_integrand_rejects_bad_parameters(capsys):
    base = ["dump-integrand", "--alpha", "0.5", "--theorem"]
    assert run_cli(capsys, *base, "T6.2")[0] == 2
    assert run_cli(capsys, "dump-integrand", "--theorem", "T3.1", "--alpha", "1.5")[0] == 2
    assert (
        run_cli(
            capsys,
            "dump-integrand",
            "--theorem",
            "T3.1",
            "--alpha",
            "0.5",
            "--radii",
            "0.5,1.0",
        )[0]
        == 2
    )
    assert (
        run_cli(
            capsys,
            "dump-integrand",
            "--theorem",
            "T3.1",
            "--alpha",
            "0.5",
            "--t-points",
            "1",
        )[0]
        == 2
    )
    assert (
        run_cli(
            capsys,
            "dump-integrand",
            "--theorem",
            "T3.1",
            "--alpha",
            "0.5",
            "--t-max",
            "0",
        )[0]
        == 2
    )


def test_empirical_theta_on_the_positive_axis_is_printed_near_zero(capsys):
    """C(1)' peaks on the positive real axis: theta prints near 0, not as 6.28318."""
    code, out, err = run_cli(
        capsys,
        "empirical",
        "--source",
        "bloch",
        "--target",
        "bloch",
        "--alpha",
        "1.5",
        "--samples",
        "2",
        "--no-timestamp",
    )
    assert code == 0, err
    notes = json.loads(out)["verdicts"][0]["notes"]
    theta = float(notes.split("theta = ")[1].split(";")[0])
    assert abs(theta) < 1e-6, notes


@pytest.mark.parametrize(
    "source, target, alpha, one_minus_r",
    [
        # the C(1) witness peaks on the outer grid radius 1 - 2^-30
        ("hardy", "bloch", "1", f"{2.0**-GRID_K_MAX:.3e}"),
        # the radial witness keeps the depth of its profile's argmax
        (
            "korenblum-log",
            "korenblum",
            "0.03",
            f"{math.exp(-profile_sup('T4.1', 0.03).argmax_depth):.3e}",
        ),
    ],
)
def test_empirical_argmax_near_the_circle_prints_one_minus_r(
    capsys, source, target, alpha, one_minus_r
):
    """Where r rounds to 1 at six digits, the notes print 1 - r instead of 'r = 1'."""
    code, out, err = run_cli(
        capsys,
        "empirical",
        "--source",
        source,
        "--target",
        target,
        "--alpha",
        alpha,
        "--samples",
        "1",
        "--no-timestamp",
    )
    assert code == 0, err
    notes = json.loads(out)["verdicts"][0]["notes"]
    assert f" at 1 - r = {one_minus_r}, theta = " in notes, notes
