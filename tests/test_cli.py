"""Command-line contract: flags, formats, exit codes, reproducibility."""

import csv
import io
import json
import math

import pytest
from jsonschema import validate

from cesaronorm import DomainError, cli, theorems, verify_theorem
from cesaronorm.cli import UsageError, main, parse_grid
from cesaronorm.numerics import DivergenceFlag
from cesaronorm.theorems import RESULTS, constant_one_bloch_sup, profile_sup

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
    assert verdict["theoretical"] == [1.0 / 0.6, None]
    assert verdict["notes"].endswith("; paper >= 1.66666667, exact only for alpha <= 0.5")
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
    # the read limit is within about 1e-14 of 1/alpha, not within 1e-16
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


# each id's table columns and the end each shows: "low" or "high" of the paper's claim, "sup" the witness value
TABLE_ENDS = {
    "T3.1": {"t31_exact": "low"},
    "T4.1": {"t41_sup": "sup", "t41_lower_bound": "low"},
    "T5.1": {"t51_sup": "sup", "t51_reciprocal_alpha": "low"},
    "T6.2": {"t62_upper": "high"},
    "T6.3": {"t63_lower": "low"},
    "T7.1": {"t71_low": "low", "t71_high": "high"},
}
RADIAL_GRID = [round(0.05 * k, 2) for k in range(1, 20)]
TABLE_GRIDS = {
    "T3.1": RADIAL_GRID,
    "T4.1": RADIAL_GRID,
    "T5.1": RADIAL_GRID,
    "T6.2": [1.0001, 1.5, 50.0, 500.0],
    "T6.3": [1.0001, 1.5, 50.0, 500.0],
    "T7.1": [0.5, math.nextafter(1.0, 0.0), 1.0, 2.0],
}


@pytest.mark.parametrize("theorem_id", sorted(TABLE_ENDS))
def test_table_cells_are_the_declared_ends_of_claim_and_witness(theorem_id):
    """Every cell is bitwise its column's end; T3.1 is blank past 1/2 and T7.1 below 1."""
    result = RESULTS[theorem_id]
    assert dict(result.columns) == TABLE_ENDS[theorem_id]
    blanks = []
    for alpha in TABLE_GRIDS[theorem_id]:
        row, claim = cli._table_row(alpha), result.claim(alpha)
        if (theorem_id == "T3.1" and alpha > 0.5) or isinstance(claim, DivergenceFlag):
            blanks.append(alpha)
            assert all(row[name] is None for name in TABLE_ENDS[theorem_id]), alpha
            continue
        for name, end in TABLE_ENDS[theorem_id].items():
            want = result.witness(alpha).value if end == "sup" else claim[("low", "high").index(end)]
            assert want is not None and row[name] == want, (name, alpha)
    # T3.1 is exact only up to 1/2, and T7.1 unbounded below 1
    assert blanks == {"T3.1": RADIAL_GRID[10:], "T7.1": TABLE_GRIDS["T7.1"][:2]}.get(theorem_id, [])


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
    assert v["theoretical"] == [4.0, 4.0]
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
        # the C(1) witness wins: its sup in L lies on the positive real axis
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


@pytest.mark.parametrize("theorem_id", ["T3.1", "T4.1", "T5.1"])
def test_dump_integrand_prints_r_t_value_for_every_radial_id(capsys, theorem_id):
    """Three columns for every id; at r = 0 the value is e^-t over the log factor c there (T4.1) or e^-t."""
    code, out, _ = run_cli(
        capsys,
        "dump-integrand",
        "--theorem",
        theorem_id,
        "--alpha",
        "0.5",
        "--radii",
        "0,0.5",
        "--t-points",
        "4",
        "--t-max",
        "3",
        "--format",
        "csv",
        "--no-timestamp",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["r", "t", "value"]
    assert len(rows) == 9 and all(len(row) == 3 for row in rows)
    scale = 1.0 / (2.0 + math.log(2.0)) if theorem_id == "T4.1" else 1.0
    for r, t, value in (map(float, row) for row in rows[1:]):
        if r == 0.0:
            assert value == pytest.approx(scale * math.exp(-t), rel=1e-15)


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
        # each witness keeps the depth of its argmax in L; C(1)'s log W first rounds to log 2 at L = 2^5.5
        ("hardy", "bloch", "1", f"{math.exp(-constant_one_bloch_sup(1.0).argmax_depth):.3e}"),
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


@pytest.mark.parametrize("target", ["korenblum", "korenblum-log"])
def test_empirical_takes_the_radial_witness_once(capsys, monkeypatch, target):
    """The sup behind both the witness and the high end of bounds is searched once per call."""
    calls = []
    search = theorems.profile_sup
    monkeypatch.setattr(theorems, "profile_sup", lambda *args: calls.append(args) or search(*args))
    argv = ("--source", "korenblum-log", "--target", target, "--alpha", "0.5", "--samples", "1")
    code, out, err = run_cli(capsys, "empirical", *argv, "--no-timestamp")
    assert code == 0, err
    assert calls == [("T5.1" if target == "korenblum-log" else "T4.1", 0.5)]
    assert json.loads(out)["verdicts"][0]["theoretical"][1] == search(*calls[0]).value
