"""Command-line front end: verdicts, norm tables, empirical bounds, dumps.

Four subcommands share one report shape:

    verify          check one identified result over a list of alphas
    table           tabulate every bound over an alpha grid
    empirical       randomized lower bound for a space pair
    dump-integrand  (r, t, value) slices of the sup-integral integrands

Reports serialize to JSON ({command, parameters, verdicts, artifacts,
wall_time}) or CSV (RFC 4180, header row).  Exit status: 0 all checks
passed, 1 a verdict failed or a computation did not converge, 2 usage
error.  Identical flags produce byte-identical JSON when --no-timestamp
suppresses the wall time.  Every result id, alpha range and bound comes
from theorems.RESULTS.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .empirical import SampleConfig, operator_norm_lower_bound, result_for_pair
from .errors import ConvergenceError, DomainError, PreconditionError
from .numerics import DivergenceFlag
from .spaces import BlochAlpha, HardyInf, Korenblum, KorenblumLog
from .theorems import RESULTS, THEOREM_IDS, TheoremVerdict, profile_integrand, verify_theorem

_SPACES = {
    "hardy": lambda alpha: HardyInf(),
    "korenblum": Korenblum,
    "korenblum-log": KorenblumLog,
    "bloch": BlochAlpha,
}

_VERDICT_COLUMNS = (
    "theorem_id",
    "alpha",
    "theoretical_low",
    "theoretical_high",
    "computed",
    "tolerance",
    "passed",
    "notes",
)

_TABLE_COLUMNS = ("alpha",) + tuple(c for r in RESULTS.values() for c in r.columns)


@dataclass
class RunReport:
    command: str
    parameters: dict
    verdicts: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    wall_time: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "artifacts": self.artifacts,
            "wall_time": self.wall_time,
        }


class UsageError(Exception):
    pass


# input sizes beyond these are rejected before anything is allocated
MAX_GRID_POINTS = 10_000
MAX_T_POINTS = 10**6


def _parse_alpha_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad alpha list {text!r}: {exc}") from None
    if not values:
        raise UsageError("alpha list is empty")
    return values


def parse_grid(text: str) -> list[float]:
    """start:stop:step, inclusive of start, exclusive of stop + step/2, at most MAX_GRID_POINTS points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from None
    if step <= 0.0 or not all(map(math.isfinite, (start, stop, step))):
        raise UsageError("grid step must be positive and finite")
    span = (stop - start) / step + 0.5  # floor(span) + 1 points, up to rounding
    if span >= MAX_GRID_POINTS:
        raise UsageError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    out = []
    k = 0
    while True:
        v = start + k * step
        if v >= stop + step / 2.0:
            break
        out.append(v)
        k += 1
    if not out:
        raise UsageError(f"grid {text!r} is empty")
    return out


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _verdict_rows(verdicts) -> list[list[str]]:
    rows = []
    for v in verdicts:
        d = v.to_dict()
        theoretical = d["theoretical"]
        low, high = theoretical if isinstance(theoretical, list) else (theoretical, theoretical)
        d.update(theoretical_low=low, theoretical_high=high)
        rows.append([_format_cell(d[name]) for name in _VERDICT_COLUMNS])
    return rows


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(payload: str, output: Optional[str]):
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _finish(report: RunReport, args, payload_csv: str, started: float, **extra) -> None:
    """Emit the report; extra keys (a table, dump rows) follow the envelope in JSON."""
    # record the artifact before serializing so the payload lists itself
    if args.output:
        report.artifacts.append(args.output)
    if not args.no_timestamp:
        report.wall_time = time.monotonic() - started
    if args.format == "csv":
        _emit(payload_csv, args.output)
        return
    _emit(json.dumps({**report.to_dict(), **extra}, indent=2) + "\n", args.output)


def _cmd_verify(args) -> int:
    started = time.monotonic()
    alphas = _parse_alpha_list(args.alpha)
    if args.theorem not in THEOREM_IDS:
        raise UsageError(f"unknown result id {args.theorem!r}; choose from {THEOREM_IDS}")
    result = RESULTS[args.theorem]
    for a in alphas:
        result.check_alpha(a)
    tol = args.tol if args.tol is not None else result.tol
    verdicts = [verify_theorem(args.theorem, a, tol) for a in alphas]
    report = RunReport(
        command="verify",
        parameters={"theorem": args.theorem, "alpha": alphas, "tol": tol},
        verdicts=verdicts,
    )
    _finish(report, args, _csv_text(_VERDICT_COLUMNS, _verdict_rows(verdicts)), started)
    return 0 if all(v.passed for v in verdicts) else 1


def _table_row(alpha: float) -> dict:
    row = {"alpha": alpha}
    for result in RESULTS.values():
        if result.admits(alpha, exact_only=True):
            row.update(zip(result.columns, result.cells(alpha)))
        else:
            row.update(dict.fromkeys(result.columns))
    return row


def _cmd_table(args) -> int:
    started = time.monotonic()
    alphas = parse_grid(args.alpha_grid)
    if min(alphas) <= 0.0:
        raise UsageError("alpha grid must stay positive")
    rows = [_table_row(a) for a in alphas]
    report = RunReport(command="table", parameters={"alpha_grid": args.alpha_grid})
    csv_rows = [[_format_cell(row[name]) for name in _TABLE_COLUMNS] for row in rows]
    _finish(report, args, _csv_text(_TABLE_COLUMNS, csv_rows), started, table=rows)
    return 0


def _cmd_empirical(args) -> int:
    started = time.monotonic()
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    source = _SPACES[args.source](args.alpha)
    target = _SPACES[args.target](args.alpha)
    result = result_for_pair(source, target)
    cfg = SampleConfig(seed=args.seed, count=args.samples)
    memo: dict = {}  # the witness and the theoretical upper end scan one profile
    est = operator_norm_lower_bound(source, target, cfg, memo=memo)
    slack = 1e-3
    params = {k: getattr(args, k) for k in ("source", "target", "alpha", "samples", "seed")}
    theoretical = None
    if isinstance(est, DivergenceFlag):
        passed = True
        notes = (
            f"unbounded, divergence confirmed: witness {est.value:.6g} at r = {est.at_radius:.6g}"
        )
    elif est.diverged:
        passed = False
        notes = f"sampled image left the target space near r = {est.argmax_radius:.6g}"
    else:
        low, high = theoretical = result.bounds(args.alpha, memo)
        sound = est.value <= high + slack
        passed = sound and est.value >= low - slack
        notes = (
            f"best ratio {est.value:.9g} at r = {est.argmax_radius:.6g}, "
            f"theta = {est.argmax_angle:.6g}; soundness "
            f"{'ok' if sound else 'VIOLATED'}"
        )
    verdict = TheoremVerdict(
        result.theorem_id, args.alpha, theoretical, est.value, slack, passed, notes
    )
    report = RunReport(command="empirical", parameters=params, verdicts=[verdict])
    _finish(report, args, _csv_text(_VERDICT_COLUMNS, _verdict_rows([verdict])), started)
    return 0 if verdict.passed else 1


def _cmd_dump(args) -> int:
    started = time.monotonic()
    dump_ids = tuple(tid for tid, r in RESULTS.items() if r.radial)
    if args.theorem not in dump_ids:
        raise UsageError(f"dump-integrand supports {dump_ids}")
    result = RESULTS[args.theorem]
    result.check_alpha(args.alpha)
    if args.t_points < 2:
        raise UsageError("--t-points must be at least 2")
    if args.t_points > MAX_T_POINTS:
        raise UsageError(f"--t-points must be at most {MAX_T_POINTS}")
    if not (math.isfinite(args.t_max) and args.t_max > 0.0):
        raise UsageError("--t-max must be positive and finite")
    radii = _parse_alpha_list(args.radii)
    for r in radii:
        if not 0.0 <= r < 1.0:
            raise UsageError(f"radius {r:g} outside [0, 1)")
    ts = np.linspace(0.0, args.t_max, args.t_points)

    header = ("r", "t", "value") + ((result.factor[0],) if result.factor else ())
    numeric_rows: list[list[float]] = []
    for r in radii:
        values, column = profile_integrand(args.theorem, r, ts, args.alpha)
        cells = (ts, values) if column is None else (ts, values, column)
        numeric_rows += [[r] + [float(c) for c in row] for row in zip(*cells)]
    rows = [[_format_cell(c) for c in row] for row in numeric_rows]
    report = RunReport(
        command="dump-integrand",
        parameters={
            "theorem": args.theorem,
            "alpha": args.alpha,
            "radii": radii,
            "t_points": args.t_points,
            "t_max": args.t_max,
        },
    )
    _finish(
        report, args, _csv_text(header, rows), started, columns=list(header), rows=numeric_rows
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesaronorm",
        description="verify norm identities and bounds for the averaging operator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="write the payload to this file")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit wall_time so identical runs are byte-identical",
        )

    p = sub.add_parser("verify", help="check one identified result")
    p.add_argument("--theorem", required=True)
    p.add_argument("--alpha", required=True, help="comma-separated list")
    p.add_argument("--tol", type=float, default=None)
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("table", help="tabulate all bounds over an alpha grid")
    p.add_argument("--alpha-grid", required=True, help="start:stop:step")
    common(p)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("empirical", help="randomized operator-norm lower bound")
    p.add_argument("--source", required=True, choices=tuple(_SPACES))
    p.add_argument("--target", required=True, choices=tuple(_SPACES))
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=_cmd_empirical)

    p = sub.add_parser("dump-integrand", help="(r, t, value) slices for plotting")
    p.add_argument("--theorem", required=True)
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--radii", default="0,0.5,0.9", help="comma-separated radii")
    p.add_argument("--t-points", type=int, default=200)
    p.add_argument("--t-max", type=float, default=10.0)
    common(p)
    p.set_defaults(fn=_cmd_dump)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.fn(args)
    except (UsageError, DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: computation did not converge: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
