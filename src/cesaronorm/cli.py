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
suppresses the wall time.  CESARO_THREADS caps the worker threads used
for independent alphas (default 1).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .empirical import SampleConfig, operator_norm_lower_bound
from .errors import ConvergenceError, DomainError, PreconditionError
from .numerics import DivergenceFlag
from .spaces import BlochAlpha, HardyInf, Korenblum, KorenblumLog
from .theorems import (
    DEFAULT_TOLS,
    THEOREM_IDS,
    TheoremVerdict,
    bloch_upper_bound,
    hardy_to_bloch_bounds,
    integrand_F,
    korenblum_norm_exact,
    log_denominator,
    log_ratio,
    log_to_log_norm,
    log_to_plain_lower_bound,
    log_to_plain_norm,
    verify_theorem,
)

# alpha ranges accepted by `verify`; T3.1 is capped where the exact value holds
_CLI_ALPHA_RANGE = {
    "T3.1": (0.0, 0.5, True),
    "T4.1": (0.0, 1.0, False),
    "T5.1": (0.0, 1.0, False),
    "T6.2": (1.0, math.inf, False),
    "T6.3": (1.0, math.inf, False),
    "T7.1": (0.0, math.inf, False),
}

_SPACE_NAMES = ("hardy", "korenblum", "korenblum-log", "bloch")

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

_TABLE_COLUMNS = (
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
)


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
            "verdicts": [
                v.to_dict() if isinstance(v, TheoremVerdict) else v for v in self.verdicts
            ],
            "artifacts": self.artifacts,
            "wall_time": self.wall_time,
        }


class UsageError(Exception):
    pass


def _thread_count() -> int:
    raw = os.environ.get("CESARO_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _parallel_map(fn, items):
    threads = _thread_count()
    items = list(items)
    if threads == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def _parse_alpha_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad alpha list {text!r}: {exc}") from None
    if not values:
        raise UsageError("alpha list is empty")
    return values


def parse_grid(text: str) -> list[float]:
    """start:stop:step, inclusive of start, exclusive of stop + step/2."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from None
    if step <= 0.0 or not all(map(math.isfinite, (start, stop, step))):
        raise UsageError("grid step must be positive and finite")
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


def _check_verify_alpha(theorem_id: str, alpha: float):
    lo, hi, closed_hi = _CLI_ALPHA_RANGE[theorem_id]
    ok = alpha > lo and (alpha <= hi if closed_hi else alpha < hi)
    if not ok:
        upper = "<=" if closed_hi else "<"
        raise UsageError(
            f"{theorem_id} requires {lo:g} < alpha {upper} {hi:g}, got {alpha:g}"
        )


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
        d = v.to_dict() if isinstance(v, TheoremVerdict) else dict(v)
        theoretical = d.get("theoretical")
        if isinstance(theoretical, (list, tuple)):
            low, high = theoretical
        else:
            low = high = theoretical
        rows.append(
            [
                _format_cell(d.get("theorem_id")),
                _format_cell(d.get("alpha")),
                _format_cell(low),
                _format_cell(high),
                _format_cell(d.get("computed")),
                _format_cell(d.get("tolerance")),
                _format_cell(d.get("passed")),
                _format_cell(d.get("notes")),
            ]
        )
    return rows


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(payload: str, output: Optional[str], report: RunReport):
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _finish(report: RunReport, args, payload_csv: Optional[str], started: float) -> None:
    # record the artifact before serializing so the payload lists itself
    if args.output:
        report.artifacts.append(args.output)
    if not args.no_timestamp:
        report.wall_time = time.monotonic() - started
    if args.format == "csv":
        _emit(payload_csv if payload_csv is not None else "", args.output, report)
        return
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.output, report)


def _cmd_verify(args) -> int:
    started = time.monotonic()
    alphas = _parse_alpha_list(args.alpha)
    if args.theorem not in THEOREM_IDS:
        raise UsageError(f"unknown result id {args.theorem!r}; choose from {THEOREM_IDS}")
    for a in alphas:
        _check_verify_alpha(args.theorem, a)
    tol = args.tol if args.tol is not None else DEFAULT_TOLS[args.theorem]
    if tol <= 0:
        raise UsageError("tolerance must be positive")
    verdicts = _parallel_map(lambda a: verify_theorem(args.theorem, a, tol), alphas)
    report = RunReport(
        command="verify",
        parameters={"theorem": args.theorem, "alpha": alphas, "tol": tol},
        verdicts=list(verdicts),
    )
    _finish(report, args, _csv_text(_VERDICT_COLUMNS, _verdict_rows(verdicts)), started)
    return 0 if all(v.passed for v in verdicts) else 1


def _table_row(alpha: float) -> dict:
    row = {name: None for name in _TABLE_COLUMNS}
    row["alpha"] = alpha
    if 0.0 < alpha <= 0.5:
        row["t31_exact"] = korenblum_norm_exact(alpha)
    if 0.0 < alpha < 1.0:
        row["t41_sup"] = log_to_plain_norm(alpha).value
        row["t41_lower_bound"] = log_to_plain_lower_bound(alpha)
        row["t51_sup"] = log_to_log_norm(alpha).value
        row["t51_reciprocal_alpha"] = 1.0 / alpha
    if alpha > 1.0:
        row["t62_upper"] = bloch_upper_bound(alpha)
        row["t63_lower"] = 1.5
    if alpha >= 1.0:
        low, high = hardy_to_bloch_bounds(alpha)
        row["t71_low"] = low
        row["t71_high"] = high
    return row


def _cmd_table(args) -> int:
    started = time.monotonic()
    alphas = parse_grid(args.alpha_grid)
    for a in alphas:
        if a <= 0.0:
            raise UsageError("alpha grid must stay positive")
    rows = _parallel_map(_table_row, alphas)
    report = RunReport(command="table", parameters={"alpha_grid": args.alpha_grid})
    if args.output:
        report.artifacts.append(args.output)
    payload = report.to_dict()
    payload["table"] = rows
    csv_rows = [[_format_cell(row[name]) for name in _TABLE_COLUMNS] for row in rows]
    if not args.no_timestamp:
        report.wall_time = time.monotonic() - started
        payload["wall_time"] = report.wall_time
    if args.format == "csv":
        _emit(_csv_text(_TABLE_COLUMNS, csv_rows), args.output, report)
    else:
        _emit(json.dumps(payload, indent=2) + "\n", args.output, report)
    return 0


def _build_space(name: str, alpha: float):
    if name == "hardy":
        return HardyInf()
    if name == "korenblum":
        return Korenblum(alpha)
    if name == "korenblum-log":
        return KorenblumLog(alpha)
    if name == "bloch":
        return BlochAlpha(alpha)
    raise UsageError(f"unknown space {name!r}; choose from {_SPACE_NAMES}")


def _empirical_bounds(source, target, alpha: float, memo: dict):
    """Theoretical (low, high) the sampled lower bound is compared against."""
    if isinstance(source, Korenblum):
        return 0.0, korenblum_norm_exact(alpha)
    if isinstance(source, KorenblumLog) and isinstance(target, Korenblum):
        return log_to_plain_lower_bound(alpha), log_to_plain_norm(alpha, memo=memo).value
    if isinstance(source, KorenblumLog):
        return 0.0, log_to_log_norm(alpha, memo=memo).value
    if isinstance(source, BlochAlpha):
        return 1.5, bloch_upper_bound(alpha)
    low, high = hardy_to_bloch_bounds(alpha)
    return low, high


def _cmd_empirical(args) -> int:
    started = time.monotonic()
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    source = _build_space(args.source, args.alpha)
    target = _build_space(args.target, args.alpha)
    cfg = SampleConfig(seed=args.seed, count=args.samples)
    memo: dict = {}  # the witness and the theoretical upper end scan one profile
    est = operator_norm_lower_bound(source, target, cfg, memo=memo)
    slack = 1e-3
    params = {
        "source": args.source,
        "target": args.target,
        "alpha": args.alpha,
        "samples": args.samples,
        "seed": args.seed,
    }
    if isinstance(est, DivergenceFlag):
        verdict = TheoremVerdict(
            theorem_id="T7.1",
            alpha=args.alpha,
            theoretical=None,
            computed=est.value,
            tolerance=slack,
            passed=True,
            notes=(
                "unbounded, divergence confirmed: witness "
                f"{est.value:.6g} at r = {est.at_radius:.6g}"
            ),
        )
    elif est.diverged:
        verdict = TheoremVerdict(
            theorem_id="T7.1",
            alpha=args.alpha,
            theoretical=None,
            computed=est.value,
            tolerance=slack,
            passed=False,
            notes=f"sampled image left the target space near r = {est.argmax_radius:.6g}",
        )
    else:
        low, high = _empirical_bounds(source, target, args.alpha, memo)
        sound = est.value <= high + slack
        reaches = est.value >= low - slack
        verdict = TheoremVerdict(
            theorem_id=_pair_theorem_id(source, target),
            alpha=args.alpha,
            theoretical=(low, high),
            computed=est.value,
            tolerance=slack,
            passed=sound and reaches,
            notes=(
                f"best ratio {est.value:.9g} at r = {est.argmax_radius:.6g}, "
                f"theta = {est.argmax_angle:.6g}; soundness "
                f"{'ok' if sound else 'VIOLATED'}"
            ),
        )
    report = RunReport(command="empirical", parameters=params, verdicts=[verdict])
    _finish(report, args, _csv_text(_VERDICT_COLUMNS, _verdict_rows([verdict])), started)
    return 0 if verdict.passed else 1


def _pair_theorem_id(source, target) -> str:
    if isinstance(source, Korenblum):
        return "T3.1"
    if isinstance(source, KorenblumLog) and isinstance(target, Korenblum):
        return "T4.1"
    if isinstance(source, KorenblumLog):
        return "T5.1"
    if isinstance(source, BlochAlpha):
        return "T6.2"
    return "T7.1"


_DUMP_IDS = ("T3.1", "T4.1", "T5.1")


def _cmd_dump(args) -> int:
    started = time.monotonic()
    if args.theorem not in _DUMP_IDS:
        raise UsageError(f"dump-integrand supports {_DUMP_IDS}")
    if not 0.0 < args.alpha < 1.0:
        raise UsageError("dump-integrand needs alpha in (0, 1)")
    if args.t_points < 2:
        raise UsageError("--t-points must be at least 2")
    if args.t_max <= 0.0:
        raise UsageError("--t-max must be positive")
    radii = _parse_alpha_list(args.radii)
    for r in radii:
        if not 0.0 <= r < 1.0:
            raise UsageError(f"radius {r:g} outside [0, 1)")
    ts = np.linspace(0.0, args.t_max, args.t_points)

    if args.theorem == "T3.1":
        header = ("r", "t", "value")
    elif args.theorem == "T4.1":
        header = ("r", "t", "value", "log_denominator")
    else:
        header = ("r", "t", "value", "log_ratio")
    numeric_rows: list[list[float]] = []
    for r in radii:
        f_vals = np.asarray(integrand_F(r, ts, args.alpha), dtype=float)
        if args.theorem == "T3.1":
            for t, v in zip(ts, f_vals):
                numeric_rows.append([r, float(t), float(v)])
        elif args.theorem == "T4.1":
            denom = np.asarray(log_denominator(r, ts, args.alpha), dtype=float)
            for t, v, d in zip(ts, f_vals / denom, denom):
                numeric_rows.append([r, float(t), float(v), float(d)])
        else:
            ratios = np.asarray(log_ratio(r, ts, args.alpha), dtype=float)
            for t, v, q in zip(ts, f_vals * ratios, ratios):
                numeric_rows.append([r, float(t), float(v), float(q)])
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
    if args.output:
        report.artifacts.append(args.output)
    payload = report.to_dict()
    payload["columns"] = list(header)
    payload["rows"] = numeric_rows
    if not args.no_timestamp:
        report.wall_time = time.monotonic() - started
        payload["wall_time"] = report.wall_time
    if args.format == "csv":
        _emit(_csv_text(header, rows), args.output, report)
    else:
        _emit(json.dumps(payload, indent=2) + "\n", args.output, report)
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
    p.add_argument("--source", required=True, choices=_SPACE_NAMES)
    p.add_argument("--target", required=True, choices=_SPACE_NAMES)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: computation did not converge: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
