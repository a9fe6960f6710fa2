"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest bench/tests -q

The end-to-end tests run bench/run.py with --small, which keeps the same
code paths but shrinks every workload to a few operations.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int, cwd: str = ROOT, script: str = os.path.join(BENCH, "run.py")):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in final["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in final["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_radial_small_counts_the_t51_fault():
    proc = _bench("radial-verdicts", 0)
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    # T5.1 at alpha = 0.2 fails; T3.1, T4.1 at 0.2 and 0.5 and T5.1 at 0.5 pass
    assert (final["failed"], final["attempted"]) == (1, 6)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    runs = [_bench(workload, 1) for _ in range(2)]
    counts = []
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert any(v > 0 for v in counts[0].values())


def test_refuses_to_run_without_the_package():
    # a directory holding only BENCHMARK.json and bench/
    bare = os.path.join(BENCH, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _bench("operator-forms", 0, cwd=bare, script=os.path.join(bare, "bench", "run.py"))
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --- the checks flag perturbed results ------------------------------------------


def _radial_record(tid, alpha, computed, passed=True):
    return {"inputs": {"theorem": tid, "alpha": alpha}, "computed": computed, "passed": passed}


def test_radial_check_flags_perturbed_values():
    wl = workloads.RadialVerdicts(0, small=True)
    records = [
        _radial_record("T3.1", 0.25, 4.0 * 1.001),   # within 1 %
        _radial_record("T3.1", 0.25, 4.0 * 1.02),    # 2 % off
        _radial_record("T5.1", 0.5, 2.0 * 0.98),     # below 0.99/alpha
        _radial_record("T4.1", 0.5, 0.4807322228),  # today's value
        _radial_record("T4.1", 0.5, 0.46),          # below the mpmath profile at r = 0.9
        _radial_record("T4.1", 0.5, 0.75),          # above 1/(1 + alpha log 2)
    ]
    outcomes = wl.check(records)
    assert [o.failed for o in outcomes] == [False, True, True, False, True, True]
    assert all(o.wrong == o.failed for o in outcomes)  # every record claimed a pass


def test_program_reported_failure_is_failed_but_not_wrong():
    wl = workloads.RadialVerdicts(0, small=True)
    [o] = wl.check([_radial_record("T5.1", 0.2, 4.731, passed=False)])
    assert o.failed and not o.wrong


def test_empirical_check_flags_values_outside_the_paper_interval():
    wl = workloads.EmpiricalSampler(0, small=True)

    def rec(source, target, alpha, computed):
        return {"inputs": {"source": source, "target": target, "alpha": alpha},
                "exit": 0, "passed": True, "computed": computed}

    upper = reference.t62_upper(1.5)
    outcomes = wl.check([
        rec("bloch", "bloch", 1.5, 1.84),
        rec("bloch", "bloch", 1.5, upper * 1.001),
        rec("hardy", "bloch", 1.0, 2.9999999622),
        rec("hardy", "bloch", 1.0, 2.99),
        rec("korenblum", "korenblum", 0.25, 3.979),
        rec("korenblum", "korenblum", 0.25, 4.01),
        rec("korenblum-log", "korenblum-log", 0.5, 1.98),
    ])
    assert [o.failed for o in outcomes] == [False, True, False, True, False, True, True]


def test_forms_check_flags_a_perturbed_value():
    wl = workloads.OperatorForms(5, small=True)
    op = wl.ops(0)[0]
    rec = {"inputs": op.inputs, **op.collect(op.run())}
    assert not wl.check([rec])[0].failed
    for i in range(3):          # polynomial, plain extremal, log extremal
        for j in range(3):      # integral, semigroup, derivative form
            bad = [[np.array(v, copy=True) for v in row] for row in rec["values"]]
            bad[i][j][-1] += 1e-7 * max(1.0, abs(bad[i][j][-1]))
            [o] = wl.check([{"inputs": op.inputs, "values": bad}])
            assert o.failed and o.wrong, (i, j)


def test_t62_closed_form_matches_the_paper_at_alpha_two():
    assert reference.t62_upper(2.0) == pytest.approx(4.0)
