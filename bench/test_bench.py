"""Tests of the benchmark itself: every workload at smoke size, in both
modes, and each checker rejecting a deliberately corrupted result.

    python3 -m pytest -q bench
"""

import json
import os
import random
import shutil
import subprocess
import sys
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import checks  # noqa: E402
from pinquad import cochains, fixtures, ggroups, quadratic  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, script=os.path.join("bench", "run.py")):
    argv = [sys.executable, script, "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_workload(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]] == {
            "value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload == "cli_small":
        # the three malformed-input commands of each 22-command pass fail
        assert result["failed"] * 22 == result["attempted"] * 3
    else:
        assert result["failed"] == 0


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("quad_eval", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _solvers(m):
    return [cochains.CohomologySolver(m.pair, k) for k in range(m.n + 1)]


def test_cohomology_check_rejects_flipped_basis_bit():
    m = fixtures.catalog("torus")
    cob = checks.Coboundary(m.pair, m.n)
    betti = cob.betti(m.n)
    solvers = _solvers(m)
    assert checks.check_cohomology("torus", cob, solvers, betti, random.Random(1)) == []
    good = solvers[1]
    p = good.basis[0]
    values = dict(p.values)
    s = m.complex.simplices(1)[0]
    values[s] = 1 - values.get(s, 0)
    bad = cochains.Cochain(m.complex, 1, cochains.Z2, values)
    corrupt = types.SimpleNamespace(dim=good.dim, basis=(bad,) + good.basis[1:],
                                    decompose=good.decompose)
    problems = checks.check_cohomology("torus", cob, [solvers[0], corrupt, solvers[2]],
                                       betti, random.Random(1))
    assert any("not closed" in p for p in problems)


def test_cohomology_check_rejects_wrong_betti():
    m = fixtures.catalog("rp2")
    cob = checks.Coboundary(m.pair, m.n)
    problems = checks.check_cohomology("rp2", cob, _solvers(m), [1, 0, 1],
                                       random.Random(1))
    assert any("Betti" in p for p in problems)


def test_profile_check_rejects_wrong_profile():
    rp2 = ggroups.g_pin(fixtures.catalog("rp2").pair, 2)
    annulus = ggroups.g_pin(fixtures.raw_annulus_pair(), 2)
    assert checks.check_profile("rp2", ggroups.g_pin_bruteforce(
        fixtures.raw_mobius_pair(), 2), rp2) == []
    assert rp2.order == annulus.order and rp2.profile() != annulus.profile()
    assert checks.check_profile("rp2", annulus, rp2)


def test_brown_check_rejects_wrong_invariant():
    torus = fixtures.catalog("torus")
    betas = [quadratic.brown_gauss(q) for q in quadratic.enumerate_quadratics(torus)]
    assert checks.check_brown("torus", betas) == []
    assert checks.check_brown("torus", betas[:-1] + [(betas[-1] + 2) % 8])
