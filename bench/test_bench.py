"""Tests of the benchmark itself:  python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER_UNITS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_end_to_end_metric(workload):
    res = result(bench("--workload", workload, "--seed", "1", "--seconds", "0.3",
                       "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    res = result(bench("--workload", "words", "--seed", "1", "--seconds", "0.5",
                       "--trace", "1"))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert want == PER_LAYER_UNITS
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert res["metrics"]["seifert.conway_calls"]["value"] > 0


def test_two_seeds_give_other_inputs_and_the_same_metric_names():
    for name, build in workloads.WORKLOADS.items():
        assert build_labels(build, 1) != build_labels(build, 2), name
    names = [set(result(bench("--workload", "sieve", "--seed", seed, "--seconds",
                              "0.2", "--trace", "0"))["metrics"]) for seed in "12"]
    assert names[0] == names[1]


def build_labels(build, seed):
    import linksig
    import linksig.genskein  # noqa: F401  (words send five-term requests)
    return [(r.label, tuple(w.letters for w in r.words)) for r in build(linksig, seed)]


def test_wrong_expected_value_counts_as_failure():
    import linksig
    families = workloads.families_requests(linksig, 5)[:2]
    deg9 = workloads.deg9_request(linksig, 2, 1, 23)
    for req in families + [deg9]:
        assert run.run_request(req)[1] == 0
        right = req.expect()
        req.expect = lambda right=right: ("wrong", right)
        latencies, failed = run.run_request(req)
        assert failed == len(req.calls) == len(latencies)


def test_deg9_oracle_reproduces_the_pinned_results():
    for (alpha, beta, gamma), schemes in workloads.DEG9_PINS.items():
        assert workloads.deg9_oracle(alpha, beta, gamma, False) == schemes
    for alpha in range(0, 26):
        for gamma in range(1, 27, 2):
            assert (workloads.deg9_oracle(alpha, 0, gamma, True)
                    == workloads.deg9_families(alpha, gamma)), (alpha, gamma)


def test_family_words_hit_the_scheduled_dimension():
    import linksig
    requests = workloads.families_requests(linksig, 3)[:64]
    for i, req in enumerate(requests):
        d = workloads.seifert_dimension(req.words[0])
        assert d == linksig.seifert_matrix(req.words[0]).dimension
        if i % 4 in (1, 2):  # narrow and wide families are built to size
            assert d == workloads.target_dim(i // 4), req.label


def test_tracer_restores_every_patched_function():
    import linksig
    import linksig.genskein  # noqa: F401
    before = {name: getattr(linksig.seifert, name) for name in dir(linksig.seifert)}
    tracer = Tracer()
    tracer.install(linksig)
    assert linksig.seifert.exact_determinant is not before["exact_determinant"]
    tracer.uninstall()
    assert {name: getattr(linksig.seifert, name) for name in dir(linksig.seifert)} == before


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    done = bench("--workload", "words", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
