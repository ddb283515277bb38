"""The benchmark's own tests, on tiny sizes so they run in seconds."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import chainsim
from chainsim import calibration, cascade, cli, econ, game, netgen
from bench import hostspeed, run, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SEED = 1


@pytest.fixture(scope="module")
def runs():
    """One untraced and two traced tiny runs of each workload, one seed."""
    return {name: [run.run(name, SEED, 0, trace, workloads.TINY)
                   for trace in (False, True, True)]
            for name in NAMES}


def test_spec_declares_each_metric_once_with_a_direction():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert set(NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_emits_every_end_to_end_metric(runs, name):
    result = runs[name][0]
    assert set(result["metrics"]) == set(E2E)
    assert all(value > 0 for value in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_per_layer_metric(runs, name):
    for result in runs[name][1:]:
        assert set(result["metrics"]) == set(LAYER)
        assert result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_output_checks_pass(runs, name):
    for result in runs[name]:
        assert result["problems"] == []


def test_recovery_check_applies_criterion_2_thresholds():
    recovery = workloads.Recovery(workloads.TINY, SEED, "")

    def job(hits, small_error, economy=0):
        return workloads.Job(unit=economy, wall=1.0, norm=1.0, firms=100,
                             fitted=100, fit_failed=0, hits=hits,
                             small_error=small_error)

    assert recovery.check([job(90, 99), job(90, 99)]) == []
    assert len(recovery.check([job(89, 99)])) == 1
    assert len(recovery.check([job(90, 98)])) == 1
    # a repeated economy must fit the same; counted once, 95 + 95 hits
    assert len(recovery.check([job(95, 99), job(85, 99)])) == 1
    assert recovery.check([job(95, 99), job(85, 99, economy=1)]) == []


def test_each_job_is_scaled_by_the_probes_around_it():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.job_scales([]) == []
    assert hostspeed.job_scales([2 * ref] * 5) == [0.5] * 4
    # a slow spell that ends: jobs near it are scaled down, later ones not
    scales = hostspeed.job_scales([2 * ref] * 4 + [ref] * 10)
    assert len(scales) == 13
    assert scales[0] == 0.5 and scales[-1] == 1.0
    assert scales == sorted(scales)


def test_sweep_sizes_are_the_same_for_every_seed(runs):
    """The seed orders the sweep; each firm's cascade stays the same."""
    other = run.run("cascade_sweep", SEED + 1, 0, False, workloads.TINY)
    digests = {r["extra"]["sizes_digest"]
               for r in runs["cascade_sweep"] + [other]}
    assert len(digests) == 1


@pytest.mark.parametrize("name", NAMES)
def test_self_times_are_nonnegative_and_add_up_to_traced_wall(runs, name):
    for result in runs[name][1:]:
        self_s = [v for k, v in result["metrics"].items()
                  if k.endswith(".self_s")]
        assert min(self_s) >= 0.0
        assert sum(self_s) == pytest.approx(result["extra"]["traced_wall_s"],
                                            rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly_for_one_seed(runs, name):
    first, second = runs[name][1:]
    for metric, unit in LAYER.items():
        if unit in ("count", "bytes"):
            assert first["metrics"][metric] == second["metrics"][metric], metric


def test_layers_are_idle_where_the_workloads_say(runs):
    for name in NAMES:
        metrics = runs[name][1]["metrics"]
        io_calls = sum(v for k, v in metrics.items()
                       if k.startswith("io.") and k.endswith(".calls"))
        assert (io_calls > 0) == (name == "pipeline"), name
    sweep = runs["cascade_sweep"][1]["metrics"]
    assert all(v == 0 for k, v in sweep.items()
               if k.startswith(("calibration.", "bfgs.")))
    recovery = runs["recovery"][1]["metrics"]
    assert recovery["cascade.run_cascade.calls"] == 0


def test_tracing_leaves_no_wrapper_behind(runs):
    functions = [netgen.generate_economy, netgen.forward_simulate,
                 cli.forward_simulate, cli.fit_all, cli.run_cascade,
                 game.best_response_closed_form, game.best_response_ga,
                 game.nash_solve, game.customer_terms_sum, cascade.nash_solve,
                 calibration.fit_all, calibration.fit_firm,
                 calibration.minimize_bounded, cascade.run_cascade,
                 cascade.propagate_step, cascade.evaluate_supplier,
                 econ.TransactionNetwork.customers_of,
                 econ.TransactionNetwork.suppliers_of,
                 netgen.customer_terms_sum, chainsim.io.load_panel]
    assert not any(hasattr(fn, "__wrapped__") for fn in functions)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "recovery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
