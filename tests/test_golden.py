"""Golden bits: cascade outcomes pinned to known values, bit for bit.

The pins come from criterion 5's economy (GeneratorConfig with seed 55,
every link six times stronger, gdp_growth 1.02), with decisions frozen
by nash_solve:

- sweep: at 1000 firms, one run_cascade per firm as the only trigger.
  The total of the cascade sizes, and the sha256 of the repr of the
  size list in firm_ids order, as the cascade_sweep benchmark
  computes its sizes_digest.
- results: at 300 firms, every firm as the only trigger under both
  policies, without a cap and with max_generations 3. The total of the
  cascade sizes, and one sha256 over the repr of every CascadeResult
  in that order, so every float of every Evaluation is pinned.

Two more pins cover the rest of the package, calibration's LAPACK
solves included:

- chain: the sha256 of each of the 11 files the README's command-line
  chain writes at 1000 firms, seed 3, run in-process through cli.main
  with the README's relative paths (the files echo the paths they
  were given).
- criterion 2: the firms recovered of 10000 over the 100 noisy
  economies of test_acceptance's criterion 2.

They hold for Python 3.11.7, numpy 2.4.6 and glibc 2.36. A change that
means to move them updates GOLDEN and says why; a test failure names
every pin that moved.
"""

import contextlib
import hashlib
import io

from chainsim import (
    PURE_LOSS,
    ZERO_REVENUE,
    CascadeConfig,
    GeneratorConfig,
    generate_economy,
    nash_solve,
    run_cascade,
)
from chainsim.calibration import fit_all
from chainsim.cli import main as cli_main
from chainsim.netgen import simulate_economy

GOLDEN = {
    "sweep falls": 208_173,
    "sweep sizes_digest": ("1c2c643817200586ea703c2e1ded1d44"
                           "33856a7ebc4804a82309d4a16c8fb5ae"),
    "results falls": 49_770,
    "results sha256": ("68a306589322988d76cf1fba6a0c8d86"
                       "f4a8ba057e9a3c8923c9e27ce0c4d125"),
    "chain data/edges.csv": ("650b1bc92d54d9de93023a0f81cc9b89"
                             "ccd139d8f72fbf92ef9249488f097407"),
    "chain data/gdp.csv": ("7b4b34ae30b402198942984e8f0bc72e"
                           "802826ce1499fffeeedb49956f5a653c"),
    "chain data/panel.csv": ("d262411f33360350e1f63738f61561f2"
                             "afa8e373e23e6c66c3ff5e4d3939783f"),
    "chain data/params.csv": ("ee8936b6ccdd2881dd3790fe472e2e0c"
                              "05497c316682e2c1c0dad202804562b1"),
    "chain fit/fit_report.json": ("9a0c41147910aca7dd35e2628b9f6d9e"
                                  "a73f0977755d18a7315e1224473f8efc"),
    "chain fit/histograms.json": ("5ccc37d63c4c1f9c5e609a9d0ea14e35"
                                  "fea84ae1e8bded89e11c28410c8771ed"),
    "chain forward/gdp_sim.csv": ("b8a1b701bc6dcf83c92b7d9a8f23b664"
                                  "2bbdfef6478106db4abf154b3444b430"),
    "chain forward/panel_sim.csv": ("a600b91ee70d50c654bb6318f6090da3"
                                    "680f3716c62065b2da5c48b28c539a0a"),
    "chain shock/cascade.json": ("e6b0eceb1ba8235bf9e61742fa8717c0"
                                 "c9792dcc176bd332d9f30ad0b03078a2"),
    "chain shock/network.dot": ("99c6aaf645487433538ce16f10bccd89"
                                "09f56722bb238b9761c85d6b96095243"),
    "chain shock/network.graphml": ("025f10ae94ee2d471080f24d1fa7e8ae"
                                    "0ed5820231c74616e0709449f9b63df5"),
    "criterion 2 recovered": 9395,
}

# The README's command-line chain, at 1000 firms rather than 100.
README_CHAIN = (
    "generate --out-dir data --firms 1000 --seed 3",
    "calibrate --panel data/panel.csv --edges data/edges.csv"
    " --gdp data/gdp.csv --out-dir fit",
    "report --fit-report fit/fit_report.json --out-dir fit",
    "cascade --panel data/panel.csv --edges data/edges.csv"
    " --gdp data/gdp.csv --params data/params.csv"
    " --fit-report fit/fit_report.json --trigger F0007 --out-dir shock",
    "simulate --panel data/panel.csv --edges data/edges.csv"
    " --gdp data/gdp.csv --params data/params.csv"
    " --horizon 11 --seed 9 --out-dir forward",
)

GDP_GROWTH = 1.02


def sweep_inputs(n_firms):
    """Criterion 5's economy at n_firms, links x6, and its Nash decisions."""
    economy, network, _ = generate_economy(
        GeneratorConfig(n_firms=n_firms, seed=55))
    network = network.with_strengths(
        {(s, c): k * 6.0 for s, c, k in network.edges()})
    return economy, network, nash_solve(economy, network, GDP_GROWTH).decisions


def assert_pins(got):
    moved = [f"{name}: {got[name]!r}, pinned {GOLDEN.get(name)!r}"
             for name in got if got[name] != GOLDEN.get(name)]
    assert not moved, "golden pins moved: " + "; ".join(moved)


def test_sweep_sizes():
    economy, network, decisions = sweep_inputs(1000)
    sizes = [len(run_cascade(economy, network,
                             CascadeConfig(trigger_firms=(f,),
                                           gdp_growth=GDP_GROWTH),
                             decisions=decisions).bankrupt)
             for f in economy.firm_ids]
    assert_pins({
        "sweep falls": sum(sizes),
        "sweep sizes_digest": hashlib.sha256(repr(sizes).encode()).hexdigest(),
    })


def test_every_result_of_both_policies_with_and_without_a_cap():
    economy, network, decisions = sweep_inputs(300)
    digest, falls = hashlib.sha256(), 0
    for policy in (ZERO_REVENUE, PURE_LOSS):
        for cap in (None, 3):
            for f in economy.firm_ids:
                result = run_cascade(
                    economy, network,
                    CascadeConfig(trigger_firms=(f,), gdp_growth=GDP_GROWTH,
                                  policy=policy, max_generations=cap),
                    decisions=decisions)
                falls += len(result.bankrupt)
                digest.update(repr(result).encode())
    assert_pins({"results falls": falls,
                 "results sha256": digest.hexdigest()})


def test_readme_chain_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for command in README_CHAIN:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(command.split()) == 0, command
    # a file not written reads None, one not pinned is named too
    got = {name: None for name in GOLDEN if name.startswith("chain ")}
    for p in tmp_path.rglob("*"):
        if p.is_file():
            got[f"chain {p.relative_to(tmp_path).as_posix()}"] = (
                hashlib.sha256(p.read_bytes()).hexdigest())
    assert_pins(got)


def test_criterion_2_recovered_count():
    # test_acceptance's criterion 2 loop, counting hits only
    hits = 0
    for seed in range(100):
        economy, network, _, result = simulate_economy(
            GeneratorConfig(n_firms=100, horizon=11, seed=seed),
            noise_on=True)
        report = fit_all(result.panel, network)
        for fid, fit in report.results.items():
            truth = economy.params[fid]
            hits += (abs(fit.alpha - truth.alpha) <= 0.05
                     and abs(fit.beta - truth.beta) <= 0.05
                     and all(abs(fit.strengths[c] - k) <= 0.05
                             for c, k in network.customers_of(fid)))
    assert_pins({"criterion 2 recovered": hits})
