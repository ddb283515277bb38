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

They hold for Python 3.11.7, numpy 2.4.6 and glibc 2.36. A change that
means to move them updates GOLDEN and says why; a test failure names
every pin that moved.
"""

import hashlib

from chainsim import (
    PURE_LOSS,
    ZERO_REVENUE,
    CascadeConfig,
    GeneratorConfig,
    generate_economy,
    nash_solve,
    run_cascade,
)

GOLDEN = {
    "sweep falls": 208_173,
    "sweep sizes_digest": ("1c2c643817200586ea703c2e1ded1d44"
                           "33856a7ebc4804a82309d4a16c8fb5ae"),
    "results falls": 49_770,
    "results sha256": ("68a306589322988d76cf1fba6a0c8d86"
                       "f4a8ba057e9a3c8923c9e27ce0c4d125"),
}

GDP_GROWTH = 1.02


def sweep_inputs(n_firms):
    """Criterion 5's economy at n_firms, links x6, and its Nash decisions."""
    economy, network, _ = generate_economy(
        GeneratorConfig(n_firms=n_firms, seed=55))
    network = network.with_strengths(
        {(s, c): k * 6.0 for s, c, k in network.edges()})
    return economy, network, nash_solve(economy, network, GDP_GROWTH).decisions


def assert_pins(got):
    moved = [f"{name}: {got[name]!r}, pinned {GOLDEN[name]!r}"
             for name in got if got[name] != GOLDEN[name]]
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
