"""Acceptance gate: one test per shipping criterion.

Each criterion is a single test so a verbose run prints exactly one
pass or fail line per criterion. Oracles are re-derived locally (dense
grid search, hand-inlined fixed point) rather than imported from the
package under test.
"""

import json
import os
import time

import numpy as np
import pytest

from chainsim import (
    REASON_EQUITY,
    REASON_WEAK_LINK,
    ZERO_REVENUE,
    PURE_LOSS,
    CascadeConfig,
    Economy,
    FirmParameters,
    FirmState,
    GameConfig,
    InvestmentDecision,
    PayoffContext,
    TransactionNetwork,
    best_response_closed_form,
    customer_terms_sum,
    expected_payoff,
    nash_solve,
    run_cascade,
    steady_state_inputs,
)
from chainsim.calibration import fit_all, residual_series
from chainsim.cli import main as cli_main
from chainsim.game import best_response_ga
from chainsim.io import export_cascade
from chainsim.netgen import GeneratorConfig, generate_economy, simulate_economy

from conftest import make_chain, steady_chain_csvs


# --- criterion 1: the noiseless panel satisfies the revenue identity ---

def test_criterion_1_noiseless_residuals_vanish():
    t0 = time.perf_counter()
    cfg = GeneratorConfig(n_firms=100, horizon=11, seed=11)
    economy, network, _, result = simulate_economy(cfg, noise_on=False)
    panel = result.panel
    worst = 0.0
    for fid in panel.firm_ids:
        pairs = network.customers_of(fid)
        customers = {cid: panel.firm(cid) for cid, _ in pairs}
        p = economy.params[fid]
        eps = residual_series(panel.firm(fid), customers, panel.gdp,
                              p.alpha, p.beta, dict(pairs))
        worst = max(worst, float(np.max(np.abs(eps))))
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: max |residual| {worst:.3e} in {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 5.0


# --- criterion 2: parameters recovered from noisy panels ---

def test_criterion_2_recovery_rate_over_100_economies():
    t0 = time.perf_counter()
    hits = total = 0
    err_small = fitted = 0
    for seed in range(100):
        cfg = GeneratorConfig(n_firms=100, horizon=11, seed=seed)
        economy, network, _, result = simulate_economy(cfg, noise_on=True)
        report = fit_all(result.panel, network)
        for fid in result.panel.firm_ids:
            total += 1
            fit = report.results.get(fid)
            if fit is None:
                continue   # unfittable counts as a miss
            fitted += 1
            err_small += fit.average_error < 0.05
            truth = economy.params[fid]
            truth_k = dict(network.customers_of(fid))
            hits += (abs(fit.alpha - truth.alpha) <= 0.05
                     and abs(fit.beta - truth.beta) <= 0.05
                     and all(abs(fit.strengths[c] - k) <= 0.05
                             for c, k in truth_k.items()))
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: {hits}/{total} firms recovered, "
          f"{err_small}/{fitted} errors < 0.05, {elapsed:.1f}s")
    assert hits / total >= 0.90
    assert err_small / fitted >= 0.99
    assert elapsed < 60.0


# --- criterion 3: both solvers agree with a dense grid ---

def _grid_argmax(ctx, config, n=400):
    p = ctx.params
    lo, hi = config.decision_bounds
    K = np.exp(np.linspace(np.log(lo * ctx.capital),
                           np.log(hi * ctx.capital), n))
    L = np.exp(np.linspace(np.log(lo * ctx.labor),
                           np.log(hi * ctx.labor), n))
    B = ctx.revenue / (ctx.capital ** p.alpha * ctx.labor ** p.beta) - p.cost_coeff
    pay = (B * np.outer(K ** p.alpha, L ** p.beta)
           - p.interest_rate * K[:, None] - L[None, :]
           + ctx.revenue * ctx.customer_terms)
    i, j = divmod(int(np.argmax(pay)), n)
    return K[i], L[j], pay[i, j], np.log(K[1] / K[0]), np.log(L[1] / L[0])


def test_criterion_3_best_response_matches_grid_and_ga():
    rng = np.random.default_rng(33)
    config = GameConfig()
    checked = 0
    while checked < 20:
        a = float(rng.uniform(0.15, 0.5))
        b = float(rng.uniform(0.15, min(0.9 - a, 0.5)))
        p = FirmParameters(alpha=a, beta=b,
                           cost_coeff=float(rng.uniform(0.1, 0.5)),
                           interest_rate=0.05, noise_sigma=0.0)
        ctx = PayoffContext(revenue=float(rng.uniform(50, 150)),
                            capital=float(rng.uniform(50, 400)),
                            labor=float(rng.uniform(20, 200)),
                            customer_terms=0.0, params=p)
        dec = best_response_closed_form(ctx, config)
        best = expected_payoff(ctx, dec)
        if best < 1.0:   # keep the 1% comparison well scaled
            continue
        gk, gl, gpay, dk, dl = _grid_argmax(ctx, config)
        assert abs(np.log(dec.capital / gk)) <= dk + 1e-12
        assert abs(np.log(dec.labor / gl)) <= dl + 1e-12
        assert best >= gpay - 1e-9
        ga = best_response_ga(ctx, config, seed=checked)
        assert expected_payoff(ctx, ga) >= best - 0.01 * abs(best)
        checked += 1

    # the joint fixed point reproduces itself under replay
    ids = ("A", "B", "C")
    revs = {"A": 100.0, "B": 130.0, "C": 80.0}
    params, states = {}, {}
    for i, f in enumerate(ids):
        fp = FirmParameters(alpha=0.30 + 0.04 * i, beta=0.35 - 0.03 * i,
                            cost_coeff=0.2 + 0.05 * i, interest_rate=0.05,
                            noise_sigma=0.0)
        cap, lab = steady_state_inputs(fp, revs[f])
        params[f] = fp
        states[f] = FirmState(revenue=revs[f], prev_revenue=revs[f] / 1.01,
                              capital=cap, labor=lab, equity=25.0)
    eco = Economy(params=params, states=states)
    net = TransactionNetwork(firms=ids,
                             edges=(("A", "B", 0.15), ("B", "C", 0.2)))
    res = nash_solve(eco, net, 1.02)
    assert res.converged
    for f in ids:
        st = eco.states[f]
        cts = customer_terms_sum(f, net, eco.states, 1.02)
        ctx = PayoffContext(revenue=st.revenue, capital=st.capital,
                            labor=st.labor, customer_terms=cts,
                            params=eco.params[f])
        again = best_response_closed_form(ctx)
        assert again.capital == pytest.approx(res.decisions[f].capital, rel=1e-9)
        assert again.labor == pytest.approx(res.decisions[f].labor, rel=1e-9)
    print("criterion 3: 20 concave instances within one grid cell, "
          "GA within 1%, fixed point self-consistent")


# --- criterion 4: cascade equals an independent fixed point ---

def _brute_force_dead(eco, net, triggers, decisions, gdp_ratio=1.0,
                      policy=ZERO_REVENUE):
    dead = set(triggers)
    while True:
        new = set()
        for f in eco.firm_ids:
            if f in dead:
                continue
            st, p = eco.states[f], eco.params[f]
            cts = 0.0
            for c, k in net.customers_of(f):
                if c in dead:
                    cts += -k if policy == PURE_LOSS else k * (0.0 - gdp_ratio)
                else:
                    cst = eco.states[c]
                    cts += k * (cst.revenue / cst.prev_revenue - gdp_ratio)
            dec = decisions[f]
            growth = ((dec.capital / st.capital) ** p.alpha
                      * (dec.labor / st.labor) ** p.beta)
            rev = max(st.revenue * (growth + cts), 1e-6 * st.revenue)
            cost = p.cost_coeff * dec.capital ** p.alpha * dec.labor ** p.beta
            pi = rev - cost - p.interest_rate * dec.capital - dec.labor
            if st.equity + pi < 0.0:
                new.add(f)
        if not (new - dead):
            return dead
        dead |= new


def _random_small_economy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 7))
    ids = tuple(f"N{i}" for i in range(n))
    params = {f: FirmParameters(alpha=0.0, beta=0.0, cost_coeff=0.0,
                                interest_rate=0.0, noise_sigma=0.0)
              for f in ids}
    states = {f: FirmState(revenue=100.0, prev_revenue=100.0, capital=50.0,
                           labor=float(rng.uniform(80.0, 99.0)),
                           equity=float(rng.uniform(0.0, 30.0)))
              for f in ids}
    edges = [(s, c, float(rng.uniform(0.0, 0.6)))
             for s in ids for c in ids if s != c and rng.random() < 0.5]
    decisions = {f: InvestmentDecision(capital=50.0, labor=states[f].labor)
                 for f in ids}
    trigger = ids[int(rng.integers(n))]
    return Economy(params=params, states=states), TransactionNetwork(ids, edges), \
        decisions, trigger


def test_criterion_4_cascade_equals_brute_force():
    # hand-traced chain: the middle firm falls one generation after the
    # trigger, the upstream firm holds on beginning equity
    eco, net, dec = make_chain()
    res = run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                      decisions=dec)
    assert res.bankrupt == {"C": 0, "B": 1}
    assert res.survivors == {"A": REASON_EQUITY}
    assert set(res.bankrupt) == _brute_force_dead(eco, net, ("C",), dec)

    # near-zero coupling: the same chain stops on link strength instead
    eco2, net2, dec2 = make_chain(k_ab=0.001)
    res2 = run_cascade(eco2, net2, CascadeConfig(trigger_firms=("C",)),
                       decisions=dec2)
    assert res2.bankrupt == {"C": 0, "B": 1}
    assert res2.survivors == {"A": REASON_WEAK_LINK}
    assert set(res2.bankrupt) == _brute_force_dead(eco2, net2, ("C",), dec2)

    # thin equity lets it run the whole chain down
    eco3, net3, dec3 = make_chain(equity_a=30.0)
    res3 = run_cascade(eco3, net3, CascadeConfig(trigger_firms=("C",)),
                       decisions=dec3)
    assert res3.bankrupt == {"C": 0, "B": 1, "A": 2}
    assert set(res3.bankrupt) == _brute_force_dead(eco3, net3, ("C",), dec3)

    # random economies of up to six firms, both write-down policies
    for seed in range(12):
        eco, net, decisions, trigger = _random_small_economy(seed)
        for policy in (ZERO_REVENUE, PURE_LOSS):
            res = run_cascade(
                eco, net,
                CascadeConfig(trigger_firms=(trigger,), policy=policy),
                decisions=decisions)
            oracle = _brute_force_dead(eco, net, (trigger,), decisions,
                                       policy=policy)
            assert set(res.bankrupt) == oracle
    print("criterion 4: engine equals brute-force fixed point on all fixtures")


# --- criterion 5: a 1000-firm cascade stays fast and reproducible ---

def test_criterion_5_large_cascade_bounded_and_deterministic(tmp_path):
    cfg = GeneratorConfig(n_firms=1000, seed=55)
    economy, network, _ = generate_economy(cfg)
    # heavier coupling so the shock actually travels
    strong = network.with_strengths(
        {(s, c): k * 6.0 for s, c, k in network.edges()})
    by_exposure = sorted(economy.firm_ids,
                         key=lambda f: (-len(strong.suppliers_of(f)), f))
    triggers = tuple(by_exposure[:3])
    config = CascadeConfig(trigger_firms=triggers, gdp_growth=1.02)

    t0 = time.perf_counter()
    first = run_cascade(economy, strong, config, seed=0)
    elapsed = time.perf_counter() - t0
    second = run_cascade(economy, strong, config, seed=0)

    assert first.generations_run <= cfg.n_firms
    assert len(first.bankrupt) > len(triggers)   # it spread
    assert first.bankrupt == second.bankrupt
    assert first.survivors == second.survivors
    echo = {"n_firms": cfg.n_firms, "seed": 55}
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    export_cascade(a, first, echo, 0)
    export_cascade(b, second, echo, 0)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    print(f"criterion 5: {len(first.bankrupt)} bankruptcies over "
          f"{first.generations_run} generations in {elapsed:.2f}s, "
          "repeat byte-identical")
    assert elapsed < 10.0


# --- criterion 6: weakening links to failed customers never hurts ---

def test_criterion_6_halved_links_never_enlarge_the_cascade():
    spread = shrank = 0
    for seed in range(50):
        cfg = GeneratorConfig(n_firms=30, seed=seed)
        economy, network, _ = generate_economy(cfg)
        strong = network.with_strengths(
            {(s, c): k * 6.0 for s, c, k in network.edges()})
        trigger = min(economy.firm_ids,
                      key=lambda f: (-len(strong.suppliers_of(f)), f))
        decisions = nash_solve(economy, strong, 1.02).decisions
        config = CascadeConfig(trigger_firms=(trigger,), gdp_growth=1.02)
        base = run_cascade(economy, strong, config, decisions=decisions)
        halved = strong.with_strengths(
            {(s, c): k / 2.0 for s, c, k in strong.edges()
             if c in base.bankrupt})
        eased = run_cascade(economy, halved, config, decisions=decisions)
        assert set(eased.bankrupt) <= set(base.bankrupt), f"seed {seed}"
        spread += len(base.bankrupt) > 1
        shrank += len(eased.bankrupt) < len(base.bankrupt)
    print(f"criterion 6: 50 scenarios, cascade spread in {spread}, "
          f"halving shrank it in {shrank}, never enlarged it")
    assert spread > 0   # the invariant was exercised, not vacuous


# --- criterion 7: the command line round-trips and matches hand files ---

CHAIN_DOT = """digraph money_flow {
  "A";
  "B" [bankrupt=1, generation=1];
  "C" [bankrupt=1, generation=0];
  "B" -> "A" [k=0.5];
  "C" -> "B" [k=0.5];
}
"""

CHAIN_GRAPHML = """<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="node" attr.name="bankrupt" attr.type="boolean"/>
  <key id="d1" for="node" attr.name="generation" attr.type="int"/>
  <key id="d2" for="edge" attr.name="k" attr.type="double"/>
  <graph id="money_flow" edgedefault="directed">
    <node id="A">
      <data key="d0">false</data>
    </node>
    <node id="B">
      <data key="d0">true</data>
      <data key="d1">1</data>
    </node>
    <node id="C">
      <data key="d0">true</data>
      <data key="d1">0</data>
    </node>
    <edge source="B" target="A">
      <data key="d2">0.5</data>
    </edge>
    <edge source="C" target="B">
      <data key="d2">0.5</data>
    </edge>
  </graph>
</graphml>
"""


def test_criterion_7_cli_round_trip_and_expected_exports(tmp_path):
    # generate -> calibrate -> cascade on one synthetic economy
    data = tmp_path / "data"
    assert cli_main(["generate", "--out-dir", str(data), "--firms", "8",
                     "--seed", "7", "--no-noise"]) == 0
    fit = tmp_path / "fit"
    assert cli_main(["calibrate", "--panel", str(data / "panel.csv"),
                     "--edges", str(data / "edges.csv"),
                     "--gdp", str(data / "gdp.csv"),
                     "--out-dir", str(fit)]) == 0
    report = json.loads((fit / "fit_report.json").read_text())
    assert report["firms"]
    assert all(r["average_error"] < 1e-6 for r in report["firms"].values())
    casc = tmp_path / "casc"
    trigger = sorted(report["firms"])[0]
    assert cli_main(["cascade", "--panel", str(data / "panel.csv"),
                     "--edges", str(data / "edges.csv"),
                     "--gdp", str(data / "gdp.csv"),
                     "--params", str(data / "params.csv"),
                     "--fit-report", str(fit / "fit_report.json"),
                     "--trigger", trigger,
                     "--out-dir", str(casc)]) == 0
    doc = json.loads((casc / "cascade.json").read_text())
    assert doc["bankrupt"][trigger] == 0
    for name in ("cascade.json", "network.dot", "network.graphml"):
        assert (casc / name).exists()

    # the three-firm chain must reproduce the hand-written exports
    paths = steady_chain_csvs(tmp_path)
    out = tmp_path / "chain"
    assert cli_main(["cascade", "--panel", paths["panel.csv"],
                     "--edges", paths["edges.csv"],
                     "--gdp", paths["gdp.csv"],
                     "--params", paths["params.csv"],
                     "--trigger", "C",
                     "--out-dir", str(out)]) == 0
    assert (out / "network.dot").read_text() == CHAIN_DOT
    assert (out / "network.graphml").read_text() == CHAIN_GRAPHML
    chain_doc = json.loads((out / "cascade.json").read_text())
    assert chain_doc["bankrupt"] == {"B": 1, "C": 0}
    print("criterion 7: CLI round trip complete, exports byte-equal to "
          "hand-constructed files")
