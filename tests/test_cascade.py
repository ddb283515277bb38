"""Cascade engine against hand traces and a brute-force oracle.

The oracle re-derives end-of-term equity by hand-inlining the revenue,
cost and profit arithmetic (no calls into the engine) and iterates over
ALL firms until the dead set stabilizes. On baseline-solvent fixtures
that fixed point has to equal run_cascade's output exactly.
"""

import numpy as np
import pytest

from chainsim import (
    PURE_LOSS,
    REASON_EQUITY,
    REASON_NOT_REACHED,
    REASON_WEAK_LINK,
    ZERO_REVENUE,
    CascadeConfig,
    Economy,
    FirmParameters,
    FirmState,
    InvestmentDecision,
    TransactionNetwork,
    run_cascade,
)

from conftest import make_chain


def brute_force_dead(eco, net, triggers, decisions, gdp_ratio=1.0,
                     policy=ZERO_REVENUE):
    """Independent fixed point: mark every firm whose books go negative."""
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
                    ratio = 0.0 if policy == ZERO_REVENUE else None
                    if ratio is None:
                        cts += -k
                    else:
                        cts += k * (ratio - gdp_ratio)
                else:
                    cst = eco.states[c]
                    cts += k * (cst.revenue / cst.prev_revenue - gdp_ratio)
            dec = decisions[f]
            growth = ((dec.capital / st.capital) ** p.alpha
                      * (dec.labor / st.labor) ** p.beta)
            raw = st.revenue * (growth + cts)
            rev = max(raw, 1e-6 * st.revenue)
            cost = p.cost_coeff * dec.capital ** p.alpha * dec.labor ** p.beta
            pi = rev - cost - p.interest_rate * dec.capital - dec.labor
            if st.equity + pi < 0.0:
                new.add(f)
        if not (new - dead):
            return dead
        dead |= new


def random_fixture(seed, n=None):
    """Baseline-solvent economy with zero elasticities: all numbers exact."""
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(4, 7))
    ids = tuple(f"N{i}" for i in range(n))
    params = {f: FirmParameters(alpha=0.0, beta=0.0, cost_coeff=0.0,
                                interest_rate=0.0, noise_sigma=0.0)
              for f in ids}
    states = {}
    for f in ids:
        labor = float(rng.uniform(80.0, 99.0))   # profit 100 - labor > 0
        states[f] = FirmState(revenue=100.0, prev_revenue=100.0,
                              capital=50.0, labor=labor,
                              equity=float(rng.uniform(0.0, 30.0)))
    edges = []
    for s in ids:
        for c in ids:
            if s != c and rng.random() < 0.5:
                edges.append((s, c, float(rng.uniform(0.0, 0.6))))
    net = TransactionNetwork(firms=ids, edges=edges)
    decisions = {f: InvestmentDecision(capital=states[f].capital,
                                       labor=states[f].labor) for f in ids}
    trigger = ids[int(rng.integers(n))]
    return Economy(params=params, states=states), net, decisions, trigger


class TestHandTracedChain:
    def test_middle_firm_falls_first(self, chain):
        eco, net, decisions = chain
        res = run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                          decisions=decisions)
        assert res.bankrupt == {"C": 0, "B": 1}
        assert res.survivors == {"A": REASON_EQUITY}
        assert res.generations_run == 2
        assert not res.exhausted
        ev = res.equity_trace["B"]
        assert ev.equity_begin == pytest.approx(40.0)
        assert ev.term_profit == pytest.approx(-45.0)
        assert ev.equity_end == pytest.approx(-5.0)
        assert ev.baseline_profit == pytest.approx(5.0)
        assert ev.went_bankrupt
        assert ev.generation == 1

    def test_thin_equity_lets_it_run_through(self):
        eco, net, decisions = make_chain(equity_a=30.0)
        res = run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                          decisions=decisions)
        assert res.bankrupt == {"C": 0, "B": 1, "A": 2}
        assert res.survivors == {}
        assert res.equity_trace["A"].equity_end == pytest.approx(-15.0)

    def test_weak_link_stops_it(self):
        eco, net, decisions = make_chain(k_ab=0.001)
        res = run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                          decisions=decisions)
        assert res.bankrupt == {"C": 0, "B": 1}
        assert res.survivors == {"A": REASON_WEAK_LINK}
        # barely dented: 0.1% of revenue against a +5 operating result
        assert res.equity_trace["A"].term_profit == pytest.approx(4.9)

    def test_big_equity_stops_it_immediately(self, chain):
        eco, net, decisions = chain
        rich = Economy(params=eco.params,
                       states={f: (st if f != "B" else
                                   FirmState(revenue=100.0, prev_revenue=100.0,
                                             capital=100.0, labor=95.0,
                                             equity=1000.0))
                               for f, st in eco.states.items()})
        res = run_cascade(rich, net, CascadeConfig(trigger_firms=("C",)),
                          decisions=decisions)
        assert res.bankrupt == {"C": 0}
        assert res.survivors["B"] == REASON_EQUITY
        assert res.survivors["A"] == REASON_NOT_REACHED

    def test_trigger_without_suppliers(self, chain):
        eco, net, decisions = chain
        res = run_cascade(eco, net, CascadeConfig(trigger_firms=("A",)),
                          decisions=decisions)
        assert res.bankrupt == {"A": 0}
        assert res.generations_run == 1
        assert not res.exhausted
        assert res.survivors == {"B": REASON_NOT_REACHED,
                                 "C": REASON_NOT_REACHED}

    def test_generation_cap_reports_exhaustion(self):
        eco, net, decisions = make_chain(equity_a=30.0)
        res = run_cascade(eco, net,
                          CascadeConfig(trigger_firms=("C",),
                                        max_generations=1),
                          decisions=decisions)
        assert res.bankrupt == {"C": 0, "B": 1}
        assert res.exhausted
        assert res.generations_run == 1

    def test_cap_on_a_finished_cascade_is_not_exhaustion(self, chain):
        # uncapped, generation 2 turns nobody: the cap cut off nothing
        eco, net, decisions = chain
        res = run_cascade(eco, net,
                          CascadeConfig(trigger_firms=("C",),
                                        max_generations=1),
                          decisions=decisions)
        assert res.bankrupt == {"C": 0, "B": 1}
        assert not res.exhausted
        assert res.generations_run == 1
        # the look-ahead commits nothing
        assert set(res.equity_trace) == {"B"}
        assert res.survivors == {"A": REASON_NOT_REACHED}

    def test_pure_loss_policy_shrinks_the_shock(self, chain):
        eco, net, decisions = chain
        # -k instead of -k*gdp_ratio; identical here (ratio 1) so push
        # the gdp ratio up to make the policies distinguishable
        res_zero = run_cascade(eco, net,
                               CascadeConfig(trigger_firms=("C",),
                                             gdp_growth=1.5),
                               decisions=decisions)
        res_loss = run_cascade(eco, net,
                               CascadeConfig(trigger_firms=("C",),
                                             gdp_growth=1.5,
                                             policy=PURE_LOSS),
                               decisions=decisions)
        zero_hit = res_zero.equity_trace["B"].term_profit
        loss_hit = res_loss.equity_trace["B"].term_profit
        # zero-revenue charges k * 1.5, pure-loss charges k * 1.0
        assert zero_hit < loss_hit

    def test_unknown_trigger_rejected(self, chain):
        eco, net, decisions = chain
        with pytest.raises(ValueError):
            run_cascade(eco, net, CascadeConfig(trigger_firms=("Z",)),
                        decisions=decisions)

    def test_dead_trigger_rejected(self, chain):
        eco, net, decisions = chain
        eco.mark_bankrupt("C")
        with pytest.raises(ValueError):
            run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                        decisions=decisions)

    def test_input_economy_untouched(self, chain):
        eco, net, decisions = chain
        run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                    decisions=decisions)
        assert not any(st.bankrupt for st in eco.states.values())


class TestConfigValidation:
    def test_needs_triggers(self):
        with pytest.raises(ValueError):
            CascadeConfig(trigger_firms=())

    def test_policy_checked(self):
        with pytest.raises(ValueError):
            CascadeConfig(trigger_firms=("A",), policy="shrug")

    def test_gdp_growth_positive(self):
        with pytest.raises(ValueError):
            CascadeConfig(trigger_firms=("A",), gdp_growth=0.0)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        eco, net, decisions, trigger = random_fixture(seed)
        res = run_cascade(eco, net, CascadeConfig(trigger_firms=(trigger,)),
                          decisions=decisions)
        oracle = brute_force_dead(eco, net, {trigger}, decisions)
        assert res.bankrupt_set == frozenset(oracle)

    def test_matches_brute_force_pure_loss(self):
        eco, net, decisions, trigger = random_fixture(99)
        cfg = CascadeConfig(trigger_firms=(trigger,), policy=PURE_LOSS)
        res = run_cascade(eco, net, cfg, decisions=decisions)
        oracle = brute_force_dead(eco, net, {trigger}, decisions,
                                  policy=PURE_LOSS)
        assert res.bankrupt_set == frozenset(oracle)

    def test_chain_matches_brute_force(self):
        eco, net, decisions = make_chain(equity_a=30.0)
        res = run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                          decisions=decisions)
        oracle = brute_force_dead(eco, net, {"C"}, decisions)
        assert res.bankrupt_set == frozenset(oracle) == {"A", "B", "C"}


class TestStructuralInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_generations_and_reachability(self, seed):
        eco, net, decisions, trigger = random_fixture(seed + 100)
        res = run_cascade(eco, net, CascadeConfig(trigger_firms=(trigger,)),
                          decisions=decisions)
        gens = sorted(set(res.bankrupt.values()))
        assert gens == list(range(len(gens)))  # contiguous from 0
        assert res.generations_run <= len(eco.firm_ids)
        for f, g in res.bankrupt.items():
            if g == 0:
                continue
            # shocked through at least one customer lost earlier
            assert any(res.bankrupt.get(c, 10 ** 9) < g
                       for c, _ in net.customers_of(f))

    def test_six_firm_line_walks_one_generation_per_firm(self):
        ids = tuple(f"L{i}" for i in range(6))
        params = {f: FirmParameters(alpha=0.0, beta=0.0, cost_coeff=0.0,
                                    interest_rate=0.0, noise_sigma=0.0)
                  for f in ids}
        states = {f: FirmState(revenue=100.0, prev_revenue=100.0,
                               capital=50.0, labor=95.0, equity=40.0)
                  for f in ids}
        edges = [(ids[i], ids[i + 1], 0.5) for i in range(5)]
        net = TransactionNetwork(firms=ids, edges=edges)
        decisions = {f: InvestmentDecision(capital=50.0, labor=95.0)
                     for f in ids}
        eco = Economy(params=params, states=states)
        res = run_cascade(eco, net,
                          CascadeConfig(trigger_firms=(ids[-1],)),
                          decisions=decisions)
        assert res.bankrupt == {ids[5 - g]: g for g in range(6)}
        assert res.generations_run == 6
        assert not res.exhausted

    @pytest.mark.parametrize("seed", range(6))
    def test_repeat_runs_identical(self, seed):
        eco, net, decisions, trigger = random_fixture(seed + 200)
        cfg = CascadeConfig(trigger_firms=(trigger,))
        a = run_cascade(eco, net, cfg, decisions=decisions)
        b = run_cascade(eco, net, cfg, decisions=decisions)
        assert a == b

    @pytest.mark.parametrize("seed", range(10))
    def test_softening_dead_links_never_widens_the_damage(self, seed):
        eco, net, decisions, trigger = random_fixture(seed + 300)
        cfg = CascadeConfig(trigger_firms=(trigger,))
        base = run_cascade(eco, net, cfg, decisions=decisions)
        overrides = {}
        for s, c, k in net.edges():
            if c in base.bankrupt:
                overrides[(s, c)] = 0.5 * k
        softened = run_cascade(eco, net.with_strengths(overrides), cfg,
                               decisions=decisions)
        assert softened.bankrupt_set <= base.bankrupt_set


class TestFrozenDecisionsFromGame:
    def test_nash_decisions_used_when_none_given(self):
        # concave firms so the pre-shock game has a proper optimum
        ids = ("P", "Q")
        params = {f: FirmParameters(alpha=0.3, beta=0.35, cost_coeff=0.2,
                                    interest_rate=0.05, noise_sigma=0.0)
                  for f in ids}
        from chainsim import steady_state_inputs
        states = {}
        for f, rev in (("P", 100.0), ("Q", 120.0)):
            k, l = steady_state_inputs(params[f], rev)
            states[f] = FirmState(revenue=rev, prev_revenue=rev,
                                  capital=k, labor=l, equity=1e6)
        net = TransactionNetwork(firms=ids, edges=(("P", "Q", 0.2),))
        eco = Economy(params=params, states=states)
        res = run_cascade(eco, net, CascadeConfig(trigger_firms=("Q",)))
        assert res.bankrupt == {"Q": 0}
        assert res.survivors["P"] in (REASON_EQUITY, REASON_WEAK_LINK)
        assert "P" in res.equity_trace
