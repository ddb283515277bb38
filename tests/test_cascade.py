"""Cascade engine against hand traces and a brute-force oracle.

The oracle re-derives end-of-term equity by hand-inlining the revenue,
cost and profit arithmetic (no calls into the engine) and iterates over
ALL firms until the dead set stabilizes. On baseline-solvent fixtures
that fixed point has to equal run_cascade's output exactly.

A second reference, full_rescan_cascade, is the generation loop the
engine had before it became frontier-driven: every generation
re-evaluates every live supplier of every dead firm. Written over plain
dicts, it has to equal run_cascade field by field on drawn economies,
also after an input changes between two runs that share the engine's
cached plan.

Both references also run on supplier-hub economies, whose largest
supplier has more customers than a machine word has bits, so the int
mask the engine keys each supplier's outcomes by spans several words.
"""

import copy
import gc
import math
import pickle
import weakref
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainsim import (
    PURE_LOSS,
    REASON_EQUITY,
    REASON_NOT_REACHED,
    REASON_WEAK_LINK,
    ZERO_REVENUE,
    CascadeConfig,
    Economy,
    Evaluation,
    FirmParameters,
    FirmState,
    GeneratorConfig,
    InvestmentDecision,
    TransactionNetwork,
    generate_economy,
    nash_solve,
    run_cascade,
)
from chainsim import cascade
from chainsim.econ import FrozenMap, term_close, term_fixed

from conftest import (
    flag_bankrupt,
    largest_supplier,
    make_chain,
    mismatched_chain_network,
    supplier_hub_economy,
)

# More customers than a machine word has bits: a supplier's mask is then
# a Python int of several words.
WORD = 64


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


def full_rescan_cascade(eco, net, triggers, decisions, gdp_ratio,
                        policy, max_generations):
    """Every live supplier of every dead firm, re-evaluated each generation.

    Returns plain dicts: bankrupt, survivors, the trace as field tuples
    (generation, equity_begin, term_profit, equity_end, baseline_profit,
    went_bankrupt), generations_run and exhausted.
    """
    customers = {f: [] for f in eco.params}
    suppliers = {f: [] for f in eco.params}
    for s, c, k in net.edges():
        customers[s].append((c, k))
        suppliers[c].append(s)

    def evaluate(f, dead, generation):
        st, p, dec = eco.states[f], eco.params[f], decisions[f]
        shocked = baseline = 0.0
        for c, k in customers[f]:
            if c in dead:
                shocked += (k * (0.0 - gdp_ratio) if policy == ZERO_REVENUE
                            else -k)
            else:
                cst = eco.states[c]
                term = k * (cst.revenue / cst.prev_revenue - gdp_ratio)
                shocked += term
                baseline += term
        growth = ((dec.capital / st.capital) ** p.alpha
                  * (dec.labor / st.labor) ** p.beta)
        cost = p.cost_coeff * dec.capital ** p.alpha * dec.labor ** p.beta

        def term_profit(terms):
            rev = st.revenue * (growth + terms)
            if rev <= 0.0:
                rev = 1e-6 * st.revenue
            return rev - cost - p.interest_rate * dec.capital - dec.labor

        pi = term_profit(shocked)
        end = st.equity + pi
        return (generation, st.equity, pi, end, term_profit(baseline),
                end < 0.0)

    def step(dead, generation):
        exposed = sorted({s for f in dead for s in suppliers[f]} - dead)
        return {f: evaluate(f, dead, generation) for f in exposed}

    dead = {f for f, st in eco.states.items() if st.bankrupt} | set(triggers)
    bankrupt = {f: 0 for f in triggers}
    cap = len(eco.params) if max_generations is None else max_generations
    trace, generations_run, exhausted = {}, 0, False
    for generation in range(1, cap + 1):
        evaluations = step(dead, generation)
        generations_run = generation
        trace.update(evaluations)
        newly = [f for f, ev in evaluations.items() if ev[-1]]
        if not newly:
            break
        dead.update(newly)
        bankrupt.update({f: generation for f in newly})
    else:
        exhausted = any(ev[-1] for ev in step(dead, cap + 1).values())

    survivors = {}
    for f in sorted(eco.params):
        if f in dead:
            continue
        if f not in trace:
            survivors[f] = "not-reached"
        elif trace[f][2] < 0.0 <= trace[f][4]:
            survivors[f] = "equity-sufficient"
        else:
            survivors[f] = "link-too-weak"
    return bankrupt, survivors, trace, generations_run, exhausted


def pricing_args(eco, decisions, f):
    """The arguments the cascade plan passes term_fixed for firm f."""
    st, p, dec = eco.states[f], eco.params[f], decisions[f]
    return (st.capital, st.labor, p.alpha, p.beta, p.cost_coeff,
            p.interest_rate, dec.capital, dec.labor)


def assert_equals_full_rescan(eco, net, decisions, config):
    """run_cascade on the inputs equals full_rescan_cascade field by field,
    and its three dicts list their keys in the reference's order."""
    res = run_cascade(eco, net, config, decisions=decisions)
    bankrupt, survivors, trace, generations_run, exhausted = (
        full_rescan_cascade(eco, net, config.trigger_firms, decisions,
                            config.gdp_growth, config.policy,
                            config.max_generations))
    assert res.bankrupt == bankrupt
    assert res.survivors == survivors
    assert res.generations_run == generations_run
    assert res.exhausted == exhausted
    assert {f: (ev.generation, ev.equity_begin, ev.term_profit,
                ev.equity_end, ev.baseline_profit, ev.went_bankrupt)
            for f, ev in res.equity_trace.items()} == trace
    assert all(ev.firm == f for f, ev in res.equity_trace.items())
    # == on dicts ignores order: triggers, then each generation's fallers
    # in firm order; survivors in firm order; the trace in order of first
    # evaluation, in firm order within a generation
    assert list(res.bankrupt) == list(bankrupt)
    assert list(res.survivors) == list(survivors)
    assert list(res.equity_trace) == list(trace)
    return res


def assert_evaluates_live_suppliers(eco, net, decisions, config):
    """Each evaluate_supplier call of a run on a new plan gets a supplier
    alive before the generation and a non-negative mask, set exactly for
    its customers dead before the generation."""
    bankrupt = full_rescan_cascade(
        eco, net, config.trigger_firms, decisions, config.gdp_growth,
        config.policy, config.max_generations)[0]
    flagged = {f for f in eco.firm_ids if eco.states[f].bankrupt}
    calls = []

    def recorded(plan, i, generation, mask):
        calls.append((net.firms[i], generation, mask))
        return evaluate(plan, i, generation, mask)

    evaluate = cascade.evaluate_supplier
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cascade, "evaluate_supplier", recorded)
        # a plain dict builds a new plan, so every outcome is a memo miss
        run_cascade(eco, net, config, decisions=dict(decisions))
    for f, generation, mask in calls:
        assert mask >= 0
        assert f not in flagged and bankrupt.get(f, generation) >= generation
        assert mask == sum(
            1 << j for j, (c, _) in enumerate(net.customers_of(f))
            if c in flagged or bankrupt.get(c, generation) < generation)


@st.composite
def drawn_scenarios(draw):
    """At most 12 firms with mixed outcomes, triggers, flags and a cap."""
    n = draw(st.integers(2, 12))
    ids = tuple(f"F{i:02d}" for i in range(n))
    unit = st.floats(0.0, 1.0)
    params, states, decisions = {}, {}, {}
    for f in ids:
        params[f] = FirmParameters(alpha=draw(unit) * 0.5,
                                   beta=draw(unit) * 0.5,
                                   cost_coeff=draw(unit) * 0.2,
                                   interest_rate=draw(unit) * 0.05)
        # labor eats most of the revenue, so thin equity and a lost
        # customer decide solvency
        revenue = draw(st.floats(50.0, 150.0))
        states[f] = FirmState(
            revenue=revenue,
            prev_revenue=revenue / draw(st.floats(0.85, 1.15)),
            capital=draw(st.floats(10.0, 100.0)),
            labor=revenue * draw(st.floats(0.5, 0.95)),
            equity=draw(st.floats(-5.0, 40.0)))
        decisions[f] = InvestmentDecision(
            capital=states[f].capital * draw(st.floats(0.9, 1.1)),
            labor=states[f].labor * draw(st.floats(0.9, 1.1)))
    net = TransactionNetwork(firms=ids, edges=[
        (s, c, draw(unit)) for s in ids for c in ids
        if s != c and draw(st.booleans())])
    triggers = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3,
                             unique=True))
    others = [f for f in ids if f not in triggers]
    flagged = draw(st.lists(st.sampled_from(others), unique=True,
                            max_size=2)) if others else []
    for f in flagged:
        states[f] = replace(states[f], bankrupt=True)
    config = CascadeConfig(
        trigger_firms=tuple(triggers),
        gdp_growth=draw(st.floats(0.9, 1.2)),
        policy=draw(st.sampled_from((ZERO_REVENUE, PURE_LOSS))),
        max_generations=draw(st.none() | st.integers(0, 4)))
    return Economy(params=params, states=states), net, decisions, config


@st.composite
def hub_scenarios(draw):
    """300 firms with supplier hubs, the largest with more than WORD
    customers, Nash decisions, and drawn triggers, flags and a cap. One
    trigger is a customer of the largest hub from its WORD-th slot on."""
    economy, net = supplier_hub_economy(300, draw(st.integers(0, 2 ** 16)))
    offsets, positions, _ = net.customers
    hub = largest_supplier(net)
    assume(offsets[hub + 1] - offsets[hub] > WORD)
    ids = net.firms
    wide = positions[offsets[hub] + WORD:offsets[hub + 1]]
    triggers = [ids[draw(st.sampled_from(wide))]]
    triggers += draw(st.lists(st.sampled_from(ids), max_size=2, unique=True))
    triggers = list(dict.fromkeys(triggers))
    others = [f for f in ids if f not in triggers]
    flagged = draw(st.lists(st.sampled_from(others), unique=True,
                            max_size=2))
    economy = flag_bankrupt(economy, *flagged)
    config = CascadeConfig(
        trigger_firms=tuple(triggers),
        gdp_growth=draw(st.floats(1.0, 1.05)),
        policy=draw(st.sampled_from((ZERO_REVENUE, PURE_LOSS))),
        max_generations=draw(st.none() | st.integers(0, 4)))
    decisions = nash_solve(economy, net, config.gdp_growth).decisions
    return economy, net, decisions, config


def flat_economy(ids, links, **equities):
    """Zero elasticities, revenue 100, labor 95 and equity 40 unless
    given by id; each (supplier, customer) link has k 0.5, so a supplier
    that loses one customer has profit -45 and falls on equity 40."""
    params = {f: FirmParameters(alpha=0.0, beta=0.0, cost_coeff=0.0,
                                interest_rate=0.0) for f in ids}
    states = {f: FirmState(revenue=100.0, prev_revenue=100.0, capital=50.0,
                           labor=95.0, equity=equities.get(f, 40.0))
              for f in ids}
    net = TransactionNetwork(firms=ids,
                             edges=[(s, c, 0.5) for s, c in links])
    decisions = {f: InvestmentDecision(capital=50.0, labor=95.0)
                 for f in ids}
    return Economy(params=params, states=states), net, decisions


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

    def test_trace_entries_are_immutable_records(self, chain):
        eco, net, decisions = chain
        res = run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                          decisions=decisions)
        ev = res.equity_trace["A"]
        with pytest.raises(AttributeError):
            ev.generation = 0
        assert ev.generation == res.generations_run == 2
        names = ("firm", "generation", "equity_begin", "term_profit",
                 "equity_end", "baseline_profit", "went_bankrupt")
        values = [getattr(ev, name) for name in names]
        assert Evaluation(**dict(zip(names, values))) == ev
        assert Evaluation(*values) == ev

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
        eco = flag_bankrupt(eco, "C")
        with pytest.raises(ValueError):
            run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                        decisions=decisions)

    def test_input_economy_untouched(self, chain):
        eco, net, decisions = chain
        run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                    decisions=decisions)
        assert not any(st.bankrupt for st in eco.states.values())


class TestConfigValidation:
    @pytest.mark.parametrize("firm", ["C", "D"])
    def test_refuses_network_over_other_firms(self, firm):
        # checked where the plan is built, before any supplier is priced
        eco, _, decisions = make_chain()
        with pytest.raises(ValueError, match=f"firm {firm!r} is only in the"):
            run_cascade(eco, mismatched_chain_network(firm),
                        CascadeConfig(trigger_firms=("B",)),
                        decisions=decisions)

    def test_needs_triggers(self):
        with pytest.raises(ValueError):
            CascadeConfig(trigger_firms=())

    @pytest.mark.parametrize("triggers", ["F0007", ("A", 3), (None,), b"AB"])
    def test_trigger_firms_are_a_sequence_of_ids(self, triggers):
        with pytest.raises(ValueError, match="trigger"):
            CascadeConfig(trigger_firms=triggers)

    def test_policy_checked(self):
        with pytest.raises(ValueError):
            CascadeConfig(trigger_firms=("A",), policy="shrug")

    def test_gdp_growth_positive(self):
        with pytest.raises(ValueError):
            CascadeConfig(trigger_firms=("A",), gdp_growth=0.0)

    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf,
                                   True, "1.02", None])
    def test_gdp_growth_finite(self, g):
        with pytest.raises(ValueError, match="gdp_growth"):
            CascadeConfig(trigger_firms=("A",), gdp_growth=g)

    @pytest.mark.parametrize("g", [np.float32(1.02), np.float64(1.02),
                                   Fraction(51, 50), 1],
                             ids=["float32", "float64", "Fraction", "int"])
    def test_gdp_growth_is_kept_as_a_float(self, chain, g):
        # its type reached every number of the run: a float32 run was
        # done in float32, a float64 one gave np.float64 fields
        eco, net, decisions = chain
        config = CascadeConfig(trigger_firms=("C",), gdp_growth=g)
        assert type(config.gdp_growth) is float
        res = run_cascade(eco, net, config, decisions=decisions)
        assert repr(res) == repr(run_cascade(eco, net, replace(
            config, gdp_growth=float(g)), decisions=decisions))
        assert {type(v) for ev in res.equity_trace.values()
                for v in ev[2:6]} == {float}

    @pytest.mark.parametrize("cap", [-1, -2, 1.7, 2.0, True, "3"])
    def test_max_generations_is_none_or_a_count(self, cap):
        with pytest.raises(ValueError, match="max_generations"):
            CascadeConfig(trigger_firms=("A",), max_generations=cap)

    @pytest.mark.parametrize("cap", [None, 0, 3])
    def test_max_generations_accepted(self, cap):
        assert CascadeConfig(trigger_firms=("A",),
                             max_generations=cap).max_generations == cap


class TestGrowthBeyondFloatRange:
    def test_refuses_an_int_growth_beyond_float_range(self):
        # math.isfinite raised OverflowError on it
        with pytest.raises(ValueError, match="gdp_growth must be finite"):
            CascadeConfig(trigger_firms=("A",), gdp_growth=10 ** 400)


class TestFrontier:
    def test_survivor_of_an_early_failure_carries_the_last_generation(self):
        # line L0 -> L1 -> L2 -> L3 plus S supplying L2; L3 is the trigger.
        # L2 falls in generation 1 and S is evaluated once, in generation
        # 2, yet its trace entry reads generations_run.
        eco, net, decisions = flat_economy(
            ("L0", "L1", "L2", "L3", "S"),
            [("L0", "L1"), ("L1", "L2"), ("L2", "L3"), ("S", "L2")],
            S=1000.0)
        res = run_cascade(eco, net, CascadeConfig(trigger_firms=("L3",)),
                          decisions=decisions)
        assert res.bankrupt == {"L3": 0, "L2": 1, "L1": 2, "L0": 3}
        assert res.generations_run == 4
        assert res.survivors == {"S": REASON_EQUITY}
        assert res.equity_trace["S"].generation == res.generations_run
        assert res.equity_trace["S"].equity_end == pytest.approx(955.0)
        for f, g in res.bankrupt.items():
            if g:
                assert res.equity_trace[f].generation == g

    def test_supplier_of_a_flagged_firm_is_evaluated_in_generation_one(self):
        # B was bankrupt before the run and is no trigger; its supplier A
        # is evaluated (and falls) in generation 1 of a cascade from C
        eco, net, decisions = make_chain(equity_a=30.0)
        eco = flag_bankrupt(eco, "B")
        res = run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                          decisions=decisions)
        assert res.bankrupt == {"C": 0, "A": 1}
        assert res.equity_trace["A"].generation == 1
        assert res.equity_trace["A"].equity_end == pytest.approx(-15.0)
        assert "B" not in res.equity_trace
        assert "B" not in res.survivors

    def test_exposures_out_of_firm_order_are_read_in_firm_order(self,
                                                                monkeypatch):
        # triggers F05 then F03: F05's suppliers F07 and F09 are exposed
        # before F03's supplier F01, and the set of exposed positions
        # walks F09 before F01
        ids = tuple(f"F{i:02d}" for i in range(10))
        eco, net, decisions = flat_economy(
            ids, [("F07", "F05"), ("F09", "F05"), ("F01", "F03")], F07=1000.0)
        walked = []

        def recorded(plan, i, generation, mask):
            walked.append(i)
            return evaluate(plan, i, generation, mask)

        evaluate = cascade.evaluate_supplier
        monkeypatch.setattr(cascade, "evaluate_supplier", recorded)
        res = run_cascade(eco, net,
                          CascadeConfig(trigger_firms=("F05", "F03")),
                          decisions=decisions)
        assert sorted(walked) == [1, 7, 9] and walked != sorted(walked)
        assert list(res.bankrupt.items()) == [
            ("F05", 0), ("F03", 0), ("F01", 1), ("F09", 1)]
        assert list(res.equity_trace) == ["F01", "F07", "F09"]
        assert list(res.survivors.items()) == [
            (f, REASON_EQUITY if f == "F07" else REASON_NOT_REACHED)
            for f in ids if f not in res.bankrupt]

    def test_a_fallen_supplier_keeps_its_fall_time_entry(self):
        # A is the trigger. S supplies A and B; X supplies A, and B
        # supplies X. S and X fall in generation 1, B in generation 2;
        # B's fall reaches S, already dead, whose entry keeps the one
        # dead customer it fell with.
        eco, net, decisions = flat_economy(
            ("A", "B", "S", "X"),
            [("S", "A"), ("S", "B"), ("X", "A"), ("B", "X")])
        res = run_cascade(eco, net, CascadeConfig(trigger_firms=("A",)),
                          decisions=decisions)
        assert list(res.bankrupt.items()) == [
            ("A", 0), ("S", 1), ("X", 1), ("B", 2)]
        assert res.generations_run == 3
        # revenue 100 * (1 - 0.5) = 50 against labor 95; the baseline
        # keeps revenue 100
        assert res.equity_trace["S"] == Evaluation(
            "S", 1, 40.0, -45.0, -5.0, 5.0, True)

    @pytest.mark.fresh_seed
    @given(drawn_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_evaluates_live_suppliers_only(self, scenario):
        assert_evaluates_live_suppliers(*scenario)

    @pytest.mark.fresh_seed
    @given(hub_scenarios())
    @settings(max_examples=20, deadline=None)
    def test_evaluates_live_hub_suppliers_only(self, scenario):
        assert_evaluates_live_suppliers(*scenario)

    @pytest.mark.fresh_seed
    @given(drawn_scenarios())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_full_rescan_reference(self, scenario):
        assert_equals_full_rescan(*scenario)

    @pytest.mark.fresh_seed
    @given(hub_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_supplier_hubs_equal_the_full_rescan_reference(self, scenario):
        # the hub is evaluated in generation 1, with a bit past a
        # machine word set in its mask
        eco, net, decisions, config = scenario
        res = assert_equals_full_rescan(eco, net, decisions, config)
        hub = net.firms[largest_supplier(net)]
        if (config.max_generations != 0 and hub not in config.trigger_firms
                and not eco.states[hub].bankrupt):
            assert hub in res.equity_trace


EDITS = ("flag", "decision", "params", "gdp_growth", "policy", "strengths",
         "other economy")


class TestPlanReuse:
    """The cached plan follows every input: a new economy, an edit in
    place of the decisions, new scalars or a new network."""

    @pytest.mark.fresh_seed
    @given(drawn_scenarios(), st.sampled_from(EDITS), st.data())
    @settings(max_examples=300, deadline=None)
    def test_an_edit_in_place_is_never_stale(self, scenario, edit, data):
        eco, net, decisions, config = scenario
        assert_equals_full_rescan(eco, net, decisions, config)
        firm = data.draw(st.sampled_from(sorted(eco.params)))
        if edit == "flag":
            live = [f for f in eco.firm_ids if f not in config.trigger_firms
                    and not eco.states[f].bankrupt]
            if live:
                eco = flag_bankrupt(eco, data.draw(st.sampled_from(live)))
        elif edit == "decision":
            old = decisions[firm]
            decisions[firm] = InvestmentDecision(
                capital=old.capital * data.draw(st.floats(0.5, 2.0)),
                labor=old.labor * data.draw(st.floats(0.5, 2.0)))
        elif edit == "params":
            eco = replace(eco, params={**eco.params, firm: replace(
                eco.params[firm],
                cost_coeff=data.draw(st.floats(0.0, 0.5)),
                alpha=data.draw(st.floats(0.0, 0.5)))})
        elif edit == "gdp_growth":
            config = replace(config, gdp_growth=data.draw(st.floats(0.9, 1.2)))
        elif edit == "policy":
            config = replace(config, policy=(
                PURE_LOSS if config.policy == ZERO_REVENUE else ZERO_REVENUE))
        elif edit == "strengths":
            net = net.with_strengths({
                (s, c): data.draw(st.floats(0.0, 1.0))
                for s, c, _ in net.edges()})
        else:
            # a second economy on the same network, run in between
            other = Economy(
                params=dict(eco.params),
                states={f: replace(s, equity=s.equity + 10.0)
                        for f, s in eco.states.items()})
            assert_equals_full_rescan(other, net, decisions, config)
        assert_equals_full_rescan(eco, net, decisions, config)

    def test_an_economy_is_detached_from_the_maps_it_was_built_from(self):
        chain, net, decisions = make_chain(equity_a=30.0)
        params, states = dict(chain.params), dict(chain.states)
        eco = Economy(params=params, states=states)
        config = CascadeConfig(trigger_firms=("C",))
        before = run_cascade(eco, net, config, decisions=decisions)
        assert before.bankrupt == {"C": 0, "B": 1, "A": 2}
        states["B"] = replace(states["B"], equity=1e6)
        assert run_cascade(eco, net, config, decisions=decisions) == before
        # the edit would have saved B and A
        rebuilt = Economy(params=params, states=states)
        assert run_cascade(rebuilt, net, config,
                           decisions=decisions).bankrupt == {"C": 0}

    def test_prices_a_supplier_once_per_plan(self, monkeypatch):
        priced = []

        def counted(*args):
            priced.append(args)
            return term_fixed(*args)

        monkeypatch.setattr(cascade, "term_fixed", counted)
        eco, net, plain = make_chain(equity_a=30.0)
        decisions = FrozenMap(plain)
        suppliers = [pricing_args(eco, decisions, f) for f in "AB"]

        config = CascadeConfig(trigger_firms=("C",))
        first = run_cascade(eco, net, config, decisions=decisions)
        # the plan prices every supplier, in position order, when it is
        # built; C supplies nobody
        assert priced == suppliers
        # the same inputs, any trigger: the books priced at build hold
        assert run_cascade(eco, net, config, decisions=decisions) == first
        run_cascade(eco, net, CascadeConfig(trigger_firms=("B",)),
                    decisions=decisions)
        assert priced == suppliers
        # a new FrozenMap with an edit prices again, from the edited decision
        decisions = FrozenMap(
            {**plain, "A": InvestmentDecision(capital=100.0, labor=75.0)})
        edited = run_cascade(eco, net, config, decisions=decisions)
        assert priced[2:] == [pricing_args(eco, decisions, f) for f in "AB"]
        assert priced[2][6:] == (100.0, 75.0)
        assert edited.bankrupt == {"C": 0, "B": 1}

    @pytest.mark.parametrize("trigger", ["B", "D"])
    def test_a_plan_that_cannot_be_priced_fails_for_any_trigger(self,
                                                               trigger):
        # A supplies B and C supplies D; only C's books overflow, so a
        # lazy plan failed for trigger D alone
        params = {f: FirmParameters(alpha=1.9, beta=0.0, cost_coeff=0.0,
                                    interest_rate=0.0) for f in "ABCD"}
        states = {f: FirmState(revenue=100.0, prev_revenue=100.0,
                               capital=100.0, labor=95.0, equity=50.0)
                  for f in "ABCD"}
        net = TransactionNetwork(firms=tuple("ABCD"),
                                 edges=(("A", "B", 0.5), ("C", "D", 0.5)))
        decisions = {f: InvestmentDecision(capital=100.0, labor=95.0)
                     for f in "ABCD"}
        decisions["C"] = InvestmentDecision(capital=1e300, labor=95.0)
        with pytest.raises(OverflowError):
            run_cascade(Economy(params=params, states=states), net,
                        CascadeConfig(trigger_firms=(trigger,)),
                        decisions=decisions)
        assert net not in cascade._plans

    def test_prices_a_pattern_once_per_plan(self, monkeypatch):
        # A supplies B and C; each pattern of dead customers A meets is
        # closed once per plan, however many runs meet it again
        closed = []

        def counted(*args):
            closed.append(args)
            return term_close(*args)

        monkeypatch.setattr(cascade, "term_close", counted)
        eco, _, plain = make_chain()
        decisions = FrozenMap(plain)
        net = TransactionNetwork(firms=("A", "B", "C"),
                                 edges=(("A", "B", 0.5), ("A", "C", 0.5)))

        def run(*triggers):
            return run_cascade(eco, net, CascadeConfig(trigger_firms=triggers),
                               decisions=decisions)

        run("B")
        assert len(closed) == 2      # shocked and baseline sum of A's books
        run("C")
        assert len(closed) == 4      # a second pattern
        first = run("B")
        run("C")
        assert len(closed) == 4      # both remembered
        both = run("B", "C")
        assert len(closed) == 6
        assert both.bankrupt == {"B": 0, "C": 0, "A": 1}
        assert first == run_cascade(
            eco, TransactionNetwork(net.firms, net.edges()),
            CascadeConfig(trigger_firms=("B",)), decisions=decisions)
        assert len(closed) == 8      # a new network starts a new plan
        # a new FrozenMap with an edit starts an empty memo
        decisions = FrozenMap(
            {**plain, "A": InvestmentDecision(capital=100.0, labor=75.0)})
        run("B")
        assert len(closed) == 10

    def test_equal_growth_values_share_a_plan(self, monkeypatch):
        # a caller recomputing the growth ratio passes a new number per
        # call; equal values keep the plan, an int among them
        priced = []

        def counted(*args):
            priced.append(args)
            return term_fixed(*args)

        monkeypatch.setattr(cascade, "term_fixed", counted)
        eco, net, plain = make_chain(equity_a=30.0)
        decisions = FrozenMap(plain)
        g = 1.02
        again = float(repr(g))
        assert again == g and again is not g
        first = run_cascade(eco, net, CascadeConfig(("C",), gdp_growth=g),
                            decisions=decisions)
        assert len(priced) == 2
        assert run_cascade(eco, net, CascadeConfig(("C",), gdp_growth=again),
                           decisions=decisions) == first
        assert len(priced) == 2
        run_cascade(eco, net, CascadeConfig(("C",), gdp_growth=1),
                    decisions=decisions)
        run_cascade(eco, net, CascadeConfig(("C",), gdp_growth=1.0),
                    decisions=decisions)
        assert len(priced) == 4

    @given(drawn_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_a_warm_plan_equals_a_cold_one(self, scenario):
        # every live firm as the only trigger, in turn, fills the memo
        # before the drawn triggers run on the same network
        eco, net, decisions, config = scenario
        for f in eco.firm_ids:
            if not eco.states[f].bankrupt:
                assert_equals_full_rescan(
                    eco, net, decisions, replace(config, trigger_firms=(f,)))
        warm = run_cascade(eco, net, config, decisions=decisions)
        assert_equals_full_rescan(eco, net, decisions, config)
        cold = run_cascade(eco, TransactionNetwork(net.firms, net.edges()),
                           config, decisions=decisions)
        assert repr(warm) == repr(cold)

    @given(drawn_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_library_decisions_build_one_plan(self, scenario):
        # every live firm as the only trigger, with nash_solve's read-only
        # decisions: one plan, priced once and matched by identity alone,
        # whose runs equal cold runs with an editable copy
        eco, net, _, config = scenario
        decisions = nash_solve(eco, net, config.gdp_growth).decisions
        configs = [replace(config, trigger_firms=(f,)) for f in eco.firm_ids
                   if not eco.states[f].bankrupt]
        priced = []

        def counted(*args):
            priced.append(args)
            return term_fixed(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cascade, "term_fixed", counted)
            runs = [run_cascade(eco, net, c, decisions=decisions)
                    for c in configs]
        offsets = net.customers[0]
        assert priced == [
            pricing_args(eco, decisions, f) for i, f in enumerate(net.firms)
            if not eco.states[f].bankrupt and offsets[i] < offsets[i + 1]]
        assert cascade._plans[net].decisions is decisions
        plain = dict(decisions)
        for c, res in zip(configs, runs):
            cold = run_cascade(eco, TransactionNetwork(net.firms, net.edges()),
                               c, decisions=plain)
            assert repr(res) == repr(cold)
            assert_equals_full_rescan(eco, net, decisions, c)

    @pytest.mark.fresh_seed
    @given(drawn_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_a_plain_mapping_builds_a_plan_per_call(self, scenario):
        # a plain dict may be edited between calls, so each call freezes
        # it into a new plan and prices again; one FrozenMap of the same
        # decisions is priced once, and every run is the same
        eco, net, plain, config = scenario
        frozen = FrozenMap(plain)
        priced = []

        def counted(*args):
            priced.append(args)
            return term_fixed(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cascade, "term_fixed", counted)
            shared = [run_cascade(eco, net, config, decisions=frozen)
                      for _ in range(2)]
            once = len(priced)
            plans, own = [], []
            for _ in range(2):
                own.append(run_cascade(eco, net, config, decisions=plain))
                plans.append(cascade._plans[net])
        assert len(priced) == 3 * once
        assert plans[0] is not plans[1]
        assert plans[1].decisions == plain and plans[1].decisions is not plain
        assert len({repr(res) for res in shared + own}) == 1

    def test_plan_dies_with_its_network(self):
        # only this network's plan: others may outlive this test
        eco, net, decisions = make_chain()
        run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                    decisions=decisions)
        plan = weakref.ref(cascade._plans[net])
        del net
        gc.collect()
        assert plan() is None

    def test_decisions_lacking_a_firm_are_refused_and_not_cached(self):
        # a bare KeyError from the first supplier priced, with the
        # half-used plan left cached, before the plan checked them
        eco, net, decisions = make_chain()
        del decisions["A"]
        with pytest.raises(ValueError, match="decisions lack firm 'A'"):
            run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                        decisions=decisions)
        assert net not in cascade._plans


class TestLazyResult:
    """survivors and equity_trace are built on first read of either,
    from the run's raw outcome, and read the same whenever and however
    the result is first read, copied or pickled."""

    @staticmethod
    def copies(res):
        return [copy.copy(res), copy.deepcopy(res)] + [
            pickle.loads(pickle.dumps(res, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]

    @pytest.mark.fresh_seed
    @given(drawn_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_read_order_and_copies_give_one_repr(self, scenario):
        eco, net, decisions, config = scenario
        by_survivors, by_trace, by_repr, unread, read = [
            run_cascade(eco, net, config, decisions=decisions)
            for _ in range(5)]
        # a first read builds both, and later reads return the same dicts
        assert by_survivors.survivors is by_survivors.survivors
        assert by_trace.equity_trace is by_trace.equity_trace
        want = repr(by_repr)
        assert repr(by_survivors) == repr(by_trace) == want
        copies_unread = self.copies(unread)
        repr(read)
        copies_read = self.copies(read)
        for res in (unread, read):
            assert type(res.survivors) is dict
            assert type(res.equity_trace) is dict
        for c in copies_unread + copies_read:
            assert c == by_repr
            assert repr(c) == want
        assert unread == read == by_repr

    @pytest.mark.parametrize("name", ["bankrupt", "survivors", "equity_trace",
                                      "generations_run", "exhausted"])
    def test_every_attribute_is_read_only(self, chain, name):
        eco, net, decisions = chain
        res = run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                          decisions=decisions)
        before = repr(res)
        with pytest.raises(FrozenInstanceError):
            setattr(res, name, {})
        assert repr(res) == before

    @pytest.mark.fresh_seed
    @given(drawn_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_a_result_read_after_its_plan_was_replaced(self, scenario):
        # the late result is read only after other runs added memo
        # entries and a run at another growth ratio replaced its plan
        eco, net, decisions, config = scenario
        frozen = FrozenMap(decisions)
        late = run_cascade(eco, net, config, decisions=frozen)
        at_once = run_cascade(eco, net, config, decisions=frozen)
        want = repr(at_once)
        plan = cascade._plans[net]
        for f in eco.firm_ids:
            if not eco.states[f].bankrupt:
                run_cascade(eco, net, replace(config, trigger_firms=(f,)),
                            decisions=frozen)
        assert cascade._plans[net] is plan
        run_cascade(eco, net, replace(config, gdp_growth=config.gdp_growth
                                      + 0.1), decisions=frozen)
        assert cascade._plans[net] is not plan
        assert repr(late) == want
        assert late == at_once


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        eco, net, decisions, trigger = random_fixture(seed)
        res = run_cascade(eco, net, CascadeConfig(trigger_firms=(trigger,)),
                          decisions=decisions)
        oracle = brute_force_dead(eco, net, {trigger}, decisions)
        assert frozenset(res.bankrupt) == frozenset(oracle)

    def test_matches_brute_force_pure_loss(self):
        eco, net, decisions, trigger = random_fixture(99)
        cfg = CascadeConfig(trigger_firms=(trigger,), policy=PURE_LOSS)
        res = run_cascade(eco, net, cfg, decisions=decisions)
        oracle = brute_force_dead(eco, net, {trigger}, decisions,
                                  policy=PURE_LOSS)
        assert frozenset(res.bankrupt) == frozenset(oracle)

    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize("policy", [ZERO_REVENUE, PURE_LOSS])
    def test_supplier_hubs_match_brute_force(self, seed, policy):
        # every customer of the largest hub from its WORD-th slot on as
        # the only trigger: the hub's mask has a bit past a machine word
        eco, net = supplier_hub_economy(300, seed)
        offsets, positions, _ = net.customers
        i = largest_supplier(net)
        assert offsets[i + 1] - offsets[i] > WORD
        hub = net.firms[i]
        decisions = nash_solve(eco, net, 1.02).decisions
        assert not brute_force_dead(eco, net, set(), decisions, 1.02, policy)
        for c in positions[offsets[i] + WORD:offsets[i + 1]]:
            trigger = net.firms[c]
            res = run_cascade(eco, net, CascadeConfig(
                trigger_firms=(trigger,), gdp_growth=1.02, policy=policy),
                decisions=decisions)
            assert hub in res.equity_trace
            assert frozenset(res.bankrupt) == frozenset(brute_force_dead(
                eco, net, {trigger}, decisions, 1.02, policy))

    def test_chain_matches_brute_force(self):
        eco, net, decisions = make_chain(equity_a=30.0)
        res = run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                          decisions=decisions)
        oracle = brute_force_dead(eco, net, {"C"}, decisions)
        assert frozenset(res.bankrupt) == frozenset(oracle) == {"A", "B", "C"}


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
        eco, net, decisions = flat_economy(
            ids, [(ids[i], ids[i + 1]) for i in range(5)])
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
        assert frozenset(softened.bankrupt) <= frozenset(base.bankrupt)


class TestFrozenDecisionsFromGame:
    def test_nash_decisions_used_when_none_given(self):
        # concave firms so the pre-shock game has a proper optimum
        ids = ("P", "Q")
        params = {f: FirmParameters(alpha=0.3, beta=0.35, cost_coeff=0.2,
                                    interest_rate=0.05, noise_sigma=0.0)
                  for f in ids}
        from oracles import steady_state_inputs
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

    def test_flagged_firm_needs_no_decision(self):
        # nash_solve refused the flagged F0003, and the plan asked for a
        # decision for it, so every run from this economy raised
        eco, net, _ = generate_economy(GeneratorConfig(n_firms=20, seed=1))
        eco = flag_bankrupt(eco, "F0003")
        config = CascadeConfig(trigger_firms=("F0005",))
        res = run_cascade(eco, net, config)
        assert res.bankrupt == {"F0005": 0}
        assert res.generations_run == 1
        assert "F0003" not in res.survivors
        decisions = nash_solve(eco, net, config.gdp_growth).decisions
        assert "F0003" not in decisions
        assert run_cascade(eco, net, config, decisions=decisions) == res

    def test_a_call_without_decisions_solves_the_game_each_time(
            self, monkeypatch):
        # the plan keeps no record of who solved its decisions, so every
        # call without decisions solves the game and builds a new plan
        # on the fresh result; the result it would hand a caller, passed
        # back, reuses that plan without solving
        solved = []

        def counted(*args):
            solved.append(nash_solve(*args))
            return solved[-1]

        monkeypatch.setattr(cascade, "nash_solve", counted)
        eco, net, _ = generate_economy(GeneratorConfig(n_firms=20, seed=1))
        config = CascadeConfig(trigger_firms=("F0005",))
        first = run_cascade(eco, net, config)
        plan = cascade._plans[net]
        assert run_cascade(eco, net, config) == first
        assert len(solved) == 2
        assert cascade._plans[net] is not plan
        assert cascade._plans[net].decisions is solved[1].decisions
        assert solved[0].decisions == solved[1].decisions
        plan = cascade._plans[net]
        assert run_cascade(eco, net, config,
                           decisions=solved[1].decisions) == first
        assert cascade._plans[net] is plan
        assert len(solved) == 2
