"""Domain types and the firm-level bookkeeping: term_rule and solvency."""

import copy
import math
import pickle
import re
from dataclasses import FrozenInstanceError, fields, replace
from operator import setitem

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim import (
    PURE_LOSS,
    ZERO_REVENUE,
    CascadeConfig,
    Economy,
    FirmParameters,
    FirmSeries,
    FirmState,
    InvestmentDecision,
    MacroSeries,
    PanelSeries,
    TransactionNetwork,
    bankrupt_interaction,
    customer_terms_sum,
    interaction_term,
    is_bankrupt,
    nash_solve,
    term_rule,
)
from chainsim.econ import FrozenMap, term_close, term_fixed
from chainsim.io import network_dot, network_graphml

from conftest import make_chain
from network_oracle import PerEdgeNetwork

finite = st.floats(allow_nan=False, allow_infinity=False)
money = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)
elasticity = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


def live_state(revenue=100.0, prev=100.0, capital=1.0, labor=1.0, equity=0.0):
    return FirmState(revenue=revenue, prev_revenue=prev, capital=capital,
                     labor=labor, equity=equity)


def params(alpha=0.0, beta=0.0, cost_coeff=0.0, interest_rate=0.0):
    return FirmParameters(alpha=alpha, beta=beta, cost_coeff=cost_coeff,
                          interest_rate=interest_rate)


def books(state, decision, customer_terms=0.0, noise=0.0, **kwargs):
    return term_rule(state.revenue, state.capital, state.labor,
                     params(**kwargs), decision.capital, decision.labor,
                     customer_terms, noise)


class TestParameterValidation:
    def test_accepts_sensible_values(self):
        p = FirmParameters(alpha=0.3, beta=0.4, cost_coeff=0.2,
                           interest_rate=0.05, noise_sigma=0.02)
        assert p.alpha == 0.3

    @pytest.mark.parametrize("field,value", [
        ("alpha", -0.1), ("beta", -1.0), ("cost_coeff", -0.5),
        ("interest_rate", -0.01), ("noise_sigma", -0.02),
    ])
    def test_rejects_negative_constants(self, field, value):
        kwargs = dict(alpha=0.3, beta=0.3, cost_coeff=0.2,
                      interest_rate=0.05, noise_sigma=0.02)
        kwargs[field] = value
        with pytest.raises(ValueError):
            FirmParameters(**kwargs)


class TestStateValidation:
    @pytest.mark.parametrize("field", ["revenue", "prev_revenue",
                                       "capital", "labor"])
    def test_live_firm_needs_positive_series(self, field):
        kwargs = dict(revenue=1.0, prev_revenue=1.0, capital=1.0,
                      labor=1.0, equity=0.0)
        kwargs[field] = 0.0
        with pytest.raises(ValueError):
            FirmState(**kwargs)

    def test_equity_may_be_negative(self):
        st_ = live_state(equity=-5.0)
        assert st_.equity == -5.0

    def test_growth_ratio(self):
        assert live_state(revenue=110.0, prev=100.0).growth_ratio == pytest.approx(1.1)

    def test_decision_must_be_positive(self):
        with pytest.raises(ValueError):
            InvestmentDecision(capital=0.0, labor=1.0)
        with pytest.raises(ValueError):
            InvestmentDecision(capital=1.0, labor=-2.0)


class TestNetwork:
    def test_edges_sorted_and_queryable(self):
        net = TransactionNetwork(firms=("B", "A", "C"),
                                 edges=(("B", "C", 0.2), ("A", "B", 0.1)))
        assert net.firms == ("A", "B", "C")
        assert list(net.edges()) == [("A", "B", 0.1), ("B", "C", 0.2)]
        assert net.customers_of("A") == (("B", 0.1),)
        assert net.suppliers_of("C") == (("B", 0.2),)
        assert net.strength("B", "C") == 0.2
        assert net.n_edges() == 2

    def test_adjacency_is_sorted_and_stable_across_calls(self):
        # edges given out of order: the sorted views are built once
        edges = (("D", "A", 0.4), ("B", "D", 0.3), ("B", "A", 0.1),
                 ("C", "A", 0.2), ("B", "C", 0.5))
        net = TransactionNetwork(firms=("D", "C", "B", "A"), edges=edges)
        first = {f: (net.customers_of(f), net.suppliers_of(f))
                 for f in net.firms}
        for f in net.firms:
            assert net.customers_of(f) == first[f][0]
            assert net.suppliers_of(f) == first[f][1]
        assert net.customers_of("B") == (("A", 0.1), ("C", 0.5), ("D", 0.3))
        assert net.suppliers_of("A") == (("B", 0.1), ("C", 0.2), ("D", 0.4))
        assert net.customers_of("A") == ()
        listed = [("B", "A", 0.1), ("B", "C", 0.5), ("B", "D", 0.3),
                  ("C", "A", 0.2), ("D", "A", 0.4)]
        assert list(net.edges()) == listed
        assert list(net.edges()) == listed

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            TransactionNetwork(firms=("A",), edges=(("A", "A", 0.1),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            TransactionNetwork(firms=("A", "B"),
                               edges=(("A", "B", 0.1), ("A", "B", 0.2)))

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError):
            TransactionNetwork(firms=("A",), edges=(("A", "Z", 0.1),))

    def test_with_strengths_overrides_only_named_edges(self):
        net = TransactionNetwork(firms=("A", "B", "C"),
                                 edges=(("A", "B", 0.1), ("B", "C", 0.2)))
        new = net.with_strengths({("A", "B"): 0.7})
        assert new.strength("A", "B") == 0.7
        assert new.strength("B", "C") == 0.2
        assert net.strength("A", "B") == 0.1  # original untouched


@st.composite
def drawn_networks(draw):
    """Firm ids in an unsorted order, and an edge list in drawn order."""
    ids = draw(st.lists(st.text("abAB01", min_size=1, max_size=3),
                        min_size=2, max_size=8, unique=True))
    if ids == sorted(ids):
        ids.reverse()
    pairs = [(s, c) for s in ids for c in ids if s != c]
    links = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs)))
    ks = draw(st.lists(finite, min_size=len(links), max_size=len(links)))
    return ids, [(s, c, k) for (s, c), k in zip(links, ks)]


def triples(table):
    """(row, position, k) of a CSR table, in its own order."""
    offsets, positions, ks = table
    return [(i, positions[j], ks[j]) for i in range(len(offsets) - 1)
            for j in range(offsets[i], offsets[i + 1])]


def edge_lines(text, pattern):
    return [m.groups() for m in map(re.compile(pattern).match,
                                    text.splitlines()) if m]


class TestNetworkContract:
    """Every view of the CSR tables against plain dicts of the edge list."""

    @given(drawn_networks(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_a_dict_oracle(self, drawn, data):
        ids, edges = drawn
        net = TransactionNetwork(firms=ids, edges=edges)
        out = {f: {} for f in ids}
        into = {f: {} for f in ids}
        for s, c, k in edges:
            out[s][c] = k
            into[c][s] = k
        firms = sorted(ids)
        assert net.firms == tuple(firms)
        assert net.n_edges() == len(edges)
        assert list(net.edges()) == sorted(edges, key=lambda e: e[:2])
        for f in firms:
            assert net.customers_of(f) == tuple(sorted(out[f].items()))
            assert net.suppliers_of(f) == tuple(sorted(into[f].items()))
            for c in firms:
                if c in out[f]:
                    assert net.strength(f, c) == out[f][c]
                else:
                    with pytest.raises(KeyError):
                        net.strength(f, c)
        with pytest.raises(KeyError):
            net.strength(firms[0], "?")
        with pytest.raises(KeyError):
            net.strength("?", firms[0])
        assert all(type(k) is float for _, _, k in net.edges())

        # the CSR tables
        n = len(firms)
        for table in (net.customers, net.suppliers):
            offsets, positions, ks = table
            assert all(type(part) is tuple for part in table)
            assert len(offsets) == n + 1 and offsets[0] == 0
            assert offsets[-1] == len(positions) == len(ks) == len(edges)
            assert all(a <= b for a, b in zip(offsets, offsets[1:]))
            for i in range(n):
                row = positions[offsets[i]:offsets[i + 1]]
                assert all(a < b for a, b in zip(row, row[1:]))
        as_rows = [(c, s, k.hex()) for s, c, k in triples(net.customers)]
        assert sorted(as_rows) == [(i, p, k.hex())
                                   for i, p, k in triples(net.suppliers)]

        # with_strengths
        override = data.draw(st.dictionaries(
            st.sampled_from([(s, c) for s, c, _ in edges] or [("?", "?")]),
            finite))
        tables = net.customers, net.suppliers
        stray = (firms[0], firms[0])
        new = net.with_strengths({**override, stray: 1.0})
        assert (net.customers, net.suppliers) == tables
        for s, c, k in edges:
            assert net.strength(s, c) == k
            assert new.strength(s, c) == override.get((s, c), k)
        assert new.n_edges() == len(edges)
        if edges:
            s, c, _ = edges[0]
            with pytest.raises(ValueError,
                               match=f"edge \\({s!r}, {c!r}\\) has non-finite k"):
                net.with_strengths({(s, c): math.nan})

        # export order: the oriented (tail, head) pairs, sorted
        for money_flow in (True, False):
            pairs = sorted((c, s) if money_flow else (s, c)
                           for s, c, _ in edges)
            dot = edge_lines(network_dot(net, money_flow=money_flow),
                                   r'  "(.*)" -> "(.*)" \[k=')
            graphml = edge_lines(
                network_graphml(net, money_flow=money_flow),
                r'    <edge source="(.*)" target="(.*)">')
            assert dot == graphml == pairs


    def test_strength_key_error_names_the_key(self):
        net = TransactionNetwork(firms=("A", "B", "C"),
                                 edges=(("A", "C", 0.5), ("B", "A", 0.25)))
        assert net.strength("A", "C") == 0.5
        for supplier, customer, key in (("A", "B", "B"), ("C", "A", "A"),
                                        ("A", "?", "?"), ("?", "A", "?"),
                                        ("?", "!", "?")):
            with pytest.raises(KeyError) as caught:
                net.strength(supplier, customer)
            assert caught.value.args == (key,)


HUGE = 10 ** 400  # an int beyond float range


def _tables_or_error(build, firms, edges):
    """build(firms, edges)'s firms, index and tables, k in bits, or its
    ValueError text."""
    try:
        net = build(firms, edges)
    except ValueError as exc:
        return str(exc)
    return (net.firms, net.index,
            *((offsets, positions, [(type(k), float(k).hex()) for k in ks])
              for offsets, positions, ks in (net.customers, net.suppliers)))


@st.composite
def edge_lists(draw):
    """(firms, edges): ids and (supplier, customer, k) triples that may
    name unknown firms, loop, repeat, or carry an int, huge or
    non-finite k."""
    firms = draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5))
    ids = st.sampled_from(sorted(set(firms)) + ["Z"])
    k = st.one_of(finite, st.integers(-10, 10),
                  st.sampled_from([HUGE, -HUGE, math.inf, math.nan]))
    return firms, draw(st.lists(st.tuples(ids, ids, k), max_size=12))


class TestNetworkMatchesPerEdgeOracle:
    """The columnar build against the per-edge one it replaced."""

    @given(edge_lists(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_same_tables_or_same_error(self, drawn, lazily):
        firms, edges = drawn
        # the per-edge build raises OverflowError on a huge int; the
        # columnar one reads it as non-finite, which is inf to the oracle
        as_inf = [(s, c, math.inf if isinstance(k, int) and abs(k) == HUGE
                   else k) for s, c, k in edges]
        built = _tables_or_error(
            TransactionNetwork, firms, (e for e in edges) if lazily else edges)
        assert built == _tables_or_error(PerEdgeNetwork, firms, as_inf)

    def test_huge_int_k_is_refused_as_non_finite(self):
        with pytest.raises(ValueError,
                           match=r"edge \('A', 'B'\) has non-finite k"):
            TransactionNetwork(("A", "B"), [("B", "A", 1), ("A", "B", HUGE)])


class TestMacroSeries:
    def test_ratio(self):
        m = MacroSeries(gdp=(100.0, 102.0, 104.04))
        assert m.ratio(1) == pytest.approx(1.02)
        assert m.ratio(2) == pytest.approx(1.02)
        with pytest.raises(IndexError):
            m.ratio(0)
        with pytest.raises(IndexError):
            m.ratio(3)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            MacroSeries(gdp=(100.0, 0.0))
        with pytest.raises(ValueError):
            MacroSeries(gdp=())

    def test_rejects_periods_of_another_length(self):
        with pytest.raises(ValueError,
                           match="^periods and gdp lengths differ$"):
            MacroSeries(gdp=(1.0, 2.0), periods=(0, 1, 2))

    def test_rejects_duplicate_period_labels(self):
        # as PanelSeries and load_gdp do
        with pytest.raises(ValueError, match="duplicate period labels"):
            MacroSeries(gdp=(1.0, 2.0), periods=(0, 0))
        with pytest.raises(ValueError, match="duplicate period labels"):
            MacroSeries(gdp=(1.0, 2.0, 3.0), periods=(5, 6, 5))


class TestEconomy:
    def test_ids_must_align(self):
        p = FirmParameters(alpha=0.3, beta=0.3, cost_coeff=0.2,
                           interest_rate=0.05, noise_sigma=0.0)
        with pytest.raises(ValueError):
            Economy(params={"A": p}, states={"B": live_state()})

    def test_is_read_only_and_detached_from_its_inputs(self):
        p = FirmParameters(alpha=0.3, beta=0.3, cost_coeff=0.2,
                           interest_rate=0.05, noise_sigma=0.0)
        states = {"A": live_state()}
        eco = Economy(params={"A": p}, states=states)
        dead = replace(states["A"], bankrupt=True)
        with pytest.raises(TypeError):
            eco.states["A"] = dead
        with pytest.raises(TypeError):
            eco.params["A"] = p
        with pytest.raises(FrozenInstanceError):
            eco.states = {"A": dead}
        states["A"] = dead
        assert not eco.states["A"].bankrupt
        # a changed economy is a new one
        marked = replace(eco, states=states)
        assert marked.states["A"].bankrupt and not eco.states["A"].bankrupt


class TestProductionRatio:
    """The growth factor (K'/K)^alpha (L'/L)^beta inside term_rule."""

    def test_unchanged_inputs_give_one(self):
        st_ = live_state(capital=3.0, labor=7.0)
        dec = InvestmentDecision(capital=3.0, labor=7.0)
        revenue, _, _ = books(st_, dec, alpha=0.37, beta=0.41)
        assert revenue == 100.0

    def test_linear_in_capital(self):
        st_ = live_state(capital=1.0, labor=1.0)
        dec = InvestmentDecision(capital=2.0, labor=1.0)
        revenue, _, _ = books(st_, dec, alpha=1.0, beta=0.0)
        assert revenue == pytest.approx(200.0)

    def test_square_root_case(self):
        st_ = live_state(capital=1.0, labor=1.0)
        dec = InvestmentDecision(capital=4.0, labor=1.0)
        revenue, _, _ = books(st_, dec, alpha=0.5, beta=0.5)
        assert revenue == pytest.approx(200.0)

    @given(k=money, l=money, a=elasticity, b=elasticity)
    @settings(max_examples=50, deadline=None)
    def test_identity_for_any_elasticities(self, k, l, a, b):
        st_ = live_state(capital=k, labor=l)
        dec = InvestmentDecision(capital=k, labor=l)
        revenue, _, floored = books(st_, dec, alpha=a, beta=b)
        assert revenue == 100.0
        assert not floored


class TestInteractionTerm:
    def test_matching_growth_cancels(self):
        assert interaction_term(0.8, 1.03, 1.03) == 0.0

    def test_hand_value(self):
        assert interaction_term(0.5, 1.10, 1.05) == pytest.approx(0.025)

    def test_dead_customer_drags(self):
        assert bankrupt_interaction(0.2, 1.02) == pytest.approx(-0.204)

    def test_pure_loss_policy(self):
        assert bankrupt_interaction(0.2, 1.02, policy=PURE_LOSS) == -0.2

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            bankrupt_interaction(0.2, 1.02, policy="noop")

    @given(k=st.floats(min_value=-2, max_value=2, allow_nan=False),
           c=st.floats(min_value=1, max_value=5, allow_nan=False),
           cust=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
           g=st.floats(min_value=0.5, max_value=2.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_strength(self, k, c, cust, g):
        assert interaction_term(c * k, cust, g) == pytest.approx(
            c * interaction_term(k, cust, g), abs=1e-12)


HOLD = InvestmentDecision(capital=1.0, labor=1.0)


class TestRevenueNext:
    """Next-term revenue: revenue * (growth + customer terms + shock)."""

    def test_identity_with_no_customers(self):
        assert books(live_state(), HOLD)[0] == 100.0

    def test_hand_value_growth(self):
        # capital 1 -> 1.02 at alpha 1 is a growth factor of exactly 1.02
        dec = InvestmentDecision(capital=1.02, labor=1.0)
        revenue, _, _ = books(live_state(), dec, 0.025, alpha=1.0)
        assert revenue == pytest.approx(104.5)

    def test_hand_value_dead_customer(self):
        assert books(live_state(), HOLD, -0.204)[0] == pytest.approx(79.6)

    def test_noise_term_scales_in(self):
        assert books(live_state(), HOLD, noise=0.03)[0] == pytest.approx(103.0)

    def test_floor_catches_wipeout(self):
        revenue, _, floored = books(live_state(), HOLD, -1.5)
        assert floored
        assert revenue == pytest.approx(1e-4)

    def test_floor_leaves_positive_alone(self):
        revenue, _, floored = books(live_state(), HOLD, 0.045)
        assert not floored
        assert revenue == pytest.approx(104.5)

    def test_exactly_zero_revenue_is_floored(self):
        revenue, _, floored = books(live_state(), HOLD, -1.0)
        assert floored
        assert revenue == 100.0 * 1e-6

    def test_floored_revenue_enters_profit(self):
        # wiped out: profit is the floor less wages, not the raw revenue
        _, profit, _ = books(live_state(), HOLD, -1.5)
        assert profit == 100.0 * 1e-6 - 1.0


class TestCustomerTerms:
    def test_sums_live_and_dead(self):
        net = TransactionNetwork(firms=("S", "X", "Y"),
                                 edges=(("S", "X", 0.5), ("S", "Y", 0.2)))
        states = {
            "S": live_state(),
            "X": live_state(revenue=110.0, prev=100.0),
            "Y": FirmState(revenue=100.0, prev_revenue=100.0, capital=1.0,
                           labor=1.0, equity=-1.0, bankrupt=True),
        }
        total = customer_terms_sum("S", net, states, 1.05)
        # 0.5*(1.10-1.05) + 0.2*(0-1.05)
        assert total == pytest.approx(0.025 - 0.21)
        total_pl = customer_terms_sum("S", net, states, 1.05, policy=PURE_LOSS)
        assert total_pl == pytest.approx(0.025 - 0.2)

    def test_no_customers_means_zero(self):
        net = TransactionNetwork(firms=("S",))
        assert customer_terms_sum("S", net, {"S": live_state()}, 1.02) == 0.0


class TestCostProfitEquity:
    """profit = revenue - cost_coeff K'^alpha L'^beta - r K' - L'."""

    def test_cost_zero_coeff(self):
        dec = InvestmentDecision(5.0, 5.0)
        st_ = live_state(capital=5.0, labor=5.0)
        _, profit, _ = books(st_, dec, alpha=0.5, beta=0.5)
        assert profit == 100.0 - 5.0

    def test_cost_unit_inputs(self):
        _, profit, _ = books(live_state(), HOLD, alpha=0.5, beta=0.3,
                             cost_coeff=0.37)
        assert profit == pytest.approx(100.0 - 0.37 - 1.0)

    def test_cost_hand_value(self):
        dec = InvestmentDecision(16.0, 1.0)
        st_ = live_state(capital=16.0)
        _, profit, _ = books(st_, dec, alpha=0.5, beta=0.3, cost_coeff=0.5)
        assert profit == pytest.approx(100.0 - 2.0 - 1.0)

    def test_profit_cancellation(self):
        dec = InvestmentDecision(capital=10.0, labor=1e-9)
        st_ = live_state(revenue=40.0, capital=10.0, labor=1e-9)
        _, profit, _ = books(st_, dec, cost_coeff=40.0)
        assert profit == pytest.approx(-1e-9)

    def test_profit_hand_value(self):
        dec = InvestmentDecision(capital=200.0, labor=30.0)
        st_ = live_state(capital=200.0, labor=30.0)
        revenue, profit, _ = books(st_, dec, 0.045, cost_coeff=40.0,
                                   interest_rate=0.05)
        assert revenue == pytest.approx(104.5)
        assert profit == pytest.approx(24.5)

    def test_equity_roll(self):
        # the caller rolls profit into equity: 50 + (-80) is a deficit
        dec = InvestmentDecision(capital=1.0, labor=180.0)
        st_ = live_state(labor=180.0, equity=50.0)
        _, profit, _ = books(st_, dec)
        assert profit == -80.0
        assert st_.equity + profit == -30.0
        assert is_bankrupt(st_.equity + profit)
        _, profit, _ = books(live_state(labor=100.0, equity=7.0),
                             InvestmentDecision(capital=1.0, labor=100.0))
        assert profit == 0.0
        assert not is_bankrupt(7.0 + profit)


class TestTermParts:
    """term_fixed once, then term_close per sum, gives term_rule's bits."""

    @given(k=money, l=money, k2=money, l2=money, a=elasticity, b=elasticity,
           c=st.floats(0.0, 1.0), r=st.floats(0.0, 0.1),
           sums=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_parts_compose_to_the_rule(self, k, l, k2, l2, a, b, c, r, sums):
        p = params(alpha=a, beta=b, cost_coeff=c, interest_rate=r)
        growth, cost, charge = term_fixed(k, l, a, b, c, r, k2, l2)
        assert growth == (k2 / k) ** a * (l2 / l) ** b
        assert cost == c * k2 ** a * l2 ** b
        assert charge == r * k2
        for terms in sums:
            assert (term_close(100.0, growth, cost, charge, l2, terms)
                    == term_rule(100.0, k, l, p, k2, l2, terms))


class TestBankruptPredicate:
    def test_boundary(self):
        assert is_bankrupt(-30.0)
        assert not is_bankrupt(10.0)
        assert not is_bankrupt(0.0)
        assert is_bankrupt(-math.ulp(0.0))

    @given(x1=finite, x2=finite)
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, x1, x2):
        lo, hi = min(x1, x2), max(x1, x2)
        if is_bankrupt(hi):
            assert is_bankrupt(lo)


def _panel():
    grid = np.arange(1.0, 7.0).reshape(2, 3)
    return PanelSeries(("A", "B"), grid, grid + 1.0, grid + 2.0,
                       gdp=np.array([1.0, 1.1, 1.2]), periods=(4, 5, 6),
                       equity=-grid)


# type -> (a value of it, edits of a copy that must each raise)
ROUND_TRIPPED = {
    "Economy": (lambda: make_chain()[0], [
        lambda x: setitem(x.states, "A", x.states["B"]),
        lambda x: setitem(x.params, "A", x.params["B"]),
        lambda x: setattr(x, "states", {})]),
    "NashResult": (lambda: nash_solve(*make_chain()[:2], 1.02), [
        lambda x: setitem(x.decisions, "A", x.decisions["B"]),
        lambda x: setattr(x, "decisions", {})]),
    "PanelSeries": (_panel, [
        lambda x, name=name: setitem(getattr(x, name), (0, 0), -5.0)
        for name in ("revenue", "capital", "labor", "equity")]
        + [lambda x: setitem(x.gdp, 0, -5.0)]),
    "FirmSeries": (lambda: _panel().firm("B"), [
        lambda x, name=name: setitem(getattr(x, name), 0, -5.0)
        for name in ("revenue", "capital", "labor")]),
    "CascadeConfig": (
        lambda: CascadeConfig(("A", "B"), gdp_growth=1.02, max_generations=3),
        [lambda x: setattr(x, "gdp_growth", 1.0)]),
}

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle {protocol}": (
        lambda x, protocol=protocol: pickle.loads(pickle.dumps(x, protocol)))
       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)},
}


def _same(a, b) -> bool:
    """Equal types and fields; arrays equal in dtype and values."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if hasattr(a, "__dataclass_fields__"):
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in fields(a))
    return a == b


class TestRoundTrips:
    """Copies, deep copies and pickles equal the original and stay
    read-only, maps as FrozenMaps and arrays as read-only arrays."""

    @pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
    @pytest.mark.parametrize("build, edits", ROUND_TRIPPED.values(),
                             ids=ROUND_TRIPPED)
    def test_equal_and_read_only(self, build, edits, trip):
        original = build()
        again = trip(original)
        assert _same(again, original)
        for edit in edits:
            with pytest.raises((TypeError, ValueError, FrozenInstanceError)):
                edit(again)
        assert _same(again, original)
        for f in fields(again):
            value = getattr(again, f.name)
            if isinstance(value, dict):
                assert type(value) is FrozenMap
