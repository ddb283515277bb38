"""Synthetic economy generator and the forward simulator."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainsim import (
    EDGE_MODELS,
    Economy,
    FirmParameters,
    FirmState,
    GeneratorConfig,
    InvestmentDecision,
    MacroSeries,
    TransactionNetwork,
    best_response_closed_form,
    economy_from_panel,
    forward_simulate,
    generate_economy,
    generate_gdp,
    generate_network,
    generate_params,
    generate_states,
    simulate_economy,
)
from chainsim.econ import customer_terms_sum
from chainsim.game import ParamColumns, PayoffContext
from chainsim.netgen import firm_ids, steady_state_columns

from conftest import flag_bankrupt, make_chain, mismatched_chain_network
from oracles import residual_series, steady_state_inputs


class TestConfigValidation:
    def test_defaults_are_legal(self):
        cfg = GeneratorConfig()
        assert cfg.n_firms >= 1 and cfg.horizon >= 3

    @pytest.mark.parametrize("kwargs", [
        {"n_firms": 0},
        {"horizon": 2},
        {"edge_model": "smallworld"},
        {"gdp_start": 0.0},
        # generate_gdp would redraw forever on any of these
        {"gdp_growth": -1.0}, {"gdp_growth": -1.5}, {"gdp_growth": -2.0},
        {"gdp_growth": math.nan}, {"gdp_growth": math.inf},
        {"gdp_growth": -math.inf},
        {"gdp_volatility": -0.01}, {"gdp_volatility": math.nan},
        {"gdp_volatility": math.inf},
        # a NaN degree wired the complete graph
        {"mean_out_degree": math.nan}, {"mean_out_degree": math.inf},
        {"mean_out_degree": -1.0},
        # _draw_elasticities would redraw forever on these
        {"elasticity_sum_max": 0.2}, {"elasticity_sum_max": 0.1},
        {"elasticity_sum_max": math.nan},
        # rng.uniform overflows on a non-finite range; an inverted or
        # malformed range is no range
        {"alpha_range": (0.1, math.nan)}, {"alpha_range": (0.6, 0.1)},
        {"beta_range": (-math.inf, 0.6)}, {"beta_range": ("0.1", 0.6)},
        {"strength_range": (0.0, math.inf)}, {"strength_range": (0.3, 0.0)},
        {"cost_coeff_range": (math.nan, 0.5)}, {"cost_coeff_range": (0.1,)},
        {"revenue_range": (150.0, 50.0)}, {"revenue_range": (50.0, math.inf)},
        {"equity_frac_range": (0.4, 0.05)}, {"equity_frac_range": 0.4},
        # generate_gdp redrew forever from a NaN start
        {"gdp_start": math.nan}, {"gdp_start": math.inf}, {"gdp_start": -1.0},
        {"gdp_start": True},
        # strings failed deep in the draw; a negative jitter ran as none
        {"interest_rate": "0.05"}, {"interest_rate": -0.01},
        {"interest_rate": math.nan},
        {"noise_sigma": "0.02"}, {"noise_sigma": -0.1},
        {"noise_sigma": math.inf},
        {"start_jitter": "0.2"}, {"start_jitter": math.nan},
        {"decision_jitter": "0.8"}, {"decision_jitter": -0.5},
        {"decision_jitter": math.inf}, {"decision_jitter": False},
        # a bool drew as 1.0; a string failed outside the check
        {"gdp_growth": True}, {"gdp_volatility": True},
        {"mean_out_degree": True}, {"elasticity_sum_max": True},
        {"gdp_growth": "0.02"}, {"gdp_volatility": "0.01"},
        {"mean_out_degree": "2"}, {"elasticity_sum_max": "0.95"},
        # True generated one firm; fractions failed in range or numpy,
        # and a negative seed in numpy
        {"n_firms": True}, {"n_firms": 2.5}, {"horizon": 3.5},
        {"seed": 1.5}, {"seed": -1}, {"seed": True}, {"seed": "3"},
        # FirmState refused the drawn revenue deep in generation
        {"revenue_range": (-1.0, 1.0)}, {"revenue_range": (0.0, 0.0)},
        {"revenue_range": (0.0, 150.0)},
        # high - low overflowed to inf: every draw was inf or NaN, and
        # _draw_elasticities redrew forever
        {"beta_range": (-1e308, 1e308)}, {"alpha_range": (-1e308, 1e308)},
        {"strength_range": (-1e308, 1e308)},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            GeneratorConfig(**kwargs)

    def test_point_range_accepted(self):
        cfg = GeneratorConfig(n_firms=3, strength_range=(0.2, 0.2))
        net = generate_network(cfg, np.random.default_rng(0))
        assert all(k == 0.2 for _, _, k in net.edges())

    def test_steep_but_feasible_gdp_path_accepted(self):
        cfg = GeneratorConfig(horizon=6, gdp_growth=-0.9, gdp_volatility=0.0)
        macro = generate_gdp(cfg, np.random.default_rng(0))
        assert all(g > 0.0 for g in macro.gdp)

    def test_firm_id_shape(self):
        ids = firm_ids(3)
        assert ids == ("F0000", "F0001", "F0002")
        assert len(firm_ids(20000)) == 20000


class TestIntsBeyondFloatRange:
    @pytest.mark.parametrize("kwargs, name", [
        ({"mean_out_degree": 10 ** 400}, "mean_out_degree"),
        ({"gdp_growth": -(10 ** 400)}, "gdp_growth"),
        ({"alpha_range": (10 ** 400, 10 ** 401)}, "alpha_range"),
        # each end fits a float, the width does not
        ({"strength_range": (-(10 ** 308), 10 ** 308)}, "strength_range"),
    ])
    def test_refused_as_not_finite(self, kwargs, name):
        # math.isfinite raised OverflowError on these
        with pytest.raises(ValueError, match=name):
            GeneratorConfig(**kwargs)


class TestParams:
    def test_ranges_respected(self):
        cfg = GeneratorConfig(n_firms=200, seed=1)
        params = generate_params(cfg, np.random.default_rng(1))
        assert len(params) == 200
        for p in params.values():
            assert 0.1 <= p.alpha <= 0.6
            assert 0.1 <= p.beta <= 0.6
            assert p.alpha + p.beta < 0.95
            assert 0.1 <= p.cost_coeff <= 0.5
            assert p.interest_rate == 0.05
            assert p.noise_sigma == 0.02


def _redraw_with_uniform(config):
    """generate_params, generate_states and the scale-free strengths
    drawn with scalar rng.uniform calls, in the generator's draw order."""
    rng = np.random.default_rng([config.seed, 1])
    params = {}
    for fid in firm_ids(config.n_firms):
        while True:
            a = rng.uniform(*config.alpha_range)
            b = rng.uniform(*config.beta_range)
            if a + b < config.elasticity_sum_max:
                break
        params[fid] = FirmParameters(
            alpha=a, beta=b, cost_coeff=rng.uniform(*config.cost_coeff_range),
            interest_rate=config.interest_rate,
            noise_sigma=config.noise_sigma)
    rng = np.random.default_rng([config.seed, 4])
    states = {}
    for fid in sorted(params):
        revenue = rng.uniform(*config.revenue_range)
        k, l = steady_state_inputs(params[fid], revenue)
        capital = k * math.exp(config.start_jitter * rng.normal())
        labor = l * math.exp(config.start_jitter * rng.normal())
        equity = rng.uniform(*config.equity_frac_range) * revenue
        states[fid] = FirmState(revenue, revenue / (1.0 + config.gdp_growth),
                                capital, labor, equity)
    rng = np.random.default_rng([config.seed, 2])
    ids = firm_ids(config.n_firms)
    in_deg = np.zeros(config.n_firms)
    strengths = []
    for i in range(1, config.n_firms):
        weights = in_deg[:i] + 1.0
        targets = rng.choice(i, size=min(i, round(config.mean_out_degree)),
                             replace=False, p=weights / weights.sum())
        for j in sorted(int(t) for t in targets):
            strengths.append(
                (ids[i], ids[j], rng.uniform(*config.strength_range)))
            in_deg[j] += 1.0
    return params, states, sorted(strengths)


def _one_shot_random_draw(config, rng):
    """The random model's triples drawn from one (n, n) uniform call, the
    whole mask in memory at once."""
    n = config.n_firms
    if n < 2:
        return []
    ids = firm_ids(n)
    hit = rng.random((n, n)) < min(1.0, config.mean_out_degree / (n - 1))
    np.fill_diagonal(hit, False)
    rows, cols = np.nonzero(hit)
    ks = rng.uniform(*config.strength_range, size=rows.size)
    return [(ids[i], ids[j], float(k)) for i, j, k in zip(rows, cols, ks)]


def _bits(values):
    return [float(x).hex() for x in values]


class TestUniformDraws:
    @pytest.mark.parametrize("config", [
        GeneratorConfig(n_firms=60, seed=5, edge_model="scale-free"),
        # low == high, and ints where a range allows them
        GeneratorConfig(n_firms=30, seed=6, edge_model="scale-free",
                        alpha_range=(0.3, 0.3), beta_range=(0.2, 0.2),
                        cost_coeff_range=(0.25, 0.25), revenue_range=(80, 80),
                        strength_range=(0, 0), equity_frac_range=(0.1, 0.1)),
    ])
    def test_same_bits_as_scalar_uniform(self, config):
        params, states, strengths = _redraw_with_uniform(config)
        got = generate_params(config, np.random.default_rng([config.seed, 1]))
        assert list(got) == list(params)
        for fid, p in got.items():
            want = params[fid]
            assert _bits((p.alpha, p.beta, p.cost_coeff)) == _bits(
                (want.alpha, want.beta, want.cost_coeff))
        got = generate_states(config, params,
                              np.random.default_rng([config.seed, 4]))
        assert list(got) == list(states)
        for fid, st in got.items():
            assert _bits(dataclasses.astuple(st)[:5]) == _bits(
                dataclasses.astuple(states[fid])[:5])
        net = generate_network(config, np.random.default_rng([config.seed, 2]))
        got = sorted(net.edges())
        assert [e[:2] for e in got] == [e[:2] for e in strengths]
        assert _bits(e[2] for e in got) == _bits(e[2] for e in strengths)


class TestRandomModelStream:
    # with 2**16-double blocks, 256 firms fill one block exactly, 300
    # split into 218 + 82 rows, and 1000 take 16 blocks of 65 rows (the
    # last one 25); a degree of n - 1 or more makes p = 1
    @pytest.mark.parametrize("seed", [0, 9])
    @pytest.mark.parametrize("n,degree", [
        (1, 2.0), (2, 2.0), (3, 2.0), (2, 0.0), (3, 0.0), (2, 1.0), (3, 5.0),
        (256, 2.0), (300, 2.0), (1000, 2.0),
        (300, 0.0), (256, 255.0), (300, 400.0),
    ])
    def test_blocks_read_the_one_shot_stream(self, n, degree, seed):
        config = GeneratorConfig(n_firms=n, mean_out_degree=degree)
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        got = list(generate_network(config, rng).edges())
        want = _one_shot_random_draw(config, oracle)
        assert [e[:2] for e in got] == [e[:2] for e in want]
        assert _bits(e[2] for e in got) == _bits(e[2] for e in want)
        assert _bits([rng.random()]) == _bits([oracle.random()])

    def test_draw_memory_stays_below_quadratic(self):
        # one (3000, 3000) float64 draw alone is 72 MB
        rng = np.random.default_rng(3)
        tracemalloc.start()
        try:
            generate_network(GeneratorConfig(n_firms=3000), rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestNetworkGeneration:
    def test_single_firm_has_no_edges(self):
        cfg = GeneratorConfig(n_firms=1)
        net = generate_network(cfg, np.random.default_rng(0))
        assert net.n_edges() == 0

    def test_random_model_edge_count_band(self):
        cfg = GeneratorConfig(n_firms=100, mean_out_degree=2.0)
        counts = []
        for seed in range(40):
            net = generate_network(cfg, np.random.default_rng(seed))
            counts.append(net.n_edges())
        # binomial(9900, 2/99): mean 200, sd ~14; the band is ~7 sigma
        assert all(100 <= c <= 300 for c in counts)

    def test_deterministic_per_seed(self):
        cfg = GeneratorConfig(n_firms=60, seed=5)
        a = generate_network(cfg, np.random.default_rng(5))
        b = generate_network(cfg, np.random.default_rng(5))
        assert list(a.edges()) == list(b.edges())

    def test_strengths_in_range(self):
        cfg = GeneratorConfig(n_firms=80)
        net = generate_network(cfg, np.random.default_rng(2))
        assert all(0.0 <= k <= 0.3 for _, _, k in net.edges())

    def test_scale_free_model_is_valid_and_deterministic(self):
        cfg = GeneratorConfig(n_firms=100, edge_model="scale-free",
                              mean_out_degree=2.0)
        a = generate_network(cfg, np.random.default_rng(3))
        b = generate_network(cfg, np.random.default_rng(3))
        assert list(a.edges()) == list(b.edges())
        assert 0 < a.n_edges() <= 300
        assert all(s != c for s, c, _ in a.edges())

    def test_edge_models_registry(self):
        assert set(EDGE_MODELS) == {"random", "scale-free"}


class TestGdp:
    def test_flat_two_percent_path(self):
        cfg = GeneratorConfig(horizon=6, gdp_growth=0.02, gdp_volatility=0.0,
                              gdp_start=100.0)
        m = generate_gdp(cfg, np.random.default_rng(0))
        assert m.gdp == pytest.approx(tuple(100.0 * 1.02 ** t for t in range(6)))

    def test_zero_growth_constant_series(self):
        cfg = GeneratorConfig(horizon=5, gdp_growth=0.0, gdp_volatility=0.0)
        m = generate_gdp(cfg, np.random.default_rng(0))
        assert all(m.ratio(t) == 1.0 for t in range(1, 5))

    def test_determinism(self):
        cfg = GeneratorConfig(horizon=30, gdp_volatility=0.05)
        a = generate_gdp(cfg, np.random.default_rng(9))
        b = generate_gdp(cfg, np.random.default_rng(9))
        assert a.gdp == b.gdp

    def test_survives_violent_volatility(self):
        cfg = GeneratorConfig(horizon=50, gdp_growth=0.0, gdp_volatility=5.0)
        m = generate_gdp(cfg, np.random.default_rng(4))
        assert all(g > 0 for g in m.gdp)


def _fixed_bisection(p: FirmParameters, revenue: float) -> tuple[float, float]:
    """steady_state_inputs' bisection with all 200 steps taken."""
    a, b, r, A = p.alpha, p.beta, p.interest_rate, p.cost_coeff
    c, s = b * r / a, a + b
    lo, hi = math.log(1e-9), math.log(1e12)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        k = math.exp(mid)
        if r * k ** (1.0 - s) / a + A * c ** b - revenue * k ** (-s) < 0.0:
            lo = mid
        else:
            hi = mid
    k = math.exp(0.5 * (lo + hi))
    return k, c * k


class TestSteadyState:
    # revenue over sixty decades puts some roots beyond the [1e-9, 1e12]
    # bracket, which pins k to one of its ends
    @given(alpha=st.floats(0.01, 0.6), beta=st.floats(0.01, 0.38),
           cost=st.floats(0.0, 2.0), rate=st.floats(1e-4, 0.5),
           revenue=st.builds(lambda x: 10.0 ** x, st.floats(-30.0, 30.0)))
    # revenue r/alpha + A c^beta puts the root at k = 1, which takes 111 steps
    @example(alpha=0.35, beta=0.4, cost=0.3, rate=0.05,
             revenue=0.05 / 0.35 + 0.3 * (0.4 * 0.05 / 0.35) ** 0.4)
    # no positive root: gap decides every midpoint
    @example(alpha=0.35, beta=0.4, cost=0.3, rate=0.05, revenue=0.0)
    @example(alpha=0.35, beta=0.4, cost=0.3, rate=0.05, revenue=-5.0)
    @example(alpha=0.35, beta=0.4, cost=0.3, rate=0.05, revenue=math.inf)
    @example(alpha=0.35, beta=0.4, cost=0.3, rate=0.05, revenue=math.nan)
    # roots below 1e-9 and above 1e12, and one at 1e12 itself
    @example(alpha=0.35, beta=0.4, cost=0.3, rate=0.05, revenue=1e-10)
    @example(alpha=0.35, beta=0.4, cost=0.3, rate=0.05, revenue=1e15)
    @example(alpha=0.35, beta=0.4, cost=0.3, rate=0.05,
             revenue=0.05 / 0.35 * 1e12
             + 0.3 * (0.4 * 0.05 / 0.35) ** 0.4 * 1e12 ** 0.75)
    @settings(max_examples=300, deadline=None)
    def test_early_stop_matches_all_200_steps(self, alpha, beta, cost, rate,
                                              revenue):
        p = FirmParameters(alpha=alpha, beta=beta, cost_coeff=cost,
                           interest_rate=rate)
        assert steady_state_inputs(p, revenue) == _fixed_bisection(p, revenue)

    def test_fixed_point_of_best_response(self):
        from chainsim import GameConfig, PayoffContext
        p = FirmParameters(alpha=0.35, beta=0.4, cost_coeff=0.3,
                           interest_rate=0.05, noise_sigma=0.0)
        k, l = steady_state_inputs(p, 100.0)
        ctx = PayoffContext(revenue=100.0, capital=k, labor=l,
                            customer_terms=0.0, params=p)
        dec = best_response_closed_form(ctx, GameConfig())
        assert dec.capital == pytest.approx(k, rel=1e-9)
        assert dec.labor == pytest.approx(l, rel=1e-9)

    def test_needs_strictly_concave_interior(self):
        flat = FirmParameters(alpha=0.0, beta=0.4, cost_coeff=0.3,
                              interest_rate=0.05, noise_sigma=0.0)
        with pytest.raises(ValueError):
            steady_state_inputs(flat, 100.0)


@st.composite
def steady_state_rows(draw):
    """(alpha, beta, cost, rate, revenue) of one firm: test_early_stop's
    ranges, a root at k = 1 (111 steps), or a revenue with no positive
    root or none inside the bracket, where gap decides every midpoint."""
    alpha = draw(st.floats(0.01, 0.6))
    beta = draw(st.floats(0.01, 0.38))
    cost = draw(st.floats(0.0, 2.0))
    rate = draw(st.floats(1e-4, 0.5))
    at_one = rate / alpha + cost * (beta * rate / alpha) ** beta
    revenue = draw(st.one_of(
        st.builds(lambda x: 10.0 ** x, st.floats(-30.0, 30.0)),
        st.just(at_one),
        st.sampled_from([0.0, -5.0, math.inf, math.nan, 1e-10, 1e15])))
    return alpha, beta, cost, rate, revenue


class TestSteadyStateColumns:
    # rows that stop after different numbers of steps, and rows without
    # a verified root, bisected together
    @given(st.lists(steady_state_rows(), min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_columns_match_rows_and_all_200_steps(self, rows):
        params = [FirmParameters(alpha=a, beta=b, cost_coeff=c,
                                 interest_rate=r) for a, b, c, r, _ in rows]
        revenue = np.array([row[4] for row in rows])
        k, l = steady_state_columns(ParamColumns(params), revenue)
        got = list(zip(k.tolist(), l.tolist()))
        for p, rev, kl in zip(params, revenue.tolist(), got):
            assert kl == steady_state_inputs(p, rev) == _fixed_bisection(p, rev)

    def test_a_bad_row_refuses_the_column(self):
        good = FirmParameters(alpha=0.3, beta=0.3, cost_coeff=0.2,
                              interest_rate=0.05)
        bad = FirmParameters(alpha=0.6, beta=0.5, cost_coeff=0.2,
                             interest_rate=0.05)
        with pytest.raises(ValueError, match="alpha \\+ beta < 1"):
            steady_state_columns(ParamColumns([good, bad]),
                                 np.array([100.0, 100.0]))


class TestForwardSimulate:
    @pytest.mark.parametrize("firm", ["C", "D"])
    def test_refuses_network_over_other_firms(self, firm):
        eco, _, _ = make_chain()
        macro = MacroSeries(gdp=(100.0, 100.0, 100.0))
        with pytest.raises(ValueError, match=f"firm {firm!r} is only in the"):
            forward_simulate(eco, mismatched_chain_network(firm), macro)

    def test_noiseless_panel_satisfies_the_model(self):
        cfg = GeneratorConfig(n_firms=20, seed=11)
        economy, network, _, res = simulate_economy(cfg, noise_on=False)
        panel = res.panel
        for f in panel.firm_ids:
            custs = {c: panel.firm(c) for c, _ in network.customers_of(f)}
            ks = {c: network.strength(f, c) for c, _ in network.customers_of(f)}
            p = economy.params[f]
            eps = residual_series(panel.firm(f), custs, panel.gdp,
                                  p.alpha, p.beta, ks)
            assert np.max(np.abs(eps)) < 1e-12

    def test_noise_scale_comes_out_as_put_in(self):
        cfg = GeneratorConfig(n_firms=100, seed=13)
        economy, network, _, res = simulate_economy(cfg, noise_on=True)
        panel = res.panel
        scaled = []
        for f in panel.firm_ids:
            custs = {c: panel.firm(c) for c, _ in network.customers_of(f)}
            ks = {c: network.strength(f, c) for c, _ in network.customers_of(f)}
            p = economy.params[f]
            eps = residual_series(panel.firm(f), custs, panel.gdp,
                                  p.alpha, p.beta, ks)
            scaled.extend(eps / p.noise_sigma)
        scaled = np.asarray(scaled)
        assert scaled.size >= 500
        assert 0.8 <= float(np.std(scaled)) <= 1.2

    def test_equity_rolls_by_term_profit(self):
        cfg = GeneratorConfig(n_firms=10, seed=17)
        economy, _, _, res = simulate_economy(cfg, noise_on=True)
        panel = res.panel
        for f in panel.firm_ids:
            s = panel.firm(f)
            e = panel.equity[panel.rows[f]]
            p = economy.params[f]
            for t in range(panel.n_periods - 1):
                cost = p.cost_coeff * s.capital[t + 1] ** p.alpha * s.labor[t + 1] ** p.beta
                pi = (s.revenue[t + 1] - cost
                      - p.interest_rate * s.capital[t + 1] - s.labor[t + 1])
                assert e[t + 1] == pytest.approx(e[t] + pi, rel=1e-9, abs=1e-9)

    def test_same_seed_identical_panels(self):
        cfg = GeneratorConfig(n_firms=15, seed=23)
        _, _, _, a = simulate_economy(cfg)
        _, _, _, b = simulate_economy(cfg)
        for f in a.panel.firm_ids:
            assert np.array_equal(a.panel.firm(f).revenue, b.panel.firm(f).revenue)
            assert np.array_equal(a.panel.firm(f).capital, b.panel.firm(f).capital)
            assert np.array_equal(a.panel.firm(f).labor, b.panel.firm(f).labor)
        assert a.floor_events == b.floor_events

    def test_decoupled_firm_ignores_the_rest(self):
        # zero coupling, no noise, no jitter: dropping the other firms
        # cannot change a firm's path
        p = FirmParameters(alpha=0.3, beta=0.35, cost_coeff=0.2,
                           interest_rate=0.05, noise_sigma=0.02)
        k, l = steady_state_inputs(p, 100.0)
        state = FirmState(revenue=100.0, prev_revenue=100.0 / 1.02,
                          capital=k, labor=l, equity=30.0)
        macro = MacroSeries(gdp=tuple(100.0 * 1.02 ** t for t in range(8)))

        solo = Economy(params={"A": p}, states={"A": state})
        res_solo = forward_simulate(solo, TransactionNetwork(firms=("A",)),
                                    macro, noise_on=False)

        pair = Economy(params={"A": p, "B": p},
                       states={"A": state, "B": state})
        net = TransactionNetwork(firms=("A", "B"),
                                 edges=(("A", "B", 0.0),))
        res_pair = forward_simulate(pair, net, macro, noise_on=False)

        assert np.array_equal(res_solo.panel.firm("A").revenue,
                              res_pair.panel.firm("A").revenue)
        # identical twins walk identical paths
        assert np.array_equal(res_pair.panel.firm("B").revenue,
                              res_pair.panel.firm("A").revenue)

    def test_crash_hits_the_floor_but_stays_positive(self):
        p = FirmParameters(alpha=0.3, beta=0.35, cost_coeff=0.2,
                           interest_rate=0.05, noise_sigma=0.0)
        k, l = steady_state_inputs(p, 100.0)
        states = {
            "S": FirmState(revenue=100.0, prev_revenue=100.0, capital=k,
                           labor=l, equity=50.0),
            "C": FirmState(revenue=100.0, prev_revenue=100.0, capital=k,
                           labor=l, equity=50.0),
        }
        net = TransactionNetwork(firms=("S", "C"), edges=(("S", "C", 3.0),))
        # GDP exploding 5x per period: the coupling term goes deeply
        # negative and wipes the supplier's revenue
        macro = MacroSeries(gdp=tuple(100.0 * 5.0 ** t for t in range(5)))
        eco = Economy(params={"S": p, "C": p}, states=states)
        res = forward_simulate(eco, net, macro, noise_on=False)
        assert any(f == "S" for f, _ in res.floor_events)
        assert np.all(res.panel.firm("S").revenue > 0)

    def test_replay_matches_bit_for_bit(self):
        # noise, jitter and a forced floor event, replayed by an inline
        # recursion that borrows only the decision and the customer sum
        eco, net, _ = generate_economy(GeneratorConfig(n_firms=12, seed=5))
        ids = eco.firm_ids
        weak, customer, _ = next(iter(net.edges()))
        net = net.with_strengths({(weak, customer): 6.0})
        # GDP growing 1.5x in one term wipes out the revenue of the
        # supplier on the strong link in the term that reads that growth
        macro = MacroSeries(gdp=(100.0, 101.0, 102.0, 153.0, 154.0, 156.0,
                                 157.0, 159.0))
        seed = 8
        # jitter 0 still draws the jitter stream, which nothing else reads
        for jitter in (0.3, 0.0):
            res = forward_simulate(eco, net, macro, noise_on=True,
                                   decision_jitter=jitter, seed=seed)

            noise_rng = np.random.default_rng([seed, 101])
            jitter_rng = np.random.default_rng([seed, 102])
            states = dict(eco.states)
            rows = {f: [] for f in ids}
            floors = []
            for t in range(len(macro.gdp) - 1):
                for f in ids:
                    st = states[f]
                    rows[f].append((st.revenue, st.capital, st.labor,
                                    st.equity))
                g = macro.gdp[max(t, 1)] / macro.gdp[max(t, 1) - 1]
                shocks = noise_rng.normal(size=len(ids))
                jit = jitter_rng.normal(size=(len(ids), 2))
                fresh = {}
                for i, f in enumerate(ids):
                    st, q = states[f], eco.params[f]
                    cts = customer_terms_sum(f, net, states, g)
                    dec = best_response_closed_form(PayoffContext(
                        st.revenue, st.capital, st.labor, cts, q))
                    cap = dec.capital * math.exp(jitter * jit[i, 0])
                    lab = dec.labor * math.exp(jitter * jit[i, 1])
                    growth = ((cap / st.capital) ** q.alpha
                              * (lab / st.labor) ** q.beta)
                    rev = st.revenue * (growth + cts
                                        + q.noise_sigma * shocks[i])
                    if not rev > 0.0:
                        rev = 1e-6 * st.revenue
                        floors.append((f, t + 1))
                    cost = q.cost_coeff * cap ** q.alpha * lab ** q.beta
                    pi = rev - cost - q.interest_rate * cap - lab
                    fresh[f] = FirmState(
                        revenue=rev, prev_revenue=st.revenue, capital=cap,
                        labor=lab, equity=st.equity + pi)
                states = fresh
            for f in ids:
                st = states[f]
                rows[f].append((st.revenue, st.capital, st.labor, st.equity))

            assert (weak, 4) in floors
            assert list(res.floor_events) == floors
            for f in ids:
                got = res.panel.firm(f)
                revenue, capital, labor, equity = (list(c) for c in zip(*rows[f]))
                assert got.revenue.tolist() == revenue
                assert got.capital.tolist() == capital
                assert got.labor.tolist() == labor
                assert res.panel.equity[res.panel.rows[f]].tolist() == equity

    @settings(max_examples=30, deadline=None)
    @given(n_firms=st.integers(2, 7), horizon=st.integers(3, 7),
           edge_model=st.sampled_from(EDGE_MODELS),
           econ_seed=st.integers(0, 2 ** 16), sim_seed=st.integers(0, 2 ** 16),
           noise_on=st.booleans(),
           jitter=st.sampled_from([0.0, 0.3, 0.8]),
           flag_pos=st.integers(0, 6), supplier_step=st.integers(1, 6))
    def test_replay_matches_bit_for_bit_on_any_small_economy(
            self, n_firms, horizon, edge_model, econ_seed, sim_seed, noise_on,
            jitter, flag_pos, supplier_step):
        # one firm flagged before the run; a link of strength 50 to it
        # floors its supplier's revenue in the first term
        eco, net, macro = generate_economy(GeneratorConfig(
            n_firms=n_firms, horizon=horizon, edge_model=edge_model,
            seed=econ_seed))
        ids = eco.firm_ids
        flagged = ids[flag_pos % n_firms]
        supplier = ids[(flag_pos + supplier_step % (n_firms - 1) + 1) % n_firms]
        net = TransactionNetwork(ids, [
            (s, c, k) for s, c, k in net.edges() if (s, c) != (supplier, flagged)
        ] + [(supplier, flagged, 50.0)])
        eco = flag_bankrupt(eco, flagged)
        res = forward_simulate(eco, net, macro, noise_on=noise_on,
                               decision_jitter=jitter, seed=sim_seed)

        noise_rng = np.random.default_rng([sim_seed, 101])
        jitter_rng = np.random.default_rng([sim_seed, 102])
        states = dict(eco.states)
        rows = {f: [] for f in ids}
        floors = []
        for t in range(horizon):
            for f in ids:
                s = states[f]
                rows[f].append((s.revenue, s.capital, s.labor, s.equity))
            if t == horizon - 1:
                break
            g = macro.gdp[max(t, 1)] / macro.gdp[max(t, 1) - 1]
            shocks = (noise_rng.normal(size=n_firms) if noise_on
                      else np.zeros(n_firms))
            jit = jitter_rng.normal(size=(n_firms, 2))
            fresh = {}
            for i, f in enumerate(ids):
                s, q = states[f], eco.params[f]
                cts = customer_terms_sum(f, net, states, g)
                dec = best_response_closed_form(PayoffContext(
                    s.revenue, s.capital, s.labor, cts, q))
                cap = dec.capital * math.exp(jitter * jit[i, 0])
                lab = dec.labor * math.exp(jitter * jit[i, 1])
                growth = ((cap / s.capital) ** q.alpha
                          * (lab / s.labor) ** q.beta)
                rev = s.revenue * (growth + cts + q.noise_sigma * shocks[i])
                if not rev > 0.0:
                    rev = 1e-6 * s.revenue
                    floors.append((f, t + 1))
                cost = q.cost_coeff * cap ** q.alpha * lab ** q.beta
                pi = rev - cost - q.interest_rate * cap - lab
                fresh[f] = FirmState(revenue=rev, prev_revenue=s.revenue,
                                     capital=cap, labor=lab,
                                     equity=s.equity + pi)
            states = fresh

        assert (supplier, 1) in floors
        assert list(res.floor_events) == floors
        assert economy_from_panel(res.panel, eco.params).states == states
        for f in ids:
            got = res.panel.firm(f)
            got = np.stack([got.revenue, got.capital, got.labor,
                            res.panel.equity[res.panel.rows[f]]], axis=1)
            assert got.tobytes() == np.array(rows[f], dtype=float).tobytes()

    def test_builds_no_state_or_decision_dataclass(self, monkeypatch):
        eco, net, macro = generate_economy(GeneratorConfig(n_firms=8, seed=3))
        built = []
        for cls in (FirmState, InvestmentDecision):
            def counted(self, check=cls.__post_init__):
                built.append(type(self).__name__)
                check(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        forward_simulate(eco, net, macro, decision_jitter=0.8, seed=1)
        assert built == []

    @pytest.mark.parametrize("seed,message", [
        (0, "capital must be finite and > 0, got 0.0"),
        (4, "labor must be finite and > 0, got 0.0"),
    ])
    def test_vanishing_input_raises_the_decision_error(self, seed, message):
        # exp(500 z) underflows an applied input to 0.0
        eco, net, macro = generate_economy(GeneratorConfig(n_firms=6, seed=4))
        with pytest.raises(ValueError, match=re.escape(message)):
            forward_simulate(eco, net, macro, decision_jitter=500.0, seed=seed)

    def test_flagged_firm_without_revenue_raises_the_state_error(self):
        eco, net, macro = generate_economy(GeneratorConfig(n_firms=6, seed=4))
        f = eco.firm_ids[2]
        eco = dataclasses.replace(eco, states={**eco.states, f: FirmState(
            revenue=0.0, prev_revenue=1.0, capital=1.0, labor=1.0,
            equity=-1.0, bankrupt=True)})
        with pytest.raises(ValueError,
                           match="revenue must be finite and > 0, got 0.0"):
            forward_simulate(eco, net, macro)

    @pytest.mark.parametrize("jitter", [-0.5, math.nan, math.inf])
    def test_bad_jitter_rejected(self, jitter):
        eco, net, macro = generate_economy(GeneratorConfig(n_firms=3, seed=1))
        with pytest.raises(ValueError, match="decision_jitter"):
            forward_simulate(eco, net, macro, decision_jitter=jitter)

    def test_horizon_matches_macro(self):
        cfg = GeneratorConfig(n_firms=4, horizon=7, seed=2)
        _, _, macro, res = simulate_economy(cfg)
        assert res.panel.n_periods == 7 == len(macro)


def _economy_with(books):
    """The 6-firm seed-4 economy with the states of some firms changed,
    keyed by position."""
    eco, net, macro = generate_economy(GeneratorConfig(n_firms=6, seed=4))
    states = dict(eco.states)
    for pos, changes in books.items():
        f = eco.firm_ids[pos]
        states[f] = dataclasses.replace(states[f], **changes)
    return dataclasses.replace(eco, states=states), net, macro


# revenue 1e-300 puts B below 0, and the lower corner's labor (or
# capital) underflows to 0.0
_NO_LABOR = dict(revenue=1e-300, prev_revenue=1e-300, capital=1.0,
                 labor=5e-324)
_NO_CAPITAL = dict(revenue=1e-300, prev_revenue=1e-300, capital=5e-324,
                   labor=1.0)


class TestColumnarStepErrors:
    """A period over columns fails as the firm-by-firm loop failed: the
    lowest-indexed failing firm raises the error of its first failing
    check, the decision, then the jittered inputs, then the state."""

    @pytest.mark.parametrize("books, kwargs, error, message", [
        # firms 2 and 4 both decide an input of 0.0
        ({2: _NO_LABOR, 4: _NO_CAPITAL}, {}, ValueError,
         "labor must be finite and > 0, got 0.0"),
        # firm 3's lower-corner capital times exp(5 * 1.1) passes float
        # range
        ({3: dict(capital=1e307)}, dict(decision_jitter=5.0, seed=1),
         ValueError, "capital must be finite and > 0, got inf"),
        # firm 3's revenue and equity of 1.7e308 roll past float range
        ({3: dict(revenue=1e307, prev_revenue=1e307 / 1.02, equity=1.7e308)},
         dict(noise_on=False), ValueError, "equity must be finite, got inf"),
        # a flagged firm 3 without capital makes K^alpha * L^beta 0, and
        # the best response divides by it; firm 1 fails first
        ({1: _NO_LABOR, 3: dict(capital=0.0, equity=-1.0, bankrupt=True)},
         {}, ValueError, "labor must be finite and > 0, got 0.0"),
        ({3: dict(capital=0.0, equity=-1.0, bankrupt=True)}, {},
         ZeroDivisionError, "float division by zero"),
    ])
    def test_first_failing_firm_raises(self, books, kwargs, error, message):
        eco, net, macro = _economy_with(books)
        with pytest.raises(error, match=re.escape(message)):
            forward_simulate(eco, net, macro, **kwargs)

    def test_jitter_overflow_on_a_later_firm(self):
        # with spread 1000, the jitter draws of firms 0 to 2 stay inside
        # exp's range and firm 3's capital draw passes it
        z = np.random.default_rng([135, 102]).normal(size=(6, 2))
        assert np.all((-745.0 < 1000.0 * z[:3]) & (1000.0 * z[:3] < 709.0))
        assert 1000.0 * z[3, 0] > 710.0
        eco, net, macro = generate_economy(GeneratorConfig(n_firms=6, seed=4))
        with pytest.raises(OverflowError, match="math range error"):
            forward_simulate(eco, net, macro, decision_jitter=1000.0, seed=135)

    def test_empty_economy(self):
        eco = Economy(params={}, states={})
        res = forward_simulate(eco, TransactionNetwork(firms=()),
                               MacroSeries(gdp=(1.0, 1.1, 1.2)))
        assert res.panel.revenue.shape == (0, 3)
        assert res.floor_events == ()


class TestEconomyFromPanel:
    def test_missing_params_rejected(self):
        cfg = GeneratorConfig(n_firms=3, seed=1)
        economy, _, _, res = simulate_economy(cfg)
        partial = dict(list(economy.params.items())[:1])
        with pytest.raises(ValueError):
            economy_from_panel(res.panel, partial)

    def test_needs_equity(self):
        cfg = GeneratorConfig(n_firms=3, seed=1)
        economy, _, _, res = simulate_economy(cfg)
        bare = dataclasses.replace(res.panel, equity=None)
        with pytest.raises(ValueError):
            economy_from_panel(bare, economy.params)


def test_generate_economy_reproducible():
    cfg = GeneratorConfig(n_firms=12, seed=77)
    a_eco, a_net, a_macro = generate_economy(cfg)
    b_eco, b_net, b_macro = generate_economy(cfg)
    assert a_eco.params == b_eco.params
    assert a_eco.states == b_eco.states
    assert list(a_net.edges()) == list(b_net.edges())
    assert a_macro.gdp == b_macro.gdp
