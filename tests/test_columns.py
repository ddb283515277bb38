"""An Economy's columns against its one-row record views, and the
block draws of generate_params against a draw per double."""

import copy
import pickle
import re

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
    FirmState,
    GeneratorConfig,
    forward_simulate,
    generate_economy,
    generate_params,
    nash_solve,
    run_cascade,
)
from chainsim.econ import PARAMETER_COLUMNS, STATE_COLUMNS


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _panel_bytes(result):
    if isinstance(result, tuple):
        return result
    panel = result.panel
    return (panel.revenue.tobytes(), panel.capital.tobytes(),
            panel.labor.tobytes(), panel.equity.tobytes(),
            result.floor_events)


@st.composite
def columnar_economies(draw):
    """A generated economy of at most 10 firms, built from columns, some
    of its firms flagged bankrupt, with its network and GDP path."""
    n = draw(st.integers(1, 10))
    config = GeneratorConfig(
        n_firms=n, seed=draw(st.integers(0, 2 ** 16)),
        horizon=draw(st.integers(3, 5)),
        edge_model=draw(st.sampled_from(("random", "scale-free"))),
        mean_out_degree=draw(st.floats(0.0, 4.0)))
    eco, net, macro = generate_economy(config)
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if any(flags):
        eco = Economy.from_columns(eco.firm_ids, eco.param_columns,
                                   eco.state_columns, flags)
    return eco, net, macro, config


class TestRecordsAndColumns:
    @pytest.mark.fresh_seed
    @given(columnar_economies())
    @settings(max_examples=60, deadline=None)
    def test_an_economy_rebuilt_from_its_records_is_the_same(self, drawn):
        eco, net, macro, config = drawn
        rebuilt = Economy(params=dict(eco.params), states=dict(eco.states))
        assert rebuilt == eco and eco == rebuilt
        assert rebuilt.firm_ids == eco.firm_ids
        assert rebuilt.params == eco.params
        assert rebuilt.states == eco.states
        assert [st.bankrupt for st in eco.states.values()] == (
            eco.bankrupt.tolist())
        for trip in (copy.copy, copy.deepcopy,
                     lambda x: pickle.loads(pickle.dumps(x))):
            again = trip(eco)
            assert again == eco and again.firm_ids == eco.firm_ids
            assert again.params == eco.params and again.states == eco.states
            assert not again.state_columns.flags.writeable
        runs = [_panel_bytes(_outcome(
            forward_simulate, e, net, macro,
            decision_jitter=config.decision_jitter, seed=config.seed))
            for e in (eco, rebuilt)]
        assert runs[0] == runs[1]
        solved = [_outcome(nash_solve, e, net, 1.02) for e in (eco, rebuilt)]
        assert solved[0] == solved[1]
        for f in np.array(eco.firm_ids)[~eco.bankrupt].tolist():
            for policy in (ZERO_REVENUE, PURE_LOSS):
                config = CascadeConfig((f,), gdp_growth=1.02, policy=policy)
                runs = [repr(_outcome(run_cascade, e, net, config))
                        for e in (eco, rebuilt)]
                assert runs[0] == runs[1]

    def test_read_only_columns(self):
        eco, _, _ = generate_economy(GeneratorConfig(n_firms=4, seed=1))
        for column in (eco.param_columns, eco.state_columns, eco.bankrupt):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        assert eco.index == {f: i for i, f in enumerate(eco.firm_ids)}

    def test_records_are_built_on_first_read(self):
        eco, _, _ = generate_economy(GeneratorConfig(n_firms=4, seed=1))
        assert "params" not in vars(eco) and "states" not in vars(eco)
        assert eco.params is eco.params and eco.states is eco.states


class TestColumnNumberRule:
    """A bad number in a column raises what its firm's record raises."""

    @pytest.mark.parametrize("table, name, value", [
        ("param_columns", "alpha", -0.5),
        ("param_columns", "cost_coeff", np.nan),
        ("param_columns", "noise_sigma", np.inf),
        ("state_columns", "revenue", 0.0),
        ("state_columns", "prev_revenue", -1.0),
        ("state_columns", "capital", np.inf),
        ("state_columns", "labor", np.nan),
        ("state_columns", "equity", -np.inf),
    ])
    def test_same_error_as_the_record(self, table, name, value):
        eco, _, _ = generate_economy(GeneratorConfig(n_firms=6, seed=2))
        columns = {"param_columns": eco.param_columns.copy(),
                   "state_columns": eco.state_columns.copy()}
        names = PARAMETER_COLUMNS if table == "param_columns" else STATE_COLUMNS
        # firms 4 and then 2 go bad: the first one raises
        for i in (4, 2):
            columns[table][names.index(name), i] = value
        record = FirmParameters if table == "param_columns" else FirmState
        with pytest.raises(ValueError) as expected:
            record(*columns[table][:, 2].tolist())
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(expected.value))}$"):
            Economy.from_columns(eco.firm_ids, columns["param_columns"],
                                 columns["state_columns"])

    def test_a_flagged_firm_needs_a_number_only_for_equity(self):
        eco, _, _ = generate_economy(GeneratorConfig(n_firms=3, seed=2))
        states = eco.state_columns.copy()
        states[:4, 1] = (0.0, np.nan, -1.0, np.inf)
        flags = [False, True, False]
        flagged = Economy.from_columns(eco.firm_ids, eco.param_columns,
                                       states, flags)
        assert flagged.states[eco.firm_ids[1]].bankrupt
        states[4, 1] = np.nan
        with pytest.raises(ValueError, match="^equity must be finite, got nan$"):
            Economy.from_columns(eco.firm_ids, eco.param_columns, states,
                                 flags)

    def test_ids_and_shapes_are_checked(self):
        eco, _, _ = generate_economy(GeneratorConfig(n_firms=3, seed=2))
        with pytest.raises(ValueError, match="sorted and distinct"):
            Economy.from_columns(eco.firm_ids[::-1], eco.param_columns,
                                 eco.state_columns)
        with pytest.raises(ValueError, match="shaped"):
            Economy.from_columns(eco.firm_ids, eco.param_columns[:, :2],
                                 eco.state_columns)


def _scalar_params(config, rng):
    """generate_params' draws one rng.uniform call per double."""
    rows = []
    for _ in range(config.n_firms):
        while True:
            a = rng.uniform(*config.alpha_range)
            b = rng.uniform(*config.beta_range)
            if a + b < config.elasticity_sum_max:
                break
        rows.append((a, b, rng.uniform(*config.cost_coeff_range)))
    return rows


@st.composite
def param_configs(draw):
    """A GeneratorConfig of 1 to 40 firms with drawn alpha and beta
    ranges, some of zero width, and a cap on alpha + beta that accepts
    anything from every pair down to about one pair in 200."""
    def bounds():
        low = draw(st.floats(0.0, 0.5))
        return low, low + draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.5)))

    alpha, beta = bounds(), bounds()
    low = alpha[0] + beta[0]
    width = (alpha[1] - alpha[0]) + (beta[1] - beta[0])
    # a cap at low + t * width accepts 2 t^2 of the pairs when the two
    # widths are equal and t <= 1/2, and more when they differ; with
    # both widths 0, any cap above low accepts every pair
    t = draw(st.floats(0.05, 1.1))
    return GeneratorConfig(n_firms=draw(st.integers(1, 40)),
                           alpha_range=alpha, beta_range=beta,
                           elasticity_sum_max=low + (t * width or 0.1))


class TestBlockDraws:
    """The block draws give the floats and the stream position of a draw
    per double."""

    @staticmethod
    def assert_same_draws(config, seed):
        rng, reference = (np.random.default_rng([seed, 1]) for _ in range(2))
        got = generate_params(config, rng)
        want = _scalar_params(config, reference)
        assert [float(x).hex() for x in got[:3].T.ravel()] == [
            x.hex() for row in want for x in row]
        assert rng.random().hex() == reference.random().hex()

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, 65535])
    @pytest.mark.parametrize("config", [
        GeneratorConfig(n_firms=100),
        GeneratorConfig(n_firms=1),
        # alpha + beta is below the cap on about one pair in 200
        GeneratorConfig(n_firms=25, elasticity_sum_max=0.25),
    ], ids=["default", "one firm", "heavy rejection"])
    def test_same_floats_and_stream_position(self, config, seed):
        self.assert_same_draws(config, seed)

    @pytest.mark.fresh_seed
    @given(param_configs(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_drawn_configs_match_a_draw_per_double(self, config, seed):
        self.assert_same_draws(config, seed)
