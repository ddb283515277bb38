"""Likelihood pieces and the per-firm / economy-wide fitting drivers.

Recovery oracles come from the forward simulator: a small economy is
rolled out under known parameters and the fit has to find them again,
exactly when the idiosyncratic shock is off, within tolerance when on.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim import (
    Economy,
    FirmParameters,
    FirmSeries,
    FirmState,
    FitOptions,
    GeneratorConfig,
    MacroSeries,
    PanelSeries,
    TransactionNetwork,
    UnderdeterminedError,
    average_error,
    calibration,
    fit_all,
    fit_firm,
    forward_simulate,
    simulate_economy,
)
from chainsim.calibration import MinimizeResult, minimize_bounded

from conftest import make_panel
from oracles import residual_series, steady_state_inputs

IDS = ("S", "X", "Y")
TRUE = {
    "S": FirmParameters(alpha=0.35, beta=0.40, cost_coeff=0.25,
                        interest_rate=0.05, noise_sigma=0.02),
    "X": FirmParameters(alpha=0.30, beta=0.28, cost_coeff=0.18,
                        interest_rate=0.05, noise_sigma=0.02),
    "Y": FirmParameters(alpha=0.45, beta=0.22, cost_coeff=0.35,
                        interest_rate=0.05, noise_sigma=0.02),
}
TRUE_K = {("S", "X"): 0.12, ("S", "Y"): 0.22}


def small_economy():
    revs = {"S": 100.0, "X": 130.0, "Y": 75.0}
    states = {}
    for f in IDS:
        k, l = steady_state_inputs(TRUE[f], revs[f])
        states[f] = FirmState(revenue=revs[f], prev_revenue=revs[f] / 1.02,
                              capital=k, labor=l, equity=0.3 * revs[f])
    net = TransactionNetwork(firms=IDS,
                             edges=tuple((s, c, v) for (s, c), v in TRUE_K.items()))
    return Economy(params=dict(TRUE), states=states), net


def simulated_panel(seed=0, noise_on=False, horizon=11):
    eco, net = small_economy()
    gdp = tuple(100.0 * 1.02 ** t for t in range(horizon))
    macro = MacroSeries(gdp=gdp)
    res = forward_simulate(eco, net, macro, noise_on=noise_on,
                           decision_jitter=0.8, seed=seed)
    return eco, net, res.panel


def two_firm_panel(**changes):
    fields = dict(firm_ids=("A", "B"), revenue=np.full((2, 3), 100.0),
                  capital=np.full((2, 3), 40.0), labor=np.full((2, 3), 30.0),
                  gdp=np.ones(3), periods=(0, 1, 2), equity=np.zeros((2, 3)))
    return PanelSeries(**{**fields, **changes})


class TestPanelSeries:
    def test_firm_rows_are_read_only_views(self):
        panel = two_firm_panel()
        s = panel.firm("B")
        assert np.shares_memory(s.revenue, panel.revenue)
        assert panel.rows == {"A": 0, "B": 1}
        with pytest.raises(ValueError):
            panel.revenue[0, 0] = 1.0

    @pytest.mark.parametrize("changes,message", [
        ({"equity": np.array([[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]])},
         "equity series must be finite"),
        ({"equity": np.array([[0.0, 0.0, 0.0], [0.0, np.inf, 0.0]])},
         "equity series must be finite"),
        ({"equity": np.zeros((1, 3))}, r"equity must have shape \(2, 3\)"),
        ({"equity": np.zeros((2, 2))}, r"equity must have shape \(2, 3\)"),
        ({"periods": (0, 1, 1)}, "duplicate period labels"),
        ({"revenue": np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])},
         "revenue series must be finite and > 0"),
        ({"labor": np.full((2, 3), np.nan)}, "labor series must be finite"),
        ({"capital": np.ones(6)}, "capital must have shape"),
        ({"firm_ids": ("B", "A")}, "sorted and unique"),
        ({"firm_ids": ("A", "A")}, "sorted and unique"),
        ({"periods": (0, 1)}, r"gdp must have shape \(2,\), got \(3,\)"),
    ])
    def test_invalid_panel_refused_at_construction(self, changes, message):
        with pytest.raises(ValueError, match=message):
            two_firm_panel(**changes)


class TestFirmSeries:
    def test_refuses_two_dimensional_revenue(self):
        with pytest.raises(ValueError, match=r"^revenue must be 1-D, got "
                                             r"shape \(2, 3\)$"):
            FirmSeries(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)))


class TestFitOptions:
    def test_refuses_a_bool_tol(self):
        # True read as a tolerance of 1.0; max_iter refuses bools too
        with pytest.raises(ValueError, match="tol"):
            FitOptions(tol=True)

    @pytest.mark.parametrize("tol", ["1e-8", None, [1e-8]])
    def test_refuses_a_tol_that_is_no_number(self, tol):
        # these raised TypeError from math.isfinite
        with pytest.raises(ValueError, match="tol"):
            FitOptions(tol=tol)


class TestFitOptionsBeyondFloatRange:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_refuses_an_int_tol_beyond_float_range(self, sign):
        # math.isfinite raised OverflowError on these
        with pytest.raises(ValueError, match="tol must be finite"):
            FitOptions(tol=sign * 10 ** 400)


class TestResiduals:
    def test_noiseless_panel_is_exact(self):
        _, net, panel = simulated_panel()
        for f in IDS:
            custs = {c: panel.firm(c) for c, _ in net.customers_of(f)}
            ks = {c: net.strength(f, c) for c, _ in net.customers_of(f)}
            eps = residual_series(panel.firm(f), custs, panel.gdp,
                                  TRUE[f].alpha, TRUE[f].beta, ks)
            assert eps.shape == (panel.n_periods - 2,)
            assert np.max(np.abs(eps)) < 1e-12

    def test_wrong_elasticity_shows_up(self):
        _, net, panel = simulated_panel()
        custs = {c: panel.firm(c) for c, _ in net.customers_of("S")}
        ks = {c: net.strength("S", c) for c, _ in net.customers_of("S")}
        eps = residual_series(panel.firm("S"), custs, panel.gdp,
                              TRUE["S"].alpha + 0.1, TRUE["S"].beta, ks)
        assert np.max(np.abs(eps)) > 1e-4

    def test_no_customers_reduces_to_growth_mismatch(self):
        _, _, panel = simulated_panel()
        s = panel.firm("X")
        eps = residual_series(s, {}, panel.gdp, 0.0, 0.0, {})
        expected = s.revenue[2:] / s.revenue[1:-1] - 1.0
        assert eps == pytest.approx(expected)


class TestLikelihoodCore:
    def test_average_error(self):
        assert average_error(np.zeros(4)) == 0.0
        assert average_error(np.array([0.03, -0.03])) == pytest.approx(0.03)
        with pytest.raises(ValueError):
            average_error(np.array([]))


class TestFitFirm:
    def test_noiseless_recovery(self):
        _, net, panel = simulated_panel()
        for f in IDS:
            custs = {c: panel.firm(c) for c, _ in net.customers_of(f)}
            fit = fit_firm(panel.firm(f), custs, panel.gdp)
            assert fit.converged
            assert fit.alpha == pytest.approx(TRUE[f].alpha, abs=1e-4)
            assert fit.beta == pytest.approx(TRUE[f].beta, abs=1e-4)
            for c, k in fit.strengths.items():
                assert k == pytest.approx(TRUE_K[(f, c)], abs=1e-4)
            assert fit.sigma < 1e-6
            assert fit.sse < 1e-10

    def test_sigma_is_rms_residual_at_optimum(self):
        _, net, panel = simulated_panel(noise_on=True, seed=3)
        custs = {c: panel.firm(c) for c, _ in net.customers_of("S")}
        fit = fit_firm(panel.firm("S"), custs, panel.gdp)
        eps = residual_series(panel.firm("S"), custs, panel.gdp,
                              fit.alpha, fit.beta, fit.strengths)
        assert fit.sigma ** 2 == pytest.approx(float(np.mean(eps ** 2)),
                                               rel=1e-12)
        assert fit.average_error == fit.sigma

    def test_constant_panel_flags_degenerate(self):
        flat = FirmSeries(revenue=np.full(11, 50.0),
                          capital=np.full(11, 20.0),
                          labor=np.full(11, 10.0))
        fit = fit_firm(flat, {}, np.full(11, 100.0))
        assert fit.degenerate
        assert fit.converged
        assert fit.iterations == 0
        assert (fit.alpha, fit.beta) == (0.3, 0.3)  # untouched start
        assert fit.sse < 1e-20

    def test_underdetermined_raises(self):
        _, net, panel = simulated_panel(horizon=5)
        custs = {c: panel.firm(c) for c, _ in net.customers_of("S")}
        # 4 parameters vs 3 usable residuals
        with pytest.raises(UnderdeterminedError):
            fit_firm(panel.firm("S"), custs, panel.gdp)

    def test_short_series_raises(self):
        s = FirmSeries(revenue=np.array([1.0, 2.0]),
                       capital=np.array([1.0, 1.0]),
                       labor=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            fit_firm(s, {}, np.array([100.0, 100.0]))

    def test_gdp_length_mismatch_raises(self):
        _, _, panel = simulated_panel()
        with pytest.raises(ValueError):
            fit_firm(panel.firm("X"), {}, panel.gdp[:-1])

    def test_customer_order_irrelevant(self):
        _, net, panel = simulated_panel(noise_on=True, seed=5)
        custs = {c: panel.firm(c) for c, _ in net.customers_of("S")}
        fwd = fit_firm(panel.firm("S"), custs, panel.gdp)
        rev = fit_firm(panel.firm("S"),
                       dict(reversed(list(custs.items()))), panel.gdp)
        assert fwd == rev

    def test_exact_jacobian_matches_central_difference(self, monkeypatch):
        _, net, panel = simulated_panel(noise_on=True, seed=7)
        custs = {c: panel.firm(c) for c, _ in net.customers_of("S")}
        ids = tuple(sorted(custs))
        captured = []
        real = calibration.minimize_bounded

        def capture(fun, *args, **kwargs):
            captured.append(fun)
            return real(fun, *args, **kwargs)

        monkeypatch.setattr(calibration, "minimize_bounded", capture)
        fit_firm(panel.firm("S"), custs, panel.gdp)
        (fun,) = captured

        def resid(x):
            ks = {c: float(x[2 + i]) for i, c in enumerate(ids)}
            return residual_series(panel.firm("S"), custs, panel.gdp,
                                   float(x[0]), float(x[1]), ks)

        rng = np.random.default_rng(2)
        for _ in range(10):
            x = np.concatenate([rng.uniform(0.05, 0.8, 2),
                                rng.uniform(-0.5, 0.5, len(ids))])
            r, jac = (out[0] for out in fun(x[None], np.arange(1)))
            assert r == pytest.approx(resid(x), abs=1e-12)
            h = 1e-6
            for j in range(x.size):
                e = np.zeros_like(x)
                e[j] = h
                fd = (resid(x + e) - resid(x - e)) / (2.0 * h)
                assert jac[:, j] == pytest.approx(fd, abs=1e-8)

    def test_round_off_optimum_reports_converged(self):
        # the optimum is reached to round-off, where no trial point lowers
        # the SSE any more; the fit must still read as converged
        _, net, _, sim = simulate_economy(
            GeneratorConfig(n_firms=100, horizon=11, seed=0), noise_on=True)
        panel = sim.panel
        custs = {c: panel.firm(c) for c, _ in net.customers_of("F0000")
                 if c in panel.rows}
        fit = fit_firm(panel.firm("F0000"), custs, panel.gdp)
        assert fit.converged
        assert fit.sse == pytest.approx(0.0015099206195656, rel=1e-12)

    def test_noisy_recovery_rate(self):
        # sigma 0.02, horizon 11, two customers: the fitted elasticities
        # should land within +/-0.05 of truth in at least 90 of 100 runs
        hits = 0
        for seed in range(100):
            _, net, panel = simulated_panel(noise_on=True, seed=seed)
            custs = {c: panel.firm(c) for c, _ in net.customers_of("S")}
            fit = fit_firm(panel.firm("S"), custs, panel.gdp)
            hits += (abs(fit.alpha - TRUE["S"].alpha) <= 0.05
                     and abs(fit.beta - TRUE["S"].beta) <= 0.05)
        assert hits >= 90


WIDE = (np.full(2, -1e6), np.full(2, 1e6))
BOX = (np.full(2, -2.0), np.full(2, 2.0))


def quadratic(z):
    """Residuals of (z0 - 3)^2 + 10 (z1 + 1)^2 and their Jacobian."""
    s = np.sqrt(10.0)
    return (np.array([z[0] - 3.0, s * (z[1] + 1.0)]),
            np.array([[1.0, 0.0], [0.0, s]]))


def rosenbrock(z):
    return (np.array([1.0 - z[0], 10.0 * (z[1] - z[0] ** 2)]),
            np.array([[-1.0, 0.0], [-20.0 * z[0], 10.0]]))


def solo(fun, x0, bounds, **kwargs):
    """minimize_bounded on one problem, passed as a batch of one."""
    res = minimize_bounded(lambda x, rows: tuple(a[None] for a in fun(x[0])),
                           np.asarray(x0)[None],
                           (bounds[0][None], bounds[1][None]), **kwargs)
    return MinimizeResult(x=res.x[0], iterations=int(res.iterations[0]),
                          converged=bool(res.converged[0]),
                          n_evals=res.n_evals)


class TestMinimizeBounded:
    def test_quadratic_interior_minimum(self):
        res = solo(quadratic, np.zeros(2), WIDE)
        assert res.converged
        assert res.x == pytest.approx([3.0, -1.0], abs=1e-8)

    def test_rosenbrock_valley(self):
        res = solo(rosenbrock, np.array([-1.2, 1.0]), BOX)
        assert res.converged
        assert res.x == pytest.approx([1.0, 1.0], abs=1e-6)

    def test_minimum_on_box_edge(self):
        # unconstrained optimum at (-3, 0); the box stops x0 at -2
        res = solo(
            lambda z: (np.array([z[0] + 3.0, z[1]]), np.eye(2)),
            np.zeros(2), BOX)
        assert res.converged
        assert res.x[0] == -2.0
        assert res.x[1] == pytest.approx(0.0, abs=1e-8)

    def test_badly_scaled_optimum_converges_on_the_gauss_newton_step(self):
        # at the optimum's round-off the gradient is still of order 1,
        # but the undamped Gauss-Newton step is below tol
        res = solo(
            lambda z: (1e8 * np.array([z[0] - 0.1, z[0] - 0.4]),
                       np.array([[1e8], [1e8]])),
            np.zeros(1), (np.full(1, -1.0), np.full(1, 1.0)))
        assert res.converged
        assert res.x == pytest.approx([0.25], abs=1e-12)

    def test_start_at_optimum_converges_in_zero_iterations(self):
        res = solo(quadratic, np.array([3.0, -1.0]), WIDE)
        assert res.converged
        assert res.iterations == 0
        assert res.n_evals == 1

    def test_start_outside_box_is_clipped_first(self):
        box = (np.zeros(2), np.ones(2))
        res = solo(quadratic, np.array([50.0, -50.0]), box)
        assert res.converged
        assert res.x == pytest.approx([1.0, 0.0], abs=1e-8)

    def test_accepted_steps_strictly_lower_the_sum_of_squares(self):
        seen = []

        def traced(z):
            r, jac = rosenbrock(z)
            seen.append(float(r @ r))
            return r, jac

        res = solo(traced, np.array([-1.2, 1.0]), BOX)
        final = float(rosenbrock(res.x)[0] @ rosenbrock(res.x)[0])
        assert final == min(seen)
        assert final < seen[0]

    def test_iteration_cap_reports_not_converged(self):
        res = solo(rosenbrock, np.array([-1.2, 1.0]), BOX,
                               max_iter=3)
        assert res.iterations == 3
        assert not res.converged

    def test_convergence_is_checked_again_at_the_cap(self):
        free_run = solo(rosenbrock, np.array([-1.2, 1.0]), BOX)
        capped = solo(rosenbrock, np.array([-1.2, 1.0]), BOX,
                                  max_iter=free_run.iterations)
        assert capped.converged
        assert capped.iterations == free_run.iterations

    def test_evaluations_count_the_start_and_every_step(self):
        res = solo(rosenbrock, np.array([-1.2, 1.0]), BOX)
        assert res.iterations > 0
        assert res.n_evals >= res.iterations + 1


    def test_stacked_problems_match_their_solo_runs(self):
        def shifted(z):
            # unconstrained optimum at (-3, 0); the box stops x0 at -2
            return np.array([z[0] + 3.0, z[1]]), np.eye(2)

        problems = [(quadratic, np.zeros(2), WIDE),
                    (rosenbrock, np.array([-1.2, 1.0]), BOX),
                    (shifted, np.zeros(2), BOX)]

        def stacked(x, rows):
            outs = [problems[i][0](z) for z, i in zip(x, rows)]
            return (np.array([r for r, _ in outs]),
                    np.array([jac for _, jac in outs]))

        res = minimize_bounded(
            stacked, np.array([x0 for _, x0, _ in problems]),
            (np.array([b[0] for _, _, b in problems]),
             np.array([b[1] for _, _, b in problems])))
        for i, (fun, x0, bounds) in enumerate(problems):
            alone = solo(fun, x0, bounds)
            assert res.x[i] == pytest.approx(alone.x, abs=1e-12)
            assert res.converged[i] == alone.converged
            assert res.iterations[i] == alone.iterations
        assert res.n_evals == sum(solo(*p).n_evals for p in problems)


@functools.lru_cache(maxsize=None)
def sub_panel_source():
    """A noisy economy short enough that some firms are underdetermined."""
    _, net, _, sim = simulate_economy(
        GeneratorConfig(n_firms=24, horizon=8, seed=11), noise_on=True)
    return net, sim.panel


def assert_same_fit(fit, alone):
    assert fit.alpha == pytest.approx(alone.alpha, abs=1e-12)
    assert fit.beta == pytest.approx(alone.beta, abs=1e-12)
    assert fit.strengths.keys() == alone.strengths.keys()
    for cid, k in alone.strengths.items():
        assert fit.strengths[cid] == pytest.approx(k, abs=1e-12)
    assert fit.converged == alone.converged


class TestFitAll:
    def test_single_firm_batch(self):
        _, net, panel = simulated_panel()
        solo = make_panel(firms={"X": panel.firm("X")}, gdp=panel.gdp,
                          periods=panel.periods)
        report = fit_all(solo, TransactionNetwork(firms=("X",)))
        assert set(report.results) == {"X"}
        assert not report.failures
        direct = fit_firm(panel.firm("X"), {}, panel.gdp)
        assert report.results["X"] == direct

    def test_empty_panel(self):
        empty = make_panel(firms={}, gdp=np.ones(3), periods=(0, 1, 2))
        report = fit_all(empty, TransactionNetwork(firms=()))
        assert report.results == {}
        assert report.failures == {}

    def test_histogram_keys_and_mass(self):
        _, net, panel = simulated_panel(noise_on=True, seed=1)
        report = fit_all(panel, net)
        assert set(report.histograms) == {
            "alpha", "beta", "alpha_plus_beta", "strength", "average_error"}
        h = report.histograms["alpha"]
        assert sum(h["counts"]) == len(report.results)
        assert len(h["edges"]) == len(h["counts"]) + 1

    def test_failures_do_not_poison_the_batch(self):
        _, net, panel = simulated_panel(horizon=5)
        report = fit_all(panel, net)
        assert "S" in report.failures          # underdetermined at T=5
        assert set(report.results) == {"X", "Y"}

    def test_singular_and_underdetermined_firms_do_not_poison_the_batch(self):
        _, net, panel = simulated_panel(noise_on=True, seed=4, horizon=7)
        s = panel.firm("S")
        flat = FirmSeries(revenue=np.full(7, 50.0), capital=np.full(7, 20.0),
                          labor=np.full(7, 10.0))
        # constant inputs zero the elasticity columns of the Jacobian, so
        # this firm's Gauss-Newton system is singular at every sweep
        still = FirmSeries(revenue=s.revenue, capital=flat.capital,
                           labor=flat.labor)
        firms = {**{f: panel.firm(f) for f in panel.firm_ids},
                 "Z": flat, "W": still, "U": s}
        edges = (*net.edges(), ("W", "X", 0.1),
                 ("U", "X", 0.1), ("U", "Y", 0.1), ("U", "Z", 0.1))
        report = fit_all(
            make_panel(firms=firms, gdp=panel.gdp, periods=panel.periods),
            TransactionNetwork(firms=tuple(firms), edges=edges))
        assert report.failures == {"U": "5 parameters vs 5 usable residuals"}
        assert report.results["Z"].converged
        assert report.results["Z"].degenerate
        assert report.results["W"].converged
        assert (report.results["W"].alpha, report.results["W"].beta) == (0.3, 0.3)
        clean = fit_all(panel, net)
        assert set(clean.results) == set(IDS)
        for fid in IDS:
            assert_same_fit(report.results[fid], clean.results[fid])

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_fit_matches_fit_firm_in_any_sub_panel(self, data):
        net, panel = sub_panel_source()
        ids = panel.firm_ids
        focal = data.draw(st.sampled_from(ids))
        keep = (data.draw(st.sets(st.sampled_from(ids)))
                | {focal} | {c for c, _ in net.customers_of(focal)})
        sub = make_panel(firms={f: panel.firm(f) for f in keep},
                         gdp=panel.gdp, periods=panel.periods)
        report = fit_all(sub, net)
        failures = {}
        for fid in keep:
            custs = {c: sub.firm(c) for c, _ in net.customers_of(fid)
                     if c in keep}
            try:
                alone = fit_firm(sub.firm(fid), custs, sub.gdp)
            except ValueError as exc:
                failures[fid] = str(exc)
                continue
            assert_same_fit(report.results[fid], alone)
        assert report.failures == failures

    def test_panel_firm_the_network_lacks_is_named(self, monkeypatch):
        # was a bare KeyError('F0000') from network.customers_of
        _, net, _, sim = simulate_economy(GeneratorConfig(n_firms=12, seed=2))
        rest = [f for f in net.firms if f != "F0000"]
        other = TransactionNetwork(
            firms=rest, edges=[e for e in net.edges() if "F0000" not in e])
        monkeypatch.setattr(calibration, "_fit_stacked", None)  # no fit runs
        with pytest.raises(ValueError,
                           match="firm 'F0000' is only in the panel"):
            fit_all(sim.panel, other)
