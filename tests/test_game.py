"""Best-response solvers and the joint fixed point.

The dense-grid oracle re-derives the payoff surface from the raw
bookkeeping (output coefficient times Cobb-Douglas level, minus capital
charge and wage bill) with numpy broadcasting, then cross-checks random
grid points against expected_payoff so the two derivations cannot
drift apart.
"""

import copy
import math
import operator
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chainsim.game
from chainsim import (
    Economy,
    FirmParameters,
    FirmState,
    GameConfig,
    GeneratorConfig,
    InvestmentDecision,
    PayoffContext,
    TransactionNetwork,
    best_response_closed_form,
    economy_from_panel,
    forward_simulate,
    generate_economy,
    nash_solve,
)
from chainsim.econ import FrozenMap
from chainsim.game import (
    ParamColumns,
    best_input_columns,
    best_inputs,
    best_response_ga,
)

from conftest import flag_bankrupt, make_chain, mismatched_chain_network
from oracles import expected_payoff, steady_state_inputs

WIDE = GameConfig(decision_bounds=(1e-4, 1e4))


def ctx_of(revenue=100.0, capital=1.0, labor=1.0, customer_terms=0.0,
           alpha=0.3, beta=0.3, cost_coeff=0.5, interest_rate=0.05):
    p = FirmParameters(alpha=alpha, beta=beta, cost_coeff=cost_coeff,
                       interest_rate=interest_rate, noise_sigma=0.0)
    return PayoffContext(revenue=revenue, capital=capital, labor=labor,
                         customer_terms=customer_terms, params=p)


def grid_payoff(ctx, config, n=400):
    """Payoff on an n-by-n log grid over the decision box."""
    p = ctx.params
    lo, hi = config.decision_bounds
    K = np.exp(np.linspace(np.log(lo * ctx.capital),
                           np.log(hi * ctx.capital), n))
    L = np.exp(np.linspace(np.log(lo * ctx.labor),
                           np.log(hi * ctx.labor), n))
    B = ctx.revenue / (ctx.capital ** p.alpha * ctx.labor ** p.beta) - p.cost_coeff
    level = np.outer(K ** p.alpha, L ** p.beta)
    pay = (B * level - p.interest_rate * K[:, None] - L[None, :]
           + ctx.revenue * ctx.customer_terms)
    return K, L, pay


def grid_argmax(ctx, config, n=400):
    K, L, pay = grid_payoff(ctx, config, n)
    flat = int(np.argmax(pay))  # first hit = smallest K then smallest L
    i, j = divmod(flat, n)
    return K[i], L[j], pay[i, j], np.log(K[1] / K[0]), np.log(L[1] / L[0])


@st.composite
def cost_dominated_contexts(draw):
    """A context with net output coefficient B <= 0, and a decision box.

    alpha + beta reaches 2, past the concave region, and r and the
    margin of cost over the firm's revenue level both include zero.
    """
    zero_or = lambda hi: st.one_of(st.just(0.0), st.floats(0.0, hi))
    alpha = draw(zero_or(2.0))
    beta = draw(zero_or(2.0))
    capital = draw(st.floats(0.5, 50.0))
    labor = draw(st.floats(0.5, 50.0))
    revenue = draw(st.floats(1.0, 200.0))
    level = capital ** alpha * labor ** beta
    ctx = ctx_of(revenue=revenue, capital=capital, labor=labor,
                 customer_terms=draw(st.floats(-0.05, 0.05)),
                 alpha=alpha, beta=beta,
                 cost_coeff=revenue / level + draw(zero_or(1.0)),
                 interest_rate=draw(zero_or(0.2)))
    config = GameConfig(decision_bounds=(draw(st.floats(0.1, 1.0)),
                                         draw(st.floats(1.0, 10.0))))
    return ctx, config


@st.composite
def nonconcave_contexts(draw):
    """A context with alpha + beta in [1, 2], B > 0, and a decision box.

    Either elasticity may be 0 (the other carries the whole sum), and
    r and the material cost both include zero.
    """
    total = draw(st.floats(1.0, 2.0))
    share = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    alpha = share * total
    beta = total - alpha
    capital = draw(st.floats(0.5, 50.0))
    labor = draw(st.floats(0.5, 50.0))
    revenue = draw(st.floats(1.0, 200.0))
    level = capital ** alpha * labor ** beta
    cost_frac = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.99)))
    ctx = ctx_of(revenue=revenue, capital=capital, labor=labor,
                 customer_terms=draw(st.floats(-0.05, 0.05)),
                 alpha=alpha, beta=beta,
                 cost_coeff=cost_frac * revenue / level,
                 interest_rate=draw(st.one_of(st.just(0.0),
                                              st.floats(0.0, 0.2))))
    config = GameConfig(decision_bounds=(draw(st.floats(0.1, 1.0)),
                                         draw(st.floats(1.0, 10.0))))
    return ctx, config


def no_ga(*args, **kwargs):
    raise AssertionError("the closed form called the GA")


class TestGameConfig:
    @pytest.mark.parametrize("bounds, message", [
        # accepted, and the best response of a payoff with no maximum on
        # the box (alpha = beta = 0.6) came out as capital 181924.149...
        ((0.25, math.inf), "decision_bounds high must be finite and >= 0.25, "
                           "got inf"),
        # accepted; the first best response then raised OverflowError
        ((1, 10 ** 400), "decision_bounds high must be finite and >= 1.0, "
                         f"got {10 ** 400!r}"),
        ((0.0, 4.0), "decision_bounds low must be finite and > 0, got 0.0"),
        ((2.0, 1.0), "decision_bounds high must be finite and >= 2.0, "
                     "got 1.0"),
    ])
    def test_bounds_finite_and_ordered(self, bounds, message):
        with pytest.raises(ValueError) as exc:
            GameConfig(bounds)
        assert str(exc.value) == message


class TestExpectedPayoff:
    def test_hold_current_inputs(self):
        ctx = ctx_of()
        dec = InvestmentDecision(capital=1.0, labor=1.0)
        assert expected_payoff(ctx, dec) == pytest.approx(98.45)

    def test_double_capital(self):
        ctx = ctx_of()
        dec = InvestmentDecision(capital=2.0, labor=1.0)
        expected = 100.0 * 2 ** 0.3 - 0.5 * 2 ** 0.3 - 0.1 - 1.0
        assert expected_payoff(ctx, dec) == pytest.approx(expected)

    def test_no_production_no_cost(self):
        # all ratios 1, zero cost and interest: revenue minus wage bill
        ctx = ctx_of(cost_coeff=0.0, interest_rate=0.0, alpha=0.0, beta=0.0,
                     labor=30.0)
        dec = InvestmentDecision(capital=1.0, labor=30.0)
        assert expected_payoff(ctx, dec) == pytest.approx(70.0)

    def test_customer_terms_shift_revenue(self):
        ctx = ctx_of(customer_terms=0.025, alpha=0.0, beta=0.0,
                     cost_coeff=0.0, interest_rate=0.0)
        dec = InvestmentDecision(capital=1.0, labor=1.0)
        assert expected_payoff(ctx, dec) == pytest.approx(100.0 * 1.025 - 1.0)


class TestClosedForm:
    def test_capital_only_instance(self):
        # maximize K^0.5 - 0.05 K: optimum at K = 100
        ctx = ctx_of(revenue=1.5, cost_coeff=0.5, alpha=0.5, beta=0.0)
        dec = best_response_closed_form(ctx, WIDE)
        assert dec.capital == pytest.approx(100.0, rel=1e-9)
        assert dec.labor == pytest.approx(1e-4)  # pure cost, pinned low

    def test_labor_only_instance(self):
        # maximize L^0.5 - L: optimum at L = 0.25
        ctx = ctx_of(revenue=1.5, cost_coeff=0.5, alpha=0.0, beta=0.5)
        dec = best_response_closed_form(ctx, WIDE)
        assert dec.labor == pytest.approx(0.25, rel=1e-9)
        assert dec.capital == pytest.approx(1e-4)

    @given(nonconcave_contexts())
    # alpha = beta = 1: every edge is convex, so only corners remain
    @example((ctx_of(alpha=1.0, beta=1.0), GameConfig()))
    @settings(max_examples=60, deadline=None)
    def test_nonconcave_firm_takes_best_boundary_candidate(self, drawn):
        ctx, config = drawn
        lo, hi = config.decision_bounds
        dec = best_response_closed_form(ctx, config)
        assert lo * ctx.capital <= dec.capital <= hi * ctx.capital
        assert lo * ctx.labor <= dec.labor <= hi * ctx.labor
        pay = expected_payoff(ctx, dec)
        tol = 1e-9 * max(1.0, abs(pay))  # round-off of two payoff formulas
        assert pay >= grid_argmax(ctx, config)[2] - tol
        ga = best_response_ga(ctx, config, seed=0)
        assert pay >= expected_payoff(ctx, ga) - tol
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chainsim.game, "best_response_ga", no_ga)
            assert best_response_closed_form(ctx, config) == dec

    @pytest.mark.parametrize("alpha, beta", [
        (0.5, 0.499), (0.3, 0.699), (0.995, 0.0),
        # alpha + beta one ulp below 1, and rounding to 1
        (0.5, 0.49999999999999989), (0.5, 0.49999999999999994),
    ])
    def test_elasticities_summing_near_one_do_not_overflow(self, alpha, beta):
        # the first-order point (..)**(1/(1-alpha-beta)) passes float range
        ctx = ctx_of(alpha=alpha, beta=beta)
        config = GameConfig()
        dec = best_response_closed_form(ctx, config)
        pay = expected_payoff(ctx, dec)
        assert pay >= grid_argmax(ctx, config)[2] - 1e-9 * abs(pay)
        lo, hi = config.decision_bounds
        assert lo * ctx.capital <= dec.capital <= hi * ctx.capital
        assert lo * ctx.labor <= dec.labor <= hi * ctx.labor

    @given(cost_dominated_contexts())
    @settings(max_examples=60, deadline=None)
    def test_cost_dominated_firm_takes_lower_corner(self, drawn):
        ctx, config = drawn
        lo = config.decision_bounds[0]
        dec = best_response_closed_form(ctx, config)
        assert (dec.capital, dec.labor) == (lo * ctx.capital, lo * ctx.labor)
        pay = expected_payoff(ctx, dec)
        tol = 1e-9 * max(1.0, abs(pay))  # round-off of two payoff formulas
        assert pay >= grid_argmax(ctx, config)[2] - tol
        ga = best_response_ga(ctx, config, seed=0)
        assert pay >= expected_payoff(ctx, ga) - tol
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chainsim.game, "best_response_ga", no_ga)
            assert best_response_closed_form(ctx, config) == dec

    def test_interior_matches_grid(self):
        rng = np.random.default_rng(7)
        config = GameConfig()
        for _ in range(5):
            a = rng.uniform(0.15, 0.5)
            b = rng.uniform(0.15, min(0.9 - a, 0.5))
            ctx = ctx_of(revenue=rng.uniform(50, 150),
                         capital=rng.uniform(50, 400),
                         labor=rng.uniform(20, 200),
                         alpha=a, beta=b,
                         cost_coeff=rng.uniform(0.1, 0.5),
                         interest_rate=0.05)
            dec = best_response_closed_form(ctx, config)
            gk, gl, gpay, dk, dl = grid_argmax(ctx, config)
            assert abs(np.log(dec.capital / gk)) <= dk + 1e-12
            assert abs(np.log(dec.labor / gl)) <= dl + 1e-12
            assert expected_payoff(ctx, dec) >= gpay - 1e-9

    def test_grid_oracle_agrees_with_payoff_function(self):
        ctx = ctx_of(revenue=120.0, capital=80.0, labor=40.0,
                     customer_terms=0.01)
        config = GameConfig()
        K, L, pay = grid_payoff(ctx, config, n=50)
        rng = np.random.default_rng(3)
        for _ in range(20):
            i = int(rng.integers(50))
            j = int(rng.integers(50))
            dec = InvestmentDecision(capital=float(K[i]), labor=float(L[j]))
            assert pay[i, j] == pytest.approx(expected_payoff(ctx, dec),
                                              rel=1e-12, abs=1e-9)

    def test_degenerate_box_returns_the_point(self):
        pin = GameConfig(decision_bounds=(1.0, 1.0))
        dec = best_response_closed_form(ctx_of(capital=3.0, labor=2.0), pin)
        assert (dec.capital, dec.labor) == (3.0, 2.0)

    @given(nonconcave_contexts(), st.floats(-0.2, 0.2), st.floats(-0.2, 0.2))
    @settings(max_examples=100, deadline=None)
    def test_customer_terms_do_not_move_the_decision(self, drawn, ct1, ct2):
        # r = 0 and a wide box keep the decision on the box-edge path,
        # where candidates are priced against each other
        ctx, _ = drawn
        ctx = replace(ctx, params=replace(ctx.params, interest_rate=0.0))
        assert (best_response_closed_form(replace(ctx, customer_terms=ct1), WIDE)
                == best_response_closed_form(replace(ctx, customer_terms=ct2),
                                             WIDE))


def eight_candidate_inputs(revenue, capital, labor, p, bounds):
    """best_inputs on Python floats, with every box edge priced.

    Written out here so that the oracle shares no code with the package.
    """
    a, b, r = p.alpha, p.beta, p.interest_rate
    B = revenue / (capital ** a * labor ** b) - p.cost_coeff
    lo, hi = bounds
    k_lo, k_hi, l_lo, l_hi = lo * capital, hi * capital, lo * labor, hi * labor
    if B <= 0.0:
        return k_lo, l_lo
    if a > 0.0 and b > 0.0 and r > 0.0 and a + b < 1.0:
        c = b * r / a
        try:
            k_star = math.pow(a * B * c ** b / r, 1.0 / (1.0 - a - b))
        except OverflowError:
            k_star = math.inf
        l_star = c * k_star
        if k_lo <= k_star <= k_hi and l_lo <= l_star <= l_hi:
            return k_star, l_star

    def edge(gamma, other, w, x_lo, x_hi):
        # where B*other*x^gamma - w*x peaks over x_lo <= x <= x_hi
        if gamma == 0.0:
            return (x_lo,)
        if w == 0.0:
            return (x_hi,)
        if gamma >= 1.0:
            return (x_lo, x_hi)
        try:
            x = math.pow(gamma * B * other / w, 1.0 / (1.0 - gamma))
        except OverflowError:
            return (x_hi,)
        return (min(max(x, x_lo), x_hi),)

    candidates = [(k, l) for k in (k_lo, k_hi)
                  for l in edge(b, k ** a, 1.0, l_lo, l_hi)]
    candidates += [(k, l) for l in (l_lo, l_hi)
                   for k in edge(a, l ** b, r, k_lo, k_hi)]
    return min((r * k + l - B * k ** a * l ** b, k, l)
               for k, l in candidates)[1:]


@st.composite
def any_regime_problems(draw):
    """Books, parameters and a box of any regime of best_inputs.

    alpha + beta reaches 2.4 and comes within 1e-12 of 1, where the
    first-order point overflows; either elasticity and r may be 0, and
    a cost past the revenue level makes B <= 0. Capital, labor and
    revenue span decades independently.
    """
    elasticity = st.one_of(st.just(0.0), st.floats(0.0, 0.6),
                           st.floats(0.0, 1.2))
    alpha = draw(elasticity)
    beta = draw(st.one_of(elasticity, st.floats(-1e-12, 1e-12).map(
        lambda d: max(0.0, 1.0 - alpha + d))))
    capital = 10.0 ** draw(st.floats(-3.0, 3.0))
    labor = 10.0 ** draw(st.floats(-3.0, 3.0))
    revenue = 10.0 ** draw(st.floats(-2.0, 4.0))
    cost = (draw(st.floats(0.0, 1.5)) * revenue
            / (capital ** alpha * labor ** beta))
    rate = draw(st.one_of(st.just(0.0), st.just(0.05), st.floats(0.0, 0.3)))
    bounds = (draw(st.floats(0.1, 1.0)), draw(st.floats(1.0, 10.0)))
    return (revenue, capital, labor,
            FirmParameters(alpha=alpha, beta=beta, cost_coeff=cost,
                           interest_rate=rate),
            bounds)


@st.composite
def concave_problems(draw):
    """alpha, beta, r > 0, alpha + beta < 1 and B > 0, with the books
    set so that the unconstrained optimum is near (x * capital,
    y * labor): inside the box, past one face or past two, and now and
    then within a relative 1e-14 to 0.1 of a box end, where candidates
    of two faces can meet at a corner."""
    alpha = draw(st.floats(0.0005, 0.6))
    beta = draw(st.floats(0.0005, 0.38))
    rate = draw(st.floats(0.01, 0.3))
    cost = draw(st.floats(0.0, 2.0))
    capital = 10.0 ** draw(st.floats(-2.0, 2.0))
    bounds = (draw(st.floats(0.1, 1.0)), draw(st.floats(1.0, 10.0)))
    factor = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)
    near_end = st.tuples(st.sampled_from(bounds), st.floats(-1.0, 1.0),
                         st.floats(-14.0, -1.0)).map(
        lambda t: t[0] * (1.0 + t[1] * 10.0 ** t[2]))
    x = draw(st.one_of(factor, near_end))
    y = draw(st.one_of(factor, near_end))
    c = beta * rate / alpha
    labor = c * x * capital / y
    B = rate * (x * capital) ** (1.0 - alpha - beta) / (alpha * c ** beta)
    revenue = (B + cost) * capital ** alpha * labor ** beta
    return (revenue, capital, labor,
            FirmParameters(alpha=alpha, beta=beta, cost_coeff=cost,
                           interest_rate=rate),
            bounds)


CONCAVE = FirmParameters(alpha=0.3, beta=0.3, cost_coeff=0.5,
                         interest_rate=0.05)

# alpha + beta > 1, so every edge is priced, and k_hi ** alpha overflows
OVERFLOWING = (1e300, 1e154, 1.0,
               replace(CONCAVE, alpha=2.0, beta=0.0, cost_coeff=0.0))
OVERFLOW_ARGS = (34, "Numerical result out of range")



class TestBestInputs:
    @pytest.mark.fresh_seed
    @given(st.one_of(concave_problems(), any_regime_problems()))
    # past the high K-face only; past the low L-face only; past both
    @example((100.0, 10.0, 100.0, CONCAVE, (0.25, 4.0)))
    @example((100.0, 100.0, 1000.0, CONCAVE, (0.25, 4.0)))
    @example((100.0, 1.0, 1.0, CONCAVE, (0.25, 4.0)))
    # alpha + beta one ulp below 1: the first-order point overflows
    @example((100.0, 1.0, 1.0,
              replace(CONCAVE, alpha=0.5, beta=0.49999999999999989),
              (0.25, 4.0)))
    # b * r / alpha overflows, so k* read inf where it is tiny, and the
    # high faces were taken for the violated ones
    @example((1.2589254117941673, 1.0, 1.2589254117941673,
              replace(CONCAVE, alpha=5e-324, beta=0.6, cost_coeff=5e-324),
              (0.1, 1.0)))
    # a box one ulp wide: (k_lo, l_lo) and (k_lo, l_hi) price the same,
    # and the tie-break picks the first, off the violated faces
    @example((0.28117066259517454, 1.0, 0.0125,
              replace(CONCAVE, alpha=0.5, beta=0.25, cost_coeff=0.0,
                      interest_rate=0.25),
              (0.9999999999999999, 1.0)))
    # near a corner, the L-face candidate (k_lo + 4e-8, l_lo) and the
    # corner (k_lo, l_lo) of the K-face price the same to rounding
    @example((0.30566802186640096, 1.0, 0.041666682947609605,
              replace(CONCAVE, alpha=0.375, beta=0.0625, cost_coeff=0.0,
                      interest_rate=0.25),
              (0.25, 4.0)))
    # elasticities and r near 1e-300: the cost is flat along K
    @example((1.0, 1.0, 1.0,
              replace(CONCAVE, alpha=8.837809572010048e-301, beta=1e-20,
                      cost_coeff=0.0, interest_rate=8.837809572010048e-301),
              (0.25, 4.0)))
    # alpha + beta 1.3e-14 below 1: flat along the ray through the books
    @example((0.00014452337494552943, 4.228025413505198e-05,
              0.00010958621830965528,
              replace(CONCAVE, alpha=0.6435169839369808,
                      beta=0.35648301606300664, cost_coeff=1.5186663542393262,
                      interest_rate=0.3168366670442202),
              (0.25, 4.0)))
    @settings(max_examples=1000, deadline=None)
    def test_matches_every_edge_priced(self, problem):
        got = best_inputs(*problem)
        want = eight_candidate_inputs(*problem)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("solve", [best_inputs, eight_candidate_inputs])
    def test_overflowing_corner_power_raises(self, solve):
        with pytest.raises(OverflowError) as info:
            solve(*OVERFLOWING, GameConfig.decision_bounds)
        assert info.value.args == OVERFLOW_ARGS

    def test_every_edge_row_goes_through_one_column_rule(self, monkeypatch):
        # concave rows: (k*, l*) inside the box, above it in K only,
        # below it in L only, above it in both
        concave = [(100.0, 500.0, 25.0, CONCAVE),
                   (100.0, 10.0, 100.0, CONCAVE),
                   (100.0, 300.0, 100.0, CONCAVE),
                   (100.0, 1.0, 100.0, CONCAVE)]
        # alpha + beta >= 1, alpha = 0, r = 0, each with B > 0
        nonconcave = [(100.0, 10.0, 100.0, replace(CONCAVE, **change))
                      for change in ({"alpha": 0.7, "beta": 0.5},
                                     {"alpha": 0.0}, {"interest_rate": 0.0})]
        mixed = [nonconcave[0], *concave[:2], nonconcave[1], *concave[2:],
                 nonconcave[2]]
        edges = chainsim.game._edges
        calls = []

        def record(a, b, r, B, k_lo, k_hi, l_lo, l_hi, all_concave):
            calls.append((list(zip(a.tolist(), b.tolist(), r.tolist(),
                                   k_lo.tolist())), all_concave))
            return edges(a, b, r, B, k_lo, k_hi, l_lo, l_hi, all_concave)

        monkeypatch.setattr(chainsim.game, "_edges", record)
        for rows in (concave, mixed):
            books = [np.array(column) for column in list(zip(*rows))[:3]]
            k, l = best_input_columns(*books,
                                      ParamColumns.of(p for *_, p in rows))
            assert list(zip(k.tolist(), l.tolist())) == [
                eight_candidate_inputs(*row, GameConfig.decision_bounds)
                for row in rows]
        # one call per column, with every live row off the interior in
        # column order; only an all-concave column skips the masks
        lo = GameConfig.decision_bounds[0]
        assert calls == [
            ([(p.alpha, p.beta, p.interest_rate, lo * capital)
              for _, capital, _, p in rows], all_concave)
            for rows, all_concave in ((concave[1:], True),
                                      ([r for r in mixed if r != concave[0]],
                                       False))]


@st.composite
def concave_rows(draw, bounds):
    """concave_problems' books and parameters for a given box: the
    unconstrained optimum near (x * capital, y * labor), inside the box,
    past one face or two, or within a relative 1e-14 to 0.1 of a box
    end."""
    alpha = draw(st.floats(0.0005, 0.6))
    beta = draw(st.floats(0.0005, 0.38))
    rate = draw(st.floats(0.01, 0.3))
    cost = draw(st.floats(0.0, 2.0))
    capital = 10.0 ** draw(st.floats(-2.0, 2.0))
    factor = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)
    near_end = st.tuples(st.sampled_from(bounds), st.floats(-1.0, 1.0),
                         st.floats(-14.0, -1.0)).map(
        lambda t: t[0] * (1.0 + t[1] * 10.0 ** t[2]))
    x = draw(st.one_of(factor, near_end))
    y = draw(st.one_of(factor, near_end))
    c = beta * rate / alpha
    labor = c * x * capital / y
    B = rate * (x * capital) ** (1.0 - alpha - beta) / (alpha * c ** beta)
    revenue = (B + cost) * capital ** alpha * labor ** beta
    return (revenue, capital, labor,
            FirmParameters(alpha=alpha, beta=beta, cost_coeff=cost,
                           interest_rate=rate))


# books and parameters of test_matches_every_edge_priced's examples:
# an overflowing first-order point, an overflowing b * r / alpha, a
# candidate 4e-8 from a corner, elasticities near 1e-300, alpha + beta
# 1.3e-14 below 1
EXTREME_ROWS = [
    (100.0, 1.0, 1.0, replace(CONCAVE, alpha=0.5, beta=0.49999999999999989)),
    (1.2589254117941673, 1.0, 1.2589254117941673,
     replace(CONCAVE, alpha=5e-324, beta=0.6, cost_coeff=5e-324)),
    (0.30566802186640096, 1.0, 0.041666682947609605,
     replace(CONCAVE, alpha=0.375, beta=0.0625, cost_coeff=0.0,
             interest_rate=0.25)),
    (1.0, 1.0, 1.0,
     replace(CONCAVE, alpha=8.837809572010048e-301, beta=1e-20,
             cost_coeff=0.0, interest_rate=8.837809572010048e-301)),
    (0.00014452337494552943, 4.228025413505198e-05, 0.00010958621830965528,
     replace(CONCAVE, alpha=0.6435169839369808, beta=0.35648301606300664,
             cost_coeff=1.5186663542393262, interest_rate=0.3168366670442202)),
]


@st.composite
def mixed_batches(draw):
    """A box and a column of firms that mixes every regime of
    best_input_columns: any_regime_problems' books and parameters,
    concave_rows for that box, and the extreme rows. The box is drawn,
    the default, or one ulp wide."""
    bounds = draw(st.one_of(
        st.tuples(st.floats(0.1, 1.0), st.floats(1.0, 10.0)),
        st.just(GameConfig.decision_bounds),
        st.just((0.9999999999999999, 1.0))))
    rows = draw(st.lists(st.one_of(
        any_regime_problems().map(lambda problem: problem[:4]),
        concave_rows(bounds), st.sampled_from(EXTREME_ROWS)),
        min_size=1, max_size=40))
    return bounds, rows


def beside_concave_edge_row(**change):
    """A column of the default box: a concave row whose optimum lies
    past the high K-face, then a row of the same books with change to
    its parameters and no material cost, so that B > 0."""
    return (GameConfig.decision_bounds,
            [(100.0, 10.0, 100.0, CONCAVE),
             (100.0, 10.0, 100.0, replace(CONCAVE, cost_coeff=0.0, **change))])


class TestBestInputColumns:
    @pytest.mark.fresh_seed
    @given(mixed_batches())
    # each case of the edge rule beside a concave row: gamma = 0 on one
    # edge pair, w = 0, gamma = 0 before w = 0, two candidates on the
    # K-edges, on the L-edges, and gamma exactly 1 on both
    @example(beside_concave_edge_row(alpha=0.0))
    @example(beside_concave_edge_row(beta=0.0))
    @example(beside_concave_edge_row(interest_rate=0.0))
    @example(beside_concave_edge_row(alpha=0.0, interest_rate=0.0))
    @example(beside_concave_edge_row(alpha=1.2))
    @example(beside_concave_edge_row(beta=1.2))
    @example(beside_concave_edge_row(alpha=1.0, beta=1.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_rows_and_every_edge_priced(self, batch):
        # a mask that mixes up rows of different regimes shows only
        # in a mixed column
        bounds, rows = batch
        books = [np.array(column) for column in list(zip(*rows))[:3]]
        k, l = best_input_columns(*books, ParamColumns.of(p for *_, p in rows),
                                  bounds)
        for (revenue, capital, labor, p), got in zip(
                rows, zip(k.tolist(), l.tolist())):
            row = best_inputs(revenue, capital, labor, p, bounds)
            want = eight_candidate_inputs(revenue, capital, labor, p, bounds)
            assert ([x.hex() for x in got] == [x.hex() for x in row]
                    == [x.hex() for x in want])

    def test_overflowing_row_among_ordinary_ones_raises(self):
        # ordinary edge rows, concave and not, around it
        rows = [(100.0, 10.0, 100.0, CONCAVE), OVERFLOWING,
                (100.0, 1.0, 1.0, replace(CONCAVE, alpha=0.7, beta=0.5))]
        books = [np.array(column) for column in list(zip(*rows))[:3]]
        with pytest.raises(OverflowError) as info:
            best_input_columns(*books, ParamColumns.of(p for *_, p in rows))
        assert info.value.args == OVERFLOW_ARGS


class TestGeneticSearch:
    def test_tracks_closed_form(self):
        ctx = ctx_of(revenue=120.0, capital=80.0, labor=40.0)
        config = GameConfig()
        exact = best_response_closed_form(ctx, config)
        ga = best_response_ga(ctx, config, seed=5)
        assert ga.capital == pytest.approx(exact.capital, rel=0.01)
        assert ga.labor == pytest.approx(exact.labor, rel=0.01)
        best = expected_payoff(ctx, exact)
        assert expected_payoff(ctx, ga) >= best - 0.01 * abs(best)

    def test_deterministic_per_seed(self):
        ctx = ctx_of(revenue=120.0, capital=80.0, labor=40.0)
        a = best_response_ga(ctx, seed=9)
        b = best_response_ga(ctx, seed=9)
        assert (a.capital, a.labor) == (b.capital, b.labor)
        c = best_response_ga(ctx, seed=10)
        assert (a.capital, a.labor) != (c.capital, c.labor)

    def test_never_worse_than_incumbent(self):
        rng = np.random.default_rng(21)
        for trial in range(6):
            # includes increasing-returns instances
            ctx = ctx_of(revenue=rng.uniform(1, 200),
                         capital=rng.uniform(0.5, 300),
                         labor=rng.uniform(0.5, 300),
                         alpha=rng.uniform(0.0, 0.8),
                         beta=rng.uniform(0.0, 0.8),
                         cost_coeff=rng.uniform(0.0, 2.0),
                         interest_rate=rng.uniform(0.0, 0.2))
            hold = InvestmentDecision(capital=ctx.capital, labor=ctx.labor)
            ga = best_response_ga(ctx, seed=trial)
            assert expected_payoff(ctx, ga) >= expected_payoff(ctx, hold) - 1e-12

    def test_decisions_stay_inside_the_box(self):
        rng = np.random.default_rng(33)
        config = GameConfig()
        lo, hi = config.decision_bounds
        for trial in range(8):
            # increasing returns and B > 0: the optimum sits on the edges
            revenue, capital, labor = rng.uniform(0.5, 300, size=3)
            alpha, beta = rng.uniform(0.5, 1.0, size=2)
            level = capital ** alpha * labor ** beta
            ctx = ctx_of(revenue=revenue, capital=capital, labor=labor,
                         alpha=alpha, beta=beta,
                         cost_coeff=rng.uniform(0.0, 0.9) * revenue / level,
                         interest_rate=rng.uniform(0.0, 0.2))
            ga = best_response_ga(ctx, config, seed=trial)
            assert lo * ctx.capital <= ga.capital <= hi * ctx.capital
            assert lo * ctx.labor <= ga.labor <= hi * ctx.labor

    def test_degenerate_box(self):
        pin = GameConfig(decision_bounds=(1.0, 1.0))
        dec = best_response_ga(ctx_of(capital=3.0, labor=2.0), pin, seed=0)
        assert (dec.capital, dec.labor) == (3.0, 2.0)


def interior_chain():
    ids = ("A", "B", "C")
    revs = {"A": 100.0, "B": 130.0, "C": 80.0}
    params = {}
    states = {}
    for i, f in enumerate(ids):
        p = FirmParameters(alpha=0.30 + 0.04 * i, beta=0.35 - 0.03 * i,
                           cost_coeff=0.2 + 0.05 * i, interest_rate=0.05,
                           noise_sigma=0.0)
        k, l = steady_state_inputs(p, revs[f])
        params[f] = p
        states[f] = FirmState(revenue=revs[f], prev_revenue=revs[f] / 1.01,
                              capital=k, labor=l, equity=25.0)
    net = TransactionNetwork(firms=ids,
                             edges=(("A", "B", 0.15), ("B", "C", 0.2)))
    return Economy(params=params, states=states), net


class TestNash:
    def test_single_firm_equals_best_response(self):
        eco, _ = (lambda e, n: (e, n))(*interior_chain())
        one = Economy(params={"A": eco.params["A"]},
                      states={"A": eco.states["A"]})
        res = nash_solve(one, TransactionNetwork(firms=("A",)), 1.02)
        st = one.states["A"]
        ctx = PayoffContext(revenue=st.revenue, capital=st.capital,
                            labor=st.labor, customer_terms=0.0,
                            params=one.params["A"])
        expect = best_response_closed_form(ctx)
        assert res.decisions["A"] == expect

    def test_zero_coupling_decouples(self):
        eco, net = interior_chain()
        loose = net.with_strengths({("A", "B"): 0.0, ("B", "C"): 0.0})
        res = nash_solve(eco, loose, 1.02)
        for f in eco.firm_ids:
            st = eco.states[f]
            ctx = PayoffContext(revenue=st.revenue, capital=st.capital,
                                labor=st.labor, customer_terms=0.0,
                                params=eco.params[f])
            assert res.decisions[f] == best_response_closed_form(ctx)

    def test_fixed_point_self_consistent(self):
        eco, net = interior_chain()
        res = nash_solve(eco, net, 1.02)
        # replay each firm's response against the frozen books
        from chainsim import customer_terms_sum
        for f in eco.firm_ids:
            st = eco.states[f]
            cts = customer_terms_sum(f, net, eco.states, 1.02)
            ctx = PayoffContext(revenue=st.revenue, capital=st.capital,
                                labor=st.labor, customer_terms=cts,
                                params=eco.params[f])
            again = best_response_closed_form(ctx)
            assert again.capital == pytest.approx(res.decisions[f].capital,
                                                  rel=1e-9)
            assert again.labor == pytest.approx(res.decisions[f].labor,
                                                rel=1e-9)

    def test_firm_order_does_not_matter(self):
        eco, net = interior_chain()
        flipped = Economy(
            params={f: eco.params[f] for f in reversed(eco.firm_ids)},
            states={f: eco.states[f] for f in reversed(eco.firm_ids)})
        a = nash_solve(eco, net, 1.02)
        b = nash_solve(flipped, net, 1.02)
        assert a.decisions == b.decisions

    def test_repeat_runs_identical(self):
        eco, net = interior_chain()
        a = nash_solve(eco, net, 1.02)
        b = nash_solve(eco, net, 1.02)
        assert a.decisions == b.decisions

    def test_nonconcave_firm_gets_one_closed_form_response(self):
        eco, net = interior_chain()
        eco = replace(eco, params={**eco.params, "B": FirmParameters(
            alpha=0.6, beta=0.5, cost_coeff=0.2, interest_rate=0.05,
            noise_sigma=0.0)})
        from chainsim import customer_terms_sum
        contexts = {}
        for f in eco.firm_ids:
            st = eco.states[f]
            contexts[f] = PayoffContext(
                revenue=st.revenue, capital=st.capital, labor=st.labor,
                customer_terms=customer_terms_sum(f, net, eco.states, 1.02),
                params=eco.params[f])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chainsim.game, "best_response_ga", no_ga)
            res = nash_solve(eco, net, 1.02)
        assert res.decisions == {
            f: best_response_closed_form(ctx) for f, ctx in contexts.items()}

    def test_reads_no_customer_terms(self, monkeypatch):
        # a decision reads only the firm's own books
        eco, net = interior_chain()
        expect = nash_solve(eco, net, 1.02).decisions

        def refuse(*args, **kwargs):
            raise AssertionError("nash_solve summed customer terms")

        monkeypatch.setattr(chainsim.game, "customer_terms_sum", refuse)
        assert nash_solve(eco, net, 1.02).decisions == expect

    def test_flagged_firm_gets_no_decision(self):
        eco, net = interior_chain()
        before = nash_solve(eco, net, 1.02).decisions
        eco = flag_bankrupt(eco, "B")
        after = nash_solve(eco, net, 1.02).decisions
        assert "B" in before
        assert after == {f: d for f, d in before.items() if f != "B"}

    @pytest.mark.parametrize("firm", ["C", "D"])
    def test_refuses_network_over_other_firms(self, firm):
        # a firm only the economy has raised a bare KeyError; one only
        # the network has went unnoticed
        eco, _, _ = make_chain()
        with pytest.raises(ValueError, match=f"firm {firm!r} is only in the"):
            nash_solve(eco, mismatched_chain_network(firm), 1.0)

    def test_one_column_over_mixed_firms_matches_the_one_row_view(self):
        # jittered books put firms inside, on faces and on edges of their
        # boxes; four get a regime of their own and two are flagged
        eco, net, macro = generate_economy(GeneratorConfig(n_firms=40, seed=8))
        sim = forward_simulate(eco, net, macro, decision_jitter=0.8, seed=8)
        eco = economy_from_panel(sim.panel, eco.params)
        ids = eco.firm_ids
        params = dict(eco.params)
        for f, changes in zip(ids[3:7], (dict(alpha=0.7, beta=0.6),
                                         dict(interest_rate=0.0),
                                         dict(alpha=0.0),
                                         dict(cost_coeff=1e6))):
            params[f] = replace(params[f], **changes)
        eco = flag_bankrupt(replace(eco, params=params), ids[1], ids[20])
        got = nash_solve(eco, net, 1.02).decisions
        want = {f: InvestmentDecision(*best_inputs(
                    st.revenue, st.capital, st.labor, eco.params[f]))
                for f, st in sorted(eco.states.items()) if not st.bankrupt}
        assert list(got) == list(want)
        assert all((got[f].capital.hex(), got[f].labor.hex())
                   == (want[f].capital.hex(), want[f].labor.hex())
                   for f in want)


MUTATORS = {
    "setitem": lambda d: operator.setitem(d, "A", d["B"]),
    "delitem": lambda d: operator.delitem(d, "A"),
    "ior": lambda d: operator.ior(d, {"A": d["B"]}),
    "clear": lambda d: d.clear(),
    "pop": lambda d: d.pop("A"),
    "popitem": lambda d: d.popitem(),
    "setdefault": lambda d: d.setdefault("Z", d["A"]),
    "update": lambda d: d.update(A=d["B"]),
}

CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle {protocol}": (
        lambda x, protocol=protocol: pickle.loads(pickle.dumps(x, protocol)))
       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)},
}


class TestFrozenDecisions:
    """nash_solve's decisions cannot be edited in place, so a cascade
    plan keeps them by reference; they read like a plain dict."""

    @pytest.fixture
    def solved(self):
        eco, net = interior_chain()
        return eco, nash_solve(eco, net, 1.02)

    @pytest.mark.parametrize("edit", MUTATORS.values(), ids=MUTATORS)
    def test_every_mutator_raises(self, solved, edit):
        _, res = solved
        before = dict(res.decisions)
        with pytest.raises(TypeError, match="FrozenMap is read-only"):
            edit(res.decisions)
        assert list(res.decisions.items()) == list(before.items())

    def test_equals_the_plain_dict_of_the_same_decisions(self, solved):
        eco, res = solved
        plain = {f: InvestmentDecision(*best_inputs(
                     st.revenue, st.capital, st.labor, eco.params[f]))
                 for f, st in sorted(eco.states.items())}
        assert type(res.decisions) is FrozenMap
        assert res.decisions == plain and plain == res.decisions
        assert list(res.decisions) == list(plain)
        assert repr(res.decisions) == repr(plain)

    def test_a_dict_copy_is_editable(self, solved):
        _, res = solved
        plain = dict(res.decisions)
        assert type(plain) is dict
        plain["A"] = plain.pop("B")
        assert plain == {"A": res.decisions["B"], "C": res.decisions["C"]}
        assert list(res.decisions) == ["A", "B", "C"]

    @pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES)
    def test_copies_and_pickles_stay_read_only(self, solved, clone):
        _, res = solved
        again = clone(res.decisions)
        assert type(again) is FrozenMap
        assert list(again.items()) == list(res.decisions.items())
        with pytest.raises(TypeError, match="read-only"):
            again["A"] = again["B"]
        whole = clone(res)
        assert whole == res
        assert type(whole.decisions) is FrozenMap
