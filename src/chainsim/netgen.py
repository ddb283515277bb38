"""Synthetic economy generation and forward simulation.

Builds firm populations with random parameters, wires them into a
transaction network (uniform random or preferential attachment), draws
a GDP path, and rolls the revenue/profit/equity recursion forward with
decisions taken from the investment game each period.

Initial capital and labor are placed at each firm's profit-maximizing
steady state (then perturbed), which keeps best responses interior and
the economy stationary instead of exploding against the decision
bounds. Applied decisions carry lognormal implementation jitter; the
revenue identity is evaluated at the realized inputs, so noiseless
panels still satisfy it exactly, while capital and labor paths gain
the independent variation that makes the elasticities identifiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import PanelSeries
from .econ import (
    Economy,
    FirmParameters,
    FirmState,
    InvestmentDecision,
    MacroSeries,
    TransactionNetwork,
    customer_terms_sum,  # not called here; bench/tracing.py looks it up
    shared_firm_ids,
    term_rule,
)
from .game import best_inputs

EDGE_MODELS = ("random", "scale-free")
# GeneratorConfig fields that are (low, high) ranges of a uniform draw
RANGES = ("alpha_range", "beta_range", "strength_range", "cost_coeff_range",
          "revenue_range", "equity_frac_range")


def _finite_number(value) -> bool:
    """True for a finite int or float; bools are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything that defines a synthetic economy draw."""

    n_firms: int = 100
    horizon: int = 11
    edge_model: str = "random"
    mean_out_degree: float = 2.0
    alpha_range: tuple[float, float] = (0.1, 0.6)
    beta_range: tuple[float, float] = (0.1, 0.6)
    elasticity_sum_max: float = 0.95   # redraw while alpha + beta >= this
    strength_range: tuple[float, float] = (0.0, 0.3)
    cost_coeff_range: tuple[float, float] = (0.1, 0.5)
    interest_rate: float = 0.05
    noise_sigma: float = 0.02
    revenue_range: tuple[float, float] = (50.0, 150.0)
    equity_frac_range: tuple[float, float] = (0.05, 0.4)
    start_jitter: float = 0.2      # lognormal spread of initial K, L
    decision_jitter: float = 0.8   # lognormal implementation noise
    gdp_start: float = 100.0
    gdp_growth: float = 0.02
    gdp_volatility: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        # range and numpy fail on a fractional count or seed; a bool
        # counted as one firm
        for name, low in (("n_firms", 1), ("horizon", 3), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(
                    f"{name} must be an int >= {low}, got {value!r}")
        if self.edge_model not in EDGE_MODELS:
            raise ValueError(f"edge_model must be one of {EDGE_MODELS}")
        # generate_gdp redraws forever from a NaN start; a string or a
        # bool only fails deep inside the draw, or draws with True as 1.0
        for name in ("gdp_start", "interest_rate", "noise_sigma",
                     "start_jitter", "decision_jitter", "mean_out_degree",
                     "elasticity_sum_max", "gdp_growth", "gdp_volatility"):
            value = getattr(self, name)
            if not _finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not self.gdp_start > 0.0:
            raise ValueError(f"gdp_start must be > 0, got {self.gdp_start!r}")
        for name in ("interest_rate", "noise_sigma", "decision_jitter"):
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        # a non-finite range, or one whose width overflows, draws inf or
        # NaN (and _draw_elasticities then redraws forever)
        for name in RANGES:
            bounds = getattr(self, name)
            if not (isinstance(bounds, (tuple, list)) and len(bounds) == 2
                    and all(map(_finite_number, bounds))
                    and bounds[0] <= bounds[1]
                    and math.isfinite(bounds[1] - bounds[0])):
                raise ValueError(f"{name} must be two finite numbers, low <= high, "
                                 f"with a finite width, got {bounds!r}")
        # a live firm needs positive revenue
        if not self.revenue_range[0] > 0.0:
            raise ValueError("revenue_range must be above 0, "
                             f"got {self.revenue_range!r}")
        if not self.mean_out_degree >= 0.0:
            raise ValueError("mean_out_degree must be >= 0, "
                             f"got {self.mean_out_degree!r}")
        # _draw_elasticities redraws until alpha + beta is below the cap
        if not self.elasticity_sum_max > self.alpha_range[0] + self.beta_range[0]:
            raise ValueError("elasticity_sum_max must exceed the smallest alpha + beta, "
                             f"got {self.elasticity_sum_max!r}")
        # generate_gdp redraws until GDP stays positive; outside these
        # ranges a draw may never succeed
        if not self.gdp_growth > -1.0:
            raise ValueError(
                f"gdp_growth must be > -1, got {self.gdp_growth!r}")
        if not self.gdp_volatility >= 0.0:
            raise ValueError(
                f"gdp_volatility must be >= 0, got {self.gdp_volatility!r}")


def firm_ids(n: int) -> tuple[str, ...]:
    width = max(4, len(str(n - 1)))
    return tuple(f"F{i:0{width}d}" for i in range(n))


def _uniform(rng, bounds: tuple[float, float]) -> float:
    """One rng.uniform(*bounds) draw, from the same stream position.

    numpy computes uniform as low + (high - low) * next_double, which is
    this arithmetic on random()'s draw, at less than half the cost of a
    scalar uniform() call.
    """
    low, high = float(bounds[0]), float(bounds[1])
    return low + (high - low) * rng.random()


def _draw_elasticities(config: GeneratorConfig, rng) -> tuple[float, float]:
    while True:
        a = _uniform(rng, config.alpha_range)
        b = _uniform(rng, config.beta_range)
        if a + b < config.elasticity_sum_max:
            return a, b


# the guard band of steady_state_inputs is ln k_root +- _BAND / s
_BAND = 1e-12


def _log_root(p: float, C: float, s: float, R: float) -> float:
    """ln k where p*k + C*k^s = R, for p, R > 0, C >= 0 and 0 < s < 1.

    Newton on phi(u) = ln(p*e^u + C*e^(s*u)) - ln R, which is convex and
    increasing in u = ln k with slope in [s, 1]. It starts at the
    smaller of the roots of the two terms alone, which lies at most
    ln 2 / s right of the root; from there every step moves left and
    stays at or right of the root. It stops once a step is below an
    eighth of the guard band, and gives nan when 50 steps do not get
    there or math fails.
    """
    tol = _BAND / (8.0 * s)
    try:
        u = math.log(R / p)
        if C > 0.0:
            u = min(u, math.log(R / C) / s)
        for _ in range(50):
            k = math.exp(u)
            lin, pw = p * k, C * k ** s
            step = math.log((lin + pw) / R) * (lin + pw) / (lin + s * pw)
            u -= step
            if abs(step) < tol:
                return u
    except (ArithmeticError, ValueError):
        pass
    return math.nan


def steady_state_inputs(params: FirmParameters, revenue: float) -> tuple[float, float]:
    """Capital and labor at which the best response reproduces itself.

    Solves the stationary first-order condition gap(ln k) = 0 by
    bisection on log capital over [ln 1e-9, ln 1e12]; gap is increasing,
    so the root is unique. The bisection stops once the midpoint equals
    an end of the bracket, since no later step can move the midpoint
    then, and after 200 steps at most. Needs positive elasticities and
    interest rate.

    Most midpoints are far from the root, where gap's sign is known
    without evaluating it. gap times k^s is f(k) = (r/alpha)*k +
    A*c^beta*k^s - revenue, increasing and concave, and Newton
    (_log_root) finds its root ln k_root in a few steps. A midpoint
    more than band = 1e-12 / s from ln k_root takes the side of that
    comparison; one inside the band calls gap, as does every midpoint
    when there is no verified root. The final bracket, and so k, is the
    one gap alone would give:

    - The float gap(u) is r*k^(1-s)/alpha + A*c^beta - revenue*k^(-s)
      with k = exp(u). Let u* be the root of the exact sum with the
      same float constants. When libm's exp and pow are within one ulp
      and revenue*k^(-s) is a normal float, each varying term is within
      3 eps of its exact value (eps = 2^-52; a subnormal first term is
      off by far less than eps times the third). So the float gap is
      within 8 eps of the sum of its terms' magnitudes, and its sign is
      exact wherever |u - u*| > W = 17 eps / s: the ratio of the
      positive terms to the negative one moves in log by at least s
      per unit of u.
    - ln k_root is used only inside (ln 1e-9 + band, ln 1e12 - band),
      and only when gap is negative at ln k_root - band/2 and
      non-negative at ln k_root + band/2. That puts u* within
      band/2 + W of ln k_root, so any midpoint beyond the band is more
      than band/2 - W > W from u*, on the side the comparison says,
      since band = 1e-12 / s is over 60 times 4 W.
    - Otherwise (revenue outside (1e-290, 1e290), which includes
      revenue <= 0, inf and NaN, or Newton without a finite root
      verified inside the bracket) gap decides every midpoint.
    """
    a, b, r = params.alpha, params.beta, params.interest_rate
    A = params.cost_coeff
    if a <= 0.0 or b <= 0.0 or r <= 0.0:
        raise ValueError("steady state needs alpha, beta, interest_rate > 0")
    if a + b >= 1.0:
        raise ValueError("steady state needs alpha + beta < 1")
    c = b * r / a
    s = a + b

    def gap(ln_k: float) -> float:
        k = math.exp(ln_k)
        return (r * k ** (1.0 - s) / a + A * c ** b
                - revenue * k ** (-s))

    lo, hi = math.log(1e-9), math.log(1e12)
    band = _BAND / s
    # the band around a verified root; nan ends make gap decide everywhere
    left = right = math.nan
    if 1e-290 < revenue < 1e290:
        x = _log_root(r / a, A * c ** b, s, revenue)
        if (lo + band < x < hi - band
                and gap(x - 0.5 * band) < 0.0 <= gap(x + 0.5 * band)):
            left, right = x - band, x + band
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid < left:
            lo = mid
        elif mid > right:
            hi = mid
        elif gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    k = math.exp(0.5 * (lo + hi))
    return k, c * k


def generate_params(config: GeneratorConfig, rng) -> dict[str, FirmParameters]:
    out = {}
    for fid in firm_ids(config.n_firms):
        a, b = _draw_elasticities(config, rng)
        out[fid] = FirmParameters(
            alpha=a,
            beta=b,
            cost_coeff=_uniform(rng, config.cost_coeff_range),
            interest_rate=config.interest_rate,
            noise_sigma=config.noise_sigma,
        )
    return out


def generate_network(config: GeneratorConfig, rng) -> TransactionNetwork:
    """Directed supplier->customer network under the configured model.

    random: every ordered pair gets an edge independently with
    probability mean_out_degree/(n-1). scale-free: firms join one at a
    time and pick customers among earlier firms preferentially by how
    many suppliers those firms already have.
    """
    ids = firm_ids(config.n_firms)
    n = config.n_firms
    triples = []
    if config.edge_model == "random":
        if n > 1:
            p = min(1.0, config.mean_out_degree / (n - 1))
            hit = rng.random((n, n)) < p
            np.fill_diagonal(hit, False)
            rows, cols = np.nonzero(hit)
            ks = rng.uniform(*config.strength_range, size=rows.size)
            triples = [(ids[i], ids[j], float(k))
                       for i, j, k in zip(rows, cols, ks)]
    else:  # scale-free
        m = max(1, round(config.mean_out_degree))
        in_deg = np.zeros(n)
        for i in range(1, n):
            n_pick = min(i, m)
            weights = in_deg[:i] + 1.0
            targets = rng.choice(i, size=n_pick, replace=False,
                                 p=weights / weights.sum())
            for j in sorted(int(t) for t in targets):
                triples.append((ids[i], ids[j],
                                _uniform(rng, config.strength_range)))
                in_deg[j] += 1.0
    return TransactionNetwork(ids, triples)


def generate_gdp(config: GeneratorConfig, rng) -> MacroSeries:
    """GDP path with multiplicative growth shocks, kept positive.

    A draw that would push GDP non-positive is rejected and redrawn.
    """
    values = [config.gdp_start]
    for _ in range(config.horizon - 1):
        while True:
            growth = 1.0 + config.gdp_growth + config.gdp_volatility * rng.normal()
            nxt = values[-1] * growth
            if nxt > 0.0:
                break
        values.append(nxt)
    return MacroSeries(gdp=tuple(values))


def generate_states(config: GeneratorConfig, params: dict[str, FirmParameters],
                    rng) -> dict[str, FirmState]:
    states = {}
    for fid in sorted(params):
        p = params[fid]
        revenue = _uniform(rng, config.revenue_range)
        k_star, l_star = steady_state_inputs(p, revenue)
        capital = k_star * math.exp(config.start_jitter * rng.normal())
        labor = l_star * math.exp(config.start_jitter * rng.normal())
        equity = _uniform(rng, config.equity_frac_range) * revenue
        states[fid] = FirmState(
            revenue=revenue,
            prev_revenue=revenue / (1.0 + config.gdp_growth),
            capital=capital,
            labor=labor,
            equity=equity,
        )
    return states


def generate_economy(config: GeneratorConfig
                     ) -> tuple[Economy, TransactionNetwork, MacroSeries]:
    """Draw parameters, wiring, GDP and initial books for one economy.

    Independent substreams per component, all derived from the config
    seed: the same config reproduces the same economy bit for bit.
    """
    params = generate_params(config, np.random.default_rng([config.seed, 1]))
    network = generate_network(config, np.random.default_rng([config.seed, 2]))
    macro = generate_gdp(config, np.random.default_rng([config.seed, 3]))
    states = generate_states(config, params,
                             np.random.default_rng([config.seed, 4]))
    return Economy(params=params, states=states), network, macro


@dataclass(frozen=True)
class SimulationResult:
    """Forward-simulation output: the panel plus bookkeeping."""

    panel: PanelSeries
    floor_events: tuple[tuple[str, int], ...]


def forward_simulate(economy: Economy, network: TransactionNetwork,
                     macro: MacroSeries, *,
                     noise_on: bool = True,
                     decision_jitter: float = 0.0,
                     seed: int = 0) -> SimulationResult:
    """Roll the economy forward over the macro series' horizon.

    Each period every firm best-responds to its own books on record
    (game.best_inputs), the applied inputs get lognormal jitter of
    spread decision_jitter (finite and >= 0; 0 applies the decision as
    taken), and econ.term_rule gives the term's revenue (with the
    customer terms, and the idiosyncratic shock when noise_on) and
    profit, which rolls into equity. All firms advance on a period
    barrier, so the result does not depend on firm order. A revenue
    outcome at or below zero is floored and flagged. A firm flagged
    bankrupt before the run reads as a zero-revenue customer in the
    first period and trades on afterwards. seed drives the noise and
    jitter streams.

    The books are plain floats over the sorted firm index; each period
    writes its four columns into the (4, n_firms, T) books array, whose
    planes become the panel's revenue, capital, labor and equity
    arrays. Every new decision and state is checked as
    InvestmentDecision and FirmState would check it, with the same
    error; neither is built otherwise. economy_from_panel reads the
    final states off the panel.
    """
    if not (math.isfinite(decision_jitter) and decision_jitter >= 0.0):
        raise ValueError("decision_jitter must be finite and >= 0, "
                         f"got {decision_jitter!r}")
    T = len(macro)
    ids = shared_firm_ids(economy, network)
    n = len(ids)
    noise_rng = np.random.default_rng([seed, 101])
    jitter_rng = np.random.default_rng([seed, 102])
    start = [economy.states[f] for f in ids]
    # plain floats: numpy scalars would slow every later operation
    revenue = [float(st.revenue) for st in start]
    capital = [float(st.capital) for st in start]
    labor = [float(st.labor) for st in start]
    equity = [float(st.equity) for st in start]
    # revenue, capital, labor and equity of every firm in every period
    books = np.empty((4, n, T))
    books[:, :, 0] = revenue, capital, labor, equity
    floor_events: list[tuple[str, int]] = []

    params = [economy.params[f] for f in ids]
    # the customer table: row i is firm i's customers, in customers_of order
    offsets, customers, strengths = network.customers
    # growth ratio on the books; a firm flagged before the run pays
    # nothing in the first term, so its suppliers read a ratio of 0
    growth = [0.0 if st.bankrupt else st.growth_ratio for st in start]
    inf = math.inf
    for t in range(T - 1):
        # interactions use the growth already on the books; before the
        # first recorded ratio exists, next period's serves as a stand-in
        g_lag = macro.ratio(t) if t >= 1 else macro.ratio(1)
        # a customer's coupling term is k * (its growth - GDP growth)
        excess = [x - g_lag for x in growth]
        shocks = (noise_rng.normal(size=n).tolist() if noise_on
                  else [0.0] * n)
        jit = jitter_rng.normal(size=(n, 2)).tolist()
        new_revenue = [0.0] * n
        new_capital = [0.0] * n
        new_labor = [0.0] * n
        new_equity = [0.0] * n
        for i in range(n):
            rev, cap, lab, p = revenue[i], capital[i], labor[i], params[i]
            k_dec, l_dec = best_inputs(rev, cap, lab, p)
            if not (0.0 < k_dec < inf and 0.0 < l_dec < inf):
                InvestmentDecision(k_dec, l_dec)  # raises the decision's error
            jk, jl = jit[i]
            k_new = k_dec * math.exp(decision_jitter * jk)
            l_new = l_dec * math.exp(decision_jitter * jl)
            if not (0.0 < k_new < inf and 0.0 < l_new < inf):
                InvestmentDecision(k_new, l_new)
            # customer terms move the revenue booked, not the decision
            cts = 0.0
            for j in range(offsets[i], offsets[i + 1]):
                cts += strengths[j] * excess[customers[j]]
            rev_new, profit, floored = term_rule(
                rev, cap, lab, p, k_new, l_new, cts, p.noise_sigma * shocks[i])
            if floored:
                floor_events.append((ids[i], t + 1))
            eq_new = equity[i] + profit
            if not (0.0 < rev_new < inf and 0.0 < rev < inf
                    and -inf < eq_new < inf):
                FirmState(rev_new, rev, k_new, l_new, eq_new)  # raises
            growth[i] = rev_new / rev
            new_revenue[i] = rev_new
            new_capital[i] = k_new
            new_labor[i] = l_new
            new_equity[i] = eq_new
        revenue, capital, labor, equity = (new_revenue, new_capital,
                                           new_labor, new_equity)
        books[:, :, t + 1] = revenue, capital, labor, equity

    revenue, capital, labor, equity = books
    panel = PanelSeries(ids, revenue, capital, labor, gdp=np.array(macro.gdp),
                        periods=macro.periods, equity=equity)
    return SimulationResult(panel=panel, floor_events=tuple(floor_events))


def simulate_economy(config: GeneratorConfig, *, noise_on: bool = True
                     ) -> tuple[Economy, TransactionNetwork, MacroSeries,
                                SimulationResult]:
    """Generate an economy and simulate it over its horizon."""
    economy, network, macro = generate_economy(config)
    result = forward_simulate(
        economy, network, macro,
        noise_on=noise_on,
        decision_jitter=config.decision_jitter,
        seed=config.seed,
    )
    return economy, network, macro, result


def economy_from_panel(panel: PanelSeries,
                       params: dict[str, FirmParameters]) -> Economy:
    """Firm states read off the panel's last period, ready for a cascade.

    The period before it gives the growth ratio. The panel must carry
    equity.
    """
    pos = panel.n_periods - 1
    if pos < 1:
        raise ValueError("panel needs two periods for the growth ratio")
    if panel.equity is None:
        raise ValueError("panel carries no equity; cascade needs beginning equity")
    missing = [f for f in panel.firm_ids if f not in params]
    if missing:
        raise ValueError(f"no parameters for firms {missing[:5]}")
    columns = zip(panel.firm_ids, panel.revenue[:, pos].tolist(),
                  panel.revenue[:, pos - 1].tolist(),
                  panel.capital[:, pos].tolist(), panel.labor[:, pos].tolist(),
                  panel.equity[:, pos].tolist())
    states = {fid: FirmState(*books) for fid, *books in columns}
    return Economy(params={f: params[f] for f in panel.firm_ids},
                   states=states)
