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
    FINITE,
    NON_NEGATIVE,
    POSITIVE,
    Economy,
    FirmParameters,
    FirmState,
    InvestmentDecision,
    MacroSeries,
    PARAMETER_COLUMNS,
    REVENUE_FLOOR_FRAC,
    TransactionNetwork,
    check_numbers,
    check_param_columns,
    customer_terms_sum,  # not called here; bench/tracing.py looks it up
    finite_number,
    record_columns,
    shared_firm_ids,
    term_rule,
)
from .game import (
    ParamColumns,
    best_input_columns,
    best_inputs,
    libm,
)

EDGE_MODELS = ("random", "scale-free")
# GeneratorConfig's scalar settings and their bounds: generate_gdp redraws
# forever from a NaN start, or where gdp_growth <= -1 or gdp_volatility < 0
SCALARS = (("gdp_start", POSITIVE), ("interest_rate", NON_NEGATIVE),
           ("noise_sigma", NON_NEGATIVE), ("start_jitter", FINITE),
           ("decision_jitter", NON_NEGATIVE), ("mean_out_degree", NON_NEGATIVE),
           ("elasticity_sum_max", FINITE), ("gdp_growth", (-1, True)),
           ("gdp_volatility", NON_NEGATIVE))
# GeneratorConfig fields that are (low, high) ranges of a uniform draw
RANGES = ("alpha_range", "beta_range", "strength_range", "cost_coeff_range",
          "revenue_range", "equity_frac_range")
# doubles of the random model's uniform stream drawn at once: whole rows,
# at least one
_DRAW_BLOCK = 2 ** 16


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
        check_numbers(SCALARS, (getattr(self, name) for name, _ in SCALARS))
        # a non-finite range, or one whose width overflows, draws inf or
        # NaN (and generate_params then redraws forever)
        for name in RANGES:
            bounds = getattr(self, name)
            if not (isinstance(bounds, (tuple, list)) and len(bounds) == 2
                    and all(map(finite_number, bounds))
                    and bounds[0] <= bounds[1]
                    and finite_number(bounds[1] - bounds[0])):
                raise ValueError(f"{name} must be two finite numbers, low <= high, "
                                 f"with a finite width, got {bounds!r}")
        # a live firm needs positive revenue
        if not self.revenue_range[0] > 0.0:
            raise ValueError("revenue_range must be above 0, "
                             f"got {self.revenue_range!r}")
        # generate_params redraws until alpha + beta is below the cap
        if not self.elasticity_sum_max > self.alpha_range[0] + self.beta_range[0]:
            raise ValueError("elasticity_sum_max must exceed the smallest alpha + beta, "
                             f"got {self.elasticity_sum_max!r}")


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


# the guard band of steady_state_columns is ln k_root +- _BAND / s
_BAND = 1e-12


def _log_roots(p, C, s, R) -> np.ndarray:
    """ln k where p*k + C*k^s = R, per row, for p, R > 0, C >= 0 and
    0 < s < 1.

    Newton on phi(u) = ln(p*e^u + C*e^(s*u)) - ln R, which is convex and
    increasing in u = ln k with slope in [s, 1]. It starts at the
    smaller of the roots of the two terms alone, which lies at most
    ln 2 / s right of the root; from there every step moves left and
    stays at or right of the root. A row stops once its step is below
    an eighth of the guard band, and reads nan when 50 steps do not get
    there or its steps leave float range. The root only places the
    band, which steady_state_columns checks with gap before using it,
    so numpy's own exp, log and power serve here.
    """
    tol = _BAND / (8.0 * s)
    u = np.minimum(np.log(R / p), np.log(R / C) / s)
    roots = np.full(u.shape, math.nan)
    rows = np.isfinite(u).nonzero()[0]
    for _ in range(50):
        if not rows.size:
            break
        k = np.exp(u[rows])
        lin, pw = p[rows] * k, C[rows] * k ** s[rows]
        step = np.log((lin + pw) / R[rows]) * (lin + pw) / (lin + s[rows] * pw)
        u[rows] -= step
        done = abs(step) < tol[rows]
        roots[rows[done]] = u[rows[done]]
        rows = rows[~done & np.isfinite(step)]
    return roots


def steady_state_columns(params: ParamColumns, revenue
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Capital and labor at which the best response reproduces itself,
    per row.

    revenue is a float64 column over the firms of params. Solves the
    stationary first-order condition gap(ln k) = 0 by bisection on log
    capital over [ln 1e-9, ln 1e12]; gap is increasing, so the root is
    unique. A row's bisection stops once its midpoint equals an end of
    its bracket, since no later step can move the midpoint then, and
    after 200 steps at most; the rows still bisecting step together.
    Needs positive elasticities and interest rate.

    Most midpoints are far from the root, where gap's sign is known
    without evaluating it. gap times k^s is f(k) = (r/alpha)*k +
    A*c^beta*k^s - revenue, increasing and concave, and Newton
    (_log_roots) finds its root ln k_root in a few steps. A midpoint
    more than band = 1e-12 / s from ln k_root takes the side of that
    comparison; gap runs only on the midpoints inside the band, and on
    every midpoint of a row without a verified root. The final bracket,
    and so k, is the one gap alone would give:

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

    Each row gets the floats that the same steps give it alone, with
    exp and pow from libm (game's module docstring).
    """
    a, b, r = params.alpha, params.beta, params.interest_rate
    flat = (a <= 0.0) | (b <= 0.0) | (r <= 0.0)
    wrong = (flat | (a + b >= 1.0)).nonzero()[0]
    if wrong.size:
        if flat[wrong[0]]:
            raise ValueError("steady state needs alpha, beta, interest_rate > 0")
        raise ValueError("steady state needs alpha + beta < 1")
    with np.errstate(all="ignore"):
        s = a + b
        fixed = params.cost_coeff * params.c_beta
        # gap's constants and exponents, a column per row
        constants = np.array((r, a, fixed, revenue))
        exponents = np.array((1.0 - s, -s))

        def gap(rows, ln_k):
            k = libm(math.exp, ln_k)
            rate, alpha, fix, rev = constants[:, rows]
            k_up, k_down = libm(pow, np.concatenate((k, k)),
                                exponents[:, rows].ravel()).reshape(2, -1)
            return rate * k_up / alpha + fix - rev * k_down

        lo, hi = math.log(1e-9), math.log(1e12)
        band = _BAND / s
        # the band around a verified root; an infinite one makes gap
        # decide every midpoint
        left = np.full(s.size, -math.inf)
        right = np.full(s.size, math.inf)
        rows = ((1e-290 < revenue) & (revenue < 1e290)).nonzero()[0]
        x = _log_roots(r[rows] / a[rows], fixed[rows], s[rows], revenue[rows])
        inside = (lo + band[rows] < x) & (x < hi - band[rows])
        rows, x = rows[inside], x[inside]
        half = 0.5 * band[rows]
        verified = (gap(rows, x - half) < 0.0) & (0.0 <= gap(rows, x + half))
        rows, x = rows[verified], x[verified]
        left[rows], right[rows] = x - band[rows], x + band[rows]

        # the rows still bisecting with their brackets, and the final
        # bracket of every row
        rows = np.arange(s.size)
        lo, hi = np.full(s.size, lo), np.full(s.size, hi)
        ends = np.empty((2, s.size))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            stop = (mid == lo) | (mid == hi)
            if stop.any():
                ends[:, rows[stop]] = lo[stop], hi[stop]
                go = ~stop
                rows, lo, hi, mid, left, right = (
                    col[go] for col in (rows, lo, hi, mid, left, right))
                if not rows.size:
                    break
            down = mid < left
            near = ((left <= mid) & (mid <= right)).nonzero()[0]
            if near.size:
                down[near] = gap(rows[near], mid[near]) < 0.0
            lo = np.where(down, mid, lo)
            hi = np.where(down, hi, mid)
        ends[:, rows] = lo, hi
        k = libm(math.exp, 0.5 * (ends[0] + ends[1]))
    return k, params.c * k


def generate_params(config: GeneratorConfig, rng) -> np.ndarray:
    """Each firm's parameters, as a table of float64 columns over
    firm_ids(n_firms) with a row per PARAMETER_COLUMNS field, held to
    the number rule.

    Firm by firm, the stream gives alpha and beta, redrawn as a pair
    while alpha + beta >= elasticity_sum_max, then cost_coeff, each
    low + (high - low) * a uniform double. The doubles come in blocks,
    each as many as the firms still to draw need at the least, three
    apiece, so the stream stops where a draw per double stops; a walk
    over the block's pairs finds each firm's accepted pair.
    """
    n = config.n_firms
    (a_lo, a_hi), (b_lo, b_hi), (c_lo, c_hi) = (
        map(float, bounds) for bounds in (
            config.alpha_range, config.beta_range, config.cost_coeff_range))
    u = np.empty(0)
    accepted: list[bool] = []  # per stream position, the pair it starts
    starts: list[int] = []     # each firm's accepted pair
    p = 0
    while len(starts) < n:
        u = np.concatenate((u, rng.random(p + 3 * (n - len(starts)) - len(u))))
        sums = (a_lo + (a_hi - a_lo) * u[len(accepted):-1]
                + (b_lo + (b_hi - b_lo) * u[len(accepted) + 1:]))
        accepted += (sums < config.elasticity_sum_max).tolist()
        while len(starts) < n and p + 2 <= len(u):
            if not accepted[p]:
                p += 2
            elif p + 3 <= len(u):
                starts.append(p)
                p += 3
            else:
                break
    starts = np.array(starts, dtype=np.intp)
    table = np.array((a_lo + (a_hi - a_lo) * u[starts],
                      b_lo + (b_hi - b_lo) * u[starts + 1],
                      c_lo + (c_hi - c_lo) * u[starts + 2],
                      np.full(n, float(config.interest_rate)),
                      np.full(n, float(config.noise_sigma))))
    check_param_columns(table)
    return table


def generate_network(config: GeneratorConfig, rng) -> TransactionNetwork:
    """Directed supplier->customer network under the configured model.

    random: every ordered pair gets an edge independently with
    probability mean_out_degree/(n-1). The model reads one (n, n)
    uniform stream in row order, but draws it in blocks of whole rows,
    about _DRAW_BLOCK doubles each, so it holds O(block * n) of it at a
    time rather than O(n^2); the edges' strengths follow in the stream.
    scale-free: firms join one at a time, and each picks
    round(mean_out_degree) customers, or every earlier firm while there
    are fewer, preferentially by how many suppliers those firms already
    have. The count rounds half to even (2.5 gives 2), so a degree below
    0.5 draws no edges.
    """
    ids = firm_ids(config.n_firms)
    n = config.n_firms
    triples = []
    if config.edge_model == "random":
        if n > 1:
            p = min(1.0, config.mean_out_degree / (n - 1))
            rows, cols = [], []
            step = max(1, _DRAW_BLOCK // n)
            for start in range(0, n, step):
                hit = rng.random((min(step, n - start), n)) < p
                np.fill_diagonal(hit[:, start:], False)
                r, c = hit.nonzero()
                rows += (r + start).tolist()
                cols += c.tolist()
            ks = rng.uniform(*config.strength_range, size=len(rows))
            triples = [(ids[i], ids[j], k)
                       for i, j, k in zip(rows, cols, ks.tolist())]
    else:  # scale-free
        m = round(config.mean_out_degree)
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


def generate_states(config: GeneratorConfig, params: np.ndarray,
                    rng) -> np.ndarray:
    """Initial books for the firms of a generate_params table, as a table
    of float64 columns with a row per STATE_COLUMNS field: each firm, in
    order, draws its revenue, the jitter of its capital and of its
    labor, and its equity share; then all steady states are solved at
    once and jittered."""
    uniform, normal = rng.random, rng.normal
    n = params.shape[1]
    draws = np.array([(uniform(), normal(), normal(), uniform())
                      for _ in range(n)], dtype=float).reshape(n, 4).T
    low, high = map(float, config.revenue_range)
    revenue = low + (high - low) * draws[0]
    k_star, l_star = steady_state_columns(ParamColumns(*params), revenue)
    capital = k_star * libm(math.exp, config.start_jitter * draws[1])
    labor = l_star * libm(math.exp, config.start_jitter * draws[2])
    low, high = map(float, config.equity_frac_range)
    equity = (low + (high - low) * draws[3]) * revenue
    prev_revenue = revenue / (1.0 + config.gdp_growth)
    return np.array((revenue, prev_revenue, capital, labor, equity))


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
    return (Economy.from_columns(firm_ids(config.n_firms), params, states),
            network, macro)


@dataclass(frozen=True)
class SimulationResult:
    """Forward-simulation output: the panel plus bookkeeping."""

    panel: PanelSeries
    floor_events: tuple[tuple[str, int], ...]


def _check_step(revenue: float, capital: float, labor: float, equity: float,
                params: FirmParameters, jitter: float, z_capital: float,
                z_labor: float, customer_terms: float, noise: float) -> None:
    """One firm's period step on floats, raising the error of the first
    check it fails: the decision, then the jittered inputs, then the new
    state, each as InvestmentDecision or FirmState raises it, or an
    arithmetic error on the way. forward_simulate's error path."""
    k_dec, l_dec = best_inputs(revenue, capital, labor, params)
    InvestmentDecision(k_dec, l_dec)
    k_new = k_dec * math.exp(jitter * z_capital)
    l_new = l_dec * math.exp(jitter * z_labor)
    InvestmentDecision(k_new, l_new)
    rev_new, profit, _ = term_rule(revenue, capital, labor, params, k_new,
                                   l_new, customer_terms, noise)
    FirmState(rev_new, revenue, k_new, l_new, equity + profit)


def forward_simulate(economy: Economy, network: TransactionNetwork,
                     macro: MacroSeries, *,
                     noise_on: bool = True,
                     decision_jitter: float = 0.0,
                     seed: int = 0) -> SimulationResult:
    """Roll the economy forward over the macro series' horizon.

    Each period every firm best-responds to its own books on record
    (game.best_input_columns), the applied inputs get lognormal jitter
    of spread decision_jitter (finite and >= 0; 0 applies the decision
    as taken), and econ.term_rule's arithmetic gives the term's revenue
    (with the customer terms, and the idiosyncratic shock when noise_on)
    and profit, which rolls into equity. All firms advance on a period
    barrier, so the result does not depend on firm order. A revenue
    outcome at or below zero is floored and flagged. A firm flagged
    bankrupt before the run reads as a zero-revenue customer in the
    first period and trades on afterwards. seed drives the noise and
    jitter streams.

    The books are float64 columns over the sorted firm index, and a
    period is a few whole-column operations: the decisions, the jitter
    through math.exp, term_fixed's and term_close's arithmetic in their
    order, the floor and the equity roll, each row getting the floats
    the scalar rule gives it (game's module docstring). The customer
    terms are one np.bincount of the customer table's terms by
    supplier, which adds each firm's terms in customers_of order. Each
    period writes its four columns into the (4, n_firms, T) books
    array, whose planes become the panel's revenue, capital, labor and
    equity arrays; floor events come in firm order within a period.
    Where a row fails a check, or an operation raises, the step of each
    firm in turn is replayed on floats (_check_step), so the error is
    the one the lowest-indexed failing firm raises, as
    InvestmentDecision and FirmState raise it; neither is built
    otherwise. economy_from_panel reads the final states off the panel.
    """
    check_numbers((("decision_jitter", NON_NEGATIVE),), (decision_jitter,))
    T = len(macro)
    ids = shared_firm_ids(economy, network)
    n = len(ids)
    noise_rng = np.random.default_rng([seed, 101])
    jitter_rng = np.random.default_rng([seed, 102])
    columns = ParamColumns(*economy.param_columns)
    revenue, prev_revenue, capital, labor, equity = economy.state_columns
    # revenue, capital, labor and equity of every firm in every period
    books = np.empty((4, n, T))
    books[:, :, 0] = revenue, capital, labor, equity
    floor_events: list[tuple[str, int]] = []

    # the customer table with each entry's supplier position: bincount
    # adds its weights in input order, which is customers_of order
    offsets, customers, strengths = network.customers
    customers = np.array(customers, dtype=np.intp)
    strengths = np.array(strengths, dtype=float)
    owner = np.repeat(np.arange(n), np.diff(offsets))
    # growth ratio on the books; a firm flagged before the run pays
    # nothing in the first term, so its suppliers read a ratio of 0
    with np.errstate(all="ignore"):
        growth = np.where(economy.bankrupt, 0.0, revenue / prev_revenue)
    # the exponents of the term's four powers, and capital ** alpha and
    # labor ** beta on the books once the first term has taken them
    exponents = np.concatenate((columns.alpha, columns.beta) * 2)
    powers = None
    for t in range(T - 1):
        # interactions use the growth already on the books; before the
        # first recorded ratio exists, next period's serves as a stand-in
        g_lag = macro.ratio(t) if t >= 1 else macro.ratio(1)
        shocks = noise_rng.normal(size=n) if noise_on else np.zeros(n)
        jit = jitter_rng.normal(size=(n, 2))
        with np.errstate(all="ignore"):
            # a customer's coupling term is k * (its growth - GDP growth);
            # customer terms move the revenue booked, not the decision
            excess = growth - g_lag
            terms = np.bincount(owner, strengths * excess[customers],
                                minlength=n)
            noise = columns.noise_sigma * shocks
            failure = None
            try:
                k_dec, l_dec = best_input_columns(revenue, capital, labor,
                                                  columns, powers=powers)
                factors = libm(math.exp, decision_jitter * jit.ravel())
                k_new = k_dec * factors[0::2]
                l_new = l_dec * factors[1::2]
                # term_fixed's powers: (K'/K)^alpha, (L'/L)^beta, K'^alpha, L'^beta
                k_ratio, l_ratio, k_a, l_b = libm(pow, np.concatenate(
                    (k_new / capital, l_new / labor, k_new, l_new)),
                    exponents).reshape(4, n)
                growth_term = k_ratio * l_ratio
                material = columns.cost_coeff * k_a * l_b
                rev_new = revenue * (growth_term + terms + noise)
                floored = ~(rev_new > 0.0)
                rev_new[floored] = REVENUE_FLOOR_FRAC * revenue[floored]
                eq_new = equity + (rev_new - material
                                   - columns.interest_rate * k_new - l_new)
                # the decision, the applied inputs, the revenue before and
                # after: finite and positive; the new equity finite
                checked = np.array((k_dec, l_dec, k_new, l_new, rev_new, revenue))
                fine = ((0.0 < checked) & (checked < math.inf)).all(axis=0)
                suspects = (~(fine & np.isfinite(eq_new))).nonzero()[0]
            except (ArithmeticError, ValueError) as exc:
                failure, suspects = exc, range(n)
        for i in suspects:
            _check_step(*(float(col[i]) for col in (revenue, capital, labor,
                                                    equity)),
                        FirmParameters(*economy.param_columns[:, i].tolist()),
                        decision_jitter, float(jit[i, 0]),
                        float(jit[i, 1]), float(terms[i]), float(noise[i]))
        if failure is not None:
            raise failure
        floor_events += [(ids[i], t + 1) for i in floored.nonzero()[0].tolist()]
        growth = rev_new / revenue
        revenue, capital, labor, equity = rev_new, k_new, l_new, eq_new
        powers = k_a, l_b
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
    return Economy.from_columns(
        panel.firm_ids,
        record_columns([params[f] for f in panel.firm_ids], PARAMETER_COLUMNS),
        (panel.revenue[:, pos], panel.revenue[:, pos - 1],
         panel.capital[:, pos], panel.labor[:, pos], panel.equity[:, pos]))
