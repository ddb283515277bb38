"""Investment game: each firm picks next-term capital and labor to
maximize next-term profit, holding everyone else's books fixed.

The payoff is next-term profit with the noise term at zero,
B*K^a*L^b - r*K - L + const, where B is the net output coefficient.
The customer terms enter only the constant, revenue * customer_terms,
so a decision reads the firm's own books alone. Decisions are searched
inside a multiplicative box around the firm's current inputs.

best_input_columns is the one exact best response. It takes the books
and parameters of many firms as float64 columns, one row per firm, and
steps them all at once; best_inputs and best_response_closed_form are
one-row views of it, nash_solve and the simulator call it on whole
economies:

- B <= 0 (cost-dominated): the payoff does not rise in either input,
  so the lower corner of the box is the answer, whatever a + b.
- B > 0 and a concave payoff (a, b, r > 0, a + b < 1): the interior
  stationary point when it lies in the box.
- B > 0 otherwise: the best of the four box edges' candidates, priced
  in columns.

A column gives each row the floats that the scalar rule gives it on
Python floats. numpy does only the correctly rounded operations (+, -,
*, /, comparisons and selections), which round as Python's do; every
exp and pow goes through Python's math.exp, math.pow or ** element by
element (libm), since numpy's own differ from libm by an ulp now and
then.

The seeded genetic algorithm best_response_ga is only a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .econ import (
    Economy,
    FirmParameters,
    FrozenMap,
    InvestmentDecision,
    PARAMETER_COLUMNS,
    POSITIVE,
    TransactionNetwork,
    check_numbers,
    customer_terms_sum,  # not called here; bench/tracing.py looks it up
    record_columns,
    shared_firm_ids,
    term_fixed,
)

# Genetic search settings of the test oracle best_response_ga.
GA_POPULATION = 64
GA_GENERATIONS = 200
GA_TOURNAMENT = 4
GA_MUTATION_SCALE = 0.05   # fraction of the log box width
GA_MUTATION_PROB = 0.25    # per-gene mutation probability
GA_CROSSOVER_PROB = 0.9
GA_ELITE = 1


@dataclass(frozen=True)
class GameConfig:
    """The decision box of the best-response search.

    decision_bounds are multiplicative: a firm with capital K may pick
    next-term capital in [lower * K, upper * K], same for labor.
    """

    decision_bounds: tuple[float, float] = (0.25, 4.0)

    def __post_init__(self) -> None:
        lo, hi = self.decision_bounds
        check_numbers((("decision_bounds low", POSITIVE),), (lo,))
        # float: a Fraction and a numpy scalar do not compare
        check_numbers((("decision_bounds high", (float(lo), False)),), (hi,))


@dataclass(frozen=True)
class PayoffContext:
    """Everything a firm needs to price a candidate decision.

    customer_terms is the precomputed sum of interaction terms over the
    firm's customers. It shifts the payoff by a constant and so does
    not change the best response.
    """

    revenue: float
    capital: float
    labor: float
    customer_terms: float
    params: FirmParameters


def _payoff(revenue, capital, labor, customer_terms, params: FirmParameters,
            next_capital, next_labor):
    """Next-term profit at the given inputs, noise at zero.

    revenue, capital and labor are the books on record. term_rule's
    arithmetic without the revenue floor, so the same body prices one
    decision (floats) and a whole GA population (numpy arrays).
    """
    growth, cost, charge = term_fixed(
        capital, labor, params.alpha, params.beta, params.cost_coeff,
        params.interest_rate, next_capital, next_labor)
    return revenue * (growth + customer_terms) - cost - charge - next_labor


def libm(fn, *columns) -> np.ndarray:
    """fn over float64 columns, element by element on Python floats.

    fn is math.exp, math.pow or pow (Python's **), so every value is
    libm's, the float that scalar code gets. An error raised on one
    element propagates as it would from scalar code.
    """
    return np.fromiter(map(fn, *[c.tolist() for c in columns]), dtype=float,
                       count=len(columns[0]))


def _pow_or_inf1(x: float, y: float) -> float:
    """math.pow(x, y), inf where it overflows."""
    try:
        return math.pow(x, y)
    except OverflowError:
        return math.inf


def _pow_or_inf(x, y) -> np.ndarray:
    """math.pow over columns, inf where it overflows."""
    try:
        return libm(math.pow, x, y)
    except OverflowError:
        return libm(_pow_or_inf1, x, y)


def _halves(x) -> tuple[np.ndarray, np.ndarray]:
    """The two halves of a column stacked from two."""
    m = len(x) // 2
    return x[:m], x[m:]


def _clip(x, lo, hi) -> np.ndarray:
    """min(max(x, lo), hi) as Python evaluates it, nan included."""
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def _less(x, y) -> np.ndarray:
    """x < y for (cost, K, L) triples of columns, as Python compares
    tuples: the first pair that differs decides."""
    (c, k, l), (c0, k0, l0) = x, y
    return np.where(c == c0, np.where(k == k0, l < l0, k < k0), c < c0)


class ParamColumns:
    """The parameters of a set of firms as float64 columns, one row per
    firm, with the best response's constants that depend on them alone.

    Built from the five columns in PARAMETER_COLUMNS order, such as the
    rows of an Economy's param_columns; ParamColumns.of reads
    FirmParameters records. concave marks the rows with alpha, beta,
    r > 0 and alpha + beta < 1. On those rows c = beta * r / alpha (L/K
    at the first-order point), c_beta = c ** beta and exponent =
    1 / (1 - alpha - beta); other rows hold stand-ins of 1.0 and c_beta
    1.0.
    """

    def __init__(self, alpha, beta, cost_coeff, interest_rate,
                 noise_sigma) -> None:
        self.alpha = a = alpha
        self.beta = b = beta
        self.cost_coeff = cost_coeff
        self.interest_rate = r = interest_rate
        self.noise_sigma = noise_sigma
        with np.errstate(all="ignore"):
            self.concave = (a > 0.0) & (b > 0.0) & (r > 0.0) & (a + b < 1.0)
            self.c = np.where(self.concave, b * r / a, 1.0)
            # c may overflow to inf but its power cannot raise: beta < 1
            self.c_beta = libm(pow, self.c, b)
            self.exponent = np.where(self.concave, 1.0 / (1.0 - a - b), 1.0)

    @classmethod
    def of(cls, params) -> "ParamColumns":
        """The columns of FirmParameters records, a row per record."""
        return cls(*record_columns(params, PARAMETER_COLUMNS))


def best_input_columns(revenue, capital, labor, params: ParamColumns,
                       bounds: tuple[float, float] = GameConfig.decision_bounds,
                       powers=None) -> tuple[np.ndarray, np.ndarray]:
    """Exact argmax (K', L') of the payoff over the decision box, per row.

    revenue, capital and labor are float64 columns of the books on
    record, params the same firms' parameters, and bounds the
    multiplicative box. The payoff is the constant minus the cost
    r*K + L - B*K^alpha*L^beta, where B = revenue / (K^alpha * L^beta)
    - cost_coeff is the net output coefficient, and each edge's payoff
    is B*other*x^gamma - w*x + const (_edges).

    - B <= 0: the payoff is non-increasing in capital and strictly
      decreasing in labor, so the lower corner, for any alpha + beta.
    - alpha, beta, r > 0 and alpha + beta < 1 (params.concave): the
      cost is strictly convex, and the unconstrained optimum (k*, l*)
      is the answer when it lies in the box.
    - Any other row: the best of the candidates of the four box edges,
      at most eight (_edges). For alpha + beta >= 1 the payoff is
      convex along every ray from the origin, so the peak is on the
      boundary; a concave row whose optimum lies outside the box peaks
      on one of its edges, each with one candidate.

    The candidates are priced by the cost without the constant and
    picked as min over (cost, K, L) tuples picks: ties break toward
    smaller capital, then smaller labor. Every row gets the floats
    the scalar rule gives it alone (see the module docstring);
    math.pow's overflow on (k*, l*) or an edge's first-order point
    reads inf, and every other error propagates as from scalar code,
    ** overflow as OverflowError and a zero K^alpha * L^beta as
    ZeroDivisionError. The result is not validated;
    best_response_closed_form and nash_solve do that. A caller that
    holds capital ** alpha and labor ** beta already passes them as
    powers.
    """
    with np.errstate(all="ignore"):
        a, b, r = params.alpha, params.beta, params.interest_rate
        if powers is None:
            powers = _halves(libm(pow, np.concatenate((capital, labor)),
                                  np.concatenate((a, b))))
        level = powers[0] * powers[1]
        if not level.all():
            raise ZeroDivisionError("float division by zero")
        B = revenue / level - params.cost_coeff
        lo, hi = bounds
        k_lo, k_hi, l_lo, l_hi = lo * capital, hi * capital, lo * labor, hi * labor
        live = ~(B <= 0.0)
        # the unconstrained optimum; rows outside the concave regime
        # compute on stand-ins of 1.0, which cannot raise
        concave = live & params.concave
        c = params.c
        base = a * B * params.c_beta / r
        # near a + b = 1 the point can pass float range, and every box
        k_star = _pow_or_inf(np.where(concave, base, 1.0), params.exponent)
        l_star = c * k_star
        k_in = (k_lo <= k_star) & (k_star <= k_hi)
        l_in = (l_lo <= l_star) & (l_star <= l_hi)
        interior = concave & k_in & l_in
        # the lower corner, the answer where B <= 0; _edges overwrites
        # the other live rows
        k = np.where(interior, k_star, k_lo)
        l = np.where(interior, l_star, l_lo)
        e = (live & ~interior).nonzero()[0]
        if e.size:
            k[e], l[e] = _edges(a[e], b[e], r[e], B[e], k_lo[e], k_hi[e],
                                l_lo[e], l_hi[e], params.concave[e].all())
    return k, l


def _edges(a, b, r, B, k_lo, k_hi, l_lo, l_hi, concave):
    """The best of the four box edges' candidates per row, in columns,
    as (K', L').

    Along an edge the payoff is B*other*x^gamma - w*x + const in the
    free input x, lo <= x <= hi: the L-edges at K = k_lo, then k_hi
    (gamma = beta, w = 1), then the K-edges at L = l_lo, then l_hi
    (gamma = alpha, w = r). An edge's candidates are lo if gamma = 0;
    otherwise hi if w = 0; otherwise lo then hi if gamma >= 1;
    otherwise the first-order point clipped to the edge, hi where
    math.pow overflows. concave says every row is, so that each edge
    takes its first-order point. The candidates are taken edge by edge
    in that order, with a second slot per edge only when some edge has
    two candidates; an edge with one repeats it there, which cannot
    move a min fold. _less folds their prices as min folds (cost, K, L)
    tuples.
    """
    n, ones = len(a), np.ones_like(r)
    fixed = np.concatenate((k_lo, k_hi, l_lo, l_hi))
    gamma = np.concatenate((b, b, a, a))  # the free input's elasticity
    w = np.concatenate((ones, ones, r, r))
    lo = np.concatenate((l_lo, l_lo, k_lo, k_lo))
    hi = np.concatenate((l_hi, l_hi, k_hi, k_hi))
    fixed_pow = libm(pow, fixed, np.concatenate((a, a, b, b)))
    base = gamma * np.concatenate((B, B, B, B)) * fixed_pow / w
    exponent = 1.0 / (1.0 - gamma)
    if concave:
        slots = (_clip(_pow_or_inf(base, exponent), lo, hi),)
    else:
        flat = gamma == 0.0
        ends = ~flat & (w != 0.0) & (gamma >= 1.0)
        peak = ~(flat | ends) & (w != 0.0)
        # slots off the first-order rule compute on stand-ins of 1.0,
        # which cannot raise
        point = _pow_or_inf(np.where(peak, base, 1.0),
                            np.where(peak, exponent, 1.0))
        first = np.where(peak, _clip(point, lo, hi),
                         np.where(flat | ends, lo, hi))
        slots = (first, np.where(ends, hi, first)) if ends.any() else (first,)
    fixed, fixed_pow = fixed.reshape(4, n), fixed_pow.reshape(4, n)

    def priced(free):
        """The (cost, K', L') columns of free inputs, edge by edge."""
        free_pow = libm(pow, free, gamma).reshape(4, n)
        free = free.reshape(4, n)
        k = np.concatenate((fixed[:2], free[2:]))
        l = np.concatenate((free[:2], fixed[2:]))
        cost = (r * k + l - B * np.concatenate((fixed_pow[:2], free_pow[2:]))
                * np.concatenate((free_pow[:2], fixed_pow[2:])))
        return np.stack((cost, k, l), axis=1)

    best, *rest = [c for edge in zip(*map(priced, slots)) for c in edge]
    for candidate in rest:
        best = np.where(_less(candidate, best), candidate, best)
    return best[1], best[2]


def best_inputs(revenue: float, capital: float, labor: float,
                params: FirmParameters,
                bounds: tuple[float, float] = GameConfig.decision_bounds
                ) -> tuple[float, float]:
    """best_input_columns for one firm, as (K', L') floats."""
    k, l = best_input_columns(
        *(np.array([x], dtype=float) for x in (revenue, capital, labor)),
        ParamColumns.of([params]), bounds)
    return k.item(), l.item()


def best_response_closed_form(ctx: PayoffContext,
                              config: GameConfig = GameConfig()) -> InvestmentDecision:
    """best_inputs for a payoff context, as a validated decision."""
    return InvestmentDecision(*best_inputs(
        ctx.revenue, ctx.capital, ctx.labor, ctx.params,
        config.decision_bounds))


def best_response_ga(ctx: PayoffContext, config: GameConfig = GameConfig(),
                     seed: int = 0) -> InvestmentDecision:
    """Genetic-algorithm best response over the box; a test oracle only.

    Real-valued encoding of (log K, log L); tournament selection, blend
    crossover, Gaussian mutation scaled to the box width, elitism. The
    incumbent decision (hold current inputs) is seeded into the initial
    population, so the result never pays off worse than standing still.
    Same seed, same answer.
    """
    lo, hi = config.decision_bounds
    k_lo, k_hi, l_lo, l_hi = (lo * ctx.capital, hi * ctx.capital,
                              lo * ctx.labor, hi * ctx.labor)
    if k_lo == k_hi and l_lo == l_hi:
        return InvestmentDecision(k_lo, l_lo)
    rng = np.random.default_rng(seed)
    lo = np.log([k_lo, l_lo])
    hi = np.log([k_hi, l_hi])
    width = hi - lo
    sigma = GA_MUTATION_SCALE * width

    n = GA_POPULATION
    pop = lo + rng.random((n, 2)) * width
    pop[0] = np.log([ctx.capital, ctx.labor])  # incumbent
    np.clip(pop, lo, hi, out=pop)

    best_genome = None
    best_pay = -np.inf
    for _ in range(GA_GENERATIONS + 1):
        pay = _payoff(ctx.revenue, ctx.capital, ctx.labor, ctx.customer_terms,
                      ctx.params, np.exp(pop[:, 0]), np.exp(pop[:, 1]))
        # rank with deterministic tie-break: payoff desc, then K, then L
        order = np.lexsort((pop[:, 1], pop[:, 0], -pay))
        top = order[0]
        if (pay[top] > best_pay
                or (pay[top] == best_pay
                    and tuple(pop[top]) < tuple(best_genome))):
            best_pay = float(pay[top])
            best_genome = pop[top].copy()
        elite = pop[order[:GA_ELITE]]

        # tournament parents for the rest of the next generation
        n_children = n - GA_ELITE
        picks = rng.integers(0, n, size=(2 * n_children, GA_TOURNAMENT))
        winners = picks[np.arange(2 * n_children),
                        np.argmax(pay[picks], axis=1)]
        p1 = pop[winners[:n_children]]
        p2 = pop[winners[n_children:]]
        u = rng.random((n_children, 2))
        children = np.where(
            rng.random((n_children, 1)) < GA_CROSSOVER_PROB,
            u * p1 + (1.0 - u) * p2,
            p1,
        )
        mutate = rng.random((n_children, 2)) < GA_MUTATION_PROB
        children = children + mutate * rng.normal(0.0, 1.0, (n_children, 2)) * sigma
        np.clip(children, lo, hi, out=children)
        pop = np.vstack([elite, children])

    # exp(log(x)) can land an ulp outside the box; clamp it back in
    capital = min(max(float(np.exp(best_genome[0])), k_lo), k_hi)
    labor = min(max(float(np.exp(best_genome[1])), l_lo), l_hi)
    return InvestmentDecision(capital, labor)


@dataclass(frozen=True)
class NashResult:
    """Joint decisions of the investment game.

    decisions is read-only: a FrozenMap, which run_cascade's plan
    keeps by reference and matches with one identity check; dict() of
    it gives an editable copy.
    """

    decisions: FrozenMap


def nash_solve(economy: Economy, network: TransactionNetwork,
               gdp_growth: float) -> NashResult:
    """Joint best responses of every firm: the game's fixed point.

    Each firm's decision reads only its own books, so the game
    decouples and one best-response pass, a single best_input_columns
    call over the live firms, is the fixed point. network serves only
    to check the firm set. gdp_growth changes no result; it stays for
    callers that pass one.
    Result is independent of firm ordering. A firm flagged bankrupt
    gets no decision: it trades no more, and the cascade reads it as a
    dead customer. The decisions come read-only, in sorted firm order.
    """
    ids = shared_firm_ids(economy, network)
    live = (~economy.bankrupt).nonzero()[0]
    revenue, _, capital, labor, _ = economy.state_columns[:, live]
    k, l = best_input_columns(revenue, capital, labor, ParamColumns(
        *economy.param_columns[:, live]))
    decisions = FrozenMap(zip([ids[i] for i in live.tolist()],
                              map(InvestmentDecision, k.tolist(), l.tolist())))
    return NashResult(decisions=decisions)
