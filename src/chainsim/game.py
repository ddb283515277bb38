"""Investment game: each firm picks next-term capital and labor to
maximize next-term profit, holding everyone else's books fixed.

The payoff is next-term profit with the noise term at zero,
B*K^a*L^b - r*K - L + const, where B is the net output coefficient.
The customer terms enter only the constant, revenue * customer_terms,
so a decision reads the firm's own books alone. Decisions are searched
inside a multiplicative box around the firm's current inputs.
best_inputs is exact everywhere, on plain floats; the simulator calls
it directly, and best_response_closed_form wraps it for a
PayoffContext:

- B <= 0 (cost-dominated): the payoff does not rise in either input,
  so the lower corner of the box is the answer, whatever a + b.
- B > 0: the interior stationary point when a + b < 1 and it lies in
  the box; otherwise the best candidate on the box boundary.

The seeded genetic algorithm best_response_ga is only a test oracle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .econ import (
    Economy,
    FirmParameters,
    InvestmentDecision,
    TransactionNetwork,
    customer_terms_sum,  # not called here; bench/tracing.py looks it up
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

_NORMAL = sys.float_info.min  # the least positive normal float
# best_inputs' face rule: elasticities and 1 - alpha - beta at least
# _FLAT, and every free coordinate at least _NEAR (relative) from a face
# that gets no candidate; see its docstring
_FLAT = 1e-3
_NEAR = 1e-2


@dataclass(frozen=True)
class GameConfig:
    """The decision box of the best-response search.

    decision_bounds are multiplicative: a firm with capital K may pick
    next-term capital in [lower * K, upper * K], same for labor.
    """

    decision_bounds: tuple[float, float] = (0.25, 4.0)

    def __post_init__(self) -> None:
        lo, hi = self.decision_bounds
        if not (0.0 < lo <= hi):
            raise ValueError(f"bad decision_bounds {self.decision_bounds!r}")


@dataclass(frozen=True)
class PayoffContext:
    """Everything a firm needs to price a candidate decision.

    customer_terms is the precomputed sum of interaction terms over the
    firm's customers. It shifts expected_payoff by a constant and so
    does not change the best response.
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
    growth, cost, charge = term_fixed(capital, labor, params,
                                      next_capital, next_labor)
    return revenue * (growth + customer_terms) - cost - charge - next_labor


def expected_payoff(ctx: PayoffContext, decision: InvestmentDecision) -> float:
    """Next-term profit of a candidate decision, noise at zero."""
    return _payoff(ctx.revenue, ctx.capital, ctx.labor, ctx.customer_terms,
                   ctx.params, decision.capital, decision.labor)


def _edge_candidates(gamma: float, B: float, other: float, w: float,
                     lo: float, hi: float) -> tuple[float, ...]:
    """Where B*other*x^gamma - w*x peaks over lo <= x <= hi, B, other > 0.

    gamma = 0: the low end; w = 0: the high end; 0 < gamma < 1
    (concave): the clipped first-order point, the high end if it
    overflows, so one candidate whenever w > 0; gamma >= 1 (convex):
    both endpoints.
    """
    if gamma == 0.0:
        return (lo,)
    if w == 0.0:
        return (hi,)
    if gamma >= 1.0:
        return (lo, hi)
    try:
        x = math.pow(gamma * B * other / w, 1.0 / (1.0 - gamma))
    except OverflowError:
        return (hi,)
    return (min(max(x, lo), hi),)


def best_inputs(revenue: float, capital: float, labor: float,
                params: FirmParameters,
                bounds: tuple[float, float] = GameConfig.decision_bounds
                ) -> tuple[float, float]:
    """Exact argmax (K', L') of the payoff over the decision box.

    revenue, capital and labor are the books on record and bounds the
    multiplicative box. The payoff is the constant minus the cost
    r*K + L - B*K^alpha*L^beta, where B = revenue / (K^alpha * L^beta)
    - cost_coeff is the net output coefficient, and each edge's payoff
    is B*other*x^gamma - w*x + const (_edge_candidates).

    - B <= 0: the payoff is non-increasing in capital and strictly
      decreasing in labor, so the lower corner, for any alpha + beta.
    - alpha, beta, r > 0 and alpha + beta < 1: the cost is strictly
      convex, and the unconstrained optimum (k*, l*) is the answer when
      it lies in the box. Otherwise the box optimum lies on a face that
      (k*, l*) violates: were it only on faces that (k*, l*) satisfies,
      a step toward (k*, l*) would stay in the box and lower the cost.
      So only the violated K-face and L-face get a candidate each: one
      is the answer unpriced, two are priced against each other.
    - The face rule returns the point that pricing every edge returns,
      save where another candidate prices the same to rounding and the
      tie-break picks that one. So it runs only where the cost is far
      from flat near its answer: alpha, beta and 1 - alpha - beta are at
      least _FLAT = 1e-3, nothing under- or overflowed on the way to
      (k*, l*), and each candidate's free coordinate lies more than
      _NEAR = 1e-2 (relative) from every face that gets no candidate.
      Any other candidate then prices above the answer by a clear
      margin. Elsewhere, which includes boxes narrower than _NEAR
      and a candidate clipped to a face that gets none, the next rule
      applies.
    - Any other regime (alpha + beta >= 1, alpha = 0, beta = 0, r = 0,
      or outside the face rule's bounds): the best of the candidates of
      all four edges, at most eight (for alpha + beta >= 1 the payoff is
      convex along every ray from the origin, so the peak is on the
      boundary).

    Candidates are priced by the cost without the constant; ties break
    toward smaller capital, then smaller labor. The result is not
    validated; best_response_closed_form does that.
    """
    a, b, r = params.alpha, params.beta, params.interest_rate
    B = revenue / (capital ** a * labor ** b) - params.cost_coeff
    lo, hi = bounds
    k_lo, k_hi, l_lo, l_hi = lo * capital, hi * capital, lo * labor, hi * labor
    if B <= 0.0:
        return k_lo, l_lo
    trusted = False
    if a > 0.0 and b > 0.0 and r > 0.0 and a + b < 1.0:
        c = b * r / a
        base = a * B * c ** b / r
        # near a + b = 1 the point can pass float range, and every box;
        # math.pow raises there for numpy scalars too, where ** warns
        try:
            k_star = math.pow(base, 1.0 / (1.0 - a - b))
        except OverflowError:
            k_star = math.inf
        l_star = c * k_star
        k_in = k_lo <= k_star <= k_hi
        l_in = l_lo <= l_star <= l_hi
        if k_in and l_in:
            return k_star, l_star
        trusted = (a >= _FLAT and b >= _FLAT and a + b <= 1.0 - _FLAT
                   and _NORMAL <= c < math.inf
                   and _NORMAL <= base < math.inf
                   and _NORMAL <= k_star < math.inf
                   and _NORMAL <= l_star < math.inf)
    if trusted:
        # one candidate per violated face: the edges are concave and r > 0
        candidates = []
        if not k_in:
            k = k_lo if k_star < k_lo else k_hi
            l, = _edge_candidates(b, B, k ** a, 1.0, l_lo, l_hi)
            candidates.append((k, l))
            # near a face that gets no candidate, l may price the same
            # as that face's candidate to rounding
            trusted = ((l_star < l_lo or l > (1.0 + _NEAR) * l_lo)
                       and (l_star > l_hi or l < (1.0 - _NEAR) * l_hi))
        if not l_in:
            l = l_lo if l_star < l_lo else l_hi
            k, = _edge_candidates(a, B, l ** b, r, k_lo, k_hi)
            candidates.append((k, l))
            trusted = trusted and ((k_star < k_lo or k > (1.0 + _NEAR) * k_lo)
                                   and (k_star > k_hi or k < (1.0 - _NEAR) * k_hi))
        if trusted and len(candidates) == 1:
            return candidates[0]
    if not trusted:
        candidates = [(k, l) for k in (k_lo, k_hi)
                      for l in _edge_candidates(b, B, k ** a, 1.0, l_lo, l_hi)]
        candidates += [(k, l) for l in (l_lo, l_hi)
                       for k in _edge_candidates(a, B, l ** b, r, k_lo, k_hi)]
    # (-payoff + const, K, L) per candidate: the least is the best, ties
    # broken toward smaller capital, then smaller labor
    return min((r * k + l - B * k ** a * l ** b, k, l)
               for k, l in candidates)[1:]


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

    converged is true by construction: decisions read only each firm's
    own books, so one best-response pass is already the fixed point.
    """

    decisions: dict[str, InvestmentDecision]
    converged: bool


def nash_solve(economy: Economy, network: TransactionNetwork,
               gdp_growth: float) -> NashResult:
    """Joint best responses of every firm: the game's fixed point.

    Each firm's decision reads only its own books, so the game
    decouples and one best-response pass per firm is the fixed point.
    network serves only to check the firm set. gdp_growth changes no
    result; it stays for callers that pass one.
    Result is independent of firm ordering. A firm flagged bankrupt
    gets no decision: it trades no more, and the cascade reads it as a
    dead customer.
    """
    decisions = {}
    for f in shared_firm_ids(economy, network):
        st = economy.states[f]
        if st.bankrupt:
            continue
        decisions[f] = InvestmentDecision(*best_inputs(
            st.revenue, st.capital, st.labor, economy.params[f]))
    return NashResult(decisions=decisions, converged=True)
