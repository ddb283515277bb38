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
- B > 0: the interior stationary point when a + b < 1 and it lies in
  the box; otherwise the best candidate on the box boundary.

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
import sys
from dataclasses import dataclass

import numpy as np

from .econ import (
    Economy,
    FirmParameters,
    FrozenMap,
    InvestmentDecision,
    POSITIVE,
    TransactionNetwork,
    check_numbers,
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
# best_input_columns' face rule: elasticities and 1 - alpha - beta at least
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
    growth, cost, charge = term_fixed(capital, labor, params,
                                      next_capital, next_labor)
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


def _peak(gamma, B, other, w, lo, hi) -> np.ndarray:
    """_edge's concave case (0 < gamma < 1, w > 0) over the face rule's
    columns: the clipped first-order point, hi where math.pow overflows."""
    return _clip(_pow_or_inf(gamma * B * other / w, 1.0 / (1.0 - gamma)),
                 lo, hi)


class ParamColumns:
    """FirmParameters of a set of firms as float64 columns, one row per
    firm, with the best response's constants that depend on them alone.

    concave marks the rows with alpha, beta, r > 0 and alpha + beta < 1.
    On those rows c = beta * r / alpha (L/K at the first-order point),
    c_beta = c ** beta and exponent = 1 / (1 - alpha - beta); other rows
    hold stand-ins of 1.0 and c_beta 1.0. steep marks the concave rows
    whose alpha, beta and 1 - alpha - beta are at least _FLAT and whose
    c is a normal float, below inf.
    """

    def __init__(self, params) -> None:
        params = list(params)
        self.alpha = a = np.array([p.alpha for p in params], dtype=float)
        self.beta = b = np.array([p.beta for p in params], dtype=float)
        self.cost_coeff = np.array([p.cost_coeff for p in params], dtype=float)
        self.interest_rate = r = np.array([p.interest_rate for p in params],
                                          dtype=float)
        self.noise_sigma = np.array([p.noise_sigma for p in params], dtype=float)
        with np.errstate(all="ignore"):
            s = a + b
            self.concave = (a > 0.0) & (b > 0.0) & (r > 0.0) & (s < 1.0)
            self.c = np.where(self.concave, b * r / a, 1.0)
            # c may overflow to inf but its power cannot raise: beta < 1
            self.c_beta = libm(pow, self.c, b)
            self.exponent = np.where(self.concave, 1.0 / (1.0 - a - b), 1.0)
            self.steep = (self.concave & (a >= _FLAT) & (b >= _FLAT)
                          & (s <= 1.0 - _FLAT) & (_NORMAL <= self.c)
                          & (self.c < math.inf))


def best_input_columns(revenue, capital, labor, params: ParamColumns,
                       bounds: tuple[float, float] = GameConfig.decision_bounds,
                       powers=None) -> tuple[np.ndarray, np.ndarray]:
    """Exact argmax (K', L') of the payoff over the decision box, per row.

    revenue, capital and labor are float64 columns of the books on
    record, params the same firms' parameters, and bounds the
    multiplicative box. The payoff is the constant minus the cost
    r*K + L - B*K^alpha*L^beta, where B = revenue / (K^alpha * L^beta)
    - cost_coeff is the net output coefficient, and each edge's payoff
    is B*other*x^gamma - w*x + const (_edge).

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
      boundary). It runs row by row on Python floats (_all_edges): it
      gets 1 to 5 rows a call, too few to pay for a pass over columns.

    Candidates are priced by the cost without the constant; ties break
    toward smaller capital, then smaller labor, as min over (cost, K,
    L) tuples breaks them. Each rule runs on the rows it answers, and
    every row gets the floats the rule gives it alone (see the module
    docstring); math.pow's overflow on (k*, l*) or an edge's
    first-order point reads inf, and every other error propagates as
    from scalar code, ** overflow as OverflowError and a zero K^alpha *
    L^beta as ZeroDivisionError. The result is not validated;
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
        # the lower corner, the answer where B <= 0; the face rule and
        # the fallback overwrite the other rows
        k = np.where(interior, k_star, k_lo)
        l = np.where(interior, l_star, l_lo)
        # nothing under- or overflowed on the way to (k*, l*)
        least = np.minimum(np.minimum(base, k_star), l_star)
        most = np.maximum(np.maximum(base, k_star), l_star)
        trusted = (live & params.steep & ~interior & (_NORMAL <= least)
                   & (most < math.inf))
        rest = live & ~interior
        t = trusted.nonzero()[0]
        if t.size:
            ok, k_face, l_face = _face_rule(
                a[t], b[t], r[t], B[t], k_lo[t], k_hi[t], l_lo[t], l_hi[t],
                k_star[t], l_star[t], k_in[t], l_in[t])
            k[t[ok]], l[t[ok]] = k_face[ok], l_face[ok]
            rest[t[ok]] = False
        f = rest.nonzero()[0]
        if f.size:
            k[f], l[f] = _all_edges(a[f], b[f], r[f], B[f], k_lo[f], k_hi[f],
                                    l_lo[f], l_hi[f])
    return k, l


def _face_rule(a, b, r, B, k_lo, k_hi, l_lo, l_hi, k_star, l_star, k_in, l_in):
    """best_input_columns' face rule on rows that satisfy its bounds.

    Returns (ok, K', L'): ok marks the rows the rule answers, where no
    candidate lies within _NEAR of a face that gets none. Both faces'
    candidates are computed on every row, stacked K-face over L-face;
    with alpha, beta < 1 and a finite box none of their powers can raise.
    """
    # one candidate per face: the edges are concave and r > 0
    k_face = np.where(k_star < k_lo, k_lo, k_hi)
    l_face = np.where(l_star < l_lo, l_lo, l_hi)
    others = libm(pow, np.concatenate((k_face, l_face)), np.concatenate((a, b)))
    free = _peak(np.concatenate((b, a)), np.concatenate((B, B)), others,
                 np.concatenate((np.ones_like(r), r)),
                 np.concatenate((l_lo, k_lo)), np.concatenate((l_hi, k_hi)))
    l_on_k, k_on_l = _halves(free)
    k_face_a, l_face_b = _halves(others)
    # near a face that gets no candidate, a candidate may price the
    # same as that face's candidate to rounding
    ok = ((k_in | (((l_star < l_lo) | (l_on_k > (1.0 + _NEAR) * l_lo))
                   & ((l_star > l_hi) | (l_on_k < (1.0 - _NEAR) * l_hi))))
          & (l_in | (((k_star < k_lo) | (k_on_l > (1.0 + _NEAR) * k_lo))
                     & ((k_star > k_hi) | (k_on_l < (1.0 - _NEAR) * k_hi)))))
    # two violated faces: the K-face candidate, unless the L-face one
    # prices lower
    l_on_k_b, k_on_l_a = _halves(libm(pow, free, np.concatenate((b, a))))
    on_k = (r * k_face + l_on_k - B * k_face_a * l_on_k_b, k_face, l_on_k)
    on_l = (r * k_on_l + l_face - B * k_on_l_a * l_face_b, k_on_l, l_face)
    take_l = k_in | (~l_in & _less(on_l, on_k))
    return (ok, np.where(take_l, k_on_l, k_face),
            np.where(take_l, l_face, l_on_k))


def _edge(gamma, B, other, w, lo, hi) -> tuple[float, ...]:
    """Where B*other*x^gamma - w*x peaks over lo <= x <= hi, B, other > 0:
    lo if gamma = 0, hi if w = 0, both ends if gamma >= 1, else _peak's."""
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


def _all_edges(a, b, r, B, k_lo, k_hi, l_lo, l_hi):
    """The best of the candidates of all four box edges, as (K', L').

    Row by row on Python floats: the L-edges at K = k_lo, then k_hi,
    then the K-edges at L = l_lo, then l_hi give the candidates, and
    Python's min over their (cost, K, L) tuples picks.
    """
    best = []
    for a, b, r, B, k_lo, k_hi, l_lo, l_hi in zip(*(
            x.tolist() for x in (a, b, r, B, k_lo, k_hi, l_lo, l_hi))):
        candidates = [(k, l) for k in (k_lo, k_hi)
                      for l in _edge(b, B, k ** a, 1.0, l_lo, l_hi)]
        candidates += [(k, l) for l in (l_lo, l_hi)
                       for k in _edge(a, B, l ** b, r, k_lo, k_hi)]
        best.append(min((r * k + l - B * k ** a * l ** b, k, l)
                        for k, l in candidates)[1:])
    return tuple(zip(*best))


def best_inputs(revenue: float, capital: float, labor: float,
                params: FirmParameters,
                bounds: tuple[float, float] = GameConfig.decision_bounds
                ) -> tuple[float, float]:
    """best_input_columns for one firm, as (K', L') floats."""
    k, l = best_input_columns(
        *(np.array([x], dtype=float) for x in (revenue, capital, labor)),
        ParamColumns([params]), bounds)
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
    it gives an editable copy. converged is true by construction:
    decisions read only each firm's own books, so one best-response
    pass is already the fixed point.
    """

    decisions: FrozenMap
    converged: bool


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
    ids = [f for f in shared_firm_ids(economy, network)
           if not economy.states[f].bankrupt]
    states = [economy.states[f] for f in ids]
    k, l = best_input_columns(
        np.array([st.revenue for st in states], dtype=float),
        np.array([st.capital for st in states], dtype=float),
        np.array([st.labor for st in states], dtype=float),
        ParamColumns(economy.params[f] for f in ids))
    decisions = FrozenMap(
        zip(ids, map(InvestmentDecision, k.tolist(), l.tolist())))
    return NashResult(decisions=decisions, converged=True)
