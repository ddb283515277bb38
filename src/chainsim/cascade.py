"""Chain-bankruptcy propagation over the transaction network.

A trigger firm is set bankrupt exogenously. Within one accounting
term, every live supplier of a bankrupt firm re-evaluates its
end-of-term equity with bankrupt customers contributing through the
chosen policy; a capital deficit marks the supplier bankrupt in the
next generation. Generations advance on a barrier until a round turns
nobody, so the result is independent of firm iteration order.
Beginning equity and decisions stay frozen for the whole cascade; the
term never rolls over.
"""

from __future__ import annotations

from dataclasses import dataclass

from .econ import (
    Economy,
    InvestmentDecision,
    TransactionNetwork,
    ZERO_REVENUE,
    POLICIES,
    bankrupt_interaction,
    equity_end_of_term,
    floor_revenue,
    interaction_term,
    is_bankrupt,
    material_cost,
    production_ratio,
    profit,
    revenue_next,
)
from .game import nash_solve

# Why a live supplier of a dead customer did not go under.
REASON_EQUITY = "equity-sufficient"
REASON_WEAK_LINK = "link-too-weak"
# Firms the cascade never had cause to evaluate.
REASON_NOT_REACHED = "not-reached"


@dataclass(frozen=True)
class CascadeConfig:
    """Scenario settings for one cascade run."""

    trigger_firms: tuple[str, ...]
    gdp_growth: float = 1.0            # growth ratio entering the coupling terms
    policy: str = ZERO_REVENUE
    max_generations: int | None = None  # None: one per firm

    def __post_init__(self) -> None:
        object.__setattr__(self, "trigger_firms",
                           tuple(self.trigger_firms))
        if not self.trigger_firms:
            raise ValueError("need at least one trigger firm")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if self.gdp_growth <= 0.0:
            raise ValueError("gdp_growth must be > 0")


@dataclass(frozen=True)
class Evaluation:
    """One supplier's re-evaluated books within the shocked term.

    baseline_profit is the same computation with the bankrupt-customer
    terms zeroed out; the survivor classification compares the two.
    """

    firm: str
    generation: int
    equity_begin: float
    term_profit: float
    equity_end: float
    baseline_profit: float
    went_bankrupt: bool


@dataclass(frozen=True)
class CascadeResult:
    """Outcome of a cascade scenario."""

    bankrupt: dict[str, int]          # firm -> generation (triggers at 0)
    survivors: dict[str, str]         # live firm -> stop reason
    equity_trace: dict[str, Evaluation]
    generations_run: int
    exhausted: bool                   # True when the cap cut off a live cascade

    @property
    def bankrupt_set(self) -> frozenset[str]:
        return frozenset(self.bankrupt)


def _survivor_reason(ev: Evaluation) -> str:
    # The shock matters only if zeroing the bankrupt-customer terms
    # flips the sign of the term's operating result; equity then gets
    # credit for absorbing it. Otherwise the link carried too little.
    if ev.term_profit < 0.0 <= ev.baseline_profit:
        return REASON_EQUITY
    return REASON_WEAK_LINK


def evaluate_supplier(firm: str, economy: Economy,
                      network: TransactionNetwork,
                      decision: InvestmentDecision,
                      config: CascadeConfig, generation: int) -> Evaluation:
    """Recompute one live supplier's end-of-term equity from scratch.

    Live customers enter through their recorded growth ratios, bankrupt
    ones through the policy. Idempotent: depends only on the current
    bankrupt flags, the frozen decision and the frozen beginning
    equity.
    """
    st = economy.states[firm]
    p = economy.params[firm]
    shocked = 0.0
    baseline = 0.0
    for customer, k in network.customers_of(firm):
        cust = economy.states[customer]
        if cust.bankrupt:
            shocked += bankrupt_interaction(k, config.gdp_growth, config.policy)
        else:
            term = interaction_term(k, cust.growth_ratio, config.gdp_growth)
            shocked += term
            baseline += term
    growth = production_ratio(decision, st, p.alpha, p.beta)
    cost = material_cost(p.cost_coeff, decision, p.alpha, p.beta)

    def term_profit(terms: float) -> float:
        raw = revenue_next(st.revenue, growth, terms)
        rev, _ = floor_revenue(raw, st.revenue)
        return profit(rev, cost, p.interest_rate, decision)

    shocked_profit = term_profit(shocked)
    equity_end = equity_end_of_term(st.equity, shocked_profit)
    return Evaluation(
        firm=firm,
        generation=generation,
        equity_begin=st.equity,
        term_profit=shocked_profit,
        equity_end=equity_end,
        baseline_profit=term_profit(baseline),
        went_bankrupt=is_bankrupt(equity_end),
    )


def propagate_step(economy: Economy, network: TransactionNetwork,
                   decisions: dict[str, InvestmentDecision],
                   config: CascadeConfig,
                   generation: int) -> dict[str, Evaluation]:
    """Evaluate every live supplier of a currently bankrupt firm.

    Returns the evaluations; flags are not changed here, so the caller
    commits a whole generation at once.
    """
    exposed = sorted({
        supplier
        for f, st in economy.states.items() if st.bankrupt
        for supplier, _ in network.suppliers_of(f)
        if not economy.states[supplier].bankrupt
    })
    return {firm: evaluate_supplier(firm, economy, network, decisions[firm],
                                    config, generation)
            for firm in exposed}


def run_cascade(economy: Economy, network: TransactionNetwork,
                config: CascadeConfig,
                decisions: dict[str, InvestmentDecision] | None = None,
                seed: int = 0) -> CascadeResult:
    """Run a full cascade scenario from the configured triggers.

    Decisions are frozen at the pre-shock fixed point of the investment
    game unless supplied by the caller (observed next-period inputs
    slot in here). The input economy is not mutated. Terminates after
    at most one generation per firm: every generation before the last
    turns at least one firm. When max_generations stops the run, the
    next generation is evaluated once, without committing it, and
    exhausted says whether it would have turned anyone.
    """
    for f in config.trigger_firms:
        if f not in economy.params:
            raise ValueError(f"unknown trigger firm {f!r}")
        if economy.states[f].bankrupt:
            raise ValueError(f"trigger firm {f!r} is already bankrupt")

    if decisions is None:
        decisions = nash_solve(economy, network, config.gdp_growth,
                               seed=seed, policy=config.policy).decisions

    work = Economy(params=economy.params, states=dict(economy.states))
    bankrupt: dict[str, int] = {}
    for f in config.trigger_firms:
        work.mark_bankrupt(f)
        bankrupt[f] = 0

    cap = config.max_generations
    if cap is None:
        cap = len(work.params)
    trace: dict[str, Evaluation] = {}
    generations_run = 0
    exhausted = False
    for generation in range(1, cap + 1):
        evaluations = propagate_step(work, network, decisions, config,
                                     generation)
        generations_run = generation
        trace.update(evaluations)
        newly = sorted(f for f, ev in evaluations.items() if ev.went_bankrupt)
        if not newly:
            break
        for f in newly:
            work.mark_bankrupt(f)
            bankrupt[f] = generation
    else:
        ahead = propagate_step(work, network, decisions, config, cap + 1)
        exhausted = any(ev.went_bankrupt for ev in ahead.values())

    survivors = {}
    for f in work.firm_ids:
        if f in bankrupt:
            continue
        if f in trace:
            survivors[f] = _survivor_reason(trace[f])
        else:
            survivors[f] = REASON_NOT_REACHED
    return CascadeResult(bankrupt=bankrupt, survivors=survivors,
                         equity_trace=trace, generations_run=generations_run,
                         exhausted=exhausted)
