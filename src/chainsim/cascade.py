"""Chain-bankruptcy propagation over the transaction network.

A trigger firm is set bankrupt exogenously. Within one accounting
term, a live supplier of a bankrupt firm re-evaluates its end-of-term
equity with bankrupt customers contributing through the chosen policy;
a capital deficit marks the supplier bankrupt in the next generation.
Generations advance on a barrier until a round turns nobody, so the
result is independent of firm iteration order. Beginning equity and
decisions stay frozen for the whole cascade; the term never rolls over.

Frozen books make a supplier's evaluation a function of its customers'
bankrupt flags alone, so the cascade is driven by a frontier:
generation 1 evaluates the live suppliers of every firm already
bankrupt (the triggers and any firm flagged before the run), and each
later generation only the live suppliers of the firms that fell in the
one before. A supplier none of whose customers changed would get the
same numbers again. In the equity trace a firm that fell keeps the
generation in which it fell; a survivor carries generations_run, since
its last evaluation holds for every generation after it.
"""

from __future__ import annotations

import math
from collections.abc import Container, Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .econ import (
    Economy,
    InvestmentDecision,
    TransactionNetwork,
    ZERO_REVENUE,
    POLICIES,
    bankrupt_interaction,
    interaction_term,
    is_bankrupt,
    term_rule,
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
        if not (math.isfinite(self.gdp_growth) and self.gdp_growth > 0.0):
            raise ValueError(
                f"gdp_growth must be finite and > 0, got {self.gdp_growth!r}")
        cap = self.max_generations
        if cap is not None and (type(cap) is not int or cap < 0):  # no bools
            raise ValueError(
                f"max_generations must be None or an int >= 0, got {cap!r}")


class Evaluation(NamedTuple):
    """One supplier's re-evaluated books within the shocked term.

    An immutable record, and so also a tuple. baseline_profit is the
    same computation with the bankrupt-customer terms zeroed out; the
    survivor classification compares the two.
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

    # firms flagged before the run appear in neither bankrupt nor survivors
    bankrupt: dict[str, int]          # felled firm -> generation (triggers at 0)
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
                      config: CascadeConfig, generation: int,
                      bankrupt: Container[str]) -> Evaluation:
    """Recompute one live supplier's end-of-term equity from scratch.

    Customers in bankrupt enter through the policy, the others through
    their recorded growth ratios; the economy's own bankrupt flags are
    not read. Idempotent: depends only on bankrupt, the frozen decision
    and the frozen beginning equity.
    """
    st = economy.states[firm]
    p = economy.params[firm]
    shocked = 0.0
    baseline = 0.0
    for customer, k in network.customers_of(firm):
        if customer in bankrupt:
            shocked += bankrupt_interaction(k, config.gdp_growth, config.policy)
        else:
            term = interaction_term(k, economy.states[customer].growth_ratio,
                                    config.gdp_growth)
            shocked += term
            baseline += term
    books = (st.revenue, st.capital, st.labor, p,
             decision.capital, decision.labor)
    _, shocked_profit, _ = term_rule(*books, shocked)
    _, baseline_profit, _ = term_rule(*books, baseline)
    equity_end = st.equity + shocked_profit
    return Evaluation(firm, generation, st.equity, shocked_profit,
                      equity_end, baseline_profit, is_bankrupt(equity_end))


def propagate_step(economy: Economy, network: TransactionNetwork,
                   decisions: dict[str, InvestmentDecision],
                   config: CascadeConfig, generation: int,
                   frontier: Iterable[str],
                   bankrupt: Container[str]) -> dict[str, Evaluation]:
    """Evaluate every live supplier of a firm in the frontier.

    frontier holds the firms whose flags changed since the last
    generation; bankrupt holds every firm dead so far, frontier
    included. Returns the evaluations in firm order; bankrupt is not
    changed here, so the caller commits a whole generation at once.
    """
    exposed = sorted({
        supplier
        for f in frontier
        for supplier, _ in network.suppliers_of(f)
        if supplier not in bankrupt
    })
    return {firm: evaluate_supplier(firm, economy, network, decisions[firm],
                                    config, generation, bankrupt)
            for firm in exposed}


def run_cascade(economy: Economy, network: TransactionNetwork,
                config: CascadeConfig,
                decisions: dict[str, InvestmentDecision] | None = None,
                seed: int = 0) -> CascadeResult:
    """Run a full cascade scenario from the configured triggers.

    Decisions are frozen at the pre-shock fixed point of the investment
    game unless supplied by the caller (observed next-period inputs
    slot in here). The input economy is not mutated: the flags of the
    run live in a local set seeded with the triggers and the firms
    flagged before it. Generation 1 evaluates the live suppliers of all
    of those, each later generation the live suppliers of the firms
    that fell in the one before. Terminates after at most one
    generation per firm: every generation before the last turns at
    least one firm. When max_generations stops the run, the next
    generation is evaluated once, without committing it, and exhausted
    says whether it would have turned anyone. A survivor's trace entry
    carries generations_run; a fallen firm's, the generation it fell in.
    seed changes no result; it stays for callers that pass one.
    """
    for f in config.trigger_firms:
        if f not in economy.params:
            raise ValueError(f"unknown trigger firm {f!r}")
        if economy.states[f].bankrupt:
            raise ValueError(f"trigger firm {f!r} is already bankrupt")

    if decisions is None:
        decisions = nash_solve(economy, network, config.gdp_growth).decisions

    bankrupt = {f: 0 for f in config.trigger_firms}
    frontier = {f for f, st in economy.states.items() if st.bankrupt}
    frontier.update(bankrupt)
    dead = set(frontier)

    cap = config.max_generations
    if cap is None:
        cap = len(economy.params)
    trace: dict[str, Evaluation] = {}
    generations_run = 0
    exhausted = False
    for generation in range(1, cap + 1):
        evaluations = propagate_step(economy, network, decisions, config,
                                     generation, frontier, dead)
        generations_run = generation
        trace.update(evaluations)
        frontier = [f for f, ev in evaluations.items() if ev.went_bankrupt]
        if not frontier:
            break
        dead.update(frontier)
        for f in frontier:
            bankrupt[f] = generation
    else:
        ahead = propagate_step(economy, network, decisions, config, cap + 1,
                               frontier, dead)
        exhausted = any(ev.went_bankrupt for ev in ahead.values())

    survivors = dict.fromkeys(economy.firm_ids, REASON_NOT_REACHED)
    for f in dead:
        del survivors[f]
    for f, ev in list(trace.items()):
        if f in dead:
            continue
        survivors[f] = _survivor_reason(ev)
        if ev.generation != generations_run:
            trace[f] = ev._replace(generation=generations_run)
    return CascadeResult(bankrupt=bankrupt, survivors=survivors,
                         equity_trace=trace, generations_run=generations_run,
                         exhausted=exhausted)
