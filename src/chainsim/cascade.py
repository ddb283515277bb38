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

Frozen books also fix every number of an evaluation but the flags. A
CascadePlan prices them once per supplier, so an evaluation only sums
its customers' live or dead terms and calls econ.term_close.
run_cascade keeps one plan per network, weakly keyed, while its inputs
stay the same objects.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Container, Iterable, Mapping
from dataclasses import dataclass
from functools import partial
from operator import is_
from typing import NamedTuple

from .econ import (
    Economy,
    InvestmentDecision,
    TransactionNetwork,
    ZERO_REVENUE,
    POLICIES,
    bankrupt_interaction,
    csr_row,
    interaction_term,
    is_bankrupt,
    shared_firm_ids,
    term_close,
    term_fixed,
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
        triggers = self.trigger_firms
        if isinstance(triggers, str):  # one id, not a sequence of them
            raise ValueError(
                f"trigger_firms must be a sequence of ids, got {triggers!r}")
        triggers = tuple(triggers)
        object.__setattr__(self, "trigger_firms", triggers)
        if not triggers:
            raise ValueError("need at least one trigger firm")
        if not all(isinstance(f, str) for f in triggers):
            raise ValueError(
                f"trigger firm ids must be strings, got {triggers!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        g = self.gdp_growth
        if not (isinstance(g, (int, float)) and not isinstance(g, bool)
                and math.isfinite(g) and g > 0.0):
            raise ValueError(f"gdp_growth must be finite and > 0, got {g!r}")
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


# Evaluation from a tuple of its seven fields, without the Python frame
# of the generated __new__: the cascade builds one per evaluation.
_record = partial(tuple.__new__, Evaluation)


def _survivor_reason(ev: Evaluation) -> str:
    # The shock matters only if zeroing the bankrupt-customer terms
    # flips the sign of the term's operating result; equity then gets
    # credit for absorbing it. Otherwise the link carried too little.
    if ev.term_profit < 0.0 <= ev.baseline_profit:
        return REASON_EQUITY
    return REASON_WEAK_LINK


class CascadePlan:
    """What frozen decisions fix, for one (economy, network, decisions,
    gdp_growth, policy).

    Refuses decisions that lack a live firm of the economy, naming the
    first one; a flagged firm needs none. Holds copies of the three
    maps, the flagged firms, the survivor template and the network's
    firms, index and CSR tables, but not the network. price(firm), on
    first use, fills books[firm]: term_close's first five arguments,
    the beginning equity and one (customer, live term, dead term) per
    customer in customers_of order. A flagged customer, dead in every
    run, has no live term.
    """

    def __init__(self, economy: Economy, network: TransactionNetwork,
                 decisions: Mapping[str, InvestmentDecision],
                 gdp_growth: float, policy: str) -> None:
        ids = shared_firm_ids(economy, network)
        missing = next((f for f in ids if f not in decisions
                        and not economy.states[f].bankrupt), None)
        if missing is not None:
            raise ValueError(f"decisions lack firm {missing!r}")
        self.states = dict(economy.states)
        self.params = dict(economy.params)
        self.decisions = dict(decisions)
        self.gdp_growth = gdp_growth
        self.policy = policy
        self.flagged = frozenset(
            f for f, st in self.states.items() if st.bankrupt)
        self.survivors = dict.fromkeys(ids, REASON_NOT_REACHED)
        self.firms, self.index = network.firms, network.index
        self.customers, self.suppliers = network.customers, network.suppliers
        self.books: dict[str, tuple] = {}
        self._keys = tuple(map(tuple, (self.states, self.params,
                                       self.decisions)))

    def matches(self, economy: Economy,
                decisions: Mapping[str, InvestmentDecision],
                gdp_growth: float, policy: str) -> bool:
        """True while the maps hold equal keys in order and the very
        value objects the plan was built from, and the scalars are the
        same objects."""
        if gdp_growth is not self.gdp_growth or policy is not self.policy:
            return False
        held = (self.states, self.params, self.decisions)
        given = (economy.states, economy.params, decisions)
        for keys, h, g in zip(self._keys, held, given):
            if keys != tuple(g) or not all(map(is_, h.values(), g.values())):
                return False
        return True

    def price(self, firm: str) -> tuple:
        """Price firm's frozen books into books[firm] and return them."""
        st = self.states[firm]
        dec = self.decisions[firm]
        growth, cost, capital_charge = term_fixed(
            st.capital, st.labor, self.params[firm], dec.capital, dec.labor)
        g, policy, states, flagged = (self.gdp_growth, self.policy,
                                      self.states, self.flagged)
        terms = tuple(
            (c,
             None if c in flagged
             else interaction_term(k, states[c].growth_ratio, g),
             bankrupt_interaction(k, g, policy))
            for c, k in csr_row(self.firms, self.customers, self.index[firm]))
        books = self.books[firm] = (st.revenue, growth, cost, capital_charge,
                                    dec.labor, st.equity, terms)
        return books


# One plan per network, dropped with it. A run keeps the plan it looked
# up, whose inputs are copies, so a rebuild by another run cannot mix.
_plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def evaluate_supplier(plan: CascadePlan, firm: str, generation: int,
                      dead: Container[str]) -> Evaluation:
    """One live supplier's end-of-term equity, from its planned books.

    Customers in dead enter through their dead terms, the others
    through their live terms; dead must hold every firm flagged in the
    plan. The terms are summed afresh, in customers_of order, for the
    shocked and the baseline sum. Idempotent: depends only on dead and
    the plan.
    """
    books = plan.books.get(firm)
    if books is None:
        books = plan.price(firm)
    revenue, growth, cost, capital_charge, labor, equity, terms = books
    shocked = 0.0
    baseline = 0.0
    for customer, live, lost in terms:
        if customer in dead:
            shocked += lost
        else:
            shocked += live
            baseline += live
    _, shocked_profit, _ = term_close(revenue, growth, cost, capital_charge,
                                      labor, shocked)
    _, baseline_profit, _ = term_close(revenue, growth, cost, capital_charge,
                                       labor, baseline)
    equity_end = equity + shocked_profit
    return _record((firm, generation, equity, shocked_profit, equity_end,
                    baseline_profit, is_bankrupt(equity_end)))


def propagate_step(plan: CascadePlan, generation: int,
                   frontier: Iterable[str],
                   dead: Container[str]) -> dict[str, Evaluation]:
    """Evaluate every live supplier of a firm in the frontier.

    frontier holds the firms whose flags changed since the last
    generation; dead holds every firm dead so far, frontier included.
    Returns the evaluations in firm order; dead is not changed here, so
    the caller commits a whole generation at once.
    """
    firms, index = plan.firms, plan.index
    offsets, positions, _ = plan.suppliers
    exposed = {firms[p] for i in map(index.__getitem__, frontier)
               for p in positions[offsets[i]:offsets[i + 1]]}
    return {firm: evaluate_supplier(plan, firm, generation, dead)
            for firm in sorted([s for s in exposed if s not in dead])}


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
    seed changes no result; it stays for callers that pass one. A firm
    flagged before the run needs no decision.

    The books come from a CascadePlan kept per network in a weak map,
    so it dies with the network. A call reuses the plan while its
    matches() holds and builds a new one otherwise, so any input may be
    edited in place between calls.
    """
    for f in config.trigger_firms:
        if f not in economy.params:
            raise ValueError(f"unknown trigger firm {f!r}")
        if economy.states[f].bankrupt:
            raise ValueError(f"trigger firm {f!r} is already bankrupt")

    if decisions is None:
        decisions = nash_solve(economy, network, config.gdp_growth).decisions
    plan = _plans.get(network)
    if plan is None or not plan.matches(economy, decisions, config.gdp_growth,
                                        config.policy):
        plan = _plans[network] = CascadePlan(
            economy, network, decisions, config.gdp_growth, config.policy)

    bankrupt = {f: 0 for f in config.trigger_firms}
    dead = set(plan.flagged)
    dead.update(bankrupt)
    frontier = tuple(dead)

    cap = config.max_generations
    if cap is None:
        cap = len(economy.params)
    trace: dict[str, Evaluation] = {}
    generations_run = 0
    exhausted = False
    for generation in range(1, cap + 1):
        evaluations = propagate_step(plan, generation, frontier, dead)
        generations_run = generation
        trace.update(evaluations)
        frontier = [f for f, ev in evaluations.items() if ev.went_bankrupt]
        if not frontier:
            break
        dead.update(frontier)
        for f in frontier:
            bankrupt[f] = generation
    else:
        ahead = propagate_step(plan, cap + 1, frontier, dead)
        exhausted = any(ev.went_bankrupt for ev in ahead.values())

    survivors = plan.survivors.copy()
    for f in dead:
        del survivors[f]
    for f, ev in list(trace.items()):
        if f in dead:
            continue
        survivors[f] = _survivor_reason(ev)
        if ev.generation != generations_run:
            trace[f] = _record((f, generations_run, *ev[2:]))
    return CascadeResult(bankrupt=bankrupt, survivors=survivors,
                         equity_trace=trace, generations_run=generations_run,
                         exhausted=exhausted)
