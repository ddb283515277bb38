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
CascadePlan prices them once per supplier, indexed by the network's
firm positions, and memoizes each supplier's outcome by its pattern:
the dead flags of its customers, in customers_of order. The first
evaluation of a pattern sums the live or dead terms and calls
econ.term_close; every later one with the same pattern, in that run or
another, looks the outcome up and does no arithmetic. The memo holds
one entry per distinct pattern seen, at most 2^deg for a supplier of
deg customers, and dies with the plan. run_cascade keeps one plan per
network, weakly keyed, and reuses it for the very same economy, which
is read-only, and decisions that hold the very same objects.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import partial
from operator import is_, itemgetter
from typing import NamedTuple

from .econ import (
    Economy,
    InvestmentDecision,
    POSITIVE,
    TransactionNetwork,
    ZERO_REVENUE,
    POLICIES,
    bankrupt_interaction,
    check_numbers,
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
        check_numbers((("gdp_growth", POSITIVE),), (self.gdp_growth,))
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
    first one; a flagged firm needs none. Holds the economy, a copy of
    the decisions, the flagged firms' positions, a dead mask over
    positions with them set, the survivor template and the network's
    firms, index and CSR tables, but not the network. price(i), on
    first use, fills books[i] for the supplier at position i: an
    itemgetter that reads its pattern off a dead mask, its outcome
    memo, term_close's first five arguments, the beginning equity and
    one (customer position, live term, dead term) per customer in
    customers_of order. A flagged customer, dead in every run, has no
    live term. The memo maps a pattern (the flag of a lone customer,
    else the tuple of flags) to the five fields of an Evaluation after
    generation. It gains one entry per distinct pattern met, at most
    2^deg for deg customers, and lives as long as the plan.
    """

    def __init__(self, economy: Economy, network: TransactionNetwork,
                 decisions: Mapping[str, InvestmentDecision],
                 gdp_growth: float, policy: str) -> None:
        ids = shared_firm_ids(economy, network)
        missing = next((f for f in ids if f not in decisions
                        and not economy.states[f].bankrupt), None)
        if missing is not None:
            raise ValueError(f"decisions lack firm {missing!r}")
        self.economy = economy
        self.decisions = dict(decisions)
        self.gdp_growth = gdp_growth
        self.policy = policy
        self.firms, self.index = network.firms, network.index
        self.customers, self.suppliers = network.customers, network.suppliers
        states = economy.states
        self.flagged = tuple(i for i, f in enumerate(ids) if states[f].bankrupt)
        self.dead = bytearray(len(ids))
        for i in self.flagged:
            self.dead[i] = 1
        self.survivors = {f: REASON_NOT_REACHED for f in ids
                          if not states[f].bankrupt}
        self.books: list[tuple | None] = [None] * len(ids)
        self._keys = tuple(self.decisions)

    def matches(self, economy: Economy,
                decisions: Mapping[str, InvestmentDecision],
                gdp_growth: float, policy: str) -> bool:
        """True for the very economy the plan was built from, decisions
        with equal keys in order holding the very same objects, and
        scalars of the same types and equal."""
        return (economy is self.economy
                and type(gdp_growth) is type(self.gdp_growth)
                and gdp_growth == self.gdp_growth
                and type(policy) is type(self.policy)
                and policy == self.policy
                and self._keys == tuple(decisions)
                and all(map(is_, self.decisions.values(), decisions.values())))

    def price(self, i: int) -> tuple:
        """Price the frozen books of the supplier at position i into
        books[i], with an empty memo, and return them."""
        firm = self.firms[i]
        economy, dec = self.economy, self.decisions[firm]
        st = economy.states[firm]
        growth, cost, capital_charge = term_fixed(
            st.capital, st.labor, economy.params[firm], dec.capital, dec.labor)
        g, policy, states, firms, dead = (self.gdp_growth, self.policy,
                                          economy.states, self.firms, self.dead)
        offsets, positions, ks = self.customers
        row = slice(offsets[i], offsets[i + 1])
        customers = positions[row]
        terms = tuple(
            (c,
             None if dead[c]
             else interaction_term(k, states[firms[c]].growth_ratio, g),
             bankrupt_interaction(k, g, policy))
            for c, k in zip(customers, ks[row]))
        books = self.books[i] = (itemgetter(*customers), {}, st.revenue,
                                 growth, cost, capital_charge, dec.labor,
                                 st.equity, terms)
        return books


# One plan per network, dropped with it. A run keeps the plan it looked
# up, whose inputs cannot change, so a rebuild by another run cannot mix.
_plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def evaluate_supplier(plan: CascadePlan, i: int, generation: int,
                      dead: bytearray) -> Evaluation:
    """The end-of-term equity of the priced supplier at position i.

    Customers set in dead, a mask over positions, enter through their
    dead terms, the others through their live terms. The terms are
    summed in customers_of order for the shocked and the baseline sum,
    and term_close runs on each. Depends only on the plan and the
    supplier's pattern, the flags of its customers in dead, so
    propagate_step calls it once per pattern, on a memo miss, and keeps
    its five fields after generation.
    """
    revenue, growth, cost, capital_charge, labor, equity, terms = (
        plan.books[i][2:])
    shocked = 0.0
    baseline = 0.0
    for customer, live, lost in terms:
        if dead[customer]:
            shocked += lost
        else:
            shocked += live
            baseline += live
    _, shocked_profit, _ = term_close(revenue, growth, cost, capital_charge,
                                      labor, shocked)
    _, baseline_profit, _ = term_close(revenue, growth, cost, capital_charge,
                                       labor, baseline)
    equity_end = equity + shocked_profit
    return _record((plan.firms[i], generation, equity, shocked_profit,
                    equity_end, baseline_profit, is_bankrupt(equity_end)))


def propagate_step(plan: CascadePlan, generation: int,
                   frontier: Iterable[int],
                   dead: bytearray) -> list[tuple[int, tuple]]:
    """Evaluate every live supplier of a firm in the frontier.

    frontier holds the positions whose flags changed since the last
    generation; dead is the run's mask over positions, with frontier
    and every flagged firm set. Returns (position, outcome) pairs in
    position order, which is firm order. An outcome is the five fields
    of an Evaluation after generation: looked up in the supplier's memo
    by its pattern, or priced by evaluate_supplier on a miss. dead is
    not changed here, so the caller commits a whole generation at once.
    """
    offsets, positions, _ = plan.suppliers
    books = plan.books
    exposed = {p for i in frontier
               for p in positions[offsets[i]:offsets[i + 1]]}
    step = []
    for i in sorted(exposed):
        if dead[i]:
            continue
        entry = books[i]
        if entry is None:
            entry = plan.price(i)
        pattern, memo = entry[0](dead), entry[1]
        outcome = memo.get(pattern)
        if outcome is None:
            outcome = memo[pattern] = evaluate_supplier(
                plan, i, generation, dead)[2:]
        step.append((i, outcome))
    return step


def run_cascade(economy: Economy, network: TransactionNetwork,
                config: CascadeConfig,
                decisions: dict[str, InvestmentDecision] | None = None,
                seed: int = 0) -> CascadeResult:
    """Run a full cascade scenario from the configured triggers.

    Decisions are frozen at the pre-shock fixed point of the investment
    game unless supplied by the caller (observed next-period inputs
    slot in here). The flags of the run live in a copy of the plan's
    dead mask, seeded with the triggers. Generation 1 evaluates the
    live suppliers of the triggers and the firms flagged before the
    run, each later generation the live suppliers of the firms that
    fell in the one before. Terminates after at most one generation
    per firm: every generation before the last turns at least one
    firm. When max_generations stops the run, the next generation is
    evaluated once, without committing it, and exhausted says whether
    it would have turned anyone. A survivor's trace entry carries
    generations_run; a fallen firm's, the generation it fell in. The
    trace lists firms in the order of their first evaluation. seed
    changes no result; it stays for callers that pass one. A firm
    flagged before the run needs no decision.

    The books come from a CascadePlan kept per network in a weak map,
    so it dies with the network. A call reuses the plan, and its
    outcome memos, while its matches() holds and builds a new one
    otherwise: a changed economy is a new object, and decisions may
    be edited in place between calls.
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

    firms = plan.firms
    bankrupt = {f: 0 for f in config.trigger_firms}
    dead = plan.dead.copy()
    frontier = [*plan.flagged, *map(plan.index.__getitem__, bankrupt)]
    for i in frontier:
        dead[i] = 1

    cap = config.max_generations
    if cap is None:
        cap = len(economy.params)
    # position -> its last outcome, in order of first evaluation; the
    # generation of its record is where it fell or generations_run
    evaluated: dict[int, tuple] = {}
    generations_run = 0
    exhausted = False
    for generation in range(1, cap + 1):
        step = propagate_step(plan, generation, frontier, dead)
        generations_run = generation
        evaluated.update(step)
        frontier = [i for i, outcome in step if outcome[-1]]
        if not frontier:
            break
        for i in frontier:
            dead[i] = 1
            bankrupt[firms[i]] = generation
    else:
        ahead = propagate_step(plan, cap + 1, frontier, dead)
        exhausted = any(outcome[-1] for _, outcome in ahead)

    survivors = plan.survivors.copy()
    for f in bankrupt:
        del survivors[f]
    trace: dict[str, Evaluation] = {}
    for i, outcome in evaluated.items():
        f = firms[i]
        fell = bankrupt.get(f)
        if fell is None:
            ev = trace[f] = _record((f, generations_run, *outcome))
            survivors[f] = _survivor_reason(ev)
        else:
            trace[f] = _record((f, fell, *outcome))
    return CascadeResult(bankrupt=bankrupt, survivors=survivors,
                         equity_trace=trace, generations_run=generations_run,
                         exhausted=exhausted)
