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

Frozen books also fix every number of an evaluation but which
customers are dead. A CascadePlan prices them for every supplier when
it is built, indexed by the network's firm positions. A run keeps one
int mask per position. A live supplier's bit j is set, by one |= when
the customer falls, once its j-th customer in customers_of order is
dead. A dead position's mask is -1: the triggers' and the flagged
firms' from the start, each generation's fallers' once it is
committed. An exposure skips a dead supplier with one sign test, and
-1 is never a key. The plan keeps one outcome memo per supplier, in
its memos list, keyed by the mask. The first evaluation of a mask sums
the live or dead terms and calls econ.term_close; every later one with
the same mask, in that run or another, looks the outcome up and does
no arithmetic. The memo holds one entry per distinct mask seen, at
most 2^deg for a supplier of deg customers, and dies with the plan.
run_cascade keeps one plan per network, weakly
keyed, and reuses it for the very same economy and the very same
decisions, both read-only FrozenMaps.

A run returns who fell, the generations run and whether the cap cut
it off at once, and keeps the rest of its outcome raw: the positions
that fell, the outcome each evaluated position had last, and the
length of that trace after each generation. Each generation writes its
outcomes in place, in no set order, so the trace is one block of first
evaluations per generation. A CascadeResult builds its survivors and
equity trace from those on first read, each block sorted by position,
so a sweep that reads only who fell builds neither and sorts nothing.
The result keeps the network's firm tuple and the plan's survivor
template alive, not the plan.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .econ import (
    Economy,
    FrozenMap,
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
        object.__setattr__(self, "gdp_growth", float(self.gdp_growth))
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


@dataclass(frozen=True, eq=False, repr=False)
class CascadeResult:
    """Outcome of a cascade scenario.

    Five read-only attributes: bankrupt, survivors, equity_trace,
    generations_run and exhausted; survivors and equity_trace are plain
    dicts. A run hands over bankrupt, generations_run and exhausted,
    and keeps the rest of its outcome raw: the network's firm tuple, the
    plan's survivor template (shared, never mutated), the fallen
    positions, the evaluated outcomes and the trace's block ends.
    survivors and equity_trace are built from those in one pass on
    first read of either, so a caller that reads only bankrupt never
    pays for them. The pass sorts each generation's block of first
    evaluations by position, so equity_trace lists firms in the order
    of their first evaluation, in position order within a generation.
    A result keeps the firm tuple and the template alive, not the plan.
    repr, ==, copies and pickles read all five attributes, as a plain
    frozen dataclass of the five would.
    """

    # firms flagged before the run appear in neither bankrupt nor survivors
    bankrupt: dict[str, int]          # felled firm -> generation (triggers at 0)
    generations_run: int
    exhausted: bool                   # True when the cap cut off a live cascade
    # (firms, survivor template, fallen position -> generation,
    #  evaluated position -> outcome in order of first evaluation, in no
    #  set order within a generation, that dict's length after each
    #  generation)
    _outcome: tuple

    @cached_property
    def _read(self) -> tuple[dict[str, str], dict[str, Evaluation]]:
        firms, template, fell, evaluated, ends = self._outcome
        survivors = template.copy()
        for f in self.bankrupt:
            del survivors[f]
        order = list(evaluated)
        trace: dict[str, Evaluation] = {}
        lo = 0
        for hi in ends:
            for i in sorted(order[lo:hi]):
                f = firms[i]
                ev = trace[f] = Evaluation(
                    f, fell.get(i, self.generations_run), *evaluated[i])
                if i not in fell:
                    survivors[f] = _survivor_reason(ev)
            lo = hi
        return survivors, trace

    @property
    def survivors(self) -> dict[str, str]:
        """Live firm -> stop reason."""
        return self._read[0]

    @property
    def equity_trace(self) -> dict[str, Evaluation]:
        return self._read[1]

    def _fields(self) -> tuple:
        return (self.bankrupt, self.survivors, self.equity_trace,
                self.generations_run, self.exhausted)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return ("{}(bankrupt={!r}, survivors={!r}, equity_trace={!r}, "
                "generations_run={!r}, exhausted={!r})".format(
                    self.__class__.__qualname__, *self._fields()))


def _survivor_reason(ev: Evaluation) -> str:
    # The shock matters only if zeroing the bankrupt-customer terms
    # flips the sign of the term's operating result; equity then gets
    # credit for absorbing it. Otherwise the link carried too little.
    if ev.term_profit < 0.0 <= ev.baseline_profit:
        return REASON_EQUITY
    return REASON_WEAK_LINK


class CascadePlan:
    """What frozen decisions fix, for one (economy, network, decisions,
    gdp_growth, policy), priced in one pass when it is built.

    Refuses decisions that lack a live firm of the economy, naming the
    first one; a flagged firm needs none. Holds the economy, the
    decisions (a FrozenMap by reference, any other mapping frozen into
    a new one), the flagged firms' positions, the survivor template and
    the network's firms and index, but not the network. books[i], for
    the live supplier at position i with customers, is term_close's
    first five arguments, the beginning equity and one (live term, dead
    term) per customer in customers_of order, and memos[i] is its
    outcome memo; both are None for a flagged firm or a firm with no
    customers. A flagged customer, dead in every run, has no live term.
    links[c] holds one (i, 1 << j) per such supplier i of the firm at
    position c, where j is c's slot in i's customers_of row: the bit c
    sets in i's mask when it falls. A memo maps a mask, never -1, to
    the five fields of an Evaluation after generation; it gains one
    entry per distinct mask met, at most 2^deg for deg customers, and
    lives as long as the plan.
    """

    def __init__(self, economy: Economy, network: TransactionNetwork,
                 decisions: Mapping[str, InvestmentDecision],
                 gdp_growth: float, policy: str) -> None:
        ids = shared_firm_ids(economy, network)
        flags = economy.bankrupt.tolist()
        missing = next((f for f, flag in zip(ids, flags)
                        if not flag and f not in decisions), None)
        if missing is not None:
            raise ValueError(f"decisions lack firm {missing!r}")
        self.economy = economy
        self.decisions = (decisions if type(decisions) is FrozenMap
                          else FrozenMap(decisions))
        self.gdp_growth = gdp_growth
        self.policy = policy
        self.firms, self.index = network.firms, network.index
        self.flagged = tuple(i for i, flag in enumerate(flags) if flag)
        self.survivors = {f: REASON_NOT_REACHED for f, flag in zip(ids, flags)
                          if not flag}
        offsets, positions, ks = network.customers
        revenue, prev_revenue, capital, labor, equity = (
            economy.state_columns.tolist())
        alpha, beta, cost_coeff, rate, _ = economy.param_columns.tolist()
        self.books: list[tuple | None] = [None] * len(ids)
        self.memos: list[dict[int, tuple] | None] = [None] * len(ids)
        self.links: list[list[tuple[int, int]]] = [[] for _ in ids]
        for i, firm in enumerate(ids):
            lo, hi = offsets[i], offsets[i + 1]
            if flags[i] or lo == hi:
                continue
            dec = self.decisions[firm]
            growth, cost, capital_charge = term_fixed(
                capital[i], labor[i], alpha[i], beta[i], cost_coeff[i],
                rate[i], dec.capital, dec.labor)
            terms = []
            for j, (c, k) in enumerate(zip(positions[lo:hi], ks[lo:hi])):
                self.links[c].append((i, 1 << j))
                terms.append((
                    None if flags[c]
                    else interaction_term(k, revenue[c] / prev_revenue[c],
                                          gdp_growth),
                    bankrupt_interaction(k, gdp_growth, policy)))
            self.books[i] = (revenue[i], growth, cost, capital_charge,
                             dec.labor, equity[i], tuple(terms))
            self.memos[i] = {}

    def matches(self, economy: Economy,
                decisions: Mapping[str, InvestmentDecision],
                gdp_growth: float, policy: str) -> bool:
        """True for the very economy and decisions the plan keeps, and
        equal scalars."""
        return (economy is self.economy and decisions is self.decisions
                and gdp_growth == self.gdp_growth and policy == self.policy)


# One plan per network, dropped with it. A run keeps the plan it looked
# up, whose inputs cannot change, so a rebuild by another run cannot mix.
_plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def evaluate_supplier(plan: CascadePlan, i: int, generation: int,
                      mask: int) -> Evaluation:
    """The end-of-term equity of the live supplier at position i.

    mask is the supplier's: bit j set when its j-th customer, in
    customers_of order, is dead. Dead customers enter through their dead
    terms, the others through their live terms. The terms are summed in
    customers_of order for the shocked and the baseline sum, and
    term_close runs on each. Depends only on the plan and the mask, so
    propagate_step calls it once per mask, on a memo miss, and keeps its
    five fields after generation.
    """
    revenue, growth, cost, capital_charge, labor, equity, terms = (
        plan.books[i])
    shocked = baseline = 0.0
    for live, lost in terms:
        if mask & 1:
            shocked += lost
        else:
            shocked += live
            baseline += live
        mask >>= 1
    _, shocked_profit, _ = term_close(revenue, growth, cost, capital_charge,
                                      labor, shocked)
    _, baseline_profit, _ = term_close(revenue, growth, cost, capital_charge,
                                       labor, baseline)
    equity_end = equity + shocked_profit
    return Evaluation(plan.firms[i], generation, equity, shocked_profit,
                      equity_end, baseline_profit, is_bankrupt(equity_end))


def propagate_step(plan: CascadePlan, generation: int,
                   frontier: Iterable[int], masks: list[int],
                   trace: dict[int, tuple]) -> list[int]:
    """Evaluate every live supplier of a firm in the frontier.

    frontier holds the positions that died since the last generation;
    masks are the run's, one per position, -1 for a dead one. Each
    frontier firm sets its bit in the masks of its live suppliers, and
    a dead supplier is skipped with one sign test. Each exposed
    supplier's outcome, the five fields of an Evaluation after
    generation, is looked up in plan.memos by its mask, or closed by
    evaluate_supplier on a miss, and written to trace[position]. The
    exposed suppliers are walked in no set order; a position new to
    trace lands after every earlier one. Returns the positions that
    fell, in position order. Their masks stay as they are: the caller
    marks them dead once it commits the generation.
    """
    links, memos = plan.links, plan.memos
    exposed = set()
    for c in frontier:
        for i, bit in links[c]:
            mask = masks[i]
            if mask >= 0:
                masks[i] = mask | bit
                exposed.add(i)
    fallers = []
    for i in exposed:
        mask = masks[i]
        try:
            outcome = memos[i][mask]
        except KeyError:
            outcome = memos[i][mask] = evaluate_supplier(
                plan, i, generation, mask)[2:]
        trace[i] = outcome
        if outcome[-1]:
            fallers.append(i)
    fallers.sort()
    return fallers


def run_cascade(economy: Economy, network: TransactionNetwork,
                config: CascadeConfig,
                decisions: Mapping[str, InvestmentDecision] | None = None,
                seed: int = 0) -> CascadeResult:
    """Run a full cascade scenario from the configured triggers.

    Decisions are frozen at the pre-shock fixed point of the investment
    game unless supplied by the caller (observed next-period inputs
    slot in here). A run keeps one mask per position, -1 for the
    triggers and the firms flagged before the run and 0 for the rest,
    and the generation of each fallen firm, the triggers at 0.
    Generation 1 sets the bits of the triggers and the flagged firms
    and evaluates their live suppliers, each later generation those of
    the firms that fell in the one before. Committing a generation
    marks its fallers' masks -1. At most one generation per firm: every
    generation before the last turns someone. When max_generations
    stops the run, the next generation is evaluated once into a
    throwaway trace, without committing it, and exhausted says whether
    it would have turned anyone. A survivor's trace entry carries
    generations_run; a fallen firm's, the generation it fell in. The
    run records the trace's length after each generation; the result
    sorts each generation's block by position on first read, so the
    trace lists firms in the order of their first evaluation, in
    position order within a generation.
    seed changes no result; it stays for callers that pass one. A firm
    flagged before the run needs no decision.

    The books come from a CascadePlan kept per network in a weak map,
    so it dies with the network. A call reuses the plan, and its
    outcome memos, while its matches() holds and builds a new one
    otherwise: a changed economy is a new object. One FrozenMap of
    decisions, such as a nash_solve result's, passed to call after
    call, matches with one identity check; any other mapping builds a
    new plan on every call. decisions None solves the game with
    nash_solve, whose new result builds a new plan. A plan prices every
    supplier before the first generation, so inputs it cannot price
    raise whatever the triggers, and leave no plan behind.
    """
    for f in config.trigger_firms:
        if f not in economy.index:
            raise ValueError(f"unknown trigger firm {f!r}")
        if economy.bankrupt[economy.index[f]]:
            raise ValueError(f"trigger firm {f!r} is already bankrupt")

    if decisions is None:
        decisions = nash_solve(economy, network, config.gdp_growth).decisions
    plan = _plans.get(network)
    if plan is None or not plan.matches(economy, decisions, config.gdp_growth,
                                        config.policy):
        plan = _plans[network] = CascadePlan(
            economy, network, decisions, config.gdp_growth, config.policy)

    firms = plan.firms
    # fallen position -> its generation, the triggers at 0
    fell = {plan.index[f]: 0 for f in config.trigger_firms}
    frontier = [*plan.flagged, *fell]
    masks = [0] * len(firms)
    for i in frontier:
        masks[i] = -1

    cap = config.max_generations
    if cap is None:
        cap = len(economy.firm_ids)
    # position -> its last outcome, in order of first evaluation; the
    # generation of its record is where it fell or generations_run.
    # ends[g - 1] is len(trace) after generation g.
    trace: dict[int, tuple] = {}
    ends: list[int] = []
    exhausted = False
    for generation in range(1, cap + 1):
        frontier = propagate_step(plan, generation, frontier, masks, trace)
        ends.append(len(trace))
        if not frontier:
            break
        for i in frontier:
            fell[i] = generation
            masks[i] = -1
    else:
        exhausted = bool(propagate_step(plan, cap + 1, frontier, masks, {}))

    bankrupt = dict(zip(map(firms.__getitem__, fell), fell.values()))
    return CascadeResult(bankrupt, len(ends), exhausted,
                         (firms, plan.survivors, fell, trace, ends))
