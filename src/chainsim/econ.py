"""Core firm-level accounting: the term rule, the network and solvency.

Firms sell to downstream customers over a directed transaction network.
One term of a firm's books, given its next-term capital K' and labor
L' (term_rule, on plain floats):

    revenue' = revenue * ((K'/K)^alpha * (L'/L)^beta + sum_c terms_c + shock)
    profit   = revenue' - cost_coeff * K'^alpha * L'^beta
               - interest_rate * K' - L'
    equity'  = equity + profit

with one coupling term k * (customer growth - GDP growth) per customer
c. A revenue' at or below zero is floored to REVENUE_FLOOR_FRAC of the
current revenue, which keeps later growth ratios defined. End-of-term
equity below zero is bankruptcy. term_fixed computes the parts fixed by
K' and L' (growth factor, material cost, capital charge) and term_close
the rest from a sum of customer terms; term_rule is the two in turn.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType

import numpy as np

# Treatment of a bankrupt customer inside the interaction term.
ZERO_REVENUE = "zero-revenue"  # customer growth ratio read as 0.0
PURE_LOSS = "pure-loss"        # interaction term forced to -k
POLICIES = (ZERO_REVENUE, PURE_LOSS)

# Relative floor applied when the revenue recursion turns non-positive.
REVENUE_FLOOR_FRAC = 1e-6

# Bounds of check_numbers, as (low, strict): a number must be > low
# when strict, >= low otherwise; FINITE bounds it only by float range.
FINITE = (-math.inf, True)
POSITIVE = (0, True)
NON_NEGATIVE = (0, False)
_PARAMETER_FIELDS = tuple((name, NON_NEGATIVE) for name in (
    "alpha", "beta", "cost_coeff", "interest_rate", "noise_sigma"))
_LIVE_FIELDS = (("revenue", POSITIVE), ("prev_revenue", POSITIVE),
                ("capital", POSITIVE), ("labor", POSITIVE), ("equity", FINITE))
_DECISION_FIELDS = (("capital", POSITIVE), ("labor", POSITIVE))


@dataclass(frozen=True)
class FirmParameters:
    """Structural parameters of one firm.

    alpha and beta are the capital and labor output elasticities,
    cost_coeff scales material cost, interest_rate prices capital, and
    noise_sigma scales the idiosyncratic revenue shock.
    """

    alpha: float
    beta: float
    cost_coeff: float
    interest_rate: float
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        check_numbers(_PARAMETER_FIELDS, (self.alpha, self.beta, self.cost_coeff,
                                          self.interest_rate, self.noise_sigma))


@dataclass(frozen=True)
class FirmState:
    """One firm's books at the start of a term.

    prev_revenue is the revenue one term earlier; customers' growth
    ratios need it. Live firms must have strictly positive revenue,
    capital and labor. Equity may legitimately be negative only on a
    firm already flagged bankrupt.
    """

    revenue: float
    prev_revenue: float
    capital: float
    labor: float
    equity: float
    bankrupt: bool = False

    def __post_init__(self) -> None:
        if self.bankrupt:
            check_numbers(_LIVE_FIELDS[-1:], (self.equity,))
        else:
            check_numbers(_LIVE_FIELDS, (self.revenue, self.prev_revenue,
                                         self.capital, self.labor, self.equity))

    @property
    def growth_ratio(self) -> float:
        """Observed revenue growth ratio over the last completed term."""
        return self.revenue / self.prev_revenue


@dataclass(frozen=True)
class InvestmentDecision:
    """Next-term capital and labor chosen by a firm."""

    capital: float
    labor: float

    def __post_init__(self) -> None:
        check_numbers(_DECISION_FIELDS, (self.capital, self.labor))


class TransactionNetwork:
    """Directed supplier->customer graph with a coupling strength per edge.

    Product flows supplier -> customer; money flows the opposite way.
    At most one edge per ordered pair, no self-loops, endpoints must be
    declared firms, k finite: each checked over all edges at once, a
    fault naming the first bad edge. Built once, each by one sort of
    row * n + column keys, as two read-only CSR tables over the sorted
    firms: customers and its transpose suppliers, each a tuple (offsets,
    positions, k) of Python ints and floats. Row i, firm i's neighbours,
    is positions[offsets[i]:offsets[i + 1]] in ascending order, with
    their k in the same slots. index maps an id to its position in firms.
    """

    def __init__(self, firms, edges=()) -> None:
        self.firms = tuple(sorted(set(firms)))
        self.index = index = {f: i for i, f in enumerate(self.firms)}
        n = len(self.firms)
        suppliers, customers, ks = tuple(zip(*edges)) or ((), (), ())
        row, column = (np.array(list(map(index.get, ids, repeat(-1))), np.int64)
                       for ids in (suppliers, customers))
        key = row * n + column
        # each check's first bad edge, in the order an edge is checked; an
        # unknown firm's -1 cannot make a bad key before its own edge
        faults = [(i, message) for i, message in (
            (first_true((row < 0) | (column < 0)),
             "edge ({!r}, {!r}) references unknown firm"),
            (first_true(row == column), "self-loop on {!r}"),
            (first_repeat(key.tolist()), "duplicate edge ({!r}, {!r})"),
            (first_true(~np.fromiter(map(finite_number, ks), bool, len(ks))),
             "edge ({!r}, {!r}) has non-finite k"),
        ) if i is not None]
        if faults:
            i, message = min(faults, key=lambda fault: fault[0])
            raise ValueError(message.format(suppliers[i], customers[i]))
        strength = np.array(ks, float)
        self.customers = _csr(row, column, strength, n)
        self.suppliers = _csr(column, row, strength, n)

    def n_edges(self) -> int:
        return len(self.customers[1])

    def edges(self):
        """Yield (supplier, customer, k) in sorted order."""
        return csr_edges(self.firms, self.customers)

    def customers_of(self, firm: str) -> tuple[tuple[str, float], ...]:
        """(customer, k) pairs for a supplier, sorted by customer id."""
        return csr_row(self.firms, self.customers, self.index[firm])

    def suppliers_of(self, firm: str) -> tuple[tuple[str, float], ...]:
        """(supplier, k) pairs for a customer, sorted by supplier id."""
        return csr_row(self.firms, self.suppliers, self.index[firm])

    def strength(self, supplier: str, customer: str) -> float:
        """k of the link; KeyError for an unknown firm or a missing link.

        A bisection of the supplier's customer row, which is sorted.
        """
        offsets, positions, ks = self.customers
        i, j = self.index[supplier], self.index[customer]
        at = bisect_left(positions, j, offsets[i], offsets[i + 1])
        if at == offsets[i + 1] or positions[at] != j:
            raise KeyError(customer)
        return ks[at]

    def with_strengths(self, overrides) -> "TransactionNetwork":
        """Copy of the network with k replaced on the given (s, c) pairs."""
        overrides = dict(overrides)
        return TransactionNetwork(self.firms, (
            (s, c, overrides.get((s, c), k)) for s, c, k in self.edges()))


def _csr(rows: np.ndarray, positions: np.ndarray, ks: np.ndarray, n: int) -> tuple:
    """(offsets, positions, k) as tuples, the entries sorted by row, then position."""
    order = np.argsort(rows * n + positions)
    return ((0, *np.bincount(rows, minlength=n).cumsum().tolist()),
            tuple(positions[order].tolist()), tuple(ks[order].tolist()))


def first_true(mask: np.ndarray) -> int | None:
    """Index of the first True in a boolean array, or None."""
    return int(mask.argmax()) if mask.any() else None


def first_repeat(keys: list) -> int | None:
    """Index of the first key equal to an earlier one, or None."""
    if len(set(keys)) == len(keys):
        return None
    seen = {}
    return next(i for i, key in enumerate(keys) if seen.setdefault(key, i) != i)


def finite_number(value) -> bool:
    """True for a real number (int, float, numpy real scalar, Fraction)
    that is finite in float range; a bool is not a number here."""
    if type(value) is float:
        return value - value == 0.0
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_numbers(fields, values) -> None:
    """A ValueError naming the first (name, (low, strict)) of fields
    whose value, in values' order, is not a finite_number > low (>= low
    unless strict): "{name} must be finite and > 0, got {value!r}", or
    "{name} must be finite, got {value!r}" under FINITE."""
    for (name, (low, strict)), value in zip(fields, values):
        if ((type(value) is float or finite_number(value))
                and (value > low if strict else value >= low)
                and value < math.inf):
            continue
        bound = "" if low == -math.inf else f" and {'>' if strict else '>='} {low}"
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")


def period_labels(labels) -> tuple[int, ...]:
    """labels as a tuple of Python ints. Each must be an int or a numpy
    integer, not a bool, and all must differ; otherwise a ValueError
    naming the first bad label, or the labels when one repeats."""
    periods = []
    for label in labels:
        if isinstance(label, bool) or not isinstance(label, (int, np.integer)):
            raise ValueError(f"period label must be an integer, got {label!r}")
        periods.append(int(label))
    periods = tuple(periods)
    if len(set(periods)) != len(periods):
        raise ValueError(f"duplicate period labels in {periods}")
    return periods


def csr_row(firms: tuple[str, ...], table: tuple, i: int) -> tuple:
    """Row i of a CSR table over firms, as (neighbour id, k) pairs."""
    offsets, positions, ks = table
    return tuple([(firms[positions[j]], ks[j])
                  for j in range(offsets[i], offsets[i + 1])])


def csr_edges(firms: tuple[str, ...], table: tuple):
    """(row id, neighbour id, k) over a CSR table, row by row."""
    offsets, positions, ks = table
    return ((firms[i], firms[positions[j]], ks[j]) for i in range(len(firms))
            for j in range(offsets[i], offsets[i + 1]))


@dataclass(frozen=True)
class MacroSeries:
    """Economy-wide GDP per period, strictly positive; period labels as
    period_labels takes them, 0 .. T-1 when none are given."""

    gdp: tuple[float, ...]
    periods: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        gdp = tuple(self.gdp)
        if not gdp:
            raise ValueError("gdp series is empty")
        check_numbers(((f"gdp[{t}]", POSITIVE) for t in range(len(gdp))), gdp)
        gdp = tuple(map(float, gdp))
        object.__setattr__(self, "gdp", gdp)
        periods = period_labels(self.periods if len(self.periods)
                                else range(len(gdp)))
        if len(periods) != len(gdp):
            raise ValueError("periods and gdp lengths differ")
        object.__setattr__(self, "periods", periods)

    def __len__(self) -> int:
        return len(self.gdp)

    def ratio(self, t: int) -> float:
        """GDP growth ratio over periods t-1 -> t (positional index)."""
        if t < 1 or t >= len(self.gdp):
            raise IndexError(f"no growth ratio at position {t}")
        return self.gdp[t] / self.gdp[t - 1]


@dataclass(frozen=True)
class Economy:
    """Per-firm parameters and current states, keyed by firm id, as
    read-only views of copies taken at construction. A changed economy
    is a new one, built with dataclasses.replace."""

    params: Mapping[str, FirmParameters]
    states: Mapping[str, FirmState]

    def __post_init__(self) -> None:
        if set(self.params) != set(self.states):
            raise ValueError("params and states cover different firm ids")
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        object.__setattr__(self, "states", MappingProxyType(dict(self.states)))

    @property
    def firm_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.params))


def shared_firm_ids(economy: Economy,
                    network: TransactionNetwork) -> tuple[str, ...]:
    """economy.firm_ids, checked to be exactly the network's firms;
    otherwise a ValueError naming a firm that only one side has."""
    ids = economy.firm_ids
    if ids != network.firms:
        firm = min(set(ids).symmetric_difference(network.firms))
        side = "economy" if firm in economy.params else "network"
        raise ValueError(f"firm {firm!r} is only in the {side}")
    return ids


def interaction_term(strength: float, customer_growth: float,
                     gdp_growth: float) -> float:
    """Coupling contribution of one customer to a supplier's revenue growth.

    Proportional to how much the customer's revenue growth beats or lags
    GDP growth; zero for a customer tracking GDP exactly.
    """
    return strength * (customer_growth - gdp_growth)


def bankrupt_interaction(strength: float, gdp_growth: float,
                         policy: str = ZERO_REVENUE) -> float:
    """Interaction term contributed by a bankrupt customer.

    zero-revenue reads the dead customer's growth ratio as 0 (it pays
    nothing this term); pure-loss writes off the coupling outright.
    """
    if policy == ZERO_REVENUE:
        return interaction_term(strength, 0.0, gdp_growth)
    if policy == PURE_LOSS:
        return -strength
    raise ValueError(f"unknown policy {policy!r}")


def customer_terms_sum(firm: str, network: TransactionNetwork,
                       states: Mapping[str, FirmState], gdp_growth: float,
                       policy: str = ZERO_REVENUE) -> float:
    """Sum of interaction terms over a firm's customers.

    Live customers contribute via their observed growth ratio; bankrupt
    ones via the bankrupt-customer policy.
    """
    total = 0.0
    for customer, k in network.customers_of(firm):
        cust = states[customer]
        if cust.bankrupt:
            total += bankrupt_interaction(k, gdp_growth, policy)
        else:
            total += interaction_term(k, cust.growth_ratio, gdp_growth)
    return total


def term_fixed(capital: float, labor: float, params: FirmParameters,
               next_capital: float, next_labor: float
               ) -> tuple[float, float, float]:
    """(growth, cost, capital_charge): the term rule's parts fixed by
    K' and L', namely (K'/K)^alpha (L'/L)^beta, the material cost and
    interest_rate * K'."""
    a, b = params.alpha, params.beta
    growth = (next_capital / capital) ** a * (next_labor / labor) ** b
    cost = params.cost_coeff * next_capital ** a * next_labor ** b
    return growth, cost, params.interest_rate * next_capital


def term_close(revenue: float, growth: float, cost: float,
               capital_charge: float, next_labor: float,
               customer_terms: float, noise: float = 0.0
               ) -> tuple[float, float, bool]:
    """term_rule's result from term_fixed's parts and a customer-term
    sum; the three charges are subtracted one at a time."""
    new_revenue = revenue * (growth + customer_terms + noise)
    floored = not new_revenue > 0.0
    if floored:
        new_revenue = REVENUE_FLOOR_FRAC * revenue
    profit = new_revenue - cost - capital_charge - next_labor
    return new_revenue, profit, floored


def term_rule(revenue: float, capital: float, labor: float,
              params: FirmParameters, next_capital: float, next_labor: float,
              customer_terms: float, noise: float = 0.0
              ) -> tuple[float, float, bool]:
    """The rule in the module docstring on plain floats.

    revenue, capital and labor are the books at the start of the term,
    next_capital and next_labor the inputs applied in it. Returns
    (revenue, profit, floored): next-term revenue after the floor, the
    term's profit, and whether the floor fired. The caller rolls profit
    into equity. A caller pricing one decision against many sums calls
    term_fixed once and term_close per sum.
    """
    growth, cost, capital_charge = term_fixed(capital, labor, params,
                                              next_capital, next_labor)
    return term_close(revenue, growth, cost, capital_charge, next_labor,
                      customer_terms, noise)


def is_bankrupt(equity_end: float) -> bool:
    """Capital deficit test; exactly zero still counts as solvent."""
    return equity_end < 0.0
