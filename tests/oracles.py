"""One-firm helpers that only the tests call, kept out of the package.

- residual_series: the revenue identity's residuals for one firm and
  its customers, computed on their own rather than through the batched
  fit.
- expected_payoff: the payoff of one decision, from the game's payoff
  body.
- steady_state_inputs: the one-row view of netgen.steady_state_columns.
"""

import numpy as np

from chainsim.calibration import MIN_PERIODS, FirmSeries, growth_gap_matrix
from chainsim.econ import FirmParameters, InvestmentDecision
from chainsim.game import ParamColumns, PayoffContext, _payoff
from chainsim.netgen import steady_state_columns


def _customer_gaps(customers: dict[str, FirmSeries],
                   gdp: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted customer ids and their growth_gap_matrix rows."""
    ids = tuple(sorted(customers))
    revenue = np.array([customers[cid].revenue for cid in ids]).reshape(
        len(ids), gdp.size)
    return ids, growth_gap_matrix(revenue, gdp)


def residual_series(firm: FirmSeries, customers: dict[str, FirmSeries],
                    gdp: np.ndarray, alpha: float, beta: float,
                    strengths: dict[str, float]) -> np.ndarray:
    """Revenue-identity residuals at every usable position.

    The residual is the observed revenue growth ratio minus the
    production growth factor minus the summed customer coupling terms;
    it is the raw (unstandardized) innovation.
    """
    r, k, l = firm.revenue, firm.capital, firm.labor
    if r.size < MIN_PERIODS:
        raise ValueError(f"need at least {MIN_PERIODS} periods, got {r.size}")
    rev_ratio = r[2:] / r[1:-1]
    prod = (k[2:] / k[1:-1]) ** alpha * (l[2:] / l[1:-1]) ** beta
    eps = rev_ratio - prod
    if customers:
        ids, gap = _customer_gaps(customers, np.asarray(gdp, dtype=float))
        kvec = np.array([strengths[c] for c in ids])
        eps = eps - kvec @ gap
    return eps


def expected_payoff(ctx: PayoffContext, decision: InvestmentDecision) -> float:
    """Next-term profit of a candidate decision, noise at zero."""
    return _payoff(ctx.revenue, ctx.capital, ctx.labor, ctx.customer_terms,
                   ctx.params, decision.capital, decision.labor)


def steady_state_inputs(params: FirmParameters, revenue: float) -> tuple[float, float]:
    """steady_state_columns for one firm, as (k, l) floats."""
    k, l = steady_state_columns(ParamColumns.of([params]),
                                np.array([revenue], dtype=float))
    return k.item(), l.item()
