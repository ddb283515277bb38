"""Maximum-likelihood calibration of firm parameters from panel data.

Given per-firm time series of revenue, capital and labor plus a GDP
series, the one-step revenue identity leaves a residual per usable
period. Under Gaussian residuals, maximizing the likelihood in the
elasticities and coupling strengths is least squares on the residuals;
the noise scale is profiled out and recovered afterwards.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .econ import TransactionNetwork

# A residual at position t needs periods t-1, t and t+1, so a panel of
# T periods yields T-2 usable residuals, at positions 1 .. T-2.
MIN_PERIODS = 3

# Search box and starting point of every fit.
ELASTICITY_BOUNDS = (0.0, 2.0)
STRENGTH_BOUNDS = (-2.0, 2.0)
INIT_ELASTICITY = 0.3
INIT_STRENGTH = 0.0

# Levenberg-Marquardt damping: start, floor and ceiling of lambda, and
# the floor under diag(J^T J) that keeps a flat column from zeroing it.
LM_LAMBDA_START = 1e-3
LM_LAMBDA_MIN = 1e-12
LM_LAMBDA_MAX = 1e12
LM_DIAG_FLOOR = 1e-12


class UnderdeterminedError(ValueError):
    """More free parameters than usable residuals for a firm."""


def _set_series(obj, name: str, shape: tuple[int, ...],
                positive: bool = True) -> None:
    """Check obj.name for shape, finite values and, if positive, values > 0;
    store it as a read-only float array."""
    arr = np.asarray(getattr(obj, name), dtype=float).view()
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    ok = np.isfinite(arr) & (arr > 0.0) if positive else np.isfinite(arr)
    if not ok.all():
        raise ValueError(f"{name} series must be finite"
                         + (" and > 0" if positive else ""))
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class FirmSeries:
    """One firm's panel: aligned revenue, capital and labor arrays."""

    revenue: np.ndarray
    capital: np.ndarray
    labor: np.ndarray

    def __post_init__(self) -> None:
        shape = np.shape(self.revenue)
        if len(shape) != 1:
            raise ValueError(f"revenue must be 1-D, got shape {shape}")
        for name in ("revenue", "capital", "labor"):
            _set_series(self, name, shape)

    def __len__(self) -> int:
        return self.revenue.size


@dataclass(frozen=True)
class PanelSeries:
    """Panel for a whole economy: (n_firms, T) arrays plus the GDP series.

    Row i of revenue, capital, labor and (when known) equity is firm
    firm_ids[i]; column j is period periods[j]. Ids are sorted and
    unique, period labels unique, revenue, capital, labor and GDP finite
    and > 0, equity finite; all are checked once, here, and kept as
    read-only views. Calibration ignores equity; a cascade needs it.
    """

    firm_ids: tuple[str, ...]
    revenue: np.ndarray
    capital: np.ndarray
    labor: np.ndarray
    gdp: np.ndarray
    periods: tuple[int, ...]
    equity: np.ndarray | None = None

    def __post_init__(self) -> None:
        ids, periods = tuple(self.firm_ids), tuple(map(int, self.periods))
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("firm_ids must be sorted and unique")
        if len(set(periods)) != len(periods):
            raise ValueError(f"duplicate period labels in {periods}")
        object.__setattr__(self, "firm_ids", ids)
        object.__setattr__(self, "periods", periods)
        _set_series(self, "gdp", (len(periods),))
        for name in ("revenue", "capital", "labor"):
            _set_series(self, name, (len(ids), len(periods)))
        if self.equity is not None:
            _set_series(self, "equity", (len(ids), len(periods)), positive=False)

    @functools.cached_property
    def rows(self) -> dict[str, int]:
        """Firm id -> its row in the arrays."""
        return {fid: i for i, fid in enumerate(self.firm_ids)}

    @property
    def n_periods(self) -> int:
        return int(self.gdp.size)

    def firm(self, fid: str) -> FirmSeries:
        """One firm's series, as views of its rows."""
        i = self.rows[fid]
        return FirmSeries(self.revenue[i], self.capital[i], self.labor[i])


def growth_gap_matrix(revenue: np.ndarray, gdp: np.ndarray) -> np.ndarray:
    """Revenue growth ratios minus GDP growth, per row per usable t.

    revenue is an (n, T) array with one firm per row, as in
    PanelSeries.revenue, and gdp a (T,) array. Columns are usable
    positions 1..T-2, where the ratios compare periods t-1 -> t
    (lagged, like the revenue identity wants them).
    """
    return revenue[:, 1:-1] / revenue[:, :-2] - gdp[1:-1] / gdp[:-2]


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


def average_error(residuals: np.ndarray) -> float:
    """Root-mean-square residual; doubles as the noise-scale estimate."""
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("no residuals")
    return float(math.sqrt(float(r @ r) / r.size))


@dataclass(frozen=True)
class FitOptions:
    """Solver settings for a batch of firm fits.

    A firm's fit is converged when the max-abs projected gradient of its
    residual sum of squares is below tol, or when the undamped
    Gauss-Newton step over the coordinates not held at a bound moves
    every coordinate by less than tol. max_iter caps each firm's
    accepted steps. Every firm of a batch is judged on its own.
    """

    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self) -> None:
        tol = self.tol
        if (isinstance(tol, bool) or not isinstance(tol, (int, float))
                or not (math.isfinite(tol) and tol > 0.0)):
            raise ValueError(f"tol must be finite and > 0, got {tol!r}")
        if type(self.max_iter) is not int:  # no bools
            raise ValueError(f"max_iter must be an int, got {self.max_iter!r}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray           # (n, P) optimum of every problem
    iterations: np.ndarray  # (n,) accepted steps per problem
    converged: np.ndarray   # (n,) bool per problem
    n_evals: int            # residual+Jacobian evaluations, summed over problems


def _solve_each(mat: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve mat[i] @ s[i] = rhs[i] for every i; ok is False where mat[i] is singular.

    One stacked solve; only when it raises is the stack solved system by
    system, so a singular system costs no other system its answer.
    """
    try:
        return (np.linalg.solve(mat, rhs[:, :, None])[:, :, 0],
                np.ones(len(rhs), dtype=bool))
    except np.linalg.LinAlgError:
        out = np.zeros_like(rhs)
        ok = np.ones(len(rhs), dtype=bool)
        for i in range(len(rhs)):
            try:
                out[i] = np.linalg.solve(mat[i], rhs[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return out, ok


def minimize_bounded(fun, x0, bounds, tol: float = 1e-8,
                     max_iter: int = 500) -> MinimizeResult:
    """Minimize each row's sum(r**2) over its box by projected Levenberg-Marquardt.

    The n problems of the batch are rows of x0 (n, P) and of the bounds
    lo, hi (each (n, P)). fun(x, rows) evaluates the problems whose
    indices are rows at the points x (len(rows), P) and returns their
    residuals r (len(rows), M) and Jacobians J (len(rows), M, P). A
    coordinate with lo == hi (such as padding) is never free. A bound
    coordinate whose gradient points out of the box is held for the
    step; the rest take the step solving (J^T J + lambda diag(J^T J)) d
    = -J^T r, and the trial point is clipped to the box.

    Each sweep checks every unfinished problem for convergence (the rule
    stated on FitOptions, checked before every step and again at the
    max_iter cap; damping never makes a step count as small), then makes
    one damped trial per problem, all in one stacked solve. A trial is
    accepted only if it strictly lowers that problem's sum of squares;
    then its lambda falls tenfold, else it rises tenfold and the problem
    tries again next sweep. So each problem runs the same sequence of
    trials as it would alone. A problem stops when it converges, at
    max_iter accepted steps, when its lambda passes LM_LAMBDA_MAX, or
    when its damped system is singular. n_evals sums the evaluations
    of all problems.
    """
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    n, n_par = x.shape
    pinned = lo >= hi
    eye = np.eye(n_par, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    lam = np.full(n, LM_LAMBDA_START)
    active = np.arange(n)
    n_evals = 0
    if n:
        r, J = fun(x, active)
        n_evals = n
        sse = np.einsum("nm,nm->n", r, r)
    while active.size:
        xa, ra, Ja, la, ha = (v[active] for v in (x, r, J, lo, hi))
        g = (ra[:, None, :] @ Ja)[:, 0]  # half the gradient of the sum of squares
        A = Ja.transpose(0, 2, 1) @ Ja
        conv = np.all(np.abs(xa - np.clip(xa - 2.0 * g, la, ha)) < tol, axis=1)
        free = ~(((xa <= la) & (g > 0.0)) | ((xa >= ha) & (g < 0.0))
                 | pinned[active])
        # held coordinates become identity rows and columns with a zero
        # right-hand side, so they stay put and decouple from the rest
        mat = np.where(free[:, :, None] & free[:, None, :], A, eye)
        rhs = np.where(free, g, 0.0)
        test = np.flatnonzero(~conv)
        # ok is False where J^T J is singular: then there is no Gauss-Newton step
        step, ok = _solve_each(mat[test], rhs[test])
        moved = np.clip(xa[test] - step, la[test], ha[test]) - xa[test]
        conv[test] = ok & np.all(np.abs(moved) < tol, axis=1)
        converged[active] = conv

        go = np.flatnonzero(~conv & (iterations[active] < max_iter))
        damp = np.where(free, np.maximum(A.diagonal(axis1=1, axis2=2),
                                         LM_DIAG_FLOOR), 0.0)
        step, ok = _solve_each(
            mat[go] + (lam[active[go], None] * damp[go])[:, :, None] * eye,
            rhs[go])
        go, step = go[ok], step[ok]  # a singular damped system stops its problem
        rows = active[go]
        xn = np.where(free[go], np.clip(xa[go] - step, la[go], ha[go]), xa[go])
        if rows.size:
            rn, Jn = fun(xn, rows)
            n_evals += rows.size
            sse_n = np.einsum("nm,nm->n", rn, rn)
            better = sse_n < sse[rows]
            won = rows[better]
            x[won], r[won], J[won], sse[won] = (xn[better], rn[better],
                                                Jn[better], sse_n[better])
            lam[won] = np.maximum(lam[won] / 10.0, LM_LAMBDA_MIN)
            iterations[won] += 1
            lam[rows[~better]] *= 10.0
        active = rows[lam[rows] <= LM_LAMBDA_MAX]
    return MinimizeResult(x=x, iterations=iterations, converged=converged,
                          n_evals=n_evals)


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters and diagnostics for one firm."""

    alpha: float
    beta: float
    strengths: dict[str, float]   # customer id -> fitted k
    sigma: float
    sse: float
    average_error: float
    iterations: int
    converged: bool
    degenerate: bool = False


def _check_identified(n_periods: int, n_customers: int) -> None:
    """Raise unless a firm with n_customers customers can be fitted."""
    if n_periods < MIN_PERIODS:
        raise ValueError(f"need at least {MIN_PERIODS} periods, got {n_periods}")
    n_params, n_resid = 2 + n_customers, n_periods - 2
    if n_params >= n_resid:
        raise UnderdeterminedError(
            f"{n_params} parameters vs {n_resid} usable residuals")


def _fit_stacked(revenue: np.ndarray, capital: np.ndarray, labor: np.ndarray,
                 customers: list[dict[str, int]], growth: np.ndarray,
                 options: FitOptions) -> list[FitResult]:
    """Fit each row of revenue, capital and labor in one solve.

    Row i is fitted against customers[i], which maps that firm's
    customer ids, sorted, to their rows of growth (growth_gap_matrix).
    Every firm's parameters (alpha, beta, k_1 .. k_C) are padded to the
    largest customer count C; a padded strength is pinned at 0 and its
    growth gap is 0.
    """
    n = len(customers)
    n_use = growth.shape[1]
    n_cust = max(map(len, customers), default=0)
    real = np.arange(n_cust) < np.array(
        [len(c) for c in customers], dtype=int).reshape(n, 1)
    gap = np.zeros((n, n_cust, n_use))
    gap[real] = growth[[j for c in customers for j in c.values()]]
    jac_k = -gap.transpose(0, 2, 1)
    rev_ratio = revenue[:, 2:] / revenue[:, 1:-1]
    ln_kr = np.log(capital[:, 2:] / capital[:, 1:-1])
    ln_lr = np.log(labor[:, 2:] / labor[:, 1:-1])

    def residual(x: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lk, ll = ln_kr[rows], ln_lr[rows]
        prod = np.exp(x[:, :1] * lk + x[:, 1:2] * ll)
        eps = rev_ratio[rows] - prod - (x[:, None, 2:] @ gap[rows])[:, 0]
        jac = np.empty(lk.shape + (2 + n_cust,))
        jac[:, :, 0] = -prod * lk
        jac[:, :, 1] = -prod * ll
        jac[:, :, 2:] = jac_k[rows]
        return eps, jac

    def per_firm(elasticity: float, strength: float) -> np.ndarray:
        return np.hstack([np.full((n, 2), elasticity),
                          np.where(real, strength, 0.0)])

    res = minimize_bounded(
        residual, per_firm(INIT_ELASTICITY, INIT_STRENGTH),
        (per_firm(ELASTICITY_BOUNDS[0], STRENGTH_BOUNDS[0]),
         per_firm(ELASTICITY_BOUNDS[1], STRENGTH_BOUNDS[1])),
        tol=options.tol, max_iter=options.max_iter)
    eps, _ = residual(res.x, np.arange(n))
    fits = []
    for i, custs in enumerate(customers):
        avg = average_error(eps[i])
        converged = bool(res.converged[i])
        iterations = int(res.iterations[i])
        fits.append(FitResult(
            alpha=float(res.x[i, 0]),
            beta=float(res.x[i, 1]),
            strengths={cid: float(res.x[i, 2 + j]) for j, cid in enumerate(custs)},
            sigma=avg,
            sse=float(eps[i] @ eps[i]),
            average_error=avg,
            iterations=iterations,
            converged=converged,
            degenerate=converged and iterations == 0,
        ))
    return fits


def fit_firm(firm: FirmSeries, customers: dict[str, FirmSeries],
             gdp: np.ndarray, options: FitOptions = FitOptions()) -> FitResult:
    """Least-squares fit of (alpha, beta, k_per_customer) for one firm.

    Starts from neutral values and walks the residual sum of squares
    down with projected Levenberg-Marquardt on the exact Jacobian (the
    residual is linear in the strengths), then backs the noise scale
    out of the residuals at the optimum. converged follows the rule
    stated on FitOptions: the projected gradient or the undamped
    Gauss-Newton step is below options.tol. A flat objective (e.g. a
    perfectly constant panel) converges at the starting point and is
    flagged degenerate. This is fit_all's batched fit on a batch of one.
    """
    gdp = np.asarray(gdp, dtype=float)
    if gdp.size != len(firm):
        raise ValueError("gdp length differs from firm series")
    _check_identified(len(firm), len(customers))
    ids, growth = _customer_gaps(customers, gdp)
    (fit,) = _fit_stacked(firm.revenue[None], firm.capital[None],
                          firm.labor[None], [dict(zip(ids, range(len(ids))))],
                          growth, options)
    return fit


@dataclass(frozen=True)
class CalibrationReport:
    """Economy-wide fit: per-firm results, failures, and histograms."""

    results: dict[str, FitResult]
    failures: dict[str, str]
    histograms: dict[str, dict] = field(default_factory=dict)


def _histograms(fits) -> dict:
    """Histograms of fitted elasticities, their sum, strengths and errors.

    fits yields (alpha, beta, strengths, average_error) per firm, with
    strengths an iterable of that firm's fitted link strengths.
    """
    fits = list(fits)
    columns = {
        "alpha": [a for a, _, _, _ in fits],
        "beta": [b for _, b, _, _ in fits],
        "alpha_plus_beta": [a + b for a, b, _, _ in fits],
        "strength": [k for _, _, ks, _ in fits for k in ks],
        "average_error": [err for _, _, _, err in fits],
    }
    out = {}
    for name, values in columns.items():
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            out[name] = {"counts": [], "edges": []}
            continue
        counts, edges = np.histogram(arr, bins=20)
        out[name] = {"counts": [int(c) for c in counts],
                     "edges": [float(e) for e in edges]}
    return out


def fit_all(panel: PanelSeries, network: TransactionNetwork,
            options: FitOptions = FitOptions()) -> CalibrationReport:
    """Fit every firm in the panel against its customers in the network.

    Per-firm failures (short series, underdetermined) are collected
    rather than raised; every other firm is fitted in one batched solve,
    padded to the largest customer count. Histograms summarize the
    fitted elasticities, their sum, all fitted strengths, and the
    per-firm average errors. A panel firm the network lacks is refused
    with a ValueError naming it before any fit runs; a network firm the
    panel lacks is no one's customer here.
    """
    rows = panel.rows
    failures: dict[str, str] = {}
    fitted: list[str] = []
    customers: list[dict[str, int]] = []
    for fid in panel.firm_ids:
        if fid not in network.index:
            raise ValueError(f"firm {fid!r} is only in the panel")
        custs = {cid: rows[cid] for cid, _ in network.customers_of(fid)
                 if cid in rows}
        try:
            _check_identified(panel.n_periods, len(custs))
        except ValueError as exc:  # UnderdeterminedError included
            failures[fid] = str(exc)
            continue
        fitted.append(fid)
        customers.append(custs)
    pos = [rows[fid] for fid in fitted]
    fits = _fit_stacked(panel.revenue[pos], panel.capital[pos],
                        panel.labor[pos], customers,
                        growth_gap_matrix(panel.revenue, panel.gdp), options)
    results = dict(zip(fitted, fits))
    histograms = _histograms((r.alpha, r.beta, r.strengths.values(),
                              r.average_error) for r in results.values())
    return CalibrationReport(results=results, failures=failures,
                             histograms=histograms)
