"""Maximum-likelihood calibration of firm parameters from panel data.

Given per-firm time series of revenue, capital and labor plus a GDP
series, the one-step revenue identity leaves a residual per usable
period. Under Gaussian residuals, maximizing the likelihood in the
elasticities and coupling strengths is least squares on the residuals;
the noise scale is profiled out and recovered afterwards.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class FirmSeries:
    """One firm's panel: aligned revenue, capital and labor arrays."""

    revenue: np.ndarray
    capital: np.ndarray
    labor: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.revenue, dtype=float)
        k = np.asarray(self.capital, dtype=float)
        l = np.asarray(self.labor, dtype=float)
        if not (r.shape == k.shape == l.shape) or r.ndim != 1:
            raise ValueError("revenue/capital/labor must be equal-length 1-D arrays")
        for name, arr in (("revenue", r), ("capital", k), ("labor", l)):
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
                raise ValueError(f"{name} series must be finite and > 0")
        object.__setattr__(self, "revenue", r)
        object.__setattr__(self, "capital", k)
        object.__setattr__(self, "labor", l)

    def __len__(self) -> int:
        return self.revenue.size


@dataclass(frozen=True)
class PanelSeries:
    """Panel for a whole economy: per-firm series plus the GDP series.

    All firms share the same period labels. Equity is carried along
    when known (simulated panels always have it); calibration ignores
    it, cascade initialization needs it.
    """

    firms: dict[str, FirmSeries]
    gdp: np.ndarray
    periods: tuple[int, ...]
    equity: dict[str, np.ndarray] | None = None

    def __post_init__(self) -> None:
        gdp = np.asarray(self.gdp, dtype=float)
        if gdp.ndim != 1 or not np.all(np.isfinite(gdp)) or np.any(gdp <= 0.0):
            raise ValueError("gdp series must be 1-D, finite and > 0")
        object.__setattr__(self, "gdp", gdp)
        object.__setattr__(self, "periods", tuple(int(p) for p in self.periods))
        if len(self.periods) != gdp.size:
            raise ValueError("periods and gdp lengths differ")
        for fid, series in self.firms.items():
            if len(series) != gdp.size:
                raise ValueError(f"firm {fid!r} series length differs from gdp")
        if self.equity is not None:
            for fid, arr in self.equity.items():
                if fid not in self.firms:
                    raise ValueError(f"equity for unknown firm {fid!r}")
                if np.asarray(arr).shape != (gdp.size,):
                    raise ValueError(f"equity length differs for firm {fid!r}")

    @property
    def firm_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.firms))

    @property
    def n_periods(self) -> int:
        return int(self.gdp.size)

    def firm(self, fid: str) -> FirmSeries:
        return self.firms[fid]


def growth_gap_matrix(customers: dict[str, FirmSeries],
                      gdp: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Customer growth ratios minus GDP growth, per customer per usable t.

    Rows follow sorted customer ids; columns are usable positions
    1..T-2, where the ratios compare periods t-1 -> t (lagged, like the
    revenue identity wants them).
    """
    gdp = np.asarray(gdp, dtype=float)
    n_use = gdp.size - 2
    ids = tuple(sorted(customers))
    gap = np.empty((len(ids), n_use))
    g_ratio = gdp[1:-1] / gdp[:-2]
    for row, cid in enumerate(ids):
        r = customers[cid].revenue
        gap[row] = r[1:-1] / r[:-2] - g_ratio
    return ids, gap


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
        ids, gap = growth_gap_matrix(customers, gdp)
        kvec = np.array([strengths[c] for c in ids])
        eps = eps - kvec @ gap
    return eps


def neg_log_likelihood_core(residuals: np.ndarray, sigma: float) -> float:
    """Varying part of the Gaussian negative log-likelihood.

    sum(eps^2) / (2 sigma^2); the normalization constant is dropped
    since it does not move under the parameter search.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be > 0")
    r = np.asarray(residuals, dtype=float)
    return float(r @ r) / (2.0 * sigma * sigma)


def average_error(residuals: np.ndarray) -> float:
    """Root-mean-square residual; doubles as the noise-scale estimate."""
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("no residuals")
    return float(math.sqrt(float(r @ r) / r.size))


@dataclass(frozen=True)
class FitOptions:
    """Solver settings for one firm's fit.

    A fit is converged when the max-abs projected gradient of its
    residual sum of squares is below tol, or when the undamped
    Gauss-Newton step over the coordinates not held at a bound moves
    every coordinate by less than tol. max_iter caps the accepted steps.
    """

    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol!r}")
        if (isinstance(self.max_iter, bool)
                or not isinstance(self.max_iter, int)):
            raise ValueError(f"max_iter must be an int, got {self.max_iter!r}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    iterations: int       # accepted steps
    converged: bool
    n_evals: int          # residual+Jacobian evaluations


def minimize_bounded(fun, x0, bounds, tol: float = 1e-8,
                     max_iter: int = 500) -> MinimizeResult:
    """Minimize sum(r**2) over a box by projected Levenberg-Marquardt.

    fun(x) returns the residual vector r and its Jacobian J. A bound
    coordinate whose gradient points out of the box is held for the
    step; the rest take the step solving (J^T J + lambda diag(J^T J)) d
    = -J^T r, and the trial point is clipped to the box. A step is
    accepted only if it strictly lowers the sum of squares. converged
    follows the rule stated on FitOptions, checked before every step
    and again at the max_iter cap; damping never makes a step count as
    small.
    """
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r, J = fun(x)
    n_evals = 1
    sse = float(r @ r)
    lam = LM_LAMBDA_START
    iterations = 0
    while True:
        g = J.T @ r  # half the gradient of the sum of squares
        converged = bool(np.all(np.abs(x - np.clip(x - 2.0 * g, lo, hi)) < tol))
        free = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
        A = (J.T @ J)[np.ix_(free, free)]
        xf, gf, lof, hif = x[free], g[free], lo[free], hi[free]
        if not converged:
            try:
                step = np.clip(xf - np.linalg.solve(A, gf), lof, hif) - xf
                converged = bool(np.all(np.abs(step) < tol))
            except np.linalg.LinAlgError:
                pass  # singular J^T J has no Gauss-Newton step
        if converged or iterations >= max_iter:
            break
        damp = np.diag(np.maximum(np.diag(A), LM_DIAG_FLOOR))
        while lam <= LM_LAMBDA_MAX:
            xn = x.copy()
            xn[free] = np.clip(xf - np.linalg.solve(A + lam * damp, gf),
                               lof, hif)
            rn, Jn = fun(xn)
            n_evals += 1
            if float(rn @ rn) < sse:
                break
            lam *= 10.0
        else:
            break  # no damping left that lowers the sum of squares
        x, r, J, sse = xn, rn, Jn, float(rn @ rn)
        lam = max(lam / 10.0, LM_LAMBDA_MIN)
        iterations += 1
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
    flagged degenerate.
    """
    gdp = np.asarray(gdp, dtype=float)
    T = len(firm)
    if T < MIN_PERIODS:
        raise ValueError(f"need at least {MIN_PERIODS} periods, got {T}")
    if gdp.size != T:
        raise ValueError("gdp length differs from firm series")
    n_resid = T - 2
    ids = tuple(sorted(customers))
    n_params = 2 + len(ids)
    if n_params >= n_resid:
        raise UnderdeterminedError(
            f"{n_params} parameters vs {n_resid} usable residuals")

    r, k, l = firm.revenue, firm.capital, firm.labor
    rev_ratio = r[2:] / r[1:-1]
    ln_kr = np.log(k[2:] / k[1:-1])
    ln_lr = np.log(l[2:] / l[1:-1])
    jac0 = np.zeros((n_resid, n_params))
    if ids:
        _, gap = growth_gap_matrix(dict(customers), gdp)
        jac0[:, 2:] = -gap.T

    def residual(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        prod = np.exp(x[0] * ln_kr + x[1] * ln_lr)
        eps = rev_ratio - prod
        if ids:
            eps = eps - x[2:] @ gap
        jac = jac0.copy()
        jac[:, 0] = -prod * ln_kr
        jac[:, 1] = -prod * ln_lr
        return eps, jac

    lo = np.array([ELASTICITY_BOUNDS[0]] * 2 + [STRENGTH_BOUNDS[0]] * len(ids))
    hi = np.array([ELASTICITY_BOUNDS[1]] * 2 + [STRENGTH_BOUNDS[1]] * len(ids))
    x0 = np.array([INIT_ELASTICITY] * 2 + [INIT_STRENGTH] * len(ids))
    res = minimize_bounded(residual, x0, (lo, hi), tol=options.tol,
                           max_iter=options.max_iter)

    strengths = {cid: float(res.x[2 + i]) for i, cid in enumerate(ids)}
    eps = residual_series(firm, dict(customers), gdp,
                          float(res.x[0]), float(res.x[1]), strengths)
    avg = average_error(eps)
    return FitResult(
        alpha=float(res.x[0]),
        beta=float(res.x[1]),
        strengths=strengths,
        sigma=avg,
        sse=float(eps @ eps),
        average_error=avg,
        iterations=res.iterations,
        converged=res.converged,
        degenerate=res.converged and res.iterations == 0,
    )


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
        arr = np.asarray(sorted(values), dtype=float)
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
    rather than raised. Histograms summarize the fitted elasticities,
    their sum, all fitted strengths, and the per-firm average errors.
    """
    results: dict[str, FitResult] = {}
    failures: dict[str, str] = {}
    for fid in panel.firm_ids:
        customers = {cid: panel.firm(cid)
                     for cid, _ in network.customers_of(fid)
                     if cid in panel.firms}
        try:
            results[fid] = fit_firm(panel.firm(fid), customers,
                                    panel.gdp, options)
        except ValueError as exc:  # UnderdeterminedError included
            failures[fid] = str(exc)
    histograms = _histograms((r.alpha, r.beta, r.strengths.values(),
                              r.average_error) for r in results.values())
    return CalibrationReport(results=results, failures=failures,
                             histograms=histograms)
