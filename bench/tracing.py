"""In-memory span tracer that wraps chainsim's public functions from outside.

Modules import each other's functions by name, so a function is wrapped
at every module attribute its callers look up (for example both
``chainsim.cli.fit_all`` and ``chainsim.calibration.fit_all``).
``installed`` puts the wrappers in place and always restores the
originals, so nothing under ``src/`` changes and an untraced run in the
same process sees the plain functions.

Three kinds of wrapper keep the overhead proportional to what is asked:

* span: one record per call (name, parent, start, end), for calls that
  do real work;
* aggregate: count and time summed per parent span, for calls made
  hundreds of thousands of times (``evaluate_supplier``,
  ``best_response_closed_form``);
* count: a plain counter, for lookups so cheap that timing them would
  cost more than they do (``customers_of``, ``suppliers_of``,
  ``customer_terms_sum``).

Times are integer nanoseconds from ``perf_counter_ns``, so the self
times of all spans add up exactly to the root span's duration.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import Counter, defaultdict
from time import perf_counter_ns

from chainsim import calibration, cascade, cli, econ, game, netgen
from chainsim import io as cio

IO_LOADS = ("load_panel", "load_gdp", "load_edges", "load_params")
IO_WRITES = ("write_panel", "write_gdp", "write_edges", "write_params",
             "export_fit_report", "export_cascade", "export_network_dot",
             "export_network_graphml")
CLI_COMMANDS = ("generate", "calibrate", "report", "cascade", "simulate")

# name -> counters reported for it, besides calls and self_s
SPAN_COUNTERS = {
    "netgen.generate_economy": (),
    "netgen.forward_simulate": ("firm_periods", "floor_events"),
    "game.best_response_ga": (),
    "game.nash_solve": (),
    "calibration.fit_all": (),
    "calibration.fit_firm": ("iterations", "not_converged", "failures"),
    "bfgs.minimize_bounded": ("objective_evals",),
    "cascade.run_cascade": (),
    "cascade.propagate_step": (),
    **{f"io.{fn}": ("bytes",) for fn in IO_LOADS + IO_WRITES},
}
AGGREGATED = ("game.best_response_closed_form", "cascade.evaluate_supplier")
COUNT_ONLY = ("econ.customers_of", "econ.suppliers_of",
              "econ.customer_terms_sum")
ROOT = "bench.job"


class Tracer:
    """Spans and counters of one traced job, kept in memory."""

    def __init__(self) -> None:
        # span: [name, parent index, start ns, end ns, child ns]
        self.spans: list[list] = []
        self.stack: list[int] = []
        # (parent index, name) -> [calls, ns] for aggregated calls
        self.aggregates: dict[tuple[int, str], list[int]] = defaultdict(
            lambda: [0, 0])
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, perf_counter_ns(), 0, 0])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = perf_counter_ns()
        self.stack.pop()
        if span[1] >= 0:
            self.spans[span[1]][4] += span[3] - span[2]

    def add_aggregate(self, name: str, ns: int) -> None:
        parent = self.stack[-1]
        agg = self.aggregates[(parent, name)]
        agg[0] += 1
        agg[1] += ns
        self.spans[parent][4] += ns

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def self_ns(self) -> Counter:
        """Self time per name: duration minus the time children cover."""
        out: Counter = Counter()
        for name, _, start, end, child in self.spans:
            out[name] += end - start - child
        for (_, name), (_, ns) in self.aggregates.items():
            out[name] += ns
        return out

    def calls(self) -> Counter:
        out = Counter(span[0] for span in self.spans)
        for (_, name), (n, _) in self.aggregates.items():
            out[name] += n
        return out

    def dump(self) -> dict:
        """Plain-data form of the trace, for writing out after the run."""
        return {
            "spans": [[name, parent, start, end]
                      for name, parent, start, end, _ in self.spans],
            "aggregates": [[parent, name, n, ns] for (parent, name), (n, ns)
                           in sorted(self.aggregates.items())],
            "counts": dict(sorted(self.counts.items())),
        }


def _span(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.counts[f"{name}.failures"] += 1
            raise
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer.counts, args, result)
        return result
    return wrapper


def _aggregate(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.add_aggregate(name, perf_counter_ns() - t0)
        if after is not None:
            after(tracer.counts, args, result)
        return result
    return wrapper


def _count(tracer: Tracer, name: str, fn):
    counts = tracer.counts
    key = f"{name}.calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _after_forward_simulate(counts, args, result):
    economy, _, macro = args[:3]
    counts["netgen.forward_simulate.firm_periods"] += (
        len(economy.params) * (len(macro) - 1))
    counts["netgen.forward_simulate.floor_events"] += len(result.floor_events)


def _after_fit_firm(counts, args, result):
    counts["calibration.fit_firm.iterations"] += result.iterations
    counts["calibration.fit_firm.not_converged"] += not result.converged


def _after_minimize(counts, args, result):
    counts["bfgs.minimize_bounded.objective_evals"] += result.n_evals


def _after_run_cascade(counts, args, result):
    counts["cascade.bankruptcies"] += len(result.bankrupt)


def _after_evaluate(counts, args, result):
    counts["cascade.evaluate_supplier.turned"] += result.went_bankrupt


def _after_io(name):
    key = f"io.{name}.bytes"

    def after(counts, args, result):
        counts[key] += os.path.getsize(args[0])
    return after


def _sites(tracer: Tracer):
    """(owner, attribute, wrapper) for every lookup site that is traced."""
    fwd = _span(tracer, "netgen.forward_simulate", netgen.forward_simulate,
                _after_forward_simulate)
    fit_all = _span(tracer, "calibration.fit_all", calibration.fit_all)
    nash = _span(tracer, "game.nash_solve", game.nash_solve)
    run = _span(tracer, "cascade.run_cascade", cascade.run_cascade,
                _after_run_cascade)
    terms = _count(tracer, "econ.customer_terms_sum", econ.customer_terms_sum)
    sites = [
        (netgen, "generate_economy",
         _span(tracer, "netgen.generate_economy", netgen.generate_economy)),
        (netgen, "forward_simulate", fwd),
        (cli, "forward_simulate", fwd),
        (game, "best_response_closed_form",
         _aggregate(tracer, "game.best_response_closed_form",
                    game.best_response_closed_form)),
        (game, "best_response_ga",
         _span(tracer, "game.best_response_ga", game.best_response_ga)),
        (game, "nash_solve", nash),
        (cascade, "nash_solve", nash),
        (econ.TransactionNetwork, "customers_of",
         _count(tracer, "econ.customers_of",
                econ.TransactionNetwork.customers_of)),
        (econ.TransactionNetwork, "suppliers_of",
         _count(tracer, "econ.suppliers_of",
                econ.TransactionNetwork.suppliers_of)),
        (netgen, "customer_terms_sum", terms),
        (game, "customer_terms_sum", terms),
        (calibration, "fit_all", fit_all),
        (cli, "fit_all", fit_all),
        (calibration, "fit_firm",
         _span(tracer, "calibration.fit_firm", calibration.fit_firm,
               _after_fit_firm)),
        (calibration, "minimize_bounded",
         _span(tracer, "bfgs.minimize_bounded", calibration.minimize_bounded,
               _after_minimize)),
        (cascade, "run_cascade", run),
        (cli, "run_cascade", run),
        (cascade, "propagate_step",
         _span(tracer, "cascade.propagate_step", cascade.propagate_step)),
        (cascade, "evaluate_supplier",
         _aggregate(tracer, "cascade.evaluate_supplier",
                    cascade.evaluate_supplier, _after_evaluate)),
    ]
    for fn in IO_LOADS + IO_WRITES:
        sites.append((cio, fn, _span(tracer, f"io.{fn}", getattr(cio, fn),
                                     _after_io(fn))))
    return sites


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced lookup site for the duration of the block."""
    sites = _sites(tracer)
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in sites]
    try:
        for owner, attr, wrapper in sites:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced job, every name always present."""
    self_ns = tracer.self_ns()
    calls = tracer.calls()
    counts = tracer.counts
    out: dict[str, float] = {}
    for name, extra in SPAN_COUNTERS.items():
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
        for counter in extra:
            out[f"{name}.{counter}"] = counts[f"{name}.{counter}"]
    for name in AGGREGATED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    for name in COUNT_ONLY:
        out[f"{name}.calls"] = counts[f"{name}.calls"]
    for command in CLI_COMMANDS:
        out[f"cli.{command}.self_s"] = self_ns[f"cli.{command}"] / 1e9
    out["bench.job.self_s"] = self_ns[ROOT] / 1e9
    out["cascade.bankruptcies"] = counts["cascade.bankruptcies"]
    evals = calls["cascade.evaluate_supplier"]
    out["cascade.useful_eval_ratio"] = (
        counts["cascade.evaluate_supplier.turned"] / evals if evals else 0.0)
    return out
