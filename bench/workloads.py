"""The benchmark's three workloads: inputs from a seed, a timed job, checks.

Each workload builds its inputs in ``setup`` (timed as set-up, not as
the job), runs one unit of work per ``job`` call, and verifies the
outputs in ``check`` outside every timed region. The package is driven
only through its public functions and ``chainsim.cli.main``, always
looked up as module attributes at call time so that a traced run sees
the wrappers ``tracing.installed`` puts there.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import statistics
import traceback
from collections import defaultdict
from time import perf_counter
from types import SimpleNamespace as Job

import numpy as np

from chainsim import calibration, cascade, cli, game, netgen
from chainsim import io as cio
from chainsim.cascade import CascadeConfig
from chainsim.netgen import GeneratorConfig


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Problem sizes; the benchmark runs FULL, its tests TINY."""

    recovery_firms: int = 100
    recovery_economies: int = 45    # economies a run cycles through
    pipeline_firms: int = 1000
    sweep_firms: int = 1000
    sweep_chunk: int = 25           # cascades per sweep job
    oracle_triggers: int = 8        # seeded sample checked by brute force
    setup_repeats: int = 9


FULL = Sizes()
TINY = Sizes(recovery_firms=50, recovery_economies=2, pipeline_firms=40,
             sweep_firms=60, sweep_chunk=20, oracle_triggers=4,
             setup_repeats=1)

# Criterion 2's hit rule and thresholds.
RECOVERY_TOL = 0.05
RECOVERED_MIN = 0.90
SMALL_ERROR_MIN = 0.99

# Criterion 5's economy with its links made six times stronger.
SWEEP_ECONOMY_SEED = 55
SWEEP_LINK_FACTOR = 6.0
SWEEP_GDP_GROWTH = 1.02

# The README's command-line chain.
PIPELINE_ECONOMY_SEED = 3
PIPELINE_TRIGGER = "F0007"
PIPELINE_SIMULATE_SEED = 9


@contextlib.contextmanager
def no_span(name):
    """Stand-in for ``Tracer.span`` in untraced runs."""
    yield


def unit_times(jobs: list[Job]) -> dict:
    """Each unit of work's mean time over its repeats.

    A job's ``unit`` names the work it did, the same in every repeat;
    ``norm`` is its time at the reference speed (``bench.hostspeed``).
    Scaled times scatter both ways around the unit's time, so the mean
    of a few repeats is steadier than their median.
    """
    times = defaultdict(list)
    for j in jobs:
        times[j.unit].append(j.norm)
    return {unit: statistics.mean(t) for unit, t in times.items()}


class Recovery:
    """Criterion 2's shape: simulate 100-firm economies, fit them back.

    A run cycles through a batch of economies, economy e drawn with seed
    ``seed * 10000 + e``; job i takes economy ``i mod batch``.
    Generation and simulation are part of the job. The work of an
    economy repeats exactly, so each economy's time is the mean of its
    repeats, and the run's time is the mean over the batch.
    """

    name = "recovery"

    def __init__(self, sizes: Sizes, seed: int, work_dir: str) -> None:
        self.sizes = sizes
        self.seed = seed
        self.batch = sizes.recovery_economies
        self.fixed_jobs = self.batch
        self.warmup_jobs = 1
        self.min_jobs = self.batch
        self.pass_jobs = 1

    def setup(self) -> None:
        pass

    def job(self, i: int, span) -> Job:
        cfg = GeneratorConfig(n_firms=self.sizes.recovery_firms,
                              seed=self.seed * 10_000 + i % self.batch)
        t0 = perf_counter()
        economy, network, macro = netgen.generate_economy(cfg)
        sim = netgen.forward_simulate(economy, network, macro, noise_on=True,
                                      decision_jitter=cfg.decision_jitter,
                                      seed=cfg.seed)
        report = calibration.fit_all(sim.panel, network)
        wall = perf_counter() - t0
        # scored here, so that a run keeps no economy and its memory
        # does not grow with the number of jobs
        return Job(unit=cfg.seed, wall=wall,
                   **_score_fits(economy, network, report))

    def check(self, jobs: list[Job]) -> list[str]:
        stats = self.summary(jobs)
        scores = {(j.unit, j.hits, j.small_error, j.fit_failed)
                  for j in jobs}
        problems = [f"economy {e}: fits differ between repeats"
                    for e in sorted({s[0] for s in scores})
                    if sum(s[0] == e for s in scores) > 1]
        if stats["recovered_frac"] < RECOVERED_MIN:
            problems.append(f"recovered_frac {stats['recovered_frac']:.4f} "
                            f"< {RECOVERED_MIN}")
        if stats["small_error_frac"] < SMALL_ERROR_MIN:
            problems.append(f"small-error share {stats['small_error_frac']:.4f}"
                            f" < {SMALL_ERROR_MIN}")
        return problems

    def summary(self, jobs: list[Job]) -> dict:
        """Mean over the batch of each economy's time.

        The mean, not the median: economies that fall back to the GA
        take up to five times as long, and which of them a seeded batch
        holds moves the median more than the mean. Fit quality is
        counted once per economy.
        """
        times, first = unit_times(jobs), {}
        for j in jobs:
            first.setdefault(j.unit, j)
        once = first.values()
        firms = sum(j.firms for j in once)
        return {
            "wall_s": statistics.mean(times.values()),
            "firms_per_s": firms / sum(times.values()),
            "recovered_frac": sum(j.hits for j in once) / firms,
            "small_error_frac": (sum(j.small_error for j in once)
                                 / sum(j.fitted for j in once)),
            "failed_frac": sum(j.fit_failed for j in once) / firms,
            "repeats": len(jobs) / len(times),
        }

    def operations(self, jobs: list[Job]) -> tuple[int, int]:
        """Operations attempted and failed: one per economy simulated and
        fitted, repeats included."""
        return len(jobs), 0


def _score_fits(economy, network, report) -> dict:
    """Criterion 2's scoring of one economy's fits against the truth.

    A fit carries a strength for every customer of its firm, so its
    strengths are compared edge by edge with ``network.strength``,
    which the tracer does not count.
    """
    hits = small_error = 0
    for fid, truth in economy.params.items():
        fit = report.results.get(fid)
        if fit is None:
            continue   # an unfittable firm counts as a miss
        small_error += fit.average_error < RECOVERY_TOL
        hits += (abs(fit.alpha - truth.alpha) <= RECOVERY_TOL
                 and abs(fit.beta - truth.beta) <= RECOVERY_TOL
                 and all(abs(k - network.strength(fid, c)) <= RECOVERY_TOL
                         for c, k in fit.strengths.items()))
    not_converged = sum(not r.converged for r in report.results.values())
    return {"firms": len(economy.params), "hits": hits,
            "small_error": small_error, "fitted": len(report.results),
            "fit_failed": len(report.failures) + not_converged}


class Pipeline:
    """The README's chain through ``cli.main`` on real files.

    generate -> calibrate -> report -> cascade -> simulate, on the
    README's seed-3 economy. A job is one command; job i runs command
    ``i mod 5``, so five jobs are one chain, and a run ends on a whole
    chain. Every chain does the same work, so each command's time is
    the mean of its runs and the chain's is their sum. The workload
    seed goes to ``calibrate`` and
    ``cascade`` (it seeds the game's GA streams), not to ``generate``:
    the drawn economy sets how many GA fallbacks the chain runs, which
    would make its time depend more on the seed than on the code.
    """

    name = "pipeline"
    stages = ("generate", "calibrate", "report", "cascade", "simulate")

    def __init__(self, sizes: Sizes, seed: int, work_dir: str) -> None:
        self.sizes = sizes
        self.seed = seed
        self.dir = os.path.join(work_dir, "pipeline")
        self.fixed_jobs = len(self.stages)
        # a chain is seconds long and the first is no slower than later
        # ones, so it is timed rather than spent on warming up
        self.warmup_jobs = 0
        self.min_jobs = self.pass_jobs = len(self.stages)

    def _path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def setup(self) -> None:
        data = ["--panel", self._path("data", "panel.csv"),
                "--edges", self._path("data", "edges.csv"),
                "--gdp", self._path("data", "gdp.csv")]
        fit_report = self._path("fit", "fit_report.json")
        params = self._path("data", "params.csv")
        seed = str(self.seed)
        self.argvs = {
            "generate": ["generate", "--out-dir", self._path("data"),
                         "--firms", str(self.sizes.pipeline_firms),
                         "--seed", str(PIPELINE_ECONOMY_SEED)],
            "calibrate": ["calibrate", *data, "--out-dir", self._path("fit"),
                          "--seed", seed],
            "report": ["report", "--fit-report", fit_report,
                       "--out-dir", self._path("fit")],
            "cascade": ["cascade", *data, "--params", params,
                        "--fit-report", fit_report,
                        "--trigger", PIPELINE_TRIGGER,
                        "--out-dir", self._path("shock"), "--seed", seed],
            "simulate": ["simulate", *data, "--params", params,
                         "--horizon", "11",
                         "--seed", str(PIPELINE_SIMULATE_SEED),
                         "--out-dir", self._path("forward")],
        }
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def job(self, i: int, span) -> Job:
        stage = self.stages[i % len(self.stages)]
        if stage == self.stages[0]:
            shutil.rmtree(self.dir)
            os.makedirs(self.dir)
        sink = io.StringIO()
        t0 = perf_counter()
        with span(f"cli.{stage}"), contextlib.redirect_stdout(sink):
            code = cli.main(self.argvs[stage])
        wall = perf_counter() - t0
        digest = self._digest() if stage == self.stages[-1] else None
        return Job(unit=stage, wall=wall, code=code, digest=digest)

    def _digest(self) -> str:
        h = hashlib.sha256()
        for base, _, files in sorted(os.walk(self.dir)):
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, self.dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()

    def check(self, jobs: list[Job]) -> list[str]:
        """Exit codes, CSV reloads and cascade.json against run_cascade.

        Reads the files the last job left behind; earlier jobs must have
        written byte-identical files.
        """
        problems = [f"job {i}: {j.unit} exited {j.code}"
                    for i, j in enumerate(jobs) if j.code != 0]
        if problems:
            return problems
        if len({j.digest for j in jobs if j.unit == self.stages[-1]}) != 1:
            problems.append("repeated chains wrote different files")
        panel = cio.load_panel(self._path("data", "panel.csv"))
        macro = cio.load_gdp(self._path("data", "gdp.csv"))
        panel = cio.attach_gdp(panel, macro)
        network = cio.load_edges(self._path("data", "edges.csv"),
                                 panel.firm_ids)
        params = cio.load_params(self._path("data", "params.csv"))
        forward = cio.load_panel(self._path("forward", "panel_sim.csv"))
        cio.load_gdp(self._path("forward", "gdp_sim.csv"))
        if panel.firm_ids != forward.firm_ids:
            problems.append("simulated panel covers other firms")
        for name in ("network.dot", "network.graphml"):
            if os.path.getsize(self._path("shock", name)) == 0:
                problems.append(f"{name} is empty")

        with open(self._path("fit", "fit_report.json"), encoding="utf-8") as fh:
            fits = json.load(fh)
        params, network = _overlay_fits(fits, params, network)
        economy = netgen.economy_from_panel(panel, params)
        result = cascade.run_cascade(
            economy, network,
            CascadeConfig(trigger_firms=(PIPELINE_TRIGGER,),
                          gdp_growth=macro.ratio(len(macro) - 1)),
            seed=self.seed)
        expected = json.loads(json.dumps(cio.cascade_payload(result)))
        with open(self._path("shock", "cascade.json"), encoding="utf-8") as fh:
            written = json.load(fh)
        for key in ("config", "seed"):
            expected.pop(key)
            written.pop(key)
        if written != expected:
            problems.append("cascade.json differs from an in-process "
                            "run_cascade on the same inputs")
        return problems

    def summary(self, jobs: list[Job]) -> dict:
        with open(self._path("fit", "fit_report.json"), encoding="utf-8") as fh:
            fits = json.load(fh)
        not_converged = sum(not r["converged"] for r in fits["firms"].values())
        commands, bad_exits = self.operations(jobs)
        fits_run = sum(j.unit == "calibrate" for j in jobs)
        attempted = fits_run * self.sizes.pipeline_firms + commands
        times = unit_times(jobs)
        wall = sum(times.values())
        out = {
            "wall_s": wall,
            "firms_per_s": self.sizes.pipeline_firms / wall,
            "failed_frac": (fits_run * (len(fits["failures"]) + not_converged)
                            + bad_exits) / attempted,
        }
        for stage in ("generate", "calibrate", "cascade", "simulate"):
            out[f"{stage}_s"] = times[stage]
        return out

    def operations(self, jobs: list[Job]) -> tuple[int, int]:
        """Commands run, and those that exited non-zero."""
        return len(jobs), sum(j.code != 0 for j in jobs)


def _overlay_fits(fits: dict, params: dict, network):
    """Fitted elasticities and strengths over the true inputs.

    The same overlay ``chainsim cascade --fit-report`` applies, written
    out here so the check does not call into the CLI's internals.
    """
    params = dict(params)
    overrides = {}
    for fid, rec in fits["firms"].items():
        if fid in params:
            params[fid] = dataclasses.replace(
                params[fid], alpha=float(rec["alpha"]), beta=float(rec["beta"]))
        for cid, k in rec["strengths"].items():
            overrides[(fid, cid)] = float(k)
    known = {(s, c) for s, c, _ in network.edges()}
    return params, network.with_strengths(
        {e: k for e, k in overrides.items() if e in known})


class CascadeSweep:
    """Every firm of criterion 5's economy as the only trigger, in turn.

    Decisions are frozen with ``nash_solve``; then one ``run_cascade``
    per firm. The per-firm cascade size is the systemic-importance
    ranking. A job is one chunk of ``sweep_chunk`` triggers; job ``i``
    takes chunk ``i mod chunks``, and the first chunk of every pass
    also runs ``nash_solve``, so one pass of jobs is one whole sweep.
    Each chunk repeats exactly in every pass, so the sweep's time is the
    sum over the chunks of each one's mean time.
    The economy is fixed: its giant vulnerable cluster sets the cost of
    the sweep, and it differs by about a fifth between drawn economies.
    The workload seed sets the order of the sweep, and so which
    triggers share a chunk, and the triggers checked by brute force.
    """

    name = "cascade_sweep"

    def __init__(self, sizes: Sizes, seed: int, work_dir: str) -> None:
        self.sizes = sizes
        self.seed = seed
        self.chunks = -(-sizes.sweep_firms // sizes.sweep_chunk)
        self.fixed_jobs = self.chunks
        self.warmup_jobs = 1
        self.min_jobs = self.chunks
        self.pass_jobs = 1

    def setup(self) -> None:
        cfg = GeneratorConfig(n_firms=self.sizes.sweep_firms,
                              seed=SWEEP_ECONOMY_SEED)
        self.economy, network, _ = netgen.generate_economy(cfg)
        self.network = network.with_strengths(
            {(s, c): k * SWEEP_LINK_FACTOR for s, c, k in network.edges()})
        rng = np.random.default_rng(self.seed)
        ids = self.economy.firm_ids
        self.order = [ids[i] for i in rng.permutation(len(ids))]
        self.sample = sorted(rng.choice(ids, self.sizes.oracle_triggers,
                                        replace=False).tolist())

    def job(self, i: int, span) -> Job:
        chunk = i % self.chunks
        firms = self.order[chunk * self.sizes.sweep_chunk:
                           (chunk + 1) * self.sizes.sweep_chunk]
        latencies = np.empty(len(firms))
        sizes, raised = {}, 0
        t0 = perf_counter()
        if chunk == 0:
            self.decisions = game.nash_solve(self.economy, self.network,
                                             SWEEP_GDP_GROWTH).decisions
        for n, firm in enumerate(firms):
            t1 = perf_counter()
            try:
                result = cascade.run_cascade(
                    self.economy, self.network,
                    CascadeConfig(trigger_firms=(firm,),
                                  gdp_growth=SWEEP_GDP_GROWTH),
                    decisions=self.decisions)
                sizes[firm] = len(result.bankrupt)
            except Exception:
                traceback.print_exc()
                raised += 1
                sizes[firm] = -1
            latencies[n] = perf_counter() - t1
        return Job(unit=chunk, wall=perf_counter() - t0,
                   firms=firms, latencies=latencies, sizes=sizes,
                   raised=raised)

    def _sizes(self, jobs: list[Job]) -> tuple[dict, set]:
        """Cascade size per firm over all jobs, and firms whose size varied."""
        sizes, varied = {}, set()
        for j in jobs:
            for firm, size in j.sizes.items():
                if sizes.setdefault(firm, size) != size:
                    varied.add(firm)
        return sizes, varied

    def check(self, jobs: list[Job]) -> list[str]:
        sizes, varied = self._sizes(jobs)
        problems = [f"trigger {f}: cascade size differs between sweeps"
                    for f in sorted(varied)]
        if len(sizes) != len(self.order):
            return problems + [f"{len(sizes)} of {len(self.order)} firms "
                               "swept"]
        largest = max(sizes, key=lambda f: (sizes[f], f))
        oracle = _FixedPoint(self.economy, self.network, self.decisions,
                             SWEEP_GDP_GROWTH)
        for firm in sorted(set(self.sample) | {largest}):
            result = cascade.run_cascade(
                self.economy, self.network,
                CascadeConfig(trigger_firms=(firm,),
                              gdp_growth=SWEEP_GDP_GROWTH),
                decisions=self.decisions)
            dead = oracle.dead(firm)
            if set(result.bankrupt) != dead or sizes[firm] != len(dead):
                problems.append(f"trigger {firm}: {sizes[firm]} bankrupt in "
                                f"the sweep, brute force finds {len(dead)}")
        return problems

    def summary(self, jobs: list[Job]) -> dict:
        """Sweep time: the sum of each chunk's mean time."""
        wall = sum(unit_times(jobs).values())
        latencies = np.concatenate([j.latencies for j in jobs])
        cascades = latencies.size
        sizes, _ = self._sizes(jobs)
        vector = [sizes.get(f) for f in self.economy.firm_ids]
        return {
            "wall_s": wall,
            "firms_per_s": len(sizes) / wall,
            "cascades_per_s": cascades / float(latencies.sum()),
            "cascade_ms_p50": float(np.percentile(latencies, 50)) * 1e3,
            "cascade_ms_p99": float(np.percentile(latencies, 99)) * 1e3,
            "cascade_samples": cascades,
            "failed_frac": sum(j.raised for j in jobs) / cascades,
            "bankruptcies_per_sweep": sum(sizes.values()),
            "sizes_digest": hashlib.sha256(repr(vector).encode()).hexdigest(),
        }

    def operations(self, jobs: list[Job]) -> tuple[int, int]:
        """Cascades plus one nash_solve per sweep, and cascades that raised."""
        return (sum(len(j.sizes) + (j.unit == 0) for j in jobs),
                sum(j.raised for j in jobs))


class _FixedPoint:
    """Brute-force bankrupt set, re-derived without the cascade module.

    Repeats full passes over every live firm with the frozen decisions
    until a pass turns nobody, as criterion 4's oracle does; only the
    zero-revenue policy the sweep uses is written out.
    """

    def __init__(self, economy, network, decisions, gdp_growth) -> None:
        self.firms = {}
        customers = {f: [] for f in economy.params}
        for s, c, k in network.edges():
            customers[s].append((c, k))
        for f, st in economy.states.items():
            p, dec = economy.params[f], decisions[f]
            growth = ((dec.capital / st.capital) ** p.alpha
                      * (dec.labor / st.labor) ** p.beta)
            cost = (p.cost_coeff * dec.capital ** p.alpha * dec.labor ** p.beta
                    + p.interest_rate * dec.capital + dec.labor)
            self.firms[f] = (st.revenue, growth, cost, st.equity, customers[f])
        self.growth = {f: st.revenue / st.prev_revenue
                       for f, st in economy.states.items()}
        self.g = gdp_growth

    def dead(self, trigger: str) -> set[str]:
        dead = {trigger}
        while True:
            new = set()
            for f, (revenue, growth, cost, equity, custs) in self.firms.items():
                if f in dead:
                    continue
                terms = sum(k * ((0.0 if c in dead else self.growth[c]) - self.g)
                            for c, k in custs)
                rev = revenue * (growth + terms)
                if rev <= 0.0:
                    rev = 1e-6 * revenue
                if equity + rev - cost < 0.0:
                    new.add(f)
            if not new:
                return dead
            dead |= new


WORKLOADS = {w.name: w for w in (Recovery, Pipeline, CascadeSweep)}
