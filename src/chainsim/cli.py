"""Command-line interface: generate | calibrate | cascade | simulate | report.

Every command validates its inputs before writing anything and stages
its outputs under temporary names in its out dir, renamed into place
only once it has succeeded: a nonzero exit neither leaves partial
results behind nor replaces earlier ones.
Flags beat config-file values beat defaults.

Each setting is checked once, by the library type that takes it
(GeneratorConfig, FitOptions, CascadeConfig, economy_from_panel). The
CLI checks only config files, generate's noise_on, the trigger and
format names, cascade's gdp_ratio, the seeds that calibrate and
cascade only echo, and fit reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import io as cio
from .calibration import ELASTICITY_BOUNDS, FitOptions, fit_all, _histograms
from .cascade import CascadeConfig, run_cascade
from .econ import (MacroSeries, POLICIES, POSITIVE, ZERO_REVENUE,
                   check_numbers, finite_number)
from .netgen import (
    GeneratorConfig,
    economy_from_panel,
    forward_simulate,
    generate_gdp,
    simulate_economy,
)

FORMATS = ("json", "dot", "graphml")


class CliError(Exception):
    pass


class _Outputs:
    """Stages a command's files in its out dir under temporary names;
    commit renames them into place, discard removes those still staged."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.staged: list[tuple[str, str]] = []  # (staged, final) paths

    def write(self, name: str, writer, *args) -> str:
        """writer(path, *args), staged for name in the out dir (made if
        missing); returns the path the file will have."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        staged = cio.temp_path(path)
        self.staged.append((staged, path))
        writer(staged, *args)
        return path

    def commit(self) -> None:
        for staged, path in self.staged:
            os.replace(staged, path)

    def discard(self) -> None:
        for staged, _ in self.staged:
            try:
                os.unlink(staged)
            except OSError:  # not written, or already renamed
                pass


def _load_config_file(path: str | None, keys) -> dict:
    """The JSON object at path, refused if it holds a key not in keys."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise CliError(f"config {path} must hold a JSON object")
    unknown = set(cfg) - set(keys)
    if unknown:
        raise CliError(f"config {path}: unknown keys {sorted(unknown)}")
    return cfg


def _pick(cli_value, cfg: dict, key: str, default):
    if cli_value is not None:
        return cli_value
    if key in cfg:
        return cfg[key]
    return default


def _integer(value, key: str) -> int | None:
    """value itself, or a CliError unless it is an int or None (no bools)."""
    if value is not None and type(value) is not int:
        raise CliError(f"{key} must be an integer, got {value!r}")
    return value


def _names(value, key: str) -> list[str]:
    """A name as a one-name list, a list of names as it is; anything
    else is a CliError naming key."""
    if isinstance(value, str):
        return [value]
    if not (isinstance(value, (list, tuple))
            and all(isinstance(v, str) for v in value)):
        raise CliError(f"{key} must be a name or a list of names, "
                       f"got {value!r}")
    return list(value)


def _cmd_generate(args: argparse.Namespace, out: _Outputs) -> int:
    cfg = _load_config_file(
        args.config,
        [f.name for f in dataclasses.fields(GeneratorConfig)] + ["noise_on"])
    noise_on = cfg.pop("noise_on", True)
    if not isinstance(noise_on, bool):
        raise CliError(f"noise_on must be true or false, got {noise_on!r}")
    noise_on = noise_on and not args.no_noise
    for key in ("n_firms", "horizon", "edge_model", "mean_out_degree", "seed"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    try:
        gen = GeneratorConfig(**cfg)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad generator config: {exc}") from None

    economy, network, macro, result = simulate_economy(gen, noise_on=noise_on)
    echo = dataclasses.asdict(gen)
    echo["noise_on"] = noise_on
    for name, writer, rows in (("panel.csv", cio.write_panel, result.panel),
                               ("edges.csv", cio.write_edges, network),
                               ("gdp.csv", cio.write_gdp, macro),
                               ("params.csv", cio.write_params, economy.params)):
        out.write(name, writer, rows, echo, gen.seed)
    print(f"generated {gen.n_firms} firms, {network.n_edges()} edges, "
          f"{gen.horizon} periods -> {args.out_dir} "
          f"({len(result.floor_events)} revenue floor events)")
    return 0


def _load_panel_bundle(args) -> tuple:
    panel = cio.load_panel(args.panel)
    macro = cio.load_gdp(args.gdp)
    panel = cio.attach_gdp(panel, macro)
    network = cio.load_edges(args.edges, panel.firm_ids)
    return panel, macro, network


def _cmd_calibrate(args: argparse.Namespace, out: _Outputs) -> int:
    cfg = _load_config_file(args.config, ("tol", "max_iter", "seed"))
    options = FitOptions(
        tol=_pick(args.tol, cfg, "tol", FitOptions.tol),
        max_iter=_pick(args.max_iter, cfg, "max_iter", FitOptions.max_iter))
    seed = _integer(_pick(args.seed, cfg, "seed", None), "seed")
    panel, _, network = _load_panel_bundle(args)
    report = fit_all(panel, network, options)
    if not report.results:
        fid, reason = next(iter(report.failures.items()))
        raise CliError(f"no firm could be fitted ({len(report.failures)} "
                       f"failures; firm {fid!r}: {reason})")
    echo = {"panel": args.panel, "edges": args.edges, "gdp": args.gdp,
            "tol": float(options.tol), "max_iter": options.max_iter}
    path = out.write("fit_report.json", cio.export_fit_report, report, echo,
                     seed)
    n_stuck = sum(not r.converged for r in report.results.values())
    print(f"calibrated {len(report.results)} firms "
          f"({len(report.failures)} failures, {n_stuck} not converged) "
          f"-> {path}")
    return 0


def _read_fit_report(path: str) -> dict:
    """The fit report at path, with what the commands read of it checked.

    firms and failures must be objects. Each firm record needs finite
    numeric alpha, beta and average_error, and finite numeric strengths
    if it has any; alpha and beta must lie in calibration's
    ELASTICITY_BOUNDS. Anything else is a CliError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read fit report {path}: {exc}") from None
    firms = report.get("firms") if isinstance(report, dict) else None
    if not (isinstance(firms, dict)
            and isinstance(report.get("failures", {}), dict)):
        raise CliError(f"fit report {path} must hold an object of firms "
                       "and, if any, of failures")
    for fid, rec in firms.items():
        strengths = rec.get("strengths", {}) if isinstance(rec, dict) else None
        if not (isinstance(strengths, dict) and all(map(finite_number, (
                rec.get("alpha"), rec.get("beta"), rec.get("average_error"),
                *strengths.values())))):
            raise CliError(f"fit report {path}: firm {fid!r} needs finite "
                           "numeric alpha, beta, average_error and strengths")
        lo, hi = ELASTICITY_BOUNDS
        if not (lo <= rec["alpha"] <= hi and lo <= rec["beta"] <= hi):
            raise CliError(f"fit report {path}: firm {fid!r} has alpha or "
                           f"beta outside calibration's bounds [{lo}, {hi}]")
    return report


def _apply_fit_report(path: str, params: dict, network):
    """Overlay fitted elasticities and strengths onto truth inputs; a
    report firm or link the inputs lack is a CliError."""
    new_params = dict(params)
    overrides = {}
    for fid, rec in _read_fit_report(path)["firms"].items():
        if fid not in new_params:
            raise CliError(f"fit report {path}: firm {fid!r} is not in "
                           "the params")
        new_params[fid] = dataclasses.replace(
            new_params[fid], alpha=float(rec["alpha"]), beta=float(rec["beta"]))
        for cid, k in rec.get("strengths", {}).items():
            try:
                network.strength(fid, cid)
            except KeyError:
                raise CliError(f"fit report {path}: link ({fid!r}, {cid!r}) "
                               "is not in the network") from None
            overrides[(fid, cid)] = float(k)
    return new_params, network.with_strengths(overrides)


def _load_economy(args) -> tuple:
    """The panel bundle, the params with any fit report laid over them,
    and the economy read off the panel's last two periods."""
    panel, macro, network = _load_panel_bundle(args)
    params = cio.load_params(args.params)
    if args.fit_report:
        params, network = _apply_fit_report(args.fit_report, params, network)
    return panel, macro, network, economy_from_panel(panel, params)


def _cmd_cascade(args: argparse.Namespace, out: _Outputs) -> int:
    cfg = _load_config_file(args.config, ("trigger", "policy", "max_generations",
                                          "gdp_ratio", "format", "seed"))
    _, macro, network, economy = _load_economy(args)
    triggers = _names(args.trigger or cfg.get("trigger") or [], "trigger")
    if not triggers:
        raise CliError("no trigger firms given (use --trigger)")
    policy = _pick(args.policy, cfg, "policy", ZERO_REVENUE)
    max_gen = _pick(args.max_generations, cfg, "max_generations", None)
    if args.gdp_ratio is None and "gdp_ratio" not in cfg:
        gdp_growth = macro.ratio(len(macro) - 1)
    else:
        gdp_growth = _pick(args.gdp_ratio, cfg, "gdp_ratio", None)
        check_numbers((("gdp_ratio", POSITIVE),), (gdp_growth,))
        gdp_growth = float(gdp_growth)
    formats = _names(_pick(args.format, cfg, "format", FORMATS), "format")
    if not formats or not set(formats) <= set(FORMATS):
        raise CliError(f"format must name one or more of {FORMATS}, "
                       f"got {formats!r}")
    seed = _integer(_pick(args.seed, cfg, "seed", None), "seed")
    config = CascadeConfig(
        trigger_firms=tuple(triggers),
        gdp_growth=gdp_growth,
        policy=policy,
        max_generations=max_gen,
    )
    result = run_cascade(economy, network, config)
    money_flow = not args.product_flow
    echo = {"panel": args.panel, "edges": args.edges, "gdp": args.gdp,
            "params": args.params, "fit_report": args.fit_report,
            "trigger": sorted(triggers), "policy": policy,
            "gdp_ratio": gdp_growth,
            "max_generations": max_gen,
            "money_flow": money_flow}
    written = [out.write(name, writer, *rows) for fmt, name, writer, rows in (
        ("json", "cascade.json", cio.export_cascade, (result, echo, seed)),
        ("dot", "network.dot", cio.export_network_dot,
         (network, result, money_flow)),
        ("graphml", "network.graphml", cio.export_network_graphml,
         (network, result, money_flow)),
    ) if fmt in formats]
    print(f"cascade: {len(result.bankrupt)} bankrupt over "
          f"{result.generations_run} generations -> {' '.join(written)}")
    return 0


def _cmd_simulate(args: argparse.Namespace, out: _Outputs) -> int:
    cfg = _load_config_file(args.config, ("horizon", "seed", "decision_jitter",
                                          "gdp_growth", "gdp_volatility"))
    panel, macro, network, economy = _load_economy(args)
    ratios = [macro.ratio(t) for t in range(1, len(macro))]
    gen = GeneratorConfig(
        horizon=_pick(args.horizon, cfg, "horizon", 11),
        seed=_pick(args.seed, cfg, "seed", 0),
        decision_jitter=_pick(args.decision_jitter, cfg, "decision_jitter",
                              0.0),
        gdp_start=macro.gdp[-1],
        gdp_growth=_pick(args.gdp_growth, cfg, "gdp_growth",
                         float(np.mean(ratios) - 1.0)),
        gdp_volatility=_pick(args.gdp_volatility, cfg, "gdp_volatility",
                             float(np.std(ratios))))
    jitter = float(gen.decision_jitter)
    start = panel.periods[-1]
    drawn = generate_gdp(gen, np.random.default_rng([gen.seed, 7]))
    future = MacroSeries(gdp=drawn.gdp,
                         periods=tuple(range(start, start + gen.horizon)))
    result = forward_simulate(
        economy, network, future,
        noise_on=not args.no_noise,
        decision_jitter=jitter,
        seed=gen.seed,
    )
    echo = {"panel": args.panel, "edges": args.edges, "gdp": args.gdp,
            "params": args.params, "fit_report": args.fit_report,
            "horizon": gen.horizon, "gdp_growth": float(gen.gdp_growth),
            "gdp_volatility": float(gen.gdp_volatility),
            "decision_jitter": jitter, "noise_on": not args.no_noise}
    path = out.write("panel_sim.csv", cio.write_panel, result.panel, echo,
                     gen.seed)
    out.write("gdp_sim.csv", cio.write_gdp, future, echo, gen.seed)
    print(f"simulated {gen.horizon} periods for {len(panel.firm_ids)} firms "
          f"-> {path} ({len(result.floor_events)} revenue floor events)")
    return 0


def _cmd_report(args: argparse.Namespace, out: _Outputs) -> int:
    report = _read_fit_report(args.fit_report)
    firms = report["firms"]
    if not firms:
        raise CliError(f"{args.fit_report} holds no firm results")
    histograms = _histograms((r["alpha"], r["beta"],
                              r.get("strengths", {}).values(),
                              r["average_error"]) for r in firms.values())
    payload = {
        "config": {"fit_report": args.fit_report},
        "seed": report.get("seed"),
        "n_firms": len(firms),
        "n_failures": len(report.get("failures", {})),
        "histograms": histograms,
    }
    path = out.write("histograms.json", cio.write_json, payload)
    print(f"report for {len(firms)} firms -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainsim",
        description="Simulate, calibrate and stress firm transaction networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, panel=False, params=False):
        """A subcommand with a required --out-dir; panel adds the
        required --panel, --edges and --gdp, params the required
        --params and an optional --fit-report."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--out-dir", required=True)
        if panel:
            for flag in ("--panel", "--edges", "--gdp"):
                p.add_argument(flag, required=True)
        if params:
            p.add_argument("--params", required=True)
            p.add_argument("--fit-report")
        return p

    p = command("generate", _cmd_generate, "draw a synthetic economy and panel")
    p.add_argument("--firms", type=int, dest="n_firms", metavar="FIRMS")
    p.add_argument("--horizon", type=int)
    p.add_argument("--edge-model", choices=("random", "scale-free"))
    p.add_argument("--mean-out-degree", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--no-noise", action="store_true")
    p.add_argument("--config")

    p = command("calibrate", _cmd_calibrate,
                "fit firm parameters from a panel", panel=True)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")

    p = command("cascade", _cmd_cascade,
                "propagate bankruptcies from triggers", panel=True, params=True)
    p.add_argument("--trigger", action="append")
    p.add_argument("--policy", choices=POLICIES)
    p.add_argument("--max-generations", type=int)
    p.add_argument("--gdp-ratio", type=float)
    p.add_argument("--format", action="append", choices=FORMATS)
    p.add_argument("--product-flow", action="store_true",
                   help="orient exports along product flow instead of money flow")
    p.add_argument("--seed", type=int,
                   help="echoed into cascade.json; changes no result")
    p.add_argument("--config")

    p = command("simulate", _cmd_simulate,
                "roll a calibrated economy forward", panel=True, params=True)
    p.add_argument("--horizon", type=int)
    p.add_argument("--gdp-growth", type=float)
    p.add_argument("--gdp-volatility", type=float)
    p.add_argument("--decision-jitter", type=float)
    p.add_argument("--no-noise", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--config")

    p = command("report", _cmd_report, "histogram summary of a fit report")
    p.add_argument("--fit-report", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Outputs(args.out_dir)
    try:
        status = args.func(args, out)
        out.commit()
        return status
    except (CliError, cio.FormatError, ValueError, OSError) as exc:
        print(f"chainsim: {exc}", file=sys.stderr)
        return 2
    finally:
        out.discard()


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
