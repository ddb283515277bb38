"""Command-line interface: generate | calibrate | cascade | simulate | report.

Every command validates its inputs before writing anything, writes
each output atomically, and removes whatever it did write if a later
step fails, so a nonzero exit never leaves partial results behind.
Flags beat config-file values beat defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import io as cio
from .calibration import ELASTICITY_BOUNDS, FitOptions, fit_all, _histograms
from .cascade import CascadeConfig, run_cascade
from .econ import MacroSeries, POLICIES, ZERO_REVENUE
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
    """Tracks written files so a failing command can take them back."""

    def __init__(self) -> None:
        self.paths: list[str] = []

    def write(self, writer, path: str, *args, **kwargs) -> None:
        writer(path, *args, **kwargs)
        self.paths.append(path)

    def discard(self) -> None:
        for path in self.paths:
            try:
                os.unlink(path)
            except OSError:
                pass


def _load_config_file(path: str | None, keys) -> dict:
    """The JSON object at path, refused if it holds a key not in keys."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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


def _number(value, key: str) -> float:
    """float(value), or a CliError unless value is an int or a float.

    Flags arrive as floats already; a config bool or numeric string is
    refused, not read as 1.0 or parsed.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"{key} must be a number, got {value!r}")
    return float(value)


def _integer(value, key: str) -> int:
    """value itself, or a CliError unless it is an int (bools refused)."""
    if type(value) is not int:
        raise CliError(f"{key} must be an integer, got {value!r}")
    return value


def _ensure_out_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def _cmd_generate(args: argparse.Namespace, out: _Outputs) -> int:
    cfg = _load_config_file(
        args.config,
        [f.name for f in dataclasses.fields(GeneratorConfig)] + ["noise_on"])
    noise_on = cfg.get("noise_on", True)
    if not isinstance(noise_on, bool):
        raise CliError(f"noise_on must be true or false, got {noise_on!r}")
    noise_on = noise_on and not args.no_noise
    values = {k: v for k, v in cfg.items() if k != "noise_on"}
    for key, cli_value in (("n_firms", args.firms),
                           ("horizon", args.horizon),
                           ("edge_model", args.edge_model),
                           ("mean_out_degree", args.mean_out_degree),
                           ("seed", args.seed)):
        if cli_value is not None:
            values[key] = cli_value
    for key in ("n_firms", "horizon", "seed"):
        if key in values:
            _integer(values[key], key)
    try:
        gen = GeneratorConfig(**values)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad generator config: {exc}") from None

    economy, network, macro, result = simulate_economy(gen, noise_on=noise_on)
    echo = dataclasses.asdict(gen)
    echo["noise_on"] = noise_on
    _ensure_out_dir(args.out_dir)
    join = lambda name: os.path.join(args.out_dir, name)
    out.write(cio.write_panel, join("panel.csv"), result.panel, echo, gen.seed)
    out.write(cio.write_edges, join("edges.csv"), network, echo, gen.seed)
    out.write(cio.write_gdp, join("gdp.csv"), macro, echo, gen.seed)
    out.write(cio.write_params, join("params.csv"), economy.params, echo, gen.seed)
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
    tol = _number(_pick(args.tol, cfg, "tol", FitOptions.tol), "tol")
    max_iter = _pick(args.max_iter, cfg, "max_iter", FitOptions.max_iter)
    seed = _pick(args.seed, cfg, "seed", None)
    if seed is not None:
        _integer(seed, "seed")
    options = FitOptions(tol=tol, max_iter=max_iter)
    panel, _, network = _load_panel_bundle(args)
    report = fit_all(panel, network, options)
    echo = {"panel": args.panel, "edges": args.edges, "gdp": args.gdp,
            "tol": tol, "max_iter": max_iter}
    _ensure_out_dir(args.out_dir)
    path = os.path.join(args.out_dir, "fit_report.json")
    out.write(cio.export_fit_report, path, report, echo, seed)
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
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read fit report {path}: {exc}") from None
    firms = report.get("firms") if isinstance(report, dict) else None
    if not (isinstance(firms, dict)
            and isinstance(report.get("failures", {}), dict)):
        raise CliError(f"fit report {path} must hold an object of firms "
                       "and, if any, of failures")
    for fid, rec in firms.items():
        strengths = rec.get("strengths", {}) if isinstance(rec, dict) else None
        if not (isinstance(strengths, dict)
                and all(type(v) in (int, float)  # bools are not numbers here
                        for v in (rec.get("alpha"), rec.get("beta"),
                                  rec.get("average_error"),
                                  *strengths.values()))):
            raise CliError(f"fit report {path}: firm {fid!r} needs numeric "
                           "alpha, beta, average_error and strengths")
        if not all(math.isfinite(v) for v in (rec["alpha"], rec["beta"],
                                              rec["average_error"],
                                              *strengths.values())):
            raise CliError(f"fit report {path}: firm {fid!r} has a "
                           "non-finite value")
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


def _cmd_cascade(args: argparse.Namespace, out: _Outputs) -> int:
    cfg = _load_config_file(args.config, ("trigger", "policy", "max_generations",
                                          "gdp_ratio", "format", "seed"))
    panel, macro, network = _load_panel_bundle(args)
    params = cio.load_params(args.params)
    if args.fit_report:
        params, network = _apply_fit_report(args.fit_report, params, network)
    triggers = args.trigger or cfg.get("trigger") or []
    if isinstance(triggers, str):
        triggers = [triggers]
    if not (isinstance(triggers, list) and all(isinstance(t, str) for t in triggers)):
        raise CliError(f"trigger must be a firm id or a list of ids, got {triggers!r}")
    if not triggers:
        raise CliError("no trigger firms given (use --trigger)")
    policy = _pick(args.policy, cfg, "policy", ZERO_REVENUE)
    max_gen = _pick(args.max_generations, cfg, "max_generations", None)
    gdp_growth = _number(_pick(args.gdp_ratio, cfg, "gdp_ratio",
                               macro.ratio(len(macro) - 1)), "gdp_ratio")
    formats = _pick(args.format, cfg, "format", FORMATS)
    if isinstance(formats, str):
        formats = [formats]
    if not (isinstance(formats, (list, tuple)) and formats
            and all(isinstance(f, str) for f in formats)):
        raise CliError("format must be a format name or a non-empty list "
                       f"of them, got {formats!r}")
    for fmt in formats:
        if fmt not in FORMATS:
            raise CliError(f"unknown format {fmt!r}")
    seed = _pick(args.seed, cfg, "seed", None)
    if seed is not None:
        _integer(seed, "seed")
    economy = economy_from_panel(panel, params)
    try:
        config = CascadeConfig(
            trigger_firms=tuple(triggers),
            gdp_growth=gdp_growth,
            policy=policy,
            max_generations=max_gen,
        )
        result = run_cascade(economy, network, config)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    echo = {"panel": args.panel, "edges": args.edges, "gdp": args.gdp,
            "params": args.params, "fit_report": args.fit_report,
            "trigger": sorted(triggers), "policy": policy,
            "gdp_ratio": gdp_growth,
            "max_generations": max_gen,
            "money_flow": not args.product_flow}
    _ensure_out_dir(args.out_dir)
    money_flow = not args.product_flow
    written = []
    if "json" in formats:
        path = os.path.join(args.out_dir, "cascade.json")
        out.write(cio.export_cascade, path, result, echo, seed)
        written.append(path)
    if "dot" in formats:
        path = os.path.join(args.out_dir, "network.dot")
        out.write(cio.export_network_dot, path, network, result, money_flow)
        written.append(path)
    if "graphml" in formats:
        path = os.path.join(args.out_dir, "network.graphml")
        out.write(cio.export_network_graphml, path, network, result, money_flow)
        written.append(path)
    print(f"cascade: {len(result.bankrupt)} bankrupt over "
          f"{result.generations_run} generations -> {' '.join(written)}")
    return 0


def _cmd_simulate(args: argparse.Namespace, out: _Outputs) -> int:
    cfg = _load_config_file(args.config, ("horizon", "seed", "decision_jitter",
                                          "gdp_growth", "gdp_volatility"))
    horizon = _integer(_pick(args.horizon, cfg, "horizon", 11), "horizon")
    if horizon < 3:
        raise CliError("horizon must be >= 3")
    seed = _integer(_pick(args.seed, cfg, "seed", 0), "seed")
    jitter = _number(_pick(args.decision_jitter, cfg, "decision_jitter", 0.0),
                     "decision_jitter")
    panel, macro, network = _load_panel_bundle(args)
    params = cio.load_params(args.params)
    if args.fit_report:
        params, network = _apply_fit_report(args.fit_report, params, network)
    ratios = [macro.ratio(t) for t in range(1, len(macro))]
    growth = _number(_pick(args.gdp_growth, cfg, "gdp_growth",
                           np.mean(ratios) - 1.0 if ratios else 0.02),
                     "gdp_growth")
    vol = _number(_pick(args.gdp_volatility, cfg, "gdp_volatility",
                        np.std(ratios) if ratios else 0.0),
                  "gdp_volatility")
    economy = economy_from_panel(panel, params)

    drawn = generate_gdp(
        GeneratorConfig(horizon=horizon, gdp_start=macro.gdp[-1],
                        gdp_growth=growth, gdp_volatility=vol),
        np.random.default_rng([seed, 7]))
    start = panel.periods[-1]
    future = MacroSeries(gdp=drawn.gdp,
                         periods=tuple(range(start, start + horizon)))
    result = forward_simulate(
        economy, network, future,
        noise_on=not args.no_noise,
        decision_jitter=jitter,
        seed=seed,
    )
    echo = {"panel": args.panel, "edges": args.edges, "gdp": args.gdp,
            "params": args.params, "fit_report": args.fit_report,
            "horizon": horizon, "gdp_growth": growth,
            "gdp_volatility": vol, "decision_jitter": jitter,
            "noise_on": not args.no_noise}
    _ensure_out_dir(args.out_dir)
    panel_path = os.path.join(args.out_dir, "panel_sim.csv")
    gdp_path = os.path.join(args.out_dir, "gdp_sim.csv")
    out.write(cio.write_panel, panel_path, result.panel, echo, seed)
    out.write(cio.write_gdp, gdp_path, future, echo, seed)
    print(f"simulated {horizon} periods for {len(panel.firm_ids)} firms -> "
          f"{panel_path} ({len(result.floor_events)} revenue floor events)")
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
    _ensure_out_dir(args.out_dir)
    path = os.path.join(args.out_dir, "histograms.json")
    out.write(cio._atomic_write_text, path,
              json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"report for {len(firms)} firms -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainsim",
        description="Simulate, calibrate and stress firm transaction networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a synthetic economy and panel")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--firms", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--edge-model", choices=("random", "scale-free"))
    p.add_argument("--mean-out-degree", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--no-noise", action="store_true")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("calibrate", help="fit firm parameters from a panel")
    p.add_argument("--panel", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--gdp", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("cascade", help="propagate bankruptcies from triggers")
    p.add_argument("--panel", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--gdp", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--fit-report")
    p.add_argument("--trigger", action="append")
    p.add_argument("--policy", choices=POLICIES)
    p.add_argument("--max-generations", type=int)
    p.add_argument("--gdp-ratio", type=float)
    p.add_argument("--format", action="append", choices=FORMATS)
    p.add_argument("--product-flow", action="store_true",
                   help="orient exports along product flow instead of money flow")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int,
                   help="echoed into cascade.json; changes no result")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_cascade)

    p = sub.add_parser("simulate", help="roll a calibrated economy forward")
    p.add_argument("--panel", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--gdp", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--fit-report")
    p.add_argument("--horizon", type=int)
    p.add_argument("--gdp-growth", type=float)
    p.add_argument("--gdp-volatility", type=float)
    p.add_argument("--decision-jitter", type=float)
    p.add_argument("--no-noise", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="histogram summary of a fit report")
    p.add_argument("--fit-report", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Outputs()
    try:
        return args.func(args, out)
    except (CliError, cio.FormatError, ValueError, OSError) as exc:
        out.discard()
        print(f"chainsim: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))
