"""File formats: CSV panels/edges/gdp/params, JSON reports, DOT/GraphML.

All writers are atomic (temp file then rename) and deterministic:
sorted keys, fixed field order, floats via repr so a written file loads
back bit-identically. Loaders skip blank lines and '#' comments (the
writers put the config echo there) and cite the offending line number
in every rejection.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from io import StringIO

import numpy as np

from .calibration import CalibrationReport, FirmSeries, PanelSeries
from .cascade import CascadeResult
from .econ import FirmParameters, MacroSeries, TransactionNetwork

PANEL_HEADER = ["firm_id", "period", "revenue", "capital", "labor", "equity"]
EDGES_HEADER = ["supplier_id", "customer_id", "k"]
GDP_HEADER = ["period", "gdp"]
PARAMS_HEADER = ["firm_id", "alpha", "beta", "cost_coeff",
                 "interest_rate", "noise_sigma"]


class FormatError(ValueError):
    """A file failed validation; the message says where."""


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_rows(path: str) -> list[tuple[int, list[str]]]:
    """CSV rows with their 1-based line numbers, comments skipped."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parsed = next(csv.reader([line]))
            rows.append((lineno, [cell.strip() for cell in parsed]))
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return rows


def _check_header(path: str, rows, expected, allow_extra: bool = False):
    lineno, header = rows[0]
    got = [h.lower() for h in header]
    ok = got[: len(expected)] == expected if allow_extra else got == expected
    if not ok:
        raise FormatError(
            f"{path} line {lineno}: expected header {','.join(expected)}, "
            f"got {','.join(header)}")
    return rows[1:]


def _parse_float(path: str, lineno: int, name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise FormatError(
            f"{path} line {lineno}: {name} is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise FormatError(f"{path} line {lineno}: {name} is not finite")
    return value


def _parse_int(path: str, lineno: int, name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise FormatError(
            f"{path} line {lineno}: {name} is not an integer: {raw!r}") from None


def load_panel(path: str) -> PanelSeries:
    """Read a firm panel CSV (firm_id,period,revenue,capital,labor,equity).

    Revenue, capital and labor must be positive in every row; periods
    must line up across firms.
    """
    rows = _check_header(path, _read_rows(path), PANEL_HEADER)
    per_firm: dict[str, dict[int, tuple[float, float, float, float]]] = {}
    for lineno, row in rows:
        if len(row) != len(PANEL_HEADER):
            raise FormatError(
                f"{path} line {lineno}: expected {len(PANEL_HEADER)} fields, "
                f"got {len(row)}")
        fid = row[0]
        if not fid:
            raise FormatError(f"{path} line {lineno}: empty firm_id")
        period = _parse_int(path, lineno, "period", row[1])
        values = [_parse_float(path, lineno, name, raw)
                  for name, raw in zip(PANEL_HEADER[2:], row[2:])]
        for name, value in zip(("revenue", "capital", "labor"), values):
            if value <= 0.0:
                raise FormatError(
                    f"{path} line {lineno}: {name} must be > 0, got {value!r}")
        bucket = per_firm.setdefault(fid, {})
        if period in bucket:
            raise FormatError(
                f"{path} line {lineno}: duplicate period {period} "
                f"for firm {fid!r}")
        bucket[period] = tuple(values)

    reference = None
    ref_firm = None
    for fid in sorted(per_firm):
        periods = tuple(sorted(per_firm[fid]))
        if reference is None:
            reference, ref_firm = periods, fid
        elif periods != reference:
            raise FormatError(
                f"{path}: firm {fid!r} covers periods {periods}, "
                f"but firm {ref_firm!r} covers {reference}")
    firms = {}
    equity = {}
    for fid, bucket in per_firm.items():
        data = np.array([bucket[p] for p in reference])
        firms[fid] = FirmSeries(data[:, 0], data[:, 1], data[:, 2])
        equity[fid] = data[:, 3]
    # the panel file has no GDP column; callers pair it with load_gdp
    gdp = np.ones(len(reference))
    return PanelSeries(firms=firms, gdp=gdp, periods=reference, equity=equity)


def load_gdp(path: str) -> MacroSeries:
    """Read a GDP series CSV (period,gdp), optional trailing label column."""
    rows = _check_header(path, _read_rows(path), GDP_HEADER, allow_extra=True)
    seen: dict[int, float] = {}
    for lineno, row in rows:
        if len(row) < 2:
            raise FormatError(f"{path} line {lineno}: expected period,gdp")
        period = _parse_int(path, lineno, "period", row[0])
        value = _parse_float(path, lineno, "gdp", row[1])
        if value <= 0.0:
            raise FormatError(f"{path} line {lineno}: gdp must be > 0")
        if period in seen:
            raise FormatError(f"{path} line {lineno}: duplicate period {period}")
        seen[period] = value
    periods = tuple(sorted(seen))
    return MacroSeries(gdp=tuple(seen[p] for p in periods), periods=periods)


def attach_gdp(panel: PanelSeries, macro: MacroSeries) -> PanelSeries:
    """Pair a loaded panel with its GDP series, checking period labels."""
    if macro.periods != panel.periods:
        raise FormatError(
            f"panel periods {panel.periods} do not match gdp periods "
            f"{macro.periods}")
    return PanelSeries(firms=panel.firms, gdp=np.array(macro.gdp),
                       periods=panel.periods, equity=panel.equity)


def load_edges(path: str, firms) -> TransactionNetwork:
    """Read an edge list CSV (supplier_id,customer_id,k) onto known firms."""
    rows = _check_header(path, _read_rows(path), EDGES_HEADER)
    known = set(firms)
    triples = []
    seen = set()
    for lineno, row in rows:
        if len(row) != 3:
            raise FormatError(
                f"{path} line {lineno}: expected supplier_id,customer_id,k")
        supplier, customer = row[0], row[1]
        for name, fid in (("supplier_id", supplier), ("customer_id", customer)):
            if fid not in known:
                raise FormatError(
                    f"{path} line {lineno}: {name} {fid!r} not in the panel")
        if supplier == customer:
            raise FormatError(
                f"{path} line {lineno}: self-loop on {supplier!r}")
        if (supplier, customer) in seen:
            raise FormatError(
                f"{path} line {lineno}: duplicate edge "
                f"{supplier!r} -> {customer!r}")
        seen.add((supplier, customer))
        triples.append((supplier, customer,
                        _parse_float(path, lineno, "k", row[2])))
    return TransactionNetwork(firms, triples)


def load_params(path: str) -> dict[str, FirmParameters]:
    """Read per-firm parameters CSV."""
    rows = _check_header(path, _read_rows(path), PARAMS_HEADER)
    out: dict[str, FirmParameters] = {}
    for lineno, row in rows:
        if len(row) != len(PARAMS_HEADER):
            raise FormatError(
                f"{path} line {lineno}: expected {len(PARAMS_HEADER)} fields")
        fid = row[0]
        if fid in out:
            raise FormatError(f"{path} line {lineno}: duplicate firm {fid!r}")
        values = [_parse_float(path, lineno, name, raw)
                  for name, raw in zip(PARAMS_HEADER[1:], row[1:])]
        try:
            out[fid] = FirmParameters(*values)
        except ValueError as exc:
            raise FormatError(f"{path} line {lineno}: {exc}") from None
    return out


def _comment_block(config_echo: dict | None, seed: int | None) -> str:
    lines = []
    if config_echo is not None:
        lines.append("# config: " + json.dumps(config_echo, sort_keys=True))
    if seed is not None:
        lines.append(f"# seed: {seed}")
    return "".join(line + "\n" for line in lines)


def write_panel(path: str, panel: PanelSeries,
                config_echo: dict | None = None, seed: int | None = None) -> None:
    if panel.equity is None:
        raise ValueError("panel has no equity series; cannot write the schema")
    buf = StringIO()
    buf.write(_comment_block(config_echo, seed))
    buf.write(",".join(PANEL_HEADER) + "\n")
    for fid in panel.firm_ids:
        s = panel.firm(fid)
        e = panel.equity[fid]
        for i, period in enumerate(panel.periods):
            buf.write(f"{fid},{period},{float(s.revenue[i])!r},"
                      f"{float(s.capital[i])!r},{float(s.labor[i])!r},"
                      f"{float(e[i])!r}\n")
    _atomic_write_text(path, buf.getvalue())


def write_gdp(path: str, macro: MacroSeries,
              config_echo: dict | None = None, seed: int | None = None) -> None:
    buf = StringIO()
    buf.write(_comment_block(config_echo, seed))
    buf.write(",".join(GDP_HEADER) + "\n")
    for period, value in zip(macro.periods, macro.gdp):
        buf.write(f"{period},{float(value)!r}\n")
    _atomic_write_text(path, buf.getvalue())


def write_edges(path: str, network: TransactionNetwork,
                config_echo: dict | None = None, seed: int | None = None) -> None:
    buf = StringIO()
    buf.write(_comment_block(config_echo, seed))
    buf.write(",".join(EDGES_HEADER) + "\n")
    for supplier, customer, k in network.edges():
        buf.write(f"{supplier},{customer},{float(k)!r}\n")
    _atomic_write_text(path, buf.getvalue())


def write_params(path: str, params: dict[str, FirmParameters],
                 config_echo: dict | None = None, seed: int | None = None) -> None:
    buf = StringIO()
    buf.write(_comment_block(config_echo, seed))
    buf.write(",".join(PARAMS_HEADER) + "\n")
    for fid in sorted(params):
        p = params[fid]
        buf.write(f"{fid},{float(p.alpha)!r},{float(p.beta)!r},"
                  f"{float(p.cost_coeff)!r},{float(p.interest_rate)!r},"
                  f"{float(p.noise_sigma)!r}\n")
    _atomic_write_text(path, buf.getvalue())


def fit_report_payload(report: CalibrationReport,
                       config_echo: dict | None = None,
                       seed: int | None = None) -> dict:
    firms = {}
    for fid, r in report.results.items():
        firms[fid] = {
            "alpha": r.alpha,
            "beta": r.beta,
            "strengths": r.strengths,
            "sigma": r.sigma,
            "sse": r.sse,
            "average_error": r.average_error,
            "iterations": r.iterations,
            "converged": r.converged,
            "degenerate": r.degenerate,
        }
    return {
        "config": config_echo or {},
        "seed": seed,
        "firms": firms,
        "failures": report.failures,
        "histograms": report.histograms,
    }


def export_fit_report(path: str, report: CalibrationReport,
                      config_echo: dict | None = None,
                      seed: int | None = None) -> None:
    payload = fit_report_payload(report, config_echo, seed)
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cascade_payload(result: CascadeResult, config_echo: dict | None = None,
                    seed: int | None = None) -> dict:
    trace = {}
    for fid, ev in result.equity_trace.items():
        trace[fid] = {
            "generation": ev.generation,
            "equity_begin": ev.equity_begin,
            "profit": ev.term_profit,
            "equity_end": ev.equity_end,
            "baseline_profit": ev.baseline_profit,
            "went_bankrupt": ev.went_bankrupt,
        }
    return {
        "config": config_echo or {},
        "seed": seed,
        "bankrupt": result.bankrupt,
        "survivors": result.survivors,
        "equity_trace": trace,
        "generations_run": result.generations_run,
        "exhausted": result.exhausted,
    }


def export_cascade(path: str, result: CascadeResult,
                   config_echo: dict | None = None,
                   seed: int | None = None) -> None:
    payload = cascade_payload(result, config_echo, seed)
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _oriented_edges(network: TransactionNetwork, money_flow: bool):
    """Edges as drawn: money flows customer -> supplier by default."""
    out = []
    for supplier, customer, k in network.edges():
        if money_flow:
            out.append((customer, supplier, k))
        else:
            out.append((supplier, customer, k))
    out.sort(key=lambda e: (e[0], e[1]))
    return out


def network_dot(network: TransactionNetwork,
                result: CascadeResult | None = None,
                money_flow: bool = True) -> str:
    """DOT text for the network, bankruptcy state on the nodes.

    Default orientation follows the money (customer pays supplier);
    money_flow=False flips to the product direction.
    """
    name = "money_flow" if money_flow else "product_flow"
    lines = [f"digraph {name} {{"]
    bankrupt = result.bankrupt if result is not None else {}
    for fid in network.firms:
        if fid in bankrupt:
            lines.append(
                f'  "{fid}" [bankrupt=1, generation={bankrupt[fid]}];')
        else:
            lines.append(f'  "{fid}";')
    for tail, head, k in _oriented_edges(network, money_flow):
        lines.append(f'  "{tail}" -> "{head}" [k={k!r}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_network_dot(path: str, network: TransactionNetwork,
                       result: CascadeResult | None = None,
                       money_flow: bool = True) -> None:
    _atomic_write_text(path, network_dot(network, result, money_flow))


def network_graphml(network: TransactionNetwork,
                    result: CascadeResult | None = None,
                    money_flow: bool = True) -> str:
    """GraphML text mirroring network_dot's orientation and attributes."""
    bankrupt = result.bankrupt if result is not None else {}
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="d0" for="node" attr.name="bankrupt" attr.type="boolean"/>',
        '  <key id="d1" for="node" attr.name="generation" attr.type="int"/>',
        '  <key id="d2" for="edge" attr.name="k" attr.type="double"/>',
        f'  <graph id="{"money_flow" if money_flow else "product_flow"}"'
        ' edgedefault="directed">',
    ]
    for fid in network.firms:
        if fid in bankrupt:
            lines.append(f'    <node id="{fid}">')
            lines.append('      <data key="d0">true</data>')
            lines.append(f'      <data key="d1">{bankrupt[fid]}</data>')
            lines.append('    </node>')
        else:
            lines.append(f'    <node id="{fid}">')
            lines.append('      <data key="d0">false</data>')
            lines.append('    </node>')
    for tail, head, k in _oriented_edges(network, money_flow):
        lines.append(f'    <edge source="{tail}" target="{head}">')
        lines.append(f'      <data key="d2">{k!r}</data>')
        lines.append('    </edge>')
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def export_network_graphml(path: str, network: TransactionNetwork,
                           result: CascadeResult | None = None,
                           money_flow: bool = True) -> None:
    _atomic_write_text(path, network_graphml(network, result, money_flow))
