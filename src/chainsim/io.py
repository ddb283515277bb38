"""File formats: CSV panels/edges/gdp/params, JSON reports, DOT/GraphML.

All writers are atomic (temp file then rename) and deterministic:
sorted keys, fixed field order, floats via repr so a written file loads
back bit-identically. Loaders skip blank lines and '#' comments (the
writers put the config echo there) and cite the offending line number
in every rejection.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import tempfile

import numpy as np

from .calibration import CalibrationReport, PanelSeries
from .cascade import CascadeResult
from .econ import FirmParameters, MacroSeries, TransactionNetwork, csr_edges

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
    cells: dict[tuple[str, int], list[float]] = {}
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
        if (fid, period) in cells:
            raise FormatError(
                f"{path} line {lineno}: duplicate period {period} "
                f"for firm {fid!r}")
        cells[fid, period] = values
    if not cells:
        raise FormatError(f"{path}: no data rows")

    ids = tuple(sorted({fid for fid, _ in cells}))
    periods = tuple(sorted({period for _, period in cells}))
    if len(cells) != len(ids) * len(periods):  # some firm misses a period
        covered = {fid: tuple(p for p in periods if (fid, p) in cells)
                   for fid in ids}
        fid = next(f for f in ids if covered[f] != covered[ids[0]])
        raise FormatError(
            f"{path}: firm {fid!r} covers periods {covered[fid]}, "
            f"but firm {ids[0]!r} covers {covered[ids[0]]}")
    revenue, capital, labor, equity = np.array(
        [cells[fid, p] for fid in ids for p in periods]).reshape(
        len(ids), len(periods), 4).transpose(2, 0, 1)
    # the panel file has no GDP column; callers pair it with load_gdp
    return PanelSeries(ids, revenue, capital, labor, gdp=np.ones(len(periods)),
                       periods=periods, equity=equity)


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
    if not seen:
        raise FormatError(f"{path}: no data rows")
    periods = tuple(sorted(seen))
    return MacroSeries(gdp=tuple(seen[p] for p in periods), periods=periods)


def attach_gdp(panel: PanelSeries, macro: MacroSeries) -> PanelSeries:
    """Pair a loaded panel with its GDP series, checking period labels."""
    if macro.periods != panel.periods:
        raise FormatError(
            f"panel periods {panel.periods} do not match gdp periods "
            f"{macro.periods}")
    return dataclasses.replace(panel, gdp=np.array(macro.gdp))


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


def _write_csv(path: str, header: list[str], lines,
               config_echo: dict | None, seed: int | None) -> None:
    """The config echo and seed as '#' comments, the header, then lines."""
    head = []
    if config_echo is not None:
        head.append("# config: " + json.dumps(config_echo, sort_keys=True))
    if seed is not None:
        head.append(f"# seed: {seed}")
    head.append(",".join(header))
    _atomic_write_text(path, "".join(line + "\n" for line in head)
                       + "".join(lines))


def _check_ids(ids) -> None:
    """Refuse a firm id that the CSV loaders would not read back as itself.

    They strip cells and skip '#' lines; csv before Python 3.11 refuses NUL."""
    for fid in ids:
        if (not fid or fid != fid.strip() or fid.startswith("#")
                or any(c in fid for c in ',"\r\n\x00')):
            raise ValueError(f"firm id {fid!r} cannot be written to CSV")


def write_panel(path: str, panel: PanelSeries,
                config_echo: dict | None = None, seed: int | None = None) -> None:
    if panel.equity is None:
        raise ValueError("panel has no equity series; cannot write the schema")
    _check_ids(panel.firm_ids)
    rows = zip(panel.firm_ids, panel.revenue.tolist(), panel.capital.tolist(),
               panel.labor.tolist(), panel.equity.tolist())
    _write_csv(path, PANEL_HEADER, (
        f"{fid},{period},{r!r},{k!r},{l!r},{e!r}\n"
        for fid, *series in rows
        for period, r, k, l, e in zip(panel.periods, *series)),
        config_echo, seed)


def write_gdp(path: str, macro: MacroSeries,
              config_echo: dict | None = None, seed: int | None = None) -> None:
    _write_csv(path, GDP_HEADER, (
        f"{period},{float(value)!r}\n"
        for period, value in zip(macro.periods, macro.gdp)), config_echo, seed)


def write_edges(path: str, network: TransactionNetwork,
                config_echo: dict | None = None, seed: int | None = None) -> None:
    _check_ids(network.firms)
    _write_csv(path, EDGES_HEADER, (
        f"{supplier},{customer},{float(k)!r}\n"
        for supplier, customer, k in network.edges()), config_echo, seed)


def write_params(path: str, params: dict[str, FirmParameters],
                 config_echo: dict | None = None, seed: int | None = None) -> None:
    _check_ids(params)
    _write_csv(path, PARAMS_HEADER, (
        f"{fid},{float(p.alpha)!r},{float(p.beta)!r},{float(p.cost_coeff)!r},"
        f"{float(p.interest_rate)!r},{float(p.noise_sigma)!r}\n"
        for fid, p in sorted(params.items())), config_echo, seed)


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


def _dot_id(fid: str) -> str:
    """fid as a DOT quoted string, where \\" is the only escape."""
    if fid.endswith("\\"):
        raise ValueError(
            f"firm id {fid!r} ends in a backslash, which DOT cannot quote")
    return '"' + fid.replace('"', '\\"') + '"'


def network_dot(network: TransactionNetwork,
                result: CascadeResult | None = None,
                money_flow: bool = True) -> str:
    """DOT text for the network, bankruptcy state on the nodes.

    Default orientation follows the money (customer pays supplier);
    money_flow=False flips to the product direction.
    """
    ids = {fid: _dot_id(fid) for fid in network.firms}
    name = "money_flow" if money_flow else "product_flow"
    lines = [f"digraph {name} {{"]
    bankrupt = result.bankrupt if result is not None else {}
    for fid in network.firms:
        if fid in bankrupt:
            lines.append(
                f'  {ids[fid]} [bankrupt=1, generation={bankrupt[fid]}];')
        else:
            lines.append(f'  {ids[fid]};')
    # money flows customer -> supplier: the rows of the supplier table
    table = network.suppliers if money_flow else network.customers
    for tail, head, k in csr_edges(network.firms, table):
        lines.append(f'  {ids[tail]} -> {ids[head]} [k={k!r}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_network_dot(path: str, network: TransactionNetwork,
                       result: CascadeResult | None = None,
                       money_flow: bool = True) -> None:
    _atomic_write_text(path, network_dot(network, result, money_flow))


# Markup, and the whitespace an attribute value would read back as a
# space.
_XML_ATTR_ESCAPES = str.maketrans({
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"})


def _xml_char(c: str) -> bool:
    """c is in XML 1.0's Char production; no reference carries others."""
    return (c in "\t\n\r" or " " <= c < "\ud800"
            or "\ue000" <= c <= "\ufffd" or c >= "\U00010000")


def _xml_attr(fid: str) -> str:
    """fid as an XML attribute value that parses back to fid."""
    # every character outside Char is unprintable
    if not fid.isprintable() and not all(map(_xml_char, fid)):
        raise ValueError(
            f"firm id {fid!r} holds a character XML 1.0 cannot carry")
    return fid.translate(_XML_ATTR_ESCAPES)


def network_graphml(network: TransactionNetwork,
                    result: CascadeResult | None = None,
                    money_flow: bool = True) -> str:
    """GraphML text mirroring network_dot's orientation and attributes."""
    ids = {fid: _xml_attr(fid) for fid in network.firms}
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
        lines.append(f'    <node id="{ids[fid]}">')
        if fid in bankrupt:
            lines.append('      <data key="d0">true</data>')
            lines.append(f'      <data key="d1">{bankrupt[fid]}</data>')
        else:
            lines.append('      <data key="d0">false</data>')
        lines.append('    </node>')
    table = network.suppliers if money_flow else network.customers
    for tail, head, k in csr_edges(network.firms, table):
        lines.append(f'    <edge source="{ids[tail]}" target="{ids[head]}">')
        lines.append(f'      <data key="d2">{k!r}</data>')
        lines.append('    </edge>')
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def export_network_graphml(path: str, network: TransactionNetwork,
                           result: CascadeResult | None = None,
                           money_flow: bool = True) -> None:
    _atomic_write_text(path, network_graphml(network, result, money_flow))
