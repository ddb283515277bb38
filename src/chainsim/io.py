"""File formats: CSV panels/edges/gdp/params, JSON reports, DOT/GraphML.

All writers are atomic (temp file then rename, mode set by the umask)
and deterministic: sorted keys, fixed field order, floats via repr so a
written file loads back bit-identically. All four loaders read through
one table reader: it reads the file at once, skips blank lines and '#'
comments (the writers put the config echo there) and splits every data
line with one split when all are quote-free and of the header's width;
otherwise line by line, handing a line holding '"' to csv alone. Each
loader parses and checks whole columns, not rows, and every rejection
cites the line of the lowest faulty row.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import operator
import os
import secrets

import numpy as np

from .calibration import CalibrationReport, PanelSeries
from .cascade import CascadeResult
from .econ import (FirmParameters, MacroSeries, TransactionNetwork, csr_edges,
                   first_repeat, first_true)

PANEL_HEADER = ["firm_id", "period", "revenue", "capital", "labor", "equity"]
EDGES_HEADER = ["supplier_id", "customer_id", "k"]
GDP_HEADER = ["period", "gdp"]
PARAMS_HEADER = ["firm_id", "alpha", "beta", "cost_coeff",
                 "interest_rate", "noise_sigma"]


class FormatError(ValueError):
    """A file failed validation; the message says where."""


def temp_path(path: str) -> str:
    """A fresh name for a temporary file in path's directory."""
    return os.path.join(os.path.dirname(os.path.abspath(path)),
                        f"tmp{secrets.token_hex(8)}.tmp")


def _atomic_write_text(path: str, text: str) -> None:
    # 0o666 leaves the mode to the umask, as open(path, "w") does
    tmp = temp_path(path)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload) -> None:
    """payload as indented JSON with sorted keys, written atomically."""
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cells(path: str, lineno: int, line: str, limit: int) -> list[str]:
    """A line's unstripped cells, none longer than limit. A line holding
    '"' is read by csv on its own, so an unclosed quote ends at the
    line's end; others are split on ',', which reads them as csv does.

    csv before Python 3.11 refuses NUL, so a NUL stands in as a
    character the line lacks while csv reads it."""
    if '"' not in line:
        if len(line) > limit and max(map(len, line.rstrip("\r\n").split(","))) > limit:
            raise FormatError(f"{path} line {lineno}: field larger than "
                              f"field limit ({limit})")
        return line.split(",")
    nul = "\x00" in line
    if nul:
        stand_in = next(c for c in map(chr, range(0xE000, 0x110000))
                        if c not in line)
        line = line.replace("\x00", stand_in)
    try:
        cells = next(csv.reader([line]))
    except csv.Error as exc:
        raise FormatError(f"{path} line {lineno}: {exc}") from None
    return [cell.replace(stand_in, "\x00") for cell in cells] if nul else cells


def _lines(path: str) -> list[str]:
    """The lines of a UTF-8 file, read with newline="", so only '\\n',
    '\\r\\n' and '\\r' end one. A byte that is not UTF-8 is a FormatError
    naming the first line that holds one."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        pass
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh.read().splitlines(), start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path} line {lineno}: not UTF-8: {exc}") from None
    raise FormatError(f"{path}: not UTF-8")


def _read_table(path: str, header: list[str], wrong_count: str,
                allow_extra: bool = False) -> tuple[list[int], list, list]:
    """(linenos, columns, faults) of the data lines.

    Blank and '#' lines are skipped; the first other line must be the
    header. linenos holds each data line's number, columns one list of
    unstripped cells per header name. They stop before the first row
    with a wrong cell count (not len(header), or fewer when allow_extra
    lets rows carry more), which faults cites by wrong_count formatted
    with the count. If every line is quote-free, within csv's field
    size limit and, past the header, of len(header) cells, one split
    reads them all; otherwise _cells reads each line.
    """
    lines = _lines(path)
    kept = [i for i, text in enumerate(map(str.strip, lines))
            if text and text[0] != "#"]
    if not kept:
        raise FormatError(f"{path}: no data rows")
    rows = [lines[i] for i in kept]
    linenos = [i + 1 for i in kept]
    del lines, kept  # rows alone holds the lines now; it goes before the split
    limit, width, faults = csv.field_size_limit(), len(header), []
    if (max(map(len, rows)) <= limit and '"' not in "".join(rows)
            and list(map(str.count, rows, itertools.repeat(",")))[1:].count(
                width - 1) == len(rows) - 1):
        names, text = rows[0].split(","), ",".join(rows[1:])
        del rows
        flat = text.split(",") if text else []
        del text
        columns = [flat[c::width] for c in range(width)]
    else:
        table = [_cells(path, n, row, limit) for n, row in zip(linenos, rows)]
        names = table.pop(0)
        for j, cells in enumerate(table):
            if len(cells) < width or len(cells) > width and not allow_extra:
                faults, table = [(j, wrong_count.format(len(cells)))], table[:j]
                break
        columns = [list(column) for column in zip(
            *(cells[:width] for cells in table))] or [[] for _ in header]
    names = [cell.strip() for cell in names]
    lowered = [cell.lower() for cell in names]
    if not (lowered[:width] == header if allow_extra else lowered == header):
        raise FormatError(
            f"{path} line {linenos[0]}: expected header {','.join(header)}, "
            f"got {','.join(names)}")
    return linenos[1:], columns, faults


def _column(cells: list[str], name: str, faults: list, parse=float) -> np.ndarray:
    """parse over cells up to the first it refuses, which goes to faults,
    and for floats then the first non-finite value. int and float ignore
    the whitespace str.strip drops but '\\x1c'-'\\x1f', so cells are
    stripped only once the whole column fails."""
    dtype = float if parse is float else object
    try:
        values = np.fromiter(map(parse, cells), dtype, len(cells))
    except ValueError:
        values = []
        for raw in map(str.strip, cells):
            try:
                values.append(parse(raw))
            except ValueError:
                kind = "a number" if parse is float else "an integer"
                faults.append((len(values), f"{name} is not {kind}: {raw!r}"))
                break
        values = np.array(values, dtype)
    i = first_true(~np.isfinite(values)) if parse is float else None
    if i is not None:
        faults.append((i, f"{name} is not finite"))
    return values


def _refuse(path: str, linenos: list[int], faults: list) -> None:
    """A FormatError citing the lowest row in faults, (row, message)
    pairs in each row's check order, if there is one."""
    if faults:
        row, message = min(faults, key=lambda fault: fault[0])
        raise FormatError(f"{path} line {linenos[row]}: {message}")


def load_panel(path: str) -> PanelSeries:
    """Read a firm panel CSV (firm_id,period,revenue,capital,labor,equity).

    Revenue, capital and labor must be positive in every row; periods
    must line up across firms. Checked by column, then scattered into
    the (firm, period) grid; a fault cites the lowest faulty line and,
    within it, the first failing check of: field count, empty firm_id,
    period, each of revenue, capital, labor and equity parsed then
    finite, revenue, capital and labor > 0, and a duplicate (firm, period).
    """
    linenos, (fid_cells, period_cells, *value_cells), faults = _read_table(
        path, PANEL_HEADER, f"expected {len(PANEL_HEADER)} fields, got {{}}")
    if not linenos:
        raise FormatError(f"{path}: no data rows")
    fids = list(map(str.strip, fid_cells))
    if "" in fids:
        faults.append((fids.index(""), "empty firm_id"))
    periods = _column(period_cells, "period", faults, int)
    columns = [_column(cells, name, faults)
               for name, cells in zip(PANEL_HEADER[2:], value_cells)]
    for name, values in zip(PANEL_HEADER[2:5], columns):
        i = first_true(values <= 0.0)
        if i is not None:
            faults.append((i, f"{name} must be > 0, got {float(values[i])!r}"))

    keyed = fids[:len(periods)]  # the rows whose period parsed
    ids = sorted(set(keyed))
    labels = sorted(set(periods))
    row_of = {fid: i for i, fid in enumerate(ids)}
    column_of = {period: j for j, period in enumerate(labels)}
    cell = (np.fromiter(map(row_of.__getitem__, keyed),
                        np.intp, len(keyed)) * len(labels)
            + np.fromiter(map(column_of.__getitem__, periods),
                          np.intp, len(periods)))
    i = first_repeat(cell.tolist())
    if i is not None:
        faults.append((i, f"duplicate period {periods[i]} for firm {fids[i]!r}"))
    _refuse(path, linenos, faults)

    shape = (len(ids), len(labels))
    if len(cell) != shape[0] * shape[1]:  # some firm misses a period
        have = np.zeros(shape, bool)
        have.flat[cell] = True
        r = first_true((have != have[0]).any(axis=1))

        def covered(row):
            return tuple(p for p, h in zip(labels, have[row].tolist()) if h)

        raise FormatError(
            f"{path}: firm {ids[r]!r} covers periods {covered(r)}, "
            f"but firm {ids[0]!r} covers {covered(0)}")
    grid = np.empty((len(cell), 4))
    grid[cell] = np.column_stack(columns)
    revenue, capital, labor, equity = grid.reshape(*shape, 4).transpose(2, 0, 1)
    # the panel file has no GDP column; callers pair it with load_gdp
    return PanelSeries(tuple(ids), revenue, capital, labor,
                       gdp=np.ones(len(labels)), periods=tuple(labels),
                       equity=equity)


def load_gdp(path: str) -> MacroSeries:
    """Read a GDP series CSV (period,gdp), optional trailing label column.
    Checked by column as load_panel is, in the order: field count,
    period, gdp parsed, finite and > 0, and a duplicate period."""
    linenos, (period_cells, gdp_cells), faults = _read_table(
        path, GDP_HEADER, "expected period,gdp", allow_extra=True)
    periods = _column(period_cells, "period", faults, int).tolist()
    values = _column(gdp_cells, "gdp", faults)
    i = first_true(values <= 0.0)
    if i is not None:
        faults.append((i, "gdp must be > 0"))
    i = first_repeat(periods)
    if i is not None:
        faults.append((i, f"duplicate period {periods[i]}"))
    _refuse(path, linenos, faults)
    if not periods:
        raise FormatError(f"{path}: no data rows")
    seen = dict(zip(periods, values.tolist()))
    labels = sorted(seen)
    return MacroSeries(gdp=tuple(map(seen.__getitem__, labels)),
                       periods=tuple(labels))


def attach_gdp(panel: PanelSeries, macro: MacroSeries) -> PanelSeries:
    """Pair a loaded panel with its GDP series, checking period labels."""
    if macro.periods != panel.periods:
        raise FormatError(
            f"panel periods {panel.periods} do not match gdp periods "
            f"{macro.periods}")
    return dataclasses.replace(panel, gdp=np.array(macro.gdp))


def load_edges(path: str, firms) -> TransactionNetwork:
    """Read an edge list CSV (supplier_id,customer_id,k) onto known firms.
    Checked by column as load_panel is, in the order: field count,
    supplier_id and customer_id among firms, self-loop, duplicate edge,
    and k parsed then finite."""
    linenos, (supplier_cells, customer_cells, k_cells), faults = _read_table(
        path, EDGES_HEADER, "expected supplier_id,customer_id,k")
    suppliers = list(map(str.strip, supplier_cells))
    customers = list(map(str.strip, customer_cells))
    known = set(firms)
    for name, ids in (("supplier_id", suppliers), ("customer_id", customers)):
        if not known.issuperset(ids):
            i = next(i for i, fid in enumerate(ids) if fid not in known)
            faults.append((i, f"{name} {ids[i]!r} not in the panel"))
    i = first_true(np.fromiter(map(operator.eq, suppliers, customers), bool,
                               len(suppliers)))
    if i is not None:
        faults.append((i, f"self-loop on {suppliers[i]!r}"))
    i = first_repeat(list(zip(suppliers, customers)))
    if i is not None:
        faults.append((i, f"duplicate edge {suppliers[i]!r} -> {customers[i]!r}"))
    strengths = _column(k_cells, "k", faults)
    _refuse(path, linenos, faults)
    return TransactionNetwork(firms, zip(suppliers, customers, strengths.tolist()))


def load_params(path: str) -> dict[str, FirmParameters]:
    """Read per-firm parameters CSV. Checked by column as load_panel is,
    in the order: field count, duplicate firm, each value parsed then
    finite, and the values FirmParameters refuses."""
    linenos, (fid_cells, *value_cells), faults = _read_table(
        path, PARAMS_HEADER, f"expected {len(PARAMS_HEADER)} fields")
    fids = list(map(str.strip, fid_cells))
    i = first_repeat(fids)
    if i is not None:
        faults.append((i, f"duplicate firm {fids[i]!r}"))
    columns = [_column(cells, name, faults)
               for name, cells in zip(PARAMS_HEADER[1:], value_cells)]
    rows = min(map(len, columns))  # the rows every value parsed on
    params = []
    for values in zip(*(v[:rows].tolist() for v in columns)):
        try:
            params.append(FirmParameters(*values))
        except ValueError as exc:
            faults.append((len(params), str(exc)))
            break
    _refuse(path, linenos, faults)
    return dict(zip(fids, params))


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

    They strip cells and skip '#' lines; NUL is refused for readers that
    use csv before Python 3.11, which refuses it."""
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
    return {
        "config": config_echo or {},
        "seed": seed,
        "firms": {fid: dict(vars(r)) for fid, r in report.results.items()},
        "failures": report.failures,
        "histograms": report.histograms,
    }


def export_fit_report(path: str, report: CalibrationReport,
                      config_echo: dict | None = None,
                      seed: int | None = None) -> None:
    write_json(path, fit_report_payload(report, config_echo, seed))


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
    write_json(path, cascade_payload(result, config_echo, seed))


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
