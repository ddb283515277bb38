"""A row-by-row panel loader, kept as the reference for `io.load_panel`.

This is the loader `io.load_panel` replaced: one `csv.reader` per line,
every row parsed and checked in turn. It is plain Python and builds its
own messages, so a property test can hold the columnar loader to the
same arrays, bit for bit, and the same error text.
"""

import csv
import math

import numpy as np

from chainsim.calibration import PanelSeries

HEADER = ["firm_id", "period", "revenue", "capital", "labor", "equity"]


class OracleFormatError(ValueError):
    """The reference loader refused the file; the message says where."""


def _read_rows(path):
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parsed = next(csv.reader([line]))
            rows.append((lineno, [cell.strip() for cell in parsed]))
    if not rows:
        raise OracleFormatError(f"{path}: no data rows")
    return rows


def _parse_float(path, lineno, name, raw):
    try:
        value = float(raw)
    except ValueError:
        raise OracleFormatError(
            f"{path} line {lineno}: {name} is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise OracleFormatError(f"{path} line {lineno}: {name} is not finite")
    return value


def load_panel(path):
    rows = _read_rows(path)
    lineno, header = rows[0]
    if [h.lower() for h in header] != HEADER:
        raise OracleFormatError(
            f"{path} line {lineno}: expected header {','.join(HEADER)}, "
            f"got {','.join(header)}")
    cells = {}
    for lineno, row in rows[1:]:
        if len(row) != len(HEADER):
            raise OracleFormatError(
                f"{path} line {lineno}: expected {len(HEADER)} fields, "
                f"got {len(row)}")
        fid = row[0]
        if not fid:
            raise OracleFormatError(f"{path} line {lineno}: empty firm_id")
        try:
            period = int(row[1])
        except ValueError:
            raise OracleFormatError(
                f"{path} line {lineno}: period is not an integer: "
                f"{row[1]!r}") from None
        values = [_parse_float(path, lineno, name, raw)
                  for name, raw in zip(HEADER[2:], row[2:])]
        for name, value in zip(("revenue", "capital", "labor"), values):
            if value <= 0.0:
                raise OracleFormatError(
                    f"{path} line {lineno}: {name} must be > 0, got {value!r}")
        if (fid, period) in cells:
            raise OracleFormatError(
                f"{path} line {lineno}: duplicate period {period} "
                f"for firm {fid!r}")
        cells[fid, period] = values
    if not cells:
        raise OracleFormatError(f"{path}: no data rows")

    ids = tuple(sorted({fid for fid, _ in cells}))
    periods = tuple(sorted({period for _, period in cells}))
    if len(cells) != len(ids) * len(periods):
        covered = {fid: tuple(p for p in periods if (fid, p) in cells)
                   for fid in ids}
        fid = next(f for f in ids if covered[f] != covered[ids[0]])
        raise OracleFormatError(
            f"{path}: firm {fid!r} covers periods {covered[fid]}, "
            f"but firm {ids[0]!r} covers {covered[ids[0]]}")
    revenue, capital, labor, equity = np.array(
        [cells[fid, p] for fid in ids for p in periods]).reshape(
        len(ids), len(periods), 4).transpose(2, 0, 1)
    return PanelSeries(ids, revenue, capital, labor, gdp=np.ones(len(periods)),
                       periods=periods, equity=equity)
