"""Row-by-row edge, parameter and GDP loaders, kept as the reference
for `io.load_edges`, `io.load_params` and `io.load_gdp`.

These are the loaders the columnar ones replaced, with the line reader
they shared: every row is stripped, parsed and checked in turn, and the
first failing check raises. The edge loader builds a `PerEdgeNetwork`.
They build their own messages, so a property test can hold the columnar
loaders to the same results and the same error text.
"""

import contextlib
import csv
import math

from chainsim.econ import FirmParameters, MacroSeries

from network_oracle import PerEdgeNetwork

EDGES_HEADER = ["supplier_id", "customer_id", "k"]
GDP_HEADER = ["period", "gdp"]
PARAMS_HEADER = ["firm_id", "alpha", "beta", "cost_coeff",
                 "interest_rate", "noise_sigma"]


class OracleFormatError(ValueError):
    """A reference loader refused the file; the message says where."""


def _csv_cells(path: str, lineno: int, line: str) -> list[str]:
    """A line holding '"', read by csv on its own, so an unclosed quote
    ends at the line's end.

    csv before Python 3.11 refuses NUL, so a NUL stands in as a
    character the line lacks while csv reads it."""
    nul = "\x00" in line
    if nul:
        stand_in = next(c for c in map(chr, range(0xE000, 0x110000))
                        if c not in line)
        line = line.replace("\x00", stand_in)
    try:
        cells = next(csv.reader([line]))
    except csv.Error as exc:
        raise OracleFormatError(f"{path} line {lineno}: {exc}") from None
    return [cell.replace(stand_in, "\x00") for cell in cells] if nul else cells


@contextlib.contextmanager
def _numbered_lines(path: str):
    """The 1-based line numbers and lines of a UTF-8 text file, read
    with newline="". A byte that is not UTF-8 is an OracleFormatError
    naming the first line that holds one."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            yield enumerate(fh, start=1)
        except UnicodeDecodeError:
            pass
        else:
            return
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise OracleFormatError(f"{path} line {lineno}: not UTF-8: {exc}") from None
    raise OracleFormatError(f"{path}: not UTF-8")


def _read_table(path: str, header: list[str], allow_extra: bool = False
                ) -> tuple[list[int], list[list[str]]]:
    """The 1-based line numbers and unstripped cells of the data lines.

    One pass over the file, whose iteration with newline="" sets the
    line numbers (_numbered_lines). Blank and '#' lines are skipped, and
    the first other line must be the header. A line without '"' is split
    on ',', which reads it as csv does; csv's field size limit holds on
    both paths.
    """
    limit = csv.field_size_limit()
    linenos, rows = [], []
    with _numbered_lines(path) as lines:
        for lineno, line in lines:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if '"' in line:
                cells = _csv_cells(path, lineno, line)
            else:
                cells = line.split(",")
                if len(line) > limit and max(
                        map(len, line.rstrip("\r\n").split(","))) > limit:
                    raise OracleFormatError(f"{path} line {lineno}: field "
                                            f"larger than field limit ({limit})")
            linenos.append(lineno)
            rows.append(cells)
    if not rows:
        raise OracleFormatError(f"{path}: no data rows")
    cells = [cell.strip() for cell in rows[0]]
    names = [cell.lower() for cell in cells]
    if not (names[: len(header)] == header if allow_extra else names == header):
        raise OracleFormatError(
            f"{path} line {linenos[0]}: expected header {','.join(header)}, "
            f"got {','.join(cells)}")
    return linenos[1:], rows[1:]


def _stripped(rows):
    return ([cell.strip() for cell in row] for row in rows)


def _parse_float(path: str, lineno: int, name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise OracleFormatError(
            f"{path} line {lineno}: {name} is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise OracleFormatError(f"{path} line {lineno}: {name} is not finite")
    return value


def _parse_int(path: str, lineno: int, name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise OracleFormatError(
            f"{path} line {lineno}: {name} is not an integer: {raw!r}") from None


def load_gdp(path: str) -> MacroSeries:
    """Read a GDP series CSV (period,gdp), optional trailing label column."""
    linenos, rows = _read_table(path, GDP_HEADER, allow_extra=True)
    seen: dict[int, float] = {}
    for lineno, row in zip(linenos, _stripped(rows)):
        if len(row) < 2:
            raise OracleFormatError(f"{path} line {lineno}: expected period,gdp")
        period = _parse_int(path, lineno, "period", row[0])
        value = _parse_float(path, lineno, "gdp", row[1])
        if value <= 0.0:
            raise OracleFormatError(f"{path} line {lineno}: gdp must be > 0")
        if period in seen:
            raise OracleFormatError(f"{path} line {lineno}: duplicate period {period}")
        seen[period] = value
    if not seen:
        raise OracleFormatError(f"{path}: no data rows")
    periods = tuple(sorted(seen))
    return MacroSeries(gdp=tuple(seen[p] for p in periods), periods=periods)


def load_edges(path: str, firms) -> PerEdgeNetwork:
    """Read an edge list CSV (supplier_id,customer_id,k) onto known firms."""
    linenos, rows = _read_table(path, EDGES_HEADER)
    known = set(firms)
    triples = []
    seen = set()
    for lineno, row in zip(linenos, _stripped(rows)):
        if len(row) != 3:
            raise OracleFormatError(
                f"{path} line {lineno}: expected supplier_id,customer_id,k")
        supplier, customer = row[0], row[1]
        for name, fid in (("supplier_id", supplier), ("customer_id", customer)):
            if fid not in known:
                raise OracleFormatError(
                    f"{path} line {lineno}: {name} {fid!r} not in the panel")
        if supplier == customer:
            raise OracleFormatError(
                f"{path} line {lineno}: self-loop on {supplier!r}")
        if (supplier, customer) in seen:
            raise OracleFormatError(
                f"{path} line {lineno}: duplicate edge "
                f"{supplier!r} -> {customer!r}")
        seen.add((supplier, customer))
        triples.append((supplier, customer,
                        _parse_float(path, lineno, "k", row[2])))
    return PerEdgeNetwork(firms, triples)


def load_params(path: str) -> dict[str, FirmParameters]:
    """Read per-firm parameters CSV."""
    linenos, rows = _read_table(path, PARAMS_HEADER)
    out: dict[str, FirmParameters] = {}
    for lineno, row in zip(linenos, _stripped(rows)):
        if len(row) != len(PARAMS_HEADER):
            raise OracleFormatError(
                f"{path} line {lineno}: expected {len(PARAMS_HEADER)} fields")
        fid = row[0]
        if fid in out:
            raise OracleFormatError(f"{path} line {lineno}: duplicate firm {fid!r}")
        values = [_parse_float(path, lineno, name, raw)
                  for name, raw in zip(PARAMS_HEADER[1:], row[1:])]
        try:
            out[fid] = FirmParameters(*values)
        except ValueError as exc:
            raise OracleFormatError(f"{path} line {lineno}: {exc}") from None
    return out
