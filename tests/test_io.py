"""CSV loaders/writers, JSON exports, and the graph renderings."""

import json
import os
import re
import tempfile
import tracemalloc
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chainsim import (
    CascadeConfig,
    FirmParameters,
    FirmSeries,
    GeneratorConfig,
    MacroSeries,
    PanelSeries,
    TransactionNetwork,
    fit_all,
    forward_simulate,
    generate_economy,
    run_cascade,
    simulate_economy,
)
from chainsim.io import (
    PANEL_HEADER,
    FormatError,
    attach_gdp,
    cascade_payload,
    export_cascade,
    export_fit_report,
    export_network_dot,
    export_network_graphml,
    load_edges,
    load_gdp,
    load_panel,
    load_params,
    network_dot,
    network_graphml,
    write_edges,
    write_gdp,
    write_json,
    write_panel,
    write_params,
)

import loader_oracle
from conftest import make_chain, make_panel
from panel_oracle import OracleFormatError, load_panel as oracle_load_panel

PANEL_TEXT = """firm_id,period,revenue,capital,labor,equity
A,0,100.0,50.0,20.0,30.0
A,1,104.0,52.0,21.0,31.5
A,2,108.0,54.0,22.0,33.0
B,0,80.0,40.0,16.0,24.0
B,1,82.0,41.0,16.5,25.0
B,2,84.5,42.0,17.0,26.0
"""

GDP_TEXT = """period,gdp
0,100.0
1,102.0
2,104.04
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestPanelLoading:
    def test_two_firm_fixture(self, tmp_path):
        panel = load_panel(_write(tmp_path, "panel.csv", PANEL_TEXT))
        assert panel.firm_ids == ("A", "B")
        assert panel.n_periods == 3
        assert panel.periods == (0, 1, 2)
        assert panel.firm("A").revenue == pytest.approx([100.0, 104.0, 108.0])
        assert panel.equity[panel.rows["B"]] == pytest.approx([24.0, 25.0, 26.0])

    def test_comments_and_blanks_skipped(self, tmp_path):
        text = "# config: {}\n\n" + PANEL_TEXT
        panel = load_panel(_write(tmp_path, "panel.csv", text))
        assert panel.firm_ids == ("A", "B")

    def test_negative_revenue_cites_the_line(self, tmp_path):
        bad = PANEL_TEXT.replace("B,1,82.0", "B,1,-82.0")
        path = _write(tmp_path, "panel.csv", bad)
        with pytest.raises(FormatError, match=r"line 6.*revenue"):
            load_panel(path)

    def test_garbage_number_cites_the_line(self, tmp_path):
        bad = PANEL_TEXT.replace("A,2,108.0", "A,2,lots")
        path = _write(tmp_path, "panel.csv", bad)
        with pytest.raises(FormatError, match=r"line 4.*revenue.*'lots'"):
            load_panel(path)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_cell_cites_the_line(self, tmp_path, raw):
        bad = PANEL_TEXT.replace("B,1,82.0,41.0", f"B,1,82.0,{raw}")
        path = _write(tmp_path, "panel.csv", bad)
        with pytest.raises(FormatError, match=r"line 6: capital is not finite"):
            load_panel(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = _write(tmp_path, "panel.csv",
                      "firm,period,revenue\nA,0,1.0\n")
        with pytest.raises(FormatError, match="header"):
            load_panel(path)

    def test_duplicate_period_rejected(self, tmp_path):
        bad = PANEL_TEXT.replace("A,2,108.0", "A,1,108.0")
        path = _write(tmp_path, "panel.csv", bad)
        with pytest.raises(FormatError, match=r"duplicate period 1.*'A'"):
            load_panel(path)

    def test_misaligned_periods_name_both_firms(self, tmp_path):
        bad = PANEL_TEXT.replace("B,2,84.5,42.0,17.0,26.0\n", "")
        path = _write(tmp_path, "panel.csv", bad)
        with pytest.raises(FormatError, match=r"'B'.*'A'"):
            load_panel(path)

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path, "panel.csv", "# nothing here\n")
        with pytest.raises(FormatError, match="no data rows"):
            load_panel(path)

    def test_header_only_rejected(self, tmp_path):
        path = _write(tmp_path, "panel.csv", PANEL_TEXT.splitlines()[0] + "\n")
        with pytest.raises(FormatError, match="no data rows"):
            load_panel(path)


class TestGdpLoading:
    def test_header_only_rejected(self, tmp_path):
        path = _write(tmp_path, "gdp.csv", "period,gdp\n")
        with pytest.raises(FormatError, match="no data rows") as info:
            load_gdp(path)
        assert path in str(info.value)

    def test_fixture(self, tmp_path):
        macro = load_gdp(_write(tmp_path, "gdp.csv", GDP_TEXT))
        assert macro.gdp == pytest.approx((100.0, 102.0, 104.04))
        assert macro.periods == (0, 1, 2)

    def test_label_column_tolerated(self, tmp_path):
        text = "period,gdp,label\n0,100.0,y1993\n1,102.0,y1994\n"
        macro = load_gdp(_write(tmp_path, "gdp.csv", text))
        assert len(macro) == 2

    def test_attach_requires_matching_periods(self, tmp_path):
        panel = load_panel(_write(tmp_path, "panel.csv", PANEL_TEXT))
        macro = load_gdp(_write(tmp_path, "gdp.csv", GDP_TEXT))
        merged = attach_gdp(panel, macro)
        assert merged.gdp == pytest.approx([100.0, 102.0, 104.04])
        short = MacroSeries(gdp=(100.0, 102.0), periods=(0, 1))
        with pytest.raises(FormatError):
            attach_gdp(panel, short)

    def test_duplicate_period_rejected(self, tmp_path):
        text = "period,gdp\n0,100.0\n0,101.0\n"
        with pytest.raises(FormatError, match="duplicate"):
            load_gdp(_write(tmp_path, "gdp.csv", text))


class TestEdgesLoading:
    def test_fixture(self, tmp_path):
        text = "supplier_id,customer_id,k\nA,B,0.5\nB,C,0.25\nA,C,0.1\n"
        net = load_edges(_write(tmp_path, "edges.csv", text), ("A", "B", "C"))
        assert net.n_edges() == 3
        assert net.strength("B", "C") == 0.25

    def test_self_loop_cites_line(self, tmp_path):
        text = "supplier_id,customer_id,k\nA,B,0.5\nB,B,0.1\n"
        with pytest.raises(FormatError, match="line 3"):
            load_edges(_write(tmp_path, "edges.csv", text), ("A", "B"))

    def test_duplicate_edge_cites_line(self, tmp_path):
        text = "supplier_id,customer_id,k\nA,B,0.5\nA,B,0.1\n"
        with pytest.raises(FormatError, match="line 3"):
            load_edges(_write(tmp_path, "edges.csv", text), ("A", "B"))

    def test_unknown_firm_rejected(self, tmp_path):
        text = "supplier_id,customer_id,k\nA,Z,0.5\n"
        with pytest.raises(FormatError, match="'Z'"):
            load_edges(_write(tmp_path, "edges.csv", text), ("A", "B"))

    def test_header_only_gives_empty_network(self, tmp_path):
        text = "supplier_id,customer_id,k\n"
        net = load_edges(_write(tmp_path, "edges.csv", text), ("A", "B"))
        assert net.n_edges() == 0
        assert net.firms == ("A", "B")


class TestParamsLoading:
    def test_round_trip(self, tmp_path):
        params = {
            "A": FirmParameters(alpha=0.3, beta=0.4, cost_coeff=0.25,
                                interest_rate=0.05, noise_sigma=0.02),
            "B": FirmParameters(alpha=1 / 3, beta=0.2, cost_coeff=0.1,
                                interest_rate=0.0, noise_sigma=0.0),
        }
        path = str(tmp_path / "params.csv")
        write_params(path, params)
        assert load_params(path) == params  # repr round-trips every float

    def test_invalid_value_cites_line(self, tmp_path):
        text = ("firm_id,alpha,beta,cost_coeff,interest_rate,noise_sigma\n"
                "A,-0.3,0.4,0.2,0.05,0.02\n")
        with pytest.raises(FormatError, match="line 2"):
            load_params(_write(tmp_path, "params.csv", text))


class TestWriteReadCycles:
    def test_simulated_panel_round_trips_bit_for_bit(self, tmp_path):
        cfg = GeneratorConfig(n_firms=6, seed=19)
        economy, network, macro, res = simulate_economy(cfg)
        ppath = str(tmp_path / "panel.csv")
        gpath = str(tmp_path / "gdp.csv")
        epath = str(tmp_path / "edges.csv")
        write_panel(ppath, res.panel, seed=19)
        write_gdp(gpath, macro, seed=19)
        write_edges(epath, network, seed=19)

        panel = attach_gdp(load_panel(ppath), load_gdp(gpath))
        net = load_edges(epath, panel.firm_ids)
        for f in res.panel.firm_ids:
            assert np.array_equal(panel.firm(f).revenue, res.panel.firm(f).revenue)
            assert np.array_equal(panel.firm(f).capital, res.panel.firm(f).capital)
            assert np.array_equal(panel.firm(f).labor, res.panel.firm(f).labor)
            assert np.array_equal(panel.equity[panel.rows[f]],
                                  res.panel.equity[res.panel.rows[f]])
        assert np.array_equal(panel.gdp, np.asarray(macro.gdp))
        assert list(net.edges()) == list(network.edges())

        # a second write of the reloaded data is byte-identical
        write_panel(str(tmp_path / "again.csv"), panel, seed=19)
        a = (tmp_path / "panel.csv").read_bytes()
        b = (tmp_path / "again.csv").read_bytes()
        assert a == b

    def test_array_paths_build_no_firm_series(self, tmp_path, monkeypatch):
        economy, network, macro = generate_economy(
            GeneratorConfig(n_firms=8, seed=3))
        built = []

        def counted(self, check=FirmSeries.__post_init__):
            built.append(self)
            check(self)

        monkeypatch.setattr(FirmSeries, "__post_init__", counted)
        res = forward_simulate(economy, network, macro, seed=1)
        ppath, gpath = str(tmp_path / "panel.csv"), str(tmp_path / "gdp.csv")
        write_panel(ppath, res.panel)
        write_gdp(gpath, macro)
        panel = attach_gdp(load_panel(ppath), load_gdp(gpath))
        fit_all(panel, network)
        assert built == []
        panel.firm(panel.firm_ids[0])  # the per-firm accessor still builds one
        assert len(built) == 1

    def test_config_echo_lands_in_comments(self, tmp_path):
        _, _, macro, _ = simulate_economy(GeneratorConfig(n_firms=2, seed=3))
        path = tmp_path / "gdp.csv"
        write_gdp(str(path), macro, config_echo={"n_firms": 2}, seed=3)
        head = path.read_text().splitlines()[:2]
        assert head[0].startswith("# config: ")
        assert json.loads(head[0].removeprefix("# config: ")) == {"n_firms": 2}
        assert head[1] == "# seed: 3"


class TestWriters:
    def test_files_take_the_umask_mode(self, tmp_path):
        macro = MacroSeries(gdp=(100.0, 102.0))
        umask = os.umask(0o027)
        try:
            write_gdp(str(tmp_path / "gdp.csv"), macro)
            write_json(str(tmp_path / "doc.json"), {"a": 1})
        finally:
            os.umask(umask)
        for name in ("gdp.csv", "doc.json"):
            assert os.stat(tmp_path / name).st_mode & 0o777 == 0o640

    def test_failed_replace_leaves_target_and_no_temp_file(self, tmp_path,
                                                           monkeypatch):
        path = tmp_path / "doc.json"
        path.write_text("earlier\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            write_json(str(path), {"a": 1})
        assert os.listdir(tmp_path) == ["doc.json"]
        assert path.read_text() == "earlier\n"

    def test_panel_without_equity_is_refused(self, tmp_path):
        row = FirmSeries(np.ones(3), np.ones(3), np.ones(3))
        panel = make_panel({"A": row}, np.ones(3), (0, 1, 2))
        with pytest.raises(ValueError, match="^panel has no equity series; "
                                             "cannot write the schema$"):
            write_panel(str(tmp_path / "panel.csv"), panel)
        assert os.listdir(tmp_path) == []


PARAMS = FirmParameters(alpha=0.3, beta=0.4, cost_coeff=0.25,
                        interest_rate=0.05, noise_sigma=0.02)
# ids the loaders would read back as another id, or not at all
BAD_IDS = ["", " A", "A ", "A\t", "#X", "A,B", 'A"B', "A\rB", "A\nB", "A\x00B"]


class TestWritersRefuseUnreadableIds:
    @pytest.mark.parametrize("bad", BAD_IDS)
    def test_write_panel(self, tmp_path, bad):
        row = FirmSeries(np.ones(3), np.ones(3), np.ones(3))
        panel = make_panel({"A": row, bad: row}, np.ones(3), (0, 1, 2),
                           equity={"A": np.zeros(3), bad: np.zeros(3)})
        path = tmp_path / "panel.csv"
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            write_panel(str(path), panel)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("bad", BAD_IDS)
    def test_write_edges(self, tmp_path, bad):
        network = TransactionNetwork(("A", bad), ((bad, "A", 0.5),))
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            write_edges(str(tmp_path / "edges.csv"), network)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("bad", BAD_IDS)
    def test_write_params(self, tmp_path, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            write_params(str(tmp_path / "params.csv"), {"A": PARAMS, bad: PARAMS})
        assert os.listdir(tmp_path) == []


def _writable(fid):
    return fid == fid.strip() and not fid.startswith("#")


writable_ids = st.text(st.characters(exclude_categories=("Cs",),
                                     exclude_characters=',"\r\n\x00'),
                       min_size=1, max_size=6).filter(_writable)
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _round_trip(writer, loader, obj, *args):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        writer(path, obj)
        return loader(path, *args)


def _bits(values):
    return [float(v).hex() for v in values]


@st.composite
def panels(draw):
    firm_ids = tuple(sorted(draw(st.sets(writable_ids, min_size=1, max_size=4))))
    periods = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1,
                            max_size=4, unique=True))
    shape = (len(firm_ids), len(periods))
    r, k, l = (draw(hnp.arrays(float, shape, elements=positive))
               for _ in range(3))
    equity = draw(hnp.arrays(float, shape, elements=finite))
    return PanelSeries(firm_ids, r, k, l, np.ones(len(periods)), periods,
                       equity)


class TestRoundTripProperties:
    @given(panels())
    @settings(max_examples=60, deadline=None)
    def test_panel(self, panel):
        back = _round_trip(write_panel, load_panel, panel)
        order = np.argsort(panel.periods)  # the loader sorts by period
        assert back.firm_ids == panel.firm_ids
        assert back.periods == tuple(sorted(panel.periods))
        for name in ("revenue", "capital", "labor", "equity"):
            assert (getattr(back, name).tobytes()
                    == getattr(panel, name)[:, order].tobytes())

    @given(st.sets(writable_ids, min_size=2, max_size=5).flatmap(
        lambda firms: st.tuples(
            st.just(sorted(firms)),
            st.dictionaries(st.tuples(st.sampled_from(sorted(firms)),
                                      st.sampled_from(sorted(firms)))
                            .filter(lambda e: e[0] != e[1]),
                            finite, max_size=6))))
    @settings(max_examples=60, deadline=None)
    def test_edges(self, drawn):
        firms, strengths = drawn
        network = TransactionNetwork(
            firms, [(s, c, k) for (s, c), k in strengths.items()])
        back = _round_trip(write_edges, load_edges, network, firms)
        assert back.firms == network.firms
        assert ([(s, c, k.hex()) for s, c, k in back.edges()]
                == [(s, c, k.hex()) for s, c, k in network.edges()])

    @given(st.dictionaries(writable_ids, st.builds(FirmParameters, *[
        st.floats(min_value=0.0, allow_infinity=False)] * 5), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_params(self, params):
        back = _round_trip(write_params, load_params, params)
        assert back.keys() == params.keys()
        for fid, p in params.items():
            assert _bits(vars(back[fid]).values()) == _bits(vars(p).values())


LIMIT = 131_072  # csv's default field size limit


class TestLineReader:
    """What every loader reads: line numbers, quotes, NUL, long cells."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("good_lines", [0, 2000])
    def test_byte_not_utf8_names_the_file_and_line(self, tmp_path, newline,
                                                   good_lines):
        # the bad byte sits on its own line, past the reader's first
        # chunk when 2000 comment lines come before it
        text = "# x\n" * good_lines + PANEL_TEXT
        raw = text.replace("\n", newline).encode().replace(b"B,1,", b"B\xff,1,")
        path = tmp_path / "panel.csv"
        path.write_bytes(raw)
        with pytest.raises(FormatError) as caught:
            load_panel(str(path))
        assert str(caught.value) == (
            f"{path} line {good_lines + 6}: not UTF-8: 'utf-8' codec can't "
            "decode byte 0xff in position 1: invalid start byte")

    def test_lowest_line_wins_across_checks(self, tmp_path):
        # a bad number on line 3 is not hidden by a field count on line 5
        bad = (PANEL_TEXT.replace("A,1,104.0", "A,1,lots")
               .replace("B,0,80.0,40.0,16.0,24.0", "B,0,80.0"))
        with pytest.raises(FormatError,
                           match=r"line 3: revenue is not a number: 'lots'$"):
            load_panel(_write(tmp_path, "panel.csv", bad))
        bad = (PANEL_TEXT.replace("A,1,104.0,52.0,21.0,31.5", "A,1,104.0")
               .replace("B,1,82.0", "B,1,lots"))
        with pytest.raises(FormatError, match=r"line 3: expected 6 fields, got 3$"):
            load_panel(_write(tmp_path, "panel.csv", bad))

    @pytest.mark.parametrize("line, message", [
        ("A,x,-1.0,nan,21.0,31.5", "period is not an integer: 'x'"),
        (",x,-1.0,nan,21.0,31.5", "empty firm_id"),
        ("A,1,-1.0,nan,21.0,31.5", "capital is not finite"),
        ("A,1,-1.0,52.0,zero,31.5", "labor is not a number: 'zero'"),
        ("A,1,-1.0,-52.0,21.0,inf", "equity is not finite"),
        ("A,1,104.0,-52.0,-21.0,31.5", "capital must be > 0, got -52.0"),
        ("A,0,-0.0,52.0,21.0,31.5", "revenue must be > 0, got -0.0"),
        ("A,0,104.0,52.0,21.0,31.5", "duplicate period 0 for firm 'A'"),
    ])
    def test_a_row_reports_its_first_failing_check(self, tmp_path, line,
                                                    message):
        bad = PANEL_TEXT.replace("A,1,104.0,52.0,21.0,31.5", line)
        with pytest.raises(FormatError) as info:
            load_panel(_write(tmp_path, "panel.csv", bad))
        assert str(info.value).endswith(f"line 3: {message}")

    @pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x1c", "\x85",
                                       "\u2028", "\u2029"])
    def test_line_numbers_follow_the_file_not_splitlines(self, tmp_path,
                                                         space):
        text = PANEL_TEXT.replace("A,", f"A{space}Z,").replace(
            "B,2,84.5", "B,2,lots")
        with pytest.raises(FormatError, match=r"line 7: revenue"):
            load_panel(_write(tmp_path, "panel.csv", text))
        text = PANEL_TEXT.replace("A,", f"A{space}Z,")
        assert load_panel(_write(tmp_path, "panel.csv", text)).firm_ids == (
            f"A{space}Z", "B")

    @pytest.mark.parametrize("quoted", [False, True])
    def test_over_long_cell_cites_the_line(self, tmp_path, quoted):
        cell = "9" * 200_000
        bad = PANEL_TEXT.replace("B,1,82.0",
                                 f'B,1,"{cell}"' if quoted else f"B,1,{cell}")
        with pytest.raises(FormatError) as info:
            load_panel(_write(tmp_path, "panel.csv", bad))
        assert str(info.value) == (f"{tmp_path / 'panel.csv'} line 6: "
                                   f"field larger than field limit ({LIMIT})")

    @pytest.mark.parametrize("quoted", [False, True])
    def test_field_limit_is_csvs_on_both_paths(self, tmp_path, quoted):
        def gdp(width):
            label = "x" * width
            return _write(tmp_path, "gdp.csv", "period,gdp,label\n0,100.0,"
                          + (f'"{label}"' if quoted else label) + "\n")

        assert load_gdp(gdp(LIMIT)).gdp == (100.0,)
        with pytest.raises(FormatError, match=r"line 2: field larger"):
            load_gdp(gdp(LIMIT + 1))

    def test_over_long_cell_in_the_other_loaders(self, tmp_path):
        cell = "1" * (LIMIT + 1)
        with pytest.raises(FormatError, match=r"line 2: field larger"):
            load_gdp(_write(tmp_path, "gdp.csv", f"period,gdp\n0,{cell}\n"))
        with pytest.raises(FormatError, match=r"line 3: field larger"):
            load_edges(_write(tmp_path, "edges.csv", "supplier_id,customer_id,k"
                              f"\nA,B,0.5\nB,A,{cell}\n"), ("A", "B"))
        with pytest.raises(FormatError, match=r"line 2: field larger"):
            load_params(_write(tmp_path, "params.csv", ",".join(
                ["firm_id", "alpha", "beta", "cost_coeff", "interest_rate",
                 "noise_sigma"]) + f"\nA,{cell},0.4,0.2,0.05,0.02\n"))

    def test_nul_reads_the_same_quoted_or_not(self, tmp_path):
        text = ("firm_id,period,revenue,capital,labor,equity\n"
                "A\x00B,0,100.0,50.0,20.0,30.0\n"
                '"A\x00B",1,104.0,52.0,"2\x001.0",31.5\n')
        with pytest.raises(FormatError, match=r"line 3: labor is not a number"):
            load_panel(_write(tmp_path, "panel.csv", text))
        panel = load_panel(_write(tmp_path, "panel.csv",
                                  text.replace("2\x001.0", "21.0")))
        assert panel.firm_ids == ("A\x00B",)
        assert panel.periods == (0, 1)

    def test_unclosed_quote_ends_at_its_line(self, tmp_path):
        bad = PANEL_TEXT.replace("A,1,104.0", 'A,1,"104.0')
        with pytest.raises(FormatError, match=r"line 3: expected 6 fields, got 3$"):
            load_panel(_write(tmp_path, "panel.csv", bad))
        # the quote swallows only its own line's end
        macro = load_gdp(_write(tmp_path, "gdp.csv",
                                'period,gdp\n0,"100.0\n1,102.0\n'))
        assert macro.gdp == (100.0, 102.0)

    def test_quoted_cells_read_as_plain_ones(self, tmp_path):
        quoted = PANEL_TEXT.replace("A,0,100.0", '"A",0," 100.0 "')
        plain = load_panel(_write(tmp_path, "plain.csv", PANEL_TEXT))
        panel = load_panel(_write(tmp_path, "quoted.csv", quoted))
        assert panel.firm_ids == plain.firm_ids
        assert panel.revenue.tobytes() == plain.revenue.tobytes()

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_crlf_and_lone_cr_end_lines(self, tmp_path, ending):
        text = PANEL_TEXT.replace("B,2,84.5", "B,2,lots").replace("\n", ending)
        path = tmp_path / "panel.csv"
        path.write_bytes(text.encode())
        with pytest.raises(FormatError, match=r"line 7: revenue"):
            load_panel(str(path))


# values a fault can put in a cell, and lines that read as nothing
BAD_NUMBERS = ["x", "1.0.0", "", " ", "0x1", "1e", "--1", "1_0", "1.5",
               "\u0661"]
NON_FINITE = ["nan", "inf", "-inf", "NaN", "-Infinity"]
NON_POSITIVE = ["0", "0.0", "-0.0", "-1.5", "-1e-300"]
ODD_SPACES = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
SKIPPED_LINES = ["# note", "", "   ", "  # indented", "\t", "#"]


@st.composite
def _line_fault(draw, line):
    """line with one fault in it; ids hold no ',' or '"' so split works."""
    cells = line.split(",")
    kind = draw(st.sampled_from([
        "bad number", "non-finite", "non-positive", "field count",
        "empty id", "quoted", "unclosed quote", "odd space", "lone CR"]))
    if kind == "bad number":
        cells[draw(st.integers(1, 5))] = draw(st.sampled_from(BAD_NUMBERS))
    elif kind == "non-finite":
        cells[draw(st.integers(2, 5))] = draw(st.sampled_from(NON_FINITE))
    elif kind == "non-positive":
        cells[draw(st.integers(2, 4))] = draw(st.sampled_from(NON_POSITIVE))
    elif kind == "field count":
        if draw(st.booleans()):
            cells.append("1.0")
        else:
            del cells[draw(st.integers(0, 5))]
    elif kind == "empty id":
        cells[0] = draw(st.sampled_from(["", " "]))
    elif kind == "quoted":
        i = draw(st.integers(0, 5))
        cells[i] = draw(st.sampled_from(['"{}"', '" {} "', '"{},1"'])).format(
            cells[i])
    elif kind == "unclosed quote":
        cells[draw(st.integers(0, 5))] = '"' + cells[draw(st.integers(0, 5))]
    else:
        i = draw(st.integers(0, 5))
        at = draw(st.integers(0, len(cells[i])))
        char = "\r" if kind == "lone CR" else draw(st.sampled_from(ODD_SPACES))
        cells[i] = cells[i][:at] + char + cells[i][at:]
    return ",".join(cells)


@st.composite
def corrupted_panel_texts(draw):
    """A written panel's text with one or two faults, or its line ends,
    blank lines or comments changed."""
    panel = draw(panels())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.csv")
        write_panel(path, panel, config_echo={"n": 1}, seed=7)
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")[:-1]
    first = lines.index(",".join(PANEL_HEADER)) + 1
    for i in draw(st.lists(st.integers(first, len(lines) - 1), max_size=2,
                           unique=True)):
        lines[i] = draw(_line_fault(lines[i]))
    for kind in draw(st.lists(st.sampled_from(["duplicate", "missing"]),
                              max_size=2)):
        if len(lines) == first:
            break
        i = draw(st.integers(first, len(lines) - 1))
        if kind == "duplicate":
            lines.insert(draw(st.integers(first, len(lines))), lines[i])
        else:
            del lines[i]
    for line in draw(st.lists(st.sampled_from(SKIPPED_LINES), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + ending


def _outcome(loader, error, path):
    try:
        panel = loader(path)
    except error as exc:
        return str(exc)
    return (panel.firm_ids, panel.periods,
            *(getattr(panel, name).tobytes()
              for name in ("revenue", "capital", "labor", "equity")))


class TestColumnarPanelMatchesRowOracle:
    @given(corrupted_panel_texts())
    @settings(max_examples=300, deadline=None)
    def test_same_arrays_or_same_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "panel.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            assert (_outcome(load_panel, FormatError, path)
                    == _outcome(oracle_load_panel, OracleFormatError, path))


FOREIGN_IDS = ["q", " q ", "#Z"]  # lower case: never a drawn firm id


@st.composite
def _cell_fault(draw, line, numbers, ids):
    """line with one fault in it; numbers and ids are the indices of its
    number and id cells."""
    cells = line.split(",")
    kind = draw(st.sampled_from([
        "bad number", "non-finite", "non-positive", "non-positive",
        "field count", "empty id", "foreign id", "same id", "quoted",
        "padded", "unclosed quote", "odd space", "lone CR", "over-long"]))
    pool = (numbers if kind in ("bad number", "non-finite", "non-positive")
            else ids if kind in ("empty id", "foreign id", "same id")
            else range(len(cells)))
    # an earlier fault on the line may have dropped a cell
    i = draw(st.sampled_from([j for j in pool if j < len(cells)] or [0]))
    if kind == "bad number":
        cells[i] = draw(st.sampled_from(BAD_NUMBERS))
    elif kind == "non-finite":
        cells[i] = draw(st.sampled_from(NON_FINITE))
    elif kind == "non-positive":
        cells[i] = draw(st.sampled_from(NON_POSITIVE))
    elif kind == "field count":
        if draw(st.booleans()):
            cells.append("1.0")
        else:
            del cells[i]
    elif kind == "empty id":
        cells[i] = draw(st.sampled_from(["", " "]))
    elif kind == "foreign id":
        cells[i] = draw(st.sampled_from(FOREIGN_IDS))
    elif kind == "same id":
        cells[i] = cells[ids[0]]
    elif kind == "quoted":
        cells[i] = draw(st.sampled_from(['"{}"', '" {} "', '"{},1"'])).format(
            cells[i])
    elif kind == "padded":
        cells[i] = draw(st.sampled_from([" {}", "{}\t", " \x0c{} "])).format(
            cells[i])
    elif kind == "unclosed quote":
        cells[i] = '"' + cells[draw(st.integers(0, len(cells) - 1))]
    elif kind == "over-long":
        cells[i] = "1" * (LIMIT + draw(st.integers(0, 1)))
    else:
        at = draw(st.integers(0, len(cells[i])))
        char = "\r" if kind == "lone CR" else draw(st.sampled_from(ODD_SPACES))
        cells[i] = cells[i][:at] + char + cells[i][at:]
    return ",".join(cells)


@st.composite
def _corrupted(draw, lines, header, numbers, ids):
    """The text of a written file's lines, its header at header, after up
    to four edits of its data lines in turn: a fault (two may hit one
    line), a line taking another's id cells, a later copy of a line,
    maybe with a fault, or a drop. Then skipped lines are put in and the
    line ends changed."""
    first = lines.index(",".join(header)) + 1
    for kind in draw(st.lists(st.sampled_from(
            ["fault", "fault", "rekey", "duplicate", "missing"]),
            max_size=4)):
        if len(lines) == first:
            break
        i = draw(st.integers(first, len(lines) - 1))
        if kind == "fault":
            lines[i] = draw(_cell_fault(lines[i], numbers, ids))
        elif kind == "rekey":
            cells = lines[i].split(",")
            other = lines[draw(st.integers(first, len(lines) - 1))].split(",")
            for j in ids[:min(len(cells), len(other))]:
                cells[j] = other[j]
            lines[i] = ",".join(cells)
        elif kind == "duplicate":  # a later copy, maybe with a fault
            copy = (draw(_cell_fault(lines[i], numbers, ids))
                    if draw(st.booleans()) else lines[i])
            lines.insert(draw(st.integers(i + 1, len(lines))), copy)
        else:
            del lines[i]
    for line in draw(st.lists(st.sampled_from(SKIPPED_LINES), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + ending


def _written_lines(writer, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        writer(path, obj, config_echo={"n": 1}, seed=7)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read().split("\n")[:-1]


# upper case, so no FOREIGN_IDS cell is a drawn firm
upper_ids = st.text(st.characters(min_codepoint=ord("A"), max_codepoint=ord("Z")),
                   min_size=1, max_size=3)


@st.composite
def corrupted_edge_texts(draw):
    """(text, firms): a written edge list with faults, and its firms."""
    firms = sorted(draw(st.sets(upper_ids, min_size=2, max_size=5)))
    pairs = draw(st.sets(st.tuples(st.sampled_from(firms),
                                   st.sampled_from(firms))
                         .filter(lambda e: e[0] != e[1]), max_size=6))
    network = TransactionNetwork(firms, [(s, c, draw(finite)) for s, c in pairs])
    text = draw(_corrupted(_written_lines(write_edges, network),
                           ["supplier_id", "customer_id", "k"], [2], [0, 1]))
    return text, firms


@st.composite
def corrupted_params_texts(draw):
    params = draw(st.dictionaries(upper_ids, st.builds(FirmParameters, *[
        st.floats(min_value=0.0, allow_infinity=False)] * 5), max_size=4))
    return draw(_corrupted(_written_lines(write_params, params),
                           ["firm_id", "alpha", "beta", "cost_coeff",
                            "interest_rate", "noise_sigma"],
                           [1, 2, 3, 4, 5], [0]))


@st.composite
def corrupted_gdp_texts(draw):
    periods = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1,
                            max_size=4, unique=True))
    gdp = draw(st.lists(positive, min_size=len(periods),
                        max_size=len(periods)))
    return draw(_corrupted(_written_lines(write_gdp, MacroSeries(gdp, periods)),
                           ["period", "gdp"], [0, 1], [0]))


def _loaded(loader, error, path, *args):
    """loader's result on path, in bits, or its error text."""
    try:
        result = loader(path, *args)
    except error as exc:
        return str(exc)
    if isinstance(result, MacroSeries):
        return _bits(result.gdp), result.periods
    if isinstance(result, dict):
        return [(fid, _bits(vars(p).values())) for fid, p in result.items()]
    offsets, positions, ks = result.customers
    return (result.firms, offsets, positions, _bits(ks),
            result.suppliers[:2], _bits(result.suppliers[2]))


def _same_outcome(name, text, *args):
    """Whether io's loader name and the row oracle's read text alike."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        new = _loaded(globals()[name], FormatError, path, *args)
        old = _loaded(getattr(loader_oracle, name),
                      loader_oracle.OracleFormatError, path, *args)
    return new == old


class TestColumnarLoadersMatchRowOracles:
    """The edge, parameter and GDP loaders against the row-by-row ones
    they replaced: the same result, bit for bit, or the same error."""

    @given(corrupted_edge_texts())
    @settings(max_examples=300, deadline=None)
    def test_edges(self, drawn):
        text, firms = drawn
        assert _same_outcome("load_edges", text, firms)

    @given(corrupted_params_texts())
    @settings(max_examples=300, deadline=None)
    def test_params(self, text):
        assert _same_outcome("load_params", text)

    @given(corrupted_gdp_texts())
    @settings(max_examples=300, deadline=None)
    def test_gdp(self, text):
        assert _same_outcome("load_gdp", text)

    @pytest.mark.parametrize("name, text, args", [
        ("load_gdp", "period,gdp\n0,1.0\n0,x\n", ()),
        ("load_gdp", "period,gdp\n0,1.0\n0,-1.0\n", ()),
        ("load_params", "firm_id,alpha,beta,cost_coeff,interest_rate,"
         "noise_sigma\nA,0,0,0,0,0\nA,-1,0,0,0,0\n", ()),
        ("load_edges", "supplier_id,customer_id,k\nA,B,1\nA,B,x\n",
         (["A", "B"],)),
    ])
    def test_a_repeated_key_with_a_bad_value(self, name, text, args):
        # one row, two faults: the row oracle's check order decides
        assert _same_outcome(name, text, *args)


class TestLoadingMemory:
    def test_panel_load_peaks_below_its_bound(self, tmp_path):
        # 1000 firms over 11 periods, the size of the benchmark chain's
        # panel; the row-by-row reader peaked at about 8.0 MiB on it
        rng = np.random.default_rng(3)
        shape = (1000, 11)
        r, k, l = rng.uniform(1.0, 1000.0, (3, *shape))
        panel = PanelSeries(tuple(f"F{i:04d}" for i in range(shape[0])),
                            r, k, l, np.ones(shape[1]), tuple(range(shape[1])),
                            rng.normal(0.0, 100.0, shape))
        path = str(tmp_path / "panel.csv")
        write_panel(path, panel, config_echo={"n_firms": 1000}, seed=3)
        load_panel(path)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            back = load_panel(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.revenue.tobytes() == panel.revenue.tobytes()
        assert peak < 8.5 * 2**20


class TestJsonExports:
    def test_fit_report_content_and_determinism(self, tmp_path):
        cfg = GeneratorConfig(n_firms=5, seed=41)
        _, network, _, res = simulate_economy(cfg, noise_on=False)
        report = fit_all(res.panel, network)
        path = tmp_path / "fit.json"
        export_fit_report(str(path), report, config_echo={"seed": 41}, seed=41)
        doc = json.loads(path.read_text())
        assert doc["seed"] == 41
        assert doc["config"] == {"seed": 41}
        assert set(doc["firms"]) == set(report.results)
        one = doc["firms"][res.panel.firm_ids[0]]
        assert {"alpha", "beta", "strengths", "sigma", "sse",
                "average_error", "iterations", "converged",
                "degenerate"} <= set(one)
        assert set(doc["histograms"]) == {"alpha", "beta", "alpha_plus_beta",
                                          "strength", "average_error"}
        first = path.read_bytes()
        export_fit_report(str(path), report, config_echo={"seed": 41}, seed=41)
        assert path.read_bytes() == first

    def test_cascade_export_orders_generations(self, tmp_path, chain):
        eco, net, decisions = chain
        result = run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                             decisions=decisions)
        payload = cascade_payload(result, seed=0)
        assert payload["bankrupt"] == {"C": 0, "B": 1}
        assert payload["generations_run"] == 2
        assert payload["survivors"] == {"A": "equity-sufficient"}
        path = tmp_path / "cascade.json"
        export_cascade(str(path), result, seed=0)
        doc = json.loads(path.read_text())
        assert doc["bankrupt"] == {"B": 1, "C": 0}
        assert doc["equity_trace"]["B"]["equity_end"] == pytest.approx(-5.0)

    def test_trigger_only_run_serializes_single_entry(self, chain, tmp_path):
        eco, net, decisions = chain
        result = run_cascade(eco, net, CascadeConfig(trigger_firms=("A",)),
                             decisions=decisions)
        payload = cascade_payload(result)
        assert list(payload["bankrupt"]) == ["A"]


EXPECTED_DOT = """digraph money_flow {
  "A";
  "B" [bankrupt=1, generation=1];
  "C" [bankrupt=1, generation=0];
  "B" -> "A" [k=0.5];
  "C" -> "B" [k=0.5];
}
"""

EXPECTED_PRODUCT_DOT = """digraph product_flow {
  "A";
  "B" [bankrupt=1, generation=1];
  "C" [bankrupt=1, generation=0];
  "A" -> "B" [k=0.5];
  "B" -> "C" [k=0.5];
}
"""

EXPECTED_GRAPHML = """<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="node" attr.name="bankrupt" attr.type="boolean"/>
  <key id="d1" for="node" attr.name="generation" attr.type="int"/>
  <key id="d2" for="edge" attr.name="k" attr.type="double"/>
  <graph id="money_flow" edgedefault="directed">
    <node id="A">
      <data key="d0">false</data>
    </node>
    <node id="B">
      <data key="d0">true</data>
      <data key="d1">1</data>
    </node>
    <node id="C">
      <data key="d0">true</data>
      <data key="d1">0</data>
    </node>
    <edge source="B" target="A">
      <data key="d2">0.5</data>
    </edge>
    <edge source="C" target="B">
      <data key="d2">0.5</data>
    </edge>
  </graph>
</graphml>
"""


class TestGraphExports:
    def _result(self, chain):
        eco, net, decisions = chain
        return net, run_cascade(eco, net, CascadeConfig(trigger_firms=("C",)),
                                decisions=decisions)

    def test_dot_matches_hand_construction(self, chain, tmp_path):
        net, result = self._result(chain)
        assert network_dot(net, result) == EXPECTED_DOT
        path = tmp_path / "net.dot"
        export_network_dot(str(path), net, result)
        assert path.read_text() == EXPECTED_DOT

    def test_product_flow_flips_edges(self, chain):
        net, result = self._result(chain)
        assert network_dot(net, result, money_flow=False) == EXPECTED_PRODUCT_DOT

    def test_graphml_matches_hand_construction(self, chain, tmp_path):
        net, result = self._result(chain)
        assert network_graphml(net, result) == EXPECTED_GRAPHML
        path = tmp_path / "net.graphml"
        export_network_graphml(str(path), net, result)
        assert path.read_text() == EXPECTED_GRAPHML

    def test_plain_topology_without_result(self, chain):
        net, _ = self._result(chain)
        text = network_dot(net)
        assert "bankrupt" not in text
        assert '"A";' in text and '"B" -> "A"' in text

    def test_empty_network_is_still_a_document(self):
        net = TransactionNetwork(firms=())
        assert network_dot(net) == "digraph money_flow {\n}\n"
        gml = network_graphml(net)
        assert gml.startswith('<?xml version="1.0"')
        assert "<graph " in gml and "</graphml>" in gml

    def test_ids_with_markup_characters_are_escaped(self):
        net = TransactionNetwork(firms=("A&B", 'C"D', "E<F"),
                                 edges=[("A&B", 'C"D', 0.5),
                                        ('C"D', "E<F", 0.25)])
        doc = minidom.parseString(network_graphml(net))
        nodes = [n.getAttribute("id") for n in doc.getElementsByTagName("node")]
        assert nodes == ["A&B", 'C"D', "E<F"]
        edges = [(e.getAttribute("source"), e.getAttribute("target"))
                 for e in doc.getElementsByTagName("edge")]
        assert edges == [('C"D', "A&B"), ("E<F", 'C"D')]
        dot = network_dot(net)
        assert '  "C\\"D";' in dot
        assert '  "C\\"D" -> "A&B" [k=0.5];' in dot

    def test_graphml_ids_keep_their_whitespace(self):
        ids = ("A\tB", "C\nD", "E\rF")
        net = TransactionNetwork(firms=ids, edges=[("A\tB", "E\rF", 0.5)])
        doc = minidom.parseString(network_graphml(net))
        nodes = [n.getAttribute("id") for n in doc.getElementsByTagName("node")]
        assert nodes == list(ids)
        edge, = doc.getElementsByTagName("edge")
        assert (edge.getAttribute("source"),
                edge.getAttribute("target")) == ("E\rF", "A\tB")

    @pytest.mark.parametrize("fid", ["A\x01", "A\ufffe", "A\x00", "A\ud800"])
    def test_graphml_refuses_id_xml_cannot_carry(self, tmp_path, fid):
        net = TransactionNetwork(firms=("B", fid), edges=[("B", fid, 1.0)])
        path = tmp_path / "net.graphml"
        with pytest.raises(ValueError, match=re.escape(repr(fid))):
            export_network_graphml(str(path), net)
        assert not path.exists()

    def test_dot_refuses_id_ending_in_backslash(self, tmp_path):
        net = TransactionNetwork(firms=("A", "B\\"), edges=[("A", "B\\", 1.0)])
        path = tmp_path / "net.dot"
        with pytest.raises(ValueError, match=re.escape(repr("B\\"))):
            export_network_dot(str(path), net)
        assert not path.exists()
        assert '<node id="B\\">' in network_graphml(net)
