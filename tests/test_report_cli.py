"""Output layer tests: complex literals, CSV round-trip, SVG, CLI commands."""

import argparse
import io
import json
import math
import os
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import winterres
from winterres import (Channel, GpiClass, GpiParams, Resonance, compare, find_poles,
                       index_poles, polefinder)
from winterres.cli import build_parser, main
from winterres.report import (_CONFIG_KEYS, _SCHEMA, CSV_COLUMNS, config_from_dict,
                              embedded_rows, format_complex, parse_complex, read_csv,
                              write_csv, write_pole_svg)

SVG_NS = "{http://www.w3.org/2000/svg}"
ROOT = Path(__file__).resolve().parent.parent

# Two poles whose Im k differ by about one ulp; the chart goes to stdout.
ONE_ULP_CHART = """
import sys
from winterres import GpiClass
from winterres.report import write_pole_svg
ks = [3.0 - 1.2718342727273333j, 6.0 - 1.271834272727333j]
write_pole_svg([("one ulp", GpiClass.INTERMEDIATE, ks)], sys.stdout)
"""


class TestComplexLiterals:
    @pytest.mark.parametrize("text,value", [
        ("1+1i", 1 + 1j), ("2i", 2j), ("-1", -1 + 0j), ("1.5-0.3i", 1.5 - 0.3j),
        ("i", 1j), ("-i", -1j), ("3", 3 + 0j), ("0", 0j), ("1e-3+2e2i", 1e-3 + 2e2j),
    ])
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    def test_reject_garbage(self):
        with pytest.raises(ValueError):
            parse_complex("one plus i")

    def test_round_trip_through_format(self):
        for z in (1.2345678901234567 - 9.87e-5j, 3.0 + 0j, -2j):
            assert parse_complex(format_complex(z)) == z


class TestCsv:
    def rows(self):
        return [
            Resonance(3, 9.734 - 0.123j, 3.2e-13, 9.7 - 0.1j, 0.04, 0.4),
            Resonance(4, 12.9 - 0.2j, 1.1e-12, None, None, None),
            Resonance(0, 1.5707963267948966 + 0j, 5e-14, None, None, None,
                      embedded=True),
        ]

    def test_round_trip_is_exact(self):
        buf = io.StringIO()
        write_csv(self.rows(), buf)
        buf.seek(0)
        back = read_csv(buf)
        assert back == self.rows()

    def test_compare_records_round_trip(self):
        # an index-0 pole, predicted poles and embedded eigenvalues: read_csv
        # gives back the records compare and embedded_rows returned
        p, ch = GpiParams(50, 0, 0), Channel(0, 1.0)
        records = compare(index_poles(find_poles(p, ch, 12.0, -2.0), p, ch), p, ch)
        records += embedded_rows([math.pi / 2, 4.71238898038469], [3e-16, 1e-15])
        assert records[0].k_pred is None and records[1].k_pred is not None
        buf = io.StringIO()
        write_csv(records, buf)
        buf.seek(0)
        assert read_csv(buf) == records

    def test_header(self):
        buf = io.StringIO()
        write_csv([], buf)
        assert buf.getvalue().splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_energy_width_column(self):
        row = self.rows()[0]
        assert row.energy_width == 2.0 * abs(9.734 * -0.123)


class TestRows:
    """Every producer of pole rows gives immutable ``Resonance`` named tuples."""

    P, CH = GpiParams(50, 0, 0), Channel(0, 1.0)

    def produced(self, producer):
        found = find_poles(self.P, self.CH, 12.0, -2.0)
        rows = {"find_poles": lambda: found,
                "index_poles": lambda: index_poles(found, self.P, self.CH),
                "compare": lambda: compare(index_poles(found, self.P, self.CH),
                                           self.P, self.CH),
                "embedded_rows": lambda: embedded_rows([math.pi / 2, 4.7], [3e-16, 1e-15])}
        if producer != "read_csv":
            return rows[producer]()
        buf = io.StringIO()
        write_csv(rows["compare"]() + rows["embedded_rows"](), buf)
        buf.seek(0)
        return read_csv(buf)

    @pytest.mark.parametrize("producer", ["find_poles", "index_poles", "compare",
                                          "embedded_rows", "read_csv"])
    def test_every_producer_gives_rows(self, producer):
        rows = self.produced(producer)
        assert rows
        for row in rows:
            assert type(row) is Resonance and len(row) == 7
            assert row == (row.index, row.k, row.residual, row.k_pred, row.abs_err,
                           row.scaled_err, row.embedded)
            assert row.energy_width == 2.0 * abs(row.k.real * row.k.imag)

    def test_a_row_unpacks_prints_and_cannot_be_assigned(self):
        row = Resonance(0, 3 - 1j, 1e-13)
        index, k, residual, k_pred, abs_err, scaled_err, embedded = row
        assert (index, k, residual, k_pred, abs_err, scaled_err, embedded) == (
            0, 3 - 1j, 1e-13, None, None, None, False)
        assert repr(row) == ("Resonance(index=0, k=(3-1j), residual=1e-13, k_pred=None, "
                             "abs_err=None, scaled_err=None, embedded=False)")
        with pytest.raises(AttributeError):
            row.k = 1j

    def test_index_and_compare_give_new_rows_and_leave_theirs(self):
        given = [Resonance(7, q.k, q.residual) for q in find_poles(self.P, self.CH, 12.0, -2.0)]
        before = list(given)
        indexed = index_poles(given, self.P, self.CH)
        assert [q.index for q in indexed] == [0, 1, 2]
        compared = compare(indexed, self.P, self.CH)
        assert [q.k_pred is None for q in compared] == [True, False, False]
        assert given == before and [q.index for q in given] == [7, 7, 7]
        assert [q.k_pred for q in indexed] == [None] * 3


class TestSvg:
    def test_three_series_chart(self):
        series = [
            ("delta", GpiClass.DELTA, [3 - 0.1j, 6 - 0.2j]),
            ("intermediate", GpiClass.INTERMEDIATE, [4 - 0.3j]),
            ("delta-prime", GpiClass.DELTA_PRIME, [5 - 0.05j, 8 - 0.02j]),
        ]
        buf = io.StringIO()
        write_pole_svg(series, buf)
        text = buf.getvalue()
        root = ET.fromstring(text)  # must be well-formed XML
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("version") == "1.1"
        classes = [g.get("class") for g in root.iter(f"{SVG_NS}g") if g.get("class")]
        assert classes == ["series-plus", "series-cross", "series-star"]
        labels = [t.text for t in root.iter(f"{SVG_NS}text")]
        assert "Re k" in labels and "Im k" in labels
        assert "href" not in text  # self-contained

    def test_empty_chart_still_has_axes(self):
        buf = io.StringIO()
        write_pole_svg([], buf)
        root = ET.fromstring(buf.getvalue())
        labels = [t.text for t in root.iter(f"{SVG_NS}text")]
        assert "Re k" in labels and "Im k" in labels

    def test_one_ulp_im_span_terminates(self):
        # A padding of 5 percent of a one-ulp span makes a tick step that
        # never advances the tick loop, which then allocates without end.
        # The child runs under an address-space cap so a regression fails
        # fast with MemoryError instead of exhausting the machine.
        cap = 512 * 2 ** 20
        src = os.path.dirname(os.path.dirname(winterres.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", ONE_ULP_CHART], capture_output=True, text=True,
            timeout=60, env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert proc.returncode == 0, proc.stderr[-2000:]
        root = ET.fromstring(proc.stdout)
        assert root.tag == f"{SVG_NS}svg"


class TestConfig:
    def test_nested_keys(self):
        cfg = config_from_dict({
            "interaction": {"alpha": 50, "beta": 0, "gamma": "1+1i"},
            "channel": {"l": 1, "radius": 2.0},
            "search": {"re_max": 30, "im_min": "auto"},
            "outputs": {"csv_path": "x.csv", "table": False},
        })
        assert cfg.interaction == GpiParams(50, 0, 1 + 1j)
        assert cfg.channel.l == 1 and cfg.channel.radius == 2.0
        assert cfg.re_max == 30 and cfg.im_min is None
        assert cfg.csv_path == "x.csv" and cfg.table is False

    def test_defaults(self):
        cfg = config_from_dict({"search": {"re_max": 10}})
        assert cfg.interaction == GpiParams(0, 0, 0)
        assert cfg.channel.l == 0 and cfg.channel.radius == 1.0

    def test_null_im_min_and_numeric_strings(self):
        cfg = config_from_dict({"interaction": {"alpha": "50", "gamma": "1+1i"},
                                "search": {"re_max": "30", "im_min": None}})
        assert cfg.interaction == GpiParams(50, 0, 1 + 1j)
        assert cfg.re_max == 30 and cfg.im_min is None

    @pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
    def test_documented_example_loads(self, doc):
        text = (ROOT / doc).read_text(encoding="utf-8")
        example = text.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = config_from_dict(json.loads(example))
        assert cfg.interaction == GpiParams(50, 0, 0) and cfg.re_max == 40


class TestFlagAudit:
    def test_every_flag_reaches_the_config(self):
        # a flag that is parsed and then ignored fails here: its dest is its key in the schema
        keys = {key for block in _CONFIG_KEYS.values() for key in block}
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert set(subparsers.choices) == {"classify", "poles", "compare"}
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                if action.dest not in keys:
                    assert action.option_strings in (["--config"], ["--interaction"],
                                                     ["-h", "--help"]), (name, action.dest)


class TestParserCache:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_calls_in_a_row_match_calls_alone(self, tmp_path, capsys):
        # no flag of one call leaks into the next through the shared parser
        runs = [["poles", "--alpha", "50", "--re-max", "12", "--im-min", "-2", "--table",
                 "--csv", str(tmp_path / "poles.csv")],
                ["classify", "--radius", "0"],
                ["poles", "--re-max", "10"]]
        alone = []
        for argv in runs:
            build_parser.cache_clear()
            alone.append((main(argv), capsys.readouterr()))
        assert [code for code, _ in alone] == [0, 2, 0]
        assert alone[2][1].out == "no poles in the window\n"
        assert [(main(argv), capsys.readouterr()) for argv in runs] == alone


class TestCliClassify:
    def test_delta(self, capsys):
        assert main(["classify", "--alpha", "50"]) == 0
        out = capsys.readouterr().out
        assert "delta-type; not separated" in out
        assert "unitary form" in out and "transfer form" in out

    def test_intermediate(self, capsys):
        assert main(["classify", "--gamma", "1+1i"]) == 0
        assert "intermediate-type" in capsys.readouterr().out

    def test_near_the_separated_locus(self, capsys):
        # d = 62066.5 here, and ad - bc rounds 6.0e-10 off 1: the transfer form prints whole
        assert main(["classify", "--gamma", "1.9999355540506412"]) == 0
        out = capsys.readouterr().out
        assert "intermediate-type; not separated" in out
        assert "transfer form: chi=0  a=1.61117469143e-05  b=0  c=0  d=62066.5161092" in out

    def test_just_off_the_separated_locus(self, capsys):
        # q - 4 = 4.0e-12, over is_separated's 1e-12: the transfer form exists, entries ~2e12
        assert main(["classify", "--alpha", "4", "--beta", "1.000000000001"]) == 0
        out = capsys.readouterr().out
        assert "delta-prime-type; not separated" in out
        assert "transfer form: chi=0  a=-1.99982221464e+12" in out

    def test_separated(self, capsys):
        assert main(["classify", "--alpha", "4", "--beta", "1"]) == 0
        out = capsys.readouterr().out
        assert "separated: embedded eigenvalues" in out
        assert "transfer form: none" in out


class TestCliPoles:
    def test_free_interaction_empty_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "poles.csv"
        svg_path = tmp_path / "poles.svg"
        code = main(["poles", "--re-max", "10", "--csv", str(csv_path),
                     "--svg", str(svg_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]
        ET.fromstring(svg_path.read_text())  # axes-only chart is well-formed

    def test_delta_run_writes_rows(self, tmp_path):
        csv_path = tmp_path / "poles.csv"
        code = main(["poles", "--alpha", "50", "--re-max", "12",
                     "--im-min", "-2", "--csv", str(csv_path)])
        assert code == 0
        with open(csv_path) as fh:
            rows = read_csv(fh)
        assert len(rows) == 3
        assert rows[0].k == pytest.approx(3.0802868857096793 - 0.0036939673286052818j)
        assert all(not row.embedded for row in rows)

    def test_tiny_window_has_no_poles(self, capsys):
        # re_max R < e^-5: the automatic floor stays at -5/R, below the axis
        assert main(["poles", "--alpha=50", "--re-max=0.005"]) == 0
        assert "no poles in the window" in capsys.readouterr().out

    def test_separated_run_flags_embedded(self, tmp_path):
        csv_path = tmp_path / "emb.csv"
        code = main(["poles", "--gamma", "2", "--re-max", "20",
                     "--csv", str(csv_path)])
        assert code == 0
        with open(csv_path) as fh:
            rows = read_csv(fh)
        assert rows and all(row.embedded for row in rows)
        assert rows[0].k.real == pytest.approx(math.pi / 2, abs=1e-9)
        assert all(row.k.imag == 0 for row in rows)

    def test_overlay_three_interactions(self, tmp_path):
        svg_path = tmp_path / "fig.svg"
        code = main(["poles", "--re-max", "15", "--im-min", "-3",
                     "--interaction", "50,0,0",
                     "--interaction", "0,0,1+1i",
                     "--interaction", "0,0.01,0",
                     "--svg", str(svg_path)])
        assert code == 0
        root = ET.fromstring(svg_path.read_text())
        classes = [g.get("class") for g in root.iter(f"{SVG_NS}g") if g.get("class")]
        assert classes == ["series-plus", "series-cross", "series-star"]

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "interaction": {"alpha": 50},
            "search": {"re_max": 4},
            "outputs": {"table": True},
        }))
        code = main(["poles", "--config", str(cfg_path), "--re-max", "7"])
        assert code == 0
        out = capsys.readouterr().out
        # override widened the window from one pole to two
        assert out.count("\n") >= 4


class TestCliFlagsOverConfig:
    def test_zero_overrides_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"interaction": {"alpha": 50},
                                        "search": {"re_max": 10}}))
        assert main(["poles", "--config", str(cfg_path), "--alpha", "0"]) == 0
        assert capsys.readouterr().out == "no poles in the window\n"

    def test_flag_fills_a_key_the_config_lacks(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"interaction": {"alpha": 50}, "search": {}}))
        assert main(["poles", "--config", str(cfg_path), "--re-max", "4"]) == 0
        assert "3.080287" in capsys.readouterr().out

    def test_zero_radius_is_a_usage_error(self, capsys):
        assert main(["classify", "--radius", "0"]) == 2
        assert "sphere radius" in capsys.readouterr().err

    def test_interaction_with_coupling_flag_is_a_usage_error(self, tmp_path, capsys):
        svg_path = tmp_path / "fig.svg"
        code = main(["poles", "--alpha", "7", "--interaction", "50,0,0",
                     "--re-max", "10", "--svg", str(svg_path)])
        assert code == 2
        assert "--interaction cannot be combined" in capsys.readouterr().err
        assert not svg_path.exists()


class TestCliCompare:
    @pytest.mark.parametrize("flags", [
        ["--alpha", "50", "--re-max", "20", "--im-min", "-2"],
        ["--re-max", "10"],
        ["--gamma", "2", "--re-max", "20"],
    ], ids=["delta", "free", "separated"])
    def test_writes_the_files_poles_writes(self, tmp_path, capsys, flags):
        written = {}
        for command in ("poles", "compare"):
            csv_path, svg_path = tmp_path / f"{command}.csv", tmp_path / f"{command}.svg"
            assert main([command, *flags, "--csv", str(csv_path),
                         "--svg", str(svg_path)]) == 0
            written[command] = (csv_path.read_bytes(), svg_path.read_bytes())
        assert written["compare"] == written["poles"]
        if flags == ["--re-max", "10"]:
            assert written["compare"][0].decode().splitlines() == [",".join(CSV_COLUMNS)]
            assert "no resonances" in capsys.readouterr().out

    def test_rejects_interaction(self):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--re-max", "20", "--interaction", "50,0,0"])
        assert exc.value.code == 2

    def test_rejects_table(self):
        # compare always prints its table; --table belongs to poles alone
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--re-max", "10", "--table"])
        assert exc.value.code == 2

    def test_free_reports_no_resonances(self, capsys):
        assert main(["compare", "--re-max", "10"]) == 0
        assert "no resonances" in capsys.readouterr().out

    def test_delta_trend(self, capsys):
        code = main(["compare", "--alpha", "50", "--re-max", "20",
                     "--im-min", "-2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max scaled error" in out


class TestExitCodes:
    def test_usage_error_missing_window(self, capsys):
        assert main(["poles", "--alpha", "50"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_usage_error_bad_complex(self, capsys):
        assert main(["classify", "--gamma", "nope"]) == 2

    def test_usage_error_unknown_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "interaction": {"alpha": 50},
            "search": {"re_max": 4},
            "tolerances": {"residual": 1e-9, "dedupe": 1e-8},
        }))
        assert main(["poles", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "tolerances" in err

    def test_usage_error_missing_re_max(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"search": {}}))
        assert main(["poles", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "search.re_max" in err

    @pytest.mark.parametrize("block, value, named", [
        ("outputs", {"tabel": False}, "tabel"),
        ("outputs", 5, "JSON object"),
        ("outputs", {"table": "false"}, "table"),
        ("channel", {"l": 1.7}, "l must be an integer"),
        ("outputs", {"csv_path": 1}, "csv_path must be a string or null"),
        ("outputs", {"svg_path": ["run.svg"]}, "svg_path must be a string or null"),
        ("interaction", {"alpha": True}, "alpha must be a number"),
        ("interaction", {"beta": False}, "beta must be a number"),
        ("interaction", {"gamma": True}, "gamma must be a number"),
        ("channel", {"radius": True}, "radius must be a number"),
        ("search", {"re_max": True}, "re_max must be a number"),
        ("search", {"re_max": 4, "im_min": False}, "im_min must be a number"),
        ("interaction", {"alpha": None}, "alpha must be a number"),
        ("interaction", {"beta": {"value": 1}}, "beta must be a number"),
        ("interaction", {"gamma": [1, 2]}, "gamma must be a number"),
        ("interaction", {"gamma": None}, "gamma must be a number"),
        ("channel", {"radius": None}, "radius must be a number"),
        ("channel", {"radius": [1.0]}, "radius must be a number"),
        ("search", {"re_max": None}, "re_max must be a number"),
        ("search", {"re_max": {"k": 4}}, "re_max must be a number"),
        ("search", {"re_max": 4, "im_min": [1]}, "im_min must be a number"),
        ("search", {"re_max": 4, "im_min": {}}, "im_min must be a number"),
    ], ids=["unknown-key", "not-an-object", "table-not-bool", "l-not-integral",
            "csv-path-fd", "svg-path-not-string", "alpha-bool", "beta-bool", "gamma-bool",
            "radius-bool", "re-max-bool", "im-min-bool", "alpha-null", "beta-object",
            "gamma-list", "gamma-null", "radius-null", "radius-list", "re-max-null",
            "re-max-object", "im-min-list", "im-min-object"])
    def test_usage_error_bad_block(self, tmp_path, capsys, block, value, named):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"search": {"re_max": 4}, block: value}))
        assert main(["poles", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and f"'{block}'" in err and named in err

    @pytest.mark.parametrize("block, key, value", [
        (block, key, value) for block, keys in _SCHEMA.items()
        for key, (_, kinds, _) in keys.items() for value in (True, [], {})
        if type(value) not in kinds], ids=str)
    def test_usage_error_value_of_a_type_the_schema_rejects(self, tmp_path, capsys, block,
                                                             key, value):
        raw = {"search": {"re_max": 4}}
        raw.setdefault(block, {})[key] = value
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["poles", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"config block '{block}': {key} must be " in err

    NUMBERS = [(block, key) for block, keys in _SCHEMA.items()
               for key, (what, _, _) in keys.items() if what == "a number"]

    def test_every_number_of_the_schema_is_checked_for_finiteness(self):
        assert [key for _, key in self.NUMBERS] == [
            "alpha", "beta", "gamma", "radius", "re_max", "im_min"]

    @pytest.mark.parametrize("value", [10 ** 400, math.inf, -math.inf, math.nan],
                             ids=["401-digit-int", "Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize("block, key", NUMBERS, ids=[key for _, key in NUMBERS])
    def test_usage_error_number_beyond_the_double_range(self, tmp_path, capsys, block, key,
                                                         value):
        # a JSON integer too large for a double, or a literal json reads as inf or nan
        raw = {"search": {"re_max": 4}}
        raw.setdefault(block, {})[key] = value
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["poles", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: config block '{block}': {key} must be finite, got ")
        assert "Traceback" not in err

    def test_usage_error_order_above_the_series_range(self, capsys):
        # rejected by Channel before any evaluation
        assert main(["poles", "--l", "201", "--alpha", "50", "--re-max", "10"]) == 2
        assert "nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["poles", "--alpha", "50", "--re-max", "inf"],
        ["poles", "--alpha", "50", "--re-max", "10", "--im-min=-inf"],
        ["poles", "--gamma", "2", "--re-max", "inf"],
    ], ids=["re-max", "im-min", "separated-re-max"])
    def test_usage_error_infinite_window(self, capsys, argv):
        assert main(argv) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_usage_error_infinite_window_in_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"interaction": {"alpha": 50},
                                        "search": {"re_max": "inf"}}))
        assert main(["poles", "--config", str(cfg_path)]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code, says", [
        (["classify", "--gamma=-1+2i"], 0, "gamma=-1+2i"),
        (["classify", "--alpha=-1e3"], 0, "alpha=-1000"),
        (["poles", "--re-max", "10", "--interaction=-12.8,0,0"], 0, "Re pred"),
        (["poles", "--alpha", "50", "--re-max", "10", "--im-min=-inf"], 2, "must be finite"),
    ], ids=["gamma", "alpha", "interaction", "im-min-inf"])
    def test_negative_value_in_equals_form(self, capsys, argv, code, says):
        # argparse takes "-1+2i" after a space for an option; the = form is read
        assert main(argv) == code
        captured = capsys.readouterr()
        assert says in (captured.out if code == 0 else captured.err)
        assert "expected one argument" not in captured.err

    def test_help_names_the_equals_form(self, capsys):
        with pytest.raises(SystemExit):
            main(["poles", "--help"])
        out = "".join(capsys.readouterr().out.split())  # argparse wraps at hyphens
        for form in ("--gamma=-1+2i", "--im-min=-1e1", "--interaction=-12.8,0,0"):
            assert form in out

    def test_usage_error_config_not_an_object(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("[]")
        assert main(["poles", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "JSON object" in err

    def test_usage_error_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["poles", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("window", [["--re-max", "1e9"], ["--re-max", "40", "--im-min=-1e9"]],
                             ids=["long", "deep"])
    def test_solver_error_window_over_the_sample_budget(self, window, capsys, monkeypatch):
        # the window's samples are counted from its corners, before any det lambda call
        calls = []
        monkeypatch.setattr(polefinder, "det_lambda_balanced", lambda p, ch, k: calls.append(k))
        assert main(["poles", "--alpha", "50"] + window) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: window SearchRegion(")
        assert "would take 5e+09 boundary samples, over the budget of 1e+06" in err
        assert calls == []

    def test_solver_error_real_axis_grid_over_the_budget(self, capsys, monkeypatch):
        # the separated coupling's real-axis grid is counted before any Riccati call
        calls = []
        monkeypatch.setattr(winterres.krein, "riccati_s", lambda l, z: calls.append(z))
        assert main(["poles", "--alpha", "4", "--beta", "1", "--re-max", "1e9"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: real-axis root search up to k_max=1e+09 would "
                              "take 7639437270 grid points, over the budget of 1e+06")
        assert calls == []

    def test_solver_error_boundary_zero(self, capsys):
        # bottom edge exactly through the first pole of the alpha=50 shell:
        # the strict top-level count cannot certify the contour
        code = main(["poles", "--alpha", "50", "--re-max", "5",
                     "--im-min", "-0.003693967328605281"])
        assert code == 3
        assert "solver error" in capsys.readouterr().err
