"""Every run config drawn from the run schema ends in exit 0, 2 or 3, with no traceback."""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from winterres.cli import main
from winterres.report import _SCHEMA

# JSON values of every type: numbers small, huge and tiny, NaN and the infinities, numeric
# and other strings, null, booleans, arrays and objects.  No value reads as a number in
# (50, 1e6), so a window is small (re_max and R at most 50) or over the sample budget, and a
# call is fast.
_NUMBERS = [1.0, 0.5, 2.5, 12.0, 20.0, 3, 0, -2.0, -0.5]
_EXTREMES = [1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308, 2 ** 63,
             10 ** 400, -10 ** 400, 5e-324, -5e-324, 1e-300, -1e-300, -0.0,
             math.nan, math.inf, -math.inf]
_STRINGS = ["", "auto", "50", "-2", "1+1i", "-0.5i", "i", "nan", "inf", "-inf", "1e400",
            "1e300", "x", ".", "sub/none/out.csv"]
_OTHERS = [None, True, False, [], [1.0], {}, {"re_max": 4}]
_VALUES = _NUMBERS + _EXTREMES + _STRINGS + _OTHERS
# the values a key is most often given, where they are not _NUMBERS
_PLAUSIBLE = {"l": [0, 1, 2, 3, 12.0, 200, 201, 2.5, -1],   # 200 is the highest order
              "im_min": [-2.0, -0.5, -5.0, None, "auto", 1.0],
              "csv_path": [None, "out.csv", "", ".", "sub/none/out.csv"],
              "svg_path": [None, "out.svg", "", ".", "sub/none/out.svg"],
              "table": [True, False]}


@st.composite
def _configs(draw):
    """A JSON document for ``--config``: each block of ``_SCHEMA`` an object of most of its
    keys, re_max always (now and then with one it does not know), left out or not an
    object; rarely the document is no object.  A key takes a plausible value six times in
    eight, else an extreme number or any value.  The simplest draws (Hypothesis' zeros)
    make the common case."""
    def now_and_then(n):
        return draw(st.integers(0, n - 1)) == n - 1

    if now_and_then(40):
        return draw(st.sampled_from(_VALUES))
    raw = {}
    for block, keys in _SCHEMA.items():
        shape = draw(st.sampled_from(["object"] * 8 + ["absent", "other"]))
        if shape == "other":
            raw[block] = draw(st.sampled_from(_VALUES))
        elif shape == "object":
            raw[block] = {}
            for key in keys:
                if not now_and_then(5) or key == "re_max":
                    pool = [_PLAUSIBLE.get(key, _NUMBERS)] * 6 + [_EXTREMES, _VALUES]
                    raw[block][key] = draw(st.sampled_from(draw(st.sampled_from(pool))))
            if now_and_then(40):
                raw[block]["extra"] = 1
    if now_and_then(40):
        raw["extra"] = {}
    return raw


def _run(raw) -> tuple[int, str]:
    """``winterres poles --config`` on raw, in a fresh directory: the exit code and stderr.

    Relative output paths land in that directory; numpy's RuntimeWarnings are let pass."""
    with tempfile.TemporaryDirectory() as where:
        path = os.path.join(where, "run.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        out, err, here = io.StringIO(), io.StringIO(), os.getcwd()
        os.chdir(where)
        try:
            with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                warnings.simplefilter("ignore", RuntimeWarning)
                code = main(["poles", "--config", path])
        finally:
            os.chdir(here)
    return code, err.getvalue()


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(_configs())
def test_every_config_exits_0_2_or_3_without_a_traceback(raw):
    code, err = _run(raw)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        assert err.startswith("usage error: " if code == 2 else "solver error: ")


@pytest.mark.parametrize("gamma", [1e200, "1e200+1e200i"], ids=["number", "string"])
def test_gamma_whose_square_overflows(gamma):
    # |gamma|^2 is beyond the largest double: the interaction data is refused
    code, err = _run({"interaction": {"gamma": gamma}, "search": {"re_max": 4}})
    assert code == 2 and err.startswith("usage error: interaction parameters must be finite")


@pytest.mark.parametrize("beta", [5e-324, -1e-300], ids=["subnormal", "tiny"])
def test_beta_whose_square_underflows(beta):
    # (beta k0)^2 R underflows to 0, and the delta-prime law still predicts every pole
    raw = {"interaction": {"alpha": 1.0, "beta": beta, "gamma": 1.0}, "search": {"re_max": 12}}
    assert _run(raw) == (0, "")
