"""The search paths evaluate det lambda and the Riccati functions on arrays only.

Every global through which a search reaches det lambda, the Riccati
function S_l of real-axis roots or the one evaluator ``_s_eta`` of S_l and
eta_l is wrapped where its caller looks it up (the way ``bench/tracer.py``
patches them), and each call records the shape of its points.  A scalar
among them would be a point evaluated on its own.
"""

import importlib

import numpy as np
import pytest

import winterres.cli
from winterres import (Channel, GpiParams, SearchRegion, count_zeros, find_poles,
                       real_axis_roots)

WRAPPED = (
    ("winterres.polefinder", "det_lambda_balanced"),
    ("winterres.polefinder", "det_lambda"),
    ("winterres.krein", "det_lambda"),
    ("winterres.cli", "det_lambda"),
    ("winterres.krein", "riccati_s"),
    ("winterres.krein", "_s_eta"),
)


@pytest.fixture
def shapes(monkeypatch):
    """(global, ndim of the points) for every call of a wrapped global."""
    seen = []
    for module_name, attr in WRAPPED:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        def wrapped(*args, _original=original, _name=f"{module_name}.{attr}"):
            seen.append((_name, np.ndim(args[-1]) if isinstance(args[-1], np.ndarray) else 0))
            return _original(*args)

        monkeypatch.setattr(module, attr, wrapped)
    return seen


def _assert_arrays_only(seen, *names):
    assert {name.split(".", 1)[1] for name, _ in seen} >= set(names)
    assert [call for call in seen if call[1] < 1] == []


@pytest.mark.parametrize("p, l", [(GpiParams(50, 0, 0), 0), (GpiParams(50, 0, 0), 5),
                                  (GpiParams(0, 0.1, 0), 2)])
def test_find_poles(shapes, p, l):
    # l = 5 at re_max = 60 has two poles below the lattice and a series region
    assert find_poles(p, Channel(l, 1.0), 60.0)
    # residuals take det_lambda, which calls _s_eta itself
    _assert_arrays_only(shapes, "polefinder.det_lambda_balanced", "polefinder.det_lambda",
                        "krein._s_eta")


def test_count_zeros(shapes):
    assert count_zeros(GpiParams(50, 0, 0), Channel(5, 1.0), SearchRegion(1.0, 20.0, -4.0, 0.0))
    _assert_arrays_only(shapes, "polefinder.det_lambda_balanced", "krein._s_eta")


def test_real_axis_roots(shapes):
    assert real_axis_roots(GpiParams(4, 1, 0), Channel(2, 1.0), 20.0)
    _assert_arrays_only(shapes, "krein.riccati_s")


@pytest.mark.parametrize("flags, called", [
    (["--alpha=50", "--l=0"], ("polefinder.det_lambda_balanced", "polefinder.det_lambda")),
    (["--alpha=4", "--beta=1", "--l=2"], ("cli.det_lambda", "krein.riccati_s")),
], ids=["delta", "separated"])
def test_cli_poles(shapes, tmp_path, capsys, flags, called):
    argv = ["poles", *flags, "--re-max=20", "--csv", str(tmp_path / "p.csv")]
    assert winterres.cli.main(argv) == 0
    _assert_arrays_only(shapes, "krein._s_eta", *called)
