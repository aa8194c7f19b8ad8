"""Command line interface: ``winterres classify | poles | compare``.

Exit codes: 0 on success, 2 on usage errors, 3 on solver failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .asymptotics import Resonance, ZeroCoupling, compare, index_poles, predict
from .errors import WinterresError
from .gpi import classify, is_separated, to_transfer, to_unitary, SeparatedInteraction
from .krein import det_lambda, real_axis_roots
from .polefinder import find_poles
from .report import (_CONFIG_KEYS, RunConfig, config_from_dict, embedded_rows, format_complex,
                     format_table, interaction_and_channel, write_csv, write_pole_svg)

USAGE_EXIT = 2
SOLVER_EXIT = 3


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, default=None, help="coupling alpha (1/length)")
    sub.add_argument("--beta", type=float, default=None, help="coupling beta (length)")
    sub.add_argument("--gamma", type=str, default=None,
                     help="coupling gamma, complex literal like 1+1i "
                     "(one like -1+2i needs the = form: --gamma=-1+2i)")
    sub.add_argument("--l", type=int, default=None, help="angular momentum (default 0)")
    sub.add_argument("--radius", type=float, default=None, help="sphere radius (default 1)")


def _add_search(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--re-max", type=float, default=None, dest="re_max",
                     help="right edge of the momentum search window")
    sub.add_argument("--im-min", type=str, default=None, dest="im_min",
                     help="search floor Im k (number or 'auto'; one like -1e1 "
                     "needs the = form: --im-min=-1e1)")
    sub.add_argument("--config", type=str, default=None, help="JSON run configuration")
    sub.add_argument("--csv", type=str, default=None, dest="csv_path", metavar="CSV",
                     help="write the pole table here")
    sub.add_argument("--svg", type=str, default=None, dest="svg_path", metavar="SVG",
                     help="write the scatter chart here")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="winterres",
        description="Resonance poles of a sphere-supported generalized point interaction.")
    subs = parser.add_subparsers(dest="command", required=True)
    p_cls = subs.add_parser("classify", help="classify an interaction and print its forms")
    _add_common(p_cls)
    p_poles = subs.add_parser("poles", help="locate poles; emit CSV/SVG")
    _add_common(p_poles)
    _add_search(p_poles)
    p_poles.add_argument("--table", action="store_true", default=None,
                         help="print the table to stdout even where the config sets "
                         "outputs.table to false")
    p_poles.add_argument("--interaction", action="append", default=None,
                         metavar="A,B,G", help="overlay interaction 'alpha,beta,gamma' "
                         "(repeatable; gamma in a+bi form; not with --alpha/--beta/--gamma; "
                         "a negative alpha in the = form: --interaction=-12.8,0,0)")
    p_cmp = subs.add_parser("compare", help="poles against asymptotic predictions")
    _add_common(p_cmp)
    _add_search(p_cmp)
    return parser


def _write_flags(raw, given: dict):
    """``raw`` with each flag in ``given`` that is not None written over its key;
    a flag's dest is its key in the run schema.  A config or block that is
    not an object is left for config_from_dict."""
    if isinstance(raw, dict):
        for block, keys in _CONFIG_KEYS.items():
            for key in keys:
                if given.get(key) is not None and isinstance(raw.setdefault(block, {}), dict):
                    raw[block][key] = given[key]
    return raw


def _configs(args) -> list[RunConfig]:
    """One RunConfig per interaction: the --config file (or {}) with the flags
    written over it, and each --interaction spec in turn as its interaction."""
    raw = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    elif args.re_max is None:
        raise ValueError("--re-max (or --config) is required")
    raw = _write_flags(raw, vars(args))
    specs = getattr(args, "interaction", None)
    if not specs:
        return [config_from_dict(raw)]
    if any(getattr(args, dest) is not None for dest in ("alpha", "beta", "gamma")):
        raise ValueError("--interaction cannot be combined with --alpha, --beta or --gamma")
    cfgs = []
    for spec in specs:
        fields = spec.split(",")
        if len(fields) != 3:
            raise ValueError(f"--interaction wants 'alpha,beta,gamma', got {spec!r}")
        given = dict(zip(("alpha", "beta", "gamma"), fields))
        cfgs.append(config_from_dict(_write_flags(raw, given)))
    return cfgs


def cmd_classify(args) -> int:
    p, ch = interaction_and_channel(_write_flags({}, vars(args)))
    sep = is_separated(p)
    flag = "separated: embedded eigenvalues" if sep else "not separated"
    print(f"{classify(p).value}-type; {flag}")
    print(f"parameters: alpha={p.alpha:g}  beta={p.beta:g}  "
          f"gamma={format_complex(p.gamma)}  (l={ch.l}, R={ch.radius:g})")
    u = to_unitary(p)
    print(f"unitary form: xi={u.xi:.12g}  u1={format_complex(u.u1)}  "
          f"u2={format_complex(u.u2)}")
    try:
        t = to_transfer(p)
        print(f"transfer form: chi={t.chi:.12g}  a={t.a:.12g}  b={t.b:.12g}  "
              f"c={t.c:.12g}  d={t.d:.12g}")
    except SeparatedInteraction:
        print("transfer form: none (inside and outside decouple)")
    return 0


def _run_and_emit(cfgs: list[RunConfig], empty: str, always_table: bool) -> list[Resonance]:
    """The poles of each run with their predictions (embedded eigenvalues if
    separated); writes the CSV and SVG the outputs name, and prints the table (or
    ``empty`` when no run has a row) unless ``outputs.table`` is false and a CSV
    or SVG is written.  ``always_table`` prints it in any case."""
    all_rows, series = [], []
    for cfg in cfgs:
        p, ch = cfg.interaction, cfg.channel
        if is_separated(p):
            roots = real_axis_roots(p, ch, cfg.re_max)
            rows = embedded_rows(roots, np.abs(det_lambda(p, ch, np.array(roots))).tolist())
        else:
            poles = index_poles(find_poles(p, ch, cfg.re_max, cfg.im_min), p, ch)
            rows = compare(poles, p, ch)
        all_rows.extend(rows)
        label = (f"alpha={p.alpha:g} beta={p.beta:g} "
                 f"gamma={format_complex(p.gamma)}")
        series.append((label, classify(p), [row.k for row in rows]))
    first = cfgs[0]   # every run's outputs are the first one's
    if first.csv_path:
        with open(first.csv_path, "w", encoding="utf-8", newline="") as fh:
            write_csv(all_rows, fh)
    if first.svg_path:
        with open(first.svg_path, "w", encoding="utf-8") as fh:
            write_pole_svg(series, fh)
    if always_table or first.table or not (first.csv_path or first.svg_path):
        print(format_table(all_rows) if all_rows else empty)
    return all_rows


def cmd_poles(args) -> int:
    _run_and_emit(_configs(args), "no poles in the window", always_table=False)
    return 0


def cmd_compare(args) -> int:
    [cfg] = _configs(args)
    empty = "no poles in the window"
    if not is_separated(cfg.interaction):
        try:
            predict(cfg.interaction, cfg.channel, 1)
        except ZeroCoupling:
            empty = "no resonances: the coupling is equivalent to the free one"
    rows = _run_and_emit([cfg], empty, always_table=True)
    scaled = [row.scaled_err for row in rows if row.scaled_err is not None]
    if scaled:
        top_half = scaled[len(scaled) // 2:]
        print(f"max scaled error over the top half of indices: {max(top_half):.6g}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"classify": cmd_classify, "poles": cmd_poles,
               "compare": cmd_compare}[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except WinterresError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return SOLVER_EXIT


if __name__ == "__main__":
    sys.exit(main())
