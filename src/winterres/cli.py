"""Command line interface: ``winterres classify | poles | compare``.

Exit codes: 0 on success, 2 on usage errors, 3 on solver failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .asymptotics import ZeroCoupling, compare, index_poles, predict
from .errors import WinterresError
from .gpi import (GpiParams, classify, is_separated, to_transfer, to_unitary,
                  SeparatedInteraction)
from .krein import det_lambda, real_axis_roots
from .polefinder import find_poles
from .report import (OutputSettings, RunConfig, SearchSettings, embedded_rows,
                     format_complex, format_table, load_config, parse_complex,
                     rows_from_comparison, write_csv, write_pole_svg)
from .riccati import Channel

USAGE_EXIT = 2
SOLVER_EXIT = 3


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, default=None, help="coupling alpha (1/length)")
    sub.add_argument("--beta", type=float, default=None, help="coupling beta (length)")
    sub.add_argument("--gamma", type=str, default=None,
                     help="coupling gamma, complex literal like 1+1i")
    sub.add_argument("--l", type=int, default=None, help="angular momentum (default 0)")
    sub.add_argument("--radius", type=float, default=None, help="sphere radius (default 1)")


def _add_search(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--re-max", type=float, default=None, dest="re_max",
                     help="right edge of the momentum search window")
    sub.add_argument("--im-min", type=str, default=None, dest="im_min",
                     help="search floor Im k (number or 'auto')")
    sub.add_argument("--config", type=str, default=None, help="JSON run configuration")
    sub.add_argument("--csv", type=str, default=None, help="write the pole table here")
    sub.add_argument("--svg", type=str, default=None, help="write the scatter chart here")
    sub.add_argument("--table", action="store_true", help="print the table to stdout")
    sub.add_argument("--interaction", action="append", default=None,
                     metavar="A,B,G", help="overlay interaction 'alpha,beta,gamma' "
                     "(repeatable; gamma in a+bi form)")


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
    p_cmp = subs.add_parser("compare", help="poles against asymptotic predictions")
    _add_common(p_cmp)
    _add_search(p_cmp)
    return parser


def _interaction_from_args(args, base: GpiParams) -> GpiParams:
    """``base`` with each coupling flag given on the command line overriding its field."""
    return GpiParams(
        args.alpha if args.alpha is not None else base.alpha,
        args.beta if args.beta is not None else base.beta,
        parse_complex(args.gamma) if args.gamma is not None else base.gamma)


def _channel_from_args(args, base: Channel) -> Channel:
    """``base`` with --l and --radius, where given, overriding its fields."""
    return Channel(args.l if args.l is not None else base.l,
                   args.radius if args.radius is not None else base.radius)


def _config_from_args(args) -> RunConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        if args.re_max is None:
            raise ValueError("--re-max (or --config) is required")
        cfg = RunConfig(GpiParams(0.0, 0.0, 0j), Channel(0, 1.0),
                        SearchSettings(re_max=float(args.re_max)))
    # flags override file values, field by field
    inter = _interaction_from_args(args, cfg.interaction)
    chan = _channel_from_args(args, cfg.channel)
    search = cfg.search
    if args.re_max is not None:
        search = replace(search, re_max=float(args.re_max))
    if args.im_min is not None:
        search = replace(search, im_min=None if args.im_min == "auto"
                         else float(args.im_min))
    outputs = OutputSettings(
        csv_path=args.csv if args.csv is not None else cfg.outputs.csv_path,
        svg_path=args.svg if args.svg is not None else cfg.outputs.svg_path,
        table=True if args.table else cfg.outputs.table)
    return RunConfig(inter, chan, search, outputs)


def _interaction_list(args, cfg: RunConfig) -> list[GpiParams]:
    if not args.interaction:
        return [cfg.interaction]
    out = []
    for spec_str in args.interaction:
        fields = spec_str.split(",")
        if len(fields) != 3:
            raise ValueError(f"--interaction wants 'alpha,beta,gamma', got {spec_str!r}")
        out.append(GpiParams(float(fields[0]), float(fields[1]),
                             parse_complex(fields[2])))
    return out


def _class_label(p: GpiParams) -> str:
    return f"{classify(p).value}-type"


def cmd_classify(args) -> int:
    p = _interaction_from_args(args, GpiParams(0.0, 0.0, 0j))
    ch = _channel_from_args(args, Channel(0, 1.0))
    sep = is_separated(p)
    flag = "separated: embedded eigenvalues" if sep else "not separated"
    print(f"{_class_label(p)}; {flag}")
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


def _run_one(p: GpiParams, cfg: RunConfig):
    """Poles + comparison rows for one interaction (embedded rows if separated)."""
    ch = cfg.channel
    if is_separated(p):
        roots = real_axis_roots(p, ch, cfg.search.re_max)
        residuals = [abs(det_lambda(p, ch, complex(k))) for k in roots]
        return embedded_rows(roots, residuals), []
    poles = find_poles(p, ch, cfg.search.re_max, cfg.search.im_min)
    poles = index_poles(poles, p, ch)
    rows = rows_from_comparison(poles, compare(poles, p, ch))
    return rows, poles


def cmd_poles(args) -> int:
    cfg = _config_from_args(args)
    interactions = _interaction_list(args, cfg)
    all_rows = []
    series = []
    for p in interactions:
        rows, _ = _run_one(p, cfg)
        all_rows.extend(rows)
        label = (f"alpha={p.alpha:g} beta={p.beta:g} "
                 f"gamma={format_complex(p.gamma)}")
        series.append((label, classify(p), [row.k for row in rows]))
    if cfg.outputs.csv_path:
        with open(cfg.outputs.csv_path, "w", encoding="utf-8", newline="") as fh:
            write_csv(all_rows, fh)
    if cfg.outputs.svg_path:
        with open(cfg.outputs.svg_path, "w", encoding="utf-8") as fh:
            write_pole_svg(series, fh)
    if cfg.outputs.table or not (cfg.outputs.csv_path or cfg.outputs.svg_path):
        print(format_table(all_rows) if all_rows else "no poles in the window")
    return 0


def cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    p = cfg.interaction
    ch = cfg.channel
    if not is_separated(p):
        try:
            predict(p, ch, 1)
        except ZeroCoupling:
            print("no resonances: the coupling is equivalent to the free one")
            return 0
    rows, poles = _run_one(p, cfg)
    if not rows:
        print("no poles in the window")
        return 0
    print(format_table(rows))
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
