"""Run configuration and output emission: CSV tables and SVG pole charts.

The run schema is one table, ``_SCHEMA``, that one checker reads for a JSON
config and for the CLI flags written over it.  Numbers are printed with 17
significant digits so that parsing an emitted CSV reproduces the in-memory
doubles exactly.  The SVG writer is a small self-contained generator (SVG
1.1, no external assets) that draws the momentum plane with per-class
markers: ``+`` for delta, ``x`` for intermediate, ``*`` for delta-prime.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .asymptotics import Resonance
from .gpi import GpiClass, GpiParams
from .riccati import Channel

CSV_COLUMNS = ["n", "re_k", "im_k", "residual", "re_pred", "im_pred",
               "abs_err", "scaled_err", "energy_width", "embedded"]

_MARKER_FOR_CLASS = {
    GpiClass.DELTA: "plus",
    GpiClass.INTERMEDIATE: "cross",
    GpiClass.DELTA_PRIME: "star",
}


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' style literals ('1+1i', '-2i', '0.5', 'i')."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex literal {text!r}") from exc


def format_complex(z: complex) -> str:
    """Inverse of parse_complex, 17 significant digits."""
    if z.imag == 0:
        return f"{z.real:.17g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.17g}{sign}{abs(z.imag):.17g}i"


@dataclass(frozen=True)
class RunConfig:
    """Everything one resonance run needs: the keys of the run schema, its blocks flattened."""

    interaction: GpiParams
    channel: Channel
    re_max: float
    im_min: float | None = None  # None means the automatic depth floor
    csv_path: str | None = None
    svg_path: str | None = None
    table: bool = True


_NUMBER = (int, float, str)
_OPTIONAL = (str, type(None))
# block -> key -> (what the value must be, the types it may have, its default; ``...`` if it
# is required).  A JSON true or false is no type but bool (float() would take it for 1 or
# 0), an integer may be a float of integral value, and a path is no integer (open() would
# take it for a file descriptor, and close it).
_SCHEMA = {
    "interaction": {"alpha": ("a number", _NUMBER, 0.0), "beta": ("a number", _NUMBER, 0.0),
                    "gamma": ("a number", (*_NUMBER, complex), 0)},
    "channel": {"l": ("an integer", (int, float), 0), "radius": ("a number", _NUMBER, 1.0)},
    "search": {"re_max": ("a number", _NUMBER, ...),
               "im_min": ("a number", (*_NUMBER, type(None)), None)},
    "outputs": {"csv_path": ("a string or null", _OPTIONAL, None),
                "svg_path": ("a string or null", _OPTIONAL, None),
                "table": ("true or false", (bool,), True)},
}
_CONFIG_KEYS = {block: tuple(keys) for block, keys in _SCHEMA.items()}


def _finite(value) -> bool:
    """Whether a number of the schema is finite as a double; a string complex() cannot read
    ("1+1i", "auto") is left to the parse that reads it."""
    try:
        return cmath.isfinite(complex(value))
    except OverflowError:   # an integer beyond the double range
        return False
    except ValueError:
        return True


def _block(raw: dict, block: str) -> dict:
    """Every key of ``raw[block]``, given or its default, each checked against ``_SCHEMA``."""
    given = raw.get(block, {})
    if not isinstance(given, dict):
        raise ValueError(f"config block {block!r} must be a JSON object")
    unknown = sorted(set(given) - set(_SCHEMA[block]))
    if unknown:
        raise ValueError(f"unknown keys {unknown} in config block {block!r}; "
                         f"expected only {list(_SCHEMA[block])}")
    out = {}
    for key, (what, kinds, default) in _SCHEMA[block].items():
        if default is ... and key not in given:
            raise ValueError(f"config has no {block}.{key}")
        got = out[key] = given.get(key, default)
        if (isinstance(got, bool) is not (bool in kinds) or not isinstance(got, kinds)
                or (isinstance(got, float) and what == "an integer" and not got.is_integer())):
            raise ValueError(f"config block {block!r}: {key} must be {what}, got {got!r}")
        if what == "a number" and got is not None and not _finite(got):
            raise ValueError(f"config block {block!r}: {key} must be finite, got {got!r}")
    return out


def interaction_and_channel(raw: dict) -> tuple[GpiParams, Channel]:
    """The interaction and channel of a run config, checked against ``_SCHEMA``."""
    given, channel = _block(raw, "interaction"), _block(raw, "channel")
    gamma = given["gamma"]
    p = GpiParams(float(given["alpha"]), float(given["beta"]),
                  parse_complex(gamma) if isinstance(gamma, str) else complex(gamma))
    return p, Channel(int(channel["l"]), float(channel["radius"]))


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from parsed JSON, or from the CLI flags written over
    it, by ``_SCHEMA``; its keys are the fields of RunConfig.

    Numbers may also be given as strings ("50", "1+1i"), and search.im_min
    as "auto" or null for the automatic floor.  Raises ValueError naming a
    config or block that is not an object, a key outside the schema, a
    missing search.re_max or a value the schema does not allow, the first
    fault in the schema's order.
    """
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(raw) - set(_SCHEMA))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; expected only {list(_SCHEMA)}")
    p, ch = interaction_and_channel(raw)
    search = _block(raw, "search")
    im_min = search["im_min"]
    if isinstance(im_min, str):
        im_min = None if im_min == "auto" else float(im_min)
    return RunConfig(p, ch, float(search["re_max"]), im_min, **_block(raw, "outputs"))


def embedded_rows(momenta: Sequence[float], residuals: Sequence[float]) -> list[Resonance]:
    return [Resonance(i, complex(k, 0.0), res, embedded=True)
            for i, (k, res) in enumerate(zip(momenta, residuals))]


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


def write_csv(rows: Iterable[Resonance], fh: TextIO) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        pred = row.k_pred
        writer.writerow([
            str(row.index), _fmt(row.k.real), _fmt(row.k.imag), _fmt(row.residual),
            _fmt(pred.real if pred is not None else None),
            _fmt(pred.imag if pred is not None else None),
            _fmt(row.abs_err), _fmt(row.scaled_err), _fmt(row.energy_width),
            "true" if row.embedded else "false",
        ])


def read_csv(fh: TextIO) -> list[Resonance]:
    reader = csv.DictReader(fh)
    rows = []
    for rec in reader:
        pred = (complex(float(rec["re_pred"]), float(rec["im_pred"]))
                if rec["re_pred"] else None)
        rows.append(Resonance(
            int(rec["n"]), complex(float(rec["re_k"]), float(rec["im_k"])),
            float(rec["residual"]), pred,
            float(rec["abs_err"]) if rec["abs_err"] else None,
            float(rec["scaled_err"]) if rec["scaled_err"] else None,
            rec["embedded"] == "true",
        ))
    return rows


def format_table(rows: Sequence[Resonance]) -> str:
    """Human-readable fixed-width table of the CSV content."""
    header = (f"{'n':>4} {'Re k':>14} {'Im k':>14} {'residual':>10} "
              f"{'Re pred':>14} {'Im pred':>14} {'abs err':>10} {'scaled':>10}")
    lines = [header, "-" * len(header)]
    for row in rows:
        pred_re = f"{row.k_pred.real:14.6f}" if row.k_pred is not None else " " * 14
        pred_im = f"{row.k_pred.imag:14.6f}" if row.k_pred is not None else " " * 14
        abs_err = f"{row.abs_err:10.2e}" if row.abs_err is not None else " " * 10
        scaled = f"{row.scaled_err:10.3g}" if row.scaled_err is not None else " " * 10
        lines.append(f"{row.index:>4} {row.k.real:14.6f} {row.k.imag:14.6f} "
                     f"{row.residual:10.2e} {pred_re} {pred_im} {abs_err} {scaled}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------

_W, _H = 720, 480
_MARGIN = 60
_MARK = 4.5


def _marker_svg(kind: str, x: float, y: float) -> str:
    m = _MARK
    if kind == "plus":
        return (f'<path d="M{x - m:.2f} {y:.2f}H{x + m:.2f}M{x:.2f} '
                f'{y - m:.2f}V{y + m:.2f}"/>')
    if kind == "cross":
        return (f'<path d="M{x - m:.2f} {y - m:.2f}L{x + m:.2f} {y + m:.2f}'
                f'M{x - m:.2f} {y + m:.2f}L{x + m:.2f} {y - m:.2f}"/>')
    # six-armed star for delta-prime
    s, c = m * math.sin(math.pi / 3), m * 0.5
    return (f'<path d="M{x:.2f} {y - m:.2f}V{y + m:.2f}'
            f'M{x - s:.2f} {y - c:.2f}L{x + s:.2f} {y + c:.2f}'
            f'M{x - s:.2f} {y + c:.2f}L{x + s:.2f} {y - c:.2f}"/>')


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw),
               default=mag)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


def _pad(lo: float, hi: float, default: float) -> float:
    """5 percent of the span, or ``default`` for a span below 1e-9 of the axis
    magnitude (near one ulp the tick step would never advance the ticks)."""
    span = hi - lo
    if span <= 1e-9 * max(abs(lo), abs(hi)):
        return default
    return 0.05 * span


def write_pole_svg(series: Sequence[tuple[str, GpiClass, Sequence[complex]]],
                   fh: TextIO) -> None:
    """Scatter of (Re k, Im k) per series, one marker style per class."""
    pts = [k for _, _, ks in series for k in ks]
    if pts:
        re_lo, re_hi = min(k.real for k in pts), max(k.real for k in pts)
        im_lo, im_hi = min(k.imag for k in pts), max(k.imag for k in pts)
    else:
        re_lo, re_hi, im_lo, im_hi = 0.0, 1.0, -1.0, 0.0
    pad_re = _pad(re_lo, re_hi, 1.0)
    pad_im = _pad(im_lo, im_hi, 0.1)
    re_lo, re_hi = re_lo - pad_re, re_hi + pad_re
    im_lo, im_hi = im_lo - pad_im, min(im_hi + pad_im, 0.0 + pad_im)

    def sx(re: float) -> float:
        return _MARGIN + (re - re_lo) / (re_hi - re_lo) * (_W - 2 * _MARGIN)

    def sy(im: float) -> float:
        return _H - _MARGIN - (im - im_lo) / (im_hi - im_lo) * (_H - 2 * _MARGIN)

    colors = ["#1f3b73", "#a03030", "#2a7a2a", "#7a5c22"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
        f'height="{_H - 2 * _MARGIN}" fill="none" stroke="#444"/>',
    ]
    for t in _ticks(re_lo, re_hi):
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{_H - _MARGIN}" x2="{x:.2f}" '
                     f'y2="{_H - _MARGIN + 5}" stroke="#444"/>')
        parts.append(f'<text x="{x:.2f}" y="{_H - _MARGIN + 18}" font-size="11" '
                     f'text-anchor="middle" fill="#222">{t:g}</text>')
    for t in _ticks(im_lo, im_hi):
        y = sy(t)
        parts.append(f'<line x1="{_MARGIN - 5}" y1="{y:.2f}" x2="{_MARGIN}" '
                     f'y2="{y:.2f}" stroke="#444"/>')
        parts.append(f'<text x="{_MARGIN - 8}" y="{y + 4:.2f}" font-size="11" '
                     f'text-anchor="end" fill="#222">{t:g}</text>')
    if im_lo < 0 < im_hi:
        y0 = sy(0.0)
        parts.append(f'<line x1="{_MARGIN}" y1="{y0:.2f}" x2="{_W - _MARGIN}" '
                     f'y2="{y0:.2f}" stroke="#999" stroke-dasharray="4 3"/>')
    parts.append(f'<text x="{_W / 2:.0f}" y="{_H - 15}" font-size="13" '
                 f'text-anchor="middle" fill="#000">Re k</text>')
    parts.append(f'<text x="18" y="{_H / 2:.0f}" font-size="13" text-anchor="middle" '
                 f'transform="rotate(-90 18 {_H / 2:.0f})" fill="#000">Im k</text>')
    for i, (label, cls, ks) in enumerate(series):
        color = colors[i % len(colors)]
        kind = _MARKER_FOR_CLASS[cls]
        marks = "".join(_marker_svg(kind, sx(k.real), sy(k.imag)) for k in ks)
        parts.append(f'<g class="series-{kind}" stroke="{color}" fill="none" '
                     f'stroke-width="1.4">{marks}</g>')
        ly = _MARGIN + 16 + 16 * i
        parts.append(f'<g stroke="{color}" fill="none" stroke-width="1.4">'
                     f'{_marker_svg(kind, _W - _MARGIN - 150, ly - 4)}</g>')
        parts.append(f'<text x="{_W - _MARGIN - 138}" y="{ly}" font-size="11" '
                     f'fill="#222">{label}</text>')
    parts.append("</svg>")
    fh.write("\n".join(parts) + "\n")
