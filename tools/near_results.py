#!/usr/bin/env python3
"""Compare two outputs of ``tools/same_results.py`` up to rounding of the poles.

    python3 tools/near_results.py OLD NEW

matches the lines of the two files by workload, index and inputs.  A
``find_poles`` search must raise the same exception class, or return as many
poles, each within REL_TOL * max(1, |k|) of its old place.  A ``winterres
poles`` call must keep its exit code and hold the poles of its CSV rows to
the same rule; its CSV and SVG bytes may change.  For each workload it
prints the largest relative pole move, the number of CLI calls whose CSV or
SVG bytes changed, the det lambda array calls and points, the split
programs and the riccati_s calls, old -> new.  Then it prints each search
whose counts changed, which is not a mismatch.  Every mismatch is printed too, and makes the exit status
1:

    python3 tools/same_results.py ../parent > old.txt
    python3 tools/same_results.py . > new.txt
    python3 tools/near_results.py old.txt new.txt
"""

from __future__ import annotations

import os
import sys

REL_TOL = 1e-13   # the rounding a reordered sum may leave on a refined pole


def _counts(text: str) -> tuple[str, str, str]:
    """('calls C points P', 'S', 'N') from
    'calls C points P | split programs S | riccati_s calls N'."""
    det, _, rest = text.partition(" | split programs ")
    splits, _, riccati = rest.partition(" | riccati_s calls ")
    return det, splits, riccati


def _read(path: str) -> tuple[dict, dict, dict]:
    """{(workload, index, inputs): result}, {same key: counts} and {workload: counts}
    of one file, with counts as ``_counts`` gives them."""
    results, counts, totals = {}, {}, {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            name, rest = line.rstrip("\n").split(" ", 1)
            if rest.startswith("det_lambda "):
                totals[name] = _counts(rest.split(" ", 1)[1])
                continue
            index, rest = rest.split(" ", 1)
            inputs, _, rest = rest.partition("]")
            result, _, count = rest.partition("| det_lambda ")
            key = name, int(index), inputs + "]"
            results[key], counts[key] = result.strip(), _counts(count)
    return results, counts, totals


def _poles(result: str) -> list[complex] | None:
    """The poles of a search's result, or None for an exception class.

    A ``find_poles`` result lists k and residual as float hex; a CLI call
    lists its CSV's ``re_k,im_k`` after ``poles``."""
    tokens = result.split()
    if tokens and tokens[0] == "exit":
        return [complex(*map(float, token.split(",")))
                for token in tokens[tokens.index("poles") + 1:]]
    if tokens and "," not in tokens[0]:
        return None
    return [complex(float.fromhex(re), float.fromhex(im))
            for re, im, _ in (token.split(",") for token in tokens)]


def pole_move(a: str, b: str) -> float:
    """The largest relative move |k_new - k_old| / max(1, |k_old|) between the poles of two
    results of a search, 0.0 for one exception class twice; raises ValueError naming any
    other change: another exception class, or poles against one or of another count."""
    ka, kb = _poles(a), _poles(b)
    if ka is None or kb is None:
        if a != b:
            raise ValueError(f"{a[:60]} -> {b[:60]}")
        return 0.0
    if len(ka) != len(kb):
        raise ValueError(f"{len(ka)} poles -> {len(kb)} poles")
    return max((abs(x - y) / max(1.0, abs(x)) for x, y in zip(ka, kb)), default=0.0)


def _change(old: tuple[str, str, str], new: tuple[str, str, str]) -> str:
    return (f"det_lambda {old[0]} -> {new[0]}, split programs {old[1]} -> {new[1]}, "
            f"riccati_s calls {old[2]} -> {new[2]}")


def compare(old_path: str, new_path: str) -> tuple[list[str], list[str]]:
    """(summary lines, one per workload, then one per search whose counts
    changed; mismatch lines)."""
    old, old_counts, old_totals = _read(old_path)
    new, new_counts, new_totals = _read(new_path)
    mismatches = [f"{key[0]} {key[1]} {key[2]}: only in {path}"
                  for keys, other, path in ((old, new, old_path), (new, old, new_path))
                  for key in keys if key not in other]
    move, changed = {}, {}
    for key in (key for key in old if key in new):
        a, b = old[key], new[key]
        name, where = key[0], f"{key[0]} {key[1]} {key[2]}"
        if a.startswith("exit ") or b.startswith("exit "):
            changed[name] = changed.get(name, 0) + (a.split()[:6] != b.split()[:6])
            if a.split()[:2] != b.split()[:2]:
                mismatches.append(f"{where}: {' '.join(a.split()[:2])} -> "
                                  f"{' '.join(b.split()[:2])}")
                continue
        try:
            worst = pole_move(a, b)
        except ValueError as exc:
            mismatches.append(f"{where}: {exc}")
            continue
        move[name] = max(move.get(name, 0.0), worst)
        if worst > REL_TOL:
            mismatches.append(f"{where}: a pole moved {worst:.3g} relative")
    summary = [f"{name}: largest relative pole move "
               f"{format(move[name], '.3g') if name in move else '-'}, "
               f"{changed.get(name, 0)} CLI calls with changed bytes, "
               f"{_change(old_totals.get(name, ('-',) * 3), new_totals.get(name, ('-',) * 3))}"
               for name in dict.fromkeys(key[0] for key in [*old, *new])]
    summary += [f"{key[0]} {key[1]} {key[2]}: {_change(old_counts[key], new_counts[key])}"
                for key in old if key in new and old_counts[key] != new_counts[key]]
    return summary, mismatches


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    summary, mismatches = compare(*argv)
    print("\n".join(summary + [f"MISMATCH {line}" for line in mismatches]))
    return 1 if mismatches else 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:   # the reader stopped early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())   # no flush error at exit
        status = 141   # 128 + SIGPIPE, as a shell reports a writer the pipe ended
    sys.exit(status)
