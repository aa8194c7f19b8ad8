"""Per-layer tracing from outside the package.

The tracer replaces public functions of ``riccati``, ``krein``,
``polefinder``, ``asymptotics``, ``report`` and ``cli`` with timing wrappers
in the module globals where their callers look them up (``find_poles``
resolves ``det_lambda_balanced`` in ``winterres.polefinder``, ``det_lambda``
resolves ``riccati_s`` in ``winterres.krein``, and so on), so no file of the
package changes.  Leaving the ``with`` block puts every original back.

Coarse calls (a search, a Newton refinement, a CSV write) become spans
(name, start, end, parent span, search id) kept in memory and written out at
the end.  The fine ones, called up to millions of times per pass (det lambda,
its boundary values and the Riccati functions), are only aggregated: calls,
inclusive and self time, per nearest enclosing span name.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, global, span name).  A name wrapped in several modules is one layer.
PATCH_POINTS = (
    ("winterres", "find_poles", "polefinder.find_poles"),
    ("winterres.polefinder", "find_poles", "polefinder.find_poles"),
    ("winterres.cli", "find_poles", "polefinder.find_poles"),
    ("winterres.polefinder", "refine", "polefinder.refine"),
    ("winterres.cli", "index_poles", "polefinder.index_poles"),
    ("winterres.polefinder", "det_lambda_balanced", "krein.det_lambda_balanced"),
    ("winterres.polefinder", "det_lambda", "krein.det_lambda"),
    ("winterres.krein", "det_lambda", "krein.det_lambda"),
    ("winterres.cli", "det_lambda", "krein.det_lambda"),
    ("winterres.krein", "phi_boundary", "krein.phi_boundary"),
    ("winterres.cli", "real_axis_roots", "krein.real_axis_roots"),
    ("winterres.krein", "riccati_s", "riccati.riccati_s"),
    ("winterres.krein", "riccati_xi", "riccati.riccati_xi"),
    ("winterres.cli", "compare", "asymptotics.compare"),
    ("winterres.cli", "predict", "asymptotics.predict"),
    ("winterres.asymptotics", "predict", "asymptotics.predict"),
    ("winterres.cli", "write_csv", "report.write_csv"),
    ("winterres.cli", "write_pole_svg", "report.write_pole_svg"),
    ("winterres.cli", "main", "cli.main"),
)

ANY = object()   # matches every context in the queries below

AGGREGATED = frozenset({"krein.det_lambda_balanced", "krein.det_lambda",
                        "krein.phi_boundary", "riccati.riccati_s",
                        "riccati.riccati_xi", "asymptotics.predict"})


class Tracer:
    """Context manager that installs the wrappers and collects spans and totals.

    ``totals[(name, context)]`` is ``[calls, inclusive_s, self_s, raised]``,
    where context is the name of the nearest enclosing span (None at top).
    Set ``search_id`` before each search to tag the spans it produces.
    ``escapes`` lists every exception that left a wrapped function, as
    (span name, id of the nearest enclosing kept span, exception class).
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.totals: dict[tuple[str, str | None], list] = {}
        self.search_id: int | None = None
        self.missing: list[str] = []
        self.escapes: list[tuple[str, int | None, type]] = []
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, span_name in PATCH_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        keep = name not in AGGREGATED
        stack, spans, totals, clock = self._stack, self.spans, self.totals, time.perf_counter
        escapes = self.escapes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            context = parent[2] if parent else None
            parent_id = parent[1] if parent else None
            if keep:
                span_id = len(spans)
                spans.append(None)
                frame = [0.0, span_id, name]
            else:
                frame = [0.0, parent_id, context]
            stack.append(frame)
            raised = None
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                raised = type(exc).__name__
                escapes.append((name, parent_id, type(exc)))
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                rec = totals.get((name, context))
                if rec is None:
                    rec = totals[(name, context)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                rec[3] += raised is not None
                if keep:
                    items = len(out) if isinstance(out, list) else None
                    spans[span_id] = (span_id, name, t0, t1, parent_id, self.search_id,
                                      dur - frame[0], raised, items)

        return traced

    # -- queries over the collected totals ---------------------------------

    def _total(self, field: int, name: str, context) -> float:
        return sum(rec[field] for (n, ctx), rec in self.totals.items()
                   if n == name and (context is ANY or ctx == context))

    def calls(self, name: str, context=ANY) -> int:
        return self._total(0, name, context)

    def inclusive_s(self, name: str, context=ANY) -> float:
        return self._total(1, name, context)

    def self_s(self, name: str, context=ANY) -> float:
        return self._total(2, name, context)

    def raised(self, name: str, context=ANY) -> int:
        return self._total(3, name, context)

    def items(self, name: str) -> int:
        """Total length of the lists that spans of this name returned."""
        return sum(s[8] or 0 for s in self.spans if s is not None and s[1] == name)

    def write_spans(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "search", "self_s", "raised", "items")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(dict(zip(keys, span))) + "\n")
