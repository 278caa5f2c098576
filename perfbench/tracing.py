"""Benchmark-side call tracing.

The program is traced from outside: :class:`CallTracer` replaces public
functions and methods of ``repro`` with wrappers for the duration of a
traced section and restores the originals afterwards.  Each wrapped call
records one :class:`Span` — name, start, end, parent span, thread, and
the request id the calling thread is serving — in an in-memory list.
Nothing inside ``src/`` changes, and the program's own ``repro.obs``
tracer stays off.

Spans recorded in forked workers stay in the worker's copy of the list,
so distributed and ensemble runs report parent-side spans only.

:func:`write_chrome_trace` writes the spans as Chrome trace-event JSON
(open it in ``chrome://tracing`` or https://ui.perfetto.dev);
:func:`reconcile` reports, for each parent span name, the share of its
time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

#: A parent whose children cover less than this share is flagged.
COVERAGE_FLAG = 0.95

_MISSING = object()


class Span(NamedTuple):
    sid: int
    name: str
    t0: float
    t1: float
    parent: int | None
    tid: int
    rid: int | None
    #: Optional number measured from the call (bytes, steps, ...).
    value: float | None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Target(NamedTuple):
    """One callable to wrap: ``"module:function"`` or
    ``"module:Class.method"``.  ``span`` names the recorded span; with
    ``span=None`` only ``on_call`` runs.  ``value(args, result)`` adds a
    number to the span; ``on_call(args)`` runs before the call."""

    path: str
    span: str | None
    value: Callable | None = None
    on_call: Callable | None = None


class CallTracer:
    """Install wrappers around :class:`Target` callables and collect
    their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- request attribution --------------------------------------------
    def set_request(self, rid: int | None) -> None:
        """Tag the calling thread's later spans with request ``rid``."""
        self._local.rid = rid

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, fn: Callable, target: Target) -> Callable:
        local = self._local
        spans = self.spans
        ids = self._ids
        name, value, on_call = target.span, target.value, target.on_call

        if name is None:
            @functools.wraps(fn)
            def hook(*args, **kwargs):
                on_call(args)
                return fn(*args, **kwargs)
            return hook

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append(Span(
                    sid, name, t0, t1, parent, threading.get_ident(),
                    getattr(local, "rid", None),
                    value(args, result) if value is not None else None,
                ))
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def install(self, targets) -> None:
        """Wrap every target.  A module function is replaced in every
        loaded ``repro`` module that bound it by name, so call sites that
        did ``from module import function`` are traced too."""
        for target in targets:
            module_name, _, qual = target.path.partition(":")
            module = importlib.import_module(module_name)
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                raw = inspect.getattr_static(cls, attr)
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, target))
                elif isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, target))
                else:
                    new = self._wrap(raw, target)
                self._patch(cls, attr, new)
                continue
            original = getattr(module, qual)
            new = self._wrap(original, target)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        self._patch(mod, attr, new)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, old = self._patches.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    @property
    def installed(self) -> bool:
        return bool(self._patches)


# -- span analysis ----------------------------------------------------------

class SpanIndex:
    """Parent/child lookups over a span list."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def has_ancestor(self, span: Span, name: str) -> bool:
        p = span.parent
        while p is not None:
            anc = self.by_id.get(p)
            if anc is None:
                return False
            if anc.name == name:
                return True
            p = anc.parent
        return False

    def under(self, name: str, ancestor: str) -> list[Span]:
        """Spans called ``name`` that ran inside an ``ancestor`` span."""
        return [s for s in self.named(name) if self.has_ancestor(s, ancestor)]

    def child_seconds(self, span: Span) -> float:
        return sum(c.dur for c in self.children.get(span.sid, ()))


def reconcile(parents: dict[str, list[tuple[float, float]]]) -> list[dict]:
    """Coverage rows: ``parents`` maps a parent name to ``(parent
    seconds, covered-by-children seconds)`` per parent instance."""
    rows = []
    for name, pairs in parents.items():
        if not pairs:
            continue
        total = sum(p for p, _ in pairs)
        covered = sum(c for _, c in pairs)
        cov = covered / total if total > 0 else 0.0
        rows.append({
            "parent": name,
            "n": len(pairs),
            "mean_ms": 1e3 * total / len(pairs),
            "coverage": cov,
            "unattributed_ms": 1e3 * (total - covered) / len(pairs),
            "flagged": cov < COVERAGE_FLAG,
        })
    return rows


def format_reconciliation(rows: list[dict]) -> str:
    lines = [
        f"{'parent':<16}{'n':>6}{'mean ms':>10}{'coverage':>10}"
        f"{'unattributed ms':>17}  flag"
    ]
    for r in rows:
        lines.append(
            f"{r['parent']:<16}{r['n']:>6}{r['mean_ms']:>10.3f}"
            f"{r['coverage']:>10.1%}{r['unattributed_ms']:>17.3f}  "
            + (f"BELOW {COVERAGE_FLAG:.0%}" if r["flagged"] else "ok")
        )
    return "\n".join(lines)


def write_chrome_trace(
    path: Path,
    spans: list[Span],
    extra: list[dict] = (),
    metadata: dict | None = None,
) -> None:
    """Chrome trace-event JSON: one complete ("X") event per span,
    times in microseconds from the earliest span.  ``extra`` events
    (``name``, ``t0``/``t1`` in perf_counter seconds, ``args``) go on a
    track of their own, thread 0, named "benchmark"."""
    origin = min(
        [s.t0 for s in spans] + [e["t0"] for e in extra], default=0.0
    )
    events = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
               "args": {"name": "benchmark"}}]
    for s in spans:
        events.append({
            "name": s.name, "ph": "X", "pid": 1, "tid": s.tid,
            "ts": (s.t0 - origin) * 1e6, "dur": s.dur * 1e6,
            "args": {"sid": s.sid, "parent": s.parent, "rid": s.rid,
                     "value": s.value},
        })
    for e in extra:
        events.append({
            "name": e["name"], "ph": "X", "pid": 1, "tid": 0,
            "ts": (e["t0"] - origin) * 1e6, "dur": (e["t1"] - e["t0"]) * 1e6,
            "args": e.get("args", {}),
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "metadata": metadata or {}}, fh)
