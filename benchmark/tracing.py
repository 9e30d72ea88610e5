"""Span recording inside one nlstable process, and span arithmetic.

A span is one call into a layer: its name (``<layer>.<what>``), start
and end on ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so the
harness can compare them with its own launch and exit times), the
index of the span that was open when it started, and a few attributes
counted at the boundary.  Spans stay in memory and are written out
once, when the process ends.

The wrappers replace a function under the name its caller looks it up
by (``cli`` and ``solver`` import by name), so nothing in ``src/`` is
edited.  Per-node hot paths such as ``Grid.x`` and ``np.interp`` are
deliberately not wrapped.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    """In-memory span recorder for a single-threaded process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, attrs]
        self.missing = []    # names that could not be wrapped
        self._stack = []

    def _parent(self):
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name):
        rec = [name, clock(), None, self._parent(), {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec[4]
        finally:
            rec[2] = clock()
            self._stack.pop()

    def wrap(self, owner, attr, name, attrs=None):
        """Replace ``owner.attr`` by a wrapper that records one span per
        call; ``attrs(args, kwargs, result)`` adds boundary counts."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        def traced(*args, **kwargs):
            with self.span(name) as extra:
                result = fn(*args, **kwargs)
            if attrs is not None:
                extra.update(_safe(attrs, args, kwargs, result))
            return result

        setattr(owner, attr, traced)

    def wrap_cached(self, owner, attr, name, attrs=None):
        """Like ``wrap`` for an ``lru_cache`` function, but record a span
        only for calls that missed the cache (the real builds)."""
        fn = getattr(owner, attr, None)
        info = getattr(fn, "cache_info", None)
        if info is None:
            return self.wrap(owner, attr, name, attrs)

        def traced(*args, **kwargs):
            misses, start = info().misses, clock()
            result = fn(*args, **kwargs)
            end = clock()
            if info().misses != misses:
                extra = {} if attrs is None \
                    else _safe(attrs, args, kwargs, result)
                self.spans.append([name, start, end, self._parent(), extra])
            return result

        setattr(owner, attr, traced)

    def records(self):
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                 "attrs": a} for i, (n, s, e, p, a) in enumerate(self.spans)]


def _safe(attrs, args, kwargs, result):
    """Boundary counts must never break the traced program: an API that
    changed shape yields no counts instead of an exception."""
    try:
        return attrs(args, kwargs, result)
    except (AttributeError, IndexError, KeyError, TypeError):
        return {}


# -- arithmetic on recorded spans (harness side) -------------------------

def covered(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered(children[s["id"]], s["start"], s["end"])
            for s in spans}


def nesting_problems(spans, launch, exit_):
    """Every span lies inside the process lifetime and inside its parent,
    and every parent started earlier."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if not launch <= s["start"] <= s["end"] <= exit_:
            problems.append(f"span {s['id']} {s['name']} outside the process")
        p = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and p is None:
            problems.append(f"span {s['id']} {s['name']} has no parent")
        elif p is not None and not (p["start"] <= s["start"]
                                    and s["end"] <= p["end"]):
            problems.append(f"span {s['id']} {s['name']} escapes its parent "
                            f"{p['id']} {p['name']}")
    return problems
