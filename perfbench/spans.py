"""Layer spans for the traced benchmark run.

The tracer replaces module attributes with timing wrappers, in the namespace
where each caller looks the name up (``fairrec.optimizer.reduce_by_types``
rather than the function object's home module), so nothing under ``src/`` is
edited.  Every span records its name, start, end, parent span and op id;
self time is a span's duration minus the durations of its direct children.

Work done to inspect a call's arguments or result (array sizes, iteration
counts) runs outside the span and is charged to no layer.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int
    name: str
    t0: float
    t1: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """Collects spans while ``op`` is set; wrappers are transparent otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.missing: list[tuple[str, str]] = []  # (wrapped name, span name)
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span called ``name``.

        ``before(args, kwargs)`` runs ahead of the call and its result is
        handed to ``after(info, ctx, args, kwargs, out)``, which fills the
        span's ``info``.  A name that no longer exists is recorded in
        ``missing`` with the span it would have fed, and left alone.
        """
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            self.missing.append((f"{getattr(owner, '__name__', owner)}.{attr}", name))
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return orig(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            ctx = tracer._untimed(parent, before, args, kwargs) if before is not None else None
            span = Span(len(tracer.spans), parent.sid if parent else None, tracer.op, name,
                        time.perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                out = orig(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_s += span.dur
            if after is not None:
                tracer._untimed(parent, after, span.info, ctx, args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    @staticmethod
    def _untimed(parent: Span | None, hook, *args):
        """Run an inspection hook and keep its time out of the parent's self time."""
        t = time.perf_counter()
        try:
            return hook(*args)
        finally:
            if parent is not None:
                parent.child_s += time.perf_counter() - t

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out
