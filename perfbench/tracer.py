"""Span tracer that wraps the program's public functions from outside.

Nothing in ``src/`` knows about it: :meth:`Tracer.install` replaces
attributes (class methods, module-level names at the place they are
looked up) with timing wrappers and :meth:`Tracer.uninstall` puts the
originals back.  Each span is one tuple kept in memory::

    (span_id, name, start, end, parent_id, request_id, attrs)

``request_id`` and the parent travel with the work across the thread
hand-offs the program uses (``ThreadPoolExecutor.submit`` and
``threading.Thread``), so detection-pool threads and fleet leg threads
attribute their spans to the request that caused them.

:func:`critical_path` turns one request's spans into per-layer self
times that partition the request's wall time: every instant of the
root span goes to the deepest span active at that instant, so busy time
on parallel threads is never summed.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    """In-memory spans plus the patches that produce them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- request context -------------------------------------------------

    @contextmanager
    def request(self, request_id: int):
        """Attribute every span opened inside the block to ``request_id``."""
        local = self._local
        saved = (getattr(local, "rid", 0), getattr(local, "stack", None))
        local.rid, local.stack = request_id, []
        try:
            yield
        finally:
            local.rid, local.stack = saved

    def _context(self) -> tuple[int, int]:
        local = self._local
        stack = getattr(local, "stack", None)
        return getattr(local, "rid", 0), (stack[-1] if stack else 0)

    def _carry(self, fn):
        """``fn`` wrapped to run under the calling thread's context."""
        rid, parent = self._context()
        if not rid and not parent:
            return fn
        local = self._local

        def carried(*args, **kwargs):
            saved = (getattr(local, "rid", 0), getattr(local, "stack", None))
            local.rid, local.stack = rid, [parent] if parent else []
            try:
                return fn(*args, **kwargs)
            finally:
                local.rid, local.stack = saved

        return carried

    # -- wrappers --------------------------------------------------------

    def span(self, name: str, fn, attrs=None):
        """``fn`` wrapped to record one span per call.

        ``attrs(args, result)`` runs after the call and returns the
        span's attribute value (kept small: a number or a short tuple).
        """
        local, spans, ids, clock = self._local, self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            result = None
            started = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = clock()
                stack.pop()
                spans.append(
                    (
                        span_id,
                        name,
                        started,
                        ended,
                        parent,
                        getattr(local, "rid", 0),
                        attrs(args, result) if attrs is not None else None,
                    )
                )

        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` with ``wrapper(original)``."""
        original = getattr(owner, attr)
        # an inherited method is shadowed, then un-shadowed on uninstall
        own = not isinstance(owner, type) or attr in owner.__dict__
        self._patches.append((owner, attr, original if own else None))
        setattr(owner, attr, wrapper(original))

    def install(self, targets) -> None:
        """Wrap ``(owner, attr, span_name, attrs)`` targets and carry
        the request context across thread hand-offs."""
        tracer = self
        for owner, attr, name, attrs in targets:
            self.patch(owner, attr, lambda fn, n=name, a=attrs: tracer.span(n, fn, a))

        def submit_wrapper(original):
            def submit(executor, fn, /, *args, **kwargs):
                return original(executor, tracer._carry(fn), *args, **kwargs)

            return submit

        def start_wrapper(original):
            def start(thread):
                target = getattr(thread, "_target", None)
                if target is not None:
                    thread._target = tracer._carry(target)
                return original(thread)

            return start

        self.patch(concurrent.futures.ThreadPoolExecutor, "submit", submit_wrapper)
        self.patch(threading.Thread, "start", start_wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Dump every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, rid, attrs in self.spans:
                out.write(
                    json.dumps(
                        [span_id, name, round(start, 7), round(end, 7), parent, rid, attrs],
                        separators=(",", ":"),
                    )
                )
                out.write("\n")


def critical_path(root: tuple, spans: list[tuple]) -> dict[str, float]:
    """Seconds of ``root``'s wall time owned by each span name.

    ``spans`` are the root's descendants (parents must be among them or
    be the root).  Each elementary interval goes to the deepest span
    active over it, ties to the latest started; the parts no descendant
    covers go to the root.  The values sum to the root's duration.
    """
    root_id, root_name, root_start, root_end = root[:4]
    depth = {root_id: 0}
    by_id = {span[0]: span for span in spans}

    def depth_of(span) -> int:
        found = depth.get(span[0])
        if found is not None:
            return found
        parent = by_id.get(span[4])
        value = 1 + (depth_of(parent) if parent is not None else 0)
        depth[span[0]] = value
        return value

    events = []
    for span in spans:
        start, end = max(span[2], root_start), min(span[3], root_end)
        if end > start:
            key = (depth_of(span), span[2])
            events.append((start, 1, key, span[1]))
            events.append((end, 0, key, span[1]))
    events.sort()
    owned: dict[str, float] = {}
    active: dict[tuple, list[str]] = {}
    cursor = root_start
    for at, opening, key, name in events:
        if at > cursor:
            owner = root_name
            if active:
                owner = active[max(active)][-1]
            owned[owner] = owned.get(owner, 0.0) + (at - cursor)
            cursor = at
        if opening:
            active.setdefault(key, []).append(name)
        else:
            names = active[key]
            names.remove(name)
            if not names:
                del active[key]
    if root_end > cursor:
        owned[root_name] = owned.get(root_name, 0.0) + (root_end - cursor)
    return owned
