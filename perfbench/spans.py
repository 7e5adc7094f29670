"""In-memory spans recorded around calls into the program's layers.

The traced run wraps public functions of the program's modules from
the benchmark's own code (see :mod:`perfbench.layers`); nothing under
``src/`` is edited.  A span carries a name, start, end, parent span and
request id; spans live in memory and are written out once, when the
traced process ends.  Self time is computed afterwards from the
intervals (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (span id, request id) of the innermost open span in this task/thread.
_current: "contextvars.ContextVar[Tuple[int, Optional[str]]]" = (
    contextvars.ContextVar("perfbench_span", default=(0, None))
)


class Span:
    """One timed call.  ``parent`` is 0 for a root span."""

    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "attrs")

    def __init__(
        self,
        sid: int,
        name: str,
        start: float,
        end: float,
        parent: int,
        rid: Optional[str],
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid
        self.attrs = attrs or {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.sid, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "rid": self.rid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_json(cls, obj: Dict[str, Any]) -> "Span":
        return cls(
            obj["id"], obj["name"], obj["start"], obj["end"],
            obj["parent"], obj["rid"], obj.get("attrs") or {},
        )


#: ``attrs(args, kwargs, result) -> dict`` annotates a finished span;
#: ``rid(args, kwargs) -> str`` names the request a root span serves.
AttrFn = Callable[[tuple, dict, Any], Dict[str, Any]]
RidFn = Callable[[tuple, dict], Optional[str]]


class Tracer:
    """Records spans around wrapped callables; :meth:`restore` undoes
    every wrap."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _open(self, rid_fn: Optional[RidFn], args: tuple, kwargs: dict):
        parent, rid = _current.get()
        if rid is None and rid_fn is not None:
            rid = rid_fn(args, kwargs)
        sid = next(self._ids)
        token = _current.set((sid, rid))
        return sid, parent, rid, token

    def _close(self, sid, parent, rid, token, name, start, attrs) -> None:
        end = time.perf_counter()
        _current.reset(token)
        with self._lock:
            self.spans.append(Span(sid, name, start, end, parent, rid, attrs))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        rid: Optional[RidFn] = None,
        attrs: Optional[AttrFn] = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                sid, parent, req, token = tracer._open(rid, args, kwargs)
                start = time.perf_counter()
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    extra = attrs(args, kwargs, result) if attrs else None
                    tracer._close(sid, parent, req, token, name, start, extra)
        else:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                sid, parent, req, token = tracer._open(rid, args, kwargs)
                start = time.perf_counter()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    extra = attrs(args, kwargs, result) if attrs else None
                    tracer._close(sid, parent, req, token, name, start, extra)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


def load(path: str) -> List[Span]:
    with open(path) as fh:
        return [Span.from_json(json.loads(line)) for line in fh if line.strip()]


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> self time: the span's duration minus the part of its
    interval that its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = s.seconds - covered
    return out


def descendants(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    """Span id -> every span below it in the parent tree."""
    spans = list(spans)
    kids: Dict[int, List[Span]] = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    out: Dict[int, List[Span]] = {}
    for s in spans:
        stack, found = list(kids.get(s.sid, ())), []
        while stack:
            c = stack.pop()
            found.append(c)
            stack.extend(kids.get(c.sid, ()))
        out[s.sid] = found
    return out
