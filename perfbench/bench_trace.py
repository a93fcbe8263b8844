"""Outside-in tracing for the benchmark's traced run.

Spans are recorded around the benchmark's own calls into the program; the
program itself carries no instrumentation. Decode reaches its generator and
LM through duck typing, so the traced run hands it `TimedProxy` wrappers
that forward every attribute and time and count every method call by name.
Methods the models gain later are recorded without touching this file.
Proxied calls are aggregated per method rather than kept as single spans:
a decode makes tens of thousands of them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


class Tracer:
    """Spans around the benchmark's calls into the program, kept in memory
    until the run reports them."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float]] = []  # (name, seconds), in call order

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start)

    def record(self, name: str, seconds: float) -> None:
        """A span timed elsewhere."""
        self.spans.append((name, seconds))

    def total(self, name: str) -> float:
        return sum(seconds for span, seconds in self.spans if span == name)

    def summary(self) -> list[tuple[str, int, float]]:
        """(name, count, total seconds) per span name, in first-seen order."""
        rows: dict[str, list] = {}
        for name, seconds in self.spans:
            row = rows.setdefault(name, [0, 0.0])
            row[0] += 1
            row[1] += seconds
        return [(name, count, total) for name, (count, total) in rows.items()]


@dataclass
class MethodStats:
    calls: int = 0
    seconds: float = 0.0
    entries: int = 0  # summed length of dict, list and tuple results
    args: set = field(default_factory=set)  # distinct argument tuples, when kept


class TimedProxy:
    """Forwards every attribute of `target`; times and counts each method call.

    `keep_args` names methods whose distinct positional argument tuples are
    kept (they must be hashable). Results pass through unchanged.
    """

    def __init__(self, target, keep_args: tuple[str, ...] = ()) -> None:
        self._proxy_target = target
        self._proxy_keep_args = frozenset(keep_args)
        self._proxy_stats: dict[str, MethodStats] = {}

    def __getattr__(self, name: str):
        value = getattr(self._proxy_target, name)
        if not callable(value):
            return value
        stats = self._proxy_stats.setdefault(name, MethodStats())
        keep = name in self._proxy_keep_args

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return_value = value(*args, **kwargs)
            finally:
                stats.seconds += time.perf_counter() - start
                stats.calls += 1
            if isinstance(return_value, (dict, list, tuple)):
                stats.entries += len(return_value)
            if keep:
                stats.args.add(args)
            return return_value

        # later lookups find the wrapper directly and skip __getattr__
        self.__dict__[name] = timed
        return timed


def method_stats(proxy: TimedProxy) -> dict[str, MethodStats]:
    return proxy._proxy_stats
