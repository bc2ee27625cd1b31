"""In-memory spans recorded from outside annealsim.

A span has a name ``<layer>.<call>``, a start, an end and the span that was
open when it began.  Calls made inside annealsim are traced by swapping a
module attribute for a timing wrapper; the swap is undone by
:meth:`Tracer.restore`.  Pool workers forked while a wrapper is installed
carry it, so the traced round pays the tracing cost in every process, but
only the spans of this process are kept.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0)
        self.starts.append(time.perf_counter_ns())
        self._open.append(index)
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter_ns()
            self._open.pop()

    def patch(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` by a wrapper that records span ``name``."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self.replace(module, attr, traced)

    def replace(self, module, attr: str, value) -> None:
        """Set ``module.attr`` to ``value`` until :meth:`restore`."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [(e - s) * 1e-9 for n, s, e in zip(self.names, self.starts, self.ends)
                if n == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def layer_self_seconds(self, root: int) -> dict[str, float]:
        """Self time per layer over the subtree of span ``root``.

        A span's self time is its duration minus the durations of its direct
        children; spans nest strictly, so the self times of a subtree add up
        to the root's duration.
        """
        child_total = defaultdict(int)
        inside = {root}
        for i in range(root + 1, len(self.names)):
            if self.parents[i] in inside:
                inside.add(i)
                child_total[self.parents[i]] += self.ends[i] - self.starts[i]
        per_layer = defaultdict(float)
        for i in inside:
            own = self.ends[i] - self.starts[i] - child_total[i]
            per_layer[self.names[i].split(".", 1)[0]] += own * 1e-9
        return dict(per_layer)

    def summary(self) -> dict[str, dict]:
        """Count and total seconds of the spans of each name."""
        out = defaultdict(lambda: {"count": 0, "seconds": 0.0})
        for n, s, e in zip(self.names, self.starts, self.ends):
            out[n]["count"] += 1
            out[n]["seconds"] += (e - s) * 1e-9
        return dict(out)
