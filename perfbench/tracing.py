"""Spans around the package's public functions, recorded from the benchmark.

The traced run replaces module attributes of ``treenash`` with timing wrappers
(``install``) and puts the originals back afterwards (``uninstall``); nothing
inside the package changes. Phase spans are kept one by one with their start,
end and parent. The innermost, hot spans (membership tests, LP steps,
best-response checks, game construction) are summed per (solve, name) so that
the tracer's own cost stays small. A span's self time is its duration minus
the durations of the spans it directly encloses.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.solve_id: int | None = None
        # [solve id, name, start, end, parent span index or None, self seconds]
        self.spans: list[list] = []
        # (solve id, name) -> [count, seconds, self seconds], for every span
        self.totals: dict[tuple, list] = {}
        # (solve id, name) -> value, for counts taken at span boundaries
        self.counts: dict[tuple, float] = {}
        # open spans: [name, start, seconds of direct children, span index or None]
        self._stack: list[list] = []

    def _open(self, name: str, record: bool) -> list:
        index = None
        if record:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            index = len(self.spans)
            self.spans.append([self.solve_id, name, 0.0, 0.0, parent, 0.0])
        frame = [name, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        self_seconds = duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.totals.get((self.solve_id, frame[0]))
        if entry is None:
            entry = self.totals[(self.solve_id, frame[0])] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_seconds
        if frame[3] is not None:
            self.spans[frame[3]][2:4] = [frame[1], end]
            self.spans[frame[3]][5] = self_seconds

    @contextmanager
    def span(self, name: str):
        frame = self._open(name, True)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, fn, name: str, on_result=None):
        def traced(*args, **kwargs):
            frame = self._open(name, False)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def add(self, name: str, value: float) -> None:
        key = (self.solve_id, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, name: str, value: float) -> None:
        key = (self.solve_id, name)
        self.counts[key] = max(self.counts.get(key, 0), value)

    def total(self, name: str, field: int = 1) -> float:
        """Sum over solves of a span's count (0), seconds (1) or self seconds (2)."""
        return sum(v[field] for (_, n), v in self.totals.items() if n == name)

    def count(self, name: str, combine=sum) -> float:
        """Combine a count over solves: ``sum`` for tallies, ``max`` for peaks."""
        return combine([v for (_, n), v in self.counts.items() if n == name] or [0])

    def as_json(self) -> dict:
        return {
            "spans": [
                {"solve": s, "name": n, "start": a, "end": b, "parent": p, "self_s": own}
                for s, n, a, b, p, own in self.spans
            ],
            "aggregates": [
                {"solve": s, "name": n, "count": c, "seconds": t, "self_s": own}
                for (s, n), (c, t, own) in self.totals.items()
            ],
            "counts": [{"solve": s, "name": n, "value": v} for (s, n), v in self.counts.items()],
        }


def install(tracer: Tracer) -> list[tuple]:
    """Wrap the package functions the solve phases call; return what to restore."""
    import treenash.lp as lp
    import treenash.serialize as serialize
    import treenash.solver as solver

    def hit(result) -> None:
        tracer.add("solver.membership_hits", result is not None)

    def lp_size(instance) -> None:
        arrays = (instance.a_eq, instance.b_eq, instance.a_ub, instance.b_ub)
        tracer.peak("lp.variables", instance.num_variables)
        tracer.peak("lp.matrix_bytes", sum(a.nbytes for a in arrays if a is not None))

    patches = [
        (solver, "membership_test", "solver.membership_test", hit),
        (solver, "exhaustive_membership", "solver.exhaustive_membership", None),
        (solver, "build_lp", "lp.build_lp", lp_size),
        (solver, "solve_feasibility", "lp.solve_feasibility", None),
        (solver, "round_extension", "lp.round_extension", None),
        (solver, "is_epsilon_best_response", "game.is_epsilon_best_response", None),
        (lp, "is_epsilon_best_response", "game.is_epsilon_best_response", None),
        (serialize, "TreePolymatrixGame", "game.construct", None),
    ]
    saved = []
    for module, attr, name, on_result in patches:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(original, name, on_result))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)
