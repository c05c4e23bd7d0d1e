"""Span tracer for one CLI job, loaded by job.py in traced runs only.

Every public function of the six twistlab modules is wrapped at its boundary,
and every module attribute that names the same function object is patched,
so `cli.maximize_on_sphere` and `oat_metrology.maximize_on_sphere` are both
traced.  A call opens a span with a name, a start, an end and a parent.  When
a span closes, its self time (its duration less the union of the intervals
its child spans cover) is folded into per-name totals, so memory stays flat
however many calls a job makes.

Spans opened on a worker thread of the CLI's row pool, with nothing open on
that thread, take the main thread's innermost open span as their parent.

Counters that repeat exactly for a given job (calls, evaluations, bytes) are
kept apart from times.  Byte counts are computed from array sizes, not
measured.
"""
from __future__ import annotations

import functools
import importlib
import threading
import time
import types
from collections import Counter, defaultdict

MODULES = ("cli", "spin_core", "oat_metrology", "lattice_fr", "optimizer", "numerics")

_COMPLEX_BYTES = 16


class Span:
    __slots__ = ("name", "start", "end", "parent", "children")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.children: list[tuple[float, float]] = []
        self.start = self.end = 0.0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.lock = threading.Lock()
        self.local = threading.local()
        self.main_stack: list[Span] = []
        self.local.stack = self.main_stack
        self.seen_rotations: set = set()
        self.moment_table_started = False
        self.hooks = {
            "spin_core.rotate": self._rotate,
            "spin_core.collective_operator": self._collective_operator,
            "oat_metrology.protocol_state": self._protocol_state,
            "optimizer.maximize_on_sphere": self._maximize,
            "optimizer.maximize_joint": self._maximize,
            "lattice_fr.fr_mom_reciprocal": self._fr_mom_reciprocal,
            "lattice_fr.moment_table": self._moment_table,
        }
        # exceptions counted as they leave a function: (type name, counter)
        self.raises = {
            "oat_metrology.mom_reciprocal_error":
                ("IndeterminateRatioError", "oat_metrology.indeterminate"),
            "numerics.richardson_limit":
                ("ExtrapolationDivergenceError", "numerics.richardson_limit.divergent"),
        }

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _open(self, name: str) -> tuple[Span, list[Span]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self.main_stack[-1] if self.main_stack else None
        span = Span(name, parent)
        stack.append(span)
        span.start = time.perf_counter()
        return span, stack

    def _close(self, span: Span, stack: list[Span]) -> float:
        span.end = time.perf_counter()
        stack.pop()
        duration = span.end - span.start
        own = duration - _covered(span.children)
        with self.lock:
            self.calls[span.name] += 1
            self.self_s[span.name] += own
            if span.parent is not None:
                span.parent.children.append((span.start, span.end))
        return duration

    def wrap(self, name: str, fn):
        hook = self.hooks.get(name)
        raises = self.raises.get(name)

        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs, after = hook(name, args, kwargs)
            span, stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, stack)
                if raises is not None and type(exc).__name__ == raises[0]:
                    with self.lock:
                        self.counts[raises[1]] += 1
                raise
            duration = self._close(span, stack)
            if hook is not None and after is not None:
                after(result, duration)
            return result

        return functools.wraps(fn)(traced)

    # -- per-function counters ---------------------------------------------

    def _count(self, key: str, value=1) -> None:
        with self.lock:
            self.counts[key] += value

    def _rotate(self, name, args, kwargs):
        state = args[0] if args else kwargs["state"]
        direction = args[1] if len(args) > 1 else kwargs["direction"]
        key = (state.n_particles, direction)
        with self.lock:
            if key not in self.seen_rotations:
                self.seen_rotations.add(key)
                self.counts[name + ".new_directions"] += 1
        return args, kwargs, None

    def _collective_operator(self, name, args, kwargs):
        def after(result, _duration):
            self._count(name + ".bytes_computed", result.matrix.nbytes)
        return args, kwargs, after

    def _protocol_state(self, name, args, kwargs):
        if any(s.name == "oat_metrology.mom_reciprocal_error" for s in self._stack()):
            self._count(name + ".in_mom")
        return args, kwargs, None

    def _maximize(self, name, args, kwargs):
        # both optimizers take the objective first; count its evaluations
        objective = args[0] if args else kwargs["objective"]

        def counted(*a):
            self._count(name + ".evals")
            return objective(*a)

        if args:
            args = (counted,) + tuple(args[1:])
        else:
            kwargs = {**kwargs, "objective": counted}

        def after(result, _duration):
            self._count(name + ".converged", int(bool(result.converged)))
            self._count(name + ".skipped", int(result.skipped))
        return args, kwargs, after

    def _fr_mom_reciprocal(self, name, args, kwargs):
        n_particles = args[0] if args else kwargs["n_particles"]
        derivative = kwargs.get("derivative", args[7] if len(args) > 7 else "richardson")
        # the batch of rotated statevectors: phi plus two points per difference step
        batch = 1 + 2 * (3 if derivative == "richardson" else 1)

        def after(_result, _duration):
            self._count(name + ".bytes_computed", batch * 2 ** (n_particles + 2) * _COMPLEX_BYTES)
        return args, kwargs, after

    def _moment_table(self, name, args, kwargs):
        with self.lock:
            first = not self.moment_table_started
            self.moment_table_started = True

        def after(_result, duration):
            self._count(name + ".first_call_s", duration)
        return args, kwargs, after if first else None

    # -- install and report ------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"twistlab.{m}") for m in MODULES]
        targets = modules + [importlib.import_module("twistlab")]
        for module, short in zip(modules, MODULES):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                for target in targets:
                    for name, value in list(vars(target).items()):
                        if value is fn:
                            setattr(target, name, traced)

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}
