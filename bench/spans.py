"""In-memory spans recorded at rsmopt's module boundaries.

A span is one call through a wrapped boundary: its name, an optional
label (the method a solver call works on), its start and end on
``time.perf_counter``, the span that was open when it started (its
parent), and what the call produced: a count (points scored or
evaluations used), a value (the objective reached) and whether it
succeeded. Spans live in flat typed arrays so that a traced pass of a
few hundred thousand calls stays within a few tens of megabytes; they
are written out once, at the end of the run.

Wrapping replaces module attributes, so it catches every caller that
looks the binding up at call time (``from .solve import multistart`` in
``rsmopt.cli`` binds ``rsmopt.cli.multistart``, which is what gets
replaced). ``instrumented`` restores every attribute on exit.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NO_PARENT = -1


class Tracer:
    """Append-only span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.label = array("i")
        self.parent = array("i")
        self.group = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.value = array("d")
        self.ok = array("b")
        self._stack = [NO_PARENT]
        self.group_id = 0
        self.intern("")

    def intern(self, text: str) -> int:
        idx = self._ids.get(text)
        if idx is None:
            idx = self._ids[text] = len(self.names)
            self.names.append(text)
        return idx

    def open(self, name_id: int, label_id: int = 0) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.label.append(label_id)
        self.parent.append(self._stack[-1])
        self.group.append(self.group_id)
        self.end.append(0.0)
        self.count.append(0)
        self.value.append(math.nan)
        self.ok.append(1)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int, count: int = 0, value: float = math.nan,
              ok: bool = True) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        self.count[i] = count
        self.value[i] = value
        self.ok[i] = ok

    @contextmanager
    def span(self, name: str, label: str = ""):
        """Span around the benchmark's own call; the body may set
        ``record["count"]`` and ``record["value"]``."""
        record = {"count": 0, "value": math.nan}
        i = self.open(self.intern(name), self.intern(label))
        try:
            yield record
        except BaseException:
            self.close(i, ok=False)
            raise
        self.close(i, record["count"], record["value"])

    def wrap(self, name: str, fn, info=None, label=None):
        """Return ``fn`` wrapped in a span. ``info(args, out)`` gives
        (count, value, ok); ``label(args)`` names the method."""
        name_id = self.intern(name)

        def wrapped(*args, **kwargs):
            i = self.open(name_id, self.intern(label(args)) if label else 0)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(i, ok=False)
                raise
            if info is None:
                self.close(i)
            else:
                self.close(i, *info(args, out))
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "label": np.frombuffer(self.label, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "group": np.frombuffer(self.group, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "count": np.frombuffer(self.count, dtype=np.int64),
            "value": np.frombuffer(self.value, dtype=np.float64),
            "ok": np.frombuffer(self.ok, dtype=np.int8),
        }

    def save(self, path, **meta) -> None:
        """Write every span and the name table to one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays(),
                 **{k: np.array(v) for k, v in meta.items()})


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Calls are sequential within one thread, so children never overlap
    and the covered time is the sum of their durations.
    """
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


# --- what each boundary reports ----------------------------------------------

def solve_info(args, out):
    """A ``SolveResult``: evaluations used, f reached, converged."""
    return out.evaluations, out.f_star, out.converged


def optimize_info(args, out):
    return solve_info(args, out[0])


def points_info(args, out):
    """Number of points in a program call (a batch or one point)."""
    x = args[0]
    return (x.shape[0] if getattr(x, "ndim", 1) > 1 else 1), math.nan, True


def program_label(args):
    return args[0].descriptor


def method_label(args):
    return args[1].name


def traced_program(tracer: Tracer, program):
    """The same program with its objective and constraints wrapped."""
    return dataclasses.replace(
        program,
        objective=tracer.wrap("programs.objective", program.objective, points_info),
        eq_constraints=tuple(
            tracer.wrap("programs.constraint", c, points_info)
            for c in program.eq_constraints
        ),
    )


@contextmanager
def instrumented(tracer: Tracer, fine: bool):
    """Wrap rsmopt's module bindings for the duration of the block.

    Always: ``cli.optimize_method``, one span per method solve, which the
    end-to-end metrics need. With ``fine``: every boundary the per-layer
    metrics read, down to each basis evaluation and each objective and
    constraint call.
    """
    from rsmopt import cli, fit, programs, solve

    patches = [
        (cli, "optimize_method", tracer.wrap(
            "cli.optimize_method", cli.optimize_method, optimize_info, method_label)),
    ]
    if fine:
        real_multistart = cli.multistart

        def multistart(program, *args, **kwargs):
            return real_multistart(traced_program(tracer, program), *args, **kwargs)

        patches += [
            (cli, "multistart", tracer.wrap(
                "cli.multistart", multistart, solve_info, program_label)),
            (solve, "grid_search", tracer.wrap(
                "solve.grid_search", solve.grid_search, solve_info, program_label)),
            (fit, "evaluate_basis", tracer.wrap("fit.evaluate_basis", fit.evaluate_basis)),
            (programs, "predict", tracer.wrap("programs.predict", programs.predict)),
            (programs, "unit_variance", tracer.wrap(
                "programs.unit_variance", programs.unit_variance)),
            (solve, "nelder_mead", tracer.wrap(
                "solve.nelder_mead", solve.nelder_mead, solve_info)),
            (solve, "penalty_solve", tracer.wrap(
                "solve.penalty_solve", solve.penalty_solve, solve_info)),
        ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, new in patches:
            setattr(module, attr, new)
        yield
    finally:
        for module, attr, old in saved:
            setattr(module, attr, old)
