"""Per-layer tracing of the package from outside it.

Spans are recorded by replacing, for the duration of a traced pass, the
module attributes that ``fedopt.run`` and ``cli.cmd_sweep`` look up at
call time, and by wrapping each problem's callables with
``dataclasses.replace``. No file of the package changes. A name that a
later refactor removed is recorded as absent and left alone.

Spans nest through one stack: a span's self time is its duration minus
the time of the spans it encloses, so the self times of all spans add up
to the time spent inside the outermost spans.
"""

from __future__ import annotations

import builtins
import contextlib
import dataclasses
import inspect
import math
import time

import numpy as np

from fedminimax import cli, fedopt, problems

# (module, attribute, span name): the attributes fedopt.run reaches at call time
ENGINE_TARGETS = (
    (fedopt, "derive_stream", "noise.derive_stream"),
    (problems, "sample", "noise.sample"),
    (fedopt, "client_round", "fedopt.client_round"),
    (fedopt, "server_round", "fedopt.server_round"),
    (fedopt, "local_momentum", "fedopt.step"),
    (fedopt, "normalized_step", "fedopt.step"),
    (fedopt, "muon_step", "fedopt.step"),
    (fedopt, "clip_step", "fedopt.step"),
    (fedopt, "newton_schulz_polar", "linalg.polar"),
    (fedopt, "svd_polar", "linalg.polar"),
    (fedopt, "phi_value_and_grad", "metrics.phi_value_and_grad"),
)
# the attributes cli.main / cli.cmd_sweep reach at call time
CLI_TARGETS = (
    (cli, "parse_config", "cli.parse_config"),
    (cli, "build_problem", "cli.build_problem"),
    (cli, "run", "fedopt.run"),
)
# problem field -> span name; fields a problem lacks are skipped
PROBLEM_FIELDS = {
    "grad_x": "problems.oracle",
    "grad_y": "problems.oracle",
    "stoch_grad": "problems.stoch_grad",
    "f_value": "problems.f_value",
    "y_star": "problems.exact",
    "phi_grad": "problems.exact",
    "auc_eval": "metrics.auc_eval",
}
WRITE_MODES = set("wax")


def polar_cost(M, iters: int | None) -> tuple:
    """(single-column matrices, flops, bytes) of one polar call.

    Counts only the matrix products, from the input shape and the sweep
    count: a Newton-Schulz sweep on an m-by-n input (m >= n) does X^T X,
    four n-by-n Horner products and X P, i.e. 4mn^2 + 8n^3 flops and
    8(4mn + 14n^2) bytes of operands and results. ``iters=None`` is the
    exact route: a thin SVD (about 4mn^2 + 22n^3) plus U V^T.
    """
    shape = np.shape(M)
    rows, cols = (shape[0], 1) if len(shape) == 1 else shape[-2:]
    batch = math.prod(shape[:-2])
    m, n = max(rows, cols), min(rows, cols)
    if iters is None:
        flops, nbytes = 6 * m * n * n + 22 * n ** 3, 8 * (3 * m * n + n * n)
    else:
        flops, nbytes = iters * (4 * m * n * n + 8 * n ** 3), iters * 8 * (4 * m * n + 14 * n * n)
    return batch * (cols == 1), batch * flops, batch * nbytes


class Tracer:
    """Span statistics kept in memory: name -> [calls, inclusive s, self s]."""

    def __init__(self):
        self.spans: dict = {}
        self.counters: dict = {}
        self.absent: list = []
        self._stack = [0.0]  # time covered by child spans, one slot per open span

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, observe=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child

        return traced

    def wrap_problem(self, problem):
        names = {f.name for f in dataclasses.fields(problem)}
        wrapped = {field: self.wrap(span, getattr(problem, field))
                   for field, span in PROBLEM_FIELDS.items()
                   if field in names and getattr(problem, field) is not None}
        return dataclasses.replace(problem, **wrapped)

    def _polar_observer(self, fn):
        params = inspect.signature(fn).parameters
        default = params["iters"].default if "iters" in params else None

        def observe(args, kwargs):
            M = args[0] if args else next(iter(kwargs.values()))
            iters = None if default is None else (args[1] if len(args) > 1
                                                  else kwargs.get("iters", default))
            vectors, flops, nbytes = polar_cost(M, iters)
            self.count("linalg.polar.vector_calls", vectors)
            self.count("linalg.polar.flops", flops)
            self.count("linalg.polar.bytes", nbytes)

        return observe

    def _replacements(self):
        for module, attr, span in ENGINE_TARGETS + CLI_TARGETS:
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module.__name__}.{attr}")
                continue
            observe = self._polar_observer(fn) if span == "linalg.polar" else None
            traced = self.wrap(span, fn, observe)
            if attr == "build_problem":
                traced = self._traced_builder(traced)
            yield module, attr, traced
        # cli writes its result files through the builtin open; a module
        # global of that name shadows it for code in cli only
        yield cli, "open", self._traced_open()

    def _traced_builder(self, build):
        def traced_build(*args, **kwargs):
            return self.wrap_problem(build(*args, **kwargs))
        return traced_build

    def _traced_open(self):
        opener = self.wrap("cli.write", builtins.open)

        def traced_open(file, mode="r", *args, **kwargs):
            if not WRITE_MODES & set(mode):
                return builtins.open(file, mode, *args, **kwargs)
            return _TracedFile(opener(file, mode, *args, **kwargs), self)

        return traced_open

    @contextlib.contextmanager
    def patched(self):
        """Install every replacement; restore the originals on exit."""
        self.absent = []
        saved = []
        try:
            for module, attr, traced in self._replacements():
                saved.append((module, attr, module.__dict__.get(attr, _MISSING)))
                setattr(module, attr, traced)
            yield self
        finally:
            for module, attr, old in reversed(saved):
                if old is _MISSING:
                    delattr(module, attr)
                else:
                    setattr(module, attr, old)


_MISSING = object()


class _TracedFile:
    """File proxy whose writes and close are ``cli.write`` spans."""

    def __init__(self, fh, tracer: Tracer):
        self._fh = fh
        self._tracer = tracer
        self.write = tracer.wrap("cli.write", self._write)
        self.close = tracer.wrap("cli.write", fh.close)

    def _write(self, data):
        self._tracer.count("cli.write.bytes", len(data.encode() if isinstance(data, str) else data))
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __getattr__(self, name):
        return getattr(self._fh, name)


# per-layer metric -> unit; every name is reported on every workload
PER_LAYER_UNITS = {
    "noise.derive_stream.calls": "count/round",
    "noise.derive_stream.us": "us/call",
    "noise.sample.calls": "count/round",
    "noise.sample.us": "us/call",
    "noise.share": "fraction",
    "fedopt.client_round.calls": "count/round",
    "fedopt.client_round.self_us": "us/call",
    "fedopt.client_round.share": "fraction",
    "fedopt.step.calls": "count/round",
    "fedopt.step.us": "us/call",
    "fedopt.step.share": "fraction",
    "fedopt.server_round.us": "us/call",
    "fedopt.server_round.share": "fraction",
    "fedopt.run.self_share": "fraction",
    "linalg.polar.calls": "count/round",
    "linalg.polar.us": "us/call",
    "linalg.polar.share": "fraction",
    "linalg.polar.vector_calls": "count/round",
    "linalg.polar.flops": "flop/round",
    "linalg.polar.bytes": "B/round",
    "problems.stoch_grad.calls": "count/round",
    "problems.stoch_grad.us": "us/call",
    "problems.oracle.calls": "count/round",
    "problems.f_value.calls": "count/round",
    "problems.f_value.us": "us/call",
    "problems.share": "fraction",
    "metrics.phi_value_and_grad.us": "us/call",
    "metrics.auc_eval.us": "us/call",
    "metrics.verify_invariants.ms": "ms/call",
    "metrics.share": "fraction",
    "cli.parse_config.ms": "ms/call",
    "cli.build_problem.calls": "count/sweep",
    "cli.build_problem.ms": "ms/call",
    "cli.write.ms": "ms/sweep",
    "cli.write.bytes": "B/sweep",
    "cli.share": "fraction",
    "trace.accounted": "fraction",
    "trace.absent": "count",
    "trace.overhead": "ratio",
}

# layer -> span names whose self time is that layer's share of the traced wall time
SHARES = {
    "noise.share": ("noise.derive_stream", "noise.sample"),
    "fedopt.client_round.share": ("fedopt.client_round",),
    "fedopt.step.share": ("fedopt.step",),
    "fedopt.server_round.share": ("fedopt.server_round",),
    "fedopt.run.self_share": ("fedopt.run",),
    "linalg.polar.share": ("linalg.polar",),
    "problems.share": ("problems.stoch_grad", "problems.oracle", "problems.f_value",
                       "problems.exact"),
    "metrics.share": ("metrics.phi_value_and_grad", "metrics.auc_eval"),
    "cli.share": ("cli.main", "cli.parse_config", "cli.build_problem", "cli.write"),
}


def layer_metrics(tracer: Tracer, rounds: int, passes: int, wall_s: float,
                  verify_ms: float, overhead: float) -> dict:
    """Per-layer metrics of the traced passes, keyed as in PER_LAYER_UNITS.

    ``rounds``, ``passes`` and ``wall_s`` cover the traced passes only; the
    ``cli.*`` figures are per pass, which is one sweep on the CLI workload
    (elsewhere no ``cli`` span runs and they are 0).
    ``verify_ms`` is the mean time of the correctness gate's
    ``verify_invariants`` call, which runs outside the timed passes.
    """
    def calls(span):
        return tracer.spans.get(span, [0, 0.0, 0.0])[0]

    def per_call(span, scale):
        n, incl, _ = tracer.spans.get(span, [0, 0.0, 0.0])
        return incl * scale / n if n else 0.0

    def self_s(span):
        return tracer.spans.get(span, [0, 0.0, 0.0])[2]

    def per_sweep(total):
        return total / passes

    out = {
        "noise.derive_stream.calls": calls("noise.derive_stream") / rounds,
        "noise.derive_stream.us": per_call("noise.derive_stream", 1e6),
        "noise.sample.calls": calls("noise.sample") / rounds,
        "noise.sample.us": per_call("noise.sample", 1e6),
        "fedopt.client_round.calls": calls("fedopt.client_round") / rounds,
        "fedopt.client_round.self_us": (self_s("fedopt.client_round") * 1e6
                                        / max(calls("fedopt.client_round"), 1)),
        "fedopt.step.calls": calls("fedopt.step") / rounds,
        "fedopt.step.us": per_call("fedopt.step", 1e6),
        "fedopt.server_round.us": per_call("fedopt.server_round", 1e6),
        "linalg.polar.calls": calls("linalg.polar") / rounds,
        "linalg.polar.us": per_call("linalg.polar", 1e6),
        "linalg.polar.vector_calls": tracer.counters.get("linalg.polar.vector_calls", 0.0) / rounds,
        "linalg.polar.flops": tracer.counters.get("linalg.polar.flops", 0.0) / rounds,
        "linalg.polar.bytes": tracer.counters.get("linalg.polar.bytes", 0.0) / rounds,
        "problems.stoch_grad.calls": calls("problems.stoch_grad") / rounds,
        "problems.stoch_grad.us": per_call("problems.stoch_grad", 1e6),
        "problems.oracle.calls": calls("problems.oracle") / rounds,
        "problems.f_value.calls": calls("problems.f_value") / rounds,
        "problems.f_value.us": per_call("problems.f_value", 1e6),
        "metrics.phi_value_and_grad.us": per_call("metrics.phi_value_and_grad", 1e6),
        "metrics.auc_eval.us": per_call("metrics.auc_eval", 1e6),
        "metrics.verify_invariants.ms": verify_ms,
        "cli.parse_config.ms": per_call("cli.parse_config", 1e3),
        "cli.build_problem.calls": per_sweep(calls("cli.build_problem")),
        "cli.build_problem.ms": per_call("cli.build_problem", 1e3),
        "cli.write.ms": per_sweep(tracer.spans.get("cli.write", [0, 0.0])[1] * 1e3),
        "cli.write.bytes": per_sweep(tracer.counters.get("cli.write.bytes", 0.0)),
        "trace.absent": len(tracer.absent),
        "trace.overhead": overhead,
    }
    for name, spans in SHARES.items():
        out[name] = sum(self_s(s) for s in spans) / wall_s
    out["trace.accounted"] = sum(s[2] for s in tracer.spans.values()) / wall_s
    return out
