"""Span tracing of krauslab from outside the package.

``Tracer.installed()`` wraps, for the duration of a ``with`` block:

* every plain function listed in the ``__all__`` of each krauslab module,
  rebound in every krauslab namespace that imported it by name (so
  ``cli.gap_report`` and ``cuntz.gap_report`` both report as
  ``channel.gap_report``, and nested calls are caught);
* ``KrausFamily.__init__``, reported as ``channel.KrausFamily``;
* the dense factorization entry points of ``numpy.linalg``, reported as
  ``linalg.<name>`` together with the shape of their first argument.

Spans are recorded only while an op is open (``Tracer.op``) and kept in
memory as ``[name, start, end, parent, op]``; ``write`` dumps them as JSON
lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
import types

import numpy as np

import krauslab
from krauslab import (
    channel,
    cli,
    commuting,
    cuntz,
    ensembles,
    inequalities,
    opcore,
    schur,
    tracelab,
)

MODULES = (opcore, channel, ensembles, inequalities, tracelab, cuntz, commuting, schur, cli)
LINALG = ("svd", "eigh", "eigvals", "eigvalsh")

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def reported_spans() -> tuple:
    """Spans reported as per-layer metrics: the ``<span>.calls`` names of
    BENCHMARK.json's ``per_layer`` list, except the ``linalg.*`` ones.

    Every other wrapped function still opens a span, so it is subtracted
    from its caller's self time.
    """
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    return tuple(
        n[: -len(".calls")] for n in names if n.endswith(".calls") and not n.startswith("linalg.")
    )


def _short(module: types.ModuleType) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _mnk(a) -> int:
    """m * n * min(m, n) of the (possibly batched) matrix argument."""
    shape = np.shape(a)
    if len(shape) < 2:
        return 0
    m, n = shape[-2:]
    return int(np.prod(shape[:-2], dtype=np.int64)) * m * n * min(m, n)


class Tracer:
    """In-memory span recorder with reversible monkey-patching."""

    def __init__(self):
        self.spans = []
        self.linalg = []  # (mnk, largest dimension) of each factorization call
        self.op = None
        self._stack = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, linalg: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if linalg and args:
                tracer.linalg.append((_mnk(args[0]), max(np.shape(args[0])[-2:], default=0)))
            span = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    @contextlib.contextmanager
    def op_span(self, op: int):
        """Open the root span of op ``op``; library spans nest under it."""
        self.op = op
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)
            self.op = None

    @contextlib.contextmanager
    def installed(self):
        """Patch the package and numpy.linalg, restoring every binding on exit."""
        namespaces = [krauslab, *MODULES]
        patches = []
        for module in MODULES:
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{_short(module)}.{attr}", fn)
                for ns in namespaces:
                    if getattr(ns, attr, None) is fn:
                        patches.append((ns, attr, fn, wrapper))
        init = channel.KrausFamily.__init__
        patches.append((channel.KrausFamily, "__init__", init, self._wrap("channel.KrausFamily", init)))
        for attr in LINALG:
            fn = getattr(np.linalg, attr)
            patches.append((np.linalg, attr, fn, self._wrap(f"linalg.{attr}", fn, linalg=True)))
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, fn, _ in reversed(patches):
                setattr(owner, attr, fn)

    def layer_metrics(self) -> dict:
        """Per-op calls, seconds and self seconds of each reported span."""
        ops = {s[4] for s in self.spans if s[3] == -1}
        n_ops = max(len(ops), 1)
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        totals = {}
        for i, s in enumerate(self.spans):
            t = totals.setdefault(s[0], [0, 0.0, 0.0])
            t[0] += 1
            t[1] += s[2] - s[1]
            t[2] += s[2] - s[1] - child_time[i]
        out = {}
        for name in reported_spans():
            calls, total, self_s = totals.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = (calls / n_ops, "count")
            out[f"{name}.s"] = (total / n_ops, "s")
            out[f"{name}.self_s"] = (self_s / n_ops, "s")
        for attr in LINALG:
            calls, total, _ = totals.get(f"linalg.{attr}", (0, 0.0, 0.0))
            out[f"linalg.{attr}.calls"] = (calls / n_ops, "count")
            out[f"linalg.{attr}.s"] = (total / n_ops, "s")
        out["linalg.max_dim"] = (max((d for _, d in self.linalg), default=0), "count")
        out["linalg.mnk_computed"] = (sum(k for k, _ in self.linalg) / n_ops, "count")
        roots = [s for s in self.spans if s[3] == -1]
        op_time = sum(s[2] - s[1] for s in roots)
        covered = sum(child_time[i] for i, s in enumerate(self.spans) if s[3] == -1)
        out["trace.coverage"] = (covered / op_time if op_time else 0.0, "ratio")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
