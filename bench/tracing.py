"""Spans around calls into the program's public functions.

The traced run replaces every binding of each function in ``TRACED`` (the
defining module's attribute, every other module that imported it by name,
or the class attribute of a method) with a wrapper that records a span:
name, start, end and parent.  Spans are kept in flat arrays in memory and
written out when the run ends.  A span's self time is its duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
import types
from array import array

# module -> functions and methods whose calls are timed
TRACED = {
    "arrangement": ("validate", "classical_realize", "check_realization", "Signing.sign"),
    "intersection": ("build", "trace_faces", "check_coverage"),
    "planarity": ("test_planarity", "verify_embedding", "verify_witness"),
    "realization": ("synthesize", "extract_minor_embedding", "transfer",
                    "verify_realization", "QuantumRealization.operator"),
    "certificate": ("generate_trace", "check_trace"),
    "pauli": ("product_of", "commutes", "state_action", "PauliOperator.transpose"),
    "game": ("exact_win_probability", "exact_query_win_probability", "monte_carlo",
             "referee_draw", "play_quantum", "measure", "play_classical",
             "ClassicalStrategy.alice_color", "ClassicalStrategy.bob_coloring"),
    "cli": ("run",),
}

COUNTS = ("certificate.steps", "planarity.witness_edges", "cli.output_bytes")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._open: list[int] = []      # span ids of the calls in progress
        self._child: list[float] = []   # time covered by their children so far

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(sid)
        self._child.append(0.0)
        self.span_start.append(time.perf_counter())
        return sid

    def _end(self, nid: int, sid: int) -> None:
        end = time.perf_counter()
        self._open.pop()
        duration = end - self.span_start[sid]
        covered = self._child.pop()
        if self._child:
            self._child[-1] += duration
        self.span_end[sid] = end
        self.self_s[nid] += duration - covered
        self.calls[nid] += 1

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped so that every call records one span under ``name``."""
        nid = self._name_id(name)
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(nid, sid)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def section(self, name: str):
        """One span around a benchmark section; its name starts with 'bench.'."""
        nid = self._name_id(name)
        sid = self._begin(nid)
        try:
            yield
        finally:
            self._end(nid, sid)

    def install(self, package: types.ModuleType, modules: dict[str, types.ModuleType]) -> None:
        """Wrap every binding of every traced function across the package."""
        hooks = {
            "certificate.generate_trace": self._count_steps,
            "planarity.test_planarity": self._count_witness_edges,
        }
        namespaces = [package, *modules.values()]
        for module_name, functions in TRACED.items():
            module = modules[module_name]
            for qualname in functions:
                name = f"{module_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, attr, self.span(name, getattr(cls, attr)))
                    continue
                original = getattr(module, qualname)
                wrapped = self.span(name, original, hooks.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapped)

    def _count_steps(self, trace) -> None:
        self.counts["certificate.steps"] += len(trace.steps)

    def _count_witness_edges(self, result) -> None:
        if result.witness is not None:
            self.counts["planarity.witness_edges"] += sum(
                len(path) for _, path in result.witness.paths)

    def metrics(self) -> dict[str, dict]:
        out = {}
        for nid, name in enumerate(self.names):
            if name.startswith("bench."):
                continue
            out[f"{name}.self_s"] = {"value": self.self_s[nid], "unit": "s"}
            out[f"{name}.calls"] = {"value": self.calls[nid], "unit": "count"}
        for name, value in self.counts.items():
            out[name] = {"value": value, "unit": "count"}
        return out

    def write(self, path, extra: dict) -> None:
        """Gzipped JSON; spans as parallel columns, times in microseconds."""
        t0 = self.span_start[0] if self.span_start else 0.0
        payload = {
            **extra,
            "names": self.names,
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start_us": [round((t - t0) * 1e6) for t in self.span_start],
                "end_us": [round((t - t0) * 1e6) for t in self.span_end],
            },
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
