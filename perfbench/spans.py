"""Spans around calls into ledplab's public functions, from outside the program.

`Tracer.install` replaces each target function or method with a wrapper
that records a span (metric name, parent span, start, end) in memory;
`uninstall` puts the originals back. A span's self time is its duration
minus the time its child spans cover; spans nest strictly because every
workload runs in one thread. A target that a later change removes or
renames is listed as absent and its metrics read 0; it never stops the run.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _slots(args, kwargs, result):
    # answer_outer_batch(self, a_signs, ...): three bit-vector slots per query
    a_signs = args[1] if len(args) > 1 else kwargs["a_signs"]
    return 3 * len(np.atleast_2d(a_signs))


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# (metric, module, attribute path, counter metric and its hook, track RSS)
TARGETS = [
    ("rng.generator", "ledplab.rng", "Streams.generator", None, False),
    ("ledp.release", "ledplab.ledp", "RandomizedResponse.release", None, False),
    ("ledp.release", "ledplab.ledp", "IdentityRelease.release", None, False),
    ("ledp.ledger", "ledplab.ledp", "Transcript.ledger", None, False),
    ("ledp.ledger", "ledplab.ledp", "Transcript.per_bit_ledger", None, False),
    ("estimator.sample_estimates_range", "ledplab.estimator", "sample_estimates_range", None, True),
    ("estimator.exact_variance", "ledplab.estimator", "exact_variance", None, False),
    ("graphs.count_triangles", "ledplab.graphs", "count_triangles", None, False),
    ("attack.prepare", "ledplab.attack", "GrayBox.prepare", None, False),
    ("attack.queries", "ledplab.attack", "sample_query_signs", None, False),
    ("attack.answer", "ledplab.attack", "GrayBox.answer_outer_batch",
     ("attack.answer.slots", _slots), True),
    ("attack.reconstruct", "ledplab.attack", "attacker_reconstruct", None, True),
    ("gadget.sample_sum_baseline", "ledplab.gadget", "sample_sum_baseline", None, False),
    ("gadget.sample_sum_via_triangles", "ledplab.gadget", "sample_sum_via_triangles", None, False),
    ("anticoncentration.tail_row", "ledplab.anticoncentration", "tail_row", None, False),
    ("parallel.parallel_map", "ledplab.parallel", "parallel_map", None, False),
    ("cli.write_json", "ledplab.cli", "write_json", ("cli.output_bytes", _file_bytes), False),
    ("cli.write_csv", "ledplab.cli", "write_csv", ("cli.output_bytes", _file_bytes), False),
]

# Per-layer metrics, (name, unit), in the order BENCHMARK.json lists them.
PER_LAYER = [
    (m["name"], m["unit"])
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
]

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb() -> float:
    """Current resident size; 0 where /proc is not available."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_MB
    except OSError:
        return 0.0


class _RssSampler:
    """Highest resident size seen during the tracked calls in progress."""

    interval_s = 0.001

    def __init__(self):
        self.peak_mb = 0.0
        self.active = 0  # tracked calls in progress
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = False
        self._thread = threading.Thread(target=self._poll, name="rss-sampler", daemon=True)
        self._thread.start()

    def _poll(self) -> None:
        while True:
            self._wake.wait()
            if self._stop:
                return
            with self._lock:  # read inside the lock, so no reading predates a reset
                self.peak_mb = max(self.peak_mb, _rss_mb())
            time.sleep(self.interval_s)

    def enter(self) -> float:
        """Start polling for one call; returns the peak seen so far."""
        rss = _rss_mb()
        with self._lock:
            outer, self.peak_mb = self.peak_mb, rss
        self.active += 1
        self._wake.set()
        return outer

    def exit(self, outer: float) -> float:
        """Stop polling for one call; returns that call's peak."""
        self.active -= 1
        if not self.active:
            self._wake.clear()
        rss = _rss_mb()
        with self._lock:
            peak = max(self.peak_mb, rss)
            self.peak_mb = max(outer, peak)
        return peak

    def close(self) -> None:
        self._stop = True
        self._wake.set()
        self._thread.join()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[list] = []  # [span index, time covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.rss_rise_mb = defaultdict(float)
        self.absent: list[str] = []
        self._restore: list[tuple] = []
        self._sampler = None

    # -- installing wrappers -------------------------------------------

    def install(self) -> None:
        self._sampler = _RssSampler()
        for metric, module_name, path, counter, track_rss in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner, attr = module, path
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(metric, raw.__func__, counter, track_rss))
            else:
                wrapped = self._wrap(metric, raw, counter, track_rss)
            # rebind every module-level alias (from-imports) as well as the owner
            holders = [owner] if owner is not module else [
                m for name, m in list(sys.modules.items())
                if name.startswith("ledplab") and m is not None and m.__dict__.get(attr) is raw
            ]
            for holder in holders:
                self._restore.append((holder, attr, raw))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, raw in reversed(self._restore):
            setattr(holder, attr, raw)
        self._restore.clear()
        if self._sampler is not None:
            self._sampler.close()
            self._sampler = None

    def _wrap(self, metric, fn, counter, track_rss):
        if metric not in self.names:
            self.names.append(metric)
        mid = self.names.index(metric)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            idx = len(self.start)
            self.name_id.append(mid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            if track_rss:
                rss_before = _rss_mb()
                outer_peak = self._sampler.enter()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.calls[metric] += 1
                self.self_s[metric] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if track_rss:
                rise = self._sampler.exit(outer_peak) - rss_before
                self.rss_rise_mb[metric] = max(self.rss_rise_mb[metric], rise)
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    # -- results -------------------------------------------------------

    def totals(self) -> dict:
        """A copy of the call counts, self times and counters so far."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counters": dict(self.counters)}

    def per_layer(self, totals: dict, rounds: int, overhead_s: float) -> dict:
        """Per-layer metrics: counts and times per round, from `totals`;
        rss_rise_mb over every call traced."""
        calls, self_s, counters = (defaultdict(float, totals[key]) for key in ("calls", "self_s", "counters"))
        out = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = overhead_s
            elif name == "attack.answer.us_per_slot":
                slots = counters["attack.answer.slots"]
                value = 1e6 * self_s["attack.answer"] / slots if slots else 0.0
            elif name.endswith(".calls"):
                value = calls[name[: -len(".calls")]] / rounds
            elif name.endswith(".self_s"):
                value = self_s[name[: -len(".self_s")]] / rounds
            elif name.endswith(".rss_rise_mb"):
                value = self.rss_rise_mb[name[: -len(".rss_rise_mb")]]
            else:
                value = counters[name] / rounds
            out[name] = {"value": value, "unit": unit}
        return out

    def save(self, path) -> None:
        """Write every span, as columns, to an .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            absent=np.array(self.absent, dtype=str),
        )
