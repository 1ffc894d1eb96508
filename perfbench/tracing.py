"""Span tracer that times handpass from outside, by wrapping its functions.

A span records the wrapped call's name, its start and end on the
monotonic clock (``time.perf_counter``, which is CLOCK_MONOTONIC on Linux
and so comparable between the load generator and the server process),
the span that was open in the same thread when it started, a request id
(set on the gate's server side) and an ``info`` value taken from the
call, such as the number of frames decoded.  Spans stay in memory and are
written out once, when the run ends.

A layer's self time is its span's duration minus the durations of its
child spans; children of one span never overlap because they run in the
span's own thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, RID, INFO, ID = range(7)


class Tracer:
    """Keeps spans in memory; patches callables so that each call makes one."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name, info=None, rid=None):
        """Return ``func`` wrapped so that every call records a span."""
        tracer = self
        local = self._local

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            if rid is not None:
                local.rid = rid(args)
            rec = [name, 0.0, 0.0, parent, getattr(local, "rid", None), None, next(tracer._ids)]
            tracer.spans.append(rec)
            stack.append(rec[ID])
            rec[START] = perf_counter()
            try:
                out = func(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if rid is not None:
                    local.rid = None
            if info is not None:
                rec[INFO] = info(args, out)
            return out

        return traced

    def patch(self, owner, attr, name, info=None, rid=None):
        """Replace ``owner.attr`` and every ``from ... import`` copy of it
        in the loaded handpass modules with one traced wrapper."""
        orig = getattr(owner, attr)
        wrapped = self.wrap(orig, name, info, rid)
        targets = [owner] + [
            mod for mod_name, mod in list(sys.modules.items())
            if mod_name.startswith("handpass") and mod is not owner
            and getattr(mod, attr, None) is orig
        ]
        for target in targets:
            setattr(target, attr, wrapped)
            self._patched.append((target, attr, orig))

    def unpatch(self):
        for target, attr, orig in reversed(self._patched):
            setattr(target, attr, orig)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports on."""
    from handpass import codec, dataset, dsp, gatekeeper
    from handpass.learners import base, forest, tree, validate

    tracer.patch(codec, "read_capture", "codec.read_capture",
                 info=lambda a, out: [len(out.frames), out.skipped_non_csi, out.bad_csi])
    tracer.patch(dataset, "build_rows", "dataset.build_rows")
    tracer.patch(dataset, "frame_to_features", "dsp.frame_to_features")
    tracer.patch(dsp, "to_cfr", "dsp.to_cfr")
    tracer.patch(dsp, "normalize_cfr", "dsp.normalize_cfr")
    tracer.patch(dsp, "sanitize_phase", "dsp.sanitize_phase")
    tracer.patch(dataset, "slice_dataset", "dataset.slice_dataset")
    tracer.patch(dataset, "write_csv", "dataset.write_csv")
    tracer.patch(dataset, "read_csv", "dataset.read_csv")
    tracer.patch(dsp, "fit_scaler", "dsp.fit_scaler")
    tracer.patch(dsp.FittedScaler, "transform", "dsp.transform")
    tracer.patch(validate, "cross_validate", "validate.cross_validate")
    tracer.patch(base, "train", "learners.train",
                 info=lambda a, out: out.kind)
    tracer.patch(base, "predict", "learners.predict",
                 info=lambda a, out: a[0].kind)
    tracer.patch(tree, "grow_tree", "tree.grow_tree",
                 info=lambda a, out: out.n_nodes)
    tracer.patch(forest.RandomForestModel, "scores", "forest.scores",
                 info=lambda a, out: out.shape[0])
    tracer.patch(gatekeeper, "enroll", "gatekeeper.enroll")
    tracer.patch(gatekeeper, "save_store", "persist.save_store")
    tracer.patch(gatekeeper, "load_store", "persist.load_store")
    tracer.patch(gatekeeper, "authenticate", "gatekeeper.authenticate")
    tracer.patch(gatekeeper._AuthHandler, "_one_request", "gate.request", rid=_request_id)


def _request_id(args) -> str:
    """'<client port>:<n>' for the n-th request on one connection; the
    client knows its own port, so it can match its round trips to these."""
    handler = args[0]
    handler._perfbench_seq = getattr(handler, "_perfbench_seq", -1) + 1
    return f"{handler.client_address[1]}:{handler._perfbench_seq}"


# --- reading spans back -----------------------------------------------------

class Spans:
    """Durations and self times of a list of spans, looked up by name."""

    def __init__(self, spans):
        self.spans = spans
        child = {}
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] = child.get(s[PARENT], 0.0) + (s[END] - s[START])
        self._child = child

    def named(self, name, info=None):
        return [s for s in self.spans if s[NAME] == name and (info is None or s[INFO] == info)]

    def dur(self, name, info=None) -> np.ndarray:
        return np.array([s[END] - s[START] for s in self.named(name, info)], dtype=np.float64)

    def self_time(self, span) -> float:
        return (span[END] - span[START]) - self._child.get(span[ID], 0.0)

    def self_times(self, name) -> np.ndarray:
        return np.array([self.self_time(s) for s in self.named(name)], dtype=np.float64)

    def total(self, name, info=None) -> float:
        return float(self.dur(name, info).sum())

    def info_sum(self, name) -> float:
        return float(sum(s[INFO] for s in self.named(name)))

    def self_by_name(self) -> dict:
        out: dict = {}
        for s in self.spans:
            out[s[NAME]] = out.get(s[NAME], 0.0) + self.self_time(s)
        return out


def median(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.median(values)) if values.size else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
