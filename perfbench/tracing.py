"""Span tracing around the package's public functions, from outside it.

``Tracer.install`` replaces each target function with a timing wrapper
in every ``qkmap`` module namespace that binds it (``kernels`` and
``pauli`` import ``feature_state`` and ``coefficients_at`` by name, so
patching only the defining module would miss their calls), and
``uninstall`` puts the originals back.  A target that does not exist is
skipped: its metrics are then absent.

A span is ``(id, parent id, command id, name, start, end, tag)``; the
command id is the id of the enclosing ``cli.main`` span.  Spans are kept
in memory and written out by ``write``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import time
from collections import defaultdict

# (module, attribute); "Class.method" patches the method on the class.
TARGETS = (
    ("cli", "main"),
    ("datasets", "from_csv"),
    ("encodings", "eval_encoding"),
    ("encodings", "feature_state"),
    ("states", "apply_hadamard_all"),
    ("states", "apply_diagonal_phase"),
    ("states", "sample_measurement"),
    ("pauli", "decompose"),
    ("pauli", "coefficients_at"),
    ("pauli", "coefficient_grids"),
    ("pauli", "grid_to_csv"),
    ("pauli", "grid_to_pgm"),
    ("screening", "minimum_accuracy"),
    ("screening", "axis_accuracy"),
    ("kernels", "gram"),
    ("kernels", "kernel_shots"),
    ("kernels", "pair_seed"),
    ("kernels", "GramMatrix.to_csv"),
    ("svm", "_clamp_psd"),
    ("svm", "train"),
    ("svm", "cross_validate"),
    ("svm", "accuracy"),
    ("svm", "SvmModel.to_text"),
)
WRITERS = {"pauli.grid_to_csv", "pauli.grid_to_pgm", "kernels.GramMatrix.to_csv"}


class Tracer:
    def __init__(self, package: str = "qkmap"):
        self.package = package
        self.spans = []
        self.solves = []  # (train arguments, model, clamped) per svm.train call
        self.warnings = []  # the running command's captured warnings
        self.missing = []
        self._stack = []
        self._cmd = None
        self._ids = itertools.count(1)
        self._patched = []

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == self.package
                                           or name.startswith(self.package + "."))}
        for mod_name, attr in TARGETS:
            owner = modules.get(f"{self.package}.{mod_name}")
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, meth, None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            if cls_name:
                self._bind(owner, meth, original, wrapper)
                continue
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, name, original, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _bind(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def _wrap(self, name, fn):
        hook = {"kernels.gram": _gram_tag, "svm.train": self._train_hook}.get(name)
        if name in WRITERS:
            hook = _written_bytes
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        signature = _signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            if parent is None:
                self._cmd = sid
            cmd = self._cmd
            warned = len(self.warnings)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            tag = None
            if hook is not None:
                tag = hook(signature, args, kwargs, result, warned)
            spans.append((sid, parent, cmd, name, start, end, tag))
            return result

        return traced

    def _train_hook(self, signature, args, kwargs, result, warned):
        clamped = any("clamp" in str(w.message) for w in self.warnings[warned:])
        bound = _bind_args(signature, args, kwargs)
        if bound is not None:
            self.solves.append((bound, result, clamped))
        return clamped

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tcommand\tname\tstart\tend\ttag\n")
            for sid, parent, cmd, name, start, end, tag in self.spans:
                fh.write(f"{sid}\t{parent or ''}\t{cmd}\t{name}\t{start!r}\t{end!r}\t"
                         f"{'' if tag is None else tag}\n")


def _signature(fn):
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


def _bind_args(signature, args, kwargs):
    if signature is None:
        return None
    try:
        bound = signature.bind(*args, **kwargs)
    except TypeError:
        return None
    bound.apply_defaults()
    return bound.arguments


def _gram_tag(signature, args, kwargs, result, warned):
    """Route and size of a built Gram, read from the result."""
    return f"{getattr(result, 'method', 'unknown')}:{getattr(result, 'size', 0)}"


def _written_bytes(signature, args, kwargs, result, warned):
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
            return os.path.getsize(value)
    return 0


def layer_metrics(spans, train_commands: set, passes: int) -> dict:
    """Per-layer metrics, per traced pass, from the recorded spans.

    Times are inclusive unless named ``self``; a metric whose function
    never ran is absent.  ``train_commands`` holds the command ids of
    ``train`` invocations.
    """
    calls, total, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
    child = defaultdict(float)  # (parent id, child name) -> seconds
    for sid, parent, cmd, name, start, end, tag in spans:
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start
        if parent is not None:
            child[(parent, name)] += end - start
    by_id = {sid: name for sid, _, _, name, _, _, _ in spans}
    for (parent, _), seconds in child.items():
        self_time[by_id[parent]] -= seconds

    out = {}

    def put(metric, value, unit):
        out[metric] = {"value": value / passes, "unit": unit}

    def timed(prefix, name, count=None):
        if calls[name]:
            if count:
                put(f"{prefix}_calls" if count is True else count, calls[name], "count")
            put(f"{prefix}_ms", 1e3 * total[name], "ms")

    if calls["cli.main"]:
        put("cli.commands", calls["cli.main"], "count")
        put("cli.self_ms", 1e3 * self_time["cli.main"], "ms")
    timed("datasets.from_csv", "datasets.from_csv", True)
    if calls["encodings.eval_encoding"]:
        put("encodings.eval_calls", calls["encodings.eval_encoding"], "count")
    timed("encodings.feature_state", "encodings.feature_state", True)
    gates = ("states.apply_hadamard_all", "states.apply_diagonal_phase")
    if any(calls[g] for g in gates):
        put("states.gate_calls", sum(calls[g] for g in gates), "count")
        put("states.gate_ms", 1e3 * sum(total[g] for g in gates), "ms")
    timed("states.sample", "states.sample_measurement", True)
    timed("pauli.decompose", "pauli.decompose", True)
    timed("pauli.grids", "pauli.coefficient_grids")
    timed("pauli.coefficients_at", "pauli.coefficients_at", True)
    timed("screening.minimum_accuracy", "screening.minimum_accuracy")
    timed("screening.axis_accuracy", "screening.axis_accuracy", "screening.axis_calls")
    timed("kernels.kernel_shots", "kernels.kernel_shots", "kernels.shot_pairs")
    timed("kernels.pair_seed", "kernels.pair_seed")
    timed("svm.psd_check", "svm._clamp_psd", "svm.psd_checks")
    timed("svm.cv", "svm.cross_validate")
    timed("svm.accuracy", "svm.accuracy")
    timed("svm.to_text", "svm.SvmModel.to_text")
    timed("kernels.gram_write", "kernels.GramMatrix.to_csv")

    grid_writers = [s for s in spans if s[3] in ("pauli.grid_to_csv", "pauli.grid_to_pgm")]
    if grid_writers:
        put("pauli.grid_write_ms", 1e3 * sum(s[5] - s[4] for s in grid_writers), "ms")
        put("pauli.grid_write_bytes", sum(s[6] for s in grid_writers), "bytes")
    if calls["kernels.GramMatrix.to_csv"]:
        put("kernels.gram_write_bytes",
            sum(s[6] for s in spans if s[3] == "kernels.GramMatrix.to_csv"), "bytes")

    grams = [s for s in spans if s[3] == "kernels.gram"]
    if grams:
        by_route = defaultdict(float)
        entries = 0
        for _, _, _, _, start, end, tag in grams:
            route, _, size = tag.partition(":")
            by_route[route] += end - start
            entries += int(size) ** 2
        for route, seconds in sorted(by_route.items()):
            put(f"kernels.gram_{route}_ms", 1e3 * seconds, "ms")
        put("kernels.gram_entries", entries, "count")
        put("kernels.gram_builds", len(grams), "count")
        if train_commands:
            in_train = sum(1 for s in grams if s[2] in train_commands)
            out["kernels.gram_builds_per_train"] = {
                "value": in_train / len(train_commands), "unit": "count"}

    trains = [s for s in spans if s[3] == "svm.train"]
    if trains:
        put("svm.train_calls", len(trains), "count")
        put("svm.train_ms", 1e3 * total["svm.train"], "ms")
        psd = sum(child[(s[0], "svm._clamp_psd")] for s in trains)
        put("svm.smo_ms", 1e3 * (total["svm.train"] - psd), "ms")
        clamped = sum(1 for s in trains if s[6])
        put("svm.psd_clamped", clamped, "count")
        checks = calls["svm._clamp_psd"] or len(trains)
        out["svm.psd_clamp_ratio"] = {"value": clamped / checks, "unit": "ratio"}
    return out
