"""Span tracing of the mrsk layers, installed from outside the package.

``Tracer.install`` wraps every public function defined in each layer
module and rebinds the wrapper in every ``mrsk`` module namespace that
binds the original: ``from .x import f`` copies the binding, so
``mrsk.cli.run_link`` and ``mrsk.simulate.run_link`` are patched alike,
and ``_simulate_frame`` resolves the wrapped ``cir``.  Spans (name,
start, end, parent) stay in memory until ``write_spans``.  A few wrappers
also read counters off the arguments and results they see.

The tracer keeps one call stack, so it is only valid in a single thread
and process: the traced run forces ``--workers 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "simulate", "modem", "channel", "analysis", "ratio_stats", "baselines")
# private, but it is where frames are counted
EXTRA = (("simulate", "_simulate_frame"),)

RUN_LINK_KINDS = {
    ("statistical", "ftd"): "stat_ftd",
    ("binomial", "ftd"): "binom_ftd",
    ("statistical", "admc"): "stat_admc",
    ("statistical", "mlsd"): "stat_mlsd",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans and counters for the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[tuple[int, str]] = []
        self._patches: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run_link_spans: list[tuple[int, str, int]] = []  # (span, kind, bits)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mrsk.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for layer, name in EXTRA:
            obj = getattr(importlib.import_module(f"mrsk.{layer}"), name, None)
            if inspect.isfunction(obj):
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "mrsk" and not modname.startswith("mrsk."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        func = name.split(".", 1)[1]
        before = getattr(self, "_before_" + func, None)
        after = getattr(self, "_after_" + func, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            sid = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            self._stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent)
            if after is not None:
                after(sid, args, kwargs, result, pre)
            return result

        return wrapper

    # -- counters read off arguments and results ----------------------------

    def _in_link(self) -> bool:
        return any(name == "simulate.run_link" for _, name in self._stack)

    def _before_particle_step(self, args, kwargs):
        return _arg(args, kwargs, 0, "state").alive

    def _after_particle_step(self, sid, args, kwargs, state, alive_before):
        c = self.counters
        c["particle_step.molecule_steps"] += alive_before
        # population and useful work of the link's bursts; a single burst's
        # peak is its release size by construction
        if self._in_link():
            c["particle.absorbed"] += alive_before - state.alive
            c["particle.peak_alive"] = max(c["particle.peak_alive"], alive_before)

    def _before_release_molecules(self, args, kwargs):
        return _arg(args, kwargs, 0, "state").alive

    def _after_release_molecules(self, sid, args, kwargs, result, alive_before):
        if self._in_link():
            state = _arg(args, kwargs, 0, "state")
            self.counters["particle.released"] += state.alive - alive_before

    def _after_run_link(self, sid, args, kwargs, est, pre):
        config = _arg(args, kwargs, 0, "mrsk")
        sim = _arg(args, kwargs, 2, "sim")
        if sim.engine == "particle":
            kind = "particle"
        else:
            kind = RUN_LINK_KINDS.get((sim.engine, config.detector), "other")
        self.run_link_spans.append((sid, kind, est.bits))
        self.counters["run_link.bits"] += est.bits
        self.counters["run_link.errors"] += est.errors
        self.counters["run_link.degenerate_frames"] += est.degenerate_frames

    def _after_ftd_ber(self, sid, args, kwargs, result, pre):
        config = _arg(args, kwargs, 0, "config")
        channel = _arg(args, kwargs, 1, "channel")
        self.counters["ftd_ber.sequences"] += config.symbol_count**channel.L

    def _after_encode_bits_to_indices(self, sid, args, kwargs, result, pre):
        self.counters["encode_bits_to_indices.bits"] += len(_arg(args, kwargs, 0, "bits"))

    def _after_sample_ratio(self, sid, args, kwargs, result, pre):
        self.counters["sample_ratio.redraws"] += result.redraws

    def _after_rtsk_error_counts(self, sid, args, kwargs, result, pre):
        self.counters["rtsk_error_counts.symbols"] += result[1]

    def _after_write_csv(self, sid, args, kwargs, result, pre):
        self.counters["write_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    # -- results -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent]) + "\n")

    def per_layer(self) -> dict[str, float]:
        """The per-layer metrics, keyed by the names in BENCHMARK.json."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        module_own: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, parent) in enumerate(self.spans):
            func = name.split(".", 1)[1]
            calls[func] += 1
            total[func] += end - start
            own[func] += end - start - child[sid]
            module_own[name.split(".", 1)[0]] += end - start - child[sid]
        c = self.counters

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        m = {f"module.{layer}.self_s": module_own[layer] for layer in LAYERS}
        m["run_link.calls"] = calls["run_link"]
        m["run_link.self_s"] = own["run_link"]
        for kind in ("stat_ftd", "binom_ftd", "stat_admc", "stat_mlsd", "particle"):
            chosen = [(sid, bits) for sid, k, bits in self.run_link_spans if k == kind]
            secs = sum(self.spans[sid][2] - self.spans[sid][1] for sid, _ in chosen)
            m[f"run_link.{kind}.ns_per_bit"] = per(secs, sum(b for _, b in chosen), 1e9)
        m["run_link.frames"] = calls["_simulate_frame"]
        m["run_link.degenerate_frames"] = c["run_link.degenerate_frames"]
        m["sweep.s"] = total["sweep"]
        m["particle_step.calls"] = calls["particle_step"]
        m["particle_step.s"] = total["particle_step"]
        m["particle_step.molecule_steps"] = c["particle_step.molecule_steps"]
        m["particle_step.ns_per_molecule_step"] = per(
            total["particle_step"], c["particle_step.molecule_steps"], 1e9
        )
        m["particle.peak_alive"] = c["particle.peak_alive"]
        m["particle.absorbed_per_released"] = per(c["particle.absorbed"], c["particle.released"])
        m["cir.calls"] = calls["cir"]
        m["cir.s"] = total["cir"]
        m["cir.calls_per_frame"] = per(calls["cir"], calls["_simulate_frame"])
        m["hit_fraction.calls"] = calls["hit_fraction"]
        m["encode_bits_to_indices.s"] = total["encode_bits_to_indices"]
        m["encode_bits_to_indices.ns_per_bit"] = per(
            total["encode_bits_to_indices"], c["encode_bits_to_indices.bits"], 1e9
        )
        for func in ("ratio_alphabet", "thresholds", "symbol_quantities", "ftd_ber", "hamming_table"):
            m[f"{func}.calls"] = calls[func]
            m[f"{func}.s"] = total[func]
        m["ftd_ber.sequences"] = c["ftd_ber.sequences"]
        m["ftd_ber.ns_per_sequence"] = per(total["ftd_ber"], c["ftd_ber.sequences"], 1e9)
        for func in (
            "exact_ratio_pdf",
            "solid_ratio_pdf",
            "gaussian_ratio_pdf",
            "sample_ratio",
            "ook_ber",
            "csk_ber",
            "mosk_ber",
            "rtsk_error_counts",
            "write_csv",
        ):
            m[f"{func}.s"] = total[func]
        m["sample_ratio.redraws"] = c["sample_ratio.redraws"]
        m["rtsk_error_counts.ns_per_symbol"] = per(
            total["rtsk_error_counts"], c["rtsk_error_counts.symbols"], 1e9
        )
        m["run_spec.self_s"] = own["run_spec"]
        m["write_csv.bytes"] = c["write_csv.bytes"]
        return {k: float(v) for k, v in m.items()}
