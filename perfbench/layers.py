"""The traced run: spans around every layer of tapegroups, from outside `src/`.

`Tracer.install` replaces each public function of each package module with a
wrapper, and rebinds every name another module imported it under (`from
.tokens import tokenize_z2z2`, the REPRESENTATIONS table), so calls between
modules pass through the wrappers too.  A wrapper records one span: name,
parent span, start, end and the run phase.  Spans stay in memory and are
written when the run ends.  A span's self time is its duration minus the time
its child spans cover.

Left unwrapped: classes and their methods (the tape primitives among them, a
few hundred nanoseconds each and millions per round), and the scalar helpers
listed in SKIP, whose cost is below a wrapper's.  Their time shows as self
time of their callers.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import time
from array import array
from collections import defaultdict
from typing import Dict

import workloads as wl

MODULES = ("tapevm", "tapeops", "tokens", "spiral", "oracle_groups",
           "z2wrz2", "z2wrf2", "thompson_f", "framework", "cli")
SKIP = frozenset({
    "oracle_groups.dy", "oracle_groups.dy_add", "oracle_groups.dy_sub",
    "oracle_groups.dy_mul", "oracle_groups.dy_shift", "oracle_groups.dy_cmp",
    "oracle_groups.f2_is_reduced", "oracle_groups.f2_mul_letter",
    "oracle_groups.f2_reduce", "spiral.walk",
})
PHASES = ("setup", "timed", "verify")
# the module whose apply_gen_report runs each group's programs
GROUP_MODULE = {"z2wrz2": "z2wrz2", "z2wrf2": "z2wrf2", "thompson-f": "thompson_f"}


class Tracer:
    """Per-run span recorder.  Records only in the setup and timed phases.

    Every span is added to per-name totals as it ends; the first MAX_SPANS
    spans are also kept whole, for the trace file."""

    MAX_SPANS = 100_000

    def __init__(self) -> None:
        self.names: list = []  # name id -> "module.function"
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_phase = array("b")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list = []  # per open span: [child ns, name id, span index]
        self._phase = -1
        # (phase, name id, parent name id or -1) -> [calls, inclusive ns, self ns]
        self.totals: Dict[tuple, list] = defaultdict(lambda: [0, 0, 0])
        self.steps: Dict[str, int] = defaultdict(int)
        self._undo: list = []  # (namespace, name, original function)

    def phase(self, name: str) -> None:
        self._phase = PHASES.index(name)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        names, parents, phases = self.span_name, self.span_parent, self.span_phase
        starts, ends, stack, totals = self.span_start, self.span_end, self._stack, self.totals
        clock = time.perf_counter_ns
        group = next((g for g, m in GROUP_MODULE.items()
                      if qualname == f"{m}.apply_gen_report"), None)
        tracer = self
        cap = self.MAX_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ph = tracer._phase
            if ph < 0 or ph > 1:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            idx = len(names)
            if idx < cap:
                names.append(nid)
                parents.append(parent[2] if parent else -1)
                phases.append(ph)
                starts.append(0)
                ends.append(0)
            frame = [0, nid, idx if idx < cap else -1]
            stack.append(frame)
            t0 = clock()
            if idx < cap:
                starts[idx] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                tot = totals[(ph, nid, parent[1] if parent is not None else -1)]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[0]
                if idx < cap:
                    ends[idx] = t1
            if group is not None and ph == 1:
                tracer.steps[group] += result[1].steps
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every module in MODULES, in place."""
        mods = [importlib.import_module(f"tapegroups.{m}") for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, mods):
            for name, obj in list(vars(mod).items()):
                qual = f"{short}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and qual not in SKIP):
                    wrapped[obj] = self._wrap(qual, obj)
        for mod in mods + [importlib.import_module("tapegroups")]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
                    self._undo.append((vars(mod), name, obj))
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and v in wrapped:
                            obj[k] = wrapped[v]
                            self._undo.append((obj, k, v))

    def uninstall(self) -> None:
        """Put every original function back."""
        for table, key, original in self._undo:
            table[key] = original
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self, result) -> dict:
        """The per-layer metrics of a finished run (see README.md)."""
        calls, incl, self_ns = defaultdict(int), defaultdict(int), defaultdict(int)
        under = defaultdict(lambda: [0, 0, 0])  # (phase, name, parent name)
        for (ph, n, p), tot in self.totals.items():
            key = (ph, self.names[n])
            calls[key] += tot[0]
            incl[key] += tot[1]
            self_ns[key] += tot[2]
            under[key + (self.names[p] if p >= 0 else "",)] = tot
        rounds = len(result.rounds)
        builds = len(result.build_s)
        T, S = 1, 0  # phase ids
        # reference seconds per measured second, as for the end-to-end metrics
        timed_scale = wl.REF_S / statistics.median(result.calibration.samples)
        setup_scale = wl.REF_S / statistics.median(result.build_loop_s)

        def per_round(table, *names) -> float:
            return sum(table[(T, nm)] for nm in names) / 1e9 / rounds * timed_scale

        def per_build(table, *names) -> float:
            return sum(table[(S, nm)] for nm in names) / 1e9 / builds * setup_scale

        m = {}
        for g, mod in GROUP_MODULE.items():
            steps = self.steps[g]
            per = steps // rounds if steps % rounds == 0 else steps / rounds
            m[f"tapevm.steps.{g}"] = (per, "count")
            secs = incl[(T, f"{mod}.apply_gen_report")] / 1e9 * timed_scale
            m[f"tapevm.steps_per_s.{g}"] = (steps / secs if secs else 0.0, "1/s")
        m["tapevm.io_s"] = (per_round(incl, "tapevm.init_tapes", "tapevm.read_output"), "s")
        m["tokens.tokenize_s"] = (per_round(incl, "tokens.tokenize_z2z2", "tokens.tokenize_z2f2",
                                            "tokens.tokenize_f"), "s")
        m["tokens.render_s"] = (per_round(incl, "tokens.render", "tokens.render_z2f2"), "s")
        m["tapeops.shift_s"] = (per_round(incl, "tapeops.shift_suffix_right",
                                          "tapeops.shift_suffix_left"), "s")
        m["z2wrz2.program_s"] = (per_round(self_ns, "z2wrz2.apply_gen_report"), "s")
        m["z2wrf2.program_s"] = (per_round(self_ns, "z2wrf2.apply_gen_report"), "s")
        m["thompson_f.program_s"] = (per_round(self_ns, "thompson_f.apply_gen_report",
                                               "thompson_f.apply_x1"), "s")
        m["thompson_f.validate_s"] = (per_round(incl, "thompson_f.validate"), "s")
        x1 = calls[(T, "thompson_f.apply_x1")]
        inner = under[(T, "thompson_f.validate", "thompson_f.apply_x1")][0]
        m["thompson_f.validates_per_x1"] = (inner / x1 if x1 else 0.0, "count")
        m["z2wrz2.decode_s"] = (per_round(incl, "z2wrz2.decode"), "s")
        m["z2wrf2.decode_s"] = (per_round(incl, "z2wrf2.decode"), "s")
        m["z2wrf2.validate_s"] = (per_round(incl, "z2wrf2.validate"), "s")
        ops = sum(result.rounds[0]["z2wrf2"].work) * rounds
        m["z2wrf2.decodes_per_check"] = (calls[(T, "z2wrf2.decode")] / ops if ops else 0.0,
                                         "count")
        m["oracle_groups.pl_decode_s"] = (per_round(incl, "oracle_groups.pl_eval_normalform"), "s")
        m["oracle_groups.pl_mul_s"] = (per_round(incl, "oracle_groups.pl_mul_gen"), "s")
        m["oracle_groups.wreath_mul_s"] = (per_round(incl, "oracle_groups.wreath_mul_gen"), "s")
        m["framework.fold_self_s"] = (per_round(self_ns, "framework.word_to_nf_report"), "s")
        m["framework.fuzz_self_s"] = (per_round(self_ns, "framework.differential_fuzz"), "s")
        m["z2wrz2.encode_s"] = (per_build(incl, "z2wrz2.encode"), "s")
        m["z2wrf2.encode_s"] = (per_build(incl, "z2wrf2.encode"), "s")
        spiral_ns = sum(tot[1] for (ph, nm, parent), tot in under.items()
                        if ph == S and nm.startswith("spiral.")
                        and not parent.startswith("spiral."))
        m["spiral.s"] = (spiral_ns / 1e9 / builds * setup_scale, "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def write(self, path) -> None:
        """All spans, as parallel arrays, gzip-compressed JSON."""
        blob = {"names": self.names, "phases": PHASES,
                "name": self.span_name.tolist(), "parent": self.span_parent.tolist(),
                "phase": self.span_phase.tolist(),
                "start_ns": self.span_start.tolist(), "end_ns": self.span_end.tolist()}
        with gzip.open(path, "wt") as fh:
            json.dump(blob, fh)
