"""In-memory span tracing of qbp's layer entry points, patched from outside.

A Tracer replaces each entry point listed in ENTRY_POINTS with a wrapper
that records one span per call: name, start, end, parent span and trial
id.  Nothing under src/ knows about it; leaving the `with` block restores
the originals.  The wrappers only time the calls, so a traced sweep must
produce byte-identical results to an untraced one (run.py checks this).

Spans stay in memory until the run ends; `summary` reduces them to the
per-layer metrics, and `spans_json` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

# (module path, attribute path, span name).  The span name's prefix is the
# layer.  `heuristics._colliding_pairs` is the collision-pair search that both
# `collision_targets` and the collision freeze schedule run; it is the only
# private name here because `collision_freeze` never calls the public one.
ENTRY_POINTS = (
    ("qbp.bp", "check_update", "bp.check_update"),
    ("qbp.bp", "qubit_update", "bp.qubit_update"),
    ("qbp.bp", "init_messages", "bp.init_messages"),
    ("qbp.codes", "StabilizerCode.syndrome", "codes.syndrome"),
    ("qbp.codes", "StabilizerCode.syndrome01_of_letters", "codes.halting_test"),
    ("qbp.gf2", "in_rowspan", "gf2.in_rowspan"),
    ("qbp.pauli", "PauliOperator.from_letters", "pauli.from_letters"),
    ("qbp.heuristics", "freeze_step", "heuristics.freeze_step"),
    ("qbp.heuristics", "perturb_step", "heuristics.perturb_step"),
    ("qbp.heuristics", "collision_targets", "heuristics.collision_targets"),
    ("qbp.heuristics", "_colliding_pairs", "heuristics.collision_search"),
    ("qbp.simulate", "run_trial", "simulate.run_trial"),
    ("qbp.simulate", "sample_error", "simulate.sample_error"),
    ("qbp.simulate", "classify_residual", "simulate.classify_residual"),
    ("qbp.simulate", "decode_with_heuristics", "simulate.decode_with_heuristics"),
)

_INTERVENTIONS = ("heuristics.freeze_step", "heuristics.perturb_step")


class Tracer:
    """Context manager that patches ENTRY_POINTS and records spans.

    It may be entered many times; spans and counts accumulate across entries.
    """

    def __init__(self):
        self._restore = []           # (owner, attribute, original class-dict value)
        self.missing = []            # entry points absent from this qbp version
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.trial = []
        self.calls: dict[str, int] = {}
        self.decodes = []            # (trial, converged, iterations_used)
        self.interventions = set()   # (trial, iteration) of each heuristic step
        self._stack = []
        self._trial = -1

    # -- patching --------------------------------------------------------

    def __enter__(self):
        self.missing = []
        for module_path, attr_path, span in ENTRY_POINTS:
            owner = importlib.import_module(module_path)
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr, None)
            if raw is None:
                self.missing.append(f"{module_path}.{attr_path}")
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, span))
            elif inspect.isgeneratorfunction(raw):
                patched = self._wrap_generator(raw, span)
            else:
                patched = self._wrap(raw, span)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, patched)
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()
        return False

    def _open(self, span: str) -> int:
        idx = len(self.name)
        self.name.append(span)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial.append(self._trial)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span: str):
        calls = self.calls
        calls.setdefault(span, 0)
        is_trial = span == "simulate.run_trial"
        is_decode = span == "simulate.decode_with_heuristics"
        is_intervention = span in _INTERVENTIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[span] += 1
            if is_trial:
                self._trial += 1
            if is_intervention:
                self.interventions.add((self._trial, kwargs.get("iteration")))
            idx = self._open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if is_decode:
                result = out[0]
                self.decodes.append((self._trial, bool(result.converged), int(result.iterations_used)))
            return out

        return traced

    def _wrap_generator(self, fn, span: str):
        """One call per generator; one span per resumption, so only work is timed."""
        calls = self.calls
        calls.setdefault(span, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[span] += 1
            inner = fn(*args, **kwargs)
            while True:
                idx = self._open(span)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        return traced

    # -- reduction -------------------------------------------------------

    def _arrays(self):
        names = sorted(set(self.name))
        code_of = {n: i for i, n in enumerate(names)}
        name_id = np.fromiter((code_of[n] for n in self.name), dtype=np.int64, count=len(self.name))
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return names, name_id, dur, dur - child

    def self_seconds(self) -> dict:
        """Self time (span duration minus its child spans) summed per span name and per layer."""
        names, name_id, _, self_time = self._arrays()
        spans = {n: float(self_time[name_id == i].sum()) for i, n in enumerate(names)}
        layers: dict[str, float] = {}
        for n, t in spans.items():
            layer = n.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + t
        return {"spans": spans, "layers": layers}

    def summary(self) -> dict:
        """Per-layer metrics (values only) from the recorded spans."""
        names, name_id, dur, self_time = self._arrays()

        def total(span):
            return float(dur[name_id == names.index(span)].sum()) if span in names else 0.0

        def per_call_us(span, calls=None):
            n = self.calls.get(span, 0) if calls is None else calls
            return total(span) / n * 1e6 if n else 0.0

        trials = self.calls.get("simulate.run_trial", 0)
        per_trial = (lambda x: x / trials) if trials else (lambda x: 0.0)
        trial_s = total("simulate.run_trial")
        share = (lambda x: x / trial_s) if trial_s else (lambda x: 0.0)
        trial_ms = dur[name_id == names.index("simulate.run_trial")] * 1e3 if trials else np.zeros(1)
        heur_self = sum(float(self_time[name_id == i].sum())
                        for i, n in enumerate(names) if n.startswith("heuristics."))

        intervened = {t for t, _ in self.interventions}
        rescued = [conv for t, conv, _ in self.decodes if t in intervened]
        decodes = len(self.decodes)
        return {
            "codes.syndrome_us": per_call_us("codes.syndrome"),
            "codes.halting_test_us": per_call_us("codes.halting_test"),
            "codes.halting_tests_per_trial": per_trial(self.calls.get("codes.halting_test", 0)),
            "gf2.in_rowspan_us": per_call_us("gf2.in_rowspan"),
            "pauli.from_letters_us": per_call_us("pauli.from_letters"),
            "bp.init_messages_us": per_call_us("bp.init_messages"),
            "bp.check_update_us": per_call_us("bp.check_update"),
            "bp.check_update_calls_per_trial": per_trial(self.calls.get("bp.check_update", 0)),
            "bp.qubit_update_us": per_call_us("bp.qubit_update"),
            "bp.qubit_update_calls_per_trial": per_trial(self.calls.get("bp.qubit_update", 0)),
            "bp.kernel_share": share(total("bp.check_update") + total("bp.qubit_update")),
            "bp.iterations_per_trial": (sum(it for _, _, it in self.decodes) / decodes) if decodes else 0.0,
            "bp.converged_fraction": (sum(c for _, c, _ in self.decodes) / decodes) if decodes else 0.0,
            "heuristics.freeze_step_us": per_call_us("heuristics.freeze_step"),
            "heuristics.perturb_step_us": per_call_us("heuristics.perturb_step"),
            "heuristics.collision_targets_us": per_call_us("heuristics.collision_search"),
            "heuristics.interventions_per_trial": per_trial(len(self.interventions)),
            "heuristics.share": share(heur_self),
            "heuristics.rescue_fraction": (sum(rescued) / len(rescued)) if rescued else 0.0,
            "simulate.sample_error_us": per_call_us("simulate.sample_error"),
            "simulate.classify_residual_us": per_call_us("simulate.classify_residual"),
            "simulate.overhead_share": share(trial_s - total("simulate.decode_with_heuristics")),
            "simulate.run_trial_ms_p50": float(np.percentile(trial_ms, 50)),
            "simulate.run_trial_ms_p99": float(np.percentile(trial_ms, 99)),
            "simulate.trials_traced": trials,
        }

    def spans_json(self) -> dict:
        """All spans, column-wise, with times relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        return {
            "columns": ["name", "start_s", "end_s", "parent", "trial"],
            "name": self.name,
            "start_s": [round(s - t0, 9) for s in self.start],
            "end_s": [round(e - t0, 9) for e in self.end],
            "parent": self.parent,
            "trial": self.trial,
            "calls": self.calls,
            "missing": self.missing,
        }
