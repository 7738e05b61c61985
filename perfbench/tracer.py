"""In-memory span tracing around the public functions of the five layers.

``Tracer.install`` replaces every public module-level function of
``phonon_lab.{saw,circuit,lindblad,tomography,cli}`` with a wrapper that
records a span: name, start, end, parent span and operation id. Calls made
through module attributes, including calls inside the same module, pass
through the wrappers. Private names are never wrapped, so work done through
them is charged to the nearest public caller's self time (for example the
propagation inside ``cli._swap_hold_swap``).

A few wrappers also note a size or quality figure taken from the call's
arguments or result (frequency points, simulated state-ns, fit residual,
artifact bytes); ``layer_metrics`` turns spans and notes into the per-layer
numbers of one traced pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path

import numpy as np

def _state_ns_of_traces(args, kwargs):
    rhos = args[0] if args else kwargs["rhos"]
    params = args[1] if len(args) > 1 else kwargs["params"]
    t_grid = args[2] if len(args) > 2 else kwargs["t_grid"]
    return params.dim, len(rhos) * float(np.max(t_grid)) * 1e9


def _state_ns_of_sequence(args, kwargs):
    seq = args[0] if args else kwargs["seq"]
    params = args[1] if len(args) > 1 else kwargs["params"]
    return params.dim, seq.duration() * 1e9


def _note(name, args, kwargs, result):
    """Size or quality figure of one call, keyed by what it measures."""
    if name == "saw.resonator_admittance":
        return {"freq_points": len(result.frequencies)}
    if name == "saw.fit_bvd":
        return {"residual": float(result[1])}
    if name == "lindblad.batched_excited_traces":
        dim, state_ns = _state_ns_of_traces(args, kwargs)
        return {"dim": dim, "state_ns": state_ns}
    if name == "lindblad.run_sequence":
        dim, state_ns = _state_ns_of_sequence(args, kwargs)
        return {"dim": dim, "state_ns": state_ns}
    if name == "cli.execute_scenario":
        files = [p for p in Path(result).iterdir() if p.is_file()]
        return {"artifacts": len(files), "bytes": sum(p.stat().st_size for p in files)}
    return None


class Tracer:
    """Span recorder; one per process, single-threaded use."""

    def __init__(self):
        self.spans = []  # [id, parent, op, name, start, end, note]
        self._stack = []
        self._originals = []
        self.op = None

    def install(self, modules):
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                self._originals.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else None, self.op, name,
                    time.perf_counter(), None, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            span[6] = _note(name, args, kwargs, result)
            return result

        return traced

    def mark(self):
        return len(self.spans)

    def dump(self, path):
        fields = ("id", "parent", "op", "name", "start", "end", "note")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, s)) for s in self.spans], fh)


def layer_metrics(spans):
    """Per-layer numbers of one traced pass from its spans."""
    child_time = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])
    by_id = {s[0]: s for s in spans}

    def outermost(s):
        # a same-name ancestor already counts this span's time
        parent = s[1]
        while parent is not None and parent in by_id:
            if by_id[parent][3] == s[3]:
                return False
            parent = by_id[parent][1]
        return True

    calls, incl, self_t, durations = {}, {}, {}, {}
    notes = []
    for s in spans:
        name, dur = s[3], s[5] - s[4]
        calls[name] = calls.get(name, 0) + 1
        self_t[name] = self_t.get(name, 0.0) + dur - child_time.get(s[0], 0.0)
        durations.setdefault(name, []).append(dur)
        if outermost(s):
            incl[name] = incl.get(name, 0.0) + dur
        if s[6]:
            notes.append((dur, s[6]))

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return incl.get(name, 0.0)

    fits_ms = np.array(durations.get("tomography.fit_populations", [0.0])) * 1e3
    out = {
        "saw.resonator_admittance.calls": n("saw.resonator_admittance"),
        "saw.resonator_admittance.s": t("saw.resonator_admittance"),
        "saw.freq_points": sum(v["freq_points"] for _, v in notes if "freq_points" in v),
        "saw.fit_bvd.calls": n("saw.fit_bvd"),
        "saw.fit_bvd.s": t("saw.fit_bvd"),
        "saw.fit_bvd.residual": max([v["residual"] for _, v in notes if "residual" in v], default=0.0),
        "circuit.coupling_strength.calls": n("circuit.coupling_strength"),
        "circuit.coupling_strength.s": t("circuit.coupling_strength"),
        "circuit.qubit_frequency.s": t("circuit.qubit_frequency"),
        "circuit.qubit_loss_spectrum.s": t("circuit.qubit_loss_spectrum"),
        "circuit.flux_for_coupling.s": t("circuit.flux_for_coupling"),
        "lindblad.batched_excited_traces.calls": n("lindblad.batched_excited_traces"),
        "lindblad.batched_excited_traces.s": t("lindblad.batched_excited_traces"),
        "lindblad.run_sequence.calls": n("lindblad.run_sequence"),
        "lindblad.run_sequence.s": t("lindblad.run_sequence"),
        "lindblad.displacement.s": t("lindblad.displacement"),
        "lindblad.state_ns": sum(v["state_ns"] for _, v in notes if "state_ns" in v),
        "tomography.synthesize_dataset.s": self_t.get("tomography.synthesize_dataset", 0.0),
        "tomography.basis_responses.s": self_t.get("tomography.basis_responses", 0.0),
        "tomography.fit_populations.calls": n("tomography.fit_populations"),
        "tomography.fit_populations.s": t("tomography.fit_populations"),
        "tomography.fit_populations.p50_ms": float(np.percentile(fits_ms, 50)),
        "tomography.fit_populations.p90_ms": float(np.percentile(fits_ms, 90)),
        "tomography.reconstruct_density_matrix.s": t("tomography.reconstruct_density_matrix"),
        "tomography.fidelity.calls": n("tomography.fidelity"),
        "tomography.fidelity.s": t("tomography.fidelity"),
        "cli.execute_scenario.calls": n("cli.execute_scenario"),
        "cli.execute_scenario.s": t("cli.execute_scenario"),
        "cli.self_s": sum(v for k, v in self_t.items() if k.startswith("cli.")),
        "cli.artifacts": sum(v["artifacts"] for _, v in notes if "artifacts" in v),
        "cli.artifact_bytes": sum(v["bytes"] for _, v in notes if "bytes" in v),
    }
    for dim in (10, 50):
        busy = sum(d for d, v in notes if v.get("dim") == dim)
        state_us = sum(v["state_ns"] for _, v in notes if v.get("dim") == dim) / 1e3
        out[f"lindblad.s_per_state_us.d{dim}"] = busy / state_us if state_us else 0.0
    return out
