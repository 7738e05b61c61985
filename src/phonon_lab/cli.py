"""Scenario runner and reproduction harness.

``phonon-lab run config.json`` executes one scenario described by a JSON
document with a ``kind`` discriminator.  Its runner returns the text of each
CSV/JSON artifact (plus an SVG heatmap for 2-D scans) and a summary;
``execute_scenario`` writes them and ``summary.json`` into the output
directory, and finishes with a run record carrying the complete parameter
set that ran and the SHA-256 of exactly the files it wrote.  ``phonon-lab
reproduce <figure-id>`` runs a preset scenario and emits the computed values
next to the published reference numbers.

``KINDS`` is the one place a scenario kind is declared: its runner and the
default of every parameter a config may set.  ``FIGURES`` holds each
figure's kind, overrides and reference values.  Each artifact's columns are
the header its runner writes here; ``_write`` is the one place a run's files
are written.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, which
includes any floating-point overflow, division by zero or invalid operation.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import datetime
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, _lsq, circuit, lindblad as lb, saw, tomography as tg
from ._svgmap import heatmap_svg
from .errors import ConfigError, DomainError, GridError, IdentifiabilityError, PhononLabError
from .saw import TWO_PI
from .schema_io import document_text, load_schema, validate_document


@dataclasses.dataclass
class Scenario:
    kind: str
    params: dict = dataclasses.field(default_factory=dict)
    seed: int = 0


def parse_scenario(doc: dict, seed=None) -> Scenario:
    """Check a scenario document and fill in its kind's defaults.

    Each key takes its type from its default in ``KINDS``: an int is
    accepted for a float and coerced, a bool is never a number, a float
    must be finite, and an int (a count, or the seed) must not be negative.
    """
    validate_document(doc, load_schema("scenario"))
    kind = doc["kind"]
    if kind not in KINDS:
        raise ConfigError(f"$.kind: unknown kind {kind!r}; allowed: {list(KINDS)}")
    params = copy.deepcopy(KINDS[kind][1])  # a caller may edit its own lists
    for key, value in doc.get("params", {}).items():
        if key not in params:
            raise ConfigError(
                f"$.params.{key}: unknown parameter for kind {kind!r}; "
                f"allowed: {sorted(params)}"
            )
        want = type(params[key])
        if want is float and isinstance(value, (int, float)) and not isinstance(value, bool):
            if not abs(value) <= sys.float_info.max:
                raise ConfigError(f"$.params.{key}: must be a finite number, got {value}")
            params[key] = float(value)
        elif want is int and isinstance(value, int) and not isinstance(value, bool):
            if value < 0:
                raise ConfigError(f"$.params.{key}: must be >= 0, got {value}")
            params[key] = value
        elif want is list and isinstance(value, list):
            params[key] = value
        else:
            raise ConfigError(
                f"$.params.{key}: expected {want.__name__}, got {type(value).__name__}"
            )
    for state in params.get("states", ()):
        if state not in lb.PREPARABLE_STATES:
            raise ConfigError(
                f"$.params.states: unknown state {state!r}; "
                f"allowed: {list(lb.PREPARABLE_STATES)}"
            )
    seed = doc.get("seed", 0) if seed is None else seed
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return Scenario(kind=kind, params=params, seed=seed)


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed JSON, or an int past Python's digit limit
        raise ConfigError(f"cannot parse config: {exc}") from exc


def _columns_csv(header, formats, *columns) -> str:
    """CSV text of equal-length columns, each field %-formatted by its column's format.

    The bytes are those ``csv.writer`` writes for the same fields: commas
    between them, ``\r\n`` after every line and no quoting, which no
    number or label here needs.
    """
    row = ",".join(formats) + "\r\n"
    columns = [np.asarray(c).tolist() for c in columns]
    return ",".join(header) + "\r\n" + "".join([row % values for values in zip(*columns)])


def _spectrum_csv(frequencies_hz, y) -> str:
    """``freq_hz,re_y_s,im_y_s`` rows of an admittance spectrum."""
    return _columns_csv(
        ["freq_hz", "re_y_s", "im_y_s"], ["%.6f", "%.9e", "%.9e"], frequencies_hz, y.real, y.imag
    )


def _tau_map(name, column, fmt, values, taus, taus_ns, z, y_axis, y_label, title) -> dict:
    """``<name>.csv``, the rows ``column,tau_s,p_e`` of the P_e map ``z`` over
    ``values`` x ``taus``, and ``<name>.svg``, its heatmap over ``y_axis`` and
    ``taus_ns``, the times in ns, which a runner takes before it propagates."""
    return {
        f"{name}.csv": _columns_csv(
            [column, "tau_s", "p_e"], [fmt, "%.4e", "%.6f"],
            np.repeat(values, taus.size), np.tile(taus, values.size), z.ravel(),
        ),
        f"{name}.svg": heatmap_svg(taus_ns, y_axis, z, x_label="interaction time (ns)",
                                   y_label=y_label, title=title),
    }


def _write(path: Path, text: str) -> str:
    """Write ``text`` to ``path``; returns the SHA-256 of the bytes written."""
    data = text.encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _exponential_decay(t, p):
    """``amp exp(-t/tau) + offset`` of ``p = (amp, tau, offset)`` and its Jacobian in ``p``."""
    amp, tau, offset = p
    decay = np.exp(-t / tau)
    return amp * decay + offset, np.column_stack([decay, amp * decay * t / tau**2, np.ones_like(t)])


def _damped_cosine_decay(t, p):
    """``amp cos(2 pi freq t + phase) exp(-t/tau) + offset`` of ``p = (amp,
    freq, phase, tau, offset)`` and its Jacobian in ``p``."""
    amp, freq, phase, tau, offset = p
    decay = np.exp(-t / tau)
    cos = np.cos(TWO_PI * freq * t + phase) * decay
    sin = -amp * np.sin(TWO_PI * freq * t + phase) * decay
    jac = np.column_stack([cos, TWO_PI * t * sin, sin, amp * cos * t / tau**2, np.ones_like(t)])
    return amp * cos + offset, jac


def _fit_decay(model, t, y, start) -> np.ndarray:
    """Least-squares parameters of ``model`` to ``y(t)`` from ``start``.

    ``_lsq.solve`` runs on the parameters in units of their start values; a
    start of 0 (an offset or a phase) has unit scale.  ``ConvergenceError``
    when that does not converge.  ``IdentifiabilityError`` when there are
    fewer points than parameters, or when the Gram matrix J^T J at the
    solution, in those units, has a condition number above
    ``_lsq.MAX_GRAM_COND``: the samples cannot resolve the decay.
    """
    start = np.asarray(start, dtype=float)
    if t.size < start.size:
        raise IdentifiabilityError(
            f"{t.size} points cannot determine the {start.size} parameters of the fit"
        )
    scale = np.where(start != 0.0, np.abs(start), 1.0)

    def residuals(x):
        value, jac = model(t, x * scale)
        return value - y, jac * scale

    return _lsq.solve(residuals, start / scale, "lifetime", lambda x: x * scale)[0] * scale


# ---------------------------------------------------------------------------
# scenario runners; each returns (files, summary): the text of each artifact
# by file name, and the summary that execute_scenario writes to summary.json


def run_admittance(scn: Scenario) -> tuple[dict, dict]:
    s = scn.params
    # 1j * x, not complex(0, x), keeps the sign of a zero real part
    p = saw.SawModelParams(
        v_t=s["v_t"], v_m=s["v_m"], eta=s["eta"], mirror_lines=s["mirror_lines"],
        transducer_pairs=s["transducer_pairs"], c_t=s["c_t"],
        r_t=1j * s["r_t_im"], r_m=1j * s["r_m_im"],
    )
    grid = saw.default_grid(s["f_lo_hz"], s["f_hi_hz"], s["n_points"])
    spec = saw.resonator_admittance(grid, p)
    pm = saw.transducer_response(grid, p)
    gamma = saw.mirror_reflection(grid, p)
    files = {
        "admittance.csv": _spectrum_csv(spec.frequencies_hz, spec.y),
        "params.json": document_text({"params": p.to_dict()}),
        "transducer.csv": _spectrum_csv(spec.frequencies_hz, pm.p33 + 1j * grid * p.c_t),
        "mirror.csv": _columns_csv(
            ["freq_hz", "gamma_abs", "gamma_re", "gamma_im"],
            ["%.6f", "%.8f", "%.8f", "%.8f"],
            spec.frequencies_hz, np.abs(gamma), gamma.real, gamma.imag,
        ),
    }

    fine, bvd, residual = saw.fit_resonance(spec, p)
    mag = np.abs(gamma)
    f_hz = spec.frequencies_hz
    ic = int(np.argmin(np.abs(f_hz - p.mirror_center_hz)))
    # the stop band: the runs of |gamma| > 0.9 on either side of ic; a NaN is outside
    edges = np.concatenate([[-1], np.flatnonzero(~(mag > 0.9)), [mag.size]])
    k = int(np.searchsorted(edges, ic))  # edges[k - 1] < ic <= edges[k]
    lo, hi = float(f_hz[edges[k - 1] + 1]), float(f_hz[edges[k + (edges[k] == ic)] - 1])
    return files, {
        "resonance_hz": float(fine.frequencies_hz[int(np.argmax(fine.y.real))]),
        "peak_conductance_s": float(np.max(fine.y.real)),
        "stop_band_lo_hz": lo,
        "stop_band_hi_hz": hi,
        "bvd": {
            "c_s_f": bvd.c_s,
            "l_s_h": bvd.l_s,
            "r_s_ohm": bvd.r_s,
            "c_t_f": bvd.c_t,
            "q": bvd.q,
            "residual": residual,
        },
    }


def run_coupling_sweep(scn: Scenario) -> tuple[dict, dict]:
    bvd = saw.reference_bvd()
    cp = circuit.CircuitParams(m=scn.params["m"])
    phi = np.linspace(0.0, 1.0, scn.params["sweep_points"])
    g = circuit.coupling_strength(phi, cp, bvd)
    f_ge = circuit.qubit_frequency(phi, cp)
    files = {
        "coupling.csv": _columns_csv(["phi_g", "g_hz"], ["%.6f", "%.3f"], phi, g / TWO_PI),
        "qubit_frequency.csv": _columns_csv(
            ["phi_g", "omega_ge_hz"], ["%.6f", "%.3f"], phi, f_ge / TWO_PI
        ),
        "params.json": document_text(dataclasses.asdict(cp)),
    }
    mags = np.abs(g)
    nonzero = mags[mags > 0]
    if nonzero.size == 0:
        raise DomainError("the sweep has no nonzero coupling to take the on/off ratio from "
                          f"(m = {cp.m:g} H)")
    return files, {
        "max_g_hz": float(mags.max() / TWO_PI),
        "phi_at_max": float(phi[int(np.argmax(mags))]),
        "min_nonzero_g_hz": float(nonzero.min() / TWO_PI),
        "on_off_ratio": float(mags.max() / nonzero.min()),
        "l_q_h": cp.l_q,
    }


def run_loss_spectrum(scn: Scenario) -> tuple[dict, dict]:
    p_saw = saw.SawModelParams()
    grid = TWO_PI * np.linspace(
        scn.params["f_lo_hz"], scn.params["f_hi_hz"], scn.params["n_points"]
    )
    f_hz = grid / TWO_PI
    # the summary reads the emission band 3.85-3.90 GHz and the point at 3.95 GHz
    band = (f_hz >= 3.85e9) & (f_hz <= 3.90e9)
    if not (band.any() and f_hz[0] <= 3.85e9 and f_hz[-1] >= 3.95e9):
        raise DomainError("the grid must span 3.85-3.95 GHz with a point in 3.85-3.90 GHz")
    spec = saw.resonator_admittance(grid, p_saw)
    bvd = saw.reference_bvd()
    cp = circuit.CircuitParams()
    phi_mid = circuit.flux_for_coupling(TWO_PI * 2.3e6, cp, bvd)
    loss_max = circuit.qubit_loss_spectrum(grid, 0.5, cp, spec)
    loss_mid = circuit.qubit_loss_spectrum(grid, phi_mid, cp, spec)
    loss_off = circuit.qubit_loss_spectrum(grid, 0.25, cp, spec)
    files = {
        "loss.csv": _columns_csv(
            ["freq_hz", "inv_q_max", "inv_q_mid", "inv_q_off"],
            ["%.3f", "%.6e", "%.6e", "%.6e"],
            f_hz, loss_max, loss_mid, loss_off,
        ),
        "params.json": document_text(dataclasses.asdict(cp)),
    }
    return files, {
        "phi_moderate": float(phi_mid),
        "band_mean_inv_q_mid": float(loss_mid[band].mean()),
        "inv_q_mid_at_3p95ghz": float(loss_mid[int(np.argmin(np.abs(f_hz - 3.95e9)))]),
    }


def run_chevron(scn: Scenario) -> tuple[dict, dict]:
    params = lb.SystemParams()
    s = scn.params
    span = s["delta_span_hz"]
    deltas = TWO_PI * np.linspace(-span / 2, span / 2, s["n_delta"])
    taus = np.linspace(1e-9, s["tau_max_s"], s["n_tau"])
    taus_ns = taus * 1e9
    if deltas.size == 0:
        raise GridError("n_delta must be at least 1")

    rho0 = lb.run_sequence(lb.PulseSequence([lb.Rotation("x", math.pi)]), params).rho_final
    z = np.array(
        [lb.batched_excited_traces([rho0], params, taus, delta=d)[0] for d in deltas]
    )  # (n_delta, n_tau)
    files = _tau_map("chevron", "delta_hz", "%.3f", deltas / TWO_PI, taus, taus_ns, z,
                     deltas / TWO_PI / 1e6, "detuning (MHz)", "qubit excited-state probability")
    i0 = int(np.argmin(np.abs(deltas)))
    i_min = int(np.argmin(z[i0]))
    return files, {"swap_time_s": float(taus[i_min]), "n_delta": s["n_delta"], "n_tau": s["n_tau"]}


def _scan(build, durations, params) -> tuple[lb.SequenceResult, np.ndarray]:
    """One walk from the thermal state of ``build(d)``, whose last continuous
    segment lasts d, sampled where it has lasted each distinct duration, in
    increasing order; the index returned maps them back onto ``durations``.
    Building the shortest one raises DomainError for a negative duration."""
    grid, back = np.unique(durations, return_inverse=True)
    if grid.size == 0:
        raise GridError("the scan needs at least one duration")
    build(grid[0])
    seq = build(grid[-1])
    t_grid = seq.duration() - grid[-1] + grid
    return lb.run_sequence(seq, params, t_grid=t_grid), back


def run_lifetimes(scn: Scenario) -> tuple[dict, dict]:
    params = lb.SystemParams(delta=TWO_PI * 53e6)
    first_hold = 2e-9
    # a grid that does not rise from the first hold leaves nothing to fit
    if not scn.params["t_max_s"] > first_hold:
        raise DomainError(f"t_max_s must exceed the first hold, {first_hold:g} s")
    waits = np.linspace(first_hold, scn.params["t_max_s"], scn.params["n_points"])
    swap = lb.swap_segment(params)
    x90, y90 = lb.TOMOGRAPHY_PULSES["x90"], lb.TOMOGRAPHY_PULSES["y90"]

    def hold(angle, holds):
        """The states after a rotation, swap and each hold, from one walk."""
        return _scan(
            lambda w: lb.PulseSequence([lb.Rotation("x", angle), swap, lb.Idle(w)]),
            holds, params,
        )

    def swap_back(held, pulse=None):
        """P_e after swapping every held state back in one stacked walk and
        applying ``pulse``, whose axis carries the frame phase accumulated
        through each state's hold."""
        res, back = held
        rho = lb.run_sequence(lb.PulseSequence([swap]), params, res.states).rho_final
        if pulse is not None:
            u = np.array([
                lb.qubit_rotation(pulse.axis, pulse.angle, pulse.phase + theta, params.dim)
                for theta in res.phase
            ])
            rho = u @ rho @ np.swapaxes(u, -1, -2).conj()
        return lb.excited_probability(rho, params)[back]

    p_t1r = swap_back(hold(math.pi, waits))
    held = hold(math.pi / 2, waits)
    p_x, p_y = swap_back(held, x90), swap_back(held, y90)

    files = {
        "t1r.csv": _columns_csv(["t_s", "p_e"], ["%.4e", "%.6f"], waits, p_t1r),
        "t2r.csv": _columns_csv(
            ["t_s", "p_e_x90", "p_e_y90"], ["%.4e", "%.6f", "%.6f"], waits, p_x, p_y
        ),
    }

    t1r_fit = float(_fit_decay(_exponential_decay, waits, p_t1r, [0.9, params.t1r, 0.02])[1])

    # the coarsely sampled scan aliases the 53 MHz idle oscillation, so the
    # phase memory comes from the decay of the transverse Bloch magnitude;
    # the spiral center is measured at waits long past the phonon lifetime,
    # half an idle oscillation apart
    sx = 2.0 * p_y - 1.0
    sy = 1.0 - 2.0 * p_x
    held = hold(math.pi / 2, np.array([1.5e-6, 1.5e-6 + math.pi / params.delta]))
    cx = float(np.mean(2.0 * swap_back(held, y90) - 1.0))
    cy = float(np.mean(1.0 - 2.0 * swap_back(held, x90)))
    envelope = np.hypot(sx - cx, sy - cy)
    popt2 = _fit_decay(_exponential_decay, waits, envelope, [envelope[0], 2.0 * params.t1r, 0.0])
    t2r_fit = float(abs(popt2[1]))
    # a hold window under half a decay time fits well-conditioned but biased
    # lifetimes: the single exponentials do not describe its early samples
    window = waits[-1] - waits[0]
    if window < 0.5 * max(t1r_fit, t2r_fit):
        raise IdentifiabilityError(
            f"the {window:.3g} s hold window is shorter than half the fitted "
            f"T1r {t1r_fit:.3g} s or T2r {t2r_fit:.3g} s"
        )

    # separate finely sampled short window resolves the oscillation itself
    fine = np.linspace(2e-9, 42e-9, 17)
    p_fine = swap_back(hold(math.pi / 2, fine), x90)
    popt3 = _fit_decay(
        _damped_cosine_decay, fine, p_fine, [0.45, params.delta / TWO_PI, 0.0, 400e-9, 0.5]
    )
    return files, {
        "t1r_s": t1r_fit,
        "t2r_s": t2r_fit,
        "t2r_over_t1r": t2r_fit / t1r_fit,
        "idle_oscillation_hz": float(abs(popt3[1])),
    }


def run_thermometry(scn: Scenario) -> tuple[dict, dict]:
    rng = np.random.default_rng(scn.seed)
    noise, n = scn.params["noise"], scn.params["n_points"]
    if not noise >= 0.0:
        raise DomainError(f"noise must be >= 0, got {noise:g}")
    params = lb.SystemParams(p_e_th=scn.params["qubit_population"],
                             p_1_th=scn.params["resonator_population"])
    contrast = 0.95
    x = np.linspace(-1.0, 1.0, n)
    results = {}
    labels, traces_e, traces_g = [], [], []
    for label, population in (("qubit", params.p_e_th), ("post_swap", params.p_1_th)):
        a_e_true = population * contrast
        a_g_true = (1.0 - population) * contrast
        y_e = 0.5 - 0.5 * a_e_true * np.cos(math.pi * x) + noise * rng.standard_normal(n)
        y_g = 0.5 - 0.5 * a_g_true * np.cos(math.pi * x) + noise * rng.standard_normal(n)
        a_e, s_e = tg.fit_oscillation_amplitude(x, y_e)
        a_g, s_g = tg.fit_oscillation_amplitude(x, y_g)
        p_est, sigma = tg.rabi_population_estimate(a_e, a_g, s_e, s_g)
        results[label] = {"population": p_est, "sigma": sigma, "target": population}
        labels += [label] * n
        traces_e.append(y_e)
        traces_g.append(y_g)
    text = _columns_csv(
        ["sequence", "amplitude", "p_excited_trace", "p_ground_trace"],
        ["%s", "%.4f", "%.6f", "%.6f"],
        labels, np.tile(x, len(traces_e)), np.concatenate(traces_e), np.concatenate(traces_g),
    )
    return {"thermometry.csv": text}, results


def run_wigner(scn: Scenario) -> tuple[dict, dict]:
    if not scn.params["states"]:
        raise DomainError("states must name at least one state to synthesize")
    params = lb.SystemParams()
    alphas = tg.default_alpha_grid(radius=scn.params["alpha_radius"])
    # the grid is square, real part outer: alphas[i * n + j] = axis[i] + 1j * axis[j]
    axis = np.array([a.real for a in alphas[:: math.isqrt(len(alphas))]])
    files, summary = {}, {}
    for state in scn.params["states"]:
        tag = state.replace("+", "plus")
        ds = tg.synthesize_dataset(
            state, params, alphas=alphas, noise=scn.params["noise"], seed=scn.seed
        )
        files[f"dataset_{tag}.json"] = ds.to_json()
        fits, recon = tg.analyze_dataset(ds)
        w = [tg.wigner_point(f.p_n) for f in fits]
        files[f"wigner_{tag}.csv"] = _columns_csv(
            ["alpha_re", "alpha_im", "w"], ["%.6f", "%.6f", "%.8f"],
            [f.alpha.real for f in fits], [f.alpha.imag for f in fits], w,
        )

        if state == "0":
            psi = np.array([1, 0, 0, 0], dtype=complex)
        elif state == "1":
            psi = np.array([0, 1, 0, 0], dtype=complex)
        else:
            phase = np.angle(recon.rho_small[0, 1])
            psi = np.array([1, np.exp(1j * phase), 0, 0], dtype=complex) / math.sqrt(2)
        value, sigma = tg.fidelity(recon.rho, psi, recon.covariance)
        files[f"reconstruction_{tag}.json"] = tg.reconstruction_report(recon, (value, sigma))

        files[f"wigner_{tag}.svg"] = heatmap_svg(
            axis,
            axis,
            np.reshape(w, (axis.size, axis.size)).T,
            x_label="Re(alpha)",
            y_label="Im(alpha)",
            title=f"W(alpha), state {state}",
        )
        summary[state] = {
            "fidelity": value,
            "fidelity_sigma": sigma,
            "min_wigner": min(w),
        }
    return files, summary


def run_fock2(scn: Scenario) -> tuple[dict, dict]:
    params = lb.SystemParams()
    taus = np.linspace(scn.params["tau_lo_s"], scn.params["tau_hi_s"], scn.params["n_tau"])
    res, back = _scan(lambda tau: lb.fock2_sequence(params, tau), taus, params)
    pops = lb.resonator_populations(res.states)[back, :3]
    text = _columns_csv(
        ["tau_s", "p_e", "p0", "p1", "p2"], ["%.4e"] + ["%.6f"] * 4,
        taus, lb.excited_probability(res.states, params)[back], *pops.T,
    )
    best = int(np.argmax(pops[:, 2]))
    return {"fock2.csv": text}, {
        "optimal_tau_s": float(taus[best]), **{f"p{n}": float(pops[best, n]) for n in range(3)},
    }


def run_large_alpha(scn: Scenario) -> tuple[dict, dict]:
    s = scn.params
    dim, initial_fock = s["dim"], s["initial_fock"]
    params = lb.SystemParams(dim=dim)
    mags = np.linspace(0.0, s["alpha_max"], s["n_alpha"])
    taus = np.linspace(1e-9, s["tau_max_s"], s["n_tau"])
    taus_ns = taus * 1e9

    base = lb.product_state(0.0, lb.fock_state(dim, initial_fock))
    rhos = [lb.displacement(base, complex(a), check=False) for a in mags]
    z = lb.batched_excited_traces(rhos, params, taus)
    files = _tau_map("large_alpha", "alpha_abs", "%.4f", mags, taus, taus_ns, z, mags, "|alpha|",
                     f"qubit response to displaced Fock |{initial_fock}>")
    return files, {"n_alpha": s["n_alpha"], "n_tau": s["n_tau"], "dim": dim}


_SAW = saw.SawModelParams()
_SYSTEM = lb.SystemParams()

# every scenario kind: its runner and the default of each parameter a
# config may set; a key's type is its default's type
KINDS = {
    "admittance": (run_admittance, {
        "f_lo_hz": 3.5e9, "f_hi_hz": 4.5e9, "n_points": 2001,
        "v_t": _SAW.v_t, "v_m": _SAW.v_m, "eta": _SAW.eta,
        "r_t_im": _SAW.r_t.imag, "r_m_im": _SAW.r_m.imag,
        "mirror_lines": _SAW.mirror_lines, "transducer_pairs": _SAW.transducer_pairs,
        "c_t": _SAW.c_t,
    }),
    "coupling-sweep": (run_coupling_sweep, {
        "sweep_points": 1001, "m": circuit.CircuitParams().m,
    }),
    "loss-spectrum": (run_loss_spectrum, {"f_lo_hz": 3.5e9, "f_hi_hz": 4.5e9, "n_points": 2001}),
    "chevron": (run_chevron, {
        "delta_span_hz": 40e6, "n_delta": 41, "tau_max_s": 150e-9, "n_tau": 76,
    }),
    "lifetimes": (run_lifetimes, {"t_max_s": 450e-9, "n_points": 31}),
    "thermometry": (run_thermometry, {
        "qubit_population": _SYSTEM.p_e_th, "resonator_population": _SYSTEM.p_1_th,
        "noise": 0.001, "n_points": 100,
    }),
    "wigner": (run_wigner, {
        "states": list(lb.PREPARABLE_STATES), "alpha_radius": 2.0, "noise": 0.0,
    }),
    "fock2": (run_fock2, {"tau_lo_s": 14e-9, "tau_hi_s": 40e-9, "n_tau": 27}),
    "large-alpha": (run_large_alpha, {
        "alpha_max": 5.0, "n_alpha": 11, "tau_max_s": 300e-9, "n_tau": 121,
        "dim": 50, "initial_fock": 0,
    }),
}


def _measured(value):
    return {"value": value, "source": "device-characterization"}


def _predicted(value):
    return {"value": value, "source": "model-prediction"}


# every `reproduce` figure: its scenario kind, the parameters it overrides
# and the reference values emitted next to the computed ones; measured values
# come from the device characterization, predicted ones are what the device
# model itself reported
FIGURES = {
    "fig1e": ("coupling-sweep", {}, {
        "max_g_hz": _measured(7.3e6), "on_off_ratio_floor": _measured(300),
    }),
    "fig2": ("admittance", {}, {
        "resonance_hz": _measured(3.985e9),
        "stop_band_lo_hz": _measured(3.96e9),
        "stop_band_hi_hz": _measured(4.04e9),
        "c_s_f": _predicted(12.10e-15),
        "l_s_h": _predicted(131.8e-9),
        "r_s_ohm": _predicted(0.890),
    }),
    "fig3c": ("chevron", {}, {"swap_time_s": _measured(37e-9)}),
    "fig3d": ("lifetimes", {}, {"t1r_s": _measured(148e-9), "t2r_s": _measured(293e-9)}),
    "fig4a": ("thermometry", {}, {
        "qubit_excited_population": _measured(0.0169),
        "post_swap_population": _measured(0.0049),
    }),
    "fig4d": ("wigner", {}, {
        "fidelity_0": _predicted(0.998),
        "fidelity_1": _predicted(0.879),
        "fidelity_superposition": _predicted(0.962),
        "fidelity_0_measured": _measured(0.985),
        "fidelity_1_measured": _measured(0.858),
        "fidelity_superposition_measured": _measured(0.945),
    }),
    "figS1": ("coupling-sweep", {"sweep_points": 401}, {"l_q_h": _predicted(10.1e-9)}),
    "figS5": ("large-alpha", {}, {}),
    "figS6": ("fock2", {}, {
        "p2": _predicted(0.473), "p1": _predicted(0.382), "p0": _predicted(0.145),
    }),
}


def execute_scenario(scn: Scenario, out_dir) -> Path:
    """Run a scenario, write its artifacts and ``summary.json``, and finish
    with the run record, which hashes exactly the files this run wrote."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with np.errstate(all="raise", under="ignore"):  # decays underflow by design
        files, summary = KINDS[scn.kind][0](scn)
    files["summary.json"] = document_text(summary)
    artifacts = {name: _write(out / name, text) for name, text in sorted(files.items())}
    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()

    content_hash = hashlib.sha256(
        json.dumps(artifacts, sort_keys=True).encode()
    ).hexdigest()
    record = {
        "schema": "phonon-lab/run-record/v1",
        "scenario": dataclasses.asdict(scn),
        "toolkit_version": __version__,
        "started_utc": started,
        "finished_utc": finished,
        "artifacts": artifacts,
        "content_hash": content_hash,
    }
    _write(out / "run_record.json", document_text(record, "run_record"))
    return out


def reproduce(figure_id: str, out_dir) -> dict:
    """Run the preset scenario for a figure and emit target-vs-computed values."""
    if figure_id not in FIGURES:
        raise ConfigError(
            f"unknown figure id {figure_id!r}; supported: {', '.join(sorted(FIGURES))}"
        )
    kind, overrides, reference = FIGURES[figure_id]
    out = execute_scenario(parse_scenario({"kind": kind, "params": overrides}), out_dir)
    comparison = {
        "figure": figure_id,
        "reference": reference,
        "computed": json.loads((out / "summary.json").read_text()),
    }
    _write(out / "reproduce_summary.json", document_text(comparison))
    return comparison


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phonon-lab",
        description="scenario runner for the SAW-resonator modeling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)

    p_rep = sub.add_parser("reproduce", help="run a preset figure scenario")
    p_rep.add_argument("figure_id")
    p_rep.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="validate a scenario config")
    p_val.add_argument("config")

    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            doc = load_config(args.config)
            parse_scenario(doc)
            print(f"{args.config}: valid")
            return 0
        if args.command == "run":
            doc = load_config(args.config)
            scn = parse_scenario(doc, seed=args.seed)
            out_dir = args.out or f"{Path(args.config).stem}-out"
            out = execute_scenario(scn, out_dir)
            print(f"wrote artifacts to {out}")
            return 0
        if args.command == "reproduce":
            out_dir = args.out or f"reproduce-{args.figure_id}"
            comparison = reproduce(args.figure_id, out_dir)
            print(document_text(comparison), end="")
            return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (PhononLabError, ArithmeticError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
