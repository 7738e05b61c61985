"""The benchmark's seeded workloads and their output checks.

Each workload is a class built from a seed. Building it is the timed set-up:
it draws every input from the seed. ``prepare()`` then derives the inputs
that need the benchmark's own exact model (untimed, before the passes),
``ops(workdir)`` lists the timed calls of one pass, ``references()``
computes the exact answers once (untimed, after the passes), and
``check(name, output)`` compares one call's output with them. A check
returns ``(ok, deviations)``; an output that fails it counts in ``failed``,
like a call that raises.

The timed calls pass no ``dt``, so they time the library's own step policy.
Tolerances are set so that the seed passes with margin, an exact propagator
passes, and RK4 at four times the seed's step fails where the output carries
enough digits to tell (see perfbench/README.md for the measurements).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from phonon_lab import cli, lindblad as lb, tomography as tg

from oracle import ExactModel

TWO_PI = 2.0 * math.pi

# full-precision P_e and populations at dim 10: the seed (RK4, 0.05 ns) is at
# most 3e-11 off the exact answer, RK4 at 0.2 ns at least 1e-9
DIM10_TOL = 3e-10
# tomography forward traces: the seed (RK4, 0.1 ns) is at most 1.2e-9 off,
# RK4 at 0.4 ns at least 4.7e-8
SYNTH_TOL = 5e-9
# dim-50 traces read back from a 6-decimal CSV: the seed (RK4, 0.2 ns) is at
# most 1.5e-6 off after rounding, RK4 at 0.8 ns at least 8e-5
DIM50_CSV_TOL = 1e-5
# dim-10 traces read back from a 6-decimal CSV: rounding alone is 5e-7
CSV_TOL = 2e-6
# acceptance criterion 7: reconstructed fidelities within +-0.02 of these
FIDELITY_TARGETS = {"0": 0.998, "1": 0.879, "0+1": 0.962}
FIDELITY_TOL = 0.02
# population recovery: the largest |p - p_true| seen over many seeds is well
# below these (see perfbench/README.md)
WIGNER_STATE_TOL = 0.05
REANALYSIS_FIT_TOL = 0.06


def _read_csv(path):
    """Data rows of a CSV artifact, header dropped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array(rows[1:], dtype=float)


def _target_psi(state, rho_small):
    if state == "0":
        return np.array([1, 0, 0, 0], dtype=complex)
    if state == "1":
        return np.array([0, 1, 0, 0], dtype=complex)
    phase = np.angle(rho_small[0, 1])
    return np.array([1, np.exp(1j * phase), 0, 0], dtype=complex) / math.sqrt(2)


def _fidelity_check(state, value):
    dev = abs(value - FIDELITY_TARGETS[state])
    return dev <= FIDELITY_TOL, {"fidelity_abs_dev": dev}


def _dephased(rho):
    dim = rho.shape[0] // 2
    out = rho.copy()
    out[:dim, dim:] = 0.0
    out[dim:, :dim] = 0.0
    return out


class DeviceChain:
    """The four device scenarios through ``cli.execute_scenario``.

    Why: ``saw`` and ``circuit`` do all of the compute and ``cli`` writes
    many small artifacts, while ``lindblad`` and ``tomography`` do none, so
    every propagator or estimator change is predicted not to move it. The
    seed draws a device variant (mirror loss, mirror reflectivity, coupler
    mutual, grid edges, thermal populations and readout noise) inside the
    range where criteria 1-3 still hold; grid sizes stay fixed so every seed
    does the same amount of work. ``coupling-sweep`` (1001 root solves)
    dominates.
    """

    def __init__(self, seed):
        rng = np.random.default_rng(seed)

        def edge():
            return float(rng.uniform(-2e6, 2e6))

        self.docs = {
            "admittance": {"kind": "admittance", "params": {
                "eta": 851.0 * float(rng.uniform(0.95, 1.05)),
                "r_m_im": -0.032 * float(rng.uniform(0.98, 1.02)),
                "f_lo_hz": 3.5e9 + edge(), "f_hi_hz": 4.5e9 + edge()}},
            "coupling-sweep": {"kind": "coupling-sweep", "params": {
                "m": 0.13e-9 * float(rng.uniform(0.97, 1.03))}},
            "loss-spectrum": {"kind": "loss-spectrum", "params": {
                "f_lo_hz": 3.5e9 + edge(), "f_hi_hz": 4.5e9 + edge()}},
            "thermometry": {"kind": "thermometry", "seed": int(rng.integers(2**31)),
                            "params": {
                "qubit_population": float(rng.uniform(0.012, 0.022)),
                "resonator_population": float(rng.uniform(0.003, 0.007))}},
        }

    def prepare(self):
        pass  # every input is a seeded draw

    def references(self):
        pass  # the criteria below are closed-form tolerances

    def ops(self, workdir):
        return [(kind, lambda d=doc, out=workdir / kind: cli.execute_scenario(
            cli.parse_scenario(d), out)) for kind, doc in self.docs.items()]

    def check(self, name, out_dir):
        summary = json.loads((Path(out_dir) / "summary.json").read_text())
        if name == "admittance":  # criteria 1 and 2
            bvd = summary["bvd"]
            q_target = TWO_PI * summary["resonance_hz"] * 148e-9
            ok = (abs(summary["resonance_hz"] - 3.985e9) < 5e6
                  and abs(summary["stop_band_lo_hz"] - 3.96e9) < 10e6
                  and abs(summary["stop_band_hi_hz"] - 4.04e9) < 10e6
                  and abs(bvd["c_s_f"] - 12.10e-15) / 12.10e-15 < 0.15
                  and abs(bvd["l_s_h"] - 131.8e-9) / 131.8e-9 < 0.15
                  and abs(bvd["r_s_ohm"] - 0.890) / 0.890 < 0.15
                  and abs(bvd["q"] - q_target) / q_target < 0.20)
            return ok, {}
        if name == "coupling-sweep":  # criterion 3
            ok = (abs(summary["max_g_hz"] - 7.3e6) / 7.3e6 < 0.10
                  and summary["on_off_ratio"] >= 300
                  and abs(summary["phi_at_max"] - 0.5) < 0.01)
            return ok, {}
        if name == "loss-spectrum":
            # at phi = 0.25 the coupler is open, so only the flat background
            # 1/(omega*T1) remains; all losses are finite and positive
            rows = _read_csv(Path(out_dir) / "loss.csv")
            omega = TWO_PI * rows[:, 0]
            background = 1.0 / (omega * 20e-6)
            ok = (np.all(np.isfinite(rows)) and np.all(rows[:, 1:] > 0)
                  and np.max(np.abs(rows[:, 3] / background - 1.0)) < 1e-5
                  and 0.26 <= summary["phi_moderate"] <= 0.5)
            return bool(ok), {}
        # thermometry (criterion 8): recovered populations within 5 sigma
        params = self.docs["thermometry"]["params"]
        targets = {"qubit": params["qubit_population"],
                   "post_swap": params["resonator_population"]}
        ok = all(
            1e-4 < summary[k]["sigma"] < 5e-4
            and abs(summary[k]["population"] - targets[k]) < 5 * summary[k]["sigma"]
            for k in targets
        )
        return ok, {}


class Dynamics:
    """Propagation-bound scenarios; ``lindblad`` does > 95 % of the work.

    Why: the parts span the axes a propagator change can win on one side of
    and lose on the other.

    * chevron: dim 10, ten seeded distinct detunings on one uniform tau
      grid, one ``batched_excited_traces`` call each; a propagator cached per
      (delta, span) is reused along tau but never across detunings.
    * fock2: five ``run_sequence`` calls of the |2> synthesis sequence with
      cosine-ramped swap pulses at seeded interaction times.
    * lifetimes: the ``lifetimes`` scenario through the CLI; its fixed 1.5 us
      swap-hold-swap far point dominates its cost. The hold runs through
      private names of ``cli`` and ``lindblad``, so in the traced run it
      shows as ``cli.self_s``.
    * large-alpha: a reduced ``large-alpha`` scan through the CLI at dim 50
      (4 displacements, 10 times up to 25 ns), where rho is 100x100 and the
      working set is larger.

    The lifetimes hold costs 18-27 s whatever its grid, so the other three
    parts are sized to weigh about as much together (44-49 % of a pass in
    ten runs): a change that wins on the hold and loses on them moves
    ``wall_s`` both ways. Grid
    sizes are fixed; the seed moves only values, so every seed does about
    the same work.
    """

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.params = lb.SystemParams()
        self.deltas = TWO_PI * np.sort(rng.uniform(-20e6, 20e6, 10))
        self.taus = np.linspace(1e-9, 60e-9, 16)
        self.fock2_taus = np.sort(rng.uniform(16e-9, 32e-9, 5))
        self.lifetimes_doc = {"kind": "lifetimes", "params": {
            "t_max_s": 200e-9 * float(rng.uniform(0.98, 1.02)), "n_points": 6}}
        self.large_alpha_doc = {"kind": "large-alpha", "params": {
            "dim": 50, "n_alpha": 4, "alpha_max": float(rng.uniform(3.0, 5.0)),
            "initial_fock": int(rng.integers(0, 2)), "tau_max_s": 25e-9, "n_tau": 10}}
        u = lb.qubit_rotation("x", math.pi, 0.0, self.params.dim)
        self.chevron_rho0 = u @ lb.thermal_state(self.params) @ u.conj().T

    def prepare(self):
        pass  # every input is a seeded draw

    def ops(self, workdir):
        p = self.params
        ops = []
        for i, delta in enumerate(self.deltas):
            ops.append((f"chevron:{i}", lambda d=delta: lb.batched_excited_traces(
                [self.chevron_rho0], p, self.taus, delta=d)[0]))
        for i, tau in enumerate(self.fock2_taus):
            ops.append((f"fock2:{i}", lambda t=tau: lb.run_sequence(lb.fock2_sequence(p, t), p)))
        ops.append(("lifetimes", lambda: cli.execute_scenario(
            cli.parse_scenario(self.lifetimes_doc), workdir / "lifetimes")))
        ops.append(("large-alpha", lambda: cli.execute_scenario(
            cli.parse_scenario(self.large_alpha_doc), workdir / "large-alpha")))
        return ops

    def references(self):
        exact = ExactModel(self.params)
        rho0 = exact.rotation("x", math.pi, 0.0)
        rho0 = rho0 @ exact.thermal_state() @ rho0.conj().T
        self.ref = {}
        for i, delta in enumerate(self.deltas):
            self.ref[f"chevron:{i}"] = exact.excited_traces([rho0], self.taus, delta=delta)[0]
        for i, tau in enumerate(self.fock2_taus):
            p_e, rho = exact.run_sequence(lb.fock2_sequence(self.params, tau))
            self.ref[f"fock2:{i}"] = np.concatenate([p_e, exact.populations(rho)])
        self.ref["lifetimes"] = self._lifetimes_reference()
        self.ref["large-alpha"] = self._large_alpha_reference()

    def _lifetimes_reference(self):
        """Exact P_e of the swap-hold-swap scans written to t1r.csv/t2r.csv."""
        params = lb.SystemParams(delta=TWO_PI * 53e6)
        exact = ExactModel(params)
        lp = self.lifetimes_doc["params"]
        waits = np.linspace(2e-9, lp["t_max_s"], lp["n_points"])
        swap = lb.swap_segment(params)
        cols = []
        for angle, pulse in ((math.pi, None), (math.pi / 2, "x90"), (math.pi / 2, "y90")):
            col = []
            for w in waits:
                seq = lb.PulseSequence([lb.Rotation("x", angle), swap, lb.Idle(w), swap])
                if pulse is not None:
                    seq.append(lb.TOMOGRAPHY_PULSES[pulse])
                seq.append(lb.Measure())
                col.append(exact.run_sequence(seq)[0][-1])
            cols.append(col)
        return np.column_stack([waits] + cols)

    def _large_alpha_reference(self):
        lp = self.large_alpha_doc["params"]
        exact = ExactModel(lb.SystemParams(dim=lp["dim"]), sectors=(0,))
        taus = np.linspace(1e-9, lp["tau_max_s"], lp["n_tau"])
        base = np.zeros((2 * lp["dim"],) * 2, dtype=complex)
        base[lp["initial_fock"], lp["initial_fock"]] = 1.0
        rhos = []
        for a in np.linspace(0.0, lp["alpha_max"], lp["n_alpha"]):
            d = exact.displacement(complex(a))
            rhos.append(d @ base @ d.conj().T)
        return exact.excited_traces(rhos, taus)

    def check(self, name, out):
        ref = self.ref[name]
        if name.startswith("chevron"):
            err = float(np.max(np.abs(out - ref)))
            return err <= DIM10_TOL, {"lindblad_abs_err": err}
        if name.startswith("fock2"):
            got = np.concatenate([out.p_e, lb.resonator_populations(out.rho_final)])
            err = float(np.max(np.abs(got - ref)))
            return err <= DIM10_TOL, {"lindblad_abs_err": err}
        if name == "lifetimes":
            t1r = _read_csv(Path(out) / "t1r.csv")
            t2r = _read_csv(Path(out) / "t2r.csv")
            got = np.column_stack([t1r, t2r[:, 1:]])
            err = float(np.max(np.abs(got[:, 1:] - ref[:, 1:])))
            s = json.loads((Path(out) / "summary.json").read_text())
            # the fitted lifetimes recover the model's own inputs
            ok = (err <= CSV_TOL
                  and np.allclose(got[:, 0], ref[:, 0], rtol=1e-3)
                  and abs(s["t1r_s"] / 148e-9 - 1.0) < 0.05
                  and abs(s["t2r_over_t1r"] / 2.0 - 1.0) < 0.10
                  and abs(s["idle_oscillation_hz"] / 53e6 - 1.0) < 0.05)
            return ok, {"artifact_abs_err": err}
        rows = _read_csv(Path(out) / "large_alpha.csv")
        got = rows[:, 2].reshape(ref.shape)
        err = float(np.max(np.abs(got - ref)))
        return err <= DIM50_CSV_TOL, {"artifact_dim50_abs_err": err}


def _prepared_states(exact, params, states):
    """Exact prepared states after the qubit measurement's back-action."""
    out = {}
    for state in states:
        _, rho = exact.run_sequence(lb.prepare_sequence(state, params))
        out[state] = _dephased(rho)
    return out


class Wigner:
    """The fig4d pipeline: synthesize, analyze and score each prepared state.

    Why: this is the paper's headline chain. Synthesis and analysis both run
    batched traces on the same tau grid, so a cache shared across that
    boundary shows only here, and so does a change of synthesis dim. The
    grid is reduced to 17 displacements (a 4x4 square of seeded half-width
    plus the origin, above the 15 needed for identifiability) and 30 times
    up to 60 ns. The benchmark adds seeded Gaussian readout noise to the
    noise-free synthesized traces, so those traces can be checked against
    the exact model before the fits see them.

    The traces are checked against the exact model at the parameters the
    returned dataset reports, so a synthesis at another dim is judged on
    its propagation at that dim. Whether a truncation is good enough is
    judged by the truth checks: on so short a tau grid a single record's
    high-n populations are poorly determined (per-record errors reach
    0.15), so they are on the reconstructed state, its displaced
    populations against those of the exactly prepared state, plus the
    criterion-7 fidelities.
    """

    STATES = ("0", "1", "0+1")
    NOISE = 2e-4

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.params = lb.SystemParams()
        self.alphas = tg.default_alpha_grid(radius=float(rng.uniform(0.9, 1.1)), n_side=4)
        self.t_grid = np.linspace(2e-9, 60e-9, 30)
        self.noise = {s: self.NOISE * rng.standard_normal((len(self.alphas), self.t_grid.size))
                      for s in self.STATES}
        self._exact = {}

    def prepare(self):
        pass  # every input is a seeded draw

    def ops(self, workdir):
        return [(state, lambda s=state: self._pipeline(s)) for state in self.STATES]

    def _pipeline(self, state):
        ds = tg.synthesize_dataset(state, self.params, alphas=self.alphas, t_grid=self.t_grid)
        clean = np.array([r.p_e for r in ds.records])
        noisy = dataclasses.replace(ds, records=[
            dataclasses.replace(r, p_e=r.p_e + n) for r, n in zip(ds.records, self.noise[state])])
        fits, recon = tg.analyze_dataset(noisy)
        value, _ = tg.fidelity(recon.rho, _target_psi(state, recon.rho_small), recon.covariance)
        return ds.params, clean, fits, recon.rho, value

    def references(self):
        self._reference(self.params)

    def _reference(self, params):
        """Exact displaced prepared states at ``params`` (cached): the
        resonator displacements, and per state the P_e traces on the tau grid
        and the resonator populations."""
        if params not in self._exact:
            exact = ExactModel(params)
            traces = ExactModel(params, sectors=(0,))
            ref = {"displacements": [exact.resonator_displacement(-a) for a in self.alphas]}
            for state, rho in _prepared_states(exact, params, self.STATES).items():
                displaced = []
                for alpha in self.alphas:
                    d = exact.displacement(-alpha)
                    displaced.append(d @ rho @ d.conj().T)
                ref[state] = (traces.excited_traces(displaced, self.t_grid),
                              exact.populations(np.array(displaced)))
            self._exact[params] = ref
        return self._exact[params]

    def _at_dim(self, dim):
        return self._reference(dataclasses.replace(self.params, dim=dim))

    def check(self, name, out):
        synth_params, clean, fits, rho, value = out
        ref_traces = self._reference(synth_params)[name][0]
        trace_err = float(np.max(np.abs(clean - ref_traces)))
        # fits and reconstruction are compared with the truth at their own dim
        fit_truth = self._at_dim(fits[0].p_n.size)[name][1]
        fit_err = float(max(np.max(np.abs(f.p_n - p)) for f, p in zip(fits, fit_truth)))
        truth = self._at_dim(rho.shape[0])
        state_err = float(max(
            np.max(np.abs(np.diag(d @ rho @ d.conj().T).real - p))
            for d, p in zip(truth["displacements"], truth[name][1])))
        ok, dev = _fidelity_check(name, value)
        ok = ok and trace_err <= SYNTH_TOL and state_err <= WIGNER_STATE_TOL
        return ok, {"lindblad_abs_err": trace_err, "fit_abs_err": fit_err,
                    "state_abs_err": state_err, **dev}


class Reanalysis:
    """Fits of seeded noisy records against one precomputed response matrix.

    Why: the only workload where ``tomography`` does most of the work and
    ``lindblad`` does none that is timed, so an estimator change (faster
    population fits, vectorised fidelity) shows end to end here. Each pass
    fits 25 records (the default 5x5 displacement grid and 90-point tau
    grid) for each of the three fig4d states, then reconstructs and scores
    each state. Records are exact convex combinations of the
    response matrix's rows plus seeded noise, so the true populations are
    known exactly. The truth and the response matrix come from the
    benchmark's exact model in ``prepare()``, outside the timed set-up,
    because no library change can move their cost.
    """

    STATES = ("0", "1", "0+1")
    NOISE = 2e-4

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.params = lb.SystemParams()
        self.alphas = tg.default_alpha_grid()
        self.t_grid = np.linspace(2e-9, 360e-9, 90)
        self.initial_p_e = float(rng.uniform(0.005, 0.02))
        self.noise = {s: self.NOISE * rng.standard_normal((len(self.alphas), self.t_grid.size))
                      for s in self.STATES}

    def prepare(self):
        exact = ExactModel(self.params)
        self.truth = {}  # populations of each displaced prepared state
        for state, rho in _prepared_states(exact, self.params, self.STATES).items():
            pops = []
            for alpha in self.alphas:
                d = exact.displacement(-alpha)
                pops.append(exact.populations(d @ rho @ d.conj().T))
            self.truth[state] = np.array(pops)
        # response to each Fock state with the qubit in its residual mixture
        rho_q = np.diag([1.0 - self.initial_p_e, self.initial_p_e])
        dim = self.params.dim
        fock = [np.kron(rho_q, np.diag(np.eye(dim)[n])).astype(complex) for n in range(dim)]
        self.responses = ExactModel(self.params, sectors=(0,)).excited_traces(fock, self.t_grid)
        self.records = {
            state: [tg.TraceRecord(alpha, self.t_grid, self.responses.T @ p + n, self.initial_p_e)
                    for alpha, p, n in zip(self.alphas, self.truth[state], self.noise[state])]
            for state in self.STATES
        }

    def references(self):
        pass  # the truth is built with the inputs

    def ops(self, workdir):
        return [(state, lambda s=state: self._pipeline(s)) for state in self.STATES]

    def _pipeline(self, state):
        fits = [tg.fit_populations(rec, self.params, responses=self.responses)
                for rec in self.records[state]]
        recon = tg.reconstruct_density_matrix(fits)
        value, _ = tg.fidelity(recon.rho, _target_psi(state, recon.rho_small), recon.covariance)
        return fits, value

    def check(self, name, out):
        fits, value = out
        fit_err = float(max(np.max(np.abs(f.p_n - p)) for f, p in zip(fits, self.truth[name])))
        ok, dev = _fidelity_check(name, value)
        return ok and fit_err <= REANALYSIS_FIT_TOL, {"fit_abs_err": fit_err, **dev}


WORKLOADS = {
    "device-chain": DeviceChain,
    "dynamics": Dynamics,
    "wigner": Wigner,
    "reanalysis": Reanalysis,
}
