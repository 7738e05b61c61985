"""The benchmark's output checks pass seed output and reject perturbed output.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import oracle
import workloads as wk
from phonon_lab import lindblad as lb, tomography as tg
from worker import check_passes


@pytest.fixture(scope="module")
def dynamics():
    wl = wk.Dynamics(3)
    wl.references()
    return wl


def _op(wl, name, workdir="."):
    return dict(wl.ops(workdir))[name]()


def test_seed_chevron_passes_and_perturbed_fails(dynamics):
    out = _op(dynamics, "chevron:0")
    ok, dev = dynamics.check("chevron:0", out)
    assert ok and dev["lindblad_abs_err"] < wk.DIM10_TOL / 3
    assert not dynamics.check("chevron:0", out + 1e-9)[0]


@pytest.mark.skipif(not hasattr(lb, "DEFAULT_DT"), reason="library has no RK4 step constant")
def test_rk4_at_four_times_the_step_fails(dynamics):
    p = dynamics.params
    coarse = lb.batched_excited_traces(
        [dynamics.chevron_rho0], p, dynamics.taus, delta=dynamics.deltas[0], dt=4 * lb.DEFAULT_DT)[0]
    assert not dynamics.check("chevron:0", coarse)[0]
    seq = lb.fock2_sequence(p, dynamics.fock2_taus[0])
    assert not dynamics.check("fock2:0", lb.run_sequence(seq, p, dt=4 * lb.DEFAULT_DT))[0]


def test_failed_checks_and_raised_calls_are_counted(dynamics):
    good = _op(dynamics, "chevron:0")
    outputs = [("chevron:0", good, None),
               ("chevron:0", good * (1 + 1e-8), None),
               ("chevron:1", None, "Traceback: raised in the timed call")]
    attempted, failed, dev = check_passes(dynamics, [({}, outputs)], "test")
    assert (attempted, failed) == (3, 2)
    assert dev["lindblad_abs_err"] > wk.DIM10_TOL


def test_device_chain_criteria(tmp_path):
    wl = wk.DeviceChain(3)
    out = _op(wl, "admittance", tmp_path)
    assert wl.check("admittance", out)[0]
    summary = json.loads((out / "summary.json").read_text())
    summary["resonance_hz"] += 6e6  # outside criterion 1's 5 MHz
    (out / "summary.json").write_text(json.dumps(summary))
    assert not wl.check("admittance", out)[0]


def test_reanalysis_truth_and_fidelity():
    wl = wk.Reanalysis(3)
    wl.prepare()
    fits, value = _op(wl, "1")
    ok, dev = wl.check("1", (fits, value))
    assert ok and dev["fit_abs_err"] < wk.REANALYSIS_FIT_TOL / 2
    assert not wl.check("1", (fits, value + 2.5 * wk.FIDELITY_TOL))[0]
    moved = fits[0].p_n.copy()
    moved[:2] = moved[1::-1] + np.array([0.1, -0.1])  # swap and shift two levels
    fits[0].p_n = moved
    assert not wl.check("1", (fits, value))[0]


def test_wigner_traces_are_checked_at_the_synthesis_dim():
    wl = wk.Wigner(3)
    _, _, fits, rho, value = _op(wl, "1")
    # the same state synthesized at a larger dim, as a converged synthesis would
    p12 = dataclasses.replace(wl.params, dim=12)
    ds = tg.synthesize_dataset("1", p12, alphas=wl.alphas, t_grid=wl.t_grid)
    clean = np.array([r.p_e for r in ds.records])
    wl.references()
    ok, dev = wl.check("1", (ds.params, clean, fits, rho, value))
    assert ok and dev["lindblad_abs_err"] < wk.SYNTH_TOL
    # the seed's dim-10 model would have rejected these traces for their truncation
    assert np.max(np.abs(clean - wl._reference(wl.params)["1"][0])) > wk.SYNTH_TOL
    # a perturbed trace still fails at the synthesis dim
    assert not wl.check("1", (ds.params, clean + 1e-7, fits, rho, value))[0]


def test_oracle_ramp_is_converged(monkeypatch):
    p = lb.SystemParams()
    rho = oracle.ExactModel(p).thermal_state()
    seq = lb.PulseSequence([lb.Rotation("x", math.pi), lb.swap_segment(p)])
    _, ref = oracle.ExactModel(p).run_sequence(seq, rho)
    monkeypatch.setattr(oracle, "RAMP_STEPS", 4 * oracle.RAMP_STEPS)
    _, fine = oracle.ExactModel(p).run_sequence(seq, rho)
    assert np.max(np.abs(fine - ref)) < 1e-11
