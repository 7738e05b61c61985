"""Acceptance suite: one test per numbered criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output); the asserts carry the same tolerances.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import curve_fit

from phonon_lab import circuit, cli, lindblad as lb, saw, tomography as tg

TWO_PI = 2 * math.pi


def report(number, ok, detail):
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def fig2_summary(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    start = time.monotonic()
    comparison = cli.reproduce("fig2", out)
    elapsed = time.monotonic() - start
    comparison["elapsed_s"] = elapsed
    return comparison


@pytest.fixture(scope="module")
def reference_bvd():
    return saw.reference_bvd()


class TestCriterion1SawResonance:
    def test_resonance_and_stop_band(self, fig2_summary):
        got = fig2_summary["computed"]
        ok = (
            abs(got["resonance_hz"] - 3.985e9) < 5e6
            and abs(got["stop_band_lo_hz"] - 3.96e9) < 10e6
            and abs(got["stop_band_hi_hz"] - 4.04e9) < 10e6
            and fig2_summary["elapsed_s"] < 30.0
        )
        report(
            1,
            ok,
            f"resonance {got['resonance_hz'] / 1e9:.4f} GHz, stop band "
            f"[{got['stop_band_lo_hz'] / 1e9:.4f}, {got['stop_band_hi_hz'] / 1e9:.4f}] GHz, "
            f"runtime {fig2_summary['elapsed_s']:.1f} s",
        )


class TestCriterion2BvdRegression:
    def test_equivalent_circuit_values(self, fig2_summary):
        bvd = fig2_summary["computed"]["bvd"]
        omega_r = TWO_PI * fig2_summary["computed"]["resonance_hz"]
        q_target = omega_r * 148e-9
        ok = (
            abs(bvd["c_s_f"] - 12.10e-15) / 12.10e-15 < 0.15
            and abs(bvd["l_s_h"] - 131.8e-9) / 131.8e-9 < 0.15
            and abs(bvd["r_s_ohm"] - 0.890) / 0.890 < 0.15
            and abs(bvd["q"] - q_target) / q_target < 0.20
        )
        report(
            2,
            ok,
            f"C_s {bvd['c_s_f'] * 1e15:.2f} fF, L_s {bvd['l_s_h'] * 1e9:.1f} nH, "
            f"R_s {bvd['r_s_ohm']:.3f} ohm, Q {bvd['q']:.0f} (target {q_target:.0f})",
        )


class TestCriterion3CouplingCurve:
    def test_maximum_and_range(self, reference_bvd):
        cp = circuit.CircuitParams()
        g_max = abs(circuit.coupling_strength(0.5, cp, reference_bvd)) / TWO_PI
        phi = np.linspace(0.0, 1.0, 1001)
        mags = np.abs(circuit.coupling_strength(phi, cp, reference_bvd))
        nonzero = mags[mags > 0]
        ratio = mags.max() / nonzero.min()
        at_half = abs(phi[int(np.argmax(mags))] - 0.5) < 0.01
        ok = abs(g_max - 7.3e6) / 7.3e6 < 0.10 and ratio >= 300 and at_half
        report(
            3,
            ok,
            f"max |g|/2pi {g_max / 1e6:.2f} MHz at phi=0.5, on/off ratio {ratio:.0f}",
        )


class TestCriterion4VacuumRabi:
    def test_swap_times(self):
        p = lb.SystemParams(
            t1=math.inf, t2_ramsey=math.inf, t1r=math.inf,
            p_e_th=0.0, p_1_th=0.0, visibility=1.0,
        )
        rho0 = np.kron(np.diag([0.0, 1.0]).astype(complex), lb.fock_state(p.dim, 0))
        seq = lb.PulseSequence([lb.Couple(p.g, 40e-9)])
        t = np.linspace(30e-9, 38e-9, 1601)
        p_e = lb.excited_probability(lb.run_sequence(seq, p, rho0, t).states, p)
        i = int(np.argmin(p_e))
        a, b, c = p_e[i - 1], p_e[i], p_e[i + 1]
        t_swap = t[i] + 0.5 * (a - c) / (a - 2 * b + c) * (t[1] - t[0])
        analytic = math.pi / (2 * p.g)

        # ramped pulse: transfer completes once the pulse area reaches pi/2
        durations = np.linspace(30e-9, 46e-9, 33)
        finals = []
        for d in durations:
            seq_r = lb.PulseSequence([lb.Couple(p.g, d, 0.0, 5e-9)])
            res = lb.run_sequence(seq_r, p, rho0=rho0)
            finals.append(lb.excited_probability(res.rho_final, p))
        d_eff = float(durations[int(np.argmin(finals))])
        ok = abs(t_swap - analytic) < 0.1e-9 and 34e-9 <= d_eff <= 40e-9
        report(
            4,
            ok,
            f"bare swap {t_swap * 1e9:.3f} ns (analytic {analytic * 1e9:.3f}), "
            f"ramped swap {d_eff * 1e9:.1f} ns",
        )


class TestCriterion5Lifetimes:
    def test_t1r_t2r(self, tmp_path):
        scn = cli.parse_scenario({"kind": "lifetimes"})
        cli.execute_scenario(scn, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        t1r = summary["t1r_s"]
        ratio = summary["t2r_over_t1r"]
        osc = summary["idle_oscillation_hz"]
        ok = (
            abs(t1r - 148e-9) / 148e-9 < 0.01
            and abs(ratio - 2.0) / 2.0 < 0.05
            and abs(osc - 53e6) / 53e6 < 0.05
        )
        report(
            5,
            ok,
            f"T1r {t1r * 1e9:.1f} ns, T2r/T1r {ratio:.3f}, idle oscillation "
            f"{osc / 1e6:.1f} MHz",
        )


class TestCriterion6Chevron:
    def test_generalized_rabi_frequencies(self):
        params = lb.SystemParams(visibility=1.0)
        rho0 = lb.thermal_state(params)
        u = lb.qubit_rotation("x", math.pi, 0.0, params.dim)
        rho0 = u @ rho0 @ u.conj().T
        taus = np.linspace(1e-9, 200e-9, 201)
        worst = 0.0
        for delta_hz in np.linspace(-20e6, 20e6, 9):
            delta = TWO_PI * delta_hz
            trace = lb.batched_excited_traces([rho0], params, taus, delta=delta)[0]
            f_expected = math.sqrt(delta**2 + 4 * params.g**2) / TWO_PI

            def model(t, amp, freq, phase, tau, offset):
                return amp * np.cos(TWO_PI * freq * t + phase) * np.exp(-t / tau) + offset

            popt, _ = curve_fit(
                model, taus, trace,
                p0=[0.4, f_expected, 0.0, 500e-9, 0.5], maxfev=40000,
            )
            err = abs(abs(popt[1]) - f_expected) / f_expected
            worst = max(worst, err)
        ok = worst < 0.02
        report(6, ok, f"worst oscillation-frequency error {worst * 100:.2f}%")


class TestCriterion7TomographyEndToEnd:
    def test_state_synthesis_fidelities(self):
        start = time.monotonic()
        params = lb.SystemParams()
        targets = {"0": 0.998, "1": 0.879, "0+1": 0.962}
        results = {}
        min_wigner_fock1 = None
        for state, target in targets.items():
            ds = tg.synthesize_dataset(state, params)
            fits, recon = tg.analyze_dataset(ds)
            if state == "0":
                psi = np.array([1, 0, 0, 0], dtype=complex)
            elif state == "1":
                psi = np.array([0, 1, 0, 0], dtype=complex)
                min_wigner_fock1 = min(tg.wigner_point(f.p_n) for f in fits)
            else:
                phase = np.angle(recon.rho_small[0, 1])
                psi = np.array([1, np.exp(1j * phase), 0, 0], dtype=complex) / math.sqrt(2)
            value, _ = tg.fidelity(recon.rho, psi, recon.covariance)
            results[state] = value
        elapsed = time.monotonic() - start
        ok = (
            all(abs(results[s] - targets[s]) <= 0.02 for s in targets)
            and min_wigner_fock1 < 0.0
            and elapsed < 600.0
        )
        report(
            7,
            ok,
            "fidelities "
            + ", ".join(f"{s}: {results[s]:.4f} (target {targets[s]})" for s in targets)
            + f", min W for Fock-1 {min_wigner_fock1:.3f}, runtime {elapsed:.0f} s",
        )


class TestCriterion8Thermometry:
    def test_population_recovery(self, tmp_path):
        scn = cli.parse_scenario({"kind": "thermometry", "seed": 1})
        cli.execute_scenario(scn, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        qubit = summary["qubit"]
        swap = summary["post_swap"]
        ok = (
            abs(qubit["population"] - 0.0169) < 0.001
            and abs(swap["population"] - 0.0049) < 0.001
            and 1e-4 < qubit["sigma"] < 5e-4
            and 1e-4 < swap["sigma"] < 5e-4
        )
        report(
            8,
            ok,
            f"qubit {qubit['population']:.4f} +- {qubit['sigma']:.1e}, "
            f"post-swap {swap['population']:.4f} +- {swap['sigma']:.1e}",
        )


class TestCriterion9FockTwo:
    def test_optimal_time_populations(self):
        params = lb.SystemParams()
        best = None
        for tau in np.linspace(16e-9, 32e-9, 17):
            res = lb.run_sequence(lb.fock2_sequence(params, tau), params)
            pops = lb.resonator_populations(res.rho_final)
            if best is None or pops[2] > best[2]:
                best = pops
        ok = (
            abs(best[2] - 0.473) < 0.03
            and abs(best[1] - 0.382) < 0.03
            and abs(best[0] - 0.145) < 0.03
        )
        report(
            9,
            ok,
            f"populations (P2, P1, P0) = ({best[2]:.3f}, {best[1]:.3f}, {best[0]:.3f})",
        )


class TestCriterion10PropertySuites:
    def test_trajectory_physicality_100(self):
        rng = np.random.default_rng(77)
        worst_trace, worst_eig, worst_herm = 0.0, 0.0, 0.0
        for _ in range(100):
            dim = int(rng.integers(3, 7))
            p = lb.SystemParams(
                g=TWO_PI * rng.uniform(2e6, 12e6),
                delta=TWO_PI * rng.uniform(-20e6, 20e6),
                t1=rng.uniform(2e-6, 40e-6),
                t2_ramsey=rng.uniform(0.4e-6, 3e-6),
                t1r=rng.uniform(40e-9, 500e-9),
                dim=dim,
                p_e_th=rng.uniform(0, 0.05),
                p_1_th=rng.uniform(0, 0.05),
            )
            rho0 = lb.thermal_state(p)
            u = lb.qubit_rotation("x", rng.uniform(0, math.pi), rng.uniform(0, TWO_PI), dim)
            rho0 = u @ rho0 @ u.conj().T
            seq = lb.PulseSequence([lb.Couple(p.g, 40e-9, p.delta)])
            rho = lb.run_sequence(seq, p, rho0, np.linspace(0, 40e-9, 6)).rho_final
            worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
            worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
            worst_eig = max(worst_eig, -float(np.min(np.linalg.eigvalsh(rho))))
        ok = worst_trace < 1e-9 and worst_eig < 1e-8 and worst_herm < 1e-10
        report(
            10,
            ok,
            f"100 trajectories: |trace-1| <= {worst_trace:.1e}, "
            f"min eig >= -{worst_eig:.1e}, hermiticity {worst_herm:.1e}",
        )

    def test_parity_equivalence_small_dims(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for dim in (3, 4, 5, 6):
            for _ in range(5):
                x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                rho = x @ x.conj().T
                rho /= np.trace(rho).real
                alpha = complex(rng.normal(0, 0.6), rng.normal(0, 0.6))
                d = lb.displacement_operator(dim, -alpha, check=False)
                displaced = d @ rho @ d.conj().T
                w_pops = tg.wigner_point(np.diag(displaced).real)
                w_parity = float(
                    2 / math.pi * np.trace(displaced @ tg.parity_operator(dim)).real
                )
                worst = max(worst, abs(w_pops - w_parity))
        assert worst < 1e-10
        print(f"CRITERION 10 (parity): PASS - max deviation {worst:.2e}")

    def test_displacement_poisson_statistics(self):
        dim = 50
        worst = 0.0
        for alpha in (0.5, 1.0, 2.0):
            d = lb.displacement_operator(dim, alpha)
            vac = np.zeros(dim, dtype=complex)
            vac[0] = 1.0
            pops = np.abs(d @ vac) ** 2
            n = np.arange(dim)
            log_expected = -alpha**2 + 2 * n * np.log(alpha) - np.array(
                [math.lgamma(k + 1) for k in n]
            )
            expected = np.exp(log_expected)
            worst = max(worst, float(np.max(np.abs(pops - expected))))
        assert worst < 1e-4
        print(f"CRITERION 10 (poisson): PASS - max deviation {worst:.2e}")

    def test_bvd_and_circuit_fit_roundtrips(self):
        rng = np.random.default_rng(23)
        worst_bvd = 0.0
        for _ in range(8):
            truth = saw.BvdParams(
                c_s=rng.uniform(5, 30) * 1e-15,
                l_s=rng.uniform(50, 300) * 1e-9,
                r_s=rng.uniform(0.3, 5.0),
                c_t=rng.uniform(0.3, 1.5) * 1e-12,
            )
            f0 = truth.omega_s / TWO_PI
            grid = TWO_PI * np.linspace(f0 - 10e6, f0 + 10e6, 1201)
            spec = saw.AdmittanceSpectrum(grid, truth.admittance(grid))
            fit, _ = saw.fit_bvd(spec, c_t=truth.c_t)
            for got, want in (
                (fit.c_s, truth.c_s), (fit.l_s, truth.l_s), (fit.r_s, truth.r_s)
            ):
                worst_bvd = max(worst_bvd, abs(got - want) / want)

        # spectroscopy-grade frequency precision (sub-MHz on ~4.7 GHz)
        worst_circ = 0.0
        for seed in range(6):
            rng_i = np.random.default_rng(100 + seed)
            truth = circuit.CircuitParams(
                l_q=rng_i.uniform(8, 12) * 1e-9,
                l_1=rng_i.uniform(0.25, 0.40) * 1e-9,
                l_2=rng_i.uniform(0.30, 0.50) * 1e-9,
            )
            phi = np.linspace(0.02, 0.98, 400)
            omega = np.array([circuit.qubit_frequency(x, truth) for x in phi])
            omega = omega * (1.0 + 1e-4 * rng_i.standard_normal(phi.size))
            fit, _ = circuit.fit_circuit(np.column_stack([phi, omega]))
            for got, want in (
                (fit.l_q, truth.l_q), (fit.l_1, truth.l_1), (fit.l_2, truth.l_2)
            ):
                worst_circ = max(worst_circ, abs(got - want) / want)
        ok = worst_bvd < 0.02 and worst_circ < 0.02
        assert ok, (worst_bvd, worst_circ)
        print(
            f"CRITERION 10 (round trips): PASS - BvD {worst_bvd * 100:.3f}%, "
            f"circuit {worst_circ * 100:.2f}%"
        )
