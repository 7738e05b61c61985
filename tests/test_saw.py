import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from phonon_lab import _lsq, saw
from phonon_lab.errors import ConvergenceError, DomainError, FitError, GridError

TWO_PI = 2 * math.pi


def ode_section_pmatrix(delta, c12, a1, length, k_c):
    """Brute-force P-matrix of a uniform section from the envelope ODEs.

    dc1/dx = -i*delta*c1 + c12*c2 + a1*V
    dc2/dx = +i*delta*c2 + conj(c12)*c1 + conj(a1)*V
    dI/dx  = 2*conj(a1)*c1 - 2*a1*c2
    """

    def rhs(x, y, volt):
        c1, c2, cur = y
        return [
            -1j * delta * c1 + c12 * c2 + a1 * volt,
            1j * delta * c2 + np.conj(c12) * c1 + np.conj(a1) * volt,
            2 * np.conj(a1) * c1 - 2 * a1 * c2,
        ]

    def integrate(c10, c20, volt):
        sol = solve_ivp(
            rhs, (0, length), [complex(c10), complex(c20), 0j], args=(volt,),
            rtol=1e-12, atol=1e-14,
        )
        return sol.y[:, -1]

    e1 = integrate(1, 0, 0.0)
    e2 = integrate(0, 1, 0.0)
    tmat = np.array([[e1[0], e2[0]], [e1[1], e2[1]]])
    part = integrate(0, 0, 1.0)

    phase = np.exp(-1j * k_c * length)
    r = -tmat[1, 0] / tmat[1, 1]
    p11 = r
    p12 = (tmat[0, 0] + tmat[0, 1] * r) * phase
    c20 = 1 / tmat[1, 1]
    p22 = tmat[0, 1] * c20 * phase**2
    p31 = integrate(1, r, 0.0)[2]
    p32 = integrate(0, c20, 0.0)[2] * phase
    q = -part[1] / tmat[1, 1]
    p33 = integrate(0, q, 1.0)[2]
    return np.array([p11, p12, p22, p31, p32, p33])


def mp_section_pmatrix(omega, v, length, c12, a1, eta, k_c, loading):
    """The closed forms of ``saw._section_pmatrix`` at one frequency in
    60-digit mpmath, with sin(s*L)/s and (cos(s*L) - 1)/s**2 taken as written."""
    with mpmath.workdps(60):
        omega, v, length, eta, k_c, loading = map(
            mpmath.mpf, (omega, v, length, eta, k_c, loading))
        c12, a1 = mpmath.mpc(c12), mpmath.mpc(a1)
        delta = (omega - k_c * v * (1 - loading)) / v - 1j * eta
        z = delta**2 - abs(c12) ** 2
        s = mpmath.sqrt(z)
        f1 = mpmath.sin(s * length) / s
        g3 = (mpmath.cos(s * length) - 1) / z
        d = mpmath.cos(s * length) + 1j * delta * f1
        phase = mpmath.exp(-1j * k_c * length)
        a1c = mpmath.conj(a1)
        k2g = (a1 * mpmath.conj(c12) + 1j * delta * a1c) * g3
        k1g = (a1c * c12 - 1j * delta * a1) * g3
        beta = a1**2 * mpmath.conj(c12) - a1c**2 * c12
        wgt = abs(a1) ** 2
        e = (beta + 2j * delta * wgt) * (f1 - length * d) + 2 * g3 * (
            wgt * (abs(c12) ** 2 + delta**2) - 1j * delta * beta)
        out = [
            -mpmath.conj(c12) * f1 / d,
            phase / d,
            c12 * f1 * phase**2 / d,
            2 * (a1c * f1 - k2g) / d,
            -2 * (a1 * f1 + k1g) * phase / d,
            2 * e / (z * d),
        ]
        return np.array([complex(x) for x in out])


class TestMirrorReflection:
    def test_zero_reflectivity_gives_zero(self):
        p = saw.SawModelParams(r_m=0.0)
        grid = saw.default_grid(3.8e9, 4.2e9, 101)
        assert np.allclose(saw.mirror_reflection(grid, p), 0.0)

    def test_bragg_tanh_law_five_lines(self):
        # N weak lines at the Bragg condition: |Gamma| = tanh(N*|r|)
        p = saw.SawModelParams(mirror_lines=5, r_m=-0.01j, eta=0.0)
        omega = TWO_PI * p.mirror_center_hz
        gamma = saw.mirror_reflection(omega, p)
        assert abs(abs(gamma) - math.tanh(5 * 0.01)) < 1e-6

    def test_stop_band_center_plateau(self):
        # at 4.00 GHz the reflection is near unity, reduced only by eta
        p = saw.SawModelParams()
        gamma = saw.mirror_reflection(TWO_PI * 4.00e9, p)
        c = 2 * abs(p.r_m) / p.wavelength
        q = math.hypot(c, p.eta)
        plateau = c / (q + p.eta)
        assert abs(abs(gamma) - plateau) < 0.01
        assert abs(gamma) > 0.97

    def test_stop_band_edges(self):
        p = saw.SawModelParams()
        grid = saw.default_grid(3.90e9, 4.10e9, 8001)
        mag = np.abs(saw.mirror_reflection(grid, p))
        f_hz = grid / TWO_PI
        ic = int(np.argmin(np.abs(f_hz - p.mirror_center_hz)))
        above = mag > 0.9
        i = ic
        while i > 0 and above[i - 1]:
            i -= 1
        lo = f_hz[i]
        i = ic
        while i < len(f_hz) - 1 and above[i + 1]:
            i += 1
        hi = f_hz[i]
        assert abs(lo - 3.96e9) < 10e6
        assert abs(hi - 4.04e9) < 10e6

    def test_reflection_bounded_random_params(self):
        rng = np.random.default_rng(7)
        grid = saw.default_grid(3.5e9, 4.5e9, 301)
        for _ in range(25):
            p = saw.SawModelParams(
                mirror_lines=int(rng.integers(1, 800)),
                r_m=-1j * rng.uniform(0.001, 0.2),
                eta=rng.uniform(0, 3000),
            )
            mag = np.abs(saw.mirror_reflection(grid, p))
            assert np.all(mag <= 1 + 1e-9)

    def test_lossless_strong_grating_saturates(self):
        p = saw.SawModelParams(mirror_lines=2000, r_m=-0.05j, eta=0.0)
        gamma = saw.mirror_reflection(TWO_PI * p.mirror_center_hz, p)
        assert abs(gamma) > 1 - 1e-12

    def test_rejects_bad_frequency(self):
        p = saw.SawModelParams()
        with pytest.raises(DomainError):
            saw.mirror_reflection(float("nan"), p)
        with pytest.raises(DomainError):
            saw.mirror_reflection(-1.0, p)

    def test_matches_ode_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            p = saw.SawModelParams(
                mirror_lines=int(rng.integers(5, 40)),
                r_m=complex(rng.normal() * 0.01, -rng.uniform(0.005, 0.04)),
                eta=rng.uniform(0, 2000),
            )
            f = rng.uniform(3.9e9, 4.1e9)
            omega = TWO_PI * f
            c12 = 2 * p.r_m / p.wavelength
            k_c = p.carrier_wavenumber
            delta = (omega - k_c * p.v_m * (1 - p.loading)) / p.v_m - 1j * p.eta
            ref = ode_section_pmatrix(delta, c12, 0.0, p.mirror_length, k_c)
            gamma = saw.mirror_reflection(omega, p)
            assert abs(gamma - ref[0]) < 1e-8


class TestTransducerResponse:
    def test_free_peak_location_and_asymmetry(self):
        p = saw.SawModelParams()
        grid = saw.default_grid(3.5e9, 4.5e9, 4001)
        pm = saw.transducer_response(grid, p)
        ga = pm.p33.real
        f_pk = grid[np.argmax(ga)] / TWO_PI
        assert 3.8e9 < f_pk < 4.1e9
        # asymmetric about the synchronous frequency
        f0 = p.transducer_center_hz
        off = 30e6
        g_lo = np.interp(f0 - off, grid / TWO_PI, ga)
        g_hi = np.interp(f0 + off, grid / TWO_PI, ga)
        assert abs(g_lo - g_hi) / max(g_lo, g_hi) > 0.05

    def test_unperturbed_sinc_oracle(self):
        p = saw.SawModelParams(r_t=0.0, eta=0.0)
        f0 = p.transducer_center_hz
        grid = TWO_PI * np.linspace(f0 - 150e6, f0 + 150e6, 501)
        pm = saw.transducer_response(grid, p)
        a1 = abs(saw.transduction_per_length(p))
        length = p.transducer_length
        delta = (grid - TWO_PI * f0) / p.v_t
        arg = delta * length / 2
        sinc = np.where(np.abs(arg) < 1e-12, 1.0, np.sin(arg) / np.where(arg == 0, 1, arg))
        ga_expected = 2 * a1**2 * length**2 * sinc**2
        assert np.allclose(pm.p33.real, ga_expected, rtol=1e-9, atol=1e-15)
        # symmetric envelope about the synchronous point
        assert np.allclose(pm.p33.real, pm.p33.real[::-1], rtol=1e-7, atol=1e-12)

    def test_reflection_breaks_symmetry(self):
        p = saw.SawModelParams(eta=0.0)
        f0 = p.transducer_center_hz
        grid = TWO_PI * np.linspace(f0 - 150e6, f0 + 150e6, 501)
        ga = saw.transducer_response(grid, p).p33.real
        assert not np.allclose(ga, ga[::-1], rtol=1e-3)

    def test_reciprocity_port_exchange(self):
        p = saw.SawModelParams()
        grid = saw.default_grid(3.8e9, 4.2e9, 41)
        pm = saw.transducer_response(grid, p)
        assert np.allclose(pm.p13, -0.5 * pm.p31)
        assert np.allclose(pm.p23, -0.5 * pm.p32)

    def test_matches_ode_oracle_with_transduction(self):
        p = saw.SawModelParams()
        omega = TWO_PI * 3.97e9
        c12 = 2 * p.r_t / p.wavelength
        a1 = saw.transduction_per_length(p)
        k_c = p.carrier_wavenumber
        delta = (omega - k_c * p.v_t * (1 - p.loading)) / p.v_t - 1j * p.eta
        ref = ode_section_pmatrix(delta, c12, a1, p.transducer_length, k_c)
        pm = saw.transducer_response(omega, p)
        got = np.array([pm.p11[0], pm.p12[0], pm.p22[0], pm.p31[0], pm.p32[0], pm.p33[0]])
        assert np.all(np.abs(got - ref) / (np.abs(ref) + 1e-30) < 1e-7)

    def test_band_edge_evaluation_is_finite_and_smooth(self):
        # s**2 -> 0 at the internal band edges; the series branch must kick in
        p = saw.SawModelParams(eta=0.0)
        f0 = p.transducer_center_hz
        half_band = 2 * abs(p.r_t) / p.wavelength * p.v_t / TWO_PI
        for sgn in (-1, 1):
            f_edge = f0 + sgn * half_band
            grid = TWO_PI * np.linspace(f_edge - 100.0, f_edge + 100.0, 401)
            ga = saw.transducer_response(grid, p).p33
            assert np.all(np.isfinite(ga))
            assert np.max(np.abs(np.diff(ga.real))) < 1e-3 * max(np.max(np.abs(ga.real)), 1e-12)

    @pytest.mark.parametrize("sgn", [-1, 1], ids=["lower", "upper"])
    def test_band_edge_matches_high_precision_closed_forms(self, sgn):
        # at eta = 0, z = delta**2 - |c12|**2 crosses zero at the band edges,
        # where p33 = 2E/(z d) takes its series
        p = saw.SawModelParams(eta=0.0)
        c12 = 2 * p.r_t / p.wavelength
        a1 = saw.transduction_per_length(p)
        f_edge = p.transducer_center_hz + sgn * abs(c12) * p.v_t / TWO_PI
        args = (p.v_t, p.transducer_length, c12, a1, 0.0, p.carrier_wavenumber, p.loading)
        for df in (-50.0, -5.0, -0.5, 0.0, 0.5, 5.0, 50.0):
            omega = TWO_PI * (f_edge + df)
            pm = saw._section_pmatrix(np.array([omega]), *args)
            got = np.array([pm.p11[0], pm.p12[0], pm.p22[0], pm.p31[0], pm.p32[0], pm.p33[0]])
            ref = mp_section_pmatrix(omega, *args)
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


class TestResonatorAdmittance:
    def test_single_dominant_peak_at_resonance(self):
        p = saw.SawModelParams()
        spec = saw.resonator_admittance(saw.default_grid(n=4001), p)
        g = spec.y.real
        ipk = int(np.argmax(g))
        f_pk = spec.frequencies_hz[ipk]
        assert abs(f_pk - 3.985e9) < 5e6
        # dominance: no other local max above 40% of the peak
        interior = (spec.frequencies_hz > 3.9e9) & (spec.frequencies_hz < 4.1e9)
        gi = g[interior]
        local_max = (gi[1:-1] > gi[:-2]) & (gi[1:-1] > gi[2:]) & (gi[1:-1] > 0.4 * g[ipk])
        assert np.count_nonzero(local_max) == 1

    def test_no_mirror_equals_bare_transducer(self):
        p = saw.SawModelParams(r_m=0.0)
        grid = saw.default_grid(3.8e9, 4.2e9, 801)
        spec = saw.resonator_admittance(grid, p)
        pm = saw.transducer_response(grid, p)
        y_t = pm.p33 + 1j * grid * p.c_t
        assert np.max(np.abs(spec.y - y_t) / np.abs(y_t)) < 1e-12

    def test_zero_gap_is_mirror_transducer_mirror(self):
        p = saw.SawModelParams(gap_t_m=0.0)
        grid = saw.default_grid(3.9e9, 4.1e9, 401)
        mirror = saw._mirror_section(grid, p)
        total = saw._cascade(saw._cascade(mirror, saw.transducer_response(grid, p)), mirror)
        y = total.p33 + 1j * grid * p.c_t
        spec = saw.resonator_admittance(grid, p)
        assert np.max(np.abs(spec.y - y) / np.abs(y)) < 1e-12

    def test_zero_lines_equals_zero_reflectivity(self):
        grid = saw.default_grid(3.9e9, 4.1e9, 401)
        y_a = saw.resonator_admittance(grid, saw.SawModelParams(mirror_lines=0)).y
        y_b = saw.resonator_admittance(grid, saw.SawModelParams(r_m=0.0)).y
        assert np.max(np.abs(y_a - y_b) / np.abs(y_b)) < 1e-12

    def test_loss_monotonicity(self):
        p = saw.SawModelParams()
        p10 = dataclasses.replace(p, eta=10 * p.eta)
        grid = saw.default_grid(3.96e9, 4.01e9, 4001)
        g1 = saw.resonator_admittance(grid, p).y.real
        g10 = saw.resonator_admittance(grid, p10).y.real

        def peak_and_width(g):
            ipk = int(np.argmax(g))
            half = g[ipk] / 2
            above = np.nonzero(g >= half)[0]
            return g[ipk], grid[above[-1]] - grid[above[0]]

        pk1, w1 = peak_and_width(g1)
        pk10, w10 = peak_and_width(g10)
        assert pk10 < pk1
        assert w10 > w1

    def test_passivity_random_params(self):
        rng = np.random.default_rng(11)
        grid = saw.default_grid(3.5e9, 4.5e9, 501)
        for _ in range(20):
            p = saw.SawModelParams(
                transducer_pairs=int(rng.integers(5, 40)),
                mirror_lines=int(rng.integers(0, 700)),
                v_t=rng.uniform(3950, 4050),
                v_m=rng.uniform(3950, 4100),
                r_t=-1j * rng.uniform(0, 0.05),
                r_m=-1j * rng.uniform(0, 0.08),
                eta=rng.uniform(0, 2000),
                gap_t_m=rng.uniform(0, 1e-6),
            )
            spec = saw.resonator_admittance(grid, p)
            assert spec.y.real.min() >= -1e-12

    def test_region_equals_per_period_cascade(self):
        # one uniform region == chained single-period sections
        p = saw.SawModelParams(mirror_lines=12)
        grid = saw.default_grid(3.95e9, 4.05e9, 7)
        whole = saw._mirror_section(grid, p)
        cell = saw._mirror_section(grid, dataclasses.replace(p, mirror_lines=1))
        acc = cell
        for _ in range(11):
            acc = saw._cascade(acc, cell)
        for name in ("p11", "p12", "p22"):
            assert np.allclose(getattr(acc, name), getattr(whole, name), atol=1e-12)

    def test_grid_validation(self):
        p = saw.SawModelParams()
        with pytest.raises(GridError):
            saw.resonator_admittance(np.array([]), p)
        with pytest.raises(GridError):
            saw.resonator_admittance(np.array([2.0e10, 1.0e10]), p)
        with pytest.raises(DomainError):
            saw.resonator_admittance(np.array([-1.0, 1.0]), p)


class TestBvdFit:
    def _model_spectrum(self, n=5001):
        p = saw.SawModelParams()
        coarse = saw.resonator_admittance(saw.default_grid(n=2001), p)
        f_pk = coarse.frequencies_hz[int(np.argmax(coarse.y.real))]
        grid = TWO_PI * np.linspace(f_pk - 12e6, f_pk + 12e6, n)
        return saw.resonator_admittance(grid, p)

    def test_model_spectrum_regression(self):
        spec = self._model_spectrum()
        bvd, _ = saw.fit_bvd(spec)
        assert abs(bvd.c_s - 12.10e-15) / 12.10e-15 < 0.15
        assert abs(bvd.l_s - 131.8e-9) / 131.8e-9 < 0.15
        assert abs(bvd.r_s - 0.890) / 0.890 < 0.15

    def test_quality_factor_consistent_with_phonon_lifetime(self):
        spec = self._model_spectrum()
        bvd, _ = saw.fit_bvd(spec)
        q_target = bvd.omega_s * 148e-9
        assert abs(bvd.q - q_target) / q_target < 0.20

    def test_synthetic_roundtrip_exact(self):
        truth = saw.BvdParams(c_s=12.10e-15, l_s=131.8e-9, r_s=0.890, c_t=0.75e-12)
        f0 = truth.omega_s / TWO_PI
        grid = TWO_PI * np.linspace(f0 - 8e6, f0 + 8e6, 2001)
        spec = saw.AdmittanceSpectrum(grid, truth.admittance(grid))
        fit, residual = saw.fit_bvd(spec, c_t=truth.c_t)
        assert abs(fit.c_s - truth.c_s) / truth.c_s < 1e-6
        assert abs(fit.l_s - truth.l_s) / truth.l_s < 1e-6
        assert abs(fit.r_s - truth.r_s) / truth.r_s < 1e-6
        assert residual < 1e-6

    def test_randomized_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            truth = saw.BvdParams(
                c_s=rng.uniform(5, 30) * 1e-15,
                l_s=rng.uniform(50, 300) * 1e-9,
                r_s=rng.uniform(0.3, 5.0),
                c_t=rng.uniform(0.3, 1.5) * 1e-12,
            )
            f0 = truth.omega_s / TWO_PI
            grid = TWO_PI * np.linspace(f0 - 10e6, f0 + 10e6, 1501)
            spec = saw.AdmittanceSpectrum(grid, truth.admittance(grid))
            fit, _ = saw.fit_bvd(spec, c_t=truth.c_t)
            for got, want in ((fit.c_s, truth.c_s), (fit.l_s, truth.l_s), (fit.r_s, truth.r_s)):
                assert abs(got - want) / want < 0.02

    def test_pure_capacitor_raises(self):
        grid = TWO_PI * np.linspace(3.9e9, 4.0e9, 501)
        spec = saw.AdmittanceSpectrum(grid, 1j * grid * 0.75e-12)
        with pytest.raises(FitError):
            saw.fit_bvd(spec, c_t=0.75e-12)

    def test_evaluation_cap_raises(self, monkeypatch):
        monkeypatch.setattr(_lsq, "MAX_NFEV", 2)
        with pytest.raises(ConvergenceError, match="evaluation cap"):
            saw.fit_bvd(self._model_spectrum(n=2001))


def test_levenberg_marquardt_singular_step_is_not_converged():
    # the second parameter never enters the residual: its Jacobian column is
    # zero, so every damped step's matrix is singular
    def fun(x):
        return np.array([x[0] - 1.0, x[0] + 1.0]), np.array([[1.0, 0.0], [1.0, 0.0]])

    with pytest.raises(ConvergenceError, match="toy fit did not converge") as info:
        _lsq.solve(fun, np.array([3.0, 2.0]), "toy", lambda x: x)
    assert np.array_equal(info.value.best, [3.0, 2.0])
    assert info.value.residual == math.hypot(2.0, 4.0)


def _log_cost(spec, bvd):
    """Residual and log-parameter Jacobian of the BvD fit's cost at ``bvd``.

    Rebuilt here from the fit's definition: the points within
    FIT_HALF_WIDTH_HZ of the conductance peak, Y - Y_data scaled by the peak
    conductance, real and imaginary parts stacked.
    """
    w, y = spec.frequencies, spec.y
    peak = int(np.argmax(y.real))
    window = np.abs(w - w[peak]) <= TWO_PI * saw.FIT_HALF_WIDTH_HZ
    w, y = w[window], y[window]
    g0 = y.real.max()
    z_c = 1.0 / (1j * w * bvd.c_s)
    z = bvd.r_s + 1j * w * bvd.l_s + z_c
    res = (1j * w * bvd.c_t + 1.0 / z - y) / g0
    dz = np.stack([-z_c, 1j * w * bvd.l_s, np.full(w.size, bvd.r_s)], axis=1)
    jac = -dz / (g0 * z[:, None] ** 2)
    return np.concatenate([res.real, res.imag]), np.vstack([jac.real, jac.imag])


def _start_guess(spec, c_t):
    """The fit's starting circuit: peak conductance, peak frequency and FWHM."""
    w, g = spec.frequencies, spec.y.real
    peak = int(np.argmax(g))
    w0, g0 = w[peak], g[peak]
    window = np.abs(w - w0) <= TWO_PI * saw.FIT_HALF_WIDTH_HZ
    above = w[window][g[window] >= g0 / 2.0]
    l_s = (w0 / (above[-1] - above[0])) / (g0 * w0)
    return saw.BvdParams(c_s=1.0 / (w0**2 * l_s), l_s=l_s, r_s=1.0 / g0, c_t=c_t)


class TestBvdFitIsTheMinimum:
    @pytest.fixture(scope="class")
    def spectrum(self):
        p = saw.SawModelParams()
        coarse = saw.resonator_admittance(saw.default_grid(n=1001), p)
        return saw.fit_resonance(coarse, p)[0]

    def test_reference_fit_is_stationary(self, spectrum):
        bvd = saw.reference_bvd()
        r_start, jac_start = _log_cost(spectrum, _start_guess(spectrum, bvd.c_t))
        r, jac = _log_cost(spectrum, bvd)
        grad = jac.T @ r
        # rounding c_s or l_s to the nearest double moves this ratio by about
        # 1.2e-10 per unit in the last place, so 1e-9 is the floor with margin;
        # the finite-difference fit this one replaced stopped at 1.2e-6
        assert np.linalg.norm(grad) <= 1e-9 * np.linalg.norm(jac_start.T @ r_start)
        # the Gauss-Newton step to the stationary point moves no parameter by 1e-12
        assert np.max(np.abs(np.linalg.solve(jac.T @ jac, grad))) <= 1e-12

    def test_cost_not_above_finite_difference_lm(self, spectrum):
        from scipy.optimize import least_squares

        bvd, residual = saw.fit_bvd(spectrum)
        start = _start_guess(spectrum, bvd.c_t)
        scale = np.array([start.c_s, start.l_s, start.r_s])

        def residuals(logx):
            c_s, l_s, r_s = np.exp(logx) * scale
            return _log_cost(spectrum, saw.BvdParams(c_s, l_s, r_s, bvd.c_t))[0]

        sol = least_squares(residuals, np.zeros(3), max_nfev=_lsq.MAX_NFEV, method="lm",
                            ftol=1e-14, xtol=1e-14, gtol=1e-14)
        assert residual**2 <= float(sol.fun @ sol.fun)
        assert residual == pytest.approx(float(np.linalg.norm(_log_cost(spectrum, bvd)[0])),
                                         rel=1e-12)


class TestReferenceDevice:
    def test_fit_resonance_window(self):
        p = saw.SawModelParams()
        coarse = saw.resonator_admittance(saw.default_grid(n=1001), p)
        fine, bvd, residual = saw.fit_resonance(coarse, p)
        f_pk = coarse.frequencies_hz[int(np.argmax(coarse.y.real))]
        assert fine.frequencies.size == 2001
        assert fine.frequencies_hz[0] == pytest.approx(f_pk - 12e6, abs=1.0)
        assert fine.frequencies_hz[-1] == pytest.approx(f_pk + 12e6, abs=1.0)
        assert bvd == saw.reference_bvd()
        assert residual < 0.2

    def test_reference_bvd_is_fitted_once(self, monkeypatch):
        calls = []
        fit_bvd = saw.fit_bvd

        def counting(*args, **kwargs):
            calls.append(args)
            return fit_bvd(*args, **kwargs)

        before = saw.reference_bvd()
        monkeypatch.setattr(saw, "fit_bvd", counting)
        saw.reference_bvd.cache_clear()
        first = saw.reference_bvd()
        assert len(calls) == 1
        assert saw.reference_bvd() is first
        assert len(calls) == 1
        assert first == before
