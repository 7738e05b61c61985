import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phonon_lab import lindblad as lb
from phonon_lab import tomography as tg
from phonon_lab.errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    FitError,
    IdentifiabilityError,
    IllConditionedFitWarning,
)

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def device_params():
    return lb.SystemParams()


@pytest.fixture(scope="module")
def trace_grid():
    return np.linspace(2e-9, 360e-9, 90)


@pytest.fixture(scope="module")
def responses(device_params, trace_grid):
    return tg.basis_responses(device_params, trace_grid, initial_p_e=0.03)


class TestFitPopulations:
    def test_noiseless_recovery(self, device_params, trace_grid, responses):
        p_true = np.zeros(10)
        p_true[:3] = [0.5, 0.3, 0.2]
        trace = responses.T @ p_true
        rec = tg.TraceRecord(0j, trace_grid, trace, 0.03)
        fit = tg.fit_populations(rec, device_params, responses=responses)
        assert np.max(np.abs(fit.p_n - p_true)) < 0.01

    def test_vacuum_trace(self, device_params, trace_grid, responses):
        trace = responses.T @ np.eye(10)[0]
        rec = tg.TraceRecord(0j, trace_grid, trace, 0.03)
        fit = tg.fit_populations(rec, device_params, responses=responses)
        assert fit.p_n[0] >= 0.99

    def test_uncertainty_scale_at_nominal_noise(self, device_params, trace_grid, responses):
        rng = np.random.default_rng(3)
        p_true = np.zeros(10)
        p_true[:3] = [0.5, 0.3, 0.2]
        trace = responses.T @ p_true + 0.015 * rng.standard_normal(trace_grid.size)
        rec = tg.TraceRecord(0j, trace_grid, trace, 0.03)
        fit = tg.fit_populations(rec, device_params, responses=responses)
        med = float(np.median(fit.sigma_n))
        assert 0.002 < med < 0.008

    def test_simplex_exact(self, device_params, trace_grid, responses):
        rng = np.random.default_rng(11)
        p_true = rng.dirichlet(np.ones(10))
        trace = responses.T @ p_true + 0.01 * rng.standard_normal(trace_grid.size)
        rec = tg.TraceRecord(0j, trace_grid, trace, 0.03)
        fit = tg.fit_populations(rec, device_params, responses=responses)
        assert np.all(fit.p_n >= 0)
        assert fit.p_n.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sigma_is_the_cost_curvature(self, device_params, trace_grid, responses):
        # sigma_n = sqrt(2 s^2 / h_nn), h_nn the central-difference second
        # derivative of the cost along level n
        rng = np.random.default_rng(3)
        p_true = np.zeros(10)
        p_true[:3] = [0.5, 0.3, 0.2]
        trace = responses.T @ p_true + 0.015 * rng.standard_normal(trace_grid.size)
        rec = tg.TraceRecord(0j, trace_grid, trace, 0.03)
        fit = tg.fit_populations(rec, device_params, responses=responses)

        def cost(p):
            r = responses.T @ p - trace
            return float(r @ r)

        s2 = fit.residual / (trace.size - 10)
        step = 1e-3
        for n in range(10):
            d = step * np.eye(10)[n]
            h_nn = (cost(fit.p_n + d) - 2.0 * cost(fit.p_n) + cost(fit.p_n - d)) / step**2
            assert fit.sigma_n[n] == pytest.approx(math.sqrt(2.0 * s2 / h_nn), rel=1e-6)

    def test_zero_response_column_has_infinite_sigma(self, closed_params, trace_grid):
        # with no residual qubit excitation the vacuum leaves the qubit in |g>
        responses = tg.basis_responses(closed_params, trace_grid, 0.0)
        assert not responses[0].any()
        rng = np.random.default_rng(9)
        trace = responses.T @ rng.dirichlet(np.ones(10)) + 0.01 * rng.standard_normal(
            trace_grid.size
        )
        rec = tg.TraceRecord(0j, trace_grid, trace, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = tg.fit_populations(rec, closed_params, responses=responses)
        assert fit.sigma_n[0] == math.inf
        assert np.all(np.isfinite(fit.sigma_n[1:]))

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_subnormal_response_column_has_infinite_sigma(
        self, device_params, trace_grid, noise
    ):
        # at this residual excitation the |0> column's squared norm is the
        # subnormal 7.2e-319: s^2 over it gave 6e143, or overflowed
        responses = tg.basis_responses(device_params, trace_grid, 2.46e-160)
        curvature = np.sum(responses[0] ** 2)
        assert 0.0 < curvature < np.finfo(float).tiny
        rng = np.random.default_rng(4)
        trace = responses.T @ rng.dirichlet(np.ones(10)) + noise * rng.standard_normal(
            trace_grid.size
        )
        rec = tg.TraceRecord(0j, trace_grid, trace, 2.46e-160)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = tg.fit_populations(rec, device_params, responses=responses)
        assert fit.sigma_n[0] == math.inf
        assert np.all(np.isfinite(fit.sigma_n[1:]))

    def test_short_trace_rejected(self, device_params):
        t = np.linspace(0, 50e-9, 10)
        rec = tg.TraceRecord(0j, t, np.zeros(10), 0.0)
        with pytest.raises(FitError):
            tg.fit_populations(rec, device_params, responses=np.zeros((10, 10)))

    def test_non_finite_trace_rejected(self, device_params, trace_grid, responses):
        trace = responses.T @ np.eye(10)[1]
        trace[5] = np.nan
        rec = tg.TraceRecord(0j, trace_grid, trace, 0.03)
        with pytest.raises(DomainError):
            tg.fit_populations(rec, device_params, responses=responses)

    def test_responses_of_another_dim_rejected(self, device_params, trace_grid):
        # responses built at dim 12 against dim-10 params, and a response
        # matrix on a shorter grid, fail before the fit runs
        wide = tg.basis_responses(lb.SystemParams(dim=12), trace_grid, initial_p_e=0.03)
        rec = tg.TraceRecord(0j, trace_grid, wide.T @ np.eye(12)[1], 0.03)
        with pytest.raises(DomainError, match="responses"):
            tg.fit_populations(rec, device_params, responses=wide)
        rec = tg.TraceRecord(0j, trace_grid[:-1], wide[:10, :-1].T @ np.eye(10)[1], 0.03)
        with pytest.raises(DomainError, match="responses"):
            tg.fit_populations(rec, device_params, responses=wide[:10])

    def test_constant_trace_warns(self, device_params, trace_grid, responses):
        rec = tg.TraceRecord(0j, trace_grid, np.full(trace_grid.size, 0.03), 0.03)
        with pytest.warns(IllConditionedFitWarning):
            tg.fit_populations(rec, device_params, responses=responses)


def _reference_simplex_lstsq(r_mat, y):
    """The active-set loop as it was before its per-step overhead was cut,
    its code kept verbatim: the library's loop must give bitwise the same fit."""
    dim = r_mat.shape[1]
    free = np.zeros(dim, dtype=bool)
    free[np.argmin(np.sum((r_mat - y[:, None]) ** 2, axis=0))] = True
    p, best, best_cost = free.astype(float), None, math.inf
    for _ in range(10 * dim):
        idx = np.flatnonzero(free)
        # sum(z) = 1 eliminates the last level
        last = r_mat[:, idx[-1]]
        w = np.linalg.lstsq(r_mat[:, idx[:-1]] - last[:, None], y - last, rcond=None)[0]
        z = np.append(w, 1.0 - w.sum())
        crossing = z < 0.0
        if crossing.any():
            ratios = p[idx][crossing] / (p[idx][crossing] - z[crossing])
            p[idx] = np.maximum(p[idx] + ratios.min() * (z - p[idx]), 0.0)
            at_bound = idx[crossing][ratios == ratios.min()]
            p[at_bound], free[at_bound] = 0.0, False
            continue
        p[idx] = z  # bound levels are exactly zero
        residual = r_mat @ p - y
        cost = float(residual @ residual)
        # exact steps strictly lower the cost: a stationary point that does not is round-off
        if cost >= best_cost:
            return best, best_cost
        best, best_cost = p.copy(), cost
        gradient = r_mat.T @ residual
        multipliers = np.where(free, np.inf, gradient - gradient[idx].mean())
        j = int(np.argmin(multipliers))
        if multipliers[j] >= 0.0:
            return best, best_cost
        free[j] = True
    raise ConvergenceError(f"population fit did not converge in {10 * dim} active-set steps",
                           best=best, residual=best_cost)


def assert_fit_is_the_reference(r_mat, y):
    p, cost = tg._simplex_lstsq(r_mat, y)
    p_ref, cost_ref = _reference_simplex_lstsq(r_mat, y)
    assert np.array_equal(p, p_ref)
    assert cost == cost_ref


class TestSimplexLoopIsTheReference:
    """Bitwise the reference loop's fit: the same vertex, free sets and solves."""

    @pytest.mark.parametrize("noise", [0.0, 2e-4, 2e-2])
    @pytest.mark.parametrize("n_t", [30, 90])
    @pytest.mark.parametrize("dim", [10, 20])
    def test_seeded_records(self, dim, n_t, noise):
        params = lb.SystemParams(dim=dim)
        t = np.linspace(2e-9, 360e-9, n_t)
        r_mat = tg.basis_responses(params, t, initial_p_e=0.015).T
        rng = np.random.default_rng(dim * 1000 + n_t)
        for concentration in (0.2, 0.5, 1.0, 2.0):
            p_true = rng.dirichlet(np.full(dim, concentration))
            assert_fit_is_the_reference(r_mat, r_mat @ p_true + noise * rng.standard_normal(n_t))

    @pytest.mark.parametrize("state", lb.PREPARABLE_STATES)
    def test_fig4d_records(self, state):
        # the noiseless default 5x5 grid that fig4d analyses
        ds = tg.synthesize_dataset(state, lb.SystemParams())
        r_mat = tg.basis_responses(ds.params, ds.records[0].t_s, ds.records[0].initial_p_e).T
        assert len(ds.records) == 25
        for rec in ds.records:
            assert_fit_is_the_reference(r_mat, rec.p_e)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    concentration=st.floats(0.1, 2.0),
    noise=st.floats(0.0, 0.02),
    initial_p_e=st.floats(0.0, 0.05),
)
def test_fit_is_the_simplex_minimum(seed, concentration, noise, initial_p_e):
    # oracle: the KKT conditions of min ||R p - y||^2 over the simplex, and
    # no cost above that of the truth or of any vertex
    params = lb.SystemParams()
    t = np.linspace(2e-9, 360e-9, 90)
    rng = np.random.default_rng(seed)
    responses = tg.basis_responses(params, t, initial_p_e)
    r_mat = responses.T
    p_true = rng.dirichlet(np.full(10, concentration))
    y = r_mat @ p_true + noise * rng.standard_normal(t.size)
    fit = tg.fit_populations(tg.TraceRecord(0j, t, y, initial_p_e), params, responses=responses)
    p = fit.p_n
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert_fit_is_the_reference(r_mat, y)

    gradient = 2.0 * r_mat.T @ (r_mat @ p - y)
    tol = 1e-10 * np.max(np.abs(2.0 * r_mat.T @ y))
    support = p > 0.0
    level = gradient[support].mean()
    assert np.max(np.abs(gradient[support] - level)) <= tol
    assert np.all(gradient[~support] >= level - tol)

    def cost(q):
        r = r_mat @ q - y
        return float(r @ r)

    # 1e-24 bounds the round-off in a squared residual over 90 samples
    bound = fit.residual - 1e-24
    assert fit.residual == pytest.approx(cost(p), rel=1e-12, abs=1e-24)
    assert bound <= cost(p_true)
    assert all(bound <= cost(vertex) for vertex in np.eye(10))


class TestWignerPoint:
    def test_vacuum(self):
        assert tg.wigner_point(np.eye(10)[0]) == pytest.approx(2 / math.pi)

    def test_single_phonon(self):
        assert tg.wigner_point(np.eye(10)[1]) == pytest.approx(-2 / math.pi)

    def test_even_parity_mixture(self):
        p = np.zeros(10)
        p[[0, 2, 4, 6, 8]] = 0.2
        assert tg.wigner_point(p) == pytest.approx(2 / math.pi)

    def test_parity_operator_equivalence(self):
        rng = np.random.default_rng(2)
        for dim in (4, 5, 6):
            x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = x @ x.conj().T
            rho /= np.trace(rho).real
            for alpha in (0.3 + 0.1j, -0.7j, 1.1):
                d = lb.displacement_operator(dim, -alpha, check=False)
                displaced = d @ rho @ d.conj().T
                via_pops = tg.wigner_point(np.diag(displaced).real)
                via_parity = float(
                    2 / math.pi * np.trace(displaced @ tg.parity_operator(dim)).real
                )
                assert abs(via_pops - via_parity) < 1e-10
                assert abs(tg.wigner_from_state(rho, alpha) - via_parity) < 1e-10


def _ideal_fits(rho_res, params, t_grid, responses, alphas, dim=10):
    fits = []
    for a in alphas:
        d = lb.displacement_operator(dim, -a, check=False)
        pn = np.diag(d @ rho_res @ d.conj().T).real
        rec = tg.TraceRecord(a, t_grid, responses.T @ pn, 0.03)
        fits.append(tg.fit_populations(rec, params, responses=responses))
    return fits


@pytest.fixture(scope="module")
def closed_params():
    return lb.SystemParams(
        t1=math.inf, t2_ramsey=math.inf, t1r=math.inf,
        p_e_th=0.0, p_1_th=0.0, visibility=1.0,
    )


@pytest.fixture(scope="module")
def closed_responses(closed_params):
    t = np.linspace(2e-9, 300e-9, 75)
    return t, tg.basis_responses(closed_params, t, 0.03)


class TestReconstruction:
    def test_pure_fock_one(self, closed_params, closed_responses):
        t, resp = closed_responses
        fits = _ideal_fits(
            lb.fock_state(10, 1), closed_params, t, resp, tg.default_alpha_grid()
        )
        recon = tg.reconstruct_density_matrix(fits)
        psi = np.array([0, 1, 0, 0], dtype=complex)
        value, _ = tg.fidelity(recon.rho, psi, recon.covariance)
        assert value >= 0.999

    def test_maximally_mixed(self, closed_params, closed_responses):
        t, resp = closed_responses
        rho = np.zeros((10, 10), dtype=complex)
        rho[np.arange(4), np.arange(4)] = 0.25
        fits = _ideal_fits(rho, closed_params, t, resp, tg.default_alpha_grid())
        recon = tg.reconstruct_density_matrix(fits)
        off = recon.rho_small - np.diag(np.diag(recon.rho_small))
        assert np.max(np.abs(off)) < 0.02
        assert np.allclose(np.diag(recon.rho_small).real, 0.25, atol=0.02)

    def _random_state_roundtrip(self, params, t, resp):
        dim = params.dim
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho4 = x @ x.conj().T
        rho4 /= np.trace(rho4).real
        rho = np.zeros((dim, dim), dtype=complex)
        rho[:4, :4] = rho4
        fits = _ideal_fits(rho, params, t, resp, tg.default_alpha_grid(), dim)
        recon = tg.reconstruct_density_matrix(fits)
        assert recon.rho.shape == (dim, dim)
        dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(recon.rho_small - rho4)))
        assert dist < 0.01

    def test_random_state_roundtrip(self, closed_params, closed_responses):
        t, resp = closed_responses
        self._random_state_roundtrip(closed_params, t, resp)

    def test_random_state_roundtrip_dim12(self, closed_params):
        params = dataclasses.replace(closed_params, dim=12)
        t = np.linspace(2e-9, 300e-9, 75)
        resp = tg.basis_responses(params, t, 0.03)
        self._random_state_roundtrip(params, t, resp)

    def test_fits_of_mixed_levels_rejected(self):
        fits = [
            tg.PopulationFit(np.eye(dim)[0], np.zeros(dim), 0.0, a)
            for dim, a in zip([10, 12] * 13, tg.default_alpha_grid())
        ]
        with pytest.raises(DomainError):
            tg.reconstruct_density_matrix(fits)

    def test_analysis_follows_dataset_dim(self):
        psi = np.array([0, 1, 0, 0], dtype=complex)
        values = {}
        for dim in (10, 12):
            ds = tg.synthesize_dataset("1", lb.SystemParams(dim=dim))
            fits, recon = tg.analyze_dataset(ds)
            assert all(f.p_n.size == dim for f in fits)
            assert recon.rho.shape == (dim, dim)
            values[dim], _ = tg.fidelity(recon.rho, psi)
        assert abs(values[12] - values[10]) < 0.005

    def test_real_axis_design_warns_and_leaves_imaginary_parts_zero(self):
        # real displacements of a real state never see the antisymmetric
        # generators, so the Gram matrix is singular in exactly those directions
        rho = lb.fock_state(10, 1)
        fits = []
        for a in np.linspace(-2.0, 2.0, 16):
            d = lb.displacement_operator(10, -a, check=False)
            pn = np.clip(np.diag(d @ rho @ d.conj().T).real, 0.0, None)
            fits.append(tg.PopulationFit(pn / pn.sum(), np.zeros(10), 0.0, complex(a)))
        with pytest.warns(IllConditionedFitWarning):
            recon = tg.reconstruct_density_matrix(fits)
        assert np.max(np.abs(recon.parameters[1:12:2])) < 1e-12
        assert np.max(np.abs(recon.rho_small - rho[:4, :4])) < 1e-9

    @staticmethod
    def _noisy_fits(rho, alphas, seed):
        # populations of D(-alpha) rho D(-alpha)^dag with 1e-2 noise, kept on the simplex
        rng = np.random.default_rng(seed)
        fits = []
        for a in alphas:
            d = lb.displacement_operator(rho.shape[0], -a, check=False)
            pn = np.clip(np.diag(d @ rho @ d.conj().T).real + 1e-2 * rng.random(rho.shape[0]),
                         0.0, None)
            fits.append(tg.PopulationFit(pn / pn.sum(), np.zeros(rho.shape[0]), 0.0, complex(a)))
        return fits

    @pytest.mark.parametrize("design", ["default-grid", "real-axis"])
    def test_covariance_is_the_pseudo_inverse_formula(self, design):
        # pinv(M^T M) chi2 / dof, with the design M rebuilt column by column
        # from the populations that each generator adds
        if design == "default-grid":
            alphas = tg.default_alpha_grid()
            rho = 0.5 * (lb.fock_state(10, 0) + lb.fock_state(10, 1))
        else:
            alphas, rho = np.linspace(-2.0, 2.0, 16), lb.fock_state(10, 1)
        fits = self._noisy_fits(rho, alphas, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedFitWarning)
            recon = tg.reconstruct_density_matrix(fits)

        def populations(c):
            rho_c = np.pad(tg.density_from_parameters(c), (0, 6))
            ds = [lb.displacement_operator(10, -f.alpha, check=False) for f in fits]
            return np.concatenate([np.diag(d @ rho_c @ d.conj().T).real for d in ds])

        b = populations(np.zeros(15))
        m = np.column_stack([populations(e) - b for e in np.eye(15)])
        z = np.concatenate([f.p_n for f in fits]) - b
        gram_inv = np.linalg.pinv(m.T @ m)
        c = gram_inv @ (m.T @ z)  # the minimum-norm solution
        chi2 = float(np.sum((m @ c - z) ** 2))
        want = gram_inv * (chi2 / (z.size - 15))
        assert np.max(np.abs(recon.parameters - c)) <= 1e-12 * np.max(np.abs(c))
        assert np.max(np.abs(recon.covariance - want)) <= 1e-12 * np.max(np.abs(want))
        assert recon.residual == pytest.approx(chi2, rel=1e-12)

    def test_one_factorization(self, monkeypatch):
        # the solution and its covariance come from one SVD of the design
        fits = self._noisy_fits(lb.fock_state(10, 1), tg.default_alpha_grid(), seed=3)
        calls = {"svd": 0, "lstsq": 0}

        def counting(name):
            original = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        tg.reconstruct_density_matrix(fits)
        assert calls == {"svd": 1, "lstsq": 0}

    def test_too_few_displacements(self, closed_params, closed_responses):
        t, resp = closed_responses
        alphas = tg.default_alpha_grid()[:12]
        fits = _ideal_fits(lb.fock_state(10, 0), closed_params, t, resp, alphas)
        with pytest.raises(IdentifiabilityError):
            tg.reconstruct_density_matrix(fits)

    def test_wigner_normalization_of_reconstruction(self, closed_params, closed_responses):
        t, resp = closed_responses
        rng = np.random.default_rng(21)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho4 = x @ x.conj().T
        rho4 /= np.trace(rho4).real
        rho = np.zeros((10, 10), dtype=complex)
        rho[:4, :4] = rho4
        fits = _ideal_fits(rho, closed_params, t, resp, tg.default_alpha_grid())
        recon = tg.reconstruct_density_matrix(fits)

        dim_eval = 40
        rho_eval = np.zeros((dim_eval, dim_eval), dtype=complex)
        rho_eval[:4, :4] = recon.rho_small
        axis = np.linspace(-4.0, 4.0, 41)
        step = axis[1] - axis[0]
        total = 0.0
        for re in axis:
            for im in axis:
                if re * re + im * im > 16.0:
                    continue
                total += tg.wigner_from_state(rho_eval, complex(re, im))
        total *= step * step
        assert abs(total - 1.0) < 0.02


class TestFidelity:
    def test_pure_state_unity(self):
        psi = np.array([0.6, 0.8j, 0, 0], dtype=complex)
        rho = np.zeros((10, 10), dtype=complex)
        rho[:4, :4] = np.outer(psi, psi.conj())
        value, sigma = tg.fidelity(rho, psi)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert sigma == 0.0

    def test_orthogonal_states(self):
        rho = np.zeros((10, 10), dtype=complex)
        rho[0, 0] = 1.0
        psi = np.array([0, 1, 0, 0], dtype=complex)
        value, _ = tg.fidelity(rho, psi)
        assert value == 0.0

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("state", ["0", "1", "0+1"])
    def test_sigma_matches_unclipped_monte_carlo(self, state, seed):
        psi = {"0": np.eye(4)[0], "1": np.eye(4)[1],
               "0+1": np.array([1, 1, 0, 0]) / math.sqrt(2)}[state].astype(complex)
        rho4 = 0.9 * np.outer(psi, psi.conj()) + 0.025 * np.eye(4)
        a = np.random.default_rng(seed).standard_normal((15, 15))
        covariance = 1e-4 * a @ a.T / 15
        value, sigma = tg.fidelity(np.pad(rho4, (0, 6)), psi, covariance)

        # oracle: the spread of the fidelities of 1e5 resampled, unprojected states
        c0 = np.einsum("kij,ji->k", tg._GELL_MANN, rho4).real / 2.0
        draws = np.random.default_rng(seed).multivariate_normal(c0, covariance, 100_000)
        overlaps = np.einsum("i,sij,j->s", psi.conj(), tg.density_from_parameters(draws), psi).real
        assert value == pytest.approx(math.sqrt(0.925), abs=1e-12)
        assert sigma == pytest.approx(np.std(np.sqrt(overlaps)), rel=0.02)

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("state", ["0", "1", "0+1"])
    def test_batched_sigma_matches_per_sample_loop(self, state, seed):
        psi = {"0": np.eye(4)[0], "1": np.eye(4)[1],
               "0+1": np.array([1, 1, 0, 0]) / math.sqrt(2)}[state].astype(complex)
        rho4 = 0.9 * np.outer(psi, psi.conj()) + 0.025 * np.eye(4)
        a = np.random.default_rng(seed).standard_normal((15, 15))
        c0 = np.einsum("kij,ji->k", tg._GELL_MANN, rho4).real / 2.0
        draws = np.random.default_rng(seed).multivariate_normal(c0, 1e-4 * a @ a.T / 15, 500)

        # reference: rebuild and score one sample at a time
        overlaps = []
        for c in draws:
            value_s, _ = tg.fidelity(np.pad(tg.density_from_parameters(c), (0, 6)), psi)
            overlaps.append(value_s ** 2)
        # the overlap is linear in c, so its spread over these draws is exactly
        # the propagated sample covariance of the draws
        value, sigma = tg.fidelity(np.pad(rho4, (0, 6)), psi, np.cov(draws.T))
        want = float(np.std(overlaps, ddof=1))
        assert want > 1e-3
        assert 2.0 * value * sigma == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("levels", [2, 4])
    def test_variance_matches_perturbed_parameters(self, levels):
        rng = np.random.default_rng(levels)
        c = 0.05 * rng.standard_normal(15)
        psi = rng.standard_normal(levels) + 1j * rng.standard_normal(levels)
        a = rng.standard_normal((15, 15))
        covariance = a @ a.T

        def overlap(params):
            rho = tg.density_from_parameters(params)[:levels, :levels]
            return float(np.real(psi.conj() @ rho @ psi)) / np.vdot(psi, psi).real

        # the overlap is linear in c, so a unit step in c_k changes it by b_k exactly
        b = np.array([overlap(c + step) - overlap(c) for step in np.eye(15)])
        value, sigma = tg.fidelity(np.pad(tg.density_from_parameters(c), (0, 6)), psi, covariance)
        assert value == pytest.approx(math.sqrt(overlap(c)), rel=1e-12)
        assert 2.0 * value * sigma == pytest.approx(math.sqrt(b @ covariance @ b), rel=1e-12)

    def test_zero_fidelity_and_zero_covariance(self):
        rho = np.zeros((10, 10), dtype=complex)
        rho[0, 0] = 1.0
        psi = np.array([0, 1, 0, 0], dtype=complex)
        assert tg.fidelity(rho, psi, 1e-6 * np.eye(15)) == (0.0, math.inf)
        assert tg.fidelity(rho, psi, np.zeros((15, 15))) == (0.0, 0.0)
        assert tg.fidelity(rho, np.array([1, 1j, 0, 0]), np.zeros((15, 15)))[1] == 0.0

    def test_overlap_above_one_is_not_clipped(self):
        # a unit-trace but unphysical linear estimate, as fit noise can give
        rho = np.pad(np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex), (0, 6))
        psi = np.array([1, 0, 0, 0], dtype=complex)
        covariance = 1e-4 * np.eye(15)
        value, sigma = tg.fidelity(rho, psi, covariance)
        b = tg._GELL_MANN[:, 0, 0].real
        assert value == pytest.approx(math.sqrt(1.1), rel=1e-12)
        assert sigma == pytest.approx(math.sqrt(b @ covariance @ b) / (2 * math.sqrt(1.1)),
                                      rel=1e-12)

    def test_sigma_calibrated_on_seeded_noise(self, device_params, trace_grid, responses):
        # twenty noisy repeats of one |1> measurement: the spread of the fitted
        # fidelities and the reported sigma agree within a factor of two
        psi = np.array([0, 1, 0, 0], dtype=complex)
        alphas = tg.default_alpha_grid()
        truth = [np.abs(lb.displacement_operator(10, -a, check=False)[:, 1]) ** 2 for a in alphas]
        values, sigmas = [], []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            fits = [
                tg.fit_populations(
                    tg.TraceRecord(a, trace_grid,
                                   responses.T @ p + 2e-4 * rng.standard_normal(trace_grid.size),
                                   0.03),
                    device_params, responses=responses)
                for a, p in zip(alphas, truth)
            ]
            recon = tg.reconstruct_density_matrix(fits)
            value, sigma = tg.fidelity(recon.rho, psi, recon.covariance)
            values.append(value)
            sigmas.append(sigma)
        ratio = np.std(values, ddof=1) / np.median(sigmas)
        assert 0.5 <= ratio <= 2.0

    @pytest.mark.parametrize("covariance", [None, 1e-6 * np.eye(15)])
    def test_target_longer_than_state_levels_rejected(self, covariance):
        rho = np.zeros((10, 10), dtype=complex)
        rho[1, 1] = 1.0
        with pytest.raises(DomainError, match="STATE_LEVELS"):
            tg.fidelity(rho, np.eye(5)[1], covariance)

    @pytest.mark.parametrize("covariance", [None, 1e-6 * np.eye(15)], ids=["plain", "mc"])
    @pytest.mark.parametrize("psi", [np.zeros(4), [math.nan, 1, 0, 0], [math.inf, 0, 0, 0]],
                             ids=["zero", "nan", "inf"])
    def test_zero_or_nonfinite_target_rejected(self, psi, covariance):
        # these used to return a NaN fidelity with only a RuntimeWarning
        rho = np.zeros((10, 10), dtype=complex)
        rho[0, 0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite and non-zero"):
                tg.fidelity(rho, np.array(psi, dtype=complex), covariance)

    def test_invalid_covariance_rejected(self):
        rho = np.zeros((10, 10), dtype=complex)
        rho[0, 0] = 1.0
        cov = -np.eye(15)
        with pytest.raises(FitError):
            tg.fidelity(rho, np.array([1, 0, 0, 0], dtype=complex), cov)


class TestRabiPopulation:
    def _traces(self, population, rng, noise=0.002, n=100, contrast=0.95):
        x = np.linspace(-1.0, 1.0, n)
        a_e = population * contrast
        a_g = (1.0 - population) * contrast
        y_e = 0.5 - 0.5 * a_e * np.cos(math.pi * x) + noise * rng.standard_normal(n)
        y_g = 0.5 - 0.5 * a_g * np.cos(math.pi * x) + noise * rng.standard_normal(n)
        return x, y_e, y_g

    @pytest.mark.parametrize("population,tol", [(0.0169, 0.001), (0.0049, 0.001)])
    def test_thermal_population_estimates(self, population, tol):
        rng = np.random.default_rng(17)
        x, y_e, y_g = self._traces(population, rng)
        a_e, s_e = tg.fit_oscillation_amplitude(x, y_e)
        a_g, s_g = tg.fit_oscillation_amplitude(x, y_g)
        p, sigma = tg.rabi_population_estimate(a_e, a_g, s_e, s_g)
        assert abs(p - population) < tol
        assert 0.5e-4 < sigma < 1e-3

    def test_sigma_is_the_inverse_gram_formula(self):
        rng = np.random.default_rng(5)
        x, y_e, _ = self._traces(0.0169, rng, n=9)
        a_e, s_e = tg.fit_oscillation_amplitude(x, y_e)
        design = np.column_stack([np.ones_like(x), -0.5 * np.cos(math.pi * x)])
        coef = np.linalg.inv(design.T @ design) @ (design.T @ y_e)
        s2 = float(np.sum((design @ coef - y_e) ** 2)) / (x.size - 2)
        assert a_e == pytest.approx(coef[1], rel=1e-12)
        assert s_e == pytest.approx(math.sqrt(np.linalg.inv(design.T @ design)[1, 1] * s2),
                                    rel=1e-12)

    def test_zero_excited_amplitude(self):
        p, sigma = tg.rabi_population_estimate(0.0, 0.95)
        assert p == 0.0
        assert sigma == 0.0

    def test_propagation_matches_finite_difference(self):
        a_e, a_g = 0.02, 0.93
        s_e, s_g = 3e-4, 5e-4
        _, sigma = tg.rabi_population_estimate(a_e, a_g, s_e, s_g)
        eps = 1e-8
        dp_de = (
            tg.rabi_population_estimate(a_e + eps, a_g)[0]
            - tg.rabi_population_estimate(a_e - eps, a_g)[0]
        ) / (2 * eps)
        dp_dg = (
            tg.rabi_population_estimate(a_e, a_g + eps)[0]
            - tg.rabi_population_estimate(a_e, a_g - eps)[0]
        ) / (2 * eps)
        expected = math.hypot(dp_de * s_e, dp_dg * s_g)
        assert sigma == pytest.approx(expected, rel=1e-6)

    def test_invalid_amplitudes(self):
        with pytest.raises(DomainError):
            tg.rabi_population_estimate(0.01, 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_residual_raises_fit_error(self):
        # r @ r overflows; the fit reports it as a FitError outside the CLI too
        x, y_e, _ = self._traces(0.0169, np.random.default_rng(3), noise=1e160)
        with pytest.raises(FitError):
            tg.fit_oscillation_amplitude(x, y_e)


class TestDatasetIO:
    def test_json_roundtrip(self):
        params = lb.SystemParams(dim=6)
        t = np.linspace(0, 50e-9, 40)
        rec = tg.TraceRecord(0.5 - 0.25j, t, np.linspace(0, 1, 40), 0.03)
        ds = tg.TomographyDataset([rec], state_label="1", params=params)
        doc = json.loads(ds.to_json())
        assert doc["state"] == "1"
        assert doc["params"]["dim"] == 6
        record = doc["records"][0]
        assert complex(record["alpha_re"], record["alpha_im"]) == 0.5 - 0.25j
        assert np.allclose(record["p_e"], rec.p_e)

    def test_dataset_json_output_is_checked(self):
        rec = tg.TraceRecord(0j, np.linspace(0, 50e-9, 40), np.zeros(40))
        with pytest.raises(ConfigError, match="state"):
            tg.TomographyDataset([rec], state_label=1).to_json()

    def test_reconstruction_report_fields(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal(15) * 0.01
        rho = tg.density_from_parameters(c)
        recon = tg.ReconstructedState(
            rho=np.pad(rho, ((0, 6), (0, 6))),
            parameters=c,
            covariance=np.eye(15) * 1e-6,
            residual=0.1,
        )
        report = json.loads(tg.reconstruction_report(recon, fidelity_value=(0.9, 0.01)))
        assert set(report) >= {"rho_re", "rho_im", "min_eigenvalue", "parameters",
                               "covariance", "residual", "fidelity"}
        assert report["min_eigenvalue"] == pytest.approx(np.linalg.eigvalsh(rho)[0], abs=1e-15)
