"""Lumped-element model of the qubit, tunable coupler, and acoustic load.

Network topology (all galvanic elements on the qubit chip):

* qubit: ``C_q`` from the qubit node to ground, ``L_q`` from the qubit node
  to the divider node A;
* direct return: ``L_1`` from A to ground;
* coupler branch: junction ``L_cj(delta)`` from A to B, output coil ``L_2``
  from B to ground;
* the coupler output couples through mutual ``M`` into the resonator loop
  (coil ``l_sec`` in series with the acoustic one-port, i.e. the series RLC
  of the resonance shunted by the transducer capacitance).

The junction inductance ``L_cj = L_cj0/cos(delta)`` acts as a current
divider: the fraction of qubit current reaching the coupling coil is
``L_1/(L_1 + L_2 + L_cj)``, which vanishes when the junction is driven to
its open-circuit point (``delta = pi/2``) and is resonantly enhanced around
``delta = pi`` where ``L_cj = -L_cj0``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    GridError,
    IdentifiabilityError,
    IllConditionedFitWarning,
)
from .saw import FIT_MAX_GRAM_COND, TWO_PI, AdmittanceSpectrum, BvdParams, _levenberg_marquardt

DIVERGENCE_COS_FLOOR = 1e-9


@dataclass(frozen=True)
class CircuitParams:
    """Lumped-element values; see the module docstring for the topology."""

    c_q: float = 110e-15
    l_q: float = 10.1e-9
    l_1: float = 0.303e-9
    l_2: float = 0.403e-9
    l_cj0: float = 1.0e-9
    m: float = 0.13e-9
    l_sec: float = 0.29e-9
    background_t1: float = 20e-6

    def __post_init__(self):
        if min(self.c_q, self.l_q, self.l_1, self.l_2, self.l_cj0, self.l_sec) <= 0:
            raise DomainError("capacitances and inductances must be positive")
        if abs(self.m) > math.sqrt(self.l_2 * self.l_sec) + 1e-15:
            raise DomainError("|m| must not exceed sqrt(l_2*l_sec)")
        if self.background_t1 <= 0:
            raise DomainError("background_t1 must be positive")


def _junction_inductance(phi_g, l_cj0: float):
    """Junction phase and inductance for a scalar or array of fluxes.

    Linear flux-phase map ``delta = 2*pi*phi_g`` (loop screening neglected),
    periodic in ``phi_g`` with period 1; ``L_cj = L_cj0/cos(delta)`` is
    ``inf`` where ``|cos(delta)|`` falls below ``DIVERGENCE_COS_FLOOR`` (the
    open junction), so sweeps pass through that point.  A non-finite flux
    raises DomainError.
    """
    phi = np.asarray(phi_g, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise DomainError("phi_g must be finite")
    delta = TWO_PI * (phi % 1.0)
    c = np.cos(delta)
    with np.errstate(divide="ignore"):
        l_cj = np.where(np.abs(c) < DIVERGENCE_COS_FLOOR, np.inf, l_cj0 / c)
    return delta, l_cj


def _divider_inductance(l_cj, l_1, l_2):
    """Inductance seen from node A to ground: L_1 || (L_cj + L_2), L_1 when open."""
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(l_cj), l_1, l_1 * (l_cj + l_2) / (l_1 + l_cj + l_2))


def _scalar_or_array(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def qubit_frequency(phi_g, params: CircuitParams):
    """Qubit-branch angular frequency of the qubit+coupler network.

    Takes a scalar flux (returns a float) or an array (returns an array of
    its shape).  The resonator is excluded (its loading is negligible at
    the qubit frequency for spectroscopy purposes); at the divergent-
    inductance flux the open-circuit limit ``L_par = L_1`` applies.
    """
    _, l_cj = _junction_inductance(phi_g, params.l_cj0)
    l_par = _divider_inductance(l_cj, params.l_1, params.l_2)
    return _scalar_or_array(1.0 / np.sqrt(params.c_q * (params.l_q + l_par)))


def _elastance(params: CircuitParams, bvd: BvdParams) -> np.ndarray:
    """Elastance matrix of the (qubit, coil, acoustic) meshes; independent of flux."""
    return np.array(
        [
            [1.0 / params.c_q, 0.0, 0.0],
            [0.0, 1.0 / bvd.c_t, -1.0 / bvd.c_t],
            [0.0, -1.0 / bvd.c_t, 1.0 / bvd.c_t + 1.0 / bvd.c_s],
        ]
    )


def _inductance(l_q: float, l_cj, params: CircuitParams, bvd: BvdParams) -> np.ndarray:
    """Reduced 3-mesh inductance matrices, one per junction inductance.

    The purely inductive coupler mesh is eliminated by a Schur complement
    over ``L_sig = L_1 + L_cj + L_2``, which also yields the effective
    qubit-resonator mutual; an open junction (``L_cj = inf``) leaves
    ``L_q + L_1``, no mutual and the bare ``l_sec``.
    """
    l_sig = params.l_1 + np.asarray(l_cj, dtype=float) + params.l_2
    l_mat = np.zeros(l_sig.shape + (3, 3))
    l_mat[..., 0, 0] = l_q + params.l_1 - params.l_1**2 / l_sig
    l_mat[..., 0, 1] = l_mat[..., 1, 0] = params.l_1 * params.m / l_sig
    l_mat[..., 1, 1] = params.l_sec - params.m**2 / l_sig
    l_mat[..., 2, 2] = bvd.l_s
    return l_mat


def _inverse_sqrt(s_mat: np.ndarray) -> np.ndarray:
    """``S^{-1/2}`` of a symmetric positive-definite matrix."""
    w, v = np.linalg.eigh(s_mat)
    return (v / np.sqrt(w)) @ v.T


def _modes(reduced: np.ndarray) -> np.ndarray:
    """Mode frequencies from a stack of reduced matrices ``K L K``.

    With ``K = S^{-1/2}`` the pencil ``S x = omega^2 L x`` becomes the
    symmetric problem ``(K L K) y = mu y`` with ``omega = mu^{-1/2}``.  Only
    ``mu > 0`` is a real mode.  Returns the frequencies ascending along the
    last axis, NaN-padded at the top where ``mu <= 0``.
    """
    mu = np.linalg.eigvalsh(reduced)
    return 1.0 / np.sqrt(np.where(mu > 0, mu, np.nan))[..., ::-1]


def network_mode_frequencies(phi_g: float, params: CircuitParams, bvd: BvdParams) -> np.ndarray:
    """Real angular eigenfrequencies of the lossless network at one flux, ascending.

    The elastance matrix ``S`` is symmetric positive definite and does not
    depend on the flux, so the generalized problem ``S x = omega^2 L x`` is
    reduced with ``K = S^{-1/2}`` to the eigenvalues ``mu`` of ``K L K``;
    the modes are ``omega = mu^{-1/2}`` for ``mu > 0``.
    """
    k_mat = _inverse_sqrt(_elastance(params, bvd))
    _, l_cj = _junction_inductance(phi_g, params.l_cj0)
    l_mat = _inductance(params.l_q, l_cj, params, bvd)
    omegas = _modes(k_mat @ l_mat @ k_mat)
    return omegas[np.isfinite(omegas)]


def _resonator_mode(k_mat: np.ndarray, params: CircuitParams, bvd: BvdParams) -> float:
    """Resonator-like mode of the loaded acoustic branch alone.

    ``S`` is block-diagonal (qubit | coil and acoustic meshes), so the
    branch's ``S^{-1/2}`` is the lower block of the full one.
    """
    k_res = k_mat[1:, 1:]
    omegas = _modes(k_res @ np.diag([params.l_sec, bvd.l_s]) @ k_res)
    omegas = omegas[np.isfinite(omegas)]
    # the acoustic mode is the one near omega_s, far below the coil mode
    return float(omegas[np.argmin(np.abs(omegas - bvd.omega_s))])


# Newton iterations (one batched eigh each) allowed per flux; from the
# decoupled guess every flux of the default sweep freezes at its third, where
# the step is round-off
SEARCH_MAX_STEPS = 20


def _splitting(at_zero: np.ndarray, u: np.ndarray, l_q: np.ndarray, omega_r: float):
    """Splitting ``s`` of the two modes nearest ``omega_r`` and ``ds/dL_q``,
    ``d2s/dL_q2``, one per stacked ``at_zero`` and ``l_q``.

    ``K L K = at_zero + L_q u u^T``, so with eigenpairs ``(mu_i, q_i)`` and
    ``c_i = (q_i . u)^2`` the Hellmann-Feynman derivatives are
    ``mu_i' = c_i`` and ``mu_i'' = 2 sum_{j != i} c_i c_j / (mu_i - mu_j)``;
    ``omega = mu^{-1/2}`` carries them over to the frequencies.
    """
    mu, q = np.linalg.eigh(at_zero + l_q[:, None, None] * np.outer(u, u))
    c = (u @ q) ** 2
    gap = mu[:, :, None] - mu[:, None, :]
    off = ~np.eye(mu.shape[-1], dtype=bool)  # the sum runs over j != i
    terms = np.divide(c[:, None, :], gap, out=np.zeros_like(gap), where=off)
    mu2 = 2.0 * c * terms.sum(axis=-1)
    mu = np.where(mu > 0, mu, np.nan)  # only mu > 0 is a real mode
    omega = 1.0 / np.sqrt(mu)
    d1 = -0.5 * omega / mu * c
    d2 = 0.75 * omega / mu**2 * c**2 - 0.5 * omega / mu * mu2
    # ascending frequencies are descending mu; the two modes nearest omega_r
    # are adjacent, so drop the farther end (a NaN top mode is never the nearer one)
    low, mid, high = omega[:, ::-1].T
    upper = np.abs(low - omega_r) > np.abs(high - omega_r)
    return tuple(
        np.where(upper, w[:, 0] - w[:, 1], w[:, 1] - w[:, 2]) for w in (omega, d1, d2)
    )


def _minimum_splitting(at_zero, u, l_q_guess, omega_r) -> np.ndarray:
    """Minimum over ``L_q`` in ``[0.85, 1.15] * l_q_guess`` of each splitting.

    Newton's method on ``F = s^2``, whose step is ``-s s' / (s'^2 + s s'')``,
    from the guess, clipped to the bracket.  A flux freezes once its step is
    within ``1e-12 L_q``, so its result does not depend on the batch it is
    in, and reports ``s`` where that step was computed.
    """
    lo, hi = 0.85 * l_q_guess, 1.15 * l_q_guess
    l_q = l_q_guess.copy()
    s_min = np.empty_like(l_q)
    todo = np.arange(l_q.size)
    for _ in range(SEARCH_MAX_STEPS):
        s, d1, d2 = _splitting(at_zero[todo], u, l_q[todo], omega_r)
        step = -s * d1 / (d1**2 + s * d2)
        done = np.abs(step) <= 1e-12 * l_q[todo]
        s_min[todo[done]] = s[done]
        todo, step = todo[~done], step[~done]
        if todo.size == 0:
            return s_min
        l_q[todo] = np.clip(l_q[todo] + step, lo[todo], hi[todo])
    raise ConvergenceError(
        f"coupler search left {todo.size} fluxes unconverged after "
        f"{SEARCH_MAX_STEPS} Newton steps"
    )


def coupling_strength(phi_g, params: CircuitParams, bvd: BvdParams):
    """Signed qubit-resonator coupling g (rad/s) at one flux or an array.

    Takes a scalar flux (returns a float) or an array (returns an array of
    its shape); a scalar is a batch of one.  g is half the minimum
    normal-mode splitting of the full network, found by retuning ``L_q``
    through the degeneracy with the resonator-like mode within the bracket
    ``[0.85, 1.15]`` times the decoupled guess.  The splitting is that of
    the two modes nearest the resonator mode.  All fluxes share one search:
    Newton's method on the squared splitting with Hellmann-Feynman
    derivatives, each step one batched ``eigh`` of ``K L K`` (see
    ``network_mode_frequencies``), where only ``L_q`` moves; it raises
    ``ConvergenceError`` past ``SEARCH_MAX_STEPS``.  The sign follows the
    orientation of the effective mutual; g is exactly 0 at the open junction
    and for ``m == 0``.
    """
    _, l_cj = _junction_inductance(phi_g, params.l_cj0)
    g = np.zeros(l_cj.shape)
    live = np.isfinite(l_cj)
    if params.m == 0 or not live.any():
        return _scalar_or_array(g)
    l_cj = l_cj[live]
    k_mat = _inverse_sqrt(_elastance(params, bvd))
    omega_r = _resonator_mode(k_mat, params, bvd)
    l_par = _divider_inductance(l_cj, params.l_1, params.l_2)
    l_q_guess = 1.0 / (omega_r**2 * params.c_q) - l_par
    # K L K is affine in L_q, which enters L only at [0, 0]
    at_zero = k_mat @ _inductance(0.0, l_cj, params, bvd) @ k_mat
    g_mag = 0.5 * _minimum_splitting(at_zero, k_mat[:, 0], l_q_guess, omega_r)
    zeta = params.l_1 / (params.l_1 + l_cj + params.l_2)
    g[live] = np.copysign(g_mag, zeta * params.m)
    return _scalar_or_array(g)


# flux_for_coupling searches the branch from just past the open junction
# (Phi_G = 0.25) to the coupling maximum, on which |g| rises monotonically
FLUX_BRACKET = (0.26, 0.5)


def flux_for_coupling(target_g: float, params: CircuitParams, bvd: BvdParams) -> float:
    """Coupler flux in ``FLUX_BRACKET`` at which |g| equals ``target_g``.

    |g| rises monotonically over the bracket, so one batched
    ``coupling_strength`` call on a 17-point grid finds the cell where it
    crosses the target, and two more on grids of that cell narrow it to
    0.24/16^3 = 5.9e-5; linear interpolation across the last cell ends the
    search, within 1e-6 in flux even where |g| flattens towards its maximum.
    A target outside the range of |g| over the bracket raises DomainError.
    """
    target = abs(target_g)
    phi = np.linspace(*FLUX_BRACKET, 17)
    g = np.abs(coupling_strength(phi, params, bvd))
    if not g[0] <= target <= g[-1]:
        raise DomainError(
            f"|g| = {target:.6g} rad/s is outside the {g[0]:.6g} to {g[-1]:.6g} rad/s "
            f"reached over the flux bracket {FLUX_BRACKET}"
        )
    for _ in range(2):
        k = min(max(int(np.searchsorted(g, target)), 1), g.size - 1)
        phi = np.linspace(phi[k - 1], phi[k], 17)
        g = np.abs(coupling_strength(phi, params, bvd))
    return float(np.interp(target, g, phi))


def qubit_loss_spectrum(
    grid: np.ndarray,
    phi_g: float,
    params: CircuitParams,
    saw_spectrum: AdmittanceSpectrum,
) -> np.ndarray:
    """Qubit loss 1/Q(omega) from the acoustic load plus a flat background.

    The qubit is retuned to each grid frequency (as in a spectroscopic
    lifetime scan) and sees the acoustic admittance transformed through the
    coupler divider; the background is ``1/(omega*background_t1)``.
    """
    omega = np.asarray(grid, dtype=float)
    f_saw = saw_spectrum.frequencies
    if omega.min() < f_saw.min() - 1e-9 or omega.max() > f_saw.max() + 1e-9:
        raise GridError("requested grid extends outside the admittance spectrum")
    y_saw = np.interp(omega, f_saw, saw_spectrum.y)

    _, l_cj = _junction_inductance(phi_g, params.l_cj0)
    background = 1.0 / (omega * params.background_t1)
    if np.isinf(l_cj) or params.m == 0:
        return background.copy()

    with np.errstate(divide="ignore", invalid="ignore"):
        z_res = 1j * omega * params.l_sec + 1.0 / y_saw
    z_refl = (omega * params.m) ** 2 / z_res
    z_branch = 1j * omega * (l_cj + params.l_2) + z_refl
    z_l1 = 1j * omega * params.l_1
    z_a = z_l1 * z_branch / (z_l1 + z_branch)

    l_q_retuned = np.maximum(1.0 / (omega**2 * params.c_q) - z_a.imag / omega, 1e-15)
    y_loaded = 1.0 / (1j * omega * l_q_retuned + z_a)
    return y_loaded.real / (omega * params.c_q) + background


def fit_circuit(spectroscopy, params: CircuitParams = CircuitParams()):
    """Fit (L_q, L_1, L_2) to (phi_g, omega_ge) pairs.

    Every other value, ``C_q``, ``L_cj0``, ``M``, ``L_sec`` and the
    background T1, is held fixed at its value in ``params``, whose own
    (L_q, L_1, L_2) are not used.  ``C_q`` must be known: a coupler-flux
    sweep of the qubit frequency follows a Moebius curve in ``u =
    cos(delta)`` and therefore constrains exactly three combinations beyond
    the junction scale, so the qubit capacitance must come from an
    independent measurement.  With ``y = 1/(C_q omega^2) = L_q + L_par`` the
    curve reads ``y = A + B u - C u y``, linear in (A, B, C); its least
    squares solution starts the fit at ``L_1 + L_2 = C L_cj0``,
    ``L_1 = sqrt((A C - B) L_cj0)`` and ``L_q = A - L_1``; data whose start
    has an inductance that is not positive raise IdentifiabilityError.
    ``saw._levenberg_marquardt`` then minimises the relative frequency
    residual over the log-inductances with its analytic Jacobian.  Returns
    ``(params with the fitted inductances, covariance)`` with the 3x3
    covariance ordered (l_q, l_1, l_2); ``ConvergenceError`` when that does
    not converge.
    """
    data = np.asarray(spectroscopy, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise DomainError("spectroscopy must be an array of (phi_g, omega_ge) pairs")
    if data.shape[0] < 8:
        raise IdentifiabilityError("need at least 8 spectroscopy points")
    phi = data[:, 0]
    omega = data[:, 1]
    if phi.max() - phi.min() < 0.5:
        raise IdentifiabilityError("data must span at least half a flux period")

    c_q, l_cj0 = params.c_q, params.l_cj0
    _, l_cj = _junction_inductance(phi, l_cj0)
    u = l_cj0 / l_cj  # cos(delta), exactly 0 at the open junction
    y = 1.0 / (c_q * omega**2)
    a, b, c = np.linalg.lstsq(np.column_stack([np.ones_like(u), u, -u * y]), y, rcond=None)[0]
    l_1 = math.sqrt(max(a * c - b, 0.0) * l_cj0)
    scale = np.array([a - l_1, l_1, c * l_cj0 - l_1])
    if not np.all(scale > 0):
        raise IdentifiabilityError(
            "the qubit frequencies do not follow a coupler curve with positive inductances"
        )

    def residuals(x):
        l_q, l_1, l_2 = np.exp(x) * scale
        den = l_cj0 + (l_1 + l_2) * u
        share = (l_cj0 + l_2 * u) / den  # (L_cj + L_2)/(L_1 + L_cj + L_2)
        # keep trial points with unphysical net inductance finite for the solver
        l_tot = np.maximum(l_q + l_1 * share, 1e-36 / c_q)
        model = 1.0 / np.sqrt(c_q * l_tot)
        # d omega/d log L = -omega/(2 L_tot) * L dL_tot/dL, with L_par = L_1 share
        dl_tot = np.column_stack(
            [np.full(u.size, l_q), l_1 * share**2, l_2 * (l_1 * u / den) ** 2]
        )
        jac = -0.5 * (model / (l_tot * omega))[:, None] * dl_tot
        return (model - omega) / omega, jac

    x, _, converged = _levenberg_marquardt(residuals, np.zeros(3))
    values = np.exp(x) * scale
    fitted = replace(params, l_q=values[0], l_1=values[1], l_2=values[2])
    res, jac = residuals(x)
    if not converged:
        raise ConvergenceError(
            "circuit fit did not converge: a singular step or the evaluation cap",
            best=fitted, residual=float(np.linalg.norm(res)),
        )

    # covariance of the physical parameters from the log-space jacobian
    dof = max(data.shape[0] - 3, 1)
    sigma2 = float(res @ res) / dof
    jtj = jac.T @ jac
    cond = np.linalg.cond(jtj)
    if cond > FIT_MAX_GRAM_COND:
        warnings.warn(
            "circuit fit is ill-conditioned; covariance uses a pseudo-inverse",
            IllConditionedFitWarning,
        )
    cov_log = np.linalg.pinv(jtj) * sigma2
    # d(param)/d(log param) = param
    return fitted, cov_log * np.outer(values, values)

