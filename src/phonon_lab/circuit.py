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
from dataclasses import dataclass, asdict

import numpy as np
from scipy.linalg import eig
from scipy.optimize import brentq, least_squares, minimize_scalar

from .errors import (
    DomainError,
    GridError,
    IdentifiabilityError,
    IllConditionedFitWarning,
)
from .saw import TWO_PI, AdmittanceSpectrum, BvdParams

DIVERGENCE_COS_FLOOR = 1e-9


@dataclass(frozen=True)
class CircuitParams:
    """Lumped-element values; see the module docstring for the topology.

    ``m_12`` is the geometric estimate of the chip-to-chip mutual between
    the overlaid coils; when ``m`` is not given it defaults to that
    estimate, otherwise ``m`` (the fitted value) is what the network uses.
    """

    c_q: float = 110e-15
    l_q: float = 10.1e-9
    l_1: float = 0.303e-9
    l_2: float = 0.403e-9
    l_cj0: float = 1.0e-9
    m: float | None = 0.13e-9
    m_12: float | None = None
    l_sec: float = 0.29e-9
    background_t1: float = 20e-6

    def __post_init__(self):
        if min(self.c_q, self.l_q, self.l_1, self.l_2, self.l_cj0, self.l_sec) <= 0:
            raise DomainError("capacitances and inductances must be positive")
        if self.m_12 is None:
            object.__setattr__(self, "m_12", 0.4 * min(self.l_1, self.l_2))
        if abs(self.m_12) > math.sqrt(self.l_1 * self.l_2):
            raise DomainError("|m_12| must not exceed sqrt(l_1*l_2)")
        if self.m is None:
            object.__setattr__(self, "m", self.m_12)
        if abs(self.m) > math.sqrt(self.l_2 * self.l_sec) + 1e-15:
            raise DomainError("|m| must not exceed sqrt(l_2*l_sec)")
        if self.background_t1 <= 0:
            raise DomainError("background_t1 must be positive")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CouplerBias:
    """Junction working point derived from the coupler flux (units of Phi_0)."""

    phi_g: float
    delta: float
    l_cj: float
    divergent: bool


def coupler_inductance(phi_g: float, params: CircuitParams) -> CouplerBias:
    """Map coupler flux to junction phase and inductance.

    Linear flux-phase map ``delta = 2*pi*phi_g`` (loop screening neglected);
    periodic in ``phi_g`` with period 1.  At ``cos(delta) -> 0`` the
    inductance diverges; the bias is flagged instead of raising so sweeps
    can pass through the open-circuit point.
    """
    if not math.isfinite(phi_g):
        raise DomainError("phi_g must be finite")
    delta = TWO_PI * (phi_g % 1.0)
    c = math.cos(delta)
    if abs(c) < DIVERGENCE_COS_FLOOR:
        return CouplerBias(phi_g=phi_g, delta=delta, l_cj=math.inf, divergent=True)
    return CouplerBias(phi_g=phi_g, delta=delta, l_cj=params.l_cj0 / c, divergent=False)


def _divider_inductance(bias: CouplerBias, params: CircuitParams) -> float:
    """Inductance seen from node A to ground: L_1 || (L_cj + L_2)."""
    if bias.divergent:
        return params.l_1
    num = params.l_1 * (bias.l_cj + params.l_2)
    den = params.l_1 + bias.l_cj + params.l_2
    return num / den


def _coupling_fraction(bias: CouplerBias, params: CircuitParams) -> float:
    """Fraction of qubit current routed through the coupling coil."""
    if bias.divergent:
        return 0.0
    return params.l_1 / (params.l_1 + params.l_2 + bias.l_cj)


def qubit_frequency(phi_g: float, params: CircuitParams) -> float:
    """Qubit-branch angular frequency of the qubit+coupler network.

    The resonator is excluded (its loading is negligible at the qubit
    frequency for spectroscopy purposes); at the divergent-inductance flux
    the open-circuit limit ``L_par = L_1`` applies.
    """
    bias = coupler_inductance(phi_g, params)
    l_par = _divider_inductance(bias, params)
    return 1.0 / math.sqrt(params.c_q * (params.l_q + l_par))


def _mesh_matrices(bias: CouplerBias, params: CircuitParams, bvd: BvdParams, l_q: float):
    """Reduced (3-mesh) elastance/inductance matrices of the full network.

    The purely inductive coupler mesh is eliminated by a Schur complement,
    which also yields the effective qubit-resonator mutual.
    """
    zeta = _coupling_fraction(bias, params)
    if bias.divergent:
        l_qq = l_q + params.l_1
        m_eff = 0.0
        l_rr = params.l_sec
    else:
        l_sig = params.l_1 + bias.l_cj + params.l_2
        l_qq = l_q + params.l_1 - params.l_1**2 / l_sig
        m_eff = params.l_1 * params.m / l_sig
        l_rr = params.l_sec - params.m**2 / l_sig
    l_mat = np.array(
        [
            [l_qq, m_eff, 0.0],
            [m_eff, l_rr, 0.0],
            [0.0, 0.0, bvd.l_s],
        ]
    )
    s_mat = np.array(
        [
            [1.0 / params.c_q, 0.0, 0.0],
            [0.0, 1.0 / bvd.c_t, -1.0 / bvd.c_t],
            [0.0, -1.0 / bvd.c_t, 1.0 / bvd.c_t + 1.0 / bvd.c_s],
        ]
    )
    return s_mat, l_mat, zeta


def network_mode_frequencies(
    bias: CouplerBias, params: CircuitParams, bvd: BvdParams, l_q: float | None = None
) -> np.ndarray:
    """Real angular eigenfrequencies of the lossless network, ascending."""
    s_mat, l_mat, _ = _mesh_matrices(
        bias, params, bvd, params.l_q if l_q is None else l_q
    )
    vals = eig(s_mat, l_mat, right=False)
    vals = vals[np.isfinite(vals)]
    real = vals[np.abs(vals.imag) <= 1e-9 * np.abs(vals.real)].real
    real = real[real > 0]
    return np.sort(np.sqrt(real))


def _resonator_mode(params: CircuitParams, bvd: BvdParams) -> float:
    """Resonator-like mode of the loaded acoustic branch alone."""
    l_mat = np.array([[params.l_sec, 0.0], [0.0, bvd.l_s]])
    s_mat = np.array(
        [
            [1.0 / bvd.c_t, -1.0 / bvd.c_t],
            [-1.0 / bvd.c_t, 1.0 / bvd.c_t + 1.0 / bvd.c_s],
        ]
    )
    vals = np.sort(np.real(eig(s_mat, l_mat, right=False)))
    omegas = np.sqrt(vals[vals > 0])
    # the acoustic mode is the one near omega_s, far below the coil mode
    return float(omegas[np.argmin(np.abs(omegas - bvd.omega_s))])


def coupling_strength(phi_g: float, params: CircuitParams, bvd: BvdParams) -> float:
    """Signed qubit-resonator coupling g (rad/s).

    Half the minimum normal-mode splitting of the full network, found by
    retuning ``L_q`` through the degeneracy with the resonator-like mode;
    the sign follows the orientation of the effective mutual.
    """
    bias = coupler_inductance(phi_g, params)
    if bias.divergent or params.m == 0:
        return 0.0
    omega_r = _resonator_mode(params, bvd)
    l_par = _divider_inductance(bias, params)
    l_q_guess = 1.0 / (omega_r**2 * params.c_q) - l_par

    def split(l_q):
        omegas = network_mode_frequencies(bias, params, bvd, l_q)
        idx = np.argsort(np.abs(omegas - omega_r))[:2]
        pair = omegas[idx]
        return float(abs(pair[1] - pair[0]))

    res = minimize_scalar(
        split,
        bounds=(0.85 * l_q_guess, 1.15 * l_q_guess),
        method="bounded",
        options={"xatol": 1e-16},
    )
    g_mag = 0.5 * res.fun
    zeta = _coupling_fraction(bias, params)
    return math.copysign(g_mag, zeta * params.m)


def flux_for_coupling(
    target_g: float, params: CircuitParams, bvd: BvdParams, bracket=(0.26, 0.5)
) -> float:
    """Coupler flux at which |g| equals ``target_g`` (searched on one branch)."""
    lo, hi = bracket

    def f(phi):
        return abs(coupling_strength(phi, params, bvd)) - abs(target_g)

    return brentq(f, lo, hi, xtol=1e-6)


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
    y_saw = np.interp(omega, f_saw, saw_spectrum.y.real) + 1j * np.interp(
        omega, f_saw, saw_spectrum.y.imag
    )

    bias = coupler_inductance(phi_g, params)
    background = 1.0 / (omega * params.background_t1)
    if bias.divergent or params.m == 0:
        return background.copy()

    with np.errstate(divide="ignore", invalid="ignore"):
        z_res = 1j * omega * params.l_sec + 1.0 / y_saw
    z_refl = (omega * params.m) ** 2 / z_res
    z_branch = 1j * omega * (bias.l_cj + params.l_2) + z_refl
    z_l1 = 1j * omega * params.l_1
    z_a = z_l1 * z_branch / (z_l1 + z_branch)

    l_q_retuned = np.maximum(1.0 / (omega**2 * params.c_q) - z_a.imag / omega, 1e-15)
    y_loaded = 1.0 / (1j * omega * l_q_retuned + z_a)
    return y_loaded.real / (omega * params.c_q) + background


def fit_circuit(
    spectroscopy,
    fixed_l_cj0: float = 1.0e-9,
    fixed_c_q: float | None = None,
    initial: CircuitParams | None = None,
):
    """Fit (L_q, L_1, L_2) to (phi_g, omega_ge) pairs.

    ``L_cj0`` and ``C_q`` are held fixed: a coupler-flux sweep of the qubit
    frequency follows a Moebius curve in cos(delta) and therefore constrains
    exactly three combinations beyond the junction scale, so the qubit
    capacitance must come from an independent measurement (here: the
    starting parameter set).  Returns ``(CircuitParams, covariance)`` with
    the 3x3 covariance ordered (l_q, l_1, l_2).
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

    start = initial if initial is not None else CircuitParams(l_cj0=fixed_l_cj0)
    c_q = start.c_q if fixed_c_q is None else fixed_c_q
    x_scale = np.array([start.l_q, start.l_1, start.l_2])
    cos_delta = np.cos(TWO_PI * phi)

    def model(x):
        l_q, l_1, l_2 = np.exp(x) * x_scale
        with np.errstate(divide="ignore"):
            l_cj = np.where(
                np.abs(cos_delta) < DIVERGENCE_COS_FLOOR, np.inf, fixed_l_cj0 / cos_delta
            )
        l_par = np.where(
            np.isinf(l_cj), l_1, l_1 * (l_cj + l_2) / (l_1 + l_cj + l_2)
        )
        # keep trial points with unphysical net inductance finite for the solver
        arg = np.maximum(c_q * (l_q + l_par), 1e-36)
        return 1.0 / np.sqrt(arg)

    def residuals(x):
        return (model(x) - omega) / omega

    sol = least_squares(residuals, np.zeros(3), method="lm", ftol=1e-14, xtol=1e-14)
    values = np.exp(sol.x) * x_scale
    fitted = CircuitParams(
        c_q=c_q, l_q=values[0], l_1=values[1], l_2=values[2], l_cj0=fixed_l_cj0
    )

    # covariance of the physical parameters from the log-space jacobian
    dof = max(data.shape[0] - 3, 1)
    sigma2 = float(np.sum(sol.fun**2)) / dof
    jtj = sol.jac.T @ sol.jac
    cond = np.linalg.cond(jtj)
    if cond > 1e12:
        warnings.warn(
            "circuit fit is ill-conditioned; covariance uses a pseudo-inverse",
            IllConditionedFitWarning,
        )
        cov_log = np.linalg.pinv(jtj) * sigma2
    else:
        cov_log = np.linalg.inv(jtj) * sigma2
    scale = np.diag(values)  # d(param)/d(log param) = param
    cov = scale @ cov_log @ scale
    return fitted, cov

