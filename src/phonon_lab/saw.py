"""One-dimensional coupling-of-modes model of a SAW resonator.

The resonator is a two-port acoustic cascade: Bragg mirror / gap /
transducer / gap / Bragg mirror, each region a uniform section solved in
closed form and combined with a scattering-cascade rule (a gap of zero
length is the identity under it).  Conventions:

* Wave amplitudes are slow envelopes over the lithographic carrier
  ``exp(-i*k_c*x)`` with ``k_c = 2*pi/wavelength``; both the transducer
  (2 electrodes per wavelength) and the mirrors (pitch wavelength/2) are
  synchronous at the same carrier.
* Each region has detuning ``delta = (omega - omega_sync)/v - i*eta`` with
  ``omega_sync = k_c * v * (1 - loading)``.  ``loading`` is the fractional
  velocity reduction from the 50%-metallized grating surface (electrical
  plus mass loading); the same constant applies to transducer and mirrors.
* Per-length reflectivity ``c12 = 2*r/wavelength`` (one reflective line per
  half wavelength), transduction per length fixed by the quasistatic
  radiation conductance ``Ga0 = 8*k2_eff*f_sync*pairs*C_t`` of the
  unperturbed transducer.
* The admittance element of a section excludes the static capacitance;
  ``C_t`` is added once, in parallel, at the top level.
* With ``s = sqrt(delta**2 - |c12|**2)``, sin(s*L)/s and (cos(s*L) - 1)/s**2
  are ``np.sinc`` identities, exact at s = 0; ``p33``, a ratio of two terms
  that vanish like s**2, takes its series for |s*L| < 1e-2.

The three-port blocks follow the standard P-matrix sign conventions
(reciprocity ``P13 = -P31/2``, ``P23 = -P32/2``, ``P12 = P21``).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import _lsq
from .errors import DomainError, FitError, GridError

TWO_PI = 2.0 * math.pi

# Fractional grating slowing for an Al-metallized line grating on strong
# piezoelectric substrate, ~k2/8 for 50% metallization.
DEFAULT_LOADING = 0.0068

# Effective electromechanical coupling for the transduction scale, calibrated
# to the equivalent-circuit scale of the measured device (the crossed-field
# textbook estimate for this cut is ~0.054; thin cryogenic Al and the
# flip-chip stack reduce the effective value).
DEFAULT_K2_EFF = 0.0407

# Effective transducer-to-mirror spacing of the continuum model, as a
# fraction of the wavelength.  The continuum sections smear the discrete
# line lattice, so the physically continuous grating maps onto a nonzero
# continuum gap; the value is calibrated to the single-mode frequency.
DEFAULT_GAP_FRACTION = 0.363

# the BvD fit uses the points within this distance of the conductance maximum
FIT_HALF_WIDTH_HZ = 10e6


@dataclass(frozen=True)
class SawModelParams:
    """Geometry and coupling-of-modes parameters of the resonator.

    Lengths in meters, speeds in m/s, loss in Np/m, capacitance in farads.
    ``r_t``/``r_m`` are per-line amplitude reflections (dimensionless,
    typically negative imaginary for shorted/floating Al lines).
    """

    wavelength: float = 1.0e-6
    transducer_pairs: int = 20
    mirror_lines: int = 500
    v_t: float = 4012.5
    v_m: float = 4027.0
    r_t: complex = -0.015j
    r_m: complex = -0.032j
    eta: float = 851.0
    c_t: float = 0.75e-12
    gap_t_m: float | None = None
    loading: float = DEFAULT_LOADING
    k2_eff: float = DEFAULT_K2_EFF

    def __post_init__(self):
        if self.gap_t_m is None:
            object.__setattr__(self, "gap_t_m", DEFAULT_GAP_FRACTION * self.wavelength)
        if not (self.wavelength > 0):
            raise DomainError("wavelength must be positive")
        if self.transducer_pairs < 1 or self.mirror_lines < 0:
            raise DomainError("transducer_pairs must be >= 1, mirror_lines >= 0")
        if not (self.v_t > 0 and self.v_m > 0):
            raise DomainError("SAW velocities v_t and v_m must be positive")
        if self.eta < 0:
            raise DomainError("propagation loss eta must be >= 0")
        if abs(self.r_t) >= 1 or abs(self.r_m) >= 1:
            raise DomainError("per-line reflectivities must satisfy |r| < 1")
        if not (self.c_t > 0):
            raise DomainError("transducer capacitance c_t must be positive")
        if self.gap_t_m < 0:
            raise DomainError("transducer-mirror gap must be >= 0")
        if not (0 <= self.loading < 0.1):
            raise DomainError("loading outside plausible range [0, 0.1)")
        if not (0 < self.k2_eff < 0.5):
            raise DomainError("k2_eff outside plausible range (0, 0.5)")

    @property
    def carrier_wavenumber(self) -> float:
        return TWO_PI / self.wavelength

    @property
    def transducer_length(self) -> float:
        return self.transducer_pairs * self.wavelength

    @property
    def mirror_length(self) -> float:
        return self.mirror_lines * self.wavelength / 2.0

    def sync_frequency(self, v: float) -> float:
        """Synchronous (Bragg) frequency in Hz for a grating at speed ``v``."""
        return v * (1.0 - self.loading) / self.wavelength

    @property
    def mirror_center_hz(self) -> float:
        return self.sync_frequency(self.v_m)

    @property
    def transducer_center_hz(self) -> float:
        return self.sync_frequency(self.v_t)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["r_t"] = [self.r_t.real, self.r_t.imag]
        d["r_m"] = [self.r_m.real, self.r_m.imag]
        return d


@dataclass
class PMatrix:
    """Three-port block of one acoustic section (arrays over the grid).

    Ports 1/2 are the left/right acoustic ports, port 3 the electrical one.
    ``p33`` is the motional admittance contribution of the section.
    """

    p11: np.ndarray
    p12: np.ndarray
    p22: np.ndarray
    p31: np.ndarray
    p32: np.ndarray
    p33: np.ndarray

    @property
    def p13(self) -> np.ndarray:
        return -0.5 * self.p31

    @property
    def p23(self) -> np.ndarray:
        return -0.5 * self.p32


@dataclass
class AdmittanceSpectrum:
    """Electrical admittance on a frequency grid (angular frequencies, rad/s)."""

    frequencies: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.y = np.asarray(self.y, dtype=complex)
        if self.frequencies.size != self.y.size:
            raise GridError("frequency and admittance arrays differ in length")
        if self.frequencies.size == 0:
            raise GridError("empty spectrum")
        if np.any(np.diff(self.frequencies) <= 0):
            raise GridError("frequency grid must be strictly increasing")
        if np.min(self.y.real) < -1e-12:
            raise DomainError("admittance violates passivity: Re[Y] < -1e-12 S")

    @property
    def frequencies_hz(self) -> np.ndarray:
        return self.frequencies / TWO_PI


@dataclass(frozen=True)
class BvdParams:
    """Butterworth-van-Dyke equivalent circuit: series RLC shunted by C_t."""

    c_s: float
    l_s: float
    r_s: float
    c_t: float

    def __post_init__(self):
        if min(self.c_s, self.l_s, self.r_s, self.c_t) <= 0:
            raise DomainError("all BvD elements must be positive")

    @property
    def omega_s(self) -> float:
        return 1.0 / math.sqrt(self.l_s * self.c_s)

    @property
    def q(self) -> float:
        return math.sqrt(self.l_s / self.c_s) / self.r_s

    def admittance(self, omega: np.ndarray) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        z_motional = self.r_s + 1j * omega * self.l_s + 1.0 / (1j * omega * self.c_s)
        return 1j * omega * self.c_t + 1.0 / z_motional


def _check_omega(omega) -> np.ndarray:
    arr = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("angular frequency must be finite")
    if np.any(arr <= 0):
        raise DomainError("angular frequency must be positive")
    return arr


def _section_pmatrix(
    omega: np.ndarray,
    v: float,
    length: float,
    c12: complex,
    a1: complex,
    eta: float,
    k_c: float,
    loading: float,
) -> PMatrix:
    """Closed-form P-matrix of a uniform coupling-of-modes section.

    Equivalent to cascading per-period transfer matrices: the section
    solution is the matrix exponential of the per-length generator, so one
    region of N periods equals N chained single-period sections exactly.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    omega_sync = k_c * v * (1.0 - loading)
    delta = (omega - omega_sync) / v - 1j * eta
    z = delta**2 - abs(c12) ** 2
    s = np.sqrt(z.astype(complex))
    w = s * length

    f1 = length * np.sinc(w / np.pi)
    f2 = np.cos(w)
    g3 = -0.5 * length**2 * np.sinc(w / TWO_PI) ** 2
    d = f2 + 1j * delta * f1

    phase = cmath.exp(-1j * k_c * length)

    p11 = -np.conj(c12) * f1 / d
    p12 = phase / d
    p22 = c12 * f1 * phase**2 / d

    n = omega.size
    a1c = np.conj(a1)
    # K2*(f2-1) and K1*(f2-1) with the 1/s**2 singularity absorbed into g3.
    k2g = (a1 * np.conj(c12) + 1j * delta * a1c) * g3
    k1g = (a1c * c12 - 1j * delta * a1) * g3
    p31 = 2.0 * (a1c * f1 - k2g) / d
    p32 = -2.0 * (a1 * f1 + k1g) * phase / d

    # p33 = 2*E/(z*d); E vanishes ~ z at band edges, so switch to its series.
    beta = a1**2 * np.conj(c12) - a1c**2 * c12
    wgt = abs(a1) ** 2
    small = np.abs(w) < 1e-2

    p33 = np.empty(n, dtype=complex)
    if np.any(~small):
        dl = delta[~small]
        zl = z[~small]
        e_full = (beta + 2j * dl * wgt) * (f1[~small] - length * d[~small]) + 2.0 * g3[
            ~small
        ] * (wgt * (abs(c12) ** 2 + dl**2) - 1j * dl * beta)
        p33[~small] = 2.0 * e_full / (zl * d[~small])
    if np.any(small):
        ds = delta[small]
        zs = z[small]
        lsq = length
        e1 = (
            beta * lsq**3 / 3.0
            + 1j * ds * beta * lsq**4 / 12.0
            + 2j * ds * wgt * lsq**3 / 3.0
            - (ds**2) * wgt * lsq**4 / 6.0
            + wgt * lsq**2
        )
        e2 = (
            -beta * lsq**5 / 30.0
            - 1j * ds * beta * lsq**6 / 180.0
            - 1j * ds * wgt * lsq**5 / 15.0
            + (ds**2) * wgt * lsq**6 / 90.0
            - wgt * lsq**4 / 12.0
        )
        p33[small] = 2.0 * (e1 + e2 * zs) / d[small]

    return PMatrix(p11, p12, p22, p31, p32, p33)


def _cascade(left: PMatrix, right: PMatrix) -> PMatrix:
    """Join two sections at their shared acoustic port (electrical ports in parallel)."""
    d = 1.0 - left.p22 * right.p11
    p11 = left.p11 + right.p11 * left.p12**2 / d
    p12 = left.p12 * right.p12 / d
    p22 = right.p22 + left.p22 * right.p12**2 / d
    p13 = left.p13 + left.p12 * (right.p11 * left.p23 + right.p13) / d
    p23 = right.p23 + right.p12 * (left.p22 * right.p13 + left.p23) / d
    p33 = (
        left.p33
        + right.p33
        - 2.0 * left.p23 * (right.p11 * left.p23 + right.p13) / d
        - 2.0 * right.p13 * (left.p22 * right.p13 + left.p23) / d
    )
    return PMatrix(p11, p12, p22, -2.0 * p13, -2.0 * p23, p33)


def _mirror_section(omega: np.ndarray, params: SawModelParams) -> PMatrix:
    c12 = 2.0 * params.r_m / params.wavelength
    return _section_pmatrix(
        omega,
        params.v_m,
        params.mirror_length,
        c12,
        0.0,
        params.eta,
        params.carrier_wavenumber,
        params.loading,
    )


def _gap_section(omega: np.ndarray, params: SawModelParams) -> PMatrix:
    return _section_pmatrix(
        omega,
        params.v_m,
        params.gap_t_m,
        0.0,
        0.0,
        params.eta,
        params.carrier_wavenumber,
        0.0,
    )


def transduction_per_length(params: SawModelParams) -> complex:
    """Per-length transduction coefficient of the transducer section.

    Magnitude set so the unperturbed transducer peaks at the quasistatic
    radiation conductance Ga0 = 8*k2*f0*Np*C_t; the +i phase puts the
    emission enhancement from the in-transducer reflections on the
    low-frequency side of synchronism.
    """
    f0 = params.transducer_center_hz
    ga0 = 8.0 * params.k2_eff * f0 * params.transducer_pairs * params.c_t
    return 1j * math.sqrt(ga0 / 2.0) / params.transducer_length


def transducer_response(omega, params: SawModelParams) -> PMatrix:
    """P-matrix of the transducer alone (no mirrors)."""
    grid = _check_omega(omega)
    c12 = 2.0 * params.r_t / params.wavelength
    return _section_pmatrix(
        np.atleast_1d(grid),
        params.v_t,
        params.transducer_length,
        c12,
        transduction_per_length(params),
        params.eta,
        params.carrier_wavenumber,
        params.loading,
    )


def mirror_reflection(omega, params: SawModelParams):
    """Amplitude reflection of one mirror, measured at its inner face."""
    grid = _check_omega(omega)
    pm = _mirror_section(np.atleast_1d(grid), params)
    gamma = pm.p11
    return gamma[0] if np.isscalar(omega) or np.ndim(omega) == 0 else gamma


def resonator_admittance(grid, params: SawModelParams) -> AdmittanceSpectrum:
    """Total electrical admittance of mirror / transducer / mirror in cascade."""
    omega = _check_omega(grid)
    if omega.ndim != 1 or omega.size == 0:
        raise GridError("grid must be a non-empty 1-d array")
    if np.any(np.diff(omega) <= 0):
        raise GridError("grid must be strictly increasing")

    mirror, gap = _mirror_section(omega, params), _gap_section(omega, params)
    total = mirror
    for sec in (gap, transducer_response(omega, params), gap, mirror):
        total = _cascade(total, sec)

    y = total.p33 + 1j * omega * params.c_t
    # clip sub-femtosiemens negative excursions from roundoff
    y = np.where(y.real < 0, np.where(y.real > -1e-12, 1j * y.imag, y), y)
    return AdmittanceSpectrum(omega, y)


def default_grid(f_lo_hz: float = 3.5e9, f_hi_hz: float = 4.5e9, n: int = 2001) -> np.ndarray:
    """Angular-frequency grid that resolves the ~1 MHz-wide resonance."""
    return TWO_PI * np.linspace(f_lo_hz, f_hi_hz, n)


def _find_peak(conductance: np.ndarray) -> int:
    idx = int(np.argmax(conductance))
    if idx == 0 or idx == conductance.size - 1:
        raise FitError("no interior conductance peak in the window")
    edge = max(conductance[0], conductance[-1])
    if conductance[idx] <= 2.0 * max(edge, 0.0) or conductance[idx] <= 0:
        raise FitError("window contains no resonant peak")
    return idx


def fit_bvd(spectrum: AdmittanceSpectrum, c_t: float):
    """Least-squares BvD fit around the dominant conductance peak.

    The fit window is +-``FIT_HALF_WIDTH_HZ`` around the global Re[Y]
    maximum.  ``c_t``, the transducer capacitance of the spectrum's model,
    is held fixed to remove the degenerate direction.  ``_lsq.solve`` minimises
    the log-parameter residual with its analytic Jacobian.  Returns
    ``(BvdParams, residual_norm)``; ``ConvergenceError`` when that does not
    converge, ``IdentifiabilityError`` when the window does not determine it.
    """
    omega = spectrum.frequencies
    y = spectrum.y

    peak_all = int(np.argmax(y.real))
    lo = omega[peak_all] - TWO_PI * FIT_HALF_WIDTH_HZ
    hi = omega[peak_all] + TWO_PI * FIT_HALF_WIDTH_HZ
    mask = (omega >= lo) & (omega <= hi)
    if np.count_nonzero(mask) < 7:
        raise FitError("window contains too few grid points for a fit")
    w = omega[mask]
    yw = y[mask]

    g = yw.real  # C_t carries no conductance
    ipk = _find_peak(g)
    w0 = w[ipk]
    g0 = g[ipk]

    half = g0 / 2.0
    above = g >= half
    w_above = w[above]
    fwhm = max(w_above[-1] - w_above[0], (w[1] - w[0]))
    q0 = w0 / fwhm
    r0 = 1.0 / g0
    l0 = q0 * r0 / w0
    c0 = 1.0 / (w0**2 * l0)

    scale = np.array([c0, l0, r0])

    def residuals(logx):
        c_s, l_s, r_s = np.exp(logx) * scale
        w_s = 1.0 / math.sqrt(l_s * c_s)
        # the reactance as l_s (w - w_s)(w + w_s)/w: w - w_s is exact near
        # resonance, where w l_s - 1/(w c_s) cancels to round-off
        z = r_s + 1j * l_s * (w - w_s) * (w + w_s) / w
        res = (1j * w * c_t + 1.0 / z - yw) / g0
        # dY/dlog p = -(dZ/dlog p)/Z^2
        dz = np.stack([1j / (w * c_s), 1j * w * l_s, np.full(w.size, r_s)], axis=1)
        jac = -dz / (g0 * z[:, None] ** 2)
        return np.concatenate([res.real, res.imag]), np.vstack([jac.real, jac.imag])

    def bvd(logx):
        return BvdParams(*np.exp(logx) * scale, c_t=c_t)

    logx, res, _ = _lsq.solve(residuals, np.zeros(3), "BvD", bvd)
    return bvd(logx), float(np.linalg.norm(res))


def fit_resonance(spectrum: AdmittanceSpectrum, params: SawModelParams):
    """BvD fit of the resonance whose conductance peak ``spectrum`` holds.

    The admittance of ``params`` is recomputed on 2001 points spanning
    +-12 MHz around that peak and fitted with ``fit_bvd``.  Returns
    ``(fine_spectrum, BvdParams, residual_norm)``.
    """
    f_pk = spectrum.frequencies_hz[int(np.argmax(spectrum.y.real))]
    fine = resonator_admittance(TWO_PI * np.linspace(f_pk - 12e6, f_pk + 12e6, 2001), params)
    bvd, residual = fit_bvd(fine, params.c_t)
    return fine, bvd, residual


@functools.cache
def reference_bvd() -> BvdParams:
    """BvD circuit of the modelled device, fitted once per process.

    ``fit_resonance`` of the default ``SawModelParams`` from the peak of a
    1001-point ``default_grid``.  The coupling-sweep and loss-spectrum
    scenarios couple the qubit to this circuit, and ``lindblad.SystemParams``
    takes its default g and T1r from it.
    """
    params = SawModelParams()
    coarse = resonator_admittance(default_grid(n=1001), params)
    return fit_resonance(coarse, params)[1]
