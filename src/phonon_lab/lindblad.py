"""Open-system dynamics of the qubit-resonator pair.

Conventions:

* Composite Hilbert space is qubit (x) resonator with qubit-major ordering,
  so basis index ``q*dim + n`` holds qubit state ``q`` (0 = ground) and
  ``n`` phonons.
* Everything is written in the resonator rotating frame: the Hamiltonian is
  ``delta*sigma_plus*sigma_minus + g*(sigma_plus*a + sigma_minus*a_dag)``
  with hbar = 1 (energies in rad/s).
* Dissipation enters through three collapse operators: qubit decay
  ``sigma_minus/sqrt(T1)``, qubit dephasing ``sigma_z/sqrt(2*T_phi)`` with
  ``1/T_phi = 1/T2_Ramsey - 1/(2*T1)``, and phonon decay ``a/sqrt(T1r)``.
* Qubit drive pulses are resonant with the qubit, so their rotation axis
  precesses at the instantaneous detuning; the segment walker tracks the
  accumulated frame phase, the sum of delta*duration, and applies it to each
  rotation.  ``run_sequence`` reports that phase at every sample of its
  grid, so a run continued from a sampled state adds it to the phase of its
  rotations.

Propagation has no time step: the Liouvillian is block diagonal in
k = N_ket - N_bra, so a constant span is one matrix exponential per
occupied k-sector, and a cosine-ramped coupling pulse is a time-ordered
product of sixth-order Magnus steps on its ramps (Blanes, Casas, Oteo &
Ros, Phys. Rep. 470, 151 (2009)) and one exponential on its flat top.  The
ramps are the two windows of one cosine bump, so they do not depend on the
pulse length.  Only the occupied sectors are propagated: those whose
largest entry exceeds 1e-14 of the state's largest entry, in any state of a
stack, so round-off left by a rotation does not count.  Every exponential
is the degree-13 Pade approximant with scaling and squaring of ``_expm``.
Generators and propagators are cached one sector matrix at a time, in
least-recently-used caches of 64 and 256 entries that hold at most 121 MB
and 161 MB at dim 50, so each sector is built the first time it is
occupied and a window's ramps stay cached while other spans come and go.

Only the Hermitian half of the state is propagated.  The Liouvillian
preserves Hermiticity, so sector -k of a state is the conjugate transpose
of sector k: the walker propagates k >= 0, and adds the conjugate transpose
of its result, which writes each -k sector from k.  States passed in must be
Hermitian: one (2*dim, 2*dim) state, or a stack (B, 2*dim, 2*dim) of them,
which the walker propagates together through the same sector propagators.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .circuit import CircuitParams, coupling_strength
from .errors import DomainError, GridError, TruncationError
from .saw import TWO_PI, reference_bvd

DEFAULT_RAMP = 5e-9

# pulse-timing overheads of the standard sequences: idle padding charged per
# qubit rotation and coupler settle time after each coupling pulse, chosen
# within realistic hardware ranges to reproduce the measured state-synthesis
# fidelities
QUBIT_PULSE_PAD = 35e-9
COUPLER_SETTLE = 15e-9

# the resonator states prepare_sequence synthesises: |0>, |1> and |0>+|1>
PREPARABLE_STATES = ("0", "1", "0+1")

# the modelled device, computed once at import: the coupling at the
# coupler's maximum (Phi_G = 0.5) and the phonon lifetime Q/omega_s of the
# fitted resonance; g's sign is a phase convention, and swaps need g > 0
_DEVICE_BVD = reference_bvd()
DEVICE_G = abs(coupling_strength(0.5, CircuitParams(), _DEVICE_BVD))
DEVICE_T1R = _DEVICE_BVD.q / _DEVICE_BVD.omega_s


def _check_finite(**values):
    """Reject a non-finite real or complex value; a negative g is a phase
    convention and passes."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise DomainError(f"{name} must be finite")


@dataclass(frozen=True)
class SystemParams:
    """Quantum-dynamics parameters (rates in rad/s, times in seconds).

    The defaults of ``g`` and ``t1r`` are the modelled device's
    ``DEVICE_G`` and ``DEVICE_T1R``, computed from ``saw.reference_bvd()``
    and the default ``circuit.CircuitParams``; the qubit's lifetimes and
    thermal populations are measured values.
    """

    g: float = DEVICE_G
    delta: float = 0.0
    t1: float = 20e-6
    t2_ramsey: float = 2e-6
    t1r: float = DEVICE_T1R
    dim: int = 10
    p_e_th: float = 0.0169
    p_1_th: float = 0.0049
    visibility: float = 0.97

    def __post_init__(self):
        if any(math.isnan(getattr(self, f.name)) for f in fields(self)):
            raise DomainError("parameters must not be NaN")
        _check_finite(g=self.g, delta=self.delta)
        if self.dim < 2:
            raise DomainError("resonator dimension must be >= 2")
        if self.t1 <= 0 or self.t1r <= 0 or self.t2_ramsey <= 0:
            raise DomainError("lifetimes must be positive")
        if self.t_phi <= 0:
            raise DomainError("t2_ramsey must not exceed 2*t1")
        if not (0 <= self.p_e_th <= 1 and 0 <= self.p_1_th <= 1):
            raise DomainError("thermal populations must lie in [0, 1]")
        if not (0 < self.visibility <= 1):
            raise DomainError("visibility must lie in (0, 1]")

    @property
    def t_phi(self) -> float:
        """Pure dephasing time; infinite when T2_Ramsey = 2*T1."""
        rate = 1.0 / self.t2_ramsey - 1.0 / (2.0 * self.t1)
        if rate < 0:
            return -1.0
        if rate == 0:
            return math.inf
        return 1.0 / rate


def lowering_operator(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[-1, 0], [0, 1]], dtype=complex)  # |e> has sigma_z = +1
NUMBER_Q = SIGMA_PLUS @ SIGMA_MINUS


def build_hamiltonian(delta: float, g: float, dim: int) -> np.ndarray:
    """Jaynes-Cummings Hamiltonian in the resonator rotating frame."""
    if dim < 2:
        raise DomainError("resonator dimension must be >= 2")
    a = lowering_operator(dim)
    eye_r = np.eye(dim)
    h = delta * np.kron(NUMBER_Q, eye_r)
    h = h + g * (np.kron(SIGMA_PLUS, a) + np.kron(SIGMA_MINUS, a.conj().T))
    return h


def collapse_operators(params: SystemParams) -> list[np.ndarray]:
    """Scaled collapse operators on the composite space (zero-rate ones dropped)."""
    eye_r = np.eye(params.dim)
    ops = []
    if math.isfinite(params.t1):
        ops.append(np.kron(SIGMA_MINUS, eye_r) / math.sqrt(params.t1))
    if math.isfinite(params.t_phi):
        ops.append(np.kron(SIGMA_Z, eye_r) / math.sqrt(2.0 * params.t_phi))
    if math.isfinite(params.t1r):
        ops.append(np.kron(np.eye(2), lowering_operator(params.dim)) / math.sqrt(params.t1r))
    return ops


def product_state(p_e: float, rho_r: np.ndarray) -> np.ndarray:
    """Qubit-major product diag(1 - p_e, p_e) (x) rho_r: a qubit without coherence."""
    return np.kron(np.diag([1.0 - p_e, p_e]).astype(complex), rho_r)


def thermal_state(params: SystemParams) -> np.ndarray:
    """Product of qubit and single-phonon thermal mixtures."""
    p_1, dim = params.p_1_th, params.dim
    return product_state(params.p_e_th, (1.0 - p_1) * fock_state(dim, 0) + p_1 * fock_state(dim, 1))


def fock_state(dim: int, n: int) -> np.ndarray:
    if not 0 <= n < dim:
        raise DomainError("Fock index outside the truncated space")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return rho


def dephase_qubit(rho: np.ndarray) -> np.ndarray:
    """Projective-measurement back-action: drop the qubit g-e coherence blocks."""
    dim = rho.shape[0] // 2
    out = rho.copy()
    out[:dim, dim:] = 0.0
    out[dim:, :dim] = 0.0
    return out


def _check_hermitian(rho: np.ndarray):
    """Raise if ``rho``, a matrix or a stack of them, is not finite or not
    Hermitian within 1e-10."""
    # a NaN entry would pass the comparison below, and every occupancy test
    if not np.all(np.isfinite(rho)):
        raise DomainError("density matrix must be finite")
    if np.max(np.abs(rho - np.swapaxes(rho, -1, -2).conj())) > 1e-10:
        raise DomainError("density matrix is not Hermitian")


def _check_state(rho: np.ndarray, dim: int):
    """Raise unless ``rho``, a matrix or a stack of them, is a Hermitian
    state of the composite space at resonator dimension ``dim``."""
    if rho.shape[-2:] != (2 * dim, 2 * dim):
        raise DomainError(f"a state at dim {dim} must be {2 * dim} x {2 * dim}, not {rho.shape}")
    if rho.size == 0:
        raise DomainError("a stack of states must hold at least one state")
    _check_hermitian(rho)


def check_density_matrix(rho: np.ndarray):
    """Raise if ``rho`` is not Hermitian/unit-trace/positive within tolerance."""
    _check_hermitian(rho)
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise DomainError("density matrix trace differs from one")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -1e-8:
        raise DomainError("density matrix has a significant negative eigenvalue")


# the coefficients b_0 ... b_13 of the degree-13 Pade approximant to exp,
# and the largest 1-norm at which it is accurate to double precision
# without scaling (Higham 2005, Table 2.3)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) by scaling and squaring of the degree-13 Pade approximant
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Algorithm 2.3)."""
    norm = np.abs(m).sum(axis=0).max()
    if not math.isfinite(norm):
        raise DomainError("a span's generator overflows: duration times rate is not finite")
    squarings = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = m / 2.0**squarings
    b = _PADE13
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    out = np.linalg.solve(v - u, v + u)
    # a finite but huge norm can still square into overflow: report it as a
    # DomainError, whatever the caller's floating-point error state
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            out = out @ out
    if not np.isfinite(out).all():
        raise DomainError(f"the matrix exponential overflows: generator norm {norm:.3g} is too large")
    return out


@lru_cache(maxsize=256)
def _displacement_cached(dim: int, alpha: complex) -> np.ndarray:
    a = lowering_operator(dim)
    gen = alpha * a.conj().T - np.conj(alpha) * a
    return _expm(gen)


def displacement_operator(dim: int, alpha: complex, *, check: bool = True) -> np.ndarray:
    """Resonator displacement unitary D(alpha) on a truncated Fock space."""
    mag = abs(alpha)
    if check and mag**2 + 4.0 * mag >= dim:
        raise TruncationError(
            f"displacement alpha={alpha} needs more than {dim} resonator levels"
        )
    return _displacement_cached(dim, complex(alpha))


def displacement(rho: np.ndarray, alpha: complex, *, check: bool = True) -> np.ndarray:
    """Displace the resonator subsystem of a composite (qubit x resonator)
    state, or of each state of a stack."""
    size = rho.shape[-1]
    if size % 2 != 0:
        raise DomainError("composite state must have even dimension (qubit-major)")
    dim = size // 2
    d = displacement_operator(dim, alpha, check=check)
    full = np.kron(np.eye(2), d)
    return full @ rho @ full.conj().T


# ---------------------------------------------------------------------------
# pulse sequences


@dataclass(frozen=True)
class Rotation:
    """Instantaneous qubit rotation about an equatorial axis (phase in rad)."""

    axis: str
    angle: float
    phase: float = 0.0

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise DomainError("rotation axis must be 'x' or 'y'")
        _check_finite(angle=self.angle, phase=self.phase)
        if abs(self.angle) > TWO_PI:
            raise DomainError("|rotation angle| must not exceed 2*pi")


@dataclass(frozen=True)
class Detune:
    """Hold the qubit at a detuning with the coupling off."""

    delta: float
    duration: float

    def __post_init__(self):
        _check_finite(delta=self.delta, duration=self.duration)
        if self.duration < 0:
            raise DomainError("duration must be >= 0")


@dataclass(frozen=True)
class Couple:
    """Coupling pulse of strength g at a given detuning, with cosine ramps."""

    g: float
    duration: float
    delta: float = 0.0
    ramp: float = 0.0

    def __post_init__(self):
        _check_finite(g=self.g, delta=self.delta, duration=self.duration, ramp=self.ramp)
        if self.duration < 0 or self.ramp < 0:
            raise DomainError("durations must be >= 0")
        if 2 * self.ramp > self.duration:
            raise DomainError("ramps longer than the pulse")


@dataclass(frozen=True)
class Displace:
    """Instantaneous resonator displacement D(alpha)."""

    alpha: complex

    def __post_init__(self):
        _check_finite(alpha=self.alpha)


@dataclass(frozen=True)
class Idle:
    """Free evolution at the current detuning with the coupling off."""

    duration: float

    def __post_init__(self):
        _check_finite(duration=self.duration)
        if self.duration < 0:
            raise DomainError("duration must be >= 0")


@dataclass(frozen=True)
class Measure:
    """Record the qubit excited-state probability P_e."""


Segment = Rotation | Detune | Couple | Displace | Idle | Measure


@dataclass
class PulseSequence:
    segments: list = field(default_factory=list)

    def append(self, segment: Segment) -> "PulseSequence":
        self.segments.append(segment)
        return self

    def duration(self) -> float:
        return sum(getattr(s, "duration", 0.0) for s in self.segments)


# ---------------------------------------------------------------------------
# propagator
#
# The Liouvillian conserves k = N_ket - N_bra, where N counts qubit plus
# phonon excitations, so it is exponentiated one k-sector at a time
# (Buca & Prosen, NJP 14, 073007 (2012)).  Sector propagators act on the
# row-major flattened density matrix.  A rotation can move weight by up to
# two sectors and a displacement into every sector, so the occupied sectors
# are read from the state itself at the start of each continuous segment.
# Sector -k is the conjugate transpose of sector k in a Hermitian state, so
# only k >= 0 is propagated.

# sixth-order Magnus steps per full cosine ramp (a partial window gets its
# share, rounded up); at the default parameters 16 steps put either edge of
# a 5 ns ramp's k = 0 product within 4.4e-12 (dim 10), 7.0e-11 (dim 30) and
# 2.5e-10 (dim 50) of the converged product, in the largest entry of the
# difference
_RAMP_STEPS = 16
_SQRT15 = math.sqrt(15.0)


def _span_key(span: float) -> float:
    """Cache key of a span or bump time: rounding to 1e-21 s merges the
    round-off spread of a uniform grid's steps, shifting no time measurably."""
    key = round(float(span), 21)  # numpy's round overflows above 1.8e287 s
    if not math.isfinite(key):
        raise GridError(f"a span of {span} s is not finite")
    return key


@lru_cache(maxsize=16)
def _sector_indices(dim: int) -> dict:
    """(rows, cols, flat index) of the density-matrix entries of each sector k."""
    excitations = np.add.outer(np.arange(2), np.arange(dim)).ravel()
    k_all = np.subtract.outer(excitations, excitations).ravel()
    # a stable sort keeps each sector's entries in row-major order
    order = np.argsort(k_all, kind="stable")
    ends = np.cumsum(np.bincount(k_all + dim))
    out = {}
    for k, idx in zip(range(-dim, dim + 1), np.split(order, ends[:-1])):
        rows, cols = np.divmod(idx, 2 * dim)
        out[k] = (rows, cols, idx)
    return out


# A sector is occupied when its largest entry exceeds this share of the
# state's largest entry.  A closed-form rotation leaves at most about 1e-16
# in the sectors it should leave empty (cos(pi/2) = 6.1e-17), and dropping
# a sector changes the state by at most the floor times its largest entry.
_OCCUPANCY_FLOOR = 1e-14


@lru_cache(maxsize=16)
def _sector_order(dim: int) -> tuple:
    """The flat indices of sectors k = 0 ... dim, one sector after the
    other, and the offset at which each sector starts."""
    idx = [_sector_indices(dim)[k][2] for k in range(dim + 1)]
    return np.concatenate(idx), np.cumsum([0] + [i.size for i in idx[:-1]])


def _occupied(rho) -> tuple:
    """The sectors k >= 0 that the Hermitian ``rho``, or any state of a
    stack of them, occupies; each state has its own floor."""
    size = rho.shape[-1]
    flat = np.abs(rho.reshape(-1, size * size))
    order, starts = _sector_order(size // 2)
    peaks = np.maximum.reduceat(flat[:, order], starts, axis=1)
    floors = _OCCUPANCY_FLOOR * flat.max(axis=1, keepdims=True)
    return tuple(np.flatnonzero((peaks > floors).any(axis=0)).tolist())


def _liouvillian_key(params: SystemParams) -> SystemParams:
    """Cache key of ``params``' generators and propagators: the fields that
    enter the Liouvillian (dim and the lifetimes), the rest at defaults."""
    return SystemParams(dim=params.dim, t1=params.t1, t2_ramsey=params.t2_ramsey, t1r=params.t1r)


# Generators and propagators are cached one sector per entry, bounded for
# dim 50, where the largest sector matrix (k = 0, 198 x 198 complex) takes
# 0.627 MB: a generator entry (D, N, V) is <= 1.88 MB, so 64 entries are
# <= 121 MB, and 256 propagator entries are <= 161 MB.  A pass of the
# perfbench dynamics workload uses 51 sector propagators (2.3 MB), so the
# swap ramps outlive the scans between them.


def _liouvillian_terms(key: SystemParams) -> tuple:
    """(K, jumps) of D, N and V in L(delta, g) = D + delta*N + g*V for the
    system whose ``_liouvillian_key`` is ``key``: each part maps rho to
    K rho + rho K^H + sum of c rho c^H over its jumps c (Breuer & Petruccione,
    The Theory of Open Quantum Systems, ch. 3)."""
    # real collapse operators: half the memory, and c^H = c^T
    jumps = tuple(c.real.copy() for c in collapse_operators(key))
    k_d = -0.5 * sum((c.T @ c for c in jumps), np.zeros((2 * key.dim,) * 2))
    return (
        (k_d, jumps),
        (-1j * build_hamiltonian(1, 0, key.dim), ()),
        (-1j * build_hamiltonian(0, 1, key.dim), ()),
    )


@lru_cache(maxsize=64)
def _generators(key: SystemParams, k: int) -> tuple:
    """Sector k's blocks (D, N, V) of L(delta, g) = D + delta*N + g*V for the
    system whose ``_liouvillian_key`` is ``key``."""
    rows, cols, _ = _sector_indices(key.dim)[k]
    at_rows, at_cols = np.ix_(rows, rows), np.ix_(cols, cols)
    # the identity factors of K (x) 1 and 1 (x) K*, on the sector's entries
    same_rows, same_cols = rows[:, None] == rows, cols[:, None] == cols
    out = []
    for eff, jumps in _liouvillian_terms(key):
        block = eff[at_rows] * same_cols + same_rows * eff[at_cols].conj()
        for c in jumps:
            block += c[at_rows] * c[at_cols]
        out.append(block)
    return tuple(out)


def _magnus(params, k, delta, g, ramp, tau0, tau1) -> np.ndarray:
    """Time-ordered sixth-order Magnus product of sector k over the window
    [tau0, tau1] of the cosine bump g*(1 - cos(pi*tau/ramp))/2, 0 <= tau <= 2*ramp."""
    steps = max(1, math.ceil(_RAMP_STEPS * (tau1 - tau0) / ramp - 1e-9))
    h = (tau1 - tau0) / steps
    tau = tau0 + h * np.arange(steps)
    e1, e2, e3 = (
        0.5 * g * (1.0 - np.cos(np.pi * (tau + c * h) / ramp))
        for c in (0.5 - _SQRT15 / 10.0, 0.5, 0.5 + _SQRT15 / 10.0)
    )
    d, n_q, v = _generators(params, k)
    l0 = d + delta * n_q
    prop = np.eye(l0.shape[0], dtype=l0.dtype)
    for a1, a2, a3 in zip(e1, e2, e3):
        # the three-node Gauss-Legendre step of Blanes et al. (2009)
        alpha1 = h * (l0 + a2 * v)
        alpha2 = (_SQRT15 * h / 3.0 * (a3 - a1)) * v
        alpha3 = (10.0 * h / 3.0 * (a3 - 2.0 * a2 + a1)) * v
        c1 = alpha1 @ alpha2 - alpha2 @ alpha1
        x = 2.0 * alpha3 + c1
        c2 = (x @ alpha1 - alpha1 @ x) / 60.0
        y = -20.0 * alpha1 - alpha3 + c1
        z = alpha2 + c2
        omega = alpha1 + alpha3 / 12.0 + (y @ z - z @ y) / 240.0
        prop = _expm(omega) @ prop
    return prop


@lru_cache(maxsize=256)
def _propagator(key, k, delta, g, span, ramp=0.0, start=0.0) -> np.ndarray:
    """Sector k's propagator over a span at (delta, g) of the system whose
    ``_liouvillian_key`` is ``key``.

    With ``ramp`` > 0 the coupling is the cosine bump of ``_magnus`` and the
    span is its window [start, start + span]; otherwise it is constant.
    """
    if ramp > 0:
        return _magnus(key, k, delta, g, ramp, start, start + span)
    d, n_q, v = _generators(key, k)
    return _expm(span * (d + delta * n_q + g * v))


def _advance(rho, key, sectors, delta, g, ramp, duration, t0, t1):
    """Propagate the ``sectors`` k >= 0 of the Hermitian state, or of each
    state of a stack, over [t0, t1] of a segment and write each -k sector
    as the conjugate transpose of k; every other sector must be zero, and
    stays zero.  Sector 0 is written at half weight before the conjugate
    transpose is added, so it comes out exactly Hermitian.  ``key`` is the
    ``_liouvillian_key`` of the system.

    A ramped pulse is a cosine bump cut open at its peak by a flat top:
    pulse time t is bump time t on the rising edge and
    t - (duration - 2*ramp) on the falling edge.
    """
    # (start, end, bump ramp or 0 for a constant coupling, bump time at start)
    if ramp > 0:
        top = duration - ramp
        fall = max(t0, top)
        windows = (
            (t0, min(t1, ramp), ramp, t0),
            (max(t0, ramp), min(t1, top), 0.0, 0.0),
            (fall, t1, ramp, fall - top + ramp),
        )
    else:
        windows = ((t0, t1, 0.0, 0.0),)
    spans = [(_span_key(hi - lo), bump, _span_key(tau)) for lo, hi, bump, tau in windows]
    spans = [span for span in spans if span[0] > 0]
    flat = rho.reshape(*rho.shape[:-2], -1)
    out = np.zeros_like(flat)
    indices = _sector_indices(key.dim)
    for k in sectors:
        idx = indices[k][2]
        vec = flat[..., idx]
        for span in spans:
            vec = vec @ _propagator(key, k, delta, g, *span).T
        out[..., idx] = vec if k else 0.5 * vec
    out = out.reshape(rho.shape)
    return out + np.swapaxes(out, -1, -2).conj()


def qubit_rotation(axis: str, angle: float, phase: float, dim: int) -> np.ndarray:
    """Unitary for a resonant qubit pulse whose axis is rotated by ``phase``."""
    if axis == "x":
        base = phase
    elif axis == "y":
        base = phase + math.pi / 2.0
    else:
        raise DomainError("rotation axis must be 'x' or 'y'")
    gen = math.cos(base) * SIGMA_X + math.sin(base) * SIGMA_Y
    u2 = math.cos(0.5 * angle) * np.eye(2) - 1j * math.sin(0.5 * angle) * gen
    # u2 (x) 1, written entry by entry: the same values as np.kron, faster
    u = np.zeros((2, dim, 2, dim), dtype=complex)
    n = np.arange(dim)
    u[:, n, :, n] = u2
    return u.reshape(2 * dim, 2 * dim)


def excited_probability(rho: np.ndarray, params: SystemParams, *, scaled: bool = True):
    """Qubit P_e of a state or of each state of a stack; ``scaled`` applies visibility."""
    dim = rho.shape[-1] // 2
    p = np.trace(rho[..., dim:, dim:], axis1=-2, axis2=-1).real
    return params.visibility * p if scaled else p


def resonator_populations(rho: np.ndarray) -> np.ndarray:
    """Phonon-number populations of a state, or of each state of a stack."""
    dim = rho.shape[-1] // 2
    diag = np.diagonal(rho, axis1=-2, axis2=-1).real
    return diag[..., :dim] + diag[..., dim:]


def _check_grid(t_grid, duration: float = math.inf) -> np.ndarray:
    """``t_grid`` as floats; GridError unless it is a non-empty, finite,
    nonnegative, strictly increasing 1-d grid that ends by ``duration``."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise GridError("t_grid must be a non-empty 1-d array")
    if not np.all(np.isfinite(t_grid)):
        raise GridError("t_grid must be finite")
    if t_grid[0] < 0 or np.any(np.diff(t_grid) <= 0):
        raise GridError("t_grid must be nonnegative and strictly increasing")
    if t_grid[-1] > duration + 1e-15:
        raise GridError("t_grid extends outside the schedule duration")
    return t_grid


def batched_excited_traces(
    rhos,
    params: SystemParams,
    t_grid: np.ndarray,
    delta: float = 0.0,
) -> np.ndarray:
    """P_e(t) for a stack of initial states under one constant Hamiltonian,
    coupled at ``params.g`` and detuned by ``delta``.

    P_e lies in the k = 0 sector, which the Liouvillian never couples to the
    others, so only that sector is propagated, and P_e is the real part of
    its excited-qubit diagonal.  The states must be Hermitian.  Returns an
    array of shape (batch, len(t_grid)); visibility is applied.
    """
    t_grid = _check_grid(t_grid)
    rho = np.array(rhos, dtype=complex)
    if rho.ndim != 3:
        raise DomainError("rhos must be a stack of density matrices")
    _check_state(rho, params.dim)
    _check_finite(delta=delta)
    rows, cols, idx = _sector_indices(params.dim)[0]
    vec = rho.reshape(rho.shape[0], -1)[:, idx]
    excited = params.visibility * ((rows == cols) & (rows >= params.dim))
    out = np.empty((rho.shape[0], t_grid.size))
    key = _liouvillian_key(params)
    t_prev = 0.0
    for i, t in enumerate(t_grid):
        span = _span_key(t - t_prev)
        if span > 0:
            vec = vec @ _propagator(key, 0, delta, params.g, span).T
        t_prev = t
        out[:, i] = (vec @ excited).real
    return out


@dataclass
class SequenceResult:
    """Measurement record of one sequence execution.

    ``p_e`` holds the P_e of each Measure: a float for a run from one
    state, an array of shape (B,) for a run from a stack of B states.
    ``rho_final`` has the shape of the start.  ``states`` holds the state
    at each time of the ``run_sequence`` grid, of shape (T, 2*dim, 2*dim)
    from one state or (T, B, 2*dim, 2*dim) from a stack, and ``phase[i]``
    is the frame phase, sum of delta*duration, up to the i-th time of that
    grid, shared by every state of a stack; a run continued from
    ``states[i]`` adds it to the phase of each of its rotations.  Both are
    empty for a run without a grid."""

    p_e: list
    rho_final: np.ndarray
    states: np.ndarray
    phase: np.ndarray


def run_sequence(
    seq: PulseSequence,
    params: SystemParams,
    rho0: np.ndarray | None = None,
    t_grid=(),
) -> SequenceResult:
    """Execute a sequence from the thermal state, or from the Hermitian
    ``rho0``, recording each Measure; the one segment walker.

    ``rho0`` is one state, (2*dim, 2*dim), or a stack of them,
    (B, 2*dim, 2*dim), that walks the sequence together: each Measure then
    records an array of shape (B,), and the sampled states have shape
    (T, B, 2*dim, 2*dim).  The stack is propagated in every sector that
    any of its states occupies.

    A non-empty ``t_grid`` (seconds from the start, increasing, within the
    sequence's duration) also samples the state at each of its times,
    within the continuous segment that reaches it; instantaneous segments
    act at their position in the sequence.
    """
    rho = thermal_state(params) if rho0 is None else rho0.astype(complex)
    _check_state(rho, params.dim)
    pending = list(_check_grid(t_grid, seq.duration())) if np.size(t_grid) else []
    dim = params.dim
    key = _liouvillian_key(params)
    measured, states, phase = [], [], []
    now = 0.0
    theta = 0.0  # accumulated qubit-frame phase, sum of delta*duration
    for seg in seq.segments:
        if isinstance(seg, Rotation):
            u = qubit_rotation(seg.axis, seg.angle, seg.phase + theta, dim)
            rho = u @ rho @ u.conj().T
        elif isinstance(seg, Displace):
            rho = displacement(rho, seg.alpha)
        elif isinstance(seg, Measure):
            measured.append(excited_probability(rho, params))
        elif isinstance(seg, (Detune, Idle, Couple)):
            delta = params.delta if isinstance(seg, Idle) else seg.delta
            g = seg.g if isinstance(seg, Couple) else 0.0
            ramp = seg.ramp if isinstance(seg, Couple) else 0.0
            dur = seg.duration
            sectors = _occupied(rho)
            local = 0.0
            while pending and pending[0] <= now + dur + 1e-15:
                t = max(local, min(pending.pop(0) - now, dur))
                rho = _advance(rho, key, sectors, delta, g, ramp, dur, local, t)
                local = t
                states.append(rho)
                phase.append(theta + delta * t)
            rho = _advance(rho, key, sectors, delta, g, ramp, dur, local, dur)
            now += dur
            theta += delta * dur
        else:
            raise DomainError(f"unknown segment {seg!r}")
    for _ in pending:
        states.append(rho)
        phase.append(theta)
    return SequenceResult(measured, rho, np.array(states), np.array(phase))


# ---------------------------------------------------------------------------
# standard sequences


def swap_duration(g: float) -> float:
    """Length of a ramped coupling pulse transferring one excitation (area pi/2)."""
    return math.pi / (2.0 * g) + DEFAULT_RAMP


def swap_segment(params: SystemParams) -> Couple:
    return Couple(params.g, swap_duration(params.g), 0.0, DEFAULT_RAMP)


def prepare_sequence(state: str, params: SystemParams) -> PulseSequence:
    """Standard synthesis sequences for the resonator states |0>, |1>, |0>+|1>.

    Timing overheads (pulse padding, coupler settle) follow the module-level
    constants; the qubit ends near its ground state with the target state in
    the resonator.
    """
    if state not in PREPARABLE_STATES:
        raise DomainError(f"unknown preparation state {state!r}")
    seq = PulseSequence()
    if state == "0":
        return seq
    seq.append(Rotation("x", math.pi if state == "1" else math.pi / 2.0))
    seq.append(Idle(QUBIT_PULSE_PAD))
    seq.append(swap_segment(params))
    seq.append(Idle(COUPLER_SETTLE))
    return seq


def fock2_sequence(params: SystemParams, tau: float) -> PulseSequence:
    """Two-step |2> synthesis: prepare |1>, re-excite, interact for tau."""
    seq = prepare_sequence("1", params)
    seq.append(Rotation("x", math.pi))
    seq.append(Idle(QUBIT_PULSE_PAD))
    seq.append(Couple(params.g, tau))
    seq.append(Measure())
    return seq


# ---------------------------------------------------------------------------
# tomography pulses: the quarter rotations that turn the qubit's transverse
# Bloch components into P_e, as the T2r scans read them

TOMOGRAPHY_PULSES = {
    "x90": Rotation("x", math.pi / 2.0),
    "y90": Rotation("y", math.pi / 2.0),
}
