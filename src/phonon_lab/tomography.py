"""Estimation layer: phonon-number fits, Wigner values, state reconstruction.

Analysis conventions (matching the measurement procedure they invert):

* A tomography record at displacement ``alpha`` holds the qubit trace
  ``P_e(t)`` measured while the qubit interacts resonantly with the
  displaced resonator state; the displacement applied physically is
  ``-alpha``, so the fitted populations are those of ``D(-alpha) rho
  D(-alpha)^dag`` and the Wigner value at ``alpha`` is their alternating
  sum times 2/pi.
* The qubit trace is linear in the displaced populations, so the fit uses
  precomputed single-Fock responses; the simplex-constrained least squares
  is solved exactly by an active-set method, and each population's
  uncertainty comes from the analytic curvature of the quadratic cost.
* The analysis runs at the dataset's Fock dimension ``params.dim``: the
  population fits have that many levels, and the reconstruction displaces
  in that space with ``lindblad.displacement_operator``, the exactly
  unitary truncated-generator displacement the forward synthesis applies.
  The state is reconstructed on its lowest ``STATE_LEVELS`` levels as an
  expansion over the generalized Gell-Mann generators, compared to the
  fitted populations in unweighted linear least squares, giving the
  parameter covariance directly.  The estimate is not projected onto
  physical states, so it can have small negative eigenvalues; the fidelity
  overlap is linear in its parameters, and its error bar is the exact
  linear propagation of their covariance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    FitError,
    IdentifiabilityError,
    IllConditionedFitWarning,
)
from . import _lsq, lindblad as lb
from .schema_io import document_text

STATE_LEVELS = 4  # the reconstructed subspace: Fock levels 0 .. STATE_LEVELS - 1


@dataclass
class TraceRecord:
    """One Wigner-tomography trace at a single displacement."""

    alpha: complex
    t_s: np.ndarray
    p_e: np.ndarray
    initial_p_e: float = 0.0

    def __post_init__(self):
        self.t_s = np.asarray(self.t_s, dtype=float)
        self.p_e = np.asarray(self.p_e, dtype=float)
        if self.t_s.size != self.p_e.size:
            raise DomainError("time grid and trace differ in length")


@dataclass
class TomographyDataset:
    records: list
    state_label: str = ""
    params: lb.SystemParams = field(default_factory=lb.SystemParams)

    def to_json(self) -> str:
        doc = {
            "state": self.state_label,
            "params": asdict(self.params),
            "records": [
                {
                    "alpha_re": r.alpha.real,
                    "alpha_im": r.alpha.imag,
                    "t_s": list(map(float, r.t_s)),
                    "p_e": list(map(float, r.p_e)),
                    "initial_p_e": r.initial_p_e,
                }
                for r in self.records
            ],
        }
        return document_text(doc, "dataset")


@dataclass
class PopulationFit:
    """Fitted displaced-state phonon distribution with uncertainties."""

    p_n: np.ndarray
    sigma_n: np.ndarray
    residual: float
    alpha: complex

    def __post_init__(self):
        self.p_n = np.asarray(self.p_n, dtype=float)
        self.sigma_n = np.asarray(self.sigma_n, dtype=float)
        if np.any(self.p_n < -1e-12):
            raise DomainError("populations must be nonnegative")
        if abs(self.p_n.sum() - 1.0) > 1e-9:
            raise DomainError("populations must sum to one")


@dataclass
class ReconstructedState:
    """Density-matrix fit on the lowest STATE_LEVELS levels, embedded at the data's dim."""

    rho: np.ndarray
    parameters: np.ndarray
    covariance: np.ndarray
    residual: float

    @property
    def rho_small(self) -> np.ndarray:
        return self.rho[:STATE_LEVELS, :STATE_LEVELS]


def basis_responses(
    params: lb.SystemParams,
    t_grid: np.ndarray,
    initial_p_e: float = 0.0,
) -> np.ndarray:
    """Qubit response P_e(t) to each initial Fock state |n><n|.

    The qubit starts in the measured initial mixed state and interacts
    resonantly at the coupling in ``params``; readout visibility is
    applied.  Returns an array of shape (dim, len(t_grid)).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    rhos = [lb.product_state(initial_p_e, lb.fock_state(params.dim, n)) for n in range(params.dim)]
    return lb.batched_excited_traces(rhos, params, t_grid)


def _simplex_lstsq(r_mat: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact minimiser and minimum of ||r_mat p - y||^2 over the simplex.

    Primal active-set method (Lawson & Hanson, Solving Least Squares
    Problems, ch. 23; Nocedal & Wright, Numerical Optimization, Sec. 16.5)
    from the best vertex: solve the sum-constrained problem on the free
    levels, step back to the first bound crossed, else free the level with
    the most negative bound multiplier; none negative certifies the minimum.
    """
    dim = r_mat.shape[1]
    free = np.zeros(dim, dtype=bool)
    free[np.argmin(np.sum((r_mat - y[:, None]) ** 2, axis=0))] = True
    p, best, best_cost = free.astype(float), None, math.inf
    for _ in range(10 * dim):
        idx = np.flatnonzero(free)
        # sum(z) = 1 eliminates the last level; QR keeps cond(r_mat) unsquared
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


def fit_populations(
    record: TraceRecord,
    params: lb.SystemParams,
    responses: np.ndarray,
) -> PopulationFit:
    """Fit the displaced-state populations to one qubit trace.

    Cost is the summed squared error between the measured trace and the
    model prediction (a convex combination of single-Fock responses),
    minimised exactly over the simplex.  Uncertainties come from its exact
    curvature: sigma_n^2 = s^2 / ||R_n||^2, s^2 the residual variance.
    ``responses`` is ``basis_responses(params, record.t_s,
    record.initial_p_e)``, which records on one grid share.
    """
    y = record.p_e
    if y.size < 3 * params.dim:
        raise FitError(f"trace of {y.size} points is too short to constrain "
                       f"{params.dim} populations (need {3 * params.dim})")
    if not np.all(np.isfinite(y)):
        raise DomainError("trace contains non-finite values")
    if np.ptp(y) < 1e-4:
        warnings.warn(
            "trace is nearly constant; the population fit is ill-posed",
            IllConditionedFitWarning,
        )
    if responses.shape != (params.dim, y.size):
        raise DomainError(f"responses of shape {responses.shape} do not match "
                          f"{params.dim} levels and {y.size} trace points")
    r_mat = responses.T  # (T, dim)
    p_best, e_min = _simplex_lstsq(r_mat, y)
    s2 = e_min / max(y.size - params.dim, 1)
    # a level whose response column is zero, or so small that its squared
    # norm is subnormal, is unconstrained: sigma = inf
    curvature = np.sum(r_mat * r_mat, axis=0)
    sigma = np.sqrt(np.divide(s2, curvature, out=np.full(params.dim, math.inf),
                              where=curvature >= np.finfo(float).tiny))
    return PopulationFit(p_n=p_best, sigma_n=sigma, residual=e_min, alpha=record.alpha)


def wigner_point(p_n) -> float:
    """Wigner value from displaced populations: (2/pi) * sum (-1)^n P_n."""
    p_n = np.asarray(p_n, dtype=float)
    signs = (-1.0) ** np.arange(p_n.size)
    return float(2.0 / math.pi * np.sum(signs * p_n))


def parity_operator(dim: int) -> np.ndarray:
    return np.diag((-1.0) ** np.arange(dim)).astype(complex)


def wigner_from_state(rho: np.ndarray, alpha: complex) -> float:
    """Direct parity-operator evaluation, for cross-checks against wigner_point."""
    dim = rho.shape[0]
    d = lb.displacement_operator(dim, -alpha, check=False)
    displaced = d @ rho @ d.conj().T
    return float(2.0 / math.pi * np.trace(displaced @ parity_operator(dim)).real)


def gell_mann_basis() -> list[np.ndarray]:
    """Traceless Hermitian generators of SU(STATE_LEVELS), STATE_LEVELS^2 - 1 matrices."""
    dim = STATE_LEVELS
    out = []
    for j in range(dim):
        for k in range(j + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            out.append(sym)
            anti = np.zeros((dim, dim), dtype=complex)
            anti[j, k] = -1.0j
            anti[k, j] = 1.0j
            out.append(anti)
    for l in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        for j in range(l):
            diag[j, j] = 1.0
        diag[l, l] = -l
        out.append(diag * math.sqrt(2.0 / (l * (l + 1))))
    return out


# the reconstruction's generators, normalised to tr(l_k l_m) = 2 delta_km
_GELL_MANN = np.array(gell_mann_basis())


def density_from_parameters(c: np.ndarray) -> np.ndarray:
    """Unit-trace state I/STATE_LEVELS + sum_k c_k lambda_k."""
    return np.eye(STATE_LEVELS, dtype=complex) / STATE_LEVELS + np.tensordot(c, _GELL_MANN, 1)


def reconstruct_density_matrix(fits: list[PopulationFit]) -> ReconstructedState:
    """Unweighted linear least squares over the Gell-Mann expansion.

    Each fitted distribution contributes its displaced diagonal; requires at
    least 15 distinct displacements for identifiability.  The displacements
    act at the fits' dim, which every fit must share.
    """
    n_par = _GELL_MANN.shape[0]
    alphas = {complex(f.alpha) for f in fits}
    if len(alphas) < n_par:
        raise IdentifiabilityError(
            f"need >= {n_par} distinct displacements, got {len(alphas)}"
        )
    dim = fits[0].p_n.size
    if dim < STATE_LEVELS or any(f.p_n.size != dim for f in fits):
        raise DomainError(
            f"fits must share one dim of at least {STATE_LEVELS} levels, "
            f"got {sorted({f.p_n.size for f in fits})}"
        )

    # diag(D X D^dag) of a state X on the lowest levels needs only those columns of D
    v = np.array([lb.displacement_operator(dim, -f.alpha, check=False)[:, :STATE_LEVELS]
                  for f in fits])
    b = np.sum(np.abs(v) ** 2, axis=2).ravel() / STATE_LEVELS
    m = np.einsum("fni,kij,fnj->fnk", v, _GELL_MANN, v.conj()).real.reshape(-1, n_par)
    y = np.concatenate([f.p_n for f in fits]) - b
    c, r, covariance, cond = _lsq.linear(m, y)
    # unlike a fit of physical parameters, this one warns: designs such as real
    # displacements of a real state are singular by construction, and the
    # minimum-norm solution leaves the parameters they never see at zero
    if cond > _lsq.MAX_GRAM_COND:
        warnings.warn(
            f"reconstruction design is rank-deficient (cond {cond:.1e}); "
            "the minimum-norm solution drops its null directions",
            IllConditionedFitWarning,
        )

    return ReconstructedState(
        rho=np.pad(density_from_parameters(c), (0, dim - STATE_LEVELS)),
        parameters=c,
        covariance=covariance,
        residual=float(r @ r),
    )


def fidelity(rho: np.ndarray, psi: np.ndarray, covariance: np.ndarray | None = None):
    """State fidelity F = sqrt(<psi|rho|psi>) with its linear uncertainty.

    The overlap F^2 = <psi|rho|psi> of the reconstruction is linear in its
    Gell-Mann parameters, F^2 = a + b.c with b_k = Re<psi|lambda_k|psi>, so
    for a parameter covariance S its variance is exactly b^T S b, and
    sigma_F = sqrt(b^T S b) / (2F).  No projection onto physical states is
    applied: it would bias F low (Schwemmer et al., PRL 114, 080403 (2015)),
    so an overlap above 1 is returned as it is.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.size > STATE_LEVELS:
        raise DomainError(f"target state has {psi.size} levels, more than the "
                          f"STATE_LEVELS = {STATE_LEVELS} reconstructed ones")
    norm = np.linalg.norm(psi)
    if not 0 < norm < math.inf:
        raise DomainError("target state must be finite and non-zero")
    psi = psi / norm
    d = psi.size
    overlap = float(np.real(psi.conj() @ rho[:d, :d] @ psi))
    value = math.sqrt(max(overlap, 0.0))
    if covariance is None:
        return value, 0.0

    covariance = np.asarray(covariance, dtype=float)
    sym = 0.5 * (covariance + covariance.T)
    if np.min(np.linalg.eigvalsh(sym)) < -1e-12 * max(np.max(np.abs(sym)), 1e-300):
        raise FitError("covariance matrix is not positive semidefinite")
    b = np.einsum("i,kij,j->k", psi.conj(), _GELL_MANN[:, :d, :d], psi).real
    variance = max(float(b @ sym @ b), 0.0)
    if value == 0.0:
        return value, math.inf if variance > 0.0 else 0.0
    return value, math.sqrt(variance) / (2.0 * value)


def fit_oscillation_amplitude(x, y):
    """Peak-to-peak amplitude of a fixed-period cosine fit, with uncertainty.

    The drive-amplitude axis is normalized so x = +-1 is a full transfer;
    the model is ``y = b - (a/2) cos(pi x)``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones_like(x), -0.5 * np.cos(math.pi * x)])
    coef, _, cov, cond = _lsq.linear(design, y)
    if cond > _lsq.MAX_GRAM_COND:
        raise IdentifiabilityError("the amplitude fit needs two distinct cos(pi x) values")
    return float(coef[1]), math.sqrt(cov[1, 1])


def rabi_population_estimate(a_e, a_g, sigma_e=0.0, sigma_g=0.0):
    """Excited-state population from e-f oscillation amplitudes.

    ``P = A_e/(A_e + A_g)`` with first-order uncertainty propagation from
    the two amplitude uncertainties.
    """
    total = a_e + a_g
    if a_g <= 0:
        raise DomainError("ground-trace amplitude must be positive")
    if total == 0:
        raise DomainError("amplitude sum must be nonzero")
    if not math.isfinite(total * total):
        raise DomainError("amplitude sum must be finite when squared")
    p = a_e / total
    dp_de = a_g / total**2
    dp_dg = -a_e / total**2
    sigma = math.hypot(dp_de * sigma_e, dp_dg * sigma_g)
    return p, sigma


# ---------------------------------------------------------------------------
# forward synthesis of tomography datasets


def default_alpha_grid(radius: float = 2.0, n_side: int = 5) -> list[complex]:
    """Displacement set: n_side x n_side square grid of half-width ``radius``.

    With odd ``n_side`` the origin is part of the grid; 5x5 gives 25 points,
    comfortably above the 15-parameter identifiability bound.
    """
    axis = np.linspace(-radius, radius, n_side)
    out = []
    for re in axis:
        for im in axis:
            out.append(complex(re, im))
    if 0j not in out:
        out.append(0j)
    return out


def synthesize_dataset(
    state: str,
    params: lb.SystemParams,
    alphas=None,
    t_grid=None,
    noise: float = 0.0,
    seed: int = 0,
) -> TomographyDataset:
    """Simulate the full Wigner-tomography measurement for one target state.

    Runs the synthesis sequence, measures the residual qubit excitation,
    then for each displacement evolves the displaced state under resonant
    coupling and records the qubit trace (plus optional Gaussian noise).
    """
    if t_grid is None:
        t_grid = np.linspace(2e-9, 360e-9, 90)
    t_grid = np.asarray(t_grid, dtype=float)
    if alphas is None:
        alphas = default_alpha_grid()
    if not noise >= 0.0:
        raise DomainError(f"noise must be >= 0, got {noise:g}")
    rng = np.random.default_rng(seed)

    prep = lb.prepare_sequence(state, params)
    prepped = lb.run_sequence(prep, params).rho_final
    # the qubit is measured before the tomography evolution; the back-action
    # removes its coherence with the resonator
    prepped = lb.dephase_qubit(prepped)
    initial_p_e = lb.excited_probability(prepped, params, scaled=False)

    displaced = [lb.displacement(prepped, -alpha, check=False) for alpha in alphas]
    traces = lb.batched_excited_traces(displaced, params, t_grid)
    records = []
    for alpha, p_e in zip(alphas, traces):
        if noise > 0:
            p_e = p_e + rng.normal(0.0, noise, p_e.size)
        records.append(
            TraceRecord(alpha=alpha, t_s=t_grid, p_e=p_e, initial_p_e=initial_p_e)
        )
    return TomographyDataset(records=records, state_label=state, params=params)


def analyze_dataset(
    dataset: TomographyDataset,
) -> tuple[list[PopulationFit], ReconstructedState]:
    """Population fits for every record, then the density-matrix fit."""
    params = dataset.params
    fits = []
    cache = {}
    for rec in dataset.records:
        key = (tuple(np.round(rec.t_s, 15)), round(rec.initial_p_e, 12))
        if key not in cache:
            cache[key] = basis_responses(params, rec.t_s, rec.initial_p_e)
        fits.append(fit_populations(rec, params, responses=cache[key]))
    recon = reconstruct_density_matrix(fits)
    return fits, recon


def reconstruction_report(recon: ReconstructedState, fidelity_value) -> str:
    """JSON text of the report with the density matrix, its smallest eigenvalue
    (negative when the linear estimate is unphysical), parameters,
    covariance and the ``(value, sigma)`` of the state fidelity."""
    report = {
        "rho_re": recon.rho.real.tolist(),
        "rho_im": recon.rho.imag.tolist(),
        "min_eigenvalue": float(np.linalg.eigvalsh(recon.rho_small)[0]),
        "parameters": recon.parameters.tolist(),
        "covariance": recon.covariance.tolist(),
        "residual": recon.residual,
        "fidelity": {"value": fidelity_value[0], "sigma": fidelity_value[1]},
    }
    return document_text(report, "reconstruction")
