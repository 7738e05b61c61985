"""Exact reference propagation for the benchmark's output checks.

The dynamics checks must not depend on the library's own step size, so this
module re-derives the qubit-resonator master equation from the conventions
documented in ``phonon_lab.lindblad`` (qubit-major basis, resonator rotating
frame, three collapse operators) and propagates it without a time step:

* The Liouvillian conserves k = N_ket - N_bra, where N counts qubit plus
  phonon excitations, so it is split into k-sectors and each sector is
  exponentiated on its own with ``scipy.linalg.expm``. Populations and P_e
  live in the k = 0 sector, which is all a trace needs.
* Constant spans are one matrix exponential. Cosine-ramped coupling edges
  use fourth-order Magnus steps (two Gauss points), whose error at the step
  used here is far below the library's RK4 error.
* Rotations and displacements act on the full density matrix.

Only parameter containers and pulse-segment dataclasses are taken from the
library; no propagation code is shared with it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from phonon_lab import lindblad as lb

SQRT3 = math.sqrt(3.0)
# Magnus steps per cosine ramp; 64 steps of a 5 ns ramp agree with 256 steps
# to 2e-12 (see perfbench/README.md).
RAMP_STEPS = 64


def _lowering(dim):
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


SM = np.array([[0, 1], [0, 0]], dtype=complex)
SZ = np.diag([-1.0, 1.0]).astype(complex)
NQ = np.diag([0.0, 1.0]).astype(complex)


class ExactModel:
    """Sector-resolved Liouvillian of one ``SystemParams``.

    ``sectors`` selects the k-sectors kept: ``None`` keeps all of them (the
    whole density matrix), ``(0,)`` keeps populations and the coherences
    that feed back into them.
    """

    def __init__(self, params: lb.SystemParams, sectors=None):
        self.params = params
        dim = params.dim
        self.dim = dim
        n = 2 * dim
        a = _lowering(dim)
        eye_r = np.eye(dim)
        self.n_q = np.kron(NQ, eye_r)
        self.v_int = np.kron(SM.T, a) + np.kron(SM, a.conj().T)
        c_ops = [np.kron(SM, eye_r) / math.sqrt(params.t1)]
        if math.isfinite(params.t_phi):
            c_ops.append(np.kron(SZ, eye_r) / math.sqrt(2.0 * params.t_phi))
        c_ops.append(np.kron(np.eye(2), a) / math.sqrt(params.t1r))

        excitations = np.array([q + m for q in range(2) for m in range(dim)])
        k_all = excitations[:, None] - excitations[None, :]
        keep = sorted(set(k_all.ravel())) if sectors is None else list(sectors)
        self.sectors = []
        for k in keep:
            rows, cols = np.nonzero(k_all == k)
            self.sectors.append((rows, cols, rows * n + cols))

        eye = np.eye(n)
        # every Liouvillian term is a sum of products A[i,k] * B[j,l]
        self._dissipator = []
        for c in c_ops:
            cdc = c.conj().T @ c
            self._dissipator += [(c, c.conj()), (-0.5 * cdc, eye), (eye, -0.5 * cdc.T)]
        self._commutator = lambda h: [(-1j * h, eye), (eye, 1j * h.T)]
        self._cache = {}

    def _sector_matrices(self, terms):
        out = []
        for rows, cols, _ in self.sectors:
            block = np.zeros((rows.size, rows.size), dtype=complex)
            for a_op, b_op in terms:
                block += a_op[np.ix_(rows, rows)] * b_op[np.ix_(cols, cols)]
            out.append(block)
        return out

    def generators(self, delta, g):
        """Sector blocks of L for constant (delta, g)."""
        key = ("L", delta, g)
        if key not in self._cache:
            h = delta * self.n_q + g * self.v_int
            self._cache[key] = self._sector_matrices(self._dissipator + self._commutator(h))
        return self._cache[key]

    def _coupling_generators(self):
        key = ("V",)
        if key not in self._cache:
            self._cache[key] = self._sector_matrices(self._commutator(self.v_int))
        return self._cache[key]

    def constant(self, duration, delta, g):
        """Sector propagators exp(L * duration)."""
        key = ("E", duration, delta, g)
        if key not in self._cache:
            self._cache[key] = [expm(blk * duration) for blk in self.generators(delta, g)]
        return self._cache[key]

    def couple(self, seg: lb.Couple):
        """Sector propagators of a (possibly cosine-ramped) coupling pulse."""
        if seg.ramp <= 0:
            return self.constant(seg.duration, seg.delta, seg.g)
        key = ("C", seg)
        if key in self._cache:
            return self._cache[key]
        base = self.generators(seg.delta, 0.0)
        coupling = self._coupling_generators()
        h = seg.ramp / RAMP_STEPS
        nodes = (0.5 - SQRT3 / 6.0, 0.5 + SQRT3 / 6.0)
        flat = self.constant(seg.duration - 2.0 * seg.ramp, seg.delta, seg.g)
        props = []
        for l0, lv, e_flat in zip(base, coupling, flat):
            up = np.eye(l0.shape[0], dtype=complex)
            down = np.eye(l0.shape[0], dtype=complex)
            for step in range(RAMP_STEPS):
                env = [0.5 * (1.0 - math.cos(math.pi * (step + c) / RAMP_STEPS)) for c in nodes]
                a1 = l0 + seg.g * env[0] * lv
                a2 = l0 + seg.g * env[1] * lv
                omega = 0.5 * h * (a1 + a2) + (SQRT3 / 12.0) * h * h * (a2 @ a1 - a1 @ a2)
                up = expm(omega) @ up
                # the falling edge is the rising edge played backwards in time
                b1 = l0 + seg.g * env[1] * lv
                b2 = l0 + seg.g * env[0] * lv
                omega = 0.5 * h * (b1 + b2) + (SQRT3 / 12.0) * h * h * (b2 @ b1 - b1 @ b2)
                down = down @ expm(omega)
            props.append(down @ e_flat @ up)
        self._cache[key] = props
        return props

    def apply(self, props, rho):
        """Apply sector propagators to a density matrix (or a stack of them)."""
        rho = np.asarray(rho, dtype=complex)
        flat = rho.reshape(rho.shape[:-2] + (-1,))
        out = np.zeros_like(flat)
        for (_, _, idx), prop in zip(self.sectors, props):
            out[..., idx] = flat[..., idx] @ prop.T
        return out.reshape(rho.shape)

    # -- states and instantaneous operations --------------------------------

    def thermal_state(self):
        p = self.params
        pops_r = np.zeros(self.dim)
        pops_r[0], pops_r[1] = 1.0 - p.p_1_th, p.p_1_th
        return np.diag(np.kron([1.0 - p.p_e_th, p.p_e_th], pops_r)).astype(complex)

    def rotation(self, axis, angle, phase):
        base = phase + (math.pi / 2.0 if axis == "y" else 0.0)
        gen = np.array([[0, np.exp(-1j * base)], [np.exp(1j * base), 0]], dtype=complex)
        u2 = math.cos(angle / 2.0) * np.eye(2) - 1j * math.sin(angle / 2.0) * gen
        return np.kron(u2, np.eye(self.dim))

    def resonator_displacement(self, alpha):
        """D(alpha) on the truncated resonator space (exactly unitary)."""
        a = _lowering(self.dim)
        return expm(alpha * a.conj().T - np.conj(alpha) * a)

    def displacement(self, alpha):
        return np.kron(np.eye(2), self.resonator_displacement(alpha))

    def p_e(self, rho):
        dim = self.dim
        diag = np.diagonal(rho, axis1=-2, axis2=-1).real
        return self.params.visibility * diag[..., dim:].sum(axis=-1)

    def populations(self, rho):
        diag = np.diagonal(rho, axis1=-2, axis2=-1).real
        return diag[..., : self.dim] + diag[..., self.dim:]

    # -- whole protocols ----------------------------------------------------

    def run_sequence(self, seq: lb.PulseSequence, rho0=None):
        """Exact counterpart of ``lindblad.run_sequence``: (P_e list, rho)."""
        p = self.params
        rho = self.thermal_state() if rho0 is None else np.asarray(rho0, dtype=complex)
        theta = 0.0
        p_e = []
        for seg in seq.segments:
            if isinstance(seg, lb.Rotation):
                u = self.rotation(seg.axis, seg.angle, seg.phase + theta)
                rho = u @ rho @ u.conj().T
            elif isinstance(seg, lb.Displace):
                d = self.displacement(seg.alpha)
                rho = d @ rho @ d.conj().T
            elif isinstance(seg, lb.Measure):
                p_e.append(float(self.p_e(rho)))
            elif isinstance(seg, lb.Detune):
                rho = self.apply(self.constant(seg.duration, seg.delta, 0.0), rho)
                theta += seg.delta * seg.duration
            elif isinstance(seg, lb.Idle):
                rho = self.apply(self.constant(seg.duration, p.delta, 0.0), rho)
                theta += p.delta * seg.duration
            elif isinstance(seg, lb.Couple):
                rho = self.apply(self.couple(seg), rho)
                theta += seg.delta * seg.duration
            else:
                raise TypeError(f"unknown segment {seg!r}")
        return p_e, rho

    def excited_traces(self, rhos, t_grid, delta=0.0, g=None):
        """Exact counterpart of ``lindblad.batched_excited_traces``."""
        g = self.params.g if g is None else g
        rho = np.asarray(rhos, dtype=complex)
        t_grid = np.asarray(t_grid, dtype=float)
        out = np.empty((rho.shape[0], t_grid.size))
        t_prev = 0.0
        for i, t in enumerate(t_grid):
            rho = self.apply(self.constant(float(t - t_prev), delta, g), rho)
            t_prev = t
            out[:, i] = self.p_e(rho)
        return out
