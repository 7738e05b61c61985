import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.linalg import expm
from scipy.optimize import curve_fit

from phonon_lab import circuit, lindblad as lb, saw
from phonon_lab.errors import DomainError, GridError, TruncationError

TWO_PI = 2 * math.pi


def closed_params(dim=10, g=TWO_PI * 7.3e6):
    return lb.SystemParams(
        g=g, t1=math.inf, t2_ramsey=math.inf, t1r=math.inf,
        dim=dim, p_e_th=0.0, p_1_th=0.0, visibility=1.0,
    )


def qubit_excited(dim):
    return np.kron(np.diag([0.0, 1.0]).astype(complex), lb.fock_state(dim, 0))


def rk4_states(rho, t_grid, h0, c_ops, dt, v=None, env=None):
    """Fixed-step RK4 of the master equation: the state at each grid time.

    An oracle independent of the library's propagator.  The Hamiltonian at
    absolute time t is ``h0 + env(t)*v`` (``h0`` alone without ``v``); the
    master equation runs on the row-major vectorised state, with sparse
    superoperators, where rho -> A rho B is kron(A, B.T).
    """
    eye = sparse.identity(rho.shape[0], dtype=complex, format="csr")

    def commutator(h):
        h = sparse.csr_matrix(h)
        return -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))

    l0 = commutator(h0)
    for c in c_ops:
        c = sparse.csr_matrix(c)
        cdc = c.conj().T @ c
        l0 = l0 + sparse.kron(c, c.conj()) - 0.5 * (sparse.kron(cdc, eye) + sparse.kron(eye, cdc.T))
    l0 = l0.tocsr()
    lv = commutator(v).tocsr() if v is not None else None

    def rhs(x, t):
        out = l0 @ x
        if lv is not None:
            out += env(t) * (lv @ x)
        return out

    x, states, t = rho.reshape(-1).astype(complex), [], 0.0
    for t_end in t_grid:
        n_steps = int(math.ceil((t_end - t) / dt - 1e-9))
        step = (t_end - t) / n_steps if n_steps else 0.0
        for _ in range(n_steps):
            k1 = rhs(x, t)
            k2 = rhs(x + 0.5 * step * k1, t + 0.5 * step)
            k3 = rhs(x + 0.5 * step * k2, t + 0.5 * step)
            k4 = rhs(x + step * k3, t + step)
            x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += step
        t = t_end
        states.append(x.reshape(rho.shape))
    return states


_detuning = st.floats(-TWO_PI * 30e6, TWO_PI * 30e6)
_hold = st.floats(0.0, 40e-9)


@st.composite
def _couple(draw):
    duration = draw(st.floats(1e-9, 40e-9))
    ramp = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5])) * duration
    g = draw(st.floats(-TWO_PI * 10e6, TWO_PI * 10e6))
    return lb.Couple(g, duration, draw(_detuning), ramp)


_continuous = st.one_of(
    _couple(), st.builds(lb.Idle, _hold), st.builds(lb.Detune, _detuning, _hold)
)
_segment = st.one_of(
    _continuous,
    st.builds(lb.Rotation, st.sampled_from("xy"), st.floats(-TWO_PI, TWO_PI),
              st.floats(-math.pi, math.pi)),
    # |alpha| <= 0.4 keeps D(alpha) inside dim 3 (|alpha|^2 + 4|alpha| < dim)
    st.builds(lb.Displace, st.complex_numbers(max_magnitude=0.4)),
)


def excitation_sectors(dim):
    """k = N_ket - N_bra of every density-matrix entry, N = qubit + phonons."""
    n_exc = np.add.outer(np.arange(2), np.arange(dim)).ravel()
    return n_exc[:, None] - n_exc[None, :]


def dense_liouvillian(p, delta, g):
    """Row-major superoperator over every sector: rho -> A rho B is kron(A, B.T)."""
    h = lb.build_hamiltonian(delta, g, p.dim)
    eye = np.eye(2 * p.dim)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in lb.collapse_operators(p):
        cdc = c.conj().T @ c
        sup += np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return sup


def all_sector_reference(seq, p):
    """Final state of a sequence of rotations, displacements and constant
    resonant couplings from the thermal state, with dense exponentials."""
    rho = lb.thermal_state(p)
    for seg in seq.segments:
        if isinstance(seg, lb.Rotation):
            u = lb.qubit_rotation(seg.axis, seg.angle, seg.phase, p.dim)
            rho = u @ rho @ u.conj().T
        elif isinstance(seg, lb.Displace):
            rho = lb.displacement(rho, seg.alpha)
        elif isinstance(seg, lb.Couple):
            assert seg.delta == 0.0 and seg.ramp == 0.0
            prop = expm(seg.duration * dense_liouvillian(p, 0.0, seg.g))
            rho = (prop @ rho.reshape(-1)).reshape(rho.shape)
    return rho


class TestHamiltonian:
    def test_zero_when_uncoupled_resonant(self):
        h = lb.build_hamiltonian(0.0, 0.0, 6)
        assert np.all(h == 0)

    def test_single_quantum_matrix_element(self):
        g = TWO_PI * 7.3e6
        h = lb.build_hamiltonian(0.0, g, 10)
        # |e,0> = index dim, |g,1> = index 1
        assert h[10, 1] == pytest.approx(g)

    def test_ladder_scaling_against_kron_oracle(self):
        g = TWO_PI * 5e6
        delta = TWO_PI * 2e6
        dim = 7
        a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
        sp = np.array([[0, 0], [1, 0]], dtype=complex)
        oracle = delta * np.kron(sp @ sp.T.conj(), np.eye(dim)) + g * (
            np.kron(sp, a) + np.kron(sp.conj().T, a.conj().T)
        )
        h = lb.build_hamiltonian(delta, g, dim)
        assert np.allclose(h, oracle, atol=1e-18)
        assert h[dim + 1, 2] == pytest.approx(g * math.sqrt(2))

    def test_hermitian_and_conserves_excitation(self):
        h = lb.build_hamiltonian(TWO_PI * 3e6, TWO_PI * 6e6, 8)
        assert np.allclose(h, h.conj().T)
        n_tot = np.kron(np.diag([0.0, 1.0]), np.eye(8)) + np.kron(
            np.eye(2), np.diag(np.arange(8.0))
        )
        assert np.max(np.abs(h @ n_tot - n_tot @ h)) < 1e-6 * np.max(np.abs(h))

    def test_small_dimension_rejected(self):
        with pytest.raises(DomainError):
            lb.build_hamiltonian(0.0, 1.0, 1)


class TestCollapseOperators:
    def test_three_operators_with_rates(self):
        p = lb.SystemParams()
        ops = lb.collapse_operators(p)
        assert len(ops) == 3
        # qubit decay block scales as 1/sqrt(T1)
        assert np.max(np.abs(ops[0])) == pytest.approx(1.0 / math.sqrt(p.t1))

    def test_infinite_qubit_lifetimes_leave_only_phonon_decay(self):
        p = lb.SystemParams(t1=math.inf, t2_ramsey=math.inf)
        ops = lb.collapse_operators(p)
        assert len(ops) == 1
        a = lb.lowering_operator(p.dim)
        assert np.allclose(ops[0], np.kron(np.eye(2), a) / math.sqrt(p.t1r))

    def test_ramsey_at_twice_t1_drops_dephasing(self):
        p = lb.SystemParams(t1=10e-6, t2_ramsey=20e-6)
        assert math.isinf(p.t_phi)
        ops = lb.collapse_operators(p)
        assert len(ops) == 2  # sigma_minus and a only

    def test_nonpositive_lifetime_rejected(self):
        with pytest.raises(DomainError):
            lb.SystemParams(t1=-1.0)

    @pytest.mark.parametrize(
        "name", ["g", "delta", "t1", "t2_ramsey", "t1r", "p_e_th", "p_1_th", "visibility"]
    )
    def test_nan_parameter_rejected(self, name):
        # a NaN t1r would otherwise drop phonon decay without a word
        with pytest.raises(DomainError, match="NaN"):
            lb.SystemParams(**{name: math.nan})

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["g", "delta"])
    def test_infinite_rate_rejected(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            lb.SystemParams(**{name: value})
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            lb.Couple(**{"g": TWO_PI * 7.3e6, "duration": 10e-9, name: value})
        if name == "delta":  # the traces take their g from params
            with pytest.raises(DomainError, match="delta must be finite"):
                lb.batched_excited_traces(
                    [qubit_excited(2)], closed_params(dim=2), [1e-9], delta=value
                )

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_infinite_detuning_hold_rejected(self, value):
        with pytest.raises(DomainError, match="delta must be finite"):
            lb.Detune(value, 10e-9)

    def test_negative_coupling_allowed(self):
        # coupling_strength returns a signed g; the sign is a phase convention
        assert lb.SystemParams(g=-TWO_PI * 7.3e6).g < 0
        assert lb.Couple(-TWO_PI * 7.3e6, 10e-9).g < 0

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: lb.Idle(math.nan), id="idle-nan"),
            pytest.param(lambda: lb.Idle(math.inf), id="idle-inf"),
            pytest.param(lambda: lb.Detune(0.0, math.nan), id="detune-duration"),
            pytest.param(lambda: lb.Rotation("x", math.nan), id="rotation-angle"),
            pytest.param(lambda: lb.Rotation("y", math.pi, math.inf), id="rotation-phase"),
            pytest.param(lambda: lb.Displace(complex(math.nan, 0.0)), id="displace-alpha"),
            pytest.param(lambda: lb.Couple(TWO_PI * 7.3e6, math.nan), id="couple-duration"),
            pytest.param(lambda: lb.Couple(TWO_PI * 7.3e6, 20e-9, 0.0, math.nan),
                         id="couple-ramp"),
        ],
    )
    def test_nonfinite_segment_field_rejected(self, make):
        # each of these used to give p_e = [nan] without an error
        with pytest.raises(DomainError, match="must be finite"):
            make()

    def test_defaults_are_the_modelled_device(self):
        bvd = saw.reference_bvd()
        p = lb.SystemParams()
        assert p.g == abs(circuit.coupling_strength(0.5, circuit.CircuitParams(), bvd))
        assert p.t1r == bvd.q / bvd.omega_s


class TestEvolve:
    def test_vacuum_rabi_analytic(self):
        p = closed_params()
        seq = lb.PulseSequence([lb.Couple(p.g, 80e-9)])
        t = np.linspace(0.0, 80e-9, 801)
        states = lb.run_sequence(seq, p, qubit_excited(p.dim), t).states
        assert np.max(np.abs(lb.excited_probability(states, p) - np.cos(p.g * t) ** 2)) < 1e-9

    def test_swap_time(self):
        p = closed_params()
        seq = lb.PulseSequence([lb.Couple(p.g, 40e-9)])
        t = np.linspace(30e-9, 38e-9, 801)
        p_e = lb.excited_probability(lb.run_sequence(seq, p, qubit_excited(p.dim), t).states, p)
        i = int(np.argmin(p_e))
        a, b, c = p_e[i - 1], p_e[i], p_e[i + 1]
        t_min = t[i] + 0.5 * (a - c) / (a - 2 * b + c) * (t[1] - t[0])
        assert abs(t_min - math.pi / (2 * p.g)) < 0.1e-9

    def test_phonon_lifetime_decay(self):
        p = lb.SystemParams(
            t1=math.inf, t2_ramsey=math.inf, t1r=148e-9,
            p_e_th=0.0, p_1_th=0.0, visibility=1.0,
        )
        rho0 = np.kron(np.diag([1.0, 0.0]).astype(complex), lb.fock_state(p.dim, 1))
        seq = lb.PulseSequence([lb.Idle(296e-9)])
        t = np.linspace(0.0, 296e-9, 75)
        p1 = lb.resonator_populations(lb.run_sequence(seq, p, rho0, t).states)[:, 1]
        assert np.max(np.abs(p1 - np.exp(-t / p.t1r))) < 1e-6
        assert np.interp(148e-9, t, p1) == pytest.approx(math.exp(-1), abs=1e-6)

    def test_trace_preserved_along_trajectory(self):
        p = lb.SystemParams()
        rho0 = lb.thermal_state(p)
        u = lb.qubit_rotation("x", math.pi, 0.0, p.dim)
        rho0 = u @ rho0 @ u.conj().T
        seq = lb.PulseSequence([lb.Couple(p.g, 100e-9, 0.0, 5e-9)])
        t = np.linspace(0.0, 100e-9, 21)
        rho = lb.run_sequence(seq, p, rho0, t).rho_final
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-8

    def test_excitation_conserved_without_dissipation(self):
        p = closed_params(dim=6)
        seq = lb.PulseSequence([lb.Couple(p.g, 60e-9, TWO_PI * 5e6)])
        t = np.linspace(0.0, 60e-9, 31)
        states = lb.run_sequence(seq, p, qubit_excited(6), t).states
        n_exc = lb.resonator_populations(states) @ np.arange(6.0)  # phonons
        p_e_raw = lb.excited_probability(states, p)  # visibility = 1 here
        total = n_exc + p_e_raw
        assert np.max(np.abs(total - total[0])) < 1e-8

    def test_matches_fine_step_rk4(self):
        # a constant and a cosine-ramped pulse; the 1.25 ns grid samples
        # inside both ramps
        p = lb.SystemParams(visibility=1.0)
        delta, duration = TWO_PI * 3e6, 40e-9
        t = np.linspace(0.0, duration, 33)
        rho0 = lb.thermal_state(p)
        u = lb.qubit_rotation("x", 2.0, 0.0, p.dim)
        rho0 = u @ rho0 @ u.conj().T
        n_q = np.kron(np.diag([0.0, 1.0]), np.eye(p.dim))
        v_int = lb.build_hamiltonian(0.0, 1.0, p.dim)
        for ramp in (0.0, 5e-9):
            seq = lb.PulseSequence([lb.Couple(p.g, duration, delta, ramp)])
            res = lb.run_sequence(seq, p, rho0, t)

            def env(time, ramp=ramp):
                edge = min(time, duration - time)
                return 0.5 * (1.0 - math.cos(math.pi * edge / ramp)) if edge < ramp else 1.0

            ref = rk4_states(rho0, t, delta * n_q, lb.collapse_operators(p), 0.01e-9,
                             p.g * v_int, env)
            p_e = [np.trace(r[p.dim:, p.dim:]).real for r in ref]
            assert np.max(np.abs(lb.excited_probability(res.states, p) - p_e)) < 1e-9
            pops = [lb.resonator_populations(r) for r in ref]
            assert np.max(np.abs(lb.resonator_populations(res.states) - pops)) < 1e-9
            assert np.max(np.abs(res.rho_final - ref[-1])) < 1e-9

    def test_bump_windows_match_fine_step_rk4(self):
        # two ramped pulses of different lengths and ramps around an idle,
        # then a pure bump with the first pulse's ramp; the grid samples
        # inside every edge and on every edge boundary.  One (delta, g)
        # throughout makes a cache key that drops the span or the window
        # start share entries, and keeps the Hamiltonian continuous at the
        # boundaries, where the RK4 oracle cannot tell which segment a step
        # belongs to.
        p = lb.SystemParams(dim=6, delta=TWO_PI * 3e6, visibility=1.0)
        seq = lb.PulseSequence([
            lb.Couple(p.g, 20e-9, p.delta, 4e-9),
            lb.Idle(3e-9),
            lb.Couple(p.g, 16e-9, p.delta, 6e-9),
            lb.Couple(p.g, 8e-9, p.delta, 4e-9),
        ])
        pulses, times, begin = [], [], 0.0
        for seg in seq.segments:
            if isinstance(seg, lb.Couple):
                pulses.append((begin, seg))
                for edge in (0.0, seg.duration - seg.ramp):
                    times += [begin + edge + f * seg.ramp for f in (0.0, 0.3, 0.7, 1.0)]
            begin += seg.duration
        assert all(seg.g == p.g and seg.delta == p.delta for _, seg in pulses)
        t = np.unique(times)
        n_q = np.kron(np.diag([0.0, 1.0]), np.eye(p.dim))
        v_int = lb.build_hamiltonian(0.0, 1.0, p.dim)

        def env(time):
            for start, seg in pulses:
                if 0.0 <= time - start <= seg.duration:
                    edge = min(time - start, start + seg.duration - time)
                    return 0.5 * (1.0 - math.cos(math.pi * edge / seg.ramp)) if edge < seg.ramp else 1.0
            return 0.0

        rho0 = lb.thermal_state(p)
        u = lb.qubit_rotation("x", 2.0, 0.0, p.dim)
        rho0 = u @ rho0 @ u.conj().T
        res = lb.run_sequence(seq, p, rho0, t)
        ref = rk4_states(rho0, t, p.delta * n_q, lb.collapse_operators(p), 0.01e-9,
                         p.g * v_int, env)
        p_e = [np.trace(r[p.dim:, p.dim:]).real for r in ref]
        assert np.max(np.abs(lb.excited_probability(res.states, p) - p_e)) < 1e-9
        pops = [lb.resonator_populations(r) for r in ref]
        assert np.max(np.abs(lb.resonator_populations(res.states) - pops)) < 1e-9
        assert np.max(np.abs(res.rho_final - ref[-1])) < 1e-9

    def test_length_scan_builds_each_ramp_once(self, monkeypatch):
        # the rising and falling ramp products do not depend on the pulse
        # length, so five lengths at fixed (params, delta, g, ramp) build two
        p = lb.SystemParams()
        builds = []
        magnus = lb._magnus

        def counting(*args):
            builds.append(args)
            return magnus(*args)

        monkeypatch.setattr(lb, "_magnus", counting)
        lb._propagator.cache_clear()
        for duration in np.linspace(30e-9, 46e-9, 5):
            seq = lb.PulseSequence(
                [lb.Rotation("x", math.pi), lb.Couple(p.g, duration, 0.0, 5e-9), lb.Measure()]
            )
            lb.run_sequence(seq, p)
        assert len(builds) == 2

    def test_swap_ramps_outlive_a_chevron_scan(self, monkeypatch):
        # fig3c's default scan fills a propagator entry per detuning; the
        # swap ramps built before it must still be cached after it
        p = lb.SystemParams()
        builds = []
        magnus = lb._magnus

        def counting(*args):
            builds.append(args)
            return magnus(*args)

        monkeypatch.setattr(lb, "_magnus", counting)
        lb._propagator.cache_clear()
        swap = lb.prepare_sequence("1", p)
        lb.run_sequence(swap, p)
        assert len(builds) == 2
        rho0 = lb.run_sequence(lb.PulseSequence([lb.Rotation("x", math.pi)]), p).rho_final
        taus = np.linspace(1e-9, 150e-9, 76)
        for delta in TWO_PI * np.linspace(-20e6, 20e6, 41):
            lb.batched_excited_traces([rho0], p, taus, delta=delta)
        builds.clear()
        lb.run_sequence(swap, p)
        assert builds == []

    def test_global_frame_offset_leaves_qubit_invariant(self):
        # adding the same offset to qubit and resonator only shifts the frame
        p = closed_params(dim=5, g=TWO_PI * 6e6)
        delta = TWO_PI * 4e6
        offset = TWO_PI * 40e6
        t = np.linspace(0.0, 50e-9, 26)
        seq = lb.PulseSequence([lb.Couple(p.g, 50e-9, delta)])
        ref = lb.excited_probability(lb.run_sequence(seq, p, qubit_excited(5), t).states, p)

        a = lb.lowering_operator(5)
        h_off = lb.build_hamiltonian(delta, p.g, 5) + offset * (
            np.kron(np.diag([0.0, 1.0]), np.eye(5)) + np.kron(np.eye(2), np.diag(np.arange(5.0)))
        )
        states = rk4_states(qubit_excited(5), t, h_off, [], 0.05e-9)
        p_e = [np.trace(rho[5:, 5:]).real for rho in states]
        assert np.max(np.abs(ref - np.array(p_e))) < 1e-7

    def test_liouvillian_never_leaves_an_excitation_sector(self):
        p = lb.SystemParams(dim=6, delta=TWO_PI * 2e6)
        sup = dense_liouvillian(p, p.delta, p.g)
        k = excitation_sectors(p.dim).ravel()
        assert np.max(np.abs(sup)) > 1e6
        assert np.all(sup[k[:, None] != k[None, :]] == 0)

    def test_two_rotations_reach_three_sectors_out(self):
        # each rotation moves k by up to 2: after the second one the state
        # has weight in k = +-3, which the walker must propagate too
        p = lb.SystemParams(p_1_th=0.05)
        seq = lb.PulseSequence([
            lb.Rotation("x", math.pi / 2), lb.Couple(p.g, 20e-9),
            lb.Rotation("y", math.pi / 2), lb.Couple(p.g, 15e-9), lb.Measure(),
        ])
        ref = all_sector_reference(seq, p)
        k = excitation_sectors(p.dim)
        assert np.sum(np.abs(ref[np.abs(k) == 3])) > 1e-3
        rho = lb.run_sequence(seq, p).rho_final
        assert np.max(np.abs(rho - ref)) < 1e-12

    def test_displacement_between_couplings_matches_all_sectors(self):
        p = lb.SystemParams()
        seq = lb.PulseSequence([
            lb.Rotation("x", math.pi / 2), lb.Couple(p.g, 20e-9),
            lb.Displace(0.6 - 0.4j), lb.Couple(p.g, 25e-9), lb.Measure(),
        ])
        ref = all_sector_reference(seq, p)
        k = excitation_sectors(p.dim)
        assert min(np.max(np.abs(ref[k == kk])) for kk in np.unique(k)) > 0
        rho = lb.run_sequence(seq, p).rho_final
        assert np.max(np.abs(rho - ref)) < 1e-12

    def test_thermal_superposition_builds_only_occupied_ramps(self, monkeypatch):
        # thermal start (k = 0) then a pi/2 rotation: only k = -1, 0, 1 are
        # occupied, and k = -1 is the conjugate transpose of k = 1, so the
        # swap's ramps are built for k = 0 and 1
        p = lb.SystemParams()
        built = set()
        magnus = lb._magnus

        def counting(params, k, *args):
            built.add(k)
            return magnus(params, k, *args)

        monkeypatch.setattr(lb, "_magnus", counting)
        lb._propagator.cache_clear()
        lb.run_sequence(lb.prepare_sequence("0+1", p), p)
        assert built == {0, 1}

    @pytest.mark.parametrize("make", [
        pytest.param(lambda p: lb.prepare_sequence("1", p), id="1"),
        pytest.param(lambda p: lb.fock2_sequence(p, 20e-9), id="fock2"),
    ])
    def test_pi_rotation_from_thermal_builds_only_k0_ramps(self, monkeypatch, make):
        # a closed-form pi rotation leaves cos(pi/2) = 6.1e-17 on its
        # diagonal, so the rotated thermal state holds round-off in k = +-1;
        # the occupancy floor keeps it in k = 0, where counting that residue
        # would triple the swap's ramp builds
        p = lb.SystemParams()
        built = set()
        magnus = lb._magnus

        def counting(params, k, *args):
            built.add(k)
            return magnus(params, k, *args)

        monkeypatch.setattr(lb, "_magnus", counting)
        lb._propagator.cache_clear()
        lb.run_sequence(make(p), p)
        assert built == {0}

    @pytest.mark.parametrize("level, sectors", [(1e-12, {0, 1}), (1e-17, {0})],
                             ids=["above-floor", "below-floor"])
    def test_occupancy_floor(self, monkeypatch, level, sectors):
        # a thermal state with |e,0><g,0| coherences (k = +-1) at a share
        # of its largest entry: above the floor k = 1 is propagated, below
        # it the sector is dropped at a cost of at most the floor
        p = lb.SystemParams()
        rho0 = lb.thermal_state(p)
        top = np.max(np.abs(rho0))
        rho0[p.dim, 0] = rho0[0, p.dim] = level * top
        built = set()
        magnus = lb._magnus

        def counting(params, k, *args):
            built.add(k)
            return magnus(params, k, *args)

        monkeypatch.setattr(lb, "_magnus", counting)
        lb._propagator.cache_clear()
        lb.run_sequence(lb.PulseSequence([lb.swap_segment(p)]), p, rho0)
        assert built == sectors
        duration = 30e-9
        prop = expm(duration * dense_liouvillian(p, 0.0, p.g))
        ref = (prop @ rho0.reshape(-1)).reshape(rho0.shape)
        rho = lb.run_sequence(lb.PulseSequence([lb.Couple(p.g, duration)]), p, rho0).rho_final
        k = excitation_sectors(p.dim)
        if level > lb._OCCUPANCY_FLOOR:
            assert np.max(np.abs(rho[k == 1])) > 0.1 * level * top
            assert np.max(np.abs(rho - ref)) < 1e-12
        else:
            assert not np.any(rho[k != 0])
            assert np.max(np.abs(rho - ref)) <= lb._OCCUPANCY_FLOOR * top

    def test_fields_outside_the_liouvillian_share_ramps(self, monkeypatch):
        # the idle detuning, g, the thermal populations and the visibility
        # do not enter the generators, so both systems use one k = 0 ramp pair
        builds = []
        magnus = lb._magnus

        def counting(*args):
            builds.append(args)
            return magnus(*args)

        monkeypatch.setattr(lb, "_magnus", counting)
        lb._propagator.cache_clear()
        base = lb.SystemParams()
        other = lb.SystemParams(delta=TWO_PI * 53e6, p_e_th=0.03, visibility=0.9, g=base.g / 2)
        for p in (base, other):
            lb.run_sequence(lb.PulseSequence([lb.swap_segment(base), lb.Measure()]), p)
        assert len(builds) == 2

    def test_traces_propagate_only_the_population_sector(self):
        # a displaced, partly rotated state puts weight in every sector, and
        # the k = 0 traces still match the all-sector walker
        p = lb.SystemParams()
        u = lb.qubit_rotation("x", 1.1, 0.4, p.dim)
        rho0 = lb.displacement(u @ lb.thermal_state(p) @ u.conj().T, 0.9 - 0.6j)
        k = excitation_sectors(p.dim)
        assert min(np.max(np.abs(rho0[k == kk])) for kk in np.unique(k)) > 1e-6
        delta = TWO_PI * 4e6
        t = np.linspace(0.0, 80e-9, 41)
        seq = lb.PulseSequence([lb.Couple(p.g, 80e-9, delta)])
        p_e = lb.excited_probability(lb.run_sequence(seq, p, rho0, t).states, p)
        traces = lb.batched_excited_traces([rho0], p, t, delta=delta)
        assert np.max(np.abs(traces[0] - p_e)) < 1e-12

    def test_sampled_states_continue_with_their_frame_phase(self):
        # the lifetimes sequence cut inside its hold: each sampled state,
        # swapped back with a tail rotation that carries the sample's phase,
        # must give the uninterrupted sequence's state
        p = lb.SystemParams(delta=TWO_PI * 53e6)
        swap = lb.swap_segment(p)
        holds = np.array([0.0, 3e-9, 7.5e-9, 20e-9])
        rot = lb.Rotation("x", math.pi / 2)
        seq = lb.PulseSequence([rot, swap, lb.Idle(holds[-1])])
        res = lb.run_sequence(seq, p, t_grid=swap.duration + holds)
        assert np.max(np.abs(res.phase - p.delta * holds)) < 1e-9 * p.delta * holds[-1]
        for pulse in (lb.TOMOGRAPHY_PULSES["x90"], lb.TOMOGRAPHY_PULSES["y90"]):
            shifted = [lb.Rotation(pulse.axis, pulse.angle, pulse.phase + theta)
                       for theta in res.phase]
            for w, rho, tail in zip(holds, res.states, shifted):
                full = lb.run_sequence(lb.PulseSequence([rot, swap, lb.Idle(w), swap, pulse]), p)
                cont = lb.run_sequence(lb.PulseSequence([swap, tail]), p, rho)
                assert np.max(np.abs(cont.rho_final - full.rho_final)) < 1e-12

    def test_grid_validation(self):
        p = closed_params()
        seq = lb.PulseSequence([lb.Couple(p.g, 10e-9)])
        with pytest.raises(GridError):
            lb.run_sequence(seq, p, qubit_excited(p.dim), np.array([0.0, 20e-9]))
        with pytest.raises(GridError):
            lb.run_sequence(seq, p, qubit_excited(p.dim), np.array([5e-9, 1e-9]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_time_rejected(self, bad):
        # a NaN step used to repeat the previous sample, an infinite one to
        # return NaN with an expm warning
        p = closed_params()
        seq = lb.PulseSequence([lb.Couple(p.g, 10e-9)])
        with pytest.raises(GridError, match="finite"):
            lb.run_sequence(seq, p, qubit_excited(p.dim), np.array([1e-9, bad]))
        with pytest.raises(GridError, match="finite"):
            lb.batched_excited_traces([qubit_excited(p.dim)], p, [1e-9, bad])

    def test_sampled_run_checks_start_and_grid(self):
        # a valid grid does not let a non-Hermitian start through, and the
        # thermal start does not skip the grid checks
        p = closed_params()
        seq = lb.PulseSequence([lb.Couple(p.g, 10e-9)])
        rho0 = qubit_excited(p.dim)
        rho0[0, p.dim] = 1e-9
        with pytest.raises(DomainError, match="not Hermitian"):
            lb.run_sequence(seq, p, rho0, np.array([1e-9, 5e-9]))
        for bad in ([0.0, 20e-9], [5e-9, 1e-9], [1e-9, math.nan], [1e-9, math.inf]):
            with pytest.raises(GridError):
                lb.run_sequence(seq, p, t_grid=np.array(bad))

    @pytest.mark.parametrize("grid", [[[1e-9, 2e-9]], []], ids=["2-d", "empty"])
    def test_traces_reject_grid_that_is_not_1d_or_empty(self, grid):
        p = closed_params()
        with pytest.raises(GridError, match="non-empty 1-d"):
            lb.batched_excited_traces([qubit_excited(p.dim)], p, grid)


class TestRampProduct:
    @pytest.mark.parametrize("window", [(0.0, 1.0), (1.0, 2.0), (0.3, 0.7)],
                             ids=["rising", "falling", "partial"])
    @pytest.mark.parametrize("delta", [0.0, TWO_PI * 20e6], ids=["resonant", "detuned"])
    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_magnus_converges_at_sixth_order(self, monkeypatch, k, delta, window):
        p = lb.SystemParams()
        ramp = lb.DEFAULT_RAMP
        expm_calls = []
        library_expm = lb._expm

        def counting_expm(m):
            expm_calls.append(m)
            return library_expm(m)

        monkeypatch.setattr(lb, "_expm", counting_expm)
        steps = lb._RAMP_STEPS

        def product(ramp_steps):
            monkeypatch.setattr(lb, "_RAMP_STEPS", ramp_steps)
            expm_calls.clear()
            prop = lb._magnus(p, k, delta, p.g, ramp, window[0] * ramp, window[1] * ramp)
            return prop, len(expm_calls)

        ref, _ = product(8 * steps)
        fine, n_fine = product(steps)
        coarse, n_coarse = product(steps // 2)
        err_fine = np.max(np.abs(fine - ref))
        err_coarse = np.max(np.abs(coarse - ref))
        assert err_fine < 2e-11
        # a sixth-order error grows by 2**6 when the step count halves, so
        # the ratio lies in [32, 128]; the partial window's pro-rata counts
        # (7 and 4) do not halve, so the order is read off the counts
        order = math.log(err_coarse / err_fine) / math.log(n_fine / n_coarse)
        assert 5 <= order <= 7


class TestQubitRotation:
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_closed_form_matches_the_matrix_exponential(self, axis):
        # the oracle exponentiates -i*angle/2 times the rotated axis
        base = {"x": 0.0, "y": math.pi / 2}[axis]
        dim = 3
        for angle in np.linspace(-TWO_PI, TWO_PI, 33):
            for phase in np.linspace(-math.pi, TWO_PI, 13):
                u = lb.qubit_rotation(axis, angle, phase, dim)
                gen = math.cos(base + phase) * lb.SIGMA_X + math.sin(base + phase) * lb.SIGMA_Y
                oracle = np.kron(expm(-0.5j * angle * gen), np.eye(dim))
                assert np.max(np.abs(u - oracle)) <= 1e-15
                assert np.max(np.abs(u.conj().T @ u - np.eye(2 * dim))) <= 1e-15


class TestMatrixExponential:
    """The library's Pade exponential against scipy's, on the matrices it
    exponentiates, within 1e-12 of the largest entry of scipy's result."""

    @staticmethod
    def assert_matches_scipy(m):
        ref = expm(m)
        assert np.max(np.abs(lb._expm(m) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("delta", [0.0, TWO_PI * 53e6], ids=["resonant", "detuned"])
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("dim", [10, 30, 50])
    def test_sector_generators(self, dim, k, delta):
        p = lb.SystemParams(dim=dim)
        d, n_q, v = lb._generators(lb._liouvillian_key(p), k)
        for span in (0.3e-9, 5e-9, 60e-9, 400e-9, 1.5e-6):
            self.assert_matches_scipy(span * (d + delta * n_q + p.g * v))

    @pytest.mark.parametrize("dim", [10, 50])
    def test_displacement_generators(self, dim):
        a = lb.lowering_operator(dim)
        for alpha in (0.0, 0.3, 1.1 - 0.7j, 2j * math.sqrt(2), -3.0 + 4.0j, 5.0):
            self.assert_matches_scipy(alpha * a.conj().T - np.conj(alpha) * a)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_span_raises_domain_error_outside_the_cli():
    # _expm's norm check, not the caller's floating-point state, owns this error
    with pytest.raises(DomainError, match="overflows"):
        lb.run_sequence(lb.PulseSequence([lb.Idle(1e308)]), lb.SystemParams())


@pytest.mark.filterwarnings("error")
def test_huge_finite_generator_raises_domain_error_not_nan():
    # the norm is finite, so only the squarings overflow: no NaN trace, no warning
    p = lb.SystemParams()
    with pytest.raises(DomainError, match="overflows"):
        lb.batched_excited_traces([lb.thermal_state(p)], p, [1e-9, 2e-9], delta=TWO_PI * 5e299)


@pytest.mark.filterwarnings("error")
def test_span_key_rounds_any_finite_span_and_rejects_an_infinite_one():
    # numpy's round(x, 21) multiplies by 1e21, which overflows above 1.8e287
    assert lb._span_key(np.float64(1e300)) == 1e300
    assert lb._span_key(np.float64(30e-9) - np.float64(20e-9)) == 1e-8
    assert type(lb._span_key(np.float64(1e-9))) is float
    with pytest.raises(GridError):
        lb._span_key(np.float64(np.inf))


class TestHermitianHalf:
    """The walker propagates k >= 0 and writes each -k sector from k."""

    @pytest.mark.parametrize("system", [
        pytest.param(lambda dim: lb.SystemParams(dim=dim), id="lossy"),
        pytest.param(lambda dim: closed_params(dim), id="no-collapse"),
    ])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_generator_blocks_match_the_dense_liouvillian(self, k, system):
        # each block of L(delta, g) = D + delta*N + g*V is the sector's block
        # of the dense superoperator; without collapse operators D is zero
        dim = 5
        p = system(dim)
        idx = lb._sector_indices(dim)[k][2]
        closed = closed_params(dim)
        parts = (dense_liouvillian(p, 0.0, 0.0), dense_liouvillian(closed, 1.0, 0.0),
                 dense_liouvillian(closed, 0.0, 1.0))
        stored = lb._generators(lb._liouvillian_key(p), k)
        for dense, block in zip(parts, stored):
            expected = dense[np.ix_(idx, idx)]
            assert block.shape == expected.shape
            assert np.max(np.abs(block - expected)) <= 1e-12 * max(np.max(np.abs(expected)), 1.0)
        assert (np.max(np.abs(stored[0])) > 0) == bool(lb.collapse_operators(p))

    def test_rotated_displaced_coupled_state_is_exactly_hermitian(self):
        p = lb.SystemParams()
        seq = lb.PulseSequence([
            lb.Rotation("x", 1.1, 0.4), lb.Displace(0.6 - 0.4j),
            lb.Couple(p.g, 30e-9, TWO_PI * 4e6, 5e-9),
        ])
        rho = lb.run_sequence(seq, p).rho_final
        k = excitation_sectors(p.dim)
        assert min(np.max(np.abs(rho[k == kk])) for kk in np.unique(k)) > 0
        assert np.array_equal(rho, rho.conj().T)

    def test_no_negative_sector_is_built(self, monkeypatch):
        # a displaced state fills every sector; the walker, its samples and
        # the traces still build generators, ramps and propagators for k >= 0
        p = lb.SystemParams()
        built = []
        for name in ("_generators", "_propagator"):
            build = getattr(lb, name).__wrapped__

            def counting(key, k, *args, build=build):
                built.append(k)
                return build(key, k, *args)

            monkeypatch.setattr(lb, name, lru_cache(maxsize=None)(counting))
        seq = lb.PulseSequence([
            lb.Rotation("x", math.pi / 2), lb.Displace(0.5 + 0.3j),
            lb.Couple(p.g, 30e-9, 0.0, 5e-9), lb.Idle(10e-9), lb.Measure(),
        ])
        rho = lb.run_sequence(seq, p).rho_final
        lb.run_sequence(seq, p, rho, [5e-9, 20e-9, 35e-9])
        lb.batched_excited_traces([rho], p, [10e-9, 20e-9])
        assert set(built) == set(range(p.dim + 1))

    @pytest.mark.parametrize("run", [
        pytest.param(lambda p, rho: lb.batched_excited_traces([rho], p, [10e-9, 20e-9]),
                     id="traces"),
        pytest.param(lambda p, rho: lb.run_sequence(
            lb.PulseSequence([lb.Couple(p.g, 30e-9), lb.Measure()]), p, rho), id="couple"),
        pytest.param(lambda p, rho: lb.run_sequence(
            lb.PulseSequence([lb.Rotation("x", math.pi), lb.Measure()]), p, rho), id="rotation"),
    ])
    def test_state_of_another_dim_rejected(self, run):
        # a dim-12 state under dim-10 parameters used to be cut to the
        # dim-10 sectors, or to die in a matrix product
        big = lb.SystemParams(dim=12)
        u = lb.qubit_rotation("x", math.pi, 0.0, big.dim)
        rho = u @ lb.thermal_state(big) @ u.conj().T
        with pytest.raises(DomainError, match="dim"):
            run(lb.SystemParams(dim=10), rho)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_start_rejected(self, bad):
        # a NaN entry used to pass the Hermiticity test, and the occupancy
        # floor would then drop every sector and return zeros
        p = lb.SystemParams(dim=3)
        rho0 = lb.thermal_state(p)
        rho0[1, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            lb.check_density_matrix(rho0)
        with pytest.raises(DomainError, match="finite"):
            lb.run_sequence(lb.PulseSequence([lb.Couple(p.g, 10e-9)]), p, rho0)
        with pytest.raises(DomainError, match="finite"):
            lb.batched_excited_traces([rho0], p, [1e-9])

    @pytest.mark.parametrize("run", [
        pytest.param(lambda p, rho: lb.batched_excited_traces(rho, p, [1e-9]), id="traces"),
        pytest.param(lambda p, rho: lb.run_sequence(
            lb.PulseSequence([lb.Couple(p.g, 10e-9), lb.Measure()]), p, rho), id="sequence"),
    ])
    def test_empty_stack_rejected(self, run):
        # a stack without states used to escape as numpy's ValueError from
        # the Hermiticity check's reduction
        p = lb.SystemParams()
        with pytest.raises(DomainError, match="at least one state"):
            run(p, np.empty((0, 2 * p.dim, 2 * p.dim), dtype=complex))

    def test_non_hermitian_start_rejected(self):
        p = lb.SystemParams(dim=3)
        seq = lb.PulseSequence([lb.Couple(p.g, 10e-9)])
        rho0 = lb.thermal_state(p)
        rho0[0, 4] = rho0[4, 0] = 0.01
        lb.run_sequence(seq, p, rho0)
        rho0[4, 0] += 5e-11  # within check_density_matrix's 1e-10
        lb.run_sequence(seq, p, rho0)
        rho0[4, 0] += 1e-9
        with pytest.raises(DomainError, match="not Hermitian"):
            lb.run_sequence(seq, p, rho0)
        with pytest.raises(DomainError, match="not Hermitian"):
            lb.batched_excited_traces([rho0], p, [1e-9])


class TestDisplacement:
    def test_zero_is_identity(self):
        p = closed_params()
        rho = qubit_excited(p.dim)
        assert np.allclose(lb.displacement(rho, 0.0), rho, atol=1e-14)

    def test_poisson_statistics(self):
        d = lb.displacement_operator(10, 1.0)
        vac = np.zeros(10, dtype=complex)
        vac[0] = 1.0
        pops = np.abs(d @ vac) ** 2
        n = np.arange(10)
        expected = np.exp(-1.0) / np.array([math.factorial(k) for k in n])
        assert abs(pops[0] - math.exp(-1)) < 1e-4
        assert np.max(np.abs(pops - expected)) < 1e-4

    def test_inverse_displacement(self):
        dim = 24
        rho = np.kron(np.diag([1.0, 0.0]).astype(complex), lb.fock_state(dim, 1))
        out = lb.displacement(lb.displacement(rho, 1.5), -1.5)
        assert np.max(np.abs(out - rho)) < 1e-6

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            lb.displacement_operator(10, 3.0)

    def test_qubit_untouched(self):
        p = closed_params(dim=16)
        rho = np.kron(
            np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex), lb.fock_state(16, 0)
        )
        out = lb.displacement(rho, 1.0)
        dim = 16
        rho_q = np.array(
            [
                [np.trace(out[:dim, :dim]), np.trace(out[:dim, dim:])],
                [np.trace(out[dim:, :dim]), np.trace(out[dim:, dim:])],
            ]
        )
        assert np.allclose(rho_q, [[0.6, 0.2], [0.2, 0.4]], atol=1e-10)


def damped_cosine(t, amp, freq, phase, tau, offset):
    return amp * np.cos(TWO_PI * freq * t + phase) * np.exp(-t / tau) + offset


class TestRunSequence:
    def test_detuned_oscillation_frequency(self):
        # generalized Rabi frequency sqrt(delta^2 + 4 g^2)
        p = lb.SystemParams(visibility=1.0)
        delta = TWO_PI * 12e6
        t = np.linspace(0.0, 150e-9, 151)
        seq = lb.PulseSequence([lb.Couple(p.g, 150e-9, delta)])
        rho0 = qubit_excited(p.dim)
        p_e = lb.excited_probability(lb.run_sequence(seq, p, rho0, t).states, p)
        f_expected = math.sqrt(delta**2 + 4 * p.g**2) / TWO_PI
        popt, _ = curve_fit(
            damped_cosine, t, p_e,
            p0=[0.4, f_expected, 0.0, 1e-6, 0.6], maxfev=20000,
        )
        assert abs(abs(popt[1]) - f_expected) / f_expected < 0.02

    def test_swap_stores_excitation_in_resonator(self):
        p = lb.SystemParams()
        seq = lb.PulseSequence(
            [lb.Rotation("x", math.pi), lb.swap_segment(p), lb.Measure()]
        )
        res = lb.run_sequence(seq, p)
        assert res.p_e[0] < 0.08  # qubit back near ground
        pops = lb.resonator_populations(res.rho_final)
        assert pops[1] > 0.8

    @pytest.mark.parametrize("state", ["0-1", "superposition", "2", 1])
    def test_only_preparable_states_prepare(self, state):
        p = lb.SystemParams()
        for good in lb.PREPARABLE_STATES:
            lb.prepare_sequence(good, p)
        with pytest.raises(DomainError, match="unknown preparation state"):
            lb.prepare_sequence(state, p)

    def test_t2r_protocol_oscillates_at_idle_detuning(self):
        delta_idle = TWO_PI * 53e6
        t_idles = np.linspace(0.0, 45e-9, 13)

        def point(t_idle):
            p = lb.SystemParams()
            seq = lb.PulseSequence()
            seq.append(lb.Rotation("x", math.pi / 2))
            seq.append(lb.swap_segment(p))
            seq.append(lb.Detune(delta_idle, t_idle))
            seq.append(lb.swap_segment(p))
            seq.append(lb.TOMOGRAPHY_PULSES["x90"])
            seq.append(lb.Measure())
            return lb.run_sequence(seq, p).p_e[0]

        y = np.array([point(t) for t in t_idles])
        popt, _ = curve_fit(
            damped_cosine, t_idles, y,
            p0=[0.4, 53e6, 0.0, 300e-9, 0.5], maxfev=20000,
        )
        assert abs(abs(popt[1]) - 53e6) / 53e6 < 0.02

    def test_visibility_scales_measurement(self):
        p = lb.SystemParams(visibility=0.97)
        seq = lb.PulseSequence([lb.Rotation("x", math.pi), lb.Measure()])
        res = lb.run_sequence(seq, p)
        p_raw = lb.excited_probability(res.rho_final, p, scaled=False)
        assert res.p_e[0] == pytest.approx(0.97 * p_raw)

    def test_grid_leaves_measures_and_final_state_alone(self):
        # the samples fall in an idle and a flat coupling, where a split span
        # is the same exponential
        p = lb.SystemParams()
        swap = lb.swap_segment(p)
        seq = lb.PulseSequence([
            lb.Rotation("x", math.pi / 2), swap, lb.Idle(20e-9), lb.Measure(),
            lb.Displace(0.3 - 0.2j), lb.Couple(p.g, 30e-9, TWO_PI * 4e6), lb.Measure(),
        ])
        t = swap.duration + np.array([5e-9, 12e-9, 27e-9, 41e-9, 50e-9])
        plain, sampled = lb.run_sequence(seq, p), lb.run_sequence(seq, p, t_grid=t)
        assert plain.states.size == 0 and sampled.states.shape == (5, 2 * p.dim, 2 * p.dim)
        assert np.max(np.abs(np.subtract(sampled.p_e, plain.p_e))) < 1e-12
        assert np.max(np.abs(sampled.rho_final - plain.rho_final)) < 1e-12

    def test_excited_probability_of_a_stack_is_per_state(self):
        p = lb.SystemParams(visibility=0.97)
        seq = lb.PulseSequence([lb.Rotation("x", 1.1), lb.Couple(p.g, 20e-9)])
        states = lb.run_sequence(seq, p, t_grid=np.linspace(0.0, 20e-9, 7)).states
        for scaled in (True, False):
            stacked = lb.excited_probability(states, p, scaled=scaled)
            assert stacked.shape == (7,)
            single = [lb.excited_probability(rho, p, scaled=scaled) for rho in states]
            assert np.array_equal(stacked, single)


class TestStackedRun:
    """A stack of states walks a sequence as each state would alone."""

    def test_stack_matches_each_state_run_alone(self):
        p = lb.SystemParams(delta=TWO_PI * 3e6)
        dim = p.dim
        thermal = lb.thermal_state(p)
        rotated = [u @ thermal @ u.conj().T for u in (
            lb.qubit_rotation("x", 1.1, 0.4, dim), lb.qubit_rotation("y", 2.3, -0.7, dim))]
        displaced = lb.displacement(rotated[0], 0.5 - 0.3j)
        # |e,0><g,0| coherence: weight in k = +-1 only
        coherent = thermal.copy()
        coherent[dim, 0] = coherent[0, dim] = 0.05
        rhos = np.array([*rotated, displaced, coherent])
        seq = lb.PulseSequence([
            lb.Rotation("y", math.pi / 2, 0.3), lb.Detune(TWO_PI * 5e6, 12e-9), lb.Measure(),
            lb.Couple(p.g, 40e-9, TWO_PI * 2e6, 5e-9), lb.Displace(0.3 - 0.2j),
            lb.Idle(15e-9), lb.Rotation("x", 0.8), lb.Couple(p.g, 20e-9), lb.Measure(),
        ])
        t_grid = [4e-9, 12e-9, 15e-9, 40e-9, 50e-9, 62e-9, 80e-9, 87e-9]
        stacked = lb.run_sequence(seq, p, rhos, t_grid)
        assert stacked.states.shape == (len(t_grid), len(rhos), 2 * dim, 2 * dim)
        assert [np.shape(m) for m in stacked.p_e] == [(len(rhos),)] * 2
        for b, rho in enumerate(rhos):
            alone = lb.run_sequence(seq, p, rho, t_grid)
            assert np.max(np.abs(stacked.rho_final[b] - alone.rho_final)) < 1e-13
            assert np.max(np.abs(stacked.states[:, b] - alone.states)) < 1e-13
            assert np.array_equal(stacked.phase, alone.phase)
            assert np.max(np.abs(np.array(stacked.p_e)[:, b] - alone.p_e)) < 1e-13


def reference_occupied(rho) -> tuple:
    """The loop over sectors that ``lb._occupied`` vectorises, for one state."""
    flat = np.abs(rho.reshape(-1))
    floor = lb._OCCUPANCY_FLOOR * flat.max()
    indices = lb._sector_indices(rho.shape[0] // 2)
    return tuple(k for k, (_, _, idx) in indices.items() if k >= 0 and flat[idx].max() > floor)


def reference_rotation(axis: str, angle: float, phase: float, dim: int) -> np.ndarray:
    """``lb.qubit_rotation`` through np.kron, the product it writes in place."""
    if axis == "x":
        base = phase
    elif axis == "y":
        base = phase + math.pi / 2.0
    else:
        raise DomainError("rotation axis must be 'x' or 'y'")
    gen = math.cos(base) * lb.SIGMA_X + math.sin(base) * lb.SIGMA_Y
    u2 = math.cos(0.5 * angle) * np.eye(2) - 1j * math.sin(0.5 * angle) * gen
    return np.kron(u2, np.eye(dim))


class TestLoopReferences:
    """The vectorised helpers give the loop versions' exact results."""

    @pytest.mark.parametrize("dim", [2, 3, 10])
    def test_occupied_sectors_match_the_loop(self, dim):
        # each sector k >= 1 (with -k) is kept, zeroed, or scaled to just
        # below or just above the occupancy floor
        rng = np.random.default_rng(dim)
        k = excitation_sectors(dim)
        scales = (1.0, 0.0, 0.1 * lb._OCCUPANCY_FLOOR, 10.0 * lb._OCCUPANCY_FLOOR)
        states = []
        for _ in range(40):
            a = rng.normal(size=(2 * dim,) * 2) + 1j * rng.normal(size=(2 * dim,) * 2)
            rho = a + a.conj().T
            for kk in range(1, dim + 1):
                rho[np.abs(k) == kk] *= scales[rng.integers(len(scales))]
            states.append(rho)
            assert lb._occupied(rho) == reference_occupied(rho)
        for size in (1, 2, 5):
            for start in range(0, len(states) - size, 7):
                stack = np.array(states[start:start + size])
                union = set().union(*(reference_occupied(rho) for rho in stack))
                assert lb._occupied(stack) == tuple(sorted(union))

    @pytest.mark.parametrize("dim", [2, 10, 50])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_rotation_matches_the_kron_product(self, axis, dim):
        angles = [*np.linspace(-TWO_PI, TWO_PI, 17), math.pi / 2, -math.pi, 1e-300]
        for angle in angles:
            for phase in np.linspace(-math.pi, TWO_PI, 11):
                expected = reference_rotation(axis, angle, phase, dim)
                assert np.array_equal(lb.qubit_rotation(axis, angle, phase, dim), expected)


def bloch_vector(rho):
    """The qubit's Bloch vector (x, y, z) of a composite state."""
    dim = rho.shape[0] // 2
    rho_q = rho.reshape(2, dim, 2, dim).trace(axis1=1, axis2=3)
    return np.array([np.trace(rho_q @ s).real for s in (lb.SIGMA_X, lb.SIGMA_Y, lb.SIGMA_Z)])


class TestBlochTomography:
    def test_simulated_superposition_matches_oracle(self):
        p = lb.SystemParams(
            t1=math.inf, t2_ramsey=math.inf, t1r=math.inf,
            p_e_th=0.0, p_1_th=0.0, visibility=1.0,
        )
        base = lb.PulseSequence([lb.Rotation("x", math.pi / 2)])
        vec = bloch_vector(lb.run_sequence(base, p).rho_final)
        assert np.allclose(np.linalg.norm(vec), 1.0, atol=1e-9)
        assert vec[2] == pytest.approx(0.0, abs=1e-9)
        # Rx(pi/2)|g> = (|g> - i|e>)/sqrt(2) points along -y
        assert np.allclose(vec, [0.0, -1.0, 0.0], atol=1e-9)

    def test_bloch_length_dips_and_recovers_through_swap(self):
        p = lb.SystemParams(visibility=1.0)
        t_half = math.pi / (2.0 * p.g) / 2.0  # half an unramped swap

        def length(tau):
            base = lb.PulseSequence(
                [lb.Rotation("x", math.pi), lb.Couple(p.g, tau)]
            )
            return float(np.linalg.norm(bloch_vector(lb.run_sequence(base, p).rho_final)))

        full = 2.0 * t_half
        l_half = length(t_half)
        l_full = length(2 * full)  # one full oscillation back to |e>-ish
        assert l_half < 0.1
        assert l_full > 0.5  # limited by phonon decay over the cycle
        assert l_full > l_half + 0.3


class TestStateChecks:
    def test_random_trajectories_stay_physical(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            dim = int(rng.integers(3, 8))
            p = lb.SystemParams(
                g=TWO_PI * rng.uniform(2e6, 10e6),
                t1=rng.uniform(5e-6, 50e-6),
                t2_ramsey=rng.uniform(0.5e-6, 3e-6),
                t1r=rng.uniform(50e-9, 400e-9),
                dim=dim,
                p_e_th=rng.uniform(0, 0.05),
                p_1_th=rng.uniform(0, 0.05),
            )
            rho0 = lb.thermal_state(p)
            u = lb.qubit_rotation("x", rng.uniform(0, math.pi), 0.0, dim)
            rho0 = u @ rho0 @ u.conj().T
            seq = lb.PulseSequence(
                [lb.Couple(p.g, 60e-9, TWO_PI * rng.uniform(-10e6, 10e6))]
            )
            rho = lb.run_sequence(seq, p, rho0, np.linspace(0, 60e-9, 7)).rho_final
            assert abs(np.trace(rho).real - 1) < 1e-9
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-8

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(3, 6), seed=st.integers(0, 2**32 - 1),
           segments=st.lists(_segment, min_size=1, max_size=4))
    def test_random_sequences_stay_physical(self, dim, seed, segments):
        # a random pure state fills every sector and has 2*dim - 1 zero
        # eigenvalues, so any loss of positivity shows
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
        rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        rho = lb.run_sequence(lb.PulseSequence(segments), lb.SystemParams(dim=dim), rho0).rho_final
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) > -1e-10

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(3, 6), data=st.data(), seed=st.integers(0, 2**32 - 1),
           segments=st.lists(_continuous, min_size=1, max_size=4))
    def test_continuous_segments_keep_a_sector(self, dim, data, seed, segments):
        # the walker runs on Hermitian states, so the state fills the pair of
        # sectors +-k (one sector for k = 0)
        k = data.draw(st.integers(0, dim), label="k")
        inside = np.abs(excitation_sectors(dim)) == k
        rng = np.random.default_rng(seed)
        entries = rng.standard_normal(inside.shape) + 1j * rng.standard_normal(inside.shape)
        entries = entries + entries.conj().T
        rho0 = np.where(inside, entries, 0.0)
        rho = lb.run_sequence(lb.PulseSequence(segments), lb.SystemParams(dim=dim), rho0).rho_final
        assert np.max(np.abs(rho[inside])) > 0
        assert np.all(rho[~inside] == 0)

    def test_check_density_matrix_rejects_bad_states(self):
        good = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        lb.check_density_matrix(good)
        with pytest.raises(DomainError):
            lb.check_density_matrix(good * 2)
        bad = good.copy()
        bad[0, 1] = 0.3
        with pytest.raises(DomainError):
            lb.check_density_matrix(bad)
