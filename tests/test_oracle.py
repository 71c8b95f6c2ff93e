"""Fock-space oracle tests.

These pit the closed-form gate quantities against direct numerical
propagation in truncated number space.  The two routes share no integral
code: one is Magnus algebra plus exact segment integrals, the other is an
adaptive stepper that never assumes the displacement structure.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from gatelab import crystal as cr
from gatelab import gate as gt
from gatelab import modes as md
from gatelab import oracle as orc
from gatelab.errors import CutoffInsufficient, StepFailure


@pytest.fixture(scope="module")
def spec2():
    cfg = cr.TrapConfig(2, omega_r=2 * math.pi * 1e6,
                        omega_z=2 * math.pi * 5e6)
    return md.axial_spectrum(cr.solve_equilibrium(cfg))


@pytest.fixture(scope="module")
def spec3():
    cfg = cr.TrapConfig(3, omega_r=2 * math.pi * 1e6,
                        omega_z=2 * math.pi * 5e6)
    return md.axial_spectrum(cr.solve_equilibrium(cfg))


@pytest.fixture(scope="module")
def spec2_wide():
    # low anisotropy opens the COM-stretch gap so a closed loop fits in a
    # few microseconds
    cfg = cr.TrapConfig(2, omega_r=2 * math.pi * 1e6,
                        omega_z=2 * math.pi * 2e6)
    return md.axial_spectrum(cr.solve_equilibrium(cfg))


def random_schedule(rng, spec, segments=4, tau=0.4e-6, drive_hz=0.5e6):
    amps = 2 * math.pi * drive_hz * rng.uniform(-1.0, 1.0, size=segments)
    lo = spec.frequencies[-1] - 2 * math.pi * 0.3e6
    hi = spec.frequencies[0] + 2 * math.pi * 0.3e6
    return gt.PulseSchedule.uniform(tau, amps, rng.uniform(lo, hi))


def closed_form_fidelity(sched, spec, pair, nbar):
    c = gt.drive_couplings(spec)
    phi = gt.entangling_phase(sched, c, spec.frequencies, pair)
    al = gt.mode_displacements(sched, c, spec.frequencies, pair[0])
    an = gt.mode_displacements(sched, c, spec.frequencies, pair[1])
    return gt.thermal_fidelity(phi, al, an, nbar)


def closed_loop_schedule(spec, pair, segments=6, tau=6e-6):
    """Null both mode displacements and rescale the conditional phase onto
    a perfect-gate branch (pi/4 or -3pi/4, whichever costs less power).

    The drive sits midway between the two modes so their oriented areas
    add; tau must cover at least one full beat period for an efficient
    positive loop to exist.
    """
    freqs = spec.frequencies
    times = np.linspace(0.0, tau, segments + 1)
    mu = 0.5 * (freqs[0] + freqs[1])
    S = gt.first_order_integrals(times, mu, freqs)
    _, _, vh = np.linalg.svd(np.vstack([S.real, S.imag]))
    null = vh[freqs.size * 2:]
    c = gt.drive_couplings(spec)
    G = gt.pair_phase_matrix(times, mu, freqs, c, pair)
    evals, evecs = np.linalg.eigh(null @ G @ null.T)
    options = []
    for i, w in enumerate(evals):
        if w > 1e-30:
            options.append((math.pi / 4.0 / w, i, math.pi / 4.0))
        elif w < -1e-30:
            options.append((0.75 * math.pi / -w, i, -0.75 * math.pi))
    scale_sq, idx, _ = min(options)
    direction = evecs[:, idx] @ null
    return gt.PulseSchedule(times=times,
                            amplitudes=direction * math.sqrt(scale_sq),
                            mu=mu)


def dense_magnus_step(t, dt, amp, mu, weight, omega, dim):
    """One two-node Magnus propagator from the dense complex exponent:
    ladder matrices, w1 + w2 and the explicit commutator, then expm."""
    a_op = np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)
    a_dag = a_op.conj().T
    w = []
    for node in orc._GAUSS_NODES:
        s = t + node * dt
        phase = np.exp(1j * omega * s)
        w.append(-amp * math.sin(mu * s) * weight
                 * (phase * a_dag + np.conj(phase) * a_op))
    theta = -0.5j * dt * (w[0] + w[1]) \
        + (math.sqrt(3.0) * dt * dt / 12.0) * (w[0] @ w[1] - w[1] @ w[0])
    herm = 1j * theta
    return scipy.linalg.expm(-1j * herm)


def eigh_exp_minus_i(r):
    """exp(-i r) of real symmetric r from its eigendecomposition: the
    oracle's step exponential as first written, kept as a reference."""
    evals, evecs = np.linalg.eigh(r)
    return (evecs * np.exp(-1j * evals)[..., None, :]) \
        @ np.swapaxes(evecs, -1, -2)


def ladder_span(dim):
    """X = a + a^+ and C = [a, a^+] = diag(1, ..., 1, -n_max) in ``dim``
    Fock levels: every step exponent R of the oracle is hop X + shift C."""
    x = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    c = np.ones(dim)
    c[-1] = 1.0 - dim
    return x + x.T, np.diag(c)


def random_span(rng, norm, batch=(3, 2, 3), dim=21):
    """(hop, shift) stacked, and the batch R = hop X + shift C, with the
    largest 1-norm of R ``norm``."""
    x, c = ladder_span(dim)

    def span(hop_shift):
        return hop_shift[0][..., None, None] * x \
            + hop_shift[1][..., None, None] * c

    hop_shift = rng.normal(size=(2,) + batch)
    hop_shift *= norm / np.abs(span(hop_shift)).sum(-2).max()
    return hop_shift, span(hop_shift)


class TestExpMinusI:
    """The word-table exponential against the eigendecomposition formula."""

    # 1-norms from the oracle's steps (~0.02) through the squaring branch
    NORMS = (1e-6, 0.012, 0.018, 0.3, 0.99, 1.0, 1.5, 3.7, 10.0)

    @pytest.mark.parametrize("norm", NORMS)
    def test_matches_eigendecomposition(self, norm):
        rng = np.random.default_rng(int(norm * 1e6))
        hop_shift, r = random_span(rng, norm)
        u = orc._exp_minus_i(hop_shift, r.shape[-1])
        assert np.abs(u - eigh_exp_minus_i(r)).max() < 1e-13
        eye = np.eye(r.shape[-1])
        gram = np.conj(np.swapaxes(u, -1, -2)) @ u
        assert np.abs(gram - eye).max() < 1e-13

    def test_mixed_norms_in_one_batch(self):
        # the batch's largest norm sets the degree and squarings for all
        rng = np.random.default_rng(5)
        spans = [random_span(rng, x, batch=()) for x in (0.0, 0.01, 0.5, 6.0)]
        hop_shift = np.stack([h for h, _ in spans], axis=-1)
        r = np.stack([m for _, m in spans])
        assert np.abs(orc._exp_minus_i(hop_shift, 21)
                      - eigh_exp_minus_i(r)).max() < 1e-13

    def test_zero_is_identity(self):
        u = orc._exp_minus_i(np.zeros((2, 2)), 5)
        assert np.array_equal(u, np.broadcast_to(np.eye(5), (2, 5, 5)))

    def test_input_unchanged(self):
        hop_shift, _ = random_span(np.random.default_rng(3), 4.0)
        kept = hop_shift.copy()
        orc._exp_minus_i(hop_shift, 21)
        assert np.array_equal(hop_shift, kept)

    @pytest.mark.parametrize("dim", [17, 21])  # check 07's two cutoffs
    def test_words_sum_to_the_powers(self, dim):
        # (a X + b C)^k = sum_j a^(k-j) b^j W_{k,j} for every degree the
        # tables hold
        x, c = ladder_span(dim)
        words = orc._words(dim)
        assert len(words) == orc._MAX_DEGREE + 1
        rng = np.random.default_rng(dim)
        for _ in range(3):
            a, b = rng.normal(size=2)
            for k, row in enumerate(words):
                want = np.linalg.matrix_power(a * x + b * c, k)
                got = sum(a ** (k - j) * b ** j * w for j, w in enumerate(row))
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestMagnusKernel:
    """The oracle's tridiagonal step against the dense exponent."""

    def test_matches_dense_exponential(self, spec3):
        rng = np.random.default_rng(41)
        c = gt.drive_couplings(spec3)
        freqs = spec3.frequencies
        weights = np.array([[sl * c[0, k] + sn * c[2, k]
                             for k in range(freqs.size)]
                            for sl, sn in orc._BRANCH_SIGNS])  # (4, K)
        dim = 21
        worst = 0.0
        for _ in range(6):
            t = rng.uniform(0.0, 1e-6)
            dt = rng.uniform(1e-9, 5e-8)
            amp = 2 * math.pi * 1e6 * rng.uniform(-1.0, 1.0)
            mu = rng.uniform(freqs[-1] - 2 * math.pi * 0.5e6,
                             freqs[0] + 2 * math.pi * 0.5e6)
            got = orc._magnus_step((t,), (dt,), amp, mu, weights, freqs,
                                   dim)[0]
            for b in range(4):
                for k in range(freqs.size):
                    want = dense_magnus_step(t, dt, amp, mu, weights[b, k],
                                             freqs[k], dim)
                    worst = max(worst, np.abs(got[b, k] - want).max())
        assert worst < 1e-12

    def test_negated_weights_are_parity_conjugates(self, spec3):
        freqs = spec3.frequencies
        weights = np.array([[0.3, -0.7, 1.1], [-0.2, 0.5, 0.9]])
        args = ((2e-7, 2.5e-7), (3e-8, 1e-8), 2 * math.pi * 0.4e6,
                freqs[0] + 2 * math.pi * 0.1e6)
        u = orc._magnus_step(*args, weights, freqs, 21)
        u_neg = orc._magnus_step(*args, -weights, freqs, 21)
        parity = (-1.0) ** np.arange(21)
        assert np.abs(u_neg - u * np.outer(parity, parity)).max() < 1e-13


class TestThermalWeights:
    def test_geometric_distribution(self):
        w = orc.thermal_weights(0.5, 25)
        assert w[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert w[1] / w[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_temperature(self):
        w = orc.thermal_weights(0.0, 5)
        assert np.array_equal(w, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_levels_for_weight(self):
        # tail (nbar/(1+nbar))^m <= 1e-10
        assert orc._levels_for_weight(0.0, 21) == 1
        m = orc._levels_for_weight(0.1, 21)
        assert (0.1 / 1.1) ** m <= 1e-10 < (0.1 / 1.1) ** (m - 1)
        with pytest.raises(CutoffInsufficient):
            orc._levels_for_weight(5.0, 21)


class TestZeroForce:
    def test_state_unchanged_and_fidelity_half(self, spec2):
        # no force, no phase: overlap with the ideal conditional-phase
        # image is cos^2(pi/4) = 1/2
        sched = gt.PulseSchedule.uniform(0.2e-6, [0.0, 0.0],
                                         spec2.frequencies[0])
        st = orc.evolve(sched, spec2, (0, 1), nbar=0.1)
        for u_modes in st.propagators:
            for b in range(4):
                assert np.allclose(u_modes[b], np.eye(u_modes.shape[-1]),
                                   atol=1e-9)
        assert orc.fidelity_from_state(st) == pytest.approx(0.5, abs=1e-9)


class TestBranchParity:
    def test_mirrored_branches(self, spec3):
        rng = np.random.default_rng(43)
        st = orc.evolve(random_schedule(rng, spec3), spec3, (0, 2),
                        nbar=0.2)
        parity = (-1.0) ** np.arange(st.propagators[0].shape[-1])
        flip = np.outer(parity, parity)
        for u_modes in st.propagators:
            assert np.array_equal(u_modes[3], u_modes[0] * flip)
            assert np.array_equal(u_modes[2], u_modes[1] * flip)


class TestQubitFidelity:
    def test_dephased_mixture(self):
        assert orc._qubit_fidelity(np.eye(4) / 4.0) == pytest.approx(0.25)

    def test_ideal_state(self):
        parity = np.array([1, -1, -1, 1])
        target = 0.5 * np.exp(1j * math.pi / 4.0 * parity)
        rho = np.outer(target, np.conj(target))
        assert orc._qubit_fidelity(rho) == pytest.approx(1.0, abs=1e-12)


class TestClosedLoop:
    def test_perfect_gate(self, spec2_wide):
        sched = closed_loop_schedule(spec2_wide, (0, 1))
        st = orc.evolve(sched, spec2_wide, (0, 1), nbar=0.3)
        for nb in (0.0, 0.3):
            assert orc.fidelity_from_state(st, nbar=nb) == pytest.approx(
                1.0, abs=1e-6)
        # the loop passes the end-of-run limit on the way and returns below
        # it; the state records both
        assert st.peak_top_population > 1e-8 > st.top_population
        assert st.peak_top_population < orc._TOP_POPULATION_ABORT

    def test_closure_is_real(self, spec2_wide):
        # sanity on the construction itself
        sched = closed_loop_schedule(spec2_wide, (0, 1))
        alpha = gt.alpha_integral(sched, spec2_wide.frequencies)
        assert np.max(np.abs(alpha)) * np.max(np.abs(sched.amplitudes)) < 1e-8
        c = gt.drive_couplings(spec2_wide)
        phi = gt.entangling_phase(sched, c, spec2_wide.frequencies, (0, 1))
        assert math.cos(2 * (phi - math.pi / 4)) == pytest.approx(1.0,
                                                                  abs=1e-9)


class TestOracleEquivalence:
    def test_displacements_match(self, spec2):
        rng = np.random.default_rng(11)
        sched = random_schedule(rng, spec2, segments=3)
        st = orc.evolve(sched, spec2, (0, 1), nbar=0.0, tol=1e-10)
        c = gt.drive_couplings(spec2)
        alpha = gt.alpha_integral(sched, spec2.frequencies)
        dim = st.propagators[0].shape[-1]
        a_op = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
        for k in range(2):
            for b, (sl, sn) in enumerate(orc._BRANCH_SIGNS):
                want = (sl * c[0, k] + sn * c[1, k]) * alpha[k]
                vac = np.zeros(dim, dtype=complex)
                vac[0] = 1.0
                psi = st.propagators[k][b] @ vac
                got = np.conj(psi) @ a_op @ psi
                assert got == pytest.approx(want, abs=5e-9)

    def test_branch_phases_match(self, spec2):
        rng = np.random.default_rng(13)
        sched = random_schedule(rng, spec2, segments=3)
        st = orc.evolve(sched, spec2, (0, 1), nbar=0.0, tol=1e-10)
        c = gt.drive_couplings(spec2)
        D = gt.mode_phase_integrals(sched, spec2.frequencies)
        for k in range(2):
            for b, (sl, sn) in enumerate(orc._BRANCH_SIGNS):
                weight = sl * c[0, k] + sn * c[1, k]
                psi0 = st.propagators[k][b][0, 0]
                assert np.angle(psi0) == pytest.approx(weight ** 2 * D[k],
                                                       abs=5e-9)

    def test_unclosed_random_schedules_n2(self, spec2):
        rng = np.random.default_rng(7)
        for _ in range(4):
            sched = random_schedule(rng, spec2, segments=3)
            st = orc.evolve(sched, spec2, (0, 1), nbar=0.5)
            for nb in (0.0, 0.5):
                closed = closed_form_fidelity(sched, spec2, (0, 1), nb)
                direct = orc.fidelity_from_state(st, nbar=nb)
                assert abs(closed - direct) < 1e-6

    def test_unclosed_random_schedules_n3(self, spec3):
        rng = np.random.default_rng(23)
        pair = (0, 2)
        for _ in range(3):
            sched = random_schedule(rng, spec3, segments=4)
            st = orc.evolve(sched, spec3, pair, nbar=0.5)
            for nb in (0.0, 0.1, 0.5):
                closed = closed_form_fidelity(sched, spec3, pair, nb)
                direct = orc.fidelity_from_state(st, nbar=nb)
                assert abs(closed - direct) < 1e-6


class TestInvariants:
    def test_unitarity_and_branch_populations(self, spec2):
        rng = np.random.default_rng(17)
        sched = random_schedule(rng, spec2)
        st = orc.evolve(sched, spec2, (0, 1), nbar=0.1)
        assert st.norm_drift < 1e-9
        assert st.top_population < 1e-8
        # spin populations: each branch evolves unitarily on the motional
        # factor alone, so low-lying column norms stay 1
        for u_modes in st.propagators:
            norms = np.linalg.norm(u_modes[:, :, 0], axis=1)
            assert np.allclose(norms, 1.0, atol=1e-10)

    def test_cutoff_convergence(self, spec3):
        rng = np.random.default_rng(19)
        sched = random_schedule(rng, spec3, segments=4)
        f16 = orc.fidelity_from_state(
            orc.evolve(sched, spec3, (0, 1), nbar=0.1, n_max=16))
        f20 = orc.fidelity_from_state(
            orc.evolve(sched, spec3, (0, 1), nbar=0.1, n_max=20))
        assert abs(f16 - f20) < 1e-8

    def test_reduced_state_is_density_matrix(self, spec3):
        rng = np.random.default_rng(29)
        sched = random_schedule(rng, spec3)
        st = orc.evolve(sched, spec3, (1, 2), nbar=0.2)
        rho = orc._reduced_qubit_state(st, st.nbar)
        assert np.allclose(rho, np.conj(rho.T), atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
        evals = np.linalg.eigvalsh(rho)
        assert np.all(evals > -1e-12)


class TestErrorPaths:
    def test_too_many_ions(self):
        cfg = cr.TrapConfig(5, omega_r=2 * math.pi * 1e6,
                            omega_z=2 * math.pi * 5e6)
        spec = md.axial_spectrum(cr.solve_equilibrium(cfg))
        sched = gt.PulseSchedule.uniform(1e-7, [0.0], spec.frequencies[0])
        with pytest.raises(ValueError):
            orc.evolve(sched, spec, (0, 1), nbar=0.0)

    @pytest.mark.parametrize("pair", [(1, 1), (0, -1), (0, 3)],
                             ids=["same-ion", "negative", "past-ion-count"])
    def test_bad_pair(self, spec3, monkeypatch, pair):
        sched = gt.PulseSchedule.uniform(
            0.4e-6, 2 * math.pi * 0.25e6 * np.array([1.0, -1.0]),
            spec3.frequencies[0])

        def refuse(*args):
            raise AssertionError("stepped with a bad pair")

        monkeypatch.setattr(orc, "_magnus_step", refuse)
        with pytest.raises(ValueError, match="pair needs two distinct"):
            orc.evolve(sched, spec3, pair, nbar=0.0)

    def test_cutoff_cap(self, spec2):
        sched = gt.PulseSchedule.uniform(1e-7, [0.0], spec2.frequencies[0])
        with pytest.raises(ValueError):
            orc.evolve(sched, spec2, (0, 1), nbar=0.0, n_max=24)

    def test_hot_mixture_rejected(self, spec2):
        sched = gt.PulseSchedule.uniform(1e-7, [0.0], spec2.frequencies[0])
        with pytest.raises(CutoffInsufficient):
            orc.evolve(sched, spec2, (0, 1), nbar=4.0)

    @pytest.mark.parametrize("nbar", [1e6, 1e17, 1e300])
    def test_mixture_too_hot_for_any_cutoff(self, spec2, nbar):
        # from nbar ~ 1e16 on, nbar / (1 + nbar) rounds to 1 and no level
        # count reaches the tail
        sched = gt.PulseSchedule.uniform(1e-7, [0.0], spec2.frequencies[0])
        with pytest.raises(CutoffInsufficient, match="needs .* levels"):
            orc.evolve(sched, spec2, (0, 1), nbar=nbar)

    def test_overdriven_cutoff(self, spec2):
        # displacement far beyond the basis spills population to the top
        sched = gt.PulseSchedule.uniform(
            2e-6, [2 * math.pi * 4e6], spec2.frequencies[1])
        with pytest.raises(CutoffInsufficient):
            orc.evolve(sched, spec2, (0, 1), nbar=0.0)

    def test_overdriven_cutoff_fails_fast(self, spec2):
        # the top level fills within the first few percent of the drive,
        # long before a 2000-step budget runs out
        sched = gt.PulseSchedule.uniform(
            2e-6, [2 * math.pi * 4e6], spec2.frequencies[1])
        with pytest.raises(CutoffInsufficient, match="of the drive"):
            orc.evolve(sched, spec2, (0, 1), nbar=0.0, max_steps=2000)

    def test_step_budget(self, spec2):
        rng = np.random.default_rng(37)
        sched = random_schedule(rng, spec2)
        with pytest.raises(StepFailure):
            orc.evolve(sched, spec2, (0, 1), nbar=0.0, max_steps=10)
