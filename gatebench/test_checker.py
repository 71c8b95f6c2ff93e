"""The benchmark's reference computations, tested against definitions and
against the number-space oracle (run with ``PYTHONPATH=src pytest gatebench``).
"""

import math

import numpy as np
import pytest

import checker
from gatelab import crystal as cr
from gatelab import gate as gt
from gatelab import modes as md
from gatelab import oracle as orc

TWO_PI = 2.0 * math.pi


def _energy(u):
    r = u[:, None, :] - u[None, :, :]
    d = np.sqrt((r ** 2).sum(axis=2))
    iu = np.triu_indices(u.shape[0], k=1)
    return 0.5 * float((u ** 2).sum()) + float((1.0 / d[iu]).sum())


@pytest.fixture(scope="module")
def crystal7():
    trap = cr.TrapConfig(7, omega_r=TWO_PI * 0.2e6, omega_z=TWO_PI * 10e6)
    return cr.solve_equilibrium(trap)


def test_gradient_and_hessian_match_finite_differences():
    u = np.random.default_rng(3).uniform(-1.5, 1.5, size=(5, 2))
    h = 1e-6
    flat = np.concatenate([u[:, 0], u[:, 1]])

    def unflat(v):
        return np.column_stack([v[:5], v[5:]])

    fd_grad = np.zeros(10)
    fd_hess = np.zeros((10, 10))
    for i in range(10):
        step = np.zeros(10)
        step[i] = h
        fd_grad[i] = (_energy(unflat(flat + step))
                      - _energy(unflat(flat - step))) / (2 * h)
        g_plus = checker.energy_gradient(unflat(flat + step))
        g_minus = checker.energy_gradient(unflat(flat - step))
        fd_hess[:, i] = np.concatenate(
            [(g_plus - g_minus)[:, 0], (g_plus - g_minus)[:, 1]]) / (2 * h)
    grad = checker.energy_gradient(u)
    assert np.allclose(np.concatenate([grad[:, 0], grad[:, 1]]), fd_grad,
                       atol=1e-7)
    assert np.allclose(checker.planar_hessian(u), fd_hess, atol=1e-6)


def test_equilibrium_is_a_stable_minimum(crystal7):
    u = crystal7.positions
    assert np.abs(checker.energy_gradient(u)).max() < 1e-9
    assert checker.lowest_nonrotational_eigenvalue(u) > 0.0
    # the rotation mode itself is (numerically) flat
    assert abs(np.linalg.eigvalsh(checker.planar_hessian(u))).min() < 1e-8


def test_critical_beta_is_where_the_axial_block_loses_positivity(crystal7):
    u = crystal7.positions
    beta_c = checker.critical_beta(u)
    lap = checker.coulomb_laplacian(u)
    for beta, sign in ((beta_c * (1 + 1e-6), 1.0), (beta_c * (1 - 1e-6), -1)):
        lowest = np.linalg.eigvalsh(beta ** 2 * np.eye(7) - lap)[0]
        assert sign * lowest > 0.0


def test_uniform_mode_at_axial_frequency(crystal7):
    freqs, vectors = checker.axial_modes(crystal7.positions, TWO_PI * 0.2e6,
                                         TWO_PI * 10e6)
    assert abs(freqs[0] / (TWO_PI * 10e6) - 1.0) < 1e-12
    assert np.allclose(np.abs(vectors[0]), 7 ** -0.5, atol=1e-12)


def test_quadrature_integrals_of_a_single_mode():
    # one segment, constant drive: both integrals have elementary forms
    mu, omega, tau, amp = 7.0, 4.0, 3.0, 0.8
    first, second = checker.drive_and_phase_integrals(
        [0.0, tau], [amp], mu, [omega])
    want = -0.5 * amp * (
        (np.exp(1j * (omega + mu) * tau) - 1) / (omega + mu)
        - (np.exp(1j * (omega - mu) * tau) - 1) / (omega - mu))
    assert abs(first[0] - want) < 1e-12
    s = np.linspace(0.0, tau, 20001)
    g = amp * np.sin(mu * s)
    inner_c = np.concatenate([[0], np.cumsum(
        0.5 * (g[1:] * np.cos(omega * s[1:]) + g[:-1] * np.cos(omega * s[:-1]))
        * np.diff(s))])
    inner_s = np.concatenate([[0], np.cumsum(
        0.5 * (g[1:] * np.sin(omega * s[1:]) + g[:-1] * np.sin(omega * s[:-1]))
        * np.diff(s))])
    outer = g * (np.sin(omega * s) * inner_c - np.cos(omega * s) * inner_s)
    trapezoid = float(np.sum(0.5 * (outer[1:] + outer[:-1]) * np.diff(s)))
    assert abs(second[0] - trapezoid) < 1e-5


def test_fidelity_agrees_with_number_space_oracle():
    trap = cr.TrapConfig(3, omega_r=TWO_PI * 1e6, omega_z=TWO_PI * 5e6)
    crystal = cr.solve_equilibrium(trap)
    spectrum = md.axial_spectrum(crystal)
    freqs, vectors = checker.axial_modes(crystal.positions, trap.omega_r,
                                         trap.omega_z)
    rng = np.random.default_rng(7)
    pair = (0, 2)
    for segments in (2, 3):
        sched = gt.PulseSchedule.uniform(
            0.4e-6, TWO_PI * 0.3e6 * rng.uniform(-1, 1, segments),
            float(spectrum.frequencies[1] + TWO_PI * 0.1e6))
        state = orc.evolve(sched, spectrum, pair, nbar=0.5)
        phi, alpha_l, alpha_n = checker.gate_quantities(
            sched.times, sched.amplitudes, sched.mu, freqs, vectors,
            trap.omega_z, pair)
        for nbar in (0.0, 0.1, 0.5):
            mine = checker.thermal_fidelity(phi, alpha_l, alpha_n, nbar,
                                            math.pi / 4.0)
            assert abs(mine - orc.fidelity_from_state(state, nbar=nbar)) \
                < 1e-6


def test_band_edge_index():
    grid = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    fid = np.array([0.9, 0.1, 0.5, 0.6, 0.7, 0.65, 0.3, 0.8])
    assert checker.band_edge_index(grid, fid, band_top=2.5) == 4
    assert checker.band_edge_index(grid, fid, band_top=8.5) is None
