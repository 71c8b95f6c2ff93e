"""Acceptance suite: the headline quantitative targets in one place.

Each check prints a single PASS/FAIL verdict line (visible with
``pytest -s``) and then asserts, so a red run still shows every number.
The full 10-pair benchmark sweep is expensive; by default the trend
checks run a 3-pair subset, and setting ``GATELAB_FULL_TABLE=1``
switches to the complete sweep.
"""

import filecmp
import math
import os

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from gatelab import cli
from gatelab import crystal as cr
from gatelab import gate as gt
from gatelab import modes as md
from gatelab import optimizer as op
from gatelab import oracle as orc

TWO_PI = 2.0 * math.pi
OMEGA_Z = TWO_PI * 10e6
OMEGA_R_LOW = TWO_PI * 0.2e6
OMEGA_R_HIGH = TWO_PI * 1.0e6
NBAR = 0.1
TAU = 50e-6
SEGMENTS = 5

SHELL_SERIES = (7, 19, 37, 61, 91, 127, 169, 217)
STABILITY_SERIES = (7, 19, 37, 61, 91, 127)


def verdict(num, label, ok, detail=""):
    line = "check %02d  %-34s %s" % (num, label, "PASS" if ok else "FAIL")
    if detail:
        line += "  [%s]" % detail
    print(line)
    return line


# ---------------------------------------------------------------------------
# shared expensive state

@pytest.fixture(scope="module")
def shell_crystals():
    out = {}
    for n in SHELL_SERIES:
        trap = cr.TrapConfig(n, omega_r=OMEGA_R_LOW, omega_z=OMEGA_Z,
                             temperature_nbar=NBAR)
        out[n] = cr.solve_equilibrium(trap)
    return out


@pytest.fixture(scope="module")
def critical_betas(shell_crystals):
    return {n: md.critical_beta(shell_crystals[n])
            for n in STABILITY_SERIES}


@pytest.fixture(scope="module")
def spectrum_low(shell_crystals):
    return md.axial_spectrum(shell_crystals[127])


@pytest.fixture(scope="module")
def spectrum_high(shell_crystals):
    trap = cr.TrapConfig(127, omega_r=OMEGA_R_HIGH, omega_z=OMEGA_Z,
                         temperature_nbar=NBAR)
    return md.axial_spectrum(cr.with_trap(shell_crystals[127], trap))


@pytest.fixture(scope="module")
def pairs(shell_crystals):
    return op.default_pair_list(shell_crystals[127])


@pytest.fixture(scope="module")
def scan_for(spectrum_low, spectrum_high):
    """Memoized detuning scans so criteria can share the heavy sweeps."""
    cache = {}

    def run(pair, spectrum_key, tau=TAU):
        key = (pair, spectrum_key, tau)
        if key not in cache:
            spectrum = (spectrum_low if spectrum_key == "low"
                        else spectrum_high)
            problem = op.OptimizationProblem(
                pair=pair, tau=tau, segment_count=SEGMENTS,
                mu_grid=op.default_mu_grid(OMEGA_Z), nbar=NBAR)
            cache[key] = op.detuning_scan(spectrum, problem)
        return cache[key]

    return run


# ---------------------------------------------------------------------------
# criteria

def test_01_min_spacing_power_law(shell_crystals):
    points = [(n, shell_crystals[n].u_min) for n in SHELL_SERIES]
    fit = cr.fit_power_law(points)
    ok = (abs(fit.exponent - (-0.172)) <= 0.03
          and abs(fit.prefactor - 1.995) <= 0.1)
    verdict(1, "min-spacing power law", ok,
            "prefactor=%.4f exponent=%.4f" % (fit.prefactor, fit.exponent))
    assert ok


def test_02_buckling_threshold_law(critical_betas):
    points = [(n, critical_betas[n] ** 2) for n in STABILITY_SERIES]
    fit = cr.fit_power_law(points, shift=2.0)
    ok = (abs(fit.prefactor - 1.073) <= 0.15
          and abs(fit.exponent - 0.55) <= 0.05)
    verdict(2, "buckling threshold power law", ok,
            "a=%.4f b=%.4f" % (fit.prefactor, fit.exponent))
    assert ok


def test_03_spacing_frequency_anchors(shell_crystals):
    base = shell_crystals[127]
    d_low = base.spacing_metres()
    trap = cr.TrapConfig(127, omega_r=OMEGA_R_HIGH, omega_z=OMEGA_Z,
                         temperature_nbar=NBAR)
    d_high = cr.with_trap(base, trap).spacing_metres()
    ok = (abs(d_low - 19.15e-6) / 19.15e-6 <= 0.05
          and abs(d_high - 6.57e-6) / 6.57e-6 <= 0.05)
    verdict(3, "spacing versus confinement", ok,
            "d(0.2 MHz)=%.3f um d(1.0 MHz)=%.3f um"
            % (d_low * 1e6, d_high * 1e6))
    assert ok


def _axial_energy(positions, beta, z):
    """Dimensionless energy of out-of-plane displacements ``z``.

    Written from the definition (axial confinement plus pair Coulomb at
    3D distance) so the curvature comparison is an independent route.
    """
    diff = positions[:, None, :] - positions[None, :, :]
    dz = z[:, None] - z[None, :]
    d2 = (diff ** 2).sum(axis=2) + dz ** 2
    iu = np.triu_indices(len(z), k=1)
    return (0.5 * beta ** 2 * (z ** 2).sum()
            + (1.0 / np.sqrt(d2[iu])).sum())


def test_04_uniform_mode_exactness(shell_crystals):
    worst_eig = 0.0
    worst_freq = 0.0
    worst_fd = 0.0
    rng = np.random.default_rng(11)
    for n in SHELL_SERIES:
        crystal = shell_crystals[n]
        beta = crystal.config.beta
        zz = md.build_matrices(crystal)
        top = np.linalg.eigvalsh(zz)[-1]
        worst_eig = max(worst_eig, abs(top - beta ** 2) / beta ** 2)
        freq_top = md.axial_spectrum(crystal).frequencies[0]
        worst_freq = max(worst_freq,
                         abs(freq_top - crystal.config.omega_z)
                         / crystal.config.omega_z)
        # directional curvature from a 5-point stencil on the raw energy
        h = 1e-2
        for _ in range(5):
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            f = [_axial_energy(crystal.positions, beta, s * h * v)
                 for s in (-2, -1, 0, 1, 2)]
            fd = (-f[4] + 16 * f[3] - 30 * f[2] + 16 * f[1] - f[0]) \
                / (12 * h * h)
            want = float(v @ zz @ v)
            worst_fd = max(worst_fd, abs(fd - want) / abs(want))
    # element-by-element finite-difference curvature on the smallest shell
    small = shell_crystals[7]
    zz7 = md.build_matrices(small)
    h = 1e-4
    fd7 = np.zeros_like(zz7)
    for i in range(7):
        for j in range(7):
            plus_plus = np.zeros(7)
            plus_plus[i] += h
            plus_plus[j] += h
            plus_minus = np.zeros(7)
            plus_minus[i] += h
            plus_minus[j] -= h
            fd7[i, j] = (_axial_energy(small.positions, small.config.beta,
                                       plus_plus)
                         - _axial_energy(small.positions, small.config.beta,
                                         plus_minus)
                         - _axial_energy(small.positions, small.config.beta,
                                         -plus_minus)
                         + _axial_energy(small.positions, small.config.beta,
                                         -plus_plus)) / (4 * h * h)
    matrix_err = np.abs(fd7 - zz7).max() / np.abs(zz7).max()
    worst_fd = max(worst_fd, matrix_err)
    ok = worst_eig <= 1e-10 and worst_freq <= 1e-10 and worst_fd <= 1e-5
    verdict(4, "uniform-mode exactness", ok,
            "eig err=%.1e freq err=%.1e fd err=%.1e"
            % (worst_eig, worst_freq, worst_fd))
    assert ok


def test_05_gap_narrows_with_anisotropy(shell_crystals, critical_betas):
    crystal = shell_crystals[19]
    betas = np.linspace(1.5 * critical_betas[19],
                        8.0 * critical_betas[19], 12)
    gaps = [md.com_gap(crystal, beta=b) for b in betas]
    diffs = np.diff(gaps)
    ok = bool(np.all(diffs < 0.0))
    verdict(5, "uniform-mode gap narrows", ok,
            "gap %.3f -> %.3f kHz over beta %.1f -> %.1f"
            % (gaps[0] / TWO_PI / 1e3, gaps[-1] / TWO_PI / 1e3,
               betas[0], betas[-1]))
    assert ok


def _quad_first_order(mu, omega, ta, tb):
    re, _ = quad(lambda t: math.sin(mu * t) * math.cos(omega * t), ta, tb,
                 epsabs=1e-13, epsrel=1e-12, limit=400)
    im, _ = quad(lambda t: math.sin(mu * t) * math.sin(omega * t), ta, tb,
                 epsabs=1e-13, epsrel=1e-12, limit=400)
    return re + 1j * im


def _quad_ordered_block(mu, omega, ta, tb, tc, td):
    """Ordered double integral of the phase kernel over one segment pair.

    (ta, tb) is the outer (later) segment, (tc, td) the inner one; for the
    diagonal block the inner limit follows the outer variable.
    """
    if (ta, tb) == (tc, td):
        val, _ = dblquad(
            lambda s1, s2: math.sin(mu * s2) * math.sin(mu * s1)
            * math.sin(omega * (s2 - s1)),
            ta, tb, lambda s2: ta, lambda s2: s2,
            epsabs=1e-13, epsrel=1e-12)
    else:
        val, _ = dblquad(
            lambda s1, s2: math.sin(mu * s2) * math.sin(mu * s1)
            * math.sin(omega * (s2 - s1)),
            ta, tb, lambda s2: tc, lambda s2: td,
            epsabs=1e-13, epsrel=1e-12)
    return val


def test_06_integral_quadrature_oracles():
    rng = np.random.default_rng(101)
    worst_alpha = 0.0
    worst_phase = 0.0
    for _ in range(100):
        segments = int(rng.integers(1, 5))
        tau = float(rng.uniform(0.5, 2.0))
        mu = float(rng.uniform(6.0, 14.0))
        amps = rng.uniform(-2.0, 2.0, size=segments)
        freqs = mu * rng.uniform(0.4, 1.25, size=int(rng.integers(1, 3)))
        sched = gt.PulseSchedule.uniform(tau, amps, mu)
        times = sched.times

        alpha = gt.alpha_integral(sched, freqs)
        D = gt.mode_phase_integrals(sched, freqs)
        for k, omega in enumerate(freqs):
            want_alpha = 1j * sum(
                amps[p] * _quad_first_order(mu, omega, times[p], times[p + 1])
                for p in range(segments))
            err = abs(alpha[k] - want_alpha) / max(abs(want_alpha), 1e-3)
            worst_alpha = max(worst_alpha, err)

            want_d = 0.0
            for p in range(segments):
                want_d += amps[p] ** 2 * _quad_ordered_block(
                    mu, omega, times[p], times[p + 1],
                    times[p], times[p + 1])
                for q in range(p):
                    want_d += amps[p] * amps[q] * _quad_ordered_block(
                        mu, omega, times[p], times[p + 1],
                        times[q], times[q + 1])
            err = abs(D[k] - want_d) / max(abs(want_d), 1e-3)
            worst_phase = max(worst_phase, err)
    ok = worst_alpha <= 1e-9 and worst_phase <= 1e-8
    verdict(6, "segment integral oracles", ok,
            "alpha err=%.1e phase err=%.1e" % (worst_alpha, worst_phase))
    assert ok


def test_07_truncated_space_oracle():
    trap = cr.TrapConfig(3, omega_r=TWO_PI * 1e6, omega_z=TWO_PI * 5e6)
    spectrum = md.axial_spectrum(cr.solve_equilibrium(trap))
    couplings = gt.drive_couplings(spectrum)
    rng = np.random.default_rng(301)
    pair = (0, 2)
    worst = 0.0
    worst_cutoff = 0.0
    for i in range(20):
        segments = int(rng.integers(2, 5))
        amps = TWO_PI * 0.5e6 * rng.uniform(-1.0, 1.0, size=segments)
        lo = spectrum.frequencies[-1] - TWO_PI * 0.3e6
        hi = spectrum.frequencies[0] + TWO_PI * 0.3e6
        sched = gt.PulseSchedule.uniform(0.4e-6, amps,
                                         float(rng.uniform(lo, hi)))
        state = orc.evolve(sched, spectrum, pair, nbar=0.5)
        phi = gt.entangling_phase(sched, couplings, spectrum.frequencies,
                                  pair)
        al = gt.mode_displacements(sched, couplings, spectrum.frequencies,
                                   pair[0])
        an = gt.mode_displacements(sched, couplings, spectrum.frequencies,
                                   pair[1])
        for nbar in (0.0, 0.1, 0.5):
            closed = gt.thermal_fidelity(phi, al, an, nbar)
            direct = orc.fidelity_from_state(state, nbar=nbar)
            worst = max(worst, abs(closed - direct))
        if i < 3:  # truncation-level convergence spot check
            f_small = orc.fidelity_from_state(
                orc.evolve(sched, spectrum, pair, nbar=0.1, n_max=16),
                nbar=0.1)
            f_large = orc.fidelity_from_state(state, nbar=0.1)
            worst_cutoff = max(worst_cutoff, abs(f_small - f_large))
    ok = worst < 1e-6 and worst_cutoff < 1e-8
    verdict(7, "truncated-space oracle", ok,
            "max |dF|=%.1e cutoff drift=%.1e" % (worst, worst_cutoff))
    assert ok


def test_08_anchor_detuning_row(scan_for, spectrum_low, pairs):
    result = scan_for(pairs[0], "low")
    idx = op.band_edge_optimum(result, float(spectrum_low.frequencies.max()))
    mu = result.mu_grid[idx]
    fid = result.fidelities[idx]
    amp = result.max_amplitudes[idx]
    ok = (abs(mu - TWO_PI * 10.033e6) <= TWO_PI * 10e3
          and fid >= 0.99
          and TWO_PI * 0.05e6 <= amp <= TWO_PI * 2e6)
    verdict(8, "anchor pair detuning row", ok,
            "mu=%.4f MHz F=%.6f peak drive=%.3f MHz"
            % (mu / TWO_PI / 1e6, fid, amp / TWO_PI / 1e6))
    assert ok


def test_09_benchmark_trends(scan_for, pairs):
    if os.environ.get("GATELAB_FULL_TABLE") == "1":
        ranks = list(range(10))
    else:
        ranks = [0, 5, 9]
    fid_low = [scan_for(pairs[i], "low").best_fidelity for i in ranks]
    fid_high = [scan_for(pairs[i], "high").best_fidelity for i in ranks]
    upticks = [
        (label, ranks[k] + 1, ranks[k + 1] + 1)
        for label, fids in (("low", fid_low), ("high", fid_high))
        for k in range(len(fids) - 1) if fids[k] < fids[k + 1] - 1e-12]
    dominance = all(a >= b - 1e-12 for a, b in zip(fid_low, fid_high))
    slow = scan_for(pairs[9], "high", tau=200e-6)
    recovered = slow.best_fidelity > 0.99
    ok = not upticks and dominance and recovered
    verdict(9, "benchmark fidelity trends", ok,
            "ranks=%s upticks=%s low>=high=%s far@200us F=%.6f"
            % ([r + 1 for r in ranks], upticks or "none", dominance,
               slow.best_fidelity))
    assert ok


def test_10_response_locality(scan_for, pairs, shell_crystals,
                              spectrum_low):
    crystal = shell_crystals[127]
    pair = pairs[8]
    result = scan_for(pair, "low")
    response = gt.gate_report(result.best_schedule, spectrum_low,
                              pair).response_normalized
    positions = crystal.positions * crystal.length_scale_ell
    d_min = crystal.spacing_metres()
    dist = np.minimum(
        np.linalg.norm(positions - positions[pair[0]], axis=1),
        np.linalg.norm(positions - positions[pair[1]], axis=1))
    others = np.ones(crystal.ion_count, dtype=bool)
    others[list(pair)] = False
    near = others & (dist <= 1.5 * d_min)
    far = others & (dist > 3.0 * d_min)
    assert near.any() and far.any()
    ok = bool(response[far].max() < response[near].min())
    verdict(10, "gate response locality", ok,
            "far max=%.6f < near min=%.6f (pair %s, %d near, %d far)"
            % (response[far].max(), response[near].min(), pair,
               near.sum(), far.sum()))
    assert ok


def test_11_property_suite(shell_crystals, tmp_path):
    spectrum = md.axial_spectrum(shell_crystals[7])
    couplings = gt.drive_couplings(spectrum)
    freqs = spectrum.frequencies
    rng = np.random.default_rng(401)

    bounded = True
    for _ in range(200):
        k = int(rng.integers(1, 6))
        f = gt.thermal_fidelity(
            float(rng.uniform(-4, 4)),
            rng.normal(size=k) + 1j * rng.normal(size=k),
            rng.normal(size=k) + 1j * rng.normal(size=k),
            float(rng.uniform(0, 2)))
        bounded &= 0.0 <= f <= 1.0

    sched = gt.PulseSchedule.uniform(
        30e-6, TWO_PI * 0.1e6 * rng.uniform(-1, 1, 4),
        OMEGA_Z + TWO_PI * 40e3)
    symmetric = gt.entangling_phase(sched, couplings, freqs, (1, 3)) \
        == gt.entangling_phase(sched, couplings, freqs, (3, 1))

    lam = 1.7
    scaled = gt.PulseSchedule(times=sched.times,
                              amplitudes=lam * sched.amplitudes,
                              mu=sched.mu)
    linear = np.allclose(gt.alpha_integral(scaled, freqs),
                         lam * gt.alpha_integral(sched, freqs), rtol=1e-12)
    quadratic = np.allclose(gt.mode_phase_integrals(scaled, freqs),
                            lam ** 2 * gt.mode_phase_integrals(sched, freqs),
                            rtol=1e-12)

    config = str(tmp_path / "run.cfg")
    with open(config, "w") as fh:
        fh.write("ion_count = 7\nomega_r_hz = 0.2e6\nomega_z_hz = 10e6\n")
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in outs:
        assert cli.main(["equilibrium", "--config", config,
                         "--out", out]) == 0
    deterministic = all(
        filecmp.cmp(os.path.join(outs[0], name),
                    os.path.join(outs[1], name), shallow=False)
        for name in ("crystal.tsv", "positions.tsv", "summary.json"))

    ok = bounded and symmetric and linear and quadratic and deterministic
    verdict(11, "property suite", ok,
            "bounded=%s symmetric=%s linear=%s quadratic=%s deterministic=%s"
            % (bounded, symmetric, linear, quadratic, deterministic))
    assert ok
