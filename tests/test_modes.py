"""Axial mode tests against the two-ion analytic spectrum and invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gatelab import crystal as cr
from gatelab import modes as md
from gatelab._textio import read_rows
from gatelab.errors import UnstableSpectrum


def solve(n, beta=50.0, omega_r_hz=0.2e6):
    cfg = cr.TrapConfig(n, omega_r=2 * math.pi * omega_r_hz,
                        omega_z=2 * math.pi * omega_r_hz * beta)
    return cr.solve_equilibrium(cfg)


def at_beta(crystal, beta):
    """``crystal`` re-dressed with omega_z = beta omega_r."""
    return cr.with_trap(crystal, replace(
        crystal.config, omega_z=beta * crystal.config.omega_r))


class TestBuildMatrices:
    def test_axial_row_sums(self):
        # Uniform axial translation feels only the trap: rows sum to beta^2.
        c = solve(7, beta=10.0)
        zz = md.build_matrices(c)
        assert np.allclose(zz.sum(axis=1), 100.0, atol=1e-10)

    def test_two_ion_entries(self):
        # d^3 = 2, so off-diagonal 1/d^3 = 0.5, diagonal beta^2 - 0.5.
        c = solve(2, beta=3.0)
        zz = md.build_matrices(c)
        assert zz[0, 1] == pytest.approx(0.5, rel=1e-10)
        assert zz[0, 0] == pytest.approx(9.0 - 0.5, rel=1e-10)

    def test_beta_override(self):
        c = solve(3, beta=5.0)
        zz = md.build_matrices(at_beta(c, 7.0))
        assert np.allclose(zz.sum(axis=1), 49.0, atol=1e-10)

    def test_laplacian_psd_with_zero_mode(self):
        c = solve(9)
        lap = md.coulomb_laplacian(c.positions)
        evals = np.linalg.eigvalsh(lap)
        assert evals[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(evals[1:] > 0.0)
        assert np.allclose(lap @ np.ones(9), 0.0, atol=1e-12)


class TestSpectrum:
    def test_two_ion_analytic(self):
        beta = 4.0
        c = solve(2, beta=beta)
        spec = md.axial_spectrum(c)
        omega_r = c.config.omega_r
        # eigenvalues beta^2 (uniform) and beta^2 - 1 (stretch)
        assert spec.frequencies[0] == pytest.approx(omega_r * beta, rel=1e-12)
        assert spec.frequencies[1] == pytest.approx(
            omega_r * math.sqrt(beta**2 - 1.0), rel=1e-12)
        assert np.allclose(np.abs(spec.modes[0]), 1 / math.sqrt(2), rtol=1e-12)

    def test_com_mode_exact(self):
        c = solve(12, beta=20.0)
        spec = md.axial_spectrum(c)
        n = c.ion_count
        assert spec.frequencies[0] == pytest.approx(c.config.omega_z, rel=1e-12)
        assert np.allclose(spec.modes[0], 1 / math.sqrt(n), rtol=1e-9)

    def test_orthonormal_modes(self):
        spec = md.axial_spectrum(solve(10))
        gram = spec.modes @ spec.modes.T
        assert np.allclose(gram, np.eye(10), atol=1e-12)

    def test_descending_order_and_signs(self):
        spec = md.axial_spectrum(solve(8))
        assert np.all(np.diff(spec.frequencies) < 0.0)
        for vec in spec.modes:
            assert vec[np.argmax(np.abs(vec))] > 0.0

    def test_unstable_raises(self):
        c = solve(7, beta=50.0)
        bc = md.critical_beta(c)
        with pytest.raises(UnstableSpectrum):
            md.axial_spectrum(at_beta(c, 0.9 * bc))

    def test_matches_laplacian_eigenvalues(self):
        # omega_k^2 / omega_r^2 = beta^2 - lambda_k(L), checked independently
        c = solve(6, beta=9.0)
        spec = md.axial_spectrum(c)
        lam = np.sort(np.linalg.eigvalsh(md.coulomb_laplacian(c.positions)))
        expect = c.config.omega_r * np.sqrt(81.0 - lam)
        assert np.allclose(np.sort(spec.frequencies), np.sort(expect), rtol=1e-12)


class TestCriticalBeta:
    def test_single_ion(self):
        assert md.critical_beta(cr.solve_equilibrium(
            cr.TrapConfig(1, omega_r=1.0, omega_z=2.0))) == 0.0

    def test_two_ions(self):
        # stretch eigenvalue beta^2 - 1 crosses zero at beta = 1
        c = solve(2)
        assert md.critical_beta(c) == pytest.approx(1.0, abs=1e-6)

    def test_matches_laplacian_top_eigenvalue(self):
        for n in (5, 7, 13):
            c = solve(n)
            lam_max = np.linalg.eigvalsh(md.coulomb_laplacian(c.positions))[-1]
            assert md.critical_beta(c) == pytest.approx(
                math.sqrt(lam_max), abs=1e-6)

    def test_boundary_behaviour(self):
        c = solve(9)
        bc = md.critical_beta(c)
        md.axial_spectrum(at_beta(c, bc + 1e-3))  # just stable
        with pytest.raises(UnstableSpectrum):
            md.axial_spectrum(at_beta(c, bc - 1e-3))

    def test_grows_with_n(self):
        values = [md.critical_beta(solve(n)) for n in (3, 7, 19)]
        assert values[0] < values[1] < values[2]


class TestComGap:
    def test_two_ion_analytic(self):
        beta = 6.0
        c = solve(2, beta=beta)
        gap = md.com_gap(c)
        assert gap == pytest.approx(
            c.config.omega_r * (beta - math.sqrt(beta**2 - 1.0)), rel=1e-12)

    def test_monotone_decreasing_in_beta(self):
        c = solve(7)
        betas = np.linspace(4.0, 60.0, 12)
        gaps = [md.com_gap(c, beta=b) for b in betas]
        assert np.all(np.diff(gaps) < 0.0)

    def test_gap_at_beta_redresses_the_trap(self, tmp_path, monkeypatch):
        # every spectrum, com_gap's re-dressed ones included, carries the
        # beta of its own trap, and its uniform mode sits at that trap's
        # omega_z; so does a spectrum file's trap block
        built = []
        original = md.axial_spectrum

        def recording(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(md, "axial_spectrum", recording)
        c = solve(7)
        betas = (20.0, 30.0, 77.7)
        gaps = [md.com_gap(c, beta=b) for b in betas]
        assert gaps == [md.com_gap(at_beta(c, b)) for b in betas]
        md.com_gap(c)
        assert len(built) == 2 * len(betas) + 1
        path = tmp_path / "spectrum.tsv"
        md.write_spectrum(built[0], path)
        meta, rows = read_rows(path)
        trap = cr.read_trap_meta(meta)
        assert trap == built[0].config
        assert float(meta["beta"]) == trap.beta
        assert float(rows[0][1]) * 2 * math.pi == pytest.approx(
            trap.omega_z, rel=1e-12)
        for spec in built:
            assert spec.beta == spec.config.beta
            assert spec.frequencies[0] == pytest.approx(spec.config.omega_z,
                                                        rel=1e-12)
        assert [s.beta for s in built[:len(betas)]] == pytest.approx(
            betas, rel=1e-15)

    def test_single_mode_rejected(self):
        c = cr.solve_equilibrium(cr.TrapConfig(1, omega_r=1.0, omega_z=2.0))
        with pytest.raises(ValueError):
            md.com_gap(c)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        crystal = solve(6)
        crystal = cr.with_trap(crystal, cr.TrapConfig(
            6, omega_r=crystal.config.omega_r,
            omega_z=crystal.config.omega_z, temperature_nbar=0.5))
        spec = md.axial_spectrum(crystal)
        path = tmp_path / "spectrum.tsv"
        md.write_spectrum(spec, path)
        meta, rows = read_rows(path)
        freqs = np.array([float(r[1]) for r in rows]) * 2 * math.pi
        modes = np.array([[float(v) for v in r[2:]] for r in rows])
        assert np.allclose(freqs, spec.frequencies, rtol=1e-14)
        assert np.allclose(modes, spec.modes, rtol=0, atol=1e-14)
        assert float(meta["beta"]) == spec.beta
        assert int(meta["ion_count"]) == 6
        # the whole trap block, thermal occupation included, comes back
        assert cr.read_trap_meta(meta) == spec.config

    def test_derived_beta_is_not_read(self, tmp_path):
        # the beta header line is for people; the trap block read from
        # the file does not take it in
        spec = md.axial_spectrum(solve(6))
        path = tmp_path / "spectrum.tsv"
        md.write_spectrum(spec, path)
        text = path.read_text()
        edited = "\n".join("# beta\t20" if line.startswith("# beta\t")
                           else line for line in text.splitlines()) + "\n"
        assert edited != text
        path.write_text(edited)
        meta, _ = read_rows(path)
        assert meta["beta"] == "20"
        trap = cr.read_trap_meta(meta)
        assert trap.beta == spec.config.beta == spec.beta
        assert trap == spec.config

    def test_frequencies_stored_in_hz(self, tmp_path):
        spec = md.axial_spectrum(solve(2, beta=5.0, omega_r_hz=1e6))
        path = tmp_path / "spectrum.tsv"
        md.write_spectrum(spec, path)
        first_data = [ln for ln in path.read_text().splitlines()
                      if not ln.startswith("#")][0]
        f_hz = float(first_data.split("\t")[1])
        assert f_hz == pytest.approx(5e6, rel=1e-12)
