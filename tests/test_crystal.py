"""Equilibrium solver tests against small-N analytic results."""

import concurrent.futures
import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import gatelab
from gatelab import crystal as cr
from gatelab import modes as md
from gatelab import optimizer as op
from gatelab.errors import (InsufficientPoints, NegativeOccupation,
                            NonConvergence)


def make_config(n, omega_r_hz=1e6, omega_z_hz=1e7, **kw):
    return cr.TrapConfig(n, omega_r=2 * math.pi * omega_r_hz,
                         omega_z=2 * math.pi * omega_z_hz, **kw)


class TestConfig:
    def test_beta(self):
        cfg = make_config(5, omega_r_hz=0.2e6, omega_z_hz=10e6)
        assert cfg.beta == pytest.approx(50.0)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            make_config(0)
        with pytest.raises(ValueError):
            make_config(-3)
        with pytest.raises(ValueError):
            cr.TrapConfig(2.5, omega_r=1.0, omega_z=1.0)

    @pytest.mark.parametrize("count", [2.5, math.inf, -math.inf, math.nan],
                             ids=["fraction", "inf", "minus-inf", "nan"])
    def test_non_integer_count_gets_the_typed_message(self, count):
        # inf and NaN get the same message as 2.5, never OverflowError or
        # float-to-int conversion text
        with pytest.raises(ValueError,
                           match="^ion_count must be a positive integer$"):
            cr.TrapConfig(count, omega_r=1.0, omega_z=1.0)

    def test_rejects_nonpositive_frequencies(self):
        with pytest.raises(ValueError):
            cr.TrapConfig(2, omega_r=0.0, omega_z=1.0)
        with pytest.raises(ValueError):
            cr.TrapConfig(2, omega_r=1.0, omega_z=-1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0])
    @pytest.mark.parametrize("name", ["omega_r", "omega_z", "ion_mass",
                                      "charge"])
    def test_rejects_non_finite_values(self, name, value):
        # an infinite frequency, mass or charge would give a zero or
        # infinite length scale
        values = dict(omega_r=1.0, omega_z=1.0)
        values[name] = value
        with pytest.raises(ValueError,
                           match="^%s must be positive and finite$" % name):
            cr.TrapConfig(7, **values)

    def test_rejects_negative_nbar(self):
        with pytest.raises(ValueError):
            make_config(2, temperature_nbar=-0.1)

    def test_nbar_is_one_number(self):
        # the trap holds one occupation for every mode, as a float
        cfg = make_config(3, temperature_nbar=np.float64(0.2))
        assert type(cfg.temperature_nbar) is float
        assert cr.check_nbar(0) == 0.0
        for seq in ([0.1, 0.2, 0.3], [0.2], np.array([0.2])):
            with pytest.raises(NegativeOccupation, match="one number"):
                make_config(3, temperature_nbar=seq)
            with pytest.raises(NegativeOccupation, match="one number"):
                cr.check_nbar(seq)


class TestLengthScale:
    def test_value_be9(self):
        # ell^3 = k_e q^2 / (M omega_r^2) evaluated by hand
        cfg = make_config(2, omega_r_hz=1e6)
        k_e = 8.9875517862e9
        q = 1.602176634e-19
        ell_cubed = k_e * q**2 / (1.4965e-26 * (2 * math.pi * 1e6) ** 2)
        assert cr.length_scale(cfg) == pytest.approx(ell_cubed ** (1 / 3), rel=1e-9)

    def test_scaling_with_omega(self):
        a = cr.length_scale(make_config(2, omega_r_hz=1e6))
        b = cr.length_scale(make_config(2, omega_r_hz=8e6))
        assert a / b == pytest.approx(8.0 ** (2 / 3), rel=1e-12)


class TestConstants:
    def test_import_leaves_scipy_constants_out(self):
        # the package states e, h and eps0 itself, so no artifact follows
        # the CODATA set of the installed scipy; nor does it, or its CLI,
        # load any other scipy module: scipy is a test dependency only
        src = os.path.dirname(os.path.dirname(cr.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, gatelab, gatelab.cli; "
             "sys.exit(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy') or None)"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True)
        assert proc.returncode == 0, proc.stderr


class TestSmallCrystals:
    def test_single_ion(self):
        c = cr.solve_equilibrium(make_config(1))
        assert c.positions.shape == (1, 2)
        assert np.all(c.positions == 0.0)
        assert c.u_min == math.inf
        assert c.energy == 0.0

    def test_two_ions_analytic(self):
        # d^3 = 2 from force balance: d/2 = 1/d^2
        c = cr.solve_equilibrium(make_config(2))
        assert c.u_min == pytest.approx(2.0 ** (1 / 3), rel=1e-12)
        assert c.residual_gradient_norm < 1e-10

    def test_three_ions_triangle(self):
        # equilateral with side s: s = 3^(1/3)
        c = cr.solve_equilibrium(make_config(3))
        d = [np.linalg.norm(c.positions[i] - c.positions[j])
             for i, j in ((0, 1), (0, 2), (1, 2))]
        assert np.allclose(d, 3.0 ** (1 / 3), rtol=1e-10)

    def test_four_ions_square_not_triangle(self):
        # N=4 ground state is the square; a centred triangle is a higher
        # local minimum, so the solver must not get stuck there.
        c = cr.solve_equilibrium(make_config(4))
        r = np.hypot(c.positions[:, 0], c.positions[:, 1])
        assert r.std() / r.mean() < 1e-9  # all on one ring -> square
        assert c.energy < 6.0  # square 5.83 beats centred triangle 6.10

    def test_energy_matches_potential(self):
        c = cr.solve_equilibrium(make_config(5))
        assert c.energy == pytest.approx(cr.potential_energy(c.positions), rel=1e-14)


class TestGradient:
    def test_finite_difference(self):
        rng = np.random.default_rng(7)
        u = rng.normal(size=(6, 2)) * 2.0
        g = cr.potential_gradient(u)
        eps = 1e-6
        for i in range(6):
            for k in range(2):
                up = u.copy()
                um = u.copy()
                up[i, k] += eps
                um[i, k] -= eps
                fd = (cr.potential_energy(up) - cr.potential_energy(um)) / (2 * eps)
                assert g[i, k] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_hessian_finite_difference(self):
        rng = np.random.default_rng(11)
        u = rng.normal(size=(5, 2)) * 2.0
        hess = cr._planar_hessian(u)
        n = u.shape[0]
        eps = 1e-6
        for i in range(n):
            for k in range(2):
                up = u.copy()
                um = u.copy()
                up[i, k] += eps
                um[i, k] -= eps
                fd = (cr.potential_gradient(up) - cr.potential_gradient(um)) / (2 * eps)
                col = np.concatenate([fd[:, 0], fd[:, 1]])
                assert np.allclose(hess[:, k * n + i], col, rtol=1e-5, atol=1e-6)


def reference_pair_vectors(u):
    """dx, dy and the distances (diagonal -> inf), one temporary each."""
    dx = u[:, 0][:, None] - u[:, 0][None, :]
    dy = u[:, 1][:, None] - u[:, 1][None, :]
    d2 = dx * dx + dy * dy
    np.fill_diagonal(d2, np.inf)
    return dx, dy, np.sqrt(d2)


def reference_energy(u):
    _, _, d = reference_pair_vectors(u)
    coulomb = np.sum(1.0 / d) / 2.0
    return 0.5 * float(np.sum(u * u)) + float(coulomb)


def reference_gradient(u):
    dx, dy, d = reference_pair_vectors(u)
    inv3 = d ** -3.0
    gx = u[:, 0] - np.sum(dx * inv3, axis=1)
    gy = u[:, 1] - np.sum(dy * inv3, axis=1)
    return np.column_stack([gx, gy])


def reference_hessian(u):
    """The planar Hessian from fresh blocks joined by ``np.block``."""
    n = u.shape[0]
    dx, dy, d = reference_pair_vectors(u)
    inv5 = d ** -5.0
    txx = (2.0 * dx * dx - dy * dy) * inv5
    tyy = (2.0 * dy * dy - dx * dx) * inv5
    txy = 3.0 * dx * dy * inv5
    xx, yy, xy = -txx, -tyy, -txy
    idx = np.arange(n)
    xx[idx, idx] = 1.0 + txx.sum(axis=1)
    yy[idx, idx] = 1.0 + tyy.sum(axis=1)
    xy[idx, idx] = txy.sum(axis=1)
    return np.block([[xx, xy], [xy, yy]])


class TestCrystalKernels:
    """The in-place energy, gradient and Hessian are bit for bit the
    straightforward expressions, so no crystal moves."""

    @pytest.mark.parametrize("n", [7, 37, 127, 217])
    def test_bitwise_equal_to_references(self, n):
        rng = np.random.default_rng(n)
        u = cr.triangular_seed(n) + 0.05 * rng.normal(size=(n, 2))
        assert cr.potential_energy(u) == reference_energy(u)
        assert np.array_equal(cr.potential_gradient(u), reference_gradient(u))
        hess = cr._planar_hessian(u)
        assert np.array_equal(hess, reference_hessian(u))
        assert np.array_equal(hess, hess.T)
        xx, xy, yy = cr.curvature_blocks(u)
        assert np.array_equal(np.block([[xx, xy], [xy, yy]]), hess)
        assert cr.min_spacing(u) == float(reference_pair_vectors(u)[2].min())


class TestCurvatureBlocks:
    def test_row_sums(self):
        # Uniform translations: in-plane rows sum to 1 (xx, yy) and 0 (xy);
        # the axial weights s3 = 1/d^3 give no ion a weight on itself, so
        # the Laplacian's diagonal is the sum of its row's weights.
        c = cr.solve_equilibrium(make_config(7))
        xx, xy, yy = cr.curvature_blocks(c.positions)
        assert np.allclose(xx.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(yy.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(xy.sum(axis=1), 0.0, atol=1e-12)
        lap = md.coulomb_laplacian(c.positions)
        s3 = np.diag(np.diag(lap)) - lap
        assert np.all(np.diag(lap) == s3.sum(axis=1))
        assert np.allclose(s3, s3.T)

    def test_symmetry(self):
        c = cr.solve_equilibrium(make_config(6))
        xx, xy, yy = cr.curvature_blocks(c.positions)
        for block in (xx, xy, yy):
            assert np.allclose(block, block.T, atol=1e-13)


class TestCanonicalisation:
    def test_rotation_invariance(self):
        # Relaxing from a rotated, shifted crystal must land on the same
        # canonical frame.
        cfg = make_config(5)
        base = cr.solve_equilibrium(cfg)
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        u, ok = cr._relax(base.positions @ rot.T + 0.01)
        assert ok
        again = cr.canonical_orientation(u)
        assert np.allclose(np.sort(np.hypot(*again.T)),
                           np.sort(np.hypot(*base.positions.T)), atol=1e-8)
        assert np.allclose(again.mean(axis=0), 0.0, atol=1e-12)

    def test_centre_of_charge_at_origin(self):
        c = cr.solve_equilibrium(make_config(12))
        assert np.allclose(c.positions.mean(axis=0), 0.0, atol=1e-12)

    def test_deterministic(self):
        a = cr.solve_equilibrium(make_config(10))
        b = cr.solve_equilibrium(make_config(10))
        assert np.array_equal(a.positions, b.positions)


class TestStepAlgebra:
    def test_damped_step_matches_eigenpair_sum(self):
        # (H^2 + mu I)^-1 H g is the eigenpair sum lam/(lam^2 + mu) (q.g) q
        # at the tracker's starting damping, a middle one and its floor
        rng = np.random.default_rng(3)
        u = cr.triangular_seed(19) + rng.uniform(
            -0.05, 0.05, size=(19, 2)) * cr.seed_spacing(19)
        g = cr.potential_gradient(u)
        gflat = np.concatenate([g[:, 0], g[:, 1]])
        hess = cr._planar_hessian(u)
        lam, q = np.linalg.eigh(hess)
        for frac in (1.0, 1e-4, 1e-14):
            mu = frac * float(np.max(lam * lam))
            ref = -(q @ (lam / (lam * lam + mu) * (q.T @ gflat)))
            step = cr._shifted_solve(hess @ hess, mu, -(hess @ gflat))
            assert np.linalg.norm(step - ref) < 1e-10 * np.linalg.norm(ref)

    def test_newton_step_matches_lstsq(self):
        # the rotation-lifted solve is the least-squares step with the
        # rotation null direction cut
        u, ok = cr._track_root(cr.triangular_seed(19))
        assert ok
        g = cr.potential_gradient(u)
        gflat = np.concatenate([g[:, 0], g[:, 1]])
        ref, _, _, _ = np.linalg.lstsq(cr._planar_hessian(u), -gflat,
                                       rcond=1e-9)
        step = cr._newton_step(u, g)
        step = np.concatenate([step[:, 0], step[:, 1]])
        assert np.linalg.norm(ref) > 0.0
        assert np.linalg.norm(step - ref) < 1e-10 * np.linalg.norm(ref)


def _full_ladder_track(u):
    """``_track_root`` without the motionless-trial stop: every rejected
    iteration walks all 60 damping levels."""
    n = u.shape[0]
    mu = None
    grad = cr.potential_gradient(u)
    for _ in range(cr._MAX_ITER):
        if float(np.abs(grad).max()) < cr._TOL:
            return u, True
        gnorm = float(np.linalg.norm(grad))
        hess = cr._planar_hessian(u)
        if mu is None:
            mu = float(np.square(np.linalg.eigvalsh(hess)).max())
            mu_floor = 1e-14 * mu
        hess_sq = hess @ hess
        hess_grad = hess @ np.concatenate([grad[:, 0], grad[:, 1]])
        for _attempt in range(60):
            step = cr._shifted_solve(hess_sq, mu, -hess_grad)
            if step is not None:
                trial = u + np.column_stack([step[:n], step[n:]])
                trial_grad = cr.potential_gradient(trial)
                if float(np.linalg.norm(trial_grad)) < gnorm:
                    u, grad = trial, trial_grad
                    mu = max(0.3 * mu, mu_floor)
                    break
            mu *= 8.0
        else:
            return u, False
    return u, False


def _full_ladder_descend(u):
    """``_descend_energy`` without the motionless-trial stop: every
    rejected step walks all 80 shifts."""
    n = u.shape[0]
    lam = 1e-3
    energy = cr.potential_energy(u)
    for _ in range(cr._MAX_ITER):
        grad = cr.potential_gradient(u)
        if float(np.abs(grad).max()) < cr._TOL:
            return u, True
        gflat = np.concatenate([grad[:, 0], grad[:, 1]])
        hess = cr._planar_hessian(u)
        for _attempt in range(80):
            step = cr._shifted_solve(hess, lam, -gflat)
            if step is not None:
                trial = u + np.column_stack([step[:n], step[n:]])
                trial_energy = cr.potential_energy(trial)
                if trial_energy < energy:
                    u, energy = trial, trial_energy
                    lam = max(lam / 3.0, 1e-14)
                    break
            lam *= 10.0
        else:
            return u, False
    return u, False


class TestDampingLadders:
    @pytest.fixture
    def counts(self, monkeypatch):
        # gradient and energy evaluations made through the crystal module
        counts = {"gradient": 0, "energy": 0}
        gradient, energy = cr.potential_gradient, cr.potential_energy

        def counted_gradient(u):
            counts["gradient"] += 1
            return gradient(u)

        def counted_energy(u):
            counts["energy"] += 1
            return energy(u)

        monkeypatch.setattr(cr, "potential_gradient", counted_gradient)
        monkeypatch.setattr(cr, "potential_energy", counted_energy)
        return counts

    @staticmethod
    def restart_seed(n, restart, monkeypatch):
        # the seeds solve_equilibrium hands to _relax, in restart order;
        # in-process, since a worker's appends never reach this process
        seeds = []
        with monkeypatch.context() as patch:
            patch.setattr(cr, "_POOL_FLOOR", math.inf)
            patch.setattr(cr, "_relax",
                          lambda u0: (seeds.append(u0), (u0, True))[1])
            cr.solve_equilibrium(make_config(n))
        return seeds[restart]

    def run(self, ladder, u, counts):
        before = dict(counts)
        got, ok = ladder(u)
        return got, ok, {k: counts[k] - before[k] for k in counts}

    @pytest.mark.parametrize("n, restart", [(23, 0), (45, 0), (45, 2),
                                            (45, 3), (45, 4)])
    def test_motionless_stop_is_exact(self, n, restart, counts,
                                      monkeypatch):
        # restarts whose tracker fails: stopping a ladder at its first
        # trial that rounds back to u returns, bit for bit, what walking
        # the whole ladder returns, for fewer evaluations
        seed = self.restart_seed(n, restart, monkeypatch)
        ref, ref_ok, ref_used = self.run(_full_ladder_track, seed, counts)
        got, ok, used = self.run(cr._track_root, seed, counts)
        assert not ref_ok and not ok
        assert np.array_equal(got, ref)
        assert used["gradient"] < ref_used["gradient"]

        ref, ref_ok, ref_used = self.run(_full_ladder_descend, got, counts)
        got, ok, used = self.run(cr._descend_energy, got, counts)
        assert ok == ref_ok
        assert np.array_equal(got, ref)
        assert used["gradient"] == ref_used["gradient"]
        if ok:
            assert used["energy"] == ref_used["energy"]
        else:
            assert used["energy"] < ref_used["energy"]

    def test_shifted_solve(self, monkeypatch):
        # the same contract on numpy's bundled LAPACK and on the numpy-only
        # fallback, forced by taking the binding away
        rng = np.random.default_rng(7)
        a = rng.standard_normal((12, 12))
        spd = a @ a.T
        rhs = rng.standard_normal(12)
        kept = spd.copy(), rhs.copy()
        ref = np.linalg.solve(spd + 0.5 * np.eye(12), rhs)
        indefinite = spd - 2.0 * np.linalg.eigvalsh(spd).max() * np.eye(12)
        # only the lower triangle is read
        upper = np.triu_indices(12, 1)
        junk = spd.copy()
        junk[upper] = 1e3
        for binding in (cr._DPOSV, None):
            with monkeypatch.context() as patch:
                patch.setattr(cr, "_DPOSV", binding)
                got = cr._shifted_solve(spd, 0.5, rhs)
                assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()
                assert np.array_equal(cr._shifted_solve(junk, 0.5, rhs), got)
                assert cr._shifted_solve(indefinite, 0.5, rhs) is None
                indefinite_lower = indefinite.copy()
                indefinite_lower[upper] = 1e3
                assert cr._shifted_solve(indefinite_lower, 0.5, rhs) is None
                # no size mismatch reaches LAPACK
                for bad in ((spd, rhs[:-1]), (spd[:, :-1], rhs),
                            (spd, np.column_stack([rhs, rhs]))):
                    with pytest.raises(ValueError):
                        cr._shifted_solve(bad[0], 0.5, bad[1])
            # the matrix and the right-hand side are left as they were
            assert np.array_equal(spd, kept[0])
            assert np.array_equal(rhs, kept[1])

    @pytest.mark.parametrize("n", [19, 61])
    def test_fallback_crystal(self, n, monkeypatch):
        # without the bundled LAPACK the crystal is the same minimum, to
        # rounding
        cfg = make_config(n)
        bundled = cr.solve_equilibrium(cfg)
        monkeypatch.setattr(cr, "_DPOSV", None)
        fallback = cr.solve_equilibrium(cfg)
        assert fallback.energy == pytest.approx(bundled.energy, rel=1e-12)
        assert fallback.u_min == pytest.approx(bundled.u_min, rel=1e-12)

    def test_tracker_raises_damping_when_not_positive_definite(
            self, monkeypatch):
        # a first factorisation that reports "not positive definite" is a
        # rejected level: the next one tries 8 times the damping, and the
        # tracker still converges
        shifts = []
        solve = cr._shifted_solve

        def first_fails(matrix, shift, rhs):
            shifts.append(shift)
            return None if len(shifts) == 1 else solve(matrix, shift, rhs)

        monkeypatch.setattr(cr, "_shifted_solve", first_fails)
        u, ok = cr._track_root(cr.triangular_seed(19))
        assert ok
        assert shifts[1] == 8.0 * shifts[0]
        assert float(np.abs(cr.potential_gradient(u)).max()) < cr._TOL


class TestTieBreaks:
    @pytest.fixture(scope="class", params=[(19, 3), (127, 10)],
                    ids=["N19", "N127"])
    def solved(self, request):
        n, pair_count = request.param
        return cr.solve_equilibrium(make_config(n)), pair_count

    def test_noise_keeps_orientation_and_pairs(self, solved):
        # a symmetric shell ties its outer radii and its centre distances;
        # rounding-level noise must not pick another ion of the shell
        crystal, pair_count = solved
        pairs = op.default_pair_list(crystal, pair_count)
        rng = np.random.default_rng(5)
        for _ in range(8):
            noisy = crystal.positions + 1e-13 * rng.standard_normal(
                crystal.positions.shape)
            assert np.allclose(cr.canonical_orientation(noisy),
                               crystal.positions, rtol=0, atol=1e-9)
            again = dataclasses.replace(crystal, positions=noisy)
            assert op.default_pair_list(again, pair_count) == pairs

    def test_tied_restart_keeps_earliest(self, monkeypatch):
        # restarts 1-4 return the relabelled minimum, restart 0 a point
        # above it by 1e-13 (relative): a tie, so restart 0 is kept
        cfg = make_config(19)
        best = cr.solve_equilibrium(cfg).positions
        perm = np.roll(np.arange(19), 1)
        noise = np.random.default_rng(1).standard_normal(best.shape)
        flat = np.concatenate([noise[:, 0], noise[:, 1]])
        # the noise scaled so its quadratic form lifts the energy by 1e-13
        rise = 0.5 * flat @ cr._planar_hessian(best) @ flat
        above = best + math.sqrt(
            1e-13 * cr.potential_energy(best) / rise) * noise
        gap = cr.potential_energy(above) / cr.potential_energy(best) - 1.0
        assert 1e-15 < gap < 1e-12
        outputs = iter([above] + [best[perm]] * (cr._RESTARTS - 1))
        # in-process, since a worker's next() never reaches this process
        monkeypatch.setattr(cr, "_POOL_FLOOR", math.inf)
        monkeypatch.setattr(cr, "_relax",
                            lambda u0: (next(outputs), True))
        got = cr.solve_equilibrium(cfg)
        assert next(outputs, None) is None  # every restart was relaxed
        assert np.allclose(got.positions, cr.canonical_orientation(above),
                           rtol=0, atol=1e-12)


class TestPooledRestarts:
    # this process's own mask, read before a fixture replaces the function
    real_mask = staticmethod(getattr(os, "sched_getaffinity", None))

    @pytest.fixture
    def pools(self, monkeypatch):
        # the pooled path from N = 2 on two CPUs at one BLAS thread;
        # records the worker count of every pool a solve starts
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        made = []
        executor = concurrent.futures.ProcessPoolExecutor

        def recorded(workers, **kw):
            made.append(workers)
            return executor(workers, **kw)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            recorded)
        monkeypatch.setattr(cr, "_POOL_FLOOR", 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        return made

    @pytest.mark.parametrize("n", [7, 19, 45])
    def test_bitwise_equal_to_in_process(self, n, pools, monkeypatch,
                                         tmp_path):
        # ring seeds at N=7; at N=45 most restarts fall back to descent
        pooled = cr.solve_equilibrium(make_config(n))
        assert pools == [2]
        assert not multiprocessing.active_children()
        monkeypatch.setattr(cr, "_POOL_FLOOR", math.inf)
        alone = cr.solve_equilibrium(make_config(n))
        assert pools == [2]
        assert np.array_equal(pooled.positions, alone.positions)
        assert pooled.energy == alone.energy
        paths = [str(tmp_path / name) for name in ("pooled", "alone")]
        cr.write_crystal(pooled, paths[0])
        cr.write_crystal(alone, paths[1])
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()

    def test_iteration_cap_raises(self, pools, monkeypatch):
        monkeypatch.setattr(cr, "_MAX_ITER", 1)
        with pytest.raises(NonConvergence,
                           match="no restart reached gradient tolerance"):
            cr.solve_equilibrium(make_config(19))
        assert pools == [2]

    def test_restart_error_reaches_caller(self, pools, monkeypatch):
        seed = TestDampingLadders.restart_seed(19, 3, monkeypatch)
        relax = cr._relax

        def fourth_fails(u0):
            if np.array_equal(u0, seed):
                raise np.linalg.LinAlgError("restart 3 fails")
            return relax(u0)

        monkeypatch.setattr(cr, "_relax", fourth_fails)
        with pytest.raises(np.linalg.LinAlgError, match="restart 3 fails"):
            cr.solve_equilibrium(make_config(19))
        assert pools == [2]
        assert not multiprocessing.active_children()

    def test_one_cpu_starts_no_process(self, pools, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        cr.solve_equilibrium(make_config(19))
        assert pools == []
        assert not multiprocessing.active_children()

    def test_daemonic_caller_relaxes_in_process(self, pools, monkeypatch):
        # a multiprocessing.Pool worker is daemonic and may start no
        # process: its solve takes the in-process path
        with multiprocessing.get_context("fork").Pool(1) as outer:
            got = outer.apply(cr.solve_equilibrium, (make_config(19),))
        monkeypatch.setattr(cr, "_POOL_FLOOR", math.inf)
        assert np.array_equal(got.positions,
                              cr.solve_equilibrium(make_config(19)).positions)

    def test_workers_run_relax_as_patched(self, pools, monkeypatch):
        # a worker looks _relax up when it runs, so it runs the one
        # patched here, inherited through fork
        monkeypatch.setattr(cr, "_relax", lambda u0: (os.getpid(), True))
        pids = [pid for pid, _ in cr._relax_restarts(
            [cr.triangular_seed(7)] * cr._RESTARTS)]
        assert pools == [2]
        assert os.getpid() not in pids and len(set(pids)) <= 2

    @pytest.mark.parametrize("env, expected", [
        ({}, []),
        ({"OPENBLAS_NUM_THREADS": "2"}, []),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, []),
        ({"OMP_NUM_THREADS": "1"}, [2]),
    ], ids=["unset", "openblas-2", "openblas-2-omp-1", "omp-1"])
    def test_pools_only_at_one_blas_thread(self, env, expected, pools,
                                           monkeypatch):
        # the first variable OpenBLAS reads that is set decides; at
        # another thread count every restart relaxes in this process
        for name in gatelab._BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        cr.solve_equilibrium(make_config(19))
        assert pools == expected

    @staticmethod
    def record_placements(monkeypatch, forward):
        # (pid, target, cpus) of every sched_setaffinity call, made in any
        # process this one forks, through a fork-inherited queue
        calls = multiprocessing.get_context("fork").SimpleQueue()
        setaffinity = getattr(os, "sched_setaffinity", None)

        def recorded(pid, cpus):
            calls.put((os.getpid(), pid, set(cpus)))
            if forward:
                setaffinity(pid, cpus)

        monkeypatch.setattr(os, "sched_setaffinity", recorded, raising=False)

        def drain():
            got = []
            while not calls.empty():
                got.append(calls.get())
            return got
        return drain

    def test_workers_start_on_distinct_cpus(self, pools, monkeypatch):
        # each worker sets one CPU of the caller's mask, no two the same,
        # then the caller's whole mask again; the caller sets none
        mask = {3, 5, 8}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask)
        drain = self.record_placements(monkeypatch, forward=False)
        cr._relax_restarts([cr.triangular_seed(7)] * cr._RESTARTS)
        calls = drain()
        assert pools == [3]
        workers = {}
        for pid, target, cpus in calls:
            workers.setdefault(pid, []).append((target, cpus))
        assert os.getpid() not in workers and len(workers) == 3
        placed = []
        for sets in workers.values():
            assert len(sets) == 2 and sets[1] == (0, mask)
            assert sets[0][0] == 0 and len(sets[0][1]) == 1
            placed.extend(sets[0][1])
        assert sorted(placed) == sorted(mask)

    def test_caller_mask_unchanged(self, pools, monkeypatch):
        # placement acts in the workers only, after a raising solve too
        if self.real_mask is None:
            pytest.skip("no sched_getaffinity on this platform")
        before = self.real_mask(0)
        drain = self.record_placements(monkeypatch, forward=True)
        cr.solve_equilibrium(make_config(19))
        assert self.real_mask(0) == before
        seed = TestDampingLadders.restart_seed(19, 3, monkeypatch)
        relax = cr._relax

        def fourth_fails(u0):
            if np.array_equal(u0, seed):
                raise np.linalg.LinAlgError("restart 3 fails")
            return relax(u0)

        monkeypatch.setattr(cr, "_relax", fourth_fails)
        with pytest.raises(np.linalg.LinAlgError, match="restart 3 fails"):
            cr.solve_equilibrium(make_config(19))
        assert self.real_mask(0) == before
        calls = drain()
        assert pools == [2, 2]
        assert calls and os.getpid() not in {pid for pid, _, _ in calls}

    def test_failed_placement_keeps_the_crystal(self, pools, monkeypatch):
        # a worker that cannot be placed relaxes where it started
        def refuse(pid, cpus):
            raise PermissionError("sched_setaffinity refused")

        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        pooled = cr.solve_equilibrium(make_config(19))
        assert pools == [2]
        assert not multiprocessing.active_children()
        monkeypatch.setattr(cr, "_POOL_FLOOR", math.inf)
        alone = cr.solve_equilibrium(make_config(19))
        assert np.array_equal(pooled.positions, alone.positions)
        assert pooled.energy == alone.energy


class TestSeeds:
    def test_restarts_never_raise_energy(self):
        # the restarts can only lower the energy the first seed reaches,
        # both compared in the canonical frame the solver returns
        first, _ = cr._relax(cr.triangular_seed(12))
        assert (cr.solve_equilibrium(make_config(12)).energy
                <= cr.potential_energy(cr.canonical_orientation(first)))

    def test_triangular_seed_count_and_spacing(self):
        pos = cr.triangular_seed(19)
        assert pos.shape == (19, 2)
        d = np.linalg.norm(pos[None] - pos[:, None], axis=-1)
        d[d == 0] = np.inf
        assert d.min() == pytest.approx(cr.seed_spacing(19), rel=1e-12)

    def test_ring_seed_balance(self):
        # At the balance radius the radial force on each ring ion vanishes.
        for n, centre in ((5, False), (7, True)):
            pos = cr.ring_seed(n, with_centre=centre)
            g = cr.potential_gradient(pos)
            radial = np.einsum("ij,ij->i", g, pos)
            assert np.allclose(radial, 0.0, atol=1e-12)


class TestNonConvergence:
    def test_iteration_cap_raises(self, monkeypatch):
        # one iteration cannot relax N=19 from any restart
        monkeypatch.setattr(cr, "_MAX_ITER", 1)
        with pytest.raises(NonConvergence,
                           match="no restart reached gradient tolerance"):
            cr.solve_equilibrium(make_config(19))


class TestScanAndFit:
    def test_u_min_trap_independent(self):
        n = 5
        a = cr.solve_equilibrium(make_config(n, omega_r_hz=0.2e6))
        b = cr.solve_equilibrium(make_config(n, omega_r_hz=5e6))
        assert a.u_min == pytest.approx(b.u_min, rel=1e-12)

    def test_power_law_exact_recovery(self):
        ns = [7, 19, 37, 61]
        pts = [(n, 2.5 * n ** -0.3) for n in ns]
        fit = cr.fit_power_law(pts)
        assert fit.prefactor == pytest.approx(2.5, rel=1e-12)
        assert fit.exponent == pytest.approx(-0.3, rel=1e-12)
        assert fit.rms_log_residual < 1e-14

    def test_power_law_shift(self):
        pts = [(n, 1.3 * (n - 2) ** 0.55) for n in (7, 19, 37, 61)]
        fit = cr.fit_power_law(pts, shift=2.0)
        assert fit.exponent == pytest.approx(0.55, rel=1e-12)
        assert fit.evaluate(91) == pytest.approx(1.3 * 89 ** 0.55, rel=1e-12)

    def test_power_law_errors(self):
        with pytest.raises(InsufficientPoints):
            cr.fit_power_law([(7, 1.0), (19, 0.9)])
        with pytest.raises(ValueError):
            cr.fit_power_law([(7, 1.0), (19, -0.9), (37, 0.8)])
        with pytest.raises(ValueError):
            cr.fit_power_law([(1, 1.0), (19, 0.9), (37, 0.8)], shift=2.0)

    def test_min_spacing_scan(self):
        out = [(n, cr.solve_equilibrium(make_config(n)).u_min)
               for n in (2, 3)]
        assert out[0] == (2, pytest.approx(2.0 ** (1 / 3), rel=1e-10))
        assert out[1][1] == pytest.approx(3.0 ** (1 / 3), rel=1e-10)


class TestSpacingInversion:
    def test_round_trip(self):
        # Pick omega_r for a target d_min, then check the solved crystal.
        n = 7
        target = 20e-6
        omega_r = cr.omega_r_for_spacing(cr.solve_equilibrium(make_config(n)),
                                         target)
        cfg = cr.TrapConfig(n, omega_r=omega_r, omega_z=2 * math.pi * 1e7)
        c = cr.solve_equilibrium(cfg)
        assert c.spacing_metres() == pytest.approx(target, rel=1e-9)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            cr.omega_r_for_spacing(cr.solve_equilibrium(make_config(7)),
                                   -1e-6)

    @pytest.mark.parametrize("target", [np.nan, np.inf])
    def test_rejects_non_finite_target(self, target):
        with pytest.raises(ValueError, match="positive and finite"):
            cr.omega_r_for_spacing(cr.solve_equilibrium(make_config(7)),
                                   target)

    def test_rejects_single_ion(self):
        with pytest.raises(ValueError, match="single ion"):
            cr.omega_r_for_spacing(cr.solve_equilibrium(make_config(1)),
                                   20e-6)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        c = cr.solve_equilibrium(make_config(7, temperature_nbar=0.25))
        path = tmp_path / "crystal.tsv"
        cr.write_crystal(c, path)
        back = cr.read_crystal(path)
        assert np.allclose(back.positions, c.positions, rtol=0, atol=1e-14)
        assert back.config == c.config
        assert back.u_min == pytest.approx(c.u_min, rel=1e-14)
        assert back.energy == pytest.approx(c.energy, rel=1e-14)

    def test_header_is_commented(self, tmp_path):
        c = cr.solve_equilibrium(make_config(2))
        path = tmp_path / "crystal.tsv"
        cr.write_crystal(c, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 2
        assert len(data[0].split("\t")) == 3


class TestWithTrap:
    def test_rescaling(self):
        c = cr.solve_equilibrium(make_config(5, omega_r_hz=1e6))
        cfg2 = make_config(5, omega_r_hz=0.2e6)
        c2 = cr.with_trap(c, cfg2)
        assert np.array_equal(c2.positions, c.positions)
        assert c2.length_scale_ell == pytest.approx(
            cr.length_scale(cfg2), rel=1e-14)
        with pytest.raises(ValueError):
            cr.with_trap(c, make_config(6))
