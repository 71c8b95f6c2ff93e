"""Pulse-design tests on small crystals.

The segment-amplitude solver and the detuning scan are exercised on a
7-ion crystal where every solve takes milliseconds.  Contract checks: the
phase rescale is exact, the polish never loses fidelity against its seed
and ends at a stationary point of the locked fidelity (checked over a
19-ion scan), every point of a lockstep grid solve equals its one-point
solve, every pair of a lockstep table equals its own scan, scans are
deterministic and bounded by 1, and a larger control
space cannot do worse on the same grid.  Selector and
serialization logic gets synthetic inputs.
"""

from dataclasses import replace
import tracemalloc
import warnings

import numpy as np
import pytest

from gatelab import crystal as cr
from gatelab import gate as gt
from gatelab import modes as md
from gatelab import optimizer as op
from gatelab import oracle as orc
from gatelab._textio import read_rows
from gatelab.errors import (IndefiniteKernel, InsufficientPoints,
                            NegativeOccupation)

TWO_PI = 2 * np.pi
WZ = TWO_PI * 10e6


@pytest.fixture(scope="module")
def spectrum7():
    config = cr.TrapConfig(ion_count=7, omega_r=TWO_PI * 0.2e6, omega_z=WZ,
                           temperature_nbar=0.1)
    return md.axial_spectrum(cr.solve_equilibrium(config))


@pytest.fixture(scope="module")
def spectrum127():
    config = cr.TrapConfig(127, omega_r=TWO_PI * 0.2e6, omega_z=WZ,
                           temperature_nbar=0.1)
    return md.axial_spectrum(cr.solve_equilibrium(config))


# the paper table's pair (0, 118) on a 10x finer default window
PAPER_PAIR_3001 = op.OptimizationProblem(
    pair=(0, 118), tau=50e-6, mu_grid=op.default_mu_grid(WZ, 3001))


def small_grid(points=21, below=0.05e6, above=0.06e6):
    return np.linspace(WZ - TWO_PI * below, WZ + TWO_PI * above, points)


def one_point(pair, mu, **options):
    """The one-point problem of a 50 us, 5-segment drive at ``mu``."""
    return op.OptimizationProblem(pair=pair, tau=50e-6, segment_count=5,
                                  mu_grid=[mu], **options)


def ascend(forms, vec):
    """op._ascend of every row of ``forms`` from ``vec``, step 0's
    fidelities and overlap exponents those op._locked gives."""
    fid, _, gamma = op._locked(forms, vec)
    return op._ascend(forms, np.arange(len(vec)), vec, fid, gamma)


@pytest.fixture
def no_kernels(monkeypatch):
    """Fail the test if a segment kernel is built."""
    def refuse(*args):
        raise AssertionError("kernels built for a bad problem")

    monkeypatch.setattr(op, "_pair_kernels", refuse)


class TestOptimizationProblem:
    def test_rejects_identical_ions(self):
        with pytest.raises(ValueError):
            op.OptimizationProblem(pair=(2, 2), tau=50e-6)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            op.OptimizationProblem(pair=(0, 1), tau=0.0)

    @pytest.mark.parametrize("pair", [(0, 1.7), (0.0, 1), (0, "1"),
                                      (True, 2), (0, False)])
    def test_rejects_non_integer_index(self, pair):
        # an index is never truncated to an int
        with pytest.raises(ValueError, match="pair needs two distinct"):
            op.OptimizationProblem(pair=pair, tau=1e-5)

    def test_rejects_malformed_pair(self):
        with pytest.raises(ValueError, match="^pair needs two distinct"):
            op.OptimizationProblem(pair=5, tau=1e-5)

    def test_rejects_zero_segments(self):
        with pytest.raises(ValueError):
            op.OptimizationProblem(pair=(0, 1), tau=1e-5, segment_count=0)

    @pytest.mark.parametrize("value", ["5e-5", True, np.bool_(True), 1j,
                                       [5e-5], np.array([5e-5]), 0.0,
                                       -1e-5, np.inf, np.nan],
                             ids=["str", "bool", "numpy-bool", "complex",
                                  "list", "array", "zero", "negative",
                                  "inf", "nan"])
    @pytest.mark.parametrize("name", ["tau", "amplitude_bound"])
    def test_rejects_non_numbers(self, name, value):
        # TrapConfig's rule: one real number, positive and finite; a str
        # raised a bare TypeError, and True, an array or inf were kept
        values = dict(pair=(0, 1), tau=5e-5)
        values[name] = value
        with pytest.raises(ValueError,
                           match="^%s must be positive and finite$" % name):
            op.OptimizationProblem(**values)

    def test_numbers_are_stored_as_floats(self):
        problem = op.OptimizationProblem(pair=(0, 1), tau=np.float32(0.5),
                                         amplitude_bound=np.int64(3))
        assert type(problem.tau) is float and problem.tau == 0.5
        assert (type(problem.amplitude_bound) is float
                and problem.amplitude_bound == 3.0)

    @pytest.mark.parametrize("count", [2.5, 2.0, np.nan, "2", True,
                                       np.bool_(True)])
    def test_rejects_non_integer_segment_count(self, count):
        # a count is never truncated to an int
        with pytest.raises(ValueError, match="segment_count must be a "
                                             "positive integer"):
            op.OptimizationProblem(pair=(0, 1), tau=5e-5, segment_count=count)

    def test_segment_count_is_an_int(self):
        problem = op.OptimizationProblem(pair=(0, 1), tau=5e-5,
                                         segment_count=np.int64(3))
        assert type(problem.segment_count) is int
        assert problem.times.size == 4

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            op.OptimizationProblem(pair=(0, 1), tau=1e-5,
                                   mu_grid=np.array([]))

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            op.OptimizationProblem(pair=(0, 1), tau=1e-5,
                                   amplitude_bound=-1.0)


class TestSolveAmplitudes:
    MU = WZ + TWO_PI * 40e3

    def test_phase_rescale_exact(self, spectrum7):
        sched, _ = op.solve_amplitudes(spectrum7, one_point((0, 1), self.MU))
        couplings = gt.drive_couplings(spectrum7)
        phi = gt.entangling_phase(sched, couplings,
                                  spectrum7.frequencies, (0, 1))
        assert abs(abs(phi) - np.pi / 4) < 1e-10

    def test_fidelity_matches_report(self, spectrum7):
        sched, fid = op.solve_amplitudes(spectrum7, one_point((0, 1), self.MU))
        report = gt.gate_report(sched, spectrum7, (0, 1))
        assert fid == report.fidelity
        assert 0.0 <= fid <= 1.0

    def forms(self, spectrum):
        times = np.linspace(0.0, 50e-6, 6)
        return op._grid_forms(spectrum, [(0, 1)], times, [self.MU],
                              spectrum.config.temperature_nbar, None)

    def test_objective_forms_match_public_kernels(self, spectrum7):
        # the forms hold S, mode axis last, and the G built from that S;
        # both stay bitwise equal to the public kernel functions
        forms = self.forms(spectrum7)
        times = np.linspace(0.0, 50e-6, 6)
        freqs = spectrum7.frequencies
        S = gt.first_order_integrals(times, self.MU, freqs)
        assert np.array_equal(forms.S[0].T, S)
        assert np.array_equal(forms.G[0], gt.pair_phase_matrix(
            times, self.MU, freqs, gt.drive_couplings(spectrum7), (0, 1)))

    def test_polish_never_below_seed(self, spectrum7):
        # step 0 of the ascent takes every overlap exponent as zero
        found, _, seed_fid, _, _ = op._extremal(
            self.forms(spectrum7), op._BRANCH_COEFFS[None, :])
        assert found[0]
        _, polished = op.solve_amplitudes(spectrum7,
                                          one_point((0, 1), self.MU))
        assert polished >= seed_fid[0] - 1e-12

    def test_polish_keeps_vector_when_overlaps_underflow(self, spectrum7):
        # balancing the most positive and most negative phase directions
        # cancels the phase to rounding level; locking that to pi/4 drives
        # every overlap exponent past the exp underflow, so the reweighted
        # residual form vanishes and the ascent must stop where it is
        forms = self.forms(spectrum7)
        evals, evecs = np.linalg.eigh(forms.G[0])
        vec = (np.sqrt(-evals[0]) * evecs[:, -1]
               + np.sqrt(evals[-1]) * evecs[:, 0])[None, :]
        fid, _, gamma = op._locked(forms, vec)
        assert np.all(np.exp(-gamma) == 0.0)
        out, out_fid, steps, broken = ascend(forms, vec)
        assert np.array_equal(out, vec)
        assert out_fid[0] == fid[0]
        assert steps[0] == 0 and not broken[0]

    def test_decoupled_pair_raises(self, spectrum7):
        # localized single-ion fake modes give the pair no shared mode, so
        # no drive direction produces a conditional phase
        n = spectrum7.mode_count
        forged = md.AxialSpectrum(frequencies=spectrum7.frequencies,
                                  modes=np.eye(n), config=spectrum7.config)
        with pytest.raises(IndefiniteKernel):
            op.solve_amplitudes(forged, one_point((0, 1), self.MU))

    def test_absurd_amplitude_bound_raises(self, spectrum7):
        with pytest.raises(IndefiniteKernel):
            op.solve_amplitudes(spectrum7, one_point(
                (0, 1), self.MU, amplitude_bound=1e-30))

    @pytest.mark.parametrize("nbar", [-1.0, -0.4, np.nan])
    def test_bad_nbar_rejected_before_kernels(self, spectrum7, monkeypatch,
                                              nbar):
        # both entry points check the occupation before any kernel is
        # built or any ascent step is taken
        def no_kernels(*args):
            raise AssertionError("kernels built for a bad nbar")

        monkeypatch.setattr(op, "_pair_kernels", no_kernels)
        with pytest.raises(NegativeOccupation):
            op.solve_amplitudes(spectrum7,
                                one_point((0, 1), self.MU, nbar=nbar))
        problem = op.OptimizationProblem(pair=(0, 1), tau=50e-6,
                                         mu_grid=small_grid(11), nbar=nbar)
        with pytest.raises(NegativeOccupation):
            op.detuning_scan(spectrum7, problem)

    @pytest.mark.parametrize("pair, tau, segments, mu", [
        ((0, 1), 50e-6, 5, 2.5 * WZ), ((0, 1), 50e-6, 0, MU),
        ((0, 1), 0.0, 5, MU), ((0, 1), -50e-6, 5, MU),
        ((0, 1), np.inf, 5, MU), ((2, 2), 50e-6, 5, MU),
        ((0, 7), 50e-6, 5, MU), ((0, -1), 50e-6, 5, MU)],
        ids=["mu-past-2-omega-z", "no-segments", "zero-tau", "negative-tau",
             "infinite-tau", "equal-pair", "pair-past-ion-count",
             "negative-index"])
    def test_bad_problem_rejected_before_kernels(self, spectrum7, no_kernels,
                                                 pair, tau, segments, mu):
        # the one-point solve checks its problem as a scan does
        with pytest.raises(ValueError):
            op.solve_amplitudes(spectrum7, op.OptimizationProblem(
                pair=pair, tau=tau, segment_count=segments, mu_grid=[mu]))

    @pytest.mark.parametrize("grid", [None, small_grid(2)],
                             ids=["default-grid", "two-points"])
    def test_grid_of_another_size_rejected(self, spectrum7, no_kernels,
                                           grid):
        problem = op.OptimizationProblem(pair=(0, 1), tau=50e-6,
                                         mu_grid=grid)
        with pytest.raises(ValueError, match="one-point mu_grid"):
            op.solve_amplitudes(spectrum7, problem)

    def test_bound_respected_when_loose(self, spectrum7):
        sched, _ = op.solve_amplitudes(spectrum7, one_point((0, 1), self.MU))
        bound = 2.0 * sched.max_amplitude
        capped, _ = op.solve_amplitudes(spectrum7, one_point(
            (0, 1), self.MU, amplitude_bound=bound))
        assert capped.max_amplitude <= bound * (1 + 1e-12)


class TestDetuningScan:
    def test_grid_bounds_enforced(self, spectrum7):
        bad_low = op.OptimizationProblem(pair=(0, 1), tau=50e-6,
                                         mu_grid=np.array([0.0, WZ]))
        with pytest.raises(ValueError):
            op.detuning_scan(spectrum7, bad_low)
        bad_high = op.OptimizationProblem(pair=(0, 1), tau=50e-6,
                                          mu_grid=np.array([2.5 * WZ]))
        with pytest.raises(ValueError):
            op.detuning_scan(spectrum7, bad_high)

    def test_window_rule(self):
        # (0, 2 omega_z]: the top edge is in, zero is out; None is the
        # default grid
        assert op.check_mu_grid(np.array([2.0 * WZ]), WZ)[0] == 2.0 * WZ
        assert np.array_equal(op.check_mu_grid(None, WZ),
                              op.default_mu_grid(WZ))
        for grid in ([0.0, WZ], [WZ, 2.0 * WZ * (1 + 1e-15)]):
            with pytest.raises(ValueError, match=r"\(0, 2 omega_z\]"):
                op.check_mu_grid(np.array(grid), WZ)

    @pytest.mark.parametrize("changes", [
        {"mu_grid": np.append(small_grid(5), np.nan)}, {"tau": np.inf},
        {"pair": (0, 9)}], ids=["nan-grid-point", "infinite-tau",
                                "pair-past-ion-count"])
    def test_bad_problem_rejected_before_kernels(self, spectrum7, no_kernels,
                                                 changes):
        fields = {"pair": (0, 1), "tau": 50e-6, "mu_grid": small_grid(5)}
        fields.update(changes)
        with pytest.raises(ValueError):
            op.detuning_scan(spectrum7, op.OptimizationProblem(**fields))

    def test_best_is_grid_argmax(self, spectrum7):
        problem = op.OptimizationProblem(pair=(0, 1), tau=50e-6,
                                         mu_grid=small_grid())
        result = op.detuning_scan(spectrum7, problem)
        assert result.feasible
        assert result.best_index == int(np.argmax(result.fidelities))
        assert result.best_fidelity == result.fidelities[result.best_index]
        assert result.best_schedule.mu == result.best_mu

    def test_fidelities_bounded(self, spectrum7):
        problem = op.OptimizationProblem(pair=(0, 1), tau=50e-6,
                                         mu_grid=small_grid())
        result = op.detuning_scan(spectrum7, problem)
        assert np.all(result.fidelities <= 1.0 + 1e-12)
        assert np.all(result.fidelities >= 0.0)

    def test_deterministic(self, spectrum7):
        problem = op.OptimizationProblem(pair=(0, 1), tau=50e-6,
                                         mu_grid=small_grid())
        a = op.detuning_scan(spectrum7, problem)
        b = op.detuning_scan(spectrum7, problem)
        assert np.array_equal(a.fidelities, b.fidelities)
        assert np.array_equal(a.max_amplitudes, b.max_amplitudes)
        assert np.array_equal(a.best_schedule.amplitudes,
                              b.best_schedule.amplitudes)

    def test_all_points_infeasible(self, spectrum7):
        problem = op.OptimizationProblem(pair=(0, 1), tau=50e-6,
                                         mu_grid=small_grid(5),
                                         amplitude_bound=1e-30)
        result = op.detuning_scan(spectrum7, problem)
        assert not result.feasible
        assert result.best_index == -1
        assert result.best_schedule is None
        assert result.best_mu is None
        assert result.best_fidelity == 0.0
        assert np.all(result.fidelities == 0.0)

    def test_scan_builds_no_report(self, spectrum7, monkeypatch):
        """The scan returns the curve and the winning schedule; the caller
        builds the winner's report, which matches the scan's fidelity."""
        reports = []
        original = gt.gate_report

        def counting(*args, **kwargs):
            reports.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(gt, "gate_report", counting)
        monkeypatch.setattr(op, "gate_report", counting, raising=False)
        problem = op.OptimizationProblem(pair=(0, 1), tau=50e-6,
                                         mu_grid=small_grid())
        result = op.detuning_scan(spectrum7, problem)
        assert reports == []
        report = original(result.best_schedule, spectrum7, (0, 1))
        assert report.fidelity == result.best_fidelity
        assert report.response_normalized is not None
        assert report.response_normalized.size == spectrum7.mode_count

    def test_more_segments_no_worse_on_grid(self, spectrum7):
        # 10 piecewise-constant segments can represent every 5-segment
        # drive on the same boundaries, so the scanned best cannot drop
        grid = small_grid(11)
        best = {}
        for m in (5, 10):
            problem = op.OptimizationProblem(pair=(0, 1), tau=50e-6,
                                             segment_count=m, mu_grid=grid)
            best[m] = op.detuning_scan(spectrum7, problem).best_fidelity
        assert best[10] >= best[5] - 1e-6


def spectrum19():
    config = cr.TrapConfig(ion_count=19, omega_r=TWO_PI * 0.2e6,
                           omega_z=WZ, temperature_nbar=0.1)
    return md.axial_spectrum(cr.solve_equilibrium(config))


class TestOneCodePath:
    def test_scan_point_equals_one_point_solve(self, monkeypatch):
        # the scan solves its whole grid in lockstep; a one-point call
        # solves the grid [mu], and both must agree bitwise; the reports
        # below check phase and fidelity, so their response takes 2 samples
        monkeypatch.setattr(gt, "RESPONSE_SAMPLES", 2)
        spectrum = spectrum19()
        pair = (0, 15)
        grid = op.default_mu_grid(WZ)
        result = op.detuning_scan(spectrum, op.OptimizationProblem(
            pair=pair, tau=50e-6, segment_count=5, mu_grid=grid))
        amplitudes, fidelities, _, status = op._solve_grid(op._grid_forms(
            spectrum, [pair], np.linspace(0.0, 50e-6, 6), grid, None, None))
        assert np.array_equal(fidelities, result.fidelities)
        solved = 0
        for i, mu in enumerate(grid):
            try:
                sched, fid = op.solve_amplitudes(spectrum, one_point(pair, mu))
            except IndefiniteKernel:
                assert status[i] in ("no-phase", "over-bound")
                assert result.fidelities[i] == 0.0
                continue
            solved += 1
            assert status[i] == "ok"
            assert np.array_equal(sched.amplitudes, amplitudes[i])
            assert sched.mu == grid[i]
            assert fid == result.fidelities[i]
            assert sched.max_amplitude == result.max_amplitudes[i]
            # the report of a point's own schedule is scored as the scan
            # scores it, bit for bit
            report = gt.gate_report(sched, spectrum, pair)
            assert report.fidelity == fid
        assert solved == np.count_nonzero(result.fidelities)
        best = result.best_index
        assert result.best_schedule.mu == grid[best]
        best_sched, _ = op.solve_amplitudes(spectrum,
                                            one_point(pair, grid[best]))
        assert np.array_equal(result.best_schedule.amplitudes,
                              best_sched.amplitudes)


class TestLockstep:
    def test_each_point_equals_its_own_solve(self, monkeypatch):
        # one grid on which points stop after different step counts, a
        # binding amplitude bound fails some points and cuts the ascent of
        # others short, and one forged point cannot factor its residual
        # form; each point must equal its own one-point solve, or hold
        # fidelity 0 where that solve raises; the reports below check phase
        # and fidelity, so their response takes 2 samples
        monkeypatch.setattr(gt, "RESPONSE_SAMPLES", 2)
        spectrum = spectrum19()
        pair = (0, 15)
        times = np.linspace(0.0, 50e-6, 6)
        grid = op.default_mu_grid(WZ)[::10]
        free_amps, _, free_steps, _ = op._solve_grid(op._grid_forms(
            spectrum, [pair], times, grid, None, None))
        bound = float(np.median(np.abs(free_amps).max(axis=1)))
        forms = op._grid_forms(spectrum, [pair], times, grid, None, bound)
        # one tiny entry in each residual form: the ridge underflows to
        # zero, so the reweighted form is singular
        forged_point = 3
        A = forms.A.copy()
        A[forged_point] = 0.0
        A[forged_point, :, 0, 0] = 1e-320
        forged = replace(forms, A=A)
        amplitudes, fidelities, steps, status = op._solve_grid(forged)

        assert status[forged_point] == "linalg"
        assert len(set(free_steps)) > 2
        assert "over-bound" in status
        solved = np.flatnonzero(status == "ok")
        assert any(not np.array_equal(amplitudes[i], free_amps[i])
                   for i in solved)
        for i, mu in enumerate(grid):
            point = np.array([i])
            one = op._solve_grid(replace(forged.take(point),
                                         S=forged.S[point]))
            assert status[i] == one[3][0]
            if status[i] == "ok":
                assert np.array_equal(amplitudes[i], one[0][0])
                assert fidelities[i] == one[1][0]
                assert steps[i] == one[2][0]
            else:
                assert fidelities[i] == 0.0
                assert not amplitudes[i].any()
            if i == forged_point:
                continue
            try:
                sched, fid = op.solve_amplitudes(spectrum, one_point(
                    pair, mu, amplitude_bound=bound))
            except IndefiniteKernel as exc:
                assert "amplitude bound" in str(exc)
                assert status[i] == "over-bound"
                continue
            assert np.array_equal(sched.amplitudes, amplitudes[i])
            assert fid == fidelities[i]
            # the report of the point's own schedule: the scan's phase and
            # fidelity, bit for bit
            report = gt.gate_report(sched, spectrum, pair)
            assert report.phi == op._phase(forged.G[[i]], amplitudes[[i]])[0]
            assert report.fidelity == fidelities[i]

    # 31 points fit in one block of the kernels and residual forms; 76
    # span three
    @pytest.mark.parametrize("stride", [10, 4], ids=["one-block",
                                                     "three-blocks"])
    def test_stacked_pairs_equal_their_own_solves(self, stride):
        # two pairs stacked pair-major share one S; the second carries the
        # forged point and the binding bound fails and cuts short points
        # of both.  Each pair's block of forms and of results must equal
        # that pair's own one-pair build and solve, bit for bit.
        spectrum = spectrum19()
        pairs = [(0, 15), (3, 11)]
        times = np.linspace(0.0, 50e-6, 6)
        grid = op.default_mu_grid(WZ)[::stride]
        m = grid.size
        free_amps = op._solve_grid(op._grid_forms(
            spectrum, pairs, times, grid, None, None))[0]
        bound = float(np.median(np.abs(free_amps).max(axis=1)))
        forms = op._grid_forms(spectrum, pairs, times, grid, None, bound)
        assert forms.G.shape[0] == forms.A.shape[0] == 2 * m
        assert forms.S.shape[0] == m and forms.drive.shape[0] == 2
        forged_point = 3

        def forge(forms, row):
            A = forms.A.copy()
            A[row] = 0.0
            A[row, :, 0, 0] = 1e-320
            return replace(forms, A=A)

        stacked = op._solve_grid(forge(forms, m + forged_point))
        assert stacked[3][m + forged_point] == "linalg"
        for j, pair in enumerate(pairs):
            one = op._grid_forms(spectrum, [pair], times, grid, None, bound)
            own = slice(j * m, (j + 1) * m)
            assert np.array_equal(one.S, forms.S)
            assert np.array_equal(one.G, forms.G[own])
            assert np.array_equal(one.A, forms.A[own])
            assert np.array_equal(one.drive, forms.drive[[j]])
            if j == 1:
                one = forge(one, forged_point)
            alone = op._solve_grid(one)
            assert "over-bound" in alone[3]
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[own], want)

    def test_ascent_never_below_seed(self):
        # the minorize-maximize ascent is monotone at every grid point
        spectrum = spectrum19()
        forms = op._grid_forms(
            spectrum, [(0, 15)], np.linspace(0.0, 50e-6, 6),
            op.default_mu_grid(WZ), 0.1, None)
        found, _, seed_fid, seed, _ = op._extremal(
            forms, np.broadcast_to(op._BRANCH_COEFFS, (len(forms.G), 4)))
        assert found.all()
        _, fid, steps, broken = ascend(forms, seed)
        assert not broken.any()
        assert np.all(fid >= seed_fid)
        assert np.all(fid[steps > 0] > seed_fid[steps > 0])

    def test_ascent_carries_on_from_step_0(self, monkeypatch):
        # step 0's fidelities and overlap exponents are handed to the
        # ascent, so each _extremal call scores its two candidate
        # directions and nothing scores a drive again; the ascent leaves
        # the arrays it is handed as they were
        forms = op._grid_forms(spectrum19(), [(0, 15)],
                               np.linspace(0.0, 50e-6, 6),
                               op.default_mu_grid(WZ)[::10], None, None)
        calls = {"_locked": 0, "_extremal": 0}
        for name in calls:
            def counted(*args, _real=getattr(op, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(op, name, counted)
        op._solve_grid(forms)
        assert calls["_extremal"] > 2
        assert calls["_locked"] == 2 * calls["_extremal"]
        found, _, fid, vec, gamma = op._extremal(
            forms, np.broadcast_to(op._BRANCH_COEFFS, (len(forms.G), 4)))
        handed = [a.copy() for a in (vec, fid, gamma)]
        op._ascend(forms, np.flatnonzero(found), vec, fid, gamma)
        for a, b in zip((vec, fid, gamma), handed):
            assert np.array_equal(a, b)


class TestTinyOverlaps:
    """Overlap factors c_i exp(-gamma_i) that are tiny but not 0: their row
    is rescaled by a power of 4 before its pencil is reduced, so nothing
    overflows, and every other row keeps its bits."""

    MU = WZ + TWO_PI * 40e3

    def forged(self, spectrum):
        """(forms, seed) of one row whose every direction has all four
        overlap exponents at 720 or more, so exp(-gamma) is subnormal:
        the residual forms a I with a = 720 max|eig G| / (pi / 4)."""
        forms = op._grid_forms(spectrum, [(0, 1)], np.linspace(0, 50e-6, 6),
                               [self.MU], None, None)
        p = forms.G.shape[-1]
        top = np.abs(np.linalg.eigvalsh(forms.G[0])).max()
        a = 720.0 * top / op.PHASE_TARGET
        forms = replace(forms, A=np.broadcast_to(a * np.eye(p),
                                                 (1, 4, p, p)).copy())
        return forms, op._extremal(forms, op._BRANCH_COEFFS[None, :])[3]

    def test_subnormal_row_stops_at_a_quarter(self, spectrum7):
        forms, seed = self.forged(spectrum7)
        fid, _, gamma = op._locked(forms, seed)
        weights = op._BRANCH_COEFFS * np.exp(-gamma)
        assert 0.0 < weights.max() < np.finfo(float).tiny
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vec, out_fid, steps, broken = ascend(forms, seed)
        assert out_fid[0] == fid[0] == 0.25
        assert steps[0] == 0 and not broken[0]
        assert np.array_equal(vec, seed)

    def test_stacked_rows_keep_their_bits(self, spectrum7):
        # the forged row amid a 5-point grid's rows, each ascent step's
        # weights at its seed: every other row equals its call alone
        forged, forged_seed = self.forged(spectrum7)
        grid = op._grid_forms(spectrum7, [(0, 1)], np.linspace(0, 50e-6, 6),
                              small_grid(5), None, None)
        seeds = op._extremal(grid, np.broadcast_to(op._BRANCH_COEFFS,
                                                   (5, 4)))[3]
        order = [0, 1, -1, 2, 3, 4]
        stack = replace(grid, S=None,
                        G=np.concatenate([grid.G, forged.G])[order],
                        A=np.concatenate([grid.A, forged.A])[order])
        vecs = np.concatenate([seeds, forged_seed])[order]
        coeffs = op._BRANCH_COEFFS * np.exp(-op._locked(stack, vecs)[2])
        assert coeffs[2].max() < np.finfo(float).tiny
        assert coeffs[np.arange(6) != 2].min() > 2.0 ** -900
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            stacked = op._extremal(stack, coeffs)
            for row in (0, 1, 3, 4, 5):
                alone = op._extremal(stack.take([row]), coeffs[[row]])
                for got, want in zip(stacked, alone):
                    assert np.array_equal(got[row], want[0])
        found, broken, fid, vec, _ = stacked
        assert found[2] and not broken[2] and fid[2] == 0.25
        assert np.isfinite(vec[2]).all()

    def test_paper_table_pair_at_3001_points(self, spectrum127):
        # the 127-ion crystal's pair (0, 118) at 0.2 MHz on a 10x finer
        # default window: some rows ascend into overlap factors near 1e-309,
        # which overflowed L^-1 G L^-T with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = op.detuning_scan(spectrum127, PAPER_PAIR_3001)
        assert result.feasible and result.best_fidelity > 0.98
        assert np.isfinite(result.fidelities).all()


class TestScanMemory:
    def test_scan_holds_S_and_one_block(self, spectrum127):
        # a scan holds its first-order integrals S (M, P, K) for the final
        # score and one block of every other array with a mode axis; with
        # whole-grid tables, patches and scoring it peaked at 99.6 MB, S
        # alone being 30.5 MB
        problem = PAPER_PAIR_3001
        op.detuning_scan(spectrum127, replace(
            problem, mu_grid=problem.mu_grid[:5]))  # warm: imports, caches
        tracemalloc.start()
        try:
            result = op.detuning_scan(spectrum127, problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.feasible
        s_bytes = problem.mu_grid.size * problem.segment_count * 127 * 16
        assert peak < s_bytes + 16e6, (
            "the scan peaked at %.1f MB, S is %.1f MB"
            % (peak / 1e6, s_bytes / 1e6))

    def test_solve_holds_one_copy_of_its_forms(self):
        # step 0 hands the ascent its rows and scores, each step copies
        # only its active rows of the held forms and the score runs in
        # blocks: on 3 pairs x 301 points this reads 2.7 (G + A) above the
        # held forms, and a copy of the ok rows held for the whole ascent
        # read 3.7
        crystal = cr.solve_equilibrium(cr.TrapConfig(
            19, omega_r=TWO_PI * 1e6, omega_z=WZ, temperature_nbar=0.1))
        forms = op._grid_forms(
            md.axial_spectrum(crystal), op.default_pair_list(crystal, 3),
            np.linspace(0.0, 50e-6, 6), op.default_mu_grid(WZ), None, None)
        op._solve_grid(forms)  # warm: imports, caches
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            op._solve_grid(forms)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        held = forms.G.nbytes + forms.A.nbytes
        assert peak <= 3 * held, (
            "the solve peaked at %.2f (G + A) above its forms"
            % (peak / held))


class TestBlockedGrid:
    def test_block_edges_equal_one_point_builds(self):
        # a grid longer than two kernel blocks with its hard entries on
        # the block edges: an exact resonance, |mu - omega| h just below
        # and just above the series threshold, and a tiny mu on a tiny
        # mode, where the omega + mu triangle half is a series as well
        block, threshold, h = gt._BLOCK, gt._SERIES_THRESHOLD, 10e-6
        times = np.linspace(0.0, 5 * h, 6)
        freqs = np.array([WZ, WZ - TWO_PI * 20e3, WZ - TWO_PI * 45e3, 50.0])
        modes = np.linalg.qr(np.random.default_rng(22).normal(
            size=(4, 4)))[0]
        spectrum = md.AxialSpectrum(
            frequencies=freqs, modes=modes,
            config=cr.TrapConfig(4, omega_r=TWO_PI * 1e6, omega_z=WZ))
        grid = np.linspace(WZ - TWO_PI * 0.1e6, WZ + TWO_PI * 0.1e6,
                           2 * block + 8)
        edge = threshold / h
        grid[block - 1] = freqs[1]
        grid[block] = freqs[1] + edge * (1 - 1e-6)
        grid[2 * block - 1] = freqs[2] - edge * (1 + 1e-6)
        grid[2 * block] = freqs[3]
        ratio = np.abs(np.subtract.outer(grid, freqs)) * h / threshold
        assert np.any(ratio == 0.0)
        assert np.any((ratio < 1.0) & (ratio > 0.99))
        assert np.any((ratio > 1.0) & (ratio < 1.01))
        assert np.any(np.add.outer(grid, freqs) * h < threshold)
        forms = op._grid_forms(spectrum, [(0, 2)], times, grid, None, None)
        assert all(np.isfinite(v).all() for v in (forms.S, forms.G, forms.A))
        for i, mu in enumerate(grid):
            one = op._grid_forms(spectrum, [(0, 2)], times, [mu], None, None)
            assert np.array_equal(forms.S[i], one.S[0])
            assert np.array_equal(forms.G[i], one.G[0])
            assert np.array_equal(forms.A[i], one.A[0])

    def test_scoring_blocks_equal_one_point_solves(self):
        # two pairs on a grid of 2 _BLOCK + 5 points: each pair's rows are
        # scored in blocks of _BLOCK, and a binding bound fails some points,
        # so the blocks hold the solved rows around the failed ones; every
        # row must equal its own pair's one-point solve
        spectrum = spectrum19()
        pairs = [(0, 15), (3, 11)]
        times = np.linspace(0.0, 50e-6, 6)
        grid = op.default_mu_grid(WZ, 2 * gt._BLOCK + 5)
        free_amps = op._solve_grid(op._grid_forms(
            spectrum, pairs, times, grid, None, None))[0]
        bound = float(np.median(np.abs(free_amps).max(axis=1)))
        amplitudes, fidelities, steps, status = op._solve_grid(
            op._grid_forms(spectrum, pairs, times, grid, None, bound))
        assert "over-bound" in status
        for j, pair in enumerate(pairs):
            own = status[j * grid.size:(j + 1) * grid.size]
            assert np.count_nonzero(own == "ok") > gt._BLOCK
            for i, mu in enumerate(grid):
                row = j * grid.size + i
                one = op._solve_grid(op._grid_forms(
                    spectrum, [pair], times, [mu], None, bound))
                assert status[row] == one[3][0]
                assert np.array_equal(amplitudes[row], one[0][0])
                assert fidelities[row] == one[1][0]
                assert steps[row] == one[2][0]


class TestResidualForms:
    """The ascent reads the four P x P residual forms A_i built once per
    grid, never the first-order integrals S."""

    def grid_forms(self):
        return op._grid_forms(spectrum19(), [(0, 15)],
                              np.linspace(0.0, 50e-6, 6),
                              op.default_mu_grid(WZ), None, None)

    def seed(self, forms):
        return op._extremal(
            forms, np.broadcast_to(op._BRANCH_COEFFS, (len(forms.G), 4)))[3]

    def test_forms_equal_the_per_step_algebra_on_S(self):
        # reference: the per-step algebra the forms replace, at the seed
        # and at the ascended drive of every grid point.  vec^T A_i vec
        # cancels where the residual is small, so gamma is compared with
        # the size the sum would have without cancellation,
        # scale^2 sum_k w_ik (|S| |v|)_k^2; B with its largest entry.
        forms = self.grid_forms()
        cl, cn = forms.drive[0]
        weights = 2.0 * (2.0 * forms.nbar + 1.0) * np.array(
            [cl ** 2, cn ** 2, (cl + cn) ** 2, (cl - cn) ** 2])
        seed = self.seed(forms)
        for vec in (seed, ascend(forms, seed)[0]):
            _, _, gamma = op._locked(forms, vec)
            phase = np.einsum("mp,mpq,mq->m", vec, forms.G, vec)
            scale2 = (np.pi / 4 / np.abs(phase))[:, None]
            disp = np.einsum("mpk,mp->mk", forms.S, vec)
            want = scale2 * (np.abs(disp) ** 2 @ weights.T)
            size = scale2 * (np.einsum("mpk,mp->mk", np.abs(forms.S),
                                       np.abs(vec)) ** 2 @ weights.T)
            assert np.all(np.abs(gamma - want) <= 1e-12 * size)

            coeffs = op._BRANCH_COEFFS * np.exp(-gamma)
            d = coeffs @ weights
            want_B = np.real(np.einsum("mpk,mk,mqk->mpq", np.conj(forms.S),
                                       d, forms.S))
            B = np.einsum("mi,mipq->mpq", coeffs, forms.A)
            assert np.all(np.abs(B - want_B).max(axis=(1, 2))
                          <= 1e-12 * np.abs(want_B).max(axis=(1, 2)))

    def test_ascent_never_reads_S(self):
        # without S, the couplings and nbar the ascent returns the same
        # vectors, fidelities, steps and broken flags, bit for bit
        forms = self.grid_forms()
        seed = self.seed(forms)
        bare = replace(forms, S=None, drive=None, nbar=None)
        want = ascend(forms, seed)
        assert want[2].any()
        for got, expected in zip(ascend(bare, seed), want):
            assert np.array_equal(got, expected)


class TestStationarity:
    def test_scan_points_are_stationary(self):
        # at every grid point the returned drive is a stationary point of
        # the locked fidelity: its central-difference gradient, projected
        # off the scale direction it is invariant along, vanishes
        spectrum = spectrum19()
        pair = (0, 15)
        times = np.linspace(0.0, 50e-6, 6)
        h = 1e-6
        worst = 0.0
        for mu in op.default_mu_grid(WZ):
            sched, _ = op.solve_amplitudes(spectrum, one_point(pair, mu))
            forms = op._grid_forms(spectrum, [pair], times, [mu], 0.1, None)
            vec = sched.amplitudes / np.linalg.norm(sched.amplitudes)
            shifts = h * np.eye(vec.size)
            grad = (op._locked(forms, vec + shifts)[0]
                    - op._locked(forms, vec - shifts)[0]) / (2 * h)
            grad -= (grad @ vec) * vec
            worst = max(worst, float(np.linalg.norm(grad)))
        assert worst < 1e-4


def synthetic_result(fidelities, mu_lo=1.0, mu_hi=2.0):
    fid = np.asarray(fidelities, dtype=float)
    grid = np.linspace(mu_lo, mu_hi, fid.size)
    best = int(np.argmax(fid))
    return op.OptimizationResult(
        pair=(0, 1), tau=1.0, segment_count=1, mu_grid=grid,
        fidelities=fid, max_amplitudes=np.zeros(fid.size), best_index=best,
        best_schedule=None)


class TestSelectors:
    def test_zero_fidelity_points_ignored(self, monkeypatch):
        # a failed point (fidelity 0) is never a local maximum, even where
        # nothing within the window exceeds it
        monkeypatch.setattr(op, "_EDGE_WINDOW", 1)
        res = synthetic_result([0.0, 0.0, 0.5, 0.1, 0.0])
        assert op.band_edge_optimum(res, 0.0) == 2

    def test_band_edge_first_maximum_above(self, monkeypatch):
        monkeypatch.setattr(op, "_EDGE_WINDOW", 1)
        res = synthetic_result([0.9, 0.2, 0.5, 0.3, 0.8, 0.1])
        grid = res.mu_grid
        # window-1 peaks at 0, 2, 4; only those above the cut count
        assert op.band_edge_optimum(res, grid[1]) == 2
        assert op.band_edge_optimum(res, grid[3]) == 4

    def test_band_edge_falls_back_when_band_covers_grid(self):
        res = synthetic_result([0.9, 0.2, 0.5])
        assert op.band_edge_optimum(res, 10.0) == res.best_index

    def test_plateau_counts_once_per_point(self):
        # equal neighbours both qualify; first-above picks the lower mu
        res = synthetic_result([0.1, 0.5, 0.5, 0.1])
        assert op.band_edge_optimum(res, 0.0) == 1

    def test_band_edge_on_descending_grid(self, monkeypatch):
        # the pick is the smallest detuning above the band, not the first
        # index: on a descending grid that is the last local maximum
        monkeypatch.setattr(op, "_EDGE_WINDOW", 1)
        res = synthetic_result([0.1, 0.6, 0.2, 0.7, 0.1], mu_lo=2.0,
                               mu_hi=1.0)
        assert op.band_edge_optimum(res, 0.0) == 3


class TestDefaultPairList:
    def test_structure(self):
        # a 19-ion crystal has only a few distinct centre distances (the
        # shells are highly symmetric), so ask for three pairs
        config = cr.TrapConfig(ion_count=19, omega_r=TWO_PI * 0.2e6,
                               omega_z=WZ)
        crystal = cr.solve_equilibrium(config)
        pairs = op.default_pair_list(crystal, count=3)
        assert len(pairs) == 3
        u = crystal.positions
        anchor = pairs[0][0] if pairs[0][0] == pairs[1][0] else pairs[0][1]
        radii = np.hypot(u[:, 0], u[:, 1])
        assert radii[anchor] == pytest.approx(radii.min())
        seps = []
        for l, n in pairs:
            assert anchor in (l, n)
            other = n if l == anchor else l
            seps.append(np.hypot(*(u[other] - u[anchor])))
        assert all(b > a for a, b in zip(seps, seps[1:]))

    def test_too_small_crystal_raises(self):
        config = cr.TrapConfig(ion_count=3, omega_r=TWO_PI * 0.2e6,
                               omega_z=WZ)
        crystal = cr.solve_equilibrium(config)
        with pytest.raises(InsufficientPoints):
            op.default_pair_list(crystal, count=10)

    def test_tied_separations_exhaust(self):
        # all six hexagon ions are equidistant from the centre, so a
        # 7-ion crystal cannot supply two strictly increasing separations
        config = cr.TrapConfig(ion_count=7, omega_r=TWO_PI * 0.2e6,
                               omega_z=WZ)
        crystal = cr.solve_equilibrium(config)
        with pytest.raises(InsufficientPoints):
            op.default_pair_list(crystal, count=3)


class TestSerialization:
    def test_scan_round_trip(self, spectrum7, tmp_path):
        problem = op.OptimizationProblem(pair=(0, 1), tau=50e-6,
                                         mu_grid=small_grid(9))
        result = op.detuning_scan(spectrum7, problem)
        path = tmp_path / "scan.tsv"
        op.write_scan(result, path)
        meta, rows = read_rows(path)
        assert meta["pair"] == "%d,%d" % result.pair
        assert float(meta["tau_s"]) == pytest.approx(result.tau, rel=1e-15)
        assert int(meta["segment_count"]) == result.segment_count
        assert int(meta["grid_points"]) == len(rows) == result.mu_grid.size
        assert int(meta["best_index"]) == result.best_index >= 0
        assert float(meta["best_mu_hz"]) * TWO_PI == pytest.approx(
            result.best_mu, rel=1e-15)
        assert float(meta["best_fidelity"]) == pytest.approx(
            result.best_fidelity, rel=1e-15)
        mu_hz, fid, amp_hz = np.array(
            [[float(v) for v in row] for row in rows]).T
        # the best index is the curve's first maximum
        assert np.argmax(fid) == result.best_index
        assert fid[result.best_index] == float(meta["best_fidelity"])
        assert fid.tobytes() == result.fidelities.tobytes()
        # 17 significant digits in the file; the Hz columns add one
        # Hz/angular round trip
        np.testing.assert_allclose(mu_hz * TWO_PI, result.mu_grid,
                                   rtol=1e-12)
        np.testing.assert_allclose(fid, result.fidelities, rtol=1e-12)
        np.testing.assert_allclose(amp_hz * TWO_PI, result.max_amplitudes,
                                   rtol=1e-12)

    def test_table_round_trip(self, tmp_path):
        rows = [op.TableRow(rank=1, pair=(0, 5), separation_m=1.9e-5,
                            omega_r=TWO_PI * 0.2e6, mu_opt=WZ * 1.0034,
                            fidelity=0.9987, max_amplitude=TWO_PI * 0.1e6),
                op.TableRow(rank=2, pair=(0, 16), separation_m=3.4e-5,
                            omega_r=TWO_PI * 0.2e6, mu_opt=WZ * 1.0084,
                            fidelity=0.9894, max_amplitude=TWO_PI * 0.3e6)]
        path = tmp_path / "table.tsv"
        op.write_table(rows, path)
        meta, back = read_rows(path)
        assert int(meta["row_count"]) == len(back) == 2
        for f, b in zip(back, rows):
            assert int(f[0]) == b.rank
            assert (int(f[1]), int(f[2])) == b.pair
            assert float(f[3]) == pytest.approx(b.separation_m, rel=1e-15)
            assert float(f[4]) * TWO_PI == pytest.approx(b.omega_r, rel=1e-15)
            assert float(f[5]) * TWO_PI == pytest.approx(b.mu_opt, rel=1e-15)
            assert float(f[6]) == pytest.approx(b.fidelity, rel=1e-15)
            assert float(f[7]) * TWO_PI == pytest.approx(b.max_amplitude,
                                                         rel=1e-15)


class TestTableOne:
    def test_small_benchmark_rows(self):
        grid = np.linspace(WZ + TWO_PI * 20e3, WZ + TWO_PI * 60e3, 5)
        crystal = cr.solve_equilibrium(cr.TrapConfig(
            19, omega_r=TWO_PI * 1.0e6, omega_z=WZ, temperature_nbar=0.1))
        problem = op.OptimizationProblem(pair=(0, 1), tau=50e-6,
                                         segment_count=5, mu_grid=grid)
        rows = op.table_one(crystal, problem,
                            op.default_pair_list(crystal, 3),
                            (TWO_PI * 0.2e6,))
        assert len(rows) == 3
        assert [r.rank for r in rows] == [1, 2, 3]
        seps = [r.separation_m for r in rows]
        assert all(b > a for a, b in zip(seps, seps[1:]))
        for r in rows:
            assert 0.0 <= r.fidelity <= 1.0
            assert r.max_amplitude > 0.0
            assert grid[0] <= r.mu_opt <= grid[-1]

    @pytest.mark.parametrize("bound_hz", [None, 100e3],
                             ids=["unbounded", "bound"])
    def test_rows_equal_their_own_scans(self, bound_hz):
        # a trap's pairs are solved in lockstep; each row must be == to
        # the row its own detuning scan gives, infeasible rows included
        crystal = cr.solve_equilibrium(cr.TrapConfig(
            19, omega_r=TWO_PI * 1.0e6, omega_z=WZ, temperature_nbar=0.3))
        problem = op.OptimizationProblem(
            pair=(0, 1), tau=50e-6, segment_count=5,
            mu_grid=op.default_mu_grid(WZ, 11, 0.0, 0.1e6),
            amplitude_bound=None if bound_hz is None else TWO_PI * bound_hz)
        pairs = op.default_pair_list(crystal, 3)
        traps = (TWO_PI * 0.2e6, TWO_PI * 1.0e6)
        rows = op.table_one(crystal, problem, pairs, traps)
        want = []
        for omega_r in traps:
            dressed = cr.with_trap(crystal, replace(crystal.config,
                                                    omega_r=omega_r))
            spectrum = md.axial_spectrum(dressed)
            coords = dressed.positions * dressed.length_scale_ell
            for rank, pair in enumerate(pairs, start=1):
                scan = op.detuning_scan(spectrum, replace(problem, pair=pair))
                want.append(op.TableRow(
                    rank=rank, pair=pair,
                    separation_m=float(np.hypot(*(coords[pair[0]]
                                                  - coords[pair[1]]))),
                    omega_r=omega_r,
                    mu_opt=scan.best_mu if scan.feasible else 0.0,
                    fidelity=scan.best_fidelity,
                    max_amplitude=(scan.best_schedule.max_amplitude
                                   if scan.feasible else 0.0)))
        assert rows == want
        infeasible = [(r.rank, r.omega_r) for r in rows if r.fidelity == 0.0]
        if bound_hz is None:
            assert infeasible == []
        else:
            # rows 2 and 3 at 0.2 MHz have no feasible point
            assert infeasible == [(2, traps[0]), (3, traps[0])]
            assert all(r.mu_opt == 0.0 == r.max_amplitude for r in rows
                       if r.fidelity == 0.0)

    def test_pairs_checked_before_any_kernel(self, no_kernels):
        # a bad pair anywhere in the list stops the table before any
        # kernel of any pair is built
        crystal = cr.solve_equilibrium(cr.TrapConfig(
            7, omega_r=TWO_PI * 0.2e6, omega_z=WZ))
        problem = op.OptimizationProblem(pair=(0, 1), tau=50e-6,
                                         mu_grid=small_grid(5))
        with pytest.raises(ValueError, match="pair needs two distinct"):
            op.table_one(crystal, problem, [(0, 1), (0, 2), (0, 7)],
                         (TWO_PI * 0.2e6,))


class TestOccupationRule:
    """``crystal.check_nbar`` is the one rule for nbar (one number, >= 0,
    with a finite thermal weight), and every entry point asks it before any
    kernel is built or any Magnus step taken: a per-mode list is refused
    even when its length is the mode count."""

    @pytest.fixture(scope="class")
    def spectrum3(self):
        config = cr.TrapConfig(3, omega_r=TWO_PI * 1e6, omega_z=TWO_PI * 5e6)
        return md.axial_spectrum(cr.solve_equilibrium(config))

    @pytest.fixture(scope="class")
    def schedule3(self, spectrum3):
        return gt.PulseSchedule.uniform(
            0.4e-6, TWO_PI * 0.25e6 * np.array([1.0, -1.0, 0.5]),
            spectrum3.frequencies[0])

    @pytest.fixture(scope="class")
    def state3(self, spectrum3, schedule3):
        return orc.evolve(schedule3, spectrum3, (0, 2), nbar=0.0)

    @pytest.mark.parametrize("nbar", [-0.1, np.nan, np.inf, 1e308,
                                      [0.1, 0.2], [0.1, 0.1, 0.1]],
                             ids=["negative", "nan", "inf", "overflow",
                                  "wrong-length", "per-mode"])
    @pytest.mark.parametrize("entry", [
        "TrapConfig", "detuning_scan", "solve_amplitudes", "thermal_fidelity",
        "gate_fidelity", "evolve", "fidelity_from_state"])
    def test_bad_nbar_refused(self, spectrum3, schedule3, state3, no_kernels,
                              monkeypatch, entry, nbar):
        def refuse(*args):
            raise AssertionError("Magnus step taken for a bad nbar")

        monkeypatch.setattr(orc, "_magnus_step", refuse)
        problem = op.OptimizationProblem(
            pair=(0, 2), tau=0.4e-6, segment_count=3,
            mu_grid=[spectrum3.config.omega_z + TWO_PI * 40e3], nbar=nbar)
        zeros = np.zeros(spectrum3.mode_count, dtype=complex)
        calls = {
            "TrapConfig": lambda: replace(spectrum3.config,
                                          temperature_nbar=nbar),
            "detuning_scan": lambda: op.detuning_scan(spectrum3, problem),
            "solve_amplitudes": lambda: op.solve_amplitudes(spectrum3,
                                                            problem),
            "thermal_fidelity": lambda: gt.thermal_fidelity(
                0.5, zeros, zeros, nbar),
            "gate_fidelity": lambda: gt.gate_fidelity(0.5, zeros, zeros,
                                                      nbar),
            "evolve": lambda: orc.evolve(schedule3, spectrum3, (0, 2),
                                         nbar=nbar),
            "fidelity_from_state": lambda: orc.fidelity_from_state(
                state3, nbar=nbar),
        }
        with pytest.raises(NegativeOccupation, match="^nbar must be") as err:
            calls[entry]()
        assert isinstance(err.value, ValueError)

    def test_state_and_forms_hold_one_float(self, spectrum3, state3):
        # what passes the rule is kept as one float, never a mode array
        assert type(state3.nbar) is float
        forms = op._grid_forms(
            spectrum3, [(0, 2)], np.linspace(0.0, 0.4e-6, 4),
            [spectrum3.config.omega_z + TWO_PI * 40e3], np.float64(0.2), None)
        assert type(forms.nbar) is float and forms.nbar == 0.2
