"""Segment-amplitude design for conditional phase-flip gates.

For a fixed detuning mu the conditional phase is a quadratic form
Omega^T G Omega in the segment amplitudes.  With |phase| locked on pi/4
the fidelity is 1/4 (1 + sum_i c_i exp(-gamma_i)), c = (1, 1, 1/2, 1/2),
gamma_i = (pi/4) Omega^T A_i Omega / |Omega^T G Omega| for thermally
weighted residual-displacement forms A_i.  As exp(-x) lies above its
tangent, weighting the A_i by c_i exp(-gamma_i) at the current drive gives
a lower bound of the fidelity touching it there, maximized by an extremal
generalized eigenvector of G against the reweighted form (a
minorize-maximize step, so the fidelity never drops).  With all gamma_i = 0
that form is the plain residual cost, so the seed is step 0.  A detuning
scan builds the segment kernels once for its whole grid of mu, repeats the
solve at every point with that point's slice and keeps the best point;
failed points (no positive-phase direction at that mu) are recorded with
fidelity zero rather than aborting the scan.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .crystal import with_trap
from .errors import IndefiniteKernel, InsufficientPoints
from .gate import (PulseSchedule, _pair_kernels, drive_couplings,
                   gate_fidelity, TWO_PI)
from .modes import axial_spectrum
from ._textio import fmt, read_rows, write_rows

PHASE_TARGET = np.pi / 4.0

# weights c_i of the four overlap factors in the locked fidelity
_BRANCH_COEFFS = np.array([1.0, 1.0, 0.5, 0.5])
# the ascent stops on a smaller fidelity gain or after this many steps
_FTOL = 1e-13
_MAX_STEPS = 100
# eigenvalue-problem regularizer, relative to the mean diagonal of the
# residual form
_RIDGE = 1e-12


@dataclass(frozen=True)
class OptimizationProblem:
    """One gate-design task: which pair, how long, how many segments.

    ``mu_grid`` (rad/s) defaults to 301 points spanning
    [omega_z - 2 pi 0.1 MHz, omega_z + 2 pi 0.2 MHz].  ``nbar`` defaults to
    the trap config occupation.  ``amplitude_bound`` (rad/s) optionally
    caps max_p |Omega_p|: the seed and every ascent step must respect it.
    """

    pair: tuple
    tau: float
    segment_count: int = 5
    mu_grid: np.ndarray = None
    nbar: object = None
    amplitude_bound: float = None

    def __post_init__(self):
        l, n = self.pair
        if int(l) == int(n):
            raise ValueError("pair must be two distinct ions")
        object.__setattr__(self, "pair", (int(l), int(n)))
        if not (self.tau > 0.0):
            raise ValueError("tau must be positive")
        if self.segment_count < 1:
            raise ValueError("need at least one segment")
        if self.mu_grid is not None:
            grid = np.asarray(self.mu_grid, dtype=float)
            if grid.ndim != 1 or grid.size == 0:
                raise ValueError("mu_grid must be a non-empty 1-d array")
            object.__setattr__(self, "mu_grid", grid)
        if self.amplitude_bound is not None and not (self.amplitude_bound > 0):
            raise ValueError("amplitude_bound must be positive")


@dataclass(frozen=True)
class OptimizationResult:
    """Scan curve plus the winning schedule.

    ``fidelities`` and ``max_amplitudes`` run parallel to ``mu_grid``;
    fidelity 0 with amplitude 0 marks a grid point where no positive-phase
    drive exists.  ``best_index`` is -1 (and ``best_schedule`` None) when
    every point failed; a scan read back from file carries no schedule.
    ``best_fidelity`` is the curve at ``best_index`` (0 when infeasible).
    """

    pair: tuple
    tau: float
    segment_count: int
    mu_grid: np.ndarray
    fidelities: np.ndarray
    max_amplitudes: np.ndarray
    best_index: int
    best_schedule: PulseSchedule

    @property
    def feasible(self):
        return self.best_index >= 0

    @property
    def best_fidelity(self):
        return (float(self.fidelities[self.best_index]) if self.feasible
                else 0.0)

    @property
    def best_mu(self):
        return float(self.mu_grid[self.best_index]) if self.feasible else None


def default_mu_grid(omega_z, points=301, below_hz=0.1e6, above_hz=0.2e6):
    """Detuning grid bracketing the axial band edge at omega_z."""
    return np.linspace(omega_z - TWO_PI * below_hz,
                       omega_z + TWO_PI * above_hz, points)


def _canonical_sign(vec):
    """Flip so the largest-magnitude component is positive (ties: first)."""
    idx = int(np.argmax(np.abs(vec)))
    return -vec if vec[idx] < 0.0 else vec


def _segment_times(tau, segments):
    """Boundaries of ``segments`` equal segments spanning [0, tau]."""
    return np.linspace(0.0, float(tau), int(segments) + 1)


def _grid_kernels(spectrum, pair, times, grid):
    """(couplings, S, G) for the pair at every detuning of ``grid``, built
    in one call; S and G carry the grid axis first."""
    couplings = drive_couplings(spectrum)
    S, G = _pair_kernels(times, np.asarray(grid, dtype=float),
                         spectrum.frequencies, couplings, pair)
    return couplings, S, G


class _PairObjective:
    """Closed-form fidelity of the phase-locked drive direction.

    Every trial vector is rescaled so the conditional phase magnitude hits
    the target exactly; both phase signs describe the same gate up to a
    local frame flip, so the rescale uses |phase|.  On the locked shell the
    inter-branch geometric terms cancel and the fidelity reduces to four
    thermally weighted Gaussian overlap factors of the residual
    displacements.  Scale-invariant in the trial vector.

    ``kernels`` = (couplings, S, G) at ``mu``, sliced from
    :func:`_grid_kernels` of a whole scan; without it the objective builds
    them through the same call on the one-point grid [mu].
    """

    def __init__(self, spectrum, pair, times, mu, nbar, amplitude_bound,
                 kernels=None):
        if kernels is None:
            couplings, S, G = _grid_kernels(spectrum, pair, times, [mu])
            kernels = couplings, S[0], G[0]
        self.couplings, self.S, self.G = kernels
        l, n = pair
        cl = self.couplings[l]
        cn = self.couplings[n]
        self.nbar = np.broadcast_to(np.asarray(nbar, dtype=float),
                                    spectrum.frequencies.shape)
        w = 2.0 * self.nbar + 1.0
        # rows: weights for |alpha_l|^2, |alpha_n|^2 and the two branch
        # combinations (c_l +/- c_n)^2; factor 2 from exp(-2 Gamma)
        self.branch_weights = 2.0 * w * np.array(
            [cl ** 2, cn ** 2, (cl + cn) ** 2, (cl - cn) ** 2])
        self.bound = amplitude_bound

    def phase(self, vec):
        return float(vec @ self.G @ vec)

    def scale_for_target(self, vec):
        """Positive factor putting |phase| on target, None if degenerate."""
        q = self.phase(vec)
        if q == 0.0 or not np.isfinite(q):
            return None
        return np.sqrt(PHASE_TARGET / abs(q))

    def exponents(self, vec, scale):
        """Overlap exponents gamma_i of ``vec`` rescaled by ``scale``."""
        return self.branch_weights @ (scale * scale
                                      * np.abs(self.S @ vec) ** 2)

    def residual_form(self, weights):
        """sum_i weights[i] A_i, the reweighted residual-cost form (PSD)."""
        return np.real(self.S.conj().T
                       * (weights @ self.branch_weights)[None, :] @ self.S)

    def fidelity(self, vec):
        """Fidelity after phase locking; -1 flags an infeasible direction."""
        s = self.scale_for_target(vec)
        if s is None:
            return -1.0
        if self.bound is not None and s * np.abs(vec).max() > self.bound:
            return -1.0
        return 0.25 * (1.0 + _BRANCH_COEFFS @ np.exp(-self.exponents(vec, s)))


def _extremal_direction(objective, weights):
    """Best extremal generalized eigenvector of (G, residual_form(weights)).

    Both phase signs are admissible; the higher locked fidelity wins, ties
    going to the smaller peak amplitude.  Returns (fidelity, sign-canonical
    vector), or None when the form is not finite with positive trace or no
    direction carries phase.
    """
    B = objective.residual_form(weights)
    trace = np.trace(B)
    if not (np.all(np.isfinite(B)) and trace > 0.0):
        return None
    ridge = _RIDGE * trace / B.shape[0]
    evals, evecs = scipy.linalg.eigh(objective.G,
                                     B + ridge * np.eye(B.shape[0]))
    candidates = []
    for idx in (-1, 0):  # most positive and most negative ratios
        vec = evecs[:, idx]
        scale = objective.scale_for_target(vec)
        if ((idx == -1 and evals[idx] > 0.0)
                or (idx == 0 and evals[idx] < 0.0)) and scale is not None:
            candidates.append((objective.fidelity(vec),
                               -scale * np.abs(vec).max(), idx, vec))
    if not candidates:
        return None
    fid, _, _, vec = max(candidates, key=lambda c: (c[0], c[1], c[2]))
    return fid, _canonical_sign(vec)


def _polish(objective, vec):
    """Reweighted generalized-eigenvector ascent from ``vec`` (see the
    module docstring); returns (vector, fidelity).

    Stops when a step does not raise the fidelity (one past the amplitude
    bound scores -1), gains less than _FTOL, or the reweighted form
    vanishes because every overlap factor underflowed; at most _MAX_STEPS
    steps.
    """
    fid = objective.fidelity(vec)
    for _ in range(_MAX_STEPS):
        gamma = objective.exponents(vec, objective.scale_for_target(vec))
        step = _extremal_direction(objective, _BRANCH_COEFFS * np.exp(-gamma))
        if step is None or not step[0] > fid:
            break
        gain = step[0] - fid
        fid, vec = step
        if gain < _FTOL:
            break
    return vec, fid


def solve_amplitudes(spectrum, pair, tau, segments, mu, nbar=None,
                     amplitude_bound=None, _kernels=None):
    """Best phase-locked segment amplitudes at a fixed detuning.

    The generalized-eigenvector seed, raised by the reweighted ascent of
    the module docstring and rescaled so |phase| is pi/4.  Returns
    (schedule, fidelity).  Raises IndefiniteKernel when no drive direction
    produces any conditional phase at this detuning (or none within the
    amplitude bound).  ``nbar`` defaults to the per-mode occupations of the
    trap config, and the fidelity is :func:`gate.gate_fidelity`, as in
    :func:`gate.gate_report`.  ``_kernels`` is the scan's private route:
    this detuning's slice of the grid kernels (see :class:`_PairObjective`).
    """
    if nbar is None:
        nbar = spectrum.config.nbar_per_mode(spectrum.mode_count)
    times = _segment_times(tau, segments)
    objective = _PairObjective(spectrum, pair, times, float(mu), nbar,
                               amplitude_bound, _kernels)
    # step 0: every overlap exponent taken as zero
    seed = _extremal_direction(objective, _BRANCH_COEFFS)
    if seed is None:
        raise IndefiniteKernel(
            "no entangling phase achievable at mu = %.6g rad/s" % mu)
    if seed[0] < 0.0:
        raise IndefiniteKernel(
            "no feasible drive within the amplitude bound at mu = %.6g rad/s"
            % mu)
    vec, _ = _polish(objective, seed[1])
    scale = objective.scale_for_target(vec)
    amplitudes = scale * vec
    schedule = PulseSchedule(times=times, amplitudes=amplitudes,
                             mu=float(mu), target_pair=pair)
    l, n = pair
    phi = objective.phase(amplitudes)
    alpha_l = 1j * objective.couplings[l] * (objective.S @ amplitudes)
    alpha_n = 1j * objective.couplings[n] * (objective.S @ amplitudes)
    return schedule, gate_fidelity(phi, alpha_l, alpha_n, objective.nbar)


def detuning_scan(spectrum, problem):
    """Solve the amplitude problem on every grid detuning, keep the best.

    The grid must lie in (0, 2 omega_z].  The segment kernels are built
    once for the whole grid, and each point's :func:`solve_amplitudes`
    call gets its slice.  Per-point failures are recorded as fidelity 0
    and do not abort the scan; if every point fails the result carries no
    schedule.  The result holds no gate report: pass ``best_schedule`` to
    :func:`gate.gate_report` for one.
    """
    grid = problem.mu_grid
    if grid is None:
        grid = default_mu_grid(spectrum.config.omega_z)
    if np.any(grid <= 0.0) or np.any(grid > 2.0 * spectrum.config.omega_z):
        raise ValueError("mu grid must lie in (0, 2 omega_z]")
    times = _segment_times(problem.tau, problem.segment_count)
    couplings, S, G = _grid_kernels(spectrum, problem.pair, times, grid)
    fidelities = np.zeros(grid.size)
    max_amps = np.zeros(grid.size)
    schedules = [None] * grid.size
    for i, mu in enumerate(grid):
        try:
            sched, fid = solve_amplitudes(
                spectrum, problem.pair, problem.tau, problem.segment_count,
                mu, nbar=problem.nbar, amplitude_bound=problem.amplitude_bound,
                _kernels=(couplings, S[i], G[i]))
        except (IndefiniteKernel, scipy.linalg.LinAlgError):
            continue
        fidelities[i] = fid
        max_amps[i] = sched.max_amplitude
        schedules[i] = sched
    best = int(np.argmax(fidelities))
    return OptimizationResult(
        pair=problem.pair, tau=problem.tau,
        segment_count=problem.segment_count, mu_grid=grid,
        fidelities=fidelities, max_amplitudes=max_amps,
        best_index=best if schedules[best] is not None else -1,
        best_schedule=schedules[best])


def band_edge_optimum(result, band_top, window=2):
    """Index of the first local fidelity maximum above the mode band.

    Detunings below the highest mode frequency sit inside the dense phonon
    band, where the fidelity-vs-detuning curve is a comb of narrow spikes
    between resonances.  Just beyond the band edge the curve is smooth and
    the drive power is lowest, so the first local maximum there is the
    natural operating point to quote for a gate working close to the
    uniform mode.  ``band_top`` is the highest mode frequency in rad/s.  A
    point is a local maximum when its fidelity is positive and not exceeded
    within ``window`` grid steps; the one with the smallest detuning above
    ``band_top`` is taken (the grid need not be ascending).  Falls back to
    the scan's best index when no local maximum lies above the band.
    """
    grid = result.mu_grid
    fid = result.fidelities
    candidates = [i for i in range(fid.size)
                  if grid[i] > band_top and fid[i] > 0.0
                  and fid[i] >= fid[max(0, i - window):i + window + 1].max()]
    if not candidates:
        return result.best_index
    return min(candidates, key=lambda i: grid[i])


# ---------------------------------------------------------------------------
# benchmark table

@dataclass(frozen=True)
class TableRow:
    """One benchmark entry: a target pair in a given radial trap."""

    rank: int
    pair: tuple
    separation_m: float
    omega_r: float
    mu_opt: float
    fidelity: float
    max_amplitude: float


def default_pair_list(crystal, count=10):
    """Pairs of strictly increasing separation anchored at the centre.

    The anchor is the ion nearest the crystal centre; partners are drawn
    from the distance-sorted remaining ions at evenly spaced ranks, starting
    with the nearest neighbour and ending with the farthest ion, skipping
    ties so separations increase strictly.  Distances within 1e-9
    (relative) of the first of their run tie and are ordered by ion index,
    so rounding noise cannot reorder a symmetric shell.
    """
    u = crystal.positions
    anchor = int(np.argmin(np.hypot(u[:, 0], u[:, 1])))
    delta = u - u[anchor]
    dist = np.hypot(delta[:, 0], delta[:, 1])
    order = []
    for j in np.argsort(dist, kind="stable"):
        if j == anchor:
            continue
        if order and dist[j] <= order[-1][0] * (1.0 + 1e-9):
            order.append((order[-1][0], int(j)))
        else:
            order.append((dist[j], int(j)))
    order.sort()
    if len(order) < count:
        raise InsufficientPoints("crystal too small for %d pairs" % count)
    ranks = np.round(np.linspace(0, len(order) - 1, count)).astype(int)
    pairs = []
    prev = -np.inf
    k = 0
    for r in ranks:
        k = max(k, r)
        while k < len(order) and order[k][0] <= prev * (1.0 + 1e-9):
            k += 1
        if k >= len(order):
            raise InsufficientPoints(
                "not enough distinct separations for %d pairs" % count)
        prev = order[k][0]
        j = order[k][1]
        pairs.append((min(anchor, j), max(anchor, j)))
        k += 1
    return pairs


def table_one(crystal, pairs,
              omega_r_values=(TWO_PI * 0.2e6, TWO_PI * 1.0e6), tau=50e-6,
              segments=5, mu_grid=None):
    """Benchmark gate design across pair separations and radial traps.

    Returns a list of TableRow, ordered by radial frequency then the order
    of ``pairs``.  The planar pattern is independent of the radial
    frequency, so ``crystal`` is re-dressed (exactly) for each trap;
    separations in metres scale with the trap length scale.  omega_z, the
    ion species and nbar come from ``crystal.config``.
    """
    rows = []
    for omega_r in omega_r_values:
        dressed = with_trap(crystal, replace(crystal.config, omega_r=omega_r))
        spectrum = axial_spectrum(dressed)
        coords = dressed.positions * dressed.length_scale_ell
        for rank, pair in enumerate(pairs, start=1):
            problem = OptimizationProblem(
                pair=pair, tau=tau, segment_count=segments, mu_grid=mu_grid)
            result = detuning_scan(spectrum, problem)
            l, n = pair
            sep = float(np.hypot(*(coords[l] - coords[n])))
            rows.append(TableRow(
                rank=rank, pair=pair, separation_m=sep, omega_r=omega_r,
                mu_opt=result.best_mu if result.feasible else 0.0,
                fidelity=result.best_fidelity,
                max_amplitude=(result.best_schedule.max_amplitude
                               if result.feasible else 0.0)))
    return rows


# ---------------------------------------------------------------------------
# serialization

def write_scan(result, path):
    """Write the scan curve (frequencies and amplitudes in plain Hz)."""
    meta = [("pair", "%d,%d" % result.pair),
            ("tau_s", fmt(result.tau)),
            ("segment_count", result.segment_count),
            ("grid_points", result.mu_grid.size),
            ("best_index", result.best_index),
            ("best_fidelity", fmt(result.best_fidelity)),
            ("best_mu_hz",
             fmt(result.best_mu / TWO_PI if result.feasible else 0.0)),
            ("columns", "mu_hz\tfidelity\tmax_amplitude_hz")]
    rows = [[fmt(mu / TWO_PI), fmt(fid), fmt(amp / TWO_PI)]
            for mu, fid, amp in zip(result.mu_grid, result.fidelities,
                                    result.max_amplitudes)]
    write_rows(path, "gatelab detuning scan", meta, rows)


def read_scan(path):
    """Parse a file written by :func:`write_scan`.

    Returns an OptimizationResult carrying the curve; the schedule and
    report are stored separately.  The ``best_*`` header lines are for
    people: the best index is the curve's first maximum, or -1 when that
    is 0, the file's mark of a failed point.
    """
    meta, rows = read_rows(path)
    l, n = meta["pair"].split(",")
    grid = np.zeros(int(meta["grid_points"]))
    fid = np.zeros(grid.size)
    amp = np.zeros(grid.size)
    for i, fields in enumerate(rows):
        grid[i] = float(fields[0]) * TWO_PI
        fid[i] = float(fields[1])
        amp[i] = float(fields[2]) * TWO_PI
    best = int(np.argmax(fid))
    return OptimizationResult(
        pair=(int(l), int(n)), tau=float(meta["tau_s"]),
        segment_count=int(meta["segment_count"]), mu_grid=grid,
        fidelities=fid, max_amplitudes=amp,
        best_index=best if fid[best] > 0.0 else -1,
        best_schedule=None)


def write_table(rows, path):
    """Write benchmark rows (frequencies and amplitudes in plain Hz)."""
    meta = [("row_count", len(rows)),
            ("columns", "rank\tion_l\tion_n\tseparation_m\tomega_r_hz"
             "\tmu_opt_hz\tfidelity\tmax_amplitude_hz")]
    fields = [[str(row.rank), str(row.pair[0]), str(row.pair[1]),
               fmt(row.separation_m), fmt(row.omega_r / TWO_PI),
               fmt(row.mu_opt / TWO_PI), fmt(row.fidelity),
               fmt(row.max_amplitude / TWO_PI)] for row in rows]
    write_rows(path, "gatelab benchmark table", meta, fields)


def read_table(path):
    """Parse a file written by :func:`write_table`."""
    _, rows = read_rows(path)
    return [TableRow(rank=int(f[0]), pair=(int(f[1]), int(f[2])),
                     separation_m=float(f[3]), omega_r=float(f[4]) * TWO_PI,
                     mu_opt=float(f[5]) * TWO_PI, fidelity=float(f[6]),
                     max_amplitude=float(f[7]) * TWO_PI) for f in rows]
