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
that form is the plain residual cost, so the seed is step 0.

The solve runs on a whole detuning grid at once.  The segment kernels of
every grid point are built in one call, and the ascent runs in lockstep:
each step reduces the pencils of all points still rising with one batched
Cholesky factorization and solves them with one batched symmetric
eigensolve (Golub & Van Loan, Matrix Computations, 8.7), and a point drops
out when its own stopping rule fires.  The forms hold S once, and one call
of the scorer of :func:`gate.gate_report` scores every point, bit for bit
as that report would.  Every operation acts on each point alone, so a
point's result does not depend on the grid around it:
:func:`solve_amplitudes` is the one-point grid.  A detuning scan
keeps the best point; failed points (no positive-phase direction at that
mu, none within the amplitude bound, or a residual form that is not
positive definite) are recorded with fidelity zero rather than aborting
the scan.
"""

from dataclasses import dataclass, replace

import numpy as np

from .crystal import with_trap
from .errors import IndefiniteKernel, InsufficientPoints, NegativeOccupation
from .gate import (PulseSchedule, _evaluate, _pair_kernels, _phase,
                   drive_couplings, TWO_PI)
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
# status of a failed grid point -> (exception, message) of its one-point
# solve; a solved point has status "ok"
_FAILURES = {
    "no-phase": (IndefiniteKernel, "no entangling phase achievable"),
    "over-bound": (IndefiniteKernel,
                   "no feasible drive within the amplitude bound"),
    "linalg": (np.linalg.LinAlgError, "residual form not positive definite"),
}


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


def _segment_times(tau, segments):
    """Boundaries of ``segments`` equal segments spanning [0, tau]."""
    return np.linspace(0.0, float(tau), int(segments) + 1)


@dataclass(frozen=True)
class _Forms:
    """The pair's amplitude problem at every detuning of a grid.

    ``S`` (M, K, P) holds the first-order integrals once, and ``G``
    (M, P, P) the phase form; residuals, residual forms and scores (shared
    with :func:`gate.gate_report`) are all taken from them.  Shared by
    every point: ``weights`` (4, K), per overlap factor the thermal
    weights of |alpha_l|^2, |alpha_n|^2 and |alpha_l +/- alpha_n|^2 (the
    factor 2 of exp(-2 Gamma) included); ``drive`` (2, K), the pair's rows
    of the mode couplings; ``nbar`` (K,); and the ``bound`` (or None).
    """

    S: np.ndarray
    G: np.ndarray
    weights: np.ndarray
    drive: np.ndarray
    nbar: np.ndarray
    bound: float

    def take(self, rows):
        """The forms at the grid points ``rows``, an index array."""
        return replace(self, S=self.S[rows], G=self.G[rows])


def _grid_forms(spectrum, pair, times, grid, nbar, bound):
    """:class:`_Forms` of ``pair`` on ``grid``, its kernels built in one
    call; ``nbar`` None takes the per-mode occupations of the trap
    config.  Raises NegativeOccupation, before any kernel is built, when an
    occupation is negative or not finite."""
    if nbar is None:
        nbar = spectrum.config.nbar_per_mode(spectrum.mode_count)
    nbar = np.broadcast_to(np.asarray(nbar, dtype=float),
                           spectrum.frequencies.shape)
    if not np.all(np.isfinite(nbar) & (nbar >= 0.0)):
        raise NegativeOccupation("nbar must be finite and >= 0")
    couplings = drive_couplings(spectrum)
    S, G = _pair_kernels(times, np.asarray(grid, dtype=float),
                         spectrum.frequencies, couplings, pair)
    l, n = pair
    cl = couplings[l]
    cn = couplings[n]
    weights = 2.0 * (2.0 * nbar + 1.0) * np.array(
        [cl ** 2, cn ** 2, (cl + cn) ** 2, (cl - cn) ** 2])
    return _Forms(S=S, G=G, weights=weights, drive=np.array([cl, cn]),
                  nbar=nbar, bound=bound)


def _locked(forms, vec):
    """Fidelity of one drive direction per grid point, phase locked.

    Row i of ``vec`` (M, P) is rescaled so |phase| at point i hits the
    target exactly; both phase signs describe the same gate up to a local
    frame flip.  On the locked shell the inter-branch geometric terms
    cancel and the fidelity reduces to four thermally weighted Gaussian
    overlap factors of the residual displacements.  Returns
    (fidelity, peak, gamma): the locked peak amplitude is NaN for a
    direction that carries no phase, the fidelity -1 for that direction or
    one past the amplitude bound, and gamma (M, 4) holds the overlap
    exponents.  Scale-invariant in each row.
    """
    q = _phase(forms.G, vec)
    live = (q != 0.0) & np.isfinite(q)
    scale = np.sqrt(PHASE_TARGET / np.abs(np.where(live, q, np.nan)))
    disp = (forms.S @ vec[:, :, None])[:, :, 0]
    power = scale[:, None] ** 2 * (disp.real ** 2 + disp.imag ** 2)
    gamma = (power[:, None, :] @ forms.weights.T)[:, 0, :]
    peak = scale * np.abs(vec).max(axis=1)
    fid = 0.25 * (1.0 + (np.exp(-gamma) * _BRANCH_COEFFS).sum(axis=1))
    infeasible = ~live
    if forms.bound is not None:
        infeasible |= peak > forms.bound
    return np.where(infeasible, -1.0, fid), peak, gamma


def _cholesky(A):
    """Lower Cholesky factors of the stack ``A`` and a mask of the
    matrices that are not positive definite (their factor is the identity).

    Only when the batched factorization raises is the stack factored one
    matrix at a time; numpy runs the same LAPACK call per matrix either
    way, so a factor never depends on its neighbours.
    """
    try:
        return np.linalg.cholesky(A), np.zeros(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    L = np.empty_like(A)
    broken = np.zeros(len(A), dtype=bool)
    for i, a in enumerate(A):
        try:
            L[i] = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            L[i] = np.eye(len(a))
            broken[i] = True
    return L, broken


def _extremal(forms, coeffs):
    """Best extremal generalized eigenvector of (G, sum_i coeffs_i A_i) at
    every grid point, ``coeffs`` (M, 4).

    Both phase signs are admissible: of the most positive and the most
    negative ratio, the higher locked fidelity wins, ties going to the
    smaller peak amplitude, then to the negative ratio.  The pencils are
    reduced with one batched Cholesky factorization B = L L^T, L^-1 G L^-T
    goes to one batched symmetric eigensolve, and v = L^-T y.  Returns
    (found, broken, fidelity, vector, gamma) as from :func:`_locked`, with
    sign-canonical vectors (largest-magnitude component positive, ties:
    first).  ``found`` is False where the form is not finite with positive
    trace, or no direction carries phase; ``broken`` marks the forms that
    are not positive definite.
    """
    d = (coeffs[:, None, :] @ forms.weights)[:, 0, :]
    B = np.real((np.conj(forms.S).transpose(0, 2, 1) * d[:, None, :])
                @ forms.S)
    trace = np.trace(B, axis1=1, axis2=2)
    usable = np.all(np.isfinite(B), axis=(1, 2)) & (trace > 0.0)
    p = B.shape[1]
    diag = np.arange(p)
    B[:, diag, diag] += (_RIDGE * trace / p)[:, None]
    B[~usable] = np.eye(p)
    L, broken = _cholesky(B)
    L_inv = np.linalg.inv(L)
    L_inv_t = L_inv.transpose(0, 2, 1)
    evals, Y = np.linalg.eigh(L_inv @ forms.G @ L_inv_t)
    V = L_inv_t @ Y
    hi = V[:, :, -1]
    lo = V[:, :, 0]
    fid_hi, peak_hi, gamma_hi = _locked(forms, hi)
    fid_lo, peak_lo, gamma_lo = _locked(forms, lo)
    ok_hi = (evals[:, -1] > 0.0) & ~np.isnan(peak_hi)
    ok_lo = (evals[:, 0] < 0.0) & ~np.isnan(peak_lo)
    lo_wins = (fid_lo > fid_hi) | ((fid_lo == fid_hi) & (peak_lo <= peak_hi))
    pick = (ok_lo & (~ok_hi | lo_wins))[:, None]
    vec = np.where(pick, lo, hi)
    top = np.abs(vec).argmax(axis=1)
    flip = vec[np.arange(len(vec)), top] < 0.0
    vec = np.where(flip[:, None], -vec, vec)
    found = usable & ~broken & (ok_hi | ok_lo)
    return (found, broken, np.where(pick[:, 0], fid_lo, fid_hi), vec,
            np.where(pick, gamma_lo, gamma_hi))


def _ascend(forms, vec):
    """Reweighted generalized-eigenvector ascent (see the module
    docstring) from row i of ``vec`` at grid point i, all points in
    lockstep.

    A point stops when a step does not raise its fidelity (one past the
    amplitude bound scores -1), gains less than _FTOL, or its reweighted
    form vanishes because every overlap factor underflowed; at most
    _MAX_STEPS steps.  Returns (vector, fidelity, steps, broken), with
    ``broken`` marking the points whose form stopped being positive
    definite.
    """
    vec = vec.copy()
    fid, _, gamma = _locked(forms, vec)
    steps = np.zeros(len(vec), dtype=int)
    broken = np.zeros(len(vec), dtype=bool)
    active = np.arange(len(vec))
    for _ in range(_MAX_STEPS):
        if not active.size:
            break
        found, failed, new_fid, new_vec, new_gamma = _extremal(
            forms.take(active), _BRANCH_COEFFS * np.exp(-gamma[active]))
        broken[active[failed]] = True
        rise = found & (new_fid > fid[active])
        moved = active[rise]
        gain = new_fid[rise] - fid[moved]
        fid[moved] = new_fid[rise]
        vec[moved] = new_vec[rise]
        gamma[moved] = new_gamma[rise]
        steps[moved] += 1
        active = moved[~(gain < _FTOL)]
    return vec, fid, steps, broken


def _solve_grid(forms):
    """Seed and ascent at every grid point of ``forms``, then one scoring
    call for all points.

    Returns (amplitudes, fidelities, steps, status): amplitudes (M, P)
    rescaled so |phase| is pi/4, fidelities from :func:`gate._evaluate`,
    the scorer of :func:`gate.gate_report`, the ascent steps taken, and
    per point "ok" or the failure its one-point solve raises (see
    _FAILURES).  A failed point holds zero amplitudes and fidelity 0.
    """
    m = len(forms.G)
    status = np.full(m, "ok", dtype=object)
    # step 0: every overlap exponent taken as zero
    found, broken, fid, vec, _ = _extremal(
        forms, np.broadcast_to(_BRANCH_COEFFS, (m, 4)))
    status[~found] = "no-phase"
    status[found & (fid < 0.0)] = "over-bound"
    status[broken] = "linalg"
    rows = np.flatnonzero(status == "ok")
    vec, _, steps_taken, broken = _ascend(forms.take(rows), vec[rows])
    status[rows[broken]] = "linalg"
    steps = np.zeros(m, dtype=int)
    steps[rows] = steps_taken
    rows = rows[~broken]
    solved = forms.take(rows)
    vec = vec[~broken]
    vec = np.sqrt(PHASE_TARGET / np.abs(_phase(solved.G, vec)))[:, None] * vec
    amplitudes = np.zeros((m, vec.shape[1]))
    amplitudes[rows] = vec
    fidelities = np.zeros(m)
    fidelities[rows] = _evaluate(solved.S, solved.G, vec, solved.drive,
                                 solved.nbar)[3]
    return amplitudes, fidelities, steps, status


def solve_amplitudes(spectrum, pair, tau, segments, mu, nbar=None,
                     amplitude_bound=None):
    """Best phase-locked segment amplitudes at a fixed detuning.

    The generalized-eigenvector seed, raised by the reweighted ascent of
    the module docstring and rescaled so |phase| is pi/4: the one-point
    grid of :func:`detuning_scan`.  Returns (schedule, fidelity).  Raises
    IndefiniteKernel when no drive direction produces any conditional phase
    at this detuning (or none within the amplitude bound), and LinAlgError
    when the residual form is not positive definite.  ``nbar`` defaults to
    the per-mode occupations of the trap config, and the fidelity is
    :func:`gate.gate_fidelity`, as in :func:`gate.gate_report`.
    """
    times = _segment_times(tau, segments)
    amplitudes, fidelities, _, status = _solve_grid(_grid_forms(
        spectrum, pair, times, [float(mu)], nbar, amplitude_bound))
    if status[0] != "ok":
        kind, message = _FAILURES[status[0]]
        raise kind("%s at mu = %.6g rad/s" % (message, mu))
    schedule = PulseSchedule(times=times, amplitudes=amplitudes[0],
                             mu=float(mu), target_pair=pair)
    return schedule, float(fidelities[0])


def detuning_scan(spectrum, problem):
    """Solve the amplitude problem on every grid detuning, keep the best.

    The grid must lie in (0, 2 omega_z].  The whole grid is solved at once
    (see the module docstring), every point as :func:`solve_amplitudes`
    would solve it alone.  Per-point failures are recorded as fidelity 0
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
    amplitudes, fidelities, _, status = _solve_grid(_grid_forms(
        spectrum, problem.pair, times, grid, problem.nbar,
        problem.amplitude_bound))
    best = int(np.argmax(fidelities))
    feasible = status[best] == "ok"
    return OptimizationResult(
        pair=problem.pair, tau=problem.tau,
        segment_count=problem.segment_count, mu_grid=grid,
        fidelities=fidelities,
        max_amplitudes=np.abs(amplitudes).max(axis=1),
        best_index=best if feasible else -1,
        best_schedule=(PulseSchedule(times=times, amplitudes=amplitudes[best],
                                     mu=float(grid[best]),
                                     target_pair=problem.pair)
                       if feasible else None))


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
