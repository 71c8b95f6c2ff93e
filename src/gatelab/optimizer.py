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

The solve runs on a whole detuning grid at once.  The kernel stage,
:func:`gate._pair_kernels`, returns the first-order integrals S and phase
forms G of every grid point from one blocked call, and from the held S
:func:`_grid_forms`, the one place they are made, builds the four P x P
residual forms A_i = Re(S^H diag(w_i) S): past that build an ascent step
reads only G and the A_i, so its cost does not depend on the mode
count.  The ascent runs in lockstep: each step
reduces the pencils of all points still rising with one batched Cholesky
factorization and solves them with one batched symmetric eigensolve (Golub
& Van Loan, Matrix Computations, 8.7), and a point drops out when its own
stopping rule fires; it carries on from step 0's scores, and each step
copies only its active rows of the held forms.  The scorer of
:func:`gate.gate_report` then scores all rows from S in blocks of
``gate._BLOCK``, each with its own pair's couplings, bit for bit as that
report would.  So a scan holds one copy of S (M, P, K), G and the A_i and
one block of every other array with a mode axis.  Every operation acts on
each point alone, so a point's result does not depend on the grid around
it: :func:`solve_amplitudes` is the one-point grid.  The same holds across
pairs: :func:`table_one` builds one trap's kernels once, turns them into
each pair's G and A_i, and ascends the (pair, detuning) rows of all its
pairs in one lockstep, so every row is its own pair's scan and
:func:`detuning_scan` is the one-pair table.  A detuning scan keeps the
best point; failed points (no positive-phase direction at that mu, none
within the amplitude bound, or a residual form that is not positive
definite) are recorded with fidelity zero rather than aborting the scan.

The inputs are checked by the rules of :mod:`crystal`, which this module
does not restate: ``_count`` for the segment, grid-point and pair counts,
``_positive`` for tau and the amplitude bound, ``_reals`` for a detuning
grid, :func:`crystal.check_pair` for a pair and :func:`crystal.check_nbar`
for an occupation.
"""

from dataclasses import dataclass, replace

import numpy as np

from .crystal import (_count, _positive, _reals, check_nbar, check_pair,
                      with_trap)
from .errors import IndefiniteKernel, InsufficientPoints
from .gate import (PHASE_TARGET, TWO_PI, PulseSchedule, _BLOCK, _evaluate,
                   _pair_kernels, _phase, _phase_weights, drive_couplings,
                   thermal_weight)
from .modes import axial_spectrum
from ._textio import fmt, write_rows

# the paper's design defaults: detuning grid, segments, benchmark pairs
MU_GRID_POINTS = 301
MU_BELOW_HZ, MU_ABOVE_HZ = 0.1e6, 0.2e6
SEGMENT_COUNT = 5
PAIR_COUNT = 10
_EDGE_WINDOW = 2  # grid steps a band-edge maximum is not exceeded within

# weights c_i of the four overlap factors in the locked fidelity
_BRANCH_COEFFS = np.array([1.0, 1.0, 0.5, 0.5])
# the ascent stops on a smaller fidelity gain or after this many steps
_FTOL = 1e-13
_MAX_STEPS = 100
# eigenvalue-problem regularizer, relative to the mean diagonal of the
# residual form
_RIDGE = 1e-12
# a row of overlap weights whose largest is below this is rescaled before
# its pencil is reduced (see :func:`_extremal`)
_TINY_WEIGHT = 2.0 ** -900
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

    ``pair`` is two distinct ion indices >= 0 (:func:`crystal.check_pair`).
    ``tau`` (s) is one positive and finite number
    (:func:`crystal._positive`), stored as a float, ``segment_count`` a
    positive integer (:func:`crystal._count`), stored as an int.
    ``mu_grid`` (rad/s), a non-empty 1-d array of finite detunings
    (:func:`crystal._reals`), defaults to :func:`default_mu_grid`.
    ``nbar``, one number for every mode, defaults to the trap's
    occupation.  ``amplitude_bound`` (rad/s), by ``tau``'s rule,
    optionally caps max_p |Omega_p|: the seed and every ascent step must
    respect it.
    """

    pair: tuple
    tau: float
    segment_count: int = SEGMENT_COUNT
    mu_grid: np.ndarray = None
    nbar: float = None
    amplitude_bound: float = None

    def __post_init__(self):
        object.__setattr__(self, "pair", check_pair(self.pair))
        object.__setattr__(self, "tau", _positive(self.tau, "tau"))
        object.__setattr__(self, "segment_count",
                           _count(self.segment_count, "segment_count"))
        if self.mu_grid is not None:
            object.__setattr__(self, "mu_grid",
                               _reals(self.mu_grid, "mu_grid"))
        if self.amplitude_bound is not None:
            object.__setattr__(self, "amplitude_bound", _positive(
                self.amplitude_bound, "amplitude_bound"))

    @property
    def times(self):
        """Boundaries of ``segment_count`` equal segments spanning [0, tau]."""
        return np.linspace(0.0, self.tau, self.segment_count + 1)


@dataclass(frozen=True)
class OptimizationResult:
    """Scan curve plus the winning schedule.

    ``fidelities`` and ``max_amplitudes`` run parallel to ``mu_grid``;
    fidelity 0 with amplitude 0 marks every failed grid point: no
    positive-phase drive (``no-phase``), none within the amplitude bound
    (``over-bound``) or a residual form that is not positive definite
    (``linalg``).  ``best_index`` is -1 (and ``best_schedule`` None) when
    every point failed.
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


def default_mu_grid(omega_z, points=MU_GRID_POINTS, below_hz=MU_BELOW_HZ,
                    above_hz=MU_ABOVE_HZ):
    """Detuning grid of ``points`` (a positive integer,
    :func:`crystal._count`) bracketing the axial band edge at omega_z."""
    return np.linspace(omega_z - TWO_PI * below_hz,
                       omega_z + TWO_PI * above_hz, _count(points, "points"))


def check_mu_grid(grid, omega_z):
    """``grid`` (None: :func:`default_mu_grid`) if it lies in (0, 2 omega_z],
    the one statement of a valid detuning window; else ValueError."""
    if grid is None:
        grid = default_mu_grid(omega_z)
    if np.any(grid <= 0.0) or np.any(grid > 2.0 * omega_z):
        raise ValueError("mu grid must lie in (0, 2 omega_z]")
    return grid


@dataclass(frozen=True)
class _Forms:
    """The amplitude problem of J pairs at every detuning of an M-point
    grid, one row per (pair, detuning), pair-major.

    The ascent reads the kernel stage's phase forms ``G`` (J M, P, P),
    the residual forms ``A`` (J M, 4, P, P) that :func:`_grid_forms`
    builds from S, A_i = Re(S^H diag(w_i) S) with w_i the thermal weights
    of |alpha_l|^2, |alpha_n|^2 and |alpha_l +/- alpha_n|^2 (the factor 2
    of exp(-2 Gamma) included), and the ``bound`` (or None).
    Only the final score, shared with :func:`gate.gate_report`, reads the
    first-order integrals ``S`` (M, P, K), one grid's worth shared by the
    pairs, the pairs' coupling rows ``drive`` (J, 2, K) and the occupation
    ``nbar`` of every mode.
    """

    S: np.ndarray
    G: np.ndarray
    A: np.ndarray
    drive: np.ndarray
    nbar: float
    bound: float

    def take(self, rows):
        """The ascent's forms, without S, at the index array ``rows``."""
        return replace(self, S=None, G=self.G[rows], A=self.A[rows])


def _grid_forms(spectrum, pairs, times, grid, nbar, bound):
    """:class:`_Forms` of the sequence ``pairs`` on ``grid``, the kernels
    of all pairs built in one call; ``nbar`` None takes the trap's
    occupation.  Raises NegativeOccupation from :func:`crystal.check_nbar`
    before any kernel is built.  The residual forms are made here alone,
    from the S that :func:`gate._pair_kernels` returns, ``_BLOCK``
    detunings at a time: A_i = Re(S^* diag(w_i) S^T) = R diag(w_i, w_i)
    R^T with R = [Re S, Im S], one product per pair and weight row."""
    nbar = check_nbar(spectrum.config.temperature_nbar if nbar is None
                      else nbar)
    couplings = drive_couplings(spectrum)
    drive = couplings[np.array(pairs, dtype=int).reshape(-1, 2)]
    cl, cn = drive[:, 0], drive[:, 1]
    S, G = _pair_kernels(times, np.asarray(grid, dtype=float),
                         spectrum.frequencies,
                         _phase_weights(couplings, pairs))
    tiled = np.tile(thermal_weight(nbar) * np.stack(
        [cl ** 2, cn ** 2, (cl + cn) ** 2, (cl - cn) ** 2], axis=1), 2)
    A = np.empty((len(tiled), len(S), tiled.shape[1]) + G.shape[1:])
    for start in range(0, len(S), _BLOCK):
        rows = slice(start, start + _BLOCK)
        R = np.concatenate([S[rows].real, S[rows].imag], axis=-1)
        R_T = np.swapaxes(R, -1, -2)
        for j, pair_tiled in enumerate(tiled):
            for i, row in enumerate(pair_tiled):
                A[j, rows, i] = (R * row) @ R_T
    return _Forms(S=S, G=G, A=A.reshape((-1,) + A.shape[2:]), drive=drive,
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
    exponents scale^2 vec^T A_i vec.  Scale-invariant in each row.
    """
    q = _phase(forms.G, vec)
    live = (q != 0.0) & np.isfinite(q)
    scale = np.sqrt(PHASE_TARGET / np.abs(np.where(live, q, np.nan)))
    gamma = scale[:, None] ** 2 * (vec[:, None, None, :] @ forms.A
                                   @ vec[:, None, :, None])[:, :, 0, 0]
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

    A row of ``coeffs`` whose largest entry is below ``_TINY_WEIGHT`` (the
    overlap factors c_i exp(-gamma_i) of a drive with every gamma_i past
    about 624) is first scaled by the power of 4 that brings that entry
    into [1, 4).  Subnormal weights would otherwise give L ~ 1e-155 and an
    L^-1 G L^-T that overflows; a power of 4 passes exactly through L, the
    eigenvectors and :func:`_locked`, and every other row keeps its bits.
    """
    top = coeffs.max(axis=1)
    _, exp = np.frexp(top)  # top in [2^(exp-1), 2^exp)
    shift = np.where(top < _TINY_WEIGHT, (2 - exp) // 2 * 2, 0)
    coeffs = np.ldexp(coeffs, shift[:, None])
    m, _, p, _ = forms.A.shape
    B = (coeffs[:, None, :] @ forms.A.reshape(m, 4, p * p)).reshape(m, p, p)
    trace = np.trace(B, axis1=1, axis2=2)
    usable = np.all(np.isfinite(B), axis=(1, 2)) & (trace > 0.0)
    diag = np.arange(p)
    B[:, diag, diag] += (_RIDGE * trace / p)[:, None]
    B[~usable] = np.eye(p)
    L, broken = _cholesky(B)
    L_inv = np.linalg.inv(L)
    evals, Y = np.linalg.eigh(L_inv @ forms.G @ L_inv.transpose(0, 2, 1))
    # rows v_j^T = y_j^T L^-1: matmul rounds a strided vector differently
    V = Y.transpose(0, 2, 1) @ L_inv
    hi = V[:, -1]
    lo = V[:, 0]
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


def _ascend(forms, rows, vec, fid, gamma):
    """Reweighted generalized-eigenvector ascent (see the module
    docstring) of the rows ``rows`` of ``forms`` in lockstep, carried on
    from step 0: row r starts from ``vec[r]``, its fidelity ``fid[r]`` and
    overlap exponents ``gamma[r]`` as :func:`_locked` scores them.  Inputs
    stay as they were; each step copies its active rows of ``forms``.

    A point stops when a step does not raise its fidelity (one past the
    amplitude bound scores -1), gains less than _FTOL, or its reweighted
    form vanishes because every overlap factor underflowed to 0 (tiny but
    nonzero factors are rescaled by :func:`_extremal`); at most _MAX_STEPS
    steps.  Returns (vector, fidelity, steps, broken) per entry of
    ``rows``, ``broken`` marking the points whose form stopped being
    positive definite.
    """
    vec, fid, gamma = vec[rows], fid[rows], gamma[rows]
    steps = np.zeros(len(rows), dtype=int)
    broken = np.zeros(len(rows), dtype=bool)
    active = np.arange(len(rows))
    for _ in range(_MAX_STEPS):
        if not active.size:
            break
        found, failed, new_fid, new_vec, new_gamma = _extremal(
            forms.take(rows[active]), _BRANCH_COEFFS * np.exp(-gamma[active]))
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
    """Step 0 at every row (pair, grid point) of ``forms``, the solve's
    one copy of its forms, the ascent carried on from its vectors and
    scores, then every row scored on the shared S in ``_BLOCK``-row blocks.

    Returns (amplitudes, fidelities, steps, status), one row each per row
    of ``forms``: amplitudes (J M, P) rescaled so |phase| is pi/4,
    fidelities from :func:`gate._evaluate`, the scorer of
    :func:`gate.gate_report`, the ascent steps taken, and per point "ok"
    or the failure its one-point solve raises (see _FAILURES).  A failed
    point holds zero amplitudes and fidelity 0.
    """
    m = len(forms.G)
    status = np.full(m, "ok", dtype=object)
    # step 0: every overlap exponent taken as zero
    found, broken, fid, vec, gamma = _extremal(
        forms, np.broadcast_to(_BRANCH_COEFFS, (m, 4)))
    status[~found] = "no-phase"
    status[found & (fid < 0.0)] = "over-bound"
    status[broken] = "linalg"
    rows = np.flatnonzero(status == "ok")
    vec, _, steps_taken, broken = _ascend(forms, rows, vec, fid, gamma)
    status[rows[broken]] = "linalg"
    steps = np.zeros(m, dtype=int)
    steps[rows] = steps_taken
    rows, vec = rows[~broken], vec[~broken]
    amplitudes = np.zeros((m, vec.shape[1]))
    fidelities = np.zeros(m)
    for start in range(0, rows.size, _BLOCK):
        own = rows[start:start + _BLOCK]
        G = forms.G[own]
        v = vec[start:start + _BLOCK]
        v = np.sqrt(PHASE_TARGET / np.abs(_phase(G, v)))[:, None] * v
        amplitudes[own] = v
        pair_of, point = np.divmod(own, len(forms.S))
        fidelities[own] = _evaluate(forms.S[point], G, v,
                                    forms.drive[pair_of], forms.nbar)[3]
    return amplitudes, fidelities, steps, status


def _scan(spectrum, problem, pairs):
    """One (OptimizationResult, per-point status) per pair of ``pairs``,
    each the scan of ``problem`` with its pair replaced: the one solve
    path of a point, a scan and a table.  Every pair's kernels come from
    one build and every (pair, point) ascends in one lockstep, each row
    as it would alone.  Raises ValueError, before any kernel is built,
    from :func:`check_mu_grid`, :func:`crystal.check_pair` (on every pair) or
    :func:`crystal.check_nbar`."""
    config = spectrum.config
    grid = check_mu_grid(problem.mu_grid, config.omega_z)
    pairs = [check_pair(pair, config.ion_count) for pair in pairs]
    amplitudes, fidelities, _, status = _solve_grid(_grid_forms(
        spectrum, pairs, problem.times, grid, problem.nbar,
        problem.amplitude_bound))
    scans = []
    for j, pair in enumerate(pairs):
        own = slice(j * grid.size, (j + 1) * grid.size)
        best = int(np.argmax(fidelities[own]))
        feasible = status[own][best] == "ok"
        schedule = (PulseSchedule(times=problem.times,
                                  amplitudes=amplitudes[own][best],
                                  mu=float(grid[best]), target_pair=pair)
                    if feasible else None)
        scans.append((OptimizationResult(
            pair=pair, tau=problem.tau, segment_count=problem.segment_count,
            mu_grid=grid, fidelities=fidelities[own],
            max_amplitudes=np.abs(amplitudes[own]).max(axis=1),
            best_index=best if feasible else -1, best_schedule=schedule),
            status[own]))
    return scans


def solve_amplitudes(spectrum, problem):
    """Best phase-locked segment amplitudes at the detuning of a
    one-point ``problem``: its scan, on the path of :func:`detuning_scan`.

    The generalized-eigenvector seed, raised by the reweighted ascent of
    the module docstring and rescaled so |phase| is pi/4.  Returns
    (schedule, fidelity), the fidelity :func:`gate.gate_fidelity` as in
    :func:`gate.gate_report`.  Raises ValueError, before any kernel is
    built, for a grid of another size or a problem a scan rejects;
    IndefiniteKernel when no drive direction produces any conditional phase
    at this detuning (or none within the amplitude bound), and LinAlgError
    when the residual form is not positive definite.
    """
    if problem.mu_grid is None or problem.mu_grid.size != 1:
        raise ValueError("solve_amplitudes needs a one-point mu_grid")
    result, status = _scan(spectrum, problem, [problem.pair])[0]
    if not result.feasible:
        kind, message = _FAILURES[status[0]]
        raise kind("%s at mu = %.6g rad/s" % (message, problem.mu_grid[0]))
    return result.best_schedule, result.best_fidelity


def detuning_scan(spectrum, problem):
    """Solve the amplitude problem on every grid detuning, keep the best.

    The grid must lie in (0, 2 omega_z] and the pair in the crystal.  The
    whole grid is solved at once (see the module docstring), every point
    as :func:`solve_amplitudes` would solve it alone.  Per-point failures
    are recorded as fidelity 0 and do not abort the scan; if every point
    fails the result carries no schedule.  The result holds no gate
    report: pass ``best_schedule`` to :func:`gate.gate_report` for one.
    """
    return _scan(spectrum, problem, [problem.pair])[0][0]


def band_edge_optimum(result, band_top):
    """Index of the first local fidelity maximum above the mode band.

    Detunings below the highest mode frequency sit inside the dense phonon
    band, where the fidelity-vs-detuning curve is a comb of narrow spikes
    between resonances.  Just beyond the band edge the curve is smooth and
    the drive power is lowest, so the first local maximum there is the
    natural operating point to quote for a gate working close to the
    uniform mode.  ``band_top`` is the highest mode frequency in rad/s.  A
    point is a local maximum when its fidelity is positive and not exceeded
    within ``_EDGE_WINDOW`` grid steps; the one with the smallest detuning
    above ``band_top`` is taken (the grid need not be ascending), else the
    scan's best index.
    """
    grid = result.mu_grid
    fid = result.fidelities
    w = _EDGE_WINDOW
    candidates = [i for i in range(fid.size)
                  if grid[i] > band_top and fid[i] > 0.0
                  and fid[i] >= fid[max(0, i - w):i + w + 1].max()]
    if not candidates:
        return result.best_index
    return min(candidates, key=lambda i: grid[i])


# ---------------------------------------------------------------------------
# benchmark table

@dataclass(frozen=True)
class TableRow:
    """One benchmark entry: a target pair in a given radial trap.

    ``mu_opt`` and ``max_amplitude`` are 0 when the scan of the entry has
    no feasible point.
    """

    rank: int
    pair: tuple
    separation_m: float
    omega_r: float
    mu_opt: float
    fidelity: float
    max_amplitude: float


def default_pair_list(crystal, count=PAIR_COUNT):
    """Pairs of strictly increasing separation anchored at the centre.

    The anchor is the ion nearest the crystal centre; partners are drawn
    from the distance-sorted remaining ions at evenly spaced ranks, starting
    with the nearest neighbour and ending with the farthest ion, skipping
    ties so separations increase strictly.  Distances within 1e-9
    (relative) of the first of their run tie and are ordered by ion index,
    so rounding noise cannot reorder a symmetric shell.  ``count`` is a
    positive integer (:func:`crystal._count`).
    """
    count = _count(count, "count")
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


def table_one(crystal, problem, pairs, omega_r_values):
    """Benchmark gate design across pair separations and radial traps.

    Each entry scans ``problem`` (duration, segments, grid, nbar, bound)
    with its pair replaced by one of ``pairs``, in each radial trap of
    ``omega_r_values`` (rad/s).  Returns a list of TableRow, ordered by
    radial frequency then the order of ``pairs``.  The planar pattern is
    independent of the radial frequency, so ``crystal`` is re-dressed
    (exactly) for each trap; separations in metres scale with the trap
    length scale.  omega_z and the ion species come from
    ``crystal.config``.  A trap's pairs are solved in lockstep: one kernel
    build and one ascent for all of them, every row bit for bit the
    :func:`detuning_scan` of its own pair.  Every pair is checked before
    any kernel is built.
    """
    rows = []
    for omega_r in omega_r_values:
        dressed = with_trap(crystal, replace(crystal.config, omega_r=omega_r))
        spectrum = axial_spectrum(dressed)
        coords = dressed.positions * dressed.length_scale_ell
        for rank, (result, _) in enumerate(_scan(spectrum, problem, pairs),
                                           start=1):
            l, n = pair = result.pair
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
