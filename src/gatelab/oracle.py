"""Brute-force gate verification in a truncated number-state basis.

The branch Hamiltonians of :mod:`gatelab.gate` are linear in the ladder
operators, so their propagators have closed forms; this module deliberately
ignores that and integrates the Schrodinger equation numerically (adaptive
fourth-order Magnus with step doubling) on small crystals.  Agreement of the
resulting fidelity with the closed-form route validates both.

Because the Hamiltonian commutes with both sigma_z operators, the four spin
branches decouple, and within a branch the modes decouple, so the full
evolution is represented by one propagator matrix per (branch, mode) in a
per-mode Fock space.  Thermal averaging is an exact mixture over initial
number states; every column of the propagator is one evolved number state.

Two exact facts make the integration cheap without touching the
displacement closed form.  Branch parity: the -+ and -- branches carry the
negated weights of +- and ++, and the Fock parity P = diag((-1)^n) maps
U(w) to U(-w), so only two branches are integrated.  Ladder algebra: each
step's Magnus exponent is a phase similarity of R = hop X + shift C, where
X = a + a^+ and C = [a, a^+] are fixed by the cutoff and only the two
scalars change from step to step.  So the Taylor polynomial of exp(-i R) =
cos R - i sin R is two real GEMMs, the powers hop^(k-j) shift^j times two
fixed word tables (the sums W_{k,j} of the words in k - j X's and j C's,
built once per cutoff), its degree and squarings set by the batch's largest
1-norm so that the remainder stays below the unit roundoff.  The Magnus
steps of the oracle3 benchmark have theta <= 0.017 and degree <= 6, those
of acceptance check 07 (drives up to 0.5 MHz) theta <= 0.032 and degree
<= 7.
"""

from dataclasses import dataclass
import functools
import math

import numpy as np

from .crystal import _count, check_nbar, check_pair
from .errors import CutoffInsufficient, StepFailure
from .gate import drive_couplings

MAX_IONS = 4
MAX_CUTOFF = 20      # highest tracked Fock level per mode
_WEIGHT_TAIL = 1e-10  # untracked thermal weight allowed per mode
_TOP_POPULATION_LIMIT = 1e-8
# In-run exit: a closed loop may pass the end-of-run limit on the way and
# return below it (the two-ion closed-loop test peaks at 1.4e-8), so the
# run is stopped early only a hundredfold above it.
_TOP_POPULATION_ABORT = 1e-6
_NORM_DRIFT_LIMIT = 1e-9
_UNIT_ROUNDOFF = 2.0 ** -53
# the degree rule's pick at theta = 1, the largest after scaling
_MAX_DEGREE = 18
# For each degree m: the rows of the running powers in _exp_minus_i (row
# 2 p holds hop^p, row 2 p + 1 shift^p) whose product is the coefficient
# hop^(k-j) shift^j of each word (k, j) with k <= m, the cos table's words
# (even k) first, then the sin table's (odd k); and the cos word count.
_POWER_ROWS = tuple(
    (np.array([(2 * (k - j), 2 * j + 1) for parity in (0, 1)
               for k in range(parity, m + 1, 2) for j in range(k + 1)]).T,
     (m // 2 + 1) ** 2)
    for m in range(_MAX_DEGREE + 1))
# conditional phase of the ideal gate the fidelity is taken against
_PHI_TARGET = math.pi / 4.0
# spin eigenvalues (s_l, s_n) of the four branches, in propagator order
_BRANCH_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

_GAUSS_NODES = np.array([3.0 - math.sqrt(3.0), 3.0 + math.sqrt(3.0)]) / 6.0


def thermal_weights(nbar, levels):
    """p_n = nbar^n / (1 + nbar)^{n+1} for n = 0..levels-1 (0^0 = 1)."""
    ratio = nbar / (1.0 + nbar)
    return ratio ** np.arange(levels) / (1.0 + nbar)


def _levels_for_weight(nbar, cap):
    """Fewest initial levels whose thermal tail is below the weight target."""
    if nbar == 0.0:
        return 1
    ratio = nbar / (1.0 + nbar)
    needed = (math.inf if ratio == 1.0
              else math.ceil(math.log(_WEIGHT_TAIL) / math.log(ratio)))
    if needed > cap:
        raise CutoffInsufficient(
            "thermal mixture at nbar=%.3g needs %.0f levels for tail %.0e, "
            "cutoff allows %d" % (nbar, needed, _WEIGHT_TAIL, cap))
    return needed


@dataclass(frozen=True)
class TruncatedState:
    """Evolved branch propagators of a small crystal in truncated Fock space.

    ``propagators[k]`` has shape (4, dim, dim): the four spin-branch
    propagators of mode k, columns indexed by initial number state.  The
    branch order matches the closed-form route: (++, +-, -+, --).
    ``top_population`` is the thermally weighted population of the top Fock
    level at the end, ``peak_top_population`` its largest value after any
    accepted step, and ``step_count`` counts attempted steps.  ``nbar`` is
    the occupation of every mode stated to :func:`evolve`, one float.
    """

    propagators: tuple
    frequencies: np.ndarray
    nbar: float
    pair: tuple
    norm_drift: float
    top_population: float
    peak_top_population: float
    step_count: int


def _magnus_step(starts, widths, amp, mu, branch_weights, freqs, dim):
    """Propagators of every (step, branch, mode) over [start, start + width],
    amplitude constant on each step (fourth-order two-node Gauss Magnus).

    ``starts`` and ``widths`` have shape (S,) and ``branch_weights`` shape
    (B, K); the result has shape (S, B, K, dim, dim).

    At node s_j the generator is w_j = f_j bw (p_j a^+ + conj(p_j) a) with
    f_j = -amp sin(mu s_j) and p_j = exp(i freqs s_j), and the exponent is
    i theta = dt/2 (w1 + w2) + i c [w1, w2], c = sqrt(3) dt^2 / 12.  The
    ladder algebra makes it tridiagonal: w1 + w2 = bw (z a^+ + conj(z) a)
    with z = f1 p1 + f2 p2, and [w1, w2] = 2i f1 f2 bw^2 Im(conj(p1) p2)
    [a, a^+], where the truncated [a, a^+] is diag(1, ..., 1, -n_max) and
    Im(conj(p1) p2) = sin(freqs dt / sqrt(3)).  So i theta = D R D^* with
    D = diag(exp(i n arg z)) and R = hop X + shift C, X = a + a^+ and
    C = [a, a^+], and exp(-i theta) = D exp(-i R) D^*, where exp(-i R) is
    two GEMMs over fixed word tables (see :func:`_exp_minus_i`).
    """
    widths = np.asarray(widths, dtype=float)[:, None]
    nodes = np.asarray(starts, dtype=float)[:, None] \
        + widths * _GAUSS_NODES  # (S, 2)
    force = np.sin(mu * nodes) * -amp
    z = np.einsum("sj,sjk->sk", force,
                  np.exp(nodes[..., None] * (1j * freqs)))  # (S, K)
    # (S, K) at unit weight, hop = dt |z| / 2 and shift = -2 c f1 f2
    # Im(conj(p1) p2); per branch, times bw and bw^2
    hop = 0.5 * widths * np.abs(z)
    shift = (-math.sqrt(3.0) / 6.0) * widths * widths * force[:, :1] \
        * force[:, 1:] * np.sin(widths * freqs / math.sqrt(3.0))
    u = _exp_minus_i(np.array([hop[:, None] * branch_weights,
                               shift[:, None] * branch_weights ** 2]), dim)
    d = np.exp(1j * np.arange(dim) * np.angle(z)[..., None])[:, None]
    u *= d[..., :, None] * np.conj(d)[..., None, :]  # d: (S, 1, K, dim)
    return u


def _words(dim):
    """W[k][j], j = 0..k, for k = 0.._MAX_DEGREE: the sum of the words in
    k - j factors X and j factors C, so (a X + b C)^k = sum_j a^(k-j) b^j
    W[k][j].  X = a + a^+ (off-diagonals sqrt(n)) and C = [a, a^+] =
    diag(1, ..., 1, -n_max) in ``dim`` Fock levels, and W[k][j] =
    X W[k-1][j] + C W[k-1][j-1]."""
    x = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    x += x.T
    c = np.ones((dim, 1))
    c[-1] = 1.0 - dim
    zero = np.zeros((dim, dim))
    words = [[np.eye(dim)]]
    for _ in range(_MAX_DEGREE):
        last = words[-1]
        words.append([x @ a + c * b
                      for a, b in zip(last + [zero], [zero] + last)])
    return words


@functools.lru_cache(maxsize=None)
def _word_tables(dim):
    """The fixed tables of :func:`_exp_minus_i` at ``dim`` levels: the
    1-norm map, then the cos and the negated sin table.

    The cos table stacks (-1)^(k/2) / k! W[k][j] over even k, the negated
    sin table (-1)^((k+1)/2) / k! W[k][j] over odd k, one row of dim^2 per
    word in (k, j) order, so the words up to a degree are a prefix
    (:data:`_POWER_ROWS`).  The 1-norm map takes (|hop|, |shift|) to the
    row sums of |R| that can be largest.  Cached: :func:`evolve` allows
    at most MAX_CUTOFF cutoffs, about 0.7 MB of tables at dim = 21.
    """
    words = _words(dim)
    cos_table, sin_table = (
        np.array([words[k][j] * ((-1) ** ((k + 1) // 2) / math.factorial(k))
                  for k in range(parity, _MAX_DEGREE + 1, 2)
                  for j in range(k + 1)]).reshape(-1, dim * dim)
        for parity in (0, 1))
    n_max = dim - 1.0
    norms = np.array([[math.sqrt(n_max - 1.0) + math.sqrt(n_max), 1.0],
                      [math.sqrt(n_max), n_max]])
    tables = norms, cos_table, sin_table
    for table in tables:  # one copy serves every caller
        table.flags.writeable = False
    return tables


def _exp_minus_i(hop_shift, dim):
    """exp(-i R) = cos R - i sin R for the batch R = hop X + shift C of
    :func:`_words`, hop = ``hop_shift[0]`` and shift = ``hop_shift[1]``;
    the result has shape ``hop_shift.shape[1:] + (dim, dim)``.

    Truncated Taylor series with scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)).  With theta the batch's largest
    1-norm after s halvings (theta <= 1), the degree m is the least m >= 3
    with remainder theta^(m+1) / (m+1)! / (1 - theta / (m+2)) <= 2^-53, so
    m <= 18.  The 1-norm of R is the larger of its row sums |hop|
    (sqrt(n_max - 1) + sqrt(n_max)) + |shift| and |hop| sqrt(n_max) +
    |shift| n_max.  As R^k = sum_j hop^(k-j) shift^j W[k][j], cos R and
    sin R are two real GEMMs: the (matrix x word) coefficients
    hop^(k-j) shift^j, from running powers of hop and shift, times the
    (word x dim^2) tables of :func:`_word_tables`.  The s squarings are
    complex.  The oracle's Magnus steps have theta <= 0.032: m <= 7,
    s = 0 (see the module docstring).
    """
    norms, cos_table, sin_table = _word_tables(dim)
    flat = hop_shift.reshape(2, -1)
    theta = float((norms @ np.abs(flat)).max())
    squarings = math.ceil(math.log2(theta)) if theta > 1.0 else 0
    theta = math.ldexp(theta, -squarings)
    degree, term = 3, theta ** 4 / 24.0  # term = theta^(m+1) / (m+1)!
    while term > _UNIT_ROUNDOFF * (1.0 - theta / (degree + 2)):
        degree += 1
        term *= theta / (degree + 1)
    powers = np.empty((degree + 1,) + flat.shape)
    powers[0] = 1.0
    np.ldexp(flat, -squarings, out=powers[1])
    for p in range(2, degree + 1):
        np.multiply(powers[p - 1], powers[1], out=powers[p])
    rows, cos_words = _POWER_ROWS[degree]
    terms = powers.reshape(-1, flat.shape[1])[rows]
    terms = terms[0] * terms[1]  # (word, matrix): hop^(k-j) shift^j
    u = np.empty((flat.shape[1], dim * dim), dtype=complex)
    u.real = terms[:cos_words].T @ cos_table[:cos_words]
    u.imag = terms[cos_words:].T @ sin_table[:len(terms) - cos_words]
    u = u.reshape(hop_shift.shape[1:] + (dim, dim))
    for _ in range(squarings):
        u = u @ u
    return u


def evolve(schedule, spectrum, pair, nbar, n_max=MAX_CUTOFF, tol=1e-8,
           max_steps=2_000_000):
    """Numerically integrate the branch evolutions of a small crystal.

    Branches ++ and +- are integrated; -+ and -- follow from them by parity.

    Parameters
    ----------
    schedule : PulseSchedule
    spectrum : AxialSpectrum
        All axial modes participate; ion count is capped at 4.
    pair : (l, n)
        Target ions: two distinct indices in 0..N-1 (see
        :func:`crystal.check_pair`).
    nbar : float
        Thermal occupation of every mode, stated by the caller; used for
        cutoff sizing and the stored diagnostics (the propagators are
        temperature free).
    n_max : int
        Highest Fock level per mode, a positive integer
        (:func:`crystal._count`) <= 20.
    tol : float
        Global error budget; each step gets tol * dt / tau.

    Raises
    ------
    ValueError
        More than 4 ions, a bad pair, a cutoff that is no positive
        integer or is above 20, or (as NegativeOccupation) an nbar
        :func:`crystal.check_nbar` refuses.
    CutoffInsufficient
        Thermal weight target unreachable, or the thermally weighted
        population of the top level reaches 1e-6 after any accepted step or
        1e-8 at the end.
    StepFailure
        Step size underflows or the step count exceeds ``max_steps``.
    """
    n_ions = spectrum.config.ion_count
    if n_ions > MAX_IONS:
        raise ValueError("oracle is restricted to %d ions" % MAX_IONS)
    l, n = pair = check_pair(pair, n_ions)
    n_max = _count(n_max, "n_max")
    if n_max > MAX_CUTOFF:
        raise ValueError("per-mode cutoff capped at %d" % MAX_CUTOFF)
    freqs = spectrum.frequencies
    n_modes = freqs.size
    nbar = check_nbar(nbar)
    dim = n_max + 1
    _levels_for_weight(nbar, dim)

    couplings = drive_couplings(spectrum)
    # -+ and -- carry the negated weights of +- and ++; P a P = -a with
    # P = diag((-1)^n) makes their propagators P U P of those two.
    branch_weights = np.array(
        [[sl * couplings[l, k] + sn * couplings[n, k] for k in range(n_modes)]
         for sl, sn in _BRANCH_SIGNS[:2]])  # (2, K)
    weights = thermal_weights(nbar, dim)  # the same row for every mode

    tau = schedule.duration
    mu = schedule.mu
    boundaries = schedule.times
    props = np.broadcast_to(np.eye(dim, dtype=complex),
                            (2, n_modes, dim, dim)).copy()

    omega_max = float(freqs.max())
    dt = min(0.25 / omega_max, tau)
    dt_floor = tau * 1e-12
    t = 0.0
    steps = 0
    seg = 0
    peak_top_population = 0.0
    while t < tau * (1.0 - 1e-15):
        if steps >= max_steps:
            raise StepFailure("step count exceeded %d" % max_steps)
        while seg + 1 < boundaries.size - 1 and t >= boundaries[seg + 1]:
            seg += 1
        # Amplitude is discontinuous at boundaries; never integrate across.
        limit = min(boundaries[seg + 1], tau) - t
        step = min(dt, limit)
        half = 0.5 * step
        u_full, u_half, u_resumed = _magnus_step(
            (t, t, t + half), (step, half, half), schedule.amplitudes[seg],
            mu, branch_weights, freqs, dim)
        u_fine = u_resumed @ u_half
        # |P U P| = |U| entrywise, so the mirrored branches add nothing here.
        err = float(np.abs(u_full - u_fine).max())
        budget = tol * step / tau
        steps += 1
        if err <= budget:
            props = u_fine @ props
            t += step
            # thermally weighted population of the top Fock level
            top_population = float(
                (np.abs(props[..., -1, :]) ** 2 * weights).sum(-1).max())
            peak_top_population = max(peak_top_population, top_population)
            if top_population >= _TOP_POPULATION_ABORT:
                raise CutoffInsufficient(
                    "top-level population %.2e exceeds %.0e at t=%.3e "
                    "(%.1f%% of the drive); raise the cutoff or shorten the "
                    "drive" % (top_population, _TOP_POPULATION_ABORT, t,
                               100.0 * t / tau))
            grow = 2.0 if err == 0.0 else \
                min(2.0, max(0.5, 0.9 * (budget / err) ** 0.2))
            # A boundary-clamped step says nothing about the free step size.
            dt = max(step * grow, dt if step < dt else 0.0)
        else:
            dt = 0.5 * step
        if dt < dt_floor:
            raise StepFailure("step size underflow at t=%.3e" % t)

    if top_population >= _TOP_POPULATION_LIMIT:
        raise CutoffInsufficient(
            "top-level population %.2e exceeds %.0e; raise the cutoff or "
            "shorten the drive" % (top_population, _TOP_POPULATION_LIMIT))
    col_norms = np.sum(np.abs(props) ** 2, axis=-2)  # (2, K, dim)
    norm_drift = float((np.abs(col_norms - 1.0) * weights).sum(-1).max())
    if norm_drift >= _NORM_DRIFT_LIMIT:
        raise StepFailure("norm drift %.2e exceeds %.0e"
                          % (norm_drift, _NORM_DRIFT_LIMIT))
    parity = (-1.0) ** np.arange(dim)
    # order (++, +-, -+, --): -+ = P U(+-) P and -- = P U(++) P
    props = np.concatenate(
        [props, props[::-1] * np.outer(parity, parity)])

    return TruncatedState(
        propagators=tuple(props[:, k].copy() for k in range(n_modes)),
        frequencies=freqs.copy(), nbar=nbar, pair=pair,
        norm_drift=norm_drift, top_population=top_population,
        peak_top_population=peak_top_population, step_count=steps)


def _reduced_qubit_state(state, nbar):
    """4x4 spin density matrix after tracing the thermal motion at ``nbar``.

    rho[b, b'] = 1/4 prod_k sum_n p_n (U_{b',k}^dag U_{b,k})[n, n].
    """
    nbar = check_nbar(nbar)
    rho = 0.25 * np.ones((4, 4), dtype=complex)
    for u_modes in state.propagators:
        p = thermal_weights(nbar, u_modes.shape[-1])
        overlaps = np.einsum("anm,bnm,m->ab", np.conj(u_modes), u_modes, p)
        rho = rho * overlaps.T  # [b, b'] = sum_m p_m <m|U_b'^dag U_b|m>
    return rho


def _qubit_fidelity(rho):
    """<Psi_f| rho |Psi_f> with |Psi_f> the ideal conditional-phase image
    of the equal superposition: amplitudes exp(i _PHI_TARGET s_l s_n) / 2."""
    parity = np.array([sl * sn for sl, sn in _BRANCH_SIGNS])
    target = 0.5 * np.exp(1j * _PHI_TARGET * parity)
    return float(np.real(np.conj(target) @ rho @ target))


def fidelity_from_state(state, nbar=None):
    """Gate fidelity against the pi/4 conditional phase, by direct trace
    over the evolved truncated state; ``nbar`` defaults to the state's."""
    return _qubit_fidelity(_reduced_qubit_state(
        state, state.nbar if nbar is None else nbar))
