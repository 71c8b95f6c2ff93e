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
step's Magnus exponent is a phase similarity of a real symmetric tridiagonal
matrix, which one batched real eigensolve exponentiates.
"""

from dataclasses import dataclass
import math

import numpy as np

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
# conditional phase of the ideal gate the fidelity is taken against
_PHI_TARGET = math.pi / 4.0
# spin eigenvalues (s_l, s_n) of the four branches, in propagator order
_BRANCH_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

_GAUSS_NODES = ((3.0 - math.sqrt(3.0)) / 6.0, (3.0 + math.sqrt(3.0)) / 6.0)


def thermal_weights(nbar, levels):
    """p_n = nbar^n / (1 + nbar)^{n+1} for n = 0..levels-1."""
    n = np.arange(levels)
    if nbar == 0.0:
        out = np.zeros(levels)
        out[0] = 1.0
        return out
    ratio = nbar / (1.0 + nbar)
    return ratio ** n / (1.0 + nbar)


def _levels_for_weight(nbar, cap):
    """Fewest initial levels whose thermal tail is below the weight target."""
    if nbar == 0.0:
        return 1
    ratio = nbar / (1.0 + nbar)
    needed = int(math.ceil(math.log(_WEIGHT_TAIL) / math.log(ratio)))
    if needed > cap:
        raise CutoffInsufficient(
            "thermal mixture at nbar=%.3g needs %d levels for tail %.0e, "
            "cutoff allows %d" % (nbar, needed, _WEIGHT_TAIL, cap))
    return needed


@dataclass(frozen=True)
class TruncatedState:
    """Evolved branch propagators of a small crystal in truncated Fock space.

    ``propagators[k]`` has shape (4, dim, dim): the four spin-branch
    propagators of mode k, columns indexed by initial number state.  The
    branch order matches the closed-form route: (++, +-, -+, --).
    """

    propagators: tuple
    frequencies: np.ndarray
    nbar: np.ndarray
    pair: tuple
    norm_drift: float
    top_population: float
    step_count: int

    @property
    def mode_count(self):
        return len(self.propagators)


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
    [a, a^+], where the truncated [a, a^+] is diag(1, ..., 1, -n_max).  So
    i theta = D R D^* with D = diag(exp(i n arg z)) and R real symmetric
    tridiagonal, and exp(-i theta) = D V exp(-i Lambda) V^T D^*.
    """
    widths = np.asarray(widths, dtype=float)
    nodes = np.asarray(starts, dtype=float)[:, None] \
        + widths[:, None] * _GAUSS_NODES  # (S, 2)
    force = -amp * np.sin(mu * nodes)
    phase = np.exp(1j * nodes[..., None] * freqs)  # (S, 2, K)
    z = force[:, :1] * phase[:, 0] + force[:, 1:] * phase[:, 1]  # (S, K)
    area = (np.conj(phase[:, 0]) * phase[:, 1]).imag
    c = math.sqrt(3.0) * widths * widths / 12.0
    hop = (0.5 * widths[:, None] * np.abs(z))[:, None] * branch_weights
    shift = (-2.0 * c[:, None] * force[:, :1] * force[:, 1:]
             * area)[:, None] * branch_weights ** 2  # (S, B, K)
    level = np.arange(dim)
    commutator = np.ones(dim)
    commutator[-1] = -(dim - 1.0)
    r = np.zeros(hop.shape + (dim, dim))
    r[..., level, level] = shift[..., None] * commutator
    r[..., level[1:], level[:-1]] = hop[..., None] * np.sqrt(level[1:])
    r[..., level[:-1], level[1:]] = r[..., level[1:], level[:-1]]
    evals, evecs = np.linalg.eigh(r)
    u = (evecs * np.exp(-1j * evals)[..., None, :]) \
        @ np.swapaxes(evecs, -1, -2)
    d = np.exp(1j * level * np.angle(z)[..., None])[:, None]  # (S, 1, K, dim)
    return d[..., :, None] * u * np.conj(d)[..., None, :]


def evolve(schedule, spectrum, pair, nbar=0.0, n_max=MAX_CUTOFF, tol=1e-8,
           max_steps=2_000_000):
    """Numerically integrate the branch evolutions of a small crystal.

    Branches ++ and +- are integrated; -+ and -- follow from them by parity.

    Parameters
    ----------
    schedule : PulseSchedule
    spectrum : AxialSpectrum
        All axial modes participate; ion count is capped at 4.
    pair : (l, n)
        Target ions.
    nbar : scalar or (K,)
        Thermal occupations, used for cutoff sizing and the stored
        diagnostics (the propagators themselves are temperature free).
    n_max : int
        Highest Fock level per mode (<= 20).
    tol : float
        Global error budget; each step gets tol * dt / tau.

    Raises
    ------
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
    if n_max > MAX_CUTOFF:
        raise ValueError("per-mode cutoff capped at %d" % MAX_CUTOFF)
    freqs = spectrum.frequencies
    n_modes = freqs.size
    nbar_arr = np.broadcast_to(np.asarray(nbar, dtype=float),
                               (n_modes,)).copy()
    if np.any(nbar_arr < 0.0):
        raise ValueError("nbar must be >= 0")
    dim = n_max + 1
    for nb in nbar_arr:
        _levels_for_weight(nb, dim)

    couplings = drive_couplings(spectrum)
    l, n = pair
    # -+ and -- carry the negated weights of +- and ++; P a P = -a with
    # P = diag((-1)^n) makes their propagators P U P of those two.
    branch_weights = np.array(
        [[sl * couplings[l, k] + sn * couplings[n, k] for k in range(n_modes)]
         for sl, sn in _BRANCH_SIGNS[:2]])  # (2, K)
    weights = np.array([thermal_weights(nb, dim) for nb in nbar_arr])

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
        frequencies=freqs.copy(), nbar=nbar_arr, pair=(int(l), int(n)),
        norm_drift=norm_drift, top_population=top_population,
        step_count=steps)


def _reduced_qubit_state(state, nbar=None):
    """4x4 spin density matrix after tracing the thermal motion.

    rho[b, b'] = 1/4 prod_k sum_n p_n (U_{b',k}^dag U_{b,k})[n, n].
    """
    if nbar is None:
        nbar_arr = state.nbar
    else:
        nbar_arr = np.broadcast_to(np.asarray(nbar, dtype=float),
                                   (state.mode_count,))
    rho = 0.25 * np.ones((4, 4), dtype=complex)
    for k, u_modes in enumerate(state.propagators):
        dim = u_modes.shape[-1]
        p = thermal_weights(float(nbar_arr[k]), dim)
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
    over the evolved truncated state."""
    return _qubit_fidelity(_reduced_qubit_state(state, nbar=nbar))
