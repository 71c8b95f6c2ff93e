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
matrix R, and exp(-i R) = cos R - i sin R is one batched Taylor series in
real matmuls, its degree and squarings set by the batch's largest 1-norm so
that the remainder stays below the unit roundoff.
"""

from dataclasses import dataclass
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
# conditional phase of the ideal gate the fidelity is taken against
_PHI_TARGET = math.pi / 4.0
# spin eigenvalues (s_l, s_n) of the four branches, in propagator order
_BRANCH_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

_GAUSS_NODES = ((3.0 - math.sqrt(3.0)) / 6.0, (3.0 + math.sqrt(3.0)) / 6.0)


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
    tridiagonal, and exp(-i theta) = D exp(-i R) D^* (see
    :func:`_exp_minus_i`).
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
    # diagonal, then sub- and superdiagonal, of the flattened dim x dim R
    r = np.zeros(hop.shape + (dim * dim,))
    r[..., ::dim + 1] = shift[..., None] * commutator
    r[..., dim::dim + 1] = hop[..., None] * np.sqrt(level[1:])
    r[..., 1::dim + 1] = r[..., dim::dim + 1]
    u = _exp_minus_i(r.reshape(hop.shape + (dim, dim)))
    d = np.exp(1j * level * np.angle(z)[..., None])[:, None]  # (S, 1, K, dim)
    u *= d[..., :, None] * np.conj(d)[..., None, :]
    return u


def _exp_minus_i(r):
    """exp(-i r) = cos r - i sin r for a batch of real symmetric r.

    Truncated Taylor series in real matmuls, with scaling and squaring
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).  With theta the
    batch's largest 1-norm after s halvings (theta <= 1), the degree m is
    the least m >= 3 with remainder theta^(m+1) / (m+1)! / (1 - theta /
    (m+2)) <= 2^-53.  cos is even in r and sin odd, so both are sums of the
    powers of q = r^2 up to m // 2; the s squarings are complex.  A Magnus
    step of the oracle has theta <= 0.02: m = 6 or 7, s = 0, four real
    matmuls.
    """
    dim = r.shape[-1]
    theta = float(np.abs(r).sum(-1).max())  # row sums: r is symmetric
    squarings = math.ceil(math.log2(theta)) if theta > 1.0 else 0
    r = np.ldexp(r, -squarings)
    theta = math.ldexp(theta, -squarings)
    degree, term = 3, theta ** 4 / 24.0  # term = theta^(m+1) / (m+1)!
    while term > _UNIT_ROUNDOFF * (1.0 - theta / (degree + 2)):
        degree += 1
        term *= theta / (degree + 1)
    # cos r - 1 and sin r / r - 1 as sums of the powers of q
    q = power = r @ r
    cos = q * -0.5
    sinc = q * (-1.0 / 6.0)
    for k in range(2, degree // 2 + 1):
        power = power @ q
        cos += power * ((-1) ** k / math.factorial(2 * k))
        if 2 * k + 1 <= degree:
            sinc += power * ((-1) ** k / math.factorial(2 * k + 1))
    cos.reshape(-1, dim * dim)[:, ::dim + 1] += 1.0
    u = np.empty(r.shape, dtype=complex)
    u.real = cos
    u.imag = -(r + r @ sinc)
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
