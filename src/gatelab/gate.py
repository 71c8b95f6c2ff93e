"""Segmented spin-dependent-force gate kernels.

A pulse of piecewise-constant amplitude Omega_p and fixed modulation
frequency mu drives a spin-dependent axial force on two target ions l, n.
In the frame of mode k (frequency omega_k) the branch Hamiltonian is

    H_b(t) / hbar = -Omega(t) sin(mu t) C_k^b (a_k^dag e^{i omega_k t} + h.c.),
    C_k^b = s_l c_l^k + s_n c_n^k,    s = +/-1 spin eigenvalues,

with mode weights c_n^k = b_n^k sqrt(omega_z / omega_k) (the mode amplitude
referred to the centre-of-mass ground-state size).  The propagator per
branch and mode is a displacement D(A) times a phase; the inter-branch
(conditional) phase and the residual displacements reduce to first- and
second-order time integrals of sin(mu t) e^{i omega t} over the segments.
Everything here evaluates those integrals in closed form, with series
fallbacks where the closed forms lose precision, so detuning scans can hit
exact resonances without special-casing.  The series are evaluated only on
the entries that select them, and the segment integrals accept an array of
detunings, so a scan builds the kernels of its whole grid in one call.
"""

from dataclasses import dataclass

import numpy as np

from .crystal import HBAR
from .errors import NegativeOccupation
from ._textio import fmt, read_rows, write_rows

TWO_PI = 2.0 * np.pi

# Below this phase magnitude the closed forms cancel; switch to series.
_SERIES_THRESHOLD = 3e-3
_SERIES_TERMS = 6
_TAYLOR_TERMS = 8


@dataclass(frozen=True)
class PulseSchedule:
    """Piecewise-constant drive: ``amplitudes[p]`` (rad/s) on
    ``[times[p], times[p+1])``, modulation frequency ``mu`` (rad/s).

    ``target_pair`` optionally records which two ions the force acts on;
    evaluation functions take the pair explicitly so a schedule can be
    re-targeted without copying.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    mu: float
    target_pair: tuple = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        amps = np.asarray(self.amplitudes, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("times needs at least two boundaries")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if times[0] != 0.0:
            raise ValueError("schedule must start at t = 0")
        if amps.shape != (times.size - 1,):
            raise ValueError("need one amplitude per segment")
        if not (self.mu > 0.0):
            raise ValueError("mu must be positive")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amplitudes", amps)
        if self.target_pair is not None:
            l, n = self.target_pair
            if int(l) == int(n):
                raise ValueError("target pair must be two distinct ions")
            object.__setattr__(self, "target_pair", (int(l), int(n)))

    @classmethod
    def uniform(cls, duration, amplitudes, mu, target_pair=None):
        """Equal-length segments spanning ``[0, duration]``."""
        amps = np.asarray(amplitudes, dtype=float)
        times = np.linspace(0.0, float(duration), amps.size + 1)
        return cls(times=times, amplitudes=amps, mu=float(mu),
                   target_pair=target_pair)

    @property
    def duration(self):
        return float(self.times[-1])

    @property
    def segment_count(self):
        return self.amplitudes.size

    @property
    def max_amplitude(self):
        """Largest segment amplitude magnitude, rad/s."""
        return float(np.abs(self.amplitudes).max())


def drive_couplings(spectrum):
    """Dimensionless mode weights c[n, k] = b_k(n) sqrt(omega_z / omega_k).

    The dimensional couplings referred to the centre-of-mass ground-state
    size sqrt(hbar / (2 M omega_z)), so the drive amplitude Omega carries
    all the units.  Rows are ions, columns modes.
    """
    ratio = np.sqrt(spectrum.config.omega_z / spectrum.frequencies)
    return spectrum.modes.T * ratio[None, :]


# ---------------------------------------------------------------------------
# primitive integrals

def _e0(x, h):
    """integral_0^h e^{i x s} ds, exact for all x including 0.

    The midpoint form h e^{i x h / 2} sinc(x h / (2 pi)) has no removable
    singularity, so no branch switch is needed.
    """
    return h * np.exp(0.5j * x * h) * np.sinc(x * h / TWO_PI)


def _moments(a, h, jmax):
    """M_j = integral_0^h s^j e^{i a s} ds for j = 0..jmax (stacked axis 0).

    Integration by parts gives M_j = (h^j e^{iah} - j M_{j-1}) / (ia), which
    cancels badly for |a h| << 1; there a short Taylor series in (iah) is
    exact to rounding.  The series is evaluated only on those entries.
    ``a`` and ``h`` are float arrays of one shape.
    """
    small = np.abs(a * h) < _SERIES_THRESHOLD
    ia = 1j * np.where(small, 1.0, a)  # safe divisor off the small branch
    eah = np.exp(1j * a * h)
    sel = np.nonzero(small)
    h_sel = h[sel]
    z = 1j * a[sel] * h_sel

    out = np.empty((jmax + 1,) + a.shape, dtype=complex)
    out[0] = _e0(a, h)
    hpow = np.ones_like(h)
    for j in range(1, jmax + 1):
        hpow = hpow * h
        out[j] = (hpow * eah - j * out[j - 1]) / ia
        # Taylor: M_j = h^{j+1} sum_k z^k / (k! (j+k+1))
        term = np.ones_like(z)
        series = term / (j + 1)
        for k in range(1, _TAYLOR_TERMS + 1):
            term = term * z / k
            series = series + term / (j + k + 1)
        out[j][sel] = hpow[sel] * h_sel * series
    return out


def _k_kernel(a, b, h, e0_a, e0_ab):
    """K = integral_0^h e^{i a s2} integral_0^{s2} e^{i b s1} ds1 ds2.

    Generic form [E0(a+b) - E0(a)] / (ib), with ``e0_a`` = E0(a) =
    ``_e0(a, h)`` and ``e0_ab`` = E0(a+b) passed in, so kernels sharing
    ``a`` compute E0(a) once and b = -a passes E0(0) = h.  For |b h| small
    the difference cancels; on those entries alone the inner integral is
    expanded in powers of (ib) instead.
    """
    a, b, h = np.broadcast_arrays(a, b, h)
    small = np.abs(b * h) < _SERIES_THRESHOLD
    out = e0_ab - e0_a
    out /= 1j * np.where(small, 1.0, b)

    sel = np.nonzero(small)
    b_sel = b[sel]
    moments = _moments(a[sel], h[sel], _SERIES_TERMS)
    series = np.zeros(b_sel.shape, dtype=complex)
    coeff = np.ones(b_sel.shape, dtype=complex)  # (ib)^{j-1} / j!
    for j in range(1, _SERIES_TERMS + 1):
        coeff = coeff / j
        series = series + coeff * moments[j]
        coeff = coeff * (1j * b_sel)
    out[sel] = series
    return out


def _sin_exp_segment(omega, mu, t_start, h):
    """integral over [t_start, t_start + h] of sin(mu t) e^{i omega t} dt."""
    plus = omega + mu
    minus = omega - mu
    return -0.5j * (np.exp(1j * plus * t_start) * _e0(plus, h)
                    - np.exp(1j * minus * t_start) * _e0(minus, h))


def first_order_integrals(times, mu, frequencies):
    """S[k, p] = integral over segment p of sin(mu t) e^{i omega_k t} dt.

    An array of detunings ``mu`` stacks one S per detuning: the result has
    shape mu.shape + (K, P).
    """
    times = np.asarray(times, dtype=float)
    mu = np.asarray(mu, dtype=float)[..., None, None]
    omega = np.asarray(frequencies, dtype=float)
    t_start = times[:-1][None, :]
    h = np.diff(times)[None, :]
    return _sin_exp_segment(omega[:, None], mu, t_start, h)


def _triangle_integrals(times, mu, frequencies):
    """T[k, p]: ordered double integral of sin(mu s2) sin(mu s1)
    sin(omega_k (s2 - s1)) over the triangle t_p < s1 < s2 < t_{p+1}.

    Stacks over an array ``mu`` as :func:`first_order_integrals` does.
    """
    times = np.asarray(times, dtype=float)
    mu = np.asarray(mu, dtype=float)[..., None, None]
    omega = np.asarray(frequencies, dtype=float)[:, None]
    ta = times[:-1][None, :]
    h = np.diff(times)[None, :]
    phase = np.exp(2j * mu * ta)
    plus = omega + mu
    minus = omega - mu
    e0_plus = _e0(plus, h)
    e0_minus = _e0(minus, h)
    # k1 - k2 - k3 + k4, accumulated in place; k2 and k3 have a + b = 0
    # exactly, where E0 is h exactly
    acc = phase * _k_kernel(plus, -minus, h, e0_plus, _e0(plus - minus, h))
    acc -= _k_kernel(plus, -plus, h, e0_plus, h)
    acc -= _k_kernel(minus, -minus, h, e0_minus, h)
    acc += np.conj(phase) * _k_kernel(minus, -plus, h, e0_minus,
                                      _e0(minus - plus, h))
    return -0.25 * np.imag(acc)


def phase_kernels(times, mu, frequencies):
    """Per-mode quadratic-form kernels G_k, shape (K, P, P).

    Omega^T G_k Omega is the ordered double integral of
    Omega(s2) Omega(s1) sin(mu s2) sin(mu s1) sin(omega_k (s2 - s1)) over
    0 < s1 < s2 < tau: diagonal entries are the same-segment triangles,
    off-diagonal pairs split the cross-segment rectangle Im[S_p conj(S_q)]
    (p later than q) evenly across (p, q) and (q, p).
    """
    return _phase_kernels(first_order_integrals(times, mu, frequencies),
                          _triangle_integrals(times, mu, frequencies))


def _phase_kernels(S, T):
    """:func:`phase_kernels` from the first-order integrals ``S`` and the
    triangle integrals ``T`` at one detuning."""
    rect = np.imag(S[:, :, None] * np.conj(S[:, None, :]))  # [k, p, q]
    lower = np.tril(rect, k=-1)
    G = 0.5 * (lower + np.transpose(lower, (0, 2, 1)))
    p_idx = np.arange(S.shape[1])
    G[:, p_idx, p_idx] = T
    return G


# ---------------------------------------------------------------------------
# gate quantities

def alpha_integral(schedule, frequencies, weights=1.0):
    """Coherent displacement i w_k integral_0^tau Omega(t) sin(mu t)
    e^{i omega_k t} dt per mode, where ``weights`` are the dimensionless
    mode weights of the driven ion (default 1, giving the bare integral
    times i)."""
    S = first_order_integrals(schedule.times, schedule.mu, frequencies)
    return 1j * np.asarray(weights) * (S @ schedule.amplitudes)


def mode_displacements(schedule, couplings, frequencies, ion):
    """Final displacement of every mode when only ``ion`` is driven."""
    return alpha_integral(schedule, frequencies, couplings[ion])


def mode_phase_integrals(schedule, frequencies):
    """Per-mode ordered double integral D_k (see :func:`phase_kernels`)."""
    G = phase_kernels(schedule.times, schedule.mu, frequencies)
    return np.einsum("p,kpq,q->k", schedule.amplitudes, G,
                     schedule.amplitudes)


def entangling_phase(schedule, couplings, frequencies, pair):
    """Conditional phase phi between ions ``pair = (l, n)``.

    The second-order Magnus term gives each branch the phase +C_b^2 D
    summed over modes; its coefficient of s_l s_n is
    phi = 2 sum_k c_l^k c_n^k D_k.
    """
    l, n = pair
    D = mode_phase_integrals(schedule, frequencies)
    return float(2.0 * np.sum(couplings[l] * couplings[n] * D))


def pair_phase_matrix(times, mu, frequencies, couplings, pair):
    """Quadratic-form matrix G with phi = Omega^T G Omega for one pair."""
    return _pair_kernels(times, mu, frequencies, couplings, pair)[1]


def _pair_kernels(times, mu, frequencies, couplings, pair):
    """(S, G): :func:`first_order_integrals` and :func:`pair_phase_matrix`
    at the detunings ``mu``, built together.

    S and the triangle integrals are built for every detuning at once; each
    detuning's G is then contracted over modes on its own, in the order
    :func:`phase_kernels` gives, and the triangle integrals are dropped.
    """
    S = first_order_integrals(times, mu, frequencies)
    T = _triangle_integrals(times, mu, frequencies)
    l, n = pair
    weights = 2.0 * couplings[l] * couplings[n]
    G = np.empty(S.shape[:-2] + 2 * S.shape[-1:])
    for i in np.ndindex(S.shape[:-2]):
        G[i] = np.einsum("k,kpq->pq", weights, _phase_kernels(S[i], T[i]))
    return S, G


_BRANCH_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def thermal_fidelity(phi, alpha_l, alpha_n, nbar, target_phase=np.pi / 4.0):
    """State fidelity of the gate on |+>|+> with thermal motion.

    Parameters
    ----------
    phi : float or (M,)
        Conditional phase (target pi/4 modulo pi).
    alpha_l, alpha_n : (K,) or (M, K) complex
        Single-ion mode displacements i c[ion, k] * alpha_integral.
    nbar : (K,) or scalar
        Mean thermal occupation per mode.
    target_phase : float or (M,)
        Conditional phase of the ideal gate compared against; the default
        pi/4 and its mirror -pi/4 describe the same gate up to a local
        frame flip on one qubit.

    The four spin branches displace mode k by A_k^b = s_l alpha_l^k +
    s_n alpha_n^k and pick up conditional phase s_l s_n phi.  Tracing the
    thermal motion leaves, per branch pair, a geometric-phase factor and a
    Gaussian overlap penalty exp(-(2 nbar + 1)|A^b - A^b'|^2 / 2).

    Stacked inputs score M gates at once, row by row (the 16 branch pairs
    are looped over, never held together) and return an (M,) array; one
    gate returns a float.
    """
    alpha_l = np.asarray(alpha_l, dtype=complex)
    alpha_n = np.asarray(alpha_n, dtype=complex)
    nbar = np.broadcast_to(np.asarray(nbar, dtype=float), alpha_l.shape)
    if np.any(nbar < 0.0):
        raise NegativeOccupation("nbar must be >= 0")
    weight = 2.0 * nbar + 1.0
    branch = [sl * alpha_l + sn * alpha_n for sl, sn in _BRANCH_SIGNS]
    parity = [sl * sn for sl, sn in _BRANCH_SIGNS]
    delta = np.asarray(phi) - target_phase
    total = 0.0j
    for b in range(4):
        for bp in range(4):
            cross = np.conj(branch[bp]) * branch[b]
            geometric = np.sum(np.imag(cross), axis=-1)
            decay = 0.5 * np.sum(weight * np.abs(branch[b] - branch[bp]) ** 2,
                                 axis=-1)
            total += np.exp(1j * (delta * (parity[b] - parity[bp])
                                  + geometric) - decay)
    fidelity = total.real / 16.0
    return float(fidelity) if np.ndim(fidelity) == 0 else fidelity


def gate_fidelity(phi, alpha_l, alpha_n, nbar):
    """:func:`thermal_fidelity` against the nearer of the two locally
    equivalent ideal gates: conditional phase +pi/4 or -pi/4 by the sign of
    ``phi``, +pi/4 for a zero phase.  Stacks as :func:`thermal_fidelity`
    does."""
    target = np.where(np.asarray(phi) >= 0.0, np.pi / 4.0, -np.pi / 4.0)
    return thermal_fidelity(phi, alpha_l, alpha_n, nbar, target_phase=target)


# ---------------------------------------------------------------------------
# time-resolved response

@dataclass(frozen=True)
class ResponseProfile:
    """Peak axial excursion per ion under the fully driven spin branch.

    ``peak`` is in metres; ``normalized`` divides by the larger of the two
    target-ion peaks, so locality shows up as normalized << 1 away from the
    targets.
    """

    peak: np.ndarray
    normalized: np.ndarray


def partial_drive_integrals(schedule, frequencies, sample_times):
    """integral_0^t Omega sin(mu s) e^{i omega_k s} ds at each sample time.

    Shape (T, K): completed segments via the closed-form segment integrals,
    plus a partial segment up to t.
    """
    times = schedule.times
    amps = schedule.amplitudes
    omega = np.asarray(frequencies, dtype=float)
    ts = np.asarray(sample_times, dtype=float)
    S = first_order_integrals(times, schedule.mu, omega)  # (K, P)
    done = np.concatenate([np.zeros((omega.size, 1), dtype=complex),
                           np.cumsum(S * amps[None, :], axis=1)], axis=1)
    idx = np.clip(np.searchsorted(times, ts, side="right") - 1,
                  0, schedule.segment_count - 1)
    t_start = times[idx]
    h = np.clip(ts - t_start, 0.0, None)
    part = _sin_exp_segment(omega[None, :], schedule.mu,
                            t_start[:, None], h[:, None])  # (T, K)
    return done[:, idx].T + amps[idx][:, None] * part


def response_profile(schedule, spectrum, pair, samples=2000):
    """Axial displacement envelope of every ion, fully driven branch.

    Samples the coherent mode amplitudes on a uniform grid (plus the segment
    boundaries), reconstructs the physical displacements
    q_j(t) = sum_k b_j^k sqrt(2 hbar / M omega_k) Re[A_k(t) e^{-i omega_k t}],
    and records each ion's peak excursion.
    """
    couplings = drive_couplings(spectrum)
    l, n = pair
    drive = couplings[l] + couplings[n]
    freqs = spectrum.frequencies
    ts = np.union1d(np.linspace(0.0, schedule.duration, samples),
                    schedule.times)
    raw = partial_drive_integrals(schedule, freqs, ts)  # (T, K)
    amp = 1j * drive[None, :] * raw
    zero_point = np.sqrt(2.0 * HBAR
                         / (spectrum.config.ion_mass * freqs))
    real_part = np.real(amp * np.exp(-1j * freqs[None, :] * ts[:, None]))
    q = (real_part * zero_point[None, :]) @ spectrum.modes  # (T, N)
    peak = np.abs(q).max(axis=0)
    ref = max(peak[l], peak[n])
    normalized = peak / ref if ref > 0.0 else np.zeros_like(peak)
    return ResponseProfile(peak=peak, normalized=normalized)


# ---------------------------------------------------------------------------
# serialization

def write_schedule(schedule, path):
    """Write the segment table (frequencies and amplitudes in plain Hz)."""
    meta = [("segment_count", schedule.segment_count),
            ("mu_hz", fmt(schedule.mu / TWO_PI)),
            ("duration_s", fmt(schedule.duration))]
    if schedule.target_pair is not None:
        meta.append(("target_pair", "%d,%d" % schedule.target_pair))
    meta.append(("columns", "segment\tt_start_s\tt_end_s\tamplitude_hz"))
    rows = [[str(p), fmt(schedule.times[p]), fmt(schedule.times[p + 1]),
             fmt(schedule.amplitudes[p] / TWO_PI)]
            for p in range(schedule.segment_count)]
    write_rows(path, "gatelab pulse schedule", meta, rows)


def read_schedule(path):
    """Parse a file written by :func:`write_schedule`."""
    meta, rows = read_rows(path)
    count = int(meta["segment_count"])
    times = np.zeros(count + 1)
    amps = np.zeros(count)
    for fields in rows:
        p = int(fields[0])
        times[p] = float(fields[1])
        times[p + 1] = float(fields[2])
        amps[p] = float(fields[3]) * TWO_PI
    pair = None
    if "target_pair" in meta:
        l, n = meta["target_pair"].split(",")
        pair = (int(l), int(n))
    return PulseSchedule(times=times, amplitudes=amps,
                         mu=float(meta["mu_hz"]) * TWO_PI, target_pair=pair)


# ---------------------------------------------------------------------------
# gate report

@dataclass(frozen=True)
class GateReport:
    """Everything a designed gate is judged by.

    ``alpha_l`` / ``alpha_n`` are the per-mode displacements left by driving
    each target ion alone; the branch displacements are their signed sums.
    ``response_peak`` / ``response_normalized`` hold each ion's peak axial
    excursion under the fully driven branch, in metres and relative to the
    larger target-ion peak (see :func:`response_profile`).
    """

    pair: tuple
    schedule: PulseSchedule
    phi: float
    fidelity: float
    alpha_l: np.ndarray
    alpha_n: np.ndarray
    mode_frequencies: np.ndarray
    response_peak: np.ndarray
    response_normalized: np.ndarray

    @property
    def max_amplitude(self):
        return self.schedule.max_amplitude

    @property
    def mode_alpha_abs(self):
        """(K, 2) table of |alpha| per mode for the two driven ions."""
        return np.column_stack([np.abs(self.alpha_l), np.abs(self.alpha_n)])

    @property
    def residual_norm(self):
        """Root of the total leftover displacement, sum over both ions."""
        return float(np.sqrt(np.sum(np.abs(self.alpha_l) ** 2)
                             + np.sum(np.abs(self.alpha_n) ** 2)))


def gate_report(schedule, spectrum, pair, nbar=None, samples=2000):
    """Evaluate a schedule on a spectrum: phase, displacements, fidelity
    and the per-ion response profile (``samples`` uniform time samples).

    ``nbar`` defaults to the per-mode occupations of the trap config.  The
    fidelity is :func:`gate_fidelity`, against the ideal gate whose phase
    sign matches the achieved one.
    """
    couplings = drive_couplings(spectrum)
    freqs = spectrum.frequencies
    l, n = pair
    if nbar is None:
        nbar = spectrum.config.nbar_per_mode(spectrum.mode_count)
    alpha_l = mode_displacements(schedule, couplings, freqs, l)
    alpha_n = mode_displacements(schedule, couplings, freqs, n)
    phi = entangling_phase(schedule, couplings, freqs, pair)
    profile = response_profile(schedule, spectrum, pair, samples=samples)
    return GateReport(pair=(int(l), int(n)), schedule=schedule, phi=phi,
                      fidelity=gate_fidelity(phi, alpha_l, alpha_n, nbar),
                      alpha_l=alpha_l, alpha_n=alpha_n,
                      mode_frequencies=freqs.copy(),
                      response_peak=profile.peak,
                      response_normalized=profile.normalized)


def write_report(report, path):
    """Write the gate report (frequencies and amplitudes in plain Hz)."""
    sched = report.schedule
    meta = [("pair", "%d,%d" % report.pair),
            ("fidelity", fmt(report.fidelity)),
            ("phi_rad", fmt(report.phi)),
            ("mu_hz", fmt(sched.mu / TWO_PI)),
            ("duration_s", fmt(sched.duration)),
            ("segment_count", sched.segment_count),
            ("times_s", ",".join(fmt(t) for t in sched.times)),
            ("amplitudes_hz",
             ",".join(fmt(a / TWO_PI) for a in sched.amplitudes)),
            ("max_amplitude_hz", fmt(report.max_amplitude / TWO_PI)),
            ("columns",
             "kind\tindex\tvalue_1\tvalue_2\tvalue_3\tvalue_4\tvalue_5"),
            ("mode_columns", "frequency_hz\talpha_l_re\talpha_l_im"
             "\talpha_n_re\talpha_n_im"),
            ("ion_columns", "peak_m\tnormalized")]
    rows = [["mode", str(k), fmt(report.mode_frequencies[k] / TWO_PI),
             fmt(report.alpha_l[k].real), fmt(report.alpha_l[k].imag),
             fmt(report.alpha_n[k].real), fmt(report.alpha_n[k].imag)]
            for k in range(report.mode_frequencies.size)]
    rows += [["ion", str(j), fmt(report.response_peak[j]),
              fmt(report.response_normalized[j])]
             for j in range(report.response_peak.size)]
    write_rows(path, "gatelab gate report", meta, rows)


def read_report(path):
    """Parse a file written by :func:`write_report`; the fidelity is the
    one quoted in the header."""
    meta, rows = read_rows(path)
    l, n = meta["pair"].split(",")
    pair = (int(l), int(n))
    times = np.array([float(v) for v in meta["times_s"].split(",")])
    amps = TWO_PI * np.array(
        [float(v) for v in meta["amplitudes_hz"].split(",")])
    schedule = PulseSchedule(times=times, amplitudes=amps,
                             mu=float(meta["mu_hz"]) * TWO_PI,
                             target_pair=pair)
    modes = []
    ions = []
    for fields in rows:
        if fields[0] == "mode":
            modes.append([float(v) for v in fields[2:7]])
        elif fields[0] == "ion":
            ions.append([float(v) for v in fields[2:4]])
    modes = np.asarray(modes)
    freqs = modes[:, 0] * TWO_PI
    alpha_l = modes[:, 1] + 1j * modes[:, 2]
    alpha_n = modes[:, 3] + 1j * modes[:, 4]
    ions = np.asarray(ions)
    return GateReport(pair=pair, schedule=schedule,
                      phi=float(meta["phi_rad"]),
                      fidelity=float(meta["fidelity"]),
                      alpha_l=alpha_l, alpha_n=alpha_n,
                      mode_frequencies=freqs,
                      response_peak=ions[:, 0], response_normalized=ions[:, 1])
