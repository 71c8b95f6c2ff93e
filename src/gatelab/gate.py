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
Every segment integral reads one primitive, E0(x) = integral_0^h e^{i x s}
ds, made from one sine and one cosine pass; the first-order integrals and
the triangles share E0(omega +/- mu), and each start phase is a product of
e^{i omega t_p} and e^{i mu t_p} (see :func:`_segment_kernels`).  The
thermal fidelity is the closed form F = 1/4 [1 + e^{-G_l} cos 2(d - g) +
e^{-G_n} cos 2(d + g) + e^{-G_+} / 2 + e^{-G_-} / 2] (see
:func:`thermal_fidelity`), and :func:`gate_report` and the optimizer score
a drive with one function, :func:`_evaluate`.
"""

from dataclasses import dataclass
import operator

import numpy as np

from .crystal import HBAR, check_nbar
from ._textio import fmt, read_rows, write_rows

TWO_PI = 2.0 * np.pi

# Below this phase magnitude the closed forms cancel; switch to series.
_SERIES_THRESHOLD = 3e-3
_SERIES_TERMS = 6
_TAYLOR_TERMS = 8
RESPONSE_SAMPLES = 2000  # uniform time samples of a report's response


def check_pair(pair, ion_count=None, name="pair"):
    """``pair`` as two distinct int ion indices, also in 0..ion_count-1
    when ``ion_count`` is given: the one statement of a valid pair.  An
    index is an integer (numpy integers included), never a float.  Raises
    ValueError, its message led by ``name``, for anything else."""
    span = "" if ion_count is None else " in 0..%d" % (ion_count - 1)
    got = pair
    try:
        got = ", ".join(map(str, pair))
        l, n = map(operator.index, pair)
    except (TypeError, ValueError):  # not iterable, not two, not integers
        l = n = None
    if (l is None or l == n
            or span and not 0 <= min(l, n) <= max(l, n) < ion_count):
        raise ValueError("%s needs two distinct ion indices%s, got %s"
                         % (name, span, got))
    return l, n


@dataclass(frozen=True)
class PulseSchedule:
    """Piecewise-constant drive: ``amplitudes[p]`` (rad/s) on
    ``[times[p], times[p+1])``, modulation frequency ``mu`` (rad/s).

    ``target_pair`` optionally records which two ions the force acts on
    (set it with ``dataclasses.replace``); evaluation functions take the
    pair explicitly so a schedule can be re-targeted without copying.
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
        if not all(np.all(np.isfinite(v)) for v in (times, amps, self.mu)):
            raise ValueError("times, amplitudes and mu must be finite")
        if not (self.mu > 0.0):
            raise ValueError("mu must be positive")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amplitudes", amps)
        if self.target_pair is not None:
            object.__setattr__(self, "target_pair",
                               check_pair(self.target_pair,
                                          name="target pair"))

    @classmethod
    def uniform(cls, duration, amplitudes, mu):
        """Equal-length segments spanning ``[0, duration]``."""
        amps = np.asarray(amplitudes, dtype=float)
        times = np.linspace(0.0, float(duration), amps.size + 1)
        return cls(times=times, amplitudes=amps, mu=float(mu))

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

def _unit(angle):
    """e^{i angle}, from one cos and one sin pass."""
    out = np.empty(np.shape(angle), dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _e0(x, h):
    """integral_0^h e^{i x s} ds, exact for all x including 0.

    The midpoint form h (cos theta + i sin theta) sin(theta) / theta with
    theta = x h / 2 takes one sin and one cos pass; its removable
    singularity is filled with the limit h, so E0(0) = h and
    E0(-x) = conj(E0(x)) hold exactly.
    """
    theta = 0.5 * x * h
    out = _unit(theta)
    amp = np.divide(out.imag, theta, out=np.ones_like(theta),
                    where=theta != 0.0)
    amp *= h
    out.real *= amp
    out.imag *= amp
    return out


def _moments(a, h, jmax):
    """M_j = integral_0^h s^j e^{i a s} ds for j = 0..jmax (stacked axis 0).

    Integration by parts gives M_j = (h^j e^{iah} - j M_{j-1}) / (ia), which
    cancels badly for |a h| << 1; there a short Taylor series in (iah) is
    exact to rounding.  The series is evaluated only on those entries.
    ``a`` and ``h`` are float arrays of one shape.
    """
    small = np.abs(a * h) < _SERIES_THRESHOLD
    ia = 1j * np.where(small, 1.0, a)  # safe divisor off the small branch
    eah = _unit(a * h)
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


def _k_series(a, b, h):
    """K = integral_0^h e^{i a s2} integral_0^{s2} e^{i b s1} ds1 ds2 for
    |b h| small, the inner integral expanded in powers of (ib); ``a``,
    ``b`` and ``h`` are float arrays of one shape."""
    moments = _moments(a, h, _SERIES_TERMS)
    series = np.zeros(b.shape, dtype=complex)
    coeff = np.ones(b.shape, dtype=complex)  # (ib)^{j-1} / j!
    for j in range(1, _SERIES_TERMS + 1):
        coeff = coeff / j
        series = series + coeff * moments[j]
        coeff = coeff * (1j * b)
    return series


def _first_order(start, turn, e_plus, e_minus):
    """integral of sin(mu t) e^{i omega t} over segments [t0, t0 + h]:
    -i/2 e^{i omega t0} [e^{i mu t0} E0(omega + mu) - e^{-i mu t0}
    E0(omega - mu)], from ``start`` = e^{i omega t0}, ``turn`` =
    e^{i mu t0} and the two E0 arrays, which it overwrites."""
    e_plus *= turn
    e_minus *= np.conj(turn)
    e_plus -= e_minus
    e_plus *= -0.5j * start
    return e_plus


def _triangle_pair(x, y, e_x, e_y, lag, rest, h):
    """Im(lag K(y, -x) - K(x, -x)), the two triangle kernels that share
    b = -x, with K as in :func:`_k_series`.

    The generic form K(a, b) = [E0(a + b) - E0(a)] / (ib) puts both over
    the real divisor x: [Re(lag E0(y - x)) - h + Re E0(x)
    - Re(lag E0(y))] / x, where ``rest`` = Re(lag E0(y - x)) - h.  Where
    |x h| is small the quotient cancels; on those entries alone both
    kernels are series.
    """
    out = e_x.real + rest
    out -= lag.real * e_y.real
    out += lag.imag * e_y.imag
    small = np.abs(x) * h < _SERIES_THRESHOLD
    out /= np.where(small, 1.0, x)
    sel = np.nonzero(small)
    x_s, y_s, h_s, lag_s = (np.broadcast_to(v, out.shape)[sel]
                            for v in (x, y, h, lag))
    out[sel] = np.imag(lag_s * _k_series(y_s, -x_s, h_s)
                       - _k_series(x_s, -x_s, h_s))
    return out


def _segment_kernels(times, mu, frequencies):
    """(S, T) at the detunings ``mu``, each of shape mu.shape + (K, P).

    S[k, p] is the integral over segment p of sin(mu t) e^{i omega_k t}
    dt, and T[k, p] the ordered double integral of sin(mu s2) sin(mu s1)
    sin(omega_k (s2 - s1)) over the triangle t_p < s1 < s2 < t_{p+1}.
    Both read one E0(omega + mu) and one E0(omega - mu).  The start
    phases e^{i (omega +/- mu) t_p} are products of e^{i omega t_p} and
    e^{+/-i mu t_p}.  T = -Im(lag k1 - k2 - k3 + conj(lag) k4) / 4, with
    lag = e^{2 i mu t_p} and the kernels k1 = K(p, -m), k2 = K(p, -p),
    k3 = K(m, -m) and k4 = K(m, -p), where p, m = omega +/- mu.  Their
    E0(a + b) are E0(2 mu), h, h and E0(-2 mu) = conj E0(2 mu), taken at
    the exact 2 mu.
    """
    times = np.asarray(times, dtype=float)
    mu = np.asarray(mu, dtype=float)[..., None, None]
    omega = np.asarray(frequencies, dtype=float)[:, None]
    t0 = times[:-1]
    h = np.diff(times)
    plus = omega + mu
    minus = omega - mu
    e_plus = _e0(plus, h)
    e_minus = _e0(minus, h)
    turn = _unit(mu * t0)
    lag = turn * turn
    rest = np.real(lag * _e0(2.0 * mu, h)) - h
    T = _triangle_pair(minus, plus, e_minus, e_plus, lag, rest, h)
    T += _triangle_pair(plus, minus, e_plus, e_minus, np.conj(lag), rest, h)
    T *= -0.25
    S = _first_order(_unit(omega * t0), turn, e_plus, e_minus)
    return S, T


def first_order_integrals(times, mu, frequencies):
    """S[k, p] = integral over segment p of sin(mu t) e^{i omega_k t} dt.

    An array of detunings ``mu`` stacks one S per detuning: the result has
    shape mu.shape + (K, P).
    """
    return _segment_kernels(times, mu, frequencies)[0]


def phase_kernels(times, mu, frequencies):
    """Per-mode quadratic-form kernels G_k, shape (K, P, P).

    Omega^T G_k Omega is the ordered double integral of
    Omega(s2) Omega(s1) sin(mu s2) sin(mu s1) sin(omega_k (s2 - s1)) over
    0 < s1 < s2 < tau: diagonal entries are the same-segment triangles,
    off-diagonal pairs split the cross-segment rectangle Im[S_p conj(S_q)]
    (p later than q) evenly across (p, q) and (q, p).
    """
    S, T = _segment_kernels(times, mu, frequencies)
    return _phase_form(S[..., None, :], T[..., None, :], np.ones(1))


def _phase_form(S, T, weights):
    """sum_k weights_k G_k (see :func:`phase_kernels`) from ``S`` and the
    triangle integrals ``T``, both (..., K, P): the antisymmetric rectangle
    Im(S^T diag(weights) conj(S)) in one contraction over modes."""
    rect = np.imag(np.swapaxes(S, -1, -2) @ (weights[:, None] * np.conj(S)))
    lower = np.tril(rect, k=-1)
    G = 0.5 * (lower + np.swapaxes(lower, -1, -2))
    p_idx = np.arange(S.shape[-1])
    G[..., p_idx, p_idx] = weights @ T
    return G


# ---------------------------------------------------------------------------
# gate quantities

def alpha_integral(schedule, frequencies):
    """The bare coherent displacement i integral_0^tau Omega(t) sin(mu t)
    e^{i omega_k t} dt per mode."""
    S = first_order_integrals(schedule.times, schedule.mu, frequencies)
    return 1j * (S @ schedule.amplitudes)


def mode_displacements(schedule, couplings, frequencies, ion):
    """Final displacement of every mode when only ``ion`` is driven."""
    return couplings[ion] * alpha_integral(schedule, frequencies)


def mode_phase_integrals(schedule, frequencies):
    """Per-mode ordered double integral D_k (see :func:`phase_kernels`)."""
    G = phase_kernels(schedule.times, schedule.mu, frequencies)
    return np.einsum("p,kpq,q->k", schedule.amplitudes, G,
                     schedule.amplitudes)


def entangling_phase(schedule, couplings, frequencies, pair):
    """Conditional phase phi between ions ``pair = (l, n)``.

    The second-order Magnus term gives each branch the phase +C_b^2 D
    summed over modes; its coefficient of s_l s_n is
    phi = 2 sum_k c_l^k c_n^k D_k = Omega^T G Omega.
    """
    G = pair_phase_matrix(schedule.times, schedule.mu, frequencies,
                          couplings, pair)
    return float(schedule.amplitudes @ G @ schedule.amplitudes)


def pair_phase_matrix(times, mu, frequencies, couplings, pair):
    """Quadratic-form matrix G with phi = Omega^T G Omega for one pair."""
    return _pair_kernels(times, mu, frequencies, couplings, pair)[1]


def _pair_kernels(times, mu, frequencies, couplings, pair):
    """(S, G): :func:`first_order_integrals` and :func:`pair_phase_matrix`
    at the detunings ``mu``, built together in one :func:`_phase_form`
    call for every detuning."""
    S, T = _segment_kernels(times, mu, frequencies)
    l, n = pair
    return S, _phase_form(S, T, 2.0 * couplings[l] * couplings[n])


def thermal_fidelity(phi, alpha_l, alpha_n, nbar, target_phase=np.pi / 4.0):
    """State fidelity of the gate on |+>|+> with thermal motion.

    Parameters
    ----------
    phi : float or (M,)
        Conditional phase (target pi/4 modulo pi).
    alpha_l, alpha_n : (K,) or (M, K) complex
        Single-ion mode displacements i c[ion, k] * alpha_integral.
    nbar : (K,) or scalar
        Mean thermal occupation per mode, checked by
        :func:`crystal.check_nbar`.
    target_phase : float or (M,)
        Conditional phase of the ideal gate compared against; the default
        pi/4 and its mirror -pi/4 describe the same gate up to a local
        frame flip on one qubit.

    The four spin branches displace mode k by A_k^b = s_l alpha_l^k +
    s_n alpha_n^k and pick up conditional phase s_l s_n phi.  Tracing the
    thermal motion leaves, per branch pair, a geometric-phase factor and a
    Gaussian overlap penalty exp(-(2 nbar + 1)|A^b - A^b'|^2 / 2).  The 16
    pairs sum to F = 1/4 [1 + e^{-G_l} cos 2(d - g) + e^{-G_n} cos 2(d + g)
    + e^{-G_+} / 2 + e^{-G_-} / 2], with d = phi - target_phase,
    g = sum_k Im(conj(alpha_l) alpha_n) and G_x = 2 sum_k (2 nbar + 1)|x|^2
    for x = alpha_l, alpha_n, alpha_l +/- alpha_n.  Stacked inputs score M
    gates at once, row by row, and return an (M,) array; one gate returns a
    float.
    """
    alpha_l = np.asarray(alpha_l, dtype=complex)
    alpha_n = np.asarray(alpha_n, dtype=complex)
    weight = 2.0 * (2.0 * check_nbar(nbar, alpha_l.shape[-1]) + 1.0)
    decay = [np.exp(-np.sum(weight * np.abs(x) ** 2, axis=-1))
             for x in (alpha_l, alpha_n, alpha_l + alpha_n, alpha_l - alpha_n)]
    delta = np.asarray(phi) - target_phase
    g = np.sum(np.imag(np.conj(alpha_l) * alpha_n), axis=-1)
    fidelity = 0.25 * (1.0 + decay[0] * np.cos(2.0 * (delta - g))
                       + decay[1] * np.cos(2.0 * (delta + g))
                       + 0.5 * decay[2] + 0.5 * decay[3])
    return float(fidelity) if np.ndim(fidelity) == 0 else fidelity


def gate_fidelity(phi, alpha_l, alpha_n, nbar):
    """:func:`thermal_fidelity` against the nearer of the two locally
    equivalent ideal gates: conditional phase +pi/4 or -pi/4 by the sign of
    ``phi``, +pi/4 for a zero phase.  Stacks as :func:`thermal_fidelity`
    does."""
    target = np.where(np.asarray(phi) >= 0.0, np.pi / 4.0, -np.pi / 4.0)
    return thermal_fidelity(phi, alpha_l, alpha_n, nbar, target_phase=target)


def _phase(G, vec):
    """Conditional phase vec^T G vec of each row of ``vec``."""
    return (vec[:, None, :] @ G @ vec[:, :, None])[:, 0, 0]


def _evaluate(S, G, amplitudes, drive, nbar):
    """(phi, alpha_l, alpha_n, :func:`gate_fidelity`) of the drives
    ``amplitudes`` (M, P) on the pair kernels S (M, K, P), G (M, P, P);
    ``drive`` (2, K) holds the pair's coupling rows."""
    phi = _phase(G, amplitudes)
    disp = (S @ amplitudes[:, :, None])[:, :, 0]
    alpha_l, alpha_n = 1j * drive[:, None, :] * disp
    return phi, alpha_l, alpha_n, gate_fidelity(phi, alpha_l, alpha_n, nbar)


# ---------------------------------------------------------------------------
# time-resolved response

def partial_drive_integrals(schedule, frequencies, sample_times):
    """integral_0^t Omega sin(mu s) e^{i omega_k s} ds at each sample time.

    Shape (T, K): completed segments via the closed-form segment integrals,
    plus a partial segment up to t.  The drive is off outside [0, tau]: a
    time before 0 gives 0 and a time past tau the full integral.
    """
    times = schedule.times
    amps = schedule.amplitudes
    mu = schedule.mu
    omega = np.asarray(frequencies, dtype=float)
    ts = np.asarray(sample_times, dtype=float)
    S = first_order_integrals(times, mu, omega)  # (K, P)
    done = np.concatenate([np.zeros((omega.size, 1), dtype=complex),
                           np.cumsum(S * amps[None, :], axis=1)], axis=1)
    idx = np.clip(np.searchsorted(times, ts, side="right") - 1,
                  0, schedule.segment_count - 1)
    t_start = times[idx][:, None]
    h = np.clip(ts[:, None] - t_start, 0.0, np.diff(times)[idx][:, None])
    start = _unit(omega * times[:-1, None])[idx]  # one row per segment
    part = _first_order(start, _unit(mu * t_start),
                        _e0(omega + mu, h), _e0(omega - mu, h))  # (T, K)
    part *= amps[idx][:, None]
    part += done[:, idx].T
    return part


def response_profile(schedule, spectrum, pair, samples):
    """Peak axial excursion (metres) of every ion, fully driven branch.

    Samples the coherent mode amplitudes on ``samples`` uniform times (plus
    the segment boundaries), reconstructs the physical displacements
    q_j(t) = sum_k b_j^k sqrt(2 hbar / M omega_k) Re[A_k(t) e^{-i omega_k t}],
    and returns each ion's peak excursion.  With A_k = i d_k I_k, d the
    pair's summed couplings and I :func:`partial_drive_integrals`,
    Re[A_k e^{-i omega_k t}] = d_k (Re I_k sin omega_k t
    - Im I_k cos omega_k t).  Raises ValueError unless ``pair`` is two
    distinct ions of the crystal.

    A peak is its largest sample, so it reads low.  Against 200 000 samples
    on the best gate of the N=127 paper scan, the worst ion is 23 % low at
    500 samples, 2.9 % at 2000 (targets 1.0 %, normalized response 1e-3)
    and 0.57 % at 8000.
    """
    l, n = check_pair(pair, spectrum.config.ion_count)
    couplings = drive_couplings(spectrum)
    freqs = spectrum.frequencies
    ts = np.union1d(np.linspace(0.0, schedule.duration, samples),
                    schedule.times)
    raw = partial_drive_integrals(schedule, freqs, ts)  # (T, K)
    angle = freqs[None, :] * ts[:, None]
    real_part = np.sin(angle)
    real_part *= raw.real
    cos = np.cos(angle, out=angle)
    cos *= raw.imag
    real_part -= cos
    real_part *= (couplings[l] + couplings[n]) * np.sqrt(
        2.0 * HBAR / (spectrum.config.ion_mass * freqs))
    q = real_part @ spectrum.modes  # (T, N)
    return np.abs(q).max(axis=0)


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
    ``response_peak`` holds each ion's peak axial excursion (metres) under
    the fully driven branch (see :func:`response_profile`).
    """

    pair: tuple
    schedule: PulseSchedule
    phi: float
    fidelity: float
    alpha_l: np.ndarray
    alpha_n: np.ndarray
    mode_frequencies: np.ndarray
    response_peak: np.ndarray

    @property
    def response_normalized(self):
        """Peaks over the larger target-ion peak (zeros if that is 0)."""
        peak = self.response_peak
        ref = max(peak[list(self.pair)])
        return peak / ref if ref > 0.0 else np.zeros_like(peak)

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


def gate_report(schedule, spectrum, pair, samples=RESPONSE_SAMPLES):
    """Evaluate a schedule on a spectrum: phase, displacements, fidelity
    and the per-ion response profile (``samples`` uniform time samples,
    whose peaks read a few percent low: see :func:`response_profile`).

    The fidelity is :func:`gate_fidelity` at the trap's ``temperature_nbar``
    (for another, re-dress the trap with ``dataclasses.replace``), against
    the ideal gate whose phase sign matches the achieved one, scored as the
    optimizer scores the grid [mu]: a scan point's report carries its phase
    and fidelity bit for bit.  Raises ValueError unless ``pair`` is two
    distinct ions of the crystal.
    """
    l, n = pair = check_pair(pair, spectrum.config.ion_count)
    couplings = drive_couplings(spectrum)
    freqs = spectrum.frequencies
    S, G = _pair_kernels(schedule.times, np.array([schedule.mu]), freqs,
                         couplings, pair)
    phi, alpha_l, alpha_n, fidelity = _evaluate(
        S, G, schedule.amplitudes[None, :], couplings[[l, n]],
        spectrum.config.temperature_nbar)
    return GateReport(pair=pair, schedule=schedule,
                      phi=float(phi[0]), fidelity=float(fidelity[0]),
                      alpha_l=alpha_l[0], alpha_n=alpha_n[0],
                      mode_frequencies=freqs.copy(),
                      response_peak=response_profile(schedule, spectrum, pair,
                                                     samples))


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
