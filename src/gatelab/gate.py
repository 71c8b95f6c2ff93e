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
ds = e^{i theta} h sin(theta) / theta with theta = x h / 2, at x = omega
+/- mu.  The build (:func:`_kernel_blocks`, which derives S and T)
works in a (detuning, segment, mode) layout, mode axis innermost, and runs
no trig over the grid: every phase is a product of a per-mode table,
e^{i omega h_p / 2} or e^{i omega t_mid}, and a per-detuning one,
e^{i mu h_p / 2} or e^{i mu t_mid}, with one entry per segment, and the
amplitude reads the product's imaginary part.  One assembler,
:func:`_pair_kernels`, turns each block of ``_BLOCK`` detunings into the
form sum_k w_k G_k of every mode-weight row w asked for (a pair's
2 c_l^k c_n^k, a mode's unit row) before it builds the next, so a
benchmark table builds one trap's kernels once.  The thermal fidelity is
the closed form F = 1/4 [1 + e^{-G_l} cos 2(d - g) + e^{-G_n} cos 2(d + g)
+ e^{-G_+} / 2 + e^{-G_-} / 2] (see :func:`thermal_fidelity`), and
:func:`gate_report` and the optimizer score a drive with one function,
:func:`_evaluate`.  :func:`gate_report`, the report stage's one entry
point, builds a schedule's kernels once and reads the phase, the
fidelity and every ion's peak response from them.
"""

from dataclasses import dataclass
import operator

import numpy as np

from .crystal import HBAR, check_nbar
from ._textio import fmt, read_rows, write_rows

TWO_PI = 2.0 * np.pi
PHASE_TARGET = np.pi / 4.0

# Below this phase magnitude the closed forms cancel; switch to series.
_SERIES_THRESHOLD = 3e-3
# Below this half angle |omega +/- mu| max(h) / 2 a (detuning, mode) row
# takes its sinc from direct trig.  The tables' product carries the
# rounding of omega h / 2 and mu h / 2, ~3e-14 rad at 10 MHz and 10 us;
# its share grows as 1 / theta in S and 1 / theta^2 in the triangle
# quotient, and stays near 1e-13 of the kernels' largest entry above 1.
_DIRECT_ANGLE = 1.0
# Detunings per block of the kernel build: a block's (B, P, K) arrays,
# about 160 kB each at 127 modes and 5 segments, stay in the L2 cache, and
# the build touches a few MB of fresh memory, not its whole grid's worth.
_BLOCK = 32
_SERIES_TERMS = 6
_TAYLOR_TERMS = 8
# Uniform time samples of a report's response; fixed, not a setting.
RESPONSE_SAMPLES = 2000
# Sample times per block of a response profile; the last block takes the
# rest, so it holds fewer than twice as many.  A block's (B, K) arrays,
# about 260 kB each at 127 modes, stay in the L2 cache, and no (samples,
# modes) array is held.  Blocks of at least 128 rows that start on
# multiples of 128 get the per-row sums of one whole product from OpenBLAS
# (shorter or shifted ones moved N=19 and N=91 peaks by an ulp).
_SAMPLE_BLOCK = 128


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
        mu = np.asarray(self.mu)
        if mu.shape != () or mu.dtype.kind not in "iuf":
            raise ValueError("mu must be one number, got %r" % (self.mu,))
        if not all(np.all(np.isfinite(v)) for v in (times, amps, mu)):
            raise ValueError("times, amplitudes and mu must be finite")
        if not (mu > 0.0):
            raise ValueError("mu must be positive")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "mu", float(mu))
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


def _e0_parts(x, h):
    """(e^{i theta}, h sin(theta) / theta) with theta = x h / 2, from one
    sine and one cosine pass; the removable singularity is filled with
    the limit h."""
    theta = 0.5 * x * h
    unit = _unit(theta)
    amp = np.divide(unit.imag, theta, out=np.ones_like(theta),
                    where=theta != 0.0)
    amp *= h
    return unit, amp


def _e0(x, h):
    """integral_0^h e^{i x s} ds, exact for all x including 0.

    The midpoint form e^{i theta} h sin(theta) / theta of
    :func:`_e0_parts`, so E0(0) = h and E0(-x) = conj(E0(x)) hold exactly.
    """
    out, amp = _e0_parts(x, h)
    out.real *= amp
    out.imag *= amp
    return out


def _moments(a, h, jmax):
    """M_j = integral_0^h s^j e^{i a s} ds for j = 0..jmax (stacked axis 0).

    Integration by parts gives M_j = (h^j e^{iah} - j M_{j-1}) / (ia), which
    cancels badly for |a h| << 1; there the short Taylor series
    M_j = h^{j+1} sum_k (iah)^k / (k! (j+k+1)) is exact to rounding.  The
    series is evaluated only on those entries, for every j in one product.
    ``a`` and ``h`` are float arrays of one shape.
    """
    shape = np.shape(a)
    a, h = np.ravel(a), np.ravel(h)
    small = np.abs(a * h) < _SERIES_THRESHOLD
    ia = 1j * np.where(small, 1.0, a)  # safe divisor off the small branch
    eah = _unit(a * h)
    hpow = h ** np.arange(jmax + 2)[:, None]
    out = np.empty((jmax + 1, a.size), dtype=complex)
    out[0] = _e0(a, h)
    for j in range(1, jmax + 1):
        out[j] = (hpow[j] * eah - j * out[j - 1]) / ia
    (sel,) = np.nonzero(small)
    k = np.arange(_TAYLOR_TERMS + 1)
    j = np.arange(1, jmax + 1)
    factorial = np.cumprod(np.maximum(k, 1))
    coeff = 1.0 / (factorial[:, None] * (j + k[:, None] + 1))
    series = (1j * a[sel] * h[sel])[:, None] ** k @ coeff
    out[1:, sel] = series.T * hpow[2:, sel]
    return out.reshape((jmax + 1,) + shape)


def _k_series(a, b, h):
    """K = integral_0^h e^{i a s2} integral_0^{s2} e^{i b s1} ds1 ds2 for
    |b h| small, the inner integral expanded in powers of (ib); ``a``,
    ``b`` and ``h`` are float arrays that broadcast to one shape."""
    a, b, h = np.broadcast_arrays(a, b, h)
    j = np.arange(1, _SERIES_TERMS + 1)
    coeff = (1j * b[..., None]) ** (j - 1) / np.cumprod(j)  # (ib)^{j-1} / j!
    moments = np.moveaxis(_moments(a, h, _SERIES_TERMS)[1:], 0, -1)
    return np.sum(coeff * moments, axis=-1)


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


def _kernel_blocks(times, mu, frequencies):
    """Yield (rows, S, T) for each block of at most ``_BLOCK`` detunings
    of the 1-D ``mu``: the slice of ``mu`` it covers, its segment integrals
    S (:func:`first_order_integrals`) and its triangle integrals T[p, k],
    the ordered double integral of sin(mu s2) sin(mu s1) sin(omega_k (s2 -
    s1)) over t_p < s1 < s2 < t_{p+1}, each (B, P, K), mode axis last.

    With p, m = omega +/- mu, A_x = h sin(theta_x) / theta_x and
    theta_x = x h / 2, the segment integral of e^{i x t} is
    e^{i x t_mid} A_x, so S = -i/2 (e^{i p t_mid} A_p - e^{i m t_mid}
    A_m).  T = -Im(lag k1 - k2 - k3 + conj(lag) k4) / 4, with
    lag = e^{2 i mu t_p} and the kernels k1 = K(p, -m), k2 = K(p, -p),
    k3 = K(m, -m) and k4 = K(m, -p) of :func:`_k_series`.  Their
    E0(a + b) are E0(2 mu), h, h and E0(-2 mu) = conj E0(2 mu), so over
    the real divisors m and p, T = -[Re E0(m) + r - A_p Re(lag
    e^{i theta_p})] / 4m - [Re E0(p) + r - A_m Re(conj(lag)
    e^{i theta_m})] / 4p, with r = Re(lag E0(2 mu)) - h and Re E0(x) =
    A_x cos(theta_x).

    Every phase is a product of a per-mode table, e^{i omega h_p / 2} or
    e^{i omega t_mid} (P, K), and a per-detuning one, e^{i mu h_p / 2} or
    e^{i mu t_mid} (M, P), one entry per segment: so e^{i theta} with
    theta = (omega +/- mu) h_p / 2, and the amplitude h sin(theta) / theta
    reads the product's imaginary part.  Two sets of entries leave that
    arithmetic, each found and evaluated once for the whole grid, then
    written into the blocks: the (detuning, mode) rows of
    :func:`_direct_rows`, and the triangle halves whose quotient by a small
    |x h| cancels, each a series on those entries (:func:`_series_half`).
    """
    times = np.asarray(times, dtype=float)
    omega = np.asarray(frequencies, dtype=float)
    h = np.diff(times)
    t0 = times[:-1, None]
    half = 0.5 * h[:, None]
    angle = half * omega
    mode_re, mode_im = np.cos(angle), np.sin(angle)  # e^{i omega h / 2}
    spin = -1j * _unit((t0 + half) * omega)  # -i e^{i omega t_mid}
    m = mu[:, None, None]
    angle = m * half
    tune_re, tune_im = np.cos(angle), np.sin(angle)  # e^{i mu h / 2}
    turn = 0.5 * _unit(m * (t0 + half))  # e^{i mu t_mid} / 2
    lag = _unit(2.0 * m * t0)
    # lag e^{i mu h / 2}, made from lag so that its rounding cancels in T
    bend = lag * (tune_re + 1j * tune_im)
    rest = np.real(lag * _e0(2.0 * m, h[:, None])) - h[:, None]
    plus, minus = omega + m, omega - m  # (M, 1, K)
    # the divisor 1 on rows whose every entry is direct and a series
    inv_p, inv_m = (1.0 / np.where(np.abs(x) * h.max() < _SERIES_THRESHOLD,
                                   1.0, x) for x in (plus, minus))
    direct = _direct_rows(plus, h) + _direct_rows(minus, h)
    series = (_series_half(minus, plus, lag, h),
              _series_half(plus, minus, np.conj(lag), h))
    for start in range(0, mu.size, _BLOCK):
        rows = slice(start, start + _BLOCK)
        # sin and cos of theta_{+/-}, the sines scaled to the amplitudes
        amp_p = mode_im * tune_re[rows]
        cos_m = mode_re * tune_re[rows]
        cross = mode_re * tune_im[rows]
        amp_m = amp_p - cross
        amp_p += cross
        np.multiply(mode_im, tune_im[rows], out=cross)
        cos_p = cos_m - cross
        cos_m += cross
        amp_p *= 2.0 * inv_p[rows]
        amp_m *= 2.0 * inv_m[rows]
        for target, patch in zip((amp_p, cos_p, amp_m, cos_m), direct):
            _patch(target, start, patch)
        # T, with lag^{+/-1} e^{i theta+/-} = e^{i omega h / 2} bend^{+/-1}
        out_m = cos_m
        out_m *= amp_m
        out_m += rest[rows]
        out_p = cos_p
        out_p *= amp_p
        out_p += rest[rows]
        real = mode_re * bend[rows].real
        np.multiply(mode_im, bend[rows].imag, out=cross)
        ahead = real - cross  # Re(lag e^{i theta+})
        ahead *= amp_p
        out_m -= ahead
        real += cross  # Re(conj(lag) e^{i theta-})
        real *= amp_m
        out_p -= real
        out_m *= -0.25 * inv_m[rows]
        out_p *= -0.25 * inv_p[rows]
        _patch(out_m, start, series[0])
        _patch(out_p, start, series[1])
        out_m += out_p
        # S = -i e^{i omega t_mid} [Re(turn) (A+ - A-) + i Im(turn) (A+ + A-)]
        S = np.empty(amp_p.shape, dtype=complex)
        np.subtract(amp_p, amp_m, out=S.real)
        S.real *= turn[rows].real
        np.add(amp_p, amp_m, out=S.imag)
        S.imag *= turn[rows].imag
        S *= spin
        yield rows, S, out_m


def _patch(block, start, patch):
    """Write the entries of ``patch`` (sorted flat indices into the
    grid's (M, P, K) arrays, and their values) that fall in ``block``,
    the (B, P, K) rows of the grid from ``start`` on."""
    index, values = patch
    first = start * block[0].size
    lo, hi = np.searchsorted(index, [first, first + block.size])
    block.reshape(-1)[index[lo:hi] - first] = values[lo:hi]


def _direct_rows(x, h):
    """(amplitude patch, cosine patch) for :func:`_patch`: on the rows of
    ``x`` (M, 1, K) where |x| max(h) / 2 < ``_DIRECT_ANGLE``, the
    amplitude h sin(theta) / theta and cos(theta), theta = x h_p / 2, from
    direct trig (:func:`_e0_parts`).  There the tables' product would
    swamp a small sin(theta) with its rounding; direct trig keeps the
    sinc's relative accuracy and E0(0) = h."""
    b, _, k = np.nonzero(np.abs(x) * (0.5 * h.max()) < _DIRECT_ANGLE)
    unit, amp = _e0_parts(x[b, 0, k][:, None], h)
    index = np.ravel_multi_index((b[:, None], np.arange(h.size), k[:, None]),
                                 (x.shape[0], h.size, x.shape[2])).ravel()
    return (index, amp.ravel()), (index, unit.real.ravel())


def _series_half(x, y, lag, h):
    """A patch for :func:`_patch`: one triangle half
    -Im(lag K(y, -x) - K(x, -x)) / 4 (see :func:`_k_series`) on the
    entries where |x h_p| < ``_SERIES_THRESHOLD``, where its quotient by x
    cancels; ``x``, ``y`` are (M, 1, K) and ``lag`` (M, P, 1)."""
    shape = (x.shape[0], h.size, x.shape[2])
    b, _, k = np.nonzero(np.abs(x) * h.min() < _SERIES_THRESHOLD)
    x, y = x[b, 0, k], y[b, 0, k]
    i, p = np.nonzero(np.abs(x)[:, None] * h < _SERIES_THRESHOLD)
    b, k, x, y = b[i], k[i], x[i], y[i]
    later, same = _k_series(np.stack([y, x]), -x, h[p])
    return np.ravel_multi_index((b, p, k), shape), -0.25 * np.imag(
        lag[b, p, 0] * later - same)


def first_order_integrals(times, mu, frequencies):
    """S[k, p] = integral over segment p of sin(mu t) e^{i omega_k t} dt.

    An array of detunings ``mu`` stacks one S per detuning: the result has
    shape mu.shape + (K, P).
    """
    return _kernels(times, mu, frequencies, ())[0]


def phase_kernels(times, mu, frequencies):
    """Per-mode quadratic-form kernels G_k, shape mu.shape + (K, P, P).

    Omega^T G_k Omega is the ordered double integral of
    Omega(s2) Omega(s1) sin(mu s2) sin(mu s1) sin(omega_k (s2 - s1)) over
    0 < s1 < s2 < tau: diagonal entries are the same-segment triangles,
    off-diagonal pairs split the cross-segment rectangle Im[S_p conj(S_q)]
    (p later than q) evenly across (p, q) and (q, p).
    """
    return _kernels(times, mu, frequencies, np.eye(len(frequencies)))[1]


def _phase_form(S, T, weights):
    """sum_k weights_k G_k (see :func:`phase_kernels`) from ``S`` and the
    triangle integrals ``T``, both (..., P, K), mode axis last: the
    antisymmetric rectangle Im(S diag(weights) S^H) = X - X^T, with
    X = Im(S) diag(weights) Re(S)^T one contraction over modes."""
    X = (S.imag * weights) @ np.swapaxes(S.real, -1, -2)
    lower = np.tril(X - np.swapaxes(X, -1, -2), k=-1)
    G = 0.5 * (lower + np.swapaxes(lower, -1, -2))
    p_idx = np.arange(S.shape[-2])
    G[..., p_idx, p_idx] = T @ weights
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
    return _kernels(times, mu, frequencies,
                    _phase_weights(couplings, [pair]))[1][..., 0, :, :]


def _phase_weights(couplings, pairs):
    """The mode-weight rows 2 c_l^k c_n^k (J, K) of ``pairs``."""
    l, n = np.array(pairs, dtype=int).reshape(-1, 2).T
    return 2.0 * couplings[l] * couplings[n]


def _kernels(times, mu, frequencies, weight_rows):
    """(S, G), mu.shape + (K, P) and + (J, P, P), at any ``mu``."""
    mu = np.asarray(mu, dtype=float)
    S, G, _ = _pair_kernels(times, mu.ravel(), frequencies, weight_rows, None)
    G = G.reshape((len(weight_rows),) + mu.shape + G.shape[1:])
    return (np.swapaxes(S.reshape(mu.shape + S.shape[1:]), -1, -2),
            np.moveaxis(G, 0, -3))


def _pair_kernels(times, mu, frequencies, phase_weights, weights):
    """(S, G, A) of the mode-weight rows ``phase_weights`` (J, K) at the
    1-D detunings ``mu``, each block of :func:`_kernel_blocks` turned into
    all of them before the next is built: the one kernel assembler.

    S (M, P, K) is :func:`first_order_integrals` with the mode axis last.
    G (J M, P, P) stacks the forms sum_k w_k G_k of the rows w (a pair's
    :func:`_phase_weights`, a mode's the unit row) row-major: row j holds
    j M ... (j + 1) M - 1.  A (J M, I, P, P) stacks the same way row j's
    residual forms Re(S^* diag(w) S^T) of the rows w of ``weights[j]``,
    ``weights`` (J, I, K); A is None when ``weights`` is.  Every row's G
    and A are as they would be with that row alone.
    """
    shape = (mu.size, len(times) - 1)
    S = np.empty(shape + (len(frequencies),), dtype=complex)
    G = np.empty((len(phase_weights),) + shape + shape[-1:])
    A = None
    if weights is not None:
        A = np.empty(G.shape[:2] + (weights.shape[1],) + G.shape[2:])
        # Re(S^* w S^T) = R w R^T with R = [Re S, Im S]
        tiled = np.tile(weights, 2)[:, :, None, :]
    for rows, S_block, T_block in _kernel_blocks(times, mu, frequencies):
        S[rows] = S_block
        for j, phase_weight in enumerate(phase_weights):
            G[j, rows] = _phase_form(S_block, T_block, phase_weight)
        if A is not None:
            R = np.concatenate([S_block.real, S_block.imag], axis=-1)
            R_T = np.swapaxes(R, -1, -2)[:, None]
            for j, pair_tiled in enumerate(tiled):
                A[j, rows] = (R[:, None] * pair_tiled) @ R_T
    G = G.reshape((-1,) + G.shape[2:])
    return S, G, None if A is None else A.reshape((-1,) + A.shape[2:])


def thermal_weight(nbar):
    """2(2 nbar + 1), each thermal overlap exponent's |alpha|^2 weight."""
    return 2.0 * (2.0 * check_nbar(nbar) + 1.0)


def thermal_fidelity(phi, alpha_l, alpha_n, nbar, target_phase=PHASE_TARGET):
    """State fidelity of the gate on |+>|+> with thermal motion.

    Parameters
    ----------
    phi : float or (M,)
        Conditional phase (target pi/4 modulo pi).
    alpha_l, alpha_n : (K,) or (M, K) complex
        Single-ion mode displacements i c[ion, k] * alpha_integral.
    nbar : float
        Mean thermal occupation of every mode, one number checked by
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
    weight = thermal_weight(nbar)
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
    target = np.where(np.asarray(phi) >= 0.0, PHASE_TARGET, -PHASE_TARGET)
    return thermal_fidelity(phi, alpha_l, alpha_n, nbar, target_phase=target)


def _phase(G, vec):
    """Conditional phase vec^T G vec of each row of ``vec``."""
    return (vec[:, None, :] @ G @ vec[:, :, None])[:, 0, 0]


def _evaluate(S, G, amplitudes, drive, nbar):
    """(phi, alpha_l, alpha_n, :func:`gate_fidelity`) of the drives
    ``amplitudes`` (M, P) on the pair kernels S (M, P, K), G (M, P, P);
    ``drive`` (2, K) holds the pair's coupling rows."""
    phi = _phase(G, amplitudes)
    disp = (amplitudes[:, None, :] @ S)[:, 0, :]
    alpha_l, alpha_n = 1j * drive[:, None, :] * disp
    return phi, alpha_l, alpha_n, gate_fidelity(phi, alpha_l, alpha_n, nbar)


# ---------------------------------------------------------------------------
# time-resolved response

def _partial_blocks(schedule, S, omega, ts):
    """Yield (t, I) for each block of ``_SAMPLE_BLOCK`` of the 1-D sample
    times ``ts``, the last holding the rest: the block's times and
    I[t, k] = integral_0^t Omega sin(mu s) e^{i omega_k s} ds, (B, K).

    ``S`` (P, K) is the schedule's :func:`first_order_integrals` with the
    mode axis last.  I is its completed segments plus the partial segment
    up to t; the drive is off outside [0, tau], so a time before 0 gives 0
    and a time past tau the full integral.  The per-schedule tables, the
    cumulative segment sums of S and e^{i omega t_p} per segment, are
    built once; every entry of a block is the same elementwise arithmetic
    as over all of ``ts`` at once, so the blocks are bit for bit slices of
    the whole.
    """
    times = schedule.times
    amps = schedule.amplitudes
    mu = schedule.mu
    done = np.concatenate([np.zeros((1, omega.size), dtype=complex),
                           np.cumsum(S * amps[:, None], axis=0)])
    starts = _unit(omega * times[:-1, None])  # one row per segment
    widths = np.diff(times)
    for t in np.split(ts, range(_SAMPLE_BLOCK, ts.size - _SAMPLE_BLOCK + 1,
                                _SAMPLE_BLOCK)):
        idx = np.clip(np.searchsorted(times, t, side="right") - 1,
                      0, schedule.segment_count - 1)
        t_start = times[idx][:, None]
        h = np.clip(t[:, None] - t_start, 0.0, widths[idx][:, None])
        part = _first_order(starts[idx], _unit(mu * t_start),
                            _e0(omega + mu, h), _e0(omega - mu, h))
        part *= amps[idx][:, None]
        part += done[idx]
        yield t, part


def _response_peaks(schedule, spectrum, S, drive):
    """Peak axial excursion (metres) of every ion under the fully driven
    branch, from the schedule's S (P, K) and the pair's coupling rows
    ``drive`` (2, K); see :func:`gate_report`."""
    freqs = spectrum.frequencies
    ts = np.union1d(np.linspace(0.0, schedule.duration, RESPONSE_SAMPLES),
                    schedule.times)
    scale = (drive[0] + drive[1]) * np.sqrt(
        2.0 * HBAR / (spectrum.config.ion_mass * freqs))
    peak = np.zeros(spectrum.modes.shape[1])
    for t, raw in _partial_blocks(schedule, S, freqs, ts):
        angle = freqs[None, :] * t[:, None]
        real_part = np.sin(angle)
        real_part *= raw.real
        cos = np.cos(angle, out=angle)
        cos *= raw.imag
        real_part -= cos
        real_part *= scale
        q = real_part @ spectrum.modes  # (B, N)
        np.maximum(peak, np.abs(q).max(axis=0), out=peak)
    return peak


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
    """Parse a file written by :func:`write_schedule`.

    Raises ValueError unless the rows list segments 0..P-1 in order, once
    each, and every segment starts exactly where the one before it ends.
    """
    meta, rows = read_rows(path)
    count = int(meta["segment_count"])
    if [int(fields[0]) for fields in rows] != list(range(count)):
        raise ValueError("schedule rows do not list segments 0..%d in "
                         "order, once each" % (count - 1))
    starts = [float(fields[1]) for fields in rows]
    ends = [float(fields[2]) for fields in rows]
    if starts[1:] != ends[:-1]:
        raise ValueError("a segment does not start where the one before "
                         "it ends")
    pair = None
    if "target_pair" in meta:
        l, n = meta["target_pair"].split(",")
        pair = (int(l), int(n))
    return PulseSchedule(times=starts + ends[-1:],
                         amplitudes=[float(fields[3]) * TWO_PI
                                     for fields in rows],
                         mu=float(meta["mu_hz"]) * TWO_PI, target_pair=pair)


# ---------------------------------------------------------------------------
# gate report

@dataclass(frozen=True)
class GateReport:
    """Everything a designed gate is judged by.

    ``alpha_l`` / ``alpha_n`` are the per-mode displacements left by driving
    each target ion alone; the branch displacements are their signed sums.
    ``response_peak`` holds each ion's peak axial excursion (metres) under
    the fully driven branch (see :func:`gate_report`).
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


def gate_report(schedule, spectrum, pair):
    """Evaluate a schedule on a spectrum: phase, displacements, fidelity
    and each ion's peak axial excursion.  Raises ValueError unless
    ``pair`` is two distinct ions of the crystal.

    The segment kernels S and G are built once (:func:`_pair_kernels`).
    The fidelity is :func:`gate_fidelity` at the trap's ``temperature_nbar``
    (for another, re-dress the trap with ``dataclasses.replace``), against
    the ideal gate whose phase sign matches the achieved one, scored as the
    optimizer scores the grid [mu]: a scan point's report carries its phase
    and fidelity bit for bit.

    The response is read from the same S.  The coherent mode amplitudes
    are sampled on ``RESPONSE_SAMPLES`` uniform times (plus the segment
    boundaries), and the physical displacements q_j(t) = sum_k b_j^k
    sqrt(2 hbar / M omega_k) Re[A_k(t) e^{-i omega_k t}] of the fully
    driven branch give each ion's peak |q_j|.  With A_k = i d_k I_k, d the
    pair's summed couplings and I the drive integral up to t
    (:func:`_partial_blocks`), Re[A_k e^{-i omega_k t}] = d_k (Re I_k
    sin omega_k t - Im I_k cos omega_k t).

    The samples stream through in blocks of ``_SAMPLE_BLOCK`` times, each
    folded into a running per-ion maximum, so memory does not grow with
    the sample count times the mode count: at N=127 and 2000 samples a
    report peaks near 2.8 MB under tracemalloc.  A peak's last bits
    follow the block layout (see ``_SAMPLE_BLOCK``); ``BENCH_27.json``
    records the blocks' memory and byte checks.

    A peak is its largest sample, so it reads low.  Against 200 000 samples
    on the best gate of the N=127 paper scan, the worst ion is 23 % low at
    500 samples, 2.9 % at 2000 (targets 1.0 %, normalized response 1e-3)
    and 0.57 % at 8000.
    """
    l, n = pair = check_pair(pair, spectrum.config.ion_count)
    couplings = drive_couplings(spectrum)
    drive = couplings[[l, n]]
    freqs = spectrum.frequencies
    S, G, _ = _pair_kernels(schedule.times, np.array([schedule.mu]), freqs,
                            _phase_weights(couplings, [pair]), None)
    phi, alpha_l, alpha_n, fidelity = _evaluate(
        S, G, schedule.amplitudes[None, :], drive,
        spectrum.config.temperature_nbar)
    return GateReport(pair=pair, schedule=schedule,
                      phi=float(phi[0]), fidelity=float(fidelity[0]),
                      alpha_l=alpha_l[0], alpha_n=alpha_n[0],
                      mode_frequencies=freqs.copy(),
                      response_peak=_response_peaks(schedule, spectrum, S[0],
                                                    drive))


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
    normalized = report.response_normalized
    rows += [["ion", str(j), fmt(peak), fmt(normalized[j])]
             for j, peak in enumerate(report.response_peak)]
    write_rows(path, "gatelab gate report", meta, rows)
