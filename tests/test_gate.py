"""Gate kernel tests.

The closed-form segment integrals are checked against adaptive quadrature
on the same integrands (scipy.integrate), including exact and near
resonance where the closed forms switch to series.  The thermal fidelity is
checked against its zero-force limits, its symmetries and the 16-branch-pair
sum its closed form is reduced from; the full dynamical check against direct
propagation lives in the oracle tests.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, dblquad

from gatelab import crystal as cr
from gatelab import gate as gt
from gatelab import modes as md
from gatelab._textio import read_rows
from gatelab.errors import NegativeOccupation


def quad_first_order(mu, omega, ta, tb):
    re, _ = quad(lambda t: math.sin(mu * t) * math.cos(omega * t), ta, tb,
                 epsabs=1e-13, epsrel=1e-12, limit=400)
    im, _ = quad(lambda t: math.sin(mu * t) * math.sin(omega * t), ta, tb,
                 epsabs=1e-13, epsrel=1e-12, limit=400)
    return re + 1j * im


def quad_triangle(mu, omega, ta, tb):
    val, _ = dblquad(
        lambda s1, s2: math.sin(mu * s2) * math.sin(mu * s1)
        * math.sin(omega * (s2 - s1)),
        ta, tb, lambda s2: ta, lambda s2: s2,
        epsabs=1e-13, epsrel=1e-12)
    return val


# The segment kernels as first written: a complex exp and an np.sinc per
# E0, each start phase its own complex exp, and E0(omega +/- mu) built
# apart for S and for T.  Kept as a reference for the table build.

def ref_e0(x, h):
    return h * np.exp(0.5j * x * h) * np.sinc(x * h / (2.0 * np.pi))


def ref_moments(a, h, jmax):
    small = np.abs(a * h) < gt._SERIES_THRESHOLD
    ia = 1j * np.where(small, 1.0, a)
    eah = np.exp(1j * a * h)
    sel = np.nonzero(small)
    h_sel = h[sel]
    z = 1j * a[sel] * h_sel
    out = np.empty((jmax + 1,) + a.shape, dtype=complex)
    out[0] = ref_e0(a, h)
    hpow = np.ones_like(h)
    for j in range(1, jmax + 1):
        hpow = hpow * h
        out[j] = (hpow * eah - j * out[j - 1]) / ia
        term = np.ones_like(z)
        series = term / (j + 1)
        for k in range(1, gt._TAYLOR_TERMS + 1):
            term = term * z / k
            series = series + term / (j + k + 1)
        out[j][sel] = hpow[sel] * h_sel * series
    return out


def ref_k_kernel(a, b, h, e0_a, e0_ab):
    a, b, h = np.broadcast_arrays(a, b, h)
    small = np.abs(b * h) < gt._SERIES_THRESHOLD
    out = e0_ab - e0_a
    out /= 1j * np.where(small, 1.0, b)
    sel = np.nonzero(small)
    b_sel = b[sel]
    moments = ref_moments(a[sel], h[sel], gt._SERIES_TERMS)
    series = np.zeros(b_sel.shape, dtype=complex)
    coeff = np.ones(b_sel.shape, dtype=complex)
    for j in range(1, gt._SERIES_TERMS + 1):
        coeff = coeff / j
        series = series + coeff * moments[j]
        coeff = coeff * (1j * b_sel)
    out[sel] = series
    return out


def ref_first_order(times, mu, frequencies):
    times = np.asarray(times, dtype=float)
    mu = np.asarray(mu, dtype=float)[..., None, None]
    omega = np.asarray(frequencies, dtype=float)[:, None]
    t_start = times[:-1][None, :]
    h = np.diff(times)[None, :]
    plus = omega + mu
    minus = omega - mu
    return -0.5j * (np.exp(1j * plus * t_start) * ref_e0(plus, h)
                    - np.exp(1j * minus * t_start) * ref_e0(minus, h))


def ref_triangle(times, mu, frequencies):
    times = np.asarray(times, dtype=float)
    mu = np.asarray(mu, dtype=float)[..., None, None]
    omega = np.asarray(frequencies, dtype=float)[:, None]
    ta = times[:-1][None, :]
    h = np.diff(times)[None, :]
    phase = np.exp(2j * mu * ta)
    plus = omega + mu
    minus = omega - mu
    e0_plus = ref_e0(plus, h)
    e0_minus = ref_e0(minus, h)
    acc = phase * ref_k_kernel(plus, -minus, h, e0_plus,
                               ref_e0(plus - minus, h))
    acc -= ref_k_kernel(plus, -plus, h, e0_plus, h)
    acc -= ref_k_kernel(minus, -minus, h, e0_minus, h)
    acc += np.conj(phase) * ref_k_kernel(minus, -plus, h, e0_minus,
                                         ref_e0(minus - plus, h))
    return -0.25 * np.imag(acc)


def longdouble_first_order(times, mu, omega):
    """S[k, p] from the antiderivatives of e^{i (omega +/- mu) t} in
    np.longdouble, for one detuning ``mu``."""
    ld = np.longdouble
    t = np.asarray(times, dtype=ld)
    out = np.empty((len(omega), t.size - 1), dtype=complex)
    for k, w in enumerate(omega):
        s_re = np.zeros(t.size - 1, dtype=ld)
        s_im = np.zeros(t.size - 1, dtype=ld)
        for sign in (1, -1):
            x = ld(w) + sign * ld(mu)
            # re + i im = (e^{i x t_{p+1}} - e^{i x t_p}) / (i x)
            if x == 0:
                re, im = t[1:] - t[:-1], 0
            else:
                re = (np.sin(x * t[1:]) - np.sin(x * t[:-1])) / x
                im = -(np.cos(x * t[1:]) - np.cos(x * t[:-1])) / x
            # S = [integral(omega + mu) - integral(omega - mu)] / (2i)
            s_re += sign * im / 2
            s_im -= sign * re / 2
        out[k] = s_re.astype(float) + 1j * s_im.astype(float)
    return out


class TestFirstOrderIntegrals:
    @pytest.mark.parametrize("omega", [0.0, 3.7, 12.0, 11.999997, 12.000003,
                                       60.0])
    def test_against_quadrature(self, omega):
        mu = 12.0
        times = np.array([0.0, 0.4, 1.1, 1.9])
        S = gt.first_order_integrals(times, mu, [omega])
        for p in range(3):
            want = quad_first_order(mu, omega, times[p], times[p + 1])
            assert S[0, p] == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_resonance_analytic(self):
        # omega = mu over [0, tau]:
        # sin^2(mu tau)/(2 mu) + i (tau/2 - sin(2 mu tau)/(4 mu))
        mu = 2 * math.pi * 10.05e6
        tau = 50e-6
        S = gt.first_order_integrals([0.0, tau], mu, [mu])
        want = (math.sin(mu * tau) ** 2 / (2 * mu)
                + 1j * (tau / 2 - math.sin(2 * mu * tau) / (4 * mu)))
        assert S[0, 0] == pytest.approx(want, rel=1e-10)

    def test_split_segment_sums(self):
        # splitting a segment cannot change the integral
        mu, omega = 7.3, 6.9
        one = gt.first_order_integrals([0.0, 2.0], mu, [omega])
        two = gt.first_order_integrals([0.0, 0.8, 2.0], mu, [omega])
        assert two[0].sum() == pytest.approx(one[0, 0], rel=1e-12)


def triangles(times, mu, frequencies):
    """The same-segment triangle integrals T, mu.shape + (K, P): the
    diagonal of :func:`gate.phase_kernels`."""
    return np.diagonal(gt.phase_kernels(times, mu, frequencies),
                       axis1=-2, axis2=-1)


def pair_kernels(times, grid, omega, couplings, pair):
    """(S, G) of :func:`gate._pair_kernels` for one pair."""
    return gt._pair_kernels(times, grid, omega,
                            gt._phase_weights(couplings, [pair]))


class TestSeriesMoments:
    def test_entries_do_not_depend_on_their_neighbours(self):
        # the series moments of every j come from one product, and numpy
        # takes a gemv for one row, which rounds unlike the gemm of more:
        # on these entries 2 of 1667 lone calls moved by an ulp, so a
        # kernel block or a one-point build with one series entry differed
        # from the grid around it
        rng = np.random.default_rng(3)
        for _ in range(300):
            count = int(rng.integers(2, 10))
            h = rng.uniform(5e-6, 50e-6, size=count)
            a = rng.uniform(-1.0, 1.0, size=count) * 2.9e-3 / h
            whole = gt._moments(a, h, gt._SERIES_TERMS)
            for i in range(count):
                alone = gt._moments(a[i:i + 1], h[i:i + 1], gt._SERIES_TERMS)
                assert np.array_equal(alone[:, 0], whole[:, i])


class TestTriangleIntegrals:
    @pytest.mark.parametrize("omega", [0.0, 3.7, 12.0, 12.0000015, 25.0])
    def test_against_quadrature(self, omega):
        mu = 12.0
        times = np.array([0.0, 0.7, 1.5])
        T = triangles(times, mu, [omega])
        # mu again inside an array of detunings, next to a far one
        batched = triangles(times, np.array([40.0, mu]), [omega])[1]
        for p in range(2):
            want = quad_triangle(mu, omega, times[p], times[p + 1])
            assert T[0, p] == pytest.approx(want, rel=1e-9, abs=1e-12)
            assert batched[0, p] == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_degenerate_all_small(self):
        # omega = mu tiny makes every exponent in the kernel small at once
        mu = 1e-4
        T = triangles([0.0, 1.0], mu, [mu])
        batched = triangles([0.0, 1.0], np.array([40.0, mu]), [mu])[1]
        want = quad_triangle(mu, mu, 0.0, 1.0)
        assert T[0, 0] == pytest.approx(want, rel=1e-8, abs=1e-15)
        assert batched[0, 0] == pytest.approx(want, rel=1e-8, abs=1e-15)


def mixed_branch_grid():
    """(times, omega, grid, couplings, pair): a grid holding an exact
    resonance mu = omega_k and detunings with |b h| = |mu - omega_k| h just
    below and just above the series threshold, so both branches mix inside
    one batch."""
    times = np.array([0.0, 0.5, 1.0, 1.5])
    omega = np.array([3.1, 12.0, 12.9])
    edge = gt._SERIES_THRESHOLD / 0.5
    grid = np.array([2.0, 12.0, 12.0 + edge * (1 - 1e-6),
                     12.0 - edge * (1 + 1e-6), 12.9 - edge * (1 - 1e-6),
                     12.9 + edge * (1 + 1e-6), 20.0])
    bh = np.abs(grid[:, None] - omega[None, :]) * 0.5
    small = bh < gt._SERIES_THRESHOLD
    assert small.any() and not small.all()
    assert np.any(np.abs(bh[small] - gt._SERIES_THRESHOLD) < 1e-8)
    assert np.any(np.abs(bh[~small] - gt._SERIES_THRESHOLD) < 1e-8)
    couplings = np.array([[0.6, -0.3, 0.2], [0.5, 0.4, -0.7]])
    return times, omega, grid, couplings, (0, 1)


def scan_scale_grid():
    """(times, omega, grid, couplings, pair) at the scale of a 127-ion
    scan: the default 301-point grid, 127 modes in 9.5-10 MHz and five
    10 us segments."""
    rng = np.random.default_rng(14)
    times = np.linspace(0.0, 50e-6, 6)
    omega = 2 * math.pi * np.linspace(9.5e6, 10e6, 127)
    grid = 2 * math.pi * np.linspace(9.9e6, 10.2e6, 301)
    return times, omega, grid, rng.normal(size=(2, 127)), (0, 1)


class TestBatchedKernels:
    def test_batched_equals_per_detuning(self):
        times, omega, grid, couplings, pair = mixed_branch_grid()
        S = gt.first_order_integrals(times, grid, omega)
        T = triangles(times, grid, omega)
        S2, G = pair_kernels(times, grid, omega, couplings, pair)
        assert S.shape == (grid.size, omega.size, times.size - 1)
        assert np.array_equal(np.swapaxes(S2, -1, -2), S)
        for i, mu in enumerate(grid):
            assert np.array_equal(
                S[i], gt.first_order_integrals(times, float(mu), omega))
            assert np.array_equal(
                T[i], triangles(times, float(mu), omega))
            assert np.array_equal(G[i], gt.pair_phase_matrix(
                times, float(mu), omega, couplings, pair))

    def test_detuning_array_keeps_its_shape(self):
        # a (2, 3) array of detunings goes into the mode-last layout and
        # back: (2, 3, K, P) kernels, each bitwise its one-detuning build
        times, omega, grid, couplings, pair = mixed_branch_grid()
        mus = grid[:6].reshape(2, 3)
        K, P = omega.size, times.size - 1
        S = gt.first_order_integrals(times, mus, omega)
        T = triangles(times, mus, omega)
        G_modes = gt.phase_kernels(times, mus, omega)
        G = gt.pair_phase_matrix(times, mus, omega, couplings, pair)
        assert S.shape == T.shape == (2, 3, K, P)
        assert G_modes.shape == (2, 3, K, P, P)
        assert G.shape == (2, 3, P, P)
        for idx in np.ndindex(2, 3):
            mu = float(mus[idx])
            assert np.array_equal(
                S[idx], gt.first_order_integrals(times, mu, omega))
            assert np.array_equal(
                T[idx], triangles(times, mu, omega))
            assert np.array_equal(G_modes[idx],
                                  gt.phase_kernels(times, mu, omega))
            assert np.array_equal(G[idx], gt.pair_phase_matrix(
                times, mu, omega, couplings, pair))

    @pytest.mark.parametrize("make", [mixed_branch_grid, scan_scale_grid])
    def test_pair_form_sums_the_mode_forms(self, make):
        # G = sum_k 2 c_l^k c_n^k G_k, and a stack of pair rows builds each
        # pair's forms bit for bit as that pair alone
        times, omega, grid, couplings, pair = make()
        l, n = pair
        G_modes = gt.phase_kernels(times, grid, omega)
        G = gt.pair_phase_matrix(times, grid, omega, couplings, pair)
        want = np.einsum("k,mkpq->mpq", 2.0 * couplings[l] * couplings[n],
                         G_modes)
        assert np.max(np.abs(G - want)) <= 1e-12 * np.max(np.abs(want))
        pairs = [pair, (n, l), (l, l)]
        _, stacked = gt._pair_kernels(
            times, grid, omega, gt._phase_weights(couplings, pairs))
        for j, one in enumerate(pairs):
            assert np.array_equal(
                stacked[j * grid.size:(j + 1) * grid.size],
                pair_kernels(times, grid, omega, couplings, one)[1])


class TestOneTrigPass:
    def test_e0_identities(self):
        # E0(0) = h and E0(-x) = conj E0(x) hold bitwise
        rng = np.random.default_rng(2)
        x = np.concatenate([[0.0, -0.0, 1e-300, 3e-3], rng.normal(size=50),
                            1e8 * rng.normal(size=50)])
        for h in (1e-5, 0.37, 2.0):
            assert gt._e0(0.0, h) == h
            assert np.array_equal(gt._e0(-x, h), np.conj(gt._e0(x, h)))
            assert np.array_equal(gt._e0(np.zeros(3), h), np.full(3, h + 0j))

    @pytest.mark.parametrize("make", [mixed_branch_grid, scan_scale_grid])
    def test_agrees_with_first_kernels(self, make):
        # S, T and the pair form G against the complex-exp/np.sinc build
        times, omega, grid, couplings, pair = make()
        S = gt.first_order_integrals(times, grid, omega)
        T = triangles(times, grid, omega)
        S2, G = pair_kernels(times, grid, omega, couplings, pair)
        S_ref = ref_first_order(times, grid, omega)
        T_ref = ref_triangle(times, grid, omega)
        l, n = pair
        G_ref = gt._phase_form(np.swapaxes(S_ref, -1, -2),
                               np.swapaxes(T_ref, -1, -2),
                               2.0 * couplings[l] * couplings[n])
        assert np.array_equal(np.swapaxes(S2, -1, -2), S)
        for got, want in ((S, S_ref), (T, T_ref), (G, G_ref)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_unequal_segments_at_scan_scale(self):
        # 127 modes, 301 detunings and five unequal segments: one table
        # entry per segment, against the references at the same bound
        _, omega, grid, _, _ = scan_scale_grid()
        times = np.array([0.0, 7e-6, 19e-6, 30e-6, 41.5e-6, 50e-6])
        assert np.unique(np.diff(times)).size == 5
        S = gt.first_order_integrals(times, grid, omega)
        T = triangles(times, grid, omega)
        for got, want in ((S, ref_first_order(times, grid, omega)),
                          (T, ref_triangle(times, grid, omega))):
            assert got.shape == want.shape == (301, 127, 5)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_first_order_extended_precision(self):
        # omega / 2 pi ~ 10 MHz over tau = 50 us: an exact resonance and
        # detunings whose |omega - mu| h sits just below and just above the
        # series threshold, against antiderivatives in np.longdouble
        times = np.linspace(0.0, 50e-6, 6)
        h = 10e-6
        omega = 2 * math.pi * np.array([9.7e6, 9.95e6, 10e6, 10.02e6])
        edge = gt._SERIES_THRESHOLD / h
        mus = [omega[2], omega[2] + edge * (1 - 1e-6),
               omega[2] - edge * (1 + 1e-6), omega[1] - edge * (1 - 1e-6),
               omega[3] + edge * (1 + 1e-6), 2 * math.pi * 10.05e6,
               2 * math.pi * 9.9e6]
        bh = np.abs(np.subtract.outer(mus, omega)) * h
        edge_ratio = bh / gt._SERIES_THRESHOLD
        assert np.any(bh == 0.0)
        assert np.any((edge_ratio < 1.0) & (edge_ratio > 0.99))
        assert np.any((edge_ratio > 1.0) & (edge_ratio < 1.01))
        S = gt.first_order_integrals(times, np.array(mus), omega)
        for i, mu in enumerate(mus):
            want = longdouble_first_order(times, mu, omega)
            assert np.max(np.abs(S[i] - want)) <= 1e-11 * np.max(np.abs(want))


class TestPhaseKernels:
    def test_full_double_integral(self):
        # Omega^T G Omega must equal the ordered double integral with the
        # step-function amplitude.  Quadrature is run per segment pair so
        # each region has a smooth integrand: triangles on the diagonal,
        # rectangles below it.
        mu = 9.0
        times = np.array([0.0, 0.5, 1.3, 2.0])
        amps = np.array([1.0, -0.6, 1.7])
        omega = 8.6

        def kernel(s1, s2):
            return (math.sin(mu * s2) * math.sin(mu * s1)
                    * math.sin(omega * (s2 - s1)))

        want = 0.0
        for p in range(3):
            want += amps[p] ** 2 * quad_triangle(mu, omega,
                                                 times[p], times[p + 1])
            for q in range(p):
                rect, _ = dblquad(kernel, times[p], times[p + 1],
                                  lambda s2: times[q],
                                  lambda s2: times[q + 1],
                                  epsabs=1e-13, epsrel=1e-12)
                want += amps[p] * amps[q] * rect
        G = gt.phase_kernels(times, mu, [omega])[0]
        got = amps @ G @ amps
        assert got == pytest.approx(want, rel=1e-9)

    def test_symmetric(self):
        G = gt.phase_kernels(np.linspace(0.0, 1.0, 6), 11.0, [9.5, 10.5])
        assert np.allclose(G, np.transpose(G, (0, 2, 1)), atol=1e-18)

    def test_segment_split_invariance(self):
        # phi is a property of the waveform, not of the segmentation
        mu, omega = 10.3, 9.8
        sched1 = gt.PulseSchedule.uniform(2.0, [1.3, 0.4], mu)
        sched2 = gt.PulseSchedule(times=np.array([0.0, 0.5, 1.0, 2.0]),
                                  amplitudes=np.array([1.3, 1.3, 0.4]), mu=mu)
        d1 = gt.mode_phase_integrals(sched1, [omega])
        d2 = gt.mode_phase_integrals(sched2, [omega])
        assert d1[0] == pytest.approx(d2[0], rel=1e-11)
        a1 = gt.alpha_integral(sched1, [omega])
        a2 = gt.alpha_integral(sched2, [omega])
        assert a1[0] == pytest.approx(a2[0], rel=1e-11)


class TestSchedule:
    def test_uniform(self):
        s = gt.PulseSchedule.uniform(1.0, [1.0, 2.0, 3.0, 4.0], 5.0)
        assert np.allclose(s.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert s.duration == 1.0
        assert s.segment_count == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            gt.PulseSchedule(times=np.array([0.0, 1.0, 0.5]),
                             amplitudes=np.array([1.0, 1.0]), mu=1.0)
        with pytest.raises(ValueError):
            gt.PulseSchedule(times=np.array([0.1, 1.0]),
                             amplitudes=np.array([1.0]), mu=1.0)
        with pytest.raises(ValueError):
            gt.PulseSchedule(times=np.array([0.0, 1.0]),
                             amplitudes=np.array([1.0, 2.0]), mu=1.0)
        with pytest.raises(ValueError):
            gt.PulseSchedule(times=np.array([0.0, 1.0]),
                             amplitudes=np.array([1.0]), mu=-2.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["times", "amplitudes", "mu"])
    def test_non_finite_rejected(self, field, value):
        # a nan or inf anywhere would score as a NaN report
        parts = {"times": np.array([0.0, 0.5, 1.0]),
                 "amplitudes": np.array([1.0, 2.0]), "mu": 3.0}
        if field == "mu":
            parts["mu"] = value
        else:
            parts[field][-1] = value
        with pytest.raises(ValueError, match="finite"):
            gt.PulseSchedule(**parts)

    @pytest.mark.parametrize("mu", [np.array([6e7]), [6e7], "6e7", True,
                                    np.array([]), None],
                             ids=["array", "list", "string", "bool",
                                  "empty", "none"])
    def test_mu_is_one_number(self, mu):
        # mu is kept as one float; anything else is a ValueError before
        # any kernel reads it
        with pytest.raises(ValueError,
                           match="^mu must be positive and finite$"):
            gt.PulseSchedule(times=np.array([0.0, 1.0]),
                             amplitudes=np.array([1.0]), mu=mu)
        for number in (np.float64(6e7), np.int64(60), 6e7, 60):
            sched = gt.PulseSchedule(times=np.array([0.0, 1.0]),
                                     amplitudes=np.array([1.0]), mu=number)
            assert type(sched.mu) is float and sched.mu == number


class TestCouplings:
    def test_com_row(self):
        cfg = cr.TrapConfig(5, omega_r=2 * math.pi * 0.2e6,
                            omega_z=2 * math.pi * 10e6)
        spec = md.axial_spectrum(cr.solve_equilibrium(cfg))
        c = gt.drive_couplings(spec)
        assert np.allclose(c[:, 0], 1 / math.sqrt(5), rtol=1e-9)

    def test_scaling_below_com(self):
        # lower-frequency modes get sqrt(omega_z / omega_k) > 1 enhancement
        cfg = cr.TrapConfig(4, omega_r=2 * math.pi * 0.2e6,
                            omega_z=2 * math.pi * 10e6)
        spec = md.axial_spectrum(cr.solve_equilibrium(cfg))
        c = gt.drive_couplings(spec)
        ratio = np.sqrt(spec.config.omega_z / spec.frequencies)
        assert np.allclose(np.abs(c), np.abs(spec.modes.T) * ratio[None, :])
        assert np.all(ratio[1:] > 1.0)


class TestThermalFidelity:
    def test_zero_force_is_cos_squared(self):
        # residual-free, phase-only gate: F = cos^2(phi - pi/4)
        zeros = np.zeros(3, dtype=complex)
        for phi in (0.0, math.pi / 8, math.pi / 4, 0.5, 2.0):
            want = math.cos(phi - math.pi / 4) ** 2
            got = gt.thermal_fidelity(phi, zeros, zeros, 0.3)
            assert got == pytest.approx(want, abs=1e-12)

    def test_perfect_gate(self):
        zeros = np.zeros(4, dtype=complex)
        assert gt.thermal_fidelity(math.pi / 4, zeros, zeros, 0.0) == \
            pytest.approx(1.0, abs=1e-12)
        assert gt.thermal_fidelity(math.pi / 4 + math.pi, zeros, zeros, 0.5) \
            == pytest.approx(1.0, abs=1e-12)

    def test_large_residual_floor(self):
        # huge leftover displacement dephases everything except the four
        # diagonal branch pairs: F -> 1/4
        big = np.array([30.0 + 0j])
        F = gt.thermal_fidelity(math.pi / 4, big, -0.5 * big, 0.2)
        assert F == pytest.approx(0.25, abs=1e-10)

    def test_monotone_in_nbar_equal_drive(self):
        rng = np.random.default_rng(3)
        raw = 0.15 * (rng.normal(size=4) + 1j * rng.normal(size=4))
        cl = rng.normal(size=4)
        cn = rng.normal(size=4)
        al = 1j * cl * raw
        an = 1j * cn * raw
        values = [gt.thermal_fidelity(math.pi / 4, al, an, nb)
                  for nb in (0.0, 0.1, 0.3, 1.0, 3.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_branch_symmetry(self):
        rng = np.random.default_rng(5)
        al = rng.normal(size=3) + 1j * rng.normal(size=3)
        an = rng.normal(size=3) + 1j * rng.normal(size=3)
        F1 = gt.thermal_fidelity(0.6, al, an, 0.2)
        F2 = gt.thermal_fidelity(0.6, an, al, 0.2)
        assert F1 == pytest.approx(F2, rel=1e-12)
        F3 = gt.thermal_fidelity(0.6, -al, -an, 0.2)
        assert F1 == pytest.approx(F3, rel=1e-12)

    def test_rejects_negative_nbar(self):
        z = np.zeros(2, dtype=complex)
        with pytest.raises(NegativeOccupation):
            gt.thermal_fidelity(0.5, z, z, -0.2)
        # a NaN occupation is no occupation; it must not score NaN
        with pytest.raises(NegativeOccupation):
            gt.thermal_fidelity(0.5, z, z, np.nan)
        with pytest.raises(NegativeOccupation):
            gt.thermal_fidelity(0.5, z, z, [0.1, np.nan])

    def test_closed_form_equals_branch_pair_sum(self):
        # the four-term closed form against the sum over all 16 ordered
        # spin-branch pairs it is reduced from, on scalar and stacked inputs
        signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))

        def reference(phi, al, an, nbar, target):
            weight = 2.0 * nbar + 1.0
            branch = [sl * al + sn * an for sl, sn in signs]
            parity = [sl * sn for sl, sn in signs]
            total = 0.0j
            for b in range(4):
                for bp in range(4):
                    cross = np.conj(branch[bp]) * branch[b]
                    geometric = np.sum(np.imag(cross), axis=-1)
                    decay = 0.5 * np.sum(
                        weight * np.abs(branch[b] - branch[bp]) ** 2, axis=-1)
                    total += np.exp(1j * ((phi - target)
                                          * (parity[b] - parity[bp])
                                          + geometric) - decay)
            return total.real / 16.0

        rng = np.random.default_rng(11)
        worst = 0.0
        for draw in range(1000):
            modes = int(rng.integers(1, 8))
            shape = (modes,) if draw % 2 else (5, modes)
            scale = rng.uniform(0.0, 1.0)
            al = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
            an = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
            phi = rng.uniform(-4.0, 4.0, shape[:-1])
            target = rng.uniform(-1.0, 1.0)
            nbar = rng.uniform(0.0, 2.0)
            got = gt.thermal_fidelity(phi, al, an, nbar, target_phase=target)
            want = reference(phi, al, an, nbar, target)
            assert np.shape(got) == np.shape(want)
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst <= 1e-15

    @pytest.mark.parametrize("modes", [3, 127, 300])
    def test_stacked_equals_row_by_row(self, modes):
        # (M, K) displacements with an (M,) phase score each row exactly
        # as the one-gate call on that row does, bitwise; one gate still
        # returns a Python float
        rng = np.random.default_rng(modes)
        rows = 6
        al = 0.2 * (rng.normal(size=(rows, modes))
                    + 1j * rng.normal(size=(rows, modes)))
        an = 0.2 * (rng.normal(size=(rows, modes))
                    + 1j * rng.normal(size=(rows, modes)))
        phi = rng.uniform(-1.0, 1.0, rows)
        phi[0] = 0.0
        for nbar in (0.3, rng.uniform(0.0, 1.0)):
            thermal = gt.thermal_fidelity(phi, al, an, nbar)
            gated = gt.gate_fidelity(phi, al, an, nbar)
            assert thermal.shape == gated.shape == (rows,)
            for i in range(rows):
                one = gt.thermal_fidelity(phi[i], al[i], an[i], nbar)
                one_gated = gt.gate_fidelity(phi[i], al[i], an[i], nbar)
                assert type(one) is float and type(one_gated) is float
                assert thermal[i] == one
                assert gated[i] == one_gated


# The report stage as first written: one pass over every sample time, with
# whole (samples, modes) arrays.  Kept as the reference for the blocks.

def ref_partial_drive_integrals(schedule, frequencies, sample_times):
    times = schedule.times
    amps = schedule.amplitudes
    mu = schedule.mu
    omega = np.asarray(frequencies, dtype=float)
    ts = np.asarray(sample_times, dtype=float)
    S = gt.first_order_integrals(times, mu, omega)
    done = np.concatenate([np.zeros((omega.size, 1), dtype=complex),
                           np.cumsum(S * amps[None, :], axis=1)], axis=1)
    idx = np.clip(np.searchsorted(times, ts, side="right") - 1,
                  0, schedule.segment_count - 1)
    t_start = times[idx][:, None]
    h = np.clip(ts[:, None] - t_start, 0.0, np.diff(times)[idx][:, None])
    start = gt._unit(omega * times[:-1, None])[idx]
    part = gt._first_order(start, gt._unit(mu * t_start),
                           gt._e0(omega + mu, h), gt._e0(omega - mu, h))
    part *= amps[idx][:, None]
    part += done[:, idx].T
    return part


def ref_response_profile(schedule, spectrum, pair, samples):
    l, n = pair
    couplings = gt.drive_couplings(spectrum)
    freqs = spectrum.frequencies
    ts = np.union1d(np.linspace(0.0, schedule.duration, samples),
                    schedule.times)
    raw = ref_partial_drive_integrals(schedule, freqs, ts)
    angle = freqs[None, :] * ts[:, None]
    real_part = np.sin(angle)
    real_part *= raw.real
    cos = np.cos(angle, out=angle)
    cos *= raw.imag
    real_part -= cos
    real_part *= (couplings[l] + couplings[n]) * np.sqrt(
        2.0 * cr.HBAR / (spectrum.config.ion_mass * freqs))
    q = real_part @ spectrum.modes
    return np.abs(q).max(axis=0)


def partial_drive_integrals(schedule, frequencies, sample_times):
    """The report stage's drive integrals up to each sample time: the
    blocks of ``gate._partial_blocks`` on the schedule's own S, joined."""
    omega = np.asarray(frequencies, dtype=float)
    S = gt.first_order_integrals(schedule.times, schedule.mu, omega).T
    ts = np.asarray(sample_times, dtype=float)
    return np.concatenate([part for _, part in
                           gt._partial_blocks(schedule, S, omega, ts)])


class TestPartialIntegrals:
    def test_matches_cumulative_sum_at_boundaries(self):
        sched = gt.PulseSchedule.uniform(2.0, [1.0, -0.7, 0.4], 9.0)
        freqs = np.array([8.5, 9.0])
        S = gt.first_order_integrals(sched.times, sched.mu, freqs)
        partial = partial_drive_integrals(sched, freqs, sched.times)
        want = np.concatenate(
            [np.zeros((2, 1)), np.cumsum(S * sched.amplitudes, axis=1)],
            axis=1).T
        assert np.allclose(partial, want, rtol=1e-12, atol=1e-15)

    def test_final_value_is_alpha_integral(self):
        sched = gt.PulseSchedule.uniform(1.7, [0.3, 1.1], 11.0)
        freqs = np.array([10.0, 11.0, 12.5])
        partial = partial_drive_integrals(sched, freqs, [1.7])
        assert np.allclose(1j * partial[0], gt.alpha_integral(sched, freqs),
                           rtol=1e-12)

    def test_midsegment_against_quadrature(self):
        sched = gt.PulseSchedule.uniform(2.0, [1.0, -0.5], 7.0)
        t = 1.3
        omega = 6.5
        got = partial_drive_integrals(sched, [omega], [t])[0, 0]
        want = (quad_first_order(7.0, omega, 0.0, 1.0) * 1.0
                + quad_first_order(7.0, omega, 1.0, t) * -0.5)
        assert got == pytest.approx(want, rel=1e-9)

    def test_drive_off_outside_schedule(self):
        # before t = 0 nothing has been driven; past tau the last segment
        # stops at its end and the full integral stays
        sched = gt.PulseSchedule.uniform(1.0, [1.0, -0.7, 0.4], 9.0)
        freqs = np.array([8.5, 9.0, 11.0])
        full = sched.amplitudes @ gt.first_order_integrals(
            sched.times, sched.mu, freqs).T
        partial = partial_drive_integrals(sched, freqs,
                                          [-0.3, 1.0, 1.5, 7.0])
        assert np.array_equal(partial[0], np.zeros(3, dtype=complex))
        for row in partial[1:]:
            assert np.allclose(row, full, rtol=1e-12, atol=1e-15)


class TestPairCheck:
    """gate.check_pair is the one statement of a valid pair."""

    def test_returns_int_pair(self):
        assert gt.check_pair((np.int64(2), 0), 3) == (2, 0)
        assert type(gt.check_pair((np.int64(2), 0))[0]) is int

    @pytest.mark.parametrize("pair", [(1, 1), (0, -1), (0, 3), (-1, 3),
                                      (0, 1.7), (0, 1.0), (np.float64(2), 0),
                                      (0, 1, 2), (0,), 5, None,
                                      # a bool is no integer: (True, 2)
                                      # read as (1, 2)
                                      (True, 2), (0, False),
                                      (np.bool_(True), 2)])
    def test_rejects_bad_pair(self, pair):
        with pytest.raises(ValueError, match=r"^pair needs two distinct "
                                             r"ion indices in 0\.\.2"):
            gt.check_pair(pair, 3)

    def test_without_ion_count_checks_distinctness(self):
        # no upper bound without an ion count, but never a negative index
        assert gt.check_pair((4, 0)) == (4, 0)
        with pytest.raises(ValueError, match=r"^pair needs two distinct ion "
                                             r"indices >= 0, got 0, -1$"):
            gt.check_pair((0, -1))
        with pytest.raises(ValueError, match="^pair needs .*, got 0, 1.7$"):
            gt.check_pair((0, 1.7))
        with pytest.raises(ValueError, match="^target pair needs"):
            gt.check_pair((4, 4), name="target pair")
        with pytest.raises(ValueError, match="target pair"):
            dataclasses.replace(gt.PulseSchedule.uniform(1.0, [1.0], 1.0),
                                target_pair=(2, 2))
        with pytest.raises(ValueError, match="^target pair needs"):
            dataclasses.replace(gt.PulseSchedule.uniform(1.0, [1.0], 1.0),
                                target_pair=(True, 2))

    @pytest.mark.parametrize("entry", ["gate_report"])
    @pytest.mark.parametrize("pair", [(1, 1), (0, -1), (0, 3), (0, 1.7)],
                             ids=["same-ion", "negative", "past-ion-count",
                                  "non-integer"])
    def test_entry_points_reject_bad_pair(self, monkeypatch, entry, pair):
        cfg = cr.TrapConfig(3, omega_r=2 * math.pi * 1e6,
                            omega_z=2 * math.pi * 5e6)
        spec = md.axial_spectrum(cr.solve_equilibrium(cfg))
        sched = gt.PulseSchedule.uniform(
            0.4e-6, 2 * math.pi * 0.25e6 * np.array([1.0, -1.0]),
            spec.frequencies[0])

        def refuse(*args):
            raise AssertionError("integrals built for a bad pair")

        monkeypatch.setattr(gt, "_pair_kernels", refuse)
        monkeypatch.setattr(gt, "_partial_blocks", refuse)
        with pytest.raises(ValueError, match="pair needs two distinct"):
            getattr(gt, entry)(sched, spec, pair)


class TestResponseProfile:
    def make_spec(self, n):
        cfg = cr.TrapConfig(n, omega_r=2 * math.pi * 0.2e6,
                            omega_z=2 * math.pi * 10e6)
        return md.axial_spectrum(cr.solve_equilibrium(cfg))

    def test_target_normalization(self):
        spec = self.make_spec(5)
        sched = gt.PulseSchedule.uniform(
            20e-6, 2 * math.pi * 0.1e6 * np.ones(5), spec.config.omega_z * 1.001)
        report = gt.gate_report(sched, spec, (0, 1))
        peak, normalized = report.response_peak, report.response_normalized
        assert normalized.max() >= 1.0 - 1e-12
        assert max(normalized[0], normalized[1]) == pytest.approx(
            1.0, abs=1e-12)
        assert peak.shape == (5,)
        assert np.all(peak >= 0.0)

    def test_com_only_drive_is_uniform(self):
        # two ions driven symmetrically couple only to the centre-of-mass
        # mode (the stretch weights cancel), so everyone moves the same
        spec = self.make_spec(2)
        sched = gt.PulseSchedule.uniform(
            10e-6, 2 * math.pi * 50e3 * np.ones(3),
            spec.config.omega_z + 2 * math.pi * 20e3)
        normalized = gt.gate_report(sched, spec, (0, 1)).response_normalized
        assert normalized[0] == pytest.approx(normalized[1], rel=1e-9)

    def test_gate_report_defaults_carry_response(self):
        # a report holds one response entry per ion, the one-pass profile
        # at gate.RESPONSE_SAMPLES samples
        spec = self.make_spec(5)
        sched = gt.PulseSchedule.uniform(
            20e-6, 2 * math.pi * 0.1e6 * np.ones(5), spec.config.omega_z * 1.001)
        report = gt.gate_report(sched, spec, (0, 1))
        assert report.response_peak.shape == (5,)
        assert report.response_normalized.shape == (5,)
        peak = ref_response_profile(sched, spec, (0, 1), gt.RESPONSE_SAMPLES)
        assert np.array_equal(report.response_peak, peak)
        assert np.array_equal(report.response_normalized,
                              peak / max(peak[0], peak[1]))

    def test_report_builds_its_kernels_once(self, monkeypatch):
        # the response is read from the S that scores the gate: one
        # kernel build per report
        spec = self.make_spec(5)
        sched = gt.PulseSchedule.uniform(
            20e-6, 2 * math.pi * 0.1e6 * np.ones(5), spec.config.omega_z * 1.001)
        want = ref_response_profile(sched, spec, (0, 1), gt.RESPONSE_SAMPLES)
        builds = []
        kernel_blocks = gt._kernel_blocks

        def counted(*args):
            builds.append(args)
            return kernel_blocks(*args)

        monkeypatch.setattr(gt, "_kernel_blocks", counted)
        report = gt.gate_report(sched, spec, (0, 1))
        assert len(builds) == 1
        assert np.array_equal(report.response_peak, want)

    def test_report_file_normalizes_by_the_target_peak(self, tmp_path):
        # the file's normalized column is each written peak over the
        # larger target-ion peak
        spec = self.make_spec(5)
        sched = gt.PulseSchedule.uniform(
            20e-6, 2 * math.pi * 0.1e6 * np.ones(5), spec.config.omega_z * 1.001)
        report = gt.gate_report(sched, spec, (1, 3))
        path = tmp_path / "report.tsv"
        gt.write_report(report, path)
        _, rows = read_rows(path)
        peak, normalized = np.array([[float(r[2]), float(r[3])]
                                     for r in rows if r[0] == "ion"]).T
        assert np.array_equal(peak, report.response_peak)
        assert np.array_equal(normalized, peak / max(peak[1], peak[3]))
        assert np.array_equal(normalized, report.response_normalized)


@pytest.fixture(scope="module")
def block_spectra():
    """Axial spectra of N = 7, 19 and 127 in the paper's two radial
    traps, 0.2 and 1 MHz (omega_z / 2 pi = 10 MHz), one crystal per N."""
    spectra = {}
    for n in (7, 19, 127):
        base = cr.solve_equilibrium(cr.TrapConfig(
            n, omega_r=2 * math.pi * 0.2e6, omega_z=2 * math.pi * 10e6))
        for trap_hz in (0.2e6, 1e6):
            config = dataclasses.replace(base.config,
                                         omega_r=2 * math.pi * trap_hz)
            spectra[n, trap_hz] = md.axial_spectrum(cr.with_trap(base,
                                                                 config))
    return spectra


def block_schedule(spec, times):
    """A drive near the paper's operating point on the segment
    boundaries ``times`` (s): 40 kHz above omega_z, amplitudes up to
    150 kHz with mixed signs."""
    amps = 2 * math.pi * 1e5 * np.array([1.2, -0.7, 1.5, 0.4, -1.1])
    return gt.PulseSchedule(times=times, amplitudes=amps[:len(times) - 1],
                            mu=spec.config.omega_z + 2 * math.pi * 40e3)


EQUAL = np.linspace(0.0, 50e-6, 6)
UNEQUAL = np.array([0.0, 7.0, 18.0, 30.0, 41.0, 50.0]) * 1e-6


class TestSampleBlocks:
    """The report stage streams its samples in blocks of
    ``gate._SAMPLE_BLOCK``; every peak and every partial integral is bit
    for bit the one-pass reference's."""

    @pytest.mark.parametrize("n", [7, 19, 127])
    @pytest.mark.parametrize("trap_hz", [0.2e6, 1e6])
    @pytest.mark.parametrize("times", [EQUAL, UNEQUAL],
                             ids=["equal", "unequal"])
    def test_profile_equals_one_pass(self, block_spectra, n, trap_hz, times):
        spec = block_spectra[n, trap_hz]
        sched = block_schedule(spec, times)
        for pair in [(0, 1), (0, n - 1)]:
            got = gt.gate_report(sched, spec, pair).response_peak
            want = ref_response_profile(sched, spec, pair,
                                        gt.RESPONSE_SAMPLES)
            assert got.shape == (n,)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [7, 19, 127])
    @pytest.mark.parametrize("samples", [1, 127, 128, 129, 2000])
    def test_block_edges(self, monkeypatch, block_spectra, n, samples):
        # five segments add four boundaries to the uniform samples; one
        # segment adds none, so its sample count is exactly ``samples``:
        # short of a block, one block, one sample past it, many blocks
        monkeypatch.setattr(gt, "RESPONSE_SAMPLES", samples)
        spec = block_spectra[n, 1e6]
        for times in (EQUAL, EQUAL[[0, -1]]):
            sched = block_schedule(spec, times)
            got = gt.gate_report(sched, spec, (0, 1)).response_peak
            assert np.array_equal(
                got, ref_response_profile(sched, spec, (0, 1), samples))

    @pytest.mark.parametrize("count", [1, 127, 128, 129, 2000])
    @pytest.mark.parametrize("times", [EQUAL, UNEQUAL],
                             ids=["equal", "unequal"])
    def test_partial_integrals_equal_one_pass(self, block_spectra, count,
                                              times):
        # sample times before 0 and past tau, then unsorted
        spec = block_spectra[127, 0.2e6]
        sched = block_schedule(spec, times)
        ts = np.linspace(-5e-6, 60e-6, count)
        for sample_times in (ts, ts[::-1]):
            got = partial_drive_integrals(sched, spec.frequencies,
                                          sample_times)
            want = ref_partial_drive_integrals(sched, spec.frequencies,
                                               sample_times)
            assert got.shape == want.shape == (count, 127)
            assert np.array_equal(got, want)

    def test_block_layout(self, block_spectra):
        # blocks start on multiples of _SAMPLE_BLOCK and the last takes
        # the rest, so no block's product drops to a one-row gemv or to a
        # small-matrix kernel that one whole product would not take
        spec = block_spectra[7, 0.2e6]
        sched = block_schedule(spec, EQUAL)
        S = gt.first_order_integrals(sched.times, sched.mu,
                                     spec.frequencies).T
        for count in (1, 127, 128, 129, 255, 256, 257, 2004):
            ts = np.linspace(0.0, 50e-6, count)
            sizes = [t.size for t, _ in
                     gt._partial_blocks(sched, S, spec.frequencies, ts)]
            assert sum(sizes) == count
            assert all(size == gt._SAMPLE_BLOCK for size in sizes[:-1])
            assert min(count, gt._SAMPLE_BLOCK) <= sizes[-1]
            assert sizes[-1] < 2 * gt._SAMPLE_BLOCK

    def test_report_memory_does_not_scale_with_samples(self, block_spectra):
        # the one-pass profile held (2004 samples x 127 modes) complex
        # arrays and peaked at 16.9 MB; the blocks hold (B x 127) ones
        spec = block_spectra[127, 0.2e6]
        sched = block_schedule(spec, EQUAL)
        gt.gate_report(sched, spec, (0, 1))  # warm: imports, caches
        tracemalloc.start()
        try:
            report = gt.gate_report(sched, spec, (0, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.response_peak.shape == (127,)
        assert peak < 4e6, "gate_report peaked at %.1f MB" % (peak / 1e6)


class TestScheduleSerialization:
    def test_round_trip(self, tmp_path):
        sched = gt.PulseSchedule.uniform(
            50e-6, 2 * math.pi * np.array([0.1e6, -0.2e6, 0.15e6]),
            2 * math.pi * 10.05e6)
        path = tmp_path / "schedule.tsv"
        gt.write_schedule(sched, path)
        back = gt.read_schedule(path)
        assert np.allclose(back.times, sched.times, rtol=1e-14)
        assert np.allclose(back.amplitudes, sched.amplitudes, rtol=1e-14)
        assert back.mu == pytest.approx(sched.mu, rel=1e-14)
        # unequal segments and a target pair: the boundaries read back
        # bitwise, so each row starts exactly where the one before ends
        sched = gt.PulseSchedule(
            times=UNEQUAL, amplitudes=2 * math.pi * np.array(
                [0.1e6, -0.2e6, 0.15e6, 0.05e6, 1.0 / 3.0]),
            mu=2 * math.pi * 10.04e6, target_pair=(2, 5))
        gt.write_schedule(sched, path)
        back = gt.read_schedule(path)
        assert np.array_equal(back.times, sched.times)
        assert back.target_pair == (2, 5)

    def test_amplitudes_stored_in_hz(self, tmp_path):
        sched = gt.PulseSchedule.uniform(1e-5, [2 * math.pi * 1e5], 2 * math.pi * 1e7)
        path = tmp_path / "schedule.tsv"
        gt.write_schedule(sched, path)
        data = [ln for ln in path.read_text().splitlines()
                if not ln.startswith("#")][0]
        assert float(data.split("\t")[3]) == pytest.approx(1e5, rel=1e-12)


class TestStructuralInvariants:
    """Algebraic structure of the drive integrals and the fidelity."""

    def test_alpha_linear_in_amplitudes(self):
        freqs = np.array([9.2, 10.0, 11.7])
        rng = np.random.default_rng(7)
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        mu, tau = 10.4, 2.3

        def alpha(amp):
            return gt.alpha_integral(
                gt.PulseSchedule.uniform(tau, amp, mu), freqs)

        for lam in (0.0, 1.0, -2.5, 0.37):
            want = lam * alpha(a) + alpha(b)
            got = alpha(lam * a + b)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_phi_exact_quadratic_fit(self):
        # phi along a random amplitude ray must be a parabola through the
        # origin; any cubic fit has to put zero weight on the extra terms
        freqs = np.array([9.2, 10.0, 11.7])
        couplings = np.array([[0.4, -0.1, 0.25], [1.0, 1.0, 1.0]])
        rng = np.random.default_rng(11)
        direction = rng.normal(size=5)
        mu, tau = 10.4, 2.3
        scales = np.linspace(-2.0, 2.0, 9)
        vals = []
        for s in scales:
            sched = gt.PulseSchedule.uniform(tau, s * direction, mu)
            vals.append(gt.entangling_phase(sched, couplings, freqs, (0, 1)))
        vals = np.asarray(vals)
        coeffs = np.polynomial.polynomial.polyfit(scales, vals, 3)
        scale = np.abs(vals).max()
        assert abs(coeffs[0]) < 1e-10 * scale
        assert abs(coeffs[1]) < 1e-10 * scale
        assert abs(coeffs[3]) < 1e-10 * scale
        fit = np.polynomial.polynomial.polyval(scales, coeffs)
        assert np.max(np.abs(fit - vals)) < 1e-10 * scale

    def test_time_reversal_composition(self):
        # appending the amplitude-negated copy: the two halves compose in
        # phase space as alpha(2 tau) = alpha_1 + e^{i omega tau} alpha_2,
        # and with mu tau a beat multiple the copy's own integral is
        # -alpha_1, so the total collapses to alpha_1 (1 - e^{i omega tau})
        tau = 1.0
        mu = 6 * math.pi  # mu tau = 3 full beat periods
        freqs = np.array([0.8 * mu, 1.13 * mu])
        amps = np.array([1.0, -0.6, 0.3])
        first = gt.PulseSchedule.uniform(tau, amps, mu)
        negated = gt.PulseSchedule.uniform(tau, -amps, mu)
        total = gt.PulseSchedule(
            times=np.concatenate([first.times, tau + negated.times[1:]]),
            amplitudes=np.concatenate([amps, -amps]), mu=mu)
        a1 = gt.alpha_integral(first, freqs)
        a2 = gt.alpha_integral(negated, freqs)
        a_tot = gt.alpha_integral(total, freqs)
        phase = np.exp(1j * freqs * tau)
        assert np.allclose(a_tot, a1 + phase * a2, rtol=1e-11, atol=1e-14)
        assert np.allclose(a2, -a1, rtol=1e-11, atol=1e-14)
        assert np.allclose(a_tot, a1 * (1.0 - phase), rtol=1e-11, atol=1e-14)

    def test_pair_swap_symmetry(self):
        cfg = cr.TrapConfig(4, omega_r=2 * math.pi * 0.2e6,
                            omega_z=2 * math.pi * 10e6)
        spec = md.axial_spectrum(cr.solve_equilibrium(cfg))
        c = gt.drive_couplings(spec)
        sched = gt.PulseSchedule.uniform(
            20e-6, 2 * math.pi * np.array([0.1e6, -0.05e6, 0.2e6]),
            spec.config.omega_z + 2 * math.pi * 30e3)
        ab = gt.entangling_phase(sched, c, spec.frequencies, (1, 3))
        ba = gt.entangling_phase(sched, c, spec.frequencies, (3, 1))
        assert ab == ba

    def test_fidelity_bounded_on_random_inputs(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            k = rng.integers(1, 6)
            al = rng.normal(size=k) + 1j * rng.normal(size=k)
            an = rng.normal(size=k) + 1j * rng.normal(size=k)
            phi = rng.normal() * 4.0
            nbar = rng.uniform(0.0, 2.0)
            f = gt.thermal_fidelity(phi, al, an, nbar)
            assert 0.0 <= f <= 1.0

    def test_degenerate_subspace_rotation_invariance(self):
        # an equilateral 3-ion crystal has a degenerate tilt pair; any
        # orthonormal basis of that subspace must give the same physics
        cfg = cr.TrapConfig(3, omega_r=2 * math.pi * 0.5e6,
                            omega_z=2 * math.pi * 8e6, temperature_nbar=0.2)
        spec = md.axial_spectrum(cr.solve_equilibrium(cfg))
        freqs = spec.frequencies
        assert freqs[1] == pytest.approx(freqs[2], rel=1e-12)
        theta = 0.7321
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        modes2 = spec.modes.copy()
        modes2[1:3] = rot @ modes2[1:3]
        spec2 = md.AxialSpectrum(frequencies=freqs, modes=modes2,
                                 config=spec.config)
        sched = gt.PulseSchedule.uniform(
            25e-6, 2 * math.pi * np.array([0.12e6, -0.07e6, 0.2e6, 0.05e6]),
            spec.config.omega_z + 2 * math.pi * 40e3)
        r1 = gt.gate_report(sched, spec, (0, 2))
        r2 = gt.gate_report(sched, spec2, (0, 2))
        assert r1.phi == pytest.approx(r2.phi, abs=1e-10)
        assert r1.fidelity == pytest.approx(r2.fidelity, abs=1e-10)
