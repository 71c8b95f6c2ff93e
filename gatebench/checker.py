"""Reference computations for the benchmark's output checks.

Nothing here imports gatelab.  Crystal quantities are computed from the ion
positions alone; a pulse schedule's drive integrals and conditional phase
come from Gauss-Legendre quadrature on a fine time grid, not from the closed
forms; the gate fidelity is read off a reduced two-qubit density matrix.
All frequencies are angular (rad/s) unless a name ends in ``_hz``.
"""

import math

import numpy as np
import scipy.constants as const

MASS_BE9 = 1.4965e-26  # kg, the package's default ion

# Quadrature grid: every sub-interval spans at most this much phase of the
# fastest term exp(i (omega + mu) t), with this many Gauss-Legendre nodes.
_MAX_PHASE_PER_CELL = 1.5
_GAUSS_ORDER = 8


# ---------------------------------------------------------------------------
# crystals, in the dimensionless units u = r / ell

def _differences(u):
    """Pair differences r_ij = u_i - u_j and distances (diagonal -> inf)."""
    r = u[:, None, :] - u[None, :, :]
    d = np.sqrt((r ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    return r, d


def energy_gradient(u):
    """dE/du for E = 1/2 sum |u|^2 + sum_{i<j} 1/|u_i - u_j|, shape (N, 2)."""
    r, d = _differences(u)
    return u - (r / d[:, :, None] ** 3).sum(axis=1)


def planar_hessian(u):
    """Second derivatives of E, ordered (x_0..x_{N-1}, y_0..y_{N-1})."""
    n = u.shape[0]
    r, d = _differences(u)
    hess = np.zeros((2, n, 2, n))
    for a in range(2):
        for b in range(2):
            # d^2(1/d)/dr_a dr_b = 3 r_a r_b / d^5 - delta_ab / d^3
            pair = 3.0 * r[:, :, a] * r[:, :, b] / d ** 5 - (a == b) / d ** 3
            block = -pair
            block[np.arange(n), np.arange(n)] = (a == b) + pair.sum(axis=1)
            hess[a, :, b, :] = block
    return hess.reshape(2 * n, 2 * n)


def lowest_nonrotational_eigenvalue(u):
    """Smallest planar curvature eigenvalue once the rotation mode is set
    aside (the eigenvector overlapping most with the rotation generator)."""
    evals, evecs = np.linalg.eigh(planar_hessian(u))
    rotation = np.concatenate([-u[:, 1], u[:, 0]])
    rotation /= np.linalg.norm(rotation)
    keep = np.ones(evals.size, dtype=bool)
    keep[np.argmax(np.abs(rotation @ evecs))] = False
    return float(evals[keep].min())


def coulomb_laplacian(u):
    """L = diag(sum_j 1/d_ij^3) - [1/d_ij^3]."""
    _, d = _differences(u)
    s3 = d ** -3.0
    return np.diag(s3.sum(axis=1)) - s3


def critical_beta(u):
    """Buckling threshold: the axial block beta^2 I - L loses positivity
    when beta^2 falls below the largest eigenvalue of L."""
    return math.sqrt(float(np.linalg.eigvalsh(coulomb_laplacian(u))[-1]))


def min_spacing(u):
    return float(_differences(u)[1].min())


def length_scale(omega_r, mass=MASS_BE9, charge=const.e):
    """ell = (q^2 / (4 pi eps0 M omega_r^2))**(1/3), metres."""
    return (charge ** 2 / (4.0 * math.pi * const.epsilon_0 * mass
                           * omega_r ** 2)) ** (1.0 / 3.0)


def axial_modes(u, omega_r, omega_z):
    """Axial frequencies (descending) and mode vectors (rows) of the block
    beta^2 I - L, with beta = omega_z / omega_r."""
    beta = omega_z / omega_r
    evals, evecs = np.linalg.eigh(beta ** 2 * np.eye(u.shape[0])
                                  - coulomb_laplacian(u))
    if evals[0] <= 0.0:
        raise ValueError("axial block is not positive definite")
    order = np.argsort(evals)[::-1]
    return omega_r * np.sqrt(evals[order]), evecs[:, order].T


def fit_power_law(ns, values, shift=0.0):
    """(prefactor, exponent) of value = a (N - shift)^b by log-log least
    squares."""
    slope, intercept = np.polyfit(np.log(np.asarray(ns, float) - shift),
                                  np.log(np.asarray(values, float)), 1)
    return math.exp(intercept), float(slope)


# ---------------------------------------------------------------------------
# gate quantities by quadrature

def _cells(times, amplitudes, mu, omega_max):
    """Split every segment into equal cells short enough for the quadrature.

    Returns per-cell (start, width, amplitude) arrays."""
    starts, widths, amps = [], [], []
    for p in range(len(amplitudes)):
        span = times[p + 1] - times[p]
        count = max(1, int(math.ceil((omega_max + mu) * span
                                     / _MAX_PHASE_PER_CELL)))
        edges = np.linspace(times[p], times[p + 1], count + 1)
        starts.append(edges[:-1])
        widths.append(np.diff(edges))
        amps.append(np.full(count, float(amplitudes[p])))
    return np.concatenate(starts), np.concatenate(widths), np.concatenate(amps)


def drive_and_phase_integrals(times, amplitudes, mu, frequencies):
    """Per mode k, by quadrature with g(t) = Omega(t) sin(mu t):

    - ``first[k]`` = integral_0^tau g(t) exp(i omega_k t) dt;
    - ``second[k]`` = ordered double integral over s1 < s2 of
      g(s2) g(s1) sin(omega_k (s2 - s1)).

    The double integral splits into cell pairs: a later cell a and an
    earlier cell b contribute Im(A_a conj(A_b)) with A the cell integrals of
    g exp(i omega t), and each cell adds its own triangle s1 < s2.
    """
    times = np.asarray(times, dtype=float)
    freqs = np.asarray(frequencies, dtype=float)
    start, width, amp = _cells(times, amplitudes, mu, float(freqs.max()))
    x, w = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    t = start[:, None] + width[:, None] * x[None, :]           # (C, n)
    gw = amp[:, None] * np.sin(mu * t) * width[:, None] * w    # g dt
    # triangle s1 = start + h x2 x1 below s2 = start + h x2: Jacobian h^2 x2
    s2 = start[:, None, None] + width[:, None, None] * x[None, :, None]
    s1 = start[:, None, None] + (width[:, None, None] * x[None, :, None]
                                 * x[None, None, :])
    tri_weight = (amp[:, None, None] ** 2 * np.sin(mu * s2) * np.sin(mu * s1)
                  * (width ** 2)[:, None, None]
                  * (w * x)[None, :, None] * w[None, None, :])
    gap = s2 - s1
    first = np.empty(freqs.size, dtype=complex)
    second = np.empty(freqs.size)
    for k, omega in enumerate(freqs):
        cell = (gw * np.exp(1j * omega * t)).sum(axis=1)
        earlier = np.concatenate([[0.0], np.cumsum(cell)[:-1]])
        first[k] = cell.sum()
        second[k] = (float(np.imag(cell * np.conj(earlier)).sum())
                     + float((tri_weight * np.sin(omega * gap)).sum()))
    return first, second


def mode_weights(frequencies, modes, omega_z):
    """Drive weights c[ion, k] = b_k(ion) sqrt(omega_z / omega_k)."""
    return modes.T * np.sqrt(omega_z / np.asarray(frequencies))[None, :]


def gate_quantities(times, amplitudes, mu, frequencies, modes, omega_z, pair):
    """(phi, alpha_l, alpha_n) of a schedule acting on ``pair``.

    alpha_j[k] = i c[j, k] first[k] is the displacement left in mode k when
    only ion j is driven, and phi = 2 sum_k c[l, k] c[n, k] second[k] is the
    conditional phase.
    """
    first, second = drive_and_phase_integrals(times, amplitudes, mu,
                                              frequencies)
    weights = mode_weights(frequencies, modes, omega_z)
    l, n = pair
    phi = 2.0 * float(np.sum(weights[l] * weights[n] * second))
    return phi, 1j * weights[l] * first, 1j * weights[n] * first


_SPINS = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)])


def thermal_fidelity(phi, alpha_l, alpha_n, nbar, target_phase):
    """Fidelity of the gate on |+>|+> with thermal motion.

    Branch b (spins s_l, s_n) displaces mode k by A_b = s_l alpha_l + s_n
    alpha_n and gains phase s_l s_n phi.  Tracing out the motion gives
    rho[b, b'] = 1/4 exp(i (Phi_b - Phi_b') + i sum Im(conj(A_b') A_b)
    - sum (nbar + 1/2) |A_b - A_b'|^2); the fidelity is <psi| rho |psi> with
    psi_b = exp(i target_phase s_l s_n) / 2.
    """
    alpha_l = np.asarray(alpha_l, dtype=complex)
    alpha_n = np.asarray(alpha_n, dtype=complex)
    nbar = np.broadcast_to(np.asarray(nbar, dtype=float), alpha_l.shape)
    parity = _SPINS[:, 0] * _SPINS[:, 1]
    branch = (_SPINS[:, :1] * alpha_l[None, :]
              + _SPINS[:, 1:] * alpha_n[None, :])
    rho = np.empty((4, 4), dtype=complex)
    for b in range(4):
        for bp in range(4):
            overlap = np.sum(np.imag(np.conj(branch[bp]) * branch[b]))
            decay = np.sum((nbar + 0.5) * np.abs(branch[b] - branch[bp]) ** 2)
            rho[b, bp] = 0.25 * np.exp(
                1j * (phi * (parity[b] - parity[bp]) + overlap) - decay)
    psi = 0.5 * np.exp(1j * target_phase * parity)
    return float(np.real(np.conj(psi) @ rho @ psi))


def schedule_fidelity(times, amplitudes, mu, frequencies, modes, omega_z,
                      pair, nbar):
    """(phi, fidelity) of a schedule, scored against the nearer of the two
    equivalent targets +pi/4 and -pi/4."""
    phi, alpha_l, alpha_n = gate_quantities(times, amplitudes, mu,
                                            frequencies, modes, omega_z, pair)
    target = math.copysign(math.pi / 4.0, phi)
    return phi, thermal_fidelity(phi, alpha_l, alpha_n, nbar, target)


def band_edge_index(mu_grid, fidelities, band_top, window=2):
    """First grid point above ``band_top`` whose positive fidelity is not
    exceeded within ``window`` points on either side; None if none is."""
    fid = np.asarray(fidelities)
    for i in np.argsort(mu_grid):
        if mu_grid[i] <= band_top or fid[i] <= 0.0:
            continue
        lo, hi = max(0, i - window), min(fid.size, i + window + 1)
        if fid[i] >= fid[lo:hi].max():
            return int(i)
    return None


# ---------------------------------------------------------------------------
# the package's tab-separated tables

def read_table(path):
    """('# key<TAB>value' header dict, list of data rows split on tabs)."""
    meta, rows = {}, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                body = line[1:].strip()
                if "\t" in body:
                    key, value = body.split("\t", 1)
                    meta[key.strip()] = value.strip()
            elif line.strip():
                rows.append(line.split("\t"))
    return meta, rows


def read_positions(path):
    """Dimensionless positions from a crystal table (index, u_x, u_y)."""
    meta, rows = read_table(path)
    u = np.zeros((int(meta["ion_count"]), 2))
    for fields in rows:
        u[int(fields[0])] = (float(fields[1]), float(fields[2]))
    return u


def read_schedule(path):
    """(times, amplitudes, mu, pair) of a schedule table, angular units."""
    meta, rows = read_table(path)
    times = np.zeros(len(rows) + 1)
    amps = np.zeros(len(rows))
    for fields in rows:
        p = int(fields[0])
        times[p], times[p + 1] = float(fields[1]), float(fields[2])
        amps[p] = 2.0 * math.pi * float(fields[3])
    pair = tuple(int(v) for v in meta["target_pair"].split(","))
    return times, amps, 2.0 * math.pi * float(meta["mu_hz"]), pair
