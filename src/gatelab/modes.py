"""Normal-mode analysis of planar crystals, out-of-plane (axial) branch.

Small oscillations about the equilibrium split into in-plane and axial
blocks.  In units of M omega_r^2 the axial block is

    A^zz = beta^2 I - L,      L = diag(sum_n 1/d_mn^3) - [1/d_mn^3],

where L is the (positive semi-definite) Coulomb Laplacian of the crystal and
beta = omega_z / omega_r.  Mode frequencies follow from the eigenvalues
lambda_k of A^zz as omega_k = omega_r sqrt(lambda_k); the uniform vector is
always an eigenvector with lambda = beta^2, i.e. the centre-of-mass mode sits
exactly at omega_z.  The crystal is axially stable when every lambda_k > 0,
which fails below a critical anisotropy beta_c set by the largest eigenvalue
of L.  beta is always the trap's omega_z / omega_r: another anisotropy means
a crystal re-dressed by :func:`crystal.with_trap`, never a loose override.
"""

from dataclasses import dataclass, replace

import numpy as np

from .crystal import TrapConfig, _pair_vectors, trap_meta, with_trap
from .errors import EigenFailure, UnstableSpectrum
from ._textio import fmt, write_rows

TWO_PI = 2.0 * np.pi


def coulomb_laplacian(positions):
    """Graph-Laplacian-like matrix L with weights 1/d^3 (PSD, one zero mode)."""
    s3 = _pair_vectors(positions)[-1] ** -3.0  # 0 on the diagonal
    return np.diag(s3.sum(axis=1)) - s3


def build_matrices(crystal):
    """Axial curvature block beta^2 I - L of ``crystal``, units M omega_r^2,
    at the anisotropy beta of its trap."""
    return (crystal.config.beta**2 * np.eye(crystal.ion_count)
            - coulomb_laplacian(crystal.positions))


@dataclass(frozen=True)
class AxialSpectrum:
    """Axial normal modes of one crystal.

    ``frequencies`` are angular (rad/s) in descending order, so index 0 is
    the centre-of-mass mode at omega_z.  ``modes[k]`` is the orthonormal
    displacement pattern of mode k with the sign convention that the
    largest-magnitude component is positive.
    """

    frequencies: np.ndarray
    modes: np.ndarray
    config: TrapConfig

    @property
    def beta(self):
        """Trap anisotropy omega_z / omega_r of ``config``."""
        return self.config.beta

    @property
    def mode_count(self):
        return self.frequencies.size

    def band_edges(self):
        """(lowest, highest) mode frequency in rad/s."""
        return float(self.frequencies[-1]), float(self.frequencies[0])


def _canonical_mode_signs(vectors):
    # vectors: columns are modes; flip each so its largest-|.| entry is > 0
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def axial_spectrum(crystal):
    """Diagonalise the axial block; raises UnstableSpectrum below beta_c."""
    try:
        evals, evecs = np.linalg.eigh(build_matrices(crystal))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure("axial eigensolve failed") from exc
    if evals[0] <= 0.0:
        raise UnstableSpectrum(
            "axial branch unstable at beta=%.6g (min eigenvalue %.3e); "
            "critical anisotropy is beta_c=%.6g"
            % (crystal.config.beta, evals[0], critical_beta(crystal)))
    order = np.argsort(evals)[::-1]
    evecs = _canonical_mode_signs(evecs[:, order])
    freqs = crystal.config.omega_r * np.sqrt(evals[order])
    return AxialSpectrum(frequencies=freqs, modes=evecs.T.copy(),
                         config=crystal.config)


def critical_beta(crystal):
    """Smallest anisotropy with a stable axial branch.

    The axial block beta^2 I - L has smallest eigenvalue
    beta^2 - lambda_max(L), so the boundary is exactly
    beta_c = sqrt(lambda_max(L)).  A single ion is stable for any
    anisotropy (returns 0).
    """
    if crystal.ion_count == 1:
        return 0.0
    return float(np.sqrt(np.linalg.eigvalsh(
        coulomb_laplacian(crystal.positions))[-1]))


def com_gap(crystal, beta=None):
    """Frequency gap (rad/s) between the centre-of-mass mode and its nearest
    axial neighbour.  Shrinks monotonically as beta grows.  A ``beta``
    re-dresses the trap with omega_z = beta omega_r first."""
    if beta is not None:
        crystal = with_trap(crystal, replace(
            crystal.config, omega_z=beta * crystal.config.omega_r))
    spec = axial_spectrum(crystal)
    if spec.mode_count < 2:
        raise ValueError("gap needs at least two ions")
    return float(spec.frequencies[0] - spec.frequencies[1])


# ---------------------------------------------------------------------------
# serialization

def write_spectrum(spectrum, path):
    """Write mode table: one row per mode, frequencies in plain Hz."""
    n = spectrum.mode_count
    meta = trap_meta(spectrum.config) + [
        ("beta", fmt(spectrum.beta)),
        ("columns", "\t".join(["mode", "frequency_hz"]
                              + ["b_%d" % i for i in range(n)]))]
    rows = [[str(k), fmt(spectrum.frequencies[k] / TWO_PI)]
            + [fmt(v) for v in spectrum.modes[k]] for k in range(n)]
    write_rows(path, "gatelab axial spectrum", meta, rows)
