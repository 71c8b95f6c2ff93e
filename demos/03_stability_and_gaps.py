"""Where the planar crystal buckles, and what it costs to stay far away.

The single-plane configuration is only a stable equilibrium while the
trap anisotropy beta = omega_z/omega_r exceeds a critical value that
grows with ion number roughly like beta_c^2 = a (N-2)^b.  Sitting far
above threshold is safe but squeezes all axial modes against the
uniform (center-of-mass) mode at omega_z, which matters later because
gate drives park right above that band.
"""

import math

import numpy as np

from gatelab import (TrapConfig, axial_spectrum, com_gap, critical_beta,
                     fit_power_law, solve_equilibrium)

trap = lambda n: TrapConfig(n, omega_r=2 * math.pi * 0.2e6,
                            omega_z=2 * math.pi * 10e6)

print("critical anisotropy, beta_c = sqrt(lambda_max(L)):")
print("%6s %10s %12s" % ("N", "beta_c", "beta_c^2"))
points = []
crystals = {}
for n in (7, 19, 37, 61, 91, 127):
    crystals[n] = solve_equilibrium(trap(n))
    bc = critical_beta(crystals[n])
    points.append((n, bc ** 2))
    print("%6d %10.4f %12.4f" % (n, bc, bc ** 2))

fit = fit_power_law(points, shift=2.0)
print("\nfit: beta_c^2 = %.4f (N-2)^%.4f" % (fit.prefactor, fit.exponent))

# gap between the uniform mode and the rest of the band, 19 ions
crystal = crystals[19]
bc19 = math.sqrt(dict(points)[19])
print("\nuniform-mode gap vs anisotropy (N=19, beta_c=%.3f):" % bc19)
print("%10s %16s" % ("beta", "gap/2pi (kHz)"))
for scale in (1.5, 2.0, 3.0, 5.0, 8.0):
    beta = scale * bc19
    gap = com_gap(crystal, beta=beta)
    print("%10.2f %16.3f" % (beta, gap / (2 * math.pi) / 1e3))

spec = axial_spectrum(crystals[127])
low, high = spec.band_edges()
print("\nN=127 axial band at the working point: [%.4f, %.4f] MHz"
      % (low / (2 * math.pi) / 1e6, high / (2 * math.pi) / 1e6))
print("All %d modes crowd into %.1f kHz below the uniform mode."
      % (spec.mode_count, (high - low) / (2 * math.pi) / 1e3))
