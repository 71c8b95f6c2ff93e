"""How the central ion spacing shrinks as the crystal grows.

Solving the closed-shell series N = 7 ... 217 and fitting
u_min = c N^p on a log-log grid gives a slow power law: doubling the
crystal only squeezes the center by a few percent.  Inverting the scale
factor then answers the practical question: what radial confinement
keeps a target spacing at a given ion number?
"""

import math

import numpy as np

from gatelab import (TrapConfig, fit_power_law, omega_r_for_spacing,
                     solve_equilibrium)

series = [7, 19, 37, 61, 91, 127, 169, 217]
crystals = {n: solve_equilibrium(TrapConfig(n, omega_r=2 * math.pi * 0.2e6,
                                            omega_z=2 * math.pi * 10e6))
            for n in series}
points = [(n, crystals[n].u_min) for n in series]
fit = fit_power_law(points)

print("closed-shell series at omega_r/2pi = 0.2 MHz, omega_z/2pi = 10 MHz")
ell = crystals[series[0]].length_scale_ell
print("%6s %10s %12s %12s" % ("N", "u_min", "d_min (um)", "fit (um)"))
for n, u in points:
    print("%6d %10.5f %12.3f %12.3f"
          % (n, u, u * ell * 1e6, fit.evaluate(n) * ell * 1e6))
print("\npower law: u_min = %.4f N^(%.4f), rms log residual %.1e"
      % (fit.prefactor, fit.exponent, fit.rms_log_residual))

print("\nradial confinement needed to hold a spacing target:")
print("%6s %14s %18s" % ("N", "target (um)", "omega_r/2pi (MHz)"))
for n in (37, 127, 217):
    for target in (5e-6, 20e-6):
        omega = omega_r_for_spacing(crystals[n], target)
        print("%6d %14.1f %18.4f"
              % (n, target * 1e6, omega / (2 * math.pi) / 1e6))
print("\nLoosening the trap by the cube of the spacing ratio buys room: "
      "a 4x wider lattice costs a 8x softer radial trap.")
