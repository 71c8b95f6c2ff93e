"""The driven motion stays near the target ions.

Even though the gate drive talks to all 127 axial modes at once, the
peak motional response it induces decays fast with distance from the
two target ions.  That is the property that makes the design cost of a
gate independent of crystal size.  This script designs a gate for a
mid-crystal pair and prints the response binned by distance.
"""

import math

import numpy as np

from gatelab import (TrapConfig, OptimizationProblem, axial_spectrum,
                     default_mu_grid, default_pair_list, detuning_scan,
                     gate_report, solve_equilibrium)

trap = TrapConfig(127, omega_r=2 * math.pi * 0.2e6,
                  omega_z=2 * math.pi * 10e6, temperature_nbar=0.1)
crystal = solve_equilibrium(trap)
spectrum = axial_spectrum(crystal)

pair = default_pair_list(crystal)[8]
problem = OptimizationProblem(pair=pair, tau=50e-6, segment_count=5,
                              mu_grid=default_mu_grid(trap.omega_z))
result = detuning_scan(spectrum, problem)
report = gate_report(result.best_schedule, spectrum, pair)
print("pair %s, best F = %.6f at mu/2pi = %.4f MHz"
      % (pair, result.best_fidelity, result.best_mu / (2 * math.pi) / 1e6))

response = report.response_normalized  # peak |z response| per ion, max 1
positions = crystal.positions * crystal.length_scale_ell
d_min = crystal.spacing_metres()
dist = np.minimum(
    np.linalg.norm(positions - positions[pair[0]], axis=1),
    np.linalg.norm(positions - positions[pair[1]], axis=1)) / d_min

print("\nnormalized response vs distance to the nearer target ion")
print("(units of the minimum lattice spacing):")
bins = [(0.0, 0.5), (0.5, 1.5), (1.5, 2.5), (2.5, 3.5), (3.5, 5.0),
        (5.0, 8.0), (8.0, np.inf)]
print("%14s %8s %12s %12s" % ("distance bin", "ions", "max resp", "mean"))
for lo, hi in bins:
    sel = (dist >= lo) & (dist < hi)
    if not sel.any():
        continue
    print("%6.1f - %-6.1f %8d %12.5f %12.5f"
          % (lo, hi, sel.sum(), response[sel].max(),
             response[sel].mean()))

far = dist > 3.0
print("\nions beyond 3 spacings: %d, largest response %.5f"
      % (far.sum(), response[far].max()))
print("The drive moves the targets (response 1 by definition) and their "
      "ring of neighbors; the rest of the crystal barely stirs.")
