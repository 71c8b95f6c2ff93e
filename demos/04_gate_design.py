"""Design a two-qubit phase gate in the 127-ion crystal.

A spin-dependent force with piecewise-constant segment amplitudes is
scanned over drive detunings near the axial band.  At each detuning the
segment amplitudes are solved for the best trade between closing all
mode trajectories and accumulating the conditional phase pi/4; the scan
then shows a comb of workable windows above the band edge.
"""

import math

import numpy as np

from gatelab import (TrapConfig, OptimizationProblem, axial_spectrum,
                     band_edge_optimum, default_mu_grid, default_pair_list,
                     detuning_scan, gate_report, solve_equilibrium)

trap = TrapConfig(127, omega_r=2 * math.pi * 0.2e6,
                  omega_z=2 * math.pi * 10e6, temperature_nbar=0.1)
crystal = solve_equilibrium(trap)
spectrum = axial_spectrum(crystal)

pairs = default_pair_list(crystal)
pair = pairs[0]  # nearest-neighbor pair at the crystal center
print("target pair %s, separation %.2f um"
      % (pair, np.linalg.norm(crystal.positions[pair[0]]
                              - crystal.positions[pair[1]])
         * crystal.length_scale_ell * 1e6))

problem = OptimizationProblem(pair=pair, tau=50e-6, segment_count=5,
                              mu_grid=default_mu_grid(trap.omega_z))
result = detuning_scan(spectrum, problem)

print("\nscan of %d detunings around the band top (10 MHz):"
      % result.mu_grid.size)
band_top = float(spectrum.frequencies.max())
edge = band_edge_optimum(result, band_top)
best = result.best_index
for label, idx in (("first window above the band", edge),
                   ("global best on the grid", best)):
    print("  %-28s mu/2pi = %.4f MHz  F = %.6f  peak drive %.3f MHz"
          % (label, result.mu_grid[idx] / (2 * math.pi) / 1e6,
             result.fidelities[idx],
             result.max_amplitudes[idx] / (2 * math.pi) / 1e6))

report = gate_report(result.best_schedule, spectrum, pair)
print("\nwinning schedule:")
print("  segment amplitudes (MHz):",
      np.round(result.best_schedule.amplitudes / (2 * math.pi) / 1e6, 4))
print("  conditional phase: %.6f rad (target pi/4 = %.6f)"
      % (abs(report.phi), math.pi / 4))
print("  residual mode excursions |alpha|: max %.2e"
      % report.mode_alpha_abs.max())
print("  thermal fidelity at nbar=0.1: %.6f" % report.fidelity)

# a detuning inside the band comb exists too, but those windows sit on
# top of individual mode resonances and wander point to point; the
# windows above the band stay smooth, which is what the selector finds.
