"""gatelab: planar ion crystals, axial phonons, and segmented phase gates.

The package is organised as one module per study stage:

- :mod:`gatelab.crystal`: planar equilibria of radially confined ions,
  minimum-spacing scaling, and trap targeting.
- :mod:`gatelab.modes`: out-of-plane (axial) normal modes, stability
  thresholds, and the uniform-mode gap.
- :mod:`gatelab.gate`: spin-dependent segmented drives, accumulated
  displacements and two-ion phase, thermal fidelity, and the gate report
  (:func:`gate_report`, with each ion's peak response).
- :mod:`gatelab.optimizer`: amplitude solves at fixed detuning, detuning
  scans, pair selection, and the benchmark table.
- :mod:`gatelab.cli`: file-driven command line front end.

Every artifact is one tab-separated table with '# key<TAB>value' headers;
``gatelab._textio`` holds its only writer and reader, and each stage's
``write_*`` maps its objects to that table.  Only the crystal cache and
pulse schedules are read back (:func:`read_crystal`, :func:`read_schedule`).
"""

from .crystal import (Crystal, PowerLawFit, TrapConfig, closed_shell_count,
                      fit_power_law, length_scale, min_spacing,
                      omega_r_for_spacing, read_crystal, ring_seed,
                      solve_equilibrium, triangular_seed, with_trap,
                      write_crystal)
from .errors import (ConfigError, CutoffInsufficient, EigenFailure,
                     GatelabError, IndefiniteKernel, InsufficientPoints,
                     NegativeOccupation, NonConvergence, StepFailure,
                     UnstableSpectrum)
from .gate import (GateReport, PulseSchedule, entangling_phase, gate_report,
                   mode_displacements, read_schedule, thermal_fidelity,
                   write_report, write_schedule)
from .modes import (AxialSpectrum, axial_spectrum, com_gap, critical_beta,
                    write_spectrum)
from .optimizer import (OptimizationProblem, OptimizationResult, TableRow,
                        band_edge_optimum, default_mu_grid, default_pair_list,
                        detuning_scan, solve_amplitudes, table_one,
                        write_scan, write_table)

__version__ = "0.1.0"

__all__ = [
    "AxialSpectrum", "ConfigError", "Crystal", "CutoffInsufficient",
    "EigenFailure", "GateReport", "GatelabError",
    "IndefiniteKernel", "InsufficientPoints", "NegativeOccupation",
    "NonConvergence", "OptimizationProblem", "OptimizationResult",
    "PowerLawFit", "PulseSchedule", "StepFailure",
    "TableRow", "TrapConfig", "UnstableSpectrum",
    "axial_spectrum", "band_edge_optimum", "closed_shell_count", "com_gap",
    "critical_beta", "default_mu_grid", "default_pair_list", "detuning_scan",
    "entangling_phase", "fit_power_law", "gate_report", "length_scale",
    "min_spacing", "mode_displacements", "omega_r_for_spacing",
    "read_crystal", "read_schedule", "ring_seed",
    "solve_amplitudes", "solve_equilibrium", "table_one", "thermal_fidelity",
    "triangular_seed", "with_trap", "write_crystal", "write_report",
    "write_scan", "write_schedule", "write_spectrum", "write_table",
]
