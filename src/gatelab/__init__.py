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
- :mod:`gatelab.cli`: file-driven command line front end, which pins the
  BLAS thread count first: ``import gatelab`` loads no stage, nor numpy.

Every artifact is one tab-separated table with '# key<TAB>value' headers;
``gatelab._textio`` holds its only writer and reader, and each stage's
``write_*`` maps its objects to that table.  Only the crystal cache and
pulse schedules are read back (:func:`read_crystal`, :func:`read_schedule`).
"""

import importlib
import os
import sys

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

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")  # in the order OpenBLAS reads


def __getattr__(name):
    """A name of ``__all__`` from the first stage that holds it (PEP 562)."""
    if name in __all__:
        for stage in ("errors", "crystal", "modes", "gate", "optimizer"):
            module = importlib.import_module("." + stage, __name__)
            if hasattr(module, name):
                return getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _one_blas_thread():
    """True when the first thread variable set reads 1: the pool's gate."""
    return next((os.environ[name] == "1" for name in _BLAS_THREAD_VARIABLES
                 if name in os.environ), False)


def _default_one_blas_thread():
    """One OpenBLAS and OpenMP thread unless a thread variable is set or
    numpy has loaded: OpenBLAS reads the count once, as it loads."""
    if "numpy" not in sys.modules and not any(
            name in os.environ for name in _BLAS_THREAD_VARIABLES):
        os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
