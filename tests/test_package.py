"""The package surface, the order its stages import each other in, the
command line's BLAS thread default and the input rules every entry point
shares.

Each surface and thread check runs in a fresh interpreter whose
environment names no BLAS thread count, since both are decided when a
process first imports gatelab and numpy.
"""

import ast
import glob
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import gatelab
from gatelab import crystal as cr, gate as gt, modes as md
from gatelab import optimizer as op, oracle as orc
from gatelab.errors import NegativeOccupation

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gatelab.__file__)))

# CI's n19 and n127table (gatebench's cli_table) artifact configs
CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")


def python(*args, **env):
    """Run ``python args`` with no thread variable set but ``env``; its
    standard output."""
    scrubbed = {name: value for name, value in os.environ.items()
                if name not in gatelab._BLAS_THREAD_VARIABLES}
    scrubbed.update(env, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *args], env=scrubbed,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def thread_variables(**env):
    """The thread variables after ``import gatelab.cli``."""
    return json.loads(python(
        "-c", "import json, os, gatelab, gatelab.cli; print(json.dumps("
        "{name: os.environ.get(name) "
        "for name in gatelab._BLAS_THREAD_VARIABLES}))", **env))


def artifacts(out):
    return {path.name: path.read_bytes() for path in out.iterdir()}


class TestLazySurface:
    def test_import_loads_no_stage(self):
        # nor numpy: the command line sets the BLAS thread count first
        assert python(
            "-c", "import sys, gatelab; hasattr(gatelab, 'no_such_name'); "
            "print(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith('gatelab.')))") == "[]\n"

    def test_every_name_is_its_stage_object(self):
        # each name of __all__ is the object the module it names as its
        # own defines, and every one is reachable by a star import
        assert python(
            "-c", "import sys, gatelab\n"
            "from gatelab import *\n"
            "for name in gatelab.__all__:\n"
            "    obj = getattr(gatelab, name)\n"
            "    stage = obj.__module__\n"
            "    assert stage.startswith('gatelab.'), name\n"
            "    assert obj.__name__ == name, name\n"
            "    assert getattr(sys.modules[stage], name) is obj, name\n"
            "    assert globals()[name] is obj, name\n"
            "print(len(gatelab.__all__))") == "49\n"

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gatelab.no_such_name


# each module's stage: an in-package import names a smaller one.  Rank 0
# is the package itself (its own helpers), errors and _textio.
STAGES = {"__init__": 0, "errors": 0, "_textio": 0, "crystal": 1,
          "modes": 2, "gate": 3, "optimizer": 4, "oracle": 4, "cli": 5}


def in_package_imports(path):
    """The package modules a source file imports, read with ast: a name
    of ``from . import name`` that is no module is the package's own."""
    found = set()
    for node in ast.walk(ast.parse(open(path).read())):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] == "gatelab":
                parts = parts[1:]
            elif node.level != 1:
                continue
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name if alias.name in STAGES
                             else "__init__" for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".") + ["__init__"]
                if parts[0] == "gatelab":
                    found.add(parts[1])
    return found


class TestStageOrder:
    """The stages import only earlier ones: crystal, modes, gate, then the
    optimizer and the oracle, then the command line, which never loads
    the oracle.  Read from the source, so no module is imported."""

    paths = sorted(glob.glob(os.path.join(SRC, "gatelab", "*.py")))

    def test_every_module_has_a_stage(self):
        assert sorted(os.path.basename(p)[:-3] for p in self.paths) == sorted(
            STAGES)

    @pytest.mark.parametrize("path", paths, ids=os.path.basename)
    def test_imports_name_earlier_stages(self, path):
        module = os.path.basename(path)[:-3]
        imported = in_package_imports(path)
        later = {name: STAGES.get(name) for name in imported
                 if not STAGES.get(name, 99) < STAGES[module]}
        assert not later, "%s imports %s" % (module, later)
        if module == "cli":
            assert "oracle" not in imported


class TestBlasThreadDefault:
    def test_unset_count_becomes_one(self):
        assert thread_variables() == {"OPENBLAS_NUM_THREADS": "1",
                                      "GOTO_NUM_THREADS": None,
                                      "OMP_NUM_THREADS": "1"}

    @pytest.mark.parametrize("env", [
        {"OPENBLAS_NUM_THREADS": "2"},
        {"OMP_NUM_THREADS": "3"},
        {"GOTO_NUM_THREADS": "1"},
    ], ids=["openblas-2", "omp-3-alone", "goto-1-alone"])
    def test_named_count_is_kept(self, env):
        expected = dict.fromkeys(gatelab._BLAS_THREAD_VARIABLES)
        expected.update(env)
        assert thread_variables(**env) == expected

    def test_numpy_loaded_first_keeps_environment(self):
        # OpenBLAS has read its count by then: the CLI leaves it be
        assert python(
            "-c", "import os, sys, numpy; before = dict(os.environ); "
            "import gatelab.cli; sys.exit(dict(os.environ) != before)") == ""

    @pytest.mark.parametrize("name", ["n127table", "n19"])
    def test_unset_count_writes_the_one_thread_bytes(self, name, tmp_path):
        # at OpenBLAS's own count the N=127 crystal rounds differently, and
        # every artifact of cli_table with it
        config = os.path.join(CONFIGS, name + ".cfg")
        for side, env in (("unset", {}),
                          ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            python("-m", "gatelab.cli", "optimize", "--config", config,
                   "--out", str(tmp_path / side), **env)
        unset = artifacts(tmp_path / "unset")
        one = artifacts(tmp_path / "one")
        assert "scan.tsv" in one and "best_report.tsv" in one
        assert sorted(unset) == sorted(one)
        for artifact in one:
            assert unset[artifact] == one[artifact], artifact


# one table of bad values, by id; a rule refuses those REFUSED names.  A
# ragged sequence is one numpy cannot make an array of.
BAD = {"str": "2", "bool": True, "none": None, "complex": 2j,
       "list": [2.0], "ragged": [1, [2]], "ragged-deep": [1.0, [2.0, [3.0]]],
       "nan": math.nan, "inf": math.inf, "minus-inf": -math.inf, "zero": 0,
       "minus-one": -1, "fraction": 2.5, "whole-float": 7.0}
REFUSED = {
    "count": set(BAD),                               # crystal._count
    "shells": set(BAD) - {"zero"},                   # crystal._index, >= 0
    "index": set(BAD) - {"zero"},                    # crystal.check_pair
    "positive": set(BAD) - {"fraction", "whole-float"},  # crystal._positive
    # an optional number, where None means unset
    "optional": set(BAD) - {"none", "fraction", "whole-float"},
    "nbar": set(BAD) - {"zero", "fraction", "whole-float"},
    # crystal._reals, each value as one element of the sequence
    "reals": set(BAD) - {"zero", "minus-one", "fraction", "whole-float"},
}
# Python and numpy ints, and for a number floats too
GOOD = {"count": (2, np.int64(2)), "shells": (0, 2, np.int64(2)),
        "index": (0, 2, np.int64(2))}
GOOD.update(dict.fromkeys(("positive", "optional", "nbar", "reals"),
                          (2, np.int64(2), 2.5, np.float32(2.5))))


class Inputs:
    """A four-ion crystal (a square, two pair separations) and what the
    entry points need around the argument under test."""

    trap = cr.TrapConfig(4, omega_r=2 * math.pi * 1e6,
                         omega_z=2 * math.pi * 5e6)
    crystal = cr.solve_equilibrium(trap)
    spectrum = md.axial_spectrum(crystal)
    schedule = gt.PulseSchedule.uniform(0.4e-6, [2e5, -2e5], 4e7)


def problem(**values):
    return op.OptimizationProblem(**dict(dict(pair=(0, 1), tau=5e-5),
                                         **values))


def schedule(**values):
    return gt.PulseSchedule(**dict(dict(times=[0.0, 1.0],
                                        amplitudes=[1.0], mu=1.0), **values))


def trap(**values):
    return cr.TrapConfig(**dict(dict(ion_count=4, omega_r=1.0,
                                     omega_z=10.0), **values))


# (id, rule, name its message leads with, call with the value, the value
# as stored or handed back; None where the output is no copy of it)
ENTRY_POINTS = [
    ("TrapConfig.ion_count", "count", "ion_count",
     lambda v: trap(ion_count=v), lambda got: got.ion_count),
    *((("TrapConfig." + name, "positive", name,
        lambda v, name=name: trap(**{name: v}),
        lambda got, name=name: getattr(got, name)))
      for name in ("omega_r", "omega_z", "ion_mass", "charge")),
    ("TrapConfig.temperature_nbar", "nbar", "nbar",
     lambda v: trap(temperature_nbar=v), lambda got: got.temperature_nbar),
    ("check_nbar", "nbar", "nbar", cr.check_nbar, lambda got: got),
    ("OptimizationProblem.pair", "index", "pair",
     lambda v: problem(pair=(v, 1)), lambda got: got.pair[0]),
    ("OptimizationProblem.tau", "positive", "tau",
     lambda v: problem(tau=v), lambda got: got.tau),
    ("OptimizationProblem.segment_count", "count", "segment_count",
     lambda v: problem(segment_count=v), lambda got: got.segment_count),
    ("OptimizationProblem.mu_grid", "reals", "mu_grid",
     lambda v: problem(mu_grid=[v]), lambda got: got.mu_grid),
    ("OptimizationProblem.amplitude_bound", "optional", "amplitude_bound",
     lambda v: problem(amplitude_bound=v), lambda got: got.amplitude_bound),
    ("PulseSchedule.times", "reals", "times",
     lambda v: schedule(times=[0.0, v]),
     lambda got: got.times[1:]),
    ("PulseSchedule.amplitudes", "reals", "amplitudes",
     lambda v: schedule(amplitudes=[v]), lambda got: got.amplitudes),
    ("PulseSchedule.mu", "positive", "mu",
     lambda v: schedule(mu=v), lambda got: got.mu),
    ("PulseSchedule.target_pair", "index", "target pair",
     lambda v: schedule(target_pair=(v, 1)),
     lambda got: got.target_pair[0]),
    ("PulseSchedule.uniform.duration", "positive", "duration",
     lambda v: gt.PulseSchedule.uniform(v, [1.0], 1.0),
     lambda got: got.duration),
    ("PulseSchedule.uniform.amplitudes", "reals", "amplitudes",
     lambda v: gt.PulseSchedule.uniform(1.0, [v], 1.0),
     lambda got: got.amplitudes),
    ("PulseSchedule.uniform.mu", "positive", "mu",
     lambda v: gt.PulseSchedule.uniform(1.0, [1.0], v), lambda got: got.mu),
    ("closed_shell_count", "shells", "shells", cr.closed_shell_count, None),
    ("omega_r_for_spacing", "positive", "d_min",
     lambda v: cr.omega_r_for_spacing(Inputs.crystal, v), None),
    ("com_gap", "optional", "beta",
     lambda v: md.com_gap(Inputs.crystal, beta=v), None),
    ("default_pair_list", "count", "count",
     lambda v: op.default_pair_list(Inputs.crystal, v), None),
    ("default_mu_grid", "count", "points",
     lambda v: op.default_mu_grid(Inputs.trap.omega_z, v), None),
    ("evolve", "count", "n_max",
     lambda v: orc.evolve(Inputs.schedule, Inputs.spectrum, (0, 1), 0.1,
                          n_max=v), None),
]


class TestInputRules:
    """Every entry point that takes a number, a count, an index or a
    sequence of numbers states no rule of its own: it calls crystal's,
    whose refusals are ValueErrors that name the argument."""

    @pytest.mark.parametrize(
        "call, name, bad",
        [pytest.param(call, name, bad, id="%s-%s" % (entry, bad))
         for entry, rule, name, call, _ in ENTRY_POINTS
         for bad in BAD if bad in REFUSED[rule]])
    def test_bad_value_is_a_named_value_error(self, call, name, bad):
        error = NegativeOccupation if name == "nbar" else ValueError
        with pytest.raises(error, match="^" + re.escape(name) + " "):
            call(BAD[bad])

    @pytest.mark.parametrize(
        "call, stored, kind, value",
        [pytest.param(call, stored,
                      int if rule in ("count", "shells", "index") else float,
                      value,
                      id="%s-%s-%r" % (entry, type(value).__name__, value))
         for entry, rule, _, call, stored in ENTRY_POINTS
         if entry != "evolve"  # a cutoff integrates; cutoffs: test_oracle
         for value in GOOD[rule]])
    def test_good_value_is_kept_as_a_python_number(self, call, stored, kind,
                                                   value):
        # a count or an index as an int, a number as a float, a sequence
        # as a float array
        got = call(value)
        if stored is None:
            return
        kept = stored(got)
        if isinstance(kept, np.ndarray):
            assert kept.dtype == np.float64 and kept.tolist() == [value]
        else:
            assert type(kept) is kind and kept == value
