"""The package surface and the command line's BLAS thread default.

Each check runs in a fresh interpreter whose environment names no BLAS
thread count, since both are decided when a process first imports
gatelab and numpy.
"""

import json
import os
import subprocess
import sys

import pytest

import gatelab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gatelab.__file__)))

# CI's n19.cfg and n127table.cfg (gatebench's cli_table) artifact configs
CONFIGS = {
    "n19": ["ion_count = 19", "omega_r_hz = 1e6", "omega_z_hz = 10e6",
            "pair = 3, 11", "mu_grid_points = 21", "table = true",
            "pair_count = 3", "nbar = 0.2"],
    "n127table": ["ion_count = 127", "omega_r_hz = 0.2e6",
                  "omega_z_hz = 10e6", "nbar = 0.1", "tau_s = 50e-6",
                  "segments = 5", "mu_grid_points = 5", "table = true",
                  "pair_count = 10", "omega_r_table_hz = 0.2e6, 1e6"],
}


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

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_unset_count_writes_the_one_thread_bytes(self, name, tmp_path):
        # at OpenBLAS's own count the N=127 crystal rounds differently, and
        # every artifact of cli_table with it
        config = tmp_path / (name + ".cfg")
        config.write_text("\n".join(CONFIGS[name]) + "\n")
        for side, env in (("unset", {}),
                          ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            python("-m", "gatelab.cli", "optimize", "--config", str(config),
                   "--out", str(tmp_path / side), **env)
        unset = artifacts(tmp_path / "unset")
        one = artifacts(tmp_path / "one")
        assert "scan.tsv" in one and "best_report.tsv" in one
        assert sorted(unset) == sorted(one)
        for artifact in one:
            assert unset[artifact] == one[artifact], artifact
