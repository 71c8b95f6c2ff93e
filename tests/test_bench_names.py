"""Every gatelab name the benchmark looks up still exists.

``gatebench/`` drives the package from outside: its tracer wraps the
functions named in the ``SPANNED`` and ``COUNTED`` tables, and its
workloads read module attributes such as ``optimizer.detuning_scan``.  A
deleted or renamed name would otherwise show only as an ``AttributeError``
when the benchmark runs.  The benchmark files are parsed, not imported.
"""

import ast
import importlib
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "gatebench"


def _tree(name):
    return ast.parse((BENCH / name).read_text(), filename=name)


def _missing(names):
    return sorted((module, name) for module, name in names
                  if not hasattr(importlib.import_module("gatelab." + module),
                                 name))


def test_traced_names_exist():
    names = []
    for node in _tree("tracer.py").body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)]
                in (["SPANNED"], ["COUNTED"])):
            names.extend(ast.literal_eval(node.value))
    assert ("crystal", "potential_gradient") in names  # COUNTED
    assert ("optimizer", "solve_amplitudes") in names  # SPANNED
    assert _missing(names) == []


def test_workload_names_exist():
    # the modules imported from the package under their local names, the
    # names imported from its modules, then every attribute read on one
    # of those modules
    modules = {}
    names = []
    tree = _tree("workloads.py")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gatelab":
            modules.update((alias.asname or alias.name, alias.name)
                           for alias in node.names)
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").startswith("gatelab.")):
            names.extend((node.module[len("gatelab."):], alias.name)
                         for alias in node.names)
    names.extend((modules[node.value.id], node.attr)
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id in modules)
    assert ("cli", "main") in names
    assert ("errors", "GatelabError") in names
    assert _missing(names) == []
