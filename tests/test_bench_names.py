"""Every gatelab name the benchmark looks up still exists, and every
call it makes still binds.

``gatebench/`` drives the package from outside: its tracer wraps the
functions named in the ``SPANNED`` and ``COUNTED`` tables, and its
workloads read module attributes such as ``optimizer.detuning_scan``.  A
deleted or renamed name, or a dropped keyword, would otherwise show only
as an ``AttributeError`` or ``TypeError`` when the benchmark runs.  The
benchmark files are parsed, not imported.
"""

import ast
import functools
import importlib
import inspect
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


def _package_modules(tree):
    """Local name -> gatelab module name of ``from gatelab import ...``."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gatelab":
            modules.update((alias.asname or alias.name, alias.name)
                           for alias in node.names)
    return modules


def test_workload_names_exist():
    # the modules imported from the package under their local names, the
    # names imported from its modules, then every attribute read on one
    # of those modules
    tree = _tree("workloads.py")
    modules = _package_modules(tree)
    names = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
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


def _dotted(node):
    """["gate", "PulseSchedule", "uniform"] for ``gate.PulseSchedule.uniform``,
    None for anything but a chain of attributes on a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    return [node.id] + parts if isinstance(node, ast.Name) else None


def test_workload_calls_bind():
    # every call on a package module attribute, by its positional count
    # and keywords, against the signature of what it calls
    tree = _tree("workloads.py")
    modules = _package_modules(tree)
    unbound = []
    called = set()
    for node in ast.walk(tree):
        path = isinstance(node, ast.Call) and _dotted(node.func)
        if not path or len(path) < 2 or path[0] not in modules:
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args)
        assert all(k.arg is not None for k in node.keywords)
        name = ".".join([modules[path[0]]] + path[1:])
        target = functools.reduce(
            getattr, path[1:],
            importlib.import_module("gatelab." + modules[path[0]]))
        called.add(name)
        try:
            inspect.signature(target).bind(
                *node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            unbound.append("line %d %s: %s" % (node.lineno, name, exc))
    assert {"gate.PulseSchedule.uniform", "crystal.TrapConfig",
            "optimizer.OptimizationProblem", "oracle.evolve",
            "oracle.fidelity_from_state", "cli.main"} <= called
    assert unbound == []
