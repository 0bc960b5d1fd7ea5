"""The package's public names and their library callers, the functions the
benchmark traces, the one module that reads and writes files, and the
oracle's independence."""

import ast
import importlib
from pathlib import Path

import henonmorse

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_public_name_resolves():
    missing = [name for name in henonmorse.__all__
               if not hasattr(henonmorse, name)]
    assert missing == []
    assert len(set(henonmorse.__all__)) == len(henonmorse.__all__)


def test_the_public_names_are_these():
    # adding or removing a public name is an edit of this list
    assert henonmorse.__all__ == [
        "BETA_PLANAR", "__version__",
        "DimensionMap", "generalized_dimension", "eigenvalue_pullback",
        "angular_threshold", "degeneracy_targets",
        "RadialProfile", "IntegrationError", "solve_nodal_power",
        "validate_profile", "auxiliary_z", "linearized_potential",
        "WeightedSLProblem", "SpectralConfig", "SpectralError", "EigenPair",
        "Spectrum", "liouville_transform", "solve_singular_spectrum",
        "solve_standard_spectrum",
        "theta_analytic", "zero_potential", "dense_oracle_spectrum",
        "MorseReport", "DegeneracyReport", "beltrami_eigen",
        "beltrami_multiplicity", "morse_index", "degeneracy_scan",
        "symmetric_morse_index", "lower_bound", "asymptotic_prediction",
    ]


# public names the library keeps without a caller in it, each with its reason
UNCALLED_PUBLIC = {"auxiliary_z": "ROADMAP item 1's witness"}


def test_every_public_name_has_a_library_caller():
    # a public name that only tests call belongs in tests/diagnostics.py;
    # the benchmark is scanned from its source, not imported
    modules = [path for path in Path(henonmorse.__file__).parent.glob("*.py")
               if path.stem != "__init__"]
    modules += [path for path in (ROOT / "perfbench").glob("*.py")
                if not path.stem.startswith("test_")]
    referenced = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    uncalled = [name for name in henonmorse.__all__
                if name not in referenced]
    assert uncalled == list(UNCALLED_PUBLIC)


def traced_functions():
    """(module, function) of each TARGETS entry of the benchmark's tracer,
    read from its source: importing it would write bytecode beside it."""
    tree = ast.parse(TRACER.read_text(), str(TRACER))
    targets = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets]
                   == ["TARGETS"])
    return [(entry.elts[0].value, entry.elts[1].value)
            for entry in targets.elts]


def test_every_traced_function_resolves():
    # the tracer skips a renamed function without a word, and its metrics
    # then read 0; the potential factory is wrapped by name as well
    hooks = traced_functions() + [("henonmorse.radial",
                                   "linearized_potential")]
    assert len(hooks) > 1
    missing = [f"{module}.{name}" for module, name in hooks
               if not callable(getattr(importlib.import_module(module), name,
                                       None))]
    assert missing == []


def test_only_cli_reads_or_writes_files():
    # every result and cache format lives in cli; a csv or json import
    # elsewhere is a second home for one
    importers = {}
    for path in Path(henonmorse.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top in ("csv", "json"):
                    importers.setdefault(top, set()).add(path.stem)
    assert importers == {"csv": {"cli"}, "json": {"cli"}}


def test_the_oracle_shares_no_solver_code():
    # the dense oracle is a cross-check only while it shares no grid, solver
    # or eigen-kernel with the production solvers: from the package it takes
    # the LAPACK loaders (of the f2py modules and of cython_lapack's C
    # functions), the data types and the counting cuts
    path = Path(henonmorse.__file__).parent / "oracle.py"
    imported, names = {}, set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "henonmorse"):
            module = (node.module or "").removeprefix("henonmorse.")
            imported.setdefault(module, set()).update(
                alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not [alias.name for alias in node.names
                        if alias.name.split(".")[0] == "henonmorse"]
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)      # getattr(module, "dstebz")
    assert imported.pop("_kernels") == {"lapack_module",
                                        "cython_lapack_function"}
    assert imported.pop("spectral") <= {
        "MARGIN", "NODE_TOL", "ZERO_CUT", "EigenPair", "SpectralError",
        "Spectrum", "WeightedSLProblem", "count_sign_changes"}
    assert imported == {}
    assert names & {"dstebz", "dlaebz", "dstein", "dgttrf",
                    "dgttrs"} == set()
