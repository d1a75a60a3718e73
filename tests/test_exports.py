"""Public names: every export resolves and is declared in the module it comes from."""

import ast
import copy
import dataclasses
import functools
import importlib
import pkgutil
import typing
from pathlib import Path

import numpy as np
import pytest

import steerlab

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(steerlab.__path__) if m.name != "__main__")


def _package_imports():
    """(submodule, name) for every ``from .submodule import name`` in the package root."""
    tree = ast.parse(Path(steerlab.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", ["steerlab", *(f"steerlab.{m}" for m in SUBMODULES)])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names), "duplicate names in __all__"
    assert [n for n in names if not hasattr(mod, n)] == []


def test_reexports_are_declared_by_their_module():
    undeclared = []
    for module, name in _package_imports():
        declared = getattr(importlib.import_module(f"steerlab.{module}"), "__all__", None)
        if declared is not None and name not in declared:
            undeclared.append(f"{module}.{name}")
    assert undeclared == []


def test_package_all_lists_exactly_its_imports():
    assert sorted(name for _, name in _package_imports()) == sorted(steerlab.__all__)


def _names_outside_own_def(tree):
    """Every name a tree reads or imports, except inside the def that defines it."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        name = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias)
            else None
        )
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_module_functions_have_callers():
    """Every module-level function is exported or named somewhere outside its own def.

    The names are read from the package, ``scripts/`` and ``bench/``; tests
    do not count, so a function only tests call fails here.
    """
    package = Path(steerlab.__file__).parent
    root = package.parents[1]
    defined = {
        f"{path.stem}.{node.name}": node.name
        for path in package.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    named = set()
    for path in [*package.glob("*.py"), *(root / "scripts").glob("*.py"),
                 *(root / "bench").glob("*.py")]:
        named |= _names_outside_own_def(ast.parse(path.read_text()))
    uncalled = [
        qualified for qualified, name in defined.items()
        if name not in steerlab.__all__ and name not in named
    ]
    assert sorted(uncalled) == []


# defaults no call outside the tests sets, each with its reason
UNSET_DEFAULTS_ALLOWED = {
    # public stages that take certify's one documented tolerance
    "lhs_lp.problem_for(tol)",
    "steering.measurement_requirement(tol)",
    # the console entry point reads sys.argv when called without arguments
    "cli.main(argv)",
}


def _parameters_set(calls, positional):
    """Names the calls set, by keyword or by position in the order ``positional``.

    A call that unpacks ``*args`` or ``**kwargs`` may set any parameter: None.
    """
    found = set()
    for call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords
        ):
            return None
        found.update(positional[: len(call.args)])
        found.update(k.arg for k in call.keywords)
    return found


def test_defaults_have_setters():
    """Every default parameter of a module-level function is set by some call.

    A call sets a parameter by keyword or by position; calls are matched to
    the function by name, as in ``test_module_functions_have_callers``.  The
    calls are read from the package, ``scripts/`` and ``bench/``; tests do
    not count, so a default only tests override is an option no caller uses.
    """
    package = Path(steerlab.__file__).parent
    root = package.parents[1]
    calls = {}
    for path in [*package.glob("*.py"), *(root / "scripts").glob("*.py"),
                 *(root / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = [a.arg for a in (*args.posonlyargs, *args.args)]
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            found = _parameters_set(calls.get(node.name, []), positional)
            if found is not None:
                unset += [f"{path.stem}.{node.name}({p})" for p in defaulted if p not in found]
    assert sorted(unset) == sorted(UNSET_DEFAULTS_ALLOWED)


def _holds_array(tp, seen=frozenset()) -> bool:
    """Whether a type hint is an ndarray or contains one, through dataclass fields too."""
    if tp is np.ndarray or typing.get_origin(tp) is np.ndarray:
        return True
    if isinstance(tp, type) and dataclasses.is_dataclass(tp):
        return tp not in seen and any(
            _holds_array(hint, seen | {tp}) for hint in typing.get_type_hints(tp).values()
        )
    return any(_holds_array(arg, seen) for arg in typing.get_args(tp))


ARRAY_HOLDERS = sorted(
    name for name in steerlab.__all__
    if isinstance(getattr(steerlab, name), type) and _holds_array(getattr(steerlab, name))
)


@functools.cache
def _array_holder_instances():
    """One instance of each exported class that holds an array, by name."""
    family = steerlab.computational_family(2)
    basis = steerlab.BellLikeBasis(0.3, family, family_label="computational")
    bell = steerlab.SteeringProtocol(
        2, steerlab.bell_like_setting(basis),
        steerlab.bell_like_setting(steerlab.BellLikeBasis(1.1, family)), 4,
    )
    # a product state has a hidden-state model: the LP finds one
    product = steerlab.EnsembleState(
        4, (1.0,), (np.kron(steerlab.random_pure(2, 1), steerlab.random_pure(2, 2)),)
    )
    protocol = steerlab.tensor_protocol("zz", "yx", n_qubits=4)
    sets = [steerlab.conditional_states(product, protocol, k) for k in (1, 2)]
    problem, _ = steerlab.problem_for(*sets)
    result = steerlab.solve_feasibility(problem)
    extraction = steerlab.two_term_extract(steerlab.max_rank_family(4, 2, 1), basis, 2)
    return {
        "EnsembleState": product,
        "DensityMatrix": steerlab.density_of(product),
        "BellLikeBasis": basis,
        "MeasurementSetting": protocol.setting_1,
        "SteeringProtocol": bell,
        "ConditionalStateSet": sets[0],
        "CollapseDecomposition": steerlab.collapse_decomposition(product, protocol.setting_1, 2),
        "LpProblem": problem,
        "FeasibilityResult": result,
        "LhsModel": result.model,
        "TwoTermForm": extraction.form,
        "TwoTermExtraction": extraction,
    }


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_compare_by_identity(name):
    """Equal copies of a class with an array field compare and hash without raising.

    The generated field-wise ``==`` would ask an array for its truth value,
    and the generated hash would hash an array; both go by identity instead.
    """
    cls = getattr(steerlab, name)
    obj = _array_holder_instances()[name]
    twin = copy.deepcopy(obj)
    assert isinstance(obj, cls) and type(twin) is type(obj)
    assert not cls.__dataclass_params__.eq
    assert obj == obj and obj != twin and not obj == twin
    assert hash(obj) == hash(obj) and len({obj, twin}) == 2


def test_array_holders_are_found():
    assert set(ARRAY_HOLDERS) == set(_array_holder_instances())
