"""Guards for the names the benchmark harness in ``perfbench/`` wraps.

``perfbench/tracer.py`` lists library functions by module and
``perfbench/worker.py`` rewraps ``HashSplit.from_attacker_share`` as a
classmethod; a rename in ``src/`` would otherwise only show up as a
failed traced run.  The tracer file is parsed, not imported, so nothing
is written under ``perfbench/``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from doublespend import race, specfun

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_functions():
    if not TRACER.exists():
        pytest.skip("perfbench/ is not next to the tests")
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("TRACED_FUNCTIONS not found in perfbench/tracer.py")


def test_traced_functions_exist():
    missing = []
    for module_name, names in traced_functions().items():
        module = importlib.import_module(f"doublespend.{module_name}")
        missing += [f"{module_name}.{n}" for n in names if not callable(getattr(module, n, None))]
    assert not missing, missing


def test_wrapped_entry_points():
    assert isinstance(inspect.getattr_static(race.HashSplit, "from_attacker_share"), classmethod)
    assert callable(race.NetworkParams.for_split)
    assert issubclass(specfun.ConvergenceError, ArithmeticError)
