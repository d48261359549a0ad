"""Guards for the names the benchmark harness in ``perfbench/`` wraps, for
the golden CSVs it checks the tables against, and for what importing the
library loads.

``perfbench/tracer.py`` lists library functions by module and
``perfbench/worker.py`` rewraps ``HashSplit.from_attacker_share`` as a
classmethod, builds ``sim.SimConfig`` by keyword and reads fields of the
``SimResult``, and wraps ``cli.cmd_table`` and ``cli.cmd_curve``; a
rename in ``src/`` would otherwise only show up as a failed benchmark
run.  Those files and ``perfbench/inputs.py`` are parsed, not imported, so
nothing is written under ``perfbench/``.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import doublespend
from doublespend import asymptotics, cli, race, sim, specfun

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKER = PERFBENCH / "worker.py"
INPUTS = PERFBENCH / "inputs.py"
GOLDEN = PERFBENCH / "golden"
README = PERFBENCH.parent / "README.md"


def module_constant(path, name):
    """The literal value assigned to ``name`` at the top level of ``path``."""
    if not path.exists():
        pytest.skip("perfbench/ is not next to the tests")
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path.name}")


def test_traced_functions_exist():
    missing = []
    for module_name, names in module_constant(TRACER, "TRACED_FUNCTIONS").items():
        module = importlib.import_module(f"doublespend.{module_name}")
        missing += [f"{module_name}.{n}" for n in names if not callable(getattr(module, n, None))]
    assert not missing, missing


def test_golden_csvs_regenerate_identically(tmp_path):
    # the commands of perfbench/inputs.py's table_commands()
    commands = [
        (f"table_{which}.csv", ["table", "--which", which])
        for which in module_constant(INPUTS, "TABLES")
    ]
    commands.append(("curve_q0.1.csv", ["curve", *module_constant(INPUTS, "CURVE_ARGS")]))
    assert sorted(name for name, _ in commands) == sorted(p.name for p in GOLDEN.iterdir())
    for name, argv in commands:
        assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0, name
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_wrapped_entry_points():
    assert isinstance(inspect.getattr_static(race.HashSplit, "from_attacker_share"), classmethod)
    assert callable(race.NetworkParams.for_split)
    assert issubclass(specfun.ConvergenceError, ArithmeticError)


def test_main_reaches_commands_wrapped_after_first_call(monkeypatch, tmp_path):
    # main builds its parser once per process; perfbench/worker.py wraps
    # cli.cmd_table and cli.cmd_curve after import, so main must look the
    # command up in the module at each call
    out = str(tmp_path / "t.csv")
    assert cli.main(["table", "--which", "pz_q01", "--out", out]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_table", lambda args: calls.append(args.which) or 0)
    monkeypatch.setattr(cli, "cmd_curve", lambda args: calls.append(args.z) or 0)
    assert cli.main(["table", "--which", "z0", "--out", out]) == 0
    assert cli.main(["curve", "--q", "0.1", "--z", "6", "--out", out]) == 0
    assert calls == ["z0", [6]]


def is_call_to(node, module, name):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == module
    )


def test_worker_simulator_contract():
    if not WORKER.exists():
        pytest.skip("perfbench/ is not next to the tests")
    keywords, reads = set(), set()
    for func in ast.walk(ast.parse(WORKER.read_text())):
        if not isinstance(func, ast.FunctionDef):
            continue
        nodes = list(ast.walk(func))
        keywords |= {
            kw.arg for n in nodes if is_call_to(n, "sim", "SimConfig") for kw in n.keywords
        }
        results = {
            t.id
            for n in nodes
            if isinstance(n, ast.Assign) and is_call_to(n.value, "sim", "estimate_success")
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        reads |= {
            n.attr
            for n in nodes
            if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id in results
        }
    assert keywords and reads, "worker.py no longer builds a SimConfig and reads its result"
    init_fields = {f.name for f in dataclasses.fields(sim.SimConfig) if f.init}
    result_fields = {f.name for f in dataclasses.fields(sim.SimResult)}
    assert keywords <= init_fields, keywords - init_fields
    assert reads <= result_fields, reads - result_fields


def readme_text():
    if not README.exists():
        pytest.skip("README.md is not next to the tests")
    return " ".join(README.read_text().split())  # a phrase may wrap across lines


def test_readme_quick_start_runs():
    # the quick start runs as written, and each value a comment gives is
    # the one its line returns ("..." ends a prefix)
    if not README.exists():
        pytest.skip("README.md is not next to the tests")
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    lines = block.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(source, namespace)
            continue
        shown = repr(eval(source, namespace))
        comment = lines[node.end_lineno - 1][node.end_col_offset:]
        match = re.match(r"\s*#\s*(\d(?:[\d.]*\d)?)(\.\.\.)?", comment)
        if match:
            digits, elided = match.groups()
            assert shown.startswith(digits) if elided else shown == digits, (source, shown)
            checked.append(digits)
    assert checked == ["0.000591", "0.000242", "6"]


def test_readme_stream_version_is_the_code_one():
    assert re.findall(r"stream version (\d+)", readme_text()) == [str(sim.STREAM_VERSION)]


def test_readme_quadrature_sizes_are_the_code_ones():
    text = readme_text()
    assert re.findall(r"(\d+)-node", text) == [str(race._QUAD_NODES)]
    assert re.findall(r"within e\^-(\d+) of its peak", text) == [f"{race._QUAD_DEPTH:.0f}"]


def test_readme_z0_table_sharp_ranks_are_the_code_ones(monkeypatch, tmp_path):
    real = asymptotics.z0_sharp
    calls = []
    monkeypatch.setattr(asymptotics, "z0_sharp", lambda split: calls.append(split.q) or real(split))
    assert cli.main(["table", "--which", "z0", "--out", str(tmp_path / "z0.csv")]) == 0
    assert re.findall(r"(\d+) sharp ranks instead of", readme_text()) == [str(len(calls))]


def test_readme_z0_figures_are_the_code_ones():
    figures = re.findall(r"z0\((0\.\d+)\) = (\d+)", readme_text())
    assert len(figures) == 2, figures
    for q, z0 in figures:
        assert asymptotics.z0_sharp(race.HashSplit(float(q))) == int(z0), q


def test_readme_names_the_batch_bit_generator():
    _, rng = next(sim._batches(sim.SimConfig(trials=1, seed=0, z=1)))
    name = type(rng.bit_generator).__name__
    assert re.search(rf"\b{name}\b", readme_text()), name


# scipy.integrate pulls in the other three and costs about half a second of
# every cold start; the library needs only scipy.special
HEAVY_MODULES = ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse")


def test_import_leaves_heavy_scipy_unloaded():
    # a fresh interpreter, since this one may have loaded them for other tests
    package_root = str(Path(doublespend.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    # the kappa-law and confirmation solvers run first, so a lazy import of
    # a root finder or an integrator in their call path shows up too
    probe = (
        "import sys, doublespend, doublespend.cli; "
        "split = doublespend.HashSplit(0.3); "
        "doublespend.kappa_threshold(split, 100); "
        "doublespend.recover_p_by_quadrature(split, 100); "
        "doublespend.confirmations_required(split, 1e-6); "
        "doublespend.confirmations_required(split, 1e-6, use_nakamoto=True); "
        # below 1e-300: the lower tail from hyp1f1, the upper from the continued fraction
        "doublespend.nakamoto_probability(split, 5000); "
        "doublespend.conditional_probability(split, 300, 5.0); "
        f"print(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert not out.stdout.split(), out.stdout
