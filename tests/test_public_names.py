"""The public names of lphase: each module's `__all__`, its callers, and the names the
benchmark's tracer reads, which a deletion under `src/` would otherwise break only in the slow
traced run."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import lphase
from lphase import arith, cli, eulerphase, gammaphase, lfunction, verify

_BENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACER = _BENCH / "tracer.py"
_MODULES = [arith, gammaphase, eulerphase, lfunction]


def _tracer():
    spec = importlib.util.spec_from_file_location("lphase_bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _references(path: Path) -> dict[str | None, set[str]]:
    """The names each top-level def of a file references (None: the rest of the file), as
    `ast.Name` ids and `ast.Attribute` attrs; a docstring mention is no reference."""
    refs = {}
    for node in ast.parse(path.read_text()).body:
        key = node.name if isinstance(node, ast.FunctionDef) else None
        refs.setdefault(key, set()).update(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))
    return refs


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_functions(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"stale __all__ entries: {missing}"
    unlisted = [name for name, obj in vars(module).items()
                if not name.startswith("_") and inspect.isfunction(inspect.unwrap(obj))
                and obj.__module__ == module.__name__ and name not in module.__all__]
    assert not unlisted, f"public functions left out of __all__: {unlisted}"


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_every_public_function_has_a_caller(module):
    # a caller in src/lphase outside the function's own def, a perfbench job, or a tracer layer
    src = {path: _references(path) for path in Path(lphase.__file__).parent.glob("*.py")}
    jobs = set().union(*_references(_BENCH / "jobs.py").values())
    layers = {span for span, _, _, _ in _tracer()._LAYERS}
    home, short = Path(module.__file__), module.__name__.split(".")[-1]
    uncalled = [
        name for name in module.__all__
        if inspect.isfunction(inspect.unwrap(getattr(module, name)))
        and name not in jobs and f"{short}.{name}" not in layers
        and not any(name in names for path, refs in src.items() for key, names in refs.items()
                    if (path, key) != (home, name))]
    assert not uncalled, f"public functions nothing in the toolkit calls: {uncalled}"


def test_tracer_wraps_every_layer_and_restores_every_name():
    tracer = _tracer()
    # the work counters read these at call time, not at install
    assert hasattr(arith.DirichletCharacter, "phase_turns")
    assert hasattr(arith.PrimeTable, "count")

    owners = [lphase, arith, eulerphase, gammaphase, lfunction, verify, cli,
              arith.DirichletCharacter]
    before = {o: dict(vars(o)) for o in owners}
    t = tracer.Tracer()
    try:
        t.install()  # raises AttributeError for a layer whose function is gone
        for span, _, _, _ in tracer._LAYERS:
            module_name, func = span.split(".")
            home = arith.DirichletCharacter if span == "arith.conjugate" else getattr(
                lphase, module_name)
            # a wrapper's __wrapped__ is the original (an lru_cache has one of its own)
            wrapped = getattr(vars(home)[func], "__wrapped__", None)
            assert wrapped is before[home][func], f"{span} was not wrapped"
    finally:
        t.uninstall()
    for owner, names in before.items():
        changed = [k for k, v in names.items() if vars(owner).get(k) is not v]
        assert not changed, f"{owner.__name__}: {changed} not restored"
