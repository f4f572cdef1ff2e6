"""The public names of lphase: each module's `__all__`, and the names the benchmark's tracer
reads, which a deletion under `src/` would otherwise break only in the slow traced run."""

import importlib.util
import inspect
from pathlib import Path

import pytest

import lphase
from lphase import arith, cli, eulerphase, gammaphase, lfunction, verify

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("module", [arith, gammaphase, eulerphase, lfunction],
                         ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_functions(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"stale __all__ entries: {missing}"
    unlisted = [name for name, obj in vars(module).items()
                if not name.startswith("_") and inspect.isfunction(inspect.unwrap(obj))
                and obj.__module__ == module.__name__ and name not in module.__all__]
    assert not unlisted, f"public functions left out of __all__: {unlisted}"


def test_tracer_wraps_every_layer_and_restores_every_name():
    spec = importlib.util.spec_from_file_location("lphase_bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
