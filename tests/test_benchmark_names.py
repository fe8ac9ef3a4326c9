"""The benchmark reaches into the package by name; every name it uses exists.

``bench/tracing.py`` wraps the functions it lists in ``TRACED`` by their
qualified names, and ``bench/run.py`` builds its classical strategies with
``ClassicalStrategy.best_response`` and ``from_realization``.  The
benchmark's own tests are not part of this suite, so a rename in the
package would otherwise only show when the benchmark runs.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    """``bench/tracing.py`` by path, leaving no bytecode beside it; it
    imports only the standard library."""
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), TRACING, "exec"), vars(module))
    return module


TRACED = [(module, qualname) for module, names in load_tracing().TRACED.items()
          for qualname in names]


@pytest.mark.parametrize("module, qualname", TRACED,
                         ids=[f"{m}.{q}" for m, q in TRACED])
def test_traced_name_resolves(module, qualname):
    target = importlib.import_module(f"pseudotelepathy.{module}")
    for part in qualname.split("."):
        target = getattr(target, part)
    assert callable(target)


@pytest.mark.parametrize("name", ["best_response", "from_realization"])
def test_benchmark_strategy_builders_exist(name):
    from pseudotelepathy.game import ClassicalStrategy
    assert callable(getattr(ClassicalStrategy, name))
