"""The names the benchmark tracer (``benchmarks/tracing.py``) wraps still exist.

The tracer patches entry points by name, in their defining module and in
every module that imported them by value.  A renamed or removed name breaks
only traced benchmark runs, so this checks it here, without running them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from strongdrive import _magnus, evolve, floquet, tomography

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_entry_point_resolves():
    missing = [
        f"strongdrive.{layer}.{name}"
        for layer, names in _layers().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"strongdrive.{layer}"), name, None))
    ]
    assert missing == []


@pytest.mark.parametrize(
    "module, name, definition",
    [
        (evolve, "magnus_segment", _magnus.magnus_segment),
        (floquet, "magnus_segment", _magnus.magnus_segment),
        (tomography, "propagate", evolve.propagate),
        (tomography, "propagate_train", evolve.propagate_train),
        (evolve, "quasienergy_sweep", floquet.quasienergy_sweep),
    ],
)
def test_by_value_alias_is_its_definition(module, name, definition):
    assert getattr(module, name, None) is definition
