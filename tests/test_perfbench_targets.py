"""The benchmark's tracer patches repro functions by name; they must resolve.

``perfbench/tracer.py`` wraps the layer functions it lists in ``FUNCTIONS``
and every registered kernel's ``initialize``/``step``/``complete_rows``.  A
rename in ``src/`` would break the benchmark's traced pass without failing
any test of the package, so this test imports the tracer module (read-only,
nothing is patched) and resolves every target.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.core.kernels import KERNEL_REGISTRY

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_function_resolves(tracer):
    missing = []
    for module_name, path, _key in tracer.FUNCTIONS:
        try:
            target = _resolve(module_name, path)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{module_name}.{path}: {exc}")
            continue
        if not callable(target):
            missing.append(f"{module_name}.{path}: not callable")
    assert not missing, "perfbench/tracer.py targets no longer resolve:\n" + "\n".join(missing)


def test_every_traced_function_has_a_layer(tracer):
    assert {key for _, _, key in tracer.FUNCTIONS} <= set(tracer.LAYER_OF)


@pytest.mark.parametrize("protocol", sorted(KERNEL_REGISTRY))
def test_every_kernel_has_the_traced_methods(protocol):
    cls = KERNEL_REGISTRY[protocol]
    for name in ("initialize", "step", "complete_rows"):
        assert callable(getattr(cls, name, None)), f"{cls.__name__}.{name} is missing"
    # The tracer patches by module and class name.
    assert getattr(importlib.import_module(cls.__module__), cls.__name__) is cls


def test_traced_protocols_are_the_registry(tracer):
    assert set(tracer.PROTOCOLS) == set(KERNEL_REGISTRY)
