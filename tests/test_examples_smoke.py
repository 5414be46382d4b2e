"""Smoke tests for the example scripts.

Each example is importable (syntax + imports resolve) and exposes a
``main``; the fastest ones, and the two that drive the simulator's
fault injection and availability measurement, are executed end-to-end
in-process.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def load_example(path: Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_importable(path):
    module = load_example(path)
    assert callable(getattr(module, "main", None))


@pytest.mark.parametrize(
    "stem", ["quickstart", "growing_triangle", "replicated_store", "full_tour"]
)
def test_fast_examples_run(stem, capsys):
    path = next(p for p in EXAMPLES if p.stem == stem)
    load_example(path).main()
    out = capsys.readouterr().out
    assert out.strip()
