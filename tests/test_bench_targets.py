"""Every span the traced benchmark wraps or reports names a modrep attribute.

bench/spantrace.py looks its targets up by name, so renaming or deleting a
wrapped function would otherwise only show up as a failing traced run.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANTRACE = Path(__file__).resolve().parent.parent / "bench" / "spantrace.py"


def _load_spantrace():
    spec = importlib.util.spec_from_file_location("_bench_spantrace", SPANTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANTRACE = _load_spantrace()
SPANS = sorted(
    {f"{mod}.{attr}" for mod, attr in _SPANTRACE.EXTRA_TARGETS}
    | {span for span, stat in _SPANTRACE.PER_LAYER if span not in _SPANTRACE.LAYERS}
)


def test_spantrace_lists_spans():
    # an empty list would leave the parametrized test below with no cases
    assert SPANS


@pytest.mark.parametrize("span", SPANS)
def test_span_resolves_to_a_modrep_attribute(span):
    layer, _, path = span.partition(".")
    module = importlib.import_module(f"modrep.{layer}")
    assert callable(functools.reduce(getattr, path.split("."), module))
