"""The benchmark tracer's layer table names functions that exist.

``bench/tracer.py`` skips a missing name silently, so a rename would zero a
per-layer metric; this test loads the tracer as it is and checks every name.
"""

import importlib
import importlib.util
from pathlib import Path


def test_every_traced_layer_name_is_callable():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"snapcomplex.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
