"""Every name that the benchmark's layer tracer (``perfbench/tracer.py``)
wraps still resolves, so a renamed or removed route fails here and not only
as an absent layer in a benchmark run.  The tracer file is read, not
changed."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_resolves():
    layers = traced_layers()
    assert layers
    unresolved = []
    for targets in layers.values():
        for module_name, attribute in targets:
            owner = importlib.import_module(module_name)
            for part in attribute.split("."):  # "Class.method" too
                owner = getattr(owner, part, None)
            if not callable(owner):
                unresolved.append(f"{module_name}.{attribute}")
    assert unresolved == []
