"""The benchmark's span recorder (perfbench/tracer.py) patches hopsign names
from outside; a rename or deletion in hopsign must fail here, not only in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    tracer = _tracer()
    targets = [t for ts in tracer.SPANS.values() for t in ts]
    for mod, attr in targets:
        owner = importlib.import_module(mod)
        if "." in attr:  # patched on the class itself, as Tracer._patch does
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
            assert attr in vars(owner), f"{mod}.{cls}.{attr}"
        assert callable(getattr(owner, attr, None)), f"{mod}.{attr}"
    for _, mod, name in tracer.FAILURES.values():
        exc = getattr(importlib.import_module(mod), name, None)
        assert isinstance(exc, type) and issubclass(exc, Exception), name
    assert targets and tracer.FAILURES
