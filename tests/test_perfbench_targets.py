"""Every span target of the benchmark's tracer still exists.

``perfbench/spans.py`` wraps the functions and methods it names in
``LAYER_TARGETS`` and silently skips a method that no class defines, so
a rename or deletion under ``src/`` would drop a per-layer metric to
zero without failing anything.  This test loads the tracer by path
(``perfbench`` is not a package) and checks each target resolves.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


@pytest.mark.parametrize(
    "module_name,attr_path,span",
    SPANS.LAYER_TARGETS,
    ids=[f"{m}:{a}" for m, a, _ in SPANS.LAYER_TARGETS],
)
def test_trace_target_exists(module_name, attr_path, span):
    module = importlib.import_module(module_name)
    if "." in attr_path:
        cls_name, meth = attr_path.split(".")
        cls = getattr(module, cls_name, None)
        assert isinstance(cls, type), f"{module_name}.{cls_name} is gone"
        owners = [c for c in _subclasses(cls) if meth in c.__dict__]
        assert owners, (
            f"neither {cls_name} nor a subclass defines {meth!r}; the "
            f"{span!r} span would be skipped"
        )
    else:
        assert callable(getattr(module, attr_path, None)), (
            f"{module_name}.{attr_path} is gone; the {span!r} span would "
            f"be skipped"
        )
