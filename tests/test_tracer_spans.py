"""The benchmark's per-layer tracer patches gerbekit from outside, by name:
every span in perfbench/tracer.py's SPANS must still name a function or a
method defined on its class, and a cochain must still carry the attributes
the tracer's hooks read.  A refactor that breaks either fails here, not in
a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from gerbekit.cochain import DiffCochain
from gerbekit.covers import make_circle_cover

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


def test_every_span_names_a_function_or_a_method_of_its_class():
    spans = _spans()
    assert spans
    for name, module, attr in spans:
        mod = importlib.import_module(f"gerbekit.{module}")
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            assert method in vars(getattr(mod, cls_name)), name
        else:
            assert callable(getattr(mod, attr)), name


def test_a_cochain_has_the_attributes_the_tracer_hooks_read():
    om = DiffCochain(1, make_circle_cover(4, 0.55))
    for attr in ("component_fn", "components", "level_degree", "ambient_dim"):
        assert hasattr(om, attr), attr
