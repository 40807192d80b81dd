"""The benchmark tracer patches library names by string: every name it
lists in bench/spans.py must still resolve.  The module is loaded read-only
from its file; nothing is installed."""

import importlib.util
from pathlib import Path

import fellbundles
import fellbundles.cli  # noqa: F401  (imports every module)

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans_names", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _load_spans()
    names = list(spans.SPANS) + [("pdmaps", "cached_rep")]
    for modname, attr in names:
        mod = getattr(fellbundles, modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), (modname, attr)
        else:
            assert callable(getattr(mod, attr)), (modname, attr)
