"""The benchmark tracer patches library names by string: every name it
lists in bench/spans.py must still resolve, and its phase split must still
see the library's calls.  The module is loaded read-only from its file."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import fellbundles
import fellbundles.cli  # noqa: F401  (imports every module)
from fellbundles import serialize as sz
from fellbundles.bundles import group_bundle
from fellbundles.groups import make_cyclic
from fellbundles.pdmaps import identity_bundle_map

from test_bundles_batched import crossed_system

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


def test_tracer_splits_gns_at_its_first_eigensolve():
    t = identity_bundle_map(group_bundle(make_cyclic(3)))
    with _load_spans().Tracer().installed() as tracer:
        fellbundles.pdmaps.gelfand_raikov(t)
    self_s = tracer.totals()["self_s"]
    assert self_s.get("pdmaps.gns_gram", 0.0) > 0.0
    assert self_s.get("pdmaps.gns_separation", 0.0) > 0.0


def test_tracer_splits_crossed_product_construction_from_its_structure():
    system = crossed_system(2, 2)
    with _load_spans().Tracer().installed() as tracer:
        fellbundles.bundles.dynamical_bundle(*system).prod_array
    self_s = tracer.totals()["self_s"]
    assert self_s.get("bundles.construct", 0.0) > 0.0
    assert self_s.get("bundles.structure", 0.0) > 0.0


def test_tracer_times_the_object_reader_and_counts_its_bytes(tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(sz.bundle_to_json(group_bundle(make_cyclic(3)))))
    with _load_spans().Tracer().installed() as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert fellbundles.cli.main(["validate", str(path)]) == 0
    totals = tracer.totals()
    assert totals["self_s"].get("serialize.parse", 0.0) > 0.0
    assert totals["counts"]["serialize.bytes_in"] == path.stat().st_size
