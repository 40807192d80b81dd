"""Per-layer tracing from outside the program.

``Tracer.installed()`` wraps public functions of each ``fellbundles`` module
at every place the name is bound (``from .x import f`` copies it into other
modules), a few methods, ``json.dumps`` as ``cli`` sees it, and the dense
kernels numpy offers (``einsum``, ``eigh``, ``eigvalsh``, ``svd``;
``norm(., 2)`` and ``matrix_rank`` reach ``svd`` through
``numpy.linalg._linalg``).  On exit every original is put back.

A span is one call of a wrapped fellbundles function.  Its *self time* is
its duration minus the spans it calls, so the self times (``cli`` included)
and the job time outside ``cli.main`` (``other_s``) partition a job's wall
time.  The numpy kernels are not spans: their time stays in the calling
layer's self time and is also summed per kernel under ``numerics.*``.

Two spans are split into phases at the kernel calls they make.
``pd_check_exact``: certificate assembly, then its eigensolve (the
``eigvalsh`` and the ``svd`` of ``opnorm`` right after it), then the witness
extraction (whatever follows; empty on a passing map).  ``gelfand_raikov``:
the raw Gram before its first ``eigh``, the separation from it on.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
import types

import numpy as np

# (module, attribute) -> span key; "Class.method" patches the class.
SPANS = {
    ("cli", "main"): "cli",
    ("cli", "_load"): "serialize.parse",
    **{("serialize", f"{obj}_from_json"): "serialize.parse" for obj in (
        "group", "bundle", "bundle_map", "hilbert", "action", "vector_payload",
        "equivalence")},
    **{("serialize", f"{obj}_to_json"): "serialize.emit" for obj in (
        "group", "bundle", "bundle_map", "hilbert", "action", "vector_payload",
        "equivalence", "certificate")},
    ("groups", "make_from_table"): "groups.table",
    ("groups", "make_cyclic"): "groups.table",
    ("groups", "symmetric_group"): "groups.table",
    ("bundles", "FellBundle._build_structure"): "bundles.structure",
    ("bundles", "group_bundle"): "bundles.construct",
    ("bundles", "dynamical_bundle"): "bundles.construct",
    ("bundles", "validate_bundle"): "bundles.validate",
    ("bundles", "check_saturated"): "bundles.validate",
    ("crosssec", "RegRep.__init__"): "crosssec.regrep",
    ("crosssec", "cstar_norm"): "crosssec.cstar_norm",
    ("crosssec", "MatrixAlgOp.__init__"): "crosssec.matrix_alg",
    ("pdmaps", "identity_bundle_map"): "pdmaps.construct",
    ("pdmaps", "scalar_bundle_map"): "pdmaps.construct",
    ("pdmaps", "pd_check_exact"): "pdmaps.cert_assembly",
    ("pdmaps", "pd_check_sampled"): "pdmaps.sampled",
    ("pdmaps", "gelfand_raikov"): "pdmaps.gns_gram",
    ("hilbundles", "validate_hilbert_bundle"): "hilbundles.validate",
    ("hilbundles", "trivial_hilbert_bundle"): "hilbundles.construct",
    ("hilbundles", "l2_bundle"): "hilbundles.construct",
    ("hilbundles", "regularize_bundle"): "hilbundles.construct",
    ("actions", "validate_action"): "actions.validate",
    ("actions", "trivial_action"): "actions.construct",
    ("actions", "l2_action"): "actions.construct",
    ("actions", "regularize_action"): "actions.construct",
    ("actions", "coefficient_map"): "actions.coefficient_map",
    ("correspondences", "build_module"): "correspondences.module_checks",
    ("correspondences", "attach_left_action"): "correspondences.module_checks",
    ("correspondences", "check_nondegenerate"): "correspondences.module_checks",
    ("correspondences", "check_cyclic"): "correspondences.module_checks",
    ("correspondences", "amplified_correspondence"): "correspondences.amplify",
    ("correspondences", "amplified_is_star_rep"): "correspondences.star_rep_check",
    ("correspondences", "verify_imprimitivity"): "correspondences.imprimitivity",
    ("correspondences", "trivial_self_equivalence"): "correspondences.construct",
}
KERNELS = {"einsum": "einsum", "eigh": "eigensolve", "eigvalsh": "eigensolve", "svd": "svd"}

# (current phase, kernel or "span" called directly) -> next phase; "*" matches any
PHASES = {
    ("pdmaps.cert_assembly", "eigensolve"): "pdmaps.cert_eigensolve",
    ("pdmaps.cert_eigensolve", "svd"): "pdmaps.cert_eigensolve",
    ("pdmaps.cert_eigensolve", "*"): "pdmaps.witness",
    ("pdmaps.gns_gram", "eigensolve"): "pdmaps.gns_separation",
}


class Tracer:
    """Span bookkeeping for one process: self time per key, and counts."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[str] = []  # the phase key of every open span
        self._last = time.perf_counter()

    def totals(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts)}

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _maximum(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def _charge(self) -> None:
        now = time.perf_counter()
        if self._stack:
            key = self._stack[-1]
            self.self_s[key] = self.self_s.get(key, 0.0) + now - self._last
        self._last = now

    def _direct_call(self, kind: str, side: int = 0) -> None:
        """The innermost span calls a kernel or a span: maybe change phase."""
        if not self._stack:
            return
        key = self._stack[-1]
        nxt = PHASES.get((key, kind)) or PHASES.get((key, "*"))
        if nxt and nxt != key:
            self._charge()
            self._stack[-1] = nxt
            if nxt == "pdmaps.cert_eigensolve":
                self._maximum("pdmaps.cert_dim", side)

    # -- wrappers ---------------------------------------------------------------

    def _span(self, fn, key: str):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._direct_call("span")
            self._charge()
            self._stack.append(key)
            self.count(key + ".calls")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._charge()
                self._stack.pop()
            if key == "serialize.parse" and args and isinstance(args[0], str):
                self.count("serialize.bytes_in", os.path.getsize(args[0]))
            elif key == "correspondences.amplify":
                self._maximum("correspondences.amplified_dim", result.dim)
            return result
        span.__traced__ = fn
        return span

    def _kernel(self, fn, kind: str):
        @functools.wraps(fn)
        def kernel(*args, **kwargs):
            side = np.shape(args[0])[-1] if kind == "eigensolve" and args else 0
            self._direct_call(kind, side)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.count(f"numerics.{kind}_s", time.perf_counter() - start)
                self.count(f"numerics.{kind}.calls")
                if side:
                    self.count("numerics.eigensolve_flops", float(side) ** 3)
        kernel.__traced__ = fn
        return kernel

    def _cached_rep(self, fn):
        @functools.wraps(fn)
        def cached_rep(bundle):
            builds = self.counts.get("crosssec.regrep.calls", 0)
            rep = fn(bundle)
            self.count("crosssec.cached_rep.calls")
            if self.counts.get("crosssec.regrep.calls", 0) == builds:
                self.count("crosssec.cached_rep.hits")
            return rep
        cached_rep.__traced__ = fn
        return cached_rep

    def _json_proxy(self, real):
        proxy = types.ModuleType(real.__name__)
        proxy.__dict__.update(vars(real))
        dumps = self._span(real.dumps, "serialize.emit")

        def counted_dumps(*args, **kwargs):
            text = dumps(*args, **kwargs)
            self.count("serialize.bytes_out", len(text))
            return text
        proxy.dumps = counted_dumps
        return proxy

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind `original` in every fellbundles module that holds it."""
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "fellbundles" or name.startswith("fellbundles.")):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import fellbundles.cli  # noqa: F401  (imports every module)
        import numpy.linalg._linalg as linalg_impl

        pkg = sys.modules["fellbundles"]
        for (modname, attr), key in SPANS.items():
            mod = getattr(pkg, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._span(vars(cls)[meth], key))
            else:
                original = getattr(mod, attr)
                self._replace_everywhere(original, self._span(original, key))
        cached_rep = pkg.pdmaps.cached_rep
        self._replace_everywhere(cached_rep, self._cached_rep(cached_rep))
        self._patch(pkg.cli, "json", self._json_proxy(json))
        for attr, kind in KERNELS.items():
            owners = (np,) if attr == "einsum" else (np.linalg, linalg_impl)
            original = getattr(owners[0], attr)
            wrapped = self._kernel(original, kind)
            for owner in owners:
                if getattr(owner, attr) is original:
                    self._patch(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
