"""JSON encoding of every object the command line reads or writes.

Complex scalars are [re, im] pairs; group elements are integer indices;
dictionary keys are decimal strings ("g" or "g,h").  Serialization is
deterministic given the same object, and parse(serialize(x)) reproduces
the data exactly.
"""

from __future__ import annotations

import numpy as np

from .actions import Action
from .bundles import FellBundle
from .correspondences import EquivalenceBundle
from .crosssec import Section
from .groups import FiniteGroup, GroupHom, make_from_table
from .hilbundles import HilbertBundle, SemiInnerBundle
from .pdmaps import BundleMap


class FormatError(ValueError):
    pass


def _c2j(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _j2c(v) -> complex:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise FormatError(f"expected [re, im], got {v!r}")
    return complex(float(v[0]), float(v[1]))


def matrix_to_json(m) -> list:
    a = np.asarray(m, dtype=np.complex128)
    return [[_c2j(a[i, j]) for j in range(a.shape[1])] for i in range(a.shape[0])]


def matrix_from_json(data, shape=None) -> np.ndarray:
    try:
        out = np.array([[_j2c(v) for v in row] for row in data], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad matrix: {exc}") from exc
    if out.size == 0:
        out = out.reshape(shape if shape is not None else (0, 0))
    if shape is not None and out.shape != tuple(shape):
        raise FormatError(f"matrix has shape {out.shape}, expected {tuple(shape)}")
    return out


def vector_to_json(v) -> list:
    return [_c2j(z) for z in np.asarray(v, dtype=np.complex128)]


def vector_from_json(data) -> np.ndarray:
    return np.array([_j2c(v) for v in data], dtype=np.complex128)


def tensor3_to_json(t) -> list:
    a = np.asarray(t, dtype=np.complex128)
    return [matrix_to_json(a[i]) for i in range(a.shape[0])]


def tensor3_from_json(data, shape) -> np.ndarray:
    out = np.zeros(shape, dtype=np.complex128)
    if shape[0] != len(data):
        raise FormatError(f"tensor has {len(data)} slabs, expected {shape[0]}")
    for i, slab in enumerate(data):
        out[i] = matrix_from_json(slab, shape[1:])
    return out


# -- groups and homomorphisms -------------------------------------------------

def group_to_json(g: FiniteGroup) -> dict:
    return {"type": "group", "order": g.order, "table": g.table.tolist()}


def group_from_json(data) -> FiniteGroup:
    try:
        table = data["table"]
    except (KeyError, TypeError) as exc:
        raise FormatError("group JSON needs a 'table'") from exc
    g = make_from_table(table)
    if "order" in data and int(data["order"]) != g.order:
        raise FormatError("declared order does not match the table")
    return g


# -- bundles ------------------------------------------------------------------

def bundle_to_json(b: FellBundle) -> dict:
    return {
        "type": "bundle",
        "group": group_to_json(b.group),
        "ambient_dim": b.ambient_dim,
        "unital": bool(b.unital),
        "fibers": {
            str(g): [matrix_to_json(m) for m in b.fibers[g]]
            for g in b.group.elements()
        },
    }


def bundle_from_json(data) -> FellBundle:
    try:
        group = group_from_json(data["group"])
        n = int(data["ambient_dim"])
        raw = data["fibers"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bundle JSON is missing fields: {exc}") from exc
    fibers = []
    for g in group.elements():
        mats = raw.get(str(g), [])
        fibers.append(np.array([matrix_from_json(m, (n, n)) for m in mats])
                      if mats else np.zeros((0, n, n), dtype=np.complex128))
    bundle = FellBundle(group, n, fibers)
    if "unital" in data and bool(data["unital"]) != bundle.unital:
        raise FormatError("declared unitality does not match the fibers")
    return bundle


def section_to_json(f: Section) -> dict:
    return {
        "type": "section",
        "coeffs": {str(g): vector_to_json(f.coeffs[g])
                   for g in f.bundle.group.elements()},
    }


def section_from_json(bundle: FellBundle, data) -> Section:
    coeffs = []
    raw = data.get("coeffs", {})
    for g in bundle.group.elements():
        vals = raw.get(str(g))
        coeffs.append(vector_from_json(vals) if vals is not None
                      else np.zeros(bundle.dims[g], dtype=np.complex128))
    return Section(bundle, coeffs)


# -- bundle maps ----------------------------------------------------------------

def bundle_map_to_json(t: BundleMap) -> dict:
    return {
        "type": "bundle_map",
        "source": bundle_to_json(t.source),
        "target": bundle_to_json(t.target),
        "phi": t.hom.map.tolist(),
        "blocks": {str(g): matrix_to_json(t.mats[g])
                   for g in t.source.group.elements()},
    }


def bundle_map_from_json(data) -> BundleMap:
    try:
        source = bundle_from_json(data["source"])
        target = bundle_from_json(data["target"])
        phi = GroupHom(source.group, target.group,
                       np.asarray(data["phi"], dtype=np.int64))
        raw = data["blocks"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bundle map JSON is missing fields: {exc}") from exc
    mats = []
    for g in source.group.elements():
        want = (target.dims[phi(g)], source.dims[g])
        blk = raw.get(str(g))
        mats.append(matrix_from_json(blk, want) if blk is not None
                    else np.zeros(want, dtype=np.complex128))
    return BundleMap(source, target, phi, mats)


# -- hilbert bundles and actions -------------------------------------------------

def hilbert_to_json(x: SemiInnerBundle) -> dict:
    grp = x.bundle.group
    return {
        "type": "hilbert_bundle",
        "bundle": bundle_to_json(x.bundle),
        "dims": list(x.dims),
        "action": {f"{r},{h}": tensor3_to_json(x.act[r][h])
                   for r in grp.elements() for h in grp.elements()},
        "inner": {f"{r},{s}": tensor3_to_json(x.inner[r][s])
                  for r in grp.elements() for s in grp.elements()},
    }


def hilbert_from_json(data, definite: bool = True) -> SemiInnerBundle:
    try:
        bundle = bundle_from_json(data["bundle"])
        dims = [int(d) for d in data["dims"]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"hilbert bundle JSON is missing fields: {exc}") from exc
    grp = bundle.group
    act = [[tensor3_from_json(
        data["action"][f"{r},{h}"],
        (bundle.dims[h], dims[grp.mul(r, h)], dims[r]))
        for h in grp.elements()] for r in grp.elements()]
    inner = [[tensor3_from_json(
        data["inner"][f"{r},{s}"],
        (dims[r], dims[s], bundle.dims[grp.mul(grp.inv(r), s)]))
        for s in grp.elements()] for r in grp.elements()]
    cls = HilbertBundle if definite else SemiInnerBundle
    return cls(bundle, dims, act, inner)


def action_to_json(rho: Action) -> dict:
    src_grp = rho.source.group
    tgt_grp = rho.target.bundle.group
    return {
        "type": "action",
        "source": bundle_to_json(rho.source),
        "phi": rho.hom.map.tolist(),
        "target": hilbert_to_json(rho.target),
        "ops": {f"{g},{h}": tensor3_to_json(rho.ops[g][h])
                for g in src_grp.elements() for h in tgt_grp.elements()},
    }


def action_from_json(data) -> Action:
    try:
        source = bundle_from_json(data["source"])
        target = hilbert_from_json(data["target"])
        phi = GroupHom(source.group, target.bundle.group,
                       np.asarray(data["phi"], dtype=np.int64))
        raw = data["ops"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"action JSON is missing fields: {exc}") from exc
    tgt_grp = target.bundle.group
    ops = [[tensor3_from_json(
        raw[f"{g},{h}"],
        (source.dims[g], target.dims[tgt_grp.mul(phi(g), h)], target.dims[h]))
        for h in tgt_grp.elements()] for g in source.group.elements()]
    return Action(source, phi, target, ops)


def vector_payload_to_json(x, fiber: int) -> dict:
    return {"type": "vector", "fiber": int(fiber), "coords": vector_to_json(x)}


def vector_payload_from_json(data) -> tuple[np.ndarray, int]:
    return vector_from_json(data["coords"]), int(data.get("fiber", 0))


def equivalence_to_json(e: EquivalenceBundle) -> dict:
    grp = e.left_bundle.group
    return {
        "type": "equivalence",
        "left_bundle": bundle_to_json(e.left_bundle),
        "right": hilbert_to_json(e.right),
        "lact": {f"{g},{r}": tensor3_to_json(e.lact[g][r])
                 for g in grp.elements() for r in grp.elements()},
        "linner": {f"{r},{s}": tensor3_to_json(e.linner[r][s])
                   for r in grp.elements() for s in grp.elements()},
    }


def equivalence_from_json(data) -> EquivalenceBundle:
    try:
        left = bundle_from_json(data["left_bundle"])
        right = hilbert_from_json(data["right"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"equivalence JSON is missing fields: {exc}") from exc
    grp = left.group
    dims = right.dims
    lact = [[tensor3_from_json(
        data["lact"][f"{g},{r}"],
        (left.dims[g], dims[grp.mul(g, r)], dims[r]))
        for r in grp.elements()] for g in grp.elements()]
    linner = [[tensor3_from_json(
        data["linner"][f"{r},{s}"],
        (dims[r], dims[s], left.dims[grp.mul(r, grp.inv(s))]))
        for s in grp.elements()] for r in grp.elements()]
    return EquivalenceBundle(left, right, lact, linner)


def certificate_to_json(cert, full: bool = False) -> dict:
    out = {
        "verdict": bool(cert.ok),
        "margin": float(cert.margin),
        "hermitian_defect": float(cert.hermitian_defect),
    }
    if cert.witness is not None:
        out["witness"] = [
            {"g": int(g), "a": matrix_to_json(a), "b": matrix_to_json(b)}
            for g, a, b in cert.witness
        ]
        out["witness_sum"] = matrix_to_json(cert.witness_sum)
    if full:
        out["gram"] = matrix_to_json(cert.gram)
    return out
