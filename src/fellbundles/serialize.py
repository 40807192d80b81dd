"""JSON encoding of every object the command line reads or writes, from
trees to text and back.

Complex scalars are [re, im] pairs; group elements are integer indices;
dictionary keys are decimal strings ("g" or "g,h").  Serialization is
deterministic given the same object, and parse(serialize(x)) reproduces
the data exactly.

Each object kind has one tree builder, `*_tree`: the object's JSON with
every complex array left as its float64 [re, im] view (`_encode`).  The
public `*_to_json` functions return the same tree with those leaves turned
to nested lists, so their results are JSON-native.  One writer makes the
text of such trees without a Python float per entry: `object_text` for
object files, `report_text` for the command line's reports.

The `*_from_json` functions read JSON-native trees, and trees whose leaves
are such float64 arrays, as `read_tree` gives them from an object file's
text: it reads the value of every element or pair key that is a regular nest
of two or more JSON numbers as a read-only array, each distinct leaf text
once, and leaves everything else to json.  An array leaf is decoded without
a copy, and trees are compared by value (`_same`), as their lists would be.
The functions that build bundles take the tolerance to build them at, and
those of objects with several bundles check each distinct group table once.
"""

from __future__ import annotations

import json
import math
import re
from json.encoder import encode_basestring_ascii

import numpy as np

from .actions import Action
from .bundles import FellBundle
from .correspondences import EquivalenceBundle
from .groups import FiniteGroup, GroupHom, check_hom, make_from_table
from .hilbundles import HilbertBundle, SemiInnerBundle
from .numerics import DEFAULT_TOL, Tolerance
from .pdmaps import BundleMap


class FormatError(ValueError):
    pass


def _encode(a) -> np.ndarray:
    """The float64 array of [re, im] pairs of a complex array, a view when
    the array is contiguous complex128."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return a.view(np.float64).reshape(a.shape + (2,))


def _lists(tree):
    """A tree with every array leaf turned to nested lists."""
    if isinstance(tree, dict):
        return {k: _lists(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_lists(v) for v in tree]
    if isinstance(tree, np.ndarray):
        return tree.tolist()
    return tree


# -- JSON text -----------------------------------------------------------------
#
# The text of a tree is that of json.dumps(_lists(tree), sort_keys=True) for an
# object file, and with indent=2 for a report; both byte for byte.  json's
# indenting encoder is pure Python, and its C encoder makes and formats one
# Python float per entry of a tree's arrays, which hold few distinct values.
# So dicts and lists are written item by item as json writes them, and the
# float64 array leaves all at once at the end: each distinct leaf (same shape,
# nesting depth and bytes) once, each distinct value among their entries
# formatted once (`_entry_texts`), and each leaf's entry texts joined by the
# separators of its shape at its nesting depth.

def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _entry_texts(flat: np.ndarray) -> list:
    """The text of every entry of a nonempty float64 array, formatting each
    distinct bit pattern once (so -0.0 stays apart from 0.0)."""
    bits = flat.view(np.int64)
    values = np.sort(bits)
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    texts = np.array(list(map(_float_text, values.view(np.float64).tolist())), dtype=object)
    return texts[np.searchsorted(values, bits)].tolist()


class _Writer:
    """Text of JSON-like values whose leaves may also be float64 arrays, as
    json.dumps(_lists(o), sort_keys=True, indent=indent) writes them, for
    dicts with str keys; TypeError for anything else json refuses."""

    def __init__(self, indent: int | None):
        self.indent = indent
        self.out = []
        self._arrays = []  # (position in out, nesting depth, array) of every array leaf
        self._separators = {}

    def newline(self, depth: int) -> str:
        return "" if self.indent is None else "\n" + " " * (self.indent * depth)

    def comma(self, depth: int) -> str:
        return ", " if self.indent is None else "," + self.newline(depth)

    def nest(self, leaves: list, shape: tuple, depth: int) -> str:
        """The text of a rectangular nest of `shape` at nesting `depth`, given
        the texts of its leaves in order.

        Consecutive leaves are joined by a separator that depends only on r,
        the number of trailing axes that roll over between them: it closes r
        lists, writes a comma and opens r lists again."""
        key = shape, depth
        if key not in self._separators:
            d = len(shape)
            opens = ["[" + self.newline(depth + k) for k in range(1, d + 1)]
            closes = [self.newline(depth + k) + "]" for k in range(d - 1, -1, -1)]
            seps = ["".join(closes[:r]) + self.comma(depth + d - r) + "".join(opens[d - r:])
                    for r in range(d)]
            between = [seps[0]] * (shape[-1] - 1)
            for r, n in enumerate(reversed(shape[:-1]), 1):
                between = (between + [seps[r]]) * (n - 1) + between
            self._separators[key] = "".join(opens), between, "".join(closes)
        head, between, tail = self._separators[key]
        parts = [None] * (2 * len(leaves) - 1)
        parts[::2] = leaves
        parts[1::2] = between
        return head + "".join(parts) + tail

    def write(self, o, depth: int) -> None:
        """Append the text of `o` at nesting `depth`, as json does; an array
        leaf is held as its place in the text, written by `text`."""
        out = self.out
        if isinstance(o, str):
            out.append(encode_basestring_ascii(o))
        elif o is None:
            out.append("null")
        elif o is True:
            out.append("true")
        elif o is False:
            out.append("false")
        elif isinstance(o, int):
            out.append(int.__repr__(o))
        elif isinstance(o, float):
            out.append(_float_text(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                out.append("[]")
                return
            sep = self.newline(depth + 1)
            out.append("[")
            for item in o:
                out.append(sep)
                self.write(item, depth + 1)
                sep = self.comma(depth + 1)
            out.append(self.newline(depth) + "]")
        elif isinstance(o, dict):
            if not o:
                out.append("{}")
                return
            sep = self.newline(depth + 1)
            out.append("{")
            for key, value in sorted(o.items()):
                if not isinstance(key, str):
                    raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
                out.append(sep)
                out.append(encode_basestring_ascii(key))
                out.append(": ")
                self.write(value, depth + 1)
                sep = self.comma(depth + 1)
            out.append(self.newline(depth) + "}")
        elif not (isinstance(o, np.ndarray) and o.dtype == np.float64):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        elif o.size == 0:  # nested empty lists, no entry to format
            self.write(o.tolist(), depth)
        else:
            self._arrays.append((len(out), depth, o))
            out.append(None)

    def text(self, o) -> str:
        self.write(o, 0)
        if self._arrays:
            # each distinct leaf (shape, nesting depth and bytes, so -0.0 stays
            # apart from 0.0) is written once
            keys = [(a.shape, depth, a.tobytes()) for _, depth, a in self._arrays]
            distinct = dict(zip(keys, self._arrays))
            leaves = _entry_texts(np.concatenate([a.ravel() for _, _, a in distinct.values()]))
            start = 0
            for key, (_, depth, a) in distinct.items():
                distinct[key] = self.nest(leaves[start:start + a.size], a.shape, depth)
                start += a.size
            for (at, _, _), key in zip(self._arrays, keys):
                self.out[at] = distinct[key]
        return "".join(self.out)


def object_text(tree) -> str:
    """`tree`, a JSON-like value whose leaves may also be float64 arrays, as
    json.dumps(_lists(tree), sort_keys=True) writes it: an object file."""
    return _Writer(None).text(tree)


def report_text(payload) -> str:
    """`payload` as object_text writes it, but at indent 2: the text of
    json.dumps(_lists(payload), sort_keys=True, indent=2)."""
    return _Writer(2).text(payload)


def _decode(data, shape, what: str) -> np.ndarray:
    """The complex array of `shape` held as nested [re, im] pairs or as their
    float64 array, read as one float array (a view of such an array); a None
    axis takes its length from the data.  Entries must be finite.  An empty
    target also accepts shallower nested empty lists."""
    try:
        pairs = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad {what}: {exc}") from exc
    shape = tuple((pairs.shape[i] if i < pairs.ndim else 0) if s is None else s
                  for i, s in enumerate(shape))
    if pairs.size == 0 and pairs.ndim <= len(shape) and math.prod(shape) == 0:
        return np.zeros(shape, dtype=np.complex128)
    if pairs.shape != shape + (2,):
        raise FormatError(f"{what} of shape {pairs.shape} is not {shape} [re, im] pairs")
    if not np.isfinite(pairs).all():
        raise FormatError(f"{what} has non-finite entries")
    return pairs.view(np.complex128)[..., 0]


def _bool_or_str(value) -> bool:
    """Whether a JSON value, or an entry of its nested lists, is a boolean or
    a string: integer fields refuse both, though Python reads them as ints."""
    if isinstance(value, list):
        return any(map(_bool_or_str, value))
    return isinstance(value, (bool, str))


def integer(value, what: str) -> int:
    """An integer field; a boolean, a string or a number with a fractional
    part is refused, an integral float such as 3.0 is read as its integer."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad {what}: {exc}") from exc
    if _bool_or_str(value) or out != value:
        raise FormatError(f"bad {what}: {value!r} is not an integer")
    return out


def _integers(value, what: str) -> np.ndarray:
    """An integer array field, refusing the entries integer refuses."""
    try:
        raw = np.asarray(value)
        integral = not _bool_or_str(value) and (raw.dtype.kind != "f" or bool(np.all(
            np.isfinite(raw) & (raw == np.trunc(raw)) & (np.abs(raw) < 2.0 ** 63))))
        out = raw.astype(np.int64) if integral else None
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad {what}: {exc}") from exc
    if not integral:
        raise FormatError(f"bad {what}: entries must be integers")
    return out


def _same(a, b) -> bool:
    """a == b for JSON trees whose dict values may be float arrays of two or
    more entries, as the command line's reader makes them, with the verdict
    of that equality on the trees with nested lists for arrays."""
    if a is b:
        return True
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(v, b[k]) for k, v in a.items())
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return _lists(a) == _lists(b)
    try:
        return a == b
    except ValueError:  # arrays of two or more entries in dicts in lists
        return len(a) == len(b) and all(map(_same, a, b))


def _family(data, field: str, keys) -> dict:
    """The keyed family data[field]; a key the decoder does not read is refused."""
    raw = data[field]
    if not isinstance(raw, dict):
        raise FormatError(f"'{field}' must be an object keyed by group elements or pairs")
    unread = set(raw) - set(keys)
    if unread:
        raise FormatError(
            f"'{field}' has keys that name no group element or pair: {sorted(unread)}")
    return raw


def _element_keys(grp: FiniteGroup) -> list[str]:
    return [str(g) for g in grp.elements()]


def _pair_keys(grp: FiniteGroup, other: FiniteGroup | None = None) -> list[str]:
    return [f"{r},{s}" for r in grp.elements() for s in (other or grp).elements()]


# -- object files in -----------------------------------------------------------
#
# An object file is read as the tree the *_tree builders make: the value of
# every element or pair key ("g" or "g,h") that is a regular nest of two or
# more JSON numbers becomes a read-only float64 array, and everything else
# stays what json.loads gives.  Such a leaf is cut out of the text and
# replaced by a placeholder string, and json reads the small skeleton that is
# left.  Each distinct leaf text is read once, by json and numpy, to the array
# _decode would make of what json gives.  A leaf that json or numpy refuses,
# or that holds fewer than two numbers, stays in the skeleton, so json and the
# decoders judge it as they would without the cut; json reads a text with a
# syntax error again whole, so that it reports the error where it is in the
# file.

# a quoted element or pair key opening a member, and its value when that is a
# run of number, bracket, comma and blank characters ending the member
_LEAF = re.compile(r'"(?<=[{, \t\n\r]")[0-9]+(?:,[0-9]+)?"[ \t\n\r]*:[ \t\n\r]*'
                   r'(\[[-+.0-9eE\[\], \t\n\r]*\])(?=[ \t\n\r]*[,}])')
_MARK = "\0"  # begins each placeholder; json decodes it only from a \u0000 escape


class _ObjectReader:
    """The tree of one object file's text; each distinct leaf text is read
    once."""

    def __init__(self):
        self._arrays = []

    def _leaf(self, leaf: str) -> int:
        """The index of the array of `leaf`, or -1 when it stays text."""
        try:
            values = np.array(json.loads(leaf), dtype=np.float64)
        except (ValueError, TypeError, OverflowError):  # ValueError: bad JSON, ragged
            return -1
        if values.size < 2:  # _same compares arrays of two or more
            return -1
        values.flags.writeable = False
        self._arrays.append(values)
        return len(self._arrays) - 1

    def _restore(self, obj: dict) -> dict:
        for key, value in obj.items():
            if type(value) is str and value[:1] == _MARK:
                obj[key] = self._arrays[int(value[1:])]
        return obj

    def tree(self, text: str):
        # json reads the whole of a text that is not a JSON object (a
        # truncated file among them) and of one holding a string a
        # placeholder could be mistaken for
        if not text[-64:].rstrip(" \t\n\r").endswith("}") or '"\\u0000' in text:
            return json.loads(text)
        found = {}  # leaf text -> its placeholder, or None
        parts, last = [], 0
        for match in _LEAF.finditer(text):
            leaf = match.group(1)
            if leaf not in found:
                at = self._leaf(leaf)
                found[leaf] = None if at < 0 else f'"\\u0000{at}"'
            if found[leaf] is not None:
                start, end = match.span(1)
                parts += (text[last:start], found[leaf])
                last = end
        if not parts:
            return json.loads(text)
        parts.append(text[last:])
        try:
            return json.loads("".join(parts), object_hook=self._restore)
        except json.JSONDecodeError:
            # a syntax error outside the leaves: json reports it where it is
            return json.loads(text)


def read_tree(text: str):
    """The tree of an object file's text; json.JSONDecodeError when it is not
    JSON."""
    return _ObjectReader().tree(text)


def parse_object(data, tol: Tolerance):
    """The kind and object of `data`, its bundles built at `tol`."""
    if not isinstance(data, dict) or "type" not in data:
        raise FormatError("input JSON must be an object with a 'type' field")
    kind = data["type"]
    parsers = {
        "group": lambda d, tol: group_from_json(d),
        "bundle": bundle_from_json,
        "hilbert_bundle": hilbert_from_json,
        "action": action_from_json,
        "bundle_map": bundle_map_from_json,
        "equivalence": equivalence_from_json,
    }
    if kind not in parsers:
        raise FormatError(f"unknown object type {kind!r}")
    return kind, parsers[kind](data, tol=tol)


def matrix_to_json(a) -> list:
    """Nested lists of [re, im] pairs of a complex array, in one call."""
    return _encode(a).tolist()


vector_to_json = tensor3_to_json = matrix_to_json


def matrix_from_json(data, shape=None) -> np.ndarray:
    return _decode(data, tuple(shape) if shape is not None else (None, None), "matrix")


def vector_from_json(data) -> np.ndarray:
    return _decode(data, (None,), "vector")


def tensor3_from_json(data, shape) -> np.ndarray:
    if not isinstance(data, (list, np.ndarray)) or len(data) != shape[0]:
        raise FormatError(f"tensor needs a list of {shape[0]} slabs")
    return _decode(data, tuple(shape), "tensor")


# -- groups and homomorphisms -------------------------------------------------

def group_to_json(g: FiniteGroup) -> dict:
    return {"type": "group", "order": g.order, "table": g.table.tolist()}


def group_from_json(data, groups: dict | None = None) -> FiniteGroup:
    """The group of `data`.  `groups` holds the group of every table read
    so far from one file, keyed by its int64 shape and bytes, so that the
    axioms of a table the file repeats are checked once."""
    try:
        table = data["table"]
    except (KeyError, TypeError) as exc:
        raise FormatError("group JSON needs a 'table'") from exc
    t = _integers(table, "group table")
    groups = {} if groups is None else groups
    key = t.shape, t.tobytes()
    if key not in groups:
        groups[key] = make_from_table(t)
    g = groups[key]
    if "order" in data and integer(data["order"], "order") != g.order:
        raise FormatError("declared order does not match the table")
    return g


def _hom(source: FiniteGroup, target: FiniteGroup, data) -> GroupHom:
    """The group homomorphism "phi" of `data` (FormatError if it is not one)."""
    phi = GroupHom(source, target, _integers(data["phi"], "phi"))
    if not check_hom(phi):
        raise FormatError("bad phi: not a group homomorphism")
    return phi


# -- bundles ------------------------------------------------------------------

def bundle_tree(b: FellBundle) -> dict:
    """The object tree of `b`; its "unital" flag is judged at DEFAULT_TOL,
    the tolerance bundle_from_json checks it at, whatever tolerance `b` was
    built at."""
    return {
        "type": "bundle",
        "group": group_to_json(b.group),
        "ambient_dim": b.ambient_dim,
        "unital": b.unital_at(DEFAULT_TOL),
        "fibers": {str(g): _encode(b.fibers[g]) for g in b.group.elements()},
    }


def bundle_to_json(b: FellBundle) -> dict:
    return _lists(bundle_tree(b))


def _or_empty(value):
    """`value`, or [] for a falsy JSON value (a missing fiber is empty)."""
    return value if isinstance(value, np.ndarray) else value or []


def bundle_from_json(data, tol: Tolerance | None = None,
                     groups: dict | None = None) -> FellBundle:
    """The bundle of `data`, built at `tol` (DEFAULT_TOL by default), its
    group read through `groups` (`group_from_json`); the declared unitality
    is checked at DEFAULT_TOL, the tolerance bundle_tree judges it at."""
    try:
        group = group_from_json(data["group"], groups)
        n = integer(data["ambient_dim"], "ambient_dim")
        raw = _family(data, "fibers", _element_keys(group))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bundle JSON is missing fields: {exc}") from exc
    fibers = [_decode(_or_empty(raw.get(str(g))), (None, n, n), f"fiber {g}")
              for g in group.elements()]
    bundle = FellBundle(group, n, fibers, tol or DEFAULT_TOL)
    if "unital" in data and bool(data["unital"]) != bundle.unital_at(DEFAULT_TOL):
        raise FormatError("declared unitality does not match the fibers")
    return bundle


def _shared(bundle: FellBundle, data, hilbert_data) -> FellBundle | None:
    """`bundle`, parsed from `data`, when the Hilbert bundle `hilbert_data`
    is written over the same JSON, so that a file's bundle is parsed once."""
    if isinstance(hilbert_data, dict) and _same(hilbert_data.get("bundle"), data):
        return bundle
    return None


# -- bundle maps ----------------------------------------------------------------

def bundle_map_tree(t: BundleMap) -> dict:
    return {
        "type": "bundle_map",
        "source": bundle_tree(t.source),
        "target": bundle_tree(t.target),
        "phi": t.hom.map.tolist(),
        "blocks": {str(g): _encode(t.mats[g]) for g in t.source.group.elements()},
    }


def bundle_map_to_json(t: BundleMap) -> dict:
    return _lists(bundle_map_tree(t))


def bundle_map_ends(data, tol: Tolerance | None = None):
    """The source and target bundles of the map `data` (or of a build spec
    naming them), built at `tol`, and its homomorphism "phi".  A map into its
    own source bundle shares one bundle object, parsed once, as
    identity_bundle_map does, and a group table both repeat is checked
    once."""
    groups = {}
    source = bundle_from_json(data["source"], tol, groups)
    target = source if _same(data["target"], data["source"]) \
        else bundle_from_json(data["target"], tol, groups)
    return source, target, _hom(source.group, target.group, data)


def bundle_map_from_json(data, tol: Tolerance | None = None) -> BundleMap:
    try:
        source, target, phi = bundle_map_ends(data, tol)
        raw = _family(data, "blocks", _element_keys(source.group))
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

def hilbert_tree(x: SemiInnerBundle) -> dict:
    grp = x.bundle.group
    return {
        "type": "hilbert_bundle",
        "bundle": bundle_tree(x.bundle),
        "dims": list(x.dims),
        "action": {f"{r},{h}": _encode(x.act[r][h])
                   for r in grp.elements() for h in grp.elements()},
        "inner": {f"{r},{s}": _encode(x.inner[r][s])
                  for r in grp.elements() for s in grp.elements()},
    }


def hilbert_to_json(x: SemiInnerBundle) -> dict:
    return _lists(hilbert_tree(x))


def hilbert_from_json(data, bundle: FellBundle | None = None,
                      tol: Tolerance | None = None, groups: dict | None = None) -> HilbertBundle:
    """The Hilbert bundle of `data`, over `bundle` when the caller has
    parsed data["bundle"] already, else over data["bundle"] built at `tol`
    with its group read through `groups` (`group_from_json`)."""
    try:
        if bundle is None:
            bundle = bundle_from_json(data["bundle"], tol, groups)
        grp = bundle.group
        dims = [integer(d, "fiber dimension") for d in data["dims"]]
        raw_act = _family(data, "action", _pair_keys(grp))
        raw_inner = _family(data, "inner", _pair_keys(grp))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"hilbert bundle JSON is missing fields: {exc}") from exc
    if len(dims) != grp.order:
        raise FormatError(f"'dims' has {len(dims)} entries, the group has {grp.order}")
    act = [[tensor3_from_json(
        raw_act[f"{r},{h}"],
        (bundle.dims[h], dims[grp.mul(r, h)], dims[r]))
        for h in grp.elements()] for r in grp.elements()]
    inner = [[tensor3_from_json(
        raw_inner[f"{r},{s}"],
        (dims[r], dims[s], bundle.dims[grp.mul(grp.inv(r), s)]))
        for s in grp.elements()] for r in grp.elements()]
    return HilbertBundle(bundle, dims, act, inner)


def action_tree(rho: Action) -> dict:
    src_grp = rho.source.group
    tgt_grp = rho.target.bundle.group
    return {
        "type": "action",
        "source": bundle_tree(rho.source),
        "phi": rho.hom.map.tolist(),
        "target": hilbert_tree(rho.target),
        "ops": {f"{g},{h}": _encode(rho.ops[g][h])
                for g in src_grp.elements() for h in tgt_grp.elements()},
    }


def action_to_json(rho: Action) -> dict:
    return _lists(action_tree(rho))


def action_from_json(data, tol: Tolerance | None = None) -> Action:
    try:
        groups = {}
        source = bundle_from_json(data["source"], tol, groups)
        # an action on a Hilbert bundle over its own source bundle shares one
        # bundle object, as l2_action does
        target = hilbert_from_json(data["target"], tol=tol, groups=groups,
                                   bundle=_shared(source, data["source"], data["target"]))
        tgt_grp = target.bundle.group
        phi = _hom(source.group, tgt_grp, data)
        raw = _family(data, "ops", _pair_keys(source.group, tgt_grp))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"action JSON is missing fields: {exc}") from exc
    ops = [[tensor3_from_json(
        raw[f"{g},{h}"],
        (source.dims[g], target.dims[tgt_grp.mul(phi(g), h)], target.dims[h]))
        for h in tgt_grp.elements()] for g in source.group.elements()]
    return Action(source, phi, target, ops)


def vector_payload_tree(x, fiber: int) -> dict:
    return {"type": "vector", "fiber": int(fiber), "coords": _encode(x)}


def vector_payload_to_json(x, fiber: int) -> dict:
    return _lists(vector_payload_tree(x, fiber))


def vector_payload_from_json(data) -> tuple[np.ndarray, int]:
    return vector_from_json(data["coords"]), integer(data.get("fiber", 0), "fiber")


def equivalence_tree(e: EquivalenceBundle) -> dict:
    grp = e.left_bundle.group
    return {
        "type": "equivalence",
        "left_bundle": bundle_tree(e.left_bundle),
        "right": hilbert_tree(e.right),
        "lact": {f"{g},{r}": _encode(e.lact[g][r])
                 for g in grp.elements() for r in grp.elements()},
        "linner": {f"{r},{s}": _encode(e.linner[r][s])
                   for r in grp.elements() for s in grp.elements()},
    }


def equivalence_to_json(e: EquivalenceBundle) -> dict:
    return _lists(equivalence_tree(e))


def equivalence_from_json(data, tol: Tolerance | None = None) -> EquivalenceBundle:
    try:
        groups = {}
        left = bundle_from_json(data["left_bundle"], tol, groups)
        # shared as in action_from_json, as trivial_self_equivalence does
        right = hilbert_from_json(data["right"], tol=tol, groups=groups,
                                  bundle=_shared(left, data["left_bundle"], data["right"]))
        grp = left.group
        raw_lact = _family(data, "lact", _pair_keys(grp))
        raw_linner = _family(data, "linner", _pair_keys(grp))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"equivalence JSON is missing fields: {exc}") from exc
    if right.bundle.group != grp:
        raise FormatError("'left_bundle' and 'right' must be bundles over the same group")
    dims = right.dims
    lact = [[tensor3_from_json(
        raw_lact[f"{g},{r}"],
        (left.dims[g], dims[grp.mul(g, r)], dims[r]))
        for r in grp.elements()] for g in grp.elements()]
    linner = [[tensor3_from_json(
        raw_linner[f"{r},{s}"],
        (dims[r], dims[s], left.dims[grp.mul(r, grp.inv(s))]))
        for s in grp.elements()] for r in grp.elements()]
    return EquivalenceBundle(left, right, lact, linner)


def certificate_tree(cert, full: bool = False) -> dict:
    """The report of a positive definiteness certificate: its verdict,
    margin and Hermitian defect, the witness of a failed one, and with
    `full` its matrix."""
    out = {
        "verdict": bool(cert.ok),
        "margin": float(cert.margin),
        "hermitian_defect": float(cert.hermitian_defect),
    }
    if cert.witness is not None:
        out["witness"] = [{"g": int(g), "a": _encode(a), "b": _encode(b)}
                          for g, a, b in cert.witness]
        out["witness_sum"] = _encode(cert.witness_sum)
    if full:
        out["gram"] = _encode(cert.gram)
    return out


def certificate_to_json(cert, full: bool = False) -> dict:
    return _lists(certificate_tree(cert, full))
