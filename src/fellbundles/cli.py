"""Batch verification front end.

Every command reads JSON, prints one JSON report to stdout and exits with
0 (all checks passed), 1 (a mathematical check failed; the report names
the axiom or eigenvalue) or 2 (malformed input).  Reports embed the
tolerances, seed and sample count that produced them and contain no
timestamps, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .actions import l2_action, regularize_action, trivial_action, validate_action
from .bundles import check_saturated, dynamical_bundle, group_bundle, validate_bundle
from .correspondences import (
    amplified_correspondence,
    amplified_is_star_rep,
    attach_left_action,
    build_module,
    check_cyclic,
    check_nondegenerate,
    trivial_self_equivalence,
    verify_imprimitivity,
)
from .groups import NoIdentityError, NotAssociativeError, NotLatinSquareError, make_cyclic, \
    make_from_table, symmetric_group
from .hilbundles import trivial_hilbert_bundle, l2_bundle, regularize_bundle, \
    validate_hilbert_bundle
from .numerics import Tolerance, identity_bound
from .pdmaps import NotPositiveDefiniteError, NotUnitalError, gelfand_raikov, \
    identity_bundle_map, pd_check_exact, pd_check_sampled, roundtrip_residual, scalar_bundle_map
from . import serialize as sz

OK, MATH_FAIL, BAD_INPUT = 0, 1, 2


class CliInputError(Exception):
    pass


def _emit(payload: dict, args) -> None:
    payload = {
        "tool": "fellbundles",
        "version": __version__,
        "report_schema": 1,
        "command": args.command,
        "tolerances": {
            "rel_psd": args.tolerance.rel_psd,
            "rel_rank": args.tolerance.rel_rank,
            "rel_eq": args.tolerance.rel_eq,
        },
        "seed": args.seed,
        "samples": args.samples,
        **payload,
    }
    print(report_text(payload))


# -- JSON text -----------------------------------------------------------------
#
# A report is the text of json.dumps(payload, sort_keys=True, indent=2), and an
# object file that of json.dumps(lists, sort_keys=True), for `lists` the
# object's tree (serialize.*_tree) with its arrays turned to nested lists; both
# byte for byte.  Both are written here: json's indenting encoder is pure
# Python, and its C encoder makes and formats one Python float per entry of an
# object's arrays, which hold few distinct values.  Dicts and lists are written
# item by item as json writes them, a rectangular nest of finite floats (every
# matrix that serialize.matrix_to_json makes) in one pass over its flattened
# leaves, and the float arrays of an object's tree all at once.

_SEQUENCES = {list, tuple}


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


class _Writer:
    """Text of JSON-like values as json.dumps(o, sort_keys=True, indent=2)
    writes them, for dicts with str keys; TypeError for anything else json
    refuses."""

    def __init__(self):
        self.out = []
        self._separators = {}

    def newline(self, depth: int) -> str:
        return "\n" + "  " * depth

    def comma(self, depth: int) -> str:
        return ",\n" + "  " * depth

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

    def float_nest(self, o, depth: int) -> str | None:
        """The text of `o`, a list at nesting `depth`, when it is a
        rectangular nest of finite floats; None otherwise."""
        shape = []
        x = o
        while type(x) in _SEQUENCES:
            if not x:
                return None
            shape.append(len(x))
            x = x[0]
        if not isinstance(x, float):
            return None
        leaves = list(o)
        for n in shape[1:]:
            if not set(map(type, leaves)) <= _SEQUENCES or set(map(len, leaves)) != {n}:
                return None
            leaves = list(chain.from_iterable(leaves))
        if not all(issubclass(t, float) for t in set(map(type, leaves))) \
                or not all(map(math.isfinite, leaves)):
            return None
        return self.nest(list(map(float.__repr__, leaves)), tuple(shape), depth)

    def write(self, o, depth: int) -> None:
        """Append the text of `o` at nesting `depth`, as json does."""
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
            nest = self.float_nest(o, depth)
            if nest is not None:
                out.append(nest)
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
        else:
            self.write_other(o, depth)

    def write_other(self, o, depth: int) -> None:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    def text(self, o) -> str:
        self.write(o, 0)
        return "".join(self.out)


class _ObjectWriter(_Writer):
    """Text of object trees as json.dumps(o, sort_keys=True) writes them once
    every float64 array leaf is turned to nested lists by tolist().  The
    array leaves are written last, together: each distinct value among all
    their entries is formatted once (`_entry_texts`), and each array's leaf
    texts are joined by the separators of its shape."""

    def __init__(self):
        super().__init__()
        self._arrays = []  # (position in out, array) of every array leaf

    def newline(self, depth: int) -> str:
        return ""

    def comma(self, depth: int) -> str:
        return ", "

    def write_other(self, o, depth: int) -> None:
        if not (isinstance(o, np.ndarray) and o.dtype == np.float64):
            super().write_other(o, depth)
        elif o.size == 0:  # nested empty lists, no entry to format
            self.write(o.tolist(), depth)
        else:
            self._arrays.append((len(self.out), o))
            self.out.append(None)

    def text(self, o) -> str:
        self.write(o, 0)
        if self._arrays:
            leaves = _entry_texts(np.concatenate([a.ravel() for _, a in self._arrays]))
            start = 0
            for at, a in self._arrays:
                self.out[at] = self.nest(leaves[start:start + a.size], a.shape, 0)
                start += a.size
        return "".join(self.out)


def _entry_texts(flat: np.ndarray) -> list:
    """The text of every entry of a nonempty float64 array, formatting each
    distinct bit pattern once (so -0.0 stays apart from 0.0)."""
    bits = flat.view(np.int64)
    values = np.sort(bits)
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    texts = np.array(list(map(_float_text, values.view(np.float64).tolist())), dtype=object)
    return texts[np.searchsorted(values, bits)].tolist()


def report_text(payload) -> str:
    """`payload` as json.dumps(payload, sort_keys=True, indent=2) writes it,
    for payloads whose dicts have str keys; TypeError for anything else json
    refuses."""
    return _Writer().text(payload)


def object_text(tree) -> str:
    """`tree`, a JSON-like value whose leaves may also be float arrays, as
    json.dumps(lists, sort_keys=True) writes `lists`, the tree with every
    array leaf turned to nested lists by tolist()."""
    return _ObjectWriter().text(tree)


def _write_object(tree, path: str | None) -> None:
    """Write an object file, compact sorted-key JSON on one line, to `path`,
    or print it when there is no path."""
    text = object_text(tree) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# -- object files in -----------------------------------------------------------
#
# An object file is read as the tree serialize.*_tree builds: the value of
# every element or pair key ("g" or "g,h") that is a regular nest of two or
# more JSON numbers becomes a read-only float64 array, and everything else
# stays what json.loads gives.  Such a leaf is cut out of the text and
# replaced by a placeholder string, and json reads the small skeleton that is
# left.  Each distinct leaf text is read once, by json and numpy, to the array
# serialize would make of what json gives.  A leaf that json or numpy
# refuses, or that holds fewer than two numbers, stays in the skeleton, so
# json and serialize judge it as they would without the cut; json reads a
# text with a syntax error again whole, so that it reports the error where it
# is in the file.

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
        if values.size < 2:  # serialize._same compares arrays of two or more
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


def _load(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    try:
        return _ObjectReader().tree(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CliInputError(f"{path} is nested too deeply to read: {exc}") from exc


# -- object dispatch -----------------------------------------------------------

def _parse_object(data, tol: Tolerance):
    """The kind and object of `data`, its bundles built at `tol`."""
    if not isinstance(data, dict) or "type" not in data:
        raise sz.FormatError("input JSON must be an object with a 'type' field")
    kind = data["type"]
    parsers = {
        "group": lambda d, tol: sz.group_from_json(d),
        "bundle": sz.bundle_from_json,
        "hilbert_bundle": sz.hilbert_from_json,
        "action": sz.action_from_json,
        "bundle_map": sz.bundle_map_from_json,
        "equivalence": sz.equivalence_from_json,
    }
    if kind not in parsers:
        raise sz.FormatError(f"unknown object type {kind!r}")
    return kind, parsers[kind](data, tol=tol)


def cmd_validate(args) -> int:
    tol = args.tolerance
    kind, obj = _parse_object(_load(args.file), tol)
    if kind == "group":
        # parsing already ran the full axiom battery
        _emit({"object": kind, "ok": True, "order": obj.order,
               "abelian": obj.is_abelian()}, args)
        return OK
    if kind == "bundle":
        rep = validate_bundle(obj, tol)
    elif kind == "hilbert_bundle":
        rep = validate_hilbert_bundle(obj, tol)
    elif kind == "action":
        rep = validate_action(obj, tol, seed=args.seed)
    elif kind == "equivalence":
        rep = verify_imprimitivity(obj, tol, seed=args.seed)
    else:  # bundle_map: structural shapes were checked during parsing
        _emit({"object": kind, "ok": True}, args)
        return OK
    _emit({"object": kind, "ok": rep.ok, "report": rep.as_dict()}, args)
    return OK if rep.ok else MATH_FAIL


_GROUP_KINDS = {"cyclic_group", "symmetric_group", "table_group"}


def _built_group(spec):
    kind = spec["kind"]
    if kind == "cyclic_group":
        return make_cyclic(int(spec["n"]))
    if kind == "symmetric_group":
        return symmetric_group(int(spec["n"]))
    return make_from_table(spec["table"])


def cmd_build(args) -> int:
    spec, tol = _load(args.file), args.tolerance
    if not isinstance(spec, dict) or "kind" not in spec:
        raise sz.FormatError("build spec must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind in _GROUP_KINDS:
            obj = sz.group_to_json(_built_group(spec))
        elif kind == "group_bundle":
            obj = sz.bundle_tree(group_bundle(sz.group_from_json(spec["group"])))
        elif kind == "dynamical_bundle":
            algebra = np.array([sz.matrix_from_json(m) for m in spec["algebra"]])
            group = sz.group_from_json(spec["group"])
            autos = [sz.matrix_from_json(m) for m in spec["automorphisms"]]
            obj = sz.bundle_tree(dynamical_bundle(algebra, group, autos, tol))
        elif kind in ("trivial_hilbert_bundle", "l2_bundle", "regular_hilbert_bundle"):
            bundle = sz.bundle_from_json(spec["bundle"], tol)
            built = {"trivial_hilbert_bundle": trivial_hilbert_bundle,
                     "l2_bundle": l2_bundle,
                     "regular_hilbert_bundle":
                         lambda b: regularize_bundle(trivial_hilbert_bundle(b))}[kind](bundle)
            obj = sz.hilbert_tree(built)
        elif kind in ("trivial_action", "l2_action", "regular_action"):
            bundle = sz.bundle_from_json(spec["bundle"], tol)
            built = {"trivial_action": trivial_action,
                     "l2_action": l2_action,
                     "regular_action":
                         lambda b: regularize_action(trivial_action(b))}[kind](bundle)
            obj = sz.action_tree(built)
        elif kind == "identity_bundle_map":
            obj = sz.bundle_map_tree(
                identity_bundle_map(sz.bundle_from_json(spec["bundle"], tol)))
        elif kind == "scalar_bundle_map":
            source = sz.bundle_from_json(spec["source"], tol)
            # a map into its own source bundle parses that bundle once, as
            # serialize.bundle_map_from_json does
            target = source if sz._same(spec["target"], spec["source"]) \
                else sz.bundle_from_json(spec["target"], tol)
            hom = sz._hom(source.group, target.group, spec)
            values = sz.vector_from_json(spec["values"])
            obj = sz.bundle_map_tree(scalar_bundle_map(source, target, hom, values))
        elif kind == "self_equivalence":
            obj = sz.equivalence_tree(
                trivial_self_equivalence(sz.bundle_from_json(spec["bundle"], tol)))
        else:
            raise sz.FormatError(f"unknown build kind {kind!r}")
    except (NotLatinSquareError, NotAssociativeError, NoIdentityError) as exc:
        _emit({"ok": False, "error": str(exc)}, args)
        return MATH_FAIL
    _write_object(obj, args.output)
    if args.output:
        _emit({"ok": True, "written": args.output}, args)
    return OK


def cmd_pd_check(args) -> int:
    tol = args.tolerance
    t = sz.bundle_map_from_json(_load(args.file), tol)
    cert = pd_check_exact(t, tol)
    sampled = pd_check_sampled(t, samples=args.samples, seed=args.seed, tol=tol)
    payload = {
        "ok": bool(cert.ok),
        "exact": sz.certificate_to_json(cert, full=args.full),
        "sampled": {
            "ok": bool(sampled.ok),
            "worst_margin": float(sampled.worst_margin),
            # the self-check of the target's decomposition, which the
            # sampled sums are judged on
            "decomposition_residual": float(t.target.blocks.residual),
            "decomposition_bound": float(t.target.tolerance.rel_rank),
        },
        "consistent": bool(sampled.ok or not cert.ok),
    }
    _emit(payload, args)
    return OK if cert.ok else MATH_FAIL


def cmd_gns(args) -> int:
    tol = args.tolerance
    t = sz.bundle_map_from_json(_load(args.file), tol)
    try:
        hb, rho, xi = gelfand_raikov(t, tol)
    except (NotUnitalError, NotPositiveDefiniteError) as exc:
        _emit({"ok": False, "error": str(exc)}, args)
        return MATH_FAIL
    prefix = args.output or str(Path(args.file).with_suffix("")) + ".gns"
    paths = {
        "hilbert_bundle": f"{prefix}.bundle.json",
        "action": f"{prefix}.action.json",
        "vector": f"{prefix}.vector.json",
    }
    _write_object(sz.hilbert_tree(hb), paths["hilbert_bundle"])
    _write_object(sz.action_tree(rho), paths["action"])
    _write_object(sz.vector_payload_tree(xi, hb.bundle.group.identity), paths["vector"])

    # re-read everything and re-derive the map from the stored data
    rho2 = sz.action_from_json(_load(paths["action"]), tol)
    xi2, _ = sz.vector_payload_from_json(_load(paths["vector"]))
    residual = roundtrip_residual(t, hb, rho2, xi2)
    bound = identity_bound(tol) * (1.0 + t.norm())
    ok = residual <= bound
    _emit({
        "ok": ok,
        "roundtrip_residual": residual,
        "residual_bound": bound,
        "fiber_dimensions": list(hb.dims),
        "files": paths,
    }, args)
    return OK if ok else MATH_FAIL


def _unit_fiber_vector(path: str, rho):
    """The cyclicity vector of `path`; its fiber must be the unit of the
    target group."""
    xi, fiber = sz.vector_payload_from_json(_load(path))
    grp = rho.target.bundle.group
    if not 0 <= fiber < grp.order:
        raise sz.FormatError(f"vector fiber {fiber} is not an element of the target group")
    if fiber != grp.identity:
        raise sz.FormatError(f"vector fiber {fiber} is not the unit fiber {grp.identity}")
    return xi


def cmd_correspond(args) -> int:
    tol = args.tolerance
    rho = sz.action_from_json(_load(args.file), tol)
    xi = _unit_fiber_vector(args.vector, rho) if args.vector else None
    act_rep = validate_action(rho, tol, seed=args.seed)
    payload = {"action_report": act_rep.as_dict()}
    ok = act_rep.ok
    if ok:
        y = attach_left_action(build_module(rho.target, tol, seed=args.seed),
                               rho, tol, seed=args.seed)
        amp = amplified_correspondence(y)
        payload["module_dimension"] = y.dim
        payload["nondegenerate"] = check_nondegenerate(y, tol)
        payload["amplified_dimension"] = amp.dim
        star_rep = amplified_is_star_rep(amp, seed=args.seed, tol=tol)
        payload["amplified_star_representation"] = star_rep.ok
        payload["amplified_star_residual"] = star_rep.residual
        payload["amplified_star_bound"] = star_rep.bound
        ok = star_rep.ok
        if xi is not None:
            payload["cyclic"] = check_cyclic(y, xi, tol)
    payload["ok"] = ok
    _emit(payload, args)
    return OK if ok else MATH_FAIL


def cmd_morita(args) -> int:
    e = sz.equivalence_from_json(_load(args.file), args.tolerance)
    rep = verify_imprimitivity(e, args.tolerance, seed=args.seed)
    _emit({"ok": rep.ok, "report": rep.as_dict()}, args)
    return OK if rep.ok else MATH_FAIL


def cmd_report(args) -> int:
    tol = args.tolerance
    kind, obj = _parse_object(_load(args.file), tol)
    payload = {"object": kind}
    ok = True
    if kind == "bundle":
        rep = validate_bundle(obj, tol)
        payload["report"] = rep.as_dict()
        payload["saturated"] = check_saturated(obj, tol)
        payload["unital"] = obj.unital_at(tol)
        payload["fiber_dimensions"] = list(obj.dims)
        payload["amenability"] = ("group is finite, hence amenable; full and "
                                  "reduced cross-sectional algebras coincide")
        ok = rep.ok
    elif kind == "group":
        payload["order"] = obj.order
        payload["abelian"] = obj.is_abelian()
    elif kind == "hilbert_bundle":
        rep = validate_hilbert_bundle(obj, tol)
        payload["report"] = rep.as_dict()
        payload["fiber_dimensions"] = list(obj.dims)
        ok = rep.ok
    elif kind == "action":
        rep = validate_action(obj, tol, seed=args.seed)
        payload["report"] = rep.as_dict()
        ok = rep.ok
    elif kind == "bundle_map":
        cert = pd_check_exact(obj, tol)
        payload["positive_definite"] = sz.certificate_to_json(cert, full=args.full)
        ok = True  # reporting, not certifying
    elif kind == "equivalence":
        rep = verify_imprimitivity(obj, tol, seed=args.seed)
        payload["report"] = rep.as_dict()
        ok = rep.ok
    payload["ok"] = ok
    _emit(payload, args)
    return OK if ok else MATH_FAIL


COMMANDS = {
    "validate": cmd_validate,
    "build": cmd_build,
    "pd-check": cmd_pd_check,
    "gns": cmd_gns,
    "correspond": cmd_correspond,
    "morita": cmd_morita,
    "report": cmd_report,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fellbundles",
        description="Validate graded bundle data, certify positive "
                    "definiteness, run the reconstruction pipeline and check "
                    "Morita equivalences.",
    )
    # the arguments every command shares, added once and copied into each
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("file", help="input JSON file")
    shared.add_argument("--tol-psd", type=float, default=1e-8)
    shared.add_argument("--tol-rank", type=float, default=1e-9)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--samples", type=int, default=200)
    shared.add_argument("--full", action="store_true",
                        help="embed certificate matrices in the report")
    shared.add_argument("-o", "--output", default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("validate", "run the axiom battery for the object in FILE"),
        ("build", "construct a named object from a build spec"),
        ("pd-check", "certify positive definiteness of a bundle map"),
        ("gns", "reconstruct (bundle, action, vector) from a map and round-trip it"),
        ("correspond", "build the crossed-product module of an action"),
        ("morita", "verify an imprimitivity bimodule"),
        ("report", "extended diagnostics for the object in FILE"),
    ):
        p = sub.add_parser(name, help=help_text, parents=[shared])
        if name == "correspond":
            p.add_argument("--vector", default=None,
                           help="vector JSON for the cyclicity check; the vector "
                                "must lie in the unit fiber of the target group")
    return parser


def main(argv=None) -> int:
    from .bundles import NotActionError, NotAutomorphismError

    args = make_parser().parse_args(argv)
    try:
        args.tolerance = Tolerance(rel_psd=args.tol_psd, rel_rank=args.tol_rank)
    except ValueError as exc:
        print(json.dumps({"ok": False, "error": str(exc)}), file=sys.stderr)
        return BAD_INPUT
    if args.samples < 1:
        print(json.dumps({"ok": False, "error": "--samples must be a positive integer"}),
              file=sys.stderr)
        return BAD_INPUT
    try:
        return COMMANDS[args.command](args)
    except (NotLatinSquareError, NotAssociativeError, NoIdentityError,
            NotAutomorphismError, NotActionError) as exc:
        print(json.dumps({"ok": False, "error": str(exc)}, sort_keys=True))
        return MATH_FAIL
    except (CliInputError, sz.FormatError, KeyError, TypeError, ValueError,
            OverflowError, OSError) as exc:
        print(json.dumps({"ok": False, "error": f"{type(exc).__name__}: {exc}"},
                         sort_keys=True))
        return BAD_INPUT
    except MemoryError as exc:
        # an input too large for dense linear algebra, found by running out
        detail = f": {exc}" if str(exc) else ""
        print(json.dumps({"ok": False, "error": f"MemoryError: {args.command} ran out of "
                                                f"memory{detail}"}, sort_keys=True))
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
