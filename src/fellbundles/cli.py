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
import sys
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
from .groups import GroupHom, NoIdentityError, NotAssociativeError, NotLatinSquareError, \
    make_cyclic, make_from_table, symmetric_group
from .hilbundles import trivial_hilbert_bundle, l2_bundle, regularize_bundle, \
    validate_hilbert_bundle
from .numerics import Tolerance
from .pdmaps import NotPositiveDefiniteError, NotUnitalError, gelfand_raikov, \
    identity_bundle_map, pd_check_exact, pd_check_sampled, roundtrip_residual, scalar_bundle_map
from . import serialize as sz

OK, MATH_FAIL, BAD_INPUT = 0, 1, 2


class CliInputError(Exception):
    pass


def _load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc


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
    print(json.dumps(payload, sort_keys=True, indent=2))


def _write_object(obj: dict, path: str | None) -> None:
    """Write an object file, compact sorted-key JSON on one line, to `path`,
    or print it when there is no path."""
    text = json.dumps(obj, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# -- object dispatch -----------------------------------------------------------

def _parse_object(data):
    if not isinstance(data, dict) or "type" not in data:
        raise sz.FormatError("input JSON must be an object with a 'type' field")
    kind = data["type"]
    parsers = {
        "group": sz.group_from_json,
        "bundle": sz.bundle_from_json,
        "hilbert_bundle": sz.hilbert_from_json,
        "action": sz.action_from_json,
        "bundle_map": sz.bundle_map_from_json,
        "equivalence": sz.equivalence_from_json,
    }
    if kind not in parsers:
        raise sz.FormatError(f"unknown object type {kind!r}")
    return kind, parsers[kind](data)


def cmd_validate(args) -> int:
    kind, obj = _parse_object(_load(args.file))
    tol = args.tolerance
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
    spec = _load(args.file)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise sz.FormatError("build spec must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind in _GROUP_KINDS:
            obj = sz.group_to_json(_built_group(spec))
        elif kind == "group_bundle":
            obj = sz.bundle_to_json(group_bundle(sz.group_from_json(spec["group"])))
        elif kind == "dynamical_bundle":
            algebra = np.array([sz.matrix_from_json(m) for m in spec["algebra"]])
            group = sz.group_from_json(spec["group"])
            autos = [sz.matrix_from_json(m) for m in spec["automorphisms"]]
            obj = sz.bundle_to_json(dynamical_bundle(algebra, group, autos))
        elif kind in ("trivial_hilbert_bundle", "l2_bundle", "regular_hilbert_bundle"):
            bundle = sz.bundle_from_json(spec["bundle"])
            built = {"trivial_hilbert_bundle": trivial_hilbert_bundle,
                     "l2_bundle": l2_bundle,
                     "regular_hilbert_bundle":
                         lambda b: regularize_bundle(trivial_hilbert_bundle(b))}[kind](bundle)
            obj = sz.hilbert_to_json(built)
        elif kind in ("trivial_action", "l2_action", "regular_action"):
            bundle = sz.bundle_from_json(spec["bundle"])
            built = {"trivial_action": trivial_action,
                     "l2_action": l2_action,
                     "regular_action":
                         lambda b: regularize_action(trivial_action(b))}[kind](bundle)
            obj = sz.action_to_json(built)
        elif kind == "identity_bundle_map":
            obj = sz.bundle_map_to_json(
                identity_bundle_map(sz.bundle_from_json(spec["bundle"])))
        elif kind == "scalar_bundle_map":
            source = sz.bundle_from_json(spec["source"])
            # a map into its own source bundle parses that bundle once, as
            # serialize.bundle_map_from_json does
            target = source if spec["target"] == spec["source"] \
                else sz.bundle_from_json(spec["target"])
            hom = GroupHom(source.group, target.group,
                           np.asarray(spec["phi"], dtype=np.int64))
            values = sz.vector_from_json(spec["values"])
            obj = sz.bundle_map_to_json(scalar_bundle_map(source, target, hom, values))
        elif kind == "self_equivalence":
            obj = sz.equivalence_to_json(
                trivial_self_equivalence(sz.bundle_from_json(spec["bundle"])))
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
    t = sz.bundle_map_from_json(_load(args.file))
    tol = args.tolerance
    cert = pd_check_exact(t, tol)
    sampled = pd_check_sampled(t, samples=args.samples, seed=args.seed, tol=tol)
    payload = {
        "ok": bool(cert.ok),
        "exact": sz.certificate_to_json(cert, full=args.full),
        "sampled": {
            "ok": bool(sampled.ok),
            "worst_margin": float(sampled.worst_margin),
        },
        "consistent": bool(sampled.ok or not cert.ok),
    }
    _emit(payload, args)
    return OK if cert.ok else MATH_FAIL


def cmd_gns(args) -> int:
    t = sz.bundle_map_from_json(_load(args.file))
    tol = args.tolerance
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
    _write_object(sz.hilbert_to_json(hb), paths["hilbert_bundle"])
    _write_object(sz.action_to_json(rho), paths["action"])
    _write_object(sz.vector_payload_to_json(xi, hb.bundle.group.identity), paths["vector"])

    # re-read everything and re-derive the map from the stored data
    rho2 = sz.action_from_json(_load(paths["action"]))
    xi2, _ = sz.vector_payload_from_json(_load(paths["vector"]))
    residual = roundtrip_residual(t, hb, rho2, xi2)
    bound = 1e-8 * (1.0 + t.norm())
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
    rho = sz.action_from_json(_load(args.file))
    xi = _unit_fiber_vector(args.vector, rho) if args.vector else None
    tol = args.tolerance
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
        star_rep = amplified_is_star_rep(amp, seed=args.seed)
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
    e = sz.equivalence_from_json(_load(args.file))
    rep = verify_imprimitivity(e, args.tolerance, seed=args.seed)
    _emit({"ok": rep.ok, "report": rep.as_dict()}, args)
    return OK if rep.ok else MATH_FAIL


def cmd_report(args) -> int:
    kind, obj = _parse_object(_load(args.file))
    tol = args.tolerance
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
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input JSON file")
        p.add_argument("--tol-psd", type=float, default=1e-8)
        p.add_argument("--tol-rank", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--full", action="store_true",
                       help="embed certificate matrices in the report")
        p.add_argument("-o", "--output", default=None)
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


if __name__ == "__main__":
    sys.exit(main())
