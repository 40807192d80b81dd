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
    print(sz.report_text(payload))


# -- object files ----------------------------------------------------------------

def _write_object(tree, path: str | None) -> None:
    """Write an object file, compact sorted-key JSON on one line, to `path`,
    or print it when there is no path."""
    text = sz.object_text(tree) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _load(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    try:
        return sz.read_tree(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CliInputError(f"{path} is nested too deeply to read: {exc}") from exc


# -- commands ------------------------------------------------------------------

# the validator of each object kind that has one, called as (obj, tol, seed);
# each looks its validator up by name when called, so that a wrapper bound to
# that name in this module (the benchmark's tracer) is the one that runs
_VALIDATORS = {
    "bundle": lambda obj, tol, seed: validate_bundle(obj, tol),
    "hilbert_bundle": lambda obj, tol, seed: validate_hilbert_bundle(obj, tol),
    "action": lambda obj, tol, seed: validate_action(obj, tol, seed=seed),
    "equivalence": lambda obj, tol, seed: verify_imprimitivity(obj, tol, seed=seed),
}


def cmd_validate(args) -> int:
    kind, obj = sz.parse_object(_load(args.file), args.tolerance)
    if kind == "group":
        # parsing already ran the full axiom battery
        _emit({"object": kind, "ok": True, "order": obj.order,
               "abelian": obj.is_abelian()}, args)
        return OK
    if kind not in _VALIDATORS:  # bundle_map: structural shapes were checked during parsing
        _emit({"object": kind, "ok": True}, args)
        return OK
    rep = _VALIDATORS[kind](obj, args.tolerance, args.seed)
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
            source, target, hom = sz.bundle_map_ends(spec, tol)
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
        "exact": sz.certificate_tree(cert, full=args.full),
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
    kind, obj = sz.parse_object(_load(args.file), tol)
    payload = {"object": kind}
    ok = True
    if kind in _VALIDATORS:
        rep = _VALIDATORS[kind](obj, tol, args.seed)
        payload["report"] = rep.as_dict()
        ok = rep.ok
    if kind == "bundle":
        payload["saturated"] = check_saturated(obj, tol)
        payload["unital"] = obj.unital_at(tol)
        payload["amenability"] = ("group is finite, hence amenable; full and "
                                  "reduced cross-sectional algebras coincide")
    elif kind == "group":
        payload["order"] = obj.order
        payload["abelian"] = obj.is_abelian()
    elif kind == "bundle_map":
        # reporting, not certifying: ok stays True
        cert = pd_check_exact(obj, tol)
        payload["positive_definite"] = sz.certificate_tree(cert, full=args.full)
    if kind in ("bundle", "hilbert_bundle"):
        payload["fiber_dimensions"] = list(obj.dims)
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
