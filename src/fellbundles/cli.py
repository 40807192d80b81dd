"""Batch verification front end.

Every command reads JSON, prints one JSON report to stdout and exits with
0 (all checks passed), 1 (a mathematical check failed; the report names
the axiom or eigenvalue) or 2 (malformed input).  Reports embed the
tolerances, seed and sample count that produced them and contain no
timestamps, so identical invocations are byte-identical.  The seed draws
only pd-check's sampled tuples and correspond's amplified sections; every
other verdict is the same under every seed.

`read_argv` reads argv in one pass against one table of options, which
also gives the help text; an argv it refuses, a negative --seed and a
--samples below 1 exit 2 with one JSON error on stderr before FILE is read.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .actions import l2_action, regularize_action, trivial_action, validate_action
from .bundles import NotActionError, NotAutomorphismError, check_saturated, dynamical_bundle, \
    group_bundle, validate_bundle
from .correspondences import (
    Correspondence,
    amplified_correspondence,
    amplified_is_star_rep,
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
        "report_schema": 2,
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

# the validator of each object kind that has one, called as (obj, tol); each
# looks its validator up by name when called, so that a wrapper bound to that
# name in this module (the benchmark's tracer) is the one that runs
_VALIDATORS = {
    "bundle": lambda obj, tol: validate_bundle(obj, tol),
    "hilbert_bundle": lambda obj, tol: validate_hilbert_bundle(obj, tol),
    "action": lambda obj, tol: validate_action(obj, tol),
    "equivalence": lambda obj, tol: verify_imprimitivity(obj, tol),
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
    rep = _VALIDATORS[kind](obj, args.tolerance)
    _emit({"object": kind, "ok": rep.ok, "report": rep.as_dict()}, args)
    return OK if rep.ok else MATH_FAIL


_GROUP_KINDS = {"cyclic_group", "symmetric_group", "table_group"}


def _built_group(spec):
    kind = spec["kind"]
    if kind == "cyclic_group":
        return make_cyclic(sz.integer(spec["n"], "n"))
    if kind == "symmetric_group":
        return symmetric_group(sz.integer(spec["n"], "n"))
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
    act_rep = validate_action(rho, tol)
    payload = {"action_report": act_rep.as_dict()}
    ok = act_rep.ok
    if ok:
        # judged only after the action passes, so a refuted action costs no more
        module_rep = validate_hilbert_bundle(rho.target, tol)
        payload["module_report"] = module_rep.as_dict()
        ok = module_rep.ok
    if ok:
        y = Correspondence(rho.target, action=rho)
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
    rep = verify_imprimitivity(e, args.tolerance)
    _emit({"ok": rep.ok, "report": rep.as_dict()}, args)
    return OK if rep.ok else MATH_FAIL


def cmd_report(args) -> int:
    tol = args.tolerance
    kind, obj = sz.parse_object(_load(args.file), tol)
    payload = {"object": kind}
    ok = True
    if kind in _VALIDATORS:
        rep = _VALIDATORS[kind](obj, tol)
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


# -- the command line ----------------------------------------------------------

_SUMMARIES = {
    "validate": "run the axiom battery for the object in FILE",
    "build": "construct a named object from a build spec",
    "pd-check": "certify positive definiteness of a bundle map",
    "gns": "reconstruct (bundle, action, vector) from a map and round-trip it",
    "correspond": "build the crossed-product module of an action",
    "morita": "verify an imprimitivity bimodule",
    "report": "extended diagnostics for the object in FILE",
}
_DESCRIPTION = ("Validate graded bundle data, certify positive definiteness, run the\n"
                "reconstruction pipeline and check Morita equivalences.")
_TOL_DEFAULTS = {f.name: f.default for f in fields(Tolerance)}


@dataclass(frozen=True)
class _Option:
    names: tuple[str, ...]
    dest: str
    read: type | None  # None for a flag
    default: object
    help: str


# the options every command takes, then correspond's own
_OPTIONS = (
    _Option(("--tol-psd",), "tol_psd", float, _TOL_DEFAULTS["rel_psd"],
            "relative tolerance of PSD margins"),
    _Option(("--tol-rank",), "tol_rank", float, _TOL_DEFAULTS["rel_rank"],
            "relative tolerance of rank and membership decisions"),
    _Option(("--seed",), "seed", int, 0,
            "seed of pd-check's sampled tuples and correspond's amplified sections, "
            "non-negative"),
    _Option(("--samples",), "samples", int, 200, "number of sampled tuples, positive"),
    _Option(("--full",), "full", None, False, "embed certificate matrices in the report"),
    _Option(("-o", "--output"), "output", str, None,
            "file to write (build) or prefix of the written files (gns)"),
)
_VECTOR = _Option(("--vector",), "vector", str, None,
                  "vector JSON for the cyclicity check; the vector must lie in the "
                  "unit fiber of the target group")
_HELP = _Option(("-h", "--help"), "help", None, False, "print this help and exit")
_METAVARS = {float: " X", int: " N", str: " PATH", None: ""}


class UsageError(Exception):
    """An argv the command line refuses; the message names the token."""


def _command_options(command: str) -> tuple[_Option, ...]:
    return _OPTIONS + (_VECTOR, _HELP) if command == "correspond" else _OPTIONS + (_HELP,)


def _help_text(command: str | None = None) -> str:
    if command is None:
        usage, options = "COMMAND FILE [options]", _OPTIONS + (_VECTOR, _HELP)
        lines = [_DESCRIPTION, "", "commands:"]
        lines += [f"  {name:<12} {summary}" for name, summary in _SUMMARIES.items()]
    else:
        usage, options = f"{command} FILE [options]", _command_options(command)
        lines = [_SUMMARIES[command]]
    lines += ["", "options:"]
    for opt in options:
        scope = "correspond only: " if opt is _VECTOR and command is None else ""
        default = "" if opt.read in (None, str) else f" (default {opt.default})"
        lines.append(f"  {', '.join(opt.names)}{_METAVARS[opt.read]}")
        lines.append(f"      {scope}{opt.help}{default}")
    lines += ["", "Long options may be shortened to a unique prefix and take their value as",
              "--opt VALUE or --opt=VALUE; -o takes -o OUT or -oOUT; every argument after",
              "-- is FILE.  Exit codes: 0 all checks passed, 1 a mathematical check failed,",
              "2 malformed input or usage, with one JSON error."]
    return f"usage: fellbundles {usage}\n\n" + "\n".join(lines)


def _negative_number(token: str) -> bool:
    """Whether `token` reads as -N or -N.N, which the reader takes as a value."""
    whole, dot, frac = token[1:].partition(".")
    if not dot:
        return whole.isdecimal()
    return (whole == "" or whole.isdecimal()) and frac.isdecimal()


def _classify(token: str, names: dict):
    """None for a value, else (option, the value attached to the token or
    None): a long option may be a unique prefix of its name and carry
    =VALUE, a short one its value glued on (-oOUT).  Raises UsageError for
    an option that matches no name or more than one."""
    if not token.startswith("-") or token == "-":
        return None
    if token in names:
        return names[token], None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return names[name], value
    if token.startswith("--"):
        found = [(s, value if eq else None) for s in names if s.startswith(name)]
    else:
        found = [(s, token[2:] if s == token[:2] else None) for s in names
                 if s == token[:2] or s.startswith(token)]
    if len(found) == 1:
        return names[found[0][0]], found[0][1]
    if found:
        raise UsageError(f"ambiguous option {token}: could be "
                         + ", ".join(s for s, _ in found))
    if _negative_number(token) or " " in token:
        return None
    raise UsageError(f"unknown option {token}")


def read_argv(argv: list[str]):
    """The namespace of `argv`: `command`, `file` and every option of the
    command, each absent one at its default, or None when `argv` asks for
    help.  Raises UsageError, naming the token, for an argv it refuses."""
    if not argv:
        raise UsageError(f"a command is required: one of {', '.join(_SUMMARIES)}")
    command, rest = argv[0], argv[1:]
    if command not in _SUMMARIES:
        if command != "--" and _classify(command, {s: _HELP for s in _HELP.names}) == (_HELP, None):
            print(_help_text())
            return None
        raise UsageError(f"unknown command {command!r}: expected one of {', '.join(_SUMMARIES)}")
    options = _command_options(command)
    names = {s: opt for opt in options for s in opt.names}
    values = {opt.dest: opt.default for opt in options if opt is not _HELP}
    files, plain, after_file, i = [], False, False, 0
    while i < len(rest):
        token = rest[i]
        i += 1
        if plain:
            files.append(token)
            continue
        if token == "--":
            # it marks FILE: it comes right before it or right after it
            if files and not after_file:
                raise UsageError(f"-- must come right before or right after FILE {files[0]!r}")
            plain = True
            continue
        kind = _classify(token, names)
        after_file = kind is None
        if kind is None:
            files.append(token)
        elif kind[0].read is None:
            if kind[1] is not None:
                raise UsageError(f"{token}: {kind[0].names[-1]} takes no value")
            if kind[0] is _HELP:
                print(_help_text(command))
                return None
            values[kind[0].dest] = True
        else:
            opt, value = kind
            if value is None:
                if i == len(rest) or rest[i] == "--" or _classify(rest[i], names) is not None:
                    raise UsageError(f"{token} needs a value")
                value, i = rest[i], i + 1
            try:
                values[opt.dest] = opt.read(value)
            except ValueError:
                raise UsageError(f"{token} {value!r}: not a valid {opt.read.__name__}") from None
    if len(files) != 1:
        raise UsageError(f"{command} needs one FILE, got {len(files)}"
                         + (f": {', '.join(files)}" if files else ""))
    return SimpleNamespace(command=command, file=files[0], **values)


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout closed early: quiet the flush at exit, exit as for any OSError
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BAD_INPUT


def _main(argv) -> int:
    try:
        args = read_argv(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(json.dumps({"ok": False, "error": str(exc)}), file=sys.stderr)
        return BAD_INPUT
    if args is None:
        return OK
    try:
        args.tolerance = Tolerance(rel_psd=args.tol_psd, rel_rank=args.tol_rank)
    except ValueError as exc:
        print(json.dumps({"ok": False, "error": str(exc)}), file=sys.stderr)
        return BAD_INPUT
    if args.samples < 1:
        print(json.dumps({"ok": False, "error": "--samples must be a positive integer"}),
              file=sys.stderr)
        return BAD_INPUT
    if args.seed < 0:
        print(json.dumps({"ok": False, "error": "--seed must be a non-negative integer"}),
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
