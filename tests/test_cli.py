import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fellbundles
from fellbundles import serialize as sz
from fellbundles.bundles import group_bundle
from fellbundles.cli import UsageError, main, read_argv
from fellbundles.correspondences import trivial_self_equivalence
from fellbundles.groups import identity_hom, make_cyclic, symmetric_group
from fellbundles.hilbundles import trivial_hilbert_bundle
from fellbundles.numerics import Tolerance
from fellbundles.pdmaps import identity_bundle_map, scalar_bundle_map


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


@pytest.fixture
def z2_bundle_file(tmp_path):
    return write(tmp_path, "gb.json", sz.bundle_to_json(group_bundle(make_cyclic(2))))


def scalar_map_file(tmp_path, t):
    b = group_bundle(make_cyclic(2))
    m = scalar_bundle_map(b, b, identity_hom(b.group), [1.0, t])
    return write(tmp_path, f"map{t}.json", sz.bundle_map_to_json(m))


def test_pd_check_pass_and_margin(tmp_path, capsys):
    code, out = run(capsys, "pd-check", scalar_map_file(tmp_path, 0.5))
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["exact"]["margin"] == pytest.approx(0.5, abs=1e-9)
    assert payload["sampled"]["ok"] is True


def test_pd_check_failure_reports_witness(tmp_path, capsys):
    code, out = run(capsys, "pd-check", scalar_map_file(tmp_path, 2.0))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["exact"]["margin"] == pytest.approx(-1.0, abs=1e-9)
    assert payload["exact"]["witness"]
    # the report holds fiber coordinates; expanded, the sum is negative
    b = group_bundle(make_cyclic(2))
    s = b.element(b.group.identity, sz.vector_from_json(payload["exact"]["witness_sum"]))
    assert np.linalg.eigvalsh((s + s.conj().T) / 2)[0] <= -1.0 + 1e-9


def test_pd_check_reports_the_decomposition_self_check(tmp_path, capsys):
    b = group_bundle(symmetric_group(3))
    path = write(tmp_path, "s3.json", sz.bundle_map_to_json(identity_bundle_map(b)))
    code, out = run(capsys, "pd-check", path)
    sampled = json.loads(out)["sampled"]
    assert code == 0 and sampled["ok"] is True
    assert sampled["decomposition_bound"] == b.tolerance.rel_rank
    assert sampled["decomposition_residual"] == b.blocks.residual
    assert 0.0 < sampled["decomposition_residual"] <= sampled["decomposition_bound"]


def test_pd_check_decomposes_at_the_callers_tolerance(tmp_path, capsys):
    """At --tol-rank 1e-20 the decomposition's self-check (about 1e-15 on
    S3) fails, so both checks run on the ambient route, as the oracle
    does."""
    from fellbundles.numerics import Tolerance, one_block
    from fellbundles.pdmaps import pd_check_exact, pd_check_sampled

    t = identity_bundle_map(group_bundle(symmetric_group(3)))
    path = write(tmp_path, "s3map.json", sz.bundle_map_to_json(t))
    code, out = run(capsys, "pd-check", path, "--tol-rank", "1e-20")
    report = json.loads(out)
    assert report["tolerances"]["rel_rank"] == report["sampled"]["decomposition_bound"] == 1e-20
    assert report["sampled"]["decomposition_residual"] == 0.0  # one_block's
    tol, ambient = Tolerance(rel_rank=1e-20), one_block(t.target.ambient_dim)
    cert = pd_check_exact(t, tol, blocks=ambient)
    sampled = pd_check_sampled(t, tol=tol, blocks=ambient)
    assert code == (0 if cert.ok else 1)
    assert report["exact"]["verdict"] is cert.ok and report["exact"]["margin"] == cert.margin
    assert report["sampled"]["ok"] is sampled.ok
    assert report["sampled"]["worst_margin"] == sampled.worst_margin


@pytest.mark.parametrize("message", ["Unable to allocate 3.09 GiB", ""])
def test_memory_error_exits_2_with_json(tmp_path, capsys, monkeypatch, message):
    """Running out of memory is not a mathematical failure: exit 2, one JSON
    error naming the command on stdout, and no traceback."""
    def exhausted(args):
        raise MemoryError(message)

    monkeypatch.setitem(fellbundles.cli.COMMANDS, "pd-check", exhausted)
    code = main(["pd-check", scalar_map_file(tmp_path, 0.5)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    report = json.loads(captured.out)
    assert report["ok"] is False
    assert report["error"].startswith("MemoryError: pd-check ran out of memory")
    assert message in report["error"]


def test_pd_check_rejects_non_positive_samples(tmp_path, capsys):
    path = scalar_map_file(tmp_path, 0.5)
    for samples in ("0", "-1"):
        code = main(["pd-check", path, "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--samples" in json.loads(captured.err)["error"]


def test_validate_malformed_input(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("this is not json")
    code, out = run(capsys, "validate", str(p))
    assert code == 2


def test_deeply_nested_input_exits_2_with_one_json_error(tmp_path):
    depth = 100_000
    p = tmp_path / "deep.json"
    p.write_text('{"type": "bundle", "x": ' + "[" * depth + "]" * depth + "}")
    r = subprocess.run([sys.executable, "-m", "fellbundles.cli", "validate", str(p)],
                       capture_output=True, text=True, env=_child_env())
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    error = json.loads(r.stdout)
    assert error["ok"] is False and "nested too deeply" in error["error"]


def test_validate_wrong_schema(tmp_path, capsys):
    path = write(tmp_path, "odd.json", {"type": "bundle", "group": {}})
    code, out = run(capsys, "validate", path)
    assert code == 2


def test_validate_bundle(z2_bundle_file, capsys):
    code, out = run(capsys, "validate", z2_bundle_file)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_bad_group_table(tmp_path, capsys):
    path = write(tmp_path, "notgroup.json",
                 {"type": "group", "order": 2, "table": [[0, 0], [1, 1]]})
    code, out = run(capsys, "validate", path)
    assert code == 1


def test_report_determinism(tmp_path, capsys):
    path = scalar_map_file(tmp_path, 0.5)
    _, out1 = run(capsys, "pd-check", path, "--seed", "7")
    _, out2 = run(capsys, "pd-check", path, "--seed", "7")
    assert out1 == out2


def test_build_then_validate_roundtrip(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", {
        "kind": "group_bundle",
        "group": {"type": "group", "order": 3, "table": make_cyclic(3).table.tolist()},
    })
    out_path = str(tmp_path / "built.json")
    code, _ = run(capsys, "build", spec, "-o", out_path)
    assert code == 0
    code, out = run(capsys, "validate", out_path)
    assert code == 0
    # byte-identical rebuild from its own serialization
    rebuilt = sz.bundle_to_json(sz.bundle_from_json(json.loads((tmp_path / "built.json").read_text())))
    assert json.dumps(rebuilt, sort_keys=True) == json.dumps(
        json.loads((tmp_path / "built.json").read_text()), sort_keys=True)


def test_gns_pipeline_roundtrip(tmp_path, capsys):
    b = group_bundle(make_cyclic(2))
    path = write(tmp_path, "id.json", sz.bundle_map_to_json(identity_bundle_map(b)))
    prefix = str(tmp_path / "out")
    code, out = run(capsys, "gns", path, "-o", prefix)
    assert code == 0
    payload = json.loads(out)
    assert payload["roundtrip_residual"] <= 1e-12
    # scaled map: c * identity for c > 0 also round-trips
    t = identity_bundle_map(b)
    t.mats = [3.0 * m for m in t.mats]
    path2 = write(tmp_path, "scaled.json", sz.bundle_map_to_json(t))
    code, out = run(capsys, "gns", path2, "-o", prefix + "2")
    assert code == 0
    assert json.loads(out)["roundtrip_residual"] <= 1e-12


def test_gns_refuses_non_pd(tmp_path, capsys):
    code, out = run(capsys, "gns", scalar_map_file(tmp_path, 2.0))
    assert code == 1
    assert "positive definite" in json.loads(out)["error"]


def test_correspond_command(tmp_path, capsys):
    spec = write(tmp_path, "aspec.json", {
        "kind": "l2_action",
        "bundle": sz.bundle_to_json(group_bundle(make_cyclic(2))),
    })
    apath = str(tmp_path / "action.json")
    code, _ = run(capsys, "build", spec, "-o", apath)
    assert code == 0
    code, out = run(capsys, "correspond", apath)
    assert code == 0
    payload = json.loads(out)
    assert payload["nondegenerate"] is True
    assert payload["amplified_star_representation"] is True
    assert payload["amplified_dimension"] == 2 * payload["module_dimension"]
    assert payload["module_report"]["ok"] is True
    assert payload["module_report"]["subject"] == "hilbert-bundle axioms"


def test_correspond_exits_1_when_the_module_fails_its_axioms(tmp_path, capsys):
    """The Z2 left multiplication with its cross-fiber inner products doubled
    passes the action battery, not the Hilbert-bundle one: a mathematical
    failure, not malformed input."""
    from fellbundles.actions import Action, trivial_action
    from fellbundles.hilbundles import HilbertBundle

    b = group_bundle(make_cyclic(2))
    rho = trivial_action(b)
    x = rho.target
    inner = [[(1.0 if r == s else 2.0) * np.asarray(x.inner[r][s]) for s in range(2)]
             for r in range(2)]
    bent = Action(b, rho.hom, HilbertBundle(b, x.dims, x.act, inner), rho.ops)
    path = write(tmp_path, "bent.json", sz.action_to_json(bent))
    code, out = _run_clean(capsys, "validate", path)
    assert code == 0  # validate_action does not judge its target
    code, out = _run_clean(capsys, "correspond", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and payload["action_report"]["ok"] is True
    failed = [c["name"] for c in payload["module_report"]["checks"] if not c["ok"]]
    assert failed == ["<x, yb> = <x,y>b", "<xb, y> = b*<x,y>", "Cauchy-Schwarz"]
    assert "module_dimension" not in payload


def test_morita_command(tmp_path, capsys):
    spec = write(tmp_path, "espec.json", {
        "kind": "self_equivalence",
        "bundle": sz.bundle_to_json(group_bundle(make_cyclic(2))),
    })
    epath = str(tmp_path / "equiv.json")
    run(capsys, "build", spec, "-o", epath)
    code, out = run(capsys, "morita", epath)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_morita_refuses_bundles_over_different_groups(tmp_path, capsys):
    """An equivalence file whose left bundle has a larger group than its
    right Hilbert bundle, with lact and linner keyed by pairs of the larger
    group, is malformed input (exit 2), not an IndexError traceback."""
    payload = sz.equivalence_to_json(trivial_self_equivalence(group_bundle(make_cyclic(2))))
    payload["left_bundle"] = sz.bundle_to_json(group_bundle(make_cyclic(3)))
    for key in ("lact", "linner"):
        payload[key] = {f"{g},{r}": payload[key]["0,0"] for g in range(3) for r in range(3)}
    code, out = run(capsys, "morita", write(tmp_path, "mixed.json", payload))
    assert code == 2
    assert "same group" in json.loads(out)["error"]


def test_report_command_on_bundle(z2_bundle_file, capsys):
    code, out = run(capsys, "report", z2_bundle_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["saturated"] is True
    assert payload["unital"] is True
    assert "amenable" in payload["amenability"]


def test_full_flag_embeds_gram(tmp_path, capsys):
    path = scalar_map_file(tmp_path, 0.5)
    _, out_lean = run(capsys, "pd-check", path)
    _, out_full = run(capsys, "pd-check", path, "--full")
    assert "gram" not in json.loads(out_lean)["exact"]
    assert "gram" in json.loads(out_full)["exact"]


def _child_env():
    """The environment of a child process that imports the package under
    test, installed or not."""
    src = str(Path(fellbundles.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_byte_identical_reports_across_processes(tmp_path):
    path = scalar_map_file(tmp_path, 0.5)
    cmd = [sys.executable, "-m", "fellbundles.cli", "pd-check", path, "--seed", "3"]
    r1 = subprocess.run(cmd, capture_output=True, env=_child_env())
    r2 = subprocess.run(cmd, capture_output=True, env=_child_env())
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


def test_verdicts_do_not_read_the_seed(tmp_path, capsys):
    """--seed draws only pd-check's tuples: validate, report, morita and
    correspond print the same report under every seed, the header's "seed"
    apart."""
    from fellbundles.actions import Action, l2_action

    z3 = group_bundle(make_cyclic(3))
    rho = l2_action(z3)
    ops = [[np.array(op) for op in row] for row in rho.ops]
    ops[1][2] = ops[1][2] + 1e-3 * np.random.default_rng(0).standard_normal(ops[1][2].shape)
    perturbed = Action(z3, rho.hom, rho.target, ops)
    s3 = trivial_self_equivalence(group_bundle(symmetric_group(3)))
    objects = {  # object, commands, whether it passes
        "z3": (sz.bundle_to_json(z3), ("validate", "report"), True),
        "l2": (sz.action_to_json(rho), ("validate", "report", "correspond"), True),
        "perturbed": (sz.action_to_json(perturbed), ("validate", "report", "correspond"), False),
        "s3 equivalence": (sz.equivalence_to_json(s3), ("validate", "report", "morita"), True),
    }
    for name, (tree, commands, passes) in objects.items():
        path = write(tmp_path, f"{name}.json", tree)
        for command in commands:
            runs = []
            for seed in ("0", "5"):
                code, out = run(capsys, command, path, "--seed", seed)
                payload = json.loads(out)
                assert payload.pop("seed") == int(seed)
                runs.append((code, payload))
            assert runs[0] == runs[1], (name, command)
            assert runs[0][1].get("report", runs[0][1])["ok"] is passes, (name, command)


def _strict_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("entries, codes", [
    ({"1": 1e308}, {"pd-check": 1, "report": 0}),
    ({"1": -1.7e308, "2": -1.7e308}, {"pd-check": 2, "report": 2}),
], ids=["huge entry", "margin beyond float range"])
def test_huge_finite_entries_are_reported_as_json(tmp_path, entries, codes):
    """A Z3 scalar map with block entries near the float maximum: the
    positivity form is divided by a power of two before its eigensolves and
    norms.  With one entry of 1e308, pd-check refutes the map (exit 1) and
    report reports it (exit 0, as on any map); a margin beyond the float
    range is refused (exit 2).  Every report is strict JSON, with no LAPACK
    message, warning or traceback."""
    b = group_bundle(make_cyclic(3))
    payload = sz.bundle_map_to_json(
        scalar_bundle_map(b, b, identity_hom(b.group), [1.0, 0.5, 0.5]))
    for g, value in entries.items():
        payload["blocks"][g] = [[[value, 0.0]]]
    path = write(tmp_path, "huge.json", payload)
    for command, code in codes.items():
        r = subprocess.run([sys.executable, "-m", "fellbundles.cli", command, path],
                           capture_output=True, env=_child_env())
        assert r.returncode == code, command
        report = json.loads(r.stdout, parse_constant=_strict_constant)
        if code == 2:
            assert "floating-point range" in report["error"], command
        else:
            cert = report["exact" if command == "pd-check" else "positive_definite"]
            assert cert["verdict"] is False and cert["margin"] < -1e307, command
        for stream in (r.stdout, r.stderr):
            for marker in (b"DLASCL", b"Traceback", b"Warning"):
                assert marker not in stream, (command, marker)


def test_correspond_with_cyclicity_vector(tmp_path, capsys):
    from fellbundles.actions import regularize_action, trivial_action
    from fellbundles.bundles import group_bundle

    b = group_bundle(make_cyclic(2))
    rho = regularize_action(trivial_action(b))
    apath = write(tmp_path, "act.json", sz.action_to_json(rho))
    e = b.group.identity
    x = np.zeros(rho.target.dims[e], dtype=complex)
    x[e * b.dims[e]:(e + 1) * b.dims[e]] = b.unit_coords
    vpath = write(tmp_path, "vec.json", sz.vector_payload_to_json(x, e))
    code, out = run(capsys, "correspond", apath, "--vector", vpath)
    assert code == 0
    assert json.loads(out)["cyclic"] is True


def test_report_on_action_and_map(tmp_path, capsys):
    from fellbundles.actions import l2_action
    from fellbundles.bundles import group_bundle

    b = group_bundle(make_cyclic(2))
    apath = write(tmp_path, "act.json", sz.action_to_json(l2_action(b)))
    code, out = run(capsys, "report", apath)
    assert code == 0 and json.loads(out)["report"]["ok"] is True

    mpath = scalar_map_file(tmp_path, 2.0)
    code, out = run(capsys, "report", mpath)
    # reporting on a non-pd map is still a successful report
    assert code == 0
    assert json.loads(out)["positive_definite"]["verdict"] is False


# -- integer fields and the cyclicity vector's fiber ---------------------------------

def _z2_objects():
    from fellbundles.actions import l2_action, regularize_action, trivial_action
    from fellbundles.hilbundles import l2_bundle

    b = group_bundle(make_cyclic(2))
    return {
        "bundle": sz.bundle_to_json(b),
        "group": sz.group_to_json(b.group),
        "hilbert_bundle": sz.hilbert_to_json(l2_bundle(b)),
        "bundle_map": sz.bundle_map_to_json(identity_bundle_map(b)),
        "action": sz.action_to_json(regularize_action(trivial_action(b))),
        "l2_action": sz.action_to_json(l2_action(b)),
    }


def _run_clean(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    return code, captured.out


def _unit_vector(b, fiber):
    """The regular action's unit-fiber vector, declared in `fiber` as given."""
    x = np.zeros(2 * b.dims[b.group.identity], dtype=complex)
    x[:b.dims[0]] = b.unit_coords
    return {**sz.vector_payload_to_json(x, 0), "fiber": fiber}


@pytest.mark.parametrize("field", ["ambient_dim", "table", "dims", "order", "phi", "fiber"])
def test_non_integral_integer_fields_exit_2(tmp_path, capsys, field):
    objs = _z2_objects()
    b = group_bundle(make_cyclic(2))
    command, vector = "validate", None
    if field == "ambient_dim":
        payload = objs["bundle"]
        payload["ambient_dim"] = 2.9
    elif field == "table":
        payload = objs["bundle"]
        payload["group"]["table"] = [[0, 1.9], [1.2, 0]]
    elif field == "dims":
        payload = objs["hilbert_bundle"]
        payload["dims"] = [2.5, 2]
    elif field == "order":
        payload = objs["group"]
        payload["order"] = 2.5
    elif field == "phi":
        payload, command = objs["bundle_map"], "pd-check"
        payload["phi"] = [0, 1.5]
    else:
        payload, command = objs["action"], "correspond"
        vector = _unit_vector(b, 0.5)
    argv = [command, write(tmp_path, "obj.json", payload)]
    if vector is not None:
        argv += ["--vector", write(tmp_path, "vec.json", vector)]
    code, out = _run_clean(capsys, *argv)
    assert code == 2
    assert json.loads(out)["ok"] is False


def test_integral_floats_in_integer_fields_are_read_as_integers(tmp_path, capsys):
    objs = _z2_objects()
    bundle = objs["bundle"]
    bundle["ambient_dim"] = 2.0
    bundle["group"]["table"] = [[0.0, 1.0], [1.0, 0.0]]
    bundle["group"]["order"] = 2.0
    assert _run_clean(capsys, "validate", write(tmp_path, "b.json", bundle))[0] == 0
    hb = objs["hilbert_bundle"]
    hb["dims"] = [2.0, 2.0]
    assert _run_clean(capsys, "validate", write(tmp_path, "h.json", hb))[0] == 0
    t = objs["bundle_map"]
    t["phi"] = [0.0, 1.0]
    assert _run_clean(capsys, "pd-check", write(tmp_path, "t.json", t))[0] == 0


@pytest.mark.parametrize("fiber", [5, -1, 1])
def test_correspond_refuses_a_vector_outside_the_unit_fiber(tmp_path, capsys, fiber):
    b = group_bundle(make_cyclic(2))
    apath = write(tmp_path, "act.json", _z2_objects()["action"])
    vpath = write(tmp_path, "vec.json", _unit_vector(b, fiber))
    code, out = _run_clean(capsys, "correspond", apath, "--vector", vpath)
    assert code == 2
    assert "fiber" in json.loads(out)["error"]
    vpath = write(tmp_path, "vec0.json", _unit_vector(b, 0.0))
    code, out = _run_clean(capsys, "correspond", apath, "--vector", vpath)
    assert code == 0 and json.loads(out)["cyclic"] is True


def test_unital_is_judged_at_the_report_tolerance(tmp_path, capsys):
    """The unit residual of span{diag(1, 1 + 1e-6)} is about 5e-7: not unital
    at the default rel_rank 1e-9, unital at 1e-3, in validate and report.
    (Its grading residual, 3.5e-7, also fails only at the default.)"""
    from fellbundles.bundles import FellBundle

    b = FellBundle(make_cyclic(1), 2, [np.diag([1.0, 1.0 + 1e-6])[None]])
    path = write(tmp_path, "near_unit.json", sz.bundle_to_json(b))
    for flags, unital in (((), False), (("--tol-rank", "1e-3"), True)):
        code, out = run(capsys, "validate", path, *flags)
        assert code == (0 if unital else 1)
        report = json.loads(out)["report"]
        names = [c["name"] for c in report["checks"]]
        assert ("ambient unit lies in A_e" in names) is unital, flags
        assert any("not unital" in n for n in report.get("notes", [])) is not unital, flags
        code, out = run(capsys, "report", path, *flags)
        assert code == (0 if unital else 1)
        assert json.loads(out)["unital"] is unital, flags


def test_gns_at_a_loose_rank_tolerance_rereads_its_own_files(tmp_path, capsys):
    """At --tol-rank 1e-3 the near-unit bundle above is unital, so gns runs;
    the files it writes declare unitality as the reader checks it, so gns's
    own re-read and a later command accept them."""
    from fellbundles.bundles import FellBundle

    b = FellBundle(make_cyclic(1), 2, [np.diag([1.0, 1.0 + 1e-6])[None]])
    path = write(tmp_path, "near_unit_map.json", sz.bundle_map_to_json(identity_bundle_map(b)))
    prefix = str(tmp_path / "near")
    code, out = run(capsys, "gns", path, "-o", prefix, "--tol-rank", "1e-3")
    assert code in (0, 1), out
    assert "error" not in json.loads(out)
    hilbert = json.loads(Path(f"{prefix}.bundle.json").read_text())
    action = json.loads(Path(f"{prefix}.action.json").read_text())
    for bundle in (hilbert["bundle"], action["source"], action["target"]["bundle"]):
        assert bundle["unital"] is False
    code, out = run(capsys, "correspond", f"{prefix}.action.json", "--tol-rank", "1e-3")
    assert code in (0, 1), out


def test_build_builds_at_the_rank_tolerance(tmp_path, capsys):
    """The fiber span{1, diag(1, 1 + 1e-6)} has singular values about 2 and
    3.5e-7: build keeps both at --tol-rank 1e-9, one at 1e-5, and writes at
    the default flags what the default tolerance builds."""
    bundle = sz.bundle_to_json(group_bundle(make_cyclic(1)))
    del bundle["unital"]
    bundle["ambient_dim"] = 2
    bundle["fibers"] = {"0": sz.tensor3_to_json(
        np.array([np.eye(2), np.diag([1.0, 1.0 + 1e-6])]))}
    for kind, read, build in (
            ("trivial_hilbert_bundle", lambda tree: tree["dims"],
             lambda b: sz.hilbert_to_json(trivial_hilbert_bundle(b))),
            ("identity_bundle_map", lambda tree: [len(tree["blocks"]["0"])],
             lambda b: sz.bundle_map_to_json(identity_bundle_map(b)))):
        spec = write(tmp_path, f"{kind}.json", {"kind": kind, "bundle": bundle})
        built = {}
        for flags in ((), ("--tol-rank", "1e-9"), ("--tol-rank", "1e-5")):
            out_path = tmp_path / f"{kind}{len(built)}.json"
            code, _ = run(capsys, "build", spec, "-o", str(out_path), *flags)
            assert code == 0
            built[flags] = json.loads(out_path.read_text())
        assert read(built[()]) == read(built[("--tol-rank", "1e-9")]) == [2], kind
        assert read(built[("--tol-rank", "1e-5")]) == [1], kind
        want = build(sz.bundle_from_json(bundle))
        assert built[()] == json.loads(json.dumps(want)), kind


@pytest.mark.parametrize("group", [make_cyclic(3), symmetric_group(3)], ids=["Z3", "S3"])
def test_build_scalar_map_into_its_source_parses_one_bundle(tmp_path, capsys, monkeypatch,
                                                           group):
    bundle = sz.bundle_to_json(group_bundle(group))
    values = [[1.0, 0.0]] + [[0.5 / group.order, 0.0]] * (group.order - 1)
    spec = write(tmp_path, "spec.json", {
        "kind": "scalar_bundle_map", "source": bundle, "target": bundle,
        "phi": list(range(group.order)), "values": values})
    # the file the two-parse route writes
    source, target = sz.bundle_from_json(bundle), sz.bundle_from_json(bundle)
    want = json.dumps(sz.bundle_map_to_json(scalar_bundle_map(
        source, target, identity_hom(source.group), sz.vector_from_json(values))),
        sort_keys=True) + "\n"
    parses = []
    real = sz.bundle_from_json
    monkeypatch.setattr(sz, "bundle_from_json",
                        lambda data, tol=None, groups=None:
                        parses.append(1) or real(data, tol, groups))
    out_path = tmp_path / "map.json"
    code, _ = run(capsys, "build", spec, "-o", str(out_path))
    assert code == 0
    assert len(parses) == 1
    assert out_path.read_text() == want


@pytest.mark.parametrize("name", ["M2xZ2", "empty fibers"])
def test_build_scalar_map_refuses_fibers_that_are_not_one_dimensional(
        tmp_path, capsys, corpus_bundles, name):
    from fellbundles.bundles import FellBundle

    b, dim = {"M2xZ2": (corpus_bundles["m2_ad"], 4),
              "empty fibers": (FellBundle(make_cyclic(2), 2, [np.zeros((0, 2, 2))] * 2), 0)}[name]
    bundle = sz.bundle_to_json(b)
    spec = write(tmp_path, "spec.json", {
        "kind": "scalar_bundle_map", "source": bundle, "target": bundle,
        "phi": [0, 1], "values": [[1.0, 0.0], [0.5, 0.0]]})
    code, out = run(capsys, "build", spec)
    assert code == 2
    error = json.loads(out)["error"]
    assert error.startswith("BundleMapMismatchError")
    assert "one-dimensional fibers" in error
    assert f"source fiber over 0 has dimension {dim}" in error


def test_build_scalar_map_refuses_a_fractional_phi(tmp_path, capsys):
    bundle = sz.bundle_to_json(group_bundle(make_cyclic(2)))
    spec = {"kind": "scalar_bundle_map", "source": bundle, "target": bundle,
            "values": [[1.0, 0.0], [0.5, 0.0]]}
    code, _ = run(capsys, "build", write(tmp_path, "whole.json", {**spec, "phi": [0, 1.0]}))
    assert code == 0
    code, out = run(capsys, "build", write(tmp_path, "spec.json", {**spec, "phi": [0, 1.7]}))
    assert code == 2
    assert "phi" in json.loads(out)["error"]


def reference_parser():
    """The parser as built before the shared options moved into one parent
    parser: every subcommand adds them itself."""
    import argparse

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


def _reference_vars(argv):
    """vars of the reference parser's namespace, or its exit code when it
    refuses `argv` (or prints help)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(reference_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code


def _reader_vars(argv):
    """vars of the reader's namespace, or 2 when it refuses `argv`."""
    try:
        return vars(read_argv(argv))
    except UsageError:
        return 2


def _same_vars(got, want):
    """Equal namespaces, a nan tolerance equal to a nan."""
    if not (isinstance(got, dict) and isinstance(want, dict)):
        return got == want
    return got.keys() == want.keys() and all(
        got[k] == want[k] or got[k] != got[k] and want[k] != want[k] for k in got)


def test_reader_matches_the_reference_parser():
    for argv in (["validate", "f.json"], ["pd-check", "f.json", "--full", "--seed", "3"],
                 ["correspond", "a.json", "--vector", "v.json", "-o", "out"],
                 ["gns", "m.json", "--tol-psd", "1e-6", "--tol-rank", "1e-7", "--samples", "9"],
                 ["build", "--out=x", "-oOUT", "--se", "-4", "--", "-5"],
                 ["report", "f.json", "--", "--full"]):
        assert _reader_vars(argv) == _reference_vars(argv), argv


def test_default_tolerances_are_the_fields_of_tolerance():
    args = read_argv(["validate", "f.json"])
    assert Tolerance(rel_psd=args.tol_psd, rel_rank=args.tol_rank) == Tolerance()


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], ["correspond", "-h"]])
def test_help_lists_every_command_and_flag(capsys, argv):
    assert main(argv) == 0
    text = capsys.readouterr().out
    commands = ["correspond"] if argv[0] == "correspond" else list(fellbundles.cli.COMMANDS)
    for word in commands + ["FILE", "--tol-psd", "--tol-rank", "--seed", "--samples",
                            "--full", "-o", "--output", "--vector", "--help"]:
        assert word in text, word


def test_a_commands_help_leaves_out_the_options_it_does_not_take(capsys):
    assert main(["validate", "FILE", "--help"]) == 0
    text = capsys.readouterr().out
    assert "--seed" in text and "--vector" not in text


@pytest.mark.parametrize("argv, token", [
    ([], "command"),
    (["bogus", "f.json"], "bogus"),
    (["validate"], "FILE"),
    (["validate", "f.json", "g.json"], "g.json"),
    (["validate", "f.json", "--tol", "1e-3"], "--tol"),
    (["validate", "f.json", "--s", "1"], "--s"),
    (["validate", "f.json", "--seed", "x"], "--seed"),
    (["validate", "f.json", "--samples"], "--samples"),
    (["validate", "f.json", "--full=1"], "--full=1"),
    (["validate", "f.json", "--vector", "v.json"], "--vector"),
    (["validate", "f.json", "-o", "--full"], "-o"),
    (["validate", "f.json", "--full", "--"], "--"),
], ids=["no arguments", "unknown command", "no FILE", "second FILE", "ambiguous --tol",
        "ambiguous --s", "--seed x", "no value at the end", "--full=1", "--vector on validate",
        "an option for a value", "a stray --"])
def test_refused_argvs_exit_2_with_one_json_error(capsys, argv, token):
    assert _reference_vars(argv) == 2
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "Traceback" not in captured.err
    error = json.loads(captured.err)
    assert error["ok"] is False and token in error["error"]


@pytest.mark.parametrize("kind", ["bundle", "action", "bundle_map", "equivalence"])
def test_a_negative_seed_exits_2_before_reading_the_file(tmp_path, capsys, monkeypatch, kind):
    """Whatever the command and the object, --seed -1 is a usage error:
    exit 2, one JSON error naming --seed on stderr, and FILE is not read."""
    objs = _z2_objects()
    objs["equivalence"] = sz.equivalence_to_json(
        trivial_self_equivalence(group_bundle(make_cyclic(2))))
    path = write(tmp_path, f"{kind}.json", objs[kind])
    monkeypatch.setattr(fellbundles.cli, "_load", lambda p: pytest.fail(f"read {p}"))
    commands = {"bundle": ["validate", "report"], "action": ["validate", "correspond"],
                "bundle_map": ["pd-check", "gns"], "equivalence": ["morita"]}[kind]
    for command in commands:
        code = main([command, path, "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", command
        assert "--seed" in json.loads(captured.err)["error"], command


_OPTION_VALUES = {
    "--tol-psd": ["1e-7", "3", "-.5", "nan"], "--tol-rank": ["1e-12", "-1", "inf"],
    "--seed": ["3", "0", "-1", " 7"], "--samples": ["9", "0"],
    "--output": ["out", "-", "-5", "a b"], "--vector": ["v.json"], "--full": []}
# values no option reads: not a number, empty, or read as an option
_BAD_VALUES = ["x", "", "-x", "--", "--full", "1.5"]


@st.composite
def _argvs(draw):
    """An argv of one command: options, each under its long name or a prefix
    of it, with its value apart, after = or glued to -o, and FILE (or none,
    or two) before, between or after them, maybe marked by --.  About one
    part in eight is refused: a bad value, --full=1, --vector off
    correspond, an ambiguous prefix or a stray --."""
    command = draw(st.sampled_from(["validate", "build", "pd-check", "correspond"]))
    rare = st.integers(0, 7).map(lambda k: k == 0)
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        names = [n for n in sorted(_OPTION_VALUES) if n != "--vector" or command == "correspond"]
        name = draw(st.sampled_from(sorted(_OPTION_VALUES) if draw(rare) else names))
        prefix = name[:draw(st.integers(4 if draw(rare) else 7, max(7, len(name))))]
        if name == "--full":
            parts.append([f"{prefix}=1" if draw(rare) else prefix])
            continue
        value = draw(st.sampled_from(_BAD_VALUES if draw(rare) else _OPTION_VALUES[name]))
        form = draw(st.sampled_from(["apart", "equals", "glued"]))
        # an attached "--" is test_an_attached_dashes_value_is_its_text's
        if form == "glued" and name == "--output" and value not in ("", "--"):
            parts.append([f"-o{value}"])
        elif form == "equals" and value != "--":
            parts.append([f"{prefix}={value}"])
        else:
            parts.append([prefix, value])
    files = draw(st.sampled_from([["f.json"]] * 4 + [["--", "f.json"], ["f.json", "--"]]))
    if draw(rare):
        files = draw(st.sampled_from([[], ["f.json", "g.json"], ["--"]]))
    parts.insert(draw(st.integers(0, len(parts))), files)
    return [command] + [token for part in parts for token in part]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_argvs())
def test_reader_agrees_with_the_reference_parser(argv):
    """Where the reference parser accepts an argv the reader gives the same
    namespace, and where it refuses one the reader refuses it too."""
    want = _reference_vars(argv)
    assert want != 0  # no help token in the corpus
    assert _same_vars(_reader_vars(argv), want), argv


def test_an_attached_dashes_value_is_its_text():
    """The reference parser drops the "--" of --opt=-- or -o-- and stores [],
    so `pd-check FILE --seed=--` ran and reported "seed": []; the reader
    keeps the text, so --seed=-- is refused and --output=-- names the file
    "--"."""
    assert _reference_vars(["validate", "f.json", "--seed=--"])["seed"] == []
    assert _reference_vars(["build", "f.json", "-o--"])["output"] == []
    assert _reader_vars(["validate", "f.json", "--seed=--"]) == 2
    assert _reader_vars(["build", "f.json", "--output=--"])["output"] == "--"
    assert _reader_vars(["build", "f.json", "-o--"])["output"] == "--"


@pytest.mark.parametrize("spec", ["identity_bundle_map", "scalar_bundle_map"])
def test_build_map_never_builds_the_structure(tmp_path, capsys, monkeypatch, spec):
    """`build` of a map writes its bundles without their structure tensors;
    read later, they equal those of a bundle read at once, bit for bit."""
    from fellbundles.bundles import FellBundle

    b = group_bundle(symmetric_group(4) if spec == "identity_bundle_map" else make_cyclic(3))
    bundle = sz.bundle_to_json(b)
    payload = {"kind": spec, "bundle": bundle} if spec == "identity_bundle_map" else {
        "kind": spec, "source": bundle, "target": bundle, "phi": [0, 1, 2],
        "values": [[1.0, 0.0], [0.5, 0.0], [0.5, 0.0]]}
    out = tmp_path / "map.json"

    def refuse(self):
        raise AssertionError("the structure was built")

    with monkeypatch.context() as m:
        m.setattr(FellBundle, "_build_structure", refuse)
        assert main(["build", write(tmp_path, "spec.json", payload), "-o", str(out)]) == 0
    capsys.readouterr()
    lazy = sz.bundle_map_from_json(json.loads(out.read_text())).source
    eager = sz.bundle_from_json(bundle)
    want = (eager.prod_array.tobytes(), eager.directness_sv)
    assert "prod_array" not in vars(lazy)
    sv = lazy.directness_sv  # directness first: it builds the structure before it
    assert (lazy.prod_array.tobytes(), sv) == want
    assert ("_block_fibers" in vars(lazy)) == ("_block_fibers" in vars(eager))


def test_a_fresh_process_reads_its_own_argv(tmp_path):
    """`main()` with no argument reads sys.argv: help exits 0, no arguments
    exit 2 with one JSON error and no traceback."""
    cmd = [sys.executable, "-m", "fellbundles.cli"]
    shown = subprocess.run(cmd + ["--help"], capture_output=True, text=True, env=_child_env())
    assert shown.returncode == 0 and "pd-check" in shown.stdout
    bare = subprocess.run(cmd, capture_output=True, text=True, env=_child_env())
    assert bare.returncode == 2 and bare.stdout == "" and "Traceback" not in bare.stderr
    assert json.loads(bare.stderr)["ok"] is False


@pytest.mark.parametrize("count, code", [(1, 2), (3, 0), (4, 2)],
                         ids=["too few", "exactly enough", "too many"])
def test_build_scalar_map_needs_one_value_per_source_element(tmp_path, capsys, count, code):
    bundle = sz.bundle_to_json(group_bundle(make_cyclic(3)))
    spec = write(tmp_path, "spec.json", {
        "kind": "scalar_bundle_map", "source": bundle, "target": bundle, "phi": [0, 1, 2],
        "values": [[1.0, 0.0]] + [[0.1, 0.0]] * (count - 1)})
    got, out = run(capsys, "build", spec)
    assert got == code
    if code:
        error = json.loads(out)["error"]
        assert error == "BundleMapMismatchError: a scalar bundle map needs one value per " \
            f"source element (3), but got values of shape ({count},)"
    else:
        assert len(json.loads(out)["blocks"]) == 3


@pytest.mark.parametrize("kind", ["cyclic_group", "symmetric_group"])
def test_build_group_refuses_a_fractional_n(tmp_path, capsys, kind):
    code, out = run(capsys, "build", write(tmp_path, "whole.json", {"kind": kind, "n": 3.0}))
    assert code == 0
    assert json.loads(out)["order"] == {"cyclic_group": 3, "symmetric_group": 6}[kind]
    code, out = run(capsys, "build", write(tmp_path, "spec.json", {"kind": kind, "n": 2.5}))
    assert code == 2
    assert json.loads(out)["error"] == "FormatError: bad n: 2.5 is not an integer"


@pytest.mark.parametrize("case", ["n true", "n string", "boolean table", "string table",
                                  "order true", "fiber string"])
def test_booleans_and_strings_in_integer_fields_exit_2(tmp_path, capsys, case):
    """JSON booleans and numeric strings are not integers, though Python's
    int() reads them."""
    objs = _z2_objects()
    b = group_bundle(make_cyclic(2))
    argv = None
    if case.startswith("n "):
        spec = {"kind": "cyclic_group", "n": True if case == "n true" else "3"}
        argv = ["build", write(tmp_path, "spec.json", spec)]
    elif case.endswith("table"):
        payload = objs["group"]
        payload["table"] = [[False, True], [True, False]] if case == "boolean table" \
            else [["0", "1"], ["1", "0"]]
    elif case == "order true":
        payload = objs["group"]
        payload["order"] = True
        payload["table"] = [[0]]
    else:
        apath = write(tmp_path, "act.json", objs["action"])
        vpath = write(tmp_path, "vec.json", _unit_vector(b, "0"))
        argv = ["correspond", apath, "--vector", vpath]
    argv = argv or ["validate", write(tmp_path, "obj.json", payload)]
    code, out = _run_clean(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"].startswith("FormatError: bad ")


def test_a_phi_that_is_not_a_homomorphism_exits_2(tmp_path, capsys):
    """phi(e) = e fails for [1, 1, 1] and multiplicativity for [0, 1, 1]:
    an action, a bundle map and a scalar-map build spec carrying either are
    malformed input, refused where the file is read."""
    from fellbundles.actions import trivial_action
    from fellbundles.groups import GroupHom

    b = group_bundle(make_cyclic(3))
    action = sz.action_to_json(trivial_action(b))
    path = write(tmp_path, "action.json", {**action, "phi": [1, 1, 1]})
    for command in ("validate", "correspond"):
        code, out = run(capsys, command, path)
        assert code == 2, command
        assert json.loads(out)["error"] == "FormatError: bad phi: not a group homomorphism"
    bent = scalar_bundle_map(b, b, GroupHom(b.group, b.group, [0, 1, 1]), [1.0, 0.0, 0.0])
    path = write(tmp_path, "map.json", sz.bundle_map_to_json(bent))
    for command in ("pd-check", "gns"):
        code, out = run(capsys, command, path)
        assert code == 2, command
        assert "bad phi" in json.loads(out)["error"]
    bundle = sz.bundle_to_json(b)
    spec = {"kind": "scalar_bundle_map", "source": bundle, "target": bundle,
            "values": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    code, _ = run(capsys, "build", write(tmp_path, "good.json", {**spec, "phi": [0, 1, 2]}))
    assert code == 0
    code, out = run(capsys, "build", write(tmp_path, "spec.json", {**spec, "phi": [0, 1, 1]}))
    assert code == 2
    assert "bad phi" in json.loads(out)["error"]


def test_a_closed_stdout_exits_2_without_a_traceback(tmp_path):
    """Python's SIGPIPE recipe: a report written to a pipe nobody reads
    exits 2, as any other OSError does, and prints no traceback."""
    from fellbundles.actions import l2_action

    path = write(tmp_path, "z4.json", sz.action_to_json(l2_action(group_bundle(make_cyclic(4)))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "fellbundles.cli", "validate", path],
                           stdout=write_end, stderr=subprocess.PIPE, text=True,
                           env=_child_env())
    finally:
        os.close(write_end)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr and "BrokenPipeError" not in r.stderr
