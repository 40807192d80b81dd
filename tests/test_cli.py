import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fellbundles
from fellbundles import serialize as sz
from fellbundles.bundles import group_bundle
from fellbundles.cli import main
from fellbundles.groups import identity_hom, make_cyclic, symmetric_group
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
    s = sz.matrix_from_json(payload["exact"]["witness_sum"])
    assert np.linalg.eigvalsh((s + s.conj().T) / 2)[0] <= -1.0 + 1e-9


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
    monkeypatch.setattr(sz, "bundle_from_json", lambda data: parses.append(1) or real(data))
    out_path = tmp_path / "map.json"
    code, _ = run(capsys, "build", spec, "-o", str(out_path))
    assert code == 0
    assert len(parses) == 1
    assert out_path.read_text() == want
