"""Tests of the benchmark itself: seeded inputs, tracer hygiene, the partition
of job time.  Run with  python3 -m pytest bench/tests  from the repository root."""

import sys
import types

import numpy as np
import numpy.linalg._linalg as linalg_impl
import pytest

import spans
from measure import _pass_layers
from run import pin_threads
from sessions import run_session
from workloads import WORKLOADS, generate


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_inputs_and_never_sizes(tmp_path, workload):
    jobs1 = generate(workload, 5, tmp_path / "a")
    jobs2 = generate(workload, 5, tmp_path / "b")
    jobs3 = generate(workload, 6, tmp_path / "c")
    same, other = _files(tmp_path / "a" / "in"), _files(tmp_path / "b" / "in")
    assert same == other
    assert [j.sizes for j in jobs1] == [j.sizes for j in jobs2] == [j.sizes for j in jobs3]
    assert [j.name for j in jobs1] == [j.name for j in jobs3]
    assert _files(tmp_path / "c" / "in").keys() == same.keys()
    assert _files(tmp_path / "c" / "in") != same


def _wrapped_anywhere():
    """Every traced wrapper still reachable from the modules the tracer patches."""
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "fellbundles" or name.startswith("fellbundles."))]
    owners += [np, np.linalg, linalg_impl]
    found = []
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if hasattr(value, "__traced__"):
                found.append(f"{owner.__name__}.{attr}")
            if isinstance(value, type):
                found += [f"{value.__name__}.{k}" for k, v in vars(value).items()
                          if hasattr(v, "__traced__")]
    import fellbundles.cli as cli
    if not isinstance(cli.json, types.ModuleType) or cli.json is not sys.modules["json"]:
        found.append("fellbundles.cli.json")
    return found


def _small_session(tmp_path):
    jobs = generate("crossed-products", 1, tmp_path)
    return [j for j in jobs if j.name.startswith("M2xZ2")]


def test_traced_run_removes_every_wrapper(tmp_path):
    jobs = _small_session(tmp_path)
    tracer = spans.Tracer()
    with tracer.installed():
        assert len(_wrapped_anywhere()) >= len(spans.SPANS)
    result = run_session(jobs, tmp_path / "log", tracer)
    assert _wrapped_anywhere() == []
    assert all(r.trace is not None and r.mismatch is None for r in result.results)


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(spans.Tracer, "install", lambda self: calls.append(self))
    result = run_session(_small_session(tmp_path), tmp_path / "log")
    assert calls == []
    assert all(r.trace is None and r.mismatch is None for r in result.results)
    assert _wrapped_anywhere() == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_s_is_a_small_share_of_session_s(tmp_path, workload):
    jobs = generate(workload, 1, tmp_path)
    traced = run_session(jobs, tmp_path / "log", spans.Tracer())
    layers = _pass_layers(traced)
    assert all(r.mismatch is None or r.job.defect for r in traced.results)
    assert 0 < layers["other_s"] < 0.1 * traced.session_s
    spent = sum(v for k, v in layers.items() if k.endswith("_s") and not k.startswith("numerics."))
    assert spent == pytest.approx(traced.session_s, rel=1e-9)


def test_thread_pins_default_to_one_and_refuse_more_than_nproc():
    env = {}
    nproc = pin_threads(env)
    assert set(env.values()) == {"1"}
    with pytest.raises(SystemExit):
        pin_threads({"OPENBLAS_NUM_THREADS": str(nproc + 1)})
    with pytest.raises(SystemExit):
        pin_threads({"OMP_NUM_THREADS": "0"})


def test_refutations_record_exactly_three_known_defects(tmp_path):
    jobs = generate("refutations", 1, tmp_path)
    assert sorted(j.name for j in jobs if j.defect) == [
        "validate --tol-rank nan", "validate ambient_dim 1e400", "validate fiber key 7 on Z2"]
