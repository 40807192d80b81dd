"""Set-up, the measured passes, and the metrics run.py prints."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from fellbundles import cli
from sessions import PassResult, run_session
from spans import Tracer
from workloads import COMMANDS, LEFT_OUT, generate

END_TO_END = {
    "setup_s": "s", "session_s": "s",
    **{f"{c.replace('-', '_')}_s": "s" for c in COMMANDS},
    "peak_rss_mb": "MB", "match_frac": "ratio",
}

_SELF = ("serialize.parse", "serialize.emit", "groups.table", "bundles.construct",
         "bundles.structure", "bundles.validate", "crosssec.regrep", "crosssec.cstar_norm",
         "crosssec.matrix_alg", "pdmaps.construct", "pdmaps.cert_assembly",
         "pdmaps.cert_eigensolve", "pdmaps.witness", "pdmaps.sampled", "pdmaps.gns_gram",
         "pdmaps.gns_separation", "hilbundles.construct", "hilbundles.validate",
         "actions.construct", "actions.validate", "actions.coefficient_map",
         "correspondences.construct", "correspondences.module_checks",
         "correspondences.amplify", "correspondences.star_rep_check",
         "correspondences.imprimitivity")
# per-layer metric -> (unit, tracer count it reads)
_COUNTS = {
    "serialize.bytes_in": ("bytes", "serialize.bytes_in"),
    "serialize.bytes_out": ("bytes", "serialize.bytes_out"),
    "bundles.structure_builds": ("count", "bundles.structure.calls"),
    "crosssec.regrep_builds": ("count", "crosssec.regrep.calls"),
    "crosssec.cstar_norm_calls": ("count", "crosssec.cstar_norm.calls"),
    "pdmaps.cert_dim": ("rows", "pdmaps.cert_dim"),
    "correspondences.amplified_dim": ("rows", "correspondences.amplified_dim"),
    "numerics.einsum_calls": ("count", "numerics.einsum.calls"),
    "numerics.einsum_s": ("s", "numerics.einsum_s"),
    "numerics.eigensolves": ("count", "numerics.eigensolve.calls"),
    "numerics.eigensolve_s": ("s", "numerics.eigensolve_s"),
    "numerics.eigensolve_flops": ("flop", "numerics.eigensolve_flops"),
    "numerics.svds": ("count", "numerics.svd.calls"),
    "numerics.svd_s": ("s", "numerics.svd_s"),
}
PER_LAYER = {
    **{f"{key}_s": "s" for key in _SELF},
    **{name: unit for name, (unit, _) in _COUNTS.items()},
    "crosssec.regrep_reuse": "ratio",
    "cli.self_s": "s", "other_s": "s", "trace_overhead": "ratio",
}


# -- set-up -----------------------------------------------------------------------

def _import_in_fresh_interpreter(root: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-c", "import fellbundles.cli"], env=env,
                   cwd=root, check=True)


def _warm_up(path: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["validate", str(path)])
    if code != 0:
        raise RuntimeError(f"warm-up job exited {code}")


def set_up(workload: str, seed: int, root: Path, workdir: Path, repeats: int):
    """Import, generate and warm up `repeats` times; returns the session's
    jobs and each repeat's seconds."""
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        _import_in_fresh_interpreter(root)
        shutil.rmtree(workdir, ignore_errors=True)
        jobs = generate(workload, seed, workdir)
        gc.collect()
        _warm_up(workdir / "in" / "warmup.json")
        seconds.append(time.perf_counter() - start)
    return jobs, seconds


# -- metrics ----------------------------------------------------------------------

def _pass_layers(p: PassResult) -> dict[str, float]:
    """Per-layer totals of one traced pass."""
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    other = 0.0
    for r in p.results:
        spent = 0.0
        for key, sec in r.trace["self_s"].items():
            self_s[key] = self_s.get(key, 0.0) + sec
            spent += sec
        other += r.wall_s - spent
        for key, value in r.trace["counts"].items():
            merge = max if key.endswith("_dim") else (lambda a, b: a + b)
            counts[key] = merge(counts.get(key, 0), value)
    out = {f"{key}_s": self_s.get(key, 0.0) for key in _SELF}
    out.update({name: float(counts.get(src, 0)) for name, (_, src) in _COUNTS.items()})
    calls = counts.get("crosssec.cached_rep.calls", 0)
    hits = counts.get("crosssec.cached_rep.hits", 0)
    out["crosssec.regrep_reuse"] = hits / calls if calls else 0.0
    out["cli.self_s"] = self_s.get("cli", 0.0)
    out["other_s"] = other
    return out


def end_to_end(untraced: list[PassResult], setup: list[float], matched: int, attempted: int):
    """Each job's median wall time over the passes, summed per command."""
    med = statistics.median
    job_s = [(rs[0].job.command, med(r.wall_s for r in rs))
             for rs in zip(*(p.results for p in untraced))]
    out = {"setup_s": med(setup), "session_s": sum(s for _, s in job_s)}
    for c in COMMANDS:
        out[f"{c.replace('-', '_')}_s"] = sum(s for cmd, s in job_s if cmd == c)
    out["peak_rss_mb"] = med(p.peak_rss_mb for p in untraced)
    out["match_frac"] = matched / attempted
    return out


def per_layer(untraced: list[PassResult], traced: list[PassResult]):
    layers = [_pass_layers(p) for p in traced]
    out = {name: statistics.median(t[name] for t in layers) for name in layers[0]}
    out["trace_overhead"] = (statistics.median(p.session_s for p in traced)
                             / statistics.median(p.session_s for p in untraced))
    return out


# -- report -----------------------------------------------------------------------

def _environment(nproc: int) -> list[str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{v}={os.environ[v]}" for v in sorted(os.environ) if v.endswith("_THREADS"))
    return [f"nproc={nproc} python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')} {blas.get('version')}", f"threads: {threads}"]


def _job_table(p: PassResult) -> list[str]:
    lines = [f"{'job':44} exit {'wall_s':>8} {'rss_mb':>7} {'|G|':>4} {'D':>4} {'n':>4} "
             f"{'cert':>6} {'amp':>5} {'bytes_in':>9} {'bytes_out':>9}  outcome"]
    for r in p.results:
        s = r.job.sizes
        outcome = "as expected" if r.mismatch is None else f"MISMATCH: {r.mismatch}"
        if r.job.defect:
            outcome += f" [known defect: {r.job.defect}]"
        lines.append(
            f"{r.job.name:44} {r.code:>4} {r.wall_s:8.4f} {r.rss_mb:7.1f} {s.get('G', '-'):>4} "
            f"{s.get('D', '-'):>4} {s.get('n', '-'):>4} {s.get('cert', '-'):>6} "
            f"{r.amplified_dim or '-':>5} {r.bytes_in:>9} {r.bytes_out:>9}  {outcome}")
    return lines


def measure(args, workload: str, nproc: int, root: Path, repeats: int) -> None:
    """Set up, run passes for args.seconds and print the report of `workload`."""
    workdir = root / ".bench_work" / f"{workload}-{os.getpid()}"
    try:
        jobs, setup = set_up(workload, args.seed, root, workdir, repeats)
        tracer = Tracer() if args.trace else None
        untraced: list[PassResult] = []
        traced: list[PassResult] = []
        start = time.perf_counter()
        while True:
            untraced.append(run_session(jobs, workdir / "log"))
            if tracer is not None:
                traced.append(run_session(jobs, workdir / "log", tracer))
            elapsed = time.perf_counter() - start
            if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for p in untraced + traced for r in p.results]
    bad = [r for r in results if r.mismatch is not None]
    correct = all(r.job.defect for r in bad)
    if args.trace:
        metrics, units = per_layer(untraced, traced), PER_LAYER
    else:
        metrics = end_to_end(untraced, setup, len(results) - len(bad), len(results))
        units = END_TO_END

    lines = [f"workload={workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace} passes={len(untraced)}+{len(traced)} traced "
             f"jobs/pass={len(jobs)}"]
    lines += _environment(nproc)
    lines += [f"left out for run length: {item}" for item in LEFT_OUT[workload]]
    lines += _job_table(untraced[0])
    lines += [f"mismatch in a later pass: {r.job.name}: {r.mismatch}"
              for p in untraced[1:] + traced for r in p.results if r.mismatch and not r.job.defect]
    lines += [f"setup repeats (s): {' '.join(f'{s:.4f}' for s in setup)}"]
    for kind, passes in (("untraced", untraced), ("traced", traced)):
        lines += [f"{kind} pass (s): session {p.session_s:.4f} "
                  + " ".join(f"{c} {p.command_s(c):.4f}" for c in COMMANDS) for p in passes]
    print("\n".join("# " + line for line in lines))
    for name, value in metrics.items():
        print(f"{name:34} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
