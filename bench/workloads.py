"""The three benchmark workloads: seeded inputs and the CLI jobs of one session.

``generate(workload, seed, workdir)`` writes every input file under
``workdir/in`` and returns the session: the list of ``Job``s one pass runs,
in order.  Session outputs (built objects, GNS files) go to ``workdir/out``
and are rewritten by every pass.  The seed changes the inputs (a random
relabelling of the group elements, the perturbations of the refutations)
but never their sizes.  Jobs keep the CLI's default ``--seed``: it draws the
sampled tuples of ``pd-check``, whose lengths set the work done.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from fellbundles import serialize as sz
from fellbundles.actions import l2_action
from fellbundles.bundles import dynamical_bundle, group_bundle
from fellbundles.correspondences import trivial_self_equivalence
from fellbundles.groups import identity_hom, make_cyclic, make_from_table, symmetric_group
from fellbundles.hilbundles import l2_bundle
from fellbundles.pdmaps import identity_bundle_map, scalar_bundle_map

WORKLOADS = ("group-ladder", "crossed-products", "refutations")
COMMANDS = ("build", "validate", "report", "pd-check", "gns", "correspond", "morita")

# Combinations the sessions leave out because one run could not afford them.
# Seconds are single CLI jobs with one BLAS thread on a 2-vCPU x86-64 VM
# (Python 3.11, numpy 2.4); "ROADMAP" marks figures taken from ROADMAP.md.
LEFT_OUT = {
    "group-ladder": [
        "S4 gns: 690 s (ROADMAP)",
        "correspond for |G| >= 12: 21.8 s on Z12; over 900 s on S4 "
        "(about 3 GB per amplified generator)",
        "S4 l2 objects: build l2_bundle 7.7 s, l2_action 10.7 s, "
        "regular_action 9.7 s; validate l2_bundle 13.8 s, l2_action 7.6 s; "
        "report l2_action 7.9 s",
        "S4 morita: 3.2 s, with its self-equivalence build 0.3 s",
        "Z12 gns: 4.2 s; Z12 l2_action: build 0.7 s, validate 0.3 s, report 0.3 s",
    ],
    "crossed-products": [
        "gns on M3xZ2: 3.5 s, M3xZ3: 33 s, M4xZ2: 88 s",
        "M2xZ4: l2_bundle build and validate 0.7 s, report l2_action 0.4 s",
        "M3xZ2: l2 objects, validate, report and correspond 2.2 s",
        "M3xZ3: l2 objects, validate, report and correspond 17 s, pd-check 3.2 s",
        "M4xZ2: l2 objects, validate, report and correspond 35 s, report map 2.3 s, "
        "pd-check 9.2 s, morita with its self-equivalence build 2.9 s",
    ],
    "refutations": [
        "the indefinite M4xZ2 map: pd-check about 8 s, report 2.6 s, gns 2.6 s",
        "the indefinite M3xZ3 map: pd-check 3.6 s, report 0.8 s",
    ],
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation with its expected outcome.

    ``checks`` inspect the parsed stdout report and return a mismatch
    reason or None.  ``defect`` names the known program defect that makes
    this job mismatch today; the job still counts as an error.
    """

    name: str
    argv: tuple[str, ...]
    exit: int
    checks: tuple[Callable[[dict], str | None], ...] = ()
    sizes: dict = field(default_factory=dict)
    defect: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    def mismatch(self, code: int, report: dict | None, traceback: bool) -> str | None:
        if traceback:
            return "printed a traceback"
        if code != self.exit:
            return f"exit {code}, expected {self.exit}"
        if self.checks and report is None:
            return "stdout is not one JSON report"
        for check in self.checks:
            reason = check(report)
            if reason:
                return reason
        return None


# -- expectations ----------------------------------------------------------------

def _failing_axioms(report: dict) -> list[str]:
    sub = report.get("report") or report.get("action_report") or {}
    return [c["name"] for c in sub.get("checks", []) if not c["ok"]]


def passes(report):
    if report.get("ok") is not True:
        return f"ok is {report.get('ok')!r}; failing: {_failing_axioms(report)}"


def names_failing_axiom(report):
    if report.get("ok") is not False or not _failing_axioms(report):
        return "no failing axiom named"


def pd_certified(report):
    exact, sampled = report["exact"], report["sampled"]
    if not (exact["verdict"] and sampled["ok"] and report["consistent"]):
        return (f"verdict {exact['verdict']}, sampled {sampled['ok']}, "
                f"consistent {report['consistent']}")


def pd_refuted(report):
    exact = report["exact"]
    if exact["verdict"] or not exact["margin"] < 0 or not exact.get("witness"):
        return "no negative margin with a witness"
    if report["consistent"] is not True:
        return "exact and sampled checks inconsistent"


def report_verdict(verdict):
    def check(report):
        cert = report.get("positive_definite", {})
        if cert.get("verdict") is not verdict or (cert.get("witness") is None) is not verdict:
            return f"positive_definite verdict {cert.get('verdict')}, expected {verdict}"
    return check


def roundtrip(report):
    if not report["roundtrip_residual"] <= report["residual_bound"]:
        return f"round-trip residual {report['roundtrip_residual']:.3e} over its bound"


def star_rep(report):
    if not (report.get("nondegenerate") and report.get("amplified_star_representation")):
        return "amplified module is not a nondegenerate *-representation"


def error_mentions(text):
    def check(report):
        if text not in report.get("error", ""):
            return f"error does not mention {text!r}"
    return check


# -- seeded inputs ----------------------------------------------------------------

def relabel(group, rng):
    """The same group with its elements renamed by a random permutation
    (the identity moves too); returns the group and the renaming."""
    perm = rng.permutation(group.order)
    table = np.empty_like(group.table)
    table[np.ix_(perm, perm)] = perm[group.table]
    return make_from_table(table.tolist()), perm


def _ad_diag_crossed(k: int, m: int, rng):
    """M_k x| Z_m with Z_m acting by Ad(diag(1, w, .., w^(k-1))), w = e^(2 pi i/m),
    on the matrix-unit basis of M_k; (2, 2) is the tests' m2_ad."""
    group, perm = relabel(make_cyclic(m), rng)
    basis = np.zeros((k * k, k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            basis[i * k + j, i, j] = 1.0
    w = np.exp(2j * np.pi / m)
    autos = [None] * m
    for g in range(m):
        autos[perm[g]] = np.diag([w ** ((i - j) * g) for i in range(k) for j in range(k)])
    spec = {
        "kind": "dynamical_bundle",
        "group": sz.group_to_json(group),
        "algebra": [sz.matrix_to_json(b) for b in basis],
        "automorphisms": [sz.matrix_to_json(a) for a in autos],
    }
    return spec, dynamical_bundle(basis, group, autos)


def _sizes(bundle) -> dict:
    d = bundle.total_dim
    return {"G": bundle.group.order, "D": d, "n": bundle.ambient_dim, "cert": d * d}


class _Writer:
    def __init__(self, workdir: Path):
        self.inp = workdir / "in"
        self.out = workdir / "out"
        self.inp.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        self.jobs: list[Job] = []

    def write(self, name: str, payload) -> str:
        path = self.inp / name
        text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
        path.write_text(text)
        return str(path)

    def output(self, name: str) -> str:
        return str(self.out / name)

    def job(self, name, command, path, *extra, exit=0, checks=(), sizes=None, defect=None):
        argv = (command, path, *extra)
        self.jobs.append(Job(name, argv, exit, tuple(checks), dict(sizes or {}), defect))


# Session commands per object; a label in `skip` leaves that job out.
_SESSION = (
    ("validate", "bundle"), ("validate", "l2_bundle"), ("validate", "l2_action"),
    ("report", "map"), ("report", "l2_action"),
    ("pd-check", "map"), ("gns", "map"), ("correspond", "regular_action"),
    ("morita", "self_equivalence"),
)
_CHECKS = {
    "validate": (passes,), "report": (passes,), "pd-check": (passes, pd_certified),
    "gns": (passes, roundtrip), "correspond": (passes, star_rep), "morita": (passes,),
}


def _session(w: _Writer, label: str, bundle, bundle_spec: dict, map_spec: dict, skip=()):
    """build -> validate -> report -> pd-check -> gns -> correspond -> morita
    on one bundle; objects whose every consumer is skipped are not built."""
    sizes = _sizes(bundle)
    bjson = sz.bundle_to_json(bundle)
    wanted = [(cmd, obj) for cmd, obj in _SESSION if f"{cmd} {obj}" not in skip]
    specs = {"bundle": bundle_spec, "map": map_spec}
    for kind in ("l2_bundle", "l2_action", "regular_action", "self_equivalence"):
        specs[kind] = {"kind": kind, "bundle": bjson}
    for obj, spec in specs.items():
        if any(o == obj for _, o in wanted):
            w.job(f"{label} build {obj}", "build", w.write(f"{label}.{obj}.spec.json", spec),
                  "-o", w.output(f"{label}.{obj}.json"), checks=(passes,), sizes=sizes)
    for cmd, obj in wanted:
        extra = ("-o", w.output(f"{label}.gns")) if cmd == "gns" else ()
        checks = (passes, report_verdict(True)) if (cmd, obj) == ("report", "map") else _CHECKS[cmd]
        w.job(f"{label} {cmd} {obj}", cmd, w.output(f"{label}.{obj}.json"), *extra,
              checks=checks, sizes=sizes)


def _scalar_map_spec(bundle, values) -> dict:
    return {"kind": "scalar_bundle_map", "source": sz.bundle_to_json(bundle),
            "target": sz.bundle_to_json(bundle), "phi": list(range(bundle.group.order)),
            "values": [[float(v), 0.0] for v in values]}


def _group_values(group, off: float):
    return [1.0 if g == group.identity else off for g in group.elements()]


LADDER = (("Z2", 2), ("Z3", 3), ("Z4", 4), ("Z6", 6), ("S3", None), ("Z8", 8),
          ("Z12", 12), ("S4", None))
_L2 = ("validate l2_bundle", "validate l2_action", "report l2_action",
       "correspond regular_action")
_HEAVY_GROUP = {
    "Z12": ("validate l2_action", "report l2_action", "gns map", "correspond regular_action"),
    "S4": _L2 + ("gns map", "morita self_equivalence"),
}


def _ladder_group(label, order, rng):
    base = symmetric_group(int(label[1])) if order is None else make_cyclic(order)
    return relabel(base, rng)[0]


def _group_ladder(w: _Writer, rng):
    for label, order in LADDER:
        group = _ladder_group(label, order, rng)
        bundle = group_bundle(group)
        spec = {"kind": "group_bundle", "group": sz.group_to_json(group)}
        values = _group_values(group, 0.3 / group.order)
        _session(w, label, bundle, spec, _scalar_map_spec(bundle, values),
                 skip=_HEAVY_GROUP.get(label, ()))


CROSSED = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2))
_HEAVY_CROSSED = {
    (2, 4): ("validate l2_bundle", "report l2_action"),
    (3, 2): _L2 + ("gns map",),
    (3, 3): _L2 + ("pd-check map", "gns map"),
    (4, 2): _L2 + ("report map", "pd-check map", "gns map", "morita self_equivalence"),
}


def _crossed_products(w: _Writer, rng):
    for k, m in CROSSED:
        spec, bundle = _ad_diag_crossed(k, m, rng)
        map_spec = {"kind": "identity_bundle_map", "bundle": sz.bundle_to_json(bundle)}
        _session(w, f"M{k}xZ{m}", bundle, spec, map_spec, skip=_HEAVY_CROSSED.get((k, m), ()))


# -- refutations ------------------------------------------------------------------

def _perturb(payload: dict, key: str, rng, scale: float = 0.1) -> dict:
    """Add `scale` to one random real entry of one random tensor under `key`."""
    tensors = payload[key]
    name = sorted(tensors)[int(rng.integers(len(tensors)))]
    node = tensors[name]
    while isinstance(node[0], list) and isinstance(node[0][0], list):
        node = node[int(rng.integers(len(node)))]
    node[int(rng.integers(len(node)))][0] += scale
    return payload


def _truncated(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True)
    return text[: len(text) // 2]


def _indefinite_identity(bundle, rng):
    """The identity map with T_e = 1 - 2 v v*, v the unit coordinates of a
    random positive a in A_e: T_e(a) = -a, so the map is not positive."""
    t = identity_bundle_map(bundle)
    e = bundle.group.identity
    shape = (bundle.ambient_dim,) * 2
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v, _ = bundle.coords(e, x @ x.conj().T)
    v = v / np.linalg.norm(v)
    t.mats[e] = t.mats[e] - 2 * np.outer(v, v.conj())
    return t


def _refutations(w: _Writer, rng):
    def seeded(group):
        return relabel(group, rng)[0]

    # maps that are not positive definite: pd-check and gns refuse them
    maps = []
    for label, group in (("Z12", seeded(make_cyclic(12))), ("S4", seeded(symmetric_group(4)))):
        b = group_bundle(group)
        values = _group_values(group, 2.0)
        maps.append((label, b, scalar_bundle_map(b, b, identity_hom(group), values)))
    _, b = _ad_diag_crossed(3, 3, rng)
    maps.append(("M3xZ3", b, _indefinite_identity(b, rng)))
    for label, bundle, t in maps:
        path = w.write(f"{label}.nonpd.json", sz.bundle_map_to_json(t))
        sizes = _sizes(bundle)
        if label != "M3xZ3":
            w.job(f"{label} pd-check non-pd", "pd-check", path, exit=1,
                  checks=(pd_refuted,), sizes=sizes)
            w.job(f"{label} report non-pd", "report", path, checks=(report_verdict(False),),
                  sizes=sizes)
        w.job(f"{label} gns non-pd", "gns", path, "-o", w.output(f"{label}.gns"), exit=1,
              checks=(error_mentions("not positive definite"),), sizes=sizes)

    # two seeded perturbations of one tensor each in an l2 Hilbert bundle, an
    # action and a self-equivalence over Z12, after builds of the valid objects
    label, b, _ = maps[0]
    sizes = _sizes(b)
    bjson = sz.bundle_to_json(b)
    valid = {"l2_bundle": sz.hilbert_to_json(l2_bundle(b)),
             "l2_action": sz.action_to_json(l2_action(b)),
             "self_equivalence": sz.equivalence_to_json(trivial_self_equivalence(b))}
    w.job(f"{label} build bundle", "build", w.write(f"{label}.bundle.spec.json",
          {"kind": "group_bundle", "group": sz.group_to_json(b.group)}),
          "-o", w.output(f"{label}.bundle.json"), checks=(passes,), sizes=sizes)
    for obj in valid:
        w.job(f"{label} build {obj}", "build", w.write(f"{label}.{obj}.spec.json",
              {"kind": obj, "bundle": bjson}), "-o", w.output(f"{label}.{obj}.json"),
              checks=(passes,), sizes=sizes)
    perturbed = {"l2_bundle": ("inner", ("validate", "report")),
                 "l2_action": ("ops", ("validate", "correspond")),
                 "self_equivalence": ("linner", ("morita",))}
    for obj, (key, commands) in perturbed.items():
        for i in range(2):
            bad = _perturb(json.loads(json.dumps(valid[obj])), key, rng)
            path = w.write(f"{label}.{obj}.bad{i}.json", bad)
            for cmd in commands:
                w.job(f"{label} {cmd} perturbed {obj} {i}", cmd, path, exit=1,
                      checks=(names_failing_axiom,), sizes=sizes)

    # malformed files: exit 2
    t_json = sz.bundle_map_to_json(maps[0][2])
    sources = {"build": {"kind": "l2_action", "bundle": bjson}, "validate": valid["l2_bundle"],
               "report": valid["l2_action"], "pd-check": t_json, "gns": t_json,
               "correspond": valid["l2_action"], "morita": valid["self_equivalence"]}
    for cmd, payload in sources.items():
        w.job(f"{cmd} truncated json", cmd, w.write(f"{cmd}.truncated.json", _truncated(payload)),
              "-o", w.output("truncated.out"), exit=2)
    shape = valid["l2_action"]
    last = b.group.order - 1  # the tensor parsed last, so the whole file is read
    shape["ops"][f"{last},{last}"][0].pop()
    w.job(f"{label} correspond wrong tensor shape", "correspond",
          w.write(f"{label}.l2_action.shape.json", shape), exit=2, sizes=sizes)

    # rejected mathematics in build specs: exit 1
    table = sz.group_to_json(seeded(symmetric_group(3)))
    table["table"][1] = table["table"][0]
    w.job("build non-group table", "build", w.write("nongroup.spec.json",
          {"kind": "group_bundle", "group": table}), "-o", w.output("nongroup.json"),
          exit=1, checks=(error_mentions("not a permutation"),))
    spec, _ = _ad_diag_crossed(2, 2, rng)
    spec["automorphisms"][1] = sz.matrix_to_json(2 * np.eye(4))
    w.job("build non-automorphism", "build", w.write("nonauto.spec.json", spec),
          "-o", w.output("nonauto.json"), exit=1, checks=(error_mentions("alpha"),))

    # the four input-boundary defects of ROADMAP item 2
    z3 = sz.bundle_to_json(group_bundle(seeded(make_cyclic(3))))
    z3_path = w.write("Z3.bundle.json", z3)
    w.job("validate --tol-rank nan", "validate", z3_path, "--tol-rank", "nan", exit=2,
          defect="ROADMAP item 2: --tol-rank nan is accepted (exit 1)")
    huge = w.write("Z3.huge_dim.json", json.dumps(z3, sort_keys=True).replace(
        '"ambient_dim": 3', '"ambient_dim": 1e400'))
    w.job("validate ambient_dim 1e400", "validate", huge, exit=2,
          defect="ROADMAP item 2: ambient_dim 1e400 escapes as an OverflowError traceback")
    nan = json.loads(json.dumps(z3))
    first = sorted(nan["fibers"])[int(rng.integers(3))]
    nan["fibers"][first][0][0][0] = [float("nan"), 0.0]
    w.job("validate NaN entries", "validate", w.write("Z3.nan.json", nan), exit=2)
    z2 = sz.bundle_to_json(group_bundle(make_cyclic(2)))
    z2["fibers"]["7"] = z2["fibers"]["1"]
    w.job("validate fiber key 7 on Z2", "validate", w.write("Z2.key7.json", z2), exit=2,
          defect="ROADMAP item 2: a fiber key outside the group is ignored (exit 0)")


_GENERATORS = {
    "group-ladder": _group_ladder,
    "crossed-products": _crossed_products,
    "refutations": _refutations,
}


def generate(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the inputs of `workload` under `workdir` and return one session."""
    w = _Writer(Path(workdir))
    w.write("warmup.json", sz.bundle_to_json(group_bundle(make_cyclic(2))))
    _GENERATORS[workload](w, np.random.default_rng([seed, WORKLOADS.index(workload)]))
    return w.jobs
