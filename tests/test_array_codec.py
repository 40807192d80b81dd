"""The whole-array object boundary against the per-element routes it replaced.

`serialize` encodes and decodes every complex matrix, fiber stack and tensor
as one array; `reference_encode` and `reference_decode_*` keep the old
one-[re, im]-pair-at-a-time codec (`_c2j`/`_j2c`).  `FellBundle` builds its
structure tensors with one product and one projection per fiber pair;
`reference_build_structure` keeps the loop that projected every basis
product through `coords`.  Encoded text must be identical, decoded values
bitwise equal, structure tensors and verdicts equal up to rounding.
"""

import json

import numpy as np
import pytest

from fellbundles import serialize as sz
from fellbundles.actions import l2_action, validate_action
from fellbundles.bundles import FellBundle, validate_bundle
from fellbundles.cli import main
from fellbundles.correspondences import trivial_self_equivalence, verify_imprimitivity
from fellbundles.groups import make_cyclic
from fellbundles.hilbundles import l2_bundle, validate_hilbert_bundle
from fellbundles.numerics import Tolerance, frob, stored
from fellbundles.pdmaps import identity_bundle_map, pd_check_exact

from test_pdmaps_batched import indefinite_identity, m3_z3


# -- the per-element oracles -------------------------------------------------------

def _c2j(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _j2c(v) -> complex:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise sz.FormatError(f"expected [re, im], got {v!r}")
    return complex(float(v[0]), float(v[1]))


def reference_encode(a) -> list:
    """Vectors, matrices and 3-tensors one entry at a time."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 1:
        return [_c2j(z) for z in a]
    return [reference_encode(a[i]) if a.ndim == 3 else
            [_c2j(a[i, j]) for j in range(a.shape[1])] for i in range(a.shape[0])]


def reference_decode_matrix(data, shape):
    try:
        out = np.array([[_j2c(v) for v in row] for row in data], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise sz.FormatError(f"bad matrix: {exc}") from exc
    if out.size == 0:
        out = out.reshape(shape)
    if out.shape != tuple(shape):
        raise sz.FormatError(f"matrix has shape {out.shape}, expected {tuple(shape)}")
    return out


def reference_decode_tensor(data, shape):
    out = np.zeros(shape, dtype=np.complex128)
    if shape[0] != len(data):
        raise sz.FormatError(f"tensor has {len(data)} slabs, expected {shape[0]}")
    for i, slab in enumerate(data):
        out[i] = reference_decode_matrix(slab, shape[1:])
    return out


def reference_build_structure(self):
    """FellBundle._build_structure as one `coords` call per basis product,
    stored in the padded read-only form."""
    grp = self.group
    n = grp.order
    prod = [[None] * n for _ in range(n)]
    self.grading_residual = np.zeros((n, n))
    for g in grp.elements():
        for h in grp.elements():
            gh = grp.mul(g, h)
            dg, dh, dgh = self.dims[g], self.dims[h], self.dims[gh]
            tensor = np.zeros((dg, dh, dgh), dtype=np.complex128)
            worst = 0.0
            for i in range(dg):
                for j in range(dh):
                    p = self.fibers[g][i] @ self.fibers[h][j]
                    c, res = self.coords(gh, p)
                    tensor[i, j] = c
                    worst = max(worst, res * frob(p))
            prod[g][h] = tensor
            self.grading_residual[g, h] = worst
    star = []
    self.involution_residual = np.zeros(n)
    for g in grp.elements():
        ginv = grp.inv(g)
        t = np.zeros((self.dims[g], self.dims[ginv]), dtype=np.complex128)
        worst = 0.0
        for i in range(self.dims[g]):
            c, res = self.coords(ginv, self.fibers[g][i].conj().T)
            t[i] = c
            worst = max(worst, res)
        star.append(t)
        self.involution_residual[g] = worst
    db = max(self.dims, default=0)
    self.prod_array, self.prod = stored(prod, (db, db, db))
    star_array, star_views = stored([star], (db, db))
    self.star_array, self.star_tensor = star_array[0], star_views[0]
    eye = np.eye(self.ambient_dim, dtype=np.complex128)
    self.unit_coords, self.unit_residual = self.coords(grp.identity, eye)
    self.unital = self.unit_residual <= 10 * self._tol.rel_rank


# -- the corpus ------------------------------------------------------------------

BUNDLES = ("z2", "s3", "m2_ad", "m3_z3")


@pytest.fixture(scope="module")
def bundles(corpus_bundles):
    return {**{k: corpus_bundles[k] for k in ("z2", "s3", "m2_ad")}, "m3_z3": m3_z3()}


def _objects(bundles):
    """(name, object, encoder, decoder) for every object type the CLI reads."""
    out = []
    for name, b in bundles.items():
        out.append((name, b, sz.bundle_to_json, sz.bundle_from_json))
        out.append((f"{name} identity map", identity_bundle_map(b),
                    sz.bundle_map_to_json, sz.bundle_map_from_json))
    for name in ("z2", "s3", "m2_ad"):
        b = bundles[name]
        out.append((f"{name} l2", l2_bundle(b), sz.hilbert_to_json, sz.hilbert_from_json))
        out.append((f"{name} l2 action", l2_action(b), sz.action_to_json, sz.action_from_json))
        out.append((f"{name} self-equivalence", trivial_self_equivalence(b),
                    sz.equivalence_to_json, sz.equivalence_from_json))
    return out


def _leaves(payload, path=()):
    """Every (path, list of [re, im] pairs) leaf holder: the complex arrays."""
    if isinstance(payload, dict):
        for k, v in sorted(payload.items()):
            yield from _leaves(v, path + (k,))
    elif path[-1] != "table" and isinstance(payload, list) and payload \
            and isinstance(payload[0], list):
        yield path, payload


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.complex128).tobytes()


def _stored_arrays(obj):
    """The arrays an object's JSON is written from, keyed by role."""
    if isinstance(obj, FellBundle):
        return {f"fiber {g}": f for g, f in enumerate(obj.fibers)}
    out = {}
    for attr in ("mats", "act", "inner", "ops", "lact", "linner"):
        value = getattr(obj, attr, None)
        if value is None:
            continue
        if isinstance(value[0], list):
            out.update({f"{attr} {r},{s}": t for r, row in enumerate(value)
                        for s, t in enumerate(row)})
        else:
            out.update({f"{attr} {g}": m for g, m in enumerate(value)})
    for attr in ("source", "target", "bundle", "left_bundle", "right"):
        inner = getattr(obj, attr, None)
        if inner is not None:
            out.update({f"{attr} {k}": v for k, v in _stored_arrays(inner).items()})
    return out


# -- the codec -------------------------------------------------------------------

def _use_reference_encoder(monkeypatch):
    for name in ("_encode", "matrix_to_json", "vector_to_json", "tensor3_to_json"):
        monkeypatch.setattr(sz, name, reference_encode)


def test_encoder_matches_the_per_entry_encoder(bundles, monkeypatch):
    objects = _objects(bundles)
    new = [json.dumps(enc(obj), sort_keys=True) for _, obj, enc, _ in objects]
    _use_reference_encoder(monkeypatch)
    old = [json.dumps(enc(obj), sort_keys=True) for _, obj, enc, _ in objects]
    for (name, *_), a, b in zip(objects, new, old):
        assert a == b, name


def test_encoder_keeps_signed_zeros():
    m = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)],
                  [complex(-0.0, -0.0), complex(1.5, -2.25)]])
    assert sz.matrix_to_json(m) == reference_encode(m)
    assert json.dumps(sz.matrix_to_json(m)) == \
        "[[[-0.0, 0.0], [0.0, -0.0]], [[-0.0, -0.0], [1.5, -2.25]]]"
    back = sz.matrix_from_json(json.loads(json.dumps(sz.matrix_to_json(m))), (2, 2))
    assert _bits(back) == _bits(m)
    t = np.stack([m, -m, m.conj()])
    assert _bits(sz.tensor3_from_json(sz.tensor3_to_json(t), t.shape)) == _bits(t)


def test_decode_of_encode_is_bitwise_identity(bundles):
    for name, obj, enc, dec in _objects(bundles):
        back = dec(json.loads(json.dumps(enc(obj), sort_keys=True)))
        want, got = _stored_arrays(obj), _stored_arrays(back)
        assert want.keys() == got.keys(), name
        for key in want:
            assert _bits(got[key]) == _bits(want[key]), (name, key)


def test_decoder_matches_the_per_entry_decoder(bundles):
    for name, obj, enc, _ in _objects(bundles):
        for path, data in _leaves(json.loads(json.dumps(enc(obj), sort_keys=True))):
            shape = np.shape(data)[:-1]
            if len(shape) == 2:
                old, new = reference_decode_matrix(data, shape), sz.matrix_from_json(data, shape)
            else:
                old, new = reference_decode_tensor(data, shape), sz.tensor3_from_json(data, shape)
            assert _bits(new) == _bits(old), (name, path)


def test_failing_certificate_encodes_as_before(bundles, monkeypatch):
    cert = pd_check_exact(indefinite_identity(bundles["m2_ad"], 31))
    assert not cert.ok and cert.witness
    new = json.dumps(sz.certificate_to_json(cert, full=True), sort_keys=True)
    _use_reference_encoder(monkeypatch)
    assert new == json.dumps(sz.certificate_to_json(cert, full=True), sort_keys=True)


def test_empty_blocks_decode_as_before():
    for shape, data in (((0, 3), []), ((3, 0), [[], [], []]), ((2, 0), [])):
        assert sz.matrix_from_json(data, shape).shape == shape
        assert reference_decode_matrix(data, shape).shape == shape
    assert sz.tensor3_from_json([[], []], (2, 0, 4)).shape == (2, 0, 4)
    assert sz.matrix_to_json(np.zeros((3, 0))) == [[], [], []]
    with pytest.raises(sz.FormatError):
        sz.tensor3_from_json([], (2, 0, 4))


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), float("-inf"), None])
def test_decoder_refuses_non_finite_entries(entry):
    with pytest.raises(sz.FormatError):
        sz.matrix_from_json([[[1.0, 0.0], [entry, 0.0]]], (1, 2))
    with pytest.raises(sz.FormatError):
        sz.vector_from_json([[0.0, entry]])


@pytest.mark.parametrize("data", [
    [[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]],   # ragged rows
    [[["a", 0.0], [1.0, 0.0]]],                  # a non-numeric string
    [[[1.0, 0.0, 3.0]]],                         # not a pair
    [[{"re": 1.0}]],
    [[[10 ** 400, 0.0]]],
])
def test_decoder_refuses_malformed_entries(data):
    with pytest.raises(sz.FormatError):
        sz.matrix_from_json(data)


def test_decoder_reads_numeric_strings_as_before():
    data = [[["1.5", "-0.0"], [True, 2]]]
    assert _bits(sz.matrix_from_json(data)) == _bits(reference_decode_matrix(data, (1, 2)))


# -- structure tensors -------------------------------------------------------------

def _reference_copy(bundle, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(FellBundle, "_build_structure", reference_build_structure)
        ref = FellBundle(bundle.group, bundle.ambient_dim, bundle.fibers)
        ref.prod_array  # built on first read, while the reference is patched in
        return ref


@pytest.mark.parametrize("name", BUNDLES)
def test_structure_matches_the_per_product_loop(bundles, name, monkeypatch):
    b = bundles[name]
    ref = _reference_copy(b, monkeypatch)
    for g in b.group.elements():
        for h in b.group.elements():
            np.testing.assert_allclose(b.prod[g][h], ref.prod[g][h], rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.star_tensor[g], ref.star_tensor[g], rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.grading_residual, ref.grading_residual, rtol=0, atol=1e-15)
    np.testing.assert_allclose(b.involution_residual, ref.involution_residual,
                               rtol=0, atol=1e-15)
    assert validate_bundle(b).as_dict()["ok"] == validate_bundle(ref).as_dict()["ok"]


def test_structure_residuals_of_a_broken_grading_match(monkeypatch):
    """Fibers that are not closed under products or adjoints: residuals of
    order one, judged the same way by both routes."""
    rng = np.random.default_rng(3)
    fibers = [rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)),
              rng.standard_normal((1, 3, 3)), np.zeros((0, 3, 3))]
    b = FellBundle(make_cyclic(3), 3, fibers)
    ref = _reference_copy(b, monkeypatch)
    assert b.grading_residual.max() > 0.1
    np.testing.assert_allclose(b.grading_residual, ref.grading_residual, rtol=1e-13)
    np.testing.assert_allclose(b.involution_residual, ref.involution_residual, rtol=1e-13)
    for g in range(3):
        for h in range(3):
            np.testing.assert_allclose(b.prod[g][h], ref.prod[g][h], rtol=0, atol=1e-12)
    new, old = validate_bundle(b).as_dict(), validate_bundle(ref).as_dict()
    assert [c["ok"] for c in new["checks"]] == [c["ok"] for c in old["checks"]]


@pytest.mark.parametrize("name", ("z2", "s3", "m2_ad"))
def test_verdicts_match_on_reference_structure(bundles, name, monkeypatch):
    """Every validator over objects whose bundles carry the oracle's tensors."""
    b = bundles[name]
    ref = _reference_copy(b, monkeypatch)
    pairs = [(l2_bundle(b), l2_bundle(ref), validate_hilbert_bundle),
             (l2_action(b), l2_action(ref), validate_action),
             (trivial_self_equivalence(b), trivial_self_equivalence(ref),
              verify_imprimitivity)]
    for new, old, check in pairs:
        r1, r2 = check(new).as_dict(), check(old).as_dict()
        assert r1["ok"] == r2["ok"]
        assert [c["ok"] for c in r1["checks"]] == [c["ok"] for c in r2["checks"]]


# -- the command line at the input boundary -----------------------------------------

def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    return code, captured


def _write_text(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _z2():
    """Z2 acting on C^2 by the swap, fibers 1/sqrt(2) and swap/sqrt(2)."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    return FellBundle(make_cyclic(2), 2, [np.eye(2)[None] / np.sqrt(2), swap[None] / np.sqrt(2)])


def _z2_text():
    return json.dumps(sz.bundle_to_json(_z2()), sort_keys=True)


@pytest.mark.parametrize("flag", ["--tol-rank", "--tol-psd"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_refuses_non_finite_tolerances(tmp_path, capsys, flag, value):
    path = _write_text(tmp_path, "z2.json", _z2_text())
    assert _run(capsys, "validate", path, f"{flag}={value}")[0] == 2
    with pytest.raises(ValueError):
        Tolerance(rel_rank=float(value))


@pytest.mark.parametrize("old, new", [
    ('"ambient_dim": 2', '"ambient_dim": 1e400'),
    ('[[[0.7071067811865475, 0.0]', '[[[NaN, 0.0]'),
    ('[[[0.7071067811865475, 0.0]', '[[[Infinity, 0.0]'),
    ('[[[0.7071067811865475, 0.0]', '[[[-Infinity, 0.0]'),
    ('[[[0.7071067811865475, 0.0]', '[[[null, 0.0]'),
    ('[[[0.7071067811865475, 0.0]', '[[["abc", 0.0]'),
    ('[[[0.7071067811865475, 0.0], ', '[['),
    ('"fibers": {', '"fibers": {"7": [], '),
])
def test_cli_boundary_inputs_exit_2(tmp_path, capsys, old, new):
    text = _z2_text()
    assert old in text
    path = _write_text(tmp_path, "bad.json", text.replace(old, new, 1))
    code, captured = _run(capsys, "validate", path)
    assert code == 2
    assert json.loads(captured.out)["ok"] is False


def test_cli_accepts_the_unmodified_boundary_input(tmp_path, capsys):
    assert _run(capsys, "validate", _write_text(tmp_path, "z2.json", _z2_text()))[0] == 0


def test_cli_refuses_unread_keys_in_every_family(tmp_path, capsys):
    b = _z2()
    builders = {
        "fibers": lambda: sz.bundle_to_json(b),
        "blocks": lambda: sz.bundle_map_to_json(identity_bundle_map(b)),
        "action": lambda: sz.hilbert_to_json(l2_bundle(b)),
        "inner": lambda: sz.hilbert_to_json(l2_bundle(b)),
        "ops": lambda: sz.action_to_json(l2_action(b)),
        "lact": lambda: sz.equivalence_to_json(trivial_self_equivalence(b)),
        "linner": lambda: sz.equivalence_to_json(trivial_self_equivalence(b)),
    }
    for key, build in builders.items():
        payload = build()
        path = _write_text(tmp_path, f"{key}.json", json.dumps(payload))
        assert _run(capsys, "validate", path)[0] == 0, key
        family = payload[key]
        family["0,0 "] = family["0,0"] if "0,0" in family else family["0"]
        path = _write_text(tmp_path, f"{key}.json", json.dumps(payload))
        assert _run(capsys, "validate", path)[0] == 2, key


# -- object files ------------------------------------------------------------------

def test_build_writes_and_prints_one_compact_text(tmp_path, capsys):
    spec = _write_text(tmp_path, "spec.json", json.dumps(
        {"kind": "l2_action", "bundle": json.loads(_z2_text())}))
    out = tmp_path / "built.json"
    assert _run(capsys, "build", spec, "-o", str(out))[0] == 0
    code, captured = _run(capsys, "build", spec)
    assert code == 0
    text = out.read_text()
    assert captured.out == text
    assert text.count("\n") == 1 and text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def test_gns_files_are_compact(tmp_path, capsys):
    path = _write_text(tmp_path, "id.json", json.dumps(sz.bundle_map_to_json(
        identity_bundle_map(_z2()))))
    assert _run(capsys, "gns", path, "-o", str(tmp_path / "out"))[0] == 0
    for part in ("bundle", "action", "vector"):
        text = (tmp_path / f"out.{part}.json").read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
