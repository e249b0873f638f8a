"""The exit-code contract under byte mutations of valid inputs.

One input of a valid ``run`` or ``audit`` invocation (the observed CSV, the
future CSV, the config or the partition file) has a few bytes replaced,
inserted or deleted, and ``cli.main`` runs in-process.  Whatever the bytes,
it exits 0, 1, 2 or 3, lets no exception other than ``SystemExit`` escape, and
writes a report only on exit 0 or 1, as JSON.
"""

import json

import pytest
from fixtures import XA, XB, p8_future, p8_observed
from hypothesis import given, settings
from hypothesis import strategies as st

from finitepop.cli import main
from finitepop.core import FuturePopulation
from finitepop.io import save_future_csv, save_observed_csv

CONFIGS = {
    "run": "methods:\n  - rct\n  - matching\n  - {{name: coarsened, partition: {root}/partition.yaml}}\n"
           "  - {{name: plugin, predictor: {root}/predictor.yaml, partition: {root}/partition.yaml}}\n"
           "  - {{name: dr, predictor: {root}/predictor.yaml}}\n"
           "  - {{name: rm_bounds, k0: 0, k1: 12}}\n"
           "  - {{name: iv_lower, eps: 0.1, delta: 0.1}}\n",
    "audit": "predictor: matching\npartition: {root}/partition.yaml\naudits: [sp, cfd, "
             "signed_difference, ml_groupwise, dr_condition, dominance, compliance_stability]\n",
}
PREDICTOR = "schema: 1\nentries:\n" + "".join(
    f"  - {{x: {{level: {lv}}}, t: {t}, p: {p}}}\n"
    for lv, t, p in (("a", 0, 6.0), ("a", 1, 10.0), ("b", 0, 2.0), ("b", 1, 4.0))
)
TOKENS = (  # bytes that mean something to a CSV or YAML reader
    b"\n", b"\r", b",", b'"', b":", b" ", b"\t", b"-", b"0", b"1", b"2", b"9" * 400, b".5",
    b"e308", b"nan", b"inf", b"[", b"]", b"{", b"}", b"!", b"!!float", b"&a", b"*a", b"#", b"~",
    b"\xff", b"\x00", b"\xef\xbb\xbf", b"y_t", b"s_z", b"xc_", b"xn_", b"schema", b"mode: data",
)
MUTATIONS = st.lists(st.tuples(
    st.sampled_from(("replace", "insert", "delete")),
    st.integers(0, 1 << 16),
    st.one_of(st.binary(min_size=1, max_size=4), st.sampled_from(TOKENS)),
), min_size=1, max_size=3)


def mutate(data: bytes, mutations) -> bytes:
    """``data`` with each (operation, position, chunk) applied in turn; a position past the
    end wraps around."""
    for op, pos, chunk in mutations:
        i = pos % (len(data) + 1)
        if op == "insert":
            data = data[:i] + chunk + data[i:]
        else:
            data = data[:i] + (chunk if op == "replace" else b"") + data[i + len(chunk):]
    return data


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """The directory of the inputs, and each file's valid bytes by name."""
    root = tmp_path_factory.mktemp("fuzz")
    future = p8_future()
    save_observed_csv(p8_observed(with_instrument=True), root / "observed.csv")
    save_future_csv(FuturePopulation(future.units, future.outcomes,
                                     {0: [0, 0, 1, 0], 1: [1, 1, 1, 0]}), root / "future.csv")
    files = {
        "observed.csv": (root / "observed.csv").read_bytes(),
        "future.csv": (root / "future.csv").read_bytes(),
        "partition.yaml": f"schema: 1\ncells:\n  A: [{{level: {XA.get('level')}}}]\n"
                          f"  B: [{{level: {XB.get('level')}}}]\n".encode(),
        "predictor.yaml": PREDICTOR.encode(),
    }
    for verb, body in CONFIGS.items():
        files[f"{verb}.yaml"] = (f"schema: 1\nmode: oracle\nobserved: {root}/observed.csv\n"
                                 f"future: {root}/future.csv\n" + body.format(root=root)).encode()
    return root, files


@settings(max_examples=400, deadline=None)
@given(verb=st.sampled_from(sorted(CONFIGS)),
       target=st.sampled_from(("observed.csv", "future.csv", "config", "partition.yaml")),
       mutations=MUTATIONS)
def test_mutated_inputs_keep_the_exit_code_contract(valid_inputs, verb, target, mutations):
    root, files = valid_inputs
    target = f"{verb}.yaml" if target == "config" else target
    for name, data in files.items():
        (root / name).write_bytes(mutate(data, mutations) if name == target else data)
    out = root / "report.json"
    out.unlink(missing_ok=True)
    try:
        code = main([verb, "--config", str(root / f"{verb}.yaml"), "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2, 3)
    assert out.exists() == (code in (0, 1))
    if out.exists():
        json.loads(out.read_text(encoding="utf-8"))


def test_the_valid_inputs_write_reports(valid_inputs):
    """Each mutation starts from an invocation that passes every input check."""
    root, files = valid_inputs
    for name, data in files.items():
        (root / name).write_bytes(data)
    for verb in CONFIGS:
        out = root / f"{verb}.json"
        assert main([verb, "--config", str(root / f"{verb}.yaml"), "--out", str(out)]) in (0, 1)
        assert json.loads(out.read_text(encoding="utf-8"))["metadata"]["mode"] == "oracle"
