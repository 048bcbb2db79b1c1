import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chevalley
from chevalley.cli import main
from chevalley.decompose import compose
from chevalley.rings import make_ring
from chevalley.roots import system
from chevalley.suites import random_factored


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_roots_json_e8():
    code, out = run_cli(["roots", "--system", "E8"])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["roots"]) == 240
    assert obj["maximal"] == [2, 3, 4, 6, 5, 4, 3, 2]


def test_marked_json_has_exceptions():
    code, out = run_cli(["marked", "--system", "D4"])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["gammas"]) == 5
    assert {"beta": [0, 1, 0, 1], "delta": [1, 1, 1, 0], "anchor": [1, 2, 1, 1]} in obj["exceptions"]


def test_verify_outputs_are_byte_identical_for_same_seed():
    args = ["verify", "lemma2", "--system", "A2", "--ring", "zmod:3^4",
            "--count", "5", "--seed", "7"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_seed_changes_change_nothing_about_status():
    code, out = run_cli(["verify", "kernel", "--system", "A2", "--ring", "gf:3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["kernel_dimension"] == 0
    code, out = run_cli(["verify", "kernel", "--system", "A2", "--ring", "gf:3", "--control"])
    assert code == 0
    assert json.loads(out)["kernel_dimension"] == 1


def test_verify_marked_text_format():
    code, out = run_cli(["verify", "marked", "--system", "A3", "--format", "text"])
    assert code == 0
    assert "marked A3: ok" in out


def test_verify_lemma3_with_explicit_unit():
    code, out = run_cli(["verify", "lemma3", "--system", "A3", "--ring", "zmod:5^3",
                         "--r", "2", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_adjoint_exports():
    code, out = run_cli(["adjoint", "--system", "A2", "--kind", "x", "--root", "1,1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["ring"] == "int" and obj["n"] == 8
    code, out = run_cli(["adjoint", "--system", "A3", "--kind", "graph", "--delta", "flip"])
    assert code == 0
    assert json.loads(out)["ring"] == "gf:3"


def test_decompose_round_trip(tmp_path):
    sys = system("A2")
    ring = make_ring("zmod:3^4")
    import random

    f = random_factored(sys, ring, random.Random(3))
    X = compose(sys, f)
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(X.mat.to_json()))
    code, out = run_cli(["decompose", "--system", "A2", "--ring", "zmod:3^4",
                         "--matrix-file", str(path)])
    assert code == 0
    assert json.loads(out) == f.to_json()


def test_decompose_failure_exits_one(tmp_path):
    ring = make_ring("zmod:3^4")
    from chevalley.matrices import Mat

    bad = Mat.identity(ring, 8).with_entry(5, 5, ring.from_int(3))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    code, _ = run_cli(["decompose", "--system", "A2", "--ring", "zmod:3^4",
                       "--matrix-file", str(path)])
    assert code == 1


def test_bad_configuration_exits_two(capsys, tmp_path):
    code, _ = run_cli(["roots", "--system", "B3"])
    assert code == 2
    code, _ = run_cli(["verify", "kernel", "--system", "A2", "--ring", "zmod:3^3"])
    assert code == 2
    code, _ = run_cli(["verify", "nosuch", "--system", "A2", "--ring", "gf:3"])
    assert code == 2
    code, _ = run_cli(["verify", "graph", "--system", "D4"])
    assert code == 2
    capsys.readouterr()
    identity = tmp_path / "identity.json"
    rows = [[int(i == j) for j in range(8)] for i in range(8)]
    identity.write_text(json.dumps({"n": 8, "ring": "int", "rows": rows}))
    # a 400 KB file naming n = 100000, with empty rows: refused before the
    # n x n array is allocated
    oversized = tmp_path / "oversized.json"
    oversized.write_text(json.dumps({"n": 100000, "ring": "zmod:3^2", "rows": [[]] * 100000}))
    for argv in (["verify", "lemma2", "--system", "A2", "--ring", "zmod:3^2", "--count", "-3"],
                 ["verify", "jacobi", "--system", "E6", "--count", "-1"],
                 # options the chosen suite does not take
                 ["verify", "kernel", "--system", "A2", "--ring", "gf:3", "--seed", "3"],
                 ["verify", "commutator", "--system", "A2", "--ring", "gf:3", "--count", "5"],
                 ["verify", "eq1", "--system", "A2", "--ring", "gf:3", "--r", "2"],
                 # one explicit unit with an instance count
                 ["verify", "lemma3", "--system", "A2", "--ring", "zmod:5^3", "--r", "2", "--count", "5"],
                 ["verify", "jacobi", "--system", "A2", "--ring", "gf:3"],
                 ["verify", "graph", "--system", "A2", "--ring", "gf:3", "--control"],
                 # recovery over a ring not known to be local
                 ["verify", "lemma2", "--system", "A2", "--ring", "ext:zmod:5^2:2:3", "--count", "2"],
                 ["decompose", "--system", "A2", "--ring", "ext:gf:7:3:2", "--matrix-file", str(identity)],
                 ["decompose", "--system", "A2", "--ring", "zmod:3^2", "--matrix-file", str(oversized)],
                 # a rank above roots.MAX_RANK, refused before its Cartan matrix
                 ["roots", "--system", "A100000"],
                 # argparse errors: a missing value, a non-integer, an unknown verb
                 ["verify", "lemma2", "--system", "A2", "--ring"],
                 ["verify", "lemma2", "--system", "A2", "--ring", "gf:3", "--count", "x"],
                 ["nosuch"]):
        code, out = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


# a usage error, then two verbs: the parser built by the first call serves
# the later ones
ONE_PROCESS_ARGVS = (
    ["verify", "lemma2", "--system", "A2", "--ring"],
    ["verify", "lemma2", "--system", "A2", "--ring", "zmod:3^2", "--count", "2"],
    ["roots", "--system", "A2"],
)

ONE_PROCESS_SCRIPT = """
import contextlib, io, json, sys
from chevalley import cli
built = []
build = cli.build_parser
cli.build_parser = lambda: built.append(1) or build()
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"built": len(built), "runs": runs}))
"""


def test_one_process_runs_verbs_as_separate_processes_do():
    env = dict(os.environ, PYTHONPATH=str(Path(chevalley.__file__).resolve().parents[1]))

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, check=False)

    one = json.loads(run("-c", ONE_PROCESS_SCRIPT, json.dumps(ONE_PROCESS_ARGVS)).stdout)
    assert one["built"] == 1
    for argv, got in zip(ONE_PROCESS_ARGVS, one["runs"]):
        alone = run("-m", "chevalley", *argv)
        assert got == [alone.returncode, alone.stdout, alone.stderr], argv
    codes = [code for code, _, _ in one["runs"]]
    usage_err = one["runs"][0][2]
    assert codes == [2, 0, 0]
    assert usage_err.startswith("error: ") and usage_err.count("\n") == 1


def test_seeded_lemma2_over_a_large_prime_field_finishes():
    # over a field the radical is {0}: each radical parameter is zero with no
    # draw, where rejection sampling took q = 49999991 tries a parameter
    code, out = run_cli(["verify", "lemma2", "--system", "A2", "--ring", "gf:49999991", "--count", "100"])
    rep = json.loads(out)
    assert code == 0 and rep["ok"] and rep["checks"] == 100


def test_verify_failure_exit_code_is_one(monkeypatch):
    # force a suite failure by asking the control question without the flag
    from chevalley import suites

    def broken(system_token, ring_desc, control=False):
        rep = suites.suite_kernel(system_token, ring_desc, control)
        rep["ok"] = False
        rep["failed"] = 1
        rep["failures"] = [{"forced": True}]
        return rep

    monkeypatch.setitem(suites.SUITES, "kernel", broken)
    code, _ = run_cli(["verify", "kernel", "--system", "A2", "--ring", "gf:3"])
    assert code == 1


def _matrix_json(desc):
    import random

    f = random_factored(system("A2"), make_ring(desc), random.Random(3))
    return compose(system("A2"), f).mat.to_json()


def _eye_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _fewer_rows(obj):
    obj["rows"] = obj["rows"][:-1]


def _extra_rows(obj):
    obj["rows"].append(list(obj["rows"][0]))


def _float_entry(obj):
    obj["rows"][2][3] = 1.5


def _n3(obj):
    obj["n"], obj["rows"] = 3, _eye_rows(3)


def _rows_not_a_list(obj):
    obj["rows"] = 7


def _n10(obj):
    obj["n"], obj["rows"] = 10, _eye_rows(10)


def _entry_of_wrong_depth(obj):
    obj["rows"][0][0] = [1, 0]


def _not_an_object(obj):
    obj.clear()
    obj["__replace__"] = [1, 2, 3]


@pytest.mark.parametrize("mangle", [_fewer_rows, _extra_rows, _float_entry, _n3,
                                    _rows_not_a_list, _n10, _entry_of_wrong_depth,
                                    _not_an_object],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_decompose_malformed_matrix_exits_two(mangle, tmp_path, capsys):
    obj = _matrix_json("zmod:3^4")
    mangle(obj)
    payload = obj.get("__replace__", obj)
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(["decompose", "--system", "A2", "--ring", "zmod:3^4",
                         "--matrix-file", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "matmul" not in err


# valid A2 matrices at depth 1 and 2, the starting points of the mangling
_MATRICES = {desc: _matrix_json(desc) for desc in ("zmod:3^4", "trunc:3:2")}
_JUNK = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
                  st.text(max_size=3), st.integers(-2**70, 2**70),
                  st.lists(st.integers(-9, 9), max_size=3),
                  st.lists(st.lists(st.integers(0, 2), max_size=2), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=2))


@st.composite
def _mangled_matrix(draw):
    """(ring descriptor, JSON text): a valid matrix with one to three of its
    n, rows, entries, keys or ring replaced, cut or padded, possibly wrapped
    into a non-object or nested deeper than the parser recurses."""
    desc = draw(st.sampled_from(sorted(_MATRICES)))
    obj = json.loads(json.dumps(_MATRICES[desc]))
    rows = obj["rows"]
    n = len(rows)
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        how = draw(st.sampled_from(["n", "ragged", "entry", "value", "depth", "row", "rows", "key",
                                    "ring"]))
        row = rows[i] if isinstance(rows[i], list) and rows[i] else None
        if how == "n":
            obj["n"] = draw(st.one_of(st.integers(-2, 2 * n), _JUNK))
        elif how == "ragged" and row is not None:
            rows[i] = row[:j % len(row)] if draw(st.booleans()) else row + row[:j % len(row) + 1]
        elif how == "entry" and row is not None:
            row[j % len(row)] = draw(_JUNK)
        elif how == "value" and row is not None:
            row[j % len(row)] = draw(st.integers(-2**70, 2**70))
        elif how == "depth" and row is not None:
            depth = make_ring(desc).depth
            k = draw(st.integers(0, 4).filter(lambda k: k != depth))
            row[j % len(row)] = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k))
        elif how == "row":
            rows[i] = draw(_JUNK)
        elif how == "rows":
            obj["rows"] = draw(st.one_of(_JUNK, st.just(rows[:j]), st.just(rows + rows[:j + 1])))
        elif how == "key":
            del obj[draw(st.sampled_from(sorted(obj)))]
        elif how == "ring":
            obj["ring"] = draw(st.one_of(st.sampled_from(["int", "gf:3", "zmod:3^4", "trunc:3:2", ""]), _JUNK))
    wrap = draw(st.sampled_from(["object", "object", "list", "junk", "nested"]))
    if wrap == "list":
        obj = [obj]
    elif wrap == "junk":
        obj = draw(_JUNK)
    text = json.dumps(obj)
    if wrap == "nested":
        depth = draw(st.sampled_from([1, 50, 100_000]))
        text = "[" * depth + text + "]" * depth
    return desc, text


@settings(max_examples=300, deadline=None)
@given(_mangled_matrix())
def test_malformed_matrix_fuzz_exits_cleanly(case):
    """Wrong n, ragged rows, non-integer entries, entries of the wrong depth,
    missing keys and non-objects: no traceback, and exit 2 is one error line."""
    desc, text = case
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["decompose", "--system", "A2", "--ring", desc, "--matrix-file", "-"])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out.getvalue() == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("desc", ["trunc:3:100000", "ext:gf:3:1:100000"])
def test_oversized_ring_is_refused_before_allocating(desc, capsys):
    # the multiplication tensors would need 8 * 10^15 bytes
    code, out = run_cli(["verify", "lemma2", "--system", "A2", "--ring", desc])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


_FIELD = st.sampled_from(["0", "1", "2", "3", "4", "5", "9", "25", "1,1", "-3", "x", "", "3.5",
                          "100000", "10" * 12, "3" * 30])
_BASE = st.sampled_from(["zmod:5^2", "gf:3", "trunc:3:2", "ext:gf:3:1:2", "gf:4", "zmod:2", "trunc:3"])
_DESCRIPTOR = st.one_of(
    st.builds("zmod:{}^{}".format, _FIELD, _FIELD),
    st.builds("zmod:{}".format, _FIELD),
    st.builds("gf:{}".format, _FIELD),
    st.builds("trunc:{}:{}".format, _FIELD, _FIELD),
    st.builds("trunc:{}".format, _FIELD),
    st.builds("ext:{}:{}:{}".format, _BASE, _FIELD, _FIELD),
    st.builds("ext:{}:{}".format, _BASE, _FIELD),
    st.text(alphabet="zmodgftrunex:^,0123456789 -\n", max_size=16).filter(lambda t: not t.startswith("-")),
)


@settings(max_examples=300, deadline=None)
@given(_DESCRIPTOR)
def test_ring_descriptor_fuzz_exits_cleanly(desc):
    """Missing fields, non-integers, p = 2, composite p, k = 0, huge k or m
    and nested extensions: no traceback, and exit 2 is one error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "lemma2", "--system", "A2", "--ring", desc, "--count", "1"])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out.getvalue() == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert json.loads(out.getvalue())["ring"]


# Golden stdout: the SHA-256 of every verb's output on A2 and D4, recorded
# before the exact solvers were merged; every refactor must keep them.
_GOLDEN_SYSTEMS = {
    "A2": {"root": "1,1", "delta": "flip", "ring": "zmod:3^4"},
    "D4": {"root": "1,1,1,1", "delta": "triality", "ring": "zmod:3^2"},
}


def _golden_cases():
    cases = []
    for s, o in _GOLDEN_SYSTEMS.items():
        S = ["--system", s]
        cases += [
            (f"{s}-roots", ["roots", *S]),
            (f"{s}-roots-text", ["roots", *S, "--format", "text"]),
            (f"{s}-marked", ["marked", *S]),
            (f"{s}-adjoint-x", ["adjoint", *S, "--kind", "x", "--root", o["root"]]),
            (f"{s}-adjoint-t", ["adjoint", *S, "--kind", "t", "--index", "2"]),
            (f"{s}-adjoint-graph", ["adjoint", *S, "--kind", "graph", "--delta", o["delta"],
                                    "--ring", "zmod:3^2"]),
            (f"{s}-decompose", ["decompose", *S, "--ring", o["ring"]]),
            (f"{s}-eq1", ["verify", "eq1", *S, "--ring", "zmod:3^2", "--count", "2", "--seed", "1"]),
            (f"{s}-commutator", ["verify", "commutator", *S, "--ring", "trunc:3:2", "--seed", "2"]),
            (f"{s}-lemma2", ["verify", "lemma2", *S, "--ring", "zmod:3^3", "--count", "4", "--seed", "3"]),
            (f"{s}-lemma2-text", ["verify", "lemma2", *S, "--ring", "trunc:5:3", "--count", "2",
                                  "--format", "text"]),
            (f"{s}-lemma3-ext", ["verify", "lemma3", *S, "--ring", "zmod:5^2", "--count", "2", "--seed", "4"]),
            (f"{s}-lemma3-r", ["verify", "lemma3", *S, "--ring", "zmod:5^3", "--r", "2", "--seed", "5"]),
            (f"{s}-marked-suite", ["verify", "marked", *S]),
            (f"{s}-jacobi", ["verify", "jacobi", *S, "--count", "200", "--seed", "6"]),
            (f"{s}-graph", ["verify", "graph", *S, "--ring", "gf:5"]),
            (f"{s}-certificate", ["verify", "certificate", *S, "--ring", "zmod:3^2", "--count", "2",
                                  "--seed", "7"]),
        ]
    return cases + [
        ("A2-eq1-default", ["verify", "eq1", "--system", "A2", "--ring", "gf:7"]),
        ("A2-lemma3-default", ["verify", "lemma3", "--system", "A2", "--ring", "zmod:5^2"]),
        ("A2-kernel", ["verify", "kernel", "--system", "A2", "--ring", "gf:3"]),
        ("A2-kernel-control", ["verify", "kernel", "--system", "A2", "--ring", "gf:3", "--control"]),
    ]


GOLDEN_SHA256 = {
    "A2-roots": "57e60629d037653de45a4ae1780bf0fdd32b648481073ec11787d17f15c4f898",
    "A2-roots-text": "d708805f02a0c059b777a17f9769b5ae1c4ace993e99b88391064ad2fc998c7e",
    "A2-marked": "e1a7afdd977c816611193400789e4c459309f6a29cafe67032887e398bbd131e",
    "A2-adjoint-x": "bdc527f01bece70caf2cea25cd04ce05d6728dddb0144e4aa8494281d5734e4e",
    "A2-adjoint-t": "73f047b21f57d74fb44f87296e9f219e54dea343f89c8e6d7ca3650387021923",
    "A2-adjoint-graph": "de31b691702c7fd51ddf4d1fdd90b403308fcfb6f5a7772828d1d2f97d770354",
    "A2-decompose": "f8dad87f2d6089fd98e4195c07604b4acf63da6f626e634c28e00c0a3ca45c59",
    "A2-eq1": "062fa0f4ee52085f7cd9d50fcc13c2e639609971b39514f71f37c37d3510d608",
    "A2-commutator": "870564a920af4a8e025b900d2278d703f60398f7e81b66310ecbb2da05d698d6",
    "A2-lemma2": "dd5791ec7172358bf4aaf5912397822ddac6e162d19d6544d510ad4349c92c75",
    "A2-lemma2-text": "c86fc70d114f93a8237046a85f03d2bcc8751596909f286be745fa09b8441f55",
    "A2-lemma3-ext": "1a5f745aefdb1c9c35aedfdb7cb1fe219bd1603c288d97d4556fc3db5cbb2b45",
    "A2-lemma3-r": "98943088da39ff76ad3f351e33edd06c044e924eb78dd4fb0c66ab11a047f534",
    "A2-marked-suite": "d5310f032f2806da13f7ba6bccdde844ca5083dc0d9e22e0ca6780b6a03405eb",
    "A2-jacobi": "2fee12e6104ca5f144b92adaebaaa0d069726c4460c69dafc142895382a716a7",
    "A2-graph": "1d2579a6db8f59a45c2eace60bf818d53c085d57a771a56b82c3c998c1d8cf10",
    "A2-certificate": "6f7977e083c05a22b1f616dfbe95dd819226bd8a6a002559a7dfc52189077ce5",
    "D4-roots": "b1458497836ecda9c28a75540dda884365948d6249f9a6bf046a1943bd47a838",
    "D4-roots-text": "abd407d817ddea0f7123d9c60f908ae39737eebce3b21d4fa1ebd7adbbef32d4",
    "D4-marked": "1b2fd04a4561e337dbd520649b86783d97527fae5a708390df0784b39c6fd56d",
    "D4-adjoint-x": "9cb84862dbc924b3619edcd8e3500e23204fdd90aa1e6bc77afd6f40ec0f2bd2",
    "D4-adjoint-t": "0b7776e0a6e149a05e80edf3fd013dc89f634a24157dbe0b0a973449592dfe57",
    "D4-adjoint-graph": "d6e8391cf01b0adc901bdf7ab47f7458a34e87b5b06d25825fe279fe992c190b",
    "D4-decompose": "c011f06d53d058ed9250e002e53f5eb9f4d9d4c88fa7afb655840e0cf8a9dd85",
    "D4-eq1": "57c9de1eaac862ae3abf9ea021fd22e77b9ae3e5bfe1088ea721df5057dc3c4b",
    "D4-commutator": "138ab4fff1878b8c4aa4427a847fb5a378133426bd82519b6ded990e60d20090",
    "D4-lemma2": "3bac0eaa44e3d8ca8675318df55b7e5ba94872ecd0bdce229d79b3c5b07ac35a",
    "D4-lemma2-text": "4e4eebe0b6a97cc06e6455d1c380289518c3582f337b3b9ea355bf56eb57c990",
    "D4-lemma3-ext": "a9c056d297656ff9b6225873548ca5274c4cd07ec916607a8163bd01b2bbe30a",
    "D4-lemma3-r": "659f50668330f5c1ff82027114df83247f5b09cb49b41dc2da8b017177387704",
    "D4-marked-suite": "adcb817e478717d8a935374900d0a7ecc5b3153e06112be3127aa1f72b7177a0",
    "D4-jacobi": "8d92ece3332cdced88a0d7eaf7b45a9b390ee661be1ee1e9cd00715ade9c26ff",
    "D4-graph": "890af2d4071ed15616324ffd584c184239be25d32f6f46b0a079d5bf82532d81",
    "D4-certificate": "284a228884c07025c35696b182a822a73d0edf48a7ab8930b127ea4ef5ef9b79",
    "A2-eq1-default": "64a0905ae5e0acfec90f523a56195ac357c3fce76d910350109101c8fd97dcea",
    "A2-lemma3-default": "5e437d52156a41dab04dd6ac4d174949a42b0f567601fd5a50d3b060778adc4f",
    "A2-kernel": "448fab44a55036d2d6f4ed9ddef929193b65a088360d4cc1fff85ad6d34642e4",
    "A2-kernel-control": "5459b59b717facfadd1b86e8879ed3fc799dd723b734c9594b27adb6c8fafd56",
}


@pytest.mark.parametrize("argv", [c[1] for c in _golden_cases()], ids=[c[0] for c in _golden_cases()])
def test_golden_cli_stdout(argv, request, tmp_path):
    import hashlib
    import random

    if argv[0] == "decompose":
        sy, ring = system(argv[2]), make_ring(argv[4])
        path = tmp_path / "mat.json"
        path.write_text(json.dumps(compose(sy, random_factored(sy, ring, random.Random(3))).mat.to_json()))
        argv = argv + ["--matrix-file", str(path)]
    code, out = run_cli(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[request.node.callspec.id]
