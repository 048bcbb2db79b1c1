import io
import json

import pytest

from chevalley.cli import main
from chevalley.decompose import compose
from chevalley.rings import make_ring
from chevalley.roots import system
from chevalley.suites import random_factored


def run_cli(argv):
    import contextlib

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


def test_bad_configuration_exits_two():
    code, _ = run_cli(["roots", "--system", "B3"])
    assert code == 2
    code, _ = run_cli(["verify", "kernel", "--system", "A2", "--ring", "zmod:3^3"])
    assert code == 2
    code, _ = run_cli(["verify", "nosuch", "--system", "A2", "--ring", "gf:3"])
    assert code == 2
    code, _ = run_cli(["verify", "graph", "--system", "D4"])
    assert code == 2


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


def _a2_matrix_json():
    import random

    f = random_factored(system("A2"), make_ring("zmod:3^4"), random.Random(3))
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
    obj = _a2_matrix_json()
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
