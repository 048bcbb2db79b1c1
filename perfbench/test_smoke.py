"""Smoke test of the benchmark on A2 and D4, in a few seconds.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload path at tiny size, shows that the digest gate rejects a
corrupted output and fails the command, that the tracer's exact product
counts hold, and that the benchmark refuses to run without the package.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer, product_counts  # noqa: E402
from workloads import Case, Certify, CheckFailed, Formula, Kernel, Mix, Roundtrip, verify_case  # noqa: E402

SMALL = [
    Roundtrip(name="roundtrip-a2", system="A2", pool=2),
    Roundtrip(name="roundtrip-d4", system="D4", pool=2),
    Certify(name="certify-a2", system="A2", lift_count=1, pool=2),
    Certify(name="certify-d4", system="D4", lift_count=1, pool=2),
    Kernel(name="kernel-d4", system="D4", control_system="A2"),
    Formula(name="formula-a2", system="A2",
            cells=(((1, 1), (1, 1)), (("h", 0), ("h", 1)), ((-1, -1), (1, 1)))),
    Formula(name="formula-d4", system="D4",
            cells=(((1, 0, 0, 0), (1, 0, 0, 0)), (("h", 1), ("h", 1)), ((-1, -1, -1, -1), (0, 1, 0, 0)))),
    Mix("mix-a2-d4", (Roundtrip(system="A2", pool=2), Kernel(system="D4", control_system="A2"))),
]


def record(workload, pkg) -> dict:
    return {case.key: run.digest(case.run()) for case in workload.pool(pkg)}


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_every_workload_path_passes_its_checks(workload):
    _, pkg = run.set_up(workload)
    digests = record(workload, pkg)
    lat, failed, _ = run.run_loop(workload, pkg, random.Random(1), 0, digests)
    assert failed == 0
    assert len(lat) == len(workload.cycle(pkg, random.Random(1)))


class _Corrupted(Roundtrip):
    """The A2 round trip with one byte appended to every output."""

    def cycle(self, pkg, rng):
        return [Case(c.key, lambda c=c: c.run() + " ") for c in super().cycle(pkg, rng)]


def test_digest_gate_rejects_a_corrupted_output(tmp_path, monkeypatch, capsys):
    honest = Roundtrip(name="roundtrip-a2", system="A2", pool=2)
    _, pkg = run.set_up(honest)
    digests = record(honest, pkg)
    bad = _Corrupted(name="corrupted-a2", system="A2", pool=2)
    _, failed, _ = run.run_loop(bad, pkg, random.Random(1), 0, digests)
    assert failed == 3

    path = tmp_path / "digests.json"
    path.write_text(json.dumps(digests))
    monkeypatch.setattr(run, "DIGESTS", path)
    monkeypatch.setitem(run.WORKLOADS, bad.name, bad)
    monkeypatch.setitem(run.WORKLOADS, honest.name, honest)
    assert run.main(["--workload", honest.name, "--seconds", "0"]) == 0
    capsys.readouterr()
    assert run.main(["--workload", bad.name, "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"] == 3


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_match_benchmark_json(trace, section, tmp_path, monkeypatch, capsys):
    workload = Roundtrip(name="roundtrip-a2", system="A2", pool=2)
    _, pkg = run.set_up(workload)
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(record(workload, pkg)))
    monkeypatch.setattr(run, "DIGESTS", path)
    monkeypatch.setitem(run.WORKLOADS, workload.name, workload)
    assert run.main(["--workload", workload.name, "--seconds", "0", "--trace", str(trace)]) == 0
    got = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())[section]
    assert {k: m["unit"] for k, m in got.items()} == {m["name"]: m["unit"] for m in spec}


def test_kernel_dimension_check_rejects_a_wrong_dimension():
    workload = Kernel(system="A2", control_system="A2")
    _, pkg = run.set_up(workload)
    case = verify_case(pkg, ("kernel", "--system", "A2", "--ring", "gf:3"), {"kernel_dimension": 1})
    with pytest.raises(CheckFailed):
        case.run()


@pytest.mark.parametrize("system", ["A2", "D4"])
def test_exact_product_counts_hold(system):
    workload = Roundtrip(name=f"roundtrip-{system}", system=system, pool=2)
    digests = record(workload, run.set_up(workload)[1])
    tracer = Tracer()
    _, pkg = run.set_up(workload, tracer)
    run.run_loop(workload, pkg, random.Random(1), 0, digests, tracer)
    sweeps, composes, problems = product_counts(tracer.spans)
    assert problems == []
    assert composes == 8 and len(sweeps) == 3 and min(sweeps) >= 1
    names = {s[0] for s in tracer.spans}
    # reached only through names bound in other modules or in suites.SUITES
    assert {"suites.suite_lemma2", "group.x_elem", "decompose.recover", "cli.main"} <= names
    sy = pkg.roots.system(system)
    for i in [i for i, s in enumerate(tracer.spans) if s[0] == "decompose.compose"]:
        inside = [s for s in tracer.spans if _under(tracer.spans, s, i)]
        assert sum(s[0] == "matrices.Mat.matmul" for s in inside) == sy.rank + 2 * sy.m
        assert sum(s[0] == "group.x_elem" for s in inside) == 2 * sy.m


def _under(spans, span, ancestor) -> bool:
    p = span[3]
    while p >= 0:
        if p == ancestor:
            return True
        p = spans[p][3]
    return False


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "standardize-formula-d5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
