"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 -m pytest perfbench/test_selftest.py -q

Every workload runs once untraced and once traced, as a subprocess the way
the benchmark is invoked; each metric named in BENCHMARK.json must appear
with its unit. A deliberately corrupted aligned map must show up as a
failed op, and a directory holding only the benchmark must fail cleanly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import run as bench  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(spec, cwd, *args):
    argv = [*spec["command"], *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def _tiny_args(workload, trace, out):
    return ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
            "--scale", "tiny", "--out", str(out)]


def test_spec_names_the_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_every_named_metric_appears_with_its_unit(spec, workload, trace, tmp_path):
    proc = _bench(spec, ROOT, *_tiny_args(workload, trace, tmp_path / "record.json"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"], m["name"]
        assert isinstance(reported["value"], (int, float)), m["name"]
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["environment"]["seed"] == 0 and record["environment"]["nproc"] >= 1


@pytest.mark.parametrize("workload", ["pipeline", "inference"])
def test_corrupted_aligned_map_is_a_failed_op(workload, tmp_path, monkeypatch, capsys):
    from scorealign import cli, tensorio

    real_main = cli.main

    def main_then_corrupt(argv):
        code = real_main(argv)
        if argv[0] == "align" and argv[argv.index("--mode") + 1] == "oracle":
            out = Path(argv[argv.index("--out") + 1])
            victim = sorted(out.glob("*_testa_*.adt"))[0]
            tensorio.write_tensor(victim, -tensorio.read_tensor(victim))
        return code

    monkeypatch.setattr(cli, "main", main_then_corrupt)
    assert bench.main(_tiny_args(workload, 0, tmp_path / "record.json")) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    failures = json.loads((tmp_path / "record.json").read_text())["failures"]
    assert any("oracle-aligned" in f for f in failures), failures


def test_unreadable_output_is_a_failed_op(tmp_path, monkeypatch, capsys):
    from scorealign import cli

    real_main = cli.main

    def main_then_garble(argv):
        code = real_main(argv)
        if argv[0] == "eval":
            Path(argv[argv.index("--out") + 1]).write_text("scope\n")
        return code

    monkeypatch.setattr(cli, "main", main_then_garble)
    assert bench.main(_tiny_args("pipeline", 0, tmp_path / "record.json")) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["raw_mixed_i_auroc"]["value"] is None


def test_fails_cleanly_without_the_program(spec, tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(spec, tmp_path, *_tiny_args("pipeline", 0, tmp_path / "record.json"))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
