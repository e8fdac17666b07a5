"""Smoke test of the end-to-end benchmark harness.

Run as ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (under 30 s;
tier-1 collects ``tests/`` only, so it does not run this).  It checks
the harness, not the numbers: all four workloads at tiny N, two rounds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
EXACT = ("stored_bytes_per_user_byte", "busiest_disk_pages_per_query")


def _start(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, start_new_session=True,
    )


def _finish(proc: subprocess.Popen) -> dict:
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])["workloads"]


def _process_group(pgid: int) -> list:
    """Pids still alive in a process group."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[2]) == pgid:
            members.append(int(entry.name))
    return members


def _listing(path: Path) -> set:
    return set(os.listdir(path)) if path.is_dir() else set()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two untraced runs of one seed, one of another, one traced run."""
    spans_dir = tmp_path_factory.mktemp("spans")
    shm_before = _listing(Path("/dev/shm"))
    work_before = _listing(ROOT / ".bench_build")
    plain = [_start("--seed", seed) for seed in ("42", "42", "43")]
    results = [_finish(proc) for proc in plain]
    traced_proc = _start(
        "--seed", "42", "--trace",
        "--trace-out", str(spans_dir / "{workload}.json"),
    )
    traced = _finish(traced_proc)
    leftovers = {
        "children": [
            pid for proc in plain + [traced_proc]
            for pid in _process_group(proc.pid)
        ],
        "shm": _listing(Path("/dev/shm")) - shm_before,
        "workdir": _listing(ROOT / ".bench_build") - work_before,
    }
    return results, traced, spans_dir, leftovers


def _assert_matches(contract_metrics: list, result: dict) -> None:
    for name in WORKLOADS:
        assert result[name]["correct"] and result[name]["failed"] == 0
        assert result[name]["attempted"] >= 1
        printed = {
            key: value["unit"]
            for key, value in result[name]["metrics"].items()
        }
        assert printed == {m["name"]: m["unit"] for m in contract_metrics}


def test_every_contract_metric_is_printed_and_vice_versa(runs):
    results, traced, _, _ = runs
    _assert_matches(CONTRACT["end_to_end"], results[0])
    _assert_matches(CONTRACT["per_layer"], traced)


def test_exact_metrics_repeat_and_follow_the_seed(runs):
    (first, second, other), _, _, _ = runs
    for name in WORKLOADS:
        for metric in EXACT:
            value = first[name]["metrics"][metric]["value"]
            assert value == second[name]["metrics"][metric]["value"]
        busiest = "busiest_disk_pages_per_query"
        assert (
            first[name]["metrics"][busiest]["value"]
            != other[name]["metrics"][busiest]["value"]
        )


def test_span_tree_is_well_formed(runs):
    _, traced, spans_dir, _ = runs
    for name in WORKLOADS:
        document = json.loads((spans_dir / f"{name}.json").read_text())
        spans = document["spans"]
        by_id = {span["id"]: span for span in spans}
        roots = [span for span in spans if span["parent"] == -1]
        assert [root["name"] for root in roots] == ["bench.traced_run"]
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] != -1:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"]
        # Spans of one request share its id: the per-call queries of the
        # traced round come back as served requests under the same ids.
        queried = {s["request"] for s in spans if s["name"] == "process.query"}
        served = {s["request"] for s in spans if s["name"] == "serve.request"}
        assert queried and None not in queried | served
        assert queried <= served
        coverage = traced[name]["metrics"]["bench.span_coverage"]["value"]
        assert coverage >= 0.9


def test_nothing_is_left_behind(runs):
    _, _, _, leftovers = runs
    assert leftovers == {"children": [], "shm": set(), "workdir": set()}
