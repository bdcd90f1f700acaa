"""Smoke-size runs of every workload through the command line."""

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from briefbench.streams import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

#: Per-layer figures that must be measured (above 0) on every workload, and
#: the extra ones on the open loop, where they come from the process workers.
LAYERED = (
    "html.parse_ms_per_doc",
    "html.render_ms_per_doc",
    "models.encode_ms_per_doc",
    "models.decode_ms_per_doc",
    "models.heads_ms_per_doc",
    "batched.docs_per_predict",
    "cpu.util",
)
SERVED = ("serving.submit_us_p50", "serving.queue_wait_ms_p50", "transport.return_ms_p50")


def _start(cwd, workload, trace, seconds=1, seed=5):
    """The benchmark in a session of its own, so that every process it starts can be found."""
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--scale", "0.05",
    ]
    return subprocess.Popen(
        [sys.executable] + command[1:],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )


def _session(sid):
    """Live (non-zombie) processes of session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _assert_nothing_left(sid):
    deadline = time.monotonic() + 5.0
    while _session(sid) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _session(sid) == []


def _run(cwd, workload, trace):
    process = _start(cwd, workload, trace)
    stdout, stderr = process.communicate(timeout=170)
    _assert_nothing_left(process.pid)
    return subprocess.CompletedProcess(process.args, process.returncode, stdout, stderr)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    report, result = json.loads("\n".join(lines[:-1])), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    values = {name: figure["value"] for name, figure in result["metrics"].items()}
    if WORKLOADS[workload].rate is None:
        # One latency sample per brief_many call, not one per page.
        pages = report["stream"]["requests_per_pass"]
        calls = report["passes"]["plain"] * math.ceil(pages / WORKLOADS[workload].chunk)
        assert report["end_to_end"]["latency_p90_ms"]["samples"] == calls
    if not trace:
        for name in ("setup_s", "docs_per_s", "latency_p50_ms", "complete_share", "peak_rss_mb"):
            assert values[name] > 0
        return
    served = LAYERED + (SERVED if WORKLOADS[workload].rate is not None else ())
    assert {name: values[name] for name in served if not values[name] > 0} == {}


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="finds the benchmark's processes through /proc")
def test_sigterm_stops_every_process_it_started():
    process = _start(ROOT, "serve_cold", 0, seconds=60)
    deadline = time.monotonic() + 60.0
    # The reference pool's workers come and go first; then servers' workers.
    for phase in (lambda n: n > 1, lambda n: n == 1, lambda n: n > 1):
        while not phase(len(_session(process.pid))) and time.monotonic() < deadline:
            time.sleep(0.01)
    assert process.poll() is None
    process.send_signal(signal.SIGTERM)
    stdout, _ = process.communicate(timeout=60)
    assert process.returncode != 0
    assert '"metrics"' not in stdout
    _assert_nothing_left(process.pid)
