"""Measurement helpers: percentiles, the environment block, memory and CPU."""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import resource
import statistics
import sys
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of a non-empty sample."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return int(math.floor(count * (100.0 - q) / 100.0 + 1e-9))


def timing_summary(values_s: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99 in ms with the sample count and the samples beyond each tail.

    A percentile is only meaningful with at least ten samples beyond it;
    ``p99_supported`` says whether that holds for p99 (1000 samples or more).
    """
    count = len(values_s)
    ms = [v * 1000.0 for v in values_s]
    return {
        "samples": count,
        "p50_ms": percentile(ms, 50),
        "p90_ms": percentile(ms, 90),
        "p99_ms": percentile(ms, 99),
        "beyond_p90": samples_beyond(count, 90),
        "beyond_p99": samples_beyond(count, 99),
        "p99_supported": samples_beyond(count, 99) >= 10,
    }


def better_quartile(values: Sequence[float], higher_is_better: bool) -> float:
    """The quartile on the better side of per-pass figures; one figure is its own.

    Other tenants of a shared machine only ever make a pass slower, for
    seconds or minutes at a time, so the better quartile of a run's passes
    repeats from run to run where their median follows the host's load.
    Quartiles are ``statistics.quantiles(values, n=4)``.
    """
    if len(values) < 2:
        return float(values[0])
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] if higher_is_better else quartiles[0]


def unattributed_ms_per_doc(wall_ms: float, parts_ms: Mapping[str, float], docs: int) -> float:
    """Wall time not explained by the measured parts, per document."""
    return (wall_ms - sum(parts_ms.values())) / docs


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def _blas_threads() -> object:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def environment() -> Dict[str, object]:
    """CPU count, BLAS library and threads, versions, start method.

    BLAS threads are recorded, not pinned: a later change to pinning in the
    program must show up in the numbers.
    """
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            name: os.environ[name]
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if name in os.environ
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": process_start_method(),
        "platform": sys.platform,
    }


def process_start_method() -> str:
    """The start method the process transport uses when none is given."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


# ----------------------------------------------------------------------
# Memory and CPU of this process and its worker children
# ----------------------------------------------------------------------
def _proc_status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_peak_rss_mb() -> float:
    """Largest peak RSS among the live multiprocessing children, in MB."""
    peaks = [_proc_status_kb(child.pid, "VmHWM") for child in multiprocessing.active_children()]
    return max(peaks, default=0) / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_cpu_seconds(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # utime and stime are fields 14 and 15 of /proc/<pid>/stat (1-based);
    # after the command name they sit at offsets 11 and 12.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_seconds(child_pids: Iterable[int] = ()) -> float:
    """CPU seconds used so far by this process plus the given children."""
    times = os.times()
    return times.user + times.system + sum(_proc_cpu_seconds(pid) for pid in child_pids)


def steal_seconds() -> float:
    """CPU seconds the hypervisor has taken from this machine's CPUs so far.

    A shared virtual machine loses time to its neighbours; the share of it
    during a run tells a noisy run from a slower program.
    """
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0.0
    # The aggregate "cpu" line: user nice system idle iowait irq softirq steal ...
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def child_pids() -> List[int]:
    return [child.pid for child in multiprocessing.active_children()]
