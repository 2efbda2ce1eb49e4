"""Repository benchmark: four paper experiments, timed end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload edge96 --seed 1 --seconds 20 --trace 0

Every sample runs in a fresh process (``sample.py``) with its own synthesis
cache directory, and is bracketed by the host-speed calibration kernel
(``calibrate.py``) in this process. With ``--trace 0`` the run takes
samples until the next would end after ``--seconds`` (at least three, or
two on a slow host) and reports the medians of the end-to-end metrics; with ``--trace 1`` it takes
one untraced and two traced samples and reports the per-layer metrics. The
last line of standard output is the JSON result. See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import calibrate

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("edge96", "certify", "synth4", "flood512")
#: Processes each workload keeps busy at once: flood512 runs two engine
#: workers (REPRO_WORKERS=2), the others one interpreter.
CPUS_USED = {"edge96": 1, "certify": 1, "synth4": 1, "flood512": 2}
#: A run stops sampling, and kills a sample still running, this long after
#: it started, so it ends within the three minutes a run may take.
RUN_LIMIT_S = 165.0
#: A timed run takes at least this many samples, unless the last would end
#: after twice ``--seconds``, and reports their medians.
MIN_SAMPLES = 3


def child_env(seed: int, cache_dir: Path) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(STATE / "pycache"),
        PYTHONHASHSEED=str(seed % 2**32),
        REPRO_WORKERS="2",
        REPRO_CACHE_DIR=str(cache_dir),
    )
    return env


def run_child(
    arguments: List[str], env: Dict[str, str], timeout: float
) -> Tuple[Optional[dict], str]:
    """Run ``sample.py`` in its own session; return its record or an error.

    On timeout the whole process group is killed, so forked engine workers
    do not outlive the run.
    """
    process = subprocess.Popen(
        [sys.executable, str(HERE / "sample.py"), *arguments],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return None, f"sample exceeded {timeout:.0f} s"
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        return None, f"sample exited with {process.returncode}: {stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), ""


def prepare(workload: str, seed: int) -> None:
    """Compile the bytecode once into the benchmark's own cache prefix and
    warm the page cache, by compiling the sources and running the workload
    once at toy size (which also compiles the stdlib and numpy modules it
    imports into the prefix)."""
    cache_dir = STATE / "cache" / "warm"
    env = child_env(seed, cache_dir)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", str(HERE.relative_to(ROOT))],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        check=True,
    )
    record, error = run_child([workload, str(seed), "toy"], env, RUN_LIMIT_S / 2)
    shutil.rmtree(cache_dir, ignore_errors=True)
    if record is None or not record["ok"]:
        raise RuntimeError(f"toy-size warm-up of {workload} failed: {error or record.get('error')}")


class Sampler:
    """Takes calibrated samples of one workload; each sample's bracket is
    the calibration just before it and the one just after.

    The host's vCPUs run at different, changing speeds (on the 2-vCPU host
    the benchmark was defined on, one ran the kernel 0.12 s and the other
    0.18 s, at the same moment). So each sample is pinned to a fixed set of
    CPUs, and the kernel is run on exactly those CPUs.
    """

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.cpus = sorted(os.sched_getaffinity(0))[: CPUS_USED[workload]]
        self.calibration = calibrate.measure(self.cpus)
        self.taken = 0

    def take(self, trace_file: str = "") -> dict:
        self.taken += 1
        cache_dir = STATE / "cache" / f"{self.workload}-{os.getpid()}-{self.taken}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        arguments = [self.workload, str(self.seed), "full"] + ([trace_file] if trace_file else [])
        timeout = max(1.0, self.deadline - time.monotonic())
        loadavg = os.getloadavg()[0]
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.cpus)
        try:
            record, error = run_child(arguments, child_env(self.seed, cache_dir), timeout)
        finally:
            os.sched_setaffinity(0, allowed)
        shutil.rmtree(cache_dir, ignore_errors=True)
        before, self.calibration = self.calibration, calibrate.measure(self.cpus)
        if record is None:
            record = {"ok": False, "error": error}
        calib = (before + self.calibration) / 2
        record["host.calib_s"] = calib
        record["host.loadavg"] = loadavg
        if "solve_raw_s" in record:
            record["host.solve_wall_s"] = record["solve_raw_s"]
            scale = calibrate.normalise(1.0, calib)
            record["setup_s"] = record["setup_raw_s"] * scale
            record["solve_s"] = record["solve_raw_s"] * scale
            record["parent_cpu_s"] *= scale
            record["worker_cpu_s"] *= scale
            for name in record.get("layers", {}):
                if name.endswith("_s"):
                    record["layers"][name] *= scale
        print("sample", json.dumps(record, sort_keys=True), flush=True)
        return record


def check_counts(records: List[dict]) -> None:
    """Mark failed every sample whose exact counts differ from the first
    good sample's: the counts of one seed must repeat exactly."""
    reference = None
    for record in records:
        if not record["ok"]:
            continue
        if reference is None:
            reference = record["counts"]
        elif record["counts"] != reference:
            record["ok"] = False
            record["error"] = f"exact counts differ: {record['counts']} != {reference}"


def timed_run(
    workload: str, seed: int, seconds: int, deadline: float
) -> Tuple[List[dict], Dict[str, dict]]:
    started = time.monotonic()
    sampler = Sampler(workload, seed, deadline)
    records: List[dict] = []
    while True:
        sample_started = time.monotonic()
        records.append(sampler.take())
        cost = time.monotonic() - sample_started
        ends = time.monotonic() + cost
        # On a slow host two samples suffice, so that a run stays within
        # twice its nominal length.
        enough = len(records) >= MIN_SAMPLES or (len(records) >= 2 and ends > started + 2 * seconds)
        if (enough and ends > started + seconds) or ends > deadline:
            break
    check_counts(records)
    timed = [record for record in records if "solve_s" in record]
    if not timed:
        raise RuntimeError(f"no sample of {workload} finished: {records[-1].get('error')}")
    metrics = {
        "solve_s": {"value": statistics.median(r["solve_s"] for r in timed), "unit": "s"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in timed), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in timed), "unit": "MB"},
    }
    return records, metrics


def traced_run(workload: str, seed: int, deadline: float) -> Tuple[List[dict], Dict[str, dict]]:
    """One untraced sample, then two traced ones. Layer times are the mean
    of the traced pair; their exact counts must be identical."""
    sampler = Sampler(workload, seed, deadline)
    trace_file = STATE / "traces" / f"{workload}-seed{seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    records = [sampler.take(), sampler.take(str(trace_file)), sampler.take(str(trace_file))]
    check_counts(records)
    untraced, *traced = records
    good = [record for record in traced if record["ok"]]
    if len(good) == 2:
        first, second = (record["layers"] for record in good)
        differing = [n for n in first if not n.endswith("_s") and first[n] != second[n]]
        if differing:
            good[1]["ok"] = False
            good[1]["error"] = f"exact layer counts differ between traced samples: {differing}"
            good.pop()
    if not good or "solve_s" not in untraced:
        raise RuntimeError(f"traced run of {workload} failed: {traced[-1].get('error')}")
    metrics = {}
    for name in good[0]["layers"]:
        metrics[name] = statistics.mean(record["layers"][name] for record in good)
    metrics["trace_overhead_s"] = statistics.mean(r["solve_s"] for r in good) - untraced["solve_s"]
    metrics["runtime.worker_cpu_s"] = statistics.mean(r["worker_cpu_s"] for r in good)
    metrics["runtime.parent_cpu_s"] = statistics.mean(r["parent_cpu_s"] for r in good)
    print(f"trace written to {trace_file.relative_to(ROOT)}; render it with "
          f"PYTHONPATH=src python -m repro.observability {trace_file.relative_to(ROOT)}",
          flush=True)
    return records, {
        name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
        for name, value in sorted(metrics.items())
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # Exit through the cleanup in run_child, which kills a running sample.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    prepare(args.workload, args.seed)
    if args.trace:
        records, metrics = traced_run(args.workload, args.seed, deadline)
    else:
        records, metrics = timed_run(args.workload, args.seed, args.seconds, deadline)
    failed = sum(1 for record in records if not record["ok"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
