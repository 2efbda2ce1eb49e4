"""One benchmark sample, run in a fresh process by ``run.py``.

Usage: ``python sample.py WORKLOAD SEED SIZE [TRACE_FILE]``

Prints one JSON object as its last line: raw (not yet host-normalised)
setup and solve seconds, peak RSS, CPU times, the exact counts of the
output check and, when ``TRACE_FILE`` is given, the raw per-layer metrics
of the traced solve, whose Chrome trace is written to ``TRACE_FILE``.
Setup time starts at the first statement, so it includes every import.
"""

import time

_STARTED = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

#: Which layer's LOCAL round count a workload's result reports.
ROUNDS_METRIC = {"edge96": "colouring.local_rounds", "synth4": "speedup.local_rounds"}


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run(workload_name: str, seed: int, size: str, trace_file: str = "") -> dict:
    record: dict = {"ok": False}
    instrumentation = None
    try:
        from workloads import WORKLOADS, CheckFailed

        workload = WORKLOADS[workload_name]
        inputs = workload.setup(seed, size)
        record["setup_raw_s"] = time.perf_counter() - _STARTED
        if trace_file:
            import layers
            from repro.observability import trace

            instrumentation = layers.Instrumentation()
            instrumentation.install()
            tracer = trace.Tracer()
        gc.collect()
        parent_cpu = _cpu_s(resource.RUSAGE_SELF)
        worker_cpu = _cpu_s(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        if trace_file:
            with trace.capture(tracer), trace.span(layers.ROOT_SPAN):
                output = workload.solve(inputs)
        else:
            output = workload.solve(inputs)
        record["solve_raw_s"] = time.perf_counter() - started
        if instrumentation is not None:
            instrumentation.remove()  # the check's own calls are not counted
        record["parent_cpu_s"] = _cpu_s(resource.RUSAGE_SELF) - parent_cpu
        record["worker_cpu_s"] = _cpu_s(resource.RUSAGE_CHILDREN) - worker_cpu
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            record["counts"] = workload.check(inputs, output)
        except CheckFailed as failure:
            record["error"] = f"check failed: {failure}"
            return record
        from repro.observability import metrics

        # Engine rounds per tier come from the always-on registry, so they
        # are checked on untraced samples too.
        for key, value in metrics.registry().snapshot()["counters"].items():
            if key.startswith("engine_rounds_total"):
                record["counts"][key] = value
        if trace_file:
            rounds = {}
            if workload_name in ROUNDS_METRIC:
                rounds[ROUNDS_METRIC[workload_name]] = record["counts"]["local_rounds"]
            record["layers"] = layers.layer_metrics(tracer, instrumentation.counts, rounds)
            trace.write_trace(tracer, trace_file)
        record["ok"] = True
    except Exception:  # noqa: BLE001 - any failure of the experiment is a failed sample
        record["error"] = traceback.format_exc(limit=-3)
    finally:
        if instrumentation is not None:
            instrumentation.remove()
    return record


if __name__ == "__main__":
    arguments = sys.argv[1:]
    print(json.dumps(run(arguments[0], int(arguments[1]), arguments[2], *arguments[3:])))
