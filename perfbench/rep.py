"""One repetition of the benchmark, in a fresh interpreter.

Run as `python3 perfbench/rep.py CONFIG_JSON`.  The process imports
shatrv.cli before anything else so that the parent can time set-up from
its spawn to the end of that import, then (unless CONFIG_JSON has no
"argv") makes one `shatrv bench` call in-process and prints one JSON line:
the import timestamp, the time of the reference loop (reference_s) run
after the import and, with a call, run again after the call (the mean
of the two), the call's wall time and exit code, the process's peak
resident memory, and with "trace" set the traced layer times and
entry-point call counts.  A trace that cannot attribute time exits with
TRACE_EXIT.  The tracer is imported only for a traced call, so untraced
calls pay for nothing but shatrv.
"""

import os
import sys
import time

TRACE_EXIT = 3
REF_ITERATIONS = 400_000


def reference_s():
    """Host seconds for a fixed loop shaped like an interpreter's inner loop:
    register-list reads and writes, 32-bit masking and a dict memory.  It
    runs in the same process as the bench call, next to it in time, so
    that the host's speed and the process's memory layout are those the
    call saw."""
    regs = [0] * 32
    mem = {}
    t0 = time.perf_counter()
    for i in range(REF_ITERATIONS):
        x = (regs[(i >> 2) & 31] + regs[(i * 7) & 31] + i) & 0xFFFFFFFF
        regs[i & 31] = x ^ (x >> 5)
        mem[i & 1023] = x
        if x & 1:
            regs[(i + 3) & 31] = mem.get((i - 1) & 1023, 0)
    return time.perf_counter() - t0


def main(config, cli, imported_at):
    import json
    import resource

    result = {"imported_at": imported_at, "ref_s": reference_s()}
    argv = config.get("argv")
    if argv is not None and config.get("trace"):
        from tracer import TraceError, Tracer
        try:
            tracer = Tracer().install()
            t0 = time.perf_counter()
            rc = cli.main(argv)
            result["wall_s"] = time.perf_counter() - t0
            tracer.uninstall()
            tracer.check()
        except TraceError as e:
            print(f"trace error: {e}", file=sys.stderr)
            return TRACE_EXIT
        result["layers"] = tracer.layer_self_times()
        result["calls"] = tracer.calls()
        result["spans"] = len(tracer.start)
        result["report_bytes"] = tracer.report_bytes
        tracer.write(config["trace"])
    elif argv is not None:
        t0 = time.perf_counter()
        rc = cli.main(argv)
        result["wall_s"] = time.perf_counter() - t0
    if argv is not None:
        result["ref_s"] = (result["ref_s"] + reference_s()) / 2
        result["rc"] = rc
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import shatrv.cli
    imported_at = time.monotonic()
    import json
    sys.exit(main(json.loads(sys.argv[1]), shatrv.cli, imported_at))
