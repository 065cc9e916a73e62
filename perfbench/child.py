"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds "commands" (argument lists for `hopsign`), "logs" (one
[stdout, stderr] path pair per command) and "spans" (where to write the
recorded spans, or null for an untraced run).  The child
imports hopsign.cli as the `hopsign` console script does, probes the CPU
speed (calib.py), then runs the commands in order in this process with a
speed probe after each, and prints one JSON line: the monotonic clock when
the imports were done, each command's wall and CPU time, the probes, the
peak RSS of the process, each command's exit code, and with tracing the
per-layer self times and counts.
"""

import contextlib
import json
import sys
import time
import traceback


def _run(cli, argv, out_path, err_path):
    """Run one command with its output captured; returns (exit code,
    whether it raised)."""
    with open(out_path, "w") as out, open(err_path, "w") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv), False
        except SystemExit as exc:
            return (exc.code if isinstance(exc.code, int) else 1), False
        except Exception:
            traceback.print_exc()
            return None, True


def _peak_rss_kb():
    """Resident-set high-water mark of this process image.  ru_maxrss would
    also count the parent's resident set at spawn time: Linux carries it
    across exec."""
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f
                    if line.startswith("VmHWM:"))


def main():
    spec = json.loads(sys.argv[1])
    import hopsign.cli as cli
    t_ready = time.monotonic()
    import calib
    tracer = None
    if spec["spans"]:
        from tracer import Tracer
        tracer = Tracer().install()
    probes = [calib.slowdown()]
    results = []
    try:
        for argv, (out_path, err_path) in zip(spec["commands"], spec["logs"]):
            cpu0, t0 = time.process_time(), time.perf_counter()
            rc, raised = _run(cli, argv, out_path, err_path)
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            results.append({"rc": rc, "raised": raised, "wall_s": wall,
                            "cpu_s": cpu})
            probes.append(calib.slowdown())
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {
        "t_ready": t_ready,
        "probes": probes,
        "maxrss_kb": _peak_rss_kb(),
        "commands": results,
    }
    if tracer is not None:
        report["self_s"] = tracer.self_times()
        report["counts"] = tracer.counts
        with open(spec["spans"], "w") as f:
            json.dump(tracer.spans, f)
    print(json.dumps(report))

if __name__ == "__main__":
    main()
