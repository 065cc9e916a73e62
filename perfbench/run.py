"""hopsign benchmark: CLI workloads measured end to end and layer by layer.

    python3 perfbench/run.py --workload union --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a source checkout (the directory holding src/hopsign);
it needs no install.  Each repetition of a workload runs its hopsign commands
in a fresh `python3 perfbench/child.py` process, one process at a time, with
BLAS threads capped at the CPU count: a CLI user pays for the imports and the
lazy caches on every invocation.  Repetitions continue while the next one
fits in --seconds of child time (at least one runs).  Outputs go to a fixed path per
command under .bench_build/perfbench, because the CSV header embeds the
command line.  --seed is recorded with the environment but changes no input:
neither workload has random input.

--trace 0 prints the end-to-end metrics, medians over the repetitions:
  wall_s       summed wall time of the commands, from entering each to its
               return
  setup_s      child spawn to `import hopsign` done (interpreter start and
               imports), also sampled by import-only children
  cpu_s        user + system CPU time of the child over the same commands
  peak_rss_mb  peak resident memory of the child
The times are in seconds of a reference CPU: the host is shared, and its
speed drifts by tens of percent over minutes, so each child probes the CPU
speed before and after every command (calib.py) and each command's time is
divided by the mean slowdown of its two probes.  The probes lie outside the
timed commands.
--trace 1 spends half of --seconds on untraced repetitions and half on
repetitions whose children wrap hopsign's callables with span recorders
(tracer.py), and prints the per-layer metrics, among them the raw
(unnormalised) wall time and the mean slowdown of the untraced repetitions.

Outside the timed region every output is checked (check.py) and hashed.  An
operation is one CLI command; it fails on a nonzero exit code, a traceback, a
failed check, or output bytes that differ from another run of the same
command on the same source tree.  The last stdout line is one JSON object
{correct, attempted, failed, metrics}; the line before it records the
environment.  The exit code is 1 when any operation failed and 2 when the
checkout holds no hopsign sources.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ".bench_build/perfbench"
SETUP_PROBES = 4           # import-only children per run, for setup_s
DEADLINE_S = 165.0         # a run must end within 180 s

# No `sample`/`finite` workload: the QR sweeps a random draw needs, and so its
# cost, vary by +-20% between seeds, and on a shared host its time tracks the
# speed probes (calib.py) less closely than these two workloads do.
WORKLOADS = ("union", "crosscheck")


def workload_commands(name, tiny=False):
    """The hopsign argument lists of one repetition.  tiny shrinks every
    size for the self-tests."""
    if name == "union":
        nmax, alphas = ("4", "16") if tiny else ("10", "64")
        return [["pi-union", "--sigma", "0.5", "--nmax", nmax,
                 "--alpha-count", alphas, "--out-csv", "pi.csv",
                 "--out-svg", "pi.svg"]]
    if name == "crosscheck":
        nmax, alphas = ("1", "32") if tiny else ("3", "512")
        return [["verify"],
                ["curve", "--nmax", nmax, "--branch", "both",
                 "--alpha-count", alphas, "--out-csv", "curve.csv",
                 "--out-svg", "curve.svg"]]
    raise ValueError(f"unknown workload {name!r}")


class Command:
    """One CLI command of a workload, with its fixed output directory."""

    def __init__(self, workload, index, argv):
        self.dir = f"{STATE}/{workload}/{index}"
        self.argv = [f"{self.dir}/out/{a}" if a.endswith((".csv", ".svg"))
                     else a for a in argv]
        self.logs = [f"{self.dir}/stdout.txt", f"{self.dir}/stderr.txt"]
        self.key = None          # digest-store key, set by the Run

    def reset(self):
        out = ROOT / self.dir / "out"
        out.mkdir(parents=True, exist_ok=True)
        for f in out.iterdir():
            f.unlink()

    def outputs(self):
        return sorted((ROOT / self.dir / "out").iterdir())

    def log(self, which):
        return (ROOT / self.logs[which]).read_text()


def source_digest():
    """sha256 over the hopsign sources: identifies the program under test
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hopsign").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def child_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def environment(seed):
    """Machine and library record printed with every result."""
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]),
        "commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


class Run:
    """One benchmark run of one workload: repetitions, checks, metrics."""

    def __init__(self, workload, seconds, tiny=False):
        self.workload = workload
        self.seconds = seconds
        self.commands = [Command(workload, i, argv) for i, argv in
                         enumerate(workload_commands(workload, tiny))]
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.accuracy = {"max_newton": 0.0, "near_double": 0}
        self._verdicts = {}      # output digests -> content check verdict
        self._store_path = ROOT / STATE / "digests.json"
        try:
            self._store = json.loads(self._store_path.read_text())
        except (OSError, ValueError):
            self._store = {}
        src = source_digest()
        for c in self.commands:
            c.key = hashlib.sha256(
                (src + json.dumps(c.argv)).encode()).hexdigest()

    # -- children

    def _child(self, commands, trace=False):
        """Spawn one child; returns (report or None, setup_s, seconds)."""
        spec = {"commands": [c.argv for c in commands],
                "logs": [c.logs for c in commands],
                "spans": f"{STATE}/{self.workload}/spans.json" if trace else None}
        for c in commands:
            c.reset()
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            self.problems.append(f"child exceeded {timeout:.0f} s")
            return None, None, time.monotonic() - t0
        spent = time.monotonic() - t0
        if proc.returncode != 0:
            self.problems.append(f"child exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-500:]}")
            return None, None, spent
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        return report, report["t_ready"] - t0, spent

    def setup_samples(self):
        """setup_s of import-only children, after one warm-up child."""
        self._child([])
        samples = []
        for _ in range(SETUP_PROBES):
            report, setup, _ = self._child([])
            if report is not None:
                samples.append(setup / report["probes"][0])
        return samples

    @staticmethod
    def _normalise(report, setup):
        """Times of one repetition in reference-CPU seconds: each command's
        time divided by the mean slowdown of the probes either side of it,
        set-up by the first probe's."""
        probes, cmds = report["probes"], report["commands"]
        speed = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
        report["setup_s"] = setup / probes[0]
        report["wall_s"] = sum(c["wall_s"] / f for c, f in zip(cmds, speed))
        report["cpu_s"] = sum(c["cpu_s"] / f for c, f in zip(cmds, speed))
        report["raw_wall_s"] = sum(c["wall_s"] for c in cmds)
        report["slowdown"] = sum(probes) / len(probes)

    def repetitions(self, budget, trace=False):
        """Repeat the workload while the next repetition, expected to take
        as long as the last, fits in budget seconds of child time (at least
        once), checking each repetition's outputs."""
        reps, tries, spent, last = [], 0, 0.0, 0.0
        while not tries or spent + last <= budget:
            if tries and time.monotonic() + 1.5 * last > self.deadline:
                break
            report, setup, last = self._child(self.commands, trace)
            tries += 1
            spent += last
            self.attempted += len(self.commands)
            if report is None:
                self.failed += len(self.commands)
                continue
            self._normalise(report, setup)
            self.failed += sum(not self._command_ok(c, r) for c, r in
                               zip(self.commands, report["commands"]))
            reps.append(report)
        return reps

    # -- checks (outside the timed region)

    def _command_ok(self, cmd, result):
        """Exit status, checks and byte determinism of one command; output
        the checks cannot parse counts as a failure."""
        try:
            return self._checks_pass(cmd, result)
        except (ValueError, KeyError, OSError, SyntaxError) as exc:
            self.problems.append(f"{cmd.argv[0]}: unreadable output: {exc!r}")
            return False

    def _checks_pass(self, cmd, result):
        ok = result["rc"] == 0 and not result["raised"]
        ok = ok and "Traceback (most recent call last)" not in cmd.log(1)
        if cmd.argv[0] == "verify":
            ok = ok and check.check_verify_stdout(cmd.log(0))
        if cmd.argv[0] == "curve":
            ok = ok and check.check_curve_stdout(cmd.log(0))
        files = cmd.outputs()
        if any(a.endswith(".csv") for a in cmd.argv):
            ok = ok and any(f.suffix == ".csv" for f in files)
        if any(a.endswith(".svg") for a in cmd.argv):
            ok = ok and any(f.suffix == ".svg" for f in files)
        if not files:
            return ok
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in files}
        want = self._store.setdefault(cmd.key, digests)
        if digests != want:
            self.problems.append(f"{cmd.argv[0]}: output bytes differ from "
                                 f"an earlier run of the same sources")
            ok = False
        tag = json.dumps(digests, sort_keys=True)
        if tag not in self._verdicts:
            self._verdicts[tag] = self._content_ok(cmd, files)
        return ok and self._verdicts[tag]

    def _content_ok(self, cmd, files):
        ok = True
        for f in files:
            if f.suffix == ".svg":
                ok = ok and check.check_svg(f)
                continue
            res = check.check_cloud(check.read_cloud(f))
            self.accuracy["max_newton"] = max(self.accuracy["max_newton"],
                                              res["max_newton"])
            self.accuracy["near_double"] += res["near_double"]
            if res["bad_points"] or res["bad_sections"]:
                self.problems.append(f"{f.name}: {res}")
                ok = False
        return ok

    def save_digests(self):
        self._store_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._store, indent=1, sort_keys=True))
        os.replace(tmp, self._store_path)


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(run):
    setups = run.setup_samples()
    reps = run.repetitions(run.seconds)
    setups += [r["setup_s"] for r in reps]
    print("# samples " + json.dumps(
        {"setup_s": setups,
         **{k: [r[k] for r in reps] for k in ("wall_s", "raw_wall_s",
                                              "cpu_s", "slowdown")}}),
        file=sys.stderr)
    return {
        "wall_s": (_median([r["wall_s"] for r in reps]), "s"),
        "setup_s": (_median(setups), "s"),
        "cpu_s": (_median([r["cpu_s"] for r in reps]), "s"),
        "peak_rss_mb": (_median([r["maxrss_kb"] * 1024 / 1e6 for r in reps]),
                        "MB"),
    }


def per_layer(run):
    from tracer import COUNTS, FAILURES, SPANS
    plain = run.repetitions(run.seconds / 2)
    traced = run.repetitions(run.seconds / 2, trace=True)
    out = {}
    for name in SPANS:
        out[name] = (_median([r["self_s"][name] for r in traced]), "s")
    for name in (*COUNTS, *FAILURES):
        unit = "bytes" if name.endswith("_bytes") else "count"
        out[name] = (_median([r["counts"][name] for r in traced]), unit)
    out["eigen.ns_per_n3"] = (_median(
        [1e9 * r["self_s"]["eigen.solve_s"] / r["counts"]["eigen.n3_sum"]
         for r in traced if r["counts"]["eigen.n3_sum"]]), "ns")
    out["eigen.max_newton"] = (run.accuracy["max_newton"], "abs")
    out["eigen.near_double"] = (run.accuracy["near_double"], "count")
    out["trace.coverage"] = (_median(
        [sum(r["self_s"].values()) / r["raw_wall_s"] for r in traced]),
        "ratio")
    out["calib.raw_wall_s"] = (_median([r["raw_wall_s"] for r in plain]), "s")
    out["calib.slowdown"] = (_median([r["slowdown"] for r in plain]), "ratio")
    walls = [_median([r["wall_s"] for r in reps]) for reps in (traced, plain)]
    out["trace.overhead"] = (None if None in walls
                             else walls[0] / walls[1] - 1.0, "ratio")
    return out


def run_workload(workload, seconds, trace, tiny=False):
    """Run one workload; returns the result object printed last."""
    run = Run(workload, seconds, tiny)
    metrics = per_layer(run) if trace else end_to_end(run)
    run.save_digests()
    for msg in run.problems:
        print(f"{workload}: {msg}", file=sys.stderr)
    return {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def _summary(workload, result):
    lines = [f"{workload}: fail_frac = {result['failed']}/"
             f"{result['attempted']}"]
    lines += [f"{workload}: {k} = {m['value']:.6g} {m['unit']}"
              if m["value"] is not None else f"{workload}: {k} = n/a"
              for k, m in result["metrics"].items()]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "hopsign" / "cli.py").is_file():
        print(f"error: no hopsign sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(args.seed)))
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seconds, args.trace)
        print(_summary(name, results[name]), file=sys.stderr)
    last = results if args.workload == "all" else results[args.workload]
    print(json.dumps(last))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
