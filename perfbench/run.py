"""Benchmark entry point for sanovdual.

    python3 perfbench/run.py --workload limits --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout (the directory holding `src/`).  It
writes the workload's seeded configs under `.bench_work/`, measures the set-up
cost in fresh interpreters, runs the operations in a warm worker process
(`worker.py`) and prints one row per operation followed, on the last line,
by a JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
  wall_s       wall time of one pass over the workload's operations (the
               known-failure probe excluded): the sum over operations of
               the median, over timed passes, of its wall time at nominal
               host speed (see speed.py)
  setup_s      median time, at nominal host speed, for a fresh interpreter
               to `import sanovdual.cli`
  peak_rss_mb  the worker's peak resident set, from wait4
  error_rate   failed / attempted operations, the probe included
Both times are seconds at nominal host speed (see speed.py), not wall-clock
seconds: do not compare them with wall-clock figures.  The rows print the
measured wall times, and --trace 1 reports them as setup.raw_s and
trace.untraced_raw_s.
--trace 1 reports the per-layer metrics named in BENCHMARK.json, from
traced passes alternating with untraced ones, plus the -X importtime split
of the import and the measured (unscaled) times.

`attempted` and `failed` count the gated operations; the known-failure probe
is reported in its own row and counted only in `error_rate`.  Exit status is
0 when every gated operation passed, 1 when one failed, 2 when the checkout
or the worker is unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
WORKER_TIMEOUT_S = 160.0
IMPORT = [sys.executable, "-c", "import sanovdual.cli"]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    env.pop("SANOV_DUAL_LOG", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd, env, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=env, cwd=cwd, timeout=60, check=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)


def setup_seconds(env, root: Path) -> float:
    """Median wall time, at nominal host speed, of fresh interpreters
    importing sanovdual.cli.

    Host speed is sampled right before and right after each interpreter,
    never while it runs.  This process pins itself to one CPU while it
    measures, and the children inherit that, so the samples measure the CPU
    the child runs on.
    """
    _run(IMPORT, env, root)            # byte-compiles on a fresh checkout
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        times = [speed.timed(lambda: _run(IMPORT, env, root),
                             sample_during=False)[1]
                 for _ in range(SETUP_RUNS)]
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times)


def importtime_split(text: str) -> tuple[float, float]:
    """(scipy.stats, rest of sanovdual.cli) cumulative import seconds.

    -X importtime prints modules after their imports, indented by depth.
    A module some library loads through importlib has no line of its own
    (scipy loads scipy.stats that way), so nesting is rebuilt from the
    indentation alone and `scipy.stats` is the sum of the outermost
    `scipy.stats*` lines.
    """
    stack = []                      # (depth, name, cumulative, children)
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 \
                or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        stack.append((depth, name.strip(), int(parts[1]) * 1e-6, children))

    def stats_part(node):
        if node[1].startswith("scipy.stats"):
            return node[2]
        return sum(stats_part(child) for child in node[3])

    cli = [node for node in stack if node[1] == "sanovdual.cli"]
    if not cli:
        raise ValueError("no sanovdual.cli line in -X importtime output")
    stats = stats_part(cli[0])
    return stats, cli[0][2] - stats


def setup_split(env, root: Path) -> tuple[float, float, float]:
    """Medians of the importtime split and of the measured wall time of the
    fresh interpreters that print it."""
    cmd = [IMPORT[0], "-X", "importtime"] + IMPORT[1:]
    _run(cmd, env, root)
    splits = []
    for _ in range(IMPORTTIME_RUNS):
        t0 = time.perf_counter()
        stderr = _run(cmd, env, root).stderr
        splits.append(importtime_split(stderr) + (time.perf_counter() - t0,))
    return tuple(statistics.median(s[i] for s in splits) for i in range(3))


def run_worker(cmd, env, root: Path):
    """Run the worker to completion; (exit code, peak RSS in MiB)."""
    proc = subprocess.Popen(cmd, env=env, cwd=root)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.05)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0   # ru_maxrss is KiB


def print_rows(ops: list[dict]) -> None:
    """One row per operation: median wall time as measured and at nominal
    host speed over the timed passes, and its status."""
    print(f"{'operation':36} {'attempted':>9} {'failed':>6} {'wall_s':>8} "
          f"{'nominal_s':>9}  status")
    for op in ops:
        if op["times"]:
            wall = f"{statistics.median(op['raw_times']):8.4f}"
            nominal = f"{statistics.median(op['times']):9.4f}"
        else:
            wall, nominal = f"{'-':>8}", f"{'-':>9}"
        if op["failed"] == 0:
            status = "ok"
        elif op["known_failure"]:
            status = f"known failure: {op['error']}"
        else:
            status = f"FAILED: {op['error']}"
        print(f"{op['name']:36} {op['attempted']:9d} {op['failed']:6d} "
              f"{wall} {nominal}  {status}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    bench = Path(__file__).resolve().parent
    if not (root / "src" / "sanovdual" / "cli.py").is_file():
        print(f"error: {root} holds no sanovdual source tree (src/sanovdual)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    env = child_env(root)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        ops = workloads.plan(args.workload, args.seed)
        (work / "configs").mkdir()
        for op in ops:
            path = work / "configs" / f"{op['name']}.json"
            path.write_text(json.dumps(op["config"]))
            op["config_path"] = str(path)
        (work / "plan.json").write_text(json.dumps(ops))

        metrics = {}
        if args.trace:
            (metrics["setup.scipy_stats_s"], metrics["setup.sanovdual_s"],
             metrics["setup.raw_s"]) = setup_split(env, root)
        else:
            metrics["setup_s"] = setup_seconds(env, root)

        result_path = work / "result.json"
        code, peak_mb = run_worker(
            [sys.executable, str(bench / "worker.py"),
             "--plan", str(work / "plan.json"), "--out", str(work / "out"),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--metrics", ",".join(units), "--result", str(result_path)],
            env, root)
        if code != 0 or not result_path.is_file():
            print(f"error: worker exited with {code}", file=sys.stderr)
            return 2
        result = json.loads(result_path.read_text())
    except (OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_ops = result["ops"]
    gated = [op for op in all_ops if not op["known_failure"]]
    if args.trace:
        walls, traced = result["scaled_walls"], result["traced_walls"]
        metrics["trace.untraced_s"] = statistics.median(walls)
        metrics["trace.untraced_raw_s"] = statistics.median(
            result["raw_walls"])
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(walls))
        metrics["worker.cpu_s"] = statistics.median(result["cpus"])
        metrics.update(result["layers"])
    else:
        metrics["wall_s"] = sum(statistics.median(op["times"])
                                for op in gated)
        metrics["peak_rss_mb"] = peak_mb
        metrics["error_rate"] = (sum(op["failed"] for op in all_ops)
                                 / sum(op["attempted"] for op in all_ops))
    missing = set(units) - set(metrics)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 2

    print_rows(all_ops)
    attempted = sum(op["attempted"] for op in gated)
    failed = sum(op["failed"] for op in gated)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
