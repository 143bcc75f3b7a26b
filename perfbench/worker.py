"""Warm worker: runs a plan of CLI operations pass after pass in one process.

    python3 perfbench/worker.py --plan PLAN.json --out DIR --seconds S \
        --trace 0|1 --result RESULT.json

It imports `sanovdual.cli` once, runs one untimed warm pass (whose output
hashes every later pass must reproduce), then timed passes until `S`
seconds have gone and at least `MIN_PASSES` have run.  With `--trace 1` it
alternates untraced and traced passes and reports the per-layer numbers of
the traced ones.  Each operation is `sanovdual.cli.main([...])` with
`--threads 1`; its wall time covers that call, less the time spent sampling
host speed during it, and is also reported rescaled to nominal host speed
(see speed.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import speed
from tracer import Tracer

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
# Stop starting passes after this long, so a slow machine still finishes
# well inside the three minutes a run may take.
HARD_STOP_S = 100.0


class Op:
    """One planned operation and what happened to it."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.name = spec["name"]
        self.known_failure = spec["known_failure"]
        self.argv = [spec["command"], "--config", spec["config_path"],
                     "--seed", str(spec["seed"]), "--threads", "1"]
        self.hashes = None
        self.attempted = 0
        self.failed = 0
        self.first_error = None
        self.times = []         # wall seconds at nominal host speed
        self.raw_times = []     # wall seconds as measured

    def record(self, error, wall, scaled, timed) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.first_error = self.first_error or error
        if timed:
            self.raw_times.append(wall)
            self.times.append(scaled)


def run_op(op: Op, out: Path, reference: dict, traced: bool):
    """(error or None, wall, scaled wall, cpu seconds) of one CLI call.

    A traced call samples host speed only before and after, so that no
    sampling time lands inside the spans."""
    main = sys.modules["sanovdual.cli"].main   # the traced one, if installed
    outcome = {"code": None, "error": None, "cpu": 0.0}

    def call():
        c0 = time.process_time()
        try:
            outcome["code"] = main(op.argv + ["--out", str(out)])
        except SystemExit as exc:          # argparse rejected the argv
            outcome["code"] = exc.code
        except Exception as exc:           # the operation crashed
            outcome["error"] = f"{type(exc).__name__}: {exc}"
        outcome["cpu"] = time.process_time() - c0

    err = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        wall, scaled, sampled = speed.timed(call, sample_during=not traced)
    error = outcome["error"]
    if error is None and outcome["code"] != 0:
        lines = err.getvalue().strip().splitlines()
        error = f"exit {outcome['code']}" + (f": {lines[-1]}" if lines else "")
    try:
        if error is None:
            error = checks.check(op.spec, out, reference)
        if error is None:
            hashes = checks.output_hashes(out)
            if op.hashes is None:
                op.hashes = hashes
            elif hashes != op.hashes:
                error = "rerun outputs differ from the first pass"
    except Exception as exc:               # missing or malformed outputs
        error = f"check: {type(exc).__name__}: {exc}"
    shutil.rmtree(out, ignore_errors=True)
    return error, wall, scaled, outcome["cpu"] - sampled


def run_pass(ops: list[Op], out: Path, reference: dict, timed: bool,
             traced: bool = False) -> dict:
    """Wall, nominal-speed wall and cpu seconds summed over the operations
    that count toward wall_s, and the wall time of all operations, the
    probe included."""
    sums = dict.fromkeys(("wall", "scaled", "cpu", "total"), 0.0)
    for op in ops:
        error, wall, scaled, cpu = run_op(op, out / op.name, reference,
                                          traced)
        op.record(error, wall, scaled, timed and not op.known_failure)
        sums["total"] += wall
        if not op.known_failure:
            sums["wall"] += wall
            sums["scaled"] += scaled
            sums["cpu"] += cpu
    return sums


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--metrics", default="",
                    help="comma-separated per-layer metrics for --trace 1")
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    import sanovdual.cli  # noqa: F401  (imports happen before any pass)
    src = (Path.cwd() / "src").resolve()
    if src not in Path(sys.modules["sanovdual"].__file__).resolve().parents:
        print(f"error: sanovdual was not imported from {src}", file=sys.stderr)
        return 2

    ops = [Op(spec) for spec in json.loads(args.plan.read_text())]
    reference = json.loads(
        (Path(__file__).parent / "reference.json").read_text())

    start = time.perf_counter()
    run_pass(ops, args.out, reference, timed=False)      # warm-up
    window = time.perf_counter()
    passes, traced, layers = [], [], []
    names = [n for n in args.metrics.split(",") if n]
    while True:
        now = time.perf_counter()
        done = now - window >= args.seconds and (
            len(traced) >= MIN_TRACED_PAIRS if args.trace
            else len(passes) >= MIN_PASSES)
        if done or now - start > HARD_STOP_S:
            break
        passes.append(run_pass(ops, args.out, reference, timed=True))
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                sums = run_pass(ops, args.out, reference, timed=False,
                                traced=True)
            finally:
                tracer.uninstall()
            traced.append(sums["scaled"])
            values = {n: tracer.metric(n) for n in names
                      if n.split(".", 1)[0] not in ("setup", "trace",
                                                    "worker")}
            values["trace.uncovered_s"] = sums["total"] - tracer.layer_self()
            layers.append(values)

    result = {
        "ops": [{"name": op.name, "known_failure": op.known_failure,
                 "attempted": op.attempted, "failed": op.failed,
                 "error": op.first_error, "times": op.times,
                 "raw_times": op.raw_times}
                for op in ops],
        "scaled_walls": [p["scaled"] for p in passes],
        "raw_walls": [p["wall"] for p in passes],
        "cpus": [p["cpu"] for p in passes],
    }
    if args.trace:
        result["traced_walls"] = traced
        result["layers"] = {k: statistics.median(p[k] for p in layers)
                            for k in layers[0]} if layers else {}
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
