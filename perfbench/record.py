"""Record the seed-invariant values the benchmark checks against.

    python3 perfbench/record.py

Run from the root of a source checkout.  Runs every operation whose check
is `reference` once, through `sanovdual.cli.main`, and writes the values of
`checks.extract` to `perfbench/reference.json`.  The values do not depend on
the workload seed, so seed 0 stands for all.  Re-record only when a
change of outputs is intended, and say so with the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import checks
import workloads


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from sanovdual import cli

    values = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for workload in workloads.WORKLOADS:
            for op in workloads.plan(workload, 0):
                if op["check"]["kind"] != "reference":
                    continue
                cfg = Path(tmp) / f"{op['name']}.json"
                cfg.write_text(json.dumps(op["config"]))
                out = Path(tmp) / op["name"]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([op["command"], "--config", str(cfg),
                                     "--out", str(out), "--seed",
                                     str(op["seed"]), "--threads", "1"])
                if code != 0:
                    print(f"error: {op['name']} exited {code}",
                          file=sys.stderr)
                    return 1
                values[op["name"]] = checks.extract(op["command"], out)
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(values)} operations to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
