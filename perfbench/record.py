"""Record the expected output digests of every workload input.

    python3 perfbench/record.py [--workload NAME ...]

Runs every table entry of the named workloads (default: all) once with the
package under ./src, checks each output structurally, and writes the
digests to perfbench/expected.json, keeping the other workloads' entries.
Record only at a commit whose outputs are known to be right: the benchmark
counts every later output that differs as a failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import EXPECTED, OUT, load_package
from workloads import WORKLOADS


def record(name: str, gf, workdir) -> dict[str, str]:
    cls = WORKLOADS[name]
    digests: dict[str, str] = {}
    workload = cls(gf, 0, workdir / name, {})
    for k in range(cls.BATCH):  # one pass covers every table entry
        out = workload.op(k)
        workload.verify(k, out)
        digests[workload.key(k)] = workload.digest(k, out)
    if len(digests) != cls.BATCH:
        raise SystemExit(f"{name}: a pass repeats a table entry")
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    gf = load_package()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    workdir = OUT / f"record-{os.getpid()}"
    try:
        for name in args.workload or sorted(WORKLOADS):
            expected[name] = record(name, gf, workdir)
            print(f"{name}: {len(expected[name])} digests", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
