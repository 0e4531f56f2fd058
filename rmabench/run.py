"""Run one workload of the RMA benchmark and print its metrics.

Usage, from the root of the repository::

    python3 rmabench/run.py --workload linear_qr --seed 1 --seconds 5 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it holds the environment, every latency and every check.
Details and spans are also written to ``.bench_work/`` in the repository.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("linear_qr", "pipelines_small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "core" / "ops.py").is_file():
        print(f"rmabench: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    work = ROOT / ".bench_work"
    from rmabench import session

    session.configure_environment(work)
    from rmabench import bench

    result, details = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), root=ROOT)
    out = work / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, **details}, indent=1, default=str))
    details.pop("spans")
    print(json.dumps(details, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
