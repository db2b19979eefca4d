"""cellsim's benchmark command.

    python3 cellbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 cellbench/run.py --quick            # self-check of every workload

Run from the root of a checkout: the program is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's deterministic figures and output digest.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced repeat
and the tracing overhead.  ``--quick`` shrinks every workload to seconds; on
its own it runs each workload untraced and traced in a fresh process and
checks the printed result against BENCHMARK.json.
"""

from __future__ import annotations

import os

# one thread per process: numpy's BLAS pools are sized when numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_build" / "cellbench"


def _import_program() -> None:
    """Import cellsim from the checkout, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cellsim
    except ImportError as exc:
        raise SystemExit(f"cellbench: cannot import cellsim from {src}: {exc}") from None
    if Path(cellsim.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"cellbench: cellsim was imported from {cellsim.__file__}, not {src}")


def measure(args) -> int:
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"cellbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    spans = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    try:
        out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            workdir, quick=args.quick, spans_path=spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


def _check_result(line: str, expected: set[str], end_to_end: bool) -> list[str]:
    result = json.loads(line)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted is not a whole number >= 1")
    if result.get("failed") != 0:
        problems.append(f"failed = {result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != expected:
        problems.append(f"metric names differ: missing {sorted(expected - set(metrics))}, "
                        f"extra {sorted(set(metrics) - expected)}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} = {value!r}")
        elif end_to_end and value == 0:
            problems.append(f"end-to-end metric {name} reads 0")
    return problems


def self_check() -> int:
    """Every workload at quick size, untraced and traced, each in a fresh process."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems = [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
            else:
                problems = _check_result(lines[-1], layers if trace else e2e, not trace)
            failures += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload:24s} trace={trace}  {status}", flush=True)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs; without --workload, run the self-check")
    args = parser.parse_args(argv)
    if args.workload is None:
        if not args.quick:
            parser.error("--workload is required unless --quick is given")
        return self_check()
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
