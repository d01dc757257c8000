"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload offline-1m --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the same workload with spans around every layer call and reports
the per-layer metrics instead.  The report goes to standard output, and
the last line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit, as listed in BENCHMARK.json).
A run record (host, seed, every figure, failed checks) and, when
traced, the spans are written under ``.perfbench-runs/``.  The exit
code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-runs"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOADS = {"offline-1m": "offline", "dse-replay": "dse", "serve-zipf": "serve"}


def control_host() -> None:
    """Pin native thread pools to one thread and clear the repo's
    ``REPRO_DEFAULT_*`` toggles; must run before NumPy is imported."""
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    for variable in [v for v in os.environ if v.startswith("REPRO_DEFAULT_")]:
        del os.environ[variable]


def import_program():
    """Import ``repro`` from this checkout's ``src/``, or exit with status 1."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {src}")
    return repro


def program_fingerprint() -> str:
    """Hash of the program's sources: counts are compared only between
    runs of the same program."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def reference_loop_seconds() -> float:
    """Best of three timings of a fixed pure-Python loop: how fast this
    host ran at the time of the run, for reading host drift across runs."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        sum(i * i for i in range(1_000_000))
        best = min(best, time.perf_counter() - start)
    return best


def host_record(seed: int) -> dict:
    import numpy

    return {
        "reference_loop_s": reference_loop_seconds(),
        "host_cpus": os.cpu_count(),
        "available_cpus": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    control_host()
    import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    module = __import__(WORKLOADS[args.workload])
    from common import NOTES
    from spans import SpanRecorder

    recorder = SpanRecorder() if args.trace else None
    result = module.run(args.seed, args.seconds, recorder)
    host = host_record(args.seed)

    if args.trace:
        result.layers["trace.spans"] = len(recorder)
        wanted, values = spec["per_layer"], result.layers
    else:
        wanted, values = spec["end_to_end"], result.metrics
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not args.trace:
        sys.exit(f"perfbench: {args.workload} did not measure {', '.join(missing)}")
    # A layer this workload never calls did no work and took no time.
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    program = program_fingerprint()
    _compare_counts(result, args, tag, program)
    record = {
        "workload": args.workload,
        "program": program,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in result.report.items()},
        "metrics": metrics,
        "counts": result.counts,
        "problems": result.problems,
        "notes": NOTES,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if recorder is not None:
        recorder.write(OUT_DIR / f"{tag}.spans.jsonl")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# host " + " ".join(f"{k}={v}" for k, v in host.items()))
    for name, (value, unit) in result.report.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    failed_frac = result.failed / max(1, result.attempted)
    print(f"{'failed_frac':<44} {failed_frac:>16.6g} fraction")
    if args.trace:
        for name, entry in metrics.items():
            print(f"{name:<44} {entry['value']:>16.6g} {entry['unit']}")
    for problem in result.problems:
        print(f"FAILED CHECK: {problem}")
    correct = not result.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _compare_counts(result, args, tag, program) -> None:
    """Counts must repeat exactly between the traced and untraced run of
    one seed: compare with the other mode's record of the same program
    when it exists."""
    if not result.counts:
        return
    other = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{1 - args.trace}.json"
    if not other.is_file():
        return
    record = json.loads(other.read_text())
    if record.get("program") != program:
        return
    theirs = record.get("counts", {})
    differ = sorted(k for k in result.counts if theirs.get(k) != result.counts[k])
    result.check(not differ, f"{tag}: counts differ from {other.name}: {', '.join(differ)}")


if __name__ == "__main__":
    sys.exit(main())
