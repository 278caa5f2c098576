"""Run one benchmark workload and print its result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload coupled_g4 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25        # every workload
    python3 perfbench/run.py --workload serve_g3 --trace 1      # per-layer + trace
    python3 perfbench/run.py --record-reference coupled_g4      # rewrite checks

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run also writes a Chrome trace to
``.bench_out/<workload>-seed<seed>.trace.json``.  The exit code is 0
when the output checks pass, 1 when they fail and 2 when the program
is not there to run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("coupled_g4", "distributed_g4", "ensemble_g4", "serve_g3")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", metavar="WORKLOAD",
                   choices=WORKLOAD_NAMES[:3],
                   help="recompute a workload's committed check summaries")
    args = p.parse_args(argv)
    if args.workload is None and args.record_reference is None:
        p.error("one of --workload or --record-reference is required")
    return args


def _import_program() -> bool:
    """Put the checkout's ``src/`` and the benchmark package on the path."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return True


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import serving, workloads
    from perfbench.fingerprint import host_fingerprint
    from perfbench.metrics import END_TO_END, PER_LAYER, result_line
    from perfbench.tracing import format_reconciliation, write_chrome_trace

    fingerprint = host_fingerprint()
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    run = {
        "coupled_g4": workloads.coupled_g4,
        "distributed_g4": workloads.distributed_g4,
        "ensemble_g4": workloads.ensemble_g4,
        "serve_g3": serving.serve_g3,
    }[name]
    out = run(seed, seconds, trace)
    units = PER_LAYER if trace else END_TO_END
    for note in out.notes:
        print(f"{name}: {note}")
    for metric, unit in units.items():
        print(f"{name}: {metric} = {out.values[metric]:.6g} {unit}")
    for problem in out.problems:
        print(f"{name}: CHECK FAILED: {problem}")
    print(f"{name}: output checks {'passed' if out.correct else 'FAILED'}")
    if trace:
        print(format_reconciliation(out.reconciliation))
        path = OUT_DIR / f"{name}-seed{seed}.trace.json"
        write_chrome_trace(
            path, out.tracer.spans, out.extra_events,
            metadata={"workload": name, "seed": seed, "seconds": seconds,
                      "fingerprint": fingerprint,
                      "reconciliation": out.reconciliation},
        )
        print(f"{name}: trace written to {path.relative_to(ROOT)} "
              f"({len(out.tracer.spans)} spans)")
    sys.stdout.flush()
    print(json.dumps(result_line(
        out.correct, out.attempted, out.failed, out.values, units)))
    return 0 if out.correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process, then a summary table."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
            status = max(status, 1)
    names = list(next(r for r in results.values() if r)["metrics"]) \
        if any(results.values()) else []
    print(f"\n{'metric':<42}" + "".join(f"{w:>16}" for w in WORKLOAD_NAMES))
    for metric in names:
        row = f"{metric:<42}"
        for w in WORKLOAD_NAMES:
            m = results[w]["metrics"][metric] if results[w] else None
            row += f"{m['value']:>12.5g} {m['unit']:<3}" if m else f"{'-':>16}"
        print(row)
    print(json.dumps(results))
    return status


def record_reference(name: str) -> int:
    """Recompute ``name``'s check summaries for every committed seed."""
    from perfbench import checks
    from perfbench.fingerprint import host_fingerprint
    from perfbench.workloads import reference_summaries

    ref = checks.load_reference()
    entry = ref["workloads"][name]
    entry["seeds"] = {
        str(s): reference_summaries(name, s)
        for s in range(checks.N_REFERENCE_SEEDS)
    }
    entry["recorded_on"] = host_fingerprint()
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(entry["seeds"], indent=1))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_program():
        return 2
    if args.record_reference:
        return record_reference(args.record_reference)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
