"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload dim_general --seeds 1-10 --seconds 30

Runs ``run.py`` once per seed, one after another, and prints for every
end-to-end metric the median, the quartiles (``statistics.quantiles`` with
n=4) and the interquartile distance as a share of the median, next to the
bound in BENCHMARK.json.  ``--json FILE`` also stores those figures in FILE
under the workload's name, keeping what FILE holds for other workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text()) if Path("BENCHMARK.json").exists() else {}
    seconds = args.seconds or bench.get("run_seconds", 30)
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)

    report = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        report[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals)}
        bound = bounds.get(name)
        if bound is None or name == "setup_s":
            flag = ""  # set-up time is judged by its median, not its spread
        else:
            flag = f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:14s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  spread {spread:.3f}{flag}")
    if args.json:
        doc = json.loads(args.json.read_text()) if args.json.exists() else {}
        doc.setdefault("workloads", {})[args.workload] = {
            "run_seconds": seconds,
            "seeds": args.seeds,
            "metrics": {k: dict(v, bound=bounds.get(k)) for k, v in report.items()},
        }
        args.json.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
