"""Run ``bench/run.py`` over workloads and seeds and print each metric's spread.

Usage (from the root of a checkout):

    python3 bench/suite.py                      # every workload, seeds 1-10
    python3 bench/suite.py --seeds 11,12,13     # every workload, other seeds
    python3 bench/suite.py --trace 1 --seeds 1  # one traced run per workload

Each (workload, seed) is one ``run.py`` process with ``--seconds`` set to
BENCHMARK.json's ``run_seconds``.  For every metric the table gives its unit,
the median and quartiles of the per-run values, the number of runs, and, for
end-to-end metrics, the spread next to the metric's bound.  The spread is
(q3 - q1) / median with the quartiles of ``statistics.quantiles(values,
n=4)`` (its default, exclusive method), the spread each bound in
BENCHMARK.json is checked against.
All run results go to ``bench/out/suite-trace<t>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import OUT, load_benchmark, quartiles  # noqa: E402


def main(argv=None):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    defs = bench["per_layer" if args.trace else "end_to_end"]

    runs = {}
    ok = True
    for name in names:
        runs[name] = []
        for seed in seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            runs[name].append({"seed": seed, **result})
            ok &= result["correct"]
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    for name, results in runs.items():
        print(f"\n== {name} ({len(results)} runs)")
        print(f"{'metric':34s} {'unit':9s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}"
              + ("" if args.trace else f" {'spread':>8s} {'bound':>6s}"))
        for m in defs:
            values = [r["metrics"][m["name"]]["value"] for r in results
                      if r["metrics"][m["name"]]["value"] is not None]
            if not values:
                continue
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            line = (f"{m['name']:34s} {m['unit']:9s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{len(values):3d}")
            if not args.trace:
                lo, _, hi = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
                spread = (hi - lo) / abs(med)
                flag = "" if spread < m["bound"] / 3 else "  > bound/3"
                line += f" {spread:8.4f} {m['bound']:6.3f}{flag}"
            print(line)

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"suite-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=2)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
