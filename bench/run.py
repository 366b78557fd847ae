"""Benchmark of ``specprecode.runner.run_scenario`` on fixed workloads.

Usage (from the root of a checkout):

    python3 bench/run.py --workload ssp-mask1 --seed 1 --seconds 20 --trace 0

Child processes (``bench/child.py``) run one at a time, with the BLAS
thread variables set to 1 in the child's environment only.  An end-to-end
run starts with SETUP_SAMPLES set-up-only children, so that ``setup_s`` has
several samples; then one child makes ``run_scenario`` calls until
``--seconds`` have passed (at least one call), each call on its own scenario
seed derived from ``--seed``, with the reference kernel timed between calls.
Every call's output files are checked; a call that raises or fails a check
counts as failed.

Times are scaled to a nominal host speed: each child times a reference
kernel right after its set-up and after every call, and ``setup_s`` and
``symbols_per_s`` are reported as on a host that runs that kernel in
REF_NOMINAL_S.  A host that runs everything slower for a while lengthens
both the measured time and the reference time and leaves their ratio; a
change to the package moves only the measured time.  The raw wall-clock
figures are printed beside them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a traced replica of the runner's pipeline.  Each
value is the median over the run's samples; the quartiles, sample count and
environment go to a table on standard output and to
``bench/out/result-<workload>-seed<n>-trace<t>.json``.  The last line of
standard output is the JSON result object.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# A child may run this long beyond the seconds it is given.
CHILD_TIMEOUT_S = 120.0
SETUP_SAMPLES = 6
# Traced runs use at least this many symbols, so that each precode p90 has
# at least ten samples beyond it.
TRACE_MIN_SYMBOLS = 100
REL_TOL = 1e-9
# Reference-kernel time (child.reference_kernel) of the nominal host that
# setup_s and symbols_per_s are scaled to: about its median on a 2-vCPU
# Xeon VM.
REF_NOMINAL_S = 0.25
# The solvers' matrices are small (8 mask points, 2 antennas): on a 2-core
# machine a second BLAS thread made samples no faster and noisier.
BLAS_THREADS = 1
# The precoders run_scenario passes the configured EVM budget to.
BUDGET_PRECODERS = ("ensp", "eadmm", "essp")


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_workloads():
    with open(BENCH / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_state():
    """(sha, dirty) of the checkout, or ("unknown", None) outside a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
            return "unknown", None
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
        return lines[1], bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_outputs(run_dir):
    """Problems found in one run's output directory (empty list if none),
    and the summary row as a dict of strings.  The EVM budget checked is the
    one the run resolved (``config_resolved.json``), for the precoders that
    ``run_scenario`` hands a budget to."""
    problems = []
    with open(run_dir / "manifest.json", encoding="utf-8") as fh:
        listed = json.load(fh)["outputs"]
    present = {p.name for p in run_dir.iterdir()} - {"manifest.json"}
    if present != set(listed):
        problems.append(f"files {sorted(present)} differ from the manifest's {sorted(listed)}")
    for name, digest in listed.items():
        if name in present and _sha256(run_dir / name) != digest:
            problems.append(f"{name}: digest does not match the manifest")

    tables = {}
    for name in ("summary.csv", "psd.csv", "evm.csv"):
        header, rows = _read_csv(run_dir / name)
        tables[name] = (header, rows)
        for row in rows:
            for col, cell in zip(header, row):
                if name == "summary.csv" and col == "precoder":
                    continue
                try:
                    ok = math.isfinite(float(cell))
                except ValueError:
                    ok = False
                if not ok:
                    problems.append(f"{name}: {col}={cell!r} is not a finite number")
    header, rows = tables["summary.csv"]
    summary = dict(zip(header, rows[0]))

    with open(run_dir / "config_resolved.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    problems += _budget_problems(cfg, summary, tables["evm.csv"])
    return problems, summary


def _budget_problems(cfg, summary, evm_table):
    """EVM over the resolved budget: wideband against ``summary.csv``,
    frequency-selective against each ``evm.csv`` row's ``budget``."""
    if cfg["precoder"] not in BUDGET_PRECODERS:
        return []
    evm = cfg["evm"]
    if evm["mode"] == "wideband":
        limit = evm["eps_avg_fraction"]
        value = float(summary["evm_wideband_rms"])
        return [] if value <= limit * (1 + REL_TOL) else [f"evm_wideband_rms {value} exceeds {limit}"]
    header, rows = evm_table
    if "budget" not in header:
        return ["evm.csv has no budget column"]
    i_evm, i_budget = header.index("evm_rms"), header.index("budget")
    over = [row[0] for row in rows
            if not float(row[i_evm]) <= float(row[i_budget]) * (1 + REL_TOL)]
    return [f"evm.csv: {len(over)} subcarriers over budget, e.g. {over[:3]}"] if over else []


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def run_child(spec, timeout=CHILD_TIMEOUT_S):
    """Run one child; returns (child result or None, error text or None)."""
    threads = str(BLAS_THREADS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                              capture_output=True, text=True, timeout=timeout,
                              env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"child exceeded {timeout} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"sample exited with {proc.returncode}: {' | '.join(tail)}"
    return json.loads(lines[-1]), None


def sample(overrides, seed, mode, out_dir, spans_path=None, seconds=None):
    """One child process: (child result, list of problems that fail it whole).

    A ``setup`` or ``trace`` child is one sample; an ``e2e`` child holds many
    ``run_scenario`` calls, each checked in the child (``calls[i]["problems"]``).
    """
    spec = {"overrides": overrides, "seed": seed, "out_dir": str(out_dir), "mode": mode,
            "seconds": seconds, "spans_path": None if spans_path is None else str(spans_path)}
    try:
        result, error = run_child(spec, CHILD_TIMEOUT_S + (seconds or 0.0))
        if error is not None:
            return None, [error]
        expected = ROOT / "src" / "specprecode" / "__init__.py"
        if Path(result["package"]).resolve() != expected.resolve():
            return None, [f"sample imported {result['package']}, not {expected}"]
        if mode != "trace":
            return result, []
        try:
            problems, summary = check_outputs(out_dir / "run")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return None, [f"outputs unreadable: {exc!r}"]
        rep = result["replica"]
        for key in ("mask_ratio_max", "aclr_worst_db"):
            ref = float(summary[key])
            for name in (key, "untraced_" + key):
                if not _close(rep[name], ref):
                    problems.append(f"replica {name} {rep[name]!r} != run_scenario {ref!r}")
        return result, problems
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def e2e_metrics(call, symbols):
    return {
        "symbols_per_s": symbols / call["run_s"] * call["ref_s"] / REF_NOMINAL_S,
        "aclr_worst_db": call["aclr_worst_db"],
    }


def mask_ratio_mean(calls):
    """Worst mask point's leakage power, averaged over every symbol of every
    call (equal symbols per call), over that point's bound.  The calls run
    on different scenario seeds, so pooling them averages over more data."""
    ratios = [statistics.fmean(point) for point in zip(*(c["leakage_ratios"] for c in calls))]
    return max(ratios)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def measure(name, overrides, seed, seconds, trace):
    """Checked samples for about ``seconds``.

    End-to-end: SETUP_SAMPLES set-up-only children, then one child that
    makes timed ``run_scenario`` calls for the rest of the time; each call
    is one attempt.  Traced: traced children while the next one is expected
    to finish in time, at least one, on at least TRACE_MIN_SYMBOLS symbols.
    Returns the run record.
    """
    OUT.mkdir(exist_ok=True)
    record = {"samples": [], "setups": [], "setups_wall": [], "failures": [], "attempted": 0,
              "symbols": None, "peak_rss_mb": None,
              "spans_path": OUT / f"spans-{name}-seed{seed}.json" if trace else None}
    start = time.perf_counter()

    def work_dir():
        return OUT / f"work-{name}-{os.getpid()}-{record['attempted']}"

    def record_setup(res):
        record["setups_wall"].append(res["setup_s"])
        record["setups"].append(res["setup_s"] * REF_NOMINAL_S / res["setup_ref_s"])

    def count(res, problems):
        record["attempted"] += 1
        if problems:
            record["failures"].append(problems)
            return False
        record_setup(res)
        record.setdefault("child", res)
        return True

    if trace:
        overrides = dict(overrides, symbols=max(overrides["symbols"], TRACE_MIN_SYMBOLS))
        walls = []
        while True:
            t0 = time.perf_counter()
            res, problems = sample(overrides, seed, "trace", work_dir(),
                                   record["spans_path"] if not walls else None)
            if count(res, problems):
                record["samples"].append(res["layers"])
            walls.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
    else:
        for _ in range(SETUP_SAMPLES):
            count(*sample(overrides, seed, "setup", work_dir()))
        res, problems = sample(overrides, seed, "e2e", work_dir(),
                               seconds=max(seconds - (time.perf_counter() - start), 0.0))
        if problems:
            count(res, problems)
        else:
            record_setup(res)
            record["child"] = res
            record["peak_rss_mb"] = res["peak_rss_mb"]
            record["symbols"] = res["symbols"]
            for call in res["calls"]:
                record["attempted"] += 1
                if call["problems"]:
                    record["failures"].append([f"seed {call['seed']}: {p}"
                                               for p in call["problems"]])
                else:
                    record["samples"].append(call)
    record["measured_s"] = time.perf_counter() - start
    return record


def summarize(record, metric_defs, trace):
    """Median, quartiles and count of each metric over the successful samples."""
    if trace:
        per_sample = record["samples"]
    else:
        per_sample = [e2e_metrics(c, record["symbols"]) for c in record["samples"]]
    attempted = record["attempted"]
    stats = {}
    for m in metric_defs:
        name = m["name"]
        if name == "pass_frac":
            values = [(attempted - len(record["failures"])) / attempted]
        elif name == "setup_s":
            values = record["setups"]
        elif name == "peak_rss_mb":
            values = [] if record["peak_rss_mb"] is None else [record["peak_rss_mb"]]
        elif name == "mask_ratio_mean":
            values = [mask_ratio_mean(record["samples"])] if record["samples"] else []
        else:
            values = [v[name] for v in per_sample]
        if not values:
            stats[name] = {"unit": m["unit"], "median": None, "q1": None, "q3": None, "n": 0}
            continue
        q1, q3 = quartiles(values)
        stats[name] = {"unit": m["unit"], "median": statistics.median(values),
                       "q1": q1, "q3": q3, "n": len(values)}
    return stats


def result_object(record, stats):
    """The result line: correctness, sample counts and each metric's median."""
    failed = len(record["failures"])
    return {"correct": failed == 0 and bool(record["samples"]),
            "attempted": record["attempted"], "failed": failed,
            "metrics": {name: {"value": st["median"], "unit": st["unit"]}
                        for name, st in stats.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "specprecode" / "__init__.py").is_file():
        print(f"no specprecode source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be non-negative and --seconds positive", file=sys.stderr)
        return 2
    bench = load_benchmark()
    metric_defs = bench["per_layer" if args.trace else "end_to_end"]
    record = measure(args.workload, workloads[args.workload], args.seed, args.seconds,
                     args.trace)
    stats = summarize(record, metric_defs, args.trace)
    sha, dirty = git_state()
    child = record.get("child", {})
    env = {"git_sha": sha, "git_dirty": dirty, **child.get("versions", {}),
           "nproc": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
           "OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
           "seed": args.seed, "workload": args.workload, "trace": args.trace,
           "seconds": args.seconds, "measured_s": record["measured_s"],
           "precoder_module": child.get("precoder_module")}

    print("env " + json.dumps(env))
    for problems in record["failures"]:
        print("FAILED sample: " + "; ".join(problems))
    print(f"{'metric':34s} {'unit':9s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}")
    for name, st in stats.items():
        cells = [f"{st[k]:14.6g}" if st[k] is not None else f"{'-':>14s}"
                 for k in ("median", "q1", "q3")]
        print(f"{name:34s} {st['unit']:9s} {' '.join(cells)} {st['n']:3d}")

    if not args.trace and record["samples"]:
        wall = statistics.median(record["symbols"] / c["run_s"] for c in record["samples"])
        ref = statistics.median(c["ref_s"] for c in record["samples"])
        setup = statistics.median(record["setups_wall"])
        env.update(symbols_per_wall_s=wall, setup_wall_s=setup, ref_kernel_s=ref)
        print(f"wall-clock medians: {wall:.6g} symbols/s, set-up {setup:.6g} s, "
              f"reference kernel {ref:.6g} s (nominal {REF_NOMINAL_S} s)")

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": stats, "failures": record["failures"],
                   "attempted": record["attempted"],
                   "calls": [] if args.trace else record["samples"],
                   "spans": None if record["spans_path"] is None else str(record["spans_path"])},
                  fh, indent=2)

    print(json.dumps(result_object(record, stats)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
