"""Interleaved A/B timing of ``run_scenario`` between two source trees,
each side of a pair in a fresh interpreter.

Usage (from the root of a checkout):

    python3 tools/abtime.py --a ../old/src --b src --workload essp-wideband
    python3 tools/abtime.py --a ../old/src --b src --workload ssp-mask1 --pairs 16
    python3 tools/abtime.py --a ../old/src --b src --workload all --pairs 10

``--a`` and ``--b`` are directories that hold a ``specprecode`` package.
Every side of every pair runs in a new Python process with ``PYTHONPATH``
set to its tree and one BLAS thread: the process makes one untimed
``run_scenario`` call, then ``CALLS`` (15) timed calls, and
prints their wall-clock times (``perf_counter``), CPU times
(``process_time``), minor page faults (the growth of
``getrusage(RUSAGE_SELF).ru_minflt`` over the call) and the manifests'
``timings_s`` as JSON; a side's figures are the medians over its calls.
So neither tree runs in a process that the other's imports and
allocations have shaped.  The scenario is a
workload of ``bench/workloads.json`` at scenario seed ``--seed``, its
symbol count capped by ``--symbols``.  The first pair runs a then b, the
next b then a, and so on.  The script prints each pair's time ratio a / b
in wall-clock and in CPU time, then the median ratios (above 1: b is
faster), on one line with their base, the median wall seconds of a call
of a and of b, and each side's median minor page faults per call (so an
effect of the allocator, which a change of array layout can move, shows
beside the times), then the median ratio of each layer time of the
manifests' ``timings_s`` (``generate``, ``precode``, ``metrics``,
``psd``, ``io`` and ``total``), and whether each output file of the two
trees' last runs is identical (the manifest compared without its
timings).  Where ``summary.csv`` differs, or else where ``manifest.json``
does, each metric that moved follows as ``name: a -> b (relative r)``,
read from the two manifests' ``metrics`` at full precision, so that a
move below the summary's 12 printed digits shows as well.

``--workload`` may be given more than once, or as ``all`` for every
workload of ``bench/workloads.json``; the workloads then run one after the
other, each under a ``workload NAME:`` line, and a last block prints one
line per workload with its median wall, CPU and precode ratios, the
median wall seconds of a and of b and their median minor page faults per
call.

Separate runs on a shared host can drift by tens of percent minutes apart;
the two sides of a pair run back to back and see the same host state, so
their ratio compares the code.  A tree compared with itself reads close
to 1.

``--symbols 1`` probes a call's fixed cost, the part that does not grow
with the symbol count (set-up, the end-of-run statistics and file
writes): a one-symbol call is mostly that cost.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "bench" / "workloads.json"
CALLS = 15          # timed run_scenario calls per side of a pair, in one process


# The child process: one untimed call, then the timed ones; it prints the
# package it imported and, per timed call, (wall s, CPU s, timings_s,
# minor page faults).
CHILD = """
import gc, json, resource, sys, time
import specprecode
overrides, out_dir, calls = json.loads(sys.argv[1]), sys.argv[2], int(sys.argv[3])
cfg = specprecode.ScenarioConfig.from_dict(overrides)
specprecode.run_scenario(cfg, out_dir)
runs = []
for _ in range(calls):
    gc.collect()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    wall, cpu = time.perf_counter(), time.process_time()
    manifest = specprecode.run_scenario(cfg, out_dir)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    runs.append((wall, cpu, manifest["timings_s"], faults))
print(json.dumps({"package": specprecode.__file__, "runs": runs}))
"""


def timed_side(tree, overrides, out_dir):
    """(wall s, CPU s, timings, minor page faults) of CALLS run_scenario
    calls of the package under ``tree`` in a fresh interpreter, each the
    median over the calls; the manifest of the last call is in
    ``out_dir``."""
    tree = Path(tree).resolve()
    env = dict(os.environ, PYTHONPATH=str(tree))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(overrides), str(out_dir),
                           str(CALLS)], env=env, cwd=out_dir.parent, capture_output=True,
                          text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"run of {tree} failed:\n{done.stderr}")
    result = json.loads(done.stdout)
    if tree not in Path(result["package"]).resolve().parents:
        raise SystemExit(f"{tree} holds no specprecode package; imported {result['package']}")
    walls, cpus, layers, faults = zip(*result["runs"])
    return (statistics.median(walls), statistics.median(cpus),
            {name: statistics.median(t[name] for t in layers) for name in layers[0]},
            statistics.median(faults))


def last_manifest(out_dir):
    """The manifest that a run wrote to out_dir, without its timings."""
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text(encoding="utf-8"))
    manifest.pop("timings_s")
    return manifest


def compare_outputs(dir_a, dir_b, manifest_a, manifest_b):
    """(file name, identical) for every output file of either run."""
    names = sorted({path.name for d in (dir_a, dir_b) for path in Path(d).iterdir()})
    out = []
    for name in names:
        if name == "manifest.json":
            same = manifest_a == manifest_b
        else:
            a, b = Path(dir_a) / name, Path(dir_b) / name
            same = a.exists() and b.exists() and a.read_bytes() == b.read_bytes()
        out.append((name, same))
    return out


def moved_metrics(manifest_a, manifest_b):
    """(name, a, b) for every summary cell that differs between the two
    manifests' ``metrics``, in column order (None where one lacks it)."""
    met_a, met_b = manifest_a["metrics"], manifest_b["metrics"]
    return [(name, met_a.get(name), met_b.get(name)) for name in dict.fromkeys([*met_a, *met_b])
            if met_a.get(name) != met_b.get(name)]


def verdict_lines(verdicts, manifest_a, manifest_b):
    """The lines that report the output files: ``name: identical`` or
    ``name: differs`` per (file name, identical) pair, and under the first
    of ``summary.csv`` and ``manifest.json`` that differs, in that order,
    each metric that moved as ``  name: a -> b (relative r)``, with
    r = |b - a| / |a| (left out where a value is missing, zero or not a
    number).  So a move below the summary's 12 printed digits, which
    changes only the manifest, is shown too."""
    differs = [name for name, same in verdicts if not same]
    listed = next((name for name in ("summary.csv", "manifest.json") if name in differs), None)
    lines = []
    for name, same in verdicts:
        lines.append(f"{name}: {'identical' if same else 'differs'}")
        if name != listed:
            continue
        for metric, a, b in moved_metrics(manifest_a, manifest_b):
            numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
            rel = f" (relative {abs(b - a) / abs(a):.2e})" if numbers and a else ""
            lines.append(f"  {metric}: {a} -> {b}{rel}")
    return lines


def ab_workload(trees, overrides, pairs, out_dir):
    """Time ``pairs`` interleaved pairs of the two trees on one scenario and
    print the block described above; returns the median (wall, cpu, layer)
    ratios a / b, layer a dict by layer name, the median wall seconds of a
    call and the median minor page faults of a call, each a dict by
    tree."""
    dirs = {key: Path(out_dir) / f"out_{key}" for key in trees}
    for path in dirs.values():
        path.mkdir(parents=True, exist_ok=True)
    wall_ratios, cpu_ratios, layer_ratios = [], [], {}
    walls, faults = {"a": [], "b": []}, {"a": [], "b": []}
    for pair in range(pairs):
        order = ("a", "b") if pair % 2 == 0 else ("b", "a")
        times, layers = {}, {}
        for key in order:
            wall, cpu, layers[key], fault = timed_side(trees[key], overrides, dirs[key])
            times[key] = (wall, cpu)
            walls[key].append(wall)
            faults[key].append(fault)
        wall_ratios.append(times["a"][0] / times["b"][0])
        cpu_ratios.append(times["a"][1] / times["b"][1])
        for name, seconds in layers["a"].items():
            layer_ratios.setdefault(name, []).append(seconds / layers["b"][name])
        print(f"pair {pair + 1} ({order[0]} first): wall a {times['a'][0]:.4f} s "
              f"b {times['b'][0]:.4f} s ratio {wall_ratios[-1]:.4f}, "
              f"cpu ratio {cpu_ratios[-1]:.4f}, minor faults a {faults['a'][-1]:.0f} "
              f"b {faults['b'][-1]:.0f}", flush=True)
    wall, cpu = statistics.median(wall_ratios), statistics.median(cpu_ratios)
    layer = {name: statistics.median(ratios) for name, ratios in layer_ratios.items()}
    base = {key: statistics.median(seconds) for key, seconds in walls.items()}
    fault = {key: statistics.median(counts) for key, counts in faults.items()}
    print(f"median ratio a/b over {pairs} pairs: wall {wall:.4f}, cpu {cpu:.4f}; "
          f"median wall a {base['a']:.5f} s, b {base['b']:.5f} s; "
          f"median minor faults a {fault['a']:.0f}, b {fault['b']:.0f}")
    print("median layer ratio a/b: " + ", ".join(
        f"{name} {ratio:.4f}" for name, ratio in layer.items()))
    manifests = {key: last_manifest(path) for key, path in dirs.items()}
    verdicts = compare_outputs(dirs["a"], dirs["b"], manifests["a"], manifests["b"])
    for line in verdict_lines(verdicts, manifests["a"], manifests["b"]):
        print(line)
    return wall, cpu, layer, base, fault


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True,
                        help="directory that holds the baseline specprecode package")
    parser.add_argument("--b", type=Path, required=True,
                        help="directory that holds the changed specprecode package")
    parser.add_argument("--workload", action="append",
                        help="workload name in bench/workloads.json, or all; repeatable "
                             "(default essp-wideband)")
    parser.add_argument("--seed", type=int, default=1, help="scenario seed")
    parser.add_argument("--symbols", type=int, help="cap the workload's symbol count")
    parser.add_argument("--pairs", type=int, default=12, help="number of timed pairs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(WORKLOADS, encoding="utf-8") as fh:
        workloads = json.load(fh)
    names = []
    for name in args.workload or ["essp-wideband"]:
        if name != "all" and name not in workloads:
            parser.error(f"unknown workload {name!r}; choose from {sorted(workloads)} or all")
        names += list(workloads) if name == "all" else [name]
    names = list(dict.fromkeys(names))

    trees = {"a": args.a, "b": args.b}
    with tempfile.TemporaryDirectory() as tmp:
        medians = {}
        for name in names:
            overrides = dict(workloads[name], seed=args.seed)
            if args.symbols is not None:
                overrides["symbols"] = min(args.symbols, overrides.get("symbols", args.symbols))
            if len(names) > 1:
                print(f"workload {name}:")
            medians[name] = ab_workload(trees, overrides, args.pairs, Path(tmp) / name)
        if len(names) > 1:
            print(f"median ratio a/b per workload over {args.pairs} pairs:")
            for name, (wall, cpu, layer, base, fault) in medians.items():
                print(f"{name}: wall {wall:.4f}, cpu {cpu:.4f}, precode {layer['precode']:.4f}; "
                      f"median wall a {base['a']:.5f} s, b {base['b']:.5f} s; "
                      f"median minor faults a {fault['a']:.0f}, b {fault['b']:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
