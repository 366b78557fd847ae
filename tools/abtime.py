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
next b then a, and so on.  Every pair is timed twice: as shipped, then
with glibc's ``MALLOC_MMAP_THRESHOLD_`` and ``MALLOC_TRIM_THRESHOLD_`` at
1 GiB in the children's environment (``ALLOCATORS``), which holds fixed
where the allocator places the block arrays.  The script prints each
pair's time ratio a / b in wall-clock and in CPU time and each side's
minor page faults, as shipped and then pinned on the same line, then the
median ratios (above 1: b is faster), on one line with their base, the
median wall seconds of a call of a and of b, and each side's median
minor page faults per call (so an effect of the allocator, which a
change of array layout can move, shows beside the times), the same line
for the pinned runs, then the median ratio of each layer time of the
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
call, followed by the pinned runs' median wall and CPU ratios, wall
seconds and faults.  The layer ratios are the shipped runs'.

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
# The allocator settings every pair is timed under, added to the children's
# environment only: glibc as shipped, and glibc with its mmap and trim
# thresholds pinned at 1 GiB, so that it neither maps the block arrays
# afresh nor returns them to the system between blocks.  Its dynamic mmap
# threshold places those arrays differently as the layout of the code
# moves, which moves the minor page faults of a call; the pinned run holds
# that placement fixed, as a control.
ALLOCATORS = {"shipped": {},
              "pinned": {"MALLOC_MMAP_THRESHOLD_": str(1 << 30),
                         "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}}


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


def timed_side(tree, overrides, out_dir, allocator):
    """(wall s, CPU s, timings, minor page faults) of CALLS run_scenario
    calls of the package under ``tree`` in a fresh interpreter, each the
    median over the calls, with the variables ``allocator`` (a dict, an
    entry of ALLOCATORS) added to its environment; the manifest of the
    last call is in ``out_dir``."""
    tree = Path(tree).resolve()
    env = dict(os.environ, **allocator, PYTHONPATH=str(tree))
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


def medians_text(ratios, walls, faults, extra=""):
    """The median wall and CPU ratios a / b (followed by ``extra``), the
    median wall seconds of a call of a and of b and their median minor
    page faults per call, as one line's text, from the per-pair (wall,
    cpu) ratios and each tree's per-pair wall seconds and faults."""
    wall, cpu = (statistics.median(r) for r in ratios)
    base = {key: statistics.median(seconds) for key, seconds in walls.items()}
    fault = {key: statistics.median(counts) for key, counts in faults.items()}
    return (f"wall {wall:.4f}, cpu {cpu:.4f}{extra}; median wall a {base['a']:.5f} s, "
            f"b {base['b']:.5f} s; median minor faults a {fault['a']:.0f}, b {fault['b']:.0f}")


def ab_workload(trees, overrides, pairs, out_dir):
    """Time ``pairs`` interleaved pairs of the two trees on one scenario,
    each pair under every allocator setting of ALLOCATORS in turn, and
    print the block described above; returns the median layer ratios a / b
    of the shipped runs, a dict by layer name, and the figures of each
    allocator setting that medians_text takes, a dict by its name."""
    dirs = {key: Path(out_dir) / f"out_{key}" for key in trees}
    for path in dirs.values():
        path.mkdir(parents=True, exist_ok=True)
    ratios = {name: ([], []) for name in ALLOCATORS}           # wall, cpu
    walls = {name: {"a": [], "b": []} for name in ALLOCATORS}
    faults = {name: {"a": [], "b": []} for name in ALLOCATORS}
    layer_ratios = {}
    for pair in range(pairs):
        order = ("a", "b") if pair % 2 == 0 else ("b", "a")
        parts = []
        for name, allocator in ALLOCATORS.items():
            times, layers = {}, {}
            for key in order:
                wall, cpu, layers[key], fault = timed_side(trees[key], overrides, dirs[key],
                                                           allocator)
                times[key] = (wall, cpu)
                walls[name][key].append(wall)
                faults[name][key].append(fault)
            ratios[name][0].append(times["a"][0] / times["b"][0])
            ratios[name][1].append(times["a"][1] / times["b"][1])
            if name == "shipped":
                for layer, seconds in layers["a"].items():
                    layer_ratios.setdefault(layer, []).append(seconds / layers["b"][layer])
            parts.append(f"wall a {times['a'][0]:.4f} s b {times['b'][0]:.4f} s "
                         f"ratio {ratios[name][0][-1]:.4f}, cpu ratio {ratios[name][1][-1]:.4f}, "
                         f"minor faults a {faults[name]['a'][-1]:.0f} "
                         f"b {faults[name]['b'][-1]:.0f}")
        print(f"pair {pair + 1} ({order[0]} first): {parts[0]}; pinned: {parts[1]}", flush=True)
    figures = {name: (ratios[name], walls[name], faults[name]) for name in ALLOCATORS}
    print(f"median ratio a/b over {pairs} pairs: {medians_text(*figures['shipped'])}")
    print(f"pinned allocator, median ratio a/b over {pairs} pairs: "
          f"{medians_text(*figures['pinned'])}")
    layer = {name: statistics.median(ratios) for name, ratios in layer_ratios.items()}
    print("median layer ratio a/b: " + ", ".join(
        f"{name} {ratio:.4f}" for name, ratio in layer.items()))
    manifests = {key: last_manifest(path) for key, path in dirs.items()}
    verdicts = compare_outputs(dirs["a"], dirs["b"], manifests["a"], manifests["b"])
    for line in verdict_lines(verdicts, manifests["a"], manifests["b"]):
        print(line)
    return layer, figures


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
            for name, (layer, figures) in medians.items():
                precode = f", precode {layer['precode']:.4f}"
                print(f"{name}: {medians_text(*figures['shipped'], precode)}; "
                      f"pinned: {medians_text(*figures['pinned'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
