"""Smoke tests of the tools: the output digest script, tools/digest.py,
the source line counter, tools/loc.py, and the A/B timer, tools/abtime.py,
which runs each tree in its own process."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import specprecode

TOOLS = Path(__file__).resolve().parent.parent / "tools"
BENCH = TOOLS.parent / "bench"
DIGEST = TOOLS / "digest.py"
LOC = TOOLS / "loc.py"
ABTIME = TOOLS / "abtime.py"


def run_digest(*args):
    return subprocess.run([sys.executable, str(DIGEST), "--case", "default-ssp",
                           "--symbols", "2", *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def digest(*args):
    done = run_digest(*args)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def load_digest_module():
    """tools/digest.py as a module; the BLAS thread variables it sets on
    import are restored afterwards."""
    spec = importlib.util.spec_from_file_location("digest", DIGEST)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def load_abtime_module():
    """tools/abtime.py as a module; the BLAS thread variables it sets on
    import are restored afterwards."""
    spec = importlib.util.spec_from_file_location("abtime", ABTIME)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def test_digests_and_moved_cells(tmp_path):
    saved = tmp_path / "old.json"
    lines = digest("--out", saved)
    files = [line.split()[1] for line in lines[1:]]
    assert "default-ssp/trace.csv" in files and "default-ssp/psd.csv" in files
    # the resolved configuration is kept parsed, for key-by-key reports
    assert json.loads(saved.read_text())["default-ssp"]["json"][
        "config_resolved.json"]["symbols"] == 2

    # a rerun matches itself; a perturbed cell is listed with its
    # relative difference
    assert digest("--against", saved)[-1].startswith("0 of ")
    old = json.loads(saved.read_text())
    case = old["default-ssp"]
    header, row = case["csv"]["trace.csv"][:2]
    col = header.index("evm_rms")
    value = float(row[col])
    row[col] = repr(value * 1.5)
    case["files"]["trace.csv"] = "0" * 64
    saved.write_text(json.dumps(old))
    report = digest("--against", saved)
    assert "default-ssp trace.csv: digest differs, 1 cells moved" in report
    assert any(line.strip().startswith("row 1 evm_rms:") and "relative 3.33e-01" in line
               for line in report)
    assert report[-1].startswith("1 of ")

    # with a tolerance the moved cell fails the check and is marked
    done = run_digest("--against", saved, "--rtol", "1e-10", "--atol", "1e-12")
    assert done.returncode == 1, done.stderr
    report = done.stdout.splitlines()
    assert any(line.strip().startswith("row 1 evm_rms:") and line.endswith("beyond tolerance")
               for line in report)
    assert report[-2:] == ["1 files beyond tolerance (atol 1e-12, rtol 1e-10)",
                           "  default-ssp/trace.csv"]


def test_tolerance_rules():
    digest_mod = load_digest_module()
    header = ["iteration", "evm_rms", "note"]
    rows = [header, ["1", "0.5", "a"], ["2", "1e-14", "b"]]

    def entry(cells, files=None):
        return {"files": dict({"trace.csv": json.dumps(cells), "waveform.bin": "w",
                               "manifest.json": "m"}, **(files or {})),
                "csv": {"trace.csv": cells}}

    old = {"case": entry(rows)}
    # 0.5 -> 0.5 + 4e-11 is within 1e-12 + 1e-10 * 0.5; 1e-14 -> 5e-13 is
    # within atol alone
    near = [header, ["1", repr(0.5 + 4e-11), "a"], ["2", "5e-13", "b"]]
    lines, moved, offending = digest_mod.compare(old, {"case": entry(near)}, 1e-10, 1e-12)
    assert (moved, offending) == (1, [])
    assert not any("beyond tolerance" in line for line in lines)
    # without a tolerance the same cells are listed and nothing is offending
    assert digest_mod.compare(old, {"case": entry(near)})[1:] == (1, [])

    # two offending cells of one file: two marked lines, one offending file
    far = [header, ["1", repr(0.5 + 1e-9), "a"], ["2", "1e-14", "c"]]
    lines, _, offending = digest_mod.compare(old, {"case": entry(far)}, 1e-10, 1e-12)
    assert offending == ["case/trace.csv"]
    assert sum(line.endswith("beyond tolerance") for line in lines) == 2

    # a changed non-CSV data file fails whatever the tolerance; the
    # manifest does not
    changed = entry(rows, {"waveform.bin": "x", "manifest.json": "y"})
    lines, moved, offending = digest_mod.compare(old, {"case": changed}, 1.0, 1.0)
    assert (moved, offending) == (2, ["case/waveform.bin"])
    assert "case waveform.bin: digest differs, 0 cells moved beyond tolerance" in lines
    assert "case manifest.json: digest differs, 0 cells moved" in lines

    # a case missing from the old digests cannot be checked
    assert digest_mod.compare({}, {"case": entry(rows)}, 1.0, 1.0)[2] == ["case"]
    assert digest_mod.compare({}, {"case": entry(rows)})[2] == []


def test_json_key_paths():
    digest_mod = load_digest_module()

    def entry(cfg):
        return {"files": {"config_resolved.json": json.dumps(cfg)}, "csv": {},
                "json": {"config_resolved.json": cfg}}

    old = {"case": entry({"psd": {"oversample": 4, "bin_hz": 100e3}, "seed": 1,
                          "evm": {"mode": "wideband", "profile_per_prb": None}})}
    new = {"case": entry({"psd": {"oversample": 4}, "seed": 2,
                          "evm": {"mode": "wideband", "profile_per_prb": [0.1, 0.2]},
                          "extra": {"key": True}})}
    # every dotted key path that changed is listed; the file offends under
    # any tolerance, and no key line is marked on its own
    lines, moved, offending = digest_mod.compare(old, new, 1.0, 1.0)
    assert (moved, offending) == (1, ["case/config_resolved.json"])
    assert lines == ["case config_resolved.json: digest differs, 4 keys changed beyond tolerance",
                     "  psd.bin_hz: removed", "  seed: 1 -> 2",
                     "  evm.profile_per_prb: null -> [0.1, 0.2]", "  extra: added"]
    assert digest_mod.compare(old, new)[1:] == (1, [])
    assert digest_mod.compare(old, old) == ([], 0, [])


LOC_SAMPLE = '''"""Module docstring
over two lines."""

import os  # a comment after code counts


def f(x):
    """Docstring."""
    # a comment line
    text = """a string that is
not a docstring"""
    return (x +
            1)


class C:
    \'\'\'Class docstring.\'\'\'
    value = 1
'''


def test_loc_counts_code_lines_only(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(LOC_SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# end\n")
    done = subprocess.run([sys.executable, str(LOC), str(tmp_path / "pkg")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    # a.py: import, def, text = (two lines), return (two lines), class, value
    assert rows == [["8", "18", str(tmp_path / "pkg" / "a.py")],
                    ["1", "3", str(tmp_path / "pkg" / "b.py")],
                    ["9", "21", "total"]]


def test_abtime_same_tree_twice():
    src = Path(specprecode.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, str(ABTIME), "--a", str(src), "--b", str(src),
                           "--workload", "ssp-mask1", "--pairs", "2", "--symbols", "2"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("pair 1 (a first): ")
    assert lines[1].startswith("pair 2 (b first): ")
    # each pair reports the ratios and the minor page faults of a call of
    # each side as shipped, then with the allocator pinned
    run = r"wall a \S+ s b \S+ s ratio \S+, cpu ratio \S+, minor faults a \d+ b \d+"
    assert all(re.fullmatch(rf"pair \d \([ab] first\): {run}; pinned: {run}", line)
               for line in lines[:2])
    # the ratios' base: the median wall seconds of a call of each tree, and
    # beside them the median minor page faults of a call; the second line
    # holds the same medians of the pinned runs
    medians = r"wall \S+, cpu \S+; median wall a (\S+) s, b (\S+) s; " \
              r"median minor faults a (\d+), b (\d+)"
    for line, prefix in zip(lines[2:4], ["", "pinned allocator, "]):
        base = re.fullmatch(rf"{prefix}median ratio a/b over 2 pairs: {medians}", line)
        assert base and all(float(seconds) > 0 for seconds in base.groups()[:2])
    assert lines[4].startswith("median layer ratio a/b: ")
    layers = dict(item.split() for item in lines[4].split(": ", 1)[1].split(", "))
    assert set(layers) == {"generate", "precode", "metrics", "psd", "io", "total"}
    assert all(float(ratio) > 0 for ratio in layers.values())
    # identical trees move no summary cell, so every line after the
    # medians is a file's verdict
    assert not any(" -> " in line for line in lines)
    files = dict(line.split(": ") for line in lines[5:])
    assert {"trace.csv", "summary.csv", "manifest.json"} <= set(files)
    assert set(files.values()) == {"identical"}


def test_abtime_several_workloads():
    src = Path(specprecode.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, str(ABTIME), "--a", str(src), "--b", str(src),
                           "--workload", "ssp-mask1", "--workload", "essp-wideband",
                           "--pairs", "1", "--symbols", "2"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "workload ssp-mask1:"
    assert lines[1].startswith("pair 1 (a first): ")
    assert "workload essp-wideband:" in lines
    # one median line per workload, in the order given
    tail = lines[lines.index("median ratio a/b per workload over 1 pairs:") + 1:]
    assert [line.split(": ")[0] for line in tail] == ["ssp-mask1", "essp-wideband"]
    medians = r"wall \S+, cpu \S+{}; median wall a \d+\.\d{{5}} s, b \d+\.\d{{5}} s; " \
              r"median minor faults a \d+, b \d+"
    assert all(re.fullmatch(rf"[\w-]+: {medians.format(', precode [^;]+')}; "
                            rf"pinned: {medians.format('')}", line)
               for line in tail)


def test_abtime_tree_without_package(tmp_path):
    # each side imports only its own tree: a directory without the package
    # fails, and no installed copy is timed in its place
    src = Path(specprecode.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, str(ABTIME), "--a", str(tmp_path), "--b", str(src),
                           "--workload", "ssp-mask1", "--pairs", "1", "--symbols", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode != 0
    assert str(tmp_path) in done.stderr and "specprecode" in done.stderr
    assert "pair 1" not in done.stdout


def test_abtime_lists_moved_summary_cells():
    module = load_abtime_module()
    a = {"metrics": {"aclr_worst_db": 41.8, "pass_frac": 1.0, "old": 2}}
    b = {"metrics": {"aclr_worst_db": 41.84, "pass_frac": 1.0, "new": 3}}
    assert module.moved_metrics(a, b) == [("aclr_worst_db", 41.8, 41.84), ("old", 2, None),
                                          ("new", None, 3)]
    assert module.moved_metrics(a, a) == []


def test_abtime_lists_moved_manifest_metrics():
    # summary.csv identical, the manifest not: the metrics that moved below
    # the summary's printed digits are listed under the manifest
    module = load_abtime_module()
    a = {"metrics": {"precoder": "ssp", "evm_wideband_rms": 0.1, "psd_probe_db_p1": -66.5,
                     "zero": 0.0, "old": 2}}
    b = {"metrics": {"precoder": "ssp", "evm_wideband_rms": 0.1 + 2 ** -56,
                     "psd_probe_db_p1": -66.5, "zero": 1e-3}}
    verdicts = [("manifest.json", False), ("summary.csv", True), ("trace.csv", True)]
    assert module.verdict_lines(verdicts, a, b) == [
        "manifest.json: differs",
        "  evm_wideband_rms: 0.1 -> 0.10000000000000002 (relative 1.39e-16)",
        "  zero: 0.0 -> 0.001",
        "  old: 2 -> None",
        "summary.csv: identical",
        "trace.csv: identical"]
    # where summary.csv differs, the moves are listed under it alone
    verdicts[1] = ("summary.csv", False)
    lines = module.verdict_lines(verdicts, a, b)
    assert lines[:3] == ["manifest.json: differs", "summary.csv: differs",
                         "  evm_wideband_rms: 0.1 -> 0.10000000000000002 (relative 1.39e-16)"]
    # identical manifests list nothing
    assert module.verdict_lines([("manifest.json", True)], a, a) == ["manifest.json: identical"]


def test_bench_imports_only_public_names():
    """Every name that bench/*.py imports from specprecode is public, so a
    change that drops or renames one fails here and not only when the
    benchmark runs."""
    imported = {(path.name, alias.name)
                for path in sorted(BENCH.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "specprecode"
                for alias in node.names}
    assert imported
    assert {item for item in imported if item[1] not in specprecode.__all__} == set()
