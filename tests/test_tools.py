"""Smoke test of the output digest script, tools/digest.py."""

import json
import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parent.parent / "tools" / "digest.py"


def digest(*args):
    done = subprocess.run([sys.executable, str(DIGEST), "--case", "default-ssp",
                           "--symbols", "2", *map(str, args)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_digests_and_moved_cells(tmp_path):
    saved = tmp_path / "old.json"
    lines = digest("--out", saved)
    files = [line.split()[1] for line in lines[1:]]
    assert "default-ssp/trace.csv" in files and "default-ssp/psd.csv" in files

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
