"""Digest of every data file that ``run_scenario`` writes, over a fixed set of
scenarios, for checking that a change to the program keeps its outputs.

Usage (from the root of a checkout):

    python3 tools/digest.py --out new.json
    python3 tools/digest.py --src ../old/src --out old.json
    python3 tools/digest.py --against old.json

Each case runs ``run_scenario`` from the package under ``--src`` (default:
this checkout's ``src``) with one BLAS thread, and the script prints the
sha256 of each data file and of the manifest without its timing block.
``--out`` saves the digests, the CSV cells and the parsed
``config_resolved.json`` to a JSON file.  With ``--against`` the script
compares every case with the one in that file and lists each CSV cell that
moved, with its relative difference, each dotted key path of
``config_resolved.json`` that was added, removed or changed (for example
``psd.bin_hz: removed``), and each other file whose digest changed.
``--rtol R`` and ``--atol A`` (either one; the other defaults to 0) make
the comparison a check: a CSV cell that moves by more than A + R |old|, a
non-numeric CSV cell that changes, a changed non-CSV data file
(``config_resolved.json``, ``waveform.bin``) and a case missing from the
old digests are offending; each is marked "beyond tolerance", the report
closes with the number of offending files (a case missing from the old
digests counts as one) and their names, one per line, and the script
exits with status 1 if there is one.
The manifest is not checked: its metrics repeat ``summary.csv`` at full
precision and its outputs block holds the data files' digests.
``--case`` picks cases by name (repeat it), ``--symbols`` caps every
case's symbol count, and ``--list`` prints the case names.

The cases: the default scenario under every precoder but the oracle at
20 symbols and (with ESSP also without early stop) at 70; EADMM and ESSP
with the second mask and the frequency-selective edge profile; SSP under
that profile, which it does not apply; ADMM and EADMM with a residual
tolerance; the oracle on a 64-point numerology; SSP on that
numerology without a cyclic prefix (PSD segment 256 = 2^8, with its
waveform written) and with a 3-sample one (segment 268 = 4 * 67), so that
both the plain-FFT and the large-prime paths of the periodogram run; SSP
on three antennas at 70 symbols with its waveform written; NSP, ENSP,
ADMM, SSP, EADMM and ESSP on one antenna at 65 symbols, so that the
runner's last piece of 32 symbols holds a lone row; ADMM, SSP, EADMM and
ESSP on one antenna at 129 symbols, so that the last solver call of the
span form (on span coefficients, under the wideband budget where they
take one), a batch of up to 4 pieces of 32 symbols, holds a lone row;
EADMM and ESSP on one antenna at 65 symbols under the
frequency-selective edge profile, whose per-column balls then hold a
single row and whose band form takes one piece per call; SSP at PSD oversampling 5 (segment 2740 = 20 * 137, the large-prime
path at another m), ENSP at 7 with its waveform written, and SSP on the
64-point numerology at 8 (segment 544 = 32 * 17); and the four benchmark
workloads of
``bench/workloads.json`` at scenario seeds 1000, 2001 and 3002.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DATA_FILES = ("trace.csv", "evm.csv", "psd.csv", "summary.csv", "config_resolved.json",
              "waveform.bin")
WORKLOAD_SEEDS = (1000, 2001, 3002)
SMALL_NUMEROLOGY = {
    "numerology": {"fft_size": 64, "cp_len": 4, "scs_hz": 15_000.0,
                   "n_active": 24, "first_offset": -12, "prb_size": 4},
    "frequencies_hz": [-210_750.0, -199_500.0, 199_500.0, 210_750.0],
    "mask_db_per_100khz": [-75.0, -65.0, -65.0, -75.0],
    "constellation": "QPSK",
    "seed": 3,
    "aclr": {"bw_hz": 300_000.0, "spacing_hz": 500_000.0},
}


def cases(config):
    """Scenario overrides by case name; config is the package's config module."""
    out = {}
    for p in ("none", "nsp", "ensp", "admm", "ssp", "eadmm", "essp"):
        out[f"default-{p}"] = {"precoder": p}
    for p in ("eadmm", "essp"):
        out[f"{p}-mask2-selective"] = {
            "precoder": p, "mask_db_per_100khz": list(config.MASK2_DB),
            "evm": {"mode": "frequency_selective",
                    "profile_per_prb": config.selective_edge_profile()}}
    out["ssp-selective-evm"] = {
        "precoder": "ssp",
        "evm": {"mode": "frequency_selective",
                "profile_per_prb": config.selective_edge_profile()}}
    out["admm-tol"] = {"precoder": "admm", "admm": {"residual_tol": 1e-3}}
    out["eadmm-tol"] = {"precoder": "eadmm", "eadmm": {"residual_tol": 1e-2}}
    out["oracle-n64"] = dict(SMALL_NUMEROLOGY, precoder="oracle", symbols=4)
    for cp_len, extra in ((0, {"emit_waveforms": True}), (3, {})):
        numerology = dict(SMALL_NUMEROLOGY["numerology"], cp_len=cp_len)
        out[f"ssp-n64-cp{cp_len}"] = dict(SMALL_NUMEROLOGY, numerology=numerology,
                                          precoder="ssp", symbols=20, **extra)
    for p in ("none", "nsp", "ensp", "ssp", "essp", "eadmm", "admm"):
        out[f"default-{p}-70"] = {"precoder": p, "symbols": 70}
    out["default-essp-nostop-70"] = {"precoder": "essp", "symbols": 70,
                                     "essp": {"early_stop": False}}
    out["ssp-3tx-waveform-70"] = {"precoder": "ssp", "n_tx": 3, "symbols": 70,
                                  "emit_waveforms": True}
    for p in ("nsp", "ensp", "admm", "ssp", "eadmm", "essp"):
        out[f"{p}-1tx-65"] = {"precoder": p, "n_tx": 1, "symbols": 65}
    for p in ("admm", "ssp", "eadmm", "essp"):
        out[f"{p}-1tx-129"] = {"precoder": p, "n_tx": 1, "symbols": 129}
    for p in ("eadmm", "essp"):
        out[f"{p}-selective-1tx-65"] = {
            "precoder": p, "n_tx": 1, "symbols": 65,
            "evm": {"mode": "frequency_selective",
                    "profile_per_prb": config.selective_edge_profile()}}
    out["ssp-os5"] = {"precoder": "ssp", "psd": {"oversample": 5}}
    out["ensp-os7-waveform"] = {"precoder": "ensp", "psd": {"oversample": 7},
                                "emit_waveforms": True}
    out["ssp-n64-os8"] = dict(SMALL_NUMEROLOGY, precoder="ssp", symbols=20,
                              psd={"oversample": 8})
    with open(ROOT / "bench" / "workloads.json", encoding="utf-8") as fh:
        workloads = json.load(fh)
    for name, overrides in workloads.items():
        for seed in WORKLOAD_SEEDS:
            out[f"{name}-{seed}"] = dict(overrides, seed=seed)
    return out


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_case(package, overrides, out_dir):
    """Digests of one case's files, the rows of its CSV files and its
    parsed JSON data file."""
    cfg = package.ScenarioConfig.from_dict(overrides)
    manifest = package.run_scenario(cfg, out_dir)
    manifest.pop("timings_s")
    entry = {"files": {"manifest.json": sha256(json.dumps(manifest, sort_keys=True).encode())},
             "csv": {}, "json": {}}
    for name in DATA_FILES:
        path = Path(out_dir) / name
        if not path.exists():
            continue
        entry["files"][name] = sha256(path.read_bytes())
        if name.endswith(".csv"):
            with open(path, newline="", encoding="utf-8") as fh:
                entry["csv"][name] = list(csv.reader(fh))
        elif name.endswith(".json"):
            entry["json"][name] = json.loads(path.read_text(encoding="utf-8"))
    return entry


def changed_keys(old, new, path=""):
    """(dotted key path, change) of every key whose value differs between
    two parsed JSON values, objects walked key by key: "removed", "added",
    or "old -> new" for any other value (a list is one value)."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in {**old, **new}:
            sub = f"{path}.{key}" if path else key
            if key not in new:
                out.append((sub, "removed"))
            elif key not in old:
                out.append((sub, "added"))
            else:
                out += changed_keys(old[key], new[key], sub)
        return out
    a, b = json.dumps(old), json.dumps(new)
    return [] if a == b else [(path, f"{a} -> {b}")]


def moved_cells(old_rows, new_rows):
    """(row, column name, old, new, relative difference) of every CSV cell
    that differs; the relative difference is None for a non-numeric cell."""
    if len(old_rows) != len(new_rows) or old_rows[:1] != new_rows[:1]:
        return [(None, "shape or header", f"{len(old_rows)} rows", f"{len(new_rows)} rows", None)]
    header = old_rows[0]
    out = []
    for i, (old, new) in enumerate(zip(old_rows[1:], new_rows[1:]), start=1):
        for col, a, b in zip(header, old, new):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
                rel = abs(y - x) / abs(x) if x != 0 else float("inf")
            except ValueError:
                rel = None
            out.append((i, col, a, b, rel))
    return out


def beyond(a, b, rtol, atol):
    """Whether CSV cell b moved from a by more than atol + rtol |a|; a
    non-numeric cell that changed always has."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return True
    return not abs(y - x) <= atol + rtol * abs(x)


def compare(old, new, rtol=None, atol=None):
    """Report lines for the cases of new against old; returns (lines,
    n_moved, offending), offending the names ("case/file", or "case" for a
    case missing from old) of the files with an offending line, in report
    order.  Without a tolerance (rtol and atol None) nothing is
    offending."""
    check = rtol is not None or atol is not None
    rtol, atol = rtol or 0.0, atol or 0.0
    lines, moved, offending = [], 0, {}

    def line(text, bad, where):
        if bad:
            offending[where] = None
        lines.append(text + (" beyond tolerance" if bad else ""))

    for name, entry in new.items():
        if name not in old:
            line(f"{name}: not in the old digests", check, name)
            continue
        ref = old[name]
        for fname, digest in entry["files"].items():
            if ref["files"].get(fname) == digest:
                continue
            moved += 1
            cells = (moved_cells(ref["csv"][fname], entry["csv"][fname])
                     if fname in entry["csv"] and fname in ref["csv"] else [])
            where = f"{name}/{fname}"
            bad = check and fname in DATA_FILES and not fname.endswith(".csv")
            if fname in entry.get("json", {}) and fname in ref.get("json", {}):
                keys = changed_keys(ref["json"][fname], entry["json"][fname])
                line(f"{name} {fname}: digest differs, {len(keys)} keys changed", bad, where)
                lines.extend(f"  {path}: {change}" for path, change in keys)
                continue
            line(f"{name} {fname}: digest differs, {len(cells)} cells moved", bad, where)
            for row, col, a, b, rel in cells:
                rel_s = "n/a" if rel is None else f"{rel:.2e}"
                line(f"  row {row} {col}: {a} -> {b} (relative {rel_s})",
                     check and (row is None or beyond(a, b, rtol, atol)), where)
    return lines, moved, list(offending)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the specprecode package")
    parser.add_argument("--case", action="append", help="run only this case (repeatable)")
    parser.add_argument("--symbols", type=int, help="cap every case's symbol count")
    parser.add_argument("--out", type=Path, help="write digests and CSV cells here")
    parser.add_argument("--against", type=Path, help="digests to compare with")
    parser.add_argument("--rtol", type=float,
                        help="with --against: fail on a CSV cell that moves by more than "
                             "atol + rtol |old|, or on a changed non-CSV data file")
    parser.add_argument("--atol", type=float, help="with --against: see --rtol")
    parser.add_argument("--list", action="store_true", help="print the case names and exit")
    args = parser.parse_args(argv)
    if (args.rtol is not None or args.atol is not None) and args.against is None:
        parser.error("--rtol and --atol need --against")

    sys.path.insert(0, str(args.src.resolve()))
    import specprecode
    from specprecode import config

    print(f"specprecode from {Path(specprecode.__file__).parent}")
    all_cases = cases(config)
    if args.list:
        print("\n".join(all_cases))
        return 0
    names = args.case or list(all_cases)
    unknown = [n for n in names if n not in all_cases]
    if unknown:
        parser.error(f"unknown case(s): {', '.join(unknown)}")

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            overrides = dict(all_cases[name])
            if args.symbols is not None:
                default = config.DEFAULT_SCENARIO["symbols"]
                overrides["symbols"] = min(args.symbols, overrides.get("symbols", default))
            entry = run_case(specprecode, overrides, Path(tmp) / name)
            results[name] = entry
            for fname, digest in entry["files"].items():
                print(f"{digest}  {name}/{fname}")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh)
    if args.against is not None:
        with open(args.against, encoding="utf-8") as fh:
            old = json.load(fh)
        lines, moved, offending = compare(old, results, args.rtol, args.atol)
        print("\n".join(lines))
        print(f"{moved} of {sum(len(e['files']) for e in results.values())} files differ")
        if args.rtol is not None or args.atol is not None:
            print(f"{len(offending)} files beyond tolerance (atol {args.atol or 0.0:g}, "
                  f"rtol {args.rtol or 0.0:g})" + "".join(f"\n  {f}" for f in offending))
            return 1 if offending else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
