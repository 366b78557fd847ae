"""Scenario execution: symbol loop, metric aggregation, CSV/JSON outputs.

A run produces, inside the output directory:

``trace.csv``      per-iteration solver trace, averaged across symbols
``evm.csv``        per-subcarrier error budget use, pooled across the run
``psd.csv``        binned power spectral density of the emitted waveform
``summary.csv``    one-row headline metrics
``config_resolved.json``  the exact configuration the run used
``waveform.bin``   base-rate time samples (only with emit_waveforms)
``manifest.json``  version, timings, digests of every output file

Re-running the same resolved configuration reproduces the data files
byte for byte; the manifest differs only in its timing block.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import LogBarrierProblem, ensp_precode, logbarrier_solve, nsp_precode
from .config import BUDGET_PRECODERS
from .constrained import eadmm_precode, essp_precode
from .errors import ConfigError
from .metrics import PsdAccumulator, aclr, evm_metrics, mask_ratio, oobe_power
from .signal_model import (build_kernel, generate_qam_grid, synthesize_time_signal,
                           write_waveform)
from .unconstrained import SolverReport, admm_precode, ssp_precode

_DB_FLOOR = 1e-30


def _db(x):
    return 10.0 * np.log10(np.maximum(x, _DB_FLOOR))


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _pseudo_report(grid, out, per_point):
    """One-entry trace for precoders that have no iterations; per_point is
    the worst-row leakage power of ``out`` at every mask point."""
    diff = out.symbols - grid.symbols
    ref = np.sum(np.abs(grid.symbols) ** 2)
    evm = float(np.sqrt(np.sum(np.abs(diff) ** 2) / ref)) if ref > 0 else 0.0
    return SolverReport.from_entries([(evm, per_point, 0.0, 0.0)])


def _oracle_precode(grid, kernel, gamma):
    u_rows = kernel.active_rows.conj()
    rank1 = [(u_rows[m], float(gamma[m])) for m in range(u_rows.shape[0])]
    problem = LogBarrierProblem(objective="least_squares", reference=grid.symbols,
                                rank1=rank1)
    result = logbarrier_solve(problem)
    out = grid.with_symbols(result.solution.reshape(grid.symbols.shape))
    extras = {"oracle_kkt": float(result.kkt_residual),
              "oracle_newton_steps": int(result.newton_steps)}
    return out, extras


def _dispatch(cfg, grid, kernel, evm_c):
    gamma = cfg.mask.gamma
    extras = {}
    if cfg.precoder == "none":
        out = grid
        report = None
    elif cfg.precoder == "nsp":
        out = grid.with_symbols(nsp_precode(grid.symbols, kernel))
        report = None
    elif cfg.precoder == "ensp":
        vals, alpha = ensp_precode(grid.symbols, kernel, cfg.evm_eps_avg)
        out = grid.with_symbols(vals)
        extras["ensp_alpha_max"] = float(np.max(alpha))
        report = None
    elif cfg.precoder == "admm":
        vals, report = admm_precode(grid.symbols, kernel, cfg.mask, cfg.admm)
        out = grid.with_symbols(vals)
    elif cfg.precoder == "ssp":
        vals, report = ssp_precode(grid.symbols, kernel, cfg.mask, cfg.ssp)
        out = grid.with_symbols(vals)
    elif cfg.precoder == "eadmm":
        out, report = eadmm_precode(grid, kernel, cfg.mask, evm_c, cfg.eadmm)
    elif cfg.precoder == "essp":
        out, report = essp_precode(grid, kernel, cfg.mask, evm_c, cfg.essp)
    elif cfg.precoder == "oracle":
        out, extras = _oracle_precode(grid, kernel, gamma)
        report = None
    else:
        raise ConfigError(f"unknown precoder {cfg.precoder!r}", field="precoder")
    return out, report, extras


class _TraceAccumulator:
    """Mean per iteration index across symbols of unequal trace lengths."""

    def __init__(self, n_points):
        self.n_points = n_points
        self.count = []
        self.evm = []
        self.oob = []
        self.primal = []
        self.dual = []

    def add(self, report):
        for i in range(report.iterations):
            if i == len(self.count):
                self.count.append(0)
                self.evm.append(0.0)
                self.oob.append(np.zeros(self.n_points))
                self.primal.append(0.0)
                self.dual.append(0.0)
            self.count[i] += 1
            self.evm[i] += report.evm_trace[i] ** 2
            self.oob[i] = self.oob[i] + np.asarray(report.oob_trace[i])
            self.primal[i] += report.primal_trace[i]
            self.dual[i] += report.dual_trace[i]

    def rows(self):
        out = []
        for i, n in enumerate(self.count):
            row = [i + 1, n, float(np.sqrt(self.evm[i] / n))]
            row.extend(_db(self.oob[i] / n).tolist())
            row.extend([self.primal[i] / n, self.dual[i] / n])
            out.append(row)
        return out


def run_scenario(cfg, out_dir=None):
    """Execute a scenario and write its outputs; returns the manifest dict."""
    out_path = Path(out_dir if out_dir is not None else cfg.out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    kernel = build_kernel(cfg.numerology, cfg.freq_grid)
    evm_c = cfg.evm_constraint() if cfg.precoder in BUDGET_PRECODERS else None
    psd_cfg = cfg.psd_config()
    probe_hz = cfg.freq_grid.to_hz(cfg.numerology.scs_hz)
    psd_acc = PsdAccumulator(cfg.numerology, psd_cfg, probe_freqs_hz=probe_hz)
    trace_acc = _TraceAccumulator(cfg.freq_grid.size)

    n_points = cfg.freq_grid.size
    offsets = cfg.numerology.active_offsets
    err_sq = np.zeros(cfg.numerology.n_active)
    ref_sq = np.zeros(cfg.numerology.n_active)
    err_total = 0.0
    ref_total = 0.0
    oob_final = np.zeros(n_points)
    ratio_max = 0.0
    extras_agg = {}
    waveform_chunks = [] if cfg.emit_waveforms else None

    timings = {"generate": 0.0, "precode": 0.0, "metrics": 0.0, "io": 0.0}
    t_run = time.perf_counter()
    for s in range(cfg.symbols):
        t0 = time.perf_counter()
        grid = generate_qam_grid(cfg.seed, cfg.numerology, cfg.n_tx,
                                 cfg.constellation, symbol_index=s)
        t1 = time.perf_counter()
        out, report, extras = _dispatch(cfg, grid, kernel, evm_c)
        t2 = time.perf_counter()

        pow_pts = oobe_power(out, kernel)
        per_point = np.max(pow_pts, axis=1)
        oob_final += per_point
        ratio_max = max(ratio_max, float(np.max(pow_pts / cfg.mask.gamma[:, None])))

        trace_acc.add(report or _pseudo_report(grid, out, per_point))
        for key, val in extras.items():
            extras_agg[key] = max(extras_agg.get(key, -np.inf), val)

        diff = out.symbols - grid.symbols
        cols = cfg.numerology.active_bins
        err_sq += np.sum(np.abs(diff[:, cols]) ** 2, axis=0)
        ref_sq += np.sum(np.abs(grid.symbols[:, cols]) ** 2, axis=0)
        err_total += float(np.sum(np.abs(diff) ** 2))
        ref_total += float(np.sum(np.abs(grid.symbols) ** 2))

        samples = synthesize_time_signal(out, oversample=cfg.psd_oversample)
        psd_acc.add(samples)
        if waveform_chunks is not None:
            waveform_chunks.append(synthesize_time_signal(out, oversample=1))
        t3 = time.perf_counter()
        timings["generate"] += t1 - t0
        timings["precode"] += t2 - t1
        timings["metrics"] += t3 - t2

    t_io = time.perf_counter()
    psd = psd_acc.finalize()
    aclr_rep = aclr(psd, {"bw_hz": cfg.aclr_bw_hz, "spacing_hz": cfg.aclr_spacing_hz})
    evm_wideband = float(np.sqrt(err_total / ref_total))
    evm_per_sc = np.sqrt(np.where(ref_sq > 0, err_sq / np.maximum(ref_sq, 1e-300), np.nan))
    oob_mean_db = _db(oob_final / cfg.symbols)
    probe_db = cfg.ref_db + _db(psd_acc.probe_density() / psd_cfg.ref_density)

    files = {}
    _write_trace(out_path / "trace.csv", trace_acc, n_points, files)
    _write_evm(out_path / "evm.csv", offsets, evm_per_sc, cfg, files)
    _write_psd(out_path / "psd.csv", psd, files)
    summary = _write_summary(out_path / "summary.csv", cfg, evm_wideband, aclr_rep,
                             ratio_max, oob_mean_db, probe_db, extras_agg, files)
    _write_json(out_path / "config_resolved.json", cfg.normalized(), files)
    if waveform_chunks is not None:
        samples = np.concatenate(waveform_chunks, axis=1)
        write_waveform(out_path / "waveform.bin", samples)
        files["waveform.bin"] = _sha256(out_path / "waveform.bin")
    timings["io"] = time.perf_counter() - t_io
    timings["total"] = time.perf_counter() - t_run

    manifest = {
        "version": __version__,
        "precoder": cfg.precoder,
        "config": cfg.normalized(),
        "metrics": summary,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "outputs": files,
    }
    with open(out_path / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_csv(path, header, rows, files):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    files[path.name] = _sha256(path)


def _write_trace(path, trace_acc, n_points, files):
    header = ["iter", "symbols", "evm_rms"]
    header += [f"oobe_db_p{m + 1}" for m in range(n_points)]
    header += ["primal_residual", "dual_residual"]
    _write_csv(path, header, trace_acc.rows(), files)


def _write_evm(path, offsets, evm_per_sc, cfg, files):
    budget = None
    if cfg.evm_profile is not None and cfg.evm_mode == "frequency_selective":
        from .config import expand_evm_profile
        budget = expand_evm_profile(cfg.evm_profile, cfg.numerology)
    header = ["subcarrier_offset", "evm_rms"] + (["budget"] if budget is not None else [])
    rows = []
    for i, off in enumerate(offsets):
        row = [int(off), evm_per_sc[i]]
        if budget is not None:
            row.append(budget[i])
        rows.append(row)
    _write_csv(path, header, rows, files)


def _write_psd(path, psd, files):
    rows = [[f, d] for f, d in zip(psd.freq_hz, psd.density_db)]
    _write_csv(path, ["freq_hz", "density_db"], rows, files)


def _write_summary(path, cfg, evm_wideband, aclr_rep, ratio_max, oob_mean_db,
                   probe_db, extras, files):
    summary = {
        "precoder": cfg.precoder,
        "symbols": cfg.symbols,
        "n_tx": cfg.n_tx,
        "evm_wideband_rms": evm_wideband,
        "aclr_lower_db": float(aclr_rep.lower_db),
        "aclr_upper_db": float(aclr_rep.upper_db),
        "aclr_worst_db": float(aclr_rep.worst_db),
        "mask_ratio_max": ratio_max,
    }
    for m, val in enumerate(oob_mean_db):
        summary[f"oobe_db_p{m + 1}"] = float(val)
    for m, val in enumerate(probe_db):
        summary[f"psd_probe_db_p{m + 1}"] = float(val)
    summary.update({k: float(v) for k, v in sorted(extras.items())})
    _write_csv(path, list(summary.keys()), [list(summary.values())], files)
    return summary


def _write_json(path, data, files):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files[path.name] = _sha256(path)


_COMPARE_SHARED = ("numerology", "frequencies_hz", "mask_db_per_100khz", "n_tx",
                   "constellation", "seed", "symbols")


def compare_runs(manifest_paths, out_csv=None):
    """Side-by-side metric table for runs of one scenario under different
    precoders; the first run is the baseline for the delta columns."""
    manifests = []
    for p in manifest_paths:
        with open(p, "r", encoding="utf-8") as fh:
            manifests.append(json.load(fh))
    if len(manifests) < 2:
        raise ConfigError("need at least two runs to compare", field="manifests")
    base_cfg = manifests[0]["config"]
    for i, man in enumerate(manifests[1:], start=2):
        for key in _COMPARE_SHARED:
            if man["config"].get(key) != base_cfg.get(key):
                raise ConfigError(f"run {i} differs from the baseline in {key!r}; "
                                  "compared runs must share the scenario",
                                  field=f"manifests[{i - 1}].{key}")

    numeric = [k for k, v in manifests[0]["metrics"].items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)
               and all(k in m["metrics"] for m in manifests)]
    header = ["run", "precoder"] + numeric + [f"delta_{k}" for k in numeric]
    rows = []
    base = manifests[0]["metrics"]
    for i, man in enumerate(manifests):
        met = man["metrics"]
        row = [i + 1, man["precoder"]]
        row += [met[k] for k in numeric]
        row += [met[k] - base[k] for k in numeric]
        rows.append(row)
    table = {"header": header, "rows": rows}
    if out_csv is not None:
        files = {}
        _write_csv(Path(out_csv), header, rows, files)
    return table
