"""Scenario execution: symbol loop, metric aggregation, CSV/JSON outputs.

A run produces, inside the output directory:

``trace.csv``      per-iteration solver trace: row i averages over the
                   symbols that reached iteration i (its ``symbols``
                   column); a precoder without iterations writes one row
``evm.csv``        per-subcarrier EVM pooled across the run, with the
                   budget when the precoder applied a frequency-selective one
``psd.csv``        binned power spectral density of the emitted waveform
``summary.csv``    one-row headline metrics
``config_resolved.json``  the exact configuration the run used
``waveform.bin``   base-rate time samples (only with emit_waveforms)
``manifest.json``  version, timings, digests of every output file

Re-running the same resolved configuration reproduces the data files
byte for byte; the manifest differs only in its timing block.

The run carries only the symbols' active bands, (S, n_tx, n_active) in
bin order (numerology.band_bins): the guard bins of a data grid are zero,
so the band is all of a symbol, and no N-wide grid is built on the way;
the synthesizer's zero-padded spectrum buffers are the only N-wide arrays
of a run.  It is a pipeline over pieces of BLOCK_SYMBOLS consecutive
symbols, grouped into batches, one solver call each: a precoder that
iterates in the span form (PRECODER_TABLE's ``loop``, where
unconstrained.span_form allows it under the run's budget) takes
BATCH_PIECES pieces per call, and every other precoder one.  The bands of
a batch are drawn a piece at a time (signal_model._qam_band) into one
buffer of the run, precoded in one call and checked for non-finite
values, and each piece of the output is then measured, added to the PSD
and written on its own, so that only the batch's bands outgrow a piece.
PsdAccumulator.add_symbols owns the emitted spectrum (the oversampled
synthesis and its pieces, metrics.PSD_SYMBOLS).  The run record
(``_RunRecord``) is the one place that measures a precoded piece: it
takes the piece's input and output bands and forms from them the leakage
(oobe_power), the EVM sums and the probe densities
(metrics._probe_densities on the frame kernel, the kernel of the
synthesizer's frames, the formula of kernel_psd_prediction).  Every
per-symbol result is computed as for a call of one symbol.  An iterative
precoder hands the run its block report (unconstrained.BlockTraces),
which the record takes a piece at a time (BlockTraces.take) and adds in
one pass, every running sum taking the piece's symbols one at a time in
order (metrics._add_in_order), and writes trace.csv, evm.csv, psd.csv
and summary.csv from them at the end, so the data files depend on
neither the batch nor the piece size; they only trade per-call overhead
against the memory of the arrays a batch or piece needs.
``waveform.bin`` is written piece by piece as well: each piece's
base-rate samples go to their offsets in every stream of a file that is
renamed into place when the run has written it whole, so a run holds one
piece of waveform at a time and a run that raises leaves no partial file.
Its digest is then taken in chunks of the file.

What does not depend on the data is built once per process: build_kernel
memoizes the kernel by value, per (numerology, frequency grid), so a run
keys two entries, its solver kernel and its frame kernel, and the
read-only arrays derived from them are kept on them (the active-band
rows, the Gram matrix and its factor), as are the PSD's transform tables
and reporting lattice per segment (metrics._dft_tables,
metrics._psd_lattice).  Each run builds only its run record, PSD sums
and buffers, and its files; the manifest and config_resolved.json share
one normalized config.  A run that raises leaves no empty directory that
it made.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import LogBarrierProblem, _ensp_block, _notch_component, logbarrier_solve
from .constrained import _essp_block
from .errors import ConfigError
from .metrics import PsdAccumulator, _add_in_order, _probe_densities, _to_db, aclr, oobe_power
from .signal_model import WaveformWriter, _qam_band, _synthesize_band, build_kernel
from .unconstrained import (BATCH_PIECES, BLOCK_SYMBOLS, BlockTraces, _ssp_block, consensus_admm,
                            span_form)

# Bytes read at a time when a written file is digested.
_DIGEST_CHUNK = 1 << 20


def _fmt(value):
    """A CSV cell: "%.12g" for a float, str otherwise, quoted as the csv
    module's default dialect quotes it (where it holds a comma, a quote or
    a line break, with its quotes doubled)."""
    if isinstance(value, (float, np.floating)):
        return "%.12g" % value
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _scaled_notch(cfg, band, kernel, budget):
    vals, alpha = _ensp_block(band, kernel, budget.eps_avg)
    return vals, None, {"ensp_alpha_max": float(np.max(alpha))}


def _log_barrier(cfg, band, kernel, budget):
    """Log-barrier projection of every symbol's active band (n_tx,
    n_active), with the worst KKT residual and Newton step count over the
    symbols.  Each problem is posed on the band in bin order
    (numerology.band_bins) with the band rows, and its solution is
    written into a copy of the band."""
    u_rows = kernel.band_rows.conj()
    rank1 = [(u_rows[m], float(cfg.mask.gamma[m])) for m in range(u_rows.shape[0])]
    out = band.copy()
    kkt, steps = [], []
    for sym in out:
        result = logbarrier_solve(LogBarrierProblem(objective="least_squares",
                                                    reference=sym, rank1=rank1))
        sym[...] = result.solution
        kkt.append(float(result.kkt_residual))
        steps.append(int(result.newton_steps))
    return out, None, {"oracle_kkt": max(kkt), "oracle_newton_steps": max(steps)}


# One entry per precoder.  ``budgets`` names the modes of error budget the
# precoder takes (none for a mask-only precoder), and ``loop`` whether it
# iterates on the active-band loop (unconstrained._band_iterations), whose
# span form takes batches of BATCH_PIECES pieces.  ``run(cfg, band,
# kernel, budget)`` precodes the active bands (S, n_tx, n_active), in bin
# order (numerology.band_bins), of S symbols and returns (precoded bands,
# block report or None, extras), with extras the largest value of each
# diagnostic over the symbols.  No body checks the bands, which the run
# drew, or the mask bounds cfg.mask.gamma, which MaskSpec checked when the
# scenario resolved (the public *_precode functions check both, through
# unconstrained._as_block and unconstrained.mask_bounds); the iterative
# bodies return a block report (unconstrained.BlockTraces) that the run
# record adds a piece at a time.
_Precoder = namedtuple("_Precoder", "budgets loop run")
_ANY_BUDGET = ("wideband", "frequency_selective")
PRECODER_TABLE = {
    "none": _Precoder((), False, lambda cfg, band, kernel, budget: (band, None, {})),
    "nsp": _Precoder((), False, lambda cfg, band, kernel, budget: (
        band - _notch_component(kernel, band), None, {})),
    "ensp": _Precoder(("wideband",), False, _scaled_notch),
    "admm": _Precoder((), True, lambda cfg, band, kernel, budget: (
        *consensus_admm(band, kernel, cfg.mask.gamma, cfg.admm), {})),
    "ssp": _Precoder((), True, lambda cfg, band, kernel, budget: (
        *_ssp_block(band, kernel, cfg.mask.gamma, cfg.ssp), {})),
    "eadmm": _Precoder(_ANY_BUDGET, True, lambda cfg, band, kernel, budget: (
        *consensus_admm(band, kernel, cfg.mask.gamma, cfg.eadmm, budget), {})),
    "essp": _Precoder(_ANY_BUDGET, True, lambda cfg, band, kernel, budget: (
        *_essp_block(band, kernel, cfg.mask.gamma, cfg.essp, budget), {})),
    "oracle": _Precoder((), False, _log_barrier),
}


class _RunRecord:
    """The run's statistics, added a piece at a time with every symbol in
    run order, and the data files derived from them.

    It measures each piece on its active bands, in bin order
    (numerology.band_bins), and keeps its per-symbol quantities in one
    running sum, ``sums``, whose row per symbol holds, in this order, per
    mask point the worst-row leakage of the output (oobe_power on the
    kernel) and its emitted probe density (metrics._probe_densities on
    the frame kernel, which the record builds from the memo), per active
    subcarrier in bin order the error and the reference power (evm.csv
    reorders them by offset), and those two powers' totals over the band;
    write splits the sum back into these parts.  The guard bins of a data
    grid are zero, so the band holds all of a symbol's power.  It keeps
    the largest mask ratio and the largest value of each extra.  Row i of
    ``trace`` sums over the symbols that reached iteration i + 1: their
    count, evm^2, the M leakage powers, and the primal and dual residuals.
    A precoder without iterations gives each symbol one row, from its EVM
    and leakage.  Both sums add the piece's symbols one at a time, in
    order (_add_in_order), which adds each column row by row, so a column
    has the bits it would have alone and the sums do not depend on the
    piece size.  ``budget`` is the EvmConstraint the precoder applied,
    None for a precoder without one; evm.csv reports a frequency-selective
    one.
    """

    def __init__(self, cfg, budget, kernel):
        self.cfg = cfg
        self.budget = budget
        self.kernel = kernel
        self.frame_kernel = build_kernel(cfg.numerology.oversampled(cfg.psd_oversample),
                                         cfg.freq_grid)
        self.sums = np.zeros(2 * cfg.freq_grid.size + 2 * cfg.numerology.n_active + 2)
        self.ratio_max = 0.0
        self.extras = {}
        self.trace = np.zeros((0, cfg.freq_grid.size + 4))

    def add(self, grid, out, traces, extras):
        """Add a piece: the active bands (S, n_tx, n_active), in bin order
        (numerology.band_bins), of its input and precoded symbols, and the
        precoder's report of the piece (or None) and extras.  The output's
        leakage is oobe_power of its band; every antenna row shares the
        bounds, so the mask ratio is the worst row's.  A probe density is
        the emitted leakage at its point (metrics._probe_densities), as
        kernel_psd_prediction computes it."""
        per_point = np.max(oobe_power(out, self.kernel), axis=2)
        self.ratio_max = max(self.ratio_max, float(np.max(per_point / self.cfg.mask.gamma)))
        for key, val in extras.items():
            self.extras[key] = max(self.extras.get(key, -np.inf), val)

        err = np.abs(out - grid) ** 2
        ref = np.abs(grid) ** 2
        err_sym = np.sum(err, axis=(1, 2))
        ref_sym = np.sum(ref, axis=(1, 2))
        if traces is None:
            traces = BlockTraces(1, len(err_sym), per_point.shape[1])
            traces.record(0, slice(None), np.sqrt(np.divide(
                err_sym, ref_sym, out=np.zeros_like(err_sym), where=ref_sym > 0)),
                per_point, 0.0, 0.0)
        # (S, iterations, M + 4); a symbol adds zeros after its last
        # iteration, which leaves every (non-negative) sum's bits alone.
        n = traces.iterations.max()
        rows = np.concatenate(((np.arange(n)[:, None] < traces.iterations)[..., None],
                               traces.evm[:n, :, None] ** 2, traces.oob[:n],
                               traces.primal[:n, :, None], traces.dual[:n, :, None]),
                              axis=-1).swapaxes(0, 1)
        if n > len(self.trace):
            self.trace = np.pad(self.trace, ((0, n - len(self.trace)), (0, 0)))
        self.trace[:n] = _add_in_order(self.trace[:n], rows)
        self.sums = _add_in_order(self.sums, np.concatenate((
            per_point, _probe_densities(out, self.frame_kernel, self.cfg.psd_oversample),
            err.sum(axis=1), ref.sum(axis=1), err_sym[:, None], ref_sym[:, None]), axis=1))

    def write(self, out_path, psd_acc, files):
        """Write trace.csv, evm.csv, psd.csv and summary.csv, recording their
        digests in ``files``; returns the summary."""
        cfg = self.cfg
        n_points = cfg.freq_grid.size
        header = ["iter", "symbols", "evm_rms"]
        header += [f"oobe_db_p{m + 1}" for m in range(n_points)]
        header += ["primal_residual", "dual_residual"]
        trace, count = self.trace, self.trace[:, :1]
        _write_csv(out_path / "trace.csv", header, None, files, columns=[
            np.arange(1, len(trace) + 1), trace[:, 0], np.sqrt(trace[:, 1] / trace[:, 0]),
            *_to_db(trace[:, 2:-2] / count).T, *(trace[:, -2:] / count).T])

        num = cfg.numerology
        leak, probe, err_cols, ref_cols, (err, ref) = np.split(self.sums, np.cumsum(
            [n_points, n_points, num.n_active, num.n_active]))
        order = np.searchsorted(num.band_bins, num.active_bins)     # bin order to offset order
        err_cols, ref_cols = err_cols[order], ref_cols[order]
        columns = [num.active_offsets, np.sqrt(np.where(
            ref_cols > 0, err_cols / np.maximum(ref_cols, 1e-300), np.nan))]
        header = ["subcarrier_offset", "evm_rms"]
        if self.budget is not None and self.budget.mode == "frequency_selective":
            columns.append(self.budget.eps)
            header.append("budget")
        _write_csv(out_path / "evm.csv", header, None, files, columns=columns)

        psd = psd_acc.finalize()
        _write_csv(out_path / "psd.csv", ["freq_hz", "density_db"], None, files,
                   columns=[psd.freq_hz, psd.density_db])

        aclr_rep = aclr(psd, {"bw_hz": cfg.aclr_bw_hz, "spacing_hz": cfg.aclr_spacing_hz})
        summary = {
            "precoder": cfg.precoder,
            "symbols": cfg.symbols,
            "n_tx": cfg.n_tx,
            "evm_wideband_rms": float(np.sqrt(err / ref)),
            "aclr_lower_db": float(aclr_rep.lower_db),
            "aclr_upper_db": float(aclr_rep.upper_db),
            "aclr_worst_db": float(aclr_rep.worst_db),
            "mask_ratio_max": self.ratio_max,
        }
        for m, val in enumerate(_to_db(leak / cfg.symbols)):
            summary[f"oobe_db_p{m + 1}"] = float(val)
        probe_db = cfg.ref_db + _to_db(probe / cfg.symbols / psd.ref_density)
        for m, val in enumerate(probe_db):
            summary[f"psd_probe_db_p{m + 1}"] = float(val)
        summary.update({k: float(v) for k, v in sorted(self.extras.items())})
        _write_csv(out_path / "summary.csv", list(summary.keys()), [list(summary.values())],
                   files)
        return summary


def run_scenario(cfg, out_dir=None):
    """Execute a scenario and write its outputs; returns the manifest dict.

    A run that raises removes again the directories it made for its output
    (the output directory and its missing parents) while they are empty."""
    out_path = Path(out_dir if out_dir is not None else cfg.out_dir)
    made = [path for path in (out_path, *out_path.parents) if not path.exists()]
    out_path.mkdir(parents=True, exist_ok=True)
    try:
        return _run(cfg, out_path)
    except BaseException:
        for path in made:                   # the output directory first
            if any(path.iterdir()):
                break
            path.rmdir()
        raise


def _run(cfg, out_path):
    """run_scenario's run into the existing directory out_path."""
    kernel = build_kernel(cfg.numerology, cfg.freq_grid)
    precoder = PRECODER_TABLE[cfg.precoder]
    budget = cfg.evm_constraint()
    psd_acc = PsdAccumulator(cfg.numerology, cfg.psd_config())
    record = _RunRecord(cfg, budget, kernel)
    num = cfg.numerology
    symbol_len = num.symbol_len
    waveform_path = out_path / "waveform.bin"
    waveform = (WaveformWriter(waveform_path, cfg.n_tx, cfg.symbols * symbol_len)
                if cfg.emit_waveforms else contextlib.nullcontext())
    batch = BLOCK_SYMBOLS * (BATCH_PIECES if precoder.loop and span_form(budget) else 1)
    # the one buffer of the run's drawn bands, which every batch reuses
    drawn = np.empty((min(batch, cfg.symbols), cfg.n_tx, num.n_active), dtype=complex)

    timings = {"generate": 0.0, "precode": 0.0, "metrics": 0.0, "psd": 0.0, "io": 0.0}
    t_run = time.perf_counter()
    with waveform:
        for start in range(0, cfg.symbols, batch):
            t0 = time.perf_counter()
            band = drawn[:min(batch, cfg.symbols - start)]
            pieces = [slice(j, j + BLOCK_SYMBOLS) for j in range(0, len(band), BLOCK_SYMBOLS)]
            for piece in pieces:
                _qam_band(cfg.seed, num, cfg.constellation, start + piece.start, band[piece])
            t1 = time.perf_counter()
            out, traces, extras = precoder.run(cfg, band, kernel, budget)
            if not np.isfinite(out).all():
                raise ConfigError("precoded data contains non-finite values", field="grid")
            timings["generate"] += t1 - t0
            timings["precode"] += time.perf_counter() - t1

            for piece in pieces:
                t2 = time.perf_counter()
                record.add(band[piece], out[piece],
                           None if traces is None else traces.take(piece), extras)
                t_psd = time.perf_counter()
                psd_acc.add_symbols(out[piece])
                t3 = time.perf_counter()
                if cfg.emit_waveforms:
                    waveform.write((start + piece.start) * symbol_len,
                                   _synthesize_band(out[piece], num))
                timings["metrics"] += t3 - t2
                timings["psd"] += t3 - t_psd
                timings["io"] += time.perf_counter() - t3

    t_io = time.perf_counter()
    files = {}
    summary = record.write(out_path, psd_acc, files)
    config = cfg.normalized()
    _write_bytes(out_path / "config_resolved.json", _json_bytes(config), files)
    if cfg.emit_waveforms:
        with open(waveform_path, "rb") as fh:
            files["waveform.bin"] = _sha256(iter(functools.partial(fh.read, _DIGEST_CHUNK), b""))
    timings["io"] += time.perf_counter() - t_io
    timings["total"] = time.perf_counter() - t_run

    manifest = {
        "version": __version__,
        "precoder": cfg.precoder,
        "config": config,
        "metrics": summary,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "outputs": files,
    }
    (out_path / "manifest.json").write_bytes(_json_bytes(manifest))
    return manifest


def _sha256(chunks):
    """Hex digest of the bytes of an iterable of chunks, one after the other."""
    import hashlib      # only a run that writes its files needs it

    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _write_bytes(path, data, files):
    """Write data to path and record its digest under the file's name."""
    path.write_bytes(data)
    files[path.name] = _sha256([data])


def _write_csv(path, header, rows, files, columns=None):
    """Write a table, formatted in one pass: the bytes that csv.writer
    writes for the _fmt cells of each row, with \r\n line ends (as there,
    a row whose one cell is empty reads '""').  The body is ``rows``, or,
    where that is None, ``columns``: 1-D integer or float arrays of one
    length, printed through one row template of "%d" and "%.12g" slots,
    the text _fmt gives their cells, with no per-cell type test."""
    lines = []
    for row in (header, *(() if rows is None else rows)):
        cells = [_fmt(v) for v in row]
        lines.append('""' if cells == [""] else ",".join(cells))
    if rows is None:
        template = ",".join("%.12g" if col.dtype.kind == "f" else "%d" for col in columns)
        lines += [template % row for row in zip(*(col.tolist() for col in columns))]
    lines.append("")
    _write_bytes(path, "\r\n".join(lines).encode("utf-8"), files)


def _json_bytes(data):
    """The JSON text of data as json.dump(data, fh, indent=2, sort_keys=True)
    writes it, and a line end, in UTF-8."""
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode("utf-8")


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
