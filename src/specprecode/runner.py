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

The run is a pipeline over blocks of BLOCK_SYMBOLS consecutive symbols:
each block is generated, precoded and measured in one pass, so every
numpy call serves the whole block, and its oversampled waveform is
synthesised and added to the PSD in pieces of PSD_SYMBOLS.  The run
record (``_RunRecord``) is the one place that measures a precoded block:
it takes the block's active band, gathered once in bin order
(numerology.band_bins), and forms from it the leakage (oobe_power), the
EVM sums and the probe densities (oobe_power of the band on the frame
kernel, the kernel of the synthesizer's frames: build_kernel of
numerology.oversampled(L) for the PSD oversampling L).  Every per-symbol
result is computed as for a block of one.  An iterative precoder hands
the run its block report (unconstrained.BlockTraces), and the record adds
each block's statistics in one pass, every running sum taking the
block's symbols one at a time in order (metrics._add_in_order), and
writes trace.csv, evm.csv, psd.csv and summary.csv from them at the end,
so the data files depend on neither constant; they only trade per-call
overhead against the memory of the arrays a block or piece needs.
``waveform.bin`` is written block by block as well: each block's
base-rate samples go to their offsets in every stream of a file that is
renamed into place when the run has written it whole, so a run holds one
block of waveform at a time and a run that raises leaves no partial file.
Its digest is then taken in chunks of the file.

What does not depend on the data is built once per process: build_kernel
memoizes the kernel by value, per (numerology, frequency grid), so a run
keys two entries, its solver kernel and its frame kernel, and the
read-only arrays derived from them are kept on them (the active-band
rows, the Gram matrix and its factor), as are the PSD's transform tables
and reporting lattice per segment (metrics._dft_tables,
metrics._psd_lattice).  Each run resolves its frame numerology once and
builds only its run record, PSD sums and buffers, and its files; the
manifest and config_resolved.json share one normalized config.  A run
that raises leaves no empty directory that it made.
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
from .metrics import PsdAccumulator, _add_in_order, _to_db, aclr, oobe_power
from .signal_model import (WaveformWriter, _write_frames, build_kernel, generate_qam_block,
                           synthesize_time_signal)
from .unconstrained import BlockTraces, _ssp_block, consensus_admm

# Symbols per pipeline block.  Measured in run_scenario on 256 symbols of
# the benchmark workloads (2 vCPUs, one BLAS thread): SSP's precode costs
# 113 us/symbol at 16, 67 at 32 and 52 at 128, as its per-call overhead is
# spread over more symbols, while ENSP's costs 21 us/symbol at 32 and
# 29-36 from 48 up, as its block arrays leave the cache.
BLOCK_SYMBOLS = 32
# Symbols per oversampled synthesis and PSD update within a block.  At the
# default 4x oversampling a symbol's frames take about 70 kB: a whole
# block's would be 2 MB, which the allocator maps and returns to the
# system on every block, while 4 symbols' stay in cache, reused by every
# piece of the block.
PSD_SYMBOLS = 4
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


def _scaled_notch(cfg, block, kernel, budget):
    vals, alpha = _ensp_block(block.symbols, kernel, budget.eps_avg)
    return vals, None, {"ensp_alpha_max": float(np.max(alpha))}


def _log_barrier(cfg, block, kernel, budget):
    """Log-barrier projection of every (n_tx, N) symbol, with the worst KKT
    residual and Newton step count over the block."""
    u_rows = kernel.active_rows.conj()
    rank1 = [(u_rows[m], float(cfg.mask.gamma[m])) for m in range(u_rows.shape[0])]
    shape = block.symbols.shape
    syms = block.symbols.reshape((-1,) + shape[-2:])
    out = np.empty_like(syms)
    kkt, steps = [], []
    for s, sym in enumerate(syms):
        result = logbarrier_solve(LogBarrierProblem(objective="least_squares",
                                                    reference=sym, rank1=rank1))
        out[s] = result.solution.reshape(sym.shape)
        kkt.append(float(result.kkt_residual))
        steps.append(int(result.newton_steps))
    return (out.reshape(shape), None,
            {"oracle_kkt": max(kkt), "oracle_newton_steps": max(steps)})


# One entry per precoder.  ``budgets`` names the modes of error budget the
# precoder takes (none for a mask-only precoder).  ``run(cfg, block,
# kernel, budget)`` precodes a DataGrid block of S symbols and returns
# (precoded symbols (S, n_tx, N), block report or None, extras), with
# extras the largest value of each diagnostic over the block.  Every
# precoder runs its block-level body on the block's symbols, which the
# DataGrid has checked, and the iterative ones on the mask bounds
# cfg.mask.gamma, which MaskSpec checked when the scenario resolved, so no
# body checks either again (the public *_precode functions do, through
# unconstrained._as_block and unconstrained.mask_bounds); the iterative
# bodies return a block report (unconstrained.BlockTraces) that the run
# record adds whole.
_Precoder = namedtuple("_Precoder", "budgets run")
_ANY_BUDGET = ("wideband", "frequency_selective")
PRECODER_TABLE = {
    "none": _Precoder((), lambda cfg, block, kernel, budget: (block.symbols, None, {})),
    "nsp": _Precoder((), lambda cfg, block, kernel, budget: (
        block.symbols - _notch_component(kernel, block.symbols), None, {})),
    "ensp": _Precoder(("wideband",), _scaled_notch),
    "admm": _Precoder((), lambda cfg, block, kernel, budget: (
        *consensus_admm(block.symbols, kernel, cfg.mask.gamma, cfg.admm), {})),
    "ssp": _Precoder((), lambda cfg, block, kernel, budget: (
        *_ssp_block(block.symbols, kernel, cfg.mask.gamma, cfg.ssp), {})),
    "eadmm": _Precoder(_ANY_BUDGET, lambda cfg, block, kernel, budget: (
        *consensus_admm(block.symbols, kernel, cfg.mask.gamma, cfg.eadmm, budget), {})),
    "essp": _Precoder(_ANY_BUDGET, lambda cfg, block, kernel, budget: (
        *_essp_block(block.symbols, kernel, cfg.mask.gamma, cfg.essp, budget), {})),
    "oracle": _Precoder((), _log_barrier),
}


class _RunRecord:
    """The run's statistics, added a block at a time with every symbol in
    run order, and the data files derived from them.

    It measures each block on its active band, gathered once in bin order
    (numerology.band_bins): per active subcarrier it sums the error and
    reference power, in bin order (evm.csv reorders them by offset), and
    their totals over the band; per mask point the worst-row leakage of
    the output (oobe_power on the kernel) and its emitted probe density
    (from the synthesizer's rows on the band); it keeps the largest mask
    ratio and the largest value of each extra.  The guard bins of a data
    grid are zero, so the band holds all of a symbol's power.  Row i of
    ``trace`` sums over the symbols that reached iteration i + 1: their
    count, evm^2, the M leakage powers, and the primal and dual residuals.
    A precoder without iterations gives each symbol one row, from its EVM
    and leakage.  Every sum adds the block's symbols one at a time, in
    order (_add_in_order), so the sums do not depend on the block size.
    ``budget`` is the EvmConstraint the precoder applied, None for a
    precoder without one; evm.csv reports a frequency-selective one.
    """

    def __init__(self, cfg, budget, kernel, frame_kernel):
        self.cfg = cfg
        self.budget = budget
        self.kernel = kernel
        self.frame_kernel = frame_kernel
        num = cfg.numerology
        self.err_cols = np.zeros(num.n_active)
        self.ref_cols = np.zeros(num.n_active)
        self.err = self.ref = 0.0
        self.leak = np.zeros(cfg.freq_grid.size)
        self.ratio_max = 0.0
        self.extras = {}
        self.trace = np.zeros((0, cfg.freq_grid.size + 4))
        self.probe = np.zeros(cfg.freq_grid.size)
        # A probe density is the frame kernel's power times L
        # (SpectralKernel) over the rect window's power f_s * segment, as in
        # PsdAccumulator.
        frame = frame_kernel.numerology
        self.probe_scale = cfg.psd_oversample / (frame.sample_rate_hz * frame.symbol_len)

    def add(self, grid, out, traces, extras):
        """Add a block: the active bands (S, n_tx, n_active), in bin order
        (numerology.band_bins), of its input and precoded grids, and the
        precoder's block report (or None) and extras.  The output's
        leakage is oobe_power of its band; every antenna row shares the
        bounds, so the mask ratio is the worst row's.  A probe density is
        the emitted leakage at its point, oobe_power of the band on the
        frame kernel, summed over antennas."""
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
        self.leak = _add_in_order(self.leak, per_point)
        self.err_cols = _add_in_order(self.err_cols, err.sum(axis=1))
        self.ref_cols = _add_in_order(self.ref_cols, ref.sum(axis=1))
        self.err = _add_in_order(self.err, err_sym)
        self.ref = _add_in_order(self.ref, ref_sym)
        powers = np.sum(oobe_power(out, self.frame_kernel), axis=2)
        self.probe = _add_in_order(self.probe, powers * self.probe_scale)

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
        order = np.searchsorted(num.band_bins, num.active_bins)     # bin order to offset order
        err_cols, ref_cols = self.err_cols[order], self.ref_cols[order]
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
            "evm_wideband_rms": float(np.sqrt(self.err / self.ref)),
            "aclr_lower_db": float(aclr_rep.lower_db),
            "aclr_upper_db": float(aclr_rep.upper_db),
            "aclr_worst_db": float(aclr_rep.worst_db),
            "mask_ratio_max": self.ratio_max,
        }
        for m, val in enumerate(_to_db(self.leak / cfg.symbols)):
            summary[f"oobe_db_p{m + 1}"] = float(val)
        probe_db = cfg.ref_db + _to_db(self.probe / cfg.symbols / psd.ref_density)
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
    frame = cfg.numerology.oversampled(cfg.psd_oversample)
    precoder = PRECODER_TABLE[cfg.precoder]
    budget = cfg.evm_constraint()
    psd_acc = PsdAccumulator(cfg.numerology, cfg.psd_config())
    record = _RunRecord(cfg, budget, kernel, build_kernel(frame, cfg.freq_grid))
    symbol_len = cfg.numerology.symbol_len
    waveform_path = out_path / "waveform.bin"
    waveform = (WaveformWriter(waveform_path, cfg.n_tx, cfg.symbols * symbol_len)
                if cfg.emit_waveforms else contextlib.nullcontext())

    timings = {"generate": 0.0, "precode": 0.0, "metrics": 0.0, "psd": 0.0, "io": 0.0}
    t_run = time.perf_counter()
    with waveform:
        for first in range(0, cfg.symbols, BLOCK_SYMBOLS):
            t0 = time.perf_counter()
            grid = generate_qam_block(cfg.seed, cfg.numerology, cfg.n_tx, cfg.constellation,
                                      first, min(BLOCK_SYMBOLS, cfg.symbols - first))
            t1 = time.perf_counter()
            vals, traces, extras = precoder.run(cfg, grid, kernel, budget)
            out = grid.with_symbols(vals)
            t2 = time.perf_counter()

            bins = cfg.numerology.band_bins
            record.add(grid.symbols.take(bins, axis=-1), out.symbols.take(bins, axis=-1),
                       traces, extras)

            t_psd = time.perf_counter()
            # The oversampled frames of every piece of the block are
            # synthesised into one buffer, through one spectrum buffer.
            size = min(PSD_SYMBOLS, len(out.symbols))
            frames = np.empty((size, cfg.n_tx, frame.symbol_len), dtype=complex)
            spec = np.zeros((size, cfg.n_tx, frame.fft_size), dtype=complex)
            for j in range(0, len(out.symbols), PSD_SYMBOLS):
                piece = out.symbols[j:j + PSD_SYMBOLS]
                psd_acc.add_frames(_write_frames(piece, cfg.numerology, frame,
                                                 frames[:len(piece)], spec[:len(piece)]))
            del frames, spec
            t3 = time.perf_counter()
            if cfg.emit_waveforms:
                waveform.write(first * symbol_len, synthesize_time_signal(out, oversample=1))
            timings["generate"] += t1 - t0
            timings["precode"] += t2 - t1
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
