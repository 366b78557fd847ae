"""In-band and out-of-band figures of merit.

Kernel-domain quantities (leakage powers, mask ratios, EVM) live in the same
units as the frequency grid.  Time-domain quantities (PSD, ACLR) come from
averaged per-symbol periodograms of the synthesized waveform.  The two sides
meet through a calibration constant: the analytic ensemble mean of the
in-band kernel power density anchors both the mask bounds (gamma from dB
offsets) and the display normalization of the PSD, so a dB value means the
same thing in either domain.

The emitted density at a probe point is the leakage of the synthesizer's
frame, the transmitted-symbol leakage of van de Beek and Berggren
("Out-of-band power suppression in OFDM", IEEE Commun. Lett. 2008): a frame
is a symbol of the numerology oversampled L times
(OfdmNumerology.oversampled), so its leakage is oobe_power on that
numerology's kernel, the frame kernel, of the active band in bin order.  A
run takes its probe densities that way from each block's active band, and
so does kernel_psd_prediction.  PsdAccumulator's optional exact-frequency
DTFTs of the frames are the independent reference that both are checked
against.

A periodogram segment is one oversampled symbol, 4 * (512 + 36) = 2192 =
2^4 * 137 samples in the reference scenario, and a generic FFT spends most
of its time on the prime factor 137.  So |DFT|^2 is computed by a two-stage
(Cooley-Tukey) split n = p m, p the largest odd prime factor of n: the
p-point DFTs are a real matrix product on the input folded by the DFT
matrix's symmetry, and the m-point DFTs are an FFT.  It rounds differently
from a one-stage FFT, so densities differ from numpy's FFT at roundoff
(about 1e-15 of a row's largest value).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .signal_model import (FrequencyGrid, _kernel_entries, _oversample_factor, _read_only,
                           build_kernel)

_DB_FLOOR = 1e-30


def _to_db(x):
    return 10.0 * np.log10(np.maximum(np.asarray(x, dtype=float), _DB_FLOOR))


def _add_in_order(total, rows):
    """total + rows[0] + rows[1] + ..., added one row at a time in order:
    the one way every running sum of a run is added, so that it has the
    same bits however the run is split into blocks.

    np.add.reduce sums pairwise only along the fastest axis in memory.
    Over the first axis of a C-contiguous stack whose rows hold at least
    two entries it therefore adds the rows one at a time, in order; a
    stack of one-entry rows, whose first axis is the fastest, is
    accumulated instead (np.cumsum, in order by definition but one call
    per column, which costs ten times as much on wide rows).  The stack is
    written into a C-contiguous array whatever the layout of rows
    (np.concatenate would follow it, and a fancy-indexed block's rows
    would then be summed pairwise).
    """
    stacked = np.empty((len(rows) + 1,) + np.shape(total), np.result_type(total, rows))
    stacked[0], stacked[1:] = total, rows
    if stacked[0].size < 2:
        return np.cumsum(stacked, axis=0)[-1]
    return np.add.reduce(stacked, axis=0)


def _checked_bounds(gamma, field="mask"):
    """gamma as a float array, the one check of every mask bound: each must
    be positive and finite, or ConfigError names ``field``."""
    gamma = np.asarray(gamma, dtype=float)
    if not np.all((gamma > 0) & (gamma < np.inf)):       # NaN fails both
        raise ConfigError("mask bounds must be positive and finite", field=field)
    return gamma


@dataclass(frozen=True)
class MaskSpec:
    """Per-point leakage bounds gamma, linear in kernel power units and
    shared by every antenna row: the one form in which the solvers take
    the mask (unconstrained.mask_bounds)."""

    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma",
                           np.atleast_1d(_checked_bounds(self.gamma, field="mask.gamma")))


# Spacing of the nu grid of the in-band calibration, in subcarriers.  A
# power of two, so every offset nu - k of the grid is exact and sits on the
# lattice of quarter subcarriers.
_INBAND_STEP = 0.25


def analytic_inband_reference(numerology):
    """Ensemble mean in-band kernel power for unit-power constellations.

    E|a(nu)^T d|^2 = sum_{k active} |A(nu, k)|^2 when the data entries are
    i.i.d. with unit power, averaged over a grid of nu a quarter subcarrier
    apart spanning the active band.  This is the per-antenna calibration
    constant the mask and PSD display share.
    """
    offs = numerology.active_offsets
    bins = numerology.active_bins
    nu = np.arange(offs[0], offs[-1] + _INBAND_STEP / 2, _INBAND_STEP)
    # An entry depends on the offset nu_j - k alone, which is the lattice
    # point (offs[0] - k) / step + j.  The kernel is evaluated once per
    # lattice point from the smallest offset to the largest, and bin k's
    # terms for every nu are the slice of that row starting at its lattice
    # point.  Adding the slices one at a time in active-bin order adds each
    # nu's terms in that order, which gives the bits of the full rows'
    # active columns summed along a row, without the (active bin, nu)
    # table.
    per_bin = round(1 / _INBAND_STEP)
    lowest = per_bin * (offs[0] - bins.max())
    span = per_bin * (bins.max() - bins.min()) + nu.size
    delta = _INBAND_STEP * np.arange(lowest, lowest + span)
    power = np.abs(_kernel_entries(numerology.fft_size, numerology.cp_len, delta)) ** 2
    total = np.zeros(nu.size)
    for start in (per_bin * (bins.max() - bins)).tolist():
        total += power[start:start + nu.size]
    return float(np.mean(total))


def calibrate_mask(mask_db, numerology, ref_db, reference_power=None):
    """Convert display-form mask values to linear kernel-domain bounds.

    gamma_m = 10^((mask_db[m] - ref_db)/10) * reference_power, with the
    reference defaulting to the analytic in-band mean.  Density conversion
    factors cancel in the ratio, so the bounds are exact regardless of the
    reporting bandwidth.
    """
    mask_db = np.atleast_1d(np.asarray(mask_db, dtype=float))
    if reference_power is None:
        reference_power = analytic_inband_reference(numerology)
    gamma = 10.0 ** ((mask_db - ref_db) / 10.0) * reference_power
    return MaskSpec(gamma=gamma)


def _grid_values(d):
    return np.asarray(getattr(d, "symbols", d), dtype=complex)


# The m n k of a complex GEMM from which OpenBLAS splits it over two
# threads, and with it the sums along n: at n = 300 and M = 8, 27 rows give
# the same bits under one and two BLAS threads and 28 rows do not
# (OpenBLAS 0.3.31, Haswell kernels).
_SERIAL_GEMM = 65536


def _row_products(x, mat):
    """x @ mat for every row of x (..., n) and an (n, M) matrix, as one
    (r x n)(n x M) GEMM over the block's contiguous rows, so a row's result
    has the same bits whether it is computed alone, as a view or inside a
    block of any size.  A GEMM's sum order along n does not depend on how
    its rows are blocked (Goto and van de Geijn, "Anatomy of
    high-performance matrix multiplication", ACM TOMS 2008): measured on
    OpenBLAS 0.3.31 (Haswell kernels), every r from 2 to 199 gives each row
    the bits of the 200-row GEMM, at n = 9, 300 and 512 and M = 1, 2, 3, 8
    and 9.  A lone row is padded to two, since numpy sends a
    (1 x n)(n x M) product to GEMV, which rounds differently.  A block
    whose r n M reaches _SERIAL_GEMM goes as GEMMs of ``most`` rows, one
    stacked matmul, and one GEMM of the last rows, at least two of them
    (a row computed twice gets the same bits twice), so that no GEMM is
    split over BLAS threads.  x is made contiguous first: numpy hands a
    row with a non-unit stride to its own loop instead of BLAS, which
    rounds differently."""
    rows = np.ascontiguousarray(x).reshape(-1, mat.shape[0])
    shape = x.shape[:-1] + mat.shape[1:]
    count, most = len(rows), max(2, (_SERIAL_GEMM - 1) // mat.size)
    if count <= most:
        padded = np.concatenate((rows, rows)) if count == 1 else rows
        return (padded @ mat)[:count].reshape(shape)
    out = np.empty((count, mat.shape[1]), dtype=np.result_type(rows, mat))
    full = count - count % most
    np.matmul(rows[:full].reshape(-1, most, mat.shape[0]), mat,
              out=out[:full].reshape(-1, most, mat.shape[1]))
    if full < count:
        last = min(full, count - 2)
        np.matmul(rows[last:], mat, out=out[last:])
    return out.reshape(shape)


def oobe_power(dbar, kernel):
    """|a(nu_m)^T dbar|^2 per constraint point, the one leakage-power helper.

    The products run on the active band in bin order
    (numerology.band_bins), where the solvers keep their iterates, against
    kernel.band_rows, one GEMM over the antenna rows (_row_products), as
    in every solver.  Input whose last axis holds N entries is a
    full-width grid, gathered onto the band first; on a data grid (zero
    guard bins) that gives the leakage of the full rows.  Input whose last
    axis holds n_active entries is the band itself; any other width raises
    ConfigError.  A row's powers have the same bits wherever it is held.
    Vector input gives an (M,) array; an (n_tx, N) grid gives (M, n_tx),
    each column bitwise equal to that row's vector result; an
    (S, n_tx, N) block gives (S, M, n_tx), each symbol bitwise equal to
    its own grid's result.
    """
    vals = _grid_values(dbar)
    num = kernel.numerology
    if vals.shape[-1] not in (num.fft_size, num.n_active):
        raise ConfigError("rows must hold the kernel's N bins or its active band", field="dbar")
    band = vals if vals.shape[-1] == num.n_active else vals.take(num.band_bins, axis=-1)
    powers = np.abs(_row_products(np.atleast_2d(band), kernel.band_rows.T)) ** 2
    return np.swapaxes(powers, -1, -2) if vals.ndim >= 2 else powers[0]


@dataclass(frozen=True)
class PsdConfig:
    """Rect-window periodogram averaging settings.

    Each segment is one full oversampled OFDM symbol, without overlap; the
    reference pair (ref_density, ref_db) fixes the dB display: a density
    equal to ref_density (per Hz) is shown as ref_db (per 100 kHz bins).
    """

    oversample: int = 4
    bin_hz: float = 100e3
    ref_density: float = 1.0
    ref_db: float = 0.0

    def __post_init__(self):
        _oversample_factor(self.oversample)
        if self.bin_hz <= 0 or self.ref_density <= 0:
            raise ConfigError("bin width and reference density must be positive", field="psd")


@dataclass(frozen=True)
class PsdEstimate:
    """Averaged-periodogram density summed over antennas.

    freq_hz are ascending bin centers on the bin_hz lattice; density_db is
    the per-bin mean density expressed per 100 kHz relative to the
    configured reference; density_per_hz is the linear form used for band
    integrals.
    """

    freq_hz: np.ndarray
    density_db: np.ndarray
    density_per_hz: np.ndarray
    bin_hz: float
    sample_rate_hz: float
    segments: int
    ref_density: float
    ref_db: float

    def band_power(self, f_lo, f_hi):
        """Integral of the linear density over [f_lo, f_hi], with partial
        bins weighted by their overlap fraction."""
        if f_hi <= f_lo:
            raise ConfigError("empty integration band", field="aclr")
        lo_edges = self.freq_hz - self.bin_hz / 2
        hi_edges = self.freq_hz + self.bin_hz / 2
        if f_lo < lo_edges[0] - 1e-9 or f_hi > hi_edges[-1] + 1e-9:
            raise ConfigError("integration band exceeds the PSD span", field="aclr")
        overlap = np.minimum(hi_edges, f_hi) - np.maximum(lo_edges, f_lo)
        overlap = np.clip(overlap, 0.0, None)
        return float(np.sum(self.density_per_hz * overlap))


def _largest_odd_prime(n):
    """The largest odd prime factor of n >= 1, or 1 for a power of two."""
    while n % 2 == 0:
        n //= 2
    p, f = 1, 3
    while f * f <= n:
        while n % f == 0:
            p, n = f, n // f
        f += 2
    return max(p, n)


# Rows per matrix product of the periodogram transform.  Its two work
# arrays take 35 kB each per 2192-point row.  At 4 rows the allocator
# reuses them and they stay in cache; at 16 rows, fresh pages were mapped
# for them on every call, which doubled the time per row.
_DFT_ROWS = 4


@lru_cache(maxsize=None)
def _dft_tables(n):
    """(p, m, tables, twiddles) of the two-stage DFT of length n = p m.

    p is the largest odd prime factor of n (1 for a power of two) and
    h = (p - 1) / 2.  tables (2, h + 1, h + 1) holds cos(2 pi j k / p) and
    sin(2 pi j k / p) for j, k = 0 .. h; twiddles (p, m) holds
    exp(-2 pi i k r / n) for output k of the p-point stage and input r of
    the m-point stage; both are None for p = 1.  Built once per length.
    """
    p = _largest_odd_prime(n)
    m, h = n // p, (p - 1) // 2
    if p == 1:
        return p, m, None, None
    jk = 2 * np.pi / p * (np.outer(np.arange(h + 1), np.arange(h + 1)) % p)
    kr = np.outer(np.arange(p), np.arange(m)) % n
    return (p, m, _read_only(np.stack([np.cos(jk), np.sin(jk)])),
            _read_only(np.exp(-2j * np.pi / n * kr)))


def _dft_power(x):
    """|DFT_n|^2 along the last axis of a complex array x (..., n), in
    natural bin order.

    The DFT is split as n = p m (Cooley-Tukey): input t = m j + r and
    output k = k1 + p k2 for j, k1 < p and r, k2 < m.  The p-point DFTs over
    j come first.  They are a stacked real matrix product of the cosine
    and sine tables of _dft_tables with the input folded by the DFT
    matrix's symmetry, s_j = x_j + x_{p-j} and d_j = x_j - x_{p-j} for
    j = 1 .. h, with s_0 = x_0, whose complex values the product reads as
    (re, im) pairs.  Its outputs C_k1 = sum_j cos(2 pi j k1 / p) s_j and
    S_k1 = sum_j sin(2 pi j k1 / p) d_j give Y_k1 = C_k1 - i S_k1 and
    Y_{p-k1} = C_k1 + i S_k1, for a quarter of the real products of the
    complex DFT matrix.  Then come the twiddles, the m-point FFTs over r on
    the contiguous last axis, re^2 + im^2, and one transpose into natural
    bin order.  p = 1 (n a power of two) leaves the FFT alone.  The rows
    of x go through in groups of _DFT_ROWS, one product per group; each
    column of a product holds values of one row, so a row is transformed
    by the same operations in a batch of any size.
    """
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    power = np.empty(rows.shape)
    for i in range(0, len(rows), _DFT_ROWS):
        _rows_dft_power(rows[i:i + _DFT_ROWS], power[i:i + _DFT_ROWS])
    return power.reshape(x.shape)


def _rows_dft_power(x, power):
    """_dft_power of at most _DFT_ROWS rows x (r, n), written into power."""
    r, n = x.shape
    p, m, tables, twiddles = _dft_tables(n)
    if p == 1:
        y = np.fft.fft(x)[None]
    else:
        h = (p - 1) // 2
        xj = x.reshape(r, p, m).transpose(1, 0, 2)        # xj[j, row, r'] = x[row, m j + r']
        folded = np.empty((2, h + 1, r, m), dtype=complex)
        folded[0, 0] = xj[0]
        np.add(xj[1:h + 1], xj[:h:-1], out=folded[0, 1:])
        folded[1, 0] = 0.0
        np.subtract(xj[1:h + 1], xj[:h:-1], out=folded[1, 1:])
        prod = np.matmul(tables, folded.view(np.float64).reshape(2, h + 1, -1))
        cos_part, sin_part = prod.view(complex).reshape(folded.shape)
        sin_part *= 1j
        # Y over the p-point outputs takes the folded input's place, and the
        # FFTs then take the product's: an FFT in place would copy y first.
        y = folded.reshape(p + 1, r, m)[:p]
        np.subtract(cos_part, sin_part, out=y[:h + 1])
        np.add(cos_part[1:], sin_part[1:], out=y[:h:-1])
        y *= twiddles[:, None, :]
        y = np.fft.fft(y, axis=-1, out=prod.view(complex).reshape(p + 1, r, m)[:p])
    # re^2 + im^2, written straight into natural order: power[row, k2 p + k1].
    parts = np.square(y.view(np.float64), out=y.view(np.float64))
    np.add(parts[..., 0::2], parts[..., 1::2], out=power.reshape(r, -1, p).transpose(2, 0, 1))


@lru_cache(maxsize=None)
def _psd_lattice(seg_len, fs, bin_hz):
    """(order, bins, keep, counts, centers): the reporting lattice of a
    segment's periodogram.  order sorts the FFT bins by frequency; lattice
    bin i covers [i, i + 1) * bin_hz, and bins holds the lattice index of
    each sorted FFT bin, counted from the lowest; keep lists the occupied
    lattice bins, counts their FFT-bin counts and centers their centre
    frequencies.  Built once per segment length, rate and bin width;
    read-only."""
    freqs = np.fft.fftfreq(seg_len, d=1.0 / fs)
    order = np.argsort(freqs)
    idx = np.floor(freqs[order] / bin_hz + 1e-9).astype(int)
    lowest = idx.min()
    counts = np.bincount(idx - lowest).astype(float)
    keep = np.flatnonzero(counts)
    return (_read_only(order), _read_only(idx - lowest), _read_only(keep),
            _read_only(counts[keep]), _read_only((keep + lowest + 0.5) * bin_hz))


class PsdAccumulator:
    """Order-independent sums for incremental periodogram averaging.

    Waveform blocks (add) or their frames, one segment per symbol
    (add_frames, which the runner calls on a few symbols at a time), are
    added in time order; the sums are bit-stable under any split of the
    waveform at segment boundaries.  finalize() bins to the reporting lattice.
    A segment is a symbol of the frame numerology
    numerology.oversampled(config.oversample), at its rate.  Also tracks
    exact-frequency periodogram values at optional probe frequencies, each
    a DTFT of the time-domain frames: the independent reference for the
    frame kernel from which a run takes its probe densities, and for
    kernel_psd_prediction.  The runner passes no probe frequencies.
    """

    def __init__(self, numerology, config, probe_freqs_hz=None):
        self.numerology = numerology
        self.config = config
        frame = numerology.oversampled(config.oversample)
        self.seg_len = frame.symbol_len
        self.fs = frame.sample_rate_hz
        self._psd_sum = np.zeros(self.seg_len)
        self._segments = 0
        # The transform's tables are built here, before a run's large
        # arrays: built in between, they would keep the allocator from
        # returning those arrays' memory to the system.
        _dft_tables(self.seg_len)
        self.probe_freqs_hz = None if probe_freqs_hz is None else np.asarray(probe_freqs_hz, float)
        if self.probe_freqs_hz is not None:
            n = np.arange(self.seg_len)
            self._probe_basis = np.exp(-2j * np.pi * np.outer(self.probe_freqs_hz / self.fs, n))
            self._probe_sum = np.zeros(self.probe_freqs_hz.size)

    def add(self, samples):
        """Accumulate one waveform block (n_tx, n_samples); antennas sum.

        The block is cut into segments, which add_frames takes as frames."""
        samples = np.atleast_2d(np.asarray(samples, dtype=complex))
        n_seg = samples.shape[1] // self.seg_len
        if n_seg < 1:
            raise ConfigError("waveform shorter than one PSD segment", field="psd")
        self.add_frames(samples[:, :n_seg * self.seg_len].reshape(
            samples.shape[0], n_seg, self.seg_len).swapaxes(0, 1))

    def add_frames(self, frames):
        """Accumulate the segments frames (S, n_tx, seg_len) of S consecutive
        symbols; antennas sum.

        All segments are transformed together (_dft_power); their
        periodograms are then added one at a time, in time order
        (_add_in_order), so the sums do not depend on how the waveform is
        split into blocks.
        """
        if frames.ndim != 3 or frames.shape[-1] != self.seg_len:
            raise ConfigError(f"frames must be (S, n_tx, {self.seg_len})", field="psd")
        # Rect-window periodograms: the window's power is the segment length.
        scale = self.fs * self.seg_len
        powers = np.sum(_dft_power(frames), axis=1)
        powers /= scale
        self._psd_sum = _add_in_order(self._psd_sum, powers)
        if self.probe_freqs_hz is not None:
            self._probe_sum = _add_in_order(
                self._probe_sum, np.sum(np.abs(frames @ self._probe_basis.T) ** 2, axis=1) / scale)
        self._segments += frames.shape[0]

    def probe_density(self):
        """Mean exact-frequency density (per Hz) at the probe frequencies."""
        if self.probe_freqs_hz is None or self._segments == 0:
            raise ConfigError("no probe frequencies accumulated", field="psd")
        return self._probe_sum / self._segments

    def finalize(self):
        if self._segments == 0:
            raise ConfigError("no segments accumulated", field="psd")
        cfg = self.config
        order, bins, keep, counts, centers = _psd_lattice(self.seg_len, self.fs, cfg.bin_hz)
        # bincount adds in input order: a bin's densities in ascending frequency
        mean_psd = self._psd_sum[order] / self._segments
        density = np.bincount(bins, weights=mean_psd)[keep] / counts
        density_db = cfg.ref_db + _to_db(density / cfg.ref_density)
        return PsdEstimate(freq_hz=centers, density_db=density_db,
                           density_per_hz=density, bin_hz=cfg.bin_hz,
                           sample_rate_hz=self.fs, segments=self._segments,
                           ref_density=cfg.ref_density, ref_db=cfg.ref_db)


def kernel_psd_prediction(grids, numerology, oversample, freqs_hz):
    """Ensemble leakage density predicted from the frequency grids.

    Evaluates the leakage of the synthesizer's frames at the probe
    frequencies, oobe_power on the frame kernel (the kernel of
    numerology.oversampled(oversample)) of each grid's active band in bin
    order, as a run's probe densities do, and averages it over symbols
    and antennas, returning a density per Hz comparable to PsdEstimate and
    probe_density values.  Each grid is one (n_tx, N) symbol or an
    (S, n_tx, N) block; a block counts as its S symbols, added one at a
    time in order, so it gives the bits of the list of its symbols.
    """
    frame = numerology.oversampled(oversample)
    kernel = build_kernel(frame, FrequencyGrid.from_hz(freqs_hz, numerology.scs_hz))
    total = np.zeros(kernel.n_points)
    count = 0
    for grid in grids:
        band = _grid_values(grid).take(numerology.band_bins, axis=-1)
        # The frame kernel's powers are L times too small (SpectralKernel).
        powers = np.atleast_2d(np.sum(oobe_power(band, kernel), axis=-1) * oversample)
        total = _add_in_order(total, powers)
        count += len(powers)
    if count == 0:
        raise ConfigError("no grids provided", field="psd")
    return total / count / (frame.sample_rate_hz * frame.symbol_len)


@dataclass(frozen=True)
class AclrReport:
    lower_db: float
    upper_db: float
    worst_db: float


def aclr(psd, carriers):
    """Adjacent-channel leakage ratio from a PSD estimate.

    carriers: {"bw_hz": integration bandwidth, "spacing_hz": adjacent
    carrier offset}.  Returns 10 log10(in-band power / adjacent power) for
    the lower and upper neighbors and their minimum.
    """
    bw = float(carriers["bw_hz"])
    spacing = float(carriers["spacing_hz"])
    if bw <= 0 or spacing <= 0:
        raise ConfigError("carrier bandwidth and spacing must be positive", field="aclr")
    inband = psd.band_power(-bw / 2, bw / 2)
    lower = psd.band_power(-spacing - bw / 2, -spacing + bw / 2)
    upper = psd.band_power(spacing - bw / 2, spacing + bw / 2)
    lower_db = float(_to_db(inband) - _to_db(lower))
    upper_db = float(_to_db(inband) - _to_db(upper))
    return AclrReport(lower_db=lower_db, upper_db=upper_db,
                      worst_db=min(lower_db, upper_db))
