"""CP-OFDM signal model: numerology, leakage kernel, QAM grids, synthesis.

One OFDM symbol places complex amplitudes on an N-point FFT grid, applies an
inverse DFT with 1/sqrt(N) scaling, and prepends a cyclic prefix of N_CP
samples.  Leakage of the whole L = N + N_CP sample symbol onto a (generally
fractional) subcarrier frequency nu is the windowed DTFT

    a(nu)^T d,   a(nu)_k = (1/sqrt(N)) * sum_{n=-N_CP}^{N-1} exp(-j*2*pi*(nu-k)*n/N),

whose closed form is a Dirichlet ratio

    a(nu)_k = exp(j*pi*(nu-k)*(N_CP-N+1)/N) * sin(pi*(nu-k)*L/N)
              / (sqrt(N) * sin(pi*(nu-k)/N))

with removable singularities at nu - k = 0 (mod N) where the entry equals
L/sqrt(N).  Rows are evaluated through a reduced offset so the expression is
exact (to roundoff) arbitrarily close to the singular points.

The synthesizer oversamples a symbol by zero padding its spectrum, so its
frame at an oversampling factor is a symbol of the numerology
numerology.oversampled(factor): FFT size and CP scaled by the factor, the
same active subcarriers.  The kernel of that numerology, the frame kernel,
is the leakage of the emitted frame (SpectralKernel); one kernel function
serves the solver rows and the emitted probe rows.
"""

from __future__ import annotations

import numbers
import os
import struct
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError

QAM_ORDERS = {"QPSK": 4, "16QAM": 16, "64QAM": 64, "256QAM": 256}

_WAVEFORM_MAGIC = b"SPWF"
_WAVEFORM_VERSION = 1
_WAVEFORM_HEADER = struct.Struct("<4sIII")


def _read_only(arr):
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class OfdmNumerology:
    """Static description of the OFDM grid.

    Numerologies compare and hash by value, over their fields, so that
    separately built equal numerologies key one memoized kernel
    (build_kernel); the offsets are held read-only for that reason.

    Parameters
    ----------
    fft_size : int
        FFT length N.
    cp_len : int
        Cyclic prefix length N_CP, in samples at the base rate.
    scs_hz : float
        Subcarrier spacing in Hz.
    active_offsets : ndarray of int
        Signed subcarrier offsets (relative to DC) that carry data.  All
        other bins are guard bins and stay exactly zero.
    prb_size : int
        Subcarriers per resource block, used when expanding per-block
        error-vector limits.
    """

    fft_size: int
    cp_len: int
    scs_hz: float
    active_offsets: np.ndarray
    prb_size: int = 12

    def __post_init__(self):
        if self.fft_size < 2:
            raise ConfigError("fft_size must be at least 2", field="numerology.fft_size")
        if self.cp_len < 0 or self.cp_len >= self.fft_size:
            raise ConfigError("cp_len must satisfy 0 <= cp_len < fft_size", field="numerology.cp_len")
        if not 0 < self.scs_hz < np.inf:                   # NaN fails too
            raise ConfigError("scs_hz must be positive and finite", field="numerology.scs_hz")
        if self.prb_size < 1:
            raise ConfigError("prb_size must be positive", field="numerology.prb_size")
        offsets = np.asarray(self.active_offsets, dtype=int)
        if offsets.ndim != 1 or offsets.size == 0:
            raise ConfigError("active_offsets must be a non-empty 1-D list", field="numerology.active_offsets")
        offsets = np.sort(offsets)
        # Sorted neighbours rather than np.unique, whose first call imports
        # numpy.ma (about 25 ms of start-up).
        if (offsets[1:] == offsets[:-1]).any():
            raise ConfigError("active_offsets contains duplicates", field="numerology.active_offsets")
        half = self.fft_size // 2
        if offsets[0] < -half or offsets[-1] > (self.fft_size - 1) // 2:
            raise ConfigError("active_offsets exceed the FFT half-range", field="numerology.active_offsets")
        object.__setattr__(self, "active_offsets", _read_only(offsets))

    @cached_property
    def _key(self):
        return (self.fft_size, self.cp_len, self.scs_hz, tuple(self.active_offsets.tolist()),
                self.prb_size)

    def __eq__(self, other):
        if not isinstance(other, OfdmNumerology):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    @classmethod
    def centered(cls, fft_size, cp_len, scs_hz, n_active, first_offset=None, prb_size=12):
        """Numerology with a contiguous active band.

        When ``first_offset`` is omitted the band is centred on DC with the
        extra bin (for even ``n_active``) on the negative side, giving
        offsets ``-n/2 .. n/2 - 1``.
        """
        if first_offset is None:
            first_offset = -(n_active // 2)
        offsets = np.arange(first_offset, first_offset + n_active)
        return cls(fft_size=fft_size, cp_len=cp_len, scs_hz=scs_hz,
                   active_offsets=offsets, prb_size=prb_size)

    @property
    def symbol_len(self):
        """Samples per symbol including the cyclic prefix."""
        return self.fft_size + self.cp_len

    @property
    def sample_rate_hz(self):
        return self.fft_size * self.scs_hz

    @property
    def n_active(self):
        return int(self.active_offsets.size)

    @cached_property
    def active_bins(self):
        """Read-only FFT bin indices (0..N-1) of the active subcarriers,
        sorted by offset."""
        return _read_only(np.mod(self.active_offsets, self.fft_size))

    @cached_property
    def active_runs(self):
        """The runs of consecutive active_bins (_bin_runs), built once."""
        return _bin_runs(self.active_bins)

    @cached_property
    def band_bins(self):
        """Read-only FFT bin indices of the active subcarriers in ascending
        bin order, the order in which the solvers keep the active band."""
        return _read_only(np.flatnonzero(self.active_mask()))

    @cached_property
    def guard_bins(self):
        """Read-only FFT bin indices of the guard bins, ascending."""
        return _read_only(np.flatnonzero(~self.active_mask()))

    def active_mask(self):
        """Boolean length-N mask, True on active bins."""
        mask = np.zeros(self.fft_size, dtype=bool)
        mask[self.active_bins] = True
        return mask

    @property
    def n_prb(self):
        if self.n_active % self.prb_size:
            raise ConfigError("active band is not a whole number of resource blocks",
                              field="numerology.active_offsets")
        return self.n_active // self.prb_size

    def oversampled(self, oversample):
        """The numerology of the synthesizer's frames at L = ``oversample``
        times the base rate: FFT size L N and CP L N_CP, with this numerology's
        subcarrier spacing, active offsets and resource blocks, so its
        band_bins hold the active subcarriers in the order of this one's.
        The factor is checked by _oversample_factor.  oversampled(1) is
        self.
        """
        factor = _oversample_factor(oversample)
        return self if factor == 1 else replace(self, fft_size=factor * self.fft_size,
                                                cp_len=factor * self.cp_len)


def _oversample_factor(oversample):
    """The one check of an oversampling factor, shared by the frame
    numerology and the PSD settings: one that is not an integer (a numpy
    integer is one; 4.0 is not), or is below 1, raises ConfigError naming
    ``oversample``.  Returns the factor as an int."""
    if not isinstance(oversample, numbers.Integral) or oversample < 1:
        raise ConfigError("oversample must be a positive integer", field="oversample")
    return int(oversample)


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Evaluation frequencies for leakage constraints, in subcarrier units.

    Grids compare and hash by value, over their points, which are held in a
    read-only copy."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, ndmin=1)
        if pts.ndim != 1 or pts.size == 0:
            raise ConfigError("frequency grid must be a non-empty 1-D list", field="frequencies")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("frequency points must be finite", field="frequencies")
        object.__setattr__(self, "points", _read_only(pts))

    def __eq__(self, other):
        if not isinstance(other, FrequencyGrid):
            return NotImplemented
        return self.points.tolist() == other.points.tolist()

    def __hash__(self):
        return hash(tuple(self.points.tolist()))

    @classmethod
    def from_hz(cls, freqs_hz, scs_hz):
        return cls(points=np.asarray(freqs_hz, dtype=float) / scs_hz)

    def to_hz(self, scs_hz):
        return self.points * scs_hz

    @property
    def size(self):
        return int(self.points.size)


def _diric(x, n):
    """Dirichlet kernel sin(n x/2) / (n sin(x/2)) for a positive integer n.

    The float64 operations of scipy.special.diric, in its order: where
    |sin(x/2)| < 1e-7 the value is the limit (-1)^(round(x/(2 pi)) (n-1)),
    elsewhere sin(n x/2) / (n sin(x/2)).
    """
    half = np.asarray(x, dtype=float) / 2
    denom = np.sin(half)
    near = np.abs(denom) < 1e-7
    return np.where(near, (-1.0) ** (np.round(half / np.pi) * (n - 1)),
                    np.sin(n * half) / (n * np.where(near, 1.0, denom)))


def _kernel_entries(fft_size, cp_len, delta):
    """Kernel entries A(nu, k) as a function of the offsets delta = nu - k."""
    n = fft_size
    length = n + cp_len
    # The entries are N-periodic in delta; reducing to |delta| <= N/2 keeps
    # the sine ratio well conditioned next to the singular points.
    delta = delta - n * np.round(delta / n)
    ratio = length * _diric(2.0 * np.pi * delta / n, length)
    phase = np.exp(1j * np.pi * delta * (cp_len - n + 1) / n)
    return phase * ratio / np.sqrt(n)


def _kernel_matrix(fft_size, cp_len, points):
    """Dirichlet-ratio evaluation of the leakage rows, one row per point."""
    k = np.arange(fft_size)
    return _kernel_entries(fft_size, cp_len, np.asarray(points, dtype=float)[:, None] - k[None, :])


@dataclass(frozen=True)
class SpectralKernel:
    """Leakage rows a(nu_m)^T stacked into an M x N matrix.

    ``matrix`` holds the full rows over every FFT bin.  ``active_rows`` are
    the same rows with guard-bin columns forced to zero; solvers use those so
    that any update they generate stays supported on the active band.
    Every array a kernel derives is read-only and built once, on first
    use; build_kernel's kernels are shared by every later call with equal
    arguments, so their matrix is read-only as well.

    The kernel of a numerology oversampled L times
    (OfdmNumerology.oversampled) is the frame kernel, the leakage of the
    synthesizer's frames (_write_frames): its band_rows, applied to a base
    grid's active band in bin order, give the DTFT of the emitted frame at
    the points (van de Beek and Berggren, "Out-of-band power suppression in
    OFDM", IEEE Commun. Lett. 2008).  The rows carry 1/sqrt(L N) where the
    frame carries 1/sqrt(N), so their powers are L times too small.
    """

    matrix: np.ndarray
    freq_grid: FrequencyGrid
    numerology: OfdmNumerology

    @property
    def n_points(self):
        return self.matrix.shape[0]

    @cached_property
    def active_rows(self):
        """Read-only M x N rows with guard-bin columns zeroed, built once."""
        rows = np.zeros_like(self.matrix)
        bins = self.numerology.active_bins
        rows[:, bins] = self.matrix[:, bins]
        return _read_only(rows)

    @cached_property
    def gram(self):
        """Read-only M x M Gram matrix K = U^H U of u_m = a(nu_m)* on the
        active band, K[i, k] = sum_n a_i[n] conj(a_k[n]); built on first use."""
        rows = self.active_rows
        return _read_only(np.einsum("ik,jk->ij", rows, rows.conj()))

    @cached_property
    def band_factor(self):
        """Read-only upper-triangular factor R of the QR factorization
        U = Q R of the n_active x M matrix U of the columns u_m = a(nu_m)*
        on the active band: R^H R = K (gram), and ||R xi|| equals ||U xi||
        up to the rounding of forming U xi, also where K is
        ill-conditioned and xi^H K xi loses half the digits.  Built on
        first use; min(n_active, M) x M."""
        return _read_only(np.linalg.qr(self.band_rows.conj().T, mode="r"))

    @cached_property
    def span_gram(self):
        """Read-only (M + 1) x M: K^T (gram) with a zero row appended, the
        matrix that takes span coefficients [xi | alpha] to K xi, alpha
        unseen (unconstrained._SpanDeviations); built on first use."""
        return _read_only(np.pad(self.gram.T, ((0, 1), (0, 0))))

    @cached_property
    def span_factor(self):
        """Read-only R^T (band_factor) with a zero row appended, which takes
        span coefficients [xi | alpha] to R xi; built on first use."""
        return _read_only(np.pad(self.band_factor.T, ((0, 1), (0, 0))))

    @cached_property
    def band_rows(self):
        """Read-only M x n_active rows on the active band, in bin order
        (numerology.band_bins): the columns of active_rows that are not
        forced to zero, built once."""
        return _read_only(self.matrix[:, self.numerology.band_bins])


# Kernels build_kernel keeps, the most recently used.  A run keys two: its
# solver kernel, which for the reference scenario (N = 512, M = 8) holds
# about 0.2 MB with its derived arrays, and its frame kernel (N = 2048 at
# the default 4x oversampling), about 0.3 MB.
_KERNEL_MEMO = 8


@lru_cache(maxsize=_KERNEL_MEMO)
def build_kernel(numerology, freq_grid):
    """Evaluate the leakage kernel for the FrequencyGrid ``freq_grid`` under
    ``numerology``.

    The kernel is memoized by value: a later call with an equal numerology
    and grid (both compare by value) returns the same read-only kernel,
    with every array derived from it so far.  build_kernel.cache_clear()
    empties the memo.
    """
    matrix = _kernel_matrix(numerology.fft_size, numerology.cp_len, freq_grid.points)
    return SpectralKernel(matrix=_read_only(matrix), freq_grid=freq_grid, numerology=numerology)


@dataclass(frozen=True)
class DataGrid:
    """Per-antenna frequency-domain symbols, shape (n_tx, fft_size), or a
    block of consecutive symbols, shape (S, n_tx, fft_size).

    Every value is finite and guard bins are exactly zero; both are checked
    on construction, and every precoder in this package preserves them.
    """

    symbols: np.ndarray
    numerology: OfdmNumerology

    def __post_init__(self):
        sym = np.asarray(self.symbols, dtype=complex)
        if sym.ndim == 1:
            sym = sym[None, :]
        if sym.ndim not in (2, 3) or sym.shape[-1] != self.numerology.fft_size:
            raise ConfigError("data grid must be (n_tx, fft_size) or (S, n_tx, fft_size)",
                              field="grid")
        if not np.isfinite(sym).all():
            raise ConfigError("data grid contains non-finite values", field="grid")
        if sym.take(self.numerology.guard_bins, axis=-1).any():
            raise ConfigError("guard bins of a data grid must be exactly zero", field="grid")
        object.__setattr__(self, "symbols", sym)

    @property
    def n_tx(self):
        return self.symbols.shape[-2]

    def with_symbols(self, symbols):
        return replace(self, symbols=symbols)


@lru_cache(maxsize=None)
def qam_constellation(name):
    """Unit-average-power square QAM with Gray labelling on each axis.

    Returns the read-only (order,) array of points indexed by symbol
    integer, built once per constellation; the two halves of the integer's
    bits select the in-phase and quadrature level.
    """
    if name not in QAM_ORDERS:
        raise ConfigError(f"unknown constellation {name!r}; choose from {sorted(QAM_ORDERS)}",
                          field="constellation")
    order = QAM_ORDERS[name]
    side = int(round(np.sqrt(order)))
    bits_per_axis = side.bit_length() - 1
    idx = np.arange(side)
    levels = 2 * idx - (side - 1)
    # Gray label of the i-th amplitude level is i ^ (i >> 1); invert so that
    # a label selects its level and adjacent levels differ in one bit.
    level_for_label = np.empty(side, dtype=float)
    level_for_label[idx ^ (idx >> 1)] = levels
    s = np.arange(order)
    i_level = level_for_label[s >> bits_per_axis]
    q_level = level_for_label[s & (side - 1)]
    scale = np.sqrt(3.0 / (2.0 * (order - 1)))
    return _read_only((i_level + 1j * q_level) * scale)


def _bin_runs(bins):
    """(lo, hi, first, stop) for every run of consecutive bins of an index
    array: bins[lo:hi] are the bins first .. stop - 1.  A copy into or out
    of the runs is one slice assignment per run, at a fraction of the cost
    of a fancy-index scatter."""
    cuts = np.flatnonzero(np.diff(bins) != 1) + 1
    return [(lo, hi, int(bins[lo]), int(bins[hi - 1]) + 1)
            for lo, hi in zip([0, *cuts], [*cuts, bins.size])]


def _qam_symbols(seed, numerology, n_tx, constellation, first, count):
    """The (count, n_tx, N) symbol array of generate_qam_block.

    A symbol's n_tx * n_active integers are read off its Philox stream as
    Generator.integers(0, order) reads them for a power-of-two order 2^b:
    each raw 64-bit output (random_raw) gives two 32-bit halves, the low
    one first, and each half maps to its top b bits.  That is Lemire's
    bounded mapping ("Fast random integer generation in an interval", ACM
    TOMACS 2019), whose rejection step never fires for a power of two, so
    the integers are bitwise those of one integers call per symbol.  The
    points fill the block one run of consecutive active bins at a time.
    """
    if n_tx < 1:
        raise ConfigError("n_tx must be at least 1", field="n_tx")
    points = qam_constellation(constellation)
    bits = points.size.bit_length() - 1
    n_draws = n_tx * numerology.n_active
    bit_gen = np.random.Philox(key=seed)
    state = bit_gen.state          # a fresh generator: empty buffers
    counter = state["state"]["counter"]
    raw = np.empty((count, (n_draws + 1) // 2), dtype=np.uint64)
    for i in range(count):
        counter[3] = first + i
        bit_gen.state = state
        raw[i] = bit_gen.random_raw(raw.shape[1])
    # the 32-bit halves in stream order, low half first on any host
    halves = raw.astype("<u8", copy=False).view("<u4")[:, :n_draws]
    draws = (halves >> (32 - bits)).astype(np.intp).reshape(count, n_tx, -1)
    symbols = np.zeros((count, n_tx, numerology.fft_size), dtype=complex)
    for lo, hi, first_bin, stop in numerology.active_runs:
        symbols[..., first_bin:stop] = points[draws[..., lo:hi]]
    return symbols


def generate_qam_block(seed, numerology, n_tx, constellation, first=0, count=1):
    """Draw the i.i.d. QAM data grids of symbols first .. first + count - 1.

    The stream is a counter-based generator keyed by ``seed``, and each
    symbol's draw starts from the counter (0, 0, 0, symbol index): any
    symbol of a run can be regenerated independently, and the draw for
    (seed, symbol) depends neither on how many symbols were produced before
    it nor on the block it is drawn in.  One Philox bit generator serves
    the block, its counter re-set for every symbol, whose integers are
    the Generator.integers mapping of its raw outputs (_qam_symbols), and
    the block is validated once.  Returns a (count, n_tx, N) DataGrid.
    """
    return DataGrid(symbols=_qam_symbols(seed, numerology, n_tx, constellation, first, count),
                    numerology=numerology)


def generate_qam_grid(seed, numerology, n_tx, constellation, symbol_index=0):
    """Draw the (n_tx, N) QAM data grid of one symbol: symbol
    ``symbol_index`` of generate_qam_block's stream."""
    return DataGrid(symbols=_qam_symbols(seed, numerology, n_tx, constellation,
                                         symbol_index, 1)[0],
                    numerology=numerology)


def _write_frames(symbols, numerology, frame, frames, spec):
    """Write the CP-OFDM frames of a block of symbols (S, n_tx, N) of
    ``numerology`` into frames (S, n_tx, frame.symbol_len), and return
    frames; ``frame`` is the numerology oversampled L times
    (numerology.oversampled(L)).

    Each frame is the inverse DFT of its symbol's grid with 1/sqrt(N)
    scaling, oversampled by zero padding the spectrum, with the cyclic
    prefix copied in front from the body's tail.  spec (S, n_tx, L N)
    holds the padded spectra: only its active positions are written, one
    slice per run of consecutive bins (active_runs), so its other entries
    must be zero, and they stay zero.  The frame's runs are the base's,
    since both follow the offsets and wrap at DC alone.  The inverse DFT writes straight into the frames' bodies;
    frames may be any view whose last axis is contiguous, and the leading
    axes of all three arrays need only agree (synthesize_time_signal
    passes them antenna first).  Both arrays can be reused from one call
    to the next.
    """
    n_os, cp_os = frame.fft_size, frame.cp_len
    for (*_, first, stop), (*_, src, src_stop) in zip(frame.active_runs, numerology.active_runs):
        spec[..., first:stop] = symbols[..., src:src_stop]
    body = np.fft.ifft(spec, axis=-1, out=frames[..., cp_os:])
    body *= n_os / np.sqrt(numerology.fft_size)
    frames[..., :cp_os] = body[..., n_os - cp_os:]
    return frames


def synthesize_time_signal(grid, oversample=1):
    """CP-OFDM synthesis of one symbol, or of a block of consecutive symbols,
    per antenna.

    Returns an (n_tx, S * oversample * (N + N_CP)) complex array, S = 1 for
    a single symbol: for every symbol the inverse DFT of its grid with
    1/sqrt(N) scaling, oversampled by zero padding the spectrum, with the
    cyclic prefix prepended.  At ``oversample=1`` sample n of the body is
    (1/sqrt(N)) * sum_k d_k exp(j*2*pi*k*n/N).
    """
    num = grid.numerology
    frame = num.oversampled(oversample)
    # The frames are written antenna first, so that the inverse DFT runs
    # from a contiguous spectrum into the streams' bodies in memory order.
    symbols = grid.symbols.reshape((-1,) + grid.symbols.shape[-2:]).swapaxes(0, 1)
    stream = np.empty(symbols.shape[:-1] + (frame.symbol_len,), dtype=complex)
    spec = np.zeros(symbols.shape[:-1] + (frame.fft_size,), dtype=complex)
    _write_frames(symbols, num, frame, stream, spec)
    return stream.reshape(grid.n_tx, -1)


class WaveformWriter:
    """Writes the file of (n_streams, n_samples) complex streams piece by piece.

    Layout: 16-byte header (magic ``SPWF``, format version, stream count,
    samples per stream) followed by the streams row-major, each sample a
    little-endian float64 (re, im) pair.  Used as a context manager: the
    header is written on entry, :meth:`write` puts a piece of every stream
    at its place, and the file is written under ``path`` + ``.part`` and
    renamed to ``path`` on a normal exit once every sample is in place.  On
    an exception, or with samples missing, the partial file is removed.
    """

    def __init__(self, path, n_streams, n_samples):
        self._path = os.fspath(path)
        self.shape = (n_streams, n_samples)
        self._part = self._path + ".part"
        self._fh = None
        self._written = 0

    def __enter__(self):
        self._fh = open(self._part, "wb")
        self._fh.write(_WAVEFORM_HEADER.pack(_WAVEFORM_MAGIC, _WAVEFORM_VERSION, *self.shape))
        return self

    def write(self, first, samples):
        """Write samples (n_streams, k) as samples first .. first + k - 1 of
        every stream."""
        # A little-endian complex128 array already holds its values as
        # consecutive float64 (re, im) pairs, so each row is written as it is.
        samples = np.ascontiguousarray(np.atleast_2d(samples), dtype="<c16")
        n_streams, n_samples = self.shape
        if samples.shape[0] != n_streams or not 0 <= first <= n_samples - samples.shape[1]:
            raise ValueError(f"samples {samples.shape} at offset {first} do not fit "
                             f"streams {self.shape}")
        for a, row in enumerate(samples):
            self._fh.seek(_WAVEFORM_HEADER.size + (a * n_samples + first) * 16)
            self._fh.write(row)
        self._written += samples.size

    def __exit__(self, exc_type, exc, tb):
        self._fh.close()
        total = self.shape[0] * self.shape[1]
        if exc_type is None and self._written == total:
            os.replace(self._part, self._path)
            return
        os.remove(self._part)
        if exc_type is None:
            raise ValueError(f"{self._written} of {total} waveform samples were written")


def write_waveform(path, samples):
    """Write complex streams (n_streams, n_samples) in the layout of
    :class:`WaveformWriter`."""
    samples = np.atleast_2d(samples)
    with WaveformWriter(path, *samples.shape) as writer:
        writer.write(0, samples)


def read_waveform(path):
    """Inverse of :func:`write_waveform`; returns (n_streams, n_samples) complex.

    A file that is not exactly a header and the payload it declares (a
    short header, a truncated payload, trailing bytes) raises ConfigError.
    """
    with open(path, "rb") as fh:
        header = fh.read(_WAVEFORM_HEADER.size)
        if len(header) != _WAVEFORM_HEADER.size:
            raise ConfigError("not a waveform file (short header)", field="waveform")
        magic, version, n_streams, n_samples = _WAVEFORM_HEADER.unpack(header)
        if magic != _WAVEFORM_MAGIC:
            raise ConfigError("not a waveform file (bad magic)", field="waveform")
        if version != _WAVEFORM_VERSION:
            raise ConfigError(f"unsupported waveform version {version}", field="waveform")
        payload = fh.read()
    if len(payload) != n_streams * n_samples * 16:
        raise ConfigError(f"waveform payload holds {len(payload)} bytes, the header declares "
                          f"{n_streams * n_samples * 16}", field="waveform")
    pairs = np.frombuffer(payload, dtype="<f8").reshape(n_streams, n_samples, 2)
    return pairs[..., 0] + 1j * pairs[..., 1]
