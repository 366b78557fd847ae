"""Leakage, EVM, PSD, and ACLR figures of merit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specprecode import (ConfigError, DataGrid, FrequencyGrid, MaskSpec,
                         PsdAccumulator, PsdConfig, PsdEstimate, ScenarioConfig,
                         aclr, analytic_inband_reference, build_kernel,
                         calibrate_mask, generate_qam_block, kernel_psd_prediction,
                         oobe_power, OfdmNumerology, synthesize_time_signal)
from specprecode import runner
from specprecode.metrics import _add_in_order, _dft_power, _dft_tables, _row_products
from specprecode.signal_model import _kernel_entries, _kernel_matrix, _write_frames

from conftest import qpsk_grid, small_numerology


@pytest.fixture(scope="module")
def metric_setup():
    num = small_numerology()
    kern = build_kernel(num, FrequencyGrid(points=np.array([5.3, 6.25])))
    grid = qpsk_grid(num, 2, seed=21)
    return num, kern, grid


def full_width_inband_reference(numerology, step=0.25):
    """The calibration through the full kernel rows, restricted afterwards
    to the active columns."""
    offs = numerology.active_offsets
    nu = np.arange(offs[0], offs[-1] + step / 2, step)
    rows = _kernel_matrix(numerology.fft_size, numerology.cp_len, nu)
    act = rows[:, numerology.active_bins]
    return float(np.mean(np.sum(np.abs(act) ** 2, axis=1)))


def unique_inband_reference(numerology):
    """The calibration with one kernel evaluation per distinct offset
    nu - k, found by sorting them (np.unique)."""
    offs = numerology.active_offsets
    nu = np.arange(offs[0], offs[-1] + 0.125, 0.25)
    delta, inverse = np.unique(nu[None, :] - numerology.active_bins[:, None],
                               return_inverse=True)
    power = np.abs(_kernel_entries(numerology.fft_size, numerology.cp_len, delta)) ** 2
    terms = power[inverse].reshape(numerology.n_active, nu.size)
    return float(np.mean(np.sum(terms, axis=0)))


class TestMaskCalibration:
    def test_nonpositive_bounds_rejected(self):
        with pytest.raises(ConfigError):
            MaskSpec(gamma=np.array([1.0, 0.0]))

    def test_explicit_reference_hand_values(self, metric_setup):
        num, _, _ = metric_setup
        spec = calibrate_mask([-75.0, -65.0], num, ref_db=-21.5,
                              reference_power=2.0)
        expect = 10.0 ** (np.array([-53.5, -43.5]) / 10.0) * 2.0
        assert spec.gamma == pytest.approx(expect, rel=1e-12)

    def test_default_reference_is_analytic_mean(self, metric_setup):
        num, _, _ = metric_setup
        spec = calibrate_mask([-60.0], num, ref_db=-20.0)
        ref = analytic_inband_reference(num)
        assert spec.gamma[0] == pytest.approx(1e-4 * ref, rel=1e-12)

    def test_offset_shift_scales_bounds(self, metric_setup):
        num, _, _ = metric_setup
        lo = calibrate_mask([-70.0], num, ref_db=-21.5)
        hi = calibrate_mask([-60.0], num, ref_db=-21.5)
        assert hi.gamma[0] == pytest.approx(10.0 * lo.gamma[0], rel=1e-12)

    @pytest.mark.parametrize("numerology", [
        OfdmNumerology.centered(512, 36, 15e3, 300),
        OfdmNumerology(512, 36, 15e3, np.r_[-150:0, 1:151]),   # null at DC
        OfdmNumerology.centered(512, 0, 15e3, 300),
        OfdmNumerology.centered(511, 36, 15e3, 299, first_offset=-140),
        OfdmNumerology.centered(64, 4, 15e3, 24),
    ], ids=["default", "dc-null", "no-cp", "odd-n", "n64"])
    def test_analytic_reference_matches_full_width_bitwise(self, numerology):
        assert (analytic_inband_reference(numerology)
                == full_width_inband_reference(numerology))

    def test_lattice_index_matches_unique_offsets_on_the_default_scenario(self):
        num = ScenarioConfig.from_dict({}).numerology
        assert analytic_inband_reference(num) == unique_inband_reference(num)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 700), seed=st.integers(0, 2**32 - 1))
    def test_lattice_index_matches_unique_offsets_bitwise(self, n, seed):
        # any set of active offsets, contiguous or not
        rng = np.random.default_rng(seed)
        span = np.arange(-(n // 2), (n - 1) // 2 + 1)
        offsets = rng.choice(span, rng.integers(1, n + 1), replace=False)
        num = OfdmNumerology(n, int(rng.integers(0, n)), 15e3, offsets, prb_size=1)
        assert analytic_inband_reference(num) == unique_inband_reference(num)

    def test_analytic_reference_step_stable(self, metric_setup):
        # the quarter-subcarrier grid against a finer one
        num, _, _ = metric_setup
        coarse = analytic_inband_reference(num)
        fine = full_width_inband_reference(num, step=0.1)
        assert coarse > 0
        assert abs(coarse - fine) / fine < 0.01


class TestLeakageMetrics:
    def test_oobe_shapes(self, metric_setup):
        _, kern, grid = metric_setup
        batch = oobe_power(grid, kern)
        single = oobe_power(grid.symbols[0], kern)
        assert batch.shape == (2, 2) and single.shape == (2,)
        assert single == pytest.approx(batch[:, 0], rel=1e-12)

    def test_oobe_matches_direct_product(self, metric_setup):
        _, kern, grid = metric_setup
        direct = np.abs(np.einsum("mk,jk->mj", kern.matrix, grid.symbols)) ** 2
        assert oobe_power(grid, kern) == pytest.approx(direct, rel=1e-12)

    def test_oobe_on_the_band_matches_full_width_bitwise(self):
        # the solvers keep the active band in bin order; its guard terms
        # are exact zeros, so the band product gives the same bits
        cfg = ScenarioConfig.from_dict({})
        num = cfg.numerology
        kern = build_kernel(num, cfg.freq_grid)
        block = np.stack([qpsk_grid(num, 2, seed=s).symbols for s in range(5)])
        band = block[..., num.band_bins]
        for full, part in ((block, band), (block[0], band[0]), (block[0, 1], band[0, 1])):
            assert np.array_equal(oobe_power(part, kern), oobe_power(full, kern))

    def test_default_scenario_input_violates_mask(self):
        # the shipped scenario only makes sense if raw grids breach the mask
        cfg = ScenarioConfig.from_dict({})
        kern = build_kernel(cfg.numerology, cfg.freq_grid)
        grid = qpsk_grid(cfg.numerology, 2, seed=3)
        assert (oobe_power(grid, kern) / cfg.mask.gamma[:, None]).max() > 1.0


class TestPsdConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PsdConfig(oversample=0)
        with pytest.raises(ConfigError):
            PsdConfig(bin_hz=0.0)
        with pytest.raises(ConfigError):
            PsdConfig(ref_density=0.0)

    def test_segment_is_one_oversampled_symbol(self, metric_setup):
        num, _, _ = metric_setup
        acc = PsdAccumulator(num, PsdConfig(oversample=4))
        assert acc.seg_len == num.oversampled(4).symbol_len == 4 * num.symbol_len
        assert acc.fs == num.oversampled(4).sample_rate_hz == 4 * num.sample_rate_hz

    @pytest.mark.parametrize("oversample", [2.5, 4.0, 0, -1])
    def test_oversample_must_be_a_positive_integer(self, metric_setup, oversample):
        # PsdConfig and the frame numerology share one check, so every entry
        # point rejects the same factors under the same field
        num, _, grid = metric_setup
        for call in (lambda: PsdAccumulator(num, PsdConfig(oversample=oversample)),
                     lambda: kernel_psd_prediction([grid], num, oversample, [1e5])):
            with pytest.raises(ConfigError) as info:
                call()
            assert info.value.field == "oversample"


class TestPsdEstimate:
    def make_estimate(self, centers, density, bin_hz):
        density = np.asarray(density, dtype=float)
        return PsdEstimate(freq_hz=np.asarray(centers, dtype=float),
                           density_db=10.0 * np.log10(density),
                           density_per_hz=density, bin_hz=bin_hz,
                           sample_rate_hz=1.0, segments=1,
                           ref_density=1.0, ref_db=0.0)

    def test_band_power_partial_bins(self):
        est = self.make_estimate([50e3, 150e3], [2.0, 4.0], 100e3)
        assert est.band_power(0.0, 100e3) == pytest.approx(2.0 * 100e3)
        assert est.band_power(50e3, 150e3) == pytest.approx(2.0 * 50e3 + 4.0 * 50e3)

    def test_band_power_span_checked(self):
        est = self.make_estimate([50e3, 150e3], [2.0, 4.0], 100e3)
        with pytest.raises(ConfigError):
            est.band_power(100e3, 100e3)
        with pytest.raises(ConfigError):
            est.band_power(0.0, 300e3)

    def test_synthetic_aclr_exact(self):
        centers = (np.arange(-8, 8) + 0.5) * 1e6
        density = np.full(centers.size, 1e-6)
        density[np.abs(centers) < 2e6] = 1.0
        density[(centers > 3e6) & (centers < 7e6)] = 1e-3
        density[(centers < -3e6) & (centers > -7e6)] = 2e-3
        est = self.make_estimate(centers, density, 1e6)
        rep = aclr(est, {"bw_hz": 4e6, "spacing_hz": 5e6})
        assert rep.upper_db == pytest.approx(30.0, abs=1e-9)
        assert rep.lower_db == pytest.approx(30.0 - 10 * np.log10(2.0), abs=1e-9)
        assert rep.worst_db == rep.lower_db

    def test_aclr_validation(self):
        est = self.make_estimate([0.5e6], [1.0], 1e6)
        with pytest.raises(ConfigError):
            aclr(est, {"bw_hz": 0.0, "spacing_hz": 1e6})


class TestPsdAccumulation:
    def test_tone_peak_lands_in_neighboring_bin(self, metric_setup):
        num, _, _ = metric_setup
        sym = np.zeros((1, num.fft_size), dtype=complex)
        tone_bin = 2
        sym[0, tone_bin % num.fft_size] = 1.0
        grid = DataGrid(symbols=sym, numerology=num)
        cfg = PsdConfig(oversample=4, bin_hz=100e3)
        acc = PsdAccumulator(num, cfg)
        acc.add(synthesize_time_signal(grid, oversample=4))
        est = acc.finalize()
        peak = est.freq_hz[np.argmax(est.density_per_hz)]
        assert abs(peak - tone_bin * num.scs_hz) <= cfg.bin_hz

    def test_total_power_matches_waveform(self, metric_setup):
        # rectangular-window periodogram conserves mean power per Parseval;
        # report on the raw FFT lattice so no bin is partially covered
        num, _, grid = metric_setup
        wave = synthesize_time_signal(grid, oversample=4)
        fs = 4 * num.sample_rate_hz
        seg = 4 * num.symbol_len
        cfg = PsdConfig(oversample=4, bin_hz=fs / seg)
        acc = PsdAccumulator(num, cfg)
        acc.add(wave)
        est = acc.finalize()
        integral = float(np.sum(est.density_per_hz)) * est.bin_hz
        mean_power = float(np.mean(np.sum(np.abs(wave) ** 2, axis=0)))
        assert integral == pytest.approx(mean_power, rel=1e-9)

    def test_incremental_adds_match_concatenated(self, metric_setup):
        num, _, _ = metric_setup
        g1 = qpsk_grid(num, 2, seed=31)
        g2 = qpsk_grid(num, 2, seed=32)
        w1 = synthesize_time_signal(g1, oversample=4)
        w2 = synthesize_time_signal(g2, oversample=4)
        cfg = PsdConfig(oversample=4)
        inc = PsdAccumulator(num, cfg)
        inc.add(w1)
        inc.add(w2)
        cat = PsdAccumulator(num, cfg)
        cat.add(np.concatenate([w1, w2], axis=1))
        a, b = inc.finalize(), cat.finalize()
        assert a.segments == b.segments == 2
        assert np.array_equal(a.density_per_hz, b.density_per_hz)

    def test_probe_density_matches_kernel_prediction(self, metric_setup):
        num, _, _ = metric_setup
        freqs = np.array([5.3, 6.25, 7.4]) * num.scs_hz
        cfg = PsdConfig(oversample=4)
        acc = PsdAccumulator(num, cfg, probe_freqs_hz=freqs)
        grids = [qpsk_grid(num, 2, seed=100 + i) for i in range(10)]
        for g in grids:
            acc.add(synthesize_time_signal(g, oversample=4))
        measured = acc.probe_density()
        predicted = kernel_psd_prediction(grids, num, 4, freqs)
        assert measured == pytest.approx(predicted, rel=1e-9)

    def test_prediction_of_a_block_is_that_of_its_symbols(self):
        # a block counts as its symbols, added one at a time in order
        cfg = ScenarioConfig.from_dict({})
        num = cfg.numerology
        freqs = cfg.freq_grid.to_hz(num.scs_hz)
        block = generate_qam_block(cfg.seed, num, cfg.n_tx, cfg.constellation, 0, 3)
        singles = [block.with_symbols(sym) for sym in block.symbols]
        assert np.array_equal(kernel_psd_prediction([block], num, 4, freqs),
                              kernel_psd_prediction(singles, num, 4, freqs))

    def test_empty_accumulator_rejected(self, metric_setup):
        num, _, _ = metric_setup
        acc = PsdAccumulator(num, PsdConfig(oversample=4))
        with pytest.raises(ConfigError):
            acc.finalize()
        with pytest.raises(ConfigError):
            acc.probe_density()

    def test_short_waveform_rejected(self, metric_setup):
        num, _, _ = metric_setup
        acc = PsdAccumulator(num, PsdConfig(oversample=4))
        with pytest.raises(ConfigError):
            acc.add(np.zeros((1, 10), dtype=complex))

    def test_frames_must_be_segments(self, metric_setup):
        num, _, _ = metric_setup
        acc = PsdAccumulator(num, PsdConfig(oversample=4))
        with pytest.raises(ConfigError):
            acc.add_frames(np.zeros((2, 1, acc.seg_len + 1), dtype=complex))

    def test_no_grids_rejected(self, metric_setup):
        num, _, _ = metric_setup
        with pytest.raises(ConfigError):
            kernel_psd_prediction([], num, 4, np.array([1e5]))


def frame_numerologies():
    """The default numerology and the 64-point ones without a cyclic prefix
    and with a 3-sample one."""
    small = [OfdmNumerology.centered(fft_size=64, cp_len=cp, scs_hz=15e3, n_active=24,
                                     first_offset=-12, prb_size=4) for cp in (0, 3)]
    return [ScenarioConfig.from_dict({}).numerology, *small]


class TestFrameKernelRows:
    """The frame kernel's band rows (the kernel of the numerology
    oversampled L times, on the active band in bin order), which give the
    run's probe densities and kernel_psd_prediction."""

    @pytest.mark.parametrize("num", frame_numerologies(), ids=["default", "n64-cp0", "n64-cp3"])
    @pytest.mark.parametrize("oversample", [4, 3])
    def test_entries_match_a_direct_sum_over_the_frame(self, num, oversample):
        # the frame of a unit symbol on each active subcarrier, in bin order,
        # as the synthesizer writes it (the CP, then the body, 1/sqrt(N)
        # scaling), summed against exp(-2 pi i nu t / (L N)) with t = 0 at
        # the body's first sample; the rows carry 1/sqrt(L N), so they read
        # 1/sqrt(L) of that sum.  The points are quarter subcarriers, so nu t
        # and its remainder modulo L N are exact and the phases keep their
        # digits.
        frame = num.oversampled(oversample)
        n_os, cp_os = frame.fft_size, frame.cp_len
        nu = np.array([-1.5 * num.fft_size - 0.25, -14.25, -0.5, 0.0, 3.0, 13.25,
                       num.fft_size / 2 + 7.75, float(num.active_offsets[-1])])
        unit = np.zeros((num.n_active, 1, num.fft_size), dtype=complex)
        unit[np.arange(num.n_active), 0, num.band_bins] = 1.0
        frames = synthesize_time_signal(DataGrid(symbols=unit, numerology=num),
                                        oversample=oversample).reshape(num.n_active, -1)
        t = np.arange(n_os + cp_os) - cp_os
        direct = frames @ np.exp(-2j * np.pi * np.mod(np.outer(t, nu), n_os) / n_os)
        rows = build_kernel(frame, FrequencyGrid(points=nu)).band_rows.T * np.sqrt(oversample)
        scale = np.max(np.abs(direct), axis=0)
        assert np.all(np.abs(rows - direct) <= 1e-12 * scale)

    @pytest.mark.parametrize("num", frame_numerologies(), ids=["default", "n64-cp0", "n64-cp3"])
    @pytest.mark.parametrize("oversample", [4, 5, 8])
    @pytest.mark.parametrize("n_tx, symbols", [(1, 1), (2, 4), (3, 32)])
    def test_powers_have_the_bits_of_contiguous_band_rows(self, num, oversample, n_tx,
                                                          symbols):
        # oobe_power multiplies by the transposed band rows; a product with
        # the C-contiguous (n_active, M) matrix of the same entries, whose
        # layout BLAS might round differently, gives the same bits
        frame = num.oversampled(oversample)
        nu = np.array([-333.5, -170.25, -14.05, 0.0, 13.3, 171.0, 334.0])
        kern = build_kernel(frame, FrequencyGrid(points=nu))
        offsets = num.active_offsets[np.argsort(num.active_bins)]
        cols = np.ascontiguousarray(
            _kernel_matrix(frame.fft_size, frame.cp_len, nu)[:, np.mod(offsets, frame.fft_size)].T)
        band = generate_qam_block(5, num, n_tx, "16QAM", 0, symbols).symbols[..., num.band_bins]
        expect = np.sum(np.abs(_row_products(band, cols)) ** 2, axis=1)
        assert np.array_equal(np.sum(oobe_power(band, kern), axis=2), expect)


@pytest.mark.parametrize("shape", [(), (1,), (2,), (1, 12), (3, 12), (2192,)])
def test_add_in_order_adds_one_row_at_a_time(shape):
    # pairwise summation would regroup 33 terms of such spread magnitudes
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((32,) + shape) * 10.0 ** rng.integers(-8, 8, (32,) + shape)
    total = rng.standard_normal(shape)
    expect = total
    for row in rows:
        expect = expect + row
    assert np.array_equal(_add_in_order(total, rows), expect)


def test_add_in_order_whatever_the_layout_of_the_rows():
    # a fancy-indexed block is not C-contiguous, nor are its sums over an axis
    rng = np.random.default_rng(8)
    block = rng.standard_normal((32, 2, 40)) * 10.0 ** rng.integers(-8, 8, (32, 2, 40))
    rows = block[..., np.arange(0, 40, 2)].sum(axis=1)
    assert not rows.flags.c_contiguous
    expect = np.zeros(20)
    for row in rows:
        expect = expect + row
    assert np.array_equal(_add_in_order(np.zeros(20), rows), expect)


class TestPeriodogramTransform:
    """The two-stage |DFT|^2 of the periodogram (metrics._dft_power)."""

    # (n, p, m): the reference segment 4 (512 + 36) = 16 * 137, the 64-point
    # numerology's 4 (64 + 4) = 16 * 17, powers of two (p = 1), a prime
    # (m = 1) and 4 (64 + 3) = 4 * 67
    LENGTHS = [(2192, 137, 16), (272, 17, 16), (256, 1, 256), (2048, 1, 2048),
               (137, 137, 1), (268, 67, 4)]

    @pytest.mark.parametrize("n, p, m", LENGTHS)
    def test_matches_numpy_fft(self, n, p, m):
        assert _dft_tables(n)[:2] == (p, m)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((3, 2, n)) + 1j * rng.standard_normal((3, 2, n))
        expect = np.abs(np.fft.fft(x)) ** 2
        got = _dft_power(x)
        assert got.shape == x.shape
        assert np.all(np.abs(got - expect) <= 1e-12 * expect.max(axis=-1, keepdims=True))

    def test_tone_lands_in_its_bin(self):
        n = 2192
        x = np.exp(2j * np.pi * 300 * np.arange(n) / n)
        power = _dft_power(x)
        assert np.argmax(power) == 300 and power[300] == pytest.approx(n ** 2, rel=1e-12)

    @pytest.mark.parametrize("symbols", [1, 2, 16])
    def test_sums_do_not_depend_on_the_split(self, symbols):
        # one segment at a time, pieces of PSD_SYMBOLS and add() of the
        # whole block's stream give the same bits: the runner and the
        # per-symbol bench replica add the same periodograms
        cfg = ScenarioConfig.from_dict({})
        num = cfg.numerology
        block = generate_qam_block(cfg.seed, num, cfg.n_tx, cfg.constellation, 0, symbols)
        psd_cfg = cfg.psd_config()
        probes = cfg.freq_grid.to_hz(num.scs_hz)
        accs = [PsdAccumulator(num, psd_cfg, probe_freqs_hz=probes) for _ in range(3)]

        def add_pieces(acc, size):
            frames = np.empty((size, cfg.n_tx, acc.seg_len), dtype=complex)
            frame = num.oversampled(psd_cfg.oversample)
            spec = np.zeros((size, cfg.n_tx, frame.fft_size), dtype=complex)
            for j in range(0, symbols, size):
                piece = block.symbols[j:j + size]
                acc.add_frames(_write_frames(piece, num, frame,
                                             frames[:len(piece)], spec[:len(piece)]))

        add_pieces(accs[0], 1)
        add_pieces(accs[1], runner.PSD_SYMBOLS)
        accs[2].add(synthesize_time_signal(block, oversample=psd_cfg.oversample))
        for acc in accs[1:]:
            assert acc._segments == symbols
            assert np.array_equal(acc._psd_sum, accs[0]._psd_sum)
            assert np.array_equal(acc._probe_sum, accs[0]._probe_sum)
