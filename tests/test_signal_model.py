"""Numerology, leakage-kernel, QAM-grid, and synthesis behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import diric

from specprecode import (ConfigError, DataGrid, FrequencyGrid, OfdmNumerology, ScenarioConfig,
                         build_kernel, generate_qam_block, generate_qam_grid,
                         qam_constellation, read_waveform, synthesize_time_signal,
                         write_waveform)
from specprecode.signal_model import (_KERNEL_MEMO, QAM_ORDERS, WaveformWriter, _diric,
                                      _kernel_matrix)

from conftest import qpsk_grid, small_numerology


def kernel_oracle(fft_size, cp_len, points):
    """Direct geometric-sum evaluation of the leakage rows."""
    n = np.arange(-cp_len, fft_size)
    k = np.arange(fft_size)
    delta = np.asarray(points, dtype=float)[:, None] - k[None, :]
    phases = np.exp(-2j * np.pi * delta[..., None] * n / fft_size)
    return phases.sum(axis=-1) / np.sqrt(fft_size)


def scipy_kernel_matrix(fft_size, cp_len, points):
    """The kernel rows as evaluated through scipy.special.diric."""
    n = fft_size
    length = n + cp_len
    k = np.arange(n)
    delta = np.asarray(points, dtype=float)[:, None] - k[None, :]
    delta = delta - n * np.round(delta / n)
    ratio = length * diric(2.0 * np.pi * delta / n, length)
    phase = np.exp(1j * np.pi * delta * (cp_len - n + 1) / n)
    return phase * ratio / np.sqrt(n)


def leakage_row(num, nu):
    """The length-N leakage row a(nu)^T of the numerology."""
    return build_kernel(num, FrequencyGrid(points=[nu])).matrix[0]


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestNumerology:
    def test_centered_band_placement(self):
        num = OfdmNumerology.centered(fft_size=16, cp_len=2, scs_hz=15e3, n_active=8)
        assert num.active_offsets.tolist() == list(range(-4, 4))
        assert num.active_bins.tolist() == [12, 13, 14, 15, 0, 1, 2, 3]

    def test_first_offset_override(self):
        num = OfdmNumerology.centered(fft_size=16, cp_len=2, scs_hz=15e3,
                                      n_active=4, first_offset=1)
        assert num.active_offsets.tolist() == [1, 2, 3, 4]

    def test_derived_quantities(self):
        num = small_numerology()
        assert num.symbol_len == 18
        assert num.sample_rate_hz == 16 * 15e3
        assert num.n_prb == 2
        assert num.active_mask().sum() == 8

    @pytest.mark.parametrize("kwargs", [
        dict(fft_size=1, cp_len=0, scs_hz=15e3, n_active=1),
        dict(fft_size=16, cp_len=16, scs_hz=15e3, n_active=8),
        dict(fft_size=16, cp_len=2, scs_hz=0.0, n_active=8),
        dict(fft_size=16, cp_len=2, scs_hz=15e3, n_active=20),
    ])
    def test_invalid_numerology_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            OfdmNumerology.centered(**kwargs)

    def test_duplicate_offsets_rejected(self):
        with pytest.raises(ConfigError):
            OfdmNumerology(fft_size=16, cp_len=2, scs_hz=15e3,
                           active_offsets=np.array([1, 1, 2]))

    def test_partial_resource_block_rejected(self):
        num = OfdmNumerology.centered(fft_size=16, cp_len=2, scs_hz=15e3,
                                      n_active=8, prb_size=3)
        with pytest.raises(ConfigError):
            num.n_prb

    def test_equal_numerologies_compare_and_hash_equal(self):
        a, b = (ScenarioConfig.from_dict({}).numerology for _ in range(2))
        assert a is not b and a.active_offsets is not b.active_offsets
        assert a == b and not a != b
        assert hash(a) == hash(b) and len({a, b}) == 1

    @pytest.mark.parametrize("change", [
        dict(n_active=7),                       # an active set of another size
        dict(first_offset=-3),                  # the same size, shifted
        dict(cp_len=3),
        dict(prb_size=2),
    ])
    def test_a_changed_field_compares_unequal(self, change):
        # the two active sets of the first case cannot be broadcast together
        kwargs = dict(fft_size=16, cp_len=2, scs_hz=15e3, n_active=8, prb_size=4)
        a, b = (OfdmNumerology.centered(**kwargs), OfdmNumerology.centered(**{**kwargs, **change}))
        assert a != b and not a == b
        assert len({a, b}) == 2
        assert a != "numerology"

    def test_offsets_are_read_only(self):
        with pytest.raises(ValueError):
            small_numerology().active_offsets[0] = 0


@st.composite
def frame_cases(draw):
    """(numerology, L): an N-point numerology with any CP and any valid set
    of active offsets, asymmetric and with gaps, and an oversampling L."""
    n = draw(st.integers(2, 64))
    cp_len = draw(st.integers(0, n - 1))
    offsets = draw(st.lists(st.integers(-(n // 2), (n - 1) // 2), min_size=1, unique=True))
    num = OfdmNumerology(fft_size=n, cp_len=cp_len, scs_hz=draw(st.sampled_from([15e3, 30e3])),
                         active_offsets=np.array(offsets), prb_size=draw(st.integers(1, 12)))
    return num, draw(st.integers(1, 8))


class TestFrameNumerology:
    """OfdmNumerology.oversampled, the numerology of the synthesizer's frames."""

    @settings(max_examples=60, deadline=None)
    @given(case=frame_cases())
    def test_is_the_oversampled_numerology_with_the_band_in_the_same_order(self, case):
        num, factor = case
        frame = num.oversampled(factor)
        direct = OfdmNumerology(fft_size=factor * num.fft_size, cp_len=factor * num.cp_len,
                                scs_hz=num.scs_hz, active_offsets=num.active_offsets[::-1],
                                prb_size=num.prb_size)
        assert frame == direct and hash(frame) == hash(direct) and len({frame, direct}) == 1
        assert frame.symbol_len == factor * num.symbol_len
        # band bin k of the frame carries the subcarrier of band bin k of num
        assert np.array_equal(frame.active_offsets[np.argsort(frame.active_bins)],
                              num.active_offsets[np.argsort(num.active_bins)])
        assert np.array_equal(frame.band_bins,
                              np.sort(np.mod(num.active_offsets, factor * num.fft_size)))
        # the frame's runs of consecutive active bins are the base's, which
        # _write_frames copies one slice at a time
        assert [run[:2] for run in frame.active_runs] == [run[:2] for run in num.active_runs]
        for n in (num, frame):
            assert np.array_equal(np.concatenate([np.arange(first, stop)
                                                  for *_, first, stop in n.active_runs]),
                                  n.active_bins)
        assert num.oversampled(1) is num
        kern = build_kernel(frame, FrequencyGrid(points=[0.5, num.fft_size / 2 + 0.25]))
        assert kern is build_kernel(direct, FrequencyGrid(points=[0.5, num.fft_size / 2 + 0.25]))
        with pytest.raises(ValueError):
            kern.band_rows[0, 0] = 1.0

    def test_accepts_a_numpy_integer(self):
        num = small_numerology()
        assert num.oversampled(np.int64(4)) == num.oversampled(4)
        assert type(num.oversampled(np.int64(4)).fft_size) is int

    @pytest.mark.parametrize("oversample", [2.5, 4.0, 0, -1, "4", None])
    def test_anything_but_a_positive_integer_is_rejected(self, oversample):
        with pytest.raises(ConfigError) as info:
            small_numerology().oversampled(oversample)
        assert info.value.field == "oversample"


class TestFrequencyGrid:
    def test_hz_round_trip(self):
        grid = FrequencyGrid.from_hz(np.array([-75e3, 30e3]), 15e3)
        assert np.allclose(grid.points, [-5.0, 2.0])
        assert np.allclose(grid.to_hz(15e3), [-75e3, 30e3])

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            FrequencyGrid(points=np.array([]))

    def test_equal_grids_compare_and_hash_equal(self):
        a, b = (ScenarioConfig.from_dict({}).freq_grid for _ in range(2))
        assert a is not b and a.points is not b.points
        assert a == b and not a != b
        assert hash(a) == hash(b) and len({a, b}) == 1

    @pytest.mark.parametrize("points", [[5.3], [5.3, 6.25, 7.0], [5.3, 6.5]])
    def test_other_points_compare_unequal(self, points):
        a, b = FrequencyGrid(points=[5.3, 6.25]), FrequencyGrid(points=points)
        assert a != b and not a == b
        assert len({a, b}) == 2
        assert a != [5.3, 6.25]

    def test_points_are_a_read_only_copy(self):
        given_points = np.array([5.3, 6.25])
        grid = FrequencyGrid(points=given_points)
        given_points[0] = 1.0
        assert grid.points.tolist() == [5.3, 6.25]
        with pytest.raises(ValueError):
            grid.points[0] = 1.0


class TestKernel:
    def test_matches_direct_sum(self):
        num = small_numerology()
        pts = np.array([-6.3, -4.001, 0.5, 3.7, 9.25])
        kern = build_kernel(num, FrequencyGrid(points=pts))
        oracle = kernel_oracle(16, 2, pts)
        scale = np.abs(oracle).max()
        assert np.abs(kern.matrix - oracle).max() <= 1e-12 * scale

    def test_singular_points_exact(self):
        num = small_numerology()
        # integer offsets, including one a full FFT period away
        pts = np.array([3.0, 12.0, 3.0 + 16.0])
        kern = build_kernel(num, FrequencyGrid(points=pts))
        limit = num.symbol_len / np.sqrt(num.fft_size)
        assert np.abs(kern.matrix[0, 3]) == pytest.approx(limit, rel=1e-12)
        assert np.abs(kern.matrix[1, 12]) == pytest.approx(limit, rel=1e-12)
        assert np.abs(kern.matrix[2, 3]) == pytest.approx(limit, rel=1e-12)

    def test_mirror_magnitude_symmetry(self):
        num = small_numerology()
        k = 2
        for nu in (2.37, 5.8):
            a_pos = leakage_row(num, nu)[k]
            a_neg = leakage_row(num, 2 * k - nu)[k]
            assert np.abs(a_pos) == pytest.approx(np.abs(a_neg), rel=1e-12)

    def test_active_rows_zero_on_guards(self):
        num = small_numerology()
        kern = build_kernel(num, FrequencyGrid(points=np.array([5.3])))
        guards = ~num.active_mask()
        assert np.all(kern.active_rows[:, guards] == 0)
        assert np.allclose(kern.active_rows[:, num.active_bins],
                           kern.matrix[:, num.active_bins])

    def test_band_rows_are_the_active_columns_in_bin_order(self):
        num = small_numerology()
        kern = build_kernel(num, FrequencyGrid(points=np.array([5.3, 7.1])))
        assert num.band_bins.tolist() == [0, 1, 2, 3, 12, 13, 14, 15]
        assert np.array_equal(kern.band_rows, kern.active_rows[:, num.band_bins])
        assert kern.band_rows is kern.band_rows and not kern.band_rows.flags.writeable

    def test_shared_kernel_cannot_be_written(self):
        num = small_numerology()
        kern = build_kernel(num, FrequencyGrid(points=np.array([5.3, 7.1])))
        frame_kern = build_kernel(num.oversampled(4), kern.freq_grid)
        for arr in (kern.matrix, kern.active_rows, kern.band_rows, kern.gram,
                    frame_kern.band_rows):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_frame_kernel_rows_on_the_band_in_bin_order(self):
        num = small_numerology()
        grid = FrequencyGrid(points=np.array([5.3, 7.1]))
        rows = build_kernel(num.oversampled(4), grid).band_rows
        assert rows is build_kernel(num.oversampled(4), grid).band_rows
        assert rows is not build_kernel(num.oversampled(5), grid).band_rows
        # column k is the 4x oversampled kernel column of band bin k
        full = _kernel_matrix(4 * num.fft_size, 4 * num.cp_len, grid.points)
        offsets = num.active_offsets[np.argsort(num.active_bins)]
        assert same_bits(rows, full[:, np.mod(offsets, 4 * num.fft_size)])

    def test_equal_arguments_share_one_kernel(self):
        kerns = [build_kernel(small_numerology(), FrequencyGrid(points=[5.3, 7.1]))
                 for _ in range(2)]
        assert kerns[0] is kerns[1]
        other = build_kernel(small_numerology(), FrequencyGrid(points=[5.3, 7.2]))
        assert other is not kerns[0]

    @settings(max_examples=40, deadline=None)
    @given(fft_size=st.integers(2, 64), cp_frac=st.floats(0.0, 1.0),
           n_points=st.integers(1, 4))
    def test_memo_stays_bounded(self, fft_size, cp_frac, n_points):
        cp_len = min(int(cp_frac * fft_size), fft_size - 1)
        num = OfdmNumerology.centered(fft_size=fft_size, cp_len=cp_len, scs_hz=15e3,
                                      n_active=1, prb_size=1)
        points = np.arange(n_points) + 0.5
        kern = build_kernel(num, FrequencyGrid(points=points))
        assert build_kernel.cache_info().currsize <= _KERNEL_MEMO
        assert same_bits(kern.matrix, _kernel_matrix(fft_size, cp_len, points))

    def test_kernel_time_domain_consistency(self):
        # |a(nu)^T d| equals the DTFT magnitude of the synthesized symbol
        num = small_numerology()
        grid = qpsk_grid(num, 1, seed=5)
        samples = synthesize_time_signal(grid)[0]
        n = np.arange(-num.cp_len, num.fft_size)
        for nu in (4.6, 5.5, 9.2):
            dtft = np.sum(samples * np.exp(-2j * np.pi * nu * n / num.fft_size))
            direct = leakage_row(num, nu) @ grid.symbols[0]
            assert np.abs(dtft) == pytest.approx(np.abs(direct), rel=1e-9)


# Dirichlet arguments: anywhere up to large |x|, exact multiples of 2 pi, and
# points within 1e-7 of them, on both sides of the helper's sign branch.
_periods = st.integers(-10**6, 10**6).map(lambda k: 2.0 * np.pi * k)
_diric_args = st.one_of(
    st.floats(-1e9, 1e9, allow_nan=False),
    st.floats(-20.0, 20.0, allow_nan=False),
    _periods,
    st.tuples(_periods, st.floats(-1e-7, 1e-7, allow_nan=False)).map(sum),
    st.tuples(_periods, st.floats(-3e-7, 3e-7, allow_nan=False)).map(sum),
)


class TestDirichlet:
    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(_diric_args, min_size=1, max_size=40),
           n=st.integers(1, 4096))
    def test_matches_scipy_bitwise(self, xs, n):
        x = np.array(xs)
        assert same_bits(_diric(x, n), diric(x, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 548, 549, 4095, 4096])
    def test_matches_scipy_bitwise_near_every_singular_point(self, n):
        k = np.arange(-40, 41)
        eps = np.array([0.0, 1e-12, -1e-12, 9.9e-8, -9.9e-8, 2.1e-7, -2.1e-7])
        x = (2.0 * np.pi * k[:, None] + eps[None, :]).ravel()
        assert same_bits(_diric(x, n), diric(x, n))

    @settings(max_examples=60, deadline=None)
    @given(fft_size=st.integers(2, 1024), cp_frac=st.floats(0.0, 1.0),
           data=st.data())
    def test_kernel_matrix_matches_scipy_bitwise(self, fft_size, cp_frac, data):
        cp_len = min(int(cp_frac * fft_size), fft_size - 1)
        span = 2.0 * fft_size
        points = data.draw(st.lists(st.one_of(
            st.floats(-span, span, allow_nan=False),
            st.integers(-2 * fft_size, 2 * fft_size).map(float),
            st.integers(-4 * fft_size, 4 * fft_size).map(lambda h: h / 2)),
            min_size=1, max_size=6))
        assert same_bits(_kernel_matrix(fft_size, cp_len, points),
                         scipy_kernel_matrix(fft_size, cp_len, points))


class TestDataGrid:
    def test_guard_bins_must_be_zero(self):
        num = small_numerology()
        sym = np.zeros((1, 16), dtype=complex)
        sym[0, 6] = 1.0   # guard bin
        with pytest.raises(ConfigError):
            DataGrid(symbols=sym, numerology=num)

    def test_vector_promotes_to_one_antenna(self):
        num = small_numerology()
        sym = np.zeros(16, dtype=complex)
        sym[num.active_bins] = 1.0
        grid = DataGrid(symbols=sym, numerology=num)
        assert grid.n_tx == 1
        assert np.vdot(grid.symbols, grid.symbols).real == pytest.approx(8.0)
        assert grid.symbols[..., num.active_bins].shape == (1, 8)


class TestQamGeneration:
    def test_qpsk_alphabet(self):
        num = small_numerology()
        grid = generate_qam_grid(0, num, 1, "QPSK")
        vals = grid.symbols[..., num.active_bins].ravel()
        corners = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        dist = np.abs(vals[:, None] - corners[None, :]).min(axis=1)
        assert np.all(dist < 1e-12)

    def test_tables_built_once_and_read_only(self):
        num = small_numerology()
        assert num.guard_bins.tolist() == list(range(4, 12))
        tables = [getattr(num, name) for name in ("active_bins", "band_bins", "guard_bins")]
        tables.append(qam_constellation("16QAM"))
        assert tables[-1] is qam_constellation("16QAM")
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

    def test_constellations_unit_power(self):
        for name in ("QPSK", "16QAM", "64QAM", "256QAM"):
            pts = qam_constellation(name)
            assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_gray_neighbors_differ_one_bit(self):
        pts = qam_constellation("16QAM")
        side = 4
        levels = np.unique(pts.real)
        # adjacent in-phase levels at fixed quadrature differ in one label bit
        for q in range(side):
            labels = []
            for lv in levels:
                match = np.flatnonzero(np.isclose(pts.real, lv)
                                       & np.isclose(pts.imag, levels[q]))
                labels.append(match[0])
            for a, b in zip(labels, labels[1:]):
                assert bin(a ^ b).count("1") == 1

    def test_determinism_and_symbol_independence(self):
        num = small_numerology()
        g1 = generate_qam_grid(3, num, 2, "64QAM", symbol_index=4)
        g2 = generate_qam_grid(3, num, 2, "64QAM", symbol_index=4)
        g3 = generate_qam_grid(3, num, 2, "64QAM", symbol_index=5)
        assert np.array_equal(g1.symbols, g2.symbols)
        assert not np.array_equal(g1.symbols, g3.symbols)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 63), first=st.integers(0, 10 ** 6),
           count=st.integers(1, 12), n_tx=st.integers(1, 4),
           constellation=st.sampled_from(["QPSK", "16QAM", "64QAM", "256QAM"]))
    def test_block_is_the_stacked_single_symbols(self, seed, first, count, n_tx,
                                                 constellation):
        # Each symbol is the draw of a fresh Philox keyed by the seed with
        # the symbol index in its counter, whatever block it is drawn in.
        num = small_numerology()
        block = generate_qam_block(seed, num, n_tx, constellation, first, count)
        singles = np.stack([generate_qam_grid(seed, num, n_tx, constellation,
                                              symbol_index=s).symbols
                            for s in range(first, first + count)])
        assert np.array_equal(block.symbols, singles)
        points = qam_constellation(constellation)
        for i, sym in enumerate(block.symbols):
            rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, first + i]))
            draws = rng.integers(0, points.size, size=(n_tx, num.n_active))
            assert np.array_equal(sym[:, num.active_bins], points[draws])
            assert not sym[:, num.guard_bins].any()

    @pytest.mark.parametrize("constellation", sorted(QAM_ORDERS))
    @pytest.mark.parametrize("n_tx", [1, 2, 3])
    @pytest.mark.parametrize("num", [
        OfdmNumerology.centered(512, 36, 15e3, 300),
        # 7 active bins, so an odd draw count at n_tx 1 and 3 (the last raw
        # output's high half is left unread), in the three runs of bins
        # 29-31, 1-2 and 5-6; the next numerology adds a fourth, 10-11
        OfdmNumerology(32, 2, 15e3, [-3, -2, -1, 1, 2, 5, 6], prb_size=1),
        OfdmNumerology(32, 2, 15e3, [-3, -2, -1, 1, 2, 5, 6, 10, 11], prb_size=1),
    ], ids=["default", "odd-draws", "four-runs"])
    def test_raw_stream_mapping_is_generator_integers(self, constellation, n_tx, num):
        # the integers of every symbol are those of a per-symbol
        # Generator.integers call on the same Philox stream, bit for bit
        points = qam_constellation(constellation)
        block = generate_qam_block(77, num, n_tx, constellation, first=9, count=3).symbols
        for i, sym in enumerate(block):
            rng = np.random.Generator(np.random.Philox(key=77, counter=[0, 0, 0, 9 + i]))
            draws = rng.integers(0, QAM_ORDERS[constellation], size=(n_tx, num.n_active))
            expected = np.zeros_like(sym)
            expected[:, num.active_bins] = points[draws]
            assert sym.tobytes() == expected.tobytes()

    def test_large_grid_mean_power(self, default_cfg):
        num = default_cfg.numerology
        powers = [np.abs(generate_qam_grid(1, num, 1, "64QAM",
                                           symbol_index=s).symbols[..., num.active_bins]) ** 2
                  for s in range(20)]
        assert abs(np.mean(powers) - 1.0) < 0.05


class TestSynthesis:
    def test_zero_grid_gives_zero_samples(self):
        num = small_numerology()
        grid = DataGrid(symbols=np.zeros((1, 16), dtype=complex), numerology=num)
        assert np.all(synthesize_time_signal(grid) == 0)

    def test_single_tone_closed_form(self):
        num = small_numerology()
        sym = np.zeros((1, 16), dtype=complex)
        k = 2
        sym[0, k] = 1.0
        grid = DataGrid(symbols=sym, numerology=num)
        samples = synthesize_time_signal(grid)[0]
        n = np.arange(-num.cp_len, num.fft_size)
        expected = np.exp(2j * np.pi * k * n / num.fft_size) / np.sqrt(num.fft_size)
        assert np.allclose(samples, expected, atol=1e-12)

    def test_cyclic_prefix_copies_tail(self):
        num = OfdmNumerology.centered(fft_size=64, cp_len=8, scs_hz=15e3, n_active=24)
        grid = qpsk_grid(num, 2, seed=9)
        samples = synthesize_time_signal(grid)
        assert np.allclose(samples[:, :8], samples[:, -8:], atol=1e-12)

    def test_body_power_matches_grid_power(self):
        num = small_numerology()
        grid = qpsk_grid(num, 2, seed=11)
        body = synthesize_time_signal(grid)[:, num.cp_len:]
        power = np.vdot(grid.symbols, grid.symbols).real
        assert np.sum(np.abs(body) ** 2) == pytest.approx(power, rel=1e-9)

    def test_oversampling_interpolates(self):
        num = small_numerology()
        grid = qpsk_grid(num, 1, seed=13)
        base = synthesize_time_signal(grid, oversample=1)
        fine = synthesize_time_signal(grid, oversample=4)
        assert fine.shape == (1, 4 * num.symbol_len)
        assert np.allclose(fine[:, ::4], base, atol=1e-12)

    @pytest.mark.parametrize("oversample", [2.5, 4.0, 0, -1])
    def test_invalid_oversample_rejected(self, oversample):
        num = small_numerology()
        grid = qpsk_grid(num, 1, seed=1)
        with pytest.raises(ConfigError) as info:
            synthesize_time_signal(grid, oversample=oversample)
        assert info.value.field == "oversample"

    def test_numpy_integer_oversample(self):
        grid = qpsk_grid(small_numerology(), 1, seed=1)
        assert same_bits(synthesize_time_signal(grid, oversample=np.int64(4)),
                         synthesize_time_signal(grid, oversample=4))


class TestWaveformIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40))
        path = tmp_path / "w.bin"
        write_waveform(path, samples)
        assert np.array_equal(read_waveform(path), samples)
        # a strided view is written in row-major order as well
        write_waveform(path, samples[:, ::3])
        assert np.array_equal(read_waveform(path), samples[:, ::3])

    def test_writer_places_pieces_of_every_stream(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40))
        write_waveform(tmp_path / "whole.bin", samples)
        path = tmp_path / "pieces.bin"
        with WaveformWriter(path, 3, 40) as writer:
            for first, stop in ((32, 40), (0, 8), (8, 32)):
                writer.write(first, samples[:, first:stop])
            assert not path.exists()
        assert path.read_bytes() == (tmp_path / "whole.bin").read_bytes()
        assert sorted(f.name for f in tmp_path.iterdir()) == ["pieces.bin", "whole.bin"]

    def test_writer_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "w.bin"
        with pytest.raises(ValueError, match="8 of 10"):
            with WaveformWriter(path, 2, 5) as writer:
                writer.write(0, np.ones((2, 4), dtype=complex))
        with pytest.raises(ValueError, match="do not fit"):
            with WaveformWriter(path, 2, 5) as writer:
                writer.write(2, np.ones((2, 4), dtype=complex))
        assert list(tmp_path.iterdir()) == []

    def test_layout_is_float64_pairs(self, tmp_path):
        samples = np.array([[1.5 - 2j, -0.25 + 8j], [3j, 7.0]])
        path = tmp_path / "w.bin"
        write_waveform(path, samples)
        body = np.frombuffer(path.read_bytes()[16:], dtype="<f8")
        assert body.tolist() == [1.5, -2.0, -0.25, 8.0, 0.0, 3.0, 7.0, 0.0]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"XXXX" + b"\0" * 12)
        with pytest.raises(ConfigError):
            read_waveform(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"SPWF\x01\0\0\0")
        with pytest.raises(ConfigError) as err:
            read_waveform(path)
        assert err.value.field == "waveform"

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        write_waveform(path, np.ones((2, 5), dtype=complex))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError) as err:
            read_waveform(path)
        assert err.value.field == "waveform"

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        write_waveform(path, np.ones((2, 5), dtype=complex))
        path.write_bytes(path.read_bytes() + b"\0" * 16)
        with pytest.raises(ConfigError) as err:
            read_waveform(path)
        assert err.value.field == "waveform"
