"""End-to-end runs through the command-line entry points."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specprecode
from specprecode import (NumericalError, PsdAccumulator, ScenarioConfig, SpectralKernel,
                         admm_precode, baselines, build_kernel, constrained, generate_qam_block,
                         kernel_psd_prediction, oobe_power, read_waveform, run_scenario, runner,
                         signal_model, synthesize_time_signal, unconstrained, write_waveform)
from specprecode.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, compare_main, main
from specprecode.config import DEFAULT_SCENARIO, PRECODERS
from specprecode.metrics import _row_products, _to_db

SMALL_SCENARIO = {
    "numerology": {"fft_size": 64, "cp_len": 4, "scs_hz": 15_000.0,
                   "n_active": 24, "first_offset": -12, "prb_size": 4},
    "frequencies_hz": [-210_750.0, -199_500.0, 199_500.0, 210_750.0],
    "mask_db_per_100khz": [-75.0, -65.0, -65.0, -75.0],
    "n_tx": 2,
    "constellation": "QPSK",
    "seed": 3,
    "symbols": 4,
    "aclr": {"bw_hz": 300_000.0, "spacing_hz": 500_000.0},
}


def write_scenario(tmp_path, name="scenario.json", **overrides):
    data = json.loads(json.dumps(SMALL_SCENARIO))
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("base")
    cfg_path = write_scenario(tmp)
    out_dir = tmp / "out"
    code = main(["--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    return out_dir


class TestMain:
    def test_print_config(self, capsys):
        assert main(["--print-config"]) == EXIT_OK
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["numerology"]["fft_size"] == 512
        assert resolved["precoder"] == "ssp"

    def test_outputs_written(self, base_run):
        for name in ("trace.csv", "evm.csv", "psd.csv", "summary.csv",
                     "config_resolved.json", "manifest.json"):
            assert (base_run / name).exists()

    def test_summary_line_printed(self, tmp_path, capsys):
        cfg_path = write_scenario(tmp_path)
        code = main(["--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("precoder=ssp symbols=4 evm=")
        assert "aclr_worst=" in line and "mask_ratio_max=" in line

    def test_manifest_digests_match_files(self, base_run):
        manifest = json.loads((base_run / "manifest.json").read_text())
        assert manifest["precoder"] == "ssp"
        assert manifest["outputs"]
        for name, digest in manifest["outputs"].items():
            assert sha256(base_run / name) == digest

    def test_manifest_timings(self, base_run):
        # bench/child.py reads generate, precode, metrics and total; psd
        # (the oversampled synthesis and the periodogram) is a part of metrics
        timings = json.loads((base_run / "manifest.json").read_text())["timings_s"]
        assert set(timings) == {"generate", "precode", "metrics", "psd", "io", "total"}
        assert 0 < timings["psd"] <= timings["metrics"] <= timings["total"]

    def test_trace_and_summary_headers(self, base_run):
        header, rows = read_csv(base_run / "trace.csv")
        assert header == ["iter", "symbols", "evm_rms",
                          "oobe_db_p1", "oobe_db_p2", "oobe_db_p3", "oobe_db_p4",
                          "primal_residual", "dual_residual"]
        assert len(rows) == 3 and rows[0][1] == "4"    # 3 sweeps, 4 symbols
        header, rows = read_csv(base_run / "summary.csv")
        for key in ("precoder", "evm_wideband_rms", "aclr_worst_db",
                    "mask_ratio_max", "oobe_db_p4", "psd_probe_db_p4"):
            assert key in header
        assert len(rows) == 1

    def test_evm_csv_covers_active_band(self, base_run):
        header, rows = read_csv(base_run / "evm.csv")
        assert header == ["subcarrier_offset", "evm_rms"]
        assert [int(r[0]) for r in rows] == list(range(-12, 12))

    @pytest.mark.parametrize("precoder", ["ssp", "admm", "nsp", "essp"])
    def test_evm_csv_budget_is_the_applied_one(self, tmp_path, precoder):
        # a frequency-selective evm block that only ESSP applies: the
        # budget column reports it there and nowhere else
        profile = [0.2, 0.1, 0.08, 0.08, 0.1, 0.2]
        cfg = ScenarioConfig.from_dict(dict(
            SMALL_SCENARIO, **SHORT_SCHEDULES, precoder=precoder,
            evm={"mode": "frequency_selective", "profile_per_prb": profile}))
        run_scenario(cfg, tmp_path)
        header, rows = read_csv(tmp_path / "evm.csv")
        if precoder == "essp":
            assert header == ["subcarrier_offset", "evm_rms", "budget"]
            assert [float(r[2]) for r in rows] == cfg.evm_constraint().eps.tolist()
        else:
            assert header == ["subcarrier_offset", "evm_rms"]

    def test_reruns_are_byte_stable(self, tmp_path):
        cfg_path = write_scenario(tmp_path)
        digests = []
        for d in ("a", "b"):
            out = tmp_path / d
            assert main(["--config", str(cfg_path),
                         "--out-dir", str(out)]) == EXIT_OK
            digests.append({n: sha256(out / n) for n in
                            ("trace.csv", "evm.csv", "psd.csv", "summary.csv")})
        assert digests[0] == digests[1]

    def test_emit_waveforms_round_trip(self, tmp_path):
        cfg_path = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out-dir", str(out),
                     "--emit-waveforms"]) == EXIT_OK
        samples = read_waveform(out / "waveform.bin")
        assert samples.shape == (2, 4 * (64 + 4))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"]["waveform.bin"] == sha256(out / "waveform.bin")

    def test_none_precoder_leaves_grid_alone(self, tmp_path):
        cfg_path = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out-dir", str(out),
                     "--precoder", "none"]) == EXIT_OK
        header, rows = read_csv(out / "summary.csv")
        summary = dict(zip(header, rows[0]))
        assert float(summary["evm_wideband_rms"]) == 0.0

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["--config", str(path)]) == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = write_scenario(tmp_path, carrier="n78")
        assert main(["--config", str(path)]) == EXIT_CONFIG
        assert "unknown configuration key" in capsys.readouterr().err

    @pytest.mark.parametrize("block,key", [("essp", "tau"), ("essp", "relaxation"),
                                           ("ssp", "clamp_nonneg")])
    def test_removed_solver_key_rejected(self, tmp_path, capsys, block, key):
        path = write_scenario(tmp_path, **{block: {key: 1.0}})
        assert main(["--config", str(path)]) == EXIT_CONFIG
        assert f"{block}.{key}: unknown configuration key" in capsys.readouterr().err

    def test_removed_psd_bin_key_rejected(self, tmp_path, capsys):
        # the PSD's bins are the 100 kHz that the mask is stated per
        path = write_scenario(tmp_path, psd={"bin_hz": 100_000.0})
        assert main(["--config", str(path)]) == EXIT_CONFIG
        assert "psd.bin_hz: unknown configuration key" in capsys.readouterr().err

    def test_bad_override_rejected(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        assert main(["--config", str(path), "--symbols", "0"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


class TestRejectedSettings:
    """Settings that no run can use exit 2 before any output is written."""

    # a bound that overflows to inf is the mask's range error alone, with no
    # numpy warning before it; a precoder without a budget names the scenario
    # key's range, not a budget
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("overrides,field,reason", [
        ({"aclr": {"bw_hz": 0.0, "spacing_hz": 500_000.0}}, "aclr.bw_hz", ""),
        ({"aclr": {"bw_hz": NAN, "spacing_hz": 500_000.0}}, "aclr.bw_hz", ""),
        ({"aclr": {"bw_hz": 300_000.0, "spacing_hz": -1.0}}, "aclr.spacing_hz", ""),
        ({"aclr": {"bw_hz": 300_000.0, "spacing_hz": NAN}}, "aclr.spacing_hz", ""),
        # narrower than the spacing's last bit: the adjacent bands are empty
        ({"aclr": {"bw_hz": 1e-300, "spacing_hz": 500_000.0}}, "aclr.bw_hz",
         "rounds to an empty adjacent band"),
        ({"frequencies_hz": [-210_750.0, NAN, 199_500.0, 210_750.0]}, "frequencies", ""),
        ({"mask_db_per_100khz": [-75.0, 4096.0, -65.0, -75.0]}, "mask.gamma", ""),
        ({"precoder": "essp", "evm": {"eps_avg_fraction": NAN}}, "evm.eps_avg_fraction", ""),
        ({"precoder": "ensp", "evm": {"eps_avg_fraction": INF}}, "evm.eps_avg_fraction", ""),
        # a precoder without a budget checks the evm block as well
        ({"precoder": "ssp", "evm": {"eps_avg_fraction": NAN}}, "evm.eps_avg_fraction",
         "must be a finite fraction >= 0"),
        ({"precoder": "ssp", "evm": {"eps_avg_fraction": -3.0}}, "evm.eps_avg_fraction",
         "must be a finite fraction >= 0"),
        ({"precoder": "ssp", "evm": {"eps_avg_fraction": INF}}, "evm.eps_avg_fraction",
         "must be a finite fraction >= 0"),
        ({"precoder": "eadmm", "evm": {"mode": "frequency_selective",
                                       "profile_per_prb": [NAN] * 6}},
         "evm.profile_per_prb[0]", ""),
        ({"frequencies_hz": [-210_750.0, -199_500.0, "199500", 210_750.0]},
         "frequencies_hz[2]", ""),
        ({"mask_db_per_100khz": [-75.0, "-65", -65.0, -75.0]}, "mask_db_per_100khz[1]", ""),
        ({"numerology": dict(SMALL_SCENARIO["numerology"], scs_hz=INF)}, "numerology.scs_hz",
         ""),
        ({"seed": 2 ** 128}, "seed", ""),
        ({"precoder": "admm", "admm": {"rho": INF}}, "admm.rho", ""),
        ({"precoder": "eadmm", "eadmm": {"residual_tol": NAN}}, "eadmm.residual_tol", ""),
        ({"precoder": "eadmm", "eadmm": {"rho": INF}}, "eadmm.rho", ""),
        ({"precoder": "eadmm", "eadmm": {"iters": 0}}, "eadmm.iters", ""),
        ({"precoder": "eadmm", "evm": {"eps_avg_fraction": -0.1}}, "evm.eps_avg_fraction", ""),
    ])
    def test_exit_code_and_no_output(self, tmp_path, capsys, overrides, field, reason):
        path = write_scenario(tmp_path, **overrides)
        out_dir = tmp_path / "out"
        code = main(["--config", str(path), "--out-dir", str(out_dir), "--emit-waveforms"])
        assert code == EXIT_CONFIG
        assert f"error: {field}: {reason}" in capsys.readouterr().err
        assert not out_dir.exists()


def _setting_paths(tree, path=()):
    """The path of every key of tree and of every entry of its lists."""
    for key, val in tree.items():
        yield path + (key,)
        if isinstance(val, dict):
            yield from _setting_paths(val, path + (key,))
        elif isinstance(val, list):
            yield from (path + (key, i) for i in range(len(val)))


# The values a mutated setting takes: non-finite, null, boolean, huge,
# tiny and negative numbers, strings and lists.
_ODD_VALUES = st.one_of(
    st.sampled_from([NAN, INF, -INF, None, True, False, 4096.0, 1e9, 1e300, 2.0 ** 62,
                     1e-300, 5e-324, -1, -1.0, -1e9, -1e300, -2 ** 62]),
    st.text(max_size=4),
    st.lists(st.floats(-10.0, 10.0), max_size=3))


class TestExitCodeContract:
    """Whatever a scenario holds, a run exits 0, 2 or 3, raises nothing,
    warns nothing, and leaves no output directory unless it exits 0."""

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([name for name in PRECODERS if name != "oracle"]),
           st.integers(1, 3),
           st.lists(st.tuples(st.sampled_from(list(_setting_paths(DEFAULT_SCENARIO))),
                              _ODD_VALUES),
                    min_size=1, max_size=3, unique_by=lambda change: change[0][0]))
    @example("ssp", 1, [(("mask_db_per_100khz", 1), 4096.0)])
    @example("ssp", 1, [(("aclr", "bw_hz"), 1e-300)])
    @example("eadmm", 2, [(("numerology", "scs_hz"), 1e300)])
    @example("ssp", 1, [(("numerology", "n_active"), 2 ** 62)])
    @example("ssp", 1, [(("numerology", "fft_size"), 2 ** 62)])
    @example("ssp", 1, [(("n_tx",), 2 ** 62)])
    @example("ssp", 1, [(("psd", "oversample"), 2 ** 62)])
    def test_mutated_default_scenario(self, precoder, symbols, changes):
        data = json.loads(json.dumps(DEFAULT_SCENARIO))
        data.update(precoder=precoder, symbols=symbols)
        for path, value in changes:          # no two share a top-level key
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            scenario = Path(tmp) / "scenario.json"
            scenario.write_text(json.dumps(data))
            out_dir = Path(tmp) / "new" / "out"
            code = main(["--config", str(scenario), "--out-dir", str(out_dir)])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
            assert code == EXIT_OK or not (Path(tmp) / "new").exists()


class TestFailedRunDirectory:
    """A run that raises removes the output directory it made, while it is
    empty, and leaves one that was there before."""

    # equal points give the notch linearly dependent leakage rows, which
    # the first block raises after the directory is made
    TWIN_POINTS = {"precoder": "ensp",
                   "frequencies_hz": [-210_750.0, -210_750.0, 199_500.0, 210_750.0]}

    def test_cli_exit_code_and_no_directory(self, tmp_path, capsys):
        path = write_scenario(tmp_path, **self.TWIN_POINTS)
        out_dir = tmp_path / "new" / "out"
        code = main(["--config", str(path), "--out-dir", str(out_dir), "--emit-waveforms"])
        assert code == EXIT_CONFIG
        assert "leakage rows are linearly dependent" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_an_existing_directory_stays(self, tmp_path):
        cfg = ScenarioConfig.from_dict(dict(SMALL_SCENARIO, **self.TWIN_POINTS))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        with pytest.raises(specprecode.ConfigError, match="linearly dependent"):
            run_scenario(cfg, out_dir)
        assert out_dir.is_dir() and not any(out_dir.iterdir())
        # a directory the run made inside a parent that holds a file goes,
        # the parent stays
        (out_dir / "keep").write_text("")
        with pytest.raises(specprecode.ConfigError, match="linearly dependent"):
            run_scenario(cfg, out_dir / "a" / "b")
        assert sorted(p.name for p in out_dir.iterdir()) == ["keep"]


class TestNonFiniteGrid:
    def test_config_exit_code(self, tmp_path, monkeypatch, capsys):
        real = runner.generate_qam_block

        def poisoned(*args, **kwargs):
            grid = real(*args, **kwargs)
            sym = grid.symbols.copy()
            sym[0, 0, grid.numerology.active_bins[0]] = np.inf
            return grid.with_symbols(sym)

        monkeypatch.setattr(runner, "generate_qam_block", poisoned)
        cfg_path = write_scenario(tmp_path, precoder="eadmm")
        code = main(["--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "non-finite" in capsys.readouterr().err


class TestSolverErrorExitCodes:
    def test_nonpositive_mask_bound_is_a_config_error(self, tmp_path, capsys):
        # -inf dB is a zero bound, +inf dB an infinite one
        for precoder in ("ssp", "admm"):
            for level in (-float("inf"), float("nan"), float("inf")):
                cfg_path = write_scenario(tmp_path, precoder=precoder,
                                          mask_db_per_100khz=[-75.0, level, -65.0, -75.0])
                code = main(["--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
                assert code == EXIT_CONFIG
                assert "mask bounds must be positive and finite" in capsys.readouterr().err

    def test_unresolvable_mask_is_a_numerical_failure(self, tmp_path, capsys):
        # a -400 dB bound asks SSP's dual core for more than it resolves
        # in floating point, and the core reports it
        cfg_path = write_scenario(tmp_path, precoder="ssp", mask_db_per_100khz=[-400.0] * 4)
        code = main(["--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err


class TestDegenerateKernel:
    @pytest.mark.parametrize("precoder", ["admm", "ssp", "eadmm", "essp"])
    def test_config_exit_code(self, tmp_path, monkeypatch, capsys, precoder):
        def vanishing_row(numerology, freq_grid):
            kernel = build_kernel(numerology, freq_grid)
            matrix = kernel.matrix.copy()
            matrix[1, numerology.active_bins] = 0.0
            return SpectralKernel(matrix=matrix, freq_grid=kernel.freq_grid,
                                  numerology=numerology)

        monkeypatch.setattr(runner, "build_kernel", vanishing_row)
        cfg_path = write_scenario(tmp_path, precoder=precoder)
        code = main(["--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "a kernel row vanishes on the active band" in capsys.readouterr().err


# Short schedules for the iterative precoders; ESSP runs every outer
# iteration, so each one's trace.csv has exactly TRACE_ROWS rows.
SHORT_SCHEDULES = {"admm": {"iters": 5}, "ssp": {"sweeps": 2}, "eadmm": {"iters": 4},
                   "essp": {"outer_iters": 3, "early_stop": False}}
TRACE_ROWS = {"admm": 5, "ssp": 2, "eadmm": 4, "essp": 3}


class TestEveryPrecoder:
    """run_scenario over every configurable precoder on a 64-point grid."""

    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_trace_summary_and_rerun(self, tmp_path, precoder):
        data = json.loads(json.dumps(SMALL_SCENARIO))
        data.update(SHORT_SCHEDULES, precoder=precoder)
        cfg = ScenarioConfig.from_dict(data)
        runs = [tmp_path / "a", tmp_path / "b"]
        for out_dir in runs:
            run_scenario(cfg, out_dir)

        _, trace = read_csv(runs[0] / "trace.csv")
        assert len(trace) == TRACE_ROWS.get(precoder, 1)

        kernel = build_kernel(cfg.numerology, cfg.freq_grid)
        evm_c = cfg.evm_constraint()
        total = 0.0
        for s in range(cfg.symbols):
            grid = generate_qam_block(cfg.seed, cfg.numerology, cfg.n_tx, cfg.constellation,
                                      s, 1)
            out, _, _ = runner.PRECODER_TABLE[precoder].run(cfg, grid, kernel, evm_c)
            total = total + oobe_power(out[0], kernel).max(axis=1)
        header, rows = read_csv(runs[0] / "summary.csv")
        summary = dict(zip(header, rows[0]))
        got = [float(summary[f"oobe_db_p{m + 1}"]) for m in range(cfg.freq_grid.size)]
        expect = 10.0 * np.log10(np.maximum(total / cfg.symbols, 1e-30))
        assert got == pytest.approx(expect, rel=1e-11, abs=1e-11)

        for name in ("trace.csv", "evm.csv", "psd.csv", "summary.csv",
                     "config_resolved.json"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()

    @pytest.mark.parametrize("precoder", PRECODERS)
    def test_blocks_are_checked_once(self, tmp_path, monkeypatch, precoder):
        # the runner's DataGrid checks every block for non-finite values and
        # MaskSpec the mask bounds; only the public *_precode functions
        # check their input again
        def second_check(*args):
            raise AssertionError("a precoder body checked its input again")

        for module in (unconstrained, constrained, baselines):
            monkeypatch.setattr(module, "_as_block", second_check)
        for module in (unconstrained, constrained):
            monkeypatch.setattr(module, "mask_bounds", second_check)
        data = json.loads(json.dumps(SMALL_SCENARIO))
        data.update(SHORT_SCHEDULES, precoder=precoder, symbols=2)
        run_scenario(ScenarioConfig.from_dict(data), tmp_path)
        with pytest.raises(AssertionError, match="checked its input again"):
            admm_precode(np.ones(64, dtype=complex), None, None)


DATA_FILES = ("trace.csv", "evm.csv", "psd.csv", "summary.csv", "config_resolved.json",
              "waveform.bin")


# Per precoder: the scenario and symbol count of the block-size check.
# ADMM and EADMM stop on residual_tol and ESSP early (on the 512-point
# reference scenario only), different symbols at different iterations; the
# slow oracle gets one partial block.
BLOCK_CASES = {
    "admm": {"admm": {"iters": 90, "residual_tol": 0.1}},
    "eadmm": {"eadmm": {"iters": 80, "residual_tol": 0.01},
              "evm": {"mode": "wideband", "eps_avg_fraction": 0.5}},
    "essp": None,
    "oracle": {"symbols": 5},
}


class TestBlockPipeline:
    """run_scenario one symbol per block against the default block size."""

    @pytest.mark.parametrize("precoder, n_tx", [
        pytest.param(p, n, id=p if n == 2 else f"{p}-1tx") for p in PRECODERS for n in (2, 1)])
    def test_data_files_do_not_depend_on_block_size(self, tmp_path, monkeypatch, precoder,
                                                     n_tx):
        overrides = BLOCK_CASES.get(precoder, {})
        data = {} if overrides is None else json.loads(json.dumps(SMALL_SCENARIO))
        # a symbol count that the default block does not divide; with one
        # antenna every symbol is a lone row
        data.update(precoder=precoder, symbols=runner.BLOCK_SYMBOLS + 5, emit_waveforms=True,
                    n_tx=n_tx)
        data.update(overrides or {})
        cfg = ScenarioConfig.from_dict(data)
        run_scenario(cfg, tmp_path / "block")
        monkeypatch.setattr(runner, "BLOCK_SYMBOLS", 1)
        run_scenario(cfg, tmp_path / "single")
        _, trace = read_csv(tmp_path / "block" / "trace.csv")
        if precoder in ("admm", "eadmm", "essp"):
            assert len({row[1] for row in trace}) >= 3     # stops at several iterations
        for name in DATA_FILES:
            assert ((tmp_path / "block" / name).read_bytes()
                    == (tmp_path / "single" / name).read_bytes()), name


class TestKernelMemo:
    """build_kernel memoizes a run's set-up by value: the solver kernel and
    the frame kernel of its probe densities, and what a run derives from
    them."""

    @staticmethod
    def counted(monkeypatch, name):
        """The calls to signal_model.<name>, counted from an empty memo."""
        calls = []
        func = getattr(signal_model, name)
        monkeypatch.setattr(signal_model, name, lambda *args: calls.append(1) or func(*args))
        build_kernel.cache_clear()
        return calls

    def test_one_numerology_builds_one_solver_and_one_frame_kernel(self, tmp_path,
                                                                   monkeypatch):
        calls = self.counted(monkeypatch, "_kernel_matrix")
        for seed in (3, 4):
            run_scenario(ScenarioConfig.from_dict(dict(SMALL_SCENARIO, seed=seed)),
                         tmp_path / str(seed))
        assert len(calls) == 2

    @pytest.mark.parametrize("change, kernels", [
        ({"numerology": dict(SMALL_SCENARIO["numerology"], cp_len=6)}, 4),
        ({"frequencies_hz": [-211_500.0, -199_500.0, 199_500.0, 210_750.0]}, 4),
        ({"psd": {"oversample": 8}}, 3),
    ])
    def test_a_changed_setup_builds_its_own(self, tmp_path, monkeypatch, change, kernels):
        calls = self.counted(monkeypatch, "_kernel_matrix")
        for name, data in (("base", SMALL_SCENARIO), ("changed", dict(SMALL_SCENARIO, **change)),
                           ("again", dict(SMALL_SCENARIO, seed=4))):
            run_scenario(ScenarioConfig.from_dict(data), tmp_path / name)
        assert len(calls) == kernels

    @pytest.mark.parametrize("precoder", ["ssp", "essp"])
    def test_a_cold_run_writes_the_files_of_a_warm_run(self, tmp_path, precoder):
        cfg = ScenarioConfig.from_dict(dict(SMALL_SCENARIO, precoder=precoder,
                                            emit_waveforms=True))
        run_scenario(cfg, tmp_path / "first")
        run_scenario(cfg, tmp_path / "warm")
        build_kernel.cache_clear()
        run_scenario(cfg, tmp_path / "cold")
        for name in DATA_FILES:
            assert ((tmp_path / "warm" / name).read_bytes()
                    == (tmp_path / "cold" / name).read_bytes()), name


class TestTraceValues:
    """trace.csv cells recomputed from the precoder's own per-symbol results."""

    def run(self, tmp_path, precoder, **overrides):
        data = json.loads(json.dumps(SMALL_SCENARIO))
        data.update(precoder=precoder, symbols=12, **overrides)
        cfg = ScenarioConfig.from_dict(data)
        run_scenario(cfg, tmp_path)
        kernel = build_kernel(cfg.numerology, cfg.freq_grid)
        grid = generate_qam_block(cfg.seed, cfg.numerology, cfg.n_tx, cfg.constellation,
                                  0, cfg.symbols)
        _, rows = read_csv(tmp_path / "trace.csv")
        return cfg, [[float(v) for v in row] for row in rows], grid, kernel

    def test_symbols_that_stop_at_different_iterations(self, tmp_path):
        cfg, rows, grid, kernel = self.run(tmp_path, "admm", **BLOCK_CASES["admm"])
        _, reports = admm_precode(grid.symbols, kernel, cfg.mask, cfg.admm)
        iterations = [r.iterations for r in reports]
        assert len(set(iterations)) >= 2
        assert len(rows) == max(iterations)
        for i, row in enumerate(rows):
            reached = [r for r in reports if r.iterations > i]
            expect = [i + 1, len(reached),
                      np.sqrt(np.mean([r.evm_trace[i] ** 2 for r in reached]))]
            expect += list(10.0 * np.log10(np.mean([r.oob_trace[i] for r in reached], axis=0)))
            expect += [np.mean([r.primal_trace[i] for r in reached]),
                       np.mean([r.dual_trace[i] for r in reached])]
            assert row == pytest.approx(expect, rel=1e-11)

    def test_precoder_without_iterations_writes_one_row(self, tmp_path):
        cfg, rows, grid, kernel = self.run(tmp_path, "ensp")
        out, reports, _ = runner.PRECODER_TABLE["ensp"].run(cfg, grid, kernel,
                                                            cfg.evm_constraint())
        assert reports is None
        err = np.sum(np.abs(out - grid.symbols) ** 2, axis=(1, 2))
        ref = np.sum(np.abs(grid.symbols) ** 2, axis=(1, 2))
        leak = np.mean(oobe_power(out, kernel).max(axis=2), axis=0)
        assert len(rows) == 1
        assert rows[0][:3] == pytest.approx([1, cfg.symbols, np.sqrt(np.mean(err / ref))],
                                            rel=1e-11)
        assert rows[0][3:-2] == pytest.approx(10.0 * np.log10(leak), rel=1e-11)
        assert rows[0][-2:] == [0.0, 0.0]


class TestRunRecord:
    """_RunRecord.add on whole blocks against a symbol-by-symbol add."""

    # The parts of the record's one per-symbol sum, in their order.
    PARTS = ("leak", "probe", "err_cols", "ref_cols", "err", "ref")

    @staticmethod
    def add_by_symbol(sums, grid, out, reports, pow_pts, bins, record):
        """The run record's sums, added one symbol at a time in order; the
        error and reference power are those of the active band, its bins
        in ascending order (``bins``), per bin and over each symbol, and
        the probe densities are each symbol's band against the record's
        frame kernel, times L over f_s * segment."""
        frame = record.frame_kernel.numerology
        scale = record.cfg.psd_oversample / (frame.sample_rate_hz * frame.symbol_len)
        per_point = np.max(pow_pts, axis=2)
        err = np.abs(out.symbols[..., bins] - grid.symbols[..., bins]) ** 2
        ref = np.abs(grid.symbols[..., bins]) ** 2
        err_sym, ref_sym = np.sum(err, axis=(1, 2)), np.sum(ref, axis=(1, 2))
        err_cols, ref_cols = np.sum(err, axis=1), np.sum(ref, axis=1)
        if reports is None:
            evm = np.sqrt(err_sym / ref_sym)
            rows = [np.concatenate(([1.0, e ** 2], p, [0.0, 0.0]))[None]
                    for e, p in zip(evm, per_point)]
        else:
            rows = [np.column_stack((np.ones(r.iterations), r.evm_trace ** 2, r.oob_trace,
                                     r.primal_trace, r.dual_trace)) for r in reports]
        for s, row in enumerate(rows):
            if len(row) > len(sums["trace"]):
                sums["trace"] = np.pad(sums["trace"],
                                       ((0, len(row) - len(sums["trace"])), (0, 0)))
            sums["trace"][:len(row)] += row
            sums["leak"] += per_point[s]
            sums["err_cols"] += err_cols[s]
            sums["ref_cols"] += ref_cols[s]
            sums["err"] += float(err_sym[s])
            sums["ref"] += float(ref_sym[s])
            proj = _row_products(out.symbols[s][..., bins], record.frame_kernel.band_rows.T)
            sums["probe"] += np.sum(np.abs(proj) ** 2, axis=0) * scale

    @pytest.mark.parametrize("precoder", ["admm", "ensp"])
    def test_block_add_has_the_bits_of_symbol_by_symbol_adds(self, precoder):
        data = json.loads(json.dumps(SMALL_SCENARIO))
        data.update(precoder=precoder, **BLOCK_CASES.get(precoder, {}))
        cfg = ScenarioConfig.from_dict(data)
        kernel = build_kernel(cfg.numerology, cfg.freq_grid)
        budget = cfg.evm_constraint()
        record = runner._RunRecord(cfg, budget, kernel)
        assert record.frame_kernel is build_kernel(
            cfg.numerology.oversampled(cfg.psd_oversample), cfg.freq_grid)
        sums = {"trace": np.zeros((0, cfg.freq_grid.size + 4)),
                "leak": np.zeros(cfg.freq_grid.size), "probe": np.zeros(cfg.freq_grid.size),
                "err": 0.0, "ref": 0.0,
                "err_cols": np.zeros(cfg.numerology.n_active),
                "ref_cols": np.zeros(cfg.numerology.n_active)}
        # two blocks, so the second adds onto running totals
        for first in (0, 12):
            grid = generate_qam_block(cfg.seed, cfg.numerology, cfg.n_tx, cfg.constellation,
                                      first, 12)
            if precoder == "admm":
                vals, reports = admm_precode(grid.symbols, kernel, cfg.mask, cfg.admm)
                assert len({r.iterations for r in reports}) >= 2
            else:
                vals, reports, _ = runner.PRECODER_TABLE[precoder].run(cfg, grid, kernel, budget)
            out = grid.with_symbols(vals)
            pow_pts = oobe_power(out, kernel)
            block_vals, traces, extras = runner.PRECODER_TABLE[precoder].run(
                cfg, grid, kernel, budget)
            assert np.array_equal(block_vals, vals)
            bins = cfg.numerology.band_bins
            record.add(grid.symbols[..., bins], out.symbols[..., bins], traces, extras)
            self.add_by_symbol(sums, grid, out, reports, pow_pts, bins, record)
        assert np.array_equal(record.trace, sums["trace"])
        # the one sum's slices, in the order of PARTS
        size, n_active = cfg.freq_grid.size, cfg.numerology.n_active
        parts = np.split(record.sums, np.cumsum([size, size, n_active, n_active, 1]))
        for name, part in zip(self.PARTS, parts, strict=True):
            assert np.array_equal(part, np.atleast_1d(sums[name])), name


class TestProbeDensities:
    """The run's psd_probe_db_p* against the exact-frequency periodogram of
    PsdAccumulator on the synthesized output, an independent path: the
    run takes them from the frame kernel on the active band."""

    @pytest.mark.parametrize("precoder, n_tx", [
        pytest.param(p, n, id=p if n == 2 else f"{p}-1tx")
        for p in ("none", "ssp", "essp") for n in (2, 1)])
    def test_run_probes_match_the_time_domain_probes(self, tmp_path, precoder, n_tx):
        cfg = ScenarioConfig.from_dict({"precoder": precoder, "symbols": 4, "n_tx": n_tx})
        manifest = run_scenario(cfg, tmp_path)
        kernel = build_kernel(cfg.numerology, cfg.freq_grid)
        grid = generate_qam_block(cfg.seed, cfg.numerology, cfg.n_tx, cfg.constellation,
                                  0, cfg.symbols)
        vals, _, _ = runner.PRECODER_TABLE[precoder].run(cfg, grid, kernel, cfg.evm_constraint())
        psd_cfg = cfg.psd_config()
        acc = PsdAccumulator(cfg.numerology, psd_cfg,
                             probe_freqs_hz=cfg.freq_grid.to_hz(cfg.numerology.scs_hz))
        acc.add(synthesize_time_signal(grid.with_symbols(vals), oversample=cfg.psd_oversample))
        run = np.array([manifest["metrics"][f"psd_probe_db_p{m + 1}"]
                        for m in range(cfg.freq_grid.size)])
        linear = 10.0 ** ((run - psd_cfg.ref_db) / 10.0) * psd_cfg.ref_density
        assert linear == pytest.approx(acc.probe_density(), rel=1e-9, abs=0)

    @pytest.mark.parametrize("precoder", ["none", "ssp", "essp", "ensp"])
    def test_run_probes_are_the_kernel_prediction_of_its_outputs(self, tmp_path, precoder):
        # 40 symbols, so the run's second block is a short one; the
        # prediction over the same outputs has the run's bits
        cfg = ScenarioConfig.from_dict({"precoder": precoder, "symbols": 40})
        manifest = run_scenario(cfg, tmp_path)
        kernel = build_kernel(cfg.numerology, cfg.freq_grid)
        outputs = []
        for first in range(0, cfg.symbols, runner.BLOCK_SYMBOLS):
            grid = generate_qam_block(cfg.seed, cfg.numerology, cfg.n_tx, cfg.constellation,
                                      first, min(runner.BLOCK_SYMBOLS, cfg.symbols - first))
            vals, _, _ = runner.PRECODER_TABLE[precoder].run(cfg, grid, kernel,
                                                             cfg.evm_constraint())
            outputs.append(grid.with_symbols(vals))
        assert [len(out.symbols) for out in outputs] == [32, 8]
        psd_cfg = cfg.psd_config()
        predicted = kernel_psd_prediction(outputs, cfg.numerology, cfg.psd_oversample,
                                          cfg.freq_grid.to_hz(cfg.numerology.scs_hz))
        expect = psd_cfg.ref_db + _to_db(predicted / psd_cfg.ref_density)
        run = [manifest["metrics"][f"psd_probe_db_p{m + 1}"] for m in range(cfg.freq_grid.size)]
        assert run == expect.tolist()


class TestCsvTables:
    """runner._write_csv formats a table in one pass into the bytes that
    csv.writer writes for its cells formatted as "%.12g" or str."""

    @staticmethod
    def csv_module_bytes(header, rows):
        """The table as csv.writer writes it, each cell formatted as
        "%.12g" for a float and str otherwise."""
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        for row in (header, *rows):
            writer.writerow([format(float(v), ".12g") if isinstance(v, (float, np.floating))
                             else str(v) for v in row])
        return buf.getvalue().encode("utf-8")

    def test_bytes_match_the_csv_module(self, tmp_path):
        header = ["iter", "precoder", "evm_rms", "oobe_db_p1"]
        rows = [[1, "eadmm", 0.0123456789012345, -71.25],
                [np.int64(2), np.int32(-3), np.float64(1.5e-300), np.float32(0.1)],
                [3, 12345678901234567890, 6.02214076e23, -0.0],
                [4, np.inf, -np.inf, np.nan],
                [True, np.bool_(False), None, 2.5e-7],
                *zip(np.arange(-3, 3).tolist(), np.linspace(-1e-5, 1e15, 6)),
                *zip(np.arange(3), np.geomspace(1e-9, 1e9, 3), np.array([0.5, -0.0, 7.0])),
                ["a,b", 'say "x"', "two\nlines", "cr\r"], [""], [], ["", ""]]
        files = {}
        runner._write_csv(tmp_path / "t.csv", header, rows, files)
        data = (tmp_path / "t.csv").read_bytes()
        assert data == self.csv_module_bytes(header, rows)
        assert files["t.csv"] == hashlib.sha256(data).hexdigest()

        # psd- and evm-shaped tables, given as columns: all-float columns
        # and an int offset column
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e300,
                            0.1, 1 / 3, 123456789012.5, -2.5e-7])
        rng = np.random.default_rng(7)
        tables = {
            "psd.csv": (["freq_hz", "density_db"],
                        [np.linspace(-3e7, 3e7, special.size), special]),
            "evm.csv": (["subcarrier_offset", "evm_rms", "budget"],
                        [np.arange(special.size) - 6, special[::-1],
                         rng.standard_normal(special.size) * 10.0 ** rng.integers(-300, 300,
                                                                                  special.size)]),
        }
        for name, (header, columns) in tables.items():
            runner._write_csv(tmp_path / name, header, None, files, columns=columns)
            data = (tmp_path / name).read_bytes()
            assert data == self.csv_module_bytes(header, zip(*[c.tolist() for c in columns]))
            assert files[name] == hashlib.sha256(data).hexdigest()

    def test_manifest_is_that_of_json_dump(self, tmp_path):
        cfg = ScenarioConfig.from_dict(dict(SMALL_SCENARIO, precoder="essp"))
        manifest = run_scenario(cfg, tmp_path)
        text = io.StringIO()
        json.dump(manifest, text, indent=2, sort_keys=True)
        text.write("\n")
        assert (tmp_path / "manifest.json").read_bytes() == text.getvalue().encode("utf-8")


class TestStreamedWaveform:
    """waveform.bin as run_scenario writes it, one block at a time."""

    @pytest.mark.parametrize("n_tx", [1, 3])
    def test_file_is_that_of_the_whole_run(self, tmp_path, n_tx):
        # a symbol count that the default block does not divide
        cfg = ScenarioConfig.from_dict(dict(SMALL_SCENARIO, precoder="ensp", n_tx=n_tx,
                                            symbols=runner.BLOCK_SYMBOLS + 5,
                                            emit_waveforms=True))
        manifest = run_scenario(cfg, tmp_path / "run")

        grid = generate_qam_block(cfg.seed, cfg.numerology, n_tx, cfg.constellation,
                                  0, cfg.symbols)
        kernel = build_kernel(cfg.numerology, cfg.freq_grid)
        out, _, _ = runner.PRECODER_TABLE["ensp"].run(cfg, grid, kernel, cfg.evm_constraint())
        write_waveform(tmp_path / "whole.bin",
                       synthesize_time_signal(grid.with_symbols(out), oversample=1))
        written = tmp_path / "run" / "waveform.bin"
        assert written.read_bytes() == (tmp_path / "whole.bin").read_bytes()
        assert manifest["outputs"]["waveform.bin"] == sha256(written)

    def test_failed_run_leaves_no_waveform(self, tmp_path, monkeypatch):
        notch = runner.PRECODER_TABLE["nsp"]
        calls = []

        def fails_on_second_block(cfg, block, kernel, budget):
            calls.append(len(block.symbols))
            if len(calls) == 2:
                raise NumericalError("second block")
            return notch.run(cfg, block, kernel, budget)

        monkeypatch.setitem(runner.PRECODER_TABLE, "nsp", notch._replace(run=fails_on_second_block))
        cfg = ScenarioConfig.from_dict(dict(SMALL_SCENARIO, precoder="nsp",
                                            symbols=runner.BLOCK_SYMBOLS + 5,
                                            emit_waveforms=True))
        out = tmp_path / "out"
        with pytest.raises(NumericalError):
            run_scenario(cfg, out)
        assert len(calls) == 2
        # no partial waveform is left, so the directory the run made is gone
        assert not out.exists()

    def test_peak_memory_does_not_grow_with_the_run(self, tmp_path):
        def peak(symbols):
            cfg = ScenarioConfig.from_dict({"precoder": "ensp", "symbols": symbols,
                                            "emit_waveforms": True})
            tracemalloc.start()
            try:
                run_scenario(cfg, tmp_path / str(symbols))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)             # fills the caches that the first run of a scenario does
        # 576 more symbols would add 10 MB of waveform held in memory
        assert peak(640) - peak(64) < 2e6


class TestCompare:
    def run(self, tmp_path, name, **overrides):
        cfg_path = write_scenario(tmp_path, name=f"{name}.json", **overrides)
        out = tmp_path / name
        assert main(["--config", str(cfg_path),
                     "--out-dir", str(out)]) == EXIT_OK
        return out / "manifest.json"

    def test_table_against_baseline(self, tmp_path, capsys):
        base = self.run(tmp_path, "ssp")
        other = self.run(tmp_path, "none", precoder="none")
        capsys.readouterr()                       # drop the run banners
        assert compare_main([str(base), str(other),
                             "--out", str(tmp_path / "cmp.csv")]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("run")
        assert len(out) == 3
        header, rows = read_csv(tmp_path / "cmp.csv")
        assert rows[0][1] == "ssp" and rows[1][1] == "none"
        evm_col = header.index("delta_evm_wideband_rms")
        assert float(rows[0][evm_col]) == 0.0     # baseline deltas vanish
        assert float(rows[1][evm_col]) < 0.0      # none precoder has zero evm

    def test_mismatched_scenarios_rejected(self, tmp_path, capsys):
        base = self.run(tmp_path, "ssp")
        other = self.run(tmp_path, "reseeded", seed=4)
        assert compare_main([str(base), str(other)]) == EXIT_CONFIG
        assert "share the scenario" in capsys.readouterr().err

    def test_single_manifest_rejected(self, tmp_path, capsys):
        base = self.run(tmp_path, "ssp")
        assert compare_main([str(base)]) == EXIT_CONFIG
        assert "at least two" in capsys.readouterr().err


# Blocks SciPy, then resolves the default scenario, runs every precoder for
# two symbols and solves the oracle's epigraph problem on one 64-point grid
# in a fresh interpreter; any import of SciPy fails.  The probe's scale goes
# to stdout.
COLD_START = """
import json, sys
sys.modules["scipy"] = None
from specprecode import (EvmConstraint, ScenarioConfig, build_kernel, feasibility_probe,
                         generate_qam_grid, run_scenario)

out, small = sys.argv[1], json.loads(sys.argv[2])
ScenarioConfig.from_dict({})
for p in ("none", "ssp", "admm", "essp", "eadmm", "nsp", "ensp"):
    run_scenario(ScenarioConfig.from_dict({"precoder": p, "symbols": 2}), f"{out}/{p}")
cfg = ScenarioConfig.from_dict(dict(small, precoder="oracle", symbols=2))
run_scenario(cfg, f"{out}/oracle")
grid = generate_qam_grid(cfg.seed, cfg.numerology, cfg.n_tx, cfg.constellation, symbol_index=0)
probe = feasibility_probe(grid, build_kernel(cfg.numerology, cfg.freq_grid), cfg.mask,
                          EvmConstraint(mode="wideband", eps_avg=0.08))
print(probe.delta_t)
"""


class TestColdStart:
    def test_every_path_runs_without_scipy(self, tmp_path):
        src = str(Path(specprecode.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path),
                               json.dumps(SMALL_SCENARIO)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert 0 < float(proc.stdout.splitlines()[-1]) < np.inf
        for p in ("none", "ssp", "admm", "essp", "eadmm", "nsp", "ensp", "oracle"):
            assert (tmp_path / p / "summary.csv").is_file(), p
