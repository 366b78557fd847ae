"""End-to-end acceptance checks, one test per shipping criterion.

Each test measures its quantity directly against the public APIs and prints
one CRITERION line with the measured values before asserting, so a full run
documents every margin (and every shortfall) in a single place.  The heavy
reference scenario (2000 symbols) is computed once and shared by the
baseline-contrast and PSD-calibration checks.
"""

import time

import numpy as np
import pytest

from specprecode import (EsspConfig, EvmConstraint, FactoredInverse,
                         FrequencyGrid, LogBarrierProblem, MASK2_DB,
                         OfdmNumerology, OracleConfig, PsdAccumulator,
                         ScenarioConfig, SspConfig, aclr, admm_precode,
                         bisection_rank1_oracle, build_kernel, eadmm_precode,
                         ensp_precode, essp_precode, expand_evm_profile,
                         feasibility_probe, generate_qam_block, generate_qam_grid,
                         kernel_psd_prediction, logbarrier_solve, nsp_precode,
                         oobe_power, project_rank1, selective_edge_profile,
                         ssp_precode, synthesize_time_signal)

from conftest import active_rows


def _verdict(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _small_instance_numerology():
    return OfdmNumerology.centered(fft_size=32, cp_len=3, scs_hz=15e3,
                                   n_active=16, prb_size=4)


def _scenario(overrides=None):
    return ScenarioConfig.from_dict(dict(overrides or {}))


def _directed_oracle_gap_db(cfg, sweeps=3):
    """Per-point dB gap between the sweep precoder and the interior-point
    reference, on the run-aggregate leakage powers of the full scenario."""
    kernel = build_kernel(cfg.numerology, cfg.freq_grid)
    gamma = cfg.mask.gamma
    u = active_rows(kernel).conj()
    acc_ssp = np.zeros(gamma.size)
    acc_orc = np.zeros(gamma.size)
    for s in range(cfg.symbols):
        grid = generate_qam_grid(cfg.seed, cfg.numerology, cfg.n_tx,
                                 cfg.constellation, symbol_index=s)
        _, rep = ssp_precode(grid.symbols, kernel, cfg.mask,
                             SspConfig(sweeps=sweeps))
        acc_ssp += rep.oob_trace[-1]
        res = logbarrier_solve(LogBarrierProblem(
            objective="least_squares", reference=grid.symbols,
            rank1=[(u[m], float(gamma[m])) for m in range(gamma.size)]))
        sol = res.solution.reshape(grid.symbols.shape)
        acc_orc += (np.abs(np.einsum("mk,jk->mj",
                                     active_rows(kernel), sol)) ** 2).max(axis=1)
    return 10.0 * np.log10(acc_ssp / acc_orc)


def test_01_rank1_projection_certificates():
    """1000 random closed-form projections, three sizes: every output passes
    the variational-inequality certificate and matches the bisection
    reference, inside the time budget."""
    rng = np.random.default_rng(11)
    sizes = (4, 8, 64)
    worst_vi = 0.0
    worst_ref = 0.0
    t0 = time.perf_counter()
    for i in range(1000):
        n = sizes[i % 3]
        u = _random_complex(rng, n)
        x = _random_complex(rng, n) * 2.0
        b = rng.uniform(0.1, 2.0)
        if np.abs(np.vdot(u, x)) ** 2 <= b:
            x = x * (10.0 / max(np.abs(np.vdot(u, x)), 1e-6))
        p = project_rank1(x, u, b)

        unorm_sq = float(np.vdot(u, u).real)
        z = _random_complex(rng, 30, n)
        z -= np.outer((z @ u.conj()) / unorm_sq, u)
        radius = rng.uniform(0, 1, 30) * np.sqrt(b) / unorm_sq
        z += np.outer(radius * np.exp(2j * np.pi * rng.uniform(0, 1, 30)), u)
        lhs = np.real(np.sum(np.conj(x - p) * (z - p), axis=1))
        scale = np.linalg.norm(x) * np.linalg.norm(z - p, axis=1)
        worst_vi = max(worst_vi, float(np.max(lhs / np.maximum(scale, 1e-300))))

        ref = bisection_rank1_oracle(x, u, b)
        worst_ref = max(worst_ref,
                        float(np.linalg.norm(p - ref) / np.linalg.norm(x)))
    elapsed = time.perf_counter() - t0
    ok = worst_vi <= 1e-9 and worst_ref <= 1e-8 and elapsed < 5.0
    detail = (f"1000 projections (N in 4/8/64): VI certificate max {worst_vi:.1e}"
              f" (tol 1e-9), bisection mismatch max {worst_ref:.1e} (tol 1e-8),"
              f" {elapsed:.2f}s (limit 5s)")
    _verdict(1, ok, detail)
    assert ok, detail


def test_02_kernel_against_direct_sum():
    """Leakage rows match the direct (N + N_CP)-term geometric sum entrywise,
    small and large FFTs, with integer offsets hitting the removable
    singularity of the closed form."""
    rng = np.random.default_rng(12)
    worst = 0.0
    t0 = time.perf_counter()
    for fft_size, cp_len in ((8, 2), (512, 36)):
        pts = list(rng.uniform(-fft_size / 2 + 0.1, fft_size / 2 - 0.1, 12))
        pts += [1.0, 3.0, float(-(fft_size // 4))]
        pts = sorted(pts)
        num = OfdmNumerology.centered(fft_size=fft_size, cp_len=cp_len,
                                      scs_hz=15e3, n_active=fft_size // 2,
                                      prb_size=fft_size // 8)
        kern = build_kernel(num, FrequencyGrid(points=pts))

        n = np.arange(-cp_len, fft_size)
        k = np.arange(fft_size)
        delta = np.asarray(pts, dtype=float)[:, None] - k[None, :]
        direct = np.exp(-2j * np.pi * delta[..., None] * n / fft_size)
        direct = direct.sum(axis=-1) / np.sqrt(fft_size)

        scale = np.abs(direct).max()
        worst = max(worst, float(np.abs(kern.matrix - direct).max() / scale))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    detail = (f"N=8 and N=512 with integer points: entrywise gap {worst:.1e}"
              f" (tol 1e-12), {elapsed:.2f}s (limit 5s)")
    _verdict(2, ok, detail)
    assert ok, detail


def test_03_rank1_inverse_accumulation():
    """Rank-1 inverse factors reproduce the dense inverse of
    I + sum_m mu_m u_m u_m^H across 100 random multiplier draws."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        rows = _random_complex(rng, 8, 64)
        mu = rng.uniform(0.0, 5.0, 8)
        mu[rng.integers(0, 8)] = 0.0
        fi = FactoredInverse(64)
        for m in range(8):
            fi.push(rows[m], mu[m])
        dense = np.linalg.inv(np.eye(64) + (rows.T * mu) @ rows.conj())
        approx = np.column_stack([fi.apply(e) for e in np.eye(64)])
        worst = max(worst, float(np.abs(approx - dense).max()))
    ok = worst <= 1e-9
    detail = f"N=64, M=8, 100 draws: max-abs gap to dense inverse {worst:.1e} (tol 1e-9)"
    _verdict(3, ok, detail)
    assert ok, detail


def test_04_three_sweep_optimality():
    """Random small instances: the sweep precoder after 3 sweeps against the
    interior-point reference objective; plus the pinned full scenario, where
    run-aggregate leakage at every point must sit within 0.05 dB of the
    reference by sweep 3."""
    num = _small_instance_numerology()
    rng = np.random.default_rng(2026)
    oracle_cfg = OracleConfig(inner_tol=1e-12, max_inner=400)
    gaps = []
    kkts = []
    for _ in range(50):
        first = rng.uniform(0.3, 2.0, 2)
        second = first + rng.uniform(0.5, 3.0, 2)
        pts = np.sort(np.concatenate([-(8.0 + np.array([first[0], second[0]])),
                                      8.0 + np.array([first[1], second[1]])]))
        kern = build_kernel(num, FrequencyGrid(points=pts))
        bits = rng.integers(0, 2, (2, num.n_active)) * 2 - 1
        d = np.zeros(num.fft_size, dtype=complex)
        d[num.active_bins] = (bits[0] + 1j * bits[1]) / np.sqrt(2)
        level = np.abs(active_rows(kern) @ d) ** 2
        gamma = rng.uniform(0.2, 0.9, 4) * level
        u = active_rows(kern).conj()
        out3, _ = ssp_precode(d, kern, gamma, SspConfig(sweeps=3))
        res = logbarrier_solve(
            LogBarrierProblem(objective="least_squares", reference=d,
                              rank1=[(u[m], gamma[m]) for m in range(4)]),
            config=oracle_cfg)
        obj = np.linalg.norm(out3 - d) ** 2
        ref = np.linalg.norm(np.ravel(res.solution) - d) ** 2
        gaps.append(abs(obj - ref) / ref)
        kkts.append(res.kkt_residual)
    gaps = np.asarray(gaps)

    gap_db_1 = _directed_oracle_gap_db(_scenario())
    gap_db_2 = _directed_oracle_gap_db(_scenario({"mask_db_per_100khz": MASK2_DB}))
    worst_1 = float(np.max(np.abs(gap_db_1)))
    worst_2 = float(np.max(np.abs(gap_db_2)))

    ok_random = float(gaps.max()) <= 0.01
    ok_kkt = max(kkts) <= 1e-6
    ok_pinned = worst_1 <= 0.05 and worst_2 <= 0.05
    ok = ok_random and ok_kkt and ok_pinned
    detail = (f"50 random N=32/M=4 instances: 3-sweep objective gap worst"
              f" {gaps.max():.2%}, median {np.median(gaps):.3%},"
              f" {int(np.sum(gaps > 0.01))} above 1% (tol 1%); reference KKT max"
              f" {max(kkts):.1e} (tol 1e-6); pinned scenario sweep-3 leakage vs"
              f" reference: mask-1 worst {worst_1:.3f} dB, mask-2 worst"
              f" {worst_2:.3f} dB (tol 0.05)")
    _verdict(4, ok, detail)
    assert ok_kkt, detail
    assert ok_random, detail
    assert ok_pinned, detail


def test_05_admm_iteration_budget():
    """Consensus ADMM at rho=10 satisfies each mask (run-aggregate leakage
    per point, as the trace reports it) within 0.1 dB by the pinned
    iteration count, inside the time budget."""
    results = []
    t0 = time.perf_counter()
    for label, mask, iters in (("mask-1", None, 100), ("mask-2", MASK2_DB, 1000)):
        overrides = {"admm": {"rho": 10.0, "iters": iters}}
        if mask is not None:
            overrides["mask_db_per_100khz"] = mask
        cfg = _scenario(overrides)
        kernel = build_kernel(cfg.numerology, cfg.freq_grid)
        gamma = cfg.mask.gamma
        acc = np.zeros(gamma.size)
        for s in range(cfg.symbols):
            grid = generate_qam_grid(cfg.seed, cfg.numerology, cfg.n_tx,
                                     cfg.constellation, symbol_index=s)
            _, rep = admm_precode(grid.symbols, kernel, cfg.mask, cfg.admm)
            acc += rep.oob_trace[iters - 1]
        ratio_db = float(np.max(10 * np.log10(acc / cfg.symbols / gamma)))
        results.append((label, iters, ratio_db))
    elapsed = time.perf_counter() - t0
    ok = all(r[2] <= 0.1 for r in results) and elapsed < 60.0
    detail = ("rho=10, 20 symbols: " +
              ", ".join(f"{lab} ratio {db:+.4f} dB at iteration {it}"
                        for lab, it, db in results) +
              f" (tol +0.1 dB); {elapsed:.1f}s (limit 60s)")
    _verdict(5, ok, detail)
    assert ok, detail


def test_06_evm_budget_safety():
    """Budgeted precoders never exceed their error budget, wideband or
    per-subcarrier, across 200 symbols of the full scenario."""
    cfg = _scenario()
    kernel = build_kernel(cfg.numerology, cfg.freq_grid)
    eps = expand_evm_profile(selective_edge_profile(), cfg.numerology)
    budgets = {"wideband-8%": EvmConstraint(mode="wideband", eps_avg=0.08),
               "selective": EvmConstraint(mode="frequency_selective", eps=eps)}
    algos = {"eadmm": (eadmm_precode, cfg.eadmm), "essp": (essp_precode, cfg.essp)}
    worst = {}
    for s in range(200):
        grid = generate_qam_grid(cfg.seed, cfg.numerology, cfg.n_tx,
                                 cfg.constellation, symbol_index=s)
        for bname, evm in budgets.items():
            for aname, (fn, acfg) in algos.items():
                out, _ = fn(grid, kernel, cfg.mask, evm, acfg)
                key = f"{aname}/{bname}"
                worst[key] = max(worst.get(key, 0.0), evm.violation(grid, out))
    ok = all(v <= 1e-9 for v in worst.values())
    detail = ("200 symbols, worst relative budget overshoot: " +
              ", ".join(f"{k} {v:.1e}" for k, v in sorted(worst.items())) +
              " (tol 1e-9)")
    _verdict(6, ok, detail)
    assert ok, detail


def test_07_selective_profile_pooling():
    """The per-subcarrier budget profile pools to the documented wideband
    average, and achieved per-subcarrier error stays inside the profile."""
    cfg = _scenario()
    kernel = build_kernel(cfg.numerology, cfg.freq_grid)
    eps = expand_evm_profile(selective_edge_profile(), cfg.numerology)
    pooled = float(np.sqrt(np.mean(eps ** 2)))

    evm = EvmConstraint(mode="frequency_selective", eps=eps)
    bins = cfg.numerology.active_bins
    excess = 0.0
    for fn, acfg in ((essp_precode, cfg.essp), (eadmm_precode, cfg.eadmm)):
        err_sq = np.zeros(cfg.numerology.n_active)
        ref_sq = np.zeros(cfg.numerology.n_active)
        for s in range(50):
            grid = generate_qam_grid(cfg.seed, cfg.numerology, cfg.n_tx,
                                     cfg.constellation, symbol_index=s)
            out, _ = fn(grid, kernel, cfg.mask, evm, acfg)
            diff = out.symbols - grid.symbols
            err_sq += np.sum(np.abs(diff[:, bins]) ** 2, axis=0)
            ref_sq += np.sum(np.abs(grid.symbols[:, bins]) ** 2, axis=0)
        achieved = np.sqrt(err_sq / ref_sq)
        excess = max(excess, float(np.max(achieved - eps)))

    ok_pooled = abs(pooled - 0.089) <= 0.001
    ok_profile = excess <= 1e-9
    ok = ok_pooled and ok_profile
    detail = (f"pooled per-subcarrier budget {pooled:.4%} (target 8.9% +/-"
              f" 0.1pp); achieved per-subcarrier error over 50 symbols, both"
              f" budgeted precoders: max excess over profile {excess:.1e}"
              f" (tol 1e-9)")
    _verdict(7, ok, detail)
    assert ok_profile, detail
    assert ok_pooled, detail


def test_08_infeasible_instance_behavior(infeasible_case):
    """On a certified-infeasible instance the free-running splitting method
    drifts (strictly increasing leakage tail), the penalty method stays
    bounded, and the stopping rule exits within three outer iterations."""
    case = infeasible_case
    probe = feasibility_probe(case.grid, case.kernel, case.gamma, case.evm)

    _, rep_free = essp_precode(case.grid, case.kernel, case.gamma, case.evm,
                               EsspConfig(outer_iters=15, inner_sweeps=1,
                                          early_stop=False))
    totals = rep_free.oob_trace.sum(axis=1)
    strictly_rising = bool(np.all(np.diff(totals) > 0)) and int(np.argmin(totals)) == 0

    out_pen, rep_pen = eadmm_precode(case.grid, case.kernel, case.gamma, case.evm)
    pen_totals = rep_pen.oob_trace.sum(axis=1)
    pen_ratio = float(pen_totals.max() / np.median(pen_totals))
    pen_ok = pen_ratio <= 2.0 and case.evm.violation(case.grid, out_pen) <= 1e-9

    _, rep_stop = essp_precode(case.grid, case.kernel, case.gamma, case.evm,
                               EsspConfig(outer_iters=10, inner_sweeps=2,
                                          early_stop=True))
    stop_ok = rep_stop.stopped_early and rep_stop.iterations <= 3

    ok = (probe.delta_t is not None and probe.delta_t > 1.0 and strictly_rising
          and pen_ok and stop_ok)
    detail = (f"joint-feasibility scale {probe.delta_t:.4f} (> 1 means"
              f" infeasible); free-running leakage tail strictly increasing:"
              f" {strictly_rising} (rise {totals[-1] / totals[0] - 1:+.1e});"
              f" penalty trace max/median {pen_ratio:.3f} (tol 2.0); stopping"
              f" rule exited after {rep_stop.iterations} outer iterations"
              f" (limit 3)")
    _verdict(8, ok, detail)
    assert ok, detail


@pytest.fixture(scope="module")
def reference_run():
    """2000 symbols of the full scenario: budget-matched precoders and the
    accumulated spectral estimates shared by the contrast and calibration
    checks.  The symbols are generated and precoded in blocks of 32, as the
    runner does; the leakage sums are added symbol by symbol, in order."""
    cfg = _scenario({"symbols": 2000})
    num = cfg.numerology
    kernel = build_kernel(num, cfg.freq_grid)
    evm8 = EvmConstraint(mode="wideband", eps_avg=0.08)
    psd_cfg = cfg.psd_config()
    probe_hz = cfg.freq_grid.to_hz(num.scs_hz)
    acc_none = PsdAccumulator(num, psd_cfg, probe_freqs_hz=probe_hz)
    acc_essp = PsdAccumulator(num, psd_cfg)
    acc_ensp = PsdAccumulator(num, psd_cfg)
    oob_none = np.zeros(cfg.freq_grid.size)
    oob_nsp = np.zeros(cfg.freq_grid.size)
    grids = []
    for first in range(0, cfg.symbols, 32):
        block = generate_qam_block(cfg.seed, num, cfg.n_tx, cfg.constellation, first,
                                   min(32, cfg.symbols - first))
        grids.extend(block.symbols)
        acc_none.add(synthesize_time_signal(block, oversample=cfg.psd_oversample))
        out, _ = essp_precode(block, kernel, cfg.mask, evm8, cfg.essp)
        acc_essp.add(synthesize_time_signal(out, oversample=cfg.psd_oversample))
        vals, _ = ensp_precode(block.symbols, kernel, 0.08)
        acc_ensp.add(synthesize_time_signal(block.with_symbols(vals),
                                            oversample=cfg.psd_oversample))
        for before, after in zip(oobe_power(block, kernel),
                                 oobe_power(nsp_precode(block.symbols, kernel), kernel)):
            oob_none += before.sum(axis=1)
            oob_nsp += after.sum(axis=1)
    carriers = {"bw_hz": cfg.aclr_bw_hz, "spacing_hz": cfg.aclr_spacing_hz}
    return {
        "cfg": cfg,
        "aclr_essp": aclr(acc_essp.finalize(), carriers),
        "aclr_ensp": aclr(acc_ensp.finalize(), carriers),
        "nsp_null_db": 10 * np.log10(oob_nsp / oob_none),
        "probe_meas": acc_none.probe_density(),
        "probe_pred": kernel_psd_prediction(grids, num, cfg.psd_oversample,
                                            probe_hz),
        "estimate": acc_none.finalize(),
    }


def test_09_baseline_contrast(reference_run):
    """At a matched 8% wideband budget over 2000 symbols, the splitting
    precoder's worst-neighbor ACLR must clear the scaled notch baseline by
    2 dB, and the hard notch must null every constraint point."""
    run = reference_run
    delta = run["aclr_essp"].worst_db - run["aclr_ensp"].worst_db
    null_worst = float(np.max(run["nsp_null_db"]))
    ok_margin = delta >= 2.0
    ok_null = null_worst <= -200.0
    ok = ok_margin and ok_null
    detail = (f"2000 symbols at 8% wideband budget: worst ACLR essp"
              f" {run['aclr_essp'].worst_db:.2f} dB vs ensp"
              f" {run['aclr_ensp'].worst_db:.2f} dB, margin {delta:+.2f} dB"
              f" (need >= +2); hard-notch residual at constraint points"
              f" {null_worst:.0f} dB relative (tol -200)")
    _verdict(9, ok, detail)
    assert ok_null, detail
    assert ok_margin, detail


def test_10_psd_calibration(reference_run):
    """The averaged-periodogram probes agree with the ensemble leakage
    prediction at every constraint frequency, and the in-band density sits
    on the configured reference level."""
    run = reference_run
    gap = 10 * np.log10(run["probe_meas"] / run["probe_pred"])
    worst_gap = float(np.max(np.abs(gap)))
    est = run["estimate"]
    num = run["cfg"].numerology
    band = np.abs(est.freq_hz) <= (num.n_active / 2 - 2) * num.scs_hz
    inband_mean = float(np.mean(est.density_db[band]))
    ok = worst_gap <= 0.5 and abs(inband_mean - (-21.5)) <= 0.3
    detail = (f"2000 symbols: probe vs prediction worst gap {worst_gap:.4f} dB"
              f" (tol 0.5); in-band mean {inband_mean:.3f} dB per 100 kHz"
              f" (target -21.5 +/- 0.3)")
    _verdict(10, ok, detail)
    assert ok, detail


def test_11_excluded_surfaces():
    """Link-level error-rate and throughput curves, and any per-instance
    joint-feasibility scale pinned to an external solver run, are out of
    scope by design: no API exposes them, and the feasibility probe declines
    to certify large instances instead of guessing.  Budget safety and
    infeasibility behavior are covered by the budget and infeasibility
    checks above."""
    import specprecode

    exposed = [name for name in dir(specprecode)
               if "bler" in name.lower() or "throughput" in name.lower()]
    cfg = _scenario()
    kernel = build_kernel(cfg.numerology, cfg.freq_grid)
    grid = generate_qam_grid(cfg.seed, cfg.numerology, cfg.n_tx,
                             cfg.constellation, symbol_index=0)
    probe = feasibility_probe(grid, kernel, cfg.mask,
                              EvmConstraint(mode="wideband", eps_avg=0.08))
    ok = not exposed and probe.delta_t is None and probe.feasible is None
    detail = ("link-level error-rate/throughput surfaces absent"
              f" (found {exposed or 'none'}); full-size feasibility probe"
              " reports ratios only (no uncertified scale); budget and"
              " infeasibility behavior covered by criteria 6-8")
    _verdict(11, ok, detail)
    assert ok, detail
