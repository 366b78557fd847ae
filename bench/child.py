"""One benchmark sample, run in a fresh process by ``bench/run.py``.

Usage: ``python3 bench/child.py '<spec json>'`` with ``PYTHONPATH`` naming the
checkout's ``src``.  The spec holds the scenario ``overrides``, the ``seed``,
an ``out_dir`` for the run's files, the ``mode`` (``"setup"``, ``"e2e"`` or
``"trace"``) and, in trace mode, a ``spans_path`` (or null).  The child prints
one JSON object on its last line of standard output.

Every mode times set-up, from the interpreter's first statement to a
resolved config, and then the reference kernel (see ``reference_kernel``);
``setup`` stops there.  ``e2e`` then makes ``run_scenario`` calls until the spec's
``seconds`` have passed since the child started (at least one), each on its
own scenario seed, checks each call's outputs and times the reference kernel
after each call.  ``trace`` times one
``run_scenario`` call, then replays the runner's per-symbol pipeline through
the package's public functions in two replicas, spans off and on, that take
each symbol in turn, and derives per-layer metrics from the spans.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import specprecode  # noqa: E402
from specprecode import (PsdAccumulator, ScenarioConfig, aclr, build_kernel,  # noqa: E402
                         eadmm_precode, ensp_precode, essp_precode, generate_qam_grid,
                         oobe_power, run_scenario, ssp_precode, synthesize_time_signal,
                         write_waveform)

BUDGET_PRECODERS = ("ensp", "eadmm", "essp")
# Repetitions of the reference kernel timed between two run_scenario calls
# (0.2-0.35 s on a 2-vCPU Xeon VM, by the host's load).
REF_REPS = 2000
# Scenario seed of call i in a run with benchmark seed n: n * SEED_STRIDE + i.
SEED_STRIDE = 1000
PRECODER_MODULE = {"ssp": "unconstrained", "essp": "constrained",
                   "eadmm": "constrained", "ensp": "baselines"}


def reference_kernel(reps=REF_REPS):
    """A fixed computation that measures how fast the host runs right now.

    It uses the package's kind of work (small complex matrix products, an
    8x8 solve, a 512-point FFT, element-wise numpy and scalar Python) but
    none of the package's code, so a change to the package leaves its time
    unchanged while the host's speed moves it as much as the workload.
    Returns the wall time in seconds.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 300)) + 1j * rng.standard_normal((8, 300))
    x = rng.standard_normal((2, 300)) + 1j * rng.standard_normal((2, 300))
    gram = a @ a.conj().T + 300.0 * np.eye(8)
    acc = 0.0
    for _ in range(reps):
        y = np.einsum("mk,jk->jm", a.conj(), x)
        z = np.linalg.solve(gram, y.T)
        x = x - 1e-3 * (a.T @ z).T
        spec = np.fft.fft(np.pad(x, ((0, 0), (0, 212))), axis=1)
        acc += float(np.sum(np.abs(spec) ** 2))
        for k in range(8):
            acc += abs(complex(y[0, k]))
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel diverged")
    return time.perf_counter() - t0


class Tracer:
    """In-memory spans: (name, start, end, parent index, symbol index).

    With ``enabled`` false, ``span`` returns a shared null context, so the
    replica runs the same code with no recording.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._open = []
        self._null = nullcontext()

    def span(self, name, symbol=None):
        return _Span(self, name, symbol) if self.enabled else self._null

    def export(self):
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p, "symbol": sym}
                for i, (n, s, e, p, sym) in enumerate(self.spans)]


class _Span:
    __slots__ = ("tracer", "name", "symbol", "index")

    def __init__(self, tracer, name, symbol):
        self.tracer = tracer
        self.name = name
        self.symbol = symbol

    def __enter__(self):
        tr = self.tracer
        parent = tr._open[-1] if tr._open else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent, self.symbol])
        tr._open.append(self.index)

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._open.pop()
        return False


def self_times(spans):
    """Per-layer self time from exported spans.

    A span's self time is its duration minus the durations of its direct
    children (spans nest and run one at a time); the layer is the part of
    the span name before the first dot.
    """
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] += sp["end"] - sp["start"]
    out = {}
    for sp, inner in zip(spans, child_time):
        layer = sp["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (sp["end"] - sp["start"]) - inner
    return out


def _precode(cfg, grid, kernel, evm_c):
    """The workload's precoder, called as ``runner._dispatch`` calls it."""
    if cfg.precoder == "ssp":
        vals, report = ssp_precode(grid.symbols, kernel, cfg.mask, cfg.ssp)
        return grid.with_symbols(vals), report
    if cfg.precoder == "essp":
        return essp_precode(grid, kernel, cfg.mask, evm_c, cfg.essp)
    if cfg.precoder == "eadmm":
        return eadmm_precode(grid, kernel, cfg.mask, evm_c, cfg.eadmm)
    if cfg.precoder == "ensp":
        vals, _ = ensp_precode(grid.symbols, kernel, cfg.evm_eps_avg)
        return grid.with_symbols(vals), None
    raise ValueError(f"the replica has no precoder {cfg.precoder!r}")


def _budget_used(evm_c, ref, out, active_bins):
    """One symbol's error divided by its budget (worst subcarrier if selective)."""
    diff = out - ref
    if evm_c.mode == "wideband":
        return float(np.linalg.norm(diff) / (evm_c.eps_avg * np.linalg.norm(ref)))
    budget = evm_c.eps * np.linalg.norm(ref[:, active_bins], axis=0)
    err = np.linalg.norm(diff[:, active_bins], axis=0)
    has = budget > 0
    return float(np.max(err[has] / budget[has]))


class Replica:
    """``run_scenario``'s pipeline replayed through the same public calls, in
    the same order and with the same arguments, one symbol per ``step``.

    ``wall_s`` sums the time of this replica's own calls and ``step_s`` holds
    each symbol's time, so that two replicas can run interleaved.
    """

    def __init__(self, cfg, tracer):
        self.cfg = cfg
        self.span = tracer.span
        self.ratio_max = 0.0
        self.err_total = self.ref_total = 0.0
        self.compliant = self.early_stops = 0
        self.iterations = []
        self.returned = []
        self.budget_used_max = 0.0
        self.chunks = [] if cfg.emit_waveforms else None
        self.step_s = []
        t0 = time.perf_counter()
        with self.span("signal_model.build_kernel"):
            self.kernel = build_kernel(cfg.numerology, cfg.freq_grid)
        self.evm_c = cfg.evm_constraint() if cfg.precoder in BUDGET_PRECODERS else None
        with self.span("metrics.psd_setup"):
            self.psd_acc = PsdAccumulator(cfg.numerology, cfg.psd_config(),
                                          probe_freqs_hz=cfg.freq_grid.to_hz(cfg.numerology.scs_hz))
        self.gamma = cfg.mask.gamma[:, None]
        self.wall_s = time.perf_counter() - t0

    def step(self, s):
        cfg, span = self.cfg, self.span
        t0 = time.perf_counter()
        with span("replica.symbol", s):
            with span("signal_model.generate", s):
                grid = generate_qam_grid(cfg.seed, cfg.numerology, cfg.n_tx,
                                         cfg.constellation, symbol_index=s)
            with span("precoder.precode", s):
                out, report = _precode(cfg, grid, self.kernel, self.evm_c)
            with span("metrics.oobe_power", s):
                pow_pts = oobe_power(out, self.kernel)
            ratios = pow_pts / self.gamma
            self.ratio_max = max(self.ratio_max, float(np.max(ratios)))
            self.compliant += bool(np.all(ratios <= 1.0))
            diff = out.symbols - grid.symbols
            self.err_total += float(np.sum(np.abs(diff) ** 2))
            self.ref_total += float(np.sum(np.abs(grid.symbols) ** 2))
            if self.evm_c is not None:
                self.budget_used_max = max(self.budget_used_max, _budget_used(
                    self.evm_c, grid.symbols, out.symbols, cfg.numerology.active_bins))
            if report is None:
                self.iterations.append(1)
                self.returned.append(1)
            else:
                self.iterations.append(report.iterations)
                self.early_stops += bool(report.stopped_early)
                self.returned.append(report.iterations if report.returned_iteration is None
                                     else report.returned_iteration)
            with span("signal_model.synthesize", s):
                samples = synthesize_time_signal(out, oversample=cfg.psd_oversample)
            with span("metrics.psd_add", s):
                self.psd_acc.add(samples)
            if self.chunks is not None:
                with span("signal_model.synthesize_waveform", s):
                    self.chunks.append(synthesize_time_signal(out, oversample=1))
        dt = time.perf_counter() - t0
        self.step_s.append(dt)
        self.wall_s += dt

    def finish(self, out_dir):
        """Finalize the PSD, write the waveform into ``out_dir`` if enabled, and
        return the run's headline values and counters."""
        cfg, span = self.cfg, self.span
        t0 = time.perf_counter()
        with span("metrics.finalize"):
            psd = self.psd_acc.finalize()
        with span("metrics.aclr"):
            aclr_rep = aclr(psd, {"bw_hz": cfg.aclr_bw_hz, "spacing_hz": cfg.aclr_spacing_hz})
        waveform_bytes = 0
        if self.chunks is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            samples = np.concatenate(self.chunks, axis=1)
            path = out_dir / "waveform.bin"
            with span("signal_model.write_waveform"):
                write_waveform(path, samples)
            waveform_bytes = path.stat().st_size
        self.wall_s += time.perf_counter() - t0
        return {
            "wall_s": self.wall_s,
            "mask_ratio_max": self.ratio_max,
            "aclr_worst_db": float(aclr_rep.worst_db),
            "evm_rms": float(np.sqrt(self.err_total / self.ref_total)),
            "mask_compliant_frac": self.compliant / cfg.symbols,
            "iterations_mean": float(np.mean(self.iterations)),
            "early_stops": self.early_stops,
            "returned_iteration_mean": float(np.mean(self.returned)),
            "budget_used_max": self.budget_used_max,
            "waveform_bytes": waveform_bytes,
        }


def tracing_overhead(on_s, off_s):
    """Per-symbol time with spans on over spans off, minus 1.

    Symbol ``s`` runs in both replicas back to back, spans off first for even
    ``s`` and spans on first for odd ``s``.  Pairing by symbol cancels drift
    in the host's speed; the geometric mean of the two orders' median ratios
    cancels the advantage of running second on warm caches.
    """
    ratios = np.asarray(on_s) / np.asarray(off_s)
    return float(np.sqrt(np.median(ratios[0::2]) * np.median(ratios[1::2]))) - 1.0


def layer_metrics(spans, traced, overhead, timings, output_bytes):
    """Per-layer metrics of one traced sample (names as in BENCHMARK.json)."""
    durations = {}
    for sp in spans:
        durations.setdefault(sp["name"], []).append(sp["end"] - sp["start"])
    selfs = self_times(spans)

    def ms(name, q):
        return float(np.percentile(durations[name], q)) * 1e3

    precode = durations["precoder.precode"]
    return {
        "signal_model.build_kernel_s": sum(durations["signal_model.build_kernel"]),
        "signal_model.generate_ms_p50": ms("signal_model.generate", 50),
        "signal_model.synthesize_ms_p50": ms("signal_model.synthesize", 50),
        "signal_model.waveform_bytes": traced["waveform_bytes"],
        "signal_model.self_s": selfs["signal_model"],
        "precoder.precode_ms_p50": ms("precoder.precode", 50),
        "precoder.precode_ms_p90": ms("precoder.precode", 90),
        "precoder.precode_samples": len(precode),
        "precoder.precode_share": sum(precode) / traced["wall_s"],
        "precoder.iterations_mean": traced["iterations_mean"],
        "precoder.early_stops": traced["early_stops"],
        "precoder.returned_iteration_mean": traced["returned_iteration_mean"],
        "precoder.mask_compliant_frac": traced["mask_compliant_frac"],
        "precoder.mask_ratio_max": traced["mask_ratio_max"],
        "precoder.evm_rms": traced["evm_rms"],
        "precoder.budget_used_max": traced["budget_used_max"],
        "precoder.self_s": selfs["precoder"],
        "metrics.oobe_ms_p50": ms("metrics.oobe_power", 50),
        "metrics.psd_add_ms_p50": ms("metrics.psd_add", 50),
        "metrics.finalize_s": sum(durations["metrics.finalize"]) + sum(durations["metrics.aclr"]),
        "metrics.self_s": selfs["metrics"],
        "runner.output_bytes": output_bytes,
        # run_scenario's own end-of-run work (statistics, file writes, digests),
        # from the one timed pass: its total less its per-symbol phases.
        "runner.self_s": (timings["total"] - timings["generate"] - timings["precode"]
                          - timings["metrics"]),
        "trace.overhead_frac": overhead,
    }


def _trace_sample(cfg, out_dir, spans_path, manifest):
    output_bytes = sum(p.stat().st_size for p in (out_dir / "run").iterdir())
    tracer = Tracer(True)
    off, on = Replica(cfg, Tracer(False)), Replica(cfg, tracer)
    for s in range(cfg.symbols):
        for rep in ((off, on) if s % 2 == 0 else (on, off)):
            rep.step(s)
    untraced = off.finish(out_dir / "replica")
    traced = on.finish(out_dir / "replica")
    shutil.rmtree(out_dir / "replica", ignore_errors=True)
    spans = tracer.export()
    if spans_path is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    overhead = tracing_overhead(on.step_s, off.step_s)
    return {
        "replica": {"mask_ratio_max": traced["mask_ratio_max"],
                    "aclr_worst_db": traced["aclr_worst_db"],
                    "untraced_mask_ratio_max": untraced["mask_ratio_max"],
                    "untraced_aclr_worst_db": untraced["aclr_worst_db"]},
        "layers": layer_metrics(spans, traced, overhead, manifest["timings_s"], output_bytes),
    }


def leakage_ratios(cfg, manifest):
    """Per mask point: the run-mean leakage power (``oobe_db_p*``) over its bound."""
    mean_power = 10.0 ** (np.array([manifest["metrics"][f"oobe_db_p{m + 1}"]
                                    for m in range(cfg.freq_grid.size)]) / 10.0)
    return (mean_power / cfg.mask.gamma).tolist()


def timed_calls(overrides, seed, out_dir, deadline, ref_before):
    """``run_scenario`` calls until ``deadline`` (``perf_counter`` time; at
    least one call), call ``i`` on scenario seed ``seed * SEED_STRIDE + i``.

    Only the call itself is timed.  Between calls, untimed: resolve the next
    config, check the outputs (``run.check_outputs``), remove them and time
    the reference kernel.  A call's ``ref_s`` is the mean of the reference
    times just before (``ref_before`` for the first call) and just after
    it.  A call that raises or fails a check has a non-empty ``problems``
    list.
    """
    from run import check_outputs  # here, so that set-up time holds only the package

    calls = []
    while not calls or (time.perf_counter() + statistics.median(c["cycle_s"] for c in calls)
                        < deadline):
        t_cycle = time.perf_counter()
        call_seed = seed * SEED_STRIDE + len(calls)
        call = {"seed": call_seed, "problems": []}
        cfg = ScenarioConfig.from_dict(dict(overrides, seed=call_seed))
        run_dir = out_dir / "run"
        try:
            t0 = time.perf_counter()
            manifest = run_scenario(cfg, run_dir)
            call["run_s"] = time.perf_counter() - t0
            call["leakage_ratios"] = leakage_ratios(cfg, manifest)
            call["problems"], summary = check_outputs(run_dir)
            call["aclr_worst_db"] = float(summary["aclr_worst_db"])
        except Exception as exc:  # noqa: BLE001 - any failure fails this call only
            call["problems"].append(f"call raised {exc!r}")
        shutil.rmtree(run_dir, ignore_errors=True)
        ref_after = reference_kernel()
        call["ref_before_s"], call["ref_after_s"] = ref_before, ref_after
        call["ref_s"] = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        call["cycle_s"] = time.perf_counter() - t_cycle
        calls.append(call)
    return calls


def main(argv):
    spec = json.loads(argv[1])
    t_cfg = time.perf_counter()
    cfg = ScenarioConfig.from_dict(dict(spec["overrides"], seed=spec["seed"]))
    t_ready = time.perf_counter()
    result = {"setup_s": t_ready - T_START, "resolve_s": t_ready - t_cfg,
              "symbols": cfg.symbols, "package": specprecode.__file__,
              "precoder_module": PRECODER_MODULE.get(cfg.precoder)}
    result["setup_ref_s"] = reference_kernel()

    if spec["mode"] == "setup":
        print(json.dumps(result))
        return

    out_dir = Path(spec["out_dir"])
    if spec["mode"] == "e2e":
        result["calls"] = timed_calls(spec["overrides"], spec["seed"], out_dir,
                                      T_START + spec["seconds"], result["setup_ref_s"])
    else:
        t0 = time.perf_counter()
        manifest = run_scenario(cfg, out_dir / "run")
        run_s = time.perf_counter() - t0
        result.update(_trace_sample(cfg, out_dir, spec.get("spans_path"), manifest))
        layers = result["layers"]
        layers["config.resolve_s"] = result["resolve_s"]
        layers["process.symbols_per_wall_s"] = cfg.symbols / run_s
        layers["process.ref_kernel_s"] = 0.5 * (result["setup_ref_s"] + reference_kernel())

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if spec["mode"] == "trace":
        wall = time.perf_counter() - T_START
        result["layers"]["process.cpu_per_wall"] = (usage.ru_utime + usage.ru_stime) / wall

    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": scipy.__version__, "blas": blas.get("name", "unknown")}
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
