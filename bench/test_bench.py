"""Self-tests of the benchmark: ``python3 -m pytest bench`` from the checkout root.

They run each workload on a few symbols (schema and metric names of both
result kinds), check that corrupted outputs count as failed calls, and
check the span self-time arithmetic.
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
from specprecode import ScenarioConfig, run_scenario  # noqa: E402

SMOKE_SYMBOLS = {"ssp-mask1": 4, "essp-wideband": 4, "eadmm-selective": 3, "ensp-stream": 20}
BENCH_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def _smoke_workload(name):
    return dict(run.load_workloads()[name], symbols=SMOKE_SYMBOLS[name])


def test_benchmark_file_matches_workloads():
    bench = run.load_benchmark()
    assert set(bench) == BENCH_KEYS
    names = [w["name"] for w in bench["workloads"]]
    assert sorted(names) == sorted(run.load_workloads()) == sorted(SMOKE_SYMBOLS)
    assert all(set(w) == {"name", "why"} for w in bench["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in bench["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in bench["per_layer"])
    assert "setup_s" in [m["name"] for m in bench["end_to_end"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMOKE_SYMBOLS))
def test_smoke_run_schema(monkeypatch, name, trace):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "TRACE_MIN_SYMBOLS", 1)
    record = run.measure(name, _smoke_workload(name), seed=2, seconds=1e-3, trace=trace)
    defs = run.load_benchmark()["per_layer" if trace else "end_to_end"]
    result = run.result_object(record, run.summarize(record, defs, trace))
    assert record["failures"] == []
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (1 if trace else 2, 0)
    assert list(result["metrics"]) == [m["name"] for m in defs]
    for m in defs:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    if trace:
        spans = json.loads(record["spans_path"].read_text())
        assert {"id", "name", "start", "end", "parent", "symbol"} == set(spans[0])
        precode = [s for s in spans if s["name"] == "precoder.precode"]
        assert len(precode) == SMOKE_SYMBOLS[name]


@pytest.fixture(scope="module")
def good_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("good") / "run"
    run_scenario(ScenarioConfig.from_dict(dict(_smoke_workload("ssp-mask1"), seed=3)), run_dir)
    return run_dir


def _copy(src, dst):
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


def _nan_in_psd(run_dir):
    """Put a NaN in psd.csv and update the manifest digest to match."""
    psd = run_dir / "psd.csv"
    lines = psd.read_text().splitlines()
    freq, _ = lines[5].split(",")
    lines[5] = f"{freq},nan"
    psd.write_text("\n".join(lines) + "\n")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["outputs"]["psd.csv"] = run._sha256(psd)
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


def _set_config(run_dir, **changes):
    """Change the resolved config and update its manifest digest to match."""
    path = run_dir / "config_resolved.json"
    cfg = json.loads(path.read_text())
    for key, val in changes.items():
        cfg[key] = dict(cfg[key], **val) if isinstance(val, dict) else val
    path.write_text(json.dumps(cfg))
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["outputs"][path.name] = run._sha256(path)
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


def test_clean_outputs_pass(good_run):
    assert run.check_outputs(good_run)[0] == []


def test_nan_is_reported(good_run, tmp_path):
    run_dir = _copy(good_run, tmp_path / "run")
    _nan_in_psd(run_dir)
    problems, _ = run.check_outputs(run_dir)
    assert len(problems) == 1 and "psd.csv" in problems[0] and "finite" in problems[0]


def test_digest_mismatch_is_reported(good_run, tmp_path):
    run_dir = _copy(good_run, tmp_path / "run")
    with open(run_dir / "trace.csv", "a", encoding="utf-8") as fh:
        fh.write("\n")
    problems, _ = run.check_outputs(run_dir)
    assert problems == ["trace.csv: digest does not match the manifest"]


def test_wideband_budget_is_checked(good_run, tmp_path):
    run_dir = _copy(good_run, tmp_path / "run")
    _set_config(run_dir, precoder="essp", evm={"mode": "wideband", "eps_avg_fraction": 1e-6})
    problems, _ = run.check_outputs(run_dir)
    assert len(problems) == 1 and "evm_wideband_rms" in problems[0]


def test_selective_budget_is_checked(good_run, tmp_path):
    run_dir = _copy(good_run, tmp_path / "run")
    _set_config(run_dir, precoder="eadmm", evm={"mode": "frequency_selective"})
    assert run.check_outputs(run_dir)[0] == ["evm.csv has no budget column"]


@pytest.mark.parametrize("corrupt", ["nan", "digest", "unreadable", "raises"])
def test_corrupted_call_counts_as_failed(monkeypatch, tmp_path, corrupt):
    real_run_scenario = child.run_scenario

    def corrupting_run_scenario(cfg, run_dir):
        if corrupt == "raises":
            raise RuntimeError("solver failed")
        manifest = real_run_scenario(cfg, run_dir)
        if corrupt == "nan":
            _nan_in_psd(run_dir)
        elif corrupt == "digest":
            with open(run_dir / "trace.csv", "a", encoding="utf-8") as fh:
                fh.write("\n")
        else:
            (run_dir / "summary.csv").write_bytes(b"tampered\n")
        return manifest

    monkeypatch.setattr(child, "run_scenario", corrupting_run_scenario)
    name = "ssp-mask1"
    calls = child.timed_calls(_smoke_workload(name), 4, tmp_path, deadline=0.0, ref_before=0.25)
    assert len(calls) == 1 and calls[0]["problems"]

    e2e_child = {"package": str(BENCH.parent / "src" / "specprecode" / "__init__.py"),
                 "setup_s": 0.5, "setup_ref_s": 0.25, "symbols": SMOKE_SYMBOLS[name],
                 "peak_rss_mb": 100.0, "calls": calls}
    monkeypatch.setattr(run, "run_child", lambda spec, timeout: (e2e_child, None))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 0)
    record = run.measure(name, _smoke_workload(name), seed=4, seconds=1e-3, trace=0)
    defs = run.load_benchmark()["end_to_end"]
    result = run.result_object(record, run.summarize(record, defs, 0))
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_self_times_subtract_direct_children():
    spans = [
        {"name": "replica.run", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "signal_model.generate", "start": 1.0, "end": 2.0, "parent": 0},
        {"name": "replica.symbol", "start": 2.0, "end": 9.0, "parent": 0},
        {"name": "precoder.precode", "start": 3.0, "end": 7.0, "parent": 2},
        {"name": "metrics.psd_add", "start": 7.0, "end": 8.5, "parent": 2},
    ]
    selfs = child.self_times(spans)
    assert selfs == pytest.approx({"replica": 2.0 + 1.5, "signal_model": 1.0,
                                   "precoder": 4.0, "metrics": 1.5})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_tracing_overhead_cancels_run_order():
    # 2 % span cost; whichever replica runs a symbol second is 10 % faster.
    off = [1.0 if s % 2 == 0 else 0.9 for s in range(8)]
    on = [1.02 * 0.9 if s % 2 == 0 else 1.02 for s in range(8)]
    assert child.tracing_overhead(on, off) == pytest.approx(0.02)
