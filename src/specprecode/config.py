"""Scenario configuration: JSON with explicit units on every physical field.

A scenario file fully determines a run: numerology, constraint frequencies
(Hz), mask values (dB per 100 kHz relative to the declared reference level),
per-solver settings, the error-budget block, constellation, seed, and symbol
count.  The default scenario is a 5 MHz 15 kHz-SCS carrier (N = 512,
N_CP = 36, 25 resource blocks slightly asymmetric around DC) with eight
constraint points just outside the occupied band.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from .constrained import EsspConfig, EvmConstraint
from .errors import ConfigError
from .metrics import MaskSpec, PsdConfig, analytic_inband_reference, calibrate_mask
from .runner import PRECODER_TABLE
from .signal_model import QAM_ORDERS, FrequencyGrid, OfdmNumerology
from .unconstrained import AdmmConfig, SspConfig

PRECODERS = tuple(PRECODER_TABLE)
# The precoders that take the error budget.
BUDGET_PRECODERS = tuple(name for name, entry in PRECODER_TABLE.items() if entry.budgets)

# Per-PRB error budget of the frequency-selective reference experiment: an
# explicit ramp on each edge block (outermost subcarrier 20%, innermost
# 12.5%), flat 12 / 9.5 / 8 % on the next three blocks per side, 7% inside.
# The ramp falls in steps of at most 1 point.  The source paper's table is
# not in the repository, so the 0.18 and 0.17 steps are inferred from that
# structure and from the pooled target: over the 300 active subcarriers of
# the 25-PRB profile the budget pools to 8.9% RMS (8.43% mean).
EDGE_RAMP = [0.20, 0.20, 0.19, 0.19, 0.18, 0.17, 0.16, 0.15,
             0.14, 0.13, 0.125, 0.125]


def selective_edge_profile(n_prb=25):
    """The reference frequency-selective budget as a per-PRB list.

    With the default 25 resource blocks (300 active subcarriers) the
    expanded profile pools to 8.9% RMS (8.43% mean), the wideband average
    it stands in for.
    """
    if n_prb < 9:
        raise ConfigError("profile needs at least 9 resource blocks", field="evm.profile_per_prb")
    interior = [0.07] * (n_prb - 8)
    return ([list(EDGE_RAMP), 0.12, 0.095, 0.08] + interior
            + [0.08, 0.095, 0.12, list(reversed(EDGE_RAMP))])


def expand_evm_profile(profile, numerology):
    """Per-PRB budget list to per-subcarrier fractions (offset order).

    Scalar entries replicate across the block's subcarriers; a list entry
    gives the block's subcarriers verbatim (ascending offset), which is how
    edge ramps are written.
    """
    n_prb = numerology.n_prb
    if len(profile) != n_prb:
        raise ConfigError(f"profile has {len(profile)} entries but the active band "
                          f"spans {n_prb} resource blocks", field="evm.profile_per_prb")
    out = np.empty(numerology.n_active, dtype=float)
    for i, entry in enumerate(profile):
        block = slice(i * numerology.prb_size, (i + 1) * numerology.prb_size)
        try:
            vals = np.asarray(entry, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("budget fractions must be numbers",
                              field=f"evm.profile_per_prb[{i}]") from None
        if vals.shape not in ((), (numerology.prb_size,)):
            raise ConfigError(f"ramp entry must list {numerology.prb_size} values",
                              field=f"evm.profile_per_prb[{i}]")
        if not np.all((vals >= 0) & (vals < np.inf)):       # NaN fails both
            raise ConfigError("budget fractions must be non-negative and finite",
                              field=f"evm.profile_per_prb[{i}]")
        out[block] = vals
    return out


DEFAULT_SCENARIO = {
    "numerology": {
        "fft_size": 512,
        "cp_len": 36,
        "scs_hz": 15_000.0,
        "n_active": 300,
        "first_offset": -150,
        "prb_size": 12,
    },
    "frequencies_hz": [-5_010_000.0, -4_995_000.0, -2_565_000.0, -2_550_000.0,
                       2_550_000.0, 2_565_000.0, 4_995_000.0, 5_010_000.0],
    "mask_db_per_100khz": [-75.0, -75.0, -65.0, -65.0, -65.0, -65.0, -75.0, -75.0],
    "reference_level_db_per_100khz": -21.5,
    "n_tx": 2,
    "constellation": "64QAM",
    "seed": 1,
    "symbols": 20,
    "precoder": "ssp",
    "admm": {"rho": 10.0, "iters": 80, "residual_tol": None},
    "ssp": {"sweeps": 3},
    "eadmm": {"rho": 10.0, "iters": 40, "residual_tol": None},
    "essp": {"outer_iters": 10, "inner_sweeps": 2, "relaxation": 1.0, "early_stop": True},
    "evm": {"mode": "wideband", "eps_avg_fraction": 0.08, "profile_per_prb": None},
    "psd": {"oversample": 4, "bin_hz": 100_000.0},
    "aclr": {"bw_hz": 4_500_000.0, "spacing_hz": 5_000_000.0},
    "out_dir": "out",
    "emit_waveforms": False,
}

MASK2_DB = [-85.0, -85.0, -75.0, -75.0, -75.0, -75.0, -85.0, -85.0]


def _get(d, key, kind, path, optional=False, default=None):
    if key not in d or d[key] is None:
        if optional:
            return default
        raise ConfigError("missing required field", field=f"{path}{key}")
    val = d[key]
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if kind is int and isinstance(val, int) and not isinstance(val, bool):
        return val
    if kind is bool and isinstance(val, bool):
        return val
    if kind is str and isinstance(val, str):
        return val
    if kind is list and isinstance(val, list):
        return val
    if kind is dict and isinstance(val, dict):
        return val
    raise ConfigError(f"expected {kind.__name__}, got {type(val).__name__}",
                      field=f"{path}{key}")


@dataclass
class ScenarioConfig:
    """Validated scenario: resolved objects plus the normalized raw form."""

    numerology: OfdmNumerology
    freq_grid: FrequencyGrid
    mask: MaskSpec
    ref_db: float
    inband_ref: float      # analytic in-band kernel power: mask and PSD calibration
    n_tx: int
    constellation: str
    seed: int
    symbols: int
    precoder: str
    admm: AdmmConfig
    ssp: SspConfig
    eadmm: AdmmConfig
    essp: EsspConfig
    evm_mode: str
    evm_eps_avg: float
    evm_profile: list
    psd_oversample: int
    psd_bin_hz: float
    aclr_bw_hz: float
    aclr_spacing_hz: float
    out_dir: str
    emit_waveforms: bool
    raw: dict = field(repr=False, default=None)

    @classmethod
    def from_dict(cls, data):
        data = _merge_defaults(copy.deepcopy(DEFAULT_SCENARIO), data)
        num_d = _get(data, "numerology", dict, "")
        numerology = OfdmNumerology.centered(
            fft_size=_get(num_d, "fft_size", int, "numerology."),
            cp_len=_get(num_d, "cp_len", int, "numerology."),
            scs_hz=_get(num_d, "scs_hz", float, "numerology."),
            n_active=_get(num_d, "n_active", int, "numerology."),
            first_offset=_get(num_d, "first_offset", int, "numerology.", optional=True),
            prb_size=_get(num_d, "prb_size", int, "numerology.", optional=True, default=12),
        )
        freqs_hz = np.asarray(_get(data, "frequencies_hz", list, ""), dtype=float)
        freq_grid = FrequencyGrid.from_hz(freqs_hz, numerology.scs_hz)
        mask_db = _get(data, "mask_db_per_100khz", list, "")
        if len(mask_db) != freq_grid.size:
            raise ConfigError("one mask value per frequency point is required",
                              field="mask_db_per_100khz")
        ref_db = _get(data, "reference_level_db_per_100khz", float, "")
        inband_ref = analytic_inband_reference(numerology)
        mask = calibrate_mask(mask_db, numerology, ref_db, reference_power=inband_ref)

        precoder = _get(data, "precoder", str, "")
        if precoder not in PRECODERS:
            raise ConfigError(f"unknown precoder {precoder!r}; choose from {PRECODERS}",
                              field="precoder")
        constellation = _get(data, "constellation", str, "")
        if constellation not in QAM_ORDERS:
            raise ConfigError(f"unknown constellation {constellation!r}", field="constellation")

        n_tx = _get(data, "n_tx", int, "")
        if n_tx < 1:
            raise ConfigError("n_tx must be at least 1", field="n_tx")
        seed = _get(data, "seed", int, "")
        if seed < 0:
            raise ConfigError("seed must be a non-negative integer", field="seed")
        symbols = _get(data, "symbols", int, "")
        if symbols < 1:
            raise ConfigError("symbols must be at least 1", field="symbols")

        admm_d = _get(data, "admm", dict, "")
        admm = AdmmConfig(rho=_get(admm_d, "rho", float, "admm."),
                          iters=_get(admm_d, "iters", int, "admm."),
                          residual_tol=_get(admm_d, "residual_tol", float, "admm.",
                                            optional=True))
        ssp_d = _get(data, "ssp", dict, "")
        ssp = SspConfig(sweeps=_get(ssp_d, "sweeps", int, "ssp."))
        eadmm_d = _get(data, "eadmm", dict, "")
        eadmm = AdmmConfig(rho=_get(eadmm_d, "rho", float, "eadmm."),
                           iters=_get(eadmm_d, "iters", int, "eadmm."),
                           residual_tol=_get(eadmm_d, "residual_tol", float, "eadmm.",
                                             optional=True))
        essp_d = _get(data, "essp", dict, "")
        essp = EsspConfig(outer_iters=_get(essp_d, "outer_iters", int, "essp."),
                          inner_sweeps=_get(essp_d, "inner_sweeps", int, "essp."),
                          relaxation=_get(essp_d, "relaxation", float, "essp."),
                          early_stop=_get(essp_d, "early_stop", bool, "essp."))

        evm_d = _get(data, "evm", dict, "")
        evm_mode = _get(evm_d, "mode", str, "evm.")
        if evm_mode not in ("wideband", "frequency_selective"):
            raise ConfigError("mode must be wideband or frequency_selective", field="evm.mode")
        evm_eps = _get(evm_d, "eps_avg_fraction", float, "evm.", optional=True)
        evm_profile = _get(evm_d, "profile_per_prb", list, "evm.", optional=True)
        budgets = PRECODER_TABLE[precoder].budgets
        if budgets:
            if evm_mode not in budgets:
                raise ConfigError(f"precoder {precoder!r} takes {' or '.join(budgets)} "
                                  "budgets only", field="evm.mode")
            if evm_mode == "wideband" and evm_eps is None:
                raise ConfigError("wideband budget needs eps_avg_fraction", field="evm.eps_avg_fraction")
            if evm_mode == "frequency_selective" and evm_profile is None:
                raise ConfigError("frequency-selective budget needs profile_per_prb",
                                  field="evm.profile_per_prb")
        if evm_profile is not None:
            expand_evm_profile(evm_profile, numerology)   # validate coverage

        psd_d = _get(data, "psd", dict, "")
        psd_os = _get(psd_d, "oversample", int, "psd.")
        if psd_os < 4:
            raise ConfigError("PSD oversampling must be at least 4", field="psd.oversample")
        psd_bin = _get(psd_d, "bin_hz", float, "psd.")
        aclr_d = _get(data, "aclr", dict, "")
        aclr_bw = _get(aclr_d, "bw_hz", float, "aclr.")
        aclr_sp = _get(aclr_d, "spacing_hz", float, "aclr.")
        for name, val in (("psd.bin_hz", psd_bin), ("aclr.bw_hz", aclr_bw),
                          ("aclr.spacing_hz", aclr_sp)):
            if not 0 < val < np.inf:                        # NaN fails too
                raise ConfigError("must be positive and finite", field=name)
        span = psd_os * numerology.sample_rate_hz / 2
        if aclr_sp + aclr_bw / 2 > span:
            raise ConfigError("PSD span too narrow for the adjacent bands; raise "
                              "psd.oversample", field="aclr.spacing_hz")

        cfg = cls(numerology=numerology, freq_grid=freq_grid, mask=mask, ref_db=ref_db,
                  inband_ref=inband_ref, n_tx=n_tx, constellation=constellation,
                  seed=seed, symbols=symbols, precoder=precoder,
                  admm=admm, ssp=ssp, eadmm=eadmm, essp=essp,
                  evm_mode=evm_mode, evm_eps_avg=evm_eps, evm_profile=evm_profile,
                  psd_oversample=psd_os, psd_bin_hz=psd_bin,
                  aclr_bw_hz=aclr_bw, aclr_spacing_hz=aclr_sp,
                  out_dir=_get(data, "out_dir", str, ""),
                  emit_waveforms=_get(data, "emit_waveforms", bool, ""),
                  raw=data)
        return cfg

    def evm_constraint(self):
        """The configured budget as an EvmConstraint, or None if absent."""
        if self.evm_mode == "wideband":
            if self.evm_eps_avg is None:
                return None
            return EvmConstraint(mode="wideband", eps_avg=self.evm_eps_avg)
        if self.evm_profile is None:
            return None
        eps = expand_evm_profile(self.evm_profile, self.numerology)
        return EvmConstraint(mode="frequency_selective", eps=eps)

    def psd_config(self):
        """PSD settings with the display reference tied to the calibration.

        The analytic per-antenna in-band kernel power, scaled to a density
        and summed over antennas, is shown at the configured reference dB
        level, so the in-band estimate lands at that level up to estimation
        noise.  The in-band power is the one the mask was calibrated with.
        """
        seg = self.numerology.symbol_len
        fs = self.numerology.sample_rate_hz
        ref_density = self.n_tx * self.inband_ref / (seg * fs)
        return PsdConfig(oversample=self.psd_oversample, bin_hz=self.psd_bin_hz,
                         ref_density=ref_density, ref_db=self.ref_db)

    def normalized(self):
        """The resolved configuration as a plain loadable dict."""
        return copy.deepcopy(self.raw)


def read_scenario(path):
    """The JSON object of a scenario file, not yet validated; a missing
    file, invalid JSON or a root that is not an object raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}", field="config") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}", field="config") from None
    if not isinstance(data, dict):
        raise ConfigError("the root must be an object", field="config")
    return data


def _merge_defaults(base, override):
    for key, val in override.items():
        if key not in base:
            raise ConfigError("unknown configuration key", field=key)
        if isinstance(base[key], dict) and isinstance(val, dict):
            for sub in val:
                if sub not in base[key]:
                    raise ConfigError("unknown configuration key", field=f"{key}.{sub}")
            base[key].update(val)
        else:
            base[key] = val
    return base
