"""Scenario configuration: JSON with explicit units on every physical field.

A scenario file fully determines a run: numerology, constraint frequencies
(Hz), mask values (dB per 100 kHz relative to the declared reference level),
per-solver settings, the error-budget block, constellation, seed, and symbol
count.  The default scenario is a 5 MHz 15 kHz-SCS carrier (N = 512,
N_CP = 36, 25 resource blocks slightly asymmetric around DC) with eight
constraint points just outside the occupied band.

``ScenarioConfig.from_dict`` first merges a scenario into DEFAULT_SCENARIO
in one checked pass: every key must be a key of the default, and every
value must have the kind of its default (a float key takes an int too, no
number key takes a bool, a list's entries have the kind of the default
list's first entry); only the keys of _NULLABLE take null.  Range checks
live in the objects built from the merged dict (numerology, frequency grid,
mask, error budget, solver settings) and in ``from_dict`` for its own keys,
so a malformed scenario raises ConfigError before a run starts.  The merged
dict keeps the values as written and is what ``normalized`` returns.
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
from .signal_model import FrequencyGrid, OfdmNumerology, qam_constellation
from .unconstrained import AdmmConfig, SspConfig

PRECODERS = tuple(PRECODER_TABLE)

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
    "essp": {"outer_iters": 10, "inner_sweeps": 2, "early_stop": True},
    "evm": {"mode": "wideband", "eps_avg_fraction": 0.08, "profile_per_prb": None},
    "psd": {"oversample": 4},
    "aclr": {"bw_hz": 4_500_000.0, "spacing_hz": 5_000_000.0},
    "out_dir": "out",
    "emit_waveforms": False,
}

MASK2_DB = [-85.0, -85.0, -75.0, -75.0, -75.0, -75.0, -85.0, -85.0]


# The keys that accept null, with the kind of their other values.  A null
# numerology key takes OfdmNumerology.centered's default (a band centred on
# DC, 12-subcarrier blocks), a null residual_tol runs every iteration, and a
# null eps_avg_fraction or profile_per_prb leaves that budget out.
_NULLABLE = {
    "numerology.first_offset": int,
    "numerology.prb_size": int,
    "admm.residual_tol": float,
    "eadmm.residual_tol": float,
    "evm.eps_avg_fraction": float,
    "evm.profile_per_prb": list,
}


def _is_kind(val, kind):
    """Whether a JSON value has a key's kind: a float key takes an int as
    well, and no number key takes a bool."""
    if kind is float:
        return isinstance(val, (int, float)) and not isinstance(val, bool)
    if kind is int:
        return isinstance(val, int) and not isinstance(val, bool)
    return isinstance(val, kind)


def _resolve(default, given, path):
    """``given`` merged into ``default`` and checked against it, key by key.

    An unknown key, a null outside _NULLABLE and a value of another kind
    than its default (a list entry: than the default list's first entry)
    raise ConfigError under the dotted path.  The values are kept as given;
    the result shares no list or dict with ``default``.
    """
    if given is None:
        if path in _NULLABLE:
            return None
        raise ConfigError("missing required field", field=path)
    kind = _NULLABLE.get(path, type(default))
    if not _is_kind(given, kind):
        raise ConfigError(f"expected {kind.__name__}, got {type(given).__name__}", field=path)
    if kind is dict:
        prefix = f"{path}." if path else ""
        for key in given:
            if key not in default:
                raise ConfigError("unknown configuration key", field=prefix + key)
        return {key: _resolve(val, given.get(key, val), prefix + key)
                for key, val in default.items()}
    if kind is list:
        entry_kind = type(default[0]) if default else object
        for i, entry in enumerate(given):
            if not _is_kind(entry, entry_kind):
                raise ConfigError(f"expected {entry_kind.__name__}, got {type(entry).__name__}",
                                  field=f"{path}[{i}]")
        return list(given)
    return given


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
    evm_eps_avg: float
    psd_oversample: int
    aclr_bw_hz: float
    aclr_spacing_hz: float
    out_dir: str
    emit_waveforms: bool
    raw: dict = field(repr=False, default=None)
    _budget: EvmConstraint = field(repr=False, default=None)

    @classmethod
    def from_dict(cls, data):
        data = _resolve(DEFAULT_SCENARIO, data, "")
        numerology = OfdmNumerology.centered(
            **{key: val for key, val in data["numerology"].items() if val is not None})
        freq_grid = FrequencyGrid.from_hz(data["frequencies_hz"], numerology.scs_hz)
        mask_db = data["mask_db_per_100khz"]
        if len(mask_db) != freq_grid.size:
            raise ConfigError("one mask value per frequency point is required",
                              field="mask_db_per_100khz")
        ref_db = data["reference_level_db_per_100khz"]
        inband_ref = analytic_inband_reference(numerology)
        mask = calibrate_mask(mask_db, numerology, ref_db, reference_power=inband_ref)

        precoder = data["precoder"]
        if precoder not in PRECODERS:
            raise ConfigError(f"unknown precoder {precoder!r}; choose from {PRECODERS}",
                              field="precoder")
        qam_constellation(data["constellation"])
        if data["n_tx"] < 1:
            raise ConfigError("n_tx must be at least 1", field="n_tx")
        if not 0 <= data["seed"] < 2 ** 128:                  # a Philox key has 128 bits
            raise ConfigError("seed must be a non-negative integer below 2**128", field="seed")
        if data["symbols"] < 1:
            raise ConfigError("symbols must be at least 1", field="symbols")
        solvers = {}
        for block, kind in (("admm", AdmmConfig), ("ssp", SspConfig), ("eadmm", AdmmConfig),
                            ("essp", EsspConfig)):
            try:
                solvers[block] = kind(**data[block])
            except ConfigError as exc:
                # the eadmm block shares AdmmConfig, whose checks name admm.*
                key = exc.field.rpartition(".")[2]
                raise ConfigError(exc.reason, field=f"{block}.{key}") from None

        # the whole evm block is checked whatever the precoder, and a
        # budgeted precoder gets the one budget of its mode
        evm = data["evm"]
        evm_mode, evm_eps, evm_profile = evm["mode"], evm["eps_avg_fraction"], evm["profile_per_prb"]
        if evm_mode not in ("wideband", "frequency_selective"):
            raise ConfigError("mode must be wideband or frequency_selective", field="evm.mode")
        if evm_eps is not None and not 0 <= evm_eps < np.inf:          # NaN fails too
            raise ConfigError("wideband budget needs a finite eps_avg >= 0",
                              field="evm.eps_avg_fraction")
        eps = None if evm_profile is None else expand_evm_profile(evm_profile, numerology)
        budgets = PRECODER_TABLE[precoder].budgets
        budget = None
        if budgets:
            if evm_mode not in budgets:
                raise ConfigError(f"precoder {precoder!r} takes {' or '.join(budgets)} "
                                  "budgets only", field="evm.mode")
            key, arg, value = (("eps_avg_fraction", "eps_avg", evm_eps) if evm_mode == "wideband"
                               else ("profile_per_prb", "eps", eps))
            if value is None:
                raise ConfigError(f"{evm_mode.replace('_', '-')} budget needs {key}",
                                  field=f"evm.{key}")
            budget = EvmConstraint(mode=evm_mode, **{arg: value})

        psd_os = data["psd"]["oversample"]
        if psd_os < 4:
            raise ConfigError("PSD oversampling must be at least 4", field="psd.oversample")
        aclr_bw, aclr_sp = data["aclr"]["bw_hz"], data["aclr"]["spacing_hz"]
        for name, val in (("aclr.bw_hz", aclr_bw), ("aclr.spacing_hz", aclr_sp)):
            if not 0 < val < np.inf:                        # NaN fails too
                raise ConfigError("must be positive and finite", field=name)
        span = numerology.oversampled(psd_os).sample_rate_hz / 2
        if aclr_sp + aclr_bw / 2 > span:
            raise ConfigError("PSD span too narrow for the adjacent bands; raise "
                              "psd.oversample", field="aclr.spacing_hz")

        return cls(numerology=numerology, freq_grid=freq_grid, mask=mask, ref_db=ref_db,
                   inband_ref=inband_ref, n_tx=data["n_tx"], constellation=data["constellation"],
                   seed=data["seed"], symbols=data["symbols"], precoder=precoder, **solvers,
                   evm_eps_avg=evm_eps, psd_oversample=psd_os,
                   aclr_bw_hz=aclr_bw, aclr_spacing_hz=aclr_sp,
                   out_dir=data["out_dir"], emit_waveforms=data["emit_waveforms"],
                   raw=data, _budget=budget)

    def evm_constraint(self):
        """The budget the precoder applies, as an EvmConstraint: None for a
        precoder that takes no budget (its PRECODER_TABLE entry names no
        mode), whatever the evm block holds."""
        return self._budget

    def psd_config(self):
        """PSD settings with the display reference tied to the calibration.

        The bins are PsdConfig's 100 kHz, the bandwidth that the mask and
        the reference level are stated per (mask_db_per_100khz).  The
        analytic per-antenna in-band kernel power, scaled to a density and
        summed over antennas, is shown at the configured reference dB
        level, so the in-band estimate lands at that level up to estimation
        noise.  The in-band power is the one the mask was calibrated with.
        """
        seg = self.numerology.symbol_len
        fs = self.numerology.sample_rate_hz
        ref_density = self.n_tx * self.inband_ref / (seg * fs)
        return PsdConfig(oversample=self.psd_oversample, ref_density=ref_density,
                         ref_db=self.ref_db)

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

