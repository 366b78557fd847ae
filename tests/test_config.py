"""Scenario configuration: defaults, validation, and derived objects."""

import copy
import dataclasses
import json

import numpy as np
import pytest

from specprecode import (AdmmConfig, ConfigError, EsspConfig, EvmConstraint, ScenarioConfig,
                         SspConfig, analytic_inband_reference, config, metrics)
from specprecode.config import (DEFAULT_SCENARIO, EDGE_RAMP, MASK2_DB,
                                expand_evm_profile, read_scenario, selective_edge_profile)

from conftest import small_numerology


def float_settings(tree=DEFAULT_SCENARIO, path=()):
    """(name, path) of every float setting of DEFAULT_SCENARIO: each float
    key, each nullable key of kind float and each entry of a float list;
    the path holds the keys and the list index that lead to it."""
    for key, val in tree.items():
        at = path + (key,)
        name = ".".join(at)
        if isinstance(val, dict):
            yield from float_settings(val, at)
        elif isinstance(val, list) and val and type(val[0]) is float:
            yield from ((f"{name}[{i}]", at + (i,)) for i in range(len(val)))
        elif type(val) is float or config._NULLABLE.get(name) is float:
            yield name, at


class TestDefaults:
    def test_empty_dict_resolves(self):
        cfg = ScenarioConfig.from_dict({})
        num = cfg.numerology
        assert (num.fft_size, num.cp_len, num.n_active, num.prb_size) == (512, 36, 300, 12)
        assert num.n_prb == 25
        assert cfg.freq_grid.size == 8
        assert cfg.precoder == "ssp" and cfg.constellation == "64QAM"
        assert (cfg.seed, cfg.symbols, cfg.n_tx) == (1, 20, 2)
        # the default ssp takes no budget, so none is applied
        assert cfg.evm_constraint() is None and cfg.evm_eps_avg == 0.08
        assert cfg.psd_oversample == 4

    def test_solver_settings_are_the_public_defaults(self):
        # DEFAULT_SCENARIO and the *_precode functions each write the
        # solvers' defaults; a scenario run and a call without a cfg agree
        cfg = ScenarioConfig.from_dict({})
        assert cfg.admm == AdmmConfig()
        assert cfg.ssp == SspConfig()
        assert cfg.eadmm == AdmmConfig(iters=40)
        assert cfg.essp == EsspConfig()

    def test_looser_mask_entries_get_larger_bounds(self):
        cfg = ScenarioConfig.from_dict({})
        mask_db = np.asarray(cfg.raw["mask_db_per_100khz"])
        tight = cfg.mask.gamma[mask_db == -75.0]
        loose = cfg.mask.gamma[mask_db == -65.0]
        assert loose.min() > tight.max()

    def test_second_mask_is_uniformly_tighter(self):
        assert len(MASK2_DB) == len(DEFAULT_SCENARIO["mask_db_per_100khz"])
        assert all(b < a for a, b in zip(DEFAULT_SCENARIO["mask_db_per_100khz"],
                                         MASK2_DB))

    def test_normalized_round_trips(self):
        cfg = ScenarioConfig.from_dict({"seed": 5, "ssp": {"sweeps": 7}})
        again = ScenarioConfig.from_dict(cfg.normalized())
        assert again.seed == 5 and again.ssp.sweeps == 7
        assert again.normalized() == cfg.normalized()

    def test_normalized_is_a_copy(self):
        cfg = ScenarioConfig.from_dict({})
        snap = cfg.normalized()
        snap["numerology"]["fft_size"] = 64
        assert cfg.normalized()["numerology"]["fft_size"] == 512


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"bandwidth": 5e6})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"ssp": {"momentum": 0.9}})

    @pytest.mark.parametrize("block,key,value", [("essp", "tau", 1.0),
                                                 ("ssp", "clamp_nonneg", True),
                                                 ("ssp", "phase", "track")])
    def test_removed_solver_keys_rejected(self, block, key, value):
        with pytest.raises(ConfigError, match="unknown configuration key") as info:
            ScenarioConfig.from_dict({block: {key: value}})
        assert info.value.field == f"{block}.{key}"

    @pytest.mark.parametrize("block", ["admm", "ssp", "eadmm", "essp"])
    def test_every_solver_key_reaches_a_field(self, block):
        # a key that no solver field reads could not change a result
        solver_cfg = getattr(ScenarioConfig.from_dict({}), block)
        fields = {f.name for f in dataclasses.fields(solver_cfg)}
        assert set(DEFAULT_SCENARIO[block]) == fields

    @pytest.mark.parametrize("data,field,message", [
        ({"numerology": {"fft_size": "big"}}, "numerology.fft_size", "expected int, got str"),
        ({"seed": True}, "seed", "expected int, got bool"),
        ({"frequencies_hz": 5e6}, "frequencies_hz", "expected list, got float"),
        ({"symbols": 20.0}, "symbols", "expected int, got float"),
        ({"aclr": {"bw_hz": True}}, "aclr.bw_hz", "expected float, got bool"),
        ({"essp": {"inner_sweeps": None}}, "essp.inner_sweeps", "missing required field"),
    ], ids=["str-for-int", "bool-for-int", "float-for-list", "float-for-int",
            "bool-for-float", "null-for-int"])
    def test_wrong_types_rejected(self, data, field, message):
        with pytest.raises(ConfigError, match=message) as info:
            ScenarioConfig.from_dict(data)
        assert info.value.field == field

    def test_int_for_float_kept_as_written(self):
        cfg = ScenarioConfig.from_dict({"numerology": {"scs_hz": 15000}})
        written = cfg.normalized()["numerology"]["scs_hz"]
        assert written == 15000 and type(written) is int
        assert cfg.numerology.scs_hz == 15000.0
        assert type(DEFAULT_SCENARIO["numerology"]["scs_hz"]) is float

    def test_null_keys_keep_their_meaning(self):
        cfg = ScenarioConfig.from_dict({"numerology": {"first_offset": None, "prb_size": None},
                                        "admm": {"residual_tol": None}})
        assert cfg.numerology.active_offsets[0] == -150 and cfg.numerology.prb_size == 12
        assert cfg.admm.residual_tol is None
        assert cfg.normalized()["numerology"]["prb_size"] is None

    def test_value_ranges(self):
        for bad in ({"n_tx": 0}, {"seed": -1}, {"symbols": 0},
                    {"precoder": "zf"}, {"constellation": "czerwony"}):
            with pytest.raises(ConfigError):
                ScenarioConfig.from_dict(bad)

    def test_mask_length_must_match_frequencies(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"mask_db_per_100khz": [-75.0, -65.0]})

    def test_solver_blocks_validated(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"admm": {"rho": -1.0}})
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"ssp": {"sweeps": 0}})
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"essp": {"inner_sweeps": 0}})

    def test_budgeted_precoders_need_a_budget(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"precoder": "essp",
                                      "evm": {"eps_avg_fraction": None}})
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"precoder": "essp",
                                      "evm": {"mode": "frequency_selective"}})
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"precoder": "ensp",
                                      "evm": {"mode": "frequency_selective",
                                              "profile_per_prb": [0.1] * 25}})

    @pytest.mark.parametrize("precoder", ["ssp", "essp"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("path", [path for _, path in float_settings()],
                             ids=[name for name, _ in float_settings()])
    def test_nonfinite_float_settings_rejected(self, path, value, precoder):
        # every float setting, with or without a budget that reads it
        data = copy.deepcopy(DEFAULT_SCENARIO)
        data["precoder"] = precoder
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(data)

    def test_unbudgeted_precoder_tolerates_missing_budget(self):
        cfg = ScenarioConfig.from_dict({"evm": {"eps_avg_fraction": None}})
        assert cfg.evm_constraint() is None

    def test_profile_coverage_checked_up_front(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"evm": {"mode": "frequency_selective",
                                              "profile_per_prb": [0.1] * 3}})

    def test_psd_oversample_floor(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"psd": {"oversample": 2}})

    @pytest.mark.parametrize("data, field", [
        ({"numerology": {"n_active": 2 ** 62}}, "numerology.n_active"),
        ({"numerology": {"n_active": 513}}, "numerology.n_active"),
        ({"numerology": {"n_active": 0}}, "numerology.n_active"),
        ({"numerology": {"fft_size": 2 ** 62}}, "numerology.fft_size"),
        ({"numerology": {"fft_size": 4097}}, "numerology.fft_size"),
        ({"n_tx": 2 ** 62}, "n_tx"),
        ({"n_tx": 4097}, "n_tx"),
        ({"psd": {"oversample": 2 ** 62}}, "psd.oversample"),
        ({"psd": {"oversample": 65}}, "psd.oversample"),
    ])
    def test_sizes_beyond_their_bounds_rejected(self, data, field):
        with pytest.raises(ConfigError) as info:
            ScenarioConfig.from_dict(data)
        assert info.value.field == field

    def test_sizes_at_their_bounds_accepted(self):
        cfg = ScenarioConfig.from_dict({"numerology": {"fft_size": 4096, "n_active": 4096,
                                                       "first_offset": None},
                                        "n_tx": 4096, "psd": {"oversample": 64}})
        assert (cfg.numerology.fft_size, cfg.numerology.n_active) == (4096, 4096)
        assert (cfg.n_tx, cfg.psd_oversample) == (4096, 64)

    @pytest.mark.parametrize("index, freq", [(0, 20e6), (7, -1e300), (3, 15.36e6 + 1.0)])
    def test_points_beyond_the_psd_span_rejected(self, index, freq):
        # at L = 4 the emitted spectrum spans +-15.36 MHz; a point beyond
        # would alias onto one inside (20 MHz onto -10.72 MHz)
        freqs = list(DEFAULT_SCENARIO["frequencies_hz"])
        freqs[index] = freq
        with pytest.raises(ConfigError, match="PSD span") as info:
            ScenarioConfig.from_dict({"frequencies_hz": freqs})
        assert info.value.field == f"frequencies_hz[{index}]"

    def test_points_within_the_psd_span_accepted(self):
        freqs = list(DEFAULT_SCENARIO["frequencies_hz"])
        freqs[0], freqs[-1] = -15.36e6, 15.36e6
        assert ScenarioConfig.from_dict({"frequencies_hz": freqs}).freq_grid.size == 8
        freqs[0] = 20e6                 # inside +-30.72 MHz at L = 8
        cfg = ScenarioConfig.from_dict({"frequencies_hz": freqs, "psd": {"oversample": 8}})
        assert cfg.freq_grid.to_hz(cfg.numerology.scs_hz)[0] == 20e6

    def test_aclr_bands_must_fit_psd_span(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"aclr": {"spacing_hz": 14e6}})

    @pytest.mark.parametrize("data,field", [
        ({"aclr": {"bw_hz": 0.0}}, "aclr.bw_hz"),
        ({"aclr": {"bw_hz": float("nan")}}, "aclr.bw_hz"),
        ({"aclr": {"spacing_hz": -1.0}}, "aclr.spacing_hz"),
        ({"aclr": {"spacing_hz": float("inf")}}, "aclr.spacing_hz"),
        ({"frequencies_hz": [-5_010_000.0, -4_995_000.0, -2_565_000.0, float("nan"),
                             2_550_000.0, 2_565_000.0, 4_995_000.0, float("inf")]},
         "frequencies"),
    ])
    def test_unusable_band_settings_rejected(self, data, field):
        with pytest.raises(ConfigError) as info:
            ScenarioConfig.from_dict(data)
        assert info.value.field == field


class TestProfiles:
    def test_reference_profile_shape(self):
        prof = selective_edge_profile(25)
        assert len(prof) == 25
        assert prof[0] == EDGE_RAMP and prof[-1] == list(reversed(EDGE_RAMP))
        assert prof[1:4] == [0.12, 0.095, 0.08]
        assert prof[4:21] == [0.07] * 17

    def test_edge_ramp_falls_in_small_steps(self):
        assert EDGE_RAMP[0] == 0.20 and EDGE_RAMP[-1] == 0.125
        steps = np.diff(EDGE_RAMP)
        assert np.all(steps <= 0)
        assert np.all(steps >= -0.01 - 1e-12)

    def test_reference_profile_minimum_size(self):
        assert len(selective_edge_profile(9)) == 9
        with pytest.raises(ConfigError):
            selective_edge_profile(8)

    def test_expand_scalars_and_ramps(self):
        num = small_numerology()          # 8 active, 2 blocks of 4
        eps = expand_evm_profile([[0.1, 0.2, 0.3, 0.4], 0.05], num)
        assert eps.tolist() == [0.1, 0.2, 0.3, 0.4, 0.05, 0.05, 0.05, 0.05]

    def test_expanded_reference_is_symmetric(self):
        cfg = ScenarioConfig.from_dict({})
        eps = expand_evm_profile(selective_edge_profile(25), cfg.numerology)
        assert eps.shape == (300,)
        assert np.array_equal(eps, eps[::-1])
        assert eps[0] == 0.20 and eps[150] == 0.07

    def test_expand_validation(self):
        num = small_numerology()
        with pytest.raises(ConfigError):
            expand_evm_profile([0.1], num)
        with pytest.raises(ConfigError):
            expand_evm_profile([-0.1, 0.1], num)
        with pytest.raises(ConfigError):
            expand_evm_profile([[0.1, 0.2], 0.1], num)
        with pytest.raises(ConfigError):
            expand_evm_profile([[0.1, 0.2, -0.3, 0.4], 0.1], num)

    @pytest.mark.parametrize("profile,index", [
        ([float("nan"), 0.1], 0),
        ([0.1, float("inf")], 1),
        ([[0.1, float("nan"), 0.3, 0.4], 0.1], 0),
        ([0.1, [0.1, 0.2, -float("inf"), 0.4]], 1),
        ([0.1, "a"], 1),
        ([[0.1, "a", 0.3, 0.4], 0.1], 0),
    ])
    def test_expand_rejects_unusable_entries(self, profile, index):
        with pytest.raises(ConfigError) as info:
            expand_evm_profile(profile, small_numerology())
        assert info.value.field == f"evm.profile_per_prb[{index}]"


class TestDerivedObjects:
    def test_wideband_constraint(self):
        con = ScenarioConfig.from_dict({"precoder": "essp"}).evm_constraint()
        assert isinstance(con, EvmConstraint)
        assert con.mode == "wideband" and con.eps_avg == 0.08

    def test_selective_constraint(self):
        cfg = ScenarioConfig.from_dict({
            "precoder": "essp",
            "evm": {"mode": "frequency_selective",
                    "profile_per_prb": selective_edge_profile(25)}})
        con = cfg.evm_constraint()
        assert con.mode == "frequency_selective"
        assert con.eps.shape == (300,) and con.eps[0] == 0.20

    def test_psd_reference_scales_with_antennas(self):
        one = ScenarioConfig.from_dict({"n_tx": 1}).psd_config()
        two = ScenarioConfig.from_dict({"n_tx": 2}).psd_config()
        assert two.ref_density == pytest.approx(2.0 * one.ref_density, rel=1e-12)
        num = ScenarioConfig.from_dict({}).numerology
        expect = analytic_inband_reference(num) / (num.symbol_len * num.sample_rate_hz)
        assert one.ref_density == pytest.approx(expect, rel=1e-12)
        assert one.ref_db == -21.5

    def test_inband_reference_evaluated_once(self, monkeypatch):
        cfg = ScenarioConfig.from_dict({"n_tx": 1})
        num = cfg.numerology
        expect = analytic_inband_reference(num) / (num.symbol_len * num.sample_rate_hz)

        def evaluated_again(*args, **kwargs):
            raise AssertionError("in-band reference evaluated after from_dict")
        monkeypatch.setattr(config, "analytic_inband_reference", evaluated_again)
        monkeypatch.setattr(metrics, "analytic_inband_reference", evaluated_again)
        assert cfg.psd_config().ref_density == expect


class TestLoad:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(read_scenario(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(read_scenario(path))

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(read_scenario(path))

    def test_valid_file(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"seed": 9, "precoder": "admm"}))
        cfg = ScenarioConfig.from_dict(read_scenario(path))
        assert cfg.seed == 9 and cfg.precoder == "admm"
