import numpy as np
import pytest

from optlab.blocks import ParamBlock
from optlab.config import (
    DEFAULTS,
    KNOWN_KEYS,
    config_hash,
    format_config,
    parse_config_text,
    parse_overrides,
    parse_value,
    resolve,
    validate_keys,
)
from optlab.errors import ConfigurationError
from optlab.harness import optimizer_params
from optlab.optimizers import OPTIMIZER_NAMES, make_optimizer
from optlab.presets import get_preset, list_presets, preset_tags


class TestGrammar:
    def test_value_parsing(self):
        assert parse_value("3") == 3
        assert parse_value("3.5") == 3.5
        assert parse_value("1e-8") == 1e-8
        assert parse_value("true") is True
        assert parse_value("false") is False
        assert parse_value("none") is None
        assert parse_value("cosine") == "cosine"

    def test_parse_and_format_round_trip(self):
        text = "optimizer.lr = 0.001\nrun.steps = 50\nrun.clip = none\n"
        cfg = parse_config_text(text)
        again = parse_config_text(format_config(cfg))
        assert again == cfg

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# a comment\n\nrun.steps = 5\n")
        assert cfg == {"run.steps": 5}

    def test_error_reports_line(self):
        with pytest.raises(ConfigurationError, match=":2:"):
            parse_config_text("run.steps = 5\nbogus line\n", source="f.cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config_text("a.b = 1\na.b = 2\n")

    def test_malformed_key(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            parse_config_text("Run.Steps = 5\n")

    def test_overrides(self):
        assert parse_overrides(["optimizer.lr=0.5", "run.clip=none"]) == {
            "optimizer.lr": 0.5,
            "run.clip": None,
        }
        with pytest.raises(ConfigurationError):
            parse_overrides(["lr:0.5"])


class TestResolve:
    def test_precedence_defaults_preset_file_set(self):
        # adamw/124m-large sets optimizer.lr = 0.001 and schedule.warmup_steps = 2000
        file_cfg = {"optimizer.name": "adamw", "optimizer.preset": "124m-large", "schedule.warmup_steps": 5}
        overrides = {"optimizer.lr": 0.5}
        cfg = resolve(file_cfg, overrides)
        assert cfg["optimizer.lr"] == 0.5
        assert cfg["schedule.warmup_steps"] == 5
        assert cfg["problem.kind"] == DEFAULTS["problem.kind"]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            resolve({"optimizer.learning_rate": 0.1})
        validate_keys({"optimizer.lr": 0.1})

    @pytest.mark.parametrize(
        "key,value,needs",
        [
            ("run.steps", 2.5, "a whole number"),
            ("run.log_every", "fast", "a whole number"),
            ("run.clip", "fast", "a number or none"),
            ("run.coupled_wd_demo", 1, "true or false"),
            ("problem.kind", 3, "text"),
            ("problem.condition", True, "a number"),
        ],
    )
    def test_value_unlike_its_default_rejected(self, key, value, needs):
        with pytest.raises(ConfigurationError, match=f"config key '{key}' needs {needs}, got"):
            resolve({key: value})

    @pytest.mark.parametrize(
        "settings,message",
        [
            ({"run.clip": 0}, "clip threshold must be positive, got 0.0"),
            ({"run.clip": -1.5}, "clip threshold must be positive, got -1.5"),
        ],
    )
    def test_value_out_of_range_rejected(self, settings, message):
        with pytest.raises(ConfigurationError, match=message):
            resolve(settings)

    def test_unused_or_unlimited_values_still_resolve(self):
        assert resolve({"run.clip": float("inf")})["run.clip"] == float("inf")
        assert resolve({"problem.kind": "mlp", "problem.condition": 0.5})["problem.condition"] == 0.5

    def test_none_only_where_the_default_is_none(self):
        assert resolve({"run.clip": None, "schedule.final_lr_factor": None})["run.clip"] is None
        with pytest.raises(ConfigurationError, match="'run.steps' needs a whole number, got None"):
            resolve({"run.steps": None})

    def test_resolving_twice_changes_nothing(self):
        cfg = resolve({"optimizer.name": "lion", "optimizer.preset": "124m-small"}, {"optimizer.lr": 0.5})
        assert resolve(cfg) == cfg

    def test_hash_ignores_seed(self):
        a = resolve({"run.seed": 1})
        b = resolve({"run.seed": 2})
        assert config_hash(a) == config_hash(b)
        c = resolve({"optimizer.lr": 0.123})
        assert config_hash(a) != config_hash(c)


class TestPresets:
    def test_every_optimizer_has_a_preset(self):
        names = {name for name, _ in list_presets()}
        assert names == set(OPTIMIZER_NAMES)
        for name in OPTIMIZER_NAMES:
            assert preset_tags(name), name

    def test_unknown_tag_reports_alternatives(self):
        with pytest.raises(ConfigurationError, match="124m-small"):
            get_preset("adamw", "1b")

    @pytest.mark.parametrize(
        "name,tag,key,expected",
        [
            ("adamw", "124m-small", "optimizer.lr", 0.0005),
            ("adamw", "124m-large", "optimizer.beta2", 0.999),
            ("adamw", "124m-large", "run.clip", 0.5),
            ("adopt", "124m-small", "optimizer.eps", 1e-6),
            ("ademamix", "124m-small", "optimizer.alpha", 8),
            ("ademamix", "124m-small", "optimizer.beta3", 0.9999),
            ("lion", "124m-small", "optimizer.weight_decay", 0.5),
            ("signum", "124m-small", "optimizer.momentum", 0.95),
            ("signum", "124m-small", "optimizer.nesterov", True),
            ("muon", "124m-large", "optimizer.lr", 0.01),
            ("muon", "124m-large", "optimizer.ns_a", 3.4445),
            ("muon", "124m-large", "optimizer.ns_b", -4.7750),
            ("muon", "124m-large", "optimizer.ns_c", 2.0315),
            ("dmuon", "124m-large", "optimizer.lr", 0.002),
            ("soap", "124m-small", "optimizer.precond_freq", 10),
            ("soap", "124m-small", "optimizer.precond_max_dim", 10000),
            ("sophia", "124m-small", "optimizer.rho", 0.04),
            ("sophia", "124m-small", "optimizer.estimator_freq", 10),
            ("sf-adamw", "124m-small", "optimizer.beta2", 0.9999),
            ("prodigy", "124m-small", "optimizer.lr", 1),
            ("prodigy", "124m-small", "optimizer.bias_correction", True),
            ("mars-adamw", "124m-small", "optimizer.eta", 0.025),
            ("mars-adamw", "124m-small", "optimizer.beta1", 0.95),
            ("mars-lion", "124m-small", "optimizer.lr", 0.0001),
            ("mars-shampoo", "124m-small", "optimizer.lr", 0.003),
        ],
    )
    def test_preset_values_match_tuning_tables(self, name, tag, key, expected):
        assert get_preset(name, tag)[key] == expected

    def test_presets_resolve_into_valid_configs(self):
        blocks = [ParamBlock("w", np.zeros((3, 4)), role="matrix"), ParamBlock("b", np.zeros(4))]
        for name, tag in list_presets():
            cfg = resolve({"optimizer.name": name, "optimizer.preset": tag})
            assert cfg["optimizer.name"] == name
            assert cfg == {**cfg, **get_preset(name, tag)}
            engine = make_optimizer(name, blocks, cfg["run.steps"], optimizer_params(cfg))
            assert engine.name == name


def test_optimizer_keys_are_the_engines_hyperparameters():
    keys = {k.split(".", 1)[1] for k in KNOWN_KEYS if k.startswith("optimizer.")}
    assert keys - {"name", "preset"} == {
        "lr", "lr_1d", "weight_decay", "weight_decay_1d", "eps", "beta1", "beta2", "beta3", "alpha",
        "beta_start", "t_alpha", "t_beta3", "momentum", "nesterov", "dampening", "ns_iters", "ns_a", "ns_b",
        "ns_c", "precond_freq", "precond_max_dim", "bias_correction", "identity_init", "rho", "estimator_freq",
        "sf_warmup", "eta", "beta1_1d", "beta2_1d", "rms_factor", "d0",
    }
