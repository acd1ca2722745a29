import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from framemoe.cli import main
from framemoe.config import (
    BackboneConfig,
    ConfigError,
    ExperimentConfig,
    HeadsConfig,
    MoeConfig,
    StftBlock,
    TrainConfig,
    apply_overrides,
    component_rng,
    component_seed,
    config_digest,
    config_from_dict,
    config_to_dict,
    load_config,
    resolved_yaml,
    validate,
)


def tiny_cfg_dict(output_dir, **data_overrides):
    cfg = ExperimentConfig(seed=0, output_dir=str(output_dir))
    cfg.backbone = BackboneConfig(n_layers=2, width=6, frame=32, hop=16)
    cfg.moe = MoeConfig(n_experts=2, top_k=1, expert_hidden=8,
                        balancing_loss_enabled=True)
    cfg.heads = HeadsConfig(stft=StftBlock(window=32, hop=16, fft_size=32),
                            ser_hidden=8, se_hidden=10)
    cfg.training = TrainConfig(
        phase1_se_epochs=1, phase1_se_batch=4, phase1_ser_epochs=1,
        phase1_ser_batch=4, phase2_epochs=2, phase2_batch=4)
    cfg.data.train_size = 8
    cfg.data.dev_size = 4
    cfg.data.test_size = 4
    cfg.data.utterance_len = 160
    cfg.data.eval_snrs_db = [-5.0, 5.0]
    for key, value in data_overrides.items():
        setattr(cfg.data, key, value)
    validate(cfg)
    return config_to_dict(cfg)


def write_cfg(tmp_path, raw):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_default_config_validates():
    validate(ExperimentConfig())


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys.*bogus"):
        config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match="moe: unknown keys"):
        config_from_dict({"moe": {"n_expert": 3}})
    with pytest.raises(ConfigError, match="heads.stft: unknown keys"):
        config_from_dict({"heads": {"stft": {"window_len": 64}}})
    with pytest.raises(ConfigError, match="mapping"):
        config_from_dict({"moe": 3})
    with pytest.raises(ConfigError, match="mapping"):
        config_from_dict([1, 2])


def test_load_config_roundtrip(tmp_path):
    cfg = ExperimentConfig(seed=7)
    cfg.moe.n_experts = 5
    cfg.moe.top_k = 2
    path = tmp_path / "cfg.yaml"
    path.write_text(resolved_yaml(cfg))
    loaded = load_config(path)
    assert config_to_dict(loaded) == config_to_dict(cfg)
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert config_to_dict(load_config(empty)) == config_to_dict(ExperimentConfig())
    assert config_to_dict(load_config(None)) == config_to_dict(ExperimentConfig())


def test_apply_overrides_parses_yaml_scalars():
    cfg = ExperimentConfig()
    out = apply_overrides(cfg, [
        "moe.n_experts=5",
        "data.train_snr_db=2.5",
        "backbone.unfrozen=true",
        "data.train_noise_family=ambient",
        "backbone.seed=null",
        "heads.stft.fft_size=128",
    ])
    assert out.moe.n_experts == 5
    assert out.data.train_snr_db == 2.5
    assert out.backbone.unfrozen is True
    assert out.data.train_noise_family == "ambient"
    assert out.backbone.seed is None
    assert out.heads.stft.fft_size == 128
    # The input config is untouched.
    assert cfg.moe.n_experts == 3
    assert cfg.backbone.unfrozen is False


def test_apply_overrides_errors():
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError, match="not of the form"):
        apply_overrides(cfg, ["moe.n_experts"])
    with pytest.raises(ConfigError, match="no config section"):
        apply_overrides(cfg, ["nosuch.key=1"])
    with pytest.raises(ConfigError, match="no config key"):
        apply_overrides(cfg, ["moe.n_expert=1"])


def test_validate_collects_every_problem():
    cfg = ExperimentConfig()
    cfg.moe.n_experts = 0
    cfg.moe.balancing_alpha = -1.0
    cfg.backbone.frame = 64
    cfg.heads.stft = StftBlock(window=32, hop=16, fft_size=32)
    cfg.data.train_size = 0
    with pytest.raises(ConfigError) as exc_info:
        validate(cfg)
    message = str(exc_info.value)
    for fragment in ("n_experts", "balancing_alpha", "must match backbone",
                     "split sizes"):
        assert fragment in message


def test_validate_balancing_needs_top1():
    cfg = ExperimentConfig()
    cfg.moe.n_experts = 3
    cfg.moe.top_k = 2
    cfg.moe.balancing_loss_enabled = True
    with pytest.raises(ConfigError, match="top_k == 1"):
        validate(cfg)


def test_validate_rejects_duplicate_eval_snrs(tmp_path, capsys):
    cfg = ExperimentConfig()
    cfg.data.eval_snrs_db = [-5.0, 0.0, -5.0]
    with pytest.raises(ConfigError, match="eval_snrs_db lists an SNR twice"):
        validate(cfg)
    # Caught before training starts: no run directory is written.
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(tmp_path / "run"))
    assert main(["train", "--config", cfg_path,
                 "--set", "data.eval_snrs_db=[-5,-5]"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_digest_stable_and_sensitive():
    a = ExperimentConfig()
    b = ExperimentConfig()
    assert config_digest(a) == config_digest(b)
    b.moe.n_experts = 5
    assert config_digest(a) != config_digest(b)
    assert len(config_digest(a)) == 64


def test_resolved_yaml_is_canonical():
    cfg = ExperimentConfig()
    text = resolved_yaml(cfg)
    assert yaml.safe_load(text) == config_to_dict(cfg)
    top_keys = [line.split(":")[0] for line in text.splitlines()
                if line and not line.startswith(" ")]
    assert top_keys == sorted(top_keys)


def test_component_seeds_are_disjoint_and_deterministic():
    a = component_rng(0, "corpus").standard_normal(5)
    b = component_rng(0, "corpus").standard_normal(5)
    np.testing.assert_array_equal(a, b)
    c = component_rng(0, "model").standard_normal(5)
    assert not np.array_equal(a, c)
    d = component_rng(1, "corpus").standard_normal(5)
    assert not np.array_equal(a, d)
    e = component_rng(0, "noise", 3).standard_normal(5)
    f = component_rng(0, "noise", 4).standard_normal(5)
    assert not np.array_equal(e, f)
    with pytest.raises(KeyError):
        component_seed(0, "nonsense")


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_cli_gen_writes_corpus(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(tmp_path / "run"))
    assert main(["gen", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "corpus written" in out
    corpus = tmp_path / "run" / "corpus"
    assert (corpus / "manifest.jsonl").exists()
    assert (corpus / "signals.f32").exists()


def test_config_values_of_the_wrong_type_are_config_errors(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(tmp_path / "run"))
    assert main(["gen", "--config", cfg_path, "--set", "moe.n_experts=abc"]) == 1
    assert "moe.n_experts: expected int" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    for item in ("moe.top_k=true", "backbone.unfrozen=1", "data.eval_snrs_db=5",
                 "data.class_proportions=[1,2,x,4]", "seed=0.5", "output_dir=3"):
        with pytest.raises(ConfigError, match="expected"):
            apply_overrides(ExperimentConfig(), [item])
    # Ints are valid floats, and a null backbone seed is allowed.
    cfg = apply_overrides(ExperimentConfig(), ["data.train_snr_db=5", "backbone.seed=null",
                                               "backbone.seed=3"])
    assert cfg.data.train_snr_db == 5 and cfg.backbone.seed == 3


@pytest.mark.parametrize("item", [
    "data.train_snr_db=.nan",
    "data.eval_snrs_db=[.nan]",
    "ssnr.floor_db=.nan",
    "training.lr_heads_gates_experts=.inf",
])
def test_nonfinite_config_floats_are_config_errors(tmp_path, capsys, item):
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(tmp_path / "run"))
    assert main(["train", "--config", cfg_path, "--set", item]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "expected" in err and "finite float" in err
    assert not (tmp_path / "run").exists()
    # Huge ints are still finite floats.
    apply_overrides(ExperimentConfig(), [f"ssnr.ceil_db={10 ** 400}"])


def test_validate_rejects_unknown_noise_family(tmp_path, capsys):
    cfg = ExperimentConfig()
    cfg.data.train_noise_family = "traffic"
    with pytest.raises(ConfigError, match="train_noise_family"):
        validate(cfg)
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(tmp_path / "run"))
    assert main(["train", "--config", cfg_path,
                 "--set", "data.train_noise_family=traffic"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_split_with_an_empty_class_is_a_config_error(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(tmp_path / "run"))
    # Three train utterances cannot cover four classes. Caught before any
    # corpus or run file is written, by train and by ablate.
    for command in ("train", "ablate"):
        assert main([command, "--config", cfg_path, "--set", "data.train_size=3"]) == 1
        assert "leaves a class without training utterances" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
    # The gradient audit's two-utterance train split stays valid: it is
    # never trained on.
    validate(config_from_dict(tiny_cfg_dict(tmp_path / "audit", train_size=2)))


def test_utterances_shorter_than_two_frames_are_a_config_error(tmp_path, capsys):
    # The tiny config frames 32 samples at hop 16: 47 samples give one frame,
    # 48 give two (scored with segmental-SNR frames that fit in 48 samples).
    ok = tiny_cfg_dict(tmp_path / "ok")
    ok["data"]["utterance_len"] = 48
    ok["ssnr"].update(frame=32, hop=16)
    validate(config_from_dict(ok))
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(tmp_path / "run"))
    assert main(["train", "--config", cfg_path, "--set", "data.utterance_len=47"]) == 1
    assert "fewer than two frames" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_ssnr_frames_longer_than_the_scored_span_are_a_config_error(tmp_path, capsys):
    # 160 samples framed 32 at hop 16: nine frames, a scored span of 160.
    raw = tiny_cfg_dict(tmp_path / "ok")
    raw["ssnr"].update(frame=160, hop=80)
    validate(config_from_dict(raw))
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(tmp_path / "run"))
    assert main(["train", "--config", cfg_path,
                 "--set", "ssnr.frame=192", "--set", "ssnr.hop=96"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "ssnr.frame=192" in err
    assert not (tmp_path / "run").exists()


def test_stft_framing_other_than_the_backbone_framing_is_a_config_error(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(tmp_path / "run"))
    assert main(["train", "--config", cfg_path, "--set", "heads.stft.fft_size=128"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "heads.stft" in err and "fft_size=128" in err
    assert not (tmp_path / "run").exists()


def test_cli_config_error_is_exit_code_1(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(tmp_path / "run"))
    assert main(["gen", "--config", cfg_path, "--set", "moe.n_experts=0"]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["gen", "--config", cfg_path, "--set", "nosuch=1"]) == 1
    assert main(["train", "--config", cfg_path,
                 "--set", "moe.top_k=5"]) == 1


def test_cli_eval_before_train_is_exit_code_1(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["eval", "--run", str(empty)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_train_eval_analyze_pipeline(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(tmp_path / "run"))
    assert main(["train", "--config", cfg_path]) == 0
    run = tmp_path / "run"
    for name in ("resolved_config.yaml", "checkpoint_phase1.json",
                 "checkpoint_final.json", "losses.csv", "losses_phase1.csv",
                 "report.json"):
        assert (run / name).exists(), name
    out = capsys.readouterr().out
    assert "best epoch" in out

    assert main(["eval", "--run", str(run)]) == 0
    assert (run / "metrics.csv").exists()
    out = capsys.readouterr().out
    assert "f1_macro" in out
    # 3 families x 2 SNRs.
    assert len(out.strip().splitlines()) == 6

    assert main(["analyze", "--run", str(run)]) == 0
    for name in ("switch_agreement.csv", "usage_by_snr.csv",
                 "usage_by_label.csv"):
        assert (run / name).exists(), name
    report = json.loads((run / "report.json").read_text())
    assert report["schema"] == "framemoe-report"
    assert "metrics" in report and "analytics" in report


def test_cli_gradcheck_writes_report_and_exit_codes(tmp_path, capsys):
    raw = tiny_cfg_dict(tmp_path / "run")
    raw["moe"]["n_experts"] = 1
    cfg_path = write_cfg(tmp_path, raw)
    out_path = tmp_path / "audit.json"
    assert main(["gradcheck", "--config", cfg_path, "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["passed"] is True
    assert set(report) >= {"frozen", "unfrozen", "step", "tolerance",
                           "runtime_s", "passed"}
    printed = capsys.readouterr().out
    assert "frozen" in printed and "unfrozen" in printed

    # An unreachable tolerance turns the same audit into exit code 2.
    assert main(["gradcheck", "--config", cfg_path, "--out", str(out_path),
                 "--tolerance", "1e-30"]) == 2
    assert "gradient audit failed" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["gradcheck", "--step", "0"],
    ["gradcheck", "--step", "nan"],
    ["gradcheck", "--tolerance", "-0.5"],
    ["gradcheck", "--tolerance", "inf"],
    ["ablate", "--jobs", "0"],
])
def test_cli_audit_step_tolerance_and_ablate_jobs_are_checked(tmp_path, capsys, args):
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(tmp_path / "run"))
    out_path = tmp_path / "audit.json"
    extra = ["--out", str(out_path)] if args[0] == "gradcheck" else []
    assert main([args[0], "--config", cfg_path, *extra, *args[1:]]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and args[1].lstrip("-") in err
    assert not out_path.exists() and not (tmp_path / "run").exists()
