import json
import math
import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from framemoe.cli import main
from framemoe.config import (
    SECTIONS,
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


def _fields_under(cls, prefix=""):
    """(dotted path, annotation) of every field of a config class, sections
    included, in declaration order and depth first."""
    for f in fields(cls):
        path = f"{prefix}.{f.name}" if prefix else f.name
        yield path, f.type
        if f.type in SECTIONS:
            yield from _fields_under(SECTIONS[f.type], path)


_LEAF_VALUES = {
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False) | st.integers(),
    "bool": st.booleans(),
    "str": st.text(max_size=8),
}


def _leaf_values(annotation):
    if annotation.startswith("list["):
        return st.lists(_leaf_values(annotation[len("list["):-1]), max_size=4)
    return _LEAF_VALUES[annotation]


def _configs(cls=ExperimentConfig):
    return st.builds(cls, **{f.name: _configs(SECTIONS[f.type]) if f.type in SECTIONS
                             else _leaf_values(f.type) for f in fields(cls)})


def _wrong_values(annotation):
    """Values a field of `annotation` must refuse: wrong types (a bool is no
    number), NaN and inf for floats, and null."""
    return {
        "int": [True, 1.5, "1", [1]],
        "float": [False, "1.0", [1.0], math.nan, math.inf, -math.inf],
        "bool": [1, 0, "true", [True]],
        "str": [1, True, ["x"], {"x": 1}],
        "list[int]": [1, "1", [True], [1.5], ["1"], [None]],
        "list[float]": [1.0, "1", [True], [math.nan], [-math.inf], ["1"], [None]],
    }[annotation] + [None]


def _set_at(raw, path, value):
    *sections, leaf = path.split(".")
    for name in sections:
        raw = raw[name]
    raw[leaf] = value


@settings(max_examples=300, deadline=None)
@given(cfg=_configs(), data=st.data())
def test_the_hydrator_round_trips_every_config_and_names_each_corruption(cfg, data):
    raw = config_to_dict(cfg)
    assert config_from_dict(raw) == cfg
    paths = dict(_fields_under(ExperimentConfig))
    sections = [path for path, annotation in paths.items() if annotation in SECTIONS]
    kind = data.draw(st.sampled_from(["unknown-key", "non-mapping", "wrong-leaf"]))
    if kind == "unknown-key":
        where = data.draw(st.sampled_from(["", *sections]))
        keys = data.draw(st.lists(st.sampled_from(["zz_extra", 7, 2.5, None]), min_size=1,
                                  max_size=3, unique=True))
        section = raw
        for name in where.split(".") if where else []:
            section = section[name]
        section.update(dict.fromkeys(keys, 1))
        named = [where or "config", "unknown keys", *map(repr, keys)]
    elif kind == "non-mapping":
        where = data.draw(st.sampled_from(sections))
        _set_at(raw, where, data.draw(st.sampled_from([None, 3, "x", [1], True])))
        named = [f"{where}: expected a mapping"]
    else:
        where = data.draw(st.sampled_from([p for p in paths if p not in sections]))
        _set_at(raw, where, data.draw(st.sampled_from(_wrong_values(paths[where]))))
        named = [f"{where}: expected"]
    with pytest.raises(ConfigError) as exc_info:
        config_from_dict(raw)
    assert all(part in str(exc_info.value) for part in named), (named, exc_info.value)


def _readme_bullet(section):
    text = (Path(__file__).parents[1] / "README.md").read_text()
    configuration = text.split("\n## Configuration\n")[1].split("\n## ")[0]
    bullet = configuration.split(f"\n- `{section}`:")[1]
    return bullet.split("\n- ")[0].split("\n\n")[0]


def test_readme_names_every_config_leaf_in_its_sections_bullet():
    for section, annotation in _fields_under(ExperimentConfig):
        if "." in section or annotation not in SECTIONS:
            continue
        bullet = _readme_bullet(section)
        for path, _ in _fields_under(SECTIONS[annotation], section):
            leaf = path.rsplit(".", 1)[1]
            assert re.search(rf"\b{leaf}\b", bullet), (path, bullet)


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
        "heads.stft.fft_size=128",
    ])
    assert out.moe.n_experts == 5
    assert out.data.train_snr_db == 2.5
    assert out.backbone.unfrozen is True
    assert out.data.train_noise_family == "ambient"
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


@pytest.mark.parametrize("item,field", [
    ("data.train_snr_db=4000", "data.train_snr_db=4000"),
    ("data.train_snr_db=-4000", "data.train_snr_db=-4000"),
    ("data.eval_snrs_db=[0,5000]", "data.eval_snrs_db[1]=5000"),
])
def test_snrs_beyond_300_db_are_one_config_error(tmp_path, capsys, item, field):
    # Mixing would overflow or divide by zero there; gen refuses before any
    # corpus is drawn, and eval never sees such an SNR.
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(tmp_path / "run"))
    assert main(["gen", "--config", cfg_path, "--set", item]) == 1
    err = capsys.readouterr().err
    assert f"SNRs must lie within [-300, 300] dB, got {field}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()
    validate(apply_overrides(ExperimentConfig(), ["data.train_snr_db=-300",
                                                  "data.eval_snrs_db=[-300,300]"]))


@pytest.mark.parametrize("item,field", [("seed=-1", "seed")], ids=["seed"])
def test_gen_refuses_a_negative_seed(tmp_path, capsys, item, field):
    # numpy's SeedSequence takes no negative entropy; validate refuses the
    # seed before any corpus is drawn.
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(tmp_path / "run"))
    assert main(["gen", "--config", cfg_path, "--set", item]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"{field} must be >= 0, got -1\n" in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command,step", [("gen", "generate_corpus"), ("train", "train_phase1")])
def test_an_allocation_too_large_for_memory_exits_1_with_one_line(tmp_path, capsys, monkeypatch,
                                                                   command, step):
    # An oversized data.train_size makes numpy raise its MemoryError subclass
    # from generate_corpus; the failure is injected here, with no real huge
    # allocation.
    from framemoe import experiment

    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(tmp_path / "run"))
    if command == "train":
        assert main(["gen", "--config", cfg_path]) == 0
        capsys.readouterr()

    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 763. MiB for an array with shape (100000000,)\n"
                          "and data type int64")

    monkeypatch.setattr(experiment, step, too_large)
    assert main([command, "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err == ("out of memory: Unable to allocate 763. MiB for an array with shape "
                   "(100000000,) and data type int64\n"), err


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
    # Ints are valid floats.
    cfg = apply_overrides(ExperimentConfig(), ["data.train_snr_db=5"])
    assert cfg.data.train_snr_db == 5


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


def test_cli_eval_refuses_a_corpus_the_run_was_not_trained_on(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(tmp_path / "run"))
    run = tmp_path / "run"
    assert main(["train", "--config", cfg_path]) == 0
    assert main(["gen", "--config", cfg_path, "--set", "seed=3",
                 "--set", "data.test_size=12"]) == 0
    capsys.readouterr()
    assert main(["eval", "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.endswith("retrain there\n")
    assert len(err.splitlines()) == 1
    assert not (run / "metrics.csv").exists()

    # The run's own corpus written again scores; one whose writing did not
    # finish (it has no digest) is refused like a foreign one.
    assert main(["gen", "--config", cfg_path]) == 0
    assert main(["eval", "--run", str(run)]) == 0
    (run / "corpus" / "source_digest.txt").unlink()
    capsys.readouterr()
    assert main(["eval", "--run", str(run)]) == 1
    assert capsys.readouterr().err.endswith("retrain there\n")


def _edit_manifest(corpus, edit):
    path = corpus / "manifest.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in edit(records)))


def _set_field(rid, key, value):
    def edit(records):
        for rec in records:
            if rec["id"] == rid:
                rec[key] = value
        return records
    return lambda corpus: _edit_manifest(corpus, edit)


def _drop_record(rid):
    return lambda corpus: _edit_manifest(
        corpus, lambda records: [rec for rec in records if rec["id"] != rid])


def _edit_line(number, edit):
    """Replace manifest line `number` (1-based) by edit(line), which may be
    several lines."""
    def damage(corpus):
        path = corpus / "manifest.jsonl"
        lines = path.read_text().splitlines()
        lines[number - 1] = edit(lines[number - 1])
        path.write_text("\n".join(lines) + "\n")
    return damage


def _edit_record(edit):
    def on_line(line):
        rec = json.loads(line)
        edit(rec)
        return json.dumps(rec)
    return on_line


def _nan_in(rid):
    def damage(corpus):
        lines = (corpus / "manifest.jsonl").read_text().splitlines()
        rec = next(r for r in map(json.loads, lines) if r["id"] == rid)
        signals = np.fromfile(corpus / "signals.f32", dtype="<f4")
        signals[rec["offset"] + 5] = np.nan
        signals.tofile(corpus / "signals.f32")
    return damage


def _remove_file(name):
    return lambda corpus: (corpus / name).unlink()


def _cut_signals(n_samples):
    def damage(corpus):
        path = corpus / "signals.f32"
        path.write_bytes(path.read_bytes()[: -4 * n_samples])
    return damage


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    cfg_path = write_cfg(root, tiny_cfg_dict(root / "run"))
    assert main(["train", "--config", cfg_path]) == 0
    return root / "run"


@pytest.mark.parametrize("damage,record,problem", [
    (_drop_record("train-00003-noisy"), "'train-00003'", "has no stored mix"),
    (_nan_in("dev-00001-noisy"), "'dev-00001-noisy'", "non-finite"),
    (_cut_signals(100), "'test-00003'", "runs past the end of signals.f32"),
    (_set_field("dev-00002", "length", 150), "'dev-00002'", "has length 150"),
    (_set_field("test-00001", "sample_rate", 16000), "'test-00001'", "at 16000 Hz"),
    (_edit_line(5, lambda line: line[:40]), "manifest.jsonl line 5 ", "not a JSON object"),
    (_edit_line(3, lambda line: "\n" + line), "manifest.jsonl line 3 ", "not a JSON object"),
    (_edit_line(7, _edit_record(lambda rec: rec.pop("label"))), "manifest.jsonl line 7 ",
     "has no 'label'"),
    (_edit_line(18, _edit_record(lambda rec: rec.update(split="eval"))),
     "manifest.jsonl line 18 ", "unknown split 'eval'"),
    (_edit_line(26, _edit_record(lambda rec: rec.update(kind="mixed"))),
     "manifest.jsonl line 26 ", "unknown kind 'mixed'"),
    (_remove_file("signals.f32"), "signals.f32", "is missing"),
    (_remove_file("manifest.jsonl"), "manifest.jsonl", "is missing"),
    (_set_field("dev-00002", "offset", "12"), "'dev-00002'", "has offset '12', not an int >= 0"),
    (_set_field("train-00001-noisy", "offset", -256), "'train-00001-noisy'",
     "has offset -256, not an int >= 0"),
    (_set_field("test-00002", "label", 7), "'test-00002'", "has label 7, not an int in 0-3"),
    (_set_field("test-00000", "length", 0), "'test-00000'", "has length 0, not an int >= 1"),
    (_set_field("dev-00001", "label", True), "'dev-00001'", "has label True, not an int in 0-3"),
    (_edit_line(9, _edit_record(lambda rec: rec.update(split=["train"]))),
     "manifest.jsonl line 9 ", "unknown split ['train']"),
    (_edit_line(12, _edit_record(lambda rec: rec.update(id={"train": 5}))),
     "manifest.jsonl line 12 ", "has id {'train': 5}, not a string"),
    (_edit_line(20, _edit_record(lambda rec: rec.update(source_id=["dev-00001"]))),
     "manifest.jsonl line 20 ", "has source_id ['dev-00001'], not a string or null"),
], ids=["missing-mix", "non-finite", "truncated", "length", "sample-rate", "cut-line",
        "blank-line", "missing-key", "unknown-split", "unknown-kind", "missing-signals",
        "missing-manifest", "string-offset", "negative-offset", "label-out-of-range",
        "zero-length", "bool-label", "list-split", "object-id", "list-source-id"])
def test_cli_refuses_a_damaged_corpus_naming_the_record(trained_run, tmp_path, capsys,
                                                        damage, record, problem):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    damage(run / "corpus")
    capsys.readouterr()
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(run))
    for argv in (["eval", "--run", str(run)], ["train", "--config", cfg_path]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("config error") and record in err and problem in err, err
    assert not (run / "metrics.csv").exists()


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_cli_phase1_abort_names_the_phase_and_writes_no_checkpoint(tmp_path, capsys):
    run = tmp_path / "run"
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(run))
    capsys.readouterr()
    argv = ["train", "--config", cfg_path, "--set", "training.phase1_ser_lr=1.0e+300"]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2, lines
    assert lines[0].startswith("training aborted: non-finite values in phase 1 at epoch 0:"), lines
    diag = json.loads(lines[1])
    assert set(diag) == {"phase", "epoch", "batch", "last_grad_norms", "error"}
    assert (diag["phase"], diag["epoch"]) == (1, 0)
    assert not list(run.glob("checkpoint_*"))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_cli_aborted_train_leaves_no_earlier_outputs(trained_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    assert main(["eval", "--run", str(run)]) == 0
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(run))
    capsys.readouterr()
    argv = ["train", "--config", cfg_path, "--set", "training.lr_heads_gates_experts=1.0e+300"]
    assert main(argv) == 2
    assert "in phase 2" in capsys.readouterr().err
    for name in ("checkpoint_final.json", "losses.csv", "losses_phase1.csv", "metrics.csv",
                 "switch_agreement.csv", "usage_by_snr.csv", "usage_by_label.csv",
                 "report.json"):
        assert not (run / name).exists(), name
    _assert_one_config_error(["analyze", "--run", str(run)], capsys, "run eval there first")
    _assert_one_config_error(["eval", "--run", str(run)], capsys, "train there first")


def test_cli_eval_notes_an_environment_other_than_trains(trained_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    capsys.readouterr()
    assert main(["eval", "--run", str(run)]) == 0
    assert capsys.readouterr().err == ""
    path = run / "report.json"
    report = json.loads(path.read_text())
    report["environment_train"]["OPENBLAS_NUM_THREADS"] = "edited"
    report["environment_train"]["numpy"] = "0.0"
    path.write_text(json.dumps(report))
    assert main(["eval", "--run", str(run)]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 6
    lines = captured.err.splitlines()
    assert lines == ["note: eval ran in another numeric environment than train "
                     "(differs in OPENBLAS_NUM_THREADS, numpy)"], lines


@pytest.mark.parametrize("item,field", [("seed=-1", "seed")], ids=["seed"])
def test_train_refuses_a_negative_seed_and_keeps_the_earlier_outputs(trained_run, tmp_path,
                                                                      capsys, item, field):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(run))
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--set", item]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"{field} must be >= 0, got -1\n" in err, err
    assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before


def _assert_one_config_error(argv, capsys, *parts):
    capsys.readouterr()
    assert main(argv) == 1, argv
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("config error"), err
    for part in parts:
        assert part in err, err


@pytest.mark.parametrize("case", ["missing-file", "file-not-yaml", "override-not-yaml"])
def test_cli_unreadable_config_input_is_one_config_error(tmp_path, capsys, case):
    broken = tmp_path / "broken.yaml"
    broken.write_text("seed: [1\n")
    run = tmp_path / "run"
    args, named = {
        "missing-file": (["--config", str(tmp_path / "nonexistent.yaml")], "nonexistent.yaml"),
        "file-not-yaml": (["--config", str(broken)], str(broken)),
        "override-not-yaml": (["--set", f"output_dir={run}", "--set", "seed=[1"], "'seed=[1'"),
    }[case]
    _assert_one_config_error(["train", *args], capsys, named)
    assert not run.exists()


@pytest.mark.parametrize("name,text", [
    ("checkpoint_final.json", '{"format": "framemoe-checkpo'),
    ("checkpoint_final.json", '{"format": "other"}'),
    ("resolved_config.yaml", "a: [\n"),
], ids=["truncated-checkpoint", "foreign-checkpoint", "resolved-config-not-yaml"])
def test_cli_eval_refuses_a_damaged_run_file(trained_run, tmp_path, capsys, name, text):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    (run / name).write_text(text)
    _assert_one_config_error(["eval", "--run", str(run)], capsys, name, "retrain there")
    assert not (run / "metrics.csv").exists()


@pytest.mark.parametrize("raw,named", [
    ({1: 2, "foo": 3}, "config: unknown keys [1, 'foo']"),
    ({"moe": {"top_k": "x"}}, "moe.top_k: expected int, got 'x'"),
], ids=["unknown-keys", "wrong-leaf"])
def test_cli_config_file_that_does_not_hydrate_is_named(tmp_path, capsys, raw, named):
    path = tmp_path / "f.yaml"
    path.write_text(yaml.safe_dump({**raw, "output_dir": str(tmp_path / "run")}))
    _assert_one_config_error(["train", "--config", str(path)], capsys,
                             f"config file {path}: {named}")
    assert not (tmp_path / "run").exists()


def test_cli_eval_refuses_a_resolved_config_that_holds_a_backbone_seed(trained_run, tmp_path,
                                                                       capsys):
    # The backbone always draws from the run seed; its own seed field is gone.
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    path = run / "resolved_config.yaml"
    raw = yaml.safe_load(path.read_text())
    raw["backbone"]["seed"] = None
    path.write_text(yaml.safe_dump(raw, sort_keys=True))
    capsys.readouterr()
    assert main(["eval", "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert err == (f"config error: config file {path}: backbone: unknown keys ['seed']; "
                   "retrain there\n"), err
    assert not (run / "metrics.csv").exists()


def _drop_param(params, name):
    del params[name]


def _flatten_param(params, name):
    params[name]["shape"] = [1, len(params[name]["data"])]


@pytest.mark.parametrize("damage", [_drop_param, _flatten_param],
                         ids=["missing-tensor", "misshapen-tensor"])
def test_cli_eval_refuses_a_checkpoint_tensor_that_does_not_fit(trained_run, tmp_path, capsys,
                                                                  damage):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    path = run / "checkpoint_final.json"
    payload = json.loads(path.read_text())
    damage(payload["params"], "se.b2")
    path.write_text(json.dumps(payload))
    _assert_one_config_error(["eval", "--run", str(run)], capsys,
                             "checkpoint_final.json", "se.b2", "retrain there")
    assert not (run / "metrics.csv").exists()


@pytest.mark.parametrize("stats", [None, [0.0, 1.0], {"mean": 0.0, "std": 0.0},
                                   {"mean": float("nan"), "std": 1.0},
                                   {"mean": 0.0, "std": True}, {"mean": False, "std": 1.0}],
                         ids=["missing", "list", "zero-std", "nan-mean", "bool-std", "bool-mean"])
def test_cli_eval_refuses_damaged_norm_stats(trained_run, tmp_path, capsys, stats):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    path = run / "checkpoint_final.json"
    payload = json.loads(path.read_text())
    if stats is None:
        del payload["norm_stats"]
    else:
        payload["norm_stats"] = stats
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["eval", "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error"), err
    assert "checkpoint_final.json" in err and err.rstrip().endswith("retrain there"), err
    assert not (run / "metrics.csv").exists()


@pytest.fixture(scope="module")
def evaluated_run(trained_run, tmp_path_factory):
    run = tmp_path_factory.mktemp("evaluated") / "run"
    shutil.copytree(trained_run, run)
    assert main(["eval", "--run", str(run)]) == 0
    return run


def _drop_condition(analytics):
    del analytics["switch_agreement"][0]["condition"]
    return analytics


@pytest.mark.parametrize("damage", [
    lambda a: {**a, "extra": 1},
    lambda a: [a],
    lambda a: "analytics",
    lambda a: {**a, "switch_agreement": 3},
    _drop_condition,
    lambda a: {k: v for k, v in a.items() if k != "usage_by_snr"},
], ids=["unknown-key", "list", "string", "int-table", "row-without-condition",
        "missing-table"])
def test_cli_analyze_refuses_damaged_analytics(evaluated_run, tmp_path, capsys, damage):
    run = tmp_path / "run"
    shutil.copytree(evaluated_run, run)
    path = run / "report.json"
    report = json.loads(path.read_text())
    report["analytics"] = damage(report["analytics"])
    path.write_text(json.dumps(report))
    _assert_one_config_error(["analyze", "--run", str(run)], capsys,
                             "report.json", "run eval there again")


def test_cli_eval_and_analyze_refuse_a_damaged_report(trained_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    (run / "report.json").write_text("{")
    _assert_one_config_error(["eval", "--run", str(run)], capsys,
                             "report.json", "run eval there again")
    assert not (run / "metrics.csv").exists()
    _assert_one_config_error(["analyze", "--run", str(run)], capsys,
                             "report.json", "run eval there again")


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


def test_cli_gradcheck_without_a_clearing_batch_is_exit_code_2(tmp_path, capsys):
    # Nine experts with top-2 routing: no audit batch clears the gate margin.
    out_path = tmp_path / "audit.json"
    assert main(["gradcheck", "--set", "moe.n_experts=9", "--set", "moe.top_k=2",
                 "--set", f"output_dir={tmp_path / 'run'}", "--out", str(out_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("gradient audit failed")
    assert "25 attempts" in err[0] and "1e-03" in err[0] and "1e-06" in err[0]
    assert not out_path.exists()


@pytest.mark.parametrize("command,out", [
    ("gen", None), ("train", None), ("ablate", None),
    ("gradcheck", None), ("gradcheck", "r.json"),
], ids=["gen", "train", "ablate", "gradcheck", "gradcheck-out"])
def test_cli_output_path_below_a_file_is_exit_code_1(tmp_path, capsys, monkeypatch,
                                                     command, out):
    # Refused before any corpus is drawn or any audit runs, naming the path.
    from framemoe import experiment

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(experiment, "generate_corpus", no_work)
    monkeypatch.setattr(experiment, "gradcheck_model", no_work)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    run = tmp_path / "run" if out else blocker / "run"
    cfg_path = write_cfg(tmp_path, tiny_cfg_dict(run))
    extra = ["--out", str(blocker / out)] if out else []
    assert main([command, "--config", cfg_path, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(blocker) in err
    assert blocker.read_text() == "a file\n"


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
