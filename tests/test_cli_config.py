"""Pretrain settings: config files, flags and resume layering.

Every setting is a field of TrainConfig or EncoderConfig; a resumed run
starts from the checkpoint's config, then the --config file, then flags.
"""
from dataclasses import asdict, fields

import pytest

from domainlm import cli
from domainlm import training as TR
from domainlm.corpus import Vocab
from domainlm.encoder import EncoderConfig
from domainlm.phrases import load_pool

from synthetic import build_phrase_world, write_phrase_world

DESK_FLAGS = {"batch_size": 8, "learning_rate": 3e-3, "dim": 16, "ffn_dim": 32,
              "warm_iters": 5, "max_seq_len": 32, "log_every": 0}

# A value for every setting, none of them the dataclass default.
EVERY_SETTING = {
    "stage1_epochs": 1, "stage2_epochs": 0, "batch_size": 16,
    "learning_rate": 2e-3, "cea_weight": 0.5, "seed": 4, "ipot_beta": 0.25,
    "ipot_outer_iters": 20, "warm_iters": 3, "warm_alpha": 0.7,
    "ema_decay": 0.8, "bootstrap_every": 2, "cea_variant": "attention",
    "force_alpha": 0.75, "shuffle": False, "reset_scheduler_for_stage2": True,
    "eval_docs": 4, "max_seq_len": 24, "layers": 1, "dim": 8, "heads": 4,
    "ffn_dim": 16, "log_every": 0,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_config")
    corpus, pool = write_phrase_world(tmp, build_phrase_world(seed=2, n_sentences=48))
    vocab = tmp / "vocab.tsv"
    assert cli.main(["build-vocab", "--corpus", str(corpus), "--out", str(vocab)]) == 0
    return {"corpus": corpus, "pool": pool, "vocab": vocab}


def flags(values: dict) -> list[str]:
    out = []
    for key, val in values.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            if val != cli.SETTINGS[key][1]:
                out.append("--no-" + flag[2:] if cli.SETTINGS[key][1] else flag)
        else:
            out += [flag, str(val)]
    return out


def pretrain(ws, out, settings=None, *extra, vocab=None, pool=None):
    return cli.main(["pretrain", "--corpus", str(ws["corpus"]),
                     "--vocab", str(vocab or ws["vocab"]),
                     "--phrase-pool", str(pool or ws["pool"]),
                     "--out-dir", str(out)] + flags(settings or {}) + list(extra))


def params_bytes(state):
    return b"".join(p.data.tobytes() for p in state.params.values())


@pytest.fixture(scope="module")
def one_epoch(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("one_epoch")
    assert pretrain(workspace, out, {**DESK_FLAGS, "stage1_epochs": 1,
                                     "stage2_epochs": 0}) == 0
    return out / "checkpoint.npz"


def test_settings_are_the_config_fields():
    names = {f.name for cls in (TR.TrainConfig, EncoderConfig) for f in fields(cls)}
    expected = names - {"vocab_size", "phrase_vocab_size"} | {"log_every"}
    assert set(cli.SETTINGS) == set(EVERY_SETTING) == expected
    assert len(cli.SETTINGS) == 23


def test_config_file_matches_flags(workspace, tmp_path):
    conf = tmp_path / "every.conf"
    conf.write_text("".join(f"{key} = {val}\n" for key, val in EVERY_SETTING.items()))
    assert pretrain(workspace, tmp_path / "file", None, "--config", str(conf)) == 0
    assert pretrain(workspace, tmp_path / "flags", EVERY_SETTING) == 0
    from_file = TR.load_checkpoint(tmp_path / "file" / "checkpoint.npz")
    from_flags = TR.load_checkpoint(tmp_path / "flags" / "checkpoint.npz")
    assert from_file.config == from_flags.config
    assert from_file.enc_config == from_flags.enc_config
    train_keys = asdict(from_file.config)
    assert {k: v for k, v in EVERY_SETTING.items() if k in train_keys} == train_keys
    enc = asdict(from_file.enc_config)
    assert [enc[k] for k in ("layers", "dim", "heads", "ffn_dim", "max_seq_len")] == \
        [1, 8, 4, 16, 24]


@pytest.mark.parametrize("line, expected", [
    ("shuffle = no", ("shuffle", False)),
    ("shuffle = 0", ("shuffle", False)),
    ("reset_scheduler_for_stage2 = YES", ("reset_scheduler_for_stage2", True)),
    ("reset-scheduler-for-stage2 = 1", ("reset_scheduler_for_stage2", True)),
    ("force_alpha = None", ("force_alpha", None)),
    ("force_alpha = 0.25", ("force_alpha", 0.25)),
])
def test_config_value_syntax(tmp_path, line, expected):
    conf = tmp_path / "run.conf"
    conf.write_text(line + "\n")
    assert cli._read_config_file(conf) == dict([expected])


@pytest.mark.parametrize("line, key", [
    ("shuffle = flase", "shuffle"),
    ("reset_scheduler_for_stage2 = on", "reset_scheduler_for_stage2"),
    ("force_alpha = banana", "force_alpha"),
    ("batch_size = 8.5", "batch_size"),
    ("learning_rate = fast", "learning_rate"),
    ("cea_variant = nope", "cea_variant"),
])
def test_malformed_config_value_exits_2(workspace, tmp_path, capsys, line, key):
    conf = tmp_path / "bad.conf"
    conf.write_text(line + "\n")
    rc = pretrain(workspace, tmp_path / "out", {**DESK_FLAGS, "stage2_epochs": 0},
                  "--config", str(conf))
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out" / "checkpoint.npz").exists()


def test_resume_repeating_only_epochs_matches_uninterrupted(workspace, one_epoch,
                                                            tmp_path):
    full = tmp_path / "full"
    assert pretrain(workspace, full, {**DESK_FLAGS, "stage1_epochs": 2,
                                      "stage2_epochs": 0}) == 0
    resumed = tmp_path / "resumed"
    assert pretrain(workspace, resumed, {"stage1_epochs": 2},
                    "--resume", str(one_epoch)) == 0
    a = TR.load_checkpoint(full / "checkpoint.npz")
    b = TR.load_checkpoint(resumed / "checkpoint.npz")
    assert b.config == a.config
    assert b.stage1_iters_done == a.stage1_iters_done > 0
    assert params_bytes(b) == params_bytes(a)
    assert b.scheduler.to_dict() == a.scheduler.to_dict()


def test_resume_accepts_fixed_keys_at_checkpoint_values(workspace, one_epoch, tmp_path):
    rc = pretrain(workspace, tmp_path / "same", {**DESK_FLAGS, "stage1_epochs": 1,
                                                 "stage2_epochs": 0},
                  "--resume", str(one_epoch))
    assert rc == 0


@pytest.mark.parametrize("key, value", [
    ("dim", 64), ("heads", 4), ("layers", 3), ("ffn_dim", 16), ("max_seq_len", 64),
    ("warm_iters", 7), ("warm_alpha", 0.4), ("ema_decay", 0.5), ("bootstrap_every", 3),
])
def test_resume_rejects_changed_fixed_key(workspace, one_epoch, tmp_path, capsys,
                                          key, value):
    rc = pretrain(workspace, tmp_path / "out", {key: value}, "--resume", str(one_epoch))
    assert rc == 2
    assert key in capsys.readouterr().err


def test_resume_rejects_changed_fixed_key_from_config_file(workspace, one_epoch,
                                                           tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("dim = 64\n")
    rc = pretrain(workspace, tmp_path / "out", None, "--config", str(conf),
                  "--resume", str(one_epoch))
    assert rc == 2
    assert "dim" in capsys.readouterr().err


def _rewrite_vocab(workspace, tmp_path, edit):
    lines = workspace["vocab"].read_text().splitlines()
    tokens = [line.split("\t")[0] for line in lines]
    path = tmp_path / "vocab.tsv"
    path.write_text("".join(f"{tok}\t{i}\n" for i, tok in enumerate(edit(tokens))))
    return path


@pytest.mark.parametrize("edit", [
    lambda toks: toks + ["zzz-new-token"],
    lambda toks: toks[:4] + [toks[5], toks[4]] + toks[6:],
], ids=["larger", "same-size-ids-moved"])
def test_resume_rejects_other_vocab(workspace, one_epoch, tmp_path, capsys, edit):
    vocab = _rewrite_vocab(workspace, tmp_path, edit)
    rc = pretrain(workspace, tmp_path / "out", None, "--resume", str(one_epoch),
                  vocab=vocab)
    assert rc == 2
    assert "vocab" in capsys.readouterr().err


def test_resume_rejects_other_phrase_pool_size(workspace, one_epoch, tmp_path, capsys):
    lines = workspace["pool"].read_text().splitlines()
    pool = tmp_path / "pool.tsv"
    pool.write_text("\n".join(lines[:3]) + "\n")
    vocab = Vocab.load(workspace["vocab"])
    assert load_pool(pool, vocab).phrase_vocab_size != \
        load_pool(workspace["pool"], vocab).phrase_vocab_size
    rc = pretrain(workspace, tmp_path / "out", None, "--resume", str(one_epoch),
                  pool=pool)
    assert rc == 2
    assert "phrase_vocab_size" in capsys.readouterr().err

