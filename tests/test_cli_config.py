"""Pretrain settings: config files, flags and resume layering.

Every setting is a field of TrainConfig or EncoderConfig; a resumed run
starts from the checkpoint's config, then the --config file, then flags.
"""
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import domainlm
from domainlm import cli
from domainlm import training as TR
from domainlm.corpus import Vocab
from domainlm.encoder import EncoderConfig
from domainlm.phrases import load_pool

from synthetic import (CHECKPOINT_DAMAGE, build_pair_world, build_phrase_world,
                       corrupt_checkpoint, drop_meta_key, write_pair_world,
                       write_phrase_world)

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



def _swap_one_bigram(workspace, tmp_path):
    """The pool file with one kept bigram's words reversed: same size."""
    vocab = Vocab.load(workspace["vocab"])
    old = load_pool(workspace["pool"], vocab)
    bigram = next(text for text in old.surface if len(text.split()) == 2)
    first, second = bigram.split()
    text = workspace["pool"].read_text().replace(f"{bigram}\t", f"{second} {first}\t")
    pool = tmp_path / "pool.tsv"
    pool.write_text(text)
    new = load_pool(pool, vocab)
    assert new.phrase_vocab_size == old.phrase_vocab_size and new.by_id() != old.by_id()
    return pool


def test_resume_rejects_same_size_pool_with_other_phrases(workspace, one_epoch,
                                                          tmp_path, capsys):
    pool = _swap_one_bigram(workspace, tmp_path)
    rc = pretrain(workspace, tmp_path / "out", None, "--resume", str(one_epoch), pool=pool)
    assert rc == 2
    assert "--phrase-pool" in capsys.readouterr().err
    assert not (tmp_path / "out" / "checkpoint.npz").exists()


def test_checkpoint_without_phrases_falls_back_to_size_check(workspace, one_epoch,
                                                             tmp_path):
    old = tmp_path / "old.npz"
    drop_meta_key(one_epoch, old, "phrases")
    assert TR.load_checkpoint(old).phrases is None
    lines = workspace["pool"].read_text().splitlines()
    smaller = tmp_path / "smaller.tsv"
    smaller.write_text("\n".join(lines[:3]) + "\n")
    assert pretrain(workspace, tmp_path / "bad", None, "--resume", str(old),
                    pool=smaller) == 2
    assert pretrain(workspace, tmp_path / "ok", {"stage1_epochs": 2},
                    "--resume", str(old)) == 0
    vocab = Vocab.load(workspace["vocab"])
    resumed = TR.load_checkpoint(tmp_path / "ok" / "checkpoint.npz")
    assert resumed.phrases == load_pool(workspace["pool"], vocab).by_id()


@pytest.fixture(scope="module")
def pair_workspace(tmp_path_factory):
    """Phrase and pair worlds under one vocab, so both stages can run."""
    tmp = tmp_path_factory.mktemp("pair_cli")
    corpus, pool = write_phrase_world(tmp, build_phrase_world(seed=3, n_sentences=40))
    pair_corpus, content, pairs = write_pair_world(tmp, build_pair_world(seed=3, n_pairs=12))
    merged = tmp / "all.txt"
    merged.write_text(corpus.read_text() + pair_corpus.read_text())
    vocab = tmp / "vocab.tsv"
    assert cli.main(["build-vocab", "--corpus", str(merged), "--out", str(vocab)]) == 0
    return {"corpus": merged, "pool": pool, "vocab": vocab,
            "pair_args": ["--pairs", str(pairs), "--content", str(content)]}


def test_reset_scheduler_for_stage2_numbers_steps_across_stages(pair_workspace, tmp_path):
    out = tmp_path / "run"
    rc = pretrain(pair_workspace, out, {**DESK_FLAGS, "stage1_epochs": 1,
                                        "stage2_epochs": 1,
                                        "reset_scheduler_for_stage2": True},
                  *pair_workspace["pair_args"])
    assert rc == 0
    state = TR.load_checkpoint(out / "checkpoint.npz")
    records = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
    steps = [r["iter"] for r in records if "iter" in r]
    n = state.stage1_iters_done + state.stage2_iters_done
    assert state.stage1_iters_done > 0 and state.stage2_iters_done > 0
    assert steps == list(range(1, n + 1))
    # the warm-up restarted at the first stage-2 step
    assert state.scheduler.iteration == state.stage2_iters_done


DAMAGED_CHECKPOINT_CASES = [(command, damage, [])
                            for command in ("align", "eval", "pretrain-resume")
                            for damage in CHECKPOINT_DAMAGE]


@pytest.mark.parametrize("command, damage, extra", [
    ("pretrain", None, ["--bootstrap-every", "0"]),
    ("pretrain", None, ["--ipot-beta", "0"]),
    ("pretrain", None, ["--ipot-outer-iters", "0"]),
    ("pretrain", None, ["--ipot-beta", "nan"]),
    ("pretrain", None, ["--cea-weight", "nan"]),
    ("pretrain", None, ["--learning-rate", "inf"]),
    ("pretrain", None, ["--learning-rate", "-1"]),
    ("pretrain", None, ["--warm-alpha", "nan"]),
    ("pretrain", None, ["--warm-alpha", "2"]),
    ("pretrain", None, ["--ema-decay", "-0.5"]),
    ("pretrain", None, ["--ema-decay", "1.5"]),
    ("pretrain", None, ["--warm-iters", "-5"]),
    ("pretrain", None, ["--eval-docs", "-1"]),
    ("align", None, ["--outer-iters", "0"]),
    ("align", None, ["--outer-iters", "-5"]),
    ("align", None, ["--beta", "nan"]),
    ("align", None, ["--beta", "inf"]),
    ("align", "no-meta", []),
    ("align-pair", None, ["--pair", "ea000,nope"]),
    ("align-pair", None, ["--pair", "ea000,blank"]),
    ("eval", None, ["--max-docs", "-1"]),
    ("eval", "no-meta", []),
    *DAMAGED_CHECKPOINT_CASES,
    ("pretrain-repeated-vocab", None, []),
], ids=["bootstrap-every-0", "ipot-beta-0", "ipot-outer-iters-0", "ipot-beta-nan",
        "cea-weight-nan", "learning-rate-inf", "learning-rate-negative", "warm-alpha-nan",
        "warm-alpha-2", "ema-decay-negative", "ema-decay-1.5", "warm-iters-negative",
        "eval-docs-negative", "align-outer-iters-0",
        "align-outer-iters-negative", "align-beta-nan", "align-beta-inf", "align-no-meta",
        "align-unknown-entity", "align-entity-without-tokens", "eval-max-docs-negative",
        "eval-no-meta", *[f"{c}-{d}" for c, d, _ in DAMAGED_CHECKPOINT_CASES],
        "pretrain-repeated-vocab"])
def test_out_of_range_input_exits_2_without_traceback(workspace, pair_workspace,
                                                       one_epoch, tmp_path,
                                                       command, damage, extra):
    ckpt = one_epoch
    if damage == "no-meta":
        ckpt = tmp_path / "no_meta.npz"
        np.savez(ckpt, weights=np.zeros(3))
    elif damage is not None:
        ckpt = tmp_path / "damaged.npz"
        corrupt_checkpoint(one_epoch, ckpt, damage)
    if command == "pretrain-repeated-vocab":
        _rewrite_vocab(workspace, tmp_path, lambda toks: toks + toks[4:5])
    out = tmp_path / "out"
    pw = pair_workspace
    text = workspace["corpus"].read_text().splitlines()[0]
    content = tmp_path / "content.tsv"
    content.write_text(f"ea000\t{text}\nblank\t   \n")
    stage1 = ["--corpus", str(workspace["corpus"]), "--phrase-pool", str(workspace["pool"]),
              "--out-dir", str(out)]
    argv = {
        "pretrain": ["--corpus", str(pw["corpus"]), "--vocab", str(pw["vocab"]),
                     "--phrase-pool", str(pw["pool"]), "--out-dir", str(out),
                     *flags({**DESK_FLAGS, "stage1_epochs": 1, "stage2_epochs": 1}),
                     *pw["pair_args"]],
        "align": ["--checkpoint", str(ckpt), "--text-a", text, "--text-b", text,
                  "--out-dir", str(out)],
        "align-pair": ["--checkpoint", str(ckpt), "--content", str(content),
                       "--out-dir", str(out)],
        "eval": ["--checkpoint", str(ckpt), "--eval-corpus", str(workspace["corpus"]),
                 "--phrase-pool", str(workspace["pool"])],
        "pretrain-resume": [*stage1, "--vocab", str(workspace["vocab"]), "--resume", str(ckpt)],
        "pretrain-repeated-vocab": [*stage1, "--vocab", str(tmp_path / "vocab.tsv"),
                                    *flags({**DESK_FLAGS, "stage2_epochs": 0})],
    }[command]
    src = str(Path(domainlm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "domainlm.cli", command.split("-")[0],
                           *argv, *extra], capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    # rejected before --out-dir was made: no checkpoint, report or alignment
    assert not out.exists()


def test_align_pair_without_tokens_is_rejected_like_empty_text(workspace, one_epoch,
                                                               tmp_path, capsys):
    text = workspace["corpus"].read_text().splitlines()[0]
    content = tmp_path / "content.tsv"
    content.write_text(f"ea000\t{text}\nblank\t   \n")
    out = tmp_path / "out"
    rc = cli.main(["align", "--checkpoint", str(one_epoch), "--content", str(content),
                   "--pair", "ea000,ea000", "--pair", "ea000,blank", "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'blank'" in err and "at least one token" in err
    assert not out.exists()  # the valid first pair was not written either
    rc = cli.main(["align", "--checkpoint", str(one_epoch), "--text-a", text,
                   "--text-b", "   ", "--out-dir", str(out)])
    assert rc == 2
    assert "at least one token" in capsys.readouterr().err
