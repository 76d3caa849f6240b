"""Seeded mutations of the CLI's inputs: every run exits 0 or 2.

Each case damages one input with a few byte edits (replace, insert,
delete) drawn from numpy's RNG at a fixed seed, then runs the command
in-process through ``cli.main``. An argparse exit counts as 2. No other
exception may escape, and a run that exits 2 must leave no --out-dir.
The checkpoint is damaged three ways: its file bytes; the bytes of its
metadata JSON, re-saved as a valid zip, which reach the loader's checks;
and the type of one metadata value, which keeps the JSON valid and its
keys intact. A damaged checkpoint that still loads must hold each fact
once: what a run derives agrees with what the file stores. Its vocab
must hold what a vocab file can (strings, none repeated, the specials
first), its phrases only what a pool file can yield, its scheduler
an alpha and an iteration a run can reach, and its arenas finite values
with no negative second moment.
"""
import json

import numpy as np
import pytest

from domainlm import cli
from domainlm import corpus as C
from domainlm import training as TR

from synthetic import (build_pair_world, build_phrase_world, rewrite_checkpoint,
                       write_pair_world, write_phrase_world)

SEED = 20261019
# per pretrain input; checkpoint bytes, meta JSON bytes, meta value types
CASES = {"input": 8, "file": 8, "meta": 40, "typed": 40}
PRETRAIN_INPUTS = ("corpus", "vocab", "pool", "pairs", "content")
CHECKPOINT_PARTS = ("file", "meta", "typed")
SHAPE = ["--batch-size", "16", "--learning-rate", "3e-3", "--dim", "8", "--heads", "2",
         "--ffn-dim", "16", "--max-seq-len", "32", "--warm-iters", "2",
         "--ipot-outer-iters", "5", "--log-every", "0"]


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One to four edits at random offsets. A new byte is random or, half the
    time, copied from elsewhere in ``data``, so text stays mostly text."""
    data = bytearray(data)
    for _ in range(int(rng.integers(1, 5))):
        at = int(rng.integers(len(data) + 1))
        byte = int(rng.integers(256)) if rng.random() < 0.5 or not data \
            else data[int(rng.integers(len(data)))]
        edit = int(rng.integers(3))
        if edit == 1 or at == len(data):
            data.insert(at, byte)
        elif edit == 0:
            data[at] = byte
        else:
            del data[at]
    return bytes(data)


def swap_a_type(meta: bytes, rng: np.random.Generator) -> bytes:
    """The metadata JSON ``meta`` with one value, found by walking down through random
    keys and items, replaced by one of another type: a number by null, true or a string;
    a string, null or bool by a number; a list by {}. A walk stops at a list half the time."""
    node = decoded = json.loads(meta)
    while True:
        key = list(node)[int(rng.integers(len(node)))] if isinstance(node, dict) \
            else int(rng.integers(len(node)))
        value = node[key]
        if value and (isinstance(value, dict) or isinstance(value, list) and rng.random() < 0.5):
            node = value
            continue
        if isinstance(value, list):
            node[key] = {}
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            node[key] = [None, True, str(value)][int(rng.integers(3))]
        else:
            node[key] = [0, 1, 2.5][int(rng.integers(3))]
        return json.dumps(decoded).encode("utf-8")


def assert_holds_each_fact_once(path) -> None:
    """Nothing a loaded run derives differs from what its file stores."""
    try:
        state = TR.load_checkpoint(path)
    except ValueError:
        return
    assert state.config.max_seq_len == state.enc_config.max_seq_len
    assert all(getattr(state.scheduler, k) == getattr(state.config, k)
               for k in TR.SCHEDULER_KEYS)
    assert state.enc_config.vocab_size == len(state.vocab)
    assert state.enc_config.phrase_vocab_size == len(state.phrases)
    tokens = state.vocab.id_to_token
    assert all(type(tok) is str for tok in tokens)
    assert tokens[:C.NUM_SPECIALS] == list(C.SPECIAL_TOKENS)
    assert state.vocab.token_to_id == {tok: i for i, tok in enumerate(tokens)}
    assert len(state.vocab.token_to_id) == len(tokens)  # no token repeats
    assert all(len(ids) >= 2 and all(type(i) is int and i != C.UNK_ID and 0 <= i < len(state.vocab)
                                     for i in ids) for ids in state.phrases)
    assert state.phrases == sorted(set(state.phrases))
    assert 0.0 <= state.scheduler.alpha <= 1.0 and state.scheduler.iteration >= 0
    adam = state.adam
    assert all(np.isfinite(a).all() for a in (adam.arena, adam.arena_m, adam.arena_v))
    assert (adam.arena_v >= 0).all()


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A 48-sentence phrase world and an 8-pair world under one vocab, and a
    checkpoint trained one epoch on each."""
    tmp = tmp_path_factory.mktemp("mutation")
    corpus, pool = write_phrase_world(tmp, build_phrase_world(seed=5, n_sentences=48))
    pair_corpus, content, pairs = write_pair_world(tmp, build_pair_world(seed=5, n_pairs=8))
    merged = tmp / "all.txt"
    merged.write_text(corpus.read_text() + pair_corpus.read_text())
    vocab = tmp / "vocab.tsv"
    assert cli.main(["build-vocab", "--corpus", str(merged), "--out", str(vocab)]) == 0
    files = {"corpus": merged, "vocab": vocab, "pool": pool, "pairs": pairs,
             "content": content}
    assert run(pretrain_argv(files, tmp / "trained")) == 0
    return {**files, "checkpoint": tmp / "trained" / "checkpoint.npz"}


def pretrain_argv(files: dict, out) -> list[str]:
    return ["pretrain", "--corpus", str(files["corpus"]), "--vocab", str(files["vocab"]),
            "--phrase-pool", str(files["pool"]), "--pairs", str(files["pairs"]),
            "--content", str(files["content"]), "--out-dir", str(out),
            "--stage1-epochs", "1", "--stage2-epochs", "1", *SHAPE]


def run(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit:  # argparse rejected the arguments
        return 2


def assert_exits_0_or_2(argv: list[str], out) -> None:
    rc = run(argv)
    assert rc in (0, 2), argv
    if rc == 2:
        assert not out.exists(), argv


@pytest.mark.parametrize("case", range(CASES["input"]))
@pytest.mark.parametrize("name", PRETRAIN_INPUTS)
def test_pretrain_on_a_mutated_input(world, tmp_path, capsys, name, case):
    rng = np.random.default_rng([SEED, PRETRAIN_INPUTS.index(name), case])
    damaged = tmp_path / world[name].name
    damaged.write_bytes(mutate(world[name].read_bytes(), rng))
    out = tmp_path / "out"
    assert_exits_0_or_2(pretrain_argv({**world, name: damaged}, out), out)


@pytest.mark.parametrize("part, case", [(part, case) for part in CHECKPOINT_PARTS
                                        for case in range(CASES[part])])
def test_commands_on_a_mutated_checkpoint(world, tmp_path, capsys, part, case):
    rng = np.random.default_rng([SEED, len(PRETRAIN_INPUTS) + CHECKPOINT_PARTS.index(part), case])
    ckpt = tmp_path / "checkpoint.npz"
    if part == "file":
        ckpt.write_bytes(mutate(world["checkpoint"].read_bytes(), rng))
    else:
        edit = {"meta": mutate, "typed": swap_a_type}[part]
        rewrite_checkpoint(world["checkpoint"], ckpt,
                           lambda arrays: arrays.update(meta=edit(arrays["meta"], rng)))
    assert_holds_each_fact_once(ckpt)
    text = world["corpus"].read_text().splitlines()[0]
    outs = {command: tmp_path / command for command in ("resume", "align", "eval")}
    assert_exits_0_or_2(
        ["pretrain", "--corpus", str(world["corpus"]), "--vocab", str(world["vocab"]),
         "--phrase-pool", str(world["pool"]), "--out-dir", str(outs["resume"]),
         "--resume", str(ckpt), "--stage1-epochs", "2", "--stage2-epochs", "0",
         "--log-every", "0"], outs["resume"])
    assert_exits_0_or_2(["align", "--checkpoint", str(ckpt), "--text-a", text,
                         "--text-b", text, "--outer-iters", "20",
                         "--out-dir", str(outs["align"])], outs["align"])
    outs["eval"].mkdir()
    eval_out = outs["eval"] / "eval.csv"
    rc = run(["eval", "--checkpoint", str(ckpt), "--eval-corpus", str(world["corpus"]),
              "--phrase-pool", str(world["pool"]), "--out", str(eval_out)])
    assert rc in (0, 2)
    assert eval_out.exists() == (rc == 0)
