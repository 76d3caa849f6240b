"""Synthetic corpora with controllable structure for training-run tests.

Phrase world: templated sentences where a group-specific context word
predicts a phrase drawn from that group (with a dominant choice), so
multi-token reconstruction is learnable but not saturated.

Pair world: associated document pairs that are identical except for one
planted synonym slot, giving ground-truth word alignments.

Alignment CSVs: the reader that inverts ``transport.write_alignment_csv``.

Damaged checkpoints: copies of a saved checkpoint cut short, with bytes
overwritten, with a metadata key dropped, or still readable but of another
version, with a value of the wrong type, or storing a fact the file derives.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from domainlm import corpus as C
from domainlm import phrases as P


@dataclass
class PhraseWorld:
    corpus_lines: list[str]
    pool_lines: list[str]
    phrases: list[tuple[str, ...]]          # surface word tuples
    group_of_context: dict[str, list[tuple[str, ...]]]


def build_phrase_world(seed: int = 0, n_sentences: int = 2000,
                       phraseless_fraction: float = 0.65) -> PhraseWorld:
    """Templated sentences: og m1 ctx m2 [PHRASE] m3 m4 cg.

    Opener/closer/context words are deterministic per group and the menu
    slots are low-entropy (90/7/3 over three options), so single-word
    reconstruction saturates early. Phrase ambiguity grows with length
    (len-2 groups 60/25/15, len-3 45/30/25, len-4 uniform) and len-2
    groups dominate the corpus, so exact multi-token reconstruction gets
    intrinsically harder with span size. A phraseless_fraction of
    sentences omits the phrase slot entirely (and is shorter, so the two
    sentence shapes stay distinguishable under full-span masks); those
    sentences exercise the word-fallback path of phrase-mode masking.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    fillers = [f"f{i:02d}" for i in range(60)]
    phrase_words = [f"p{i:02d}" for i in range(85)]
    slot_dist = [0.9, 0.07, 0.03]

    group_len = [2] * 5 + [3] * 3 + [4] * 2
    group_weights = np.array([0.13] * 5 + [0.0833] * 3 + [0.05] * 2)
    group_weights /= group_weights.sum()
    group_dist = {2: [0.6, 0.25, 0.15], 3: [0.45, 0.3, 0.25], 4: [0.34, 0.33, 0.33]}

    phrases: list[tuple[str, ...]] = []
    group_of_context: dict[str, list[tuple[str, ...]]] = {}
    group_words = []
    menus = []
    w = 0
    menu_rng = np.random.default_rng([seed, 0x3E2D])
    for g, length in enumerate(group_len):
        group = []
        for _ in range(3):
            group.append(tuple(phrase_words[w:w + length]))
            w += length
        ctx = f"ctx{g}"
        group_of_context[ctx] = group
        phrases.extend(group)
        group_words.append((f"og{g}", ctx, f"cg{g}"))
        menus.append([
            [fillers[int(i)] for i in menu_rng.choice(len(fillers), size=3, replace=False)]
            for _ in range(4)
        ])

    corpus_lines = []
    for _ in range(n_sentences):
        g = int(rng.choice(len(group_len), p=group_weights))
        og, ctx, cg = group_words[g]
        m1, m2, m3, m4 = (menus[g][s][int(rng.choice(3, p=slot_dist))] for s in range(4))
        if rng.random() < phraseless_fraction:
            words = [og, m1, ctx, m2, m3, m4, cg]
        else:
            pick = int(rng.choice(3, p=group_dist[group_len[g]]))
            phrase = group_of_context[ctx][pick]
            words = [og, m1, ctx, m2, *phrase, m3, m4, cg]
        corpus_lines.append(" ".join(words))

    pool_rng = np.random.default_rng([seed, 0xA00])
    pool_lines = []
    for phrase in phrases:
        score = float(pool_rng.uniform(0.55, 0.95))
        pool_lines.append(f"{' '.join(phrase)}\t{score:.3f}")
    return PhraseWorld(corpus_lines=corpus_lines, pool_lines=pool_lines,
                       phrases=phrases, group_of_context=group_of_context)


def write_phrase_world(tmp_path, world: PhraseWorld):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(world.corpus_lines) + "\n")
    pool = tmp_path / "pool.tsv"
    pool.write_text("\n".join(world.pool_lines) + "\n")
    return corpus, pool


def load_phrase_world(tmp_path, world: PhraseWorld, min_freq: int = 1,
                      max_seq_len: int = 32):
    corpus_path, pool_path = write_phrase_world(tmp_path, world)
    vocab = C.build_vocab(corpus_path, min_freq=min_freq)
    docs = C.load_corpus(corpus_path, vocab, max_seq_len=max_seq_len)
    pool = P.load_pool(pool_path, vocab)
    return vocab, docs, pool, corpus_path, pool_path


@dataclass
class PairWorld:
    corpus_lines: list[str]
    content_lines: list[str]
    pair_lines: list[str]
    planted: list[tuple[str, str, str, str]]  # (entity_a, entity_b, word_a, word_b)


def build_pair_world(seed: int = 0, n_pairs: int = 60, n_syn: int = 20) -> PairWorld:
    """Paired documents sharing five context words plus one planted synonym
    slot; each side also carries one side-specific distractor word, so the
    synonym row of a transport plan has real competition."""
    rng = np.random.default_rng([seed, 0xBEEF])
    shared = [f"s{i:02d}" for i in range(40)]
    syn_a = [f"lefta{i:02d}" for i in range(n_syn)]
    syn_b = [f"rightb{i:02d}" for i in range(n_syn)]
    dis_a = [f"noisea{i:02d}" for i in range(30)]
    dis_b = [f"noiseb{i:02d}" for i in range(30)]

    content_lines, pair_lines, corpus_lines = [], [], []
    planted = []
    for k in range(n_pairs):
        s = k % n_syn
        ctx = [shared[int(i)] for i in rng.integers(len(shared), size=5)]
        slot = int(rng.integers(1, 5))
        da = dis_a[int(rng.integers(len(dis_a)))]
        db = dis_b[int(rng.integers(len(dis_b)))]
        words_a = ctx[:slot] + [syn_a[s]] + ctx[slot:] + [da]
        words_b = ctx[:slot] + [syn_b[s]] + ctx[slot:] + [db]
        ida, idb = f"ea{k:03d}", f"eb{k:03d}"
        content_lines.append(f"{ida}\t{' '.join(words_a)}")
        content_lines.append(f"{idb}\t{' '.join(words_b)}")
        pair_lines.append(f"{ida}\t{idb}")
        corpus_lines.append(" ".join(words_a))
        corpus_lines.append(" ".join(words_b))
        planted.append((ida, idb, syn_a[s], syn_b[s]))
    return PairWorld(corpus_lines=corpus_lines, content_lines=content_lines,
                     pair_lines=pair_lines, planted=planted)


def write_pair_world(tmp_path, world: PairWorld):
    corpus = tmp_path / "pair_corpus.txt"
    corpus.write_text("\n".join(world.corpus_lines) + "\n")
    content = tmp_path / "content.tsv"
    content.write_text("\n".join(world.content_lines) + "\n")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("\n".join(world.pair_lines) + "\n")
    return corpus, content, pairs


def read_alignment_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """Row tokens, column tokens and matrix of a CSV ``write_alignment_csv`` wrote."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    matrix = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return [r[0] for r in rows[1:]], rows[0][1:], matrix


ARENAS = ("arena", "adam_m", "adam_v")
# Readable damages that set an arena's first value to one no run reaches.
ARENA_VALUE_DAMAGE = {"arena-nan": np.nan, "arena-inf": np.inf, "adam_m-nan": np.nan,
                      "adam_v-negative": -1.0}
# Readable damages that set one train_config value.
CONFIG_DAMAGE = {"batch_size-string": ("batch_size", "8"), "batch_size-float": ("batch_size", 8.0),
                 "seed-float": ("seed", 0.5), "eval_docs-float": ("eval_docs", 2.0),
                 "stage1_epochs-true": ("stage1_epochs", True), "warm_alpha-2": ("warm_alpha", 2.0),
                 "bootstrap_every-0": ("bootstrap_every", 0)}
# Readable damages that replace the first stored phrase with a value no pool holds.
PHRASE_DAMAGE = {"float-ids": [1.5, 2.0], "string-ids": ["5", "6"], "bool-ids": [True, True],
                 "string": "ab", "empty": [], "ids-outside-vocab": [-5, 99999],
                 "unk": [C.UNK_ID, C.NUM_SPECIALS]}
READABLE_DAMAGE = ("no-stage2_iters_done", "no-warm_iters", "no-heads", "version-1",
                   "version-2", "version-3.0", "version-true", "vocab-5-int",
                   *[f"{key}-{how}" for key in ARENAS for how in ("short", "long")],
                   *ARENA_VALUE_DAMAGE,
                   "tok_emb-10-rows", "vocab_size-changed", "shape-carries-max_seq_len",
                   "dim-float", "vocab-3-longer", "vocab-repeated-token", "vocab-specials-swapped",
                   "phrases-1-shorter", "stage1_iters_done-float",
                   *CONFIG_DAMAGE, "scheduler-iteration-string", "scheduler-iteration-null",
                   "scheduler-bootstrap_every-0", "scheduler-alpha-2",
                   "scheduler-iteration-negative", "scheduler-word_first-inf",
                   *[f"phrases-0-{how}" for how in PHRASE_DAMAGE],
                   "phrases-1-repeated")
CHECKPOINT_DAMAGE = ("truncated", "bytes-overwritten", *READABLE_DAMAGE)


def _damage(arrays: dict, damage: str) -> None:
    """Apply one of ``READABLE_DAMAGE`` to a checkpoint's arrays and metadata."""
    meta = json.loads(arrays["meta"])
    shape = meta["shape"]
    key, _, how = damage.rpartition("-")
    if damage in CONFIG_DAMAGE:
        key, value = CONFIG_DAMAGE[damage]
        meta["train_config"][key] = value
    elif damage == "no-stage2_iters_done":
        del meta["stage2_iters_done"]
    elif damage == "no-warm_iters":  # a key with a default must still be stored
        del meta["train_config"]["warm_iters"]
    elif damage == "no-heads":  # heads sizes no parameter, so no arena check sees it
        del shape["heads"]
    elif damage.startswith("version-"):
        meta["version"] = json.loads(how)
    elif damage == "vocab-5-int":
        meta["vocab"][5] = 7
    elif damage in ARENA_VALUE_DAMAGE:
        arrays[key][0] = ARENA_VALUE_DAMAGE[damage]
    elif key in ARENAS:  # one float short or long
        arrays[key] = arrays[key][:-1] if how == "short" else np.append(arrays[key], 0.0)
    elif damage == "tok_emb-10-rows":  # the arena of a model whose tok_emb has 10 rows
        arrays["arena"] = np.delete(arrays["arena"],
                                    np.s_[10 * shape["dim"]:len(meta["vocab"]) * shape["dim"]])
    elif damage == "vocab_size-changed":  # the vocab size is derived, never stored
        shape["vocab_size"] = len(meta["vocab"]) + 1
    elif damage == "shape-carries-max_seq_len":  # the train_config's is the only one
        shape["max_seq_len"] = meta["train_config"]["max_seq_len"]
    elif damage == "dim-float":
        shape["dim"] = float(shape["dim"])
    elif damage == "vocab-3-longer":  # three new tokens at the end: only the arena is short
        meta["vocab"] += [f"{tok}-new" for tok in meta["vocab"][4:7]]
    elif damage == "vocab-repeated-token":  # same size, so only the vocab rule sees it
        meta["vocab"][5] = meta["vocab"][4]
    elif damage == "vocab-specials-swapped":
        meta["vocab"][:2] = meta["vocab"][1::-1]
    elif damage == "phrases-1-shorter":
        meta["phrases"].pop()
    elif damage == "stage1_iters_done-float":
        meta["stage1_iters_done"] = float(meta["stage1_iters_done"])
    elif damage == "scheduler-iteration-string":
        meta["scheduler"]["iteration"] = str(meta["scheduler"]["iteration"])
    elif damage == "scheduler-iteration-null":  # null is a float history's NaN, no count
        meta["scheduler"]["iteration"] = None
    elif damage == "scheduler-alpha-2":
        meta["scheduler"]["alpha"] = 2.0
    elif damage == "scheduler-iteration-negative":
        meta["scheduler"]["iteration"] = -5
    elif damage == "scheduler-word_first-inf":  # JSON's Infinity: a history, but not finite
        meta["scheduler"].update(word_first=math.inf, word_curr=-math.inf)
    elif damage.startswith("phrases-0-"):
        meta["phrases"][0] = PHRASE_DAMAGE[damage.removeprefix("phrases-0-")]
    elif damage == "phrases-1-repeated":
        meta["phrases"][1] = meta["phrases"][0]
    else:  # the train_config holds the scheduler's settings
        assert damage == "scheduler-bootstrap_every-0", damage
        meta["scheduler"]["bootstrap_every"] = 0
    arrays["meta"] = json.dumps(meta).encode("utf-8")


def rewrite_checkpoint(src, dst, edit) -> None:
    """Copy checkpoint ``src`` to ``dst`` as a valid zip, after ``edit(arrays)``
    has changed its arrays in place; ``arrays["meta"]`` is the metadata JSON's bytes."""
    with np.load(src) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays["meta"] = arrays["meta"].tobytes()
    edit(arrays)
    arrays["meta"] = np.frombuffer(arrays["meta"], dtype=np.uint8)
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)


def corrupt_checkpoint(src, dst, damage: str) -> None:
    """Write a damaged copy of checkpoint ``src`` to ``dst`` (which may be
    ``src``): the first half of its bytes, 64 bytes inverted mid-file, or
    one of the readable damages of ``CHECKPOINT_DAMAGE``."""
    if damage in READABLE_DAMAGE:
        return rewrite_checkpoint(src, dst, lambda arrays: _damage(arrays, damage))
    data = bytearray(Path(src).read_bytes())
    if damage == "truncated":
        data = data[:len(data) // 2]
    else:
        assert damage == "bytes-overwritten", damage
        mid = len(data) // 2
        data[mid:mid + 64] = bytes(b ^ 0xFF for b in data[mid:mid + 64])
    Path(dst).write_bytes(bytes(data))
