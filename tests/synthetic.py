"""Synthetic corpora with controllable structure for training-run tests.

Phrase world: templated sentences where a group-specific context word
predicts a phrase drawn from that group (with a dominant choice), so
multi-token reconstruction is learnable but not saturated.

Pair world: associated document pairs that are identical except for one
planted synonym slot, giving ground-truth word alignments.

Damaged checkpoints: copies of a saved checkpoint cut short, with bytes
overwritten, or with a metadata key dropped.
"""
from __future__ import annotations

import json
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


CHECKPOINT_DAMAGE = ("truncated", "bytes-overwritten", "no-adam_t")


def drop_meta_key(src, dst, key: str) -> None:
    """Copy checkpoint ``src`` to ``dst`` without ``key`` in its metadata."""
    with np.load(src) as npz:
        arrays = {name: npz[name] for name in npz.files}
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    del meta[key]
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)


def corrupt_checkpoint(src, dst, damage: str) -> None:
    """Write a damaged copy of checkpoint ``src`` to ``dst`` (which may be
    ``src``): the first half of its bytes, 64 bytes inverted mid-file, or
    the metadata without ``adam_t``."""
    if damage == "no-adam_t":
        return drop_meta_key(src, dst, "adam_t")
    data = bytearray(Path(src).read_bytes())
    if damage == "truncated":
        data = data[:len(data) // 2]
    else:
        assert damage == "bytes-overwritten", damage
        mid = len(data) // 2
        data[mid:mid + 64] = bytes(b ^ 0xFF for b in data[mid:mid + 64])
    Path(dst).write_bytes(bytes(data))
