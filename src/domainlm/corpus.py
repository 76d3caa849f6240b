"""Corpus ingestion: vocabulary, word-level tokenizer, entity pair loading.

Tokens are lowercased words split on whitespace and punctuation
boundaries; punctuation marks become their own tokens. Word-level ids
keep whole-word masking exact and the phrase matcher simple (subword
models are out of scope).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

PAD_ID = 0
UNK_ID = 1
MASK_ID = 2
CLS_ID = 3
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[MASK]", "[CLS]")
NUM_SPECIALS = len(SPECIAL_TOKENS)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


class CorpusError(ValueError):
    """Malformed or empty input files."""


def split_words(text: str) -> list[str]:
    """Lowercase and split into word/punctuation tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocab:
    """Bijection between surface tokens and ids; ids 0-3 are specials.

    Non-special ids are assigned by descending corpus frequency with
    lexicographic tie-breaks, so construction is deterministic.
    """

    token_to_id: dict[str, int]
    id_to_token: list[str]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.token_to_id.get(tok, UNK_ID) for tok in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, tok in enumerate(self.id_to_token):
                fh.write(f"{tok}\t{idx}\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        token_to_id: dict[str, int] = {}
        id_to_token: list[str] = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    tok, idx = line.split("\t")
                    idx = int(idx)
                except ValueError as exc:
                    raise CorpusError(f"{path}:{lineno}: malformed vocab line") from exc
                if idx != len(id_to_token):
                    raise CorpusError(f"{path}:{lineno}: non-contiguous vocab id {idx}")
                if token_to_id.setdefault(tok, idx) != idx:
                    raise CorpusError(f"{path}:{lineno}: repeated vocab token {tok!r}")
                id_to_token.append(tok)
        if id_to_token[:NUM_SPECIALS] != list(SPECIAL_TOKENS):
            raise CorpusError(f"{path}: vocab file does not start with the special tokens")
        return cls(token_to_id, id_to_token)


@dataclass
class Document:
    """One tokenized input sequence, truncated to the configured maximum."""

    tokens: list[int]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class EntityPairSet:
    """Undirected entity associations plus the tokenized content per entity."""

    pairs: list[tuple[str, str]]
    content: dict[str, Document]
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.pairs)


def build_vocab(corpus_path, min_freq: int = 1) -> Vocab:
    """Count tokens over a one-document-per-line corpus and assign ids.

    Tokens with frequency below ``min_freq`` are excluded (they map to UNK
    at encode time). Specials are always present.
    """
    path = Path(corpus_path)
    counts: dict[str, int] = {}
    n_tokens = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            for tok in split_words(line):
                counts[tok] = counts.get(tok, 0) + 1
                n_tokens += 1
    if n_tokens == 0:
        raise CorpusError(f"{path}: corpus contains no tokens")
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    id_to_token = list(SPECIAL_TOKENS) + kept
    return Vocab({tok: i for i, tok in enumerate(id_to_token)}, id_to_token)


def tokenize(text: str, vocab: Vocab, max_seq_len: int = 128) -> Document:
    """Lowercase, split, map to ids (unknowns -> UNK), truncate."""
    words = split_words(text)
    ids = vocab.encode(words)
    return Document(tokens=ids[:max_seq_len])


def load_corpus(corpus_path, vocab: Vocab, max_seq_len: int = 128) -> list[Document]:
    """Tokenize every non-empty line of the corpus file."""
    docs = []
    with open(corpus_path, encoding="utf-8") as fh:
        for line in fh:
            doc = tokenize(line, vocab, max_seq_len)
            if doc.tokens:
                docs.append(doc)
    if not docs:
        raise CorpusError(f"{corpus_path}: corpus contains no tokens")
    return docs


def load_content(content_path, vocab: Vocab, max_seq_len: int = 128) -> dict[str, Document]:
    """Read an "id<TAB>text" file into tokenized documents keyed by entity id."""
    content: dict[str, Document] = {}
    with open(content_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise CorpusError(f"{content_path}:{lineno}: expected 'id<TAB>text'")
            eid, text = parts
            content[eid] = tokenize(text, vocab, max_seq_len)
    return content


def load_entity_pairs(pairs_path, content_path, vocab: Vocab,
                      max_seq_len: int = 128) -> EntityPairSet:
    """Load associated entity pairs with both sides tokenized.

    Pairs are undirected and deduplicated (smaller id stored first);
    self-pairs and pairs whose content is missing or has no tokens are
    dropped and counted. Entities without tokens leave ``content`` too, so
    they are never drawn as negatives.
    """
    content = {eid: doc for eid, doc in load_content(content_path, vocab, max_seq_len).items()
               if doc.tokens}
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    dropped = 0
    with open(pairs_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CorpusError(f"{pairs_path}:{lineno}: expected 'id_a<TAB>id_b'")
            a, b = parts
            if a == b:
                dropped += 1
                continue
            key = (a, b) if a < b else (b, a)
            if key in seen:
                continue
            if key[0] not in content or key[1] not in content:
                dropped += 1
                continue
            seen.add(key)
            pairs.append(key)
    return EntityPairSet(pairs=pairs, content=content, dropped=dropped)
