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
from typing import Iterable, Iterator, Optional

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


def numbered_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, text without its newline) for each non-empty line of a UTF-8 file.

    A leading byte-order mark is skipped; a line that is not UTF-8 raises
    CorpusError naming it. Every text input (vocab, corpus, entity content
    and pairs, phrase pool, config file, run report) is read here, so all of
    them follow the same rules.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if line:
                    yield lineno, line
    except UnicodeDecodeError:  # on this path only, find the first line that does not decode
        lines = Path(path).read_bytes().splitlines()  # at \n, \r\n and \r, as text mode splits
        bad = next(n for n, b in enumerate(lines, 1) if b.decode("utf-8", "ignore").encode() != b)
        raise CorpusError(f"{path}:{bad}: not valid UTF-8") from None


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
        """Read a "token<TAB>id" file whose ids count up from 0, one per line."""
        tokens: list[str] = []
        lines: list[int] = []
        for lineno, line in numbered_lines(path):
            try:
                tok, idx = line.split("\t")
                idx = int(idx)
            except ValueError as exc:
                raise CorpusError(f"{path}:{lineno}: malformed vocab line") from exc
            if idx != len(tokens):
                raise CorpusError(f"{path}:{lineno}: non-contiguous vocab id {idx}")
            tokens.append(tok)
            lines.append(lineno)
        return cls.from_tokens(tokens, str(path), lines)

    @classmethod
    def from_tokens(cls, tokens: list[str], source: str = "vocab",
                    lines: Optional[list[int]] = None) -> "Vocab":
        """The vocab whose id ``i`` is ``tokens[i]``: strings, none repeated, the
        specials first. A fault raises CorpusError naming ``source`` and the faulty
        token's line in it, or its id when ``lines`` is not given."""
        def where(idx: int) -> str:
            return f"{source}:{lines[idx]}" if lines else f"{source} id {idx}"

        token_to_id: dict[str, int] = {}
        for idx, tok in enumerate(tokens):
            if type(tok) is not str:
                raise CorpusError(f"{where(idx)}: vocab entries must be strings, got {tok!r}")
            if token_to_id.setdefault(tok, idx) != idx:
                raise CorpusError(f"{where(idx)}: repeated vocab token {tok!r}")
        if tokens[:NUM_SPECIALS] != list(SPECIAL_TOKENS):
            raise CorpusError(f"{source}: does not start with the special tokens "
                              f"{' '.join(SPECIAL_TOKENS)}")
        return cls(token_to_id, list(tokens))


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


def token_counts(corpus_path) -> dict[str, int]:
    """How often each token occurs in a one-document-per-line corpus; a
    corpus with no token at all is an error naming the file."""
    counts: dict[str, int] = {}
    for _, line in numbered_lines(corpus_path):
        for tok in split_words(line):
            counts[tok] = counts.get(tok, 0) + 1
    if not counts:
        raise CorpusError(f"{Path(corpus_path)}: corpus contains no tokens")
    return counts


def vocab_from_counts(counts: dict[str, int], min_freq: int = 1) -> Vocab:
    """Specials, then every token counted at least ``min_freq`` times, most
    frequent first (ties by token); rarer tokens map to UNK at encode time."""
    if min_freq < 1:
        raise CorpusError(f"min_freq must be >= 1, got {min_freq}")
    kept = sorted((tok for tok, c in counts.items() if c >= min_freq),
                  key=lambda tok: (-counts[tok], tok))
    return Vocab.from_tokens(list(SPECIAL_TOKENS) + kept)


def build_vocab(corpus_path, min_freq: int = 1) -> Vocab:
    """The vocabulary of a one-document-per-line corpus: ``vocab_from_counts``
    over its ``token_counts``."""
    return vocab_from_counts(token_counts(corpus_path), min_freq)


def tokenize(text: str, vocab: Vocab, max_seq_len: int = 128) -> Document:
    """Lowercase, split, map to ids (unknowns -> UNK), truncate."""
    words = split_words(text)
    ids = vocab.encode(words)
    return Document(tokens=ids[:max_seq_len])


def load_corpus(corpus_path, vocab: Vocab, max_seq_len: int = 128) -> list[Document]:
    """Tokenize every non-empty line of the corpus file."""
    docs = []
    for _, line in numbered_lines(corpus_path):
        doc = tokenize(line, vocab, max_seq_len)
        if doc.tokens:
            docs.append(doc)
    if not docs:
        raise CorpusError(f"{corpus_path}: corpus contains no tokens")
    return docs


def load_content(content_path, vocab: Vocab, max_seq_len: int = 128) -> dict[str, Document]:
    """Read an "id<TAB>text" file into tokenized documents keyed by entity id."""
    content: dict[str, Document] = {}
    for lineno, line in numbered_lines(content_path):
        parts = line.split("\t", 1)
        if len(parts) != 2:
            raise CorpusError(f"{content_path}:{lineno}: expected 'id<TAB>text'")
        eid, text = parts
        if eid in content:
            raise CorpusError(f"{content_path}:{lineno}: repeated entity id {eid!r}")
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
    for lineno, line in numbered_lines(pairs_path):
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
