import numpy as np
import pytest

from domainlm import cli
from domainlm import corpus as C
from domainlm import phrases as P


@pytest.fixture
def tiny_corpus(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text("red apple red\n")
    return p


class TestBuildVocab:
    def test_frequency_then_lex_ordering(self, tiny_corpus):
        v = C.build_vocab(tiny_corpus, min_freq=1)
        assert v.id_to_token[:4] == list(C.SPECIAL_TOKENS)
        assert v.token_to_id["red"] == 4  # freq 2 beats freq 1
        assert v.token_to_id["apple"] == 5

    def test_min_freq_threshold(self, tiny_corpus):
        v = C.build_vocab(tiny_corpus, min_freq=2)
        assert "red" in v.token_to_id
        assert "apple" not in v.token_to_id

    @pytest.mark.parametrize("min_freq", [0, -5])
    def test_min_freq_below_one_rejected(self, tiny_corpus, min_freq):
        with pytest.raises(C.CorpusError, match=f"min_freq must be >= 1, got {min_freq}"):
            C.build_vocab(tiny_corpus, min_freq=min_freq)
        with pytest.raises(C.CorpusError, match="min_freq must be >= 1"):
            C.vocab_from_counts({"red": 2}, min_freq)

    def test_below_threshold_maps_to_unk(self, tiny_corpus):
        v = C.build_vocab(tiny_corpus, min_freq=2)
        assert v.encode(["apple"]) == [C.UNK_ID]

    def test_empty_corpus_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        with pytest.raises(C.CorpusError):
            C.build_vocab(p)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            C.build_vocab(tmp_path / "nope.txt")

    def test_deterministic_across_runs(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("b a c a b z z z\nq a b\n")
        v1 = C.build_vocab(p)
        v2 = C.build_vocab(p)
        assert v1.id_to_token == v2.id_to_token

    def test_tie_break_is_lexicographic(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("zebra apple zebra apple\n")
        v = C.build_vocab(p)
        assert v.token_to_id["apple"] == 4
        assert v.token_to_id["zebra"] == 5


class TestTokenize:
    def test_case_folding(self, tiny_corpus):
        v = C.build_vocab(tiny_corpus)
        doc = C.tokenize("Red APPLE", v)
        assert doc.tokens == [4, 5]

    def test_oov_becomes_unk(self, tiny_corpus):
        v = C.build_vocab(tiny_corpus)
        assert C.tokenize("zyzzyva", v).tokens == [C.UNK_ID]

    def test_truncation_keeps_the_leading_tokens(self, tiny_corpus):
        v = C.build_vocab(tiny_corpus)
        doc = C.tokenize("red apple " * 100, v, max_seq_len=127)
        assert doc.tokens == [4, 5] * 63 + [4]

    def test_punctuation_split(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("great battery, life.\n")
        v = C.build_vocab(p)
        doc = C.tokenize("battery, life.", v)
        assert v.decode(doc.tokens) == ["battery", ",", "life", "."]

    def test_round_trip_without_unk(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("alpha beta gamma , . delta\n")
        v = C.build_vocab(p)
        rng = np.random.default_rng(0)
        for _ in range(50):
            ids = list(rng.integers(C.NUM_SPECIALS, len(v), size=rng.integers(1, 12)))
            text = " ".join(v.decode(ids))
            assert C.tokenize(text, v).tokens == ids


class TestVocabFile:
    def test_save_load_round_trip(self, tiny_corpus, tmp_path):
        v = C.build_vocab(tiny_corpus)
        out = tmp_path / "vocab.tsv"
        v.save(out)
        v2 = C.Vocab.load(out)
        assert v2.id_to_token == v.id_to_token
        assert v2.token_to_id == v.token_to_id

    def test_save_is_byte_identical(self, tiny_corpus, tmp_path):
        v = C.build_vocab(tiny_corpus)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        v.save(a)
        C.build_vocab(tiny_corpus).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_repeated_token_rejected_naming_file_and_line(self, tiny_corpus, tmp_path):
        out = tmp_path / "vocab.tsv"
        C.build_vocab(tiny_corpus).save(out)
        out.write_text(out.read_text() + "red\t6\n")  # "red" is already id 4
        with pytest.raises(C.CorpusError, match=f"{out}:7: repeated vocab token 'red'"):
            C.Vocab.load(out)


@pytest.fixture
def pair_files(tmp_path):
    content = tmp_path / "content.tsv"
    content.write_text(
        "p1\tgreat battery life\n"
        "p2\tbattery lasts long\n"
        "p3\tsharp screen\n"
    )
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("p1\tp2\np2\tp3\np1\tp3\n")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("great battery life battery lasts long sharp screen\n")
    vocab = C.build_vocab(corpus)
    return pairs, content, vocab


class TestEntityPairs:
    def test_all_resolvable(self, pair_files):
        pairs, content, vocab = pair_files
        ps = C.load_entity_pairs(pairs, content, vocab)
        assert len(ps) == 3
        assert ps.dropped == 0
        for a, b in ps.pairs:
            assert a in ps.content and b in ps.content

    def test_unknown_id_dropped_and_counted(self, pair_files, tmp_path):
        pairs, content, vocab = pair_files
        p = tmp_path / "pairs2.tsv"
        p.write_text("p1\tp2\np1\tmissing\n")
        ps = C.load_entity_pairs(p, content, vocab)
        assert len(ps) == 1
        assert ps.dropped == 1

    def test_duplicates_and_direction_collapse(self, pair_files, tmp_path):
        pairs, content, vocab = pair_files
        p = tmp_path / "pairs3.tsv"
        p.write_text("p1\tp2\np2\tp1\np1\tp2\n")
        ps = C.load_entity_pairs(p, content, vocab)
        assert ps.pairs == [("p1", "p2")]

    def test_content_without_tokens_dropped_and_counted(self, pair_files, tmp_path):
        _, _, vocab = pair_files
        content = tmp_path / "content-empty.tsv"
        content.write_text("p1\tgreat battery life\np2\tsharp screen\np3\t   \n")
        p = tmp_path / "pairs-empty.tsv"
        p.write_text("p1\tp2\np2\tp3\np3\tp1\n")
        ps = C.load_entity_pairs(p, content, vocab)
        assert ps.pairs == [("p1", "p2")]
        assert ps.dropped == 2
        assert "p3" not in ps.content  # never drawn as a negative either

    def test_self_pair_dropped(self, pair_files, tmp_path):
        pairs, content, vocab = pair_files
        p = tmp_path / "pairs4.tsv"
        p.write_text("p1\tp1\n")
        ps = C.load_entity_pairs(p, content, vocab)
        assert len(ps) == 0 and ps.dropped == 1

    def test_malformed_line_reports_number(self, pair_files, tmp_path):
        pairs, content, vocab = pair_files
        p = tmp_path / "pairs5.tsv"
        p.write_text("p1\tp2\nonly-one-column\n")
        with pytest.raises(C.CorpusError, match=":2"):
            C.load_entity_pairs(p, content, vocab)

    def test_repeated_content_id_rejected_naming_file_and_line(self, pair_files, tmp_path):
        pairs, _, vocab = pair_files
        content = tmp_path / "content-repeated.tsv"
        content.write_text("p1\tgreat battery life\np2\tsharp screen\np1\tbattery lasts long\n")
        with pytest.raises(C.CorpusError, match=f"{content}:3: repeated entity id 'p1'"):
            C.load_content(content, vocab)
        with pytest.raises(C.CorpusError, match=f"{content}:3"):
            C.load_entity_pairs(pairs, content, vocab)

    def test_length_bound_holds(self, pair_files, tmp_path):
        pairs, content, vocab = pair_files
        long_content = tmp_path / "content-long.tsv"
        long_content.write_text("p1\t" + "battery " * 300 + "\np2\tscreen\n")
        ps = C.load_entity_pairs(pairs, long_content, vocab, max_seq_len=64)
        for doc in ps.content.values():
            assert len(doc) <= 64


@pytest.mark.parametrize("kind", ["vocab", "corpus", "content", "pairs", "phrase_pool",
                                  "config"])
def test_byte_order_mark_gives_the_same_result(kind, pair_files, tmp_path):
    pairs, content, vocab = pair_files
    vocab_file = tmp_path / "vocab.tsv"
    vocab.save(vocab_file)

    def read_corpus(path):
        return C.build_vocab(path).id_to_token, [d.tokens for d in C.load_corpus(path, vocab)]

    def read_pairs(path):
        pair_set = C.load_entity_pairs(path, content, vocab)
        return pair_set.pairs, pair_set.dropped

    def read_pool(path):
        pool = P.load_pool(path, vocab)
        return pool.entries, pool.dropped_oov, pool.dropped_short

    text, read = {
        "vocab": (vocab_file.read_text(), lambda path: C.Vocab.load(path).id_to_token),
        "corpus": ("battery life\n\ngreat screen\n", read_corpus),
        "content": (content.read_text(),
                    lambda path: {k: d.tokens for k, d in C.load_content(path, vocab).items()}),
        "pairs": (pairs.read_text(), read_pairs),
        "phrase_pool": ("battery life\t0.9\nsharp screen\t0.8\n", read_pool),
        "config": ("batch_size = 4\n# a comment\n", cli._read_config_file),
    }[kind]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")  # starts with the mark EF BB BF
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert read(marked) == read(plain)


@pytest.mark.parametrize("kind", ["vocab", "corpus", "content", "pairs", "phrase_pool",
                                  "config", "report"])
def test_a_line_that_is_not_utf8_is_named(kind, pair_files, tmp_path):
    pairs, content, vocab = pair_files
    vocab_file = tmp_path / "vocab.tsv"
    vocab.save(vocab_file)
    valid, read = {  # two valid lines for the reader, then a bad line 3
        "vocab": (vocab_file.read_bytes(), C.Vocab.load),
        "corpus": (b"battery life\n\n", lambda path: C.load_corpus(path, vocab)),
        "content": (content.read_bytes(), lambda path: C.load_content(path, vocab)),
        "pairs": (pairs.read_bytes(), lambda path: C.load_entity_pairs(path, content, vocab)),
        "phrase_pool": (b"battery life\t0.9\nsharp screen\t0.8\n",
                        lambda path: P.load_pool(path, vocab)),
        "config": (b"batch_size = 4\n# a comment\n", cli._read_config_file),
        "report": (b'{"iter": 1}\n{"iter": 2}\n', lambda path: cli._earlier_records(path, 9)),
    }[kind]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"".join(valid.splitlines(keepends=True)[:2]) + b"caf\xe9 \xff\nlast\n")
    with pytest.raises(C.CorpusError, match=f"^{bad}:3: not valid UTF-8$"):
        read(bad)


def test_the_line_named_is_counted_as_text_mode_counts_it(tmp_path):
    path = tmp_path / "late.txt"
    lines = [b"word %d" % i for i in range(5000)] + [b"\xc3"]  # past the first decoded chunk
    path.write_bytes(b"\xef\xbb\xbfa\rb\r\n" + b"\n".join(lines))
    seen = []
    with pytest.raises(C.CorpusError, match=f"{path}:5003: not valid UTF-8"):
        seen.extend(C.numbered_lines(path))
    assert seen[:3] == [(1, "a"), (2, "b"), (3, "word 0")]
