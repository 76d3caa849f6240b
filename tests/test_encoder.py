import re
from dataclasses import fields

import numpy as np
import pytest

from domainlm import encoder as E
from domainlm import masking as M
from domainlm import tensor as T

from field_cases import as_params, bound_edges, refused, type_refusal
from gradcheck import check_grads

# Each EncoderConfig bound, as README states it, and sizes that satisfy them all.
ENCODER_BOUNDS = {"vocab_size": ">= 1", "phrase_vocab_size": ">= 0", "layers": ">= 1",
                  "dim": ">= 1", "heads": ">= 1", "ffn_dim": ">= 1", "max_seq_len": ">= 1"}
SIZED = {"vocab_size": 10, "phrase_vocab_size": 1, "heads": 1}

CFG = E.EncoderConfig(vocab_size=20, phrase_vocab_size=5, layers=2, dim=16,
                      heads=2, ffn_dim=32, max_seq_len=8)


@pytest.fixture
def params():
    return E.init_params(CFG, np.random.default_rng(0))


def batch(seed=1, b=2, length=6, pad_tail=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(4, CFG.vocab_size, size=(b, length))
    mask = np.ones((b, length), dtype=bool)
    if pad_tail:
        ids[:, -pad_tail:] = 0
        mask[:, -pad_tail:] = False
    return ids, mask


class TestConfig:
    def test_dim_heads_divisibility(self):
        with pytest.raises(ValueError):
            E.EncoderConfig(vocab_size=10, phrase_vocab_size=1, dim=10, heads=3)

    def test_sizes_positive(self):
        with pytest.raises(ValueError):
            E.EncoderConfig(vocab_size=0, phrase_vocab_size=1)

    @pytest.mark.parametrize("key, value, message", as_params([
        *[(key, value, type_refusal(E.EncoderConfig, key, value)) for key, value in (
            ("dim", 32.0), ("layers", True), ("heads", "2"), ("vocab_size", 10.0),
            ("max_seq_len", None))],
        *refused(E.EncoderConfig, ENCODER_BOUNDS)]))
    def test_every_field_is_an_int(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            E.EncoderConfig(**{**SIZED, key: value})

    @pytest.mark.parametrize("key, value", bound_edges(E.EncoderConfig, ENCODER_BOUNDS))
    def test_each_bound_takes_its_edge(self, key, value):
        assert getattr(E.EncoderConfig(**{**SIZED, key: value}), key) == value

    def test_every_field_has_a_rule(self):
        # refused raises KeyError on a field of an annotation that no rule covers
        names = {f.name for f in fields(E.EncoderConfig)}
        assert {key for key, _, _ in refused(E.EncoderConfig, {})} == names
        assert ENCODER_BOUNDS.keys() == names


def _init_params_reference(config, rng):
    """The closure-based init that ``param_shapes`` replaced."""
    d, f = config.dim, config.ffn_dim

    def normal(*shape):
        return T.Tensor(rng.normal(0.0, 0.02, size=shape), requires_grad=True)

    def zeros(*shape):
        return T.Tensor(np.zeros(shape), requires_grad=True)

    def ones(*shape):
        return T.Tensor(np.ones(shape), requires_grad=True)

    params = {"tok_emb": normal(config.vocab_size, d), "pos_emb": normal(config.max_seq_len, d),
              "emb_ln.gain": ones(d), "emb_ln.bias": zeros(d)}
    for i in range(config.layers):
        p = f"layer{i}."
        for mat in ("wq", "wk", "wv", "wo"):
            params[p + f"attn.{mat}"] = normal(d, d)
        for vec in ("bq", "bk", "bv", "bo"):
            params[p + f"attn.{vec}"] = zeros(d)
        params[p + "ln1.gain"] = ones(d)
        params[p + "ln1.bias"] = zeros(d)
        params[p + "ffn.w1"] = normal(d, f)
        params[p + "ffn.b1"] = zeros(f)
        params[p + "ffn.w2"] = normal(f, d)
        params[p + "ffn.b2"] = zeros(d)
        params[p + "ln2.gain"] = ones(d)
        params[p + "ln2.bias"] = zeros(d)
    params["token_head"] = normal(d, config.vocab_size)
    if config.phrase_vocab_size > 0:
        params["phrase_head"] = normal(d, config.phrase_vocab_size)
    return params


class TestInit:
    @pytest.mark.parametrize("config", [
        CFG,
        E.EncoderConfig(vocab_size=148, phrase_vocab_size=0, layers=1, dim=12, heads=3,
                        ffn_dim=20, max_seq_len=9),
        E.EncoderConfig(vocab_size=31, phrase_vocab_size=7, layers=3, dim=8, heads=4,
                        ffn_dim=24, max_seq_len=16),
    ], ids=["default-shape", "no-phrase-head-1-layer", "3-layers"])
    def test_bit_for_bit_the_reference_init(self, config):
        got = E.init_params(config, np.random.default_rng(5))
        want = _init_params_reference(config, np.random.default_rng(5))
        assert list(got) == list(want) == list(E.param_shapes(config))
        for name, p in got.items():
            assert p.data.shape == want[name].data.shape == E.param_shapes(config)[name], name
            assert p.requires_grad and want[name].requires_grad, name
            assert p.data.tobytes() == want[name].data.tobytes(), name


class TestForward:
    def test_output_shape(self, params):
        ids, mask = batch()
        out = E.forward(ids, mask, params, CFG)
        assert out.shape == (2, 6, CFG.dim)

    def test_pad_tail_content_irrelevant(self, params):
        # Rewriting PAD-only tail columns must not change non-PAD outputs.
        ids, mask = batch(pad_tail=2)
        out1 = E.forward(ids, mask, params, CFG).data
        ids2 = ids.copy()
        ids2[:, -2:] = [[7, 9], [11, 5]]  # arbitrary junk under the mask
        out2 = E.forward(ids2, mask, params, CFG).data
        assert np.array_equal(out1[:, :-2, :], out2[:, :-2, :])

    def test_id_out_of_range(self, params):
        ids, mask = batch()
        ids[0, 0] = CFG.vocab_size
        with pytest.raises(IndexError):
            E.forward(ids, mask, params, CFG)

    def test_too_long_rejected(self, params):
        ids = np.zeros((1, CFG.max_seq_len + 1), dtype=np.int64)
        with pytest.raises(ValueError):
            E.forward(ids, np.ones_like(ids, dtype=bool), params, CFG)

    def test_deterministic(self):
        ids, mask = batch()
        p1 = E.init_params(CFG, np.random.default_rng(7))
        p2 = E.init_params(CFG, np.random.default_rng(7))
        o1 = E.forward(ids, mask, p1, CFG).data
        o2 = E.forward(ids, mask, p2, CFG).data
        assert o1.tobytes() == o2.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_ids_at_pad_positions_never_reach_real_rows(self, params, seed):
        # Ragged rows, one of length 1: PAD keys get exactly zero attention,
        # so any ids under the mask leave every real row bitwise unchanged.
        rng = np.random.default_rng([seed, 0xBAD])
        lengths = np.array([1, *rng.integers(1, CFG.max_seq_len + 1, size=3)])
        mask = np.arange(lengths.max()) < lengths[:, None]
        ids = np.where(mask, rng.integers(4, CFG.vocab_size, size=mask.shape), 0)
        junk = np.where(mask, ids, rng.integers(0, CFG.vocab_size, size=mask.shape))
        out = E.forward(ids, mask, params, CFG).data
        assert out[mask].tobytes() == E.forward(junk, mask, params, CFG).data[mask].tobytes()


class TestTokenLogits:
    def test_shape(self, params):
        ids, mask = batch()
        logits = E.token_logits(E.forward(ids, mask, params, CFG), params)
        assert logits.shape == (2, 6, CFG.vocab_size)

    def test_zero_hidden_zero_head_uniform(self):
        params = E.init_params(CFG, np.random.default_rng(0))
        params["token_head"] = T.Tensor(np.zeros((CFG.dim, CFG.vocab_size)), requires_grad=True)
        hidden = T.Tensor(np.zeros((1, 3, CFG.dim)))
        probs = T.softmax(E.token_logits(hidden, params)).data
        assert np.allclose(probs, 1.0 / CFG.vocab_size, atol=1e-15)

    def test_linearity(self, params):
        hidden = T.Tensor(np.random.default_rng(3).standard_normal((1, 4, CFG.dim)))
        two_h = T.scale(hidden, 2.0)
        l1 = E.token_logits(hidden, params).data
        l2 = E.token_logits(two_h, params).data
        assert np.allclose(l2, 2.0 * l1, atol=1e-12)


class TestPhraseLogits:
    def test_identical_vectors_match_single_readout(self, params):
        h = np.random.default_rng(4).standard_normal(CFG.dim)
        read = T.Tensor(np.broadcast_to(h, (4, CFG.dim)).copy())
        group_logits = E.phrase_logits(read, [[0, 1, 2, 3]], params).data
        single = h @ params["phrase_head"].data
        assert np.allclose(group_logits[0], single, atol=1e-12)

    def test_mean_matches_direct_summation(self, params):
        rng = np.random.default_rng(5)
        read = T.Tensor(rng.standard_normal((5, CFG.dim)))
        group = [1, 2, 4]
        logits = E.phrase_logits(read, [group], params).data
        direct = np.zeros(CFG.dim)
        for row in group:
            direct += read.data[row]
        direct /= len(group)
        assert np.allclose(logits[0], direct @ params["phrase_head"].data, atol=1e-12)

    def test_two_groups_order_preserving(self, params):
        read = T.Tensor(np.random.default_rng(6).standard_normal((6, CFG.dim)))
        both = E.phrase_logits(read, [[0, 1], [3, 4, 5]], params).data
        first = E.phrase_logits(read, [[0, 1]], params).data
        second = E.phrase_logits(read, [[3, 4, 5]], params).data
        assert np.allclose(both[0], first[0]) and np.allclose(both[1], second[0])

    def test_empty_group_rejected(self, params):
        read = T.Tensor(np.zeros((3, CFG.dim)))
        with pytest.raises(ValueError):
            E.phrase_logits(read, [[]], params)

    def test_gathers_only_the_group_tokens(self, params, monkeypatch):
        read = T.Tensor(np.random.default_rng(8).standard_normal((6, CFG.dim)))
        gathered = []
        gather = E.gather_positions
        monkeypatch.setattr(E, "gather_positions", lambda h, rows, positions:
                            gathered.append((np.broadcast_to(rows, np.shape(positions)).tolist(),
                                             list(positions)))
                            or gather(h, rows, positions))
        E.phrase_logits(read, [[4, 5], [0, 1, 2], [3, 4]], params)
        assert gathered == [([0] * 7, [4, 5, 0, 1, 2, 3, 4])]


class TestGatherPositions:
    def test_reads_hidden_at_broadcast_rows_and_positions(self):
        data = np.random.default_rng(9).standard_normal((3, 4, CFG.dim))
        rows, positions = np.array([[2], [0]]), np.array([3, 1, 0])
        got = E.gather_positions(T.Tensor(data), rows, positions)
        assert got.data.tobytes() == data[rows, positions].tobytes()

    @pytest.mark.parametrize("rows, positions", [([2], [0]), ([-1], [0]), ([0], [5]),
                                                 ([1], [-1]), ([0, 1], [4, 5])])
    def test_outside_the_forward_raises(self, rows, positions):
        # position 5 of a (2, 5) forward would otherwise read row 1, position 0
        hidden = T.Tensor(np.random.default_rng(10).standard_normal((2, 5, CFG.dim)))
        with pytest.raises(IndexError):
            E.gather_positions(hidden, rows, positions)

    def test_masked_position_past_the_row_raises(self, params):
        ids, mask = batch(length=5)
        batch_ = M.MaskedBatch(input_ids=ids, gold_ids=ids, pad_mask=mask,
                               masked_positions=[[5], [1]], phrases=[[], []], mode="word")
        with pytest.raises(IndexError, match="position"):
            E.forward(ids, mask, params, CFG, *batch_.masked_at)


class TestGradients:
    def test_full_model_finite_differences(self, params):
        # Scalar probe readout of the full encoder + heads vs central
        # differences over every parameter tensor; rel err <= 1e-4.
        ids, mask = batch(b=2, length=5, pad_tail=1)
        rng = np.random.default_rng(8)
        probe_tok = T.Tensor(rng.standard_normal((2, 5, CFG.vocab_size)))
        probe_phr = T.Tensor(rng.standard_normal((2, CFG.phrase_vocab_size)))

        def loss_fn():
            hidden = E.forward(ids, mask, params, CFG)
            tok = (E.token_logits(hidden, params) * probe_tok).sum()
            read = E.gather_positions(hidden, [0, 0, 1, 1], [0, 1, 2, 3])
            phr = (E.phrase_logits(read, [[0, 1], [2, 3]], params) * probe_phr).sum()
            return tok + phr

        leaves = list(params.values())
        worst = check_grads(loss_fn, leaves, tol=1e-4)
        assert worst <= 1e-4
