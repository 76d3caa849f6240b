import numpy as np
import pytest

from domainlm import encoder as E
from domainlm import tensor as T

from gradcheck import check_grads

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
        hidden = T.Tensor(np.broadcast_to(h, (1, 4, CFG.dim)).copy())
        group_logits = E.phrase_logits(hidden, [[0, 1, 2, 3]], params).data
        single = h @ params["phrase_head"].data
        assert np.allclose(group_logits[0], single, atol=1e-12)

    def test_mean_matches_direct_summation(self, params):
        rng = np.random.default_rng(5)
        hidden = T.Tensor(rng.standard_normal((2, 5, CFG.dim)))
        group = [1, 2, 4]
        logits = E.phrase_logits(hidden, [group], params, batch_index=[1]).data
        direct = np.zeros(CFG.dim)
        for pos in group:
            direct += hidden.data[1, pos]
        direct /= len(group)
        assert np.allclose(logits[0], direct @ params["phrase_head"].data, atol=1e-12)

    def test_two_groups_order_preserving(self, params):
        hidden = T.Tensor(np.random.default_rng(6).standard_normal((1, 6, CFG.dim)))
        both = E.phrase_logits(hidden, [[0, 1], [3, 4, 5]], params).data
        first = E.phrase_logits(hidden, [[0, 1]], params).data
        second = E.phrase_logits(hidden, [[3, 4, 5]], params).data
        assert np.allclose(both[0], first[0]) and np.allclose(both[1], second[0])

    def test_empty_group_rejected(self, params):
        hidden = T.Tensor(np.zeros((1, 3, CFG.dim)))
        with pytest.raises(ValueError):
            E.phrase_logits(hidden, [[]], params)


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
            phr = (E.phrase_logits(hidden, [[0, 1], [2, 3]], params,
                                   batch_index=[0, 1]) * probe_phr).sum()
            return tok + phr

        leaves = list(params.values())
        worst = check_grads(loss_fn, leaves, tol=1e-4)
        assert worst <= 1e-4
