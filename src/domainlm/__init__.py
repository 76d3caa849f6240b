"""Desk-scale domain language-model pre-training.

Phrase-pool-guided adaptive masking with a completeness regularizer, and
weakly supervised cross-entity alignment via optimal transport, on a tiny
from-scratch transformer with its own float64 autodiff substrate.
"""

from .corpus import (Document, EntityPairSet, Vocab, build_vocab, load_corpus,
                     load_entity_pairs, tokenize)
from .crossattn import (AttentionAlignment, cross_attention, reconstruction_distance,
                        triplet_loss)
from .encoder import EncoderConfig, forward, init_params, phrase_logits, token_logits
from .hybrid import (SchedulerState, fitting_progress, phrase_loss, select_mode,
                     update_alpha, word_loss)
from .masking import MaskedBatch, MaskedExample, collate, mask_phrases, mask_words
from .phrases import PhraseMatch, PhrasePool, detect, load_pool, sample_phrase_tokens
from .tensor import Tensor, backward
from .training import (TrainConfig, TrainState, adam_step, align_pairs,
                       eval_reconstruction, init_train_state, load_checkpoint,
                       run_stage1, run_stage2, save_checkpoint)
from .transport import (CostMatrix, TransportPlan, alignment_matrix, cea_loss,
                        cost_matrix, ipot, write_alignment_csv)

__version__ = "0.1.0"

__all__ = [
    "Document", "EntityPairSet", "Vocab", "build_vocab", "load_corpus",
    "load_entity_pairs", "tokenize",
    "AttentionAlignment", "cross_attention", "reconstruction_distance", "triplet_loss",
    "EncoderConfig", "forward", "init_params", "phrase_logits", "token_logits",
    "SchedulerState", "fitting_progress", "phrase_loss", "select_mode",
    "update_alpha", "word_loss",
    "MaskedBatch", "MaskedExample", "collate", "mask_phrases", "mask_words",
    "PhraseMatch", "PhrasePool", "detect", "load_pool", "sample_phrase_tokens",
    "Tensor", "backward",
    "TrainConfig", "TrainState", "adam_step", "align_pairs",
    "eval_reconstruction", "init_train_state", "load_checkpoint",
    "run_stage1", "run_stage2", "save_checkpoint",
    "CostMatrix", "TransportPlan", "alignment_matrix", "cea_loss",
    "cost_matrix", "ipot", "write_alignment_csv",
]
