"""Command-line entry point: build-vocab, pretrain, align, eval.

Exit codes: 0 success, 2 usage/input error, 3 numerical abort. Progress
lines go to standard error; data goes to files and standard output.
Pretrain settings are the fields of TrainConfig and EncoderConfig; each
is taken from explicit flags, else a key=value config file, else the
resumed checkpoint's config, else the field's default.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Literal, Union, get_args, get_origin, get_type_hints

from . import crossattn, training, transport
from .corpus import (CorpusError, Vocab, build_vocab, load_corpus,
                     load_content, load_entity_pairs, split_words, tokenize)
from .encoder import EncoderConfig
from .phrases import PhraseFileError, load_pool
from .training import (CeaVariant, NanGradientError, TrainConfig, eval_reconstruction,
                       init_train_state, load_checkpoint, run_stage1,
                       run_stage2, save_checkpoint)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# Pretrain settings come from the config dataclasses: every TrainConfig field,
# then the encoder shape (max_seq_len feeds both configs). The vocab and
# phrase-pool sizes come from the data; log_every only paces progress lines.
DATA_KEYS = ("vocab_size", "phrase_vocab_size")
LOG_EVERY = 50
BOOLEANS = {"true": True, "1": True, "yes": True,
            "false": False, "0": False, "no": False}


def _settings() -> dict[str, tuple[object, object]]:
    """Setting name -> (type annotation, default), TrainConfig fields first."""
    out = {}
    for cls in (TrainConfig, EncoderConfig):
        hints = get_type_hints(cls)
        for f in fields(cls):
            if f.name not in DATA_KEYS:
                out.setdefault(f.name, (hints[f.name], f.default))
    out["log_every"] = (int, LOG_EVERY)
    return out


SETTINGS = _settings()
# A resumed run keeps the checkpoint's phrase head, encoder shape and scheduler.
FIXED_ON_RESUME = tuple(f.name for f in fields(EncoderConfig)
                        if f.name != "vocab_size") + training.SCHEDULER_KEYS


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in BOOLEANS:
        raise ValueError(f"expected one of {'/'.join(BOOLEANS)}, got {raw!r}")
    return BOOLEANS[raw.lower()]


def _parser_for(hint):
    """String -> value for one annotation: bool, Optional[X] ('none'), X."""
    if hint is bool:
        return _parse_bool
    if get_origin(hint) is Literal:
        return str  # TrainConfig.validate names the allowed values
    inner = [a for a in get_args(hint) if a is not type(None)]
    if get_origin(hint) is Union and len(inner) == 1:
        def optional(raw: str):
            return None if raw.lower() == "none" else inner[0](raw)
        optional.__name__ = f"{inner[0].__name__} or none"
        return optional
    return hint


def _read_config_file(path) -> dict:
    """key=value lines; keys name pretrain settings; values typed by annotation."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CorpusError(f"{path}:{lineno}: expected key=value")
            key_raw, raw = (part.strip() for part in line.split("=", 1))
            key = key_raw.replace("-", "_")
            if key not in SETTINGS:
                raise CorpusError(f"{path}:{lineno}: unknown config key {key_raw!r}")
            try:
                values[key] = _parser_for(SETTINGS[key][0])(raw)
            except ValueError as exc:
                raise CorpusError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domainlm",
        description="Desk-scale domain LM pre-training: phrase-aware adaptive "
                    "masking plus optimal-transport entity alignment.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a vocabulary file from a corpus")
    p.add_argument("--corpus", required=True, help="one document per line, UTF-8")
    p.add_argument("--out", required=True, help="output vocab TSV (token<TAB>id)")
    p.add_argument("--min-freq", type=int, default=1)

    p = sub.add_parser("pretrain", help="run the two-stage pre-training schedule")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True, help="vocab file from build-vocab")
    p.add_argument("--phrase-pool", required=True, help="phrase<TAB>score TSV")
    p.add_argument("--pairs", help="entity pair TSV (required when stage 2 runs)")
    p.add_argument("--content", help="entity content TSV (required when stage 2 runs)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="key=value file; explicit flags win")
    p.add_argument("--resume", help="checkpoint to continue from")
    for key, (hint, default) in SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if hint is bool:  # a flag that flips the default
            p.add_argument("--no-" + flag[2:] if default else flag, dest=key,
                           action="store_false" if default else "store_true",
                           default=argparse.SUPPRESS)
        elif get_origin(hint) is Literal:
            p.add_argument(flag, choices=get_args(hint), default=argparse.SUPPRESS)
        else:
            p.add_argument(flag, type=_parser_for(hint), default=argparse.SUPPRESS)

    p = sub.add_parser("align", help="export alignment matrices for entity pairs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--content", help="entity content TSV for --pair lookups")
    p.add_argument("--pair", action="append", default=[],
                   help="id_a,id_b (repeatable)")
    p.add_argument("--text-a", help="literal text instead of --pair")
    p.add_argument("--text-b")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--variant", choices=get_args(CeaVariant), default="ot")
    p.add_argument("--outer-iters", type=int, default=2000)
    p.add_argument("--beta", type=float, default=0.5)

    p = sub.add_parser("eval", help="masked-reconstruction accuracy by span length")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--eval-corpus", required=True)
    p.add_argument("--phrase-pool", required=True)
    p.add_argument("--out", help="also write the table as CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-docs", type=int)
    return parser


# ------------------------------------------------------------------- commands


def cmd_build_vocab(args) -> int:
    vocab = build_vocab(args.corpus, min_freq=args.min_freq)
    vocab.save(args.out)
    total = 0
    covered = 0
    with open(args.corpus, encoding="utf-8") as fh:
        for line in fh:
            for tok in split_words(line):
                total += 1
                covered += tok in vocab.token_to_id
    print(f"vocab_size\t{len(vocab)}")
    print(f"coverage\t{covered / total:.4f}")
    return EXIT_OK


def _only(cls, values: dict) -> dict:
    return {k: v for k, v in values.items() if k in cls.__dataclass_fields__}


def _check_resume(state, vocab: Vocab, given: dict) -> None:
    """Reject inputs that disagree with what the checkpoint was trained on."""
    if vocab.id_to_token != state.vocab.id_to_token:
        raise CorpusError("--resume: the --vocab token list differs from the checkpoint's")
    fixed = {**asdict(state.config), **asdict(state.enc_config)}
    for key in FIXED_ON_RESUME:
        if key in given and given[key] != fixed[key]:
            raise CorpusError(f"--resume: {key}={given[key]!r} differs from the "
                              f"checkpoint's {fixed[key]!r}, which a resumed run keeps")


def cmd_pretrain(args) -> int:
    # Layers, later wins: the checkpoint's config (or the dataclass defaults),
    # the --config file, explicit flags.
    given = _read_config_file(args.config) if args.config else {}
    given.update((k, v) for k, v in vars(args).items() if k in SETTINGS)

    vocab = Vocab.load(args.vocab)
    pool = load_pool(args.phrase_pool, vocab)
    state = None
    base = {}
    if args.resume:
        state = load_checkpoint(args.resume)
        _check_resume(state, vocab, {**given, "phrase_vocab_size": pool.phrase_vocab_size})
        base = asdict(state.config)
    config = TrainConfig(**{**base, **_only(TrainConfig, given)})
    config.validate()
    if config.stage2_epochs > 0 and not (args.pairs and args.content):
        raise CorpusError("--pairs and --content are required when stage2-epochs > 0")

    if state is not None:
        state.config = config
    else:
        shape = _only(EncoderConfig, {**given, "max_seq_len": config.max_seq_len})
        enc_config = EncoderConfig(vocab_size=len(vocab),
                                   phrase_vocab_size=pool.phrase_vocab_size, **shape)
        state = init_train_state(vocab, pool, config, enc_config)
    docs = load_corpus(args.corpus, vocab, max_seq_len=config.max_seq_len)

    log_every = given.get("log_every", LOG_EVERY)

    def progress(rec: dict) -> None:
        if log_every and rec["iter"] % log_every == 0:
            loss = rec["L_w"] if rec["L_w"] is not None else rec["L_p"]
            extra = f" L_cea={rec['L_cea']:.4f}" if rec["L_cea"] is not None else ""
            print(f"iter={rec['iter']} stage={rec['stage']} mode={rec['mode']} "
                  f"loss={loss:.4f}{extra} alpha={rec['alpha']:.4f}", file=sys.stderr)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if config.stage1_epochs > 0:
        run_stage1(docs, pool, state, progress=progress)
    if config.stage2_epochs > 0:
        pair_set = load_entity_pairs(args.pairs, args.content, vocab,
                                     max_seq_len=config.max_seq_len)
        run_stage2(pair_set, pool, state, progress=progress)

    ckpt = out_dir / "checkpoint.npz"
    save_checkpoint(ckpt, state)
    state.report.write_jsonl(out_dir / "report.jsonl")
    print(f"checkpoint\t{ckpt}")
    print(f"report\t{out_dir / 'report.jsonl'}")
    return EXIT_OK


def _align_one(state, doc_a, doc_b, variant, outer_iters, beta, out_path) -> None:
    emb_a = training._doc_embeddings(state, doc_a)
    emb_b = training._doc_embeddings(state, doc_b)
    if variant == "ot":
        plan = transport.ipot(transport.cost_matrix(emb_a, emb_b).values.data,
                              beta=beta, outer_iters=outer_iters)
        matrix = transport.alignment_matrix(plan)
    else:
        matrix = crossattn.cross_attention(emb_a, emb_b).alpha.data
    row_tokens = state.vocab.decode(doc_a.tokens)
    col_tokens = state.vocab.decode(doc_b.tokens)
    transport.write_alignment_csv(out_path, row_tokens, col_tokens, matrix)
    print(f"alignment\t{out_path}")


def cmd_align(args) -> int:
    state = load_checkpoint(args.checkpoint)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    max_len = state.enc_config.max_seq_len
    jobs = []
    if args.text_a is not None or args.text_b is not None:
        if not (args.text_a and args.text_b):
            raise CorpusError("--text-a and --text-b must be given together")
        doc_a = tokenize(args.text_a, state.vocab, max_len)
        doc_b = tokenize(args.text_b, state.vocab, max_len)
        if not doc_a.tokens or not doc_b.tokens:
            raise CorpusError("both texts must contain at least one token")
        jobs.append((doc_a, doc_b, out_dir / "align_text.csv"))
    if args.pair:
        if not args.content:
            raise CorpusError("--content is required with --pair")
        content = load_content(args.content, state.vocab, max_len)
        for spec in args.pair:
            parts = spec.split(",")
            if len(parts) != 2:
                raise CorpusError(f"--pair expects 'id_a,id_b', got {spec!r}")
            ida, idb = parts
            if ida not in content or idb not in content:
                missing = ida if ida not in content else idb
                raise CorpusError(f"unknown entity id {missing!r}")
            jobs.append((content[ida], content[idb],
                         out_dir / f"align_{ida}_{idb}.csv"))
    if not jobs:
        raise CorpusError("nothing to align: give --pair or --text-a/--text-b")
    for doc_a, doc_b, path in jobs:
        _align_one(state, doc_a, doc_b, args.variant, args.outer_iters,
                   args.beta, path)
    return EXIT_OK


def cmd_eval(args) -> int:
    state = load_checkpoint(args.checkpoint)
    docs = load_corpus(args.eval_corpus, state.vocab,
                       max_seq_len=state.enc_config.max_seq_len)
    pool = load_pool(args.phrase_pool, state.vocab)
    rows = eval_reconstruction(state, docs, pool, span_lengths=(1, 2, 3, 4),
                               seed=args.seed, max_docs=args.max_docs)
    print("span_len\tn_examples\taccuracy")
    lines = ["span_len,n_examples,accuracy"]
    for row in rows:
        acc = "NA" if row["accuracy"] is None else f"{row['accuracy']:.4f}"
        print(f"{row['span_len']}\t{row['n_examples']}\t{acc}")
        lines.append(f"{row['span_len']},{row['n_examples']},{acc}")
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "build-vocab": cmd_build_vocab,
        "pretrain": cmd_pretrain,
        "align": cmd_align,
        "eval": cmd_eval,
    }
    try:
        return handlers[args.command](args)
    except NanGradientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CorpusError, PhraseFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
