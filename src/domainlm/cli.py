"""Command-line entry point: build-vocab, pretrain, align, eval.

Exit codes: 0 success, 2 usage/input error, 3 numerical abort. Progress
lines go to standard error; data goes to files and standard output.
Pretrain settings are the fields of TrainConfig and EncoderConfig; each
is taken from explicit flags, else a key=value config file, else the
resumed checkpoint's config, else the field's default.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path
from typing import Literal, Union, get_args, get_origin, get_type_hints

from . import training, transport
from .corpus import (CorpusError, Vocab, load_corpus, load_content, load_entity_pairs,
                     numbered_lines, token_counts, tokenize, vocab_from_counts)
from .encoder import EncoderConfig
from .phrases import load_pool
from .training import (DERIVED_ENCODER_KEYS, CeaVariant, NanGradientError, TrainConfig,
                       align_pairs, check_stage2_inputs, eval_reconstruction, init_train_state,
                       load_checkpoint, run_stage1, run_stage2, save_checkpoint)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# Pretrain settings come from the config dataclasses: every TrainConfig field,
# then the encoder's shape (its other fields a run derives from the data and
# max_seq_len). log_every only paces progress lines.
LOG_EVERY = 50
BOOLEANS = {"true": True, "1": True, "yes": True,
            "false": False, "0": False, "no": False}


def _settings() -> dict[str, tuple[object, object]]:
    """Setting name -> (type annotation, default), TrainConfig fields first."""
    out = {}
    for cls, derived in ((TrainConfig, ()), (EncoderConfig, DERIVED_ENCODER_KEYS)):
        hints = get_type_hints(cls)
        out.update((f.name, (hints[f.name], f.default)) for f in fields(cls)
                   if f.name not in derived)
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
        return str  # building the TrainConfig names the allowed values
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
    for lineno, line in numbered_lines(path):
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
    counts = token_counts(args.corpus)
    vocab = vocab_from_counts(counts, args.min_freq)
    vocab.save(args.out)
    total = sum(counts.values())
    covered = sum(c for tok, c in counts.items() if tok in vocab.token_to_id)
    print(f"vocab_size\t{len(vocab)}")
    print(f"coverage\t{covered / total:.4f}")
    return EXIT_OK


def _only(cls, values: dict) -> dict:
    return {k: v for k, v in values.items() if k in cls.__dataclass_fields__}


def _check_resume(state, vocab: Vocab, pool, given: dict) -> None:
    """Reject inputs that disagree with what the checkpoint was trained on."""
    if vocab.id_to_token != state.vocab.id_to_token:
        raise CorpusError("--resume: the --vocab token list differs from the checkpoint's")
    given = {**given, "phrase_vocab_size": len(pool)}
    fixed = {**asdict(state.config), **asdict(state.enc_config)}
    for key in FIXED_ON_RESUME:
        if key in given and given[key] != fixed[key]:
            raise CorpusError(f"--resume: {key}={given[key]!r} differs from the "
                              f"checkpoint's {fixed[key]!r}, which a resumed run keeps")
    if pool.by_id() != state.phrases:
        raise CorpusError("--resume: the --phrase-pool phrases differ from the checkpoint's")


def _earlier_records(report_path: Path, done: int) -> list[str]:
    """The lines of an earlier report that a run resumed after step ``done`` keeps.

    That is every line before the first step record past ``done``, so the
    steps an aborted run took after its last checkpoint are dropped.
    """
    kept: list[str] = []
    if not report_path.exists():
        return kept
    for lineno, line in numbered_lines(report_path):
        try:
            rec = json.loads(line)
        except ValueError:
            rec = None
        if not isinstance(rec, dict):
            raise CorpusError(f"{report_path}:{lineno}: expected a JSON record")
        if isinstance(rec.get("iter"), int) and rec["iter"] > done:
            break
        kept.append(line)
    return kept


def cmd_pretrain(args) -> int:
    # Layers, later wins: the checkpoint's config (or the dataclass defaults),
    # the --config file, explicit flags.
    given = _read_config_file(args.config) if args.config else {}
    given.update((k, v) for k, v in vars(args).items() if k in SETTINGS)
    log_every = given.get("log_every", LOG_EVERY)
    if log_every < 0:
        raise CorpusError(f"log_every must be >= 0, got {log_every}")

    vocab = Vocab.load(args.vocab)
    pool = load_pool(args.phrase_pool, vocab)
    state = None
    base = {}
    if args.resume:
        state = load_checkpoint(args.resume)
        _check_resume(state, vocab, pool, given)
        base = asdict(state.config)
    config = TrainConfig(**{**base, **_only(TrainConfig, given)})
    if config.stage2_epochs > 0 and not (args.pairs and args.content):
        raise CorpusError("--pairs and --content are required when stage2-epochs > 0")

    if state is not None:
        state.config = config
    else:
        shape = {k: v for k, v in _only(EncoderConfig, given).items()
                 if k not in DERIVED_ENCODER_KEYS}
        state = init_train_state(vocab, pool, config, **shape)  # max_seq_len: from config
    docs = load_corpus(args.corpus, vocab, max_seq_len=config.max_seq_len)
    pair_set = load_entity_pairs(args.pairs, args.content, vocab, config.max_seq_len) \
        if config.stage2_epochs > 0 else None
    if pair_set is not None:
        check_stage2_inputs(pair_set, config)

    out_dir = Path(args.out_dir)
    ckpt, report_path = out_dir / "checkpoint.npz", out_dir / "report.jsonl"
    # a resume appends to the report, after the records up to its checkpoint
    earlier = _earlier_records(report_path, state.stage1_iters_done + state.stage2_iters_done) \
        if args.resume else []

    print(f"pool phrases={len(pool)} dropped_oov={pool.dropped_oov} "
          f"dropped_short={pool.dropped_short}", file=sys.stderr)
    if pair_set is not None:
        print(f"pairs usable={len(pair_set)} dropped={pair_set.dropped}", file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(report_path, "w", encoding="utf-8") as report:
        report.writelines(line + "\n" for line in earlier)

        def record(rec: dict) -> None:
            report.write(json.dumps(rec) + "\n")
            report.flush()
            if log_every and "iter" in rec and rec["iter"] % log_every == 0:
                loss = rec["L_w"] if rec["L_w"] is not None else rec["L_p"]
                extra = f" L_cea={rec['L_cea']:.4f}" if rec["L_cea"] is not None else ""
                print(f"iter={rec['iter']} stage={rec['stage']} mode={rec['mode']} "
                      f"loss={loss:.4f}{extra} alpha={rec['alpha']:.4f}", file=sys.stderr)

        started = time.perf_counter()
        if config.stage1_epochs > 0:
            run_stage1(docs, pool, state, progress=record)
        if pair_set is not None:
            run_stage2(pair_set, pool, state, progress=record)
        wall_time = time.perf_counter() - started
        save_checkpoint(ckpt, state)
        record({"wall_time": wall_time})
    print(f"checkpoint\t{ckpt}")
    print(f"report\t{report_path}")
    return EXIT_OK


def cmd_align(args) -> int:
    # Every input is checked and every matrix computed before --out-dir is
    # created, so a rejected run leaves nothing behind.
    state = load_checkpoint(args.checkpoint)
    max_len = state.enc_config.max_seq_len
    jobs = []
    if args.text_a is not None or args.text_b is not None:
        if args.text_a is None or args.text_b is None:
            raise CorpusError("--text-a and --text-b must be given together")
        doc_a = tokenize(args.text_a, state.vocab, max_len)
        doc_b = tokenize(args.text_b, state.vocab, max_len)
        if not doc_a.tokens or not doc_b.tokens:
            raise CorpusError("both texts must contain at least one token")
        jobs.append((doc_a, doc_b, "align_text.csv"))
    if args.pair:
        if not args.content:
            raise CorpusError("--content is required with --pair")
        content = load_content(args.content, state.vocab, max_len)
        writers: dict[str, str] = {}  # output file -> the --pair that writes it
        for spec in dict.fromkeys(args.pair):  # a repeated pair is aligned once
            parts = spec.split(",")
            if len(parts) != 2:
                raise CorpusError(f"--pair expects 'id_a,id_b', got {spec!r}")
            for eid in parts:
                if eid not in content:
                    raise CorpusError(f"unknown entity id {eid!r}")
                if not content[eid].tokens:
                    raise CorpusError(f"entity {eid!r}: content must contain at least one token")
                if "/" in eid or os.sep in eid:
                    raise CorpusError(f"entity id {eid!r} contains a path separator")
            ida, idb = parts
            name = f"align_{ida}_{idb}.csv"
            if len(name.encode("utf-8")) > 255:  # the longest file name most file systems take
                raise CorpusError(f"--pair {spec!r} would write {name}, longer than 255 bytes")
            if name in writers:
                raise CorpusError(f"--pair {writers[name]!r} and --pair {spec!r} "
                                  f"would both write {name}")
            writers[name] = spec
            jobs.append((content[ida], content[idb], name))
    if not jobs:
        raise CorpusError("nothing to align: give --pair or --text-a/--text-b")
    matrices = align_pairs(state, [(doc_a, doc_b) for doc_a, doc_b, _ in jobs],
                           args.variant, args.outer_iters, args.beta)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for (doc_a, doc_b, name), matrix in zip(jobs, matrices):
        transport.write_alignment_csv(out_dir / name, state.vocab.decode(doc_a.tokens),
                                      state.vocab.decode(doc_b.tokens), matrix)
        print(f"alignment\t{out_dir / name}")
    return EXIT_OK


def cmd_eval(args) -> int:
    # --out is checked before any work, and the CSV written before the table
    # is printed, so a rejected run prints no data.
    out = Path(args.out) if args.out else None
    if out is not None:
        if not out.parent.is_dir():
            raise CorpusError(f"--out: no directory {str(out.parent)!r} to write {out.name} in")
        if out.is_dir():
            raise CorpusError(f"--out: {str(out)!r} is a directory, not a file to write")
    state = load_checkpoint(args.checkpoint)
    docs = load_corpus(args.eval_corpus, state.vocab,
                       max_seq_len=state.enc_config.max_seq_len)
    pool = load_pool(args.phrase_pool, state.vocab)
    rows = eval_reconstruction(state, docs, pool, span_lengths=(1, 2, 3, 4),
                               seed=args.seed, max_docs=args.max_docs)
    cells = [("span_len", "n_examples", "accuracy")]
    cells += [(row["span_len"], row["n_examples"],
               "NA" if row["accuracy"] is None else f"{row['accuracy']:.4f}") for row in rows]
    if out is not None:
        out.write_text("".join(",".join(map(str, c)) + "\n" for c in cells), encoding="utf-8")
    for c in cells:
        print("\t".join(map(str, c)))
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
    except (OSError, ValueError) as exc:  # CorpusError and PhraseFileError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
