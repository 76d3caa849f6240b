"""What the system computes on a small seeded world, pinned by tests/test_pinned.py.

``compute(workdir)`` runs the CLI end to end in ``workdir``: a vocab, a stage-1 run,
a stage-2 ``ot`` run, a stage-2 ``attention`` run on random-token pairs (their
triplet hinges stay active), ``eval`` on the stage-1 checkpoint and ``align`` with
both variants on the ``ot`` checkpoint. It returns each run's report records (with
``wall_time`` dropped) and the sha256 of its three arenas, the eval table, the
alignment CSVs, and the numpy and BLAS it ran on.

A change that moves these values on purpose rewrites the data file, from the
repository root:

    PYTHONPATH=src python tests/record_pinned.py
"""
from __future__ import annotations

import hashlib
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

from domainlm import cli
from domainlm.training import load_checkpoint
from synthetic import build_pair_world, build_phrase_world, write_pair_world, write_phrase_world

DATA = Path(__file__).with_name("pinned.json")
TIMING_KEYS = {"wall_time"}
BLAS_KEYS = ("name", "version", "openblas configuration")  # not the install paths


def environment() -> dict:
    """numpy's version, its BLAS build, and the bytes of one seeded GEMM: a BLAS that
    picks another kernel for this CPU rounds it differently."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.25 prints its config only
        blas = {}
    rng = np.random.default_rng(0)
    gemm = rng.standard_normal((48, 70)) @ rng.standard_normal((70, 33))
    return {"numpy": np.__version__, "blas": {k: blas.get(k) for k in BLAS_KEYS},
            "gemm_sha256": hashlib.sha256(gemm.tobytes()).hexdigest()}


def _cli(*argv: str) -> None:
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"domainlm {' '.join(argv)} exited {code}")


def _pretrain(ws: dict, name: str, *flags: str) -> dict:
    out = ws["dir"] / name
    _cli("pretrain", "--corpus", str(ws["corpus"]), "--vocab", str(ws["vocab"]),
         "--phrase-pool", str(ws["pool"]), "--out-dir", str(out), "--batch-size", "4",
         "--learning-rate", "3e-3", "--dim", "16", "--ffn-dim", "32", "--warm-iters", "6",
         "--bootstrap-every", "2", "--max-seq-len", "32", "--log-every", "0",
         "--ipot-outer-iters", "20", *flags)
    records = [{k: v for k, v in json.loads(line).items() if k not in TIMING_KEYS}
               for line in (out / "report.jsonl").read_text("utf-8").splitlines()]
    adam = load_checkpoint(out / "checkpoint.npz").adam
    return {"records": [rec for rec in records if rec],  # the wall_time line leaves {}
            "sha256": {key: hashlib.sha256(arena.tobytes()).hexdigest() for key, arena in
                       (("arena", adam.arena), ("adam_m", adam.arena_m),
                        ("adam_v", adam.arena_v))}}


def compute(workdir) -> dict:
    ws = {"dir": Path(workdir)}
    corpus, ws["pool"] = write_phrase_world(ws["dir"], build_phrase_world(seed=5, n_sentences=32))
    pair_world = build_pair_world(seed=5, n_pairs=6)
    pair_corpus, content, pairs = write_pair_world(ws["dir"], pair_world)
    ws["corpus"] = ws["dir"] / "all.txt"
    ws["corpus"].write_text(corpus.read_text("utf-8") + pair_corpus.read_text("utf-8"),
                            "utf-8")
    ws["vocab"] = ws["dir"] / "vocab.tsv"
    _cli("build-vocab", "--corpus", str(ws["corpus"]), "--out", str(ws["vocab"]))

    words = [line.split("\t")[0] for line in ws["vocab"].read_text("utf-8").splitlines()][4:]
    rng = np.random.default_rng(5)
    random_content = ws["dir"] / "random_content.tsv"
    random_content.write_text("".join(
        f"r{i}\t{' '.join(words[j] for j in rng.integers(len(words), size=n))}\n"
        for i, n in enumerate(rng.integers(2, 9, size=12))), "utf-8")
    random_pairs = ws["dir"] / "random_pairs.tsv"
    random_pairs.write_text("".join(f"r{i}\tr{i + 1}\n" for i in range(0, 12, 2)), "utf-8")

    runs = {
        "stage1": _pretrain(ws, "stage1", "--stage1-epochs", "2", "--stage2-epochs", "0",
                            "--eval-docs", "8"),
        "stage2_ot": _pretrain(ws, "ot", "--stage1-epochs", "0", "--stage2-epochs", "2",
                               "--pairs", str(pairs), "--content", str(content)),
        "stage2_attention": _pretrain(ws, "attention", "--stage1-epochs", "0",
                                      "--stage2-epochs", "2", "--cea-variant", "attention",
                                      "--pairs", str(random_pairs),
                                      "--content", str(random_content)),
    }
    table = ws["dir"] / "eval.csv"
    _cli("eval", "--checkpoint", str(ws["dir"] / "stage1" / "checkpoint.npz"),
         "--eval-corpus", str(corpus), "--phrase-pool", str(ws["pool"]), "--out", str(table))
    align = {}
    for variant in ("ot", "attention"):
        out = ws["dir"] / f"align_{variant}"
        ida, idb, _, _ = pair_world.planted[0]
        _cli("align", "--checkpoint", str(ws["dir"] / "ot" / "checkpoint.npz"),
             "--content", str(content), "--pair", f"{ida},{idb}", "--out-dir", str(out),
             "--variant", variant, "--outer-iters", "300")
        align[variant] = (out / f"align_{ida}_{idb}.csv").read_text("utf-8")
    return {"environment": environment(), "runs": runs,
            "eval": table.read_text("utf-8"), "align": align}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        values = compute(tmp)
    DATA.write_text(json.dumps(values, indent=1) + "\n", "utf-8")
    print(f"wrote {DATA}")
