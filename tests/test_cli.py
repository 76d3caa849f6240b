import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from domainlm import cli
from domainlm import corpus as C
from domainlm import training as TR
from domainlm import transport as OT
from domainlm.corpus import Vocab
from domainlm.phrases import load_pool

from synthetic import (build_pair_world, build_phrase_world, read_alignment_csv, write_pair_world,
                       write_phrase_world)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    phrase_world = build_phrase_world(seed=1, n_sentences=80)
    corpus, pool = write_phrase_world(tmp, phrase_world)
    pair_world = build_pair_world(seed=1, n_pairs=10)
    pair_corpus, content, pairs = write_pair_world(tmp, pair_world)
    # one corpus covering both worlds so a single vocab serves stage 1 and 2
    merged = tmp / "all.txt"
    merged.write_text(corpus.read_text() + pair_corpus.read_text())
    vocab_file = tmp / "vocab.tsv"
    assert cli.main(["build-vocab", "--corpus", str(merged),
                     "--out", str(vocab_file)]) == 0
    return {"tmp": tmp, "corpus": merged, "pool": pool, "pairs": pairs,
            "content": content, "vocab": vocab_file, "pair_world": pair_world}


def read_report(out):
    return [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]


def pretrain_args(ws, out, **kv):
    args = ["pretrain", "--corpus", str(ws["corpus"]), "--vocab", str(ws["vocab"]),
            "--phrase-pool", str(ws["pool"]), "--out-dir", str(out),
            "--batch-size", "8", "--learning-rate", "3e-3", "--dim", "16",
            "--ffn-dim", "32", "--warm-iters", "5", "--max-seq-len", "32",
            "--log-every", "0"]
    for key, val in kv.items():
        args += ["--" + key.replace("_", "-"), str(val)]
    return args


def fail_fourth_adam_step(monkeypatch):
    """Make the fourth Adam step abort as a non-finite gradient would."""
    adam_step, calls = TR.adam_step, []

    def fail_fourth(*args):
        calls.append(1)
        if len(calls) == 4:
            raise TR.NanGradientError("tok_emb")
        adam_step(*args)

    monkeypatch.setattr(TR, "adam_step", fail_fourth)


def run_one_epoch(ws, out):
    """Train one stage-1 epoch into ``out``; return its step count and the
    argv that resumes it to two epochs in the same directory."""
    assert cli.main(pretrain_args(ws, out, stage1_epochs=1, stage2_epochs=0)) == 0
    resume = pretrain_args(ws, out, stage1_epochs=2, stage2_epochs=0) + [
        "--resume", str(out / "checkpoint.npz")]
    return len(read_report(out)) - 1, resume


class TestBuildVocab:
    def test_specials_lead_the_file(self, workspace):
        lines = workspace["vocab"].read_text().splitlines()
        heads = [line.split("\t")[0] for line in lines[:4]]
        assert heads == ["[PAD]", "[UNK]", "[MASK]", "[CLS]"]

    def test_rerun_byte_identical(self, workspace, tmp_path):
        out = tmp_path / "vocab2.tsv"
        assert cli.main(["build-vocab", "--corpus", str(workspace["corpus"]),
                         "--out", str(out)]) == 0
        assert out.read_bytes() == workspace["vocab"].read_bytes()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = cli.main(["build-vocab", "--corpus", str(tmp_path / "nope.txt"),
                       "--out", str(tmp_path / "v.tsv")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_summary_on_stdout(self, workspace, tmp_path, capsys):
        cli.main(["build-vocab", "--corpus", str(workspace["corpus"]),
                  "--out", str(tmp_path / "v.tsv")])
        out = capsys.readouterr().out
        assert "vocab_size" in out and "coverage" in out

    def test_counts_the_corpus_once(self, workspace, tmp_path, monkeypatch, capsys):
        calls = []
        counts = C.token_counts

        def counting(path):
            calls.append(path)
            return counts(path)

        monkeypatch.setattr(C, "token_counts", counting)
        monkeypatch.setattr(cli, "token_counts", counting)
        out = tmp_path / "v.tsv"
        assert cli.main(["build-vocab", "--corpus", str(workspace["corpus"]),
                         "--out", str(out)]) == 0
        assert len(calls) == 1
        assert out.read_bytes() == workspace["vocab"].read_bytes()


class TestPretrain:
    def test_stage1_only_has_no_cea_records(self, workspace, tmp_path):
        out = tmp_path / "run"
        rc = cli.main(pretrain_args(workspace, out, stage1_epochs=1, stage2_epochs=0))
        assert rc == 0
        iters = [r for r in read_report(out) if "iter" in r]
        assert iters and all(r["L_cea"] is None for r in iters)

    def test_jsonl_stable_key_order(self, workspace, tmp_path):
        out = tmp_path / "keys"
        assert cli.main(pretrain_args(workspace, out, stage1_epochs=2, stage2_epochs=0,
                                      eval_docs=8)) == 0
        *body, last = read_report(out)
        assert list(last) == ["wall_time"]
        # each epoch's eval record follows that epoch's last step
        epochs = [i for i, rec in enumerate(body) if "epoch" in rec]
        steps = epochs[0]
        assert steps > 0 and epochs == [steps, 2 * steps + 1] and len(body) == 2 * steps + 2
        assert [body[i]["epoch"] for i in epochs] == [1, 2]
        for i, rec in enumerate(body):
            assert list(rec) == (["epoch", "stage", "word_acc", "phrase_acc"] if i in epochs
                                 else ["iter", "stage", "mode", "L_w", "L_p", "L_cea", "alpha"])

    def test_same_seed_identical_checkpoints(self, workspace, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = cli.main(pretrain_args(workspace, out, stage1_epochs=1,
                                        stage2_epochs=0, seed=7))
            assert rc == 0
        s1 = TR.load_checkpoint(out1 / "checkpoint.npz")
        s2 = TR.load_checkpoint(out2 / "checkpoint.npz")
        for name in s1.params:
            assert s1.params[name].data.tobytes() == s2.params[name].data.tobytes()
        assert (out1 / "checkpoint.npz").read_bytes() == \
            (out2 / "checkpoint.npz").read_bytes()

    def test_stage2_requires_pairs(self, workspace, tmp_path, capsys):
        rc = cli.main(pretrain_args(workspace, tmp_path / "x",
                                    stage1_epochs=0, stage2_epochs=1))
        assert rc == 2
        assert "pairs" in capsys.readouterr().err

    def test_attention_variant_records(self, workspace, tmp_path):
        out = tmp_path / "attn"
        args = pretrain_args(workspace, out, stage1_epochs=0, stage2_epochs=1,
                             cea_variant="attention")
        args += ["--pairs", str(workspace["pairs"]),
                 "--content", str(workspace["content"])]
        assert cli.main(args) == 0
        iters = [r for r in read_report(out) if "iter" in r]
        assert iters and all(r["L_cea"] is not None for r in iters)

    def test_attention_with_two_entities_exits_2(self, workspace, tmp_path, capsys):
        # no third entity to draw a negative from: refused before stage 1 trains
        pw = workspace["pair_world"]
        (tmp_path / "pairs.tsv").write_text(pw.pair_lines[0] + "\n")
        (tmp_path / "content.tsv").write_text("\n".join(pw.content_lines[:2]) + "\n")
        out = tmp_path / "attn"
        args = pretrain_args(workspace, out, stage1_epochs=1, stage2_epochs=1,
                             cea_variant="attention")
        args += ["--pairs", str(tmp_path / "pairs.tsv"),
                 "--content", str(tmp_path / "content.tsv")]
        assert cli.main(args) == 2
        assert "third entity" in capsys.readouterr().err
        assert not (out / "report.jsonl").exists() and not (out / "checkpoint.npz").exists()

    def test_config_file_flags_win(self, workspace, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("stage1-epochs = 3\nseed = 9\n")
        out = tmp_path / "cfg"
        args = pretrain_args(workspace, out, stage1_epochs=1, stage2_epochs=0)
        args += ["--config", str(conf)]
        assert cli.main(args) == 0
        state = TR.load_checkpoint(out / "checkpoint.npz")
        assert state.config.stage1_epochs == 1  # flag beat the file
        assert state.config.seed == 9           # file filled the gap

    def test_unknown_config_key_exits_2(self, workspace, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("warp-drive = 1\n")
        rc = cli.main(pretrain_args(workspace, tmp_path / "y", stage1_epochs=1,
                                    stage2_epochs=0) + ["--config", str(conf)])
        assert rc == 2
        assert "warp-drive" in capsys.readouterr().err

    def test_nan_abort_exits_3(self, workspace, tmp_path, monkeypatch, capsys):
        def blow_up(*args, **kwargs):
            raise TR.NanGradientError("tok_emb")

        monkeypatch.setattr(cli, "run_stage1", blow_up)
        rc = cli.main(pretrain_args(workspace, tmp_path / "nan",
                                    stage1_epochs=1, stage2_epochs=0))
        assert rc == 3
        assert "tok_emb" in capsys.readouterr().err

    def test_nan_abort_keeps_the_completed_steps(self, workspace, tmp_path, monkeypatch):
        fail_fourth_adam_step(monkeypatch)
        out = tmp_path / "nan"
        rc = cli.main(pretrain_args(workspace, out, stage1_epochs=1, stage2_epochs=0))
        assert rc == 3
        # one flushed line per completed step, and no wall_time line
        assert [rec.get("iter") for rec in read_report(out)] == [1, 2, 3]
        assert not (out / "checkpoint.npz").exists()

    def test_resume_into_the_same_dir_appends_to_the_report(self, workspace, tmp_path):
        out = tmp_path / "run"
        n, resume = run_one_epoch(workspace, out)
        assert cli.main(resume) == 0
        records = read_report(out)
        assert [rec["iter"] for rec in records if "iter" in rec] == list(range(1, 2 * n + 1))
        # one wall_time line per completed invocation, after that invocation's steps
        assert [i for i, rec in enumerate(records) if "wall_time" in rec] == [n, 2 * n + 1]

    def test_resume_after_an_abort_repeats_no_step(self, workspace, tmp_path, monkeypatch):
        out = tmp_path / "run"
        n, resume = run_one_epoch(workspace, out)
        fail_fourth_adam_step(monkeypatch)
        assert cli.main(resume) == 3
        # the aborted run's steps n+1..n+3 follow the checkpoint's step n
        assert [rec.get("iter") for rec in read_report(out)][-3:] == [n + 1, n + 2, n + 3]
        monkeypatch.undo()
        assert cli.main(resume) == 0
        steps = [rec["iter"] for rec in read_report(out) if "iter" in rec]
        assert steps == list(range(1, 2 * n + 1))

    def test_resume_rejects_a_report_line_that_is_not_json(self, workspace, tmp_path,
                                                            capsys):
        out = tmp_path / "run"
        _, resume = run_one_epoch(workspace, out)
        report = out / "report.jsonl"
        with open(report, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        before = report.read_bytes()
        lineno = before.count(b"\n")
        assert cli.main(resume) == 2
        assert f"{report}:{lineno}:" in capsys.readouterr().err
        assert report.read_bytes() == before

    def test_loaders_report_what_they_dropped(self, workspace, tmp_path, capsys):
        word = workspace["corpus"].read_text().split()[0]
        pool = tmp_path / "pool.tsv"
        pool.write_text(workspace["pool"].read_text() + f"unseen gizmo\t0.9\n{word}\t0.9\n")
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(workspace["pairs"].read_text() + "ea000\tea000\n")
        args = pretrain_args(workspace, tmp_path / "run", stage1_epochs=0, stage2_epochs=1,
                             pairs=pairs, content=workspace["content"])
        args[args.index("--phrase-pool") + 1] = str(pool)
        assert cli.main(args) == 0
        base = load_pool(workspace["pool"], Vocab.load(workspace["vocab"]))
        lines = capsys.readouterr().err.splitlines()
        assert f"pool phrases={len(base)} dropped_oov={base.dropped_oov + 1} " \
               f"dropped_short={base.dropped_short + 1}" in lines
        assert "pairs usable=10 dropped=1" in lines

    def test_progress_lines_go_to_stderr(self, workspace, tmp_path, capsys):
        out = tmp_path / "prog"
        args = pretrain_args(workspace, out, stage1_epochs=1, stage2_epochs=0)
        args[args.index("--log-every") + 1] = "5"
        assert cli.main(args) == 0
        captured = capsys.readouterr()
        assert "iter=" in captured.err
        assert "iter=" not in captured.out


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    args = pretrain_args(workspace, out, stage1_epochs=1, stage2_epochs=1, seed=3)
    args += ["--pairs", str(workspace["pairs"]), "--content", str(workspace["content"]),
             "--ipot-outer-iters", "20"]
    assert cli.main(args) == 0
    return out / "checkpoint.npz"


class TestAlign:
    def test_identical_texts_near_diagonal(self, trained, tmp_path):
        text = "f01 f02 ctx1 p00 p01 f03 f04 f05"
        rc = cli.main(["align", "--checkpoint", str(trained),
                       "--text-a", text, "--text-b", text,
                       "--out-dir", str(tmp_path), "--outer-iters", "2000"])
        assert rc == 0
        _, _, matrix = read_alignment_csv(tmp_path / "align_text.csv")
        own = sum(np.argmax(row) == i for i, row in enumerate(matrix))
        assert own >= 0.9 * matrix.shape[0]

    def test_single_token_pair(self, trained, tmp_path):
        rc = cli.main(["align", "--checkpoint", str(trained),
                       "--text-a", "f01", "--text-b", "f07",
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        _, _, matrix = read_alignment_csv(tmp_path / "align_text.csv")
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == 1.0

    def test_rows_reparse_to_one(self, trained, workspace, tmp_path):
        pw = workspace["pair_world"]
        ida, idb, _, _ = pw.planted[0]
        rc = cli.main(["align", "--checkpoint", str(trained),
                       "--content", str(workspace["content"]),
                       "--pair", f"{ida},{idb}", "--out-dir", str(tmp_path)])
        assert rc == 0
        _, _, matrix = read_alignment_csv(tmp_path / f"align_{ida}_{idb}.csv")
        assert np.abs(matrix.sum(axis=1) - 1.0).max() <= 1e-9

    def test_repeated_pair_is_aligned_and_written_once(self, trained, workspace, tmp_path,
                                                       monkeypatch, capsys):
        solves = []
        ipot = OT.ipot
        monkeypatch.setattr(OT, "ipot", lambda *a, **k: solves.append(1) or ipot(*a, **k))
        (ida, idb, _, _), (idc, idd, _, _) = workspace["pair_world"].planted[:2]
        rc = cli.main(["align", "--checkpoint", str(trained),
                       "--content", str(workspace["content"]), "--outer-iters", "20",
                       "--pair", f"{ida},{idb}", "--pair", f"{idc},{idd}",
                       "--pair", f"{ida},{idb}", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            f"alignment\t{tmp_path / f'align_{ida}_{idb}.csv'}",
            f"alignment\t{tmp_path / f'align_{idc}_{idd}.csv'}"]
        assert len(solves) == 2

    def test_attention_variant_matrix(self, trained, tmp_path):
        rc = cli.main(["align", "--checkpoint", str(trained),
                       "--text-a", "f01 f02 f03", "--text-b", "f04 f05",
                       "--out-dir", str(tmp_path), "--variant", "attention"])
        assert rc == 0
        _, _, matrix = read_alignment_csv(tmp_path / "align_text.csv")
        assert matrix.shape == (3, 2)
        assert np.abs(matrix.sum(axis=1) - 1.0).max() <= 1e-9

    def test_unknown_entity_exits_2(self, trained, workspace, tmp_path, capsys):
        rc = cli.main(["align", "--checkpoint", str(trained),
                       "--content", str(workspace["content"]),
                       "--pair", "ea000,ghost", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "ghost" in capsys.readouterr().err


class TestEval:
    def test_oracle_scores_one_everywhere(self, trained, workspace, tmp_path,
                                          monkeypatch, capsys):
        def oracle(params, enc_config, batch):
            return [[int(batch.gold_ids[row, pos]) for pos in positions]
                    for row, positions in enumerate(batch.masked_positions)]

        monkeypatch.setattr(TR, "_predict_masked", oracle)
        out = tmp_path / "acc.csv"
        rc = cli.main(["eval", "--checkpoint", str(trained),
                       "--eval-corpus", str(workspace["corpus"]),
                       "--phrase-pool", str(workspace["pool"]),
                       "--out", str(out)])
        assert rc == 0
        for line in out.read_text().splitlines()[1:]:
            span, n, acc = line.split(",")
            if int(n) > 0:
                assert float(acc) == 1.0

    def test_schema_and_na_cells(self, trained, workspace, tmp_path, capsys):
        # restrict to documents with no length-4 phrases via max-docs on the
        # pair corpus (it has no pool phrases at all -> NA for 2..4)
        eval_corpus = tmp_path / "tiny.txt"
        eval_corpus.write_text("f01 f02 f03 f04\n")
        out = tmp_path / "acc.csv"
        rc = cli.main(["eval", "--checkpoint", str(trained),
                       "--eval-corpus", str(eval_corpus),
                       "--phrase-pool", str(workspace["pool"]),
                       "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "span_len,n_examples,accuracy"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]
        for r in rows[1:]:
            assert r[1] == "0" and r[2] == "NA"

    def test_missing_checkpoint_exits_2(self, workspace, tmp_path):
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "none.npz"),
                       "--eval-corpus", str(workspace["corpus"]),
                       "--phrase-pool", str(workspace["pool"])])
        assert rc == 2

    def test_out_in_a_missing_directory_exits_2_before_printing(self, trained, workspace,
                                                                tmp_path, capsys):
        rc = cli.main(["eval", "--checkpoint", str(trained),
                       "--eval-corpus", str(workspace["corpus"]),
                       "--phrase-pool", str(workspace["pool"]),
                       "--out", str(tmp_path / "missing_dir" / "acc.csv")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "missing_dir" in captured.err
        assert not (tmp_path / "missing_dir").exists()

    def test_out_naming_a_directory_exits_2_before_loading(self, workspace, tmp_path, capsys):
        # the checkpoint does not exist, so only a check made before loading names --out
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "none.npz"),
                       "--eval-corpus", str(workspace["corpus"]),
                       "--phrase-pool", str(workspace["pool"]),
                       "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --out: ") and "is a directory" in captured.err


def test_console_module_smoke(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("alpha beta gamma alpha\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "domainlm.cli", "build-vocab",
         "--corpus", str(corpus), "--out", str(tmp_path / "v.tsv")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "vocab_size" in proc.stdout


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["pretrain"])  # missing required flags
    assert exc.value.code == 2
