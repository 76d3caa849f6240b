"""What the system computes, pinned: see tests/record_pinned.py."""
import json
import math

from domainlm import hybrid as H

from record_pinned import DATA, compute

RTOL = 1e-10  # for a numpy or BLAS other than the recorded one


def close(got, want, path="") -> list[str]:
    """Where ``got`` and ``want`` differ beyond RTOL, hashes aside; CSV text is
    compared cell by cell, a number within RTOL."""
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want if k not in ("sha256", "environment")
                for d in close(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, str) and "," in want:
        got, want = ([cell for line in s.splitlines() for cell in line.split(",")]
                     for s in (got, want))
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} items != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in close(g, w, f"{path}[{i}]")]
    try:
        g, w = float(got), float(want)
    except (TypeError, ValueError):
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    return [] if type(got) is type(want) and math.isclose(g, w, rel_tol=RTOL, abs_tol=0.0) \
        else [f"{path}: {got!r} != {want!r}"]


def test_close_sees_a_drift_beyond_its_tolerance():
    want = {"a": [1.0, None, "word"], "sha256": "x", "csv": ",t\nt,0.5\n"}
    assert close({"a": [1.0 + 1e-12, None, "word"], "sha256": "y", "csv": ",t\nt,0.5\n"},
                 want) == []
    assert close({"a": [1.0 + 1e-9, 0.0, "phrase"], "sha256": "x", "csv": ",t\nt,0.51\n"},
                 want) == [".a[0]: 1.000000001 != 1.0", ".a[1]: 0.0 != None",
                           ".a[2]: 'phrase' != 'word'", ".csv[3]: '0.51' != '0.5'"]


def test_the_system_computes_what_was_recorded(tmp_path, monkeypatch):
    pooled = []
    phrase_logits = H.phrase_logits
    monkeypatch.setattr(H, "phrase_logits", lambda *args: pooled.append(1) or
                        phrase_logits(*args))
    got = json.loads(json.dumps(compute(tmp_path)))  # floats as their JSON text
    want = json.loads(DATA.read_text("utf-8"))
    assert pooled, "no pinned step reached the phrase head"
    assert any(rec["L_cea"] for rec in got["runs"]["stage2_attention"]["records"])
    if got["environment"] == want["environment"]:
        print("pinned values: bit for bit, hashes compared")
        assert got == want
    else:
        print(f"pinned values: numpy or BLAS differs from the recorded {want['environment']}; "
              f"floats compared within {RTOL} relative, hashes skipped")
        assert close(got, want) == []
