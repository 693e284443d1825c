"""The dirty-input corpus: every file under tests/data/dirty through ``cli.main``.

Each entry of ``expected.json`` names one small input file (its prefix
says which loader reads it), optional extra flags, and what the command
must do with it: exit 2 with one exact ``error:`` line on stderr, or exit
0 with output bodies (manifest lines left out) of a pinned SHA-256. Files
that differ only in line ends, a byte-order mark or row order share
their well-formed twin's digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from warpwatch.cli import main

CORPUS = Path(__file__).parent / "data" / "dirty"
ENTRIES = json.loads((CORPUS / "expected.json").read_text(encoding="utf-8"))


def corpus_argv(entry: dict, outdir: Path) -> list[str]:
    path = str(CORPUS / entry["file"])
    kind = entry["file"].split("_", 1)[0]
    if kind == "segments":
        argv = ["preprocess", "--method", "msv", "--segments", path]
    elif kind == "weekly":
        argv = ["preprocess", "--method", "rescale", "--segments", str(CORPUS / "segments_ok.csv"), "--weekly", path]
    else:
        argv = ["cases", "--linelist", path, "--region", "NCR", "--province", "NCR",
                "--start", "2020-03-01", "--end", "2020-03-31"]
    return argv + entry.get("flags", []) + ["--outdir", str(outdir)]


def output_digest(outdir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        body = b"".join(line for line in path.read_bytes().splitlines(True) if not line.startswith(b"#"))
        digest.update(path.name.encode() + b"\n" + body)
    return digest.hexdigest()


def run_entry(entry: dict, outdir: Path) -> dict:
    """Exit code, plus the stderr text on failure or the output digest on success."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(corpus_argv(entry, outdir))
    if code == 0:
        return {"exit": 0, "sha256": output_digest(outdir)}
    return {"exit": code, "stderr": err.getvalue()}


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["id"] for e in ENTRIES])
def test_corpus_entry(entry, tmp_path):
    expected = {"exit": entry["exit"]}
    if entry["exit"] == 0:
        expected["sha256"] = entry["sha256"]
    else:
        expected["stderr"] = entry["stderr"] + "\n"
    assert run_entry(entry, tmp_path / "out") == expected


def test_every_corpus_file_has_an_entry():
    named = {e["file"] for e in ENTRIES}
    assert named == {p.name for p in CORPUS.glob("*.csv")}
