#!/usr/bin/env python3
"""Determinism-ledger smoke over the real CLI, run by ``scripts/check.sh``.

Drives ``trackersift`` exactly as a user would: run the batch study, the
streaming sift and the streaming sift fanned out over two worker
processes with ``--ledger-out``, then ``trackersift ledger diff`` each
streaming chain against the batch one — they must be identical (exit 0).
The fan-out workers read their slices of the web plan, shared values
included, from the memory they inherit at fork, so this also checks that
nothing a worker touches leaks into another shard's result.  Then
perturb the seed and diff again — the chains must diverge (exit 1) and
the diff must localize the first divergent stage to ``web`` (the
earliest stage a seed change can reach), not merely report a mismatch.
Pure stdlib + repro, seconds to run — the cheap guarantee that the
fingerprint ledger both certifies equivalence and names the broken stage
when it breaks.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main  # noqa: E402

SCALE = ["--sites", "80", "--seed", "5"]


def _quiet(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def main_smoke() -> int:
    with tempfile.TemporaryDirectory(prefix="trackersift-ledger-") as tmp:
        batch = str(Path(tmp) / "batch.jsonl")
        stream = str(Path(tmp) / "stream.jsonl")
        fanout = str(Path(tmp) / "fanout.jsonl")
        perturbed = str(Path(tmp) / "perturbed.jsonl")

        assert _quiet(SCALE + ["--ledger-out", batch, "study"]) == 0
        assert (
            _quiet(
                SCALE
                + ["--ledger-out", stream, "--streaming", "--shards", "4", "sift"]
            )
            == 0
        )
        assert (
            _quiet(
                SCALE
                + [
                    "--ledger-out", fanout,
                    "--streaming", "--workers", "2", "sift",
                ]
            )
            == 0
        )
        assert (
            _quiet(
                ["--sites", "80", "--seed", "6", "--ledger-out", perturbed, "study"]
            )
            == 0
        )

        for chain in (stream, fanout):
            same = io.StringIO()
            with contextlib.redirect_stdout(same):
                identical_exit = main(["ledger", "diff", batch, chain])
            assert identical_exit == 0, same.getvalue()
            assert "identical" in same.getvalue(), same.getvalue()

        diverged = io.StringIO()
        with contextlib.redirect_stdout(diverged):
            diverged_exit = main(["ledger", "diff", batch, perturbed])
        assert diverged_exit == 1, diverged.getvalue()
        assert "DIVERGED" in diverged.getvalue(), diverged.getvalue()
        assert "web" in diverged.getvalue(), (
            "seed perturbation must localize to the 'web' stage:\n"
            + diverged.getvalue()
        )

    print(
        "ledger smoke: batch == stream-4 == 2-worker fan-out chains "
        "(7 stages); seed perturbation localized to stage 'web'"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main_smoke())
