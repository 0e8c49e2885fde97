#!/usr/bin/env python3
"""Compile → serve identity smoke, run by ``scripts/check.sh``.

End-to-end over the real artifact code path: compile a small list to a
``.tsoracle``, boot a :class:`BlockingService` from the artifact, compare
every decision against a text-built service, hot-reload a *running*
text-built service from the artifact (its churn report must equal a
text reload's), recompile the opened image (it must re-emit byte for
byte, as fan-out does), compile the same lists in a fresh process under
another hash seed (the bytes must not change: no set or ``id()`` order
may leak into the artifact), and confirm corrupt artifacts are rejected
without touching the serving snapshot.  Pure stdlib + repro,
seconds to run — the cheap guarantee that the artifact a user compiles is
the oracle they serve.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.filterlists.compile import (  # noqa: E402
    ArtifactError,
    compile_lists,
    compile_matcher,
    open_image,
)
from repro.filterlists.lists import default_lists  # noqa: E402
from repro.filterlists.parser import parse_filter_list  # noqa: E402
from repro.serve.service import BlockingService  # noqa: E402

LIST_TEXT = """\
! smoke blocklist
||tracker.example^
||ads.example^$third-party
/pixel/*
-beacon-$image
@@||cdn.example^$script
"""

# For the hash-seed check: many host and token keys, digit-bearing hosts
# (a set in the matcher) and a repeated line (provenance line reuse).
ORDER_TEXT = LIST_TEXT + "".join(
    f"||cdn{n}.example/p{n}.js\n||h{n}.example^\n/t{n}x/*\n" for n in range(40)
) + "||tracker.example^\n"

# Compiles the embedded lists plus argv[2] to argv[1] in a fresh process.
COMPILE_CHILD = """
import sys
from repro.filterlists.compile import compile_lists
from repro.filterlists.lists import default_lists
from repro.filterlists.parser import parse_filter_list
compile_lists(sys.argv[1], *default_lists(), parse_filter_list(sys.argv[2], name="smoke"))
"""

PROBE_URLS = [
    "https://tracker.example/lib.js",
    "https://sub.tracker.example/a.gif",
    "https://ads.example/banner.js",
    "https://site.example/pixel/1.gif",
    "https://site.example/x-beacon-y.png",
    "https://cdn.example/framework.js",
    "https://functional.example/app.js",
]


def main() -> int:
    parsed = parse_filter_list(LIST_TEXT, name="smoke")
    with tempfile.TemporaryDirectory(prefix="trackersift-smoke-") as tmp:
        artifact = Path(tmp) / "smoke.tsoracle"
        meta = compile_lists(artifact, parsed)
        assert meta["rule_count"] == 5, meta

        from_text = BlockingService(parsed)
        from_artifact = BlockingService(artifact=artifact)
        for url in PROBE_URLS:
            text_decision = from_text.decide(url)
            artifact_decision = from_artifact.decide(url)
            for field in ("blocked", "label", "matched_rule", "matched_list"):
                assert artifact_decision[field] == text_decision[field], (
                    url,
                    field,
                    text_decision,
                    artifact_decision,
                )

        # Hot path: reload a *running* service from the artifact.
        running = BlockingService()  # embedded defaults
        report = running.reload_artifact(artifact)
        assert report["revision"] == 2, report
        assert report["rule_count"] == 5, report
        text_report = BlockingService().reload(parsed)
        for field in ("lists", "churn"):
            assert report[field] == text_report[field], (field, report)

        # Fan-out path: an opened image recompiles to the same bytes.
        copy = Path(tmp) / "copy.tsoracle"
        compile_matcher(open_image(artifact), copy)
        assert copy.read_bytes() == artifact.read_bytes()
        for url in PROBE_URLS:
            assert (
                running.decide(url)["blocked"]
                == from_text.decide(url)["blocked"]
            ), url

        # Determinism: the same lists compile to the same bytes in this
        # process and in a fresh one with a different hash seed.
        here = Path(tmp) / "here.tsoracle"
        there = Path(tmp) / "there.tsoracle"
        compile_lists(
            here, *default_lists(), parse_filter_list(ORDER_TEXT, name="smoke")
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        subprocess.run(
            [sys.executable, "-c", COMPILE_CHILD, str(there), ORDER_TEXT],
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed),
            check=True,
            timeout=60,
        )
        assert here.read_bytes() == there.read_bytes(), (
            "artifact bytes depend on the hash seed"
        )

        # Corruption must be rejected and must not unseat the snapshot.
        corrupt = Path(tmp) / "corrupt.tsoracle"
        data = bytearray(artifact.read_bytes())
        data[-5] ^= 0xFF
        corrupt.write_bytes(bytes(data))
        try:
            running.reload_artifact(corrupt)
        except ArtifactError:
            pass
        else:
            raise AssertionError("corrupt artifact was accepted")
        assert running.snapshot.revision == 2
        assert running.decide(PROBE_URLS[0])["blocked"]

    print(
        "compile smoke: compile → boot → hot-reload identical on "
        f"{len(PROBE_URLS)} probes, churn equals a text reload, recompile "
        "re-emits the image, bytes identical across hash seeds; corrupt "
        "artifact rejected cleanly"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
