"""Determinism ledger: canonical fingerprints, chains, diffs.

Three proof obligations back the cross-path ledger gate:

1. Fingerprints are a pure function of the *value*, not of incidental
   representation — dict insertion order, set iteration order, and the
   process's hash seed must not leak into the digest (property tests,
   plus a fresh-interpreter PYTHONHASHSEED check).
2. A chain diff localizes: perturbing exactly one stage's state names
   exactly that stage as the first divergence.
3. The end-to-end pipeline ledger is stable run-to-run and reacts to a
   deliberate single-decision perturbation at the stage that changed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import PipelineConfig, TrackerSiftPipeline
from repro.obs.ledger import (
    Ledger,
    StreamHasher,
    canonical_json,
    diff_ledgers,
    fingerprint,
    render_diff,
    stream_digest,
)

#: The checkout under test, wherever it lives.
_REPO = Path(__file__).resolve().parents[1]

# -- strategies --------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=20),
)
json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=20,
)


class TestFingerprint:
    @given(st.dictionaries(st.text(max_size=8), json_values, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_dict_insertion_order_invariant(self, mapping):
        items = list(mapping.items())
        reversed_mapping = dict(reversed(items))
        assert fingerprint(mapping) == fingerprint(reversed_mapping)
        assert canonical_json(mapping) == canonical_json(reversed_mapping)

    @given(st.sets(st.text(max_size=10), max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_sets_fingerprint_construction_order_invariant(self, values):
        """Sets fold to one deterministic list no matter how they were
        built (their iteration order is the hash-seed-dependent part)."""
        rebuilt = set()
        for item in sorted(values, reverse=True):
            rebuilt.add(item)
        assert fingerprint(values) == fingerprint(rebuilt)
        assert fingerprint(values) == fingerprint(frozenset(values))

    def test_tuples_and_lists_fingerprint_alike(self):
        assert fingerprint((1, 2, (3,))) == fingerprint([1, 2, [3]])

    def test_bytes_canonicalize_as_hex(self):
        assert canonical_json(b"\x00\xff") == canonical_json("00ff")

    def test_hash_seed_stability_across_interpreters(self):
        """The same value fingerprints identically under different
        PYTHONHASHSEED values — nothing hash-order-dependent leaks in."""
        program = (
            "import sys; sys.path.insert(0, sys.argv[1]);"
            "from repro.obs.ledger import fingerprint;"
            "print(fingerprint({'b': [3, 1], 'a': {'x', 'y'}, 'c': None}))"
        )
        digests = set()
        for seed in ("0", "1", "424242"):
            out = subprocess.run(
                [sys.executable, "-c", program, str(_REPO / "src")],
                env={
                    "PYTHONHASHSEED": seed,
                    "PYTHONDONTWRITEBYTECODE": "1",
                    "PATH": "/usr/bin:/bin",
                },
                cwd=_REPO,
                capture_output=True,
                text=True,
                check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    def test_known_vector_pinned(self):
        """Canonical form is part of the ledger format: pin one vector so
        an accidental serialization change cannot slip through."""
        assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'


class TestStreamHasher:
    def test_order_sensitive_and_separated(self):
        a, b = StreamHasher(), StreamHasher()
        a.update_many(["x", "y"])
        b.update_many(["y", "x"])
        assert a.hexdigest() != b.hexdigest()
        # The record separator keeps ["ab"] distinct from ["a", "b"].
        c, d = StreamHasher(), StreamHasher()
        c.update("ab")
        d.update_many(["a", "b"])
        assert c.hexdigest() != d.hexdigest()

    def test_count_tracks_updates(self):
        hasher = StreamHasher()
        hasher.update_many(["a", "b", "c"])
        assert hasher.count == 3

    @given(st.lists(st.text(max_size=20), max_size=30))
    def test_stream_digest_matches_incremental_hasher(self, items):
        """The one-shot fast path the engine hot loop uses is
        byte-identical to the incremental hasher — including the empty
        stream and items that themselves contain the separator."""
        hasher = StreamHasher()
        hasher.update_many(items)
        assert stream_digest(items) == hasher.hexdigest()


class TestLedgerDiff:
    def _chain(self, states: dict) -> Ledger:
        ledger = Ledger("test")
        for stage, state in states.items():
            ledger.record(stage, state)
        return ledger

    def test_identical_chains(self):
        states = {"crawl": {"n": 3}, "label": [1, 2], "sift": "done"}
        diff = diff_ledgers(self._chain(states), self._chain(states))
        assert diff["identical"]
        assert diff["stages_compared"] == 3
        assert "identical" in render_diff(diff)

    @pytest.mark.parametrize("perturbed", ["crawl", "label", "sift"])
    def test_single_stage_perturbation_names_that_stage(self, perturbed):
        """Perturb exactly one stage; the diff must name exactly it."""
        states = {"crawl": {"n": 3}, "label": [1, 2], "sift": "done"}
        mutated = dict(states)
        mutated[perturbed] = {"tampered": True}
        diff = diff_ledgers(self._chain(states), self._chain(mutated))
        assert not diff["identical"]
        assert diff["stage"] == perturbed
        assert diff["index"] == list(states).index(perturbed)
        assert perturbed in render_diff(diff)

    def test_truncated_chain_reports_missing_stage(self):
        full = self._chain({"a": 1, "b": 2})
        short = self._chain({"a": 1})
        diff = diff_ledgers(full, short)
        assert not diff["identical"]
        assert diff["index"] == 1

    def test_jsonl_roundtrip_preserves_chain(self, tmp_path):
        ledger = self._chain({"a": {"x": 1}, "b": [2]})
        path = tmp_path / "chain.jsonl"
        ledger.write_jsonl(path)
        loaded = Ledger.from_jsonl(path)
        assert loaded.chain() == ledger.chain()
        # Every line is plain JSON with the pinned keys.
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            assert set(record) >= {"stage", "fingerprint"}


class TestPipelineLedger:
    CONFIG = dict(sites=50, seed=11, failure_rate=0.05)

    def _run(self, **overrides) -> Ledger:
        ledger = Ledger("pipeline")
        config = PipelineConfig(**{**self.CONFIG, **overrides})
        TrackerSiftPipeline(config, ledger=ledger).run()
        return ledger

    def test_stage_chain_shape(self):
        ledger = self._run()
        assert ledger.stages() == (
            "filterlists",
            "matcher",
            "web",
            "crawl",
            "labels",
            "sift",
            "report",
        )

    def test_repeat_runs_fingerprint_identically(self):
        assert self._run().chain() == self._run().chain()

    def test_seed_perturbation_first_diverges_at_web(self):
        """A changed generator seed leaves the filter-list stages intact
        and first shows up at the synthetic-web stage — the ledger
        localizes *where* determinism broke, not just *that* it broke."""
        diff = diff_ledgers(self._run(), self._run(seed=12))
        assert not diff["identical"]
        assert diff["stage"] == "web"
        assert diff["index"] == 2

    def test_threshold_perturbation_first_diverges_at_report(self):
        """Threshold only affects final classification: web, crawl,
        labels, and even the sift tallies must fingerprint identically;
        the report is the single stage allowed to move — the ledger
        pins the perturbation to the exact stage that consumed it."""
        diff = diff_ledgers(self._run(), self._run(threshold=1.2))
        assert not diff["identical"]
        assert diff["stage"] == "report"
        assert diff["index"] == 6
