"""Compiled oracle artifacts: round-trip fidelity and tamper rejection.

The proof obligations for ``repro.filterlists.compile``:

* a compiled-then-opened matcher is observationally equivalent to the
  original on ``match()`` (property-tested over generated rule sets and
  fuzzed URLs, including rules whose regexes were already compiled —
  derived state must not leak into the artifact);
* every way an artifact can be wrong on disk — bad magic, future format
  version, truncation, bit corruption, an image that is not an image —
  is rejected with :class:`ArtifactError` before any rule is trusted;
* an opened matcher is *immutable*: its revision is the compiled one,
  and ``add_list`` refuses (edit list text and recompile instead).
"""

import copy
import gc
import hashlib
import json
import pickle
import random
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filterlists.compile import (
    ARTIFACT_VERSION,
    MAGIC,
    ArtifactError,
    _HEADER,
    compile_lists,
    compile_matcher,
    dumps_artifact,
    open_image,
    read_artifact_meta,
)
from repro.filterlists.image import ImageMatcher
from repro.filterlists.lists import default_lists
from repro.filterlists.matcher import FilterMatcher
from repro.filterlists.oracle import FilterListOracle
from repro.filterlists.parser import ParsedList, parse_filter_list, parse_rule_line
from repro.filterlists.rules import NetworkRule, RequestContext, RuleOptions
from repro.obs.trace import Tracer

LIST_TEXT = """\
||tracker.example^
||ads.example^$third-party
/pixel/*
-banner-$image
@@||cdn.example^$script
|https://exact.example/path|
"""


def _matcher() -> FilterMatcher:
    return FilterMatcher.from_text(LIST_TEXT, name="unit")


def _opened(data: bytes) -> ImageMatcher:
    """``open_image`` over artifact bytes (written to a temporary file)."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "artifact.tsoracle"
        path.write_bytes(data)
        return open_image(path)


# -- round trip ---------------------------------------------------------------

_HOSTS = st.sampled_from(
    ["tracker.example", "ads.example", "cdn.example", "other.example", "x.y"]
)
_PATHS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789/-._~%", max_size=24
)
_URLS = st.builds(
    lambda host, path: f"https://{host}/{path}", _HOSTS, _PATHS
)

_RULE_LINES = st.lists(
    st.one_of(
        st.builds(lambda h: f"||{h}^", _HOSTS),
        st.builds(lambda t: f"/{t}/*", st.text(alphabet="abcxyz09", min_size=1, max_size=8)),
        st.builds(lambda h: f"@@||{h}^$script", _HOSTS),
        st.builds(lambda t: f"-{t}-$image,third-party", st.text(alphabet="abc12", min_size=1, max_size=6)),
        st.builds(lambda h, t: f"||{h}/{t}^$domain=site.example|~other.example", _HOSTS, st.text(alphabet="xyz", min_size=1, max_size=5)),
    ),
    max_size=12,
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(lines=_RULE_LINES, urls=st.lists(_URLS, min_size=1, max_size=8))
    def test_loaded_matcher_matches_identically(self, lines, urls):
        """compile → load is observationally equivalent on match()."""
        parsed = parse_filter_list("\n".join(lines), name="fuzz")
        original = FilterMatcher.from_lists(parsed)
        # Warm some regexes so the round trip must strip derived state.
        for url in urls[::2]:
            original.match(RequestContext(url=url))
        loaded = _opened(dumps_artifact(original, (parsed,)))
        assert loaded.rule_count == original.rule_count
        assert loaded.revision == original.revision
        for url in urls:
            for context in (
                RequestContext(url=url),
                RequestContext(url=url, third_party=False, page_host="site.example"),
            ):
                a = original.match(context)
                b = loaded.match(context)
                assert a.blocked == b.blocked, (url, context)
                assert (a.rule.text if a.rule else None) == (
                    b.rule.text if b.rule else None
                ), (url, context)

    def test_artifact_rules_arrive_lazy(self):
        """Neither compiled regexes nor extracted tokens travel: opened
        rules materialize from their source lines on first traffic and
        re-derive both on demand."""
        parsed = parse_filter_list(LIST_TEXT, name="unit")
        matcher = FilterMatcher.from_lists(parsed)
        # Force every rule's regex and token to materialize pre-compile.
        for rule in parsed.rules:
            rule.regex
            rule.token
        probe = RequestContext(url="https://tracker.example/pixel/1.gif")
        matcher.match(probe)
        loaded = _opened(dumps_artifact(matcher))
        assert loaded.materialized_rule_count == 0
        assert loaded.match(probe).blocked
        rules = list(loaded._rules.values())
        assert rules
        # The host-anchor hit decided by key lookup: no regex compiled.
        assert all(not rule.regex_compiled for rule in rules)
        assert all(rule._token is None for rule in rules)

    def test_file_round_trip_and_meta(self, tmp_path):
        path = tmp_path / "unit.tsoracle"
        parsed = parse_filter_list(LIST_TEXT, name="unit")
        meta = compile_lists(path, parsed)
        assert meta["rule_count"] == 6
        assert meta["lists"] == ["unit"]
        info = read_artifact_meta(path)
        assert info["rule_count"] == 6
        assert info["version"] == ARTIFACT_VERSION
        assert info["bytes"] == path.stat().st_size
        opened = open_image(path)
        assert opened.provenance_names == ("unit",)
        assert opened.rule_lines() == (
            ("unit", tuple(rule.text for rule in parsed.rules)),
        )
        assert opened.rule_count == 6

    def test_cached_matcher_is_unwrapped(self, tmp_path):
        from repro.filterlists.cache import CachedMatcher

        cached = CachedMatcher(_matcher())
        path = tmp_path / "cached.tsoracle"
        compile_matcher(cached, path)
        loaded = open_image(path)
        assert isinstance(loaded, ImageMatcher)
        assert loaded.rule_count == cached.rule_count


# -- rejection ----------------------------------------------------------------


class TestRejection:
    def _data(self) -> bytes:
        return dumps_artifact(_matcher())

    def test_bad_magic_rejected(self):
        data = self._data()
        with pytest.raises(ArtifactError, match="magic"):
            _opened(b"NOTANART" + data[8:])

    def test_version_mismatch_rejected(self):
        data = self._data()
        bumped = (
            MAGIC
            + struct.pack(">H", ARTIFACT_VERSION + 1)
            + data[10:]
        )
        with pytest.raises(ArtifactError, match="version"):
            _opened(bumped)

    @pytest.mark.parametrize("keep", [0, 4, _HEADER.size - 1])
    def test_shorter_than_header_rejected(self, keep):
        with pytest.raises(ArtifactError, match="truncated"):
            _opened(self._data()[:keep])

    def test_truncated_payload_rejected(self):
        data = self._data()
        with pytest.raises(ArtifactError, match="truncated"):
            _opened(data[:-7])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ArtifactError, match="truncated or padded"):
            _opened(self._data() + b"xx")

    def test_corrupt_byte_rejected(self):
        data = bytearray(self._data())
        data[-10] ^= 0xFF  # flip bits deep in the image
        with pytest.raises(ArtifactError, match="checksum"):
            _opened(bytes(data))

    def test_corrupt_meta_rejected(self):
        data = bytearray(self._data())
        data[_HEADER.size] ^= 0xFF  # first metadata byte
        with pytest.raises(ArtifactError, match="checksum"):
            _opened(bytes(data))

    def test_wrong_payload_type_rejected(self):
        """A well-formed container whose image is not an oracle image
        must be refused — checksums don't vouch for content."""
        image = struct.pack(">I", 2) + b"[]"  # a JSON header, but a list
        meta = json.dumps({"rule_count": 0}).encode()
        digest = hashlib.sha256(meta + image).digest()
        data = (
            _HEADER.pack(MAGIC, ARTIFACT_VERSION, len(meta), len(image), digest)
            + meta
            + image
        )
        with pytest.raises(ArtifactError, match="image header"):
            _opened(data)

    @pytest.mark.parametrize(
        "rule",
        [
            NetworkRule(text="||a.example^", pattern="||b.example^"),
            NetworkRule(text="/ads/*", pattern="/ads/*", is_exception=True),
            NetworkRule(
                text="||a.example^$script",
                pattern="||a.example^",
                options=RuleOptions(third_party=True),
            ),
        ],
        ids=["pattern", "exception", "options"],
    )
    def test_rule_that_does_not_reparse_rejected(self, rule, tmp_path):
        """The image stores source lines, so a rule whose ``text`` would
        re-parse to a different rule cannot be compiled."""
        matcher = FilterMatcher([rule])
        with pytest.raises(ArtifactError, match="does not round-trip"):
            dumps_artifact(matcher)
        path = tmp_path / "drift.tsoracle"
        with pytest.raises(ArtifactError, match="does not round-trip"):
            compile_matcher(matcher, path)
        assert not path.exists()

    def test_only_unmarked_rules_are_reparsed(self, monkeypatch):
        """The parser marks the rules it builds as round-tripping, so the
        check re-parses only rules that lost the mark (pickle, copy) or
        never had it, and still rejects one that does not re-parse."""
        import repro.filterlists.image as image

        reparsed: list[str] = []

        def counting(line: str, list_name: str = ""):
            reparsed.append(line)
            return parse_rule_line(line, list_name)

        monkeypatch.setattr(image, "parse_rule_line", counting)
        parsed = parse_filter_list(LIST_TEXT, name="unit").rules
        copied = [copy.copy(parsed[0]), pickle.loads(pickle.dumps(parsed[1]))]
        dumps_artifact(FilterMatcher(parsed))
        assert reparsed == []
        dumps_artifact(FilterMatcher(parsed[2:] + copied))
        assert sorted(reparsed) == sorted(rule.text for rule in copied)
        drift = NetworkRule(text="||a.example^", pattern="||b.example^")
        with pytest.raises(ArtifactError, match="does not round-trip"):
            dumps_artifact(FilterMatcher([*parsed, drift]))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            open_image(tmp_path / "absent.tsoracle")

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "cut.tsoracle"
        compile_matcher(_matcher(), path)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(ArtifactError, match="truncated"):
            open_image(path)


# -- the opened matcher -------------------------------------------------------


class TestLoadedMatcherLiveness:
    def test_opened_matcher_is_immutable_at_its_revision(self, tmp_path):
        path = tmp_path / "frozen.tsoracle"
        original = _matcher()
        compile_matcher(original, path)
        loaded = open_image(path)
        assert loaded.revision == original.revision
        with pytest.raises(ArtifactError, match="immutable"):
            loaded.add_list(parse_filter_list("||fresh.example^", name="extra"))
        assert loaded.revision == original.revision
        assert not loaded.should_block_url("https://fresh.example/x")

    def test_oracle_from_artifact_serves_and_caches(self, tmp_path):
        path = tmp_path / "oracle.tsoracle"
        parsed = parse_filter_list(LIST_TEXT, name="unit")
        compile_lists(path, parsed)
        oracle = FilterListOracle.from_artifact(path)
        reference = FilterListOracle(parsed)
        urls = [
            "https://tracker.example/a.js",
            "https://cdn.example/lib.js",
            "https://other.example/pixel/9.gif",
            "https://exact.example/path",
        ]
        for url in urls:
            assert oracle.label(url) == reference.label(url), url
        stats = oracle.cache_stats
        assert stats is not None
        for url in urls:  # second pass hits the decision cache
            oracle.label(url)
        assert stats.hits >= len(urls)


class TestVersionedFormat:
    """Version 4: the oracle image is the only payload, old artifacts are
    rejected loudly, the automaton vocabulary comes from the image's key
    tables, and the meta block accounts unsupported rules."""

    def test_version_1_artifact_rejected(self):
        data = dumps_artifact(_matcher())
        downgraded = MAGIC + struct.pack(">H", 1) + data[10:]
        with pytest.raises(ArtifactError, match="version 1"):
            _opened(downgraded)

    def test_version_3_artifact_rejected_with_recompile(self):
        data = dumps_artifact(_matcher())
        downgraded = MAGIC + struct.pack(">H", 3) + data[10:]
        with pytest.raises(ArtifactError, match="version 3.*recompile"):
            _opened(downgraded)

    def test_automaton_travels_and_stays_lazy(self):
        original = _matcher()
        loaded = _opened(dumps_artifact(original))
        automaton = loaded.automaton
        assert automaton is not None
        assert automaton.vocabulary_size == original.automaton.vocabulary_size > 0
        # Lazy invariant: compiled scan patterns never serialize; they
        # materialize on the first decision in the loading process.
        assert not automaton.compiled
        assert loaded.should_block_url("https://tracker.example/a.js")
        assert automaton.compiled

    def test_loaded_decisions_match_normalized_hosts(self):
        loaded = _opened(dumps_artifact(_matcher()))
        assert loaded.should_block_url("http://tracker.example./x")

    def test_meta_accounts_automaton_and_unsupported(self, tmp_path):
        parsed = parse_filter_list(
            LIST_TEXT + "/track/v1/\n/re\\d/\n", name="unit"
        )
        path = tmp_path / "v4.tsoracle"
        meta = compile_lists(path, parsed)
        assert meta["version"] == ARTIFACT_VERSION == 4
        assert meta["image_bytes"] > 0
        assert meta["automaton_keys"] > 0
        assert meta["unsupported"] == {"regex-rule": 2}
        assert meta["unsupported_rules"] == 2
        assert read_artifact_meta(path)["unsupported"] == {"regex-rule": 2}
        # The counts survive the round trip on the matcher itself, too.
        assert open_image(path).unsupported_counts == {"regex-rule": 2}


class TestCompileSpans:
    def test_index_and_encode_have_sibling_spans(self, tmp_path):
        """Index building and encoding are each attributed to a span, and
        neither nests in the other."""
        tracer = Tracer()
        with tracer.activate():
            compile_lists(
                tmp_path / "traced.tsoracle", parse_filter_list(LIST_TEXT, name="unit")
            )
        spans = {record.name: record for record in tracer.records}
        assert set(spans) == {"artifact.index", "artifact.compile"}
        assert spans["artifact.index"].parent_id == 0
        assert spans["artifact.compile"].parent_id == 0


class TestCollectorPause:
    """``compile_lists`` runs with the cyclic collector paused and leaves
    it as it found it, also when the compile fails."""

    def test_enabled_collector_stays_enabled(self, tmp_path):
        gc.enable()
        compile_lists(
            tmp_path / "on.tsoracle", parse_filter_list(LIST_TEXT, name="unit")
        )
        assert gc.isenabled()

    def test_callers_disabled_collector_stays_disabled(self, tmp_path):
        gc.disable()
        try:
            compile_lists(
                tmp_path / "off.tsoracle", parse_filter_list(LIST_TEXT, name="unit")
            )
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_collector_restored_when_compile_raises(self, tmp_path):
        gc.enable()
        drift = NetworkRule(text="||a.example^", pattern="||b.example^")
        with pytest.raises(ArtifactError, match="does not round-trip"):
            compile_lists(tmp_path / "drift.tsoracle", ParsedList("drift", [drift]))
        assert gc.isenabled()

    def test_list_scale_compile_runs_no_collection(self, tmp_path):
        parsed = parse_filter_list("\n".join(_seeded_list("gc", 12000)), name="big")
        assert len(parsed.rules) == 12000
        gc.enable()
        gc.collect()
        collections: list[int] = []

        def record(phase: str, info: dict) -> None:
            if phase == "start":
                collections.append(info["generation"])

        gc.callbacks.append(record)
        try:
            compile_lists(tmp_path / "big.tsoracle", parsed)
        finally:
            gc.callbacks.remove(record)
        assert collections == []


# -- golden bytes -------------------------------------------------------------


def _seeded_list(seed: str, count: int) -> list[str]:
    """``count`` seeded rule lines covering every indexing and encoding
    branch: host anchors (with and without digits past the host), paths,
    option-carrying rules, ``@@`` exceptions, raw ``/regex/`` rules,
    ``match-case`` and ``domain=`` options, unsupported options, short
    and wildcard-bounded tokens, and non-ASCII text whose lowercase
    changes length."""
    rng = random.Random(seed)
    letters = "abcdefghijklmnopqrstuvwxyz"
    exotic = ("bücher", "straße", "İstanbul", "ÆON", "xn--bcher-kva", "ﬁle")

    def word(low: int = 3, high: int = 8) -> str:
        return "".join(rng.choice(letters) for _ in range(rng.randint(low, high)))

    def host() -> str:
        return f"{word()}.{rng.choice(('com', 'net', 'io', 'co.uk'))}"

    shapes = (
        lambda: f"||{host()}^",
        lambda: f"||{word().upper()}.{host()}^",
        lambda: f"||{host()}/{word()}{rng.randint(0, 999)}/*",
        lambda: f"||ad{rng.randint(0, 99)}.{host()}^",
        lambda: f"||{host()}^$third-party",
        lambda: f"||{host()}^$match-case",
        lambda: f"/{word()}/*",
        lambda: f"/{word()}{rng.randint(0, 9)}/{word()}.js|",
        lambda: f"|https://{host()}/{word()}",
        lambda: f"-{word()}-$image,third-party",
        lambda: f"{word(1, 2)}*{word()}^$script",
        lambda: f"*{word()}*",
        lambda: f"^{word()}^",
        lambda: f"/{word()}/x$domain={host()}|~{host()}",
        lambda: f"@@||cdn-{host()}^$script",
        lambda: f"@@/{word()}/*$xmlhttprequest",
        lambda: f"/{word()}\\d+/",
        lambda: f"/{word()}/ad$popup",
        lambda: f"||{rng.choice(exotic)}{rng.randint(0, 9)}.example^",
        lambda: f"/{rng.choice(exotic)}/{word()}",
    )
    return [rng.choice(shapes)() for _ in range(count)]


class TestGoldenArtifact:
    """The artifact bytes of a fixed build are pinned: a change to how
    lists are parsed, indexed or encoded must not move a single byte."""

    GOLDEN_SHA256 = (
        "9450f51f29ebf179e782d2d18a2df67ed3cc14f487fd720403a5bb4d41a14002"
    )

    def _lists(self):
        embedded = default_lists()
        first = _seeded_list("golden-a", 1400)
        # The second list repeats lines of the first and of the embedded
        # lists (provenance line reuse) and repeats some of its own.
        second = _seeded_list("golden-b", 500) + first[::7] + first[:40]
        second += [rule.text for rule in embedded[0].rules[::3]]
        seeded_a = parse_filter_list("\n".join(first), name="seeded-a")
        seeded_b = parse_filter_list("\n".join(second), name="seeded-b")
        # ``seeded-a`` twice: the same rule objects are indexed twice.
        return (*embedded, seeded_a, seeded_b, seeded_a)

    def test_embedded_plus_seeded_lists_digest(self):
        lists = self._lists()
        assert sum(len(parsed.rules) for parsed in lists) > 2000
        data = dumps_artifact(FilterMatcher.from_lists(*lists), lists)
        assert hashlib.sha256(data).hexdigest() == self.GOLDEN_SHA256
