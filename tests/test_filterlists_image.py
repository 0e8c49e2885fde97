"""The memory-mapped oracle image: fidelity, tampering, shared opens.

Proof obligations for ``repro.filterlists.image`` and the v4 artifact's
image payload:

* an :class:`ImageMatcher` over ``build_image(matcher)`` is
  observationally identical to the matcher it was built from — same
  verdicts *and* same winning rule/list attribution — while
  materializing only the rules traffic actually touches;
* artifacts of older versions are refused with a message naming both
  versions (operators must learn "recompile", not "corrupt file");
* every way the mapped image can be wrong — flipped bytes anywhere in
  the file, truncation at any section boundary, section offsets pointing
  outside the body, inconsistent rule tables — is rejected with
  :class:`ArtifactError` before any rule is trusted;
* a *checksum-valid* hostile image (any byte of any section mutated, the
  sha256 recomputed) either refuses to open, refuses a decision with
  :class:`ArtifactError`, or decides — never a raw decoding or struct
  error mid-request;
* N processes can ``open_image`` the same artifact concurrently and
  agree on every decision (the property multi-worker serving rests on).
"""

import hashlib
import json
import multiprocessing
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filterlists.compile import (
    _HEADER,
    ARTIFACT_VERSION,
    MAGIC,
    ArtifactError,
    compile_lists,
    dumps_artifact,
    open_image,
    read_artifact_meta,
)
from repro.filterlists.image import ImageMatcher, build_image
from repro.filterlists.matcher import FilterMatcher
from repro.filterlists.parser import parse_filter_list
from repro.filterlists.rules import RequestContext

LIST_TEXT = """\
||tracker.example^
||ads.example^$third-party
/pixel/*
-banner-$image
@@||cdn.example^$script
|https://exact.example/path|
||deep.example/sub/path^$domain=site.example|~other.example
"""

URLS = [
    "https://tracker.example/a.js",
    "https://sub.tracker.example/pixel/1.gif",
    "https://ads.example/banner.png",
    "https://cdn.example/lib.js",
    "https://exact.example/path",
    "https://other.example/clean",
    "https://deep.example/sub/path/x",
    "https://x.y/-banner-ad.png",
]


def _matcher() -> FilterMatcher:
    return FilterMatcher.from_text(LIST_TEXT, name="unit")


def _image_matcher() -> ImageMatcher:
    return ImageMatcher(memoryview(build_image(_matcher())))


# -- round trip ---------------------------------------------------------------


class TestRoundTrip:
    def test_identical_verdicts_and_attribution(self):
        plain = _matcher()
        image = _image_matcher()
        for url in URLS:
            for page_host in ("", "site.example", "other.example"):
                context = RequestContext(url=url, page_host=page_host)
                a, b = plain.match(context), image.match(context)
                assert a.blocked == b.blocked, (url, page)
                assert (a.rule.text if a.rule else None) == (
                    b.rule.text if b.rule else None
                )
                assert (a.rule.list_name if a.rule else None) == (
                    b.rule.list_name if b.rule else None
                )
                assert (a.exception.text if a.exception else None) == (
                    b.exception.text if b.exception else None
                )

    def test_decide_many_identical(self):
        plain = _matcher()
        image = _image_matcher()
        ours = image.decide_many(URLS * 3)
        theirs = plain.decide_many(URLS * 3)
        assert [r.blocked for r in ours] == [r.blocked for r in theirs]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.builds(lambda h: f"||{h}^", st.sampled_from(
                    ["tracker.example", "ads.example", "x.y"]
                )),
                st.builds(
                    lambda t: f"/{t}/*",
                    st.text(alphabet="abcxyz09", min_size=1, max_size=8),
                ),
                st.builds(lambda h: f"@@||{h}^$script", st.sampled_from(
                    ["cdn.example", "tracker.example"]
                )),
            ),
            max_size=10,
        ),
        st.lists(
            st.builds(
                lambda h, p: f"https://{h}/{p}",
                st.sampled_from(
                    ["tracker.example", "cdn.example", "x.y", "other.example"]
                ),
                st.text(
                    alphabet="abcdefghijklmnopqrstuvwxyz0123456789/-._",
                    max_size=20,
                ),
            ),
            max_size=12,
        ),
    )
    def test_property_image_matches_like_source(self, lines, urls):
        plain = FilterMatcher.from_text("\n".join(lines), name="gen")
        image = ImageMatcher(memoryview(build_image(plain)))
        for url in urls:
            context = RequestContext(url=url)
            assert image.match(context).blocked == plain.match(context).blocked

    def test_rules_materialize_lazily(self):
        image = _image_matcher()
        assert image.materialized_rule_count == 0
        image.decide_many(["https://tracker.example/a.js"])
        touched = image.materialized_rule_count
        assert 0 < touched < image.rule_count

    def test_metadata_mirrors_source(self):
        plain, image = _matcher(), _image_matcher()
        assert image.rule_count == plain.rule_count
        assert image.list_names == plain.list_names
        assert image.unsupported_counts == plain.unsupported_counts
        assert image.domain_sensitive == plain.domain_sensitive

    def test_image_is_immutable_and_unpicklable(self):
        image = _image_matcher()
        with pytest.raises(ArtifactError, match="immutable"):
            image.add_list(parse_filter_list("||new.example^", name="late"))
        with pytest.raises(TypeError, match="open_image"):
            pickle.dumps(image)

    def test_close_is_idempotent_and_fatal(self):
        image = _image_matcher()
        image.close()
        image.close()
        assert image.closed
        with pytest.raises(ArtifactError, match="closed"):
            image.decide_many(["https://tracker.example/a.js"])


# -- version rejection --------------------------------------------------------


class TestVersionRejection:
    def test_v2_artifact_names_both_versions(self, tmp_path):
        # A v2 file has a *shorter* header struct; only the magic+version
        # prefix is stable across formats, and the error must say
        # "recompile", not "truncated".
        path = tmp_path / "old.tsoracle"
        path.write_bytes(struct.pack(">8sH", MAGIC, 2) + b"\x00" * 64)
        with pytest.raises(
            ArtifactError,
            match=f"version 2 is not the supported version {ARTIFACT_VERSION}",
        ):
            open_image(path)
        with pytest.raises(ArtifactError, match="recompile"):
            read_artifact_meta(path)

    def test_v3_artifact_rejected_with_recompile(self, tmp_path):
        # A v3 file: the header carries a pickled-payload length next to
        # the image length.  It must read as "recompile", not corruption.
        meta, payload, image = b"{}", b"payload", build_image(_matcher())
        v3_header = struct.Struct(">8sHIQQ32s")
        digest = hashlib.sha256(meta + payload + image).digest()
        path = tmp_path / "v3.tsoracle"
        path.write_bytes(
            v3_header.pack(MAGIC, 3, len(meta), len(payload), len(image), digest)
            + meta
            + payload
            + image
        )
        for load in (open_image, read_artifact_meta):
            with pytest.raises(
                ArtifactError, match="version 3 is not the supported.*recompile"
            ):
                load(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.tsoracle"
        path.write_bytes(
            struct.pack(">8sH", MAGIC, ARTIFACT_VERSION + 1) + b"\x00" * 64
        )
        with pytest.raises(ArtifactError, match="not the supported version"):
            open_image(path)


# -- tamper / truncation matrix ----------------------------------------------


def _compiled(tmp_path):
    path = tmp_path / "unit.tsoracle"
    compile_lists(path, parse_filter_list(LIST_TEXT, name="unit"))
    return path


class TestTamperMatrix:
    @pytest.mark.parametrize(
        "where",
        ["header", "meta", "payload", "image_head", "image_mid", "image_tail"],
    )
    def test_flipped_byte_rejected(self, tmp_path, where):
        path = _compiled(tmp_path)
        data = bytearray(path.read_bytes())
        offsets = {
            "header": 10,                     # inside the fixed header
            "meta": 60,                       # inside the JSON metadata
            "payload": len(data) // 2,        # inside pickle or image
            "image_head": len(data) - 400,
            "image_mid": len(data) - 200,
            "image_tail": len(data) - 1,
        }
        data[offsets[where]] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactError):
            open_image(path)

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.25, 0.5, 0.9, 0.999])
    def test_truncation_rejected(self, tmp_path, keep_fraction):
        path = _compiled(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: int(len(data) * keep_fraction)])
        with pytest.raises(ArtifactError):
            open_image(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = _compiled(tmp_path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(ArtifactError):
            open_image(path)

    def test_artifact_without_image_section_rejected(self, tmp_path):
        # A structurally valid file whose image_len is zero (e.g. a
        # hand-rolled artifact) must not open as an image.
        path = tmp_path / "flat.tsoracle"
        meta = json.dumps({"version": ARTIFACT_VERSION}).encode()
        digest = hashlib.sha256(meta).digest()
        path.write_bytes(
            _HEADER.pack(MAGIC, ARTIFACT_VERSION, len(meta), 0, digest) + meta
        )
        with pytest.raises(ArtifactError, match="image"):
            open_image(path)

    @pytest.mark.parametrize(
        "section",
        [
            "rule_ids",
            "line_offsets",
            "line_blob",
            "rule_lists",
            "blocking_hosts",
            "blocking_buckets",
            "exceptions_hosts",
            "exceptions_buckets",
            "digit_hosts",
            "provenance",
        ],
    )
    def test_section_offsets_outside_body_rejected(self, section):
        # Bounds are validated from the parsed header, independent of the
        # file checksum — a bad compiler must not become a worker crash.
        image = bytearray(build_image(_matcher()))
        (header_len,) = struct.unpack_from(">I", image)
        header = json.loads(bytes(image[4 : 4 + header_len]).decode())
        header["sections"][section][0] = 1 << 30
        new_header = json.dumps(header, sort_keys=True).encode()
        rebuilt = struct.pack(">I", len(new_header)) + new_header + bytes(
            image[4 + header_len :]
        )
        with pytest.raises(ArtifactError, match="section"):
            ImageMatcher(memoryview(rebuilt))

    def test_inconsistent_rule_tables_rejected(self):
        image = bytearray(build_image(_matcher()))
        (header_len,) = struct.unpack_from(">I", image)
        header = json.loads(bytes(image[4 : 4 + header_len]).decode())
        header["rule_count"] += 1  # tables no longer match the count
        new_header = json.dumps(header, sort_keys=True).encode()
        rebuilt = struct.pack(">I", len(new_header)) + new_header + bytes(
            image[4 + header_len :]
        )
        with pytest.raises(ArtifactError):
            ImageMatcher(memoryview(rebuilt))


# -- hostile images: checksum-valid, content mutated -------------------------

HOSTILE_TEXT = LIST_TEXT + "/ad*\n^\n/re\\d/\n||tracker.example^\n@@||deep.example^\n"


def _hostile_image() -> bytes:
    extra = parse_filter_list("||x.y^\n||cdn9.example/v2/^", name="second")
    parsed = parse_filter_list(HOSTILE_TEXT, name="unit")
    return build_image(FilterMatcher.from_lists(parsed, extra), (parsed, extra))


def _image_regions(image: bytes) -> dict[str, tuple[int, int]]:
    """``name -> (start, end)`` of the JSON header and every section."""
    (header_len,) = struct.unpack_from(">I", image)
    base = 4 + header_len
    header = json.loads(image[4:base].decode())
    regions = {"header": (4, base)}
    for name, (offset, length) in header["sections"].items():
        if length:
            regions[name] = (base + offset, base + offset + length)
    return regions


_HOSTILE = _hostile_image()
_REGIONS = _image_regions(_HOSTILE)


def _artifact_over(image: bytes) -> bytes:
    """A v4 container around ``image`` with a *recomputed* checksum."""
    meta = b"{}"
    digest = hashlib.sha256(meta + image).digest()
    return _HEADER.pack(MAGIC, ARTIFACT_VERSION, len(meta), len(image), digest) + meta + image


class TestHostileImages:
    def test_regions_cover_every_section(self):
        assert set(_REGIONS) >= {"header", "rule_ids", "line_blob", "provenance",
                                 "digit_hosts", "rule_lists", "line_offsets"}

    def _decide_all(self, image: bytes, tmp_path) -> None:
        path = tmp_path / "hostile.tsoracle"
        path.write_bytes(_artifact_over(image))
        open_image(path).decide_many(URLS)

    def test_out_of_range_rule_id_is_an_artifact_error(self, tmp_path):
        image = bytearray(_HOSTILE)
        for start in range(*_REGIONS["rule_ids"], 4):
            image[start : start + 4] = struct.pack(">I", 999)
        with pytest.raises(ArtifactError, match="outside"):
            self._decide_all(bytes(image), tmp_path)

    def test_out_of_range_list_pool_index_is_an_artifact_error(self, tmp_path):
        image = bytearray(_HOSTILE)
        for start in range(*_REGIONS["rule_lists"], 2):
            image[start : start + 2] = struct.pack(">H", 999)
        with pytest.raises(ArtifactError, match="list pool"):
            self._decide_all(bytes(image), tmp_path)

    def test_span_past_rule_ids_is_an_artifact_error(self, tmp_path):
        # Point every host-table span far past the rule-id table.
        image = bytearray(_HOSTILE)
        start, _ = _REGIONS["blocking_hosts"]
        (count,) = struct.unpack_from(">I", image, start)
        spans = start + 4 + 4 * (count + 1)
        for at in range(spans, spans + 8 * count, 8):
            image[at : at + 4] = struct.pack(">I", 1 << 20)
        with pytest.raises(ArtifactError, match="span"):
            self._decide_all(bytes(image), tmp_path)

    def test_non_utf8_rule_line_is_an_artifact_error(self, tmp_path):
        start, end = _REGIONS["line_blob"]
        image = bytearray(_HOSTILE)
        image[start:end] = b"\xff" * (end - start)
        path = tmp_path / "utf8.tsoracle"
        path.write_bytes(_artifact_over(bytes(image)))
        matcher = open_image(path)
        with pytest.raises(ArtifactError, match="UTF-8"):
            matcher.decide_many(URLS)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_image_errors_cleanly_or_decides(self, tmp_path_factory, data):
        region = data.draw(st.sampled_from(sorted(_REGIONS)))
        start, end = _REGIONS[region]
        offset = data.draw(st.integers(start, end - 1))
        flip = data.draw(st.integers(1, 255))
        image = bytearray(_HOSTILE)
        image[offset] ^= flip
        path = tmp_path_factory.mktemp("hostile") / "mutated.tsoracle"
        path.write_bytes(_artifact_over(bytes(image)))
        try:
            matcher = open_image(path)
        except ArtifactError:
            return
        try:
            for url in URLS:
                for page_host in ("", "site.example"):
                    matcher.match(RequestContext(url=url, page_host=page_host))
                matcher.digit_runs_irrelevant_for(url)
            matcher.decide_many(URLS)
            matcher.rule_lines()
        except ArtifactError:
            pass
        finally:
            matcher.close()


# -- concurrent multi-process open -------------------------------------------


def _decide_in_child(path, urls, queue) -> None:
    matcher = open_image(path)
    results = [
        (r.blocked, r.rule.text if r.rule else None)
        for r in matcher.decide_many(urls)
    ]
    matcher.close()
    queue.put(results)


class TestConcurrentOpen:
    def test_three_processes_agree_with_parent(self, tmp_path):
        path = _compiled(tmp_path)
        parent = open_image(path)
        expected = [
            (r.blocked, r.rule.text if r.rule else None)
            for r in parent.decide_many(URLS)
        ]
        parent.close()
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        children = [
            context.Process(target=_decide_in_child, args=(path, URLS, queue))
            for _ in range(3)
        ]
        for child in children:
            child.start()
        results = [queue.get(timeout=30) for _ in children]
        for child in children:
            child.join(timeout=30)
            assert child.exitcode == 0
        assert all(result == expected for result in results)
