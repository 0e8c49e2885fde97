"""Compiled oracle artifacts: build the matcher once, map it anywhere.

Parsing EasyList-scale text and constructing the token/host indexes is the
dominant cost of getting an oracle ready — and before this module, every
consumer paid it: each parallel shard worker, every service cold-start,
every hot reload.  A *compiled artifact* (``.tsoracle``) stores one
payload, the flat oracle *image* of a fully built
:class:`~repro.filterlists.matcher.FilterMatcher`
(:mod:`repro.filterlists.image` documents the layout): sorted key
directories, bucket spans, the source line of every rule and the list
provenance.  :func:`open_image` maps it read-only and answers decisions
straight from the map, so loading skips parsing and index construction,
and N processes that open one artifact share a single page-cache copy of
its rule data (``benchmarks/bench_artifacts.py`` gates readiness and the
per-worker memory).

On-disk layout (all integers big-endian)::

    MAGIC (8)  "TSORACLE"
    version    u16     ARTIFACT_VERSION
    meta_len   u32     length of the JSON metadata block
    image_len  u64     length of the oracle image
    sha256     32      digest over metadata + image
    meta       JSON    {"rule_count", "lists", "revision", "format",
                        "version", "automaton_keys", "unsupported",
                        "unsupported_rules", "image_bytes"}
    image      binary  flat oracle image (see repro.filterlists.image)

Every open verifies magic, version, lengths and checksum before the image
is touched, so a truncated or damaged artifact (or one written by a
different format version) is rejected with :class:`ArtifactError`
instead of being half-loaded.  The checksum guards against accidents, not
adversaries — anyone can recompute it — so the image itself is parsed as
untrusted data: its header and table shapes are checked on open, every
range and line inside it before first use, and bad content surfaces as
:class:`ArtifactError`, never as a raw decoding error mid-request.  The artifact holds no executable
serialization, only data.
"""

from __future__ import annotations

import gc
import hashlib
import json
import struct
from pathlib import Path

from ..durable import atomic_write_bytes
from ..obs.trace import span
from .cache import CachedMatcher
from .image import ArtifactError, ImageMatcher, build_image
from .matcher import FilterMatcher
from .parser import ParsedList

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactError",
    "dumps_artifact",
    "compile_matcher",
    "compile_lists",
    "open_image",
    "read_artifact_meta",
]

MAGIC = b"TSORACLE"
# Version history:
#   1 — token/host-bucket matcher, lazy per-rule regexes.
#   2 — matcher carries its TokenAutomaton and per-reason
#       unsupported-rule accounting.
#   3 — appends the mmap-ready oracle image next to the serialized
#       matcher.
#   4 — the image is the only payload (it gains list provenance and the
#       automaton key count); the header drops the payload length.
# Artifacts of any other version are rejected loudly — recompile from
# list text.
ARTIFACT_VERSION = 4
_HEADER = struct.Struct(">8sHIQ32s")
# Magic + version prefix, validated before the full header so an
# old-format artifact (whose header is a different size) reports a
# version mismatch instead of a confusing truncation error.
_PREFIX = struct.Struct(">8sH")


def _encode(
    matcher: FilterMatcher | ImageMatcher | CachedMatcher,
    lists: tuple[ParsedList, ...],
) -> tuple[bytes, dict]:
    """Encode a built matcher; returns ``(artifact bytes, metadata)``.

    An :class:`ImageMatcher` re-emits its image unchanged — provenance
    included — so an oracle opened from an artifact can be recompiled
    (e.g. for fan-out workers) without a matcher ever being rebuilt."""
    plain = matcher.wrapped if isinstance(matcher, CachedMatcher) else matcher
    if isinstance(plain, ImageMatcher):
        image = plain.image_bytes()
    else:
        image = build_image(plain, tuple(lists))
    meta = {
        "format": "tsoracle",
        "version": ARTIFACT_VERSION,
        "rule_count": plain.rule_count,
        "lists": list(plain.list_names),
        "revision": plain.revision,
        "automaton_keys": plain.automaton.vocabulary_size,
        "unsupported": plain.unsupported_counts,
        "unsupported_rules": plain.unsupported_rule_count,
        "image_bytes": len(image),
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(meta_bytes + image).digest()
    header = _HEADER.pack(
        MAGIC, ARTIFACT_VERSION, len(meta_bytes), len(image), digest
    )
    return header + meta_bytes + image, meta


def dumps_artifact(
    matcher: FilterMatcher | ImageMatcher | CachedMatcher,
    lists: tuple[ParsedList, ...] = (),
) -> bytes:
    """Encode a built matcher (and optional list provenance) to bytes."""
    return _encode(matcher, lists)[0]


def _read_header(data) -> tuple[int, bytes]:
    """Validate magic/version/lengths; returns ``(meta_len, digest)``.
    Magic and version are checked before the full header is unpacked, so
    an artifact written by another format version (whose header has a
    different size) is reported as a version mismatch, never as
    truncation."""
    if len(data) < _PREFIX.size:
        raise ArtifactError(
            f"artifact truncated: {len(data)} bytes is shorter than the "
            f"{_PREFIX.size}-byte magic/version prefix"
        )
    magic, version = _PREFIX.unpack_from(data)
    if magic != MAGIC:
        raise ArtifactError(
            f"not a .tsoracle artifact (bad magic {magic!r})"
        )
    if version != ARTIFACT_VERSION:
        raise ArtifactError(
            f"artifact format version {version} is not the supported "
            f"version {ARTIFACT_VERSION}; recompile from list text"
        )
    if len(data) < _HEADER.size:
        raise ArtifactError(
            f"artifact truncated: {len(data)} bytes is shorter than the "
            f"{_HEADER.size}-byte header"
        )
    _, _, meta_len, image_len, digest = _HEADER.unpack_from(data)
    expected = _HEADER.size + meta_len + image_len
    if len(data) != expected:
        raise ArtifactError(
            f"artifact truncated or padded: header promises {expected} "
            f"bytes, file holds {len(data)}"
        )
    return meta_len, digest


def _verified_sections(data) -> tuple[bytes, "memoryview"]:
    """Checksum-validated ``(meta bytes, image view)``."""
    meta_len, digest = _read_header(data)
    # A view, not a copy: hashing and the image both accept buffers, and
    # a list-scale artifact is megabytes.
    body = memoryview(data)[_HEADER.size :]
    if hashlib.sha256(body).digest() != digest:
        raise ArtifactError(
            "artifact checksum mismatch: content was corrupted after compile"
        )
    return bytes(body[:meta_len]), body[meta_len:]


def compile_matcher(
    matcher: FilterMatcher | ImageMatcher | CachedMatcher,
    path: str | Path,
    lists: tuple[ParsedList, ...] = (),
) -> dict:
    """Write a built matcher to ``path`` atomically and durably;
    returns the metadata.  ``lists`` is the provenance to store; an
    :class:`ImageMatcher` carries its own and is re-emitted unchanged."""
    with span("artifact.compile", path=str(path)):
        data, meta = _encode(matcher, lists)
        atomic_write_bytes(Path(path), data)
    meta["bytes"] = len(data)
    return meta


def compile_lists(path: str | Path, *lists: ParsedList) -> dict:
    """Build a matcher from parsed lists and compile it with provenance.

    This is the ``trackersift compile`` entry point: the stored lists are
    what a serving-layer reload diffs churn against.  Index building runs
    in an ``artifact.index`` span, encoding in ``artifact.compile``.

    The cyclic collector is paused for the call and left as it was
    found: the index and the encode build only acyclic containers
    (rule lists, key dicts, byte tables), which reference counting
    frees, yet their allocations would trigger dozens of collections
    that each traverse every rule of the lists.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with span("artifact.index", path=str(path)):
            matcher = FilterMatcher.from_lists(*lists)
        return compile_matcher(matcher, path, lists=tuple(lists))
    finally:
        if enabled:
            gc.enable()


def open_image(path: str | Path) -> ImageMatcher:
    """Map an artifact's oracle image read-only and return its matcher.

    The one way to load an artifact: the file is ``mmap``-ed (never read
    into a private buffer), the whole-artifact checksum is verified over
    the map — faulting the pages into the kernel page cache, where every
    process mapping the same file shares them — and the image section is
    handed to :class:`~repro.filterlists.image.ImageMatcher`.  Rule data
    stays in the shared map; each process privately holds only the bucket
    directory skeleton and whatever rules its traffic materializes.
    Raises :class:`ArtifactError` for a missing, truncated, corrupt,
    version-mismatched or malformed artifact.
    """
    import mmap

    path = Path(path)
    with span("artifact.map", path=str(path)):
        try:
            handle = open(path, "rb")
        except OSError as error:
            raise ArtifactError(f"cannot read artifact {path}: {error}") from error
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # mmap refuses an empty file
            handle.close()
            raise ArtifactError(f"artifact truncated: {path} is empty") from None
        except OSError as error:
            handle.close()
            raise ArtifactError(f"cannot map artifact {path}: {error}") from error
        try:
            data = memoryview(mapped)
            _, image = _verified_sections(data)
            # Closers run in order on ImageMatcher.close(): parent view
            # first (exported sub-views are dropped by the matcher
            # itself), then the map, then the file.
            return ImageMatcher(
                image, closers=(data.release, mapped.close, handle.close)
            )
        except BaseException:
            # Error path: close only the file handle eagerly.  The map
            # (and any buffer views a partially-built matcher exported) is
            # released by garbage collection — mmap.close() would raise
            # BufferError while traceback frames keep those views alive.
            handle.close()
            raise


def read_artifact_meta(path: str | Path) -> dict:
    """Header introspection without opening the image.

    Cheap enough for tooling (``trackersift compile`` prints it); the
    checksum is still verified so a corrupt file never reports healthy
    metadata.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as error:
        raise ArtifactError(f"cannot read artifact {path}: {error}") from error
    meta_bytes, _ = _verified_sections(data)
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except ValueError as error:
        raise ArtifactError(f"artifact metadata is malformed: {error}") from None
    meta["bytes"] = len(data)
    return meta
