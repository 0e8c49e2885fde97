"""Memory-mapped oracle images: the one compiled form of an oracle.

A compiled ``.tsoracle`` artifact (format version 4 — see
:mod:`repro.filterlists.compile`) carries exactly one payload: a flat
*image* of a built matcher, designed to be consumed through a read-only
``mmap``.  Rule *data* (source lines, bucket membership, list provenance)
**and the bucket directories themselves** live in the artifact file;
every process that opens it maps it read-only, and the kernel's page
cache keeps one physical copy no matter how many processes map it.  Per
process, only a thin skeleton is private:

* the :class:`~repro.filterlists.matcher.TokenAutomaton` vocabulary
  (derived from the directory keys, so it scans the same language as the
  automaton of the matcher the image was built from): host keys are
  probed in the map, token keys decoded into one set on first use,
* a per-key cache of materialized buckets — key lookups bisect the
  sorted key tables *in the mapped file* (no per-process ``dict`` of
  12K span entries, no JSON-decoded directory: decoding one in every
  worker was measured to dirty ~3 MB of private arena pages per
  process for a 12K-rule oracle, most of the cost this layout exists
  to avoid),
* and a lazily-populated cache of :class:`NetworkRule` objects,
  materialized per bucket on first traffic by re-parsing the stored rule
  line with :func:`repro.filterlists.parser.parse_rule_line`.

Cold RSS per additional worker is therefore the skeleton, not the oracle
(``benchmarks/bench_artifacts.py`` gates it below 25% of a matcher built
from list text), and a process that only ever sees a slice of the URL
space only ever materializes the buckets that slice touches.

Image layout (offsets relative to the image section; integers
big-endian)::

    header_len  u32
    header      JSON   {"rule_count", "line_count", "revision", "lists",
                        "list_pool", "automaton_keys", "domain_sensitive",
                        "digit_anywhere", "unsupported", "unsupported_rules",
                        "blocking", "exceptions", "provenance", "sections"}
    sections    binary rule_ids          u32[total bucket entries]
                       line_offsets      u32[line_count + 1]
                       line_blob         utf-8 rule lines, concatenated
                       rule_lists        u16[rule_count] (→ list_pool)
                       blocking_hosts    key table (below)
                       blocking_buckets  key table
                       exceptions_hosts  key table
                       exceptions_buckets key table
                       digit_hosts       utf-8 hosts, newline-joined
                       provenance        u32[parsed rules] (→ lines)

Lines ``0 .. rule_count-1`` are the indexed rules; the lines after them
are provenance-only text (unsupported rules, and any parsed line no
indexed rule carries).  ``provenance`` in the JSON header holds one
``[list name, start, count]`` span per compiled list into the
``provenance`` section, in list order: every parsed rule line of every
list, unsupported and duplicate lines included, so a reload can diff rule
churn from the image exactly as :func:`~repro.filterlists.maintenance.
diff_lists` diffs parsed lists.  Nothing decodes it on open or on the
decision path; only :meth:`ImageMatcher.rule_lines` does.

Each *key table* is a bisectable directory mapping key → ``[start,
count]`` span into ``rule_ids``, kept entirely inside the map::

    count        u32
    key_offsets  u32[count + 1]   (into key_blob)
    spans        u32[2 * count]   (start, count — key_offsets order)
    key_blob     utf-8 keys, concatenated, bytewise-sorted

Keys are stored bytewise-sorted; UTF-8 byte order equals code-point
order, so a binary search over encoded probe keys is exact.

``blocking`` / ``exceptions`` in the JSON header carry only what cannot
stay in the map: the ``catch_all`` span and the tier's ``rules`` /
``host_rules`` totals.  :class:`ImageMatcher` walks hosts, catch-all,
then token buckets in the exact candidate order the in-memory
:class:`~repro.filterlists.matcher._RuleIndex` uses, and decides through
the same shared decision loop, so decisions *and rule attribution* are
bit-identical to the matcher the image was built from
(``tests/test_filterlists_image.py`` holds the two together).  Section
offsets in ``sections`` are relative to the first byte after the header.

**Untrusted input.**  A checksum proves only that the bytes were not
damaged in transit — anyone can recompute a sha256 — so an image is
validated as hostile input.  The header and every table shape it
declares are checked at open; the ranges stored inside the tables
(bucket spans, rule ids, list-pool indexes) are checked where a
decision first reads them, once per bucket or rule as it materializes,
so opening stays independent of the oracle's size.  Text that fails to
decode or re-parse raises :class:`ArtifactError` the same way: a mapped
image either refuses to open, refuses a decision with ``ArtifactError``,
or decides — never a raw decoding or struct error mid-request.

Build with :func:`build_image` (called by the compiler), consume with
:func:`repro.filterlists.compile.open_image`, which validates the
artifact checksum before handing the mapped section to
:class:`ImageMatcher`.
"""

from __future__ import annotations

import json
import struct
from itertools import accumulate, chain
from typing import Iterable

from .matcher import (
    _DecisionLoop,
    _URL_RUN_RE,
    FilterMatcher,
    RequestShape,
    TokenAutomaton,
)
from .parser import ParsedList, parse_rule_line
from .rules import NetworkRule, RequestContext, RuleParseError

__all__ = ["ArtifactError", "build_image", "ImageMatcher"]

_U32 = struct.Struct(">I")
_U32X2 = struct.Struct(">2I")
_SECTION_ORDER = (
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
)
_KEY_TABLES = (
    "blocking_hosts",
    "blocking_buckets",
    "exceptions_hosts",
    "exceptions_buckets",
)
_UNPROBED = object()  # cache sentinel: key never looked up in the map yet


class ArtifactError(ValueError):
    """A ``.tsoracle`` artifact or its oracle image failed validation
    (magic, version, truncation, checksum, malformed or out-of-range
    content) or carries the wrong content for the caller."""


def _pack(code: str, values: Iterable[int]) -> bytes:
    values = tuple(values)
    return struct.pack(f">{len(values)}{code}", *values)


def _blob(encoded: list[bytes]) -> tuple[bytes, list[int]]:
    """Concatenated byte strings and their ``len + 1`` boundary offsets."""
    return b"".join(encoded), [0, *accumulate(map(len, encoded))]


def _key_table(spans: dict[str, tuple[int, int]]) -> bytes:
    # Bytewise-sorted keys: UTF-8 byte order equals code-point order, so
    # ImageMatcher's encoded-probe bisect is exact.
    keys = sorted(spans)
    blob, offsets = _blob([key.encode("utf-8") for key in keys])
    flat = chain.from_iterable(map(spans.__getitem__, keys))
    return _U32.pack(len(keys)) + _pack("I", offsets) + _pack("I", flat) + blob


def build_image(matcher: FilterMatcher, lists: tuple[ParsedList, ...] = ()) -> bytes:
    """Encode a built matcher's index skeleton + rule lines as an image.

    ``lists`` is the list provenance to store (every parsed rule line,
    per list, in order) — what a serving reload diffs churn against.

    Every indexed rule must round-trip through
    :func:`~repro.filterlists.parser.parse_rule_line` — the image stores
    source lines, not objects, so lazy materialization re-parses them.
    The parser marks each rule it builds as round-tripping by
    construction, so only unmarked rules are re-parsed here: those
    constructed programmatically, or rebuilt by pickle or copy.  One whose
    ``text`` does not re-parse to the same rule is rejected at compile
    time rather than silently drifting at serve time.
    """
    # Every bucket in directory order — hosts, token buckets, catch-all;
    # blocking tier, then exceptions — concatenated into one sequence.  A
    # bucket's span is its offset and length in that sequence.
    ordered: list[NetworkRule] = []

    def directory(buckets: dict[str, list]) -> dict[str, tuple[int, int]]:
        counts = list(map(len, buckets.values()))
        starts = accumulate(counts[:-1], initial=len(ordered))
        ordered.extend(chain.from_iterable(buckets.values()))
        return dict(zip(buckets, zip(starts, counts)))

    def tier(index) -> tuple[dict, dict, list[int]]:
        hosts = directory(index._hosts)
        buckets = directory(index._buckets)
        catch_all = [len(ordered), len(index._catch_all)]
        ordered.extend(index._catch_all)
        return hosts, buckets, catch_all

    blocking_hosts, blocking_buckets, blocking_catch_all = tier(matcher._blocking)
    exceptions_hosts, exceptions_buckets, exceptions_catch_all = tier(
        matcher._exceptions
    )

    # Rules are stored once each, in first-seen order; a rule object
    # indexed twice (the same list added twice) keeps one id.
    unique = {id(rule): rule for rule in ordered}
    rules = list(unique.values())
    if len(rules) == len(ordered):
        ids: Iterable[int] = range(len(ordered))
    else:
        position = {key: index for index, key in enumerate(unique)}
        ids = [position[id(rule)] for rule in ordered]
    for rule in rules:
        if not rule._parsed and parse_rule_line(rule.text, rule.list_name) != rule:
            raise ArtifactError(
                f"rule {rule.text!r} does not round-trip through the "
                "parser; oracle images store source lines and cannot "
                "carry it — compile from parsed list text"
            )

    names = [rule.list_name for rule in rules]
    list_pool = list(dict.fromkeys(names))
    if len(list_pool) > 0xFFFF:
        raise ArtifactError("oracle images support at most 65535 list names")
    pool_index = {name: index for index, name in enumerate(list_pool)}
    rule_lists = list(map(pool_index.__getitem__, names))

    # Provenance reuses the line of the first indexed rule carrying the
    # same text (hence the reversed walk) and appends provenance-only
    # lines after the indexed ones, in first-seen order.
    lines = [rule.text for rule in rules]
    line_ids = {text: index for index, text in reversed(list(enumerate(lines)))}
    provenance_ids: list[int] = []
    provenance: list[list] = []
    for parsed in lists:
        texts = [rule.text for rule in parsed.rules]
        for text in dict.fromkeys(texts):
            if text not in line_ids:
                line_ids[text] = len(lines)
                lines.append(text)
        provenance.append([parsed.name, len(provenance_ids), len(texts)])
        provenance_ids.extend(map(line_ids.__getitem__, texts))

    line_blob, line_offsets = _blob([text.encode("utf-8") for text in lines])

    sections = {
        "rule_ids": _pack("I", ids),
        "line_offsets": _pack("I", line_offsets),
        "line_blob": line_blob,
        "rule_lists": _pack("H", rule_lists),
        "blocking_hosts": _key_table(blocking_hosts),
        "blocking_buckets": _key_table(blocking_buckets),
        "exceptions_hosts": _key_table(exceptions_hosts),
        "exceptions_buckets": _key_table(exceptions_buckets),
        "digit_hosts": "\n".join(sorted(matcher._digit_hosts)).encode("utf-8"),
        "provenance": _pack("I", provenance_ids),
    }
    table: dict[str, list[int]] = {}
    offset = 0
    for name in _SECTION_ORDER:
        table[name] = [offset, len(sections[name])]
        offset += len(sections[name])

    header = {
        "rule_count": len(rules),
        "line_count": len(lines),
        "revision": matcher.revision,
        "lists": list(matcher.list_names),
        "list_pool": list_pool,
        "automaton_keys": matcher.automaton.vocabulary_size,
        "domain_sensitive": matcher._domain_sensitive,
        "digit_anywhere": matcher._digit_anywhere,
        "unsupported": matcher.unsupported_counts,
        "unsupported_rules": matcher.unsupported_rule_count,
        "blocking": {
            "catch_all": blocking_catch_all,
            "rules": len(matcher._blocking),
            "host_rules": matcher._blocking.host_rule_count,
        },
        "exceptions": {
            "catch_all": exceptions_catch_all,
            "rules": len(matcher._exceptions),
            "host_rules": matcher._exceptions.host_rule_count,
        },
        "provenance": provenance,
        "sections": table,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return (
        _U32.pack(len(header_bytes))
        + header_bytes
        + b"".join(sections[name] for name in _SECTION_ORDER)
    )


def _read_image_header(view) -> tuple[dict, int]:
    """The image's JSON header and the offset of its section body."""
    if len(view) < _U32.size:
        raise ArtifactError("oracle image truncated before its header")
    (header_len,) = _U32.unpack_from(view)
    base = _U32.size + header_len
    if len(view) < base:
        raise ArtifactError("oracle image truncated inside its header")
    try:
        header = json.loads(bytes(view[_U32.size : base]).decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise ArtifactError(f"oracle image header is malformed: {error}") from None
    if not isinstance(header, dict):
        raise ArtifactError("oracle image header is not a JSON object")
    return header, base


class _KeyTable:
    """A sorted key → span directory resolved *inside* the mapped file.

    Holds only three buffer views into the image (offsets, spans, key
    blob); a lookup encodes the probe key and bisects the blob, so the
    per-worker footprint of a 12K-entry directory is three memoryviews,
    not a 12K-entry dict.  UTF-8 byte order equals code-point order,
    which makes the encoded-probe comparison exact for any key the
    compiler can emit.
    """

    __slots__ = ("_count", "_offsets", "_spans", "_blob")

    def __init__(self, section) -> None:
        if len(section) < _U32.size:
            raise ArtifactError("oracle image key-table section truncated")
        (count,) = _U32.unpack_from(section)
        offsets_end = _U32.size + 4 * (count + 1)
        spans_end = offsets_end + 8 * count
        if len(section) < spans_end:
            raise ArtifactError(
                f"oracle image key-table section too short for {count} keys"
            )
        self._count = count
        self._offsets = section[_U32.size : offsets_end]
        self._spans = section[offsets_end:spans_end]
        self._blob = section[spans_end:]
        (blob_len,) = _U32.unpack_from(self._offsets, 4 * count)
        if blob_len != len(self._blob):
            raise ArtifactError(
                "oracle image key-table blob does not match its offsets"
            )

    def __len__(self) -> int:
        return self._count

    def _open_blob(self):
        blob = self._blob
        if blob is None:
            raise ArtifactError(
                "oracle image is closed; cannot materialize more rules"
            )
        return blob

    def lookup(self, key: str) -> tuple[int, int] | None:
        """The span for ``key``, or ``None`` — one bisect over the map."""
        blob = self._open_blob()
        probe = key.encode("utf-8")
        offsets = self._offsets
        lo, hi = 0, self._count
        while lo < hi:
            mid = (lo + hi) >> 1
            start, end = _U32X2.unpack_from(offsets, 4 * mid)
            current = bytes(blob[start:end])
            if current < probe:
                lo = mid + 1
            elif current > probe:
                hi = mid
            else:
                return _U32X2.unpack_from(self._spans, 8 * mid)
        return None

    def keys(self):
        """Decode every key (automaton vocabulary construction only)."""
        blob = self._open_blob()
        offsets = self._offsets
        for index in range(self._count):
            start, end = _U32X2.unpack_from(offsets, 4 * index)
            yield _decode(blob[start:end], "key")

    def close(self) -> None:
        self._offsets = self._spans = self._blob = None


def _decode(view, what: str) -> str:
    try:
        return bytes(view).decode("utf-8")
    except UnicodeDecodeError:
        raise ArtifactError(f"oracle image {what} is not valid UTF-8") from None


class _TableMembership:
    """``in``-only view over mapped key tables (the automaton host tier).

    :meth:`TokenAutomaton.scan` consults its host table exclusively via
    ``__contains__``; satisfying that with bisects over the map keeps the
    8K-entry host vocabulary out of every worker's private heap."""

    __slots__ = ("_tables",)

    def __init__(self, tables: tuple[_KeyTable, ...]) -> None:
        self._tables = tables

    def __contains__(self, key: str) -> bool:
        for table in self._tables:
            if table.lookup(key) is not None:
                return True
        return False


class _TokenSet:
    """The token tier as a set of decoded keys.

    Yields the maximal alphanumeric runs of a URL that are vocabulary
    tokens, in URL order — exactly the runs the in-memory automaton's
    trie regex matches whole, so ``scan`` returns the same tokens.
    Decoding a few thousand keys into a frozenset costs a fraction of
    compiling them into a trie regex, in time and in private memory
    (the regex compiler's transient parse tree leaves megabytes of
    dirtied allocator pages behind in every process that builds it).
    """

    __slots__ = ("_keys",)

    def __init__(self, keys: frozenset) -> None:
        self._keys = keys

    def findall(self, lowered_url: str) -> list[str]:
        keys = self._keys
        return [run for run in _URL_RUN_RE.findall(lowered_url) if run in keys]


class _MappedVocabulary(TokenAutomaton):
    """A :class:`TokenAutomaton` whose vocabulary stays in the map.

    Scans the same language as the automaton of the matcher the image was
    built from — the key tables hold exactly that vocabulary — but the
    host tier probes the mapped tables directly (no per-worker host
    strings at all) and the token tier is a :class:`_TokenSet` decoded
    on the first scan.  ``vocabulary_size`` is the compiler's count,
    carried in the image header.
    """

    __slots__ = ("_host_tables", "_token_tables", "_size")

    def __init__(
        self,
        host_tables: tuple[_KeyTable, ...],
        token_tables: tuple[_KeyTable, ...],
        size: int,
    ) -> None:
        TokenAutomaton.__init__(self)
        self._host_tables = host_tables
        self._token_tables = token_tables
        self._size = size

    def _compile(self) -> tuple:
        host_table = (
            _TableMembership(self._host_tables)
            if any(len(table) for table in self._host_tables)
            else None
        )
        tokens = frozenset(
            key for table in self._token_tables for key in table.keys()
        )
        self._scanners = (host_table, _TokenSet(tokens) if tokens else None)
        return self._scanners

    @property
    def vocabulary_size(self) -> int:
        return self._size

    def __getstate__(self) -> tuple:
        raise TypeError(
            "a mapped vocabulary is not picklable: it reads a process-local "
            "mmap; open_image() the artifact in the target process instead"
        )


class _ImageIndex:
    """One tier table of an image: mapped directories in, buckets out.

    Mirrors :class:`~repro.filterlists.matcher._RuleIndex` exactly —
    candidate order is host-directory hits in URL order (pattern
    prechecked by the key lookup), then catch-all, then token buckets in
    URL order, insertion order within a bucket — so attribution cannot
    drift between the in-memory and the mapped form of the same oracle.
    Key lookups bisect the mapped :class:`_KeyTable`; each probed key is
    cached (bucket tuple, or ``None`` for a miss) so steady-state
    traffic costs one dict hit, exactly like the in-memory index.  The
    key-space is the automaton vocabulary, so the caches are bounded.
    """

    __slots__ = (
        "_image",
        "_hosts",
        "_buckets",
        "_host_cache",
        "_bucket_cache",
        "_catch_all",
        "_count",
        "_host_rules",
    )

    def __init__(
        self,
        image: "ImageMatcher",
        spec: dict,
        hosts: _KeyTable,
        buckets: _KeyTable,
    ) -> None:
        self._image = image
        self._hosts = hosts
        self._buckets = buckets
        self._host_cache: dict = {}
        self._bucket_cache: dict = {}
        catch_all = [int(spec["catch_all"][0]), int(spec["catch_all"][1])]
        if min(catch_all) < 0:
            raise ArtifactError("oracle image catch-all span is negative")
        self._catch_all: object = catch_all
        self._count = int(spec["rules"])
        self._host_rules = int(spec["host_rules"])

    def __len__(self) -> int:
        return self._count

    @property
    def catch_all_empty(self) -> bool:
        catch_all = self._catch_all
        return (catch_all[1] if type(catch_all) is list else len(catch_all)) == 0

    @property
    def host_rule_count(self) -> int:
        return self._host_rules

    def _catch_all_rules(self) -> tuple:
        catch_all = self._catch_all
        if type(catch_all) is list:
            catch_all = self._image._span_rules(catch_all)
            self._catch_all = catch_all
        return catch_all

    def first_match(
        self, context: RequestContext, shape: RequestShape
    ) -> NetworkRule | None:
        cache = self._host_cache
        table = self._hosts
        image = self._image
        for key in shape.host_keys:
            bucket = cache.get(key, _UNPROBED)
            if bucket is _UNPROBED:
                span = table.lookup(key)
                bucket = None if span is None else image._span_rules(span)
                cache[key] = bucket
            if bucket is not None:
                for rule in bucket:
                    if rule.options.permits(context):
                        return rule
        for rule in self._catch_all_rules():
            if rule.matches(context):
                return rule
        cache = self._bucket_cache
        table = self._buckets
        for token in shape.tokens:
            bucket = cache.get(token, _UNPROBED)
            if bucket is _UNPROBED:
                span = table.lookup(token)
                bucket = None if span is None else image._span_rules(span)
                cache[token] = bucket
            if bucket is not None:
                for rule in bucket:
                    if rule.matches(context):
                        return rule
        return None

    def close(self) -> None:
        self._hosts.close()
        self._buckets.close()


class ImageMatcher(_DecisionLoop):
    """A matcher over a memory-mapped oracle image.

    Decision- and attribution-identical to the
    :class:`~repro.filterlists.matcher.FilterMatcher` the image was built
    from, but rules stay in the mapped file until traffic touches their
    bucket.  Duck-types the matcher protocol the serving stack consumes
    (:class:`~repro.filterlists.cache.CachedMatcher`,
    :meth:`~repro.filterlists.oracle.FilterListOracle.from_matcher`),
    with one deliberate exception: images are immutable, so
    ``add_list``/``add_rules`` raise — mutate list text and recompile.

    Construct via :func:`repro.filterlists.compile.open_image`, which
    validates the artifact checksum first; the matcher owns the map and
    releases it on :meth:`close` (or context-manager exit).
    """

    def __init__(self, view, *, closers: tuple = ()) -> None:
        self._closers = closers
        self._closed = False
        view = memoryview(view)
        header, base = _read_image_header(view)
        try:
            sections = header["sections"]
            body = view[base:]

            def section(name: str):
                return body[slice(*_section_bounds(sections[name], len(body)))]

            self._view = view
            self._rule_ids = section("rule_ids")
            self._line_offsets = section("line_offsets")
            self._line_blob = section("line_blob")
            self._rule_lists = section("rule_lists")
            self._digit_blob = section("digit_hosts")
            self._provenance_ids = section("provenance")
            self._rule_count = int(header["rule_count"])
            self._line_count = int(header["line_count"])
            self._revision = int(header["revision"])
            self._lists = tuple(header["lists"])
            self._list_pool = tuple(header["list_pool"])
            self._domain_sensitive = bool(header["domain_sensitive"])
            self._digit_anywhere = bool(header["digit_anywhere"])
            self._digit_hosts: tuple[str, ...] | None = None  # decoded lazily
            self._unsupported_counts = dict(header["unsupported"])
            self._unsupported_rules = int(header["unsupported_rules"])
            self._provenance = tuple(
                (str(name), int(start), int(count))
                for name, start, count in header["provenance"]
            )
            tables = {name: _KeyTable(section(name)) for name in _KEY_TABLES}
            self._blocking = _ImageIndex(
                self,
                header["blocking"],
                tables["blocking_hosts"],
                tables["blocking_buckets"],
            )
            self._exceptions = _ImageIndex(
                self,
                header["exceptions"],
                tables["exceptions_hosts"],
                tables["exceptions_buckets"],
            )
            automaton_keys = int(header["automaton_keys"])
        except ArtifactError:
            raise
        except (LookupError, TypeError, ValueError, OverflowError) as error:
            raise ArtifactError(f"oracle image header is malformed: {error}") from None
        self._validate_tables()
        self._rules: dict[int, NetworkRule] = {}
        self._automaton = _MappedVocabulary(
            host_tables=(self._blocking._hosts, self._exceptions._hosts),
            token_tables=(self._blocking._buckets, self._exceptions._buckets),
            size=automaton_keys,
        )

    def _validate_tables(self) -> None:
        """Check the table shapes the header declares, once, at open.

        Ranges stored *inside* the tables (bucket spans, rule ids, list
        indexes) are checked where a decision first reads them — once per
        bucket or rule, when it is materialized — so opening an image
        stays independent of its size."""
        rule_count, line_count = self._rule_count, self._line_count
        if not 0 <= rule_count <= line_count:
            raise ArtifactError(
                f"oracle image claims {rule_count} rules over {line_count} lines"
            )
        if len(self._line_offsets) != 4 * (line_count + 1):
            raise ArtifactError(
                "oracle image line-offset table does not cover its lines"
            )
        if len(self._rule_lists) != 2 * rule_count:
            raise ArtifactError(
                "oracle image list-provenance table does not cover its rules"
            )
        if len(self._rule_ids) % 4 or len(self._provenance_ids) % 4:
            raise ArtifactError("oracle image u32 table is not u32-aligned")
        for _, start, count in self._provenance:
            if start < 0 or count < 0 or 4 * (start + count) > len(self._provenance_ids):
                raise ArtifactError(
                    "oracle image provenance span escapes its table"
                )

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release the underlying map/file handles (idempotent).  Rules
        already materialized stay valid; further cold-bucket traffic on a
        closed image raises."""
        if self._closed:
            return
        self._closed = True
        # Drop buffer views before the mmap closes — an exported
        # memoryview keeps mmap.close() from releasing the map.
        self._view = self._rule_ids = self._line_offsets = None
        self._line_blob = self._rule_lists = None
        self._digit_blob = self._provenance_ids = None
        self._blocking.close()
        self._exceptions.close()
        for closer in self._closers:
            closer()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ArtifactError(
                "oracle image is closed; cannot materialize more rules"
            )

    def __enter__(self) -> "ImageMatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __reduce__(self):
        raise TypeError(
            "ImageMatcher is not picklable: it wraps a process-local mmap; "
            "ship the artifact path and open_image() it in the target process"
        )

    def image_bytes(self) -> bytes:
        """The image section, byte for byte (what a recompile re-emits)."""
        self._check_open()
        return bytes(self._view)

    # -- materialization ---------------------------------------------------
    def _span_rules(self, span) -> tuple[NetworkRule, ...]:
        self._check_open()
        start, count = span
        if 4 * (start + count) > len(self._rule_ids):
            raise ArtifactError(
                "oracle image bucket span escapes its rule-id table"
            )
        ids = struct.unpack_from(f">{count}I", self._rule_ids, 4 * start)
        rules = self._rules
        out = []
        for index in ids:
            rule = rules.get(index)
            if rule is None:
                rule = self._materialize(index)
                rules[index] = rule
            out.append(rule)
        return tuple(out)

    def _line(self, index: int) -> str:
        low, high = _U32X2.unpack_from(self._line_offsets, 4 * index)
        return _decode(self._line_blob[low:high], f"rule line {index}")

    def _materialize(self, index: int) -> NetworkRule:
        if index >= self._rule_count:
            raise ArtifactError(
                f"oracle image references rule {index} outside its "
                f"{self._rule_count}-rule table"
            )
        (pool,) = struct.unpack_from(">H", self._rule_lists, 2 * index)
        if pool >= len(self._list_pool):
            raise ArtifactError(
                f"oracle image rule {index} names list {pool} outside its list pool"
            )
        line = self._line(index)
        try:
            rule = parse_rule_line(line, self._list_pool[pool])
        except RuleParseError:
            rule = None
        if rule is None or not rule.supported:
            raise ArtifactError(
                f"oracle image rule {index} ({line!r}) no longer parses to "
                "a supported rule; the image is corrupt — recompile"
            )
        return rule

    def rule_lines(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """``(list name, every parsed rule line)`` per compiled list.

        The list provenance a reload diffs churn against, decoded from
        the map on demand — never on open or on the decision path.
        """
        self._check_open()
        lists = []
        for name, start, count in self._provenance:
            ids = struct.unpack_from(f">{count}I", self._provenance_ids, 4 * start)
            if max(ids, default=-1) >= self._line_count:
                raise ArtifactError("oracle image provenance names a missing line")
            lists.append((name, tuple(self._line(index) for index in ids)))
        return tuple(lists)

    # -- introspection (FilterMatcher protocol) ----------------------------
    @property
    def list_names(self) -> tuple[str, ...]:
        return self._lists

    @property
    def provenance_names(self) -> tuple[str, ...]:
        """Names of the compiled lists whose rule lines the image stores
        (empty for an image compiled without list provenance)."""
        return tuple(name for name, _, _ in self._provenance)

    @property
    def rule_count(self) -> int:
        return self._rule_count

    @property
    def materialized_rule_count(self) -> int:
        """How many rules traffic has pulled out of the map so far."""
        return len(self._rules)

    @property
    def revision(self) -> int:
        return self._revision

    @property
    def fast_path_rule_count(self) -> int:
        return (
            self._blocking.host_rule_count + self._exceptions.host_rule_count
        )

    @property
    def automaton(self) -> TokenAutomaton:
        return self._automaton

    @property
    def unsupported_counts(self) -> dict[str, int]:
        return dict(self._unsupported_counts)

    @property
    def unsupported_rule_count(self) -> int:
        return self._unsupported_rules

    @property
    def domain_sensitive(self) -> bool:
        return self._domain_sensitive

    def digit_runs_irrelevant_for(self, url: str) -> bool:
        if self._digit_anywhere:
            return False
        hosts = self._digit_hosts
        if hosts is None:
            # First use: decode the host list out of the map.  Keeping it
            # out of the cold skeleton matters — for host-heavy oracles
            # it is the same order of magnitude as the key vocabulary.
            self._check_open()
            text = _decode(self._digit_blob, "digit-host list")
            hosts = self._digit_hosts = tuple(text.split("\n")) if text else ()
        if not hosts:
            return True
        lowered = url.lower()
        return not any(host in lowered for host in hosts)

    # -- mutation is a compile-time activity -------------------------------
    def add_list(self, parsed) -> None:
        raise ArtifactError(
            "oracle images are immutable: update the list text and "
            "recompile the artifact instead of mutating a mapped matcher"
        )

    def add_rules(self, rules) -> None:
        self.add_list(rules)


def _section_bounds(span, body_len: int) -> tuple[int, int]:
    offset, length = int(span[0]), int(span[1])
    if offset < 0 or length < 0 or offset + length > body_len:
        raise ArtifactError(
            f"oracle image section [{offset}, {length}] escapes the "
            f"{body_len}-byte section body"
        )
    return offset, offset + length
