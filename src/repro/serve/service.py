"""The online blocking-decision service: hot-reloadable oracle snapshots.

The paper frames TrackerSift's output as deployable blocking knowledge —
filter rules a content blocker consults per request.  Everything else in
this repo runs as an offline batch study; :class:`BlockingService` is the
long-lived deployment of the same oracle: it answers per-request blocking
decisions from a :class:`Snapshot` (a
:class:`~repro.filterlists.oracle.FilterListOracle` plus the list
provenance it was built from) and swaps in new list versions without
dropping a request.

**Snapshot semantics.**  A snapshot is immutable once published.
:meth:`BlockingService.reload` parses the new lists, builds the new
oracle and its fresh decision cache entirely off to the side, computes
rule churn against the old snapshot by rule text (the numbers
:func:`repro.filterlists.maintenance.diff_lists` reports), and then
publishes the
result with a *single reference assignment* — the one mutation in the
whole scheme.  Every decision starts by reading that reference exactly
once, so an in-flight request (or an in-flight *batch*) finishes on the
snapshot it started with; concurrent requests during a reload are each
answered consistently by either the old or the new rules, never a blend.
Reloads themselves serialize on a lock; decisions never take it.

Decisions are bit-identical to the offline oracle's by construction:
every decision, single or batched, goes through
:meth:`BlockingService.decide_validated` into
:meth:`FilterListOracle.label_request_many`, the code path the studies
use (``tests/test_serve_server.py`` and the serve workloads of
``benchmarks/perf/bench.py`` check this over live HTTP).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..filterlists.image import ImageMatcher
from ..filterlists.lists import default_lists
from ..filterlists.oracle import FilterListOracle
from ..filterlists.parser import ParsedList, parse_filter_list
from ..filterlists.rules import ResourceType
from ..obs.ledger import Ledger, StreamHasher
from ..obs.metrics import Counter, LatencyWindow, serving_blocks
from ..obs.trace import current_tracer

__all__ = ["Snapshot", "BlockingService", "apply_reload_payload"]


def _coerce_resource_type(value: object) -> ResourceType:
    """Accept enum members, canonical values, and option aliases."""
    if isinstance(value, ResourceType):
        return value
    resource = ResourceType.from_option(str(value).strip().lower())
    if resource is None:
        raise ValueError(f"unknown resource_type: {value!r}")
    return resource


@dataclass(frozen=True)
class Snapshot:
    """One immutable, atomically-swappable serving state.

    Holds the oracle *and* the list provenance the next
    reload diffs against: the parsed ``lists`` a text-built snapshot came
    from, or — for a snapshot opened from a compiled artifact — the rule
    lines its mapped image stores.  The oracle's decision cache belongs
    to the snapshot (a reload starts with a cold cache for the new rules
    — stale decisions can never leak across rule sets because they live
    and die with their snapshot).
    """

    oracle: FilterListOracle
    lists: tuple[ParsedList, ...]
    revision: int
    #: who produced this revision (e.g. ``"loop-round-3"``); free-form,
    #: surfaced in reload reports, /healthz, and /metrics so an operator
    #: can tell a control-loop hotfix from a manual rollback.
    provenance: str = ""

    @classmethod
    def build(
        cls,
        lists: tuple[ParsedList, ...],
        revision: int,
        provenance: str = "",
    ) -> "Snapshot":
        return cls(
            oracle=FilterListOracle(*lists),
            lists=lists,
            revision=revision,
            provenance=provenance,
        )

    @classmethod
    def from_artifact(cls, path, revision: int) -> "Snapshot":
        """Build a serving snapshot over a compiled ``.tsoracle`` artifact.

        The artifact's oracle image is ``mmap``-ed read-only
        (:func:`repro.filterlists.compile.open_image`) — no parsing, no
        index construction — so cold start and hot reload are a single
        validated open, and every worker process holding such a snapshot
        shares one page-cache copy of the rule data.  The artifact must
        carry list provenance (``trackersift compile`` always stores it):
        that is what the next reload diffs churn against.  Raises
        :class:`~repro.filterlists.compile.ArtifactError` otherwise.
        """
        from ..filterlists.compile import ArtifactError, open_image

        image = open_image(path)
        if not image.provenance_names:
            image.close()
            raise ArtifactError(
                f"artifact {path} carries no list provenance; serving "
                "snapshots need it for reload churn reports — recompile "
                "with compile_lists / `trackersift compile`"
            )
        return cls(
            oracle=FilterListOracle.from_matcher(image),
            lists=(),
            revision=revision,
        )

    @property
    def _image(self) -> ImageMatcher | None:
        matcher = self.oracle.matcher.wrapped
        return matcher if isinstance(matcher, ImageMatcher) else None

    @property
    def rule_count(self) -> int:
        return self.oracle.rule_count

    @property
    def list_names(self) -> tuple[str, ...]:
        image = self._image
        if image is not None:
            return image.provenance_names
        return tuple(parsed.name for parsed in self.lists)

    def rule_lines(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """``(list name, rule lines)`` per list — what churn is diffed
        on.  An artifact snapshot decodes them from its image on demand,
        so only a reload ever pays for them."""
        image = self._image
        if image is not None:
            return image.rule_lines()
        return tuple(
            (parsed.name, tuple(rule.text for rule in parsed.rules))
            for parsed in self.lists
        )


class BlockingService:
    """Long-lived blocking-decision engine with hot-reloadable snapshots.

    >>> service = BlockingService()                # embedded default lists
    >>> service.decide("https://doubleclick.net/pixel")["label"]
    'tracking'

    Thread-safe by design: decisions read the current :class:`Snapshot`
    reference once and run entirely on it (its oracle's decision cache is
    a thread-safe :class:`~repro.filterlists.cache.DecisionCache`), while
    :meth:`reload` builds a replacement off to the side and publishes it
    atomically.  This is what :class:`repro.serve.protocol.AsyncBlockingServer`
    exposes over HTTP.
    """

    def __init__(self, *lists: ParsedList, artifact=None) -> None:
        if artifact is not None:
            if lists:
                raise ValueError(
                    "pass parsed lists or a compiled artifact — exactly one"
                )
            self._snapshot = Snapshot.from_artifact(artifact, revision=1)
        else:
            if not lists:
                lists = default_lists()
            self._snapshot = Snapshot.build(tuple(lists), revision=1)
        self._reload_lock = threading.Lock()
        self._decisions_served = Counter()
        self._decisions_batches = Counter()  # client-visible batch calls
        self._decisions_blocked = Counter()
        self._reloads = Counter()
        self.latency = LatencyWindow()
        self._ledger: Ledger | None = None
        self._ledger_lock = threading.Lock()
        self._decision_streams: dict[int, StreamHasher] = {}
        self._revision_identity: dict[int, int] = {}
        self._started = time.monotonic()

    # -- read side ---------------------------------------------------------
    @property
    def snapshot(self) -> Snapshot:
        """The current serving snapshot (a single atomic reference read)."""
        return self._snapshot

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    def decide(
        self,
        url: str,
        resource_type: object = ResourceType.OTHER,
        page_url: str = "",
    ) -> dict:
        """One blocking decision, as a JSON-ready dict.

        Decided exactly as ``POST /v1/decide`` decides one request:
        validated by :meth:`validate_requests` (a missing URL or unknown
        resource type raises its :class:`ValueError`, which the server
        maps to HTTP 400), then decided by :meth:`decide_validated` as a
        batch of one that counts no client batch.
        """
        validated = self.validate_requests(
            [{"url": url, "resource_type": resource_type, "page_url": page_url}]
        )
        return self.decide_validated(validated, batches=0)["decisions"][0]

    def decide_batch(self, requests: list) -> dict:
        """Decide a batch of requests — all against *one* snapshot.

        Each item is a URL string or a ``{"url", "resource_type",
        "page_url"}`` dict.  The snapshot reference is read once for the
        whole batch, so a concurrent reload never splits a batch across
        rule sets.

        Batches are all-or-nothing: every item is validated *before* any
        decision runs, so one malformed item raises :class:`ValueError`
        naming its index (the server maps it to HTTP 400) while latency
        windows, counters, and the snapshot's decision cache are left
        exactly as they were — a bad item can neither discard nor
        half-apply a batch.  Valid batches drain through the oracle's
        batch path (:meth:`FilterListOracle.label_request_many`), which
        amortizes cache lock rounds across the batch.
        """
        return self.decide_validated(self.validate_requests(requests))

    @staticmethod
    def validate_requests(
        requests: list,
    ) -> list[tuple[str, ResourceType, str]]:
        """Validate batch items into ``(url, resource_type, page_url)``
        triples, raising :class:`ValueError` naming the offending index.

        Split out of :meth:`decide_batch` so request framing layers (the
        asyncio coalescer validates each client's items *before* merging
        them into one cross-connection batch) can reject a malformed
        request individually without discarding its neighbours.
        """
        validated: list[tuple[str, ResourceType, str]] = []
        for index, item in enumerate(requests):
            if isinstance(item, str):
                item = {"url": item}
            if not isinstance(item, dict):
                raise ValueError(
                    f"batch item {index} must be a URL or object: {item!r}"
                )
            url = item.get("url", "")
            if not url or not isinstance(url, str):
                raise ValueError(
                    f"batch item {index}: decide requires a non-empty url"
                )
            try:
                resource = _coerce_resource_type(
                    item.get("resource_type", ResourceType.OTHER)
                )
            except ValueError as error:
                raise ValueError(f"batch item {index}: {error}") from None
            page_url = item.get("page_url")
            if page_url is None:
                page_url = ""
            elif not isinstance(page_url, str):
                raise ValueError(
                    f"batch item {index}: page_url must be a string or null"
                )
            validated.append((url, resource, page_url))
        return validated

    def decide_validated(
        self,
        validated: list[tuple[str, ResourceType, str]],
        *,
        batches: int = 1,
    ) -> dict:
        """Decide pre-validated triples against one snapshot read.

        ``batches`` is how many client-visible batch calls this drain
        represents (the coalescer merges several into one oracle call);
        latency is recorded as one per-decision sample per URL —
        ``len(validated)`` samples of the amortized per-decision cost —
        so p50/p99 stay comparable between the single and batched paths.
        """
        snapshot = self._snapshot
        tracer = current_tracer()
        if tracer is not None:
            stats = snapshot.oracle.cache_stats
            hits_before = stats.hits
            misses_before = stats.misses
        started = time.perf_counter()
        labeled = snapshot.oracle.label_request_many(validated)
        elapsed = time.perf_counter() - started
        count = len(labeled)
        self.latency.observe_many(elapsed / count if count else 0.0, count)
        decisions = []
        blocked_count = 0
        for request, result in zip(validated, labeled):
            blocked = result.label.is_tracking
            if blocked:
                blocked_count += 1
            decisions.append(
                {
                    "url": request[0],
                    "label": result.label.value,
                    "blocked": blocked,
                    "matched_rule": result.matched_rule,
                    "matched_list": result.matched_list,
                    "revision": snapshot.revision,
                }
            )
        self._decisions_served.inc(count)
        self._decisions_blocked.inc(blocked_count)
        self._decisions_batches.inc(batches)
        if self._ledger is not None:
            self._ledger_observe(
                snapshot.revision,
                (
                    f"{d['url']}|{d['label']}|{int(d['blocked'])}"
                    for d in decisions
                ),
            )
        if tracer is not None:
            tracer.add(
                "serve.batch",
                elapsed,
                requests=count,
                coalesced_batches=batches,
                revision=snapshot.revision,
                cache_hits=stats.hits - hits_before,
                cache_misses=stats.misses - misses_before,
            )
        return {
            "decisions": decisions,
            "count": len(decisions),
            "revision": snapshot.revision,
        }

    # -- reload side -------------------------------------------------------
    def reload(self, *lists: ParsedList, provenance: str = "") -> dict:
        """Swap in a new list snapshot; returns the churn report.

        With no arguments the embedded default lists are re-parsed (a
        rollback to factory state).  The new oracle and its cold decision
        cache are built entirely before the swap; the swap itself is one
        reference assignment, so in-flight decisions finish on the old
        snapshot and the service is never without an answer.

        ``provenance`` stamps the published snapshot with who produced it
        (the control loop passes ``loop-round-N``); it rides along in the
        reload report and the observability endpoints.
        """
        if not lists:
            lists = default_lists()
        frozen = tuple(lists)
        return self._publish(
            lambda revision: Snapshot.build(frozen, revision, provenance)
        )

    def reload_artifact(self, path) -> dict:
        """Swap in a snapshot loaded from a compiled ``.tsoracle``.

        The hot-reload equivalent of :meth:`Snapshot.from_artifact`: the
        new oracle maps the artifact's image (one validated open, no
        parsing or index construction) and is published with the same
        single reference assignment — churn is still diffed against the
        outgoing snapshot's lists, from the provenance the image stores.
        Raises :class:`~repro.filterlists.compile.ArtifactError` for a
        missing/corrupt/mismatched artifact; the serving snapshot is
        untouched in that case.
        """
        report = self._publish(
            lambda revision: Snapshot.from_artifact(path, revision)
        )
        report["artifact"] = str(path)
        return report

    def swap_image(self, path, revision: int) -> dict:
        """Adopt a new mapped-image snapshot at a *caller-chosen* revision.

        The worker half of a coordinated cross-process reload: the
        supervisor picks one revision number, publishes the artifact path
        to every worker, and each worker swaps with the same single
        reference assignment :meth:`reload` uses — so all workers agree on
        what revision N means, and each in-flight batch finishes on the
        snapshot it started with.  Churn is not diffed here — the image's
        provenance is never decoded on this path, so a swap costs one
        validated open.  The previous snapshot's mapped
        image is closed once the swap is published — its already-answered
        decisions carried materialized rule objects, which stay valid.
        Raises :class:`~repro.filterlists.compile.ArtifactError` with the
        serving snapshot untouched when the artifact fails validation.
        """
        new = Snapshot.from_artifact(path, revision)
        with self._reload_lock:
            old = self._snapshot
            self._snapshot = new  # the atomic publish
        self._reloads.inc()
        self._note_revision(new)
        close = getattr(old.oracle.matcher.wrapped, "close", None)
        if close is not None:
            close()
        return {
            "revision": new.revision,
            "previous_revision": old.revision,
            "rule_count": new.rule_count,
            "artifact": str(path),
        }

    def _publish(self, build) -> dict:
        """Build the replacement snapshot off to the side, diff churn,
        publish atomically, and assemble the reload report.  ``build``
        receives the next revision number; if it raises, the current
        snapshot keeps serving."""
        started = time.perf_counter()
        with self._reload_lock:
            old = self._snapshot
            new = build(old.revision + 1)
            per_list, total = self._churn(old.rule_lines(), new.rule_lines())
            self._snapshot = new  # the atomic publish
        self._reloads.inc()
        self._note_revision(new)
        return {
            "revision": new.revision,
            "previous_revision": old.revision,
            "rule_count": new.rule_count,
            "provenance": new.provenance,
            "lists": per_list,
            "churn": total,
            "reload_seconds": time.perf_counter() - started,
        }

    def reload_text(
        self,
        *named_texts: tuple[str, str],
        provenance: str = "",
        strict: bool = False,
    ) -> dict:
        """Parse ``(name, text)`` pairs and reload with the result.

        With ``strict=True`` a candidate whose text produces *any* parse
        errors is rejected with :class:`ValueError` before anything is
        built — the serving snapshot and revision are untouched.  The
        reload endpoint uses this so a non-parsing candidate 400s instead
        of silently serving the salvageable subset of its rules.
        """
        parsed = tuple(
            parse_filter_list(text, name=name) for name, text in named_texts
        )
        if strict:
            for candidate in parsed:
                if candidate.error_lines:
                    raise ValueError(
                        f"list {candidate.name!r} failed to parse: "
                        f"{len(candidate.error_lines)} bad line(s), first: "
                        f"{candidate.error_lines[0]!r}"
                    )
        return self.reload(*parsed, provenance=provenance)

    @staticmethod
    def _churn(old_lists, new_lists) -> tuple[list[dict], dict]:
        """Per-list and total rule churn over ``(name, rule lines)``
        pairs, by distinct rule text — the numbers
        :func:`~repro.filterlists.maintenance.diff_lists` reports.

        Lists are paired by name; an old list with no namesake counts as
        fully removed, a new one as fully added.
        """
        remaining = {name: set(lines) for name, lines in old_lists}
        per_list = []
        for name, lines in new_lists:
            new = set(lines)
            old = remaining.pop(name, set())
            row = _churn_row(len(new - old), len(old - new), len(old & new))
            per_list.append({"name": name, **row})
        for name, old in remaining.items():
            per_list.append({"name": name, **_churn_row(0, len(old), 0)})
        total = _churn_row(
            *(sum(row[key] for row in per_list) for key in ("added", "removed", "unchanged"))
        )
        return per_list, total

    # -- observability -----------------------------------------------------
    def healthz(self) -> dict:
        snapshot = self._snapshot
        return {
            "status": "ok",
            "revision": snapshot.revision,
            "rule_count": snapshot.rule_count,
            "provenance": snapshot.provenance,
            "uptime_seconds": self.uptime_seconds,
        }

    def counters(self) -> dict:
        """Raw counters as one flat dict, named like the supervisor
        board's slot fields — what a worker publishes, and what
        :func:`~repro.obs.metrics.serving_blocks` reads."""
        snapshot = self._snapshot
        stats = snapshot.oracle.cache_stats
        return {
            "revision": snapshot.revision,
            "served": self._decisions_served.value,
            "batches": self._decisions_batches.value,
            "blocked": self._decisions_blocked.value,
            "reloads": self._reloads.value,
            "hits": stats.hits,
            "misses": stats.misses,
            "entries": len(snapshot.oracle.matcher),
            "observed": self.latency.count,
            "total_s": self.latency.total,
        }

    def metrics(self) -> dict:
        """Snapshot, uptime, and the decision/cache/latency blocks."""
        snapshot = self._snapshot
        return {
            "uptime_seconds": self.uptime_seconds,
            "snapshot": {
                "revision": snapshot.revision,
                "rule_count": snapshot.rule_count,
                "provenance": snapshot.provenance,
                "lists": list(snapshot.list_names),
                # Coverage-gap ledger: rules the oracle skipped at index
                # time, per unsupported reason — silent drops would make
                # the service quietly under-block.
                "unsupported_rules": snapshot.oracle.unsupported_rule_count,
                "unsupported": snapshot.oracle.unsupported_counts,
            },
            **serving_blocks(self.counters(), self.latency.sorted_samples()),
        }

    # -- determinism ledger --------------------------------------------------
    def attach_ledger(self, ledger: Ledger) -> Ledger:
        """Record this service's determinism chain into *ledger*.

        While attached, every decision feeds an incremental
        :class:`~repro.obs.ledger.StreamHasher` keyed by the snapshot
        revision that answered it, and every published snapshot registers
        its identity.  :meth:`finalize_ledger` flushes the chain — one
        snapshot-identity stage plus one decision-stream digest per
        revision, in revision order — and detaches.  Recording is opt-in:
        an unattached service pays one ``None`` check per batch.
        """
        with self._ledger_lock:
            self._ledger = ledger
            self._decision_streams = {}
            snapshot = self._snapshot
            self._revision_identity = {snapshot.revision: snapshot.rule_count}
        return ledger

    def finalize_ledger(self) -> Ledger | None:
        """Flush per-revision stages into the attached ledger; detach.

        Returns the ledger, or ``None`` when none was attached.
        """
        with self._ledger_lock:
            ledger = self._ledger
            if ledger is None:
                return None
            streams = self._decision_streams
            identity = self._revision_identity
            self._ledger = None
            self._decision_streams = {}
            self._revision_identity = {}
        for revision in sorted(set(identity) | set(streams)):
            ledger.record(
                "serve.snapshot",
                {
                    "revision": revision,
                    "rule_count": identity.get(revision),
                },
                revision=revision,
            )
            hasher = streams.get(revision)
            ledger.record_digest(
                "serve.decisions",
                hasher.hexdigest() if hasher else StreamHasher().hexdigest(),
                revision=revision,
                decisions=hasher.count if hasher else 0,
            )
        return ledger

    def _note_revision(self, snapshot: Snapshot) -> None:
        if self._ledger is None:
            return
        with self._ledger_lock:
            if self._ledger is not None:
                self._revision_identity[snapshot.revision] = snapshot.rule_count

    def _ledger_observe(self, revision: int, items) -> None:
        with self._ledger_lock:
            if self._ledger is None:
                return
            hasher = self._decision_streams.get(revision)
            if hasher is None:
                hasher = self._decision_streams[revision] = StreamHasher()
            hasher.update_many(items)


def _churn_row(added: int, removed: int, unchanged: int) -> dict:
    return {
        "added": added,
        "removed": removed,
        "unchanged": unchanged,
        "summary": f"+{added} -{removed} (unchanged {unchanged})",
    }


def apply_reload_payload(
    service: BlockingService, payload: dict, artifact_dir
) -> dict:
    """Apply a ``POST /v1/reload`` JSON payload to a service.

    The reload endpoint's semantics, kept apart from the HTTP framing of
    :mod:`repro.serve.protocol` so they can be tested without a socket:

    * ``{}``                      — re-parse the embedded default lists;
    * ``{"lists": [{"name","text"}, ...]}`` — parse and swap in new text;
    * ``{"artifact": "<name>"}``  — adopt a compiled ``.tsoracle``.
      Clients never choose arbitrary server paths — a reload request
      must not be able to probe or map any file on the host: the server
      must have been booted with ``--artifact``, and the name is
      resolved inside that artifact's directory (``artifact_dir``).

    Raises :class:`ValueError` (which the server maps to HTTP 400) for a
    malformed payload; :class:`~repro.filterlists.compile.ArtifactError`
    is a ValueError, so a bad artifact maps to 400 with the snapshot
    untouched as well.
    """
    from pathlib import Path

    artifact = payload.get("artifact")
    if artifact is not None:
        if payload.get("lists") is not None:
            raise ValueError("send 'lists' or 'artifact', not both")
        if not isinstance(artifact, str) or not artifact:
            raise ValueError("'artifact' must be a filesystem path")
        if artifact_dir is None:
            raise ValueError(
                "artifact reload is disabled: start the server with "
                "--artifact to opt in (reloads are then confined to "
                "that artifact's directory)"
            )
        if Path(artifact).name != artifact:
            raise ValueError(
                "'artifact' must be a bare file name; it is resolved "
                "inside the server's --artifact directory"
            )
        return service.reload_artifact(Path(artifact_dir) / artifact)
    provenance = payload.get("provenance", "")
    if not isinstance(provenance, str):
        raise ValueError("'provenance' must be a string")
    specs = payload.get("lists")
    if specs is None:
        return service.reload(provenance=provenance)
    if not isinstance(specs, list) or not specs:
        raise ValueError("'lists' must be a non-empty list of objects")
    named_texts = []
    for index, spec in enumerate(specs):
        if not isinstance(spec, dict) or "text" not in spec:
            raise ValueError(f"list #{index} needs a 'text' field")
        named_texts.append(
            (str(spec.get("name", f"list{index}")), spec["text"])
        )
    # Strict: a candidate that does not fully parse is a client error
    # (HTTP 400) with the serving snapshot and revision untouched —
    # never a partial reload of whatever lines survived.
    return service.reload_text(
        *named_texts, provenance=provenance, strict=True
    )
