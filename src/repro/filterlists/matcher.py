"""Token-automaton filter matching engine.

Real content blockers never test every rule against every request: rules
are bucketed by a distinguishing literal, and only the buckets whose
literal occurs in the request URL are consulted.  Earlier revisions of
this engine found those buckets by *tokenize-then-probe*: split the URL
into maximal alphanumeric runs, then hash-probe the bucket dict once per
run (and once per authority dot-suffix for ``||host^`` rules).  That walk
was the per-decision floor — ~70% of a decision's time was spent
enumerating and probing keys that select no bucket at all.

This revision replaces the walk with a precompiled **Aho-Corasick token
automaton** (:class:`TokenAutomaton`) over the rule corpus's literals:

* **Vocabulary.**  Every token-bucket key (the delimited literal a rule is
  indexed under) plus every pure ``||host^`` literal, across the blocking
  *and* exception indexes.
* **Anchored keys, trivial failure function.**  Every key in the
  vocabulary is boundary-delimited by construction: a bucket token is only
  index-safe when it matches a *whole* alphanumeric run of the URL (see
  :func:`repro.filterlists.rules._extract_token`), and a host literal can
  only match starting at the authority or immediately after a ``.``,
  ending where its non-separator run ends (see :meth:`TokenAutomaton.scan`).
  A mismatch therefore never restarts mid-key — the Aho-Corasick failure
  function collapses to the root — so the goto function alone decides
  membership, and each tier executes it in its cheapest form.  The token
  tier (anchors at every alphanumeric-run boundary) runs the goto trie at
  C speed as a trie-structured regex (one state per trie node,
  alternation = branch, ``?`` = accepting interior node) with the
  boundary conditions expressed as lookaround assertions.  The host tier
  has only a handful of anchors (authority start + one per dot), so it
  resolves each anchor with one hash probe of the key table — anchored
  keys make a probe equivalent to a full trie walk.
* **One scan, candidate buckets out.**  :meth:`TokenAutomaton.scan` makes
  a single pass over the lowered URL and returns exactly the host keys and
  tokens that select a bucket, already deduplicated in URL order.  The
  per-*token* dict probes of the old walk — the expensive part, one per
  alphanumeric run against mostly-absent keys — are gone from the
  per-decision path.

The automaton is constructed when rules are indexed; its compiled scan
patterns follow the same lazy invariant as per-rule regexes and
materialize on the first scan in each process.  A compiled ``.tsoracle``
image carries the vocabulary as mapped key tables instead
(:mod:`repro.filterlists.image`).

Candidate iteration is deterministic: host keys and tokens are consulted
in URL order (deduplicated), never in set-hash order, so which rule a
:class:`MatchResult` attributes a block to is stable across interpreter
runs regardless of ``PYTHONHASHSEED``.  The automaton preserves this
bit-for-bit: its hits are reported in ascending match position, which is
provably the same order the tokenize-then-probe walk produced (every
valid key starts at a run boundary, and at most one vocabulary key can be
valid per start position).  The walk itself lives in
``tests/reference_matcher.py`` as the reference oracle; the equivalence
property tests and ``scripts/matcher_smoke.py`` hold the automaton
decision-identical to it.

:meth:`FilterMatcher.match` decides one request context;
:meth:`FilterMatcher.decide_many` is a URL-only batch helper that skips
context construction and the index walks for URLs with no candidate
keys.  One layer up, :meth:`CachedMatcher.match_many
<repro.filterlists.cache.CachedMatcher.match_many>` calls ``match`` once
per cache miss, taking the cache lock once per batch.
Quickstart::

    >>> from repro.filterlists.matcher import FilterMatcher
    >>> matcher = FilterMatcher.from_text("||tracker.example^\\n/pixel/*")
    >>> [r.blocked for r in matcher.decide_many([
    ...     "https://tracker.example/a.js",
    ...     "https://safe.example/app.js",
    ...     "https://safe.example/pixel/1.gif",
    ... ])]
    [True, False, True]

Request URLs are matched through a normalized view of their authority
(:class:`RequestShape` strips trailing dots and IDNA-encodes the host,
exactly like :func:`repro.urlkit.url.normalize_host`), so the oracle
agrees with the crawler about which host a request targets —
``||tracker.com^`` blocks ``http://tracker.com./x`` and
``||xn--bcher-kva.example^`` blocks ``http://bücher.example/x``.

Exception (``@@``) rules override blocking rules, exactly as in ABP: a
request is *blocked* iff at least one blocking rule matches and no
exception rule matches.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .._record import FrozenRecord, set_field
from ..urlkit.url import URLError, normalize_host
from .parser import ParsedList, parse_filter_list
from .rules import NetworkRule, RequestContext

__all__ = [
    "MatchResult",
    "FilterMatcher",
    "RequestShape",
    "TokenAutomaton",
]

# First character that ends the authority.
_AUTH_DELIM_RE = re.compile(r"[/?#]")
# Maximal alphanumeric runs: the unit a bucket token must cover whole.
_URL_RUN_RE = re.compile(r"[a-z0-9]+")
# Scheme prefix (the one ``||`` anchors under) and authority span in one
# anchored pass — group 1 is the authority.
_AUTH_SPAN_RE = re.compile(r"[a-z][a-z0-9.+-]*://([^/?#]*)")
# Maximal runs of non-separator characters inside an authority; the
# complement of the ABP separator class, minus ``/?#`` which end the
# authority (the lowercased view of the class in ``rules._SEPARATOR``).
_AUTH_RUN_RE = re.compile(r"[a-z0-9_\-.%]+")
# Patterns eligible for the host-anchor dict: ``||host^`` with a literal
# hostname body (no wildcards, anchors or separators beyond the trailing one).
_PURE_HOST_RULE_RE = re.compile(r"^\|\|([a-z0-9_\-.%]+)\^$")
# Any digit (what _digit_segment looks for in a rule pattern).
_DIGIT_RE = re.compile(r"\d")
# First character that ends a ``||`` rule's host segment.
_HOST_SEGMENT_END_RE = re.compile(r"[/?^*]")


def _trie_pattern(words: Sequence[str]) -> str:
    """A trie-structured regex source matching exactly ``words``.

    The emitted pattern is the automaton's goto function: one nesting
    level per trie node, an alternation per branch, a ``?`` suffix per
    accepting interior node.  Children are emitted in sorted order, so the
    pattern (and everything derived from it) is byte-stable across
    interpreter runs and hash seeds.  Correctness does not depend on
    alternation order: the caller anchors every match with boundary
    lookarounds, and at most one vocabulary word can satisfy them per
    start position, so the engine's backtracking always converges on that
    word when it is present.
    """
    trie: dict = {}
    for word in words:
        node = trie
        for ch in word:
            node = node.setdefault(ch, {})
        node[""] = None  # accepting mark

    def emit(node: dict) -> str:
        accepting = "" in node
        branches: list[str] = []
        leaf_chars: list[str] = []
        for ch in sorted(key for key in node if key != ""):
            sub = emit(node[ch])
            if sub == "":
                leaf_chars.append(re.escape(ch))
            else:
                branches.append(re.escape(ch) + sub)
        if not branches and not leaf_chars:
            return ""  # accepting leaf
        if leaf_chars:
            branches.append(
                leaf_chars[0]
                if len(leaf_chars) == 1
                else "[" + "".join(leaf_chars) + "]"
            )
        body = branches[0] if len(branches) == 1 else "(?:" + "|".join(branches) + ")"
        if accepting:
            return "(?:" + body + ")?"
        return body

    return emit(trie)


class TokenAutomaton:
    """Aho-Corasick automaton over a matcher's rule literals.

    Holds the matcher-wide vocabulary — token-bucket keys and pure-host
    literals from both indexes — as sorted tuples (deterministic
    serialization), and scans a lowered URL in one pass for every
    vocabulary key that is *valid* at its position:

    * a token key must cover a whole maximal alphanumeric run
      (``(?<![a-z0-9])key(?![a-z0-9])``), because that is the only way a
      bucket token can correspond to a URL token;
    * a host key must start at the authority's first character or right
      after a ``.``, and must run to the end of its non-separator run —
      the exact positional characterization of ``||key^`` matching the
      URL, evaluated only over the authority span.  Nested suffix keys
      (``a.b.c`` and ``b.c`` and ``c``) are all reported.

    Because every key is anchored this way, the automaton's failure
    function is trivial (a mismatch can only restart at the next boundary,
    never mid-key), so the goto function alone decides membership — and
    each tier executes it in the form that is cheapest for its anchor
    density.  Token anchors are plentiful (every alphanumeric-run
    boundary), so the token tier runs the goto trie as a trie-structured
    regex at C speed.  Host anchors are scarce and fully enumerable (the
    authority's leading run plus one anchor per ``.`` — never more than a
    handful), so the host tier resolves each anchor with a single hash
    probe of the key table: the anchored-key property means a probe *is*
    a complete trie walk.  Both tiers accept exactly the same language as
    the reference walk.  Hits come back in ascending start position —
    identical to the order the tokenize-then-probe walk consulted buckets
    in, so rule attribution is unchanged bit for bit.

    The compiled scan patterns are derived state, built lazily on the
    first scan, mirroring the lazy per-rule regex invariant.
    """

    __slots__ = ("_hosts", "_tokens", "_scanners")

    def __init__(
        self, hosts: Iterable[str] = (), tokens: Iterable[str] = ()
    ) -> None:
        self._hosts: tuple[str, ...] = tuple(sorted(set(hosts)))
        self._tokens: tuple[str, ...] = tuple(sorted(set(tokens)))
        self._scanners: tuple | None = None

    # -- introspection -----------------------------------------------------
    @property
    def vocabulary_size(self) -> int:
        return len(self._hosts) + len(self._tokens)

    @property
    def compiled(self) -> bool:
        """Whether the lazy scan patterns have materialized."""
        return self._scanners is not None

    # -- scanning ----------------------------------------------------------
    def _compile(self) -> tuple:
        # Host tier: the anchored-key property makes one hash probe per
        # anchor a complete goto walk, so the "compiled" form is simply
        # the key table.  Token tier: goto trie as a trie regex.
        host_table = frozenset(self._hosts) if self._hosts else None
        token_pattern = (
            re.compile(
                r"(?<![a-z0-9])(?:%s)(?![a-z0-9])" % _trie_pattern(self._tokens)
            )
            if self._tokens
            else None
        )
        self._scanners = (host_table, token_pattern)
        return self._scanners

    def scan(
        self, lowered_url: str, auth_start: int, auth_end: int
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """One pass over a pre-lowercased URL: ``(host keys, tokens)``.

        ``auth_start``/``auth_end`` delimit the authority (``auth_start``
        < 0 when the URL has no ``scheme://`` and host anchors cannot
        apply).  Both result tuples contain only keys that select a bucket
        in at least one index, deduplicated, in ascending match position —
        the attribution order contract.
        """
        scanners = self._scanners
        if scanners is None:
            scanners = self._compile()
        host_table, token_pattern = scanners
        hosts: tuple[str, ...] = ()
        if auth_start >= 0 and host_table is not None:
            authority = lowered_url[auth_start:auth_end]
            if _AUTH_RUN_RE.fullmatch(authority) is not None:
                # Single-run authority (the overwhelmingly common shape:
                # no userinfo/port/IP-literal): anchors are position 0
                # plus every dot.  Suffixes are distinct by construction.
                hits = [authority] if authority in host_table else []
                dot = authority.find(".")
                while dot != -1:
                    suffix = authority[dot + 1 :]
                    if suffix in host_table:
                        hits.append(suffix)
                    dot = authority.find(".", dot + 1)
                if hits:
                    hosts = tuple(hits)
            else:
                hosts = self._scan_host_runs(authority, host_table)
        tokens: tuple[str, ...] = ()
        if token_pattern is not None:
            found = token_pattern.findall(lowered_url)
            if found:
                tokens = (
                    tuple(found)
                    if len(found) == 1
                    else tuple(dict.fromkeys(found))
                )
        return hosts, tokens

    @staticmethod
    def _scan_host_runs(
        authority: str, host_table: frozenset
    ) -> tuple[str, ...]:
        """Host-anchor probes for authorities with separator characters
        (userinfo, ports, IP literals): every run's leading key plus its
        dot-suffixes, filtered through the key table."""
        seen: set[str] = set()
        hits: list[str] = []
        for run_match in _AUTH_RUN_RE.finditer(authority):
            run = run_match.group()
            if run_match.start() == 0 and run in host_table and run not in seen:
                seen.add(run)
                hits.append(run)
            dot = run.find(".")
            while dot != -1:
                suffix = run[dot + 1 :]
                if suffix in host_table and suffix not in seen:
                    seen.add(suffix)
                    hits.append(suffix)
                dot = run.find(".", dot + 1)
        return tuple(hits)


def _normalized_match_url(url: str, lowered: str, start: int, end: int) -> str:
    """The URL as matched: authority host normalized like the crawler's.

    The oracle and the crawler must agree about which host a request
    targets, or rules skew at the boundary: ``urlkit.normalize_host``
    strips trailing dots and IDNA-encodes, so ``||tracker.com^`` must
    block ``http://tracker.com./x`` and ``||xn--bcher-kva.example^`` must
    block ``http://bücher.example/x``.  ``start``/``end`` are the
    authority bounds in ``lowered`` (the caller — :class:`RequestShape` —
    already located them, and has already dismissed the canonical common
    case).  Returns ``url`` itself (identity, so callers can use an
    ``is`` check) when the host turns out canonical after all;
    un-normalizable garbage is matched as-is rather than raising —
    matching never turns a weird URL into an exception.
    """
    if len(lowered) != len(url):
        # Exotic case-folding changed offsets; matching proceeds on the
        # raw URL (the crawler rejects such URLs outright).
        return url
    authority = url[start:end]
    at = authority.rfind("@")
    userinfo, hostport = (
        (authority[: at + 1], authority[at + 1 :]) if at >= 0 else ("", authority)
    )
    host, port = hostport, ""
    if hostport.startswith("["):
        close = hostport.find("]")
        if close >= 0:
            host, port = hostport[: close + 1], hostport[close + 1 :]
    else:
        colon = hostport.rfind(":")
        if colon >= 0 and hostport[colon + 1 :].isdigit():
            host, port = hostport[:colon], hostport[colon:]
    try:
        normalized = normalize_host(host)
    except URLError:
        return url
    if normalized == host:
        return url
    return url[:start] + userinfo + normalized + port + url[end:]


class RequestShape:
    """Per-request view of a URL, computed once and shared by every index.

    Both the blocking and the exception :class:`_RuleIndex` consult the
    same shape, so the URL is normalized, lowercased and scanned exactly
    once per request no matter how many indexes (or lists) the matcher
    holds.  ``match_url`` is the normalized-authority view every pattern
    (host dict, token bucket regex, catch-all) matches against; it *is*
    ``url`` (same object) when the authority was already canonical, so
    callers can detect normalization with an identity check.

    ``host_keys``/``tokens`` come from one ``automaton.scan`` of the
    lowered URL: only keys that select a bucket, deduplicated and in URL
    order — the attribution contract.
    """

    __slots__ = ("url", "match_url", "tokens", "host_keys")

    def __init__(self, url: str, automaton: TokenAutomaton) -> None:
        self.url = url
        lowered = url.lower()
        span = _AUTH_SPAN_RE.match(lowered)
        if span is None:
            # No scheme: host anchors cannot apply, and there is no
            # authority to normalize.
            self.match_url = url
            auth_start = auth_end = -1
        else:
            auth_start, auth_end = span.span(1)
            # Canonical-authority fast path, all C-level checks: ASCII,
            # no trailing dot anywhere a host could end ("." at authority
            # end or right before a ":port"), and no upper-case authority
            # bytes (whole-string equality first — most URLs are already
            # fully lowercase — slice comparison only as the fallback).
            if (
                lowered.isascii()
                and lowered[auth_end - 1] != "."
                and lowered.find(".:", auth_start, auth_end) < 0
                and (
                    url == lowered
                    or url[auth_start:auth_end] == lowered[auth_start:auth_end]
                )
            ):
                self.match_url = url
            else:
                match_url = _normalized_match_url(
                    url, lowered, auth_start, auth_end
                )
                self.match_url = match_url
                if match_url is not url:
                    # Normalization may shrink the authority (trailing
                    # dots, IDNA): re-derive the lowered view and bounds.
                    lowered = match_url.lower()
                    delim = _AUTH_DELIM_RE.search(lowered, auth_start)
                    auth_end = (
                        delim.start() if delim is not None else len(lowered)
                    )
        self.host_keys, self.tokens = automaton.scan(
            lowered, auth_start, auth_end
        )


class MatchResult(FrozenRecord):
    """Outcome of matching one request against a matcher's rules."""

    __slots__ = ("blocked", "rule", "exception")

    blocked: bool
    rule: NetworkRule | None
    exception: NetworkRule | None

    def __init__(
        self,
        blocked: bool,
        rule: NetworkRule | None = None,
        exception: NetworkRule | None = None,
    ) -> None:
        set_field(self, "blocked", blocked)
        set_field(self, "rule", rule)
        set_field(self, "exception", exception)

    @property
    def matched(self) -> bool:
        """True when *any* rule (blocking or exception) applied."""
        return self.rule is not None


#: The (immutable) "no rule applied" outcome.  Shared by every miss: the
#: hot path decides far more clean URLs than tracking ones, and a frozen
#: record with all-default fields never needs a fresh allocation.
_NO_MATCH = MatchResult(blocked=False)


class _RuleIndex:
    """Host-literal dict + token buckets + a catch-all bucket.

    :meth:`FilterMatcher._index` fills both tiers in one pass over the
    rules; this class holds and walks them.

    Candidate order (and so first-match attribution) is deterministic:
    host-dict hits in the URL's host-key order, then the catch-all bucket,
    then token buckets in URL-token order; insertion order within a bucket.
    The shape's key tuples carry that order, so the index itself is
    agnostic to how candidates were generated.
    """

    def __init__(self) -> None:
        self._hosts: dict[str, list[NetworkRule]] = {}
        self._buckets: dict[str, list[NetworkRule]] = {}
        self._catch_all: list[NetworkRule] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def catch_all_empty(self) -> bool:
        return not self._catch_all

    @property
    def host_rule_count(self) -> int:
        """Rules served by the host-anchor fast path (introspection)."""
        return sum(len(bucket) for bucket in self._hosts.values())

    def first_match(
        self, context: RequestContext, shape: RequestShape
    ) -> NetworkRule | None:
        # Host-dict hits have their pattern match established by the key
        # lookup itself, so only their options remain to check.
        hosts = self._hosts
        for key in shape.host_keys:
            bucket = hosts.get(key)
            if bucket:
                for rule in bucket:
                    if rule.options.permits(context):
                        return rule
        for rule in self._catch_all:
            if rule.matches(context):
                return rule
        buckets = self._buckets
        for token in shape.tokens:
            bucket = buckets.get(token)
            if bucket:
                for rule in bucket:
                    if rule.matches(context):
                        return rule
        return None


class _DecisionLoop:
    """The one ABP decision loop, shared by every matcher form.

    A subclass supplies ``_automaton`` (candidate generation) and two tier
    indexes, ``_blocking`` and ``_exceptions``, that answer
    ``first_match(context, shape)`` and ``catch_all_empty`` — the
    in-memory :class:`_RuleIndex` here, the mapped
    :class:`~repro.filterlists.image._ImageIndex` for compiled images.
    Decisions and rule attribution therefore cannot drift between forms
    that index the same rules in the same order.
    """

    __slots__ = ()

    def _decide(self, context: RequestContext, shape: RequestShape) -> MatchResult:
        blocking = self._blocking.first_match(context, shape)
        if blocking is None:
            return _NO_MATCH
        exception = self._exceptions.first_match(context, shape)
        if exception is not None:
            return MatchResult(blocked=False, rule=blocking, exception=exception)
        return MatchResult(blocked=True, rule=blocking)

    def match(self, context: RequestContext) -> MatchResult:
        """Full ABP decision: blocking rule minus exception override."""
        shape = RequestShape(context.url, self._automaton)
        if shape.match_url is not context.url:
            # Authority normalization changed the URL: every pattern
            # (including per-rule regexes) must see the normalized view.
            context = RequestContext(
                shape.match_url,
                context.resource_type,
                context.page_host,
                context.third_party,
            )
        return self._decide(context, shape)

    def decide_many(self, urls: Iterable[str]) -> list[MatchResult]:
        """Batch URL-only decisions (default request context per URL).

        Skips :class:`RequestContext` construction — and the index walks
        entirely — for URLs whose automaton scan produced no candidate
        keys at all.  With an empty catch-all tier such a URL cannot
        match *any* blocking rule (every bucket the walk would visit is
        absent), so the decision is ``_NO_MATCH`` by construction;
        exceptions never matter when no blocking rule fires.
        """
        automaton = self._automaton
        no_catch_all = self._blocking.catch_all_empty
        decide = self._decide
        results: list[MatchResult] = []
        append = results.append
        for url in urls:
            shape = RequestShape(url, automaton)
            if no_catch_all and not shape.host_keys and not shape.tokens:
                append(_NO_MATCH)
            else:
                append(decide(RequestContext(url=shape.match_url), shape))
        return results

    def should_block(self, context: RequestContext) -> bool:
        return self.match(context).blocked

    def should_block_url(self, url: str) -> bool:
        """Convenience wrapper for URL-only matching (default context)."""
        return self.match(RequestContext(url=url)).blocked


def _digit_segment(pattern: str) -> str | None:
    """Where this pattern's digits could bite outside a URL's host.

    Returns ``None`` when the pattern has no digits that can match in the
    path/query (digit-run normalization is safe around this rule), the
    anchored host segment when digits appear beyond it in a ``||`` rule
    (normalization is safe except for URLs carrying that host), or ``""``
    when digits can match anywhere (normalization never safe).

    Rationale: a ``||`` rule's host segment — the pattern up to the first
    ``/ ? ^ *`` — can only ever match inside the URL authority, which a
    path-digit normalizer leaves untouched.
    """
    if pattern.startswith("||"):
        end = _HOST_SEGMENT_END_RE.search(pattern, 2)
        if end is None or _DIGIT_RE.search(pattern, end.start()) is None:
            return None
        return pattern[2 : end.start()].lower()
    return "" if _DIGIT_RE.search(pattern) else None


class FilterMatcher(_DecisionLoop):
    """Matches requests against one or more parsed filter lists.

    >>> matcher = FilterMatcher.from_text("||tracker.example^", name="mini")
    >>> matcher.match(RequestContext("https://tracker.example/p.js")).blocked
    True
    """

    def __init__(self, rules: Iterable[NetworkRule] = ()) -> None:
        self._blocking = _RuleIndex()
        self._exceptions = _RuleIndex()
        self._lists: list[str] = []
        self._domain_sensitive = False
        self._digit_anywhere = False
        self._digit_hosts: set[str] = set()
        self._revision = 0
        self._automaton = TokenAutomaton()
        self._unsupported_counts: dict[str, int] = {}
        self._unsupported_rules = 0
        self.add_rules(rules)

    # -- construction -----------------------------------------------------
    @classmethod
    def from_text(cls, data: str, name: str = "") -> "FilterMatcher":
        matcher = cls()
        matcher.add_list(parse_filter_list(data, name=name))
        return matcher

    @classmethod
    def from_lists(cls, *lists: ParsedList) -> "FilterMatcher":
        matcher = cls()
        matcher._add_lists(lists)
        return matcher

    def add_list(self, parsed: ParsedList) -> None:
        self._add_lists((parsed,))

    def add_rules(self, rules: Iterable[NetworkRule]) -> None:
        self._index(rules)
        self._automaton = self._build_automaton()

    def _add_lists(self, lists: Iterable[ParsedList]) -> None:
        """Index each list as one revision, then build the automaton once."""
        for parsed in lists:
            if parsed.name:
                self._lists.append(parsed.name)
            self._index(parsed.rules)
        self._automaton = self._build_automaton()

    def _index(self, rules: Iterable[NetworkRule]) -> None:
        """Classify each rule once into its tier's host dict, token
        bucket or catch-all, recording what the cache needs to know
        (``domain=`` options, digits a path normalizer could change)."""
        self._revision += 1
        unsupported = self._unsupported_counts
        blocking, exceptions = self._blocking, self._exceptions
        pure_host = _PURE_HOST_RULE_RE.match
        for rule in rules:
            options = rule.options
            if options.unsupported:
                # Skipped, exactly like real blockers skip options they do
                # not implement — but never silently: every skip is
                # accounted per reason (see ``unsupported_counts``).
                self._unsupported_rules += 1
                for reason in options.unsupported:
                    unsupported[reason] = unsupported.get(reason, 0) + 1
                continue
            if options.include_domains or options.exclude_domains:
                self._domain_sensitive = True
            tier = exceptions if rule.is_exception else blocking
            tier._count += 1
            pattern = rule.pattern
            # ``||host^`` with a literal host goes to the host dict by that
            # literal; ``match-case`` rules need the regex path.  The host
            # body holds no ``/ ? ^ *``, so the rule's host segment ends at
            # the trailing ``^`` and no digit can follow it: such a rule
            # never has path-reachable digits (``_digit_segment`` is None).
            host = None if options.match_case else pure_host(pattern.lower())
            if host is not None:
                tier._hosts.setdefault(host.group(1), []).append(rule)
                continue
            segment = _digit_segment(pattern)
            if segment == "":
                self._digit_anywhere = True
            elif segment is not None:
                self._digit_hosts.add(segment)
            token = rule.token
            # Short tokens appear in nearly every URL; treating them as
            # catch-all avoids giant useless buckets.
            if len(token) >= 3:
                tier._buckets.setdefault(token, []).append(rule)
            else:
                tier._catch_all.append(rule)

    def _build_automaton(self) -> TokenAutomaton:
        return TokenAutomaton(
            hosts=[*self._blocking._hosts, *self._exceptions._hosts],
            tokens=[*self._blocking._buckets, *self._exceptions._buckets],
        )

    # -- introspection ----------------------------------------------------
    @property
    def list_names(self) -> tuple[str, ...]:
        return tuple(self._lists)

    @property
    def rule_count(self) -> int:
        return len(self._blocking) + len(self._exceptions)

    @property
    def revision(self) -> int:
        """Bumped on every rule addition — lets a wrapping decision cache
        (:class:`~repro.filterlists.cache.CachedMatcher`, which every
        oracle decides through) detect in-place mutation and invalidate
        itself."""
        return self._revision

    @property
    def fast_path_rule_count(self) -> int:
        """Rules matched via the host-anchor dict, never by regex."""
        return (
            self._blocking.host_rule_count + self._exceptions.host_rule_count
        )

    @property
    def automaton(self) -> TokenAutomaton:
        """The candidate-generation automaton."""
        return self._automaton

    @property
    def unsupported_counts(self) -> dict[str, int]:
        """Rules skipped at indexing time, counted per unsupported reason.

        A rule carrying several unsupported markers counts once per
        reason; ``unsupported_rule_count`` is the per-rule total.  This is
        the coverage-gap ledger surfaced by ``ParsedList``, ``trackersift
        compile`` and the serve ``/metrics`` payload — silent rule drops
        are how oracles quietly under-block.
        """
        return dict(self._unsupported_counts)

    @property
    def unsupported_rule_count(self) -> int:
        """How many rules were skipped as unsupported (deduplicated)."""
        return self._unsupported_rules

    @property
    def domain_sensitive(self) -> bool:
        """True when any loaded rule carries ``domain=`` options.

        When False, the match decision provably ignores
        ``RequestContext.page_host`` (it is only ever read by the
        ``domain=`` checks in :meth:`RuleOptions.permits`), so a decision
        cache may drop the page host from its key — the property the
        memoized labeling path (:mod:`repro.filterlists.cache`) relies on
        for cross-site hits.
        """
        return self._domain_sensitive

    def digit_runs_irrelevant_for(self, url: str) -> bool:
        """May a cache collapse digit runs in this URL's path and query?

        True when no loaded rule's decision on ``url`` can depend on which
        digits its path carries: digit runs are never ABP separators, a
        digit-free literal cannot overlap one, and the only rules with
        path-reachable digits are host-anchored ones whose host segment
        does not occur in ``url``.  :mod:`repro.filterlists.cache` uses
        this to merge e.g. ``/pixel/207.gif`` and ``/pixel/501.gif`` into
        one memoized decision.
        """
        if self._digit_anywhere:
            return False
        if not self._digit_hosts:
            return True
        lowered = url.lower()
        return not any(host in lowered for host in self._digit_hosts)
