"""The reference oracle: the tokenize-then-probe walk.

Production matchers generate candidate buckets with a
:class:`~repro.filterlists.matcher.TokenAutomaton` scan (or its mapped
form in an oracle image).  This module keeps the walk the automaton
replaced — enumerate every alphanumeric run and every host anchor of the
URL, then probe the bucket dicts with each — as the specification the
automaton is held to: the hypothesis properties, ``scripts/matcher_smoke.py``
and ``benchmarks/bench_matcher.py`` all compare against
:class:`ReferenceMatcher`.  It indexes rules exactly like
:class:`~repro.filterlists.matcher.FilterMatcher` and decides through the
same shared decision loop; only candidate generation differs.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.filterlists.matcher import (
    _AUTH_DELIM_RE,
    _AUTH_RUN_RE,
    _URL_RUN_RE,
    FilterMatcher,
    RequestShape,
)

__all__ = [
    "ReferenceMatcher",
    "WALK",
    "candidates",
    "digit_segment",
    "extract_token",
    "host_anchor_keys",
    "url_tokens",
]

# The scheme prefix ``||`` anchors under (lowercased form of _HOST_ANCHOR).
_SCHEME_RE = re.compile(r"^[a-z][a-z0-9.+-]*://")
_TOKEN_RE = re.compile(r"[a-z0-9]+")
_DIGIT_RE = re.compile(r"\d")


def extract_token(pattern: str) -> str:
    """Reference for :func:`repro.filterlists.rules._extract_token`: strip
    the anchors, then walk every maximal run of the lowered body and keep
    the first longest one whose two ends are delimited (an anchor, or a
    neighbour that is not ``*``)."""
    body = pattern
    host_anchor = start_anchor = end_anchor = False
    if body.startswith("||"):
        host_anchor = True
        body = body[2:]
    elif body.startswith("|"):
        start_anchor = True
        body = body[1:]
    if body.endswith("|") and body:
        end_anchor = True
        body = body[:-1]
    body = body.lower()
    best = ""
    for match in _TOKEN_RE.finditer(body):
        start, end = match.span()
        left_ok = (
            host_anchor or start_anchor if start == 0 else body[start - 1] != "*"
        )
        right_ok = end_anchor if end == len(body) else body[end] != "*"
        if left_ok and right_ok and end - start > len(best):
            best = match.group()
    return best


def digit_segment(pattern: str) -> str | None:
    """Reference for :func:`repro.filterlists.matcher._digit_segment`:
    scan a ``||`` pattern one character at a time for the end of its host
    segment, then look for digits past it."""
    if pattern.startswith("||"):
        body = pattern[2:]
        cut = len(body)
        for index, ch in enumerate(body):
            if ch in "/?^*":
                cut = index
                break
        if _DIGIT_RE.search(body, cut):
            host = body[:cut].lower()
            return host if host else ""
        return None
    if _DIGIT_RE.search(pattern.lstrip("|")):
        return ""
    return None


def url_tokens(lowered_url: str) -> tuple[str, ...]:
    """Maximal alphanumeric runs of a *pre-lowercased* URL, deduplicated,
    in URL order — *never* set order, so candidate iteration (and
    therefore rule attribution) is hash-seed independent."""
    seen: set[str] = set()
    ordered: list[str] = []
    for match in _URL_RUN_RE.finditer(lowered_url):
        token = match.group()
        if token not in seen:
            seen.add(token)
            ordered.append(token)
    return tuple(ordered)


def host_anchor_keys(lowered_url: str) -> tuple[str, ...]:
    """Every host literal ``h`` for which ``||h^`` matches this URL.

    Derivation from the compiled form (``rules._HOST_ANCHOR`` + literal +
    ``rules._SEPARATOR``): the match must start right after
    ``scheme://(junk-without-/?#-ending-in-dot)?``, so ``h`` begins at the
    authority's first character or immediately after a ``.``; and the
    character after ``h`` must be a separator or the end, so ``h`` ends
    exactly where a maximal non-separator run ends (hostname characters are
    all non-separators, so ``h`` can never stop mid-run).  The keys are
    therefore: the authority's leading run, plus every dot-suffix of every
    run.  Hash-looking authorities (``user@host``, ports) fall out
    correctly because runs are split on the same separator class the regex
    uses.  :meth:`TokenAutomaton.scan` applies the same positional
    argument as lookaround assertions and yields only the keys with a
    bucket behind them.
    """
    scheme = _SCHEME_RE.match(lowered_url)
    if scheme is None:
        return ()
    start = scheme.end()
    delim = _AUTH_DELIM_RE.search(lowered_url, start)
    end = delim.start() if delim is not None else len(lowered_url)
    authority = lowered_url[start:end]
    seen: set[str] = set()
    keys: list[str] = []
    for run_match in _AUTH_RUN_RE.finditer(authority):
        run = run_match.group()
        if run_match.start() == 0 and run not in seen:
            seen.add(run)
            keys.append(run)
        dot = run.find(".")
        while dot != -1:
            suffix = run[dot + 1 :]
            if suffix and suffix not in seen:
                seen.add(suffix)
                keys.append(suffix)
            dot = run.find(".", dot + 1)
    return tuple(keys)


class _WalkScan:
    """Stands in for a :class:`TokenAutomaton`: instead of the keys that
    select a bucket, a scan yields the full walk enumeration."""

    def scan(
        self, lowered_url: str, auth_start: int, auth_end: int
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return host_anchor_keys(lowered_url), url_tokens(lowered_url)


#: The walk, usable wherever a ``RequestShape`` takes an automaton.
WALK = _WalkScan()


class ReferenceMatcher(FilterMatcher):
    """A :class:`FilterMatcher` whose candidates come from the walk."""

    def _build_automaton(self) -> _WalkScan:
        return WALK


def candidates(index, shape: RequestShape) -> Iterator:
    """Every rule an index would consider for ``shape``, in the
    deterministic attribution order: host-dict hits in host-key order,
    then the catch-all bucket, then token buckets in URL-token order."""
    for key in shape.host_keys:
        yield from index._hosts.get(key, ())
    yield from index._catch_all
    for token in shape.tokens:
        yield from index._buckets.get(token, ())
