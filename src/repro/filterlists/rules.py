"""Adblock Plus network-rule model.

EasyList and EasyPrivacy are written in the Adblock Plus filter syntax.
TrackerSift uses them as its *test oracle*: a network request that matches a
blocking rule (and no exception rule) is labeled tracking.  This module
models a single network rule and compiles its pattern to a regular
expression lazily, on the first match attempt.  Laziness matters at list
scale: the token-indexed matcher only ever consults the handful of rules
whose bucket a URL selects, and pure host-anchor rules (the bulk of a real
list) are matched by hash lookup without touching a regex at all — so most
of a large list's rules never pay compilation, which is what keeps matcher
construction cheap (gated in ``benchmarks/bench_matcher.py``).

Supported syntax (the subset that covers network rules):

* ``||host`` anchor — matches the start of the hostname (any subdomain),
* ``|`` anchors at pattern start/end,
* ``^`` separator placeholder,
* ``*`` wildcard,
* ``@@`` exception-rule prefix,
* ``$`` options: resource types (``script``, ``image``, ``stylesheet``,
  ``xmlhttprequest``, ``subdocument``, ``ping``, ``websocket``, ``font``,
  ``media``, ``other`` and their ``~`` negations), ``third-party`` / ``3p``
  (and negations), ``domain=a.com|~b.com``, ``match-case``.

Unsupported options mark the rule as such; the matcher skips unsupported
rules instead of mis-applying them (the behaviour of real content blockers
for options they do not implement).
"""

from __future__ import annotations

import re
from enum import Enum

from .._record import FrozenRecord, set_field
from ..urlkit import host_matches_domain

__all__ = [
    "ResourceType",
    "RequestContext",
    "RuleOptions",
    "NetworkRule",
    "RuleParseError",
]


class ResourceType(str, Enum):
    """DevTools-style resource types, as used in rule options and events."""

    SCRIPT = "script"
    IMAGE = "image"
    STYLESHEET = "stylesheet"
    XHR = "xmlhttprequest"
    SUBDOCUMENT = "subdocument"
    PING = "ping"
    WEBSOCKET = "websocket"
    FONT = "font"
    MEDIA = "media"
    DOCUMENT = "document"
    OTHER = "other"

    @classmethod
    def from_option(cls, name: str) -> "ResourceType | None":
        aliases = {
            "xhr": cls.XHR,
            "css": cls.STYLESHEET,
            "frame": cls.SUBDOCUMENT,
            "beacon": cls.PING,
        }
        if name in aliases:
            return aliases[name]
        try:
            return cls(name)
        except ValueError:
            return None


class RuleParseError(ValueError):
    """Raised for a line that looks like a network rule but cannot parse."""


class RequestContext(FrozenRecord):
    """Everything the matcher needs to know about one network request."""

    __slots__ = ("url", "resource_type", "page_host", "third_party")

    url: str
    resource_type: ResourceType
    page_host: str
    third_party: bool

    def __init__(
        self,
        url: str,
        resource_type: ResourceType = ResourceType.OTHER,
        page_host: str = "",
        third_party: bool = True,
    ) -> None:
        set_field(self, "url", url)
        set_field(self, "resource_type", resource_type)
        set_field(self, "page_host", page_host)
        set_field(self, "third_party", third_party)


class RuleOptions(FrozenRecord):
    """Parsed ``$`` options of a rule."""

    __slots__ = (
        "include_types",
        "exclude_types",
        "third_party",
        "include_domains",
        "exclude_domains",
        "match_case",
        "unsupported",
    )

    include_types: frozenset[ResourceType]
    exclude_types: frozenset[ResourceType]
    third_party: bool | None
    include_domains: tuple[str, ...]
    exclude_domains: tuple[str, ...]
    match_case: bool
    unsupported: tuple[str, ...]

    def __init__(
        self,
        include_types: frozenset[ResourceType] = frozenset(),
        exclude_types: frozenset[ResourceType] = frozenset(),
        third_party: bool | None = None,
        include_domains: tuple[str, ...] = (),
        exclude_domains: tuple[str, ...] = (),
        match_case: bool = False,
        unsupported: tuple[str, ...] = (),
    ) -> None:
        set_field(self, "include_types", include_types)
        set_field(self, "exclude_types", exclude_types)
        set_field(self, "third_party", third_party)
        set_field(self, "include_domains", include_domains)
        set_field(self, "exclude_domains", exclude_domains)
        set_field(self, "match_case", match_case)
        set_field(self, "unsupported", unsupported)

    def permits(self, context: RequestContext) -> bool:
        """Check the non-pattern constraints against a request."""
        if self.include_types and context.resource_type not in self.include_types:
            return False
        if context.resource_type in self.exclude_types:
            return False
        if self.third_party is not None and context.third_party != self.third_party:
            return False
        if self.exclude_domains and any(
            host_matches_domain(context.page_host, d) for d in self.exclude_domains
        ):
            return False
        if self.include_domains and not any(
            host_matches_domain(context.page_host, d) for d in self.include_domains
        ):
            return False
        return True


#: The options of a rule without ``$`` options; immutable, so shared.
_DEFAULT_OPTIONS = RuleOptions()

# ``^`` in ABP matches a "separator": anything that is not a letter, digit or
# one of ``_ - . %`` — or the end of the URL.
_SEPARATOR = r"(?:[^a-zA-Z0-9_\-.%]|$)"
# ``||`` anchors at a hostname-label boundary under any scheme.
_HOST_ANCHOR = r"^[a-z][a-z0-9.+-]*://(?:[^/?#]*\.)?"
# A maximal ``[a-z0-9]+`` run with a delimiter on both sides: a real
# character that is neither alphanumeric nor ``*``.  Applied to the whole
# lowered pattern, anchors are such characters (``|``), so an anchored
# edge counts as delimited and a bare pattern edge does not.
_DELIMITED_RUN_RE = re.compile(r"(?<=[^a-z0-9*])[a-z0-9]+(?=[^a-z0-9*])")


def _compile_pattern(pattern: str, match_case: bool) -> re.Pattern[str]:
    regex: list[str] = []
    i = 0
    if pattern.startswith("||"):
        regex.append(_HOST_ANCHOR)
        i = 2
    elif pattern.startswith("|"):
        regex.append("^")
        i = 1
    end = len(pattern)
    trailing_anchor = False
    if pattern.endswith("|") and end > i:
        trailing_anchor = True
        end -= 1
    for ch in pattern[i:end]:
        if ch == "*":
            regex.append(".*")
        elif ch == "^":
            regex.append(_SEPARATOR)
        else:
            regex.append(re.escape(ch))
    if trailing_anchor:
        regex.append("$")
    flags = 0 if match_case else re.IGNORECASE
    return re.compile("".join(regex), flags)


def _extract_token(pattern: str) -> str:
    """The longest *delimited* literal token of the pattern, for indexing.

    A token is a maximal ``[a-z0-9]+`` run of the lowercased pattern.  The
    matcher buckets rules by token and consults only the buckets whose
    token appears among the URL's own maximal alphanumeric runs — so a
    token is only index-safe when the pattern guarantees it matches a
    *whole* URL run, i.e. both of its ends are delimited: by a literal
    non-alphanumeric character, a ``^`` separator placeholder, or an
    anchor (``||`` / ``|`` / trailing ``|``).  An end adjacent to a ``*``
    wildcard or to an unanchored pattern edge may continue into more
    alphanumerics in the URL (``track*`` matches ``tracker.example``,
    whose only run is ``tracker``), so such runs must not be indexed —
    rules without any delimited run go to the catch-all bucket.  The
    candidate-completeness property test pins this.
    """
    runs = _DELIMITED_RUN_RE.findall(pattern.lower())
    return max(runs, key=len) if runs else ""


class NetworkRule(FrozenRecord):
    """One parsed network rule (blocking or exception)."""

    # The slots after the fields are not fields, so equality, hashing,
    # repr and pickling ignore them.  The first two hold lazily derived
    # state: the compiled regex and the indexing token, ``None`` until
    # first use.  (``_token`` uses ``None`` as its sentinel because ``""``
    # is a legitimate extracted token for token-free patterns.)
    # ``_parsed`` is True only on a rule the parser built from its own
    # ``text``, so re-parsing that text gives an equal rule; a rule built
    # here directly, or rebuilt by pickle or copy, starts False.
    __slots__ = (
        "text",
        "pattern",
        "is_exception",
        "options",
        "list_name",
        "_regex",
        "_token",
        "_parsed",
    )

    text: str
    pattern: str
    is_exception: bool
    options: RuleOptions
    list_name: str

    def __init__(
        self,
        text: str,
        pattern: str,
        is_exception: bool = False,
        options: RuleOptions = _DEFAULT_OPTIONS,
        list_name: str = "",
    ) -> None:
        set_field(self, "text", text)
        set_field(self, "pattern", pattern)
        set_field(self, "is_exception", is_exception)
        set_field(self, "options", options)
        set_field(self, "list_name", list_name)
        set_field(self, "_regex", None)
        set_field(self, "_token", None)
        set_field(self, "_parsed", False)

    @property
    def token(self) -> str:
        """Indexing token (may be empty for token-free patterns like ``^``),
        extracted on first access and then cached.  The matcher reads it
        while bucketing a fresh rule that is not a pure ``||host^`` literal
        (those go to the host dict by their literal), so only such rules
        pay it at index construction; host-literal rules and
        artifact-loaded rules (whose buckets already exist) never do."""
        token: str | None = self._token
        if token is None:
            token = _extract_token(self.pattern)
            set_field(self, "_token", token)
        return token

    @property
    def regex(self) -> re.Pattern[str]:
        """The compiled pattern, built on first access and then cached."""
        compiled: re.Pattern[str] | None = self._regex
        if compiled is None:
            compiled = _compile_pattern(self.pattern, self.options.match_case)
            set_field(self, "_regex", compiled)
        return compiled

    @property
    def regex_compiled(self) -> bool:
        """Whether the lazy regex has been materialized (introspection)."""
        return self._regex is not None

    @property
    def supported(self) -> bool:
        return not self.options.unsupported

    def matches(self, context: RequestContext) -> bool:
        """True when the rule applies to the given request."""
        if not self.supported:
            return False
        if not self.options.permits(context):
            return False
        return self.regex.search(context.url) is not None

    def matches_url(self, url: str) -> bool:
        """Pattern-only match, ignoring options (useful in tests/tools)."""
        return self.regex.search(url) is not None

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text
