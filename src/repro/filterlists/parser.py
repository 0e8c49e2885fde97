"""Filter-list text parser.

Turns EasyList/EasyPrivacy-style text into :class:`NetworkRule` objects.
Comment lines (``!``), metadata (``[Adblock Plus 2.0]`` headers) and cosmetic
rules (``##``, ``#@#``, ``#?#`` …) are recognised and skipped — TrackerSift
only consumes *network* rules, because its oracle labels network requests.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field

from .rules import NetworkRule, ResourceType, RuleOptions, RuleParseError

__all__ = ["ParsedList", "parse_filter_list", "parse_rule_line"]

_SUPPORTED_FLAGS = {
    "third-party": ("third_party", True),
    "3p": ("third_party", True),
    "~third-party": ("third_party", False),
    "first-party": ("third_party", False),
    "1p": ("third_party", False),
    "~first-party": ("third_party", True),
}

# Any cosmetic-rule separator: ``##``, ``#@#``, ``#?#``, ``#$#``, ``#%#``.
_COSMETIC_RE = re.compile(r"#[@?$%]?#")

# What one stripped line of list text is (see _classify).
_BLANK, _COMMENT, _COSMETIC, _NETWORK = "blank", "comment", "cosmetic", "network"


@dataclass
class ParsedList:
    """The result of parsing one filter list."""

    name: str
    rules: list[NetworkRule] = field(default_factory=list)
    comment_count: int = 0
    cosmetic_count: int = 0
    error_lines: list[str] = field(default_factory=list)

    @property
    def blocking_rules(self) -> list[NetworkRule]:
        return [r for r in self.rules if not r.is_exception]

    @property
    def exception_rules(self) -> list[NetworkRule]:
        return [r for r in self.rules if r.is_exception]

    @property
    def unsupported_counts(self) -> dict[str, int]:
        """Rules the matcher will skip, counted per unsupported reason.

        A rule carrying several unsupported markers counts once per
        reason.  Surfacing this here (and in ``FilterMatcher``,
        ``trackersift compile`` and the serve ``/metrics`` payload) is
        what keeps dropped rules from becoming a silent coverage gap.
        """
        counts: dict[str, int] = {}
        for rule in self.rules:
            for reason in rule.options.unsupported:
                counts[reason] = counts.get(reason, 0) + 1
        return counts

    @property
    def unsupported_rule_count(self) -> int:
        """How many parsed rules the matcher will skip (deduplicated)."""
        return sum(1 for rule in self.rules if not rule.supported)


def _split_options(line: str) -> tuple[str, str | None]:
    """Split ``pattern$options`` at the *last* unescaped ``$``.

    ABP defines the options separator as the last ``$`` that is followed by
    valid option syntax; patterns may legitimately contain ``$`` (rare) and
    regex rules start with ``/``, which we treat as unsupported.
    """
    idx = line.rfind("$")
    if idx < 0 or idx == len(line) - 1:
        return line, None
    options = line[idx + 1 :]
    # Heuristic from real parsers: an options blob is a comma list of
    # [~]name or name=value items without URL-ish characters.
    for item in options.split(","):
        item = item.strip()
        if not item:
            return line, None
        name = item.lstrip("~").split("=", 1)[0]
        if not name.replace("-", "").replace("_", "").isalnum():
            return line, None
    return line[:idx], options


# Interned options: rules overwhelmingly repeat a handful of option blobs
# (or carry none at all), so sharing one frozen RuleOptions per distinct
# blob makes a pickled matcher (an oracle subclass shipped to fan-out
# workers inside its WorkerSpec) store each options object once instead of
# once per rule.  Value-equal and immutable, so sharing is unobservable.
_DEFAULT_OPTIONS = RuleOptions()
_OPTIONS_CACHE: dict[str, RuleOptions] = {}
_OPTIONS_CACHE_MAX = 4096


def _parse_options(options_text: str) -> RuleOptions:
    cached = _OPTIONS_CACHE.get(options_text)
    if cached is None:
        cached = _build_options(options_text)
        if len(_OPTIONS_CACHE) < _OPTIONS_CACHE_MAX:
            _OPTIONS_CACHE[options_text] = cached
    return cached


def _build_options(options_text: str) -> RuleOptions:
    include_types: set[ResourceType] = set()
    exclude_types: set[ResourceType] = set()
    third_party: bool | None = None
    include_domains: list[str] = []
    exclude_domains: list[str] = []
    match_case = False
    unsupported: list[str] = []

    for raw in options_text.split(","):
        item = raw.strip().lower()
        if not item:
            continue
        if item in _SUPPORTED_FLAGS:
            _, value = _SUPPORTED_FLAGS[item]
            third_party = value
            continue
        if item == "match-case":
            match_case = True
            continue
        if item.startswith("domain="):
            for dom in item[len("domain=") :].split("|"):
                dom = dom.strip()
                if not dom:
                    continue
                if dom.startswith("~"):
                    exclude_domains.append(dom[1:])
                else:
                    include_domains.append(dom)
            continue
        negated = item.startswith("~")
        type_name = item[1:] if negated else item
        resource = ResourceType.from_option(type_name)
        if resource is not None:
            (exclude_types if negated else include_types).add(resource)
            continue
        unsupported.append(item)

    return RuleOptions(
        include_types=frozenset(include_types),
        exclude_types=frozenset(exclude_types),
        third_party=third_party,
        include_domains=tuple(sorted(include_domains)),
        exclude_domains=tuple(sorted(exclude_domains)),
        match_case=match_case,
        unsupported=tuple(unsupported),
    )


def _classify(line: str) -> tuple[str, str]:
    """Strip one line of list text and say what kind of line it is."""
    line = line.strip()
    if not line:
        return _BLANK, line
    if line[0] in "![":
        return _COMMENT, line
    if _COSMETIC_RE.search(line):
        return _COSMETIC, line
    return _NETWORK, line


def parse_rule_line(line: str, list_name: str = "") -> NetworkRule | None:
    """Parse a single line; returns ``None`` for comments/cosmetics/blanks.

    Raises :class:`RuleParseError` for lines that are clearly intended as
    network rules but are malformed (e.g. empty pattern after options).
    """
    kind, line = _classify(line)
    if kind is not _NETWORK:
        return None
    return _parse_network_rule(line, list_name)


def _parse_network_rule(line: str, list_name: str) -> NetworkRule:
    """Parse a stripped line already classified as a network rule."""
    text = line
    is_exception = line.startswith("@@")
    if is_exception:
        line = line[2:]

    pattern, options_text = _split_options(line)
    options = _parse_options(options_text) if options_text else _DEFAULT_OPTIONS

    if pattern.startswith("/") and pattern.endswith("/") and len(pattern) > 2:
        # Raw-regex rules exist in EasyList; we record them as unsupported
        # so the matcher never silently mis-handles them.  The pattern text
        # keeps its ``/…/`` delimiters: stripping them would leave a
        # misleading substring pattern (``/track/v1/`` is a regex, not the
        # literal ``track/v1``) in every introspection surface downstream.
        options = dataclasses.replace(
            options, unsupported=("regex-rule",) + options.unsupported
        )

    if not pattern:
        raise RuleParseError(f"empty pattern in rule: {text!r}")
    return NetworkRule(
        text=text,
        pattern=pattern,
        is_exception=is_exception,
        options=options,
        list_name=list_name,
    )


def parse_filter_list(data: str, name: str = "") -> ParsedList:
    """Parse a full filter-list document, tolerating bad lines.

    Mirrors real content blockers: one malformed community rule must not
    take down the whole list, so parse errors are collected, not raised.
    """
    parsed = ParsedList(name=name)
    for line in data.splitlines():
        kind, stripped = _classify(line)
        if kind is _NETWORK:
            try:
                parsed.rules.append(_parse_network_rule(stripped, name))
            except RuleParseError:
                parsed.error_lines.append(stripped)
        elif kind is _COMMENT:
            parsed.comment_count += 1
        elif kind is _COSMETIC:
            parsed.cosmetic_count += 1
    return parsed
