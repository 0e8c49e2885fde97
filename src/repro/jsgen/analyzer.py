"""Lightweight static analysis of JavaScript source.

A small, dependency-free lexer plus two passes over the token stream:

* **function inventory** — declarations (``function name(...)``),
  assignments (``x.y = function (...)``), and anonymous function
  expressions, each with its source line and the span of its body;
* **network-call sites** — ``fetch(url)``, ``navigator.sendBeacon(url)``,
  ``img.src = url``, ``s.src = url`` …, attributed to the enclosing
  function.

This is what lets the surrogate pipeline *verify* its output: analyze the
generated surrogate and check that removed methods contain no network
calls.  The lexer handles strings (all three quote kinds), line/block
comments, and regex-free token classes — enough for the source this
library emits and for hand-written test snippets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Token", "tokenize", "JsSyntaxError", "FunctionInfo", "ScriptAnalysis", "analyze_source"]

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_CHARS = _IDENT_START | set("0123456789")
_NETWORK_CALLEES = {"fetch", "sendBeacon", "open"}


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token with its position."""

    kind: str  # "ident", "string", "punct", "number"
    value: str
    line: int
    offset: int


class JsSyntaxError(ValueError):
    """Raised for unterminated strings/comments."""


def tokenize(source: str) -> list[Token]:
    """Lex JavaScript into identifiers, strings, numbers and punctuation."""
    tokens: list[Token] = []
    i = 0
    line = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end < 0 else end
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise JsSyntaxError(f"unterminated block comment at line {line}")
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if ch in "'\"`":
            j = i + 1
            while j < n:
                if source[j] == "\\":
                    j += 2
                    continue
                if source[j] == ch:
                    break
                if source[j] == "\n" and ch != "`":
                    raise JsSyntaxError(f"unterminated string at line {line}")
                j += 1
            else:
                raise JsSyntaxError(f"unterminated string at line {line}")
            tokens.append(Token("string", source[i + 1 : j], line, i))
            line += source.count("\n", i, j)
            i = j + 1
            continue
        if ch in _IDENT_START:
            j = i + 1
            while j < n and source[j] in _IDENT_CHARS:
                j += 1
            tokens.append(Token("ident", source[i:j], line, i))
            i = j
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and (source[j].isdigit() or source[j] in ".xXabcdefABCDEF"):
                j += 1
            tokens.append(Token("number", source[i:j], line, i))
            i = j
            continue
        tokens.append(Token("punct", ch, line, i))
        i += 1
    return tokens


@dataclass
class FunctionInfo:
    """One function found in the source."""

    name: str  # "" for anonymous
    line: int
    body_start: int  # token index of the opening brace
    body_end: int  # token index of the matching closing brace
    network_urls: list[str] = field(default_factory=list)
    #: character offsets of the body braces, for source rewriting
    char_start: int = 0
    char_end: int = 0

    @property
    def has_network_calls(self) -> bool:
        return bool(self.network_urls)


@dataclass
class ScriptAnalysis:
    """The full inventory for one source file."""

    functions: list[FunctionInfo] = field(default_factory=list)
    #: URLs referenced by network calls outside any function
    toplevel_network_urls: list[str] = field(default_factory=list)

    def function(self, name: str) -> FunctionInfo:
        for info in self.functions:
            if info.name == name:
                return info
        raise KeyError(name)

    def function_names(self) -> list[str]:
        return [f.name for f in self.functions if f.name]

    def all_network_urls(self) -> list[str]:
        urls = list(self.toplevel_network_urls)
        for info in self.functions:
            urls.extend(info.network_urls)
        return urls


def _match_brace(tokens: list[Token], open_index: int) -> int:
    depth = 0
    for index in range(open_index, len(tokens)):
        token = tokens[index]
        if token.kind != "punct":
            continue
        if token.value == "{":
            depth += 1
        elif token.value == "}":
            depth -= 1
            if depth == 0:
                return index
    raise JsSyntaxError(f"unbalanced braces from token {open_index}")


def _function_name(tokens: list[Token], func_index: int) -> str:
    """Name for the ``function`` keyword at ``func_index``.

    Handles ``function name(...)``, ``x = function(...)`` and
    ``x.y = function(...)`` / ``name: function(...)`` forms.
    """
    after = tokens[func_index + 1] if func_index + 1 < len(tokens) else None
    if after is not None and after.kind == "ident":
        return after.value
    # look left for `<name> (= or :) function`
    i = func_index - 1
    if i >= 0 and tokens[i].kind == "punct" and tokens[i].value in "=:":
        parts: list[str] = []
        j = i - 1
        while j >= 0:
            token = tokens[j]
            if token.kind == "ident":
                parts.append(token.value)
                if j >= 1 and tokens[j - 1].kind == "punct" and tokens[j - 1].value == ".":
                    j -= 2
                    continue
            break
        if parts:
            name = ".".join(reversed(parts))
            # drop a leading `window.` namespace qualifier
            return name.removeprefix("window.")
    return ""


def _find_open_brace(tokens: list[Token], start: int) -> int:
    for index in range(start, len(tokens)):
        if tokens[index].kind == "punct" and tokens[index].value == "{":
            return index
    raise JsSyntaxError("function without body")


def _collect_network_urls(tokens: list[Token], start: int, end: int) -> list[str]:
    """URLs referenced by network idioms between two token indices."""
    urls: list[str] = []
    for i in range(start, end):
        token = tokens[i]
        if token.kind == "ident" and token.value in _NETWORK_CALLEES:
            # fetch("url") / sendBeacon("url") / xhr.open("GET", "url")
            for j in range(i + 1, min(i + 8, end)):
                if tokens[j].kind == "string" and "://" in tokens[j].value:
                    urls.append(tokens[j].value)
                    break
        elif (
            token.kind == "ident"
            and token.value in ("src", "href")
            and i + 2 < end
            and tokens[i + 1].kind == "punct"
            and tokens[i + 1].value == "="
            and tokens[i + 2].kind == "string"
        ):
            urls.append(tokens[i + 2].value)
    return urls


def analyze_source(source: str) -> ScriptAnalysis:
    """Build the function + network inventory for one source file."""
    tokens = tokenize(source)
    analysis = ScriptAnalysis()
    covered: list[tuple[int, int]] = []

    for index, token in enumerate(tokens):
        if token.kind != "ident" or token.value != "function":
            continue
        open_brace = _find_open_brace(tokens, index)
        close_brace = _match_brace(tokens, open_brace)
        name = _function_name(tokens, index)
        info = FunctionInfo(
            name=name,
            line=token.line,
            body_start=open_brace,
            body_end=close_brace,
            char_start=tokens[open_brace].offset,
            char_end=tokens[close_brace].offset,
        )
        info.network_urls = _collect_network_urls(tokens, open_brace, close_brace)
        analysis.functions.append(info)
        covered.append((open_brace, close_brace))

    # Top-level calls: outside every *named* function body.  The outermost
    # IIFE wrapper (anonymous) does not count as enclosing.
    named_spans = [
        (f.body_start, f.body_end) for f in analysis.functions if f.name
    ]
    all_urls_positions: list[tuple[int, str]] = []
    for i, token in enumerate(tokens):
        if token.kind == "ident" and token.value in _NETWORK_CALLEES:
            for j in range(i + 1, min(i + 8, len(tokens))):
                if tokens[j].kind == "string" and "://" in tokens[j].value:
                    all_urls_positions.append((i, tokens[j].value))
                    break
    for position, url in all_urls_positions:
        inside = any(start < position < end for start, end in named_spans)
        if not inside:
            # also exclude anonymous function bodies that are real handlers
            anon_spans = [
                (f.body_start, f.body_end)
                for f in analysis.functions
                if not f.name and _is_handler(tokens, f)
            ]
            if not any(start < position < end for start, end in anon_spans):
                analysis.toplevel_network_urls.append(url)
    return analysis


def _is_handler(tokens: list[Token], info: FunctionInfo) -> bool:
    """Heuristic: an anonymous function passed as an argument (callback),
    as opposed to an IIFE wrapper whose body runs at top level."""
    # immediately-invoked: `(function () {...})(...)` — body is top-level
    end = info.body_end
    if (
        end + 2 < len(tokens)
        and tokens[end + 1].kind == "punct"
        and tokens[end + 1].value == ")"
        and tokens[end + 2].kind == "punct"
        and tokens[end + 2].value == "("
    ):
        return False
    # find the `function` keyword before the body and look one token left
    for index in range(info.body_start - 1, -1, -1):
        token = tokens[index]
        if token.kind == "ident" and token.value == "function":
            if index == 0:
                return False
            prev = tokens[index - 1]
            return prev.kind == "punct" and prev.value in "(,"
    return False
