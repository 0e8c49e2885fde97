"""URL parsing and normalisation.

TrackerSift's analysis is entirely keyed on URLs: request URLs are matched
against filter lists, and the domain / hostname granularities are derived
from the request URL's host component.  This module provides a small,
dependency-free URL model tailored to those needs.

The parser is deliberately stricter than a browser address-bar parser: it
handles the ``scheme://host[:port]/path[?query][#fragment]`` shape emitted by
DevTools network events (which always report absolute, already-resolved
URLs), plus scheme-relative URLs (``//host/path``) that appear inside filter
rules.
"""

from __future__ import annotations

from .._record import FrozenRecord, set_field

__all__ = ["URL", "URLError", "parse_url", "normalize_host"]

_DEFAULT_PORTS = {
    "http": 80,
    "https": 443,
    "ws": 80,
    "wss": 443,
    "ftp": 21,
}

_SCHEME_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789+-.")

#: ASCII a host may not hold once IDNA-encoded (the WHATWG URL standard's
#: forbidden domain code points, printable part).
_FORBIDDEN_IDNA_CHARS = frozenset(" #%/:<>?@[\\]^|")


class URLError(ValueError):
    """Raised when a string cannot be parsed as an absolute URL."""


class URL(FrozenRecord):
    """A parsed absolute URL.

    Attributes mirror the generic URI components.  ``host`` is always
    lower-case and never contains a port; ``port`` is ``None`` when the URL
    used the scheme's default port (or no port at all).
    """

    __slots__ = (
        "scheme", "host", "path", "query", "fragment", "port", "username", "password"
    )

    scheme: str
    host: str
    path: str
    query: str
    fragment: str
    port: int | None
    username: str
    password: str

    def __init__(
        self,
        scheme: str,
        host: str,
        path: str = "/",
        query: str = "",
        fragment: str = "",
        port: int | None = None,
        username: str = "",
        password: str = "",
    ) -> None:
        set_field(self, "scheme", scheme)
        set_field(self, "host", host)
        set_field(self, "path", path)
        set_field(self, "query", query)
        set_field(self, "fragment", fragment)
        set_field(self, "port", port)
        set_field(self, "username", username)
        set_field(self, "password", password)

    def __repr__(self) -> str:
        # Every field but the password, which a log line must not carry.
        return (
            f"URL(scheme={self.scheme!r}, host={self.host!r}, path={self.path!r}, "
            f"query={self.query!r}, fragment={self.fragment!r}, port={self.port!r}, "
            f"username={self.username!r})"
        )

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.href

    @property
    def href(self) -> str:
        """Serialise back to a string (normalised form)."""
        auth = ""
        if self.username:
            auth = self.username
            if self.password:
                auth += f":{self.password}"
            auth += "@"
        port = f":{self.port}" if self.port is not None else ""
        query = f"?{self.query}" if self.query else ""
        fragment = f"#{self.fragment}" if self.fragment else ""
        return f"{self.scheme}://{auth}{self.host}{port}{self.path}{query}{fragment}"

    @property
    def origin(self) -> str:
        """``scheme://host[:port]`` — the security origin of the URL."""
        port = f":{self.port}" if self.port is not None else ""
        return f"{self.scheme}://{self.host}{port}"

    @property
    def hostname(self) -> str:
        """Alias for :attr:`host` (matching DevTools naming)."""
        return self.host

    @property
    def is_secure(self) -> bool:
        return self.scheme in ("https", "wss")

    def with_path(self, path: str) -> "URL":
        """Return a copy of this URL with a different path."""
        if not path.startswith("/"):
            path = "/" + path
        return URL(
            self.scheme, self.host, path, self.query, self.fragment,
            self.port, self.username, self.password,
        )

    def without_fragment(self) -> "URL":
        if not self.fragment:
            return self
        return URL(
            self.scheme, self.host, self.path, self.query, "",
            self.port, self.username, self.password,
        )


def normalize_host(host: str) -> str:
    """Normalise a hostname: lower-case, strip trailing dot, IDNA-encode.

    Raises :class:`URLError` for empty or syntactically invalid hosts.
    """
    host = host.strip().rstrip(".").lower()
    if not host:
        raise URLError("empty host")
    if any(c.isspace() for c in host):
        raise URLError(f"whitespace in host: {host!r}")
    # IDNA-encode non-ASCII labels, mirroring what browsers report.
    if not host.isascii():
        try:
            encoded = host.encode("idna").decode("ascii")
        except UnicodeError as exc:
            raise URLError(f"invalid international host: {host!r}") from exc
        # Compatibility mapping can turn a code point into an ASCII
        # delimiter ("／" -> "/", "¨" -> a space): such a host would parse
        # differently when normalized again, so it is not a host.
        if not _FORBIDDEN_IDNA_CHARS.isdisjoint(encoded):
            raise URLError(f"invalid international host: {host!r}")
        host = encoded
    if host.startswith("[") and host.endswith("]"):
        return host  # IPv6 literal, keep as-is
    for label in host.split("."):
        if not label:
            raise URLError(f"empty label in host: {host!r}")
        if len(label) > 63:
            raise URLError(f"label too long in host: {host!r}")
    if len(host) > 253:
        raise URLError(f"host too long: {host!r}")
    return host


def _split_scheme(raw: str) -> tuple[str, str]:
    """Split ``scheme://rest``; scheme-relative URLs default to https."""
    if raw.startswith("//"):
        return "https", raw[2:]
    sep = raw.find("://")
    if sep <= 0:
        raise URLError(f"not an absolute URL: {raw!r}")
    scheme = raw[:sep].lower()
    if not scheme[0].isalpha() or not set(scheme) <= _SCHEME_CHARS:
        raise URLError(f"invalid scheme: {scheme!r}")
    return scheme, raw[sep + 3 :]


def _split_authority(rest: str) -> tuple[str, str]:
    """Split the authority from path/query/fragment."""
    for i, ch in enumerate(rest):
        if ch in "/?#":
            return rest[:i], rest[i:]
    return rest, ""


def _parse_authority(authority: str) -> tuple[str, str, str, int | None]:
    username = password = ""
    if "@" in authority:
        userinfo, _, authority = authority.rpartition("@")
        username, _, password = userinfo.partition(":")
    host = authority
    port: int | None = None
    if host.startswith("["):  # IPv6 literal, possibly with port
        close = host.find("]")
        if close < 0:
            raise URLError(f"unterminated IPv6 literal: {authority!r}")
        literal, tail = host[: close + 1], host[close + 1 :]
        if tail:
            if not tail.startswith(":"):
                raise URLError(f"garbage after IPv6 literal: {authority!r}")
            port = _parse_port(tail[1:])
        host = literal
    elif ":" in host:
        host, _, port_text = host.rpartition(":")
        port = _parse_port(port_text)
    return normalize_host(host), username, password, port


def _parse_port(text: str) -> int:
    if not text.isdigit():
        raise URLError(f"invalid port: {text!r}")
    port = int(text)
    if not 0 < port <= 65535:
        raise URLError(f"port out of range: {port}")
    return port


def parse_url(raw: str) -> URL:
    """Parse an absolute (or scheme-relative) URL string.

    >>> parse_url("https://CDN.Google.com/ads-1?x=1#top").host
    'cdn.google.com'
    """
    if not isinstance(raw, str):
        raise URLError(f"expected str, got {type(raw).__name__}")
    raw = raw.strip()
    if not raw:
        raise URLError("empty URL")
    scheme, rest = _split_scheme(raw)
    authority, tail = _split_authority(rest)
    if not authority:
        raise URLError(f"missing host: {raw!r}")
    host, username, password, port = _parse_authority(authority)
    if port == _DEFAULT_PORTS.get(scheme):
        port = None

    fragment = ""
    if "#" in tail:
        tail, _, fragment = tail.partition("#")
    query = ""
    if "?" in tail:
        tail, _, query = tail.partition("?")
    path = tail or "/"
    if not path.startswith("/"):
        path = "/" + path
    return URL(
        scheme=scheme,
        host=host,
        path=path,
        query=query,
        fragment=fragment,
        port=port,
        username=username,
        password=password,
    )
