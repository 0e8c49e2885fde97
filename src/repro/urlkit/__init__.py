"""URL, hostname, and registrable-domain (eTLD+1) utilities.

This subpackage is the network-naming substrate for the TrackerSift
hierarchy: request URLs are parsed with :func:`parse_url`, the *hostname*
granularity uses :func:`hostname`, and the *domain* granularity uses
:func:`registrable_domain` backed by an embedded Public Suffix List.  The
simulated DNS (:mod:`repro.urlkit.dns`, for CNAME uncloaking) loads on
first use.
"""

from .. import _lazy
from .domains import (
    host_matches_domain,
    hostname,
    is_third_party,
    registrable_domain,
    same_site,
)
from .psl import DEFAULT_PSL, PublicSuffixList
from .url import URL, URLError, normalize_host, parse_url

__getattr__ = _lazy.lazy_exports(
    __name__, {"dns": ("CnameResolver", "DnsError", "DnsZone")}
)

__all__ = [
    "URL",
    "URLError",
    "parse_url",
    "normalize_host",
    "PublicSuffixList",
    "DEFAULT_PSL",
    "registrable_domain",
    "hostname",
    "same_site",
    "is_third_party",
    "host_matches_domain",
    "DnsZone",
    "DnsError",
    "CnameResolver",
]
