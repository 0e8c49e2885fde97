"""Embedded EasyList- and EasyPrivacy-style snapshots.

The real study applies EasyList (advertising) and EasyPrivacy (tracking) to
each crawled request.  We embed compact snapshots written in genuine
Adblock Plus syntax.  Two kinds of rules are included:

* **well-known tracker rules** — real-world domains the paper itself names
  (google-analytics.com, doubleclick.net, googleadservices.com, ...), so the
  paper's anecdotes replay verbatim;
* **pattern rules** — path markers (``/ads/``, ``/pixel``, ``/track`` ...)
  that catch tracking endpoints on otherwise-functional hosts, which is what
  produces *mixed* resources.

``TRACKER_DOMAINS`` and ``TRACKER_PATH_MARKERS`` are exported because the
synthetic-web generator (``repro.webmodel``) builds its tracker population
from the same vocabulary: the generator decides *intent* (a tracking
request), the oracle independently *recovers* the label from the URL, and
the TrackerSift pipeline only ever sees the oracle's labels.
"""

from __future__ import annotations

from pathlib import Path

from .parser import ParsedList, parse_filter_list

__all__ = [
    "TRACKER_DOMAINS",
    "ADVERTISING_DOMAINS",
    "TRACKER_PATH_MARKERS",
    "AD_PATH_MARKERS",
    "EASYLIST_SNAPSHOT",
    "EASYPRIVACY_SNAPSHOT",
    "load_easylist",
    "load_easyprivacy",
    "default_lists",
    "load_list_files",
]

#: Domains whose every request is advertising (EasyList-style coverage).
ADVERTISING_DOMAINS: tuple[str, ...] = (
    "doubleclick.net",
    "googleadservices.com",
    "googlesyndication.com",
    "adnxs.com",
    "adsrvr.org",
    "amazon-adsystem.com",
    "criteo.com",
    "taboola.com",
    "outbrain.com",
    "rubiconproject.com",
    "pubmatic.com",
    "openx.net",
    "adform.net",
    "bidswitch.net",
    "yieldmo.com",
    "ads-pixel.net",
    "popadnetwork.xyz",
    "bannerwave.io",
)

#: Domains whose every request is tracking/analytics (EasyPrivacy-style).
TRACKER_DOMAINS: tuple[str, ...] = (
    "google-analytics.com",
    "scorecardresearch.com",
    "quantserve.com",
    "hotjar.com",
    "mixpanel.com",
    "segment.io",
    "chartbeat.com",
    "newrelic.com",
    "bugsnag.com",
    "fullstory.com",
    "mouseflow.com",
    "crazyegg.com",
    "clicktale.net",
    "statcounter.com",
    "telemetrybeam.io",
    "metricshark.net",
    "pixelforge.dev",
    "beaconline.co",
)

#: Path substrings that mark a request as advertising on any host.
AD_PATH_MARKERS: tuple[str, ...] = (
    "/ads/",
    "/adserver/",
    "/banners/",
    "/sponsored/",
    "/prebid/",
    "/adframe/",
)

#: Path substrings that mark a request as tracking on any host.
TRACKER_PATH_MARKERS: tuple[str, ...] = (
    "/pixel",
    "/track/",
    "/beacon",
    "/telemetry/",
    "/collect?",
    "/analytics/",
    "/fingerprint/",
    "/impression?",
)


def _domain_rules(domains: tuple[str, ...]) -> str:
    return "\n".join(f"||{domain}^" for domain in domains)


def _marker_rules(markers: tuple[str, ...]) -> str:
    lines = []
    for marker in markers:
        # A bare ``/xxx/`` line would parse as a raw-regex rule in ABP; real
        # lists write such path markers as ``/xxx/*`` (same match semantics).
        if marker.startswith("/") and marker.endswith("/"):
            marker += "*"
        lines.append(marker)
    return "\n".join(lines)


EASYLIST_SNAPSHOT = f"""\
[Adblock Plus 2.0]
! Title: EasyList (embedded reproduction snapshot)
! Expires: never (offline snapshot)
! Homepage: https://easylist.to/
{_domain_rules(ADVERTISING_DOMAINS)}
{_marker_rules(AD_PATH_MARKERS)}
! option-bearing rules exercised by the matcher tests
||bing.com/aclick$third-party
||ads.*.example-exchange.com^$script
/adsbygoogle.js
/show_ads_impl_
-advert-loader.
_adrotate.
! exception rules (ABP semantics: @@ overrides blocks)
@@||news-statics.org/ads/disclosure-banner.png$image
@@||pressroom.example/adserver/policy.html$subdocument
! cosmetic rules are parsed and skipped by the network matcher
example.com###ad-sidebar
~example.org##.sponsored-links
"""

EASYPRIVACY_SNAPSHOT = f"""\
[Adblock Plus 2.0]
! Title: EasyPrivacy (embedded reproduction snapshot)
! Expires: never (offline snapshot)
! Homepage: https://easylist.to/
{_domain_rules(TRACKER_DOMAINS)}
{_marker_rules(TRACKER_PATH_MARKERS)}
! well-known hostname-scoped trackers on mixed first parties (paper §4)
||pixel.wp.com^
||stats.wp.com^
||facebook.com/tr^
||facebook.net/signals/
||bing.com/p/insights/
! option-bearing rules
||cdn.branch.io/branch-latest.min.js$script,third-party
.com/stats.php?$xmlhttprequest
! exceptions
@@||weather-widgets.net/collect?opt_out=1
example.org#@#.tracking-consent
"""


def load_easylist() -> ParsedList:
    """Parse the embedded EasyList snapshot."""
    return parse_filter_list(EASYLIST_SNAPSHOT, name="easylist")


def load_easyprivacy() -> ParsedList:
    """Parse the embedded EasyPrivacy snapshot."""
    return parse_filter_list(EASYPRIVACY_SNAPSHOT, name="easyprivacy")


def default_lists() -> tuple[ParsedList, ParsedList]:
    """The (EasyList, EasyPrivacy) pair used by the paper's oracle."""
    return load_easylist(), load_easyprivacy()


def load_list_files(paths) -> tuple[ParsedList, ...]:
    """Parse filter-list text files into :class:`ParsedList` objects.

    The list name is the file stem, which is what reload churn reports
    key on.  Raises :class:`OSError` for unreadable paths.
    """
    parsed = []
    for raw in paths:
        path = Path(raw)
        parsed.append(parse_filter_list(path.read_text(encoding="utf-8"), name=path.stem))
    return tuple(parsed)
