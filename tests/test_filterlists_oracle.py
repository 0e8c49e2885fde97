"""Oracle tests: snapshot integrity and generator-vocabulary consistency.

The last class is the keystone of the whole reproduction: every URL the
generator can emit with tracking intent must be labeled tracking by the
oracle, and every functional-intent URL must not match any rule.  If this
drifts, the pipeline would no longer *re-derive* the paper's labels.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filterlists.lists import (
    AD_PATH_MARKERS,
    ADVERTISING_DOMAINS,
    TRACKER_DOMAINS,
    TRACKER_PATH_MARKERS,
    load_easylist,
    load_easyprivacy,
)
from repro.filterlists.oracle import FilterListOracle, Label, LabeledRequest
from repro.filterlists.parser import parse_filter_list
from repro.filterlists.rules import RequestContext, ResourceType
from repro.urlkit import hostname, is_third_party
from repro.webmodel.naming import NameFactory


class TestSnapshots:
    def test_easylist_parses(self):
        parsed = load_easylist()
        assert parsed.name == "easylist"
        assert len(parsed.blocking_rules) > 20
        assert len(parsed.exception_rules) >= 2
        assert not parsed.error_lines

    def test_easyprivacy_parses(self):
        parsed = load_easyprivacy()
        assert len(parsed.blocking_rules) > 20
        assert not parsed.error_lines

    def test_all_marker_rules_supported(self):
        for parsed in (load_easylist(), load_easyprivacy()):
            unsupported = [r.text for r in parsed.rules if not r.supported]
            assert unsupported == []


class TestOracleLabels:
    def test_tracker_domain_is_tracking(self, oracle):
        assert oracle.label("https://google-analytics.com/collect?v=1").is_tracking

    def test_advertising_domain_is_tracking(self, oracle):
        assert oracle.label("https://cdn.doubleclick.net/instream/ad.js").is_tracking

    def test_clean_url_is_functional(self, oracle):
        label = oracle.label("https://cdnjs-mirror.net/static/js/app.1.js")
        assert label is Label.FUNCTIONAL

    def test_marker_path_on_any_host(self, oracle):
        assert oracle.label("https://i0.wp.com/pixel/44.gif").is_tracking
        assert oracle.label("https://i0.wp.com/img/logo-1.png") is Label.FUNCTIONAL

    def test_paper_hostname_rules(self, oracle):
        assert oracle.label("https://pixel.wp.com/g.gif").is_tracking
        assert oracle.label("https://widgets.wp.com/likes/master.html") is Label.FUNCTIONAL

    def test_provenance_recorded(self, oracle):
        labeled = oracle.label_request("https://scorecardresearch.com/beacon")
        assert labeled.label.is_tracking
        assert labeled.matched_list in ("easylist", "easyprivacy")
        assert labeled.matched_rule

    def test_functional_has_no_provenance(self, oracle):
        labeled = oracle.label_request("https://twimg.com/media/clip-3.mp4")
        assert labeled.matched_rule == ""

    def test_exception_rule_flips_label(self, oracle):
        # the snapshot allows the opt-out collect endpoint
        assert (
            oracle.label("https://weather-widgets.net/collect?opt_out=1")
            is Label.FUNCTIONAL
        )

    def test_resource_type_scoped_rule(self, oracle):
        # `.com/stats.php?$xmlhttprequest` only fires for XHR
        url = "https://shop-a.com/stats.php?page=1"
        assert oracle.label(url, resource_type=ResourceType.XHR).is_tracking
        assert oracle.label(url, resource_type=ResourceType.IMAGE) is Label.FUNCTIONAL


class TestUrlConvenienceCaching:
    """The URL-only convenience path decides through the oracle's one
    decision cache, like every other query."""

    def test_cache_enabled_oracle_shares_one_cache(self):
        oracle = FilterListOracle()
        url = "https://google-analytics.com/collect?v=1"
        oracle.label(url)  # warms the decision cache
        assert oracle.should_block_url(url)
        assert oracle.cache_stats.hits >= 1

    def test_convenience_agrees_with_label(self, oracle):
        for url in (
            "https://google-analytics.com/collect?v=1",
            "https://cdnjs-mirror.net/static/js/app.1.js",
            "https://i0.wp.com/pixel/44.gif",
        ):
            assert oracle.should_block_url(url) == oracle.label(url).is_tracking

    def test_convenience_cache_invalidated_by_matcher_mutation(self):
        """Adding rules through the public ``oracle.matcher`` mutates the
        matcher in place; the decision cache must notice and not serve
        stale decisions."""
        oracle = FilterListOracle()
        url = "https://brand-new-host.example/app.js"
        assert not oracle.should_block_url(url)
        oracle.matcher.add_list(parse_filter_list("||brand-new-host.example^"))
        assert oracle.should_block_url(url)  # not the cached False
        assert oracle.should_block_url(url) == oracle.label(url).is_tracking


_DOMAIN_LIST = "||tracker.example^$domain=site.example\n/pixel/*\n@@||tracker.example/ok.js"
_PAGE = "https://www.site.example/"
_URLS = [
    "https://tracker.example/a.js",
    "https://tracker.example/ok.js",
    "https://www.site.example/pixel/1.gif",
    "https://cdn.example/lib.js",
]


def _verdict(result):
    """(blocked, rule text) of any oracle answer, or the bare bool."""
    if isinstance(result, bool):
        return result
    if isinstance(result, LabeledRequest):
        return (result.label.is_tracking, result.matched_rule)
    rule = result.rule
    return (result.blocked, rule.text if rule is not None and result.blocked else "")


_METHODS = {
    "match": lambda o: [o.match(u, ResourceType.SCRIPT, _PAGE) for u in _URLS],
    "label_request": lambda o: [
        o.label_request(u, ResourceType.SCRIPT, _PAGE) for u in _URLS
    ],
    "should_block_url": lambda o: [
        o.should_block_url(u, ResourceType.SCRIPT, _PAGE) for u in _URLS
    ],
    "decide_many": lambda o: o.decide_many(_URLS, ResourceType.SCRIPT, _PAGE),
    "label_request_many": lambda o: o.label_request_many(
        [(u, ResourceType.SCRIPT, _PAGE) for u in _URLS]
    ),
}


class TestEveryQueryDecidesThroughTheCache:
    """A fresh oracle, with a ``domain=`` rule so the page host is part of
    the cache key: every query method counts one lookup per URL in
    ``cache_stats`` and agrees with the raw matcher underneath."""

    @pytest.mark.parametrize("method", sorted(_METHODS))
    def test_one_lookup_per_url_and_raw_agreement(self, method):
        oracle = FilterListOracle(parse_filter_list(_DOMAIN_LIST, name="unit"))
        raw = oracle.matcher.wrapped
        assert raw.domain_sensitive
        expected = [
            raw.match(
                RequestContext(
                    url=url,
                    resource_type=ResourceType.SCRIPT,
                    page_host="www.site.example",
                    third_party=is_third_party(url, _PAGE),
                )
            )
            for url in _URLS
        ]
        assert [r.blocked for r in expected] == [True, False, True, False]

        first = _METHODS[method](oracle)
        assert (oracle.cache_stats.hits, oracle.cache_stats.misses) == (0, len(_URLS))
        second = _METHODS[method](oracle)
        stats = oracle.cache_stats
        assert (stats.hits, stats.misses) == (len(_URLS), len(_URLS))

        for answers in (first, second):
            for answer, raw_result in zip(answers, expected):
                want = _verdict(raw_result)
                got = _verdict(answer)
                assert got == (want[0] if isinstance(got, bool) else want)


def _page_url_form(url: str, page_url: str) -> tuple[str, bool]:
    """``(page_host, third_party)`` with the third-party test re-parsing
    the page URL — how the oracle derived it before it reused the page
    host it had already resolved."""
    page_host = ""
    third_party = True
    if page_url:
        try:
            page_host = hostname(page_url)
            third_party = is_third_party(url, page_url)
        except ValueError:
            page_host = ""
    return page_host, third_party


# Labels mix ASCII, IDN code points, and code points whose compatibility
# mapping yields an ASCII delimiter (fullwidth solidus/colon/stops, a
# diaeresis that maps to a space).
_LABEL = st.text(alphabet="abcXYZ019-_üß例İ／：．。¨ ", max_size=6)
_HOST = st.one_of(
    st.sampled_from(
        [
            "site.example", "cdn.site.example", "Site.Example", "other.example",
            "bücher.example", "xn--bcher-kva.example", "com", "co.uk",
            "github.io", "10.0.0.8", "[::1]", "[2001:db8::1]", "localhost",
            "／／site.example", "a：／／site.example", "¨a.example", "", ".",
        ]
    ),
    st.lists(_LABEL, min_size=1, max_size=4).map(".".join),
)


@st.composite
def _url_like(draw) -> str:
    scheme = draw(st.sampled_from(["https://", "http://", "//", "", "1x://"]))
    userinfo = draw(st.sampled_from(["", "user@", "user:pass@"]))
    host = draw(_HOST) + draw(st.sampled_from(["", ".", ".."]))
    port = draw(st.sampled_from(["", ":80", ":8443", ":0", ":70000", ":x"]))
    path = draw(st.sampled_from(["", "/", "/a.js", "/p?q=1#f"]))
    return scheme + userinfo + host + port + path


_URL_LIKE = st.one_of(_url_like(), st.text(max_size=20))
_CONTEXT_ORACLE = FilterListOracle(parse_filter_list("||x.example^", name="unit"))


class TestContextReusesPageHost:
    """The oracle derives third-party-ness from the page host it already
    resolved; that must equal re-parsing the page URL for every pair,
    including the quirk that a failed parse gives ``("", True)``."""

    @settings(max_examples=400, deadline=None)
    @given(url=_URL_LIKE, page_url=_URL_LIKE)
    def test_equals_page_url_form(self, url, page_url):
        context = _CONTEXT_ORACLE._context(url, ResourceType.OTHER, page_url)
        assert (context.page_host, context.third_party) == _page_url_form(
            url, page_url
        )

    @pytest.mark.parametrize(
        "url, page_url, expected",
        [
            ("https://cdn.site.example/a.js", "https://Site.Example./", ("site.example", False)),
            ("https://x.example/a.js", "https://bücher.example/", ("xn--bcher-kva.example", True)),
            ("https://x.example/a.js", "site.example", ("site.example", True)),
            ("https://x.example/a.js", "https://site.example:70000/", ("", True)),
            ("not a url", "https://site.example/", ("", True)),
            ("https://x.example/a.js", "", ("", True)),
            # Compatibility mapping would yield "//site.example" and
            # "a://site.example": not hosts, so the parse fails.
            ("https://site.example/a.js", "／／site.example", ("", True)),
            ("https://site.example/a.js", "https://a：／／site.example/", ("", True)),
        ],
    )
    def test_known_pairs(self, url, page_url, expected):
        context = _CONTEXT_ORACLE._context(url, ResourceType.OTHER, page_url)
        assert (context.page_host, context.third_party) == expected
        assert _page_url_form(url, page_url) == expected


class TestGeneratorVocabularyConsistency:
    """Every synthesisable URL must get the intended label."""

    def test_tracking_paths_always_match(self, oracle):
        rng = random.Random(0)
        names = NameFactory(rng)
        hosts = ["i0.wp.com", "cdn.unknownhost.example", "api.sitecloud0001.com"]
        for _ in range(300):
            host = rng.choice(hosts)
            url = f"https://{host}{names.tracking_path(advertising=rng.random() < 0.5)}"
            assert oracle.label(url).is_tracking, url

    def test_functional_paths_never_match(self, oracle):
        rng = random.Random(1)
        names = NameFactory(rng)
        hosts = [
            "i0.wp.com",
            "cdn.gstatic.com",
            "static.newsdaily0001.com",
            "widgets.wp.com",
        ]
        for _ in range(300):
            host = rng.choice(hosts)
            url = f"https://{host}{names.functional_path()}"
            assert oracle.label(url) is Label.FUNCTIONAL, url

    def test_every_functional_template_is_clean(self, oracle):
        for template in NameFactory.functional_path_vocabulary():
            url = f"https://anyhost.example{template.format(n=42)}"
            assert oracle.label(url) is Label.FUNCTIONAL, url

    def test_every_tracking_template_matches(self, oracle):
        for marker, template in NameFactory.tracking_path_templates().items():
            url = f"https://anyhost.example{template.format(n=42)}"
            assert oracle.label(url).is_tracking, (marker, url)

    def test_listed_domains_cover_all_seeds(self, oracle):
        for domain in ADVERTISING_DOMAINS + TRACKER_DOMAINS:
            url = f"https://{domain}/static/js/app.1.js"
            assert oracle.label(url).is_tracking, domain

    def test_markers_are_disjoint_from_functional_vocabulary(self):
        markers = AD_PATH_MARKERS + TRACKER_PATH_MARKERS
        for template in NameFactory.functional_path_vocabulary():
            path = template.format(n=7)
            for marker in markers:
                assert marker not in path, (marker, path)
