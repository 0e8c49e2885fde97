"""Network-rule semantics: anchors, separators, wildcards, options."""

import pytest

from repro.filterlists.parser import parse_rule_line
from repro.filterlists.rules import (
    NetworkRule,
    RequestContext,
    ResourceType,
    RuleOptions,
)


def rule(text: str) -> NetworkRule:
    parsed = parse_rule_line(text)
    assert parsed is not None, f"{text!r} did not parse as a network rule"
    return parsed


def ctx(url: str, **kwargs) -> RequestContext:
    return RequestContext(url=url, **kwargs)


class TestHostAnchor:
    def test_matches_domain(self):
        r = rule("||tracker.example^")
        assert r.matches(ctx("https://tracker.example/p.js"))

    def test_matches_subdomain(self):
        r = rule("||tracker.example^")
        assert r.matches(ctx("https://cdn.tracker.example/p.js"))

    def test_rejects_suffix_lookalike(self):
        r = rule("||tracker.example^")
        assert not r.matches(ctx("https://nottracker.example/p.js"))

    def test_rejects_domain_in_path(self):
        r = rule("||tracker.example^")
        assert not r.matches(ctx("https://safe.example/tracker.example/x"))

    def test_host_anchor_with_path(self):
        r = rule("||facebook.com/tr^")
        assert r.matches(ctx("https://www.facebook.com/tr?id=1"))
        assert not r.matches(ctx("https://www.facebook.com/profile"))


class TestAnchorsAndSeparator:
    def test_start_anchor(self):
        r = rule("|https://exact.example/")
        assert r.matches(ctx("https://exact.example/x"))
        assert not r.matches(ctx("http://pre.example/?u=https://exact.example/"))

    def test_end_anchor(self):
        r = rule("/banner.png|")
        assert r.matches(ctx("https://a.example/banner.png"))
        assert not r.matches(ctx("https://a.example/banner.png?v=2"))

    def test_separator_matches_delimiters(self):
        r = rule("/ads^")
        for url in (
            "https://a.example/ads/top.js",
            "https://a.example/ads?x=1",
            "https://a.example/ads",
        ):
            assert r.matches(ctx(url)), url

    def test_separator_rejects_word_chars(self):
        r = rule("/ads^")
        assert not r.matches(ctx("https://a.example/adserver"))
        assert not r.matches(ctx("https://a.example/ads-lite.js"))

    def test_wildcard(self):
        r = rule("/track*/pixel")
        assert r.matches(ctx("https://a.example/track/v2/pixel.gif"))
        assert not r.matches(ctx("https://a.example/pixel/track"))

    def test_plain_substring(self):
        r = rule("adsbygoogle")
        assert r.matches(ctx("https://x.example/js/adsbygoogle.js"))

    def test_case_insensitive_by_default(self):
        r = rule("/AdServer/*")
        assert r.matches(ctx("https://a.example/adserver/x"))

    def test_match_case_option(self):
        r = rule("/AdServer/*$match-case")
        assert r.matches(ctx("https://a.example/AdServer/x"))
        assert not r.matches(ctx("https://a.example/adserver/x"))


class TestResourceTypeOptions:
    def test_script_only(self):
        r = rule("||cdn.example^$script")
        assert r.matches(ctx("https://cdn.example/a.js", resource_type=ResourceType.SCRIPT))
        assert not r.matches(ctx("https://cdn.example/a.png", resource_type=ResourceType.IMAGE))

    def test_negated_type(self):
        r = rule("||cdn.example^$~image")
        assert not r.matches(ctx("https://cdn.example/a.png", resource_type=ResourceType.IMAGE))
        assert r.matches(ctx("https://cdn.example/a.js", resource_type=ResourceType.SCRIPT))

    def test_xhr_alias(self):
        r = rule("/collect?$xhr")
        assert r.matches(ctx("https://a.example/collect?x=1", resource_type=ResourceType.XHR))
        assert not r.matches(ctx("https://a.example/collect?x=1", resource_type=ResourceType.IMAGE))


class TestPartyOptions:
    def test_third_party_only(self):
        r = rule("||widgets.example^$third-party")
        assert r.matches(ctx("https://widgets.example/w.js", third_party=True))
        assert not r.matches(ctx("https://widgets.example/w.js", third_party=False))

    def test_first_party_only(self):
        r = rule("||shop.example/api^$~third-party")
        assert r.matches(ctx("https://shop.example/api/x", third_party=False))
        assert not r.matches(ctx("https://shop.example/api/x", third_party=True))


class TestDomainOption:
    def test_include_domain(self):
        r = rule("/sponsored/*$domain=news.example")
        assert r.matches(ctx("https://x.example/sponsored/1", page_host="news.example"))
        assert r.matches(
            ctx("https://x.example/sponsored/1", page_host="www.news.example")
        )
        assert not r.matches(ctx("https://x.example/sponsored/1", page_host="other.example"))

    def test_exclude_domain(self):
        r = rule("/sponsored/*$domain=~news.example")
        assert not r.matches(ctx("https://x.example/sponsored/1", page_host="news.example"))
        assert r.matches(ctx("https://x.example/sponsored/1", page_host="other.example"))

    def test_mixed_include_exclude(self):
        r = rule("/ads/*$domain=a.example|~sub.a.example")
        assert r.matches(ctx("https://x.example/ads/1", page_host="a.example"))
        assert not r.matches(ctx("https://x.example/ads/1", page_host="sub.a.example"))


class TestUnsupported:
    def test_unknown_option_marks_unsupported(self):
        r = rule("/ads/*$websocket-frame-weirdness")
        assert not r.supported
        assert not r.matches(ctx("https://a.example/ads/x"))

    def test_regex_rule_marked_unsupported(self):
        r = rule("/banner\\d+/")
        assert not r.supported


class TestTokens:
    def test_longest_token_extracted(self):
        assert rule("||google-analytics.com^").token == "analytics"

    def test_token_free_pattern(self):
        r = NetworkRule(text="^", pattern="^")
        assert r.token == ""

    def test_token_is_substring_of_matching_urls(self):
        r = rule("/adserver/bid")
        assert r.token in "https://x.example/adserver/bid-1".lower()


class TestRuleOptionsPermits:
    def test_default_permits_everything(self):
        assert RuleOptions().permits(ctx("https://x.example/"))

    def test_include_types_gate(self):
        opts = RuleOptions(include_types=frozenset({ResourceType.SCRIPT}))
        assert not opts.permits(ctx("https://x/", resource_type=ResourceType.IMAGE))


class TestMatchesUrl:
    def test_pattern_only_ignores_options(self):
        r = rule("||cdn.example^$script")
        assert r.matches_url("https://cdn.example/a.png")


class TestLazyCompilation:
    def test_construction_does_not_compile(self):
        r = rule("/adserver/bid*")
        assert not r.regex_compiled

    def test_first_match_compiles_then_caches(self):
        import re

        r = rule("/adserver/bid*")
        assert r.matches_url("https://x.example/adserver/bid-1")
        assert r.regex_compiled
        first = r.regex
        assert r.regex is first  # cached, not recompiled
        assert isinstance(first, re.Pattern)

    def test_lazy_rule_round_trips_through_pickle(self):
        """Laziness survives a pickle round trip, both before and after
        materialization."""
        import pickle

        cold = pickle.loads(pickle.dumps(rule("/adserver/bid*")))
        assert not cold.regex_compiled
        assert cold.matches_url("https://x.example/adserver/bid-9")

        warm_source = rule("/pixel/*")
        assert warm_source.matches_url("https://x.example/pixel/1")
        warm = pickle.loads(pickle.dumps(warm_source))
        assert warm.matches_url("https://x.example/pixel/2")
