"""Property tests for the memoized match-decision layer.

Two proof obligations back the streaming engine's labeling cache:

1. :class:`CachedMatcher` is observationally equivalent to the uncached
   :class:`FilterMatcher` over randomized rule sets (host anchors, path
   fragments, digits, wildcards, options, exceptions) and randomized
   request contexts — including the digit-run key normalization, which
   must disable itself whenever a rule could tell collapsed URLs apart.
2. ``_RuleIndex.candidates`` never drops a rule that matches: the token
   bucketing is a pure pruning optimization, so every rule that matches a
   context must appear among the candidates its URL tokens select.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_matcher import candidates
from repro.filterlists.cache import CachedMatcher, normalize_url_key
from repro.filterlists.matcher import FilterMatcher, RequestShape
from repro.filterlists.parser import parse_filter_list
from repro.filterlists.rules import RequestContext, ResourceType

# -- rule / context generators ---------------------------------------------

_HOSTS = (
    "tracker.example",
    "i0.wp.example",
    "cdn7.pixel.net",
    "ads2.media.org",
    "static.safe.example",
)
_PATH_WORDS = ("track", "pixel", "img", "collect", "banner", "assets", "v2", "id9")
_OPTIONS = (
    "",
    "$script",
    "$image",
    "$~image",
    "$third-party",
    "$~third-party",
    "$domain=site.example",
    "$domain=~site.example",
    "$script,third-party",
)


@st.composite
def _rule_lines(draw) -> str:
    exception = draw(st.booleans())
    kind = draw(st.integers(0, 2))
    if kind == 0:  # host-anchored
        pattern = "||" + draw(st.sampled_from(_HOSTS))
        pattern += draw(st.sampled_from(("^", "", "/" + draw(st.sampled_from(_PATH_WORDS)))))
    elif kind == 1:  # path fragment
        pattern = "/" + draw(st.sampled_from(_PATH_WORDS)) + draw(
            st.sampled_from(("/", "-", ""))
        )
    else:  # wildcard / digit-bearing fragment
        pattern = draw(st.sampled_from(_PATH_WORDS)) + draw(
            st.sampled_from(("*", "^", "207", "-1."))
        )
    line = pattern + draw(st.sampled_from(_OPTIONS))
    return ("@@" + line) if exception else line


@st.composite
def _contexts(draw) -> RequestContext:
    host = draw(st.sampled_from(_HOSTS))
    segments = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_PATH_WORDS),
                st.integers(0, 9999).map(str),
            ),
            min_size=0,
            max_size=3,
        )
    )
    # Authority edge cases exercise the host-anchor fast path's key
    # derivation: userinfo, ports, scheme variants and dot-edge hosts
    # all change where the ABP anchor regex may bite.
    scheme = draw(st.sampled_from(("https", "http", "HTTPS", "wss")))
    userinfo = draw(st.sampled_from(("", "u@", "u:p@", "tracker.example@")))
    host_edge = draw(st.sampled_from(("", ".", ":8080")))
    url = f"{scheme}://{userinfo}{host}{host_edge}/" + "/".join(segments)
    if draw(st.booleans()):
        url += f"?uid={draw(st.integers(0, 999))}"
    return RequestContext(
        url=url,
        resource_type=draw(st.sampled_from(list(ResourceType))),
        page_host=draw(st.sampled_from(("site.example", "other.example", ""))),
        third_party=draw(st.booleans()),
    )


def _build(rule_lines) -> FilterMatcher:
    return FilterMatcher.from_lists(
        parse_filter_list("\n".join(rule_lines), name="prop")
    )


def _index_rules(index):
    """Every rule a _RuleIndex holds, across all three tiers."""
    return (
        [rule for bucket in index._hosts.values() for rule in bucket]
        + list(index._catch_all)
        + [rule for bucket in index._buckets.values() for rule in bucket]
    )


@pytest.mark.tier1
class TestCacheEquivalence:
    @given(
        rules=st.lists(_rule_lines(), min_size=1, max_size=12),
        contexts=st.lists(_contexts(), min_size=1, max_size=25),
    )
    @settings(max_examples=120, deadline=None)
    def test_cached_matches_uncached(self, rules, contexts):
        """Same blocked decision with and without the cache, hits included."""
        uncached = _build(rules)
        cached = CachedMatcher(_build(rules))
        # Query twice so the second pass is served (partly) from cache.
        for context in contexts + contexts:
            expected = uncached.match(context)
            got = cached.match(context)
            assert got.blocked == expected.blocked, context
            assert got.matched == expected.matched, context
        assert cached.stats.hits >= len(contexts)  # second pass must hit

    @given(
        rules=st.lists(_rule_lines(), min_size=1, max_size=12),
        contexts=st.lists(_contexts(), min_size=2, max_size=25),
    )
    @settings(max_examples=120, deadline=None)
    def test_normalized_twins_share_decisions(self, rules, contexts):
        """Contexts whose keys collapse together must agree with uncached.

        This is the sharp edge of the digit-run normalization: when two
        *different* URLs share a cache key, the first one's decision is
        served for the second — sound only if the matcher attested digit
        runs are irrelevant for both.
        """
        uncached = _build(rules)
        cached = CachedMatcher(_build(rules))
        for context in contexts:
            assert cached.match(context).blocked == uncached.match(context).blocked

    @given(contexts=st.lists(_contexts(), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_digit_sensitive_rules_disable_normalization(self, contexts):
        """A digit-bearing path rule must not be blinded by key collapsing."""
        matcher = _build(["/track/207"])
        cached = CachedMatcher(_build(["/track/207"]))
        probes = [
            RequestContext(url="https://tracker.example/track/207"),
            RequestContext(url="https://tracker.example/track/206"),
        ]
        for context in list(contexts) + probes:
            assert cached.match(context).blocked == matcher.match(context).blocked


def _tuple_key(cached: CachedMatcher, context: RequestContext) -> tuple:
    """The field tuple a context's cache key stands for."""
    url = context.url
    if cached.wrapped.digit_runs_irrelevant_for(url):
        url = normalize_url_key(url)
    fields = (url, context.resource_type, context.third_party)
    if cached.domain_sensitive:
        return fields + (context.page_host,)
    return fields


# Few characters, so that distinct contexts often spell similar keys:
# ``:`` and digits are the host-length framing, NUL and non-ASCII the
# characters a naive separator would use.
_KEY_TEXT = st.text(alphabet="a1:9\x00é/", max_size=5)


@st.composite
def _key_contexts(draw) -> RequestContext:
    url = draw(st.one_of(_KEY_TEXT, _KEY_TEXT.map(lambda t: "https://h/" + t)))
    resource_type = draw(
        st.one_of(
            st.sampled_from(list(ResourceType)),
            # A plain string equal to a member is the same resource type;
            # one equal to none (an option alias) keeps a tuple key.
            st.sampled_from([member.value for member in ResourceType] + ["xhr"]),
        )
    )
    return RequestContext(url, resource_type, draw(_KEY_TEXT), draw(st.booleans()))


@st.composite
def _spliced_pairs(draw) -> list[RequestContext]:
    """Two contexts whose page host + URL spell the same text, cut at two
    places: a key that only concatenated the fields would confuse them."""
    text = draw(st.text(alphabet="a1:\x00é", min_size=1, max_size=8))
    resource_type = draw(st.sampled_from(list(ResourceType)))
    third_party = draw(st.booleans())
    return [
        RequestContext(text[cut:], resource_type, text[:cut], third_party)
        for cut in draw(st.lists(st.integers(0, len(text)), min_size=2, max_size=2))
    ]


@pytest.mark.tier1
class TestStringKeys:
    @pytest.mark.parametrize(
        "rule", ["||t.example^", "||t.example^$domain=s.example"]
    )
    @given(
        contexts=st.lists(_key_contexts(), min_size=2, max_size=12),
        pairs=st.lists(_spliced_pairs(), max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_string_keys_equal_exactly_when_tuple_keys_do(
        self, rule, contexts, pairs
    ):
        contexts = contexts + [context for pair in pairs for context in pair]
        cached = CachedMatcher(_build([rule]))
        assert cached.domain_sensitive == ("domain=" in rule)
        keys = [cached._key(context) for context in contexts]
        for key, context in zip(keys, contexts):
            assert (type(key) is str) == (context.resource_type in set(ResourceType))
        tuples = [_tuple_key(cached, context) for context in contexts]
        for key, fields in zip(keys, tuples):
            for other_key, other_fields in zip(keys, tuples):
                assert (key == other_key) == (fields == other_fields)


class TestNormalizeUrlKey:
    def test_collapses_path_and_query_digits(self):
        assert (
            normalize_url_key("https://cdn7.x.net/pixel/207.gif?uid=93")
            == "https://cdn7.x.net/pixel/0.gif?uid=0"
        )

    def test_authority_untouched(self):
        assert normalize_url_key("https://i0.wp.example").startswith(
            "https://i0.wp.example"
        )

    def test_no_path(self):
        assert normalize_url_key("about:blank") == "about:blank"

    def test_scheme_relative_url_untouched(self):
        # Without a scheme the authority cannot be located; collapsing
        # would merge distinct hosts like //ads2.example and //ads0.example.
        assert normalize_url_key("//ads2.example/pixel/207.gif") == (
            "//ads2.example/pixel/207.gif"
        )


class TestWrappedMutationInvalidation:
    def test_cache_clears_when_wrapped_matcher_gains_rules(self):
        """In-place rule additions through the wrapped matcher must not
        leave stale decisions behind (revision-stamp invalidation)."""
        matcher = _build(["||old.example^"])
        cached = CachedMatcher(matcher)
        context = RequestContext(url="https://new.example/x")
        assert not cached.match(context).blocked
        matcher.add_list(parse_filter_list("||new.example^"))
        assert cached.match(context).blocked
        assert cached.match(context).blocked  # and re-caches after clearing


@pytest.mark.tier1
class TestCandidateCompleteness:
    @given(
        rules=st.lists(_rule_lines(), min_size=1, max_size=15),
        context=_contexts(),
    )
    @settings(max_examples=150, deadline=None)
    def test_candidates_never_drop_a_matching_rule(self, rules, context):
        """Token pruning is complete: matching rules are always candidates."""
        matcher = _build(rules)
        shape = RequestShape(context.url, matcher.automaton)
        if shape.match_url is not context.url:
            # first_match/candidates contract: the context carries the
            # shape's normalized-authority view (what FilterMatcher.match
            # rewrites before consulting the indexes).
            context = RequestContext(
                shape.match_url,
                context.resource_type,
                context.page_host,
                context.third_party,
            )
        for index in (matcher._blocking, matcher._exceptions):
            considered = list(candidates(index, shape))
            for rule in _index_rules(index):
                if rule.matches(context):
                    assert rule in considered, rule.text

    @given(
        rules=st.lists(_rule_lines(), min_size=1, max_size=15),
        context=_contexts(),
    )
    @settings(max_examples=100, deadline=None)
    def test_first_match_agrees_with_brute_force_existence(self, rules, context):
        """``first_match`` finds a rule iff some rule matches at all."""
        matcher = _build(rules)
        shape = RequestShape(context.url, matcher.automaton)
        if shape.match_url is not context.url:
            context = RequestContext(
                shape.match_url,
                context.resource_type,
                context.page_host,
                context.third_party,
            )
        for index in (matcher._blocking, matcher._exceptions):
            brute = any(rule.matches(context) for rule in _index_rules(index))
            assert (index.first_match(context, shape) is not None) == brute
