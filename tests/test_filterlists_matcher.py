"""Matcher engine: token indexing correctness and exception semantics."""

import pathlib
import subprocess
import sys

from hypothesis import assume, given
from hypothesis import strategies as st

from reference_matcher import (
    digit_segment,
    extract_token,
    WALK,
    ReferenceMatcher,
    candidates,
    host_anchor_keys,
    url_tokens,
)
from repro.filterlists.image import ImageMatcher, build_image
from repro.filterlists.matcher import (
    _PURE_HOST_RULE_RE,
    FilterMatcher,
    RequestShape,
    _digit_segment,
)
from repro.filterlists.parser import parse_filter_list
from repro.filterlists.rules import RequestContext, _extract_token


class TestBasicMatching:
    def test_block(self):
        matcher = FilterMatcher.from_text("||tracker.example^")
        assert matcher.should_block_url("https://tracker.example/x")

    def test_no_match(self):
        matcher = FilterMatcher.from_text("||tracker.example^")
        assert not matcher.should_block_url("https://safe.example/x")

    def test_exception_overrides_block(self):
        matcher = FilterMatcher.from_text(
            "||tracker.example^\n@@||tracker.example/legit^\n"
        )
        assert matcher.should_block_url("https://tracker.example/x")
        assert not matcher.should_block_url("https://tracker.example/legit/x")

    def test_exception_alone_does_not_block(self):
        matcher = FilterMatcher.from_text("@@||anything.example^")
        assert not matcher.should_block_url("https://anything.example/")

    def test_match_result_provenance(self):
        matcher = FilterMatcher.from_text("||t.example^", name="mini")
        result = matcher.match(RequestContext("https://t.example/"))
        assert result.blocked
        assert result.rule is not None and result.rule.text == "||t.example^"
        assert result.matched

    def test_exception_recorded_in_result(self):
        matcher = FilterMatcher.from_text("||t.example^\n@@||t.example/ok^")
        result = matcher.match(RequestContext("https://t.example/ok/1"))
        assert not result.blocked
        assert result.exception is not None

    def test_unsupported_rules_skipped(self):
        matcher = FilterMatcher.from_text("/regexy/\n||real.example^")
        assert matcher.rule_count == 1

    def test_multiple_lists_combined(self):
        a = parse_filter_list("||a.example^", name="a")
        b = parse_filter_list("||b.example^", name="b")
        matcher = FilterMatcher.from_lists(a, b)
        assert matcher.should_block_url("https://a.example/")
        assert matcher.should_block_url("https://b.example/")
        assert matcher.list_names == ("a", "b")


class TestHostFastPath:
    """Pure ``||host^`` rules match via the host dict, never via regex."""

    def test_counts_fast_path_rules(self):
        matcher = FilterMatcher.from_text(
            "||tracker.example^\n||ads.example^$script\n/pixel*\n@@||ok.example^"
        )
        assert matcher.rule_count == 4
        assert matcher.fast_path_rule_count == 3  # /pixel* needs the regex

    def test_fast_path_never_compiles_a_regex(self):
        matcher = FilterMatcher.from_text("||tracker.example^")
        assert matcher.should_block_url("https://x.tracker.example/p.js")
        assert not matcher.should_block_url("https://tracker.example.evil/p")
        (rule,) = matcher._blocking._hosts["tracker.example"]
        assert not rule.regex_compiled

    def test_subdomain_and_boundary_semantics(self):
        matcher = FilterMatcher.from_text("||tracker.example^")
        assert matcher.should_block_url("https://tracker.example/x")
        assert matcher.should_block_url("https://a.b.tracker.example/x")
        assert matcher.should_block_url("https://tracker.example:8080/x")
        assert matcher.should_block_url("https://tracker.example")
        assert not matcher.should_block_url("https://tracker.example.net/x")
        assert not matcher.should_block_url("https://nottracker.example/x")
        assert not matcher.should_block_url("tracker.example/x")  # no scheme

    def test_options_still_apply_on_the_fast_path(self):
        matcher = FilterMatcher.from_text("||ads.example^$third-party")
        first_party = RequestContext(
            url="https://ads.example/a.js", third_party=False
        )
        third_party = RequestContext(
            url="https://ads.example/a.js", third_party=True
        )
        assert not matcher.should_block(first_party)
        assert matcher.should_block(third_party)

    def test_host_anchor_keys_shape(self):
        keys = host_anchor_keys("https://a.b.tracker.example:443/x?y#z")
        assert keys == (
            "a.b.tracker.example",
            "b.tracker.example",
            "tracker.example",
            "example",
        )
        assert host_anchor_keys("about:blank") == ()
        # Faithful ABP quirk: the anchor group must end in a dot, so a
        # host behind userinfo is NOT matchable as a whole ("u:p@" ends in
        # "@") while its dot-suffix is.  The keys reproduce the regex
        # exactly — see the equivalence argument in host_anchor_keys.
        assert host_anchor_keys("https://u:p@evil.com/") == ("u", "com")


class TestDeterministicAttribution:
    """Candidate iteration follows URL order, not set-hash order, so the
    rule a MatchResult attributes a block to is stable across interpreter
    runs — the same class of bug the simulation seeds fixed with
    ``repro.stablehash`` (PR 1)."""

    RULES = "\n".join(
        [
            "-alpha-",
            "-beta-",
            "||deep.tracker.example^",
            "||tracker.example^",
        ]
    )

    def test_tokens_follow_url_order(self):
        assert url_tokens("https://x.example/beta/alpha/") == (
            "https",
            "x",
            "example",
            "beta",
            "alpha",
        )

    def test_bucket_attribution_follows_url_token_order(self):
        matcher = FilterMatcher.from_text(self.RULES)
        result = matcher.match(RequestContext("https://safe.example/x-beta-alpha-x"))
        assert result.blocked and result.rule.text == "-beta-"
        result = matcher.match(RequestContext("https://safe.example/x-alpha-beta-x"))
        assert result.blocked and result.rule.text == "-alpha-"

    def test_host_attribution_prefers_most_specific_key(self):
        matcher = FilterMatcher.from_text(self.RULES)
        result = matcher.match(RequestContext("https://deep.tracker.example/x"))
        assert result.blocked and result.rule.text == "||deep.tracker.example^"

    def test_attribution_stable_across_hash_seeds(self):
        """Regression: a ``set``-typed token collection made the attributed
        rule vary with PYTHONHASHSEED.  Pin it across interpreters."""
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        program = (
            "from repro.filterlists.matcher import FilterMatcher\n"
            "from repro.filterlists.rules import RequestContext\n"
            f"matcher = FilterMatcher.from_text({self.RULES!r})\n"
            "for url in (\n"
            "    'https://safe.example/x-beta-alpha-x',\n"
            "    'https://safe.example/x-alpha-beta-x',\n"
            "    'https://deep.tracker.example/x',\n"
            "    'https://a.tracker.example/x-alpha-x',\n"
            "):\n"
            "    print(matcher.match(RequestContext(url)).rule.text)\n"
        )
        outputs = set()
        for hash_seed in ("1", "2", "27"):
            result = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                env={
                    "PYTHONHASHSEED": hash_seed,
                    "PYTHONPATH": str(repo_root / "src"),
                },
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1, outputs


class TestRequestShapeReuse:
    def test_shape_computed_once_per_match(self, monkeypatch):
        """Both indexes (blocking + exceptions) share one RequestShape."""
        import repro.filterlists.matcher as matcher_module

        calls = []
        real_init = RequestShape.__init__

        def counting_init(self, url, *args, **kwargs):
            calls.append(url)
            real_init(self, url, *args, **kwargs)

        monkeypatch.setattr(matcher_module.RequestShape, "__init__", counting_init)
        matcher = FilterMatcher.from_text("||t.example^\n@@||t.example/ok^")
        matcher.match(RequestContext("https://t.example/ok/1"))
        assert len(calls) == 1


class TestHostNormalization:
    """The oracle must see the same host the crawler reports: trailing
    dots stripped and non-ASCII hosts IDNA-encoded, per
    ``urlkit.url.normalize_host``.  Regression for the skew where
    ``||tracker.com^`` matched ``http://tracker.com/x`` but not
    ``http://tracker.com./x``."""

    def test_trailing_dot_host_blocked(self):
        matcher = FilterMatcher.from_text("||tracker.com^")
        assert matcher.should_block_url("http://tracker.com./x")
        assert matcher.should_block_url("http://tracker.com/x")

    def test_trailing_dot_with_port(self):
        matcher = FilterMatcher.from_text("||tracker.com^")
        assert matcher.should_block_url("http://tracker.com.:8080/x")

    def test_idn_host_blocked_by_punycode_rule(self):
        matcher = FilterMatcher.from_text("||xn--bcher-kva.example^")
        assert matcher.should_block_url("http://bücher.example/x")
        assert matcher.should_block_url("http://xn--bcher-kva.example/x")

    def test_idn_plus_trailing_dot(self):
        matcher = FilterMatcher.from_text("||xn--bcher-kva.example^")
        assert matcher.should_block_url("http://Bücher.example./x")

    def test_userinfo_not_confused_with_host(self):
        matcher = FilterMatcher.from_text("||evil.com^")
        # The dot-suffix key still applies behind userinfo; normalization
        # must not mangle the userinfo while canonicalizing the host.
        assert matcher.should_block_url("https://u:p@sub.evil.com./x")

    def test_unnormalizable_url_matches_raw_not_raises(self):
        matcher = FilterMatcher.from_text("||tracker.com^")
        # Empty-label host: normalize_host raises; matching falls back to
        # the raw URL instead of propagating the error.
        assert not matcher.should_block_url("http://..../x")

    def test_normalization_respected_in_both_modes(self):
        for matcher_class in (FilterMatcher, ReferenceMatcher):
            matcher = matcher_class.from_text("||tracker.com^")
            assert matcher.should_block_url("http://tracker.com./x")

    def test_already_canonical_url_is_same_object(self):
        url = "https://tracker.com/Path?Q=1"
        shape = RequestShape(url, FilterMatcher().automaton)
        # Identity (not just equality) marks the no-normalization fast
        # path; path/query case is preserved for match_case rules.
        assert shape.match_url is url

    def test_mixed_case_host_canonicalized(self):
        # The crawler reports lower-case hosts; the match view agrees.
        shape = RequestShape("https://Tracker.com/X", FilterMatcher().automaton)
        assert shape.match_url == "https://tracker.com/X"


class _BruteForceMatcher:
    """Reference implementation: test every rule, no index."""

    def __init__(self, rules):
        self._blocking = [r for r in rules if not r.is_exception and r.supported]
        self._exceptions = [r for r in rules if r.is_exception and r.supported]

    def should_block(self, context: RequestContext) -> bool:
        if not any(r.matches(context) for r in self._blocking):
            return False
        return not any(r.matches(context) for r in self._exceptions)


_RULES_TEXT = "\n".join(
    [
        "||tracker.example^",
        "||ads.shop.example^$image",
        "/pixel*",
        "/collect?",
        "-banner-",
        "|https://exact.example/start",
        "/media/ads^",
        "@@||tracker.example/consent^",
        "@@/pixel-opt-out",
        "^",  # token-free catch-all exercising the catch-all bucket
    ]
)

_urls = st.sampled_from(
    [
        "https://tracker.example/p.js",
        "https://tracker.example/consent/x",
        "https://ads.shop.example/b.png",
        "https://safe.example/assets/app.js",
        "https://safe.example/pixel-1.gif",
        "https://safe.example/pixel-opt-out.gif",
        "https://safe.example/collect?uid=2",
        "https://cdn.example/img-banner-300.png",
        "https://exact.example/start/page",
        "https://media.example/media/ads?slot=1",
    ]
)


class TestIndexEquivalence:
    @given(url=_urls)
    def test_indexed_equals_brute_force(self, url):
        parsed = parse_filter_list(_RULES_TEXT)
        indexed = FilterMatcher(parsed.rules)
        brute = _BruteForceMatcher(parsed.rules)
        context = RequestContext(url=url)
        assert indexed.should_block(context) == brute.should_block(context)

    @given(
        path=st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789/-_.?=",
            max_size=30,
        )
    )
    def test_indexed_equals_brute_force_random_paths(self, path):
        parsed = parse_filter_list(_RULES_TEXT)
        indexed = FilterMatcher(parsed.rules)
        brute = _BruteForceMatcher(parsed.rules)
        context = RequestContext(url=f"https://fuzz.example/{path}")
        assert indexed.should_block(context) == brute.should_block(context)


# Fuzzed rule corpora for the automaton↔bucket equivalence property:
# hostnames feed ``||host^`` rules (host-anchor fast path + automaton host
# vocabulary), literals feed substring/option rules (token buckets), and a
# few fixed shapes exercise catch-all and exception tiers.
_labels = st.text(alphabet="abcxyz0123", min_size=1, max_size=6)
_hostnames = st.builds(
    lambda a, b: f"{a}.{b}.example", _labels, _labels
)
_rule_lines = st.one_of(
    st.builds(lambda h: f"||{h}^", _hostnames),
    st.builds(lambda h: f"@@||{h}^", _hostnames),
    st.builds(lambda t: f"-{t}-", _labels),
    st.builds(lambda t: f"/{t}/*", _labels),
    st.builds(lambda t: f"-{t}-$image,third-party", _labels),
    st.sampled_from(["^", "/pixel*", "@@/pixel-opt-out", "|https://x.example/s"]),
)
_fuzz_urls = st.one_of(
    _urls,
    st.builds(
        lambda h, p: f"https://{h}/{p}",
        _hostnames,
        st.text(
            alphabet="abcxyz0123/-_.?=", max_size=24
        ),
    ),
    st.builds(lambda h: f"http://{h}./x", _hostnames),  # trailing dot
    st.sampled_from(
        ["about:blank", "tracker.example/x", "http://u:p@a.b.example/q?id=7"]
    ),
)


class TestAutomatonEquivalence:
    """The automaton scan and the tokenize-then-probe walk are the same
    matcher: the automaton's candidate set covers the walk's, and final
    decisions and rule attribution are identical over fuzzed rule sets ×
    URLs.  This is the property that makes the matching-core rewrite a
    refactor rather than a behavior change."""

    @given(lines=st.lists(_rule_lines, max_size=12), url=_fuzz_urls)
    def test_candidates_superset_and_decision_identity(self, lines, url):
        parsed = parse_filter_list("\n".join(lines))
        fast = FilterMatcher(parsed.rules)
        walk = ReferenceMatcher(parsed.rules)

        fast_shape = RequestShape(url, fast.automaton)
        walk_shape = RequestShape(url, WALK)
        for index_name in ("_blocking", "_exceptions"):
            fast_candidates = list(
                candidates(getattr(fast, index_name), fast_shape)
            )
            walk_candidates = list(
                candidates(getattr(walk, index_name), walk_shape)
            )
            # Superset on candidate *sets* (rule objects are shared), and
            # exact equality on the ordered walk — the automaton only ever
            # skips keys that select no bucket, which drop out of the walk
            # too, so in practice the sequences coincide.
            assert set(fast_candidates) >= set(walk_candidates)
            assert [r.text for r in fast_candidates] == [
                r.text for r in walk_candidates
            ]

        context = RequestContext(url=url)
        fast_result = fast.match(context)
        walk_result = walk.match(context)
        assert fast_result.blocked == walk_result.blocked
        assert fast_result.rule is walk_result.rule
        assert fast_result.exception is walk_result.exception

        # The mapped form scans the same keys (host tier probed in the
        # map, token tier as a set) and re-parses equal rules.
        image = ImageMatcher(memoryview(build_image(fast)))
        image_shape = RequestShape(url, image.automaton)
        assert (image_shape.host_keys, image_shape.tokens) == (
            fast_shape.host_keys,
            fast_shape.tokens,
        )
        assert image.match(context) == walk_result

    @given(lines=st.lists(_rule_lines, max_size=8), urls=st.lists(_fuzz_urls, max_size=6))
    def test_decide_many_equals_looped_match(self, lines, urls):
        matcher = FilterMatcher.from_text("\n".join(lines))
        batch = matcher.decide_many(urls)
        singles = [matcher.match(RequestContext(url=url)) for url in urls]
        assert batch == singles


# Pattern text over the characters the indexing helpers branch on: both
# letter cases, digits, every anchor/wildcard/separator/option character
# (``||`` as one piece, so host anchors are common), and non-ASCII
# letters: ``İ`` lowercases to two characters, ``ß`` is already lower
# case, ``Σ`` lowercases by context and the Kelvin sign to ASCII ``k``.
_HELPER_PATTERNS = st.lists(
    st.sampled_from(
        [*"abczXYZ0129|*^/?$~#.", "||", "İ", "ß", "Σ", "\u212a"]
    ),
    max_size=24,
).map("".join)


class TestIndexHelpersMatchReference:
    """The regex forms of the token and digit-segment helpers return what
    the character loops they replaced return (``tests/reference_matcher``),
    so rules land in the same buckets and artifacts keep their bytes."""

    @given(_HELPER_PATTERNS)
    def test_extract_token_equals_reference(self, pattern):
        assert _extract_token(pattern) == extract_token(pattern)

    @given(_HELPER_PATTERNS)
    def test_digit_segment_equals_reference(self, pattern):
        assert _digit_segment(pattern) == digit_segment(pattern)

    def test_examples(self):
        for pattern in ("||ads.example^", "|x*track^", "||İx9/a1", "ab|", "||/1"):
            assert _extract_token(pattern) == extract_token(pattern)
            assert _digit_segment(pattern) == digit_segment(pattern)


# Rule lines for the one-pass index: host anchors with digits and mixed
# case, paths and wildcards past the host, ``match-case``, ``@@``,
# ``domain=``, unsupported options and raw ``/regex/`` rules, plus the
# helper alphabet above for the odd shapes.
_index_labels = st.text(alphabet="abzXY09-_", min_size=1, max_size=5)
_index_hosts = st.builds("{}.{}".format, _index_labels, _index_labels)
_index_patterns = st.one_of(
    st.builds("||{}^".format, _index_hosts),
    st.builds("||{}/{}".format, _index_hosts, _index_labels),
    st.builds("||{}^*{}".format, _index_hosts, _index_labels),
    st.builds("||{}*".format, _index_hosts),
    st.builds("|https://{}/".format, _index_hosts),
    st.builds("*{}*".format, _index_labels),
    st.builds("-{}-".format, _index_labels),
    st.builds("/{}/".format, _index_labels),
    _HELPER_PATTERNS,
)
_index_options = st.lists(
    st.sampled_from(
        [
            "match-case",
            "domain=a.example|~b.example",
            "third-party",
            "image",
            "~script",
            "popup",
            "csp=x",
        ]
    ),
    max_size=3,
    unique=True,
)
_index_lines = st.builds(
    lambda exception, pattern, options: (
        ("@@" if exception else "")
        + pattern
        + ("$" + ",".join(options) if options else "")
    ),
    st.booleans(),
    _index_patterns,
    _index_options,
)


def _reference_index(rules) -> dict:
    """Classify rules the way the index did before it became one pass:
    ``_digit_segment`` on every supported rule, then the pure-host test,
    then the token."""
    tiers = {False: ({}, {}, []), True: ({}, {}, [])}
    unsupported: dict[str, int] = {}
    skipped = 0
    digit_hosts: set[str] = set()
    digit_anywhere = domain_sensitive = False
    for rule in rules:
        options = rule.options
        if options.unsupported:
            skipped += 1
            for reason in options.unsupported:
                unsupported[reason] = unsupported.get(reason, 0) + 1
            continue
        if options.include_domains or options.exclude_domains:
            domain_sensitive = True
        segment = _digit_segment(rule.pattern)
        if segment == "":
            digit_anywhere = True
        elif segment is not None:
            digit_hosts.add(segment)
        hosts, buckets, catch_all = tiers[rule.is_exception]
        host = (
            None
            if options.match_case
            else _PURE_HOST_RULE_RE.match(rule.pattern.lower())
        )
        if host is not None:
            hosts.setdefault(host.group(1), []).append(rule)
            continue
        token = _extract_token(rule.pattern)
        if len(token) >= 3:
            buckets.setdefault(token, []).append(rule)
        else:
            catch_all.append(rule)
    return {
        "blocking": _tier_ids(*tiers[False]),
        "exceptions": _tier_ids(*tiers[True]),
        "digit_hosts": digit_hosts,
        "digit_anywhere": digit_anywhere,
        "domain_sensitive": domain_sensitive,
        "unsupported": unsupported,
        "unsupported_rules": skipped,
    }


def _tier_ids(hosts, buckets, catch_all) -> tuple:
    """A tier's contents in order, rules by identity."""
    return (
        [(key, [id(rule) for rule in bucket]) for key, bucket in hosts.items()],
        [(key, [id(rule) for rule in bucket]) for key, bucket in buckets.items()],
        [id(rule) for rule in catch_all],
    )


def _matcher_index(matcher: FilterMatcher) -> dict:
    return {
        "blocking": _tier_ids(
            matcher._blocking._hosts,
            matcher._blocking._buckets,
            matcher._blocking._catch_all,
        ),
        "exceptions": _tier_ids(
            matcher._exceptions._hosts,
            matcher._exceptions._buckets,
            matcher._exceptions._catch_all,
        ),
        "digit_hosts": matcher._digit_hosts,
        "digit_anywhere": matcher._digit_anywhere,
        "domain_sensitive": matcher.domain_sensitive,
        "unsupported": matcher.unsupported_counts,
        "unsupported_rules": matcher.unsupported_rule_count,
    }


class TestOnePassIndex:
    """The index classifies each rule once, trying the pure-host test
    before ``_digit_segment``, and still fills every tier, in the same
    order, and records the same cache facts as classifying each rule
    with every helper."""

    @given(
        first=st.lists(_index_lines, max_size=12),
        second=st.lists(_index_lines, max_size=6),
    )
    def test_index_equals_reference_classifier(self, first, second):
        lists = (
            parse_filter_list("\n".join(first), name="first"),
            parse_filter_list("\n".join(second), name="second"),
        )
        matcher = FilterMatcher.from_lists(*lists)
        rules = [rule for parsed in lists for rule in parsed.rules]
        assert _matcher_index(matcher) == _reference_index(rules)
        supported = sum(1 for rule in rules if not rule.options.unsupported)
        assert matcher.rule_count == supported

    @given(
        pattern=st.one_of(
            st.builds(
                "||{}^{}".format,
                st.text(alphabet="abzAZ09_-.%\u212aİß", min_size=1),
                st.sampled_from(["", "\n"]),
            ),
            _HELPER_PATTERNS,
        )
    )
    def test_pure_host_patterns_have_no_digit_segment(self, pattern):
        """Why the index may skip ``_digit_segment`` for a pure-host rule."""
        assume(_PURE_HOST_RULE_RE.match(pattern.lower()))
        assert _digit_segment(pattern) is None
