"""Filter-list parsing: comments, cosmetics, options, error tolerance."""

import pytest

from repro.filterlists.parser import parse_filter_list, parse_rule_line
from repro.filterlists.rules import ResourceType, RuleParseError


class TestLineParsing:
    def test_comment_returns_none(self):
        assert parse_rule_line("! a comment") is None

    def test_header_returns_none(self):
        assert parse_rule_line("[Adblock Plus 2.0]") is None

    def test_blank_returns_none(self):
        assert parse_rule_line("   ") is None

    @pytest.mark.parametrize(
        "cosmetic",
        [
            "example.com###ad-banner",
            "example.com#@#.ads",
            "example.com#?#.sponsored:has(a)",
        ],
    )
    def test_cosmetic_rules_skipped(self, cosmetic):
        assert parse_rule_line(cosmetic) is None

    def test_exception_prefix(self):
        rule = parse_rule_line("@@||cdn.example^$image")
        assert rule is not None and rule.is_exception

    def test_options_parsed(self):
        rule = parse_rule_line("||a.example^$script,third-party,domain=b.example|~c.b.example")
        assert rule is not None
        assert rule.options.include_types == frozenset({ResourceType.SCRIPT})
        assert rule.options.third_party is True
        assert rule.options.include_domains == ("b.example",)
        assert rule.options.exclude_domains == ("c.b.example",)

    def test_dollar_in_pattern_not_options(self):
        # `$` followed by non-option syntax stays in the pattern
        rule = parse_rule_line("/path$weird/value=x y")
        assert rule is not None
        assert rule.pattern == "/path$weird/value=x y"

    def test_trailing_dollar_stays_in_pattern(self):
        rule = parse_rule_line("/path$")
        assert rule is not None
        assert rule.pattern == "/path$"

    def test_empty_pattern_raises(self):
        with pytest.raises(RuleParseError):
            parse_rule_line("@@$script")

    def test_list_name_attached(self):
        rule = parse_rule_line("||a.example^", list_name="easylist")
        assert rule is not None and rule.list_name == "easylist"


class TestDocumentParsing:
    DOC = """\
[Adblock Plus 2.0]
! Title: test list
||tracker.example^
@@||tracker.example/allowed^
example.com###sidebar-ad
/pixel*

! trailing comment
"""

    def test_counts(self):
        parsed = parse_filter_list(self.DOC, name="test")
        assert parsed.name == "test"
        assert len(parsed.rules) == 3
        assert len(parsed.blocking_rules) == 2
        assert len(parsed.exception_rules) == 1
        assert parsed.comment_count == 3  # header + 2 comments
        assert parsed.cosmetic_count == 1

    def test_malformed_line_collected_not_raised(self):
        parsed = parse_filter_list("@@$script\n||good.example^\n")
        assert parsed.error_lines == ["@@$script"]
        assert len(parsed.rules) == 1

    def test_empty_document(self):
        parsed = parse_filter_list("")
        assert parsed.rules == []


class TestRegexRulePreservation:
    """Regression: ``/…/`` regex rules used to have their delimiters
    stripped, storing ``/track/v1/`` as the misleading substring pattern
    ``track/v1`` — and were then dropped from matching with zero
    accounting."""

    def test_regex_rule_pattern_keeps_delimiters(self):
        rule = parse_rule_line("/track/v1/")
        assert rule is not None
        assert rule.pattern == "/track/v1/"
        assert "regex-rule" in rule.options.unsupported
        assert not rule.supported

    def test_regex_rule_keeps_other_options(self):
        rule = parse_rule_line(r"/banner\d+/$third-party")
        assert rule.pattern == r"/banner\d+/"
        assert "regex-rule" in rule.options.unsupported
        assert rule.options.third_party is True

    def test_unsupported_counts_surfaced(self):
        parsed = parse_filter_list(
            "/track/v1/\n"
            r"/banner\d+/"
            "\n||real.example^\n/ads/*$websocket-frame-weirdness\n"
        )
        assert parsed.unsupported_counts == {
            "regex-rule": 2,
            "websocket-frame-weirdness": 1,
        }
        assert parsed.unsupported_rule_count == 3

    def test_clean_list_has_no_unsupported(self):
        parsed = parse_filter_list("||a.example^\n@@||b.example^")
        assert parsed.unsupported_counts == {}
        assert parsed.unsupported_rule_count == 0


class TestLineClassification:
    """``parse_rule_line`` and ``parse_filter_list`` classify a line the
    same way: (rule text/pattern/exception/third-party or None, and the
    document's (rules, comments, cosmetics, errors) counts)."""

    @pytest.mark.parametrize(
        "line, rule, counts",
        [
            ("example.com#@#.ads", None, (0, 0, 1, 0)),
            ("example.com#$#abort-on-property-read x", None, (0, 0, 1, 0)),
            ("example.com#%#//scriptlet('x')", None, (0, 0, 1, 0)),
            ("foo#bar", ("foo#bar", "foo#bar", False, None), (1, 0, 0, 0)),
            (
                "   ||ads.example^  ",
                ("||ads.example^", "||ads.example^", False, None),
                (1, 0, 0, 0),
            ),
            ("[Adblock Plus 2.0]", None, (0, 1, 0, 0)),
            ("!", None, (0, 1, 0, 0)),
            ("", None, (0, 0, 0, 0)),
            (
                "@@||cdn.example^$third-party",
                ("@@||cdn.example^$third-party", "||cdn.example^", True, True),
                (1, 0, 0, 0),
            ),
            ("$third-party", RuleParseError, (0, 0, 0, 1)),
        ],
    )
    def test_edge_lines(self, line, rule, counts):
        if rule is RuleParseError:
            with pytest.raises(RuleParseError):
                parse_rule_line(line)
        else:
            parsed_rule = parse_rule_line(line)
            assert (
                None
                if parsed_rule is None
                else (
                    parsed_rule.text,
                    parsed_rule.pattern,
                    parsed_rule.is_exception,
                    parsed_rule.options.third_party,
                )
            ) == rule
        parsed = parse_filter_list(line)
        assert (
            len(parsed.rules),
            parsed.comment_count,
            parsed.cosmetic_count,
            len(parsed.error_lines),
        ) == counts
