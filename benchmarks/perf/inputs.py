"""Seeded inputs.  The program under test only ever sees what these build.

* :func:`easylist_shaped` — a synthetic list whose rule kinds (host
  anchors, path fragments, option-carrying rules, exceptions) come in the
  proportions of the embedded EasyList and EasyPrivacy snapshots, so every
  index tier of the matcher holds rules.
* :func:`crawl_trace` — the ``(url, resource_type, page_url)`` triples a
  content blocker would be asked about while loading the landing pages
  of a small synthetic web.
* :func:`hotfix_rules` — host rules for a seeded handful of trace hosts,
  so a reload to "base plus hotfix" changes real decisions.
* :func:`cache_buster` — letters-only query tokens: the decision cache
  collapses digit runs in the path and query, so digit busters would
  alias and turn intended misses into hits.
"""

from __future__ import annotations

import random
import string
from collections import Counter

from repro.browser.engine import BrowserEngine
from repro.filterlists.lists import default_lists
from repro.filterlists.rules import ResourceType, RuleOptions
from repro.urlkit import URLError, hostname
from repro.webmodel.generator import SyntheticWebGenerator

_LETTERS = string.ascii_lowercase


def _word(rng: random.Random, low: int = 4, high: int = 9) -> str:
    return "".join(rng.choice(_LETTERS) for _ in range(rng.randint(low, high)))


def rule_kind(rule) -> str:
    """``exception``, ``options`` (a blocking rule with options), ``host``
    (a ``||``-anchored blocking rule) or ``path`` (any other)."""
    if rule.is_exception:
        return "exception"
    if rule.options != RuleOptions():
        return "options"
    return "host" if rule.pattern.startswith("||") else "path"


def easylist_shaped(seed: int, count: int) -> str:
    """``count`` distinct seeded rules, each kind drawn with the weight
    :func:`rule_kind` gives it over the embedded lists' network rules."""
    kinds = Counter(rule_kind(r) for parsed in default_lists() for r in parsed.rules)
    names = sorted(kinds)
    rng = random.Random(f"easylist-{seed}")
    tlds = ("com", "net", "org", "io", "co.uk", "de")
    lines: list[str] = []
    drawn = rng.choices(names, [kinds[name] for name in names], k=count)
    for index, kind in enumerate(drawn):
        name = f"{_word(rng)}{index}"
        if kind == "host":
            lines.append(f"||{name}.{_word(rng, 3, 6)}.{rng.choice(tlds)}^")
        elif kind == "path":
            lines.append(f"/{name}/*")
        elif kind == "options":
            lines.append(f"-{name}-$image,third-party")
        else:
            lines.append(f"@@||cdn-{name}.{_word(rng, 3, 6)}.com^$script")
    return "\n".join(lines) + "\n"


def crawl_trace(seed: int, sites: int) -> list[tuple[str, str, str]]:
    """Every request a crawl of ``sites`` landing pages issues, as
    ``(url, resource_type, page_url)`` in load order."""
    web = SyntheticWebGenerator(sites=sites, seed=seed).build()
    browser = BrowserEngine(seed=seed)
    trace: list[tuple[str, str, str]] = []
    for website in web.websites:
        for event in browser.load(website).requests:
            if ResourceType.from_option(event.resource_type) is None:
                continue
            trace.append((event.url, event.resource_type, event.top_level_url))
    return trace


def hotfix_rules(trace: list[tuple[str, str, str]], seed: int,
                 count: int) -> str:
    """``||host^`` rules for ``count`` seeded hosts seen in ``trace``."""
    hosts: dict[str, None] = {}
    for url, _, _ in trace:
        try:
            hosts.setdefault(hostname(url), None)
        except URLError:
            continue
    rng = random.Random(f"hotfix-{seed}")
    chosen = rng.sample(list(hosts), min(count, len(hosts)))
    return "".join(f"||{host}^\n" for host in chosen)


def buster_prefix(seed: int) -> str:
    """The seeded letters every :func:`cache_buster` token starts with."""
    return "".join(random.Random(f"buster-{seed}").choices(_LETTERS, k=3))


def cache_buster(prefix: str, index: int) -> str:
    """A letters-only token, distinct for every ``index``."""
    digits = []
    value = index
    while True:
        value, remainder = divmod(value, 26)
        digits.append(_LETTERS[remainder])
        if value == 0:
            break
    return prefix + "".join(reversed(digits))


def busted(url: str, token: str) -> str:
    """``url`` with a cache-busting query parameter appended."""
    return f"{url}{'&' if '?' in url else '?'}tsb={token}"
