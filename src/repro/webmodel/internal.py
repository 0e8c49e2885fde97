"""Internal-page crawling extension (paper §5, Limitations).

The study crawls landing pages only and notes "the results might vary for
internal pages", citing Aqeel et al.'s landing-vs-internal discrepancy.
This module extends a generated population with internal pages so the
pipeline can quantify that variation:

* each selected site gains ``pages_per_site`` internal article pages,
* the landing page's scripts re-run there, with tracking invocations
  replayed *more* often than functional ones (retargeting pixels and
  scroll-analytics fire on every article; one-time setup fetches do not),
* each internal page adds first-party article content fetches.

The transform is opt-in and returns a manifest; the default population
stays exactly as calibrated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .generator import SyntheticWeb
from .resources import Frame, Invocation, MethodSpec, PlannedRequest, ScriptSpec
from .resources import Category, ScriptKind
from .website import Website

__all__ = ["InternalPagesManifest", "add_internal_pages"]


@dataclass(frozen=True)
class InternalPagesManifest:
    """What the transform added."""

    pages_added: int
    tracking_requests_added: int
    functional_requests_added: int
    sites_extended: int

    @property
    def requests_added(self) -> int:
        return self.tracking_requests_added + self.functional_requests_added


def add_internal_pages(
    web: SyntheticWeb,
    *,
    pages_per_site: int = 2,
    site_fraction: float = 0.5,
    tracking_replay: float = 0.85,
    functional_replay: float = 0.35,
    seed: int = 31,
) -> InternalPagesManifest:
    """Extend ``web`` with internal pages; mutates it in place.

    ``tracking_replay`` / ``functional_replay`` are the probabilities that
    a landing-page invocation of that label replays on each internal page —
    the asymmetry is what shifts the ratio distribution on internal crawls.
    """
    if pages_per_site < 1:
        raise ValueError("pages_per_site must be >= 1")
    rng = random.Random(seed)
    next_rank = max(site.rank for site in web.websites) + 1

    pages_added = 0
    tracking_added = 0
    functional_added = 0
    sites_extended = 0
    new_websites: list[Website] = []

    landing_pages = list(web.websites)
    for site in landing_pages:
        if not site.scripts or rng.random() >= site_fraction:
            continue
        sites_extended += 1
        for page_index in range(pages_per_site):
            page_url = f"{site.url}articles/{page_index + 1}/"
            page = Website(url=page_url, rank=next_rank)
            next_rank += 1
            pages_added += 1

            # Replay the landing page's script invocations.
            for script in site.scripts:
                replayed = False
                for method in script.methods:
                    for invocation in list(method.invocations):
                        if invocation.site != site.url:
                            continue
                        is_tracking = any(r.tracking for r in invocation.requests)
                        replay = tracking_replay if is_tracking else functional_replay
                        if rng.random() >= replay:
                            continue
                        clone = Invocation(
                            site=page_url,
                            requests=list(invocation.requests),
                            caller_chain=invocation.caller_chain,
                            async_chain=invocation.async_chain,
                            args=invocation.args,
                        )
                        method.invocations.append(clone)
                        replayed = True
                        for request in clone.requests:
                            if request.tracking:
                                tracking_added += 1
                            else:
                                functional_added += 1
                if replayed or script.kind is not ScriptKind.INLINE:
                    page.scripts.append(script)
                    if page_url not in script.sites:
                        script.sites.append(page_url)

            # First-party article content, fetched by a page-local script.
            article = _article_script(page_url, site.url, rng)
            page.scripts.append(article)
            functional_added += sum(
                len(inv.requests)
                for method in article.methods
                for inv in method.invocations
            )
            new_websites.append(page)
            web.scripts.append(article)

    web.websites.extend(new_websites)
    return InternalPagesManifest(
        pages_added=pages_added,
        tracking_requests_added=tracking_added,
        functional_requests_added=functional_added,
        sites_extended=sites_extended,
    )


def _article_script(page_url: str, site_url: str, rng: random.Random) -> ScriptSpec:
    host = site_url.removeprefix("https://").strip("/")
    count = rng.randint(1, 3)
    method = MethodSpec(name="loadArticle", category=Category.FUNCTIONAL)
    method.invocations.append(
        Invocation(
            site=page_url,
            requests=[
                PlannedRequest(
                    url=f"https://{host}/api/v1/content/{rng.randrange(10**6)}",
                    tracking=False,
                    resource_type="xmlhttprequest",
                )
                for _ in range(count)
            ],
            caller_chain=(Frame(f"{page_url}#inline-0", "onload"),),
            args={"event": "load", "dest": host},
        )
    )
    return ScriptSpec(
        url=f"{page_url}#inline-0",
        category=Category.FUNCTIONAL,
        kind=ScriptKind.INLINE,
        methods=[method],
        sites=[page_url],
    )
