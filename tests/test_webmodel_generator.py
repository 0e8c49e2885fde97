"""Generator invariants: calibration fidelity, determinism, band validity."""

import pytest

from repro.logratio import log_ratio
from repro.webmodel.calibration import scale_targets
from repro.webmodel.generator import SyntheticWebGenerator, generate_web
from repro.webmodel.resources import Category, ScriptKind


class TestBuildBasics:
    def test_validate_passes(self, small_web):
        small_web.validate()  # raises on any out-of-band entity

    def test_site_count(self, small_web):
        assert small_web.sites == 150

    def test_every_site_has_scripts(self, small_web):
        # app scripts are created lazily; a site with zero planned traffic
        # can stay bare, but the overwhelming majority must be populated
        populated = sum(1 for w in small_web.websites if w.scripts)
        assert populated >= 0.9 * small_web.sites

    def test_minimum_sites_enforced(self):
        with pytest.raises(ValueError):
            SyntheticWebGenerator(sites=5)

    def test_lookup_helpers(self, small_web):
        site = small_web.websites[0]
        assert small_web.website(site.url) is site
        script = small_web.scripts[0]
        assert small_web.script(script.url) is script
        with pytest.raises(KeyError):
            small_web.website("https://nonexistent.example/")


class TestCalibrationFidelity:
    def test_domain_entity_counts_match_targets(self, small_web):
        targets = small_web.targets
        by_cat = {c: 0 for c in Category}
        for domain in small_web.domains:
            by_cat[domain.category] += 1
        assert by_cat[Category.TRACKING] == targets.domain.entities_tracking
        assert by_cat[Category.FUNCTIONAL] == targets.domain.entities_functional
        assert by_cat[Category.MIXED] == targets.domain.entities_mixed

    def test_domain_request_totals_match_targets(self, small_web):
        targets = small_web.targets
        totals = {c: 0 for c in Category}
        for domain in small_web.domains:
            totals[domain.category] += domain.total_requests
        assert totals[Category.TRACKING] == targets.domain.requests_tracking
        assert totals[Category.FUNCTIONAL] == targets.domain.requests_functional
        assert totals[Category.MIXED] == targets.domain.requests_mixed

    def test_planned_requests_equal_domain_totals(self, small_web):
        domain_total = sum(d.total_requests for d in small_web.domains)
        assert small_web.planned_request_count() == domain_total

    def test_mixed_hostname_budgets_fully_paired(self, small_web):
        # every mixed hostname's (T, F) budget must be served by scripts
        from collections import Counter

        served: Counter = Counter()
        from repro.urlkit import hostname as host_of

        for script in small_web.scripts:
            for method in script.methods:
                for inv in method.invocations:
                    for req in inv.requests:
                        served[(host_of(req.url), req.tracking)] += 1
        for domain in small_web.domains:
            if domain.category is not Category.MIXED:
                continue
            for host in domain.hostnames:
                if host.category is not Category.MIXED:
                    continue
                assert served[(host.host, True)] == host.tracking_requests
                assert served[(host.host, False)] == host.functional_requests


class TestBands:
    def test_every_mixed_script_is_in_band(self, small_web):
        for script in small_web.scripts:
            if script.category is not Category.MIXED:
                continue
            t, f = script.request_counts()
            assert t >= 1 and f >= 1, script.url
            assert -2.0 < log_ratio(t, f) < 2.0, script.url

    def test_every_method_in_mixed_scripts_is_in_band(self, small_web):
        for script in small_web.scripts:
            if script.category is not Category.MIXED:
                continue
            for method in script.methods:
                t, f = method.request_counts()
                if t + f == 0:
                    continue  # bundling partners contribute empty methods
                ratio = log_ratio(t, f)
                if method.category is Category.TRACKING:
                    assert ratio >= 2.0
                elif method.category is Category.FUNCTIONAL:
                    assert ratio <= -2.0
                else:
                    assert -2.0 < ratio < 2.0


class TestDeterminism:
    def test_same_seed_same_population(self):
        a = generate_web(sites=60, seed=13)
        b = generate_web(sites=60, seed=13)
        assert [d.domain for d in a.domains] == [d.domain for d in b.domains]
        assert [s.url for s in a.scripts] == [s.url for s in b.scripts]
        assert a.planned_request_count() == b.planned_request_count()

    def test_different_seed_differs(self):
        a = generate_web(sites=60, seed=13)
        b = generate_web(sites=60, seed=14)
        assert [s.url for s in a.scripts] != [s.url for s in b.scripts]


class TestTransforms:
    def test_inline_and_bundled_scripts_exist(self, small_web):
        kinds = {s.kind for s in small_web.scripts}
        assert ScriptKind.INLINE in kinds
        assert ScriptKind.EXTERNAL in kinds
        assert ScriptKind.BUNDLED in kinds

    def test_inline_scripts_use_document_url(self, small_web):
        for script in small_web.scripts:
            if script.kind is ScriptKind.INLINE:
                assert "#inline-" in script.url

    def test_bundles_record_sources(self, small_web):
        bundles = [s for s in small_web.scripts if s.kind is ScriptKind.BUNDLED]
        for bundle in bundles:
            assert len(bundle.bundle_sources) >= 2


class TestFunctionality:
    def test_sites_with_scripts_have_features(self, small_web):
        for site in small_web.websites:
            if site.scripts:
                assert site.functionalities

    def test_most_mixed_scripts_carry_functionality(self, small_web):
        carried = decorative = 0
        for site in small_web.websites:
            for script in site.mixed_scripts():
                required = any(
                    script.url in f.required_scripts
                    or any(s == script.url for s, _ in f.required_methods)
                    for f in site.functionalities
                )
                if required:
                    carried += 1
                else:
                    decorative += 1
        total = carried + decorative
        if total:
            assert carried / total > 0.7


class TestScaledTargetsAttached:
    def test_targets_match_scale(self, small_web):
        expected = scale_targets(150)
        assert small_web.targets.domain == expected.domain


class TestSharedInvocationArgs:
    """Equal plan values are one object: invocations with the same
    ``(event, dest)`` context share one args dict, and equal frames,
    caller chains, async halves and dependency sets are shared too.  The
    values belong to one build and nothing downstream changes them."""

    @staticmethod
    def _args(web):
        return [
            invocation.args
            for script in web.scripts
            for method in script.methods
            for invocation in method.invocations
        ]

    def test_shared_within_a_build_not_across_builds(self):
        first = self._args(generate_web(sites=60, seed=3))
        second = self._args(generate_web(sites=60, seed=3))
        by_context = {}
        for args in first:
            assert by_context.setdefault((args["event"], args["dest"]), args) is args
        assert len(by_context) < len(first)
        assert second == first
        assert not {id(a) for a in first} & {id(a) for a in second}

    def test_guards_internal_pages_and_policy_loads_leave_args_unchanged(self):
        from repro.browser.engine import BlockingPolicy, BrowserEngine
        from repro.core.guards import mixed_method_guards
        from repro.webmodel.internal import add_internal_pages

        web = generate_web(sites=60, seed=3)
        before = [(args, dict(args)) for args in self._args(web)]

        guards = [guard for guard, _ in mixed_method_guards(web)]
        assert guards
        add_internal_pages(web)
        policy = BlockingPolicy(
            guards=tuple(guard.as_policy_guard() for guard in guards)
        )
        engine = BrowserEngine(seed=3)
        blocked = 0
        for website in web.websites:
            blocked += len(engine.load(website, policy).blocked_invocations)
        assert blocked

        assert all(args == snapshot for args, snapshot in before)

    @staticmethod
    def _shared_values(web):
        """``(kind, value)`` for every frame, non-empty chain (async
        halves included) and dependency set the plan holds."""
        for script in web.scripts:
            for method in script.methods:
                for invocation in method.invocations:
                    for chain in (invocation.caller_chain, invocation.async_chain):
                        if chain:
                            yield "chain", chain
                        for frame in chain:
                            yield "frame", frame
        for site in web.websites:
            for feature in site.functionalities:
                yield "deps", feature.required_scripts
                yield "deps", feature.required_methods

    @staticmethod
    def _snapshot(kind, value):
        if kind == "frame":
            return value.script_url, value.method
        if kind == "chain":
            return tuple((frame.script_url, frame.method) for frame in value)
        return sorted(value)

    def test_frames_chains_and_deps_shared_within_a_build_not_across_builds(self):
        first_web = generate_web(sites=60, seed=3)
        second_web = generate_web(sites=60, seed=3)
        first = list(self._shared_values(first_web))
        second = list(self._shared_values(second_web))
        assert [self._snapshot(*item) for item in second] == [
            self._snapshot(*item) for item in first
        ]

        by_value = {}
        for kind, value in first:
            assert by_value.setdefault((kind, value), value) is value
        for kind in ("frame", "chain", "deps"):
            held = sum(1 for k, _ in first if k == kind)
            distinct = sum(1 for k, _ in by_value if k == kind)
            assert distinct < held, kind
        assert any(not deps for kind, deps in first if kind == "deps")

        async_heads = [
            (inv.caller_chain, inv.async_chain)
            for script in first_web.scripts
            for method in script.methods
            for inv in method.invocations
            if inv.async_chain
        ]
        assert async_heads
        for head, tail in async_heads:
            assert by_value["chain", head] is head
            assert by_value["chain", tail] is tail

        assert not {id(v) for _, v in first} & {id(v) for _, v in second}

    def test_transforms_and_guard_training_leave_shared_values_unchanged(self):
        from repro.core.guards import mixed_method_guards
        from repro.webmodel import (
            add_internal_pages,
            anonymize_methods,
            apply_cname_cloaking,
        )

        web = generate_web(sites=60, seed=3)
        values = [(v, self._snapshot(k, v), k) for k, v in self._shared_values(web)]
        args = [(a, dict(a)) for a in self._args(web)]

        assert mixed_method_guards(web)
        add_internal_pages(web)
        assert apply_cname_cloaking(web, fraction=0.5).cloaked_requests
        assert anonymize_methods(web).methods_anonymized

        assert all(self._snapshot(k, v) == snap for v, snap, k in values)
        assert all(a == snap for a, snap in args)


def _plan_digest(web) -> str:
    """SHA-256 over every planned field of ``web``, in plan order.

    Covers what the pipeline's content fingerprint skips: each
    invocation's site, requests, caller and async frames, args and
    sequence; each method's coverage and source position; each site's
    functionalities with their dependency sets.
    """
    import hashlib

    def frames(chain):
        return [(frame.script_url, frame.method) for frame in chain]

    def script_record(script):
        return (
            script.url,
            script.category.value,
            script.kind.value,
            list(script.sites),
            list(script.bundle_sources),
            [
                (
                    method.name,
                    method.category.value,
                    repr(method.coverage),
                    method.line,
                    method.column,
                    [
                        (
                            inv.site,
                            [
                                (req.url, req.tracking, req.resource_type)
                                for req in inv.requests
                            ],
                            frames(inv.caller_chain),
                            frames(inv.async_chain),
                            sorted(inv.args.items()),
                            inv.sequence,
                        )
                        for inv in method.invocations
                    ],
                )
                for method in script.methods
            ],
        )

    digest = hashlib.sha256()
    for site in web.websites:
        record = (
            site.url,
            site.rank,
            [script.url for script in site.scripts],
            [
                (
                    feature.name,
                    feature.tier.value,
                    sorted(feature.required_scripts),
                    sorted(feature.required_methods),
                )
                for feature in site.functionalities
            ],
        )
        digest.update(repr(record).encode())
    for script in web.scripts:
        digest.update(repr(script_record(script)).encode())
    for domain in web.domains:
        record = (
            domain.domain,
            domain.category.value,
            [
                (h.host, h.category.value, h.tracking_requests, h.functional_requests)
                for h in domain.hostnames
            ],
        )
        digest.update(repr(record).encode())
    digest.update(repr(sorted(web.listed_tracker_domains)).encode())
    return digest.hexdigest()


class TestPlanGolden:
    """The full planned content of two small seeded webs, pinned.

    Any change to how the generator builds, shares or orders plan values
    must reproduce these digests exactly.
    """

    @pytest.mark.parametrize(
        ("seed", "expected"),
        [
            (7, "3a0d7f5d6560e6e735bfe9e90095feac0cc4a894559a43d0abb36a383fab7640"),
            (31, "4d1a504a394305b14acb5d1533d5d6ce3b6d36ef5894b8f8b6d843f678f947eb"),
        ],
    )
    def test_plan_digest(self, seed, expected):
        assert _plan_digest(generate_web(sites=60, seed=seed)) == expected
