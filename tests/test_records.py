"""The record contract of the data classes a study's set-up loads, and of
the table rows a CLI study renders.

Every value type on the study path (URLs, rules, plan entities, DevTools
events, labeled requests, reports, configs) is a plain record: equality
and repr over its fields in declaration order, a hash over the same
fields when it is immutable and none when it is mutable, a constructor
that takes the fields positionally and by name, a fresh container per
instance for container-valued defaults, and validation that raises
``ValueError``.  These tests pin that contract for each class, so how a
record is declared can change without any caller seeing a difference.
"""

from __future__ import annotations

import copy
import pickle
import re
from typing import Callable, NamedTuple

import pytest

from repro.analysis.report import PaperComparison
from repro.analysis.tables import Table1Row, Table2Row, Table3Row
from repro.browser.callstack import CallFrame, CallStack
from repro.browser.devtools import RequestWillBeSent, ResponseReceived
from repro.browser.engine import BlockingPolicy, PageLoad
from repro.core.classifier import RatioClassifier, ResourceClass, ResourceCounts
from repro.core.engine import PipelineConfig, PipelineResult, ShardState
from repro.core.results import LevelReport, ResourceResult, SiftReport
from repro.crawler.cluster import ClusterCrawlResult, NodeReport
from repro.crawler.storage import RequestDatabase
from repro.crawler.tranco import RankedSite
from repro.faults.plan import FaultPlan, FaultSpec
from repro.filterlists.cache import CacheStats
from repro.filterlists.matcher import MatchResult
from repro.filterlists.oracle import Label, LabeledRequest
from repro.filterlists.parser import ParsedList
from repro.filterlists.rules import (
    NetworkRule,
    RequestContext,
    ResourceType,
    RuleOptions,
)
from repro.labeling.labeler import AnalyzedRequest, LabeledCrawl
from repro.obs.trace import SpanRecord
from repro.urlkit.url import URL
from repro.webmodel.calibration import LevelTargets, PaperTargets, ScaledTargets
from repro.webmodel.generator import (
    SyntheticWeb,
    _Budget,
    _HostSlots,
    _PlannedMethod,
    _PlannedScript,
)
from repro.webmodel.resources import (
    Category,
    DomainSpec,
    Frame,
    HostnameSpec,
    Invocation,
    MethodSpec,
    PlannedRequest,
    ScriptKind,
    ScriptSpec,
)
from repro.webmodel.website import Functionality, FunctionalityTier, Website


_SCRIPT = "https://cdn.example/a.js"
_PIXEL = "https://ads.example/p.gif"
_PAGE = "https://site.example/"


def _guard(script_url: str, method: str, args: dict) -> bool:
    return args.get("event") == "imp"


_DATABASE = RequestDatabase()
_LEVEL = LevelTargets(1, 2, 3, 40, 50, 60)
_RULE_OPTIONS = RuleOptions(
    include_types=frozenset({ResourceType.SCRIPT}),
    third_party=True,
    include_domains=("news.example",),
)
_RULE = NetworkRule(
    "||ads.example^$script", "||ads.example^", False, _RULE_OPTIONS, "easylist"
)
_EXCEPTION = NetworkRule(
    "@@||ads.example/ok", "||ads.example/ok", True, list_name="easylist"
)
_RESULT = ResourceResult("ads.example", ResourceCounts(9, 0), ResourceClass.TRACKING)
_STACK = CallStack(
    (CallFrame(_SCRIPT, "send", 3, 7),),
    CallStack((CallFrame(_PAGE, "onload"),), description="setTimeout"),
)
_ANALYZED_ARGS = (
    _PIXEL,
    Label.TRACKING,
    "ads.example",
    "ads.example",
    _SCRIPT,
    "send",
    _PAGE,
    "image",
    (_SCRIPT,),
    ((_SCRIPT, "send"),),
    "||ads.example^",
    "easylist",
)
_ANALYZED = AnalyzedRequest(*_ANALYZED_ARGS)
_WEBSITE = Website(
    _PAGE,
    3,
    [ScriptSpec(_SCRIPT, Category.MIXED)],
    [Functionality("menu", FunctionalityTier.CORE, frozenset({_SCRIPT}))],
)
_SCALED = ScaledTargets(20, 0.0002, _LEVEL, _LEVEL, _LEVEL, _LEVEL)
_WEB = SyntheticWeb(
    7,
    _SCALED,
    [_WEBSITE],
    [DomainSpec("ads.example", Category.TRACKING)],
    [ScriptSpec(_SCRIPT, Category.MIXED)],
    frozenset({"ads.example"}),
)
_LEVEL_REPORT = LevelReport(
    "domain",
    {"ads.example": _RESULT},
)
_CONFIG = PipelineConfig(40, 5, 3, 2.5, 0.1, False, 2.0)


class Case(NamedTuple):
    """One record class: a full sample, the minimal constructor call, and
    the names of its container-valued defaults."""

    cls: type
    make: Callable[[], object]
    frozen: bool
    minimal: Callable[[], object] | None = None
    factories: tuple[str, ...] = ()
    #: False for a frozen record holding a dict: it defines a hash, which
    #: then raises TypeError, exactly like a tuple holding a dict.
    hashable: bool = True
    #: False when a field compares by identity (a RequestDatabase), so a
    #: deep copy or a pickle round trip cannot equal the original.
    by_value: bool = True


CASES = [
    Case(ResourceCounts, lambda: ResourceCounts(3, 4), True),
    Case(RatioClassifier, lambda: RatioClassifier(2.5), True),
    Case(Frame, lambda: Frame(_SCRIPT, "send"), True),
    Case(PlannedRequest, lambda: PlannedRequest(_PIXEL, True, "image"), True),
    Case(
        Invocation,
        lambda: Invocation(
            _PAGE,
            (PlannedRequest(_PIXEL, True),),
            (Frame(_SCRIPT, "init"),),
            (Frame(_SCRIPT, "tick"),),
            {"event": "imp", "dest": "ads"},
            4,
        ),
        False,
        minimal=lambda: Invocation(_PAGE),
        factories=("args",),
    ),
    Case(
        MethodSpec,
        lambda: MethodSpec("send", Category.MIXED, [Invocation(_PAGE)], 0.5, 10, 2),
        False,
        minimal=lambda: MethodSpec("send", Category.MIXED),
        factories=("invocations",),
    ),
    Case(
        ScriptSpec,
        lambda: ScriptSpec(
            _SCRIPT,
            Category.TRACKING,
            ScriptKind.BUNDLED,
            [MethodSpec("send", Category.TRACKING)],
            [_PAGE],
            ("https://cdn.example/b.js",),
        ),
        False,
        minimal=lambda: ScriptSpec(_SCRIPT, Category.TRACKING),
        factories=("methods", "sites"),
    ),
    Case(
        HostnameSpec,
        lambda: HostnameSpec("px.ads.example", Category.TRACKING, 9, 1),
        False,
    ),
    Case(
        DomainSpec,
        lambda: DomainSpec(
            "ads.example",
            Category.TRACKING,
            [HostnameSpec("px.ads.example", Category.TRACKING)],
        ),
        False,
        minimal=lambda: DomainSpec("ads.example", Category.TRACKING),
        factories=("hostnames",),
    ),
    Case(LevelTargets, lambda: LevelTargets(1, 2, 3, 40, 50, 60), True),
    Case(PaperTargets, lambda: PaperTargets(1000, *[_LEVEL] * 4), True),
    Case(ScaledTargets, lambda: ScaledTargets(20, 0.0002, *[_LEVEL] * 4), True),
    Case(
        URL,
        lambda: URL("https", "site.example", "/a", "q=1", "top", 8443, "user", "secret"),
        True,
    ),
    Case(
        RequestContext,
        lambda: RequestContext(_PIXEL, ResourceType.IMAGE, "site.example", False),
        True,
    ),
    Case(
        RuleOptions,
        lambda: RuleOptions(
            frozenset({ResourceType.SCRIPT}),
            frozenset({ResourceType.IMAGE}),
            True,
            ("news.example",),
            ("blog.news.example",),
            True,
            ("csp",),
        ),
        True,
    ),
    Case(
        NetworkRule,
        lambda: NetworkRule(
            "||ads.example^$script", "||ads.example^", False, _RULE_OPTIONS, "easylist"
        ),
        True,
    ),
    Case(
        ParsedList,
        lambda: ParsedList("easylist", [_RULE], 2, 1, ["##bad"]),
        False,
        minimal=lambda: ParsedList("easylist"),
        factories=("rules", "error_lines"),
    ),
    Case(MatchResult, lambda: MatchResult(False, _RULE, _EXCEPTION), True),
    Case(CacheStats, lambda: CacheStats(5, 2), False),
    Case(
        LabeledRequest,
        lambda: LabeledRequest(_PIXEL, Label.TRACKING, "||ads.example^", "easylist"),
        True,
    ),
    Case(
        Functionality,
        lambda: Functionality(
            "menu",
            FunctionalityTier.CORE,
            frozenset({_SCRIPT}),
            frozenset({(_SCRIPT, "open")}),
        ),
        False,
    ),
    Case(
        Website,
        lambda: Website(
            _PAGE,
            3,
            [ScriptSpec(_SCRIPT, Category.MIXED)],
            [Functionality("menu", FunctionalityTier.CORE)],
        ),
        False,
        minimal=lambda: Website(_PAGE, 3),
        factories=("scripts", "functionalities"),
    ),
    Case(
        SyntheticWeb,
        lambda: SyntheticWeb(
            7,
            _SCALED,
            [_WEBSITE],
            [DomainSpec("ads.example", Category.TRACKING)],
            [ScriptSpec(_SCRIPT, Category.MIXED)],
            frozenset({"ads.example"}),
        ),
        False,
    ),
    Case(_Budget, lambda: _Budget(7, 3), False),
    Case(
        _PlannedMethod,
        lambda: _PlannedMethod("send", Category.MIXED, _Budget(7, 3), 0.5, False),
        False,
    ),
    Case(
        _PlannedScript,
        lambda: _PlannedScript(
            Category.MIXED, [_PlannedMethod("send", Category.MIXED, _Budget(7, 3))]
        ),
        False,
        minimal=lambda: _PlannedScript(Category.MIXED),
        factories=("methods",),
    ),
    Case(_HostSlots, lambda: _HostSlots("px.ads.example", True, 4, 1), False),
    Case(CallFrame, lambda: CallFrame(_SCRIPT, "send", 3, 7), True),
    Case(
        CallStack,
        lambda: CallStack(
            (CallFrame(_SCRIPT, "send", 3, 7),),
            CallStack((CallFrame(_PAGE, "onload"),), description="setTimeout"),
        ),
        True,
    ),
    Case(
        RequestWillBeSent,
        lambda: RequestWillBeSent(
            "1000.1",
            _PIXEL,
            _PAGE,
            _PAGE,
            "image",
            1.5,
            _STACK,
            {"Referer": _PAGE},
            "POST",
        ),
        True,
        minimal=lambda: RequestWillBeSent("1000.1", "u", "t", "f", "image", 0.0),
        factories=("headers",),
        hashable=False,
    ),
    Case(
        ResponseReceived,
        lambda: ResponseReceived(
            "1000.1", _PIXEL, 204, "image/gif", 1.75, {"Server": "x"}, 43
        ),
        True,
        minimal=lambda: ResponseReceived("1000.1", "u", 200, "text/plain", 0.0),
        factories=("headers",),
        hashable=False,
    ),
    Case(
        BlockingPolicy,
        lambda: BlockingPolicy(
            frozenset({_SCRIPT}),
            frozenset({("https://cdn.example/b.js", "send")}),
            (("https://cdn.example/c.js", "track", _guard),),
        ),
        True,
    ),
    Case(
        PageLoad,
        lambda: PageLoad(
            _WEBSITE,
            [RequestWillBeSent("1000.1", "u", "t", "f", "image", 0.0)],
            [ResponseReceived("1000.1", "u", 200, "text/plain", 0.0)],
            [(_SCRIPT, "send")],
            {"menu": True},
            9.5,
        ),
        False,
        minimal=lambda: PageLoad(_WEBSITE),
        factories=("requests", "responses", "blocked_invocations", "functionality"),
    ),
    Case(RankedSite, lambda: RankedSite(3, _PAGE), True),
    Case(NodeReport, lambda: NodeReport(2, 10, 9, 1, 10.5), True),
    Case(
        ClusterCrawlResult,
        lambda: ClusterCrawlResult(_DATABASE, [NodeReport(2, 10, 9, 1, 10.5)]),
        False,
        minimal=lambda: ClusterCrawlResult(_DATABASE),
        factories=("nodes",),
        by_value=False,
    ),
    Case(
        FaultSpec,
        lambda: FaultSpec("worker.shard", "slow", 4, (1, 2), 0.5, 9, 0.25),
        True,
    ),
    Case(
        FaultPlan,
        lambda: FaultPlan((FaultSpec("worker.shard", "crash", 1),), "one-crash"),
        True,
    ),
    Case(AnalyzedRequest, lambda: AnalyzedRequest(*_ANALYZED_ARGS), True),
    Case(
        LabeledCrawl,
        lambda: LabeledCrawl([_ANALYZED], 2, 1, {_SCRIPT: [1, 0]}),
        False,
        minimal=lambda: LabeledCrawl(),
        factories=("requests", "participation"),
    ),
    Case(
        SpanRecord,
        lambda: SpanRecord(3, 1, "shard.label", 10.25, 0.5, {"shard": 2}),
        False,
        minimal=lambda: SpanRecord(3, 1, "shard.label", 10.25, 0.5),
        factories=("attrs",),
    ),
    Case(
        ResourceResult,
        lambda: ResourceResult(
            "ads.example", ResourceCounts(9, 0), ResourceClass.TRACKING
        ),
        True,
    ),
    Case(
        LevelReport,
        lambda: LevelReport(
            "domain",
            {"ads.example": copy.copy(_RESULT)},
        ),
        False,
        minimal=lambda: LevelReport("domain"),
        factories=("resources",),
    ),
    Case(
        SiftReport,
        lambda: SiftReport([_LEVEL_REPORT], 9),
        False,
        minimal=lambda: SiftReport(),
        factories=("levels",),
    ),
    Case(PipelineConfig, lambda: PipelineConfig(40, 5, 3, 2.5, 0.1, False, 2.0), True),
    Case(
        PipelineResult,
        lambda: PipelineResult(
            _CONFIG,
            _WEB,
            _DATABASE,
            LabeledCrawl(),
            SiftReport(),
            39,
            1,
            {"shards": 3.0},
        ),
        False,
        minimal=lambda: PipelineResult(
            _CONFIG, _WEB, _DATABASE, LabeledCrawl(), SiftReport()
        ),
        factories=("notes",),
        by_value=False,
    ),
    Case(
        ShardState,
        lambda: ShardState(
            2, 10, 1, 3, 0, 40,
            {("ads.example", "ads.example", _SCRIPT, "send"): [3, 1]},
            {_SCRIPT: [3, 1]},
        ),
        False,
        minimal=lambda: ShardState(2),
        factories=("tallies", "participation"),
    ),
    Case(Table1Row, lambda: Table1Row("domain", 9, 7, 3, 0.84, 0.84), True),
    Case(Table2Row, lambda: Table2Row("hostname", 5, 4, 1, 0.9), True),
    Case(
        Table3Row,
        lambda: Table3Row(_PAGE, "a.js", "Major", "menu stops working"),
        True,
    ),
    Case(
        PaperComparison,
        lambda: PaperComparison("domain: separation factor", 0.84, 0.81),
        True,
    ),
]

_BY_NAME = {case.cls.__name__: case for case in CASES}
_ADDRESS_RE = re.compile(r" at 0x[0-9a-f]+")


def _fields(cls: type) -> list[str]:
    return list(cls.__annotations__)


def _values(record: object) -> tuple:
    return tuple(getattr(record, name) for name in _fields(type(record)))


def _repr(record: object) -> str:
    return _ADDRESS_RE.sub(" at 0x…", repr(record))


@pytest.fixture(params=CASES, ids=lambda case: case.cls.__name__)
def case(request) -> Case:
    return request.param


def test_every_record_is_covered():
    assert len(CASES) == len(_BY_NAME) == len(REPRS) == 51
    assert set(_BY_NAME) == set(REPRS)


def test_repr_lists_every_field_in_order(case):
    assert _repr(case.make()) == REPRS[case.cls.__name__]


def test_url_repr_omits_the_password():
    url = URL("https", "site.example", username="user", password="secret")
    assert "secret" not in repr(url) and "password" not in repr(url)
    assert url != URL("https", "site.example", username="user", password="other")


def test_equality_is_over_fields(case):
    first, second = case.make(), case.make()
    assert first is not second
    assert first == second and not first != second
    assert first.__eq__(object()) is NotImplemented
    assert first.__eq__(_values(first)) is NotImplemented


def test_construction_by_position_and_by_name(case):
    sample = case.make()
    names = _fields(case.cls)
    assert case.cls(*_values(sample)) == sample
    assert case.cls(**dict(zip(names, _values(sample)))) == sample


def test_every_field_takes_part_in_equality(case):
    sample = case.make()
    names = _fields(case.cls)
    for name in names:
        values = dict(zip(names, _values(sample)))
        values[name] = _Distinct()
        try:
            other = case.cls(**values)
        except (TypeError, ValueError):
            continue  # validation refuses the stand-in value
        assert other != sample, name


class _Distinct:
    """Equal to nothing but itself; hashable."""


def test_frozen_records_hash_over_their_fields(case):
    if not case.frozen:
        assert case.cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(case.make())
        return
    assert case.cls.__hash__ is not None
    first, second = case.make(), case.make()
    if not case.hashable:
        with pytest.raises(TypeError):
            hash(first)
        return
    assert hash(first) == hash(second) == hash(_values(first))


def test_frozen_records_refuse_assignment_and_deletion(case):
    sample = case.make()
    for name in _fields(case.cls):
        if case.frozen:
            with pytest.raises(AttributeError):
                setattr(sample, name, getattr(sample, name))
            with pytest.raises(AttributeError):
                delattr(sample, name)
        else:
            value = getattr(sample, name)
            setattr(sample, name, value)
            assert getattr(sample, name) is value
    if case.frozen:
        assert sample == case.make()


def test_container_defaults_are_fresh_per_instance(case):
    if case.minimal is None:
        assert not case.factories
        return
    first, second = case.minimal(), case.minimal()
    assert first == second
    for name in case.factories:
        value = getattr(first, name)
        assert value == type(value)() and value is not getattr(second, name), name


def test_copy_and_pickle_round_trip(case):
    sample = case.make()
    assert copy.copy(sample) == sample
    if case.by_value:
        assert copy.deepcopy(sample) == sample
        assert pickle.loads(pickle.dumps(sample)) == sample


@pytest.mark.parametrize(
    "build",
    [
        lambda: CallStack(()),
        lambda: RatioClassifier(0.0),
        lambda: RatioClassifier(-1.0),
        lambda: LevelReport("page"),
        lambda: FaultSpec("nowhere", "crash"),
        lambda: FaultSpec("worker.shard", "explode"),
        lambda: FaultSpec("worker.shard", "crash", executions=()),
        lambda: FaultSpec("worker.shard", "crash", executions=(0,)),
        lambda: FaultSpec("worker.shard", "truncate", fraction=1.5),
    ],
    ids=[
        "CallStack-empty",
        "RatioClassifier-zero",
        "RatioClassifier-negative",
        "LevelReport-granularity",
        "FaultSpec-site",
        "FaultSpec-kind",
        "FaultSpec-no-executions",
        "FaultSpec-execution-zero",
        "FaultSpec-fraction",
    ],
)
def test_validation_raises_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_sequence_fields_are_stored_as_tuples():
    spec = FaultSpec("worker.shard", "crash", executions=[1, 3])
    assert spec.executions == (1, 3)
    plan = FaultPlan([spec], "listed")
    assert plan.specs == (spec,)
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_a_stack_of_only_an_async_parent_is_valid():
    parent = CallStack((CallFrame("https://site.example/", "onload"),))
    assert CallStack((), parent).initiator == parent.frames[0]
#: The repr of each case's sample, as a dataclass writes it: the class
#: name and every field as ``name=value!r`` in declaration order.
REPRS = {
    "ResourceCounts": 'ResourceCounts(tracking=3, functional=4)',
    "RatioClassifier": 'RatioClassifier(threshold=2.5)',
    "Frame": "Frame(script_url='https://cdn.example/a.js', method='send')",
    "PlannedRequest": (
        "PlannedRequest(url='https://ads.example/p.gif', tracking=True, "
        "resource_type='image')"
    ),
    "Invocation": (
        "Invocation(site='https://site.example/', "
        "requests=(PlannedRequest(url='https://ads.example/p.gif', "
        "tracking=True, resource_type='xmlhttprequest'),), "
        "caller_chain=(Frame(script_url='https://cdn.example/a.js', "
        "method='init'),), "
        "async_chain=(Frame(script_url='https://cdn.example/a.js', "
        "method='tick'),), args={'event': 'imp', 'dest': 'ads'}, "
        'sequence=4)'
    ),
    "MethodSpec": (
        "MethodSpec(name='send', category=<Category.MIXED: 'mixed'>, "
        "invocations=[Invocation(site='https://site.example/', "
        'requests=(), caller_chain=(), async_chain=(), args={}, '
        'sequence=0)], coverage=0.5, line=10, column=2)'
    ),
    "ScriptSpec": (
        "ScriptSpec(url='https://cdn.example/a.js', "
        "category=<Category.TRACKING: 'tracking'>, "
        "kind=<ScriptKind.BUNDLED: 'bundled'>, "
        "methods=[MethodSpec(name='send', "
        "category=<Category.TRACKING: 'tracking'>, invocations=[], "
        'coverage=1.0, line=0, column=0)], '
        "sites=['https://site.example/'], "
        "bundle_sources=('https://cdn.example/b.js',))"
    ),
    "HostnameSpec": (
        "HostnameSpec(host='px.ads.example', "
        "category=<Category.TRACKING: 'tracking'>, tracking_requests=9, "
        'functional_requests=1)'
    ),
    "DomainSpec": (
        "DomainSpec(domain='ads.example', "
        "category=<Category.TRACKING: 'tracking'>, "
        "hostnames=[HostnameSpec(host='px.ads.example', "
        "category=<Category.TRACKING: 'tracking'>, tracking_requests=0, "
        'functional_requests=0)])'
    ),
    "LevelTargets": (
        'LevelTargets(entities_tracking=1, entities_functional=2, '
        'entities_mixed=3, requests_tracking=40, requests_functional=50, '
        'requests_mixed=60)'
    ),
    "PaperTargets": (
        'PaperTargets(sites=1000, '
        'domain=LevelTargets(entities_tracking=1, entities_functional=2, '
        'entities_mixed=3, requests_tracking=40, requests_functional=50, '
        'requests_mixed=60), hostname=LevelTargets(entities_tracking=1, '
        'entities_functional=2, entities_mixed=3, requests_tracking=40, '
        'requests_functional=50, requests_mixed=60), '
        'script=LevelTargets(entities_tracking=1, entities_functional=2, '
        'entities_mixed=3, requests_tracking=40, requests_functional=50, '
        'requests_mixed=60), method=LevelTargets(entities_tracking=1, '
        'entities_functional=2, entities_mixed=3, requests_tracking=40, '
        'requests_functional=50, requests_mixed=60))'
    ),
    "ScaledTargets": (
        'ScaledTargets(sites=20, scale=0.0002, '
        'domain=LevelTargets(entities_tracking=1, entities_functional=2, '
        'entities_mixed=3, requests_tracking=40, requests_functional=50, '
        'requests_mixed=60), hostname=LevelTargets(entities_tracking=1, '
        'entities_functional=2, entities_mixed=3, requests_tracking=40, '
        'requests_functional=50, requests_mixed=60), '
        'script=LevelTargets(entities_tracking=1, entities_functional=2, '
        'entities_mixed=3, requests_tracking=40, requests_functional=50, '
        'requests_mixed=60), method=LevelTargets(entities_tracking=1, '
        'entities_functional=2, entities_mixed=3, requests_tracking=40, '
        'requests_functional=50, requests_mixed=60))'
    ),
    "URL": (
        "URL(scheme='https', host='site.example', path='/a', "
        "query='q=1', fragment='top', port=8443, username='user')"
    ),
    "RequestContext": (
        "RequestContext(url='https://ads.example/p.gif', "
        "resource_type=<ResourceType.IMAGE: 'image'>, "
        "page_host='site.example', third_party=False)"
    ),
    "RuleOptions": (
        "RuleOptions(include_types=frozenset({<ResourceType.SCRIPT: 'script'>}), "
        "exclude_types=frozenset({<ResourceType.IMAGE: 'image'>}), "
        "third_party=True, include_domains=('news.example',), "
        "exclude_domains=('blog.news.example',), match_case=True, "
        "unsupported=('csp',))"
    ),
    "NetworkRule": (
        "NetworkRule(text='||ads.example^$script', "
        "pattern='||ads.example^', is_exception=False, "
        "options=RuleOptions(include_types=frozenset({<ResourceType.SCRIPT: 'script'>}), "
        'exclude_types=frozenset(), third_party=True, '
        "include_domains=('news.example',), exclude_domains=(), "
        "match_case=False, unsupported=()), list_name='easylist')"
    ),
    "ParsedList": (
        "ParsedList(name='easylist', "
        "rules=[NetworkRule(text='||ads.example^$script', "
        "pattern='||ads.example^', is_exception=False, "
        "options=RuleOptions(include_types=frozenset({<ResourceType.SCRIPT: 'script'>}), "
        'exclude_types=frozenset(), third_party=True, '
        "include_domains=('news.example',), exclude_domains=(), "
        "match_case=False, unsupported=()), list_name='easylist')], "
        "comment_count=2, cosmetic_count=1, error_lines=['##bad'])"
    ),
    "MatchResult": (
        'MatchResult(blocked=False, '
        "rule=NetworkRule(text='||ads.example^$script', "
        "pattern='||ads.example^', is_exception=False, "
        "options=RuleOptions(include_types=frozenset({<ResourceType.SCRIPT: 'script'>}), "
        'exclude_types=frozenset(), third_party=True, '
        "include_domains=('news.example',), exclude_domains=(), "
        "match_case=False, unsupported=()), list_name='easylist'), "
        "exception=NetworkRule(text='@@||ads.example/ok', "
        "pattern='||ads.example/ok', is_exception=True, "
        'options=RuleOptions(include_types=frozenset(), '
        'exclude_types=frozenset(), third_party=None, '
        'include_domains=(), exclude_domains=(), match_case=False, '
        "unsupported=()), list_name='easylist'))"
    ),
    "CacheStats": 'CacheStats(hits=5, misses=2)',
    "LabeledRequest": (
        "LabeledRequest(url='https://ads.example/p.gif', "
        "label=<Label.TRACKING: 'tracking'>, "
        "matched_rule='||ads.example^', matched_list='easylist')"
    ),
    "Functionality": (
        "Functionality(name='menu', "
        "tier=<FunctionalityTier.CORE: 'core'>, "
        "required_scripts=frozenset({'https://cdn.example/a.js'}), "
        "required_methods=frozenset({('https://cdn.example/a.js', "
        "'open')}))"
    ),
    "Website": (
        "Website(url='https://site.example/', rank=3, "
        "scripts=[ScriptSpec(url='https://cdn.example/a.js', "
        "category=<Category.MIXED: 'mixed'>, "
        "kind=<ScriptKind.EXTERNAL: 'external'>, methods=[], sites=[], "
        'bundle_sources=())], '
        "functionalities=[Functionality(name='menu', "
        "tier=<FunctionalityTier.CORE: 'core'>, "
        'required_scripts=frozenset(), required_methods=frozenset())])'
    ),
    "SyntheticWeb": (
        'SyntheticWeb(seed=7, targets=ScaledTargets(sites=20, '
        'scale=0.0002, domain=LevelTargets(entities_tracking=1, '
        'entities_functional=2, entities_mixed=3, requests_tracking=40, '
        'requests_functional=50, requests_mixed=60), '
        'hostname=LevelTargets(entities_tracking=1, '
        'entities_functional=2, entities_mixed=3, requests_tracking=40, '
        'requests_functional=50, requests_mixed=60), '
        'script=LevelTargets(entities_tracking=1, entities_functional=2, '
        'entities_mixed=3, requests_tracking=40, requests_functional=50, '
        'requests_mixed=60), method=LevelTargets(entities_tracking=1, '
        'entities_functional=2, entities_mixed=3, requests_tracking=40, '
        'requests_functional=50, requests_mixed=60)), '
        "websites=[Website(url='https://site.example/', rank=3, "
        "scripts=[ScriptSpec(url='https://cdn.example/a.js', "
        "category=<Category.MIXED: 'mixed'>, "
        "kind=<ScriptKind.EXTERNAL: 'external'>, methods=[], sites=[], "
        'bundle_sources=())], '
        "functionalities=[Functionality(name='menu', "
        "tier=<FunctionalityTier.CORE: 'core'>, "
        "required_scripts=frozenset({'https://cdn.example/a.js'}), "
        'required_methods=frozenset())])], '
        "domains=[DomainSpec(domain='ads.example', "
        "category=<Category.TRACKING: 'tracking'>, hostnames=[])], "
        "scripts=[ScriptSpec(url='https://cdn.example/a.js', "
        "category=<Category.MIXED: 'mixed'>, "
        "kind=<ScriptKind.EXTERNAL: 'external'>, methods=[], sites=[], "
        'bundle_sources=())], '
        "listed_tracker_domains=frozenset({'ads.example'}))"
    ),
    "_Budget": '_Budget(tracking=7, functional=3)',
    "_PlannedMethod": (
        "_PlannedMethod(name='send', category=<Category.MIXED: 'mixed'>, "
        'budget=_Budget(tracking=7, functional=3), coverage=0.5, '
        'context_separable=False)'
    ),
    "_PlannedScript": (
        "_PlannedScript(category=<Category.MIXED: 'mixed'>, "
        "methods=[_PlannedMethod(name='send', "
        "category=<Category.MIXED: 'mixed'>, budget=_Budget(tracking=7, "
        'functional=3), coverage=1.0, context_separable=True)])'
    ),
    "_HostSlots": (
        "_HostSlots(host='px.ads.example', listed=True, tracking=4, "
        'functional=1)'
    ),
    "CallFrame": (
        "CallFrame(url='https://cdn.example/a.js', function_name='send', "
        'line_number=3, column_number=7)'
    ),
    "CallStack": (
        "CallStack(frames=(CallFrame(url='https://cdn.example/a.js', "
        "function_name='send', line_number=3, column_number=7),), "
        "parent=CallStack(frames=(CallFrame(url='https://site.example/', "
        "function_name='onload', line_number=0, column_number=0),), "
        "parent=None, description='setTimeout'), description='')"
    ),
    "RequestWillBeSent": (
        "RequestWillBeSent(request_id='1000.1', "
        "url='https://ads.example/p.gif', "
        "top_level_url='https://site.example/', "
        "frame_url='https://site.example/', resource_type='image', "
        'timestamp=1.5, '
        "call_stack=CallStack(frames=(CallFrame(url='https://cdn.example/a.js', "
        "function_name='send', line_number=3, column_number=7),), "
        "parent=CallStack(frames=(CallFrame(url='https://site.example/', "
        "function_name='onload', line_number=0, column_number=0),), "
        "parent=None, description='setTimeout'), description=''), "
        "headers={'Referer': 'https://site.example/'}, method='POST')"
    ),
    "ResponseReceived": (
        "ResponseReceived(request_id='1000.1', "
        "url='https://ads.example/p.gif', status=204, "
        "mime_type='image/gif', timestamp=1.75, headers={'Server': 'x'}, "
        'body_size=43)'
    ),
    "BlockingPolicy": (
        "BlockingPolicy(blocked_scripts=frozenset({'https://cdn.example/a.js'}), "
        "removed_methods=frozenset({('https://cdn.example/b.js', "
        "'send')}), guards=(('https://cdn.example/c.js', 'track', "
        '<function _guard at 0x…>),))'
    ),
    "PageLoad": (
        "PageLoad(website=Website(url='https://site.example/', rank=3, "
        "scripts=[ScriptSpec(url='https://cdn.example/a.js', "
        "category=<Category.MIXED: 'mixed'>, "
        "kind=<ScriptKind.EXTERNAL: 'external'>, methods=[], sites=[], "
        'bundle_sources=())], '
        "functionalities=[Functionality(name='menu', "
        "tier=<FunctionalityTier.CORE: 'core'>, "
        "required_scripts=frozenset({'https://cdn.example/a.js'}), "
        'required_methods=frozenset())]), '
        "requests=[RequestWillBeSent(request_id='1000.1', url='u', "
        "top_level_url='t', frame_url='f', resource_type='image', "
        "timestamp=0.0, call_stack=None, headers={}, method='GET')], "
        "responses=[ResponseReceived(request_id='1000.1', url='u', "
        "status=200, mime_type='text/plain', timestamp=0.0, headers={}, "
        'body_size=0)], '
        "blocked_invocations=[('https://cdn.example/a.js', 'send')], "
        "functionality={'menu': True}, load_time=9.5)"
    ),
    "RankedSite": "RankedSite(rank=3, url='https://site.example/')",
    "NodeReport": (
        'NodeReport(node_id=2, pages_assigned=10, pages_crawled=9, '
        'pages_failed=1, average_load_time=10.5)'
    ),
    "ClusterCrawlResult": (
        'ClusterCrawlResult(database=<repro.crawler.storage.RequestDatabase object at 0x…>, '
        'nodes=[NodeReport(node_id=2, pages_assigned=10, '
        'pages_crawled=9, pages_failed=1, average_load_time=10.5)])'
    ),
    "FaultSpec": (
        "FaultSpec(site='worker.shard', kind='slow', key=4, "
        'executions=(1, 2), seconds=0.5, seed=9, fraction=0.25)'
    ),
    "FaultPlan": (
        "FaultPlan(specs=(FaultSpec(site='worker.shard', kind='crash', "
        'key=1, executions=(1,), seconds=30.0, seed=0, fraction=0.5),), '
        "name='one-crash')"
    ),
    "AnalyzedRequest": (
        "AnalyzedRequest(url='https://ads.example/p.gif', "
        "label=<Label.TRACKING: 'tracking'>, domain='ads.example', "
        "hostname='ads.example', script='https://cdn.example/a.js', "
        "method='send', page='https://site.example/', "
        "resource_type='image', ancestry=('https://cdn.example/a.js',), "
        "frames=(('https://cdn.example/a.js', 'send'),), "
        "matched_rule='||ads.example^', matched_list='easylist')"
    ),
    "LabeledCrawl": (
        "LabeledCrawl(requests=[AnalyzedRequest(url='https://ads.example/p.gif', "
        "label=<Label.TRACKING: 'tracking'>, domain='ads.example', "
        "hostname='ads.example', script='https://cdn.example/a.js', "
        "method='send', page='https://site.example/', "
        "resource_type='image', ancestry=('https://cdn.example/a.js',), "
        "frames=(('https://cdn.example/a.js', 'send'),), "
        "matched_rule='||ads.example^', matched_list='easylist')], "
        'excluded_non_script=2, excluded_unparseable=1, '
        "participation={'https://cdn.example/a.js': [1, 0]})"
    ),
    "SpanRecord": (
        "SpanRecord(span_id=3, parent_id=1, name='shard.label', "
        "start=10.25, duration=0.5, attrs={'shard': 2})"
    ),
    "ResourceResult": (
        "ResourceResult(key='ads.example', "
        'counts=ResourceCounts(tracking=9, functional=0), '
        "resource_class=<ResourceClass.TRACKING: 'tracking'>)"
    ),
    "LevelReport": (
        "LevelReport(granularity='domain', "
        "resources={'ads.example': ResourceResult(key='ads.example', "
        'counts=ResourceCounts(tracking=9, functional=0), '
        "resource_class=<ResourceClass.TRACKING: 'tracking'>)})"
    ),
    "SiftReport": (
        "SiftReport(levels=[LevelReport(granularity='domain', "
        "resources={'ads.example': ResourceResult(key='ads.example', "
        'counts=ResourceCounts(tracking=9, functional=0), '
        "resource_class=<ResourceClass.TRACKING: 'tracking'>)})], "
        'total_requests=9)'
    ),
    "PipelineConfig": (
        'PipelineConfig(sites=40, seed=5, cluster_nodes=3, '
        'threshold=2.5, failure_rate=0.1, propagate_ancestry=False, '
        'descent_threshold=2.0)'
    ),
    "PipelineResult": (
        'PipelineResult(config=PipelineConfig(sites=40, seed=5, '
        'cluster_nodes=3, threshold=2.5, failure_rate=0.1, '
        'propagate_ancestry=False, descent_threshold=2.0), '
        'web=SyntheticWeb(seed=7, targets=ScaledTargets(sites=20, '
        'scale=0.0002, domain=LevelTargets(entities_tracking=1, '
        'entities_functional=2, entities_mixed=3, requests_tracking=40, '
        'requests_functional=50, requests_mixed=60), '
        'hostname=LevelTargets(entities_tracking=1, '
        'entities_functional=2, entities_mixed=3, requests_tracking=40, '
        'requests_functional=50, requests_mixed=60), '
        'script=LevelTargets(entities_tracking=1, entities_functional=2, '
        'entities_mixed=3, requests_tracking=40, requests_functional=50, '
        'requests_mixed=60), method=LevelTargets(entities_tracking=1, '
        'entities_functional=2, entities_mixed=3, requests_tracking=40, '
        'requests_functional=50, requests_mixed=60)), '
        "websites=[Website(url='https://site.example/', rank=3, "
        "scripts=[ScriptSpec(url='https://cdn.example/a.js', "
        "category=<Category.MIXED: 'mixed'>, "
        "kind=<ScriptKind.EXTERNAL: 'external'>, methods=[], sites=[], "
        'bundle_sources=())], '
        "functionalities=[Functionality(name='menu', "
        "tier=<FunctionalityTier.CORE: 'core'>, "
        "required_scripts=frozenset({'https://cdn.example/a.js'}), "
        'required_methods=frozenset())])], '
        "domains=[DomainSpec(domain='ads.example', "
        "category=<Category.TRACKING: 'tracking'>, hostnames=[])], "
        "scripts=[ScriptSpec(url='https://cdn.example/a.js', "
        "category=<Category.MIXED: 'mixed'>, "
        "kind=<ScriptKind.EXTERNAL: 'external'>, methods=[], sites=[], "
        'bundle_sources=())], '
        "listed_tracker_domains=frozenset({'ads.example'})), "
        'database=<repro.crawler.storage.RequestDatabase object at 0x…>, '
        'labeled=LabeledCrawl(requests=[], excluded_non_script=0, '
        'excluded_unparseable=0, participation={}), '
        'report=SiftReport(levels=[], total_requests=0), '
        "pages_crawled=39, pages_failed=1, notes={'shards': 3.0})"
    ),
    "ShardState": (
        'ShardState(shard_id=2, pages_crawled=10, pages_failed=1, '
        'excluded_non_script=3, excluded_unparseable=0, '
        "labeled_requests=40, tallies={('ads.example', 'ads.example', "
        "'https://cdn.example/a.js', 'send'): [3, 1]}, "
        "participation={'https://cdn.example/a.js': [3, 1]})"
    ),
    "Table1Row": (
        "Table1Row(granularity='domain', tracking=9, functional=7, mixed=3, "
        "separation_factor=0.84, cumulative_separation=0.84)"
    ),
    "Table2Row": (
        "Table2Row(granularity='hostname', tracking=5, functional=4, "
        "mixed=1, separation_factor=0.9)"
    ),
    "Table3Row": (
        "Table3Row(website='https://site.example/', mixed_script='a.js', "
        "breakage='Major', comment='menu stops working')"
    ),
    "PaperComparison": (
        "PaperComparison(metric='domain: separation factor', "
        "paper_value=0.84, measured_value=0.81)"
    ),
}
