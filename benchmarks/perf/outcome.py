"""What one workload run reports: metric names, units and the result
object every workload fills in.

End-to-end metrics are printed for every workload, so each name has one
meaning per workload (``README.md`` has the table).  Per-layer metrics
are the workloads' own timings plus the layers of the traced run; a
timing that does not apply to a workload, or a layer it never enters,
reads 0.
"""

from __future__ import annotations

from layers import FIELDS, totals

#: (name, unit) of the end-to-end metrics, measured with tracing off.
#: Only these are gated: they move less than 10% between runs on a shared
#: host, where the workloads' timings below do not.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of each workload's own timings, measured with tracing off
#: but not gated, because host drift moves them by more than 10% between
#: runs (``README.md`` has the measurements).  A workload reports the
#: ones that apply to it; they are listed with the per-layer metrics.
TIMINGS = (
    ("study_s", "s"),
    ("decide_p50_ms", "ms"),
    ("decide_p99_ms", "ms"),
    ("sustainable_rps", "req/s"),
    ("decisions_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p99_ms", "ms"),
)

#: (name, unit) of the per-layer metrics: the timings above, then the
#: layers of the traced run.
PER_LAYER = TIMINGS + (
    ("webmodel.generate_s", "s"),
    ("browser.load_s", "s"),
    ("browser.pages", "count"),
    ("labeling.self_s", "s"),
    ("labeling.requests", "count"),
    ("urlkit.hostname_s", "s"),
    ("urlkit.registrable_domain_s", "s"),
    ("urlkit.is_third_party_s", "s"),
    ("urlkit.calls", "count"),
    ("filterlists.oracle_self_s", "s"),
    ("filterlists.cache_self_s", "s"),
    ("filterlists.cache_hit_rate", "ratio"),
    ("filterlists.matcher_s", "s"),
    ("filterlists.matcher_calls", "count"),
    ("filterlists.matcher_us", "us"),
    ("filterlists.compile_s", "s"),
    ("filterlists.artifact_bytes", "bytes"),
    ("filterlists.image_open_s", "s"),
    ("core.accumulate_s", "s"),
    ("core.sift_s", "s"),
    ("core.fanout_materialize_s", "s"),
    ("core.fanout_bytes", "bytes"),
    ("core.worker_startup_s", "s"),
    ("core.worker_transfer_s", "s"),
    ("core.worker_compute_s", "s"),
    ("core.parent_wait_s", "s"),
    ("core.lease_retries", "count"),
    ("core.worker_peak_rss_mb", "MB"),
    ("serve.validate_s", "s"),
    ("serve.service_self_s", "s"),
    ("serve.drains", "count"),
    ("serve.coalesced_batch_mean", "count"),
    ("serve.worker_cpu_frac", "ratio"),
    ("serve.protocol_us_per_request", "us"),
    ("serve.reload_s", "s"),
    ("serve.reload_max_s", "s"),
    ("serve.reloads", "count"),
    ("client.cpu_frac", "ratio"),
    ("client.send_lateness_p99_ms", "ms"),
    ("client.max_inflight", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)

class Outcome:
    """Counts, problems and metrics of one workload run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.details: list[tuple[str, object, str]] = []

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def fail(self, message: str, count: int = 1) -> None:
        """Record ``count`` failed operations and why."""
        self.failed += count
        self.problems.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        if dict(END_TO_END).get(name) != unit:
            raise KeyError(f"{name} [{unit}] is not an end-to-end metric")
        self.metrics[name] = float(value)

    def timing(self, name: str, value: float, unit: str) -> None:
        """One of the workload's own :data:`TIMINGS`."""
        if dict(TIMINGS).get(name) != unit:
            raise KeyError(f"{name} [{unit}] is not a workload timing")
        self.layers[name] = float(value)

    def detail(self, name: str, value, unit: str) -> None:
        """A reported number that is neither gated nor a per-layer
        metric (sample counts, min and max, host calibration)."""
        self.details.append((name, value, unit))

    def reported(self, trace: bool) -> dict[str, dict]:
        """The metrics the final JSON line carries: every end-to-end one
        without tracing, every per-layer one with it."""
        if trace:
            return {
                name: {"value": float(self.layers.get(name, 0.0)), "unit": unit}
                for name, unit in PER_LAYER
            }
        return {
            name: {"value": self.metrics[name], "unit": unit}
            for name, unit in END_TO_END
            if name in self.metrics
        }

    def lines(self, trace: bool) -> list[str]:
        reported = self.reported(trace)
        if not trace:
            reported.update(
                (name, {"value": self.layers[name], "unit": unit})
                for name, unit in TIMINGS if name in self.layers
            )
        rows = [
            f"{self.workload} {name} {entry['value']!r} {entry['unit']}"
            for name, entry in reported.items()
        ]
        rows += [
            f"{self.workload} {name} {value!r} {unit}"
            for name, value, unit in self.details
        ]
        rows.append(
            f"{self.workload} failed_frac "
            f"{self.failed / max(1, self.attempted)!r} ratio"
        )
        rows += [f"{self.workload} problem {message}" for message in self.problems]
        return rows

    def result(self, trace: bool) -> dict:
        return {
            "correct": self.correct,
            "attempted": max(1, int(self.attempted)),
            "failed": int(self.failed),
            "metrics": self.reported(trace),
        }


def layer_metrics_from(rows: dict) -> dict[str, float]:
    """Per-layer metrics that follow from a layer-table snapshot
    (``{pid: {layer: [calls, total_s, self_s, items]}}``), summed over
    the processes given."""
    total = totals(rows)

    def calls(layer: str) -> float:
        return total.get(layer, (0.0,) * len(FIELDS))[0]

    def self_s(layer: str) -> float:
        return total.get(layer, (0.0,) * len(FIELDS))[2]

    def items(layer: str) -> float:
        return total.get(layer, (0.0,) * len(FIELDS))[3]

    matcher_calls = calls("filterlists.matcher")
    cache_items = items("filterlists.cache")
    compiles = calls("filterlists.compile")
    drains = calls("serve.service")
    return {
        "webmodel.generate_s": self_s("webmodel.generate"),
        "browser.load_s": self_s("browser.load"),
        "browser.pages": calls("browser.load"),
        "labeling.self_s": self_s("labeling.iter_labeled"),
        "labeling.requests": items("labeling.iter_labeled"),
        "urlkit.hostname_s": self_s("urlkit.hostname"),
        "urlkit.registrable_domain_s": self_s("urlkit.registrable_domain"),
        "urlkit.is_third_party_s": self_s("urlkit.is_third_party"),
        "urlkit.calls": sum(
            calls(layer) for layer in (
                "urlkit.hostname", "urlkit.registrable_domain",
                "urlkit.is_third_party",
            )
        ),
        "filterlists.oracle_self_s": self_s("filterlists.oracle"),
        "filterlists.cache_self_s": self_s("filterlists.cache"),
        # Every cache miss asks the matcher exactly once.
        "filterlists.cache_hit_rate": (
            1.0 - matcher_calls / cache_items if cache_items else 0.0
        ),
        "filterlists.matcher_s": self_s("filterlists.matcher"),
        "filterlists.matcher_calls": matcher_calls,
        "filterlists.matcher_us": (
            self_s("filterlists.matcher") / matcher_calls * 1e6
            if matcher_calls else 0.0
        ),
        "filterlists.compile_s": (
            self_s("filterlists.build") + self_s("filterlists.compile")
        ),
        "filterlists.artifact_bytes": (
            items("filterlists.compile") / compiles if compiles else 0.0
        ),
        "filterlists.image_open_s": self_s("filterlists.image_open"),
        "core.accumulate_s": self_s("core.accumulate"),
        "core.sift_s": self_s("core.sift"),
        "core.parent_wait_s": self_s("core.parent_wait"),
        "serve.validate_s": self_s("serve.validate"),
        "serve.service_self_s": self_s("serve.service"),
        "serve.drains": drains,
        "serve.coalesced_batch_mean": (
            items("serve.service") / drains if drains else 0.0
        ),
    }


def attributed_seconds(rows: dict) -> float:
    """Self time of every layer in ``rows`` — the time wrapped calls
    account for."""
    return sum(
        values[2] for layers in rows.values() for values in layers.values()
    )
