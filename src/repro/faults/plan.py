"""The fault plan: which execution of which unit of work fails, and how.

A :class:`FaultPlan` is a tuple of :class:`FaultSpec` entries.  Each spec
names an **injection site** (where in the system the hook lives), a
**key** (which unit at that site — a shard id, a serve-worker index), the
**execution numbers** that fire (1-based: the first attempt at a shard is
execution 1, a retry or a stolen duplicate is execution 2, a restarted
serve worker is incarnation 2 …), and a **kind**:

=====================  =====================================================
``crash``              the worker process hard-exits (``os._exit``) — no
                       exception, no cleanup; the parent sees a dead process
``hang``               the worker stops heartbeating and sleeps past every
                       lease deadline (the parent must detect and kill it)
``slow``               the worker sleeps ``seconds`` *while heartbeating*,
                       then completes normally — the straggler case work
                       stealing exists for
``transient``          a :class:`TransientFault` is raised inside the unit
                       of work — the retryable failure class (flaky crawl,
                       transient network error)
``crash-before-checkpoint``  parent-side: raise :class:`SimulatedCrash`
                       just before a checkpoint write (the shard's work is
                       lost; resume must recompute it)
``crash-after-checkpoint``   parent-side: raise just after the write (the
                       shard is safe on disk; resume must *not* recompute)
``corrupt``            deterministically flip bytes in a payload (seeded)
``truncate``           cut a payload to ``fraction`` of its length
=====================  =====================================================

Injection **sites** wired up across the repo:

* ``worker.shard`` — around one shard execution in a lease worker
  (:mod:`repro.core.parallel`); keys are shard ids.
* ``engine.checkpoint`` — around the parent's checkpoint write
  (:meth:`repro.core.engine.StreamingPipeline._store`); keys are shard ids.
* ``serve.worker`` — a supervised serve worker (``crash`` after
  ``seconds``); keys are worker indexes, executions are incarnations.
* ``client.request`` — reserved for client-side tests (the regression
  tests inject at the socket level instead).

Everything is deterministic: the same plan against the same study
produces the same fault sequence, which is what lets the chaos gates
assert byte-identical reports and ledger chains across a faulted and a
fault-free run.

Plans are injectable without code via the ``TRACKERSIFT_FAULTS``
environment variable — inline JSON, or ``@/path/to/plan.json`` — which
reaches the engine, lease workers, and the serve fleet (each checks
:meth:`FaultPlan.from_env` when no plan was passed explicitly), so
``scripts/chaos_smoke.py`` can chaos a run through the real CLI.
"""

from __future__ import annotations

import json
import os
import random

from .._record import FrozenRecord, set_field

__all__ = [
    "FAULT_ENV_VAR",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "SimulatedCrash",
    "TransientFault",
]

FAULT_ENV_VAR = "TRACKERSIFT_FAULTS"

FAULT_SITES = (
    "worker.shard",
    "engine.checkpoint",
    "serve.worker",
    "client.request",
)

FAULT_KINDS = (
    "crash",
    "hang",
    "slow",
    "transient",
    "crash-before-checkpoint",
    "crash-after-checkpoint",
    "corrupt",
    "truncate",
)


class TransientFault(RuntimeError):
    """An injected retryable failure (a flaky crawl, a dropped request)."""


class SimulatedCrash(RuntimeError):
    """An injected parent-process crash point.

    Raised (never caught by the code under test) where a real crash
    would kill the process — e.g. mid-checkpoint — so tests can prove
    that resume recovers from exactly that state.
    """


class FaultSpec(FrozenRecord):
    """One fault: *kind* at *site*, for *key*, on these *executions*."""

    __slots__ = ("site", "kind", "key", "executions", "seconds", "seed", "fraction")

    site: str
    kind: str
    key: int | str | None
    executions: tuple[int, ...]
    #: hang/slow duration; also the pre-crash delay for ``serve.worker``.
    seconds: float
    #: corruption determinism (byte positions/values for corrupt/truncate).
    seed: int
    #: truncate: keep this fraction of the payload.
    fraction: float

    def __init__(
        self,
        site: str,
        kind: str,
        key: int | str | None = None,
        executions: tuple[int, ...] = (1,),
        seconds: float = 30.0,
        seed: int = 0,
        fraction: float = 0.5,
    ) -> None:
        if site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {site!r}; one of {FAULT_SITES}")
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; one of {FAULT_KINDS}")
        executions = tuple(executions)
        if not executions or any(e < 1 for e in executions):
            raise ValueError("executions must be 1-based and non-empty")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        set_field(self, "site", site)
        set_field(self, "kind", kind)
        set_field(self, "key", key)
        set_field(self, "executions", executions)
        set_field(self, "seconds", seconds)
        set_field(self, "seed", seed)
        set_field(self, "fraction", fraction)

    def matches(self, key: int | str | None, execution: int) -> bool:
        if self.key is not None and self.key != key:
            return False
        # "every execution from N on" is spelled as a closed range in the
        # plan (permanent faults enumerate a generous range) — see
        # FaultPlan.permanent for the helper that builds one.
        return execution in self.executions


#: executions tuple long enough to outlast any sane retry cap.
_PERMANENT = tuple(range(1, 65))


class FaultPlan(FrozenRecord):
    """An immutable, serializable schedule of injected faults."""

    __slots__ = ("specs", "name")

    specs: tuple[FaultSpec, ...]
    #: labels the plan in notes/benches; carries no behaviour.
    name: str

    def __init__(self, specs: tuple[FaultSpec, ...] = (), name: str = "") -> None:
        set_field(self, "specs", tuple(specs))
        set_field(self, "name", name)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def at(
        self, site: str, key: int | str | None, execution: int
    ) -> FaultSpec | None:
        """The first spec firing at ``(site, key, execution)``, if any."""
        for spec in self.specs:
            if spec.site == site and spec.matches(key, execution):
                return spec
        return None

    def count(self, site: str | None = None, kind: str | None = None) -> int:
        """How many specs target a site/kind (for bench bookkeeping)."""
        return sum(
            1
            for spec in self.specs
            if (site is None or spec.site == site)
            and (kind is None or spec.kind == kind)
        )

    # -- deterministic payload corruption -----------------------------------
    @staticmethod
    def corrupt_bytes(data: bytes, spec: FaultSpec) -> bytes:
        """Apply a ``corrupt``/``truncate`` spec to a payload, seeded."""
        if spec.kind == "truncate":
            return data[: int(len(data) * spec.fraction)]
        if spec.kind != "corrupt":
            raise ValueError(f"{spec.kind!r} is not a byte-corruption kind")
        if not data:
            return data
        rng = random.Random(spec.seed)
        mutated = bytearray(data)
        for _ in range(max(1, len(data) // 4096)):
            position = rng.randrange(len(mutated))
            mutated[position] ^= 1 + rng.randrange(255)
        return bytes(mutated)

    # -- construction helpers ------------------------------------------------
    @staticmethod
    def permanent(
        site: str, kind: str, key: int | str | None, **kwargs
    ) -> FaultSpec:
        """A spec that fires on every execution (up to a generous cap) —
        the un-retryable fault class quarantine exists for."""
        return FaultSpec(
            site=site, kind=kind, key=key, executions=_PERMANENT, **kwargs
        )

    @classmethod
    def sample(
        cls, seed: int, shard_ids: list[int], faults: int = 3
    ) -> "FaultPlan":
        """A seeded random plan over shard executions (fuzzing helper).

        Draws only *recoverable* worker-side faults (transient, crash,
        slow on the first execution), so a sampled plan must never change
        the study's output — the property the chaos fuzz test pins.
        """
        rng = random.Random(seed)
        specs = []
        if shard_ids:
            for _ in range(faults):
                specs.append(
                    FaultSpec(
                        site="worker.shard",
                        kind=rng.choice(("transient", "crash", "slow")),
                        key=rng.choice(shard_ids),
                        executions=(1,),
                        seconds=0.5,
                    )
                )
        return cls(specs=tuple(specs), name=f"sampled-{seed}")

    # -- JSON round trip -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "specs": [
                {
                    "site": spec.site,
                    "kind": spec.kind,
                    "key": spec.key,
                    "executions": spec.executions,
                    "seconds": spec.seconds,
                    "seed": spec.seed,
                    "fraction": spec.fraction,
                }
                for spec in self.specs
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, record: dict) -> "FaultPlan":
        known = set(FaultSpec.__slots__)
        specs = []
        for raw in record.get("specs", []):
            unknown = set(raw) - known
            if unknown:
                raise ValueError(f"unknown FaultSpec fields: {sorted(unknown)}")
            raw = dict(raw)
            if "executions" in raw:
                raw["executions"] = tuple(raw["executions"])
            specs.append(FaultSpec(**raw))
        return cls(specs=tuple(specs), name=record.get("name", ""))

    @classmethod
    def from_json(cls, data: str) -> "FaultPlan":
        return cls.from_dict(json.loads(data))

    @classmethod
    def from_env(cls, env: dict | None = None) -> "FaultPlan | None":
        """The plan named by ``TRACKERSIFT_FAULTS``, or ``None``.

        The value is inline JSON, or ``@/path`` naming a JSON file.  A
        malformed value raises: a chaos run that silently runs clean is
        worse than one that fails loudly.
        """
        value = (env if env is not None else os.environ).get(FAULT_ENV_VAR)
        if not value:
            return None
        if value.startswith("@"):
            with open(value[1:], "r", encoding="utf-8") as handle:
                value = handle.read()
        try:
            return cls.from_json(value)
        except (json.JSONDecodeError, TypeError, ValueError) as error:
            raise ValueError(
                f"{FAULT_ENV_VAR} does not hold a valid fault plan: {error}"
            ) from error
