"""Deterministic fault injection for the serving and replay stack.

The ROADMAP north-star is an always-on service, and an always-on service
is defined as much by its failure behaviour as by its throughput.  This
module is the *controlled* way to exercise that behaviour: a seeded
registry of injection points threaded through
:class:`~repro.serving.service.ServingConfig` (and the ``serve`` /
``experiment chaos`` CLI), so a chaos run is exactly as reproducible as
a benchmark run.

Injection **sites** are the four places the serving stack crosses a
failure domain:

* ``engine.search`` — the lockstep batch search inside
  :meth:`~repro.serving.workers.BatcherWorker.run_batch`;
* ``replay.flush`` — the accelerator flush replay
  (:meth:`~repro.serving.service.QueryService._replay_with_retry`);
* ``pool.submit`` — a flush replay handed to the service's shared
  replay pool (:meth:`~repro.serving.service.QueryService._replay_flush`;
  a *kill* fault takes down an actual process-pool worker with
  ``os._exit``);
* ``worker.loop`` — the top of a batcher worker's serve loop (where a
  *kill* fault crashes the worker thread itself, exercising supervision
  and respawn).

Each site's probes draw from an independent, seeded RNG stream, so the
decision sequence at a site depends only on ``(seed, site, probe
index)`` — never on wall-clock time or on what the other sites did.
With a single batcher worker a chaos run is fully deterministic; with
several, the *set* of injected faults per site is (which probe lands on
which query depends on thread scheduling, as in any real outage).

Fault **kinds**:

* ``raise`` — raise :class:`InjectedFault` at the probe (a transient
  error the supervision layer must absorb);
* ``delay`` — sleep ``delay_s`` at the probe (a stall, for timeout
  paths);
* ``kill`` — take the executing worker down: a batcher thread raises
  :class:`WorkerKilled` (crash + respawn), a process-pool worker is
  ``os._exit``'d (broken pool + rebuild/degrade ladder).

Specs trigger either probabilistically (``rate``) or on exact probe
indices (``at=(2, 5)``) — the latter is what makes failure-edge tests
schedulable instead of flaky.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "SITE_LOOP",
    "SITE_REPLAY",
    "SITE_SEARCH",
    "SITE_SUBMIT",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "WorkerKilled",
    "parse_fault_spec",
]

#: The four injection sites, in pipeline order.
SITE_SEARCH = "engine.search"
SITE_REPLAY = "replay.flush"
SITE_SUBMIT = "pool.submit"
SITE_LOOP = "worker.loop"
FAULT_SITES = (SITE_SEARCH, SITE_REPLAY, SITE_SUBMIT, SITE_LOOP)

#: Supported fault kinds.
FAULT_KINDS = ("raise", "delay", "kill")


class InjectedFault(RuntimeError):
    """A fault raised by the injection registry (kind ``raise``).

    Deliberately a plain ``RuntimeError`` subclass: the supervision layer
    must treat it exactly like any other unexpected exception — nothing
    in the recovery path is allowed to special-case "this one is fake".
    """

    def __init__(self, site: str, probe: int) -> None:
        super().__init__(f"injected fault at {site} (probe #{probe})")
        self.site = site
        self.probe = probe


class WorkerKilled(InjectedFault):
    """A *kill* fault: the executing worker must go down, not retry.

    Raised for thread-based workers (a process-pool worker is taken down
    with ``os._exit`` instead).  Recovery paths re-raise it past their
    transient-fault handling so it reaches the supervision layer.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: *kind* at *site*, triggered by rate or schedule.

    Args:
        site: one of :data:`FAULT_SITES`.
        kind: one of :data:`FAULT_KINDS`.
        rate: per-probe trigger probability in [0, 1].
        at: exact probe indices (0-based, per site) that trigger — the
            deterministic alternative (or complement) to ``rate``.
        delay_s: sleep length for ``delay`` faults.
    """

    site: str
    kind: str
    rate: float = 0.0
    at: tuple[int, ...] = ()
    delay_s: float = 0.01

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; available: {', '.join(FAULT_SITES)}"
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; available: {', '.join(FAULT_KINDS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be in [0, 1]")
        object.__setattr__(self, "at", tuple(int(index) for index in self.at))
        if any(index < 0 for index in self.at):
            raise ValueError("fault schedule indices must be >= 0")
        if self.rate == 0.0 and not self.at:
            raise ValueError("fault spec needs a rate > 0 or explicit probe indices")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse the CLI spec grammar ``SITE:KIND:RATE[:DELAY]``.

    ``RATE`` is either a probability (``0.2``) or an ``@``-prefixed
    comma-list of exact probe indices (``@2,5``).  ``DELAY`` (seconds)
    only matters for ``delay`` faults.  Examples::

        replay.flush:raise:0.2      # 20% of flush replays raise
        worker.loop:kill:@3         # kill the worker at loop probe 3
        engine.search:delay:0.05:1  # 5% of searches stall 1s
    """
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(
            f"bad fault spec {text!r}; expected SITE:KIND:RATE[:DELAY] "
            f"(RATE a probability or @index,index,...)"
        )
    site, kind, when = parts[0], parts[1], parts[2]
    delay_s = float(parts[3]) if len(parts) == 4 else 0.01
    if when.startswith("@"):
        at = tuple(int(piece) for piece in when[1:].split(",") if piece)
        if not at:
            raise ValueError(f"bad fault spec {text!r}: empty @index list")
        return FaultSpec(site=site, kind=kind, at=at, delay_s=delay_s)
    return FaultSpec(site=site, kind=kind, rate=float(when), delay_s=delay_s)


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible chaos scenario: fault specs plus the RNG seed.

    Immutable (and hence safely shareable through the frozen
    :class:`~repro.serving.service.ServingConfig`); the mutable runtime
    state — probe counters, RNG streams — lives in the
    :class:`FaultInjector` each service builds from its plan.  An empty
    plan is legal and injects nothing: the chaos harness uses it to pin
    the fault-free path against a run with no injector at all.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"FaultPlan specs must be FaultSpec, got {spec!r}")

    @classmethod
    def parse(cls, texts: "list[str] | tuple[str, ...]", seed: int = 0) -> "FaultPlan":
        """Build a plan from CLI ``--inject`` spec strings."""
        return cls(specs=tuple(parse_fault_spec(text) for text in texts), seed=seed)

    def for_site(self, site: str) -> tuple[FaultSpec, ...]:
        """The specs registered at *site*, in declaration order."""
        return tuple(spec for spec in self.specs if spec.site == site)


class FaultInjector:
    """Runtime evaluator of a :class:`FaultPlan` — seeded, thread-safe.

    Each site keeps a probe counter and its own
    ``numpy.random.default_rng`` stream (seeded from the plan seed and
    the site's position in :data:`FAULT_SITES`), so decisions at one
    site never perturb another's sequence.  ``decide`` returns the
    triggered spec (or ``None``) and leaves acting on it to the call
    site; ``fire`` is the common wrapper that raises / sleeps in place.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._lock = threading.Lock()
        self._specs = {site: plan.for_site(site) for site in FAULT_SITES}
        self._rngs = {
            site: np.random.default_rng(plan.seed + 1_000_003 * index)
            for index, site in enumerate(FAULT_SITES)
        }
        self._probes = {site: 0 for site in FAULT_SITES}
        self._injected = {site: 0 for site in FAULT_SITES}

    @property
    def plan(self) -> FaultPlan:
        """The immutable scenario this injector evaluates."""
        return self._plan

    @property
    def probes(self) -> dict[str, int]:
        """Probe counts per site (a snapshot copy)."""
        with self._lock:
            return dict(self._probes)

    @property
    def injected(self) -> dict[str, int]:
        """Injected-fault counts per site (a snapshot copy)."""
        with self._lock:
            return dict(self._injected)

    @property
    def total_injected(self) -> int:
        """Faults injected across all sites."""
        with self._lock:
            return sum(self._injected.values())

    def decide(self, site: str) -> FaultSpec | None:
        """Advance *site*'s probe counter; return the triggered spec, if any.

        The first matching spec wins (declaration order).  A ``rate``
        spec consumes one RNG draw per probe whether or not it triggers,
        keeping the decision sequence a pure function of the probe index.
        """
        if site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {site!r}")
        with self._lock:
            probe = self._probes[site]
            self._probes[site] = probe + 1
            hit: FaultSpec | None = None
            rng = self._rngs[site]
            for spec in self._specs[site]:
                triggered = probe in spec.at
                if spec.rate > 0.0 and rng.random() < spec.rate:
                    triggered = True
                if triggered and hit is None:
                    hit = spec
            if hit is not None:
                self._injected[site] += 1
        return hit

    def fire(self, site: str) -> None:
        """Probe *site* and act in place: raise, sleep, or do nothing.

        ``raise`` faults raise :class:`InjectedFault`; ``kill`` faults
        raise :class:`WorkerKilled` (the thread-worker interpretation —
        pool submission sites use :meth:`decide` and ``os._exit`` the
        pool worker themselves); ``delay`` faults sleep.
        """
        spec = self.decide(site)
        if spec is None:
            return
        probe = self._probes[site] - 1
        if spec.kind == "delay":
            time.sleep(spec.delay_s)
            return
        if spec.kind == "kill":
            raise WorkerKilled(site, probe)
        raise InjectedFault(site, probe)
