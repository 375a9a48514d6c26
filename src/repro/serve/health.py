"""Per-replica health state machines and the self-healing manager.

Every (shard, replica) pair carries a four-state machine::

            alarm / error                 errors >= quarantine_after
    healthy ------------> degraded ----------------------------------+
       ^                     |                                       |
       |   clean streak      |   crash / detected corruption         v
       +---------------------+------------------------------> quarantined
       ^                                                             |
       |   canary pass                           crashed replica     |
       +------------- rebuilding <-----------------------------------+
                          (corrupt replicas skip rebuilding and are
                           scrubbed in place while quarantined)

:class:`HealthManager` drives the machines from the signals the serving
stack already produces — telemetry monitor alarms (``hub.alarms``),
probe-visible query failures (the ``_REPLICA_FAILURES`` set surfacing
from a dispatch), explicit crashes — and owns the repair machinery of
:mod:`repro.heal`:

- a background :class:`~repro.heal.CellScrubber` walks cells of every
  shard in bounded increments each :meth:`tick`;
- a quarantined-but-alive replica gets a *targeted* scrub pass, then a
  canary gate; a crashed replica gets a :class:`~repro.heal.
  ReplicaRebuilder` reconstruction from the surviving majority, then
  the same canary gate;
- the canary gate half-opens the replica's circuit breaker with a
  probe budget and runs real queries against the replica (charged to
  the **repair counter**, never the query-path counter, via
  :func:`~repro.heal.charged_to`); only all-correct answers within
  budget close the breaker and re-admit the replica — so a healing
  replica never serves a wrong answer to routed traffic;
- a replica whose scrubbed cells re-diverge (stuck-at read-path
  damage) is *incorrigible*: it stays quarantined forever and the
  service runs at reduced R.

The manager also drives **graceful degradation**: whenever the minimum
live fraction across shards drops, it calls
:meth:`~repro.serve.admission.AdmissionController.set_degraded` so
low-priority traffic sheds with the typed
:class:`~repro.errors.DegradedModeError` while high-priority traffic
keeps the full queue.

All healing work — scrub reads, rebuild reads, canary probes — is
charged to per-shard repair :class:`~repro.cellprobe.counters.
ProbeCounter` objects (same substrate, same cell geometry as the
query-path counters, mergeable for whole-system accounting), keeping
the Binomial(Q, Φ_t) envelope of the query path exact.  With no
manager attached (``service.health is None``) none of this code runs
and the service is byte-identical to the seed.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cellprobe.counters import ProbeCounter
from repro.dictionaries.replicated import _REPLICA_FAILURES
from repro.errors import HealError
from repro.heal import CellScrubber, HealStats, ReplicaRebuilder, charged_to
from repro.telemetry.events import BUS, HealEvent, HealthTransitionEvent
from repro.telemetry.monitor import HotCellAlarm, RouterSkewAlarm
from repro.utils.rng import as_generator

#: Health state vocabulary (order matches increasing severity).
HEALTH_STATES = ("healthy", "degraded", "quarantined", "rebuilding")


@dataclasses.dataclass
class HealthConfig:
    """Tunables of the healing loop (defaults sized for test instances)."""

    #: Canary queries run against a half-open replica before re-admission.
    canary_queries: int = 8
    #: Probe budget of the half-open breaker; canaries stop when spent.
    canary_probe_budget: int = 4096
    #: Rows per background / targeted scrub increment.
    scrub_rows_per_chunk: int = 8
    #: Rows per rebuild increment.
    rebuild_rows_per_chunk: int = 32
    #: Degraded-state detected errors before quarantine.
    quarantine_after: int = 2
    #: Clean dispatches that return a degraded replica to healthy.
    recover_after: int = 16
    #: Repairs per cell before a re-divergence is diagnosed stuck-at.
    max_repairs: int = 1


class ReplicaHealth:
    """One (shard, replica) state machine; transitions are recorded."""

    __slots__ = (
        "shard", "replica", "state", "errors", "clean", "crashed",
        "incorrigible", "down_since", "transitions",
    )

    def __init__(self, shard: int, replica: int):
        self.shard = int(shard)
        self.replica = int(replica)
        self.state = "healthy"
        #: Detected errors since entering the current state.
        self.errors = 0
        #: Clean dispatches since entering the current state.
        self.clean = 0
        #: Whether the replica's memory is lost (needs rebuild, not scrub).
        self.crashed = False
        #: Stuck-at damage diagnosed: never re-admitted.
        self.incorrigible = False
        #: Virtual time the replica left ``healthy`` (None while healthy).
        self.down_since: float | None = None
        #: ``(time, source, target, reason)`` history.
        self.transitions: list[tuple[float, str, str, str]] = []

    @property
    def serving(self) -> bool:
        """Whether routed traffic is supposed to reach this replica."""
        return self.state in ("healthy", "degraded")

    def to(self, target: str, reason: str, now: float) -> str:
        """Transition to ``target``, recording it; returns the source."""
        if target not in HEALTH_STATES:
            raise HealError(f"unknown health state {target!r}")
        source = self.state
        self.state = target
        self.errors = 0
        self.clean = 0
        self.transitions.append((float(now), source, target, reason))
        if target == "healthy":
            self.down_since = None
            self.crashed = False
        elif source == "healthy":
            self.down_since = float(now)
        return source


class HealthManager:
    """Drives every replica's state machine and the repair machinery.

    Constructed by :meth:`~repro.serve.service.ShardedDictionaryService.
    enable_healing`; holds one repair counter, scrubber, and rebuilder
    per shard, plus the machines, the MTTR ledger, and the
    wrong-answer-exposure counter :attr:`violations` (dispatches served
    by a replica whose machine said it must not serve — zero by
    construction, asserted by E21).
    """

    def __init__(self, service, config: HealthConfig | None = None, seed=0):
        self.service = service
        self.config = config if config is not None else HealthConfig()
        self._rng = as_generator(seed)
        self.stats = HealStats()
        #: Routed dispatches served by a quarantined/rebuilding replica.
        self.violations = 0
        #: ``(shard, replica, down_at, up_at)`` per completed recovery.
        self.mttr: list[tuple[int, int, float, float]] = []
        self._alarm_cursor = 0
        self.machines: dict[tuple[int, int], ReplicaHealth] = {}
        self.repair_counters: list[ProbeCounter] = []
        self.scrubbers: list[CellScrubber] = []
        self.rebuilders: list[ReplicaRebuilder] = []
        for shard, d in enumerate(service.shards):
            counter = ProbeCounter(d.table.num_cells)
            self.repair_counters.append(counter)
            self.scrubbers.append(CellScrubber(
                d, counter,
                rows_per_chunk=self.config.scrub_rows_per_chunk,
                max_repairs=self.config.max_repairs,
            ))
            self.rebuilders.append(ReplicaRebuilder(
                d, counter,
                rows_per_chunk=self.config.rebuild_rows_per_chunk,
            ))
            for r in range(d.replicas):
                self.machines[(shard, r)] = ReplicaHealth(shard, r)

    def rebind_shard(self, shard: int) -> None:
        """Re-anchor healing on a structurally reconfigured shard.

        Called by the autotune executor after it swaps
        ``service.shards[shard]`` for a rebuilt replica set (split,
        join, or scheme switch): the repair counter, scrubber, and
        rebuilder all hold the *old* dictionary and its geometry, so
        they are recreated against the new one.  Surviving replicas
        keep their state machines (a degraded replica stays degraded
        through a split); replicas beyond the new count are dropped and
        freshly cloned replicas start healthy.
        """
        shard = int(shard)
        d = self.service.shards[shard]
        counter = ProbeCounter(d.table.num_cells)
        self.repair_counters[shard] = counter
        self.scrubbers[shard] = CellScrubber(
            d, counter,
            rows_per_chunk=self.config.scrub_rows_per_chunk,
            max_repairs=self.config.max_repairs,
        )
        self.rebuilders[shard] = ReplicaRebuilder(
            d, counter,
            rows_per_chunk=self.config.rebuild_rows_per_chunk,
        )
        for r in range(d.replicas):
            if (shard, r) not in self.machines:
                self.machines[(shard, r)] = ReplicaHealth(shard, r)
        for key in [
            k for k in self.machines
            if k[0] == shard and k[1] >= d.replicas
        ]:
            del self.machines[key]

    # -- state machine plumbing --------------------------------------------------

    def state_of(self, shard: int, replica: int) -> str:
        """The replica's current health state."""
        return self.machines[(int(shard), int(replica))].state

    def _transition(
        self, machine: ReplicaHealth, target: str, reason: str, now: float
    ) -> None:
        source = machine.to(target, reason, now)
        hub = self.service.telemetry
        if hub is not None:
            hub.on_health(
                machine.shard, machine.replica, source, target, reason,
                float(now),
            )
        if BUS.active:
            BUS.emit(HealthTransitionEvent(
                shard=machine.shard, replica=machine.replica,
                source=source, target=target, reason=reason,
            ))

    def _heal_event(
        self, kind: str, shard: int, replica: int, count: int, now: float
    ) -> None:
        hub = self.service.telemetry
        if hub is not None:
            hub.on_heal(kind, shard, replica, count, float(now))
        if BUS.active:
            BUS.emit(HealEvent(
                kind=kind, shard=shard, replica=replica, count=count,
            ))

    # -- signal intake -----------------------------------------------------------

    def _quarantine(
        self, machine: ReplicaHealth, reason: str, now: float
    ) -> None:
        self.stats.quarantines += 1
        self._transition(machine, "quarantined", reason, now)
        # The breaker must agree with the machine: no routed traffic may
        # reach a quarantined replica (E21 asserts zero violations).
        self.service.routers[machine.shard].breakers[machine.replica].open()

    def on_crash(self, shard: int, replica: int, now: float) -> None:
        """A dispatch found the replica crashed (memory lost)."""
        machine = self.machines[(shard, int(replica))]
        machine.crashed = True
        if machine.state in ("healthy", "degraded"):
            self._quarantine(machine, "crash", now)
        elif machine.state == "rebuilding":
            # Crashed again mid-rebuild: restart from scratch.
            self.rebuilders[shard].finish()
            self._quarantine(machine, "crash", now)

    def on_corruption(
        self, shard: int, replica: int, now: float, reason: str = "corruption"
    ) -> None:
        """A dispatch or a vote attributed detectable corruption."""
        machine = self.machines[(shard, int(replica))]
        if machine.state in ("healthy", "degraded"):
            self._quarantine(machine, reason, now)

    def on_alarm_signal(self, shard: int, replica: int, now: float) -> None:
        """A telemetry monitor implicated the replica (soft signal).

        Alarms alone only *degrade* — statistical smoke, not proof of
        damage.  Detected errors while degraded are what quarantine.
        """
        machine = self.machines.get((shard, int(replica)))
        if machine is not None and machine.state == "healthy":
            self._transition(machine, "degraded", "alarm", now)

    def on_error(self, shard: int, replica: int, now: float) -> None:
        """A degraded replica produced another detected error."""
        machine = self.machines[(shard, int(replica))]
        if machine.state == "degraded":
            machine.errors += 1
            if machine.errors >= self.config.quarantine_after:
                self._quarantine(machine, "repeated-errors", now)

    def note_dispatch(self, shard: int, replica: int, now: float) -> None:
        """A routed (non-canary) dispatch was served by ``replica``."""
        machine = self.machines[(shard, int(replica))]
        if not machine.serving:
            # The breaker should have made this impossible; count the
            # exposure so E21 can assert it never happens.
            self.violations += 1
            return
        if machine.state == "degraded":
            machine.clean += 1
            if machine.clean >= self.config.recover_after:
                self._transition(machine, "healthy", "clean-streak", now)

    def pick_witness(self, shard: int, primary: int) -> int | None:
        """A uniformly random live replica other than ``primary``."""
        live = [
            r for r in self.service.routers[shard].live if r != int(primary)
        ]
        if not live:
            return None
        return int(live[int(self._rng.integers(0, len(live)))])

    # -- alarm intake ------------------------------------------------------------

    def _consume_alarms(self, now: float) -> None:
        hub = self.service.telemetry
        if hub is None:
            return
        alarms = hub.alarms
        shard = hub.watch_shard
        block = self.service.shards[shard].inner_cells
        while self._alarm_cursor < len(alarms):
            alarm = alarms[self._alarm_cursor]
            self._alarm_cursor += 1
            if isinstance(alarm, RouterSkewAlarm):
                self.on_alarm_signal(shard, alarm.replica, now)
            elif isinstance(alarm, HotCellAlarm):
                self.on_alarm_signal(shard, alarm.cell // block, now)

    # -- healing loop ------------------------------------------------------------

    def tick(self, now: float) -> None:
        """One healing increment: alarms, background scrub, repairs."""
        self._consume_alarms(now)
        for shard in range(self.service.num_shards):
            self._tick_shard(shard, now)
        self._update_degradation()

    def _trusted(self, shard: int) -> list[int]:
        d = self.service.shards[shard]
        return [
            r for r in range(d.replicas)
            if self.machines[(shard, r)].serving
        ]

    def _absorb(self, report, shard: int, now: float) -> None:
        self.stats.cells_scanned += report.cells_scanned
        self.stats.repair_probes += report.probes
        self.stats.cells_repaired += len(report.repaired)
        self.stats.stuck_cells += len(report.stuck)
        for replica, count in _by_replica(report.repaired):
            self._heal_event("repair", shard, replica, count, now)
        for replica, count in _by_replica(report.stuck):
            self._heal_event("stuck", shard, replica, count, now)
            # Stuck-at read damage corrupts future answers no matter
            # what is written: the replica leaves rotation for good,
            # whichever scan diagnosed it.
            machine = self.machines[(shard, replica)]
            if machine.serving:
                self._quarantine(machine, "stuck-cell", now)
            machine.incorrigible = True

    def _tick_shard(self, shard: int, now: float) -> None:
        trusted = self._trusted(shard)
        scrubber = self.scrubbers[shard]
        if len(trusted) >= 3:
            self._absorb(scrubber.scrub_chunk(trusted), shard, now)
        d = self.service.shards[shard]
        rebuilder = self.rebuilders[shard]
        for replica in range(d.replicas):
            machine = self.machines[(shard, replica)]
            if machine.incorrigible:
                # Free the rebuild slot if the target went incorrigible
                # mid-rebuild, so other crashed replicas can proceed.
                if rebuilder.target == replica:
                    rebuilder.finish()
                continue
            if machine.state not in ("quarantined", "rebuilding"):
                continue
            if scrubber.replica_has_stuck(replica):
                # Stuck-at read-path damage: no rewrite can fix it.
                machine.incorrigible = True
                continue
            if machine.crashed:
                self._step_rebuild(shard, machine, now)
            else:
                self._step_scrub(shard, machine, now)

    def _step_rebuild(
        self, shard: int, machine: ReplicaHealth, now: float
    ) -> None:
        rebuilder = self.rebuilders[shard]
        replica = machine.replica
        if rebuilder.active and rebuilder.target != replica:
            return  # one rebuild at a time; wait for the slot
        trusted = self._trusted(shard)
        if not trusted:
            return
        if not rebuilder.active:
            rebuilder.start(replica)
            self.stats.rebuilds += 1
            self._transition(machine, "rebuilding", "rebuild-start", now)
            self._heal_event("rebuild-start", shard, replica, 1, now)
        before = rebuilder.rows_rebuilt
        done = rebuilder.step(trusted)
        self.stats.rows_rebuilt += rebuilder.rows_rebuilt - before
        if not done:
            return
        rebuilder.finish()
        self._heal_event(
            "rebuild-done", shard, replica,
            self.service.shards[shard].inner_rows, now,
        )
        self.service.shards[shard].revive_replica(replica)
        machine.crashed = False
        self._finish_heal(shard, machine, now)

    def _step_scrub(
        self, shard: int, machine: ReplicaHealth, now: float
    ) -> None:
        scrubber = self.scrubbers[shard]
        trusted = self._trusted(shard)
        if len(trusted) < 3:
            return  # not enough voters to attribute damage; wait
        report = scrubber.scrub_replica(machine.replica, trusted)
        self._absorb(report, shard, now)
        if scrubber.replica_has_stuck(machine.replica):
            machine.incorrigible = True
            return
        if report.done:
            self._finish_heal(shard, machine, now)

    def _finish_heal(
        self, shard: int, machine: ReplicaHealth, now: float
    ) -> None:
        """Repairs complete: canary-gate the replica back into rotation."""
        replica = machine.replica
        if self._canary(shard, replica, now):
            down = machine.down_since
            self._transition(machine, "healthy", "canary-pass", now)
            self.service.routers[shard].mark_up(replica)
            if down is not None:
                self.mttr.append((shard, replica, down, float(now)))
            self._heal_event("canary-pass", shard, replica, 1, now)
        else:
            self.stats.canary_failures += 1
            if machine.state != "quarantined":
                self._transition(machine, "quarantined", "canary-fail", now)
            self.service.routers[shard].breakers[replica].open()
            if self.scrubbers[shard].replica_has_stuck(replica):
                machine.incorrigible = True
            self._heal_event("canary-fail", shard, replica, 1, now)

    def _canary(self, shard: int, replica: int, now: float) -> bool:
        """Probe-budgeted canary queries against a half-open replica.

        Runs the real query algorithm against the replica under the
        repair counter; every answer is checked against ground truth
        (key membership is known to the service — checking it reads no
        cells).  Any wrong answer, detected failure, or an exhausted
        probe budget before ``canary_queries`` correct answers fails
        the canary.
        """
        d = self.service.shards[shard]
        router = self.service.routers[shard]
        counter = self.repair_counters[shard]
        breaker = router.half_open(replica, self.config.canary_probe_budget)
        keys = self._canary_keys(d)
        passed = 0
        for x in keys:
            if breaker.canary_budget <= 0:
                break
            truth = bool(np.isin(int(x), d.keys))
            before = counter.total_probes()
            try:
                with charged_to(d.table, counter):
                    answer = bool(d.query_batch_on(
                        np.asarray([x], dtype=np.int64), replica, self._rng,
                    )[0])
            except _REPLICA_FAILURES:
                probes = counter.total_probes() - before
                breaker.spend(probes)
                self.stats.canary_queries += 1
                self.stats.canary_probes += probes
                return False
            probes = counter.total_probes() - before
            breaker.spend(probes)
            self.stats.canary_queries += 1
            self.stats.canary_probes += probes
            if answer != truth:
                return False
            passed += 1
        return passed >= min(self.config.canary_queries, len(keys))

    def _canary_keys(self, d) -> np.ndarray:
        """Half present keys, half uniform universe draws (both gates)."""
        n = self.config.canary_queries
        hits = d.keys[self._rng.integers(0, d.keys.size, size=(n + 1) // 2)]
        misses = self._rng.integers(0, d.universe_size, size=n // 2)
        keys = np.concatenate([
            np.asarray(hits, dtype=np.int64),
            np.asarray(misses, dtype=np.int64),
        ])
        self._rng.shuffle(keys)
        return keys

    # -- degradation -------------------------------------------------------------

    def _update_degradation(self) -> None:
        fraction = 1.0
        for shard, d in enumerate(self.service.shards):
            live = sum(
                1 for r in range(d.replicas)
                if self.machines[(shard, r)].serving
            )
            fraction = min(fraction, max(1, live) / d.replicas)
        admission = self.service.admission
        if fraction != admission.degraded_fraction:
            admission.set_degraded(fraction)

    # -- reporting ---------------------------------------------------------------

    def mttr_values(self) -> list[float]:
        """Recovery durations (virtual time) of completed heals."""
        return [up - down for _, _, down, up in self.mttr]

    def row(self) -> dict:
        """Flat dict for experiment tables."""
        out = self.stats.row()
        out["violations"] = self.violations
        out["recoveries"] = len(self.mttr)
        out["incorrigible"] = sum(
            1 for m in self.machines.values() if m.incorrigible
        )
        out["repair_probes_total"] = int(sum(
            c.total_probes() for c in self.repair_counters
        ))
        return out


def _by_replica(cells: list) -> list[tuple[int, int]]:
    """Aggregate ``(replica, inner_flat)`` lists to (replica, count)."""
    counts: dict[int, int] = {}
    for replica, _ in cells:
        counts[replica] = counts.get(replica, 0) + 1
    return sorted(counts.items())
