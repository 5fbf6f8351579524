"""Fault schedules: ordered, fingerprintable sets of faults to inject.

A :class:`FaultSchedule` is the deterministic contract of a chaos run: the
same schedule armed on the same seeded simulation must produce a
byte-identical event trace.  :func:`random_schedule` derives a schedule
from a :class:`~repro.sim.rng.SeededRng`, so "random" chaos is still
replayable from its seed.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, List, Sequence

from repro.chaos.faults import (CoordinatorCrash, Fault, LatencySpike,
                                LinkFlap, MachineCrash, OomKill, QpBreak)
from repro.sim.rng import SeededRng
from repro.units import ms, seconds


class FaultSchedule:
    """An immutable-ish ordered list of faults (sorted by time, then by
    canonical description for a stable tie-break)."""

    def __init__(self, faults: Iterable[Fault] = ()):
        self._faults: List[Fault] = sorted(
            faults, key=lambda f: (f.at_ns, f.describe()))

    def add(self, fault: Fault) -> "FaultSchedule":
        self._faults.append(fault)
        self._faults.sort(key=lambda f: (f.at_ns, f.describe()))
        return self

    def __iter__(self) -> Iterator[Fault]:
        return iter(self._faults)

    def __len__(self) -> int:
        return len(self._faults)

    def describe(self) -> List[str]:
        return [f.describe() for f in self._faults]

    def fingerprint(self) -> str:
        blob = "\n".join(self.describe()).encode()
        return hashlib.sha256(blob).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultSchedule {len(self._faults)} faults "
                f"{self.fingerprint()[:8]}>")


#: The seeded mixed schedule's shape: one machine crash (restarting
#: after RESTART_AFTER_NS), LINK_FLAPS link flaps (each down for
#: FLAP_DOWN_NS), one QP break, one SPIKE_FACTOR x latency spike lasting
#: SPIKE_DURATION_NS, one OOM kill and one coordinator crash (failing
#: over in FAILOVER_NS).
LINK_FLAPS = 2
RESTART_AFTER_NS = seconds(0.05)
FLAP_DOWN_NS = ms(5)
SPIKE_FACTOR = 4.0
SPIKE_DURATION_NS = ms(20)
FAILOVER_NS = ms(10)


def random_schedule(machine_macs: Sequence[str], rng: SeededRng,
                    horizon_ns: int,
                    start_ns: int = 0) -> FaultSchedule:
    """A seeded mixed-fault schedule over ``[start_ns, start_ns+horizon)``.

    Draw order is fixed (crash, flaps, qp break, spike, oom kill,
    coordinator crash) so a given seed always yields the same schedule.
    Machines are drawn from ``machine_macs``; pass a subset to protect
    e.g. the machine hosting a victim-sensitive baseline.
    """
    macs = list(machine_macs)
    if not macs:
        raise ValueError("a mixed fault schedule needs at least one "
                         "machine")

    def when() -> int:
        return start_ns + rng.uniform_ns(0, max(0, horizon_ns - 1))

    faults: List[Fault] = [
        MachineCrash(at_ns=when(), machine=rng.choice(macs),
                     restart_after_ns=RESTART_AFTER_NS)]
    for _ in range(LINK_FLAPS):
        faults.append(LinkFlap(at_ns=when(), machine=rng.choice(macs),
                               down_ns=FLAP_DOWN_NS))
    faults.append(QpBreak(at_ns=when(), machine=rng.choice(macs)))
    faults.append(LatencySpike(at_ns=when(), machine=rng.choice(macs),
                               factor=SPIKE_FACTOR,
                               duration_ns=SPIKE_DURATION_NS))
    faults.append(OomKill(at_ns=when()))
    faults.append(CoordinatorCrash(at_ns=when(), failover_ns=FAILOVER_NS))
    return FaultSchedule(faults)
