"""Open-loop Poisson load generation against a :class:`RedundancyProxy`.

Open-loop means arrivals do not wait for completions — the defining load
model of the paper's analysis (Section 2) and of the offline substrates'
``PoissonArrivals`` traces, reused here verbatim.  The generator:

* draws the full arrival offset vector and key vector up front from seeded
  substreams (``substream(seed, "serve-arrivals")`` /
  ``("serve-keys")``) — identical seeds therefore mean identical traffic,
  which is what makes virtual-clock runs byte-reproducible;
* walks the timeline on a chain of clock timers: the issuing loop is a
  generator that yields the time of each wake (a wake ``delay`` ahead as
  ``now + delay``, exactly where ``clock.call_later(delay)`` would fall
  due), and each timer's callback runs it to its next wake and schedules
  the following timer there with ``clock.call_at``, so no task sleeps once
  per arrival.  Each request is dispatched the moment its arrival time is
  due — through the proxy's synchronous fast path when the current plan
  allows it, else as a race of copies on clock timers
  (:meth:`RedundancyProxy.race`);
* on a clock with nothing else to run (:meth:`Clock.quiet`, which only a
  :class:`~repro.serve.clock.VirtualClock` can be) and a fast-path plan,
  hands the proxy a whole *quiet stretch* instead: every arrival up to the
  next control or the end of traffic, in one
  :meth:`RedundancyProxy.submit_stretch` call that emulates the wakes below
  bit for bit (one compiled pass, the same one that reserves a
  :meth:`RedundancyProxy.submit_batch` batch, which takes a lone arrival as
  a batch of one at its wake); one timer then moves the clock onto the last
  of them.  Real clocks, race plans, a clock with a timer or callback
  pending and ``REPRO_CKERNELS=0`` run the per-wake loop;
* optionally hot-swaps the proxy policy and applies membership events
  (backend add / graceful remove / crash) at scheduled times mid-run;
* drains the proxy and assembles the :class:`~repro.serve.report.RunReport`.

The ``resolution`` knob batches arrivals closer together than one sleep
granule into a single wakeup: a wake falls on the first arrival due more
than one ``resolution`` ahead, and issues every arrival due up to one
``resolution`` past it (two or more as one :meth:`RedundancyProxy.
submit_batch`, one alone through :meth:`RedundancyProxy.submit_nowait` at
the wake).  Under a virtual clock it should be 0: every arrival gets its
exact timestamp, and a quiet stretch issues them all in one compiled pass.
Under a real clock ~1 ms keeps the issue loop from being scheduler-bound at
six-figure request rates.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.serve.clock import Clock
from repro.serve.proxy import RedundancyProxy
from repro.serve.report import RunReport
from repro.sim.rng import substream
from repro.workloads.arrivals import PoissonArrivals

__all__ = ["LoadGenConfig", "run_load"]


@dataclasses.dataclass
class LoadGenConfig:
    """Parameters of one load-generation run.

    Attributes:
        rate: Offered arrival rate, requests/second (finite, > 0).
        num_requests: Stop after this many arrivals (exclusive with
            ``duration_s``; exactly one must be set; >= 1).
        duration_s: Stop issuing at this horizon (open interval; finite,
            > 0).
        seed: Run seed; arrivals and keys come from substreams of it.
        keyspace: Keys are drawn uniformly from ``range(keyspace)`` (>= 1).
        resolution: Sleep granule (seconds); arrivals due within the same
            granule are issued in one wakeup.  ``0`` issues each arrival at
            its exact timestamp (virtual-clock mode).  Finite, >= 0.
        swaps: Scheduled policy hot-swaps, as ``(at_seconds, spec)`` pairs.
        events: Scheduled membership events, as ``(at_seconds, action,
            backend_index)`` triples with ``action`` one of ``"add"``,
            ``"remove"`` (graceful drain) or ``"crash"`` (dead eviction).
    """

    rate: float
    num_requests: Optional[int] = None
    duration_s: Optional[float] = None
    seed: int = 0
    keyspace: int = 10_000
    resolution: float = 0.0
    swaps: Sequence[Tuple[float, str]] = ()
    events: Sequence[Tuple[float, str, int]] = ()

    def __post_init__(self) -> None:
        if (self.num_requests is None) == (self.duration_s is None):
            raise ValueError("set exactly one of num_requests / duration_s")
        if self.num_requests is not None and self.num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {self.num_requests!r}")
        if self.keyspace < 1:
            raise ValueError(f"keyspace must be >= 1, got {self.keyspace!r}")
        # A NaN rate would issue every arrival at once, and a NaN or
        # infinite resolution never moves the clock.
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate must be finite and positive, got {self.rate!r}")
        if not (math.isfinite(self.resolution) and self.resolution >= 0):
            raise ValueError(
                f"resolution must be finite and non-negative, got {self.resolution!r}"
            )
        if self.duration_s is not None and not (
            math.isfinite(self.duration_s) and self.duration_s > 0
        ):
            raise ValueError(
                f"duration_s must be finite and positive, got {self.duration_s!r}"
            )
        for _at, action, _backend in self.events:
            if action not in ("add", "remove", "crash"):
                raise ValueError(
                    f"event action must be add/remove/crash, got {action!r}"
                )


def _draw_traffic(config: LoadGenConfig) -> Tuple[np.ndarray, np.ndarray]:
    """The seeded ``(arrival_offsets, keys)`` vectors for the whole run."""
    arrivals = PoissonArrivals(config.rate, substream(config.seed, "serve-arrivals"))
    if config.num_requests is not None:
        offsets = arrivals.times_count(config.num_requests)
    else:
        offsets = arrivals.times_until(config.duration_s)
    keys = substream(config.seed, "serve-keys").integers(
        0, config.keyspace, size=len(offsets)
    )
    return offsets, keys


async def run_load(
    proxy: RedundancyProxy, clock: Clock, config: LoadGenConfig
) -> RunReport:
    """Drive ``proxy`` with open-loop Poisson traffic; return the report.

    Raises:
        ConfigurationError: If no arrival falls inside ``duration_s``.
    """
    offsets, keys = _draw_traffic(config)
    if not len(offsets):
        raise ConfigurationError(
            f"no arrival falls inside the duration_s={config.duration_s!r} "
            f"horizon at rate {config.rate!r}"
        )
    initial_policy = proxy.policy_spec
    # Full-width table: a plan never uses more copies than there are
    # backends, so this keeps every policy (including k>8 and hot-swaps)
    # on the vectorised fast path.  int64 keyspace x backends is small.
    proxy.prepare_keyspace(config.keyspace, len(proxy.backends))
    start = clock.now()
    # One time-ordered control schedule covers policy swaps and membership
    # events; ties break swaps-before-events, then input order (stable sort).
    controls: List[Tuple[float, int, tuple]] = sorted(
        [(float(at), 0, (spec,)) for at, spec in config.swaps]
        + [(float(at), 1, (action, int(backend))) for at, action, backend in config.events],
        key=lambda control: control[:2],
    )

    def apply_control(kind: int, payload: tuple) -> None:
        if kind == 0:
            proxy.set_policy(payload[0])
        else:
            action, backend = payload
            if action == "add":
                proxy.add_backend(backend)
            else:
                proxy.remove_backend(backend, dead=(action == "crash"))

    races: List[asyncio.Future] = []
    total = len(offsets)

    def boundary() -> int:
        """The first arrival at or after the next control (arrivals at
        exactly a control's time run after it), or ``total``."""
        return int(offsets.searchsorted(controls[0][0], "left")) if controls else total

    def issue() -> Iterator[float]:
        """The issuing loop; it yields the time of each wake instead of
        sleeping.  A wake ``delay`` ahead is yielded as ``now + delay``,
        exactly where ``clock.call_later(delay)`` would fall due."""
        index = 0
        control_index = boundary()
        while index < total:
            due = float(offsets[index])
            while controls and controls[0][0] <= due:
                control_at, kind, payload = controls.pop(0)
                control_index = boundary()
                now = clock.now()
                delay = (start + control_at) - now
                if delay > 0:
                    yield now + delay
                apply_control(kind, payload)
            # On a quiet clock the proxy may issue every arrival up to the
            # next control in one pass, as the wakes below would; one timer
            # then moves the clock onto the last wake it emulated.
            stretch = proxy.submit_stretch(
                keys, offsets, start, index, control_index, config.resolution
            )
            if stretch is not None:
                index, wake = stretch
                if wake > clock.now():
                    yield wake
                continue
            now = clock.now()
            delay = (start + due) - now
            if delay > config.resolution:
                yield now + delay
            # Issue every arrival due within the current granule in one wakeup,
            # never crossing a scheduled control point (arrivals at exactly the
            # control time run under the new policy/membership, matching the
            # scalar path).
            horizon = (clock.now() - start) + config.resolution
            end = min(int(offsets.searchsorted(horizon, "right")), control_index)
            end = max(end, index + 1)
            if end - index > 1 and proxy.submit_batch(
                keys[index:end], start + offsets[index:end]
            ):
                index = end
                continue
            while index < end:
                key = int(keys[index])
                if not proxy.submit_nowait(key):
                    races.append(proxy.race(key))
                index += 1
        for control_at, kind, payload in controls:
            now = clock.now()
            delay = (start + control_at) - now
            if delay > 0:
                yield now + delay
            apply_control(kind, payload)

    # A chain of clock timers walks the timeline: each step runs the issuing
    # loop up to its next wake and schedules the following step there.
    issuing = issue()
    issued = clock.create_future()

    def step() -> None:
        if issued.done():  # run_load was cancelled
            issuing.close()
            return
        try:
            wake = next(issuing)
        except StopIteration:
            issued.set_result(None)
        except Exception as exc:  # a failing control fails run_load
            issued.set_exception(exc)
        else:
            clock.call_at(wake, step)

    step()
    await issued
    await proxy.drain()
    # The proxy counts failed requests; reading each race's outcome keeps
    # their errors from being logged as never retrieved.
    for race in races:
        race.exception()
    proxy.finalize()
    duration = max(clock.now(), proxy.last_finish_at) - start
    return RunReport(
        clock=clock.name,
        policy=initial_policy,
        swaps=list(proxy.policy_swaps),
        events=list(proxy.membership_events),
        rate=config.rate,
        duration_s=duration,
        seed=config.seed,
        backends=len(proxy.backends),
        summary=proxy.recorder.summary(),
        counters=proxy.counters(),
        per_backend_completions=[b.completed for b in proxy.backends],
    )
