"""Asyncio execution of redundant requests, and the race every live executor runs.

"Initiate an operation multiple times, using as diverse resources as possible,
and use the first result which completes" — this module is that sentence as
code.  :class:`Racer` runs one request's copies under a
:class:`~repro.core.policy.RequestPlan` on clock timers: zero-delay copies
start at once, each hedge is parked as a timer that starts it, and the first
copy to finish schedules a *settle step* for the next loop pass.  The settle
step picks the winner (the earliest-launched copy among those finished by
then), suppresses the hedges still parked, and either cancels the launched
losers (when the plan cancels on win) or leaves them running as strays.  No
task is created per request, and none per copy unless the copy is a
coroutine.

Two executors build on it:

* the asyncio client here — :func:`hedged_call`, :func:`first_completed` and
  :class:`RedundantClient` — runs each copy as a task on the real clock and
  returns a :class:`HedgedResult`;
* the serving proxy (:class:`repro.serve.proxy.RedundancyProxy`) races
  ring-placed backends on an injected clock and records each latency.

Both honour the plan's ``cancel_on_win``, like every other consumer of the
shared policy currency — see the :mod:`repro.core.policy` module docstring
for the full list.

The client functions are transport-agnostic: a "backend" is any callable
returning an awaitable, so the same client wraps DNS lookups, HTTP fetches,
database reads or anything else.
"""

from __future__ import annotations

import abc
import asyncio
import functools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Awaitable,
    Callable,
    Generic,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.policy import KCopies, ReplicationPolicy, RequestPlan
from repro.core.selection import SelectionStrategy, UniformRandom
from repro.exceptions import ConfigurationError
from repro.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.serve.clock import Clock, Timer

T = TypeVar("T")

RequestFactory = Callable[[], Awaitable[T]]

#: Called once when a started copy finishes: ``done(value)`` with its result,
#: or ``done(None, error)`` with the exception that failed it.
CopyDone = Callable[..., None]


class CopyHandle(Protocol):
    """What starting a copy returns: a copy that can be withdrawn."""

    def cancel(self) -> None:
        """Withdraw the copy; its ``done`` callback will not run."""


@dataclass
class HedgedResult(Generic[T]):
    """Outcome of a hedged call.

    Attributes:
        value: The value returned by the winning copy.
        winner: Index (into the launched copies) of the copy that won.
        copies_launched: How many backend calls were actually started by the
            settle step.  A hedge withdrawn while still waiting out its delay
            is not counted: only copies that reached their backend call are.
        elapsed: Seconds on the real clock from the first launch to the
            settle step that picked the winner.
        errors: Exceptions raised by copies that failed before the settle
            step (empty when everything succeeded).
        copies_cancelled: How many started copies were cancelled after their
            backend call began (the cost Google's "cancel outstanding
            requests" machinery pays).  Always 0 under a plan that does not
            cancel on win: its losers run to completion.
    """

    value: T
    winner: int
    copies_launched: int
    elapsed: float
    errors: List[BaseException]
    copies_cancelled: int = 0


class _TaskCopy:
    """A copy served by a task; reports its outcome through ``done``."""

    __slots__ = ("_task", "_done")

    def __init__(self, task: "asyncio.Future[Any]", done: CopyDone) -> None:
        self._task: Optional["asyncio.Future[Any]"] = task
        self._done: Optional[CopyDone] = done
        task.add_done_callback(self._report)

    def _report(self, task: "asyncio.Future[Any]") -> None:
        # Reading the exception also marks it retrieved, cancelled or not.
        error = asyncio.CancelledError() if task.cancelled() else task.exception()
        done, self._done, self._task = self._done, None, None
        if done is not None:
            if error is None:
                done(task.result())
            else:
                done(None, error)

    def cancel(self) -> None:
        self._done = None
        if self._task is not None:
            self._task.cancel()


class _Race:
    """One request's copies in flight."""

    __slots__ = (
        "key", "started", "backends", "cancel_on_win", "future",
        "copies", "timers", "finished", "unresolved",
        "launched", "cancelled", "errors",
    )

    def __init__(
        self,
        key: Any,
        started: float,
        backends: Sequence[Any],
        cancel_on_win: bool,
        future: "asyncio.Future[Any]",
    ) -> None:
        self.key = key
        self.started = started
        self.backends = backends
        self.cancel_on_win = cancel_on_win
        self.future = future
        count = len(backends)
        #: Per copy: the running copy's handle, else ``None``.
        self.copies: Optional[List[Optional[CopyHandle]]] = [None] * count
        #: Per copy: the parked hedge's timer, else ``None``.
        self.timers: Optional[List[Optional["Timer"]]] = [None] * count
        #: ``(copy, value)`` of each copy finished before the settle step.
        self.finished: Optional[List[Tuple[int, Any]]] = []
        #: Copies neither finished nor failed (parked hedges included).
        self.unresolved = count
        #: Copies started, and launched losers cancelled by the settle step.
        self.launched = 0
        self.cancelled = 0
        #: Exceptions of the copies that failed before the settle step.
        self.errors: Tuple[BaseException, ...] = ()


class Racer(abc.ABC):
    """The race a live executor runs its requests through.

    :meth:`_start` races one request's ``backends`` — objects with a
    ``start(key, done)`` method returning a :class:`CopyHandle` — under a
    plan.  Subclasses say what a won race resolves to (:meth:`_won`) and
    what a race whose every copy failed raises (:meth:`_lost`).  All timing
    and scheduling goes through ``clock``.  The cost counters
    (``copies_launched``, ``hedges_fired``, ``hedges_suppressed``,
    ``copies_cancelled``, ``failed_copies`` and ``failed_requests``) are
    totals over every race.
    """

    def __init__(self, clock: "Clock") -> None:
        self.clock = clock
        self.copies_launched = 0
        self.hedges_fired = 0
        self.hedges_suppressed = 0
        self.copies_cancelled = 0
        self.failed_copies = 0
        self.failed_requests = 0
        self._in_flight = 0
        self._strays = 0
        self._idle = asyncio.Event()
        self._idle.set()

    @property
    def in_flight(self) -> int:
        """Races not yet settled."""
        return self._in_flight

    @abc.abstractmethod
    def _won(self, race: _Race, copy: int, value: Any, latency: float) -> Any:
        """What a race won by ``copy`` with ``value`` after ``latency`` resolves to."""

    @abc.abstractmethod
    def _lost(self, race: _Race) -> BaseException:
        """The exception a race raises once every copy has failed."""

    def _start(self, key: Any, backends: Sequence[Any], plan: RequestPlan) -> _Race:
        """Start one race; its future resolves at the settle step."""
        race = _Race(
            key, self.clock.now(), backends, plan.cancel_on_win, self.clock.create_future()
        )
        self._in_flight += 1
        self._idle.clear()
        for copy, delay in enumerate(plan.launch_delays[: len(backends)]):
            if delay > 0:
                race.timers[copy] = self.clock.call_later(
                    delay, self._fire_hedge, race, copy
                )
            else:
                self._launch(race, copy)
        return race

    def _fire_hedge(self, race: _Race, copy: int) -> None:
        race.timers[copy] = None
        self.hedges_fired += 1
        self._launch(race, copy)

    def _launch(self, race: _Race, copy: int) -> None:
        self.copies_launched += 1
        race.launched += 1
        try:
            race.copies[copy] = race.backends[copy].start(
                race.key, functools.partial(self._copy_done, race, copy)
            )
        except Exception as error:
            # Whatever a backend raises when refusing a copy, the copy
            # failed; the race goes on with the others.
            self._copy_done(race, copy, None, error)

    def _copy_done(
        self, race: _Race, copy: int, value: Any, error: Optional[BaseException] = None
    ) -> None:
        """A copy finished with ``value``, or failed with ``error``."""
        if error is not None:
            self.failed_copies += 1
        copies = race.copies
        if copies is None:
            # A loser the settled race left running (no cancel-on-win).
            self._strays -= 1
            self._check_idle()
            return
        copies[copy] = None
        race.unresolved -= 1
        if error is None:
            if not race.finished:
                self.clock.call_soon(self._settle, race)
            race.finished.append((copy, value))
        else:
            race.errors += (error,)
            if race.unresolved == 0 and not race.finished:
                self.clock.call_soon(self._settle, race)

    def _settle(self, race: _Race) -> None:
        """Resolve a race one loop pass after its first finish (or last failure).

        The winner is the earliest-launched copy among those that finished
        by now, so an exact tie does not depend on timer order; the other
        finishers count as completed.  A hedge still parked never reached a
        backend and is *suppressed* (as in the offline FIFO hedging engine,
        :mod:`repro.core.cancellation`); launched losers are *cancelled*
        under cancel-on-win, else they run on as strays.
        """
        copies, timers, finished = race.copies, race.timers, race.finished
        # ``None`` marks the race settled, and dropping its links to copies
        # and timers leaves no cycle through a stray's ``done`` callback.
        race.copies = race.timers = race.finished = None
        for timer in timers:
            if timer is not None:
                timer.cancel()
                self.hedges_suppressed += 1
        for handle in copies:
            if handle is not None:
                if race.cancel_on_win:
                    handle.cancel()
                    race.cancelled += 1
                else:
                    self._strays += 1
        self.copies_cancelled += race.cancelled
        future = race.future
        if finished:
            copy, value = min(finished)
            result = self._won(race, copy, value, self.clock.now() - race.started)
            if not future.done():
                future.set_result(result)
        else:
            self.failed_requests += 1
            if not future.done():
                future.set_exception(self._lost(race))
        self._in_flight -= 1
        self._check_idle()

    def _check_idle(self) -> None:
        if self._in_flight == 0 and self._strays == 0:
            self._idle.set()


class _Call:
    """A coroutine function as a race backend: each copy is a task running it."""

    __slots__ = ("function",)

    def __init__(self, function: Callable[..., Awaitable[Any]]) -> None:
        self.function = function

    def start(self, call: Tuple[tuple, dict], done: CopyDone) -> _TaskCopy:
        args, kwargs = call
        return _TaskCopy(asyncio.ensure_future(self.function(*args, **kwargs)), done)


class _CallRacer(Racer):
    """The client's executor: coroutine calls on the real clock."""

    def __init__(self) -> None:
        # Imported here so that ``import repro`` does not load repro.serve.
        from repro.serve.clock import RealClock

        super().__init__(RealClock())

    def _won(self, race: _Race, copy: int, value: Any, latency: float) -> HedgedResult:
        return HedgedResult(
            value=value,
            winner=copy,
            copies_launched=race.launched,
            elapsed=latency,
            errors=list(race.errors),
            copies_cancelled=race.cancelled,
        )

    def _lost(self, race: _Race) -> BaseException:
        return race.errors[-1]

    async def run(
        self, backends: Sequence[_Call], call: Tuple[tuple, dict], plan: RequestPlan
    ) -> HedgedResult:
        """Race ``backend.function(*args, **kwargs)`` across ``backends``."""
        race = self._start(call, backends, plan)
        try:
            return await race.future
        finally:
            if race.copies is not None:
                # The caller stopped waiting before the race settled:
                # withdraw every launched copy and parked hedge.
                race.cancel_on_win = True
                if not race.finished and race.unresolved:
                    # No settle step is scheduled yet, so settle now.
                    self._settle(race)


async def first_completed(awaitables: Sequence[Awaitable[T]]) -> T:
    """Return the result of the first awaitable to complete successfully.

    The awaitables race as an eager plan that cancels on win: once the
    first success settles the race, the still-pending copies are cancelled
    (the redundant-operation analogue of the paper's note that Google
    cancels outstanding partially-completed requests).  Failed copies are
    tolerated as long as at least one succeeds; if every copy fails, the
    exception of the last failure is raised.

    Args:
        awaitables: Non-empty sequence of awaitables to race.

    Raises:
        ConfigurationError: If ``awaitables`` is empty.
        BaseException: The last copy's exception if all copies fail.
    """
    if not awaitables:
        raise ConfigurationError("first_completed needs at least one awaitable")
    backends = [_Call(functools.partial(_identity, awaitable)) for awaitable in awaitables]
    plan = RequestPlan((0.0,) * len(backends), cancel_on_win=True)
    result = await _CallRacer().run(backends, ((), {}), plan)
    return result.value


def _identity(awaitable: Awaitable[T]) -> Awaitable[T]:
    return awaitable


async def hedged_call(
    factories: Sequence[RequestFactory[T]],
    policy: Optional[ReplicationPolicy] = None,
) -> HedgedResult[T]:
    """Run redundant copies of an operation according to ``policy``.

    Args:
        factories: One zero-argument coroutine factory per *potential* copy;
            ``factories[i]`` is used for the ``i``-th launched copy.  Provide
            as many factories as the policy's ``max_copies`` (extra factories
            are ignored; too few is an error).
        policy: The replication policy; defaults to eager 2-copy replication
            (:class:`~repro.core.policy.KCopies` with ``copies=2``), the
            paper's canonical scheme.  Its plan's ``cancel_on_win`` decides
            whether the losers are cancelled or run to completion.

    Returns:
        A :class:`HedgedResult` describing the winner.

    Raises:
        ConfigurationError: If there are fewer factories than copies.
        BaseException: If every launched copy fails, the last failure.
    """
    if policy is None:
        policy = KCopies(2)
    plan = policy.plan()
    if len(factories) < plan.copies:
        raise ConfigurationError(
            f"policy wants up to {plan.copies} copies but only "
            f"{len(factories)} request factories were provided"
        )
    backends = [_Call(factory) for factory in factories[: plan.copies]]
    result = await _CallRacer().run(backends, ((), {}), plan)
    policy.record_latency(result.elapsed)
    return result


class RedundantClient(Generic[T]):
    """Issue requests redundantly across a set of backends.

    A backend is a callable ``backend(key) -> awaitable``; the client picks
    which backends receive copies (via a
    :class:`~repro.core.selection.SelectionStrategy`), launches the copies
    according to its policy, returns the first completion and records the
    observed latency for adaptive policies.

    Example:
        >>> import asyncio
        >>> async def backend_a(key): return ("a", key)
        >>> async def backend_b(key): return ("b", key)
        >>> client = RedundantClient([backend_a, backend_b])
        >>> asyncio.run(client.request("x")).value[1]
        'x'
    """

    def __init__(
        self,
        backends: Sequence[Callable[..., Awaitable[T]]],
        policy: Optional[ReplicationPolicy] = None,
        selection: Optional[SelectionStrategy] = None,
        seed: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """Create a client over ``backends``.

        Args:
            backends: Non-empty sequence of backend callables.
            policy: Replication policy (default: eager 2 copies, capped at the
                number of backends).
            selection: Backend selection strategy (default: uniform random
                distinct backends, the Section 2.1 model).
            seed: Seed for the selection strategy's randomness.
            metrics: Registry the client records into (``requests``,
                ``failed_requests``, ``copies_launched``, ``copies_cancelled``,
                ``errors`` counters and a streaming ``latency`` histogram); a
                private registry is created when omitted.
        """
        if not backends:
            raise ConfigurationError("RedundantClient needs at least one backend")
        self.backends = list(backends)
        if policy is None:
            policy = KCopies(min(2, len(self.backends)))
        self.policy = policy
        self.selection = selection or UniformRandom(seed=seed)
        self.metrics = metrics if metrics is not None else MetricsRegistry("redundant_client")
        # Cached: request() touches these per call; keep the hot path at a
        # bare increment instead of a registry lookup each time.
        self._requests = self.metrics.counter("requests")
        self._failed_requests = self.metrics.counter("failed_requests")
        self._copies_launched = self.metrics.counter("copies_launched")
        self._copies_cancelled = self.metrics.counter("copies_cancelled")
        self._errors = self.metrics.counter("errors")
        self._latency = self.metrics.histogram("latency")
        self._racer = _CallRacer()

    async def request(self, *args, key: Optional[object] = None, **kwargs) -> HedgedResult[T]:
        """Issue one redundant request.

        A policy wanting more copies than there are backends keeps its launch
        schedule, cut to the backend count.

        Args:
            *args: Positional arguments forwarded to each backend call.
            key: Optional request key.  When provided, it is passed to the
                backend as its first positional argument.
            **kwargs: Keyword arguments forwarded to each backend call.

        Returns:
            The :class:`HedgedResult` of the winning copy.
        """
        plan = self.policy.plan()
        copies = min(plan.copies, len(self.backends))
        chosen = self.selection.choose(len(self.backends), copies)
        call = (args if key is None else (key, *args), kwargs)
        self._requests.increment()
        try:
            result = await self._racer.run(
                [_Call(self.backends[index]) for index in chosen], call, plan
            )
        except BaseException:
            # Fully-failed requests still show up in the registry; without
            # this an operator would read a failing client as idle.
            self._failed_requests.increment()
            raise
        self.policy.record_latency(result.elapsed)
        self._copies_launched.increment(result.copies_launched)
        self._copies_cancelled.increment(result.copies_cancelled)
        self._errors.increment(len(result.errors))
        self._latency.record(result.elapsed)
        return result
