"""``python -m repro.serve`` — run the live serving loop or benchmark it.

Two subcommands:

``run``
    One load-generation run: ``--policy``, ``--rate`` and exactly one of
    ``--requests`` / ``--duration``.  ``--clock virtual`` (the default)
    executes the whole stack under the deterministic virtual-time loop and
    emits a canonical, byte-reproducible report; ``--clock real`` paces the
    same run on the wall clock.  ``--swap T:SPEC`` hot-swaps the policy
    mid-run and ``--event T:ACTION:INDEX`` applies a membership event
    (``add`` / ``remove`` / ``crash`` of backend ``INDEX``, in ``[0,
    --backends)``) mid-run — both repeatable.  ``--backend echo`` swaps the
    simulated pool for real loopback TCP echo servers (real clock only).

``bench``
    Throughput measurement: saturates the proxy's dispatch path with
    pre-drawn traffic per policy and reports sustained requests/second.
    ``--assert-floor N`` exits non-zero unless the *best* measured policy
    sustains at least N req/s — the CI floor assertion.

Bad input exits 2: a malformed argument with argparse's usage message, and
an error the run itself raises (an event that adds a backend already on the
ring, a ``--duration`` shorter than the first arrival, an unknown
``REPRO_*`` variable) with ``error: ...``.
"""

from __future__ import annotations

import argparse
import asyncio
import math
import sys
from typing import List, Optional, Sequence, Tuple

from repro.cluster import _ckernels
from repro.core.policy import canonical_policy_spec
from repro.distributions import Exponential
from repro.exceptions import ConfigurationError, ReproError
from repro.flags import reject_unknown_flags
from repro.serve.backends import SimBackend
from repro.serve.clock import Clock, RealClock, VirtualClock
from repro.serve.loadgen import LoadGenConfig, run_load
from repro.serve.proxy import RedundancyProxy
from repro.serve.report import RunReport

__all__ = ["main"]


def _positive_finite(text: str) -> float:
    """A finite number above zero (``nan`` and ``inf`` parse as floats)."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """An integer above zero."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _policy_spec(text: str) -> str:
    """A PolicySpec, checked here so a bad one is a usage error."""
    try:
        canonical_policy_spec(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _policy_specs(text: str) -> List[str]:
    """Comma-separated PolicySpecs, at least one."""
    specs = [_policy_spec(spec) for spec in map(str.strip, text.split(",")) if spec]
    if not specs:
        raise argparse.ArgumentTypeError(f"no policy spec in {text!r}")
    return specs


def _parse_swap(text: str) -> Tuple[float, str]:
    """``T:SPEC`` — seconds into the run, then a PolicySpec (may contain :)."""
    head, sep, spec = text.partition(":")
    if not sep or not spec:
        raise argparse.ArgumentTypeError(
            f"--swap wants T:SPEC (e.g. 0.5:hedge:2ms), got {text!r}"
        )
    try:
        at = float(head)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --swap time in {text!r}") from exc
    return at, _policy_spec(spec)


def _parse_event(text: str) -> Tuple[float, str, int]:
    """``T:ACTION:INDEX`` — e.g. ``0.4:crash:1`` kills backend 1 at 0.4 s."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"--event wants T:ACTION:INDEX (e.g. 0.4:crash:1), got {text!r}"
        )
    head, action, tail = parts
    try:
        at = float(head)
        index = int(tail)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --event time/index in {text!r}") from exc
    if action not in ("add", "remove", "crash"):
        raise argparse.ArgumentTypeError(
            f"--event action must be add/remove/crash, got {action!r}"
        )
    return at, action, index


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__.split("\n\n")[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one load-generation run")
    run.add_argument("--policy", type=_policy_spec, default="none", help="initial PolicySpec")
    run.add_argument("--rate", type=_positive_finite, default=2000.0, help="arrivals/second")
    stop = run.add_mutually_exclusive_group()
    stop.add_argument(
        "--requests", type=_positive_int, default=None, help="stop after N arrivals"
    )
    stop.add_argument(
        "--duration", type=_positive_finite, default=None, help="stop after T seconds"
    )
    run.add_argument("--backends", type=_positive_int, default=8, help="pool size")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--clock", choices=("virtual", "real"), default="virtual")
    run.add_argument("--backend", choices=("sim", "echo"), default="sim")
    run.add_argument(
        "--service-mean", type=_positive_finite, default=0.001,
        help="SimBackend mean service time, seconds",
    )
    run.add_argument("--keyspace", type=_positive_int, default=10_000)
    run.add_argument(
        "--swap", action="append", type=_parse_swap, default=[],
        metavar="T:SPEC", help="hot-swap the policy T seconds into the run",
    )
    run.add_argument(
        "--event", action="append", type=_parse_event, default=[],
        metavar="T:ACTION:INDEX",
        help="membership event T seconds into the run: add, remove "
             "(graceful drain) or crash (dead eviction) of backend INDEX",
    )
    run.add_argument("--json", default=None, help="write the canonical report here")
    run.add_argument("--quiet", action="store_true")

    bench = sub.add_parser("bench", help="dispatch-path throughput measurement")
    bench.add_argument(
        "--policies", type=_policy_specs, default="none,k2,hedge:1ms,hedge:p95",
        help="comma-separated PolicySpecs to bench",
    )
    bench.add_argument("--requests", type=_positive_int, default=200_000, help="per policy")
    bench.add_argument("--backends", type=_positive_int, default=8)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--assert-floor", type=float, default=None, metavar="REQ_PER_S",
        help="exit 1 unless the best policy sustains at least this",
    )
    bench.add_argument("--quiet", action="store_true")
    return parser


def _sim_pool(
    count: int, clock: Clock, seed: int, mean_s: float, queueing: bool = True
) -> List[SimBackend]:
    service = Exponential(mean=mean_s)
    return [
        SimBackend(i, clock, seed=seed, service=service, queueing=queueing)
        for i in range(count)
    ]


def cmd_run(args: argparse.Namespace) -> int:
    if args.requests is None and args.duration is None:
        args.requests = 5_000
    if args.backend == "echo" and args.clock == "virtual":
        print("--backend echo requires --clock real", file=sys.stderr)
        return 2
    clock: Clock = VirtualClock() if args.clock == "virtual" else RealClock()
    config = LoadGenConfig(
        rate=args.rate,
        num_requests=args.requests,
        duration_s=args.duration,
        seed=args.seed,
        keyspace=args.keyspace,
        resolution=0.0 if args.clock == "virtual" else 0.001,
        swaps=args.swap,
        events=args.event,
    )

    async def drive() -> RunReport:
        if args.backend == "echo":
            from repro.serve.echo import EchoBackend, EchoServer

            servers = [EchoServer() for _ in range(args.backends)]
            ports = [await server.start() for server in servers]
            pool = [
                EchoBackend(i, clock, port) for i, port in enumerate(ports)
            ]
            try:
                proxy = RedundancyProxy(pool, clock, policy=args.policy)
                return await run_load(proxy, clock, config)
            finally:
                for backend in pool:
                    await backend.close()
                for server in servers:
                    await server.stop()
        pool = _sim_pool(args.backends, clock, args.seed, args.service_mean)
        proxy = RedundancyProxy(pool, clock, policy=args.policy)
        return await run_load(proxy, clock, config)

    if isinstance(clock, VirtualClock):
        report = clock.run(drive())
    else:
        report = asyncio.run(drive())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
    if not args.quiet:
        print(report.table())
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.core.policy import parse_policy

    # Load (or build) the kernel library untimed, so the first row does not
    # pay for the dlopen and the sampler lookups.
    _ckernels.load()
    wall = RealClock()
    rows: List[Tuple[str, float, int, str]] = []
    for spec in args.policies:
        policy = parse_policy(spec)
        plan = policy.plan() if policy.is_static else None
        fast = plan is not None and plan.is_eager and not plan.cancel_on_win
        clock = RealClock()
        # Infinite-server backends: bench measures the dispatch path, not
        # simulated queueing, so saturation cannot confound throughput.
        pool = _sim_pool(args.backends, clock, args.seed, 0.001, queueing=False)
        proxy = RedundancyProxy(pool, clock, policy=spec)
        # An offered rate far beyond any achievable throughput turns the
        # open-loop generator into a saturation test: every arrival is
        # already due, so the issue loop never sleeps.  Race rows keep every
        # request in flight at once, so they are capped at 8,000 requests.
        requests = args.requests if fast else min(args.requests, 8_000)
        config = LoadGenConfig(
            rate=1e9, num_requests=requests, seed=args.seed, resolution=0.05
        )
        started = wall.now()
        asyncio.run(run_load(proxy, clock, config))
        elapsed = wall.now() - started
        rows.append((spec, requests / elapsed, requests, "batch" if fast else "race"))
    best = max(throughput for _, throughput, _, _ in rows)
    if not args.quiet:
        print(f"{'policy':<16} {'path':<6} {'requests':>9} {'req/s':>12}   "
              f"({args.backends} SimBackends, dispatch-path)")
        for spec, throughput, requests, path in rows:
            print(f"{spec:<16} {path:<6} {requests:>9} {throughput:>12,.0f}")
        print(f"{'best':<16} {'':<6} {'':>9} {best:>12,.0f}")
    if args.assert_floor is not None and best < args.assert_floor:
        print(
            f"bench floor failed: best {best:,.0f} req/s < "
            f"floor {args.assert_floor:,.0f} req/s",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        for _at, _action, index in args.event:
            if not 0 <= index < args.backends:
                parser.error(
                    f"argument --event: backend index must be in "
                    f"[0, {args.backends}), got {index}"
                )
    try:
        # A typo'd REPRO_* variable (say REPRO_CKERNEL=0) would silently
        # run the default code path; fail before any work.
        reject_unknown_flags()
        if args.command == "run":
            return cmd_run(args)
        return cmd_bench(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
