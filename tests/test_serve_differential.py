"""The live race path and the offline FIFO hedging engine run one model.

Both executors get the same arrivals, ring replicas and per-backend
service-draw streams: :meth:`RedundancyProxy.race` on a :class:`VirtualClock`
over :class:`SimBackend` pools, and :func:`simulate_hedged_arrivals` with
``server_of`` taken from the proxy's replica table and a ``begin`` that draws
from a fresh pool of the same seed.  Every request's latency must agree bit
for bit, and so must the number of copies launched.

The fixed grid and the hypothesis property cover the policies that never
cancel on win and never adapt: eager ``none``/``k2``-``k4`` and fixed-delay
``:nocancel`` hedges, on exponential and heavy-tailed Pareto service.  The
property draws the pool size, the load and the seed too.  Exact ties (a
hedge of ``0ms``, deterministic service) resolve differently by design and
stay out.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import parse_policy, simulate_hedged_arrivals
from repro.distributions import Exponential, Pareto
from repro.serve import RedundancyProxy, SimBackend, VirtualClock
from repro.sim.rng import substream
from repro.workloads.arrivals import PoissonArrivals

REQUESTS = 4000
KEYSPACE = 10_000

#: Service distribution, pool size and arrival rate of each set-up.
SETUPS = {
    "exp": (Exponential(mean=0.001), 4, 2000.0),
    "pareto": (Pareto(1.5, mean=0.001), 8, 6000.0),
}

GRID = [
    ("none", "exp"),
    ("k2", "exp"),
    ("hedge:1ms:nocancel", "exp"),
    ("k3", "pareto"),
    ("hedge:2ms:nocancel", "pareto"),
    ("hedge:1ms:x2:nocancel", "pareto"),
]


def live_race(spec, service, pool_size, rate, seed, requests=REQUESTS):
    """Race every request through the proxy; return keys, arrivals, latencies, proxy."""
    clock = VirtualClock()
    pool = [SimBackend(i, clock, seed=seed, service=service) for i in range(pool_size)]
    proxy = RedundancyProxy(pool, clock, policy=spec)
    proxy.prepare_keyspace(KEYSPACE, pool_size)
    times = PoissonArrivals(rate, substream(seed, "diff-arrivals")).times_count(requests)
    keys = substream(seed, "diff-keys").integers(0, KEYSPACE, size=requests)

    async def main():
        arrivals, races = [], []
        for at, key in zip(times.tolist(), keys.tolist()):
            await clock.sleep(at - clock.now())
            arrivals.append(clock.now())
            races.append(proxy.race(key))
        await proxy.drain()
        return arrivals, [race.result() for race in races]

    arrivals, latencies = clock.run(main())
    return keys, arrivals, latencies, proxy


def offline_engine(spec, service, pool_size, seed, keys, arrivals, proxy):
    """The same requests through the known-completion FIFO hedging engine."""
    policy = parse_policy(spec)
    copies = min(policy.plan().copies, pool_size)
    fresh = [
        SimBackend(i, VirtualClock(), seed=seed, service=service)
        for i in range(pool_size)
    ]
    replicas = [proxy.replicas(int(key), copies) for key in keys]

    def server_of(request, copy):
        return replicas[request][copy]

    def begin(request, copy, at):
        return ("service", fresh[server_of(request, copy)].draw_service(), 0.0)

    finish_at, launched = simulate_hedged_arrivals(
        policy, arrivals, copies, server_of, begin
    )
    latencies = [finish - arrival for finish, arrival in zip(finish_at, arrivals)]
    return latencies, int(np.sum(launched))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("spec,setup", GRID)
def test_live_race_equals_offline_engine(spec, setup, seed):
    service, pool_size, rate = SETUPS[setup]
    keys, arrivals, live, proxy = live_race(spec, service, pool_size, rate, seed)
    offline, launched = offline_engine(
        spec, service, pool_size, seed, keys, arrivals, proxy
    )
    mismatched = [r for r in range(REQUESTS) if live[r] != offline[r]]
    assert mismatched == []
    assert proxy.copies_launched == launched
    assert proxy.failed_requests == 0


#: Mean service time of both property distributions (seconds).
MEAN_SERVICE_S = 0.001
PROPERTY_SERVICES = {
    "exp": Exponential(mean=MEAN_SERVICE_S),
    "pareto": Pareto(1.5, mean=MEAN_SERVICE_S),
}
DELAYS = st.sampled_from(["250us", "500us", "1ms", "2ms", "5ms"])
NOCANCEL_SPECS = st.one_of(
    st.just("none"),
    st.integers(2, 4).map("k{}".format),
    st.builds("hedge:{}:nocancel".format, DELAYS),
    st.builds("hedge:{}:x{}:nocancel".format, DELAYS, st.integers(2, 3)),
)


@settings(max_examples=30, deadline=None)
@given(
    spec=NOCANCEL_SPECS,
    service=st.sampled_from(sorted(PROPERTY_SERVICES)),
    pool_size=st.integers(2, 8),
    load=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_live_race_equals_offline_engine_property(spec, service, pool_size, load, seed):
    """``load`` is the arrival rate as a share of the pool's capacity."""
    distribution = PROPERTY_SERVICES[service]
    rate = load * pool_size / MEAN_SERVICE_S
    keys, arrivals, live, proxy = live_race(
        spec, distribution, pool_size, rate, seed, requests=1000
    )
    offline, launched = offline_engine(
        spec, distribution, pool_size, seed, keys, arrivals, proxy
    )
    mismatched = [r for r in range(len(keys)) if live[r] != offline[r]]
    assert mismatched == []
    assert proxy.copies_launched == launched
