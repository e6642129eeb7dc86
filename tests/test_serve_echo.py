"""The real-socket echo backend under cancel-on-win and lost connections.

Copies sharing one :class:`EchoBackend` queue on its connection lock.  A
losing copy cancelled while still queued there owns nothing, so it must not
drop the connection under the copy mid-round-trip; and the server must treat
a peer that resets its connection as an ordinary close.  A connection the
server closes or resets fails only the copy on it: the next copy reconnects.
"""

import asyncio
import socket
import struct

import pytest

from repro.serve import BackendError, RealClock
from repro.serve.echo import EchoBackend, EchoServer


async def start_gated_server(gate, received):
    """An echo server that holds every reply until ``gate`` is set."""

    async def serve(reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                received.set()
                await gate.wait()
                writer.write(line)
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    return await asyncio.start_server(serve, "127.0.0.1", 0)


def test_copy_cancelled_on_the_lock_leaves_the_holder_alone():
    async def main():
        gate, received = asyncio.Event(), asyncio.Event()
        server = await start_gated_server(gate, received)
        backend = EchoBackend(0, RealClock(), server.sockets[0].getsockname()[1])
        try:
            first = asyncio.ensure_future(backend.handle(1))
            # The first copy holds the lock and waits for its held reply.
            await asyncio.wait_for(received.wait(), timeout=5.0)
            second = asyncio.ensure_future(backend.handle(2))
            await asyncio.sleep(0)  # the second copy queues on the lock
            second.cancel()
            with pytest.raises(asyncio.CancelledError):
                await second
            gate.set()
            service = await asyncio.wait_for(first, timeout=5.0)
            return service, backend
        finally:
            await backend.close()
            server.close()
            await server.wait_closed()

    service, backend = asyncio.run(main())
    assert service > 0.0
    assert not backend.failed
    assert backend.completed == 1


def test_server_treats_a_peer_reset_as_a_normal_close():
    async def main():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context)
        )
        server = EchoServer()
        port = await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"0:1\n")
        assert await reader.readline() == b"0:1\n"
        # A zero linger time makes closing send a reset instead of a FIN.
        writer.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        writer.transport.abort()
        await asyncio.sleep(0.05)
        await server.stop()
        return errors

    assert asyncio.run(main()) == []


@pytest.mark.parametrize("reset", [False, True])
def test_backend_reconnects_after_the_server_drops_the_connection(reset):
    """The server answers once per connection, then closes or resets it."""

    async def serve_once(reader, writer):
        line = await reader.readline()
        writer.write(line)
        await writer.drain()
        if reset:
            # A zero linger time makes closing send a reset instead of a FIN.
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            writer.transport.abort()
        else:
            writer.close()

    async def main():
        server = await asyncio.start_server(serve_once, "127.0.0.1", 0)
        backend = EchoBackend(0, RealClock(), server.sockets[0].getsockname()[1])
        outcomes = []
        try:
            for key in range(4):
                try:
                    await asyncio.wait_for(backend.handle(key), timeout=5.0)
                except (BackendError, OSError):
                    outcomes.append("failed")
                else:
                    outcomes.append("ok")
                    # Let the server's close or reset reach the client.
                    await asyncio.sleep(0.05)
        finally:
            await backend.close()
            server.close()
            await server.wait_closed()
        return outcomes, backend

    outcomes, backend = asyncio.run(main())
    assert outcomes == ["ok", "failed", "ok", "failed"]
    assert not backend.failed
    assert backend.completed == 2
