"""An optional real-socket echo backend for end-to-end plumbing checks.

:class:`EchoServer` is a loopback TCP server that reads newline-delimited
request ids and echoes them back; :class:`EchoBackend` satisfies the
:class:`~repro.serve.backends.Backend` contract by round-tripping each
request over its own connection and reporting the measured round-trip as
the "service" time.

This pair exists to prove the proxy's dispatch, cancellation and failure
paths against real I/O — it is *not* deterministic and therefore requires
a :class:`~repro.serve.clock.RealClock` (under a virtual clock a socket
await would be a virtual-time deadlock, and the clock refuses to wait
forever rather than hang).  Latency numbers it produces never become
canonical artifacts.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.serve.backends import Backend, BackendError
from repro.serve.clock import Clock, VirtualClock

__all__ = ["EchoBackend", "EchoServer"]


class EchoServer:
    """A loopback TCP echo server (one line in, the same line out)."""

    def __init__(self) -> None:
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    async def start(self) -> int:
        """Bind on an ephemeral loopback port; return the port."""
        self._server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                writer.write(line)
                await writer.drain()
        except asyncio.CancelledError:
            pass  # server shutdown while a round-trip was parked on read
        except ConnectionError:
            pass  # the peer reset the connection or went away: a normal close
        finally:
            writer.close()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


class EchoBackend(Backend):
    """A backend that round-trips each request over a real TCP connection.

    A connection the peer closes or resets fails only the copy whose round
    trip was on it; the next copy reconnects.  The backend is marked failed
    only through :meth:`set_failed`, as the proxy does on a crash.
    """

    def __init__(self, index: int, clock: Clock, port: int) -> None:
        if isinstance(clock, VirtualClock):
            raise ValueError(
                "EchoBackend does real socket I/O and cannot run under a "
                "VirtualClock; use RealClock (or SimBackend for virtual time)"
            )
        super().__init__(index)
        self._clock = clock
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()
        self._failed = False

    @property
    def failed(self) -> bool:
        return self._failed

    def set_failed(self, failed: bool = True) -> None:
        self._failed = bool(failed)

    async def _connect(self) -> None:
        if self._reader is None:
            self._reader, self._writer = await asyncio.open_connection(
                "127.0.0.1", self._port
            )

    async def handle(self, key: int) -> float:
        if self._failed:
            raise BackendError(f"backend {self.index} is marked failed")
        started = self._clock.now()
        holding = False
        try:
            # One in-flight round-trip per connection; concurrent copies
            # queue here — the socket analogue of the SimBackend FIFO.
            async with self._lock:
                holding = True
                await self._connect()
                assert self._writer is not None and self._reader is not None
                self._writer.write(f"{self.index}:{key}\n".encode("ascii"))
                await self._writer.drain()
                reply = await self._reader.readline()
                if not reply:
                    raise BackendError(f"backend {self.index} connection closed")
        except (asyncio.CancelledError, OSError, BackendError):
            # A round-trip cut short (cancelled mid-flight, reset or closed by
            # the peer) leaves the connection unusable or holding an unread
            # reply: drop it, so the next copy reconnects and starts clean.
            # A copy that fails or is cancelled while still queued on the
            # lock owns nothing: the connection belongs to the lock holder.
            if holding:
                self._reset()
            raise
        elapsed = self._clock.now() - started
        self.completed += 1
        self.consumed_s += elapsed
        return elapsed

    def _reset(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = None
        self._writer = None

    async def close(self) -> None:
        self._reset()
