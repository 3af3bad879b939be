"""The served workloads' client side: child daemon + closed-loop driver.

The daemon runs in one child process (``daemon_launcher.py``).  The
driver is a single thread multiplexing its connections: each connection
has one request outstanding and sends the next only when the reply is
in — a closed loop, the model of analysis programs that wait for each
answer.  One thread (not one per connection) keeps the client's own
interpreter lock out of the latencies.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import struct
import subprocess
import sys
from pathlib import Path

from repro.errors import ServeError
from repro.serve import protocol

_HEADER = struct.Struct(">I")
_LAUNCHER = Path(__file__).resolve().parent / "daemon_launcher.py"
#: A reply slower than this is a failed run, not a slow request.
REPLY_TIMEOUT_S = 120.0
START_TIMEOUT_S = 60.0
POLL_S = 0.02


class DaemonProcess:
    """The child daemon: start, find its port, read its RSS, stop it."""

    def __init__(
        self,
        corpus: Path,
        workdir: Path,
        buffer_bytes: int,
        workers: int,
        mutable: bool,
        clock,
    ) -> None:
        command = [
            sys.executable,
            str(_LAUNCHER),
            "--corpus",
            str(corpus),
            "--workdir",
            str(workdir),
            "--buffer-bytes",
            str(buffer_bytes),
            "--workers",
            str(workers),
        ]
        if mutable:
            command.append("--mutable")
        self._process = subprocess.Popen(command, stdout=subprocess.PIPE)
        try:
            self.port = self._read_port(clock)
        except BaseException:
            self.stop(kill=True)
            raise

    def _read_port(self, clock) -> int:
        """Wait for the child's port, reading ``clock`` every :data:`POLL_S`.

        The wait is part of set-up time; reading the clock keeps its speed
        samples coming while the child starts.
        """
        stdout = self._process.stdout
        started = clock()
        ready = False
        while not ready and self._process.poll() is None:
            ready = bool(select.select([stdout], [], [], POLL_S)[0])
            if clock() - started > START_TIMEOUT_S:
                break
        line = stdout.readline() if ready else b""
        if not line.strip():
            raise ServeError(
                "daemon child did not report a port "
                f"(exit status {self._process.poll()})"
            )
        return int(line)

    def peak_rss_mb(self) -> float:
        """The child's high-water resident set, from ``/proc``."""
        with open(f"/proc/{self._process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServeError("no VmHWM line for the daemon child")

    def stop(self, kill: bool = False) -> None:
        """End the child and wait for it; ``kill`` is the crash test's SIGKILL."""
        if self._process.poll() is None:
            os.kill(self._process.pid, signal.SIGKILL if kill else signal.SIGTERM)
        self._process.wait()
        self._process.stdout.close()


class Connection:
    """One client connection with at most one request in flight."""

    def __init__(self, port: int, clock) -> None:
        self.clock = clock
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()
        self.request: dict | None = None
        self.sent_at = 0.0

    def send(self, request: dict) -> None:
        frame = protocol.encode_frame(request)
        self.request = request
        self.sent_at = self.clock()
        self.sock.sendall(frame)

    def receive(self) -> bytes | None:
        """Read what is there; the reply's payload once it is complete."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ServeError("daemon closed the connection mid-request")
        self._buffer += chunk
        if len(self._buffer) < _HEADER.size:
            return None
        (length,) = _HEADER.unpack_from(self._buffer)
        if len(self._buffer) < _HEADER.size + length:
            return None
        payload = bytes(self._buffer[_HEADER.size : _HEADER.size + length])
        del self._buffer[: _HEADER.size + length]
        return payload

    def call(self, request: dict) -> dict:
        """One blocking round trip, with nothing else in flight (stats, ping)."""
        protocol.send_frame(self.sock, request)
        reply = protocol.recv_frame(self.sock)
        if reply is None:
            raise ServeError("daemon closed the connection mid-request")
        return reply

    def close(self) -> None:
        self.sock.close()


def drive(connections, next_request, on_reply) -> None:
    """Run every connection closed-loop until its script ends.

    ``next_request(index)`` returns the connection's next request or
    None when it has no more; ``on_reply(index, request, reply, seconds,
    payload)`` gets each reply (decoded, and as received) with its
    latency, measured from just before the send to the arrival of the
    reply's last byte.

    The wait for replies wakes every :data:`POLL_S` to read the clock, so
    that its speed samples keep coming through a long wait (a compaction).
    It does not spin: when the hypervisor leaves the machine one core,
    a spinning client takes half of it from the daemon and every latency
    quintuples.
    """
    waiting = {}
    for index, connection in enumerate(connections):
        request = next_request(index)
        if request is not None:
            waiting[connection.sock] = index
            connection.send(request)
    clock = connections[0].clock
    progress = clock()
    while waiting:
        ready, _, _ = select.select(list(waiting), [], [], POLL_S)
        if not ready:
            if clock() - progress > REPLY_TIMEOUT_S:
                raise ServeError(f"no reply within {REPLY_TIMEOUT_S:.0f} s")
            continue
        for sock in ready:
            index = waiting[sock]
            connection = connections[index]
            payload = connection.receive()
            if payload is None:
                continue
            seconds = clock() - connection.sent_at
            reply = protocol.decode_payload(payload)
            on_reply(index, connection.request, reply, seconds, payload)
            request = next_request(index)
            if request is None:
                del waiting[sock]
            else:
                connection.send(request)
        progress = clock()
