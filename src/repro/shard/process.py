"""Worker-process backend for sharded simulation.

One process per shard, each owning a :class:`ShardDomain`, and no
rounds: the parent is a switch.  A worker blocks on its pipe, takes in
everything queued there, advances as far as its knowledge of the
neighbors allows — each flush going up the pipe the moment the domain
emits it — and, right before it blocks again, reports ``("idle",
messages consumed, clock, in_flight)``.  The parent waits on every pipe
and process sentinel at once and forwards a flush to the neighbor as it
arrives.  A report whose consumed count equals what the parent has sent
that worker is current (one sent before a forwarded flush was taken in
is recognisably stale); when every worker's is, nothing is in transit —
all the shared driver (:func:`repro.shard.engine.drive`) needs to see
the network drained or the protocol stalled.  All protocol logic lives
in the domain; this module is only plumbing, which keeps the inline and
process backends digest-identical by construction.

A worker that fails is diagnosed, not recovered: a dead worker (its
sentinel fires; exit code and pid in hand), a hung worker (owing a
message, silent past :data:`HEARTBEAT_S`), a babbling worker (a
message kind the protocol does not have) and a crashed worker (it
reports its own exception) each surface as a structured
:class:`~repro.shard.spec.WorkerFailure`, which
:func:`repro.shard.engine.run_sharded` raises after killing the pool.

Workers start their pid counters a billion apart so packets minted in
different processes never collide in a stripe's registry of packets
that crossed in from both neighbors.  (Pids are never part of the
statistics digest; uniqueness is all that matters.)
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait
from typing import Iterator, List, Optional, Tuple

from repro.shard.domain import ShardDomain, flush_target
from repro.shard.spec import ShardError, SyntheticSpec, WorkerFailure

#: Pid-space stride between workers; far beyond any packet count a
#: single run can mint.
_PID_STRIDE = 1_000_000_000

#: Seconds a worker that owes a message may stay silent before it is
#: declared hung.
HEARTBEAT_S = 60.0


def _worker_main(conn, spec: SyntheticSpec, index: int, count: int) -> None:
    try:
        from repro.noc.packet import set_next_pid

        set_next_pid(index * _PID_STRIDE)
        dom = ShardDomain(spec, index, count)

        def emit(side: str, flush: dict) -> None:
            conn.send(("flush", side, flush))

        consumed = 0        # run / flush messages taken in so far
        fresh = False       # ... any of them since the last advance
        while True:
            if fresh and not conn.poll():
                # Everything queued is in: one advance answers it all.
                fresh = False
                dom.advance(emit)
                conn.send(("idle", consumed, dom.net.cycle,
                           dom.net.stats.in_flight))
                continue
            message = conn.recv()   # blocks (never spins) when idle
            command = message[0]
            if command == "flush":
                dom.receive_flush(message[1], message[2])
            elif command == "stats":
                conn.send(("stats", dom.final_state()))
                continue
            elif command == "stop":
                return
            elif command != "run":
                raise ShardError(f"unknown command {command!r}")
            consumed += 1
            fresh = True
    except BaseException as exc:  # incl. SystemExit/KeyboardInterrupt:
        # always attempt the structured error report so the parent sees
        # a diagnosis instead of a bare EOFError.
        import traceback

        try:
            conn.send(("error", f"{exc!r}\n{traceback.format_exc()}"))
        except Exception:
            pass
        if not isinstance(exc, Exception):
            raise
    finally:
        try:
            conn.close()
        except Exception:
            pass


class ProcessPool:
    """Parent-side switch over one pipe per shard worker."""

    def __init__(self, spec: SyntheticSpec, count: int):
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        self.count = count
        self.conns: list = []
        self.procs: list = []
        #: Latest reported clock and in-flight count per shard.
        self.clocks = [0] * count
        self.flights = [0] * count
        #: ``run`` / ``flush`` messages sent to each worker; its idle
        #: report is current when it has consumed this many.
        self.sent = [0] * count
        #: Whether each worker owes nothing, and when one that does
        #: was last heard from (or handed work while it owed nothing).
        self.idle = [True] * count
        self.heard = [0.0] * count
        for index in range(count):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child, spec, index, count),
                daemon=True,
            )
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)
        #: What the switch waits on, each mapped to ``(shard, is_pipe)``.
        self._sources = {conn: (i, True) for i, conn in enumerate(self.conns)}
        self._sources.update((proc.sentinel, (i, False))
                             for i, proc in enumerate(self.procs))

    # -- the diagnosing switch ---------------------------------------------

    def _died(self, shard: int) -> WorkerFailure:
        proc = self.procs[shard]
        # A broken pipe/EOF can surface before the child is reaped, in
        # which case exitcode is still None; a brief join fills it in.
        if proc.exitcode is None:
            proc.join(timeout=1.0)
        return WorkerFailure(shard, "died", exitcode=proc.exitcode,
                             pid=proc.pid)

    def _send(self, shard: int, message: tuple) -> None:
        if self.idle[shard]:
            self.idle[shard] = False
            self.heard[shard] = time.monotonic()
        try:
            self.conns[shard].send(message)
        except (BrokenPipeError, OSError):
            raise self._died(shard) from None

    def _messages(self, accept: tuple) -> Iterator[Tuple[int, tuple]]:
        """``(shard, message)`` as the workers speak, diagnosing every
        way one can fail to: it exits (its sentinel fires with the pipe
        drained), it owes a message and stays silent past
        :data:`HEARTBEAT_S`, it reports its own crash, or it sends
        anything but the ``accept`` kinds."""
        conns = self.conns
        sources = self._sources
        while True:
            timeout = None
            suspect = min((i for i in range(self.count) if not self.idle[i]),
                          key=self.heard.__getitem__, default=None)
            if suspect is not None:
                timeout = max(0.0, self.heard[suspect] + HEARTBEAT_S
                              - time.monotonic())
            ready = wait(sources, timeout)
            if not ready:
                raise WorkerFailure(
                    suspect, "hung", pid=self.procs[suspect].pid,
                    detail=f"no message within the {HEARTBEAT_S}s "
                           f"heartbeat",
                )
            now = time.monotonic()
            for shard, is_pipe in map(sources.__getitem__, ready):
                if not is_pipe:
                    continue
                try:
                    message = conns[shard].recv()
                except (EOFError, OSError):
                    raise self._died(shard) from None
                self.heard[shard] = now
                kind = (message[0] if isinstance(message, tuple) and message
                        else None)
                if kind == "error":
                    raise WorkerFailure(
                        shard, "crashed", pid=self.procs[shard].pid,
                        detail=str(message[1]))
                if kind not in accept:
                    raise WorkerFailure(
                        shard, "garbage", pid=self.procs[shard].pid,
                        detail=f"expected one of {accept}, "
                               f"got {repr(message)[:200]}")
                yield shard, message
            for shard, is_pipe in map(sources.__getitem__, ready):
                # A worker's last words (its error report) come first.
                if not is_pipe and not conns[shard].poll():
                    raise self._died(shard)

    # -- the backend surface -----------------------------------------------

    def run(self, done) -> None:
        """Let the workers go and switch their flushes until ``done``
        accepts the reported state."""
        for shard in range(self.count):
            self.sent[shard] += 1
            self._send(shard, ("run",))
        for shard, message in self._messages(("flush", "idle")):
            if message[0] == "flush":
                target, arrives_from = flush_target(shard, message[1])
                self.sent[target] += 1
                self._send(target, ("flush", arrives_from, message[2]))
            else:
                _, consumed, clock, flight = message
                self.clocks[shard] = clock
                self.flights[shard] = flight
                self.idle[shard] = consumed == self.sent[shard]
                if done(self.clocks, self.flights, all(self.idle)):
                    return

    def stats(self) -> List[dict]:
        """Each worker's final state.  Flushes and idle reports still on
        their way up are dropped: the run they belonged to is over."""
        for shard in range(self.count):
            self._send(shard, ("stats",))
        states: List[Optional[dict]] = [None] * self.count
        for shard, message in self._messages(("flush", "idle", "stats")):
            if message[0] == "stats":
                states[shard] = message[1]
                self.idle[shard] = True
                if None not in states:
                    return states

    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("stop",))
                conn.close()
            except Exception:
                pass
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()

    def kill(self) -> None:
        """Hard-stop every worker after a failure: no goodbye, no
        waiting."""
        for proc in self.procs:
            try:
                if proc.is_alive():
                    proc.terminate()
            except Exception:
                pass
        for proc in self.procs:
            try:
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.kill()
                    proc.join(timeout=5)
            except Exception:
                pass
        for conn in self.conns:
            try:
                conn.close()
            except Exception:
                pass
