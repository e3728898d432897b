"""Worker-process backend for sharded simulation.

One process per shard, each owning a :class:`ShardDomain`; the parent
coordinates supersteps over ``multiprocessing`` pipes and routes flush
messages between adjacent shards.  All protocol logic lives in the
domain — this module is only plumbing, which is what keeps the inline
and process backends digest-identical by construction.

The plumbing is supervised: every receive polls with a timeout instead
of blocking forever, so a dead worker (exit code and pid in hand), a
hung worker (silent past the heartbeat), and a babbling worker
(malformed reply) each surface as a structured
:class:`~repro.shard.spec.WorkerFailure` that
:func:`repro.resilience.supervisor.run_supervised` can recover from.
Workers optionally carry a :class:`~repro.resilience.faults.ShardFaultDriver`
so every one of those failure modes is deterministically injectable,
and can start from a recovery-point snapshot instead of cycle 0.

Workers start their pid counters a billion apart so packets minted in
different processes never collide when a merged checkpoint stitches
the registries back together.  (Pids are never part of the statistics
digest; uniqueness is all that matters.)
"""

from __future__ import annotations

import multiprocessing
import time
from typing import List, Optional, Tuple

from repro.shard.domain import ShardDomain
from repro.shard.spec import ShardError, SyntheticSpec, WorkerFailure

#: Pid-space stride between workers; far beyond any packet count a
#: single run can mint.
_PID_STRIDE = 1_000_000_000

#: Seconds between liveness checks while waiting on a worker reply.
_POLL_TICK = 0.05


def _worker_main(conn, spec: SyntheticSpec, index: int, count: int,
                 observers: str, faults=None, incarnation: int = 0,
                 restore=None) -> None:
    try:
        from repro.noc.packet import set_next_pid
        from repro.resilience.faults import ShardFaultDriver

        # Stride first; a recovery restore overrides the counter with
        # the snapshotted value (which already includes the stride base).
        set_next_pid(index * _PID_STRIDE)
        driver = ShardFaultDriver(faults, index, incarnation)
        dom = ShardDomain(spec, index, count, observers=observers,
                          restore_from=restore)
        while True:
            message = conn.recv()
            command = message[0]
            if command == "round":
                action = driver.poll(dom.net.cycle)
                if action == "kill":
                    ShardFaultDriver.execute_kill()
                elif action == "hang":
                    ShardFaultDriver.execute_hang()
                elif action == "garbage":
                    conn.send(("garbage-injected", 0xDEAD))
                    continue
                _, inbox, hard_stop = message
                for side, flush in inbox:
                    dom.receive_flush(side, flush)
                dom.advance(hard_stop=hard_stop)
                conn.send(("state", dom.net.cycle,
                           dom.net.stats.in_flight,
                           dom.make_flush("prev"),
                           dom.make_flush("next")))
            elif command == "barrier":
                from repro.checkpoint.snapshot import snapshot_network

                dom.barrier_drain(message[1])
                conn.send(("snapshot",
                           snapshot_network(dom.net, dom.traffic),
                           {"entered": dom.entered,
                            "exited": dom.exited}))
            elif command == "stats":
                conn.send(("stats", dom.net.stats.state_dict(),
                           dom.net.cycles_skipped, dom.traffic.offered,
                           dom.net.cycle))
            elif command == "stop":
                return
            else:
                raise ShardError(f"unknown command {command!r}")
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
    """Parent-side coordinator over one pipe per shard worker.

    ``heartbeat`` bounds how long any single reply may take before the
    worker is declared hung; ``faults`` ships a
    :class:`~repro.resilience.faults.ProcessFaultPlan` into the workers;
    ``incarnation``/``restore`` let a respawned pool resume from a
    recovery-point barrier (``restore[i]`` is shard ``i``'s
    ``(snapshot, aux)`` pair from :meth:`barrier`).
    """

    def __init__(self, spec: SyntheticSpec, count: int, observers: str,
                 faults=None, heartbeat: Optional[float] = None,
                 incarnation: int = 0, restore=None):
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        self.count = count
        self.heartbeat = heartbeat
        self.conns: list = []
        self.procs: list = []
        self.pending: List[list] = [[] for _ in range(count)]
        self.final_clocks = [0] * count
        for index in range(count):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child, spec, index, count, observers, faults,
                      incarnation,
                      None if restore is None else restore[index]),
                daemon=True,
            )
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)

    # -- supervised receive ------------------------------------------------

    def _died(self, shard: int) -> WorkerFailure:
        proc = self.procs[shard]
        # A broken pipe/EOF can surface before the child is reaped, in
        # which case exitcode is still None; a brief join fills it in.
        if proc.exitcode is None:
            proc.join(timeout=1.0)
        return WorkerFailure(shard, "died", exitcode=proc.exitcode,
                             pid=proc.pid)

    def _recv(self, shard: int, expect: str):
        """Receive one reply from ``shard``, diagnosing every way the
        worker can fail to produce it."""
        conn = self.conns[shard]
        proc = self.procs[shard]
        deadline = (None if self.heartbeat is None
                    else time.monotonic() + self.heartbeat)
        while not conn.poll(_POLL_TICK):
            if not proc.is_alive() and not conn.poll(0):
                raise self._died(shard)
            if deadline is not None and time.monotonic() > deadline:
                raise WorkerFailure(
                    shard, "hung", pid=proc.pid,
                    detail=f"no reply within {self.heartbeat}s "
                           f"heartbeat timeout",
                )
        try:
            reply = conn.recv()
        except (EOFError, OSError):
            raise self._died(shard) from None
        if not isinstance(reply, tuple) or not reply:
            raise WorkerFailure(shard, "garbage", pid=proc.pid,
                                detail=repr(reply)[:200])
        if reply[0] == "error":
            raise WorkerFailure(shard, "crashed", pid=proc.pid,
                                detail=str(reply[1]))
        if reply[0] != expect:
            raise WorkerFailure(
                shard, "garbage", pid=proc.pid,
                detail=f"expected {expect!r} reply, "
                       f"got {repr(reply)[:200]}",
            )
        return reply

    def _send(self, shard: int, message: tuple) -> None:
        try:
            self.conns[shard].send(message)
        except (BrokenPipeError, OSError):
            raise self._died(shard) from None

    # -- the three-call backend surface ------------------------------------

    def round(self, hard_stop: Optional[int]
              ) -> Tuple[List[int], List[int], int]:
        for i in range(self.count):
            self._send(i, ("round", self.pending[i], hard_stop))
            self.pending[i] = []
        clocks: List[int] = []
        flights: List[int] = []
        produced = 0
        for i in range(self.count):
            _, clock, flight, out_prev, out_next = self._recv(i, "state")
            clocks.append(clock)
            flights.append(flight)
            if out_prev is not None:
                produced += 1
                self.pending[i - 1].append(("next", out_prev))
            if out_next is not None:
                produced += 1
                self.pending[i + 1].append(("prev", out_next))
        self.final_clocks = clocks
        return clocks, flights, produced

    def barrier(self, barrier: int) -> List[Tuple[dict, dict]]:
        """Collect each shard's raw ``(snapshot, aux)`` recovery pair."""
        for i in range(self.count):
            self._send(i, ("barrier", barrier))
        return [tuple(self._recv(i, "snapshot")[1:])
                for i in range(self.count)]

    def stats(self) -> List[Tuple[dict, int, int]]:
        for i in range(self.count):
            self._send(i, ("stats",))
        out = []
        for i in range(self.count):
            _, state, skipped, offered, clock = self._recv(i, "stats")
            out.append((state, skipped, offered))
            self.final_clocks[i] = clock
        return out

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
        """Hard-stop every worker (recovery: no goodbye, no waiting)."""
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
