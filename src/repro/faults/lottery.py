"""The deterministic per-message fault lottery, shared by transports.

Whether ranks are threads sharing one :class:`~repro.faults.FaultyWorld`
or forked processes with private fault state, a given ``(seed, src,
dst, tag, seq)`` message must draw exactly the same faults -- that is
what makes seeded schedules reproducible and lets the cross-transport
test matrix demand identical fault counts from both transports.  This
module owns that draw:

- :func:`message_rng` derives the per-message generator;
- :func:`draw_message_faults` consumes a **fixed stream of draws**
  (one uniform per schedule clause in declaration order, plus one for
  the delay amount when a delay clause matches and hits) so the
  outcome depends only on the key, never on which clause matched
  first or on which side of a process boundary evaluates it.  The
  process transport leans on the latter: the sender draws to decide
  delay/duplicate, the receiver re-draws the same stream to decide
  reorder holdback, and both see one coherent verdict.
- :class:`MessageFaultOps` carries the rank-level machinery (crash /
  slowdown op counting, ``cat="fault"`` trace instants) identically
  for the thread and process fault worlds.
"""

from __future__ import annotations

import time

import numpy as np

from ..simmpi.errors import SimulatedRankCrash


def message_rng(seed: int, src: int, dst: int, tag: int,
                seq: int) -> np.random.Generator:
    """The deterministic generator for one message's fault draws."""
    ss = np.random.SeedSequence([seed, src, dst, abs(tag), seq])
    return np.random.default_rng(ss)


def draw_message_faults(schedule, seed: int, src: int, dst: int, tag: int,
                        seq: int) -> tuple[float, bool, bool]:
    """Draw this message's fate: ``(delay_seconds, reorder, duplicate)``.

    One draw per message-fault clause in declaration order, whatever
    the outcome, so the lottery consumes a fixed stream per message.
    """
    rng = message_rng(seed, src, dst, tag, seq)
    delay_s = 0.0
    do_reorder = do_duplicate = False
    for spec in schedule.message_specs:
        hit = rng.random() < spec.prob
        if not spec.matches(src, dst, tag) or not hit:
            continue
        if spec.kind == "delay":
            delay_s += spec.max_delay * float(rng.random())
        elif spec.kind == "reorder":
            do_reorder = True
        elif spec.kind == "duplicate":
            do_duplicate = True
    return delay_s, do_reorder, do_duplicate


class MessageFaultOps:
    """Rank-level fault machinery shared by the fault worlds.

    Expects the host class to provide ``schedule``, ``seed``, ``stats``,
    ``_fault_lock``, ``_op_count``, ``tracer``, ``rank_failed`` and
    ``mark_rank_failed``.
    """

    def _fault_instant(self, kind: str, rank: int, **attrs) -> None:
        """Emit a cat="fault" instant without advancing the rank's
        logical clock (``peek``): injected faults must never shift the
        logical timeline, so maskable schedules stay trace-transparent."""
        tr = self.tracer
        if tr.enabled:
            tr.instant(f"fault_{kind}", rank=rank, ts=tr.clock.peek(rank),
                       cat="fault", **attrs)
        # Mirror the newest fault onto the heartbeat board (when health
        # telemetry is attached): the flight ring may rotate the instant
        # out long before a post-mortem, but heartbeats.json keeps the
        # last fault seen per rank.
        board = getattr(self, "health", None)
        if board is not None:
            board.note_fault(rank, kind)

    def _comm_op(self, rank: int) -> None:
        """Deterministic per-rank op counter driving crash/slowdown.

        Called from push, blocking pop and exchange -- operations whose
        per-rank ordinal is a property of the program, not of thread
        timing -- so crashes land at the same program point every run.
        """
        with self._fault_lock:
            self._op_count[rank] += 1
            n = self._op_count[rank]
        crash = self.schedule.crash_for(rank)
        if crash is not None and n >= crash.after and not self.rank_failed(rank):
            self.stats.record_crash(rank)
            self._fault_instant("crash", rank, op=n)
            self.mark_rank_failed(rank)
            raise SimulatedRankCrash(rank, n)
        slow = self.schedule.slowdown_for(rank)
        if slow is not None and slow.max_delay > 0:
            self.stats.record("slowdown", 0, slow.max_delay)
            self._fault_instant("slowdown", rank, seconds=slow.max_delay)
            time.sleep(slow.max_delay)
