"""The reconstruction-source protocol (log API redesign).

Reverse State Reconstruction separates two roles that the original
`SkipRegionLog` fused together:

- **producing** a skip-region log: the hook factories installed on the
  functional machine while the gap executes cold;
- **consuming** it: the reverse-scan queries the cache, branch, and RAS
  reconstructors run immediately before (and during) the next cluster.

:class:`ReconstructionSource` names that contract.  Production runs use
the online-compacted :class:`~repro.core.compaction.
CompactedSkipRegionLog`, which performs the reverse-scan dedup *while
logging* so that reconstruction work is O(unique entries) instead of
O(gap length).  The raw tuple-list :class:`~repro.core.logging.
SkipRegionLog` — a faithful rendering of the paper's "log of all
references" — stays as the reference the compacted answers are checked
against: every consumer query is defined so that the compacted answers
are bit-identical to a reverse scan of the raw stream
(docs/rsr-algorithm.md, "Online log compaction").

Any other source — the raw log included — is selected by passing a
zero-argument factory to
:class:`~repro.core.method.ReverseStateReconstruction`.
"""

from __future__ import annotations


def tail_cutoff(count: int, fraction: float) -> int:
    """First record position inside the most recent `fraction` of a log.

    The shared rounding rule for every tail query: of `count` records the
    newest ``int(round(count * fraction))`` are kept, i.e. positions
    ``>= count - keep`` survive.  Raising on out-of-range fractions keeps
    the raw and compacted paths failing identically.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(
            f"reconstruction fraction must be in (0, 1], got {fraction!r}"
        )
    keep = int(round(count * fraction))
    return count - keep


class ReconstructionSource:
    """Abstract skip-region log: producer hooks plus reverse-scan queries.

    Positions: memory and branch records occupy independent program-order
    streams, numbered from 0.  Every tail query takes the same `fraction`
    in (0, 1] and covers the records at positions ``>= tail_cutoff(count,
    fraction)`` of its stream.
    """

    __slots__ = ()

    # -- producer side (hooks installed on FunctionalMachine.run) ----------

    def make_mem_hook(self):
        """``hook(pc, next_pc, address, is_store)`` recording one data
        reference per call."""
        raise NotImplementedError

    def make_ifetch_hook(self):
        """``hook(address)`` recording one instruction-block fetch."""
        raise NotImplementedError

    def make_branch_hook(self):
        """``hook(pc, next_pc, inst, taken)`` recording one control
        transfer, classified by the instruction's flags."""
        raise NotImplementedError

    # -- record accounting ---------------------------------------------------

    def memory_record_count(self) -> int:
        """Memory references observed since the last :meth:`clear`."""
        raise NotImplementedError

    def branch_record_count(self) -> int:
        """Control transfers observed since the last :meth:`clear`."""
        raise NotImplementedError

    def record_count(self) -> int:
        """Total references observed (the WarmupCost ``log_records``
        metric — always the *raw* stream length, independent of how much
        the source actually retains)."""
        return self.memory_record_count() + self.branch_record_count()

    def stored_records(self) -> int:
        """Record slots currently retained in memory (compaction metric)."""
        raise NotImplementedError

    def stored_bytes(self) -> int:
        """Deterministic estimate of the bytes retained (see the byte
        model constants in :mod:`repro.core.logging` /
        :mod:`repro.core.compaction`)."""
        raise NotImplementedError

    # -- consumer side (reverse-scan queries) --------------------------------

    def iter_memory_reverse(self, fraction: float):
        """Yield ``(address, kind)`` memory references newest-first.

        A compacted source may omit references that a reverse scan would
        skip as redundant (older touches of an already-claimed block);
        the surviving sequence must preserve reverse order.
        """
        raise NotImplementedError

    def memory_reverse_arrays(self, fraction: float):
        """Bulk form of :meth:`iter_memory_reverse`.

        Returns ``(addresses, kinds)`` — two parallel integer numpy
        arrays holding exactly the sequence :meth:`iter_memory_reverse`
        would yield, newest first — so the reverse reconstructor can
        filter whole reference columns at once.
        """
        raise NotImplementedError

    def recent_conditional_outcomes(self, fraction: float,
                                    limit: int) -> list:
        """The newest ``<= limit`` conditional-branch outcomes in the
        tail, newest first (0/1 ints) — the GHR reconstruction input."""
        raise NotImplementedError

    def iter_btb_claims_reverse(self, fraction: float):
        """Yield ``(pc, target)`` BTB claims (taken, non-return transfers)
        newest-first; compacted sources may keep only each pc's newest."""
        raise NotImplementedError

    def btb_claims_arrays(self, fraction: float):
        """Bulk form of :meth:`iter_btb_claims_reverse`.

        Returns ``(pcs, targets)`` — parallel int64 numpy arrays holding
        exactly the claims :meth:`iter_btb_claims_reverse` would yield,
        newest first.
        """
        raise NotImplementedError

    def ras_tail_contents(self, fraction: float, capacity: int) -> list:
        """Final RAS contents (top first, at most `capacity`) implied by
        the tail — the reverse push/pop counter algorithm's answer."""
        raise NotImplementedError

    def pht_entry_windows(self, fraction: float, mask: int,
                          history_bits: int, max_history: int):
        """Per-PHT-entry reverse outcome windows, or None.

        When the source maintained an incremental last-touch PHT index
        compatible with the requested geometry (same index mask and GHR
        width, windows at least `max_history` outcomes deep), returns
        ``{entry: (length, bits)}`` where bit i of `bits` is the entry's
        (i+1)-th most recent outcome.  Returns None when the query must
        fall back to :meth:`conditional_history` (raw sources always;
        compacted sources for partial-fraction tails, whose reverse scan
        re-zeroes the GHR at the tail start).
        """
        raise NotImplementedError

    def conditional_history(self, fraction: float,
                            history_bits: int) -> list:
        """``(pc, taken, ghr_before)`` for each conditional in the tail,
        program order, with the GHR zeroed at the tail start — the raw
        on-demand walker's input."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------------

    def clear(self) -> None:
        """Discard the gap's data (paper: "data are kept only for the
        current cluster of execution").  Implementations report their
        telemetry totals here, in bulk, never per record."""
        raise NotImplementedError

    # -- cross-process hand-off ----------------------------------------------

    def handoff(self) -> "ReconstructionSource":
        """Prepare this source for transport into another process.

        The two-phase pipeline logs a gap in the cold-scan process and
        consumes it in a shard worker, so the filled source must pickle.
        The only process-bound piece of the bundled implementations is
        the telemetry session, which is dropped here (sessions are
        per-process; the worker re-attaches its own with
        :meth:`adopt_telemetry`).  Third-party sources holding other
        unpicklable state override this.  Returns ``self``.
        """
        self.telemetry = None
        return self

    def adopt_telemetry(self, telemetry) -> None:
        """Attach the consuming process's telemetry session (post
        hand-off); ``None`` leaves the source silent."""
        self.telemetry = telemetry


def make_source(factory=None, *, context=None, fraction: float = 1.0,
                warm_cache: bool = True, warm_predictor: bool = True,
                table=None, telemetry=None) -> ReconstructionSource:
    """Build a reconstruction source for one bound warm-up method.

    `factory`, when given, is a zero-argument callable returning a ready
    :class:`ReconstructionSource` (the extension point, and how tests
    and benches select the raw :class:`~repro.core.logging.SkipRegionLog`);
    the source adopts `telemetry` like the compacted one.  Otherwise the
    compacted engine is built, sized from `context`: the finest cache
    line granularity, the PHT index mask and GHR width, and the
    counter-inference window depth from `table`.
    """
    if factory is not None:
        source = factory()
        source.adopt_telemetry(telemetry)
        return source

    from .compaction import CompactedSkipRegionLog
    from .counter_table import default_table

    if context is None:
        raise ValueError("a compacted source needs a simulation context "
                         "to size its last-touch indexes")
    line_bytes = 64
    if warm_cache:
        hierarchy = context.hierarchy
        line_bytes = min(
            level.config.line_bytes
            for level in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
        )
    pht_entries = 0
    history_bits = 0
    max_history = 0
    index_pht = False
    store_conditionals = False
    if warm_predictor:
        pht = context.predictor.pht
        pht_entries = pht.entries
        history_bits = pht.history_bits
        max_history = (table if table is not None
                       else default_table()).max_history
        # A full-fraction tail starts where the gap starts, so the online
        # GHR-indexed windows are exact; partial fractions re-zero the
        # GHR at the tail start and must replay the conditional stream.
        index_pht = fraction >= 1.0
        store_conditionals = fraction < 1.0
    return CompactedSkipRegionLog(
        line_bytes=line_bytes,
        pht_entries=pht_entries,
        history_bits=history_bits,
        max_history=max_history,
        index_pht=index_pht,
        store_conditionals=store_conditionals,
        telemetry=telemetry,
    )
