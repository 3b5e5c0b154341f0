"""Test-only oracles for the cold-scan engine.

Production runs one engine per concern: the span interpreter
(:meth:`FunctionalMachine.run`), the numpy winner-set reverse cache scan
(:meth:`ReverseCacheReconstructor._reverse_scan`) and the first-claim
BTB rebuild (:meth:`ReverseBranchReconstructor._rebuild_btb`).  The
literal forms they must equal live here: a per-step interpreter and the
two per-reference reverse scans of paper §3.  The other oracle, the
paper's raw skip log, is :class:`repro.core.logging.SkipRegionLog`;
select it with ``ReverseStateReconstruction(source=SkipRegionLog)``.

:func:`oracle_core` patches all three oracles in for a block.  The
patch replaces class attributes, so process-pool workers forked inside
the block (cluster shards) run the oracles too.
"""

from __future__ import annotations

import contextlib

from repro.core.branch_reconstruct import ReverseBranchReconstructor
from repro.core.cache_reconstruct import ReverseCacheReconstructor
from repro.core.logging import REF_INSTRUCTION, REF_STORE
from repro.functional import FunctionalMachine


def run_scalar(machine, count, mem_hook=None, branch_hook=None,
               ifetch_hook=None, ifetch_block_bytes=64):
    """:meth:`FunctionalMachine.run`, one :meth:`~FunctionalMachine.step`
    at a time with the hooks fired inline."""
    executed = 0
    program = machine.program
    instruction_bytes = program.instruction_bytes
    code_base = program.code_base
    per_block = max(1, ifetch_block_bytes // instruction_bytes)
    stored_per_block, stored_block = machine._last_fetch
    last_fetch_block = stored_block if stored_per_block == per_block else -1
    pc_before = -1

    while executed < count and not machine.halted:
        pc_before = machine.pc
        if ifetch_hook is not None:
            fetch_block = pc_before // per_block
            if fetch_block != last_fetch_block:
                last_fetch_block = fetch_block
                ifetch_hook(code_base + pc_before * instruction_bytes)
        result = machine.step()
        executed += 1
        if result.halted:
            break
        inst = program.instructions[result.index]
        if result.mem_address >= 0 and mem_hook is not None:
            mem_hook(result.index, result.next_index, result.mem_address,
                     inst.is_store)
        if branch_hook is not None and inst.is_control:
            branch_hook(result.index, result.next_index, inst, result.taken)
    if executed:
        if ifetch_hook is not None:
            # The last executed instruction's block is, by induction,
            # the last one reported; remember it for the next phase.
            machine._last_fetch = (per_block, pc_before // per_block)
        else:
            # Blocks were fetched unobserved; continuity is broken.
            machine.invalidate_fetch_block()
    return executed


def scalar_cache_scan(reconstructor, source, fraction):
    """The §3.1 reverse scan, one logged reference at a time."""
    hierarchy = reconstructor.hierarchy
    scanned = applied = 0
    for address, kind in source.iter_memory_reverse(fraction):
        scanned += 1
        if kind == REF_INSTRUCTION:
            touched = hierarchy.l1i.reconstruct_reference(address, False)
            touched |= hierarchy.l2.reconstruct_reference(address, False)
        else:
            is_store = kind == REF_STORE
            touched = hierarchy.l1d.reconstruct_reference(address, is_store)
            touched |= hierarchy.l2.reconstruct_reference(address, is_store)
        if touched:
            applied += 1
    return scanned, applied


def scalar_btb_rebuild(reconstructor, source, fraction):
    """The §3.2 BTB pass: every claim, newest first, through the BTB."""
    btb = reconstructor.predictor.btb
    claims = 0
    for pc, target in source.iter_btb_claims_reverse(fraction):
        btb.reconstruct(pc, target)
        claims += 1
    return claims


_PATCHES = (
    (FunctionalMachine, "run", run_scalar),
    (ReverseCacheReconstructor, "_reverse_scan", scalar_cache_scan),
    (ReverseBranchReconstructor, "_rebuild_btb", scalar_btb_rebuild),
)


@contextlib.contextmanager
def oracle_core():
    """Run the per-step interpreter and per-reference scans in the block."""
    saved = [(owner, name, owner.__dict__[name])
             for owner, name, _ in _PATCHES]
    try:
        for owner, name, oracle in _PATCHES:
            setattr(owner, name, oracle)
        yield
    finally:
        for owner, name, production in saved:
            setattr(owner, name, production)
