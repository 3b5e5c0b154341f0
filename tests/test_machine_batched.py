"""Differential fuzz: the span interpreter against the per-step oracle.

The production interpreter (`FunctionalMachine.run`) must be
architecturally indistinguishable from the `step()` loop kept as
`tests.oracles.run_scalar`: same registers, pc, memory image, retired
count, halt flag, and the same observation-hook call sequence — for
every workload, chunk size, and hook configuration.  These tests drive
both engines side by side over randomized programs
from all nine paper workload generators plus directed corner cases
(forced `step()` fallback via poisoned predecode columns, signed DIV
semantics, halted-machine checkpoints, tail-fraction validation).
"""

from __future__ import annotations

import pickle
import random
from functools import partial

import pytest

from repro.core.source import tail_cutoff
from repro.functional import FunctionalMachine, to_signed
from repro.functional.checkpoint import FunctionalCheckpoint
from repro.functional.predecode import predecode_program
from repro.isa import Instruction, Opcode, Program
from repro.warmup import register_method, unregister_method
from repro.workloads import PAPER_WORKLOADS, build_workload
from tests.oracles import oracle_core, run_scalar

_MASK64 = (1 << 64) - 1
INT64_MIN = -(1 << 63)


class HookTrace:
    """Records every observation-hook call, in order, for comparison."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def mem_hook(self, pc, next_pc, address, is_store):
        self.events.append(("mem", pc, next_pc, address, bool(is_store)))

    def branch_hook(self, pc, next_pc, inst, taken):
        self.events.append(("br", pc, next_pc, inst.opcode, bool(taken)))

    def ifetch_hook(self, address):
        self.events.append(("ifetch", address))


def machine_state(machine: FunctionalMachine) -> tuple:
    return (
        machine.pc,
        machine.halted,
        machine.instructions_retired,
        tuple(machine.registers),
        dict(machine.memory._words),
    )


def run_differential(program, memory, *, seed: int, total: int) -> None:
    """Drive scalar and batched machines through identical chunked runs.

    Chunk sizes and hook configurations vary pseudo-randomly (including
    hookless chunks, which exercise the fetch-block continuity
    bookkeeping across hooked/hookless transitions); after every chunk
    the full architectural state must match, and at the end the hook
    traces must be identical element for element.
    """
    scalar = FunctionalMachine(program, memory.copy())
    batched = FunctionalMachine(program, memory.copy())
    scalar_trace, batched_trace = HookTrace(), HookTrace()
    rng = random.Random(seed)
    remaining = total
    while remaining > 0 and not scalar.halted:
        chunk = min(rng.choice((1, 3, 17, 257, 1024, 4096)), remaining)
        hooked = rng.random() < 0.7
        counts = []
        for machine, trace, run in (
                (scalar, scalar_trace, partial(run_scalar, scalar)),
                (batched, batched_trace, batched.run)):
            if hooked:
                counts.append(run(
                    chunk,
                    mem_hook=trace.mem_hook,
                    branch_hook=trace.branch_hook,
                    ifetch_hook=trace.ifetch_hook,
                    ifetch_block_bytes=64,
                ))
            else:
                counts.append(run(chunk))
        assert counts[0] == counts[1], "retired counts diverged"
        assert machine_state(scalar) == machine_state(batched), (
            f"architectural state diverged after a {chunk}-instruction "
            f"{'hooked' if hooked else 'hookless'} chunk"
        )
        remaining -= chunk
    assert scalar_trace.events == batched_trace.events, (
        "observation-hook call sequences diverged"
    )


class TestWorkloadFuzz:
    @pytest.mark.parametrize("name", PAPER_WORKLOADS)
    def test_batched_matches_scalar(self, name):
        workload = build_workload(name, mem_scale=1, seed=17)
        run_differential(workload.program, workload.memory,
                         seed=hash(name) & 0xFFFF, total=6000)

    @pytest.mark.parametrize("name", ("gcc", "mcf"))
    def test_single_step_chunks(self, name):
        """chunk=1 forces the span engine through every boundary."""
        workload = build_workload(name, mem_scale=1, seed=3)
        scalar = FunctionalMachine(workload.program, workload.memory.copy())
        batched = FunctionalMachine(workload.program, workload.memory.copy())
        for _ in range(700):
            run_scalar(scalar, 1)
            batched.run(1)
            assert machine_state(scalar) == machine_state(batched)


class TestForcedFallback:
    def test_poisoned_predecode_falls_back_to_step(self):
        """An immediate too wide for the int64 columns must poison its
        slot (step() fallback) without perturbing neighbouring spans."""
        huge = 1 << 70
        instructions = [
            Instruction(Opcode.LI, rd=1, imm=5),
            Instruction(Opcode.LI, rd=2, imm=huge),
            Instruction(Opcode.ADDI, rd=3, rs1=1, imm=7),
            Instruction(Opcode.ADD, rd=4, rs1=3, rs2=1),
            Instruction(Opcode.HALT),
        ]
        program = Program(instructions, name="poisoned")
        decoded = predecode_program(program)
        assert decoded.boundary[1], "oversized imm must become a boundary"
        assert decoded.ops[1] == -1, "oversized imm must poison its opcode"
        from repro.functional import Memory

        run_differential(program, Memory(), seed=1, total=10)
        machine = FunctionalMachine(program, Memory())
        machine.run(10)
        assert machine.halted
        assert machine.registers[2] == huge & _MASK64
        assert machine.registers[3] == 12
        assert machine.registers[4] == 17

    def test_oracle_core_selects_engine(self):
        production = FunctionalMachine.run
        with oracle_core():
            assert FunctionalMachine.run is run_scalar
            machine = build_workload("gcc", mem_scale=1, seed=5).make_machine()
            assert machine.run(50) == 50
        assert FunctionalMachine.run is production


def _div_result(dividend: int, divisor: int, batched: bool) -> int:
    program = Program([
        Instruction(Opcode.DIV, rd=3, rs1=1, rs2=2),
        Instruction(Opcode.HALT),
    ], name="div")
    from repro.functional import Memory

    machine = FunctionalMachine(program, Memory())
    machine.registers[1] = dividend & _MASK64
    machine.registers[2] = divisor & _MASK64
    if batched:
        machine.run(4)
    else:
        run_scalar(machine, 4)
    return to_signed(machine.registers[3])


class TestSignedDivision:
    @pytest.mark.parametrize("batched", (False, True))
    @pytest.mark.parametrize("dividend,divisor,expected", [
        (-7, 2, -3),     # truncates toward zero, not floor (-4)
        (7, -2, -3),
        (-7, -2, 3),
        (7, 2, 3),
        (1, -1, -1),
        (INT64_MIN + 1, 1, INT64_MIN + 1),
        (0, -5, 0),
        (5, 0, 0),       # paper-kernel convention: divide-by-zero yields 0
        (-5, 0, 0),
    ])
    def test_truncating_signed_division(self, dividend, divisor, expected,
                                        batched):
        assert _div_result(dividend, divisor, batched) == expected

    @pytest.mark.parametrize("batched", (False, True))
    def test_overflow_wraps_like_hardware(self, batched):
        # INT64_MIN / -1 overflows a 64-bit signed result; the two's
        # complement wraparound keeps the register at INT64_MIN.
        assert _div_result(INT64_MIN, -1, batched) == INT64_MIN


class TestHaltedCheckpoint:
    def _halted_machine(self) -> FunctionalMachine:
        program = Program([
            Instruction(Opcode.LI, rd=1, imm=9),
            Instruction(Opcode.HALT),
        ], name="halts")
        from repro.functional import Memory

        machine = FunctionalMachine(program, Memory())
        machine.run(10)
        assert machine.halted
        return machine

    def test_in_process_checkpoint_restores_halted(self):
        machine = self._halted_machine()
        checkpoint = machine.checkpoint()
        assert checkpoint.halted is True
        machine.halted = False  # simulate reuse of the same machine
        machine.restore(checkpoint)
        assert machine.halted is True
        # A restored halted machine must not resume past program end.
        assert machine.run(5) == 0
        assert machine.step().halted

    def test_functional_checkpoint_pickle_round_trip(self):
        machine = self._halted_machine()
        checkpoint = FunctionalCheckpoint.capture(machine)
        clone = pickle.loads(pickle.dumps(checkpoint))
        target = FunctionalMachine(machine.program, machine.memory.copy())
        assert target.halted is False
        clone.restore(target)
        assert target.halted is True
        assert target.run(5) == 0
        assert target.registers[1] == 9


class TestTailFractionValidation:
    @pytest.mark.parametrize("fraction", (0.0, -0.25, 1.0 + 1e-9, 2.0))
    def test_out_of_domain_fraction_raises(self, fraction):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            tail_cutoff(100, fraction)

    def test_message_names_the_offending_value(self):
        with pytest.raises(ValueError, match="got 2.5"):
            tail_cutoff(10, 2.5)

    def test_boundaries_accepted(self):
        assert tail_cutoff(100, 1.0) == 0
        assert tail_cutoff(100, 0.25) == 75
        assert tail_cutoff(0, 0.5) == 0

    def test_log_tail_queries_validate(self):
        from repro.core.compaction import CompactedSkipRegionLog
        from repro.core.logging import SkipRegionLog

        raw = SkipRegionLog()
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            raw.memory_tail(0.0)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            list(raw.iter_memory_reverse(1.5))
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            raw.memory_reverse_arrays(-1.0)
        compacted = CompactedSkipRegionLog(line_bytes=64)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            list(compacted.iter_memory_reverse(0.0))
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            compacted.btb_claims_arrays(4.0)

    def test_cli_maps_fraction_error_to_exit_2(self, capsys):
        from repro.__main__ import main
        from repro.core import ReverseStateReconstruction

        register_method(
            "BadFraction",
            lambda: ReverseStateReconstruction(fraction=1.5),
        )
        try:
            code = main(["sample", "gcc", "--method", "BadFraction",
                         "--scale", "ci"])
        finally:
            unregister_method("BadFraction")
        assert code == 2
        captured = capsys.readouterr()
        assert "fraction must be in (0, 1]" in captured.err
        assert "1.5" in captured.err
