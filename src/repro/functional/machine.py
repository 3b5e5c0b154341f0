"""The functional simulator.

The functional machine maintains architecturally correct state (registers,
PC, memory) regardless of how instructions are timed.  It plays three roles
in sampled simulation, mirroring the paper's §4:

1. *Cold* simulation — fast-forwarding between clusters while keeping
   architectural state correct.
2. The execution engine underneath *warm* simulation — warm-up methods
   attach hooks that observe memory references and branch outcomes.
3. The oracle underneath *hot* simulation — the timing core single-steps
   the functional machine and times each retired instruction.

Performance notes: the dispatch in :meth:`FunctionalMachine.run` is a flat
``if/elif`` chain on the opcode's integer value with all hot attributes
hoisted into locals, because this is the innermost loop of every
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import Opcode, Program, NUM_REGISTERS, LINK_REGISTER, STACK_POINTER
from .memory import Memory
from .predecode import predecode_program

_MASK64 = (1 << 64) - 1
_SIGN_BIT = 1 << 63

def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned value as two's-complement signed."""
    return value - (1 << 64) if value & _SIGN_BIT else value


# Plain-int opcode values for the span interpreter: comparing a list
# element against a cached small int avoids the enum identity check and
# attribute traffic of the :meth:`FunctionalMachine.step` chain.  Ordered here roughly by
# dynamic frequency in the nine workload generators.
_OP_ADDI = int(Opcode.ADDI)
_OP_ADD = int(Opcode.ADD)
_OP_LI = int(Opcode.LI)
_OP_SUB = int(Opcode.SUB)
_OP_MUL = int(Opcode.MUL)
_OP_AND = int(Opcode.AND)
_OP_OR = int(Opcode.OR)
_OP_XOR = int(Opcode.XOR)
_OP_SLL = int(Opcode.SLL)
_OP_SRL = int(Opcode.SRL)
_OP_SLT = int(Opcode.SLT)
_OP_ANDI = int(Opcode.ANDI)
_OP_ORI = int(Opcode.ORI)
_OP_XORI = int(Opcode.XORI)
_OP_SLTI = int(Opcode.SLTI)
_OP_SLLI = int(Opcode.SLLI)
_OP_SRLI = int(Opcode.SRLI)
_OP_DIV = int(Opcode.DIV)
_OP_NOP = int(Opcode.NOP)
_OP_LOAD = int(Opcode.LOAD)
_OP_STORE = int(Opcode.STORE)
_OP_BEQ = int(Opcode.BEQ)
_OP_BNE = int(Opcode.BNE)
_OP_BLT = int(Opcode.BLT)
_OP_BGE = int(Opcode.BGE)
_OP_JMP = int(Opcode.JMP)
_OP_JR = int(Opcode.JR)
_OP_CALL = int(Opcode.CALL)
_OP_CALLR = int(Opcode.CALLR)
_OP_RET = int(Opcode.RET)


def _divide_signed(dividend: int, divisor: int) -> int:
    """Truncating signed 64-bit division over unsigned register fields.

    Both operands are interpreted as two's complement; the quotient
    truncates toward zero (C/RISC semantics, not Python floor) and wraps
    into the unsigned field, so INT64_MIN / −1 yields INT64_MIN.
    Division by zero returns 0 (the ISA's defined result).
    """
    a = to_signed(dividend)
    b = to_signed(divisor)
    if b == 0:
        return 0
    quotient = a // b
    if quotient < 0 and quotient * b != a:
        quotient += 1  # floor -> truncation for mixed-sign inexact results
    return quotient & _MASK64


@dataclass
class StepResult:
    """Everything the timing simulator needs to know about one instruction.

    A single instance is reused across steps to avoid per-instruction
    allocation; consumers must copy any field they want to keep.
    """

    index: int = 0          # instruction index executed
    next_index: int = 0     # architecturally correct next instruction index
    taken: bool = False     # for control instructions: was it taken?
    mem_address: int = -1   # effective byte address for LOAD/STORE, else -1
    halted: bool = False


@dataclass
class Checkpoint:
    """A full architectural snapshot (registers, PC, memory, counters).

    `halted` is part of the architectural state: a checkpoint taken
    after HALT must restore to a machine that stays halted instead of
    silently resuming execution past program end.
    """

    pc: int
    registers: list[int]
    memory: Memory
    instructions_retired: int = 0
    halted: bool = False
    extra: dict = field(default_factory=dict)


class FunctionalMachine:
    """Architectural-state interpreter for one :class:`Program`.

    Parameters
    ----------
    program:
        The workload image to execute.
    memory:
        Optional pre-initialised memory (workload generators seed arrays).
    """

    def __init__(self, program: Program, memory: Memory | None = None) -> None:
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.registers: list[int] = [0] * NUM_REGISTERS
        self.registers[STACK_POINTER] = program.stack_base
        self.pc = program.entry
        self.halted = False
        self.instructions_retired = 0
        self._step_result = StepResult()
        #: Ifetch-continuity marker: ``(per_block, block)`` of the last
        #: instruction block fetched by an *observed* :meth:`run` (one
        #: with an ``ifetch_hook``).  Carried across calls so a phase
        #: boundary (warm-up prefix -> skip, skip -> skip) does not
        #: re-report a block the previous phase already fetched; see
        #: :meth:`invalidate_fetch_block` for when it resets.
        self._last_fetch: tuple[int, int] = (0, -1)

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Capture the full architectural state."""
        return Checkpoint(
            pc=self.pc,
            registers=list(self.registers),
            memory=self.memory.copy(),
            instructions_retired=self.instructions_retired,
            halted=self.halted,
        )

    def restore(self, checkpoint: Checkpoint) -> None:
        """Restore state captured by :meth:`checkpoint`."""
        self.pc = checkpoint.pc
        self.registers = list(checkpoint.registers)
        self.memory = checkpoint.memory.copy()
        self.instructions_retired = checkpoint.instructions_retired
        self.halted = checkpoint.halted
        self.invalidate_fetch_block()

    def invalidate_fetch_block(self) -> None:
        """Forget the ifetch-continuity marker.

        Called whenever execution discontinuously moves (checkpoint
        restore) or when instructions were fetched without an observer
        (a hook-less :meth:`run`), so the next observed run re-reports
        its first block instead of wrongly deduplicating it.
        """
        self._last_fetch = (0, -1)

    # -- single stepping ------------------------------------------------------

    def step(self) -> StepResult:
        """Execute exactly one instruction; return its :class:`StepResult`.

        The returned object is reused by subsequent calls.
        """
        result = self._step_result
        if self.halted:
            result.halted = True
            return result

        program = self.program
        regs = self.registers
        inst = program.instructions[self.pc]
        op = inst.opcode
        pc = self.pc
        next_pc = pc + 1
        taken = False
        mem_address = -1

        if op is Opcode.ADD:
            if inst.rd:
                regs[inst.rd] = (regs[inst.rs1] + regs[inst.rs2]) & _MASK64
        elif op is Opcode.ADDI:
            if inst.rd:
                regs[inst.rd] = (regs[inst.rs1] + inst.imm) & _MASK64
        elif op is Opcode.LOAD:
            mem_address = (regs[inst.rs1] + inst.imm) & _MASK64
            if inst.rd:
                regs[inst.rd] = self.memory.load(mem_address)
        elif op is Opcode.STORE:
            mem_address = (regs[inst.rs1] + inst.imm) & _MASK64
            self.memory.store(mem_address, regs[inst.rs2])
        elif op is Opcode.BEQ:
            taken = regs[inst.rs1] == regs[inst.rs2]
            if taken:
                next_pc = inst.target
        elif op is Opcode.BNE:
            taken = regs[inst.rs1] != regs[inst.rs2]
            if taken:
                next_pc = inst.target
        elif op is Opcode.BLT:
            taken = to_signed(regs[inst.rs1]) < to_signed(regs[inst.rs2])
            if taken:
                next_pc = inst.target
        elif op is Opcode.BGE:
            taken = to_signed(regs[inst.rs1]) >= to_signed(regs[inst.rs2])
            if taken:
                next_pc = inst.target
        elif op is Opcode.SUB:
            if inst.rd:
                regs[inst.rd] = (regs[inst.rs1] - regs[inst.rs2]) & _MASK64
        elif op is Opcode.MUL:
            if inst.rd:
                regs[inst.rd] = (regs[inst.rs1] * regs[inst.rs2]) & _MASK64
        elif op is Opcode.DIV:
            if inst.rd:
                regs[inst.rd] = _divide_signed(regs[inst.rs1], regs[inst.rs2])
        elif op is Opcode.AND:
            if inst.rd:
                regs[inst.rd] = regs[inst.rs1] & regs[inst.rs2]
        elif op is Opcode.OR:
            if inst.rd:
                regs[inst.rd] = regs[inst.rs1] | regs[inst.rs2]
        elif op is Opcode.XOR:
            if inst.rd:
                regs[inst.rd] = regs[inst.rs1] ^ regs[inst.rs2]
        elif op is Opcode.SLL:
            if inst.rd:
                regs[inst.rd] = (regs[inst.rs1] << (regs[inst.rs2] & 63)) & _MASK64
        elif op is Opcode.SRL:
            if inst.rd:
                regs[inst.rd] = regs[inst.rs1] >> (regs[inst.rs2] & 63)
        elif op is Opcode.SLT:
            if inst.rd:
                regs[inst.rd] = int(
                    to_signed(regs[inst.rs1]) < to_signed(regs[inst.rs2])
                )
        elif op is Opcode.ANDI:
            if inst.rd:
                regs[inst.rd] = regs[inst.rs1] & (inst.imm & _MASK64)
        elif op is Opcode.ORI:
            if inst.rd:
                regs[inst.rd] = regs[inst.rs1] | (inst.imm & _MASK64)
        elif op is Opcode.XORI:
            if inst.rd:
                regs[inst.rd] = regs[inst.rs1] ^ (inst.imm & _MASK64)
        elif op is Opcode.SLTI:
            if inst.rd:
                regs[inst.rd] = int(to_signed(regs[inst.rs1]) < inst.imm)
        elif op is Opcode.SLLI:
            if inst.rd:
                regs[inst.rd] = (regs[inst.rs1] << (inst.imm & 63)) & _MASK64
        elif op is Opcode.SRLI:
            if inst.rd:
                regs[inst.rd] = regs[inst.rs1] >> (inst.imm & 63)
        elif op is Opcode.LI:
            if inst.rd:
                regs[inst.rd] = inst.imm & _MASK64
        elif op is Opcode.JMP:
            taken = True
            next_pc = inst.target
        elif op is Opcode.CALL:
            taken = True
            regs[LINK_REGISTER] = next_pc
            next_pc = inst.target
        elif op is Opcode.CALLR:
            taken = True
            regs[LINK_REGISTER] = next_pc
            next_pc = regs[inst.rs1]
        elif op is Opcode.RET:
            taken = True
            next_pc = regs[LINK_REGISTER]
        elif op is Opcode.JR:
            taken = True
            next_pc = regs[inst.rs1]
        elif op is Opcode.NOP:
            pass
        elif op is Opcode.HALT:
            self.halted = True
            result.index = pc
            result.next_index = pc
            result.taken = False
            result.mem_address = -1
            result.halted = True
            self.instructions_retired += 1
            return result
        else:  # pragma: no cover - all opcodes handled above
            raise RuntimeError(f"unimplemented opcode {op!r}")

        self.pc = next_pc
        self.instructions_retired += 1
        result.index = pc
        result.next_index = next_pc
        result.taken = taken
        result.mem_address = mem_address
        result.halted = False
        return result

    # -- bulk execution -------------------------------------------------------

    def run(
        self,
        count: int,
        mem_hook=None,
        branch_hook=None,
        ifetch_hook=None,
        ifetch_block_bytes: int = 64,
    ) -> int:
        """Execute up to `count` instructions; return how many retired.

        Executes the predecoded program (:mod:`repro.functional.
        predecode`) in straight-line ALU/NOP spans: operand columns are
        indexed directly, no :class:`StepResult` is written, and ifetch
        block crossings within a span are computed arithmetically instead
        of being checked per instruction.  Memory references and control
        transfers are executed inline with their hook calls, in program
        order; HALT (and any instruction whose operands overflowed the
        predecode columns) falls back to :meth:`step`.  A span contains
        no memory or branch hooks by construction, so firing its block
        crossings in ascending pc order reproduces exactly the hook
        sequence of stepping one instruction at a time — the per-step
        oracle in ``tests/oracles.py`` checks that differentially.

        Parameters
        ----------
        count:
            Maximum number of instructions to execute.
        mem_hook:
            Called as ``mem_hook(pc_index, next_pc_index, address, is_store)``
            for every LOAD/STORE.
        branch_hook:
            Called as ``branch_hook(pc_index, next_pc_index, inst, taken)``
            for every control-transfer instruction (conditional or not).
        ifetch_hook:
            Called as ``ifetch_hook(byte_address)`` whenever execution moves
            to a different `ifetch_block_bytes`-sized code block.  Repeated
            fetches within one block are filtered because they cannot change
            cache state; see DESIGN.md §2.  The filter carries across
            calls: a new call continuing in the block the previous
            observed call ended in does not re-report it (the controller
            invokes :meth:`run` once per phase, and a phase boundary is
            not a fetch).
        """
        if count <= 0 or self.halted:
            return 0
        program = self.program
        decoded = predecode_program(program)
        step = self.step
        instructions = program.instructions
        instruction_bytes = program.instruction_bytes
        code_base = program.code_base
        per_block = max(1, ifetch_block_bytes // instruction_bytes)
        stored_per_block, stored_block = self._last_fetch
        last_fetch_block = stored_block if stored_per_block == per_block else -1
        regs = self.registers
        memory_load = self.memory.load
        memory_store = self.memory.store
        link_register = LINK_REGISTER
        ops = decoded.op_list
        rds = decoded.rd_list
        rs1s = decoded.rs1_list
        rs2s = decoded.rs2_list
        imms = decoded.imm_list
        targets = decoded.target_list
        span_end = decoded.span_end_list
        is_store_col = decoded.is_store
        is_control_col = decoded.is_control

        executed = 0
        last_pc = -1
        pc = self.pc
        while executed < count and not self.halted:
            end = span_end[pc]
            if end > pc:
                # ---- straight-line ALU/NOP span ---------------------------
                remaining = count - executed
                if end - pc > remaining:
                    end = pc + remaining
                if ifetch_hook is not None:
                    block = pc // per_block
                    if block != last_fetch_block:
                        ifetch_hook(code_base + pc * instruction_bytes)
                    crossing = (block + 1) * per_block
                    while crossing < end:
                        ifetch_hook(code_base + crossing * instruction_bytes)
                        crossing += per_block
                    last_fetch_block = (end - 1) // per_block
                i = pc
                while i < end:
                    op = ops[i]
                    if op == _OP_ADDI:
                        rd = rds[i]
                        if rd:
                            regs[rd] = (regs[rs1s[i]] + imms[i]) & _MASK64
                    elif op == _OP_ADD:
                        rd = rds[i]
                        if rd:
                            regs[rd] = (regs[rs1s[i]] + regs[rs2s[i]]) & _MASK64
                    elif op == _OP_LI:
                        rd = rds[i]
                        if rd:
                            regs[rd] = imms[i] & _MASK64
                    elif op == _OP_SUB:
                        rd = rds[i]
                        if rd:
                            regs[rd] = (regs[rs1s[i]] - regs[rs2s[i]]) & _MASK64
                    elif op == _OP_MUL:
                        rd = rds[i]
                        if rd:
                            regs[rd] = (regs[rs1s[i]] * regs[rs2s[i]]) & _MASK64
                    elif op == _OP_AND:
                        rd = rds[i]
                        if rd:
                            regs[rd] = regs[rs1s[i]] & regs[rs2s[i]]
                    elif op == _OP_OR:
                        rd = rds[i]
                        if rd:
                            regs[rd] = regs[rs1s[i]] | regs[rs2s[i]]
                    elif op == _OP_XOR:
                        rd = rds[i]
                        if rd:
                            regs[rd] = regs[rs1s[i]] ^ regs[rs2s[i]]
                    elif op == _OP_SLLI:
                        rd = rds[i]
                        if rd:
                            regs[rd] = (regs[rs1s[i]] << (imms[i] & 63)) & _MASK64
                    elif op == _OP_SRLI:
                        rd = rds[i]
                        if rd:
                            regs[rd] = regs[rs1s[i]] >> (imms[i] & 63)
                    elif op == _OP_ANDI:
                        rd = rds[i]
                        if rd:
                            regs[rd] = regs[rs1s[i]] & (imms[i] & _MASK64)
                    elif op == _OP_ORI:
                        rd = rds[i]
                        if rd:
                            regs[rd] = regs[rs1s[i]] | (imms[i] & _MASK64)
                    elif op == _OP_XORI:
                        rd = rds[i]
                        if rd:
                            regs[rd] = regs[rs1s[i]] ^ (imms[i] & _MASK64)
                    elif op == _OP_SLT:
                        rd = rds[i]
                        if rd:
                            regs[rd] = int(
                                to_signed(regs[rs1s[i]])
                                < to_signed(regs[rs2s[i]])
                            )
                    elif op == _OP_SLTI:
                        rd = rds[i]
                        if rd:
                            regs[rd] = int(to_signed(regs[rs1s[i]]) < imms[i])
                    elif op == _OP_SLL:
                        rd = rds[i]
                        if rd:
                            regs[rd] = (
                                regs[rs1s[i]] << (regs[rs2s[i]] & 63)
                            ) & _MASK64
                    elif op == _OP_SRL:
                        rd = rds[i]
                        if rd:
                            regs[rd] = regs[rs1s[i]] >> (regs[rs2s[i]] & 63)
                    elif op == _OP_DIV:
                        rd = rds[i]
                        if rd:
                            regs[rd] = _divide_signed(
                                regs[rs1s[i]], regs[rs2s[i]]
                            )
                    elif op == _OP_NOP:
                        pass
                    else:  # pragma: no cover - spans hold only ALU/NOP ops
                        raise RuntimeError(
                            f"unimplemented opcode {Opcode(op)!r}"
                        )
                    i += 1
                executed += end - pc
                self.instructions_retired += end - pc
                last_pc = end - 1
                pc = end
                self.pc = pc
                continue

            # ---- boundary instruction -------------------------------------
            # Memory references and control transfers are inlined with
            # their hook calls in program order; HALT (and any instruction
            # whose operands overflowed the predecode columns) falls back
            # to step(), keeping its bookkeeping in one place.
            if ifetch_hook is not None:
                block = pc // per_block
                if block != last_fetch_block:
                    last_fetch_block = block
                    ifetch_hook(code_base + pc * instruction_bytes)
            op = ops[pc]
            if op == _OP_LOAD:
                address = (regs[rs1s[pc]] + imms[pc]) & _MASK64
                rd = rds[pc]
                if rd:
                    regs[rd] = memory_load(address)
                next_pc = pc + 1
                self.pc = next_pc
                self.instructions_retired += 1
                executed += 1
                last_pc = pc
                if mem_hook is not None:
                    mem_hook(pc, next_pc, address, False)
                pc = next_pc
                continue
            if op == _OP_STORE:
                address = (regs[rs1s[pc]] + imms[pc]) & _MASK64
                memory_store(address, regs[rs2s[pc]])
                next_pc = pc + 1
                self.pc = next_pc
                self.instructions_retired += 1
                executed += 1
                last_pc = pc
                if mem_hook is not None:
                    mem_hook(pc, next_pc, address, True)
                pc = next_pc
                continue
            if op == _OP_BEQ:
                taken = regs[rs1s[pc]] == regs[rs2s[pc]]
                next_pc = targets[pc] if taken else pc + 1
            elif op == _OP_BNE:
                taken = regs[rs1s[pc]] != regs[rs2s[pc]]
                next_pc = targets[pc] if taken else pc + 1
            elif op == _OP_BLT:
                taken = to_signed(regs[rs1s[pc]]) < to_signed(regs[rs2s[pc]])
                next_pc = targets[pc] if taken else pc + 1
            elif op == _OP_BGE:
                taken = to_signed(regs[rs1s[pc]]) >= to_signed(regs[rs2s[pc]])
                next_pc = targets[pc] if taken else pc + 1
            elif op == _OP_JMP:
                taken = True
                next_pc = targets[pc]
            elif op == _OP_CALL:
                taken = True
                regs[link_register] = pc + 1
                next_pc = targets[pc]
            elif op == _OP_CALLR:
                taken = True
                regs[link_register] = pc + 1
                next_pc = regs[rs1s[pc]]
            elif op == _OP_RET:
                taken = True
                next_pc = regs[link_register]
            elif op == _OP_JR:
                taken = True
                next_pc = regs[rs1s[pc]]
            else:
                # HALT, or an overflow-poisoned column: step() fallback.
                result = step()
                executed += 1
                last_pc = pc
                if result.halted:
                    break
                if result.mem_address >= 0 and mem_hook is not None:
                    mem_hook(
                        result.index, result.next_index,
                        result.mem_address,
                        is_store_col[result.index],
                    )
                if branch_hook is not None and is_control_col[result.index]:
                    branch_hook(
                        result.index, result.next_index,
                        instructions[result.index], result.taken,
                    )
                pc = self.pc
                continue
            self.pc = next_pc
            self.instructions_retired += 1
            executed += 1
            last_pc = pc
            if branch_hook is not None:
                branch_hook(pc, next_pc, instructions[pc], taken)
            pc = next_pc

        if executed:
            if ifetch_hook is not None:
                self._last_fetch = (per_block, last_pc // per_block)
            else:
                self.invalidate_fetch_block()
        return executed
