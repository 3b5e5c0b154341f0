"""Predecoded program representation (columnar decode cache).

:meth:`~repro.functional.machine.FunctionalMachine.step` reads one
:class:`~repro.isa.instructions.Instruction` object per step and pays an
attribute lookup for every operand field.  The span interpreter in
:meth:`~repro.functional.machine.FunctionalMachine.run` instead
executes over *parallel columns* — one typed array per operand field —
decoded once per :class:`~repro.isa.program.Program`:

- ``ops``/``rds``/``rs1s``/``rs2s`` (``array('h')``/``array('B')``) and
  ``imms``/``targets`` (``array('q')``) hold the operand fields;
- ``boundary`` marks instructions the span loop must leave to
  the boundary handler: memory references and control transfers (which
  fire observation hooks) and HALT;
- ``span_end[i]`` is the index of the first boundary instruction at or
  after ``i`` — the straight-line ALU/NOP span ``[i, span_end[i])`` can
  execute with no hook checks and no per-step object churn;
- the timing-simulator columns (``is_mem``/``is_control``/``is_load``/
  ``is_store`` bytearrays, ``latency``, ``dest`` with −1 for "no
  destination", and per-instruction ``sources`` tuples) let the hot
  loop replace five attribute/method lookups per retired instruction
  with list indexing.

The interpreter additionally keeps plain-list mirrors of the operand
columns (``op_list`` and friends): CPython indexes a list of cached
small ints faster than a typed array, which re-boxes on every read.
The typed arrays remain the canonical, compact storage (and the form
bulk/numpy consumers view); the mirrors are derived once here and never
mutated.

Decoding is memoized on the program object (``program._predecoded``),
so every machine over the same image shares one decode.
"""

from __future__ import annotations

from array import array

from ..isa import Opcode

#: Opcodes at which a straight-line batched span must stop: memory
#: references and control transfers (their observation hooks interleave
#: with execution order) plus HALT.
_BOUNDARY_OPS = frozenset({
    Opcode.LOAD, Opcode.STORE,
    Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
    Opcode.JMP, Opcode.JR, Opcode.CALL, Opcode.CALLR, Opcode.RET,
    Opcode.HALT,
})


class PredecodedProgram:
    """Columnar decode of one program (see module docstring)."""

    __slots__ = (
        "ops", "rds", "rs1s", "rs2s", "imms", "targets",
        "boundary", "span_end",
        "is_mem", "is_control", "is_load", "is_store",
        "latency", "dest", "sources",
        "op_list", "rd_list", "rs1_list", "rs2_list", "imm_list",
        "target_list", "span_end_list",
    )

    def __init__(self, program) -> None:
        instructions = program.instructions
        n = len(instructions)
        ops = array("h", bytes(2 * n))
        rds = array("B", bytes(n))
        rs1s = array("B", bytes(n))
        rs2s = array("B", bytes(n))
        imms = array("q", bytes(8 * n))
        targets = array("q", bytes(8 * n))
        boundary = bytearray(n)
        is_mem = bytearray(n)
        is_control = bytearray(n)
        is_load = bytearray(n)
        is_store = bytearray(n)
        latency = bytearray(n)
        dest = array("b", bytes(n))
        sources: list[tuple[int, ...]] = [()] * n

        for index, inst in enumerate(instructions):
            op = inst.opcode
            ops[index] = op
            rds[index] = inst.rd
            rs1s[index] = inst.rs1
            rs2s[index] = inst.rs2
            try:
                imms[index] = inst.imm
                targets[index] = inst.target
                boundary[index] = op in _BOUNDARY_OPS
            except OverflowError:
                # An operand that does not fit the 64-bit column is left
                # to the step() fallback: marking the instruction as a
                # boundary keeps the batched span loop away from it, and
                # poisoning its opcode column keeps the boundary
                # dispatcher from matching an inline case on the stale
                # column values.
                ops[index] = -1
                boundary[index] = True
            is_mem[index] = inst.is_mem
            is_control[index] = inst.is_control
            is_load[index] = inst.is_load
            is_store[index] = inst.is_store
            latency[index] = inst.latency
            destination = inst.destination()
            dest[index] = -1 if destination is None else destination
            sources[index] = inst.sources()

        # span_end[i]: first boundary index at or after i (or n).  Walked
        # backwards so each element is filled in O(1).
        span_end = array("q", bytes(8 * n))
        nearest = n
        for index in range(n - 1, -1, -1):
            if boundary[index]:
                nearest = index
            span_end[index] = nearest

        self.ops = ops
        self.rds = rds
        self.rs1s = rs1s
        self.rs2s = rs2s
        self.imms = imms
        self.targets = targets
        self.boundary = boundary
        self.span_end = span_end
        self.is_mem = is_mem
        self.is_control = is_control
        self.is_load = is_load
        self.is_store = is_store
        self.latency = latency
        self.dest = dest
        self.sources = sources
        # Interpreter-facing list mirrors (see module docstring).
        self.op_list = ops.tolist()
        self.rd_list = rds.tolist()
        self.rs1_list = rs1s.tolist()
        self.rs2_list = rs2s.tolist()
        self.imm_list = imms.tolist()
        self.target_list = targets.tolist()
        self.span_end_list = span_end.tolist()

    def __len__(self) -> int:
        return len(self.ops)


def predecode_program(program) -> PredecodedProgram:
    """Decode `program` into columns, memoized on the program object."""
    cached = getattr(program, "_predecoded", None)
    if cached is not None:
        return cached
    decoded = PredecodedProgram(program)
    program._predecoded = decoded
    return decoded
