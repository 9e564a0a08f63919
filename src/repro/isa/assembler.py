"""Program construction: a fluent builder API and a tiny text assembler.

The builder is the primary interface — attacks and workload generators
construct programs programmatically::

    b = ProgramBuilder()
    b.li("r1", 0x2000)
    b.load("r2", "r1", 8)
    b.label("loop")
    b.alu("sub", "r2", "r2", imm=1)
    b.branch("ne", "r2", "r0", "loop")
    b.halt()
    program = b.build()

The text assembler exists mostly for tests and examples; it accepts the
same mnemonics the disassembler prints.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.errors import AssemblyError
from repro.isa.instructions import (AluOp, BranchCond, Instruction, Opcode)
from repro.isa.program import Program
from repro.isa.registers import register_index

RegLike = Union[str, int]


def _reg(value: RegLike) -> int:
    if isinstance(value, int):
        return value
    return register_index(value)


class ProgramBuilder:
    """Incremental program constructor with forward-label resolution."""

    def __init__(self, code_base: int = 0x1000) -> None:
        self._code_base = code_base
        self._instructions: List[_Pending] = []
        self._labels: Dict[str, int] = {}

    # -- label management -------------------------------------------------

    def label(self, name: str) -> "ProgramBuilder":
        """Define ``name`` at the current position."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)
        return self

    def here(self) -> int:
        """Index of the next instruction to be emitted."""
        return len(self._instructions)

    # -- instruction emitters ---------------------------------------------

    def alu(self, op: Union[str, AluOp], rd: RegLike, rs1: RegLike,
            rs2: Optional[RegLike] = None, imm: int = 0) -> "ProgramBuilder":
        alu_op = op if isinstance(op, AluOp) else AluOp(op)
        self._emit(Instruction(
            Opcode.ALU, rd=_reg(rd), rs1=_reg(rs1),
            rs2=None if rs2 is None else _reg(rs2),
            imm=imm, alu_op=alu_op))
        return self

    def add(self, rd: RegLike, rs1: RegLike,
            rs2: Optional[RegLike] = None, imm: int = 0) -> "ProgramBuilder":
        return self.alu(AluOp.ADD, rd, rs1, rs2, imm)

    def mul(self, rd: RegLike, rs1: RegLike,
            rs2: Optional[RegLike] = None, imm: int = 0) -> "ProgramBuilder":
        return self.alu(AluOp.MUL, rd, rs1, rs2, imm)

    def li(self, rd: RegLike, imm: int) -> "ProgramBuilder":
        self._emit(Instruction(Opcode.LOADIMM, rd=_reg(rd), imm=imm))
        return self

    def load(self, rd: RegLike, base: RegLike, offset: int = 0
             ) -> "ProgramBuilder":
        self._emit(Instruction(
            Opcode.LOAD, rd=_reg(rd), rs1=_reg(base), imm=offset))
        return self

    def store(self, base: RegLike, data: RegLike, offset: int = 0
              ) -> "ProgramBuilder":
        self._emit(Instruction(
            Opcode.STORE, rs1=_reg(base), rs2=_reg(data), imm=offset))
        return self

    def branch(self, cond: Union[str, BranchCond], rs1: RegLike,
               rs2: RegLike, target: str) -> "ProgramBuilder":
        branch_cond = cond if isinstance(cond, BranchCond) else BranchCond(cond)
        self._emit(Instruction(
            Opcode.BRANCH, rs1=_reg(rs1), rs2=_reg(rs2),
            cond=branch_cond, target=0), pending_label=target)
        return self

    def jmp(self, target: str) -> "ProgramBuilder":
        self._emit(Instruction(Opcode.JMP, target=0), pending_label=target)
        return self

    def jmpi(self, rs1: RegLike) -> "ProgramBuilder":
        self._emit(Instruction(Opcode.JMPI, rs1=_reg(rs1)))
        return self

    def call(self, rd: RegLike, target: str) -> "ProgramBuilder":
        """Direct call: ``rd`` <- return address, jump to ``target``."""
        self._emit(Instruction(Opcode.CALL, rd=_reg(rd), target=0),
                   pending_label=target)
        return self

    def ret(self, rs1: RegLike) -> "ProgramBuilder":
        """Indirect return through ``rs1`` (RSB-predicted)."""
        self._emit(Instruction(Opcode.RET, rs1=_reg(rs1)))
        return self

    def clflush(self, base: RegLike, offset: int = 0) -> "ProgramBuilder":
        self._emit(Instruction(
            Opcode.CLFLUSH, rs1=_reg(base), imm=offset))
        return self

    def rdtsc(self, rd: RegLike) -> "ProgramBuilder":
        self._emit(Instruction(Opcode.RDTSC, rd=_reg(rd)))
        return self

    def fence(self) -> "ProgramBuilder":
        self._emit(Instruction(Opcode.FENCE))
        return self

    def nop(self, count: int = 1) -> "ProgramBuilder":
        for _ in range(count):
            self._emit(Instruction(Opcode.NOP))
        return self

    def halt(self) -> "ProgramBuilder":
        self._emit(Instruction(Opcode.HALT))
        return self

    # -- assembly ----------------------------------------------------------

    def build(self) -> Program:
        """Resolve labels and produce an immutable :class:`Program`."""
        resolved: List[Instruction] = []
        for pending in self._instructions:
            if pending.label_ref is None:
                resolved.append(pending.instruction)
                continue
            if pending.label_ref not in self._labels:
                raise AssemblyError(
                    f"undefined label {pending.label_ref!r}")
            target = self._labels[pending.label_ref]
            inst = pending.instruction
            resolved.append(Instruction(
                inst.opcode, rd=inst.rd, rs1=inst.rs1, rs2=inst.rs2,
                imm=inst.imm, target=target, alu_op=inst.alu_op,
                cond=inst.cond, label=inst.label))
        return Program(resolved, code_base=self._code_base,
                       labels=dict(self._labels))

    def _emit(self, instruction: Instruction,
              pending_label: Optional[str] = None) -> None:
        self._instructions.append(_Pending(instruction, pending_label))


class _Pending:
    """An emitted instruction, possibly awaiting label resolution."""

    __slots__ = ("instruction", "label_ref")

    def __init__(self, instruction: Instruction,
                 label_ref: Optional[str]) -> None:
        self.instruction = instruction
        self.label_ref = label_ref


def assemble(source: str, code_base: int = 0x1000) -> Program:
    """Assemble a newline-separated text listing into a :class:`Program`.

    Grammar (one instruction per line, ``;`` starts a comment)::

        label:
        li   rD, #imm
        add  rD, rS1, rS2      ; likewise sub/mul/and/or/xor/shl/shr
        add  rD, rS1, #imm
        ld   rD, [rS1+imm]
        st   [rS1+imm], rS2
        beq  rS1, rS2, label   ; likewise bne/blt/bge
        jmp  label
        jmpi rS1
        call rD, label
        ret  rS1
        clflush [rS1+imm]
        rdtsc rD
        fence | nop | halt
    """
    builder = ProgramBuilder(code_base=code_base)
    for raw_line in source.splitlines():
        line = raw_line.split(";", 1)[0].strip()
        if not line:
            continue
        if line.endswith(":"):
            builder.label(line[:-1].strip())
            continue
        _assemble_line(builder, line)
    return builder.build()


def _parse_mem_operand(text: str) -> Tuple[str, int]:
    """Parse ``[rN+imm]`` / ``[rN-imm]`` / ``[rN]``."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise AssemblyError(f"bad memory operand {text!r}")
    inner = text[1:-1].strip()
    for sep in ("+", "-"):
        if sep in inner:
            base, offset = inner.split(sep, 1)
            sign = 1 if sep == "+" else -1
            return base.strip(), sign * _parse_int(offset.strip())
    return inner, 0


def _parse_int(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError as exc:
        raise AssemblyError(f"bad integer {text!r}") from exc


def _assemble_line(builder: ProgramBuilder, line: str) -> None:
    mnemonic, _, rest = line.partition(" ")
    mnemonic = mnemonic.lower()
    operands = [op.strip() for op in rest.split(",")] if rest.strip() else []

    alu_mnemonics = {op.value for op in AluOp}
    branch_mnemonics = {"b" + cond.value for cond in BranchCond}
    if mnemonic in alu_mnemonics:
        if len(operands) != 3:
            raise AssemblyError(f"{mnemonic} needs 3 operands: {line!r}")
        rd, rs1, third = operands
        if third.startswith("#"):
            builder.alu(mnemonic, rd, rs1, imm=_parse_int(third[1:]))
        else:
            builder.alu(mnemonic, rd, rs1, third)
    elif mnemonic == "li":
        if len(operands) != 2 or not operands[1].startswith("#"):
            raise AssemblyError(f"li needs 'rD, #imm': {line!r}")
        builder.li(operands[0], _parse_int(operands[1][1:]))
    elif mnemonic == "ld":
        if len(operands) != 2:
            raise AssemblyError(f"ld needs 'rD, [rS+imm]': {line!r}")
        base, offset = _parse_mem_operand(operands[1])
        builder.load(operands[0], base, offset)
    elif mnemonic == "st":
        if len(operands) != 2:
            raise AssemblyError(f"st needs '[rS+imm], rD': {line!r}")
        base, offset = _parse_mem_operand(operands[0])
        builder.store(base, operands[1], offset)
    elif mnemonic in branch_mnemonics:
        if len(operands) != 3:
            raise AssemblyError(f"{mnemonic} needs 3 operands: {line!r}")
        builder.branch(mnemonic[1:], operands[0], operands[1], operands[2])
    elif mnemonic == "jmp":
        if len(operands) != 1:
            raise AssemblyError(f"jmp needs a label: {line!r}")
        builder.jmp(operands[0])
    elif mnemonic == "jmpi":
        if len(operands) != 1:
            raise AssemblyError(f"jmpi needs a register: {line!r}")
        builder.jmpi(operands[0])
    elif mnemonic == "call":
        if len(operands) != 2:
            raise AssemblyError(f"call needs 'rD, label': {line!r}")
        builder.call(operands[0], operands[1])
    elif mnemonic == "ret":
        if len(operands) != 1:
            raise AssemblyError(f"ret needs a register: {line!r}")
        builder.ret(operands[0])
    elif mnemonic == "clflush":
        if len(operands) != 1:
            raise AssemblyError(f"clflush needs '[rS+imm]': {line!r}")
        base, offset = _parse_mem_operand(operands[0])
        builder.clflush(base, offset)
    elif mnemonic == "rdtsc":
        if len(operands) != 1:
            raise AssemblyError(f"rdtsc needs a register: {line!r}")
        builder.rdtsc(operands[0])
    elif mnemonic == "fence":
        builder.fence()
    elif mnemonic == "nop":
        builder.nop()
    elif mnemonic == "halt":
        builder.halt()
    else:
        raise AssemblyError(f"unknown mnemonic {mnemonic!r}")
