"""Unit tests for the ISA: instructions, programs, assembler, builder."""

import itertools

import pytest

from repro.errors import AssemblyError
from repro.isa.assembler import ProgramBuilder, assemble
from repro.isa.instructions import (AluOp, BranchCond, INSTRUCTION_BYTES,
                                    Instruction, InstructionClass, Opcode)
from repro.isa.program import Program
from repro.isa.registers import (register_index, to_signed, to_unsigned)
from repro.isa import semantics
from repro.verify.oracle import ReferenceOracle

EDGE_WORDS = (0, 1, 63, 64, 65, 2**63 - 1, 2**63, 2**64 - 1)
NEGATIVE_IMMS = (-1, -63, -64, -65, -2**63)


class TestRegisters:
    def test_register_index(self):
        assert register_index("r0") == 0
        assert register_index("r15") == 15

    def test_bad_names_rejected(self):
        for name in ("x1", "r16", "r-1", "rX"):
            with pytest.raises(AssemblyError):
                register_index(name)

    def test_signed_conversion(self):
        assert to_signed(2**64 - 1) == -1
        assert to_signed(5) == 5

    def test_unsigned_truncation(self):
        assert to_unsigned(-1) == 2**64 - 1
        assert to_unsigned(2**64 + 3) == 3


class TestSemanticsTable:
    """The shared semantics table against the oracle's independent,
    hand-written copy: a drift in either one fails here."""

    def test_every_op_and_condition_present(self):
        assert set(semantics.ALU_EXPR) == set(semantics.ALU) == set(AluOp)
        assert set(semantics.BRANCH) == set(BranchCond)

    @pytest.mark.parametrize("op", list(AluOp), ids=lambda op: op.value)
    def test_alu_matches_oracle(self, op):
        fn = semantics.ALU[op]
        reg_form = Instruction(Opcode.ALU, rd=0, rs1=1, rs2=2, alu_op=op)
        for x, y in itertools.product(EDGE_WORDS, repeat=2):
            assert (to_unsigned(fn(x, y))
                    == ReferenceOracle._alu(reg_form, [0, x, y])), (x, y)
        for x, imm in itertools.product(EDGE_WORDS,
                                        EDGE_WORDS + NEGATIVE_IMMS):
            imm_form = Instruction(Opcode.ALU, rd=0, rs1=1, imm=imm,
                                   alu_op=op)
            assert (to_unsigned(fn(x, to_unsigned(imm)))
                    == ReferenceOracle._alu(imm_form, [0, x])), (x, imm)

    @pytest.mark.parametrize("cond", list(BranchCond),
                             ids=lambda cond: cond.value)
    def test_branch_matches_oracle(self, cond):
        inst = Instruction(Opcode.BRANCH, rs1=1, rs2=2, cond=cond, target=0)
        for x, y in itertools.product(EDGE_WORDS, repeat=2):
            taken = semantics.BRANCH[cond](to_signed(x), to_signed(y))
            assert taken == ReferenceOracle._branch_taken(inst, [0, x, y]), \
                (x, y)


class TestInstructionValidation:
    def test_alu_requires_fields(self):
        with pytest.raises(AssemblyError):
            Instruction(Opcode.ALU, rd=1)

    def test_load_requires_base(self):
        with pytest.raises(AssemblyError):
            Instruction(Opcode.LOAD, rd=1)

    def test_store_requires_data(self):
        with pytest.raises(AssemblyError):
            Instruction(Opcode.STORE, rs1=1)

    def test_branch_requires_condition(self):
        with pytest.raises(AssemblyError):
            Instruction(Opcode.BRANCH, rs1=1, rs2=2)

    def test_mul_uses_mul_unit(self):
        inst = Instruction(Opcode.ALU, rd=1, rs1=2, alu_op=AluOp.MUL)
        assert inst.inst_class is InstructionClass.MUL

    def test_add_uses_int_unit(self):
        inst = Instruction(Opcode.ALU, rd=1, rs1=2, alu_op=AluOp.ADD)
        assert inst.inst_class is InstructionClass.INT

    def test_control_flow_classification(self):
        jmpi = Instruction(Opcode.JMPI, rs1=1)
        assert jmpi.is_control_flow and jmpi.is_indirect
        branch = Instruction(Opcode.BRANCH, rs1=1, rs2=2,
                             cond=BranchCond.EQ, target=0)
        assert branch.is_conditional

    def test_source_registers(self):
        inst = Instruction(Opcode.STORE, rs1=3, rs2=7)
        assert inst.source_registers() == (3, 7)


class TestProgram:
    def test_pc_index_roundtrip(self):
        prog = Program([Instruction(Opcode.NOP)] * 5, code_base=0x1000)
        for i in range(5):
            assert prog.index_of(prog.pc_of(i)) == i

    def test_fetch_outside_returns_none(self):
        prog = Program([Instruction(Opcode.NOP)], code_base=0x1000)
        assert prog.fetch(0x1000 - INSTRUCTION_BYTES) is None
        assert prog.fetch(0x1000 + INSTRUCTION_BYTES) is None

    def test_fetch_misaligned_returns_none(self):
        prog = Program([Instruction(Opcode.NOP)], code_base=0x1000)
        assert prog.fetch(0x1004) is None

    def test_unaligned_base_rejected(self):
        with pytest.raises(AssemblyError):
            Program([], code_base=0x1001)

    def test_label_outside_rejected(self):
        with pytest.raises(AssemblyError):
            Program([Instruction(Opcode.NOP)], labels={"x": 9})

    def test_disassemble_mentions_labels(self):
        b = ProgramBuilder()
        b.label("start")
        b.halt()
        listing = b.build().disassemble()
        assert "start:" in listing
        assert "halt" in listing


class TestBuilder:
    def test_forward_label(self):
        b = ProgramBuilder()
        b.branch("eq", "r1", "r0", "end")
        b.nop()
        b.label("end")
        b.halt()
        prog = b.build()
        assert prog.instructions[0].target == 2

    def test_undefined_label_rejected(self):
        b = ProgramBuilder()
        b.jmp("nowhere")
        with pytest.raises(AssemblyError):
            b.build()

    def test_duplicate_label_rejected(self):
        b = ProgramBuilder()
        b.label("x")
        with pytest.raises(AssemblyError):
            b.label("x")

    def test_here_tracks_position(self):
        b = ProgramBuilder()
        assert b.here() == 0
        b.nop(3)
        assert b.here() == 3


class TestAssembler:
    def test_full_program(self):
        prog = assemble("""
        ; a tiny loop
        li   r1, #3
        loop:
        sub  r1, r1, #1
        bne  r1, r0, loop
        halt
        """)
        assert len(prog) == 4
        assert prog.instructions[0].opcode is Opcode.LOADIMM
        assert prog.instructions[2].target == 1

    def test_memory_operands(self):
        prog = assemble("""
        ld r2, [r1+8]
        st [r3-4], r2
        clflush [r1]
        halt
        """)
        assert prog.instructions[0].imm == 8
        assert prog.instructions[1].imm == -4
        assert prog.instructions[2].imm == 0

    def test_register_alu_form(self):
        prog = assemble("add r1, r2, r3\nhalt")
        assert prog.instructions[0].rs2 == 3

    def test_immediate_alu_form(self):
        prog = assemble("xor r1, r2, #0xff\nhalt")
        assert prog.instructions[0].imm == 0xFF

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("frobnicate r1")

    def test_bad_operand_count_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("add r1, r2")

    def test_bad_memory_operand_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("ld r1, r2")

    def test_jmpi_and_rdtsc(self):
        prog = assemble("rdtsc r3\njmpi r3\nhalt")
        assert prog.instructions[0].opcode is Opcode.RDTSC
        assert prog.instructions[1].opcode is Opcode.JMPI

    def test_assembles_what_disassembler_prints(self):
        source = "li r1, #5\nld r2, [r1+0]\nbeq r2, r0, out\nout:\nhalt"
        prog = assemble(source)
        assert len(prog) == 4
