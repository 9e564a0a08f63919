"""The ISA's value semantics, defined once for every simulator path.

``ALU_EXPR`` holds each ALU operation as a Python expression over the
placeholders ``{x}`` (rs1) and ``{y}`` (rs2 or the unsigned immediate);
``ALU`` holds the same expressions compiled to two-argument callables.
Results are unmasked: callers truncate to 64 bits.  ``BRANCH`` maps each
condition to its comparison on *signed* operands.

The cycle core, the fast backend's compiled step factories and its
wrong-path interpreter all read these tables.  The reference oracle
(:mod:`repro.verify.oracle`) deliberately keeps its own hand-written
copy: the oracle differential compares the simulators against it.
"""

from __future__ import annotations

import operator

from repro.isa.instructions import AluOp, BranchCond

ALU_EXPR = {
    AluOp.ADD: "{x} + {y}",
    AluOp.SUB: "{x} - {y}",
    AluOp.MUL: "{x} * {y}",
    AluOp.AND: "{x} & {y}",
    AluOp.OR: "{x} | {y}",
    AluOp.XOR: "{x} ^ {y}",
    AluOp.SHL: "{x} << ({y} & 63)",
    AluOp.SHR: "{x} >> ({y} & 63)",
}

ALU = {op: eval("lambda x, y: " + expr.format(x="x", y="y"))
       for op, expr in ALU_EXPR.items()}

BRANCH = {
    BranchCond.EQ: operator.eq,
    BranchCond.NE: operator.ne,
    BranchCond.LT: operator.lt,
    BranchCond.GE: operator.ge,
}
