"""The fast-functional backend: lowered closures + windowed speculation.

Instead of simulating every pipeline event, each decoded
:class:`~repro.isa.program.Program` is lowered once into one specialized
Python closure per static instruction (register indices, immediates,
branch targets and memory callbacks pre-resolved) dispatched through a
dense list.  Committed, correctly-predicted code therefore runs at
functional-interpreter speed.

The micro-architecture is engaged exactly where the paper's experiments
need it:

* **Committed memory accesses** go through the real
  :class:`~repro.memory.hierarchy.MemoryHierarchy` (TLBs, caches, page
  walker) — on the SafeSpec policies via a per-access shadow sink whose
  fills are promoted immediately, mirroring what the cycle core's
  access-at-execute + promote-at-commit sequence leaves behind.
* **Branches** consult and train the real direction predictor and BTB
  (property P3), and a misprediction *emulates the wrong path*: the
  predicted-path instructions are interpreted against a scratch register
  file, their cache/TLB fills routed through the policy's fill sink and
  annulled at resolution (property P2).
* **Faults** are raised at commit with the younger window emulated the
  same way; under WFB the faulting access's shadow state is promoted
  before the squash — the paper's Meltdown hole — while WFC annuls it.

Timing is a dataflow scoreboard, not a cycle loop: per-register ready
times, a fetch cursor (fetch width, front-end depth, i-miss stalls), a
commit cursor (commit width), real hierarchy latencies for loads, and
the mispredict penalty.  Cycle counts track the cycle core within the
tolerance documented in the README; architectural state is bit-exact.

Shadow-occupancy histograms are *not* sampled (there is no per-cycle
loop), so Table 5 / occupancy figures require the cycle backend.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.backends import register_backend
from repro.core.policy import CommitPolicy
from repro.errors import SimulationError
from repro.frontend.predictors import BimodalPredictor
from repro.isa.instructions import InstructionClass, Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_REGISTERS, to_unsigned
from repro.isa.semantics import ALU, ALU_EXPR, BRANCH
from repro.memory.hierarchy import AccessResult
from repro.memory.paging import PrivilegeLevel
from repro.pipeline.core import FaultEvent, RunResult

_M = (1 << 64) - 1
_T63 = 1 << 63
_T64 = 1 << 64

# counters-list indices, in the cycle core's historical key order
_R, _SQ, _BR, _MIS, _FLT = 0, 1, 2, 3, 4
_DA, _DM, _DL1, _DSH = 5, 6, 7, 8
_IA, _IM, _IL1, _ISH = 9, 10, 11, 12
_FW = 13
_NCOUNTERS = 14
_COUNTER_KEYS = (
    "committed", "squashed", "branches", "mispredicts", "faults",
    "dcache_read_accesses", "dcache_read_misses", "dcache_l1_hits",
    "dcache_shadow_hits", "icache_accesses", "icache_misses",
    "icache_l1_hits", "icache_shadow_hits", "store_forwards",
)

# window-interpreter record opcodes
_W_ALU, _W_LOADIMM, _W_LOAD, _W_STORE = 0, 1, 2, 3
_W_BRANCH, _W_JMP, _W_JMPI, _W_CLFLUSH = 4, 5, 6, 7
_W_STOP, _W_NOP = 8, 9
_W_CALL, _W_RET = 10, 11


def _compile_alu_steps():
    """Step factories with the ALU operator inlined, one per (op, form).

    Compiled once at import from :data:`repro.isa.semantics.ALU_EXPR`,
    with every captured name bound as a default argument: on ALU-dense
    workloads a dynamic operator call per committed instruction is a
    measurable share of the dispatch loop.  ``rhs`` doubles as the second
    register index in the register form and holds the unsigned immediate
    in the immediate form; ``lat`` is the ALU or multiplier latency.
    """
    reg_dep = ("        t = rt[rhs]\n"
               "        if t > s:\n"
               "            s = t\n")
    template = """\
def factory(backend, rd, a, rhs, lat, LN, PC, nxt):
    def step(rd=rd, a=a, rhs=rhs, lat=lat, LN=LN, PC=PC, nxt=nxt,
             regs=backend.regs, rt=backend.rt, tm=backend.tm,
             cn=backend.cn, il=backend.il, ifetch=backend._ifetch,
             fs=backend._fs, cs=backend._cs, depth=backend._depth):
        if il[0] != LN:
            ifetch(LN, PC)
        regs[rd] = ({expr}) & _M
        f = tm[0] + fs
        tm[0] = f
        s = f + depth
        t = rt[a]
        if t > s:
            s = t
{dep}        d = s + lat
        rt[rd] = d
        c = tm[1] + cs
        if d + 1.0 > c:
            c = d + 1.0
        tm[1] = c
        cn[0] += 1
        return nxt
    return step
"""
    factories = {}
    for alu_op, expr in ALU_EXPR.items():
        for is_reg, y, dep in ((True, "regs[rhs]", reg_dep),
                               (False, "rhs", "")):
            namespace = {"_M": _M}
            code = expr.format(x="regs[a]", y=y)
            exec(template.format(expr=code, dep=dep), namespace)
            factories[alu_op, is_reg] = namespace["factory"]
    return factories


_ALU_STEPS = _compile_alu_steps()


class _Standin:
    """Minimal micro-op stand-in for the SafeSpec engine's hooks."""

    __slots__ = ("seq", "promoted")

    def __init__(self, seq: int) -> None:
        self.seq = seq
        self.promoted = False


@register_backend("fast")
class FastBackend:
    """Lowered-closure functional core with windowed speculation."""

    _CACHE_CAP = 8   # lowered programs kept per backend instance

    def __init__(self) -> None:
        self._machine = None
        self._cache: Dict[int, tuple] = {}
        self._seq = 0
        # Mutable cells shared with the lowered closures (reset per run).
        self.regs: List[int] = [0] * NUM_REGISTERS
        self.rt: List[float] = [0.0] * NUM_REGISTERS
        self.tm: List[float] = [0.0, 0.0]        # fetch cursor, commit cursor
        self.cn: List[int] = [0] * _NCOUNTERS
        # [last committed i-line, its vpn, its physical page base].  The
        # vpn/page pair caches the committed-path i-translation: i-side
        # TLB state only moves on a page change, a fault redirect or a
        # speculative window, each of which resets il[1] to -1.
        self.il: List[int] = [-1, -1, 0]
        self.privilege = PrivilegeLevel.USER
        self.reason = ""
        self.fault_events: List[FaultEvent] = []
        self._handler_idx: Optional[int] = None

    # ------------------------------------------------------------------
    # machine binding
    # ------------------------------------------------------------------

    def _bind(self, machine) -> None:
        if machine is self._machine:
            return
        self._machine = machine
        self._cache.clear()
        cfg = machine.core_config
        self.hier = machine.hierarchy
        self.predictor = machine.predictor
        self.btb = machine.btb
        self.engine = machine.engine
        self.policy = machine.policy
        self._wfb = machine.policy is CommitPolicy.WFB
        self.rsb = machine.rsb
        self._mds = cfg.mem_dep_speculation
        # BHB off (the default) → a static branch's BTB index never
        # changes and the branch closures may inline raw target-dict
        # accesses at a precomputed index.  BHB on → every index folds
        # in the run-time global history, so the closures fall back to
        # the BranchTargetBuffer methods.
        self._plain_btb = machine.btb.config.history_bits == 0
        self._fs = 1.0 / cfg.fetch_width
        self._cs = 1.0 / cfg.commit_width
        self._depth = float(cfg.front_end_depth)
        self._alat = float(cfg.alu_latency)
        self._mlat = float(cfg.mul_latency)
        self._pen = float(cfg.mispredict_penalty)
        self._fwid = cfg.fetch_width
        self._rob = cfg.rob_entries
        self._maxc = float(cfg.max_cycles)
        self._i_hit = float(self.hier.config.l1i.hit_latency)
        self._d_hit = self.hier.config.l1d.hit_latency
        self._l2_lat = float(self.hier.config.l2.hit_latency)
        self._tlb_hit = self.hier.config.dtlb.hit_latency
        # Pre-bound hot-path methods (one attribute walk instead of three
        # on every committed fetch/load).
        hier = self.hier
        self._itlb_lookup = hier.itlb.lookup
        self._itlb_peek = hier.itlb.peek
        self._itlb_refresh = hier.itlb.refresh
        self._l1i_touch = hier.l1i.touch
        self._l1i_refresh = hier.l1i.refresh
        self._l2_refresh = hier.l2.refresh
        self._l3_refresh = hier.l3.refresh
        self._fetch_access = hier.fetch_access
        # Raw structure views for the committed hit paths.  The recency
        # refreshes there reduce to "if present, move to MRU" on the
        # underlying per-set OrderedDicts; going through Cache.refresh /
        # Tlb.refresh costs a call per level per access, which dominates
        # the closures' own work.  Geometry is frozen at bind time (the
        # hierarchy cannot be reshaped mid-run).
        self._itlb_entries = hier.itlb._entries
        self._dtlb_entries = hier.dtlb._entries
        self._l1i_geo = (hier.l1i._sets, hier.l1i._line_mask,
                         hier.l1i._set_shift, hier.l1i._set_mask)
        self._l1d_geo = (hier.l1d._sets, hier.l1d._line_mask,
                         hier.l1d._set_shift, hier.l1d._set_mask)
        self._l2_geo = (hier.l2._sets, hier.l2._line_mask,
                        hier.l2._set_shift, hier.l2._set_mask)
        self._l3_geo = (hier.l3._sets, hier.l3._line_mask,
                        hier.l3._set_shift, hier.l3._set_mask)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------

    def run(self, machine, program: Program, *,
            max_instructions: Optional[int] = None,
            privilege: PrivilegeLevel = PrivilegeLevel.USER,
            fault_handler_pc: Optional[int] = None,
            initial_registers: Optional[Dict[int, int]] = None,
            start_pc: Optional[int] = None
            ) -> RunResult:
        self._bind(machine)
        steps, _ = self._lowered(program)
        n = len(steps)
        self._program = program
        regs = self.regs
        rt = self.rt
        for i in range(NUM_REGISTERS):
            regs[i] = 0
            rt[i] = 0.0
        for reg, value in (initial_registers or {}).items():
            regs[reg] = to_unsigned(value)
        tm = self.tm
        tm[0] = 0.0
        tm[1] = 0.0
        cn = self.cn
        for i in range(_NCOUNTERS):
            cn[i] = 0
        self.il[0] = -1
        self.il[1] = -1
        self.privilege = privilege
        self.reason = ""
        self.fault_events = []
        self._handler_idx = self._index_or_end(program, fault_handler_pc)
        budget = max_instructions if max_instructions is not None \
            else float("inf")

        start = self._index_or_end(program, start_pc)
        i = 0 if start is None else start
        while True:
            if i >= n:
                self.reason = "ran_off_code"
                break
            i = steps[i]()
            if i < 0:
                break
            if cn[_R] >= budget:
                self.reason = "budget"
                break

        # On a budget stop ``i`` already indexes the next instruction
        # (every committed step retires exactly one), which is the
        # resume point checkpointing records.
        next_pc = (program.code_base + (i << 4)
                   if self.reason == "budget" else None)
        counters = dict(zip(_COUNTER_KEYS, cn))
        cycles = int(tm[1]) + 1
        counters["cycles"] = cycles
        return RunResult(
            cycles=cycles,
            instructions=cn[_R],
            registers=tuple(regs),
            halted_reason=self.reason,
            fault_events=list(self.fault_events),
            counters=counters,
            next_pc=next_pc,
        )

    def _index_or_end(self, program: Program,
                      pc: Optional[int]) -> Optional[int]:
        """Instruction index for a redirect PC; past-the-end (→ the main
        loop's ran_off_code) when the PC leaves the code image."""
        if pc is None:
            return None
        off = pc - program.code_base
        size = len(program.instructions) << 4
        if 0 <= off < size and not off & 15:
            return off >> 4
        return len(program.instructions)

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------

    def _lowered(self, program: Program):
        """The per-program dispatch lists, built lazily.

        ``steps`` starts as self-replacing trampolines: an instruction is
        lowered to its specialized closure the first time it executes —
        code-heavy programs commit only a fraction of their static
        instructions, so eager lowering would dominate short runs.
        ``win`` records fill in on first speculative-window visit.
        """
        key = id(program)
        hit = self._cache.get(key)
        if hit is not None and hit[0] is program:
            return hit[1], hit[2]
        if len(self._cache) >= self._CACHE_CAP:
            self._cache.pop(next(iter(self._cache)))
        instructions = program.instructions
        n = len(instructions)
        steps: list = [None] * n
        win: list = [None] * n
        lower_one = self._lower_one
        for idx in range(n):
            def tramp(idx=idx):
                step = lower_one(program, idx, instructions[idx])
                steps[idx] = step
                return step()
            steps[idx] = tramp
        self._cache[key] = (program, steps, win)
        return steps, win

    def _win_record(self, program: Program, idx: int, inst):
        op = inst.opcode
        imm_u = to_unsigned(inst.imm) if inst.imm is not None else 0
        imm_raw = inst.imm or 0
        if op is Opcode.ALU:
            return (_W_ALU, inst.rd, inst.rs1, inst.rs2, imm_u,
                    0, ALU[inst.alu_op])
        if op is Opcode.LOADIMM:
            return (_W_LOADIMM, inst.rd, 0, None, imm_u, 0, None)
        if op is Opcode.LOAD:
            return (_W_LOAD, inst.rd, inst.rs1, None, imm_raw, 0, None)
        if op is Opcode.STORE:
            return (_W_STORE, 0, inst.rs1, inst.rs2, imm_raw, 0, None)
        if op is Opcode.BRANCH:
            return (_W_BRANCH, 0, inst.rs1, inst.rs2, 0,
                    inst.target, BRANCH[inst.cond])
        if op is Opcode.JMP:
            return (_W_JMP, 0, 0, None, 0, inst.target, None)
        if op is Opcode.JMPI:
            return (_W_JMPI, 0, inst.rs1, None, 0, 0, None)
        if op is Opcode.CALL:
            return (_W_CALL, inst.rd, 0, None, 0, inst.target, None)
        if op is Opcode.RET:
            return (_W_RET, 0, inst.rs1, None, 0, 0, None)
        if op is Opcode.CLFLUSH:
            return (_W_CLFLUSH, 0, inst.rs1, None, imm_raw, 0, None)
        if op is Opcode.NOP:
            return (_W_NOP, 0, 0, None, 0, 0, None)
        return (_W_STOP, 0, 0, None, 0, 0, None)   # RDTSC/FENCE/HALT

    def _lower_one(self, program: Program, idx: int, inst):
        """Build the committed-path closure for one static instruction."""
        pc = program.code_base + (idx << 4)
        line = pc & ~63
        nxt = idx + 1
        regs, rt, tm, cn, il = self.regs, self.rt, self.tm, self.cn, self.il
        fs, cs, depth = self._fs, self._cs, self._depth
        ifetch = self._ifetch
        op = inst.opcode

        if op is Opcode.ALU:
            b = inst.rs2
            rhs = b if b is not None else to_unsigned(inst.imm)
            lat = (self._mlat if inst.inst_class is InstructionClass.MUL
                   else self._alat)
            return _ALU_STEPS[inst.alu_op, b is not None](
                self, inst.rd, inst.rs1, rhs, lat, line, pc, nxt)

        if op is Opcode.LOADIMM:
            rd = inst.rd
            value = to_unsigned(inst.imm)
            lat = self._alat
            def step(rd=rd, value=value, lat=lat, LN=line, PC=pc):
                if il[0] != LN:
                    ifetch(LN, PC)
                regs[rd] = value
                f = tm[0] + fs
                tm[0] = f
                d = f + depth + lat
                rt[rd] = d
                c = tm[1] + cs
                if d + 1.0 > c:
                    c = d + 1.0
                tm[1] = c
                cn[0] += 1
                return nxt
            return step

        if op is Opcode.LOAD:
            return self._lower_load(inst, idx, pc, line, nxt)
        if op is Opcode.STORE:
            return self._lower_store(inst, idx, pc, line, nxt)
        if op in (Opcode.BRANCH, Opcode.JMP, Opcode.JMPI,
                  Opcode.CALL, Opcode.RET):
            return self._lower_branch(program, inst, idx, pc, line, nxt)

        if op is Opcode.CLFLUSH:
            a = inst.rs1
            imm = inst.imm or 0
            flush = self._commit_clflush
            def step(a=a, imm=imm, LN=line, PC=pc):
                if il[0] != LN:
                    ifetch(LN, PC)
                va = (regs[a] + imm) & _M
                flush(va)
                f = tm[0] + fs
                tm[0] = f
                s = f + depth
                t = rt[a]
                if t > s:
                    s = t
                d = s + 1.0
                c = tm[1] + cs
                if d + 1.0 > c:
                    c = d + 1.0
                tm[1] = c
                cn[0] += 1
                return nxt
            return step

        if op is Opcode.RDTSC:
            rd = inst.rd
            def step(rd=rd, LN=line, PC=pc):
                if il[0] != LN:
                    ifetch(LN, PC)
                f = tm[0] + fs
                tm[0] = f
                s = f + depth
                if tm[1] > s:           # serialising: waits for ROB head
                    s = tm[1]
                regs[rd] = int(s) & _M
                d = s + 1.0
                rt[rd] = d
                c = tm[1] + cs
                if d + 1.0 > c:
                    c = d + 1.0
                tm[1] = c
                cn[0] += 1
                return nxt
            return step

        if op is Opcode.FENCE:
            def step(LN=line, PC=pc):
                if il[0] != LN:
                    ifetch(LN, PC)
                f = tm[0] + fs
                tm[0] = f
                s = f + depth
                if tm[1] > s:           # issue barrier + serialising
                    s = tm[1]
                d = s + 1.0
                if d > tm[0]:
                    tm[0] = d
                c = tm[1] + cs
                if d + 1.0 > c:
                    c = d + 1.0
                tm[1] = c
                cn[0] += 1
                return nxt
            return step

        if op is Opcode.HALT:
            backend = self
            def step(LN=line, PC=pc):
                if il[0] != LN:
                    ifetch(LN, PC)
                f = tm[0] + fs
                tm[0] = f
                d = f + depth + 1.0
                c = tm[1] + cs
                if d + 1.0 > c:
                    c = d + 1.0
                tm[1] = c
                cn[0] += 1
                backend.reason = "halt"
                return -1
            return step

        # NOP
        def step(LN=line, PC=pc):
            if il[0] != LN:
                ifetch(LN, PC)
            f = tm[0] + fs
            tm[0] = f
            c = tm[1] + cs
            d = f + depth + 1.0
            if d + 1.0 > c:
                c = d + 1.0
            tm[1] = c
            cn[0] += 1
            return nxt
        return step

    # ------------------------------------------------------------------
    # memory closures
    # ------------------------------------------------------------------

    def _lower_load(self, inst, idx, pc, line, nxt):
        regs, rt, tm, cn, il = self.regs, self.rt, self.tm, self.cn, self.il
        fs, cs, depth = self._fs, self._cs, self._depth
        ifetch = self._ifetch
        rd, a = inst.rd, inst.rs1
        imm = inst.imm or 0
        hier = self.hier
        mem_read = hier.memory.read_word
        l1d = hier.l1d
        lat_hit = float(self._tlb_hit + self._d_hit)
        slow = self._load_slow
        if self.engine is None:
            # Inlined dtlb.lookup + l1d.touch: identical LRU updates and
            # hit/miss statistics, one call each fewer per load.
            dtlb = self._dtlb_entries
            tlb_hits = hier.dtlb._hits
            tlb_misses = hier.dtlb._misses
            s1, m1, h1, k1 = self._l1d_geo
            l1_hits = l1d._hits
            l1_misses = l1d._misses
            words = hier.memory._words
            def step(rd=rd, a=a, imm=imm, LN=line, PC=pc):
                if il[0] != LN:
                    ifetch(LN, PC)
                va = (regs[a] + imm) & _M
                f = tm[0] + fs
                tm[0] = f
                s = f + depth
                t = rt[a]
                if t > s:
                    s = t
                vpn = va >> 12
                trans = dtlb.get(vpn)
                if trans is not None:
                    dtlb.move_to_end(vpn)
                    tlb_hits.value += 1
                    p = trans.permissions
                    if p.readable and not p.supervisor_only:
                        paddr = (trans.ppn << 12) | (va & 4095)
                        ln = paddr & m1
                        st = s1[(paddr >> h1) & k1]
                        if ln in st:
                            st.move_to_end(ln)
                            l1_hits.value += 1
                            cn[5] += 1
                            cn[7] += 1
                            regs[rd] = words.get(paddr >> 3, 0) \
                                if not paddr & 7 else mem_read(paddr)
                            d = s + lat_hit
                            rt[rd] = d
                            c = tm[1] + cs
                            if d + 1.0 > c:
                                c = d + 1.0
                            tm[1] = c
                            cn[0] += 1
                            return nxt
                        l1_misses.value += 1
                else:
                    tlb_misses.value += 1
                return slow(nxt, PC, rd, va, s)
            return step

        # The committed L1-hit path inlines the peek/refresh chain onto
        # the raw cache sets — same state transitions as
        # dtlb.peek/refresh + Cache.refresh, without five calls per load.
        dtlb = self._dtlb_entries
        s1, m1, h1, k1 = self._l1d_geo
        s2, m2, h2, k2 = self._l2_geo
        s3, m3, h3, k3 = self._l3_geo
        words = hier.memory._words
        def step(rd=rd, a=a, imm=imm, LN=line, PC=pc):
            if il[0] != LN:
                ifetch(LN, PC)
            va = (regs[a] + imm) & _M
            f = tm[0] + fs
            tm[0] = f
            s = f + depth
            t = rt[a]
            if t > s:
                s = t
            vpn = va >> 12
            trans = dtlb.get(vpn)
            if trans is not None:
                p = trans.permissions
                if p.readable and not p.supervisor_only:
                    paddr = (trans.ppn << 12) | (va & 4095)
                    ln = paddr & m1
                    st = s1[(paddr >> h1) & k1]
                    if ln in st:
                        st.move_to_end(ln)
                        cn[5] += 1
                        cn[7] += 1
                        dtlb.move_to_end(vpn)
                        ln = paddr & m2
                        st = s2[(paddr >> h2) & k2]
                        if ln in st:
                            st.move_to_end(ln)
                        ln = paddr & m3
                        st = s3[(paddr >> h3) & k3]
                        if ln in st:
                            st.move_to_end(ln)
                        regs[rd] = words.get(paddr >> 3, 0) \
                            if not paddr & 7 else mem_read(paddr)
                        d = s + lat_hit
                        rt[rd] = d
                        c = tm[1] + cs
                        if d + 1.0 > c:
                            c = d + 1.0
                        tm[1] = c
                        cn[0] += 1
                        return nxt
            return slow(nxt, PC, rd, va, s)
        return step

    def _lower_store(self, inst, idx, pc, line, nxt):
        if self._mds:
            return self._lower_store_memdep(inst, idx, pc, line, nxt)
        regs, rt, tm, cn, il = self.regs, self.rt, self.tm, self.cn, self.il
        fs, cs, depth = self._fs, self._cs, self._depth
        ifetch = self._ifetch
        a, b = inst.rs1, inst.rs2
        imm = inst.imm or 0
        hier = self.hier
        commit_store = hier.commit_store
        slow = self._store_slow
        if self.engine is None:
            # Inlined dtlb.lookup + permissions.allows(write, USER).
            dtlb = self._dtlb_entries
            tlb_hits = hier.dtlb._hits
            tlb_misses = hier.dtlb._misses
            def step(a=a, b=b, imm=imm, LN=line, PC=pc):
                if il[0] != LN:
                    ifetch(LN, PC)
                va = (regs[a] + imm) & _M
                f = tm[0] + fs
                tm[0] = f
                s = f + depth
                t = rt[a]
                if t > s:
                    s = t
                t = rt[b]
                if t > s:
                    s = t
                vpn = va >> 12
                trans = dtlb.get(vpn)
                if trans is not None:
                    dtlb.move_to_end(vpn)
                    tlb_hits.value += 1
                    p = trans.permissions
                    if p.writable and not p.supervisor_only:
                        commit_store((trans.ppn << 12) | (va & 4095),
                                     regs[b])
                        d = s + 1.0
                        c = tm[1] + cs
                        if d + 1.0 > c:
                            c = d + 1.0
                        tm[1] = c
                        cn[0] += 1
                        return nxt
                else:
                    tlb_misses.value += 1
                return slow(nxt, PC, va, regs[b], s)
            return step

        # Inlined dtlb.peek/refresh + permissions.allows(write, USER).
        dtlb = self._dtlb_entries
        def step(a=a, b=b, imm=imm, LN=line, PC=pc):
            if il[0] != LN:
                ifetch(LN, PC)
            va = (regs[a] + imm) & _M
            f = tm[0] + fs
            tm[0] = f
            s = f + depth
            t = rt[a]
            if t > s:
                s = t
            t = rt[b]
            if t > s:
                s = t
            vpn = va >> 12
            trans = dtlb.get(vpn)
            if trans is not None:
                p = trans.permissions
                if p.writable and not p.supervisor_only:
                    commit_store((trans.ppn << 12) | (va & 4095), regs[b])
                    dtlb.move_to_end(vpn)
                    d = s + 1.0
                    c = tm[1] + cs
                    if d + 1.0 > c:
                        c = d + 1.0
                    tm[1] = c
                    cn[0] += 1
                    return nxt
            return slow(nxt, PC, va, regs[b], s)
        return step

    def _lower_store_memdep(self, inst, idx, pc, line, nxt):
        """Store under memory-dependence speculation (Spectre v4).

        When the address operand resolves late (slower than an L2 hit),
        the cycle core's speculating LSQ lets younger loads issue past
        the unresolved store and consume *pre-store* memory before the
        squash-on-conflict replay corrects them.  Here that bypass runs
        as a speculative window over the following committed stream
        against the stale memory image, then the store commits and the
        real stream re-executes — architectural state matches the
        replayed cycle run, the window's fills are the v4 transmission.
        Under WFB the in-flight loads carry no branch dependence, so
        their shadow state promotes (the window is a *fault-style*
        promote window); WFC annuls it.
        """
        regs, rt, tm, cn, il = self.regs, self.rt, self.tm, self.cn, self.il
        fs, cs, depth = self._fs, self._cs, self._depth
        pen, fwid, rob, maxc = self._pen, self._fwid, self._rob, self._maxc
        ifetch = self._ifetch
        a, b = inst.rs1, inst.rs2
        imm = inst.imm or 0
        slow = self._store_slow
        backend = self
        l2_lat = self._l2_lat
        def step(a=a, b=b, imm=imm, LN=line, PC=pc):
            if il[0] != LN:
                ifetch(LN, PC)
            va = (regs[a] + imm) & _M
            f = tm[0] + fs
            tm[0] = f
            s = f + depth
            t = rt[a]
            if t > s:
                s = t
            t = rt[b]
            if t > s:
                s = t
            late = rt[a] - (f + depth)
            if late > l2_lat:
                bud = int(late * fwid)
                if bud > rob:
                    bud = rob
                backend._spec_run(nxt, list(regs), bud,
                                  promote=backend._wfb)
                # Squash-on-conflict replay: redirect penalty, i-side
                # state perturbed by the window.
                tm[0] = s + 1.0 + pen
                il[0] = -1
                il[1] = -1
            r = slow(nxt, PC, va, regs[b], s)
            if tm[1] > maxc:
                raise SimulationError(f"exceeded max_cycles={int(maxc)}")
            return r
        return step

    # ------------------------------------------------------------------
    # branch closures
    # ------------------------------------------------------------------

    def _lower_branch(self, program, inst, idx, pc, line, nxt):
        regs, rt, tm, cn, il = self.regs, self.rt, self.tm, self.cn, self.il
        fs, cs, depth = self._fs, self._cs, self._depth
        pen, fwid, rob, maxc = self._pen, self._fwid, self._rob, self._maxc
        ifetch = self._ifetch
        window = self._window
        backend = self
        op = inst.opcode

        # The BTB index of a static branch never changes, so every
        # lookup/update below is inlined onto the raw target dict with
        # a precomputed index — same state transitions and statistics as
        # BranchTargetBuffer.predict_target/update, without a method
        # call per committed branch.
        btb = self.btb
        btb_targets = btb._targets
        btb_index = (pc >> btb.config.shift) & (btb.config.entries - 1)
        btb_lookups, btb_hits = btb._lookups, btb._hits
        btb_updates = btb._updates

        if op is Opcode.JMP:
            tgt_idx = inst.target
            tgt_pc = program.pc_of(tgt_idx)
            if not self._plain_btb:
                btb_update = btb.update
                def step(LN=line, PC=pc, tgt_pc=tgt_pc, tgt_idx=tgt_idx,
                         btb_update=btb_update):
                    if il[0] != LN:
                        ifetch(LN, PC)
                    cn[2] += 1
                    btb_update(PC, tgt_pc)
                    f = tm[0] + fs
                    tm[0] = f
                    d = f + depth + 1.0
                    c = tm[1] + cs
                    if d + 1.0 > c:
                        c = d + 1.0
                    tm[1] = c
                    cn[0] += 1
                    if tm[1] > maxc:
                        raise SimulationError(
                            f"exceeded max_cycles={int(maxc)}")
                    return tgt_idx
                return step
            def step(LN=line, PC=pc, tgt_pc=tgt_pc, tgt_idx=tgt_idx,
                     TI=btb_index):
                if il[0] != LN:
                    ifetch(LN, PC)
                cn[2] += 1
                btb_updates.value += 1
                btb_targets[TI] = tgt_pc
                f = tm[0] + fs
                tm[0] = f
                d = f + depth + 1.0
                c = tm[1] + cs
                if d + 1.0 > c:
                    c = d + 1.0
                tm[1] = c
                cn[0] += 1
                # No il reset: a cross-line target differs from il[0] and
                # refetches via the target's own prologue; a same-line
                # target needs no refetch (the cycle core's commit-time
                # refresh is gated per distinct line, so it would not
                # touch recency again either).
                if tm[1] > maxc:
                    raise SimulationError(
                        f"exceeded max_cycles={int(maxc)}")
                return tgt_idx
            return step

        if op is Opcode.JMPI:
            a = inst.rs1
            code_base = program.code_base
            size = len(program.instructions) << 4
            if not self._plain_btb:
                btb_predict = btb.predict_target
                btb_update = btb.update
                def step(a=a, LN=line, PC=pc,
                         btb_predict=btb_predict, btb_update=btb_update):
                    if il[0] != LN:
                        ifetch(LN, PC)
                    tgt = regs[a]
                    pred = btb_predict(PC)
                    cn[2] += 1
                    btb_update(PC, tgt)
                    f = tm[0] + fs
                    tm[0] = f
                    s = f + depth
                    t = rt[a]
                    if t > s:
                        s = t
                    d = s + 1.0
                    c = tm[1] + cs
                    if d + 1.0 > c:
                        c = d + 1.0
                    tm[1] = c
                    cn[0] += 1
                    if pred != tgt:
                        cn[3] += 1
                        bud = int((d - f - depth) * fwid) + fwid
                        if bud > rob:
                            bud = rob
                        if pred is None:
                            window(nxt, bud)
                        else:
                            poff = pred - code_base
                            if 0 <= poff < size and not poff & 15:
                                window(poff >> 4, bud)
                        tm[0] = d + pen
                        # The window may have perturbed i-side state.
                        il[0] = -1
                        il[1] = -1
                    if tm[1] > maxc:
                        raise SimulationError(
                            f"exceeded max_cycles={int(maxc)}")
                    off = tgt - code_base
                    if 0 <= off < size and not off & 15:
                        return off >> 4
                    backend.reason = "ran_off_code"
                    return -1
                return step
            def step(a=a, LN=line, PC=pc, TI=btb_index):
                if il[0] != LN:
                    ifetch(LN, PC)
                tgt = regs[a]
                btb_lookups.value += 1
                pred = btb_targets.get(TI)
                if pred is not None:
                    btb_hits.value += 1
                cn[2] += 1
                btb_updates.value += 1
                btb_targets[TI] = tgt
                f = tm[0] + fs
                tm[0] = f
                s = f + depth
                t = rt[a]
                if t > s:
                    s = t
                d = s + 1.0
                c = tm[1] + cs
                if d + 1.0 > c:
                    c = d + 1.0
                tm[1] = c
                cn[0] += 1
                if pred != tgt:
                    cn[3] += 1
                    bud = int((d - f - depth) * fwid) + fwid
                    if bud > rob:
                        bud = rob
                    if pred is None:
                        window(nxt, bud)
                    else:
                        poff = pred - code_base
                        if 0 <= poff < size and not poff & 15:
                            window(poff >> 4, bud)
                    tm[0] = d + pen
                    # The window may have perturbed i-side state.
                    il[0] = -1
                    il[1] = -1
                if tm[1] > maxc:
                    raise SimulationError(
                        f"exceeded max_cycles={int(maxc)}")
                off = tgt - code_base
                if 0 <= off < size and not off & 15:
                    return off >> 4
                backend.reason = "ran_off_code"
                return -1
            return step

        if op is Opcode.CALL:
            # Direct target: never mispredicts (pred == actual by
            # construction, as in the cycle core).  Pushes the return
            # address onto the RSB and installs the target in the BTB.
            rd = inst.rd
            tgt_idx = inst.target
            tgt_pc = program.pc_of(tgt_idx)
            link = pc + 16
            rsb_push = self.rsb.push
            plain = self._plain_btb
            btb_update = btb.update
            def step(rd=rd, LN=line, PC=pc, link=link, tgt_pc=tgt_pc,
                     tgt_idx=tgt_idx, TI=btb_index, rsb_push=rsb_push,
                     plain=plain, btb_update=btb_update):
                if il[0] != LN:
                    ifetch(LN, PC)
                cn[2] += 1
                rsb_push(link)
                if plain:
                    btb_updates.value += 1
                    btb_targets[TI] = tgt_pc
                else:
                    btb_update(PC, tgt_pc)
                regs[rd] = link
                f = tm[0] + fs
                tm[0] = f
                d = f + depth + 1.0
                rt[rd] = d
                c = tm[1] + cs
                if d + 1.0 > c:
                    c = d + 1.0
                tm[1] = c
                cn[0] += 1
                if tm[1] > maxc:
                    raise SimulationError(
                        f"exceeded max_cycles={int(maxc)}")
                return tgt_idx
            return step

        if op is Opcode.RET:
            # Predicted by the RSB, never installed in the BTB.  An
            # empty RSB predicts fall-through and is *always* a
            # mispredict (actual-taken vs predicted-not-taken), matching
            # the cycle core's resolve rule — the ret2spec underflow.
            a = inst.rs1
            code_base = program.code_base
            size = len(program.instructions) << 4
            rsb_pop = self.rsb.pop
            def step(a=a, LN=line, PC=pc, rsb_pop=rsb_pop):
                if il[0] != LN:
                    ifetch(LN, PC)
                pred = rsb_pop()
                tgt = regs[a]
                cn[2] += 1
                f = tm[0] + fs
                tm[0] = f
                s = f + depth
                t = rt[a]
                if t > s:
                    s = t
                d = s + 1.0
                c = tm[1] + cs
                if d + 1.0 > c:
                    c = d + 1.0
                tm[1] = c
                cn[0] += 1
                if pred == 0 or pred != tgt:
                    cn[3] += 1
                    bud = int((d - f - depth) * fwid) + fwid
                    if bud > rob:
                        bud = rob
                    if pred == 0:
                        window(nxt, bud)
                    else:
                        poff = pred - code_base
                        if 0 <= poff < size and not poff & 15:
                            window(poff >> 4, bud)
                    tm[0] = d + pen
                    # The window may have perturbed i-side state.
                    il[0] = -1
                    il[1] = -1
                if tm[1] > maxc:
                    raise SimulationError(
                        f"exceeded max_cycles={int(maxc)}")
                off = tgt - code_base
                if 0 <= off < size and not off & 15:
                    return off >> 4
                backend.reason = "ran_off_code"
                return -1
            return step

        # conditional BRANCH
        a, b = inst.rs1, inst.rs2
        cond = BRANCH[inst.cond]
        tgt_idx = inst.target
        tgt_pc = program.pc_of(tgt_idx)
        predictor = self.predictor
        if type(predictor) is BimodalPredictor and self._plain_btb:
            # Same specialization as the BTB above: the 2-bit counter a
            # static branch trains never moves, so predict/update become
            # a read and a saturating write at a precomputed index —
            # state transitions and statistics identical to
            # BimodalPredictor.predict/update.
            counters = predictor._counters
            pred_index = (pc >> predictor._shift) & (predictor._entries - 1)
            predictions = predictor._predictions
            mispredictions = predictor._mispredictions
            def step(a=a, b=b, cond=cond, LN=line, PC=pc,
                     tgt_pc=tgt_pc, tgt_idx=tgt_idx,
                     PI=pred_index, TI=btb_index):
                if il[0] != LN:
                    ifetch(LN, PC)
                predictions.value += 1
                ctr = counters[PI]
                pred = ctr >= 2
                lv = regs[a]
                rv = regs[b]
                if lv >= _T63:
                    lv -= _T64
                if rv >= _T63:
                    rv -= _T64
                taken = cond(lv, rv)
                cn[2] += 1
                if taken:
                    if not pred:
                        mispredictions.value += 1
                    if ctr < 3:
                        counters[PI] = ctr + 1
                    btb_updates.value += 1
                    btb_targets[TI] = tgt_pc
                else:
                    if pred:
                        mispredictions.value += 1
                    if ctr > 0:
                        counters[PI] = ctr - 1
                f = tm[0] + fs
                tm[0] = f
                s = f + depth
                t = rt[a]
                if t > s:
                    s = t
                t = rt[b]
                if t > s:
                    s = t
                d = s + 1.0
                c = tm[1] + cs
                if d + 1.0 > c:
                    c = d + 1.0
                tm[1] = c
                cn[0] += 1
                if taken != pred:
                    cn[3] += 1
                    bud = int((d - f - depth) * fwid) + fwid
                    if bud > rob:
                        bud = rob
                    window(tgt_idx if pred else nxt, bud)
                    tm[0] = d + pen
                    # The window may have perturbed i-side state.
                    il[0] = -1
                    il[1] = -1
                    if tm[1] > maxc:
                        raise SimulationError(
                            f"exceeded max_cycles={int(maxc)}")
                    return tgt_idx if taken else nxt
                if taken:
                    # No il reset (see the JMP closure).
                    if tm[1] > maxc:
                        raise SimulationError(
                            f"exceeded max_cycles={int(maxc)}")
                    return tgt_idx
                return nxt
            return step

        predict = predictor.predict
        update = predictor.update
        btb_update = btb.update
        note_branch = btb.note_branch
        def step(a=a, b=b, cond=cond, LN=line, PC=pc,
                 tgt_pc=tgt_pc, tgt_idx=tgt_idx):
            if il[0] != LN:
                ifetch(LN, PC)
            pred = predict(PC)
            # Fetch-time BHB shift (predicted direction, as in the cycle
            # core); a no-op when history is disabled.
            note_branch(pred)
            lv = regs[a]
            rv = regs[b]
            if lv >= _T63:
                lv -= _T64
            if rv >= _T63:
                rv -= _T64
            taken = cond(lv, rv)
            cn[2] += 1
            update(PC, taken, pred)
            if taken:
                btb_update(PC, tgt_pc)
            f = tm[0] + fs
            tm[0] = f
            s = f + depth
            t = rt[a]
            if t > s:
                s = t
            t = rt[b]
            if t > s:
                s = t
            d = s + 1.0
            c = tm[1] + cs
            if d + 1.0 > c:
                c = d + 1.0
            tm[1] = c
            cn[0] += 1
            if taken != pred:
                cn[3] += 1
                bud = int((d - f - depth) * fwid) + fwid
                if bud > rob:
                    bud = rob
                window(tgt_idx if pred else nxt, bud)
                tm[0] = d + pen
                # The window may have perturbed i-side state.
                il[0] = -1
                il[1] = -1
                if tm[1] > maxc:
                    raise SimulationError(
                        f"exceeded max_cycles={int(maxc)}")
                return tgt_idx if taken else nxt
            if taken:
                # No il reset (see the JMP closure).
                if tm[1] > maxc:
                    raise SimulationError(
                        f"exceeded max_cycles={int(maxc)}")
                return tgt_idx
            return nxt
        return step

    # ------------------------------------------------------------------
    # committed i-side access
    # ------------------------------------------------------------------

    def _ifetch(self, line: int, pc: int) -> None:
        """Committed-path i-cache/iTLB access for a new fetch line."""
        il = self.il
        il[0] = line
        cn = self.cn
        cn[_IA] += 1
        hier = self.hier
        engine = self.engine
        vpn = pc >> 12
        if engine is None:
            trans = self._itlb_lookup(vpn)
            if trans is not None and self._l1i_touch(trans.physical(pc)):
                cn[_IL1] += 1
                return
            result = self._fetch_access(pc, privilege=self.privilege,
                                        sink=None)
        else:
            # Same page as the last committed fetch: the translation is
            # the cached one, and the cycle core's commit-time iTLB
            # refresh is gated per page — only the line recency remains.
            if il[1] == vpn:
                paddr = il[2] | (pc & 4095)
                hit = True
            else:
                trans = self._itlb_entries.get(vpn)
                if trans is not None:
                    paddr = (trans.ppn << 12) | (pc & 4095)
                    hit = True
                else:
                    paddr = 0
                    hit = False
            if hit:
                sets, lmask, shift, smask = self._l1i_geo
                ln = paddr & lmask
                st = sets[(paddr >> shift) & smask]
                if ln in st:
                    st.move_to_end(ln)
                    cn[_IL1] += 1
                    if il[1] != vpn:
                        self._itlb_refresh(vpn)
                        il[1] = vpn
                        il[2] = paddr & ~4095
                    sets, lmask, shift, smask = self._l2_geo
                    ln = paddr & lmask
                    st = sets[(paddr >> shift) & smask]
                    if ln in st:
                        st.move_to_end(ln)
                    sets, lmask, shift, smask = self._l3_geo
                    ln = paddr & lmask
                    st = sets[(paddr >> shift) & smask]
                    if ln in st:
                        st.move_to_end(ln)
                    return
            il[1] = -1
            std = _Standin(self._next_seq())
            result = self._fetch_access(pc, privilege=self.privilege,
                                        sink=engine.sink_for(std))
            engine.on_commit(std)
            hier.refresh_committed_translation("i", pc)
            if not result.tlb_hit:
                hier.refresh_walk_lines(pc)
            if result.hit_level in ("L1", "L2", "L3"):
                hier.refresh_line_recency("i", line)
        if result.hit_level == "shadow":
            cn[_ISH] += 1
        elif result.hit_level == "L1":
            cn[_IL1] += 1
        else:
            cn[_IM] += 1
        extra = result.latency - self._i_hit
        if extra > 0:
            self.tm[0] += extra     # fetch stalls for the miss

    # ------------------------------------------------------------------
    # committed d-side slow paths
    # ------------------------------------------------------------------

    def _load_slow(self, nxt: int, pc: int, rd: int, va: int,
                   s: float) -> int:
        hier = self.hier
        engine = self.engine
        cn = self.cn
        std = None
        if engine is None:
            result = hier.data_access(va, is_write=False,
                                      privilege=self.privilege, sink=None)
        else:
            std = _Standin(self._next_seq())
            result = hier.data_access(va, is_write=False,
                                      privilege=self.privilege,
                                      sink=engine.sink_for(std))
        cn[_DA] += 1
        if result.hit_level == "shadow":
            cn[_DSH] += 1
        elif result.hit_level == "L1":
            cn[_DL1] += 1
        else:
            cn[_DM] += 1
        if result.fault is not None:
            p1 = 0 if result.fault == "unmapped" \
                else hier.memory.read_word(result.paddr)
            return self._raise_fault(nxt, pc, va, result.fault, std,
                                     rd, p1, s + max(result.latency, 1))
        if engine is not None:
            engine.on_commit(std)
            hier.refresh_committed_translation("d", va)
            if not result.tlb_hit:
                hier.refresh_walk_lines(va)
            if result.hit_level in ("L1", "L2", "L3"):
                hier.refresh_line_recency(
                    "d", hier.l1d.line_address(result.paddr))
        self.regs[rd] = hier.memory.read_word(result.paddr)
        d = s + max(result.latency, 1)
        self.rt[rd] = d
        tm = self.tm
        c = tm[1] + self._cs
        if d + 1.0 > c:
            c = d + 1.0
        tm[1] = c
        cn[_R] += 1
        return nxt

    def _store_slow(self, nxt: int, pc: int, va: int, value: int,
                    s: float) -> int:
        hier = self.hier
        engine = self.engine
        result = AccessResult(latency=0)
        std = None
        if engine is None:
            sink = hier.default_sink()
        else:
            std = _Standin(self._next_seq())
            sink = engine.sink_for(std)
        trans = hier.translate("d", va, sink, result)
        fault = None
        if trans is None:
            fault = "unmapped"
        elif not trans.permissions.allows(write=True, execute=False,
                                          privilege=self.privilege):
            fault = "permission"
        if fault is not None:
            return self._raise_fault(nxt, pc, va, fault, std,
                                     None, 0, s + max(result.latency, 1))
        if engine is not None:
            engine.on_commit(std)
            hier.refresh_committed_translation("d", va)
            if not result.tlb_hit:
                hier.refresh_walk_lines(va)
        hier.commit_store(trans.physical(va), value)
        d = s + max(result.latency, 1)
        tm = self.tm
        c = tm[1] + self._cs
        if d + 1.0 > c:
            c = d + 1.0
        tm[1] = c
        self.cn[_R] += 1
        return nxt

    def _commit_clflush(self, va: int) -> None:
        trans = self.hier.page_table.lookup(va)
        if trans is not None:
            self.hier.clflush(trans.physical(va))

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------

    def _raise_fault(self, nxt: int, pc: int, va: int, kind: str,
                     std: Optional[_Standin], rd: Optional[int],
                     p1_value: int, d: float) -> int:
        """Commit-time fault: emulate the younger speculative window,
        squash it, record the event, redirect to the handler."""
        engine = self.engine
        if engine is not None and self._wfb and std is not None:
            # WFB promotes once branch dependences clear — for a fault
            # window there are none, so the faulting access's own shadow
            # state reaches the committed structures (the Meltdown hole).
            engine.on_branch_resolved(std)
        wregs = list(self.regs)
        if rd is not None:
            wregs[rd] = p1_value       # P1: the speculatively returned data
        self._spec_run(nxt, wregs, self._rob, promote=True)
        if engine is not None and std is not None:
            engine.on_squash(std)
            self.cn[_SQ] += 1
        cn = self.cn
        cn[_FLT] += 1
        tm = self.tm
        c = tm[1] + self._cs
        if d > c:
            c = d
        tm[1] = c
        self.fault_events.append(FaultEvent(
            cycle=int(tm[1]), pc=pc, vaddr=va, kind=kind))
        if self._handler_idx is None:
            self.reason = "fault"
            return -1
        tm[0] = d + 1.0
        self.il[0] = -1
        self.il[1] = -1
        return self._handler_idx

    # ------------------------------------------------------------------
    # speculative windows
    # ------------------------------------------------------------------

    def _window(self, idx: int, budget: int) -> None:
        """Wrong-path window after a mispredicted branch: the predicted
        path runs against scratch registers, fills annulled at the end."""
        if budget < self._fwid:
            budget = self._fwid
        self._spec_run(idx, list(self.regs), budget, promote=False)

    def _spec_run(self, idx: int, regs: List[int], budget: int,
                  promote: bool) -> None:
        """Interpret a speculative region (P2): real sinks, real predictor
        and BTB training (P3), no architectural effects.

        ``promote`` marks a *fault* window: the in-flight micro-ops have
        no unresolved branch dependences, so under WFB each one's shadow
        state promotes as it executes — and is then counted
        ``promoted_then_squashed`` when the fault squashes the window.
        Mispredict windows never promote (the mispredicted branch is an
        unresolved dependence until it squashes them).
        """
        program = self._program
        _, win = self._lowered(program)
        n = len(win)
        if not 0 <= idx < n:
            return
        hier = self.hier
        engine = self.engine
        cn = self.cn
        prv = self.privilege
        mem_read = hier.memory.read_word
        code_base = program.code_base
        stds: List[_Standin] = []
        direct = hier.default_sink()
        fwd: Dict[int, int] = {}
        iline = -1
        executed = 0
        while 0 <= idx < n and executed < budget:
            pc = code_base + (idx << 4)
            line = pc & ~63
            if line != iline:
                iline = line
                cn[_IA] += 1
                if engine is None:
                    res = hier.fetch_access(pc, privilege=prv, sink=None)
                else:
                    std = _Standin(self._next_seq())
                    stds.append(std)
                    res = hier.fetch_access(pc, privilege=prv,
                                            sink=engine.sink_for(std))
                    if promote:
                        engine.on_branch_resolved(std)
                if res.hit_level == "shadow":
                    cn[_ISH] += 1
                elif res.hit_level == "L1":
                    cn[_IL1] += 1
                else:
                    cn[_IM] += 1
            rec = win[idx]
            if rec is None:
                rec = win[idx] = self._win_record(
                    program, idx, program.instructions[idx])
            kind = rec[0]
            if kind == _W_ALU:
                regs[rec[1]] = rec[6](regs[rec[2]], regs[rec[3]]
                                      if rec[3] is not None
                                      else rec[4]) & _M
            elif kind == _W_LOADIMM:
                regs[rec[1]] = rec[4]
            elif kind == _W_LOAD:
                if engine is not None \
                        and not engine.can_accept_data_access():
                    break               # BLOCK full-policy stall
                va = (regs[rec[2]] + rec[4]) & _M
                if va in fwd:
                    regs[rec[1]] = fwd[va]
                    cn[_FW] += 1
                else:
                    if engine is None:
                        res = hier.data_access(va, is_write=False,
                                               privilege=prv, sink=None)
                    else:
                        std = _Standin(self._next_seq())
                        stds.append(std)
                        res = hier.data_access(
                            va, is_write=False, privilege=prv,
                            sink=engine.sink_for(std))
                        if promote:
                            engine.on_branch_resolved(std)
                    cn[_DA] += 1
                    if res.hit_level == "shadow":
                        cn[_DSH] += 1
                    elif res.hit_level == "L1":
                        cn[_DL1] += 1
                    else:
                        cn[_DM] += 1
                    regs[rec[1]] = 0 if res.fault == "unmapped" \
                        else mem_read(res.paddr)
            elif kind == _W_STORE:
                if engine is not None \
                        and not engine.can_accept_data_access():
                    break
                va = (regs[rec[2]] + rec[4]) & _M
                res = AccessResult(latency=0)
                if engine is None:
                    hier.translate("d", va, direct, res)
                else:
                    std = _Standin(self._next_seq())
                    stds.append(std)
                    hier.translate("d", va, engine.sink_for(std), res)
                    if promote:
                        engine.on_branch_resolved(std)
                fwd[va] = regs[rec[3]]
            elif kind == _W_BRANCH:
                pred = self.predictor.predict(pc)
                self.btb.note_branch(pred)
                lv = regs[rec[2]]
                rv = regs[rec[3]]
                if lv >= _T63:
                    lv -= _T64
                if rv >= _T63:
                    rv -= _T64
                taken = rec[6](lv, rv)
                self.predictor.update(pc, taken, pred)
                if taken:
                    self.btb.update(pc, program.pc_of(rec[5]))
                executed += 1
                cn[_SQ] += 1
                idx = rec[5] if taken else idx + 1
                continue
            elif kind == _W_JMP:
                self.btb.update(pc, program.pc_of(rec[5]))
                executed += 1
                cn[_SQ] += 1
                idx = rec[5]
                continue
            elif kind == _W_JMPI:
                tgt = regs[rec[2]]
                self.btb.update(pc, tgt)
                executed += 1
                cn[_SQ] += 1
                off = tgt - code_base
                if 0 <= off < (n << 4) and not off & 15:
                    idx = off >> 4
                    continue
                break
            elif kind == _W_CALL:
                # Wrong-path calls pollute the real RSB (the ret2spec
                # surface) and train the BTB, exactly like wrong-path
                # fetch/execute in the cycle core.
                link = code_base + ((idx + 1) << 4)
                regs[rec[1]] = link
                self.rsb.push(link)
                self.btb.update(pc, code_base + (rec[5] << 4))
                executed += 1
                cn[_SQ] += 1
                idx = rec[5]
                continue
            elif kind == _W_RET:
                # Wrong-path fetch follows the RSB prediction (not the
                # register, which may be unresolved); an empty RSB falls
                # through.  The pop itself is real pollution.
                pred = self.rsb.pop()
                executed += 1
                cn[_SQ] += 1
                if pred:
                    off = pred - code_base
                    if 0 <= off < (n << 4) and not off & 15:
                        idx = off >> 4
                        continue
                    break
                idx += 1
                continue
            elif kind == _W_STOP:
                break       # RDTSC/FENCE/HALT never issue off the head
            # _W_CLFLUSH (effect only at commit) and _W_NOP fall through
            executed += 1
            cn[_SQ] += 1
            idx += 1
        if engine is not None:
            for std in stds:
                engine.on_squash(std)
