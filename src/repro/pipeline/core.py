"""The out-of-order core: fetch, dispatch, issue, execute, commit, squash.

The model is execution-driven and structure-accurate: the reorder buffer,
issue queue, load/store queues, functional-unit ports and branch-prediction
structures all have the paper's (Table I) sizes and impose the paper's
ordering rules.  Three properties essential to the reproduced attacks are
modelled faithfully:

* **P1 — deferred permission checks.**  A load from a supervisor page
  executes and returns data speculatively; the fault is raised only when
  the load reaches the head of the ROB (commit).  This enables Meltdown.
* **P2 — speculative side effects.**  Wrong-path instructions execute and
  perturb the caches/TLBs (baseline) or the shadow structures (SafeSpec).
  This is the covert channel every speculation attack needs.
* **P3 — trainable shared predictors.**  The direction predictor and the
  untagged BTB are updated at branch resolution with no privilege checks,
  preserving the mistraining/poisoning surface of Spectre v1/v2.

Commit policies (:class:`~repro.core.policy.CommitPolicy`) select where
speculative fills go: directly into the hierarchy (BASELINE) or into the
SafeSpec shadow structures (WFB/WFC), with promotion timing per policy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.core.policy import CommitPolicy
from repro.core.safespec import SafeSpecEngine
from repro.errors import SimulationError
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.predictors import BimodalPredictor
from repro.frontend.rsb import ReturnStackBuffer
from repro.isa.instructions import (INSTRUCTION_BYTES, InstructionClass,
                                    Opcode)
from repro.isa.program import Program
from repro.isa.registers import NUM_REGISTERS, to_signed, to_unsigned
from repro.isa.semantics import ALU, BRANCH
from repro.memory.hierarchy import AccessResult, MemoryHierarchy
from repro.memory.paging import PrivilegeLevel
from repro.pipeline.config import CoreConfig
from repro.pipeline.issue import FunctionalUnits, IssueQueue
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.uop import DynUop, UopState
from repro.statistics import StatRegistry

_FETCH_BUFFER_CAP = 24
_PROGRESS_GUARD_CYCLES = 100_000


@dataclass
class FaultEvent:
    """An architectural fault raised at commit."""

    cycle: int
    pc: int
    vaddr: int
    kind: str


@dataclass
class RunResult:
    """Summary of one program execution."""

    cycles: int
    instructions: int
    registers: Tuple[int, ...]
    halted_reason: str
    fault_events: List[FaultEvent] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    # Architectural PC of the instruction that would have retired next.
    # Set only on ``budget`` stops (the resume point checkpointing needs);
    # None when the program halted, faulted, or ran off the code image.
    next_pc: Optional[int] = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def reg(self, name_or_index: Union[str, int]) -> int:
        """Architectural register value at halt, by name ('r3') or index."""
        if isinstance(name_or_index, str):
            from repro.isa.registers import register_index

            name_or_index = register_index(name_or_index)
        return self.registers[name_or_index]


class Core:
    """One execution of a program on the simulated out-of-order core.

    A :class:`Core` is single-use: construct, :meth:`run`, read results.
    Persistent micro-architectural state (caches, TLBs, predictors, BTB,
    SafeSpec engine) lives outside and is passed in, so consecutive runs
    on the same structures model consecutive executions on one CPU — the
    setting every mistraining attack needs.
    """

    def __init__(self, program: Program, hierarchy: MemoryHierarchy,
                 config: Optional[CoreConfig] = None,
                 predictor: Optional[BimodalPredictor] = None,
                 btb: Optional[BranchTargetBuffer] = None,
                 rsb: Optional[ReturnStackBuffer] = None,
                 engine: Optional[SafeSpecEngine] = None,
                 privilege: PrivilegeLevel = PrivilegeLevel.USER,
                 fault_handler_pc: Optional[int] = None,
                 initial_registers: Optional[Dict[int, int]] = None,
                 start_pc: Optional[int] = None) -> None:
        self.program = program
        self.hierarchy = hierarchy
        self.config = config or CoreConfig()
        self.predictor = predictor or BimodalPredictor()
        self.btb = btb or BranchTargetBuffer()
        # `is not None`: an empty RSB is falsy (it has __len__).
        self.rsb = rsb if rsb is not None else ReturnStackBuffer()
        self.engine = engine
        self.policy = engine.config.policy if engine else CommitPolicy.BASELINE
        self.privilege = privilege
        self.fault_handler_pc = fault_handler_pc

        self.cycle = 0
        self.regfile: List[int] = [0] * NUM_REGISTERS
        for reg, value in (initial_registers or {}).items():
            self.regfile[reg] = to_unsigned(value)

        self.rob = ReorderBuffer(self.config.rob_entries)
        self.iq = IssueQueue(self.config.iq_entries)
        self.lsq = LoadStoreQueue(
            self.config.ldq_entries, self.config.stq_entries,
            mem_dep_speculation=self.config.mem_dep_speculation)
        self.fus = FunctionalUnits(self.config)

        # Per-cycle configuration scalars, hoisted out of the hot loop.
        cfg = self.config
        self._commit_width = cfg.commit_width
        self._issue_width = cfg.issue_width
        self._fetch_width = cfg.fetch_width
        self._front_end_depth = cfg.front_end_depth
        self._mispredict_penalty = cfg.mispredict_penalty
        self._alu_latency = cfg.alu_latency
        self._mul_latency = cfg.mul_latency
        self._store_forward_latency = cfg.store_forward_latency
        self._mem_dep_spec = cfg.mem_dep_speculation

        self._rename: Dict[int, DynUop] = {}
        self._fetch_buffer: Deque[DynUop] = deque()
        self._executing: List[DynUop] = []
        self._unresolved_branches: List[int] = []   # seqs, program order
        self._inflight_fences = 0
        self._last_refreshed_iline = -1
        self._last_refreshed_ipage = -1
        self._fetch_pc = program.code_base if start_pc is None else start_pc
        self._fetch_stall_until = 0
        self._fetch_halted = False
        self._last_fetch_line: Optional[int] = None
        self._next_seq = 0
        self._halted_reason = ""
        self._next_pc: Optional[int] = None
        self._fault_events: List[FaultEvent] = []
        self._last_commit_cycle = 0
        self._committed = 0
        self._max_instructions: Optional[int] = None

        # Hot-path statistics are plain integer attributes, batched into
        # the registry's counters once at the end of :meth:`run` — one
        # ``+= 1`` on the critical path instead of a bound-method call.
        # _STAT_FIELDS is the single (counter name, attribute) table
        # driving both registration (which fixes the historical key
        # order of the ``counters`` dict) and the end-of-run flush.
        self.stats = StatRegistry("core")
        for name, attr in self._STAT_FIELDS:
            self.stats.counter(name)
            setattr(self, attr, 0)

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------

    def run(self, max_instructions: Optional[int] = None) -> RunResult:
        """Execute until HALT, a fault without handler, or the budget."""
        self._max_instructions = max_instructions
        # Loop-invariant bindings: every structure consulted per cycle is
        # mutated in place (never rebound), so one lookup each suffices.
        step = self._step
        rob_entries = self.rob._entries
        fetch_buffer = self._fetch_buffer
        program_fetch = self.program.fetch
        max_cycles = self.config.max_cycles
        while not self._halted_reason:
            step()
            if (not rob_entries and not fetch_buffer
                    and not self._executing
                    and self.cycle >= self._fetch_stall_until
                    and program_fetch(self._fetch_pc) is None):
                # Control flow left the code image with nothing in flight;
                # a real CPU would take a fetch fault here.
                self._halted_reason = "ran_off_code"
            if self.cycle >= max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={max_cycles}")
            if (self.cycle - self._last_commit_cycle > _PROGRESS_GUARD_CYCLES
                    and rob_entries):
                raise SimulationError(
                    f"no commit for {_PROGRESS_GUARD_CYCLES} cycles "
                    f"(head={self.rob.head()!r})")
        self._flush_stats()
        counters = self.stats.as_dict()
        counters["cycles"] = self.cycle
        return RunResult(
            cycles=self.cycle,
            instructions=self._committed,
            registers=tuple(self.regfile),
            halted_reason=self._halted_reason,
            fault_events=list(self._fault_events),
            counters=counters,
            next_pc=self._next_pc,
        )

    # (registry counter name, batched int attribute) — registration
    # order is the historical ``counters`` dict key order.
    _STAT_FIELDS = (
        ("committed", "_n_committed"),
        ("squashed", "_n_squashed"),
        ("branches", "_n_branches"),
        ("mispredicts", "_n_mispredicts"),
        ("faults", "_n_faults"),
        ("dcache_read_accesses", "_n_d_access"),
        ("dcache_read_misses", "_n_d_miss"),
        ("dcache_l1_hits", "_n_d_l1_hits"),
        ("dcache_shadow_hits", "_n_d_shadow_hits"),
        ("icache_accesses", "_n_i_access"),
        ("icache_misses", "_n_i_miss"),
        ("icache_l1_hits", "_n_i_l1_hits"),
        ("icache_shadow_hits", "_n_i_shadow_hits"),
        ("store_forwards", "_n_forwards"),
    )

    def _flush_stats(self) -> None:
        """Fold the batched integer statistics into the registry."""
        counter = self.stats.counter
        for name, attr in self._STAT_FIELDS:
            counter(name).value = getattr(self, attr)

    # ------------------------------------------------------------------
    # the cycle
    # ------------------------------------------------------------------

    def _step(self) -> None:
        # Each stage's idle early-out is checked here, before the call:
        # on a stall cycle (waiting on memory) most stages have nothing
        # to do and the call overhead itself was the dominant cost.
        engine = self.engine
        if engine is not None:
            engine.set_cycle(self.cycle)
        self.fus.new_cycle()
        if self.rob._entries:
            self._commit_stage()
            if self._halted_reason:
                return
        if self._executing:
            self._writeback_stage()
        if self.iq._ready:
            self._issue_stage()
        if self._fetch_buffer:
            self._dispatch_stage()
        if not self._fetch_halted and self.cycle >= self._fetch_stall_until:
            self._fetch_stage()
        if engine is not None:
            engine.sample_occupancy()
        self.cycle += 1

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit_stage(self) -> None:
        entries = self.rob._entries
        if not entries:
            return
        cycle = self.cycle
        for _ in range(self._commit_width):
            if not entries:
                break
            head = entries[0]
            if head.state is not UopState.DONE or head.done_cycle >= cycle:
                break
            if head.fault is not None:
                self._raise_fault(head)
                return
            self._commit_uop(head)
            if self._halted_reason:
                return

    def _commit_uop(self, uop: DynUop) -> None:
        self.rob.pop_head()
        uop.state = UopState.COMMITTED
        uop.commit_cycle = self.cycle
        self._last_commit_cycle = self.cycle
        if self.engine:
            self._refresh_recency(uop)
        if uop.inst.writes_register and uop.result is not None:
            self.regfile[uop.inst.rd] = to_unsigned(uop.result)
        if uop.is_store:
            if uop.paddr is None:
                raise SimulationError(f"store committed w/o address: {uop!r}")
            self.hierarchy.commit_store(uop.paddr, uop.store_value or 0)
        elif uop.opcode is Opcode.CLFLUSH:
            self._commit_clflush(uop)
        if self._rename.get(uop.inst.rd) is uop:
            del self._rename[uop.inst.rd]
        if self.engine:
            self.engine.on_commit(uop)
        self.lsq.remove(uop)
        self._committed += 1
        self._n_committed += 1
        if uop.opcode is Opcode.HALT:
            self._halt("halt")
        elif (self._max_instructions is not None
              and self._committed >= self._max_instructions):
            # The budget stop is artificial: record where the next
            # instruction would have retired so a checkpointed run can
            # resume exactly here (the budget _halt squashes everything
            # in flight, so architectural state is the committed state).
            self._next_pc = (uop.actual_target
                             if uop.actual_taken
                             and uop.actual_target is not None
                             else uop.pc + INSTRUCTION_BYTES)
            self._halt("budget")

    def _refresh_recency(self, uop: DynUop) -> None:
        """Restore the architectural cache touch of a committing micro-op.

        SafeSpec's speculative lookups are deliberately non-perturbing
        (not even replacement state changes, Section IV-A) — but the
        instruction *did* commit, so its access is architectural and must
        refresh recency, exactly as the baseline's access-time touch did.
        Only squashed instructions leave no trace.
        """
        if (uop.ifetch_level in ("L1", "L2", "L3")
                and uop.ifetch_line != self._last_refreshed_iline):
            self.hierarchy.refresh_line_recency("i", uop.ifetch_line)
            self._last_refreshed_iline = uop.ifetch_line
        if uop.ifetch_line >= 0:
            page = uop.pc & ~4095
            if page != self._last_refreshed_ipage:
                self.hierarchy.refresh_committed_translation("i", uop.pc)
                if uop.iwalked:
                    self.hierarchy.refresh_walk_lines(uop.pc)
                self._last_refreshed_ipage = page
        if (uop.is_load or uop.is_store) and uop.vaddr is not None:
            self.hierarchy.refresh_committed_translation("d", uop.vaddr)
            if uop.dwalked:
                self.hierarchy.refresh_walk_lines(uop.vaddr)
        if uop.is_load and uop.hit_level in ("L1", "L2", "L3") \
                and uop.paddr is not None:
            self.hierarchy.refresh_line_recency(
                "d", self.hierarchy.l1d.line_address(uop.paddr))

    def _commit_clflush(self, uop: DynUop) -> None:
        """clflush takes architectural effect at commit: evict the line
        from every committed cache level."""
        if uop.vaddr is None:
            return
        translation = self.hierarchy.page_table.lookup(uop.vaddr)
        if translation is None:
            return
        self.hierarchy.clflush(translation.physical(uop.vaddr))

    def _halt(self, reason: str) -> None:
        self._halted_reason = reason
        for squashed in self.rob.squash_all():
            self._discard_uop(squashed)
        for pending in self._fetch_buffer:
            pending.state = UopState.SQUASHED
            self._discard_uop(pending)
        self._fetch_buffer.clear()
        self.iq.drop_squashed()
        self.lsq.drop_squashed()
        self._executing = [u for u in self._executing
                           if u.state is not UopState.SQUASHED]

    def _raise_fault(self, uop: DynUop) -> None:
        """Architectural fault at the head of the ROB.

        Everything in flight (including the faulting micro-op) is squashed
        and its shadow state annulled; control transfers to the fault
        handler when one is installed, otherwise the run stops.  Note that
        under WFB the faulting micro-op's state may *already* have been
        promoted — the Meltdown hole the paper describes.
        """
        self._n_faults += 1
        self._fault_events.append(FaultEvent(
            cycle=self.cycle, pc=uop.pc, vaddr=uop.vaddr or 0,
            kind=uop.fault or "unknown"))
        self._last_commit_cycle = self.cycle
        for squashed in self.rob.squash_all():
            self._discard_uop(squashed)
        self._flush_front_end()
        if self.fault_handler_pc is None:
            self._halted_reason = "fault"
            return
        self._redirect_fetch(self.fault_handler_pc)

    # ------------------------------------------------------------------
    # writeback / branch resolution
    # ------------------------------------------------------------------

    def _writeback_stage(self) -> None:
        if not self._executing:
            return
        finishing = [u for u in self._executing
                     if u.done_cycle <= self.cycle
                     and u.state is UopState.ISSUED]
        if not finishing:
            return
        finishing_set = set(id(u) for u in finishing)
        self._executing = [u for u in self._executing
                           if id(u) not in finishing_set
                           and u.state is not UopState.SQUASHED]
        finishing.sort(key=lambda u: u.seq)
        for uop in finishing:
            if uop.state is not UopState.ISSUED:
                # Squashed mid-batch by an older mispredicting branch:
                # it must neither finish, wake consumers, promote WFB
                # state, nor — crucially — resolve as a branch, which
                # would redirect fetch down its wrong path.
                continue
            uop.state = UopState.DONE
            if uop.opcode is Opcode.FENCE:
                self._inflight_fences -= 1
            for waiter in uop.waiters:
                if waiter.state is UopState.DISPATCHED:
                    waiter.pending -= 1
                    if waiter.pending == 0:
                        self.iq.wake(waiter)
            uop.waiters.clear()
            if self.engine and self.policy is CommitPolicy.WFB:
                if not uop.branch_deps:
                    self.engine.on_branch_resolved(uop)
            if self._mem_dep_spec and uop.is_store \
                    and uop.vaddr is not None:
                self._check_memory_order(uop)
            if uop.is_branch:
                self._resolve_branch(uop)

    def _resolve_branch(self, uop: DynUop) -> None:
        self._n_branches += 1
        try:
            self._unresolved_branches.remove(uop.seq)
        except ValueError:
            pass
        fallthrough = uop.pc + INSTRUCTION_BYTES
        actual_target = uop.actual_target if uop.actual_taken else fallthrough
        predicted_target = uop.pred_target if uop.pred_taken else fallthrough
        mispredicted = (uop.actual_taken != uop.pred_taken
                        or actual_target != predicted_target)
        uop.mispredicted = mispredicted
        # Train the shared structures (P3: no privilege checks, trainable
        # by wrong-path execution contexts too).
        if uop.inst.is_conditional:
            self.predictor.update(uop.pc, uop.actual_taken, uop.pred_taken)
        if (uop.actual_taken and uop.actual_target is not None
                and not uop.inst.is_return):
            # Returns are predicted by the RSB, never installed in the
            # BTB (a return target is per-invocation, not per-PC).
            self.btb.update(uop.pc, uop.actual_target)
        if mispredicted:
            self._n_mispredicts += 1
            self._squash_younger_than(uop.seq)
            self._redirect_fetch(actual_target,
                                 penalty=self._mispredict_penalty)
        else:
            self._clear_branch_dependence(uop)

    def _check_memory_order(self, store: DynUop) -> None:
        """A store address just resolved under memory-dependence
        speculation: any younger load that already issued against an
        overlapping address consumed stale data.  Squash from the
        violating load onward and refetch it — it will now see the
        store (forwarded, or from memory once committed)."""
        victim = self.lsq.conflicting_load(store)
        if victim is None:
            return
        victim_pc = victim.pc
        self._squash_younger_than(victim.seq - 1)
        self._redirect_fetch(victim_pc, penalty=self._mispredict_penalty)

    def _clear_branch_dependence(self, branch: DynUop) -> None:
        """A correctly predicted branch resolved: younger micro-ops lose
        this dependence; WFB promotes those whose set empties.

        Only WFB tracks branch dependence sets, so the ROB scan is
        skipped entirely under the other policies.
        """
        if self.policy is not CommitPolicy.WFB:
            return
        for uop in self.rob:
            if uop.seq <= branch.seq or not uop.branch_deps:
                continue
            uop.branch_deps.discard(branch.seq)
            if not uop.branch_deps and self.engine:
                self.engine.on_branch_resolved(uop)

    # ------------------------------------------------------------------
    # squash machinery
    # ------------------------------------------------------------------

    def _discard_uop(self, uop: DynUop) -> None:
        self._n_squashed += 1
        if self.engine:
            self.engine.on_squash(uop)

    def _squash_younger_than(self, seq: int) -> None:
        for squashed in self.rob.squash_younger_than(seq):
            self._discard_uop(squashed)
        self._recount_fences()
        self._unresolved_branches = [s for s in self._unresolved_branches
                                     if s <= seq]
        self._flush_front_end()
        self.iq.drop_squashed()
        self.lsq.drop_squashed()
        self._executing = [u for u in self._executing
                           if u.state is not UopState.SQUASHED]
        self._rebuild_rename_table()

    def _recount_fences(self) -> None:
        self._inflight_fences = sum(
            1 for u in self.rob
            if u.opcode is Opcode.FENCE
            and u.state in (UopState.DISPATCHED, UopState.ISSUED))

    def _flush_front_end(self) -> None:
        for pending in self._fetch_buffer:
            pending.state = UopState.SQUASHED
            self._discard_uop(pending)
        self._fetch_buffer.clear()
        self._last_fetch_line = None

    def _rebuild_rename_table(self) -> None:
        self._rename.clear()
        for uop in self.rob:
            if uop.inst.writes_register:
                self._rename[uop.inst.rd] = uop

    def _redirect_fetch(self, target_pc: int, penalty: int = 0) -> None:
        self._fetch_pc = target_pc
        self._fetch_stall_until = max(self._fetch_stall_until,
                                      self.cycle + max(penalty, 1))
        self._fetch_halted = False
        self._last_fetch_line = None

    # ------------------------------------------------------------------
    # issue / execute
    # ------------------------------------------------------------------

    def _oldest_pending_fence(self) -> Optional[int]:
        if not self._inflight_fences:
            return None
        for uop in self.rob:
            if (uop.opcode is Opcode.FENCE
                    and uop.state in (UopState.DISPATCHED, UopState.ISSUED)):
                return uop.seq
        return None

    def _issue_stage(self) -> None:
        ready = self.iq.ready_uops()
        if not ready:
            return
        barrier = self._oldest_pending_fence()
        issue_width = self._issue_width
        try_claim = self.fus.try_claim_index
        issued = 0
        for uop in ready:
            if issued >= issue_width:
                break
            if barrier is not None and uop.seq > barrier:
                continue
            if uop.is_serialising and self.rob.head() is not uop:
                continue
            if uop.is_load and self.lsq.older_store_blocks(uop):
                continue
            if not self._shadow_admits(uop):
                uop.blocked_on_shadow = True
                continue
            if not try_claim(uop.fu_index):
                continue
            self._execute(uop)
            issued += 1

    def _shadow_admits(self, uop: DynUop) -> bool:
        """BLOCK full-policy: memory micro-ops stall while the d-side
        shadow structures are full — unless oldest (deadlock avoidance).
        The resulting delay is observable: the TSA timing channel."""
        if self.engine is None or not (uop.is_load or uop.is_store):
            return True
        if self.rob.head() is uop:
            return True
        return self.engine.can_accept_data_access()

    def _sink(self, uop: DynUop):
        if self.engine is None or uop.promoted:
            # A WFB-promoted micro-op (every older branch resolved, or
            # none to begin with) is past the shadow: its fills are
            # non-speculative and go straight to the committed
            # structures.  This is the paper's WFB hole — non-branch
            # speculation (faults, memory-order violations) squashes
            # state WFB has already released.
            return self.hierarchy.default_sink()
        return self.engine.sink_for(uop)

    def _execute(self, uop: DynUop) -> None:
        self.iq.remove(uop)
        uop.state = UopState.ISSUED
        uop.issue_cycle = self.cycle
        uop.blocked_on_shadow = False
        op = uop.opcode
        if op is Opcode.ALU:
            self._execute_alu(uop)
        elif op is Opcode.LOADIMM:
            uop.result = to_unsigned(uop.inst.imm)
            uop.done_cycle = self.cycle + self._alu_latency
        elif op is Opcode.LOAD:
            if not self._execute_load(uop):
                # Replay: a partially overlapping in-flight store means
                # word forwarding would be wrong; return the load to the
                # issue queue until the store drains to memory.
                uop.state = UopState.DISPATCHED
                uop.issue_cycle = -1
                self.iq.add(uop)
                return
        elif op is Opcode.STORE:
            self._execute_store(uop)
        elif op in (Opcode.BRANCH, Opcode.JMP, Opcode.JMPI,
                    Opcode.CALL, Opcode.RET):
            self._execute_branch(uop)
        elif op is Opcode.CLFLUSH:
            base = uop.source_value(uop.inst.rs1)
            uop.vaddr = to_unsigned(base + uop.inst.imm)
            uop.done_cycle = self.cycle + 1
        elif op is Opcode.RDTSC:
            uop.result = self.cycle
            uop.done_cycle = self.cycle + 1
        else:  # FENCE, NOP, HALT
            uop.done_cycle = self.cycle + 1
        self._executing.append(uop)

    def _execute_alu(self, uop: DynUop) -> None:
        inst = uop.inst
        lhs = uop.source_value(inst.rs1)
        if inst.rs2 is not None:
            rhs = uop.source_value(inst.rs2)
        else:
            rhs = to_unsigned(inst.imm)
        uop.result = to_unsigned(ALU[inst.alu_op](lhs, rhs))
        latency = (self._mul_latency if inst.inst_class is InstructionClass.MUL
                   else self._alu_latency)
        uop.done_cycle = self.cycle + latency

    def _execute_load(self, uop: DynUop) -> bool:
        """Execute a load; returns False when it must be replayed."""
        base = uop.source_value(uop.inst.rs1)
        uop.vaddr = to_unsigned(base + uop.inst.imm)
        if self.lsq.older_store_blocks(uop):
            # Only detectable now that the address is known: a resolved
            # older store partially overlaps this word.
            return False
        forwarded = self.lsq.forward_from_store(uop)
        if forwarded is not None:
            value, _store = forwarded
            uop.result = to_unsigned(value)
            uop.forwarded = True
            uop.done_cycle = self.cycle + self._store_forward_latency
            self._n_forwards += 1
            return True
        result = self.hierarchy.data_access(
            uop.vaddr, is_write=False, privilege=self.privilege,
            sink=self._sink(uop))
        self._record_data_access(result)
        uop.mem_latency = result.latency
        uop.hit_level = result.hit_level
        uop.fault = result.fault
        uop.paddr = result.paddr
        uop.dwalked = not result.tlb_hit
        if result.fault == "unmapped":
            uop.result = 0
        else:
            # P1: the data is returned speculatively even on a permission
            # fault — this is the Meltdown read.
            uop.result = self.hierarchy.memory.read_word(result.paddr)
        uop.done_cycle = self.cycle + max(result.latency, 1)
        return True

    def _execute_store(self, uop: DynUop) -> None:
        base = uop.source_value(uop.inst.rs1)
        uop.vaddr = to_unsigned(base + uop.inst.imm)
        uop.store_value = uop.source_value(uop.inst.rs2)
        result = AccessResult(latency=0)
        translation = self.hierarchy.translate(
            "d", uop.vaddr, self._sink(uop), result)
        uop.dwalked = not result.tlb_hit
        if translation is None:
            uop.fault = "unmapped"
        else:
            uop.paddr = translation.physical(uop.vaddr)
            if not translation.permissions.allows(
                    write=True, execute=False, privilege=self.privilege):
                uop.fault = "permission"
        uop.done_cycle = self.cycle + max(result.latency, 1)

    def _execute_branch(self, uop: DynUop) -> None:
        op = uop.opcode
        if op is Opcode.BRANCH:
            lhs = to_signed(uop.source_value(uop.inst.rs1))
            rhs = to_signed(uop.source_value(uop.inst.rs2))
            uop.actual_taken = BRANCH[uop.inst.cond](lhs, rhs)
            uop.actual_target = self.program.pc_of(uop.inst.target)
        elif op is Opcode.JMP:
            uop.actual_taken = True
            uop.actual_target = self.program.pc_of(uop.inst.target)
        elif op is Opcode.CALL:
            uop.actual_taken = True
            uop.actual_target = self.program.pc_of(uop.inst.target)
            uop.result = to_unsigned(uop.pc + INSTRUCTION_BYTES)  # link
        else:  # JMPI / RET: indirect through rs1
            uop.actual_taken = True
            uop.actual_target = to_unsigned(uop.source_value(uop.inst.rs1))
        uop.done_cycle = self.cycle + 1

    def _record_data_access(self, result: AccessResult) -> None:
        self._n_d_access += 1
        if result.hit_level == "shadow":
            self._n_d_shadow_hits += 1
        elif result.hit_level == "L1":
            self._n_d_l1_hits += 1
        else:
            self._n_d_miss += 1

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _dispatch_stage(self) -> None:
        fetch_buffer = self._fetch_buffer
        if not fetch_buffer:
            return
        cycle = self.cycle
        front_end_depth = self._front_end_depth
        dispatched = 0
        while fetch_buffer and dispatched < self._issue_width:
            uop = fetch_buffer[0]
            if uop.fetch_cycle + front_end_depth > cycle:
                break
            if self.rob.full or self.iq.full:
                break
            if uop.is_load and self.lsq.ldq_full:
                break
            if uop.is_store and self.lsq.stq_full:
                break
            fetch_buffer.popleft()
            self._dispatch_uop(uop)
            dispatched += 1

    def _dispatch_uop(self, uop: DynUop) -> None:
        uop.state = UopState.DISPATCHED
        uop.dispatch_cycle = self.cycle
        for reg in uop.inst.source_registers():
            producer = self._rename.get(reg)
            if producer is None:
                uop.operands[reg] = self.regfile[reg]
            elif (producer.state in (UopState.DONE, UopState.COMMITTED)
                    and producer.result is not None):
                uop.operands[reg] = producer.result
            else:
                uop.producers[reg] = producer
                uop.pending += 1
                producer.waiters.append(uop)
        self.rob.push(uop)
        if uop.is_branch:
            self._unresolved_branches.append(uop.seq)
        if uop.opcode is Opcode.FENCE:
            self._inflight_fences += 1
        if self.policy is CommitPolicy.WFB:
            uop.branch_deps = set(self._unresolved_branches)
            uop.branch_deps.discard(uop.seq)
        if uop.inst.writes_register:
            self._rename[uop.inst.rd] = uop
        self.iq.add(uop)
        if uop.is_load:
            self.lsq.add_load(uop)
        elif uop.is_store:
            self.lsq.add_store(uop)
        if (self.engine and self.policy is CommitPolicy.WFB
                and not uop.branch_deps):
            self.engine.on_branch_resolved(uop)

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------

    def _fetch_stage(self) -> None:
        if self.cycle < self._fetch_stall_until or self._fetch_halted:
            return
        fetched = 0
        while (fetched < self._fetch_width
               and len(self._fetch_buffer) < _FETCH_BUFFER_CAP):
            inst = self.program.fetch(self._fetch_pc)
            if inst is None:
                break
            uop = DynUop(self._next_seq, inst, self._fetch_pc,
                         self.program.index_of(self._fetch_pc), self.cycle)
            self._next_seq += 1
            stall = self._fetch_instruction_line(uop)
            self._fetch_buffer.append(uop)
            fetched += 1
            if inst.opcode is Opcode.HALT:
                # HALT serialises the front end: nothing is fetched past
                # it until a squash or fault redirects fetch elsewhere.
                self._fetch_halted = True
                break
            self._predict_and_advance(uop)
            if stall or uop.pred_taken:
                break

    def _fetch_instruction_line(self, uop: DynUop) -> bool:
        """Access the i-side hierarchy for the line holding ``uop.pc``.

        Returns True when the access missed L1/shadow, in which case fetch
        stalls for the remaining latency (the micro-op itself is kept and
        delivered when the line arrives).
        """
        line = self.hierarchy.l1i.line_address(uop.pc)
        if line == self._last_fetch_line:
            return False
        self._last_fetch_line = line
        result = self.hierarchy.fetch_access(
            uop.pc, privilege=self.privilege, sink=self._sink(uop))
        uop.ifetch_level = result.hit_level
        uop.ifetch_line = line
        uop.iwalked = not result.tlb_hit
        self._n_i_access += 1
        if result.hit_level == "shadow":
            self._n_i_shadow_hits += 1
        elif result.hit_level == "L1":
            self._n_i_l1_hits += 1
        else:
            self._n_i_miss += 1
        hit_latency = self.hierarchy.config.l1i.hit_latency
        if result.latency > hit_latency:
            extra = result.latency - hit_latency
            self._fetch_stall_until = self.cycle + extra
            uop.fetch_cycle = self.cycle + extra
            return True
        return False

    def _predict_and_advance(self, uop: DynUop) -> None:
        inst = uop.inst
        if inst.opcode is Opcode.BRANCH:
            uop.pred_taken = self.predictor.predict(uop.pc)
            uop.pred_target = (self.program.pc_of(inst.target)
                               if uop.pred_taken else None)
            # A fetch-time BHB sees the *predicted* direction; trained
            # branches make this the resolved direction too.
            self.btb.note_branch(uop.pred_taken)
        elif inst.opcode is Opcode.JMP:
            uop.pred_taken = True
            uop.pred_target = self.program.pc_of(inst.target)
        elif inst.opcode is Opcode.CALL:
            # Direct target: never mispredicts.  The RSB learns the
            # fall-through (return) address at fetch — including on the
            # wrong path, which is the ret2spec pollution surface.
            uop.pred_taken = True
            uop.pred_target = self.program.pc_of(inst.target)
            self.rsb.push(uop.pc + INSTRUCTION_BYTES)
        elif inst.opcode is Opcode.RET:
            predicted = self.rsb.pop()
            if predicted:
                uop.pred_taken = True
                uop.pred_target = predicted
            else:
                # Empty RSB: no prediction, fall through and fix up at
                # resolution (the ret2spec underflow misprediction).
                uop.pred_taken = False
                uop.pred_target = None
        elif inst.opcode is Opcode.JMPI:
            target = self.btb.predict_target(uop.pc)
            uop.btb_predicted = target is not None
            if target is not None:
                uop.pred_taken = True
                uop.pred_target = target
            else:
                # No BTB entry: fall through and fix up at resolution.
                uop.pred_taken = False
                uop.pred_target = None
        if uop.pred_taken and uop.pred_target is not None:
            self._fetch_pc = uop.pred_target
            self._last_fetch_line = None
        else:
            self._fetch_pc = uop.pc + INSTRUCTION_BYTES
