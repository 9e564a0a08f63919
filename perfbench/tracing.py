"""Layer spans and per-run tallies, installed from outside the program.

Two instruments patch public functions of the ``repro`` package in
place, each with an ``install``/``uninstall`` pair:

* :class:`RunTally` wraps ``Machine.__init__`` and ``Machine.run`` and
  keeps every machine built and every ``RunResult`` returned since the
  last :meth:`RunTally.take`.  It costs one wrapper call per machine
  run, so it stays on in untraced runs too: the simulated counts and
  the result digest come from it.
* :class:`Tracer` wraps the layer boundaries listed in
  :data:`LAYER_TARGETS`.  A timed wrapper keeps a stack of open spans,
  so a layer's self time is its span's duration minus the time its
  child spans cover.  Coarse spans (name, start, end, parent, job id)
  are kept in memory for :meth:`Tracer.dump`; hot per-access spans are
  only aggregated.  Per-cycle hooks are counted without being timed,
  because timing them would swamp the run; their time stays in the
  calling span.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# How a wrapped function is measured.
RECORD = "record"   # timed, every span kept
HOT = "hot"         # timed, aggregated only
COUNT = "count"     # counted, not timed

# (layer, "module:Class.attr" or "module:function", mode).  Module-level
# functions are also replaced in every repro module that imported them
# by name, so calls through ``from x import f`` are seen too.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("api", "repro.api.session:Session.run", RECORD),
    ("api", "repro.api.session:Session.matrix", RECORD),
    ("api", "repro.api.session:Session.verify", RECORD),
    ("api", "repro.api.scenario:Scenario.job", HOT),
    ("exec", "repro.exec.executor:SerialExecutor.run", RECORD),
    ("exec", "repro.exec.executor:execute_job", RECORD),
    ("exec", "repro.exec.cache:ResultCache.get", RECORD),
    ("exec", "repro.exec.cache:ResultCache.put", RECORD),
    ("exec", "repro.exec.cache:NullCache.get", RECORD),
    ("exec", "repro.exec.cache:NullCache.put", RECORD),
    ("exec", "repro.exec.job:SimJob.key", HOT),
    ("workloads", "repro.workloads.generator:generate_program", RECORD),
    ("workloads", "repro.workloads.suite:run_workload_job", RECORD),
    ("workloads", "repro.workloads.suite:run_workload", RECORD),
    ("machine", "repro.machine:Machine.__init__", RECORD),
    ("machine", "repro.machine:Machine.run", RECORD),
    ("backends", "repro.backends.fast:FastBackend.run", RECORD),
    ("pipeline", "repro.backends.cycle:CycleBackend.run", RECORD),
    ("core", "repro.core.safespec:SafeSpecEngine.can_accept_data_access",
     HOT),
    ("core", "repro.core.safespec:SafeSpecEngine.sink_for", HOT),
    ("core", "repro.core.safespec:SafeSpecEngine.record_line", HOT),
    ("core", "repro.core.safespec:SafeSpecEngine.record_translation", HOT),
    ("core", "repro.core.safespec:SafeSpecEngine.promote", HOT),
    ("core", "repro.core.safespec:SafeSpecEngine.annul", HOT),
    ("core", "repro.core.safespec:SafeSpecEngine.on_commit", HOT),
    ("core", "repro.core.safespec:SafeSpecEngine.on_squash", HOT),
    ("core", "repro.core.safespec:SafeSpecEngine.on_branch_resolved", HOT),
    ("core", "repro.core.safespec:SafeSpecEngine.invariant_stats", HOT),
    ("core", "repro.core.safespec:SafeSpecEngine.set_cycle", COUNT),
    ("core", "repro.core.safespec:SafeSpecEngine.sample_occupancy", COUNT),
    ("core", "repro.core.safespec:ShadowFillSink.lookup_line", HOT),
    ("core", "repro.core.safespec:ShadowFillSink.fill_line", HOT),
    ("core", "repro.core.safespec:ShadowFillSink.lookup_translation", HOT),
    ("core", "repro.core.safespec:ShadowFillSink.fill_translation", HOT),
    ("memory", "repro.memory.hierarchy:MemoryHierarchy.data_access", HOT),
    ("memory", "repro.memory.hierarchy:MemoryHierarchy.fetch_access", HOT),
    ("memory", "repro.memory.hierarchy:MemoryHierarchy.translate", HOT),
    ("memory", "repro.memory.hierarchy:MemoryHierarchy.commit_store", HOT),
    ("memory", "repro.memory.hierarchy:MemoryHierarchy.clflush", HOT),
    ("memory", "repro.memory.hierarchy:MemoryHierarchy.probe_data_latency",
     HOT),
    ("memory", "repro.memory.hierarchy:MemoryHierarchy.probe_fetch_latency",
     HOT),
    ("memory",
     "repro.memory.hierarchy:MemoryHierarchy.probe_translation_latency",
     HOT),
    ("memory", "repro.memory.hierarchy:MemoryHierarchy.committed_hit_level",
     HOT),
    ("memory",
     "repro.memory.hierarchy:MemoryHierarchy.refresh_committed_translation",
     HOT),
    ("memory", "repro.memory.hierarchy:MemoryHierarchy.refresh_line_recency",
     HOT),
    ("memory", "repro.memory.hierarchy:MemoryHierarchy.refresh_walk_lines",
     HOT),
    ("memory", "repro.memory.hierarchy:MemoryHierarchy.install_line", HOT),
    ("memory", "repro.memory.hierarchy:MemoryHierarchy.install_translation",
     HOT),
    ("frontend", "repro.frontend.predictors:BimodalPredictor.predict", HOT),
    ("frontend", "repro.frontend.predictors:BimodalPredictor.update", HOT),
    ("frontend", "repro.frontend.predictors:GsharePredictor.predict", HOT),
    ("frontend", "repro.frontend.predictors:GsharePredictor.update", HOT),
    ("frontend", "repro.frontend.predictors:TAGEPredictor.predict", HOT),
    ("frontend", "repro.frontend.predictors:TAGEPredictor.update", HOT),
    ("frontend", "repro.frontend.predictors:PerceptronPredictor.predict",
     HOT),
    ("frontend", "repro.frontend.predictors:PerceptronPredictor.update",
     HOT),
    ("frontend", "repro.frontend.btb:BranchTargetBuffer.predict_target",
     HOT),
    ("frontend", "repro.frontend.btb:BranchTargetBuffer.update", HOT),
    ("frontend", "repro.frontend.btb:BranchTargetBuffer.note_branch", HOT),
    ("frontend", "repro.frontend.rsb:ReturnStackBuffer.push", HOT),
    ("frontend", "repro.frontend.rsb:ReturnStackBuffer.pop", HOT),
    ("isa", "repro.isa.assembler:ProgramBuilder.build", RECORD),
    ("isa", "repro.isa.assembler:assemble", RECORD),
    ("isa", "repro.isa.assembler:ProgramBuilder.alu", HOT),
    ("isa", "repro.isa.assembler:ProgramBuilder.li", HOT),
    ("isa", "repro.isa.assembler:ProgramBuilder.load", HOT),
    ("isa", "repro.isa.assembler:ProgramBuilder.store", HOT),
    ("isa", "repro.isa.assembler:ProgramBuilder.branch", HOT),
    ("isa", "repro.isa.assembler:ProgramBuilder.jmp", HOT),
    ("isa", "repro.isa.assembler:ProgramBuilder.jmpi", HOT),
    ("isa", "repro.isa.assembler:ProgramBuilder.call", HOT),
    ("isa", "repro.isa.assembler:ProgramBuilder.ret", HOT),
    ("isa", "repro.isa.assembler:ProgramBuilder.clflush", HOT),
    ("isa", "repro.isa.assembler:ProgramBuilder.rdtsc", HOT),
    ("isa", "repro.isa.assembler:ProgramBuilder.fence", HOT),
    ("isa", "repro.isa.assembler:ProgramBuilder.nop", HOT),
    ("isa", "repro.isa.assembler:ProgramBuilder.halt", HOT),
    ("attacks", "repro.attacks.runner:run_attack_job", RECORD),
    ("attacks", "repro.attacks.runner:run_attack_by_name", RECORD),
    ("attacks", "repro.attacks.runner:attack_result_from_sim", HOT),
    ("verify", "repro.verify.harness:run_verify_job", RECORD),
    ("verify", "repro.verify.harness:verify_case", RECORD),
    ("verify", "repro.verify.harness:diff_backends_case", RECORD),
    ("verify", "repro.verify.oracle:ReferenceOracle.run", RECORD),
    ("verify", "repro.verify.fuzz:generate_fuzz_program", RECORD),
)

LAYERS: Tuple[str, ...] = ("api", "exec", "workloads", "machine",
                           "backends", "pipeline", "core", "memory",
                           "frontend", "isa", "attacks", "verify")


class _Patches:
    """Replaces named attributes and puts the originals back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def resolve(self, target: str) -> Tuple[Any, str, Any]:
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1], getattr(owner, parts[-1])

    def replace(self, target: str, make: Callable[[Any], Any]) -> None:
        owner, attr, original = self.resolve(target)
        wrapped = make(original)
        self._set(owner, attr, original, wrapped)
        if isinstance(owner, type):
            return
        # A module-level function: also swap every ``from m import f``.
        for name, module in list(sys.modules.items()):
            if (module is None or module is owner
                    or not name.startswith("repro")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, original, wrapped)

    def _set(self, owner: Any, attr: str, original: Any,
             wrapped: Any) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class RunTally:
    """Every machine built and every run result since the last take."""

    def __init__(self) -> None:
        self.machines: List[Any] = []
        self.runs: List[Tuple[str, Any]] = []
        self._patches = _Patches()

    def install(self) -> None:
        machines, runs = self.machines, self.runs

        def wrap_init(original):
            def __init__(machine, *args, **kwargs):
                original(machine, *args, **kwargs)
                machines.append(machine)
            return __init__

        def wrap_run(original):
            def run(machine, *args, **kwargs):
                result = original(machine, *args, **kwargs)
                runs.append((machine.backend, result))
                return result
            return run

        self._patches.replace("repro.machine:Machine.__init__", wrap_init)
        self._patches.replace("repro.machine:Machine.run", wrap_run)

    def uninstall(self) -> None:
        self._patches.undo()

    def take(self) -> Tuple[List[Any], List[Tuple[str, Any]]]:
        """Hand over (and forget) what accumulated since the last take."""
        machines, runs = list(self.machines), list(self.runs)
        self.machines.clear()
        self.runs.clear()
        return machines, runs


class Tracer:
    """Layer spans, self times and call counts for one traced pass."""

    def __init__(self) -> None:
        self.job_id: Optional[int] = None
        self._patches = _Patches()
        self._stack: List[List[Any]] = []
        # name -> [calls, inclusive seconds, self seconds]; the wrappers
        # hold these rows, so reset() zeroes them in place.
        self.by_name: Dict[str, List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        self.layer_of: Dict[str, str] = {}
        self.spans: List[Tuple[str, float, float, Optional[str],
                               Optional[int]]] = []

    def reset(self) -> None:
        """Forget everything measured so far (the wrappers stay)."""
        for row in self.by_name.values():
            row[:] = [0, 0.0, 0.0]
        self.spans.clear()

    def install(self) -> None:
        # Import every module that could bind a target by name first, so
        # that the swap of a module-level function reaches all of them.
        for _layer, target, _mode in LAYER_TARGETS:
            importlib.import_module(target.partition(":")[0])
        from repro.api.registry import ATTACKS, PREDICTORS, WORKLOADS
        from repro.backends import BACKENDS

        for registry in (ATTACKS, PREDICTORS, WORKLOADS, BACKENDS):
            registry.names()
        for layer, target, mode in LAYER_TARGETS:
            name = target.partition(":")[2]
            self.layer_of[name] = layer
            self._patches.replace(
                target, lambda fn, n=name, m=mode: self._wrap(n, m, fn))

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrap(self, name: str, mode: str, fn: Callable) -> Callable:
        stats = self.by_name[name]
        if mode == COUNT:
            def counted(*args, **kwargs):
                stats[0] += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        spans = self.spans if mode == RECORD else None
        clock = time.perf_counter

        def timed(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if spans is not None:
                    spans.append((name, start, end,
                                  stack[-1][1] if stack else None,
                                  self.job_id))
        return timed

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` of harness work out of the open span."""
        if self._stack:
            self._stack[-1][0] += seconds

    # -- reading ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.by_name[name][0]) if name in self.by_name else 0

    def inclusive_s(self, name: str) -> float:
        return self.by_name[name][1] if name in self.by_name else 0.0

    def self_s(self, name: str) -> float:
        return self.by_name[name][2] if name in self.by_name else 0.0

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """layer -> (calls, self seconds) over every wrapped function."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for name, (calls, _inclusive, self_time) in self.by_name.items():
            row = totals[self.layer_of[name]]
            row[0] += int(calls)
            row[1] += self_time
        return {layer: (row[0], row[1]) for layer, row in totals.items()}

    def dump(self) -> Dict[str, Any]:
        """The spans and per-function aggregates, JSON-ready."""
        return {
            "functions": {
                name: {"layer": self.layer_of.get(name), "calls": int(row[0]),
                       "inclusive_s": row[1], "self_s": row[2]}
                for name, row in sorted(self.by_name.items())},
            "span_fields": ["name", "start", "end", "parent", "job"],
            "spans": self.spans,
        }
