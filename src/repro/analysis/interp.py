"""Whole-program abstract interpretation over the Pete ISA.

This is the interprocedural layer above :mod:`repro.analysis.cfg`: a
forward walk of the entire program image in the value domain of
:mod:`repro.analysis.absdom`, producing

* a **call graph** -- ``jal``/``jalr`` call edges and ``jr`` return
  edges, resolved by tracking return addresses through registers *and*
  through spilled stack words (the composed ``fmul_*`` kernels save
  ``$ra`` to ``0($sp)`` and reload it before returning);
* **loop structure with trip bounds** -- natural loops per function,
  with constant-derived trip-count inference for the two induction
  shapes the generated kernels use (counted ``addiu``/``bne`` loops
  and pointer-vs-sentinel loops, including triangular nests);
* **value states** per instruction -- joined over every context that
  reaches it -- which resolve indirect jumps (including jump tables
  through a register, via the stride component of the domain), prove
  dead branches, and resolve load/store addresses for the
  interprocedural taint pass;
* the edge set of the **interprocedural CFG** actually walked (call
  edges, return edges, loop back edges), which the static bound pass
  and :mod:`repro.analysis.taint` consume.

Soundness stance: this is a may-analysis used to *verify* properties
(constant-time, static superblock legality, cycle/energy upper
bounds).  Whenever the walk cannot resolve something it must not
guess: an indirect jump with an unresolvable target, a loop with no
derivable trip bound, recursion, or irreducible control flow each
produce an error-severity finding, and the bound pass refuses to
certify the program until the finding is fixed or waived.  Two
documented assumptions (see ARCHITECTURE.md): distinct entry-symbolic
memory bases never alias each other or the constant-address arenas,
and address/counter arithmetic does not wrap mod 2^32.

The walk itself avoids widening entirely: each function region is
processed once in reverse postorder with back edges removed, and at
every loop header the entry state is *generalized* -- induction
registers get their entry value widened by ``stride * trips``, other
loop-defined registers go to TOP, tracked words the body may store to
are dropped (per base symbol) -- so the header state covers every
iteration and the acyclic walk stays sound.  A call anywhere in the
body defeats that per-body reasoning (the callee may write any
register or tracked word, and may rewrite the loop counter out from
under a derived trip bound), so such headers generalize to TOP
registers, empty memory, and an assumed-only trip bound.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis import insn
from repro.analysis.absdom import TOP, AbsState, AbsVal
from repro.analysis.cfg import (
    CFG,
    EXIT,
    AsmProgram,
    branch_target_index,
    build_cfg,
)
from repro.analysis.lints import Finding
from repro.pete.isa import Decoded

MASK32 = 0xFFFFFFFF

#: Call-depth cap (the composed kernels nest two deep; anything deeper
#: than this is runaway resolution, reported as a finding).
MAX_CALL_DEPTH = 12

#: Trip bounds above this are treated as underived (unbounded-loop).
MAX_TRIPS = 1 << 20

#: Region rebuilds per function while discovering jump-table targets.
MAX_REGION_RETRIES = 5


@dataclass(frozen=True)
class Loop:
    """One natural loop (same-header back edges merged)."""

    header: int
    body: frozenset[int]
    latches: tuple[int, ...]     # back-edge source indices (slots)
    parent: int | None = None    # header of the directly enclosing loop


@dataclass
class FunctionInfo:
    """One function region: intraprocedural structure for the walk."""

    entry: int
    nodes: frozenset[int]
    succ: dict[int, tuple[int, ...]]      # intraprocedural (calls bypass)
    preds: dict[int, tuple[int, ...]]
    order: tuple[int, ...]                # reverse postorder
    back_edges: frozenset[tuple[int, int]]
    loops: dict[int, Loop]
    loop_of: dict[int, int | None]        # innermost loop header per node
    irreducible: bool = False

    def inner_loops(self, header: int | None) -> list[Loop]:
        """Loops directly nested in ``header`` (``None`` = top level)."""
        return [lp for lp in self.loops.values() if lp.parent == header]


@dataclass
class InterpResult:
    """Everything one whole-program walk produced."""

    program: AsmProgram
    cfg: CFG
    entry: int
    functions: dict[int, FunctionInfo] = field(default_factory=dict)
    #: joined pre-transfer state per reached instruction
    states: dict[int, AbsState] = field(default_factory=dict)
    #: jal/jalr instruction index -> resolved callee entry index
    calls: dict[int, int] = field(default_factory=dict)
    #: jr instruction index -> resolved target indices (EXIT = harness)
    returns: dict[int, tuple[int, ...]] = field(default_factory=dict)
    #: branch index -> subset of {"taken", "fall"} seen feasible
    branch_feasible: dict[int, frozenset[str]] = field(default_factory=dict)
    #: (function entry, loop header) -> trip bound (None = underived)
    trip_bounds: dict[tuple[int, int], int | None] = field(
        default_factory=dict)
    #: load/store index -> joined abstract address
    addr_info: dict[int, AbsVal] = field(default_factory=dict)
    #: interprocedural edge set actually walked (incl. call/return/back)
    iedges: dict[int, tuple[int, ...]] = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)
    #: branches proven one-sided: (index, the only feasible direction)
    dead_branches: list[tuple[int, str]] = field(default_factory=list)
    #: loops bounded by caller-supplied assumption, not derivation:
    #: (header index, assumed trip bound) -- surfaced in reports
    assumed_loops: list[tuple[int, int]] = field(default_factory=list)

    @property
    def reached(self) -> set[int]:
        return set(self.states)

    def ipreds(self) -> dict[int, tuple[int, ...]]:
        """Predecessor view of the interprocedural edge set."""
        preds: dict[int, list[int]] = defaultdict(list)
        for u, targets in self.iedges.items():
            for v in targets:
                if v != EXIT:
                    preds[v].append(u)
        return {v: tuple(us) for v, us in preds.items()}


def analyze_image(program: AsmProgram, entry: int = 0,
                  entry_values: dict[int, int] | None = None,
                  assume_trips: dict[int, int] | None = None
                  ) -> InterpResult:
    """Interpret the whole image from ``entry``.

    ``entry_values`` pins harness-set registers to concrete values
    (``{31: halt_address}`` for runner images); everything else is
    entry-symbolic, so the result covers *all* inputs.

    ``assume_trips`` maps loop-header indices to *asserted* trip
    bounds, for loops whose termination argument is mathematical
    rather than arithmetic (the reduction carry-fold loop).  Used
    bounds are reported in ``assumed_loops`` so every assumption in a
    certified result is visible.
    """
    walker = _Walker(program, entry_values or {}, assume_trips or {})
    walker.run(entry)
    return walker.result


# ---------------------------------------------------------------------------
# Function regions: intraprocedural reachability, dominators, loops
# ---------------------------------------------------------------------------


def _intra_succ(program: AsmProgram, cfg: CFG, i: int,
                extra: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """Intraprocedural successors: calls bypass to the return point,
    ``jr`` flows only to walk-discovered jump-table targets."""
    d = program.decoded[i]
    n = len(program)
    if d is None or d.mnemonic == "break":
        return ()
    if i in cfg.slots:
        owner = program.decoded[i - 1]
        if owner is None:
            return ()
        m = owner.mnemonic
        if m in ("jal", "jalr"):
            return (i + 1,) if i + 1 < n else ()
        if m == "jr":
            return extra.get(i, ())
        edges: list[int] = []
        target = branch_target_index(program, i - 1, cfg.slots)
        if target is not None and 0 <= target < n:
            edges.append(target)
        if not insn.is_unconditional(owner) and i + 1 < n:
            edges.append(i + 1)
        return tuple(dict.fromkeys(edges))
    return (i + 1,) if i + 1 < n else ()


def _build_function(program: AsmProgram, cfg: CFG, entry: int,
                    extra: dict[int, tuple[int, ...]]) -> FunctionInfo:
    succ: dict[int, tuple[int, ...]] = {}
    seen = {entry}
    stack = [entry]
    while stack:
        i = stack.pop()
        succ[i] = _intra_succ(program, cfg, i, extra)
        for s in succ[i]:
            if s not in seen:
                seen.add(s)
                stack.append(s)
    nodes = frozenset(seen)
    preds: dict[int, list[int]] = defaultdict(list)
    for u, targets in succ.items():
        for v in targets:
            preds[v].append(u)

    # reverse postorder (iterative DFS)
    post: list[int] = []
    visited = {entry}
    dfs: list[tuple[int, int]] = [(entry, 0)]
    while dfs:
        node, child = dfs[-1]
        targets = succ[node]
        if child < len(targets):
            dfs[-1] = (node, child + 1)
            s = targets[child]
            if s not in visited:
                visited.add(s)
                dfs.append((s, 0))
        else:
            post.append(node)
            dfs.pop()
    order = tuple(reversed(post))
    rpo_index = {node: k for k, node in enumerate(order)}

    # dominators (iterative, Cooper-Harvey-Kennedy)
    idom: dict[int, int] = {entry: entry}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while rpo_index[a] > rpo_index[b]:
                a = idom[a]
            while rpo_index[b] > rpo_index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in order[1:]:
            new: int | None = None
            for p in preds[node]:
                if p in idom:
                    new = p if new is None else intersect(new, p)
            if new is not None and idom.get(node) != new:
                idom[node] = new
                changed = True

    def dominates(a: int, b: int) -> bool:
        while True:
            if b == a:
                return True
            parent = idom.get(b)
            if parent is None or parent == b:
                return False
            b = parent

    # a dominator precedes what it dominates in RPO, so only edges
    # that do not go forward in RPO can be back edges
    back = frozenset((u, v) for u, targets in succ.items()
                     for v in targets
                     if rpo_index[v] <= rpo_index[u] and dominates(v, u))
    # reducibility: RPO must topologically order the non-back edges
    irreducible = any(rpo_index[v] <= rpo_index[u]
                      for u, targets in succ.items() for v in targets
                      if (u, v) not in back)

    # natural loops, merged per header
    bodies: dict[int, set[int]] = {}
    latches: dict[int, list[int]] = defaultdict(list)
    for u, h in back:
        body = bodies.setdefault(h, {h})
        latches[h].append(u)
        flood = [u]
        while flood:
            x = flood.pop()
            if x in body:
                continue
            body.add(x)
            flood.extend(p for p in preds[x] if p not in body)
    by_size = sorted(bodies, key=lambda h: len(bodies[h]))
    parent: dict[int, int | None] = {}
    for h in bodies:
        enclosing = [h2 for h2 in bodies
                     if h2 != h and bodies[h] <= bodies[h2]
                     and h in bodies[h2]]
        parent[h] = (min(enclosing, key=lambda h2: len(bodies[h2]))
                     if enclosing else None)
    loops = {h: Loop(h, frozenset(bodies[h]), tuple(sorted(latches[h])),
                     parent[h]) for h in bodies}
    loop_of: dict[int, int | None] = dict.fromkeys(nodes)
    for h in sorted(by_size, key=lambda h: -len(bodies[h])):
        for node in bodies[h]:
            loop_of[node] = h
    return FunctionInfo(entry, nodes, succ,
                        {v: tuple(us) for v, us in preds.items()},
                        order, back, loops, loop_of, irreducible)


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------


class _RegionChanged(Exception):
    """A jr resolved to a target outside the current region estimate."""


class _Walker:
    def __init__(self, program: AsmProgram, entry_values: dict[int, int],
                 assume_trips: dict[int, int] | None = None) -> None:
        self.program = program
        self.cfg = build_cfg(program)
        self.entry_values = entry_values
        self.assume_trips = assume_trips or {}
        #: jr slot -> discovered intraprocedural (jump-table) targets
        self.extra: dict[int, tuple[int, ...]] = {}
        self.result = InterpResult(program, self.cfg, 0)
        self._iedges: dict[int, set[int]] = defaultdict(set)
        self._feasible: dict[int, set[str]] = defaultdict(set)
        self._finding_keys: set[tuple[str, int]] = set()

    # -- bookkeeping -------------------------------------------------------

    def _finding(self, check: str, index: int, message: str) -> None:
        if (check, index) in self._finding_keys:
            return
        self._finding_keys.add((check, index))
        self.result.findings.append(Finding(
            check, index, message, program=self.program.name))

    def _note_state(self, i: int, state: AbsState) -> None:
        prev = self.result.states.get(i)
        self.result.states[i] = state if prev is None else prev.join(state)

    def _note_addr(self, i: int, addr: AbsVal) -> None:
        prev = self.result.addr_info.get(i)
        self.result.addr_info[i] = addr if prev is None else prev.join(addr)

    def _note_trip(self, entry: int, header: int,
                   trips: int | None) -> None:
        key = (entry, header)
        prev = self.result.trip_bounds.get(key, 0)
        if trips is None or prev is None:
            self.result.trip_bounds[key] = None
        else:
            self.result.trip_bounds[key] = max(prev, trips)

    # -- top level ---------------------------------------------------------

    def run(self, entry: int) -> None:
        self.result.entry = entry
        n = len(self.program)
        if not 0 <= entry < n:
            self._finding("unresolved-entry", -1,
                          f"entry index {entry} outside the image")
            return
        state = AbsState.entry(self.entry_values)
        self._walk_function(entry, state, (entry,), ret_addr=None)
        self.result.iedges = {u: tuple(sorted(vs))
                              for u, vs in self._iedges.items()}
        self.result.branch_feasible = {
            i: frozenset(dirs) for i, dirs in self._feasible.items()}
        for i, dirs in sorted(self.result.branch_feasible.items()):
            d = self.program.decoded[i]
            if d is not None and d.is_branch and len(dirs) == 1 \
                    and not insn.is_unconditional(d):
                self.result.dead_branches.append((i, next(iter(dirs))))

    # -- per function ------------------------------------------------------

    def _walk_function(self, entry: int, state: AbsState,
                       chain: tuple[int, ...], ret_addr: int | None
                       ) -> tuple[AbsState | None, tuple[int, ...]]:
        """Walk one function region; returns (joined state at return,
        the jr-slot indices that returned)."""
        for _ in range(MAX_REGION_RETRIES):
            fn = _build_function(self.program, self.cfg, entry, self.extra)
            self.result.functions[entry] = fn
            if fn.irreducible:
                self._finding(
                    "irreducible-control-flow", entry,
                    f"function at {self._where(entry)} has irreducible "
                    f"control flow; the abstract interpreter cannot "
                    f"analyze it")
                return None, ()
            try:
                return self._walk_region(fn, state, chain, ret_addr)
            except _RegionChanged:
                continue
        self._finding(
            "unresolved-indirect-jump", entry,
            f"jump-table resolution did not converge in function at "
            f"{self._where(entry)}")
        return None, ()

    def _walk_region(self, fn: FunctionInfo, state: AbsState,
                     chain: tuple[int, ...], ret_addr: int | None
                     ) -> tuple[AbsState | None, tuple[int, ...]]:
        program = self.program
        n = len(program)
        local: dict[int, AbsState] = {fn.entry: state}
        pre_slot: dict[int, AbsState] = {}
        exit_states: list[AbsState] = []
        exit_slots: list[int] = []

        def flow(u: int, v: int, s: AbsState) -> None:
            self._iedges[u].add(v)
            if (u, v) in fn.back_edges:
                return  # header already generalized over all iterations
            local[v] = s if v not in local else local[v].join(s)

        for i in fn.order:
            if i not in local:
                continue  # infeasible in this context
            s = local[i]
            if i in fn.loops:
                s, trips = self._generalize(fn, i, s)
                self._note_trip(fn.entry, i, trips)
                if trips is None:
                    self._finding(
                        "unbounded-loop", i,
                        f"no trip bound derivable for the loop at "
                        f"{self._where(i)} (latch "
                        f"{[program.line(u - 1) for u in fn.loops[i].latches]})")
                local[i] = s
            self._note_state(i, s)
            d = program.decoded[i]
            if d is None:
                self._finding(
                    "data-executed", i,
                    f"execution reaches a data word: {program.line(i)}")
                continue

            if i in self.cfg.slots and program.decoded[i - 1] is not None:
                owner = program.decoded[i - 1]
                owner_pre = pre_slot.get(i, s)
                out = self._transfer(d, i, s)
                om = owner.mnemonic
                if om in ("jal", "jalr"):
                    self._do_call(fn, i, owner, owner_pre, out, chain,
                                  flow)
                elif om == "jr":
                    self._do_jr(fn, i, owner, owner_pre, out, ret_addr,
                                flow, exit_states, exit_slots)
                elif owner.is_branch:
                    outcomes = _branch_outcomes(owner, owner_pre)
                    self._feasible[i - 1] |= outcomes
                    target = branch_target_index(program, i - 1,
                                                 self.cfg.slots)
                    # on the edge where rs == rt held, both registers
                    # hold the same value -- refine the wider one (this
                    # is what keeps loop-exit states exact, stopping
                    # trip-bound slack from cascading into outer loops)
                    taken_state = fall_state = out
                    if owner.mnemonic == "beq":
                        taken_state = _refine_equal(owner, d, owner_pre,
                                                    out)
                    elif owner.mnemonic == "bne":
                        fall_state = _refine_equal(owner, d, owner_pre,
                                                   out)
                    if "taken" in outcomes and target is not None \
                            and 0 <= target < n:
                        flow(i, target, taken_state)
                    if "fall" in outcomes and i + 1 < n:
                        flow(i, i + 1, fall_state)
                else:  # j
                    target = branch_target_index(program, i - 1,
                                                 self.cfg.slots)
                    if target is not None and 0 <= target < n:
                        flow(i, target, out)
                continue

            if insn.is_control(d) and i + 1 < n:
                pre_slot[i + 1] = s
                out = s
                if d.mnemonic == "jal":
                    out = s.set(31, AbsVal.const(program.address(i + 2)))
                elif d.mnemonic == "jalr" and d.rd:
                    out = s.set(d.rd, AbsVal.const(program.address(i + 2)))
                flow(i, i + 1, out)
                continue
            if d.mnemonic == "break":
                continue  # program halt
            out = self._transfer(d, i, s)
            if i + 1 < n:
                flow(i, i + 1, out)

        joined: AbsState | None = None
        for es in exit_states:
            joined = es if joined is None else joined.join(es)
        return joined, tuple(exit_slots)

    # -- calls and indirect jumps -----------------------------------------

    def _do_call(self, fn: FunctionInfo, slot: int, owner: Decoded,
                 owner_pre: AbsState, out: AbsState,
                 chain: tuple[int, ...],
                 flow: Callable[[int, int, AbsState], None]) -> None:
        program = self.program
        o = slot - 1
        if owner.mnemonic == "jal":
            callee = branch_target_index(program, o, self.cfg.slots)
        else:  # jalr: target from the register, pre-slot value
            v = _wrap_for_decision(owner_pre.get(owner.rs))
            callee = self._index_of_address(v.const_value())
        ret_index = slot + 1
        if callee is None or not 0 <= callee < len(program):
            self._finding(
                "unresolved-indirect-call", o,
                f"cannot resolve call target: {program.line(o)}")
            self._degrade_return(slot, ret_index, flow)
            return
        self.result.calls[o] = callee
        self._iedges[slot].add(callee)
        if callee in chain or len(chain) >= MAX_CALL_DEPTH:
            self._finding(
                "recursive-call", o,
                f"call at {program.line(o)} re-enters "
                f"{self._where(callee)} (recursion or call depth > "
                f"{MAX_CALL_DEPTH}); not analyzable")
            self._degrade_return(slot, ret_index, flow)
            return
        exit_state, exit_slots = self._walk_function(
            callee, out, chain + (callee,), program.address(ret_index))
        for es in exit_slots:
            self._iedges[es].add(ret_index)
        if exit_state is not None and ret_index < len(program):
            local_flow = flow  # return state resumes at the return point
            local_flow(slot, ret_index, exit_state)
            self._iedges[slot].discard(ret_index)  # bypass is not an edge

    def _degrade_return(self, slot: int, ret_index: int, flow) -> None:
        """Resume at the return point with no knowledge (sound)."""
        if ret_index < len(self.program):
            top = AbsState((AbsVal.const(0),) + (TOP,) * 31, {})
            flow(slot, ret_index, top)

    def _do_jr(self, fn: FunctionInfo, slot: int, owner: Decoded,
               owner_pre: AbsState, out: AbsState, ret_addr: int | None,
               flow: Callable[[int, int, AbsState], None],
               exit_states: list[AbsState],
               exit_slots: list[int]) -> None:
        program = self.program
        o = slot - 1
        v = owner_pre.get(owner.rs)
        if v.is_singleton and v.sym == 31 and v.lo == 0:
            # the entry $ra itself: return to the harness
            self.result.returns[o] = (EXIT,)
            exit_states.append(out)
            exit_slots.append(slot)
            return
        wrapped = _wrap_for_decision(v)
        addresses = wrapped.enumerate() if wrapped.sym is None else None
        if not addresses:
            self._finding(
                "unresolved-indirect-jump", o,
                f"cannot resolve target set of {program.line(o)} "
                f"(value {v!r})")
            self.result.returns.setdefault(o, ())
            return
        targets: list[int] = []
        new_extra: list[int] = []
        for addr in addresses:
            if ret_addr is not None and addr == ret_addr:
                exit_states.append(out)
                if slot not in exit_slots:
                    exit_slots.append(slot)
                t = self._index_of_address(addr)
                if t is not None:
                    targets.append(t)
                continue
            t = self._index_of_address(addr)
            if t is None:
                self._finding(
                    "unresolved-indirect-jump", o,
                    f"{program.line(o)} targets 0x{addr:08x}, outside "
                    f"the image or misaligned")
                continue
            if t in self.cfg.slots:
                # slot-entered execution runs the slot instruction and
                # falls through without branching; the walk models a
                # slot node with its owner's control semantics, so --
                # like branch_target_index -- refuse instead of walking
                # it wrong
                self._finding(
                    "jump-into-delay-slot", o,
                    f"{program.line(o)} targets 0x{addr:08x}, the delay "
                    f"slot of '{program.line(t - 1)}'; entering a slot "
                    f"without its owner has no well-defined semantics "
                    f"here")
                continue
            targets.append(t)
            if t not in self.extra.get(slot, ()):
                new_extra.append(t)
        prev = self.result.returns.get(o, ())
        self.result.returns[o] = tuple(sorted(set(prev) | set(targets)))
        if new_extra:
            self.extra[slot] = tuple(sorted(
                set(self.extra.get(slot, ())) | set(new_extra)))
            raise _RegionChanged
        for t in self.extra.get(slot, ()):
            flow(slot, t, out)

    def _index_of_address(self, addr: int | None) -> int | None:
        if addr is None:
            return None
        offset = addr - self.program.base
        if offset % 4 or not 0 <= offset // 4 < len(self.program):
            return None
        return offset // 4

    def _where(self, index: int) -> str:
        label = self.program.label_at(index)
        return (f"'{label}' (index {index})" if label
                else f"index {index}")

    # -- loop generalization ----------------------------------------------

    def _generalize(self, fn: FunctionInfo, header: int, s: AbsState
                    ) -> tuple[AbsState, int | None]:
        program = self.program
        loop = fn.loops[header]
        defs_by_reg: dict[int, list] = defaultdict(list)
        calls_in_body = False
        stores: list = []
        for i in sorted(loop.body):
            d = program.decoded[i]
            if d is None:
                continue
            if d.mnemonic in ("jal", "jalr"):
                calls_in_body = True
            if d.is_store:
                stores.append(d)
            mask = insn.defs(d) & MASK32
            r = 0
            while mask:
                if mask & 1:
                    defs_by_reg[r].append(d)
                mask >>= 1
                r += 1
        strides: dict[int, int] = {}
        for r, ds in defs_by_reg.items():
            if len(ds) == 1 and ds[0].mnemonic in ("addiu", "addi") \
                    and ds[0].rs == r and ds[0].rt == r and ds[0].imm:
                strides[r] = ds[0].imm
        # a call in the body clobbers everything a callee may touch:
        # registers it writes keep their iteration-0 values in a
        # per-body generalization, and the single-addiu stride shape
        # (hence any derived trip bound) is void if the callee writes
        # the counter -- so the header state drops to TOP registers and
        # empty memory, mirroring clobber_memory(), and only an
        # *assumed* trip bound survives
        if calls_in_body:
            trips = self.assume_trips.get(header)
            if trips is not None:
                self.result.assumed_loops.append((header, trips))
            return AbsState((AbsVal.const(0),) + (TOP,) * 31, {}), trips
        trips = self._infer_trips(loop, s, strides, defs_by_reg)
        if trips is None and header in self.assume_trips:
            trips = self.assume_trips[header]
            self.result.assumed_loops.append((header, trips))
        regs = list(s.regs)
        for r in range(1, 32):
            if r in strides and trips is not None:
                regs[r] = regs[r].widen_by_stride(strides[r], trips)
            elif r in defs_by_reg:
                regs[r] = TOP
        out = AbsState(tuple(regs), s.mem)
        # drop tracked words the body may store to, by base symbol --
        # the store base register is usually loop-derived (TOP in the
        # generalized state), so chase its def chain to the symbol
        # instead of evaluating it
        for d in stores:
            base = self._chase_sym(d.rs, s, defs_by_reg, 0)
            if base == "unknown":
                return out.clobber_memory(), trips
            out = out.clobber_memory(base)
        return out, trips

    def _chase_sym(self, r: int, s_entry: AbsState, defs_by_reg: dict,
                   depth: int):
        """The entry-symbolic base an in-loop address computation is
        rooted at: a register number, ``None`` for absolute addresses,
        or ``"unknown"``."""
        if r == 0:
            return None
        if r not in defs_by_reg:  # loop-invariant: entry value decides
            v = s_entry.get(r)
            return "unknown" if v.is_top else v.sym
        if depth >= 6 or len(defs_by_reg[r]) != 1:
            return "unknown"
        d = defs_by_reg[r][0]
        m = d.mnemonic
        if m in ("addiu", "addi"):
            if d.rs == r:  # self-increment: rooted at the entry value
                v = s_entry.get(r)
                return "unknown" if v.is_top else v.sym
            return self._chase_sym(d.rs, s_entry, defs_by_reg, depth + 1)
        if m in ("addu", "add", "subu", "sub"):
            sa = self._chase_sym(d.rs, s_entry, defs_by_reg, depth + 1)
            sb = self._chase_sym(d.rt, s_entry, defs_by_reg, depth + 1)
            if sa == "unknown" or sb == "unknown":
                return "unknown"
            if m in ("subu", "sub"):
                return sa if sb is None else "unknown"
            if sa is None:
                return sb
            return sa if sb is None else "unknown"
        if m == "lui":
            return None
        if m in ("andi", "sll", "srl"):
            # absolute stays absolute; anything rooted at a symbol
            # shifted/masked could point anywhere
            src = d.rt if m in ("sll", "srl") else d.rs
            base = self._chase_sym(src, s_entry, defs_by_reg, depth + 1)
            return None if base is None else "unknown"
        return "unknown"

    def _infer_trips(self, loop: Loop, s: AbsState,
                     strides: dict[int, int],
                     defs_by_reg: dict) -> int | None:
        """Trip bound from the loop-entry state.

        Recognizes the generated kernels' latch shape: a single back
        edge whose owner compares a strided induction register against
        a loop-invariant bound, exiting exactly at equality (``bne
        cnt, bound, header`` or ``beq cnt, bound, exit`` falling
        through to the header).  The +1 covers the increment sitting
        in the latch delay slot (so the compare sees the pre-increment
        value); the bound is an upper bound, not an exact count.
        """
        program = self.program
        if len(loop.latches) != 1:
            return None
        u = loop.latches[0]
        if u not in self.cfg.slots:
            return None
        owner = program.decoded[u - 1]
        if owner is None or owner.mnemonic not in ("bne", "beq"):
            return None
        target = branch_target_index(program, u - 1, self.cfg.slots)
        if owner.mnemonic == "bne" and target != loop.header:
            return None
        if owner.mnemonic == "beq" and (target == loop.header
                                        or u + 1 != loop.header):
            return None
        for cnt, bound in ((owner.rs, owner.rt), (owner.rt, owner.rs)):
            c = strides.get(cnt)
            if c is None or bound in defs_by_reg:
                continue
            diff = s.get(bound).sub(s.get(cnt))
            if diff.is_top or diff.sym is not None:
                continue
            if (c > 0 and diff.lo < 0) or (c < 0 and diff.hi > 0):
                continue
            ac = abs(c)
            if diff.lo % ac or diff.hi % ac or (diff.step % ac
                                                if diff.step else 0):
                continue
            trips = max(abs(diff.lo), abs(diff.hi)) // ac + 1
            return trips if trips <= MAX_TRIPS else None
        return None

    # -- the transfer function --------------------------------------------

    def _transfer(self, d, i: int, s: AbsState) -> AbsState:
        m = d.mnemonic
        if d.is_load:
            addr = s.get(d.rs).add_const(d.imm)
            self._note_addr(i, addr)
            value = TOP
            if m == "lw" and addr.is_singleton and not addr.is_top:
                value = s.load_word((addr.sym, addr.lo))
            return s.set(d.rt, value)
        if d.is_store:
            addr = s.get(d.rs).add_const(d.imm)
            self._note_addr(i, addr)
            if addr.is_top:
                return s.clobber_memory()
            if m == "sw" and addr.is_singleton:
                return s.store_word((addr.sym, addr.lo), s.get(d.rt))
            return s.clobber_memory(addr.sym, addr.lo, addr.hi + 3)
        if m == "lui":
            return s.set(d.rt, AbsVal.const((d.imm & 0xFFFF) << 16))
        if m in ("addiu", "addi"):
            return s.set(d.rt, _norm(s.get(d.rs).add_const(d.imm)))
        if m == "andi":
            return s.set(d.rt, s.get(d.rs).and_const(d.imm))
        if m == "ori":
            return s.set(d.rt, s.get(d.rs).or_const(d.imm))
        if m == "xori":
            return s.set(d.rt, s.get(d.rs).xor_const(d.imm))
        if m in ("addu", "add"):
            return s.set(d.rd, _norm(s.get(d.rs).add(s.get(d.rt))))
        if m in ("subu", "sub"):
            return s.set(d.rd, _norm(s.get(d.rs).sub(s.get(d.rt))))
        if m == "sll":
            return s.set(d.rd, _norm(s.get(d.rt).shift_left(d.shamt)))
        if m == "srl":
            return s.set(d.rd, s.get(d.rt).shift_right_logical(d.shamt))
        if m == "sra":
            v = s.get(d.rt)
            if v.is_const:
                return s.set(d.rd, AbsVal.const(_s32(v.lo) >> d.shamt
                                                & MASK32))
            return s.set(d.rd, v.shift_right_logical(d.shamt)
                         if not v.is_top and v.lo >= 0 else TOP)
        if m in ("and", "or", "xor", "nor"):
            return s.set(d.rd, _bitwise(m, s.get(d.rs), s.get(d.rt)))
        if m in ("slt", "sltu"):
            return s.set(d.rd, _compare_lt(s.get(d.rs), s.get(d.rt),
                                           signed=(m == "slt")))
        if m in ("slti", "sltiu"):
            imm = d.imm & MASK32 if m == "sltiu" else d.imm
            return s.set(d.rt, _compare_lt(s.get(d.rs),
                                           AbsVal.const(imm),
                                           signed=(m == "slti")))
        # everything else (muldiv moves, shifts-by-register, cop2,
        # syscall): clear whatever GPRs it defines
        mask = insn.defs(d) & MASK32
        r = 0
        while mask:
            if mask & 1:
                s = s.set(r, TOP)
            mask >>= 1
            r += 1
        return s


# ---------------------------------------------------------------------------
# Domain helpers tied to Pete's mod-2^32 register file
# ---------------------------------------------------------------------------


def _s32(v: int) -> int:
    v &= MASK32
    return v - (1 << 32) if v & (1 << 31) else v


def _norm(v: AbsVal) -> AbsVal:
    """Map fully-concrete results into Pete's [0, 2^32) register space.

    Symbolic values keep unwrapped offsets (the no-wrap assumption);
    absolute singletons wrap like the hardware; absolute intervals that
    straddle 0 or 2^32 lose to TOP rather than wrap incorrectly.
    """
    if v.is_top or v.sym is not None:
        return v
    if v.lo == v.hi:
        return AbsVal.const(v.lo & MASK32)
    if v.lo < 0 or v.hi > MASK32:
        return TOP
    return v


def _wrap_for_decision(v: AbsVal) -> AbsVal:
    """Like :func:`_norm` but for branch/jump decisions (never widens
    a symbolic value; refuses rather than mis-wraps)."""
    return _norm(v)


def _bitwise(m: str, a: AbsVal, b: AbsVal) -> AbsVal:
    if a.is_const and b.is_const:
        x, y = a.lo & MASK32, b.lo & MASK32
        out = {"and": x & y, "or": x | y, "xor": x ^ y,
               "nor": ~(x | y) & MASK32}[m]
        return AbsVal.const(out)
    if m == "or" and a.is_const and a.lo == 0:
        return b
    if m in ("or", "xor") and b.is_const and b.lo == 0:
        return a
    if m == "and" and ((a.is_const and a.lo == 0)
                       or (b.is_const and b.lo == 0)):
        return AbsVal.const(0)
    return TOP


def _signed_bounds(a: AbsVal) -> tuple[int, int] | None:
    """The value set as a signed interval, or ``None`` when undecidable.

    Only absolute ranges whose 32-bit values sit entirely on one side
    of the sign boundary map cleanly: ``[0, 2^31)`` is its own signed
    range, ``[2^31, 2^32)`` maps down by ``2^32`` (a state singleton
    like ``0xFFFFFFFF`` is the wrapped form of ``-1``), and unnormed
    small negatives (``slti``'s sign-extended immediate) are already
    signed.  Symbolic values never decide a signed order: the unknown
    base could put the two operands on opposite sides of ``2^31``.
    """
    if a.is_top or a.sym is not None:
        return None
    if -(1 << 31) <= a.lo and a.hi < (1 << 31):
        return a.lo, a.hi
    if (1 << 31) <= a.lo and a.hi <= MASK32:
        return a.lo - (1 << 32), a.hi - (1 << 32)
    return None


def _compare_lt(a: AbsVal, b: AbsVal, signed: bool) -> AbsVal:
    """slt/slti (``signed``) or sltu/sltiu result: decided when
    comparable, else [0, 1].

    The unsigned order is decided for same-base (or both-absolute,
    in-range) operands, where the no-wrap assumption makes offset order
    value order.  The signed order is decided only when both operands
    map to signed intervals (see :func:`_signed_bounds`) -- deciding it
    with the unsigned order would invert every comparison against a
    wrapped negative (``slt $t1, $t0, $zero`` with ``$t0 = -1``).
    """
    decided = None
    if signed:
        sa, sb = _signed_bounds(a), _signed_bounds(b)
        if sa is not None and sb is not None:
            if sa[1] < sb[0]:
                decided = 1
            elif sb[1] <= sa[0]:
                decided = 0
    elif not a.is_top and not b.is_top and a.sym == b.sym:
        if a.hi < b.lo:
            decided = 1
        elif b.hi <= a.lo:
            decided = 0
    if decided is not None:
        return AbsVal.const(decided)
    return AbsVal.range(0, 1, 1)


def _refine_equal(owner, slot_d, pre: AbsState, out: AbsState) -> AbsState:
    """State refinement on the edge where ``rs == rt`` held.

    If one side was a singleton *before the delay slot*, pin the other
    side to that value in the post-slot state (adjusting when the slot
    self-increments it, the common latch shape).  This is what makes a
    counted loop's exit state exact again after header generalization.
    """
    for a, b in ((owner.rs, owner.rt), (owner.rt, owner.rs)):
        vb = pre.get(b)
        if a == 0 or vb.is_top or not vb.is_singleton:
            continue
        val = vb
        if slot_d is not None and insn.defs(slot_d) & MASK32 & (1 << a):
            if slot_d.mnemonic in ("addiu", "addi") \
                    and slot_d.rs == a and slot_d.rt == a:
                val = vb.add_const(slot_d.imm)
            else:
                continue  # slot rewrote it some other way: can't pin
        out = out.set(a, _norm(val))
    return out


def _branch_outcomes(d, s: AbsState) -> set[str]:
    """Feasible directions of a conditional branch under state ``s``."""
    m = d.mnemonic
    both = {"taken", "fall"}
    if m in ("beq", "bne"):
        if d.rs == d.rt:
            return {"taken"} if m == "beq" else {"fall"}
        a = _wrap_for_decision(s.get(d.rs))
        b = _wrap_for_decision(s.get(d.rt))
        if a.must_equal(b):
            return {"taken"} if m == "beq" else {"fall"}
        if a.cannot_equal(b):
            return {"fall"} if m == "beq" else {"taken"}
        return both
    if m in ("bltz", "bgez", "blez", "bgtz"):
        v = s.get(d.rs)
        if v.is_top or v.sym is not None:
            return both
        # sign bit of the 32-bit value: clear for [0, 2^31), set for
        # [-2^31, 0) (unwrapped) and [2^31, 2^32) (wrapped)
        if 0 <= v.lo and v.hi < (1 << 31):
            negative = False
        elif (-(1 << 31) <= v.lo and v.hi < 0) \
                or ((1 << 31) <= v.lo and v.hi <= MASK32):
            negative = True
        else:
            return both
        zero_only = v.is_const and v.lo == 0
        zero_possible = (not negative and v.lo <= 0
                         and (-v.lo) % (v.step or 1) == 0)
        if m == "bltz":
            return {"taken"} if negative else {"fall"}
        if m == "bgez":
            return {"fall"} if negative else {"taken"}
        if m == "blez":
            if negative or zero_only:
                return {"taken"}
            return both if zero_possible else {"fall"}
        if m == "bgtz":
            if negative or zero_only:
                return {"fall"}
            return both if zero_possible else {"taken"}
    return both
