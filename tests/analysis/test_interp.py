"""The whole-program abstract interpreter: call graph, ranges, loops.

Small hand-written images exercise each capability the verifier leans
on -- constant-derived trip counts, jal/jr call-return resolution,
dead-branch proofs, and the assumed-bound escape hatch -- so a interp
regression is localized here before it surfaces as a refused bound in
``verify --all``.
"""

from repro.analysis.absdom import AbsState, AbsVal
from repro.analysis.cfg import AsmProgram
from repro.analysis.interp import analyze_image

HALT = "\n__halt:\n    halt\n"


def _interp(src, name="t", assume_trips=None):
    program = AsmProgram.from_source(src + HALT, name=name)
    halt = program.labels["__halt"]
    result = analyze_image(program, 0,
                           entry_values={31: program.address(halt)},
                           assume_trips=assume_trips)
    return program, result


def test_constant_trip_count_inferred():
    program, result = _interp("""
        li $t0, 4
    loop:
        addiu $t0, $t0, -1
        bne $t0, $zero, loop
        nop
        jr $ra
        nop
    """)
    header = program.labels["loop"]
    # trip_bounds are upper bounds: sound (never below the 4 actual
    # iterations), allowed one conservative extra
    assert 4 <= result.trip_bounds[(0, header)] <= 5
    assert result.assumed_loops == []
    assert not result.findings


def test_call_and_return_resolved():
    program, result = _interp("""
        move $t7, $ra
        jal callee
        nop
        jr $t7
        nop
    callee:
        addu $v0, $a0, $a1
        jr $ra
        nop
    """)
    callee = program.labels["callee"]
    assert list(result.calls.values()) == [callee]
    assert len(result.functions) == 2
    # the callee's jr resolves back to the call site, the outer jr to
    # the harness halt stub
    assert not result.findings


def test_dead_branch_proved():
    _, result = _interp("""
        li $t0, 0
        bne $t0, $zero, dead
        nop
        jr $ra
        nop
    dead:
        sw $zero, 0($zero)
        jr $ra
        nop
    """)
    assert [(i, d) for i, d in result.dead_branches] and \
        result.dead_branches[0][1] == "fall"
    # the never-taken arm is never walked
    feas = result.branch_feasible[result.dead_branches[0][0]]
    assert feas == frozenset({"fall"})


def test_unbounded_loop_reported_then_assumable():
    src = """
    loop:
        lw $t0, 0($a0)
        bne $t0, $zero, loop
        nop
        jr $ra
        nop
    """
    program, result = _interp(src)
    assert any(f.check == "unbounded-loop" for f in result.findings)

    header = program.labels["loop"]
    program, result = _interp(src, assume_trips={header: 8})
    assert not result.findings
    assert (header, 8) in result.assumed_loops
    assert result.trip_bounds[(0, header)] == 8


def test_slt_signed_on_wrapped_negative():
    # regression: slt is a *signed* compare.  0xFFFFFFFF is -1, so
    # slt $t1, $t0, $zero is 1 and the bne is always taken; deciding
    # it with the unsigned order proved the wrong side dead and pruned
    # the path hardware actually takes.
    program, result = _interp("""
        addiu $t0, $zero, -1
        slt $t1, $t0, $zero
        bne $t1, $zero, neg
        nop
        jr $ra
        nop
    neg:
        jr $ra
        nop
    """)
    assert (2, "taken") in result.dead_branches
    assert program.labels["neg"] in result.reached


def test_sltu_still_decided_unsigned():
    _, result = _interp("""
        addiu $t0, $zero, -1
        sltu $t1, $t0, $zero
        bne $t1, $zero, taken
        nop
        jr $ra
        nop
    taken:
        jr $ra
        nop
    """)
    # 0xFFFFFFFF is the largest unsigned value: sltu yields 0
    assert (2, "fall") in result.dead_branches


def test_slti_compares_signed_immediate():
    _, result = _interp("""
        addiu $t0, $zero, -10
        slti $t1, $t0, -5
        bne $t1, $zero, taken
        nop
        jr $ra
        nop
    taken:
        jr $ra
        nop
    """)
    # -10 < -5 in the signed order, wrapped forms notwithstanding
    assert (2, "taken") in result.dead_branches


def test_slt_on_symbolic_operands_undecided():
    _, result = _interp("""
        slt $t1, $a0, $a1
        bne $t1, $zero, other
        nop
        jr $ra
        nop
    other:
        jr $ra
        nop
    """)
    # unknown entry values may sit on either side of 2^31
    assert result.branch_feasible[1] == frozenset({"taken", "fall"})


def test_call_in_loop_clobbers_callee_written_registers():
    # regression: the helper writes $v0 inside the loop, so the header
    # state must not keep the iteration-0 value $v0 = 0 -- hardware
    # takes the exit branch from iteration 2
    src = """
        move $t7, $ra
        li $v0, 0
    loop:
        bne $v0, $zero, done
        nop
        jal helper
        nop
        b loop
        nop
    done:
        jr $t7
        nop
    helper:
        li $v0, 1
        jr $ra
        nop
    """
    program, result = _interp(src)
    header = program.labels["loop"]
    assert result.branch_feasible[header] == frozenset({"taken", "fall"})
    assert not any(i == header for i, _ in result.dead_branches)
    assert program.labels["done"] in result.reached
    # $v0 ($2) holds no stale value at the header...
    assert result.states[header].get(2).is_top
    # ...and the derived-trip machinery cannot bound the loop either
    # (the callee may rewrite the counter); only an assumption can
    assert any(f.check == "unbounded-loop" for f in result.findings)

    program, result = _interp(src, assume_trips={header: 4})
    assert not any(f.check == "unbounded-loop" for f in result.findings)
    assert (header, 4) in result.assumed_loops
    assert result.states[header].get(2).is_top


def test_jr_target_in_delay_slot_refused():
    # a jump-table target inside another instruction's delay slot would
    # be walked with the owner's control semantics (branching, where
    # slot-entered hardware falls through); refuse it instead
    program, result = _interp("""
        la $t0, br
        addiu $t0, $t0, 4
        jr $t0
        nop
    br: beq $zero, $zero, out
        .ds nop
    out:
        jr $ra
        nop
    """)
    assert any(f.check == "jump-into-delay-slot" for f in result.findings)
    slot = program.labels["br"] + 1
    assert slot in result.cfg.slots and slot not in result.reached


def test_ranged_clobber_honors_zero_upper_bound():
    # regression: hi == 0 is a legitimate upper bound, not "absent"
    s = AbsState().store_word((4, 0), AbsVal.const(5))
    assert not s.load_word((4, 0)).is_top
    assert s.clobber_memory(4, -8, 0).load_word((4, 0)).is_top


def test_value_range_tracks_loop_counter():
    program, result = _interp("""
        li $t0, 0
        li $t1, 6
    loop:
        addiu $t0, $t0, 1
        bne $t0, $t1, loop
        nop
        jr $ra
        nop
    """)
    header = program.labels["loop"]
    assert 6 <= result.trip_bounds[(0, header)] <= 7


def _dominator_back_edges(fn):
    """Brute force: ``u -> v`` is a back edge when every path from the
    entry to ``u`` passes through ``v`` (``u`` is unreachable once
    ``v`` is removed)."""
    back = set()
    reach_without: dict[int, set[int]] = {}
    for u, targets in fn.succ.items():
        for v in targets:
            if v not in reach_without:
                seen = set() if v == fn.entry else {fn.entry}
                stack = list(seen)
                while stack:
                    for s in fn.succ[stack.pop()]:
                        if s != v and s not in seen:
                            seen.add(s)
                            stack.append(s)
                reach_without[v] = seen
            if u == v or u not in reach_without[v]:
                back.add((u, v))
    return back


def test_back_edges_match_brute_force_dominance_on_every_kernel():
    from repro.analysis.registry import KERNELS
    from repro.analysis.verify import analyze_spec

    for spec in KERNELS:
        _, result = analyze_spec(spec)
        for fn in result.functions.values():
            assert fn.back_edges == _dominator_back_edges(fn), spec.name
