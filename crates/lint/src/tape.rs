//! Translation validation of levelized two-phase instruction tapes.
//!
//! [`Program::compile`] lowers a gate netlist into two straight-line
//! tapes (high phase, low phase); `peephole` then rewrites them. These
//! passes re-check the executor-facing invariants *after* the fact, so an
//! optimizer bug surfaces as a diagnostic instead of a wrong Monte-Carlo
//! number:
//!
//! | code | finding |
//! |------|---------|
//! | E201 | def-before-use: an operand read before any write (strict per-tape order pre-peephole; post-peephole, a read of a slot never written anywhere and not input/state/constant) |
//! | E202 | a slot written more than once in one tape |
//! | E203 | dead store surviving DCE (optimized programs only) |
//! | E204 | slot index or N-ary operand window out of bounds |
//! | E205 | fault-arm input column (`fault.<chan>.<rail>`) referenced more or less than once |
//!
//! The pass functions take plain slices, so tests fabricate violations
//! directly instead of needing an API that constructs invalid programs.

use elastic_netlist::levelize::{Instr, Program};
use elastic_netlist::{Gate, Netlist};

use crate::{Diagnostic, LintReport};

/// Runs every tape pass on a compiled program.
///
/// `optimized` states whether `program` went through the peephole pass:
/// the strict per-tape def-before-use order (E201) and the absence of
/// dead stores (E203) hold on different sides of it. Pre-peephole, the
/// levelizer emits strictly dependency-ordered tapes but leaves dead
/// gates in; post-peephole, instructions may legitimately read a slot
/// written later in the cycle (the value wraps from the previous cycle —
/// the DCE's boundary set), but every surviving store must be live.
pub fn lint_program(netlist: &Netlist, program: &Program, optimized: bool) -> LintReport {
    let mut diags = Vec::new();
    let n = program.num_slots();
    let source = source_slots(netlist, n);
    let tapes: [(&str, &[Instr]); 2] = [("high", program.high()), ("low", program.low())];

    for (phase, tape) in tapes {
        check_slot_bounds(phase, tape, program.args(), n, &mut diags);
        check_single_assignment(phase, tape, &mut diags);
        if !optimized {
            check_def_before_use(phase, tape, program.args(), &source, &mut diags);
        }
    }
    // Post-peephole the def-before-use obligation weakens to "no dangling
    // reads": every operand must be a source slot or written *somewhere*.
    if optimized {
        check_dangling_reads(&tapes, program.args(), &source, &mut diags);
        let mut roots: Vec<u32> = Vec::new();
        roots.extend(program.outputs().iter().map(|o| o.index() as u32));
        roots.extend(program.state_nets().iter().map(|s| s.index() as u32));
        for f in program.ffs() {
            roots.push(f.q);
            roots.push(f.d);
        }
        check_dead_stores(&tapes, program.args(), &roots, n, &mut diags);
    }
    check_fault_arms(netlist, program, &mut diags);
    LintReport::new(diags)
}

/// Slots whose value is defined before either tape runs: primary inputs,
/// constants, flip-flop outputs and latches (state written at cycle
/// boundaries / in the opposite phase).
pub fn source_slots(netlist: &Netlist, num_slots: usize) -> Vec<bool> {
    let mut source = vec![false; num_slots];
    for id in netlist.nets() {
        if matches!(
            netlist.gate(id),
            Gate::Input | Gate::Const(_) | Gate::Dff { .. } | Gate::Latch { .. }
        ) {
            source[id.index()] = true;
        }
    }
    source
}

/// E204: every destination and operand slot must index into the slot
/// arena, and every N-ary operand window must lie within the pool.
pub fn check_slot_bounds(
    phase: &str,
    tape: &[Instr],
    args: &[u32],
    num_slots: usize,
    diags: &mut Vec<Diagnostic>,
) {
    for (pc, &instr) in tape.iter().enumerate() {
        if let Instr::AndN { start, len, .. } | Instr::OrN { start, len, .. } = instr {
            if start as usize + len as usize > args.len() {
                diags.push(Diagnostic::error(
                    "E204",
                    format!("{phase}[{pc}]"),
                    format!(
                        "operand window {}..{} exceeds the {}-entry pool",
                        start,
                        start as usize + len as usize,
                        args.len()
                    ),
                ));
                continue; // operands() would index out of bounds
            }
        }
        let mut slots = instr.operands(args);
        slots.push(instr.dst());
        for s in slots {
            if s as usize >= num_slots {
                diags.push(Diagnostic::error(
                    "E204",
                    format!("{phase}[{pc}]"),
                    format!("slot {s} out of range for a {num_slots}-slot program"),
                ));
            }
        }
    }
}

/// E202: the levelizer emits at most one write per slot per tape, and the
/// peephole rewrites preserve that — a duplicate means two instructions
/// race for the same slot.
pub fn check_single_assignment(phase: &str, tape: &[Instr], diags: &mut Vec<Diagnostic>) {
    let mut writer: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for (pc, instr) in tape.iter().enumerate() {
        if let Some(first) = writer.insert(instr.dst(), pc) {
            diags.push(Diagnostic::error(
                "E202",
                format!("{phase}[{pc}]"),
                format!(
                    "slot {} is written a second time (first written at {phase}[{first}])",
                    instr.dst()
                ),
            ));
        }
    }
}

/// E201 (strict): within one tape, every operand must be a source slot or
/// written by an earlier instruction of the same tape — the levelizer's
/// dependency-order contract. Only valid pre-peephole.
pub fn check_def_before_use(
    phase: &str,
    tape: &[Instr],
    args: &[u32],
    source: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    let mut written = vec![false; source.len()];
    for (pc, &instr) in tape.iter().enumerate() {
        for op in instr.operands(args) {
            let i = op as usize;
            // A LatchEn's self-read (the hold path) is a state read.
            let self_hold = matches!(instr, Instr::LatchEn { dst, .. } if dst == op);
            if i < source.len() && !source[i] && !written[i] && !self_hold {
                diags.push(Diagnostic::error(
                    "E201",
                    format!("{phase}[{pc}]"),
                    format!("slot {op} is read before any write in this tape"),
                ));
            }
        }
        if let Some(w) = written.get_mut(instr.dst() as usize) {
            *w = true;
        }
    }
}

/// E201 (post-peephole form): an operand that is neither a source slot
/// nor written by *either* tape reads its power-up value forever — the
/// constant-folding pass should have removed it, so a surviving read is a
/// translation bug.
pub fn check_dangling_reads(
    tapes: &[(&str, &[Instr])],
    args: &[u32],
    source: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    let mut written = vec![false; source.len()];
    for (_, tape) in tapes {
        for instr in *tape {
            if let Some(w) = written.get_mut(instr.dst() as usize) {
                *w = true;
            }
        }
    }
    for (phase, tape) in tapes {
        for (pc, &instr) in tape.iter().enumerate() {
            for op in instr.operands(args) {
                let i = op as usize;
                if i < source.len() && !source[i] && !written[i] {
                    diags.push(Diagnostic::error(
                        "E201",
                        format!("{phase}[{pc}]"),
                        format!("slot {op} is read but never written by either tape"),
                    ));
                }
            }
        }
    }
}

/// E203: order-insensitive liveness from the observation roots (outputs,
/// state, flip-flop captures). Any store whose destination the fixpoint
/// never marks live is dead — the peephole DCE is strictly stronger
/// (order- and phase-aware), so everything it keeps must pass this.
pub fn check_dead_stores(
    tapes: &[(&str, &[Instr])],
    args: &[u32],
    roots: &[u32],
    num_slots: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let mut live = vec![false; num_slots];
    for &r in roots {
        if let Some(l) = live.get_mut(r as usize) {
            *l = true;
        }
    }
    loop {
        let mut changed = false;
        for (_, tape) in tapes {
            for &instr in *tape {
                if live.get(instr.dst() as usize).copied().unwrap_or(false) {
                    for op in instr.operands(args) {
                        if let Some(l) = live.get_mut(op as usize) {
                            if !*l {
                                *l = true;
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (phase, tape) in tapes {
        for (pc, instr) in tape.iter().enumerate() {
            if !live.get(instr.dst() as usize).copied().unwrap_or(false) {
                diags.push(Diagnostic::error(
                    "E203",
                    format!("{phase}[{pc}]"),
                    format!(
                        "dead store to slot {} survived dead-code elimination",
                        instr.dst()
                    ),
                ));
            }
        }
    }
}

/// E205: every fault-arm input column (`fault.<chan>.<rail>`, the
/// injection testbench's arming input) must be referenced exactly once
/// across both tapes — the corruption site XORs it into one rail. Zero
/// references mean the optimizer folded the arm away (the fault can never
/// fire); more than one means the arm fans out beyond its site.
pub fn check_fault_arms(netlist: &Netlist, program: &Program, diags: &mut Vec<Diagnostic>) {
    for &input in program.inputs() {
        let name = netlist.net_name(input);
        if !name.starts_with("fault.") {
            continue;
        }
        let slot = input.index() as u32;
        let mut refs = 0usize;
        for tape in [program.high(), program.low()] {
            for &instr in tape {
                refs += instr
                    .operands(program.args())
                    .iter()
                    .filter(|&&op| op == slot)
                    .count();
            }
        }
        if refs != 1 {
            diags.push(Diagnostic::error(
                "E205",
                name.clone(),
                format!("fault arm referenced {refs} times across both tapes (expected 1)"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_netlist::levelize::Program;
    use elastic_netlist::Netlist;

    /// A small sequential netlist: two inputs, an xor, a flip-flop.
    fn toy() -> Netlist {
        let mut n = Netlist::new("toy");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.xor(a, b);
        let q = n.dff_bound(x, false);
        let y = n.and2(q, a);
        n.mark_output(y).unwrap();
        n
    }

    #[test]
    fn clean_program_lints_clean_both_sides() {
        let n = toy();
        let p = Program::compile(&n).unwrap();
        let report = lint_program(&n, &p, false);
        assert!(report.diagnostics.is_empty(), "{}", report.render_human());
        let (p, _) = Program::compile_optimized(&n).unwrap();
        let report = lint_program(&n, &p, true);
        assert!(report.diagnostics.is_empty(), "{}", report.render_human());
    }

    #[test]
    fn fabricated_use_before_def_trips_e201() {
        // slot 2 = and2(0, 1) but slot 0 is itself computed later and is
        // not a source gate.
        let tape = [
            Instr::And2 { dst: 2, a: 0, b: 1 },
            Instr::Not { dst: 0, src: 1 },
        ];
        let source = vec![false, true, false];
        let mut diags = Vec::new();
        check_def_before_use("high", &tape, &[], &source, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E201");
        assert!(diags[0].site.contains("high[0]"), "{}", diags[0].site);
    }

    #[test]
    fn latch_hold_self_read_is_not_e201() {
        let tape = [Instr::LatchEn {
            dst: 0,
            d: 1,
            en: 2,
        }];
        let source = vec![false, true, true];
        let mut diags = Vec::new();
        check_def_before_use("low", &tape, &[], &source, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn fabricated_double_write_trips_e202() {
        let tape = [
            Instr::Not { dst: 3, src: 0 },
            Instr::Copy { dst: 3, src: 1 },
        ];
        let mut diags = Vec::new();
        check_single_assignment("low", &tape, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E202");
    }

    #[test]
    fn fabricated_dead_store_trips_e203() {
        // slot 5 feeds nothing and is not a root.
        let high: &[Instr] = &[
            Instr::Not { dst: 5, src: 0 },
            Instr::Copy { dst: 3, src: 0 },
        ];
        let low: &[Instr] = &[];
        let mut diags = Vec::new();
        check_dead_stores(&[("high", high), ("low", low)], &[], &[3], 6, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E203");
        assert!(diags[0].message.contains("slot 5"), "{}", diags[0].message);
    }

    #[test]
    fn fabricated_out_of_range_slot_trips_e204() {
        let tape = [Instr::Copy { dst: 9, src: 1 }];
        let mut diags = Vec::new();
        check_slot_bounds("high", &tape, &[], 4, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E204");
        // An N-ary window past the pool end is caught without panicking.
        let tape = [Instr::AndN {
            dst: 0,
            start: 1,
            len: 3,
        }];
        let mut diags = Vec::new();
        check_slot_bounds("low", &tape, &[0, 1], 4, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E204");
    }

    #[test]
    fn post_peephole_def_before_use_violation_trips_e201() {
        // Acceptance sabotage for the tape group: a surviving read of a
        // slot that no tape writes and no source backs. Fabricated
        // directly (Program has no mutators), mirroring what a broken DCE
        // would leave behind.
        let high: &[Instr] = &[Instr::And2 { dst: 3, a: 7, b: 1 }];
        let low: &[Instr] = &[];
        let source = vec![false, true, false, false, false, false, false, false];
        let mut diags = Vec::new();
        check_dangling_reads(&[("high", high), ("low", low)], &[], &source, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E201");
        assert!(diags[0].message.contains("slot 7"), "{}", diags[0].message);
    }

    #[test]
    fn paper_systems_tapes_validate() {
        use elastic_core::compile::{compile, CompileOptions};
        use elastic_core::systems::{paper_example, Config};
        for config in Config::all() {
            let sys = paper_example(config).unwrap();
            let compiled = compile(
                &sys.network,
                &CompileOptions {
                    data_width: 2,
                    ..CompileOptions::default()
                },
            )
            .unwrap();
            let p = Program::compile(&compiled.netlist).unwrap();
            let report = lint_program(&compiled.netlist, &p, false);
            assert!(
                report.diagnostics.is_empty(),
                "{} raw: {}",
                config.label(),
                report.render_human()
            );
            let (p, _) = Program::compile_optimized(&compiled.netlist).unwrap();
            let report = lint_program(&compiled.netlist, &p, true);
            assert!(
                report.diagnostics.is_empty(),
                "{} optimized: {}",
                config.label(),
                report.render_human()
            );
        }
    }

    #[test]
    fn fault_arm_is_referenced_exactly_once() {
        use elastic_core::compile::{compile, CompileOptions, FaultInjection, FaultRail};
        use elastic_core::systems::{paper_example, Config};
        let sys = paper_example(Config::ActiveAntiTokens).unwrap();
        let chan = sys.network.channel(sys.channels.f3_w).name.clone();
        let compiled = compile(
            &sys.network,
            &CompileOptions {
                data_width: 2,
                faults: vec![FaultInjection::RailFlip {
                    channel: chan,
                    rail: FaultRail::Vp,
                }],
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let (p, _) = Program::compile_optimized(&compiled.netlist).unwrap();
        let report = lint_program(&compiled.netlist, &p, true);
        assert!(report.diagnostics.is_empty(), "{}", report.render_human());
        // The arm is a real input of the program.
        assert!(
            p.inputs()
                .iter()
                .any(|&i| compiled.netlist.net_name(i).starts_with("fault.")),
            "fault arm input missing"
        );
    }
}
