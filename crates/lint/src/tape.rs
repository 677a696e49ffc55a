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
//! | E204 | slot index or N-ary operand window out of bounds, or an `AndN` inverted tail longer than its window |
//! | E205 | fault-arm input column (`fault.<chan>.<rail>`) referenced more or less than once |
//! | E206 | a flip-flop a fold dropped leaves its power-up value on a run of the unfolded tape ([`check_fold_pins`]) |
//!
//! The pass functions take plain slices, so tests fabricate violations
//! directly instead of needing an API that constructs invalid programs.

use elastic_netlist::levelize::{Instr, Program};
use elastic_netlist::wide::WideSim;
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
/// arena, every N-ary operand window must lie within the pool, and an
/// [`Instr::AndN`]'s inverted tail must fit in its window (`inv <= len`).
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
        if let Instr::AndN { len, inv, .. } = instr {
            if inv > len {
                diags.push(Diagnostic::error(
                    "E204",
                    format!("{phase}[{pc}]"),
                    format!("inverted tail of {inv} operands exceeds the {len}-operand window"),
                ));
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

/// E206: every flip-flop of `unfolded` that `folded` no longer commits
/// ([`Program::fold_inputs`] proved it never leaves its power-up value)
/// keeps that value on a run of `unfolded` from power-up with the inputs
/// of `fixed` held at their values and every other input drawn at
/// random: 512 lanes × 256 cycles, one fixed seed. The fold is exact only
/// on such runs, so a flip-flop that leaves its value there is an unsound
/// pin; one diagnostic names it, with the first cycle it was seen away.
pub fn check_fold_pins(
    netlist: &Netlist,
    unfolded: &Program,
    folded: &Program,
    fixed: &[(u32, bool)],
) -> Vec<Diagnostic> {
    const W: usize = 8;
    const CYCLES: usize = 256;
    let dropped: Vec<usize> = (0..unfolded.ffs().len())
        .filter(|&i| !folded.ffs().contains(&unfolded.ffs()[i]))
        .collect();
    if dropped.is_empty() {
        return Vec::new();
    }
    let slots: Vec<u32> = unfolded.inputs().iter().map(|i| i.index() as u32).collect();
    let mut sim = WideSim::<W>::from_program(unfolded.clone());
    let mut captures = vec![[0u64; W]; sim.carried_len()];
    let mut state = 2007;
    let mut row = vec![0u64; slots.len() * W];
    let mut left = vec![None; dropped.len()];
    for cycle in 0..CYCLES {
        for (words, &s) in row.chunks_exact_mut(W).zip(&slots) {
            match fixed.iter().find(|&&(f, _)| f == s) {
                Some(&(_, v)) => words.fill(0u64.wrapping_sub(u64::from(v))),
                None => words.fill_with(|| splitmix64(&mut state)),
            }
        }
        sim.cycle_packed(&slots, &row);
        sim.read_carried(&mut captures);
        for (seen, &i) in left.iter_mut().zip(&dropped) {
            let power_up =
                0u64.wrapping_sub(u64::from(unfolded.init()[unfolded.ffs()[i].q as usize]));
            if seen.is_none() && captures[i].iter().any(|&w| w != power_up) {
                *seen = Some(cycle);
            }
        }
    }
    let name = |q: u32| {
        let net = unfolded
            .state_nets()
            .iter()
            .find(|s| s.index() == q as usize);
        net.map_or_else(|| format!("slot {q}"), |&n| netlist.net_name(n))
    };
    dropped
        .iter()
        .zip(left)
        .filter_map(|(&i, cycle)| {
            let q = unfolded.ffs()[i].q;
            cycle.map(|c| {
                Diagnostic::error(
                    "E206",
                    name(q),
                    format!(
                        "the fold dropped this flip-flop as never leaving its power-up \
                         value, but it captures the other value in cycle {c} of a run from \
                         power-up with the fixed inputs held"
                    ),
                )
            })
        })
        .collect()
}

/// The next word of a SplitMix64 stream at `state`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_netlist::levelize::Program;
    use elastic_netlist::reach::SEARCH_BUDGET;
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
            inv: 0,
        }];
        let mut diags = Vec::new();
        check_slot_bounds("low", &tape, &[0, 1], 4, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E204");
        // An inverted tail longer than its (in-pool) window is caught too.
        let tape = [Instr::AndN {
            dst: 0,
            start: 0,
            len: 2,
            inv: 3,
        }];
        let mut diags = Vec::new();
        check_slot_bounds("low", &tape, &[1, 2], 4, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "E204");
        assert!(
            diags[0].message.contains("inverted tail"),
            "{}",
            diags[0].message
        );
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
    fn a_pin_a_run_breaks_trips_e206() {
        // `q` toggles when `en` is 1. Held at 0, `en` pins `q`, the fold
        // drops it, and a run with `en` held agrees; a run with `en` free
        // sees `q` leave 0.
        let mut n = Netlist::new("pin");
        let en = n.input("en");
        let q = n.dff(false);
        let d = n.xor(q, en);
        n.bind_dff(q, d).unwrap();
        n.set_name(q, "q").unwrap();
        n.mark_output(q).unwrap();
        let (p, _) = Program::compile_optimized(&n).unwrap();
        let held = [(en.index() as u32, false)];
        let (folded, _) = p.fold_inputs(&held, SEARCH_BUDGET).unwrap();
        assert!(folded.ffs().is_empty());
        assert!(check_fold_pins(&n, &p, &folded, &held).is_empty());
        let diags = check_fold_pins(&n, &p, &folded, &[]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].code, diags[0].site.as_str()), ("E206", "q"));
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
