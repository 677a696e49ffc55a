//! Execution engines for DMGs: deterministic sequences and random policies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::DmgError;
use crate::fire::{Enabling, FiringRecord};
use crate::graph::{Dmg, NodeId};
use crate::marking::Marking;

/// How a [`RandomExecutor`] picks among enabled nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulingPolicy {
    /// Uniformly random among all enabled nodes (any rule).
    #[default]
    UniformEnabled,
    /// Prefer positively enabled nodes; fall back to N, then E.
    ///
    /// Mirrors a conservative controller that only early-evaluates when
    /// nothing conventional can proceed.
    PositiveFirst,
    /// Prefer early-enabled nodes: an aggressive early-evaluation policy that
    /// maximizes anti-token generation. Useful to stress counterflow paths.
    EarlyFirst,
}

/// A seeded random executor over a DMG.
///
/// # Example
///
/// ```
/// use elastic_dmg::exec::{RandomExecutor, SchedulingPolicy};
///
/// # fn main() -> Result<(), elastic_dmg::DmgError> {
/// let g = elastic_dmg::examples::fig1_dmg();
/// let mut m = g.initial_marking();
/// let mut exec = RandomExecutor::new(42, SchedulingPolicy::UniformEnabled);
/// let trace = exec.run(&g, &mut m, 100)?;
/// assert!(!trace.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RandomExecutor {
    rng: StdRng,
    policy: SchedulingPolicy,
}

impl RandomExecutor {
    /// Creates an executor with a fixed seed (runs are reproducible).
    pub fn new(seed: u64, policy: SchedulingPolicy) -> Self {
        RandomExecutor {
            rng: StdRng::seed_from_u64(seed),
            policy,
        }
    }

    /// Fires one enabled node according to the policy.
    ///
    /// Returns `Ok(None)` when no node is enabled (deadlock — impossible
    /// from a live marking of a strongly connected graph).
    ///
    /// # Errors
    ///
    /// Propagates [`DmgError::MarkingSize`] for mismatched markings.
    pub fn step(&mut self, g: &Dmg, m: &mut Marking) -> Result<Option<FiringRecord>, DmgError> {
        g.check_marking(m)?;
        let enabled = g.enabled_nodes(m);
        if enabled.is_empty() {
            return Ok(None);
        }
        let pick = |cands: &[FiringRecord], rng: &mut StdRng| cands[rng.gen_range(0..cands.len())];
        let chosen = match self.policy {
            SchedulingPolicy::UniformEnabled => pick(&enabled, &mut self.rng),
            SchedulingPolicy::PositiveFirst => {
                let pref: Vec<_> = enabled
                    .iter()
                    .copied()
                    .filter(|r| r.rule == Enabling::Positive)
                    .collect();
                if pref.is_empty() {
                    pick(&enabled, &mut self.rng)
                } else {
                    pick(&pref, &mut self.rng)
                }
            }
            SchedulingPolicy::EarlyFirst => {
                let pref: Vec<_> = enabled
                    .iter()
                    .copied()
                    .filter(|r| r.rule == Enabling::Early)
                    .collect();
                if pref.is_empty() {
                    pick(&enabled, &mut self.rng)
                } else {
                    pick(&pref, &mut self.rng)
                }
            }
        };
        g.fire_unchecked(m, chosen.node);
        Ok(Some(chosen))
    }

    /// Runs up to `steps` firings, returning the trace.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`RandomExecutor::step`].
    pub fn run(
        &mut self,
        g: &Dmg,
        m: &mut Marking,
        steps: usize,
    ) -> Result<Vec<FiringRecord>, DmgError> {
        let mut trace = Vec::new();
        for _ in 0..steps {
            match self.step(g, m)? {
                Some(rec) => trace.push(rec),
                None => break,
            }
        }
        Ok(trace)
    }
}

/// One firing replayed from an external (cycle-accurate) execution, with
/// the enabling rule the cycle-start marking justified. `rule` is `None`
/// when the firing was only enabled up to the intra-cycle timing slack of
/// the circuit implementation (e.g. an eager fork delivering a copy before
/// its join consumed the inputs) — legal, but worth surfacing in exported
/// traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Cycle index of the external execution.
    pub cycle: u64,
    /// The node that fired.
    pub node: NodeId,
    /// Enabling rule at the cycle-start marking, if any held.
    pub rule: Option<Enabling>,
}

/// Checked replay of an externally observed execution onto a DMG — the
/// reference side of the differential fuzz harness.
///
/// A cycle-accurate simulator (behavioural or gate-level) reports which
/// nodes fired in each cycle; the replayer applies the marked-graph firing
/// rule (identical for P/N/E firings, so one `fire` covers tokens moving
/// forward, anti-tokens moving backward and annihilations) and asserts at
/// every cycle boundary that each arc marking stays inside its configured
/// token/anti-token capacity window. Firing-rule conservation makes cycle
/// token sums invariant by construction, so any token the implementation
/// loses, duplicates or spuriously annihilates shows up as an arc marking
/// drifting out of its window.
///
/// The full firing trace is recorded and exportable with
/// [`Replayer::export_trace`] for failure reports.
#[derive(Debug, Clone)]
pub struct Replayer<'g> {
    g: &'g Dmg,
    m: Marking,
    cycle_start: Marking,
    bounds: Vec<(i64, i64)>,
    trace: Vec<TraceStep>,
    cycle: u64,
    /// Cycle windows `[start, end)` in which bound violations are recorded
    /// instead of aborting the replay — fault-injection campaigns expect
    /// the marking to drift while a fault is armed. Sorted, non-empty,
    /// non-overlapping; a fault *process* contributes one window per
    /// disturbance interval (`FaultProcess::merged_windows` in
    /// `elastic_core`).
    tolerate: Vec<(u64, u64)>,
    tolerated_violations: usize,
}

impl<'g> Replayer<'g> {
    /// Creates a replayer at the initial marking. `bounds[arc]` is the
    /// inclusive `(lo, hi)` marking window of each arc: `hi` the token
    /// capacity of the storage the arc abstracts, `lo` the (negative)
    /// anti-token capacity, both widened by whatever intra-cycle slack the
    /// implementation's firing observation points introduce.
    ///
    /// # Errors
    ///
    /// [`DmgError::MarkingSize`] when `bounds` does not have one entry per
    /// arc.
    pub fn new(g: &'g Dmg, bounds: Vec<(i64, i64)>) -> Result<Self, DmgError> {
        if bounds.len() != g.num_arcs() {
            return Err(DmgError::MarkingSize {
                expected: g.num_arcs(),
                found: bounds.len(),
            });
        }
        let m = g.initial_marking();
        Ok(Replayer {
            g,
            cycle_start: m.clone(),
            m,
            bounds,
            trace: Vec::new(),
            cycle: 0,
            tolerate: Vec::new(),
            tolerated_violations: 0,
        })
    }

    /// Suspends bound *enforcement* for cycles inside the `[start, end)`
    /// windows — the disturbance intervals of a fault process (one window
    /// for a one-shot fault). A fault injected into the replayed execution
    /// legitimately pushes arc markings outside their capacity windows
    /// while it is armed (a duplicated token is one net marking too many, a
    /// lost one too few). Violations inside a window are still *counted*
    /// ([`Self::tolerated_violations`]), so campaigns can report how much
    /// drift the fault caused; violations outside the windows abort the
    /// replay as usual — a network that never re-enters its capacity
    /// windows after a window closes is a genuine non-recovery. Replaces
    /// any previously declared windows.
    ///
    /// # Errors
    ///
    /// [`DmgError::ToleranceWindow`] for an empty window (`start >= end`)
    /// or windows that are unsorted or overlapping — a merged, ordered
    /// interval set is the only unambiguous tolerance specification.
    pub fn tolerate_windows(&mut self, windows: &[(u64, u64)]) -> Result<(), DmgError> {
        for (i, &(s, e)) in windows.iter().enumerate() {
            if s >= e {
                return Err(DmgError::ToleranceWindow(format!(
                    "window {i} [{s}, {e}) is empty"
                )));
            }
            if i > 0 && windows[i - 1].1 > s {
                return Err(DmgError::ToleranceWindow(format!(
                    "window {i} [{s}, {e}) starts before window {} ends at {} — \
                     merge and sort the intervals first",
                    i - 1,
                    windows[i - 1].1
                )));
            }
        }
        self.tolerate = windows.to_vec();
        Ok(())
    }

    /// Bound violations recorded inside the tolerated windows.
    pub fn tolerated_violations(&self) -> usize {
        self.tolerated_violations
    }

    /// Replays one firing observed in the current cycle. Firings within a
    /// cycle commute (marking updates are additive), so callers may report
    /// them in any order; bounds are checked at [`Replayer::end_cycle`].
    ///
    /// # Errors
    ///
    /// [`DmgError::UnknownNode`] for a node outside the graph.
    pub fn fire(&mut self, node: NodeId) -> Result<(), DmgError> {
        if node.index() >= self.g.num_nodes() {
            return Err(DmgError::UnknownNode(node));
        }
        let rule = self.g.enabling(&self.cycle_start, node);
        self.g.fire_unchecked(&mut self.m, node);
        self.trace.push(TraceStep {
            cycle: self.cycle,
            node,
            rule,
        });
        Ok(())
    }

    /// Closes the current cycle: checks every arc marking against its
    /// capacity window and advances the cycle counter.
    ///
    /// # Errors
    ///
    /// [`DmgError::BoundViolation`] naming the first arc outside its
    /// window.
    pub fn end_cycle(&mut self) -> Result<(), DmgError> {
        let tolerated = self
            .tolerate
            .iter()
            .any(|&(lo, hi)| (lo..hi).contains(&self.cycle));
        for a in self.g.arcs() {
            let v = self.m.get(a);
            let (lo, hi) = self.bounds[a.index()];
            if v < lo || v > hi {
                if tolerated {
                    self.tolerated_violations += 1;
                    continue;
                }
                return Err(DmgError::BoundViolation {
                    arc: a,
                    marking: v,
                    lo,
                    hi,
                    cycle: self.cycle,
                });
            }
        }
        self.cycle += 1;
        self.cycle_start = self.m.clone();
        Ok(())
    }

    /// The marking reached so far.
    pub fn marking(&self) -> &Marking {
        &self.m
    }

    /// Completed cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The recorded firing trace.
    pub fn trace(&self) -> &[TraceStep] {
        &self.trace
    }

    /// Renders the recorded trace, one line per cycle with activity, e.g.
    /// `"@3 mul:P sink:?"` — `?` marks firings not enabled at the
    /// cycle-start marking (intra-cycle slack). The tail of this export is
    /// the payload of differential-mismatch reports.
    pub fn export_trace(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut last: Option<u64> = None;
        for step in &self.trace {
            if last != Some(step.cycle) {
                if last.is_some() {
                    out.push('\n');
                }
                let _ = write!(out, "@{}", step.cycle);
                last = Some(step.cycle);
            }
            let _ = write!(
                out,
                " {}:{}",
                self.g.node_name(step.node),
                step.rule.map_or('?', Enabling::tag)
            );
        }
        out
    }
}

/// Formats a trace as a compact string such as `"n2:P n1:E n7:N"`, handy in
/// test failure messages and the figure-1 demo binary.
pub fn format_trace(g: &Dmg, trace: &[FiringRecord]) -> String {
    trace
        .iter()
        .map(|r| format!("{}:{}", g.node_name(r.node), r.rule.tag()))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = crate::examples::fig1_dmg();
        let run = |seed| {
            let mut m = g.initial_marking();
            let mut e = RandomExecutor::new(seed, SchedulingPolicy::UniformEnabled);
            e.run(&g, &mut m, 50).unwrap()
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn live_graph_never_deadlocks() {
        let g = crate::examples::fig1_dmg();
        let mut m = g.initial_marking();
        let mut e = RandomExecutor::new(9, SchedulingPolicy::UniformEnabled);
        let trace = e.run(&g, &mut m, 300).unwrap();
        assert_eq!(trace.len(), 300, "live SCDMG must keep firing");
    }

    #[test]
    fn early_first_policy_uses_early_firings() {
        let g = crate::examples::fig1_dmg();
        let mut m = g.initial_marking();
        let mut e = RandomExecutor::new(5, SchedulingPolicy::EarlyFirst);
        let trace = e.run(&g, &mut m, 200).unwrap();
        assert!(
            trace.iter().any(|r| r.rule == Enabling::Early),
            "aggressive policy should exercise early firing"
        );
    }

    #[test]
    fn positive_first_policy_prefers_positive() {
        let g = crate::examples::fig1_dmg();
        let mut m = g.initial_marking();
        let mut e = RandomExecutor::new(5, SchedulingPolicy::PositiveFirst);
        let trace = e.run(&g, &mut m, 200).unwrap();
        let pos = trace
            .iter()
            .filter(|r| r.rule == Enabling::Positive)
            .count();
        assert!(pos * 2 > trace.len(), "most firings should be positive");
    }

    #[test]
    fn replayer_accepts_legal_execution_and_tracks_marking() {
        let g = crate::examples::fig1_dmg();
        let bounds = vec![(-4i64, 4i64); g.num_arcs()];
        let mut rep = Replayer::new(&g, bounds.clone()).unwrap();
        // Drive the replayer from the random executor: any legal execution
        // must replay cleanly and end on the executor's marking.
        let mut m = g.initial_marking();
        let mut exec = RandomExecutor::new(3, SchedulingPolicy::UniformEnabled);
        for _ in 0..40 {
            if let Some(rec) = exec.step(&g, &mut m).unwrap() {
                rep.fire(rec.node).unwrap();
            }
            rep.end_cycle().unwrap();
        }
        assert_eq!(rep.marking(), &m);
        assert_eq!(rep.cycle(), 40);
        assert_eq!(rep.trace().len(), 40);
        // Sequential firings are all rule-classified.
        assert!(rep.trace().iter().all(|s| s.rule.is_some()));
        let dump = rep.export_trace();
        assert!(dump.starts_with("@0 "), "{dump}");
        assert!(dump.lines().count() <= 40);
    }

    #[test]
    fn replayer_flags_token_leak_as_bound_violation() {
        // Firing only the consumer of a ring drains its input arc below the
        // anti-token window — the signature of a component consuming tokens
        // it never received.
        let mut b = crate::graph::DmgBuilder::new();
        let p = b.node("p");
        let c = b.node("c");
        b.arc(p, c, 1);
        b.arc(c, p, 0);
        let g = b.build().unwrap();
        let mut rep = Replayer::new(&g, vec![(-2, 2), (-2, 2)]).unwrap();
        let mut hit = None;
        for _ in 0..6 {
            rep.fire(c).unwrap();
            if let Err(e) = rep.end_cycle() {
                hit = Some(e);
                break;
            }
        }
        match hit {
            Some(DmgError::BoundViolation {
                marking, lo, hi, ..
            }) => {
                assert!(
                    marking < lo || marking > hi,
                    "{marking} outside [{lo}, {hi}]"
                );
            }
            other => panic!("expected a bound violation, got {other:?}"),
        }
    }

    #[test]
    fn replayer_tolerates_violations_only_inside_the_window() {
        // Same token-leaking replay as above, but with the drain cycles
        // declared as an injected-fault window: violations inside it are
        // counted, not fatal; the first violation past the window aborts.
        let mut b = crate::graph::DmgBuilder::new();
        let p = b.node("p");
        let c = b.node("c");
        b.arc(p, c, 1);
        b.arc(c, p, 0);
        let g = b.build().unwrap();
        let mut rep = Replayer::new(&g, vec![(-2, 2), (-2, 2)]).unwrap();
        rep.tolerate_windows(&[(0, 6)]).unwrap();
        for _ in 0..6 {
            rep.fire(c).unwrap();
            rep.end_cycle().unwrap();
        }
        assert!(rep.tolerated_violations() > 0);
        // Past the window the marking is still out of bounds: fatal now.
        assert!(matches!(
            rep.end_cycle(),
            Err(DmgError::BoundViolation { .. })
        ));
        // A drift that recovers before the window closes replays clean:
        // three drains overshoot the window (one tolerated violation), one
        // refill inside the window restores bounds before it ends.
        let mut rec = Replayer::new(&g, vec![(-2, 2), (-2, 2)]).unwrap();
        rec.tolerate_windows(&[(0, 4)]).unwrap();
        for _ in 0..3 {
            rec.fire(c).unwrap();
            rec.end_cycle().unwrap();
        }
        for _ in 0..3 {
            rec.fire(p).unwrap();
            rec.end_cycle().unwrap();
        }
        assert_eq!(rec.cycle(), 6);
        assert!(rec.tolerated_violations() > 0);
    }

    #[test]
    fn replayer_tolerates_multiple_disjoint_windows() {
        let mut b = crate::graph::DmgBuilder::new();
        let p = b.node("p");
        let c = b.node("c");
        b.arc(p, c, 1);
        b.arc(c, p, 0);
        let g = b.build().unwrap();
        let mut rep = Replayer::new(&g, vec![(-2, 2), (-2, 2)]).unwrap();
        // A periodic process: two disturbance intervals, quiet in between.
        rep.tolerate_windows(&[(0, 3), (5, 8)]).unwrap();
        // Drain past the bound inside window 0, refill before it closes.
        for _ in 0..3 {
            rep.fire(c).unwrap();
            rep.end_cycle().unwrap();
        }
        for _ in 0..2 {
            rep.fire(p).unwrap();
            rep.end_cycle().unwrap();
        }
        let drift_in_first = rep.tolerated_violations();
        assert!(drift_in_first > 0, "window 0 recorded the drift");
        // Same overshoot inside window 1: tolerated again, not fatal.
        for _ in 0..3 {
            rep.fire(c).unwrap();
            rep.end_cycle().unwrap();
        }
        assert!(rep.tolerated_violations() > drift_in_first);
        // The gap between windows enforces as usual: a replay still out of
        // bounds at cycle 8 (past window 1) is a genuine non-recovery.
        assert!(matches!(
            rep.end_cycle(),
            Err(DmgError::BoundViolation { .. })
        ));
    }

    #[test]
    fn tolerance_window_specs_are_validated() {
        let g = crate::examples::fig1_dmg();
        let mut rep = Replayer::new(&g, vec![(-9, 9); g.num_arcs()]).unwrap();
        assert!(matches!(
            rep.tolerate_windows(&[(3, 3)]),
            Err(DmgError::ToleranceWindow(_))
        ));
        assert!(matches!(
            rep.tolerate_windows(&[(5, 8), (0, 3)]),
            Err(DmgError::ToleranceWindow(_))
        ));
        assert!(matches!(
            rep.tolerate_windows(&[(0, 4), (3, 6)]),
            Err(DmgError::ToleranceWindow(_))
        ));
        rep.tolerate_windows(&[(0, 3), (3, 6)]).unwrap();
    }

    #[test]
    fn replayer_rejects_bad_inputs() {
        let g = crate::examples::fig1_dmg();
        assert!(matches!(
            Replayer::new(&g, vec![(-1, 1)]),
            Err(DmgError::MarkingSize { .. })
        ));
        let mut rep = Replayer::new(&g, vec![(-9, 9); g.num_arcs()]).unwrap();
        let bogus = crate::graph::NodeId(999);
        assert_eq!(rep.fire(bogus).unwrap_err(), DmgError::UnknownNode(bogus));
    }

    #[test]
    fn replayer_marks_slack_firings_in_export() {
        // A firing that is not enabled at the cycle-start marking replays
        // (slack-tolerant) but exports as `?`.
        let g = crate::examples::fig1_dmg();
        let n0 = g
            .nodes()
            .find(|&n| g.enabling(&g.initial_marking(), n).is_none());
        let Some(n0) = n0 else { return };
        let mut rep = Replayer::new(&g, vec![(-99, 99); g.num_arcs()]).unwrap();
        rep.fire(n0).unwrap();
        assert!(rep.trace()[0].rule.is_none());
        assert!(rep.export_trace().contains(":?"));
    }

    #[test]
    fn trace_formatting() {
        let g = crate::examples::fig1_dmg();
        let mut m = g.initial_marking();
        let n2 = g.node_by_name("n2").unwrap();
        let rule = g.fire(&mut m, n2).unwrap();
        let s = format_trace(&g, &[FiringRecord { node: n2, rule }]);
        assert_eq!(s, "n2:P");
    }
}
