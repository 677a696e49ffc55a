//! Up/down event counter (bsg_misc flow-counter style): two event streams
//! adjust an accumulator held in a loop register.
//!
//! The `count` merge takes the command (guard), the up event (cheap path,
//! one decoupling register), the down event (slow path through a
//! variable-latency reconciliation unit) and the accumulator loop. Up
//! events — the common case — fire without waiting for the reconciler.

use super::{assemble, mux2, CorpusConfig, CorpusSystem, Knobs, Spec};
use crate::elasticize::SyncDatapath;
use crate::error::CoreError;

const SPEC: Spec = Spec {
    design: "flow_counter",
    output: "r_out->out",
    guards: &["cmd"],
    vls: &["dncalc.vl"],
    passive_a: "dncalc->count",
    passive_b: "r_acc->count",
};

/// Builds the flow counter under `config` at the given knobs.
///
/// # Errors
///
/// Propagates construction errors (none expected).
pub fn system(config: CorpusConfig, knobs: &Knobs) -> Result<CorpusSystem, CoreError> {
    let mut dp = SyncDatapath::new(format!("flow_counter_{}", config.tag()));
    let cmd = dp.input("cmd")?;
    let up = dp.input("up")?;
    let dn = dp.input("dn")?;

    // Merge: [guard, up, down, accumulator]; the accumulator is required
    // on both branches, the down path only on the expensive one.
    let count = match config {
        CorpusConfig::Lazy => dp.block("count", 4)?,
        _ => dp.early_block("count", 4, mux2(vec![1, 3], 3, vec![2, 3], 3))?,
    };
    dp.wire(cmd, count, 0);

    // Cheap path: one decoupling register (none under NoBypass).
    dp.register_chain("up", up, count, 1, config.cheap_stages(), 0)?;

    // Slow path: the down-event reconciler is variable-latency.
    let dncalc = dp.var_latency_block("dncalc")?;
    dp.register_chain("dn", dn, dncalc, 0, 1, 0)?;
    dp.wire(dncalc, count, 2);

    // Accumulator loop (initial token) and environment tap.
    let r_acc = dp.register("r_acc", true)?;
    let r_out = dp.register("r_out", false)?;
    let out = dp.output("out")?;
    dp.wire(count, r_acc, 0);
    dp.wire(r_acc, count, 3);
    dp.wire(count, r_out, 0);
    dp.wire(r_out, out, 0);

    assemble(&dp, config, knobs, &SPEC)
}
