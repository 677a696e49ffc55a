//! Scoreboard ring: an issue stage rotates station tokens through a
//! three-register ring; new operations arrive through a variable-latency
//! fetch stage and are dispatched into the ring.
//!
//! The issue command is the guard: bubbles (cheap branch) just recycle the
//! ring token; dispatches wait for the fetched operation as well.

use super::{assemble, mux2, CorpusConfig, CorpusSystem, Knobs, Spec};
use crate::elasticize::SyncDatapath;
use crate::error::CoreError;

const SPEC: Spec = Spec {
    design: "scoreboard",
    output: "r_out->out",
    guards: &["cmd"],
    vls: &["fetch.vl"],
    passive_a: "r_i0->issue",
    passive_b: "str2->issue",
};

/// Builds the scoreboard ring under `config` at the given knobs.
///
/// # Errors
///
/// Propagates construction errors (none expected).
pub fn system(config: CorpusConfig, knobs: &Knobs) -> Result<CorpusSystem, CoreError> {
    let mut dp = SyncDatapath::new(format!("scoreboard_{}", config.tag()));
    let cmd = dp.input("cmd")?;
    let op = dp.input("op")?;

    // Issue: [guard, new operation, ring token]; bubbles recycle the ring
    // token without a new operation.
    let issue = match config {
        CorpusConfig::Lazy => dp.block("issue", 3)?,
        _ => dp.early_block("issue", 3, mux2(vec![2], 2, vec![1, 2], 1))?,
    };
    dp.wire(cmd, issue, 0);

    // Fetch: variable-latency decode, then a decoupling register (dropped
    // under NoBypass).
    let fetch = dp.var_latency_block("fetch")?;
    dp.wire(op, fetch, 0);
    match config {
        CorpusConfig::NoBypass => dp.wire(fetch, issue, 1),
        _ => {
            let r_i0 = dp.register("r_i0", false)?;
            dp.wire(fetch, r_i0, 0);
            dp.wire(r_i0, issue, 1);
        }
    }

    // Station ring: three registers, one circulating token.
    dp.register_chain("st", issue, issue, 2, 3, 1)?;

    // Environment tap.
    let r_out = dp.register("r_out", false)?;
    let out = dp.output("out")?;
    dp.wire(issue, r_out, 0);
    dp.wire(r_out, out, 0);

    assemble(&dp, config, knobs, &SPEC)
}
