//! Two-requester round-robin arbiter: a grant stage selects between a
//! fast local requester and a slow remote one, and recycles a grant-history
//! token through a turn register.
//!
//! The priority command is the guard: when it points at the local
//! requester (cheap branch) the grant fires without waiting for the remote
//! request to cross its variable-latency link.

use super::{assemble, mux2, CorpusConfig, CorpusSystem, Knobs, Spec};
use crate::elasticize::SyncDatapath;
use crate::error::CoreError;

const SPEC: Spec = Spec {
    design: "rr_arbiter",
    output: "r_g->out",
    guards: &["cmd"],
    vls: &["remote.vl"],
    passive_a: "remote->grant",
    passive_b: "r_turn->grant",
};

/// Builds the arbiter under `config` at the given knobs.
///
/// # Errors
///
/// Propagates construction errors (none expected).
pub fn system(config: CorpusConfig, knobs: &Knobs) -> Result<CorpusSystem, CoreError> {
    let mut dp = SyncDatapath::new(format!("rr_arbiter_{}", config.tag()));
    let cmd = dp.input("cmd")?;
    let reqa = dp.input("reqa")?;
    let reqb = dp.input("reqb")?;

    // Merge: [guard, local, remote, turn]; the turn token is required on
    // both branches.
    let grant = match config {
        CorpusConfig::Lazy => dp.block("grant", 4)?,
        _ => dp.early_block("grant", 4, mux2(vec![1, 3], 1, vec![2, 3], 2))?,
    };
    dp.wire(cmd, grant, 0);

    // Local requester: one decoupling register (none under NoBypass).
    dp.register_chain("a", reqa, grant, 1, config.cheap_stages(), 0)?;

    // Remote requester: request register, then the variable-latency link.
    let remote = dp.var_latency_block("remote")?;
    dp.register_chain("b", reqb, remote, 0, 1, 0)?;
    dp.wire(remote, grant, 2);

    // Grant history ring (initial token) and the granted output.
    let r_turn = dp.register("r_turn", true)?;
    let r_g = dp.register("r_g", false)?;
    let out = dp.output("out")?;
    dp.wire(grant, r_turn, 0);
    dp.wire(r_turn, grant, 3);
    dp.wire(grant, r_g, 0);
    dp.wire(r_g, out, 0);

    assemble(&dp, config, knobs, &SPEC)
}
