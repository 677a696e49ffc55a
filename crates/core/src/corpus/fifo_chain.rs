//! Two-element FIFO chain with a bypass (bsg_two_fifo style): data either
//! crosses two two-register FIFOs separated by a variable-latency
//! mid-stage, or takes the single-register bypass lane.
//!
//! The route command is the guard: bypassed words (cheap branch) reach the
//! output mux without waiting for the FIFO chain to drain.

use super::{assemble, mux2, CorpusConfig, CorpusSystem, Knobs, Spec};
use crate::elasticize::SyncDatapath;
use crate::error::CoreError;

const SPEC: Spec = Spec {
    design: "fifo_chain",
    output: "r_out->out",
    guards: &["cmd"],
    vls: &["mid.vl"],
    passive_a: "r_g1->outsel",
    passive_b: "bypr0->outsel",
};

/// Builds the FIFO chain under `config` at the given knobs.
///
/// # Errors
///
/// Propagates construction errors (none expected).
pub fn system(config: CorpusConfig, knobs: &Knobs) -> Result<CorpusSystem, CoreError> {
    let mut dp = SyncDatapath::new(format!("fifo_chain_{}", config.tag()));
    let cmd = dp.input("cmd")?;
    let din = dp.input("din")?;

    // Output mux: [guard, bypass, fifo].
    let outsel = match config {
        CorpusConfig::Lazy => dp.block("outsel", 3)?,
        _ => dp.early_block("outsel", 3, mux2(vec![1], 1, vec![2], 2))?,
    };
    dp.wire(cmd, outsel, 0);

    // Bypass lane: one register (none under NoBypass).
    dp.register_chain("byp", din, outsel, 1, config.cheap_stages(), 0)?;

    // FIFO chain: two elements, a variable-latency mid-stage, two more.
    let f0 = dp.register("r_f0", false)?;
    let f1 = dp.register("r_f1", false)?;
    let mid = dp.var_latency_block("mid")?;
    let g0 = dp.register("r_g0", false)?;
    let g1 = dp.register("r_g1", false)?;
    dp.wire(din, f0, 0);
    dp.wire(f0, f1, 0);
    dp.wire(f1, mid, 0);
    dp.wire(mid, g0, 0);
    dp.wire(g0, g1, 0);
    dp.wire(g1, outsel, 2);

    let r_out = dp.register("r_out", false)?;
    let out = dp.output("out")?;
    dp.wire(outsel, r_out, 0);
    dp.wire(r_out, out, 0);

    assemble(&dp, config, knobs, &SPEC)
}
