//! NIC ingress pipeline: packets fork into a header lane (parse) and a
//! payload lane (checksum, variable latency), rejoined before delivery.
//!
//! The packet-type command is the guard: control packets (cheap branch)
//! are forwarded from the header alone; data packets wait for the payload
//! checksum as well.

use super::{assemble, mux2, CorpusConfig, CorpusSystem, Knobs, Spec};
use crate::elasticize::SyncDatapath;
use crate::error::CoreError;

const SPEC: Spec = Spec {
    design: "nic_split",
    output: "r_out->out",
    guards: &["cmd"],
    vls: &["csum.vl"],
    passive_a: "r_p1->rejoin",
    passive_b: "r_h1->rejoin",
};

/// Builds the NIC pipeline under `config` at the given knobs.
///
/// # Errors
///
/// Propagates construction errors (none expected).
pub fn system(config: CorpusConfig, knobs: &Knobs) -> Result<CorpusSystem, CoreError> {
    let mut dp = SyncDatapath::new(format!("nic_split_{}", config.tag()));
    let cmd = dp.input("cmd")?;
    let pkt = dp.input("pkt")?;

    // Rejoin: [guard, header, payload]; control packets need the header
    // only, data packets both lanes.
    let rejoin = match config {
        CorpusConfig::Lazy => dp.block("rejoin", 3)?,
        _ => dp.early_block("rejoin", 3, mux2(vec![1], 1, vec![1, 2], 2))?,
    };
    dp.wire(cmd, rejoin, 0);

    // Header lane: capture register, parse, then a decoupling register
    // (dropped under NoBypass).
    let r_h0 = dp.register("r_h0", false)?;
    let parse = dp.block("parse", 1)?;
    dp.wire(pkt, r_h0, 0);
    dp.wire(r_h0, parse, 0);
    match config {
        CorpusConfig::NoBypass => dp.wire(parse, rejoin, 1),
        _ => {
            let r_h1 = dp.register("r_h1", false)?;
            dp.wire(parse, r_h1, 0);
            dp.wire(r_h1, rejoin, 1);
        }
    }

    // Payload lane: capture register, variable-latency checksum, result
    // register.
    let r_p0 = dp.register("r_p0", false)?;
    let csum = dp.var_latency_block("csum")?;
    let r_p1 = dp.register("r_p1", false)?;
    dp.wire(pkt, r_p0, 0);
    dp.wire(r_p0, csum, 0);
    dp.wire(csum, r_p1, 0);
    dp.wire(r_p1, rejoin, 2);

    let r_out = dp.register("r_out", false)?;
    let out = dp.output("out")?;
    dp.wire(rejoin, r_out, 0);
    dp.wire(r_out, out, 0);

    assemble(&dp, config, knobs, &SPEC)
}
