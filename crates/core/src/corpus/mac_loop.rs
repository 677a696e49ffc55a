//! Multiply-accumulate loop (DSP MAC): two operand streams feed a
//! variable-latency multiplier; the accumulate stage folds the product
//! into a loop register, with a clear opcode that resets the sum.
//!
//! The opcode is the guard: clears (cheap branch) complete from the
//! accumulator alone, without waiting for the in-flight product.

use super::{assemble, mux2, CorpusConfig, CorpusSystem, Knobs, Spec};
use crate::elasticize::{SyncDatapath, SyncNode};
use crate::error::CoreError;

const SPEC: Spec = Spec {
    design: "mac_loop",
    output: "r_out->out",
    guards: &["cmd"],
    vls: &["mul.vl"],
    passive_a: "r_p->accum",
    passive_b: "r_acc->accum",
};

/// Builds the MAC loop under `config` at the given knobs.
///
/// # Errors
///
/// Propagates construction errors (none expected).
pub fn system(config: CorpusConfig, knobs: &Knobs) -> Result<CorpusSystem, CoreError> {
    let mut dp = SyncDatapath::new(format!("mac_loop_{}", config.tag()));
    let cmd = dp.input("cmd")?;
    let a = dp.input("a")?;
    let b = dp.input("b")?;

    // Operand capture, then the two-input variable-latency multiplier
    // (elasticized into a join feeding a go/done/ack controller).
    let r_a = dp.register("r_a", false)?;
    let r_b = dp.register("r_b", false)?;
    let mul = dp.node(
        "mul",
        SyncNode::Block {
            inputs: 2,
            early: None,
            variable_latency: true,
        },
    )?;
    dp.wire(a, r_a, 0);
    dp.wire(b, r_b, 0);
    dp.wire(r_a, mul, 0);
    dp.wire(r_b, mul, 1);

    // Accumulate: [guard, product, accumulator]; clears skip the product.
    let accum = match config {
        CorpusConfig::Lazy => dp.block("accum", 3)?,
        _ => dp.early_block("accum", 3, mux2(vec![2], 2, vec![1, 2], 2))?,
    };
    dp.wire(cmd, accum, 0);

    // Product register between multiplier and accumulate (dropped under
    // NoBypass).
    match config {
        CorpusConfig::NoBypass => dp.wire(mul, accum, 1),
        _ => {
            let r_p = dp.register("r_p", false)?;
            dp.wire(mul, r_p, 0);
            dp.wire(r_p, accum, 1);
        }
    }

    // Accumulator loop (initial token) and environment tap.
    let r_acc = dp.register("r_acc", true)?;
    let r_out = dp.register("r_out", false)?;
    let out = dp.output("out")?;
    dp.wire(accum, r_acc, 0);
    dp.wire(r_acc, accum, 2);
    dp.wire(accum, r_out, 0);
    dp.wire(r_out, out, 0);

    assemble(&dp, config, knobs, &SPEC)
}
