//! Export smoke test: pushes a batch of randomly generated elastic
//! topologies through all three textual exporters (Verilog, BLIF, SMV)
//! and the VCD renderer, exercising the typed-error export path end to
//! end — any panic or export error fails the run. CI runs this next to
//! the campaign determinism checks.
//!
//! Usage: `export_smoke [count] [--seed N]` (default 8 topologies).

use elastic_core::compile::{compile, CompileOptions};
use elastic_core::gen::{generate, TopoParams};
use elastic_netlist::export::{to_blif, to_smv, to_verilog};
use elastic_netlist::vcd::VcdRecorder;

fn main() {
    let mut count = 8u64;
    let mut seed = 2007u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let raw = args.next().unwrap_or_default();
                seed = raw.parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --seed {raw:?}");
                    std::process::exit(2);
                });
            }
            raw if !raw.starts_with("--") => {
                count = raw.parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid topology count {raw:?}");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("error: unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    println!("export smoke: {count} generated topologies x 3 exporters (seed {seed})");
    let opts = CompileOptions {
        data_width: 2,
        ..CompileOptions::default()
    };
    for i in 0..count {
        let params = TopoParams::sample(seed.wrapping_add(i));
        let sys = generate(&params).unwrap_or_else(|e| {
            eprintln!("topology {i}: generation failed: {e}");
            std::process::exit(1);
        });
        let compiled = compile(&sys.network, &opts).unwrap_or_else(|e| {
            eprintln!("topology {i}: compile failed: {e}");
            std::process::exit(1);
        });
        let mut sizes = [0usize; 3];
        for (k, render) in [
            to_verilog(&compiled.netlist),
            to_blif(&compiled.netlist),
            to_smv(&compiled.netlist),
        ]
        .into_iter()
        .enumerate()
        {
            match render {
                Ok(text) => sizes[k] = text.len(),
                Err(e) => {
                    eprintln!(
                        "topology {i} ({}): exporter {k} failed: {e}",
                        sys.network.name()
                    );
                    std::process::exit(1);
                }
            }
        }
        let vcd = VcdRecorder::new(&compiled.netlist).render();
        assert!(vcd.contains("$enddefinitions"), "vcd header missing");
        println!(
            "  {i}: {} nets -> verilog {}B, blif {}B, smv {}B",
            compiled.netlist.nets().len(),
            sizes[0],
            sizes[1],
            sizes[2]
        );
    }
    println!("ok: all {count} topologies exported cleanly");
}
