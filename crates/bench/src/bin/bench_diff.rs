//! `bench_diff OLD.json NEW.json [OLD.json NEW.json]...` — the statistical
//! gate between two versions of campaign reports (see
//! `elastic_bench::diff`). Prints one row per matched point and exits 0
//! when the new reports pass, 1 when they fail and 2 on a usage error.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (code, out) = elastic_bench::diff::run(&args);
    if code == 2 {
        eprint!("{out}");
    } else {
        print!("{out}");
    }
    std::process::exit(code);
}
