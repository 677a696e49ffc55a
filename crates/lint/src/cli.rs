//! Command-line flag parsing shared by `elint` and the campaign binaries of
//! `elastic_bench`. Every malformed command line exits with status 2: a
//! misspelled flag would otherwise run, and report, the default run.

/// The first argument of `args`, after the program name, that is spelled
/// like a flag (`--…`) but is neither one of `values`, the flags that take
/// a value, nor one of `switches`, the flags that stand alone. The
/// argument after a value flag is that flag's value, as [`flag_value`]
/// reads it, and is never taken for a flag.
pub fn unknown_flag<'a>(args: &'a [String], values: &[&str], switches: &[&str]) -> Option<&'a str> {
    let mut rest = args.iter().skip(1).map(String::as_str);
    while let Some(arg) = rest.next() {
        if values.contains(&arg) {
            rest.next();
        } else if arg.starts_with("--") && !switches.contains(&arg) {
            return Some(arg);
        }
    }
    None
}

/// Exits with status 2 when `args` holds an [`unknown_flag`].
pub fn reject_unknown_flags(args: &[String], values: &[&str], switches: &[&str]) {
    if let Some(flag) = unknown_flag(args, values, switches) {
        eprintln!("error: unknown flag {flag:?}");
        std::process::exit(2);
    }
}

/// The value following `flag` in `args`, `None` when the flag is absent.
/// A flag present without a value exits with status 2.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: {flag} requires a value");
            std::process::exit(2);
        })
    })
}

/// `flag`'s value parsed as `T`, `dflt` when the flag is absent. A missing
/// or unparsable value exits with status 2.
pub fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, dflt: T) -> T {
    match flag_value(args, flag) {
        None => dflt,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("error: invalid value for {flag}: {raw:?}");
            std::process::exit(2);
        }),
    }
}
