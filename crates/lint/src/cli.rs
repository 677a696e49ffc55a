//! Command-line flag parsing and report writing shared by `elint` and the
//! campaign binaries of `elastic_bench`. Every malformed command line exits
//! with status 2: a misspelled flag would otherwise run, and report, the
//! default run. So does a report that cannot be written.

use crate::json::Json;

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

/// `value` when it is at least 1, else the usage error naming `flag`.
pub fn positive(flag: &str, value: usize) -> Result<usize, String> {
    if value == 0 {
        Err(format!("{flag} must be at least 1"))
    } else {
        Ok(value)
    }
}

/// `flag`'s value parsed as a count, `dflt` when the flag is absent. A
/// missing, unparsable or zero value exits with status 2, naming the flag.
pub fn parse_positive(args: &[String], flag: &str, dflt: usize) -> usize {
    positive(flag, parse_flag(args, flag, dflt)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Writes `report` to `path`, the value of `--json`, and nothing without
/// one. A path that cannot be written exits with status 2, naming it.
pub fn write_report(path: Option<&str>, report: &Json) {
    let Some(path) = path else {
        return;
    };
    if let Err(e) = std::fs::write(path, format!("{report}\n")) {
        eprintln!("error: writing {path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_names_the_flag_of_a_zero_count() {
        assert_eq!(positive("--queue", 1), Ok(1));
        assert_eq!(positive("--topologies", 100), Ok(100));
        for flag in ["--topologies", "--trials", "--threads", "--queue"] {
            assert_eq!(positive(flag, 0), Err(format!("{flag} must be at least 1")));
        }
    }
}
