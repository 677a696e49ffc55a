//! Command-line flag parsing and report writing shared by `elint` and the
//! campaign binaries of `elastic_bench`. Every malformed command line exits
//! with status 2: a misspelled flag would otherwise run, and report, the
//! default run. So does a report that cannot be written.

use elastic_core::verify::STIMULUS_CONTRACT;
use elastic_netlist::kernel::Kernel;

use crate::json::Json;

/// Version of the report layout the [`header`] names.
const REPORT_SCHEMA: u64 = 1;

/// The `"header"` object every report written by [`ReportFile::write`]
/// starts with: the report schema, the stimulus contract
/// ([`STIMULUS_CONTRACT`]), the fastest kernel build of the host
/// ([`Kernel::best`], which generates the stimulus and runs every tape of
/// two or more words) and the host's available parallelism. The last two
/// describe the host, not the results.
fn header() -> Json {
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    Json::object([
        ("schema", Json::Int(REPORT_SCHEMA)),
        ("stimulus_contract", Json::Int(STIMULUS_CONTRACT.into())),
        ("kernel", Kernel::best().label().into()),
        ("available_parallelism", Json::Int(parallelism as u64)),
    ])
}

/// `report` with the [`header`] as its first field; a report that is not
/// an object is returned as it is.
fn with_header(report: &Json) -> Json {
    match report {
        Json::Object(fields) => Json::Object(
            std::iter::once(("header".to_string(), header()))
                .chain(fields.iter().cloned())
                .collect(),
        ),
        other => other.clone(),
    }
}

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

/// The `--json` report file of a run: created, or truncated, when the
/// command line is read, and written once the run is done. A path that
/// cannot be written thus fails before the run rather than after it.
#[derive(Debug)]
pub struct ReportFile {
    /// The path and its open file; `None` without `--json`.
    target: Option<(String, std::fs::File)>,
}

impl ReportFile {
    /// Creates or truncates `path`; without a path, a report file that
    /// writes nothing.
    ///
    /// # Errors
    ///
    /// The error creating the file.
    pub fn create(path: Option<&str>) -> std::io::Result<ReportFile> {
        let target = match path {
            Some(path) => Some((path.to_string(), std::fs::File::create(path)?)),
            None => None,
        };
        Ok(ReportFile { target })
    }

    /// [`Self::create`], exiting with status 2 naming the path when it
    /// cannot be created.
    pub fn open(path: Option<&str>) -> ReportFile {
        Self::create(path).unwrap_or_else(|e| {
            eprintln!("error: writing {}: {e}", path.unwrap_or_default());
            std::process::exit(2);
        })
    }

    /// Writes `report`, with a `"header"` object first (report schema,
    /// stimulus contract, kernel build, available parallelism), and a
    /// newline to the file, and nothing without one. A write that fails
    /// exits with status 2, naming the path.
    pub fn write(self, report: &Json) {
        use std::io::Write;
        let Some((path, mut file)) = self.target else {
            return;
        };
        if let Err(e) = file.write_all(format!("{}\n", with_header(report)).as_bytes()) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_file_is_created_before_the_run_and_written_after() {
        let dir = std::env::temp_dir().join(format!("elastic-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let path_str = path.to_str().unwrap();
        std::fs::write(&path, "stale").unwrap();
        // Opening truncates, before anything is written.
        let file = ReportFile::create(Some(path_str)).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        let report = Json::object([("ok", true.into())]);
        file.write(&report);
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, format!("{}\n", with_header(&report)));
        // The header comes first, then the report's own fields.
        let header = format!("{}", header());
        assert_eq!(
            written,
            format!("{{\n  \"header\": {header},\n  \"ok\": true\n}}\n")
        );
        assert!(header.starts_with("{\"schema\": 1, \"stimulus_contract\": 2, \"kernel\": "));
        // A path in a missing directory fails when it is opened.
        assert!(ReportFile::create(Some(dir.join("missing/r.json").to_str().unwrap())).is_err());
        // Without a path nothing is created or written.
        ReportFile::create(None).unwrap().write(&report);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn positive_names_the_flag_of_a_zero_count() {
        assert_eq!(positive("--queue", 1), Ok(1));
        assert_eq!(positive("--topologies", 100), Ok(100));
        for flag in ["--topologies", "--trials", "--threads", "--queue"] {
            assert_eq!(positive(flag, 0), Err(format!("{flag} must be at least 1")));
        }
    }
}
