//! The observability flags every binary shares, read, applied and
//! finished in one place.
//!
//! `maskfrac fracture`, `maskfrac fracture-layout` and the bench
//! binaries take the same five flags, [`FLAGS`]. Each calls
//! [`ObsFlags::parse`] with its own flag list before it does any work
//! and [`ObsFlags::finish`] after it, and reads its own `--flag value`
//! pairs with [`value`] / [`parsed`]. One failure policy: a flag that
//! cannot be honoured, an artifact that cannot be written, or an event
//! stream or report that fails validation is an [`Error`], which every
//! binary prints as `error: …` before exiting non-zero.

use crate::event;
use crate::report::{RunReport, ShapeRecord};
use crate::serve::TelemetryServer;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The shared observability flags.
pub const FLAGS: [&str; 5] = [
    "--trace",
    "--metrics-out",
    "--trace-out",
    "--events-out",
    "--telemetry-listen",
];

/// Why a binary cannot honour its flags or finish its artifacts.
#[derive(Debug)]
pub enum Error {
    /// A `--flag` the binary does not take, and the flags it takes.
    UnknownFlag(String, Vec<String>),
    /// A value flag last on the command line or followed by a `--flag`.
    MissingValue(String),
    /// A flag, its value, and why the value does not parse.
    BadValue(String, String, String),
    /// The `--telemetry-listen` address that could not be bound.
    Telemetry(String, io::Error),
    /// An artifact that could not be written.
    Write(PathBuf, io::Error),
    /// The captured event stream broke an [`event::validate`] invariant.
    InvalidEvents(String),
    /// The run report failed [`RunReport::validate`].
    InvalidReport(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownFlag(flag, allowed) if allowed.is_empty() => {
                write!(f, "unknown flag {flag} (this subcommand takes no flags)")
            }
            Error::UnknownFlag(flag, allowed) => {
                let allowed = allowed.join(", ");
                write!(f, "unknown flag {flag} (expected one of: {allowed})")
            }
            Error::MissingValue(flag) => write!(f, "{flag} needs a value"),
            Error::BadValue(flag, value, why) => write!(f, "{flag} {value:?}: {why}"),
            Error::Telemetry(addr, e) => write!(f, "--telemetry-listen {addr}: {e}"),
            Error::Write(path, e) => write!(f, "cannot write {}: {e}", path.display()),
            Error::InvalidEvents(e) => write!(f, "event stream failed validation: {e}"),
            Error::InvalidReport(e) => write!(f, "run report failed validation: {e}"),
        }
    }
}

impl std::error::Error for Error {}

/// Rejects the first `--flag` in `args` that is not in `allowed`, so a
/// typo like `--thread 4` fails instead of being ignored.
pub fn check(args: &[String], allowed: &[&str]) -> Result<(), Error> {
    match args
        .iter()
        .find(|a| a.starts_with("--") && !allowed.contains(&a.as_str()))
    {
        Some(flag) => Err(Error::UnknownFlag(
            flag.clone(),
            allowed.iter().map(|&a| a.to_owned()).collect(),
        )),
        None => Ok(()),
    }
}

/// The value of the first `flag value` pair in `args`, `None` when
/// `flag` is absent, and [`Error::MissingValue`] when `flag` is last or
/// followed by another `--flag`.
pub fn value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, Error> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(Error::MissingValue(flag.to_owned())),
    }
}

/// [`value`] parsed as `T`; [`Error::BadValue`] when it does not parse.
pub fn parsed<T>(args: &[String], flag: &str) -> Result<Option<T>, Error>
where
    T: std::str::FromStr,
    T::Err: fmt::Display,
{
    value(args, flag)?
        .map(|raw| {
            raw.parse().map_err(|e: T::Err| {
                Error::BadValue(flag.to_owned(), raw.to_owned(), e.to_string())
            })
        })
        .transpose()
}

/// The shared observability flags of one run, applied. The telemetry
/// server serves until this value is dropped.
#[derive(Debug, Default)]
pub struct ObsFlags {
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    events_out: Option<PathBuf>,
    telemetry: Option<TelemetryServer>,
}

impl ObsFlags {
    /// Checks `args` against the binary's `own` flags plus [`FLAGS`],
    /// reads the shared flags, then applies them: binds the
    /// `--telemetry-listen` server (printing `telemetry listening on
    /// <addr>`, so `:0` callers find the port), and switches on the
    /// `--trace` span tree and, for `--trace-out` / `--events-out`,
    /// event capture. Nothing is applied when it fails.
    pub fn parse(args: &[String], own: &[&str]) -> Result<Self, Error> {
        let allowed: Vec<&str> = own.iter().chain(&FLAGS).copied().collect();
        check(args, &allowed)?;
        let path = |flag| Ok::<_, Error>(value(args, flag)?.map(PathBuf::from));
        let mut flags = ObsFlags {
            metrics_out: path("--metrics-out")?,
            trace_out: path("--trace-out")?,
            events_out: path("--events-out")?,
            telemetry: None,
        };
        if let Some(addr) = value(args, "--telemetry-listen")? {
            let server =
                TelemetryServer::bind(addr).map_err(|e| Error::Telemetry(addr.to_owned(), e))?;
            println!("telemetry listening on {}", server.local_addr());
            flags.telemetry = Some(server);
        }
        if args.iter().any(|a| a == "--trace") {
            crate::set_trace(true);
        }
        if flags.trace_out.is_some() || flags.events_out.is_some() {
            event::set_capture(true);
        }
        Ok(flags)
    }

    /// Finishes the run: writes the captured events to `--trace-out` /
    /// `--events-out` and validates them, then captures the metrics
    /// since `started` and the ledger `shapes` into a validated
    /// [`RunReport`] saved to `default_path` (the bench binaries'
    /// `results/BENCH_<binary>.json`) and `--metrics-out`, if set.
    pub fn finish(
        &self,
        binary: &str,
        started: Instant,
        shapes: Vec<ShapeRecord>,
        default_path: Option<&Path>,
    ) -> Result<(), Error> {
        if self.trace_out.is_some() || self.events_out.is_some() {
            let events = event::drain();
            if let Some(path) = &self.trace_out {
                let trace = event::chrome_trace_json(&events).map_err(at(path))?;
                std::fs::write(path, trace + "\n").map_err(at(path))?;
            }
            if let Some(path) = &self.events_out {
                let mut jsonl = Vec::new();
                event::write_jsonl(&events, &mut jsonl).map_err(at(path))?;
                std::fs::write(path, jsonl).map_err(at(path))?;
            }
            event::validate(&events).map_err(Error::InvalidEvents)?;
            for path in [&self.trace_out, &self.events_out].into_iter().flatten() {
                println!("wrote {}", path.display());
            }
        }
        let paths: Vec<&Path> = default_path
            .into_iter()
            .chain(self.metrics_out.as_deref())
            .collect();
        if paths.is_empty() {
            return Ok(());
        }
        let report = RunReport::capture(binary, started).with_shapes(shapes);
        report.validate().map_err(Error::InvalidReport)?;
        for path in paths {
            report.save(path).map_err(at(path))?;
            println!("wrote {}", path.display());
        }
        Ok(())
    }
}

/// Maps an I/O failure on `path` to [`Error::Write`].
fn at(path: &Path) -> impl FnOnce(io::Error) -> Error + '_ {
    move |e| Error::Write(path.to_owned(), e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn value_reads_the_word_after_the_flag() {
        let a = args(&["shape.json", "--out", "x.json", "--trace"]);
        assert_eq!(value(&a, "--out").unwrap(), Some("x.json"));
        assert_eq!(value(&a, "--svg").unwrap(), None);
        // A negative number is a value, not a flag.
        let a = args(&["--rate", "-0.5"]);
        assert_eq!(parsed::<f64>(&a, "--rate").unwrap(), Some(-0.5));
    }

    #[test]
    fn value_rejects_a_missing_or_flag_shaped_value() {
        for a in [
            args(&["--metrics-out", "--trace"]),
            args(&["x", "--metrics-out"]),
        ] {
            let e = value(&a, "--metrics-out").unwrap_err();
            assert!(matches!(&e, Error::MissingValue(f) if f == "--metrics-out"));
            assert_eq!(e.to_string(), "--metrics-out needs a value");
        }
    }

    #[test]
    fn parsed_names_the_flag_and_the_bad_value() {
        let a = args(&["--inject", "--rate", "abc"]);
        let e = parsed::<f64>(&a, "--rate").unwrap_err();
        assert!(
            matches!(&e, Error::BadValue(flag, value, _) if flag == "--rate" && value == "abc")
        );
        assert!(e.to_string().starts_with("--rate \"abc\": "), "{e}");
        assert_eq!(parsed::<u64>(&a, "--seed").unwrap(), None);
    }

    #[test]
    fn check_rejects_flags_outside_the_list() {
        let a = args(&["x.json", "--metrics-ot", "r.json"]);
        let e = check(&a, &["--metrics-out"]).unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown flag --metrics-ot (expected one of: --metrics-out)"
        );
        let e = check(&a, &[]).unwrap_err();
        assert!(
            e.to_string().ends_with("(this subcommand takes no flags)"),
            "{e}"
        );
        assert!(check(
            &args(&["x.json", "--metrics-out", "r.json"]),
            &["--metrics-out"]
        )
        .is_ok());
    }

    #[test]
    fn parse_takes_own_and_shared_flags_and_applies_nothing_on_error() {
        let flags =
            ObsFlags::parse(&args(&["--full", "--metrics-out", "r.json"]), &["--full"]).unwrap();
        assert_eq!(flags.metrics_out.as_deref(), Some(Path::new("r.json")));
        assert!(flags.telemetry.is_none());
        let e = ObsFlags::parse(&args(&["--full"]), &[]).unwrap_err();
        assert!(matches!(e, Error::UnknownFlag(..)));
        // A shared value flag without its value is refused before the
        // capture switch is touched.
        let e =
            ObsFlags::parse(&args(&["--trace-out", "--events-out", "e.jsonl"]), &[]).unwrap_err();
        assert!(matches!(&e, Error::MissingValue(f) if f == "--trace-out"));
    }

    #[test]
    fn finish_without_any_path_writes_nothing() {
        ObsFlags::default()
            .finish("t.flags", Instant::now(), Vec::new(), None)
            .unwrap();
    }

    #[test]
    fn finish_reports_an_unwritable_report_path() {
        let dir = std::env::temp_dir().join(format!("maskfrac-obs-flags-{}", std::process::id()));
        let path = dir.join("missing-dir").join("report.json");
        let e = ObsFlags::default()
            .finish("t.flags", Instant::now(), Vec::new(), Some(&path))
            .unwrap_err();
        assert!(matches!(&e, Error::Write(p, _) if *p == path));
        assert!(e.to_string().starts_with("cannot write "), "{e}");
    }
}
