//! The bench binaries read their flags through `maskfrac_obs::flags`, as
//! the `maskfrac` CLI does: an unknown flag or a value that does not
//! parse stops the run before any work, with the CLI's message and a
//! non-zero exit.

use std::process::Command;

fn refused(binary: &str, path: &str, args: &[&str], message: &str) {
    let run = Command::new(path)
        .args(args)
        .output()
        .expect("spawn bench binary");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "{binary} {args:?} was accepted");
    assert!(stderr.contains(message), "{binary} {args:?}: {stderr}");
}

#[test]
fn bench_binaries_refuse_unknown_flags() {
    refused(
        "table3",
        env!("CARGO_BIN_EXE_table3"),
        &["--metrics-ot", "x.json"],
        "error: unknown flag --metrics-ot (expected one of: --trace, --metrics-out,",
    );
    refused(
        "obs_overhead",
        env!("CARGO_BIN_EXE_obs_overhead"),
        &["--ful"],
        "error: unknown flag --ful (expected one of: --full, --trace,",
    );
}

#[test]
fn robustness_refuses_bad_values() {
    let path = env!("CARGO_BIN_EXE_robustness");
    for (args, message) in [
        (
            &["--inject", "--rate", "abc"][..],
            "error: --rate \"abc\": ",
        ),
        (&["--inject", "--seed", "-1"][..], "error: --seed \"-1\": "),
        (&["--inject", "--rate"][..], "error: --rate needs a value"),
        (
            &["--metrics-out", "--inject"][..],
            "error: --metrics-out needs a value",
        ),
    ] {
        refused("robustness", path, args, message);
    }
}
