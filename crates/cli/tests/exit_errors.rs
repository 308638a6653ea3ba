//! What `rls-experiments` prints when a subcommand fails: the usage text
//! follows an argument error, never a command that parsed and then failed
//! at run time.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rls-experiments"))
        .args(args)
        .output()
        .expect("the binary starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn an_argument_error_prints_the_usage() {
    let out = run(&["live", "run", "--n", "zero"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("error: bad --n value `zero`"), "{err}");
    assert!(err.contains("usage: rls-experiments"), "{err}");
}

#[test]
fn a_runtime_error_prints_only_the_error() {
    // Parses fine; the sharded engine then rejects the burst arrivals.
    let out = run(&[
        "live",
        "run",
        "--shards",
        "2",
        "--n",
        "16",
        "--m",
        "64",
        "--time",
        "1",
        "--arrival",
        "bursts:2:8",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.starts_with("error: "), "{err}");
    assert!(err.contains("not supported"), "{err}");
    assert!(!err.contains("usage:"), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
}

#[test]
fn an_instance_flag_beside_resume_is_an_argument_error() {
    // The snapshot is the whole instance: a flag that would describe
    // another one is refused before the snapshot is even read.
    let out = run(&[
        "live", "run", "--resume", "s.json", "--time", "10", "--m", "7",
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("--resume"), "{err}");
    assert!(err.contains("drop --m"), "{err}");
    assert!(err.contains("usage: rls-experiments"), "{err}");
}
