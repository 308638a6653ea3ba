//! `rls-experiments` — run the experiment suite and print the tables
//! recorded in docs/EXPERIMENTS.md, drive experiment campaigns, the live
//! (online) engine, or the HTTP serving layer.
//!
//! See [`USAGE`] for the complete subcommand map (also printed on any
//! argument error and by `--help`).
//!
//! With no experiment arguments, every experiment is run.  `--scale quick`
//! (the default) finishes in seconds; `--scale full` reproduces the sizes in
//! docs/EXPERIMENTS.md and should be run with `--release`.  Campaign specs
//! are TOML or JSON grids (see `specs/` and the README).

use std::process::ExitCode;

use rls_cli::{
    execute_campaign, execute_live, execute_serve, parse_campaign_args, parse_live_args,
    parse_serve_args, run_experiment, ExperimentId, Scale,
};

/// The complete usage text: every subcommand in one place (the hand-routed
/// `campaign` / `live` / `serve` verbs used to be invisible here).
const USAGE: &str = "\
usage: rls-experiments [--scale quick|full] [--seed N] [--list] [e1 e2 ... | all]
       rls-experiments campaign run    <spec> [--store DIR] [--threads N]
       rls-experiments campaign status <spec> [--store DIR]
       rls-experiments campaign export <spec> [--store DIR] (--csv|--json) [--out FILE]
       rls-experiments live run    [--n N] [--m M] [--workload W] [--arrival A]
                                   [--service MU] [--policy P] [--topology T]
                                   [--time T] [--warmup T] [--seed S]
                                   [--shards S] [--slice D] [--threads T]
                                   [--record FILE] [--snapshot FILE] [--resume FILE]
       rls-experiments live replay <log.json>
       rls-experiments live status <snapshot-or-log.json>
       rls-experiments serve run    [--addr HOST:PORT] [--n N] [--m M] [--workload W]
                                    [--arrival A] [--service MU] [--policy P]
                                    [--topology T] [--seed S] [--warmup T]
                                    [--rebalance R] [--for SECONDS]
                                    [--weights DIST] [--speeds PROFILE]
       rls-experiments serve replay <log.json> [--addr HOST:PORT]

The bare form runs the numbered experiment catalogue (`--list` names every
experiment; see docs/EXPERIMENTS.md).  `campaign` sweeps declarative TOML/JSON
grids with a persistent results store (see README).  `live` drives the online
dynamic engine (docs/EXPERIMENTS.md E18).  `serve` puts the live engine behind
an HTTP endpoint (docs/SERVE.md); its throughput is measured by the repository
benchmark (perfbench/README.md).";

struct Args {
    scale: Scale,
    seed: u64,
    list: bool,
    experiments: Vec<ExperimentId>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut scale = Scale::Quick;
    let mut seed = 0xC0FFEE;
    let mut list = false;
    let mut experiments = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--scale" => {
                i += 1;
                let value = raw.get(i).ok_or("--scale needs a value (quick|full)")?;
                scale = Scale::parse(value).ok_or_else(|| format!("unknown scale '{value}'"))?;
            }
            "--seed" => {
                i += 1;
                let value = raw.get(i).ok_or("--seed needs a value")?;
                seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?;
            }
            "--list" => list = true,
            "all" => experiments = ExperimentId::all(),
            other => {
                let id = ExperimentId::parse(other)
                    .ok_or_else(|| format!("unknown experiment '{other}' (try --list)"))?;
                experiments.push(id);
            }
        }
        i += 1;
    }
    if experiments.is_empty() {
        experiments = ExperimentId::all();
    }
    Ok(Args {
        scale,
        seed,
        list,
        experiments,
    })
}

/// Run one of the hand-routed subcommands, mapping its output/error onto
/// the process exit code.
fn run_subcommand(result: Result<String, String>) -> ExitCode {
    match result {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("campaign") => {
            return run_subcommand(
                parse_campaign_args(&raw[1..]).and_then(|cmd| execute_campaign(&cmd)),
            );
        }
        Some("live") => {
            return run_subcommand(parse_live_args(&raw[1..]).and_then(|cmd| execute_live(&cmd)));
        }
        Some("serve") => {
            return run_subcommand(parse_serve_args(&raw[1..]).and_then(|cmd| execute_serve(&cmd)));
        }
        _ => {}
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        for id in ExperimentId::all() {
            println!("{:4}  {}", id.name(), id.description());
        }
        return ExitCode::SUCCESS;
    }
    println!(
        "# RLS experiment suite (scale = {:?}, seed = {})\n",
        args.scale, args.seed
    );
    for id in args.experiments {
        let table = run_experiment(id, args.scale, args.seed);
        println!("{table}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_args_select_everything() {
        let args = parse_args(&[]).unwrap();
        assert_eq!(args.scale, Scale::Quick);
        assert_eq!(args.experiments.len(), 17);
        assert!(!args.list);
    }

    #[test]
    fn explicit_selection_and_options() {
        let args = parse_args(&strings(&["--scale", "full", "--seed", "9", "e1", "e5"])).unwrap();
        assert_eq!(args.scale, Scale::Full);
        assert_eq!(args.seed, 9);
        assert_eq!(args.experiments.len(), 2);
    }

    #[test]
    fn bad_arguments_are_reported() {
        assert!(parse_args(&strings(&["--scale"])).is_err());
        assert!(parse_args(&strings(&["--scale", "huge"])).is_err());
        assert!(parse_args(&strings(&["--seed", "abc"])).is_err());
        assert!(parse_args(&strings(&["e99"])).is_err());
    }

    #[test]
    fn list_flag() {
        let args = parse_args(&strings(&["--list"])).unwrap();
        assert!(args.list);
    }

    #[test]
    fn all_keyword() {
        let args = parse_args(&strings(&["all"])).unwrap();
        assert_eq!(args.experiments.len(), 17);
    }

    #[test]
    fn usage_names_every_subcommand_in_one_place() {
        // Regression for the invisible-subcommand bug: `campaign`, `live`
        // and `serve` were hand-routed but absent from the usage text.
        for verb in [
            "campaign run",
            "campaign status",
            "campaign export",
            "live run",
            "live replay",
            "live status",
            "serve run",
            "serve replay",
        ] {
            assert!(USAGE.contains(verb), "usage is missing `{verb}`");
        }
    }
}
