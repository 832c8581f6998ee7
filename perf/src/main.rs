//! `perf`: one command that prints every metric by name with its unit and
//! checks that the program's outputs are correct.
//!
//! ```text
//! perf run --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!          [--ops <n>] [--repeats <n>] [--smoke] [--out <file>]
//! perf trace …          the same with --trace 1
//! perf all   …          the four workloads, one process each
//! perf compare <a.json> <b.json>
//! ```

use bcdb_perf::json::Json;
use bcdb_perf::run::{out_dir, Opts};
use bcdb_perf::spec::{RUN_SECONDS, WORKLOADS};
use bcdb_perf::{compare, report, sys, workloads};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perf run|trace|all [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace 0|1] [--ops <n>] [--repeats <n>] [--smoke] [--out <file>]\n       perf compare <a.json> <b.json>";

struct Cli {
    workload: Option<String>,
    opts: Opts,
    repeats: usize,
    out: Option<String>,
}

fn parse(args: &[String], trace: bool) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opts: Opts {
            seed: 42,
            seconds: RUN_SECONDS,
            ops: None,
            trace,
            smoke: false,
        },
        repeats: 1,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.opts.seed = value()?.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cli.opts.seconds = value()?.parse().map_err(|e| bad(&e))?;
                seconds_given = true;
            }
            "--ops" => cli.opts.ops = Some(value()?.parse().map_err(|e| bad(&e))?),
            "--trace" => cli.opts.trace = value()? != "0",
            "--repeats" => cli.repeats = value()?.parse().map_err(|e| bad(&e))?,
            "--out" => cli.out = Some(value()?.clone()),
            "--smoke" => cli.opts.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(cli.opts.seconds > 0.0 && cli.opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if cli.opts.smoke && !seconds_given {
        cli.opts.seconds = RUN_SECONDS / 20.0;
    }
    Ok(cli)
}

/// One workload, in this process.
fn run_here(workload: &str, cli: &Cli) -> ExitCode {
    let loadavg = sys::loadavg();
    let Some(outcome) = workloads::run(workload, &cli.opts) else {
        eprintln!("perf: unknown workload {workload:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    println!(
        "{workload} · seed {} · {} · inputs {}",
        cli.opts.seed,
        match cli.opts.ops {
            Some(n) => format!("{n} ops"),
            None => format!("{} s", cli.opts.seconds),
        },
        outcome.input_hash
    );
    if loadavg > sys::nproc() as f64 / 2.0 {
        println!("noisy: 1-min load average {loadavg} at start exceeds nproc/2");
    }
    report::print_values("end-to-end (this run)", &outcome.e2e);
    report::print_values("also reported (gated by compare only)", &outcome.extra);
    if let Some(layers) = &outcome.layers {
        report::print_values("per-layer (traced run)", layers);
        print!("{}", outcome.share_table);
    }
    println!(
        "attempted {} · failed {} · correctness check {}",
        outcome.attempted,
        outcome.failed,
        if outcome.errors.is_empty() {
            "passed"
        } else {
            "FAILED"
        }
    );
    for e in outcome.errors.iter().take(20) {
        println!("  {e}");
    }
    if let Some(path) = &cli.out {
        let rec = report::record(workload, &cli.opts, &outcome, loadavg);
        if let Err(e) = std::fs::write(path, rec.render() + "\n") {
            eprintln!("perf: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", report::driver_line(&cli.opts, &outcome));
    if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `repeats` runs of each workload, one child process per run (so that
/// `peak_rss_mb` is per run), summarised and written to `--out`.
fn run_children(names: &[&str], cli: &Cli) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut runs = Vec::new();
    let mut ok = true;
    for name in names {
        let mut of_workload = Vec::new();
        for r in 0..cli.repeats {
            let tmp = out_dir().join(format!("run-{}-{name}-{r}.json", std::process::id()));
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", name])
                .args(["--seed", &cli.opts.seed.to_string()])
                .args(["--seconds", &cli.opts.seconds.to_string()])
                .args(["--trace", if cli.opts.trace { "1" } else { "0" }])
                .args(["--out", &tmp.to_string_lossy()]);
            if let Some(n) = cli.opts.ops {
                cmd.args(["--ops", &n.to_string()]);
            }
            if cli.opts.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status();
            ok &= status.as_ref().is_ok_and(|s| s.success());
            let rec = std::fs::read_to_string(&tmp)
                .ok()
                .and_then(|t| Json::parse(&t).ok());
            let _ = std::fs::remove_file(&tmp);
            // A run that died before writing its record still leaves one,
            // so that `compare` sees it was attempted and did not finish.
            of_workload.push(rec.unwrap_or_else(|| {
                Json::obj()
                    .with("schema", 1usize)
                    .with("workload", *name)
                    .with("seed", cli.opts.seed)
                    .with("smoke", cli.opts.smoke)
                    .with("correct", false)
                    .with(
                        "errors",
                        vec![Json::from(format!("no record: {status:?}").as_str())],
                    )
            }));
        }
        if cli.repeats > 1 {
            report::print_repeats(name, &of_workload);
        }
        runs.extend(of_workload);
    }
    if let Some(path) = &cli.out {
        let doc = Json::obj().with("schema", 1usize).with("runs", runs);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("perf: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if command == "compare" {
        return match rest {
            [a, b] => ExitCode::from(compare::compare(a, b) as u8),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match (command.as_str(), parse(rest, command == "trace")) {
        ("run" | "trace" | "all", Ok(cli)) => cli,
        (_, Err(e)) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (command.as_str(), &cli.workload) {
        ("all", _) => run_children(&WORKLOADS, &cli),
        (_, Some(w)) if cli.repeats > 1 => run_children(&[w.as_str()], &cli),
        (_, Some(w)) => run_here(w, &cli),
        (_, None) => {
            eprintln!("perf: --workload is required\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
