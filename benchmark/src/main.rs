//! The repository benchmark: six workloads from the kernel to the closed
//! steering loop, driven through the public functions of the library
//! crates, one process per workload. See `README.md` beside this
//! package for the workloads, the metrics and how they interact.
//!
//! ```text
//! hemelb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hemelb-benchmark [--quick] [--trace 1]      every workload, one table
//! hemelb-benchmark --stability [sets]         spreads against the bounds
//! ```

mod halo;
mod kernel;
mod lines;
mod machine;
mod prep;
mod ranks;
mod report;
mod spec;
mod stats;
mod steer;
mod trace;
mod util;

use hemelb_obs::Json;
use report::{Report, RunArgs};
use spec::spec;
use std::collections::BTreeMap;
use std::process::ExitCode;

const OUT_DIR: &str = "benchmark/out";
const QUICK_SECONDS: f64 = 0.4;

fn usage() -> ! {
    eprintln!(
        "usage: hemelb-benchmark [--workload <name>|all] [--seed <n>] [--seconds <s>] \
         [--trace <0|1>] [--quick] | --stability [sets]\nworkloads: {}",
        spec().workloads.join(" ")
    );
    std::process::exit(2);
}

enum Mode {
    Run(RunArgs),
    Stability(usize, f64),
}

fn parse_args() -> Mode {
    let mut args = RunArgs {
        workload: "all".into(),
        seed: 1,
        seconds: spec().run_seconds,
        trace: false,
        quick: false,
    };
    let mut seconds_given = false;
    let mut stability = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name"),
            "--seed" => args.seed = value("a number").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value("seconds").parse().unwrap_or_else(|_| usage());
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--quick" => args.quick = true,
            "--stability" => {
                let sets = argv
                    .next()
                    .map_or(5, |n| n.parse().unwrap_or_else(|_| usage()));
                stability = Some(sets);
            }
            _ => usage(),
        }
    }
    if args.quick && !seconds_given {
        args.seconds = QUICK_SECONDS;
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        eprintln!("--seconds must be in (0, 60]");
        usage();
    }
    match stability {
        Some(sets) if sets >= 2 => Mode::Stability(sets, args.seconds),
        Some(_) => usage(),
        None => Mode::Run(args),
    }
}

/// The result line the driver reads: `correct`, `attempted`, `failed`
/// and the metrics the run's mode calls for, each with its unit.
fn result_line(args: &RunArgs, report: &Report) -> Json {
    let wanted = if args.trace {
        &spec().per_layer
    } else {
        &spec().end_to_end
    };
    let metrics = wanted
        .iter()
        .map(|metric| {
            let entry = Json::Obj(vec![
                ("value".into(), Json::Num(report.get(&metric.name))),
                ("unit".into(), Json::Str(metric.unit.clone())),
            ]);
            (metric.name.clone(), entry)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(report.ledger.failed == 0)),
        (
            "attempted".into(),
            Json::Num(report.ledger.attempted as f64),
        ),
        ("failed".into(), Json::Num(report.ledger.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// Run one workload in this process and print its result.
fn run_workload(args: &RunArgs) -> ExitCode {
    machine::choose_cpus(args.trace);
    println!(
        "{}",
        machine::header(&args.workload, args.seed, args.seconds, args.trace)
    );
    let mut report = Report::default();
    let uses_ranks = !args.workload.starts_with("kernel_");
    if args.trace {
        // The probes run before the workload and record no spans.
        report.set("machine.triad_gib_per_s", machine::triad_gib_per_s());
        report.set(
            "machine.wake_us_p50",
            stats::median(&machine::wake_us_samples()),
        );
        if uses_ranks {
            let (pingpong_us, mib_per_s) = ranks::message_probes();
            report.set("parallel.pingpong_us_p50", stats::median(&pingpong_us));
            report.set("parallel.bandwidth_mib_per_s", mib_per_s);
        }
    }
    match args.workload.as_str() {
        "kernel_serial" | "kernel_trt_par2" => kernel::run(args, &mut report),
        "halo_dist2" => halo::run(args, &mut report),
        "steer_volume" => steer::run(args, &mut report),
        "insitu_lines" => lines::run(args, &mut report),
        "prep_cold" => prep::run(args, &mut report),
        _ => usage(),
    }
    let ledger = &report.ledger;
    report.set(
        "ops_failed_frac",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
    );
    if args.trace {
        let spans = trace::Summary::of(&report.tracks);
        report.set("trace.unattributed_frac", spans.unattributed_frac());
        let layers: Vec<String> = spans
            .layer_self_secs()
            .map(|(layer, secs)| format!("{layer}={secs:.3}s"))
            .collect();
        report.note(format!("layer self time: {}", layers.join(" ")));
        report.note(format!(
            "parallel.* spans recorded: {}",
            spans.has_layer("parallel")
        ));
        let run_id = format!("{}-{}-{}", args.workload, args.seed, std::process::id());
        let file = format!("{OUT_DIR}/trace_{}.json", args.workload);
        let json = trace::to_json(&run_id, &args.workload, args.seed, &report.tracks);
        let written =
            std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&file, json.render()));
        if let Err(e) = written {
            eprintln!("cannot write {file}: {e}");
            return ExitCode::FAILURE;
        }
        report.note(format!("trace written to {file}"));
    }

    for note in &report.notes {
        println!("# {note}");
    }
    let line = result_line(args, &report);
    for (name, entry) in line.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = entry.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{name:<34} {value:>18.6} {unit}");
    }
    println!("{}", line.render());
    ExitCode::SUCCESS
}

/// The parsed result line of a child run.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Run one workload in a process of its own and parse its result line.
/// The child's header and table are echoed when `echo` is set.
fn spawn_workload(args: &RunArgs, echo: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if echo {
        print!("{stdout}");
    }
    if !out.status.success() {
        return Err(format!("{} exited with {}", args.workload, out.status));
    }
    let last = stdout.lines().last().unwrap_or("");
    let json = Json::parse(last).map_err(|e| format!("{}: {e:?}", args.workload))?;
    let field = |k: &str| json.get(k).ok_or(format!("{}: no `{k}`", args.workload));
    let metrics = field("metrics")?
        .as_obj()
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: field("correct")? == &Json::Bool(true),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics,
    })
}

/// Every workload, one process each, then one table of the end-to-end
/// metrics (and `ops_failed_frac`) by workload.
fn run_all(args: &RunArgs) -> ExitCode {
    let mut rows = Vec::new();
    let mut ok = true;
    for w in &spec().workloads {
        let child = RunArgs {
            workload: w.clone(),
            ..args.clone()
        };
        match spawn_workload(&child, true) {
            Ok(result) => {
                ok &= result.correct;
                rows.push((w, result));
            }
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    let names: Vec<&str> = if args.trace {
        vec!["obs.overhead_frac", "trace.unattributed_frac"]
    } else {
        spec().end_to_end.iter().map(|m| m.name.as_str()).collect()
    };
    print!("\n{:<16}", "workload");
    names.iter().for_each(|n| print!(" {n:>24}"));
    println!(" {:>16}", "ops_failed_frac");
    for (name, result) in &rows {
        print!("{name:<16}");
        for n in &names {
            print!(" {:>24.6}", result.metrics.get(*n).copied().unwrap_or(0.0));
        }
        println!(
            " {:>16.6}",
            result.failed as f64 / result.attempted.max(1) as f64
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The spread of set-up times of 60–150 ms is judged against an
/// absolute floor as well (the ISSUE's `max(bound, 50 ms)`): a spread of
/// 20 ms is noise of the box, not a property of the program. Their
/// drift is judged against the bound alone, as the driver does.
const SETUP_FLOOR_S: f64 = 0.05;

/// The stability procedure: `sets` full sets of untraced runs, each
/// with another seed. Prints for every (end-to-end metric, workload)
/// the interquartile spread as a share of the median against the
/// metric's bound, and the drift between the medians of the first and
/// second half of the sets; then runs each workload twice traced at one
/// seed and compares the exact-class counts. Fails on any breach.
fn run_stability(sets: usize, seconds: f64) -> ExitCode {
    let mut samples: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for set in 0..sets {
        for w in &spec().workloads {
            let args = RunArgs {
                workload: w.clone(),
                seed: 1000 + set as u64,
                seconds,
                trace: false,
                quick: false,
            };
            match spawn_workload(&args, false) {
                Ok(result) => {
                    ok &= result.correct;
                    for metric in &spec().end_to_end {
                        let value = result.metrics.get(&metric.name).copied().unwrap_or(0.0);
                        samples.entry((&metric.name, w)).or_default().push(value);
                    }
                    println!(
                        "set {set} {w}: failed {}/{}",
                        result.failed, result.attempted
                    );
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!(
        "\n{:<14} {:<16} {:>14} {:>9} {:>9} {:>7}  verdict",
        "metric", "workload", "median", "spread", "drift", "bound"
    );
    for metric in &spec().end_to_end {
        let bound = metric.bound.expect("end-to-end metrics have a bound");
        for w in &spec().workloads {
            let values = &samples[&(metric.name.as_str(), w.as_str())];
            let median = stats::median(values);
            let spread = stats::relative_spread(values);
            let (first, second) = values.split_at(sets / 2);
            let (a, b) = (stats::median(first), stats::median(second));
            // Worse means up for "lower is better", down otherwise.
            let drift = if metric.better == "lower" {
                b / a - 1.0
            } else {
                1.0 - b / a
            };
            let allowed = if metric.name == "setup_s" {
                bound.max(SETUP_FLOOR_S / median)
            } else {
                bound
            };
            let breach = spread > allowed || drift > bound;
            ok &= !breach;
            println!(
                "{:<14} {:<16} {:>14.6} {:>9.4} {:>+9.4} {:>7.2}  {}",
                metric.name,
                w,
                median,
                spread,
                drift,
                allowed,
                if breach { "BREACH" } else { "ok" }
            );
        }
    }

    println!("\nexact-class counts, two traced runs at one seed:");
    for w in &spec().workloads {
        let args = RunArgs {
            workload: w.clone(),
            seed: 1000,
            seconds,
            trace: true,
            quick: false,
        };
        let runs = [spawn_workload(&args, false), spawn_workload(&args, false)];
        let [Ok(a), Ok(b)] = runs else {
            eprintln!("{w}: a traced run failed");
            return ExitCode::FAILURE;
        };
        ok &= a.correct && b.correct;
        for name in spec::EXACT {
            let (x, y) = (a.metrics[*name], b.metrics[*name]);
            let same = x.to_bits() == y.to_bits();
            ok &= same;
            println!(
                "{name:<30} {w:<16} {x} {y}  {}",
                if same { "ok" } else { "DIFFER" }
            );
        }
    }
    if ok {
        println!("\nstable: every spread and drift within its bound, exact counts repeat");
        ExitCode::SUCCESS
    } else {
        println!("\nNOT stable");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Mode::Stability(sets, seconds) => run_stability(sets, seconds),
        Mode::Run(args) if args.workload == "all" => run_all(&args),
        Mode::Run(args) => run_workload(&args),
    }
}
