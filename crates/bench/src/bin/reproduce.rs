//! `reproduce` — regenerate the paper's tables and figures and the
//! co-design experiments built on them.
//!
//! ```text
//! reproduce [EXPERIMENT|all] [--size tiny|small|medium] [--ranks N]
//! ```
//!
//! [`EXPERIMENTS`] is the one list of experiment names: dispatch,
//! `--help` and the unknown-experiment error all read it. Results print
//! as paper-style tables; figure experiments also write PPM images and
//! some write a `BENCH_*.json` report under `./out/` (artefacts —
//! nothing compares them). `EXPERIMENTS.md` records a reference run.
//! Timings of the solver, halo, render and observability layers are not
//! here: they come from the repo benchmark (`benchmark/README.md`).

use hemelb_bench::workloads::Size;
use hemelb_bench::{
    adaptive, extract, fig1, fig3, fig4, multires, preprocess, projection, repartition, scaling,
    table1,
};

struct Args {
    what: String,
    size: Size,
    ranks: usize,
}

/// One experiment: the name on the command line, the banner printed
/// above its output, and the function that runs and prints it.
struct Experiment {
    name: &'static str,
    title: &'static str,
    run: fn(&Args),
}

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        title: "E1: Table I",
        run: |a| {
            let params = table1::Table1Params {
                size: a.size,
                ranks: a.ranks,
                ..Default::default()
            };
            println!("{}", table1::run(params));
        },
    },
    Experiment {
        name: "fig1",
        title: "E2: Fig. 1 (sparse storage)",
        run: |a| {
            let sizes: &[Size] = match a.size {
                Size::Tiny => &[Size::Tiny],
                Size::Small => &[Size::Tiny, Size::Small],
                Size::Medium => &[Size::Tiny, Size::Small, Size::Medium],
            };
            println!("{}", fig1::run(sizes));
        },
    },
    Experiment {
        name: "fig3",
        title: "E4: Fig. 3 (post-processing pipeline)",
        run: |a| println!("{}", fig3::run(a.size, 3, (128, 96))),
    },
    Experiment {
        name: "fig4a",
        title: "E5: Fig. 4a (volume rendering)",
        run: |a| println!("{}", fig4::run_4a(a.size, a.ranks, 512, 384)),
    },
    Experiment {
        name: "fig4b",
        title: "E6: Fig. 4b (streamlines)",
        run: |a| println!("{}", fig4::run_4b(a.size, a.ranks, 64, 512, 384)),
    },
    Experiment {
        name: "lic",
        title: "E1-aux: LIC slice figure",
        run: |a| println!("{}", fig4::run_lic(a.size, a.ranks.min(4))),
    },
    Experiment {
        name: "scaling",
        title: "E7: strong scaling by partitioner",
        run: |a| println!("{}", scaling::run(a.size, &[1, 2, 4, 8, 16])),
    },
    Experiment {
        name: "preprocessing",
        title: "E8: two-level read, reading-core sweep",
        run: |a| println!("{}", preprocess::run(a.size, 16, &[1, 2, 4, 8, 16])),
    },
    Experiment {
        name: "multires",
        title: "E9: multi-resolution octree",
        run: |a| println!("{}", multires::run(a.size)),
    },
    Experiment {
        name: "repartition",
        title: "E10: vis-aware repartitioning",
        run: |a| println!("{}", repartition::run(a.size, a.ranks)),
    },
    Experiment {
        name: "extract",
        title: "E11: in situ feature extraction (vortex regions)",
        run: |a| println!("{}", extract::run(a.size)),
    },
    Experiment {
        name: "adaptive",
        title: "E15: adaptive load balancing (measure -> plan -> gate -> migrate)",
        run: |a| println!("{}", adaptive::run(a.size, a.ranks.clamp(2, 8))),
    },
    Experiment {
        name: "projection",
        title: "E20: calibrated cost model + 1k-32k rank projection",
        run: |a| {
            let steps = match a.size {
                Size::Tiny => 4,
                Size::Small => 8,
                Size::Medium => 4,
            };
            println!("{}", projection::run(a.size, steps, a.ranks.clamp(2, 16)));
        },
    },
];

/// The experiments `what` selects: all of them for `all`, the named one
/// otherwise (empty for an unknown name).
fn selected(what: &str) -> Vec<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .filter(|e| what == "all" || e.name == what)
        .collect()
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: reproduce [{}|all] [--size tiny|small|medium] [--ranks N]",
        names.join("|")
    )
}

fn parse_args() -> Args {
    let mut what = "all".to_string();
    let mut size = Size::Small;
    let mut ranks = 8usize;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--size" => {
                i += 1;
                size = match argv.get(i).map(String::as_str) {
                    Some("tiny") => Size::Tiny,
                    Some("small") => Size::Small,
                    Some("medium") => Size::Medium,
                    other => {
                        eprintln!("unknown size {other:?} (tiny|small|medium)");
                        std::process::exit(2);
                    }
                };
            }
            "--ranks" => {
                i += 1;
                ranks = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--ranks needs a number");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            w => what = w.to_string(),
        }
        i += 1;
    }
    Args { what, size, ranks }
}

fn main() {
    let args = parse_args();
    let chosen = selected(&args.what);
    if chosen.is_empty() {
        eprintln!("unknown experiment '{}'\n{}", args.what, usage());
        std::process::exit(2);
    }
    for e in chosen {
        println!("=== {} ===", e.title);
        (e.run)(&args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_name_dispatches_and_help_lists_it() {
        let help = usage();
        for e in EXPERIMENTS {
            let hit = selected(e.name);
            assert_eq!(hit.len(), 1, "{} must select exactly itself", e.name);
            assert_eq!(hit[0].name, e.name);
            assert!(
                help.split(|c: char| !c.is_alphanumeric())
                    .any(|w| w == e.name),
                "--help must list {}: {help}",
                e.name
            );
        }
        assert_eq!(selected("all").len(), EXPERIMENTS.len());
        assert!(selected("no-such-experiment").is_empty());
    }
}
