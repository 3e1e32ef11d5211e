//! The names this benchmark fixes — workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics — read from the one place
//! they are written down: `BENCHMARK.json` at the repository root,
//! compiled into the binary.

use hemelb_obs::Json;
use std::sync::OnceLock;

const SOURCE: &str = include_str!("../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    /// Printed by a `--trace 0` run; every workload reports every one.
    pub end_to_end: Vec<Metric>,
    /// Printed by a `--trace 1` run; a workload that never enters a
    /// layer reports 0 for it.
    pub per_layer: Vec<Metric>,
}

/// Metrics whose value is a count that must repeat exactly between two
/// runs at one seed (`stability.sh` checks it).
pub const EXACT: &[&str] = &[
    "wire_bytes_per_frame",
    "parallel.halo_bytes_per_step",
    "partition.edge_cut",
];

fn text(v: &Json, key: &str) -> String {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is not a string"))
        .to_string()
}

fn items<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    v.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is not a list"))
}

fn metrics(v: &Json, key: &str) -> Vec<Metric> {
    items(v, key)
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: text(m, "better"),
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let json = Json::parse(SOURCE).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: `run_seconds` is a number"),
            workloads: items(&json, "workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metrics(&json, "end_to_end"),
            per_layer: metrics(&json, "per_layer"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_inside_the_contract_limits() {
        let json = Json::parse(SOURCE).unwrap();
        let spec = spec();
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let all = || spec.end_to_end.iter().chain(&spec.per_layer);
        let mut names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        names.extend(all().map(|m| m.name.as_str()));
        assert!(names.iter().all(|n| name_ok(n)));
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!((2..=8).contains(&spec.workloads.len()));
        for w in items(&json, "workloads") {
            let why = text(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!(all().all(|m| unit_ok(&m.unit) && ["lower", "higher"].contains(&&*m.better)));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| matches!(m.bound, Some(b) if b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!(EXACT
            .iter()
            .all(|e| spec.per_layer.iter().any(|m| m.name == *e)));
        assert!(SOURCE.len() <= 64 << 10);
    }
}
