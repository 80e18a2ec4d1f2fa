//! `BENCHMARK.json` and the code agree: same workloads, same metrics with
//! the same units, directions and bounds, and the file stays inside the
//! limits the driver enforces.

use ft_benchsuite::json::Value;
use ft_benchsuite::metrics::{END_TO_END, PER_LAYER};
use ft_benchsuite::workloads::WORKLOADS;

fn manifest() -> Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(text.len() <= 64 << 10, "BENCHMARK.json is {} bytes", text.len());
    Value::parse(&text).unwrap()
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string '{key}' in {}", v.to_json()))
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty() && s.len() <= 16 && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn top_level_keys_and_command() {
    let m = manifest();
    let keys: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    let paths: Vec<&str> = m.get("paths").unwrap().items().iter().map(|p| p.as_str().unwrap()).collect();
    assert_eq!(paths, ["benchsuite"]);
    let command: Vec<&str> = m.get("command").unwrap().items().iter().map(|p| p.as_str().unwrap()).collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"benchsuite/Cargo.toml"), "the command must build this package: {command:?}");
    assert_eq!(command.last(), Some(&"--"), "the driver's flags must reach the binary, not cargo");
    let secs = m.get("run_seconds").unwrap().as_f64().unwrap();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
}

#[test]
fn workloads_match_the_code() {
    let m = manifest();
    let listed = m.get("workloads").unwrap().items();
    assert!((2..=8).contains(&listed.len()));
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, w) in listed.iter().zip(WORKLOADS) {
        assert_eq!(entry.members().len(), 2, "{}", entry.to_json());
        assert_eq!(str_of(entry, "name"), w.name);
        assert_eq!(str_of(entry, "why"), w.why);
        assert!(valid_name(w.name));
        assert!(
            w.why.chars().count() <= 200 && !w.why.contains('\n'),
            "{}: why has {} chars",
            w.name,
            w.why.chars().count()
        );
    }
}

#[test]
fn end_to_end_metrics_match_the_code() {
    let m = manifest();
    let listed = m.get("end_to_end").unwrap().items();
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, metric) in listed.iter().zip(END_TO_END) {
        assert_eq!(entry.members().len(), 4, "{}", entry.to_json());
        assert_eq!(str_of(entry, "name"), metric.name);
        assert_eq!(str_of(entry, "unit"), metric.unit);
        assert_eq!(str_of(entry, "better"), metric.better.word());
        let bound = entry.get("bound").unwrap().as_f64().unwrap();
        assert_eq!(bound, metric.bound, "{}", metric.name);
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", metric.name);
        assert!(valid_name(metric.name) && valid_unit(metric.unit), "{}", metric.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.word()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s takes the largest bound");
}

#[test]
fn per_layer_metrics_match_the_code() {
    let m = manifest();
    let listed = m.get("per_layer").unwrap().items();
    assert!((1..=128).contains(&listed.len()));
    assert_eq!(listed.len(), PER_LAYER.len());
    for (entry, metric) in listed.iter().zip(PER_LAYER) {
        assert_eq!(entry.members().len(), 3, "{}", entry.to_json());
        assert_eq!(str_of(entry, "name"), metric.name);
        assert_eq!(str_of(entry, "unit"), metric.unit);
        assert_eq!(str_of(entry, "better"), metric.better.word());
        assert!(valid_name(metric.name) && valid_unit(metric.unit), "{}", metric.name);
    }
}

#[test]
fn every_name_is_used_once() {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}
