//! The metric catalog is well formed and `BENCHMARK.json` states exactly
//! the same metrics, units, directions, bounds and workloads.

use perfbench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::collections::BTreeSet;

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn every_metric_has_a_valid_name_and_unit_and_is_unique() {
    assert!(
        (1..=16).contains(&END_TO_END.len()),
        "1 to 16 end-to-end metrics"
    );
    assert!(
        (1..=128).contains(&PER_LAYER.len()),
        "1 to 128 per-layer metrics"
    );
    let mut names = BTreeSet::new();
    let all = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)));
    for (name, unit, better) in all {
        assert!(is_name(name), "bad metric name {name:?}");
        assert!(is_unit(unit), "bad unit {unit:?} of {name}");
        assert!(
            better == "lower" || better == "higher",
            "{name}: better {better:?}"
        );
        assert!(names.insert(name), "duplicate metric {name}");
    }
    for m in END_TO_END {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{}: bound {}",
            m.name,
            m.bound
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn every_per_layer_metric_names_the_end_to_end_metric_and_workload_it_moves() {
    for m in PER_LAYER {
        assert!(
            END_TO_END.iter().any(|e| e.name == m.moves),
            "{} moves unknown metric {}",
            m.name,
            m.moves
        );
        assert!(
            m.on == "all" || WORKLOADS.contains(&m.on),
            "{} moves {} on unknown workload {}",
            m.name,
            m.moves,
            m.on
        );
    }
}

fn field<'a>(object: &'a Value, key: &str) -> &'a Value {
    object
        .as_map()
        .expect("object")
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn keys(object: &Value) -> Vec<&str> {
    object
        .as_map()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn number(v: &Value) -> f64 {
    match v {
        Value::F64(x) => *x,
        Value::U64(x) => *x as f64,
        Value::I64(x) => *x as f64,
        other => panic!("not a number: {other:?}"),
    }
}

fn str_of<'a>(object: &'a Value, key: &str) -> &'a str {
    field(object, key).as_str().expect("string")
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let seconds = number(field(&doc, "run_seconds"));
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = field(&doc, "workloads").as_seq().expect("array");
    let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(str_of(w, "why").len() <= 200 && !str_of(w, "why").contains('\n'));
    }

    let e2e = field(&doc, "end_to_end").as_seq().expect("array");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (json, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(json), ["name", "unit", "better", "bound"]);
        assert_eq!(
            (
                str_of(json, "name"),
                str_of(json, "unit"),
                str_of(json, "better")
            ),
            (m.name, m.unit, m.better)
        );
        assert_eq!(number(field(json, "bound")), m.bound, "{}", m.name);
    }

    let layers = field(&doc, "per_layer").as_seq().expect("array");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (json, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(keys(json), ["name", "unit", "better"]);
        assert_eq!(
            (
                str_of(json, "name"),
                str_of(json, "unit"),
                str_of(json, "better")
            ),
            (m.name, m.unit, m.better)
        );
    }
}
