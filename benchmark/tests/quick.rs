//! `BENCHMARK.json` and the binary agree: a quick run prints every declared
//! metric with its declared unit, and nothing else, in its last line.

use std::path::Path;
use std::process::Command;

use asyncinv_benchmark::report::Declared;
use asyncinv_benchmark::workload::Workload;
use serde::Value;

#[test]
fn declarations_follow_the_benchmark_contract() {
    let d = Declared::load().expect("BENCHMARK.json parses");
    let names: Vec<&str> = d.workloads.iter().map(|w| w.name.as_str()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    assert_eq!(d.paths, ["benchmark"]);
    let setup = d
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    for m in &d.end_to_end {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{}: bound {}",
            m.name,
            m.bound
        );
        assert!(
            m.bound <= setup.bound,
            "setup_s must have the largest bound"
        );
    }
    for better in d
        .end_to_end
        .iter()
        .map(|m| &m.better)
        .chain(d.per_layer.iter().map(|m| &m.better))
    {
        assert!(better == "lower" || better == "higher");
    }
}

#[test]
fn quick_run_prints_every_declared_metric() {
    let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-results.json");
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--quick", "--workload", "multi_tier", "--results"])
        .arg(&results)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(out.status.success(), "exit {}\n{stdout}", out.status);
    let last: Value = serde_json::from_str(stdout.lines().last().expect("output"))
        .expect("the last line is JSON");
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)), "{stdout}");
    assert_eq!(last.get("failed"), Some(&Value::UInt(0)));
    let metrics = last
        .get("metrics")
        .and_then(Value::as_map)
        .expect("metrics object");

    let d = Declared::load().expect("BENCHMARK.json parses");
    let declared: Vec<(&str, &str)> = d
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .chain(
            d.per_layer
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str())),
        )
        .collect();
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        printed, names,
        "the JSON line carries exactly the declared metrics"
    );
    for (name, unit) in declared {
        let m = last.get("metrics").and_then(|m| m.get(name)).expect(name);
        assert_eq!(m.get("unit"), Some(&Value::Str(unit.to_string())), "{name}");
        assert!(
            matches!(m.get("value"), Some(Value::Float(v)) if v.is_finite()),
            "{name}"
        );
        assert!(
            stdout
                .lines()
                .any(|l| l.trim_start().starts_with(name) && l.trim_end().ends_with(unit)),
            "{name} is printed with its unit"
        );
    }
}
