//! End-to-end smoke of the built binary at `--quick` sizes: every workload
//! runs, passes its correctness gate and reports every named metric; the
//! driver-style call prints the agreed result line; `compare` refuses smoke
//! results. One test function, because the steps share `benchmark/out/`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;
#[path = "../src/names.rs"]
#[allow(dead_code)]
mod names;

use json::Json;
use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 5] = [
    "vgg_hybrid_tcp",
    "fc_ps_tcp",
    "fc_ps_onebit_tcp",
    "fc_ring_tcp",
    "sim_zoo32",
];

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn names_of(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("a string")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_and_workloads_the_harness_reports() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses");
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        names_of(doc.get("end_to_end").unwrap()),
        table(&names::END_TO_END)
    );
    assert_eq!(
        names_of(doc.get("per_layer").unwrap()),
        table(&names::PER_LAYER)
    );
    let listed: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(listed, WORKLOADS);
    for exact in names::EXACT_PER_LAYER {
        assert!(names::PER_LAYER.iter().any(|(n, _)| *n == exact));
    }
    for exact in names::EXACT_END_TO_END {
        assert!(names::END_TO_END.iter().any(|(n, _)| *n == exact));
    }
}

#[test]
fn quick_run_of_every_workload_is_correct_and_complete() {
    // The documented command, at smoke size.
    let out = benchmark(&["run", "--quick", "--repeats", "2", "--seed", "5"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "run failed:\n{stderr}");
    let doc = json::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("standard output is one JSON document");
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{stderr}");
    assert_eq!(doc.get("quick"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    let provenance = doc.get("provenance").expect("provenance is recorded");
    for key in [
        "nproc",
        "cpu",
        "kernel_isa",
        "rustc",
        "git_commit",
        "iterations_per_run",
    ] {
        assert!(provenance.get(key).is_some(), "provenance lacks {key}");
    }

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    for name in WORKLOADS {
        let w = doc
            .get("workloads")
            .and_then(|w| w.get(name))
            .unwrap_or_else(|| panic!("{name} is missing from the result"));
        assert_eq!(w.get("correct"), Some(&Json::Bool(true)), "{name}");
        for (metric, unit) in names::END_TO_END {
            let m = w.get("end_to_end").and_then(|e| e.get(metric));
            let m = m.unwrap_or_else(|| panic!("{name} lacks {metric}"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            let value = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(
                value > 0.0,
                "{name} {metric} = {value}: end-to-end metrics are never 0"
            );
            assert_eq!(
                m.get("n").and_then(Json::as_f64),
                Some(2.0),
                "one sample per run"
            );
        }
        let layer = |metric: &str| {
            w.get("per_layer")
                .and_then(|p| p.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name} lacks {metric}"))
        };
        for (metric, _) in names::PER_LAYER {
            assert!(layer(metric).is_finite(), "{name} {metric}");
        }
        // Each workload takes the path it exists to exercise.
        let (ps, sfb, ring) = (
            layer("coordinator.layers_ps"),
            layer("coordinator.layers_sfb"),
            layer("coordinator.layers_ring"),
        );
        match name {
            "vgg_hybrid_tcp" => assert_eq!((ps, sfb, ring), (4.0, 2.0, 0.0), "conv→PS, big FC→SFB"),
            "fc_ps_tcp" | "fc_ps_onebit_tcp" => assert_eq!((ps, sfb, ring), (4.0, 0.0, 0.0)),
            "fc_ring_tcp" => assert_eq!((ps, sfb, ring), (0.0, 0.0, 4.0)),
            _ => {
                assert_eq!((ps, sfb, ring), (0.0, 0.0, 0.0));
                assert!(layer("sim.runs_per_s") > 0.0);
                assert!(layer("sim.speedup_vgg19_22k_32") > 1.0);
            }
        }
        if name != "sim_zoo32" {
            assert!(layer("pool.hit_ratio") > 0.0, "{name}: the pool is used");
            assert!(layer("transport.frames_per_step") > 0.0);
            assert!(layer("runtime.sync_window_ms") > 0.0);
        }
        assert!(layer("runtime.step_ms") > 0.0);
        for artifact in [format!("trace_{name}.json"), format!("ledger_{name}.json")] {
            let text = std::fs::read_to_string(out_dir.join(&artifact))
                .unwrap_or_else(|e| panic!("{artifact}: {e}"));
            json::parse(&text).unwrap_or_else(|e| panic!("{artifact}: {e}"));
        }
    }

    // The benchmark driver's call: one workload, one result line, exactly
    // the agreed keys.
    for (trace, expected) in [("0", &names::END_TO_END[..]), ("1", &names::PER_LAYER[..])] {
        let out = benchmark(&[
            "run",
            "--quick",
            "--workload",
            "fc_ring_tcp",
            "--seed",
            "9",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = json::parse(stdout.lines().last().expect("a result line")).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let reported: Vec<&str> = line
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let expected: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
        assert_eq!(reported, expected, "--trace {trace}");
    }

    // Smoke sizes measure nothing: `compare` must refuse them.
    let result = out_dir.join("result.json");
    let result = result.to_str().unwrap();
    let out = benchmark(&["compare", result, result]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--quick"));

    // Unknown names fail fast instead of measuring something else.
    assert_eq!(
        benchmark(&["run", "--workload", "no_such_workload"])
            .status
            .code(),
        Some(2)
    );
}
