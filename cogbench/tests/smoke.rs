//! Tiny-size runs of every workload: each prints every named metric with its
//! unit, and the correctness checks fire on deliberately wrong answers.

use cogsys_cogbench::report::{END_TO_END, PER_LAYER};
use cogsys_cogbench::{run, Fault, RunArgs, Size, Workload, DEFAULT_CODEBOOK_SEED};
use std::process::Command;

fn tiny(workload: Workload, trace: bool, fault: Fault) -> RunArgs {
    RunArgs {
        workload,
        seed: 7,
        codebook_seed: DEFAULT_CODEBOOK_SEED,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        fault,
    }
}

fn assert_prints_catalogue(line: &str, catalogue: &[(&str, &str)]) {
    for (name, unit) in catalogue {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&entry)
            .unwrap_or_else(|| panic!("`{name}` missing from {line}"));
        let rest = &line[at + entry.len()..];
        assert!(
            rest.split('}')
                .next()
                .unwrap()
                .ends_with(&format!("\"unit\": \"{unit}\"")),
            "`{name}` lacks unit `{unit}` in {line}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, catalogue) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let mut report = run(&tiny(workload, trace, Fault::None));
            let line = report.to_json(trace);
            assert!(
                report.correct(),
                "{}: {:?}",
                workload.name(),
                report.violations
            );
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert_prints_catalogue(&line, catalogue);
            assert_eq!(report.failed, 0);
        }
    }
}

#[test]
fn wrong_answers_fail_the_accuracy_floor() {
    for workload in Workload::ALL {
        let mut report = run(&tiny(workload, false, Fault::WrongAnswers));
        let line = report.to_json(false);
        assert!(
            line.starts_with("{\"correct\": false"),
            "{}: {line}",
            workload.name()
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("below the floor")),
            "{}: {:?}",
            workload.name(),
            report.violations
        );
    }
}

#[test]
fn out_of_range_answers_are_caught() {
    for workload in Workload::ALL {
        let report = run(&tiny(workload, false, Fault::OutOfRange));
        assert!(
            report.violations.iter().any(|v| v.contains("out of range")),
            "{}: {:?}",
            workload.name(),
            report.violations
        );
    }
}

#[test]
fn the_command_prints_one_json_line_last_and_rejects_bad_usage() {
    let bin = env!("CARGO_BIN_EXE_cogbench");
    let out = Command::new(bin)
        .args([
            "--workload",
            "serve_adversarial",
            "--seed",
            "3",
            "--seconds",
            "0",
        ])
        .args(["--trace", "0", "--size", "tiny"])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    assert_prints_catalogue(last, &END_TO_END);

    for bad in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "raven_d2048", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "raven_d2048",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = Command::new(bin)
            .args(bad)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?} printed a result");
    }
}
