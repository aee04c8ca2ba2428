//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result line: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer ones.
//! The report is also written to `out/<workload>.trace<0|1>.txt` beside
//! this package's manifest, and a traced run writes its spans to
//! `out/<workload>.spans.jsonl`.

use std::process::ExitCode;

use perfbench::{run, Sizes, Workload};

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "perfbench: {problem}\nusage: perfbench --workload <release_fresh|release_hot|analyst_mix> \
         --seed <u64> --seconds <seconds> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag needs a value");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("missing or invalid --workload, --seed, --seconds or --trace");
    };

    let outcome = run(workload, seed, seconds, trace, &Sizes::full());
    let report = outcome.report.join("\n");
    println!("{report}");
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let name = format!("{}.trace{}.txt", workload.name(), u8::from(trace));
        let _ = std::fs::write(
            out_dir.join(name),
            format!("{report}\n{}\n", outcome.json()),
        );
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
