//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics,
//! or with `--trace 1` the per-layer ones. Lines before it give the work
//! fingerprint and the noise record. The spans and the full record are
//! written under `perfbench/out/`.

use perfbench::measure::{git_revision, load_average};
use perfbench::run::{render_metrics, Config};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

fn parse_args() -> Result<(String, Config), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing {name}"));
    let workload = get("--workload")?.to_string();
    if !perfbench::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            perfbench::WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok((
        workload,
        Config {
            seed,
            seconds,
            trace,
            min_passes: 1,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let load_before = load_average();
    let outcome = perfbench::run_workload(&workload, &cfg).expect("the workload name was checked");
    let load_after = load_average();

    let metrics = if cfg.trace {
        outcome.per_layer()
    } else {
        outcome.end_to_end()
    };
    let rendered = render_metrics(&metrics);
    let passes: Vec<String> = outcome
        .passes
        .iter()
        .map(|p| {
            format!(
                "[{:.4}, {:.4}, {}, {}, {}]",
                p.wall.as_secs_f64(),
                p.host_ms(),
                p.traced,
                p.counts.nodes,
                p.counts.pivots
            )
        })
        .collect();
    let fingerprint: Vec<String> = outcome
        .fingerprint
        .iter()
        .map(|(label, w)| format!(r#""{label}": [{}, {}, {}, {}]"#, w[0], w[1], w[2], w[3]))
        .collect();
    let failures: Vec<String> = outcome.failures.iter().map(|f| format!("{f:?}")).collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut record = String::new();
    let _ = write!(
        record,
        r#"{{"workload": "{workload}", "seed": {}, "seconds": {}, "trace": {}, "nproc": {nproc}, "revision": "{}", "load_before": {load_before}, "load_after": {load_after}, "setup_s": {:?}, "setup_raw_s": {:?}, "passes": [{}], "fingerprint": {{{}}}, "fingerprint_stable": {}, "failures": [{}], "metrics": {rendered}}}"#,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        git_revision(),
        outcome.setup_s,
        outcome.setup_raw_s,
        passes.join(", "),
        fingerprint.join(", "),
        outcome.fingerprint_stable,
        failures.join(", "),
    );

    let dir = Path::new("perfbench/out");
    let stem = format!("{workload}-seed{}-trace{}", cfg.seed, u8::from(cfg.trace));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), &record))
        .and_then(|()| {
            if cfg.trace {
                outcome
                    .tracer
                    .write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write the run record: {e}");
    }

    for failure in &outcome.failures {
        eprintln!("perfbench: failed: {failure}");
    }
    println!("{record}");
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {rendered}}}"#,
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    ExitCode::SUCCESS
}
