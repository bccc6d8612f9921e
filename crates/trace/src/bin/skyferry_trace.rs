//! `skyferry-trace`: inspect trace files produced by `repro --trace` and
//! `skyferryd --trace`.
//!
//! ```text
//! skyferry-trace summarize <trace.jsonl> [--top N] [--check]
//!     [--expect-requests N] [--min-coverage FRAC]
//! skyferry-trace convert <trace.jsonl> <out.json>
//! ```
//!
//! Both commands read the JSONL trace files that the tracer writes.
//! `summarize` prints record counts, extent/coverage, top spans by
//! self-time with p50/p95/p99, event counts and the critical path.
//! `--check` turns structural problems (empty trace, wrong request count,
//! poor coverage) into a non-zero exit for CI. `convert` writes the trace
//! as Chrome `trace_event` JSON, for Perfetto or `chrome://tracing`.

use std::path::PathBuf;
use std::process::ExitCode;

use skyferry_trace::sink;
use skyferry_trace::summary::{self, CheckSpec};

const USAGE: &str = "usage:\n  skyferry-trace summarize <trace.jsonl> [--top N] [--check] \
                     [--expect-requests N] [--min-coverage FRAC]\n  \
                     skyferry-trace convert <trace.jsonl> <out.json>";

struct SummarizeArgs {
    path: PathBuf,
    top: usize,
    checked: bool,
    spec: CheckSpec,
}

fn parse_summarize(args: &[String]) -> Result<SummarizeArgs, String> {
    let mut path = None;
    let mut top = 15usize;
    let mut checked = false;
    let mut spec = CheckSpec::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => {
                top = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--top needs an integer")?;
            }
            "--check" => checked = true,
            "--expect-requests" => {
                spec.expect_requests = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--expect-requests needs an integer")?,
                );
                checked = true;
            }
            "--min-coverage" => {
                let frac: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--min-coverage needs a fraction in [0, 1]")?;
                if !(0.0..=1.0).contains(&frac) {
                    return Err("--min-coverage needs a fraction in [0, 1]".to_string());
                }
                spec.min_coverage = Some(frac);
                checked = true;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            positional => {
                if path.replace(PathBuf::from(positional)).is_some() {
                    return Err("summarize takes exactly one trace file".to_string());
                }
            }
        }
    }
    Ok(SummarizeArgs {
        path: path.ok_or("summarize needs a trace file")?,
        top,
        checked,
        spec,
    })
}

fn summarize(args: &[String]) -> Result<(), String> {
    let args = parse_summarize(args)?;
    let records = sink::read_file(&args.path).map_err(|e| e.to_string())?;
    let summary = summary::summarize(&records);
    print!("{}", summary::render(&summary, args.top));
    if args.checked {
        summary::check(&summary, &args.spec).map_err(|failures| {
            let mut msg = String::from("trace check failed:");
            for f in failures {
                msg.push_str("\n  - ");
                msg.push_str(&f);
            }
            msg
        })?;
        println!("\ntrace check: ok");
    }
    Ok(())
}

fn convert(args: &[String]) -> Result<(), String> {
    let [input, output] = args else {
        return Err("convert takes <trace.jsonl> <out.json>".to_string());
    };
    let records = sink::read_file(&PathBuf::from(input)).map_err(|e| e.to_string())?;
    std::fs::write(output, sink::to_chrome(&records))
        .map_err(|e| format!("cannot write {output}: {e}"))?;
    println!("wrote {} records to {output}", records.len());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "summarize" => summarize(rest),
        Some((cmd, rest)) if cmd == "convert" => convert(rest),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("skyferry-trace: {msg}");
            ExitCode::from(2)
        }
    }
}
