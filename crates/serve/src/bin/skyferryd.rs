//! `skyferryd` — the long-running decision server.
//!
//! ```text
//! skyferryd [--addr HOST:PORT] [--shards N] [--queue-depth N]
//!           [--cache-capacity N] [--exact | --quant-d0 M --quant-mdata MB
//!            --quant-rho R --quant-speed V] [--no-cache]
//!           [--policy FILE] [--policy-interp]
//!           [--deterministic] [--trace PATH]
//! ```
//!
//! Prints `listening on <addr>` once the socket is bound (scripts wait
//! for that line), then serves until a `shutdown` control request.
//! Each shard is one thread that parses, looks up and solves its own
//! requests, so `--shards N` is how skyferryd uses N cores; each decide
//! is served as soon as the shard owning its key has it.
//! `--queue-depth N` bounds the decides waiting for one shard: those
//! its peers routed to it (so a single shard never sheds at N > 0).
//! `--policy FILE` loads a compiled decision table built by
//! `repro --compile-policy`; a corrupted, truncated or
//! version-mismatched artifact is rejected at startup with the typed
//! decode error. `--policy-interp` interpolates between cell centres
//! instead of nearest-cell lookup. `--trace PATH` records every request
//! as a span tree (parse → queue → cache → compute → respond, or parse
//! → policy-lookup → respond on the table path) and writes the merged
//! trace on shutdown — `.jsonl` for the compact format, anything else
//! for Chrome `trace_event` JSON (loadable in Perfetto).

use std::sync::Arc;

use skyferry_core::policy::PolicyTable;
use skyferry_core::request::Quantizer;
use skyferry_serve::policy::PolicyConfig;
use skyferry_serve::server::{start, ServerConfig};
use skyferry_trace as trace;

struct Args {
    server: ServerConfig,
    trace_path: Option<String>,
    policy_path: Option<String>,
    policy_interp: bool,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut server = ServerConfig {
        addr: "127.0.0.1:4517".to_string(),
        ..Default::default()
    };
    let mut trace_path = None;
    let mut policy_path = None;
    let mut policy_interp = false;
    let mut quant = Quantizer::default_buckets();
    let mut raw = raw.into_iter();
    fn value<T: std::str::FromStr>(
        args: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> Result<T, String> {
        let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse()
            .map_err(|_| format!("{flag} got unparsable value '{v}'"))
    }
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--addr" => server.addr = value(&mut raw, "--addr")?,
            "--shards" => server.shards = value(&mut raw, "--shards")?,
            "--queue-depth" => server.queue_depth = value(&mut raw, "--queue-depth")?,
            "--cache-capacity" => {
                server.engine.cache_capacity = value(&mut raw, "--cache-capacity")?
            }
            "--exact" => quant = Quantizer::exact(),
            "--quant-d0" => quant.d0_step_m = Some(value(&mut raw, "--quant-d0")?),
            "--quant-mdata" => quant.mdata_step_mb = Some(value(&mut raw, "--quant-mdata")?),
            "--quant-rho" => quant.rho_step_per_m = Some(value(&mut raw, "--quant-rho")?),
            "--quant-speed" => quant.speed_step_mps = Some(value(&mut raw, "--quant-speed")?),
            "--no-cache" => server.engine.cache_enabled = false,
            "--deterministic" => server.deterministic = true,
            "--trace" => trace_path = Some(value(&mut raw, "--trace")?),
            "--policy" => policy_path = Some(value(&mut raw, "--policy")?),
            "--policy-interp" => policy_interp = true,
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if policy_interp && policy_path.is_none() {
        return Err("--policy-interp needs --policy FILE".to_string());
    }
    server.engine.quant = quant;
    Ok(Args {
        server,
        trace_path,
        policy_path,
        policy_interp,
    })
}

const USAGE: &str = "usage: skyferryd [--addr HOST:PORT] [--shards N] [--queue-depth N] \
[--cache-capacity N] [--exact] [--quant-d0 M] [--quant-mdata MB] [--quant-rho R] \
[--quant-speed V] [--no-cache] [--policy FILE] [--policy-interp] [--deterministic] \
[--trace PATH]";

fn main() {
    let mut args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if e != "help" {
                eprintln!("skyferryd: {e}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.policy_path {
        let table = match PolicyTable::load_file(std::path::Path::new(path)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("skyferryd: cannot load policy {path}: {e}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "skyferryd: policy table {path}: {} cells, seed {:#x}, {}",
            table.len(),
            table.seed,
            if args.policy_interp {
                "interpolating"
            } else {
                "nearest-cell lookup"
            },
        );
        args.server.policy = Some(PolicyConfig {
            table: Arc::new(table),
            interpolate: args.policy_interp,
        });
    }
    if args.trace_path.is_some() {
        // Request spans are manual spans stamped with measured monotonic
        // timestamps, so the trace clock is always the real one — the
        // virtual clock would disagree with the stamps. `--deterministic`
        // still zeroes `us_served` in responses; trace *times* are
        // inherently wall-clock here.
        trace::install(trace::TraceConfig::default());
    }
    let handle = match start(args.server.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("skyferryd: cannot bind {}: {e}", args.server.addr);
            std::process::exit(1);
        }
    };
    println!("listening on {}", handle.addr());
    let e = &args.server.engine;
    eprintln!(
        "skyferryd: {} shard{}, cache {} (capacity {}, {}), queue depth {}, {} mode",
        args.server.shards.max(1),
        if args.server.shards.max(1) == 1 {
            ""
        } else {
            "s"
        },
        if e.cache_enabled { "on" } else { "off" },
        e.cache_capacity,
        if e.quant.is_exact() {
            "exact keys".to_string()
        } else {
            "quantized keys".to_string()
        },
        args.server.queue_depth,
        if args.server.deterministic {
            "deterministic"
        } else {
            "timing"
        },
    );
    handle.join();
    if let Some(path) = &args.trace_path {
        let records = trace::drain();
        match trace::sink::write_file(std::path::Path::new(path), &records) {
            Ok(()) => eprintln!("skyferryd: wrote {} trace records to {path}", records.len()),
            Err(e) => eprintln!("skyferryd: cannot write trace {path}: {e}"),
        }
    }
    eprintln!("skyferryd: shut down cleanly");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(strs: &[&str]) -> Result<Args, String> {
        parse_args(strs.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_overrides() {
        let a = parse(&[]).expect("defaults");
        assert_eq!(a.server.addr, "127.0.0.1:4517");
        assert_eq!(a.server.shards, 1);
        assert!(a.server.engine.cache_enabled);
        assert!(!a.server.engine.quant.is_exact());

        let a = parse(&[
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "4",
            "--queue-depth",
            "8",
            "--cache-capacity",
            "100",
            "--exact",
            "--deterministic",
        ])
        .expect("valid");
        assert_eq!(a.server.addr, "127.0.0.1:0");
        assert_eq!(a.server.shards, 4);
        assert_eq!(a.server.queue_depth, 8);
        assert_eq!(a.server.engine.cache_capacity, 100);
        assert!(a.server.engine.quant.is_exact());
        assert!(a.server.deterministic);
        assert_eq!(a.trace_path, None);

        let a = parse(&["--trace", "/tmp/d.trace.json"]).expect("valid");
        assert_eq!(a.trace_path.as_deref(), Some("/tmp/d.trace.json"));
        assert!(parse(&["--trace"]).is_err());
    }

    #[test]
    fn quant_flags_and_errors() {
        let a = parse(&["--quant-d0", "2.5", "--no-cache"]).expect("valid");
        assert_eq!(a.server.engine.quant.d0_step_m, Some(2.5));
        assert!(!a.server.engine.cache_enabled);
        assert!(parse(&["--queue-depth"]).is_err());
        assert!(parse(&["--queue-depth", "many"]).is_err());
        assert!(parse(&["--frob"]).is_err());
    }

    #[test]
    fn policy_flags_parse_and_validate() {
        let a = parse(&["--policy", "/tmp/policy.bin"]).expect("valid");
        assert_eq!(a.policy_path.as_deref(), Some("/tmp/policy.bin"));
        assert!(!a.policy_interp);
        let a = parse(&["--policy", "p.bin", "--policy-interp"]).expect("valid");
        assert!(a.policy_interp);
        assert!(parse(&["--policy"]).is_err(), "flag needs a value");
        assert!(
            parse(&["--policy-interp"]).is_err(),
            "interp without a table is a config error"
        );
        let a = parse(&[]).expect("defaults");
        assert_eq!(a.policy_path, None);
    }
}
