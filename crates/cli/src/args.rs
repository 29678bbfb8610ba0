use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use service::ServiceConfig;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The subcommand.
    pub command: Command,
}

/// The CLI subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `generate`: write a benchmark dataset to a directory.
    Generate {
        /// `squeeze` or `rapmd`.
        dataset: String,
        /// Output directory.
        out: String,
        /// RAPMD failures (ignored for squeeze).
        failures: usize,
        /// Squeeze cases per group (ignored for rapmd).
        cases_per_group: usize,
        /// Generation seed.
        seed: u64,
    },
    /// `localize`: run one method on a CSV leaf table.
    Localize {
        /// Input CSV path.
        input: String,
        /// Method name (see `methods`).
        method: String,
        /// Number of results.
        k: usize,
        /// RAPMiner `t_CP` override.
        t_cp: Option<f64>,
        /// RAPMiner `t_conf` override.
        t_conf: Option<f64>,
        /// Detection threshold applied when the CSV has no label column.
        detect_threshold: f64,
        /// Also print the per-attribute classification-power breakdown
        /// (RAPMiner only).
        explain: bool,
        /// Also print the search statistics (cuboids/combinations visited,
        /// candidates found, early-stop status) when the method reports
        /// them.
        stats: bool,
        /// Intra-frame worker threads for RAPMiner (`0` = machine width,
        /// `1` = serial); results are byte-identical at any setting.
        threads: usize,
    },
    /// `evaluate`: score methods against a dataset directory.
    Evaluate {
        /// Dataset directory (as written by `generate`).
        dir: String,
        /// `rc` or `f1`.
        protocol: String,
        /// The `k` values for the `rc` protocol.
        ks: Vec<usize>,
        /// Restrict to one method (default: all).
        method: Option<String>,
    },
    /// `simulate`: run the streaming operations demo on the CDN simulator.
    Simulate {
        /// Time steps to play.
        steps: usize,
        /// Step at which the failure is injected.
        failure_at: usize,
        /// Simulation seed.
        seed: u64,
        /// RAP specification to inject (`attr=elem&…`); empty picks a
        /// random location outage.
        rap: Option<String>,
    },
    /// `serve`: run the rapd localization daemon.
    Serve {
        /// Every daemon setting, parsed straight from its flag; a flag
        /// that is not given keeps its [`ServiceConfig`] default.
        config: Box<ServiceConfig>,
        /// Run a fleet: a consistent-hash router over this many
        /// supervised worker processes. `0` (the default) keeps the
        /// classic single-process daemon. Needs `--spool`.
        workers: usize,
        /// Frames the router parks per unavailable worker before
        /// shedding new ones (fleet mode only).
        park_capacity: usize,
        /// Per-request deadline on router→worker calls, in
        /// milliseconds (fleet mode only).
        request_deadline_ms: u64,
        /// Internal: this process is worker `i` of a fleet — speak the
        /// framed wire protocol and announce on stdout. Set by the
        /// router's supervisor, not by operators.
        worker_index: Option<usize>,
        /// The flags as given, in order, without their `--`; a fleet
        /// router hands them on to its workers.
        flags: Vec<(String, String)>,
    },
    /// `debug`: query a running rapd daemon's live internals (queue
    /// depths, per-tenant engine/breaker/reorder state, flight-recorder
    /// stats) and print the JSON reply.
    Debug {
        /// The daemon's NDJSON control address.
        addr: String,
        /// Restrict the per-tenant breakdown to one tenant.
        tenant: Option<String>,
    },
    /// `stats`: query a running rapd daemon's counters (ingested,
    /// processed, incidents, WAL depth, checkpoint age) and print the
    /// JSON reply.
    Stats {
        /// The daemon's NDJSON control address.
        addr: String,
    },
    /// `shutdown`: ask a running rapd daemon to drain gracefully —
    /// flush its reorder buffers, checkpoint every tenant, fsync the
    /// spools — and exit.
    Shutdown {
        /// The daemon's NDJSON control address.
        addr: String,
    },
    /// `detect`: offline detection replay — play a seeded anomalous
    /// stream through the streaming detector and score recall, false
    /// triggers, and trigger latency against the ground truth.
    Detect {
        /// Stream length in steps.
        steps: usize,
        /// Clean steps before the first injection.
        warmup: usize,
        /// Number of injected failures.
        injections: usize,
        /// Anomalous steps per failure.
        duration: usize,
        /// Stream seed.
        seed: u64,
        /// σ-score that triggers a detection.
        threshold: f64,
        /// Seasonal period of the detector's forecaster (`0` = EWMA).
        seasonal_period: usize,
        /// Gate: minimum recall required for exit success.
        min_recall: f64,
        /// Gate: false triggers tolerated for exit success.
        max_false_triggers: usize,
    },
    /// `loadgen`: drive a running rapd with open-loop seeded load and
    /// print the accounting/latency summary (thin wrapper over the
    /// `loadgen` crate; the standalone binary of the same name adds
    /// exit-code semantics for scripting).
    Loadgen(loadgen::LoadConfig),
    /// `methods`: list available localizers.
    Methods,
    /// `help`: print usage.
    Help,
}

/// A command-line parse failure (message is user-facing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text printed by `help` and on parse errors.
pub const USAGE: &str = "\
rapminer — root anomaly pattern mining for multi-dimensional KPIs

USAGE:
  rapminer generate --dataset <squeeze|rapmd> --out <dir>
                    [--failures N] [--cases-per-group N] [--seed N]
  rapminer localize --input <case.csv> [--method NAME] [--k N]
                    [--t-cp X] [--t-conf X] [--detect-threshold X]
                    [--explain true] [--stats true] [--threads N]
  rapminer evaluate --dir <dataset-dir> [--protocol rc|f1] [--k 3,4,5]
                    [--method NAME]
  rapminer simulate [--steps N] [--failure-at N] [--seed N] [--rap SPEC]
  rapminer serve    [--listen HOST:PORT] [--metrics-listen HOST:PORT]
                    [--shards N] [--queue N] [--spool DIR] [--ring N]
                    [--history N] [--warmup N] [--alarm-threshold X]
                    [--leaf-threshold X] [--k N] [--window N]
                    [--log-json true] [--localize-deadline-ms N]
                    [--breaker-threshold N] [--breaker-cooldown-ms N]
                    [--schema-drift-limit N] [--reorder-window N]
                    [--max-lateness-ms N] [--intra-frame-threads N]
                    [--detect true] [--detect-threshold X]
                    [--seasonal-period N] [--flight-recorder N]
                    [--wal true|false] [--wal-fsync true|false]
                    [--checkpoint-interval-ms N]
                    [--spool-max-bytes N]
                    [--workers N] [--shutdown-deadline-ms N]
                    [--park-capacity N] [--request-deadline-ms N]
  rapminer debug    [--addr HOST:PORT] [--tenant NAME]
  rapminer stats    [--addr HOST:PORT]
  rapminer shutdown [--addr HOST:PORT]
  rapminer detect   [--steps N] [--warmup N] [--injections N]
                    [--duration N] [--seed N] [--threshold X]
                    [--seasonal-period N] [--min-recall X]
                    [--max-false-triggers N]
  rapminer loadgen  --addr HOST:PORT [--connections N] [--rate X]
                    [--frames N] [--duration SECS] [--poll-interval-ms N]
                    [--tenants N] [--steps N] [--seed N] [--locations N]
                    [--access-types N] [--oses N] [--websites N]
                    [--warmup N] [--inject-every N] [--inject-duration N]
  rapminer methods
  rapminer help
";

impl Args {
    /// Parse a raw argument vector (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a user-facing [`ParseError`] on unknown commands/flags,
    /// missing required flags, or unparsable numbers.
    pub fn parse<I, S>(raw: I) -> Result<Args, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut raw = raw.into_iter().map(Into::into);
        let command = raw.next().unwrap_or_else(|| "help".to_string());
        let flags = parse_flags(raw)?;
        let command = match command.as_str() {
            "generate" => Command::Generate {
                dataset: require(&flags, "dataset")?,
                out: require(&flags, "out")?,
                failures: parse_num(&flags, "failures", 105)?,
                cases_per_group: parse_num(&flags, "cases-per-group", 10)?,
                seed: parse_num(&flags, "seed", 20220607)?,
            },
            "localize" => Command::Localize {
                input: require(&flags, "input")?,
                method: flags
                    .get("method")
                    .cloned()
                    .unwrap_or_else(|| "rapminer".to_string()),
                k: parse_num(&flags, "k", 3)?,
                t_cp: parse_opt_float(&flags, "t-cp")?,
                t_conf: parse_opt_float(&flags, "t-conf")?,
                detect_threshold: parse_num(&flags, "detect-threshold", 0.095)?,
                explain: parse_bool(&flags, "explain")?,
                stats: parse_bool(&flags, "stats")?,
                threads: parse_num(&flags, "threads", 0)?,
            },
            "evaluate" => Command::Evaluate {
                dir: require(&flags, "dir")?,
                protocol: flags
                    .get("protocol")
                    .cloned()
                    .unwrap_or_else(|| "rc".to_string()),
                ks: parse_k_list(&flags)?,
                method: flags.get("method").cloned(),
            },
            "simulate" => Command::Simulate {
                steps: parse_num(&flags, "steps", 120)?,
                failure_at: parse_num(&flags, "failure-at", 90)?,
                seed: parse_num(&flags, "seed", 404)?,
                rap: flags.get("rap").cloned(),
            },
            "serve" => parse_serve(flags)?,
            "debug" => Command::Debug {
                addr: flags
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:4817".to_string()),
                tenant: flags.get("tenant").cloned(),
            },
            "stats" => Command::Stats {
                addr: flags
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:4817".to_string()),
            },
            "shutdown" => Command::Shutdown {
                addr: flags
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:4817".to_string()),
            },
            "detect" => Command::Detect {
                steps: parse_num(&flags, "steps", 360)?,
                warmup: parse_num(&flags, "warmup", 60)?,
                injections: parse_num(&flags, "injections", 5)?,
                duration: parse_num(&flags, "duration", 4)?,
                seed: parse_num(&flags, "seed", 7)?,
                threshold: parse_num(&flags, "threshold", 4.0)?,
                seasonal_period: parse_num(&flags, "seasonal-period", 0)?,
                min_recall: parse_num(&flags, "min-recall", 0.0)?,
                max_false_triggers: parse_num(&flags, "max-false-triggers", usize::MAX)?,
            },
            "loadgen" => {
                // LoadConfig::from_flags speaks `--flag` keys (shared with
                // the standalone binary); re-add the prefix this parser
                // stripped.
                let prefixed: HashMap<String, String> = flags
                    .0
                    .iter()
                    .map(|(k, v)| (format!("--{k}"), v.clone()))
                    .collect();
                Command::Loadgen(loadgen::LoadConfig::from_flags(&prefixed).map_err(ParseError)?)
            }
            "methods" => Command::Methods,
            "help" | "--help" | "-h" => Command::Help,
            other => {
                return Err(ParseError(format!(
                    "unknown command `{other}`; run `rapminer help`"
                )))
            }
        };
        Ok(Args { command })
    }
}

/// A command's `--name value` pairs without the `--`, in the order given.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn get(&self, name: &str) -> Option<&String> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

fn parse_flags<I: Iterator<Item = String>>(mut raw: I) -> Result<Flags, ParseError> {
    let mut flags = Flags(Vec::new());
    while let Some(flag) = raw.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(ParseError(format!("expected a --flag, got `{flag}`")));
        };
        let value = raw
            .next()
            .ok_or_else(|| ParseError(format!("flag --{name} needs a value")))?;
        if flags.get(name).is_some() {
            return Err(ParseError(format!("flag --{name} given twice")));
        }
        flags.0.push((name.to_string(), value));
    }
    Ok(flags)
}

/// Parse the `serve` flags straight into the daemon settings: one arm per
/// flag, writing the one field that flag sets, so
/// `ServiceConfig::default()` is the only place a daemon default lives.
/// Unknown flags are ignored, as by every other command.
fn parse_serve(flags: Flags) -> Result<Command, ParseError> {
    let mut config = ServiceConfig::default();
    let (mut workers, mut park_capacity, mut request_deadline_ms) = (0, 1024, 10_000);
    let mut worker_index = None;
    for (name, value) in &flags.0 {
        let c = &mut config;
        match name.as_str() {
            "listen" => c.listen = value.clone(),
            "metrics-listen" => c.metrics_listen = value.clone(),
            "shards" => c.shards = num(name, value)?,
            "queue" => c.queue_capacity = num(name, value)?,
            "spool" => c.spool_dir = Some(PathBuf::from(value)),
            "ring" => c.ring_capacity = num(name, value)?,
            "history" => c.pipeline.history_len = num(name, value)?,
            "warmup" => c.pipeline.warmup = num(name, value)?,
            "alarm-threshold" => c.pipeline.alarm_threshold = num(name, value)?,
            "leaf-threshold" => c.pipeline.leaf_threshold = num(name, value)?,
            "k" => c.pipeline.k = num(name, value)?,
            "window" => c.forecast_window = num(name, value)?,
            "log-json" => c.log_json = boolean(name, value)?,
            // 0 on the command line means "no deadline"
            "localize-deadline-ms" => {
                c.pipeline.localize_deadline = Some(millis(name, value)?).filter(|d| !d.is_zero())
            }
            "breaker-threshold" => c.breaker_threshold = num(name, value)?,
            "breaker-cooldown-ms" => c.breaker_cooldown = millis(name, value)?,
            "schema-drift-limit" => c.schema_drift_limit = num(name, value)?,
            "reorder-window" => c.reorder_window = num(name, value)?,
            "max-lateness-ms" => c.max_lateness = millis(name, value)?,
            "intra-frame-threads" => c.pipeline.localize_threads = num(name, value)?,
            "detect" => c.detect = boolean(name, value)?,
            "detect-threshold" => c.detect_threshold = num(name, value)?,
            "seasonal-period" => c.seasonal_period = num(name, value)?,
            "flight-recorder" => c.flight_recorder_capacity = num(name, value)?,
            "wal" => c.wal = boolean(name, value)?,
            "wal-fsync" => c.wal_fsync = boolean(name, value)?,
            "checkpoint-interval-ms" => c.checkpoint_interval = millis(name, value)?,
            "spool-max-bytes" => c.spool_max_bytes = num(name, value)?,
            "shutdown-deadline-ms" => c.shutdown_deadline = millis(name, value)?,
            "workers" => workers = num(name, value)?,
            "park-capacity" => park_capacity = num(name, value)?,
            "request-deadline-ms" => request_deadline_ms = num(name, value)?,
            "worker-index" => worker_index = Some(num(name, value)?),
            _ => {}
        }
    }
    Ok(Command::Serve {
        config: Box::new(config),
        workers,
        park_capacity,
        request_deadline_ms,
        worker_index,
        flags: flags.0,
    })
}

fn require(flags: &Flags, name: &str) -> Result<String, ParseError> {
    flags
        .get(name)
        .cloned()
        .ok_or_else(|| ParseError(format!("missing required flag --{name}")))
}

fn num<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, ParseError> {
    value
        .parse()
        .map_err(|_| ParseError(format!("--{name}: `{value}` is not a valid number")))
}

fn millis(name: &str, value: &str) -> Result<Duration, ParseError> {
    num(name, value).map(Duration::from_millis)
}

fn boolean(name: &str, value: &str) -> Result<bool, ParseError> {
    match value {
        "true" | "1" | "yes" => Ok(true),
        "false" | "0" | "no" => Ok(false),
        other => Err(ParseError(format!("--{name}: `{other}` is not a boolean"))),
    }
}

fn parse_num<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, ParseError> {
    flags
        .get(name)
        .map_or(Ok(default), |value| num(name, value))
}

fn parse_opt_float(flags: &Flags, name: &str) -> Result<Option<f64>, ParseError> {
    flags.get(name).map(|value| num(name, value)).transpose()
}

fn parse_bool(flags: &Flags, name: &str) -> Result<bool, ParseError> {
    flags
        .get(name)
        .map_or(Ok(false), |value| boolean(name, value))
}

fn parse_k_list(flags: &Flags) -> Result<Vec<usize>, ParseError> {
    match flags.get("k") {
        None => Ok(vec![3, 4, 5]),
        Some(s) => s
            .split(',')
            .map(|p| {
                p.trim()
                    .parse()
                    .map_err(|_| ParseError(format!("--k: `{p}` is not a valid number")))
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_generate() {
        let args = Args::parse([
            "generate",
            "--dataset",
            "rapmd",
            "--out",
            "/tmp/x",
            "--failures",
            "7",
        ])
        .unwrap();
        assert_eq!(
            args.command,
            Command::Generate {
                dataset: "rapmd".into(),
                out: "/tmp/x".into(),
                failures: 7,
                cases_per_group: 10,
                seed: 20220607,
            }
        );
    }

    #[test]
    fn parses_localize_with_overrides() {
        let args = Args::parse([
            "localize", "--input", "a.csv", "--method", "squeeze", "--k", "5", "--t-cp", "0.01",
        ])
        .unwrap();
        match args.command {
            Command::Localize {
                input,
                method,
                k,
                t_cp,
                t_conf,
                detect_threshold,
                explain,
                stats,
                threads,
            } => {
                assert_eq!(input, "a.csv");
                assert_eq!(method, "squeeze");
                assert_eq!(k, 5);
                assert_eq!(t_cp, Some(0.01));
                assert_eq!(t_conf, None);
                assert_eq!(detect_threshold, 0.095);
                assert!(!explain);
                assert!(!stats);
                assert_eq!(threads, 0, "default = machine width");
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    /// The daemon settings a `serve` command line parses into.
    fn serve_config(argv: &[&str]) -> ServiceConfig {
        match Args::parse(argv.iter().copied()).unwrap().command {
            Command::Serve { config, .. } => *config,
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_localize_stats_and_serve_log_json() {
        let args = Args::parse(["localize", "--input", "a.csv", "--stats", "true"]).unwrap();
        match args.command {
            Command::Localize { stats, .. } => assert!(stats),
            other => panic!("wrong command {other:?}"),
        }
        assert!(serve_config(&["serve", "--log-json", "true"]).log_json);
        // booleans still default off
        assert!(!serve_config(&["serve"]).log_json);
    }

    #[test]
    fn parses_serve_fault_tolerance_flags() {
        let config = serve_config(&[
            "serve",
            "--localize-deadline-ms",
            "250",
            "--breaker-threshold",
            "3",
            "--breaker-cooldown-ms",
            "5000",
        ]);
        assert_eq!(
            config.pipeline.localize_deadline,
            Some(Duration::from_millis(250))
        );
        assert_eq!(config.breaker_threshold, 3);
        assert_eq!(config.breaker_cooldown, Duration::from_millis(5000));
        // defaults: unbounded localization, breaker 5 failures / 10 s
        let config = serve_config(&["serve"]);
        assert_eq!(config.pipeline.localize_deadline, None);
        assert_eq!(config.breaker_threshold, 5);
        assert_eq!(config.breaker_cooldown, Duration::from_secs(10));
        // an explicit 0 also means unbounded
        let config = serve_config(&["serve", "--localize-deadline-ms", "0"]);
        assert_eq!(config.pipeline.localize_deadline, None);
    }

    #[test]
    fn parses_serve_admission_flags() {
        let config = serve_config(&[
            "serve",
            "--schema-drift-limit",
            "2",
            "--reorder-window",
            "64",
            "--max-lateness-ms",
            "500",
        ]);
        assert_eq!(config.schema_drift_limit, 2);
        assert_eq!(config.reorder_window, 64);
        assert_eq!(config.max_lateness, Duration::from_millis(500));
        // defaults: 8 drifted values, 32-frame window, 2 s lateness
        let config = serve_config(&["serve"]);
        assert_eq!(config.schema_drift_limit, 8);
        assert_eq!(config.reorder_window, 32);
        assert_eq!(config.max_lateness, Duration::from_secs(2));
    }

    #[test]
    fn parses_thread_flags() {
        let args = Args::parse(["localize", "--input", "a.csv", "--threads", "8"]).unwrap();
        match args.command {
            Command::Localize { threads, .. } => assert_eq!(threads, 8),
            other => panic!("wrong command {other:?}"),
        }
        let config = serve_config(&["serve", "--intra-frame-threads", "4"]);
        assert_eq!(config.pipeline.localize_threads, 4);
        // default: one core per shard frame, as before this flag existed
        assert_eq!(serve_config(&["serve"]).pipeline.localize_threads, 1);
        assert!(Args::parse(["localize", "--input", "a", "--threads", "x"]).is_err());
    }

    #[test]
    fn parses_serve_detect_flags() {
        let config = serve_config(&[
            "serve",
            "--detect",
            "true",
            "--detect-threshold",
            "5.5",
            "--seasonal-period",
            "1440",
        ]);
        assert!(config.detect);
        assert_eq!(config.detect_threshold, 5.5);
        assert_eq!(config.seasonal_period, 1440);
        // defaults: classic mode, 4σ, EWMA-only
        let config = serve_config(&["serve"]);
        assert!(!config.detect);
        assert_eq!(config.detect_threshold, 4.0);
        assert_eq!(config.seasonal_period, 0);
    }

    #[test]
    fn parses_serve_flight_recorder_and_debug() {
        let config = serve_config(&["serve", "--flight-recorder", "64"]);
        assert_eq!(config.flight_recorder_capacity, 64);
        // default matches obs::recorder::DEFAULT_FLIGHT_CAPACITY
        assert_eq!(serve_config(&["serve"]).flight_recorder_capacity, 256);
        assert_eq!(
            Args::parse(["debug"]).unwrap().command,
            Command::Debug {
                addr: "127.0.0.1:4817".into(),
                tenant: None,
            }
        );
        assert_eq!(
            Args::parse(["debug", "--addr", "10.0.0.1:9", "--tenant", "edge"])
                .unwrap()
                .command,
            Command::Debug {
                addr: "10.0.0.1:9".into(),
                tenant: Some("edge".into()),
            }
        );
    }

    #[test]
    fn parses_serve_durability_flags() {
        let config = serve_config(&[
            "serve",
            "--wal",
            "false",
            "--wal-fsync",
            "true",
            "--checkpoint-interval-ms",
            "5000",
            "--spool-max-bytes",
            "1048576",
        ]);
        assert!(!config.wal);
        assert!(config.wal_fsync);
        assert_eq!(config.checkpoint_interval, Duration::from_millis(5000));
        assert_eq!(config.spool_max_bytes, 1_048_576);
        // defaults: WAL on (no per-append fsync), 30 s checkpoints,
        // 64 MiB spool ceiling
        let config = serve_config(&["serve"]);
        assert!(config.wal, "WAL must default on");
        assert!(!config.wal_fsync, "per-append fsync must default off");
        assert_eq!(config.checkpoint_interval, Duration::from_secs(30));
        assert_eq!(config.spool_max_bytes, 64 << 20);
        assert!(Args::parse(["serve", "--wal", "maybe"]).is_err());
    }

    #[test]
    fn parses_serve_fleet_flags() {
        let args = Args::parse([
            "serve",
            "--workers",
            "3",
            "--shutdown-deadline-ms",
            "5000",
            "--park-capacity",
            "64",
            "--request-deadline-ms",
            "2500",
            "--worker-index",
            "1",
        ])
        .unwrap();
        match args.command {
            Command::Serve {
                config,
                workers,
                park_capacity,
                request_deadline_ms,
                worker_index,
                flags,
            } => {
                assert_eq!(workers, 3);
                assert_eq!(config.shutdown_deadline, Duration::from_secs(5));
                assert_eq!(park_capacity, 64);
                assert_eq!(request_deadline_ms, 2500);
                assert_eq!(worker_index, Some(1));
                // the flags are kept as given, in order
                assert_eq!(flags[0], ("workers".to_string(), "3".to_string()));
                assert_eq!(flags[4], ("worker-index".to_string(), "1".to_string()));
            }
            other => panic!("wrong command {other:?}"),
        }
        // defaults: single-process daemon, 60 s drain, 1024-frame park
        // buffer, 10 s per-request deadline, not a worker
        match Args::parse(["serve"]).unwrap().command {
            Command::Serve {
                config,
                workers,
                park_capacity,
                request_deadline_ms,
                worker_index,
                flags,
            } => {
                assert_eq!(workers, 0);
                assert_eq!(config.shutdown_deadline, Duration::from_secs(60));
                assert_eq!(park_capacity, 1024);
                assert_eq!(request_deadline_ms, 10_000);
                assert_eq!(worker_index, None);
                assert!(flags.is_empty());
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(Args::parse(["serve", "--workers", "three"]).is_err());
        // unknown flags are ignored, and a repeated flag is refused
        assert_eq!(
            serve_config(&["serve", "--no-such", "1"]),
            ServiceConfig::default()
        );
        assert!(Args::parse(["serve", "--k", "1", "--k", "2"]).is_err());
    }

    #[test]
    fn parses_stats_and_shutdown() {
        assert_eq!(
            Args::parse(["stats"]).unwrap().command,
            Command::Stats {
                addr: "127.0.0.1:4817".into(),
            }
        );
        assert_eq!(
            Args::parse(["shutdown", "--addr", "10.0.0.1:9"])
                .unwrap()
                .command,
            Command::Shutdown {
                addr: "10.0.0.1:9".into(),
            }
        );
    }

    #[test]
    fn parses_detect_replay() {
        let args = Args::parse([
            "detect",
            "--steps",
            "240",
            "--seed",
            "11",
            "--min-recall",
            "0.9",
            "--max-false-triggers",
            "1",
        ])
        .unwrap();
        assert_eq!(
            args.command,
            Command::Detect {
                steps: 240,
                warmup: 60,
                injections: 5,
                duration: 4,
                seed: 11,
                threshold: 4.0,
                seasonal_period: 0,
                min_recall: 0.9,
                max_false_triggers: 1,
            }
        );
        // defaults: no gate (recall 0, unlimited false triggers)
        match Args::parse(["detect"]).unwrap().command {
            Command::Detect {
                min_recall,
                max_false_triggers,
                ..
            } => {
                assert_eq!(min_recall, 0.0);
                assert_eq!(max_false_triggers, usize::MAX);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(Args::parse(["detect", "--threshold", "x"]).is_err());
    }

    #[test]
    fn parses_loadgen() {
        let args = Args::parse([
            "loadgen",
            "--addr",
            "127.0.0.1:4817",
            "--rate",
            "500",
            "--frames",
            "1000",
            "--tenants",
            "2",
        ])
        .unwrap();
        match args.command {
            Command::Loadgen(config) => {
                assert_eq!(config.addr, "127.0.0.1:4817");
                assert_eq!(config.rate, 500.0);
                assert_eq!(config.total_frames, 1000);
                assert_eq!(config.synth.tenants, 2);
                // untouched flags keep the crate defaults
                assert_eq!(config.connections, 2);
                assert_eq!(config.synth.seed, 42);
            }
            other => panic!("wrong command {other:?}"),
        }
        // --addr is required; bad numbers surface as parse errors
        assert!(Args::parse(["loadgen"]).is_err());
        assert!(Args::parse(["loadgen", "--addr", "h:1", "--rate", "x"]).is_err());
    }

    #[test]
    fn parses_evaluate_k_list() {
        let args =
            Args::parse(["evaluate", "--dir", "d", "--protocol", "rc", "--k", "1,2,3"]).unwrap();
        match args.command {
            Command::Evaluate { ks, .. } => assert_eq!(ks, vec![1, 2, 3]),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn defaults_to_help() {
        let none: [&str; 0] = [];
        assert_eq!(Args::parse(none).unwrap().command, Command::Help);
        assert_eq!(Args::parse(["help"]).unwrap().command, Command::Help);
        assert_eq!(Args::parse(["methods"]).unwrap().command, Command::Methods);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Args::parse(["frobnicate"]).is_err());
        assert!(Args::parse(["generate", "--dataset", "rapmd"]).is_err()); // no --out
        assert!(Args::parse(["localize", "--input"]).is_err()); // missing value
        assert!(Args::parse(["localize", "oops"]).is_err()); // not a flag
        assert!(Args::parse(["localize", "--input", "x", "--k", "zzz"]).is_err());
        assert!(Args::parse(["evaluate", "--dir", "d", "--dir", "e"]).is_err());
    }
}
