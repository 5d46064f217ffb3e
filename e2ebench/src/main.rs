//! End-to-end `lim-serve` benchmark.
//!
//! ```text
//! lim-e2ebench --serve-bin PATH --workload NAME --seed N --seconds S --trace 0|1
//! lim-e2ebench --serve-bin PATH --smoke
//! ```
//!
//! Boots the `lim-serve` daemon as users run it, drives one seeded
//! workload through the NDJSON wire protocol as a closed loop for `S`
//! seconds, checks every answer, and prints the end-to-end metrics
//! (`--trace 0`). With `--trace 1` it runs the same loop, then replays
//! the served requests in-process, timing each call into the layers'
//! public functions from outside, and prints the per-layer metrics
//! instead. The last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.

mod check;
mod daemon;
mod replay;
mod workload;

use check::{GoldenServed, RtlServed};
use daemon::Daemon;
use lim_obs::json::{self, Value};
use lim_serve::{ServeConfig, Service};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use workload::{Expect, Generator, Request, WORKLOADS};

/// Daemon boots per run; `setup_s` is their median.
const SETUP_BOOTS: usize = 11;
/// Where span dumps go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";
/// Requests whose lowering is re-checked in the testbench, and
/// `golden_validate` batches re-asked entry by entry.
const SAMPLED: usize = 3;
/// Seed offset of the post-check sample draw.
const SAMPLE_STREAM: u64 = 3;
/// Testbench cycles per sampled lowering.
const TB_CYCLES: usize = 24;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: PathBuf::new(),
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--serve-bin" => args.serve_bin = value()?.into(),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.serve_bin.as_os_str().is_empty() {
        return Err("--serve-bin is required".into());
    }
    if !args.smoke && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lim-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return smoke(&args);
    }
    match run(&args) {
        Ok(outcome) => {
            for line in &outcome.notes {
                println!("{line}");
            }
            println!("{}", outcome.result_line());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("lim-e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One answered (or failed) closed-loop request.
#[derive(Debug, Clone)]
struct Record {
    index: usize,
    /// Completion time, seconds after the loop started.
    done_s: f64,
    rtt_ms: f64,
    bytes: usize,
    ok: bool,
    cached: bool,
}

/// What the closed loop learned, shared by its connections.
#[derive(Default)]
struct Book {
    records: Vec<Record>,
    failures: Vec<String>,
    /// `rtl.infer` answers (and `flow.run` QoR) by request index
    /// (`rtl_infer_unique`) or key (`mixed_repeat`).
    rtl: BTreeMap<usize, RtlServed>,
    /// `golden_validate` per-entry figures by request index.
    golden: BTreeMap<usize, Vec<GoldenServed>>,
    /// Raw answer parts kept for the post-loop checks, by index.
    kept: BTreeMap<usize, Vec<String>>,
    /// `mixed_repeat`: each key's first answer, and whether the key was
    /// ever answered cold.
    first: HashMap<usize, (String, bool)>,
    /// Whether keys repeat (`mixed_repeat`).
    mixed: bool,
}

impl Book {
    /// Checks one answer and books it. Returns an error message for a
    /// failed or wrong answer.
    fn answer(
        &mut self,
        rq: &Request,
        index: usize,
        line: &str,
        keep: bool,
    ) -> Result<bool, String> {
        let (cached, result) = check::split_response(line)?;
        match &rq.expect {
            Expect::Rtl { mems, brick_words } if !self.mixed => {
                if cached {
                    return Err(format!(
                        "request {index} carries a nonce but was a memo hit"
                    ));
                }
                let (served, verilog) = check::check_rtl(result, mems, brick_words)?;
                self.rtl.insert(index, served);
                if keep {
                    self.kept.insert(index, vec![verilog.to_owned()]);
                }
            }
            Expect::Golden(entries) if rq.method == "batch" => {
                let checked = check::check_golden_batch(result, entries)?;
                if keep {
                    self.kept.insert(
                        index,
                        checked.iter().map(|(raw, _)| (*raw).to_owned()).collect(),
                    );
                }
                self.golden
                    .insert(index, checked.into_iter().map(|(_, g)| g).collect());
            }
            expect => {
                // mixed_repeat: every answer must equal its key's first
                // answer byte for byte; `cold_checks` later requires
                // that one of them was computed, so every cached answer
                // equals a cold one. (With two connections a memo hit
                // can be booked before the cold answer that filled it.)
                match self.first.get_mut(&rq.key) {
                    Some((first, _)) if first.as_str() != result => {
                        return Err(format!(
                            "{} answer for key {} (cached: {cached}) differs from its first answer",
                            rq.method, rq.key
                        ));
                    }
                    Some((_, cold)) => *cold |= !cached,
                    None => {
                        match expect {
                            Expect::Rtl { mems, brick_words } => {
                                let (served, _) = check::check_rtl(result, mems, brick_words)?;
                                self.rtl.insert(rq.key, served);
                            }
                            Expect::Golden(cfg) => {
                                check::check_golden(result, cfg[0])?;
                            }
                            Expect::Plain if rq.method == "flow.run" => {
                                self.rtl.insert(rq.key, flow_qor(result)?);
                            }
                            Expect::Plain => {}
                        }
                        self.first.insert(rq.key, (result.to_owned(), !cached));
                    }
                }
            }
        }
        Ok(cached)
    }
}

/// QoR of a `flow.run` answer.
fn flow_qor(result: &str) -> Result<RtlServed, String> {
    let v = Value::parse(result).map_err(|e| format!("flow.run answer is not JSON: {e}"))?;
    let get = |k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("flow.run answer lacks {k}"))
    };
    Ok(RtlServed {
        plans: Vec::new(),
        fmax_mhz: get("fmax_mhz")?,
        wirelength_um: get("wirelength_um")?,
    })
}

/// A finished run.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json::number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let gen = Generator::new(&args.workload, args.seed).expect("workload name was validated");

    // Set-up: boot the daemon several times; keep the last one.
    let mut boots = Vec::with_capacity(SETUP_BOOTS);
    let mut daemon = None;
    for _ in 0..SETUP_BOOTS {
        let (d, t) = Daemon::boot(&args.serve_bin)?;
        boots.push(t.as_secs_f64());
        if let Some(old) = daemon.replace(d) {
            Daemon::shutdown(old)?;
        }
    }
    let daemon = daemon.expect("at least one boot");

    let ticks_before = cpu_ticks();
    let (book, wall_s, evictions) = closed_loop(args, &gen, &daemon)?;
    let steal = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    let rss_mb = daemon.peak_rss_mb();
    daemon.shutdown()?;
    let mut book = book;
    post_checks(args, &gen, &mut book)?;

    let attempted = book.records.len();
    // One entry per failed or wrong answer, from the loop and the
    // post-loop checks alike.
    let failed = book.failures.len();
    let mut notes: Vec<String> = book
        .failures
        .iter()
        .map(|f| format!("FAILED {f}"))
        .collect();
    let samples = book.records.len();
    let mut meta = meta_json(args, samples, failed, attempted);
    meta.push(("cpu_steal_share", json::number(steal)));

    let metrics = if args.trace {
        let (metrics, spans, coverage) = traced(args, &gen, &book, evictions)?;
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/spans-{}-seed{}.jsonl", args.workload, args.seed);
        std::fs::write(&path, replay::spans_jsonl(&spans)).map_err(|e| format!("{path}: {e}"))?;
        notes.push(format!("spans {} written to {path}", spans.len()));
        meta.push(("trace_coverage", json::number(coverage)));
        metrics
    } else {
        // Figures over whole blocks carry the same shape mix for every
        // seed; a run too short for one block uses what it has.
        let whole = whole_blocks(&book.records, gen.block_len());
        let measured = if whole.is_empty() {
            &book.records[..]
        } else {
            whole
        };
        let span_s = if whole.is_empty() {
            wall_s
        } else {
            whole.iter().map(|r| r.done_s).fold(0.0, f64::max)
        };
        meta.push(("measured", measured.len().to_string()));
        let failed_ms = wall_s * 1e3;
        let lat: Vec<f64> = measured
            .iter()
            .map(|r| if r.ok { r.rtt_ms } else { failed_ms })
            .collect();
        let ok = measured.iter().filter(|r| r.ok).count();
        let (fmax, wl) = qor(args, &gen, &book)?;
        vec![
            ("setup_s", median(&boots), "s"),
            ("latency_p50_ms", percentile(&lat, 50.0), "ms"),
            ("latency_p95_ms", percentile(&lat, 95.0), "ms"),
            ("throughput_rps", ok as f64 / span_s, "1/s"),
            (
                "response_kb_mean",
                mean(&measured.iter().map(|r| r.bytes as f64).collect::<Vec<_>>()) / 1e3,
                "KB",
            ),
            (
                "peak_rss_mb",
                rss_mb.ok_or("cannot read the daemon's VmHWM")?,
                "MB",
            ),
            ("fmax_geomean_mhz", fmax, "MHz"),
            ("wirelength_geomean_um", wl, "um"),
        ]
    };
    meta.push((
        "error_rate",
        json::number(if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        }),
    ));
    let meta_line: Vec<String> = meta.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    notes.push(format!("meta {{{}}}", meta_line.join(",")));
    for (name, value, unit) in &metrics {
        notes.push(format!("metric {name} = {value} {unit}"));
    }
    Ok(Outcome {
        attempted: attempted.max(1),
        failed,
        metrics,
        notes,
    })
}

/// The records of the stream's leading whole blocks: every index below
/// `k · block` answered, for the largest such `k`. `records` is sorted
/// by index.
fn whole_blocks(records: &[Record], block: usize) -> &[Record] {
    let contiguous = records
        .iter()
        .enumerate()
        .take_while(|(pos, r)| r.index == *pos)
        .count();
    &records[..contiguous / block * block]
}

/// (steal, total) CPU ticks of the host so far: time the hypervisor gave
/// this VM's CPUs to others shows up as steal.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Host and run metadata, as (key, rendered JSON value) pairs.
fn meta_json(
    args: &Args,
    samples: usize,
    failed: usize,
    attempted: usize,
) -> Vec<(&'static str, String)> {
    let cmd = |prog: &str, argv: &[&str]| {
        Command::new(prog)
            .args(argv)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let s = |x: &str| json::string(x);
    vec![
        ("workload", s(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json::number(args.seconds)),
        ("trace", (args.trace as u8).to_string()),
        (
            "connections",
            workload::connections(&args.workload).to_string(),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu", s(&cpu)),
        ("rustc", s(&cmd("rustc", &["-V"]))),
        (
            "lim_par_threads",
            s(&std::env::var("LIM_PAR_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        (
            "git_rev",
            s(&cmd("git", &["--git-dir", ".git", "rev-parse", "HEAD"])),
        ),
        (
            "profile",
            s(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("setup_boots", SETUP_BOOTS.to_string()),
        ("samples", samples.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
    ]
}

/// Drives the closed loop for `args.seconds`. Returns the book, the
/// loop's wall time in seconds, and the daemon's memo evictions.
fn closed_loop(args: &Args, gen: &Generator, daemon: &Daemon) -> Result<(Book, f64, f64), String> {
    let book = Mutex::new(Book {
        mixed: args.workload == "mixed_repeat",
        ..Book::default()
    });
    // The first block's seeded sample keeps raw answers for post-checks.
    let keep = sample_positions(args.seed, gen.block_len());
    // The current block's shape order; requests are built outside the
    // lock.
    let stream = Mutex::new((0usize, gen.order(0)));
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let conns: Vec<_> = (0..workload::connections(&args.workload))
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()?;
    let ends: Vec<Instant> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let (book, stream, next, keep) = (&book, &stream, &next, &keep);
                scope.spawn(move || {
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (b, pos) = (i / gen.block_len(), i % gen.block_len());
                        let slot = {
                            let mut s = stream.lock().expect("stream lock");
                            if s.0 != b {
                                *s = (b, gen.order(b));
                            }
                            s.1[pos]
                        };
                        let rq = gen.make(b, pos, slot);
                        let line = rq.line(i as u64);
                        let t0 = Instant::now();
                        let answer = conn.call(&line);
                        let rtt_ms = t0.elapsed().as_secs_f64() * 1e3;
                        let mut book = book.lock().expect("book lock");
                        let bytes = answer.as_ref().map_or(0, |l| l.len() + 1);
                        let outcome = answer.and_then(|l| {
                            book.answer(
                                &rq,
                                i,
                                &l,
                                i < gen.block_len() && keep.contains(&(i % gen.block_len())),
                            )
                        });
                        let (ok, cached) = match outcome {
                            Ok(cached) => (true, cached),
                            Err(e) => {
                                book.failures
                                    .push(format!("request {i} ({}): {e}", rq.method));
                                (false, false)
                            }
                        };
                        book.records.push(Record {
                            index: i,
                            done_s: start.elapsed().as_secs_f64(),
                            rtt_ms,
                            bytes,
                            ok,
                            cached,
                        });
                    }
                    Instant::now()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let end = ends.into_iter().max().unwrap_or(deadline);
    let wall_s = (end - start).as_secs_f64();
    let mut book = book.into_inner().expect("book lock");
    book.records.sort_by_key(|r| r.index);
    let mut never_cold: Vec<usize> = book
        .first
        .iter()
        .filter(|(_, (_, cold))| !cold)
        .map(|(key, _)| *key)
        .collect();
    never_cold.sort_unstable();
    for key in never_cold {
        book.failures
            .push(format!("key {key} was only ever answered from the memo"));
    }

    let stats = daemon
        .connect()
        .and_then(|mut c| c.call(r#"{"id":0,"method":"server.stats"}"#))?;
    let (_, result) = check::split_response(&stats)?;
    let evictions = Value::parse(result)
        .ok()
        .and_then(|v| v.get("cache")?.get("evictions")?.as_f64())
        .ok_or("server.stats lacks cache.evictions")?;
    Ok((book, wall_s, evictions))
}

/// Seeded positions of the first block whose answers the post-loop
/// checks re-examine.
fn sample_positions(seed: u64, block: usize) -> Vec<usize> {
    let mut rng = lim_testkit::rng::TestRng::seed_from_u64(seed.wrapping_add(SAMPLE_STREAM));
    let mut all: Vec<usize> = (0..block).collect();
    rng.shuffle(&mut all);
    all.truncate(SAMPLED);
    all
}

/// Checks that need more than one answer: sampled `rtl.infer` lowerings
/// step cycle-exact against the behavioral model, and sampled golden
/// batch entries equal the single-request answers byte for byte (asked
/// of a fresh daemon).
fn post_checks(args: &Args, gen: &Generator, book: &mut Book) -> Result<(), String> {
    let kept: Vec<(usize, Vec<String>)> = std::mem::take(&mut book.kept).into_iter().collect();
    if kept.is_empty() {
        return Ok(());
    }
    let mut fresh: Option<(Daemon, daemon::Conn)> = None;
    for (index, raw) in kept {
        let rq = gen.request(index);
        match &rq.expect {
            Expect::Rtl { .. } => {
                let served = &book.rtl[&index];
                let params = Value::parse(&rq.params).map_err(|e| e.to_string())?;
                let source = params
                    .get("source")
                    .and_then(Value::as_str)
                    .unwrap_or_default();
                if let Err(e) = check::check_lowering(
                    source,
                    &served.plans,
                    &raw[0],
                    args.seed ^ index as u64,
                    TB_CYCLES,
                ) {
                    book.failures.push(format!("request {index} lowering: {e}"));
                }
            }
            Expect::Golden(entries) => {
                if fresh.is_none() {
                    let (d, _) = Daemon::boot(&args.serve_bin)?;
                    let c = d.connect()?;
                    fresh = Some((d, c));
                }
                let conn = &mut fresh.as_mut().expect("just booted").1;
                for (k, (&(w, b, s), entry)) in entries.iter().zip(&raw).enumerate() {
                    let line = format!(
                        "{{\"id\":{k},\"method\":\"golden.compare\",\"params\":{}}}",
                        workload::golden_params(w, b, s)
                    );
                    let answer = conn.call(&line)?;
                    let single = check::split_response(&answer).map(|(_, r)| r.to_owned());
                    if single.as_deref() != Ok(entry.as_str()) {
                        book.failures.push(format!(
                            "request {index} entry {k} ({w}x{b} x{s}): batch answer differs from the single-request answer"
                        ));
                    }
                }
            }
            Expect::Plain => {}
        }
    }
    if let Some((d, conn)) = fresh {
        drop(conn);
        d.shutdown()?;
    }
    Ok(())
}

/// The QoR geomeans: over whole blocks of `rtl_infer_unique`, over the
/// distinct `flow.run`/`rtl.infer` keys of `mixed_repeat`, and over the
/// entries of whole `golden_validate` cycles (golden read frequency and
/// simulated bitline length, since that workload runs no physical flow).
fn qor(args: &Args, gen: &Generator, book: &Book) -> Result<(f64, f64), String> {
    let whole = |answered: usize| {
        let blocks = answered / gen.block_len();
        if blocks == 0 {
            answered
        } else {
            blocks * gen.block_len()
        }
    };
    match args.workload.as_str() {
        "golden_validate" => {
            let n = whole(book.golden.len());
            let tech = lim_tech::Technology::cmos65();
            let compiler = lim_brick::BrickCompiler::new(&tech);
            let (mut f, mut w) = (Vec::new(), Vec::new());
            for (&i, served) in book.golden.iter().take(n) {
                let Expect::Golden(entries) = gen.request(i).expect else {
                    unreachable!()
                };
                for (&(words, bits, stack), g) in entries.iter().zip(served) {
                    f.push(1e6 / g.golden_read_delay_ps);
                    let spec =
                        lim_brick::BrickSpec::new(lim_brick::BitcellKind::Sram8T, words, bits)
                            .map_err(|e| e.to_string())?;
                    let brick = compiler.compile(&spec).map_err(|e| e.to_string())?;
                    w.push(brick.brick_height().value() * stack as f64);
                }
            }
            Ok((geomean(&f), geomean(&w)))
        }
        "rtl_infer_unique" => {
            let n = whole(book.rtl.len());
            let served: Vec<&RtlServed> = book.rtl.values().take(n).collect();
            Ok((
                geomean(&served.iter().map(|s| s.fmax_mhz).collect::<Vec<_>>()),
                geomean(&served.iter().map(|s| s.wirelength_um).collect::<Vec<_>>()),
            ))
        }
        _ => Ok((
            geomean(&book.rtl.values().map(|s| s.fmax_mhz).collect::<Vec<_>>()),
            geomean(
                &book
                    .rtl
                    .values()
                    .map(|s| s.wirelength_um)
                    .collect::<Vec<_>>(),
            ),
        )),
    }
}

/// The traced pass: replays the first block of served requests
/// in-process (at most `args.seconds` of replay) and derives the
/// per-layer metrics. Returns the metrics, the spans and the share of
/// the traced request time covered by layer spans.
#[allow(clippy::type_complexity)]
fn traced(
    args: &Args,
    gen: &Generator,
    book: &Book,
    evictions: f64,
) -> Result<
    (
        Vec<(&'static str, f64, &'static str)>,
        Vec<replay::Span>,
        f64,
    ),
    String,
> {
    let tech = lim_tech::Technology::cmos65();
    let service = Service::new(&ServeConfig::default());
    let epoch = Instant::now();
    let mut on = replay::Tracer::new(epoch, true);
    let mut off = replay::Tracer::new(epoch, false);
    let (mut lib_on, mut lib_off) = (
        lim_brick::BrickLibrary::new(),
        lim_brick::BrickLibrary::new(),
    );
    let rtt: HashMap<usize, f64> = book
        .records
        .iter()
        .filter(|r| r.ok)
        .map(|r| (r.index, r.rtt_ms))
        .collect();

    let (mut net, mut overhead, mut hit_us, mut traced_ms, mut untraced_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut cold, mut retained) = (0usize, 0usize);
    let mut counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    // (request id, in-process `Service::call` ms, golden entries).
    let mut replayed_ids: Vec<(u64, f64, f64)> = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let t_start = Instant::now();
    let first_block = gen.block(0);
    for (i, rq) in first_block.iter().enumerate() {
        if !rtt.contains_key(&i) || (t_start.elapsed() > budget && !replayed_ids.is_empty()) {
            break;
        }
        let params = Value::parse(&rq.params).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let out = service.call(rq.method, &params);
        let w_ms = t0.elapsed().as_secs_f64() * 1e3;
        out.result
            .as_ref()
            .map_err(|e| format!("in-process {}: {}", rq.method, e.message))?;
        net.push(rtt[&i] - w_ms);
        if out.cached {
            hit_us.push(w_ms * 1e3);
            continue;
        }
        cold += 1;
        if service.memo_probe(rq.method, &params) {
            retained += 1;
            // Ask again: a memo hit, which must equal the cold answer.
            let t0 = Instant::now();
            let again = service.call(rq.method, &params);
            hit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if !again.cached || again.result != out.result {
                return Err(format!(
                    "in-process repeat of request {i} was not the cold answer from the memo"
                ));
            }
        }
        // Alternate which replay goes first so neither always meets the
        // warmer caches.
        let id = i as u64;
        let replay_one = |t: &mut replay::Tracer, lib: &mut lim_brick::BrickLibrary| {
            t.request(id, |t| replay_request(t, &tech, lib, rq, &params, i, book))
        };
        let ((r1, ms1), (r2, ms2)) = if i % 2 == 0 {
            let a = replay_one(&mut off, &mut lib_off);
            (a, replay_one(&mut on, &mut lib_on))
        } else {
            let b = replay_one(&mut on, &mut lib_on);
            (replay_one(&mut off, &mut lib_off), b)
        };
        r1?;
        r2?;
        untraced_ms.push(ms1);
        traced_ms.push(ms2);
        for (name, n) in &on.counts {
            counts.entry(name).or_default().push(*n);
        }
        let entries = match &rq.expect {
            Expect::Golden(e) => e.len() as f64,
            _ => 0.0,
        };
        replayed_ids.push((id, w_ms, entries));
    }

    let selfs = replay::self_times(&on.spans);
    let mut layer_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut unattributed = Vec::new();
    let mut coverage = Vec::new();
    for (id, w_ms, _) in &replayed_ids {
        let Some(layers) = selfs.get(id) else {
            continue;
        };
        let root = layers.get("request").copied().unwrap_or(0.0);
        let attributed: f64 = layers
            .iter()
            .filter(|(n, _)| **n != "request")
            .map(|(_, v)| v)
            .sum();
        unattributed.push(root);
        coverage.push(attributed / (attributed + root));
        overhead.push(w_ms - attributed);
        for (name, ms) in layers {
            if *name != "request" {
                layer_ms.entry(name).or_default().push(*ms);
            }
        }
    }
    let layer = |name: &str| median(layer_ms.get(name).map_or(&[][..], Vec::as_slice));
    let count = |name: &str| mean(counts.get(name).map_or(&[][..], Vec::as_slice));
    let golden_per_entry: Vec<f64> = replayed_ids
        .iter()
        .filter_map(|(id, _, entries)| Some(selfs.get(id)?.get("golden.batch")? / entries))
        .collect();
    let ok: Vec<&Record> = book.records.iter().filter(|r| r.ok).collect();
    let hits = ok.iter().filter(|r| r.cached).count();
    let metrics = vec![
        ("serve.net.ms", median(&net), "ms"),
        ("serve.call_overhead.ms", median(&overhead), "ms"),
        (
            "serve.response.bytes",
            mean(&ok.iter().map(|r| r.bytes as f64).collect::<Vec<_>>()),
            "bytes",
        ),
        (
            "serve.memo.hit_ratio",
            if ok.is_empty() {
                0.0
            } else {
                hits as f64 / ok.len() as f64
            },
            "ratio",
        ),
        ("serve.memo.hit.us", median(&hit_us), "us"),
        (
            "serve.memo.retained_ratio",
            if cold == 0 {
                0.0
            } else {
                retained as f64 / cold as f64
            },
            "ratio",
        ),
        ("serve.memo.evictions", evictions, "count"),
        ("rtl.parse.ms", layer("rtl.parse"), "ms"),
        ("rtl.parse.lines", count("rtl.parse.lines"), "count"),
        ("rtl.infer.ms", layer("rtl.infer"), "ms"),
        ("rtl.infer.memories", count("rtl.infer.memories"), "count"),
        ("core.dse.ms", layer("core.dse"), "ms"),
        ("core.dse.points", count("core.dse.points"), "count"),
        ("rtl.lower.ms", layer("rtl.lower"), "ms"),
        ("rtl.lower.cells", count("rtl.lower.cells"), "count"),
        ("rtl.emit.ms", layer("rtl.emit"), "ms"),
        ("rtl.emit.bytes", count("rtl.emit.bytes"), "bytes"),
        ("rtl.map.ms", layer("rtl.map"), "ms"),
        ("rtl.map.cells_out", count("rtl.map.cells_out"), "count"),
        ("physical.floorplan.ms", layer("physical.floorplan"), "ms"),
        ("physical.place.ms", layer("physical.place"), "ms"),
        (
            "physical.place.hpwl_um",
            count("physical.place.hpwl_um"),
            "um",
        ),
        ("physical.route.ms", layer("physical.route"), "ms"),
        ("physical.route.nets", count("physical.route.nets"), "count"),
        ("physical.sta.ms", layer("physical.sta"), "ms"),
        (
            "physical.sta.endpoints",
            count("physical.sta.endpoints"),
            "count",
        ),
        ("physical.clock.ms", layer("physical.clock"), "ms"),
        ("physical.power.ms", layer("physical.power"), "ms"),
        ("brick.compile.ms", layer("brick.compile"), "ms"),
        ("brick.estimate.ms", layer("brick.estimate"), "ms"),
        ("golden.batch.ms", layer("golden.batch"), "ms"),
        ("golden.ms_per_entry", median(&golden_per_entry), "ms"),
        ("golden.entries", count("golden.entries"), "count"),
        ("trace.unattributed.ms", median(&unattributed), "ms"),
        (
            "trace.overhead_ratio",
            if untraced_ms.is_empty() {
                0.0
            } else {
                median(&traced_ms) / median(&untraced_ms)
            },
            "ratio",
        ),
    ];
    Ok((metrics, on.spans, median(&coverage)))
}

/// Replays one served request's layer calls.
fn replay_request(
    t: &mut replay::Tracer,
    tech: &lim_tech::Technology,
    lib: &mut lim_brick::BrickLibrary,
    rq: &Request,
    params: &Value,
    index: usize,
    book: &Book,
) -> Result<(), String> {
    match &rq.expect {
        Expect::Rtl { brick_words, .. } if !book.mixed => {
            let source = params
                .get("source")
                .and_then(Value::as_str)
                .unwrap_or_default();
            replay::rtl_infer(t, tech, lib, source, brick_words, &book.rtl[&index])
        }
        Expect::Golden(entries) if rq.method == "batch" => {
            let served: Vec<f64> = book.golden[&index]
                .iter()
                .map(|g| g.golden_read_delay_ps)
                .collect();
            replay::golden_batch(t, tech, entries, &served)
        }
        _ => replay::mixed(t, tech, lib, rq.method, params, book.rtl.get(&rq.key)),
    }
}

/// Runs every workload briefly with and without tracing and checks
/// the output against the schema and the metric list in
/// `BENCHMARK.json`.
fn smoke(args: &Args) -> ExitCode {
    let spec = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| Value::parse(&t).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("smoke: cannot read BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_owned()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("smoke: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut bad = 0;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .arg("--serve-bin")
                .arg(&args.serve_bin)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    "1",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .output();
            let verdict = out.map_err(|e| e.to_string()).and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout).into_owned();
                let last = text.lines().last().unwrap_or_default().to_owned();
                let want = names(if trace == "0" {
                    "end_to_end"
                } else {
                    "per_layer"
                });
                smoke_verdict(&last, &want)
                    .map_err(|e| format!("{e}\n{}{}", text, String::from_utf8_lossy(&o.stderr)))
            });
            match verdict {
                Ok(()) => println!("smoke {w} --trace {trace}: ok"),
                Err(e) => {
                    bad += 1;
                    println!("smoke {w} --trace {trace}: FAILED: {e}");
                }
            }
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Checks one result line: exactly the four keys, a correct run with
/// no failures, and exactly the expected metrics with their units.
fn smoke_verdict(last: &str, want: &[(String, String)]) -> Result<(), String> {
    let v = Value::parse(last).map_err(|e| format!("last line is not JSON: {e}"))?;
    let Value::Object(members) = &v else {
        return Err("last line is not an object".into());
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys {keys:?}"));
    }
    if v.get("correct") != Some(&Value::Bool(true))
        || v.get("failed").and_then(Value::as_f64) != Some(0.0)
    {
        return Err("run was not correct".into());
    }
    if !v
        .get("attempted")
        .and_then(Value::as_f64)
        .is_some_and(|a| a >= 1.0)
    {
        return Err("attempted < 1".into());
    }
    let Some(Value::Object(metrics)) = v.get("metrics") else {
        return Err("metrics is not an object".into());
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_owned();
            (name.clone(), unit)
        })
        .collect();
    if got != want {
        return Err(format!("metrics {got:?} != BENCHMARK.json {want:?}"));
    }
    if let Some((name, _)) = metrics.iter().find(|(_, m)| {
        !m.get("value")
            .and_then(Value::as_f64)
            .is_some_and(f64::is_finite)
    }) {
        return Err(format!("metric {name} has no finite value"));
    }
    Ok(())
}
