//! The traced replay: the same requests re-executed in-process by
//! calling each layer's public function from outside, with one span
//! around every call. Spans stay in memory until the run ends.

use crate::check::RtlServed;
use lim::dse;
use lim_brick::{golden, BitcellKind, BrickCompiler, BrickLibrary, BrickSpec};
use lim_physical::floorplan::Floorplan;
use lim_physical::flow::FlowOptions;
use lim_physical::power::MacroActivity;
use lim_physical::{clock, place, power, route, sta};
use lim_rtl::SwitchingActivity;
use lim_tech::Technology;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (the per-layer metric prefix), or `request` for the
    /// root.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

/// In-memory span recorder. With recording off, [`Tracer::span`] only
/// runs the closure, so the same replay code gives the untraced time.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    record: bool,
    request: u64,
    stack: Vec<usize>,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    /// Work counts of the current request, by metric name.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer whose spans are recorded when `record` is set.
    pub fn new(epoch: Instant, record: bool) -> Self {
        Tracer {
            epoch,
            record,
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a span named `name` under the current span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.record {
            return f();
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        let out = f();
        self.stack.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Runs one whole request under a root span named `request` and
    /// returns its wall time in ms.
    pub fn request<R>(&mut self, id: u64, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        self.request = id;
        self.counts.clear();
        let t0 = Instant::now();
        let out = if self.record {
            let idx = self.spans.len();
            self.spans.push(Span {
                name: "request",
                start_ns: self.now(),
                end_ns: 0,
                parent: None,
                request: id,
            });
            self.stack.push(idx);
            let out = f(self);
            self.stack.pop();
            self.spans[idx].end_ns = self.now();
            out
        } else {
            f(self)
        };
        (out, t0.elapsed().as_secs_f64() * 1e3)
    }

    fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }
}

/// Self time per layer for each request, in ms, plus the root's own
/// (unattributed) time under the name `request`.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e6;
        *out.entry(s.request)
            .or_default()
            .entry(s.name)
            .or_insert(0.0) += own;
    }
    out
}

/// Writes every span as one JSON line.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"span\":{i},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
            s.request, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Replays an `rtl.infer` request layer by layer, taking each memory's
/// brick depth and entry names from the served answer, and checks that
/// the physical flow reproduces the served fmax and wirelength bit for
/// bit.
pub fn rtl_infer(
    t: &mut Tracer,
    tech: &Technology,
    library: &mut BrickLibrary,
    source: &str,
    offered: &[usize],
    served: &RtlServed,
) -> Result<(), String> {
    let module = t
        .span("rtl.parse", || lim_rtl::parse(black_box(source)))
        .map_err(err)?;
    t.count("rtl.parse.lines", module.source_lines as f64);
    let inference = t.span("rtl.infer", || lim_rtl::infer::infer(&module));
    t.count("rtl.infer.memories", inference.memories.len() as f64);
    if inference.memories.len() != served.plans.len() {
        return Err("replay inferred a different memory count".into());
    }

    let mut lowering = BTreeMap::new();
    for (mem, plan) in inference.memories.iter().zip(&served.plans) {
        let lanes: Vec<usize> = mem.lanes().iter().map(|l| l.width()).collect();
        let widest = *lanes.iter().max().expect("a memory has a lane");
        // The candidate filter and the per-width sweep of
        // `lim::rtl_infer`'s decomposition choice.
        let candidates: Vec<usize> = offered
            .iter()
            .copied()
            .filter(|&bw| {
                bw > 0
                    && mem.words.is_multiple_of(bw)
                    && (1..=64).contains(&(mem.words / bw))
                    && BrickSpec::new(BitcellKind::Sram8T, bw, widest).is_ok()
            })
            .collect();
        let mut widths = lanes.clone();
        widths.sort_unstable();
        widths.dedup();
        let sweep: Vec<(usize, usize)> = widths.iter().map(|&w| (mem.words, w)).collect();
        let points = t
            .span("core.dse", || dse::explore(tech, &sweep, &candidates))
            .map_err(err)?;
        t.count("core.dse.points", points.len() as f64);
        for &w in &lanes {
            let spec = BrickSpec::new(BitcellKind::Sram8T, plan.brick_words, w).map_err(err)?;
            t.span("brick.compile", || {
                library.get_or_insert(tech, &spec, plan.stack).map(|_| ())
            })
            .map_err(err)?;
        }
        lowering.insert(
            plan.name.clone(),
            lim_rtl::MemLowering {
                brick_words: plan.brick_words,
                entry_names: plan.entries.clone(),
            },
        );
    }
    let netlist = t
        .span("rtl.lower", || {
            lim_rtl::smartmem::lower(&module, &inference, &lowering)
        })
        .map_err(err)?;
    t.count("rtl.lower.cells", netlist.cell_count() as f64);
    let verilog = t.span("rtl.emit", || lim_rtl::verilog::emit(&netlist));
    t.count("rtl.emit.bytes", verilog.len() as f64);
    black_box(&verilog);

    let qor = physical(t, tech, library, &netlist, rtl_activity())?;
    same_qor(qor, served)
}

/// The replayed (fmax, wirelength) must equal the served ones bit for
/// bit, which shows the replay did the served work.
fn same_qor((fmax, wirelength): (f64, f64), served: &RtlServed) -> Result<(), String> {
    if fmax.to_bits() != served.fmax_mhz.to_bits()
        || wirelength.to_bits() != served.wirelength_um.to_bits()
    {
        return Err(format!(
            "replay fmax {fmax} / wirelength {wirelength} != served {} / {}",
            served.fmax_mhz, served.wirelength_um
        ));
    }
    Ok(())
}

/// `rtl.infer`'s macro duty cycle (every read edge, no modeled writes).
fn rtl_activity() -> MacroActivity {
    MacroActivity {
        read_rate: 1.0,
        write_rate: 0.0,
        match_rate: 0.0,
    }
}

/// Map → floorplan → place → route → STA → clock tree → power, as
/// `LimFlow` runs them. Returns (fmax MHz, wirelength µm).
fn physical(
    t: &mut Tracer,
    tech: &Technology,
    library: &BrickLibrary,
    netlist: &lim_rtl::Netlist,
    macro_activity: MacroActivity,
) -> Result<(f64, f64), String> {
    let options = FlowOptions::default();
    let (mapped, _) = t
        .span("rtl.map", || lim_rtl::mapping::optimize(netlist))
        .map_err(err)?;
    t.count("rtl.map.cells_out", mapped.cell_count() as f64);
    let fp = t
        .span("physical.floorplan", || {
            Floorplan::build(tech, &mapped, library, &options.floorplan)
        })
        .map_err(err)?;
    let placement = t
        .span("physical.place", || {
            place::place(tech, &mapped, &fp, options.seed, options.effort)
        })
        .map_err(err)?;
    t.count("physical.place.hpwl_um", placement.hpwl);
    let routes = t
        .span("physical.route", || {
            route::estimate(tech, &mapped, &placement, &fp, library)
        })
        .map_err(err)?;
    t.count("physical.route.nets", routes.len() as f64);
    let timing = t
        .span("physical.sta", || {
            sta::analyze(tech, &mapped, &routes, library, options.input_slew)
        })
        .map_err(err)?;
    t.count("physical.sta.endpoints", timing.endpoints as f64);
    let tree = t
        .span("physical.clock", || {
            clock::build(tech, &mapped, &placement, &fp, library)
        })
        .map_err(err)?;
    let clock_cap = tree.as_ref().map(|ct| {
        let fallback = mapped
            .clock()
            .map(|c| routes[c.index()])
            .unwrap_or(routes[0]);
        clock::clock_cap_for_power(ct, &fallback)
    });
    let activity = SwitchingActivity::uniform(mapped.net_count(), options.default_toggle_rate, 100);
    let report = t
        .span("physical.power", || {
            power::analyze(
                tech,
                &mapped,
                &routes,
                &activity,
                library,
                timing.fmax,
                &macro_activity,
                clock_cap,
            )
        })
        .map_err(err)?;
    black_box(report);
    Ok((
        timing.fmax.value(),
        route::total_wirelength(&routes).value(),
    ))
}

/// Replays a batch of `golden.compare` entries: each distinct brick is
/// compiled and each entry's bank estimated, then the whole batch goes
/// through the multi-RHS golden solve. Checks the replayed golden read
/// delays against the served ones bit for bit.
pub fn golden_batch(
    t: &mut Tracer,
    tech: &Technology,
    configs: &[(usize, usize, usize)],
    served_read_delay_ps: &[f64],
) -> Result<(), String> {
    let specs: Vec<(BrickSpec, usize)> = configs
        .iter()
        .map(|&(w, b, s)| BrickSpec::new(BitcellKind::Sram8T, w, b).map(|spec| (spec, s)))
        .collect::<Result<_, _>>()
        .map_err(err)?;
    brick_compile_estimate(t, tech, &specs)?;
    let report = t.span("golden.batch", || {
        golden::compare_batch_results(tech, &specs)
    });
    t.count("golden.entries", specs.len() as f64);
    for (res, served) in report.results.iter().zip(served_read_delay_ps) {
        let cmp = res.as_ref().map_err(err)?;
        if cmp.golden.read_delay.value().to_bits() != served.to_bits() {
            return Err(format!(
                "replayed golden read delay {} != served {served}",
                cmp.golden.read_delay.value()
            ));
        }
    }
    Ok(())
}

/// The brick layer on its own: compile each distinct spec, estimate
/// each (spec, stack) bank.
fn brick_compile_estimate(
    t: &mut Tracer,
    tech: &Technology,
    specs: &[(BrickSpec, usize)],
) -> Result<(), String> {
    let compiler = BrickCompiler::new(tech);
    let mut compiled: Vec<lim_brick::CompiledBrick> = Vec::new();
    for (spec, stack) in specs {
        let brick = match compiled.iter().find(|b| b.spec() == spec) {
            Some(b) => b.clone(),
            None => {
                let b = t
                    .span("brick.compile", || compiler.compile(spec))
                    .map_err(err)?;
                compiled.push(b.clone());
                b
            }
        };
        let est = t
            .span("brick.estimate", || brick.estimate_bank(*stack))
            .map_err(err)?;
        black_box(est);
    }
    Ok(())
}

/// Replays one cold `mixed_repeat` request by method.
pub fn mixed(
    t: &mut Tracer,
    tech: &Technology,
    library: &mut BrickLibrary,
    method: &str,
    params: &lim_obs::json::Value,
    served: Option<&RtlServed>,
) -> Result<(), String> {
    let get = |k: &str| {
        params
            .get(k)
            .and_then(lim_obs::json::Value::as_f64)
            .map(|x| x as usize)
    };
    let usizes = |k: &str| -> Vec<usize> {
        params
            .get(k)
            .and_then(lim_obs::json::Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(lim_obs::json::Value::as_f64)
            .map(|x| x as usize)
            .collect()
    };
    match method {
        "brick.estimate" | "golden.compare" => {
            let (w, b, s) = (get("words"), get("bits"), get("stack"));
            let (Some(w), Some(b)) = (w, b) else {
                return Err("replay: config lacks words/bits".into());
            };
            let spec = BrickSpec::new(BitcellKind::Sram8T, w, b).map_err(err)?;
            let stack = s.unwrap_or(1);
            if method == "brick.estimate" {
                brick_compile_estimate(t, tech, &[(spec, stack)])
            } else {
                let report = t.span("golden.batch", || {
                    golden::compare_batch_results(tech, &[(spec, stack)])
                });
                t.count("golden.entries", 1.0);
                report.results[0].as_ref().map(|_| ()).map_err(err)
            }
        }
        "dse.explore" => {
            let memories: Vec<(usize, usize)> = params
                .get("memories")
                .and_then(lim_obs::json::Value::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|p| match p.as_array() {
                    Some([w, b]) => Some((w.as_f64()? as usize, b.as_f64()? as usize)),
                    _ => None,
                })
                .collect();
            let bw = usizes("brick_words");
            let points = t
                .span("core.dse", || dse::explore(tech, &memories, &bw))
                .map_err(err)?;
            t.count("core.dse.points", points.len() as f64);
            black_box(dse::pareto_front(&points));
            Ok(())
        }
        "flow.run" => {
            let (Some(w), Some(b), Some(bw)) = (get("words"), get("bits"), get("brick_words"))
            else {
                return Err("replay: flow.run lacks words/bits/brick_words".into());
            };
            let config =
                lim::SramConfig::new(w, b, get("partitions").unwrap_or(1), bw).map_err(err)?;
            let spec = config.brick_spec().map_err(err)?;
            t.span("brick.compile", || {
                library
                    .get_or_insert(tech, &spec, config.stack())
                    .map(|_| ())
            })
            .map_err(err)?;
            let netlist = t
                .span("core.generate", || {
                    lim::sram::generate(tech, &config, library)
                })
                .map_err(err)?;
            let activity = MacroActivity {
                read_rate: 1.0 / config.partitions() as f64,
                write_rate: 0.0,
                match_rate: 0.0,
            };
            let qor = physical(t, tech, library, &netlist, activity)?;
            let served = served.ok_or("replay: no served flow.run answer")?;
            same_qor(qor, served)
        }
        "rtl.infer" => {
            let source = params
                .get("source")
                .and_then(lim_obs::json::Value::as_str)
                .ok_or("replay: rtl.infer lacks source")?;
            let served = served.ok_or("replay: no served rtl.infer answer")?;
            rtl_infer(t, tech, library, source, &usizes("brick_words"), served)
        }
        other => Err(format!("replay: no layers for {other}")),
    }
}
