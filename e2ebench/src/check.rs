//! Output checks that do not trust the code under test: every fact is
//! checked against what the generator asked for, against a second
//! route to the same answer, or against the Table 1 error band.

use crate::workload::MemShape;
use lim_obs::json::{self, Value};
use std::collections::BTreeMap;

/// Table 1 band (relaxed as in `tests/table1_shapes.rs`): |tool − golden|
/// relative error for delay, read energy and write energy.
pub const TABLE1_BAND: [f64; 3] = [0.10, 0.06, 0.08];

/// A success response split into its `cached` flag and the verbatim
/// `result` bytes.
pub fn split_response(line: &str) -> Result<(bool, &str), String> {
    const MARKER: &str = ",\"result\":";
    let Some(at) = line.find(MARKER) else {
        return Err(format!("error answer: {}", truncate(line)));
    };
    let head = &line[..at];
    if !head.contains("\"ok\":true") {
        return Err(format!("error answer: {}", truncate(line)));
    }
    let result = lim_serve::protocol::result_slice(line)
        .ok_or_else(|| format!("malformed answer: {}", truncate(line)))?;
    Ok((head.contains("\"cached\":true"), result))
}

fn truncate(s: &str) -> &str {
    let mut end = s.len().min(300);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// One memory's decomposition as `rtl.infer` served it.
#[derive(Debug, Clone)]
pub struct ServedPlan {
    /// Array name.
    pub name: String,
    /// Chosen words per brick.
    pub brick_words: usize,
    /// Bricks per lane column.
    pub stack: usize,
    /// Library entry per lane.
    pub entries: Vec<String>,
}

/// The parts of an `rtl.infer` answer the benchmark uses.
#[derive(Debug, Clone)]
pub struct RtlServed {
    /// Per-memory plans, declaration order.
    pub plans: Vec<ServedPlan>,
    /// Served maximum frequency.
    pub fmax_mhz: f64,
    /// Served total wirelength.
    pub wirelength_um: f64,
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("answer lacks number {key:?}"))
}

/// Checks an `rtl.infer` result against the generator's memories: the
/// plan lists the same arrays with the same words, bits and lanes, the
/// chosen depth is one the request offered, `stack × brick_words =
/// words`, and there is one library entry per lane. Returns the plans,
/// the QoR figures, and the raw (JSON-escaped) `verilog` member.
pub fn check_rtl<'a>(
    result: &'a str,
    mems: &[MemShape],
    offered: &[usize],
) -> Result<(RtlServed, &'a str), String> {
    const MARKER: &str = ",\"verilog\":";
    let at = result
        .find(MARKER)
        .ok_or("rtl.infer answer has no verilog member")?;
    let verilog = result[at + MARKER.len()..]
        .strip_suffix('}')
        .ok_or("rtl.infer answer does not end its object after verilog")?;
    let head = Value::parse(&format!("{}}}", &result[..at]))
        .map_err(|e| format!("rtl.infer answer head is not JSON: {e}"))?;
    let served = head
        .get("memories")
        .and_then(Value::as_array)
        .ok_or("answer lacks memories")?;
    if served.len() != mems.len() {
        return Err(format!(
            "{} memories served, {} declared",
            served.len(),
            mems.len()
        ));
    }
    let mut plans = Vec::with_capacity(mems.len());
    for (m, s) in mems.iter().zip(served) {
        let name = s.get("name").and_then(Value::as_str).unwrap_or_default();
        let lanes: Vec<usize> = s
            .get("lanes")
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(Value::as_f64)
            .map(|x| x as usize)
            .collect();
        let entries: Vec<String> = s
            .get("entries")
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|e| e.as_str().map(str::to_owned))
            .collect();
        let (words, bits) = (num(s, "words")? as usize, num(s, "bits")? as usize);
        let (bw, stack) = (num(s, "brick_words")? as usize, num(s, "stack")? as usize);
        if name != m.name || words != m.words || bits != m.bits || lanes != m.lanes() {
            return Err(format!(
                "plan {name} {words}x{bits} lanes {lanes:?} != declared {} {}x{} lanes {:?}",
                m.name,
                m.words,
                m.bits,
                m.lanes()
            ));
        }
        if !offered.contains(&bw) || stack * bw != words || entries.len() != lanes.len() {
            return Err(format!(
                "plan {name}: brick_words {bw} (offered {offered:?}) x stack {stack} \
                 != {words} words, or {} entries for {} lanes",
                entries.len(),
                lanes.len()
            ));
        }
        plans.push(ServedPlan {
            name: m.name.clone(),
            brick_words: bw,
            stack,
            entries,
        });
    }
    let report = head.get("report").ok_or("answer lacks report")?;
    let served = RtlServed {
        plans,
        fmax_mhz: num(report, "fmax_mhz")?,
        wirelength_um: num(report, "wirelength_um")?,
    };
    if !(served.fmax_mhz > 0.0 && served.wirelength_um > 0.0) {
        return Err(format!(
            "non-positive QoR: fmax {} MHz, wirelength {} um",
            served.fmax_mhz, served.wirelength_um
        ));
    }
    Ok((served, verilog))
}

/// Splits the raw text of a JSON array of objects into each object's
/// raw bytes (string-aware brace matching).
pub fn split_objects(array: &str) -> Result<Vec<&str>, String> {
    let bytes = array.as_bytes();
    let mut out = Vec::new();
    let (mut depth, mut start, mut in_str, mut escaped) = (0usize, 0usize, false, false);
    for (i, &b) in bytes.iter().enumerate() {
        if in_str {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.checked_sub(1).ok_or("unbalanced braces")?;
                if depth == 0 {
                    out.push(&array[start..=i]);
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_str {
        return Err("unterminated object in array".into());
    }
    Ok(out)
}

/// One `golden.compare` answer's figures.
#[derive(Debug, Clone, Copy)]
pub struct GoldenServed {
    /// Golden-reference read delay.
    pub golden_read_delay_ps: f64,
}

/// Checks one `golden.compare` result: it echoes the requested
/// configuration and its errors sit inside the Table 1 band.
pub fn check_golden(
    result: &str,
    (words, bits, stack): (usize, usize, usize),
) -> Result<GoldenServed, String> {
    let v = Value::parse(result).map_err(|e| format!("golden answer is not JSON: {e}"))?;
    let spec = v.get("spec").and_then(Value::as_str).unwrap_or_default();
    let dims = format!("{words}x{bits}");
    if !spec.contains(&dims) || num(&v, "stack")? as usize != stack {
        return Err(format!(
            "golden answer for {spec} x{} echoes the wrong config {dims} x{stack}",
            num(&v, "stack")?
        ));
    }
    let err = v.get("error").ok_or("golden answer lacks error")?;
    let errors = [
        num(err, "delay")?,
        num(err, "read_energy")?,
        num(err, "write_energy")?,
    ];
    for (e, band) in errors.iter().zip(TABLE1_BAND) {
        if e.is_nan() || e.abs() >= band {
            return Err(format!(
                "{dims} x{stack}: tool-vs-golden error {e:.4} outside the ±{band} band"
            ));
        }
    }
    let golden = v.get("golden").ok_or("golden answer lacks golden")?;
    Ok(GoldenServed {
        golden_read_delay_ps: num(golden, "read_delay_ps")?,
    })
}

/// Checks a `batch` of `golden.compare` answers entry by entry; returns
/// each entry's raw `result` bytes and figures.
pub fn check_golden_batch<'a>(
    result: &'a str,
    entries: &[(usize, usize, usize)],
) -> Result<Vec<(&'a str, GoldenServed)>, String> {
    const PREFIX: &str = "{\"results\":[";
    let array = result
        .strip_prefix(PREFIX)
        .and_then(|r| r.strip_suffix("]}"))
        .ok_or("batch answer is not {\"results\":[..]}")?;
    let objects = split_objects(array)?;
    if objects.len() != entries.len() {
        return Err(format!(
            "{} batch results for {} entries",
            objects.len(),
            entries.len()
        ));
    }
    objects
        .iter()
        .zip(entries)
        .map(|(obj, &cfg)| {
            const OK: &str = "{\"ok\":true,\"cached\":false,\"result\":";
            let inner = obj
                .strip_prefix(OK)
                .and_then(|r| r.strip_suffix('}'))
                .ok_or_else(|| format!("batch entry failed or was cached: {}", truncate(obj)))?;
            Ok((inner, check_golden(inner, cfg)?))
        })
        .collect()
}

/// Steps a lowered netlist in [`lim_rtl::SmartMemTestbench`] next to
/// [`lim_rtl::BehavInterp`] on the same source for `cycles` seeded
/// cycles; any output difference is an error. Also checks that the
/// served structural Verilog is the emission of that netlist.
pub fn check_lowering(
    source: &str,
    plans: &[ServedPlan],
    served_verilog: &str,
    seed: u64,
    cycles: usize,
) -> Result<(), String> {
    let module = lim_rtl::parse(source).map_err(|e| format!("parse: {e}"))?;
    let inference = lim_rtl::infer::infer(&module);
    let lowering: BTreeMap<String, lim_rtl::MemLowering> = plans
        .iter()
        .map(|p| {
            (
                p.name.clone(),
                lim_rtl::MemLowering {
                    brick_words: p.brick_words,
                    entry_names: p.entries.clone(),
                },
            )
        })
        .collect();
    let netlist = lim_rtl::smartmem::lower(&module, &inference, &lowering)
        .map_err(|e| format!("lower: {e}"))?;
    if json::string(&lim_rtl::verilog::emit(&netlist)) != served_verilog {
        return Err(format!(
            "served verilog of {} differs from the lowered netlist",
            module.name
        ));
    }
    let clock = &inference.memories[0].clock;
    let inputs: Vec<(String, usize)> = module
        .data_inputs(clock)
        .iter()
        .map(|p| (p.name.clone(), p.width))
        .collect();
    let mut tb = lim_rtl::SmartMemTestbench::new(&netlist, &module, &inference)
        .map_err(|e| format!("testbench: {e}"))?;
    let mut gold = lim_rtl::BehavInterp::new(&module)?;
    let mut rng = lim_testkit::rng::TestRng::seed_from_u64(seed);
    // Few write addresses, so reads often find written words.
    for cycle in 0..cycles {
        let values: BTreeMap<String, u64> = inputs
            .iter()
            .map(|(name, width)| {
                let mask = if *width >= 64 {
                    u64::MAX
                } else {
                    (1u64 << width) - 1
                };
                let v = if name.starts_with("waddr") || name.starts_with("raddr") {
                    rng.gen_range(0u64..8)
                } else {
                    rng.next_u64()
                };
                (name.clone(), v & mask)
            })
            .collect();
        let got = tb
            .cycle(&values)
            .map_err(|e| format!("testbench cycle: {e}"))?;
        let want = gold.step(&values);
        if got != want {
            return Err(format!(
                "{} cycle {cycle}: lowered netlist gave {got:?}, behavioral model {want:?}",
                module.name
            ));
        }
    }
    Ok(())
}
