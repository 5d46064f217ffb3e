//! Seeded request generators for the three workloads.
//!
//! Every generator is a pure function of the seed and the request
//! index, so the same seed always produces the same byte stream. The
//! *shape mix* of each workload is fixed per block (a block is a fixed
//! multiset of request shapes); the seed shuffles the order inside each
//! block and chooses the names and nonces. That keeps the work per
//! block the same for every seed, so figures from different seeds are
//! comparable, while no two seeds send the same requests.

use lim_obs::json;
use lim_testkit::rng::{splitmix64, TestRng};

/// The workloads, by the names `BENCHMARK.json` gives them.
pub const WORKLOADS: [&str; 3] = ["rtl_infer_unique", "golden_validate", "mixed_repeat"];

/// Seed streams: independent draws for block order, module nonces and
/// golden batch contents.
const STREAM_ORDER: u64 = 1;
const STREAM_NONCE: u64 = 2;
const STREAM_GOLDEN: u64 = 3;

/// The slot of the oversize request that opens the `mixed_repeat`
/// stream.
const OPENER: usize = usize::MAX;

/// Closed-loop connections per workload.
pub fn connections(workload: &str) -> usize {
    if workload == "mixed_repeat" {
        2
    } else {
        1
    }
}

/// One inferred memory the generator declared, as `rtl.infer` must
/// report it back.
#[derive(Debug, Clone, PartialEq)]
pub struct MemShape {
    /// Array name in the source.
    pub name: String,
    /// Depth.
    pub words: usize,
    /// Word width.
    pub bits: usize,
    /// Width of the low byte-enable lane, when the word is split in two.
    pub split: Option<usize>,
}

impl MemShape {
    /// Lane widths in ascending bit order, as the served plan lists them.
    pub fn lanes(&self) -> Vec<usize> {
        match self.split {
            Some(s) => vec![s, self.bits - s],
            None => vec![self.bits],
        }
    }
}

/// What a request must produce, for the output checks.
#[derive(Debug, Clone)]
pub enum Expect {
    /// `rtl.infer`: the declared memories and the brick depths offered.
    Rtl {
        mems: Vec<MemShape>,
        brick_words: Vec<usize>,
    },
    /// A `batch` of `golden.compare` entries: (words, bits, stack) each.
    Golden(Vec<(usize, usize, usize)>),
    /// Any other endpoint: only checked against its key's first answer.
    Plain,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Protocol method.
    pub method: &'static str,
    /// Rendered params object.
    pub params: String,
    /// Key in the workload's key universe (`mixed_repeat`), or the
    /// request index (every other workload: all keys are distinct).
    pub key: usize,
    /// Expected outcome.
    pub expect: Expect,
}

impl Request {
    /// The NDJSON request line (no newline).
    pub fn line(&self, id: u64) -> String {
        format!(
            "{{\"id\":{id},\"method\":\"{}\",\"params\":{}}}",
            self.method, self.params
        )
    }
}

/// A seeded, index-addressed request stream.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: &'static str,
    seed: u64,
    block: usize,
}

impl Generator {
    /// The generator for `workload`; `None` for an unknown name.
    pub fn new(workload: &str, seed: u64) -> Option<Self> {
        let workload = *WORKLOADS.iter().find(|w| **w == workload)?;
        let block = match workload {
            "rtl_infer_unique" => RTL_BLOCK.len(),
            "golden_validate" => GOLDEN_CYCLE,
            _ => mixed_block().len(),
        };
        Some(Generator {
            workload,
            seed,
            block,
        })
    }

    /// Requests per block; figures over whole blocks do not depend on
    /// the seed.
    pub fn block_len(&self) -> usize {
        self.block
    }

    /// The `i`-th request of the stream.
    pub fn request(&self, i: usize) -> Request {
        let (b, pos) = (i / self.block, i % self.block);
        self.make(b, pos, self.order(b)[pos])
    }

    /// The requests of block `b`, in stream order.
    pub fn block(&self, b: usize) -> Vec<Request> {
        self.order(b)
            .into_iter()
            .enumerate()
            .map(|(pos, slot)| self.make(b, pos, slot))
            .collect()
    }

    /// The seeded order of block `b`'s shapes, as slots for
    /// [`Generator::make`].
    pub fn order(&self, b: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.block).collect();
        self.rng(STREAM_ORDER, b as u64).shuffle(&mut order);
        if self.workload == "mixed_repeat" && b == 0 {
            // The stream opens with the oversize key, in place of one
            // draw of the hottest key.
            let hottest = order
                .iter()
                .position(|&slot| mixed_block()[slot] == 0)
                .expect("every key is drawn in a block");
            order.swap(0, hottest);
            order[0] = OPENER;
        }
        order
    }

    /// The request at position `pos` of block `b`, whose shape is
    /// `slot` (from [`Generator::order`]).
    pub fn make(&self, b: usize, pos: usize, slot: usize) -> Request {
        match self.workload {
            "rtl_infer_unique" => self.rtl_request(b * self.block + pos, slot),
            "golden_validate" => self.golden_request(b, slot),
            _ if slot == OPENER => mixed_request(mixed_universe_cached().len() - 1),
            _ => mixed_request(mixed_block()[slot]),
        }
    }

    fn rng(&self, stream: u64, index: u64) -> TestRng {
        let mut s = self.seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let a = splitmix64(&mut s);
        TestRng::seed_from_u64(a ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9))
    }

    fn rtl_request(&self, i: usize, slot: usize) -> Request {
        let class = &RTL_BLOCK[slot];
        let nonce = self.rng(STREAM_NONCE, i as u64).next_u64();
        let name = format!("bench_{nonce:016x}_{i}");
        let mems = class.mems();
        let params = format!(
            "{{\"source\":{},\"brick_words\":{:?}}}",
            json::string(&rtl_source(&name, &mems)),
            class.brick_words
        );
        Request {
            method: "rtl.infer",
            params,
            key: i,
            expect: Expect::Rtl {
                mems,
                brick_words: class.brick_words.to_vec(),
            },
        }
    }

    fn golden_request(&self, block: usize, slot: usize) -> Request {
        let entries = golden_batch(&mut self.rng(STREAM_GOLDEN, block as u64), slot);
        let list: Vec<String> = entries
            .iter()
            .map(|(w, b, s)| {
                format!(
                    "{{\"method\":\"golden.compare\",\"params\":{}}}",
                    golden_params(*w, *b, *s)
                )
            })
            .collect();
        Request {
            method: "batch",
            params: format!("{{\"requests\":[{}]}}", list.join(",")),
            key: block * GOLDEN_CYCLE + slot,
            expect: Expect::Golden(entries),
        }
    }
}

/// One `rtl.infer` shape: arrays as (words, bits, low-lane width).
struct RtlClass {
    arrays: &'static [(usize, usize, Option<usize>)],
    brick_words: &'static [usize],
}

impl RtlClass {
    fn mems(&self) -> Vec<MemShape> {
        self.arrays
            .iter()
            .enumerate()
            .map(|(j, &(words, bits, split))| MemShape {
                name: format!("mem{}", suffix(j)),
                words,
                bits,
                split,
            })
            .collect()
    }
}

/// The `rtl_infer_unique` block, cheapest shapes first: four small
/// modules, eight of the paper-scale 1024×16 shape of
/// `examples/smart_mem.v` under different brick-depth offers, and four
/// larger ones. Together they span depths 64–2048, widths 8–32,
/// byte-enable lanes and two-array modules. The eight 1024×16 requests
/// cost about the same, so the median lands inside that group rather
/// than on a boundary between shapes of different cost.
const RTL_BLOCK: [RtlClass; 16] = [
    RtlClass {
        arrays: &[(64, 8, None)],
        brick_words: &[8, 16, 32, 64],
    },
    RtlClass {
        arrays: &[(128, 12, None)],
        brick_words: &[8, 16],
    },
    RtlClass {
        arrays: &[(256, 16, None), (128, 8, None)],
        brick_words: &[16, 32],
    },
    RtlClass {
        arrays: &[(512, 32, Some(16))],
        brick_words: &[32, 64],
    },
    RtlClass {
        arrays: &[(1024, 16, None)],
        brick_words: &[8, 16, 32, 64],
    },
    RtlClass {
        arrays: &[(1024, 16, None)],
        brick_words: &[16, 32, 64],
    },
    RtlClass {
        arrays: &[(1024, 16, None)],
        brick_words: &[16, 32],
    },
    RtlClass {
        arrays: &[(1024, 16, None)],
        brick_words: &[32, 64],
    },
    RtlClass {
        arrays: &[(1024, 16, None)],
        brick_words: &[64],
    },
    RtlClass {
        arrays: &[(1024, 16, None)],
        brick_words: &[16],
    },
    RtlClass {
        arrays: &[(1024, 16, None)],
        brick_words: &[8, 16, 32, 64],
    },
    RtlClass {
        arrays: &[(1024, 16, None)],
        brick_words: &[16, 64],
    },
    RtlClass {
        arrays: &[(1024, 16, Some(8))],
        brick_words: &[16, 32, 64],
    },
    RtlClass {
        arrays: &[(1024, 12, None), (512, 20, Some(10))],
        brick_words: &[16, 32, 64],
    },
    RtlClass {
        arrays: &[(2048, 16, None)],
        brick_words: &[32, 64],
    },
    RtlClass {
        arrays: &[(2048, 32, None)],
        brick_words: &[32, 64],
    },
];

fn suffix(j: usize) -> &'static str {
    ["", "_b"][j]
}

/// Behavioral Verilog for `mems` in the inferable subset: per array one
/// clocked write port (whole-word or two byte-enable lanes) and one
/// registered read port, all on `clk`.
pub fn rtl_source(module: &str, mems: &[MemShape]) -> String {
    let mut ports = vec!["  input wire clk".to_owned()];
    let mut body = String::new();
    for (j, m) in mems.iter().enumerate() {
        let sfx = suffix(j);
        let a = lim_rtl::infer::addr_bits_for(m.words) - 1;
        let b = m.bits - 1;
        ports.push(match m.split {
            Some(_) => format!("  input wire [1:0] we{sfx}"),
            None => format!("  input wire we{sfx}"),
        });
        ports.push(format!("  input wire [{a}:0] waddr{sfx}"));
        ports.push(format!("  input wire [{a}:0] raddr{sfx}"));
        ports.push(format!("  input wire [{b}:0] din{sfx}"));
        ports.push(format!("  output reg [{b}:0] dout{sfx}"));
        let writes = match m.split {
            Some(s) => format!(
                "    if (we{sfx}[0]) mem{sfx}[waddr{sfx}][{lo}:0] <= din{sfx}[{lo}:0];\n\
                 \x20   if (we{sfx}[1]) mem{sfx}[waddr{sfx}][{b}:{s}] <= din{sfx}[{b}:{s}];\n",
                lo = s - 1,
            ),
            None => format!("    if (we{sfx})\n      mem{sfx}[waddr{sfx}] <= din{sfx};\n"),
        };
        body.push_str(&format!(
            "  reg [{b}:0] mem{sfx} [{d}:0];\n\
             \x20 always @(posedge clk) begin\n\
             {writes}\
             \x20   dout{sfx} <= mem{sfx}[raddr{sfx}];\n\
             \x20 end\n",
            d = m.words - 1,
        ));
    }
    format!(
        "module {module} (\n{}\n);\n{body}endmodule\n",
        ports.join(",\n")
    )
}

/// Batches per `golden_validate` cycle: one per (words, stack) topology.
const GOLDEN_CYCLE: usize = 9;
const GOLDEN_WORDS: [usize; 3] = [16, 32, 64];
const GOLDEN_BITS: [usize; 3] = [8, 10, 16];
const GOLDEN_STACKS: [usize; 3] = [1, 2, 4];

/// Params of one uncached `golden.compare` entry.
pub fn golden_params(words: usize, bits: usize, stack: usize) -> String {
    format!("{{\"words\":{words},\"bits\":{bits},\"stack\":{stack},\"nocache\":true}}")
}

/// The eight entries of batch `slot` of a cycle, drawn from the cycle's
/// `rng`. Four share the slot's (words, stack) topology — all three
/// widths plus a seeded one — so their write sims group into one
/// multi-RHS panel. The other four walk a seeded permutation of all 27
/// configurations plus, per topology, one with a seeded width (36
/// places for the cycle's 9 batches).
fn golden_batch(rng: &mut TestRng, slot: usize) -> Vec<(usize, usize, usize)> {
    let mut configs: Vec<(usize, usize, usize)> = Vec::with_capacity(36);
    for &w in &GOLDEN_WORDS {
        for &b in &GOLDEN_BITS {
            for &st in &GOLDEN_STACKS {
                configs.push((w, b, st));
            }
        }
    }
    let topo = |k: usize| (GOLDEN_WORDS[k / 3], GOLDEN_STACKS[k % 3]);
    let extra_bits: Vec<usize> = (0..GOLDEN_CYCLE)
        .map(|_| GOLDEN_BITS[rng.gen_range(0usize..3)])
        .collect();
    let shared_bits: Vec<usize> = (0..GOLDEN_CYCLE)
        .map(|_| GOLDEN_BITS[rng.gen_range(0usize..3)])
        .collect();
    for (k, &b) in extra_bits.iter().enumerate() {
        let (w, st) = topo(k);
        configs.push((w, b, st));
    }
    rng.shuffle(&mut configs);
    let (w, st) = topo(slot);
    let mut entries: Vec<(usize, usize, usize)> = GOLDEN_BITS
        .iter()
        .chain(std::iter::once(&shared_bits[slot]))
        .map(|&b| (w, b, st))
        .collect();
    entries.extend_from_slice(&configs[slot * 4..slot * 4 + 4]);
    rng.shuffle(&mut entries);
    entries
}

/// The fixed `mixed_repeat` key universe, hottest key first. The key
/// with the largest cached answer is third hottest, so the p95 of the
/// round trips falls inside its group of hits, not on the boundary
/// between answer sizes.
fn mixed_universe() -> Vec<(&'static str, String, Expect)> {
    let est = |w: usize, b: usize, s: usize| {
        (
            "brick.estimate",
            format!("{{\"words\":{w},\"bits\":{b},\"stack\":{s}}}"),
            Expect::Plain,
        )
    };
    let gold = |w: usize, b: usize, s: usize| {
        (
            "golden.compare",
            format!("{{\"words\":{w},\"bits\":{b},\"stack\":{s}}}"),
            Expect::Golden(vec![(w, b, s)]),
        )
    };
    let flow = |w: usize, b: usize, p: usize, bw: usize| {
        (
            "flow.run",
            format!("{{\"words\":{w},\"bits\":{b},\"partitions\":{p},\"brick_words\":{bw}}}"),
            Expect::Plain,
        )
    };
    let rtl = |name: &str, arrays: &[(usize, usize, Option<usize>)], bw: &[usize]| {
        let mems: Vec<MemShape> = arrays
            .iter()
            .enumerate()
            .map(|(j, &(words, bits, split))| MemShape {
                name: format!("mem{}", suffix(j)),
                words,
                bits,
                split,
            })
            .collect();
        (
            "rtl.infer",
            format!(
                "{{\"source\":{},\"brick_words\":{bw:?}}}",
                json::string(&rtl_source(name, &mems))
            ),
            Expect::Rtl {
                mems,
                brick_words: bw.to_vec(),
            },
        )
    };
    let dse = |mems: &str, bw: &str| {
        (
            "dse.explore",
            format!("{{\"memories\":{mems},\"brick_words\":{bw}}}"),
            Expect::Plain,
        )
    };
    vec![
        est(16, 10, 1),
        dse("[[1024,16]]", "[16,32,64]"),
        rtl("mix_mid", &[(256, 12, None)], &[16, 32, 64]),
        gold(16, 10, 1),
        est(32, 16, 4),
        flow(64, 10, 1, 16),
        est(64, 8, 2),
        rtl("mix_lanes", &[(128, 16, Some(8))], &[16, 32]),
        gold(32, 8, 2),
        dse("[[512,32],[256,8]]", "[16,32,64]"),
        est(128, 16, 1),
        flow(128, 16, 2, 32),
        est(16, 32, 8),
        rtl("mix_small", &[(64, 8, None)], &[8, 16, 32, 64]),
        gold(16, 16, 4),
        est(32, 8, 1),
        dse("[[2048,16],[1024,32],[64,8]]", "[32,64]"),
        est(256, 16, 2),
        flow(256, 8, 1, 64),
        rtl("mix_pair", &[(64, 8, None), (64, 16, None)], &[8, 16]),
        gold(64, 8, 1),
        est(64, 32, 1),
        est(128, 8, 4),
        est(16, 8, 2),
        // Its answer exceeds the default 4 MiB memo, so it is never
        // retained and every repeat recompiles.
        rtl("mix_oversize", &[(4096, 64, None)], &[64]),
    ]
}

/// Zipf exponent of the `mixed_repeat` draw.
const ZIPF_S: f64 = 1.1;
/// Draws per `mixed_repeat` block.
const MIXED_DRAWS: usize = 150_000;

/// Key indices of one `mixed_repeat` block, before the seeded shuffle:
/// each regular key appears `max(1, round(draws · zipf weight))` times.
/// The oversize key (last in the universe) is not drawn: it opens the
/// stream once, so its one compile sets the daemon's memory peak at the
/// same point of every run.
fn mixed_block() -> &'static [usize] {
    use std::sync::OnceLock;
    static BLOCK: OnceLock<Vec<usize>> = OnceLock::new();
    BLOCK.get_or_init(|| {
        let regular = mixed_universe_cached().len() - 1;
        let weights: Vec<f64> = (0..regular)
            .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut block = Vec::new();
        for (k, w) in weights.iter().enumerate() {
            let n = ((MIXED_DRAWS as f64 * w / total).round() as usize).max(1);
            block.extend(std::iter::repeat_n(k, n));
        }
        block
    })
}

fn mixed_universe_cached() -> &'static [(&'static str, String, Expect)] {
    use std::sync::OnceLock;
    static UNIVERSE: OnceLock<Vec<(&'static str, String, Expect)>> = OnceLock::new();
    UNIVERSE.get_or_init(mixed_universe)
}

fn mixed_request(key: usize) -> Request {
    let (method, params, expect) = &mixed_universe_cached()[key];
    Request {
        method,
        params: params.clone(),
        key,
        expect: expect.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in WORKLOADS {
            let a = Generator::new(w, 7).unwrap();
            let b = Generator::new(w, 7).unwrap();
            let c = Generator::new(w, 8).unwrap();
            let lines = |g: &Generator| {
                (0..2)
                    .flat_map(|b| g.block(b))
                    .map(|r| r.line(0))
                    .collect::<Vec<_>>()
            };
            assert_eq!(lines(&a), lines(&b));
            assert_ne!(lines(&a), lines(&c));
        }
    }

    #[test]
    fn generated_sources_are_inferable() {
        let g = Generator::new("rtl_infer_unique", 3).unwrap();
        for i in 0..g.block_len() {
            let rq = g.request(i);
            let Expect::Rtl { mems, .. } = &rq.expect else {
                unreachable!()
            };
            let src = rtl_source("t", mems);
            let module = lim_rtl::parse(&src).expect("in the subset");
            let inference = lim_rtl::infer::infer(&module);
            assert!(
                inference.rejected.is_empty(),
                "{:?}\n{src}",
                inference.rejected
            );
            assert_eq!(inference.memories.len(), mems.len());
        }
    }
}
