//! Seed-stability tests: the reproducibility contract behind every
//! seeded experiment in the repo (Table 1 bounds, Fig. 4b/4c
//! configurations, Fig. 6 sweeps).
//!
//! Each test runs a seeded generator twice with the same seed and
//! asserts byte-identical output (via the textual Matrix Market
//! serialization or exact structural equality), then re-runs with a
//! different seed and asserts the output actually changes — guarding
//! against both nondeterminism and seeds that are silently ignored.

use lim::chip::SiliconEmulation;
use lim_brick::BrickLibrary;
use lim_physical::floorplan::{Floorplan, FloorplanOptions};
use lim_physical::flow::{FlowOptions, PhysicalSynthesis};
use lim_physical::place::{place, PlaceEffort};
use lim_rtl::generators::decoder;
use lim_spgemm::gen::MatrixGen;
use lim_spgemm::io::write_mtx;
use lim_tech::Technology;
use lim_testkit::TestRng;

/// Serializes a generated matrix so comparisons are byte-for-byte.
fn mtx(t: lim_spgemm::matrix::Triplets) -> String {
    write_mtx(&t.to_csc())
}

/// A named, seeded generator whose output is compared byte-for-byte.
type SeededCase = (&'static str, Box<dyn Fn(u64) -> String>);

#[test]
fn matrix_generators_are_seed_stable() {
    let cases: [SeededCase; 5] = [
        ("erdos_renyi", Box::new(|s| mtx(MatrixGen::erdos_renyi(128, 6.0, s)))),
        ("rmat", Box::new(|s| mtx(MatrixGen::rmat(128, 1024, 0.57, 0.19, 0.19, s)))),
        ("banded", Box::new(|s| mtx(MatrixGen::banded(96, 3, s)))),
        ("block_diagonal", Box::new(|s| mtx(MatrixGen::block_diagonal(64, 8, 0.6, s)))),
        ("hub", Box::new(|s| mtx(MatrixGen::hub(128, 4.0, 2, 64, s)))),
    ];
    for (name, generate) in &cases {
        assert_eq!(
            generate(42),
            generate(42),
            "{name}: same seed must produce byte-identical matrices"
        );
        assert_ne!(
            generate(42),
            generate(43),
            "{name}: different seeds must produce different matrices"
        );
    }
}

#[test]
fn mesh_laplacian_is_fully_deterministic() {
    // No seed parameter at all: two runs must still agree exactly.
    assert_eq!(
        mtx(MatrixGen::mesh_laplacian(12)),
        mtx(MatrixGen::mesh_laplacian(12))
    );
}

#[test]
fn seeded_placement_is_seed_stable() {
    let tech = Technology::cmos65();
    // Large enough that the anneal actually beats the initial ordered
    // placement and the seeded move sequence shows in the result (on
    // tiny designs every seed keeps the initial placement).
    let dec = decoder("dec", 5, 32, true).unwrap();
    let fp =
        Floorplan::build(&tech, &dec, &BrickLibrary::new(), &FloorplanOptions::default()).unwrap();
    let p1 = place(&tech, &dec, &fp, 11, PlaceEffort::default()).unwrap();
    let p2 = place(&tech, &dec, &fp, 11, PlaceEffort::default()).unwrap();
    assert_eq!(p1.cell_pos, p2.cell_pos);
    assert_eq!(p1.hpwl, p2.hpwl);
    assert!(
        (12..20).any(|seed| {
            let q = place(&tech, &dec, &fp, seed, PlaceEffort::default()).unwrap();
            q.cell_pos != p1.cell_pos || q.hpwl != p1.hpwl
        }),
        "different annealing seeds should explore different placements"
    );
}

#[test]
fn rtl_stimulus_generation_is_seed_stable() {
    let stimulus = |seed: u64| -> Vec<Vec<bool>> {
        let mut rng = TestRng::seed_from_u64(seed);
        (0..32)
            .map(|_| (0..17).map(|_| rng.gen::<bool>()).collect())
            .collect()
    };
    assert_eq!(stimulus(7), stimulus(7));
    assert_ne!(stimulus(7), stimulus(8));
}

#[test]
fn silicon_sampling_is_seed_stable() {
    let tech = Technology::cmos65();
    let lib = BrickLibrary::new();
    let dec = decoder("dec", 4, 16, true).unwrap();
    let rep = PhysicalSynthesis::new(&tech, &lib)
        .run(&dec, &FlowOptions::default())
        .unwrap();
    let a = SiliconEmulation::new(&tech, 3).sample(&rep, 16);
    let b = SiliconEmulation::new(&tech, 3).sample(&rep, 16);
    let c = SiliconEmulation::new(&tech, 4).sample(&rep, 16);
    assert_eq!(a, b);
    assert_ne!(a, c);
}

/// Projects a DSE point onto its deterministic fields (`elapsed` is
/// wall-clock and legitimately varies run to run).
fn dse_fingerprint(points: &[lim::dse::DsePoint]) -> Vec<String> {
    points
        .iter()
        .map(|p| {
            format!(
                "{}|{}|{}|{}|{}|{:?}|{:?}|{:?}",
                p.label, p.words, p.bits, p.brick_words, p.stack, p.delay, p.energy, p.area
            )
        })
        .collect()
}

/// Serializes tests that mutate `LIM_PAR_THREADS`: the process
/// environment is global, so concurrent test threads would race.
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn multistart_placement_is_byte_identical_across_worker_counts() {
    // The multi-start contract: per-start seeds are a fixed walk from
    // the caller's seed and the winner is the strictly lowest final
    // HPWL in seed order, so the placement is byte-identical whether
    // the starts run on 1 worker, 4 workers, or serially on the
    // calling thread (start completion order must never matter).
    let _env = ENV_LOCK.lock().unwrap();
    let tech = Technology::cmos65();
    let dec = decoder("dec", 5, 32, true).unwrap();
    let fp =
        Floorplan::build(&tech, &dec, &BrickLibrary::new(), &FloorplanOptions::default()).unwrap();
    let effort = PlaceEffort::starts(4);
    std::env::set_var(lim_par::ENV_THREADS, "1");
    let one = place(&tech, &dec, &fp, 11, effort).unwrap();
    std::env::set_var(lim_par::ENV_THREADS, "4");
    let four = place(&tech, &dec, &fp, 11, effort).unwrap();
    std::env::remove_var(lim_par::ENV_THREADS);
    let serial = place(&tech, &dec, &fp, 11, effort.serial()).unwrap();
    assert_eq!(one, four, "placement must not depend on the worker count");
    assert_eq!(one, serial, "parallel starts must match the serial path");
    assert_eq!(one.starts, 4);
    // Multi-start actually searches: it must never do worse than its
    // own first seed alone.
    let single = place(&tech, &dec, &fp, 11, PlaceEffort::default()).unwrap();
    assert!(one.hpwl <= single.hpwl);
}

#[test]
fn analytic_placement_is_byte_identical_across_worker_counts() {
    // The analytic seed's contract is stronger than the annealer's: the
    // B2B/CG solve is strictly serial by construction, so its output —
    // positions, iteration counts, legalization displacement — must be
    // byte-identical for any `LIM_PAR_THREADS`, not merely equal in
    // HPWL.
    let _env = ENV_LOCK.lock().unwrap();
    let tech = Technology::cmos65();
    let dec = decoder("dec", 6, 64, true).unwrap();
    let fp =
        Floorplan::build(&tech, &dec, &BrickLibrary::new(), &FloorplanOptions::default()).unwrap();
    std::env::set_var(lim_par::ENV_THREADS, "1");
    let one = lim_physical::analytic::analytic_place(&tech, &dec, &fp).unwrap();
    std::env::set_var(lim_par::ENV_THREADS, "4");
    let four = lim_physical::analytic::analytic_place(&tech, &dec, &fp).unwrap();
    std::env::remove_var(lim_par::ENV_THREADS);
    assert_eq!(one.cg_iters, four.cg_iters);
    assert_eq!(one.hpwl.to_bits(), four.hpwl.to_bits());
    assert_eq!(one.displacement.to_bits(), four.displacement.to_bits());
    assert_eq!(one.positions.len(), four.positions.len());
    for (a, b) in one.positions.iter().zip(four.positions.iter()) {
        assert_eq!(a.0.to_bits(), b.0.to_bits());
        assert_eq!(a.1.to_bits(), b.1.to_bits());
    }
}

#[test]
fn parallel_results_are_independent_of_worker_count() {
    // par_map's output order contract: identical to serial for any
    // worker count, including when chunks are stolen.
    let items: Vec<u64> = (0..257).collect();
    let serial = lim_par::par_map_with_threads(1, items.clone(), |x| x * x + 1);
    let eight = lim_par::par_map_with_threads(8, items, |x| x * x + 1);
    assert_eq!(serial, eight);

    // The DSE sweep inherits that contract end to end: same points, in
    // the same order, whether the pool runs 1 worker or 8. The env var
    // is set and restored under `ENV_LOCK` to avoid cross-test races
    // on process environment.
    let _env = ENV_LOCK.lock().unwrap();
    let tech = Technology::cmos65();
    let sweep = || {
        lim::dse::explore(&tech, &[(128, 8), (128, 16)], &[16, 32]).expect("sweep must succeed")
    };
    std::env::set_var(lim_par::ENV_THREADS, "1");
    let one_worker = dse_fingerprint(&sweep());
    std::env::set_var(lim_par::ENV_THREADS, "8");
    let eight_workers = dse_fingerprint(&sweep());
    std::env::remove_var(lim_par::ENV_THREADS);
    assert_eq!(one_worker, eight_workers);
    assert_eq!(one_worker.len(), 4);
}

#[test]
fn testkit_rng_streams_are_independent_of_call_pattern() {
    // Drawing different value types must not desynchronize replays: the
    // stream is a pure function of the seed and the draw sequence.
    let mut a = TestRng::seed_from_u64(99);
    let trace_a = (
        a.gen_range(0usize..1000),
        a.gen_range(0.0f64..1.0),
        a.gen::<bool>(),
        a.next_u64(),
    );
    let mut b = TestRng::seed_from_u64(99);
    let trace_b = (
        b.gen_range(0usize..1000),
        b.gen_range(0.0f64..1.0),
        b.gen::<bool>(),
        b.next_u64(),
    );
    assert_eq!(trace_a, trace_b);
}

/// `examples/smart_mem.v` lowered at `brick_words`-word bricks, one
/// lane, under the library name the flow would register.
fn smart_mem_netlist(brick_words: usize) -> lim_rtl::Netlist {
    let src = include_str!("../examples/smart_mem.v");
    let module = lim_rtl::parse(src).unwrap();
    let inference = lim_rtl::infer::infer(&module);
    let plans = inference
        .memories
        .iter()
        .map(|m| {
            let plan = lim_rtl::MemLowering {
                brick_words,
                entry_names: vec![format!(
                    "brick_8t_{brick_words}_{}_x{}",
                    m.bits,
                    m.words / brick_words
                )],
            };
            (m.name.clone(), plan)
        })
        .collect();
    lim_rtl::smartmem::lower(&module, &inference, &plans).unwrap()
}

/// The generated netlists whose bytes are pinned below: the SRAM
/// periphery at three shapes, parallel-access, interpolation, CAM and
/// SpGEMM blocks, a decoder, a mux tree, and `examples/smart_mem.v`
/// lowered at 64-word bricks.
fn pinned_netlists() -> Vec<(&'static str, lim_rtl::Netlist)> {
    use lim::cam::{self, CamConfig, SpgemmCoreConfig};
    use lim::interpolation::{self, InterpolationConfig};
    use lim::parallel_access::{generate_conventional, generate_lim};
    use lim::{sram, ParallelAccessConfig, SramConfig};

    let tech = Technology::cmos65();
    let mut lib = BrickLibrary::new();
    let sram_at = |lib: &mut BrickLibrary, w, b, p, bw| {
        sram::generate(&tech, &SramConfig::new(w, b, p, bw).unwrap(), lib).unwrap()
    };
    let pam = ParallelAccessConfig::motion_estimation();
    let interp = InterpolationConfig::sar_default();
    let core = SpgemmCoreConfig::paper();
    vec![
        ("decoder", decoder("dec", 5, 20, true).unwrap()),
        ("sram_32x10_p1", sram_at(&mut lib, 32, 10, 1, 16)),
        ("sram_128x10_p4", sram_at(&mut lib, 128, 10, 4, 16)),
        ("sram_1024x16_p4_b64", sram_at(&mut lib, 1024, 16, 4, 64)),
        ("pam_lim", generate_lim(&tech, &pam, &mut lib).unwrap()),
        (
            "pam_conv",
            generate_conventional(&tech, &pam, &mut lib).unwrap(),
        ),
        (
            "interp_lim",
            interpolation::generate_lim(&tech, &interp, &mut lib).unwrap(),
        ),
        (
            "interp_full_table",
            interpolation::generate_full_table(&tech, &interp, &mut lib).unwrap(),
        ),
        (
            "cam_block",
            cam::generate_cam_block(&tech, &CamConfig::spgemm_paper(), &mut lib).unwrap(),
        ),
        (
            "spgemm_core",
            cam::generate_lim_spgemm_core(&tech, &core, &mut lib).unwrap(),
        ),
        ("smart_mem", smart_mem_netlist(64)),
        (
            "heap_spgemm_core",
            cam::generate_heap_spgemm_core(&tech, &core, &mut lib).unwrap(),
        ),
        (
            "mux_tree",
            lim_rtl::generators::mux_tree("mux", 11).unwrap(),
        ),
    ]
}

/// Names every case whose FNV-1a 64 digest differs from its pin.
fn digest_mismatches(cases: &[(&str, String)], pinned: &[(&str, u64)]) -> Vec<String> {
    assert_eq!(cases.len(), pinned.len(), "one pin per case");
    cases
        .iter()
        .zip(pinned)
        .filter_map(|((name, text), (pin_name, pin))| {
            assert_eq!(name, pin_name, "pins are listed in case order");
            let got = lim_serve::protocol::fnv1a(text.as_bytes());
            (got != *pin).then(|| format!("{name}: got {got:#018x}, pinned {pin:#018x}"))
        })
        .collect()
}

#[test]
fn generated_netlists_are_byte_identical_to_pinned_digests() {
    // FNV-1a 64 of each netlist's `Debug` rendering: cell order, names,
    // kinds, drives and connectivity. Any periphery refactor must keep
    // these unchanged; a deliberate netlist change updates them here.
    let pinned = [
        ("decoder", 0x2b73_16c2_fd4a_c58f),
        ("sram_32x10_p1", 0xbb4b_a094_3d2c_687d),
        ("sram_128x10_p4", 0x2d54_76c1_b5da_9f44),
        ("sram_1024x16_p4_b64", 0xd081_2069_a995_a15e),
        ("pam_lim", 0x1162_efa6_c911_f16b),
        ("pam_conv", 0x52d1_3c11_e089_e89f),
        ("interp_lim", 0x746e_00ed_cec9_8227),
        ("interp_full_table", 0x528d_3d0f_ca93_fc48),
        ("cam_block", 0x5d5a_ceed_5b66_6f62),
        ("spgemm_core", 0xcea8_ea97_5177_f314),
        ("smart_mem", 0x150f_5338_9e7f_f99a),
        ("heap_spgemm_core", 0x1f75_acc7_202a_ed7c),
        ("mux_tree", 0x1d77_74ee_90db_7b6c),
    ];
    let cases: Vec<(&str, String)> = pinned_netlists()
        .into_iter()
        .map(|(name, netlist)| (name, format!("{netlist:?}")))
        .collect();
    let mismatches = digest_mismatches(&cases, &pinned);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn emitted_verilog_is_byte_identical_to_pinned_digests() {
    // FNV-1a 64 of the structural Verilog `verilog::emit` writes for
    // every pinned netlist, plus `examples/smart_mem.v` lowered at the
    // other two brick depths `rtl.infer` offers. Emission rewrites must
    // keep every byte.
    let pinned = [
        ("decoder", 0x32a2_978e_d63f_9bfe),
        ("sram_32x10_p1", 0x7a66_f42c_d12b_a091),
        ("sram_128x10_p4", 0x7490_7dfe_4e65_2306),
        ("sram_1024x16_p4_b64", 0x8f94_eedf_dc34_c547),
        ("pam_lim", 0xeef0_5376_0355_993d),
        ("pam_conv", 0xdc73_2084_5fa2_fb5d),
        ("interp_lim", 0xb093_b7dd_c0b5_1bb9),
        ("interp_full_table", 0xa926_adcb_57ba_8e56),
        ("cam_block", 0x2d88_8602_46b5_0aaf),
        ("spgemm_core", 0xd50a_31cc_f5fe_4c90),
        ("smart_mem", 0xd9ee_23b4_5b99_6c14),
        ("heap_spgemm_core", 0xfee3_90c5_9ebc_7d17),
        ("mux_tree", 0xf5f1_4226_c579_199f),
        ("smart_mem_b16", 0xed3c_5fd0_ea3f_81fa),
        ("smart_mem_b32", 0x6a55_d3d4_756f_81ab),
    ];
    let extra = [("smart_mem_b16", 16), ("smart_mem_b32", 32)]
        .map(|(name, brick_words)| (name, smart_mem_netlist(brick_words)));
    let cases: Vec<(&str, String)> = pinned_netlists()
        .into_iter()
        .chain(extra)
        .map(|(name, netlist)| (name, lim_rtl::verilog::emit(&netlist)))
        .collect();
    let mismatches = digest_mismatches(&cases, &pinned);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn served_rtl_infer_result_is_byte_identical_to_pinned_digest() {
    // The whole `rtl.infer` answer for `examples/smart_mem.v` over all
    // three brick depths: plan, physical report and Verilog, as rendered
    // JSON. Covers emission, the DSE pick and the response renderer.
    use lim_obs::json::Value;
    use lim_serve::{ServeConfig, Service};

    let svc = Service::new(&ServeConfig::default());
    let params = Value::Object(vec![
        (
            "source".to_owned(),
            Value::String(include_str!("../examples/smart_mem.v").to_owned()),
        ),
        (
            "brick_words".to_owned(),
            Value::Array([16.0, 32.0, 64.0].map(Value::Number).to_vec()),
        ),
    ]);
    let result = svc
        .call("rtl.infer", &params)
        .result
        .expect("rtl.infer succeeds");
    let pinned = [("smart_mem_rtl_infer", 0x921f_22f0_9c2d_8854)];
    let mismatches = digest_mismatches(&[("smart_mem_rtl_infer", result)], &pinned);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
