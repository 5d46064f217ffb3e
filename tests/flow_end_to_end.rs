//! End-to-end flow tests crossing every crate: RTL generation → mapping →
//! brick library → physical synthesis, plus the restrictive-patterning
//! area comparison between the LiM flow and a conventional one.

use lim::flow::LimFlow;
use lim::sram::{self, SramConfig};
use lim_brick::BrickLibrary;
use lim_physical::floorplan::FloorplanOptions;
use lim_physical::flow::{FlowOptions, PhysicalSynthesis};
use lim_rtl::mapping::optimize;
use lim_tech::Technology;

#[test]
fn lim_flow_beats_conventional_flow_on_area() {
    // The same 64x10 SRAM, synthesized once with pattern-compatible
    // logic (LiM: no guard spacing) and once pretending the logic is
    // conventional (guard bands around every macro).
    let tech = Technology::cmos65();
    let mut lib = BrickLibrary::new();
    let cfg = SramConfig::new(64, 10, 2, 16).unwrap();
    let netlist = sram::generate(&tech, &cfg, &mut lib).unwrap();
    let (mapped, _) = optimize(&netlist).unwrap();

    let run = |conventional: bool| {
        let options = FlowOptions {
            floorplan: FloorplanOptions {
                conventional_logic: conventional,
                ..FloorplanOptions::default()
            },
            ..FlowOptions::default()
        };
        PhysicalSynthesis::new(&tech, &lib).run(&mapped, &options).unwrap()
    };
    let lim = run(false);
    let conventional = run(true);
    assert_eq!(lim.guard_area.value(), 0.0);
    assert!(conventional.guard_area.value() > 0.0);
    assert!(
        conventional.die_area.value() > lim.die_area.value(),
        "conventional {} vs LiM {}",
        conventional.die_area,
        lim.die_area
    );
}

#[test]
fn verilog_artifacts_are_emitted_for_the_whole_design() {
    let tech = Technology::cmos65();
    let mut lib = BrickLibrary::new();
    let cfg = SramConfig::new(32, 10, 1, 16).unwrap();
    let netlist = sram::generate(&tech, &cfg, &mut lib).unwrap();
    let text = lim_rtl::verilog::emit(&netlist);
    assert!(text.contains("module sram_32x10_p1_b16"));
    assert!(text.contains("brick_8t_16_10_x2 u_bank0"));
    assert!(text.contains("endmodule"));

    // The Fig. 3 stub pair is also available from the brick side.
    let spec = cfg.brick_spec().unwrap();
    let stub = lim_brick::verilog::brick_module(&spec);
    assert!(stub.contains("module brick_8t_16_10"));
}

#[test]
fn gate_level_simulation_of_generated_sram_periphery() {
    // Simulate the read decoder of a generated SRAM: for each address,
    // exactly one read wordline (macro input) goes hot.
    use lim_rtl::Simulator;
    let tech = Technology::cmos65();
    let mut lib = BrickLibrary::new();
    let cfg = SramConfig::new(32, 10, 1, 16).unwrap();
    let netlist = sram::generate(&tech, &cfg, &mut lib).unwrap();
    let mut sim = Simulator::new(&netlist).unwrap();

    // The bank macro's read wordlines, parsed from its pin layout.
    let macro_cell = netlist
        .cells()
        .iter()
        .find(|c| matches!(c.kind, lim_rtl::CellKind::Macro { .. }))
        .expect("one bank macro");
    let rdwl = lim_rtl::generators::BankPins::from_cell(macro_cell, 32, 10)
        .unwrap()
        .rdwl;

    // Inputs after the clock: raddr[5], waddr[5], we, din[10].
    for addr in [0usize, 7, 19, 31] {
        let mut inputs = Vec::new();
        for b in 0..5 {
            inputs.push((addr >> b) & 1 == 1); // raddr
        }
        inputs.extend([false; 5]); // waddr
        inputs.push(false); // we
        inputs.extend([false; 10]); // din
        sim.eval(&inputs).unwrap();
        let hot: Vec<usize> = rdwl
            .iter()
            .enumerate()
            .filter(|(_, &n)| sim.value(n))
            .map(|(w, _)| w)
            .collect();
        assert_eq!(hot, vec![addr], "address {addr}");
    }
}

#[test]
fn flow_results_are_reproducible() {
    let mut flow_a = LimFlow::cmos65();
    let mut flow_b = LimFlow::cmos65();
    let cfg = SramConfig::new(32, 10, 1, 16).unwrap();
    let a = flow_a.synthesize_sram(&cfg).unwrap();
    let b = flow_b.synthesize_sram(&cfg).unwrap();
    assert_eq!(a.report.fmax.value(), b.report.fmax.value());
    assert_eq!(a.report.die_area.value(), b.report.die_area.value());
    assert_eq!(
        a.report.energy_per_cycle.value(),
        b.report.energy_per_cycle.value()
    );
}
