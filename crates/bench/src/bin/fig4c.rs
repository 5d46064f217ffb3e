//! Regenerates Fig. 4c: rapid design-space exploration over nine bricks.
//!
//! 128x{8,16,32}-bit single-partition SRAMs built from {16,32,64}xN-bit
//! bricks (stacked 8x/4x/2x). The paper compiles all nine bricks and
//! estimates performance, energy and area "within 2 seconds of wall clock
//! time" — the binary times itself against the same budget with one
//! wall-clock stopwatch around the whole sweep.
//!
//! Run with `cargo run --release -p lim-bench --bin fig4c`.
//! Pass `--json` for machine-readable table output.

use lim::dse::{explore, normalized, pareto_front};
use lim_bench::{finish, say, Table};
use lim_obs::{Span, Stopwatch};
use lim_tech::Technology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let run = Span::enter("fig4c");
    let tech = Technology::cmos65();

    let sw = Stopwatch::start();
    let points = explore(&tech, &[(128, 8), (128, 16), (128, 32)], &[16, 32, 64])?;
    let elapsed = sw.elapsed();

    say("Fig. 4c — design-space exploration: 9 bricks for 128xN SRAMs");
    say(&format!(
        "compiled + estimated in {:.1} ms (paper: within 2 s)\n",
        elapsed.as_secs_f64() * 1e3
    ));

    let norm = normalized(&points);
    let front = pareto_front(&points);

    let table = Table::new(
        "fig4c",
        &[
            ("configuration", 22),
            ("delay[ps]", 11),
            ("energy[pJ]", 11),
            ("area[µm²]", 11),
            ("norm d", 8),
            ("norm e", 8),
            ("norm a", 8),
            ("pareto", 7),
        ],
    );
    for (i, p) in points.iter().enumerate() {
        let (d, e, a) = norm[i];
        table.add_row(&[
            p.label.clone(),
            format!("{:.0}", p.delay.value()),
            format!("{:.2}", p.energy.to_picojoules().value()),
            format!("{:.0}", p.area.value()),
            format!("{d:.2}"),
            format!("{e:.2}"),
            format!("{a:.2}"),
            if front.contains(&i) { "*".into() } else { "".into() },
        ]);
    }

    say("\npaper observations to check:");
    say(" - within a memory size, larger bricks: slower, less energy, less area");
    let find = |bits: usize, bw: usize| {
        points
            .iter()
            .find(|p| p.bits == bits && p.brick_words == bw)
            .expect("present")
    };
    let a = find(16, 16);
    let b = find(8, 64);
    say(&format!(
        " - 128x16 @ 16x16 ({:.0} ps) faster than 128x8 @ 64x8 ({:.0} ps): {}",
        a.delay.value(),
        b.delay.value(),
        a.delay < b.delay
    ));
    let c = find(32, 64);
    say(&format!(
        " - energy 128x16 @ 16x16 ({:.2} pJ) ≈ 128x32 @ 64x32 ({:.2} pJ), ratio {:.2}",
        a.energy.to_picojoules().value(),
        c.energy.to_picojoules().value(),
        a.energy.value() / c.energy.value()
    ));
    drop(run);
    finish("fig4c");
    Ok(())
}
