//! Backward-Euler transient solver.
//!
//! The solver discretizes the node equations `C dv/dt = −G v + I(t)` with
//! the unconditionally stable backward-Euler rule
//! `(G + C/Δt) v_{n+1} = (C/Δt) v_n + I(t_{n+1})` and solves the linear
//! system by LU factorization. The factorization is reused across steps and
//! refreshed only when a switch changes state (conductance topology
//! change), which makes long RC-ladder simulations cheap.
//!
//! There is one factorization backend: banded LU without pivoting.
//! Extracted memory arrays are chains of RC segments, so after a reverse
//! Cuthill–McKee reordering of the connectivity graph ([`crate::sparse`])
//! the system matrix is banded with a small half-bandwidth; it then
//! factors in `O(n·k²)` and solves each step in `O(n·k)`. Every element a
//! [`Circuit`] can hold has a positive value, so `G + C/Δt` is a
//! symmetric, diagonally dominant M-matrix, for which elimination without
//! pivoting is stable at any bandwidth. A node with neither capacitance
//! nor a DC path fails the relative pivot check as
//! [`CircuitError::SingularSystem`].
//!
//! The engine is a *multi-RHS panel*: any number of runs that share
//! connectivity structure and stepping advance in lockstep, one panel
//! column each ([`run_probed_batch`]). Columns whose stamped `G + C/Δt`
//! matrices are bit-identical share a single factorization (a
//! *factorization class*); when a column's switch state diverges it
//! migrates to the class matching its new matrix, factoring afresh only
//! if no class has seen that matrix. A single [`TransientSim::run`] is a
//! one-entry batch, so batched and sequential results are bit-identical
//! by construction.
//!
//! Supply energy is integrated alongside: every driver's delivered energy
//! is `∫ v_target · i dt`, which for a full charge of capacitance C to Vdd
//! converges to the textbook `C·Vdd²`.

use crate::error::CircuitError;
use crate::netlist::{Circuit, NodeId, SourceId, SwitchControl, SwitchTerminal};
use crate::sparse::{adjacency, half_bandwidth, positions, rcm_order, Banded, Panel};
use crate::waveform::{Edge, Waveform};
use lim_tech::units::{Femtojoules, Picoseconds, Volts};

/// A transient simulation of a [`Circuit`].
#[derive(Debug, Clone)]
pub struct TransientSim<'a> {
    circuit: &'a Circuit,
}

/// One run in a [`run_probed_batch`] call: a circuit, the nodes whose
/// waveforms to record, and the integration window.
#[derive(Debug, Clone, Copy)]
pub struct BatchRun<'a> {
    /// The circuit to integrate.
    pub circuit: &'a Circuit,
    /// Nodes whose waveforms are recorded (as for
    /// [`TransientSim::run_probed`]).
    pub probes: &'a [NodeId],
    /// End of the integration window.
    pub t_end: Picoseconds,
    /// Fixed time step.
    pub dt: Picoseconds,
}

impl<'a> TransientSim<'a> {
    /// Prepares a simulation of `circuit`.
    pub fn new(circuit: &'a Circuit) -> Self {
        TransientSim { circuit }
    }

    /// Integrates from `t = 0` to `t_end` with fixed step `dt`, recording
    /// every node's waveform.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::BadTimeStep`] when `dt ≤ 0` or `t_end < dt`.
    /// * [`CircuitError::SingularSystem`] when some node has neither a DC
    ///   path to a driver nor capacitance.
    /// * Any validation error from [`Circuit::validate`].
    pub fn run(&self, t_end: Picoseconds, dt: Picoseconds) -> Result<TransientResult, CircuitError> {
        let every_node: Vec<NodeId> = (0..self.circuit.node_count()).map(NodeId).collect();
        self.run_probed(&every_node, t_end, dt)
    }

    /// Like [`TransientSim::run`], but records waveforms only for the
    /// `probes` nodes. Final voltages and energies are still available
    /// for every node, so recharge-energy accounting works unchanged;
    /// only [`TransientResult::waveform`] (and the crossing/slew helpers
    /// built on it) is restricted to probed nodes. This keeps golden
    /// validation from allocating `O(nodes × steps)` traces it never
    /// reads.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::run`].
    pub fn run_probed(
        &self,
        probes: &[NodeId],
        t_end: Picoseconds,
        dt: Picoseconds,
    ) -> Result<TransientResult, CircuitError> {
        let run = BatchRun {
            circuit: self.circuit,
            probes,
            t_end,
            dt,
        };
        let mut out = run_probed_batch(&[run])?;
        Ok(out.pop().expect("one run yields one result"))
    }
}

/// Integrates a batch of runs, advancing runs that share connectivity
/// structure and stepping as one blocked multi-RHS banded solve.
///
/// Identical runs (same circuit, probes and window) are executed once
/// and their results cloned. Within a lockstep group, columns whose
/// stamped matrices are bit-identical share a single factorization per
/// switch-state change. Each run's result is bit-identical to running
/// it alone through [`TransientSim::run_probed`].
///
/// Observability counters: `transient.batched_runs` (runs submitted),
/// `transient.banded_runs` (runs executed after dedup),
/// `transient.batch_groups` (lockstep panels formed),
/// `transient.shared_factorizations` (column joins to an existing
/// factorization class), `transient.deduped_runs` (identical runs
/// executed once).
///
/// # Errors
///
/// As for [`TransientSim::run`], for any run in the batch.
pub fn run_probed_batch(runs: &[BatchRun<'_>]) -> Result<Vec<TransientResult>, CircuitError> {
    if runs.is_empty() {
        return Ok(Vec::new());
    }
    lim_obs::counter_add("transient.batched_runs", runs.len() as u64);
    let mut windows: Vec<(u64, usize)> = Vec::with_capacity(runs.len());
    for r in runs {
        r.circuit.validate()?;
        check_window(r.t_end, r.dt)?;
        let steps = (r.t_end.value() / r.dt.value()).ceil() as usize;
        windows.push((r.dt.value().to_bits(), steps));
    }

    // Identical runs share one execution.
    let mut rep_of: Vec<usize> = vec![0; runs.len()];
    let mut reps: Vec<usize> = Vec::new();
    'dedup: for (i, r) in runs.iter().enumerate() {
        for &j in &reps {
            let o = &runs[j];
            if windows[i] == windows[j]
                && r.t_end.value().to_bits() == o.t_end.value().to_bits()
                && r.probes == o.probes
                && r.circuit == o.circuit
            {
                rep_of[i] = j;
                lim_obs::counter_add("transient.deduped_runs", 1);
                continue 'dedup;
            }
        }
        rep_of[i] = i;
        reps.push(i);
    }

    // Symbolic analysis per representative; representatives with equal
    // connectivity and stepping form one lockstep group.
    let analyses: Vec<Symbolic> = reps.iter().map(|&i| analyze(runs[i].circuit)).collect();
    let mut groups: Vec<Vec<usize>> = Vec::new(); // indices into `reps`
    'group: for (ri, sym) in analyses.iter().enumerate() {
        for g in &mut groups {
            let first = g[0];
            // Same step size and same connectivity: columns lockstep on
            // shared t and ordering; differing step counts are fine — a
            // shorter run retires early.
            if windows[reps[ri]].0 == windows[reps[first]].0 && analyses[first].adj == sym.adj {
                g.push(ri);
                continue 'group;
            }
        }
        groups.push(vec![ri]);
    }

    let mut results: Vec<Option<TransientResult>> = vec![None; runs.len()];
    for g in &groups {
        lim_obs::counter_add("transient.batch_groups", 1);
        lim_obs::counter_add("transient.banded_runs", g.len() as u64);
        let sym = &analyses[g[0]];
        let dt = runs[reps[g[0]]].dt;
        let jobs: Vec<GroupJob<'_>> = g
            .iter()
            .map(|&ri| {
                let r = &runs[reps[ri]];
                GroupJob {
                    ckt: r.circuit,
                    probed: resolve_probes(r.probes),
                    steps: windows[reps[ri]].1,
                }
            })
            .collect();
        let out = run_banded_group(jobs, &sym.order, &sym.pos, sym.k, dt)?;
        for (&ri, res) in g.iter().zip(out) {
            results[reps[ri]] = Some(res);
        }
    }
    for i in 0..runs.len() {
        if rep_of[i] != i {
            results[i] = results[rep_of[i]].clone();
        }
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("every run was executed or cloned"))
        .collect())
}

fn check_window(t_end: Picoseconds, dt: Picoseconds) -> Result<(), CircuitError> {
    let (dt_v, t_end_v) = (dt.value(), t_end.value());
    if dt_v <= 0.0 || t_end_v < dt_v || !dt_v.is_finite() || !t_end_v.is_finite() {
        return Err(CircuitError::BadTimeStep {
            dt: dt_v,
            t_end: t_end_v,
        });
    }
    Ok(())
}

/// Sorted, deduplicated node indices to trace.
fn resolve_probes(probes: &[NodeId]) -> Vec<usize> {
    let mut ids: Vec<usize> = probes.iter().map(|p| p.0).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Symbolic analysis of a circuit's connectivity: RCM ordering and the
/// half-bandwidth of the permuted system.
struct Symbolic {
    adj: Vec<Vec<usize>>,
    order: Vec<usize>,
    pos: Vec<usize>,
    k: usize,
}

fn analyze(ckt: &Circuit) -> Symbolic {
    let n = ckt.node_count();
    // Connectivity includes every switch whether or not it is closed,
    // so the band structure is valid for all switch states.
    let edges = ckt
        .resistors
        .iter()
        .map(|r| (r.a, r.b))
        .chain(ckt.switches.iter().filter_map(|s| match s.b {
            SwitchTerminal::Node(b) => Some((s.a, b)),
            SwitchTerminal::Ground => None,
        }));
    let adj = adjacency(n, edges);
    let order = rcm_order(&adj);
    let pos = positions(&order);
    let k = half_bandwidth(&adj, &pos);
    Symbolic { adj, order, pos, k }
}

/// One member of a lockstep banded group.
struct GroupJob<'a> {
    ckt: &'a Circuit,
    /// Sorted, deduplicated node indices to trace.
    probed: Vec<usize>,
    /// Steps this run integrates (columns may retire before the group's
    /// longest run finishes).
    steps: usize,
}

/// Per-run state inside the banded panel engine.
struct Column<'a> {
    ckt: &'a Circuit,
    probed: Vec<usize>,
    traces: Vec<Vec<f64>>,
    /// Static stamp in permuted coordinates, including `C/Δt` on the
    /// diagonal; cloned and switch-stamped on each state change.
    template: Banded,
    /// Permuted `C/Δt` history coefficients. Precomputing the division
    /// is bit-identical to dividing every step (same operands) and
    /// turns the hottest per-node-step op into a multiply.
    c_over_dt_p: Vec<f64>,
    /// Current switch states. Voltage-controlled switches latch once
    /// triggered, so for those this doubles as the latch.
    sw_state: Vec<bool>,
    supply_energy: f64,
    source_energy: Vec<f64>,
    /// Index into the group's factorization classes.
    class: usize,
    /// This run's step count; past it the column is retired.
    steps: usize,
    /// Permuted voltages captured at the column's final step.
    final_p: Vec<f64>,
}

const NO_CLASS: usize = usize::MAX;

/// A factorization shared by every panel column whose stamped
/// `G + C/Δt` matrix is bit-identical. `matrix` keeps the unfactored
/// stamp for membership tests.
struct FactorClass {
    matrix: Banded,
    lu: Banded,
}

fn stamp_switches(template: &Banded, ckt: &Circuit, sw_state: &[bool], pos: &[usize]) -> Banded {
    let mut a = template.clone();
    for (sw, closed) in ckt.switches.iter().zip(sw_state) {
        if *closed {
            let g = 1.0 / sw.r_on;
            let pa = pos[sw.a];
            match sw.b {
                SwitchTerminal::Ground => a.add(pa, pa, g),
                SwitchTerminal::Node(b) => {
                    let pb = pos[b];
                    a.add(pa, pa, g);
                    a.add(pb, pb, g);
                    a.add(pa, pb, -g);
                    a.add(pb, pa, -g);
                }
            }
        }
    }
    a
}

/// Advances every job of one lockstep group as a blocked multi-RHS
/// banded solve. All jobs share `order`/`pos` (equal connectivity) and
/// the step size; each contributes one fixed panel column and retires
/// after its own step count. Per-column arithmetic is independent and
/// ordered exactly as a lone run's, so results are bit-identical to
/// running each job alone.
fn run_banded_group(
    jobs: Vec<GroupJob<'_>>,
    order: &[usize],
    pos: &[usize],
    k: usize,
    dt: Picoseconds,
) -> Result<Vec<TransientResult>, CircuitError> {
    let dt_v = dt.value();
    let n = order.len();
    let b = jobs.len();
    let max_steps = jobs.iter().map(|j| j.steps).max().unwrap_or(0);

    let mut columns: Vec<Column<'_>> = jobs
        .into_iter()
        .map(|job| {
            let ckt = job.ckt;
            let mut template = Banded::zeros(n, k);
            for r in &ckt.resistors {
                let g = 1.0 / r.r;
                let (pa, pb) = (pos[r.a], pos[r.b]);
                template.add(pa, pa, g);
                template.add(pb, pb, g);
                template.add(pa, pb, -g);
                template.add(pb, pa, -g);
            }
            for s in &ckt.sources {
                let p = pos[s.node];
                template.add(p, p, 1.0 / s.r_series);
            }
            let mut c_over_dt_p = vec![0.0; n];
            for (i, &c) in ckt.caps.iter().enumerate() {
                template.add(pos[i], pos[i], c / dt_v);
                c_over_dt_p[pos[i]] = c / dt_v;
            }
            let traces = job
                .probed
                .iter()
                .map(|&i| {
                    let mut t = Vec::with_capacity(job.steps + 1);
                    t.push(ckt.initial_v[i]);
                    t
                })
                .collect();
            Column {
                ckt,
                probed: job.probed,
                traces,
                template,
                c_over_dt_p,
                sw_state: vec![false; ckt.switches.len()],
                supply_energy: 0.0,
                source_energy: vec![0.0; ckt.sources.len()],
                class: NO_CLASS,
                steps: job.steps,
                final_p: Vec::new(),
            }
        })
        .collect();

    // Group-wide voltage panel: one fixed column per run, rows in the
    // shared permuted coordinates.
    let mut panel = Panel::new(n);
    let mut vbuf = vec![0.0; n];
    for col in &columns {
        for (p, &node) in order.iter().enumerate() {
            vbuf[p] = col.ckt.initial_v[node];
        }
        panel.push_col(&vbuf);
    }
    // `C/Δt` aligned with the panel, built once — columns never move.
    let mut codt = vec![0.0; n * b];
    for (c, col) in columns.iter().enumerate() {
        for p in 0..n {
            codt[p * b + c] = col.c_over_dt_p[p];
        }
    }

    let mut classes: Vec<FactorClass> = Vec::new();
    // Interleaved coefficient streams for the k ≤ 1 fast path: each
    // row carries every column's sub-diagonal L, super-diagonal U and
    // reciprocal pivot, so one sweep advances all columns' mutually
    // independent recurrences together — the serial dependency chain of
    // a lone tridiagonal solve overlaps across columns.
    let mut l_p = vec![0.0; n * b];
    let mut u_p = vec![0.0; n * b];
    let mut inv_p = vec![0.0; n * b];
    let mut sw_buf: Vec<bool> = Vec::new();

    for step in 1..=max_steps {
        let t = step as f64 * dt_v;
        let mut classes_changed = false;

        // Phase 1: evaluate switches and reassign factorization classes
        // for active columns whose state changed.
        for (c, col) in columns.iter_mut().enumerate() {
            if step > col.steps {
                continue; // retired
            }
            sw_buf.clear();
            for (i, s) in col.ckt.switches.iter().enumerate() {
                let closed = match s.control {
                    SwitchControl::Timed { .. } => {
                        s.is_closed_at(t).expect("timed switch resolves by time")
                    }
                    SwitchControl::VoltageAbove { node, threshold } => {
                        col.sw_state[i] || panel.get(pos[node], c) >= threshold
                    }
                    SwitchControl::VoltageBelow { node, threshold } => {
                        col.sw_state[i] || panel.get(pos[node], c) <= threshold
                    }
                };
                sw_buf.push(closed);
            }
            let mut changed = col.class == NO_CLASS;
            for (state, &new) in col.sw_state.iter_mut().zip(&sw_buf) {
                if *state != new {
                    *state = new;
                    changed = true;
                }
            }
            if !changed {
                continue;
            }
            let stamped = stamp_switches(&col.template, col.ckt, &col.sw_state, pos);
            match classes.iter().position(|cl| cl.matrix.bitwise_eq(&stamped)) {
                Some(ci) => {
                    lim_obs::counter_add("transient.shared_factorizations", 1);
                    col.class = ci;
                }
                None => {
                    lim_obs::counter_add("transient.refactorizations", 1);
                    let matrix = stamped.clone();
                    let mut lu = stamped;
                    lu.factor().map_err(|e| CircuitError::SingularSystem {
                        node: order[e.row],
                        magnitude: e.magnitude,
                    })?;
                    col.class = classes.len();
                    classes.push(FactorClass { matrix, lu });
                }
            }
            classes_changed = true;
        }

        // Phase 2: history RHS in place over the whole panel, source
        // currents for active columns, then the solve sweep. Retired
        // columns keep being swept (their values are never read again);
        // skipping them would cost a branch in the hot loops.
        for (d, &cdt) in panel.data_mut().iter_mut().zip(&codt) {
            *d *= cdt;
        }
        for (c, col) in columns.iter().enumerate() {
            if step > col.steps {
                continue;
            }
            for src in &col.ckt.sources {
                panel.data_mut()[pos[src.node] * b + c] += src.target_at(t) / src.r_series;
            }
        }
        if k <= 1 {
            if classes_changed {
                for (c, col) in columns.iter().enumerate() {
                    let lu = &classes[col.class].lu;
                    let inv = lu.inv_diag();
                    for i in 0..n {
                        inv_p[i * b + c] = inv[i];
                        if k == 1 {
                            if i > 0 {
                                l_p[i * b + c] = lu.get(i, i - 1);
                            }
                            if i + 1 < n {
                                u_p[i * b + c] = lu.get(i, i + 1);
                            }
                        }
                    }
                }
            }
            solve_interleaved(panel.data_mut(), n, b, &l_p, &u_p, &inv_p);
        } else {
            // General bandwidth: gather each class's active members into
            // a sub-panel and back-substitute them through the shared
            // factorization.
            for (ci, cl) in classes.iter().enumerate() {
                let members: Vec<usize> = columns
                    .iter()
                    .enumerate()
                    .filter(|(_, col)| col.class == ci && step <= col.steps)
                    .map(|(c, _)| c)
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let mut sub = Panel::new(n);
                for &c in &members {
                    panel.copy_col(c, &mut vbuf);
                    sub.push_col(&vbuf);
                }
                cl.lu.solve_many(&mut sub);
                for (si, &c) in members.iter().enumerate() {
                    for p in 0..n {
                        panel.set(p, c, sub.get(p, si));
                    }
                }
            }
        }

        // Phase 3: integrate driver energies, record probes, capture
        // final voltages of columns finishing this step.
        for (c, col) in columns.iter_mut().enumerate() {
            if step > col.steps {
                continue;
            }
            for (ki, src) in col.ckt.sources.iter().enumerate() {
                let vt = src.target_at(t);
                let i_out = (vt - panel.get(pos[src.node], c)) / src.r_series; // mA
                let e = vt * i_out * dt_v; // fJ
                col.source_energy[ki] += e;
                col.supply_energy += e;
            }
            for (trace, &node) in col.traces.iter_mut().zip(&col.probed) {
                trace.push(panel.get(pos[node], c));
            }
            if step == col.steps {
                col.final_p = (0..n).map(|p| panel.get(p, c)).collect();
            }
        }
    }

    Ok(columns
        .into_iter()
        .map(|col| {
            let mut final_v = vec![0.0; n];
            for (p, &node) in order.iter().enumerate() {
                final_v[node] = col.final_p[p];
            }
            let mut waveforms: Vec<Option<Waveform>> = (0..n).map(|_| None).collect();
            for (trace, &i) in col.traces.into_iter().zip(&col.probed) {
                waveforms[i] = Some(Waveform::new(Picoseconds::ZERO, dt, trace));
            }
            TransientResult {
                waveforms,
                final_v,
                supply_energy: Femtojoules::new(col.supply_energy),
                source_energy: col.source_energy.into_iter().map(Femtojoules::new).collect(),
            }
        })
        .collect())
}

/// Forward/backward substitution over a row-major panel where every
/// column carries its own diagonal or tridiagonal factorization,
/// interleaved so the per-column serial recurrences overlap. Each
/// column's arithmetic order matches a lone solve of that column.
fn solve_interleaved(data: &mut [f64], n: usize, b: usize, l_p: &[f64], u_p: &[f64], inv_p: &[f64]) {
    if n == 0 || b == 0 {
        return;
    }
    // Forward: x_i -= L(i, i−1) · x_{i−1}.
    {
        let mut rows = data.chunks_exact_mut(b);
        let mut prev = rows.next().expect("n >= 1");
        for (i, row) in rows.enumerate() {
            let lrow = &l_p[(i + 1) * b..(i + 2) * b];
            for ((d, s), &l) in row.iter_mut().zip(prev.iter()).zip(lrow) {
                *d -= l * *s;
            }
            prev = row;
        }
    }
    // Backward: x_i = (x_i − U(i, i+1) · x_{i+1}) · U(i,i)⁻¹.
    {
        let mut rows = data.rchunks_exact_mut(b);
        let mut next = rows.next().expect("n >= 1");
        for (d, &inv) in next.iter_mut().zip(&inv_p[(n - 1) * b..n * b]) {
            *d *= inv;
        }
        for (ri, row) in rows.enumerate() {
            let i = n - 2 - ri;
            let urow = &u_p[i * b..(i + 1) * b];
            let invrow = &inv_p[i * b..(i + 1) * b];
            for (((d, s), &u), &inv) in row.iter_mut().zip(next.iter()).zip(urow).zip(invrow) {
                *d = (*d - u * *s) * inv;
            }
            next = row;
        }
    }
}

/// The outcome of a transient run: one waveform per probed node plus the
/// final voltage of every node and integrated supply energy.
#[derive(Debug, Clone)]
pub struct TransientResult {
    waveforms: Vec<Option<Waveform>>,
    final_v: Vec<f64>,
    supply_energy: Femtojoules,
    source_energy: Vec<Femtojoules>,
}

impl TransientResult {
    /// Waveform of `node`.
    ///
    /// # Panics
    ///
    /// Panics if the run came from [`TransientSim::run_probed`] and
    /// `node` was not in the probe list.
    pub fn waveform(&self, node: NodeId) -> &Waveform {
        self.waveforms[node.0]
            .as_ref()
            .expect("node was not probed in this transient run")
    }

    /// First crossing of `threshold` at `node` in direction `edge`.
    ///
    /// # Panics
    ///
    /// As for [`TransientResult::waveform`].
    pub fn cross_time(&self, node: NodeId, threshold: Volts, edge: Edge) -> Option<Picoseconds> {
        self.waveform(node).cross_time(threshold, edge)
    }

    /// 10–90 % slew of `node` over the `v_low..v_high` swing.
    ///
    /// # Panics
    ///
    /// As for [`TransientResult::waveform`].
    pub fn slew(&self, node: NodeId, v_low: Volts, v_high: Volts, edge: Edge) -> Option<Picoseconds> {
        self.waveform(node).slew(v_low, v_high, edge)
    }

    /// Node voltage at time `t` (interpolated).
    ///
    /// # Panics
    ///
    /// As for [`TransientResult::waveform`].
    pub fn voltage(&self, node: NodeId, t: Picoseconds) -> Volts {
        self.waveform(node).voltage(t)
    }

    /// Final voltage of `node`. Available for every node, probed or not.
    pub fn final_voltage(&self, node: NodeId) -> Volts {
        Volts::new(self.final_v[node.0])
    }

    /// Total energy delivered by all drivers.
    pub fn supply_energy(&self) -> Femtojoules {
        self.supply_energy
    }

    /// Energy delivered by one driver.
    pub fn source_energy(&self, source: SourceId) -> Femtojoules {
        self.source_energy[source.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lim_tech::units::{Femtofarads, KiloOhms};
    use lim_testkit::prop;
    use lim_testkit::rng::TestRng;

    const VDD: f64 = 1.2;

    fn charge_circuit(r: f64, c: f64) -> (Circuit, NodeId, SourceId) {
        let mut ckt = Circuit::new();
        let n = ckt.add_node("out");
        ckt.add_cap(n, Femtofarads::new(c));
        let s = ckt.add_source(n, KiloOhms::new(r), Volts::ZERO);
        ckt.schedule(s, Picoseconds::ZERO, Volts::new(VDD));
        (ckt, n, s)
    }

    #[test]
    fn single_pole_step_response_matches_closed_form() {
        let (ckt, n, _) = charge_circuit(2.0, 10.0); // tau = 20 ps
        let res = TransientSim::new(&ckt)
            .run(Picoseconds::new(200.0), Picoseconds::new(0.02))
            .unwrap();
        // v(t) = Vdd (1 - e^{-t/tau}); check several points.
        for t in [5.0, 20.0, 60.0, 140.0] {
            let expect = VDD * (1.0 - (-t / 20.0f64).exp());
            let got = res.voltage(n, Picoseconds::new(t)).value();
            assert!(
                (got - expect).abs() < 0.01,
                "at t={t}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn charge_energy_is_c_vdd_squared() {
        let (ckt, _, s) = charge_circuit(1.0, 10.0);
        let res = TransientSim::new(&ckt)
            .run(Picoseconds::new(500.0), Picoseconds::new(0.05))
            .unwrap();
        let expect = 10.0 * VDD * VDD; // fJ
        let got = res.source_energy(s).value();
        assert!(
            (got - expect).abs() / expect < 0.01,
            "supply energy {got} vs C·Vdd² = {expect}"
        );
    }

    #[test]
    fn switch_discharges_precharged_node() {
        let mut ckt = Circuit::new();
        let n = ckt.add_node("bl");
        ckt.add_cap(n, Femtofarads::new(20.0));
        ckt.set_initial(n, Volts::new(VDD));
        ckt.add_switch_to_ground(n, KiloOhms::new(5.0), Picoseconds::new(50.0));
        let res = TransientSim::new(&ckt)
            .run(Picoseconds::new(600.0), Picoseconds::new(0.1))
            .unwrap();
        // Held high before the switch closes.
        assert!((res.voltage(n, Picoseconds::new(49.0)).value() - VDD).abs() < 1e-6);
        // Falls with tau = 100 ps after.
        let t50 = res
            .cross_time(n, Volts::new(VDD / 2.0), Edge::Falling)
            .unwrap();
        let expect = 50.0 + 100.0 * 2.0f64.ln();
        assert!(
            (t50.value() - expect).abs() < 1.0,
            "t50 {t50} vs {expect}"
        );
    }

    #[test]
    fn rc_ladder_slower_than_lumped() {
        // 4-segment ladder vs a single lumped RC with the same totals: the
        // distributed line is faster at 50% (Elmore overestimates).
        let mut ladder = Circuit::new();
        let mut prev = ladder.add_node("n0");
        let src = ladder.add_source(prev, KiloOhms::new(0.5), Volts::ZERO);
        ladder.schedule(src, Picoseconds::ZERO, Volts::new(VDD));
        ladder.add_cap(prev, Femtofarads::new(2.5));
        let mut last = prev;
        for i in 1..4 {
            let n = ladder.add_node(format!("n{i}"));
            ladder.add_resistor(prev, n, KiloOhms::new(1.0));
            ladder.add_cap(n, Femtofarads::new(2.5));
            prev = n;
            last = n;
        }
        let res = TransientSim::new(&ladder)
            .run(Picoseconds::new(150.0), Picoseconds::new(0.02))
            .unwrap();
        let t50 = res
            .cross_time(last, Volts::new(VDD / 2.0), Edge::Rising)
            .unwrap();
        assert!(t50.value() > 0.0 && t50.value() < 150.0);
        // Elmore delay for this ladder:
        // driver: 0.5 kΩ × 10 fF = 5 ps; segments: 1·(7.5) + 1·(5) + 1·(2.5).
        let elmore = 5.0 + 7.5 + 5.0 + 2.5;
        // The 50 % point of an RC ladder is ~0.7–1.0× Elmore.
        assert!(
            t50.value() < elmore && t50.value() > 0.4 * elmore,
            "t50 = {t50}, elmore = {elmore}"
        );
    }

    #[test]
    fn floating_node_is_singular() {
        let mut ckt = Circuit::new();
        let _ = ckt.add_node("float"); // no cap, no path
        let err = TransientSim::new(&ckt)
            .run(Picoseconds::new(1.0), Picoseconds::new(0.1))
            .unwrap_err();
        match err {
            CircuitError::SingularSystem { node, magnitude } => {
                assert_eq!(node, 0);
                assert_eq!(magnitude, 0.0);
            }
            other => panic!("expected SingularSystem, got {other:?}"),
        }
    }

    #[test]
    fn bad_time_step_rejected() {
        let (ckt, _, _) = charge_circuit(1.0, 1.0);
        let err = TransientSim::new(&ckt)
            .run(Picoseconds::new(1.0), Picoseconds::ZERO)
            .unwrap_err();
        assert!(matches!(err, CircuitError::BadTimeStep { .. }));
    }

    #[test]
    fn node_to_node_switch_equalizes_charge() {
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let b = ckt.add_node("b");
        ckt.add_cap(a, Femtofarads::new(10.0));
        ckt.add_cap(b, Femtofarads::new(10.0));
        ckt.set_initial(a, Volts::new(VDD));
        ckt.add_switch(a, b, KiloOhms::new(1.0), Picoseconds::new(10.0));
        let res = TransientSim::new(&ckt)
            .run(Picoseconds::new(300.0), Picoseconds::new(0.05))
            .unwrap();
        // Charge sharing: both settle at Vdd/2.
        assert!((res.final_voltage(a).value() - VDD / 2.0).abs() < 0.01);
        assert!((res.final_voltage(b).value() - VDD / 2.0).abs() < 0.01);
    }

    /// Builds an `n`-node RC ladder driven from one end.
    fn long_ladder(n: usize) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let mut prev = ckt.add_node("n0");
        ckt.add_cap(prev, Femtofarads::new(1.0));
        let src = ckt.add_source(prev, KiloOhms::new(0.5), Volts::ZERO);
        ckt.schedule(src, Picoseconds::ZERO, Volts::new(VDD));
        let mut last = prev;
        for i in 1..n {
            let node = ckt.add_node(format!("n{i}"));
            ckt.add_resistor(prev, node, KiloOhms::new(0.05));
            ckt.add_cap(node, Femtofarads::new(1.0));
            prev = node;
            last = node;
        }
        (ckt, last)
    }

    /// As [`long_ladder`] but with configurable segment resistance, so
    /// same-structure circuits with different element values exist.
    fn long_ladder_r(n: usize, seg_r: f64) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let mut prev = ckt.add_node("n0");
        ckt.add_cap(prev, Femtofarads::new(1.0));
        let src = ckt.add_source(prev, KiloOhms::new(0.5), Volts::ZERO);
        ckt.schedule(src, Picoseconds::ZERO, Volts::new(VDD));
        let mut last = prev;
        for i in 1..n {
            let node = ckt.add_node(format!("n{i}"));
            ckt.add_resistor(prev, node, KiloOhms::new(seg_r));
            ckt.add_cap(node, Femtofarads::new(1.0));
            prev = node;
            last = node;
        }
        (ckt, last)
    }

    #[test]
    fn run_probed_matches_run_and_limits_waveforms() {
        let (ladder, far) = long_ladder(24);
        let t_end = Picoseconds::new(100.0);
        let dt = Picoseconds::new(0.1);
        let full = TransientSim::new(&ladder).run(t_end, dt).unwrap();
        let probed = TransientSim::new(&ladder)
            .run_probed(&[far], t_end, dt)
            .unwrap();
        // The probed waveform is bit-identical to the full run's.
        let (a, b) = (full.waveform(far), probed.waveform(far));
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.at(i).value(), b.at(i).value());
        }
        // Energies and final voltages cover every node either way.
        assert_eq!(full.supply_energy().value(), probed.supply_energy().value());
        assert_eq!(
            full.final_voltage(NodeId(0)).value(),
            probed.final_voltage(NodeId(0)).value()
        );
    }

    #[test]
    #[should_panic(expected = "not probed")]
    fn unprobed_waveform_panics() {
        let (ladder, far) = long_ladder(10);
        let res = TransientSim::new(&ladder)
            .run_probed(&[far], Picoseconds::new(10.0), Picoseconds::new(0.1))
            .unwrap();
        let _ = res.waveform(NodeId(0));
    }

    fn assert_bit_identical(a: &TransientResult, b: &TransientResult, probe: NodeId, ctx: &str) {
        let (wa, wb) = (a.waveform(probe), b.waveform(probe));
        assert_eq!(wa.len(), wb.len(), "{ctx}: waveform length");
        for s in 0..wa.len() {
            assert_eq!(
                wa.at(s).value().to_bits(),
                wb.at(s).value().to_bits(),
                "{ctx}: sample {s}"
            );
        }
        assert_eq!(
            a.supply_energy().value().to_bits(),
            b.supply_energy().value().to_bits(),
            "{ctx}: supply energy"
        );
        for i in 0..a.final_v.len() {
            assert_eq!(
                a.final_v[i].to_bits(),
                b.final_v[i].to_bits(),
                "{ctx}: final v node {i}"
            );
        }
    }

    #[test]
    fn batch_is_bit_identical_to_sequential_runs() {
        // A mix of shapes: two same-structure ladders with different
        // element values (lockstep, separate factorization classes), an
        // exact duplicate (deduped), a different-length ladder (separate
        // group), and a switched circuit (state change mid-run).
        let (a, a_far) = long_ladder_r(24, 0.05);
        let (b, b_far) = long_ladder_r(24, 0.08);
        let (c, c_far) = long_ladder(16);
        let mut d = Circuit::new();
        let mut prev = d.add_node("n0");
        d.add_cap(prev, Femtofarads::new(2.0));
        d.set_initial(prev, Volts::new(VDD));
        for i in 1..12 {
            let node = d.add_node(format!("n{i}"));
            d.add_resistor(prev, node, KiloOhms::new(0.1));
            d.add_cap(node, Femtofarads::new(2.0));
            d.set_initial(node, Volts::new(VDD));
            prev = node;
        }
        d.add_switch_to_ground(prev, KiloOhms::new(1.0), Picoseconds::new(20.0));
        let d_far = prev;

        let t_end = Picoseconds::new(80.0);
        let dt = Picoseconds::new(0.1);
        let a_probe = [a_far];
        let b_probe = [b_far];
        let c_probe = [c_far];
        let d_probe = [d_far];
        let runs = [
            BatchRun { circuit: &a, probes: &a_probe, t_end, dt },
            BatchRun { circuit: &b, probes: &b_probe, t_end, dt },
            BatchRun { circuit: &a, probes: &a_probe, t_end, dt }, // duplicate of run 0
            BatchRun { circuit: &c, probes: &c_probe, t_end, dt },
            BatchRun { circuit: &d, probes: &d_probe, t_end, dt },
        ];
        let batch = run_probed_batch(&runs).unwrap();
        assert_eq!(batch.len(), runs.len());
        for (i, run) in runs.iter().enumerate() {
            let solo = TransientSim::new(run.circuit)
                .run_probed(run.probes, t_end, dt)
                .unwrap();
            assert_bit_identical(&batch[i], &solo, run.probes[0], &format!("run {i}"));
        }
    }

    #[test]
    fn batch_handles_tiny_and_empty_inputs() {
        assert!(run_probed_batch(&[]).unwrap().is_empty());
        let (tiny, node, _) = charge_circuit(1.0, 10.0);
        let probes = [node];
        let runs = [BatchRun {
            circuit: &tiny,
            probes: &probes,
            t_end: Picoseconds::new(50.0),
            dt: Picoseconds::new(0.05),
        }];
        let batch = run_probed_batch(&runs).unwrap();
        let solo = TransientSim::new(&tiny)
            .run_probed(&probes, Picoseconds::new(50.0), Picoseconds::new(0.05))
            .unwrap();
        assert_bit_identical(&batch[0], &solo, node, "tiny batch run");
    }

    #[test]
    fn batch_propagates_errors() {
        let mut bad = Circuit::new();
        let _ = bad.add_node("float");
        let (good, far) = long_ladder(16);
        let probes = [far];
        let no_probes: [NodeId; 0] = [];
        let runs = [
            BatchRun {
                circuit: &good,
                probes: &probes,
                t_end: Picoseconds::new(10.0),
                dt: Picoseconds::new(0.1),
            },
            BatchRun {
                circuit: &bad,
                probes: &no_probes,
                t_end: Picoseconds::new(10.0),
                dt: Picoseconds::new(0.1),
            },
        ];
        let err = run_probed_batch(&runs).unwrap_err();
        assert!(matches!(err, CircuitError::SingularSystem { .. }));
    }

    /// Random RC topology: a connected resistor tree plus chords, caps on
    /// every node, one stepped driver, and a sprinkle of switches.
    fn random_circuit(rng: &mut TestRng) -> Circuit {
        let n = 2 + rng.bounded(22) as usize;
        let mut ckt = Circuit::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| ckt.add_node(format!("n{i}"))).collect();
        for &node in &nodes {
            ckt.add_cap(node, Femtofarads::new(0.5 + 4.0 * rng.unit_f64()));
        }
        // Spanning tree keeps everything reachable.
        for i in 1..n {
            let parent = rng.bounded(i as u64) as usize;
            ckt.add_resistor(
                nodes[parent],
                nodes[i],
                KiloOhms::new(0.05 + rng.unit_f64()),
            );
        }
        // Chords raise the bandwidth unpredictably.
        for _ in 0..rng.bounded(4) {
            let a = rng.bounded(n as u64) as usize;
            let b = rng.bounded(n as u64) as usize;
            if a != b {
                ckt.add_resistor(nodes[a], nodes[b], KiloOhms::new(0.1 + rng.unit_f64()));
            }
        }
        drive_and_switch(&mut ckt, &nodes, rng);
        ckt
    }

    /// One stepped driver on a random node and, half the time, a timed
    /// switch to ground.
    fn drive_and_switch(ckt: &mut Circuit, nodes: &[NodeId], rng: &mut TestRng) {
        let n = nodes.len();
        let driven = rng.bounded(n as u64) as usize;
        let src = ckt.add_source(nodes[driven], KiloOhms::new(0.5), Volts::ZERO);
        ckt.schedule(src, Picoseconds::ZERO, Volts::new(VDD));
        if rng.gen_bool(0.5) {
            let a = rng.bounded(n as u64) as usize;
            ckt.add_switch_to_ground(
                nodes[a],
                KiloOhms::new(1.0 + rng.unit_f64()),
                Picoseconds::new(20.0),
            );
        }
    }

    /// Complete graph on 2..=10 nodes: after any reordering the
    /// half-bandwidth is `n − 1`, the fully coupled extreme.
    fn complete_circuit(rng: &mut TestRng) -> Circuit {
        let n = 2 + rng.bounded(9) as usize;
        let mut ckt = Circuit::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| ckt.add_node(format!("n{i}"))).collect();
        for (i, &a) in nodes.iter().enumerate() {
            ckt.add_cap(a, Femtofarads::new(0.5 + 4.0 * rng.unit_f64()));
            for &b in &nodes[i + 1..] {
                ckt.add_resistor(a, b, KiloOhms::new(0.05 + rng.unit_f64()));
            }
        }
        drive_and_switch(&mut ckt, &nodes, rng);
        assert_eq!(analyze(&ckt).k, n - 1);
        ckt
    }

    /// Test-only reference: a dense backward-Euler stepper that stamps
    /// `G + C/Δt` afresh every step and solves it by Gaussian
    /// elimination with partial pivoting. Returns every node's trace and
    /// the total supply energy.
    fn reference_run(ckt: &Circuit, t_end: f64, dt: f64) -> (Vec<Vec<f64>>, f64) {
        let n = ckt.node_count();
        let mut v = ckt.initial_v.clone();
        let mut traces: Vec<Vec<f64>> = v.iter().map(|&x| vec![x]).collect();
        let mut latched = vec![false; ckt.switches.len()];
        let mut energy = 0.0;
        for step in 1..=(t_end / dt).ceil() as usize {
            let t = step as f64 * dt;
            let mut a = vec![vec![0.0; n]; n];
            let mut stamp = |p: usize, q: Option<usize>, g: f64| {
                a[p][p] += g;
                if let Some(q) = q {
                    a[q][q] += g;
                    a[p][q] -= g;
                    a[q][p] -= g;
                }
            };
            for r in &ckt.resistors {
                stamp(r.a, Some(r.b), 1.0 / r.r);
            }
            for (sw, on) in ckt.switches.iter().zip(&mut latched) {
                *on = match sw.control {
                    SwitchControl::Timed { .. } => sw.is_closed_at(t).expect("timed"),
                    SwitchControl::VoltageAbove { node, threshold } => *on || v[node] >= threshold,
                    SwitchControl::VoltageBelow { node, threshold } => *on || v[node] <= threshold,
                };
                if *on {
                    let other = match sw.b {
                        SwitchTerminal::Node(b) => Some(b),
                        SwitchTerminal::Ground => None,
                    };
                    stamp(sw.a, other, 1.0 / sw.r_on);
                }
            }
            let mut x: Vec<f64> = (0..n).map(|i| ckt.caps[i] / dt * v[i]).collect();
            for (i, row) in a.iter_mut().enumerate() {
                row[i] += ckt.caps[i] / dt;
            }
            for s in &ckt.sources {
                a[s.node][s.node] += 1.0 / s.r_series;
                x[s.node] += s.target_at(t) / s.r_series;
            }
            for col in 0..n {
                let piv = (col..n)
                    .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
                    .expect("non-empty column");
                a.swap(col, piv);
                x.swap(col, piv);
                for row in col + 1..n {
                    let f = a[row][col] / a[col][col];
                    let (upper, lower) = a.split_at_mut(row);
                    for (d, p) in lower[0][col..].iter_mut().zip(&upper[col][col..]) {
                        *d -= f * p;
                    }
                    x[row] -= f * x[col];
                }
            }
            for i in (0..n).rev() {
                let tail: f64 = (i + 1..n).map(|c| a[i][c] * x[c]).sum();
                x[i] = (x[i] - tail) / a[i][i];
            }
            v = x;
            for s in &ckt.sources {
                let vt = s.target_at(t);
                energy += vt * (vt - v[s.node]) / s.r_series * dt;
            }
            for (trace, &vi) in traces.iter_mut().zip(&v) {
                trace.push(vi);
            }
        }
        (traces, energy)
    }

    fn assert_matches_reference(ckt: &Circuit) {
        let (t_end, dt) = (60.0, 0.1);
        let banded = TransientSim::new(ckt)
            .run(Picoseconds::new(t_end), Picoseconds::new(dt))
            .unwrap();
        let (traces, reference_energy) = reference_run(ckt, t_end, dt);
        for (i, trace) in traces.iter().enumerate() {
            let w = banded.waveform(NodeId(i));
            assert_eq!(w.len(), trace.len());
            for (s, &vr) in trace.iter().enumerate() {
                let vb = w.at(s).value();
                assert!(
                    (vr - vb).abs() < 1e-9,
                    "node {i} sample {s}: reference {vr} vs banded {vb}"
                );
            }
        }
        let (ea, eb) = (reference_energy, banded.supply_energy().value());
        assert!((ea - eb).abs() < 1e-6 * ea.abs().max(1.0), "{ea} vs {eb}");
    }

    #[test]
    fn prop_banded_solver_matches_dense_reference() {
        prop::check("banded_reference_agreement", |rng| {
            assert_matches_reference(&random_circuit(rng));
            assert_matches_reference(&complete_circuit(rng));
        });
    }

    #[test]
    fn prop_batched_runs_match_sequential() {
        prop::check("batch_sequential_agreement", |rng| {
            let circuits: Vec<Circuit> = (0..3).map(|_| random_circuit(rng)).collect();
            let t_end = Picoseconds::new(40.0);
            let dt = Picoseconds::new(0.1);
            let probes: Vec<[NodeId; 1]> = circuits.iter().map(|_| [NodeId(0)]).collect();
            let runs: Vec<BatchRun<'_>> = circuits
                .iter()
                .zip(&probes)
                .map(|(c, p)| BatchRun {
                    circuit: c,
                    probes: p,
                    t_end,
                    dt,
                })
                .collect();
            let batch = run_probed_batch(&runs).unwrap();
            for (i, run) in runs.iter().enumerate() {
                let solo = TransientSim::new(run.circuit)
                    .run_probed(run.probes, t_end, dt)
                    .unwrap();
                assert_bit_identical(&batch[i], &solo, NodeId(0), &format!("circuit {i}"));
            }
        });
    }
}
