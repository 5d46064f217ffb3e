//! Functional co-simulation of generated CAM blocks.
//!
//! Binds a behavioural CAM array (stored keys, single-cycle match) to the
//! macro inside a netlist from [`crate::cam::generate_cam_block`], and
//! drives search transactions through the *synthesized* mismatch-detect /
//! priority-decode logic — verifying the Fig. 5 periphery functionally,
//! the way `sram_sim` verifies the Fig. 3 periphery.

use crate::cam::CamConfig;
use crate::error::LimError;
use lim_rtl::{CellKind, NetId, Netlist, Simulator};

/// A generated CAM block plus behavioural storage.
#[derive(Debug)]
pub struct CamTestbench<'n> {
    config: CamConfig,
    sim: Simulator<'n>,
    /// Stored keys per entry (`None` = empty).
    keys: Vec<Option<u64>>,
    /// The macro's registered-search input nets (search_q, LSB first).
    search_q: Vec<NetId>,
    /// Match-line output nets, entry order.
    match_lines: Vec<NetId>,
    /// Primary-output order: sel[entries] then hit.
    n_outputs: usize,
}

impl<'n> CamTestbench<'n> {
    /// Binds to the single macro of a `generate_cam_block` netlist.
    ///
    /// # Errors
    ///
    /// Returns [`LimError::BadConfig`] when the netlist shape does not
    /// match `config`.
    pub fn new(config: CamConfig, netlist: &'n Netlist) -> Result<Self, LimError> {
        config.validate()?;
        let sim = Simulator::new(netlist)?;
        let cam_cell = netlist
            .cells()
            .iter()
            .find(|c| matches!(c.kind, CellKind::Macro { .. }))
            .ok_or_else(|| LimError::BadConfig {
                reason: "netlist has no CAM macro".into(),
            })?;
        // Macro inputs: clk, en, search_q[key_bits].
        if cam_cell.inputs.len() != 2 + config.key_bits
            || cam_cell.outputs.len() != config.entries
        {
            return Err(LimError::BadConfig {
                reason: format!(
                    "macro shape {}in/{}out does not match config",
                    cam_cell.inputs.len(),
                    cam_cell.outputs.len()
                ),
            });
        }
        Ok(CamTestbench {
            config,
            sim,
            keys: vec![None; config.entries],
            search_q: cam_cell.inputs[2..].to_vec(),
            match_lines: cam_cell.outputs.clone(),
            n_outputs: netlist.primary_outputs().len(),
        })
    }

    /// Stores `key` at `entry` (the write path is host-side: the chip's
    /// write port belongs to the surrounding SpGEMM datapath).
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range.
    pub fn store(&mut self, entry: usize, key: u64) {
        self.keys[entry] = Some(key & ((1 << self.config.key_bits) - 1));
    }

    /// Clears an entry.
    pub fn clear(&mut self, entry: usize) {
        self.keys[entry] = None;
    }

    /// Searches for `key`: returns `(hit, one-hot select)` as produced by
    /// the synthesized priority decode.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn search(&mut self, key: u64) -> Result<(bool, Vec<bool>), LimError> {
        let masked = key & ((1 << self.config.key_bits) - 1);
        // Inputs after the clock: en, search[key_bits].
        let mut inputs = vec![true];
        for b in 0..self.config.key_bits {
            inputs.push((masked >> b) & 1 == 1);
        }
        // Edge 1: the search register captures the key.
        self.sim.step(&inputs)?;
        // The CAM behavioural model: compare the registered key against
        // storage and drive the match lines.
        let registered = self.sim.word(&self.search_q);
        for (entry, &ml) in self.match_lines.iter().enumerate() {
            let is_match = self.keys[entry] == Some(registered);
            self.sim.force_net(ml, is_match);
        }
        // Settle the priority logic.
        let outs = self.sim.eval(&inputs)?;
        debug_assert_eq!(outs.len(), self.n_outputs);
        let hit = outs[self.config.entries];
        Ok((hit, outs[..self.config.entries].to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cam::generate_cam_block;
    use lim_brick::BrickLibrary;
    use lim_tech::Technology;

    fn bench() -> (CamConfig, Netlist) {
        let tech = Technology::cmos65();
        let mut lib = BrickLibrary::new();
        let cfg = CamConfig {
            entries: 8,
            key_bits: 6,
            data_bits: 6,
        };
        let n = generate_cam_block(&tech, &cfg, &mut lib).unwrap();
        (cfg, n)
    }

    #[test]
    fn hit_and_select_on_stored_keys() {
        let (cfg, n) = bench();
        let mut tb = CamTestbench::new(cfg, &n).unwrap();
        tb.store(2, 0b101010);
        tb.store(5, 0b000111);
        let (hit, sel) = tb.search(0b101010).unwrap();
        assert!(hit);
        assert_eq!(
            sel,
            (0..8).map(|i| i == 2).collect::<Vec<_>>(),
            "select must be one-hot at entry 2"
        );
        let (hit, sel) = tb.search(0b000111).unwrap();
        assert!(hit);
        assert!(sel[5]);
        assert_eq!(sel.iter().filter(|&&s| s).count(), 1);
    }

    #[test]
    fn miss_reports_no_hit_and_cold_select() {
        let (cfg, n) = bench();
        let mut tb = CamTestbench::new(cfg, &n).unwrap();
        tb.store(1, 0b111111);
        let (hit, sel) = tb.search(0b000001).unwrap();
        assert!(!hit);
        assert!(sel.iter().all(|&s| !s));
    }

    #[test]
    fn duplicate_keys_resolve_by_priority() {
        let (cfg, n) = bench();
        let mut tb = CamTestbench::new(cfg, &n).unwrap();
        tb.store(6, 0b010101);
        tb.store(3, 0b010101);
        let (hit, sel) = tb.search(0b010101).unwrap();
        assert!(hit);
        // Lowest index wins in the synthesized priority decode.
        assert!(sel[3]);
        assert!(!sel[6]);
        assert_eq!(sel.iter().filter(|&&s| s).count(), 1);
    }

    #[test]
    fn cleared_entries_stop_matching() {
        let (cfg, n) = bench();
        let mut tb = CamTestbench::new(cfg, &n).unwrap();
        tb.store(4, 0b001100);
        assert!(tb.search(0b001100).unwrap().0);
        tb.clear(4);
        assert!(!tb.search(0b001100).unwrap().0);
    }
}
