//! Functional co-simulation of generated SRAM netlists.
//!
//! The gate-level simulator of `lim-rtl` evaluates the synthesized
//! periphery (decoders, bank enables, output mux) but leaves brick macros
//! to their library models. This module closes the loop: one
//! `lim_rtl::BankModel` per bank macro (pin layout
//! `lim_rtl::generators::BankPins`, the layout `sram::generate`
//! instantiates) watches the decoded wordlines and write data, keeps the
//! array contents, and drives the macro's outputs — so a whole generated
//! SRAM can be exercised with write/read transactions through the *real*
//! synthesized logic. Reads see pre-edge contents: a same-address read
//! during a write returns the old word. This is the verification step a
//! downstream user runs before trusting a generated smart memory.

use crate::error::LimError;
use crate::sram::SramConfig;
use lim_rtl::{BankModel, CellKind, Netlist, Simulator};

/// A generated SRAM netlist paired with behavioural banks, ready for
/// transactions.
#[derive(Debug)]
pub struct SramTestbench<'n> {
    config: SramConfig,
    netlist: &'n Netlist,
    sim: Simulator<'n>,
    banks: Vec<BankModel>,
}

impl<'n> SramTestbench<'n> {
    /// Binds the behavioural banks to the macros of `netlist` (which must
    /// have been produced by [`crate::sram::generate`] for `config`).
    ///
    /// # Errors
    ///
    /// Returns [`LimError::BadConfig`] when the netlist's macro population
    /// does not match the configuration; propagates simulator setup
    /// failures.
    pub fn new(config: SramConfig, netlist: &'n Netlist) -> Result<Self, LimError> {
        let sim = Simulator::new(netlist)?;
        let banks: Vec<BankModel> = netlist
            .cells()
            .iter()
            .filter(|c| matches!(c.kind, CellKind::Macro { .. }))
            .map(|c| BankModel::bind(c, config.words_per_partition(), config.bits()))
            .collect::<Result<_, _>>()
            .map_err(|e| LimError::BadConfig {
                reason: e.to_string(),
            })?;
        if banks.len() != config.partitions() {
            return Err(LimError::BadConfig {
                reason: format!(
                    "netlist has {} macros, config wants {}",
                    banks.len(),
                    config.partitions()
                ),
            });
        }
        Ok(SramTestbench {
            config,
            netlist,
            sim,
            banks,
        })
    }

    fn input_vector(&self, raddr: usize, waddr: usize, we: bool, din: u64) -> Vec<bool> {
        let bits = |x: u64, width: usize| (0..width).map(move |b| (x >> b) & 1 == 1);
        let ab = self.config.addr_bits();
        bits(raddr as u64, ab)
            .chain(bits(waddr as u64, ab))
            .chain([we])
            .chain(bits(din, self.config.bits()))
            .collect()
    }

    /// Runs one clock cycle: optionally writing `din` to `waddr` while
    /// reading `raddr`; returns the read data observed at `dout` (the
    /// value launched by the previous cycle's read, like real silicon).
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn cycle(
        &mut self,
        raddr: usize,
        waddr: usize,
        we: bool,
        din: u64,
    ) -> Result<u64, LimError> {
        let inputs = self.input_vector(raddr, waddr, we, din);
        // Settle combinational logic so the decoded wordlines and write
        // data at each macro reflect this cycle's address.
        self.sim.eval(&inputs)?;

        // Behavioural bank edge: launch reads, capture writes, drive the
        // macro outputs; then clock the synthesized logic (output mux
        // select registers etc.).
        for bank in &mut self.banks {
            bank.clock(&mut self.sim);
        }
        self.sim.step(&inputs)?;

        Ok(self.sim.word(self.netlist.primary_outputs()))
    }

    /// Convenience: write `din` to `addr` (read side parked at 0).
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn write(&mut self, addr: usize, din: u64) -> Result<(), LimError> {
        self.cycle(0, addr, true, din)?;
        Ok(())
    }

    /// Convenience: read `addr` (two cycles: launch, then capture).
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn read(&mut self, addr: usize) -> Result<u64, LimError> {
        self.cycle(addr, 0, false, 0)?;
        // The data is launched; a second cycle with the same address
        // propagates it through the registered output mux.
        self.cycle(addr, 0, false, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram;
    use lim_brick::BrickLibrary;
    use lim_tech::Technology;

    fn bench_for(words: usize, partitions: usize) -> (SramConfig, Netlist) {
        let tech = Technology::cmos65();
        let mut lib = BrickLibrary::new();
        let cfg = SramConfig::new(words, 10, partitions, 16).unwrap();
        let n = sram::generate(&tech, &cfg, &mut lib).unwrap();
        (cfg, n)
    }

    #[test]
    fn write_then_read_back_single_bank() {
        let (cfg, n) = bench_for(32, 1);
        let mut tb = SramTestbench::new(cfg, &n).unwrap();
        tb.write(5, 0b10_1101_0011 & 0x3ff).unwrap();
        tb.write(17, 0x2aa).unwrap();
        assert_eq!(tb.read(5).unwrap(), 0b10_1101_0011 & 0x3ff);
        assert_eq!(tb.read(17).unwrap(), 0x2aa);
        // Unwritten location reads zero.
        assert_eq!(tb.read(3).unwrap(), 0);
    }

    #[test]
    fn partitioned_sram_reads_through_the_bank_mux() {
        let (cfg, n) = bench_for(128, 4);
        let mut tb = SramTestbench::new(cfg, &n).unwrap();
        // One address in every bank.
        for (i, addr) in [2usize, 40, 70, 100].iter().enumerate() {
            tb.write(*addr, (0x111 * (i as u64 + 1)) & 0x3ff).unwrap();
        }
        for (i, addr) in [2usize, 40, 70, 100].iter().enumerate() {
            assert_eq!(
                tb.read(*addr).unwrap(),
                (0x111 * (i as u64 + 1)) & 0x3ff,
                "bank {i}"
            );
        }
    }

    #[test]
    fn writes_do_not_alias_across_banks() {
        let (cfg, n) = bench_for(128, 4);
        let mut tb = SramTestbench::new(cfg, &n).unwrap();
        // Same local offset in all four banks: distinct values survive.
        for bank in 0..4usize {
            tb.write(bank * 32 + 7, 0x100 + bank as u64).unwrap();
        }
        for bank in 0..4usize {
            assert_eq!(tb.read(bank * 32 + 7).unwrap(), 0x100 + bank as u64);
        }
    }

    #[test]
    fn simultaneous_read_write_different_addresses() {
        let (cfg, n) = bench_for(32, 1);
        let mut tb = SramTestbench::new(cfg, &n).unwrap();
        tb.write(9, 0x155).unwrap();
        // Read 9 while writing 10.
        tb.cycle(9, 10, true, 0x2bb).unwrap();
        let got = tb.cycle(9, 0, false, 0).unwrap();
        assert_eq!(got, 0x155);
        assert_eq!(tb.read(10).unwrap(), 0x2bb);
    }

    #[test]
    fn same_address_read_during_write_returns_old_word() {
        let (cfg, n) = bench_for(32, 1);
        let mut tb = SramTestbench::new(cfg, &n).unwrap();
        tb.write(9, 0x155).unwrap();
        // Read 9 while overwriting it: the read sees the pre-edge word,
        // the same non-blocking ordering the smart-memory testbench uses.
        assert_eq!(tb.cycle(9, 9, true, 0x2bb).unwrap(), 0x155);
        assert_eq!(tb.read(9).unwrap(), 0x2bb);
    }

    #[test]
    fn mismatched_netlist_rejected() {
        let (_, n32) = bench_for(32, 1);
        let cfg128 = SramConfig::new(128, 10, 4, 16).unwrap();
        assert!(matches!(
            SramTestbench::new(cfg128, &n32),
            Err(LimError::BadConfig { .. })
        ));
    }
}
