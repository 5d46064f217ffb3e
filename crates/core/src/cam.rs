//! CAM smart-memory generation (paper Fig. 5).
//!
//! A horizontal CAM block stores keys in a CAM brick, detects matches in a
//! single cycle, priority-decodes the match lines to address a companion
//! scratch-pad SRAM brick, and integrates a multiply-and-add block with a
//! write-back driver. A one-hot sequencer (instead of a decoder) walks
//! entries when draining results. This module generates both the single
//! CAM block netlist and the full SpGEMM cores (LiM and heap baseline)
//! used for the paper's chip-level comparison.

use crate::error::LimError;
use lim_brick::{BitcellKind, BrickLibrary, BrickSpec};
use lim_rtl::generators::{or_tree, register_bus, BankPins};
use lim_rtl::{NetId, Netlist, StdCellKind};
use lim_tech::Technology;

/// Configuration of one horizontal CAM block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CamConfig {
    /// CAM entries (rows).
    pub entries: usize,
    /// Key width (row-index bits; 10 in the paper).
    pub key_bits: usize,
    /// Value width stored in the companion SRAM.
    pub data_bits: usize,
}

impl CamConfig {
    /// The paper's SpGEMM operating point: 16 entries of 10-bit keys and
    /// 10-bit values.
    pub fn spgemm_paper() -> Self {
        CamConfig {
            entries: 16,
            key_bits: 10,
            data_bits: 10,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LimError::BadConfig`] for zero dimensions or more than
    /// 256 entries.
    pub fn validate(&self) -> Result<(), LimError> {
        if self.entries == 0 || self.key_bits == 0 || self.data_bits == 0 {
            return Err(LimError::BadConfig {
                reason: "CAM dimensions must be non-zero".into(),
            });
        }
        if self.entries > 256 {
            return Err(LimError::BadConfig {
                reason: format!("{} CAM entries exceed the supported 256", self.entries),
            });
        }
        Ok(())
    }

    /// CAM brick spec (keys).
    ///
    /// # Errors
    ///
    /// Propagates brick validation.
    pub fn cam_spec(&self) -> Result<BrickSpec, LimError> {
        Ok(BrickSpec::new(BitcellKind::Cam, self.entries, self.key_bits)?)
    }

    /// Companion scratch-pad SRAM brick spec (values).
    ///
    /// # Errors
    ///
    /// Propagates brick validation.
    pub fn sram_spec(&self) -> Result<BrickSpec, LimError> {
        Ok(BrickSpec::new(
            BitcellKind::Sram8T,
            self.entries,
            self.data_bits,
        )?)
    }
}

/// Log-depth priority decode over match lines: a parallel-prefix OR
/// network computes `any[i] = ml[0] | … | ml[i]`, then
/// `sel[i] = ml[i] & !any[i−1]` — lowest index wins, in `O(log n)` logic
/// levels instead of a serial chain (the mismatch-detection block of
/// Fig. 5, built the way a real design would).
///
/// Returns `(grants, hit)`.
fn priority_decode(
    n: &mut Netlist,
    mls: &[NetId],
    label: &str,
) -> Result<(Vec<NetId>, NetId), LimError> {
    let count = mls.len();
    // Parallel-prefix OR (Kogge–Stone shape).
    let mut any: Vec<NetId> = mls.to_vec();
    let mut span = 1usize;
    let mut level = 0usize;
    while span < count {
        let mut next = any.clone();
        for i in span..count {
            next[i] = n.add_gate(
                StdCellKind::Or2,
                1.0,
                &[any[i], any[i - span]],
                format!("{label}_pfx{level}_{i}"),
            )?;
        }
        any = next;
        span *= 2;
        level += 1;
    }
    let mut grants = Vec::with_capacity(count);
    for (i, &ml) in mls.iter().enumerate() {
        let g = if i == 0 {
            n.add_gate(StdCellKind::Buf, 1.0, &[ml], format!("{label}_sel0"))?
        } else {
            let blocked = n.add_gate(
                StdCellKind::Inv,
                1.0,
                &[any[i - 1]],
                format!("{label}_nblk{i}"),
            )?;
            n.add_gate(
                StdCellKind::And2,
                1.0,
                &[ml, blocked],
                format!("{label}_sel{i}"),
            )?
        };
        grants.push(g);
    }
    Ok((grants, any[count - 1]))
}

/// Ensures `library` holds the CAM and scratch-pad entries for `config`,
/// returning their names.
fn ensure_entries(
    tech: &Technology,
    config: &CamConfig,
    library: &mut BrickLibrary,
) -> Result<(String, String), LimError> {
    let cam_spec = config.cam_spec()?;
    let sram_spec = config.sram_spec()?;
    let cam_name = format!("{}_x1", cam_spec.instance_name());
    let sram_name = format!("{}_x1", sram_spec.instance_name());
    library.get_or_insert(tech, &cam_spec, 1)?;
    library.get_or_insert(tech, &sram_spec, 1)?;
    Ok((cam_name, sram_name))
}

/// Generates a single horizontal CAM block netlist.
///
/// Inputs: `clk`, `search[key_bits]`, `en`. Outputs: `hit`, plus the
/// priority-decoded entry select `sel[entries]`.
///
/// # Errors
///
/// Propagates configuration, brick and netlist errors.
pub fn generate_cam_block(
    tech: &Technology,
    config: &CamConfig,
    library: &mut BrickLibrary,
) -> Result<Netlist, LimError> {
    config.validate()?;
    let (cam_name, _) = ensure_entries(tech, config, library)?;

    let mut n = Netlist::new(format!("hcam_{}x{}", config.entries, config.key_bits));
    let clk = n.add_clock("clk");
    let en = n.add_input("en");
    let search: Vec<NetId> = (0..config.key_bits)
        .map(|i| n.add_input(format!("search[{i}]")))
        .collect();

    // Search register: the key is launched into the CAM on the clock.
    let search_q = register_bus(&mut n, &search, |i| format!("search_q[{i}]"));

    // CAM macro: match lines out.
    let mut macro_inputs = vec![clk, en];
    macro_inputs.extend(&search_q);
    let match_lines = n.add_macro(
        "u_cam",
        cam_name,
        &macro_inputs,
        config.entries,
        "ml",
    );

    // Mismatch-detection block: log-depth priority decode of the match
    // lines (acts as the scratch-pad's address when a match exists).
    let (grants, any_hit) = priority_decode(&mut n, &match_lines, "pd")?;
    for &g in &grants {
        n.mark_output(g);
    }
    let hit = n.add_gate(StdCellKind::Buf, 2.0, &[any_hit], "hit")?;
    n.mark_output(hit);

    n.validate()?;
    Ok(n)
}

/// Configuration of a full SpGEMM compute core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpgemmCoreConfig {
    /// Horizontal CAM count (the sub-block column count N; 32 in the
    /// paper).
    pub n_columns: usize,
    /// Per-column CAM configuration.
    pub cam: CamConfig,
}

impl SpgemmCoreConfig {
    /// The paper's chip: 32 horizontal CAMs of 16x10 b plus one vertical
    /// CAM with 32 entries.
    pub fn paper() -> Self {
        SpgemmCoreConfig {
            n_columns: 32,
            cam: CamConfig::spgemm_paper(),
        }
    }
}

/// Builds one multiply-add lane: a pipelined carry-save array multiplier
/// (truncated to `data_bits`, the fixed-point datapath of the
/// accelerators) between registered operands. Each row is one full-adder
/// level deep and registered — the multiplier is fully retimed, as both
/// accelerator datapaths tolerate latency. Returns the merged product
/// bits.
fn mac_lane(
    n: &mut Netlist,
    a: &[NetId],
    b: &[NetId],
    label: &str,
) -> Result<Vec<NetId>, LimError> {
    let bits = a.len();
    let zero = n.add_tie(false, format!("{label}_zero"));
    // Carry-save state at absolute bit weights 0..bits.
    let mut s: Vec<NetId> = vec![zero; bits];
    let mut c: Vec<NetId> = vec![zero; bits];
    for (j, &b_j) in b.iter().enumerate().take(bits) {
        let mut s_new = s.clone();
        let mut c_new = vec![zero; bits];
        for (i, &a_i) in a.iter().enumerate().take(bits - j) {
            let w = i + j;
            let pp = n.add_gate(
                StdCellKind::And2,
                1.0,
                &[a_i, b_j],
                format!("{label}_pp{j}_{i}"),
            )?;
            if j == 0 {
                s_new[w] = pp;
            } else {
                s_new[w] = n.add_gate(
                    StdCellKind::FaSum,
                    1.0,
                    &[pp, s[w], c[w]],
                    format!("{label}_s{j}_{w}"),
                )?;
                if w + 1 < bits {
                    c_new[w + 1] = n.add_gate(
                        StdCellKind::FaCarry,
                        1.0,
                        &[pp, s[w], c[w]],
                        format!("{label}_c{j}_{w}"),
                    )?;
                }
            }
        }
        // Register the carry-save state between rows.
        if j + 1 < bits {
            s = register_bus(n, &s_new, |w| format!("{label}_sq{j}_{w}"));
            c = register_bus(n, &c_new, |w| format!("{label}_cq{j}_{w}"));
        } else {
            s = s_new;
            c = c_new;
        }
    }
    // Final vector merge: ripple-add the registered sum and carry vectors.
    let s_q = register_bus(n, &s, |w| format!("{label}_msq{w}"));
    let c_q = register_bus(n, &c, |w| format!("{label}_mcq{w}"));
    let mut carry = zero;
    let mut merged = Vec::with_capacity(bits);
    for w in 0..bits {
        merged.push(n.add_gate(
            StdCellKind::FaSum,
            1.0,
            &[s_q[w], c_q[w], carry],
            format!("{label}_m{w}"),
        )?);
        carry = n.add_gate(
            StdCellKind::FaCarry,
            1.0,
            &[s_q[w], c_q[w], carry],
            format!("{label}_mc{w}"),
        )?;
    }
    Ok(merged)
}

/// Generates the LiM CAM-SpGEMM compute core (paper Fig. 5): `n_columns`
/// horizontal CAM blocks, each with priority decode, a scratch-pad SRAM
/// brick and a multiply-add / write-back lane, plus one vertical CAM
/// activating columns by column-index match.
///
/// # Errors
///
/// Propagates configuration, brick and netlist errors.
pub fn generate_lim_spgemm_core(
    tech: &Technology,
    config: &SpgemmCoreConfig,
    library: &mut BrickLibrary,
) -> Result<Netlist, LimError> {
    config.cam.validate()?;
    let (cam_name, sram_name) = ensure_entries(tech, &config.cam, library)?;
    // Vertical CAM: one entry per column, keyed by column index.
    let vcam_spec = BrickSpec::new(BitcellKind::Cam, config.n_columns, config.cam.key_bits)?;
    let vcam_name = format!("{}_x1", vcam_spec.instance_name());
    library.get_or_insert(tech, &vcam_spec, 1)?;

    let mut n = Netlist::new(format!("lim_spgemm_core_n{}", config.n_columns));
    let clk = n.add_clock("clk");
    let key: Vec<NetId> = (0..config.cam.key_bits)
        .map(|i| n.add_input(format!("row_idx[{i}]")))
        .collect();
    let col_key: Vec<NetId> = (0..config.cam.key_bits)
        .map(|i| n.add_input(format!("col_idx[{i}]")))
        .collect();
    let a_val: Vec<NetId> = (0..config.cam.data_bits)
        .map(|i| n.add_input(format!("a_val[{i}]")))
        .collect();
    let b_val: Vec<NetId> = (0..config.cam.data_bits)
        .map(|i| n.add_input(format!("b_val[{i}]")))
        .collect();

    // Vertical CAM: activates the horizontal CAM whose column index hits.
    let mut v_inputs = vec![clk];
    let en_all = n.add_tie(true, "en_all");
    v_inputs.push(en_all);
    let col_q = register_bus(&mut n, &col_key, |i| format!("col_q[{i}]"));
    v_inputs.extend(&col_q);
    let col_hot = n.add_macro("u_vcam", vcam_name, &v_inputs, config.n_columns, "col_hot");

    // Registered operands shared by all lanes.
    let a_q = register_bus(&mut n, &a_val, |i| format!("a_q[{i}]"));
    let b_q = register_bus(&mut n, &b_val, |i| format!("b_q[{i}]"));
    let key_q = register_bus(&mut n, &key, |i| format!("key_q[{i}]"));

    for (c, &hot) in col_hot.iter().enumerate().take(config.n_columns) {
        // Horizontal CAM keyed by row index, enabled by the vertical hit.
        let mut inputs = vec![clk, hot];
        inputs.extend(&key_q);
        let mls = n.add_macro(
            format!("u_hcam{c}"),
            cam_name.clone(),
            &inputs,
            config.cam.entries,
            &format!("ml{c}"),
        );
        // Mismatch-detection / log-depth priority decode.
        let (grants, hit) = priority_decode(&mut n, &mls, &format!("c{c}"))?;

        // Scratch-pad SRAM addressed by the decoded match.
        let pad = BankPins {
            clk,
            en: hit,
            rdwl: grants.clone(),
            wdwl: grants, // write side follows the same select
            wbl: a_q[..config.cam.data_bits.min(a_q.len())].to_vec(),
        };
        let stored = pad.instantiate(
            &mut n,
            format!("u_pad{c}"),
            sram_name.clone(),
            config.cam.data_bits,
            &format!("pad{c}"),
        );

        // Multiply-and-add with write-back: new = stored + a*b.
        let prod = mac_lane(&mut n, &a_q, &b_q, &format!("mac{c}"))?;
        let mut carry = n.add_tie(false, format!("wb{c}_cin"));
        let mut wb = Vec::with_capacity(config.cam.data_bits);
        for i in 0..config.cam.data_bits {
            let s = n.add_gate(
                StdCellKind::FaSum,
                1.0,
                &[stored[i], prod[i], carry],
                format!("wb{c}_s{i}"),
            )?;
            carry = n.add_gate(
                StdCellKind::FaCarry,
                1.0,
                &[stored[i], prod[i], carry],
                format!("wb{c}_c{i}"),
            )?;
            wb.push(s);
        }
        // Write-back register (drives the pad's write port next cycle).
        for (i, &w) in wb.iter().enumerate() {
            let q = n.add_dff(w, 1.0, format!("wbq{c}_{i}"));
            n.mark_output(q);
        }
        n.mark_output(hit);
    }

    n.validate()?;
    Ok(n)
}

/// Generates the heap/FIFO-based non-LiM SpGEMM core: the same number of
/// merge ways, each with a plain SRAM FIFO brick, head comparators for the
/// multi-way merge, a winner-select tree and one shared multiply-add lane.
///
/// # Errors
///
/// Propagates configuration, brick and netlist errors.
pub fn generate_heap_spgemm_core(
    tech: &Technology,
    config: &SpgemmCoreConfig,
    library: &mut BrickLibrary,
) -> Result<Netlist, LimError> {
    config.cam.validate()?;
    let (_, sram_name) = ensure_entries(tech, &config.cam, library)?;

    let mut n = Netlist::new(format!("heap_spgemm_core_n{}", config.n_columns));
    let clk = n.add_clock("clk");
    let key_bits = config.cam.key_bits;
    let a_val: Vec<NetId> = (0..config.cam.data_bits)
        .map(|i| n.add_input(format!("a_val[{i}]")))
        .collect();
    let b_val: Vec<NetId> = (0..config.cam.data_bits)
        .map(|i| n.add_input(format!("b_val[{i}]")))
        .collect();
    let a_q = register_bus(&mut n, &a_val, |i| format!("a_q[{i}]"));
    let b_q = register_bus(&mut n, &b_val, |i| format!("b_q[{i}]"));

    // One FIFO way per column: SRAM brick + head register + shift-enable
    // FSM bit; heads feed a comparator tree that picks the minimum key.
    let mut head_keys: Vec<Vec<NetId>> = Vec::with_capacity(config.n_columns);
    for w in 0..config.n_columns {
        let en = n.add_input(format!("way_en[{w}]"));
        // Head pointer: small ring of DFFs (sequencer-style).
        let mut ptr = Vec::with_capacity(config.cam.entries);
        let mut prev: Option<NetId> = None;
        for e in 0..config.cam.entries {
            let d = prev.unwrap_or(en);
            let q = n.add_dff(d, 1.0, format!("ptr{w}_{e}"));
            ptr.push(q);
            prev = Some(q);
        }
        let fifo = BankPins {
            clk,
            en,
            rdwl: ptr.clone(),
            wdwl: ptr,
            wbl: a_q[..config.cam.data_bits.min(a_q.len())].to_vec(),
        };
        let head = fifo.instantiate(
            &mut n,
            format!("u_fifo{w}"),
            sram_name.clone(),
            key_bits,
            &format!("head{w}"),
        );
        head_keys.push(head);
    }

    // Min-select comparator tree over the way heads (key compare only; the
    // real minimum circuit also muxes, modeled by a mux per comparator).
    // Each tree level is pipelined: merge networks retile trivially into
    // registers, which is exactly why the FIFO baseline clocks faster than
    // the single-cycle CAM datapath — at the cost of shifting latency.
    let mut layer: Vec<Vec<NetId>> = head_keys;
    let mut level = 0usize;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        let pairs: Vec<(Vec<NetId>, Option<Vec<NetId>>)> = {
            let mut it = layer.into_iter();
            let mut v = Vec::new();
            while let Some(a) = it.next() {
                v.push((a, it.next()));
            }
            v
        };
        for (pi, (a, b)) in pairs.into_iter().enumerate() {
            match b {
                None => next.push(a),
                Some(b) => {
                    // a < b comparator: XNOR equality chain + borrow chain
                    // approximated by XOR/OR tree plus final select.
                    let diff: Vec<NetId> = (0..key_bits)
                        .map(|i| {
                            n.add_gate(
                                StdCellKind::Xor2,
                                1.0,
                                &[a[i], b[i]],
                                format!("cmpx_l{level}_{pi}_{i}"),
                            )
                        })
                        .collect::<Result<_, _>>()?;
                    let lt = or_tree(&mut n, &diff, &format!("cmp_l{level}_{pi}"))?;
                    let sel: Vec<NetId> = (0..key_bits)
                        .map(|i| {
                            let m = n.add_gate(
                                StdCellKind::Mux2,
                                1.0,
                                &[a[i], b[i], lt],
                                format!("min_l{level}_{pi}_{i}"),
                            )?;
                            // Pipeline register per level.
                            Ok(n.add_dff(m, 1.0, format!("minq_l{level}_{pi}_{i}")))
                        })
                        .collect::<Result<_, LimError>>()?;
                    next.push(sel);
                }
            }
        }
        layer = next;
        level += 1;
    }
    let min_key = layer.pop().expect("at least one way");

    // Shared multiply-add on the winning element; the product is
    // registered before the accumulate (another pipeline cut the
    // latency-tolerant baseline affords).
    let prod_raw = mac_lane(&mut n, &a_q, &b_q, "mac")?;
    let prod = register_bus(&mut n, &prod_raw, |i| format!("prod_q[{i}]"));
    let mut carry = n.add_tie(false, "acc_cin");
    for i in 0..config.cam.data_bits {
        let s = n.add_gate(
            StdCellKind::FaSum,
            1.0,
            &[min_key[i % key_bits], prod[i], carry],
            format!("acc_s{i}"),
        )?;
        carry = n.add_gate(
            StdCellKind::FaCarry,
            1.0,
            &[min_key[i % key_bits], prod[i], carry],
            format!("acc_c{i}"),
        )?;
        let q = n.add_dff(s, 1.0, format!("acc_q[{i}]"));
        n.mark_output(q);
    }

    n.validate()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cam_block_generates_and_validates() {
        let tech = Technology::cmos65();
        let mut lib = BrickLibrary::new();
        let cfg = CamConfig::spgemm_paper();
        let n = generate_cam_block(&tech, &cfg, &mut lib).unwrap();
        assert!(n.validate().is_ok());
        // sel[entries] + hit outputs.
        assert_eq!(n.primary_outputs().len(), cfg.entries + 1);
        assert!(lib.get("brick_cam_16_10_x1").is_ok());
    }

    #[test]
    fn cam_config_validation() {
        let mut cfg = CamConfig::spgemm_paper();
        cfg.entries = 0;
        assert!(cfg.validate().is_err());
        cfg.entries = 512;
        assert!(cfg.validate().is_err());
        assert!(CamConfig::spgemm_paper().validate().is_ok());
    }

    #[test]
    fn lim_core_small_config() {
        let tech = Technology::cmos65();
        let mut lib = BrickLibrary::new();
        let cfg = SpgemmCoreConfig {
            n_columns: 4,
            cam: CamConfig {
                entries: 8,
                key_bits: 6,
                data_bits: 6,
            },
        };
        let n = generate_lim_spgemm_core(&tech, &cfg, &mut lib).unwrap();
        assert!(n.validate().is_ok());
        // 4 horizontal CAMs + 4 pads + 1 vertical CAM.
        let macros = n
            .cells()
            .iter()
            .filter(|c| matches!(c.kind, lim_rtl::CellKind::Macro { .. }))
            .count();
        assert_eq!(macros, 9);
    }

    #[test]
    fn heap_core_small_config() {
        let tech = Technology::cmos65();
        let mut lib = BrickLibrary::new();
        let cfg = SpgemmCoreConfig {
            n_columns: 4,
            cam: CamConfig {
                entries: 8,
                key_bits: 6,
                data_bits: 6,
            },
        };
        let n = generate_heap_spgemm_core(&tech, &cfg, &mut lib).unwrap();
        assert!(n.validate().is_ok());
        let macros = n
            .cells()
            .iter()
            .filter(|c| matches!(c.kind, lim_rtl::CellKind::Macro { .. }))
            .count();
        assert_eq!(macros, 4); // 4 FIFO ways, no CAMs
    }

    #[test]
    fn lim_core_uses_cam_bricks_heap_does_not() {
        let tech = Technology::cmos65();
        let mut lib = BrickLibrary::new();
        let cfg = SpgemmCoreConfig {
            n_columns: 2,
            cam: CamConfig {
                entries: 8,
                key_bits: 6,
                data_bits: 6,
            },
        };
        let lim = generate_lim_spgemm_core(&tech, &cfg, &mut lib).unwrap();
        let heap = generate_heap_spgemm_core(&tech, &cfg, &mut lib).unwrap();
        let uses_cam = |n: &Netlist| {
            n.cells().iter().any(|c| match &c.kind {
                lim_rtl::CellKind::Macro { lib_name } => lib_name.contains("cam"),
                _ => false,
            })
        };
        assert!(uses_cam(&lim));
        assert!(!uses_cam(&heap));
    }
}
