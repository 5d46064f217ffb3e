//! Structural Verilog emission for gate-level netlists.
//!
//! Complements `lim-brick::verilog` (which writes brick stubs): this
//! module dumps the synthesized standard-cell logic so a full design can
//! be inspected or shipped to an external flow.

use crate::ir::{Cell, CellKind, NetId, Netlist};
use std::collections::hash_map::RandomState;
use std::fmt::Write as _;
use std::hash::BuildHasher;

/// Appends `name` sanitized into a Verilog identifier (every character
/// that is not alphanumeric or `_` becomes `_`, so `a[0]` → `a_0_`).
fn push_ident(out: &mut String, name: &str) {
    if name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
        out.push_str(name);
    } else {
        out.extend(name.chars().map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        }));
    }
}

/// One emission's identifier namespace. Sanitization maps distinct
/// source names (`a[0]`, `a_0_`) onto the same identifier, and a
/// netlist may repeat a name outright, so each net or cell takes one
/// identifier and later colliders pick up a uniquifying `_2`, `_3`, …
/// suffix. First-come keeps the plain sanitized form, so collision-free
/// netlists emit unchanged.
///
/// A netlist has one identifier per net and per cell (7k of each for
/// `examples/smart_mem.v`), so identifiers are written back to back
/// into one `text` buffer, and the set of used ones is an open-addressed
/// table of indices into it: claiming a name allocates nothing. Names
/// come from user source, so probing starts from a randomly keyed
/// SipHash, as `HashSet` would.
#[derive(Debug)]
struct NameTable {
    text: String,
    /// `text` range of each identifier, in claim order.
    spans: Vec<(usize, usize)>,
    /// Open-addressed set: 0 is empty, `i + 1` holds `spans[i]`. Sized
    /// at creation to stay at most half full.
    slots: Vec<usize>,
    hasher: RandomState,
}

impl NameTable {
    /// A table for exactly `names` calls to [`NameTable::fresh`].
    fn with_capacity(names: usize) -> Self {
        NameTable {
            text: String::with_capacity(names * 24),
            spans: Vec::with_capacity(names),
            slots: vec![0; (2 * names).next_power_of_two().max(2)],
            hasher: RandomState::new(),
        }
    }

    /// Identifier `i`, in claim order.
    fn get(&self, i: usize) -> &str {
        let (start, end) = self.spans[i];
        &self.text[start..end]
    }

    /// Claims `original`, sanitized and uniquified, and returns its
    /// index for [`NameTable::get`].
    fn fresh(&mut self, original: &str) -> usize {
        let start = self.text.len();
        push_ident(&mut self.text, original);
        let base = self.text.len();
        for k in 2usize.. {
            if self.claim(start) {
                break;
            }
            self.text.truncate(base);
            let _ = write!(self.text, "_{k}");
        }
        self.spans.len() - 1
    }

    /// Records `text[start..]` as a new identifier unless it is already
    /// used, in which case it returns false and records nothing.
    fn claim(&mut self, start: usize) -> bool {
        // A full table would probe forever; sizing is the caller's count.
        assert!(
            2 * self.spans.len() < self.slots.len(),
            "more names than the table was sized for"
        );
        let name = &self.text[start..];
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(name) as usize & mask;
        while self.slots[slot] != 0 {
            if self.get(self.slots[slot] - 1) == name {
                return false;
            }
            slot = (slot + 1) & mask;
        }
        self.spans.push((start, self.text.len()));
        self.slots[slot] = self.spans.len();
        true
    }
}

/// A cell's pins in instance order: inputs, then outputs.
fn pins(cell: &Cell) -> impl Iterator<Item = NetId> + '_ {
    cell.inputs.iter().chain(&cell.outputs).copied()
}

/// Emits the netlist as structural Verilog.
pub fn emit(netlist: &Netlist) -> String {
    let (inputs, outputs) = (netlist.primary_inputs(), netlist.primary_outputs());
    // Nets and instances are distinct Verilog namespaces with one table
    // each. Every net is named once, in a fixed order (inputs, outputs,
    // then the rest by index), so emission is reproducible.
    let mut nets = NameTable::with_capacity(netlist.net_count());
    let mut net_ident = vec![usize::MAX; netlist.net_count()];
    let mut is_port = vec![false; netlist.net_count()];
    for &id in inputs.iter().chain(outputs) {
        is_port[id.index()] = true;
    }
    let order = inputs
        .iter()
        .chain(outputs)
        .copied()
        .chain((0..netlist.net_count()).map(NetId::from_index));
    for id in order {
        if net_ident[id.index()] == usize::MAX {
            net_ident[id.index()] = nets.fresh(netlist.net_name(id));
        }
    }
    let net = |id: NetId| nets.get(net_ident[id.index()]);

    // Size the buffer once: every net name, every pin and a per-line
    // allowance for keywords, punctuation and instance names.
    let capacity = 64
        + 2 * netlist.name().len()
        + nets.text.len()
        + 16 * netlist.net_count()
        + netlist
            .cells()
            .iter()
            .map(|c| 32 + c.name.len() + pins(c).map(|id| net(id).len() + 2).sum::<usize>())
            .sum::<usize>();
    let mut v = String::with_capacity(capacity);
    v.push_str("// Auto-generated structural netlist: ");
    v.push_str(netlist.name());
    v.push_str("\nmodule ");
    push_ident(&mut v, netlist.name());
    v.push_str(" (\n");
    let ports = inputs
        .iter()
        .map(|&id| ("  input  wire ", id))
        .chain(outputs.iter().map(|&id| ("  output wire ", id)));
    for (i, (decl, id)) in ports.enumerate() {
        if i > 0 {
            v.push_str(",\n");
        }
        v.push_str(decl);
        v.push_str(net(id));
    }
    v.push_str("\n);\n");

    // Internal wires: everything that isn't a port.
    for (&ident, _) in net_ident.iter().zip(&is_port).filter(|(_, &port)| !port) {
        v.push_str("  wire ");
        v.push_str(nets.get(ident));
        v.push_str(";\n");
    }

    let mut insts = NameTable::with_capacity(netlist.cell_count());
    for cell in netlist.cells() {
        v.push_str("  ");
        match &cell.kind {
            CellKind::Gate { kind, drive } => {
                let _ = write!(v, "{}_X{}", kind.name(), drive.round() as i64);
            }
            CellKind::Macro { lib_name } => push_ident(&mut v, lib_name),
            CellKind::Tie { value } => {
                let _ = writeln!(v, "assign {} = 1'b{};", net(cell.outputs[0]), *value as u8);
                continue;
            }
        }
        v.push(' ');
        let inst = insts.fresh(&cell.name);
        v.push_str(insts.get(inst));
        v.push_str(" (");
        for (i, id) in pins(cell).enumerate() {
            if i > 0 {
                v.push_str(", ");
            }
            v.push_str(net(id));
        }
        v.push_str(");\n");
    }
    v.push_str("endmodule\n");
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::decoder;

    #[test]
    fn emits_ports_and_instances() {
        let dec = decoder("dec2to4", 2, 4, true).unwrap();
        let v = emit(&dec);
        assert!(v.contains("module dec2to4 ("));
        assert!(v.contains("input  wire addr_0_"));
        assert!(v.contains("input  wire en"));
        assert!(v.contains("output wire out_3_"));
        assert!(v.contains("INV_X2"));
        assert!(v.contains("AND2_X1"));
        assert!(v.contains("endmodule"));
    }

    #[test]
    fn colliding_sanitized_names_are_uniquified() {
        use crate::ir::Netlist;
        use crate::stdcell::StdCellKind;
        // `a[0]` and `a_0_` both sanitize to `a_0_`; the second comer
        // must pick up a suffix instead of silently shorting the wires.
        let mut n = Netlist::new("clash");
        let a = n.add_input("a[0]");
        let b = n.add_input("a_0_");
        let x = n.add_gate(StdCellKind::And2, 1.0, &[a, b], "y").unwrap();
        n.mark_output(x);
        let v = emit(&n);
        assert!(v.contains("input  wire a_0_,"), "first comer keeps the plain name:\n{v}");
        assert!(v.contains("input  wire a_0__2"), "second comer is uniquified:\n{v}");
        assert!(v.contains("AND2_X1 u_y (a_0_, a_0__2, y);"), "{v}");
        // Every emitted identifier is unique across the port list.
        let mut seen = std::collections::HashSet::new();
        for line in v.lines() {
            if let Some(name) = line.trim().strip_prefix("input  wire ") {
                assert!(seen.insert(name.trim_end_matches(',').to_owned()), "{line}");
            }
        }

        // Repeated names, not just sanitization clashes: two nets and two
        // cells called `t` must still become distinct wires and instances.
        let mut n = Netlist::new("same");
        let a = n.add_input("a");
        let t1 = n.add_gate(StdCellKind::Inv, 1.0, &[a], "t").unwrap();
        let t2 = n.add_gate(StdCellKind::Buf, 1.0, &[t1], "t").unwrap();
        n.mark_output(t2);
        let v = emit(&n);
        assert!(v.contains("output wire t\n"), "{v}");
        assert!(v.contains("  wire t_2;"), "{v}");
        assert!(v.contains("INV_X1 u_t (a, t_2);"), "{v}");
        assert!(v.contains("BUF_X1 u_t_2 (t_2, t);"), "{v}");
    }

    #[test]
    fn name_table_suffixes_first_come() {
        let mut t = NameTable::with_capacity(109);
        let names = ["t", "t", "t_2", "a[0]", "a_0_", "t"];
        let mut claim = |name: &str| {
            let id = t.fresh(name);
            t.get(id).to_owned()
        };
        let got: Vec<String> = names.iter().map(|n| claim(n)).collect();
        assert_eq!(got, ["t", "t_2", "t_2_2", "a_0_", "a_0__2", "t_3"]);
        for i in 0..100 {
            assert_eq!(claim(&format!("n{i}")), format!("n{i}"));
        }
        assert_eq!(claim("n7"), "n7_2");
        assert_eq!(claim("t"), "t_4");
    }

    #[test]
    fn every_cell_appears_once() {
        let dec = decoder("dec3to8", 3, 8, false).unwrap();
        let v = emit(&dec);
        let instances = v.lines().filter(|l| l.trim_start().starts_with("AND2")).count();
        let and_cells = dec
            .cells()
            .iter()
            .filter(|c| matches!(&c.kind, CellKind::Gate { kind, .. } if kind.name() == "AND2"))
            .count();
        assert_eq!(instances, and_cells);
    }
}
