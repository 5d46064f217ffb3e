//! Structural Verilog emission for gate-level netlists.
//!
//! Complements `lim-brick::verilog` (which writes brick stubs): this
//! module dumps the synthesized standard-cell logic so a full design can
//! be inspected or shipped to an external flow.

use crate::ir::{CellKind, NetId, Netlist};
use std::collections::HashSet;

/// Sanitizes a net name into a Verilog identifier (`[`/`]` → `_`).
fn ident(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() || c == '_' { c } else { '_' })
        .collect()
}

/// One emission's identifier namespace. Sanitization maps distinct
/// source names (`a[0]`, `a_0_`) onto the same identifier, and a
/// netlist may repeat a name outright, so each net or cell takes one
/// identifier and later colliders pick up a uniquifying `_2`, `_3`, …
/// suffix. First-come keeps the plain sanitized form, so collision-free
/// netlists emit unchanged.
#[derive(Debug, Default)]
struct NameTable {
    used: HashSet<String>,
}

impl NameTable {
    fn fresh(&mut self, original: &str) -> String {
        let base = ident(original);
        if self.used.insert(base.clone()) {
            return base;
        }
        (2usize..)
            .map(|k| format!("{base}_{k}"))
            .find(|candidate| self.used.insert(candidate.clone()))
            .expect("suffixes are unbounded")
    }
}

/// Emits the netlist as structural Verilog.
pub fn emit(netlist: &Netlist) -> String {
    use std::fmt::Write as _;
    let (inputs, outputs) = (netlist.primary_inputs(), netlist.primary_outputs());
    // Nets and instances are distinct Verilog namespaces with one table
    // each. Every net is named once, in a fixed order (inputs, outputs,
    // then the rest by index), so emission is reproducible.
    let mut net_table = NameTable::default();
    let mut names: Vec<Option<String>> = vec![None; netlist.net_count()];
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
        names[id.index()].get_or_insert_with(|| net_table.fresh(netlist.net_name(id)));
    }
    let names: Vec<String> = names.into_iter().flatten().collect();
    let net = |id: &NetId| names[id.index()].as_str();

    let mut v = String::new();
    let _ = writeln!(v, "// Auto-generated structural netlist: {}", netlist.name());
    let _ = writeln!(v, "module {} (", ident(netlist.name()));
    let ports: Vec<String> = inputs
        .iter()
        .map(|id| format!("  input  wire {}", net(id)))
        .chain(outputs.iter().map(|id| format!("  output wire {}", net(id))))
        .collect();
    let _ = writeln!(v, "{}", ports.join(",\n"));
    let _ = writeln!(v, ");");

    // Internal wires: everything that isn't a port.
    for (name, _) in names.iter().zip(&is_port).filter(|(_, &port)| !port) {
        let _ = writeln!(v, "  wire {name};");
    }

    let mut inst_table = NameTable::default();
    for cell in netlist.cells() {
        let cell_type = match &cell.kind {
            CellKind::Gate { kind, drive } => format!("{}_X{}", kind.name(), drive.round() as i64),
            CellKind::Macro { lib_name } => ident(lib_name),
            CellKind::Tie { value } => {
                let out = net(&cell.outputs[0]);
                let _ = writeln!(v, "  assign {out} = 1'b{};", *value as u8);
                continue;
            }
        };
        let pins: Vec<&str> = cell.inputs.iter().chain(&cell.outputs).map(net).collect();
        let inst = inst_table.fresh(&cell.name);
        let _ = writeln!(v, "  {cell_type} {inst} ({});", pins.join(", "));
    }
    let _ = writeln!(v, "endmodule");
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
