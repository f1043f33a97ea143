//! `axnl-v1` — the versioned JSON netlist schema.
//!
//! A flat, dependency-free encoding of a [`Netlist`] designed for
//! tooling that would rather not parse Verilog: explicit net ids,
//! cells in topological order, LUT INITs as 16-digit hex strings
//! (JSON numbers cannot carry 64 bits losslessly), and a trailing
//! metadata `hash` — the FNV-1a fingerprint of the canonical Verilog
//! export — so any edit or corruption after export is detected at
//! read time. The exact net numbering is preserved, which makes
//! `from_axnl(to_axnl(n))` reproduce `n` field-for-field and keeps
//! the fingerprint (and therefore every characterization-cache key)
//! stable across a JSON round trip.
//!
//! Top-level document shape:
//!
//! ```json
//! {
//!   "format": "axnl-v1",
//!   "name": "...",
//!   "net_count": 42,
//!   "inputs":  [{"name": "a", "nets": [0, 1, 2, 3]}],
//!   "outputs": [{"name": "p", "nets": [9, 12, 15, 17]}],
//!   "constants": [{"net": 8, "value": false}],
//!   "cells": [
//!     {"type": "LUT6_2", "init": "6666666666666666",
//!      "inputs": [0, 4, 8, 8, 8, 8], "o6": 9, "o5": 10},
//!     {"type": "CARRY4", "ci": 8,
//!      "s": [10, 11, 12, 13], "di": [0, 1, 2, 3],
//!      "o": [14, 15, 16, 17], "co": [null, null, null, 18]}
//!   ],
//!   "hash": "9c1f0e6b1a2d3c4b"
//! }
//! ```
//!
//! The reader validates everything the writer guarantees — format
//! string, id ranges, single-driver coverage of every net, INIT
//! width — and reports violations as [`NetioError::Schema`] with a
//! JSON path, or [`NetioError::HashMismatch`] when the document and
//! its payload disagree.

use std::collections::BTreeMap;

use axmul_fabric::export::to_verilog;
use axmul_fabric::{Cell, CellId, Driver, Init, NetId, Netlist};

use crate::error::NetioError;
use crate::json::{self, Value};
use crate::verilog::{MAX_CELLS, MAX_NETS};

/// The format tag this module writes and the only one it reads.
pub const AXNL_FORMAT: &str = "axnl-v1";

/// 64-bit FNV-1a over a byte string.
#[must_use]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The canonical content fingerprint of a netlist: FNV-1a over its
/// structural-Verilog export. Because `export → import → export` is a
/// byte fixpoint, an imported netlist fingerprints identically to its
/// in-process twin — which is what lets warm characterization caches
/// hit for externally supplied designs.
#[must_use]
pub fn fingerprint(netlist: &Netlist) -> u64 {
    fnv1a(to_verilog(netlist).as_bytes())
}

fn id(net: NetId) -> Value {
    Value::int(net.index())
}

fn opt_id(net: Option<NetId>) -> Value {
    net.map_or(Value::Null, id)
}

/// Serializes a netlist as an `axnl-v1` JSON document (pretty-stable:
/// object keys render in sorted order, so output is deterministic).
#[must_use]
pub fn to_axnl(netlist: &Netlist) -> String {
    let bus = |(name, nets): &(String, Vec<NetId>)| {
        Value::obj([
            ("name", Value::str(name.clone())),
            ("nets", Value::Arr(nets.iter().copied().map(id).collect())),
        ])
    };
    let constants: Vec<Value> = netlist
        .drivers()
        .iter()
        .enumerate()
        .filter_map(|(n, d)| match d {
            Driver::Const(v) => Some(Value::obj([
                ("net", Value::int(n)),
                ("value", Value::Bool(*v)),
            ])),
            _ => None,
        })
        .collect();
    let cells: Vec<Value> = netlist
        .cells()
        .iter()
        .map(|cell| match cell {
            Cell::Lut {
                init,
                inputs,
                o6,
                o5,
            } => Value::obj([
                ("type", Value::str("LUT6_2")),
                ("init", Value::str(format!("{:016X}", init.raw()))),
                (
                    "inputs",
                    Value::Arr(inputs.iter().copied().map(id).collect()),
                ),
                ("o6", id(*o6)),
                ("o5", opt_id(*o5)),
            ]),
            Cell::Carry4 { cin, s, di, o, co } => Value::obj([
                ("type", Value::str("CARRY4")),
                ("ci", id(*cin)),
                ("s", Value::Arr(s.iter().copied().map(id).collect())),
                ("di", Value::Arr(di.iter().copied().map(id).collect())),
                ("o", Value::Arr(o.iter().copied().map(opt_id).collect())),
                ("co", Value::Arr(co.iter().copied().map(opt_id).collect())),
            ]),
        })
        .collect();
    let doc = Value::obj([
        ("format", Value::str(AXNL_FORMAT)),
        ("name", Value::str(netlist.name())),
        ("net_count", Value::int(netlist.drivers().len())),
        (
            "inputs",
            Value::Arr(netlist.input_buses().iter().map(bus).collect()),
        ),
        (
            "outputs",
            Value::Arr(netlist.output_buses().iter().map(bus).collect()),
        ),
        ("constants", Value::Arr(constants)),
        ("cells", Value::Arr(cells)),
        ("hash", Value::str(format!("{:016x}", fingerprint(netlist)))),
    ]);
    format!("{doc}\n")
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

fn schema(path: impl Into<String>, message: impl Into<String>) -> NetioError {
    NetioError::Schema {
        path: path.into(),
        message: message.into(),
    }
}

fn get<'v>(v: &'v Value, key: &str, path: &str) -> Result<&'v Value, NetioError> {
    v.get(key)
        .ok_or_else(|| schema(format!("{path}{key}"), "missing required field"))
}

fn get_str<'v>(v: &'v Value, key: &str, path: &str) -> Result<&'v str, NetioError> {
    get(v, key, path)?
        .as_str()
        .ok_or_else(|| schema(format!("{path}{key}"), "expected a string"))
}

fn get_arr<'v>(v: &'v Value, key: &str, path: &str) -> Result<&'v [Value], NetioError> {
    get(v, key, path)?
        .as_arr()
        .ok_or_else(|| schema(format!("{path}{key}"), "expected an array"))
}

fn net_at(v: &Value, path: &str, net_count: usize) -> Result<NetId, NetioError> {
    let n = v
        .as_u64()
        .ok_or_else(|| schema(path, "expected a net id (non-negative integer)"))?;
    if (n as usize) < net_count {
        Ok(NetId::new(n as u32))
    } else {
        Err(schema(
            path,
            format!("net id {n} out of range (net_count is {net_count})"),
        ))
    }
}

fn hex64(s: &str, path: &str) -> Result<u64, NetioError> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(schema(path, "expected exactly 16 hex digits"));
    }
    u64::from_str_radix(s, 16).map_err(|_| schema(path, "expected exactly 16 hex digits"))
}

/// Tracks driver assignment while rebuilding the table, rejecting
/// double coverage with a path-qualified schema error.
struct DriverTable {
    slots: Vec<Option<Driver>>,
}

impl DriverTable {
    fn claim(&mut self, net: NetId, driver: Driver, path: &str) -> Result<(), NetioError> {
        let slot = &mut self.slots[net.index()];
        if slot.is_some() {
            return Err(schema(
                path,
                format!("net {} already has a driver", net.index()),
            ));
        }
        *slot = Some(driver);
        Ok(())
    }
}

/// Parses an `axnl-v1` document back into a validated [`Netlist`].
///
/// # Errors
///
/// [`NetioError::Json`] for malformed JSON, [`NetioError::Schema`] /
/// [`NetioError::UnsupportedFormat`] for structural violations, and
/// [`NetioError::HashMismatch`] when the `hash` field disagrees with
/// the reconstructed netlist's fingerprint.
pub fn from_axnl(text: &str) -> Result<Netlist, NetioError> {
    let doc = json::parse(text)?;
    let format = get_str(&doc, "format", "")?;
    if format != AXNL_FORMAT {
        return Err(NetioError::UnsupportedFormat {
            found: format.to_string(),
        });
    }
    let name = get_str(&doc, "name", "")?.to_string();
    let net_count = get(&doc, "net_count", "")?
        .as_u64()
        .ok_or_else(|| schema("net_count", "expected a non-negative integer"))?
        as usize;
    if net_count > MAX_NETS {
        return Err(NetioError::LimitExceeded {
            what: "nets",
            limit: MAX_NETS,
        });
    }
    let mut table = DriverTable {
        slots: vec![None; net_count],
    };

    let read_buses = |key: &'static str| -> Result<Vec<(String, Vec<NetId>)>, NetioError> {
        let arr = get_arr(&doc, key, "")?;
        let mut buses = Vec::with_capacity(arr.len());
        let mut seen = BTreeMap::new();
        for (i, bus) in arr.iter().enumerate() {
            let path = format!("{key}[{i}].");
            let bname = get_str(bus, "name", &path)?.to_string();
            if seen.insert(bname.clone(), ()).is_some() {
                return Err(schema(
                    format!("{path}name"),
                    format!("duplicate bus name `{bname}`"),
                ));
            }
            let nets = get_arr(bus, "nets", &path)?
                .iter()
                .enumerate()
                .map(|(j, v)| net_at(v, &format!("{path}nets[{j}]"), net_count))
                .collect::<Result<Vec<_>, _>>()?;
            if nets.is_empty() {
                return Err(schema(
                    format!("{path}nets"),
                    "bus must have at least 1 bit",
                ));
            }
            buses.push((bname, nets));
        }
        Ok(buses)
    };
    let inputs = read_buses("inputs")?;
    let outputs = read_buses("outputs")?;
    if inputs.len() > usize::from(u16::MAX) {
        return Err(NetioError::LimitExceeded {
            what: "input buses",
            limit: usize::from(u16::MAX),
        });
    }
    for (bus, (_, nets)) in inputs.iter().enumerate() {
        if nets.len() > usize::from(u16::MAX) {
            return Err(NetioError::LimitExceeded {
                what: "input bus bits",
                limit: usize::from(u16::MAX),
            });
        }
        for (bit, &net) in nets.iter().enumerate() {
            table.claim(
                net,
                Driver::Input(bus as u16, bit as u16),
                &format!("inputs[{bus}].nets[{bit}]"),
            )?;
        }
    }

    for (i, c) in get_arr(&doc, "constants", "")?.iter().enumerate() {
        let path = format!("constants[{i}].");
        let net = net_at(get(c, "net", &path)?, &format!("{path}net"), net_count)?;
        let value = get(c, "value", &path)?
            .as_bool()
            .ok_or_else(|| schema(format!("{path}value"), "expected a boolean"))?;
        table.claim(net, Driver::Const(value), &format!("{path}net"))?;
    }

    let cell_docs = get_arr(&doc, "cells", "")?;
    if cell_docs.len() > MAX_CELLS {
        return Err(NetioError::LimitExceeded {
            what: "cells",
            limit: MAX_CELLS,
        });
    }
    let mut cells = Vec::with_capacity(cell_docs.len());
    for (i, c) in cell_docs.iter().enumerate() {
        let path = format!("cells[{i}].");
        let cell_id = CellId::new(i as u32);
        let ty = get_str(c, "type", &path)?;
        let fixed4 = |key: &str| -> Result<[NetId; 4], NetioError> {
            let arr = get_arr(c, key, &path)?;
            if arr.len() != 4 {
                return Err(schema(
                    format!("{path}{key}"),
                    format!("expected exactly 4 net ids, found {}", arr.len()),
                ));
            }
            Ok([
                net_at(&arr[0], &format!("{path}{key}[0]"), net_count)?,
                net_at(&arr[1], &format!("{path}{key}[1]"), net_count)?,
                net_at(&arr[2], &format!("{path}{key}[2]"), net_count)?,
                net_at(&arr[3], &format!("{path}{key}[3]"), net_count)?,
            ])
        };
        let cell = match ty {
            "LUT6_2" => {
                let init = hex64(get_str(c, "init", &path)?, &format!("{path}init"))?;
                let inputs_arr = get_arr(c, "inputs", &path)?;
                if inputs_arr.len() != 6 {
                    return Err(schema(
                        format!("{path}inputs"),
                        format!("expected exactly 6 net ids, found {}", inputs_arr.len()),
                    ));
                }
                let mut pins = [NetId::new(0); 6];
                for (k, v) in inputs_arr.iter().enumerate() {
                    pins[k] = net_at(v, &format!("{path}inputs[{k}]"), net_count)?;
                }
                let o6 = net_at(get(c, "o6", &path)?, &format!("{path}o6"), net_count)?;
                table.claim(o6, Driver::LutO6(cell_id), &format!("{path}o6"))?;
                let o5 = match get(c, "o5", &path)? {
                    Value::Null => None,
                    v => {
                        let n = net_at(v, &format!("{path}o5"), net_count)?;
                        table.claim(n, Driver::LutO5(cell_id), &format!("{path}o5"))?;
                        Some(n)
                    }
                };
                Cell::Lut {
                    init: Init::from_raw(init),
                    inputs: pins,
                    o6,
                    o5,
                }
            }
            "CARRY4" => {
                let cin = net_at(get(c, "ci", &path)?, &format!("{path}ci"), net_count)?;
                let s = fixed4("s")?;
                let di = fixed4("di")?;
                let mut opt4 = |key: &str,
                                mk: fn(CellId, u8) -> Driver|
                 -> Result<[Option<NetId>; 4], NetioError> {
                    let arr = get_arr(c, key, &path)?;
                    if arr.len() != 4 {
                        return Err(schema(
                            format!("{path}{key}"),
                            format!("expected exactly 4 entries, found {}", arr.len()),
                        ));
                    }
                    let mut out = [None; 4];
                    for (k, v) in arr.iter().enumerate() {
                        if matches!(v, Value::Null) {
                            continue;
                        }
                        let n = net_at(v, &format!("{path}{key}[{k}]"), net_count)?;
                        table.claim(n, mk(cell_id, k as u8), &format!("{path}{key}[{k}]"))?;
                        out[k] = Some(n);
                    }
                    Ok(out)
                };
                let o = opt4("o", Driver::CarrySum)?;
                let co = opt4("co", Driver::CarryCout)?;
                Cell::Carry4 { cin, s, di, o, co }
            }
            other => {
                return Err(schema(
                    format!("{path}type"),
                    format!("unknown cell type `{other}` (LUT6_2 or CARRY4)"),
                ))
            }
        };
        cells.push(cell);
    }

    if let Some(net) = table.slots.iter().position(Option::is_none) {
        return Err(schema(
            "net_count",
            format!("net {net} has no driver (not an input, constant, or cell output)"),
        ));
    }
    let drivers: Vec<Driver> = table.slots.into_iter().map(Option::unwrap).collect();

    let claimed = hex64(get_str(&doc, "hash", "")?, "hash")?;
    let netlist = Netlist::from_parts(name, drivers, cells, inputs, outputs);
    let actual = fingerprint(&netlist);
    if actual != claimed {
        return Err(NetioError::HashMismatch {
            expected: actual,
            found: claimed,
        });
    }
    Ok(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmul_fabric::NetlistBuilder;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("axnl sample");
        let a = b.inputs("a", 4);
        let c = b.inputs("b", 4);
        let mut props = Vec::new();
        for i in 0..4 {
            let (o6, _) = b.lut2(Init::XOR2, a[i], c[i]);
            props.push(o6);
        }
        let zero = b.constant(false);
        let (sums, cout) = b.carry_chain(zero, &props, &a);
        b.output_bus("s", &sums);
        b.output("cout", cout);
        b.finish().unwrap()
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let nl = sample();
        let doc = to_axnl(&nl);
        let back = from_axnl(&doc).unwrap();
        assert_eq!(nl.name(), back.name());
        assert_eq!(nl.drivers(), back.drivers());
        assert_eq!(nl.cells(), back.cells());
        assert_eq!(nl.input_buses(), back.input_buses());
        assert_eq!(nl.output_buses(), back.output_buses());
        assert_eq!(to_axnl(&back), doc, "to_axnl ∘ from_axnl is a fixpoint");
        assert_eq!(fingerprint(&nl), fingerprint(&back));
    }

    #[test]
    fn tampered_documents_are_rejected() {
        let doc = to_axnl(&sample());
        // Flip one INIT nibble: hash check must catch it.
        let tampered = doc.replace("6666666666666666", "6666666666666667");
        assert!(matches!(
            from_axnl(&tampered).unwrap_err(),
            NetioError::HashMismatch { .. }
        ));
        // Unknown version string.
        let wrong = doc.replace("axnl-v1", "axnl-v9");
        assert!(matches!(
            from_axnl(&wrong).unwrap_err(),
            NetioError::UnsupportedFormat { .. }
        ));
        // Not JSON at all.
        assert_eq!(from_axnl("module m").unwrap_err().code(), "bad-json");
    }

    #[test]
    fn schema_errors_carry_paths() {
        let doc = to_axnl(&sample());
        let parsed = json::parse(&doc).unwrap();
        let Value::Obj(mut map) = parsed else {
            unreachable!()
        };
        map.remove("cells");
        let err = from_axnl(&Value::Obj(map).to_string()).unwrap_err();
        match err {
            NetioError::Schema { path, .. } => assert_eq!(path, "cells"),
            other => panic!("expected schema error, got {other}"),
        }
    }
}
