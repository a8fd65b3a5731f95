//! Liberty-lite: a compact text format for characterized cell libraries.
//!
//! Characterization is a *one-time task* (paper, Section 4.2) — production
//! flows persist its results in a library file rather than re-running
//! SPICE. This module provides that persistence with a deliberately small,
//! Liberty-inspired grammar:
//!
//! ```text
//! library (pcv_lite) {
//!   cell (INVX4) {
//!     kind: inverter; strength: 4; cin: 1.2e-15; cout: 2.4e-15;
//!     rout_rise: 820.0; rout_fall: 390.0;
//!     index_slew: 5e-11 1.5e-10 4e-10 1e-09;
//!     index_load: 5e-15 2.5e-14 8e-14 2e-13;
//!     values (delay_rise) { ... }          // one row per slew
//!     values (delay_fall) { ... }
//!     values (slew_rise) { ... }
//!     values (slew_fall) { ... }
//!     index_vin: 0 0.3125 ...;
//!     index_vout: 0 0.3125 ...;
//!     values (iv) { ... }                  // one row per vin
//!   }
//! }
//! ```

use crate::charlib::{CharCell, CharLibrary, IvSurface, TimingTable};
use crate::library::CellKind;
use pcv_sparse::Dense;
use std::fmt;

/// Errors produced while parsing Liberty-lite text.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseLibertyError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseLibertyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "liberty parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseLibertyError {}

fn kind_name(k: CellKind) -> &'static str {
    match k {
        CellKind::Inverter => "inverter",
        CellKind::Buffer => "buffer",
        CellKind::Nand2 => "nand2",
        CellKind::Nor2 => "nor2",
        CellKind::TristateBuffer => "tristate_buffer",
        CellKind::Latch => "latch",
    }
}

fn kind_from(name: &str) -> Option<CellKind> {
    Some(match name {
        "inverter" => CellKind::Inverter,
        "buffer" => CellKind::Buffer,
        "nand2" => CellKind::Nand2,
        "nor2" => CellKind::Nor2,
        "tristate_buffer" => CellKind::TristateBuffer,
        "latch" => CellKind::Latch,
        _ => return None,
    })
}

fn write_matrix(out: &mut String, name: &str, m: &Dense) {
    out.push_str(&format!("    values ({name}) {{\n"));
    for r in 0..m.nrows() {
        out.push_str("      ");
        for c in 0..m.ncols() {
            out.push_str(&format!("{:e} ", m[(r, c)]));
        }
        out.push('\n');
    }
    out.push_str("    }\n");
}

/// Serialize a characterized library.
pub fn write_liberty(lib: &CharLibrary) -> String {
    let mut out = String::from("library (pcv_lite) {\n");
    for ch in lib.iter() {
        out.push_str(&format!("  cell ({}) {{\n", ch.name));
        out.push_str(&format!(
            "    kind: {}; strength: {:e}; cin: {:e}; cout: {:e};\n",
            kind_name(ch.kind),
            ch.strength,
            ch.cin,
            ch.cout
        ));
        let list = |xs: &[f64]| xs.iter().map(|x| format!("{x:e}")).collect::<Vec<_>>().join(" ");
        out.push_str(&format!(
            "    rout_rise: {:e}; rout_fall: {:e};\n",
            ch.rout_rise, ch.rout_fall
        ));
        out.push_str(&format!("    vin_delay_rise: {};\n", list(&ch.vin_delay_rise)));
        out.push_str(&format!("    vin_delay_fall: {};\n", list(&ch.vin_delay_fall)));
        out.push_str(&format!("    vin_stretch_rise: {};\n", list(&ch.vin_stretch_rise)));
        out.push_str(&format!("    vin_stretch_fall: {};\n", list(&ch.vin_stretch_fall)));
        out.push_str(&format!("    index_slew: {};\n", list(&ch.timing.slews)));
        out.push_str(&format!("    index_load: {};\n", list(&ch.timing.loads)));
        write_matrix(&mut out, "delay_rise", &ch.timing.delay_rise);
        write_matrix(&mut out, "delay_fall", &ch.timing.delay_fall);
        write_matrix(&mut out, "slew_rise", &ch.timing.slew_rise);
        write_matrix(&mut out, "slew_fall", &ch.timing.slew_fall);
        out.push_str(&format!("    index_vin: {};\n", list(&ch.iv.vin)));
        out.push_str(&format!("    index_vout: {};\n", list(&ch.iv.vout)));
        write_matrix(&mut out, "iv", &ch.iv.current);
        out.push_str("  }\n");
    }
    out.push_str("}\n");
    out
}

/// Parser state for one cell being assembled.
#[derive(Default)]
struct CellBuilder {
    name: String,
    kind: Option<CellKind>,
    strength: Option<f64>,
    cin: Option<f64>,
    cout: Option<f64>,
    rout_rise: Option<f64>,
    rout_fall: Option<f64>,
    vin_delay_rise: Vec<f64>,
    vin_delay_fall: Vec<f64>,
    vin_stretch_rise: Vec<f64>,
    vin_stretch_fall: Vec<f64>,
    slews: Vec<f64>,
    loads: Vec<f64>,
    vin: Vec<f64>,
    vout: Vec<f64>,
    matrices: std::collections::BTreeMap<String, Vec<Vec<f64>>>,
}

impl CellBuilder {
    fn finish(self, line: usize) -> Result<CharCell, ParseLibertyError> {
        let err =
            |m: &str| ParseLibertyError { line, message: format!("{m} in cell {}", self.name) };
        let matrix = |name: &str, rows: usize, cols: usize| -> Result<Dense, ParseLibertyError> {
            let raw =
                self.matrices.get(name).ok_or_else(|| err(&format!("missing values ({name})")))?;
            if raw.len() != rows || raw.iter().any(|r| r.len() != cols) {
                return Err(err(&format!("values ({name}) has wrong shape")));
            }
            Ok(Dense::from_fn(rows, cols, |r, c| raw[r][c]))
        };
        let (ns, nl) = (self.slews.len(), self.loads.len());
        if ns < 2 || nl < 2 {
            return Err(err("index_slew/index_load need at least 2 points"));
        }
        let (nvi, nvo) = (self.vin.len(), self.vout.len());
        if nvi < 2 || nvo < 2 {
            return Err(err("index_vin/index_vout need at least 2 points"));
        }
        Ok(CharCell {
            name: self.name.clone(),
            kind: self.kind.ok_or_else(|| err("missing kind"))?,
            strength: self.strength.ok_or_else(|| err("missing strength"))?,
            cin: self.cin.ok_or_else(|| err("missing cin"))?,
            cout: self.cout.ok_or_else(|| err("missing cout"))?,
            rout_rise: self.rout_rise.ok_or_else(|| err("missing rout_rise"))?,
            rout_fall: self.rout_fall.ok_or_else(|| err("missing rout_fall"))?,
            timing: TimingTable {
                slews: self.slews.clone(),
                loads: self.loads.clone(),
                delay_rise: matrix("delay_rise", ns, nl)?,
                delay_fall: matrix("delay_fall", ns, nl)?,
                slew_rise: matrix("slew_rise", ns, nl)?,
                slew_fall: matrix("slew_fall", ns, nl)?,
            },
            iv: IvSurface {
                vin: self.vin.clone(),
                vout: self.vout.clone(),
                current: matrix("iv", nvi, nvo)?,
            },
            vin_delay_rise: self.vin_delay_rise,
            vin_delay_fall: self.vin_delay_fall,
            vin_stretch_rise: self.vin_stretch_rise,
            vin_stretch_fall: self.vin_stretch_fall,
        })
    }
}

/// Parse Liberty-lite text into a characterized library.
///
/// # Errors
///
/// Returns [`ParseLibertyError`] with a line number for malformed records.
pub fn parse_liberty(text: &str) -> Result<CharLibrary, ParseLibertyError> {
    let mut lib = CharLibrary::default();
    let mut cell: Option<CellBuilder> = None;
    let mut matrix: Option<(String, Vec<Vec<f64>>)> = None;

    let parse_floats = |s: &str, line: usize| -> Result<Vec<f64>, ParseLibertyError> {
        s.split_whitespace()
            .map(|t| {
                t.parse::<f64>().map_err(|_| ParseLibertyError {
                    line,
                    message: format!("invalid number {t:?}"),
                })
            })
            .collect()
    };

    // A scalar attribute's value; none (`cin: ;`, a file cut there) is an error.
    let parse_float = |s: &str, line: usize| -> Result<f64, ParseLibertyError> {
        parse_floats(s, line)?
            .first()
            .copied()
            .ok_or(ParseLibertyError { line, message: "missing number".into() })
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let t = raw.trim();
        let err = |m: &str| ParseLibertyError { line, message: m.to_owned() };
        if t.is_empty() || t.starts_with("//") || t.starts_with("library") || t == "}" {
            // `}` at top level closes the library; cell/matrix closers are
            // handled below because they appear on their own lines too.
            if t == "}" {
                if let Some((name, rows)) = matrix.take() {
                    let c = cell.as_mut().ok_or_else(|| err("values outside cell"))?;
                    c.matrices.insert(name, rows);
                } else if let Some(c) = cell.take() {
                    let done = c.finish(line)?;
                    lib.insert(done);
                }
                // else: closing the library block.
            }
            continue;
        }
        if let Some(rest) = t.strip_prefix("cell (") {
            if cell.is_some() {
                return Err(err("nested cell"));
            }
            let name = rest
                .split(')')
                .next()
                .ok_or_else(|| err("malformed cell header"))?
                .trim()
                .to_owned();
            cell = Some(CellBuilder { name, ..Default::default() });
            continue;
        }
        if let Some(rest) = t.strip_prefix("values (") {
            if matrix.is_some() {
                return Err(err("nested values block"));
            }
            let name = rest
                .split(')')
                .next()
                .ok_or_else(|| err("malformed values header"))?
                .trim()
                .to_owned();
            matrix = Some((name, Vec::new()));
            continue;
        }
        if let Some((_, rows)) = matrix.as_mut() {
            rows.push(parse_floats(t, line)?);
            continue;
        }
        let c = cell.as_mut().ok_or_else(|| err("attribute outside cell"))?;
        // Attribute lines: `key: value; key: value;`
        for stmt in t.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            let (key, value) = stmt
                .split_once(':')
                .ok_or_else(|| err(&format!("malformed attribute {stmt:?}")))?;
            let key = key.trim();
            let value = value.trim();
            match key {
                "kind" => {
                    c.kind = Some(kind_from(value).ok_or_else(|| err("unknown cell kind"))?);
                }
                "strength" => c.strength = Some(parse_float(value, line)?),
                "cin" => c.cin = Some(parse_float(value, line)?),
                "cout" => c.cout = Some(parse_float(value, line)?),
                "rout_rise" => c.rout_rise = Some(parse_float(value, line)?),
                "rout_fall" => c.rout_fall = Some(parse_float(value, line)?),
                "vin_delay_rise" => c.vin_delay_rise = parse_floats(value, line)?,
                "vin_delay_fall" => c.vin_delay_fall = parse_floats(value, line)?,
                "vin_stretch_rise" => c.vin_stretch_rise = parse_floats(value, line)?,
                "vin_stretch_fall" => c.vin_stretch_fall = parse_floats(value, line)?,
                "index_slew" => c.slews = parse_floats(value, line)?,
                "index_load" => c.loads = parse_floats(value, line)?,
                "index_vin" => c.vin = parse_floats(value, line)?,
                "index_vout" => c.vout = parse_floats(value, line)?,
                other => return Err(err(&format!("unknown attribute {other:?}"))),
            }
        }
    }
    if cell.is_some() || matrix.is_some() {
        return Err(ParseLibertyError {
            line: text.lines().count(),
            message: "unterminated block".into(),
        });
    }
    Ok(lib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charlib::characterize;
    use crate::library::CellLibrary;

    #[test]
    fn round_trip_preserves_characterization() {
        let lib = CellLibrary::standard_025();
        let ch = characterize(lib.cell("INVX2").unwrap()).unwrap();
        let mut charlib = CharLibrary::default();
        charlib.insert(ch);
        let text = write_liberty(&charlib);
        let back = parse_liberty(&text).unwrap();
        let a = charlib.cell("INVX2").unwrap();
        let b = back.cell("INVX2").unwrap();
        assert_eq!(a.kind, b.kind);
        assert!((a.rout_rise - b.rout_rise).abs() < 1e-9);
        assert!((a.cin - b.cin).abs() < 1e-25);
        // Table lookups agree everywhere.
        for &slew in &a.timing.slews {
            for &load in &a.timing.loads {
                let (d1, s1) = a.timing.lookup(slew, load, true);
                let (d2, s2) = b.timing.lookup(slew, load, true);
                assert!((d1 - d2).abs() < 1e-18 && (s1 - s2).abs() < 1e-18);
            }
        }
        // IV surface agrees on and off grid.
        let (i1, g1) = a.iv.at(1.3, 0.7);
        let (i2, g2) = b.iv.at(1.3, 0.7);
        assert!((i1 - i2).abs() < 1e-12 && (g1 - g2).abs() < 1e-9);
        // Effective-input calibration vectors round-trip.
        assert_eq!(a.vin_delay_rise.len(), b.vin_delay_rise.len());
        for (x, y) in a.vin_stretch_fall.iter().zip(&b.vin_stretch_fall) {
            assert!((x - y).abs() < 1e-12);
        }
        let ca = a.vin_calibration(0.3e-9, false);
        let cb = b.vin_calibration(0.3e-9, false);
        assert!((ca.0 - cb.0).abs() < 1e-18 && (ca.1 - cb.1).abs() < 1e-12);
    }

    #[test]
    fn parse_errors_have_line_numbers() {
        let e = parse_liberty("library (x) {\n  cell (A) {\n    bogus line\n  }\n}\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn incomplete_cell_rejected() {
        let text = "library (x) {\n  cell (A) {\n    kind: inverter;\n  }\n}\n";
        let e = parse_liberty(text).unwrap_err();
        assert!(e.message.contains("cell A"), "{}", e.message);
    }

    #[test]
    fn an_attribute_without_a_value_is_an_error_not_a_panic() {
        // A file cut right after a colon used to index an empty list.
        for attr in ["strength", "cin", "cout", "rout_rise", "rout_fall"] {
            for text in [
                format!("library (x) {{\n  cell (A) {{\n    {attr}:"),
                format!("library (x) {{\n  cell (A) {{\n    {attr}: ;\n  }}\n}}\n"),
            ] {
                let e = parse_liberty(&text).unwrap_err();
                assert_eq!((e.line, e.message.as_str()), (3, "missing number"), "{text}");
            }
        }
    }

    #[test]
    fn unterminated_block_rejected() {
        assert!(parse_liberty("library (x) {\n  cell (A) {\n").is_err());
        assert!(parse_liberty("library (x) {\n  cell (A) {\n    values (iv) {\n").is_err());
    }

    #[test]
    fn kind_names_round_trip() {
        for k in [
            CellKind::Inverter,
            CellKind::Buffer,
            CellKind::Nand2,
            CellKind::Nor2,
            CellKind::TristateBuffer,
            CellKind::Latch,
        ] {
            assert_eq!(kind_from(kind_name(k)), Some(k));
        }
        assert_eq!(kind_from("mystery"), None);
    }

    #[test]
    fn empty_library_round_trips() {
        let text = write_liberty(&CharLibrary::default());
        let lib = parse_liberty(&text).unwrap();
        assert!(lib.is_empty());
    }
}
