//! A SPICE-like text deck format for [`Circuit`].
//!
//! Supported records (case-insensitive leading letter selects the element):
//!
//! ```text
//! * comment
//! R<name> <n+> <n-> <value>
//! C<name> <n+> <n-> <value>
//! V<name> <n+> <n-> DC <v> | PULSE(<v0> <v1> <td> <tr> <tf> <pw> <per>) | PWL(<t> <v> ...)
//! I<name> <n+> <n-> DC <v> | PULSE(...) | PWL(...)
//! M<name> <d> <g> <s> TYPE=<N|P> W=<value> [L=<value>]
//! .end
//! ```
//!
//! Engineering suffixes `f p n u m k meg g t` are accepted on numbers.

use crate::circuit::{Circuit, Element, MosParams};
use crate::wave::SourceWave;
use std::fmt;

/// Errors produced while parsing a circuit deck.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseDeckError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseDeckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deck parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseDeckError {}

/// Parse an engineering-notation number like `2.5k`, `10u`, `3meg`, `1e-12`.
///
/// Returns `None` for malformed input.
pub fn parse_eng(s: &str) -> Option<f64> {
    let lower = s.trim().to_ascii_lowercase();
    let (body, mult) = if let Some(b) = lower.strip_suffix("meg") {
        (b, 1e6)
    } else if let Some(b) = lower.strip_suffix('f') {
        (b, 1e-15)
    } else if let Some(b) = lower.strip_suffix('p') {
        (b, 1e-12)
    } else if let Some(b) = lower.strip_suffix('n') {
        (b, 1e-9)
    } else if let Some(b) = lower.strip_suffix('u') {
        (b, 1e-6)
    } else if let Some(b) = lower.strip_suffix('m') {
        (b, 1e-3)
    } else if let Some(b) = lower.strip_suffix('k') {
        (b, 1e3)
    } else if let Some(b) = lower.strip_suffix('g') {
        (b, 1e9)
    } else if let Some(b) = lower.strip_suffix('t') {
        (b, 1e12)
    } else {
        (lower.as_str(), 1.0)
    };
    body.parse::<f64>().ok().map(|v| v * mult)
}

fn parse_wave(tokens: &[&str], line: usize) -> Result<SourceWave, ParseDeckError> {
    let err = |m: &str| ParseDeckError { line, message: m.to_owned() };
    if tokens.is_empty() {
        return Err(err("missing source specification"));
    }
    // Re-join and normalize parentheses to spaces for PULSE(...)/PWL(...).
    let joined = tokens.join(" ");
    let upper = joined.to_ascii_uppercase();
    if let Some(rest) = upper.strip_prefix("DC") {
        let v = parse_eng(rest.trim()).ok_or_else(|| err("invalid DC value"))?;
        return Ok(SourceWave::Dc(v));
    }
    let normalized = joined.replace(['(', ')', ','], " ");
    let parts: Vec<&str> = normalized.split_whitespace().collect();
    // A spec of separators only (`(`, `,`, `()`) has no first part.
    match parts.first().map(|p| p.to_ascii_uppercase()).as_deref() {
        Some("PULSE") => {
            if parts.len() != 8 {
                return Err(err("PULSE needs 7 values (v0 v1 td tr tf pw per)"));
            }
            let vals: Option<Vec<f64>> = parts[1..].iter().map(|t| parse_eng(t)).collect();
            let v = vals.ok_or_else(|| err("invalid PULSE value"))?;
            Ok(SourceWave::Pulse {
                v0: v[0],
                v1: v[1],
                delay: v[2],
                rise: v[3],
                fall: v[4],
                width: v[5],
                period: if v[6] <= 0.0 { f64::INFINITY } else { v[6] },
            })
        }
        Some("PWL") => {
            let vals: Option<Vec<f64>> = parts[1..].iter().map(|t| parse_eng(t)).collect();
            let v = vals.ok_or_else(|| err("invalid PWL value"))?;
            if v.is_empty() || v.len() % 2 != 0 {
                return Err(err("PWL needs an even, non-zero number of values"));
            }
            let points: Vec<(f64, f64)> = v.chunks(2).map(|p| (p[0], p[1])).collect();
            for w in points.windows(2) {
                if w[1].0 < w[0].0 {
                    return Err(err("PWL times must be non-decreasing"));
                }
            }
            Ok(SourceWave::Pwl(points))
        }
        _ => {
            // Bare value means DC.
            let v = parse_eng(tokens[0]).ok_or_else(|| err("unrecognized source spec"))?;
            Ok(SourceWave::Dc(v))
        }
    }
}

/// Parse a deck into a circuit.
///
/// # Errors
///
/// Returns [`ParseDeckError`] with a line number for malformed records.
pub fn parse_deck(text: &str) -> Result<Circuit, ParseDeckError> {
    let mut ckt = Circuit::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let err = |m: &str| ParseDeckError { line, message: m.to_owned() };
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        if trimmed.starts_with('.') {
            if trimmed.eq_ignore_ascii_case(".end") {
                break;
            }
            continue; // other dot-cards ignored
        }
        let tokens: Vec<&str> = trimmed.split_whitespace().collect();
        let head = tokens[0];
        let kind = head.chars().next().expect("non-empty token").to_ascii_uppercase();
        match kind {
            'R' | 'C' => {
                if tokens.len() != 4 {
                    return Err(err("R/C record needs <n+> <n-> <value>"));
                }
                let a = ckt.node(tokens[1]);
                let b = ckt.node(tokens[2]);
                let v = parse_eng(tokens[3]).ok_or_else(|| err("invalid value"))?;
                if v <= 0.0 || !v.is_finite() {
                    return Err(err("value must be positive"));
                }
                if kind == 'R' {
                    ckt.add_resistor(a, b, v);
                } else {
                    ckt.add_capacitor(a, b, v);
                }
            }
            'V' | 'I' => {
                if tokens.len() < 4 {
                    return Err(err("source record needs <n+> <n-> <spec>"));
                }
                let pos = ckt.node(tokens[1]);
                let neg = ckt.node(tokens[2]);
                let wave = parse_wave(&tokens[3..], line)?;
                if kind == 'V' {
                    ckt.add_vsrc(pos, neg, wave);
                } else {
                    ckt.add_isrc(pos, neg, wave);
                }
            }
            'M' => {
                if tokens.len() < 5 {
                    return Err(err("M record needs <d> <g> <s> TYPE=.. W=.."));
                }
                let d = ckt.node(tokens[1]);
                let g = ckt.node(tokens[2]);
                let s = ckt.node(tokens[3]);
                let mut kind_p = false;
                let mut w = None;
                let mut l = None;
                for t in &tokens[4..] {
                    let up = t.to_ascii_uppercase();
                    if let Some(v) = up.strip_prefix("TYPE=") {
                        kind_p = v.starts_with('P');
                    } else if let Some(v) = up.strip_prefix("W=") {
                        w = parse_eng(v);
                    } else if let Some(v) = up.strip_prefix("L=") {
                        l = parse_eng(v);
                    } else {
                        return Err(err("unknown MOSFET parameter"));
                    }
                }
                let w = w.ok_or_else(|| err("MOSFET needs W="))?;
                let mut params =
                    if kind_p { MosParams::pmos_025(w) } else { MosParams::nmos_025(w) };
                if let Some(l) = l {
                    params.l = l;
                }
                ckt.add_mosfet(d, g, s, params);
            }
            other => return Err(err(&format!("unknown element type {other:?}"))),
        }
    }
    Ok(ckt)
}

/// Serialize a circuit to deck text.
pub fn write_deck(ckt: &Circuit, title: &str) -> String {
    let mut out = format!("* {title}\n");
    for (i, e) in ckt.elements().iter().enumerate() {
        match e {
            Element::Resistor { a, b, ohms } => {
                out.push_str(&format!(
                    "R{i} {} {} {ohms:e}\n",
                    ckt.node_name(*a),
                    ckt.node_name(*b)
                ));
            }
            Element::Capacitor { a, b, farads } => {
                out.push_str(&format!(
                    "C{i} {} {} {farads:e}\n",
                    ckt.node_name(*a),
                    ckt.node_name(*b)
                ));
            }
            Element::Vsrc { pos, neg, wave } | Element::Isrc { pos, neg, wave } => {
                let letter = if matches!(e, Element::Vsrc { .. }) { 'V' } else { 'I' };
                let spec = match wave {
                    SourceWave::Dc(v) => format!("DC {v:e}"),
                    SourceWave::Pulse { v0, v1, delay, rise, fall, width, period } => {
                        let per = if period.is_finite() { *period } else { 0.0 };
                        format!(
                            "PULSE({v0:e} {v1:e} {delay:e} {rise:e} {fall:e} {width:e} {per:e})"
                        )
                    }
                    SourceWave::Pwl(points) => {
                        let body: Vec<String> =
                            points.iter().map(|(t, v)| format!("{t:e} {v:e}")).collect();
                        format!("PWL({})", body.join(" "))
                    }
                };
                out.push_str(&format!(
                    "{letter}{i} {} {} {spec}\n",
                    ckt.node_name(*pos),
                    ckt.node_name(*neg)
                ));
            }
            Element::Mosfet { d, g, s, params } => {
                let ty = match params.kind {
                    crate::circuit::MosKind::Nmos => "N",
                    crate::circuit::MosKind::Pmos => "P",
                };
                out.push_str(&format!(
                    "M{i} {} {} {} TYPE={ty} W={:e} L={:e}\n",
                    ckt.node_name(*d),
                    ckt.node_name(*g),
                    ckt.node_name(*s),
                    params.w,
                    params.l
                ));
            }
        }
    }
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::MosKind;

    #[test]
    fn eng_suffixes() {
        let close = |s: &str, v: f64| {
            let got = parse_eng(s).unwrap();
            assert!((got - v).abs() <= 1e-12 * v.abs(), "{s}: {got} vs {v}");
        };
        close("1k", 1e3);
        close("2.5u", 2.5e-6);
        close("3meg", 3e6);
        close("10f", 10e-15);
        close("4p", 4e-12);
        close("7n", 7e-9);
        close("1.5m", 1.5e-3);
        close("2g", 2e9);
        close("1e-12", 1e-12);
        assert_eq!(parse_eng("bogus"), None);
    }

    #[test]
    fn parse_rc_deck() {
        let ckt = parse_deck("R1 in out 1k\nCload out 0 50f\n.end\n").unwrap();
        assert_eq!(ckt.element_counts(), (1, 1, 0, 0, 0));
        assert_eq!(ckt.num_nodes(), 2);
        match &ckt.elements()[0] {
            Element::Resistor { ohms, .. } => assert_eq!(*ohms, 1000.0),
            _ => panic!("expected resistor"),
        }
    }

    #[test]
    fn parse_sources() {
        let text = "\
Vdd vdd 0 DC 2.5
Vin in 0 PULSE(0 2.5 1n 0.1n 0.1n 5n 0)
Iload out 0 PWL(0 0 1n 1u)
.end
";
        let ckt = parse_deck(text).unwrap();
        assert_eq!(ckt.element_counts(), (0, 0, 2, 1, 0));
        match &ckt.elements()[1] {
            Element::Vsrc { wave: SourceWave::Pulse { v1, period, .. }, .. } => {
                assert_eq!(*v1, 2.5);
                assert!(period.is_infinite());
            }
            _ => panic!("expected pulse vsrc"),
        }
    }

    #[test]
    fn parse_mosfet() {
        let ckt = parse_deck("M1 out in 0 TYPE=N W=2u L=0.25u\nM2 out in vdd TYPE=P W=5u\n.end\n")
            .unwrap();
        match &ckt.elements()[0] {
            Element::Mosfet { params, .. } => {
                assert_eq!(params.kind, MosKind::Nmos);
                assert!((params.w - 2e-6).abs() < 1e-18);
            }
            _ => panic!("expected mosfet"),
        }
        match &ckt.elements()[1] {
            Element::Mosfet { params, .. } => assert_eq!(params.kind, MosKind::Pmos),
            _ => panic!("expected mosfet"),
        }
    }

    #[test]
    fn round_trip() {
        let text = "\
R1 a b 100
C1 b 0 1p
Vs a 0 PULSE(0 3 1n 0.2n 0.2n 4n 10n)
M1 b a 0 TYPE=N W=1u L=0.25u
.end
";
        let ckt = parse_deck(text).unwrap();
        let regen = write_deck(&ckt, "t");
        let ckt2 = parse_deck(&regen).unwrap();
        assert_eq!(ckt.element_counts(), ckt2.element_counts());
        assert_eq!(ckt.num_nodes(), ckt2.num_nodes());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_deck("R1 a b 1k\nX9 bad record\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
        assert!(parse_deck("R1 a b -5\n").is_err());
        assert!(parse_deck("V1 a 0 PULSE(1 2 3)\n").is_err());
        assert!(parse_deck("M1 a b 0 TYPE=N\n").is_err());
        assert!(parse_deck("V1 a 0 PWL(1 2 0 1)\n").is_err());
    }

    #[test]
    fn comments_and_dot_cards_skipped() {
        let ckt = parse_deck("* hello\n.tran 1n 10n\nR1 a 0 1\n.end\nR2 b 0 1\n").unwrap();
        // .end stops parsing, so R2 is not read.
        assert_eq!(ckt.element_counts().0, 1);
    }

    #[test]
    fn a_source_spec_of_separators_only_is_an_error() {
        // Each once indexed the first of no parts and panicked.
        for text in ["V1 a 0 (\n", "I1 a 0 ,\n", "V1 a 0 ()\n"] {
            let e = parse_deck(text).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (1, "unrecognized source spec"), "{text:?}");
        }
    }

    /// A `pcv-designs` random cluster as a deck: every net's RC and coupling
    /// capacitors, a DC, PULSE or PWL source behind each driver, and an
    /// inverter on the victim's far end.
    fn cluster_deck() -> String {
        use pcv_designs::random::{random_cluster, RandomClusterConfig};
        let cfg =
            RandomClusterConfig { n_aggressors: 3, max_len: 300e-6, seed: 5, ..Default::default() };
        let db = random_cluster(&cfg, &pcv_designs::Technology::c025()).db;
        let mut ckt = Circuit::new();
        let node = |ckt: &mut Circuit, net: usize, k: usize| ckt.node(&format!("n{net}_{k}"));
        for (i, (_, net)) in db.iter().enumerate() {
            for &(a, b, ohms) in net.resistors() {
                let (a, b) = (node(&mut ckt, i, a), node(&mut ckt, i, b));
                ckt.add_resistor(a, b, ohms);
            }
            for &(n, farads) in net.ground_caps().iter().filter(|c| c.1 > 0.0) {
                let n = node(&mut ckt, i, n);
                ckt.add_capacitor(n, Circuit::GROUND, farads);
            }
            let wave = match i % 3 {
                0 => SourceWave::Dc(0.0),
                1 => SourceWave::Pulse {
                    v0: 0.0,
                    v1: 2.5,
                    delay: 1e-9,
                    rise: 0.2e-9,
                    fall: 0.2e-9,
                    width: 3e-9,
                    period: 10e-9,
                },
                _ => SourceWave::Pwl(vec![(0.0, 2.5), (1.5e-9, 2.5), (1.7e-9, 0.0), (4e-9, 0.0)]),
            };
            let (pin, driver) = (ckt.node(&format!("pin{i}")), node(&mut ckt, i, 0));
            ckt.add_vsrc(pin, Circuit::GROUND, wave);
            ckt.add_resistor(pin, driver, 500.0);
        }
        for c in db.couplings().iter().filter(|c| c.farads > 0.0) {
            let a = node(&mut ckt, c.a.net.0, c.a.node);
            let b = node(&mut ckt, c.b.net.0, c.b.node);
            ckt.add_capacitor(a, b, c.farads);
        }
        let (vdd, out) = (ckt.node("vdd"), ckt.node("out"));
        let far = node(&mut ckt, 0, db.iter().next().expect("a victim").1.num_nodes() - 1);
        ckt.add_vsrc(vdd, Circuit::GROUND, SourceWave::Dc(2.5));
        ckt.add_mosfet(out, far, Circuit::GROUND, MosParams::nmos_025(1e-6));
        ckt.add_mosfet(out, far, vdd, MosParams::pmos_025(2.5e-6));
        write_deck(&ckt, "random cluster")
    }

    /// One seeded mutation of a deck: a truncated file, a stray or lost
    /// token, other separators, a source with too few or too many values.
    fn mutate(text: &str, rng: &mut pcv_rng::Rng) -> String {
        const GARBAGE: &str = "( , () ) (, ,) PULSE( PWL( PWL() PULSE() DC DC( 1meg 2.5MEG 1e400 \
            1e308k -1 -0 0 nan inf .5u 5. 1k2 gnd GND TYPE= TYPE=P W= W=-1u L=1u X Q * .end .tran";
        const SPACES: [&str; 8] = ["\t", "  ", "\u{a0}", "\u{2003}", "\r", ",", "(", ")"];
        let pick =
            |rng: &mut pcv_rng::Rng, from: &[&'static str]| from[rng.range_usize(0, from.len())];
        let garbage: Vec<&str> = GARBAGE.split(' ').collect();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let at = rng.range_usize(0, lines.len());
        let mut tokens: Vec<String> = lines[at].split(' ').map(str::to_owned).collect();
        let k = rng.range_usize(0, tokens.len());
        match rng.range_usize(0, 8) {
            0 => {
                // Truncation at any character.
                let mut cut = rng.range_usize(0, text.len());
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                return text[..cut].to_owned();
            }
            1 => tokens[k] = pick(rng, &garbage).to_owned(),
            2 => tokens.insert(k, pick(rng, &garbage).to_owned()),
            3 => {
                // Arity: a token lost or doubled.
                if rng.bool_with(0.5) {
                    tokens.remove(k);
                } else {
                    tokens.insert(k, tokens[k].clone());
                }
            }
            4 => {
                let space = pick(rng, &SPACES);
                tokens = vec![tokens.join(space)];
            }
            5 => {
                // PULSE/PWL values: some dropped, some added, or none left;
                // and perhaps the keyword lost.
                let line = &lines[at];
                if let (Some(open), Some(close)) = (line.find('('), line.rfind(')')) {
                    let mut values: Vec<String> =
                        line[open + 1..close.max(open + 1)].split(' ').map(str::to_owned).collect();
                    match rng.range_usize(0, 3) {
                        0 => values.truncate(rng.range_usize(0, values.len() + 1)),
                        1 => values.extend((0..rng.range_usize(1, 4)).map(|i| format!("{i}n"))),
                        _ => values.clear(),
                    }
                    let mut head = &line[..open];
                    if rng.bool_with(0.3) {
                        head = head.trim_end_matches(|c: char| c.is_ascii_alphabetic());
                    }
                    tokens = vec![format!("{head}({})", values.join(" "))];
                }
            }
            6 => {
                // The element letter: another kind, or a comment or dot-card.
                let letter = pick(rng, &["R", "C", "V", "I", "M", "X", "*", "."]);
                tokens[0] = format!("{letter}{}", tokens[0].get(1..).unwrap_or(""));
            }
            _ => {
                if rng.bool_with(0.5) {
                    lines.remove(at);
                } else {
                    lines.insert(at, lines[at].clone());
                }
                return lines.join("\n");
            }
        }
        lines[at] = tokens.join(" ");
        lines.join(if rng.bool_with(0.1) { "\r\n" } else { "\n" })
    }

    /// Parse the example's deck and a cluster's under `rounds` seeded
    /// mutations each, up to three deep: every outcome is a circuit whose
    /// written deck reads back to the same elements, or a typed error on a
    /// line of the text. Returns how many were accepted and rejected.
    fn fuzz(rounds: usize) -> (usize, usize) {
        let seeds = [include_str!("../../../examples/spice_deck.sp").to_owned(), cluster_deck()];
        let mut rng = pcv_rng::Rng::new(0xDEC_F022);
        let (mut accepted, mut rejected) = (0, 0);
        for (s, seed) in seeds.iter().enumerate() {
            assert!(parse_deck(seed).is_ok(), "seed {s} parses");
            for round in 0..rounds {
                let mut text = mutate(seed, &mut rng);
                for _ in 0..rng.range_usize(0, 3) {
                    if !text.is_empty() {
                        text = mutate(&text, &mut rng);
                    }
                }
                match parse_deck(&text) {
                    Ok(ckt) => {
                        accepted += 1;
                        // An infinite value (`1e308k`) is written as `inf`,
                        // which no deck spells: such a deck may not read back.
                        if let Ok(back) = parse_deck(&write_deck(&ckt, "again")) {
                            let same = (back.element_counts(), back.num_nodes())
                                == (ckt.element_counts(), ckt.num_nodes());
                            assert!(
                                same,
                                "seed {s} round {round}: the written deck reads back\n{text}"
                            );
                        }
                    }
                    Err(e) => {
                        rejected += 1;
                        let lines = text.lines().count();
                        assert!(
                            (1..=lines).contains(&e.line) && !e.message.is_empty(),
                            "seed {s} round {round}: {e} of {lines} lines\n{text}"
                        );
                    }
                }
            }
        }
        (accepted, rejected)
    }

    #[test]
    fn mutated_decks_parse_or_fail_typed() {
        let (accepted, rejected) = fuzz(1000);
        assert!(accepted > 300 && rejected > 300, "{accepted} / {rejected} of 2 000");
    }

    /// The same at 20 000 mutations — the `chaos` CI job's share.
    #[test]
    #[ignore = "20 000 mutations: run by the chaos CI job"]
    fn twenty_thousand_mutated_decks_parse_or_fail_typed() {
        let (accepted, rejected) = fuzz(10_000);
        assert!(accepted > 3000 && rejected > 3000, "{accepted} / {rejected} of 20 000");
    }
}
