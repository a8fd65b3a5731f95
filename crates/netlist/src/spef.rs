//! SPEF-lite: a compact text exchange format for [`ParasiticDb`].
//!
//! Real extraction flows hand parasitics to verification through SPEF; this
//! module provides the same decoupling for PCV with a deliberately small
//! grammar:
//!
//! ```text
//! *SPEF pcv-lite 1.0
//! *NET <name> <num_nodes>
//! *LOAD <node>
//! *R <node_a> <node_b> <ohms>
//! *GC <node> <farads>
//! *END
//! *CC <net_a> <node_a> <net_b> <node_b> <farads>
//! ```

use crate::parasitics::{NetNodeRef, NetParasitics, PNetId, ParasiticDb};
use std::fmt::{self, Write as _};

/// Errors produced while parsing SPEF-lite text.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseSpefError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseSpefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spef parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseSpefError {}

/// Push `" {n}"`: a blank and the decimal digits of `n`.
fn push_index(out: &mut String, n: usize) {
    let mut digits = [b' '; 21];
    let (mut i, mut n) = (digits.len(), n);
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i - 1..]).expect("a blank and ASCII digits"));
}

/// One value column of the writer (`*R`, `*GC` or `*CC`): the bits it last
/// wrote and std's `{:e}` text of them. A run of equal bits is formatted
/// once and its text copied, so every byte is still `{:e}`'s.
#[derive(Default)]
struct Column {
    bits: Option<u64>,
    text: String,
}

impl Column {
    /// Push `" {v:e}\n"`.
    fn push(&mut self, out: &mut String, v: f64) {
        if self.bits != Some(v.to_bits()) {
            self.text.clear();
            writeln!(self.text, " {v:e}").expect("a String takes any text");
            self.bits = Some(v.to_bits());
        }
        out.push_str(&self.text);
    }
}

/// Serialize a parasitic database to SPEF-lite text, into one buffer whose
/// capacity is the text's length.
pub fn write_spef(db: &ParasiticDb) -> String {
    let _span = pcv_trace::span("netlist", "write_spef");
    let mut out = String::from("*SPEF pcv-lite 1.0\n");
    let (mut r, mut gc, mut cc) = (Column::default(), Column::default(), Column::default());
    for (_, net) in db.iter() {
        out.push_str("*NET ");
        out.push_str(net.name());
        push_index(&mut out, net.num_nodes());
        out.push('\n');
        for &n in net.load_nodes() {
            out.push_str("*LOAD");
            push_index(&mut out, n);
            out.push('\n');
        }
        for &(a, b, ohms) in net.resistors() {
            out.push_str("*R");
            push_index(&mut out, a);
            push_index(&mut out, b);
            r.push(&mut out, ohms);
        }
        for &(n, farads) in net.ground_caps() {
            out.push_str("*GC");
            push_index(&mut out, n);
            gc.push(&mut out, farads);
        }
        out.push_str("*END\n");
    }
    for c in db.couplings() {
        out.push_str("*CC ");
        out.push_str(db.net(c.a.net).name());
        push_index(&mut out, c.a.node);
        out.push(' ');
        out.push_str(db.net(c.b.net).name());
        push_index(&mut out, c.b.node);
        cc.push(&mut out, c.farads);
    }
    out.shrink_to_fit();
    out
}

/// What a byte is to the tokenizer: part of a token, ASCII white space,
/// `\n` (which alone ends a line) or the first byte of a non-ASCII character,
/// which `char::is_whitespace` judges: U+00A0, U+2003 or U+0085 separate tokens.
#[derive(Clone, Copy, PartialEq)]
enum Byte {
    Token,
    Blank,
    LineEnd,
    Wide,
}

static CLASS: [Byte; 256] = {
    let mut table = [Byte::Token; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            b'\n' => Byte::LineEnd,
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c => Byte::Blank,
            0x80.. => Byte::Wide,
            _ => Byte::Token,
        };
        b += 1;
    }
    table
};

/// The first byte at or after `i` that is not `Byte::Token`, or the
/// text's length. Every other class lies below `!` or above DEL, so eight
/// bytes at a time are tested for one of those; borrows of the subtraction
/// run only towards later bytes, so the first byte flagged is exact. Only a
/// control character is flagged yet a token byte, and the scan goes on.
fn token_end(bytes: &[u8], mut i: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    while let Some(word) = bytes.get(i..i + 8) {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let flagged = (w.wrapping_sub(0x21 * ONES) | w) & (0x80 * ONES);
        if flagged == 0 {
            i += 8;
            continue;
        }
        i += (flagged.trailing_zeros() / 8) as usize;
        if CLASS[bytes[i] as usize] != Byte::Token {
            return i;
        }
        i += 1;
    }
    let rest = &bytes[i..];
    i + rest.iter().position(|&b| CLASS[b as usize] != Byte::Token).unwrap_or(rest.len())
}

/// The next token of the line `*pos` is in; `None` once only blanks are left
/// of it, `*pos` then resting on the line's `\n` or on the end of the text.
fn next_token<'a>(text: &'a str, pos: &mut usize) -> Option<&'a str> {
    let bytes = text.as_bytes();
    // Whether the non-ASCII character at `i` is white space, and its length.
    let wide_blank = |i: usize| {
        let c = text[i..].chars().next().expect("a char starts at every scanned offset");
        (c.is_whitespace(), c.len_utf8())
    };
    let mut i = *pos;
    let start = loop {
        match bytes.get(i).map(|&b| CLASS[b as usize]) {
            None | Some(Byte::LineEnd) => {
                *pos = i;
                return None;
            }
            Some(Byte::Blank) => i += 1,
            Some(Byte::Token) => break i,
            Some(Byte::Wide) => match wide_blank(i) {
                (true, len) => i += len,
                (false, _) => break i,
            },
        }
    };
    loop {
        i = token_end(bytes, i);
        let wide = bytes.get(i).is_some_and(|&b| CLASS[b as usize] == Byte::Wide);
        match wide.then(|| wide_blank(i)) {
            Some((false, len)) => i += len,
            _ => break,
        }
    }
    *pos = i;
    Some(&text[start..i])
}

/// `s.parse::<usize>()`, reading the spelling every writer emits — digits
/// only, too few to overflow a `u64` — in one pass without the general
/// routine. A sign, an empty token or twenty digits take `str::parse` and
/// fare as it decides.
fn parse_index(s: &str) -> Option<usize> {
    let (mut value, mut plain) = (0u64, (1..=19).contains(&s.len()));
    for &b in s.as_bytes() {
        let digit = b.wrapping_sub(b'0');
        plain &= digit < 10;
        value = value.wrapping_mul(10).wrapping_add(u64::from(digit));
    }
    let value = plain.then_some(value);
    value.and_then(|v| usize::try_from(v).ok()).or_else(|| s.parse().ok())
}

/// The last value token of one column (`*R`, `*GC` or `*CC`) and what it
/// parsed to. `f64::from_str` is a function of the bytes, so a run of equal
/// tokens is parsed once; every check still runs on the value.
#[derive(Default)]
struct Repeat<'a> {
    text: &'a str,
    value: f64,
}

impl<'a> Repeat<'a> {
    fn parse(&mut self, token: &'a str) -> Option<f64> {
        if token != self.text {
            self.value = token.parse().ok()?;
            self.text = token;
        }
        Some(self.value)
    }
}

/// Parse SPEF-lite text into a parasitic database, in one pass over its
/// bytes.
///
/// # Errors
///
/// Returns [`ParseSpefError`] with a line number on any malformed record,
/// unknown net reference, or out-of-range node.
pub fn parse_spef(text: &str) -> Result<ParasiticDb, ParseSpefError> {
    let _span = pcv_trace::span("netlist", "parse_spef");
    let mut db = ParasiticDb::new();
    let mut current: Option<NetParasitics> = None;
    // The two nets the previous `*CC` line named: consecutive couplings
    // run along one pair of wires, so most look-ups end here.
    let mut last_cc: [Option<(&str, PNetId)>; 2] = [None; 2];
    let (mut ohms, mut gc, mut cc) = (Repeat::default(), Repeat::default(), Repeat::default());
    let err = |line: usize, message: &str| ParseSpefError { line, message: message.to_owned() };

    let (mut pos, mut line) = (0, 0);
    while pos < text.len() {
        line += 1;
        let keyword = next_token(text, &mut pos).filter(|k| !k.starts_with("//"));
        let Some(keyword) = keyword else {
            // Blank, or a comment: nothing up to the line's end is read.
            let rest = &text.as_bytes()[pos..];
            pos += rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len()) + 1;
            continue;
        };
        // No record has more than five operands; further tokens are only
        // counted, which is all the arity checks need.
        let mut rest = [""; 5];
        let mut rest_len = 0usize;
        while let Some(token) = next_token(text, &mut pos) {
            if let Some(slot) = rest.get_mut(rest_len) {
                *slot = token;
            }
            rest_len += 1;
        }
        pos += 1;
        let index = |s: &str| parse_index(s).ok_or_else(|| err(line, "invalid node index"));
        let value = |v: Option<f64>| v.ok_or_else(|| err(line, "invalid numeric value"));
        match keyword {
            "*SPEF" => {}
            "*NET" => {
                if current.is_some() {
                    return Err(err(line, "*NET before previous *END"));
                }
                if rest_len != 2 {
                    return Err(err(line, "*NET needs <name> <num_nodes>"));
                }
                let n = parse_index(rest[1]).ok_or_else(|| err(line, "invalid node count"))?;
                if n == 0 {
                    return Err(err(line, "net needs at least the driver node"));
                }
                current = Some(NetParasitics::with_nodes(rest[0], n));
            }
            "*LOAD" | "*R" | "*GC" => {
                let net = current.as_mut().ok_or_else(|| err(line, "record outside *NET block"))?;
                match keyword {
                    "*LOAD" => {
                        if rest_len != 1 {
                            return Err(err(line, "*LOAD needs <node>"));
                        }
                        let n = index(rest[0])?;
                        if n >= net.num_nodes() {
                            return Err(err(line, "load node out of range"));
                        }
                        net.mark_load(n);
                    }
                    "*R" => {
                        if rest_len != 3 {
                            return Err(err(line, "*R needs <a> <b> <ohms>"));
                        }
                        let a = index(rest[0])?;
                        let b = index(rest[1])?;
                        let r = value(ohms.parse(rest[2]))?;
                        if a >= net.num_nodes() || b >= net.num_nodes() {
                            return Err(err(line, "resistor node out of range"));
                        }
                        if r <= 0.0 || !r.is_finite() {
                            return Err(err(line, "resistance must be positive"));
                        }
                        net.add_resistor(a, b, r);
                    }
                    _ => {
                        if rest_len != 2 {
                            return Err(err(line, "*GC needs <node> <farads>"));
                        }
                        let n = index(rest[0])?;
                        let c = value(gc.parse(rest[1]))?;
                        if n >= net.num_nodes() {
                            return Err(err(line, "cap node out of range"));
                        }
                        if c < 0.0 || !c.is_finite() {
                            return Err(err(line, "capacitance must be non-negative"));
                        }
                        net.add_ground_cap(n, c);
                    }
                }
            }
            "*END" => {
                let net = current.take().ok_or_else(|| err(line, "*END without *NET"))?;
                if db.find_net(net.name()).is_some() {
                    return Err(err(line, "duplicate net name"));
                }
                db.add_net(net);
            }
            "*CC" => {
                if current.is_some() {
                    return Err(err(line, "*CC inside *NET block"));
                }
                if rest_len != 5 {
                    return Err(err(line, "*CC needs <net_a> <node_a> <net_b> <node_b> <farads>"));
                }
                // A name never changes id once defined, so a remembered
                // pair answers exactly what the map would.
                let find = |name: &str| {
                    let remembered = last_cc.iter().flatten().find(|(n, _)| *n == name);
                    remembered.map(|&(_, id)| id).or_else(|| db.find_net(name))
                };
                let na = find(rest[0]).ok_or_else(|| err(line, "unknown net in *CC"))?;
                let a = index(rest[1])?;
                let nb = find(rest[2]).ok_or_else(|| err(line, "unknown net in *CC"))?;
                last_cc = [Some((rest[0], na)), Some((rest[2], nb))];
                let b = index(rest[3])?;
                let c = value(cc.parse(rest[4]))?;
                if na == nb {
                    return Err(err(line, "coupling endpoints must differ"));
                }
                if a >= db.net(na).num_nodes() || b >= db.net(nb).num_nodes() {
                    return Err(err(line, "coupling node out of range"));
                }
                if c < 0.0 || !c.is_finite() {
                    return Err(err(line, "capacitance must be non-negative"));
                }
                db.add_coupling(
                    NetNodeRef { net: na, node: a },
                    NetNodeRef { net: nb, node: b },
                    c,
                );
            }
            other => return Err(err(line, &format!("unknown record {other:?}"))),
        }
    }
    if current.is_some() {
        return Err(err(line, "unterminated *NET block"));
    }
    pcv_trace::count("netlist.spef.bytes", text.len() as u64);
    pcv_trace::count("netlist.spef.lines", line as u64);
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcv_rng::Rng;

    fn sample_db() -> ParasiticDb {
        let mut db = ParasiticDb::new();
        let mut a = NetParasitics::new("alpha");
        let a1 = a.add_node();
        let a2 = a.add_node();
        a.add_resistor(0, a1, 120.0);
        a.add_resistor(a1, a2, 60.0);
        a.add_ground_cap(a1, 2.5e-15);
        a.add_ground_cap(a2, 1.5e-15);
        a.mark_load(a2);
        let aid = db.add_net(a);
        let mut b = NetParasitics::new("beta");
        let b1 = b.add_node();
        b.add_resistor(0, b1, 200.0);
        b.add_ground_cap(b1, 3e-15);
        let bid = db.add_net(b);
        db.add_coupling(NetNodeRef { net: aid, node: 1 }, NetNodeRef { net: bid, node: 1 }, 4e-15);
        db
    }

    #[test]
    fn round_trip_preserves_everything() {
        let db = sample_db();
        let text = write_spef(&db);
        let db2 = parse_spef(&text).unwrap();
        assert_eq!(db2.num_nets(), 2);
        let a = db2.find_net("alpha").unwrap();
        let b = db2.find_net("beta").unwrap();
        assert_eq!(db2.net(a).num_nodes(), 3);
        assert_eq!(db2.net(a).load_nodes(), &[2]);
        assert!((db2.net(a).total_resistance() - 180.0).abs() < 1e-9);
        assert!((db2.net(a).total_ground_cap() - 4e-15).abs() < 1e-28);
        assert!((db2.total_coupling_cap(b) - 4e-15).abs() < 1e-28);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n// a comment\n*NET x 1\n*END\n";
        let db = parse_spef(text).unwrap();
        assert_eq!(db.num_nets(), 1);
    }

    #[test]
    fn error_reports_line_numbers() {
        let text = "*NET x 1\n*R 0 5 10.0\n*END\n";
        let e = parse_spef(text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn unknown_record_rejected() {
        assert!(parse_spef("*BOGUS 1 2\n").is_err());
    }

    #[test]
    fn cc_requires_known_nets() {
        let text = "*NET a 1\n*END\n*CC a 0 zz 0 1e-15\n";
        let e = parse_spef(text).unwrap_err();
        assert!(e.message.contains("unknown net"));
    }

    #[test]
    fn unterminated_block_rejected() {
        assert!(parse_spef("*NET a 2\n*GC 1 1e-15\n").is_err());
    }

    #[test]
    fn nested_net_rejected() {
        let e = parse_spef("*NET a 1\n*NET b 1\n").unwrap_err();
        assert!(e.message.contains("*END"));
    }

    #[test]
    fn negative_values_rejected() {
        assert!(parse_spef("*NET a 2\n*R 0 1 -5\n*END\n").is_err());
        assert!(parse_spef("*NET a 2\n*GC 1 -1e-15\n*END\n").is_err());
    }

    /// A database exercising the zero-cap edge: explicit `0.0` ground and
    /// coupling capacitors alongside ordinary values.
    fn zero_cap_db() -> ParasiticDb {
        let mut db = sample_db();
        let a = db.find_net("alpha").unwrap();
        let b = db.find_net("beta").unwrap();
        db.net_mut(a).add_ground_cap(0, 0.0);
        db.add_coupling(NetNodeRef { net: a, node: 2 }, NetNodeRef { net: b, node: 0 }, 0.0);
        db
    }

    #[test]
    fn zero_cap_entries_round_trip_byte_identically() {
        // ECO regression: a zero-farad entry is electrically inert but
        // enters the canonical cluster fingerprints, so write -> parse ->
        // write must preserve it exactly — the diff layer would otherwise
        // report phantom edits (or miss real ones) on every rewrite.
        let db = zero_cap_db();
        let text = write_spef(&db);
        assert!(text.contains("*GC 0 0e0\n"), "zero gcap must be emitted:\n{text}");
        assert!(text.contains("*CC alpha 2 beta 0 0e0\n"), "zero coupling must be emitted");
        let back = parse_spef(&text).expect("round-trip parses");
        assert_eq!(write_spef(&back), text, "re-emission must be byte-identical");
        assert!(
            crate::eco::EcoDelta::diff(&db, &back).is_empty(),
            "round-trip must not produce phantom ECO edits"
        );
    }

    #[test]
    fn negative_zero_caps_normalize_to_canonical_zero() {
        // `-0.0` passes the non-negativity check (it is not `< 0.0`) but
        // differs from `+0.0` in bits. The data model canonicalizes it on
        // entry, so an external tool flipping the sign of a zero cap can
        // never dirty a cluster or surface as a phantom ECO edit.
        let text = "*NET a 2\n*GC 1 -0e0\n*END\n*NET b 1\n*END\n*CC a 1 b 0 -0.0\n";
        let db = parse_spef(text).expect("-0.0 caps parse");
        let a = db.find_net("a").unwrap();
        assert_eq!(db.net(a).ground_caps()[0].1.to_bits(), 0.0f64.to_bits());
        assert_eq!(db.couplings()[0].farads.to_bits(), 0.0f64.to_bits());
        let reemitted = write_spef(&db);
        assert!(!reemitted.contains("-0e0"), "canonical zero only:\n{reemitted}");
        // Diffing against the same netlist written with +0.0 is a no-op.
        let plus = parse_spef(&reemitted).unwrap();
        assert!(crate::eco::EcoDelta::diff(&db, &plus).is_empty());
    }

    #[test]
    fn extreme_values_round_trip_bit_exactly() {
        // The `{:e}` emitter must round-trip every finite f64 the data
        // model accepts: subnormals, the largest normal, odd mantissas.
        let mut db = ParasiticDb::new();
        let mut n = NetParasitics::new("x");
        let n1 = n.add_node();
        n.add_resistor(0, n1, f64::MAX);
        n.add_resistor(0, n1, f64::MIN_POSITIVE);
        n.add_ground_cap(n1, 5e-324); // smallest subnormal
        n.add_ground_cap(n1, 0.1 + 0.2); // a value with no short decimal
        db.add_net(n);
        let text = write_spef(&db);
        let back = parse_spef(&text).expect("parses");
        let orig = db.net(PNetId(0));
        let got = back.net(PNetId(0));
        for (a, b) in orig.resistors().iter().zip(got.resistors()) {
            assert_eq!(a.2.to_bits(), b.2.to_bits(), "resistance bits drifted");
        }
        for (a, b) in orig.ground_caps().iter().zip(got.ground_caps()) {
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "capacitance bits drifted");
        }
        assert_eq!(write_spef(&back), text);
    }

    /// SPEF text of a `pcv-designs` chip. The generator links the library
    /// build of this crate, whose `ParasiticDb` is not this test build's
    /// type, so the chip is copied through its accessors.
    macro_rules! spef_of {
        ($chip:expr) => {{
            let chip = $chip;
            let mut db = ParasiticDb::new();
            for (_, net) in chip.iter() {
                let mut copy = NetParasitics::new(net.name());
                for _ in 1..net.num_nodes() {
                    copy.add_node();
                }
                net.load_nodes().iter().for_each(|&n| copy.mark_load(n));
                net.resistors().iter().for_each(|&(a, b, r)| copy.add_resistor(a, b, r));
                net.ground_caps().iter().for_each(|&(n, c)| copy.add_ground_cap(n, c));
                db.add_net(copy);
            }
            for c in chip.couplings() {
                let end = |t: (usize, usize)| NetNodeRef { net: PNetId(t.0), node: t.1 };
                db.add_coupling(end((c.a.net.0, c.a.node)), end((c.b.net.0, c.b.node)), c.farads);
            }
            write_spef(&db)
        }};
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// FNV-1a of `bytes`, continuing from `hash`.
    fn fnv(hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
        let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        bytes.into_iter().fold(hash, step)
    }

    /// FNV-1a over the outcomes a test has seen, in order.
    struct Outcomes(u64);

    impl Outcomes {
        fn new() -> Self {
            Outcomes(FNV_OFFSET)
        }

        /// Parse `text` and absorb the outcome: the database as `write_spef`
        /// renders it (a value by its shortest round-trip decimal, so by its
        /// bits) or the error with its line. Returns whether the text parsed.
        /// A database's name map and per-net coupling lists are also checked.
        fn parse(&mut self, text: &str, what: &str) -> bool {
            let got = parse_spef(text);
            for (id, net) in got.iter().flat_map(ParasiticDb::iter) {
                let db = got.as_ref().expect("iterated");
                assert_eq!(db.find_net(net.name()), Some(id), "{what}: name map");
                let touching = |c: &&crate::CouplingCap| c.a.net == id || c.b.net == id;
                let listed = db.couplings_of(id).eq(db.couplings().iter().filter(touching));
                assert!(listed, "{what}: per-net coupling list");
            }
            let seen = got.as_ref().map_or_else(ToString::to_string, write_spef);
            // 0xff is in no text: it ends an outcome.
            self.0 = fnv(self.0, seen.bytes().chain([u8::from(got.is_ok()), 0xff]));
            got.is_ok()
        }
    }

    /// One seeded mutation of `text`: what a truncated transfer, a buggy writer,
    /// another platform's line endings or a hostile client would send.
    fn mutate(text: &str, rng: &mut Rng) -> String {
        const KEYWORDS: [&str; 8] = ["*SPEF", "*NET", "*LOAD", "*R", "*GC", "*END", "*CC", "*X"];
        // Out of range, negative, signed, padded with zeros, at or past the
        // width of an index, or not a number at all; and the empty token.
        const GARBAGE: &str = " -1 +3 +5 1e nan NaN inf -0.0 1e400 1e-400 .5 5. 007 \
            0000000000000000000000002 9999999999999999999 18446744073709551615 \
            18446744073709551616 99999999999999999999 0x10 1_0 ١ 1\u{200b} //";
        const SPACES: [&str; 11] = [
            "\u{a0}", "\u{2003}", "\t", "\u{b}", "\u{c}", "\r", "\u{85}", "\u{2028}", "\u{3000}",
            "\u{1680}", "  ",
        ];
        let pick = |rng: &mut Rng, from: &[&'static str]| from[rng.range_usize(0, from.len())];
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let at = rng.range_usize(0, lines.len());
        let tokens = |line: &str| line.split(' ').map(str::to_owned).collect::<Vec<_>>();
        match rng.range_usize(0, 12) {
            0 => {
                // Truncation at any byte (the texts this arm sees are ASCII).
                return text[..rng.range_usize(0, text.len())].to_owned();
            }
            1 => {
                let mut t = tokens(&lines[at]);
                t[0] = pick(rng, &KEYWORDS).to_owned();
                lines[at] = t.join(" ");
            }
            2 => {
                let mut t = tokens(&lines[at]);
                let k = rng.range_usize(0, t.len());
                let garbage: Vec<&str> = GARBAGE.split(' ').collect();
                t[k] = pick(rng, &garbage).to_owned();
                lines[at] = t.join(" ");
            }
            3 => {
                // Arity: a token lost or doubled.
                let mut t = tokens(&lines[at]);
                let k = rng.range_usize(0, t.len());
                if rng.bool_with(0.5) {
                    t.remove(k);
                } else {
                    t.insert(k, t[k].clone());
                }
                lines[at] = t.join(" ");
            }
            4 => {
                // A coupling record where it may not be (inside a block) or
                // before the nets it names.
                if let Some(cc) = lines.iter().rev().find(|l| l.starts_with("*CC")).cloned() {
                    lines.insert(at, cc);
                }
            }
            5 => {
                // Separators other than a space: between the tokens of a
                // line, and perhaps around it.
                let space = pick(rng, &SPACES);
                lines[at] = lines[at].replace(' ', space);
                if rng.bool_with(0.3) {
                    lines[at] = format!("{space}{}{space}", lines[at]);
                }
            }
            6 => {
                // A second net of an existing name.
                let nets: Vec<usize> =
                    (0..lines.len()).filter(|&i| lines[i].starts_with("*NET ")).collect();
                if nets.len() >= 2 {
                    let from = nets[rng.range_usize(0, nets.len())];
                    let to = nets[rng.range_usize(0, nets.len())];
                    let name = tokens(&lines[from])[1].clone();
                    let mut t = tokens(&lines[to]);
                    t[1] = name;
                    lines[to] = t.join(" ");
                }
            }
            7 => {
                lines.remove(at);
            }
            8 => {
                // A node index past the end of its net.
                let mut t = tokens(&lines[at]);
                if t.len() > 2 {
                    let k = rng.range_usize(1, t.len() - 1);
                    t[k] = rng.range_usize(0, 4000).to_string();
                    lines[at] = t.join(" ");
                }
            }
            9 => {
                // A comment, flush left or after blanks of any kind: a line
                // of its own, or a record commented out.
                let lead = if rng.bool_with(0.5) { pick(rng, &SPACES) } else { "" };
                lines.insert(at, format!("{lead}//{}", lines[at]));
                if rng.bool_with(0.5) {
                    lines.remove(at + 1);
                }
            }
            10 if at + 1 < lines.len() => {
                // Two lines joined by white space that is not a line end:
                // a lone `\r`, a form feed, U+2028.
                let next = lines.remove(at + 1);
                lines[at] = format!("{}{}{next}", lines[at], pick(rng, &SPACES));
            }
            _ => {
                // One byte, anywhere, becomes another printable one.
                let mut bytes = text.as_bytes().to_vec();
                let k = rng.range_usize(0, bytes.len());
                bytes[k] = b' ' + rng.range_usize(0, 95) as u8;
                return String::from_utf8(bytes).expect("ASCII stays UTF-8");
            }
        }
        // Line ends: `\n` as a rule, `\r\n` throughout now and then, and a
        // last line that may end in nothing or in a bare `\r`.
        let mut out = lines.join(if rng.bool_with(0.15) { "\r\n" } else { "\n" });
        out.push_str(["\n", "\n", "\n", "\r\n", "\r", ""][rng.range_usize(0, 6)]);
        out
    }

    /// Chips of `pcv-designs`, a zero-cap database and a text that interleaves
    /// couplings with blocks, each parsed as written and under `rounds` seeded
    /// mutations up to three deep; returns the digest of every outcome.
    fn corpus_digest(rounds: usize) -> u64 {
        use pcv_designs::random::{random_cluster, RandomClusterConfig};
        use pcv_designs::structures::{bundle, sandwich};
        let tech = pcv_designs::Technology::c025();
        let random =
            RandomClusterConfig { n_aggressors: 5, max_len: 600e-6, seed: 9, ..Default::default() };
        let mut texts = vec![
            spef_of!(bundle(5, 300e-6, &tech)),
            spef_of!(sandwich(40e-6, &tech)),
            spef_of!(random_cluster(&random, &tech).db),
            write_spef(&zero_cap_db()),
        ];
        // A `*CC` may follow its nets at once, and nets keep arriving after it.
        texts.push(
            "// head\n*SPEF pcv-lite 1.0 extra tokens are fine here\n*NET a 2\n*LOAD 1\n*END\n\
             *NET b 3\n*END\n*CC a 1 b 2 1e-15\n*CC b 0 a 0 2e-15\n*NET c 1\n*END\n\
             *CC c 0 a 1 3e-15\n*CC a 0 c 0 0\n\r\n*CC b 1 c 0 4e-15\r\n"
                .to_owned(),
        );
        let mut rng = Rng::new(0x5BEF_D1FF);
        let mut seen = Outcomes::new();
        let mut accepted = 0;
        for (k, text) in texts.iter().enumerate() {
            assert!(seen.parse(text, &format!("text {k}")), "text {k} parses");
            for round in 0..rounds {
                // Up to three deep: later damage meets a state earlier damage bent.
                let mut hostile = mutate(text, &mut rng);
                for _ in 0..rng.range_usize(0, 3) {
                    if !hostile.is_empty() && hostile.is_ascii() && hostile.lines().count() > 0 {
                        hostile = mutate(&hostile, &mut rng);
                    }
                }
                let what = format!("text {k} round {round}:\n{hostile}");
                accepted += usize::from(seen.parse(&hostile, &what));
            }
        }
        let rejected = texts.len() * rounds - accepted;
        assert!(accepted > rounds / 3 && rejected > rounds * 5 / 3, "{accepted} / {rejected}");
        seen.0
    }

    /// The digests below were recorded from the parser this one replaced (`trim`,
    /// `split_whitespace` and `str::parse` per line, itself checked against its
    /// predecessor): one that moves means a bit, a message or a line number moved.
    #[test]
    fn parser_matches_the_reference_on_chips_and_their_mutations() {
        assert_eq!(corpus_digest(300), 0xB100_B907_CA05_9AFE, "1 500 mutations");
    }

    /// The same corpus at 20 000 mutations — the `chaos` CI job's share.
    #[test]
    #[ignore = "20 000 mutations: run by the chaos CI job"]
    fn parser_matches_the_reference_on_twenty_thousand_mutations() {
        assert_eq!(corpus_digest(4000), 0x4DFB_E0C9_C8B3_2955, "20 000 mutations");
    }

    #[test]
    fn the_word_scan_stops_where_the_byte_table_does() {
        // Mostly token bytes, so tokens cross words; now and then any byte,
        // control characters (token bytes below `!`) and wide ones included.
        let mut rng = Rng::new(0x70CE_0E4D);
        for _ in 0..3000 {
            let bytes: Vec<u8> = (0..rng.range_usize(0, 40))
                .map(|_| match rng.bool_with(0.85) {
                    true => rng.range_usize(0x21, 0x7f) as u8,
                    false => rng.range_usize(0, 256) as u8,
                })
                .collect();
            for i in 0..=bytes.len() {
                let rest = &bytes[i..];
                let by_table = rest.iter().position(|&b| CLASS[b as usize] != Byte::Token);
                let want = i + by_table.unwrap_or(rest.len());
                assert_eq!(token_end(&bytes, i), want, "{bytes:?} from {i}");
            }
        }
        let db = parse_spef("*NET a\u{1}\u{7f}long\u{1f}name 1\n*END\n").unwrap();
        assert_eq!(db.net(PNetId(0)).name(), "a\u{1}\u{7f}long\u{1f}name");
    }

    /// A seeded database that probes the writer's shortcuts: node counts and
    /// indices across 9/10 and 99/100, non-ASCII names, and runs of a value
    /// broken by one other and resumed. The three columns draw from one
    /// palette, so equal bits meet in two of them.
    fn probe_db(rng: &mut Rng, nets: usize) -> ParasiticDb {
        const NAMES: [&str; 8] = ["n", "é", "网络", "ß_", "∑x", "a.b[3]/", "🔌", "Ω"];
        const COUNTS: [usize; 9] = [1, 2, 9, 10, 11, 99, 100, 101, 1000];
        const PALETTE: [f64; 9] =
            [5e-324, f64::MIN_POSITIVE, f64::MAX, 0.1 + 0.2, 5.0, 1e-15, 2.5e-15, 120.0, 0.0];
        // A finite value of at least `floor`: from the palette, or any bits.
        let draw = |rng: &mut Rng, floor: f64| loop {
            let v = match rng.bool_with(0.6) {
                true => PALETTE[rng.range_usize(0, PALETTE.len())],
                false => f64::from_bits(rng.next_u64() >> 1),
            };
            if v >= floor && v.is_finite() {
                break v;
            }
        };
        // The next value of a column: its run's, a new run's, or one other.
        let next = |rng: &mut Rng, held: &mut f64, floor: f64| match rng.range_usize(0, 20) {
            0 => draw(rng, floor),
            1 => {
                *held = draw(rng, floor);
                *held
            }
            _ => *held,
        };
        let mut db = ParasiticDb::new();
        let (mut r, mut gc, mut cc) = (5.0, 5.0, 5.0);
        for k in 0..nets {
            let n = COUNTS[rng.range_usize(0, COUNTS.len())];
            let mut net = NetParasitics::with_nodes(format!("{}{k}", NAMES[k % NAMES.len()]), n);
            (0..rng.range_usize(0, 3)).for_each(|_| net.mark_load(rng.range_usize(0, n)));
            for a in 1..n {
                let b = if rng.bool_with(0.9) { a - 1 } else { rng.range_usize(0, n) };
                net.add_resistor(b, a, next(rng, &mut r, 5e-324));
            }
            for node in 0..n {
                net.add_ground_cap(node, next(rng, &mut gc, 0.0));
            }
            db.add_net(net);
        }
        let couplings = if nets > 1 { 3 * nets } else { 0 };
        for _ in 0..couplings {
            let (a, b) = (rng.range_usize(0, nets), rng.range_usize(1, nets));
            let b = (a + b) % nets;
            let end = |db: &ParasiticDb, rng: &mut Rng, net: usize| NetNodeRef {
                net: PNetId(net),
                node: rng.range_usize(0, db.net(PNetId(net)).num_nodes()),
            };
            let (a, b) = (end(&db, rng, a), end(&db, rng, b));
            db.add_coupling(a, b, next(rng, &mut cc, 0.0));
        }
        db
    }

    /// The writer's bytes on the corpus chips, `zero_cap_db` and seeded
    /// probes, digested. The digest was recorded by running this test against
    /// the writer that formatted every record on its own, so one that moves
    /// means a byte moved. (The DSP block's bytes are pinned beside its cell
    /// library: `pcv_designs::extract::tests::DSP_PIN`.) Every text also
    /// reads back to itself: write, parse and write again is the identity.
    #[test]
    fn writer_bytes_are_the_recorded_ones() {
        use pcv_designs::random::{random_cluster, RandomClusterConfig};
        use pcv_designs::structures::{bundle, sandwich};
        let tech = pcv_designs::Technology::c025();
        let random =
            RandomClusterConfig { n_aggressors: 5, max_len: 600e-6, seed: 9, ..Default::default() };
        let mut texts = vec![
            spef_of!(bundle(5, 300e-6, &tech)),
            spef_of!(sandwich(40e-6, &tech)),
            spef_of!(random_cluster(&random, &tech).db),
            write_spef(&zero_cap_db()),
        ];
        let mut rng = Rng::new(0x0057_E1F0);
        texts.extend((0..24).map(|k| write_spef(&probe_db(&mut rng, [1, 2, 10, 11, 101][k % 5]))));
        let mut digest = FNV_OFFSET;
        for (k, text) in texts.iter().enumerate() {
            let back = parse_spef(text).unwrap_or_else(|e| panic!("text {k}: {e}"));
            assert!(write_spef(&back) == *text, "text {k}: written again, a byte moved");
            digest = fnv(digest, text.bytes().chain([0xff]));
        }
        assert_eq!(digest, 0xFC38_642A_D955_1828, "{digest:#X}");
    }

    #[test]
    fn exotic_whitespace_separates_and_trims_as_before() {
        // Tokens and blank lines follow Unicode White_Space, not ASCII:
        // U+00A0 and U+2003 separate tokens, and a line of them is blank.
        let text = "*NET\u{a0}a\u{2003}2\n\u{2003}*GC 1\u{a0}1e-15\u{a0}\n\u{a0}\u{2003}\n*END\n\
                    *NET b 1\n*END\n*CC\u{a0}a 1\u{2003}b 0 1e-15\n";
        let mut seen = Outcomes::new();
        assert!(seen.parse(text, "exotic separators"));
        let db = parse_spef(text).unwrap();
        assert_eq!((db.num_nets(), db.couplings().len()), (2, 1));
        // U+200B (zero width space) is not White_Space: it glues tokens.
        assert!(!seen.parse("*NET a\u{200b}1\n*END\n", "zero width space"));
        assert_eq!(seen.0, 0x0860_C51F_3542_57A0);
    }

    #[test]
    fn line_ends_blanks_and_numbers_read_as_they_always_did() {
        // A text, and the error it earns as `line: message` (none: it parses).
        let cases: [(&str, &str); 23] = [
            // `\n` alone ends a line; `\r`, form feed, vertical tab, U+0085
            // and U+2028 are blanks inside one.
            ("*NET a 2\r\n*GC 1 1e-15\r\n*END\r\n", ""),
            ("*NET a 2\r*GC 1 1e-15\n*END\n", "1: *NET needs <name> <num_nodes>"),
            ("*NET a 2\n*GC\u{c}1\u{b}1e-15\n\u{c}\n*END\r", ""),
            ("*NET a\u{85}2\n*GC 1\u{2028}1e-15\n*END\n", ""),
            ("*NET a 2\n*END\u{2028}*NET b 1\n*END\n", "3: *END without *NET"),
            // A last line needs no line end, and is counted when it has none.
            ("*NET a 2\n*END", ""),
            ("*NET a 2\n*GC 1 1e-15", "2: unterminated *NET block"),
            ("*NET a 2\n*GC 1 1e-15\n", "2: unterminated *NET block"),
            ("*NET a 2\n\n\n", "3: unterminated *NET block"),
            // A comment starts at the first non-blank; `//` further in is a token.
            (" \t// *BOGUS\n\u{a0}//\n*NET a 2\n*END\n", ""),
            ("*NET a 2 // two nodes\n*END\n", "1: *NET needs <name> <num_nodes>"),
            ("*NET // 2\n*END\n", ""),
            // Indices are `usize::from_str`: a `+`, leading zeros and all 20
            // digits of `usize::MAX` read, one more overflows, `-` never reads.
            ("*NET a +2\n*LOAD +1\n*R 00 01 5\n*END\n", ""),
            ("*NET a 2\n*LOAD 0000000000000000000000001\n*END\n", ""),
            ("*NET a 2\n*LOAD 9999999999999999999\n*END\n", "2: load node out of range"),
            ("*NET a 2\n*LOAD 18446744073709551615\n*END\n", "2: load node out of range"),
            ("*NET a 2\n*LOAD 18446744073709551616\n*END\n", "2: invalid node index"),
            ("*NET a 2\n*LOAD -0\n*END\n", "2: invalid node index"),
            ("*NET a 1_0\n*END\n", "1: invalid node count"),
            // A node count costs no work per node, however large.
            ("*NET a 18446744073709551615\n*LOAD 18446744073709551614\n*END\n", ""),
            // Values are `f64::from_str`, then range-checked.
            ("*NET a 2\n*R 0 1 1e400\n*END\n", "2: resistance must be positive"),
            ("*NET a 2\n*GC 1 nan\n*END\n", "2: capacitance must be non-negative"),
            ("*NET a 2\n*GC 1 -0.0\n*GC 0 1e-400\n*R 0 1 .5\n*R 1 0 5.\n*END\n", ""),
        ];
        let mut seen = Outcomes::new();
        for (text, want) in cases {
            seen.parse(text, text);
            let got = parse_spef(text).err().map(|e| format!("{}: {}", e.line, e.message));
            assert_eq!(got.unwrap_or_default(), want, "{text:?}");
        }
        assert_eq!(seen.0, 0xC2F3_B88E_3D9C_C5B6);
    }

    #[test]
    fn cc_name_memo_never_outlives_a_lookup_it_did_not_make() {
        // The remembered pair must answer only for the names it holds:
        // a prefix, a different case, or an unknown name still asks the map.
        let nets = "*NET ab 1\n*END\n*NET a 1\n*END\n*NET B 1\n*END\n";
        let mut seen = Outcomes::new();
        for (cc, ok) in [
            ("*CC ab 0 a 0 1e-15\n*CC a 0 ab 0 1e-15\n*CC a 0 B 0 1e-15\n", true),
            ("*CC ab 0 a 0 1e-15\n*CC ab 0 b 0 1e-15\n", false),
            ("*CC ab 0 a 0 1e-15\n*CC ab 0 ab 0 1e-15\n", false),
            ("*CC ab 0 a 0 1e-15\n*CC a 0 a 0 1e-15\n", false),
            ("*CC ab 0 a 0 1e-15\n*CC abc 0 a 0 1e-15\n", false),
        ] {
            let text = format!("{nets}{cc}");
            assert_eq!(seen.parse(&text, cc), ok, "{cc}");
        }
        assert_eq!(seen.0, 0x0A2B_4F0A_DDE3_A08B);
    }
}
