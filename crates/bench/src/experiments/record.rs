//! `EXPERIMENTS.md`'s measured blocks. Each sits between a line
//! `<!-- experiment: NAME -->` and a line `<!-- /experiment -->`, and
//! [`splice`] replaces everything between the two with NAME's text in a
//! fenced block; the rest of the document is kept byte for byte.

const OPEN: &str = "<!-- experiment: ";
const CLOSE: &str = "<!-- /experiment -->";

/// Rewrite every marked block of `doc` with its text from `blocks`
/// (`(name, text)` pairs).
///
/// # Errors
///
/// A message naming the cause, and the 1-based line where there is one: a
/// block with no marker, a marker that appears twice, a marker whose name
/// has no block, an opening marker without its closing one (or inside
/// another block), or a closing marker without an opening one.
pub fn splice(doc: &str, blocks: &[(&str, String)]) -> Result<String, String> {
    let mut out = String::with_capacity(doc.len());
    let mut seen: Vec<&str> = Vec::new();
    let mut open: Option<usize> = None;
    for (k, line) in doc.split_inclusive('\n').enumerate() {
        let at = k + 1;
        let marker = line.trim_end();
        if let Some(name) = marker.strip_prefix(OPEN).and_then(|m| m.strip_suffix(" -->")) {
            if let Some(first) = open {
                return Err(format!(
                    "line {at}: marker {name:?} opens inside the block of line {first}"
                ));
            }
            let Some((_, text)) = blocks.iter().find(|(n, _)| *n == name) else {
                return Err(format!("line {at}: unknown experiment {name:?}"));
            };
            if seen.contains(&name) {
                return Err(format!("line {at}: duplicate marker for {name:?}"));
            }
            seen.push(name);
            open = Some(at);
            out.push_str(line);
            out.push_str("```\n");
            out.push_str(text);
            if !text.ends_with('\n') {
                out.push('\n');
            }
            out.push_str("```\n");
        } else if marker == CLOSE {
            if open.take().is_none() {
                return Err(format!("line {at}: closing marker without an opening one"));
            }
            out.push_str(line);
        } else if open.is_none() {
            out.push_str(line);
        }
    }
    if let Some(first) = open {
        return Err(format!("line {first}: marker is never closed"));
    }
    match blocks.iter().find(|(name, _)| !seen.contains(name)) {
        Some((name, _)) => Err(format!("no marker for experiment {name:?}")),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks() -> Vec<(&'static str, String)> {
        vec![("a", "one\n".to_owned()), ("b", "two".to_owned())]
    }

    #[test]
    fn blocks_are_rewritten_and_the_rest_is_kept() {
        let doc = "# t\n<!-- experiment: a -->\n```\nstale\n```\n<!-- /experiment -->\nprose\n\
                   <!-- experiment: b -->\n<!-- /experiment -->\n";
        let out = splice(doc, &blocks()).unwrap();
        assert_eq!(
            out,
            "# t\n<!-- experiment: a -->\n```\none\n```\n<!-- /experiment -->\nprose\n\
             <!-- experiment: b -->\n```\ntwo\n```\n<!-- /experiment -->\n"
        );
        assert_eq!(splice(&out, &blocks()).unwrap(), out, "a second splice writes the same bytes");
    }

    #[test]
    fn a_bad_marker_names_its_cause() {
        let a = "<!-- experiment: a -->\n<!-- /experiment -->\n";
        let b = "<!-- experiment: b -->\n<!-- /experiment -->\n";
        for (doc, cause) in [
            (a.to_owned(), "no marker for experiment \"b\""),
            (format!("{a}{b}{a}"), "line 5: duplicate marker for \"a\""),
            (format!("{a}{b}<!-- experiment: c -->\n"), "line 5: unknown experiment \"c\""),
            (format!("{b}<!-- experiment: a -->\n"), "line 3: marker is never closed"),
            (
                format!("<!-- experiment: a -->\n{b}"),
                "line 2: marker \"b\" opens inside the block of line 1",
            ),
            (
                format!("{a}{b}<!-- /experiment -->\n"),
                "line 5: closing marker without an opening one",
            ),
        ] {
            assert_eq!(splice(&doc, &blocks()).unwrap_err(), cause, "{doc}");
        }
    }
}
