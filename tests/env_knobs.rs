//! The environment-variable surface: every `"MONTSALVAT_…"` string
//! literal in the library and binary sources names one of a fixed set
//! of knobs, and the user-facing docs name each of them.
//!
//! Cost parameters, the collector and the flight recorder's on/off
//! switch have one source each (`AppConfig`, `HeapConfig`); a new
//! variable has to be added here and documented on purpose.

use std::collections::BTreeSet;
use std::path::Path;

/// The variables the sources may read.
const KEPT: [&str; 4] = [
    "MONTSALVAT_PROVIDER",
    "MONTSALVAT_TIMESERIES_WINDOW",
    "MONTSALVAT_TRACE",
    "MONTSALVAT_TRACE_BUFFER",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `MONTSALVAT_[A-Z0-9_]+` name in `text`; with `quoted`, only
/// those that form a whole string literal.
fn names(text: &str, quoted: bool, found: &mut BTreeSet<String>) {
    for (at, _) in text.match_indices("MONTSALVAT_") {
        let name: String = text[at..]
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
            .collect();
        let literal = text[..at].ends_with('"') && text[at + name.len()..].starts_with('"');
        if literal || !quoted {
            found.insert(name);
        }
    }
}

/// [`names`] over every `.ext` file at or under `path`.
fn scan(path: &Path, ext: &str, quoted: bool, found: &mut BTreeSet<String>) {
    if path.is_dir() {
        for entry in std::fs::read_dir(path).expect("directory is readable") {
            scan(&entry.expect("directory entry").path(), ext, quoted, found);
        }
    } else if path.extension().is_some_and(|e| e == ext) {
        names(&std::fs::read_to_string(path).expect("file is UTF-8"), quoted, found);
    }
}

#[test]
fn the_sources_name_exactly_the_kept_variables() {
    let mut found = BTreeSet::new();
    scan(&root().join("src"), "rs", true, &mut found);
    for krate in std::fs::read_dir(root().join("crates")).expect("crates/ is readable") {
        scan(&krate.expect("directory entry").path().join("src"), "rs", true, &mut found);
    }
    let kept: BTreeSet<String> = KEPT.iter().map(|s| s.to_string()).collect();
    assert_eq!(found, kept);
}

#[test]
fn the_docs_name_every_kept_variable() {
    let mut named = BTreeSet::new();
    scan(&root().join("README.md"), "md", false, &mut named);
    scan(&root().join("docs"), "md", false, &mut named);
    for name in KEPT {
        assert!(named.contains(name), "neither README.md nor docs/ names {name}");
    }
}
