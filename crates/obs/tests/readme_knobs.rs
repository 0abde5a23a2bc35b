//! The README's "Runtime knobs" table lists exactly the `TPOT_*` variables
//! that `Config::from_env` reads, so a knob added or deleted in one place
//! cannot linger in only the other.

use std::collections::BTreeSet;

const README: &str = include_str!("../../../README.md");
const OBS_SRC: &str = include_str!("../src/lib.rs");

/// Every `TPOT_*` name that `text` encloses in `quote` characters.
fn quoted_knobs(text: &str, quote: char) -> BTreeSet<&str> {
    text.match_indices(&format!("{quote}TPOT_"))
        .filter_map(|(i, _)| {
            let rest = &text[i + 1..];
            let name = &rest[..rest.find(quote)?];
            name.bytes()
                .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
                .then_some(name)
        })
        .collect()
}

/// The first cell of each row of the README's "Runtime knobs" table.
fn readme_knobs() -> BTreeSet<&'static str> {
    let start = README
        .find("\n## Runtime knobs\n")
        .expect("README has a Runtime knobs section");
    let section = &README[start + 1..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| "))
        .filter_map(|l| l.split(" |").next())
        .flat_map(|cell| quoted_knobs(cell, '`'))
        .collect()
}

/// The string literals `Config::from_env` passes to the environment.
fn from_env_knobs() -> BTreeSet<&'static str> {
    let start = OBS_SRC
        .find("pub fn from_env()")
        .expect("tpot-obs defines Config::from_env");
    let body = &OBS_SRC[start..];
    let body = &body[..body.find("\n    }\n").expect("from_env ends")];
    quoted_knobs(body, '"')
}

#[test]
fn readme_knob_table_matches_config_from_env() {
    let readme = readme_knobs();
    let env = from_env_knobs();
    assert!(env.len() >= 10, "from_env parse found only {env:?}");
    let only_readme: Vec<_> = readme.difference(&env).collect();
    let only_env: Vec<_> = env.difference(&readme).collect();
    assert!(
        only_readme.is_empty() && only_env.is_empty(),
        "README lists {only_readme:?} that Config::from_env does not read; \
         Config::from_env reads {only_env:?} that the README does not list"
    );
}
