//! What a run measures: the expected verdict of every bundled POT, the ci
//! pool with its cost table, the edit-loop edit set, and the seeded draws
//! over them. Everything here is a pure function of the seed, so the same
//! seed gives the same inputs in every process.

use tpot_targets::Target;

/// The six bundled targets: (benchmark id, `tpot_targets::target` key).
pub const TARGETS: [(&str, &str); 6] = [
    ("pkvm", "pkvm"),
    ("vigor", "vigor"),
    ("pgtable", "page table"),
    ("usb", "usb"),
    ("komodo-s", "komodo-s"),
    ("komodo-star", "komodo*"),
];

/// The bundled target behind a benchmark id.
pub fn target(id: &str) -> Target {
    let (_, key) = TARGETS
        .iter()
        .find(|(i, _)| *i == id)
        .unwrap_or_else(|| panic!("unknown target id {id:?}"));
    tpot_targets::target(key).unwrap_or_else(|| panic!("target {key:?} is not bundled"))
}

/// The translation unit `Target::full_source` builds, with `impl_src`
/// standing in for the target's implementation (the edit-loop edits it).
pub fn full_source(t: &Target, impl_src: &str) -> String {
    let mut s = String::new();
    if let Some(m) = t.models_src {
        s.push_str(m);
        s.push('\n');
    }
    s.push_str(impl_src);
    s.push('\n');
    s.push_str(t.spec_src);
    s
}

/// A POT verdict as the expected table states it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Proved,
    Failed,
}

const P: Verdict = Verdict::Proved;

/// The expected verdict of every POT of the six targets, written by hand.
/// Table 5 of the paper verifies every one, so every entry is `Proved`.
/// A verdict the engine gets wrong stays `Proved` here and is counted as a
/// failure: at HEAD that is Komodo* `spec__init_addrspace_ok`, USB
/// `spec__probe_init` and pKVM `spec__alloc_contig`.
pub const EXPECTED: &[(&str, &str, Verdict)] = &[
    ("pkvm", "spec__alloc_page", P),
    ("pkvm", "spec__alloc_contig", P),
    ("pkvm", "spec__nr_pages", P),
    ("pkvm", "spec__init", P),
    ("vigor", "spec__borrow", P),
    ("vigor", "spec__borrow_picks_free_slot", P),
    ("vigor", "spec__refresh", P),
    ("vigor", "spec__return", P),
    ("vigor", "spec__expire", P),
    ("pgtable", "spec__set_pte", P),
    ("pgtable", "spec__set_invalid", P),
    ("pgtable", "spec__set_prot", P),
    ("usb", "spec__open", P),
    ("usb", "spec__close", P),
    ("usb", "spec__probe_init", P),
    ("usb", "spec__disconnect", P),
    ("usb", "spec__irq_decode", P),
    ("komodo-s", "spec__get_secure_pages", P),
    ("komodo-s", "spec__init_addrspace_ok", P),
    ("komodo-s", "spec__init_addrspace_inuse", P),
    ("komodo-s", "spec__init_dispatcher", P),
    ("komodo-s", "spec__init_dispatcher_frame", P),
    ("komodo-s", "spec__init_l2table", P),
    ("komodo-s", "spec__map_secure", P),
    ("komodo-s", "spec__map_secure_bad_l2", P),
    ("komodo-s", "spec__map_insecure", P),
    ("komodo-s", "spec__remove_stopped", P),
    ("komodo-s", "spec__remove_running_fails", P),
    ("komodo-s", "spec__finalise", P),
    ("komodo-s", "spec__finalise_twice_fails", P),
    ("komodo-s", "spec__stop", P),
    ("komodo-s", "spec__enter", P),
    ("komodo-s", "spec__enter_not_final_fails", P),
    ("komodo-s", "spec__resume_exit", P),
    ("komodo-star", "spec__va_pa_roundtrip", P),
    ("komodo-star", "spec__pa_walk_rejects_insecure", P),
    ("komodo-star", "spec__word_rw", P),
    ("komodo-star", "spec__word_rw_frame", P),
    ("komodo-star", "spec__init_addrspace_ok", P),
    ("komodo-star", "spec__init_addrspace_inuse", P),
    ("komodo-star", "spec__init_dispatcher", P),
    ("komodo-star", "spec__init_l2table", P),
    ("komodo-star", "spec__map_secure", P),
    ("komodo-star", "spec__remove_stopped", P),
    ("komodo-star", "spec__remove_running_fails", P),
    ("komodo-star", "spec__finalise", P),
    ("komodo-star", "spec__finalise_twice_fails", P),
    ("komodo-star", "spec__stop", P),
    ("komodo-star", "spec__enter", P),
    ("komodo-star", "spec__enter_not_final_fails", P),
    ("komodo-star", "spec__resume_exit", P),
];

/// The expected verdict of `target:pot`, if the table lists it.
pub fn expected(table: &[(&str, &str, Verdict)], target: &str, pot: &str) -> Option<Verdict> {
    table
        .iter()
        .find(|(t, p, _)| *t == target && *p == pot)
        .map(|(_, _, v)| *v)
}

/// The ci pool: the 29 POTs that decide within 25 s at `jobs=1`, each with
/// its median seconds at `jobs=1` on a 2-vCPU KVM guest at the commit that
/// added this benchmark. The costs are the unit of the draw budget only;
/// they are never compared with a measurement, so a faster engine changes
/// run times but not which POTs a seed draws.
pub const POOL: &[(&str, &str, f64)] = &[
    ("pkvm", "spec__alloc_page", 17.7),
    ("pkvm", "spec__nr_pages", 0.04),
    ("pkvm", "spec__init", 0.01),
    ("vigor", "spec__refresh", 0.33),
    ("vigor", "spec__return", 0.33),
    ("pgtable", "spec__set_pte", 1.3),
    ("pgtable", "spec__set_invalid", 0.71),
    ("pgtable", "spec__set_prot", 1.01),
    ("usb", "spec__open", 8.92),
    ("usb", "spec__close", 10.61),
    ("usb", "spec__disconnect", 4.92),
    ("usb", "spec__irq_decode", 15.01),
    ("komodo-s", "spec__init_addrspace_inuse", 0.64),
    ("komodo-s", "spec__init_dispatcher", 2.73),
    ("komodo-s", "spec__init_l2table", 3.55),
    ("komodo-s", "spec__map_secure_bad_l2", 2.39),
    ("komodo-s", "spec__finalise", 3.36),
    ("komodo-s", "spec__finalise_twice_fails", 2.96),
    ("komodo-s", "spec__stop", 3.06),
    ("komodo-star", "spec__va_pa_roundtrip", 2.71),
    ("komodo-star", "spec__pa_walk_rejects_insecure", 45.15),
    ("komodo-star", "spec__word_rw", 23.58),
    ("komodo-star", "spec__init_addrspace_ok", 23.12),
    ("komodo-star", "spec__init_addrspace_inuse", 0.66),
    ("komodo-star", "spec__init_dispatcher", 3.09),
    ("komodo-star", "spec__init_l2table", 4.13),
    ("komodo-star", "spec__finalise", 6.14),
    ("komodo-star", "spec__finalise_twice_fails", 17.88),
    ("komodo-star", "spec__stop", 6.87),
];

/// In every ci-seq draw, and all of ci-par: the paper's Appendix-A
/// walkthrough, whose SAT work repeats exactly from run to run at `jobs=1`.
pub const ALWAYS_DRAWN: (&str, &str) = ("pkvm", "spec__alloc_page");

/// The edit-loop edit set: the POTs each request of a component asks for.
/// Their cold runs are short, and their replays cover a replay without a
/// miss (pKVM), a replay with a few misses (page table) and a replay that
/// costs as much as a cold run (Vigor).
pub const EDIT_SET: [(&str, &[&str]); 3] = [
    ("pkvm", &["spec__nr_pages", "spec__init"]),
    ("vigor", &["spec__refresh", "spec__return"]),
    (
        "pgtable",
        &["spec__set_pte", "spec__set_invalid", "spec__set_prot"],
    ),
];

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The ci draw for `seed`: [`ALWAYS_DRAWN`], then one POT of every other
/// target, then seeded fill, all within `budget_s` of pool cost. A target's
/// pick leaves room for the cheapest POT of each target still to come, so
/// every target is represented and the drawn cost stays close to the
/// budget whatever the seed. Returned grouped by target, in [`TARGETS`]
/// order.
pub fn ci_draw(seed: u64, budget_s: f64) -> Vec<(&'static str, &'static str)> {
    let mut rng = Rng::new(seed);
    let cost = |t: &str, p: &str| {
        POOL.iter()
            .find(|(pt, pp, _)| *pt == t && *pp == p)
            .map(|(_, _, c)| *c)
            .expect("drawn POTs come from the pool")
    };
    let cheapest = |t: &str| {
        POOL.iter()
            .filter(|(pt, _, _)| *pt == t)
            .map(|(_, _, c)| *c)
            .fold(f64::INFINITY, f64::min)
    };
    let mut drawn = vec![ALWAYS_DRAWN];
    let mut left = budget_s - cost(ALWAYS_DRAWN.0, ALWAYS_DRAWN.1);
    let mut rest: Vec<&str> = TARGETS
        .iter()
        .map(|(t, _)| *t)
        .filter(|t| *t != ALWAYS_DRAWN.0)
        .collect();
    rng.shuffle(&mut rest);
    for i in 0..rest.len() {
        let reserve: f64 = rest[i + 1..].iter().map(|t| cheapest(t)).sum();
        let mut fits: Vec<(&str, &str, f64)> = POOL
            .iter()
            .filter(|(t, _, c)| *t == rest[i] && *c <= left - reserve)
            .copied()
            .collect();
        if fits.is_empty() {
            // Over budget: the cheapest POT keeps the target represented.
            fits = POOL
                .iter()
                .filter(|(t, _, c)| *t == rest[i] && *c == cheapest(t))
                .copied()
                .collect();
        }
        let (t, p, c) = fits[rng.below(fits.len())];
        drawn.push((t, p));
        left -= c;
    }
    let mut fill: Vec<(&str, &str, f64)> = POOL
        .iter()
        .filter(|(t, p, _)| !drawn.contains(&(*t, *p)))
        .copied()
        .collect();
    rng.shuffle(&mut fill);
    for (t, p, c) in fill {
        if c <= left {
            drawn.push((t, p));
            left -= c;
        }
    }
    let order = |t: &str| TARGETS.iter().position(|(i, _)| *i == t);
    drawn.sort_by_key(|(t, _)| order(t));
    drawn
}

/// What one edit-loop request does to its component.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// One more semantics-preserving `+ 0` at a seeded site of the newest
    /// version: a source the daemon has never seen.
    Edit,
    /// Resubmit a seeded earlier version (the base version if there is no
    /// other): every POT is in the POT-outcome table.
    Revert,
    /// Resubmit the newest version unchanged.
    Resubmit,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Edit => "edit",
            Kind::Revert => "revert",
            Kind::Resubmit => "resubmit",
        }
    }
}

/// One request of the edit-loop stream: the component (an index into
/// [`EDIT_SET`]), what it does, and the seeded pick of a site or version.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    pub comp: usize,
    pub kind: Kind,
    pub pick: u64,
}

/// The edit-loop stream of `n` requests for `seed`. The mix is fixed —
/// 40% edits, 30% reverts, 30% resubmits, each spread evenly over the
/// three components — and only the order and the picks are seeded, so
/// every seed sends the same kind of load. The edit share stays clear of
/// one half so that the median request is never on the boundary between
/// the fast (cached) and the slow (engine) requests.
pub fn edit_stream(seed: u64, n: usize) -> Vec<Step> {
    let mut rng = Rng::new(seed ^ 0x6564_6974_2d6c_6f6f);
    let edits = n * 2 / 5;
    let reverts = n * 3 / 10;
    let mut steps: Vec<Step> = (0..n)
        .map(|i| {
            let (kind, j) = if i < edits {
                (Kind::Edit, i)
            } else if i < edits + reverts {
                (Kind::Revert, i - edits)
            } else {
                (Kind::Resubmit, i - edits - reverts)
            };
            Step {
                comp: j % EDIT_SET.len(),
                kind,
                pick: 0,
            }
        })
        .collect();
    rng.shuffle(&mut steps);
    for s in &mut steps {
        s.pick = rng.next_u64();
    }
    steps
}

/// The `return <expr>;` statements of `src` that return a non-pointer
/// value, as (enclosing function, byte offset of the `;`). Appending
/// ` + 0` before the `;` changes the function's TIR but not its meaning.
pub fn return_sites(src: &str) -> Vec<(String, usize)> {
    let b = src.as_bytes();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut out = Vec::new();
    let (mut depth, mut i, mut header_start) = (0usize, 0usize, 0usize);
    let mut func: Option<String> = None;
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                if depth == 0 {
                    header_start = i;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                    i += 1;
                }
                i += 1;
                if depth == 0 {
                    header_start = i + 1;
                }
            }
            q @ (b'"' | b'\'') => {
                i += 1;
                while i < b.len() && b[i] != q {
                    if b[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
            }
            b'#' if depth == 0 => {
                // Preprocessor line, with backslash continuations.
                while i < b.len() && !(b[i] == b'\n' && b[i - 1] != b'\\') {
                    i += 1;
                }
                header_start = i;
            }
            b'{' => {
                if depth == 0 {
                    func = function_name(&src[header_start..i]);
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    func = None;
                    header_start = i + 1;
                }
            }
            b';' if depth == 0 => header_start = i + 1,
            c if ident(c) && (i == 0 || !ident(b[i - 1])) => {
                let start = i;
                while i < b.len() && ident(b[i]) {
                    i += 1;
                }
                if depth > 0 && &src[start..i] == "return" {
                    if let (Some(f), Some(end)) = (&func, src[i..].find(';')) {
                        if !src[i..i + end].trim().is_empty() {
                            out.push((f.clone(), i + end));
                        }
                    }
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// The name of the function a definition header declares, or `None` for a
/// pointer-returning function or a non-function (struct, initializer).
fn function_name(header: &str) -> Option<String> {
    let paren = header.find('(')?;
    let before = header[..paren].trim_end();
    let name_start = before
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .map_or(0, |k| k + 1);
    let name = &before[name_start..];
    let ret = &before[..name_start];
    if name.is_empty() || ret.contains('*') || ret.contains('=') || ret.trim().is_empty() {
        return None;
    }
    Some(name.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn return_sites_skip_pointers_void_and_comments() {
        let src = "#define X(a) \\\n  (a)\n/* f(x) doubles */\nstatic int f(int x) {\n  /* return 1; */\n  if (x) return x * 2;\n  return X(x);\n}\nvoid g(void) { return; }\nchar *h(char *p) { return p; }\nstruct s { int a; };\nint k(void) { return \"}\"[0]; }\n";
        let sites = return_sites(src);
        let names: Vec<&str> = sites.iter().map(|(f, _)| f.as_str()).collect();
        assert_eq!(names, ["f", "f", "k"]);
        for (_, at) in sites {
            assert_eq!(&src[at..at + 1], ";");
        }
    }

    #[test]
    fn draws_repeat_and_cover_every_target() {
        for seed in 0..50 {
            let a = ci_draw(seed, 30.0);
            assert_eq!(a, ci_draw(seed, 30.0));
            assert!(a.contains(&ALWAYS_DRAWN));
            for (t, _) in TARGETS {
                assert!(a.iter().any(|(dt, _)| *dt == t), "seed {seed}: no {t}");
            }
        }
    }
}
