//! End-to-end verification of the paper's running examples (Fig. 1 and
//! Fig. 5) plus seeded-bug variants.

use tpot_engine::{EngineConfig, PotStatus, Verifier, VerifyOptions, ViolationKind};
use tpot_ir::lower;

fn verify(src: &str) -> Vec<tpot_engine::PotResult> {
    let checked = tpot_cfront::compile(src).expect("compile");
    let module = lower(&checked).expect("lower");
    Verifier::new(module).verify(&VerifyOptions::new().jobs(1))
}

fn assert_all_proved(results: &[tpot_engine::PotResult]) {
    for r in results {
        match &r.status {
            PotStatus::Proved => {}
            PotStatus::Failed(vs) => {
                panic!("POT {} failed:\n{}", r.pot, vs[0]);
            }
            PotStatus::Error(e) => panic!("POT {} errored: {e}", r.pot),
        }
    }
}

/// Paper Figure 1: two integers whose sum is zero.
const FIG1: &str = r#"
int a, b;
void increment(int *p) { *p = *p + 1; }
void decrement(int *p) { *p = *p - 1; }
void init(void) { a = 0; b = 0; }
void transfer(void) {
  increment(&a);
  decrement(&b);
}
int get_sum(void) { return a + b; }

int inv__sum_zero(void) { return a + b == 0; }

void spec__transfer(void) {
  int old_a = a, old_b = b;
  transfer();
  assert(a == old_a + 1);
  assert(b == old_b - 1);
}
void spec__get_sum(void) {
  int res = get_sum();
  assert(res == 0);
}
"#;

#[test]
fn fig1_verifies() {
    let results = verify(FIG1);
    assert_eq!(results.len(), 2);
    assert_all_proved(&results);
}

#[test]
fn fig1_without_invariant_fails_get_sum() {
    // §3.2: dropping inv__sum_zero must make spec__get_sum fail with a
    // counterexample like (a: 1, b: 0).
    let src = FIG1.replace("int inv__sum_zero(void) { return a + b == 0; }", "");
    let checked = tpot_cfront::compile(&src).unwrap();
    let module = lower(&checked).unwrap();
    let v = Verifier::new(module);
    let r = v.verify_pot("spec__get_sum");
    match r.status {
        PotStatus::Failed(vs) => {
            assert!(vs.iter().any(|v| v.kind == ViolationKind::AssertFailed));
            // A counterexample with concrete values must be produced.
            assert!(vs[0].model.is_some());
        }
        other => panic!("expected failure, got {other:?}"),
    }
    // spec__transfer still verifies (needs no invariant).
    let r2 = v.verify_pot("spec__transfer");
    assert!(r2.status.is_proved(), "{:?}", r2.status);
}

#[test]
fn fig1_buggy_transfer_caught() {
    let src = FIG1.replace("decrement(&b);", "decrement(&a);");
    let checked = tpot_cfront::compile(&src).unwrap();
    let module = lower(&checked).unwrap();
    let v = Verifier::new(module);
    let r = v.verify_pot("spec__transfer");
    match r.status {
        PotStatus::Failed(_) => {}
        other => panic!("bug must be caught, got {other:?}"),
    }
}

/// Paper Figure 5: dynamic allocation and the naming abstraction.
const FIG5: &str = r#"
int *p1, *p2;
void init(void) {
  p1 = malloc(sizeof(int));
  p2 = malloc(sizeof(int));
}
void incr_p1(void) {
  *p1 = *p1 + 1;
}

int inv__alloc(void) {
  return names_obj(p1, int) && names_obj(p2, int);
}

void spec__incr_p1(void) {
  int old_p1 = *p1;
  int old_p2 = *p2;
  incr_p1();
  assert(*p1 == old_p1 + 1);
  assert(*p2 == old_p2);
}
"#;

#[test]
fn fig5_naming_verifies() {
    let checked = tpot_cfront::compile(FIG5).unwrap();
    let module = lower(&checked).unwrap();
    let v = Verifier::new(module);
    let r = v.verify_pot("spec__incr_p1");
    match &r.status {
        PotStatus::Proved => {}
        PotStatus::Failed(vs) => panic!("spec__incr_p1 failed: {}", vs[0]),
        PotStatus::Error(e) => panic!("error: {e}"),
    }
}

#[test]
fn fig5_init_establishes_invariant() {
    // The renaming proof of §4.1: malloc'd blocks get matched to the names
    // "p1"/"p2" existentially.
    let src = format!("{FIG5}\nvoid spec__init(void) {{ init(); }}\n");
    let checked = tpot_cfront::compile(&src).unwrap();
    let module = lower(&checked).unwrap();
    let v = Verifier::new(module);
    let r = v.verify_pot("spec__init");
    match &r.status {
        PotStatus::Proved => {}
        PotStatus::Failed(vs) => panic!("spec__init failed: {}", vs[0]),
        PotStatus::Error(e) => panic!("error: {e}"),
    }
}

#[test]
fn fig5_aliasing_hypothetical_would_fail() {
    // The §4.1 discussion: with is_allocated-style semantics (no
    // distinctness), the second assertion would be unprovable. Verify that
    // TPot's names imply non-aliasing by checking a POT that *relies* on it.
    let src = r#"
int *p1, *p2;
int inv__alloc(void) { return names_obj(p1, int) && names_obj(p2, int); }
void spec__distinct(void) {
  assert(p1 != p2);
}
"#;
    let results = verify(src);
    assert_all_proved(&results);
}

#[test]
fn leak_detected_when_invariant_omits_object() {
    // An invariant that names only p1 while init allocates two blocks: the
    // second block is leaked (theorem clause (C)).
    let src = r#"
int *p1, *p2;
void init(void) {
  p1 = malloc(sizeof(int));
  p2 = malloc(sizeof(int));
}
int inv__alloc(void) { return names_obj(p1, int); }
void spec__init(void) { init(); }
"#;
    let checked = tpot_cfront::compile(src).unwrap();
    let module = lower(&checked).unwrap();
    let v = Verifier::new(module);
    let r = v.verify_pot("spec__init");
    match r.status {
        PotStatus::Failed(vs) => {
            assert!(
                vs.iter().any(|v| v.kind == ViolationKind::MemoryLeak),
                "expected a leak, got: {}",
                vs[0]
            );
        }
        other => panic!("expected leak failure, got {other:?}"),
    }
}

#[test]
fn low_level_errors_detected() {
    // Out-of-bounds store caught without any assertion.
    let src = r#"
int arr[4];
void poke(int i) { arr[i] = 1; }
void spec__oob(void) {
  any(int, i);
  assume(i >= 0 && i <= 4);
  poke(i);
}
"#;
    let checked = tpot_cfront::compile(src).unwrap();
    let module = lower(&checked).unwrap();
    let v = Verifier::new(module);
    let r = v.verify_pot("spec__oob");
    match r.status {
        PotStatus::Failed(vs) => {
            assert!(vs.iter().any(|v| v.kind == ViolationKind::OutOfBounds));
        }
        other => panic!("expected OOB, got {other:?}"),
    }
    // With the correct bound it verifies.
    let ok = src.replace("i <= 4", "i < 4");
    let checked = tpot_cfront::compile(&ok).unwrap();
    let module = lower(&checked).unwrap();
    let r = Verifier::new(module).verify_pot("spec__oob");
    assert!(r.status.is_proved(), "{:?}", r.status);
}

#[test]
fn division_by_zero_detected() {
    let src = r#"
unsigned int d;
unsigned int f(unsigned int x) { return x / d; }
void spec__div(void) {
  any(unsigned int, x);
  unsigned int r = f(x);
  assert(r <= x);
}
"#;
    let checked = tpot_cfront::compile(src).unwrap();
    let module = lower(&checked).unwrap();
    let r = Verifier::new(module).verify_pot("spec__div");
    match r.status {
        PotStatus::Failed(vs) => {
            assert!(vs.iter().any(|v| v.kind == ViolationKind::DivisionByZero));
        }
        other => panic!("expected div-by-zero, got {other:?}"),
    }
}

#[test]
fn use_after_free_detected() {
    let src = r#"
int *p;
int inv__p(void) { return names_obj(p, int); }
void spec__uaf(void) {
  free(p);
  *p = 3;
}
"#;
    let checked = tpot_cfront::compile(src).unwrap();
    let module = lower(&checked).unwrap();
    let r = Verifier::new(module).verify_pot("spec__uaf");
    match r.status {
        PotStatus::Failed(vs) => {
            assert!(vs.iter().any(|v| v.kind == ViolationKind::UseAfterFree));
        }
        other => panic!("expected UAF, got {other:?}"),
    }
}

/// A POT that runs out of its instruction budget errors, and its record
/// keeps the work done before the budget ran out.
#[test]
fn errored_pot_keeps_its_stats() {
    let src = r#"
int g;
void spec__spin(void) {
  any(int, a);
  if (a > 0) { g = 1; }
  for (int i = 0; i < 1000; i = i + 1) { g = g + 1; }
}
"#;
    let module = lower(&tpot_cfront::compile(src).unwrap()).unwrap();
    let cfg = EngineConfig {
        max_insts: 200,
        ..EngineConfig::default()
    };
    let r = Verifier::with_config(module, cfg).verify_pot("spec__spin");
    assert!(matches!(r.status, PotStatus::Error(_)), "{:?}", r.status);
    assert!(
        r.stats.insts > 0,
        "an errored POT lost its instruction count"
    );
    assert!(r.stats.num_queries > 0, "an errored POT lost its queries");
}
