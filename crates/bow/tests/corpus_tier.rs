//! The corpus regression tier: determinism and shrinking invariants.
//!
//! The manifest's promise is that a corpus is *reproducible from seeds
//! alone*: the same `(seed, count)` must re-materialize byte-identical
//! kernels on any machine, any run. These tests pin that promise —
//! serialized manifest text and encoded kernel words — plus the
//! delta-debugging invariants the fuzz harness relies on when a corpus
//! kernel does fail.

use bow::corpus;
use bow_isa::fuzz::FuzzKernel;
use bow_isa::fuzz::Stmt;
use bow_util::XorShift;

/// Two generations of the same `(seed, count)` must agree byte-for-byte:
/// the serialized manifest, and every retained kernel's binary encoding.
#[test]
fn corpus_rematerializes_byte_identically_across_runs() {
    let a = corpus::generate(0xdead_beef, 18);
    let b = corpus::generate(0xdead_beef, 18);
    assert_eq!(
        a.to_json().to_string_pretty(),
        b.to_json().to_string_pretty(),
        "manifest text is byte-identical"
    );
    for (ea, eb) in a.retained().zip(b.retained()) {
        let ka = corpus::kernel_for(ea).expect("re-materializes");
        let kb = corpus::kernel_for(eb).expect("re-materializes");
        assert_eq!(
            bow_isa::encode_kernel(&ka),
            bow_isa::encode_kernel(&kb),
            "{}: kernel words are byte-identical",
            ea.name
        );
    }
}

fn has_store(k: &FuzzKernel) -> bool {
    fn any(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::GlobalStore { .. } => true,
            Stmt::Diamond { then, els, .. } => any(then) || any(els),
            Stmt::Loop { body, .. } => any(body),
            _ => false,
        })
    }
    any(&k.stmts)
}

/// `FuzzKernel::shrink` under 100 generated cases: the result never has
/// more statements than the input, the failing predicate still holds,
/// and the result is a true local minimum (shrinking again is a no-op).
#[test]
fn shrink_invariants_hold_over_a_hundred_cases() {
    let mut rng = XorShift::new(0x5112);
    let mut shrunk_any = false;
    for case in 0..100u32 {
        let fk = FuzzKernel::generate_sized(&mut rng, 12);
        if !has_store(&fk) {
            continue; // this draw has nothing for the predicate to chase
        }
        let min = fk.shrink(has_store);
        assert!(
            min.count_stmts() <= fk.count_stmts(),
            "case {case}: statement count is monotone under shrinking"
        );
        assert!(has_store(&min), "case {case}: the repro still fails");
        assert_eq!(
            min.shrink(has_store),
            min,
            "case {case}: shrink reaches a fixpoint"
        );
        shrunk_any |= min.count_stmts() < fk.count_stmts();
    }
    assert!(shrunk_any, "at least one case actually got smaller");
}
