//! The incremental proof cache's soundness and identity contracts.
//!
//! The cache is process-wide and these tests run in one process with
//! the rest of the suite, so counter assertions are **deltas** around
//! the operation under test (never absolute values), and soundness is
//! asserted *behaviorally*: a mutant hitting its parent's cache entry
//! would come back `Ok`, so `Err` on every mutant class proves no
//! mutation can reuse a stale proof.

use std::sync::Arc;

use hfi_core::region::ExplicitDataRegion;
use hfi_core::{Region, SandboxConfig, FIRST_EXPLICIT_SLOT};
use hfi_sim::{AluOp, Cond, HmovOperand, Program, ProgramBuilder, Reg};
use hfi_verify::{
    direct_mutants, proof_cache_stats, verify_program, verify_program_cached, MutationClass,
    ProofDigest, SandboxSpec, PASS_VERSIONS,
};

const HEAP_BASE: u64 = 0x1000_0000;
const HEAP_SIZE: u64 = 0x10_0000;

fn heap_region() -> Region {
    Region::Explicit(
        ExplicitDataRegion::large(HEAP_BASE, HEAP_SIZE, true, true).expect("valid region"),
    )
}

/// The cache is process-wide and keyed on (program, spec) content, so
/// every test names its spec uniquely — otherwise one test's entry
/// satisfies another's "first" verification by digest and the counter
/// deltas stop meaning anything.
fn spec(name: &'static str) -> SandboxSpec {
    SandboxSpec::new(name)
        .window("heap", HEAP_BASE, HEAP_SIZE)
        .slot(FIRST_EXPLICIT_SLOT as u8, heap_region())
        .require_enter()
        .require_exit()
}

/// A small guarded program with every proof-guided mutation class
/// representable (mask guard, checked hmov, branch).
fn guarded_program() -> Arc<Program> {
    let mut b = ProgramBuilder::new(0x1000);
    b.hfi_set_region(FIRST_EXPLICIT_SLOT as u8, heap_region());
    b.hfi_enter(SandboxConfig::hybrid());
    b.movi(Reg(3), 7);
    b.movi(Reg(14), 0x1234_5678);
    b.alu_ri(AluOp::And, Reg(14), Reg(14), 0xFFF);
    let skip = b.label();
    b.branch_i(Cond::GeU, Reg(14), 0xF00, skip);
    b.alu_ri(AluOp::Add, Reg(3), Reg(3), 1);
    b.place(skip);
    b.hmov_store(
        0,
        Reg(3),
        HmovOperand {
            index: Some(Reg(14)),
            scale: 1,
            disp: 8,
        },
        8,
    );
    b.hfi_exit();
    b.halt();
    b.finish_arc()
}

#[test]
fn identity_reverification_hits_the_cache() {
    let program = guarded_program();
    let spec = spec("proof-cache-identity");
    let before = proof_cache_stats();
    let first = verify_program_cached(&program, &spec).expect("verifies");
    let second = verify_program_cached(&program, &spec).expect("verifies");
    let after = proof_cache_stats();

    // Same proof object, not merely an equal one.
    assert!(Arc::ptr_eq(&first, &second));
    assert!(
        after.hits_identity > before.hits_identity,
        "second verification of a live Arc must hit by identity: {before:?} -> {after:?}"
    );
    assert!(after.misses > before.misses);
}

#[test]
fn rebuilt_identical_program_hits_by_digest() {
    // Byte-identical program, fresh Arc: identity misses, digest hits.
    let first_arc = guarded_program();
    let second_arc = guarded_program();
    assert!(!Arc::ptr_eq(&first_arc, &second_arc));
    let spec = spec("proof-cache-rebuilt");

    let first = verify_program_cached(&first_arc, &spec).expect("verifies");
    let before = proof_cache_stats();
    let second = verify_program_cached(&second_arc, &spec).expect("verifies");
    let after = proof_cache_stats();

    assert!(
        Arc::ptr_eq(&first, &second),
        "digest hit returns the cached proof"
    );
    assert!(
        after.hits_digest > before.hits_digest,
        "recreated program must hit by content digest: {before:?} -> {after:?}"
    );
    // The re-registered identity now hits directly.
    let third = verify_program_cached(&second_arc, &spec).expect("verifies");
    let end = proof_cache_stats();
    assert!(Arc::ptr_eq(&second, &third));
    assert!(end.hits_identity > after.hits_identity);
}

#[test]
fn no_mutation_class_can_reuse_the_parents_entry() {
    let program = guarded_program();
    let spec = spec("proof-cache-mutants");
    // Prime the cache with the parent's proof.
    let proof = verify_program_cached(&program, &spec).expect("verifies");

    let mutants = direct_mutants(&program, &proof);
    assert!(!mutants.is_empty(), "the guarded program must have mutants");
    let mut classes_seen = Vec::new();
    for mutant in &mutants {
        if !classes_seen.contains(&mutant.class) {
            classes_seen.push(mutant.class);
        }
        // Behavioral soundness: a cache that matched the mutant against
        // its parent's entry would return the parent's Ok proof. Every
        // mutant differs in content, so every one must be re-verified —
        // and rejected.
        let result = verify_program_cached(&mutant.program, &spec);
        assert!(
            result.is_err(),
            "mutant [{}] {} came back Ok — it reused the parent's cache entry",
            mutant.class,
            mutant.description
        );
        // The digest seam itself: no mutant's digest may collide with
        // the parent's.
        assert_ne!(
            ProofDigest::compute(&mutant.program, &spec),
            proof.digest,
            "mutant [{}] {} has the parent's digest",
            mutant.class,
            mutant.description
        );
    }
    // The small program cannot host springboard classes; every class it
    // *can* host must be covered.
    for class in [
        MutationClass::DropGuard,
        MutationClass::WidenMask,
        MutationClass::UncheckMov,
        MutationClass::RetargetBranch,
    ] {
        assert!(
            classes_seen.contains(&class),
            "no {class} mutant generated; the sweep above proved nothing about it"
        );
    }
}

#[test]
fn distinct_specs_do_not_share_entries() {
    let program = guarded_program();
    let narrow = spec("proof-cache-wide");
    // Same program, different contract: must be a separate verification
    // (and a separate verdict). The tiny spec demands a *different*
    // region in the slot than the one the program installs, so the
    // region-metadata pass rejects.
    let tiny_region = Region::Explicit(
        ExplicitDataRegion::large(HEAP_BASE, 0x1_0000, true, true).expect("valid region"),
    );
    let tiny = SandboxSpec::new("proof-cache-tiny")
        .window("heap", HEAP_BASE, HEAP_SIZE)
        .slot(FIRST_EXPLICIT_SLOT as u8, tiny_region)
        .require_enter()
        .require_exit();

    let ok = verify_program_cached(&program, &narrow);
    let err = verify_program_cached(&program, &tiny);
    assert!(ok.is_ok());
    assert!(
        err.is_err(),
        "a cache keyed only on the program would leak the wide-window proof"
    );
}

#[test]
fn digest_word_is_nonzero_and_tracks_content() {
    let program = guarded_program();
    let spec = spec("proof-cache-word");
    let digest = ProofDigest::compute(&program, &spec);
    assert!(digest.is_set());
    assert_ne!(digest.word(), 0);
    assert!(digest.matches_program(&program));

    // Any content change moves the program hash.
    let mut insts = program.insts().to_vec();
    insts.pop();
    let trimmed = Arc::new(program.with_insts(insts));
    assert!(!digest.matches_program(&trimmed));

    // The default is the explicit "no digest" sentinel.
    assert!(!ProofDigest::default().is_set());
    assert_eq!(ProofDigest::default().word(), 0);
    assert!(!ProofDigest::default().matches_program(&program));
}

#[test]
fn verify_program_stamps_the_digest() {
    let program = guarded_program();
    let spec = spec("proof-cache-stamp");
    let proof = verify_program(&program, &spec).expect("verifies");
    assert_eq!(proof.digest, ProofDigest::compute(&program, &spec));
}

#[test]
fn memoized_program_digests_equal_a_fresh_computation() {
    // `Program` memoizes its content digest on first read; every way of
    // deriving a program from another must leave a memo equal to what a
    // program built from scratch would compute.
    let program = guarded_program();
    let spec = spec("proof-cache-memo");
    let proof = verify_program(&program, &spec).expect("verifies");

    let clone = Program::clone(&program);
    assert!(proof.digest.matches_program(&clone));
    let relaid = program.with_insts(program.insts().to_vec());
    assert!(proof.digest.matches_program(&relaid));

    // The proof's digest was read above; new transition metadata must
    // not inherit it.
    let remeta = Program::clone(&program).with_transition_meta(None, vec![2]);
    assert!(!proof.digest.matches_program(&remeta));
    let fresh =
        Program::new(program.insts().to_vec(), program.base()).with_transition_meta(None, vec![2]);
    assert_eq!(
        ProofDigest::compute(&remeta, &spec),
        ProofDigest::compute(&fresh, &spec)
    );
}

/// Golden pin of the digest scheme. These exact values are part of the
/// proof-identity contract: `RunRecord`s stamp them, `hfi-serve`
/// admission compares them, and journals persist them across sessions —
/// so an *unintentional* change to the hashing scheme, the `Debug`
/// renderings it consumes, or the pass roster must fail loudly here.
/// When the verifier legitimately changes judgment, bump the pass
/// version in `PASS_VERSIONS` and re-pin.
#[test]
fn golden_digest_values_are_stable() {
    assert_eq!(
        PASS_VERSIONS,
        &[
            ("mem-safety", 1),
            ("control-safety", 1),
            ("region-metadata", 1),
            ("transition-contract", 1),
            ("elision", 1),
        ],
        "pass roster changed: re-pin the golden digests below"
    );

    let program = guarded_program();
    let digest = ProofDigest::compute(&program, &spec("proof-cache"));
    assert_eq!(
        format!("{digest}"),
        "93c0f652e92e3e41.a8c3fa8dacec0dc9.c0930cf69b9d7e71",
        "digest scheme changed; if intentional, bump PASS_VERSIONS and re-pin"
    );
    assert_eq!(digest.word(), 0x3ac628f261fcaf8e);
}
