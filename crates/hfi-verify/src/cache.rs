//! The incremental proof cache and content digests: verification as an
//! *artifact*, not a batch job.
//!
//! Re-verifying a program whose plan has not changed is pure waste — the
//! abstract interpretation is deterministic over (instruction stream,
//! spec, pass versions). This module memoizes successful [`Proof`]s in
//! one process-wide table keyed on the program's **Arc identity** and
//! the spec. A proof is not a property of the program alone (it depends
//! on the spec), so unlike the decoded plan ([`Program::plan`]) it is not
//! kept on the program. Each entry holds a [`Weak`] witness, so a
//! dropped program cannot pin its proof (or alias a recycled
//! allocation), and a hit is declared only after [`Arc::ptr_eq`] on the
//! upgraded witness.
//!
//! A second-level lookup catches *recreated* programs: when identity
//! misses, the program's content digest is compared against cached
//! entries, so rebuilding a byte-identical program into a fresh `Arc`
//! still hits (and re-registers the new identity for next time). Failed
//! verifications are never cached — a rejection re-runs the reporting
//! pass so callers always get the full violation list.
//!
//! Every proof carries a [`ProofDigest`] — FNV-1a hashes of the spec,
//! the instruction stream, and the verifier pass roster
//! ([`PASS_VERSIONS`]) — which downstream consumers treat as the
//! proof's identity: `hfi-serve` admission checks the digest against
//! the program actually installed in the pool, and `RunRecord`s stamp
//! the digest word for provenance.

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use hfi_sim::{Fnv1a, Program};

use crate::spec::SandboxSpec;
use crate::verify::{emulation_correspondence, verify_program, Proof, Violation};

/// The verifier's pass roster, versioned. Bumping a version (or
/// reordering the roster) changes every [`ProofDigest`], invalidating
/// all cached and stamped proofs — which is exactly what must happen
/// when a pass's judgment changes. Pinned by a golden test.
pub const PASS_VERSIONS: &[(&str, u32)] = &[
    ("mem-safety", 1),
    ("control-safety", 1),
    ("region-metadata", 1),
    ("transition-contract", 1),
    ("elision", 1),
];

/// Content hash of a spec: its full `Debug` rendering (every field of
/// [`SandboxSpec`] derives `Debug`, and the builder has no hidden
/// state).
pub fn spec_hash(spec: &SandboxSpec) -> u64 {
    let mut w = Fnv1a::default();
    let _ = write!(w, "{spec:?}");
    w.finish()
}

/// Hash of [`PASS_VERSIONS`]: names and versions, in roster order.
pub fn passes_hash() -> u64 {
    let mut w = Fnv1a::default();
    for (name, version) in PASS_VERSIONS {
        let _ = write!(w, "{name}={version};");
    }
    w.finish()
}

/// The identity of a proof: what was proven (`program_hash`), against
/// what contract (`spec_hash`), by which verifier (`passes_hash`).
///
/// Embedded in every [`Proof`]; the all-zero default means "no digest"
/// (only seen on hand-constructed proofs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ProofDigest {
    /// FNV-1a of the [`SandboxSpec`] the proof holds against.
    pub spec_hash: u64,
    /// FNV-1a of the instruction stream the proof covers
    /// ([`Program::content_digest`]).
    pub program_hash: u64,
    /// FNV-1a of the verifier pass roster that produced the proof.
    pub passes_hash: u64,
}

impl ProofDigest {
    /// Computes the digest of `program` under `spec` with the current
    /// pass roster.
    pub fn compute(program: &Program, spec: &SandboxSpec) -> Self {
        ProofDigest {
            spec_hash: spec_hash(spec),
            program_hash: program.content_digest(),
            passes_hash: passes_hash(),
        }
    }

    /// True once the digest has been computed (the default is the
    /// "no digest" sentinel).
    pub fn is_set(&self) -> bool {
        *self != ProofDigest::default()
    }

    /// The three hashes folded into one provenance word, for compact
    /// stamping (e.g. into a `RunRecord`). Zero means "no digest".
    pub fn word(&self) -> u64 {
        if !self.is_set() {
            return 0;
        }
        let mut h = Fnv1a::default();
        for part in [self.spec_hash, self.program_hash, self.passes_hash] {
            h.write_bytes(&part.to_le_bytes());
        }
        h.finish()
    }

    /// Does this proof cover exactly `program`'s current instruction
    /// stream? The proof-carrying admission check: a caller pairing a
    /// proof with a different (or since-rebuilt) program fails here.
    /// The program's digest is memoized per object, so repeating the
    /// check on every cold build costs a load, not a re-render.
    pub fn matches_program(&self, program: &Program) -> bool {
        self.is_set() && self.program_hash == program.content_digest()
    }
}

impl fmt::Display for ProofDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:016x}.{:016x}.{:016x}",
            self.spec_hash, self.program_hash, self.passes_hash
        )
    }
}

/// One cached successful verification.
struct Entry {
    /// `Arc::as_ptr` of the program at insertion.
    key: usize,
    /// Spec the proof holds against.
    spec_hash: u64,
    /// Liveness witness: a dead program's entry is pruned (counted as
    /// an invalidation), and an upgraded witness is `ptr_eq`-checked
    /// before an identity hit so a recycled allocation cannot alias.
    witness: Weak<Program>,
    /// Full content digest, for the second-level (recreated-program)
    /// lookup.
    digest: ProofDigest,
    proof: Arc<Proof>,
}

static PROOF_MEMO: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
static HITS_IDENTITY: AtomicU64 = AtomicU64::new(0);
static HITS_DIGEST: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static INVALIDATIONS: AtomicU64 = AtomicU64::new(0);

fn memo() -> &'static Mutex<Vec<Entry>> {
    PROOF_MEMO.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock() -> std::sync::MutexGuard<'static, Vec<Entry>> {
    // A panic mid-insert leaves at worst a stale entry, which the
    // liveness/ptr_eq checks neutralize — the map stays usable.
    match memo().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Process-wide cache counters, cumulative since start (or the last
/// [`reset_proof_cache`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProofCacheStats {
    /// Hits via Arc identity (same live program object re-verified).
    pub hits_identity: u64,
    /// Hits via content digest (byte-identical program, fresh `Arc`).
    pub hits_digest: u64,
    /// Full verifications (first sight of a plan, or any content
    /// change — a mutated program can never reuse its parent's entry).
    pub misses: u64,
    /// Entries dropped: dead-witness prunes plus stale same-identity
    /// replacements (an allocation recycled under a cached key).
    pub invalidations: u64,
    /// Live entries right now.
    pub entries: u64,
}

/// Snapshot of the proof-cache counters.
pub fn proof_cache_stats() -> ProofCacheStats {
    ProofCacheStats {
        hits_identity: HITS_IDENTITY.load(Ordering::Relaxed),
        hits_digest: HITS_DIGEST.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        invalidations: INVALIDATIONS.load(Ordering::Relaxed),
        entries: lock().len() as u64,
    }
}

/// Clears the cache and zeroes the counters (cold-start timing
/// harnesses; tests should prefer delta assertions — the cache is
/// process-wide and other threads may be using it).
pub fn reset_proof_cache() {
    lock().clear();
    HITS_IDENTITY.store(0, Ordering::Relaxed);
    HITS_DIGEST.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    INVALIDATIONS.store(0, Ordering::Relaxed);
}

/// The memoization shell shared by the cached entry points: identity
/// lookup, then digest lookup, then `build` outside the lock.
fn cached(
    program: &Arc<Program>,
    spec: &SandboxSpec,
    build: impl FnOnce() -> Result<Proof, Vec<Violation>>,
) -> Result<Arc<Proof>, Vec<Violation>> {
    let key = Arc::as_ptr(program) as usize;
    let shash = spec_hash(spec);
    {
        let mut entries = lock();
        let before = entries.len();
        entries.retain(|e| e.witness.strong_count() > 0);
        INVALIDATIONS.fetch_add((before - entries.len()) as u64, Ordering::Relaxed);

        // First level: Arc identity, guarded against allocator reuse by
        // the upgraded-witness pointer check.
        for e in entries.iter() {
            if e.key == key && e.spec_hash == shash {
                if let Some(live) = e.witness.upgrade() {
                    if Arc::ptr_eq(&live, program) {
                        HITS_IDENTITY.fetch_add(1, Ordering::Relaxed);
                        return Ok(Arc::clone(&e.proof));
                    }
                }
            }
        }
        // Second level: content digest — a recreated identical program
        // hits here, and its new identity is registered for next time.
        let digest = ProofDigest::compute(program, spec);
        if let Some(proof) = entries
            .iter()
            .find(|e| e.spec_hash == shash && e.digest == digest)
            .map(|e| Arc::clone(&e.proof))
        {
            HITS_DIGEST.fetch_add(1, Ordering::Relaxed);
            let stale = entries.len();
            entries.retain(|e| !(e.key == key && e.spec_hash == shash));
            INVALIDATIONS.fetch_add((stale - entries.len()) as u64, Ordering::Relaxed);
            entries.push(Entry {
                key,
                spec_hash: shash,
                witness: Arc::downgrade(program),
                digest,
                proof: Arc::clone(&proof),
            });
            return Ok(proof);
        }
    }

    // Miss: verify outside the lock (proving can be slow and the grid
    // proves in parallel), then insert, replacing any stale entry that
    // appeared under this identity meanwhile.
    MISSES.fetch_add(1, Ordering::Relaxed);
    let proof = Arc::new(build()?);
    debug_assert!(proof.digest.is_set(), "verify must stamp the digest");
    let mut entries = lock();
    let stale = entries.len();
    entries.retain(|e| !(e.key == key && e.spec_hash == shash));
    INVALIDATIONS.fetch_add((stale - entries.len()) as u64, Ordering::Relaxed);
    entries.push(Entry {
        key,
        spec_hash: shash,
        witness: Arc::downgrade(program),
        digest: proof.digest,
        proof: Arc::clone(&proof),
    });
    Ok(proof)
}

/// [`verify_program`] through the proof cache.
pub fn verify_program_cached(
    program: &Arc<Program>,
    spec: &SandboxSpec,
) -> Result<Arc<Proof>, Vec<Violation>> {
    cached(program, spec, || verify_program(program, spec))
}

/// [`verify_emulation`][crate::verify::verify_emulation] with the
/// expensive half (the original's proof) through the cache. The
/// per-instruction correspondence check is linear and runs every time —
/// the emulated stream is not part of the cache key.
pub fn verify_emulation_cached(
    original: &Arc<Program>,
    emulated: &Program,
    spec: &SandboxSpec,
) -> Result<Arc<Proof>, Vec<Violation>> {
    let proof = verify_program_cached(original, spec)?;
    let violations = emulation_correspondence(original, emulated);
    if violations.is_empty() {
        Ok(proof)
    } else {
        Err(violations)
    }
}
