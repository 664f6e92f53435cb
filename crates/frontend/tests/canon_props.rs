//! Property-style tests for the canonical CHC form (`canon.rs`): the
//! cache-key contract behind the serve daemon's exact tier.
//!
//! The mutation stream is [`linarb_serve::replay::variant`] — the very
//! generator the replay bench uses — so the properties tested here are
//! the properties the daemon relies on in production:
//!
//! * alpha-renamed, clause-reordered, and gcd-scaled variants of every
//!   named suite program map to the same key (and identical canonical
//!   text, so a key collision could not fake a hit either);
//! * perturbing a guard constant (a semantic change) always changes
//!   the key — semantically different systems do not collide;
//! * canonicalization is a pure function of the system: repeated runs
//!   agree (`scripts/ci.sh` re-runs this test at 1 and 4 worker
//!   threads to pin down any accidental parallelism dependence).

use linarb_frontend::canonicalize;
use linarb_serve::replay::variant;
use linarb_suite::{literature_programs, paper_examples, Benchmark};

/// Every named suite program (paper examples + literature set); the
/// generated families are structurally the same shapes scaled up.
fn named_suite() -> Vec<Benchmark> {
    let mut v = paper_examples();
    v.extend(literature_programs());
    v
}

const SEED: u64 = 0x1abb_5eed;

/// Variant indices `i % 8 != 0` are the seven non-empty combinations
/// of rename/reorder/scale; `i % 8 == 0` is a constant perturbation.
#[test]
fn syntactic_variants_of_every_program_share_the_cache_key() {
    for bench in named_suite() {
        let base = canonicalize(&bench.system);
        for i in 1..=23 {
            if i % 8 == 0 {
                continue;
            }
            let v = variant(&bench.system, SEED, i);
            let c = canonicalize(&v);
            assert_eq!(
                c.key, base.key,
                "{}: variant {i} (mask {:03b}) changed the cache key",
                bench.name,
                i % 8
            );
            assert_eq!(
                c.text, base.text,
                "{}: variant {i} key matches but canonical text differs (collision)",
                bench.name
            );
        }
    }
}

#[test]
fn perturbed_guard_constants_never_collide() {
    for bench in named_suite() {
        let base = canonicalize(&bench.system);
        // Every atom of the system has some perturbation stream index
        // hitting it eventually; eight perturb-class indices per
        // program give broad coverage without a long runtime.
        for i in (0..64).step_by(8) {
            let v = variant(&bench.system, SEED, i);
            let c = canonicalize(&v);
            if v.to_smtlib() == bench.system.to_smtlib() {
                // Atom-free systems degrade to exact duplicates.
                continue;
            }
            assert_ne!(
                c.key, base.key,
                "{}: perturb variant {i} collided with its base",
                bench.name
            );
            assert_ne!(c.text, base.text);
        }
    }
}

#[test]
fn canonicalization_is_deterministic() {
    for bench in named_suite() {
        let a = canonicalize(&bench.system);
        let b = canonicalize(&bench.system);
        assert_eq!(a.key, b.key, "{}: key not stable across runs", bench.name);
        assert_eq!(a.text, b.text);
    }
}

#[test]
fn distinct_programs_get_distinct_keys() {
    let suite = named_suite();
    for (i, a) in suite.iter().enumerate() {
        let ca = canonicalize(&a.system);
        for b in suite.iter().skip(i + 1) {
            let cb = canonicalize(&b.system);
            assert_ne!(
                ca.text, cb.text,
                "{} and {} share a canonical form",
                a.name, b.name
            );
        }
    }
}
