//! The programs of the `paper_eval` and `scaling` workloads.
//!
//! [`DEFAULT_SEED`] rebuilds exactly the instances `cargo bench
//! --bench paper_eval` runs: the four Fig. 8 suites subsampled to 40
//! each (every `len/40`-th member), and the scale study at sizes 2, 4,
//! 8 and 12.
//!
//! Any other seed redraws the generated family members of
//! `paper_eval` with the same mix: each suite keeps its stride, but
//! the stride starts at a seed-chosen point inside the first step, so
//! every stratum of `len/40` consecutive members contributes one
//! member as before, just not the same one. Named paper and
//! literature programs stay wherever the default set has them. In
//! `scaling`, the seed redraws the generator seeds of the families
//! that take one (Product-lines, Psyco).

use linarb_suite::{self as suite, Benchmark};

/// The seed that reproduces `paper_eval`'s instance set.
pub const DEFAULT_SEED: u64 = 0;

/// Members per suite after subsampling (`paper_eval`'s `LINARB_MAX`).
const PER_SUITE: usize = 40;

/// Scale of the 381-program suite (`paper_eval`'s `LINARB_SCALE`).
const CHC_SCALE: f64 = 0.25;

/// Instance sizes of the scale study.
pub const SCALING_SIZES: [usize; 4] = [2, 4, 8, 12];

/// Name prefixes of generated family members (everything else is a
/// named paper or literature program).
const FAMILIES: [&str; 7] = [
    "counter_",
    "equation_",
    "phase_",
    "diamond_",
    "nested_",
    "invgen_",
    "recursive_",
];

/// SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed-derived fraction in `[0, 1)`; 0 for the default seed.
fn fraction(seed: u64, salt: u64) -> f64 {
    if seed == DEFAULT_SEED {
        0.0
    } else {
        (mix(seed ^ mix(salt)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn is_generated(b: &Benchmark) -> bool {
    FAMILIES.iter().any(|f| b.name.starts_with(f))
}

/// `linarb_bench::subsample` with the stride shifted by `shift` steps
/// (`0 <= shift < 1`); slots the unshifted stride fills with a named
/// program keep it.
fn shifted_subsample(suite: Vec<Benchmark>, n: usize, shift: f64) -> Vec<Benchmark> {
    if suite.len() <= n || n == 0 {
        return suite;
    }
    let step = suite.len() as f64 / n as f64;
    let mut out = Vec::with_capacity(n);
    let mut idx = 0.0;
    while (idx as usize) < suite.len() && out.len() < n {
        let default = &suite[idx as usize];
        let moved = ((idx + shift * step) as usize).min(suite.len() - 1);
        let pick = if is_generated(default) && is_generated(&suite[moved]) {
            moved
        } else {
            idx as usize
        };
        out.push(suite[pick].clone());
        idx += step;
    }
    out
}

/// Fig. 8(a–d): 150 programs.
pub fn paper_eval(seed: u64) -> Vec<Benchmark> {
    let suites = [
        ("fig8a", suite::pie82()),
        ("fig8b", suite::dig_linear()),
        ("fig8c", suite::chc381_scaled(CHC_SCALE)),
        ("fig8d", suite::svcomp135()),
    ];
    let mut out = Vec::new();
    for (salt, (label, members)) in suites.into_iter().enumerate() {
        for mut b in shifted_subsample(members, PER_SUITE, fraction(seed, salt as u64)) {
            b.name = format!("{label}/{}", b.name);
            out.push(b);
        }
    }
    out
}

/// The scale study: Product-lines, Psyco, SystemC and NTDriver at
/// each of [`SCALING_SIZES`] (16 programs).
pub fn scaling(seed: u64) -> Vec<Benchmark> {
    let mut out = Vec::new();
    for (i, &k) in SCALING_SIZES.iter().enumerate() {
        let s = |base: u64| {
            let base = base + i as u64;
            if seed == DEFAULT_SEED {
                base
            } else {
                mix(base ^ mix(seed))
            }
        };
        out.push(suite::product_lines(k, s(0xE1)));
        out.push(suite::psyco(k, s(0xE2)));
        out.push(suite::systemc(k, s(0xE3)));
        out.push(suite::ntdriver(k, s(0xE4)));
    }
    out
}

/// Checks that the default seed rebuilds `paper_eval`'s exact sets;
/// returns the first difference.
pub fn check_default_sets() -> Option<String> {
    let reference: Vec<Benchmark> = [
        suite::pie82(),
        suite::dig_linear(),
        suite::chc381_scaled(CHC_SCALE),
        suite::svcomp135(),
    ]
    .into_iter()
    .flat_map(|s| linarb_bench::subsample(s, PER_SUITE))
    .chain(suite::scalability(&SCALING_SIZES))
    .collect();
    let ours: Vec<Benchmark> = paper_eval(DEFAULT_SEED)
        .into_iter()
        .chain(scaling(DEFAULT_SEED))
        .collect();
    if ours.len() != reference.len() {
        return Some(format!(
            "{} instances, paper_eval has {}",
            ours.len(),
            reference.len()
        ));
    }
    for (a, b) in ours.iter().zip(&reference) {
        let name = a.name.rsplit('/').next().unwrap_or(&a.name);
        if name != b.name || a.source != b.source || a.expected != b.expected {
            return Some(format!("{} differs from paper_eval's {}", a.name, b.name));
        }
    }
    None
}
