//! Micro-benchmark for `dca_numeric::Rational` at Handelman-typical magnitudes.
//!
//! The exact LP path spends nearly all of its time in rational add/mul/div/cmp with
//! *small* operands: Handelman coefficient-matching rows carry integer coefficients in
//! the hundreds, and pivot chains mostly keep numerators/denominators within a few
//! machine words. This bench pins the cost of that operation mix so the i128
//! small-value fast path has a recorded before/after number (see EXPERIMENTS.md).
//!
//! Usage: `cargo bench -p dca-bench --bench rational_ops`

use std::hint::black_box;
use std::time::{Duration, Instant};

use dca_numeric::{BigInt, Rational};

/// Runs `f` repeatedly for roughly `budget` and reports the per-iteration median.
fn bench<F: FnMut()>(name: &str, budget: Duration, mut f: F) {
    f(); // warm-up
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < 5 {
        let t = Instant::now();
        f();
        samples.push(t.elapsed());
        if samples.len() >= 50 {
            break;
        }
    }
    samples.sort();
    println!(
        "{name:<44} median {:>12.3?}  min {:>12.3?}  ({} samples)",
        samples[samples.len() / 2],
        samples[0],
        samples.len()
    );
}

/// Deterministic pool of Handelman-typical rationals: integer coefficients in the
/// hundreds, plus fractions from equilibration-style divisions (denominators to ~3600).
fn sample_pool() -> Vec<Rational> {
    let mut pool = Vec::new();
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..512 {
        let num = (next() % 2001) as i64 - 1000;
        let den = 1 + (next() % 3600) as i64;
        pool.push(Rational::new(num, den));
    }
    // A few exact integers (the most common Handelman coefficient shape).
    for v in [0i64, 1, -1, 2, 100, -100, 10000] {
        pool.push(Rational::from_int(v));
    }
    pool
}

fn main() {
    let filter: Option<String> = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    let wants = |name: &str| filter.as_deref().is_none_or(|f| name.contains(f));
    let pool = sample_pool();

    if wants("add_mul_mix") {
        // The simplex inner loop: sparse dot products `Σ aᵢ·bᵢ` with realistic row
        // supports (~16 non-zeros); the accumulator resets per row like FTRAN does.
        bench("rational/add_mul_mix", Duration::from_secs(3), || {
            let mut out = Rational::zero();
            for row in pool.chunks(16) {
                let mut acc = Rational::zero();
                for pair in row.windows(2) {
                    acc = &acc + &(&pair[0] * &pair[1]);
                }
                out = if acc < out { acc } else { out };
            }
            black_box(out);
        });
    }

    if wants("pivot_update") {
        // The eta/tableau update: x := x - theta * d, element-wise.
        bench("rational/pivot_update", Duration::from_secs(3), || {
            let theta = Rational::new(7, 3);
            let mut xs: Vec<Rational> = pool.clone();
            for (x, d) in xs.iter_mut().zip(pool.iter().rev()) {
                *x = &*x - &(&theta * d);
            }
            black_box(xs);
        });
    }

    if wants("div_chain") {
        // Ratio tests and pivot normalization: short division chains (the ratio
        // `x_B[row] / d[row]` is computed fresh per row, not accumulated).
        bench("rational/div_chain", Duration::from_secs(3), || {
            let mut out = Rational::zero();
            for row in pool.chunks(8) {
                let mut acc = Rational::one();
                for v in row {
                    if !v.is_zero() {
                        acc = &(&acc + v) / v;
                    }
                }
                out = &out + &acc;
            }
            black_box(out);
        });
    }

    if wants("cmp_sort") {
        // Ordering comparisons (ratio-test minima, constraint dedup).
        bench("rational/cmp_sort", Duration::from_secs(3), || {
            let mut xs: Vec<Rational> = pool.clone();
            xs.sort();
            black_box(xs);
        });
    }

    if wants("eta_chain") {
        // The exact backend's eta-update/refactorization trade-off (see
        // `dca_lp`'s `should_refactorize`): every pivot appends one update eta
        // to the LU's L and U etas, and every subsequent FTRAN/BTRAN pays for
        // the whole chain — so the policy question is when rebuilding a short
        // fresh factorization beats dragging the update debris along. This pins
        // both sides: one FTRAN through a base factorization plus a 64-eta update
        // chain vs through the rebuilt base alone. The solver's real structures
        // are crate-private; this is the same eta arithmetic (x[p] /= v, then
        // x[r] -= a·x[p] per off-diagonal) over the same operand distribution.
        let m = 96usize;
        let mut state = 0xD1B54A32D192ED03u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut make_eta = |pivot: usize| {
            let pivot_value = Rational::new(1 + (next() % 40) as i64, 1 + (next() % 7) as i64);
            let others: Vec<(usize, Rational)> = (0..6)
                .map(|_| {
                    let row = (next() as usize) % m;
                    let value =
                        Rational::new((next() % 201) as i64 - 100, 1 + (next() % 12) as i64);
                    (row, value)
                })
                .filter(|(row, _)| *row != pivot)
                .collect();
            (pivot, pivot_value, others)
        };
        let base: Vec<_> = (0..m).map(&mut make_eta).collect();
        let updates: Vec<_> = (0..64).map(|i| make_eta(i % m)).collect();
        let b: Vec<Rational> =
            (0..m).map(|i| Rational::new(i as i64 - 40, 1 + i as i64 % 5)).collect();
        type Eta = (usize, Rational, Vec<(usize, Rational)>);
        let ftran = |etas: &[&[Eta]], x: &mut Vec<Rational>| {
            for chain in etas {
                for (pivot, pivot_value, others) in *chain {
                    x[*pivot] = &x[*pivot] / pivot_value;
                    for (row, value) in others {
                        x[*row] = &x[*row] - &(value * &x[*pivot]);
                    }
                }
            }
        };
        bench("lu/ftran_base_plus_64_eta_updates", Duration::from_secs(3), || {
            let mut x = b.clone();
            ftran(&[&base, &updates], &mut x);
            black_box(x);
        });
        bench("lu/ftran_rebuilt_base_only", Duration::from_secs(3), || {
            let mut x = b.clone();
            ftran(&[&base], &mut x);
            black_box(x);
        });
    }

    if wants("gcd_normalize") {
        // Construction-time normalization of raw fractions (gcd-heavy).
        bench("rational/gcd_normalize", Duration::from_secs(3), || {
            let mut acc = BigInt::zero();
            for (i, v) in pool.iter().enumerate() {
                let r = Rational::new((i as i64 + 2) * 840, (i as i64 + 3) * 252);
                let numerator = (&r + v).numerator().clone();
                acc = &acc + &numerator;
            }
            black_box(acc);
        });
    }
}
