//! Schedule shrinking: reduce a violating decision vector to a minimal one.
//!
//! Greedy delta-debugging over the vector, to a fixpoint. Candidate moves,
//! tried in order of how much they simplify:
//!
//! 1. zero out one non-default decision (drop a preemption entirely);
//! 2. decrement one decision (take a *nearer* non-default option);
//! 3. truncate trailing default entries (pure cosmetics, costs no run).
//!
//! A candidate is kept only if it still violates, so the result provably
//! reproduces the bug. The metric is lexicographic
//! `(preemptions, sum of decisions, length)` — strictly decreasing, so the
//! loop terminates.

/// How simple a vector is; shrinking strictly decreases this.
fn cost(d: &[usize]) -> (usize, usize, usize) {
    (
        d.iter().filter(|&&x| x != 0).count(),
        d.iter().sum(),
        d.len(),
    )
}

fn trim(mut d: Vec<usize>) -> Vec<usize> {
    while d.last() == Some(&0) {
        d.pop();
    }
    d
}

/// Shrinks `decisions` (which must violate) to a locally minimal vector
/// that still violates; `violates` runs a candidate, for `scfs-check` a
/// scenario under it. Returns the vector and the number of verification
/// runs spent.
pub fn shrink(
    decisions: &[usize],
    mut violates: impl FnMut(&[usize]) -> bool,
) -> (Vec<usize>, usize) {
    let mut best = trim(decisions.to_vec());
    let mut runs = 0;
    debug_assert!(violates(&best));
    loop {
        let mut improved = false;
        for i in 0..best.len() {
            if best[i] == 0 {
                continue;
            }
            // Dropping the preemption beats decrementing it; try in that
            // order and take the first that still violates.
            let mut zeroed = best.clone();
            zeroed[i] = 0;
            let zeroed = trim(zeroed);
            runs += 1;
            if violates(&zeroed) && cost(&zeroed) < cost(&best) {
                best = zeroed;
                improved = true;
                break;
            }
            let mut dec = best.clone();
            dec[i] -= 1;
            let dec = trim(dec);
            runs += 1;
            if violates(&dec) && cost(&dec) < cost(&best) {
                best = dec;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    (best, runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trim_drops_trailing_defaults_only() {
        assert_eq!(trim(vec![0, 2, 0, 0]), vec![0, 2]);
        assert_eq!(trim(vec![0, 0]), Vec::<usize>::new());
        assert_eq!(trim(vec![1]), vec![1]);
    }

    #[test]
    fn cost_orders_by_preemptions_first() {
        assert!(cost(&[3]) < cost(&[1, 1]));
        assert!(cost(&[0, 1]) < cost(&[0, 2]));
        assert!(cost(&[1]) < cost(&[0, 1]));
    }
}
