//! The Luby restart sequence.
//!
//! The sequence 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, … is the
//! universally-optimal restart schedule of Luby, Sinclair and Zuckerman;
//! CDCL solvers multiply it by a base conflict budget.

/// Returns the `i`-th element (0-based) of the Luby sequence.
///
/// # Examples
///
/// ```
/// use mca_sat::luby;
/// let prefix: Vec<u64> = (0..15).map(luby).collect();
/// assert_eq!(prefix, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
/// ```
pub fn luby(i: u64) -> u64 {
    // Find the smallest full subsequence (of length 2^seq - 1) containing
    // index i, then walk down into the half that contains i.
    let mut x = i;
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation following MiniSat's closed form.
    fn luby_reference(mut x: u64) -> u64 {
        // Find size = 2^k - 1 >= x+1.
        let (mut size, mut seq) = (1u64, 0u64);
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) / 2;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    #[test]
    fn matches_reference_for_prefix() {
        for i in 0..200u64 {
            assert_eq!(luby(i), luby_reference(i), "mismatch at {i}");
        }
    }

    #[test]
    fn known_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }
}
