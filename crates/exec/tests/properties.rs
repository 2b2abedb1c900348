//! Property-based tests (qcheck): the deterministic parallel primitives
//! agree with their sequential counterparts on random inputs.

use exec::Pool;
use qcheck::{any_u64, vec_of};

qcheck::props! {
    config = qcheck::Config::with_cases(48);

    /// `par_map` output equals the sequential map in order, for any thread
    /// count.
    fn par_map_equals_sequential_map(
        items in vec_of(any_u64(), 0..300),
        threads in 1usize..9,
    ) {
        let pool = Pool::with_threads(threads);
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x.rotate_left((i % 64) as u32) ^ 0x9E37_79B9)
            .collect();
        let got = pool.par_map("prop_map", &items, |i, &x| {
            x.rotate_left((i % 64) as u32) ^ 0x9E37_79B9
        });
        qcheck::prop_assert_eq!(got, expect);
    }
}
