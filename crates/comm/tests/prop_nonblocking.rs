//! Property test for the non-blocking broadcast: `ibcast` agrees with
//! the blocking `bcast` it shares a tree with. (The request layer under
//! it — `irecv` against `send`/`recv` in any combination — is
//! property-tested in `runtime.rs`'s unit tests.)

use elba_comm::{Backend, Runner};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Non-blocking broadcast agrees with the blocking one when both run
    /// back-to-back in the same SPMD program, for every root.
    #[test]
    fn ibcast_agrees_with_bcast(p in 1usize..10, root_k in 0usize..10, value: u64) {
        let root = root_k % p;
        let out = Runner::new(Backend::InProcess).ranks(p).run(move |comm| {
            let req = comm.ibcast(root, (comm.rank() == root).then_some(value));
            let blocking = comm.bcast(root, (comm.rank() == root).then_some(value ^ 1));
            (req.wait(), blocking)
        });
        for &(nb, b) in &out {
            prop_assert_eq!(nb, value);
            prop_assert_eq!(b, value ^ 1);
        }
    }
}
