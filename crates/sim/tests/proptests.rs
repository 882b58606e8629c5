//! Property-based tests for the simulation substrate: conservation and
//! monotonicity laws the experiment harness relies on.

use proptest::prelude::*;
use sdflmq_sim::{LinkModel, Network, NodeLink, SimDuration, SimTime};

proptest! {
    /// A FIFO link never completes a later-submitted transfer before an
    /// earlier one, and total busy time equals the sum of transmission
    /// times regardless of submission pattern.
    #[test]
    fn link_fifo_and_busy_conservation(
        sizes in prop::collection::vec(1u64..1_000_000, 1..20),
        gaps in prop::collection::vec(0u64..1_000_000_000, 1..20),
    ) {
        let bw = 1_000_000.0;
        let mut link = LinkModel::new(bw, SimDuration::ZERO);
        let mut now = SimTime::ZERO;
        let mut last_done = SimTime::ZERO;
        let mut expected_busy = 0.0f64;
        for (size, gap) in sizes.iter().zip(gaps.iter().cycle()) {
            now += SimDuration::from_nanos(*gap);
            let done = link.transfer(now, *size);
            prop_assert!(done >= last_done, "FIFO ordering");
            prop_assert!(done >= now, "no time travel");
            last_done = done;
            expected_busy += *size as f64 / bw;
        }
        prop_assert!((link.busy().as_secs_f64() - expected_busy).abs() < 1e-6);
        prop_assert_eq!(link.carried(), sizes.iter().sum::<u64>());
    }

    /// Doubling bandwidth never makes any delivery later.
    #[test]
    fn faster_links_never_slower(
        sizes in prop::collection::vec(1u64..500_000, 1..12),
    ) {
        let run = |bw: f64| -> Vec<f64> {
            let mut net = Network::new(SimDuration::from_millis(1));
            net.add_node("rx", NodeLink::symmetric(bw, SimDuration::from_millis(2)));
            for i in 0..sizes.len() {
                net.add_node(format!("tx{i}"), NodeLink::symmetric(bw, SimDuration::from_millis(2)));
            }
            sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| net.send(&format!("tx{i}"), "rx", s, SimTime::ZERO).as_secs_f64())
                .collect()
        };
        let slow = run(500_000.0);
        let fast = run(1_000_000.0);
        for (f, s) in fast.iter().zip(&slow) {
            prop_assert!(*f <= *s + 1e-9, "fast {f} vs slow {s}");
        }
    }
}
