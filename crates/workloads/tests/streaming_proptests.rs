//! Property tests for the streaming ingestion path.
//!
//! The simulator's recovery correctness rests on one contract: fetching
//! through a [`ReplayWindow`] over a *streamed* kernel source behaves
//! exactly like a [`TraceCursor`] over the *materialized* trace — same
//! instructions, same ids, same replays — under any interleaving of
//! fetch, checkpoint-style rewind and commit-style release. These tests
//! drive both against random kernels and random rewind schedules.

use koc_isa::{InstructionSource, ReplayWindow};
use koc_workloads::{generate_kernel, kernels, KernelConfig, KernelSource};
use proptest::prelude::*;

/// The canonical kernel family, indexable by a proptest strategy.
fn kernel_menu() -> Vec<(&'static str, KernelConfig)> {
    let mut all = kernels::all();
    all.extend(kernels::mlp_contrast());
    all
}

proptest! {
    /// Random schedules of fetch / rollback-rewind / commit-release over a
    /// streamed kernel must replay bit-identically to the materialized
    /// trace cursor.
    #[test]
    fn streamed_window_replays_like_the_trace_cursor(
        kernel_idx in 0usize..7,
        target_len in 150usize..500,
        ops in proptest::collection::vec((0u8..8, 1usize..48), 1..32),
    ) {
        let (name, config) = kernel_menu()[kernel_idx];
        let config = config.with_target_len(target_len);
        let trace = generate_kernel(name, &config);
        let mut window = ReplayWindow::new(KernelSource::new(name, config));
        let mut cursor = trace.cursor();
        // The release frontier: the oldest point a rollback may still
        // target (in the simulator, the oldest live checkpoint).
        let mut frontier = 0usize;
        for (op, amount) in ops {
            prop_assert_eq!(window.position(), cursor.position());
            match op {
                // Checkpoint rollback: rewind both to the same point, at or
                // after the frontier.
                0 | 1 => {
                    let hi = cursor.position();
                    if hi >= frontier {
                        let target = frontier + amount % (hi - frontier + 1);
                        window.rewind_to(target);
                        cursor.rewind_to(target);
                    }
                }
                // Commit: advance the frontier and let the window forget.
                2 => {
                    let hi = cursor.position();
                    if hi > frontier {
                        frontier += amount % (hi - frontier + 1);
                        window.release_to(frontier);
                    }
                }
                // Fetch a burst of instructions from both.
                _ => {
                    for _ in 0..amount {
                        let streamed = window.next_inst();
                        let materialized = cursor.next_inst().map(|(id, i)| (id, *i));
                        let ended = streamed.is_none();
                        prop_assert_eq!(streamed, materialized);
                        if ended {
                            break;
                        }
                    }
                }
            }
        }
        // Drain both to the end: the tails must agree, and the streamed
        // side must have produced exactly the materialized length.
        loop {
            let streamed = window.next_inst();
            let materialized = cursor.next_inst().map(|(id, i)| (id, *i));
            let ended = streamed.is_none();
            prop_assert_eq!(streamed, materialized);
            if ended {
                break;
            }
        }
        prop_assert_eq!(window.fetched(), trace.len());
        prop_assert!(window.at_end());
    }

    /// The window never retains more than the release lag: occupancy is
    /// O(frontier..fetch-head), not O(stream).
    #[test]
    fn window_occupancy_tracks_the_release_lag(
        target_len in 300usize..800,
        lag in 1usize..64,
    ) {
        let config = kernels::stream_add().with_target_len(target_len);
        let mut window = ReplayWindow::new(KernelSource::new("stream_add", config));
        let mut fetched = 0usize;
        while window.next_inst().is_some() {
            fetched += 1;
            window.release_to(fetched.saturating_sub(lag));
            prop_assert!(window.occupancy() <= lag + 1);
        }
        prop_assert!(window.peak_occupancy() <= lag + 1);
        prop_assert!(window.fetched() >= target_len);
    }

    /// A kernel source is a pure function of its config: two instances
    /// drained side by side agree instruction for instruction.
    #[test]
    fn kernel_sources_are_deterministic(kernel_idx in 0usize..7, target_len in 100usize..400) {
        let (name, config) = kernel_menu()[kernel_idx];
        let config = config.with_target_len(target_len);
        let mut a = KernelSource::new(name, config);
        let mut b = KernelSource::new(name, config);
        loop {
            let (ia, ib) = (a.next_inst(), b.next_inst());
            prop_assert_eq!(&ia, &ib);
            if ia.is_none() {
                break;
            }
        }
    }
}
