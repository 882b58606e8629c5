//! Allocation bound for the chunk reassembler: a chunk header from the
//! wire must not size an allocation. This file is its own test binary so
//! the counting allocator sees nothing but the pushes under test.

use bytes::Bytes;
use sdflmq_mqttfc::{BatchConfig, Chunk, PushResult, Reassembler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts bytes requested by `alloc` / `realloc`.
struct CountingAlloc;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn forged_chunk_total_allocates_only_its_own_size() {
    let mut reassembler = Reassembler::new(BatchConfig::default());
    let frames: Vec<Bytes> = (0..10u64)
        .map(|transfer_id| {
            Chunk {
                transfer_id,
                seq: 0,
                total: u32::MAX,
                payload_crc: 0,
                data: Bytes::from_static(b"x"),
            }
            .encode()
        })
        .collect();
    let wire_bytes: usize = frames.iter().map(Bytes::len).sum();

    let before = ALLOCATED.load(Ordering::Relaxed);
    for frame in frames {
        let got = reassembler.push("attacker", frame).unwrap();
        assert_eq!(
            got,
            PushResult::Incomplete {
                received: 1,
                total: u32::MAX
            }
        );
    }
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;

    // Map entries, keys and one chunk slot per frame: a small multiple of
    // the frames themselves, not `total` slots (~160 GiB per frame).
    assert!(
        allocated <= 32 * wire_bytes,
        "10 forged frames ({wire_bytes} B) allocated {allocated} B"
    );
    assert_eq!(reassembler.pending(), 10);
}
