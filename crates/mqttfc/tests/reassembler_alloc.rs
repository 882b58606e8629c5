//! Allocation bound for the chunk reassembler: a header from the wire
//! must not size an allocation. This file is its own test binary so the
//! counting allocator sees nothing but the pushes under test. Counts are
//! per thread, so concurrently running tests do not see each other.

use bytes::Bytes;
use sdflmq_mqttfc::compress::MODE_LZSS;
use sdflmq_mqttfc::{crc32, BatchConfig, Chunk, PushResult, Reassembler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts bytes requested by `alloc` / `realloc` on the calling thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes));
}

fn thread_allocated() -> usize {
    ALLOCATED.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

    let before = thread_allocated();
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
    let allocated = thread_allocated() - before;

    // Map entries, keys and one chunk slot per frame: a small multiple of
    // the frames themselves, not `total` slots (~160 GiB per frame).
    assert!(
        allocated <= 32 * wire_bytes,
        "10 forged frames ({wire_bytes} B) allocated {allocated} B"
    );
    assert_eq!(reassembler.pending(), 10);
}

#[test]
fn forged_lzss_length_header_allocates_only_its_own_size() {
    let mut reassembler = Reassembler::new(BatchConfig::default());
    // An LZSS-mode body whose 4-byte header claims u32::MAX bytes, then
    // one flag byte and a single literal. The payload CRC is valid, so
    // the body reaches the decompressor.
    let mut body = vec![MODE_LZSS];
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    body.extend_from_slice(&[0xFF, b'x']);
    let frame = Chunk {
        transfer_id: 1,
        seq: 0,
        total: 1,
        payload_crc: crc32(&body),
        data: Bytes::from(body),
    }
    .encode();
    let wire_bytes = frame.len();

    let before = thread_allocated();
    assert!(reassembler.push("attacker", frame).is_err());
    let allocated = thread_allocated() - before;

    assert!(
        allocated <= 32 * wire_bytes,
        "forged {wire_bytes} B frame allocated {allocated} B"
    );
}
