//! Heap accounting for a length prefix that lies, without a clock.
//!
//! A `Vec<u8>` decodes in one copy: it takes the claimed number of bytes
//! off the input and copies them. So the bytes must be there before
//! anything is allocated for them, or a four-byte length claiming
//! `u32::MAX` would cost a 4 GiB allocation. (The per-item loop this
//! replaced pre-allocated `min(len, 1024)` items on the claim alone.) The
//! log service's bundles hold to the same rule: a batch length or an item
//! count that claims more than the input holds allocates at most the
//! input's size.
//!
//! One file, one test: the counters are per thread, and the one test's
//! thread is the only one that reads them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uba_core::ordering::OrderMsg;
use uba_net::{read_frame, Digest, FrameFault, Item, Wire};

thread_local! {
    /// Bytes this thread asked `alloc`/`realloc` for, in total and in its
    /// largest single request. Const-initialised and without a destructor,
    /// so touching them never allocates.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    REQUESTED.with(|n| n.set(n.get() + size));
    LARGEST.with(|n| n.set(n.get().max(size)));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// `Cell`s and are not touched re-entrantly.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `work` returns, with the bytes this thread requested while it ran
/// (total, largest single request).
fn requested<T>(work: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = REQUESTED.with(Cell::get);
    LARGEST.with(|n| n.set(0));
    let out = work();
    let total = REQUESTED.with(Cell::get) - before;
    (out, total, LARGEST.with(Cell::get))
}

#[test]
fn a_length_claiming_u32_max_allocates_nothing() {
    // A byte vector that claims 4 GiB and carries three bytes.
    let hostile = [0xff, 0xff, 0xff, 0xff, 1, 2, 3];
    let (decoded, total, _) = requested(|| Vec::<u8>::from_bytes(&hostile));
    assert_eq!(decoded, None);
    assert_eq!(total, 0, "a refused byte vector allocated {total} bytes");

    // A `Submit` body whose payload claims `u32::MAX`: tag, empty key, the
    // lying payload length, and 64 bytes of payload.
    let mut body = vec![0x06, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff];
    body.extend_from_slice(&[7; 64]);
    // Its fields, as the frame decoder reads them behind the tag.
    let (decoded, total, _) = requested(|| <(String, Vec<u8>)>::from_bytes(&body[1..]));
    assert_eq!(decoded, None);
    assert_eq!(total, 0, "a refused Submit body allocated {total} bytes");
    // The whole frame off a stream: the reader holds the body it read (the
    // frame's own length, capped by `MAX_FRAME`) and boxes the error, and
    // nothing it allocates is as large as the input.
    let mut stream = (body.len() as u32).to_le_bytes().to_vec();
    stream.extend_from_slice(&body);
    let (read, _, largest) = requested(|| read_frame(&mut &stream[..]));
    let err = read.expect_err("a lying payload length is malformed");
    assert_eq!(FrameFault::of(&err), Some(FrameFault::Malformed));
    assert!(
        largest <= stream.len(),
        "reading a {}-byte frame allocated {largest} bytes at once",
        stream.len()
    );

    // A one-item bundle whose `Event` claims a `u32::MAX`-byte batch and
    // carries 64 bytes of it, and a bundle that claims `u32::MAX` items
    // and holds one.
    let mut item = OrderMsg::Event(Digest::of(b"batch"), 5).to_bytes();
    item.extend_from_slice(&[1, 0xff, 0xff, 0xff, 0xff]);
    item.extend_from_slice(&[7; 64]);
    let one = [&1u32.to_le_bytes()[..], &item].concat();
    let many = [&u32::MAX.to_le_bytes()[..], &item].concat();
    for bundle in [one, many] {
        let (decoded, total, _) = requested(|| Vec::<Item>::from_bytes(&bundle));
        assert_eq!(decoded, None);
        assert!(
            total <= bundle.len(),
            "a refused {}-byte bundle allocated {total} bytes",
            bundle.len()
        );
    }
}
