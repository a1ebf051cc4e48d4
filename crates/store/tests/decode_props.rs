//! Never-panic properties for what recovery reads from disk: segment
//! images (v1 and v2) through `segment::validate`, `SegmentFile::parse`
//! plus `decode_page`, and `SegmentData::decode`; manifest bytes through
//! `parse_manifest`.
//!
//! Inputs are random bytes, and single-byte flips or truncations of
//! valid segments. A flip or cut almost always breaks the trailing
//! checksum, which would stop every decoder at its first check, so the
//! mutated images are also re-sealed with a fresh checksum: that drives
//! the corrupt header, dictionary, column and page-directory bytes deep
//! into each decoder. Each must answer with a typed [`StoreError`] or a
//! value, never panic, and never ask the allocator for more than a bound
//! set by the input length.

use iri_bgp::types::{Asn, Prefix};
use iri_core::fxhash::FxHasher;
use iri_core::input::PeerKey;
use iri_core::taxonomy::UpdateClass;
use iri_obs::cause::Cause;
use iri_store::query::parse_manifest;
use iri_store::segment::validate;
use iri_store::{
    build_manifest, nlri_wire_bytes, PageBuf, SegmentBuilder, SegmentData, SegmentFile, StoreError,
    StoredEvent,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hash::Hasher;

/// Records the largest single allocation each thread asks for, so a
/// property can bound what one decode call allocates.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Any single request past this fails outright (aborting the test)
/// instead of reserving memory the machine may not have.
const REFUSE_ABOVE: usize = 1 << 30;

/// Records `size`; false when the request must be refused.
fn note(size: usize) -> bool {
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
    size <= REFUSE_ABOVE
}

// SAFETY: every granted call forwards to `System` unchanged; the wrapper
// only records sizes in a destructor-free thread-local, and refuses by
// returning null, which the allocation API allows.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !note(layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !note(layout.size()) {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !note(new_size) {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// The most any decoder may allocate at once for an `len`-byte input: a few
/// machine words per input byte, plus fixed slack for error strings.
fn alloc_bound(len: usize) -> usize {
    32 * len + 64 * 1024
}

/// Runs every segment reader over `bytes`, requiring typed results and
/// bounded allocations. Returns whether the eager decoder accepted it.
fn read_segment(bytes: &[u8]) -> bool {
    LARGEST.with(|c| c.set(0));
    let _ = validate(bytes);
    let eager = SegmentData::decode(bytes);
    if let Ok(file) = SegmentFile::parse(bytes.to_vec()) {
        let mut buf = PageBuf::new();
        for page in file.pages() {
            if file.decode_page(page, &mut buf).is_ok() {
                for j in 0..buf.len() {
                    let _ = file.event(&buf, j);
                }
            }
        }
    }
    if let Ok(seg) = &eager {
        for i in 0..seg.len() {
            let _ = seg.event(i);
        }
    }
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= alloc_bound(bytes.len()),
        "a {}-byte segment image made a decoder allocate {largest} bytes at once",
        bytes.len()
    );
    eager.is_ok()
}

/// Replaces the trailing checksum so the image passes the integrity
/// check and the decoders parse the damaged structure behind it.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    if bytes.len() < 8 {
        return bytes;
    }
    let body = bytes.len() - 8;
    let mut h = FxHasher::default();
    h.write(&bytes[..body]);
    bytes[body..].copy_from_slice(&h.finish().to_le_bytes());
    bytes
}

/// A valid segment over `rows` rows of a varied stream, in the current
/// (v2, paged) or the legacy v1 format.
fn valid_segment(rows: u32, v1: bool) -> Vec<u8> {
    let mut b = SegmentBuilder::new(3).with_page_rows(16);
    for i in 0..rows {
        let prefix = Prefix::from_raw(0xc000_0000 + ((i % 37) << 8), 24);
        b.push(&StoredEvent {
            time_ms: 1_000 + u64::from(i) * 977 % 50_000,
            peer: PeerKey {
                asn: Asn(700 + i % 5),
                addr: std::net::Ipv4Addr::new(10, 0, 0, (i % 5) as u8),
            },
            prefix,
            class: UpdateClass::ALL[i as usize % UpdateClass::ALL.len()],
            cause: Cause::ALL[i as usize % Cause::ALL.len()],
            policy_change: i % 3 == 0,
            size: nlri_wire_bytes(prefix),
        });
    }
    let name = "s03-000000.seg".to_string();
    if v1 {
        b.encode_v1(name, 0).0
    } else {
        b.encode(name, 0).0
    }
}

/// A manifest image as recovery reads it from `MANIFEST.json`.
fn valid_manifest() -> Vec<u8> {
    let mut b = SegmentBuilder::new(3);
    b.push(&StoredEvent {
        time_ms: 5,
        peer: PeerKey {
            asn: Asn(701),
            addr: std::net::Ipv4Addr::new(10, 0, 0, 1),
        },
        prefix: Prefix::from_raw(0xc000_0000, 24),
        class: UpdateClass::WwDup,
        cause: Cause::Unknown,
        policy_change: false,
        size: 4,
    });
    let (_, meta) = b.encode("s03-000000.seg".to_string(), 0);
    let manifest = build_manifest(vec![meta], 64, 1, 1);
    serde_json::to_string_pretty(&manifest)
        .unwrap()
        .into_bytes()
}

fn parse_manifest_bounded(bytes: &[u8]) {
    LARGEST.with(|c| c.set(0));
    match parse_manifest(bytes) {
        Ok(_) | Err(StoreError::Json(_) | StoreError::Corrupt { .. }) => {}
        Err(e) => panic!("manifest parse failed with an unexpected error kind: {e}"),
    }
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= alloc_bound(bytes.len()),
        "a {}-byte manifest made the parser allocate {largest} bytes at once",
        bytes.len()
    );
}

#[test]
fn valid_segments_decode() {
    for v1 in [false, true] {
        for rows in [0, 1, 9, 100] {
            assert!(
                read_segment(&valid_segment(rows, v1)),
                "rows {rows} v1 {v1}"
            );
        }
    }
}

/// Header fields re-sealed under a fresh checksum: a row count, a
/// dictionary size or a page count far past the image must be refused
/// before anything is sized from it.
#[test]
fn resealed_header_counts_are_bounded() {
    for v1 in [false, true] {
        let good = valid_segment(100, v1);
        // Row count (bytes 8..12), then the peer dictionary size.
        for at in [8usize, 12] {
            let mut bad = good.clone();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(!read_segment(&reseal(bad)), "count at {at} v1 {v1}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        read_segment(&bytes);
        read_segment(&reseal(bytes.clone()));
        parse_manifest_bounded(&bytes);
    }

    #[test]
    fn random_bytes_behind_a_valid_header_never_panic(
        tail in prop::collection::vec(any::<u8>(), 0..512),
        v1 in any::<bool>(),
    ) {
        let mut bytes = valid_segment(40, v1)[..12].to_vec();
        bytes.extend_from_slice(&tail);
        read_segment(&reseal(bytes));
    }

    #[test]
    fn flipped_segments_never_panic(
        rows in 0u32..120,
        v1 in any::<bool>(),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = valid_segment(rows, v1);
        let i = at % bytes.len();
        bytes[i] ^= mask;
        prop_assert!(!read_segment(&bytes), "a flip must break the checksum");
        read_segment(&reseal(bytes));
    }

    #[test]
    fn truncated_segments_never_panic(rows in 0u32..120, v1 in any::<bool>(), cut in any::<usize>()) {
        let good = valid_segment(rows, v1);
        let bytes = good[..cut % good.len()].to_vec();
        prop_assert!(!read_segment(&bytes), "a cut must break the checksum");
        read_segment(&reseal(bytes));
    }

    #[test]
    fn flipped_manifests_never_panic(at in any::<usize>(), byte in any::<u8>(), cut in any::<usize>()) {
        let mut bytes = valid_manifest();
        let i = at % bytes.len();
        bytes[i] = byte;
        parse_manifest_bounded(&bytes);
        parse_manifest_bounded(&bytes[..cut % bytes.len()]);
    }
}
