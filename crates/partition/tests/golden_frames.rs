//! The frame checksum and the frame bytes are pinned: `crc32` is checked
//! against a bytewise reference, and a spill file written by the commit
//! before the slice-by-8 rewrite (`fixtures/parent_spill_frames.bin`, nine
//! frames from that commit's frame encoder) must still verify and must
//! still be what `write_frame` produces.

use surfer_partition::store_fs::{crc32, write_frame, FrameStream, SPILL_MAGIC};

/// The textbook bit-at-a-time CRC-32 (reflected, polynomial 0xEDB88320).
fn crc32_reference(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
        }
    }
    !crc
}

/// The generator the fixture's payloads came from.
fn lcg_bytes(x: &mut u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            *x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (*x >> 24) as u8
        })
        .collect()
}

#[test]
fn crc32_matches_the_bytewise_reference() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "the IEEE check value");
    assert_eq!(crc32(b""), 0);
    // Every length around the eight-byte step, at every offset into a word.
    let buf = lcg_bytes(&mut 7, 80);
    for start in 0..8 {
        for len in 0..=64 {
            let data = &buf[start..start + len];
            assert_eq!(crc32(data), crc32_reference(data), "start {start} len {len}");
        }
    }
    let mib = lcg_bytes(&mut 2010, 1 << 20);
    assert_eq!(crc32(&mib), crc32_reference(&mib));
}

#[test]
fn frames_written_before_the_rewrite_still_verify() {
    let fixture: &[u8] = include_bytes!("fixtures/parent_spill_frames.bin");
    let mut x = 0x2010_4242u32;
    let payloads: Vec<Vec<u8>> =
        [0usize, 1, 7, 8, 9, 31, 64, 257, 4099].into_iter().map(|n| lcg_bytes(&mut x, n)).collect();

    let mut stream = FrameStream::new(fixture, fixture.len() as u64, SPILL_MAGIC, "fixture");
    let mut written = Vec::new();
    for (i, payload) in payloads.iter().enumerate() {
        let frame = stream.next_frame().unwrap().expect("frame present");
        assert_eq!((frame.a, frame.b, frame.payload), (3, i as u32, &payload[..]));
        write_frame(&mut written, SPILL_MAGIC, 3, i as u32, payload).unwrap();
    }
    assert!(stream.next_frame().unwrap().is_none());
    assert_eq!(stream.bytes_read(), fixture.len() as u64);
    assert_eq!(written, fixture, "write_frame changed the bytes on disk");
}
