//! The one byte codec: how vertex states reach checkpoint snapshots and
//! how messages reach out-of-core mailbox segments.
//!
//! Every encoding is fixed-layout little-endian and self-delimiting, so a
//! value round-trips bit-exactly and a reader knows where the next one
//! starts. Decoding never panics: truncated or malformed bytes decode to
//! `None`, which the callers surface as a typed storage error.

/// Fixed-layout binary encoding of a state or message value.
pub trait Codec: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from the front of `buf`, advancing it past exactly
    /// the bytes [`Codec::encode`] wrote. `None` means the buffer is
    /// truncated or malformed.
    fn decode(buf: &mut &[u8]) -> Option<Self>;
}

macro_rules! codec_le {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                let (head, rest) = buf.split_first_chunk()?;
                *buf = rest;
                Some(<$t>::from_le_bytes(*head))
            }
        }
    )*};
}
codec_le!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

/// One byte, 0 or 1; any other byte is damage.
impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// No bytes at all.
impl Codec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

/// A tag byte (0 none, 1 some) before the value.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(None),
            1 => Some(Some(T::decode(buf)?)),
            _ => None,
        }
    }
}

/// A `u32` element count, then the elements. The lists the engine moves
/// are bounded by a vertex count, which is a `u32`.
impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let n = u32::decode(buf)? as usize;
        // A damaged count must not reserve gigabytes up front; a count the
        // bytes cannot back fails on the first element that is missing.
        let mut v = Vec::with_capacity(n.min(buf.len()));
        for _ in 0..n {
            v.push(T::decode(buf)?);
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let mut out = Vec::new();
        v.encode(&mut out);
        let mut buf = out.as_slice();
        assert_eq!(T::decode(&mut buf).as_ref(), Some(&v));
        assert!(buf.is_empty(), "{v:?} left {} bytes", buf.len());
        // Every proper prefix is damage, never garbage or a panic.
        for cut in 0..out.len() {
            assert_eq!(T::decode(&mut &out[..cut]), None, "{v:?} cut at {cut}");
        }
    }

    #[test]
    fn every_impl_roundtrips_and_rejects_truncation() {
        roundtrip(7u8);
        roundtrip(u16::MAX);
        roundtrip(7u32);
        roundtrip(u64::MAX);
        roundtrip(-7i32);
        roundtrip(i64::MIN);
        roundtrip(-1.5f32);
        roundtrip(0.25f64);
        roundtrip(true);
        roundtrip((3u32, 9u64));
        roundtrip((1u8, false, 2.5f64));
        roundtrip(Some(5u8));
        roundtrip(vec![3u32, 9, 27]);
        roundtrip((4u64, Some(vec![1u32, 2])));
        let mut out = Vec::new();
        Option::<u8>::None.encode(&mut out);
        ().encode(&mut out);
        Vec::<u16>::new().encode(&mut out);
        let mut buf = out.as_slice();
        assert_eq!(Option::<u8>::decode(&mut buf), Some(None));
        assert_eq!(<()>::decode(&mut buf), Some(()));
        assert_eq!(Vec::<u16>::decode(&mut buf), Some(Vec::new()));
        assert!(buf.is_empty());
    }

    #[test]
    fn layouts_are_fixed_little_endian() {
        let mut out = Vec::new();
        0x0102_0304u32.encode(&mut out);
        1.0f64.encode(&mut out);
        vec![7u32].encode(&mut out);
        assert_eq!(&out[..4], &[4, 3, 2, 1]);
        assert_eq!(&out[4..12], &1.0f64.to_bits().to_le_bytes());
        assert_eq!(&out[12..], &[1, 0, 0, 0, 7, 0, 0, 0]);
    }

    #[test]
    fn malformed_bytes_decode_to_none() {
        assert_eq!(bool::decode(&mut &[7u8][..]), None);
        assert_eq!(Option::<u8>::decode(&mut &[2u8, 0][..]), None);
        // A count larger than the bytes left.
        assert_eq!(Vec::<u32>::decode(&mut &[9u8, 0, 0, 0][..]), None);
        assert_eq!(Vec::<u8>::decode(&mut &[0xFF, 0xFF, 0xFF, 0xFF][..]), None);
    }
}
