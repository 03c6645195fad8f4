//! Compact little-endian wire codec.
//!
//! HAM transfers functor objects between heterogeneous binaries; the wire
//! format therefore fixes endianness and widths explicitly instead of
//! relying on in-memory layout. The format is bincode-like:
//!
//! * integers/floats: little-endian, native width;
//! * `bool`: one byte (0/1); `()`: no bytes;
//! * `String`/`Vec<T>`: `u64` length prefix + UTF-8 bytes/elements;
//! * `Option`: one tag byte (0/1) + value;
//! * structs: fields in order, no framing.
//!
//! The format is *not* self-describing, which keeps messages minimal —
//! the type is known from the handler key. Every type that crosses the
//! wire implements [`Wire`]: the shapes above here, each
//! [`crate::ham_kernel!`] struct through the macro, and a few protocol
//! types by hand.

use crate::HamError;

/// A value with a fixed binary layout on the wire.
pub trait Wire: Sized {
    /// Append this value's bytes to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Read one value off the front of `input`, advancing `input` past it.
    fn decode(input: &mut &[u8]) -> Result<Self, HamError>;

    /// The slice hook, encoding half: a `Vec<Self>`'s elements after its
    /// length prefix. `u8` overrides both halves, so a byte vector moves
    /// as one copy instead of one element at a time.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.encode(out);
        }
    }

    /// The slice hook, decoding half: `len` elements. Every element takes
    /// at least one byte, so a `len` beyond the bytes present is
    /// truncation and never sizes the buffer (a `Vec` of zero-byte values
    /// is not a wire shape).
    fn decode_vec(len: usize, input: &mut &[u8]) -> Result<Vec<Self>, HamError> {
        if len > input.len() {
            return Err(HamError::Codec(format!(
                "{len} elements claimed, {} bytes left",
                input.len()
            )));
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(Self::decode(input)?);
        }
        Ok(items)
    }
}

/// Encode `value` into a fresh byte vector. Never fails; the `Result`
/// keeps the signature callers match on.
pub fn encode<T: Wire>(value: &T) -> Result<Vec<u8>, HamError> {
    let mut out = Vec::new();
    encode_into(value, &mut out)?;
    Ok(out)
}

/// Encode `value` by appending to a caller-provided buffer — the
/// allocation-free path: a pooled buffer with retained capacity makes a
/// steady-state encode cost zero heap allocations. Existing contents of
/// `out` are left untouched; the value is appended.
pub fn encode_into<T: Wire>(value: &T, out: &mut Vec<u8>) -> Result<(), HamError> {
    value.encode(out);
    Ok(())
}

/// Decode a `T` from `bytes`, requiring full consumption.
pub fn decode<T: Wire>(mut bytes: &[u8]) -> Result<T, HamError> {
    let value = T::decode(&mut bytes)?;
    match bytes.len() {
        0 => Ok(value),
        n => Err(HamError::Codec(format!("{n} trailing bytes after value"))),
    }
}

fn truncated(need: usize, have: usize) -> HamError {
    HamError::Codec(format!("unexpected end of input: need {need}, have {have}"))
}

/// Split `n` bytes off the front of `input`.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], HamError> {
    let (head, tail) = input
        .split_at_checked(n)
        .ok_or_else(|| truncated(n, input.len()))?;
    *input = tail;
    Ok(head)
}

fn take_array<const N: usize>(input: &mut &[u8]) -> Result<[u8; N], HamError> {
    let (head, tail) = input
        .split_first_chunk::<N>()
        .ok_or_else(|| truncated(N, input.len()))?;
    *input = tail;
    Ok(*head)
}

/// A `u64` length prefix, as a `usize`.
fn decode_len(input: &mut &[u8]) -> Result<usize, HamError> {
    usize::try_from(u64::decode(input)?)
        .map_err(|_| HamError::Codec("length overflows usize".into()))
}

macro_rules! wire_number {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Result<Self, HamError> {
                take_array(input).map(<$ty>::from_le_bytes)
            }
        }
    )*};
}

wire_number!(u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, HamError> {
        take_array(input).map(|[b]| b)
    }
    fn encode_slice(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn decode_vec(len: usize, input: &mut &[u8]) -> Result<Vec<u8>, HamError> {
        take(input, len).map(<[u8]>::to_vec)
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(input: &mut &[u8]) -> Result<Self, HamError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(HamError::Codec(format!("invalid bool byte {b}"))),
        }
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Result<Self, HamError> {
        Ok(())
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, HamError> {
        let len = decode_len(input)?;
        core::str::from_utf8(take(input, len)?)
            .map(str::to_owned)
            .map_err(|e| HamError::Codec(format!("invalid utf-8: {e}")))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, HamError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => T::decode(input).map(Some),
            b => Err(HamError::Codec(format!("invalid option tag {b}"))),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        T::encode_slice(self, out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, HamError> {
        let len = decode_len(input)?;
        T::decode_vec(len, input)
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip<T: Wire + PartialEq + core::fmt::Debug>(v: &T) {
        let bytes = encode(v).unwrap();
        let back: T = decode(&bytes).unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives() {
        round_trip(&true);
        round_trip(&false);
        round_trip(&42u8);
        round_trip(&-7i16);
        round_trip(&0xDEAD_BEEFu32);
        round_trip(&i64::MIN);
        round_trip(&u64::MAX);
        round_trip(&3.5f32);
        round_trip(&core::f64::consts::PI);
        round_trip(&());
    }

    #[test]
    fn strings_and_bytes() {
        round_trip(&String::from("heterogeneous active messages"));
        round_trip(&String::new());
        round_trip(&vec![1u8, 2, 3]);
        round_trip(&Vec::<u8>::new());
    }

    #[test]
    fn options() {
        round_trip(&Some(5u32));
        round_trip(&Option::<u32>::None);
        round_trip(&Some(String::from("boom")));
    }

    #[test]
    fn vectors() {
        round_trip(&vec![1u64, 2, 3, 4]);
        round_trip(&Vec::<f64>::new());
        round_trip(&vec![vec![1u8], vec![], vec![2, 3]]);
        round_trip(&vec![Some(-1i32), None]);
    }

    crate::ham_kernel! {
        /// Carries every field type the codec implements.
        pub(crate) fn every_shape(
            _ctx, a: u8, b: u16, c: u32, d: u64, e: i8, f: i16, g: i32, h: i64,
            x: f32, y: f64, flag: bool, unit: (), label: String, some: Option<u32>,
            none: Option<u64>, bytes: Vec<u8>, words: Vec<i16>, nested: Vec<Option<String>>,
        ) -> u8 {
            0
        }
    }

    fn every_shape_sample() -> every_shape {
        every_shape::new(
            0x01,
            0x0203,
            0x0405_0607,
            0x0809_0A0B_0C0D_0E0F,
            -2,
            -3,
            -4,
            -5,
            1.5,
            -0.25,
            true,
            (),
            "hé".into(),
            Some(7),
            None,
            vec![0xAA, 0xBB],
            vec![-1, 256],
            vec![Some("z".into()), None],
        )
    }

    /// The bytes the previous, data-model-based codec wrote for the same
    /// message (PR 17 build): virtual time is priced on payload bytes, so
    /// they must not move.
    #[test]
    fn every_field_type_keeps_its_layout() {
        #[rustfmt::skip]
        const EXPECT: [u8; 101] = [
            1,                                      // a: u8
            3, 2,                                   // b: u16
            7, 6, 5, 4,                             // c: u32
            15, 14, 13, 12, 11, 10, 9, 8,           // d: u64
            254,                                    // e: i8
            253, 255,                               // f: i16
            252, 255, 255, 255,                     // g: i32
            251, 255, 255, 255, 255, 255, 255, 255, // h: i64
            0, 0, 192, 63,                          // x: f32
            0, 0, 0, 0, 0, 0, 208, 191,             // y: f64
            1,                                      // flag: bool
                                                    // unit: ()
            3, 0, 0, 0, 0, 0, 0, 0, 104, 195, 169,  // label: "hé"
            1, 7, 0, 0, 0,                          // some: Some(7u32)
            0,                                      // none
            2, 0, 0, 0, 0, 0, 0, 0, 170, 187,       // bytes
            2, 0, 0, 0, 0, 0, 0, 0, 255, 255, 0, 1, // words: [-1, 256]
            2, 0, 0, 0, 0, 0, 0, 0,                 // nested: 2 elements,
            1, 1, 0, 0, 0, 0, 0, 0, 0, 122,         //   Some("z"),
            0,                                      //   None
        ];
        let msg = every_shape_sample();
        let bytes = encode(&msg).unwrap();
        assert_eq!(bytes, EXPECT);
        let back: every_shape = decode(&bytes).unwrap();
        assert_eq!(encode(&back).unwrap(), EXPECT);
        assert_eq!((back.label, back.nested), (msg.label, msg.nested));
    }

    #[test]
    fn layout_is_fixed_little_endian() {
        assert_eq!(encode(&0x0102_0304u32).unwrap(), vec![4, 3, 2, 1]);
        assert_eq!(encode(&true).unwrap(), vec![1]);
        let s = encode(&String::from("ab")).unwrap();
        assert_eq!(s, vec![2, 0, 0, 0, 0, 0, 0, 0, b'a', b'b']);
        // Struct = concatenated fields, no framing.
        crate::ham_kernel! {
            fn p(_ctx, x: u16, y: u16) -> () {}
        }
        assert_eq!(encode(&p::new(1, 2)).unwrap(), vec![1, 0, 2, 0]);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&5u32).unwrap();
        bytes.push(0);
        assert!(matches!(decode::<u32>(&bytes), Err(HamError::Codec(_))));
        let mut bytes = encode(&every_shape_sample()).unwrap();
        bytes.push(0);
        assert!(matches!(
            decode::<every_shape>(&bytes),
            Err(HamError::Codec(_))
        ));
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = encode(&5u64).unwrap();
        assert!(matches!(
            decode::<u64>(&bytes[..4]),
            Err(HamError::Codec(_))
        ));
        let bytes = encode(&every_shape_sample()).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                decode::<every_shape>(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // A length prefix claiming more than is left, for each sequence.
        let claim = [3, 0, 0, 0, 0, 0, 0, 0, 1, 2];
        assert!(decode::<Vec<u8>>(&claim).is_err());
        assert!(decode::<Vec<u16>>(&claim).is_err());
        assert!(decode::<String>(&claim).is_err());
    }

    #[test]
    fn invalid_tags_rejected() {
        assert!(decode::<bool>(&[7]).is_err());
        assert!(decode::<Option<u8>>(&[9]).is_err());
        assert!(decode::<Vec<Option<u8>>>(&[1, 0, 0, 0, 0, 0, 0, 0, 2]).is_err());
        // Invalid UTF-8 string.
        let bad = [1, 0, 0, 0, 0, 0, 0, 0, 0xFF];
        assert!(decode::<String>(&bad).is_err());
    }

    proptest! {
        #[test]
        fn prop_round_trip_u64(v: u64) { round_trip(&v); }

        #[test]
        fn prop_round_trip_f64(v: f64) {
            let bytes = encode(&v).unwrap();
            let back: f64 = decode(&bytes).unwrap();
            prop_assert_eq!(v.to_bits(), back.to_bits());
        }

        #[test]
        fn prop_round_trip_string(s: String) { round_trip(&s); }

        #[test]
        fn prop_round_trip_vec(v: Vec<u32>) { round_trip(&v); }

        #[test]
        fn prop_round_trip_nested(v: Vec<Option<Vec<i16>>>, s: Vec<Option<String>>) {
            round_trip(&v);
            round_trip(&s);
        }

        /// Random byte soup, and the golden message with a byte replaced,
        /// decode to a value or an error — never a panic.
        #[test]
        fn prop_decode_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            at: u64,
            with: u8,
        ) {
            let _ = decode::<Vec<u64>>(&bytes);
            let _ = decode::<Option<String>>(&bytes);
            let _ = decode::<Option<f64>>(&bytes);
            let _ = decode::<every_shape>(&bytes);
            let mut golden = encode(&every_shape_sample()).unwrap();
            let at = at as usize % golden.len();
            golden[at] = with;
            let _ = decode::<every_shape>(&golden);
            let _ = decode::<every_shape>(&golden[..at]);
        }
    }
}
