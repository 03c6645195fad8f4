//! Element types for explicit buffers.
//!
//! Buffers cross the host/target boundary as raw bytes. The wire layout of
//! an element is its little-endian, native-width representation, which is
//! also its in-memory layout on both the VH (x86-64) and the VE, so
//! `put`/`get` hand a slice's own bytes to the backend with no encode or
//! decode pass.

#[cfg(target_endian = "big")]
compile_error!(
    "bulk put/get send scalar slices as their in-memory bytes, which must be little-endian"
);

mod sealed {
    pub trait Sealed {}
}

/// A plain-old-data element type with a defined wire layout.
///
/// Sealed: implemented only for the ten primitive integer and float
/// types, which have no padding and accept every bit pattern.
pub trait Scalar: sealed::Sealed + Copy + Send + Sync + 'static {
    /// Encoded size in bytes.
    const SIZE: usize;

    /// The additive identity — what freshly `allocate`d buffers read as
    /// before data lands in them.
    const ZERO: Self;

    /// The slice's wire bytes, borrowed.
    fn as_le_bytes(values: &[Self]) -> &[u8];

    /// The slice's wire bytes, borrowed mutably: writing them sets the
    /// elements.
    fn as_le_bytes_mut(values: &mut [Self]) -> &mut [u8];
}

macro_rules! scalar_impl {
    ($($ty:ty),*) => {
        $(
            impl sealed::Sealed for $ty {}

            impl Scalar for $ty {
                const SIZE: usize = core::mem::size_of::<$ty>();
                const ZERO: Self = 0 as $ty;

                #[allow(unsafe_code)]
                fn as_le_bytes(values: &[Self]) -> &[u8] {
                    // SAFETY: `$ty` is a primitive number with no padding,
                    // so all `size_of_val(values)` bytes behind the pointer
                    // are initialised; `u8` has alignment 1; the borrow of
                    // `values` outlives the returned slice.
                    unsafe {
                        core::slice::from_raw_parts(
                            values.as_ptr().cast::<u8>(),
                            core::mem::size_of_val(values),
                        )
                    }
                }

                #[allow(unsafe_code)]
                fn as_le_bytes_mut(values: &mut [Self]) -> &mut [u8] {
                    // SAFETY: as above, and every bit pattern is a valid
                    // `$ty`, so any bytes written through the view leave
                    // valid elements; the exclusive borrow is transferred.
                    unsafe {
                        core::slice::from_raw_parts_mut(
                            values.as_mut_ptr().cast::<u8>(),
                            core::mem::size_of_val(values),
                        )
                    }
                }
            }
        )*
    };
}

scalar_impl!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(<u8 as Scalar>::SIZE, 1);
        assert_eq!(<f64 as Scalar>::SIZE, 8);
        assert_eq!(<i32 as Scalar>::SIZE, 4);
    }

    #[test]
    fn byte_view_is_little_endian() {
        assert_eq!(u32::as_le_bytes(&[0x0102_0304]), [4, 3, 2, 1]);
        let mut xs = [0u16; 2];
        u16::as_le_bytes_mut(&mut xs).copy_from_slice(&[1, 0, 0, 2]);
        assert_eq!(xs, [1, 0x0200]);
    }
}
