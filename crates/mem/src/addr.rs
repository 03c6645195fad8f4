//! Address newtypes for the three address spaces the paper involves.
//!
//! * **VH virtual addresses** ([`VhAddr`]) — host-process addresses;
//! * **VE virtual addresses** ([`VeAddr`]) — VE-process addresses (VEMVA);
//! * **VEHVA** ([`Vehva`]) — *VE Host Virtual Addresses*: the window
//!   through which VE code reaches registered host (or VE) memory after a
//!   DMAATB registration (§IV-A).
//!
//! Using newtypes prevents the classic offloading bug of passing a host
//! pointer where a device pointer is expected — the type system plays the
//! role the MMU plays on real hardware.

use core::fmt;

macro_rules! addr_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// Raw numeric value.
            #[inline]
            pub const fn get(self) -> u64 {
                self.0
            }

            /// Offset the address by `d` bytes.
            #[inline]
            pub const fn offset(self, d: u64) -> $name {
                $name(self.0 + d)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }
    };
}

addr_newtype! {
    /// A Vector-Host (x86 process) virtual address.
    VhAddr
}

addr_newtype! {
    /// A Vector-Engine process virtual address (VEMVA).
    VeAddr
}

addr_newtype! {
    /// A VE Host Virtual Address: VE-side handle to DMAATB-registered
    /// memory, usable by user DMA and the LHM/SHM instructions.
    Vehva
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtypes_are_distinct_types() {
        // This is a compile-time property; here we just exercise the API.
        let h = VhAddr(0x1000);
        let v = VeAddr(0x1000);
        let w = Vehva(0x1000);
        assert_eq!(h.get(), v.get());
        assert_eq!(v.get(), w.get());
    }

    #[test]
    fn offset_moves_the_address() {
        assert_eq!(VeAddr(0x100).offset(0x10), VeAddr(0x110));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", VhAddr(0xdead)), "0xdead");
        assert_eq!(format!("{:?}", VeAddr(0x10)), "VeAddr(0x10)");
    }
}
