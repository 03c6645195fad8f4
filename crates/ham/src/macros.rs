//! User-facing sugar: [`ham_kernel!`] and [`f2f!`].
//!
//! The paper's `f2f()` ("function to functor") binds arguments to a
//! function and yields an offloadable functor. Rust closures cannot
//! travel between binaries, so [`ham_kernel!`] generates, from a plain
//! `fn` item, the message struct, its [`crate::ActiveMessage`] impl, its
//! [`crate::codec::Wire`] impl (the arguments in order) and a
//! positional constructor; [`f2f!`] then reads exactly like the paper's
//! call sites:
//!
//! ```
//! use ham::{ham_kernel, f2f};
//!
//! ham_kernel! {
//!     /// Scale-and-add on plain arguments.
//!     pub fn saxpy(ctx, a: f64, x: f64, y: f64) -> f64 {
//!         let _ = ctx;
//!         a * x + y
//!     }
//! }
//!
//! let functor = f2f!(saxpy, 2.0, 3.0, 1.0);
//! // `functor` is a plain struct on the wire: saxpy { a: 2.0, ... }.
//! assert_eq!(functor.a, 2.0);
//! ```

/// Define an offloadable kernel: generates a message struct named after
/// the function, holding its arguments, whose `execute` runs the body on
/// the target. The first parameter is the [`crate::ExecContext`] binding
/// (an identifier of your choice).
#[macro_export]
macro_rules! ham_kernel {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($ctx:ident $(, $arg:ident : $ty:ty)* $(,)?) -> $out:ty
        $body:block
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug)]
        #[allow(non_camel_case_types)]
        $vis struct $name {
            $(
                /// Bound kernel argument.
                pub $arg: $ty,
            )*
        }

        impl $name {
            /// Positional constructor used by [`f2f!`].
            #[allow(clippy::too_many_arguments)]
            $vis fn new($($arg: $ty),*) -> Self {
                Self { $($arg),* }
            }
        }

        // On the wire: the arguments in order, no framing.
        impl $crate::codec::Wire for $name {
            #[allow(unused_variables)]
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::codec::Wire::encode(&self.$arg, out);)*
            }

            #[allow(unused_variables)]
            fn decode(input: &mut &[u8]) -> ::core::result::Result<Self, $crate::HamError> {
                ::core::result::Result::Ok(Self {
                    $($arg: $crate::codec::Wire::decode(input)?,)*
                })
            }
        }

        impl $crate::ActiveMessage for $name {
            type Output = $out;

            #[allow(unused_variables)]
            fn execute(self, $ctx: &mut $crate::ExecContext<'_>) -> $out {
                let Self { $($arg),* } = self;
                $body
            }
        }
    };
}

/// Function-to-functor conversion (paper Table II): bind arguments to a
/// [`ham_kernel!`]-defined kernel, yielding the offloadable message.
#[macro_export]
macro_rules! f2f {
    ($kernel:path $(, $arg:expr)* $(,)?) => {
        <$kernel>::new($($arg),*)
    };
}

/// Register several kernels with a [`crate::RegistryBuilder`] in one go.
#[macro_export]
macro_rules! register_kernels {
    ($builder:expr, [$($kernel:ty),* $(,)?]) => {{
        let b = $builder;
        $(b.register::<$kernel>();)*
    }};
}

#[cfg(test)]
mod tests {
    use crate::message::VecMemory;
    use crate::{ActiveMessage, ExecContext, RegistryBuilder};

    ham_kernel! {
        /// Inner product over target memory, mirroring the paper's Fig. 2.
        pub(crate) fn inner_product(ctx, a_addr: u64, b_addr: u64, n: u64) -> f64 {
            let a = ctx.mem.read_f64s(a_addr, n as usize).unwrap();
            let b = ctx.mem.read_f64s(b_addr, n as usize).unwrap();
            a.iter().zip(&b).map(|(x, y)| x * y).sum()
        }
    }

    ham_kernel! {
        pub(crate) fn no_args(ctx) -> u16 {
            ctx.node
        }
    }

    ham_kernel! {
        pub(crate) fn stringy(_ctx, label: String, reps: u64) -> String {
            label.repeat(reps as usize)
        }
    }

    #[test]
    fn f2f_builds_the_functor() {
        let f = f2f!(inner_product, 0, 64, 4);
        assert_eq!(f.a_addr, 0);
        assert_eq!(f.b_addr, 64);
        assert_eq!(f.n, 4);
    }

    #[test]
    fn kernel_executes_against_target_memory() {
        let mem = VecMemory::new(256);
        use crate::message::TargetMemory;
        mem.write_f64s(0, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        mem.write_f64s(64, &[4.0, 3.0, 2.0, 1.0]).unwrap();
        let mut ctx = ExecContext::new(1, &mem);
        let r = f2f!(inner_product, 0, 64, 4).execute(&mut ctx);
        assert_eq!(r, 20.0);
    }

    #[test]
    fn zero_arg_kernel() {
        let mem = VecMemory::new(0);
        let mut ctx = ExecContext::new(9, &mem);
        assert_eq!(f2f!(no_args).execute(&mut ctx), 9);
    }

    #[test]
    fn owned_argument_types() {
        let mem = VecMemory::new(0);
        let mut ctx = ExecContext::new(0, &mem);
        let r = f2f!(stringy, "ab".to_string(), 3).execute(&mut ctx);
        assert_eq!(r, "ababab");
    }

    #[test]
    fn kernels_register_and_dispatch_via_keys() {
        let mut b = RegistryBuilder::new();
        register_kernels!(&mut b, [inner_product, no_args, stringy]);
        let host = b.seal(1);
        let mut b2 = RegistryBuilder::new();
        register_kernels!(&mut b2, [stringy, inner_product, no_args]);
        let target = b2.seal(2);

        let (key, payload) = host.encode_message(&f2f!(stringy, "x".into(), 2)).unwrap();
        let mem = VecMemory::new(0);
        let mut ctx = ExecContext::new(1, &mem);
        let out = target.execute(key, &payload, &mut ctx).unwrap();
        assert_eq!(
            crate::Registry::decode_result::<stringy>(&out).unwrap(),
            "xx"
        );
    }

    #[test]
    fn functor_round_trips_through_codec() {
        let f = f2f!(inner_product, 10, 20, 30);
        let bytes = crate::codec::encode(&f).unwrap();
        let back: inner_product = crate::codec::decode(&bytes).unwrap();
        assert_eq!(back.a_addr, 10);
        assert_eq!(back.n, 30);
    }
}
