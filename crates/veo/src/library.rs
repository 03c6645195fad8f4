//! The "VE shared library": named kernels (simulated dlopen/dlsym).
//!
//! In a real VEO program the application is compiled by NCC into a `.so`
//! for the VE, loaded with `veo_load_library`, and functions are fetched
//! by symbol name (§III-C). The simulation's library is a map from symbol
//! names to Rust closures that receive the VE-side world
//! ([`crate::VeContext`]) and the argument stack.

use crate::args::ArgsStack;
use crate::context::VeContext;
use std::collections::HashMap;
use std::sync::Arc;

/// A VE kernel: runs "on the VE" (a VE worker thread) with access to the
/// VE-side world; returns a 64-bit value (the VEO ABI).
pub(crate) type KernelFn = Arc<dyn Fn(&VeContext, &ArgsStack) -> u64 + Send + Sync>;

/// Handle to a resolved symbol (`veo_get_sym`).
#[derive(Clone)]
pub struct SymHandle {
    pub(crate) name: String,
    pub(crate) func: KernelFn,
}

impl SymHandle {
    /// The symbol's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl core::fmt::Debug for SymHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SymHandle({:?})", self.name)
    }
}

/// A loadable library of named kernels.
#[derive(Clone, Default)]
pub struct KernelLibrary {
    symbols: HashMap<String, KernelFn>,
}

impl KernelLibrary {
    /// Empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a kernel under `name`; builder-style.
    pub fn with(
        mut self,
        name: &str,
        f: impl Fn(&VeContext, &ArgsStack) -> u64 + Send + Sync + 'static,
    ) -> Self {
        self.symbols.insert(name.to_string(), Arc::new(f));
        self
    }

    /// Look up a symbol.
    pub(crate) fn sym(&self, name: &str) -> Option<SymHandle> {
        self.symbols.get(name).map(|f| SymHandle {
            name: name.to_string(),
            func: Arc::clone(f),
        })
    }

    /// Number of exported symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True when the library exports nothing.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }
}

impl core::fmt::Debug for KernelLibrary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut names: Vec<_> = self.symbols.keys().collect();
        names.sort();
        f.debug_struct("KernelLibrary")
            .field("symbols", &names)
            .finish()
    }
}
