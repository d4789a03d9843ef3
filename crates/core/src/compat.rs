//! The compatibility layer (§5): DDC memory APIs and the ELF symbol patcher.
//!
//! DiLOS keeps POSIX/binary compatibility by loading unmodified application
//! binaries and patching their allocation symbols: "the ELF loader patches
//! all malloc and free calls in the application's symbol table with
//! corresponding DDC APIs". The real system rewrites ELF relocations; this
//! reproduction models the same contract with a symbol-routing table that
//! reroutes a table's `malloc`-family names to `ddc_malloc`/`ddc_free`. No
//! workload loads through it: workloads call `FarMemory::alloc`, which on
//! DiLOS is [`Dilos::ddc_alloc`](crate::Dilos::ddc_alloc).
//!
//! The loader also provides the *hooking interface* guides use to observe
//! application state ("the prefetcher hooks the list traversing code and
//! tracks the position of the current node", §5).

// Ordered maps: `PatchReport` enumerates patched symbols straight out of
// `symbols`, and that order must not depend on a hash seed.
use std::collections::BTreeMap;

/// The `mmap` flag selecting disaggregated backing (§5: `MAP_DDC`).
pub const MAP_DDC: u32 = 0x0100_0000;

/// A symbol exported or imported by a loaded "binary".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolKind {
    /// An allocation entry point eligible for DDC patching.
    Alloc,
    /// A function a guide may hook.
    Hookable,
    /// Anything else (left untouched).
    Other,
}

/// A minimal model of an application's dynamic symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    symbols: BTreeMap<String, (SymbolKind, String)>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a symbol, resolving to itself until a patch reroutes it.
    pub fn declare(&mut self, name: &str, kind: SymbolKind) {
        self.symbols
            .insert(name.to_string(), (kind, name.to_string()));
    }

    /// What `name` currently resolves to.
    pub fn resolve(&self, name: &str) -> Option<&str> {
        self.symbols.get(name).map(|(_, t)| t.as_str())
    }
}

/// The patch report: which symbols were rerouted and which hooks installed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PatchReport {
    /// `(original, replacement)` pairs applied.
    pub patched: Vec<(String, String)>,
    /// Hookable symbols a guide attached to.
    pub hooked: Vec<String>,
}

/// The DDC symbol patcher (the ELF-loader stage of §5).
#[derive(Debug)]
pub struct SymbolPatcher {
    routes: BTreeMap<&'static str, &'static str>,
}

impl Default for SymbolPatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl SymbolPatcher {
    /// The standard malloc-family routing table.
    pub fn new() -> Self {
        let mut routes = BTreeMap::new();
        routes.insert("malloc", "ddc_malloc");
        routes.insert("free", "ddc_free");
        routes.insert("calloc", "ddc_calloc");
        routes.insert("realloc", "ddc_realloc");
        routes.insert("posix_memalign", "ddc_posix_memalign");
        Self { routes }
    }

    /// Patches every allocation symbol in `table` to its DDC equivalent and
    /// installs the requested guide hooks. Unknown hook names are ignored
    /// (a guide compiled against a different application version must not
    /// break loading).
    pub fn patch(&self, table: &mut SymbolTable, hooks: &[&str]) -> PatchReport {
        let mut report = PatchReport::default();
        for (name, (kind, resolved)) in &mut table.symbols {
            if let (SymbolKind::Alloc, Some(&target)) = (*kind, self.routes.get(name.as_str())) {
                *resolved = target.to_string();
                report.patched.push((name.clone(), target.to_string()));
            }
        }
        for &h in hooks {
            if matches!(table.symbols.get(h), Some((SymbolKind::Hookable, _))) {
                report.hooked.push(h.to_string());
            }
        }
        report.patched.sort();
        report.hooked.sort();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app_table() -> SymbolTable {
        let mut t = SymbolTable::new();
        t.declare("malloc", SymbolKind::Alloc);
        t.declare("free", SymbolKind::Alloc);
        t.declare("memcpy", SymbolKind::Other);
        t.declare("listTypeNext", SymbolKind::Hookable);
        t
    }

    #[test]
    fn alloc_symbols_are_rerouted() {
        let mut t = app_table();
        let report = SymbolPatcher::new().patch(&mut t, &[]);
        assert_eq!(t.resolve("malloc"), Some("ddc_malloc"));
        assert_eq!(t.resolve("free"), Some("ddc_free"));
        assert_eq!(t.resolve("memcpy"), Some("memcpy"), "non-alloc untouched");
        assert_eq!(report.patched.len(), 2);
    }

    #[test]
    fn hooks_attach_only_to_hookable_symbols() {
        let mut t = app_table();
        let report = SymbolPatcher::new().patch(&mut t, &["listTypeNext", "memcpy", "missing"]);
        assert_eq!(report.hooked, vec!["listTypeNext".to_string()]);
    }

    #[test]
    fn patching_is_idempotent() {
        let mut t = app_table();
        let p = SymbolPatcher::new();
        p.patch(&mut t, &[]);
        let second = p.patch(&mut t, &[]);
        assert_eq!(t.resolve("malloc"), Some("ddc_malloc"));
        // The second pass re-applies the same routes harmlessly.
        assert_eq!(second.patched.len(), 2);
    }
}
