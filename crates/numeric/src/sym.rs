//! Interned symbolic parameter names.

use std::fmt;
use std::sync::Arc;

/// A symbolic parameter such as the unknown loop bound `N` or `KK`.
///
/// Symbols are cheap to clone (`Arc<str>` inside) and compare by name, so
/// two independently created `Sym::new("N")` values are equal.
///
/// ```
/// use delin_numeric::Sym;
/// assert_eq!(Sym::new("N"), Sym::new("N"));
/// assert!(Sym::new("KK") > Sym::new("JJ"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(Arc<str>);

impl Sym {
    /// Creates (or re-creates) the symbol with the given name.
    pub fn new(name: &str) -> Sym {
        Sym(Arc::from(name))
    }

    /// The symbol's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

/// Wraps an already shared name without copying it, so a caller that
/// interns names hands every symbol of one name the same allocation.
impl From<Arc<str>> for Sym {
    fn from(name: Arc<str>) -> Sym {
        Sym(name)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_by_name() {
        let a = Sym::new("N");
        let b: Sym = "N".into();
        let c: Sym = String::from("M").into();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.name(), "N");
        assert_eq!(c.to_string(), "M");
    }
}
