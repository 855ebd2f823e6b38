//! Source-level C types as they appear in glue code (the paper's `ctype`
//! grammar of Figure 1b, extended with the forms real glue code uses).

/// A C type expression parsed from source.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CTypeExpr {
    /// `void`.
    Void,
    /// Any integer type (`int`, `long`, `char`, `unsigned …`, `size_t`).
    Int,
    /// Any floating type (`float`, `double`).
    Float,
    /// The OCaml `value` type.
    Value,
    /// Pointer to another type.
    Ptr(Box<CTypeExpr>),
    /// A named type we treat opaquely (`struct foo`, library typedefs such
    /// as `gzFile`).
    Named(String),
    /// A function pointer; calls through these are imprecision (§5.1).
    FuncPtr,
    /// Synthesized temporaries with no declared type; maps to a fresh
    /// inference variable.
    Auto,
}

impl CTypeExpr {
    /// Convenience: pointer to `self`.
    pub fn ptr(self) -> CTypeExpr {
        CTypeExpr::Ptr(Box::new(self))
    }

    /// Whether a `value` occurs anywhere inside (for the address-of and
    /// global-variable heuristics of §5.1).
    pub fn contains_value(&self) -> bool {
        match self {
            CTypeExpr::Value => true,
            CTypeExpr::Ptr(inner) => inner.contains_value(),
            _ => false,
        }
    }
}

impl std::fmt::Display for CTypeExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CTypeExpr::Void => write!(f, "void"),
            CTypeExpr::Int => write!(f, "int"),
            CTypeExpr::Float => write!(f, "double"),
            CTypeExpr::Value => write!(f, "value"),
            CTypeExpr::Ptr(inner) => write!(f, "{inner} *"),
            CTypeExpr::Named(n) => write!(f, "{n}"),
            CTypeExpr::FuncPtr => write!(f, "<fnptr>"),
            CTypeExpr::Auto => write!(f, "<auto>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_value_through_pointers() {
        assert!(CTypeExpr::Value.contains_value());
        assert!(CTypeExpr::Value.ptr().contains_value());
        assert!(!CTypeExpr::Int.ptr().contains_value());
    }

    #[test]
    fn display_forms() {
        assert_eq!(CTypeExpr::Int.ptr().to_string(), "int *");
        assert_eq!(CTypeExpr::Named("gzFile".into()).to_string(), "gzFile");
    }
}
