//! Attack taxonomy, following the SEPTIC papers' classification.

use std::fmt;

/// Classes of injection attacks the demonstration exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackClass {
    /// Textbook quote-based SQLI (stopped by correct sanitization — shown
    /// for contrast; the demo focuses on the classes below).
    ClassicSqli,
    /// Injection into an unquoted numeric position: escaping without
    /// quoting protects nothing.
    NumericContext,
    /// First-order injection through a Unicode homoglyph quote the
    /// application-side escaping does not recognise.
    HomoglyphFirstOrder,
    /// Syntax mimicry: the injected query reproduces the learned structure
    /// arity (caught only by the detector's second step).
    SyntaxMimicry,
    /// Second-order: payload stored through a safe path, detonating later
    /// when re-embedded into query text.
    SecondOrder,
    /// Stacked/piggybacked statements.
    Piggyback,
    /// UNION arm smuggled *inside* a subquery (IN/EXISTS/scalar), so the
    /// exfiltration hides behind the outer statement's unchanged shape.
    SubqueryUnion,
    /// Aggregate-alias mimicry: a GROUP BY/HAVING position is fed an alias
    /// or aggregate reference with the same arity as the learned literal
    /// (caught only by node-wise comparison, not the structural count).
    AggregateMimicry,
    /// Piggybacked statement injected through a JOIN-bearing query, riding
    /// on the multi-table shape.
    JoinPiggyback,
    /// Stored cross-site scripting.
    StoredXss,
    /// Remote file inclusion payload stored in the database.
    Rfi,
    /// Local file inclusion / path traversal payload.
    Lfi,
    /// OS command injection payload.
    Osci,
    /// Code-execution payload (PHP).
    Rce,
}

impl AttackClass {
    /// True for the SQLI classes (vs the stored-injection classes).
    #[must_use]
    pub fn is_sqli(self) -> bool {
        matches!(
            self,
            AttackClass::ClassicSqli
                | AttackClass::NumericContext
                | AttackClass::HomoglyphFirstOrder
                | AttackClass::SyntaxMimicry
                | AttackClass::SecondOrder
                | AttackClass::Piggyback
                | AttackClass::SubqueryUnion
                | AttackClass::AggregateMimicry
                | AttackClass::JoinPiggyback
        )
    }

    /// True for the classes that exploit the semantic mismatch (the demo's
    /// focus: "we consider only these cases of injection attacks — when
    /// protections are in place").
    #[must_use]
    pub fn is_semantic_mismatch(self) -> bool {
        matches!(
            self,
            AttackClass::NumericContext
                | AttackClass::HomoglyphFirstOrder
                | AttackClass::SyntaxMimicry
                | AttackClass::SecondOrder
                | AttackClass::SubqueryUnion
                | AttackClass::AggregateMimicry
        )
    }

    /// All classes.
    #[must_use]
    pub fn all() -> &'static [AttackClass] {
        &[
            AttackClass::ClassicSqli,
            AttackClass::NumericContext,
            AttackClass::HomoglyphFirstOrder,
            AttackClass::SyntaxMimicry,
            AttackClass::SecondOrder,
            AttackClass::Piggyback,
            AttackClass::SubqueryUnion,
            AttackClass::AggregateMimicry,
            AttackClass::JoinPiggyback,
            AttackClass::StoredXss,
            AttackClass::Rfi,
            AttackClass::Lfi,
            AttackClass::Osci,
            AttackClass::Rce,
        ]
    }
}

impl fmt::Display for AttackClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AttackClass::ClassicSqli => "classic SQLI",
            AttackClass::NumericContext => "numeric-context SQLI",
            AttackClass::HomoglyphFirstOrder => "homoglyph first-order SQLI",
            AttackClass::SyntaxMimicry => "syntax mimicry SQLI",
            AttackClass::SecondOrder => "second-order SQLI",
            AttackClass::Piggyback => "piggyback SQLI",
            AttackClass::SubqueryUnion => "subquery-union SQLI",
            AttackClass::AggregateMimicry => "aggregate-mimicry SQLI",
            AttackClass::JoinPiggyback => "join-piggyback SQLI",
            AttackClass::StoredXss => "stored XSS",
            AttackClass::Rfi => "RFI",
            AttackClass::Lfi => "LFI",
            AttackClass::Osci => "OSCI",
            AttackClass::Rce => "RCE",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(AttackClass::SecondOrder.is_sqli());
        assert!(AttackClass::SecondOrder.is_semantic_mismatch());
        assert!(AttackClass::ClassicSqli.is_sqli());
        assert!(!AttackClass::ClassicSqli.is_semantic_mismatch());
        assert!(!AttackClass::StoredXss.is_sqli());
        assert_eq!(AttackClass::all().len(), 14);
        assert!(AttackClass::SubqueryUnion.is_sqli());
        assert!(AttackClass::SubqueryUnion.is_semantic_mismatch());
        assert!(AttackClass::AggregateMimicry.is_semantic_mismatch());
        assert!(AttackClass::JoinPiggyback.is_sqli());
        assert!(!AttackClass::JoinPiggyback.is_semantic_mismatch());
    }

    #[test]
    fn display_names() {
        assert_eq!(
            AttackClass::HomoglyphFirstOrder.to_string(),
            "homoglyph first-order SQLI"
        );
        assert_eq!(AttackClass::Osci.to_string(), "OSCI");
    }
}
