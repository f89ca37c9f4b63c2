//! Error type shared by the data-substrate layer.

use std::fmt;

/// Errors produced while lexing, parsing, navigating, or storing terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TermError {
    /// Lexical or syntactic error, with a 1-based line/column position.
    Parse {
        /// What went wrong.
        msg: String,
        /// 1-based line of the offending token.
        line: u32,
        /// 1-based column of the offending token.
        col: u32,
    },
    /// A [`crate::Path`] does not address a node in the given document.
    PathNotFound(String),
    /// An operation that requires an element was applied to a text node.
    NotAnElement(String),
    /// The resource store has no document under this URI.
    UnknownResource(String),
    /// An edit could not be applied (index out of range, etc.).
    InvalidEdit(String),
    /// A failure beneath an engine wrapper (e.g. a durable engine's log
    /// I/O), carried as its complete message so the reason reads the
    /// same through every engine surface.
    Engine(String),
}

impl TermError {
    /// A [`TermError::Parse`] at the given position.
    pub fn parse(msg: impl Into<String>, line: u32, col: u32) -> Self {
        TermError::Parse {
            msg: msg.into(),
            line,
            col,
        }
    }
}

impl fmt::Display for TermError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermError::Parse { msg, line, col } => {
                write!(f, "parse error at {line}:{col}: {msg}")
            }
            TermError::PathNotFound(p) => write!(f, "path not found: {p}"),
            TermError::NotAnElement(what) => write!(f, "not an element: {what}"),
            TermError::UnknownResource(uri) => write!(f, "unknown resource: {uri}"),
            TermError::InvalidEdit(msg) => write!(f, "invalid edit: {msg}"),
            TermError::Engine(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for TermError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = TermError::parse("unexpected ]", 3, 14);
        assert_eq!(e.to_string(), "parse error at 3:14: unexpected ]");
        assert_eq!(
            TermError::UnknownResource("http://x".into()).to_string(),
            "unknown resource: http://x"
        );
    }
}
