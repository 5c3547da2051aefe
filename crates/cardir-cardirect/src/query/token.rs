//! Query lexer.

use std::fmt;

/// A lexical token of the query language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// Identifier: variable, tile name, attribute, colour, region name.
    Ident(String),
    /// Double-quoted string literal (for names with spaces).
    Str(String),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `|`
    Pipe,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `:`
    Colon,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Str(s) => write!(f, "{s:?}"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Pipe => write!(f, "|"),
            Token::Comma => write!(f, ","),
            Token::Eq => write!(f, "="),
            Token::Colon => write!(f, ":"),
        }
    }
}

/// Lexing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// The offending character.
    pub character: char,
    /// Byte offset.
    pub position: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unexpected character {:?} at byte {}",
            self.character, self.position
        )
    }
}

impl std::error::Error for LexError {}

/// Tokenizes a query string.
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    Ok(tokenize_spanned(input)?
        .into_iter()
        .map(|(t, _)| t)
        .collect())
}

/// Tokenizes a query string, pairing each token with the byte offset of
/// its first character. Offsets always fall on `char` boundaries of
/// `input` (they come straight from `char_indices`), so they are safe to
/// slice with — the parser uses them to point syntax errors at the
/// offending spot even in multibyte identifiers and string literals.
pub fn tokenize_spanned(input: &str) -> Result<Vec<(Token, usize)>, LexError> {
    let mut out = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(pos, c)) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '{' => {
                chars.next();
                out.push((Token::LBrace, pos));
            }
            '}' => {
                chars.next();
                out.push((Token::RBrace, pos));
            }
            '(' => {
                chars.next();
                out.push((Token::LParen, pos));
            }
            ')' => {
                chars.next();
                out.push((Token::RParen, pos));
            }
            '|' => {
                chars.next();
                out.push((Token::Pipe, pos));
            }
            ',' => {
                chars.next();
                out.push((Token::Comma, pos));
            }
            '=' => {
                chars.next();
                out.push((Token::Eq, pos));
            }
            ':' => {
                chars.next();
                out.push((Token::Colon, pos));
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some((_, '"')) => break,
                        Some((_, ch)) => s.push(ch),
                        None => {
                            return Err(LexError {
                                character: '"',
                                position: pos,
                            })
                        }
                    }
                }
                out.push((Token::Str(s), pos));
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut s = String::new();
                while let Some(&(_, ch)) = chars.peek() {
                    if ch.is_alphanumeric() || matches!(ch, '_' | '-' | '.') {
                        s.push(ch);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((Token::Ident(s), pos));
            }
            other => {
                return Err(LexError {
                    character: other,
                    position: pos,
                })
            }
        }
    }
    Ok(out)
}

/// A short excerpt of `input` starting near byte `pos`, for error
/// messages. `pos` is clamped onto `char` boundaries in both directions,
/// so the slice can never panic — even when an error position lands
/// inside a multibyte sequence or past the end of the string.
pub(crate) fn snippet_at(input: &str, pos: usize) -> &str {
    let mut start = pos.min(input.len());
    while start > 0 && !input.is_char_boundary(start) {
        start -= 1;
    }
    let mut end = (start + 24).min(input.len());
    while end < input.len() && !input.is_char_boundary(end) {
        end += 1;
    }
    &input[start..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_the_paper_query() {
        let q = "{ (a, b) | color(a) = red, a S:SW b }";
        let tokens = tokenize(q).unwrap();
        assert_eq!(tokens[0], Token::LBrace);
        assert!(tokens.contains(&Token::Pipe));
        assert!(tokens.contains(&Token::Ident("color".into())));
        assert!(tokens.contains(&Token::Colon));
        assert_eq!(tokens.last(), Some(&Token::RBrace));
    }

    #[test]
    fn string_literals() {
        let tokens = tokenize(r#"x = "South Italy""#).unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Ident("x".into()),
                Token::Eq,
                Token::Str("South Italy".into())
            ]
        );
    }

    #[test]
    fn lex_errors() {
        let err = tokenize("a # b").unwrap_err();
        assert_eq!(err.character, '#');
        assert_eq!(err.position, 2);
        assert!(tokenize(r#"x = "unterminated"#).is_err());
    }

    #[test]
    fn identifiers_allow_dots_dashes_digits() {
        let tokens = tokenize("r0.sub-part_x").unwrap();
        assert_eq!(tokens, vec![Token::Ident("r0.sub-part_x".into())]);
    }

    #[test]
    fn multibyte_identifiers_and_strings() {
        // Region names like Αττική (Greek) or 北海道 (CJK) are plain
        // alphanumerics to the tokenizer; byte offsets stay on char
        // boundaries throughout.
        let tokens = tokenize_spanned(r#"Αττική = "Šumava 北海道""#).unwrap();
        assert_eq!(tokens[0].0, Token::Ident("Αττική".into()));
        assert_eq!(tokens[0].1, 0);
        assert_eq!(tokens[1].0, Token::Eq);
        assert_eq!(tokens[2].0, Token::Str("Šumava 北海道".into()));
        // The Eq's byte offset lands after the 12-byte Greek word + space.
        assert_eq!(tokens[1].1, "Αττική ".len());
    }

    #[test]
    fn lex_error_position_after_multibyte_prefix() {
        // The offending '#' sits after multibyte text; its byte position
        // must be the char-boundary offset, and rendering must not panic.
        let input = "Αττική #";
        let err = tokenize(input).unwrap_err();
        assert_eq!(err.character, '#');
        assert_eq!(err.position, "Αττική ".len());
        assert!(input.is_char_boundary(err.position));
        let _ = err.to_string();
    }

    #[test]
    fn snippets_clamp_to_char_boundaries() {
        let input = "ΑττικήΑττικήΑττικήΑττική"; // every boundary is 2 bytes apart
        for pos in 0..=input.len() + 4 {
            // Any byte position — including mid-char and out of range —
            // yields a valid slice.
            let s = snippet_at(input, pos);
            assert!(input.contains(s) || s.is_empty());
        }
        assert_eq!(snippet_at("abc", 1), "bc");
        assert_eq!(snippet_at("abc", 99), "");
    }
}
