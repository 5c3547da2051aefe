//! A minimal XML pull parser.
//!
//! Covers the subset needed by the CARDIRECT DTD: the XML declaration,
//! comments, start/end/empty tags with single- or double-quoted
//! attributes, text content, and the predefined entities. Input positions
//! in errors are byte offsets.

use super::escape::unescape;
use std::fmt;

/// A parse event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// `<name attr="…">` — `self_closing` for `<name …/>`.
    Start {
        /// Element name.
        name: String,
        /// Attributes in document order, values entity-resolved.
        attributes: Vec<(String, String)>,
        /// Whether the tag was `<… />`.
        self_closing: bool,
    },
    /// `</name>`.
    End {
        /// Element name.
        name: String,
    },
    /// Non-whitespace character data (entity-resolved). Whitespace-only
    /// runs are skipped.
    Text(String),
}

/// Parse failures with byte positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// The pull parser.
pub struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Creates a parser over a document.
    pub fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            position: self.pos,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_until(&mut self, s: &str) -> Result<(), ParseError> {
        let hay = &self.input[self.pos..];
        match hay.windows(s.len()).position(|w| w == s.as_bytes()) {
            Some(i) => {
                self.pos += i + s.len();
                Ok(())
            }
            None => self.err(format!("unterminated construct (expected {s:?})")),
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn read_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'-' | b'_' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    /// Returns the next event, or `None` at end of input.
    pub fn next_event(&mut self) -> Result<Option<Event>, ParseError> {
        loop {
            if self.pos >= self.input.len() {
                return Ok(None);
            }
            if self.peek() == Some(b'<') {
                if self.starts_with("<?") {
                    self.skip_until("?>")?;
                    continue;
                }
                if self.starts_with("<!--") {
                    self.skip_until("-->")?;
                    continue;
                }
                if self.starts_with("<!") {
                    // DOCTYPE or similar: skip to the matching '>'.
                    self.skip_until(">")?;
                    continue;
                }
                if self.starts_with("</") {
                    self.pos += 2;
                    let name = self.read_name()?;
                    self.skip_whitespace();
                    if self.peek() != Some(b'>') {
                        return self.err("malformed end tag");
                    }
                    self.pos += 1;
                    return Ok(Some(Event::End { name }));
                }
                return self.read_start_tag().map(Some);
            }
            // Text run up to the next '<'.
            let start = self.pos;
            while self.pos < self.input.len() && self.peek() != Some(b'<') {
                self.pos += 1;
            }
            let raw = String::from_utf8_lossy(&self.input[start..self.pos]);
            let text = unescape(raw.as_ref()).into_owned();
            if !text.trim().is_empty() {
                return Ok(Some(Event::Text(text)));
            }
        }
    }

    fn read_start_tag(&mut self) -> Result<Event, ParseError> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        self.pos += 1;
        let name = self.read_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(Event::Start {
                        name,
                        attributes,
                        self_closing: false,
                    });
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return self.err("expected '>' after '/'");
                    }
                    self.pos += 1;
                    return Ok(Event::Start {
                        name,
                        attributes,
                        self_closing: true,
                    });
                }
                Some(_) => {
                    let attr = self.read_name()?;
                    self.skip_whitespace();
                    if self.peek() != Some(b'=') {
                        return self.err(format!("expected '=' after attribute {attr:?}"));
                    }
                    self.pos += 1;
                    self.skip_whitespace();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return self.err("expected quoted attribute value"),
                    };
                    self.pos += 1;
                    let start = self.pos;
                    while self.pos < self.input.len() && self.peek() != Some(quote) {
                        self.pos += 1;
                    }
                    if self.pos >= self.input.len() {
                        return self.err("unterminated attribute value");
                    }
                    let raw = String::from_utf8_lossy(&self.input[start..self.pos]);
                    let value = unescape(raw.as_ref()).into_owned();
                    self.pos += 1;
                    attributes.push((attr, value));
                }
                None => return self.err("unterminated start tag"),
            }
        }
    }
}

/// Convenience: parses a whole document into an event list.
pub fn parse_events(input: &str) -> Result<Vec<Event>, ParseError> {
    let mut p = Parser::new(input);
    let mut out = Vec::new();
    while let Some(e) = p.next_event()? {
        out.push(e);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(name: &str, attrs: &[(&str, &str)], self_closing: bool) -> Event {
        Event::Start {
            name: name.into(),
            attributes: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            self_closing,
        }
    }

    #[test]
    fn parses_declaration_comment_and_tags() {
        let doc = r#"<?xml version="1.0" encoding="UTF-8"?>
<!-- a comment -->
<Image name="map" file="greece.png">
  <Region id="attica" color="blue"/>
</Image>"#;
        let events = parse_events(doc).unwrap();
        assert_eq!(
            events,
            vec![
                start("Image", &[("name", "map"), ("file", "greece.png")], false),
                start("Region", &[("id", "attica"), ("color", "blue")], true),
                Event::End {
                    name: "Image".into()
                },
            ]
        );
    }

    #[test]
    fn both_quote_styles_and_entities() {
        let doc = r#"<a x='1 &amp; 2' y="&lt;tag&gt;"/>"#;
        let events = parse_events(doc).unwrap();
        assert_eq!(
            events,
            vec![start("a", &[("x", "1 & 2"), ("y", "<tag>")], true)]
        );
    }

    #[test]
    fn text_content_is_unescaped_and_whitespace_skipped() {
        let doc = "<a>\n  hello &amp; goodbye\n</a><b>  \n </b>";
        let events = parse_events(doc).unwrap();
        assert_eq!(
            events,
            vec![
                start("a", &[], false),
                Event::Text("\n  hello & goodbye\n".into()),
                Event::End { name: "a".into() },
                start("b", &[], false),
                Event::End { name: "b".into() },
            ]
        );
    }

    #[test]
    fn doctype_is_skipped() {
        let doc = r#"<!DOCTYPE Image SYSTEM "cardirect.dtd"><Image/>"#;
        let events = parse_events(doc).unwrap();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn error_positions() {
        let err = parse_events("<a x=oops/>").unwrap_err();
        assert!(err.message.contains("quoted"), "{err}");
        assert!(err.position > 0);
        assert!(parse_events("<a")
            .unwrap_err()
            .message
            .contains("unterminated"));
        assert!(parse_events("<!-- no end")
            .unwrap_err()
            .message
            .contains("unterminated"));
        assert!(parse_events("</a oops>")
            .unwrap_err()
            .message
            .contains("malformed"));
    }

    #[test]
    fn attribute_with_spaces_around_equals() {
        let events = parse_events("<a key = 'v'/>").unwrap();
        assert_eq!(events, vec![start("a", &[("key", "v")], true)]);
    }
}
