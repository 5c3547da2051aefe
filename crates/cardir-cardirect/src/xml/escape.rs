//! The five predefined XML entities.

use std::borrow::Cow;

/// Escapes text content (`&`, `<`, `>`).
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape(s, false)
}

/// Escapes an attribute value (`&`, `<`, `>`, `"`, `'`, and C0 control
/// characters).
///
/// Literal `\n`/`\r`/`\t` (and every other C0 control) become numeric
/// character references: XML attribute-value normalization replaces raw
/// whitespace controls with spaces on re-parse, so emitting them bare
/// silently corrupts the value. References survive normalization, which
/// keeps attribute round-trips byte-faithful.
pub fn escape_attribute(s: &str) -> Cow<'_, str> {
    escape(s, true)
}

fn escape(s: &str, attribute: bool) -> Cow<'_, str> {
    let needs = |c: char| {
        matches!(c, '&' | '<' | '>') || (attribute && (matches!(c, '"' | '\'') || c.is_control()))
    };
    if !s.chars().any(needs) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if attribute => out.push_str("&quot;"),
            '\'' if attribute => out.push_str("&apos;"),
            c if attribute && c.is_control() => {
                use std::fmt::Write;
                let _ = write!(out, "&#{};", c as u32);
            }
            other => out.push(other),
        }
    }
    Cow::Owned(out)
}

/// Resolves the five predefined entities plus decimal/hex character
/// references. Unknown entities are left verbatim (lenient mode).
pub fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let end = match rest.find(';') {
            Some(e) => e,
            None => {
                out.push_str(rest);
                return Cow::Owned(out);
            }
        };
        let entity = &rest[1..end];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                match u32::from_str_radix(&entity[2..], 16)
                    .ok()
                    .and_then(char::from_u32)
                {
                    Some(c) => out.push(c),
                    None => out.push_str(&rest[..=end]),
                }
            }
            _ if entity.starts_with('#') => {
                match entity[1..].parse::<u32>().ok().and_then(char::from_u32) {
                    Some(c) => out.push(c),
                    None => out.push_str(&rest[..=end]),
                }
            }
            _ => out.push_str(&rest[..=end]),
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_passthrough_borrows() {
        assert!(matches!(escape_text("plain"), Cow::Borrowed(_)));
        assert!(matches!(escape_attribute("plain"), Cow::Borrowed(_)));
    }

    #[test]
    fn escape_special_characters() {
        assert_eq!(escape_text("a < b & c > d"), "a &lt; b &amp; c &gt; d");
        assert_eq!(
            escape_attribute(r#"say "hi" & 'bye'"#),
            "say &quot;hi&quot; &amp; &apos;bye&apos;"
        );
        // Text mode leaves quotes alone.
        assert_eq!(escape_text(r#""q""#), r#""q""#);
    }

    #[test]
    fn unescape_round_trips() {
        for s in ["a < b & c > d", r#"say "hi" & 'bye'"#, "plain", "tail&"] {
            assert_eq!(unescape(&escape_attribute(s)), s);
        }
    }

    #[test]
    fn attribute_controls_become_numeric_references() {
        // Raw \n/\r/\t in attribute values are normalized to spaces by
        // conforming XML parsers; they must be emitted as references.
        assert_eq!(escape_attribute("a\nb\tc\rd"), "a&#10;b&#9;c&#13;d");
        let escaped = escape_attribute("line1\nline2");
        assert!(
            !escaped.contains('\n'),
            "no raw newline may survive: {escaped:?}"
        );
        // Text content keeps literal whitespace (no normalization there).
        assert_eq!(escape_text("a\nb"), "a\nb");
    }

    /// Property test: escape↔unescape is the identity over every C0 and
    /// C1 control character (and their mixes with specials), and the
    /// escaped attribute form never contains a raw control character.
    #[test]
    fn attribute_escape_round_trips_all_control_characters() {
        let controls = (0u32..0x20)
            .chain(std::iter::once(0x7f))
            .chain(0x80..0xa0)
            .map(|v| char::from_u32(v).unwrap());
        for c in controls {
            for s in [
                format!("{c}"),
                format!("pre{c}post"),
                format!("{c}{c}"),
                format!("a<{c}>&\"{c}'z"),
            ] {
                let escaped = escape_attribute(&s);
                assert!(
                    !escaped.chars().any(|e| e.is_control()),
                    "U+{:04X}: escaped form {escaped:?} leaks a control char",
                    c as u32
                );
                assert_eq!(unescape(&escaped), s, "U+{:04X} must round-trip", c as u32);
            }
        }
    }

    #[test]
    fn unescape_character_references() {
        assert_eq!(unescape("&#65;&#x42;&#x63;"), "ABc");
        assert_eq!(unescape("&#1114112;"), "&#1114112;"); // out of range: verbatim
    }

    #[test]
    fn unescape_is_lenient_on_unknown_entities() {
        assert_eq!(unescape("&nbsp; &broken"), "&nbsp; &broken");
    }
}
