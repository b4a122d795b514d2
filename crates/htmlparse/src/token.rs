//! Tolerant HTML tokenizer.
//!
//! Produces a flat token stream: open tags (with parsed attributes), close
//! tags, text runs, and comments. Raw-text elements (`script`, `style`)
//! swallow everything up to their matching close tag. Malformed input never
//! panics — the tokenizer treats stray `<` as text when no tag can start.

use std::borrow::Cow;
use std::fmt;

/// One attribute on an open tag. Names are lower-cased; values are unquoted
/// and entity-decoded for the small entity set that matters here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr {
    /// Attribute name, lower-cased.
    pub name: String,
    /// Attribute value; empty for valueless attributes (`<input disabled>`).
    pub value: String,
}

/// One token of the HTML stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// `<tag attr=...>`; `self_closing` records an explicit `/>`.
    Open {
        /// Tag name, lower-cased.
        tag: String,
        /// Attributes in document order.
        attrs: Vec<Attr>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
    },
    /// `</tag>`.
    Close {
        /// Tag name, lower-cased.
        tag: String,
    },
    /// A run of character data (entity-decoded).
    Text(String),
    /// `<!-- ... -->` contents (without the delimiters).
    Comment(String),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Open {
                tag,
                attrs,
                self_closing,
            } => {
                write!(f, "<{tag}")?;
                for a in attrs {
                    if a.value.is_empty() {
                        write!(f, " {}", a.name)?;
                    } else {
                        write!(f, " {}=\"{}\"", a.name, a.value)?;
                    }
                }
                if *self_closing {
                    write!(f, "/")?;
                }
                write!(f, ">")
            }
            Token::Close { tag } => write!(f, "</{tag}>"),
            Token::Text(t) => f.write_str(t),
            Token::Comment(c) => write!(f, "<!--{c}-->"),
        }
    }
}

/// Tokenize an HTML string. Never panics.
///
/// This is a thin adapter over the zero-copy tokenizer in [`crate::span`]:
/// it materialises each borrowed span token into an owned [`Token`], so
/// existing callers see exactly the pre-rewrite stream (property-tested
/// against [`crate::legacy::tokenize`]).
pub fn tokenize(html: &str) -> Vec<Token> {
    crate::span::tokenize_spans(html).map(Token::from).collect()
}

impl From<crate::span::SpanToken<'_>> for Token {
    fn from(t: crate::span::SpanToken<'_>) -> Token {
        use crate::span::SpanToken;
        match t {
            SpanToken::Open {
                tag,
                attrs,
                self_closing,
            } => Token::Open {
                tag: tag.into_owned(),
                attrs: attrs
                    .iter()
                    .map(|a| Attr {
                        name: a.name.into_owned(),
                        value: a.value.into_owned(),
                    })
                    .collect(),
                self_closing,
            },
            SpanToken::Close { tag } => Token::Close {
                tag: tag.into_owned(),
            },
            SpanToken::Text(t) => Token::Text(t.into_owned()),
            SpanToken::Comment(c) => Token::Comment(c.to_string()),
        }
    }
}

/// Decode the entity subset that matters for feature extraction.
///
/// Borrows the input untouched when it contains no `&` (the overwhelmingly
/// common case for markup text runs), and only allocates when a recognised
/// entity actually changes bytes.
pub fn decode_entities(s: &str) -> Cow<'_, str> {
    if crate::span::find_byte(s.as_bytes(), 0, b'&').is_none() {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let replaced = [
            ("&amp;", "&"),
            ("&lt;", "<"),
            ("&gt;", ">"),
            ("&quot;", "\""),
            ("&#39;", "'"),
            ("&apos;", "'"),
            ("&nbsp;", " "),
        ]
        .iter()
        .find(|(ent, _)| rest.starts_with(ent));
        match replaced {
            Some((ent, rep)) => {
                out.push_str(rep);
                rest = &rest[ent.len()..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(tok: &Token) -> (&str, &[Attr]) {
        match tok {
            Token::Open { tag, attrs, .. } => (tag.as_str(), attrs.as_slice()),
            other => panic!("expected open tag, got {other:?}"),
        }
    }

    #[test]
    fn simple_tags_and_text() {
        let toks = tokenize("<p>hello</p>");
        assert_eq!(
            toks,
            vec![
                Token::Open {
                    tag: "p".into(),
                    attrs: vec![],
                    self_closing: false
                },
                Token::Text("hello".into()),
                Token::Close { tag: "p".into() },
            ]
        );
    }

    #[test]
    fn attributes_quoted_unquoted_valueless() {
        let toks = tokenize(r#"<input type="text" name='user' required maxlength=10>"#);
        let (tag, attrs) = open(&toks[0]);
        assert_eq!(tag, "input");
        assert_eq!(
            attrs,
            &[
                Attr {
                    name: "type".into(),
                    value: "text".into()
                },
                Attr {
                    name: "name".into(),
                    value: "user".into()
                },
                Attr {
                    name: "required".into(),
                    value: "".into()
                },
                Attr {
                    name: "maxlength".into(),
                    value: "10".into()
                },
            ]
        );
    }

    #[test]
    fn self_closing_and_case_folding() {
        let toks = tokenize("<BR/><IMG SRC='x.png'/>");
        assert!(matches!(
            &toks[0],
            Token::Open { tag, self_closing: true, .. } if tag == "br"
        ));
        let (tag, attrs) = open(&toks[1]);
        assert_eq!(tag, "img");
        assert_eq!(attrs[0].name, "src");
    }

    #[test]
    fn comments() {
        let toks = tokenize("a<!-- secret -->b");
        assert_eq!(
            toks,
            vec![
                Token::Text("a".into()),
                Token::Comment(" secret ".into()),
                Token::Text("b".into()),
            ]
        );
    }

    #[test]
    fn unterminated_comment() {
        let toks = tokenize("<!-- never ends");
        assert_eq!(toks, vec![Token::Comment(" never ends".into())]);
    }

    #[test]
    fn doctype_skipped() {
        let toks = tokenize("<!DOCTYPE html><p>x</p>");
        assert!(matches!(&toks[0], Token::Open { tag, .. } if tag == "p"));
    }

    #[test]
    fn script_is_raw_text() {
        let toks = tokenize(r#"<script>if (a < b) { x("<p>"); }</script>"#);
        assert_eq!(toks.len(), 3);
        assert!(matches!(&toks[1], Token::Text(t) if t.contains("a < b")));
        assert!(matches!(&toks[2], Token::Close { tag } if tag == "script"));
    }

    #[test]
    fn unclosed_script_swallows_rest() {
        let toks = tokenize("<script>var x = 1;");
        assert!(matches!(&toks[1], Token::Text(t) if t.contains("var x")));
    }

    #[test]
    fn stray_lt_is_text() {
        let toks = tokenize("a < b and c < d");
        assert_eq!(toks, vec![Token::Text("a < b and c < d".into())]);
    }

    #[test]
    fn entity_decoding() {
        assert_eq!(
            decode_entities("a &amp;&lt;&gt;&quot;&#39; b"),
            "a &<>\"' b"
        );
        assert_eq!(decode_entities("AT&T"), "AT&T");
        assert_eq!(decode_entities("x&nbsp;y"), "x y");
    }

    #[test]
    fn whitespace_only_text_dropped() {
        let toks = tokenize("<p>  \n\t </p>");
        assert_eq!(toks.len(), 2);
    }

    #[test]
    fn close_tag_with_spaces() {
        let toks = tokenize("<div>x</div >");
        assert!(matches!(toks.last().unwrap(), Token::Close { tag } if tag == "div"));
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn display_round_trip_for_open_tag() {
        let toks = tokenize(r#"<a href="http://x.com/">"#);
        assert_eq!(toks[0].to_string(), r#"<a href="http://x.com/">"#);
    }
}
