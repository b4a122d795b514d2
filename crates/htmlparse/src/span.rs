//! Zero-copy HTML tokenizer: spans borrowed from the source document.
//!
//! This is the hot-path twin of the owned tokenizer in [`crate::token`].
//! Tokens reference the source string wherever possible: tag names borrow
//! when already lower-case, text borrows when entity decoding would not
//! change a byte, and comments always borrow. An open tag's attributes are
//! not parsed up front: [`SpanAttrs`] is a view of their raw source, and
//! only [`SpanAttrs::get`] and [`SpanAttrs::iter`] fold names and decode
//! values. The owned [`crate::token::tokenize`] API is a thin adapter over
//! this iterator, so both produce exactly the same stream (property-tested
//! against the retained [`crate::legacy`] implementation).
//!
//! Raw-text elements (`script`, `style`) are matched with an in-place
//! case-insensitive scan instead of lower-casing the remaining document,
//! which turns the legacy tokenizer's accidental O(n²) on script-heavy
//! pages into a single pass.

use crate::token::decode_entities;
use std::borrow::Cow;
use std::fmt;

/// One attribute on an open tag: name lower-cased, value entity-decoded.
/// Both borrow from the source unless folding/decoding changed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAttr<'a> {
    /// Attribute name, lower-cased.
    pub name: Cow<'a, str>,
    /// Attribute value; empty for valueless attributes.
    pub value: Cow<'a, str>,
}

/// The attributes of one open tag, as a view of their raw source: from
/// just after the tag name to just before the tag's end. Nothing is folded
/// or decoded until asked for, and then only what is asked for.
#[derive(Clone, Copy)]
pub struct SpanAttrs<'a> {
    src: &'a str,
}

impl<'a> SpanAttrs<'a> {
    /// The value of the first attribute whose name equals `name` ignoring
    /// ASCII case, entity-decoded. `name` is expected in lower case, as
    /// [`SpanAttrs::iter`] yields names.
    pub fn get(&self, name: &str) -> Option<Cow<'a, str>> {
        let (mut i, mut self_closing) = (0, false);
        while let Some((n, v)) = next_raw_attr(self.src, &mut i, &mut self_closing) {
            if n.eq_ignore_ascii_case(name) {
                return Some(decode_entities(v));
            }
        }
        None
    }

    /// The raw attribute source, undecoded: from just after the tag name
    /// to just before the tag's end.
    pub(crate) fn source(&self) -> &'a str {
        self.src
    }

    /// Every attribute in document order, names lower-cased and values
    /// entity-decoded.
    pub fn iter(&self) -> SpanAttrIter<'a> {
        SpanAttrIter {
            src: self.src,
            i: 0,
        }
    }
}

impl PartialEq for SpanAttrs<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for SpanAttrs<'_> {}

impl fmt::Debug for SpanAttrs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a tag's [`SpanAttr`]s; see [`SpanAttrs::iter`].
#[derive(Debug, Clone)]
pub struct SpanAttrIter<'a> {
    src: &'a str,
    i: usize,
}

impl<'a> Iterator for SpanAttrIter<'a> {
    type Item = SpanAttr<'a>;

    fn next(&mut self) -> Option<SpanAttr<'a>> {
        let (name, value) = next_raw_attr(self.src, &mut self.i, &mut false)?;
        Some(SpanAttr {
            name: lower_cow(name),
            value: decode_entities(value),
        })
    }
}

/// The attribute grammar's one walker. From `src[*i..]` it skips
/// whitespace and `/` (setting `self_closing`), and returns the raw name
/// and raw value of the next attribute with a non-empty name, or `None` at
/// the tag's end: `>`, a `<` that re-synchronises a broken tag, or the end
/// of `src`. A value is quoted (up to the matching quote, or EOF),
/// unquoted (up to whitespace or `>`), or absent (empty).
///
/// Tokenizing walks the document from the tag name to find the tag's end;
/// [`SpanAttrs`] walks the slice that walk covered, which holds no
/// top-level `>` or `<`, so both walks see the same attributes.
fn next_raw_attr<'a>(
    src: &'a str,
    i: &mut usize,
    self_closing: &mut bool,
) -> Option<(&'a str, &'a str)> {
    let b = src.as_bytes();
    let skip_ws = |i: &mut usize| {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    loop {
        skip_ws(i);
        match *b.get(*i)? {
            b'>' | b'<' => return None,
            b'/' => {
                *self_closing = true;
                *i += 1;
            }
            _ => {
                let name_start = *i;
                while *i < b.len()
                    && !b[*i].is_ascii_whitespace()
                    && !matches!(b[*i], b'=' | b'>' | b'/')
                {
                    *i += 1;
                }
                let name = &src[name_start..*i];
                skip_ws(i);
                let mut value = "";
                if b.get(*i) == Some(&b'=') {
                    *i += 1;
                    skip_ws(i);
                    if let Some(&quote @ (b'"' | b'\'')) = b.get(*i) {
                        *i += 1;
                        let v_start = *i;
                        *i = find_byte(b, v_start, quote).unwrap_or(b.len());
                        value = &src[v_start..*i];
                        if *i < b.len() {
                            *i += 1; // past closing quote
                        }
                    } else {
                        let v_start = *i;
                        while *i < b.len() && !b[*i].is_ascii_whitespace() && b[*i] != b'>' {
                            *i += 1;
                        }
                        value = &src[v_start..*i];
                    }
                }
                if !name.is_empty() {
                    return Some((name, value));
                }
            }
        }
    }
}

/// One borrowed token of the HTML stream. Mirrors [`crate::token::Token`]
/// field for field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanToken<'a> {
    /// `<tag attr=...>`.
    Open {
        /// Tag name, lower-cased.
        tag: Cow<'a, str>,
        /// Attributes in document order, parsed on demand.
        attrs: SpanAttrs<'a>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
    },
    /// `</tag>`.
    Close {
        /// Tag name, lower-cased.
        tag: Cow<'a, str>,
    },
    /// A run of character data (entity-decoded; raw inside script/style).
    Text(Cow<'a, str>),
    /// `<!-- ... -->` contents, always borrowed.
    Comment(&'a str),
}

/// Lower-case `s`, borrowing when it already is.
pub(crate) fn lower_cow(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// First case-insensitive occurrence of `needle_lower` (must be ASCII
/// lower-case) in `hay`, as a byte offset. Scans in place — no allocation.
pub(crate) fn find_ci(hay: &str, needle_lower: &str) -> Option<usize> {
    let h = hay.as_bytes();
    let n = needle_lower.as_bytes();
    if n.is_empty() {
        return Some(0);
    }
    if h.len() < n.len() {
        return None;
    }
    let first = n[0];
    let rest_matches = |k: usize| {
        h[k + 1..k + n.len()]
            .iter()
            .zip(&n[1..])
            .all(|(a, b)| a.to_ascii_lowercase() == *b)
    };
    if !first.is_ascii_alphabetic() {
        // A caseless first byte (the `<` of a close tag) is compared as is.
        let mut from = 0;
        while let Some(k) = find_byte(h, from, first) {
            if k + n.len() > h.len() {
                return None;
            }
            if rest_matches(k) {
                return Some(k);
            }
            from = k + 1;
        }
        return None;
    }
    (0..=h.len() - n.len()).find(|&k| h[k].to_ascii_lowercase() == first && rest_matches(k))
}

/// Index of the first `needle` in `b[from..]`, eight bytes a step. The
/// runs scanned here (attribute values, text between tags) are short,
/// where `memchr`'s set-up costs more than it saves. The zero-byte mask
/// is exact per byte (no borrow crosses lanes), so its lowest set bit is
/// the first match.
pub(crate) fn find_byte(b: &[u8], from: usize, needle: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let splat = u64::from(needle) * LO;
    let mut words = b[from..].chunks_exact(8);
    for (k, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")) ^ splat;
        let zero = HI & !(x | ((x | HI).wrapping_sub(LO)));
        if zero != 0 {
            return Some(from + 8 * k + zero.trailing_zeros() as usize / 8);
        }
    }
    let rest = words.remainder();
    let rest_start = b.len() - rest.len();
    rest.iter()
        .position(|&c| c == needle)
        .map(|k| rest_start + k)
}

/// Tokenize into borrowed span tokens. Never panics.
pub fn tokenize_spans(html: &str) -> SpanTokenizer<'_> {
    SpanTokenizer {
        html,
        i: 0,
        text_start: 0,
        pending: [None, None, None],
        pending_next: 0,
        pending_len: 0,
    }
}

/// Streaming tokenizer over a source document. Yields [`SpanToken`]s in
/// exactly the order (and with exactly the content) of the owned API.
#[derive(Debug, Clone)]
pub struct SpanTokenizer<'a> {
    html: &'a str,
    i: usize,
    text_start: usize,
    /// Tokens produced by one construct ahead of the caller, at most three
    /// (a raw-text element yields Open + Text + Close in one step): slots
    /// `pending_next..pending_len` are still to be taken. Refilled only
    /// once drained.
    pending: [Option<SpanToken<'a>>; 3],
    pending_next: usize,
    pending_len: usize,
}

impl<'a> SpanTokenizer<'a> {
    fn take_pending(&mut self) -> Option<SpanToken<'a>> {
        if self.pending_next >= self.pending_len {
            return None;
        }
        self.pending_next += 1;
        self.pending[self.pending_next - 1].take()
    }

    /// Parse the construct at `self.i` (which points at a construct-starting
    /// `<`), advancing `i` and `text_start`. Returns its first token, if
    /// any (a doctype, PI or nameless close tag has none); a raw-text
    /// element's Text and Close go to `pending[1..pending_len]`.
    fn parse_construct(&mut self) -> Option<SpanToken<'a>> {
        let html = self.html;
        let b = html.as_bytes();
        let i = self.i;
        let mut first = None;
        self.pending_len = 1;

        if html[i..].starts_with("<!--") {
            // Comment.
            let body_start = i + 4;
            let end = html[body_start..].find("-->").map(|end| body_start + end);
            first = Some(SpanToken::Comment(
                &html[body_start..end.unwrap_or(b.len())],
            ));
            self.i = end.map_or(b.len(), |end| end + 3);
        } else if matches!(b.get(i + 1), Some(b'!') | Some(b'?')) {
            // Doctype / processing instruction: skip to '>'.
            self.i = find_byte(b, i, b'>').map_or(b.len(), |end| end + 1);
        } else if b.get(i + 1) == Some(&b'/') {
            // Close tag: the name is the alphanumeric-or-'-' run after
            // leading whitespace.
            let name_start = i + 2;
            match find_byte(b, name_start, b'>') {
                Some(e) => {
                    let inner = html[name_start..e].trim_start();
                    let name_len = inner
                        .bytes()
                        .position(|c| !(c.is_ascii_alphanumeric() || c == b'-'))
                        .unwrap_or(inner.len());
                    if name_len > 0 {
                        first = Some(SpanToken::Close {
                            tag: lower_cow(&inner[..name_len]),
                        });
                    }
                    self.i = e + 1;
                }
                None => self.i = b.len(),
            }
        } else {
            let (tag, attrs, self_closing, next) = parse_open_tag_spans(html, i);
            let raw_close = match tag.as_ref() {
                _ if self_closing => None,
                "script" => Some("</script"),
                "style" => Some("</style"),
                _ => None,
            };
            let raw_tag = raw_close.map(|close| (close, tag.clone()));
            first = Some(SpanToken::Open {
                tag,
                attrs,
                self_closing,
            });
            self.i = next;
            if let Some((close, tag)) = raw_tag {
                // Swallow raw text until the matching close tag,
                // case-insensitively, without lower-casing the whole suffix.
                let i = self.i;
                let offset = find_ci(&html[i..], close);
                let text_end = offset.map_or(b.len(), |offset| i + offset);
                if text_end > i {
                    self.pending[self.pending_len] =
                        Some(SpanToken::Text(Cow::Borrowed(&html[i..text_end])));
                    self.pending_len += 1;
                }
                if offset.is_some() {
                    self.pending[self.pending_len] = Some(SpanToken::Close { tag });
                    self.pending_len += 1;
                    self.i = find_byte(b, text_end, b'>').map_or(b.len(), |g| g + 1);
                } else {
                    self.i = b.len();
                }
            }
        }
        self.text_start = self.i;
        first
    }
}

impl<'a> Iterator for SpanTokenizer<'a> {
    type Item = SpanToken<'a>;

    fn next(&mut self) -> Option<SpanToken<'a>> {
        if let Some(t) = self.take_pending() {
            return Some(t);
        }
        let b = self.html.as_bytes();
        while let Some(lt) = find_byte(b, self.i, b'<') {
            self.i = lt;
            // A '<' only starts a construct when followed by '!', '?', '/',
            // or a letter; otherwise it is literal text.
            let starts_construct =
                matches!(b.get(self.i + 1), Some(b'!') | Some(b'?') | Some(b'/'))
                    || b.get(self.i + 1)
                        .map(|c| c.is_ascii_alphabetic())
                        .unwrap_or(false);
            if !starts_construct {
                self.i += 1;
                continue;
            }
            let text = (self.i > self.text_start).then(|| &self.html[self.text_start..self.i]);
            let first = self.parse_construct();
            if let Some(raw) = text {
                if !raw.chars().all(char::is_whitespace) {
                    // The construct's tokens wait behind the text.
                    self.pending[0] = first;
                    self.pending_next = 0;
                    return Some(SpanToken::Text(decode_entities(raw)));
                }
            }
            self.pending_next = 1;
            if first.is_some() {
                return first;
            }
            // Construct produced no token (doctype, PI, empty close name):
            // keep scanning.
        }
        self.i = b.len();
        if self.text_start < b.len() {
            let raw = &self.html[self.text_start..];
            self.text_start = b.len();
            if !raw.chars().all(char::is_whitespace) {
                return Some(SpanToken::Text(decode_entities(raw)));
            }
        }
        None
    }
}

/// Parse an open tag starting at `html[start] == '<'`. Returns
/// (tag, attrs, self_closing, index-after-`>`). EOF-recovering, exactly
/// like the owned parser.
fn parse_open_tag_spans(html: &str, start: usize) -> (Cow<'_, str>, SpanAttrs<'_>, bool, usize) {
    let b = html.as_bytes();
    let mut i = start + 1;
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'-') {
        i += 1;
    }
    let tag = lower_cow(&html[start + 1..i]);

    let attrs_start = i;
    let mut self_closing = false;
    while next_raw_attr(html, &mut i, &mut self_closing).is_some() {}
    let attrs = SpanAttrs {
        src: &html[attrs_start..i],
    };
    // The walk stopped at `>` (consumed), at a re-synchronising `<` or at
    // EOF (both left for the caller).
    let next = if b.get(i) == Some(&b'>') { i + 1 } else { i };
    (tag, attrs, self_closing, next)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(html: &str) -> Vec<SpanToken<'_>> {
        tokenize_spans(html).collect()
    }

    #[test]
    fn borrows_when_already_clean() {
        let toks = collect(r#"<p class="x">hello</p>"#);
        match &toks[0] {
            SpanToken::Open { tag, attrs, .. } => {
                assert!(matches!(tag, Cow::Borrowed(_)));
                let first = attrs.iter().next().unwrap();
                assert!(matches!(first.name, Cow::Borrowed(_)));
                assert!(matches!(first.value, Cow::Borrowed(_)));
            }
            other => panic!("expected open, got {other:?}"),
        }
        assert!(matches!(&toks[1], SpanToken::Text(Cow::Borrowed("hello"))));
    }

    #[test]
    fn allocates_only_when_folding_changes_bytes() {
        let toks = collect("<DIV>a &amp; b</DIV>");
        match &toks[0] {
            SpanToken::Open { tag, .. } => assert!(matches!(tag, Cow::Owned(_))),
            other => panic!("{other:?}"),
        }
        assert!(matches!(&toks[1], SpanToken::Text(Cow::Owned(t)) if t == "a & b"));
    }

    #[test]
    fn raw_text_borrows_without_decoding() {
        let toks = collect("<script>a &amp; b</script>");
        assert!(matches!(
            &toks[1],
            SpanToken::Text(Cow::Borrowed("a &amp; b"))
        ));
    }

    #[test]
    fn raw_close_found_case_insensitively() {
        let toks = collect("<script>x</SCRIPT>after");
        assert!(matches!(&toks[2], SpanToken::Close { tag } if tag == "script"));
        assert!(matches!(&toks[3], SpanToken::Text(t) if t == "after"));
    }

    #[test]
    fn comments_always_borrow() {
        let toks = collect("<!-- C -->");
        assert!(matches!(&toks[0], SpanToken::Comment(" C ")));
    }

    #[test]
    fn attributes_parse_on_demand() {
        let toks = collect(r#"<INPUT Type="PassWord" type=text Value='a &amp; b' disabled/>"#);
        let SpanToken::Open {
            attrs,
            self_closing,
            ..
        } = &toks[0]
        else {
            panic!("expected open, got {:?}", toks[0]);
        };
        assert!(self_closing);
        assert_eq!(attrs.get("type").as_deref(), Some("PassWord"));
        assert_eq!(attrs.get("value").as_deref(), Some("a & b"));
        assert_eq!(attrs.get("disabled").as_deref(), Some(""));
        assert_eq!(attrs.get("name"), None);
        let names: Vec<_> = attrs.iter().map(|a| a.name).collect();
        assert_eq!(names, ["type", "type", "value", "disabled"]);
    }

    #[test]
    fn quoted_values_hide_the_tag_end() {
        let toks = collect(r#"<a title="x > y" href=/p>link</a>"#);
        let SpanToken::Open { attrs, .. } = &toks[0] else {
            panic!("expected open, got {:?}", toks[0]);
        };
        assert_eq!(attrs.get("title").as_deref(), Some("x > y"));
        assert_eq!(attrs.get("href").as_deref(), Some("/p"));
        assert!(matches!(&toks[1], SpanToken::Text(t) if t == "link"));
    }

    #[test]
    fn find_byte_matches_a_scalar_scan() {
        let hay = b"0123456789abcdef<ghijklmnopqrstu<v";
        for from in 0..=hay.len() {
            for needle in [b'<', b'0', b'v', b'f', b'z'] {
                let scalar = hay[from..]
                    .iter()
                    .position(|&c| c == needle)
                    .map(|k| from + k);
                assert_eq!(find_byte(hay, from, needle), scalar, "from={from}");
            }
        }
        assert_eq!(find_byte(&[0x80 | b'<', b'<'], 0, b'<'), Some(1));
    }

    #[test]
    fn find_ci_matches_lowercase_scan() {
        assert_eq!(find_ci("abcDEFg", "def"), Some(3));
        assert_eq!(find_ci("abc", "zz"), None);
        assert_eq!(find_ci("xx</ScRiPt>", "</script"), Some(2));
        assert_eq!(find_ci("", ""), Some(0));
    }
}
