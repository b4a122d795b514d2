//! A from-scratch, panic-free HTML parser sized for feature extraction.
//!
//! FreePhish's pre-processing module extracts HTML-based features from every
//! crawled website: link structure, form and input fields, iframes, meta
//! tags (notably `<meta name="robots" content="noindex">`), inline styles
//! that hide FWB banners, and raw tag elements for the Appendix-A code
//! similarity computation. That workload needs a tolerant tokenizer and a
//! lightweight DOM — not a full HTML5 spec implementation — so this crate
//! provides exactly that, with the smoltcp virtues: simple, robust,
//! deterministic, documented.
//!
//! Guarantees:
//! * parsing never panics, for any input (property-tested);
//! * unclosed/misnested tags degrade gracefully (auto-close at EOF, ignore
//!   stray closers);
//! * `<script>`/`<style>` contents are treated as raw text.

pub mod dom;
pub mod facts;
pub mod legacy;
pub mod query;
pub mod span;
pub mod token;

pub use dom::{Document, Node, NodeId};
pub use facts::PageFacts;
pub use span::{tokenize_spans, SpanAttr, SpanToken};
pub use token::{decode_entities, tokenize, Attr, Token};

/// Parse an HTML document. Infallible: any byte soup yields *some* tree.
///
/// ```
/// let doc = freephish_htmlparse::parse(
///     r#"<title>Sign in</title><form><input type="password"></form>"#,
/// );
/// assert_eq!(doc.title().as_deref(), Some("Sign in"));
/// assert!(doc.has_login_form());
/// ```
pub fn parse(html: &str) -> Document {
    dom::Document::parse(html)
}

/// Cheap sniff: does this body plausibly hold markup worth feature
/// extraction? The classify-on-miss fetch path uses this to negative-cache
/// non-HTML responses (JSON blobs, plain text, empty bodies) instead of
/// running the tokenizer and model over them.
///
/// Deliberately permissive — [`parse`] is infallible, so a false positive
/// only costs one wasted classification. A leading UTF-8 BOM and
/// whitespace are skipped; the body must then open a tag (`<`) and close
/// one (`>`) somewhere after it.
pub fn looks_like_html(body: &str) -> bool {
    let rest = body.trim_start_matches('\u{feff}').trim_start();
    match rest.strip_prefix('<') {
        Some(tail) => tail.contains('>'),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_small_page() {
        let doc = parse(
            r#"<html><head><title>Hi</title></head>
               <body><p class="x">hello <b>world</b></p></body></html>"#,
        );
        assert_eq!(doc.title().as_deref(), Some("Hi"));
        assert_eq!(doc.elements_by_tag("p").len(), 1);
        assert!(doc.visible_text().contains("hello"));
        assert!(doc.visible_text().contains("world"));
    }

    #[test]
    fn looks_like_html_accepts_markup_and_rejects_blobs() {
        assert!(looks_like_html("<!doctype html><html></html>"));
        assert!(looks_like_html("  \n\t<div>x</div>"));
        assert!(looks_like_html("\u{feff}<html>"));
        assert!(!looks_like_html(""));
        assert!(!looks_like_html("   "));
        assert!(!looks_like_html("{\"error\": \"not found\"}"));
        assert!(!looks_like_html("plain text page"));
        assert!(!looks_like_html("<unterminated"));
    }
}
