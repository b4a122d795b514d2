//! Single-pass page-feature extraction over the zero-copy token stream.
//!
//! The feature extractor in `freephish-core` needs a dozen counts and flags
//! per page (links and their partition, forms, credential inputs, the
//! title, the noindex meta, the obfuscated-banner signal...). The query API
//! in [`crate::query`] computes each with its own pass over a built DOM —
//! a dozen arena scans plus one `Vec` per call. [`PageFacts::extract`]
//! computes *all* of them in one streaming pass over borrowed span tokens,
//! building no tree and allocating only for the title text and the handful
//! of tokens whose bytes fold.
//!
//! Equivalence contract: every field matches the corresponding
//! [`crate::dom::Document`] query bit for bit (property-tested against the
//! DOM path on arbitrary, including malformed, HTML).

use crate::dom::VOID;
use crate::query::{freephish_urlparse_lite_host, SENSITIVE_NAMES};
use crate::span::{tokenize_spans, SpanAttr, SpanToken};
use std::borrow::Cow;

/// Everything the FreePhish feature extractor needs from a page, computed
/// in one traversal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PageFacts {
    /// `<a href=...>` count ([`Document::links`](crate::dom::Document) length).
    pub n_links: usize,
    /// Links staying inside `own_registrable_domain` (incl. relative).
    pub n_internal_links: usize,
    /// Links leaving `own_registrable_domain`.
    pub n_external_links: usize,
    /// Dead navigation: `href=""`, `"#"`, `javascript:void...`.
    pub n_empty_links: usize,
    /// Any `<input type="password">` present.
    pub has_login_form: bool,
    /// Inputs collecting sensitive data (password/email/tel types, plus
    /// text inputs with credential vocabulary in name/placeholder/id).
    pub n_credential_inputs: usize,
    /// Total DOM node count (elements + text runs + comments).
    pub dom_nodes: usize,
    /// `<form>` element count.
    pub n_forms: usize,
    /// `<iframe>` element count.
    pub n_iframes: usize,
    /// First `<title>` text, whitespace-normalised; `None` when absent or
    /// empty.
    pub title: Option<String>,
    /// `<meta name="robots|googlebot" content="...noindex...">` present.
    pub has_noindex: bool,
    /// A `class*="banner"` element hidden by inline style.
    pub banner_obfuscated: bool,
}

/// First attribute value by (lower-case) name, like `ElementRef::attr`.
fn attr<'b, 'a>(attrs: &'b [SpanAttr<'a>], name: &str) -> Option<&'b str> {
    attrs
        .iter()
        .find(|a| a.name == name)
        .map(|a| a.value.as_ref())
}

/// Mirror of `ElementRef::is_hidden_by_style`: lower-case the style, strip
/// all whitespace, look for the two hiding declarations.
fn hidden_by_style(style: &str) -> bool {
    let s: String = style
        .chars()
        .filter(|c| !c.is_whitespace())
        .map(|c| c.to_ascii_lowercase())
        .collect();
    s.contains("display:none") || s.contains("visibility:hidden")
}

/// Lower-case `s` into the reusable buffer `buf` and return it as a slice.
fn lower_into<'b>(buf: &'b mut String, s: &str) -> &'b str {
    buf.clear();
    buf.extend(s.chars().map(|c| c.to_ascii_lowercase()));
    buf.as_str()
}

impl PageFacts {
    /// Extract all facts from `html` in a single pass.
    /// `own_registrable_domain` drives the internal/external link
    /// partition, exactly as `Document::link_partition` does.
    pub fn extract(html: &str, own_registrable_domain: &str) -> PageFacts {
        let mut facts = PageFacts::default();
        // Open-element stack mirroring `Document::from_tokens`: void and
        // self-closing elements are never pushed; close tags unwind to the
        // matching open ancestor or are ignored.
        let mut stack: Vec<Cow<'_, str>> = Vec::new();
        // Title capture: `Some(depth)` while inside the first <title>'s
        // subtree, where `depth` is the stack length just after pushing it.
        let mut title_depth: Option<usize> = None;
        let mut title_done = false;
        let mut title_buf = String::new();
        let mut scratch = String::new();

        for tok in tokenize_spans(html) {
            match tok {
                SpanToken::Open {
                    tag,
                    attrs,
                    self_closing,
                } => {
                    facts.dom_nodes += 1;
                    match tag.as_ref() {
                        "a" => {
                            if let Some(href) = attr(&attrs, "href") {
                                facts.n_links += 1;
                                Self::partition_link(&mut facts, href, own_registrable_domain);
                            }
                        }
                        "form" => facts.n_forms += 1,
                        "iframe" => facts.n_iframes += 1,
                        "input" => Self::inspect_input(&mut facts, &attrs, &mut scratch),
                        "meta" if !facts.has_noindex => {
                            let name_ok = attr(&attrs, "name")
                                .map(|n| {
                                    let n = lower_into(&mut scratch, n);
                                    n == "robots" || n == "googlebot"
                                })
                                .unwrap_or(false);
                            let content_noindex = name_ok
                                && attr(&attrs, "content")
                                    .map(|c| lower_into(&mut scratch, c).contains("noindex"))
                                    .unwrap_or(false);
                            facts.has_noindex = name_ok && content_noindex;
                        }
                        _ => {}
                    }
                    if !facts.banner_obfuscated
                        && attr(&attrs, "class")
                            .map(|c| c.contains("banner"))
                            .unwrap_or(false)
                        && attr(&attrs, "style").map(hidden_by_style).unwrap_or(false)
                    {
                        facts.banner_obfuscated = true;
                    }

                    let pushes = !self_closing && !VOID.contains(&tag.as_ref());
                    if tag.as_ref() == "title" && !title_done && title_depth.is_none() {
                        if pushes {
                            stack.push(tag);
                            title_depth = Some(stack.len());
                        } else {
                            // Self-closing <title/>: empty subtree.
                            title_done = true;
                        }
                    } else if pushes {
                        stack.push(tag);
                    }
                }
                SpanToken::Close { tag } => {
                    if let Some(pos) = stack.iter().rposition(|t| *t == tag) {
                        stack.truncate(pos);
                        if let Some(depth) = title_depth {
                            if stack.len() < depth {
                                // Left the title subtree: finalize.
                                title_depth = None;
                                title_done = true;
                            }
                        }
                    }
                }
                SpanToken::Text(t) => {
                    facts.dom_nodes += 1;
                    if let Some(depth) = title_depth {
                        // Script/style text inside the title subtree is not
                        // user-visible (mirrors Document::text_of).
                        let raw = stack[depth..].iter().any(|t| t == "script" || t == "style");
                        if !raw {
                            if !title_buf.is_empty() && !title_buf.ends_with(' ') {
                                title_buf.push(' ');
                            }
                            title_buf.push_str(t.trim());
                        }
                    }
                }
                SpanToken::Comment(_) => facts.dom_nodes += 1,
            }
        }

        let trimmed = title_buf.trim();
        if !trimmed.is_empty() {
            facts.title = Some(trimmed.to_string());
        }
        facts
    }

    /// Mirror of `Document::link_partition` + `Document::empty_links`,
    /// applied to one href.
    fn partition_link(facts: &mut PageFacts, href: &str, own: &str) {
        if href.is_empty()
            || href == "#"
            || href.starts_with("javascript:void")
            || href.starts_with("javascript:;")
        {
            facts.n_empty_links += 1;
        }
        if href.starts_with("http://") || href.starts_with("https://") {
            match freephish_urlparse_lite_host(href) {
                Some(h) if h == own || h.ends_with(&format!(".{own}")) => {
                    facts.n_internal_links += 1
                }
                _ => facts.n_external_links += 1,
            }
        } else if href.starts_with('#') || href.is_empty() || href == "javascript:void(0)" {
            // Fragment/empty links: neither internal nor external.
        } else {
            facts.n_internal_links += 1; // relative link
        }
    }

    /// Mirror of `Document::credential_inputs` (membership test) and
    /// `Document::has_login_form`, applied to one `<input>`.
    fn inspect_input(facts: &mut PageFacts, attrs: &[SpanAttr<'_>], scratch: &mut String) {
        let ty_raw = attr(attrs, "type");
        if ty_raw
            .map(|t| t.eq_ignore_ascii_case("password"))
            .unwrap_or(false)
        {
            facts.has_login_form = true;
        }
        let ty = lower_into(scratch, ty_raw.unwrap_or("text")).to_string();
        if matches!(ty.as_str(), "password" | "email" | "tel") {
            facts.n_credential_inputs += 1;
            return;
        }
        if ty != "text" && !ty.is_empty() {
            return;
        }
        // A sensitive word never contains a space, so checking each
        // attribute separately equals checking the space-joined haystack.
        let sensitive = ["name", "placeholder", "id"].iter().any(|a| {
            attr(attrs, a)
                .map(|v| {
                    let v = lower_into(scratch, v);
                    SENSITIVE_NAMES.iter().any(|s| v.contains(s))
                })
                .unwrap_or(false)
        });
        if sensitive {
            facts.n_credential_inputs += 1;
        }
    }

    /// The facts a [`crate::dom::Document`] yields through the query API —
    /// the multi-walk reference the single-pass extractor is tested
    /// against.
    pub fn from_document(doc: &crate::dom::Document, own_registrable_domain: &str) -> PageFacts {
        let (internal, external) = doc.link_partition(own_registrable_domain);
        PageFacts {
            n_links: doc.links().len(),
            n_internal_links: internal,
            n_external_links: external,
            n_empty_links: doc.empty_links(),
            has_login_form: doc.has_login_form(),
            n_credential_inputs: doc.credential_inputs().len(),
            dom_nodes: doc.len(),
            n_forms: doc.forms().len(),
            n_iframes: doc.iframes().len(),
            title: doc.title(),
            has_noindex: doc.has_noindex_meta(),
            banner_obfuscated: doc.has_obfuscated_banner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Document;

    fn check(html: &str, own: &str) {
        let fast = PageFacts::extract(html, own);
        let slow = PageFacts::from_document(&Document::parse(html), own);
        assert_eq!(fast, slow, "html={html:?}");
    }

    #[test]
    fn matches_dom_on_representative_page() {
        check(
            r##"<html><head><title> My Bank </title>
               <meta name="ROBOTS" content="NOINDEX, nofollow"></head>
               <body><a href="https://evil.weebly.com/next">n</a>
               <a href="/local">l</a>
               <a href="https://other.com/x">x</a>
               <a href="#">dead</a>
               <form><input type="text" name="user"><input TYPE="PASSWORD"></form>
               <div class="wsite-banner" style="visibility: Hidden">b</div>
               <iframe src="x"></iframe>
               <script>var hidden = 1;</script>
               </body></html>"##,
            "weebly.com",
        );
    }

    #[test]
    fn matches_dom_on_malformed_pages() {
        for html in [
            "",
            "plain text only",
            "<div><p>a</div>b",
            "</div><p>x</p>",
            "<title>a<title>b</title>c</title>d",
            "<title/><title>second</title>",
            "<title><script>skip</script>keep</title>",
            "<a href=>empty</a><a href=\"#frag\">f</a>",
            "<input><input type=text placeholder='Card number'>",
            "<script>never closed",
            "<p>  \n\t </p>",
            "<title>  </title>",
        ] {
            check(html, "weebly.com");
        }
    }

    #[test]
    fn title_mirrors_first_element_only() {
        let f = PageFacts::extract("<title>first</title><title>second</title>", "x.com");
        assert_eq!(f.title.as_deref(), Some("first"));
    }

    #[test]
    fn unclosed_title_autocloses_at_eof() {
        check("<title>never closed", "x.com");
        let f = PageFacts::extract("<title>never closed", "x.com");
        assert_eq!(f.title.as_deref(), Some("never closed"));
    }
}
