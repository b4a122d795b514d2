//! Query helpers over a parsed [`Document`]: exactly the accessors the
//! FreePhish feature extractor and the Appendix-A similarity computation
//! need.

use crate::dom::{Document, Node, NodeId};

/// Credential vocabulary looked for in text-input names/placeholders/ids
/// (shared with the single-pass extractor in [`crate::facts`]).
pub(crate) const SENSITIVE_NAMES: &[&str] = &[
    "pass", "pwd", "ssn", "card", "cvv", "account", "user", "email", "phone", "pin", "social",
    "routing", "address", "dob", "login",
];

/// A borrowed view of an element node.
#[derive(Debug, Clone, Copy)]
pub struct ElementRef<'a> {
    /// Id of this element in the document arena.
    pub id: NodeId,
    /// Tag name, lower-cased.
    pub tag: &'a str,
    /// Attributes in source order.
    pub attrs: &'a [crate::token::Attr],
}

impl<'a> ElementRef<'a> {
    /// Value of the first attribute named `name` (lower-case), if present.
    pub fn attr(&self, name: &str) -> Option<&'a str> {
        self.attrs
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }

    /// True if the element's inline `style` hides it
    /// (`display:none` / `visibility:hidden`) — the banner-obfuscation
    /// signal from Section 4.2 of the paper.
    pub fn is_hidden_by_style(&self) -> bool {
        match self.attr("style") {
            Some(style) => {
                let s: String = style.to_ascii_lowercase().split_whitespace().collect();
                s.contains("display:none") || s.contains("visibility:hidden")
            }
            None => false,
        }
    }

    /// The `class` attribute split into class names.
    pub fn classes(&self) -> Vec<&'a str> {
        self.attr("class")
            .map(|c| c.split_whitespace().collect())
            .unwrap_or_default()
    }
}

impl Document {
    /// All elements, in document order. (Arena indices are assigned in
    /// token order, which is pre-order document order, so a plain index scan
    /// suffices.)
    pub fn elements(&self) -> Vec<ElementRef<'_>> {
        let mut out = Vec::new();
        for id in self.all_ids() {
            if let Node::Element { tag, attrs, .. } = self.node(id) {
                out.push(ElementRef {
                    id,
                    tag: tag.as_str(),
                    attrs: attrs.as_slice(),
                });
            }
        }
        out
    }

    /// Elements with the given (lower-case) tag name.
    pub fn elements_by_tag(&self, tag: &str) -> Vec<ElementRef<'_>> {
        self.elements()
            .into_iter()
            .filter(|e| e.tag == tag)
            .collect()
    }

    /// The `<title>` text, if any.
    pub fn title(&self) -> Option<String> {
        let title = self.elements_by_tag("title").into_iter().next()?;
        let text = self.text_of(title.id);
        let trimmed = text.trim();
        if trimmed.is_empty() {
            None
        } else {
            Some(trimmed.to_string())
        }
    }

    /// Concatenated text content of the subtree rooted at `id`.
    pub fn text_of(&self, id: NodeId) -> String {
        let mut out = String::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            match self.node(cur) {
                Node::Text(t) => {
                    if !out.is_empty() && !out.ends_with(' ') {
                        out.push(' ');
                    }
                    out.push_str(t.trim());
                }
                Node::Element { children, tag, .. } => {
                    // Script/style text is not user-visible.
                    if tag != "script" && tag != "style" {
                        for &c in children.iter().rev() {
                            stack.push(c);
                        }
                    }
                }
                Node::Comment(_) => {}
            }
        }
        out
    }

    /// All user-visible text in the document.
    pub fn visible_text(&self) -> String {
        let mut parts = Vec::new();
        for &r in self.roots() {
            let t = self.text_of(r);
            if !t.is_empty() {
                parts.push(t);
            }
        }
        parts.join(" ")
    }

    /// All `href` values of `<a>` elements.
    pub fn links(&self) -> Vec<&str> {
        self.elements_by_tag("a")
            .into_iter()
            .filter_map(|e| e.attr("href"))
            .collect()
    }

    /// All `<form>` elements.
    pub fn forms(&self) -> Vec<ElementRef<'_>> {
        self.elements_by_tag("form")
    }

    /// All `<input>` elements.
    pub fn inputs(&self) -> Vec<ElementRef<'_>> {
        self.elements_by_tag("input")
    }

    /// All `<iframe>` elements.
    pub fn iframes(&self) -> Vec<ElementRef<'_>> {
        self.elements_by_tag("iframe")
    }

    /// True when the page asks search engines not to index it:
    /// `<meta name="robots" content="...noindex...">` — the
    /// discovery-evasion signal from Section 3.
    pub fn has_noindex_meta(&self) -> bool {
        self.elements_by_tag("meta").iter().any(|m| {
            let name_ok = m
                .attr("name")
                .map(|n| {
                    let n = n.to_ascii_lowercase();
                    n == "robots" || n == "googlebot"
                })
                .unwrap_or(false);
            let content_noindex = m
                .attr("content")
                .map(|c| c.to_ascii_lowercase().contains("noindex"))
                .unwrap_or(false);
            name_ok && content_noindex
        })
    }

    /// Does the page hide an element whose class names it as a service
    /// banner? (The paper's "Obfuscating FWB Footer" feature.)
    pub fn has_obfuscated_banner(&self) -> bool {
        self.elements().iter().any(|e| {
            e.attr("class")
                .map(|c| c.contains("banner"))
                .unwrap_or(false)
                && e.is_hidden_by_style()
        })
    }

    /// Inputs that collect sensitive data: passwords, emails, telephone
    /// numbers, plus text inputs whose name/placeholder mention credential
    /// vocabulary (SSN, card, account...).
    pub fn credential_inputs(&self) -> Vec<ElementRef<'_>> {
        self.inputs()
            .into_iter()
            .filter(|i| {
                let ty = i.attr("type").unwrap_or("text").to_ascii_lowercase();
                if matches!(ty.as_str(), "password" | "email" | "tel") {
                    return true;
                }
                if ty != "text" && !ty.is_empty() {
                    return false;
                }
                let hay = format!(
                    "{} {} {}",
                    i.attr("name").unwrap_or(""),
                    i.attr("placeholder").unwrap_or(""),
                    i.attr("id").unwrap_or("")
                )
                .to_ascii_lowercase();
                SENSITIVE_NAMES.iter().any(|s| hay.contains(s))
            })
            .collect()
    }

    /// True when any form contains a password input — the paper's
    /// "login form" feature.
    pub fn has_login_form(&self) -> bool {
        // Find password inputs and check they sit under a form; tolerant
        // pages sometimes omit the form, so a bare password input counts too.
        self.inputs().iter().any(|i| {
            i.attr("type")
                .map(|t| t.eq_ignore_ascii_case("password"))
                .unwrap_or(false)
        })
    }

    /// Raw "tag element" strings (each element re-serialised without its
    /// children) in document order — the unit of comparison of the paper's
    /// Appendix A similarity algorithm.
    pub fn tag_elements(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(|_, node| {
            if let Node::Element { tag, attrs, .. } = node {
                let mut s = format!("<{tag}");
                for a in attrs {
                    if a.value.is_empty() {
                        s.push_str(&format!(" {}", a.name));
                    } else {
                        s.push_str(&format!(" {}=\"{}\"", a.name, a.value));
                    }
                }
                s.push('>');
                out.push(s);
            }
        });
        out
    }

    /// Links that leave `own_host`'s registrable domain, and links that stay
    /// inside (or are relative). Returns `(internal, external)` counts.
    pub fn link_partition(&self, own_registrable_domain: &str) -> (usize, usize) {
        let mut internal = 0;
        let mut external = 0;
        for href in self.links() {
            if href.starts_with("http://") || href.starts_with("https://") {
                match freephish_urlparse_lite_host(href) {
                    Some(h)
                        if h == own_registrable_domain
                            || h.ends_with(&format!(".{own_registrable_domain}")) =>
                    {
                        internal += 1
                    }
                    Some(_) => external += 1,
                    None => external += 1,
                }
            } else if href.starts_with('#') || href.is_empty() || href == "javascript:void(0)" {
                // Empty/fragment links counted separately via empty_links().
            } else {
                internal += 1; // relative link
            }
        }
        (internal, external)
    }

    /// Count of empty links (`href=""`, `href="#"`, `javascript:void(0)`) —
    /// a StackModel feature: phishing pages are full of dead navigation.
    pub fn empty_links(&self) -> usize {
        self.links()
            .iter()
            .filter(|h| {
                h.is_empty()
                    || **h == "#"
                    || h.starts_with("javascript:void")
                    || h.starts_with("javascript:;")
            })
            .count()
    }
}

/// Minimal host extraction for absolute URLs inside href values (full
/// parsing lives in `freephish-urlparse`; this avoids a dependency cycle and
/// is only used for internal/external link counting).
pub(crate) fn freephish_urlparse_lite_host(url: &str) -> Option<String> {
    let rest = url
        .strip_prefix("https://")
        .or_else(|| url.strip_prefix("http://"))?;
    let end = rest.find(['/', '?', '#', ':']).unwrap_or(rest.len());
    let host = &rest[..end];
    if host.is_empty() {
        None
    } else {
        Some(host.to_ascii_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use crate::parse;

    #[test]
    fn title_and_text() {
        let doc = parse("<html><head><title> My Bank </title></head><body>Sign in</body></html>");
        assert_eq!(doc.title().as_deref(), Some("My Bank"));
        assert!(doc.visible_text().contains("Sign in"));
    }

    #[test]
    fn script_text_not_visible() {
        let doc = parse("<body><script>var hidden = 1;</script>shown</body>");
        let t = doc.visible_text();
        assert!(t.contains("shown"));
        assert!(!t.contains("hidden"));
    }

    #[test]
    fn links_and_partition() {
        let doc = parse(
            r##"<a href="https://evil.weebly.com/next">n</a>
               <a href="/local">l</a>
               <a href="https://other.com/x">x</a>
               <a href="#">dead</a>"##,
        );
        assert_eq!(doc.links().len(), 4);
        let (int, ext) = doc.link_partition("weebly.com");
        assert_eq!((int, ext), (2, 1));
        assert_eq!(doc.empty_links(), 1);
    }

    #[test]
    fn login_form_detection() {
        let with = parse(r#"<form><input type="text"><input type="password"></form>"#);
        assert!(with.has_login_form());
        let without = parse(r#"<form><input type="text" name="search"></form>"#);
        assert!(!without.has_login_form());
    }

    #[test]
    fn credential_inputs_by_type_and_name() {
        let doc = parse(
            r#"<input type="password">
               <input type="email">
               <input type="text" name="ssn_number">
               <input type="text" placeholder="Card number">
               <input type="checkbox" name="remember">
               <input type="text" name="favourite_colour">"#,
        );
        assert_eq!(doc.credential_inputs().len(), 4);
    }

    #[test]
    fn noindex_meta_detection() {
        let yes = parse(r#"<head><meta name="robots" content="noindex, nofollow"></head>"#);
        assert!(yes.has_noindex_meta());
        let wrong_name = parse(r#"<meta name="viewport" content="noindex">"#);
        assert!(!wrong_name.has_noindex_meta());
        let no = parse(r#"<meta name="robots" content="index, follow">"#);
        assert!(!no.has_noindex_meta());
    }

    #[test]
    fn hidden_style_detection() {
        let doc = parse(
            r#"<div id="banner" style="visibility: hidden">FWB banner</div>
               <div style="display: none">x</div>
               <div style="color: red">visible</div>"#,
        );
        let divs = doc.elements_by_tag("div");
        assert!(divs[0].is_hidden_by_style());
        assert!(divs[1].is_hidden_by_style());
        assert!(!divs[2].is_hidden_by_style());
    }

    #[test]
    fn tag_elements_serialisation() {
        let doc = parse(r#"<div class="a"><p>t</p></div>"#);
        let tags = doc.tag_elements();
        assert_eq!(
            tags,
            vec![r#"<div class="a">"#.to_string(), "<p>".to_string()]
        );
    }

    #[test]
    fn iframes_listed() {
        let doc = parse(r#"<iframe src="https://evil.com/f"></iframe>"#);
        assert_eq!(doc.iframes().len(), 1);
        assert_eq!(doc.iframes()[0].attr("src"), Some("https://evil.com/f"));
    }

    #[test]
    fn classes_split() {
        let doc = parse(r#"<div class="a b  c"></div>"#);
        assert_eq!(doc.elements_by_tag("div")[0].classes(), vec!["a", "b", "c"]);
    }
}
