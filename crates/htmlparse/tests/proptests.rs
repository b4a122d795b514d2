//! Property tests: the HTML pipeline must be total (never panic) and
//! structurally sane on arbitrary input.

use freephish_htmlparse::{legacy, parse, tokenize, tokenize_spans, Node, PageFacts, SpanToken};
use freephish_simclock::prop::{check, Gen};

/// HTML-shaped soup: denser in tags, attributes, entities, comments and
/// raw-text elements than plain printable text, so equivalence tests hit
/// the interesting tokenizer paths, while still frequently malformed.
fn htmlish(g: &mut Gen) -> String {
    const FIXED: [&str; 13] = [
        "<!-- c -->",
        "<!--unterminated",
        "<!DOCTYPE html>",
        "<script>if (a<b) &amp; x</script>",
        "<SCRIPT>y</SCRIPT>",
        "<style>p{color:red}",
        "&amp; &lt; &unknown; &#39;",
        "<a href=\"#\">",
        "<a href=https://x.weebly.com/p>",
        "<input type=PASSWORD name=user_pin>",
        "<title>T</title>",
        "<meta name=robots content=\"noindex\">",
        "<div class=banner style=\"display: none\">",
    ];
    let pieces = g.vec(0..24, |g| match g.usize_in(0..3 + FIXED.len()) {
        0 => g.text(0..13),
        1 => open_tag(g),
        // `</[a-zA-Z]{1,6} ?>?`
        2 => format!("</{}", g.string("a-zA-Z", 1..7)) + *g.pick(&["", " "]) + *g.pick(&["", ">"]),
        k => FIXED[k - 3].to_string(),
    });
    pieces.concat()
}

/// `<[a-zA-Z]{1,6}( [a-zA-Z-]{1,5}(=('[^']{0,6}'|"[^"]{0,6}"|[a-z&;#]{0,6}))?){0,3}/?>?`
fn open_tag(g: &mut Gen) -> String {
    let mut tag = format!("<{}", g.string("a-zA-Z", 1..7));
    for _ in 0..g.usize_in(0..4) {
        tag += " ";
        tag += &g.string("a-zA-Z-", 1..6);
        match g.usize_in(0..4) {
            0 => {}
            1 => tag += &format!("='{}'", g.text(0..7).replace('\'', "")),
            2 => tag += &format!("=\"{}\"", g.text(0..7).replace('"', "")),
            _ => tag += &format!("={}", g.string("a-z&;#", 0..7)),
        }
    }
    tag + *g.pick(&["", "/"]) + *g.pick(&["", ">"])
}

/// The tokenizer accepts any string without panicking.
#[test]
fn tokenizer_is_total() {
    check(256, |g| {
        let _ = tokenize(&g.text(0..501));
    });
}

/// The DOM builder accepts any string without panicking, and every
/// child id referenced by an element is a valid arena index.
#[test]
fn dom_builder_is_total_and_consistent() {
    check(256, |g| {
        let doc = parse(&g.text(0..501));
        let n = doc.len();
        doc.walk(|id, node| {
            assert!(id.0 < n);
            if let Node::Element { children, .. } = node {
                for c in children {
                    assert!(c.0 < n);
                }
            }
        });
    });
}

/// Queries are total on arbitrary input.
#[test]
fn queries_are_total() {
    check(256, |g| {
        let doc = parse(&g.text(0..501));
        let _ = doc.title();
        let _ = doc.visible_text();
        let _ = doc.links();
        let _ = doc.credential_inputs();
        let _ = doc.has_noindex_meta();
        let _ = doc.tag_elements();
        let _ = doc.link_partition("weebly.com");
        let _ = doc.empty_links();
    });
}

/// Well-formed generated documents: element count seen by walk equals
/// the number of open tags we emitted.
#[test]
fn generated_doc_element_count() {
    check(256, |g| {
        let tags = g.vec(0..20, |g| g.string("a-z", 1..7));
        let mut html = String::new();
        for t in &tags {
            html.push_str(&format!("<{t}>x</{t}>"));
        }
        let doc = parse(&html);
        let mut count = 0;
        doc.walk(|_, n| count += usize::from(matches!(n, Node::Element { .. })));
        assert_eq!(count, tags.len(), "{html:?}");
    });
}

/// Text content round-trips through a simple wrapper element (edge
/// whitespace is trimmed; interior whitespace is preserved).
#[test]
fn text_round_trip() {
    // An interior double space, the case this property once shrank to.
    assert_eq!(parse("<p>A  ,</p>").visible_text(), "A  ,");
    check(256, |g| {
        let text = g.string("a-zA-Z0-9 .,", 1..81);
        if text.trim().is_empty() {
            return;
        }
        let doc = parse(&format!("<p>{text}</p>"));
        assert_eq!(doc.visible_text(), text.trim());
    });
}

/// The zero-copy span tokenizer (through the owned adapter) produces
/// exactly the legacy token stream on arbitrary input.
#[test]
fn span_tokenizer_equals_legacy_on_soup() {
    check(256, |g| {
        let s = g.text(0..501);
        assert_eq!(tokenize(&s), legacy::tokenize(&s), "{s:?}");
    });
}

/// Same equivalence on HTML-shaped (often malformed) input, which hits
/// the raw-text, entity and attribute paths far more often than soup.
#[test]
fn span_tokenizer_equals_legacy_on_htmlish() {
    check(256, |g| {
        let s = htmlish(g);
        assert_eq!(tokenize(&s), legacy::tokenize(&s), "{s:?}");
    });
}

/// The single-pass fact extractor matches the build-a-DOM-and-query
/// reference bit for bit on arbitrary input.
#[test]
fn page_facts_equal_dom_queries_on_soup() {
    check(256, |g| {
        let s = g.text(0..501);
        let fast = PageFacts::extract(&s, "weebly.com");
        let slow = PageFacts::from_document(&parse(&s), "weebly.com");
        assert_eq!(fast, slow, "{s:?}");
    });
}

/// Same fact equivalence on HTML-shaped input.
#[test]
fn page_facts_equal_dom_queries_on_htmlish() {
    check(256, |g| {
        let s = htmlish(g);
        let fast = PageFacts::extract(&s, "weebly.com");
        let slow = PageFacts::from_document(&parse(&s), "weebly.com");
        assert_eq!(fast, slow, "{s:?}");
    });
}

/// Attribute names the tags below are built from, and queried by.
const ATTR_NAMES: [&str; 7] = ["href", "type", "class", "style", "data-x", "name", "id"];

/// Tags built to stress the attribute walker: names from a small pool in
/// mixed case (so duplicates are common), double-, single- and unquoted
/// values holding `>`, `<`, `/`, `=` and entities, valueless attributes,
/// stray `=` and `/`, and documents cut off anywhere, inside a quoted
/// value included.
fn attribute_soup(g: &mut Gen) -> String {
    const VALUES: [&str; 11] = [
        "",
        "a&amp;b",
        "x > y",
        "<b>",
        "/p",
        "&lt;&quot;&#39;",
        "a b",
        "PassWord",
        "=",
        "x-banner",
        "display:none",
    ];
    let mut html = String::new();
    for _ in 0..g.usize_in(1..4) {
        html += &format!("<{}", g.pick(&["a", "INPUT", "meta", "Div"]));
        for _ in 0..g.usize_in(0..6) {
            html += *g.pick(&[" ", "\n ", "/", " / "]);
            let mut name = g.pick(&ATTR_NAMES).to_string();
            if g.bool() {
                name = name.to_ascii_uppercase();
            }
            let value = *g.pick(&VALUES);
            html += &match g.usize_in(0..5) {
                0 => name,
                1 => format!("{name}=\"{value}\""),
                2 => format!("{name} = '{}'", value.replace('\'', "")),
                3 => format!("{name}={}", value.replace([' ', '>'], "")),
                _ => format!("={}", value.replace([' ', '>'], "")),
            };
        }
        html += *g.pick(&[">", "/>", " >text", "<p>", ""]);
    }
    let cut = g.usize_in(0..html.len() + 1);
    html[..cut].to_string()
}

/// Every open tag's lazily parsed attributes equal the legacy tokenizer's
/// eagerly parsed ones, `get(name)` is the first `iter()` match, and the
/// facts read through `get` equal the DOM queries.
#[test]
fn lazy_attributes_equal_legacy_and_get_is_the_first_match() {
    check(256, |g| {
        let html = attribute_soup(g);
        assert_eq!(tokenize(&html), legacy::tokenize(&html), "{html:?}");
        let facts = PageFacts::extract(&html, "weebly.com");
        assert_eq!(
            facts,
            PageFacts::from_document(&parse(&html), "weebly.com"),
            "{html:?}"
        );
        for tok in tokenize_spans(&html) {
            if let SpanToken::Open { attrs, .. } = tok {
                for name in ATTR_NAMES {
                    let first = attrs.iter().find(|a| a.name == name).map(|a| a.value);
                    assert_eq!(attrs.get(name), first, "{html:?} name={name}");
                }
            }
        }
    });
}
